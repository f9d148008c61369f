"""Frequency grids and discretized complex spectral functions.

Every spectral quantity in the simulator lives on a uniform grid of angular
frequency *detunings* from a carrier: the carrier phase and any common group
delay drop out of the interference observables, so only detunings are kept.
Integrals are midpoint sums (amplitudes decay to ~0 at the grid edges, where
the rectangle rule is spectrally accurate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT_NM_PER_FS, TWO_LN2
from .errors import IncompatibleGridError, InvalidArgumentError


def fwhm_wavelength_to_angular(delta_lambda: float, center_lambda: float) -> float:
    """Convert a wavelength FWHM (nm) at ``center_lambda`` (nm) to rad/fs.

    Uses the first-order relation d(omega) = 2*pi*c*d(lambda)/lambda^2.
    """
    if center_lambda <= 0:
        raise InvalidArgumentError(f"center_lambda must be > 0, got {center_lambda}")
    if delta_lambda < 0:
        raise InvalidArgumentError(f"delta_lambda must be >= 0, got {delta_lambda}")
    return 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS * delta_lambda / center_lambda**2


@dataclass(frozen=True, eq=False, repr=False)
class FrequencyGrid:
    """Uniform detuning grid, symmetric about zero, around a carrier wavelength.

    Attributes:
        center_wavelength: carrier wavelength in nm.
        n_points: number of samples (>= 8).
        spacing: grid step in rad/fs.
        detunings: detuning samples in rad/fs; ``detunings[k] == -detunings[-1-k]``.
    """

    center_wavelength: float
    n_points: int
    spacing: float
    detunings: np.ndarray

    def __post_init__(self) -> None:
        det = np.asarray(self.detunings, dtype=float)
        if det.shape != (self.n_points,):
            raise InvalidArgumentError(
                f"detunings shape {det.shape} does not match n_points={self.n_points}"
            )
        if self.n_points < 8:
            raise InvalidArgumentError(f"n_points must be >= 8, got {self.n_points}")
        if self.spacing <= 0:
            raise InvalidArgumentError(f"spacing must be > 0, got {self.spacing}")
        det.setflags(write=False)
        object.__setattr__(self, "detunings", det)

    def compatible_with(self, other: "FrequencyGrid") -> bool:
        if self is other:
            return True
        return (
            self.n_points == other.n_points
            and self.center_wavelength == other.center_wavelength
            and self.spacing == other.spacing
            and np.array_equal(self.detunings, other.detunings)
        )

    def require_same(self, other: "FrequencyGrid") -> None:
        if not self.compatible_with(other):
            raise IncompatibleGridError(
                "spectral functions live on different frequency grids"
            )


def make_grid(
    center_wavelength: float,
    reference_bandwidth_fwhm: float,
    span_factor: float,
    n_points: int,
) -> FrequencyGrid:
    """Build a symmetric detuning grid spanning +-(span_factor x angular FWHM).

    ``reference_bandwidth_fwhm`` is the wavelength FWHM (nm) of the widest
    spectral feature the grid has to resolve; the grid extends span_factor
    times its angular-frequency equivalent on both sides of zero detuning.
    """
    if center_wavelength <= 0:
        raise InvalidArgumentError(
            f"center_wavelength must be > 0, got {center_wavelength}"
        )
    if reference_bandwidth_fwhm <= 0:
        raise InvalidArgumentError(
            f"reference_bandwidth_fwhm must be > 0, got {reference_bandwidth_fwhm}"
        )
    if span_factor < 2:
        raise InvalidArgumentError(f"span_factor must be >= 2, got {span_factor}")
    if n_points < 8:
        raise InvalidArgumentError(f"n_points must be >= 8, got {n_points}")
    half_span = span_factor * fwhm_wavelength_to_angular(
        reference_bandwidth_fwhm, center_wavelength
    )
    spacing = 2.0 * half_span / (n_points - 1)
    # (k - (n-1)/2) * spacing gives exactly mirror-symmetric samples.
    detunings = (np.arange(n_points) - (n_points - 1) / 2.0) * spacing
    return FrequencyGrid(
        center_wavelength=float(center_wavelength),
        n_points=int(n_points),
        spacing=float(spacing),
        detunings=detunings,
    )


@dataclass(frozen=True, eq=False, repr=False)
class SpectralFunction:
    """A complex amplitude sampled on a :class:`FrequencyGrid`.

    The L2 norm convention includes the quadrature weight:
    ``sum(|a_k|^2) * spacing == 1`` for a normalized function.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"amplitudes shape {amp.shape} does not match grid size "
                f"{self.grid.n_points}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(np.sum(np.abs(self.amplitudes) ** 2)) * self.grid.spacing
        )

    def normalized(self) -> "SpectralFunction":
        n = self.norm
        if n == 0.0:
            raise InvalidArgumentError("cannot normalize a zero spectral function")
        return SpectralFunction(self.grid, self.amplitudes / n)


def gaussian_mode(
    grid: FrequencyGrid,
    intensity_fwhm: float,
    center_detuning: float = 0.0,
) -> SpectralFunction:
    """Unit-norm Gaussian amplitude whose *intensity* FWHM is ``intensity_fwhm``
    (rad/fs), centered at ``center_detuning`` on the grid."""
    if intensity_fwhm <= 0:
        raise InvalidArgumentError(
            f"intensity_fwhm must be > 0, got {intensity_fwhm}"
        )
    x = grid.detunings - center_detuning
    amp = np.exp(-TWO_LN2 * (x / intensity_fwhm) ** 2)
    return SpectralFunction(grid, amp.astype(complex)).normalized()
