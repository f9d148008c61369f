"""Frequency grids and photon states sampled on them.

Every spectral quantity in the simulator lives on a uniform grid of angular
frequency *detunings* from a carrier: the carrier phase and any common group
delay drop out of the interference observables, so only detunings are kept.
Integrals are midpoint sums (amplitudes decay to ~0 at the grid edges, where
the rectangle rule is spectrally accurate).  Mode matrices keep the kind of
the data they are given: float64 for real modes, which every real JSA gives,
and complex128 only for complex ones.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TWO_LN2, fwhm_wavelength_to_angular
from .errors import IncompatibleGridError, InvalidArgumentError
from .frozen import Frozen


def frozen_array(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only C-ordered array of ``dtype``; without one,
    of the value's kind: complex128 for complex data, float64 for anything
    else.  An array that already is one and owns its memory (the array of
    another value, or one its caller made read-only) is shared; anything
    else is copied, so a writable array or a view stays writable and writing
    to it does not change the value.  A caller who shares an array and then
    makes it writable again can write to the value's array."""
    if dtype is None:
        dtype = complex if np.iscomplexobj(value) else float
    if (
        isinstance(value, np.ndarray)
        and value.dtype == dtype
        and value.base is None
        and not value.flags.writeable
        and value.flags.c_contiguous
    ):
        return value
    array = np.array(value, dtype=dtype, order="C")
    array.setflags(write=False)
    return array


class FrequencyGrid(Frozen):
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
        det = frozen_array(self.detunings, float)
        if det.shape != (self.n_points,):
            raise InvalidArgumentError(
                f"detunings shape {det.shape} does not match n_points={self.n_points}"
            )
        if self.n_points < 8:
            raise InvalidArgumentError(f"n_points must be >= 8, got {self.n_points}")
        if not self.spacing > 0:  # NaN fails too
            raise InvalidArgumentError(f"spacing must be > 0, got {self.spacing}")
        self.__dict__["detunings"] = det

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
                "photon states live on different frequency grids"
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


class HeraldedState(Frozen):
    """A photon as a spectral mixture: ``weights`` over the rows of ``modes``.

    ``modes`` is a read-only (R, N) matrix, one mode function per row,
    sampled on ``grid``: float64 for real modes, which every real JSA gives,
    and complex128 only for complex ones.  ``weights`` holds the R mixture
    weights and sums to 1.  A pure photon has R = 1.  The L2 norm convention
    includes the quadrature weight: ``sum(|modes[n]|^2) * grid.spacing == 1``
    for a normalized mode.
    """

    weights: np.ndarray
    modes: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self) -> None:
        w = frozen_array(self.weights, float)
        modes = frozen_array(self.modes)
        n_points = self.grid.n_points
        if len(w) == 0 or modes.shape != (len(w), n_points):
            raise InvalidArgumentError(
                f"modes shape {modes.shape} does not match {len(w)} weights on a "
                f"grid of {n_points} points"
            )
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InvalidArgumentError(
                f"weights must sum to 1, got {float(w.sum())!r}"
            )
        self.__dict__.update(weights=w, modes=modes)


def gaussian_mode(
    grid: FrequencyGrid,
    intensity_fwhm: float,
    center_detuning: float = 0.0,
) -> HeraldedState:
    """Pure state of a unit-norm Gaussian amplitude whose *intensity* FWHM is
    ``intensity_fwhm`` (rad/fs), centered at ``center_detuning`` on the grid;
    its mode is real (float64)."""
    if not intensity_fwhm > 0:
        raise InvalidArgumentError(
            f"intensity_fwhm must be > 0, got {intensity_fwhm}"
        )
    x = grid.detunings - center_detuning
    amp = np.exp(-TWO_LN2 * (x / intensity_fwhm) ** 2)
    norm = math.sqrt(float(np.sum(amp**2)) * grid.spacing)
    if norm == 0.0:
        raise InvalidArgumentError("the Gaussian amplitude vanishes on the grid")
    return HeraldedState(np.array([1.0]), (amp / norm)[None], grid)
