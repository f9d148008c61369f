"""SPDC joint spectral amplitude construction and bandpass filtering.

The joint spectral amplitude (JSA) is modeled as the product of a Gaussian
pump envelope evaluated at the detuning sum and a type-II phase-matching
function of the two detunings.  The crystal group-velocity-mismatch slopes
are free model parameters: the defaults (``constants.DEFAULT_GVM_*``) are
tuned so that the heralded-photon purity and the interference-dip width with
10 nm filters land on the experimentally reported values (see the preset
scenario files, which record them explicitly).

Every pump, phase-matching and filter model is real, so the JSA is a float64
matrix; :class:`JointSpectralAmplitude` keeps complex128 only for a complex
matrix handed to it.  With the Gaussian approximation of phase matching the
JSA is one Gaussian of a quadratic form,

    A(ws, wi) = exp(-(P ws^2 + Q wi^2 + 2 R ws wi)),
    P = a + g gvm_s^2,  Q = a + g gvm_i^2,  R = a + g gvm_s gvm_i,

with a = 2 ln2/dw_p^2 from the pump's intensity FWHM dw_p and
g = 0.193 (L/2)^2 from the crystal length L.  It is evaluated as one
exponential of the completed square P (ws + R/P wi)^2 + (PQ - R^2)/P wi^2,
PQ - R^2 = a g (gvm_s - gvm_i)^2, whose two terms are non-negative, so no
rounding cancels along the correlation ridge.  A centred Gaussian filter of
FWHM w adds 2 ln2/w^2 to P or Q, and the heralded purity is
sqrt(1 - R^2/PQ) (Grice & Walmsley, PRA 56, 1627 (1997); Law, Walmsley &
Eberly, PRL 84, 5304 (2000)).  The exact ``sinc`` model is evaluated as
sin(x)/x times the pump envelope in row blocks written into the one
N_s x N_i output matrix, with a scratch of one block (64 Ki cells).
Filtering multiplies by the two 1-D amplitude transmissions.  A run keeps
one N_s x N_i matrix per JSA and normalises it once: ``build_jsa`` given
filters multiplies the transmissions into its fresh, unnormalised matrix
and then normalises it, all in place.  ``apply_filters`` runs the same
steps on one copy of the JSA it is given, and the public constructor scales
a copy and never touches the caller's array.  Every JSA, filtered or not,
must have a quadrature norm of at least 1e-15 before it is normalised; a
filtered one below that raises :class:`DegenerateFilterError`.  The raw
pump-times-phase-matching matrix peaks at no more than 1, so the floor is
an absolute one on the same scale for every source.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import (
    DEFAULT_GVM_IDLER,
    DEFAULT_GVM_SIGNAL,
    GAUSSIAN_TIME_BANDWIDTH,
    SPEED_OF_LIGHT_NM_PER_FS,
    TWO_LN2,
    fwhm_wavelength_to_angular,
)
from .errors import DegenerateFilterError, InvalidArgumentError
from .frozen import Frozen
from .spectral import FrequencyGrid

# Gaussian approximation of the central sinc lobe: sinc(x) ~ exp(-GAMMA x^2).
SINC_GAUSSIAN_GAMMA = 0.193

# Cells per row block of the exact ``sinc`` model's scratch (512 KiB).
_SINC_BLOCK_CELLS = 1 << 16


class PumpSpectrum(Frozen):
    """Transform-limited Gaussian pump pulse.

    ``pulse_duration_fwhm`` is the intensity FWHM in fs; the spectral
    intensity FWHM follows from the 0.441 Gaussian time-bandwidth product.
    """

    center_wavelength: float = 390.0
    pulse_duration_fwhm: float = 140.0

    def __post_init__(self) -> None:
        # Written ``not x > 0`` so that NaN fails too, here and below.
        if not self.pulse_duration_fwhm > 0:
            raise InvalidArgumentError(
                f"pulse_duration_fwhm must be > 0, got {self.pulse_duration_fwhm}"
            )
        if not self.center_wavelength > 0:
            raise InvalidArgumentError(
                f"center_wavelength must be > 0, got {self.center_wavelength}"
            )

    @property
    def angular_fwhm(self) -> float:
        """Spectral intensity FWHM in rad/fs."""
        return 2.0 * math.pi * GAUSSIAN_TIME_BANDWIDTH / self.pulse_duration_fwhm


class PhaseMatching(Frozen):
    """Type-II phase-matching model, first order in the detunings.

    The argument of the matching function is
    ``x = crystal_length/2 * (gvm_signal*W_s + gvm_idler*W_i)`` with the
    group-velocity-mismatch slopes in fs/mm; ``model`` selects either the
    exact sinc(x) or its Gaussian approximation exp(-0.193 x^2).
    """

    crystal_length: float = 1.0
    model: str = "gaussian-approx"
    gvm_signal: float = DEFAULT_GVM_SIGNAL
    gvm_idler: float = DEFAULT_GVM_IDLER

    def __post_init__(self) -> None:
        if not self.crystal_length > 0:
            raise InvalidArgumentError(
                f"crystal_length must be > 0, got {self.crystal_length}"
            )
        if self.model not in ("sinc", "gaussian-approx"):
            raise InvalidArgumentError(f"unknown phase-matching model {self.model!r}")
        if self.gvm_signal == self.gvm_idler:
            raise InvalidArgumentError(
                "gvm_signal and gvm_idler must differ (type-II asymmetry)"
            )


class BandpassFilter(Frozen):
    """Bandpass filter described by its intensity transmission profile."""

    center_wavelength: float
    fwhm: float
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        if not self.fwhm > 0:
            raise InvalidArgumentError(f"filter fwhm must be > 0, got {self.fwhm}")
        if not self.center_wavelength > 0:
            raise InvalidArgumentError(
                f"filter center_wavelength must be > 0, got {self.center_wavelength}"
            )
        if self.shape not in ("gaussian", "flattop"):
            raise InvalidArgumentError(f"unknown filter shape {self.shape!r}")

    def amplitude_transmission(self, grid: FrequencyGrid) -> np.ndarray:
        """sqrt(T) sampled on ``grid`` (detunings relative to the grid carrier)."""
        # Detuning of the filter center from the grid carrier.
        offset = (
            2.0
            * math.pi
            * SPEED_OF_LIGHT_NM_PER_FS
            * (1.0 / self.center_wavelength - 1.0 / grid.center_wavelength)
        )
        width = fwhm_wavelength_to_angular(self.fwhm, self.center_wavelength)
        x = grid.detunings - offset
        if self.shape == "gaussian":
            return np.exp(-TWO_LN2 * (x / width) ** 2)
        return np.where(np.abs(x) <= width / 2.0, 1.0, 0.0)


class JointSpectralAmplitude(Frozen):
    """Signal x idler amplitude matrix, L2-normalized on construction.

    ``amplitudes[k, l]`` is the amplitude at signal detuning k, idler
    detuning l; the norm convention is
    ``sum |A|^2 * spacing_s * spacing_i == 1``.  The matrix keeps the kind
    it is given: float64 for a real matrix, which every pump,
    phase-matching and filter model produces, and complex128 only for a
    complex one.
    """

    grid_signal: FrequencyGrid
    grid_idler: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = self.amplitudes
        amp = np.asarray(amp, dtype=complex if np.iscomplexobj(amp) else float)
        scale = _inverse_norm(amp, self.grid_signal, self.grid_idler)
        amp = amp * scale  # a new array: the caller's is never touched
        amp.setflags(write=False)
        self.__dict__["amplitudes"] = amp

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes, self.grid_signal, self.grid_idler)


def _owning_jsa(
    grid_signal: FrequencyGrid, grid_idler: FrequencyGrid, amp: np.ndarray
) -> JointSpectralAmplitude:
    """The JSA of ``amp``, a float64 or complex128 array that the caller
    made for it and drops: it is normalised in place and becomes read-only,
    with the same bits as the constructor's copy."""
    amp *= _inverse_norm(amp, grid_signal, grid_idler)
    amp.setflags(write=False)
    jsa = object.__new__(JointSpectralAmplitude)
    jsa.__dict__.update(grid_signal=grid_signal, grid_idler=grid_idler, amplitudes=amp)
    return jsa


def _inverse_norm(
    amp: np.ndarray, grid_signal: FrequencyGrid, grid_idler: FrequencyGrid
) -> float:
    """1/norm of an amplitude matrix on the grids, after checking its shape
    and that its norm is neither zero nor NaN."""
    expected = (grid_signal.n_points, grid_idler.n_points)
    if amp.shape != expected:
        raise InvalidArgumentError(f"amplitude matrix shape {amp.shape}, expected {expected}")
    norm = _norm(amp, grid_signal, grid_idler)
    if not norm >= 1e-15:
        raise InvalidArgumentError("joint spectral amplitude has zero norm")
    return 1.0 / norm


def _norm(amp: np.ndarray, grid_signal: FrequencyGrid, grid_idler: FrequencyGrid) -> float:
    """sqrt(sum |A|^2 * spacing_s * spacing_i), one reduction over the matrix
    (``conj`` of a real matrix is the matrix itself, so no copy)."""
    squared = float(np.einsum("ij,ij->", amp.conj(), amp).real)
    return math.sqrt(squared * grid_signal.spacing * grid_idler.spacing)


def build_jsa(
    pump: PumpSpectrum,
    pm: PhaseMatching,
    grid_signal: FrequencyGrid,
    grid_idler: FrequencyGrid,
    filter_signal: BandpassFilter | None = None,
    filter_idler: BandpassFilter | None = None,
) -> JointSpectralAmplitude:
    """Pump envelope times phase matching on the given degenerate grids,
    optionally filtered.

    Both grids must be centered at twice the pump wavelength (degenerate
    down-conversion); energy conservation puts the pump envelope at the
    detuning sum W_s + W_i.  With a filter on either arm the one new matrix
    is multiplied by the amplitude transmissions and then normalised, once
    and in place: the bits of the public constructor applied to the raw
    matrix times the transmissions, without its second N_s x N_i array.  A
    filter combination that leaves a quadrature norm below 1e-15 raises
    :class:`DegenerateFilterError`.
    """
    degenerate = 2.0 * pump.center_wavelength
    for name, grid in (("signal", grid_signal), ("idler", grid_idler)):
        if not math.isclose(grid.center_wavelength, degenerate, rel_tol=1e-9):
            raise InvalidArgumentError(
                f"{name} grid centered at {grid.center_wavelength} nm, expected the "
                f"degenerate wavelength {degenerate} nm"
            )
    amp = _amplitude_matrix(pump, pm, grid_signal.detunings, grid_idler.detunings)
    if filter_signal is None and filter_idler is None:
        return _owning_jsa(grid_signal, grid_idler, amp)
    return _filtered_jsa(grid_signal, grid_idler, amp, filter_signal, filter_idler)


def _amplitude_matrix(
    pump: PumpSpectrum, pm: PhaseMatching, ws: np.ndarray, wi: np.ndarray
) -> np.ndarray:
    """The unnormalised float64 JSA matrix, a new array."""
    if pm.model == "sinc":
        # Elementwise, so row blocks written into the one output matrix give
        # the bits of the whole-matrix formula with a block-sized scratch.
        amp = np.empty((len(ws), len(wi)))
        rows = max(1, _SINC_BLOCK_CELLS // len(wi))
        xs, xi = pm.gvm_signal * ws, pm.gvm_idler * wi
        ys, yi = ws / pump.angular_fwhm, wi / pump.angular_fwhm
        for start in range(0, len(ws), rows):
            block = slice(start, start + rows)
            x = np.add.outer(xs[block], xi)
            x *= 0.5 * pm.crystal_length
            x[x == 0.0] = 1e-300  # sin(x)/x -> 1
            out = np.sin(x, out=amp[block])
            out /= x
            pump_amp = np.add.outer(ys[block], yi, out=x)
            pump_amp *= pump_amp
            pump_amp *= -TWO_LN2
            out *= np.exp(pump_amp, out=pump_amp)
        return amp
    # One exponential of the completed square (see the module docstring);
    # expanding P ws^2 + Q wi^2 + 2R ws wi instead loses up to 1e-12 of the
    # peak to cancellation when gvm_s is close to gvm_i.
    a = TWO_LN2 / pump.angular_fwhm**2
    g = SINC_GAUSSIAN_GAMMA * (0.5 * pm.crystal_length) ** 2
    p = a + g * pm.gvm_signal**2
    r = a + g * pm.gvm_signal * pm.gvm_idler
    d = a * g * (pm.gvm_signal - pm.gvm_idler) ** 2 / p
    exponent = np.add.outer(math.sqrt(p) * ws, r / math.sqrt(p) * wi)
    exponent *= exponent
    np.subtract(-d * wi**2, exponent, out=exponent)
    return np.exp(exponent, out=exponent)


def apply_filters(
    jsa: JointSpectralAmplitude,
    filter_signal: BandpassFilter | None,
    filter_idler: BandpassFilter | None,
) -> JointSpectralAmplitude:
    """Multiply by the amplitude transmissions sqrt(T_s) sqrt(T_i), renormalize.

    ``None`` leaves an arm unfiltered.  The result is a new JSA made from one
    copy of ``jsa``'s matrix.  ``build_jsa`` with the same filters filters
    the unnormalised matrix instead, so the two agree to rounding (a few
    1e-16 relative per cell), not bit for bit.  A filter combination that
    removes essentially all amplitude (norm < 1e-15 before renormalization)
    raises :class:`DegenerateFilterError`.
    """
    # order="K" keeps the input's memory layout, and with it the norm's
    # summation order, as the product ``jsa.amplitudes * ts[:, None]`` would.
    amp = jsa.amplitudes.copy(order="K")
    return _filtered_jsa(jsa.grid_signal, jsa.grid_idler, amp, filter_signal, filter_idler)


def _filtered_jsa(
    grid_signal: FrequencyGrid,
    grid_idler: FrequencyGrid,
    amp: np.ndarray,
    filter_signal: BandpassFilter | None,
    filter_idler: BandpassFilter | None,
) -> JointSpectralAmplitude:
    """The JSA of ``amp`` times the filters' amplitude transmissions, for a
    matrix that the caller made for it and drops: it is filtered and
    normalised in place.  A ``None`` arm is skipped: for a real matrix that
    has the bits of a product with ones."""
    if filter_signal is not None:
        amp *= filter_signal.amplitude_transmission(grid_signal)[:, None]
    if filter_idler is not None:
        amp *= filter_idler.amplitude_transmission(grid_idler)
    try:
        return _owning_jsa(grid_signal, grid_idler, amp)
    except InvalidArgumentError as exc:  # the grids match, so only a zero norm
        raise DegenerateFilterError(
            "bandpass filters annihilate the joint spectral amplitude"
        ) from exc
