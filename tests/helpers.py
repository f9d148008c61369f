"""Test-side helpers and oracles that the simulator itself never calls."""

import math
from dataclasses import dataclass

import numpy as np

from homsim import hom
from homsim.errors import InvalidArgumentError
from homsim.network import BeamSplitterNode, DetectorNode, NetworkEdge, NetworkSpec, SourceNode
from homsim.schmidt import SchmidtDecomposition
from homsim.source import JointSpectralAmplitude, jsi
from homsim.spectral import FrequencyGrid, HeraldedState


@dataclass(frozen=True)
class DispersiveElement:
    """A dispersive medium: GVD parameter beta (fs^2/mm) and length (mm)."""

    beta: float
    length: float

    def __post_init__(self) -> None:
        if self.length < 0:
            raise InvalidArgumentError(f"length must be >= 0, got {self.length}")

    @property
    def beta_l(self) -> float:
        return self.beta * self.length


def gvd_phase(detuning, beta_l: float):
    """Quadratic spectral phase 0.5 * beta*L * W^2 (radians); even in W.

    Accepts a scalar or an array of detunings.
    """
    return 0.5 * beta_l * np.square(detuning)


def pure_state(grid: FrequencyGrid, amplitudes) -> HeraldedState:
    """The rank-1 state of ``amplitudes`` normalized to unit L2 norm."""
    amp = np.asarray(amplitudes, dtype=complex)
    norm = math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid.spacing)
    return HeraldedState(np.array([1.0]), (amp / norm)[None], grid)


def inner_products(f: HeraldedState, g: HeraldedState) -> np.ndarray:
    """Discretized overlap integrals <f_n|g_m> = sum conj(f_n[k]) g_m[k] * spacing
    of every mode pair, as an (R_f, R_g) matrix.

    Conjugate-linear in the first argument.
    """
    f.grid.require_same(g.grid)
    return f.modes.conj() @ g.modes.T * f.grid.spacing


def coincidence_probability(
    state1: HeraldedState, state2: HeraldedState, delta_beta_l: float, tau: float
) -> float:
    """Coincidence probability at one delay: a one-sample scan."""
    return float(hom._probabilities(state1, state2, [delta_beta_l], tau, 0.0, 1)[0, 0])


def reconstruct(decomp: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the quadrature-weighted JSA matrix from the kept modes.

    The Frobenius distance to the original weighted matrix is bounded by
    sqrt(tail_mass).
    """
    scale = 1.0 - decomp.tail_mass  # undo the post-truncation renormalization
    cell = decomp.grid_signal.spacing * decomp.grid_idler.spacing
    coeff = np.sqrt(decomp.eigenvalues * scale * cell)
    return (decomp.signal_modes.T * coeff) @ decomp.idler_modes


def marginal_intensity_fwhm(jsa: JointSpectralAmplitude, axis: str = "signal") -> float:
    """FWHM (rad/fs) of the signal or idler marginal of the JSI.

    Linear interpolation between samples locates the half-maximum crossings;
    accuracy is limited by one grid spacing.
    """
    intensity = jsi(jsa)
    if axis == "signal":
        marginal = intensity.sum(axis=1)
        grid = jsa.grid_signal
    elif axis == "idler":
        marginal = intensity.sum(axis=0)
        grid = jsa.grid_idler
    else:
        raise InvalidArgumentError(f"axis must be 'signal' or 'idler', got {axis!r}")
    half = marginal.max() / 2.0
    above = np.nonzero(marginal >= half)[0]
    lo, hi = above[0], above[-1]
    x = grid.detunings

    def cross(i_out: int, i_in: int) -> float:
        if i_out < 0 or i_out >= len(x):
            return x[i_in]
        y0, y1 = marginal[i_out], marginal[i_in]
        return x[i_out] + (half - y0) / (y1 - y0) * (x[i_in] - x[i_out])

    return cross(hi + 1, hi) - cross(lo - 1, lo)


def cascade_network(
    beta_l_1: float,
    beta_l_2: float,
    beta_l_3: float,
    beta_l_12: float,
    delays: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> NetworkSpec:
    """The cascaded two-splitter topology: sources 1 and 2 meet at splitter A,
    one output of A and source 3 meet at splitter B; detectors on the
    remaining three outputs.  The four dispersive media sit on the two source
    arms into A, the A->B connection, and the source-3 arm into B."""
    return NetworkSpec(
        sources=[
            SourceNode("s1", delays[0]),
            SourceNode("s2", delays[1]),
            SourceNode("s3", delays[2]),
        ],
        beam_splitters=[BeamSplitterNode("A"), BeamSplitterNode("B")],
        detectors=[DetectorNode("d1"), DetectorNode("d2"), DetectorNode("d3")],
        edges=[
            NetworkEdge("s1", "A.in0", beta_l_1),
            NetworkEdge("s2", "A.in1", beta_l_2),
            NetworkEdge("A.out0", "d1"),
            NetworkEdge("A.out1", "B.in0", beta_l_12),
            NetworkEdge("s3", "B.in1", beta_l_3),
            NetworkEdge("B.out0", "d2"),
            NetworkEdge("B.out1", "d3"),
        ],
    )
