"""Test-side helpers and oracles that the simulator itself never calls."""

import math
from dataclasses import dataclass

import numpy as np

from homsim.errors import InvalidArgumentError
from homsim.network import BeamSplitterNode, DetectorNode, NetworkEdge, NetworkSpec, SourceNode
from homsim.schmidt import SchmidtDecomposition
from homsim.source import JointSpectralAmplitude, jsi
from homsim.spectral import SpectralFunction


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


def inner_product(f: SpectralFunction, g: SpectralFunction) -> complex:
    """Discretized overlap integral <f|g> = sum conj(f_k) g_k * spacing.

    Conjugate-linear in the first argument.
    """
    f.grid.require_same(g.grid)
    return complex(np.vdot(f.amplitudes, g.amplitudes) * f.grid.spacing)


def reconstruct(decomp: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the quadrature-weighted JSA matrix from the kept modes.

    The Frobenius distance to the original weighted matrix is bounded by
    sqrt(tail_mass).
    """
    ds = decomp.signal_modes[0].grid.spacing
    di = decomp.idler_modes[0].grid.spacing
    scale = 1.0 - decomp.tail_mass  # undo the post-truncation renormalization
    out = np.zeros(
        (decomp.signal_modes[0].grid.n_points, decomp.idler_modes[0].grid.n_points),
        dtype=complex,
    )
    for lam, phi, psi in zip(decomp.eigenvalues, decomp.signal_modes, decomp.idler_modes):
        coeff = math.sqrt(lam * scale * ds * di)
        out += coeff * np.outer(phi.amplitudes, psi.amplitudes)
    return out


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
