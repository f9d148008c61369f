"""Test-side helpers and oracles that the simulator itself never calls."""

import math
from dataclasses import dataclass

import numpy as np

from homsim import hom, io
from homsim.errors import InvalidArgumentError, NoDipError
from homsim.network import BeamSplitterNode, DetectorNode, NetworkEdge, NetworkSpec, SourceNode
from homsim.schmidt import SchmidtDecomposition
from homsim.source import JointSpectralAmplitude
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


def jsi(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Joint spectral intensity |A|^2 (non-negative, integrates to 1)."""
    x = np.abs(jsa.amplitudes)
    x *= x  # the bits of ``** 2`` without a second N_s x N_i array
    return x


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


def initial_guess_walk(taus: np.ndarray, probs: np.ndarray) -> tuple[float, float, float, float]:
    """``hom._initial_guess`` with its half-depth crossings found by walking
    one sample at a time from the minimum: the oracle of the search."""
    n = len(taus)
    edge = max(1, round(0.05 * n))
    baseline = float(np.mean(np.concatenate([probs[:edge], probs[-edge:]])))
    p_min = float(probs.min())
    i_min = int(np.argmin(probs))
    if baseline <= 0:
        raise NoDipError("scan baseline is not positive")
    visibility = 1.0 - p_min / baseline
    half_level = baseline - (baseline - p_min) / 2.0

    def crossing(direction: int) -> float:
        i = i_min
        while 0 <= i + direction < n and probs[i + direction] < half_level:
            i += direction
        j = i + direction
        if j < 0 or j >= n:
            return taus[i]
        y0, y1 = probs[i], probs[j]
        if y1 == y0:
            return taus[i]
        return taus[i] + (half_level - y0) / (y1 - y0) * (taus[j] - taus[i])

    width = abs(crossing(+1) - crossing(-1))
    if width <= 0:
        width = (taus[-1] - taus[0]) / 4.0
    return baseline, visibility, float(taus[i_min]), width


def reconstruct(decomp: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the quadrature-weighted JSA matrix from the kept modes.

    The Frobenius distance to the original weighted matrix is bounded by
    sqrt(tail_mass).
    """
    scale = 1.0 - decomp.tail_mass  # undo the post-truncation renormalization
    cell = decomp.grid_signal.spacing * decomp.grid_idler.spacing
    coeff = np.sqrt(decomp.eigenvalues * scale * cell)
    return (decomp.signal_modes.T * coeff) @ decomp.idler_modes


def write_jsi_csv_whole(path, jsa: JointSpectralAmplitude) -> None:
    """The JSI file as ``io.write_jsi_csv`` writes it, built whole in memory
    from the N x N intensity: the oracle of the streamed writer."""
    gs, gi = jsa.grid_signal, jsa.grid_idler
    header = [
        f"# signal: center_nm={io._fmt(gs.center_wavelength)} n={gs.n_points} "
        f"spacing_rad_fs={io._fmt(gs.spacing)}",
        f"# idler: center_nm={io._fmt(gi.center_wavelength)} n={gi.n_points} "
        f"spacing_rad_fs={io._fmt(gi.spacing)}",
    ]
    intensity = jsi(jsa)
    # One %-format per row over its band from the first to the last cell that
    # is not +0.0 (-0.0 prints "-0"); the same text as format(v, ".8g") per cell.
    nonzero = (intensity != 0) | np.signbit(intensity)
    n = intensity.shape[1]
    firsts = nonzero.argmax(axis=1).tolist()
    ends = (n - nonzero[:, ::-1].argmax(axis=1)).tolist()
    zero_row = ",".join(["0"] * n)
    lines = header
    for row, any_nonzero, a, b in zip(intensity, nonzero.any(axis=1), firsts, ends):
        if not any_nonzero:
            lines.append(zero_row)
            continue
        band = ",".join(["%.8g"] * (b - a)) % tuple(row[a:b].tolist())
        lines.append("0," * a + band + ",0" * (n - b))
    io.write_text(path, "\n".join(lines) + "\n")


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
