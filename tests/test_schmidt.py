import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import inner_products, reconstruct
from homsim import hom
from homsim.errors import DegenerateStateError, InvalidArgumentError
from homsim.hom import visibility_curve
from homsim.schmidt import (
    HeraldedState,
    SchmidtDecomposition,
    fix_gauge,
    herald,
    postulate_pure_state,
    purity,
    schmidt_decompose,
    schmidt_number,
)
from homsim.source import (
    BandpassFilter,
    JointSpectralAmplitude,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
)
from homsim.spectral import FrequencyGrid, make_grid


def correlated_gaussian_jsa(mu: float, n: int = 512, span_sigmas: float = 8.0):
    """exp(-(Ws+Wi)^2/4s+^2 - (Ws-Wi)^2/4s-^2); Schmidt spectrum (1-mu) mu^n
    with mu = ((s+ - s-)/(s+ + s-))^2."""
    s0 = 0.01
    sp = s0 * (1 + math.sqrt(mu))
    sm = s0 * (1 - math.sqrt(mu))
    half = span_sigmas * sp
    spacing = 2 * half / (n - 1)
    det = (np.arange(n) - (n - 1) / 2) * spacing
    grid = FrequencyGrid(780.0, n, spacing, det)
    x = det[:, None]
    y = det[None, :]
    amp = np.exp(-((x + y) ** 2) / (4 * sp**2) - ((x - y) ** 2) / (4 * sm**2))
    return JointSpectralAmplitude(grid, grid, amp)


def separable_jsa(n: int = 128):
    grid = make_grid(780.0, 10.0, 4.0, n)
    g = np.exp(-(grid.detunings**2) / (2 * 0.012**2))
    h = np.exp(-(grid.detunings**2) / (2 * 0.02**2))
    return JointSpectralAmplitude(grid, grid, np.outer(g, h))


def source_jsa(n: int, signal_fwhm: float = 10.0, model: str = "gaussian-approx"):
    grid = make_grid(780.0, 10.0, 4.0, n)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(model=model), grid, grid)
    return apply_filters(jsa, BandpassFilter(780.0, signal_fwhm), BandpassFilter(780.0, 10.0))


def oracle_svd(jsa: JointSpectralAmplitude):
    """Full ``np.linalg.svd`` of the quadrature-weighted JSA: the reference
    the randomized decomposition is checked against.  A JSA without
    imaginary part is passed as the same real matrix (a cheaper SVD)."""
    weighted = jsa.amplitudes * math.sqrt(jsa.grid_signal.spacing * jsa.grid_idler.spacing)
    if not np.any(weighted.imag):
        weighted = weighted.real
    return np.linalg.svd(weighted, full_matrices=False)


@pytest.fixture(scope="module")
def filtered_jsa():
    return source_jsa(256)


def test_separable_jsa_gives_single_eigenvalue():
    decomp = schmidt_decompose(separable_jsa(), mass=1.0)
    assert decomp.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    recon = reconstruct(decomp)
    jsa = separable_jsa()
    weighted = jsa.amplitudes * jsa.grid_signal.spacing  # square grid
    assert np.max(np.abs(recon - weighted)) < 1e-12


@pytest.mark.parametrize("mu", [0.1, 0.25, 0.5])
def test_geometric_schmidt_spectrum(mu):
    decomp = schmidt_decompose(correlated_gaussian_jsa(mu), rank=10)
    lam = decomp.eigenvalues * (1.0 - decomp.tail_mass)
    expected = (1 - mu) * mu ** np.arange(10)
    assert np.max(np.abs(lam - expected)) < 1e-6


def test_full_rank_eigenvalues_sum_to_one(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa, mass=1.0)
    assert float(decomp.eigenvalues.sum()) == pytest.approx(1.0, abs=1e-10)


def test_reconstruction_error_bounded_by_tail(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa, mass=0.99)
    weighted = filtered_jsa.amplitudes * math.sqrt(
        filtered_jsa.grid_signal.spacing * filtered_jsa.grid_idler.spacing
    )
    err = np.linalg.norm(weighted - reconstruct(decomp))
    assert err <= math.sqrt(decomp.tail_mass) + 1e-12


def test_full_rank_reconstruction_is_exact(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa, rank=filtered_jsa.grid_signal.n_points)
    weighted = filtered_jsa.amplitudes * math.sqrt(
        filtered_jsa.grid_signal.spacing * filtered_jsa.grid_idler.spacing
    )
    assert np.linalg.norm(weighted - reconstruct(decomp)) < 1e-10


def test_mode_sets_are_orthonormal(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa)
    weights = decomp.eigenvalues
    signal = HeraldedState(weights, decomp.signal_modes, decomp.grid_signal)
    idler = HeraldedState(weights, decomp.idler_modes, decomp.grid_idler)
    for state in (signal, idler):
        gram = inner_products(state, state)
        assert np.max(np.abs(gram - np.eye(decomp.rank))) < 1e-10


def test_truncation_rules(filtered_jsa):
    by_rank = schmidt_decompose(filtered_jsa, rank=2)
    assert by_rank.rank == 2
    assert float(by_rank.eigenvalues.sum()) == pytest.approx(1.0, abs=1e-12)
    by_threshold = schmidt_decompose(filtered_jsa, threshold=0.05)
    assert np.all(
        by_threshold.eigenvalues * (1 - by_threshold.tail_mass) >= 0.05 - 1e-12
    )
    with pytest.raises(InvalidArgumentError):
        schmidt_decompose(filtered_jsa, rank=0)
    with pytest.raises(InvalidArgumentError):
        schmidt_decompose(filtered_jsa, threshold=2.0)
    with pytest.raises(InvalidArgumentError):
        schmidt_decompose(filtered_jsa, rank=3, mass=0.9)


@pytest.mark.parametrize("rank", [2.7, True, False, 0, -1, float("nan"), float("inf")])
def test_rank_must_be_an_integer_of_at_least_one(filtered_jsa, rank):
    # The loader's truncation.value rule: 2.7 must not keep 2 modes, nor True 1.
    with pytest.raises(InvalidArgumentError, match="integer >= 1"):
        schmidt_decompose(filtered_jsa, rank=rank)


def test_integral_rank_of_any_number_type_is_accepted(filtered_jsa):
    # The runner passes a loaded truncation.value, which is a float.
    for rank in (2, 2.0, np.int64(2)):
        assert schmidt_decompose(filtered_jsa, rank=rank).rank == 2


def test_heavy_truncation_sets_warning_flag(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa, rank=1)
    assert decomp.tail_mass > 0.05
    assert decomp.truncation_warning
    assert not schmidt_decompose(filtered_jsa).truncation_warning


def test_herald_copies_eigenvalues(filtered_jsa):
    decomp = schmidt_decompose(filtered_jsa)
    state = herald(decomp)
    assert np.array_equal(state.weights, decomp.eigenvalues)
    assert state.modes is decomp.signal_modes
    assert state.grid is decomp.grid_signal
    assert purity(state) == pytest.approx(1.0 / schmidt_number(decomp), rel=1e-14)


def geometric_state(mu: float, n_modes: int = 40):
    grid = make_grid(780.0, 10.0, 4.0, 128)
    lam = (1 - mu) * mu ** np.arange(n_modes)
    lam /= lam.sum()
    modes = np.eye(n_modes, 128) / math.sqrt(grid.spacing)
    return HeraldedState(weights=lam, modes=modes, grid=grid)


def test_purity_examples():
    assert purity(geometric_state(0.25)) == pytest.approx(0.6, abs=1e-9)
    two = geometric_state(0.5, 2)
    half = HeraldedState(weights=np.array([0.5, 0.5]), modes=two.modes, grid=two.grid)
    assert purity(half) == 0.5
    one = geometric_state(0.5, 1)
    pure = HeraldedState(weights=np.array([1.0]), modes=one.modes, grid=one.grid)
    assert purity(pure) == 1.0


def test_schmidt_number_examples(filtered_jsa):
    rank1 = schmidt_decompose(separable_jsa(), rank=1)
    assert schmidt_number(rank1) == pytest.approx(1.0, abs=1e-10)
    decomp = schmidt_decompose(filtered_jsa)
    assert schmidt_number(decomp) > 1.0
    # geometric mu = 0.25: K = 1/0.6
    state = geometric_state(0.25)
    assert 1.0 / purity(state) == pytest.approx(1.0 / 0.6, rel=1e-9)


def test_postulated_pure_state_formula():
    grid = make_grid(780.0, 10.0, 4.0, 128)
    e0 = np.zeros(128, dtype=complex)
    e1 = np.zeros(128, dtype=complex)
    e0[10] = 1.0 / math.sqrt(grid.spacing)
    e1[20] = 1.0 / math.sqrt(grid.spacing)
    jsa = JointSpectralAmplitude(
        grid,
        grid,
        math.sqrt(0.8) * np.outer(e0, e0) + math.sqrt(0.2) * np.outer(e1, e1),
    )
    decomp = schmidt_decompose(jsa, mass=1.0)
    state = postulate_pure_state(decomp)
    assert np.array_equal(state.weights, [1.0])
    assert purity(state) == 1.0
    expected = (0.8 * e0 + 0.2 * e1) / math.sqrt(0.68)
    overlap = np.vdot(expected, state.modes[0]) * grid.spacing
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_postulated_pure_state_of_rank1_equals_herald():
    decomp = schmidt_decompose(separable_jsa(), rank=1)
    heralded = herald(decomp)
    postulated = postulate_pure_state(decomp)
    fidelity = abs(inner_products(heralded, postulated)[0, 0])
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_postulate_rejects_cancelling_modes():
    grid = make_grid(780.0, 10.0, 4.0, 128)
    amp = np.zeros(128, dtype=complex)
    amp[5] = 1.0 / math.sqrt(grid.spacing)
    fake = SchmidtDecomposition(
        eigenvalues=np.array([0.5, 0.5]),
        signal_modes=np.array([amp, -amp]),
        idler_modes=np.array([amp, -amp]),
        grid_signal=grid,
        grid_idler=grid,
    )
    with pytest.raises(DegenerateStateError):
        postulate_pure_state(fake)


def test_truncation_monotonicity(filtered_jsa):
    # Purity from the top-r renormalized eigenvalues never increases with r.
    full = schmidt_decompose(filtered_jsa, mass=1.0)
    purities = []
    for r in range(1, full.rank + 1):
        lam = full.eigenvalues[:r]
        lam = lam / lam.sum()
        purities.append(float((lam**2).sum()))
    assert all(a >= b - 1e-15 for a, b in zip(purities, purities[1:]))


def test_eigenvalues_invariant_under_global_phase(filtered_jsa):
    rotated = JointSpectralAmplitude(
        filtered_jsa.grid_signal,
        filtered_jsa.grid_idler,
        filtered_jsa.amplitudes * np.exp(1j * 0.7),
    )
    a = schmidt_decompose(filtered_jsa)
    b = schmidt_decompose(rotated)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
    overlaps = np.diag(inner_products(herald(a), herald(b)))
    assert np.max(np.abs(np.abs(overlaps) - 1.0)) < 1e-9


def test_decomposition_is_deterministic(filtered_jsa):
    a = schmidt_decompose(filtered_jsa)
    b = schmidt_decompose(filtered_jsa)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.signal_modes, b.signal_modes)
    assert np.array_equal(a.idler_modes, b.idler_modes)


def test_degenerate_pair_ordered_by_first_moment():
    # Exactly orthogonal modes with exactly equal weights: ordering falls back
    # to the first moment of the mode intensity.
    grid = make_grid(780.0, 10.0, 4.0, 256)
    lo = np.zeros(256)
    hi = np.zeros(256)
    lo[40] = 1.0 / math.sqrt(grid.spacing)
    hi[200] = 1.0 / math.sqrt(grid.spacing)
    jsa = JointSpectralAmplitude(
        grid, grid, np.outer(hi, hi) + np.outer(lo, lo)
    )
    decomp = schmidt_decompose(jsa, mass=1.0)
    moments = np.abs(decomp.signal_modes[:2]) ** 2 @ grid.detunings * grid.spacing
    assert abs(decomp.eigenvalues[0] - decomp.eigenvalues[1]) < 1e-12
    assert moments[0] < moments[1]


# Truncation rules of the oracle comparison, and the number of modes each
# keeps from the full spectrum lam (sorted, summing to ||A||_F^2).
ORACLE_RULES = {
    "rank": (4, lambda lam: 4),
    "threshold": (1e-4, lambda lam: int(np.count_nonzero(lam >= 1e-4))),
    "mass": (0.999, lambda lam: int(np.searchsorted(np.cumsum(lam) / lam.sum(), 0.999)) + 1),
}


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("signal_fwhm", [1.0, 4.0, 12.0])
@pytest.mark.parametrize("model", ["gaussian-approx", "sinc"])
def test_randomized_decomposition_matches_full_svd(model, signal_fwhm, n):
    jsa = source_jsa(n, signal_fwhm, model)
    u, s, vh = oracle_svd(jsa)
    lam = s**2
    root_spacing = math.sqrt(jsa.grid_signal.spacing)  # square grid
    for rule, (value, oracle_keep) in ORACLE_RULES.items():
        decomp = schmidt_decompose(jsa, **{rule: value})
        keep = oracle_keep(lam)
        assert decomp.rank == keep, rule
        kept = lam[:keep] / lam[:keep].sum()
        assert np.max(np.abs(decomp.eigenvalues - kept)) < 1e-12, rule
        assert abs(decomp.tail_mass - lam[keep:].sum() / lam.sum()) < 1e-12, rule
        gu, gvh = fix_gauge(u[:, :keep], vh[:keep])
        got_u = decomp.signal_modes.T * root_spacing
        got_vh = decomp.idler_modes * root_spacing
        assert np.max(np.abs(got_u - gu)) < 1e-9, rule
        assert np.max(np.abs(got_vh - gvh)) < 1e-9, rule


@pytest.fixture(scope="module")
def filtered_svd(filtered_jsa):
    u, s, vh = oracle_svd(filtered_jsa)
    return filtered_jsa.grid_signal, u[:, :4], s[:4], vh[:4]


def _decomposition(grid, u, s, vh) -> SchmidtDecomposition:
    lam = s**2 / np.sum(s**2)
    root = math.sqrt(grid.spacing)
    return SchmidtDecomposition(
        eigenvalues=lam,
        signal_modes=u.T / root,
        idler_modes=vh / root,
        grid_signal=grid,
        grid_idler=grid,
    )


@settings(max_examples=60, deadline=None)
@given(
    thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
    noise_seed=st.integers(0, 2**32 - 1),
)
def test_gauge_ignores_pair_phases_and_rounding(filtered_svd, thetas, noise_seed):
    # Rotate each pair (u_n, v_n*) by e^{i theta_n} and perturb the modes at
    # the rounding level of a different SVD algorithm: mirror samples of
    # these parity-exact modes then differ in either direction.
    grid, u, s, vh = filtered_svd
    rot = np.exp(1j * np.array(thetas))
    noise = np.random.default_rng(noise_seed).standard_normal(u.shape) * 1e-15
    ref_u, ref_vh = fix_gauge(u, vh)
    got_u, got_vh = fix_gauge((u + noise) * rot, vh * rot.conj()[:, None])
    assert np.max(np.abs(got_u - ref_u)) < 1e-12
    assert np.max(np.abs(got_vh - ref_vh)) < 1e-12
    ref = postulate_pure_state(_decomposition(grid, ref_u, s, ref_vh)).modes[0]
    got = postulate_pure_state(_decomposition(grid, got_u, s, got_vh)).modes[0]
    assert np.max(np.abs(got - ref)) * math.sqrt(grid.spacing) < 1e-12


def test_postulated_pure_curve_does_not_depend_on_grid_size():
    # fig3's source and offsets: the postulated pure state sums the modes
    # coherently, so it changes if any mode's sign depends on N.
    deltas = [0.0, 500.0, 1000.0, 1500.0, 2500.0, 3500.0, 5000.0]
    curves = []
    for n in (512, 1024, 2048):
        grid = make_grid(780.0, 10.0, 4.0, n)
        filters = (BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0))
        jsa = apply_filters(build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid), *filters)
        state = postulate_pure_state(schmidt_decompose(jsa))
        curves.append(np.array(visibility_curve(state, 37.802, 6000.0, deltas)))
    for curve in curves[1:]:
        assert np.max(np.abs(curve - curves[0])) < 1e-9


@pytest.mark.parametrize("kind", [np.float64, np.complex128])
def test_modes_keep_the_kind_of_the_jsa(kind):
    # A real JSA runs in real arithmetic through the Schmidt step, both
    # photon states and the delay scan's mode-product basis; a complex one
    # (here a signal-only spectral phase) stays complex.
    jsa = source_jsa(128)
    if kind is np.complex128:
        phase = np.exp(1j * 50.0 * jsa.grid_signal.detunings)
        jsa = JointSpectralAmplitude(
            jsa.grid_signal, jsa.grid_idler, jsa.amplitudes * phase[:, None]
        )
    decomp = schmidt_decompose(jsa)
    assert decomp.signal_modes.dtype == decomp.idler_modes.dtype == kind
    for state in (herald(decomp), postulate_pure_state(decomp)):
        assert state.modes.dtype == kind
        assert hom._product_basis(state, state).dtype == kind


def test_decomposition_modes_match_eigenvalues_and_grids():
    grid = make_grid(780.0, 10.0, 4.0, 64)
    other = make_grid(780.0, 10.0, 4.0, 48)
    modes = np.eye(2, 64)
    decomp = SchmidtDecomposition(np.array([0.75, 0.25]), modes, modes, grid, grid)
    assert decomp.rank == 2
    assert decomp.signal_modes.dtype == np.float64
    rotated = SchmidtDecomposition(np.array([0.75, 0.25]), modes * 1j, modes, grid, grid)
    assert rotated.signal_modes.dtype == np.complex128
    with pytest.raises(ValueError):
        decomp.idler_modes[0, 0] = 0.0
    with pytest.raises(InvalidArgumentError):
        SchmidtDecomposition(np.array([1.0]), modes, modes, grid, grid)
    with pytest.raises(InvalidArgumentError):
        SchmidtDecomposition(np.array([0.75, 0.25]), modes, modes, grid, other)


def test_test_block_is_computed_once_per_shape():
    from homsim.schmidt import _test_block

    block = _test_block(256, 16)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    assert _test_block(256, 16) is block
