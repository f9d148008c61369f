import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    DispersiveElement,
    coincidence_probability,
    gvd_phase,
    initial_guess_walk,
    pure_state,
)
from homsim import hom, runner
from homsim.constants import FOUR_LN2
from homsim.errors import (
    FitFailureError,
    IncompatibleGridError,
    InvalidArgumentError,
    NoDipError,
)
from homsim.hom import (
    DipMetrics,
    InterferenceScan,
    ScanConfig,
    coincidence_probability_oracle,
    default_scan_config,
    fit_dip,
    scan,
    visibility_curve,
)
from homsim.scenario import load_preset
from homsim.schmidt import (
    HeraldedState,
    herald,
    postulate_pure_state,
    purity,
    schmidt_decompose,
)
from homsim.source import (
    BandpassFilter,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
)
from homsim.spectral import gaussian_mode, make_grid

BETA = 37.802  # fs^2/mm


def dispersed(state, beta_l):
    """``state`` with each mode multiplied by exp(-i beta*L w^2/2): the fiber's
    phase carried by the photon itself, an oracle for the explicit delta_beta_l."""
    phase = np.exp(-1j * gvd_phase(state.grid.detunings, beta_l))
    return HeraldedState(state.weights, state.modes * phase, state.grid)


def random_state(grid, rank, rng, envelope=0.35, real=False) -> HeraldedState:
    """Random mixed state with orthonormal (QR) complex, or real, modes."""
    raw = rng.normal(size=(grid.n_points, rank))
    if not real:
        raw = raw + 1j * rng.normal(size=(grid.n_points, rank))
    raw *= np.exp(-((grid.detunings[:, None] / (envelope * grid.detunings[-1])) ** 2))
    q, _ = np.linalg.qr(raw)
    w = rng.uniform(0.2, 1.0, size=rank)
    return HeraldedState(w / w.sum(), q.T / math.sqrt(grid.spacing), grid)


def einsum_scan(state1, state2, delta_beta_l, cfg) -> np.ndarray:
    """Oracle: the direct sum over the T x N phase matrix, all delays at once."""
    grid = state1.grid
    w = grid.detunings
    m1 = state1.modes
    m2c = state2.modes.conj()
    static = np.exp(-1j * 0.5 * delta_beta_l * w**2) * grid.spacing
    phases = np.exp(1j * np.outer(cfg.taus(), w)) * static
    overlaps = np.einsum("tk,nk,mk->tnm", phases, m1, m2c, optimize=True)
    return 0.5 - 0.5 * np.einsum(
        "tnm,n,m->t", np.abs(overlaps) ** 2, state1.weights, state2.weights
    )


def pairwise_chirp_scan(state1, state2, delta_beta_l, cfg) -> np.ndarray:
    """Oracle: one Bluestein chirp-z convolution per mode pair, with no basis
    of the mode products and every chirp rebuilt for the one offset."""
    grid = state1.grid
    n, w = grid.n_points, grid.detunings
    dtau = (cfg.tau_max - cfg.tau_min) / (cfg.n_steps - 1)
    turns = grid.spacing * dtau / (4.0 * math.pi)
    chirp = hom._chirp(turns, np.arange(n))
    chirp *= np.exp(-1j * 0.5 * delta_beta_l * w**2) * np.exp(1j * w * cfg.tau_min) * grid.spacing
    products = (state1.modes * chirp)[:, None, :] * state2.modes.conj()
    size = hom._smooth_length(n + cfg.n_steps - 1)
    kernel = np.fft.fft(hom._chirp(turns, np.arange(1 - n, cfg.n_steps)).conj(), size)
    overlaps = np.fft.ifft(np.fft.fft(products, size) * kernel)[..., n - 1 : n - 1 + cfg.n_steps]
    return 0.5 - 0.5 * np.einsum(
        "nmt,n,m->t", np.abs(overlaps) ** 2, state1.weights, state2.weights
    )


def preset_decomposition(name):
    return runner._decomposition(load_preset(name), [])[1]


def _pipeline_states(n_points, signal_fwhm_nm):
    grid = make_grid(780.0, 10.0, 4.0, n_points)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(
        jsa, BandpassFilter(780.0, signal_fwhm_nm), BandpassFilter(780.0, 10.0)
    )
    decomp = schmidt_decompose(jsa)
    return herald(decomp), postulate_pure_state(decomp)


@pytest.fixture(scope="module")
def pipeline_state():
    return _pipeline_states(512, 10.0)[0]


@pytest.fixture(scope="module")
def grid_small():
    return make_grid(780.0, 10.0, 4.0, 64)


def test_identical_pure_states_interfere_perfectly(grid_small):
    state = gaussian_mode(grid_small, 0.031)
    assert coincidence_probability(state, state, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_large_delay_gives_half(grid_small):
    state = gaussian_mode(grid_small, 0.031)
    assert coincidence_probability(state, state, 0.0, 5e4) == pytest.approx(0.5, abs=1e-6)


def test_identical_mixed_states_visibility_equals_purity(pipeline_state):
    p0 = coincidence_probability(pipeline_state, pipeline_state, 0.0, 0.0)
    expected = (1.0 - purity(pipeline_state)) / 2.0
    assert p0 == pytest.approx(expected, abs=1e-12)
    oracle = coincidence_probability_oracle(pipeline_state, pipeline_state, 0.0, 0.0)
    assert oracle == pytest.approx(expected, abs=1e-10)


def test_orthogonal_pure_states_stay_at_half(grid_small):
    n = grid_small.n_points
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[: n // 2] = 1.0
    b[n // 2 :] = 1.0
    s1 = pure_state(grid_small, a)
    s2 = pure_state(grid_small, b)
    for tau in (-300.0, 0.0, 450.0):
        assert coincidence_probability_oracle(s1, s2, 0.0, tau) == pytest.approx(
            0.5, abs=1e-12
        )
    # No mode product survives, so the scan's basis is empty: P = 1/2 exactly.
    assert basis_rank(s1, s2) == 0
    assert np.all(scan(s1, s2, 9e4, ScanConfig(-300.0, 450.0, 7)).probabilities == 0.5)


def test_oracle_equivalence_on_random_states(grid_small):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        s1 = random_state(grid_small, rng.integers(1, 5), rng)
        s2 = random_state(grid_small, rng.integers(1, 5), rng)
        delta = rng.uniform(-2e5, 2e5)
        tau = rng.uniform(-500, 500)
        a = coincidence_probability(s1, s2, delta, tau)
        b = coincidence_probability_oracle(s1, s2, delta, tau)
        worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_probability_bound(grid_small):
    rng = np.random.default_rng(11)
    for _ in range(50):
        s1 = random_state(grid_small, 3, rng)
        s2 = random_state(grid_small, 2, rng)
        p = coincidence_probability(s1, s2, rng.uniform(-1e5, 1e5), rng.uniform(-1e3, 1e3))
        assert -1e-9 <= p <= 0.5 + 1e-9


def test_grid_mismatch_raises(pipeline_state, grid_small):
    other = gaussian_mode(grid_small, 0.031)
    with pytest.raises(IncompatibleGridError):
        coincidence_probability(pipeline_state, other, 0.0, 0.0)


def test_scan_is_symmetric_for_even_spectra(grid_small):
    state = gaussian_mode(grid_small, 0.031)
    cfg = ScanConfig(-1500.0, 1500.0, 101)
    for delta in (0.0, 9e4):  # real even modes: P(tau) == P(-tau) for any dBL
        result = scan(state, state, delta, cfg)
        assert np.max(np.abs(result.probabilities - result.probabilities[::-1])) < 1e-10


def test_scan_matches_pointwise_probabilities(pipeline_state):
    cfg = ScanConfig(-900.0, 900.0, 7)
    delta = BETA * 1000.0
    result = scan(pipeline_state, pipeline_state, delta, cfg)
    oracle = einsum_scan(pipeline_state, pipeline_state, delta, cfg)
    for p, expected in zip(result.probabilities, oracle):
        assert p == pytest.approx(expected, abs=1e-14)


@pytest.fixture(scope="module")
def state_pairs():
    """Pairs of states, N even and odd: different states, mostly of different
    Schmidt rank; two copies of one mixture, as in every run; and random
    complex modes, whose products span all R1*R2 dimensions."""
    fig1c, fig2a = preset_decomposition("fig1c"), preset_decomposition("fig2a")
    odd_mixed, odd_pure = _pipeline_states(255, 4.0)
    wide_mixed, _ = _pipeline_states(255, 10.0)
    rng = np.random.default_rng(3)
    odd_grid = make_grid(780.0, 10.0, 4.0, 255)
    return [
        (herald(fig2a), herald(fig1c)),
        (herald(fig1c), postulate_pure_state(fig2a)),
        (postulate_pure_state(fig1c), herald(fig2a)),
        (odd_mixed, wide_mixed),
        (wide_mixed, odd_pure),
        (herald(fig2a), herald(fig2a)),
        (random_state(odd_grid, 3, rng), random_state(odd_grid, 4, rng)),
    ]


@settings(max_examples=40, deadline=None)
@given(
    pair=st.integers(0, 6),
    n_steps=st.sampled_from([3, 4, 241, 2001]),
    tau_min=st.floats(-6000.0, 2000.0),
    width=st.floats(50.0, 12000.0),
    delta_beta_ls=st.lists(
        st.one_of(st.sampled_from([0.0, 94505.0, 831644.0]), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=11,
    ),
    picks=st.lists(st.integers(0, 2000), min_size=3, max_size=3),
)
def test_scan_matches_oracles(state_pairs, pair, n_steps, tau_min, width, delta_beta_ls, picks):
    # All offsets of one call share the basis, the chirp and the kernel; each
    # row must still match both per-offset oracles.
    state1, state2 = state_pairs[pair]
    cfg = ScanConfig(tau_min, tau_min + width, n_steps)
    dtau = (cfg.tau_max - cfg.tau_min) / (n_steps - 1)
    curve = hom._probabilities(state1, state2, delta_beta_ls, tau_min, dtau, n_steps)
    assert curve.shape == (len(delta_beta_ls), n_steps)
    for probs, delta_beta_l in zip(curve, delta_beta_ls):
        assert np.max(np.abs(probs - einsum_scan(state1, state2, delta_beta_l, cfg))) <= 1e-13
        pairwise = pairwise_chirp_scan(state1, state2, delta_beta_l, cfg)
        assert np.max(np.abs(probs - pairwise)) <= 1e-13
    result = scan(state1, state2, delta_beta_ls[-1], cfg)
    assert np.array_equal(result.probabilities, curve[-1])
    for t in {0, n_steps - 1, *(i % n_steps for i in picks)}:
        expected = coincidence_probability_oracle(
            state1, state2, delta_beta_ls[-1], result.taus[t]
        )
        assert abs(result.probabilities[t] - expected) <= 1e-13


def basis_rank(state1, state2) -> int:
    return hom._product_basis(state1, state2).shape[0]


def test_product_basis_rank(state_pairs):
    # fig2a's four modes are close to Hermite-Gauss functions, whose
    # products span polynomials of degree <= 2R - 2 times one Gaussian.
    decomp = preset_decomposition("fig2a")
    mixed, pure = herald(decomp), postulate_pure_state(decomp)
    assert decomp.rank == 4
    assert basis_rank(mixed, mixed) == 2 * 4 - 1
    assert basis_rank(pure, pure) == 1
    assert basis_rank(mixed, pure) == 4
    assert basis_rank(*state_pairs[5]) == 7  # the hypothesis test's pairs
    assert basis_rank(*state_pairs[6]) == 3 * 4
    rng = np.random.default_rng(8)
    grid = make_grid(780.0, 10.0, 4.0, 128)
    for rank in (2, 3, 5):
        real = random_state(grid, rank, rng, real=True)
        assert basis_rank(real, real) <= rank * (rank + 1) // 2  # phi_n phi_m = phi_m phi_n
        other = random_state(grid, rank + 1, rng)
        assert basis_rank(other, random_state(grid, rank, rng)) == (rank + 1) * rank


@pytest.mark.parametrize("truncation", [{"rank": 12}, {"threshold": 0.0}])
def test_product_basis_from_the_grid_side(truncation):
    # With R1 R2 > N the basis comes from the N x N Gram matrix C^H C: at
    # rank 12 (144 products) and at threshold 0 (all 64 modes, 4096 products)
    # on a 64-point grid, the scans still match both oracles.
    grid = make_grid(780.0, 10.0, 4.0, 64)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 4.0), BandpassFilter(780.0, 10.0))
    mixed = herald(schmidt_decompose(jsa, **truncation))
    other = random_state(grid, 8, np.random.default_rng(5))
    # O(N^2) memory whatever R1 R2: the R1 R2 x N products alone would be
    # 4096 x 64 complex numbers at threshold 0, and their Gram matrix 4096^2.
    tracemalloc.start()
    hom._product_basis(mixed, mixed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 16 * grid.n_points**2 * np.dtype(complex).itemsize
    cfg = ScanConfig(-3000.0, 3000.0, 241)
    for state2 in (mixed, other):
        assert len(mixed.weights) * len(state2.weights) > grid.n_points
        assert basis_rank(mixed, state2) <= grid.n_points
        for delta_beta_l in (0.0, 94505.0, 831644.0):
            probs = scan(mixed, state2, delta_beta_l, cfg).probabilities
            oracle = einsum_scan(mixed, state2, delta_beta_l, cfg)
            assert np.max(np.abs(probs - oracle)) <= 1e-13
            pairwise = pairwise_chirp_scan(mixed, state2, delta_beta_l, cfg)
            assert np.max(np.abs(probs - pairwise)) <= 1e-13


@pytest.mark.parametrize("n_steps", [3, 4, 11])
def test_coarse_scans_keep_full_accuracy(n_steps):
    # Coarse delay steps make the chirp phases alpha*k^2/2 reach ~1e5 rad,
    # where a double-precision phase alone is off by ~1e-11 rad; the chirps
    # are reduced mod 2 pi exactly, so the scan still matches to ~1e-15.
    decomp = preset_decomposition("fig2a")
    cfg = ScanConfig(-6000.0, 18000.0, n_steps)
    for state2 in (herald(decomp), postulate_pure_state(decomp)):
        for delta_beta_l in (0.0, 94505.0, 831644.0):
            result = scan(herald(decomp), state2, delta_beta_l, cfg)
            oracle = einsum_scan(herald(decomp), state2, delta_beta_l, cfg)
            assert np.max(np.abs(result.probabilities - oracle)) <= 1e-14


@pytest.mark.parametrize("preset", ["fig1c", "fig2a"])
@pytest.mark.parametrize("delta_beta_l", [0.0, 94505.0, 189010.0])
def test_scan_obeys_dip_area_sum_rule(preset, delta_beta_l):
    # Over one alias period 2 pi/dw, sampled at T >= N delays, Parseval makes
    # sum_t (1/2 - P(tau_t)) dtau = pi sum_k rho(w_k, w_k)^2 dw exactly,
    # whatever the dispersion and wherever the window starts.
    decomp = preset_decomposition(preset)
    for state in (herald(decomp), postulate_pure_state(decomp)):
        grid = state.grid
        n_steps = grid.n_points + 89
        dtau = 2.0 * math.pi / (n_steps * grid.spacing)
        for tau_min in (-0.5 * n_steps * dtau, -1234.5):
            cfg = ScanConfig(tau_min, tau_min + (n_steps - 1) * dtau, n_steps)
            probs = scan(state, state, delta_beta_l, cfg).probabilities
            diagonal = state.weights @ np.abs(state.modes) ** 2
            expected = math.pi * np.sum(diagonal**2) * grid.spacing
            assert np.sum(0.5 - probs) * dtau == pytest.approx(expected, rel=1e-12, abs=0)


def test_matched_fiber_scans_are_identical(pipeline_state):
    # Equal-length fibers of any length cancel: only the difference enters.
    cfg = default_scan_config(0.0)
    reference = None
    for length in (0.0, 6000.0, 28000.0):
        s1 = dispersed(pipeline_state, DispersiveElement(BETA, length).beta_l)
        s2 = dispersed(pipeline_state, DispersiveElement(BETA, length).beta_l)
        probs = scan(s1, s2, 0.0, cfg).probabilities
        if reference is None:
            reference = probs
        else:
            assert np.max(np.abs(probs - reference)) < 1e-9


def test_mismatched_fibers_widen_and_weaken_dip(pipeline_state):
    matched = fit_dip(scan(pipeline_state, pipeline_state, 0.0, default_scan_config(0.0)))
    delta = BETA * 2500.0
    mismatched = fit_dip(
        scan(pipeline_state, pipeline_state, delta, default_scan_config(delta))
    )
    assert mismatched.fwhm > matched.fwhm
    assert mismatched.visibility < matched.visibility


def test_common_dispersion_shift_changes_nothing(pipeline_state):
    delta = BETA * 2500.0
    cfg = ScanConfig(-4000.0, 4000.0, 81)
    base1 = dispersed(pipeline_state, DispersiveElement(BETA, 2500.0).beta_l)
    base2 = dispersed(pipeline_state, DispersiveElement(BETA, 0.0).beta_l)
    shift1 = dispersed(pipeline_state, DispersiveElement(BETA, 2500.0 + 7000.0).beta_l)
    shift2 = dispersed(pipeline_state, DispersiveElement(BETA, 7000.0).beta_l)
    a = scan(base1, base2, 0.0, cfg).probabilities
    b = scan(shift1, shift2, 0.0, cfg).probabilities
    assert np.max(np.abs(a - b)) < 1e-9
    explicit = scan(pipeline_state, pipeline_state, delta, cfg).probabilities
    assert np.max(np.abs(a - explicit)) < 1e-9


def test_exchange_symmetry(grid_small):
    rng = np.random.default_rng(5)
    s1 = random_state(grid_small, 3, rng)
    s2 = random_state(grid_small, 2, rng)
    delta = 7.3e4
    for tau in (-420.0, 111.0):
        p = coincidence_probability(s1, s2, delta, tau)
        q = coincidence_probability(s2, s1, -delta, -tau)
        assert p == pytest.approx(q, abs=1e-10)


def test_scan_config_validation():
    with pytest.raises(InvalidArgumentError):
        ScanConfig(100.0, -100.0, 51)
    with pytest.raises(InvalidArgumentError):
        ScanConfig(-100.0, 100.0, 2)
    with pytest.raises(InvalidArgumentError):
        InterferenceScan(np.array([0.0, 1.0]), np.array([0.7, 0.1]))
    with pytest.raises(InvalidArgumentError):
        DipMetrics(1.2, 0.3, 0.5, 0.0, 1.2, 0.0)


def test_interference_scan_rejects_non_finite_values():
    taus = np.linspace(-100.0, 100.0, 5)
    with pytest.raises(InvalidArgumentError):
        InterferenceScan(taus, np.full(5, np.nan))
    with pytest.raises(InvalidArgumentError):
        InterferenceScan(taus, np.array([0.5, 0.4, np.nan, 0.4, 0.5]))
    with pytest.raises(InvalidArgumentError):
        InterferenceScan(np.array([0.0, 1.0, np.inf]), np.full(3, 0.5))


def dip_model(tau, baseline, visibility, center, width):
    return baseline * (1.0 - visibility * np.exp(-FOUR_LN2 * (tau - center) ** 2 / width**2))


def dip_jacobian(tau, baseline, visibility, center, width):
    x = tau - center
    g = np.exp(-FOUR_LN2 * x**2 / width**2)
    d_center = -2.0 * FOUR_LN2 * baseline * visibility * g * x / width**2
    return np.column_stack([1.0 - visibility * g, -baseline * g, d_center, d_center * x / width])


def levenberg_marquardt_oracle(taus, probs, p) -> np.ndarray:
    """Oracle: the straightforward bounded Levenberg-Marquardt (Madsen,
    Nielsen & Tingleff 2004, alg. 3.16) that ``hom._levenberg_marquardt``
    streamlines.  It rebuilds the T x 4 Jacobian and the normal equations on
    every iteration, evaluates the Gaussian twice per accepted point and
    starts the damping at 1e-3 of the largest diagonal entry of J^T J."""
    r = dip_model(taus, *p) - probs
    mu, nu = None, 2.0
    for _ in range(hom.FIT_MAX_ITERATIONS):
        scale = np.array([abs(p[0]), 1.0, p[3], p[3]])
        jac = dip_jacobian(taus, *p) * scale
        grad = jac.T @ r
        free = ~(((p <= hom._FIT_LOWER) & (grad > 0)) | ((p >= hom._FIT_UPPER) & (grad < 0)))
        normal = jac[:, free].T @ jac[:, free]
        if mu is None:
            mu = 1e-3 * np.max(np.sum(jac**2, axis=0))
        step = np.zeros(4)
        step[free] = np.linalg.solve(normal + mu * np.eye(len(normal)), -grad[free])
        trial = np.clip(p + step * scale, hom._FIT_LOWER, hom._FIT_UPPER)
        step = (trial - p) / scale
        if np.max(np.abs(step)) <= hom.FIT_STEP_TOLERANCE:
            return p
        r_trial = dip_model(taus, *trial) - probs
        predicted = -grad @ step - 0.5 * np.sum((jac @ step) ** 2)
        gained = 0.5 * (r @ r - r_trial @ r_trial)
        if predicted > 0 and gained > 0:
            p, r = trial, r_trial
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gained / predicted - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    raise AssertionError("oracle fit did not converge")


def start_point(result) -> np.ndarray:
    """``fit_dip``'s starting point: the initial guess, moved inside the bounds."""
    b, v, t0, w = hom._initial_guess(result.taus, result.probabilities)
    return np.array([max(b, 1e-12), min(max(v, 0.0), 1.0), t0, max(w, 1e-9)])


def assert_fit_matches_oracle(result):
    """``fit_dip`` against the oracle fit from the same start: B to 1e-9 of
    |B|, V to 1e-9, t0 and w to 1e-9 of w."""
    b, v, t0, w = levenberg_marquardt_oracle(result.taus, result.probabilities, start_point(result))
    got = fit_dip(result)
    assert abs(got.baseline - b) <= 1e-9 * abs(b)
    assert abs(got.visibility - v) <= 1e-9
    assert abs(got.center_fs - t0) <= 1e-9 * w
    assert abs(got.fwhm * 1000.0 - w) <= 1e-9 * w


def test_fit_recovers_exact_gaussian_dip():
    taus = np.linspace(-2000.0, 2000.0, 201)
    model = 0.5 * (1 - 0.7 * np.exp(-4 * math.log(2) * taus**2 / 340.0**2))
    metrics = fit_dip(InterferenceScan(taus, model))
    assert metrics.baseline == pytest.approx(0.5, rel=1e-6)
    assert metrics.visibility == pytest.approx(0.7, rel=1e-6)
    assert metrics.fwhm * 1000 == pytest.approx(340.0, rel=1e-6)
    assert abs(metrics.center_fs) < 1e-3
    assert metrics.fit_residual < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_initial_guess_matches_the_sample_walk(seed):
    # Noisy dips anywhere in the window, minima at either edge, NaN samples
    # (which stop the walk) and plateaus at exactly half depth.
    rng = np.random.default_rng(seed)
    for k in range(300):
        n = int(rng.integers(3, 80))
        taus = np.linspace(-1000.0, 1000.0, n)
        width = rng.uniform(20.0, 1500.0)
        center = rng.uniform(-1e3, 1e3)
        probs = 0.5 * (1.0 - rng.uniform(0.0, 1.0) * np.exp(-(((taus - center) / width) ** 2)))
        probs += rng.normal(0.0, 0.02, n)
        if k % 3 == 0:
            probs[rng.integers(0, n, size=2)] = np.nan
        if k % 5 == 0:
            probs[rng.choice([0, n - 1, int(rng.integers(0, n))])] = -0.1
        if k % 7 == 0:
            probs = np.round(probs, 1)
        try:
            want = initial_guess_walk(taus, probs)
        except NoDipError:
            with pytest.raises(NoDipError):
                hom._initial_guess(taus, probs)
            continue
        np.testing.assert_array_equal(hom._initial_guess(taus, probs), want)


def test_flat_scan_has_no_dip():
    taus = np.linspace(-2000.0, 2000.0, 201)
    with pytest.raises(NoDipError):
        fit_dip(InterferenceScan(taus, np.full(201, 0.5)))


def test_fit_failure_carries_initial_guess(pipeline_state, monkeypatch):
    result = scan(pipeline_state, pipeline_state, 0.0, default_scan_config(0.0))
    monkeypatch.setattr(hom, "FIT_MAX_ITERATIONS", 1)
    with pytest.raises(FitFailureError) as info:
        fit_dip(result)
    assert info.value.initial_guess == hom._initial_guess(result.taus, result.probabilities)


def _preset_scans(name):
    """Every scan the preset's run fits, built as the runner builds it."""
    sc = load_preset(name)
    _, decomp = runner._decomposition(sc, [])
    if sc.mode == "visibility-curve":
        beta = sc.dispersion.beta_fs2_per_mm
        return [
            scan(state, state, beta * dl, runner._scan_config(sc, beta * dl))
            for state in (herald(decomp), postulate_pure_state(decomp))
            for dl in sc.dispersion.delta_lengths_mm
        ]
    state = runner._heralded_state(sc, decomp)
    dbl = sc.dispersion.beta_fs2_per_mm * (sc.dispersion.length_1_mm - sc.dispersion.length_2_mm)
    return [scan(state, state, dbl, runner._scan_config(sc, dbl))]


@pytest.mark.parametrize("preset", ["fig1c", "fig2a", "fig2b", "fig2c", "fig3"])
def test_fit_matches_curve_fit(preset):
    optimize = pytest.importorskip("scipy.optimize")
    for result in _preset_scans(preset):
        taus, probs = result.taus, result.probabilities
        params, _ = optimize.curve_fit(
            dip_model,
            taus,
            probs,
            p0=start_point(result),
            bounds=((0.0, 0.0, -np.inf, 0.0), (np.inf, 1.0, np.inf, np.inf)),
            max_nfev=20000,
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )
        baseline, visibility, center, width = params
        residual = np.sqrt(np.mean((dip_model(taus, *params) - probs) ** 2))
        got = fit_dip(result)
        assert got.baseline == pytest.approx(baseline, rel=1e-8, abs=0)
        assert got.visibility == pytest.approx(visibility, rel=1e-8, abs=0)
        assert got.fwhm == pytest.approx(width / 1000.0, rel=1e-8, abs=0)
        assert got.fit_residual == pytest.approx(residual, rel=1e-8, abs=0)
        assert abs(got.center_fs - center) <= 1e-8 * width


@pytest.mark.parametrize("preset", ["fig1c", "fig2a", "fig2b", "fig2c", "fig3"])
def test_fit_matches_oracle_on_preset_scans(preset):
    for result in _preset_scans(preset):
        assert_fit_matches_oracle(result)


@settings(max_examples=60, deadline=None)
@given(
    n_steps=st.integers(41, 2001),
    baseline=st.floats(0.05, 0.5),
    visibility=st.one_of(st.just(1.0), st.floats(0.01, 1.0, exclude_min=True)),
    center=st.floats(-0.1, 0.1),
    width=st.floats(0.05, 0.2),
    second=st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 0.05), st.floats(-0.05, 0.05), st.floats(0.95, 1.05)),
    ),
)
def test_fit_matches_oracle_on_drawn_dips(n_steps, baseline, visibility, center, width, second):
    """A Gaussian dip, or a mixture of two (weight, centre offset and width
    ratio of the second, relative to the first), with centre and width in
    units of a 4 ps window.  V = 1 ends about half of the one-Gaussian fits
    exactly on the visibility bound.

    Mixtures are kept as far from a Gaussian as the simulator's own scans:
    a misfit up to 1e-4 of the dip depth (the preset and dip-scan scans reach
    9.3e-5) at V >= 0.1 (their smallest is 0.109).  Further out (V = 0.01,
    or a second weight of 0.1) the oracle, which takes its gain as the
    difference of two rounded costs, can stop up to 5e-9 w short of the
    optimum; ``test_fit_reaches_the_optimum_of_non_gaussian_dips`` holds
    ``fit_dip`` itself to 1e-10 there.
    """
    if second is not None:
        assume(visibility >= 0.1)
    taus = np.linspace(-0.5, 0.5, n_steps) * 4000.0
    center, width = center * 4000.0, width * 4000.0
    shape = np.exp(-FOUR_LN2 * ((taus - center) / width) ** 2)
    if second is not None:
        weight, offset, ratio = second
        other = np.exp(-FOUR_LN2 * ((taus - center - offset * width) / (ratio * width)) ** 2)
        shape = (1.0 - weight) * shape + weight * other
    assert_fit_matches_oracle(InterferenceScan(taus, baseline * (1.0 - visibility * shape)))


def test_fitted_visibility_matches_purity(pipeline_state):
    metrics = fit_dip(
        scan(pipeline_state, pipeline_state, 0.0, default_scan_config(0.0))
    )
    assert metrics.visibility == pytest.approx(purity(pipeline_state), abs=2e-3)


def test_visibility_curve_modes_and_monotonicity():
    grid = make_grid(780.0, 10.0, 4.0, 256)
    deltas = [0.0, 500.0, 1000.0, 2500.0, 5000.0]
    grid_jsa = apply_filters(
        build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid),
        BandpassFilter(780.0, 10.0),
        BandpassFilter(780.0, 10.0),
    )
    decomp = schmidt_decompose(grid_jsa)
    curves = {
        "mixed": visibility_curve(herald(decomp), BETA, 6000.0, deltas),
        "postulated-pure": visibility_curve(postulate_pure_state(decomp), BETA, 6000.0, deltas),
    }
    pure0 = curves["postulated-pure"][0]
    assert pure0[1] == pytest.approx(1.0, abs=1e-6)
    mixed0 = curves["mixed"][0]
    expected_purity = purity(herald(decomp))
    assert mixed0[1] == pytest.approx(expected_purity, abs=2e-3)
    for mode in curves:
        vis = [v for _, v, _ in curves[mode]]
        widths = [w for _, _, w in curves[mode]]
        assert all(a > b for a, b in zip(vis, vis[1:]))
        assert all(a < b for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize("explicit", [False, True], ids=["default-windows", "explicit-window"])
def test_visibility_curve_equals_fitted_scans(explicit):
    # The curve scans every offset of a window in one call; each entry must
    # still be the fit of that offset's own scan, in the order given, with
    # repeats kept.  fig3's defaults give two windows: +-3 ps at 0, +-6 ps else.
    decomp = preset_decomposition("fig3")
    offsets = [2500.0, 0.0, 500.0, 2500.0, 0.0, 1000.0, -300.0]
    cfg = ScanConfig(-5000.0, 7000.0, 801) if explicit else None
    for state in (herald(decomp), postulate_pure_state(decomp)):
        curve = visibility_curve(state, BETA, 6000.0, offsets, cfg)
        assert [row[0] for row in curve] == offsets
        for (delta_l, visibility, fwhm), offset in zip(curve, offsets):
            window = cfg if explicit else default_scan_config(BETA * offset)
            expected = fit_dip(scan(state, state, BETA * offset, window))
            assert abs(visibility - expected.visibility) <= 1e-9
            assert abs(fwhm - expected.fwhm) <= 1e-9 * expected.fwhm


def test_visibility_curve_rejects_offsets_past_the_first_fiber(pipeline_state):
    with pytest.raises(InvalidArgumentError, match="exceeds the first fiber length"):
        visibility_curve(pipeline_state, BETA, 1000.0, [0.0, 1000.5])


def gauss_newton_polish(taus, probs, p) -> np.ndarray:
    """Oracle: ten undamped Gauss-Newton steps from ``p``, each a
    least-squares solve of the scaled Jacobian (no normal equations).  The
    last scaled step must be below 1e-12, a hundredth of the tolerance the
    fit is held to; steps at the optimum are rounding noise."""
    for _ in range(10):
        scale = np.array([abs(p[0]), 1.0, p[3], p[3]])
        jac = dip_jacobian(taus, *p) * scale
        step, *_ = np.linalg.lstsq(jac, probs - dip_model(taus, *p), rcond=None)
        p = p + step * scale
    assert np.max(np.abs(step)) <= 1e-12, "Gauss-Newton polish did not converge"
    return p


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.sampled_from([201, 401, 1001, 2001]),
    baseline=st.floats(0.05, 0.5),
    center=st.floats(-0.1, 0.1),
    width=st.floats(0.05, 0.2),
    second=st.one_of(
        st.tuples(st.floats(0.1, 0.9), st.floats(0.4, 0.6)),
        st.tuples(st.just(0.01), st.just(0.1)),
    ),
    offset=st.floats(-0.5, 0.5),
    ratio=st.floats(0.5, 2.0),
)
# Dips that the fit left 1.1e-9 and 8.1e-10 (scaled) short of the optimum
# while it took the gain as the difference of two rounded costs.
@example(1001, 0.2409, 0.0740, 0.0730, (0.9162, 0.5), -0.4684, 0.6242)
@example(1001, 0.1530, -0.0371, 0.0533, (0.01, 0.1), -0.4717, 1.5802)
def test_fit_reaches_the_optimum_of_non_gaussian_dips(
    n_steps, baseline, center, width, second, offset, ratio
):
    """Dips further from a Gaussian than any the simulator makes: half the
    depth in a second Gaussian (centre offset and width ratio relative to
    the first), or a shallow V = 0.01 dip with a tenth in the second.  The
    fit must stop within 1e-10 (B by |B|, V by 1, t0 and w by w) of the
    optimum, found by polishing the fit with undamped Gauss-Newton."""
    visibility, weight = second
    taus = np.linspace(-0.5, 0.5, n_steps) * 4000.0
    center, width = center * 4000.0, width * 4000.0
    shape = (1.0 - weight) * np.exp(-FOUR_LN2 * ((taus - center) / width) ** 2)
    shape += weight * np.exp(
        -FOUR_LN2 * ((taus - center - offset * width) / (ratio * width)) ** 2
    )
    probs = baseline * (1.0 - visibility * shape)
    got = fit_dip(InterferenceScan(taus, probs))
    fitted = np.array([got.baseline, got.visibility, got.center_fs, got.fwhm * 1000.0])
    b, v, t0, w = gauss_newton_polish(taus, probs, fitted)
    assert abs(got.baseline - b) <= 1e-10 * abs(b)
    assert abs(got.visibility - v) <= 1e-10
    assert abs(got.center_fs - t0) <= 1e-10 * w
    assert abs(got.fwhm * 1000.0 - w) <= 1e-10 * w
