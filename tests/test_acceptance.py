"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion shows up as the test's FAIL line instead).
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    DispersiveElement,
    cascade_network,
    coincidence_probability,
    gvd_phase,
    pure_state,
)
from homsim.dispersion import broadened_duration
from homsim.hom import (
    ScanConfig,
    coincidence_probability_oracle,
    default_scan_config,
    fit_dip,
    scan,
    visibility_curve,
)
from homsim.network import outcome_probabilities
from homsim.schmidt import (
    HeraldedState,
    herald,
    postulate_pure_state,
    purity,
    schmidt_decompose,
)
from homsim.source import (
    BandpassFilter,
    JointSpectralAmplitude,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
)
from homsim.spectral import FrequencyGrid, gaussian_mode, make_grid

BETA = 37.802  # fs^2/mm, fused silica at 780 nm


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def dispersed(state, beta_l):
    """``state`` with each mode multiplied by exp(-i beta*L w^2/2): the fiber's
    phase carried by the photon itself, an oracle for hom's delta_beta_l."""
    phase = np.exp(-1j * gvd_phase(state.grid.detunings, beta_l))
    return HeraldedState(state.weights, state.modes * phase, state.grid)


def ten_nm_state():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0))
    return herald(schmidt_decompose(jsa))


def test_criterion_01_dispersion_cancellation_identity():
    start = time.perf_counter()
    state = ten_nm_state()
    cfg = default_scan_config(0.0)
    scans = []
    for length in (0.0, 6000.0, 28000.0):
        # Both photons carry their fiber's phase in their modes; the explicit
        # delta_beta_l is the difference of the two fibers, zero.
        element = DispersiveElement(BETA, length)
        s1, s2 = dispersed(state, element.beta_l), dispersed(state, element.beta_l)
        scans.append(scan(s1, s2, element.beta_l - element.beta_l, cfg).probabilities)
    dev = max(
        float(np.max(np.abs(scans[1] - scans[0]))),
        float(np.max(np.abs(scans[2] - scans[0]))),
    )
    elapsed = time.perf_counter() - start
    assert dev < 1e-9
    assert elapsed < 10.0
    report(1, "dispersion-cancellation-identity", f"max dev {dev:.2e}, {elapsed:.1f}s")


def test_criterion_02_matched_fiber_dip_width():
    start = time.perf_counter()
    state = ten_nm_state()
    metrics = fit_dip(scan(state, state, 0.0, default_scan_config(0.0)))
    elapsed = time.perf_counter() - start
    assert 0.34 * 0.75 <= metrics.fwhm <= 0.35 * 1.25
    assert elapsed < 30.0
    report(2, "matched-fiber-dip-width", f"fwhm {metrics.fwhm:.4f} ps vs 0.34-0.35 ps, {elapsed:.1f}s")


def test_criterion_03_mismatched_fiber_broadening_and_visibility():
    start = time.perf_counter()
    state = ten_nm_state()
    matched = fit_dip(scan(state, state, 0.0, default_scan_config(0.0)))
    delta = BETA * (6000.0 - 3500.0)
    mismatched = fit_dip(scan(state, state, delta, default_scan_config(delta)))
    elapsed = time.perf_counter() - start
    assert 1.28 * 0.75 <= mismatched.fwhm <= 1.28 * 1.25
    assert abs(mismatched.visibility - 0.229) <= 0.08
    assert mismatched.fwhm / matched.fwhm > 3.0
    assert mismatched.visibility / matched.visibility < 0.45
    assert elapsed < 30.0
    report(
        3,
        "mismatched-fiber-dip",
        f"fwhm {mismatched.fwhm:.3f} ps vs 1.28 ps, V {mismatched.visibility:.3f} vs 0.229, "
        f"ratios {mismatched.fwhm / matched.fwhm:.2f}/{mismatched.visibility / matched.visibility:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_matched_fiber_visibility_equals_purity():
    start = time.perf_counter()
    state = ten_nm_state()
    metrics = fit_dip(scan(state, state, 0.0, default_scan_config(0.0)))
    p = purity(state)
    elapsed = time.perf_counter() - start
    assert abs(metrics.visibility - 0.704) <= 0.08
    assert abs(metrics.visibility - p) <= 2e-3
    assert elapsed < 30.0
    report(
        4,
        "matched-fiber-visibility",
        f"V {metrics.visibility:.4f} vs 0.704, purity {p:.4f}, |V-purity| "
        f"{abs(metrics.visibility - p):.1e}, {elapsed:.1f}s",
    )


def test_criterion_05_pure_state_unit_visibility():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0))
    state = postulate_pure_state(schmidt_decompose(jsa))
    metrics = fit_dip(scan(state, state, 0.0, default_scan_config(0.0)))
    assert abs(metrics.visibility - 1.0) < 1e-4
    report(5, "pure-state-unit-visibility", f"V deviates by {abs(metrics.visibility - 1.0):.1e}")


def test_criterion_06_visibility_and_width_monotonic_in_length_difference():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    deltas = [0.0, 500.0, 1000.0, 2500.0, 5000.0]
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0))
    decomp = schmidt_decompose(jsa)
    details = []
    for mode, state in (("mixed", herald(decomp)), ("postulated-pure", postulate_pure_state(decomp))):
        curve = visibility_curve(state, BETA, 6000.0, deltas)
        vis = [v for _, v, _ in curve]
        widths = [w for _, _, w in curve]
        assert all(a > b for a, b in zip(vis, vis[1:])), mode
        assert all(a < b for a, b in zip(widths, widths[1:])), mode
        details.append(f"{mode}: V {vis[0]:.3f}->{vis[-1]:.3f}, w {widths[0]:.2f}->{widths[-1]:.2f} ps")
    report(6, "length-difference-monotonicity", "; ".join(details))


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    grid = make_grid(780.0, 10.0, 4.0, 32)
    rng = np.random.default_rng(2024)
    envelope = np.exp(-((grid.detunings / (0.4 * grid.detunings[-1])) ** 2))

    def random_state(rank):
        raw = rng.normal(size=(grid.n_points, rank)) + 1j * rng.normal(
            size=(grid.n_points, rank)
        )
        q, _ = np.linalg.qr(raw * envelope[:, None])
        w = rng.uniform(0.2, 1.0, size=rank)
        return HeraldedState(w / w.sum(), q.T / math.sqrt(grid.spacing), grid)

    worst = 0.0
    for _ in range(100):
        s1 = random_state(int(rng.integers(1, 5)))
        s2 = random_state(int(rng.integers(1, 5)))
        delta = float(rng.uniform(-2e5, 2e5))
        tau = float(rng.uniform(-500.0, 500.0))
        a = coincidence_probability(s1, s2, delta, tau)
        b = coincidence_probability_oracle(s1, s2, delta, tau)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 20.0
    report(7, "schmidt-sum-vs-density-matrix-oracle", f"worst |dP| {worst:.1e}, {elapsed:.1f}s")


def test_criterion_08_pulse_broadening_scaling():
    b6 = broadened_duration(10.0, 780.0, BETA * 6000.0)
    b28 = broadened_duration(10.0, 780.0, BETA * 28000.0)
    ratio = b28 / b6
    assert abs(ratio - 28.0 / 6.0) / (28.0 / 6.0) < 1e-3
    # Reported reference durations are 9.84 ps and 45.9 ps; the Gaussian
    # transform-limited convention used here gives smaller absolute values
    # (shape-convention sensitive), so they are reported, not asserted.
    report(
        8,
        "pulse-broadening-scaling",
        f"ratio {ratio:.5f} vs {28 / 6:.5f}; absolute {b6:.2f}/{b28:.2f} ps "
        f"vs reported 9.84/45.9 ps (convention caveat, reported only)",
    )


def test_criterion_09_three_photon_dispersion_cancellation():
    start = time.perf_counter()
    grid = make_grid(780.0, 10.0, 4.0, 48)
    width = 0.0309607
    photons = [gaussian_mode(grid, width) for _ in range(3)]
    delay_grid = [
        (-150.0, 0.0, -75.0),
        (-75.0, 0.0, 30.0),
        (0.0, 0.0, 0.0),
        (75.0, 0.0, -30.0),
        (150.0, 0.0, 75.0),
    ]
    X = BETA * 6000.0
    Y = BETA * 2000.0
    worst_i = worst_ii = 0.0
    contrast = 0.0
    for delays in delay_grid:
        base = outcome_probabilities(cascade_network(0, 0, 0, 0), photons, delays)[(1, 1, 1)]
        p_i = outcome_probabilities(cascade_network(X, X, X, 0.0), photons, delays)[(1, 1, 1)]
        p_ii = outcome_probabilities(cascade_network(X, X, X + Y, Y), photons, delays)[(1, 1, 1)]
        p_bad = outcome_probabilities(
            cascade_network(0.0, 1e5, 0.0, 0.0), photons, delays
        )[(1, 1, 1)]
        worst_i = max(worst_i, abs(p_i - base))
        worst_ii = max(worst_ii, abs(p_ii - base))
        contrast = max(contrast, abs(p_bad - base))
    elapsed = time.perf_counter() - start
    assert worst_i < 1e-9
    assert worst_ii < 1e-9
    assert contrast > 1e-3
    assert elapsed < 300.0
    report(
        9,
        "three-photon-cancellation",
        f"cond-i dev {worst_i:.1e}, cond-ii dev {worst_ii:.1e}, violated contrast "
        f"{contrast:.1e}, {elapsed:.1f}s at 48^3",
    )


def test_criterion_10_network_reduces_to_two_photon_result():
    from homsim.network import BeamSplitterNode, DetectorNode, NetworkEdge, NetworkSpec, SourceNode

    grid = make_grid(780.0, 10.0, 4.0, 48)
    rng = np.random.default_rng(77)
    envelope = np.exp(-((grid.detunings / (0.4 * grid.detunings[-1])) ** 2))
    worst = 0.0
    for _ in range(20):
        amps = rng.normal(size=(2, grid.n_points)) + 1j * rng.normal(
            size=(2, grid.n_points)
        )
        s1 = pure_state(grid, amps[0] * envelope)
        s2 = pure_state(grid, amps[1] * envelope)
        b1, b2 = rng.uniform(0.0, 2e5, size=2)
        tau = float(rng.uniform(-400.0, 400.0))
        net = NetworkSpec(
            sources=[SourceNode("a"), SourceNode("b")],
            beam_splitters=[BeamSplitterNode("BS")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "BS.in0", b1),
                NetworkEdge("b", "BS.in1", b2),
                NetworkEdge("BS.out0", "d1"),
                NetworkEdge("BS.out1", "d2"),
            ],
        )
        p_net = outcome_probabilities(net, [s1, s2], (tau, 0.0))[(1, 1)]
        # Both put exp(-i beta*L w^2/2) on each photon, hence b1 - b2.
        p_hom = coincidence_probability(s1, s2, b1 - b2, tau)
        worst = max(worst, abs(p_net - p_hom))
    assert worst < 1e-9
    report(10, "network-hom-cross-consistency", f"worst |dP| {worst:.1e} over 20 cases")


@pytest.mark.parametrize("mu", [0.1, 0.25, 0.5])
def test_criterion_11_schmidt_analytic_oracle(mu):
    s0 = 0.01
    sp = s0 * (1 + math.sqrt(mu))
    sm = s0 * (1 - math.sqrt(mu))
    half = 8.0 * sp
    expected = (1 - mu) * mu ** np.arange(10)
    for n in (512, 2048):
        spacing = 2 * half / (n - 1)
        det = (np.arange(n) - (n - 1) / 2) * spacing
        grid = FrequencyGrid(780.0, n, spacing, det)
        x, y = det[:, None], det[None, :]
        jsa = JointSpectralAmplitude(
            grid, grid, np.exp(-((x + y) ** 2) / (4 * sp**2) - ((x - y) ** 2) / (4 * sm**2))
        )
        decomp = schmidt_decompose(jsa, rank=10)
        lam = decomp.eigenvalues * (1.0 - decomp.tail_mass)
        worst = float(np.max(np.abs(lam - expected)))
        assert worst < 1e-6
        report(11, f"schmidt-geometric-spectrum mu={mu} N={n}", f"max |dlambda| {worst:.1e}")


def test_reported_high_visibility_narrow_filter_case():
    """Not asserted against the reported 97%: alignment and multi-photon
    imperfections lie outside the model, which predicts a higher value."""
    grid = make_grid(780.0, 10.0, 4.0, 512)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 1.0), BandpassFilter(780.0, 10.0))
    state = herald(schmidt_decompose(jsa))
    metrics = fit_dip(
        scan(state, state, 0.0, ScanConfig(-6000.0, 6000.0, 241))
    )
    assert metrics.visibility > 0.95
    print(
        f"REPORT narrow-filter visibility: model {metrics.visibility:.4f} vs "
        "reported 0.97 (includes experimental imperfections; reported only)"
    )
