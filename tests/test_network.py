import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cascade_network, coincidence_probability, pure_state
from homsim.errors import IncompatibleGridError, InvalidNetworkError, UnsupportedNetworkError
from homsim.hom import ScanConfig, scan
from homsim.network import (
    BeamSplitterNode,
    DetectorNode,
    NetworkEdge,
    NetworkSpec,
    SourceNode,
    check_cancellation,
    detector_dispersion_spread,
    outcome_probabilities,
)
from homsim.schmidt import HeraldedState, herald, schmidt_decompose
from homsim.source import BandpassFilter, PhaseMatching, PumpSpectrum, apply_filters, build_jsa
from homsim.spectral import gaussian_mode, make_grid

X = 37.802 * 6000.0  # fs^2
BW = 0.0309607  # 10 nm at 780 nm, rad/fs

DELAY_GRID = [
    (-150.0, 0.0, -75.0),
    (-75.0, 0.0, 30.0),
    (0.0, 0.0, 0.0),
    (75.0, 0.0, -30.0),
    (150.0, 0.0, 75.0),
]


def oracle_transfer_terms(net):
    """Per (detector, source): (amplitude coefficient, beta*L) of every path,
    from a walk of its own."""
    terms = {}
    detector_ids = {d.id for d in net.detectors}
    edges_from = {e.start: e for e in net.edges}
    splitters = {b.id: b for b in net.beam_splitters}

    def walk(endpoint, coeff, acc, source_id):
        edge = edges_from[endpoint]
        acc += edge.beta_l
        node, _, port = edge.end.partition(".")
        if node in detector_ids:
            terms.setdefault((node, source_id), []).append((coeff, acc))
            return
        in_idx = 0 if port == "in0" else 1
        for out_idx in (0, 1):
            walk(
                f"{node}.out{out_idx}",
                coeff * splitters[node].unitary[out_idx][in_idx],
                acc,
                source_id,
            )

    for s in net.sources:
        walk(s.id, 1.0 + 0.0j, 0.0, s.id)
    return terms


def quadrature_outcomes(net, photons, delays):
    """The K^n frequency quadrature of every count pattern: the oracle of the
    Gram-matrix engine.  Pure (rank-1) photons only."""
    grid = photons[0].grid
    w = grid.detunings
    terms = oracle_transfer_terms(net)
    vectors = {}
    for d in net.detectors:
        for s, photon, tau in zip(net.sources, photons, delays):
            (mode,) = photon.modes
            t = np.zeros(len(w), dtype=complex)
            for coeff, beta_l in terms.get((d.id, s.id), ()):
                t = t + coeff * np.exp(-0.5j * beta_l * w**2)
            vectors[(d.id, s.id)] = t * mode * np.exp(1j * w * tau)
    n = len(net.sources)
    detector_ids = [d.id for d in net.detectors]
    probs = {}
    for counts in itertools.combinations_with_replacement(range(len(detector_ids)), n):
        ports = [detector_ids[i] for i in counts]
        amp = 0.0
        for perm in itertools.permutations(range(n)):
            vecs = [vectors[(ports[k], net.sources[perm[k]].id)] for k in range(n)]
            amp = amp + reduce(np.multiply.outer, vecs)
        norm = math.prod(math.factorial(ports.count(p)) for p in set(ports))
        pattern = tuple(counts.count(i) for i in range(len(detector_ids)))
        probs[pattern] = float(np.sum(np.abs(amp) ** 2)) * grid.spacing**n / norm
    return probs


def random_photons(grid, count, seed):
    """``count`` pure photons of random complex, enveloped amplitudes."""
    rng = np.random.default_rng(seed)
    envelope = np.exp(-((grid.detunings / (0.5 * grid.detunings[-1])) ** 2))
    amps = rng.normal(size=(count, grid.n_points)) + 1j * rng.normal(
        size=(count, grid.n_points)
    )
    return [pure_state(grid, a * envelope) for a in amps]


def splitter_unitary(theta, psi, chi, alpha):
    """General 2x2 unitary
    e^{i alpha} [[e^{i psi} c, e^{i chi} s], [-e^{-i chi} s, e^{-i psi} c]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * alpha) * np.array(
        [
            [np.exp(1j * psi) * c, np.exp(1j * chi) * s],
            [-np.exp(-1j * chi) * s, np.exp(-1j * psi) * c],
        ]
    )


def assert_matches_oracle(net, photons, delays):
    engine = outcome_probabilities(net, photons, delays)
    oracle = quadrature_outcomes(net, photons, delays)
    assert engine.keys() == oracle.keys()
    assert max(abs(engine[k] - oracle[k]) for k in oracle) <= 1e-15
    return engine


@pytest.fixture(scope="module")
def grid48():
    return make_grid(780.0, 10.0, 4.0, 48)


@pytest.fixture(scope="module")
def identical_photons(grid48):
    return [gaussian_mode(grid48, BW) for _ in range(3)]


def single_splitter(beta_l_1=0.0, beta_l_2=0.0):
    return NetworkSpec(
        sources=[SourceNode("a"), SourceNode("b")],
        beam_splitters=[BeamSplitterNode("BS")],
        detectors=[DetectorNode("d1"), DetectorNode("d2")],
        edges=[
            NetworkEdge("a", "BS.in0", beta_l_1),
            NetworkEdge("b", "BS.in1", beta_l_2),
            NetworkEdge("BS.out0", "d1"),
            NetworkEdge("BS.out1", "d2"),
        ],
    )


def splitter_classes(net):
    """(source id, splitter id, beta*L) of every class held at a splitter."""
    return [
        (net.sources[source].id, b.id, beta_l)
        for b in net.beam_splitters
        for source, beta_l in net.classes[b.id]
    ]


def test_fig5_path_bookkeeping():
    net = cascade_network(1.0, 2.0, 3.0, 10.0)
    entries = {(source, bs): beta_l for source, bs, beta_l in splitter_classes(net)}
    assert entries == {
        ("s1", "A"): 1.0,
        ("s2", "A"): 2.0,
        ("s1", "B"): 11.0,
        ("s2", "B"): 12.0,
        ("s3", "B"): 3.0,
    }


def test_no_dispersion_accumulates_zero():
    net = cascade_network(0.0, 0.0, 0.0, 0.0)
    assert all(beta_l == 0.0 for _, _, beta_l in splitter_classes(net))


def test_single_splitter_has_two_entries():
    classes = splitter_classes(single_splitter(5.0, 7.0))
    assert len(classes) == 2
    assert {source for source, _, _ in classes} == {"a", "b"}


def test_condition_i_satisfied():
    assert check_cancellation(cascade_network(X, X, X, 0.0)).satisfied


def test_condition_ii_satisfied():
    Y = 37.802 * 2000.0
    assert check_cancellation(cascade_network(X, X, X + Y, Y)).satisfied


def test_violation_reports_mismatched_pairs():
    report = check_cancellation(cascade_network(X, 2 * X, X, 0.0))
    assert not report.satisfied
    pairs = {(a.beam_splitter, a.source, b.source) for a, b in report.violations}
    assert ("A", "s1", "s2") in pairs
    assert any(bs == "B" for bs, _, _ in pairs)
    payload = report.to_json_dict()
    assert payload["satisfied"] is False
    assert payload["violations"]


def test_satisfied_network_survives_common_rescaling():
    Y = 37.802 * 2000.0
    for factor in (0.5, 3.0, 17.0):
        assert check_cancellation(
            cascade_network(factor * X, factor * X, factor * (X + Y), factor * Y)
        ).satisfied


def test_cyclic_network_rejected():
    with pytest.raises(InvalidNetworkError, match="cycle through 'A'"):
        NetworkSpec(
            sources=[SourceNode("a"), SourceNode("b")],
            beam_splitters=[BeamSplitterNode("A"), BeamSplitterNode("B")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "A.in0"),
                NetworkEdge("b", "B.in0"),
                NetworkEdge("A.out0", "B.in1"),
                NetworkEdge("B.out0", "A.in1"),
                NetworkEdge("A.out1", "d1"),
                NetworkEdge("B.out1", "d2"),
            ],
        )
    # A cycle that no source reaches: splitter A feeds only itself.
    with pytest.raises(InvalidNetworkError, match="cycle through 'A'"):
        NetworkSpec(
            sources=[SourceNode("a")],
            beam_splitters=[BeamSplitterNode("A")],
            detectors=[DetectorNode("d1")],
            edges=[
                NetworkEdge("a", "d1"),
                NetworkEdge("A.out0", "A.in0"),
                NetworkEdge("A.out1", "A.in1"),
            ],
        )
    # The splitter downstream of the cycle comes first: the error names the
    # one on the cycle.
    with pytest.raises(InvalidNetworkError, match="cycle through 'A'") as info:
        NetworkSpec(
            sources=[SourceNode("a"), SourceNode("b")],
            beam_splitters=[BeamSplitterNode("B"), BeamSplitterNode("A")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "A.in1"),
                NetworkEdge("b", "B.in1"),
                NetworkEdge("A.out0", "A.in0"),
                NetworkEdge("A.out1", "B.in0"),
                NetworkEdge("B.out0", "d1"),
                NetworkEdge("B.out1", "d2"),
            ],
        )
    assert info.value.where == ("beam_splitters", 1)


def test_bad_wiring_rejected():
    with pytest.raises(InvalidNetworkError):  # dangling splitter input
        NetworkSpec(
            sources=[SourceNode("a")],
            beam_splitters=[BeamSplitterNode("A")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "A.in0"),
                NetworkEdge("A.out0", "d1"),
                NetworkEdge("A.out1", "d2"),
            ],
        )
    with pytest.raises(InvalidNetworkError):  # unknown endpoint
        NetworkSpec(
            sources=[SourceNode("a"), SourceNode("b")],
            beam_splitters=[BeamSplitterNode("A")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "A.in0"),
                NetworkEdge("b", "A.inX"),
                NetworkEdge("A.out0", "d1"),
                NetworkEdge("A.out1", "d2"),
            ],
        )
    with pytest.raises(InvalidNetworkError):  # double-wired input
        NetworkSpec(
            sources=[SourceNode("a"), SourceNode("b")],
            beam_splitters=[BeamSplitterNode("A")],
            detectors=[DetectorNode("d1"), DetectorNode("d2")],
            edges=[
                NetworkEdge("a", "A.in0"),
                NetworkEdge("b", "A.in0"),
                NetworkEdge("A.out0", "d1"),
                NetworkEdge("A.out1", "d2"),
            ],
        )


def test_non_unitary_splitter_rejected():
    from homsim.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        BeamSplitterNode("A", np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_disjoint_photons_give_classical_value(grid48):
    # Spectrally disjoint photons cannot interfere: P is the permanent of the
    # classical transfer probabilities (1/4 for this topology) and is
    # independent of every beta*L.
    n = grid48.n_points
    photons = []
    for k in range(3):
        amp = np.zeros(n, dtype=complex)
        amp[4 + 12 * k] = 1.0
        photons.append(pure_state(grid48, amp))
    p_plain = outcome_probabilities(cascade_network(0, 0, 0, 0), photons, (0.0, 0.0, 0.0))[
        (1, 1, 1)
    ]
    p_disp = outcome_probabilities(
        cascade_network(3e5, 1e4, 7e4, 2e5), photons, (0.0, 0.0, 0.0)
    )[(1, 1, 1)]
    assert p_plain == pytest.approx(0.25, abs=1e-12)
    assert p_disp == pytest.approx(0.25, abs=1e-12)


def test_cancellation_conditions_leave_coincidences_unchanged(identical_photons):
    Y = 37.802 * 2000.0
    for delays in DELAY_GRID:
        base = outcome_probabilities(
            cascade_network(0, 0, 0, 0), identical_photons, delays
        )[(1, 1, 1)]
        cond_i = outcome_probabilities(
            cascade_network(X, X, X, 0.0), identical_photons, delays
        )[(1, 1, 1)]
        cond_ii = outcome_probabilities(
            cascade_network(X, X, X + Y, Y), identical_photons, delays
        )[(1, 1, 1)]
        assert cond_i == pytest.approx(base, abs=1e-9)
        assert cond_ii == pytest.approx(base, abs=1e-9)


def test_violated_condition_changes_coincidences(identical_photons):
    diffs = []
    for delays in DELAY_GRID:
        base = outcome_probabilities(
            cascade_network(0, 0, 0, 0), identical_photons, delays
        )[(1, 1, 1)]
        bad = outcome_probabilities(
            cascade_network(0.0, 1e5, 0.0, 0.0), identical_photons, delays
        )[(1, 1, 1)]
        diffs.append(abs(bad - base))
    assert max(diffs) > 1e-3


def test_outcome_probabilities_sum_to_one(grid48):
    rng = np.random.default_rng(9)
    amps = rng.normal(size=(3, grid48.n_points)) + 1j * rng.normal(
        size=(3, grid48.n_points)
    )
    envelope = np.exp(-((grid48.detunings / (0.5 * grid48.detunings[-1])) ** 2))
    photons = [pure_state(grid48, a * envelope) for a in amps]
    probs = outcome_probabilities(
        cascade_network(1e5, 3e4, 0.0, 6e4), photons, (25.0, -10.0, 40.0)
    )
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-8)
    assert len(probs) == 10  # multisets of 3 photons over 3 ports
    assert all(p >= -1e-12 for p in probs.values())


def test_single_splitter_reduces_to_hom(grid48):
    rng = np.random.default_rng(21)
    envelope = np.exp(-((grid48.detunings / (0.4 * grid48.detunings[-1])) ** 2))
    worst = 0.0
    for _ in range(20):
        amps = rng.normal(size=(2, grid48.n_points)) + 1j * rng.normal(
            size=(2, grid48.n_points)
        )
        s1 = pure_state(grid48, amps[0] * envelope)
        s2 = pure_state(grid48, amps[1] * envelope)
        b1, b2 = rng.uniform(0, 2e5, size=2)
        tau = rng.uniform(-400, 400)
        net_p = outcome_probabilities(single_splitter(b1, b2), [s1, s2], (tau, 0.0))[
            (1, 1)
        ]
        # Both put exp(-i beta*L w^2/2) on each photon, hence b1 - b2.
        hom_p = coincidence_probability(s1, s2, b1 - b2, tau)
        worst = max(worst, abs(net_p - hom_p))
    assert worst < 1e-9


def test_off_centre_heralded_scan_matches_single_splitter():
    # An off-centre filter leaves modes of no definite parity, so the dip
    # moves by delta_beta_l times the mean detuning and the sign of the
    # dispersion phase shows.
    grid = make_grid(780.0, 10.0, 4.0, 256)
    jsa = apply_filters(
        build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid),
        BandpassFilter(781.5, 3.0),
        BandpassFilter(780.0, 10.0),
    )
    state = herald(schmidt_decompose(jsa))
    b1, b2 = 60000.0, 10000.0
    result = scan(state, state, b1 - b2, ScanConfig(-900.0, 900.0, 7))
    network = [
        outcome_probabilities(single_splitter(b1, b2), [state, state], (tau, 0.0))[(1, 1)]
        for tau in result.taus
    ]
    assert np.max(np.abs(result.probabilities - network)) < 1e-12


def test_engine_rejects_one_and_seven_photons(grid48, identical_photons):
    with pytest.raises(UnsupportedNetworkError):
        outcome_probabilities(
            NetworkSpec(
                sources=[SourceNode("a")],
                beam_splitters=[],
                detectors=[DetectorNode("d")],
                edges=[NetworkEdge("a", "d")],
            ),
            identical_photons[:1],
        )
    # Seven photons: above the engine's cap, rejected before any numerics.
    ids = [f"s{k}" for k in range(7)]
    with pytest.raises(UnsupportedNetworkError, match="2 to 6 photons"):
        outcome_probabilities(
            NetworkSpec(
                sources=[SourceNode(i) for i in ids],
                beam_splitters=[],
                detectors=[DetectorNode(f"d{i}") for i in ids],
                edges=[NetworkEdge(i, f"d{i}") for i in ids],
            ),
            [identical_photons[0]] * 7,
        )


def test_mixed_convex_combination_matches_pure_for_rank_one(grid48, identical_photons):
    # A mixture over copies of one mode is that pure state.
    states = [
        HeraldedState(np.array([0.3, 0.7]), np.repeat(m.modes, 2, axis=0), grid48)
        for m in identical_photons
    ]
    delays = (30.0, 0.0, -45.0)
    p_mixed = outcome_probabilities(cascade_network(X, X, X, 0.0), states, delays)[(1, 1, 1)]
    p_pure = outcome_probabilities(
        cascade_network(X, X, X, 0.0), identical_photons, delays
    )[(1, 1, 1)]
    assert p_mixed == pytest.approx(p_pure, abs=1e-12)


CASCADES = {
    "cond-i": (X, X, X, 0.0),
    "cond-ii": (X, X, X + 37.802 * 2000.0, 37.802 * 2000.0),
    "violated": (1e5, 3e4, 0.0, 6e4),
}


@pytest.mark.parametrize("arms", CASCADES.values(), ids=CASCADES.keys())
def test_engine_matches_quadrature_on_cascade(grid48, arms):
    # All 10 patterns, the bunched ones included.
    assert_matches_oracle(
        cascade_network(*arms), random_photons(grid48, 3, seed=5), (25.0, -10.0, 40.0)
    )


def complex_splitter():
    return NetworkSpec(
        sources=[SourceNode("a"), SourceNode("b")],
        beam_splitters=[BeamSplitterNode("BS", splitter_unitary(0.6, 0.9, -1.3, 0.4))],
        detectors=[DetectorNode("d1"), DetectorNode("d2")],
        edges=[
            NetworkEdge("a", "BS.in0", 7e4),
            NetworkEdge("b", "BS.in1", 2e4),
            NetworkEdge("BS.out0", "d1", 3e4),
            NetworkEdge("BS.out1", "d2"),
        ],
    )


def mach_zehnder():
    """Both outputs of a complex splitter recombine at a second one, so the
    orientation of each unitary (out = U in) shows in the outcomes; on a
    single splitter it is a phase convention."""
    return NetworkSpec(
        sources=[SourceNode("a"), SourceNode("b")],
        beam_splitters=[
            BeamSplitterNode("A", splitter_unitary(0.6, 0.9, -1.3, 0.4)),
            BeamSplitterNode("B", splitter_unitary(1.1, -0.5, 0.7, 0.0)),
        ],
        detectors=[DetectorNode("d1"), DetectorNode("d2")],
        edges=[
            NetworkEdge("a", "A.in0"),
            NetworkEdge("b", "A.in1", 2e4),
            NetworkEdge("A.out0", "B.in0", 5e4),
            NetworkEdge("A.out1", "B.in1"),
            NetworkEdge("B.out0", "d1"),
            NetworkEdge("B.out1", "d2"),
        ],
    )


@pytest.mark.parametrize("build", [complex_splitter, mach_zehnder], ids=["single", "mach-zehnder"])
def test_engine_matches_quadrature_on_complex_splitter(grid48, build):
    # splitter_unitary(0.6, ...) has |t|^2 = cos(0.6)^2 = 0.68: not 50:50.
    assert_matches_oracle(build(), random_photons(grid48, 2, seed=6), (-35.0, 20.0))


def test_engine_matches_quadrature_for_four_photons():
    grid = make_grid(780.0, 10.0, 4.0, 16)
    net = NetworkSpec(
        sources=[SourceNode(f"s{k}") for k in range(4)],
        beam_splitters=[
            BeamSplitterNode("A", splitter_unitary(0.7, 0.2, 1.1, 0.0)),
            BeamSplitterNode("B"),
            BeamSplitterNode("C", splitter_unitary(0.5, -0.8, 0.3, 0.9)),
        ],
        detectors=[DetectorNode(f"d{k}") for k in range(4)],
        edges=[
            NetworkEdge("s0", "A.in0", 4e4),
            NetworkEdge("s1", "A.in1"),
            NetworkEdge("s2", "B.in0", 1e4),
            NetworkEdge("s3", "B.in1"),
            NetworkEdge("A.out0", "C.in0", 2e4),
            NetworkEdge("B.out0", "C.in1"),
            NetworkEdge("A.out1", "d0"),
            NetworkEdge("B.out1", "d1"),
            NetworkEdge("C.out0", "d2", 5e3),
            NetworkEdge("C.out1", "d3"),
        ],
    )
    probs = assert_matches_oracle(net, random_photons(grid, 4, seed=7), (0.0, 15.0, -20.0, 5.0))
    assert len(probs) == 35  # multisets of 4 photons over 4 ports


def test_heralded_input_is_convex_combination_of_oracle_values():
    grid = make_grid(780.0, 10.0, 4.0, 32)
    rng = np.random.default_rng(8)
    states = []
    for seed in (11, 12, 13):
        w = rng.uniform(0.1, 1.0, size=4)
        modes = np.concatenate([p.modes for p in random_photons(grid, 4, seed)])
        states.append(HeraldedState(w / w.sum(), modes, grid))
    net = cascade_network(1e5, 3e4, 0.0, 6e4)
    delays = (25.0, -10.0, 40.0)
    expected = {}
    for idx in itertools.product(range(4), repeat=3):
        weight = math.prod(s.weights[i] for s, i in zip(states, idx))
        photons = [HeraldedState([1.0], s.modes[i : i + 1], grid) for s, i in zip(states, idx)]
        oracle = quadrature_outcomes(net, photons, delays)
        for pattern, p in oracle.items():
            expected[pattern] = expected.get(pattern, 0.0) + weight * p
    engine = outcome_probabilities(net, states, delays)
    assert max(abs(engine[k] - expected[k]) for k in expected) <= 1e-15
    assert outcome_probabilities(net, states, delays)[(1, 1, 1)] == engine[(1, 1, 1)]


def test_engine_rejects_photons_on_different_grids(grid48, identical_photons):
    other = gaussian_mode(make_grid(780.0, 10.0, 4.0, 64), BW)
    with pytest.raises(IncompatibleGridError):
        outcome_probabilities(single_splitter(), [identical_photons[0], other])


def test_delay_defaults_come_from_source_nodes(grid48, identical_photons):
    net = cascade_network(0, 0, 0, 0, delays=(40.0, 0.0, -60.0))
    p_default = outcome_probabilities(net, identical_photons)[(1, 1, 1)]
    p_explicit = outcome_probabilities(net, identical_photons, (40.0, 0.0, -60.0))[(1, 1, 1)]
    assert p_default == p_explicit


def ladder(k):
    """Two photons through k splitters in series: out0 of each feeds in0 of
    the next over 1e4 fs^2 of dispersion, out1 feeds in1 without.  A photon
    reaches each detector on 2^(k-1) paths but with only k distinct beta*L."""
    angles = np.random.default_rng(k).uniform(-3.0, 3.0, size=(k, 4))
    splitters = [BeamSplitterNode(f"L{j}", splitter_unitary(*angles[j])) for j in range(k)]
    edges = [NetworkEdge("a", "L0.in0", 3e3), NetworkEdge("b", "L0.in1")]
    for j in range(k - 1):
        edges.append(NetworkEdge(f"L{j}.out0", f"L{j + 1}.in0", 1e4))
        edges.append(NetworkEdge(f"L{j}.out1", f"L{j + 1}.in1"))
    edges += [NetworkEdge(f"L{k - 1}.out0", "d0"), NetworkEdge(f"L{k - 1}.out1", "d1")]
    sources = [SourceNode("a"), SourceNode("b")]
    return NetworkSpec(sources, splitters, [DetectorNode("d0"), DetectorNode("d1")], edges)


def test_ladder_keeps_one_term_per_distinct_beta_l(grid48):
    k = 12
    net = ladder(k)
    oracle_terms = oracle_transfer_terms(net)
    for (detector, source), paths in oracle_terms.items():
        index = [s.id for s in net.sources].index(source)
        terms = [beta_l for s, beta_l in net.classes[detector] if s == index]
        assert len(paths) == 2 ** (k - 1)
        assert sorted(terms) == sorted({beta_l for _, beta_l in paths})
        assert len(terms) == k
    assert_matches_oracle(net, random_photons(grid48, 2, seed=12), (20.0, -15.0))


def oracle_splitter_classes(net):
    """Per splitter, the (source, beta*L) classes of the paths into it, each
    with the splitters on its first path, in the order of a depth-first
    walk of its own over every path."""
    classes = {b.id: {} for b in net.beam_splitters}
    edges_from = {e.start: e for e in net.edges}

    def walk(endpoint, acc, via, source_id):
        edge = edges_from[endpoint]
        node = edge.end.partition(".")[0]
        if node in classes:
            classes[node].setdefault((source_id, acc + edge.beta_l), via)
            for out_idx in (0, 1):
                walk(f"{node}.out{out_idx}", acc + edge.beta_l, via + (node,), source_id)

    for s in net.sources:
        walk(s.id, 0.0, (), s.id)
    return classes


def assert_audit_matches_oracle(net):
    """Each violation pairs two classes of the oracle's walk, in its order,
    with the splitters of each class's first path."""
    report = check_cancellation(net)
    expected = [
        (bs, a, b)
        for bs, held in sorted(oracle_splitter_classes(net).items())
        for a, b in itertools.combinations(held.items(), 2)
        if abs(a[0][1] - b[0][1]) > report.tolerance
    ]
    assert [
        (a.beam_splitter, ((a.source, a.beta_l), a.via), ((b.source, b.beta_l), b.via))
        for a, b in report.violations
    ] == expected
    return report


def test_ladder_audit_reports_one_pair_per_pair_of_classes():
    k = 10
    report = assert_audit_matches_oracle(ladder(k))
    # Splitter L<j> holds 2(j + 1) classes of distinct beta*L, and 2^(j+1) paths.
    assert len(report.violations) == sum(math.comb(2 * j, 2) for j in range(1, k + 1))


def test_long_ladder_holds_classes_not_paths():
    k = 40
    net = ladder(k)
    assert max(len(held) for held in net.classes.values()) <= 2 * k
    assert [len(net.classes[f"L{j}"]) for j in range(k)] == [2 * (j + 1) for j in range(k)]
    report = check_cancellation(net)
    assert len(report.violations) == sum(math.comb(2 * j, 2) for j in range(1, k + 1))
    assert detector_dispersion_spread(net) == (k - 1) * 1e4 + 3e3


@st.composite
def random_networks(draw):
    """A DAG of 2-4 beam splitters with random unitaries, in topological
    order: each splitter input takes a new source or an open output of an
    earlier splitter; the outputs left open go to detectors.  With
    ``balanced`` the splitter-facing edges come from a potential (beta*L on
    arrival at each splitter), so every splitter sees equal beta*L."""
    n_bs = draw(st.integers(2, 4))
    balanced = draw(st.booleans())
    beta_l = st.sampled_from([0.0, 3e4, 7e4, 1.2e5])
    potential = [draw(beta_l) for _ in range(n_bs)]
    sources, edges, open_outputs = [], [], []
    splitters = []
    for j in range(n_bs):
        angles = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 4))
        splitters.append(BeamSplitterNode(f"B{j}", splitter_unitary(*angles)))
        for port in ("in0", "in1"):
            if open_outputs and (len(sources) >= 4 or draw(st.booleans())):
                start = open_outputs.pop(draw(st.integers(0, len(open_outputs) - 1)))
                before = potential[int(start[1 : start.index(".")])]
            else:
                start = f"s{len(sources)}"
                sources.append(SourceNode(start, draw(st.floats(-200.0, 200.0))))
                before = 0.0
            b = potential[j] - before if balanced else draw(beta_l)
            edges.append(NetworkEdge(start, f"B{j}.{port}", b))
        open_outputs += [f"B{j}.out0", f"B{j}.out1"]
    detectors = [DetectorNode(f"d{k}") for k in range(len(open_outputs))]
    for d, start in zip(detectors, open_outputs):
        edges.append(NetworkEdge(start, d.id, draw(beta_l)))
    return NetworkSpec(sources, splitters, detectors, edges)


def without_dispersion(net):
    edges = [NetworkEdge(e.start, e.end) for e in net.edges]
    return NetworkSpec(list(net.sources), list(net.beam_splitters), list(net.detectors), edges)


@settings(max_examples=60, deadline=None)
@given(net=random_networks(), seed=st.integers(0, 2**16))
def test_random_networks_obey_the_cancellation_rule(net, seed):
    grid = make_grid(780.0, 10.0, 4.0, 32)
    photons = random_photons(grid, len(net.sources), seed)
    probs = outcome_probabilities(net, photons)
    assert abs(sum(probs.values()) - 1.0) <= 1e-12

    report = check_cancellation(net)
    if report.satisfied:
        plain = outcome_probabilities(without_dispersion(net), photons)
        assert max(abs(probs[k] - plain[k]) for k in probs) <= 1e-12

    # Per splitter equal beta*L <=> equal beta*L on every path into one detector.
    by_detector = {}
    for (detector, _), terms in oracle_transfer_terms(net).items():
        by_detector.setdefault(detector, []).extend(b for _, b in terms)
    equal_at_detectors = all(
        max(b) - min(b) <= report.tolerance for b in by_detector.values()
    )
    assert report.satisfied == equal_at_detectors
    assert (detector_dispersion_spread(net) <= report.tolerance) == equal_at_detectors


@settings(max_examples=60, deadline=None)
@given(net=random_networks())
def test_random_network_audit_matches_a_walk_over_every_path(net):
    # The pass meets the splitters in topological order, not in the order a
    # depth-first walk meets the paths; the report must not show it.
    assert_audit_matches_oracle(net)
    for (detector, source), terms in oracle_transfer_terms(net).items():
        index = [s.id for s in net.sources].index(source)
        held = [beta_l for s, beta_l in net.classes[detector] if s == index]
        assert held == list(dict.fromkeys(beta_l for _, beta_l in terms))
