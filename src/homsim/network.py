"""Multi-path linear interferometer: dispersion bookkeeping and n-photon
coincidence probabilities.

A network is a DAG of sources, 2x2 beam splitters and detectors.  Edges may
carry dispersion, a beta*L product; a photon path accumulates the sum of
beta*L over its edges.  Dispersion cancels from every interference
observable exactly when, at each beam splitter, all arriving paths carry
equal accumulated beta*L - the condition checked by
:func:`check_cancellation`.  One walk over
the graph (:func:`_walk`) gives both that bookkeeping and the transfer terms
of the simulation.  :class:`NetworkSpec` runs it once, when it validates
the wiring, and keeps both results; the walk also finds every cycle, so a
spec that exists is a DAG, and no reader walks the graph again.

Photon s reaches detector d with the port vector
V_{d,s}(w) = t_{d,s}(w) phi_s(w) e^{i w tau_s}, where t_{d,s} sums the
products of unitary entries times e^{-i beta*L w^2 / 2} over the paths from
s to d; the walk adds up the coefficients of paths with equal beta*L, so
t_{d,s} costs one exponential per distinct beta*L.  Put one photon on each
detection row k, at detector p_k.  The probability of the count pattern m
is the n-fold frequency integral of
|sum_sigma prod_k V_{p_k, sigma(k)}(w_k)|^2 / prod_d m_d!.  Expanding the
square factors it into one-dimensional integrals, the Gram matrices
G_d = dw V_d^dagger V_d of each detector's port vectors:

    P(m) = sum_{sigma, sigma'} prod_k G_{p_k}[sigma(k), sigma'(k)] / prod_d m_d!

(Shchesnovich, PRA 91, 013844 (2015); Tichy, PRA 91, 022316 (2015)).  On the
same grid it equals the quadrature up to rounding, at a cost of
n!^2 n per pattern plus D n^2 K for the Gram matrices (D detectors, K grid
points), against n! K^n per pattern for the quadrature.  That quadrature is
kept as the test oracle in ``tests/test_network.py``.  Every input is a
photon state, weights over the rows of a mode matrix, and a pure photon is
the rank-1 case.  The probability is linear in each photon's density
matrix, so it is the weighted sum over the R^n tuples of modes; one Gram
matrix per detector over all (source, mode) vectors serves every tuple.
n!^2 limits the photon number to ``MAX_PHOTONS``.

Every network has as many detectors as sources: :class:`NetworkSpec` wires
each port exactly once, and an edge joins one output (a source or a splitter
output) to one input (a detector or a splitter input), so
sources + 2 splitters = detectors + 2 splitters.  The n-photon coincidence,
one photon per detector, is therefore always the all-ones pattern
``(1,) * n`` of :func:`outcome_probabilities`.

The wiring, the walk and the audit run in plain Python; numpy is imported
only by the engine (:func:`_gram_matrices`, :func:`outcome_probabilities`),
so a ``network-check`` run never loads it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import reduce
from typing import TYPE_CHECKING

from .errors import InvalidArgumentError, InvalidNetworkError, UnsupportedNetworkError
from .frozen import Frozen

if TYPE_CHECKING:
    import numpy as np

    from .spectral import HeraldedState

MAX_PHOTONS = 6  # 518400 permutation pairs per pattern at n = 6
_PAIR_PRODUCTS_PER_STEP = 1 << 18  # bounds the memory of one numpy step
_HALF = complex(1.0 / math.sqrt(2.0))
SPLITTER_50_50 = ((_HALF, _HALF), (_HALF, -_HALF))  # default unitary (real 50/50)


class SourceNode(Frozen):
    """Single-photon source; ``delay`` (fs) shifts its photon's arrival."""

    id: str
    delay: float

    def __init__(self, id: str, delay: float = 0.0) -> None:
        self.__dict__.update(id=id, delay=delay)


class BeamSplitterNode(Frozen):
    """2x2 lossless node; ports are ``<id>.in0/.in1`` and ``<id>.out0/.out1``.

    ``unitary[out][in]`` is stored as a 2x2 tuple of ``complex``; every entry
    of U U^dagger must lie within 1e-12 of the identity's.
    """

    id: str
    unitary: tuple[tuple[complex, ...], ...]

    def __init__(self, id: str, unitary: Sequence[Sequence[complex]] = SPLITTER_50_50) -> None:
        u = tuple(tuple(map(complex, row)) for row in unitary)
        if tuple(map(len, u)) != (2, 2):
            raise InvalidArgumentError(f"beam splitter {id}: unitary must be 2x2")
        for i, j in itertools.product((0, 1), repeat=2):
            entry = u[i][0] * u[j][0].conjugate() + u[i][1] * u[j][1].conjugate()
            if not abs(entry - float(i == j)) <= 1e-12:  # NaN fails too
                raise InvalidArgumentError(f"beam splitter {id}: matrix is not unitary")
        self.__dict__.update(id=id, unitary=u)


class DetectorNode(Frozen):
    """Photon counter at the end of a path."""

    id: str

    def __init__(self, id: str) -> None:
        self.__dict__.update(id=id)


class NetworkEdge(Frozen):
    """Directed connection between two ports, optionally dispersive.

    ``start`` is a source id or ``<bs>.out0/.out1``; ``end`` is a detector id
    or ``<bs>.in0/.in1``.  ``beta_l`` (fs^2) is the dispersion product of
    the media on the edge; series media add their beta*L.
    """

    start: str
    end: str
    beta_l: float

    def __init__(self, start: str, end: str, beta_l: float = 0.0) -> None:
        self.__dict__.update(start=start, end=end, beta_l=beta_l)


class PathDispersion(Frozen):
    """Accumulated beta*L (fs^2) along one source -> beam-splitter path."""

    source: str
    beam_splitter: str
    beta_l: float
    via: tuple[str, ...]

    def __init__(
        self, source: str, beam_splitter: str, beta_l: float, via: tuple[str, ...] = ()
    ) -> None:
        self.__dict__.update(source=source, beam_splitter=beam_splitter, beta_l=beta_l, via=via)


class CancellationReport(Frozen):
    """Outcome of :func:`check_cancellation`: each violation is a pair of
    paths into the same beam splitter whose beta*L differ by more than
    ``tolerance`` (fs^2)."""

    satisfied: bool
    violations: tuple[tuple[PathDispersion, PathDispersion], ...]
    tolerance: float

    def __init__(
        self,
        satisfied: bool,
        violations: tuple[tuple[PathDispersion, PathDispersion], ...],
        tolerance: float,
    ) -> None:
        self.__dict__.update(satisfied=satisfied, violations=violations, tolerance=tolerance)

    def to_json_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "tolerance_fs2": self.tolerance,
            "violations": [
                {
                    "beam_splitter": a.beam_splitter,
                    "path_a": {"source": a.source, "via": list(a.via), "beta_l_fs2": a.beta_l},
                    "path_b": {"source": b.source, "via": list(b.via), "beta_l_fs2": b.beta_l},
                    "mismatch_fs2": abs(a.beta_l - b.beta_l),
                }
                for a, b in self.violations
            ],
        }


class NetworkSpec:
    """Validated interferometer wiring and the one walk over its paths.

    Raises :class:`InvalidNetworkError` for cyclic graphs, dangling or
    multiply-used ports, or unknown endpoint names; its ``where`` names the
    faulty node or edge endpoint.  ``paths`` and ``terms`` hold the two
    results of :func:`_walk`: the accumulated beta*L of every source ->
    beam-splitter path, and per (detector, source) the summed amplitude
    coefficient of each distinct beta*L among its paths.
    """

    def __init__(
        self,
        sources: list[SourceNode],
        beam_splitters: list[BeamSplitterNode],
        detectors: list[DetectorNode],
        edges: list[NetworkEdge],
    ):
        self.sources = tuple(sources)
        self.beam_splitters = tuple(beam_splitters)
        self.detectors = tuple(detectors)
        self.edges = tuple(edges)
        self._bs_by_id = {b.id: b for b in beam_splitters}
        self._edges_from: dict[str, NetworkEdge] = {}
        self._validate()
        self.paths, self.terms = _walk(self)

    def _validate(self) -> None:
        ids = set()
        for kind in ("sources", "beam_splitters", "detectors"):
            for i, node in enumerate(getattr(self, kind)):
                if node.id in ids:
                    raise InvalidNetworkError("node ids must be unique", (kind, i))
                ids.add(node.id)

        # Every output and input port, in node order, with its node's place.
        ports = {
            "output": {s.id: ("sources", i) for i, s in enumerate(self.sources)},
            "input": {d.id: ("detectors", i) for i, d in enumerate(self.detectors)},
        }
        for i, b in enumerate(self.beam_splitters):
            for k in (0, 1):
                ports["output"][f"{b.id}.out{k}"] = ("beam_splitters", i)
                ports["input"][f"{b.id}.in{k}"] = ("beam_splitters", i)

        wired = {"output": self._edges_from, "input": {}}
        for i, e in enumerate(self.edges):
            for key, kind, port in (("start", "output", e.start), ("end", "input", e.end)):
                if port not in ports[kind]:
                    raise InvalidNetworkError(
                        f"unknown or non-{kind} endpoint {port!r}", ("edges", i, key)
                    )
                if port in wired[kind]:
                    raise InvalidNetworkError(
                        f"{kind} {port!r} wired more than once", ("edges", i, key)
                    )
                wired[kind][port] = e
        for kind, places in ports.items():
            for port, where in places.items():
                if port not in wired[kind]:
                    raise InvalidNetworkError(f"{kind} {port!r} is not connected", where)


def _walk(
    net: NetworkSpec,
) -> tuple[list[PathDispersion], dict[tuple[str, str], dict[float, complex]]]:
    """The one depth-first walk over every source -> detector path, run by
    :class:`NetworkSpec` once its ports are wired.

    Returns the accumulated beta*L on arrival at each beam splitter, one
    :class:`PathDispersion` per distinct path in walk order, and per
    (detector, source) a map from each beta*L of the paths that end at that
    detector to their summed amplitude coefficient.  A path's coefficient is
    the product of the unitary entries met on the way; paths of equal beta*L
    share one transfer phase, so a ladder of k splitters, with its 2^k paths,
    keeps one term per distinct beta*L.

    It also finds every cycle.  A splitter already on the current path
    closes one.  A splitter that no path reaches lies on one too: with every
    port wired once, the unreached splitters feed only each other, and in
    a graph where each node has as many inputs as outputs every edge lies on
    a cycle.
    """
    paths: list[PathDispersion] = []
    terms: dict[tuple[str, str], dict[float, complex]] = {}

    def visit(
        endpoint: str, coeff: complex, acc: float, via: tuple[str, ...], source_id: str
    ) -> None:
        edge = net._edges_from[endpoint]
        acc += edge.beta_l
        node, _, port = edge.end.partition(".")
        bs = net._bs_by_id.get(node)
        if bs is None:  # a detector ends the path
            merged = terms.setdefault((node, source_id), {})
            merged[acc] = merged[acc] + coeff if acc in merged else coeff
            return
        if node in via:
            raise InvalidNetworkError(
                f"network contains a cycle through {node!r}",
                ("beam_splitters", net.beam_splitters.index(bs)),
            )
        paths.append(PathDispersion(source_id, node, acc, via))
        in_idx = 0 if port == "in0" else 1
        for out_idx in (0, 1):
            visit(
                f"{node}.out{out_idx}",
                coeff * bs.unitary[out_idx][in_idx],
                acc,
                via + (node,),
                source_id,
            )

    for s in net.sources:
        visit(s.id, 1.0 + 0.0j, 0.0, (), s.id)
    reached = {p.beam_splitter for p in paths}
    for i, b in enumerate(net.beam_splitters):
        if b.id not in reached:
            raise InvalidNetworkError(
                f"network contains a cycle through {b.id!r}", ("beam_splitters", i)
            )
    return paths, terms


def detector_dispersion_spread(net: NetworkSpec) -> float:
    """Largest difference of accumulated beta*L (fs^2) between two
    source -> detector paths that end at the same detector."""
    by_detector: dict[str, list[float]] = {}
    for (detector, _), merged in net.terms.items():
        by_detector.setdefault(detector, []).extend(merged)
    return max((max(b) - min(b) for b in by_detector.values()), default=0.0)


def check_cancellation(net: NetworkSpec, tolerance: float = 1e-6) -> CancellationReport:
    """Pairwise-equality check of accumulated beta*L at every beam splitter.

    Dispersion cancels from the interference at a beam splitter iff all
    photon paths arriving there carry the same accumulated beta*L (within
    ``tolerance``, in fs^2).
    """
    by_bs: dict[str, list[PathDispersion]] = {}
    for p in net.paths:
        by_bs.setdefault(p.beam_splitter, []).append(p)
    violations = [
        (a, b)
        for bs in sorted(by_bs)
        for a, b in itertools.combinations(by_bs[bs], 2)
        if abs(a.beta_l - b.beta_l) > tolerance
    ]
    return CancellationReport(
        satisfied=not violations, violations=tuple(violations), tolerance=tolerance
    )


def _source_delays(
    net: NetworkSpec, inputs: Sequence[HeraldedState], delays
) -> list[float]:
    """The source delays in source order, once the inputs are checked: one
    state per source, all on one grid."""
    n = len(net.sources)
    if len(inputs) != n:
        raise InvalidArgumentError(
            f"expected {n} photon inputs for {n} sources, got {len(inputs)}"
        )
    for st in inputs:
        inputs[0].grid.require_same(st.grid)
    if delays is None:
        return [s.delay for s in net.sources]
    if len(delays) != n:
        raise InvalidArgumentError(f"expected {n} delays, got {len(delays)}")
    return [float(t) for t in delays]


def _gram_matrices(
    net: NetworkSpec, states: Sequence[HeraldedState], delays: list[float]
) -> np.ndarray:
    """G[d] = dw V_d^dagger V_d over every (source, mode) port vector
    V_d(w) = t_{d,s}(w) phi(w) e^{i w tau_s}, columns in source-then-mode
    order; shape (detectors, modes, modes)."""
    import numpy as np

    grid = states[0].grid
    w = grid.detunings
    shifts = [np.exp(1j * w * tau) for tau in delays]
    n_columns = sum(len(st.modes) for st in states)
    vectors = np.empty((len(net.detectors), n_columns, len(w)), dtype=complex)
    for i, d in enumerate(net.detectors):
        col = 0
        for s, st, shift in zip(net.sources, states, shifts):
            t = np.zeros(len(w), dtype=complex)
            for beta_l, coeff in net.terms.get((d.id, s.id), {}).items():
                t = t + coeff * np.exp(-0.5j * beta_l * w**2)
            vectors[i, col : col + len(st.modes)] = (t * st.modes) * shift
            col += len(st.modes)
    return grid.spacing * (vectors.conj() @ vectors.transpose(0, 2, 1))


def outcome_probabilities(
    net: NetworkSpec,
    inputs: Sequence[HeraldedState],
    delays=None,
) -> dict[tuple[int, ...], float]:
    """Probability of every photon-count pattern over the detector ports.

    ``inputs`` holds one :class:`HeraldedState` per source, in source order,
    of any rank (a pure photon, such as a ``gaussian_mode``, has rank 1);
    ``delays`` likewise (source-node delays when omitted).  Patterns are
    tuples of counts in detector order; for a lossless network the
    probabilities sum to 1.  Networks of 2 to ``MAX_PHOTONS`` sources are
    supported.
    """
    n = len(net.sources)
    if not 2 <= n <= MAX_PHOTONS:
        raise UnsupportedNetworkError(
            f"coincidence simulation supports 2 to {MAX_PHOTONS} photons, "
            f"network has {n} sources"
        )
    import numpy as np

    gram = _gram_matrices(net, inputs, _source_delays(net, inputs, delays))

    # Mode tuples (one Schmidt mode per source) as Gram columns, with weights.
    offsets = np.cumsum([0] + [len(st.modes) for st in inputs[:-1]])
    tuples = offsets + np.array(
        list(itertools.product(*(range(len(st.modes)) for st in inputs)))
    )
    weights = reduce(np.multiply.outer, [st.weights for st in inputs]).ravel()
    perms = np.array(list(itertools.permutations(range(n))))
    # rows[t, a, k]: Gram column of the photon that permutation a puts on row k.
    rows = tuples[:, perms]
    detections = list(itertools.combinations_with_replacement(range(len(net.detectors)), n))
    at = np.array(detections)  # at[p, k]: detector of row k

    # Every (pattern, tuple) pair sums n!^2 products; chunks bound the memory.
    n_tuples = len(tuples)
    sums = np.empty(len(detections) * n_tuples, dtype=complex)
    step = max(1, _PAIR_PRODUCTS_PER_STEP // len(perms) ** 2)
    for start in range(0, len(sums), step):
        c = np.arange(start, min(start + step, len(sums)))
        d, r = at[c // n_tuples], rows[c % n_tuples]
        prod = gram[d[:, 0, None, None], r[:, :, None, 0], r[:, None, :, 0]]
        for k in range(1, n):
            prod = prod * gram[d[:, k, None, None], r[:, :, None, k], r[:, None, :, k]]
        sums[c] = prod.sum(axis=(1, 2))
    values = sums.real.reshape(len(detections), n_tuples) @ weights

    probs: dict[tuple[int, ...], float] = {}
    for counts, value in zip(detections, values):
        pattern = tuple(counts.count(i) for i in range(len(net.detectors)))
        probs[pattern] = float(value) / math.prod(math.factorial(m) for m in pattern)
    return probs
