"""Multi-path linear interferometer: dispersion bookkeeping and n-photon
coincidence probabilities.

A network is a DAG of sources, 2x2 beam splitters and detectors.  Edges may
carry dispersion, a beta*L product; a photon path accumulates the sum of
beta*L over its edges.  Dispersion cancels from every interference
observable exactly when, at each beam splitter, all arriving paths carry
equal accumulated beta*L - the condition checked by
:func:`check_cancellation`.  Paths from one source that reach a node with
equal beta*L share every later phase, so one pass over the splitters in
topological order (:func:`_walk`; Kahn, Commun. ACM 5, 558 (1962)) carries
them as one class, keyed by (source, beta*L), and never lists the paths:
the j-th splitter of a ladder (from 0) is reached by 2^(j+1) paths but
holds 2(j + 1) classes.  :class:`NetworkSpec` runs the pass once, when it validates the
wiring, and keeps the classes at every node; the audit reads them at the
splitters and the engine at the detectors.  A splitter the pass never
reaches lies on a cycle or downstream of one, so a spec that exists is a
DAG, and no reader walks the graph again.

Photon s reaches detector d with the port vector
V_{d,s}(w) = t_{d,s}(w) phi_s(w) e^{i w tau_s}, where t_{d,s} sums the
products of unitary entries times e^{-i beta*L w^2 / 2} over the paths from
s to d; the pass adds up the coefficients of paths with equal beta*L, so
t_{d,s} costs one exponential per class.  Put one photon on each
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

The wiring, the pass and the audit run in plain Python; numpy is imported
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
    delay: float = 0.0


class BeamSplitterNode(Frozen):
    """2x2 lossless node; ports are ``<id>.in0/.in1`` and ``<id>.out0/.out1``.

    ``unitary[out][in]`` is stored as a 2x2 tuple of ``complex``; every entry
    of U U^dagger must lie within 1e-12 of the identity's.
    """

    id: str
    unitary: tuple[tuple[complex, ...], ...] = SPLITTER_50_50

    def __post_init__(self) -> None:
        u = tuple(tuple(map(complex, row)) for row in self.unitary)
        if tuple(map(len, u)) != (2, 2):
            raise InvalidArgumentError(f"beam splitter {self.id}: unitary must be 2x2")
        for i, j in itertools.product((0, 1), repeat=2):
            entry = u[i][0] * u[j][0].conjugate() + u[i][1] * u[j][1].conjugate()
            if not abs(entry - float(i == j)) <= 1e-12:  # NaN fails too
                raise InvalidArgumentError(f"beam splitter {self.id}: matrix is not unitary")
        self.__dict__["unitary"] = u


class DetectorNode(Frozen):
    """Photon counter at the end of a path."""

    id: str


class NetworkEdge(Frozen):
    """Directed connection between two ports, optionally dispersive.

    ``start`` is a source id or ``<bs>.out0/.out1``; ``end`` is a detector id
    or ``<bs>.in0/.in1``.  ``beta_l`` (fs^2) is the dispersion product of
    the media on the edge; series media add their beta*L.
    """

    start: str
    end: str
    beta_l: float = 0.0


class PathDispersion(Frozen):
    """Accumulated beta*L (fs^2) of one (source, beta*L) class of paths into
    a beam splitter; ``via`` lists the splitters on its first path in
    depth-first order."""

    source: str
    beam_splitter: str
    beta_l: float
    via: tuple[str, ...] = ()


class CancellationReport(Frozen):
    """Outcome of :func:`check_cancellation`: each violation is a pair of
    classes of paths into the same beam splitter whose beta*L differ by more
    than ``tolerance`` (fs^2)."""

    satisfied: bool
    violations: tuple[tuple[PathDispersion, PathDispersion], ...]
    tolerance: float

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
    """Validated interferometer wiring and the one pass over its splitters.

    Raises :class:`InvalidNetworkError` for cyclic graphs, dangling or
    multiply-used ports, or unknown endpoint names; its ``where`` names the
    faulty node or edge endpoint.  ``classes`` holds the result of
    :func:`_walk`: per splitter or detector id, the classes of paths that
    reach it, ``(source index, beta*L) -> [coefficient at in0, coefficient
    at in1, rank, via]`` in the order a depth-first walk over the paths
    would meet them.  A class's coefficients are the summed amplitudes of
    its paths (a detector's is at in0); ``rank`` and ``via`` are the output
    ports and the splitters of its first path.
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
        self.classes = _walk(self)

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


def _walk(net: NetworkSpec) -> dict[str, dict[tuple[int, float], list]]:
    """The one pass over the splitters in topological order, run by
    :class:`NetworkSpec` once its ports are wired; see ``NetworkSpec.classes``.

    A splitter is processed once both of its inputs have been fed, and it
    feeds each output every class it holds, its coefficient mixed by the
    unitary's row.  Each class arrives at an input once, on one edge, so no
    sum depends on the order of the pass.  A path's rank, the sequence of
    output ports it takes, orders the paths of one source as a depth-first
    walk meets them, so the smallest rank orders the classes.

    A splitter the pass never reaches has an input fed by another such
    splitter; walking back through those inputs must repeat a splitter,
    and that one lies on a cycle.
    """
    classes: dict[str, dict] = {n.id: {} for n in (*net.beam_splitters, *net.detectors)}
    waiting = {b.id: 2 for b in net.beam_splitters}  # inputs not yet fed
    ready: list[str] = []

    def feed(start: str, arriving: list) -> None:
        edge = net._edges_from[start]
        node, _, port = edge.end.partition(".")
        held = classes[node]
        for (source, beta_l), coeff, rank, via in arriving:
            entry = held.setdefault((source, beta_l + edge.beta_l), [0j, 0j, rank, via])
            entry[port == "in1"] += coeff
            entry[2:] = min(entry[2:], [rank, via])  # ranks differ, so via is never compared
        if node in waiting:
            waiting[node] -= 1
            if not waiting[node]:
                ready.append(node)

    for i, s in enumerate(net.sources):
        feed(s.id, [((i, 0.0), 1.0 + 0.0j, (), ())])
    for node in ready:  # grows while the pass runs
        u = net._bs_by_id[node].unitary
        for out in (0, 1):
            feed(
                f"{node}.out{out}",
                [
                    (key, u[out][0] * c0 + u[out][1] * c1, rank + (out,), via + (node,))
                    for key, (c0, c1, rank, via) in classes[node].items()
                ],
            )
    if len(ready) < len(net.beam_splitters):
        feeder = {e.end: e.start.partition(".")[0] for e in net.edges}
        node, seen = next(b for b in waiting if waiting[b]), []
        while node not in seen:
            seen.append(node)
            node = next(f for f in map(feeder.get, (node + ".in0", node + ".in1")) if waiting.get(f))
        where = ("beam_splitters", list(waiting).index(node))
        raise InvalidNetworkError(f"network contains a cycle through {node!r}", where)
    order = lambda item: (item[0][0], item[1][2])  # source index, then rank
    return {node: dict(sorted(held.items(), key=order)) for node, held in classes.items()}


def detector_dispersion_spread(net: NetworkSpec) -> float:
    """Largest difference of accumulated beta*L (fs^2) between two
    source -> detector paths that end at the same detector."""
    spreads = [[beta_l for _, beta_l in net.classes[d.id]] for d in net.detectors]
    return max((max(b) - min(b) for b in spreads), default=0.0)


def check_cancellation(net: NetworkSpec, tolerance: float = 1e-6) -> CancellationReport:
    """Pairwise-equality check of accumulated beta*L at every beam splitter.

    Dispersion cancels from the interference at a beam splitter iff all
    photon paths arriving there carry the same accumulated beta*L (within
    ``tolerance``, in fs^2).  Each violation pairs two (source, beta*L)
    classes of paths, in the order of ``NetworkSpec.classes``.
    """
    violations = []
    for bs in sorted(b.id for b in net.beam_splitters):
        entries = [
            PathDispersion(net.sources[source].id, bs, beta_l, via)
            for (source, beta_l), (*_, via) in net.classes[bs].items()
        ]
        violations += [
            (a, b)
            for a, b in itertools.combinations(entries, 2)
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
        for j, (st, shift) in enumerate(zip(states, shifts)):
            t = np.zeros(len(w), dtype=complex)
            for (source, beta_l), (coeff, *_) in net.classes[d.id].items():
                if source == j:
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
