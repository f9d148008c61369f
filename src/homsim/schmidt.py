"""Schmidt decomposition of the JSA by adaptive randomized SVD, and the
heralded states built from it.

The discretized JSA matrix A, weighted by the quadrature cell, has Frobenius
norm 1 (``JointSpectralAmplitude`` sets it once, when it is built, and this
module takes it as given); its singular value decomposition is the matrix
analogue of the continuous Schmidt decomposition.  Squared singular values are the Schmidt
eigenvalues, and the left/right singular vectors (rescaled by the grid
spacings) are the signal/idler mode functions.

Only the few leading modes are ever kept, so the decomposition uses the
randomized range finder of Halko, Martinsson & Tropp (SIAM Rev. 53, 217,
2011; arXiv:0909.4061) instead of a full SVD:

* A Gaussian test block of k columns is multiplied by A; one power
  iteration, with re-orthonormalisation by QR after each product, gives an
  orthonormal basis Q of the dominant range.  The SVD of the small k x N projection
  Q^H A then yields the leading singular triplets.
* The block starts at 16 columns and doubles, capped at min(N_s, N_i),
  until the truncation rule is decided within the first k - 8 eigenvalues
  (the last 8 columns are oversampling and are never trusted).  A
  full-width block uses the QR basis of A itself and is exact, so rank = N
  and mass = 1 keep every mode.
* The arithmetic runs in A's dtype: real for a float64 A, which every pump,
  phase-matching and filter model produces, and complex only for a
  complex128 A; the modes come out in the same dtype.  A itself is never
  copied or rescaled: the quadrature weight sqrt(ds*di) scales only the
  singular values.
* The discarded mass is 1 - sum(kept eigenvalues), exact to the rounding of
  A's unit norm.
* A is the right-hand operand of every BLAS product: A B is formed as
  (B^T A^T)^T.  Numpy hands a row-major product to OpenBLAS as its
  column-major transpose, and with A on the left OpenBLAS packs more of
  the N x N matrix into its work buffers: in a fresh process at N = 1024, one
  product with a 24-column block raised the RSS peak by 3.2 MB with A on the
  left and by 1.3 MB with A on the right (numpy 2.4.6, OpenBLAS 0.3.31
  DYNAMIC_ARCH, SkylakeX kernels, 2 threads; measured, not traced into
  OpenBLAS).  The two forms give the same bits at the presets' grid sizes;
  at some other sizes the kernels split the sum differently and the
  products differ at rounding level.

The test block is a function of its shape alone, so the result is a
deterministic function of the JSA and re-running a manifest reproduces its
outputs byte for byte.  The block comes from a counter-based generator
(splitmix64 and Box-Muller, :func:`_test_block`) written out in numpy's
wrapping uint64 arithmetic, not from ``numpy.random``: numpy promises no
stream of its ``Generator`` methods across versions, so those draws, and
with them the last bits of the modes, could change with the numpy version.
A cold run also skips importing ``numpy.random``.

Singular vectors are defined only up to a phase per signal/idler pair, so
:func:`fix_gauge` applies a convention that rounding cannot change: each
signal mode is rotated so that its *last* sample whose magnitude lies within
1e-9 (relative) of the maximum is real positive, and the paired idler mode
absorbs the opposite rotation.  Modes of a mirror-symmetric JSA have exact
parity, |phi(w)| = |phi(-w)|, so a plain argmax would pick a side on
rounding noise and flip odd modes with N, the BLAS build or the algorithm;
the tolerance makes both mirror samples count as the maximum and always
selects the positive-detuning one.  Ordering ties between numerically equal
eigenvalues are broken by the first moment of the signal-mode intensity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constants import DEFAULT_MASS
from .errors import DegenerateStateError, InvalidArgumentError
from .frozen import Frozen
from .source import JointSpectralAmplitude
from .spectral import FrequencyGrid, HeraldedState, frozen_array

# A discarded eigenvalue mass above this sets ``truncation_warning``.
TRUNCATION_WARNING_MASS = 0.05

# Eigenvalues within this relative distance are treated as degenerate when
# applying the deterministic tie-break.
_TIE_RTOL = 1e-12

# Randomized SVD: first test-block width, oversampling columns that never
# decide a truncation, and the fixed generator seed (same JSA, same modes).
_INITIAL_BLOCK = 16
_OVERSAMPLING = 8
_SEED = 20110909

# Samples within this relative distance of a mode's largest magnitude count
# as its maximum when placing the phase pivot (mirror samples of a mode with
# exact parity differ only by rounding, ~1e-14).
_PIVOT_RTOL = 1e-9


class SchmidtDecomposition(Frozen):
    """Truncated Schmidt spectrum with orthonormal signal/idler modes.

    Row n of the read-only matrices ``signal_modes`` (R, N_s) and
    ``idler_modes`` (R, N_i), float64 for real modes and complex128 only for
    complex ones, is the mode pair of ``eigenvalues[n]``, sampled
    on ``grid_signal`` and ``grid_idler``.  ``eigenvalues`` are renormalized
    to sum to 1 after truncation; ``tail_mass`` records the discarded
    eigenvalue mass of the full spectrum and ``truncation_warning`` flags a
    discarded mass above ``TRUNCATION_WARNING_MASS`` (5%).
    """

    eigenvalues: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray
    grid_signal: FrequencyGrid
    grid_idler: FrequencyGrid
    tail_mass: float = 0.0
    truncation_warning: bool = False

    def __post_init__(self) -> None:
        fields = self.__dict__
        ev = fields["eigenvalues"] = frozen_array(self.eigenvalues, float)
        for name, grid in (("signal_modes", self.grid_signal), ("idler_modes", self.grid_idler)):
            modes = frozen_array(fields[name])
            if modes.shape != (len(ev), grid.n_points):
                raise InvalidArgumentError(
                    f"{name} shape {modes.shape} does not match {len(ev)} eigenvalues "
                    f"on a grid of {grid.n_points} points"
                )
            fields[name] = modes

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)


def schmidt_decompose(
    jsa: JointSpectralAmplitude,
    rank: int | None = None,
    threshold: float | None = None,
    mass: float | None = None,
) -> SchmidtDecomposition:
    """Schmidt decomposition with one of three truncation rules.

    Exactly one of ``rank`` (keep the top r), ``threshold`` (keep eigenvalues
    >= epsilon) or ``mass`` (keep until the cumulative eigenvalue mass reaches
    the target) may be given; the default is mass = 0.999.  The leading
    modes come from an adaptive randomized SVD (see the module docstring),
    in the JSA's dtype.  The JSA's norm is taken as the 1 it was built
    with, so the cumulative mass is a plain running sum of the eigenvalues
    and ``tail_mass`` is 1 minus the kept ones.
    """
    chosen = [name for name, v in (("rank", rank), ("threshold", threshold), ("mass", mass)) if v is not None]
    if len(chosen) > 1:
        raise InvalidArgumentError(f"conflicting truncation rules: {chosen}")
    if rank is not None:
        # The loader's rule for truncation.value: an integral number >= 1.
        if isinstance(rank, bool) or not (rank >= 1 and rank % 1 == 0):
            raise InvalidArgumentError(f"truncation rank must be an integer >= 1, got {rank!r}")
        rank = int(rank)
    if rank is None and threshold is None:
        mass = DEFAULT_MASS if mass is None else float(mass)
        if not 0.0 < mass <= 1.0:
            raise InvalidArgumentError(f"mass target must be in (0, 1], got {mass}")

    ds = jsa.grid_signal.spacing
    di = jsa.grid_idler.spacing
    amplitudes = jsa.amplitudes
    # The weighted matrix A*sqrt(ds*di) has the singular vectors of A and the
    # eigenvalues (s*sqrt(ds*di))^2, which sum to A's unit norm.
    cell = ds * di

    full = min(amplitudes.shape)
    k = min(_INITIAL_BLOCK, full)
    while True:
        exact = k == full
        u, s, vh = _truncated_svd(amplitudes, k, exact)
        lam = s**2 * cell
        keep = _kept_count(lam, exact, rank, threshold, mass)
        if keep is not None:
            break
        k = min(2 * k, full)

    kept = float(lam[:keep].sum())
    tail = max(0.0, 1.0 - kept)
    eigenvalues = lam[:keep] / kept
    u, vh = fix_gauge(u[:, :keep], vh[:keep])

    signal = (u / math.sqrt(ds)).T
    idler = vh / math.sqrt(di)
    order = _tie_broken_order(eigenvalues, signal, jsa.grid_signal)

    return SchmidtDecomposition(
        eigenvalues=eigenvalues[order],
        signal_modes=signal[order],
        idler_modes=idler[order],
        grid_signal=jsa.grid_signal,
        grid_idler=jsa.grid_idler,
        tail_mass=tail,
        truncation_warning=tail > TRUNCATION_WARNING_MASS,
    )


def _truncated_svd(
    a: np.ndarray, k: int, exact: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading k singular triplets of ``a`` from the SVD of Q^H a.

    Q is the QR basis of ``a`` itself when ``exact`` (k = min(a.shape), so
    Q spans the whole range), and otherwise the range finder's basis: the
    Gaussian block of :func:`_test_block` with one power iteration,
    re-orthonormalised by QR after every product.  a^H Q is formed as
    (Q^H a)^H, so that ``a`` itself is never conjugated or copied, and
    ``a`` is the right-hand operand of every product: a B is formed as
    (B^T a^T)^T, for a lower RSS peak (see the module docstring).
    """
    if exact:
        q = np.linalg.qr(a)[0]
    else:
        q = np.linalg.qr((_test_block(a.shape[1], k).T @ a.T).T)[0]
        q = np.linalg.qr((q.conj().T @ a).conj().T)[0]
        q = np.linalg.qr((q.T @ a.T).T)[0]
    ub, s, vh = np.linalg.svd(q.conj().T @ a, full_matrices=False)
    return q @ ub, s, vh


@functools.lru_cache(maxsize=8)
def _test_block(n: int, k: int) -> np.ndarray:
    """The n x k Gaussian test block: standard normals from a counter-based
    generator, a function of (n, k) alone, so it is computed once per shape
    and returned read-only.

    Uniform i = 0, 1, ... is the i-th output of splitmix64 seeded with
    ``_SEED`` (Steele, Lea & Flood, OOPSLA 2014, with the finaliser of
    Vigna's reference code), computed from i alone in wrapping uint64
    arithmetic: z = _SEED + (i + 1) * 0x9E3779B97F4A7C15, three
    xor-shift/multiply rounds, and u_i = ((z >> 11) + 1) / 2^53 in (0, 1].
    Each pair (u_2j, u_2j+1) gives the normals
    sqrt(-2 ln u_2j) (cos, sin)(2 pi u_2j+1) of the Box-Muller transform,
    which fill the block row by row.
    """
    m = n * k
    z = np.arange(1, m + (m & 1) + 1, dtype=np.uint64)  # an even count
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(_SEED)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = ((z >> np.uint64(11)) + np.uint64(1)).astype(float)
    u *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    pairs = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    block = pairs.reshape(-1)[:m].reshape(n, k)
    block.setflags(write=False)
    return block


def _kept_count(
    lam: np.ndarray,
    exact: bool,
    rank: int | None,
    threshold: float | None,
    mass: float | None,
) -> int | None:
    """Modes the truncation rule keeps, or None while it is undecided.

    Only the first k - oversampling eigenvalues of a randomized block are
    trusted; an exact block trusts all of them and always decides.
    """
    trusted = len(lam) if exact else len(lam) - _OVERSAMPLING
    if rank is not None:
        return min(rank, trusted) if exact or rank <= trusted else None
    if threshold is not None:
        keep = int(np.count_nonzero(lam[:trusted] >= threshold))
        if keep < 1:
            raise InvalidArgumentError(
                f"eigenvalue threshold {threshold} removes every mode"
            )
        return keep if exact or keep < trusted else None
    cum = np.cumsum(lam[:trusted])
    keep = int(np.searchsorted(cum, mass)) + 1
    return min(keep, trusted) if exact or keep <= trusted else None


def fix_gauge(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the phase convention to singular-vector pairs.

    ``u`` holds signal modes as columns and ``vh`` the paired idler modes as
    rows (the layout of an SVD).  Column n of ``u`` is rotated so that its
    last sample within ``_PIVOT_RTOL`` of its largest magnitude is real
    positive; row n of ``vh`` takes the conjugate rotation, so every product
    u[:, n] vh[n] is unchanged.  The result does not depend on the phase
    each pair came in with, nor on rounding between mirror samples.
    """
    mag = np.abs(u)
    near_max = mag >= (1.0 - _PIVOT_RTOL) * mag.max(axis=0)
    pivot = u.shape[0] - 1 - np.argmax(near_max[::-1], axis=0)
    p = u[pivot, np.arange(u.shape[1])]
    phase = p / np.abs(p)
    return u * phase.conj(), vh * phase[:, None]


def _tie_broken_order(
    eigenvalues: np.ndarray, modes: np.ndarray, grid: FrequencyGrid
) -> list[int]:
    """Descending eigenvalue order; ties resolved by ascending first moment
    of the mode intensity (the rows of ``modes``; deterministic under SVD
    degeneracy)."""
    intensity = np.abs(modes) ** 2 * grid.spacing
    first_moment = [float(np.sum(grid.detunings * row)) for row in intensity]
    order = list(range(len(eigenvalues)))
    i = 0
    while i < len(order):
        j = i + 1
        while (
            j < len(order)
            and abs(eigenvalues[order[j]] - eigenvalues[order[i]])
            <= _TIE_RTOL * max(eigenvalues[order[i]], 1e-300)
        ):
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda k: first_moment[k])
        i = j
    return order


def herald(decomp: SchmidtDecomposition) -> HeraldedState:
    """Trace out the idler: weights are the eigenvalues over the signal modes."""
    return HeraldedState(decomp.eigenvalues, decomp.signal_modes, decomp.grid_signal)


def purity(state: HeraldedState) -> float:
    """Tr(rho^2) = sum of squared weights."""
    return float(np.sum(state.weights**2))


def schmidt_number(decomp: SchmidtDecomposition) -> float:
    """Effective mode count 1 / sum(lambda_n^2); 1 for a separable JSA."""
    return 1.0 / float(np.sum(decomp.eigenvalues**2))


def postulate_pure_state(decomp: SchmidtDecomposition) -> HeraldedState:
    """Eigenvalue-weighted coherent sum of the signal modes, renormalized.

    Produces the single-mode pure state with (approximately) the same
    spectrum as the heralded mixture; weights collapse to [1].
    """
    grid = decomp.grid_signal
    # Summed from zero, one row after another in eigenvalue order: a
    # reduction over axis 0 of a C-ordered matrix adds whole rows in sequence.
    terms = decomp.eigenvalues[:, None] * decomp.signal_modes
    summed = np.sum(terms, axis=0, initial=0.0)
    norm = math.sqrt(float(np.sum(np.abs(summed) ** 2)) * grid.spacing)
    if norm < 1e-12:
        raise DegenerateStateError(
            "eigenvalue-weighted mode sum cancels to zero norm"
        )
    return HeraldedState(np.array([1.0]), (summed / norm)[None], grid)
