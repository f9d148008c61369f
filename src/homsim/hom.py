"""Two-photon coincidence probability, delay scans, and dip metrics.

The coincidence probability between two independent heralded photons at a
50/50 beam splitter is

    P = 1/2 - 1/2 * sum_{n n'} w1_n w2_n' |O_nn'(tau)|^2,
    O_nn' = integral dw  phi1_n(w) conj(phi2_n'(w)) e^{i(-0.5*dBL*w^2 + w*tau)},

where dBL = beta1*L1 - beta2*L2 is the *difference* of the accumulated
dispersion products, passed to every function here as ``delta_beta_l``; the
states' modes carry no dispersion phase of their own.  The sign is the
network module's: a fiber puts exp(-i beta*L w^2/2) on its photon, so a
single splitter with arm products b1, b2 gives the value here at
delta_beta_l = b1 - b2.

Every probability, of a scan or of a whole visibility curve, comes from one
routine.  It first replaces the R1*R2 mode products by an orthogonal
basis of the space they span.  Stack the weighted products as the rows
c_nm[k] = sqrt(w1_n w2_m) phi1_n[k] conj(phi2_m[k]) of a matrix C and
diagonalise its (R1 R2) x (R1 R2) Gram matrix, G = C C^H = U diag(lambda) U^H
(``eigh``; an SVD of C costs ~10x more).  For two states with real modes,
which every real JSA gives, C, G and U are real, so the basis is built in
real arithmetic; complex modes give a complex basis.  The rows v_j of U^H C
satisfy, for any vector a and exactly,

    sum_nm w1_n w2_m |sum_k phi1_n[k] conj(phi2_m[k]) a_k|^2 = sum_j |sum_k v_j[k] a_k|^2,

with |v_j|^2 = lambda_j.  Only the rows with lambda_j > lambda_max * R1 R2 * eps
are kept (numpy's ``matrix_rank`` rule on G; eps is the float64 machine
epsilon).  Each dropped row moves P by at most lambda_j N dw^2 / 2
(Cauchy-Schwarz with |a_k| = dw), so the whole truncation by at most
(R1 R2)^2 eps lambda_max N dw^2 / 2: 2.4e-13 for fig2a's mixed state, whose
lambda_max N dw^2 is 8.4, while the measured change is at the 1e-15
rounding level.  When R1 R2 > N the basis comes from the other side of the
same identity: the N x N matrix C^H C = (M1^H M1) o (M2^H M2), an
elementwise product, with M1 the rows sqrt(w1_n) phi1_n and M2 the rows
sqrt(w2_m) conj(phi2_m), so C itself is never formed.  Its ``eigh``
C^H C = W diag(lambda) W^H gives the rows v_j = sqrt(lambda_j) w_j^H, which
satisfy the identity above as well, under the same rule with N in place of
R1 R2.  J, the number of kept rows, is at most min(R1 R2, N) and usually
much less: 1 for a pure state, at most R(R + 1)/2 for two copies of a state
with real modes, and 2R - 1 for the presets' mixtures, whose modes are close
to Hermite-Gauss functions (3 at R = 2, 7 at R = 4).  At R = 16 the spectrum
of G falls below the rule after J = 18 rows.

The grid w_k = w_0 + k*dw and the delays tau_t = tau_0 + t*dtau are uniform,
so the overlaps sum_k v_j[k] a_k(tau_t), a_k(tau) = e^{i(-0.5*dBL*w_k^2 + w_k
tau)} dw, of all delays form a chirp-z transform (Rabiner, Schafer & Rader,
IEEE Trans. Audio Electroacoust. 17, 86 (1969)).  Bluestein's identity
kt = (k^2 + t^2 - (t - k)^2)/2 (Bluestein, 1970) turns it into one FFT
convolution per basis row: multiply the row by the chirp e^{i alpha k^2/2},
alpha = dw*dtau, convolve with e^{-i alpha j^2/2} through an FFT of a
2-3-5-smooth length >= N + T - 1, and take |.|^2, which drops the output
chirp.  The chirps are evaluated with their phases reduced exactly mod 2 pi,
so large alpha*k^2 costs no accuracy.  The basis, the input chirp and the
kernel's FFT depend on the states and the window only, so they are built once
for every dBL that shares the window; each dBL then multiplies its own phase
into the J rows.  A scan costs O(J (N + T) log(N + T)) time and O(J (N + T))
memory, J <= min(R1 R2, N), plus O(min(R1 R2, N)^2 max(R1 R2, N)) once for
the basis, where a direct sum over the T x N phase matrix costs
O(T N (R1 + R1 R2)) and O(T N).
Results agree with that direct sum, and with one chirp-z per mode pair, to
rounding (~1e-15), not bit for bit.  Like the delay sum itself, the
transform is periodic in the delay with the alias period 2*pi/dw of the
frequency grid (12963 fs on the presets' grid): a scan window longer than
that wraps around.

A brute-force density-matrix oracle (no Schmidt structure) is provided for
cross-checking.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import FOUR_LN2
from .errors import FitFailureError, InvalidArgumentError, NoDipError
from .frozen import Frozen
from .spectral import HeraldedState, frozen_array

# Dip fit: iteration cap, and the largest scaled parameter step (B by |B|,
# V by 1, t0 and w by w) at which the fit has converged.
FIT_MAX_ITERATIONS = 200
FIT_STEP_TOLERANCE = 1e-13
# Bounds of (B, V, t0, w).
_FIT_LOWER = np.array([0.0, 0.0, -np.inf, 0.0])
_FIT_UPPER = np.array([np.inf, 1.0, np.inf, np.inf])


class ScanConfig(Frozen):
    """Uniform delay scan window (fs)."""

    tau_min: float
    tau_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.tau_min >= self.tau_max:
            raise InvalidArgumentError(
                f"tau_min must be < tau_max, got [{self.tau_min}, {self.tau_max}]"
            )
        if self.n_steps < 3:
            raise InvalidArgumentError(f"n_steps must be >= 3, got {self.n_steps}")

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_steps)


class InterferenceScan(Frozen):
    """Coincidence probability samples over delay."""

    taus: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        taus = frozen_array(self.taus, float)
        probs = frozen_array(self.probabilities, float)
        if taus.shape != probs.shape:
            raise InvalidArgumentError("taus and probabilities must match in length")
        if not np.all(np.isfinite(taus)):
            raise InvalidArgumentError("delays must be finite")
        if not np.all((probs >= -1e-9) & (probs <= 0.5 + 1e-9)):
            raise InvalidArgumentError(
                f"probabilities outside [0, 1/2] or not finite: "
                f"min={probs.min()!r} max={probs.max()!r}"
            )
        self.__dict__.update(taus=taus, probabilities=probs)


class DipMetrics(Frozen):
    """Gaussian-fit parameters of an interference dip.

    ``visibility`` is the fitted fractional dip depth, ``fwhm`` the fitted
    full width at half maximum in ps, ``baseline`` the far-from-dip level and
    ``fit_residual`` the RMS misfit.  ``raw_visibility`` (diagnostic) is
    1 - min(P)/baseline straight from the samples; ``center_fs`` the fitted
    dip position.
    """

    visibility: float
    fwhm: float
    baseline: float
    fit_residual: float
    raw_visibility: float
    center_fs: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise InvalidArgumentError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.fwhm <= 0:
            raise InvalidArgumentError(f"fwhm must be > 0, got {self.fwhm}")


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _chirp(turns: float, m: np.ndarray) -> np.ndarray:
    """e^{2 pi i turns m^2} for integers m, to rounding however large turns*m^2.

    ``turns`` mod 1 is held as a 64-bit binary fraction, so the phase mod 2 pi
    is an exact wrapping uint64 product; a whole number of turns per m^2
    changes nothing.
    """
    fraction = np.uint64(round(math.ldexp(turns % 1.0, 64)) % 2**64)
    wrapped = fraction * (m.astype(np.int64) ** 2).astype(np.uint64)
    return np.exp(2j * math.pi * math.ldexp(1.0, -64) * wrapped.astype(float))


def _product_basis(state1: HeraldedState, state2: HeraldedState) -> np.ndarray:
    """The J x N rows v_j that span the weighted mode products c_nm, kept
    where lambda_j > lambda_max * size * eps, from the smaller side of the
    Gram identity (module docstring): v_j = (U^H C)_j from the
    (R1 R2) x (R1 R2) matrix C C^H when R1 R2 <= N, else
    v_j = sqrt(lambda_j) w_j^H from the N x N matrix C^H C.  The rows are
    float64 when both states' modes are, complex128 otherwise."""
    m1 = np.sqrt(state1.weights)[:, None] * state1.modes
    m2 = np.sqrt(state2.weights)[:, None] * state2.modes.conj()
    from_products = len(m1) * len(m2) <= m1.shape[1]
    if from_products:
        products = (m1[:, None, :] * m2).reshape(-1, m1.shape[1])
        gram = products @ products.conj().T
    else:
        gram = (m1.conj().T @ m1) * (m2.conj().T @ m2)  # C^H C, without forming C
    eigenvalues, vectors = np.linalg.eigh(gram)
    keep = eigenvalues > eigenvalues[-1] * len(eigenvalues) * np.finfo(float).eps
    if from_products:
        return vectors[:, keep].conj().T @ products
    return np.sqrt(eigenvalues[keep])[:, None] * vectors[:, keep].conj().T


def _probabilities(
    state1: HeraldedState,
    state2: HeraldedState,
    delta_beta_ls,
    tau0: float,
    dtau: float,
    n_taus: int,
) -> np.ndarray:
    """P(tau0 + t*dtau) for t < n_taus, one row per entry of ``delta_beta_ls``.

    With w_k = w_0 + k*dw and alpha = dw*dtau, Bluestein's
    kt = (k^2 + t^2 - (t - k)^2)/2 gives
    O(tau_t) = e^{i(w_0 t dtau + alpha t^2/2)} sum_k b[k] e^{-i alpha (t-k)^2/2},
    b[k] = v_j[k] e^{i(-dBL w_k^2/2 + w_k tau0 + alpha k^2/2)} dw for each
    basis row v_j of ``_product_basis``: one FFT convolution per row and
    offset.  The leading factor is a unit-modulus phase shared by every row,
    so |O|^2 does not need it.  The basis, the input chirp and the kernel's
    FFT are built once; each offset only multiplies its dispersion phase into
    the rows.  The chirp goes into a new complex array, since a real basis
    cannot hold it.
    """
    state1.grid.require_same(state2.grid)
    grid = state1.grid
    n = grid.n_points
    w = grid.detunings
    turns = grid.spacing * dtau / (4.0 * math.pi)  # alpha/2 in turns
    rows = _product_basis(state1, state2)
    rows = rows * (_chirp(turns, np.arange(n)) * np.exp(1j * w * tau0) * grid.spacing)
    size = _smooth_length(n + n_taus - 1)
    kernel = np.fft.fft(_chirp(turns, np.arange(1 - n, n_taus)).conj(), size)  # every t - k
    half_w2 = -0.5 * w**2
    probs = np.empty((len(delta_beta_ls), n_taus))
    # One offset at a time, so the working set stays J x size whatever the
    # number of offsets.
    for out, delta_beta_l in zip(probs, delta_beta_ls):
        spectra = np.fft.fft(rows * np.exp(1j * delta_beta_l * half_w2), size)
        spectra *= kernel
        overlaps = np.fft.ifft(spectra)[:, n - 1 : n - 1 + n_taus]
        np.sum(overlaps.real**2 + overlaps.imag**2, axis=0, out=out)
    probs *= -0.5
    probs += 0.5
    return probs


def coincidence_probability_oracle(
    state1: HeraldedState,
    state2: HeraldedState,
    delta_beta_l: float,
    tau: float,
) -> float:
    """Brute-force check: full density matrices and a direct double quadrature.

    Builds rho_j(w, w') = sum_n w_n phi_n(w) conj(phi_n(w')) on the grid and
    evaluates
    P = 1/2 - 1/2 * sum_{k l} rho1[k,l] rho2[l,k]
        e^{-i 0.5 dBL (w_k^2 - w_l^2)} e^{i (w_k - w_l) tau} * spacing^2
    without using any Schmidt structure.
    """
    state1.grid.require_same(state2.grid)
    grid = state1.grid
    w = grid.detunings
    m1 = state1.modes
    m2 = state2.modes
    rho1 = (m1.T * state1.weights) @ m1.conj()
    rho2 = (m2.T * state2.weights) @ m2.conj()
    p = np.exp(1j * (w * tau - 0.5 * delta_beta_l * w**2))
    kernel = rho1 * np.outer(p, p.conj())
    total = np.sum(kernel * rho2.T) * grid.spacing**2
    return 0.5 - 0.5 * float(total.real)


def scan(
    state1: HeraldedState,
    state2: HeraldedState,
    delta_beta_l: float,
    cfg: ScanConfig,
) -> InterferenceScan:
    """Coincidence probability at every delay of ``cfg``.

    The one-offset call of the routine behind every probability (see the
    module docstring): the J <= min(R1 R2, N) rows of the mode-product
    basis, from an ``eigh`` of the smaller of its (R1 R2)^2 and N^2 Gram
    matrices, each give one chirp-z transform
    of O((N + T) log(N + T)).  Memory grows as J*(N + T), not T*N.  The
    result agrees with a direct sum over the T x N phase matrix, and with one
    chirp-z per mode pair, to rounding (about 1e-15), not bit for bit.  Like
    the delay sum itself, it is periodic in the delay with the alias period
    2*pi/spacing of the frequency grid.
    """
    taus = cfg.taus()
    dtau = (cfg.tau_max - cfg.tau_min) / (cfg.n_steps - 1)
    probs = _probabilities(state1, state2, [delta_beta_l], cfg.tau_min, dtau, cfg.n_steps)
    return InterferenceScan(taus=taus, probabilities=probs[0])


def _dip_residuals(taus, probs, p):
    """u = (tau - t0)/w, the dip shape g = e^{-4 ln2 u^2} and the residuals
    B (1 - V g) - P at the parameters p = (B, V, t0, w)."""
    u = taus - p[2]
    u /= p[3]
    g = np.exp(-FOUR_LN2 * u * u)
    r = g * (-p[0] * p[1])
    r += p[0] - probs
    return u, g, r


def _levenberg_marquardt(taus, probs, p, guess) -> tuple[np.ndarray, np.ndarray]:
    """Bounded Levenberg-Marquardt on the scaled parameters (Madsen, Nielsen
    & Tingleff, *Methods for non-linear least squares problems*, 2004,
    alg. 3.16); returns the fitted parameters and their residuals.

    A parameter on a bound whose gradient points outward is held; steps are
    clipped to the bounds.  Each iteration does its work once: the Gaussian
    of a trial point gives its residuals and, once the point is accepted,
    its Jacobian, held as a contiguous (4, T) array of the scaled columns;
    a rejected step only re-solves the cached 4 x 4 normal equations with
    the larger damping.  The damping starts at tau = 1e-6 times the largest
    diagonal entry of J^T J, the value Madsen et al. (sec. 3.2) recommend
    when the start is close to the optimum, as ``_initial_guess`` is.
    """
    u, g, r = _dip_residuals(taus, probs, p)
    jac = np.empty((4, len(taus)))
    mu, nu = None, 2.0
    linearised = False
    for _ in range(FIT_MAX_ITERATIONS):
        if not linearised:
            baseline, visibility, _, width = p
            scale = np.array([abs(baseline), 1.0, width, width])
            # Rows: the derivatives of B (1 - V g) by B, V, t0 and w, times scale.
            np.multiply(g, -visibility, out=jac[0])
            jac[0] += 1.0
            jac[0] *= abs(baseline)
            np.multiply(g, -baseline, out=jac[1])
            np.multiply(u, 2.0 * FOUR_LN2 * visibility, out=jac[2])
            jac[2] *= jac[1]
            np.multiply(jac[2], u, out=jac[3])
            grad = jac @ r
            gram = jac @ jac.T
            free = ~(((p <= _FIT_LOWER) & (grad > 0)) | ((p >= _FIT_UPPER) & (grad < 0)))
            normal = gram[free][:, free]
            if mu is None:
                mu = 1e-6 * np.max(np.diag(gram))
            linearised = True
        step = np.zeros(4)
        step[free] = np.linalg.solve(normal + mu * np.eye(len(normal)), -grad[free])
        trial = np.clip(p + step * scale, _FIT_LOWER, _FIT_UPPER)
        step = (trial - p) / scale
        if np.max(np.abs(step)) <= FIT_STEP_TOLERANCE:
            return p, r
        u_trial, g_trial, r_trial = _dip_residuals(taus, probs, trial)
        predicted = -grad @ step - 0.5 * step @ gram @ step
        # The gain (r - r_t).(r + r_t)/2 = -d_r.(r + d_r/2), with d_r = r_t - r
        # taken from the step itself (g_t - g through expm1).  Subtracting the
        # two rounded costs, or the two rounded residuals, loses a small gain
        # to rounding and stalls the fit short of the optimum.
        d_b, d_v, d_t0, d_w = trial - p
        d_u = (d_t0 + u * d_w) / -trial[3]
        d_g = g * np.expm1(-FOUR_LN2 * d_u * (2.0 * u + d_u))
        d_r = d_b - trial[0] * trial[1] * d_g - (d_b * trial[1] + p[0] * d_v) * g
        gained = -(d_r @ (r + 0.5 * d_r))
        if predicted > 0 and gained > 0:
            p, r, u, g = trial, r_trial, u_trial, g_trial
            linearised = False
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gained / predicted - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    raise FitFailureError(
        f"dip fit did not converge in {FIT_MAX_ITERATIONS} iterations", guess
    )


def _initial_guess(taus: np.ndarray, probs: np.ndarray) -> tuple[float, float, float, float]:
    n = len(taus)
    edge = max(1, round(0.05 * n))
    baseline = float(np.mean(np.concatenate([probs[:edge], probs[-edge:]])))
    p_min = float(probs.min())
    i_min = int(np.argmin(probs))
    if baseline <= 0:
        raise NoDipError("scan baseline is not positive")
    visibility = 1.0 - p_min / baseline
    half_level = baseline - (baseline - p_min) / 2.0
    # The walk from i_min stops at the first sample not below half depth; a
    # NaN stops it too.
    stop = ~(probs < half_level)

    def crossing(direction: int) -> float:
        side = stop[i_min + 1 :] if direction > 0 else stop[:i_min][::-1]
        i = i_min + direction * (int(side.argmax()) if side.any() else len(side))
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


def fit_dip(scan_result: InterferenceScan) -> DipMetrics:
    """Least-squares Gaussian dip fit P(tau) = B (1 - V e^{-4 ln2 (tau-t0)^2/w^2}).

    Initialization: baseline from the outer 10% of samples, visibility from
    the sample minimum, width from the half-depth crossings.  The fit is a
    bounded Levenberg-Marquardt with the analytic Jacobian (B >= 0,
    0 <= V <= 1, w >= 0) that does each iteration's work once: one Gaussian
    per trial point, reused for the Jacobian once the point is accepted, and
    only a re-solve of the cached 4 x 4 normal equations after a rejected
    step.  Its damping starts at tau = 1e-6 of the largest diagonal entry of
    J^T J (Madsen, Nielsen & Tingleff 2004, sec. 3.2, for a start close to
    the optimum).  It stops when no scaled parameter step exceeds
    ``FIT_STEP_TOLERANCE``; ``fit_residual`` is the RMS of the residuals at
    the fitted point.  Raises :class:`NoDipError` when the scan is flat
    (V < 0.001) and :class:`FitFailureError` (carrying the initial guess)
    when ``FIT_MAX_ITERATIONS`` pass without convergence.
    """
    taus = scan_result.taus
    probs = scan_result.probabilities
    guess = _initial_guess(taus, probs)
    if guess[1] < 1e-3:
        raise NoDipError(f"no dip found (initial visibility {guess[1]:.2e})")
    p0 = np.array(
        [max(guess[0], 1e-12), min(max(guess[1], 0.0), 1.0), guess[2], max(guess[3], 1e-9)]
    )
    params, r = _levenberg_marquardt(taus, probs, p0, guess)
    baseline, visibility, center, width = (float(v) for v in params)
    residual = math.sqrt(r @ r / len(r))
    raw_visibility = float(1.0 - probs.min() / baseline)
    return DipMetrics(
        visibility=visibility,
        fwhm=width / 1000.0,
        baseline=baseline,
        fit_residual=residual,
        raw_visibility=raw_visibility,
        center_fs=center,
    )


def default_scan_config(delta_beta_l: float) -> ScanConfig:
    """Scan window wide enough for the dip at the given dispersion mismatch:
    +-3 ps matched, +-6 ps otherwise, 241 samples."""
    half = 3000.0 if delta_beta_l == 0.0 else 6000.0
    return ScanConfig(tau_min=-half, tau_max=half, n_steps=241)


def visibility_curve(
    state: HeraldedState,
    beta: float,
    length_1: float,
    delta_l_list,
    scan_config: ScanConfig | None = None,
) -> list[tuple[float, float, float]]:
    """(delta_L, visibility, fwhm_ps) of the fitted dip per length offset, in
    the order given.

    Both interfering photons are copies of ``state`` (the heralded mixture or
    the postulated pure state); photon 1 passes length_1 of fiber and photon
    2 passes length_1 - delta_L, so only beta*delta_L enters the
    interference.  Without ``scan_config`` each offset gets its default scan
    window.  The offsets that share a window are scanned in one call of the
    rank-reduced chirp-z (see the module docstring): the mode-product basis,
    the chirp and the kernel FFT are built once per window, so a curve costs
    one basis of the state plus O(J (N + T) log(N + T)) per offset,
    J <= min(R^2, N): the basis comes from the R^2 x R^2 Gram matrix of the
    mode products when R^2 <= N, else from the N x N one.  Each dip is then
    fitted as ``fit_dip(scan(...))`` would fit it.
    """
    offsets = [float(delta_l) for delta_l in delta_l_list]
    for delta_l in offsets:
        if length_1 < delta_l:
            raise InvalidArgumentError(
                f"delta_L {delta_l} mm exceeds the first fiber length {length_1} mm"
            )
    # Offsets grouped by window: (window, its offsets' indices) by its values.
    windows: dict[tuple, tuple[ScanConfig, list[int]]] = {}
    for i, delta_l in enumerate(offsets):
        cfg = scan_config if scan_config is not None else default_scan_config(beta * delta_l)
        windows.setdefault((cfg.tau_min, cfg.tau_max, cfg.n_steps), (cfg, []))[1].append(i)
    results: list = [None] * len(offsets)
    for cfg, indices in windows.values():
        taus = cfg.taus()
        dtau = (cfg.tau_max - cfg.tau_min) / (cfg.n_steps - 1)
        curve = _probabilities(
            state, state, [beta * offsets[i] for i in indices], cfg.tau_min, dtau, cfg.n_steps
        )
        for i, probs in zip(indices, curve):
            metrics = fit_dip(InterferenceScan(taus=taus, probabilities=probs))
            results[i] = (offsets[i], metrics.visibility, metrics.fwhm)
    return results
