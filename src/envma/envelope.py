"""Slope-box concave envelope of the projected-determinant-root operator.

Let F(M) = det^{1/2n}(proj M), defined where proj(M) > 0, and fix a spectral
box [theta, 1/theta].  The extension computed here is

    Ftilde(M) = inf { tr(proj(N) M)-type pairings + c }

over affine majorants of F on the box whose slope matrix also has spectrum in
the box.  Both F and the constraint set depend on a matrix only through the
Hermitian eigenvalues mu of extract(proj(M)), and the optimizer slope may be
taken diagonal in that eigenbasis with descending slope eigenvalues paired
against ascending mu (rearrangement).  The working form is therefore

    Ftilde(M) = min_{p in [theta, 1/theta]^n}  sum_i p_i mu_i + g(p),
    g(p)      = max_{x in [theta, 1/theta]^n}  (prod_i x_i)^{1/n} - sum_i p_i x_i,

with p descending against mu ascending.  Ftilde is finite, concave and
uniformly elliptic on all of Sym(2n), and the minimizing (p, g(p)) doubles as
a Bellman policy for the PDE solver.

Evaluation is exact, not iterative.  The inner maximizer has the closed form
x_i = clamp(t / (n p_i)) with t = (prod x_i)^{1/n}, a monotone scalar fixed
point solved per clamp regime.  The outer minimum is found by enumerating the
finitely many rail/tangency structures of the saddle point: coordinates with
small mu rail at slope 1/theta, large mu at slope theta, and the middle block
is tangent (x_i = mu_i, p_i = t/(n mu_i)).  Each structure reduces to the same
scalar fixed point; every consistent structure is a saddle, so the minimum
over them is the envelope value.  A grid-discretized evaluator with no such
reduction is provided as an independent oracle.

All evaluation goes through `envelope_batch`, which certifies a whole stack
of matrices at once: one LAPACK `eigh` on the stacked Hermitian parts, then
one pass over all matrices per saddle structure.  `envelope_value`,
`envelope_eval` and `_saddle` are its one-matrix forms, and the randomized
property checks stack every sample's matrices into one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import NoConvergence, NotPSD, ResolutionTooCoarse

_KKT_TOL = 1e-11
# relative slack of the saddle-structure tests
_REL_TOL = 1e-12
# eigenvalues closer than this times the largest |eigenvalue| count as equal
_RUN_TOL = 1e-13


@dataclass(frozen=True)
class ThetaBox:
    """The spectral box [theta, 1/theta] in complex dimension n.

    theta is normalized to min(theta, 1/theta) on construction so the box is
    always nonempty; theta = 1 collapses it to the single point {I}.
    """

    theta: float
    n: int

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        t = float(self.theta)
        if t <= 0.0 or not np.isfinite(t):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", min(t, 1.0 / t))

    @property
    def hi(self) -> float:
        return 1.0 / self.theta


@dataclass(frozen=True)
class EnvelopeCertificate:
    """Envelope value together with the optimal affine majorant.

    The affine function X -> tr(slope_matrix @ X) + intercept majorizes F on
    the box and touches the envelope at the evaluated matrix, so

        value == tr(slope_matrix @ M) + intercept        (exact), and
        tr(slope_matrix @ X) + intercept >= F(X)         for all X in the box.

    slope_eigs are the slope eigenvalues p in [theta, 1/theta], descending,
    paired against mu ascending; slope_matrix is the corresponding pairing
    matrix built in the eigenbasis of proj(M).  Because the trace of an
    embedded Hermitian matrix counts each eigenvalue twice, slope_matrix is
    half the embedding of diag(p): its doubled matrix is the box member.
    inner_max is the box point where the intercept constraint is tight.
    """

    value: float
    slope_eigs: np.ndarray
    intercept: float
    slope_matrix: np.ndarray
    mu: np.ndarray
    inner_max: np.ndarray


def _geomean(vals) -> float:
    return mc.geometric_mean(vals)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def conjugate_maximizer(p, box: ThetaBox) -> tuple[float, np.ndarray]:
    """Minimal feasible intercept g(p) and the box point attaining it.

    g(p) = max over x in the box of (prod x)^{1/n} - p.x, the smallest c for
    which slope p with intercept c majorizes F.  The concave maximand is
    1-homogeneous minus linear, so the maximizer satisfies
    x_i = clamp(t/(n p_i)) with t = (prod x)^{1/n}; the scalar fixed point is
    solved exactly per clamp regime.
    """
    p = np.asarray(p, dtype=float)
    n = box.n
    th, hi = box.theta, box.hi
    if p.shape != (n,):
        raise ValueError(f"expected a slope vector of length {n}, got shape {p.shape}")
    tol = 1e-12 * hi
    if np.any(p < th - tol) or np.any(p > hi + tol):
        raise ValueError(f"slope {p} outside the box [{th:g}, {hi:g}]")
    p = np.clip(p, th, hi)
    if hi - th <= tol:
        # theta = 1: the box is the single point x = 1
        x = np.full(n, th)
        return th - float(p @ x), x

    brk = sorted({th, hi, *(float(b) for b in np.concatenate([n * p * th, n * p * hi])
                            if th <= b <= hi)})
    sol_t = None
    for a, b in zip(brk[:-1], brk[1:]):
        mid = 0.5 * (a + b)
        lo_set = mid <= n * p * th
        hi_set = mid >= n * p * hi
        free = ~lo_set & ~hi_set
        f = int(np.sum(free))
        logC = (np.log(th) * np.sum(lo_set) + np.log(hi) * np.sum(hi_set)
                - np.sum(np.log(n * p[free])))
        if f == n:
            if abs(logC) > 1e-12:
                continue
            t = mid
        else:
            t = float(np.exp(logC / (n - f)))
            if not (a * (1.0 - _REL_TOL) <= t <= b * (1.0 + _REL_TOL)):
                continue
        sol_t = _clamp(t, a, b)
        break
    if sol_t is None:
        # the monotone fixed point always exists; not reaching it is a bug
        raise NoConvergence(f"no conjugate fixed point for p={p}, theta={th}")
    x = np.clip(sol_t / (n * p), th, hi)
    t = _geomean(x)
    g = t - float(p @ x)
    # exact stationarity/rail check; concavity makes it sufficient
    grad = t / (n * x) - p
    at_lo = x <= th * (1.0 + _REL_TOL)
    at_hi = x >= hi * (1.0 - _REL_TOL)
    kkt = max(
        float(np.max(np.abs(grad[~at_lo & ~at_hi]), initial=0.0)),
        float(np.max(grad[at_lo], initial=0.0)),
        float(np.max(-grad[at_hi], initial=0.0)),
    )
    if kkt > _KKT_TOL * max(1.0, hi):
        raise NoConvergence(f"conjugate KKT residual {kkt:g} for p={p}")
    return g, x


def conjugate_intercept(p, box: ThetaBox) -> float:
    """g(p): the minimal intercept making slope p majorize F on the box."""
    return conjugate_maximizer(p, box)[0]


def _rail_states(box: ThetaBox, k_lo: int, k_hi: int):
    """The clamp regimes of one saddle structure (k_lo, k_hi).

    Yields (lo_t, hi_t, pre, suf, e): the t-interval of the regime, the
    log-constants the railed prefix and suffix add to log C, and the number
    e of railed coordinates whose inner value is free (proportional to t).
    Regimes with an empty t-interval are skipped.
    """
    n = box.n
    th, hi = box.theta, box.hi
    n_pre, n_suf = k_lo, n - k_hi
    for b_state in ("lo", "free", "hi"):
        for t_state in ("lo", "free", "hi"):
            lo_t, hi_t = th, hi
            if b_state == "lo":
                hi_t = min(hi_t, n)
            elif b_state == "free":
                lo_t, hi_t = max(lo_t, n), min(hi_t, n / th**2)
            else:
                lo_t = max(lo_t, n / th**2)
            if t_state == "lo":
                hi_t = min(hi_t, n * th**2)
            elif t_state == "free":
                lo_t, hi_t = max(lo_t, n * th**2), min(hi_t, n)
            else:
                lo_t = max(lo_t, n)
            if lo_t > hi_t * (1.0 + _REL_TOL):
                continue
            e = 0
            if b_state == "lo":
                pre = n_pre * np.log(th)
            elif b_state == "hi":
                pre = n_pre * np.log(hi)
            else:
                pre = n_pre * np.log(th / n)
                e += n_pre
            if t_state == "lo":
                suf = n_suf * np.log(th)
            elif t_state == "hi":
                suf = n_suf * np.log(hi)
            else:
                suf = -(n_suf * np.log(n * th))
                e += n_suf
            yield lo_t, hi_t, pre, suf, e


def _saddle_batch(m: np.ndarray, box: ThetaBox):
    """Exact envelope evaluation in eigenvalue coordinates for a stack.

    m has shape (N, n), each row ascending.  Returns (value, p, x, t) as
    arrays of shapes (N,), (N, n), (N, n), (N,): slope eigenvalues p
    (descending, paired with m), the inner maximizer x, and
    t = (prod x)^{1/n}.

    Enumerates saddle structures (k_lo, k_hi): coordinates below k_lo rail at
    slope 1/theta with inner value x_B = clamp(t*theta/n), coordinates from
    k_hi on rail at slope theta with x_T = clamp(t/(n*theta)), and the middle
    block is tangent (x_i = mu_i, p_i = t/(n*mu_i)).  Consistency of
    t = (prod x)^{1/n} is a scalar equation solved per clamp regime; rail
    optimality and slope-ordering conditions select the valid structures.
    Each structure is one pass over all N rows; a row keeps the first
    structure (in enumeration order) whose value beats its best by 1e-15.
    """
    N, n = m.shape
    th, hi = box.theta, box.hi
    # t, slopes and inner values are positive and compared with relative
    # slack, so a tiny theta (t-regimes as narrow as n*theta^2) is resolved;
    # rail optimality compares eigenvalues with inner values, with slack
    # scaled by both, so huge-norm inputs do not wash out the box conditions
    lo_ok, hi_ok = 1.0 - _REL_TOL, 1.0 + _REL_TOL
    m_abs = np.max(np.abs(m), axis=1, initial=0.0)
    best_val = np.full(N, np.inf)
    best_t = np.zeros(N)
    best_lo = np.zeros(N, dtype=np.int64)
    best_hi = np.zeros(N, dtype=np.int64)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_m = np.log(m)
        for k_lo in range(n + 1):
            for k_hi in range(k_lo, n + 1):
                n_pre, n_suf = k_lo, n - k_hi
                ok_mid = np.ones(N, dtype=bool)
                log_mid = np.zeros(N)
                if k_hi > k_lo:
                    ok_mid = (m[:, k_lo] > th * lo_ok) & (m[:, k_hi - 1] <= hi * hi_ok)
                    if not ok_mid.any():
                        continue
                    log_mid = np.sum(log_m[:, k_lo:k_hi], axis=1)
                for lo_t, hi_t, pre, suf, e in _rail_states(box, k_lo, k_hi):
                    logC = log_mid + pre + suf
                    if e == n:
                        # t cancels: a ray of inner optima, value t-independent
                        ok = ok_mid & (np.abs(logC) <= 1e-12)
                        t = np.full(N, 0.5 * (lo_t + hi_t))
                    else:
                        t = np.exp(logC / (n - e))
                        ok = ok_mid & (lo_t * lo_ok <= t) & (t <= hi_t * hi_ok)
                        t = np.clip(t, lo_t, hi_t)
                    x_B = np.clip(t * th / n, th, hi)
                    x_T = np.clip(t / (n * th), th, hi)
                    if k_hi > k_lo:
                        # middle slopes t/(n*mu) must stay inside the box
                        ok &= t / (n * m[:, k_hi - 1]) >= th * lo_ok
                        ok &= t / (n * m[:, k_lo]) <= hi * hi_ok
                    # rail optimality: railed slopes must not want to move
                    if n_pre:
                        ok &= m[:, k_lo - 1] <= x_B + _REL_TOL * np.maximum(m_abs, x_B)
                    if n_suf:
                        ok &= m[:, k_hi] >= x_T - _REL_TOL * np.maximum(m_abs, x_T)
                    if not ok.any():
                        continue
                    val = (hi * np.sum(m[:, :k_lo] - x_B[:, np.newaxis], axis=1)
                           + th * np.sum(m[:, k_hi:] - x_T[:, np.newaxis], axis=1) + t)
                    win = ok & (val < best_val - 1e-15)
                    best_val[win] = val[win]
                    best_t[win] = t[win]
                    best_lo[win] = k_lo
                    best_hi[win] = k_hi

        missing = ~np.isfinite(best_val)
        if missing.any():
            # every mu admits a consistent rail split; reaching here is a bug
            i = int(np.argmax(missing))
            raise NoConvergence(f"no saddle structure for mu={m[i]}, theta={th}")
        col = np.arange(n)
        pre = col < best_lo[:, np.newaxis]
        suf = col >= best_hi[:, np.newaxis]
        t = best_t[:, np.newaxis]
        p = np.where(pre, hi, np.where(suf, th, t / (n * m)))
        x_B = np.clip(t * th / n, th, hi)
        x_T = np.clip(t / (n * th), th, hi)
        x = np.where(pre, x_B, np.where(suf, x_T, m))
    return best_val, _average_equal_runs(np.clip(p, th, hi), m, m_abs), x, best_t


def _average_equal_runs(p: np.ndarray, m: np.ndarray, m_abs: np.ndarray) -> np.ndarray:
    """Give equal eigenvalues equal slopes: average p over each run of
    eigenvalues of m (rows ascending) that agree to rounding.

    A run can straddle two structures only at a kink of the envelope, where
    its inner values all equal the eigenvalue; the saddle set is convex and
    symmetric under permuting the run, so the averaged slope with the same
    inner maximizer is still a saddle.  Without this, which copy of a
    repeated eigenvalue gets which slope would follow round-off, and the
    slope matrix U diag(p) U^H would depend on the eigenbasis LAPACK picks.
    """
    N, n = m.shape
    same = np.diff(m, axis=1) <= _RUN_TOL * m_abs[:, np.newaxis]
    if not same.any():
        return p
    run = np.concatenate([np.zeros((N, 1), dtype=np.int64),
                          np.cumsum(~same, axis=1)], axis=1)
    member = run[:, :, np.newaxis] == np.arange(n)
    mean = np.einsum("ij,ijk->ik", p, member) / np.maximum(member.sum(axis=1), 1)
    return np.take_along_axis(mean, run, axis=1)


def _saddle(mu, box: ThetaBox) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One-point form of `_saddle_batch`; mu may be any real vector (sorted
    ascending internally).  Returns (value, p, x, t)."""
    mu_in = np.asarray(mu, dtype=float)
    if mu_in.shape != (box.n,):
        raise ValueError(f"expected {box.n} eigenvalues, got shape {mu_in.shape}")
    m = np.sort(mu_in, kind="stable")[np.newaxis]
    value, p, x, t = _saddle_batch(m, box)
    return float(value[0]), p[0], x[0], float(t[0])


@dataclass(frozen=True)
class CertificateBatch:
    """Envelope certificates of a stack of N matrices, field by field.

    Each field stacks the EnvelopeCertificate field of the same name along a
    leading axis of length N; `certificate(i)` returns row i.
    """

    value: np.ndarray         # (N,)
    slope_eigs: np.ndarray    # (N, n)
    intercept: np.ndarray     # (N,)
    slope_matrix: np.ndarray  # (N, 2n, 2n)
    mu: np.ndarray            # (N, n)
    inner_max: np.ndarray     # (N, n)

    def certificate(self, i: int) -> EnvelopeCertificate:
        return EnvelopeCertificate(
            value=float(self.value[i]),
            slope_eigs=self.slope_eigs[i],
            intercept=float(self.intercept[i]),
            slope_matrix=self.slope_matrix[i],
            mu=self.mu[i],
            inner_max=self.inner_max[i],
        )


def envelope_batch(H_stack, box: ThetaBox) -> CertificateBatch:
    """Ftilde and its certificate for every matrix of a (N, 2n, 2n) stack.

    Both F and the slope box are unitarily invariant, so each certificate
    depends on its matrix only through the Hermitian eigensystem of
    extract(proj(M)) = A + iB: one LAPACK `eigh` on the complex stack, one
    structure enumeration over all rows, and slope matrices
    (1/2) embed(U diag(p) U^H), halved so that the plain trace pairing
    reproduces the eigenvalue pairing exactly.  The slope matrix does not
    depend on the eigenbasis LAPACK picks inside a repeated eigenvalue,
    because equal eigenvalues get equal slopes.
    """
    S = mc.symmetric_stack(H_stack)
    n = S.shape[1] // 2
    if n != box.n:
        raise ValueError(f"matrix has n={n} but the box has n={box.n}")
    mu, U = np.linalg.eigh(mc.hermitian_blocks(S))
    value, p, x, t = _saddle_batch(mu, box)
    Q = (U * p[:, np.newaxis, :]) @ U.conj().swapaxes(1, 2)
    Q = (Q + Q.conj().swapaxes(1, 2)) / 2.0
    return CertificateBatch(
        value=value,
        slope_eigs=p,
        intercept=t - np.einsum("ij,ij->i", p, x),
        slope_matrix=0.5 * mc.embed_complex(Q),
        mu=mu,
        inner_max=x,
    )


def envelope_value(M, box: ThetaBox) -> float:
    """Ftilde(M): the envelope value of one matrix."""
    return float(envelope_batch(mc.as_symmetric(M)[np.newaxis], box).value[0])


def envelope_eval(M, box: ThetaBox) -> EnvelopeCertificate:
    """Ftilde(M) with its optimality certificate (one-matrix envelope_batch)."""
    return envelope_batch(mc.as_symmetric(M)[np.newaxis], box).certificate(0)


@functools.lru_cache(maxsize=8)
def _brute_grids(theta: float, n: int, resolution: int):
    """Slope grid and its exact discrete conjugate, cached per configuration."""
    axis = np.linspace(theta, 1.0 / theta, resolution)
    if n == 1:
        pts = axis[:, np.newaxis]
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([a.ravel(), b.ravel()])
    fx = np.prod(pts, axis=1) ** (1.0 / n)
    g = np.empty(len(pts))
    step = max(1, (1 << 22) // len(pts))
    for lo in range(0, len(pts), step):
        hi = min(lo + step, len(pts))
        g[lo:hi] = np.max(fx[np.newaxis, :] - pts[lo:hi] @ pts.T, axis=1)
    return pts, g


def envelope_eval_bruteforce(M, box: ThetaBox, resolution: int) -> float:
    """Grid-discretized envelope: an independent oracle for envelope_eval.

    Discretizes both the slope box and the inner box on uniform grids with
    `resolution` points per axis and takes min over slopes of
    [pairing + discrete conjugate]; no eigen-ordering reduction is used (the
    grid covers all slope orderings).  Accurate to O(1/resolution).
    Supported for n <= 2 only (cost grows like resolution^{2n}).
    """
    if box.n > 2:
        raise ValueError(f"brute force supports n <= 2, got n={box.n}")
    if resolution < 8:
        raise ResolutionTooCoarse(f"resolution must be >= 8, got {resolution}")
    mu = mc.hermitian_eigs_of(M)
    if mu.shape[0] != box.n:
        raise ValueError(f"matrix has n={mu.shape[0]} but the box has n={box.n}")
    pts, g = _brute_grids(box.theta, box.n, int(resolution))
    return float(np.min(pts @ mu + g))


def _gap_bounds(P: np.ndarray, box: ThetaBox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, ||P||) of the ellipticity bounds for a symmetric PSD
    stack P of shape (N, 2n, 2n); raises NotPSD if any P is indefinite."""
    wP = np.linalg.eigvalsh(P)
    nrmP = np.max(np.abs(wP), axis=1)
    bad = wP[:, 0] < -1e-12 * np.maximum(1.0, nrmP)
    if bad.any():
        raise NotPSD(f"perturbation has eigenvalue {wP[np.argmax(bad), 0]:g}")
    nu_max = np.linalg.eigvalsh(mc.hermitian_blocks(P))[:, -1]
    lower = box.theta * np.maximum(nu_max, 0.0)
    upper = 2 * box.n * box.hi * nrmP
    return lower, upper, nrmP


def ellipticity_gap(M, P, box: ThetaBox) -> tuple[float, float, float]:
    """(lower, gap, upper) for the increment gap = Ftilde(M+P) - Ftilde(M).

    For P >= 0 the increment obeys

        theta * lambda_max(proj P)  <=  gap  <=  (2n/theta) * ||P||,

    with ||.|| the spectral norm.  The lower bound follows from slope
    eigenvalues >= theta acting on the eigenvalue increments of proj(P); when
    P itself commutes with J it strengthens to theta * ||P||.
    """
    M = mc.as_symmetric(M)
    P = mc.as_symmetric(P)
    lower, upper, _ = _gap_bounds(P[np.newaxis], box)
    f = envelope_batch(np.stack([M + P, M]), box).value
    return float(lower[0]), float(f[0] - f[1]), float(upper[0])


# ---------------------------------------------------------------------------
# randomized property verification
# ---------------------------------------------------------------------------

PROPERTY_NAMES = (
    "concavity",
    "domination",
    "agreement",
    "ellipticity",
    "projection",
    "rotation",
)

_PSD_KINDS = ("gram", "embedded", "rank1", "scalar")

# samples drawn and checked per envelope_batch call in verify_envelope: large
# enough that per-call overhead is negligible, small enough that the stacked
# matrices and their temporaries stay small next to the interpreter (one
# block of 1000 n=2 samples raised the peak resident memory by 10%)
_VERIFY_BLOCK = 128


@dataclass
class PropertyReport:
    """Outcome of randomized envelope checks; failures recorded, not thrown."""

    box: ThetaBox
    samples: int
    seed: int
    passed: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    gap_ratio_min: float | None = None
    gap_ratio_max: float | None = None
    first_failure: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v == 0 for v in self.failed.values())

    def format(self) -> str:
        lines = [
            f"theta = {self.box.theta:.17g}",
            f"n = {self.box.n}",
            f"samples = {self.samples}",
            f"seed = {self.seed}",
        ]
        for name in PROPERTY_NAMES:
            lines.append(f"{name}_pass = {self.passed.get(name, 0)}")
            lines.append(f"{name}_fail = {self.failed.get(name, 0)}")
        if self.gap_ratio_min is not None:
            lines.append(f"gap_over_spectral_norm_min = {self.gap_ratio_min:.17g}")
            lines.append(f"gap_over_spectral_norm_max = {self.gap_ratio_max:.17g}")
        lines.append(f"all_pass = {'true' if self.all_pass else 'false'}")
        return "\n".join(lines) + "\n"


def sample_symmetric(rng, d: int, shift: float = 0.0) -> np.ndarray:
    """Symmetric matrix with iid uniform [-1, 1] entries, shifted by shift*I."""
    S = rng.uniform(-1.0, 1.0, size=(d, d))
    return (S + S.T) / 2.0 + shift * np.eye(d)


def sample_unitary_blocks(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar-ish random unitary as real blocks (QR of a complex Gaussian)."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R).copy()
    ph = ph / np.abs(ph)
    Q = Q * ph[np.newaxis, :].conj()
    return np.ascontiguousarray(Q.real), np.ascontiguousarray(Q.imag)


def sample_in_box(rng, box: ThetaBox) -> np.ndarray:
    """Matrix whose projection has spectrum uniform in the box, plus a random
    J-anticommuting component (which the envelope must ignore)."""
    n = box.n
    mu = rng.uniform(box.theta, box.hi, size=n)
    Ure, Uim = sample_unitary_blocks(rng, n)
    Qre = (Ure * mu) @ Ure.T + (Uim * mu) @ Uim.T
    Qim = (Uim * mu) @ Ure.T - (Ure * mu) @ Uim.T
    core = mc.embed(mc.HermitianMatrix((Qre + Qre.T) / 2, (Qim - Qim.T) / 2))
    S = sample_symmetric(rng, 2 * n)
    return core + (S - mc.project(S))


def sample_psd(rng, d: int, kind: str) -> np.ndarray:
    """PSD perturbation of the requested kind."""
    if kind == "gram":
        G = rng.uniform(-1.0, 1.0, size=(d, d))
        return (G @ G.T) / d
    if kind == "embedded":
        n = d // 2
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Hm = (Z @ Z.conj().T) / n
        return mc.embed(mc.HermitianMatrix(Hm.real, Hm.imag))
    if kind == "rank1":
        v = rng.normal(size=d)
        return np.outer(v, v) / float(v @ v)
    if kind == "scalar":
        return float(rng.uniform(0.1, 2.0)) * np.eye(d)
    raise ValueError(f"unknown psd kind {kind!r}")


def tangent_slope(mu) -> np.ndarray:
    """Gradient of (prod mu)^{1/n} at mu > 0 (last axis; stacks allowed): the
    slope of the supporting plane of F.  The envelope agrees with F exactly
    where this lies in the slope box."""
    mu = np.asarray(mu, dtype=float)
    gm = np.exp(np.mean(np.log(mu), axis=-1, keepdims=True))
    return gm / (mu.shape[-1] * mu)


def tangent_in_box(mu, box: ThetaBox, tol: float = 1e-12):
    p = tangent_slope(mu)
    return np.all((p >= box.theta - tol) & (p <= box.hi + tol), axis=-1)


def draw_verify_sample(rng, box: ThetaBox, idx: int) -> dict:
    """One deterministic sample bundle for the property checks."""
    d = 2 * box.n
    shift = float(rng.uniform(0.0, 3.0)) if idx % 2 == 0 else 0.0
    m1 = sample_symmetric(rng, d, shift)
    m2 = sample_symmetric(rng, d, float(rng.uniform(0.0, 3.0)) if idx % 3 == 0 else 0.0)
    m_in = sample_in_box(rng, box)
    kind = _PSD_KINDS[idx % len(_PSD_KINDS)]
    P = sample_psd(rng, d, kind)
    Ure, Uim = sample_unitary_blocks(rng, box.n)
    R = unitary_rotation(Ure, Uim)
    return {"m1": m1, "m2": m2, "m_in": m_in, "P": P, "P_kind": kind, "R": R}


def unitary_rotation(Ure: np.ndarray, Uim: np.ndarray) -> np.ndarray:
    """The J-commuting orthogonal matrix [[X, -Y], [Y, X]] of a unitary X+iY."""
    n = Ure.shape[0]
    R = np.zeros((2 * n, 2 * n))
    R[:n, :n] = Ure
    R[n:, n:] = Ure
    R[:n, n:] = -Uim
    R[n:, :n] = Uim
    return R


def _check_samples(box: ThetaBox, bundle: list) -> dict:
    """Property checks of a list of sample bundles, vectorized over samples.

    Returns, per property name, a boolean array of passes and an array of
    flags saying where the property makes a claim, plus "gap_ratio" (NaN
    where ||P|| = 0).  One envelope_batch call covers all seven matrices of
    every sample.
    """
    def stack(key):
        return np.stack([b[key] for b in bundle])

    N = len(bundle)
    th, n = box.theta, box.n
    m1, m2, m_in, R = stack("m1"), stack("m2"), stack("m_in"), stack("R")
    P = mc.symmetric_stack(stack("P"))
    jc = np.array([b["P_kind"] in ("embedded", "scalar") for b in bundle], dtype=bool)
    batch = envelope_batch(np.concatenate([
        m1, m2, (m1 + m2) / 2.0, m_in, m1 + P,
        mc.embed_complex(mc.hermitian_blocks(m1)), R @ m1 @ R.swapaxes(1, 2),
    ]), box)
    f1, f2, fmid, ften, f1p, fp, fr = batch.value.reshape(7, N)
    claims = np.ones(N, dtype=bool)
    out = {}
    out["concavity"] = (fmid >= (f1 + f2) / 2.0 - 1e-9, claims)

    mu = batch.mu[3 * N:4 * N]
    pos = mu[:, 0] > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        fval = np.exp(np.mean(np.log(np.maximum(mu, 1e-300)), axis=1))
        tangent = pos & tangent_in_box(mu, box)
    out["domination"] = (~pos | (ften >= fval - 1e-9), claims)
    # where the tangent slope leaves the box the envelope makes no claim
    out["agreement"] = (np.abs(ften - fval) <= 1e-8 * np.maximum(1.0, np.abs(fval)), tangent)

    lower, upper, nrm = _gap_bounds(P, box)
    gap = f1p - f1
    ok = (lower - 1e-9 <= gap) & (gap <= upper + 1e-9)
    # J-commuting perturbations enjoy the stronger theta*||P|| bound
    ok &= ~jc | (gap >= th * nrm - 1e-9)
    out["ellipticity"] = (ok, claims)
    with np.errstate(invalid="ignore", divide="ignore"):
        out["gap_ratio"] = np.where(nrm > 0, gap / nrm, np.nan)

    scale = np.maximum(1.0, np.abs(f1))
    out["projection"] = (np.abs(f1 - fp) <= 1e-10 * scale, claims)
    out["rotation"] = (np.abs(f1 - fr) <= 1e-9 * scale, claims)
    return out


def verify_envelope(box: ThetaBox, samples: int, seed: int) -> PropertyReport:
    """Randomized verification of the envelope's structural properties.

    Draws `samples` deterministic sample bundles and checks midpoint
    concavity, domination/agreement on the box, the two-sided ellipticity
    bounds, projection factorization and rotation invariance.  Samples are
    drawn and checked in blocks of _VERIFY_BLOCK, so memory stays bounded.
    """
    report = PropertyReport(box=box, samples=samples, seed=seed)
    for name in PROPERTY_NAMES:
        report.passed[name] = 0
        report.failed[name] = 0
    rng = np.random.default_rng(seed)
    ratios = []
    for start in range(0, max(samples, 0), _VERIFY_BLOCK):
        stop = min(start + _VERIFY_BLOCK, samples)
        bundle = [draw_verify_sample(rng, box, i) for i in range(start, stop)]
        res = _check_samples(box, bundle)
        for name in PROPERTY_NAMES:
            ok, claims = res[name]
            report.passed[name] += int(np.sum(ok & claims))
            fails = np.flatnonzero(~ok & claims)
            report.failed[name] += len(fails)
            if len(fails) and name not in report.first_failure:
                report.first_failure[name] = (start + int(fails[0]), bundle[fails[0]]["m1"])
        ratios.append(res["gap_ratio"][np.isfinite(res["gap_ratio"])])
    ratios = np.concatenate(ratios) if ratios else np.empty(0)
    if ratios.size:
        report.gap_ratio_min = float(np.min(ratios))
        report.gap_ratio_max = float(np.max(ratios))
    return report
