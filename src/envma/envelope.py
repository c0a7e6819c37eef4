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

Evaluation is exact, not iterative.  By the minimax theorem Ftilde is also
the primal maximum over box points x of
(prod x)^{1/n} + sum_i min(theta (mu_i - x_i), (mu_i - x_i)/theta), attained
at x_i(t) = clamp(median(t theta/n, mu_i, t/(n theta))) where t solves one
monotone scalar equation t = (prod x(t))^{1/n}; the saddle slopes are read
off x.  The conjugate g(p) is the same equation with x_i(t) = clamp(t/(n p_i)).
`_log_affine_root` solves both: one pass over the breakpoints brackets the
root, and there h(t) = mean log x(t) - log t, affine in log t, crosses zero
where the line through its values at the bracket ends does.  A
grid-discretized evaluator with no such reduction is an independent oracle.

One core certifies a stack of Hermitian parts A + iB: `_certify`
(`herm_eigensystem`, then one pass over all rows per breakpoint of that
equation) gives the values, and `_policy` the slopes, intercepts and
U diag(p) U^H.
`envelope_batch` validates a real stack and calls both; the PDE solver builds
A + iB from its stencil and calls them in blocks.  `envelope_value`,
`envelope_eval` and `_saddle` are one-matrix forms.  The property checks and
`ellipticity_gap` read values only: `_envelope_values` runs
`herm_eigenvalues` and the value part of the kernel.

The random samples of those checks are drawn in blocks too
(`draw_verify_block`): each drawn field of a sample has its own generator
spawned from the seed, and one call draws a field for the whole block.
`sample_in_box`, `sample_unitary_blocks` and `sample_psd` apply the same
helpers to a stack of one, drawing every field from one generator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import NoConvergence, NotPSD, ResolutionTooCoarse

_KKT_TOL = 1e-11
# the smallest theta ThetaBox accepts: theta^2 underflows below it
_THETA_MIN = float(np.sqrt(np.finfo(float).tiny))
# eigenvalues closer than this times the largest |eigenvalue| count as equal
_RUN_TOL = 1e-13


@dataclass(frozen=True)
class ThetaBox:
    """The spectral box [theta, 1/theta] in complex dimension n.

    theta is normalized to min(theta, 1/theta) on construction so the box is
    always nonempty; theta = 1 collapses it to the single point {I}.  The
    kernel divides by theta^2, so theta must lie in [sqrt(tiny), 1/sqrt(tiny)].
    """

    theta: float
    n: int

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        t = float(self.theta)
        if not _THETA_MIN <= t <= 1.0 / _THETA_MIN:
            raise ValueError(f"theta must lie in [{_THETA_MIN:.17g}, {1.0 / _THETA_MIN:.17g}], "
                             f"got {self.theta}")
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


def conjugate_maximizer(p, box: ThetaBox) -> tuple[float, np.ndarray]:
    """Minimal feasible intercept g(p) and the box point attaining it.

    g(p) = max over x in the box of (prod x)^{1/n} - p.x, the smallest c for
    which slope p with intercept c majorizes F.  The concave maximand is
    1-homogeneous minus linear, so the maximizer satisfies
    x_i = clamp(t/(n p_i)) with t = (prod x)^{1/n}, found by `_log_affine_root`
    over the breakpoints n p_i theta and n p_i/theta.  Where prod(n p) = 1 the
    maximizers form a ray x = t/(n p), and the one with the largest t is
    returned, up to rounding (x = 1e8 at theta = 1e-8, n = 1, p = 1).
    """
    p = np.asarray(p, dtype=float)
    n = box.n
    th, hi = box.theta, box.hi
    if p.shape != (n,):
        raise ValueError(f"expected a slope vector of length {n}, got shape {p.shape}")
    tol = 1e-12 * hi
    if np.any(~((p >= th - tol) & (p <= hi + tol))):
        raise ValueError(f"slope {p} outside the box [{th:g}, {hi:g}]")
    p = np.clip(p, th, hi)
    if hi - th <= tol:
        # theta = 1: the box is the single point x = 1
        x = np.full(n, th)
        return th - float(p @ x), x

    t = float(_log_affine_root(lambda t: np.clip(t / (n * p), th, hi),
                               itertools.chain(n * p * th, n * p / th), box))
    x = np.clip(t / (n * p), th, hi)
    t = mc.geometric_mean(x)
    g = t - float(p @ x)
    # exact stationarity/rail check; concavity makes it sufficient
    grad = t / (n * x) - p
    at_lo, at_hi = x <= th, x >= hi
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


def _clamped_median(t: np.ndarray, m: np.ndarray, box: ThetaBox) -> np.ndarray:
    """clamp(median(t theta/n, mu_i, t/(n theta))) for eigenvalues m and t
    that broadcast against them: the maximizer x(t) of the primal form.  An
    eigenvalue below the tangency range rails at slope 1/theta, one above it
    at slope theta, and one inside it is tangent (x_i = mu_i)."""
    n = box.n
    x = np.maximum(m, t * box.theta / n)
    return np.clip(np.minimum(x, t / (n * box.theta), out=x), box.theta, box.hi, out=x)


def _inner_max(t: np.ndarray, m: np.ndarray, box: ThetaBox) -> np.ndarray:
    """x(t) of `_clamped_median` for m (N, n) and t (N,)."""
    return _clamped_median(t[:, np.newaxis], m, box)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=1), column by column: the same order for n < 8, but faster."""
    return functools.reduce(np.add, a.T, 0)


def _log_affine_root(x_of, breakpoints, box: ThetaBox):
    """The root t in [theta, 1/theta] of h(t) = mean log x(t) - log t.

    x_of maps t of shape S to x(t) of shape (n,) + S with entries in the box,
    piecewise proportional to t or constant, so h is continuous, nonincreasing and
    affine in log t between the breakpoints, with h(theta) >= 0 >= h(1/theta).
    One pass over the breakpoints, theta and 1/theta brackets the root
    between the largest of them with h >= 0 and the smallest with h < 0.
    No breakpoint lies strictly inside that bracket [lo, up], so the root is
    where the line through h(lo) and h(up) in log t crosses zero, clipped to
    the bracket.  Where h(lo) = h(up), at theta = 1 or on a ray of roots, lo
    is returned.
    """
    th, hi = box.theta, box.hi

    def h(t):
        log_x = np.log(x_of(t))
        return sum(log_x) / len(log_x) - np.log(t)

    lo, up = th, hi
    for b in itertools.chain(breakpoints, (th, hi)):
        b = np.clip(b, th, hi)
        above = h(b) >= 0.0
        # b > 0 raises lo where h(b) >= 0, lowers up elsewhere (np.where is slower)
        lo, up = np.maximum(lo, b * above), np.minimum(up, b + above * hi)
    h_lo, h_up = h(lo), h(up)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.exp(np.log(lo) + (np.log(up) - np.log(lo)) * (h_lo / (h_lo - h_up)))
    return np.where(h_lo == h_up, lo, np.clip(t, lo, up))


def _fixed_point(m: np.ndarray, box: ThetaBox) -> np.ndarray:
    """The root t of t = (prod x(t))^{1/n}, x(t) of `_clamped_median`, for
    each row of m (N, n), by `_log_affine_root` over the breakpoints
    n theta mu_i, n mu_i/theta, n theta^2, n and n/theta^2.
    The eigenvalues are held as n contiguous rows of length N, so t (N,)
    broadcasts along each row, and h sums the rows in `_row_sum`'s order.
    """
    n = m.shape[1]
    th = box.theta
    m = np.ascontiguousarray(m.T)
    brk = itertools.chain((n * th * mu for mu in m), (n * mu / th for mu in m),
                          (n * th**2, n, n / th**2))
    return _log_affine_root(lambda t: _clamped_median(t, m, box), brk, box)


def _saddle_values(m: np.ndarray, box: ThetaBox):
    """Exact envelope values in eigenvalue coordinates for a stack.

    m (N, n) has ascending rows.  Returns value (N,), x = x(t) (N, n) of
    `_inner_max` and t (N,) of `_fixed_point`, where
    value = t + sum_i min(theta d_i, d_i/theta) with d = mu - x.  Raises
    NoConvergence where t misses the fixed point t = (prod x(t))^{1/n}, and
    ValueError where a value leaves the float range.
    """
    n = m.shape[1]
    th, hi = box.theta, box.hi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = _fixed_point(m, box)
        x = _inner_max(t, m, box)
        resid = np.abs(_row_sum(np.log(x)) / n - np.log(t))  # not finite where t is not
        d = m - x
        value = hi * _row_sum(np.minimum(d, 0.0)) + th * _row_sum(np.maximum(d, 0.0)) + t
    if not np.all(resid <= 1e-12):
        # the monotone fixed point always exists; missing it is a bug
        i = int(np.argmin(resid <= 1e-12))
        raise NoConvergence(f"fixed point residual {resid[i]:g} at t={t[i]:g} "
                            f"for mu={m[i]}, theta={th}")
    if not np.all(np.isfinite(value)):
        i = int(np.argmin(np.isfinite(value)))
        raise ValueError(f"envelope value overflows the float range for mu={m[i]}, theta={th:g}")
    return value, x, t


def _saddle_slopes(m: np.ndarray, x: np.ndarray, t: np.ndarray, box: ThetaBox) -> np.ndarray:
    """The saddle slopes p (N, n), descending, of `_saddle_values`' x and t:
    p_i = theta where x_i < mu_i, 1/theta where x_i > mu_i and t/(n mu_i)
    where equal, averaged over runs of equal eigenvalues."""
    th, hi = box.theta, box.hi
    d = m - x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.where(d > 0.0, th, np.where(d < 0.0, hi, t[:, np.newaxis] / (m.shape[1] * m)))
    return _average_equal_runs(np.clip(p, th, hi, out=p), m)


def _average_equal_runs(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Average p over each run of eigenvalues of m (rows ascending) that agree
    to rounding, so that U diag(p) U^H does not depend on the eigenbasis the
    eigensolver picks inside a repeated eigenvalue.  A run straddles two slope
    regimes only at a kink, where the saddle set is convex and symmetric under
    permuting the run, so the averaged slope is still a saddle.  Joining
    neighbours moves p.mu by up to their slope jump times their gap, so they
    are joined only where that is below rounding of the value too (at
    theta = 1e-8 next to 1/theta, the eigenvalues 0 and theta agree to
    rounding, their slopes do not)."""
    N, n = m.shape
    gap = np.diff(m, axis=1)
    m_abs = np.maximum(-m[:, :1], m[:, -1:])
    scale = np.maximum(1.0, _row_sum(np.abs(p * m)))[:, np.newaxis]
    same = (gap <= _RUN_TOL * m_abs) & (-np.diff(p, axis=1) * gap <= _RUN_TOL * scale)
    if not same.any():
        return p
    run = np.concatenate([np.zeros((N, 1), dtype=np.int64),
                          np.cumsum(~same, axis=1)], axis=1)
    member = run[:, :, np.newaxis] == np.arange(n)
    mean = np.einsum("ij,ijk->ik", p, member) / np.maximum(member.sum(axis=1), 1)
    return np.take_along_axis(mean, run, axis=1)


def _saddle(mu, box: ThetaBox) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One-point form of `_saddle_values` and `_saddle_slopes`; mu may be any
    real vector (sorted ascending internally).  Returns (value, p, x, t)."""
    mu_in = np.asarray(mu, dtype=float)
    if mu_in.shape != (box.n,):
        raise ValueError(f"expected {box.n} eigenvalues, got shape {mu_in.shape}")
    m = np.sort(mu_in, kind="stable")[np.newaxis]
    value, x, t = _saddle_values(m, box)
    return float(value[0]), _saddle_slopes(m, x, t, box)[0], x[0], float(t[0])


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


def _hermitian_parts(H_stack, box: ThetaBox) -> np.ndarray:
    """extract(proj(M)) of every matrix M of a (N, 2n, 2n) stack, validated by
    `symmetric_stack` and against the box dimension."""
    S = mc.symmetric_stack(H_stack)
    n = S.shape[1] // 2
    if n != box.n:
        raise ValueError(f"matrix has n={n} but the box has n={box.n}")
    return mc.hermitian_blocks(S)


def _envelope_values(H_stack, box: ThetaBox) -> tuple[np.ndarray, np.ndarray]:
    """(value, mu) of `envelope_batch` with no slopes: `herm_eigenvalues`
    instead of `herm_eigensystem`, and the value core of the saddle alone.
    The eigenvalues, and so the values, are those of `envelope_batch` for
    n <= 2 (the same closed form at n = 2) and agree with them to rounding
    for larger n (LAPACK's `eigvalsh` against its `eigh`)."""
    mu = mc.herm_eigenvalues(_hermitian_parts(H_stack, box))
    return _saddle_values(mu, box)[0], mu


def _certify(Z, box: ThetaBox):
    """(value, x, t, mu, U) of a Hermitian stack Z (N, n, n):
    `herm_eigensystem`, then `_saddle_values` on its eigenvalues."""
    mu, U = mc.herm_eigensystem(Z)
    return (*_saddle_values(mu, box), mu, U)


def _policy(mu, U, x, t, box: ThetaBox):
    """(p, Q, intercept) from `_certify`: saddle slopes, the symmetrized
    Q = U diag(p) U^H (equal eigenvalues get equal slopes, so Q is the same
    in any eigenbasis the eigensolver picks) and t - p.x."""
    p = _saddle_slopes(mu, x, t, box)
    Q = (U * p[:, np.newaxis, :]) @ U.conj().swapaxes(1, 2)
    return p, (Q + Q.conj().swapaxes(1, 2)) / 2.0, t - np.einsum("ij,ij->i", p, x)


def envelope_batch(H_stack, box: ThetaBox) -> CertificateBatch:
    """Ftilde and its certificate for every matrix of a (N, 2n, 2n) stack.

    F and the slope box are unitarily invariant, so a certificate depends on
    M only through the eigensystem of extract(proj(M)); the slope matrix is
    (1/2) embed(Q), halved so the trace pairing is the eigenvalue pairing.
    """
    value, x, t, mu, U = _certify(_hermitian_parts(H_stack, box), box)
    p, Q, intercept = _policy(mu, U, x, t, box)
    return CertificateBatch(value=value, slope_eigs=p, intercept=intercept,
                            slope_matrix=0.5 * mc.embed_complex(Q), mu=mu, inner_max=x)


def envelope_value(M, box: ThetaBox) -> float:
    """Ftilde(M): the envelope value of one matrix."""
    return float(envelope_batch(mc.as_symmetric(M)[np.newaxis], box).value[0])


def envelope_eval(M, box: ThetaBox) -> EnvelopeCertificate:
    """Ftilde(M) with its optimality certificate (one-matrix envelope_batch)."""
    return envelope_batch(mc.as_symmetric(M)[np.newaxis], box).certificate(0)


def _max_minus_pairing(T: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """out[k, m] = max over j of T[m, j] - axis[k] * axis[j], in chunks of k
    whose temporaries stay below 2^22 entries."""
    out = np.empty((len(axis), T.shape[0]))
    px = np.outer(axis, axis)
    step = max(1, (1 << 22) // T.size)
    for lo in range(0, len(axis), step):
        hi = min(lo + step, len(axis))
        out[lo:hi] = np.max(T[np.newaxis] - px[lo:hi, np.newaxis, :], axis=2)
    return out


@functools.lru_cache(maxsize=8)
def _brute_grids(theta: float, n: int, resolution: int):
    """Slope grid and its exact discrete conjugate, cached per configuration.

    The discrete conjugate g(p) = max over the grid points x of
    (prod x)^{1/n} - p.x covers the whole product grid.  For n = 2 the
    maximum is taken one coordinate at a time,
    max_{x1} [max_{x2} (sqrt(x1 x2) - p2 x2) - p1 x1],
    which costs resolution^3 instead of resolution^4 operations.
    """
    axis = np.linspace(theta, 1.0 / theta, resolution)
    if n == 1:
        return axis[:, np.newaxis], _max_minus_pairing(axis[np.newaxis], axis).ravel()
    a, b = np.meshgrid(axis, axis, indexing="ij")
    fx = np.outer(axis, axis) ** 0.5            # fx[i, j] = sqrt(x1_i x2_j)
    inner = _max_minus_pairing(fx, axis)         # inner[k2, i]: max over x2
    g = _max_minus_pairing(inner, axis)          # g[k1, k2]: then over x1
    return np.column_stack([a.ravel(), b.ravel()]), g.ravel()


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
    nu_max = mc.herm_eigenvalues(mc.hermitian_blocks(P))[:, -1]
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
    f, _ = _envelope_values(np.stack([M + P, M]), box)
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


def _symmetrized(S: np.ndarray, shift) -> np.ndarray:
    """(S + S^T)/2 + shift*I for a stack S of shape (..., d, d) and shifts of
    shape (...)."""
    shift = np.asarray(shift)[..., np.newaxis, np.newaxis]
    return (S + S.swapaxes(-1, -2)) / 2.0 + shift * np.eye(S.shape[-1])


def sample_symmetric(rng, d: int, shift: float = 0.0) -> np.ndarray:
    """Symmetric matrix with iid uniform [-1, 1] entries, shifted by shift*I."""
    return _symmetrized(rng.uniform(-1.0, 1.0, size=(d, d)), shift)


def _complex_gaussian(rng, m: int, n: int) -> np.ndarray:
    """m complex Gaussian n x n matrices from one draw, the real and then the
    imaginary part of each matrix in turn, so a matrix does not depend on how
    many are drawn with it."""
    g = rng.normal(size=(m, 2, n, n))
    return g[:, 0] + 1j * g[:, 1]


def _unitary_blocks(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries from a stack of complex Gaussians (..., n, n): the Q of the
    QR decomposition with the phases of diag(R) moved into Q, as real blocks."""
    Q, R = np.linalg.qr(Z)
    ph = np.diagonal(R, axis1=-2, axis2=-1).copy()
    ph = ph / np.abs(ph)
    Q = Q * ph[..., np.newaxis, :].conj()
    return np.ascontiguousarray(Q.real), np.ascontiguousarray(Q.imag)


def sample_unitary_blocks(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar-ish random unitary as real blocks (QR of a complex Gaussian)."""
    Ure, Uim = _unitary_blocks(_complex_gaussian(rng, 1, n))
    return Ure[0], Uim[0]


def _embed_hermitian_part(Hre: np.ndarray, Him: np.ndarray) -> np.ndarray:
    """embed of the Hermitian part of a stack of complex matrices Hre + i Him."""
    return mc.embed_complex((Hre + Hre.swapaxes(-1, -2)) / 2
                            + 1j * ((Him - Him.swapaxes(-1, -2)) / 2))


def _draw_in_box(rngs: tuple, box: ThetaBox, m: int) -> tuple:
    """Draws of m in-box matrices: eigenvalues, eigenbasis Gaussians and
    symmetric parts, from the three generators of rngs in turn."""
    rng_mu, rng_Z, rng_S = rngs
    n = box.n
    return (rng_mu.uniform(box.theta, box.hi, size=(m, n)), _complex_gaussian(rng_Z, m, n),
            rng_S.uniform(-1.0, 1.0, size=(m, 2 * n, 2 * n)))


def _in_box(mu: np.ndarray, Z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Stacked in-box matrices from the draws of `_draw_in_box`: the embedded
    U diag(mu) U^H plus the J-anticommuting part of a symmetric matrix."""
    Ure, Uim = _unitary_blocks(Z)
    mu = mu[..., np.newaxis, :]
    UreT, UimT = Ure.swapaxes(-1, -2), Uim.swapaxes(-1, -2)
    core = _embed_hermitian_part((Ure * mu) @ UreT + (Uim * mu) @ UimT,
                                 (Uim * mu) @ UreT - (Ure * mu) @ UimT)
    S = _symmetrized(S, 0.0)
    return core + (S - mc.embed_complex(mc.hermitian_blocks(S)))


def sample_in_box(rng, box: ThetaBox) -> np.ndarray:
    """Matrix whose projection has spectrum uniform in the box, plus a random
    J-anticommuting component (which the envelope must ignore)."""
    return _in_box(*_draw_in_box((rng, rng, rng), box, 1))[0]


def _draw_psd(rng, d: int, kind: str, m: int) -> np.ndarray:
    """Draws of m PSD perturbations of one kind, stacked along a leading axis."""
    if kind == "gram":
        return rng.uniform(-1.0, 1.0, size=(m, d, d))
    if kind == "embedded":
        return _complex_gaussian(rng, m, d // 2)
    if kind == "rank1":
        return rng.normal(size=(m, d))
    if kind == "scalar":
        return rng.uniform(0.1, 2.0, size=m)
    raise ValueError(f"unknown psd kind {kind!r}")


def _psd(kind: str, raw: np.ndarray, d: int) -> np.ndarray:
    """Stacked PSD perturbations of one kind from a stack of `_draw_psd` draws."""
    if kind == "gram":
        return (raw @ raw.swapaxes(-1, -2)) / d
    if kind == "embedded":
        Hm = (raw @ raw.conj().swapaxes(-1, -2)) / (d // 2)
        return _embed_hermitian_part(Hm.real, Hm.imag)
    if kind == "rank1":
        row, col = raw[..., np.newaxis, :], raw[..., :, np.newaxis]
        return (col * row) / (row @ col)
    return raw[..., np.newaxis, np.newaxis] * np.eye(d)


def sample_psd(rng, d: int, kind: str) -> np.ndarray:
    """PSD perturbation of the requested kind."""
    return _psd(kind, _draw_psd(rng, d, kind, 1), d)[0]


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


def unitary_rotation(Ure: np.ndarray, Uim: np.ndarray) -> np.ndarray:
    """The J-commuting orthogonal matrix [[X, -Y], [Y, X]] of a unitary X+iY
    (stacks of unitaries give stacks of rotations)."""
    n = Ure.shape[-1]
    R = np.zeros(Ure.shape[:-2] + (2 * n, 2 * n))
    R[..., :n, :n] = Ure
    R[..., n:, n:] = Ure
    R[..., :n, n:] = -Uim
    R[..., n:, :n] = Uim
    return R


# the drawn fields of a verify sample, one generator each (verify_streams)
_VERIFY_FIELDS = ("shift1", "S1", "shift2", "S2", "mu", "Z", "S", "Z_rot") + _PSD_KINDS


def verify_streams(seed: int) -> dict:
    """One generator per field of _VERIFY_FIELDS, spawned from SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(len(_VERIFY_FIELDS))
    return {name: np.random.default_rng(c) for name, c in zip(_VERIFY_FIELDS, children)}


def draw_verify_block(streams: dict, box: ThetaBox, start: int, stop: int) -> dict:
    """Samples start..stop-1 of a verify run, as stacks along a leading axis.

    Sample idx consists of m1 and m2 (symmetric; m1 shifted by a random
    multiple of I when idx is even, m2 when idx is divisible by 3), an in-box
    matrix m_in, a PSD perturbation P of kind _PSD_KINDS[idx % 4] (its name
    in P_kind) and a J-commuting rotation R.  Each drawn field has its own
    generator in `streams` (see verify_streams), and one call draws it for
    the whole block: the shifts for every sample, then masked, and each PSD
    kind over its own rows.  Every generator is read in sample order, so a
    sample does not depend on the block it falls in.
    """
    n, d, m = box.n, 2 * box.n, stop - start
    idx = np.arange(start, stop)
    shift1 = np.where(idx % 2 == 0, streams["shift1"].uniform(0.0, 3.0, size=m), 0.0)
    m1 = _symmetrized(streams["S1"].uniform(-1.0, 1.0, size=(m, d, d)), shift1)
    shift2 = np.where(idx % 3 == 0, streams["shift2"].uniform(0.0, 3.0, size=m), 0.0)
    m2 = _symmetrized(streams["S2"].uniform(-1.0, 1.0, size=(m, d, d)), shift2)
    P = np.empty((m, d, d))
    for k, kind in enumerate(_PSD_KINDS):
        rows = np.flatnonzero(idx % len(_PSD_KINDS) == k)
        if rows.size:
            P[rows] = _psd(kind, _draw_psd(streams[kind], d, kind, rows.size), d)
    return {
        "m1": m1,
        "m2": m2,
        "m_in": _in_box(*_draw_in_box((streams["mu"], streams["Z"], streams["S"]), box, m)),
        "P": P,
        "P_kind": tuple(_PSD_KINDS[i % len(_PSD_KINDS)] for i in range(start, stop)),
        "R": unitary_rotation(*_unitary_blocks(_complex_gaussian(streams["Z_rot"], m, n))),
    }


def _check_samples(box: ThetaBox, block: dict) -> dict:
    """Property checks of a block of samples (see draw_verify_block),
    vectorized over samples.

    Returns, per property name, a boolean array of passes and an array of
    flags saying where the property makes a claim, plus "gap_ratio" (NaN
    where ||P|| = 0).  Each check's slack is relative to the values it
    compares (`_magnitude`).  One `_envelope_values` call covers all seven
    matrices of every sample: the checks read values and eigenvalues only.
    """
    m1, m2, m_in, R = block["m1"], block["m2"], block["m_in"], block["R"]
    N = len(m1)
    th, n = box.theta, box.n
    P = mc.symmetric_stack(block["P"])
    jc = np.array([kind in ("embedded", "scalar") for kind in block["P_kind"]], dtype=bool)
    value, mu = _envelope_values(np.concatenate([
        m1, m2, (m1 + m2) / 2.0, m_in, m1 + P,
        mc.embed_complex(mc.hermitian_blocks(m1)), R @ m1 @ R.swapaxes(1, 2),
    ]), box)
    f1, f2, fmid, ften, f1p, fp, fr = value.reshape(7, N)
    claims = np.ones(N, dtype=bool)
    out = {}
    out["concavity"] = (fmid >= (f1 + f2) / 2.0 - 1e-9 * _magnitude(f1, f2, fmid), claims)

    mu = mu[3 * N:4 * N]
    pos = mu[:, 0] > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        fval = np.exp(np.mean(np.log(np.maximum(mu, 1e-300)), axis=1))
        tangent = pos & tangent_in_box(mu, box)
    out["domination"] = (~pos | (ften >= fval - 1e-9 * _magnitude(ften, fval)), claims)
    # where the tangent slope leaves the box the envelope makes no claim
    out["agreement"] = (np.abs(ften - fval) <= 1e-8 * np.maximum(1.0, np.abs(fval)), tangent)

    lower, upper, nrm = _gap_bounds(P, box)
    gap = f1p - f1
    slack = 1e-9 * _magnitude(f1p, f1)
    ok = (lower - slack <= gap) & (gap <= upper + slack)
    # J-commuting perturbations enjoy the stronger theta*||P|| bound
    ok &= ~jc | (gap >= th * nrm - slack)
    out["ellipticity"] = (ok, claims)
    with np.errstate(invalid="ignore", divide="ignore"):
        out["gap_ratio"] = np.where(nrm > 0, gap / nrm, np.nan)

    out["projection"] = (np.abs(f1 - fp) <= 1e-10 * _magnitude(f1), claims)
    out["rotation"] = (np.abs(f1 - fr) <= 1e-9 * _magnitude(f1), claims)
    return out


def _magnitude(*values: np.ndarray) -> np.ndarray:
    """max(1, |v|) over the compared values v: the scale of their rounding."""
    return functools.reduce(np.maximum, map(np.abs, values), 1.0)


def verify_envelope(box: ThetaBox, samples: int, seed: int) -> PropertyReport:
    """Randomized verification of the envelope's structural properties.

    Draws `samples` deterministic samples and checks midpoint concavity,
    domination/agreement on the box, the two-sided ellipticity bounds,
    projection factorization and rotation invariance.  Samples are drawn as
    stacks and checked in blocks of _VERIFY_BLOCK (`draw_verify_block`), so
    memory stays bounded and the report does not depend on the block size.
    Raises ValueError, before drawing anything, when box.n exceeds
    MAX_DIM // 2 or samples or seed is negative.
    """
    if box.n > mc.MAX_DIM // 2:
        raise ValueError(f"n={box.n} exceeds the supported maximum {mc.MAX_DIM // 2}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    report = PropertyReport(box=box, samples=samples, seed=seed)
    for name in PROPERTY_NAMES:
        report.passed[name] = 0
        report.failed[name] = 0
    streams = verify_streams(seed)
    ratios = []
    for start in range(0, samples, _VERIFY_BLOCK):
        block = draw_verify_block(streams, box, start, min(start + _VERIFY_BLOCK, samples))
        res = _check_samples(box, block)
        for name in PROPERTY_NAMES:
            ok, claims = res[name]
            report.passed[name] += int(np.sum(ok & claims))
            fails = np.flatnonzero(~ok & claims)
            report.failed[name] += len(fails)
            if len(fails) and name not in report.first_failure:
                report.first_failure[name] = (start + int(fails[0]), block["m1"][fails[0]])
        ratios.append(res["gap_ratio"][np.isfinite(res["gap_ratio"])])
    ratios = np.concatenate(ratios) if ratios else np.empty(0)
    if ratios.size:
        report.gap_ratio_min = float(np.min(ratios))
        report.gap_ratio_max = float(np.max(ratios))
    return report
