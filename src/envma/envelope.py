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
where the line through its values at the bracket ends does.  The tests'
grid oracle, with no such reduction, checks it independently.

One kernel driver certifies a stack of Hermitian parts A + iB, in blocks
of `_CERT_BLOCK` rows: `_certify_values` (`herm_eigensystem`, then one pass
over all rows per breakpoint of that equation) gives the values, and
`_certify_policy` the certificates, slopes U diag(p) U^H and intercepts.
`envelope_batch` validates a real stack and calls both; the PDE solver
builds A + iB from its stencil and calls the second only when it needs a
policy.  `EnvelopeCertificate` holds one matrix's certificate or a stack's,
and `envelope_eval` is row 0 of a stack of one.  The checks of
`envma.verify` read values and eigenvalues from `_certify_values` alone.

Box membership has one rule, `_in_box_up_to`, relative to each face: `in_box`
(eigenvalues, 1e-9), `tangent_in_box` and the slope check of
`conjugate_maximizer` (1e-12) all read it.

This module is the kernel every command runs.  What only checks it, the
randomized property checks and the ellipticity bounds, lives in
`envma.verify`, which `verify_envelope` loads on its first call: without
cached bytecode every command compiles each line it imports.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import matrixcore as mc
from .errors import NoConvergence

_KKT_TOL = 1e-11
# the smallest theta ThetaBox accepts: theta^2 underflows below it
_THETA_MIN = float(np.sqrt(np.finfo(float).tiny))
# eigenvalues closer than this times the largest |eigenvalue| count as equal
_RUN_TOL = 1e-13


class _Frozen:
    """Base of an immutable value record: its fields are the names of
    __slots__, each set once by __init__ through object.__setattr__, and
    __init__ takes them in that order.  Records of one class with equal
    fields are equal and hash equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild a record through __init__, whose parameters
        # are its fields in order: assignment would raise
        return type(self), self._fields()


class ThetaBox(_Frozen):
    """The spectral box [theta, 1/theta] in complex dimension n.

    theta is normalized to min(theta, 1/theta) on construction so the box is
    always nonempty; theta = 1 collapses it to the single point {I}.  The
    kernel divides by theta^2, so theta must lie in [sqrt(tiny), 1/sqrt(tiny)].
    """

    __slots__ = ("theta", "n")

    def __init__(self, theta: float, n: int):
        if int(n) < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        t = float(theta)
        if not _THETA_MIN <= t <= 1.0 / _THETA_MIN:
            raise ValueError(f"theta must lie in [{_THETA_MIN:.17g}, {1.0 / _THETA_MIN:.17g}], "
                             f"got {theta}")
        object.__setattr__(self, "theta", min(t, 1.0 / t))
        object.__setattr__(self, "n", int(n))

    @property
    def hi(self) -> float:
        return 1.0 / self.theta


class EnvelopeCertificate:
    """Envelope value and optimal affine majorant of one matrix M or, each
    field stacked along a leading axis, of a stack; cert[i] is row i.

    The majorant touches the envelope at M and majorizes F on the box:

        value == Re tr(slope extract(proj M)) + intercept    (exact), and
        Re tr(slope extract(proj X)) + intercept >= F(X)     for all X in the box.

    slope = U diag(p) U^H in the eigenbasis U of extract(proj M), with the
    slope_eigs p in [theta, 1/theta] descending against mu ascending.  In
    real coordinates the pairing is tr(S X) with S = embed(slope)/2, halved
    because an embedded Hermitian matrix counts each eigenvalue twice.
    inner_max is the box point where the intercept constraint is tight.
    """

    def __init__(self, value, slope_eigs, intercept, slope, mu, inner_max):
        self.value = value              # () or (N,)
        self.slope_eigs = slope_eigs    # (n,) or (N, n)
        self.intercept = intercept      # () or (N,)
        self.slope = slope              # (n, n) or (N, n, n), complex Hermitian
        self.mu = mu                    # (n,) or (N, n)
        self.inner_max = inner_max      # (n,) or (N, n)

    def __getitem__(self, i) -> EnvelopeCertificate:
        return EnvelopeCertificate(**{name: field[i] for name, field in vars(self).items()})


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
    if not np.all(_in_box_up_to(p, box, 1e-12)):
        raise ValueError(f"slope {p} outside the box [{th:g}, {hi:g}]")
    p = np.clip(p, th, hi)
    t = float(_log_affine_root(lambda t: np.clip(t / (n * p), th, hi),
                               itertools.chain(n * p * th, n * p / th), box))
    x = np.clip(t / (n * p), th, hi)
    t = mc.geometric_mean(x)
    g = t - float(p @ x)
    # exact stationarity/rail check; concavity makes it sufficient
    grad = t / (n * x) - p
    # at theta = 1 the rails coincide: a coordinate on both is checked as on
    # the lower one, where p = 1 >= 1/n gives grad <= 0
    at_lo = x <= th
    at_hi = (x >= hi) & ~at_lo
    kkt = max(
        float(np.max(np.abs(grad[~at_lo & ~at_hi]), initial=0.0)),
        float(np.max(grad[at_lo], initial=0.0)),
        float(np.max(-grad[at_hi], initial=0.0)),
    )
    if kkt > _KKT_TOL * max(1.0, hi):
        raise NoConvergence(f"conjugate KKT residual {kkt:g} for p={p}")
    return g, x


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
        # each eigenvalue's term min(theta d, d/theta) before the sum, so a
        # partial sum leaves the float range only where the value does
        value = _row_sum(np.minimum(th * d, hi * d)) + t
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
    n = m.shape[1]
    gap = np.diff(m, axis=1)
    m_abs = np.maximum(-m[:, :1], m[:, -1:])
    scale = np.maximum(1.0, _row_sum(np.abs(p * m)))[:, np.newaxis]
    with np.errstate(over="ignore"):   # a move beyond the float range joins nothing
        same = (gap <= _RUN_TOL * m_abs) & (-np.diff(p, axis=1) * gap <= _RUN_TOL * scale)
    rows = np.flatnonzero(same.any(axis=1))
    if not rows.size:
        return p
    # the run bookkeeping only on rows with a run: the others average over
    # runs of one, which returns them unchanged
    same, p_run = same[rows], p[rows]
    run = np.concatenate([np.zeros((len(rows), 1), dtype=np.int64),
                          np.cumsum(~same, axis=1)], axis=1)
    member = run[:, :, np.newaxis] == np.arange(n)
    mean = np.einsum("ij,ijk->ik", p_run, member) / np.maximum(member.sum(axis=1), 1)
    p = p.copy()
    p[rows] = np.take_along_axis(mean, run, axis=1)
    return p


def _hermitian_parts(H_stack, box: ThetaBox) -> np.ndarray:
    """extract(proj(M)) of every matrix M of a (N, 2n, 2n) stack, validated by
    `symmetric_stack` and against the box dimension."""
    S = mc.symmetric_stack(H_stack)
    n = S.shape[1] // 2
    if n != box.n:
        raise ValueError(f"matrix has n={n} but the box has n={box.n}")
    return mc.hermitian_blocks(S)


# rows per kernel call: the per-call overhead stays small next to the work,
# and the kernel's temporaries small next to its outputs
_CERT_BLOCK = 4096


def _blocks(N: int):
    return (slice(lo, lo + _CERT_BLOCK) for lo in range(0, N, _CERT_BLOCK))


def _certify_values(Z: np.ndarray, box: ThetaBox) -> tuple[np.ndarray, tuple]:
    """(value, state) of a Hermitian stack Z (N, n, n), in blocks of
    _CERT_BLOCK rows: `herm_eigensystem`, then `_saddle_values` on its
    eigenvalues.  The eigenvectors overwrite Z; state is what
    `_certify_policy` needs."""
    N, n = Z.shape[:2]
    value, t, mu, x = np.empty(N), np.empty(N), np.empty((N, n)), np.empty((N, n))
    for rows in _blocks(N):
        mu[rows], Z[rows] = mc.herm_eigensystem(Z[rows])
        value[rows], x[rows], t[rows] = _saddle_values(mu[rows], box)
    return value, (Z, mu, x, t)


def _certify_policy(value: np.ndarray, state: tuple, box: ThetaBox) -> EnvelopeCertificate:
    """The certificates of `_certify_values`' output, in blocks: saddle
    slopes p, the exactly Hermitian Q = U diag(p) U^H of
    `herm_from_eigensystem` (equal eigenvalues get equal slopes, so Q is the
    same in any eigenbasis the eigensolver picks), which overwrites the
    eigenvectors U, and the intercepts t - p.x.  Q is written entry by
    entry from the columns of U, each term weighted by its own slope."""
    Q, mu, x, t = state
    p, c = np.empty_like(mu), np.empty_like(t)
    for rows in _blocks(len(Q)):
        p[rows] = _saddle_slopes(mu[rows], x[rows], t[rows], box)
        Q[rows] = mc.herm_from_eigensystem(Q[rows], p[rows])
        c[rows] = t[rows] - np.einsum("ij,ij->i", p[rows], x[rows])
    return EnvelopeCertificate(value=value, slope_eigs=p, intercept=c, slope=Q, mu=mu,
                               inner_max=x)


def envelope_batch(H_stack, box: ThetaBox) -> EnvelopeCertificate:
    """Ftilde and its certificate for every matrix of a (N, 2n, 2n) stack.

    F and the slope box are unitarily invariant, so a certificate depends on
    M only through the eigensystem of extract(proj(M)).
    """
    return _certify_policy(*_certify_values(_hermitian_parts(H_stack, box), box), box)


def envelope_eval(M, box: ThetaBox) -> EnvelopeCertificate:
    """Ftilde(M) with its optimality certificate (one-matrix envelope_batch)."""
    return envelope_batch(mc.as_symmetric(M)[np.newaxis], box)[0]


def tangent_slope(mu) -> np.ndarray:
    """Gradient of (prod mu)^{1/n} at mu > 0 (last axis; stacks allowed): the
    slope of the supporting plane of F.  The envelope agrees with F exactly
    where this lies in the slope box."""
    mu = np.asarray(mu, dtype=float)
    return mc.geometric_mean(mu)[..., np.newaxis] / (mu.shape[-1] * mu)


def _in_box_up_to(v, box: ThetaBox, tol: float):
    """Whether each entry of v lies in [theta (1 - tol), (1/theta)(1 + tol)]:
    the box up to a tol relative to each face, so never below its rounding."""
    return (v >= box.theta * (1.0 - tol)) & (v <= box.hi * (1.0 + tol))


def in_box(mu, box: ThetaBox):
    """Whether ascending eigenvalues mu (last axis; stacks allowed) lie in
    the box, up to a relative 1e-9."""
    return _in_box_up_to(mu[..., 0], box, 1e-9) & _in_box_up_to(mu[..., -1], box, 1e-9)


def tangent_in_box(mu, box: ThetaBox):
    """Whether the tangent slope lies in the box, up to a relative 1e-12."""
    return np.all(_in_box_up_to(tangent_slope(mu), box, 1e-12), axis=-1)


def verify_envelope(box: ThetaBox, samples: int, seed: int):
    """Randomized verification of the envelope's structural properties: the
    `envma.verify.PropertyReport` of `envma.verify.run`, imported here so
    that only the commands that verify compile the checks."""
    from . import verify

    return verify.run(box, samples, seed)
