"""Dirichlet solver for Ftilde(D^2 u) = g on rectangles in R^{2n}, n in {1, 2, 3}.

The envelope is an infimum of affine functions of the Hessian, so the
equation has Bellman form and is solved by policy iteration (Howard's
algorithm): at each interior grid point the envelope certificate of the
current discrete Hessian supplies an affine policy (slope matrix, intercept);
freezing the policy leaves the linear uniformly elliptic equation

    tr(S(x) D^2 u(x)) + c(x) = g(x),

solved with Dirichlet data by restarted GMRES, preconditioned by the exact
inverse of an axis-weighted Laplacian applied in the tensor sine basis, and
stopped at the first Krylov step that passes a true max-norm check; the two
steps alternate until the max-norm residual of the nonlinear equation meets
the tolerance.

Each iterate is certified once, in blocks of `_CERT_BLOCK` rows, on the
Hermitian parts Z = extract(proj(D^2_h u)) = A + iB built from the stencil
(`_hermitian_stack`): the values are the residual, and the next policy is
formed only when another iteration follows.  A policy keeps the Hermitian
slope Q per point, and the frozen equation reads tr(S D^2_h u) as
Re tr(Q Z), the same pairing with S = embed(Q)/2.

The discrete Hessian D^2_h is written down once, in Hermitian coordinates:
the n^2 real coordinates of Z, each as symmetric (shift, weight) stencil
terms (`_hessian_stencil`), a shift being a tuple of per-axis offsets; a
term reads the grid values on the interior block moved by +shift and by
-shift, so only interior points are computed.  Z is those terms applied to
the grid values; the frozen-policy operator folds them, weighted by the
entries of Q, into one interior-shaped coefficient field per distinct shift,
applied matrix-free (`_StencilOperator`).  Everything is numpy.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .envelope import ThetaBox, _certify, _policy, tangent_in_box
from .errors import LinearSolveFailure

@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on the rectangle [lo, hi] in R^{2n}."""

    n: int
    lo: tuple
    hi: tuple
    points_per_axis: int

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "points_per_axis", int(self.points_per_axis))
        d = 2 * self.n
        if len(lo) != d or len(hi) != d:
            raise ValueError(f"domain corners must have length {d}")
        if any(not l < h for l, h in zip(lo, hi)):
            raise ValueError("domain corners must satisfy lo < hi per axis")
        if self.points_per_axis < 5:
            raise ValueError("pointsPerAxis must be >= 5 (3 interior points per axis)")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    def interior(self, shift=None) -> tuple:
        """Index of the interior block in a grid array, moved by `shift`
        (per-axis offsets in {-1, 0, 1}) if one is given."""
        P = self.points_per_axis
        return tuple(slice(1 + o, P - 1 + o) for o in shift or (0,) * self.dim)

    @property
    def interior_shape(self) -> tuple:
        return (self.points_per_axis - 2,) * self.dim

    @property
    def spacing(self) -> np.ndarray:
        P = self.points_per_axis
        return np.array([(h - l) / (P - 1) for l, h in zip(self.lo, self.hi)])

    def axis_coords(self, a: int) -> np.ndarray:
        return np.linspace(self.lo[a], self.hi[a], self.points_per_axis)

    def mesh(self) -> list[np.ndarray]:
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class ScalarField:
    """Grid function; the boundary layer carries Dirichlet data."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        self.values = v

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        mesh = grid.mesh()
        return cls(grid, np.asarray(fn(*mesh), dtype=float) * np.ones(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass
class PolicyField:
    """Frozen Bellman policy: per interior point a slope + intercept.

    Slope eigenvalues live in the box [theta, 1/theta].  The slope is kept as
    the Hermitian Q = U diag(p) U^H; the policy's affine map of a Hessian M is
    Re tr(Q extract(proj M)) + intercept, the pairing tr(S M) with the
    slope matrix S = embed(Q)/2 of EnvelopeCertificate.
    """

    grid: GridSpec
    hermitian_slopes: np.ndarray   # (n_interior, n, n) complex
    intercepts: np.ndarray         # (n_interior,)
    slope_eigs: np.ndarray         # (n_interior, n)


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("inf")
    residual_history: list = field(default_factory=list)
    krylov_steps: list = field(default_factory=list)   # per Howard iteration, over its cycles
    wall_time_s: float = 0.0
    residual: ScalarField | None = None   # Ftilde(D^2 u) - g of the returned u


def transfinite_interpolation(boundary: ScalarField) -> np.ndarray:
    """Multilinear blend of the boundary faces; used as the initial iterate.

    The Boolean sum f - prod_a (I - P_a) f, where f is the boundary data
    with the interior set to 0 and P_a blends linearly between the two
    faces normal to axis a: one pass per axis instead of the 3^d - 1
    inclusion-exclusion terms it expands to.
    """
    grid = boundary.grid
    xi = np.linspace(0.0, 1.0, grid.points_per_axis)
    f = boundary.values.copy()
    f[grid.interior()] = 0.0
    rest = f
    for a in range(grid.dim):
        w = xi.reshape([-1 if b == a else 1 for b in range(grid.dim)])
        first, last = np.take(rest, [0], axis=a), np.take(rest, [-1], axis=a)
        rest = rest - ((1.0 - w) * first + w * last)
    return f - rest


@functools.lru_cache(maxsize=8)
def _hessian_stencil(grid: GridSpec) -> tuple:
    """The discrete complex Hessian Z = extract(proj(D^2_h u)) = A + iB as
    pairs ((part, i, j), `_StencilOperator`), one per real coordinate of Z:
    A_ij = (H_ij + H_{n+i,n+j})/2 for i <= j (part 0) and
    B_ij = (H_{j,n+i} - H_{i,n+j})/2 for i < j (part 1), H_ab being entry
    (a, b) of the real D^2_h.  A coordinate at an interior point is the sum
    of weight * (u[+shift] + u[-shift]) over the (shift, weight) pairs of its
    operator, a shift being a tuple of per-axis offsets in {-1, 0, 1}.  H_ab
    is the centered second difference on the diagonal and the product of
    centered first differences (the 4-point cross stencil) off it, exact for
    quadratics; its terms enter a coordinate halved, equal shifts merged.
    """
    n, d, h = grid.n, grid.dim, grid.spacing
    unit = [tuple(int(a == b) for b in range(d)) for a in range(d)]

    def real_entry(a, b):   # entry (a, b), a <= b, of D^2_h as {shift: weight}
        if a == b:
            return {(0,) * d: -1.0 / h[a] ** 2, unit[a]: 1.0 / h[a] ** 2}
        return {tuple(i + sb * j for i, j in zip(unit[a], unit[b])):
                (0.5 / h[a]) * (sb * 0.5 / h[b]) for sb in (1, -1)}

    def halves(*signed_entries):
        terms = {}
        for sign, entry in signed_entries:
            for shift, weight in entry.items():
                terms[shift] = terms.get(shift, 0.0) + sign * 0.5 * weight
        return _StencilOperator(grid, tuple(terms), tuple(terms.values()))

    stencil = []
    for i in range(n):
        for j in range(i, n):
            stencil.append(((0, i, j), halves((1, real_entry(i, j)),
                                              (1, real_entry(n + i, n + j)))))
            if i < j:
                stencil.append(((1, i, j), halves((1, real_entry(j, n + i)),
                                                  (-1, real_entry(i, n + j)))))
    return tuple(stencil)


def _hermitian_stack(u: ScalarField) -> np.ndarray:
    """Z = extract(proj(D^2_h u)) = A + iB at the interior points, (N, n, n):
    each coordinate of `_hessian_stencil` applied to the grid values."""
    grid, n = u.grid, u.grid.n
    Z = np.zeros((int(np.prod(grid.interior_shape)), n, n), dtype=complex)
    for (part, i, j), coordinate in _hessian_stencil(grid):
        z = (Z.real, Z.imag)[part]
        z[:, i, j] = coordinate.apply(u.values)
        z[:, j, i] = -z[:, i, j] if part else z[:, i, j]
    return Z


# rows per envelope-core call: the per-call overhead stays small next to the
# work, and the core's temporaries small next to its outputs
_CERT_BLOCK = 4096


def _blocks(N: int):
    return (slice(lo, lo + _CERT_BLOCK) for lo in range(0, N, _CERT_BLOCK))


def _certify_values(Z: np.ndarray, box: ThetaBox) -> tuple[np.ndarray, tuple]:
    """(value, state) of the Hermitian stack Z, in blocks; the eigenvectors
    overwrite Z, and state is what `_certify_policy` needs."""
    N, n = Z.shape[:2]
    value, t, mu, x = np.empty(N), np.empty(N), np.empty((N, n)), np.empty((N, n))
    for rows in _blocks(N):
        value[rows], x[rows], t[rows], mu[rows], Z[rows] = _certify(Z[rows], box)
    return value, (Z, mu, x, t)


def _certify_policy(grid: GridSpec, state: tuple, box: ThetaBox) -> PolicyField:
    """The policy of `_certify_values`' state; Q overwrites the eigenvectors."""
    Q, mu, x, t = state
    p, c = np.empty_like(mu), np.empty_like(t)
    for rows in _blocks(len(Q)):
        p[rows], Q[rows], c[rows] = _policy(mu[rows], Q[rows], x[rows], t[rows], box)
    return PolicyField(grid, Q, c, p)


def _check_box(grid: GridSpec, box: ThetaBox) -> None:
    if box.n != grid.n:
        raise ValueError(f"grid has n={grid.n} but the box has n={box.n}")


def _residual_of(u: ScalarField, g: ScalarField, values: np.ndarray) -> ScalarField:
    """Envelope values at the interior points minus g; zero on the boundary."""
    grid = u.grid
    out = np.zeros(grid.shape)
    out[grid.interior()] = values.reshape(grid.interior_shape) - g.values[grid.interior()]
    return ScalarField(grid, out)


def residual_field(u: ScalarField, g: ScalarField, box: ThetaBox) -> ScalarField:
    """Ftilde(D^2 u) - g at interior points; zero on the boundary layer."""
    if u.grid != g.grid:
        raise ValueError("u and g live on different grids")
    _check_box(u.grid, box)
    return _residual_of(u, g, _certify_values(_hermitian_stack(u), box)[0])


@dataclass(frozen=True)
class _StencilOperator:
    """Matrix-free x -> sum_k coeffs[k] * (x^[+shifts[k]] + x^[-shifts[k]])
    at the interior points (shifts as in `_hessian_stencil`), where x^ is x
    padded with a zero boundary layer."""

    grid: GridSpec
    shifts: tuple
    coeffs: np.ndarray   # (len(shifts),) + grid.interior_shape, or one number per shift

    @functools.cached_property
    def neighbours(self) -> tuple:
        """Per shift, the interior block moved by +shift and by -shift."""
        return tuple((self.grid.interior(s), self.grid.interior([-o for o in s]))
                     for s in self.shifts)

    def apply(self, values: np.ndarray, absolute: bool = False) -> np.ndarray:
        """The operator on a full grid array, boundary layer included; with
        `absolute`, the operator |A| of the coefficients' absolute values,
        each taken in turn into one scratch field."""
        out = np.zeros(self.grid.interior_shape)
        term = np.empty_like(out)
        abs_c = np.empty_like(out) if absolute else None
        for (plus, minus), c in zip(self.neighbours, self.coeffs):
            if absolute:
                c = np.abs(c, out=abs_c)
            out += np.multiply(c, np.add(values[plus], values[minus], out=term), out=term)
        return out.reshape(-1)

    def _padded(self, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.grid.shape)
        padded[self.grid.interior()] = x.reshape(self.grid.interior_shape)
        return padded

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(self._padded(x))

    def abs_matmul(self, x: np.ndarray) -> np.ndarray:
        """|A| |x|, with no copy of the coefficient fields."""
        return self.apply(self._padded(np.abs(x)), absolute=True)


def _frozen_policy(grid: GridSpec, Q: np.ndarray, rhs: np.ndarray,
                   boundary_values: np.ndarray) -> tuple[_StencilOperator, np.ndarray]:
    """System A x = b for Re tr(Q(x) Z(x)) = rhs(x) with Dirichlet data, where
    Q (N, n, n) is the Hermitian slope at every interior point and
    Z = A + iB = extract(proj(D^2_h u)).

    Re tr(Q Z) = sum over i <= j of w (Re Q_ij A_ij + Im Q_ij B_ij), with
    w = 1 on the diagonal and 2 off it, so each term (shift, weight) of
    coordinate A_ij (B_ij) of `_hessian_stencil` adds w Re Q_ij * weight
    (w Im Q_ij * weight) to the field of its shift (13 distinct shifts at
    n = 2).  A applies them to the interior values; the same sum over the
    boundary values moves to b.  Each entry of A is one field at one point
    (twice it at shift 0), so |A| is the fields' absolute values.  The fields
    are summed in place in one array, shifts in first-appearance order.
    """
    stencil = _hessian_stencil(grid)
    shifts = tuple(dict.fromkeys(shift for _, coord in stencil for shift in coord.shifts))
    fields = np.zeros((len(shifts),) + grid.interior_shape)
    for (part, i, j), coordinate in stencil:
        q = (1.0 if i == j else 2.0) * (Q.real, Q.imag)[part][:, i, j].reshape(grid.interior_shape)
        for shift, weight in zip(coordinate.shifts, coordinate.coeffs):
            fields[shifts.index(shift)] += q * weight
    A = _StencilOperator(grid, shifts, fields)
    boundary = boundary_values.copy()
    boundary[grid.interior()] = 0.0
    return A, rhs - A.apply(boundary)


# one GMRES cycle is this many steps; an evaluation that has not met its
# target after _MAX_GMRES_CYCLES cycles is a LinearSolveFailure
_GMRES_RESTART = 20
_MAX_GMRES_CYCLES = 50


@functools.lru_cache(maxsize=8)
def _sine_basis(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of the Dirichlet second difference.

    With m = P - 2 interior points per axis, Phi[j, k] = sqrt(2/(m+1))
    sin(pi j k/(m+1)) is symmetric and orthogonal and diagonalizes the
    centered second difference on every axis; eigs[a, k] is its eigenvalue
    -4/h_a^2 sin^2(pi k/(2(m+1))) on axis a.
    """
    m = grid.points_per_axis - 2
    k = np.arange(1, m + 1)
    phi = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    eigs = -4.0 * np.sin(np.pi * k / (2 * (m + 1))) ** 2 / grid.spacing[:, np.newaxis] ** 2
    return phi, eigs


def _laplacian_inverse(grid: GridSpec, weights: np.ndarray):
    """Exact inverse of the Dirichlet operator sum_a weights[a] * D^2_{h,a}.

    The operator is diagonal in the tensor sine basis, with eigenvalues
    Lambda(k) = sum_a weights[a] * eigs[a, k_a], so its inverse is
    Phi^{(x)d} [(Phi^{(x)d} r) / Lambda]: d small matrix products per
    transform, on interior values in lexicographic order.
    """
    phi, eigs = _sine_basis(grid)
    d, m = eigs.shape
    lam = np.zeros((m,) * d)
    for a in range(d):
        lam += weights[a] * eigs[a].reshape((m,) + (1,) * (d - 1 - a))
    lam = lam.reshape(-1)

    def transform(v):
        for _ in range(d):   # each product contracts the last axis and puts its result first
            v = phi @ v.reshape(-1, m).T
        return v.reshape(-1)

    return lambda r: transform(transform(r) / lam)


class _Target:
    """max(1e-2 tol, 8 eps max(|A| |x| + |b|)), the bound on max|A x - b| that
    ends a policy evaluation; the second term, the round-off of the terms
    summed in A x - b, grows like |S| / h^2.  `value` is the bound at the last
    x checked (at x0 before).  An estimate of max|A x - b| earns a check when
    `slack` times it meets `value`; each failed check multiplies `slack` by 10."""

    def __init__(self, A: _StencilOperator, b: np.ndarray, tol: float, x0: np.ndarray):
        self.A, self.abs_b, self.tol = A, np.abs(b), tol
        self.value, self.slack = self.at(x0), 1.0

    def at(self, x: np.ndarray) -> float:
        floor = 8.0 * np.finfo(float).eps * float(np.max(self.A.abs_matmul(x) + self.abs_b))
        return max(1e-2 * self.tol, floor)

    def predicted_by(self, estimate: float) -> bool:
        return self.slack * estimate <= self.value

    def met_at(self, x: np.ndarray, r: np.ndarray) -> bool:
        """The true check of x, r = b - A x, against the bound at x."""
        self.value = self.at(x)
        if float(np.max(np.abs(r))) <= self.value:
            return True
        self.slack *= 10.0
        return False


def _gmres_cycle(A: _StencilOperator, b: np.ndarray, x: np.ndarray, r: np.ndarray,
                 precondition, target: _Target) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """One cycle of left-preconditioned GMRES(_GMRES_RESTART) from x, r = b - A x
    (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986): modified Gram-Schmidt
    Arnoldi on M A from M r.  Givens rotations keep the Hessenberg matrix
    triangular, so step k gives |g_k| = min |M (b - A .)| over the Krylov space
    for free, and |g_k| max|r| / |M r| estimates max|b - A x_k|; x_k is formed
    and checked only where that predicts `target`.  Returns (x, b - A x, steps,
    passed) at the first x_k that passes, after _GMRES_RESTART steps, or when
    the space is invariant."""
    z = precondition(r)
    beta = np.linalg.norm(z)
    if not beta > 0.0:   # exact already, or non-finite: one true check decides
        return x, r, 0, target.met_at(x, r)
    scale = float(np.max(np.abs(r))) / beta
    V = np.empty((_GMRES_RESTART + 1, len(b)))
    R = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART))   # the rotated Hessenberg matrix
    g = np.zeros(_GMRES_RESTART + 1)
    g[0], V[0] = beta, z / beta
    rotations = []
    for k in range(1, _GMRES_RESTART + 1):   # k basis vectors in use
        w = precondition(A @ V[k - 1])
        h = R[:k + 1, k - 1]
        for i in range(k):
            h[i] = V[i] @ w
            w -= h[i] * V[i]
        h[k] = np.linalg.norm(w)
        invariant = h[k] <= np.finfo(float).eps * np.linalg.norm(h)   # |w| before
        if not invariant:
            V[k] = w / h[k]
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = np.hypot(h[k - 1], h[k])
        c, s = (h[k - 1] / rho, h[k] / rho) if rho > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        h[k - 1], h[k] = rho, 0.0
        g[k], g[k - 1] = -s * g[k - 1], c * g[k - 1]
        predicted = target.predicted_by(abs(g[k]) * scale)
        if predicted or invariant or k == _GMRES_RESTART:
            # the rank cutoff keeps a singular A from sending x_k to infinity
            y = np.linalg.lstsq(R[:k, :k], g[:k], rcond=None)[0]
            x_k = x + y @ V[:k]
            r_k = b - A @ x_k
            if predicted and target.met_at(x_k, r_k):
                return x_k, r_k, k, True
            if invariant or k == _GMRES_RESTART:
                return x_k, r_k, k, False


def _evaluate_policy(grid: GridSpec, A: _StencilOperator, b: np.ndarray, x0: np.ndarray,
                     Q: np.ndarray, tol: float, steps: list | None = None) -> np.ndarray:
    """Solve the frozen-policy system A x = b of the Hermitian slopes Q by
    preconditioned GMRES.

    Every slope has eigenvalues in [theta, 1/theta], so Re tr(Q Z) is a
    bounded distortion of a constant-coefficient Laplacian; GMRES is
    preconditioned by the exact inverse of the Laplacian whose weight on
    both real axes of complex coordinate i is the mean of Re Q_ii / 2 over
    the interior points.
    Cycles, warm-started at x0, run until one returns an x that passed the
    true check against `_Target`.  The Krylov steps of all cycles, summed, are
    appended to `steps` if it is a list.
    """
    weights = np.mean(Q.real.diagonal(axis1=1, axis2=2), axis=0) / 2.0
    M = _laplacian_inverse(grid, np.concatenate([weights, weights]))
    target = _Target(A, b, tol, x0)
    x, r, taken = x0, b - A @ x0, 0
    for _ in range(_MAX_GMRES_CYCLES):
        x, r, k, passed = _gmres_cycle(A, b, x, r, M, target)
        taken += k
        if passed:
            if steps is not None:
                steps.append(taken)
            return x
        if k == 0:   # M r is zero or non-finite, and x failed its check
            break
    raise LinearSolveFailure(f"GMRES left max|Ax - b| = {float(np.max(np.abs(r))):.3g} "
                             f"above {target.value:.3g}")


def solve_dirichlet(grid: GridSpec, boundary: ScalarField, g: ScalarField,
                    box: ThetaBox, max_iter: int = 100,
                    tol: float = 1e-10) -> tuple[ScalarField, PolicyField, SolveReport]:
    """Policy iteration for Ftilde(D^2 u) = g with Dirichlet data.

    Alternates policy improvement (envelope certificates at every interior
    point) with policy evaluation (one linear elliptic solve for the frozen
    affine policy) until the max-norm residual of the nonlinear equation is
    at most `tol`.  Each iteration certifies the new Hessians once: the
    values give the residual and, only when another iteration follows, the
    slopes and intercepts give the next policy.  The frozen-policy
    coefficient matrices have spectrum in [theta/2, 1/(2 theta)], so each
    evaluation is well posed.  Raises ValueError, before any work, when the
    box and the grid differ in n.  On hitting
    `max_iter` the best iterate is returned with report.converged = False;
    report.residual is the residual field of the returned iterate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"maxIter must be >= 1, got {max_iter}")
    if not np.all(np.isfinite(boundary.values)) or not np.all(np.isfinite(g.values)):
        raise ValueError("boundary and right-hand side must be finite")
    _check_box(grid, box)
    start = time.perf_counter()
    u = ScalarField(grid, transfinite_interpolation(boundary))
    core = grid.interior()
    report = SolveReport()
    best = None

    policy = _certify_policy(grid, _certify_values(_hermitian_stack(u), box)[1], box)
    for it in range(1, max_iter + 1):
        rhs = g.values[core].reshape(-1) - policy.intercepts
        A, b = _frozen_policy(grid, policy.hermitian_slopes, rhs, boundary.values)
        x = _evaluate_policy(grid, A, b, u.values[core].reshape(-1), policy.hermitian_slopes,
                             tol, report.krylov_steps)
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("non-finite values in the policy evaluation solve")
        u.values[core] = x.reshape(grid.interior_shape)

        value, state = _certify_values(_hermitian_stack(u), box)
        residual = _residual_of(u, g, value)
        res = float(np.max(np.abs(residual.values)))
        report.residual_history.append(res)
        report.iterations = it
        if best is None or res < best[0]:
            best = (res, u.values.copy(), policy, residual)
        if res <= tol:
            report.converged = True
            break
        if it < max_iter:
            policy = _certify_policy(grid, state, box)
    report.final_residual = best[0]
    report.residual = best[3]
    report.wall_time_s = time.perf_counter() - start
    return ScalarField(grid, best[1]), best[2], report


@dataclass(frozen=True)
class ConvergenceRow:
    points_per_axis: int
    h: float
    max_error: float
    observed_order: float | None


def convergence_study(make_problem, refinements) -> list[ConvergenceRow]:
    """Solve at each refinement and report max errors and observed orders.

    `make_problem(points_per_axis)` must return a tuple
    (grid, boundary, g, box, exact_field, solver_kwargs).
    """
    rows = []
    prev = None
    for P in refinements:
        grid, boundary, g, box, exact, kwargs = make_problem(int(P))
        u, _, report = solve_dirichlet(grid, boundary, g, box, **kwargs)
        err = float(np.max(np.abs(u.values - exact.values)))
        h = float(np.max(grid.spacing))
        order = None
        if prev is not None and err > 0.0 and prev[1] > 0.0:
            order = float(np.log2(prev[1] / err) / np.log2(prev[0] / h))
        rows.append(ConvergenceRow(int(P), h, err, order))
        prev = (h, err)
    return rows


@dataclass(frozen=True)
class MembershipReport:
    theta: float
    fraction_in_box: float
    min_eig: float
    max_eig: float
    outside_tangency: int


def check_premises(u: ScalarField, lam: float, Lam: float,
                   tol: float = 1e-9) -> MembershipReport:
    """Box membership of the discrete Hessian field.

    For theta = min(lambda, 1/Lambda), reports the fraction of interior
    points whose Hessian projection has spectrum in [theta, 1/theta], the
    extremal projected eigenvalues over the grid, and the number of points
    outside the tangency region, where that spectrum or the tangent slope of
    F leaves the box, so that F(D^2_h u) need not be Ftilde(D^2_h u).
    """
    theta = mc.admissible_theta(lam, Lam)
    mu = mc.herm_eigenvalues(_hermitian_stack(u))
    inside = (mu[:, 0] >= theta - tol) & (mu[:, -1] <= 1.0 / theta + tol)
    tangent = inside.copy()
    tangent[inside] = tangent_in_box(mu[inside], ThetaBox(theta, u.grid.n))
    return MembershipReport(theta, float(np.mean(inside)), float(np.min(mu[:, 0])),
                            float(np.max(mu[:, -1])), int(np.sum(~tangent)))


# ---------------------------------------------------------------------------
# built-in manufactured problems
# ---------------------------------------------------------------------------

def builtin_solution(name: str, n: int):
    """Named manufactured solution: returns (u_exact, rhs) callables on the
    2n real coordinates.

    * quadratic:       u = sum x_i^2,     rhs = 2
    * quartic_radial:  u = |x|^4 / 4,     rhs = 2^{1/n} |x|^2

    Each rhs is F(D^2 u).  It equals Ftilde(D^2 u), so that u solves the
    Ftilde equation, only in the tangency region: where the Hermitian
    eigenvalues of D^2 u and those of the tangent slope of F there all lie
    in [theta, 1/theta].
    * quadratic: the eigenvalues are 2 and 1/n (each n times), so this
      holds everywhere iff theta <= min(1/2, 1/n).
    * quartic_radial: they are 2|x|^2 and 2^{1/n}/(2n) (once each) and
      |x|^2 and 2^{1/n}/n (n - 1 times each), so it holds at no point of
      [-1, 1]^4 at n = 2, theta = 0.4 (every certificate rails) and
      everywhere on [1, 2]^2 at n = 1, theta = 1/16.
    """
    if name == "quadratic":
        def u_fn(*xs):
            return sum(x**2 for x in xs)

        def g_fn(*xs):
            return 2.0 + 0.0 * xs[0]

        return u_fn, g_fn
    if name == "quartic_radial":
        factor = 2.0 ** (1.0 / n)

        def u_fn(*xs):
            r2 = sum(x**2 for x in xs)
            return r2**2 / 4.0

        def g_fn(*xs):
            r2 = sum(x**2 for x in xs)
            return factor * r2

        return u_fn, g_fn
    raise ValueError(f"unknown built-in solution {name!r}")
