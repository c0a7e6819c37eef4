"""Dirichlet solver for Ftilde(D^2 u) = g on rectangles in R^{2n}, any n >= 1.

The envelope is an infimum of affine functions of the Hessian, so the
equation has Bellman form and is solved by policy iteration (Howard's
algorithm): at each interior grid point the envelope certificate of the
current discrete Hessian supplies an affine policy (slope, intercept);
freezing the policy leaves the linear uniformly elliptic equation

    tr(S(x) D^2 u(x)) + c(x) = g(x),

solved with Dirichlet data by restarted GMRES, preconditioned by the exact
inverse of an axis-weighted Laplacian applied in the tensor sine basis, and
stopped at the first Krylov step that passes a true max-norm check; the two
steps alternate until the max-norm residual of the nonlinear equation meets
the tolerance.  Howard's iteration is a semismooth Newton method, so the
Howard loop picks how accurately each policy is evaluated: loosely while the
nonlinear residual is large, as tightly as the tolerance needs at the end
(quadratic forcing, `solve_dirichlet`); the linear solver meets that
accuracy or its own round-off floor, whichever is larger (`_Target`).

Each iterate is certified once, by the envelope's kernel driver, on the
Hermitian parts Z = extract(proj(D^2_h u)) = A + iB built from the stencil
(`_hermitian_stack`): the values are the residual, and the next policy is
formed only when another iteration follows.  A policy is the
EnvelopeCertificate of the iterate: per point a Hermitian slope Q and an
intercept, and the frozen equation reads tr(S D^2_h u) as Re tr(Q Z), the
same pairing with S = embed(Q)/2.

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
from typing import NamedTuple

import numpy as np

from . import matrixcore as mc
from .envelope import (EnvelopeCertificate, ThetaBox, _certify_policy, _certify_values,
                       _Frozen, tangent_in_box)
from .errors import LinearSolveFailure


class GridSpec(_Frozen):
    """Uniform tensor grid on the rectangle [lo, hi] in R^{2n}: an immutable
    value, the cache key of `_hessian_stencil` and `_sine_basis`."""

    __slots__ = ("n", "lo", "hi", "points_per_axis")

    def __init__(self, n: int, lo, hi, points_per_axis: int):
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "points_per_axis", int(points_per_axis))
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


class ScalarField:
    """Grid function; the boundary layer carries Dirichlet data."""

    def __init__(self, grid: GridSpec, values):
        v = np.asarray(values, dtype=float)
        if v.shape != grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {grid.shape}")
        self.grid, self.values = grid, v

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        mesh = grid.mesh()
        return cls(grid, np.asarray(fn(*mesh), dtype=float) * np.ones(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


class SolveReport:
    """What `solve_dirichlet` reports besides the solution and its policy."""

    def __init__(self):
        self.iterations = 0
        self.converged = False
        self.final_residual = float("inf")
        self.residual_history = []
        self.krylov_steps = []                       # per Howard iteration, over its cycles
        self.wall_time_s = 0.0
        self.residual: ScalarField | None = None     # Ftilde(D^2 u) - g of the returned u


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


def _residual_of(u: ScalarField, g: ScalarField, values: np.ndarray) -> ScalarField:
    """Envelope values at the interior points minus g; zero on the boundary."""
    grid = u.grid
    out = np.zeros(grid.shape)
    out[grid.interior()] = values.reshape(grid.interior_shape) - g.values[grid.interior()]
    return ScalarField(grid, out)


class _StencilOperator:
    """Matrix-free x -> sum_k coeffs[k] * (x^[+shifts[k]] + x^[-shifts[k]])
    at the interior points (shifts as in `_hessian_stencil`), where x^ is x
    padded with a zero boundary layer."""

    def __init__(self, grid: GridSpec, shifts: tuple, coeffs):
        self.grid, self.shifts = grid, shifts
        self.coeffs = coeffs   # (len(shifts),) + grid.interior_shape, or one number per shift

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
    """max(accuracy, 8 eps max(|A| |x| + |b|)), the bound on max|A x - b| that
    ends a policy evaluation: `accuracy` is what the Howard loop asks of this
    evaluation, and the second term, the round-off of the terms summed in
    A x - b, grows like |S| / h^2.  `value` is the bound at the last x checked
    (at x0 before).  An estimate of max|A x - b| earns a check when `slack`
    times it meets `value`; each failed check multiplies `slack` by 10."""

    def __init__(self, A: _StencilOperator, b: np.ndarray, accuracy: float, x0: np.ndarray):
        self.A, self.abs_b, self.accuracy = A, np.abs(b), accuracy
        # the round-off term at x is at most 8 eps (2 sum_k max|c_k| max|x| + max|b|);
        # the factor makes the computed bound dominate the rounding of both sides
        eps = np.finfo(float).eps
        coarse = 8.0 * eps * (1.0 + 8.0 * (len(A.shifts) + 1) * eps)
        fields = A.coeffs.reshape(len(A.shifts), -1)   # max|c_k| without an |A| copy
        max_abs = np.maximum(np.max(fields, axis=1), -np.min(fields, axis=1))
        self.coarse_x = coarse * 2.0 * float(np.sum(max_abs))
        self.coarse_b = coarse * float(np.max(self.abs_b))
        self.value, self.slack = self.at(x0), 1.0

    def at(self, x: np.ndarray) -> float:
        """The bound at x; the |A| |x| pass runs only where the coarse bound
        on the round-off term exceeds `accuracy`."""
        if self.coarse_x * float(np.max(np.abs(x))) + self.coarse_b <= self.accuracy:
            return self.accuracy
        floor = 8.0 * np.finfo(float).eps * float(np.max(self.A.abs_matmul(x) + self.abs_b))
        return max(self.accuracy, floor)

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
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite beta is decided below
        z = precondition(r)
        # |z| of z scaled by a power of two, which is exact, so no square overflows
        e = np.frexp(np.max(np.abs(z)))[1]
        beta = float(np.ldexp(np.linalg.norm(np.ldexp(z, -e)), e))
    if not 0.0 < beta < np.inf:   # exact already, or non-finite: one true check decides
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
                     Q: np.ndarray, accuracy: float, steps: list) -> np.ndarray:
    """Solve the frozen-policy system A x = b of the Hermitian slopes Q by
    preconditioned GMRES, to max|A x - b| <= `accuracy` (the caller's
    choice) or the round-off floor of `_Target`, whichever is larger.

    Every slope has eigenvalues in [theta, 1/theta], so Re tr(Q Z) is a
    bounded distortion of a constant-coefficient Laplacian; GMRES is
    preconditioned by the exact inverse of the Laplacian whose weight on
    both real axes of complex coordinate i is the mean of Re Q_ii / 2 over
    the interior points.
    Cycles, warm-started at x0, run until one returns an x that passed the
    true check against `_Target`.  The Krylov steps of all cycles, summed, are
    appended to `steps`.
    """
    weights = np.mean(Q.real.diagonal(axis1=1, axis2=2), axis=0) / 2.0
    M = _laplacian_inverse(grid, np.concatenate([weights, weights]))
    target = _Target(A, b, accuracy, x0)
    x, r, taken = x0, b - A @ x0, 0
    for _ in range(_MAX_GMRES_CYCLES):
        x, r, k, passed = _gmres_cycle(A, b, x, r, M, target)
        taken += k
        if passed:
            steps.append(taken)
            return x
        if k == 0:   # M r is zero or non-finite, and x failed its check
            break
    raise LinearSolveFailure(f"GMRES left max|Ax - b| = {float(np.max(np.abs(r))):.3g} "
                             f"above {target.value:.3g}")


# evaluation k is solved to _FORCING r_{k-1} min(1, r_{k-1} / r_0), r_j being
# the max residual of iterate j: quadratic forcing, which keeps Newton's
# quadratic rate (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982)
_FORCING = 1e-3


def solve_dirichlet(grid: GridSpec, boundary: ScalarField, g: ScalarField,
                    box: ThetaBox, max_iter: int = 100,
                    tol: float = 1e-10) -> tuple[ScalarField, EnvelopeCertificate, SolveReport]:
    """Policy iteration for Ftilde(D^2 u) = g with Dirichlet data.

    Alternates policy improvement (envelope certificates at every interior
    point) with policy evaluation (one linear elliptic solve for the frozen
    affine policy) until the max-norm residual of the nonlinear equation is
    at most `tol`.  Each iteration certifies the new Hessians once: the
    values give the residual and, only when another iteration follows, the
    slopes and intercepts give the next policy.  The frozen-policy
    coefficient matrices have spectrum in [theta/2, 1/(2 theta)], so each
    evaluation is well posed.

    Howard's iteration is a semismooth Newton method, so the loop, not the
    linear solver, picks how accurately each frozen policy is evaluated:
    evaluation k is asked for max|A x - b| <= max(1e-2 tol, _FORCING r_{k-1}
    min(1, r_{k-1} / r_0)), with r_0 the max residual of the transfinite
    start and r_{k-1} that of the current iterate; a zero or non-finite
    r_0 gives 1e-2 tol throughout.  Convergence is still decided by the
    certified residual alone.

    `max_iter` and `tol` default to the values a config without maxIter or
    tol gets: the CLI passes only the keys a config sets.  Raises
    ValueError, before any work, when boundary or g lives on a grid other
    than `grid`, or when the box and the grid differ in n, and before the
    first policy evaluation when the discrete Hessian of the start is not
    finite (finite data whose differences or 1/h^2 overflow).  On hitting
    `max_iter` the best iterate is returned with report.converged = False;
    report.residual is the residual field of the returned iterate, and the
    returned policy (one row per interior point) the one it was solved with.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"maxIter must be >= 1, got {max_iter}")
    if not np.all(np.isfinite(boundary.values)) or not np.all(np.isfinite(g.values)):
        raise ValueError("boundary and right-hand side must be finite")
    for name, field in (("boundary", boundary), ("g", g)):
        if field.grid != grid:
            raise ValueError(f"{name} lives on {field.grid!r}, not on the solve's grid {grid!r}")
    if box.n != grid.n:
        raise ValueError(f"grid has n={grid.n} but the box has n={box.n}")
    start = time.perf_counter()
    u = ScalarField(grid, transfinite_interpolation(boundary))
    core = grid.interior()
    report = SolveReport()
    best = None

    g_core = g.values[core].reshape(-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked below
        Z = _hermitian_stack(u)
    if not np.all(np.isfinite(Z)):
        raise ValueError("the discrete Hessian of the start is not finite: the boundary "
                         "data is too large, or the grid spacing too small, for floats")
    value, state = _certify_values(Z, box)
    res = r0 = float(np.max(np.abs(value - g_core)))
    for it in range(1, max_iter + 1):
        policy = _certify_policy(value, state, box)
        rhs = g_core - policy.intercept
        A, b = _frozen_policy(grid, policy.slope, rhs, boundary.values)
        # no forcing from a zero or non-finite r_0, nor from a non-finite product
        forced = _FORCING * res * min(1.0, res / r0) if 0.0 < r0 < np.inf else 0.0
        accuracy = max(1e-2 * tol, forced if forced < np.inf else 0.0)
        x = _evaluate_policy(grid, A, b, u.values[core].reshape(-1), policy.slope,
                             accuracy, report.krylov_steps)
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("non-finite values in the policy evaluation solve")
        u.values[core] = x.reshape(grid.interior_shape)

        value, state = _certify_values(_hermitian_stack(u), box)
        res = float(np.max(np.abs(value - g_core)))
        report.residual_history.append(res)
        report.iterations = it
        if best is None or res < best[0]:
            best = (res, u.values.copy(), policy, value)
        if res <= tol:
            report.converged = True
            break
    report.final_residual = best[0]
    report.residual = _residual_of(u, g, best[3])
    report.wall_time_s = time.perf_counter() - start
    return ScalarField(grid, best[1]), best[2], report


class ConvergenceRow(NamedTuple):
    points_per_axis: int
    h: float
    max_error: float
    observed_order: float | None


def convergence_study(problems, box: ThetaBox, **solver_kwargs) -> list[ConvergenceRow]:
    """Solve each problem (grid, exact, g) in turn, with the exact solution
    `exact` as boundary data, and report max errors against it and observed
    orders; solver_kwargs go to `solve_dirichlet`.  Builds no field.
    """
    rows = []
    prev = None
    for grid, exact, g in problems:
        u, _, _ = solve_dirichlet(grid, exact, g, box, **solver_kwargs)
        err = float(np.max(np.abs(u.values - exact.values)))
        h = float(np.max(grid.spacing))
        order = None
        if prev is not None and err > 0.0 and prev[1] > 0.0:
            order = float(np.log2(prev[1] / err) / np.log2(prev[0] / h))
        rows.append(ConvergenceRow(grid.points_per_axis, h, err, order))
        prev = (h, err)
    return rows


class MembershipReport(NamedTuple):
    theta: float
    fraction_in_box: float
    min_eig: float
    max_eig: float
    outside_tangency: int


def check_premises(u: ScalarField, box: ThetaBox) -> MembershipReport:
    """Box membership of the discrete Hessian field.

    Reports the fraction of interior points whose Hessian projection has
    spectrum in [box.theta, 1/box.theta], the extremal projected eigenvalues
    over the grid, and the number of points outside the tangency region,
    where that spectrum or the tangent slope of F leaves the box, so that
    F(D^2_h u) need not be Ftilde(D^2_h u).  Spectra within 1e-9 of the box
    count as inside.  Raises ValueError when the box and the grid differ in n.
    """
    if box.n != u.grid.n:
        raise ValueError(f"grid has n={u.grid.n} but the box has n={box.n}")
    mu = mc.herm_eigensystem(_hermitian_stack(u))[0]
    inside = (mu[:, 0] >= box.theta - 1e-9) & (mu[:, -1] <= box.hi + 1e-9)
    tangent = inside.copy()
    tangent[inside] = tangent_in_box(mu[inside], box)
    return MembershipReport(box.theta, float(np.mean(inside)), float(np.min(mu[:, 0])),
                            float(np.max(mu[:, -1])), int(np.sum(~tangent)))


# ---------------------------------------------------------------------------
# built-in manufactured problems
# ---------------------------------------------------------------------------

def _r2(xs):
    return sum(x**2 for x in xs)


# the built-in names a config's boundary and g may take, in the order the
# CLI lists them: per name, u_exact and rhs of `builtin_solution` with n first
BUILTIN_SOLUTIONS = {
    "quadratic": (lambda n, *xs: _r2(xs), lambda n, *xs: 2.0 + 0.0 * xs[0]),
    "quartic_radial": (lambda n, *xs: _r2(xs)**2 / 4.0,
                       lambda n, *xs: 2.0 ** (1.0 / n) * _r2(xs)),
}


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
    if name not in BUILTIN_SOLUTIONS:
        raise ValueError(f"unknown built-in solution {name!r}")
    return tuple(functools.partial(fn, n) for fn in BUILTIN_SOLUTIONS[name])
