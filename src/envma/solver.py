"""Dirichlet solver for Ftilde(D^2 u) = g on rectangles in R^{2n}, n in {1, 2}.

The envelope is an infimum of affine functions of the Hessian, so the
equation has Bellman form and is solved by policy iteration (Howard's
algorithm): at each interior grid point the envelope certificate of the
current discrete Hessian supplies an affine policy (slope matrix, intercept);
freezing the policy leaves the linear uniformly elliptic equation

    tr(S(x) D^2 u(x)) + c(x) = g(x),

solved with Dirichlet data by one sparse LU per solve, reused as a GMRES
preconditioner while it meets the tolerance (or optionally by Gauss-Seidel);
the two steps alternate until the max-norm residual of the nonlinear equation
meets the tolerance.  All certificates of one iterate come from a single
`envelope_batch` call on the stacked Hessians, whose values are also the
residual, so each Hessian is evaluated once.

The discrete Hessian D^2_h is written down once, as a sparse difference
operator per grid (`_hessian_operator`): centered second differences on the
diagonal, products of centered first differences (the 4-point cross
stencil) off it, exact for quadratics.  The Hessians are that operator
applied to the grid values, and the frozen-policy matrix is the slope-
weighted sum of its rows; coefficients that vanish are not stored.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import matrixcore as mc
from .envelope import ThetaBox, envelope_batch
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
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("domain corners must satisfy lo < hi per axis")
        if self.points_per_axis < 5:
            raise ValueError("pointsPerAxis must be >= 5 (3 interior points per axis)")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

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

    def interior(self) -> tuple:
        return tuple(slice(1, -1) for _ in range(self.grid.dim))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class PolicyField:
    """Frozen Bellman policy: per interior point a slope matrix + intercept.

    Slope eigenvalues live in the box [theta, 1/theta]; the stored pairing
    matrices are their halved embeddings (see EnvelopeCertificate).
    """

    grid: GridSpec
    slope_matrices: np.ndarray   # (n_interior, 2n, 2n)
    intercepts: np.ndarray       # (n_interior,)
    slope_eigs: np.ndarray       # (n_interior, n)

    def eigs_in_box(self, box: ThetaBox, tol: float = 1e-9) -> bool:
        return bool(np.all(self.slope_eigs >= box.theta - tol)
                    and np.all(self.slope_eigs <= box.hi + tol))


@dataclass
class SolveReport:
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("inf")
    residual_history: list = field(default_factory=list)
    wall_time_s: float = 0.0
    linear_solver: str = "direct"
    residual: ScalarField | None = None   # Ftilde(D^2 u) - g of the returned u


def transfinite_interpolation(boundary: ScalarField) -> np.ndarray:
    """Multilinear blend of the boundary faces (inclusion-exclusion over
    axis subsets); used as the initial iterate."""
    grid = boundary.grid
    d = grid.dim
    P = grid.points_per_axis
    xi = np.linspace(0.0, 1.0, P)
    vals = np.zeros(grid.shape)
    data = boundary.values
    for r in range(1, d + 1):
        sign = (-1.0) ** (r + 1)
        for axes in itertools.combinations(range(d), r):
            for sides in itertools.product((0, -1), repeat=r):
                w = np.ones(grid.shape)
                index = [slice(None)] * d
                for a, s in zip(axes, sides):
                    shape = [1] * d
                    shape[a] = P
                    wa = xi if s == -1 else 1.0 - xi
                    w = w * wa.reshape(shape)
                    index[a] = s
                face = data[tuple(index)]
                expanded = np.expand_dims(face, axis=axes)
                vals = vals + sign * w * expanded
    return vals


def discrete_hessian(u: ScalarField, idx) -> np.ndarray:
    """Centered second differences at an interior point; exact for quadratics."""
    grid = u.grid
    idx = tuple(int(i) for i in idx)
    if len(idx) != grid.dim or any(i < 1 or i > grid.points_per_axis - 2 for i in idx):
        raise ValueError(f"point {idx} is not interior")
    return hessian_stack(u)[tuple(i - 1 for i in idx)]


def hessian_stack(u: ScalarField) -> np.ndarray:
    """Discrete Hessians at all interior points: `_hessian_operator` applied
    to the grid values.

    Returns an array of shape interior_shape + (d, d) in lexicographic
    interior order.
    """
    grid = u.grid
    d = grid.dim
    op_int, op_bnd = _hessian_operator(grid)
    inside = _interior_mask(grid)
    v = u.values.reshape(-1)
    upper = (op_int @ v[inside] + op_bnd @ v[~inside]).reshape(-1, op_int.shape[1])
    H = np.empty((op_int.shape[1], d, d))
    a, b = np.triu_indices(d)
    H[:, a, b] = H[:, b, a] = upper.T
    return H.reshape(tuple(s - 2 for s in grid.shape) + (d, d))


def _interior_mask(grid: GridSpec) -> np.ndarray:
    """Flat (lexicographic) mask of the interior points of the grid."""
    inside = np.zeros(grid.shape, dtype=bool)
    inside[tuple(slice(1, -1) for _ in range(grid.dim))] = True
    return inside.reshape(-1)


@functools.lru_cache(maxsize=8)
def _hessian_operator(grid: GridSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The discrete Hessian D^2_h as one sparse map, split by columns.

    Row e * N + k holds the upper-triangle entry (a, b) = triu_indices(d)[e]
    of D^2_h u at interior point k (N interior points, lexicographic).
    Diagonal entries are centered second differences; off-diagonal entries
    are products of centered first differences, the 4-point cross stencil.
    Both are exact for quadratics.  Returns (op_int, op_bnd), whose columns
    are the interior values and the boundary values of u, each in
    lexicographic order, so D^2_h u = op_int @ u[inside] + op_bnd @ u[~inside].
    """
    d, h = grid.dim, grid.spacing
    inside = _interior_mask(grid)
    points = np.flatnonzero(inside)
    N = len(points)
    column = np.empty(inside.size, dtype=np.int64)
    column[inside] = np.arange(N)
    column[~inside] = np.arange(inside.size - N)
    strides = [grid.points_per_axis ** (d - 1 - a) for a in range(d)]
    second = ((-1, 1.0), (0, -2.0), (1, 1.0))
    first = ((-1, -0.5), (1, 0.5))
    rows, targets, vals = [], [], []
    for e, (a, b) in enumerate(zip(*np.triu_indices(d))):
        if a == b:
            terms = [(s * strides[a], w / h[a] ** 2) for s, w in second]
        else:
            terms = [(sa * strides[a] + sb * strides[b], (wa / h[a]) * (wb / h[b]))
                     for sa, wa in first for sb, wb in first]
        for shift, w in terms:
            rows.append(np.arange(e * N, (e + 1) * N))
            targets.append(points + shift)
            vals.append(np.full(N, w))
    rows, targets, vals = (np.concatenate(x) for x in (rows, targets, vals))
    n_rows = d * (d + 1) // 2 * N
    to_inside = inside[targets]

    def part(keep, n_cols):
        return sp.csr_matrix((vals[keep], (rows[keep], column[targets[keep]])),
                             shape=(n_rows, n_cols))

    return part(to_inside, N), part(~to_inside, inside.size - N)


def _residual_of(u: ScalarField, g: ScalarField, values: np.ndarray) -> ScalarField:
    """Envelope values at the interior points minus g; zero on the boundary."""
    out = np.zeros(u.grid.shape)
    out[u.interior()] = values.reshape(tuple(s - 2 for s in u.grid.shape)) \
        - g.values[g.interior()]
    return ScalarField(u.grid, out)


def residual_field(u: ScalarField, g: ScalarField, box: ThetaBox) -> ScalarField:
    """Ftilde(D^2 u) - g at interior points; zero on the boundary layer."""
    if u.grid != g.grid:
        raise ValueError("u and g live on different grids")
    d = u.grid.dim
    return _residual_of(u, g, envelope_batch(hessian_stack(u).reshape(-1, d, d), box).value)


def _assemble(grid: GridSpec, slopes: np.ndarray, rhs: np.ndarray,
              boundary_values: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse system A x = b for tr(S(x) D^2_h u) = rhs(x) with Dirichlet data.

    tr(S H) = sum over a <= b of w_ab S_ab H_ab, with w = 1 on the diagonal
    and 2 off it.  W places diag(w_ab S_ab) side by side, one block per row
    block of the Hessian operator, so tr(S D^2_h u) = W @ (op_int @ x +
    op_bnd @ boundary): A = W @ op_int and the boundary term moves to b.
    """
    op_int, op_bnd = _hessian_operator(grid)
    n_int = op_int.shape[1]
    a, b = np.triu_indices(grid.dim)
    weights = np.where(a == b, 1.0, 2.0) * slopes[:, a, b]
    columns = np.arange(n_int)[:, None] + n_int * np.arange(len(a))
    W = sp.csr_matrix((weights.ravel(), columns.ravel(), np.arange(0, weights.size + 1, len(a))),
                      shape=(n_int, op_int.shape[0]))
    A = W @ op_int
    A.eliminate_zeros()   # vanishing slope entries store no coefficient
    boundary = boundary_values.reshape(-1)[~_interior_mask(grid)]
    return A, rhs - W @ (op_bnd @ boundary)


def _gauss_seidel(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
                  tol: float = 1e-12, max_sweeps: int = 100_000) -> np.ndarray:
    """Lexicographic Gauss-Seidel (relaxation 1.0) on the CSR system.

    One sweep solves (D + L) x_new = b - U x_old by forward substitution,
    which updates the unknowns in index order exactly as the pointwise sweep.
    """
    x = x0.copy()
    if np.any(A.diagonal() == 0.0):
        raise LinearSolveFailure("zero diagonal in the frozen-policy system")
    lower = sp.tril(A, format="csr")
    upper = sp.triu(A, k=1, format="csr")
    scale = max(1.0, float(np.max(np.abs(b))))
    for _ in range(max_sweeps):
        x = spla.spsolve_triangular(lower, b - upper @ x, lower=True)
        r = float(np.max(np.abs(A @ x - b)))
        if r <= tol * scale:
            return x
    raise LinearSolveFailure(f"Gauss-Seidel did not reach {tol:g} in {max_sweeps} sweeps")


class _PolicyEvaluator:
    """Frozen-policy solves of one Howard run: one sparse LU, reused.

    The first solve factors A with a minimum-degree ordering of A^T + A (the
    cross stencil is nearly symmetric, so this stores less fill than the
    default COLAMD).  A later solve runs one restart cycle of GMRES on the
    new matrix, warm-started at x0 and preconditioned by the cached factor,
    and accepts its answer only if the true residual max|A x - b| is at most
    1e-2 * tol; otherwise the stale factor is dropped and the new A factored
    and solved directly.  A factor whose own direct solve misses 1e-2 * tol
    is not kept, since the target then lies below round-off.
    """

    restart = 20

    def __init__(self, tol: float):
        self.target = 1e-2 * tol
        self.lu = None

    def solve(self, A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            M = spla.LinearOperator(A.shape, matvec=self.lu.solve, dtype=float)
            x, _ = spla.gmres(A, b, x0=x0, rtol=0.0, atol=self.target,
                              restart=self.restart, maxiter=1, M=M)
            if np.max(np.abs(A @ x - b)) <= self.target:
                return x
            self.lu = M = None   # never hold two factors at once
        self.lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            options={"SymmetricMode": True})
        x = self.lu.solve(b)
        if not np.max(np.abs(A @ x - b)) <= self.target:
            # the target is below this system's round-off floor: no Krylov
            # answer will meet it either, so later solves refactor directly
            self.lu = None
        return x


def solve_dirichlet(grid: GridSpec, boundary: ScalarField, g: ScalarField,
                    box: ThetaBox, max_iter: int = 100, tol: float = 1e-10,
                    linear_solver: str = "direct") -> tuple[ScalarField, PolicyField, SolveReport]:
    """Policy iteration for Ftilde(D^2 u) = g with Dirichlet data.

    Alternates policy improvement (envelope certificates at every interior
    point) with policy evaluation (one linear elliptic solve for the frozen
    affine policy) until the max-norm residual of the nonlinear equation is
    at most `tol`.  One envelope_batch call per iteration certifies the new
    Hessians: its values give the residual and its slopes and intercepts the
    next policy.  The frozen-policy coefficient matrices have spectrum in
    [theta/2, 1/(2 theta)], so each evaluation is well posed.  On hitting
    `max_iter` the best iterate is returned with report.converged = False;
    report.residual is the residual field of the returned iterate.
    """
    if linear_solver not in ("direct", "gauss_seidel"):
        raise ValueError(f"unknown linear solver {linear_solver!r}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"maxIter must be >= 1, got {max_iter}")
    if not np.all(np.isfinite(boundary.values)) or not np.all(np.isfinite(g.values)):
        raise ValueError("boundary and right-hand side must be finite")
    start = time.perf_counter()
    u = ScalarField(grid, transfinite_interpolation(boundary))
    core = u.interior()
    d = grid.dim
    report = SolveReport(linear_solver=linear_solver)
    best = None
    evaluator = _PolicyEvaluator(tol)

    cert = envelope_batch(hessian_stack(u).reshape(-1, d, d), box)
    for it in range(1, max_iter + 1):
        policy = PolicyField(grid, cert.slope_matrix, cert.intercept, cert.slope_eigs)
        rhs = g.values[core].reshape(-1) - cert.intercept
        A, b = _assemble(grid, cert.slope_matrix, rhs, boundary.values)
        x0 = u.values[core].reshape(-1)
        try:
            if linear_solver == "direct":
                x = evaluator.solve(A, b, x0)
            else:
                x = _gauss_seidel(A, b, x0)
        except LinearSolveFailure:
            raise
        except Exception as exc:  # any other failure inside the linear algebra
            raise LinearSolveFailure(str(exc)) from exc
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailure("non-finite values in the policy evaluation solve")
        u.values[core] = x.reshape(tuple(s - 2 for s in grid.shape))

        cert = envelope_batch(hessian_stack(u).reshape(-1, d, d), box)
        residual = _residual_of(u, g, cert.value)
        res = float(np.max(np.abs(residual.values)))
        report.residual_history.append(res)
        report.iterations = it
        if best is None or res < best[0]:
            best = (res, u.values.copy(), policy, residual)
        if res <= tol:
            report.converged = True
            break
    report.final_residual = best[0]
    report.residual = best[3]
    report.wall_time_s = time.perf_counter() - start
    u_out = ScalarField(grid, best[1])
    return u_out, best[2], report


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


def check_premises(u: ScalarField, lam: float, Lam: float,
                   tol: float = 1e-9) -> MembershipReport:
    """Box membership of the discrete Hessian field.

    For theta = min(lambda, 1/Lambda), reports the fraction of interior
    points whose Hessian projection has spectrum in [theta, 1/theta], and
    the extremal projected eigenvalues over the grid.
    """
    theta = mc.admissible_theta(lam, Lam)
    d = u.grid.dim
    mu = mc.hermitian_eigs_stack(hessian_stack(u).reshape(-1, d, d))
    inside = (mu[:, 0] >= theta - tol) & (mu[:, -1] <= 1.0 / theta + tol)
    return MembershipReport(theta, float(np.mean(inside)),
                            float(np.min(mu[:, 0])), float(np.max(mu[:, -1])))


# ---------------------------------------------------------------------------
# built-in manufactured problems
# ---------------------------------------------------------------------------

def builtin_solution(name: str, n: int):
    """Named manufactured solution: returns (u_exact, rhs) callables on the
    2n real coordinates.

    * quadratic:       u = sum x_i^2,     Ftilde(D^2 u) = 2
    * quartic_radial:  u = |x|^4 / 4,     Ftilde(D^2 u) = 2^{1/n} |x|^2
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
