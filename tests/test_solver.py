"""Tests for the policy-iteration Dirichlet solver."""

import itertools

import numpy as np
import pytest

from envma import envelope
from envma import matrixcore as mc
from envma import solver
from envma.envelope import ThetaBox, envelope_batch
from envma.errors import LinearSolveFailure
from envma.solver import (
    GridSpec,
    ScalarField,
    builtin_solution,
    check_premises,
    convergence_study,
    solve_dirichlet,
    transfinite_interpolation,
)
from oracles import sample_symmetric, trace_inner


def make_grid_1(points=9, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return GridSpec(1, lo, hi, points)


def field_of(grid, fn):
    return ScalarField.from_function(grid, fn)


def builtin_problems(name, n, grids):
    """The (grid, exact, g) problems of `convergence_study` for a built-in
    solution."""
    u_fn, g_fn = builtin_solution(name, n)
    return [(grid, field_of(grid, u_fn), field_of(grid, g_fn)) for grid in grids]


def unequal_grid_3():
    """n = 3 (d = 6) grid with a different spacing on every axis."""
    return GridSpec(3, (-1.0, 0.0, -2.0, 0.5, 0.0, -0.5), (1.0, 3.0, 0.0, 1.0, 0.5, 1.5), 5)


class TestGridSpec:
    def test_spacing(self):
        grid = GridSpec(1, (0.0, 0.0), (1.0, 2.0), 5)
        assert np.allclose(grid.spacing, [0.25, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, (0.0, 0.0), (1.0, 1.0), 4)
        with pytest.raises(ValueError):
            GridSpec(1, (0.0, 0.0), (0.0, 1.0), 9)
        with pytest.raises(ValueError):
            GridSpec(1, (0.0,), (1.0,), 9)

    def test_rejects_nan_corner(self):
        with pytest.raises(ValueError, match="lo < hi"):
            GridSpec(1, (np.nan, -1.0), (1.0, 1.0), 9)


def pointwise_hessian(u, idx):
    """Independent reference: the centered cross stencil at one point."""
    d = u.grid.dim
    h = u.grid.spacing
    H = np.zeros((d, d))

    def at(offset):
        return u.values[tuple(i + o for i, o in zip(idx, offset))]

    for a in range(d):
        ea = np.eye(d, dtype=int)[a]
        H[a, a] = (at(ea) - 2.0 * at(0 * ea) + at(-ea)) / h[a] ** 2
        for b in range(a + 1, d):
            eb = np.eye(d, dtype=int)[b]
            H[a, b] = H[b, a] = (at(ea + eb) - at(ea - eb) - at(-ea + eb)
                                 + at(-ea - eb)) / (4.0 * h[a] * h[b])
    return H


def pointwise_stack(u):
    """`pointwise_hessian` at every interior point, (N, d, d) in lexicographic order."""
    return np.array([pointwise_hessian(u, tuple(i + 1 for i in idx))
                     for idx in np.ndindex(*u.grid.interior_shape)])


def oracle_residual(u, g, box):
    """Ftilde(D^2_h u) - g at the interior points from the independent
    `pointwise_stack` and `envelope_batch`; zero on the boundary layer."""
    out = np.zeros(u.grid.shape)
    core = u.grid.interior()
    values = envelope_batch(pointwise_stack(u), box).value
    out[core] = values.reshape(u.grid.interior_shape) - g.values[core]
    return out


def matches_oracle(residual, u, g, box):
    """A residual field of the solve equals `oracle_residual` up to the
    rounding of the merged stencil terms."""
    want = oracle_residual(u, g, box)
    return np.max(np.abs(residual.values - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def hermitian_stack_at(u):
    """`_hermitian_stack(u)` shaped interior_shape + (n, n), indexed by grid point."""
    Z = solver._hermitian_stack(u).reshape(u.grid.interior_shape + (u.grid.n,) * 2)
    return lambda point: Z[tuple(i - 1 for i in point)]


class TestDiscreteHessian:
    """`_hermitian_stack` is extract(proj(.)) of the independent pointwise
    stencil, `mc.hermitian_blocks(pointwise_hessian)`."""

    def test_sum_of_squares(self):
        grid = make_grid_1(11)
        Z = hermitian_stack_at(field_of(grid, lambda x, y: x**2 + y**2))
        for idx in ((1, 1), (5, 7), (9, 9)):
            assert np.max(np.abs(Z(idx) - mc.hermitian_blocks(2.0 * np.eye(2)))) < 1e-11

    def test_cross_term(self):
        # at n = 1 the Hermitian part of x y is 0; at n = 2 the cross terms
        # give both A_01 = (H_01 + H_23)/2 and B_01 = (H_12 - H_03)/2
        H = np.zeros((4, 4))
        H[0, 1] = H[1, 0] = 1.0
        H[1, 2] = H[2, 1] = 2.0
        H[0, 3] = H[3, 0] = -1.0
        H[2, 3] = H[3, 2] = 0.5
        cases = ((make_grid_1(9), lambda x, y: x * y, np.array([[0.0, 1.0], [1.0, 0.0]])),
                 (GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 9),
                  lambda x0, x1, x2, x3: x0 * x1 + 2.0 * x1 * x2 - x0 * x3 + 0.5 * x2 * x3, H))
        for grid, fn, exact in cases:
            Z = hermitian_stack_at(field_of(grid, fn))
            assert np.max(np.abs(Z((4,) * grid.dim) - mc.hermitian_blocks(exact))) < 1e-12

    def test_constant(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 3.5)
        assert np.max(np.abs(solver._hermitian_stack(u))) == 0.0

    def test_stack_matches_pointwise(self):
        # random (non-polynomial) data and unequal spacings, so a transposed
        # or shifted interior layout or a misplaced h would show
        rng = np.random.default_rng(5)
        for grid in (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
                     GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5),
                     unequal_grid_3()):
            u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
            Z = hermitian_stack_at(u)
            for idx in np.ndindex(*grid.interior_shape):
                point = tuple(i + 1 for i in idx)
                ref = mc.hermitian_blocks(pointwise_hessian(u, point))
                assert np.allclose(Z(point), ref, rtol=1e-12, atol=1e-12)

    def test_quartic_second_order_accuracy(self):
        u_fn, _ = builtin_solution("quartic_radial", 1)
        errs = []
        for P in (9, 17):
            grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), P)
            x, y = grid.axis_coords(0)[P // 2], grid.axis_coords(1)[P // 2]
            r2 = x * x + y * y
            exact = r2 * np.eye(2) + 2.0 * np.outer([x, y], [x, y])
            Z = hermitian_stack_at(field_of(grid, u_fn))
            errs.append(np.max(np.abs(Z((P // 2, P // 2)) - mc.hermitian_blocks(exact))))
        assert errs[1] < errs[0] / 3.0


class TestTransfinite:
    @staticmethod
    def inclusion_exclusion(boundary):
        """Reference: the 3^d - 1 signed face blends the Boolean sum expands
        to, one full-grid product per (axis subset, sides) choice."""
        grid = boundary.grid
        d, xi = grid.dim, np.linspace(0.0, 1.0, grid.points_per_axis)
        vals = np.zeros(grid.shape)
        for sides in itertools.product((None, 0, -1), repeat=d):
            axes = tuple(a for a, s in enumerate(sides) if s is not None)
            if not axes:
                continue
            index = tuple(slice(None) if s is None else s for s in sides)
            term = np.expand_dims(boundary.values[index], axis=axes)
            for a in axes:
                w = xi if sides[a] == -1 else 1.0 - xi
                term = term * w.reshape([-1 if b == a else 1 for b in range(d)])
            vals += (-1.0) ** (len(axes) + 1) * term
        return vals

    def test_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(4)
        for n, points in ((1, 7), (2, 6), (3, 5)):
            grid = GridSpec(n, (-1.0,) * (2 * n), (0.5,) * (2 * n), points)
            u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
            ref = self.inclusion_exclusion(u)
            assert np.max(np.abs(transfinite_interpolation(u) - ref)) <= 5e-14

    def test_exact_for_additive_separable(self):
        grid = make_grid_1(9)
        u = field_of(grid, lambda x, y: x**2 - 3.0 * y**2 + x + y)
        init = transfinite_interpolation(u)
        assert np.max(np.abs(init - u.values)) < 1e-12

    def test_matches_boundary_layer(self):
        rng = np.random.default_rng(9)
        grid = GridSpec(1, (0.0, 0.0), (1.0, 1.0), 7)
        u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
        init = transfinite_interpolation(u)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        assert np.max(np.abs(init[mask] - u.values[mask])) < 1e-12

    def test_exact_when_each_term_is_affine_in_some_coordinate(self):
        # (I - P_a) annihilates a term affine in x_a, so the Boolean sum
        # reproduces every such sum of terms at the interior points too
        cases = (
            (2, 7, lambda x0, x1, x2, x3: x0**3 * x1 + np.sin(x2) * x3 + x0 * x1 * x2 * x3),
            (3, 5, lambda x0, x1, x2, x3, x4, x5:
                x0**2 * x1 + np.exp(x2) * np.sin(x3) * x4 + x5 * np.cos(x0) * x3**2),
        )
        for n, points, fn in cases:
            grid = GridSpec(n, (-1.0, 0.5) * n, (0.5, 2.0) * n, points)
            u = field_of(grid, fn)
            init = transfinite_interpolation(u)
            assert np.max(np.abs(init - u.values)) < 1e-13


def solver_residual(u, g, box):
    """The residual field the solve forms for an iterate u: `_certify_values`
    on `_hermitian_stack(u)`, minus g."""
    return solver._residual_of(u, g, envelope._certify_values(solver._hermitian_stack(u), box)[0])


class TestResidual:
    def test_quadratic_manufactured_zero(self):
        grid = make_grid_1(9)
        u = field_of(grid, lambda x, y: x**2 + y**2)
        g = ScalarField.constant(grid, 2.0)
        res = solver_residual(u, g, ThetaBox(0.4, 1))
        assert np.max(np.abs(res.values)) < 1e-11

    def test_zero_field_residual(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 0.0)
        res = solver_residual(u, g, ThetaBox(0.5, 1))
        interior = res.values[1:-1, 1:-1]
        assert np.max(np.abs(interior + 0.5)) < 1e-12
        boundary = res.values.copy()
        boundary[1:-1, 1:-1] = 0.0
        assert np.max(np.abs(boundary)) == 0.0

    def test_shift_in_g(self):
        rng = np.random.default_rng(13)
        grid = make_grid_1(7)
        u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
        g0 = ScalarField.constant(grid, 0.0)
        g1 = ScalarField.constant(grid, 0.7)
        r0 = solver_residual(u, g0, ThetaBox(0.5, 1))
        r1 = solver_residual(u, g1, ThetaBox(0.5, 1))
        interior = (slice(1, -1), slice(1, -1))
        assert np.allclose(r1.values[interior], r0.values[interior] - 0.7, atol=1e-12)


def eigs_in_box(policy, box, tol=1e-9):
    return bool(np.all(policy.slope_eigs >= box.theta - tol)
                and np.all(policy.slope_eigs <= box.hi + tol))


class TestSolveQuadratic:
    def test_n1_exact(self):
        grid = GridSpec(1, (-1.0, -1.0), (1.0, 1.0), 17)
        u_fn, g_fn = builtin_solution("quadratic", 1)
        u, policy, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 1))
        err = np.max(np.abs(u.values - field_of(grid, u_fn).values))
        assert err <= 1e-9
        assert report.converged
        assert eigs_in_box(policy, ThetaBox(0.4, 1))

    def test_n2_exact_small(self):
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quadratic", 2)
        u, policy, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 2))
        err = np.max(np.abs(u.values - field_of(grid, u_fn).values))
        assert err <= 1e-9
        assert report.converged
        assert eigs_in_box(policy, ThetaBox(0.4, 2))

    def test_anisotropic_domain(self):
        grid = GridSpec(1, (0.0, -2.0), (1.0, 1.0), 9)
        u_fn, g_fn = builtin_solution("quadratic", 1)
        u, _, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 1))
        assert np.max(np.abs(u.values - field_of(grid, u_fn).values)) <= 1e-9


class TestSolveQuartic:
    def test_recovers_quartic_with_grid_error(self):
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        box = ThetaBox(1.0 / 16.0, 1)
        grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), 17)
        u, _, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), box)
        err = np.max(np.abs(u.values - field_of(grid, u_fn).values))
        assert report.converged
        assert err < 5e-4

    def test_convergence_order(self):
        grids = [GridSpec(1, (1.0, 1.0), (2.0, 2.0), P) for P in (9, 17, 33)]
        rows = convergence_study(builtin_problems("quartic_radial", 1, grids),
                                 ThetaBox(1.0 / 16.0, 1))
        assert rows[0].observed_order is None
        assert len(rows) == 3
        for row in rows[1:]:
            assert row.observed_order >= 1.8

    def test_single_refinement_row(self):
        grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), 9)
        rows = convergence_study(builtin_problems("quartic_radial", 1, [grid]),
                                 ThetaBox(1.0 / 16.0, 1))
        assert len(rows) == 1 and rows[0].observed_order is None

    def test_quadratic_study_errors_at_rounding_level(self):
        grids = [GridSpec(1, (-1.0, -1.0), (1.0, 1.0), P) for P in (9, 17, 33)]
        rows = convergence_study(builtin_problems("quadratic", 1, grids), ThetaBox(0.4, 1))
        for row in rows:
            assert row.max_error <= 1e-12


class TestPolicyIteration:
    def test_multi_iteration_monotone_residual(self):
        grid = make_grid_1(17)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        u, policy, report = solve_dirichlet(grid, boundary, g, ThetaBox(0.5, 1))
        assert report.converged
        assert report.iterations >= 2
        hist = report.residual_history
        for i in range(1, len(hist) - 1):
            assert hist[i + 1] <= hist[i] + 1e-12

    def test_consistency_of_both_forms(self):
        # at convergence the frozen affine policy and the envelope agree
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        box = ThetaBox(0.5, 1)
        tol = 1e-10
        u, policy, report = solve_dirichlet(grid, boundary, g, box, tol=tol)
        assert report.converged and report.final_residual <= tol
        assert matches_oracle(report.residual, u, g, box)
        H = pointwise_stack(u)
        S = 0.5 * mc.embed(policy.slope)
        lin = np.array([
            trace_inner(S[i], H[i]) + policy.intercept[i]
            for i in range(len(H))
        ])
        assert np.max(np.abs(lin - g.values[1:-1, 1:-1].reshape(-1))) <= 10 * tol

    def test_comparison_principle(self):
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        box = ThetaBox(0.5, 1)
        u1, _, _ = solve_dirichlet(grid, boundary, ScalarField.constant(grid, 1.5),
                                   box)
        u2, _, _ = solve_dirichlet(grid, boundary, ScalarField.constant(grid, 1.0),
                                   box)
        assert np.all(u1.values <= u2.values + 1e-8)

    def test_max_iter_returns_best_iterate(self):
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        u, policy, report = solve_dirichlet(grid, boundary, g, ThetaBox(0.5, 1),
                                            max_iter=1)
        assert not report.converged
        assert report.iterations == 1
        assert np.isfinite(report.final_residual)
        assert policy is not None

    def test_input_validation(self):
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        with pytest.raises(ValueError):
            solve_dirichlet(grid, boundary, g, ThetaBox(0.5, 1), tol=0.0)
        bad = ScalarField.constant(grid, np.nan)
        with pytest.raises(ValueError):
            solve_dirichlet(grid, bad, g, ThetaBox(0.5, 1))

    def test_rejects_nan_tol(self, monkeypatch):
        # a NaN tol is refused up front, before any policy evaluation
        monkeypatch.setattr(solver, "_evaluate_policy", None)
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_dirichlet(grid, boundary, boundary, ThetaBox(0.5, 1), tol=np.nan)


class TestCheckPremises:
    def test_quadratic_membership(self):
        for n in (1, 2):
            grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), 7)
            u_fn, _ = builtin_solution("quadratic", n)
            u = field_of(grid, u_fn)
            rep = check_premises(u, ThetaBox(0.5, n))
            assert rep.theta == 0.5
            assert rep.fraction_in_box == 1.0
            assert abs(rep.min_eig - 2.0) < 1e-10
            assert abs(rep.max_eig - 2.0) < 1e-10
            assert rep.outside_tangency == 0

    def test_zero_field_outside(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        rep = check_premises(u, ThetaBox(0.5, 1))
        assert rep.fraction_in_box == 0.0
        assert rep.outside_tangency == 5 ** 2

    def test_tangent_slope_outside_box(self):
        # Hermitian eigenvalues 1/4 and 4 lie in the box [1/4, 4], but the
        # tangent slope of F there, (2, 1/8), does not
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u = field_of(grid, lambda x1, x2, y1, y2: (x1**2 + y1**2) / 8.0 + 2.0 * (x2**2 + y2**2))
        rep = check_premises(u, ThetaBox(0.25, 2))
        assert rep.fraction_in_box == 1.0
        assert rep.outside_tangency == 5 ** 4

    def test_box_of_another_n_rejected(self):
        u = ScalarField.constant(make_grid_1(7), 0.0)
        with pytest.raises(ValueError, match="grid has n=1 but the box has n=2"):
            check_premises(u, ThetaBox(0.5, 2))


class TestHowardLoop:
    def test_one_kernel_call_per_iteration(self, monkeypatch):
        calls = []
        eigensystem = mc.herm_eigensystem

        def counted(Z):
            calls.append(len(Z))
            return eigensystem(Z)

        monkeypatch.setattr(mc, "herm_eigensystem", counted)
        monkeypatch.setattr(envelope, "_CERT_BLOCK", 5 ** 4)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.4, 2))
        assert report.converged and report.iterations >= 2
        # the initial policy, then one certificate per iteration
        assert calls == [5 ** 4] * (report.iterations + 1)

    def test_report_carries_residual_of_returned_iterate(self):
        grid = make_grid_1(17)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        box = ThetaBox(0.5, 1)
        for max_iter in (1, 100):
            u, _, report = solve_dirichlet(grid, boundary, g, box, max_iter=max_iter)
            assert matches_oracle(report.residual, u, g, box)
            assert np.max(np.abs(report.residual.values)) == report.final_residual

    def test_residual_is_of_best_not_last_iterate(self, monkeypatch):
        # spoil the second policy evaluation, so the last iterate is worse
        exact = solver._evaluate_policy
        calls = []

        def spoiled(*args):
            calls.append(1)
            x = exact(*args)
            return x + 0.1 if len(calls) == 2 else x

        monkeypatch.setattr(solver, "_evaluate_policy", spoiled)
        grid = make_grid_1(9)
        g = ScalarField.constant(grid, 1.0)
        box = ThetaBox(0.5, 1)
        u, _, report = solve_dirichlet(grid, ScalarField.constant(grid, 0.0), g, box, max_iter=2)
        first, last = report.residual_history
        assert last > first == report.final_residual
        assert matches_oracle(report.residual, u, g, box)


def policy_of(u, box):
    """The solver's policy for the certificates of the discrete Hessians of u."""
    return envelope._certify_policy(*envelope._certify_values(solver._hermitian_stack(u), box),
                                    box)


def random_hermitian(rng, N, n):
    """N random Hermitian n x n slopes: off-diagonals with nonzero real and
    imaginary parts, diagonals of both signs."""
    G = rng.uniform(-1.0, 1.0, (N, n, n)) + 1j * rng.uniform(-1.0, 1.0, (N, n, n))
    return G + G.conj().swapaxes(1, 2)


def unequal_grids():
    """One grid per n = 1, 2, 3, each with a different spacing on every axis."""
    return (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
            GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5),
            unequal_grid_3())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSolverStack:
    """The solver certifies A + iB built from its stencil, in blocks, with the
    outputs of envelope_batch on the real stack embed(A + iB)."""

    def test_hermitian_stack_is_the_validated_stack(self):
        # exactly Hermitian, and extract(proj(.)) of the validated pointwise
        # stack up to the rounding of the merged stencil terms
        rng = np.random.default_rng(21)
        for grid in unequal_grids():
            u = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.shape))
            Z = solver._hermitian_stack(u)
            assert np.array_equal(Z, Z.conj().swapaxes(1, 2))
            ref = mc.hermitian_blocks(mc.symmetric_stack(pointwise_stack(u)))
            assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_policy_entries_are_the_slope_matrices(self):
        rng = np.random.default_rng(22)
        for grid, theta in zip(unequal_grids(), (0.3, 0.4, 0.25)):
            box = ThetaBox(theta, grid.n)
            u = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.shape))
            Z = solver._hermitian_stack(u)
            cert = envelope_batch(mc.embed(Z), box)
            value, state = envelope._certify_values(Z, box)
            policy = envelope._certify_policy(value, state, box)
            assert same_bits(value, cert.value)
            assert same_bits(policy.intercept, cert.intercept)
            assert same_bits(policy.slope_eigs, cert.slope_eigs)
            assert same_bits(policy.slope, cert.slope)

    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch):
        # the solve's 3^4 interior points, and a stack of 50 matrices
        # certified by envelope_batch, in blocks of 1, 7 and one block
        grid = GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        args = (grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 2))
        rng = np.random.default_rng(23)
        M = np.array([sample_symmetric(rng, 4, float(rng.uniform(0.0, 3.0))) for _ in range(50)])
        outputs = []
        for block in (1, 7, 4096):
            monkeypatch.setattr(envelope, "_CERT_BLOCK", block)
            u, policy, report = solve_dirichlet(*args)
            cert = envelope_batch(M, ThetaBox(0.3, 2))
            outputs.append((u.values, report.residual.values, report.residual_history,
                            report.krylov_steps, policy.slope, policy.intercept,
                            policy.slope_eigs, *vars(cert).values()))
        assert report.iterations >= 2
        for other in outputs[1:]:
            assert all(same_bits(a, b) for a, b in zip(outputs[0], other))

    def test_solve_needs_no_real_stack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the solve built or validated a real (N, 2n, 2n) stack")

        for module, name in ((mc, "symmetric_stack"), (mc, "embed"),
                             (mc, "hermitian_blocks"), (envelope, "envelope_batch")):
            monkeypatch.setattr(module, name, refuse)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        g = field_of(grid, g_fn)
        u, _, report = solve_dirichlet(grid, field_of(grid, u_fn), g, ThetaBox(0.4, 2))
        monkeypatch.undo()
        assert report.converged
        assert matches_oracle(report.residual, u, g, ThetaBox(0.4, 2))

    def test_converged_iterate_forms_no_policy(self, monkeypatch):
        # one slope pass for the initial policy and one per iteration that
        # did not converge; none for the iterate that did
        calls = []
        saddle_slopes = envelope._saddle_slopes

        def counted(*args):
            calls.append(1)
            return saddle_slopes(*args)

        monkeypatch.setattr(envelope, "_saddle_slopes", counted)
        monkeypatch.setattr(envelope, "_CERT_BLOCK", 5 ** 4)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.4, 2))
        assert report.converged and report.iterations >= 2
        assert len(calls) <= report.iterations

    def test_box_dimension_is_checked_before_any_work(self, monkeypatch):
        monkeypatch.setattr(solver, "transfinite_interpolation", None)
        monkeypatch.setattr(solver, "_hermitian_stack", None)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 5)
        zero = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError, match="grid has n=2 but the box has n=1"):
            solve_dirichlet(grid, zero, zero, ThetaBox(0.4, 1))

    def test_fields_on_another_grid_are_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(solver, "transfinite_interpolation", None)
        monkeypatch.setattr(solver, "_hermitian_stack", None)
        grid = GridSpec(1, (0.0, 0.0), (1.0, 1.0), 9)
        zero = ScalarField.constant(grid, 0.0)
        # the same shape on another rectangle, and another shape
        g = ScalarField.constant(GridSpec(1, (0.0, 0.0), (2.0, 2.0), 9), 1.0)
        with pytest.raises(ValueError, match="^g lives on"):
            solve_dirichlet(grid, zero, g, ThetaBox(0.5, 1))
        boundary = ScalarField.constant(GridSpec(1, (0.0, 0.0), (1.0, 1.0), 11), 0.0)
        with pytest.raises(ValueError, match="^boundary lives on"):
            solve_dirichlet(grid, boundary, zero, ThetaBox(0.5, 1))


def frozen_system(theta, seed=0, n=2, P=7):
    """Frozen-policy system of the certificates of a random grid function:
    (grid, Hermitian slopes, A, b)."""
    grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), P)
    u = ScalarField(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
    policy = policy_of(u, ThetaBox(theta, n))
    A, b = solver._frozen_policy(grid, policy.slope, -policy.intercept, u.values)
    return grid, policy.slope, A, b


def materialized(A):
    """The matrix of the matrix-free operator A, column by column."""
    N = int(np.prod([s - 2 for s in A.grid.shape]))
    return np.column_stack([A @ e for e in np.eye(N)])


class TestPolicyEvaluation:
    """GMRES preconditioned by the sine-basis inverse of the axis-weighted
    Laplacian, run until max|A x - b| meets max(accuracy, 8 eps max(|A||x| + |b|)),
    the accuracy being what the Howard loop asks of the evaluation."""

    def test_preconditioner_inverts_constant_diagonal_operator(self):
        # unequal spans and weights per axis: a spacing or weight paired
        # with the wrong axis leaves the product far from the identity.  A
        # policy gives axes i and n + i one weight, so the operator
        # sum_a c_a D^2_{h,a} is built from its stencil terms directly
        rng = np.random.default_rng(5)
        for grid in (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
                     GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 6),
                     unequal_grid_3()):
            d = grid.dim
            N = (grid.points_per_axis - 2) ** d
            c = rng.uniform(0.5, 2.0, d)
            w = c / grid.spacing ** 2
            A = solver._StencilOperator(grid, ((0,) * d, *map(tuple, np.eye(d, dtype=int))),
                                        (-np.sum(w), *w))
            x = rng.uniform(-1.0, 1.0, N)
            y = solver._laplacian_inverse(grid, c)(A @ x)
            assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))

    @staticmethod
    def check_matches_direct_solve(theta):
        accuracy = 1e-12
        grid, Q, A, b = frozen_system(theta)
        x = solver._evaluate_policy(grid, A, b, np.zeros(len(b)), Q, accuracy, [])
        ref = np.linalg.solve(materialized(A), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        floor = 8 * np.finfo(float).eps * np.max(A.abs_matmul(x) + np.abs(b))
        assert np.max(np.abs(A @ x - b)) <= max(accuracy, floor)

    def test_matches_direct_solve_near_laplacian(self):
        # small theta: the frozen operator is close to the preconditioner's
        self.check_matches_direct_solve(0.05)

    def test_matches_direct_solve_far_from_laplacian(self):
        # large theta: strongly anisotropic policies with cross terms
        self.check_matches_direct_solve(0.4)

    def test_tol_below_roundoff_ends_at_max_iter(self):
        # 1e-2 * tol lies far below round-off; once the forcing term falls
        # below the floor, each evaluation stops at the round-off floor of
        # A x - b instead of failing, so Howard runs to max_iter
        grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), 33)
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.0625, 1), max_iter=3, tol=1e-30)
        assert not report.converged and report.iterations == 3

    def test_zero_boundary_fine_grid_converges(self):
        # with zero boundary data b is small, while the round-off of A x - b
        # grows like |S| / h^2; a floor taken from |b| alone lies below it
        grid = make_grid_1(129)
        _, _, report = solve_dirichlet(grid, ScalarField.constant(grid, 0.0),
                                       ScalarField.constant(grid, 2.0), ThetaBox(0.5, 1))
        assert report.converged

    def test_singular_matrix_raises(self, monkeypatch):
        frozen_policy = solver._frozen_policy

        def singular(*args):
            A, b = frozen_policy(*args)
            coeffs = A.coeffs.copy()
            # every field at interior point 0 is 0: row 0 of A
            coeffs[(slice(None),) + (0,) * A.grid.dim] = 0.0
            return solver._StencilOperator(A.grid, A.shifts, coeffs), b

        monkeypatch.setattr(solver, "_frozen_policy", singular)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 5)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        with pytest.raises(LinearSolveFailure, match="GMRES"):
            solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 2))


class TestKrylovStop:
    """Each GMRES cycle stops at the first Krylov step whose iterate passes
    the true check, and checks only iterates its Givens estimate predicts."""

    def test_n1_quartic_takes_one_step_per_evaluation(self):
        # the convergence-n1 problem: the sine-basis preconditioner is
        # nearly exact, so one step meets the target at every refinement
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        for P in (17, 33, 65):
            grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), P)
            _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                           ThetaBox(0.0625, 1))
            assert report.converged
            assert report.krylov_steps == [1] * report.iterations

    def test_n2_railed_stops_inside_the_first_cycle(self):
        # the solve-n2-railed problem: Krylov steps may not be bought with
        # Howard iterations, so both counts are pinned
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 9)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.4, 2))
        assert report.converged and report.iterations == 3
        assert len(report.krylov_steps) == 3
        assert all(0 < k < solver._GMRES_RESTART for k in report.krylov_steps)
        assert sum(report.krylov_steps) <= 26

    def test_exact_start_returns_after_one_check(self, monkeypatch):
        # b - A x0 == 0: no Krylov step, one true check, x0 itself returned
        checks = []
        met_at = solver._Target.met_at

        def counted(self, x, r):
            checks.append(1)
            return met_at(self, x, r)

        monkeypatch.setattr(solver._Target, "met_at", counted)
        grid, Q, A, _ = frozen_system(0.4)
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, A.coeffs[0].size)
        b = A @ x0
        steps = []
        x = solver._evaluate_policy(grid, A, b, x0, Q, 1e-12, steps)
        assert x is x0 and steps == [0] and len(checks) == 1

    def test_scaled_system_gives_scaled_solution(self):
        # b, x0 and accuracy times 2^600, far past where a sum of squares
        # overflows: every step scales exactly, so x scales and the steps agree
        grid, Q, A, b = frozen_system(0.4)
        x0 = np.random.default_rng(4).uniform(-1.0, 1.0, len(b))
        steps, scaled_steps = [], []
        x = solver._evaluate_policy(grid, A, b, x0, Q, 1e-10, steps)
        scaled = solver._evaluate_policy(grid, A, np.ldexp(b, 600), np.ldexp(x0, 600), Q,
                                         np.ldexp(1e-10, 600), scaled_steps)
        assert same_bits(scaled, np.ldexp(x, 600)) and scaled_steps == steps

    def test_failed_check_tightens_prediction(self):
        grid, _, A, b = frozen_system(0.4)
        x = np.zeros(len(b))
        target = solver._Target(A, b, 1e-12, x)
        r = b - A @ x
        assert not target.met_at(x, r) and target.slack == 10.0
        estimate = target.value / 5.0
        assert not target.predicted_by(estimate)
        assert solver._Target(A, b, 1e-12, x).predicted_by(estimate)


def kinked_problem(P, theta):
    """n = 2: boundary |x_0| + |x_3| + |x|^2, g = 1."""
    grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, P)
    boundary = field_of(grid, lambda a, b, c, d: abs(a) + abs(d) + a * a + b * b + c * c + d * d)
    return grid, boundary, ScalarField.constant(grid, 1.0), ThetaBox(theta, 2)


def quartic_problem(n, P, theta, lo=-1.0, hi=1.0):
    grid = GridSpec(n, (lo,) * (2 * n), (hi,) * (2 * n), P)
    u_fn, g_fn = builtin_solution("quartic_radial", n)
    return grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(theta, n)


FORCING_CASES = {
    "n1-P17": lambda: quartic_problem(1, 17, 0.0625, 1.0, 2.0),
    "n2-P9-quartic": lambda: quartic_problem(2, 9, 0.4),
    "n2-P9-kink": lambda: kinked_problem(9, 0.05),
}


def recorded_accuracies(monkeypatch):
    """The accuracy each policy evaluation of the next solves is asked for."""
    evaluate, accuracies = solver._evaluate_policy, []

    def recorded(grid, A, b, x0, Q, accuracy, steps):
        accuracies.append(accuracy)
        return evaluate(grid, A, b, x0, Q, accuracy, steps)

    monkeypatch.setattr(solver, "_evaluate_policy", recorded)
    return accuracies


class TestForcing:
    """The Howard loop asks each evaluation for max(1e-2 tol, _FORCING r min(1, r / r_0)):
    a looser linear solve while the nonlinear residual r is large."""

    @pytest.mark.parametrize("case", FORCING_CASES)
    def test_forcing_changes_cost_not_answers(self, case, monkeypatch):
        grid, boundary, g, box = problem = FORCING_CASES[case]()
        accuracies = recorded_accuracies(monkeypatch)
        u, _, report = solve_dirichlet(*problem)
        monkeypatch.setattr(solver, "_FORCING", 0.0)
        u_unforced, _, unforced = solve_dirichlet(*problem)
        assert report.converged and unforced.converged
        assert report.iterations == unforced.iterations
        assert np.max(np.abs(u.values - u_unforced.values)) <= 1e-12
        if grid.n == 2:
            assert sum(report.krylov_steps) < sum(unforced.krylov_steps)
        # the accuracies the forced solve asked for, from its own residuals
        start = ScalarField(grid, transfinite_interpolation(boundary))
        r0 = float(np.max(np.abs(oracle_residual(start, g, box))))
        residuals = [r0] + report.residual_history[:-1]
        expected = [max(1e-12, 1e-3 * r * min(1.0, r / r0)) for r in residuals]
        assert np.allclose(accuracies[:report.iterations], expected, rtol=1e-9, atol=0.0)
        assert accuracies[report.iterations:] == [1e-12] * unforced.iterations

    def test_exact_start_gets_no_forcing(self, monkeypatch):
        # zero boundary and g = Ftilde(0): the start is exact, r_0 = 0
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        box = ThetaBox(0.4, 2)
        g = ScalarField.constant(grid, float(envelope_batch(np.zeros((1, 4, 4)), box).value[0]))
        accuracies = recorded_accuracies(monkeypatch)
        _, _, report = solve_dirichlet(grid, ScalarField.constant(grid, 0.0), g, box)
        assert report.converged and report.iterations == 1
        assert accuracies == [1e-12]

    def test_floor_skip_returns_what_the_full_pass_returns(self):
        # constant slopes and x = 1 attain the coarse bound
        # 8 eps (2 sum_k max|c_k| max|x| + max|b|) at the centre point, so an
        # accuracy just below the round-off floor must still get the floor
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        N = 5 ** 4
        Q = np.repeat(random_hermitian(np.random.default_rng(6), 1, 2), N, axis=0)
        A, b = solver._frozen_policy(grid, Q, np.ones(N), np.zeros(grid.shape))
        x = np.ones(N)
        floor = 8.0 * np.finfo(float).eps * float(np.max(A.abs_matmul(x) + np.abs(b)))
        for accuracy in floor * np.array([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 10.0]):
            assert solver._Target(A, b, accuracy, x).at(x) == max(accuracy, floor)
        A.abs_matmul = None   # just above the floor, the coarse bound decides alone
        assert solver._Target(A, b, 1.01 * floor, x).at(x) == 1.01 * floor

    @pytest.mark.parametrize("case", FORCING_CASES)
    def test_skipped_floor_pass_changes_nothing(self, case, monkeypatch):
        # at returns the accuracy without the |A| |x| pass when a coarse bound
        # already lies below it; the full pass would return the same
        problem = FORCING_CASES[case]()
        abs_matmul, passes = solver._StencilOperator.abs_matmul, []

        def counted(self, x):
            passes.append(1)
            return abs_matmul(self, x)

        monkeypatch.setattr(solver._StencilOperator, "abs_matmul", counted)
        _, _, report = solve_dirichlet(*problem)
        with_skip = len(passes)

        def full_pass(self, x):
            floor = 8.0 * np.finfo(float).eps * float(np.max(self.A.abs_matmul(x) + self.abs_b))
            return max(self.accuracy, floor)

        monkeypatch.setattr(solver._Target, "at", full_pass)
        _, _, full = solve_dirichlet(*problem)
        assert same_bits(report.residual_history, full.residual_history)
        assert report.krylov_steps == full.krylov_steps
        assert with_skip < len(passes) - with_skip


class TestAssembly:
    def test_operator_is_slope_trace_of_pointwise_stencil(self):
        # A x + (boundary part moved into b) must be Re tr(Q Z) = tr(S D^2_h u),
        # S = embed(Q)/2, at every interior point, with D^2_h the independent
        # pointwise stencil; random data, unequal spacings and random
        # Hermitian slopes make a wrong cross weight, a misplaced h, a sign
        # of B or a transposed layout show
        rng = np.random.default_rng(11)
        for grid in (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
                     GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5),
                     unequal_grid_3()):
            u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
            ishape = grid.interior_shape
            N = int(np.prod(ishape))
            Q = random_hermitian(rng, N, grid.n)
            rhs = rng.uniform(-1, 1, N)
            A, b = solver._frozen_policy(grid, Q, rhs, u.values)
            lin = A @ u.values[grid.interior()].reshape(-1) - (b - rhs)
            S = 0.5 * mc.embed(Q)
            for k, H in enumerate(pointwise_stack(u)):
                ref = np.sum(S[k] * H)
                assert abs(lin[k] - ref) <= 1e-12 * max(1.0, np.sum(np.abs(S[k] * H)))

    def test_absolute_operator_is_absolute_matrix(self):
        # |A| |x| sets the round-off floor of the GMRES stop, so it must be
        # the product with the entrywise absolute matrix; slopes with
        # diagonals of both signs make the centre coefficient a sum of terms
        # of both signs, so summing absolute stencil terms would show
        rng = np.random.default_rng(2)
        grid = GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 6)
        N = 4 ** 4
        A, _ = solver._frozen_policy(grid, random_hermitian(rng, N, 2), np.zeros(N),
                                     np.zeros(grid.shape))
        x = rng.uniform(-1.0, 1.0, N)
        ref = np.abs(materialized(A)) @ np.abs(x)
        assert np.max(np.abs(A.abs_matmul(x) - ref)) <= 1e-14 * np.max(ref)

    def test_one_nonzero_field_per_shift(self):
        # the fields are those of the Hermitian coordinates of D^2_h: 3, 13
        # and 31 shifts at n = 1, 2, 3, none of them identically zero on a
        # real policy (the real (i, n + i) cross terms pair with Im Q_ii = 0)
        for n, P, count in ((1, 9, 3), (2, 7, 13), (3, 5, 31)):
            grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), P)
            u_fn, _ = builtin_solution("quartic_radial", n)
            policy = policy_of(field_of(grid, u_fn), ThetaBox(0.4, n))
            A, _ = solver._frozen_policy(grid, policy.slope,
                                         np.zeros(len(policy.intercept)), np.zeros(grid.shape))
            assert len(set(A.shifts)) == len(A.shifts) == count
            assert all(np.any(field != 0.0) for field in A.coeffs)
