"""Tests for the policy-iteration Dirichlet solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    discrete_hessian,
    hessian_stack,
    residual_field,
    solve_dirichlet,
    transfinite_interpolation,
)


def make_grid_1(points=9, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return GridSpec(1, lo, hi, points)


def field_of(grid, fn):
    return ScalarField.from_function(grid, fn)


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


class TestDiscreteHessian:
    def test_sum_of_squares(self):
        grid = make_grid_1(11)
        u = field_of(grid, lambda x, y: x**2 + y**2)
        for idx in ((1, 1), (5, 7), (9, 9)):
            H = discrete_hessian(u, idx)
            assert np.max(np.abs(H - 2.0 * np.eye(2))) < 1e-11

    def test_cross_term(self):
        grid = make_grid_1(9)
        u = field_of(grid, lambda x, y: x * y)
        H = discrete_hessian(u, (4, 4))
        assert np.max(np.abs(H - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-12

    def test_constant(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 3.5)
        assert np.max(np.abs(discrete_hessian(u, (3, 3)))) == 0.0

    def test_rejects_boundary_point(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError):
            discrete_hessian(u, (0, 3))

    @staticmethod
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

    def test_stack_matches_pointwise(self):
        # random (non-polynomial) data and unequal spacings, so a transposed
        # or shifted interior layout or a misplaced h would show
        rng = np.random.default_rng(5)
        for grid in (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
                     GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5)):
            u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
            H = hessian_stack(u)
            for idx in np.ndindex(*(s - 2 for s in grid.shape)):
                point = tuple(i + 1 for i in idx)
                ref = self.pointwise_hessian(u, point)
                assert np.allclose(H[idx], ref, rtol=1e-12, atol=1e-12)
                assert np.allclose(discrete_hessian(u, point), ref, rtol=1e-12, atol=1e-12)

    def test_quartic_second_order_accuracy(self):
        u_fn, _ = builtin_solution("quartic_radial", 1)
        errs = []
        for P in (9, 17):
            grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), P)
            u = field_of(grid, u_fn)
            x, y = grid.axis_coords(0)[P // 2], grid.axis_coords(1)[P // 2]
            r2 = x * x + y * y
            exact = r2 * np.eye(2) + 2.0 * np.outer([x, y], [x, y])
            H = discrete_hessian(u, (P // 2, P // 2))
            errs.append(np.max(np.abs(H - exact)))
        assert errs[1] < errs[0] / 3.0


class TestTransfinite:
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


class TestResidual:
    def test_quadratic_manufactured_zero(self):
        grid = make_grid_1(9)
        u = field_of(grid, lambda x, y: x**2 + y**2)
        g = ScalarField.constant(grid, 2.0)
        res = residual_field(u, g, ThetaBox(0.4, 1))
        assert np.max(np.abs(res.values)) < 1e-11

    def test_zero_field_residual(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 0.0)
        res = residual_field(u, g, ThetaBox(0.5, 1))
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
        r0 = residual_field(u, g0, ThetaBox(0.5, 1))
        r1 = residual_field(u, g1, ThetaBox(0.5, 1))
        interior = (slice(1, -1), slice(1, -1))
        assert np.allclose(r1.values[interior], r0.values[interior] - 0.7, atol=1e-12)


class TestSolveQuadratic:
    def test_n1_exact(self):
        grid = GridSpec(1, (-1.0, -1.0), (1.0, 1.0), 17)
        u_fn, g_fn = builtin_solution("quadratic", 1)
        u, policy, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 1))
        err = np.max(np.abs(u.values - field_of(grid, u_fn).values))
        assert err <= 1e-9
        assert report.converged
        assert policy.eigs_in_box(ThetaBox(0.4, 1))

    def test_n2_exact_small(self):
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quadratic", 2)
        u, policy, report = solve_dirichlet(
            grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 2))
        err = np.max(np.abs(u.values - field_of(grid, u_fn).values))
        assert err <= 1e-9
        assert report.converged
        assert policy.eigs_in_box(ThetaBox(0.4, 2))

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
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        box = ThetaBox(1.0 / 16.0, 1)

        def make_problem(P):
            grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), P)
            return (grid, field_of(grid, u_fn), field_of(grid, g_fn), box,
                    field_of(grid, u_fn), {})

        rows = convergence_study(make_problem, [9, 17, 33])
        assert rows[0].observed_order is None
        assert len(rows) == 3
        for row in rows[1:]:
            assert row.observed_order >= 1.8

    def test_single_refinement_row(self):
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        box = ThetaBox(1.0 / 16.0, 1)

        def make_problem(P):
            grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), P)
            return (grid, field_of(grid, u_fn), field_of(grid, g_fn), box,
                    field_of(grid, u_fn), {})

        rows = convergence_study(make_problem, [9])
        assert len(rows) == 1 and rows[0].observed_order is None

    def test_quadratic_study_errors_at_rounding_level(self):
        u_fn, g_fn = builtin_solution("quadratic", 1)
        box = ThetaBox(0.4, 1)

        def make_problem(P):
            grid = GridSpec(1, (-1.0, -1.0), (1.0, 1.0), P)
            return (grid, field_of(grid, u_fn), field_of(grid, g_fn), box,
                    field_of(grid, u_fn), {})

        rows = convergence_study(make_problem, [9, 17, 33])
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
        assert report.converged
        res = residual_field(u, g, box)
        assert np.max(np.abs(res.values)) <= tol
        H = hessian_stack(u).reshape(-1, 2, 2)
        lin = np.array([
            mc.trace_inner(policy.slope_matrices[i], H[i]) + policy.intercepts[i]
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

    def test_gauss_seidel_matches_direct(self):
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        box = ThetaBox(0.5, 1)
        ud, _, _ = solve_dirichlet(grid, boundary, g, box)
        ug, _, rep = solve_dirichlet(grid, boundary, g, box,
                                     linear_solver="gauss_seidel")
        assert rep.converged
        assert np.max(np.abs(ud.values - ug.values)) < 1e-9

    def test_input_validation(self):
        grid = make_grid_1(9)
        boundary = ScalarField.constant(grid, 0.0)
        g = ScalarField.constant(grid, 1.0)
        with pytest.raises(ValueError):
            solve_dirichlet(grid, boundary, g, ThetaBox(0.5, 1), tol=0.0)
        with pytest.raises(ValueError):
            solve_dirichlet(grid, boundary, g, ThetaBox(0.5, 1), linear_solver="funky")
        bad = ScalarField.constant(grid, np.nan)
        with pytest.raises(ValueError):
            solve_dirichlet(grid, bad, g, ThetaBox(0.5, 1))


class TestCheckPremises:
    def test_quadratic_membership(self):
        for n in (1, 2):
            grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), 7)
            u_fn, _ = builtin_solution("quadratic", n)
            u = field_of(grid, u_fn)
            rep = check_premises(u, 2.0, 2.0)
            assert rep.theta == 0.5
            assert rep.fraction_in_box == 1.0
            assert abs(rep.min_eig - 2.0) < 1e-10
            assert abs(rep.max_eig - 2.0) < 1e-10

    def test_zero_field_outside(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        rep = check_premises(u, 0.5, 2.0)
        assert rep.fraction_in_box == 0.0

    def test_inconsistent_bounds(self):
        grid = make_grid_1(7)
        u = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError):
            check_premises(u, 3.0, 1.0)


class TestHowardLoop:
    def test_one_kernel_call_per_iteration(self, monkeypatch):
        calls = []

        def counted(H, box):
            calls.append(len(H))
            return envelope_batch(H, box)

        monkeypatch.setattr(solver, "envelope_batch", counted)
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
            assert np.array_equal(report.residual.values, residual_field(u, g, box).values)
            assert np.max(np.abs(report.residual.values)) == report.final_residual

    def test_residual_is_of_best_not_last_iterate(self, monkeypatch):
        # spoil the second policy evaluation, so the last iterate is worse
        exact = solver._PolicyEvaluator.solve
        calls = []

        def spoiled(self, A, b, x0):
            calls.append(1)
            x = exact(self, A, b, x0)
            return x + 0.1 if len(calls) == 2 else x

        monkeypatch.setattr(solver._PolicyEvaluator, "solve", spoiled)
        grid = make_grid_1(9)
        g = ScalarField.constant(grid, 1.0)
        box = ThetaBox(0.5, 1)
        u, _, report = solve_dirichlet(grid, ScalarField.constant(grid, 0.0), g, box, max_iter=2)
        first, last = report.residual_history
        assert last > first == report.final_residual
        assert np.array_equal(report.residual.values, residual_field(u, g, box).values)


def frozen_system(theta, seed=0, n=2, P=7):
    """Frozen-policy system of the certificates of a random grid function."""
    grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), P)
    u = ScalarField(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
    cert = envelope_batch(hessian_stack(u).reshape(-1, 2 * n, 2 * n), ThetaBox(theta, n))
    return solver._assemble(grid, cert.slope_matrix, -cert.intercept, u.values)


class TestPolicyEvaluation:
    """One sparse LU per solve, reused as the GMRES preconditioner while the
    answer meets 1e-2 * tol, refactored otherwise."""

    @staticmethod
    def count_splu(monkeypatch):
        exact = spla.splu
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return exact(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        return calls

    @staticmethod
    def count_gmres(monkeypatch):
        exact = spla.gmres
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return exact(*args, **kwargs)

        monkeypatch.setattr(spla, "gmres", counted)
        return calls

    def test_one_factorization_per_solve(self, monkeypatch):
        calls = self.count_splu(monkeypatch)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 7)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.4, 2))
        assert report.converged and report.iterations >= 2
        assert len(calls) == 1

    def test_close_stale_factor_is_reused(self, monkeypatch):
        A_stale, _ = frozen_system(0.401)
        A, b = frozen_system(0.4)
        evaluator = solver._PolicyEvaluator(1e-10)
        stale = evaluator.lu = spla.splu(A_stale.tocsc())
        calls = self.count_splu(monkeypatch)
        x = evaluator.solve(A, b, np.zeros(len(b)))
        assert calls == [] and evaluator.lu is stale
        assert np.max(np.abs(A @ x - b)) <= 1e-12

    def test_useless_stale_factor_is_replaced(self, monkeypatch):
        A_stale, _ = frozen_system(0.5)
        A, b = frozen_system(0.05)
        fresh = spla.splu(A.tocsc()).solve(b)
        evaluator = solver._PolicyEvaluator(1e-10)
        stale = evaluator.lu = spla.splu(A_stale.tocsc())
        calls = self.count_splu(monkeypatch)
        x = evaluator.solve(A, b, np.zeros(len(b)))
        assert len(calls) == 1 and evaluator.lu is not stale
        assert np.max(np.abs(x - fresh)) <= 1e-12 * np.max(np.abs(fresh))

    def test_tol_below_roundoff_refactors_every_iteration(self, monkeypatch):
        exact_splu = spla.splu
        exact_solve = solver._PolicyEvaluator.solve
        evaluations = []

        def recorded(self, A, b, x0):
            x = exact_solve(self, A, b, x0)
            evaluations.append((A, b, x))
            return x

        monkeypatch.setattr(solver._PolicyEvaluator, "solve", recorded)
        calls = self.count_splu(monkeypatch)
        krylov = self.count_gmres(monkeypatch)
        grid = GridSpec(1, (1.0, 1.0), (2.0, 2.0), 17)
        u_fn, g_fn = builtin_solution("quartic_radial", 1)
        _, _, report = solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn),
                                       ThetaBox(0.0625, 1), max_iter=3, tol=1e-30)
        assert not report.converged and report.iterations == 3
        assert len(calls) == len(evaluations) == 3
        # each direct solve already misses the target, so no Krylov cycle is tried
        assert krylov == []
        for A, b, x in evaluations:
            fresh = exact_splu(A.tocsc()).solve(b)
            assert np.max(np.abs(x - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    def test_singular_matrix_raises(self, monkeypatch):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        b = np.array([1.0, 0.0])
        with pytest.raises(RuntimeError, match="singular"):
            solver._PolicyEvaluator(1e-10).solve(A, b, np.zeros(2))
        # with a stale factor: the Krylov answer fails, the refactor raises
        evaluator = solver._PolicyEvaluator(1e-10)
        evaluator.lu = spla.splu(sp.identity(2, format="csc"))
        with pytest.raises(RuntimeError, match="singular"):
            evaluator.solve(A, b, np.zeros(2))
        assert evaluator.lu is None
        # solve_dirichlet maps SuperLU's error to LinearSolveFailure
        assemble = solver._assemble

        def singular(*args):
            A, b = assemble(*args)
            A = A.tolil()
            A[0, :] = 0.0
            return A.tocsr(), b

        monkeypatch.setattr(solver, "_assemble", singular)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 5)
        u_fn, g_fn = builtin_solution("quartic_radial", 2)
        with pytest.raises(LinearSolveFailure, match="singular"):
            solve_dirichlet(grid, field_of(grid, u_fn), field_of(grid, g_fn), ThetaBox(0.4, 2))


class TestAssembly:
    def test_no_explicit_zeros(self):
        # n = 1 policies are multiples of I, so every cross-stencil
        # coefficient is zero; n = 2 mixes zero and nonzero ones
        for n, P in ((1, 9), (2, 5)):
            grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), P)
            u_fn, g_fn = builtin_solution("quartic_radial", n)
            u = field_of(grid, u_fn)
            cert = envelope_batch(hessian_stack(u).reshape(-1, 2 * n, 2 * n), ThetaBox(0.4, n))
            rhs = field_of(grid, g_fn).values[u.interior()].reshape(-1) - cert.intercept
            A, _ = solver._assemble(grid, cert.slope_matrix, rhs, u.values)
            assert (A.data == 0).sum() == 0

    def test_roundoff_slope_entries_store_no_coefficient(self):
        # slopes whose off-diagonals are zero at some points and not at
        # others; noise of round-off size on the zero ones must leave the
        # stored pattern as it is
        rng = np.random.default_rng(3)
        grid = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 5)
        u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
        N = int(np.prod([s - 2 for s in grid.shape]))
        G = rng.uniform(-1, 1, (N, 4, 4))
        slopes = G + G.swapaxes(1, 2) + 4 * np.eye(4)
        zero = np.triu(rng.uniform(size=(N, 4, 4)) < 0.5, 1)
        zero = zero | zero.swapaxes(1, 2)
        slopes[zero] = 0.0
        scale = np.max(np.abs(slopes), axis=(1, 2))[:, np.newaxis, np.newaxis]
        E = np.triu(rng.uniform(-1, 1, (N, 4, 4)), 1)
        E = 16 * np.finfo(float).eps * scale * (E + E.swapaxes(1, 2)) * zero
        rhs = rng.uniform(-1, 1, N)
        A, b = solver._assemble(grid, slopes, rhs, u.values)
        A_noisy, b_noisy = solver._assemble(grid, slopes + E, rhs, u.values)
        assert np.array_equal(A.indptr, A_noisy.indptr)
        assert np.array_equal(A.indices, A_noisy.indices)
        assert np.array_equal(A.data, A_noisy.data) and np.array_equal(b, b_noisy)

    def test_operator_is_slope_trace_of_pointwise_stencil(self):
        # A x + (boundary part moved into b) must be tr(S D^2_h u) at every
        # interior point, with D^2_h the independent pointwise stencil; random
        # data, unequal spacings and slopes with nonzero off-diagonals make a
        # wrong cross weight, a misplaced h or a transposed layout show
        rng = np.random.default_rng(11)
        for grid in (make_grid_1(7, lo=(-1.0, 0.0), hi=(1.0, 3.0)),
                     GridSpec(2, (-1.0, 0.0, -2.0, 0.5), (1.0, 3.0, 0.0, 1.0), 5)):
            d = grid.dim
            u = ScalarField(grid, rng.uniform(-1, 1, grid.shape))
            ishape = tuple(s - 2 for s in grid.shape)
            G = rng.uniform(-1, 1, ishape + (d, d))
            slopes = G + G.swapaxes(-1, -2)
            rhs = rng.uniform(-1, 1, int(np.prod(ishape)))
            A, b = solver._assemble(grid, slopes.reshape(-1, d, d), rhs, u.values)
            lin = (A @ u.values[u.interior()].reshape(-1) - (b - rhs)).reshape(ishape)
            for idx in np.ndindex(*ishape):
                H = TestDiscreteHessian.pointwise_hessian(u, tuple(i + 1 for i in idx))
                ref = np.sum(slopes[idx] * H)
                assert abs(lin[idx] - ref) <= 1e-12 * max(1.0, np.sum(np.abs(slopes[idx] * H)))
