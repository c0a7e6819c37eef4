"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

All randomness is seeded; reruns are bit-reproducible on one machine.
"""

import subprocess
import sys
import time

import numpy as np

from envma import matrixcore as mc
from envma.envelope import ThetaBox, in_box
from envma.solver import (
    GridSpec,
    ScalarField,
    _hermitian_stack,
    check_premises,
    convergence_study,
    solve_dirichlet,
)
from oracles import (builtin_solution, conjugate_intercept, det_root, ellipticity_gap,
                     envelope_eval_bruteforce, envelope_value, sample_in_box, sample_psd,
                     sample_symmetric, spectral_norm)

THETAS = (0.3, 0.5, 0.9)
SEED = 20240810


def report(flag: bool, label: str, detail: str = "") -> bool:
    tag = "PASS" if flag else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {label}{suffix}")
    return flag


def mu_matrix(mu):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return mc.embed(np.diag(mu) + 0j)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst_frac = 0.0
    rng = np.random.default_rng(SEED)
    for n, res in ((1, 2048), (2, 128)):
        for theta in THETAS:
            box = ThetaBox(theta, n)
            tol = 5.0 / res
            for k in range(200):
                shift = float(rng.uniform(0.0, 3.0)) if k % 2 == 0 else 0.0
                M = sample_symmetric(rng, 2 * n, shift)
                diff = abs(envelope_value(M, box) - envelope_eval_bruteforce(M, box, res))
                worst_frac = max(worst_frac, diff / tol)
                assert diff <= tol, (n, theta, k, diff, tol)
    elapsed = time.perf_counter() - t0
    ok = worst_frac <= 1.0 and elapsed <= 120.0
    assert report(ok, "criterion 1: envelope oracle equivalence",
                  f"1200 matrices, worst |diff| at {worst_frac:.2f} of 5/resolution, "
                  f"{elapsed:.1f}s")


def test_criterion_2_agreement_on_box():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(SEED + 1)
    # n = 1: with the slope box [theta, 1/theta] the supporting slope of the
    # operator is identically 1, so agreement holds across the whole box for
    # every theta; for n >= 2 constrained slopes leave the box at anisotropic
    # points (see tests/test_envelope.py), so the identity is certified at
    # n = 1.
    for theta in THETAS:
        box = ThetaBox(theta, 1)
        for _ in range(1000):
            M = sample_in_box(rng, box)
            f = det_root(M)
            v = envelope_value(M, box)
            rel = abs(v - f) / max(1.0, abs(f))
            worst = max(worst, rel)
            assert rel <= 1e-8, (theta, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    assert report(ok, "criterion 2: envelope equals operator on the box",
                  f"3000 samples inside the box, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_ellipticity_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    kinds = ("gram", "embedded", "rank1", "scalar")
    ratio_min, ratio_max = np.inf, -np.inf
    for k in range(1000):
        n = 1 + k % 2
        theta = THETAS[k % 3]
        box = ThetaBox(theta, n)
        d = 2 * n
        M = sample_symmetric(rng, d, float(rng.uniform(0.0, 3.0)) if k % 2 == 0 else 0.0)
        kind = kinds[k % 4]
        P = sample_psd(rng, d, kind)
        lower, gap, upper = ellipticity_gap(M, P, box)
        nrm = spectral_norm(P)
        assert gap >= lower - 1e-9, (k, gap, lower)          # theta * lmax(proj P)
        assert gap >= theta / (4 * n) * nrm - 1e-9, (k, gap)  # dimensional constant
        assert gap <= upper + 1e-9, (k, gap, upper)           # 2n/theta * ||P||
        if kind in ("embedded", "scalar"):
            # J-commuting perturbations: the full theta*||P|| lower bound
            assert gap >= theta * nrm - 1e-9, (k, gap, theta * nrm)
        if nrm > 0:
            ratio_min = min(ratio_min, gap / nrm)
            ratio_max = max(ratio_max, gap / nrm)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    assert report(ok, "criterion 3: two-sided uniform ellipticity",
                  f"1000 pairs, empirical gap/||P|| in [{ratio_min:.3f}, {ratio_max:.3f}], "
                  f"{elapsed:.1f}s")


def test_criterion_4_midpoint_concavity():
    rng = np.random.default_rng(SEED + 3)
    worst = np.inf
    for k in range(1000):
        n = 1 + k % 2
        theta = THETAS[k % 3]
        box = ThetaBox(theta, n)
        d = 2 * n
        m1 = sample_symmetric(rng, d, float(rng.uniform(0.0, 3.0)) if k % 2 == 0 else 0.0)
        m2 = sample_symmetric(rng, d, float(rng.uniform(0.0, 3.0)) if k % 3 == 0 else 0.0)
        slack = envelope_value((m1 + m2) / 2.0, box) \
            - (envelope_value(m1, box) + envelope_value(m2, box)) / 2.0
        worst = min(worst, slack)
        assert slack >= -1e-9, (k, slack)
    assert report(True, "criterion 4: midpoint concavity",
                  f"1000 pairs spanning inside/outside, worst slack {worst:.2e}")


def test_criterion_5_closed_form_spot_values():
    box = ThetaBox(0.5, 1)
    checks = [
        ("F~(mu=4)", envelope_value(mu_matrix([4.0]), box), 3.0),
        ("F~(mu=0)", envelope_value(mu_matrix([0.0]), box), -0.5),
        ("F~(mu=1)", envelope_value(mu_matrix([1.0]), box), 1.0),
        ("g(1/2)", conjugate_intercept(np.array([0.5]), box), 1.0),
        ("g(2)", conjugate_intercept(np.array([2.0]), box), -0.5),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    for label, got, want in checks:
        assert abs(got - want) <= 1e-8, (label, got, want)
    assert report(True, "criterion 5: closed-form spot values at theta=1/2",
                  f"5 values, worst abs err {worst:.2e}")


def test_criterion_6_quadratic_exactness():
    box = ThetaBox(0.4, 1)
    grid = GridSpec(1, (-1.0, -1.0), (1.0, 1.0), 17)
    u_fn, g_fn = builtin_solution("quadratic", 1)
    u, _, rep = solve_dirichlet(ScalarField.from_function(grid, u_fn),
                                ScalarField.from_function(grid, g_fn), box)
    err1 = float(np.max(np.abs(u.values - ScalarField.from_function(grid, u_fn).values)))
    assert rep.converged and err1 <= 1e-9

    t0 = time.perf_counter()
    box2 = ThetaBox(0.4, 2)
    grid2 = GridSpec(2, (-1.0,) * 4, (1.0,) * 4, 9)
    u_fn2, g_fn2 = builtin_solution("quadratic", 2)
    u2, _, rep2 = solve_dirichlet(ScalarField.from_function(grid2, u_fn2),
                                  ScalarField.from_function(grid2, g_fn2), box2)
    err2 = float(np.max(np.abs(u2.values - ScalarField.from_function(grid2, u_fn2).values)))
    assert rep2.converged and err2 <= 1e-9

    # the quadratic solves the Ftilde equation iff theta <= min(1/2, 1/n)
    box3 = ThetaBox(0.25, 3)
    grid3 = GridSpec(3, (-1.0,) * 6, (1.0,) * 6, 7)
    u_fn3, g_fn3 = builtin_solution("quadratic", 3)
    u3, _, rep3 = solve_dirichlet(ScalarField.from_function(grid3, u_fn3),
                                  ScalarField.from_function(grid3, g_fn3), box3)
    err3 = float(np.max(np.abs(u3.values - ScalarField.from_function(grid3, u_fn3).values)))
    elapsed = time.perf_counter() - t0
    assert rep3.converged and err3 <= 1e-9
    ok = elapsed <= 60.0
    assert report(ok, "criterion 6: quadratic exactness",
                  f"n=1 err {err1:.1e}, n=2 9^4 err {err2:.1e}, n=3 7^6 err {err3:.1e} "
                  f"in {elapsed:.1f}s")


def test_criterion_7_convergence_order():
    grids = [GridSpec(1, (1.0, 1.0), (2.0, 2.0), P) for P in (17, 33, 65)]
    u_fn, g_fn = builtin_solution("quartic_radial", 1)
    problems = [(ScalarField.from_function(grid, u_fn), ScalarField.from_function(grid, g_fn))
                for grid in grids]
    rows = convergence_study(problems, ThetaBox(1.0 / 16.0, 1))
    orders = [r.observed_order for r in rows[1:]]
    for o in orders:
        assert o is not None and o >= 1.8, orders
    assert report(True, "criterion 7: quartic manufactured-solution order",
                  "orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_8_hessian_box_membership():
    for n in (1, 2):
        grid = GridSpec(n, (-1.0,) * (2 * n), (1.0,) * (2 * n), 7)
        u_fn, _ = builtin_solution("quadratic", n)
        u = ScalarField.from_function(grid, u_fn)
        box = ThetaBox(mc.admissible_theta(2.0, 2.0), n)
        assert box.theta == 0.5
        assert np.all(in_box(mc.herm_eigensystem(_hermitian_stack(u))[0], box))
        assert check_premises(u, box) == 0
    assert report(True, "criterion 8: Hessian box membership for |z|^2 with bounds (2, 2)",
                  "theta = 0.5, membership 100% at n=1 and n=2")


SOLVE_CFG = """\
n = 2
lo = -1,-1,-1,-1
hi = 1,1,1,1
pointsPerAxis = 7
theta = 0.4
boundary = quadratic
g = constant:2
"""


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "envma", *args], capture_output=True)


def test_criterion_9_determinism(tmp_path):
    verify_args = ["verify", "--theta", "0.5", "--n", "1",
                   "--samples", "200", "--seed", "42"]
    verify_outs = []
    for _ in range(4):
        proc = _run_cli(verify_args)
        assert proc.returncode == 0, proc.stderr.decode()
        verify_outs.append(proc.stdout)
    assert len(set(verify_outs)) == 1

    cfg = tmp_path / "p.cfg"
    cfg.write_text(SOLVE_CFG)
    solve_blobs = []
    for tag in ("a", "b", "c", "d"):
        out = tmp_path / tag
        proc = _run_cli(["solve", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr.decode()
        solve_blobs.append(tuple((out / f).read_bytes()
                                 for f in ("solution.csv", "residual.csv", "report.txt")))
    assert len(set(solve_blobs)) == 1
    assert report(True, "criterion 9: byte-identical verify/solve across reruns")
