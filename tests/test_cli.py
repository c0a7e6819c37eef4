"""Command-line interface tests: outputs and exit codes."""

import gc
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import envma
from envma import envelope, solver
from envma.cli import main

QUAD_CFG = """\
n = 1
lo = -1,-1
hi = 1,1
pointsPerAxis = 9
theta = 0.4
boundary = quadratic
g = constant:2
"""

ITER_CFG = """\
n = 1
lo = -1,-1
hi = 1,1
pointsPerAxis = 9
theta = 0.5
boundary = constant:0
g = constant:1
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_identity(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 0
        assert "F_tilde = 1\n" in out
        assert "F = 1\n" in out
        assert "in_theta_box = true" in out

    def test_outside_box_value(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n4 0\n0 4\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 0
        assert "F_tilde = 3\n" in out
        assert "F = 4\n" in out
        assert "slope_eigs = 0.5" in out
        assert "intercept = 1\n" in out
        assert "in_theta_box = false" in out

    def test_indefinite_projection_prints_undefined(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n-1 0\n0 -1\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 0
        assert "F = undefined" in out

    def test_herm_input(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "herm 1\n1,0\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 0
        assert "F_tilde = 1\n" in out

    def test_herm_bad_blocks_exits_3(self, tmp_path, capsys):
        # real block must be symmetric
        mat = write(tmp_path / "m.txt", "herm 2\n1,0 5,0\n0,0 1,0\n")
        code, _, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 3

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0\n")
        code, _, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 2
        assert "row 2: expected 2 entries" in err

    def test_non_finite_entry_exits_2(self, tmp_path, capsys):
        for text in ("sym 2\n1 nan\nnan 1\n", "herm 1\nnan,0\n"):
            mat = write(tmp_path / "m.txt", text)
            code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
            assert code == 2 and out == ""
            assert err.startswith("parse error: row 1, column ")
            assert "bad or non-finite number" in err

    def test_odd_dimension_exits_3(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 3\n1 0 0\n0 1 0\n0 0 1\n")
        code, _, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 3

    def test_bad_theta_exits_3(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        code, _, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "-1"])
        assert code == 3

    def test_theta_and_bounds_conflict_exits_3(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        code, _, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5",
                                       "--lam", "1", "--Lam", "2"])
        assert code == 3

    def test_smallest_theta_evaluates(self, tmp_path, capsys):
        # just above sqrt(tiny) = 1.4916681462400413e-154, the bound ThetaBox refuses below
        mat = write(tmp_path / "m.txt", "sym 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "1.5e-154"])
        assert code == 0 and err == ""
        assert "F_tilde = 1\n" in out and "in_theta_box = true" in out

    def test_value_beyond_float_range_exits_3(self, tmp_path, capsys):
        # Ftilde = -1e300/theta does not fit in a float: one error line, no
        # -inf printed (filterwarnings = error would catch an overflow warning)
        mat = write(tmp_path / "m.txt", "sym 2\n-1e300 0\n0 -1e300\n")
        code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "1e-10"])
        assert code == 3 and out == ""
        assert err.startswith("error: envelope value overflows the float range")
        assert len(err.splitlines()) == 1

    def test_lambda_pair(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--lam", "2", "--Lam", "2"])
        assert code == 0
        assert "in_theta_box = false" not in out


class TestConjugate:
    def test_values(self, capsys):
        code, out, _ = run_main(capsys, ["conjugate", "--p", "0.5", "--theta", "0.5"])
        assert code == 0
        assert "g = 1\n" in out
        assert "maximizer = 2" in out

    def test_rejects_out_of_box(self, capsys):
        code, _, _ = run_main(capsys, ["conjugate", "--p", "0.1", "--theta", "0.5"])
        assert code == 3

    def test_bad_list_exits_2(self, capsys):
        code, _, _ = run_main(capsys, ["conjugate", "--p", "a,b", "--theta", "0.5"])
        assert code == 2


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", "1",
                                         "--samples", "50", "--seed", "42"])
        assert code == 0
        assert "all_pass = true" in out

    def test_single_sample(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", "1",
                                         "--samples", "1", "--seed", "1"])
        assert code == 0

    def test_theta_above_one_normalized_with_notice(self, capsys):
        code, out, _ = run_main(capsys, ["verify", "--theta", "1.5", "--n", "1",
                                         "--samples", "5", "--seed", "1"])
        assert code == 0
        assert "notice: theta normalized to 0.66666666666666663" in out

    def test_n_above_maximum_exits_3(self, capsys):
        code, out, err = run_main(capsys, ["verify", "--theta", "0.5", "--n", "9",
                                           "--samples", "10", "--seed", "1"])
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: n=9 exceeds the supported maximum 8"]

    def test_huge_n_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run_main(capsys, ["verify", "--theta", "0.5", "--n", "100000",
                                         "--samples", "1000", "--seed", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.splitlines() == ["error: n=100000 exceeds the supported maximum 8"]

    @pytest.mark.parametrize("n", ["1", "2", "8"])
    def test_passes_near_theta_zero(self, n, capsys):
        # the checks allow rounding relative to the values they compare, which
        # grow like 1/theta
        code, out, _ = run_main(capsys, ["verify", "--theta", "1e-8", "--n", n,
                                         "--samples", "300", "--seed", "1"])
        assert code == 0
        assert "all_pass = true" in out

    @pytest.mark.parametrize("seed", ["11", "4294967295"])
    def test_benchmark_verify_workload_meets_its_gate(self, seed, capsys):
        # the verify-n2 benchmark workload and its correctness gate: all_pass
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", "2",
                                         "--samples", "1000", "--seed", seed])
        assert code == 0
        assert "all_pass = true\n" in out

    def test_negative_seed_exits_3(self, capsys):
        code, out, err = run_main(capsys, ["verify", "--theta", "0.5", "--n", "2",
                                           "--samples", "10", "--seed", "-1"])
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]


class TestEntry:
    """`python -m envma` and the console script share one process entry,
    which freezes the import-time objects; `main` itself freezes nothing."""

    VERIFY = ["verify", "--theta", "0.5", "--n", "2", "--samples", "50", "--seed", "3"]

    def test_module_run_prints_what_main_prints(self, capsys):
        frozen = gc.get_freeze_count()
        code, out, _ = run_main(capsys, self.VERIFY)
        assert code == 0 and gc.get_freeze_count() == frozen
        proc = subprocess.run([sys.executable, "-m", "envma", *self.VERIFY], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.encode()

    def test_console_script_is_the_module_entry(self):
        from envma.__main__ import entry

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]")[1].split("[")[0]
        assert scripts.split() == ["envma", "=", f'"{entry.__module__}:{entry.__name__}"']


class TestSolve:
    def test_quadratic(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", QUAD_CFG)
        out_dir = str(tmp_path / "out")
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", out_dir])
        assert code == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "converged = true" in report
        iterations = int(report.split("iterations = ")[1].split("\n")[0])
        steps = report.split("krylov_steps = ")[1].split("\n")[0].split(",")
        assert len(steps) == iterations and all(int(k) >= 0 for k in steps)
        final = float(report.split("final_residual = ")[1].split("\n")[0])
        assert final <= 1e-9
        res = np.loadtxt(tmp_path / "out" / "residual.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(res[:, -1])) <= 1e-9

    def test_benchmark_solve_workload_meets_its_gate(self, tmp_path, capsys):
        # the solve-n2-railed benchmark workload and its correctness gate:
        # converged, residual within tol, the reference solution to 1e-7
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        cfg = str(bench / "workloads" / "solve-n2-railed.cfg")
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "converged = true\n" in (tmp_path / "out" / "report.txt").read_text()
        res = np.loadtxt(tmp_path / "out" / "residual.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(res[:, -1])) <= 1e-10
        sol = np.loadtxt(tmp_path / "out" / "solution.csv", delimiter=",", skiprows=1)
        ref = np.load(bench / "reference" / "solve-n2-railed-solution.npy")
        assert sol.shape[0] == ref.shape[0]
        assert np.max(np.abs(sol[:, -1] - ref)) <= 1e-7

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", QUAD_CFG.replace("pointsPerAxis = 9\n", ""))
        code, _, err = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "pointsPerAxis" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", QUAD_CFG + "zork = 1\n")
        code, _, err = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "zork" in err

    def test_theta_and_lambda_conflict_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", QUAD_CFG + "lambda = 1\nLambda = 2\n")
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_lambda_pair_config(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg",
                    QUAD_CFG.replace("theta = 0.4\n", "lambda = 2\nLambda = 2\n"))
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0

    def test_max_iter_exceeded_exits_4_with_artifacts(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", ITER_CFG + "maxIter = 1\n")
        out_dir = tmp_path / "out"
        code, _, err = run_main(capsys, ["solve", "--config", cfg, "--out", str(out_dir)])
        assert code == 4
        assert (out_dir / "solution.csv").exists()
        assert (out_dir / "residual.csv").exists()
        assert "converged = false" in (out_dir / "report.txt").read_text()

    def test_g_from_file(self, tmp_path, capsys):
        grid_points = 9 * 9
        gfile = tmp_path / "g.txt"
        gfile.write_text("\n".join(["2.0"] * grid_points) + "\n")
        cfg = write(tmp_path / "p.cfg", QUAD_CFG.replace("g = constant:2", f"g = file:{gfile}"))
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0


class TestNumericalFailure:
    """A failed frozen-policy solve or exact evaluation exits 5 with one
    `error:` line, not a traceback."""

    @staticmethod
    def break_linear_solve(monkeypatch):
        monkeypatch.setattr(solver, "_evaluate_policy",
                            lambda grid, A, b, *args: np.full(len(b), np.nan))

    def test_solve_linear_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        self.break_linear_solve(monkeypatch)
        cfg = write(tmp_path / "p.cfg", QUAD_CFG)
        code, out, err = run_main(capsys, ["solve", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 5
        assert err.startswith("error: LinearSolveFailure: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_convergence_linear_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        self.break_linear_solve(monkeypatch)
        cfg = write(tmp_path / "c.cfg", QUAD_CFG.replace("g = constant:2", "g = quadratic")
                    + "refinements = 9,17\n")
        code, _, err = run_main(capsys, ["convergence", "--config", cfg,
                                         "--out", str(tmp_path / "o")])
        assert code == 5
        assert err.startswith("error: LinearSolveFailure: ")
        assert err.count("\n") == 1

    def test_no_convergence_exits_5(self, tmp_path, capsys, monkeypatch):
        # x(t) = 2t misses the fixed point t = (prod x(t))^(1/n) everywhere
        monkeypatch.setattr(envelope, "_inner_max",
                            lambda t, m, box: 2.0 * t[:, np.newaxis] + 0.0 * m)
        cfg = write(tmp_path / "p.cfg", QUAD_CFG)
        code, _, err = run_main(capsys, ["solve", "--config", cfg,
                                         "--out", str(tmp_path / "o")])
        assert code == 5
        assert err.startswith("error: NoConvergence: ")
        assert err.count("\n") == 1


STUDY_CFG = QUAD_CFG.replace("g = constant:2", "g = quadratic") + "refinements = 9,17\n"

# (argv, config text, exit code, text the one stderr line contains); CFG is
# the config path, OUT a fresh output path, FILE an existing regular file,
# BELOW a path below that file, MAT a matrix file; the usage-* cases are
# command lines the parser rejects
FAILURES = {
    "points-per-axis-3": (["solve", "CFG", "OUT"],
                          QUAD_CFG.replace("pointsPerAxis = 9", "pointsPerAxis = 3"),
                          2, "pointsPerAxis"),
    "n-0": (["solve", "CFG", "OUT"], QUAD_CFG.replace("n = 1", "n = 0"), 2, "n must be"),
    "hi-below-lo": (["solve", "CFG", "OUT"], QUAD_CFG.replace("hi = 1,1", "hi = 1,-2"),
                    2, "lo < hi"),
    "lambda-above-Lambda": (["solve", "CFG", "OUT"],
                            QUAD_CFG.replace("theta = 0.4", "lambda = 2\nLambda = 1"),
                            2, "inconsistent bounds"),
    "theta-inf": (["solve", "CFG", "OUT"], QUAD_CFG.replace("theta = 0.4", "theta = inf"),
                  2, "'theta'"),
    "tol-nan": (["solve", "CFG", "OUT"], QUAD_CFG + "tol = nan\n", 2, "'tol'"),
    "lo-nan": (["solve", "CFG", "OUT"], QUAD_CFG.replace("lo = -1,-1", "lo = nan,-1"),
               2, "'lo'"),
    "max-iter-0": (["solve", "CFG", "OUT"], QUAD_CFG + "maxIter = 0\n", 2, "'maxIter'"),
    "constant-inf": (["solve", "CFG", "OUT"],
                     QUAD_CFG.replace("constant:2", "constant:inf"), 2, "constant:inf"),
    "repeated-refinement": (["convergence", "CFG", "OUT"],
                            QUAD_CFG.replace("g = constant:2", "g = quadratic")
                            + "refinements = 17,17\n", 2, "'refinements'"),
    "seed-key": (["solve", "CFG", "OUT"], QUAD_CFG + "seed = 12345\n", 2,
                 "unknown config keys: seed"),
    "study-g-not-builtin": (["convergence", "CFG", "OUT"], QUAD_CFG + "refinements = 9,17\n",
                            2, "'g'"),
    "out-is-a-file": (["solve", "CFG", "FILE"], QUAD_CFG, 3, "File exists"),
    "convergence-out-is-a-file": (["convergence", "CFG", "FILE"], STUDY_CFG, 3, "File exists"),
    "out-below-a-file": (["solve", "CFG", "BELOW"], QUAD_CFG, 3, "Not a directory"),
    "convergence-out-below-a-file": (["convergence", "CFG", "BELOW"], STUDY_CFG, 3,
                                     "Not a directory"),
    "usage-bad-int": (["verify", "--theta", "0.5", "--n", "abc", "--samples", "1", "--seed", "1"],
                      None, 2, "invalid int value: 'abc'"),
    "usage-no-command": ([], None, 2, "required: command"),
    "nan-slope": (["conjugate", "--p", "1,nan", "--theta", "0.5"], None, 2, "non-finite"),
    "nan-Lambda": (["conjugate", "--p", "1", "--lam", "1", "--Lam", "nan"], None, 3,
                   "eigenvalue bounds"),
    # theta outside [sqrt(tiny), 1/sqrt(tiny)]: theta^2 underflows to 0
    "eval-theta-1e-200": (["eval", "MAT", "--theta", "1e-200"], None, 3, "theta must lie in"),
    "eval-theta-1e300": (["eval", "MAT", "--theta", "1e300"], None, 3, "theta must lie in"),
    "verify-theta-1e-200": (["verify", "--theta", "1e-200", "--n", "2", "--samples", "20",
                             "--seed", "1"], None, 3, "theta must lie in"),
    "verify-theta-1e300": (["verify", "--theta", "1e300", "--n", "2", "--samples", "20",
                            "--seed", "1"], None, 3, "theta must lie in"),
    "verify-theta-1e-310": (["verify", "--theta", "1e-310", "--n", "2", "--samples", "20",
                             "--seed", "1"], None, 3, "theta must lie in"),
    "conjugate-theta-1e-310": (["conjugate", "--p", "1,1", "--theta", "1e-310"], None, 3,
                               "theta must lie in"),
    "solve-theta-1e-200": (["solve", "CFG", "OUT"],
                           QUAD_CFG.replace("theta = 0.4", "theta = 1e-200"),
                           2, "theta must lie in"),
    "convergence-theta-1e300": (["convergence", "CFG", "OUT"],
                                STUDY_CFG.replace("theta = 0.4", "theta = 1e300"),
                                2, "theta must lie in"),
}


class TestFailures:
    """Every failure exits with its documented code and one stderr line,
    before anything is solved; exits 2 and 3 leave no output directory
    behind."""

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_one_line_and_exit_code(self, case, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("solve_dirichlet was called")

        monkeypatch.setattr(solver, "solve_dirichlet", no_solve)
        argv, cfg_text, expected, needle = FAILURES[case]
        existing = tmp_path / "existing"
        existing.write_text("")
        paths = {"CFG": ["--config", str(tmp_path / "p.cfg")],
                 "OUT": ["--out", str(tmp_path / "o")],
                 "FILE": ["--out", str(existing)],
                 "BELOW": ["--out", str(existing / "sub")],
                 "MAT": ["--matrix", write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")]}
        if cfg_text is not None:
            write(tmp_path / "p.cfg", cfg_text)
        code, _, err = run_main(capsys, [a for tok in argv for a in paths.get(tok, [tok])])
        assert code == expected
        if case.startswith("usage-"):
            prefix = "usage error: "
        elif expected == 2:
            prefix = "config error: " if argv[0] in ("solve", "convergence") else "parse error: "
        else:
            prefix = "error: "
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert needle in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()
        assert existing.read_text() == ""


class TestConvergence:
    def test_quartic_orders(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", """\
n = 1
lo = 1,1
hi = 2,2
pointsPerAxis = 9
theta = 0.0625
boundary = quartic_radial
g = quartic_radial
refinements = 9,17,33
""")
        out_dir = str(tmp_path / "out")
        code, out, _ = run_main(capsys, ["convergence", "--config", cfg, "--out", out_dir])
        assert code == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        orders = [float(ln.split(",")[3]) for ln in lines[2:]]
        assert all(o >= 1.8 for o in orders)

    def test_benchmark_convergence_workload_meets_its_gate(self, tmp_path, capsys):
        # the convergence-n1 benchmark workload and its correctness gate:
        # the configured refinements, every observed order at least 1.8
        cfg = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "convergence-n1.cfg"
        code, _, _ = run_main(capsys, ["convergence", "--config", str(cfg),
                                       "--out", str(tmp_path / "out")])
        assert code == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")[1:]]
        assert [int(r[0]) for r in rows] == [17, 33, 65]
        assert all(float(r[3]) >= 1.8 for r in rows[1:])

    def test_warns_outside_tangency_region(self, tmp_path, capsys):
        # n = 2 on [1, 2]^4 at theta = 1/16: D^2 u leaves the box where
        # |x|^2 > 8, so the study warns per refinement and still writes its table
        cfg = write(tmp_path / "c.cfg", """\
n = 2
lo = 1,1,1,1
hi = 2,2,2,2
pointsPerAxis = 5
theta = 0.0625
boundary = quartic_radial
g = quartic_radial
refinements = 5,7
""")
        code, out, err = run_main(capsys, ["convergence", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 0 and len(out.splitlines()) == 3
        lines = err.splitlines()
        assert len(lines) == 2
        for line, (P, m) in zip(lines, ((5, 3), (7, 5))):
            assert line.startswith(f"warning: refinement {P}: the exact u leaves the tangency")
            assert f" of {m ** 4} interior points" in line

    def test_no_warning_inside_tangency_region(self, tmp_path, capsys):
        # the n = 1 study on [1, 2]^2 at theta = 1/16 stays in the region
        cfg = write(tmp_path / "c.cfg", """\
n = 1
lo = 1,1
hi = 2,2
pointsPerAxis = 17
theta = 0.0625
boundary = quartic_radial
g = quartic_radial
maxIter = 100
tol = 1e-10
refinements = 17,33,65
""")
        code, out, err = run_main(capsys, ["convergence", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 0 and len(out.splitlines()) == 4
        assert err == ""

    def test_requires_builtin(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", ITER_CFG + "refinements = 9,17\n")
        code, _, err = run_main(capsys, ["convergence", "--config", cfg,
                                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "built-in" in err

    def test_study_does_not_read_points_per_axis(self, tmp_path, capsys):
        # each refinement has its own grid; a pointsPerAxis is not needed
        cfg = write(tmp_path / "c.cfg", STUDY_CFG.replace("pointsPerAxis = 9\n", ""))
        code, out, err = run_main(capsys, ["convergence", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 0 and len(out.splitlines()) == 3 and err == ""

    def test_linear_solver_key_is_config_error(self, tmp_path, capsys):
        # the frozen-policy solve has one path; the key that chose one is gone
        for value in ("direct", "gauss_seidel"):
            cfg = write(tmp_path / "c.cfg", QUAD_CFG.replace("g = constant:2", "g = quadratic")
                        + f"linearSolver = {value}\nrefinements = 9,17\n")
            code, out, err = run_main(capsys, ["convergence", "--config", cfg,
                                               "--out", str(tmp_path / "o")])
            assert code == 2
            assert err == "config error: unknown config keys: linearSolver\n"
            assert out == ""

    def test_too_coarse_refinement_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", QUAD_CFG.replace("g = constant:2", "g = quadratic")
                    + "refinements = 3,9\n")
        code, _, err = run_main(capsys, ["convergence", "--config", cfg,
                                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert err.startswith("config error: ") and "pointsPerAxis" in err
        assert not (tmp_path / "o").exists()


BLOCKED = """\
import sys
blocked = sys.argv[1]
sys.modules[blocked] = None   # every import of it now raises ImportError
from envma.cli import main
code = main(sys.argv[2:])
print(blocked + ":", sorted(m for m, mod in sys.modules.items()
                            if m.split(".")[0] == blocked and mod is not None))
sys.exit(code)
"""


class TestImports:
    """envma needs numpy alone, and verify, eval and conjugate load no solver."""

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        cfg = write(tmp_path / "p.cfg", QUAD_CFG)
        study = write(tmp_path / "c.cfg", QUAD_CFG.replace("g = constant:2", "g = quadratic")
                      + "refinements = 9,17\n")
        no_solver = [["eval", "--matrix", mat, "--theta", "0.5"],
                     ["conjugate", "--p", "1,1", "--theta", "0.5"],
                     ["verify", "--theta", "0.5", "--n", "2", "--samples", "20", "--seed", "3"]]
        runs = [(blocked, args) for blocked in ("scipy", "envma.solver") for args in no_solver]
        runs += [("scipy", ["solve", "--config", cfg, "--out", str(tmp_path / "s")]),
                 ("scipy", ["convergence", "--config", study, "--out", str(tmp_path / "c")])]
        for blocked, args in runs:
            proc = subprocess.run([sys.executable, "-c", BLOCKED, blocked, *args],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (blocked, args, proc.stderr)
            assert proc.stdout.splitlines()[-1] == f"{blocked}: []"

    def test_all_names_resolve(self):
        assert all(hasattr(envma, name) for name in envma.__all__)
        assert envma.solve_dirichlet is solver.solve_dirichlet
        assert envma.envelope is envelope and envma.solver is solver
        assert set(envma.__all__) <= set(dir(envma))
        with pytest.raises(AttributeError, match="no_such_name"):
            envma.no_such_name
        # importing the package loads no submodule; a module is loaded on use
        proc = subprocess.run([sys.executable, "-c", "import sys, envma; "
                               "print(sorted(m for m in sys.modules if m.startswith('envma'))); "
                               "print(envma.solver.GridSpec.__module__)"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['envma']\nenvma.solver\n"
