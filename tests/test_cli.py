"""Command-line interface tests: outputs and exit codes."""

import ast
import gc
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import envma.cli
from envma import envelope, matio, solver, verify
from envma import matrixcore as mc
from envma.cli import main
from oracles import det_root, hermitian_eigs_of

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


def _eval_corpus():
    """Matrices for eval per n = 1..4: Hermitian diagonals diag(v, 1, ..., 1)
    with v on the faces of the theta = 0.5 box, just across them, zero,
    subnormal, negative and huge, then random symmetric matrices, half of
    them positive definite."""
    corpus = {}
    for n in (1, 2, 3, 4):
        for v in (0.5, 2.0, 0.5 - 1e-10, 2.0 + 1e-10, 0.0, 1e-320, -1.0, 1e300):
            corpus[f"n{n}-diag-{v!r}"] = mc.embed(np.diag([v] + [1.0] * (n - 1)) + 0j)
        rng = np.random.default_rng(n)
        for k in range(4):
            G = rng.normal(size=(2 * n, 2 * n))
            corpus[f"n{n}-random-{k}"] = G @ G.T / n if k % 2 else (G + G.T) / 2
    return corpus


EVAL_CORPUS = _eval_corpus()


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

    @pytest.mark.parametrize("text, theta, value", [
        ("sym 2\n1.5e308 0\n0 1.5e308\n", "0.5", "7.5000000000000001e+307"),
        ("sym 4\n1.5e308 0 0 0\n0 1 0 0\n0 0 1.5e308 0\n0 0 0 1\n", "0.5",
         "7.5000000000000001e+307"),
        ("sym 4\n1.5e308 0 0 0\n0 1 0 0\n0 0 1.5e308 0\n0 0 0 1\n", "0.1",
         "1.5000000000000002e+307"),
        # theta (4.9e307 + 1.5e308) is beyond the float range, the value
        # theta 4.9e307 + theta 1.5e308 is not
        ("sym 4\n4.9e307 0 0 0\n0 1.5e308 0 0\n0 0 4.9e307 0\n0 0 0 1.5e308\n", "0.5",
         "9.9500000000000004e+307"),
    ])
    def test_finite_entries_near_the_float_limit_evaluate(self, text, theta, value, tmp_path,
                                                          capsys):
        # Ftilde = theta mu + O(1) fits in a float although mu + mu does not
        mat = write(tmp_path / "m.txt", text)
        code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", theta])
        assert code == 0 and err == ""
        assert f"F_tilde = {value}\n" in out

    def test_sum_of_finite_terms_beyond_float_range_exits_3(self, tmp_path, capsys):
        # every eigenvalue's term 0.9 * 1.5e308 fits in a float, their sum does not
        mat = write(tmp_path / "m.txt", "sym 4\n" + "".join(
            " ".join("1.5e308" if j == i else "0" for j in range(4)) + "\n" for i in range(4)))
        code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.9"])
        assert code == 3 and out == ""
        assert err.startswith("error: envelope value overflows the float range")
        assert len(err.splitlines()) == 1

    def test_infinite_asymmetry_exits_3(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n0 1.5e308\n-1.5e308 0\n")
        code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: matrix asymmetry inf exceeds tolerance 1e-09"]

    def test_lambda_pair(self, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--lam", "2", "--Lam", "2"])
        assert code == 0
        assert "in_theta_box = false" not in out

    def test_finds_the_spectrum_once(self, tmp_path, capsys, monkeypatch):
        # F and in_theta_box are read from the certificate's eigenvalues
        calls = []
        eigensystem = mc.herm_eigensystem

        def counted(Z):
            calls.append(Z.shape)
            return eigensystem(Z)

        monkeypatch.setattr(mc, "herm_eigensystem", counted)
        mat = write(tmp_path / "m.txt", matio.format_matrix_text(EVAL_CORPUS["n2-random-1"]))
        code, out, _ = run_main(capsys, ["eval", "--matrix", mat, "--theta", "0.5"])
        assert code == 0 and "F = undefined" not in out
        assert calls == [(1, 2, 2)]

    @pytest.mark.parametrize("name", sorted(EVAL_CORPUS))
    def test_f_and_box_lines_match_their_references(self, name, tmp_path, capsys):
        mat = write(tmp_path / "m.txt", matio.format_matrix_text(EVAL_CORPUS[name]))
        M = matio.load_matrix(mat)
        try:
            f = matio.fmt(det_root(M))
        except ValueError:
            f = "undefined"
        mu = hermitian_eigs_of(M)
        # at theta = 1e-10 the zero matrix, whose F is undefined, lies within
        # an absolute 1e-9 of the box but outside the relative slack
        for theta in (0.5, 0.3, 1e-8, 1e-10):
            code, out, err = run_main(capsys, ["eval", "--matrix", mat, "--theta", str(theta)])
            assert code == 0 and err == ""
            lines = dict(line.split(" = ") for line in out.splitlines())
            assert lines["F"] == f
            inside = mu[0] >= theta * (1 - 1e-9) and mu[-1] <= (1.0 / theta) * (1 + 1e-9)
            assert lines["in_theta_box"] == ("true" if inside else "false"), theta


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

    @pytest.mark.parametrize("n", ["3", "8"])
    def test_passes_at_higher_n(self, n, capsys):
        # 600 samples: one full block of 585 and a partial one; 8 is the
        # largest supported n
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", n,
                                         "--samples", "600", "--seed", "3"])
        assert code == 0
        assert f"n = {n}\nsamples = 600\n" in out and out.endswith("all_pass = true\n")

    @pytest.mark.parametrize("seed", ["11", "4294967295"])
    def test_benchmark_verify_workload_meets_its_gate(self, seed, capsys):
        # the verify-n2 benchmark workload and its correctness gate: all_pass
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", "2",
                                         "--samples", "1000", "--seed", seed])
        assert code == 0
        assert "all_pass = true\n" in out

    def test_failure_prints_the_earliest_counterexample(self, capsys, monkeypatch):
        # domination and agreement fail at sample 5, concavity at sample 8:
        # the earliest sample wins, a tie goes to the report's first property,
        # and the counterexample is the in-box matrix those checks evaluate
        check = verify._check_samples
        seen = {}

        def failing(box, block):
            out = check(box, block)
            for name, idx in (("domination", 5), ("agreement", 5), ("concavity", 8)):
                ok, claims = (a.copy() for a in out[name])
                ok[idx], claims[idx] = False, True
                out[name] = (ok, claims)
            seen.update(m_in=block["m_in"][5], m1=block["m1"][5])
            return out

        monkeypatch.setattr(verify, "_check_samples", failing)
        code, out, _ = run_main(capsys, ["verify", "--theta", "0.5", "--n", "2",
                                         "--samples", "10", "--seed", "3"])
        assert code == 1
        assert "domination_fail = 1\n" in out and "concavity_fail = 1\n" in out
        assert "all_pass = false\n" in out
        tail = out.split("all_pass = false\n", 1)[1]
        assert tail == ("first_failure_property = domination\nfirst_failure_sample = 5\n"
                        + matio.format_matrix_text(seen["m_in"]))
        assert matio.format_matrix_text(seen["m1"]) not in out

    def test_negative_seed_exits_3(self, capsys):
        code, out, err = run_main(capsys, ["verify", "--theta", "0.5", "--n", "2",
                                           "--samples", "10", "--seed", "-1"])
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]


class TestEntry:
    """`python -m envma` and the console script share one process entry,
    which imports the command line with the collector off and freezes the
    import-time objects; `main` itself freezes nothing."""

    VERIFY = ["verify", "--theta", "0.5", "--n", "2", "--samples", "50", "--seed", "3"]

    def test_module_run_prints_what_main_prints(self, capsys):
        frozen = gc.get_freeze_count()
        code, out, _ = run_main(capsys, self.VERIFY)
        assert code == 0 and gc.get_freeze_count() == frozen
        proc = subprocess.run([sys.executable, "-m", "envma", *self.VERIFY], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.encode()

    def test_importing_the_entry_module_leaves_the_collector_alone(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "envma.__main__", raising=False)
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        importlib.import_module("envma.__main__")
        assert gc.isenabled() == enabled and gc.get_freeze_count() == frozen

    def test_entry_runs_main_collecting_with_the_imports_frozen(self, monkeypatch):
        from envma.__main__ import entry

        seen = []
        monkeypatch.setattr(envma.cli, "main",
                            lambda: seen.append((gc.isenabled(), gc.get_freeze_count())) or 7)
        try:
            assert entry() == 7
        finally:
            gc.unfreeze()
        [(enabled, frozen)] = seen
        assert enabled and frozen > 0
        assert gc.isenabled()

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
        # converged, residual within tol, the reference solution to 1e-12
        # (the benchmark allows 1e-7; a solver change that moves the answer
        # by more than rounding fails here); and its cost, 3 Howard
        # iterations and at most 26 Krylov steps, so that Krylov steps are
        # not traded for Howard iterations
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        cfg = str(bench / "workloads" / "solve-n2-railed.cfg")
        code, _, _ = run_main(capsys, ["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "converged = true\n" in report and "iterations = 3\n" in report
        steps = report.split("krylov_steps = ")[1].split("\n")[0].split(",")
        assert len(steps) == 3 and sum(map(int, steps)) <= 26
        res = np.loadtxt(tmp_path / "out" / "residual.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(res[:, -1])) <= 1e-10
        sol = np.loadtxt(tmp_path / "out" / "solution.csv", delimiter=",", skiprows=1)
        ref = np.load(bench / "reference" / "solve-n2-railed-solution.npy")
        assert sol.shape[0] == ref.shape[0]
        assert np.max(np.abs(sol[:, -1] - ref)) <= 1e-12

    def test_report_names_its_problem(self, tmp_path, capsys):
        # the five problem lines follow krylov_steps, floats at 17 digits
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        cfg = bench / "workloads" / "solve-n2-railed.cfg"
        code, _, _ = run_main(capsys, ["solve", "--config", str(cfg),
                                       "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines[:5]] == [
            "iterations", "converged", "final_residual", "residual_history", "krylov_steps"]
        assert lines[5:] == ["n = 2", "points_per_axis = 9", "theta = 0.40000000000000002",
                             "tol = 1e-10", "max_iter = 100"]

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

    def test_well_formed_refinements_key_is_parsed_and_unused(self, tmp_path, capsys):
        # a solve parses the study's key, so a malformed one fails (FAILURES),
        # but a well-formed one does not change the solve
        for name, extra in (("plain", ""), ("with-key", "refinements = 17,17\n")):
            cfg = write(tmp_path / f"{name}.cfg", QUAD_CFG + extra)
            code, _, _ = run_main(capsys, ["solve", "--config", cfg,
                                           "--out", str(tmp_path / name)])
            assert code == 0
        for artifact in ("solution.csv", "residual.csv", "report.txt"):
            assert ((tmp_path / "plain" / artifact).read_text()
                    == (tmp_path / "with-key" / artifact).read_text())

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
                            lambda A, b, *args: (np.full(len(b), np.nan), 0))

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


OVERFLOW_CFG = """\
n = 1
lo = 0,0
hi = 1,1
pointsPerAxis = 5
theta = 0.5
boundary = quadratic
g = constant:1
maxIter = 5
"""


class TestOverflow:
    """Finite data beyond what the solver's floats hold exits with its
    documented code and one stderr line, numpy warnings included: the
    command runs as users run it, in its own process."""

    @pytest.mark.parametrize("old, new, code, prefix", [
        ("g = constant:1", "g = constant:1e308", 5, "error: LinearSolveFailure: "),
        ("boundary = quadratic", "boundary = constant:1e308", 3,
         "error: the discrete Hessian of the start is not finite"),
        ("hi = 1,1", "hi = 1e-300,1e-300", 3,
         "error: the discrete Hessian of the start is not finite"),
    ], ids=["g-1e308", "boundary-1e308", "hi-1e-300"])
    def test_one_line_and_nothing_written(self, old, new, code, prefix, tmp_path):
        cfg = write(tmp_path / "p.cfg", OVERFLOW_CFG.replace(old, new))
        proc = subprocess.run([sys.executable, "-m", "envma", "solve", "--config", cfg,
                               "--out", str(tmp_path / "o")], capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(prefix)
        assert proc.stdout == "" and not (tmp_path / "o").exists()


STUDY_CFG = QUAD_CFG.replace("g = constant:2", "g = quadratic") + "refinements = 9,17\n"

# (argv, input text, exit code, text the one stderr line contains); CFG is
# the config path, OUT a fresh output path, FILE an existing regular file,
# BELOW a path below that file, LONG a path below OUT with a level whose
# name is one byte too long, EMPTY an empty --out, MAT a matrix file; the
# input text is that of the matrix file with MAT (the 2 x 2 identity when
# None) and otherwise of the config (none is written when None); the
# usage-* cases are command lines the parser rejects
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
    "solve-bad-refinements": (["solve", "CFG", "OUT"], QUAD_CFG + "refinements = 9,x\n", 2,
                              "config key 'refinements': bad integer list '9,x'"),
    "study-bad-points-per-axis": (["convergence", "CFG", "OUT"],
                                  STUDY_CFG.replace("pointsPerAxis = 9", "pointsPerAxis = x"),
                                  2, "config key 'pointsPerAxis': bad integer 'x'"),
    "refinements-as-written": (["convergence", "CFG", "OUT"],
                               STUDY_CFG.replace("refinements = 9,17", "refinements = 9, 9"),
                               2, "config key 'refinements': must be distinct, got '9, 9'"),
    "refinement-below-5": (["convergence", "CFG", "OUT"],
                           STUDY_CFG.replace("refinements = 9,17", "refinements = 9, 4"),
                           2, "config key 'refinements': must be >= 5 (3 interior points "
                              "per axis), got '9, 4'"),
    "study-g-not-builtin": (["convergence", "CFG", "OUT"], QUAD_CFG + "refinements = 9,17\n",
                            2, "'g'"),
    "out-is-a-file": (["solve", "CFG", "FILE"], QUAD_CFG, 3, "File exists"),
    "convergence-out-is-a-file": (["convergence", "CFG", "FILE"], STUDY_CFG, 3, "File exists"),
    "out-below-a-file": (["solve", "CFG", "BELOW"], QUAD_CFG, 3, "Not a directory"),
    "convergence-out-below-a-file": (["convergence", "CFG", "BELOW"], STUDY_CFG, 3,
                                     "Not a directory"),
    "out-empty": (["solve", "CFG", "EMPTY"], QUAD_CFG, 3, "No such file or directory: ''"),
    "convergence-out-empty": (["convergence", "CFG", "EMPTY"], STUDY_CFG, 3,
                              "No such file or directory: ''"),
    "out-name-too-long": (["solve", "CFG", "LONG"], QUAD_CFG, 3, "File name too long"),
    "convergence-out-name-too-long": (["convergence", "CFG", "LONG"], STUDY_CFG, 3,
                                      "File name too long"),
    "usage-bad-int": (["verify", "--theta", "0.5", "--n", "abc", "--samples", "1", "--seed", "1"],
                      None, 2, "invalid int value: 'abc'"),
    "usage-no-command": ([], None, 2, "required: command"),
    "usage-unknown-command": (["evaluate", "MAT"], None, 2,
                              "usage error: envma: argument command: invalid choice: 'evaluate' "
                              "(choose from 'eval', 'conjugate', 'verify', 'solve', "
                              "'convergence')\n"),
    "usage-unknown-flag": (["eval", "MAT", "--Theta", "0.5"], None, 2,
                           "usage error: envma: unrecognized arguments: --Theta 0.5\n"),
    "usage-flag-without-value": (["eval", "MAT", "--theta"], None, 2,
                                 "usage error: envma eval: argument --theta: "
                                 "expected one argument\n"),
    "usage-missing-flags": (["verify", "--theta", "0.5", "--samples", "10"], None, 2,
                            "usage error: envma verify: the following arguments are required: "
                            "--n, --seed\n"),
    "usage-missing-out": (["convergence", "CFG"], STUDY_CFG, 2,
                          "usage error: envma convergence: the following arguments are "
                          "required: --out\n"),
    "usage-ambiguous-prefix": (["verify", "--theta", "0.5", "--n", "2", "--s", "10"], None, 2,
                               "usage error: envma verify: ambiguous option: --s could match "
                               "--samples, --seed\n"),
    "usage-bad-float": (["eval", "MAT", "--theta", "half"], None, 2,
                        "usage error: envma eval: argument --theta: invalid float value: "
                        "'half'\n"),
    "usage-bad-float-after-equals": (["conjugate", "--p", "1,1", "--lam=", "--Lam", "2"], None, 2,
                                     "usage error: envma conjugate: argument --lam: invalid "
                                     "float value: ''\n"),
    "usage-flags-after-double-dash": (["eval", "--", "MAT", "--theta", "0.5"], None, 2,
                                      "usage error: envma eval: the following arguments are "
                                      "required: --matrix\n"),
    # the token after a flag is its value, even one that starts with "-": the
    # slope list reaches conjugate's own check (argparse read it as a flag)
    "conjugate-negative-slope": (["conjugate", "--p", "-1,2", "--theta", "0.5"], None, 3,
                                 "error: slope [-1.  2.] outside the box [0.5, 2]\n"),
    # at theta = 1e-10 this slope lies within 1e-12 / theta of the box but
    # outside the relative slack of the slope check
    "conjugate-negative-slope-tiny-theta": (["conjugate", "--p", "-0.009", "--theta", "1e-10"],
                                            None, 3, "error: slope [-0.009] outside the box "
                                                     "[1e-10, 1e+10]\n"),
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
    "conjugate-lam-alone": (["conjugate", "--p", "1", "--lam", "0.5"], None, 3,
                            "lambda and Lambda go together"),
    "verify-Lam-alone": (["verify", "--n", "2", "--samples", "10", "--seed", "1", "--Lam", "2"],
                         None, 3, "lambda and Lambda go together"),
    "config-unreadable": (["solve", "CFG", "OUT"], None, 2, "cannot read config"),
    "g-file-unreadable": (["solve", "CFG", "OUT"],
                          QUAD_CFG.replace("constant:2", "file:/nonexistent/g.txt"),
                          2, "cannot read grid data '/nonexistent/g.txt'"),
    "boundary-unknown": (["solve", "CFG", "OUT"],
                         QUAD_CFG.replace("boundary = quadratic", "boundary = nosuch"), 2,
                         "config key 'boundary': unknown field 'nosuch' "
                         "(quadratic | quartic_radial | constant:<v> | file:<path>)"),
    "tol-0": (["solve", "CFG", "OUT"], QUAD_CFG + "tol = 0\n", 2, "'tol': must be positive"),
    "tol-negative": (["solve", "CFG", "OUT"], QUAD_CFG + "tol = -1e-3\n", 2,
                     "'tol': must be positive"),
    "matrix-only-a-comment": (["eval", "MAT", "--theta", "0.5"], "# a comment\n", 2,
                              "empty matrix file"),
    "matrix-bad-dimension": (["eval", "MAT", "--theta", "0.5"], "sym x\n1 0\n0 1\n", 2,
                             "bad dimension"),
}
# non-finite bounds are named: --lam 1 --Lam inf gave a theta of 0, refused as
# a theta no one gave
FAILURES.update({
    f"{argv[0]}-lam-{lam}-Lam-{Lam}": (argv + ["--lam", lam, "--Lam", Lam], None, 3,
                                       f"error: eigenvalue bounds must be finite and positive, "
                                       f"got lambda={float(lam)}, Lambda={float(Lam)}\n")
    for argv in (["eval", "MAT"], ["conjugate", "--p", "1,1"],
                 ["verify", "--n", "2", "--samples", "10", "--seed", "1"])
    for lam, Lam in (("0.5", "nan"), ("1", "inf"), ("inf", "inf"))
})


class TestFailures:
    """Every failure exits with its documented code and one stderr line,
    before anything is solved; exits 2 and 3 leave no output directory
    behind."""

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_one_line_and_exit_code(self, case, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("solve_dirichlet was called")

        monkeypatch.setattr(solver, "solve_dirichlet", no_solve)
        argv, text, expected, needle = FAILURES[case]
        existing = tmp_path / "existing"
        existing.write_text("")
        long_name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        cfg, mat = tmp_path / "p.cfg", tmp_path / "m.txt"
        paths = {"CFG": ["--config", str(cfg)],
                 "OUT": ["--out", str(tmp_path / "o")],
                 "FILE": ["--out", str(existing)],
                 "BELOW": ["--out", str(existing / "sub")],
                 "LONG": ["--out", str(tmp_path / "o" / long_name / "y")],
                 "EMPTY": ["--out", ""],
                 "MAT": ["--matrix", str(mat)]}
        if "MAT" in argv:
            write(mat, "sym 2\n1 0\n0 1\n" if text is None else text)
        elif text is not None:
            write(cfg, text)
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

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory"),
        # numpy's message for the mesh of an n = 3 grid with 200 points per axis
        ("Unable to allocate 466. TiB for an array with shape (200, 200, 200, 200, 200, 200) "
         "and data type float64",
         "error: Unable to allocate 466. TiB for an array with shape "
         "(200, 200, 200, 200, 200, 200) and data type float64"),
    ])
    def test_memory_error_exits_3(self, message, line, tmp_path, capsys, monkeypatch):
        # a grid too large for memory fails while the config is checked
        def no_memory(grid):
            raise MemoryError(message)

        monkeypatch.setattr(solver.GridSpec, "mesh", no_memory)
        cfg = write(tmp_path / "p.cfg", QUAD_CFG)
        code, out, err = run_main(capsys, ["solve", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 3 and out == ""
        assert err.splitlines() == [line] and err.endswith("\n")
        assert not (tmp_path / "o").exists()

    def test_readme_lists_every_exit_code(self):
        # the table after README's "Exit codes." names exactly the codes
        # the CLI defines
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Exit codes.", 1)[1].split("\n\n", 2)[1]
        codes = re.findall(r"^\| `(\d+)` \|", table, flags=re.MULTILINE)
        defined = {v for k, v in vars(envma.cli).items() if k.startswith("EXIT_")}
        assert {int(c) for c in codes} == defined


class TestCommandLine:
    """`cli.COMMANDS` is the one table of the commands and their flags: the
    forms `--flag=value`, a unique prefix and a repeated flag parse to what
    the full form does, --help lists every command and flag, and README
    lists the table."""

    VERIFY = ["verify", "--theta", "0.5", "--n", "2", "--samples", "30", "--seed", "3"]
    CONJUGATE = ["conjugate", "--p", "1,1.5", "--lam", "0.5", "--Lam", "3"]

    @pytest.mark.parametrize("argv, full", [
        (["verify", "--theta=0.5", "--n=2", "--samples=30", "--seed=3"], VERIFY),
        (["verify", "--th", "0.5", "--n", "2", "--sa", "30", "--se", "3"], VERIFY),
        (["verify", "--the=0.5", "--n", "2", "--sam=30", "--see", "3"], VERIFY),
        (["verify", "--theta", "0.9", "--n", "5", "--samples", "1", "--seed", "8",
          "--theta", "0.5", "--n=2", "--samp", "30", "--seed", "3"], VERIFY),
        (["conjugate", "--p=1,1.5", "--l", "0.5", "--L", "3"], CONJUGATE),
        (["conjugate", "--lam", "2", "--La=3", "--p", "1,1.5", "--la", "0.5"], CONJUGATE),
    ])
    def test_other_forms_parse_to_the_full_form(self, argv, full, capsys):
        values = envma.cli._parse(full)[1]
        assert envma.cli._parse(argv) == (full[0], values)
        assert {k: type(v) for k, v in values.items()} == {
            k: envma.cli.COMMANDS[full[0]][2][k][0] for k in values}
        assert run_main(capsys, argv) == run_main(capsys, full)

    def test_help_lists_every_command_and_flag(self):
        def help_text(*args):
            proc = subprocess.run([sys.executable, "-m", "envma", *args], capture_output=True,
                                  text=True)
            assert proc.returncode == 0 and proc.stderr == "", (args, proc.stderr)
            return proc.stdout

        top = help_text("--help")
        for name, (_, summary, flags, _) in envma.cli.COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(summary)}$", top, flags=re.MULTILINE)
            text = help_text(name, "--help")
            assert summary in text
            assert re.findall(r"^  --(\w+) ", text, flags=re.MULTILINE) == list(flags)

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["eval", "-h"], ["solve", "--he"],
                                      ["eval", "--help", "--theta", "abc"],
                                      ["verify", "--n", "2", "--help"]])
    def test_help_anywhere_prints_usage_and_exits_0(self, argv, capsys):
        code, out, err = run_main(capsys, argv)
        assert code == 0 and err == "" and out.startswith("usage: envma ")

    def test_readme_lists_every_command_and_flag(self):
        # the table after README's "Commands and flags." lists each command
        # of cli.COMMANDS with its required and its optional flags, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Commands and flags.", 1)[1].split("\n\n", 2)[1]
        rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|$", table, flags=re.MULTILINE)
        listed = {name: (re.findall(r"`--(\w+)`", req), re.findall(r"`--(\w+)`", opt))
                  for name, req, opt in rows}
        assert len(listed) == len(rows)
        assert listed == {name: ([f for f in flags if f in required],
                                 [f for f in flags if f not in required])
                          for name, (_, _, flags, required) in envma.cli.COMMANDS.items()}


class TestConfigChecks:
    """Every key present is parsed by its type, whichever command reads it;
    a config with several faults reports the first in one fixed order."""

    @staticmethod
    def run(capsys, monkeypatch, command, cfg_path, out):
        def no_solve(*args, **kwargs):
            pytest.fail("solve_dirichlet was called")

        monkeypatch.setattr(solver, "solve_dirichlet", no_solve)
        return run_main(capsys, [command, "--config", str(cfg_path), "--out", str(out)])

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    @pytest.mark.parametrize("key", ["n", "pointsPerAxis", "maxIter", "theta", "lambda",
                                     "Lambda", "tol", "lo", "hi", "refinements"])
    def test_every_typed_key_is_parsed_by_both_commands(self, key, command, tmp_path, capsys,
                                                        monkeypatch):
        values = dict(line.split(" = ") for line in
                      (STUDY_CFG + "maxIter = 100\ntol = 1e-10\n").splitlines())
        if key in ("lambda", "Lambda"):
            del values["theta"]
            values.update({"lambda": "2", "Lambda": "2"})
        base = write(tmp_path / "base.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
        envma.cli._load_problem(base, study=command == "convergence")   # a good config
        values[key] = "9,x"
        cfg = write(tmp_path / "p.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
        code, out, err = self.run(capsys, monkeypatch, command, cfg, tmp_path / "o")
        assert code == 2 and out == ""
        assert err.startswith(f"config error: config key '{key}': bad ")
        assert err.endswith(" '9,x'\n") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_faults_are_reported_in_a_fixed_order(self, tmp_path, capsys, monkeypatch):
        # the lines, then unknown keys, then the values (in file order), then
        # the required keys, then the checks across keys: each config below
        # has the faults of the next one and one more, which is reported
        cross = QUAD_CFG.replace("n = 1", "n = 0").replace("theta = 0.4", "theta = 1e-200")
        missing = cross.replace("lo = -1,-1\n", "")
        values = "tol = nan\nmaxIter = x\n" + missing
        unknown = "zork = 1\n" + values
        steps = [
            ("just words\n" + unknown, "line 1: expected 'key = value', got 'just words'"),
            (unknown, "unknown config keys: zork"),
            (values, "config key 'tol': bad or non-finite number 'nan'"),
            (values.replace("tol = nan\n", ""), "config key 'maxIter': bad integer 'x'"),
            (missing, "missing config key 'lo'"),
            (cross, "n must be a positive integer, got 0"),
            (cross.replace("n = 0", "n = 1"), "theta must lie in"),
        ]
        for cfg, message in steps:
            path = write(tmp_path / "p.cfg", cfg)
            code, out, err = self.run(capsys, monkeypatch, "solve", path, tmp_path / "o")
            assert code == 2 and out == ""
            assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1


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

    def test_refinement_at_max_iter_exits_4_after_its_table(self, tmp_path, capsys):
        # one iteration cannot meet tol = 1e-30: the table is still written
        # and printed, then one error line per unconverged refinement, as a
        # solve that hits maxIter does
        cfg = write(tmp_path / "c.cfg", """\
n = 1
lo = 1,1
hi = 2,2
theta = 0.0625
boundary = quartic_radial
g = quartic_radial
maxIter = 1
tol = 1e-30
refinements = 17,33
""")
        code, out, err = run_main(capsys, ["convergence", "--config", cfg,
                                           "--out", str(tmp_path / "o")])
        assert code == 4
        assert (tmp_path / "o" / "convergence.csv").read_text() == out
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["17", "33"]
        lines = err.splitlines()
        assert len(lines) == 2
        for line, P in zip(lines, (17, 33)):
            prefix = f"error: refinement {P}: policy iteration hit maxIter with residual "
            assert line.startswith(prefix) and float(line[len(prefix):]) > 1e-30

    def test_builds_each_field_once(self, tmp_path, capsys, monkeypatch):
        # per refinement, the exact u (also the boundary data) and g
        built = []
        from_function = solver.ScalarField.from_function

        def counted(cls, grid, fn):
            built.append(grid.points_per_axis)
            return from_function(grid, fn)

        monkeypatch.setattr(solver.ScalarField, "from_function", classmethod(counted))
        cfg = write(tmp_path / "c.cfg", STUDY_CFG)
        code, out, _ = run_main(capsys, ["convergence", "--config", cfg,
                                         "--out", str(tmp_path / "o")])
        assert code == 0 and len(out.splitlines()) == 3
        assert built == [9, 9, 17, 17]

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
        assert err == "config error: config key 'refinements': must be >= 5 (3 interior " \
                      "points per axis), got '3,9'\n"
        assert not (tmp_path / "o").exists()


def _benchmark_workloads():
    """perfbench/run.py's WORKLOADS, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


BENCHMARK_WORKLOADS = _benchmark_workloads()


class TestBenchmarkProbe:
    """The benchmark's set-up probe stops each workload at its command's
    first solver or verify entry; a command that never reaches it would be
    timed whole as set-up.  Its traced run wraps the functions the benchmark
    lists and reports one it no longer finds as absent."""

    @staticmethod
    def shim(mode, name, tmp_path):
        root = Path(__file__).resolve().parents[1]
        result = tmp_path / f"{mode}.json"
        argv = BENCHMARK_WORKLOADS[name].cli_args(1, tmp_path / "out")
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "shim.py"), mode,
                               str(result), "--", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(result.read_text())

    @pytest.mark.parametrize("name", sorted(BENCHMARK_WORKLOADS))
    def test_workload_reaches_its_entry_point(self, name, tmp_path):
        assert "setup_end" in self.shim("setup", name, tmp_path)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_WORKLOADS))
    def test_workload_traces(self, name, tmp_path):
        # the return hooks read what the solver returns: a changed return
        # shape is reported as an absent "return:" entry and counts nothing
        trace = self.shim("trace", name, tmp_path)
        assert trace["exit"] == 0
        assert {"by_parent", "absent"} <= trace["summary"].keys()
        assert not [a for a in trace["summary"]["absent"] if a.startswith("return:")]
        if name in ("solve-n2-railed", "convergence-n1"):
            assert trace["summary"]["counts"]["howard_iters"] > 0


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


STARTUP = """\
import sys
import numpy
before = set(sys.modules)
import envma.cli, envma.solver
print(sorted(set(sys.modules) - before))
code = envma.cli.main(sys.argv[1:])
print(["envma.verify" in sys.modules, sorted({"argparse", "gettext", "locale"} & set(sys.modules))])
sys.exit(code)
"""


class TestImports:
    """envma needs numpy alone, verify, eval and conjugate load no solver,
    only verify loads the checks of `envma.verify`, and no command loads
    argparse."""

    def test_startup_loads_neither_dataclasses_nor_the_checks(self, tmp_path):
        mat = write(tmp_path / "m.txt", "sym 2\n1 0\n0 1\n")
        for args, verifies in ((["eval", "--matrix", mat, "--theta", "0.5"], False),
                               (["verify", "--theta", "0.5", "--n", "2", "--samples", "20",
                                 "--seed", "3"], True)):
            proc = subprocess.run([sys.executable, "-c", STARTUP, *args],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (args, proc.stderr)
            lines = proc.stdout.splitlines()
            loaded = ast.literal_eval(lines[0])
            assert "envma.solver" in loaded
            assert "dataclasses" not in loaded and "envma.verify" not in loaded
            # the command line is read without argparse, and so without the
            # gettext and locale it imports
            assert ast.literal_eval(lines[-1]) == [verifies, []], args

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

    def test_import_loads_no_submodule(self):
        proc = subprocess.run([sys.executable, "-c", "import sys, envma; "
                               "print(sorted(m for m in sys.modules if m.startswith('envma')))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['envma']\n"


def _unread_top_level_names(src: Path) -> set:
    """(module, name) of every top-level def, class and assigned name of the
    modules in src that no module there reads as a name, an attribute or an
    imported name."""
    defined, read = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(path.stem, t.id) for target in targets
                            for t in ast.walk(target) if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return {(module, name) for module, name in defined if name not in read}


class TestPackageContents:
    """The package holds what a command runs, plus `__version__`."""

    def test_every_top_level_name_is_read_by_the_package(self):
        unread = _unread_top_level_names(Path(envma.cli.__file__).parent)
        extra = sorted(f"{module}.{name}" for module, name in unread if name != "__version__")
        assert not extra, (f"{', '.join(extra)}: read by no module of the package; "
                           "a helper only the tests use belongs in tests/oracles.py")
        assert {name for _, name in unread} == {"__version__"}
