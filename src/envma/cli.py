"""Command-line entry point.

Subcommands: eval, conjugate, verify, solve, convergence.  Exit codes:
0 success; 1 verify property failure; 2 parse error; 3 dimension/theta
validation failure; 4 policy iteration hit its iteration cap (artifacts are
still written); 5 numerical failure (a frozen-policy linear solve failed or
an exact evaluation found no solution), reported as one `error:` line.  All
floating-point output uses 17 significant digits so fixed seeds give
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import matio
from . import matrixcore as mc
from . import solver as sv
from .envelope import (
    ThetaBox,
    conjugate_maximizer,
    envelope_eval,
    verify_envelope,
)
from .errors import LinearSolveFailure, NoConvergence, NotPositiveDefinite, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MAX_ITER = 4
EXIT_NUMERICAL = 5


def _resolve_theta(theta, lam, Lam) -> float:
    given_theta = theta is not None
    given_pair = lam is not None or Lam is not None
    if given_theta == given_pair:
        raise ValueError("supply exactly one of --theta or (--lam and --Lam)")
    if given_theta:
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        return float(theta)
    if lam is None or Lam is None:
        raise ValueError("both --lam and --Lam are required together")
    return mc.admissible_theta(lam, Lam)


def _box_with_notice(theta: float, n: int, out) -> ThetaBox:
    box = ThetaBox(theta, n)
    if box.theta != theta:
        print(f"notice: theta normalized to {matio.fmt(box.theta)}", file=out)
    return box


def cmd_eval(args) -> int:
    try:
        M = matio.load_matrix(args.matrix)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        theta = _resolve_theta(args.theta, args.lam, args.Lam)
        box = _box_with_notice(theta, M.shape[0] // 2, sys.stdout)
        cert = envelope_eval(M, box)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        f_val = matio.fmt(mc.det_root(M))
    except NotPositiveDefinite:
        f_val = "undefined"
    print(f"F_tilde = {matio.fmt(cert.value)}")
    print(f"F = {f_val}")
    print("slope_eigs = " + ",".join(matio.fmt(p) for p in cert.slope_eigs))
    print(f"intercept = {matio.fmt(cert.intercept)}")
    print(f"in_theta_box = {'true' if mc.in_theta_box(M, box.theta) else 'false'}")
    return EXIT_OK


def cmd_conjugate(args) -> int:
    try:
        p = [float(tok) for tok in args.p.split(",")]
    except ValueError:
        print(f"parse error: bad slope list {args.p!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        theta = _resolve_theta(args.theta, args.lam, args.Lam)
        box = _box_with_notice(theta, len(p), sys.stdout)
        g, x = conjugate_maximizer(np.array(p), box)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"g = {matio.fmt(g)}")
    print("maximizer = " + ",".join(matio.fmt(v) for v in x))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        theta = _resolve_theta(args.theta, args.lam, args.Lam)
        if args.samples < 0:
            raise ValueError("samples must be >= 0")
        box = _box_with_notice(theta, args.n, sys.stdout)
        report = verify_envelope(box, args.samples, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(report.format())
    if not report.all_pass:
        name = next(k for k in sorted(report.first_failure))
        idx, M = report.first_failure[name]
        print(f"first_failure_property = {name}")
        print(f"first_failure_sample = {idx}")
        sys.stdout.write(matio.format_matrix_text(M))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


_CONFIG_KEYS = {
    "n", "lo", "hi", "pointsPerAxis", "theta", "lambda", "Lambda",
    "boundary", "g", "maxIter", "tol", "seed", "refinements",
}


def _field_from_spec(spec: str, grid: sv.GridSpec, role: str) -> sv.ScalarField:
    """Field from a config value: built-in name, constant:<v>, or file:<path>."""
    if spec.startswith("constant:"):
        try:
            return sv.ScalarField.constant(grid, float(spec.split(":", 1)[1]))
        except ValueError:
            raise ParseError(f"bad constant field spec {spec!r}")
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                vals = matio.parse_grid_values(fh.read(), int(np.prod(grid.shape)))
        except OSError as exc:
            raise ParseError(f"cannot read grid data {path!r}: {exc}")
        return sv.ScalarField(grid, vals.reshape(grid.shape))
    u_fn, g_fn = sv.builtin_solution(spec, grid.n)
    fn = u_fn if role == "boundary" else g_fn
    return sv.ScalarField.from_function(grid, fn)


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = matio.ConfigView(matio.parse_config(fh.read()), _CONFIG_KEYS)
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}")
    n = cfg.get_int("n")
    lo = cfg.get_floats("lo")
    hi = cfg.get_floats("hi")
    ppa = cfg.get_int("pointsPerAxis")
    has_theta = cfg.has("theta")
    has_pair = cfg.has("lambda") or cfg.has("Lambda")
    if has_theta == has_pair:
        raise ParseError("config must supply exactly one of 'theta' or ('lambda', 'Lambda')")
    if has_theta:
        theta = cfg.get_float("theta")
        if theta <= 0:
            raise ParseError("config key 'theta': must be positive")
    else:
        theta = mc.admissible_theta(cfg.get_float("lambda"), cfg.get_float("Lambda"))
    grid = sv.GridSpec(n, tuple(lo), tuple(hi), ppa)
    box = ThetaBox(theta, n)
    bnd_spec = cfg.get_str("boundary")
    g_spec = cfg.get_str("g")
    try:
        boundary = _field_from_spec(bnd_spec, grid, "boundary")
        g = _field_from_spec(g_spec, grid, "g")
    except ValueError as exc:
        raise ParseError(str(exc))
    kwargs = {
        "max_iter": cfg.get_int("maxIter", 100),
        "tol": cfg.get_float("tol", 1e-10),
    }
    return cfg, grid, box, boundary, g, kwargs, bnd_spec


def cmd_solve(args) -> int:
    try:
        _, grid, box, boundary, g, kwargs, _ = _load_problem(args.config)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        u, policy, report = sv.solve_dirichlet(grid, boundary, g, box, **kwargs)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "solution.csv", matio.field_csv(u))
    _write(args.out, "residual.csv", matio.field_csv(report.residual))
    _write(args.out, "report.txt", matio.report_text(report))
    print(f"wall_time_s = {report.wall_time_s:.3f}", file=sys.stderr)
    if not report.converged:
        print(f"error: policy iteration hit maxIter with residual "
              f"{matio.fmt(report.final_residual)}", file=sys.stderr)
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_convergence(args) -> int:
    try:
        cfg, grid, box, _, _, kwargs, bnd_spec = _load_problem(args.config)
        refinements = cfg.get_ints("refinements")
        if bnd_spec not in ("quadratic", "quartic_radial"):
            raise ParseError("convergence requires a built-in manufactured solution "
                             "(boundary = quadratic | quartic_radial)")
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    def make_problem(P):
        g2 = sv.GridSpec(grid.n, grid.lo, grid.hi, P)
        u_fn, g_fn = sv.builtin_solution(bnd_spec, grid.n)
        exact = sv.ScalarField.from_function(g2, u_fn)
        outside = sv.check_premises(exact, box.theta, box.hi).outside_tangency
        if outside:
            print(f"warning: refinement {P}: the exact u leaves the tangency region at {outside} "
                  f"of {(P - 2) ** g2.dim} interior points, where g is not Ftilde(D^2 u)",
                  file=sys.stderr)
        return (g2, exact, sv.ScalarField.from_function(g2, g_fn), box, exact, kwargs)

    try:
        rows = sv.convergence_study(make_problem, refinements)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = matio.convergence_csv(rows)
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "convergence.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


def _write(outdir: str, name: str, text: str) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _add_theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=None,
                   help="box parameter in (0, 1]; values > 1 are normalized")
    p.add_argument("--lam", type=float, default=None,
                   help="lower eigenvalue bound (with --Lam)")
    p.add_argument("--Lam", type=float, default=None,
                   help="upper eigenvalue bound (with --lam)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="envma",
                                 description="Concave slope-box extension of the "
                                             "projected-determinant operator and its "
                                             "Bellman-form Dirichlet solver.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the envelope on a matrix file")
    p.add_argument("--matrix", required=True)
    _add_theta_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("conjugate", help="minimal intercept for a slope vector")
    p.add_argument("--p", required=True, help="comma-separated slope eigenvalues")
    _add_theta_flags(p)
    p.set_defaults(fn=cmd_conjugate)

    p = sub.add_parser("verify", help="randomized property verification")
    _add_theta_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="solve a Dirichlet problem from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convergence", help="manufactured-solution refinement study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convergence)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LinearSolveFailure, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
