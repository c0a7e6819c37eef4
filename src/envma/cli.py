"""Command-line entry point.

Subcommands: eval, conjugate, verify, solve, convergence.  Commands raise;
`main` alone maps a failure to its exit code and one stderr line:

    0  success
    1  verify found a property failure (the counterexample of the earliest
       failing sample is printed)
    2  ParseError: malformed input, printed as `parse error:` (eval,
       conjugate) or `config error:` (solve, convergence); or a command
       line argparse rejects, printed as `usage error:`
    3  any other ValueError, an OSError or a MemoryError, printed as
       `error:`: dimension, theta or range validation, an unusable --matrix
       or --out path, a grid too large for memory
    4  policy iteration hit its iteration cap: a solve, or any refinement
       of a study, one `error:` line each (artifacts are still written)
    5  LinearSolveFailure or NoConvergence, printed as `error: <Kind>:`: a
       frozen-policy linear solve failed or an exact evaluation found no
       solution

A config, and that --out is not an existing file, are checked before
anything is solved or written.  All floating-point output uses 17
significant digits so fixed seeds give byte-identical output.

Importing this module loads the envelope kernel, the file formats and
numpy, which every command uses, and nothing else: solve and convergence
import `envma.solver` inside the functions that run them, and verify loads
`envma.verify` through `verify_envelope`.  Without cached bytecode every
command compiles each line it loads, so each loads only what it runs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import matio
from . import matrixcore as mc
from .envelope import ThetaBox, conjugate_maximizer, envelope_eval, in_box, verify_envelope
from .errors import LinearSolveFailure, NoConvergence, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MAX_ITER = 4
EXIT_NUMERICAL = 5


def _resolve_theta(theta, lam, Lam) -> float:
    """theta as given, or min(lambda, 1/Lambda) from the eigenvalue bounds
    (the --lam/--Lam flags, the lambda/Lambda config keys)."""
    if (theta is None) == (lam is None and Lam is None):
        raise ValueError("supply exactly one of theta or the eigenvalue bounds lambda and Lambda")
    if theta is not None:
        return float(theta)
    if lam is None or Lam is None:
        raise ValueError("the eigenvalue bounds lambda and Lambda go together")
    return mc.admissible_theta(lam, Lam)


def _box_with_notice(theta: float, n: int, out) -> ThetaBox:
    box = ThetaBox(theta, n)
    if box.theta != theta:
        print(f"notice: theta normalized to {matio.fmt(box.theta)}", file=out)
    return box


def cmd_eval(args) -> int:
    M = matio.load_matrix(args.matrix)
    theta = _resolve_theta(args.theta, args.lam, args.Lam)
    box = _box_with_notice(theta, M.shape[0] // 2, sys.stdout)
    cert = envelope_eval(M, box)
    # F = det^{1/2n}(proj M) is defined where proj(M) is positive definite
    f_val = matio.fmt(mc.geometric_mean(cert.mu)) if cert.mu[0] > 0.0 else "undefined"
    print(f"F_tilde = {matio.fmt(cert.value)}")
    print(f"F = {f_val}")
    print("slope_eigs = " + ",".join(matio.fmt(p) for p in cert.slope_eigs))
    print(f"intercept = {matio.fmt(cert.intercept)}")
    print(f"in_theta_box = {'true' if in_box(cert.mu, box) else 'false'}")
    return EXIT_OK


def cmd_conjugate(args) -> int:
    try:
        p = np.array([matio.parse_finite(tok) for tok in args.p.split(",")])
    except ValueError:
        raise ParseError(f"bad or non-finite slope list {args.p!r}") from None
    theta = _resolve_theta(args.theta, args.lam, args.Lam)
    g, x = conjugate_maximizer(p, _box_with_notice(theta, len(p), sys.stdout))
    print(f"g = {matio.fmt(g)}")
    print("maximizer = " + ",".join(matio.fmt(v) for v in x))
    return EXIT_OK


def cmd_verify(args) -> int:
    theta = _resolve_theta(args.theta, args.lam, args.Lam)
    box = _box_with_notice(theta, args.n, sys.stdout)
    report = verify_envelope(box, args.samples, args.seed)
    sys.stdout.write(report.format())
    if not report.all_pass:
        name, idx, M = report.first_failure
        print(f"first_failure_property = {name}")
        print(f"first_failure_sample = {idx}")
        sys.stdout.write(matio.format_matrix_text(M))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _field_from_spec(spec: str, grid, role: str):
    """ScalarField on a solver.GridSpec from a config value: built-in name,
    constant:<v>, or file:<path>."""
    from . import solver as sv

    if spec.startswith("constant:"):
        try:
            return sv.ScalarField.constant(grid, matio.parse_finite(spec.split(":", 1)[1]))
        except ValueError:
            raise ParseError(f"bad constant field spec {spec!r}") from None
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                vals = matio.parse_grid_values(fh.read(), int(np.prod(grid.shape)))
        except OSError as exc:
            raise ParseError(f"cannot read grid data {path!r}: {exc}") from None
        return sv.ScalarField(grid, vals.reshape(grid.shape))
    if spec not in sv.BUILTIN_SOLUTIONS:
        raise ParseError(f"config key {role!r}: unknown field {spec!r} "
                         f"({' | '.join(sv.BUILTIN_SOLUTIONS)} | constant:<v> | file:<path>)")
    u_fn, g_fn = sv.builtin_solution(spec, grid.n)
    fn = u_fn if role == "boundary" else g_fn
    return sv.ScalarField.from_function(grid, fn)


def _load_problem(path: str, study: bool = False):
    """The checked problems of a solve (or, with `study`, convergence) config.

    The one place a config is checked: `matio.parse_config` checks every
    key and value and that the grid key, pointsPerAxis (solve) or
    refinements (study), is there; then come theta, the maxIter and tol it
    sets, and the grids: the pointsPerAxis grid of a solve or, for a study,
    one per refinement, after the checks that the boundary is built in, that
    g names it and that the refinements are distinct and at least 5.  Every
    grid is checked before any field is built.  Any ValueError becomes a
    ParseError, so nothing is solved or written for a bad config.  Returns
    (box, problems, solver_kwargs): one problem (boundary, g) per grid,
    each field built once (a study's boundary is its exact solution), and
    only the solver settings the config sets.
    """
    from . import solver as sv

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    try:
        cfg, texts = matio.parse_config(text, ("n", "lo", "hi", "boundary", "g",
                                               "refinements" if study else "pointsPerAxis"))
        box = ThetaBox(_resolve_theta(cfg.get("theta"), cfg.get("lambda"), cfg.get("Lambda")),
                       cfg["n"])
        settings = (("maxIter", "max_iter"), ("tol", "tol"))
        kwargs = {arg: cfg[key] for key, arg in settings if key in cfg}
        if "tol" in kwargs and not kwargs["tol"] > 0.0:
            raise ValueError(f"config key 'tol': must be positive, got {kwargs['tol']}")
        if "max_iter" in kwargs and kwargs["max_iter"] < 1:
            raise ValueError(f"config key 'maxIter': must be >= 1, got {kwargs['max_iter']}")
        bnd_spec, g_spec = cfg["boundary"], cfg["g"]
        if study:
            if bnd_spec not in sv.BUILTIN_SOLUTIONS:
                raise ValueError("convergence requires a built-in manufactured solution "
                                 f"(boundary = {' | '.join(sv.BUILTIN_SOLUTIONS)})")
            if g_spec != bnd_spec:
                raise ValueError(f"config key 'g': must name the study's built-in solution "
                                 f"{bnd_spec!r}, got {g_spec!r}")
            sizes = cfg["refinements"]
            if len(set(sizes)) != len(sizes):
                raise ValueError(f"config key 'refinements': must be distinct, "
                                 f"got {texts['refinements']!r}")
            if min(sizes) < 5:
                raise ValueError(f"config key 'refinements': must be >= 5 (3 interior points "
                                 f"per axis), got {texts['refinements']!r}")
        else:
            sizes = [cfg["pointsPerAxis"]]
        grids = [sv.GridSpec(cfg["n"], cfg["lo"], cfg["hi"], P) for P in sizes]
        problems = [(_field_from_spec(bnd_spec, grid, "boundary"),
                     _field_from_spec(g_spec, grid, "g")) for grid in grids]
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return box, problems, kwargs


def _check_out(outdir: str) -> None:
    """Raise, before anything is solved, the error `_write` would raise for
    an empty --out, one naming an existing non-directory or a path below
    one, or one with a level to create whose name is too long; creates
    nothing."""
    if not outdir:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), outdir)
    if os.path.lexists(outdir) and not os.path.isdir(outdir):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), outdir)
    # os.makedirs creates the missing levels below the nearest existing
    # ancestor, top down, and fails at the first it cannot create: below a
    # non-directory, or with a name longer than the file system allows
    # (pathconf gives -1 for no limit)
    missing = [outdir]
    while (head := os.path.dirname(missing[-1])) and not os.path.exists(head):
        missing.append(head)
    if head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing[-1])
    name_max = os.pathconf(head or os.curdir, "PC_NAME_MAX")
    for path in reversed(missing):
        if -1 < name_max < len(os.fsencode(os.path.basename(path))):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), path)


def cmd_solve(args) -> int:
    from . import solver as sv

    box, ((boundary, g),), kwargs = _load_problem(args.config)
    _check_out(args.out)
    u, _, report = sv.solve_dirichlet(boundary, g, box, **kwargs)
    _write(args.out, {"solution.csv": matio.field_csv(u),
                      "residual.csv": matio.field_csv(report.residual),
                      "report.txt": matio.report_text(report)})
    print(f"wall_time_s = {report.wall_time_s:.3f}", file=sys.stderr)
    if not report.converged:
        print(f"error: policy iteration hit maxIter with residual "
              f"{matio.fmt(report.final_residual)}", file=sys.stderr)
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_convergence(args) -> int:
    from . import solver as sv

    box, problems, kwargs = _load_problem(args.config, study=True)
    _check_out(args.out)
    for exact, _ in problems:
        outside = sv.check_premises(exact, box).outside_tangency
        if outside:
            P, d = exact.grid.points_per_axis, exact.grid.dim
            print(f"warning: refinement {P}: the exact u leaves the tangency region at {outside} "
                  f"of {(P - 2) ** d} interior points, where g is not Ftilde(D^2 u)",
                  file=sys.stderr)
    rows = sv.convergence_study(problems, box, **kwargs)
    text = matio.convergence_csv(rows)
    _write(args.out, {"convergence.csv": text})
    sys.stdout.write(text)
    for row in rows:
        if not row.converged:
            print(f"error: refinement {row.points_per_axis}: policy iteration hit maxIter "
                  f"with residual {matio.fmt(row.final_residual)}", file=sys.stderr)
    return EXIT_OK if all(row.converged for row in rows) else EXIT_MAX_ITER


def _write(outdir: str, files: dict) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=None,
                   help="box parameter in (0, 1]; values > 1 are normalized")
    p.add_argument("--lam", type=float, default=None,
                   help="lower eigenvalue bound (with --Lam)")
    p.add_argument("--Lam", type=float, default=None,
                   help="upper eigenvalue bound (with --lam)")


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print the usage and exit;
    its subparsers are of this class too."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="envma",
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
    """Run one command; the exit-code table of the module docstring lives
    here and nowhere else."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        return _fail(EXIT_PARSE, f"usage error: {exc}")
    except ParseError as exc:
        label = "config error" if args.command in ("solve", "convergence") else "parse error"
        return _fail(EXIT_PARSE, f"{label}: {exc}")
    except (ValueError, OSError) as exc:
        return _fail(EXIT_VALIDATION, f"error: {exc}")
    except MemoryError as exc:
        return _fail(EXIT_VALIDATION, f"error: {str(exc) or 'out of memory'}")
    except (LinearSolveFailure, NoConvergence) as exc:
        return _fail(EXIT_NUMERICAL, f"error: {type(exc).__name__}: {exc}")


def _fail(code: int, message: str) -> int:
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code
