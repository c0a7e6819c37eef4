"""Command-line entry point.

`COMMANDS` is the one table of the commands and their flags: `_parse`
reads a command line against it and `--help` prints from it.  Commands
raise; `main` alone maps a failure to one of the EXIT_* codes below
(README tabulates them) and one stderr line.  A config, and that --out is
not an existing file, are checked before anything is solved or written.
All floating-point output uses 17 significant digits so fixed seeds give
byte-identical output.

Importing this module loads numpy, the envelope kernel and the file
formats, which every command uses, and nothing else (no argparse): solve
and convergence import `envma.solver` when they run, and verify loads
`envma.verify` through `verify_envelope`, as without cached bytecode a
command compiles every line it loads.
"""

from __future__ import annotations

import errno
import os
import sys

import numpy as np

from . import matio
from . import matrixcore as mc
from .envelope import ThetaBox, conjugate_maximizer, envelope_eval, in_box, verify_envelope
from .errors import LinearSolveFailure, NoConvergence, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1   # verify: a property failed; the earliest failing sample is printed
EXIT_PARSE = 2         # ParseError (`parse error:`, `config error:`) or `usage error:`
EXIT_VALIDATION = 3    # any other ValueError, an OSError or a MemoryError (`error:`)
EXIT_MAX_ITER = 4      # policy iteration hit maxIter (artifacts are still written)
EXIT_NUMERICAL = 5     # LinearSolveFailure or NoConvergence (`error: <Kind>:`)


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


def _box_with_notice(n: int, theta, lam, Lam) -> ThetaBox:
    theta = _resolve_theta(theta, lam, Lam)
    box = ThetaBox(theta, n)
    if box.theta != theta:
        print(f"notice: theta normalized to {matio.fmt(box.theta)}")
    return box


def cmd_eval(matrix, theta=None, lam=None, Lam=None) -> int:
    M = matio.load_matrix(matrix)
    box = _box_with_notice(M.shape[0] // 2, theta, lam, Lam)
    cert = envelope_eval(M, box)
    # F = det^{1/2n}(proj M) is defined where proj(M) is positive definite
    f_val = matio.fmt(mc.geometric_mean(cert.mu)) if cert.mu[0] > 0.0 else "undefined"
    print(f"F_tilde = {matio.fmt(cert.value)}")
    print(f"F = {f_val}")
    print("slope_eigs = " + ",".join(matio.fmt(p) for p in cert.slope_eigs))
    print(f"intercept = {matio.fmt(cert.intercept)}")
    print(f"in_theta_box = {'true' if in_box(cert.mu, box) else 'false'}")
    return EXIT_OK


def cmd_conjugate(p, theta=None, lam=None, Lam=None) -> int:
    try:
        slopes = np.array([matio.parse_finite(tok) for tok in p.split(",")])
    except ValueError:
        raise ParseError(f"bad or non-finite slope list {p!r}") from None
    g, x = conjugate_maximizer(slopes, _box_with_notice(len(slopes), theta, lam, Lam))
    print(f"g = {matio.fmt(g)}")
    print("maximizer = " + ",".join(matio.fmt(v) for v in x))
    return EXIT_OK


def cmd_verify(n, samples, seed, theta=None, lam=None, Lam=None) -> int:
    report = verify_envelope(_box_with_notice(n, theta, lam, Lam), samples, seed)
    sys.stdout.write(report.format())
    if not report.all_pass:
        name, idx, M = report.first_failure
        print(f"first_failure_property = {name}\nfirst_failure_sample = {idx}")
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
    fn = sv.BUILTIN_SOLUTIONS[spec][0 if role == "boundary" else 1]
    return sv.ScalarField.from_function(grid, lambda *xs: fn(grid.n, *xs))


def _load_problem(path: str, study: bool = False):
    """(box, problems, solver_kwargs) of a solve (or, with `study`,
    convergence) config: one problem (boundary, g) per grid, each field
    built once (a study's boundary is its exact solution), and only the
    solver settings the config sets.

    The one place a config is checked, in this order: `matio.parse_config`
    (every key and value, and the grid key: pointsPerAxis, or a study's
    refinements), theta, maxIter and tol, for a study that the boundary is
    built in, that g names it and that the refinements are distinct and at
    least 5, then every grid, then the fields.  Any ValueError becomes a
    ParseError, so nothing is solved or written for a bad config.
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
        kwargs = {arg: cfg[key] for key, arg in (("maxIter", "max_iter"), ("tol", "tol"))
                  if key in cfg}
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


def cmd_solve(config, out) -> int:
    from . import solver as sv

    box, ((boundary, g),), kwargs = _load_problem(config)
    _check_out(out)
    u, _, report = sv.solve_dirichlet(boundary, g, box, **kwargs)
    _write(out, {"solution.csv": matio.field_csv(u),
                 "residual.csv": matio.field_csv(report.residual),
                 "report.txt": matio.report_text(report)})
    print(f"wall_time_s = {report.wall_time_s:.3f}", file=sys.stderr)
    if not report.converged:
        print(f"error: policy iteration hit maxIter with residual "
              f"{matio.fmt(report.final_residual)}", file=sys.stderr)
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_convergence(config, out) -> int:
    from . import solver as sv

    box, problems, kwargs = _load_problem(config, study=True)
    _check_out(out)
    for exact, _ in problems:
        if outside := sv.check_premises(exact, box):
            P, d = exact.grid.points_per_axis, exact.grid.dim
            print(f"warning: refinement {P}: the exact u leaves the tangency region at {outside} "
                  f"of {(P - 2) ** d} interior points, where g is not Ftilde(D^2 u)",
                  file=sys.stderr)
    rows = sv.convergence_study(problems, box, **kwargs)
    text = matio.convergence_csv(rows)
    _write(out, {"convergence.csv": text})
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


class _UsageError(Exception):
    """A command line `_parse` rejects."""


_THETA = {"theta": (float, "box parameter in (0, 1]; values > 1 are normalized"),
          "lam": (float, "lower eigenvalue bound"), "Lam": (float, "upper eigenvalue bound")}
_RUN = {"config": (str, "problem config file"), "out": (str, "output directory")}
# command: (function, summary, {flag: (type, help)}, required flags)
COMMANDS = {
    "eval": (cmd_eval, "evaluate the envelope on a matrix file",
             {"matrix": (str, "matrix file"), **_THETA}, ("matrix",)),
    "conjugate": (cmd_conjugate, "minimal intercept for a slope vector",
                  {"p": (str, "comma-separated slope eigenvalues"), **_THETA}, ("p",)),
    "verify": (cmd_verify, "randomized property verification",
               {**_THETA, "n": (int, "complex dimension"), "samples": (int, "sample count"),
                "seed": (int, "random seed")}, ("n", "samples", "seed")),
    "solve": (cmd_solve, "solve a Dirichlet problem from a config file", _RUN,
              ("config", "out")),
    "convergence": (cmd_convergence, "manufactured-solution refinement study", _RUN,
                    ("config", "out")),
}


def _usage(command=None) -> str:
    """The --help text of envma, or of one command."""
    if command is None:
        return ("usage: envma COMMAND --FLAG VALUE ...   (COMMAND --help lists its flags)\n\n"
                + "".join(f"  {name:<12} {entry[1]}\n" for name, entry in COMMANDS.items()))
    _, summary, flags, required = COMMANDS[command]
    return f"usage: envma {command} --FLAG VALUE ...\n\n{summary}\n\n" + "".join(
        f"  --{f:<8} {kind.__name__:<6}{text}{' (required)' * (f in required)}\n"
        for f, (kind, text) in flags.items())


def _flag(token: str, names, prog: str):
    """The flag of help or `names` a token names, in full or by a unique prefix, or None."""
    if not token.startswith("--") or token == "--":
        return "help" if token == "-h" else None
    name, names = token[2:].split("=", 1)[0], ("help", *names)
    matches = [f for f in names if f == name] or [f for f in names if f.startswith(name)]
    if len(matches) > 1:
        raise _UsageError(f"{prog}: ambiguous option: {token} could match "
                          + ", ".join("--" + f for f in matches))
    return matches[0] if matches else None


def _parse(argv: list):
    """(command, {flag: value}) of a command line, or (None, None) once the
    help it asks for is printed; a rejected line raises _UsageError, worded
    as argparse words it.  Of a repeated flag the last counts."""
    if argv and _flag(argv[0], (), "envma") == "help":
        sys.stdout.write(_usage())
        return None, None
    if not argv or argv[0].startswith("-"):
        raise _UsageError("envma: the following arguments are required: command")
    command, prog, tokens = argv[0], f"envma {argv[0]}", iter(argv[1:])
    if command not in COMMANDS:
        raise _UsageError(f"envma: argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, COMMANDS))})")
    (_, _, flags, required), values, extras = COMMANDS[command], {}, []
    for token in tokens:
        name = _flag(token, flags, prog)
        if name == "help":
            sys.stdout.write(_usage(command))
            return None, None
        if name is None:   # a stray token; so is everything after "--"
            extras += [token, *tokens] if token == "--" else [token]
            continue
        text = token.split("=", 1)[1] if "=" in token else next(tokens, None)
        if text is None:
            raise _UsageError(f"{prog}: argument --{name}: expected one argument")
        try:
            values[name] = flags[name][0](text)
        except ValueError:
            raise _UsageError(f"{prog}: argument --{name}: invalid {flags[name][0].__name__} "
                              f"value: {text!r}") from None
    missing = ", ".join(f"--{f}" for f in required if f not in values)
    if missing:
        raise _UsageError(f"{prog}: the following arguments are required: {missing}")
    if extras:
        raise _UsageError(f"envma: unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(argv=None) -> int:
    """Run one command line; every exit code is chosen here, nowhere else."""
    try:
        command, values = _parse(sys.argv[1:] if argv is None else argv)
        return COMMANDS[command][0](**values) if command else EXIT_OK
    except _UsageError as exc:
        code, line = EXIT_PARSE, f"usage error: {exc}"
    except ParseError as exc:
        label = "config error" if command in ("solve", "convergence") else "parse error"
        code, line = EXIT_PARSE, f"{label}: {exc}"
    except (ValueError, OSError) as exc:
        code, line = EXIT_VALIDATION, f"error: {exc}"
    except MemoryError as exc:
        code, line = EXIT_VALIDATION, f"error: {str(exc) or 'out of memory'}"
    except (LinearSolveFailure, NoConvergence) as exc:
        code, line = EXIT_NUMERICAL, f"error: {type(exc).__name__}: {exc}"
    print(" ".join(line.splitlines()), file=sys.stderr)
    return code
