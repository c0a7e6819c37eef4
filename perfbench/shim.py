"""Run one envma CLI command in this process, as ``python -m envma`` does,
with the benchmark's hooks installed around the program's own functions.

    python3 perfbench/shim.py setup RESULT.json -- <envma arguments>
    python3 perfbench/shim.py trace RESULT.json -- <envma arguments>

setup: the first call of a solver or verify entry point writes the
CLOCK_MONOTONIC time to RESULT.json and ends the process at once, so the
caller measures set-up time from its own clock reading before the spawn.

trace: wraps the functions listed in LAYERS, runs the command to the end
and writes the exit code and the tracer summary to RESULT.json.  A listed
module or function that no longer exists is reported as absent.

The program's source is not edited; envma must be importable (the caller
puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import runpy
import sys
import time

from tracer import Tracer, rebind

# The calls whose first entry ends set-up: solve, convergence and verify.
ENTRY_POINTS = (
    ("envma.solver", "solve_dirichlet"),
    ("envma.solver", "convergence_study"),
    ("envma.envelope", "verify_envelope"),
)

RAIL_TOL = 1e-9


def _guarded(fn):
    """A return hook that records a changed return shape as absent."""
    @functools.wraps(fn)
    def hook(tracer, args, kwargs, result):
        try:
            fn(tracer, args, kwargs, result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            tracer.absent.add(f"return:{fn.__name__}")
    return hook


@_guarded
def certificate(tracer, args, kwargs, result):
    box = kwargs["box"] if "box" in kwargs else args[1]
    tol = RAIL_TOL * box.hi
    p = [float(v) for v in result.slope_eigs]
    tracer.counts["certificates"] += 1
    if any(abs(v - box.theta) <= tol or abs(v - box.hi) <= tol for v in p):
        tracer.counts["railed"] += 1


@_guarded
def solve_result(tracer, args, kwargs, result):
    u, _, report = result
    unknowns = 1
    for s in u.values.shape:
        unknowns *= s - 2
    tracer.counts["howard_iters"] += int(report.iterations)
    tracer.counts["unknowns"] += unknowns
    tracer.counts["point_iters"] += unknowns * int(report.iterations)


@_guarded
def assembled(tracer, args, kwargs, result):
    A = result[0]
    if A.shape[0] >= tracer.counts["largest_system"]:
        tracer.counts["largest_system"] = int(A.shape[0])
        tracer.counts["nnz"] = int(A.nnz)
        tracer.counts["explicit_zeros"] = int((A.data == 0.0).sum())


# (module, attribute, return hook); the span is named "<module tail>.<attribute>"
LAYERS = (
    ("envma.matrixcore", "project", None),
    ("envma.matrixcore", "extract", None),
    ("envma.matrixcore", "herm_eigensystem", None),
    ("envma.matrixcore", "jacobi_eigh", None),
    ("envma.envelope", "_saddle", None),
    ("envma.envelope", "envelope_eval", certificate),
    ("envma.envelope", "envelope_value", None),
    ("envma.envelope", "ellipticity_gap", None),
    ("envma.envelope", "draw_verify_sample", None),
    ("envma.envelope", "_check_sample", None),
    ("envma.envelope", "verify_envelope", None),
    ("envma.solver", "solve_dirichlet", solve_result),
    ("envma.solver", "convergence_study", None),
    ("envma.solver", "hessian_stack", None),
    ("envma.solver", "_improve_policy", None),
    ("envma.solver", "_assemble", assembled),
    ("envma.solver", "_gauss_seidel", None),
    ("envma.solver", "residual_field", None),
    ("scipy.sparse.linalg", "spsolve", None),
    ("envma._parallel", "ordered_map", None),
    ("envma.cli", "main", None),
    ("envma.cli", "_write", None),
    ("envma.matio", "field_csv", None),
    ("envma.matio", "report_text", None),
    ("envma.matio", "convergence_csv", None),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _envma_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "envma" or k.startswith("envma."))]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _run_cli(cli_args: list[str]) -> int:
    sys.argv = ["envma", *cli_args]
    try:
        runpy.run_module("envma", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def _install_setup_stop(result_path: str) -> None:
    def stop(*args, **kwargs):
        _write_json(result_path, {"setup_end": time.monotonic()})
        sys.stdout.flush()
        os._exit(0)

    for mod_name, attr in ENTRY_POINTS:
        rebind(_module(mod_name), attr, stop, _envma_modules())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("setup", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, result_path, cli_args = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import envma.cli  # numpy, scipy and the whole package
    import_s = time.perf_counter() - t0
    if mode == "setup":
        _install_setup_stop(result_path)
        return _run_cli(cli_args)
    tracer = Tracer()
    aliases = _envma_modules()
    for mod_name, attr, hook in LAYERS:
        tracer.wrap(_module(mod_name), attr, f"{mod_name.rsplit('.', 1)[-1]}.{attr}",
                    on_return=hook, aliases=aliases)
    code = _run_cli(cli_args)
    _write_json(result_path, {"exit": code, "import_s": import_s,
                              "envma_file": envma.cli.__file__,
                              "summary": tracer.summary()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
