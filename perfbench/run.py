#!/usr/bin/env python3
"""envma benchmark: times the CLI commands users run, checks their outputs,
and, in a separate traced run, reports time and counts per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; envma is imported from ``src``.
Every command runs in a fresh ``python -m envma`` process with BLAS/OpenMP
pinned to one thread and ENVMA_THREADS=1, pinned to one CPU next to a probe
thread of this process that times a fixed piece of pure-Python work every
RSS_POLL_S on the same CPU.  Commands and set-up probes are timed on the
monotonic clock and rescaled by the probe's speed during them to a CPU that
runs the probe at CAL_REF_UNITS_PER_S: on a shared host the speed of a CPU
changes from second to second, and the probe, sharing the command's CPU,
sees the same changes.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, peak_rss_mb and
pass_frac.  --trace 1 runs each command once untraced and once under the
tracer and prints the per-layer metrics.  Both measure for about --seconds
and always run at least one command.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

SETUP_PROBES = 9
CAL_REF_UNITS_PER_S = 1000.0
# One worker: the probe must share the only CPU the command runs on, and a
# pool on that CPU would only take turns.
ENVMA_THREADS = 1
COMMAND_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0          # a run must end within 180 s
RSS_POLL_S = 0.02
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SOLVE_REFERENCE = HERE / "reference" / "solve-n2-railed-solution.npy"
SOLUTION_TOL = 1e-7          # |u - reference|, max over the grid
MIN_ORDER = 1.8


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Command:
    code: int | None          # None on timeout
    t0: float                 # monotonic clock at the spawn
    wall_s: float
    peak_rss_mb: float
    scale: float              # probe speed over CAL_REF_UNITS_PER_S while it ran
    stdout: str
    stderr: str
    out_dir: Path

    @property
    def artifacts(self) -> Path:
        return self.out_dir / "artifacts"

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


def _calibration_unit() -> float:
    """About 1 ms of fixed pure-Python work: float arithmetic, small lists,
    calls and dict stores, the kind of work the program's per-point loops do."""
    acc = 0.0
    slots = {}
    for k in range(1000):
        v = [k * 0.5, k * 0.25, 1.0 / (k + 1)]
        acc += sum(v) - max(v)
        slots[k & 63] = acc
    return acc


# The CPU every command and the probe thread run on.
BENCH_CPU = max(os.sched_getaffinity(0))


def _session_pids(sid: int) -> list[int]:
    """Processes of session `sid`: a command started in its own session
    and every process it forks."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if len(fields) > 3 and fields[3] == str(sid):
            pids.append(int(entry))
    return pids


def _proc_kb(path: str, key: str) -> int:
    """A kB field of a /proc file such as status; 0 once the process is
    gone."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in PINNED_THREAD_VARS:
        env[var] = "1"
    env["ENVMA_THREADS"] = str(ENVMA_THREADS)
    return env


def run_command(argv: list[str], out_dir: Path, timeout: float) -> Command:
    """Run argv to the end in its own session, pinned to BENCH_CPU, killing
    the session after `timeout` seconds.

    Every RSS_POLL_S a thread pinned to the same CPU times one calibration
    unit; the mean of the units' speeds over the command gives its scale.

    Memory is the peak, sampled every RSS_POLL_S, of the command's anonymous
    resident memory (RssAnon).  File-backed pages (library code) are left
    out: how many of them are resident depends on the page cache, not on
    the program.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    peak = [0]
    speeds = []
    done, killed = threading.Event(), threading.Event()
    with open(out_dir / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(out_dir / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        try:
            os.sched_setaffinity(proc.pid, {BENCH_CPU})
        except ProcessLookupError:
            pass  # already gone: there is nothing left to pin

        def sample():
            os.sched_setaffinity(0, {BENCH_CPU})  # this thread only
            while True:
                c0 = time.perf_counter()
                _calibration_unit()
                speeds.append(1.0 / (time.perf_counter() - c0))
                if done.is_set():
                    break
                peak[0] = max(peak[0], _proc_kb(f"/proc/{proc.pid}/status", "RssAnon:"))
                done.wait(RSS_POLL_S)

        def kill():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        sampler = threading.Thread(target=sample, daemon=True)
        timer = threading.Timer(timeout, kill)
        sampler.start()
        timer.start()
        # a blocking wait: Popen.wait(timeout) polls, adding up to 50 ms
        _, status = os.waitpid(proc.pid, 0)
        wall = time.monotonic() - t0
        timer.cancel()
        timed_out = killed.is_set()
        done.set()
        sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill()  # anything the command left behind
        deadline = time.monotonic() + 5.0
        while _session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        out.seek(0)
        err.seek(0)
        return Command(None if timed_out else proc.returncode, t0, wall, peak[0] * 1024 / 1e6,
                       statistics.fmean(speeds) / CAL_REF_UNITS_PER_S,
                       out.read(), err.read(), out_dir)


# ---------------------------------------------------------------------------
# workloads and their correctness gates
# ---------------------------------------------------------------------------

def _config_value(path: Path, key: str) -> str:
    for line in path.read_text(encoding="utf-8").splitlines():
        k, sep, v = line.split("#", 1)[0].partition("=")
        if sep and k.strip() == key:
            return v.strip()
    raise KeyError(key)


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        k, sep, v = line.partition("=")
        if sep:
            out[k.strip()] = v.strip()
    return out


def _load_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_solve(cmd: Command, cfg: Path) -> tuple[str | None, dict]:
    """Converged, residual within the config tol, solution equal to the
    reference.  Also reports max |u - |x|^4/4|, the distance from the
    manufactured function (not the exact solution where the railed
    envelope differs from F)."""
    report = _key_values((cmd.artifacts / "report.txt").read_text(encoding="utf-8"))
    if report.get("converged") != "true":
        return "report.txt: not converged", {}
    tol = float(_config_value(cfg, "tol"))
    res = float(np.max(np.abs(_load_csv(cmd.artifacts / "residual.csv")[:, -1])))
    if not res <= tol:
        return f"max |residual| {res:g} > tol {tol:g}", {}
    sol = _load_csv(cmd.artifacts / "solution.csv")
    ref = np.load(SOLVE_REFERENCE)
    if sol.shape[0] != ref.shape[0]:
        return f"solution has {sol.shape[0]} points, reference {ref.shape[0]}", {}
    dev = float(np.max(np.abs(sol[:, -1] - ref)))
    if not dev <= SOLUTION_TOL:
        return f"solution differs from the reference by {dev:g}", {}
    quartic = np.sum(sol[:, :-1] ** 2, axis=1) ** 2 / 4.0
    return None, {"max_error": float(np.max(np.abs(sol[:, -1] - quartic)))}


def check_convergence(cmd: Command, cfg: Path) -> tuple[str | None, dict]:
    """Every observed order at least MIN_ORDER; reports the finest max error."""
    rows = (cmd.artifacts / "convergence.csv").read_text(encoding="utf-8").split("\n")[1:]
    rows = [r.split(",") for r in rows if r]
    expected = [int(v) for v in _config_value(cfg, "refinements").split(",")]
    if [int(r[0]) for r in rows] != expected:
        return f"refinements {[r[0] for r in rows]} != {expected}", {}
    orders = [float(r[3]) for r in rows[1:] if r[3]]
    if len(orders) != len(rows) - 1 or min(orders) < MIN_ORDER:
        return f"observed orders {orders} (need >= {MIN_ORDER})", {}
    return None, {"max_error": float(rows[-1][2])}


def check_verify(cmd: Command, cfg: None) -> tuple[str | None, dict]:
    if _key_values(cmd.stdout).get("all_pass") != "true":
        return "verify: all_pass is not true", {}
    return None, {}


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str
    config: str | None    # file under perfbench/workloads
    check: object

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        if self.config is None:
            return [self.command, "--theta", "0.5", "--n", "2", "--samples", "1000",
                    "--seed", str(verify_seed(seed))]
        return [self.command, "--config", str(HERE / "workloads" / self.config),
                "--out", str(out_dir / "artifacts")]


def verify_seed(seed: int) -> int:
    return seed % 2**32


WORKLOADS = {
    "solve-n2-railed": Workload("solve", "solve-n2-railed.cfg", check_solve),
    "convergence-n1": Workload("convergence", "convergence-n1.cfg", check_convergence),
    "verify-n2": Workload("verify", None, check_verify),
}


def gate(wl: Workload, cmd: Command) -> tuple[str | None, dict]:
    if cmd.code is None:
        return "timed out", {}
    if cmd.code != 0:
        return f"exit code {cmd.code}: {cmd.stderr.strip()[-300:]}", {}
    cfg = HERE / "workloads" / wl.config if wl.config else None
    try:
        return wl.check(cmd, cfg)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}", {}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """Counts attempts and failures and keeps the time budget of one run."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, RUN_LIMIT_S - self.elapsed()))

    def more(self, durations: list[float]) -> bool:
        """Whether one more command of the median duration fits in --seconds."""
        return self.elapsed() + statistics.median(durations) <= self.seconds

    def next_dir(self) -> Path:
        self.n += 1
        return self.dir / f"c{self.n}"

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {problem}")

    def record(self, wl: Workload, cmd: Command, what: str,
               problem: str | None = None) -> dict | None:
        """Gate one finished command; returns its extra outputs, or None
        when it failed."""
        self.attempted += 1
        gate_problem, extra = gate(wl, cmd)
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
        problem = gate_problem or problem
        if problem is not None:
            self.fail(what, problem)
            return None
        return extra


def setup_probe(run: Run, wl: Workload) -> float | None:
    """Seconds from spawning `python shim.py setup` to the program's first
    solver or verify call (interpreter start, imports, argument and config
    parsing, field construction).  If the command ends without reaching an
    entry point, its whole run time is reported instead."""
    out_dir = run.next_dir()
    result = out_dir / "setup.json"
    run.attempted += 1
    try:
        cmd = run_command([sys.executable, str(HERE / "shim.py"), "setup", str(result), "--",
                           *wl.cli_args(run.seed, out_dir)], out_dir, run.timeout())
        if cmd.code is None:
            run.fail("setup probe", "timed out")
            return None
        end = cmd.t0 + cmd.wall_s
        if result.is_file():
            end = json.loads(result.read_text(encoding="utf-8"))["setup_end"]
        elif cmd.code == 0:
            print(f"{run.name}: setup probe reached no entry point", file=sys.stderr)
        else:
            run.fail("setup probe", f"exit {cmd.code}: {cmd.stderr.strip()[-300:]}")
            return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return (end - cmd.t0) * cmd.scale


def timed_run(run: Run, wl: Workload) -> dict:
    setups = [s for s in (setup_probe(run, wl) for _ in range(SETUP_PROBES)) if s is not None]
    walls, raw, peaks = [], [], []
    while True:
        out_dir = run.next_dir()
        cmd = run_command([sys.executable, "-m", "envma", *wl.cli_args(run.seed, out_dir)],
                          out_dir, run.timeout())
        run.record(wl, cmd, f"command {len(walls) + 1}")
        walls.append(cmd.scaled_wall_s)
        raw.append(cmd.wall_s)
        peaks.append(cmd.peak_rss_mb)
        if not run.more(raw):
            break
    print(f"{run.name}: setup_s samples {_fmt(setups)}", file=sys.stderr)
    print(f"{run.name}: wall_s samples {_fmt(walls)}, unscaled {_fmt(raw)}; "
          f"peak_rss_mb samples {_fmt(peaks)}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "pass_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def _traced_command(run: Run, wl: Workload) -> tuple[Command, dict | None]:
    out_dir = run.next_dir()
    result = out_dir / "trace.json"
    out_dir.mkdir(parents=True)
    cmd = run_command([sys.executable, str(HERE / "shim.py"), "trace", str(result), "--",
                       *wl.cli_args(run.seed, out_dir)], out_dir, run.timeout())
    try:
        trace = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        trace = None
    if trace is not None:
        if not Path(trace["envma_file"]).resolve().is_relative_to(SRC):
            run.problems.append(f"traced command imported envma from {trace['envma_file']}")
        trace["bytes_written"] = (sum(f.stat().st_size for f in cmd.artifacts.iterdir())
                                  if cmd.artifacts.is_dir() else 0)
    return cmd, trace


NO_TRACE = {"import_s": 0.0, "bytes_written": 0,
            "summary": {"spans": {}, "counts": {}, "by_parent": {}, "first_start": {}}}


def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float,
                  max_error: float, scale: float) -> dict:
    """Per-layer metrics of one traced command; absent layers read 0.
    The two walls come rescaled; span times are rescaled here by the traced
    command's `scale`.  `max_error` comes from the command's correctness
    gate."""
    summ = trace["summary"]
    spans, counts, by_parent = summ["spans"], summ["counts"], summ["by_parent"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    entries = [summ["first_start"][n] for n in
               ("solver.solve_dirichlet", "solver.convergence_study", "envelope.verify_envelope")
               if n in summ["first_start"]]
    main_start = summ["first_start"].get("cli.main")
    load_s = min(entries) - main_start if entries and main_start is not None else 0.0
    env_calls = calls("envelope.envelope_eval") + calls("envelope.envelope_value")
    point_iters = counts.get("point_iters", 0)
    certs = counts.get("certificates", 0)
    metrics = {
        "matrixcore.eig_calls": (calls("matrixcore.herm_eigensystem"), "count"),
        "matrixcore.eig_s": (total("matrixcore.herm_eigensystem"), "s"),
        "matrixcore.jacobi_calls": (calls("matrixcore.jacobi_eigh"), "count"),
        "matrixcore.jacobi_s": (total("matrixcore.jacobi_eigh"), "s"),
        "matrixcore.project_s": (total("matrixcore.project"), "s"),
        "matrixcore.extract_s": (total("matrixcore.extract"), "s"),
        "envelope.saddle_calls": (calls("envelope._saddle"), "count"),
        "envelope.saddle_s": (total("envelope._saddle"), "s"),
        "envelope.eval_calls": (calls("envelope.envelope_eval"), "count"),
        "envelope.eval_s": (total("envelope.envelope_eval"), "s"),
        "envelope.cert_self_s": (spans.get("envelope.envelope_eval", {}).get("self_s", 0.0), "s"),
        "envelope.value_calls": (calls("envelope.envelope_value"), "count"),
        "envelope.value_s": (total("envelope.envelope_value"), "s"),
        "envelope.evals_per_point_iter": (env_calls / point_iters if point_iters else 0.0,
                                          "ratio"),
        "envelope.railed_frac": (counts.get("railed", 0) / certs if certs else 0.0, "ratio"),
        "envelope.verify_draw_s": (total("envelope.draw_verify_sample"), "s"),
        "envelope.verify_check_s": (total("envelope._check_sample"), "s"),
        "envelope.gap_s": (total("envelope.ellipticity_gap"), "s"),
        "solver.solve_s": (total("solver.solve_dirichlet"), "s"),
        "solver.howard_iters": (counts.get("howard_iters", 0), "count"),
        "solver.unknowns": (counts.get("unknowns", 0), "count"),
        "solver.hessian_s": (total("solver.hessian_stack"), "s"),
        "solver.improve_s": (total("solver._improve_policy"), "s"),
        "solver.loop_residual_s": (by_parent.get("solver.solve_dirichlet>envelope.envelope_value",
                                                 0.0), "s"),
        "solver.residual_field_s": (total("solver.residual_field"), "s"),
        "solver.assemble_s": (total("solver._assemble"), "s"),
        "solver.linsolve_s": (total("linalg.spsolve", "solver._gauss_seidel"), "s"),
        "solver.nnz": (counts.get("nnz", 0), "count"),
        "solver.explicit_zeros": (counts.get("explicit_zeros", 0), "count"),
        "solver.max_error": (max_error, "1"),
        "parallel.map_calls": (calls("_parallel.ordered_map"), "count"),
        "parallel.map_s": (total("_parallel.ordered_map"), "s"),
        "cli.import_s": (trace["import_s"], "s"),
        "cli.load_s": (load_s, "s"),
        "matio.write_s": (total("cli._write", "matio.field_csv", "matio.report_text",
                                "matio.convergence_csv"), "s"),
        "matio.bytes_written": (trace["bytes_written"], "B"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in metrics.items()}


def traced_run(run: Run, wl: Workload) -> dict:
    """Pairs of (untraced, traced) commands.  Times are medians over the
    pairs; counts must repeat exactly."""
    samples, pair_s, absent = [], [], set()
    while True:
        start = run.elapsed()
        out_dir = run.next_dir()
        plain = run_command([sys.executable, "-m", "envma", *wl.cli_args(run.seed, out_dir)],
                            out_dir, run.timeout())
        run.record(wl, plain, "untraced command")
        traced, trace = _traced_command(run, wl)
        extra = run.record(wl, traced, "traced command",
                           None if trace is not None else "no trace written")
        if extra is not None:
            samples.append(layer_metrics(trace, plain.scaled_wall_s, traced.scaled_wall_s,
                                         extra.get("max_error", 0.0), traced.scale))
            absent.update(trace["summary"]["absent"])
        pair_s.append(run.elapsed() - start)
        if not run.more(pair_s):
            break
    if absent:
        print(f"{run.name}: absent layers {sorted(absent)}", file=sys.stderr)
    if not samples:
        samples.append(layer_metrics(NO_TRACE, 1.0, 1.0, 0.0, 1.0))
    out = {}
    for key, (_, unit) in samples[0].items():
        vals = [s[key][0] for s in samples]
        if unit == "count" and len(set(vals)) > 1:
            run.problems.append(f"count {key} differs between traced commands: {vals}")
        out[key] = (statistics.median_low(vals) if unit == "count" else statistics.median(vals),
                    unit)
    return out


def _fmt(vals) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in vals) + "]"


def environment(workload: str, seed: int, trace: bool) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload, "seed": seed, "verify_seed": verify_seed(seed),
        "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "pinned": {v: "1" for v in PINNED_THREAD_VARS},
        "ENVMA_THREADS": ENVMA_THREADS, "cpu": BENCH_CPU,
        "probe_ref_units_per_s": CAL_REF_UNITS_PER_S,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "envma" / "__init__.py").is_file():
        print(f"error: no envma source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    wl = WORKLOADS[args.workload]
    try:
        metrics = traced_run(run, wl) if args.trace else timed_run(run, wl)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(args.workload, args.seed, bool(args.trace)),
                      "elapsed_s": run.elapsed()}))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
