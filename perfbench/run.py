"""archscope benchmark: CLI workloads timed end to end, plus a traced layer run.

    python3 perfbench/run.py --workload sweep-ofa-npu --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program under test is the
checkout's ``src/archscope``. Without ``--workload`` every workload runs, and
without ``--trace`` each runs untraced and then traced.

Load shape: a closed loop with one client. Each CLI command starts only after
the previous one exits, runs in a fresh interpreter with ``--workers 1`` and
one BLAS thread, and gets the benchmark's ``--seed`` as its own ``--seed``.
The loop repeats the command for ``--seconds`` seconds (at least MIN_RUNS
times) and reports medians, because single runs on a small shared machine
spread by tens of percent.

Untraced (``--trace 0``) end-to-end metrics:

- wall_s: median wall time of one CLI run, spawn to exit, outputs written;
- setup_s: median wall time of a set-up probe (perfbench/probe.py), a fresh
  interpreter that imports archscope, loads the space, applies the preset and
  resolves the evaluators, i.e. everything before the first draw;
- archs_per_s: architectures scored by one run / (wall_s - setup_s);
- peak_rss_mb: median peak resident set of the CLI process, MiB.

Each loop iteration runs perfbench/calibrate.py (a fixed workload that does
not use archscope), then the probe, then the CLI command. wall_s and setup_s
are in reference seconds: the medians times REFERENCE_CAL_S / the median
calibration time of the same invocation. On a shared machine the speed of
all three swings together by 20-30% over minutes, which the raw medians of
one invocation cannot average out; the ratio to the calibration does. The raw
medians are printed in the report.

Traced (``--trace 1``) runs alternate with untraced ones; the per-layer
metrics come from the traced ones (perfbench/tracer.py). Layer busy times are
given as shares of the traced wall time ``trace.wall_s``, so a layer that a
workload never enters reads 0 rather than a constant time.

Every run's outputs are checked (perfbench/workloads.py), and all runs of one
invocation must write byte-identical data files. The last stdout line is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CheckFailed, check_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
TIME_LIMIT_S = 170.0  # a benchmark invocation must end within 180 s
REFERENCE_CAL_S = 0.3  # calibrate.py's median time on the machine the bounds were set on
WORK_DIR = ".perfbench-work"

END_TO_END = {
    "wall_s": "s",
    "archs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

EVOLVE = "search.evolve"
EVALUATOR_MODULES = ("costs.", "devices.")

# name -> (unit, exact); exact metrics are counts that must repeat run to run
PER_LAYER = {
    "trace.wall_s": ("s", False),
    "trace.overhead_ratio": ("ratio", False),
    "spaces.load_space.share": ("ratio", False),
    "reduction.apply.share": ("ratio", False),
    "evaluators.resolve.share": ("ratio", False),
    "sampling.calls": ("count", True),
    "sampling.share": ("ratio", False),
    "devices.npu-like.calls": ("count", True),
    "devices.npu-like.share": ("ratio", False),
    "costs.synthetic-acc.calls": ("count", True),
    "costs.synthetic-acc.share": ("ratio", False),
    "costs.macs.calls": ("count", True),
    "costs.macs.share": ("ratio", False),
    "profiler.draw_samples.calls": ("count", True),
    "profiler.draw_samples.self_share": ("ratio", False),
    "profiler.bootstrap.calls": ("count", True),
    "profiler.bootstrap.share": ("ratio", False),
    "profiler.bootstrap.useful_ratio": ("ratio", True),
    "profiler.bootstrap.index_mb": ("MiB", True),
    "search.mutate.calls": ("count", True),
    "search.mutate.share": ("ratio", False),
    "search.dedupe.useful_ratio": ("ratio", True),
    "search.evaluations": ("count", True),
    "search.evolve.self_share": ("ratio", False),
    "search.pareto_filter.share": ("ratio", False),
    "exports.write.share": ("ratio", False),
    "exports.bytes": ("bytes", True),
    "manifest.write.share": ("ratio", False),
    "cli.self_share": ("ratio", False),
}


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARCHSCOPE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], log: Path, timeout: float) -> Proc:
    """Run a Python child to completion; wall time is spawn to exit."""
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, out.read(), err.read())


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

def layer_metrics(summary: dict, wall: float) -> dict[str, float]:
    spans = summary["spans"]  # [name, parent, calls, total_s, self_s]

    def calls(name, parent=None):
        return sum(s[2] for s in spans if s[0] == name and parent in (None, s[1]))

    def share(name, col=3):
        return sum(s[col] for s in spans if s[0] == name) / wall

    m = {"spaces.load_space.share": share("spaces.load_space"),
         "reduction.apply.share": share("reduction.apply"),
         "evaluators.resolve.share": share("evaluators.resolve")}
    for layer in ("sampling", "devices.npu-like", "costs.synthetic-acc", "costs.macs"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.share"] = share(layer)
    m["profiler.draw_samples.calls"] = calls("profiler.draw_samples")
    m["profiler.draw_samples.self_share"] = share("profiler.draw_samples", col=4)
    boot = calls("profiler.bootstrap")
    m["profiler.bootstrap.calls"] = boot
    m["profiler.bootstrap.share"] = share("profiler.bootstrap")
    m["profiler.bootstrap.useful_ratio"] = summary["bootstrap_distinct"] / boot if boot else 0.0
    m["profiler.bootstrap.index_mb"] = summary["bootstrap_index_bytes"] / 2**20

    # each evaluation inside the search scores every objective once
    objective_spans = [s for s in spans if s[1] == EVOLVE and s[0].startswith(EVALUATOR_MODULES)]
    evaluations = sum(s[2] for s in objective_spans) // max(len(objective_spans), 1)
    mutations = calls("search.mutate")
    children = evaluations - calls("sampling", parent=EVOLVE)
    m["search.mutate.calls"] = mutations
    m["search.mutate.share"] = share("search.mutate")
    m["search.dedupe.useful_ratio"] = children / mutations if mutations else 0.0
    m["search.evaluations"] = evaluations
    m["search.evolve.self_share"] = share(EVOLVE, col=4)
    m["search.pareto_filter.share"] = share("search.pareto_filter")
    m["exports.write.share"] = share("exports.write")
    m["exports.bytes"] = summary["export_bytes"]
    m["manifest.write.share"] = share("manifest.write")
    m["cli.self_share"] = (wall - sum(s[3] for s in spans if s[1] is None)) / wall
    return m


# ---------------------------------------------------------------------------
# one benchmark invocation

@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] | None = None
    archs: int | None = None
    walls: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    machine: dict = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def output(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def machine() -> dict:
    import numpy

    import archscope

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "archscope": archscope.__version__,
    }


def run_cli(workload, sizes, seed, work: Path, result: Result, tag: str, timeout: float,
            traced: bool) -> Proc | None:
    """One CLI run plus its output check; returns the process on success."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli_args = workload.cli_args(seed, out, sizes)
    if traced:
        args = [str(HERE / "tracer.py"), str(work / "trace.json"), "--", *cli_args]
    else:
        args = ["-m", "archscope.cli", *cli_args]
    result.attempted += 1
    proc = spawn(args, work / tag, timeout)
    if proc.code != 0:
        result.fail(f"{tag}: exit {proc.code}: {proc.stderr.strip()[-500:]}")
        return None
    try:
        digests = check_manifest(out)
        archs = workload.check(workload, sizes, seed, out, proc.stdout)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        result.fail(f"{tag}: {type(exc).__name__}: {exc}")
        return None
    if result.digests is None:
        result.digests, result.archs = digests, archs
    elif digests != result.digests or archs != result.archs:
        result.fail(f"{tag}: data files differ from the first run of this seed")
        return None
    return proc


def measure(workload, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> Result:
    """Repeat the workload for `seconds` (at least MIN_RUNS times) and summarise."""
    sizes = workload.sizes if sizes is None else sizes
    result = Result(workload.name, seed, trace, machine=machine())
    result.machine["loadavg_start"] = os.getloadavg()
    work = ROOT / WORK_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    try:
        i = 0
        while True:
            remaining = TIME_LIMIT_S - (perf_counter() - start)
            if trace:
                proc = run_cli(workload, sizes, seed, work, result, f"plain{i}", remaining, False)
                if proc is not None:
                    result.walls.append(proc.wall_s)
                proc = run_cli(workload, sizes, seed, work, result, f"traced{i}",
                               remaining, True)
                if proc is not None:
                    summary = json.loads((work / "trace.json").read_text())
                    result.traced_walls.append(proc.wall_s)
                    result.layers.append(layer_metrics(summary, proc.wall_s))
            else:
                cal = spawn([str(HERE / "calibrate.py")], work / f"cal{i}", remaining)
                probe = spawn([str(HERE / "probe.py"), *workload.probe_args()],
                              work / f"probe{i}", remaining)
                proc = run_cli(workload, sizes, seed, work, result, f"run{i}", remaining, False)
                helper = next((p for p in (cal, probe) if p.code != 0), None)
                if proc is not None and helper is not None:
                    result.fail(f"run{i}: helper exit {helper.code}: {helper.stderr.strip()[-500:]}")
                elif proc is not None:
                    result.cals.append(cal.wall_s)
                    result.setups.append(probe.wall_s)
                    result.walls.append(proc.wall_s)
                    result.rss.append(proc.rss_mib)
            i += 1
            # stop before the next iteration would overrun the measuring time
            elapsed = perf_counter() - start
            if i >= MIN_RUNS and elapsed * (i + 1) / i > min(seconds, TIME_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.machine["loadavg_end"] = os.getloadavg()
    summarise(result)
    return result


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarise(result: Result) -> None:
    if not result.trace:
        # times in reference seconds: scaled by the machine's current speed
        scale = REFERENCE_CAL_S / median(result.cals) if result.cals else 0.0
        wall, setup = median(result.walls) * scale, median(result.setups) * scale
        busy = wall - setup
        values = {
            "wall_s": wall,
            "archs_per_s": (result.archs or 0) / busy if busy > 0 else 0.0,
            "setup_s": setup,
            "peak_rss_mb": median(result.rss),
        }
        result.metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        return
    traced_wall = median(result.traced_walls)
    plain_wall = median(result.walls)
    metrics = {
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / plain_wall if plain_wall else 0.0, "ratio"),
    }
    unsteady = []
    for name, (unit, exact) in PER_LAYER.items():
        if name in metrics:
            continue
        values = [layer[name] for layer in result.layers]
        if exact and len(set(values)) > 1:
            unsteady.append(f"{name}={values}")
        metrics[name] = ((values[0] if values else 0) if exact else median(values), unit)
    if unsteady:
        result.fail(f"counts differ between traced runs: {'; '.join(unsteady)}")
    result.metrics = metrics


# ---------------------------------------------------------------------------
# reporting

def report(result: Result) -> None:
    mode = "traced" if result.trace else "untraced"
    runs = len(result.traced_walls) if result.trace else len(result.walls)
    print(f"== {result.workload} seed={result.seed} {mode}: {result.attempted} runs attempted, "
          f"{result.failed} failed")
    m = result.machine
    print(f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"archscope={m['archscope']} loadavg_start={m['loadavg_start'][0]:.2f} "
          f"loadavg_end={m['loadavg_end'][0]:.2f}")
    for name, digest in (result.digests or {}).items():
        print(f"digest {name} {digest}")
    for error in result.errors:
        print(f"error {error}")
    print(f"metrics (times are medians of {runs} runs)")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    for label, values in (("wall", result.walls), ("setup", result.setups),
                          ("calibration", result.cals), ("traced wall", result.traced_walls)):
        if values:
            print(f"  {label} seconds, median {median(values):.4f}, in run order: "
                  f"{' '.join(f'{v:.4f}' for v in values)}")


def use_checkout() -> str | None:
    """Make this checkout's archscope and test oracles importable, or say why not."""
    package = ROOT / "src" / "archscope"
    if not (package / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        return f"{ROOT} is not an archscope checkout (needs src/archscope and tests/oracles.py)"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import archscope

    if Path(archscope.__file__).resolve().parent != package:
        return f"imported archscope from {archscope.__file__}, not from {package}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: untraced, then traced")
    args = parser.parse_args(argv)

    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    for name in names:
        for trace in traces:
            result = measure(WORKLOADS[name], args.seed, args.seconds, trace)
            report(result)
            print(json.dumps(result.output()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
