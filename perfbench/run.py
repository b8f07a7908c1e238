"""Benchmark of the qbp toolkit: one workload, one seed, one process.

    python3 perfbench/run.py --workload cli-wide --seed 7 --seconds 35 --trace 0

Run from the root of a source checkout; qbp is imported from ``src/``.  The
run imports qbp and generates its inputs from the seed several times (the
median is ``setup_s``), then repeats passes of the workload while a typical
pass still ends within ``--seconds`` seconds (at least three passes),
checking every operation's output.

``--trace 0`` reports the end-to-end metrics: the median pass time
``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``success_rate`` (operations
whose output checked out, over operations attempted).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
one traced set-up plus one traced pass: span calls, inclusive and self
seconds (median over traced passes), exact counters, and
``trace.overhead_s``, the median traced pass minus the median untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Operation failures go to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SETUPS = 5
SETUP_SECONDS = 2.0  # cheap set-ups repeat until this much has been timed
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
QBP_MODULES = ("cli", "program", "analysis", "constructions", "realify", "linalg")


def import_qbp() -> SimpleNamespace:
    """Import qbp from ``src/`` afresh, dropping any earlier import, and
    return the package and its modules by name."""
    for name in [m for m in sys.modules if m == "qbp" or m.startswith("qbp.")]:
        del sys.modules[name]
    modules = {"qbp": importlib.import_module("qbp")}
    for name in QBP_MODULES:
        modules[name] = importlib.import_module(f"qbp.{name}")
    if Path(modules["qbp"].__file__).resolve().parent != (SRC / "qbp").resolve():
        raise ImportError(f"qbp was imported from {modules['qbp'].__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK for a run's files, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(setup, traced: list, untraced_walls: list, traced_walls: list) -> dict:
    """Per-layer values of one traced set-up plus one traced pass."""
    first = traced[0]
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (setup.calls.get(name, 0) + first.calls.get(name, 0), "count")
        for key, attr in (("s", "seconds"), ("self_s", "self_seconds")):
            value = getattr(setup, attr).get(name, 0.0) + _median(
                [getattr(t, attr).get(name, 0.0) for t in traced])
            metrics[f"{name}.{key}"] = (value, "s")
    for name, unit in tracing.COUNTERS.items():
        metrics[name] = (setup.counters.get(name, 0) + first.counters.get(name, 0), unit)
    configs = metrics["analysis.configs"][0]
    candidates = metrics["analysis.candidates"][0]
    metrics["analysis.dedup_ratio"] = (configs / candidates if candidates else 0.0, "ratio")
    metrics["trace.overhead_s"] = (_median(traced_walls) - _median(untraced_walls), "s")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        q = import_qbp()
        inputs = workload.generate(q, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    recorders = [workloads.Recorder(q)]
    workloads.check_inputs(recorders[0], inputs)

    pass_lengths = []  # each pass's duration, checks included

    def run_pass(tracer=None):
        t0 = time.perf_counter()
        recorder = workloads.Recorder(q, tracer)
        undo = tracing.install(tracer, vars(q)) if tracer is not None else []
        try:
            workload.run_pass(recorder, inputs, workdir, seed)
        finally:
            tracing.uninstall(undo)
        if tracer is not None:
            tracer.count("cli.warnings", recorder.warnings)
        recorders.append(recorder)
        pass_lengths.append(time.perf_counter() - t0)
        return recorder.elapsed

    if trace:
        setup_tracer = tracing.Tracer()
        undo = tracing.install(setup_tracer, vars(q))
        try:
            workload.generate(q, seed, workdir)
        finally:
            tracing.uninstall(undo)
    untraced_walls, traced_walls, tracers = [], [], []
    # Start another pass only if a typical one still ends within the budget.
    start = time.perf_counter()
    while (
        len(untraced_walls) < MIN_PASSES
        or (trace and len(traced_walls) < MIN_TRACED_PASSES)
        or time.perf_counter() - start + _median(pass_lengths) <= seconds
    ):
        if trace and len(traced_walls) < len(untraced_walls):
            tracers.append(tracing.Tracer())
            traced_walls.append(run_pass(tracers[-1]))
        else:
            untraced_walls.append(run_pass())

    if trace:
        # Counters must repeat exactly from pass to pass at a fixed seed.
        counts = [t.exact_counts() for t in tracers]
        recorders[0].step("exact counters", lambda: counts,
                         lambda c: None if all(x == c[0] for x in c) else "counters differ between passes")
        metrics = layer_metrics(setup_tracer, tracers, untraced_walls, traced_walls)
    attempted = sum(s.attempted for s in recorders)
    failed = sum(s.failed for s in recorders)
    if not trace:
        metrics = {
            "wall_s": (_median(untraced_walls), "s"),
            "setup_s": (_median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
        }
    problems = [problem for s in recorders for problem in s.problems]
    for problem in problems[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qbp" / "__init__.py").is_file():
        print(f"perfbench: no qbp sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with scratch_dir(args.workload) as workdir:
        result = measure(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
