"""Outside-in tracer: spans and counters recorded around calls into qbp.

Nothing inside ``src/`` is instrumented.  ``install`` replaces each traced
function with a wrapper on *every* qbp module namespace that binds it, so
calls that one qbp module makes into another (``analysis`` binds
``evaluate_all`` by name; ``derive_deterministic_obdd`` reaches
``reachable_configurations`` through its module global) are counted too.
A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions wrapped by ``install``, by qbp module.  CLI commands are not here:
# the workloads open a ``cli.<command>`` span around each in-process invocation.
TRACED = {
    "cli": ("load_truth_table", "save_truth_table"),
    "program": (
        "save_program", "load_program", "program_digest",
        "evaluate", "evaluate_all", "computes",
    ),
    "analysis": (
        "reachable_configurations", "theta_components", "measured_separation",
        "derive_deterministic_obdd", "min_obdd_width",
    ),
    "constructions": (
        "build_mod_program", "greedy_good_set", "sample_good_set", "compose_parallel",
        "universal_exact_qbp", "permutation_bp_to_qbp", "mod_truth_table",
    ),
    "realify": ("realify_program",),
}

CLI_COMMANDS = (
    "build_mod", "build_universal", "build_perm", "eval",
    "realify", "analyze", "widths", "sweep",
)

SPANS = tuple(f"cli.{c}" for c in CLI_COMMANDS) + tuple(
    f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
)

COUNTERS = {
    "program.io.bytes_written": "bytes",
    "program.io.bytes_read": "bytes",
    "program.evaluate_all.inputs": "count",
    "program.evaluate_all.leaf_bytes": "bytes",
    "analysis.configs": "count",
    "analysis.candidates": "count",
    "analysis.components": "count",
    "analysis.min_obdd_width.rows": "count",
    "cli.tt_bytes_read": "bytes",
    "cli.warnings": "count",
}


class Tracer:
    """Aggregated spans (calls, inclusive and self seconds) and counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated by each open span

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            children = self._open.pop()
            self.calls[name] += 1
            self.seconds[name] += dt
            self.self_seconds[name] += dt - children
            if self._open:
                self._open[-1] += dt

    def count(self, name: str, k: int) -> None:
        self.counters[name] += int(k)

    def exact_counts(self) -> dict[str, int]:
        """Every quantity that must repeat exactly at a fixed seed."""
        out = {f"{name}.calls": self.calls.get(name, 0) for name in SPANS}
        out.update({name: self.counters.get(name, 0) for name in COUNTERS})
        return out


def _path_arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_save_program(t, args, kwargs, result):
    t.count("program.io.bytes_written", os.path.getsize(_path_arg(args, kwargs, 1, "path")))


def _count_load_program(t, args, kwargs, result):
    t.count("program.io.bytes_read", os.path.getsize(_path_arg(args, kwargs, 0, "path")))


def _count_evaluate_all(t, args, kwargs, result):
    p = _path_arg(args, kwargs, 0, "p")
    t.count("program.evaluate_all.inputs", 1 << p.n_vars)
    seq = [tf.var_index for tf in p.transformations]
    if len(set(seq)) == len(seq):
        t.count("program.evaluate_all.leaf_bytes", p.width * (1 << len(seq)) * 16)


def _count_reachable(t, args, kwargs, result):
    for prev, cur in zip(result, result[1:]):
        t.count("analysis.configs", len(cur.configs))
        t.count("analysis.candidates", 2 * len(prev.configs))


def _count_components(t, args, kwargs, result):
    t.count("analysis.components", result.count)


def _count_width_rows(t, args, kwargs, result):
    n = _path_arg(args, kwargs, 0, "f").n_vars
    t.count("analysis.min_obdd_width.rows", (1 << (n + 1)) - 1)


def _count_tt_read(t, args, kwargs, result):
    t.count("cli.tt_bytes_read", os.path.getsize(_path_arg(args, kwargs, 0, "path")))


_COUNT_HOOKS = {
    "program.save_program": _count_save_program,
    "program.load_program": _count_load_program,
    "program.evaluate_all": _count_evaluate_all,
    "analysis.reachable_configurations": _count_reachable,
    "analysis.theta_components": _count_components,
    "analysis.min_obdd_width": _count_width_rows,
    "cli.load_truth_table": _count_tt_read,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = _COUNT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every TRACED function wherever a module in ``modules`` (name ->
    module, the package itself included) binds it; returns the undo list."""
    undo = []
    for mod_name, fn_names in TRACED.items():
        for fn_name in fn_names:
            original = getattr(modules[mod_name], fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
