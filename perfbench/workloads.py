"""The benchmark's workloads and the checks on their outputs.

Each workload generates its inputs from the seed (``generate``), then runs
passes (``run_pass``) of operations.  An operation is one in-process CLI
command or one library pipeline step.  It fails when it raises, when a CLI
command exits with another code than expected, or when its output fails a
check against ``oracles``.  Checks run outside the timed region.

Why these three workloads, and which layer each one stresses, is written
down in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import oracles

EPSILON = 0.5
SAMPLE = 24  # inputs per program file checked by the dense matrix chain


class Recorder:
    """Times, checks and counts the operations of one pass (or of a set-up)."""

    def __init__(self, q, tracer=None):
        self.q = q
        self.tracer = tracer
        self.runner = CliRunner()
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.warnings = 0
        self.problems: list[str] = []

    def step(self, name: str, run, check):
        """Time ``run()``, then check its result untimed; ``check`` returns
        None or a description of what is wrong.  Returns the result, or None
        when the operation failed."""
        self.attempted += 1
        problem = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception as e:  # noqa: BLE001 - a raising operation is a failed one
                result, problem = None, f"raised {e!r}"
            self.elapsed += time.perf_counter() - t0
        self.warnings += len(caught)
        if problem is None:
            try:
                problem = check(result)
            except Exception as e:  # noqa: BLE001 - so is output the check cannot read
                problem = f"check raised {e!r}"
        if problem:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")
            return None
        return result

    def cli(self, command: str, args: list, check):
        """Invoke ``qbp <args>`` in-process inside a ``cli.<command>`` span;
        the command must exit 0 and pass ``check``."""
        span = f"cli.{command}"
        args = [str(a) for a in args]

        def run():
            if self.tracer is None:
                return self.runner.invoke(self.q.cli.main, args)
            with self.tracer.span(span):
                return self.runner.invoke(self.q.cli.main, args)

        def checked(res):
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                return f"raised {res.exception!r}"
            if res.exit_code != 0:
                return f"exit {res.exit_code}: {res.stderr.strip()[-300:]}"
            return check(res)

        return self.step(span, run, checked)


# -- checks -------------------------------------------------------------------

def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_exhaustive(res, n_vars: int):
    got = _fields(res.stdout)
    want = {"holds": "True", "checked": str(1 << n_vars), "counterexamples": "0"}
    wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
    return f"eval reported {wrong}, expected {want}" if wrong else None


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_width_csv(res, expected: list[int]):
    rows = _csv(res.stdout)
    want = [["level", "width"]] + [[str(j), str(w)] for j, w in enumerate(expected)]
    return None if rows == want else f"widths CSV {rows}, expected {want}"


def check_probabilities(source, n_vars: int, sample, expected, one_sided: bool = False):
    """Dense-chain acceptance on sampled inputs: equal to ``expected(v)``
    (0 or 1) within 1e-9 or, one-sided, 1 on accepted inputs and at most 7/8
    on rejected ones."""
    initial, levels, accepting = source
    for v in sample:
        prob = oracles.chain_probability(
            initial, levels, accepting, oracles.input_bits(int(v), n_vars)
        )
        accept = bool(expected(int(v)))
        if one_sided and not accept:
            ok = prob <= 7 / 8 + 1e-9
        else:
            ok = abs(prob - float(accept)) <= 1e-9
        if not ok:
            return f"input {int(v)}: acceptance {prob!r}, function value {accept}"
    return None


def check_file(path, n_vars: int, sample, expected, one_sided: bool = False):
    return check_probabilities(
        oracles.program_from_file(path), n_vars, sample, expected, one_sided
    )


def check_in_memory(prog, n_vars: int, sample, expected):
    levels = [(tf.var_index, np.asarray(tf.u0), np.asarray(tf.u1)) for tf in prog.transformations]
    source = (np.asarray(prog.initial), levels, sorted(prog.accepting))
    return check_probabilities(source, n_vars, sample, expected)


def check_chain(min_widths, counts, theta: float, width: int, reported_bounds=None):
    """Per level: minimal width <= component count <= (1 + 2/theta)^(2 width),
    and count <= the bound the program reported for the level, if any."""
    if len(min_widths) != len(counts) or len(counts) != len(reported_bounds or counts):
        return f"level counts differ: {len(min_widths)}, {len(counts)}, {len(reported_bounds)}"
    for j, (w, c) in enumerate(zip(min_widths, counts)):
        b = reported_bounds[j] if reported_bounds else None
        if not w <= c or not oracles.packing_bound_holds(c, theta, width) or (b is not None and c > b):
            return f"level {j}: minimal width {w}, components {c}, reported bound {b}"
    return None


def _nonconstant_table(rng, n: int) -> np.ndarray:
    while True:
        bits = rng.integers(0, 2, size=1 << n).astype(bool)
        if bits.any() and not bits.all():
            return bits


def _save_table(q, inputs: dict, path: Path, bits: np.ndarray) -> Path:
    """Write a table through the CLI's writer; ``check_inputs`` compares
    the file with ``bits`` after the timed set-up."""
    n = int(bits.size).bit_length() - 1
    q.cli.save_truth_table(q.program.TruthTable(n, bits), path)
    inputs.setdefault("written", []).append((path, lambda: bits))
    return path


def _save_mod_table(q, inputs: dict, path: Path, p: int, n: int) -> Path:
    q.cli.save_truth_table(q.constructions.mod_truth_table(p, n), path)
    inputs.setdefault("written", []).append((path, lambda: oracles.mod_bits(p, n)))
    return path


def check_inputs(recorder: Recorder, inputs: dict) -> None:
    """One operation per generated truth-table file: its bytes must match."""
    for path, bits in inputs.get("written", []):
        recorder.step(
            f"input {path.name}",
            lambda: path.read_text(encoding="utf-8"),
            lambda text: None if text == oracles.table_file_text(bits()) else "file contents differ",
        )


# -- workloads --------------------------------------------------------------------

class ModExhaustive:
    """CLI: greedy MOD_p programs at large n, checked exhaustively; widths
    under a seeded variable order."""

    name = "mod-exhaustive"

    def __init__(self, primes=(5, 7, 11), n: int = 20):
        self.primes = primes
        self.n = n

    def generate(self, q, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        inputs = {
            "order": ",".join(str(int(v) + 1) for v in rng.permutation(self.n)),
            "sample": rng.integers(0, 1 << self.n, size=SAMPLE),
        }
        inputs["tables"] = {
            p: _save_mod_table(q, inputs, workdir / f"mod{p}_n{self.n}.tt", p, self.n)
            for p in self.primes
        }
        return inputs

    def run_pass(self, s: Recorder, inputs: dict, workdir: Path, seed: int) -> None:
        n, sample = self.n, inputs["sample"]
        for p in self.primes:
            prog, table = workdir / f"mod{p}.json", inputs["tables"][p]
            # Each check runs inside s.cli, before the loop moves on.
            divisible = lambda v: v.bit_count() % p == 0  # noqa: E731
            s.cli("build_mod", ["build", "mod", "--p", p, "--n", n, "-o", prog],
                  lambda r: check_file(prog, n, sample, divisible, one_sided=True))
            s.cli("eval", ["eval", prog, "--exhaustive", "--truth-table", table,
                           "--criterion", "one-sided"],
                  lambda r: check_exhaustive(r, n))
            s.cli("widths", ["widths", "--truth-table", table, "--order", inputs["order"]],
                  lambda r: check_width_csv(r, oracles.mod_widths(p, n)))


class ThetaUniversal:
    """Library: the width-2^n universal program of a seeded random table
    through the theta-component pipeline; no files."""

    name = "theta-universal"

    def __init__(self, n: int = 9):
        self.n = n

    def generate(self, q, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        bits = _nonconstant_table(rng, self.n)
        return {
            "bits": bits,
            "table": q.program.TruthTable(self.n, bits),
            "sample": rng.integers(0, 1 << self.n, size=SAMPLE),
        }

    def run_pass(self, s: Recorder, inputs: dict, workdir: Path, seed: int) -> None:
        q, n, bits, f = s.q, self.n, inputs["bits"], inputs["table"]
        value = lambda v: bits[v]  # noqa: E731
        prog = s.step("universal_exact_qbp", lambda: q.constructions.universal_exact_qbp(f),
                      lambda built: check_in_memory(built, n, inputs["sample"], value))
        # Final configurations are distinct basis vectors, sqrt(2) apart.
        theta = s.step("measured_separation",
                       lambda: q.analysis.measured_separation(prog, f, EPSILON),
                       lambda th: None if abs(th - math.sqrt(2)) <= 1e-9 else f"separation {th!r}")
        obdd = s.step("derive_deterministic_obdd",
                      lambda: q.analysis.derive_deterministic_obdd(prog, f, theta, EPSILON),
                      lambda ob: None if np.array_equal(ob.classify_all(), bits)
                      else "classify_all differs from the table")
        expected_widths = oracles.subfunction_widths(bits)

        def check_widths(w):
            if list(w.level_widths) != expected_widths:
                return f"widths {w.level_widths}, expected {expected_widths}"
            return check_chain(w.level_widths, obdd.level_counts, theta, prog.width)

        s.step("min_obdd_width", lambda: q.analysis.min_obdd_width(f), check_widths)


SWEEP_HEADER = [
    "p", "n", "t_sampled", "t_greedy", "width_sampled", "width_greedy",
    "min_reject_sampled", "min_reject_greedy", "min_obdd_width",
    "margin_epsilon", "theta2", "d_min_margin", "d_min_general", "error",
]


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class CliWide:
    """CLI: wide programs through the JSON program format (build, realify,
    analyze), a read-twice permutation program and a MOD_p sweep."""

    name = "cli-wide"

    def __init__(self, mod_p: int = 13, mod_n: int = 14, univ_n: int = 6,
                 perm_p: int = 5, perm_n: int = 14, sweep_p: tuple = (3, 23), sweep_n: int = 12):
        self.mod_p, self.mod_n = mod_p, mod_n
        self.univ_n = univ_n
        self.perm_p, self.perm_n = perm_p, perm_n
        self.sweep_p, self.sweep_n = sweep_p, sweep_n

    def generate(self, q, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        inputs = {"perm_bp": workdir / "read_twice.bp.json"}
        inputs["mod_table"] = _save_mod_table(
            q, inputs, workdir / f"mod{self.mod_p}_n{self.mod_n}.tt", self.mod_p, self.mod_n)
        inputs["perm_table"] = _save_mod_table(
            q, inputs, workdir / f"mod{self.perm_p}_n{self.perm_n}.tt", self.perm_p, self.perm_n)
        inputs["univ_bits"] = _nonconstant_table(rng, self.univ_n)
        inputs["univ_table"] = _save_table(
            q, inputs, workdir / f"random_n{self.univ_n}.tt", inputs["univ_bits"])
        # Classical MOD_perm_p counter reading every variable twice, each time
        # in a seeded order: 2c % p == 0 iff c % p == 0 for an odd prime p.
        w = self.perm_p
        order = [int(v) + 1 for _ in range(2) for v in rng.permutation(self.perm_n)]
        bp = {
            "width": w, "start": 1, "accepting": [1],
            "levels": [{"var": v, "perm0": list(range(1, w + 1)),
                        "perm1": [s % w + 1 for s in range(1, w + 1)]} for v in order],
        }
        inputs["perm_bp"].write_text(json.dumps(bp), encoding="utf-8")
        inputs["mod_sample"] = rng.integers(0, 1 << self.mod_n, size=SAMPLE)
        inputs["perm_sample"] = rng.integers(0, 1 << self.perm_n, size=SAMPLE)
        return inputs

    def run_pass(self, s: Recorder, inputs: dict, workdir: Path, seed: int) -> None:
        self._mod(s, inputs, workdir, seed)
        self._universal(s, inputs, workdir)
        self._read_twice(s, inputs, workdir)
        self._sweep(s, seed)

    def _mod(self, s, inputs, workdir, seed):
        p, n, prog = self.mod_p, self.mod_n, workdir / "sampled.json"
        divisible = lambda v: v.bit_count() % p == 0  # noqa: E731
        s.cli("build_mod", ["build", "mod", "--strategy", "sampled", "--p", p, "--n", n,
                            "--seed", seed, "-o", prog],
              lambda r: check_file(prog, n, inputs["mod_sample"], divisible, one_sided=True))
        s.cli("eval", ["eval", prog, "--exhaustive", "--truth-table", inputs["mod_table"],
                       "--criterion", "one-sided"],
              lambda r: check_exhaustive(r, n))

    def _universal(self, s, inputs, workdir):
        n, bits, table = self.univ_n, inputs["univ_bits"], inputs["univ_table"]
        univ, real = workdir / "universal.json", workdir / "universal_real.json"
        every_input = range(1 << n)
        value = lambda v: bits[v]  # noqa: E731
        s.cli("build_universal", ["build", "universal", "--truth-table", table, "-o", univ],
              lambda r: check_file(univ, n, every_input, value))
        s.cli("realify", ["realify", univ, "-o", real],
              lambda r: check_file(real, n, every_input, value))
        expected_widths = oracles.subfunction_widths(bits)

        def check_analyze(res):
            if "verified=true" not in res.stderr:
                return f"analyze did not verify: {res.stderr.strip()[:300]}"
            rows = _csv(res.stdout)
            if rows[0] != ["level", "reachable_count", "theta", "component_count", "bound_value"]:
                return f"analyze header {rows[0]}"
            body = rows[1:]
            theta = float(body[0][2])
            if abs(theta - math.sqrt(2)) > 1e-9:
                return f"auto theta {theta!r}, expected sqrt(2)"
            return check_chain(expected_widths, [int(r[3]) for r in body], theta, 2 << n,
                               [float(r[4]) for r in body])

        s.cli("analyze", ["analyze", real, "--truth-table", table, "--auto-theta",
                          "--epsilon", EPSILON], check_analyze)

    def _read_twice(self, s, inputs, workdir):
        p, n, prog = self.perm_p, self.perm_n, workdir / "read_twice.json"
        divisible = lambda v: v.bit_count() % p == 0  # noqa: E731
        s.cli("build_perm", ["build", "perm", "--bp", inputs["perm_bp"], "--n", n, "-o", prog],
              lambda r: check_file(prog, n, inputs["perm_sample"], divisible))
        s.cli("eval", ["eval", prog, "--exhaustive", "--truth-table", inputs["perm_table"]],
              lambda r: check_exhaustive(r, n))

    def _sweep(self, s, seed):
        lo, hi = self.sweep_p
        n, primes = self.sweep_n, _primes(lo, hi)

        def check_sweep(res):
            rows = _csv(res.stdout)
            if rows[0] != SWEEP_HEADER:
                return f"sweep header {rows[0]}"
            got = [(r[0], r[1], r[8], r[-1]) for r in rows[1:]]
            want = [(str(p), str(n), str(max(oracles.mod_widths(p, n))), "") for p in primes]
            return None if got == want else f"sweep rows (p, n, min_obdd_width, error) {got}, expected {want}"

        s.cli("sweep", ["sweep", "--p-range", f"{lo}:{hi}", "--n", n, "--seed", seed], check_sweep)


WORKLOADS = {w.name: w for w in (ModExhaustive, ThetaUniversal, CliWide)}

# Reduced sizes for the self-test: same operations, a fraction of the work.
SMALL = {
    "mod-exhaustive": lambda: ModExhaustive(primes=(3, 5), n=8),
    "theta-universal": lambda: ThetaUniversal(n=4),
    "cli-wide": lambda: CliWide(mod_p=5, mod_n=8, univ_n=3, perm_p=3, perm_n=6,
                                sweep_p=(3, 7), sweep_n=6),
}
