"""Command line front end: build, evaluate, transform, analyze, sweep.

Programs travel as JSON documents (see the program module), truth tables as
two-line text files (variable count, then 2^n characters of {0,1} in
input-value order).  Analysis commands emit CSV with a fixed header row to
stdout or --out.

Every command body runs under one scaffold, ``_recorded``, placed below the
click decorators; it holds the contract of all commands:

* the body returns an ``ExperimentRecord``.  The scaffold times the body,
  fills in the command name and wall time, and writes the record to stderr
  as one line of strict JSON with the keys command, seed, program (digest),
  wall_time_s and metrics;
* exit 0 on success; exit 1 when the record is marked failed (a check that
  does not hold), after the record is written;
* exit 2 on a usage or parse error (``ParseFailure``, which every
  ValueError of the body becomes); no record is written then.

Output is echoed to ``sys.stdout`` and ``sys.stderr`` by name: click's
default streams are cached per stream in a weak map whose value is its own
key, so each command run in process (under ``CliRunner``) would keep its
captured streams alive.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import click
import numpy as np

from . import analysis, constructions, linalg, program, realify


class ParseFailure(click.ClickException):
    exit_code = 2


@dataclass
class ExperimentRecord:
    command: str = ""
    seed: int | None = None
    program_digest: str | None = None
    wall_time_s: float = 0.0
    metrics: dict = field(default_factory=dict)
    failed: bool = False  # not written; the command exits 1

    def emit(self) -> None:
        """Write the record as one line of strict JSON; a non-finite metric
        is written as the string "inf", "-inf" or "nan", as in the CSV."""
        payload = {
            "command": self.command,
            "seed": self.seed,
            "program": self.program_digest,
            "wall_time_s": round(self.wall_time_s, 6),
            "metrics": {k: _finite_or_text(v) for k, v in self.metrics.items()},
        }
        click.echo(json.dumps(payload, sort_keys=True, allow_nan=False), file=sys.stderr)


def _finite_or_text(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _recorded(command: str):
    """The scaffold of a command body that returns its ExperimentRecord (see
    the module docstring)."""
    def decorate(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                record = body(*args, **kwargs)
            except ValueError as e:
                raise ParseFailure(str(e)) from e
            record.command = command
            record.wall_time_s = time.perf_counter() - t0
            record.emit()
            if record.failed:
                click.get_current_context().exit(1)

        return run

    return decorate


# -- file formats ------------------------------------------------------------

def load_truth_table(path) -> program.TruthTable:
    """A truth table file: n on line 1 and its 2^n bits as '0' and '1' on line
    2, each line stripped, the bits checked by one comparison of their bytes;
    a bad character is named by its column in the line as written."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:  # lines end at \n, \r or \r\n, as in text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text:
        raise ParseFailure(f"{path}: line 1: expected the number of variables")
    head, _, rest = text.partition("\n")
    try:
        n = int(head.strip())
    except ValueError:
        raise ParseFailure(f"{path}: line 1: expected an integer, got {head!r}")
    if n < 1:
        raise ParseFailure(f"{path}: line 1: number of variables must be >= 1")
    if not rest:
        raise ParseFailure(f"{path}: line 2: expected 2^{n} bits")
    line = rest.partition("\n")[0]
    bits = line.strip()
    # 2^n is never built: a huge n on line 1 would allocate it
    m = len(bits)
    if m & (m - 1) or m.bit_length() != n + 1:
        raise ParseFailure(f"{path}: line 2: expected 2^{n} bits, got {m}")
    values = np.frombuffer(bits.encode("ascii"), np.uint8) - np.uint8(ord("0")) if bits.isascii() else None
    if values is None or values.max() > 1:  # locate the first bad character
        lead = len(line) - len(line.lstrip())
        col, c = next((col, c) for col, c in enumerate(bits, start=lead + 1) if c not in "01")
        raise ParseFailure(f"{path}: line 2 column {col}: expected 0 or 1, got {c!r}")
    values.flags.writeable = False  # the table keeps it as its bits, uncopied
    return program.TruthTable(n, values.view(bool))


def save_truth_table(f: program.TruthTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{f.n_vars}\n")
        fh.write((f.bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii"))
        fh.write("\n")


def _load_program(path) -> program.QbProgram:
    try:
        return program.load_program(path)
    except program.ProgramFormatError as e:
        raise ParseFailure(f"{path}: {e}") from e
    except OSError as e:
        raise ParseFailure(str(e)) from e


def _write_program(p: program.QbProgram, out) -> str:
    """Save a program, print its one-line summary and return its digest."""
    digest = program.save_program(p, out)
    click.echo(
        f"width={p.width} length={p.length} n_vars={p.n_vars} "
        f"read_once={program.is_read_once(p)} stable={program.is_stable(p)} "
        f"digest={digest}",
        file=sys.stdout,
    )
    return digest


def _load_permutation_bp(path) -> constructions.PermutationBp:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseFailure(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    try:
        levels = tuple(
            (lvl["var"], tuple(lvl["perm0"]), tuple(lvl["perm1"]))
            for lvl in obj["levels"]
        )
        return constructions.PermutationBp(
            width=obj["width"],
            levels=levels,
            start=obj["start"],
            accepting=frozenset(obj["accepting"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseFailure(f"{path}: invalid permutation program: {e}") from e


def _parse_criterion(text: str) -> program.Margin | program.OneSided:
    parts = text.split(":")
    try:
        if parts[0] == "margin" and len(parts) == 2:
            return program.Margin(float(parts[1]))
        if parts[0] == "one-sided" and len(parts) <= 3:
            return program.OneSided(**dict(zip(("reject_min", "tol"), map(float, parts[1:]))))
    except ValueError as e:
        raise ParseFailure(f"invalid criterion {text!r}: {e}") from e
    raise ParseFailure(
        f"invalid criterion {text!r}; use margin:EPS or one-sided[:REJECT_MIN[:TOL]]"
    )


def _open_out(out_path):
    if out_path is None:
        return sys.stdout, False
    return open(out_path, "w", encoding="utf-8", newline=""), True


def _write_csv(out_path, header: list[str], rows: list[list]) -> None:
    fh, needs_close = _open_out(out_path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if needs_close:
            fh.close()


# -- commands ------------------------------------------------------------------

@click.group()
def main():
    """Quantum branching program toolkit."""


@main.group()
def build():
    """Construct a program and write it to a file."""


@build.command("mod")
@click.option("--p", "modulus", type=int, required=True, help="Prime modulus.")
@click.option("--n", "n_vars", type=int, required=True, help="Number of input variables.")
@click.option(
    "--strategy",
    type=click.Choice(["greedy", "sampled"]),
    default="greedy",
    show_default=True,
)
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for sampled strategy.")
@click.option("--out", "-o", type=click.Path(dir_okay=False), required=True)
@_recorded("build mod")
def build_mod(modulus, n_vars, strategy, seed, out):
    """Divisibility-of-ones program from a certified good multiplier set."""
    prog = constructions.build_mod_program(modulus, n_vars, strategy=strategy, seed=seed)
    return ExperimentRecord(
        seed=seed if strategy == "sampled" else None,
        program_digest=_write_program(prog, out),
        metrics={"p": modulus, "n": n_vars, "strategy": strategy, "width": prog.width},
    )


@build.command("universal")
@click.option("--truth-table", "table_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), required=True)
@_recorded("build universal")
def build_universal(table_path, out):
    """Exact program of width 2^n for an arbitrary truth table."""
    f = load_truth_table(table_path)
    prog = constructions.universal_exact_qbp(f)
    return ExperimentRecord(
        program_digest=_write_program(prog, out), metrics={"n": f.n_vars, "width": prog.width}
    )


@build.command("perm")
@click.option("--bp", "bp_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON file with width, start, accepting, levels[{var,perm0,perm1}].")
@click.option("--n", "n_vars", type=int, default=None, help="Total variable count (default: max var read).")
@click.option("--out", "-o", type=click.Path(dir_okay=False), required=True)
@_recorded("build perm")
def build_perm(bp_path, n_vars, out):
    """Embed a classical permutation branching program."""
    prog = constructions.permutation_bp_to_qbp(_load_permutation_bp(bp_path), n_vars=n_vars)
    return ExperimentRecord(program_digest=_write_program(prog, out), metrics={"width": prog.width})


@main.command("eval")
@click.argument("program_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_bits", type=str, default=None, help="Input bit string.")
@click.option("--exhaustive", is_flag=True, help="Check against a truth table over all inputs.")
@click.option("--truth-table", "table_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--criterion", type=str, default="margin:0.5", show_default=True,
              help="margin:EPS or one-sided[:REJECT_MIN[:TOL]].")
@click.option("--max-listed", type=click.IntRange(min=0), default=8, show_default=True,
              help="How many counterexamples to print.")
@_recorded("eval")
def eval_cmd(program_path, input_bits, exhaustive, table_path, criterion, max_listed):
    """Acceptance probability on one input, or an exhaustive check."""
    prog = _load_program(program_path)
    if not exhaustive:
        if input_bits is None:
            raise ParseFailure("provide --input BITS or --exhaustive --truth-table FILE")
        prob = program.evaluate(prog, input_bits)
        click.echo(f"{prob:.17g}", file=sys.stdout)
        return ExperimentRecord(program_digest=program.program_digest(prog), metrics={"probability": prob})
    if table_path is None:
        raise ParseFailure("--exhaustive requires --truth-table")
    f = load_truth_table(table_path)
    report = program.computes(prog, f, _parse_criterion(criterion))
    click.echo(f"holds={report.holds}", file=sys.stdout)
    click.echo(f"checked={report.checked}", file=sys.stdout)
    click.echo(f"min_margin={report.min_margin:.17g}", file=sys.stdout)
    click.echo(f"counterexamples={len(report.counterexamples)}", file=sys.stdout)
    for v in report.counterexamples[:max_listed].tolist():
        click.echo("  " + "".join(map(str, program.bits_of_value(v, prog.n_vars))), file=sys.stdout)
    return ExperimentRecord(
        program_digest=program.program_digest(prog),
        metrics={"holds": report.holds, "min_margin": report.min_margin,
                 "counterexamples": len(report.counterexamples)},
        failed=not report.holds,
    )


@main.command("realify")
@click.argument("program_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=click.Path(dir_okay=False), required=True)
@_recorded("realify")
def realify_cmd(program_path, out):
    """Rewrite a program with real amplitudes at twice the width."""
    prog = _load_program(program_path)
    real = realify.realify_program(prog)
    return ExperimentRecord(
        program_digest=_write_program(real, out),
        metrics={"source_width": prog.width, "width": real.width},
    )


@main.command("analyze")
@click.argument("program_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--truth-table", "table_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--epsilon", type=float, required=True, help="Margin of computation.")
@click.option("--theta", type=float, default=None, help="Component chain radius.")
@click.option("--auto-theta", is_flag=True, help="Use the measured accept/reject separation.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV destination (default stdout).")
@_recorded("analyze")
def analyze_cmd(program_path, table_path, epsilon, theta, auto_theta, out):
    """Per-level component analysis and the derived deterministic OBDD.

    Verified means that the derived OBDD classifies every input as the table
    does, and that at every level the paper's width chain holds: minimal
    OBDD width (in the program's read order, then the unread variables
    ascending) <= component count <= packing bound.
    """
    prog = _load_program(program_path)
    f = load_truth_table(table_path)
    if (theta is None) == (not auto_theta):
        raise ParseFailure("provide exactly one of --theta or --auto-theta")
    obdd = analysis.derive_deterministic_obdd(prog, f, theta, epsilon)
    theta = obdd.theta
    bound = analysis.packing_width_bound(theta, prog.width)
    rows = [
        [j, reachable, f"{theta:.17g}", components, f"{bound:.17g}"]
        for j, (reachable, components) in enumerate(zip(obdd.reachable_counts, obdd.level_widths))
    ]
    _write_csv(out, ["level", "reachable_count", "theta", "component_count", "bound_value"], rows)
    verified = bool(np.array_equal(obdd.classify_all(), f.bits))
    read = prog.var_sequence
    unread = tuple(v for v in range(1, f.n_vars + 1) if v not in read)
    minimal = analysis.min_obdd_width(f, read + unread)
    for j, (width, components) in enumerate(zip(minimal.level_widths, obdd.level_widths)):
        if not width <= components <= bound:
            click.echo(f"chain broken at level {j}: minimal width {width}, "
                       f"components {components}, bound {bound:.17g}", file=sys.stderr)
            verified = False
            break
    click.echo(f"verified={str(verified).lower()} max_width={obdd.max_width}", file=sys.stderr)
    return ExperimentRecord(
        program_digest=program.program_digest(prog),
        metrics={"theta": theta, "epsilon": epsilon, "max_width": obdd.max_width, "bound": bound,
                 "verified": verified},
        failed=not verified,
    )


@main.command("widths")
@click.option("--truth-table", "table_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--order", type=str, default=None, help="Comma-separated variable order, e.g. 2,1,3.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_recorded("widths")
def widths_cmd(table_path, order, out):
    """Minimal deterministic OBDD width per level (subfunction counting)."""
    f = load_truth_table(table_path)
    parsed_order = None
    if order is not None:
        try:
            parsed_order = tuple(int(x) for x in order.split(","))
        except ValueError as e:
            raise ParseFailure(f"invalid order {order!r}: {e}") from e
    widths = analysis.min_obdd_width(f, parsed_order)
    _write_csv(out, ["level", "width"], [[j, w] for j, w in enumerate(widths.level_widths)])
    click.echo(f"max_width={widths.max_width}", file=sys.stderr)
    return ExperimentRecord(metrics={"n": f.n_vars, "max_width": widths.max_width})


# bytes per point of a sweep range: its float plus one CSV row of the
# epsilon sweep, the heavier of the two sweeps (measured with tracemalloc)
_SWEEP_POINT_BYTES = 296


def _parse_range(text: str, what: str) -> tuple[float, ...]:
    try:
        parts = [float(x) for x in text.split(":")]
    except ValueError as e:
        raise ParseFailure(f"invalid {what} {text!r}: {e}") from e
    if len(parts) == 2:
        parts.append(1.0)
    if len(parts) != 3 or parts[2] <= 0:
        raise ParseFailure(f"invalid {what} {text!r}; use START:STOP[:STEP]")
    start, stop, step = parts
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ParseFailure(f"invalid {what} {text!r}: the number of points is not finite")
    count = math.floor(span) + 1
    linalg.check_budget(count * _SWEEP_POINT_BYTES, "sweep", f"the {what} {text!r} of {count} points")
    values = []
    x = start
    while x <= stop + linalg.RANGE_SLACK:
        values.append(round(x, 12))
        if x + step == x:
            raise ParseFailure(f"invalid {what} {text!r}: step {step} does not advance from {x}")
        x += step
    return tuple(values)


def _mod_sweep_row(p: int, n: int, seed: int) -> list:
    t_sampled = constructions.target_set_size(p)
    greedy_prog = constructions.build_mod_program(p, n, strategy="greedy")
    sampled_prog = constructions.build_mod_program(p, n, strategy="sampled", seed=seed)

    # one row per input 1^r 0^(n-r), 0 < r < p
    r = np.arange(1, min(p, n + 1))
    inputs = np.arange(n) < r[:, None]
    acc_sampled = program.evaluate_batch(sampled_prog, inputs)
    acc_greedy = program.evaluate_batch(greedy_prog, inputs)
    rej_sampled = float(np.min(1.0 - acc_sampled, initial=1.0))
    rej_greedy = float(np.min(1.0 - acc_greedy, initial=1.0))
    max_acc = float(np.max(acc_greedy, initial=0.0))
    table = constructions.mod_truth_table(p, n)
    obdd_width = analysis.min_obdd_width(table).max_width
    margin_eps = 0.5 - max_acc if max_acc < 0.5 else None
    theta2 = d_min_margin = d_min_general = ""
    if margin_eps is not None:
        rep = analysis.theta_bounds(margin_eps, greedy_prog.width)
        theta2 = f"{rep.theta2:.17g}"
        d_min_general = analysis.lower_bound_width(obdd_width, margin_eps, "general")
        if rep.theta2_radicand > 0:
            d_min_margin = analysis.lower_bound_width(obdd_width, margin_eps, "margin")
    return [
        p, n, t_sampled, greedy_prog.width // 2, sampled_prog.width, greedy_prog.width,
        f"{rej_sampled:.17g}", f"{rej_greedy:.17g}", obdd_width,
        f"{margin_eps:.17g}" if margin_eps is not None else "",
        theta2, d_min_margin, d_min_general, "",
    ]


MOD_SWEEP_HEADER = [
    "p", "n", "t_sampled", "t_greedy", "width_sampled", "width_greedy",
    "min_reject_sampled", "min_reject_greedy", "min_obdd_width",
    "margin_epsilon", "theta2", "d_min_margin", "d_min_general", "error",
]


@main.command("sweep")
@click.option("--p-range", type=str, default=None, help="Prime range START:STOP.")
@click.option("--epsilon-range", type=str, default=None, help="Margin range START:STOP:STEP.")
@click.option("--n", "n_vars", type=int, default=12, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--t", "t_width", type=int, default=1 << 20, show_default=True,
              help="Minimal OBDD width used by the epsilon sweep bounds.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_recorded("sweep")
def sweep_cmd(p_range, epsilon_range, n_vars, seed, t_width, out):
    """One CSV row per parameter point; per-row errors recorded, sweep continues."""
    if (p_range is None) == (epsilon_range is None):
        raise ParseFailure("provide exactly one of --p-range or --epsilon-range")
    if p_range is not None:
        values = _parse_range(p_range, "p range")
        primes = [int(v) for v in values if float(v).is_integer() and constructions.is_prime(int(v))]
        rows = []
        for p in primes:
            try:
                rows.append(_mod_sweep_row(p, n_vars, seed))
            except Exception as e:  # noqa: BLE001 - per-row errors are data
                rows.append([p, n_vars] + [""] * (len(MOD_SWEEP_HEADER) - 3) + [str(e)])
        _write_csv(out, MOD_SWEEP_HEADER, rows)
        return ExperimentRecord(seed=seed, metrics={"points": len(rows), "n": n_vars})
    header = ["epsilon", "theta2_radicand", "theta2", "d_min_margin", "d_min_general"]
    rows = []
    for eps in _parse_range(epsilon_range, "epsilon range"):
        try:
            rep = analysis.theta_bounds(float(eps), 1)
            d_margin = (
                analysis.lower_bound_width(t_width, float(eps), "margin")
                if rep.theta2_radicand > 0
                else ""
            )
            d_general = analysis.lower_bound_width(t_width, float(eps), "general")
            rows.append([
                f"{eps:.17g}", f"{rep.theta2_radicand:.17g}", f"{rep.theta2:.17g}",
                d_margin, d_general,
            ])
        except Exception as e:  # noqa: BLE001
            rows.append([f"{eps:.17g}", "", "", "", str(e)])
    _write_csv(out, header, rows)
    return ExperimentRecord(metrics={"points": len(rows), "t": t_width})


if __name__ == "__main__":
    main()
