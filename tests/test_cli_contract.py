"""The command line contract, pinned for every command.

* exit 0 on success, with exactly one strict-JSON record on stderr that has
  the keys command, seed, program, wall_time_s and metrics, and the metric
  keys of its command;
* exit 1 on a failed check (``eval --exhaustive``, ``analyze``), with the
  record still written;
* exit 2 on a usage or parse error, with no traceback and no record;
* the CSV header rows of the analysis commands.
"""

import csv
import io
import json
import os
import tracemalloc

import pytest
from click.testing import CliRunner

from qbp import analysis, constructions, linalg, program
from qbp.cli import load_truth_table, main, save_truth_table

RECORD_KEYS = {"command", "seed", "program", "wall_time_s", "metrics"}


# permutation programs with a field that is not an integer: (mutation, message)
PERM_FIELDS = {
    "perm float entry": (lambda bp: bp["levels"][1].update(perm0=[1, 2.7, 3]),
                         "level 2 perm0 entry must be an integer, got 2.7"),
    "perm string": (lambda bp: bp["levels"][0].update(perm0="123"),
                    "level 1 perm0 entry must be an integer, got '1'"),
    "accepting float": (lambda bp: bp.update(accepting=[1.9]),
                        "accepting state must be an integer, got 1.9"),
    "var bool": (lambda bp: bp["levels"][2].update(var=True),
                 "level 3 var must be an integer, got True"),
    "start float": (lambda bp: bp.update(start=1.5), "start state must be an integer, got 1.5"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    paths = {name: d / name for name in (
        "f.tt", "univ.json", "mod3.json", "mod3.tt", "flipped.tt", "bp.json",
        "bad.tt", "bad.json", "bad_bp.json", "n12.tt", "huge_state.json",
    )}
    paths.update({name: d / f"{name}.json" for name in PERM_FIELDS})
    f = program.TruthTable(3, [c == "1" for c in "01101001"])
    save_truth_table(f, paths["f.tt"])
    program.save_program(constructions.universal_exact_qbp(f), paths["univ.json"])
    program.save_program(constructions.build_mod_program(3, 6), paths["mod3.json"])
    table = constructions.mod_truth_table(3, 6)
    save_truth_table(table, paths["mod3.tt"])
    save_truth_table(program.TruthTable(6, ~table.bits), paths["flipped.tt"])
    bp = {
        "width": 3, "start": 1, "accepting": [1],
        "levels": [{"var": v, "perm0": [1, 2, 3], "perm1": [2, 3, 1]} for v in (1, 2, 3)],
    }
    paths["bp.json"].write_text(json.dumps(bp))
    for name, (mutate, _) in PERM_FIELDS.items():
        bad = json.loads(json.dumps(bp))
        mutate(bad)
        paths[name].write_text(json.dumps(bad))
    paths["bad.tt"].write_text("3\n0110100x\n")
    paths["bad.json"].write_text("{")
    huge = json.loads(paths["univ.json"].read_text())  # hand-written: read on the json path
    huge["accepting"] = [1, 10 ** 30]
    paths["huge_state.json"].write_text(json.dumps(huge, indent=1))
    paths["bad_bp.json"].write_text('{"width": 3}')
    save_truth_table(program.TruthTable.constant(12, True), paths["n12.tt"])
    paths["out"] = d / "out.json"
    return {k: str(v) for k, v in paths.items()}


def _strict_json(line: str) -> dict:
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


def _records(stderr: str) -> list[dict]:
    return [_strict_json(line) for line in stderr.splitlines() if line.startswith("{")]


def _digest(path: str) -> str:
    return program.program_digest(program.load_program(path))


# (args, command, seed, program file whose digest is recorded or None, metric keys)
SUCCESS = {
    "build mod": (
        lambda f: ["build", "mod", "--p", "3", "--n", "6", "-o", f["out"]],
        "build mod", None, "out", {"p", "n", "strategy", "width"},
    ),
    "build mod sampled": (
        lambda f: ["build", "mod", "--p", "3", "--n", "6", "--strategy", "sampled",
                   "--seed", "4", "-o", f["out"]],
        "build mod", 4, "out", {"p", "n", "strategy", "width"},
    ),
    "build universal": (
        lambda f: ["build", "universal", "--truth-table", f["f.tt"], "-o", f["out"]],
        "build universal", None, "out", {"n", "width"},
    ),
    "build perm": (
        lambda f: ["build", "perm", "--bp", f["bp.json"], "-o", f["out"]],
        "build perm", None, "out", {"width"},
    ),
    "eval input": (
        lambda f: ["eval", f["mod3.json"], "--input", "110000"],
        "eval", None, "mod3.json", {"probability"},
    ),
    "eval exhaustive": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["mod3.tt"],
                   "--criterion", "one-sided"],
        "eval", None, "mod3.json", {"holds", "min_margin", "counterexamples"},
    ),
    "realify": (
        lambda f: ["realify", f["univ.json"], "-o", f["out"]],
        "realify", None, "out", {"source_width", "width"},
    ),
    "analyze": (
        lambda f: ["analyze", f["univ.json"], "--truth-table", f["f.tt"], "--epsilon", "0.5",
                   "--auto-theta"],
        "analyze", None, "univ.json", {"theta", "epsilon", "max_width", "bound", "verified"},
    ),
    "widths": (
        lambda f: ["widths", "--truth-table", f["mod3.tt"], "--order", "6,5,4,3,2,1"],
        "widths", None, None, {"n", "max_width"},
    ),
    "sweep p-range": (
        lambda f: ["sweep", "--p-range", "3:3", "--n", "6", "--seed", "2"],
        "sweep", 2, None, {"points", "n"},
    ),
    "sweep epsilon-range": (
        lambda f: ["sweep", "--epsilon-range", "0.3:0.5:0.1", "--t", "64"],
        "sweep", None, None, {"points", "t"},
    ),
}


@pytest.mark.parametrize("case", SUCCESS)
def test_success_exits_0_with_one_record(files, case):
    args, command, seed, digest_of, metric_keys = SUCCESS[case]
    result = CliRunner().invoke(main, args(files))
    assert result.exit_code == 0, result.output
    (record,) = _records(result.stderr)
    assert set(record) == RECORD_KEYS
    assert record["command"] == command
    assert record["seed"] == seed
    assert record["program"] == (None if digest_of is None else _digest(files[digest_of]))
    assert isinstance(record["wall_time_s"], float) and record["wall_time_s"] >= 0.0
    assert set(record["metrics"]) == metric_keys


# (args, part of the error message)
USAGE = {
    "build mod not prime": (
        lambda f: ["build", "mod", "--p", "4", "--n", "6", "-o", f["out"]], "modulus 4 is not prime"),
    "build mod missing option": (
        lambda f: ["build", "mod", "--n", "6", "-o", f["out"]], "Missing option '--p'"),
    "build universal bad table": (
        lambda f: ["build", "universal", "--truth-table", f["bad.tt"], "-o", f["out"]],
        "line 2 column 8"),
    "build perm bad bp": (
        lambda f: ["build", "perm", "--bp", f["bad_bp.json"], "-o", f["out"]],
        "invalid permutation program"),
    **{f"build perm {name}": (
        lambda f, name=name: ["build", "perm", "--bp", f[name], "-o", f["out"]],
        f"invalid permutation program: {message}") for name, (_, message) in PERM_FIELDS.items()},
    "eval bad input": (
        lambda f: ["eval", f["mod3.json"], "--input", "01x000"], "non-bit characters"),
    "eval accepting state beyond int64": (
        lambda f: ["eval", f["huge_state.json"], "--input", "010"],
        f"$: accepting state {10 ** 30} outside [1, 8]"),
    "eval no table": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive"], "--exhaustive requires --truth-table"),
    "eval bad criterion": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["mod3.tt"],
                   "--criterion", "margin"], "invalid criterion 'margin'"),
    "realify bad program": (
        lambda f: ["realify", f["bad.json"], "-o", f["out"]], "line 1 column 2"),
    "analyze bad epsilon": (
        lambda f: ["analyze", f["univ.json"], "--truth-table", f["f.tt"], "--epsilon", "0.7",
                   "--auto-theta"], "epsilon must be in (0, 1/2]"),
    "widths bad order": (
        lambda f: ["widths", "--truth-table", f["f.tt"], "--order", "1,1,2"],
        "order must be a permutation"),
    "widths unparsable order": (
        lambda f: ["widths", "--truth-table", f["f.tt"], "--order", "a,b"], "invalid order"),
    "sweep no range": (lambda f: ["sweep"], "exactly one of --p-range or --epsilon-range"),
    "sweep zero step": (
        lambda f: ["sweep", "--epsilon-range", "0.1:0.2:0"], "use START:STOP[:STEP]"),
    "build universal over budget": (
        lambda f: ["build", "universal", "--truth-table", f["n12.tt"], "-o", f["out"]],
        "program format budget exceeded: the text of 402657280 complex entries"),
    "sweep p-range over budget": (
        lambda f: ["sweep", "--p-range", "3:1e12"], "sweep budget exceeded"),
    "sweep epsilon-range over budget": (
        lambda f: ["sweep", "--epsilon-range", "1e20:1e21:1"], "sweep budget exceeded"),
    "sweep step that does not advance": (
        lambda f: ["sweep", "--epsilon-range", "1e20:100000000000000065536:1"],
        "step 1.0 does not advance"),
    "sweep non-finite range": (
        lambda f: ["sweep", "--p-range", "3:inf"], "the number of points is not finite"),
    "analyze nan theta": (
        lambda f: ["analyze", f["univ.json"], "--truth-table", f["f.tt"], "--epsilon", "0.5",
                   "--theta", "nan"], "theta must be positive, got nan"),
    "eval one-sided nan": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["mod3.tt"],
                   "--criterion", "one-sided:nan"], "reject_min must be in [0, 1], got nan"),
    "eval one-sided negative": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["mod3.tt"],
                   "--criterion", "one-sided:-3:-1"], "reject_min must be in [0, 1], got -3.0"),
    "eval one-sided nan tol": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["mod3.tt"],
                   "--criterion", "one-sided:0.5:nan"], "tol must be finite and >= 0, got nan"),
    "eval negative max-listed": (
        lambda f: ["eval", f["mod3.json"], "--exhaustive", "--truth-table", f["flipped.tt"],
                   "--criterion", "one-sided", "--max-listed", "-1"], "-1 is not in the range x>=0"),
}


@pytest.mark.parametrize("case", USAGE)
def test_usage_error_exits_2_without_traceback_or_record(files, case):
    args, message = USAGE[case]
    result = CliRunner().invoke(main, args(files))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output
    assert _records(result.stderr) == []


def test_widths_over_budget_exits_2(files, monkeypatch):
    # a table of 2^6 entries needs 6 bytes each
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", (6 << 6) - 1)
    result = CliRunner().invoke(main, ["widths", "--truth-table", files["mod3.tt"]])
    assert result.exit_code == 2, result.output
    assert "width oracle budget exceeded: a table of 2^6 entries needs 384 bytes" in result.output
    assert _records(result.stderr) == []


def test_program_load_over_budget_exits_2(files, monkeypatch):
    # parsing a program file is counted at 16 bytes per file byte
    need = os.path.getsize(files["univ.json"]) * 16
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", need - 1)
    result = CliRunner().invoke(main, ["realify", files["univ.json"], "-o", files["out"]])
    assert result.exit_code == 2, result.output
    assert f"program load budget exceeded: parsing a program file of {need // 16} bytes" in result.output
    assert _records(result.stderr) == []


def test_huge_variable_count_exits_2_before_allocating(tmp_path):
    # 2^4000000000 bits would be a 500 MB integer before any check ran
    path = tmp_path / "huge.tt"
    path.write_text("4000000000\n0\n")
    tracemalloc.start()
    try:
        result = CliRunner().invoke(main, ["widths", "--truth-table", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert f"{path}: line 2: expected 2^4000000000 bits, got 1" in result.output
    assert peak < 1 << 20
    assert _records(result.stderr) == []


def test_failed_exhaustive_eval_exits_1_with_record(files):
    result = CliRunner().invoke(
        main, ["eval", files["mod3.json"], "--exhaustive", "--truth-table", files["flipped.tt"],
               "--criterion", "one-sided"]
    )
    assert result.exit_code == 1
    assert "holds=False" in result.stdout
    (record,) = _records(result.stderr)
    assert set(record) == RECORD_KEYS
    assert record["metrics"]["holds"] is False
    assert record["metrics"]["counterexamples"] == 64


def test_failed_analyze_exits_1_with_record(files, monkeypatch):
    bits = load_truth_table(files["f.tt"]).bits
    monkeypatch.setattr(analysis.Obdd, "classify_all", lambda self: ~bits)
    result = CliRunner().invoke(
        main, ["analyze", files["univ.json"], "--truth-table", files["f.tt"], "--epsilon", "0.5",
               "--auto-theta"]
    )
    assert result.exit_code == 1
    assert "verified=false" in result.stderr
    (record,) = _records(result.stderr)
    assert set(record) == RECORD_KEYS
    assert record["metrics"]["verified"] is False


MOD_SWEEP_HEADER = [
    "p", "n", "t_sampled", "t_greedy", "width_sampled", "width_greedy",
    "min_reject_sampled", "min_reject_greedy", "min_obdd_width",
    "margin_epsilon", "theta2", "d_min_margin", "d_min_general", "error",
]


@pytest.mark.parametrize("case, header, rows", [
    ("widths", ["level", "width"], 7),
    ("sweep p-range", MOD_SWEEP_HEADER, 1),
    ("sweep epsilon-range", ["epsilon", "theta2_radicand", "theta2", "d_min_margin", "d_min_general"], 3),
    ("analyze", ["level", "reachable_count", "theta", "component_count", "bound_value"], 4),
])
def test_csv_headers(files, case, header, rows):
    result = CliRunner().invoke(main, SUCCESS[case][0](files))
    assert result.exit_code == 0, result.output
    got = list(csv.reader(io.StringIO(result.stdout)))
    assert got[0] == header
    assert len(got) == 1 + rows
