import csv
import dataclasses
import gc
import io
import json
import math

import pytest
from click.testing import CliRunner

from qbp import analysis, constructions, program
from qbp.cli import ExperimentRecord, _parse_criterion, main, save_truth_table
from qbp.program import OneSided, load_program, program_digest


@pytest.mark.filterwarnings("ignore:modulus 5 exceeds n/2")
def test_analyze_margin_failure_message_has_plain_float(tmp_path):
    # the one-sided MOD_5 program rejects with probability at most 7/8, so a
    # margin of 0.45 fails: a usage error, reported with a plain float
    prog, table = tmp_path / "mod5.json", tmp_path / "mod5.tt"
    runner = CliRunner()
    built = runner.invoke(main, ["build", "mod", "--p", "5", "--n", "8", "-o", str(prog)])
    assert built.exit_code == 0, built.output
    table.write_text("8\n" + "".join("1" if bin(v).count("1") % 5 == 0 else "0"
                                     for v in range(256)))
    result = runner.invoke(
        main, ["analyze", str(prog), "--truth-table", str(table), "--epsilon", "0.45", "--auto-theta"]
    )
    assert result.exit_code == 2
    assert "does not compute the table with margin 0.45" in result.output
    assert "np.float64" not in result.output


def _strict_json(line: str) -> dict:
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


def test_record_is_strict_json_with_non_finite_metrics(capsys):
    ExperimentRecord(
        command="analyze",
        program_digest="0123456789abcdef",
        metrics={"bound": math.inf, "low": -math.inf, "gap": math.nan, "theta": 0.5},
    ).emit()
    record = _strict_json(capsys.readouterr().err)
    assert record["metrics"] == {"bound": "inf", "low": "-inf", "gap": "nan", "theta": 0.5}
    assert record["program"] == "0123456789abcdef"


def _records(stderr: str) -> list[dict]:
    return [_strict_json(line) for line in stderr.splitlines() if line.startswith("{")]


def _summary_digest(stdout: str) -> str:
    (line,) = [ln for ln in stdout.splitlines() if ln.startswith("width=")]
    return line.rsplit("digest=", 1)[1]


def test_cli_roundtrip_digests_agree(tmp_path, monkeypatch):
    table, univ, real = tmp_path / "f.tt", tmp_path / "univ.json", tmp_path / "real.json"
    table.write_text("3\n01101001\n")
    runner = CliRunner()

    calls = []
    enumerate_levels = analysis.reachable_configurations

    def counting(p):
        calls.append(p.width)
        return enumerate_levels(p)

    monkeypatch.setattr(analysis, "reachable_configurations", counting)

    for args, path in (
        (["build", "universal", "--truth-table", str(table), "-o", str(univ)], univ),
        (["realify", str(univ), "-o", str(real)], real),
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        (record,) = _records(result.stderr)
        digest = program_digest(load_program(path))
        assert _summary_digest(result.stdout) == record["program"] == digest

    result = runner.invoke(
        main, ["analyze", str(real), "--truth-table", str(table), "--auto-theta", "--epsilon", "0.5"]
    )
    assert result.exit_code == 0, result.output
    (record,) = _records(result.stderr)
    assert record["program"] == program_digest(load_program(real))
    assert record["metrics"]["verified"] is True
    # derive_deterministic_obdd enumerates once; --auto-theta and the CSV reuse it
    assert calls == [16]
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["level", "reachable_count", "theta", "component_count", "bound_value"]
    levels = enumerate_levels(load_program(real))
    assert [int(r[1]) for r in rows[1:]] == [len(lv.configs) for lv in levels]

    result = runner.invoke(
        main, ["eval", str(real), "--exhaustive", "--truth-table", str(table)]
    )
    assert result.exit_code == 0, result.output
    assert "holds=True" in result.stdout
    (record,) = _records(result.stderr)
    assert record["program"] == program_digest(load_program(real))


def _read_twice_bp(path, n: int, p: int) -> None:
    # a MOD_p counter reading x_1..x_n, then x_n..x_1: 2c % p == 0 iff c % p == 0
    order = list(range(1, n + 1)) + list(range(n, 0, -1))
    path.write_text(json.dumps({
        "width": p, "start": 1, "accepting": [1],
        "levels": [{"var": v, "perm0": list(range(1, p + 1)),
                    "perm1": [s % p + 1 for s in range(1, p + 1)]} for v in order],
    }))


def test_cli_eval_read_twice_exit_codes(tmp_path):
    bp, prog = tmp_path / "twice.bp.json", tmp_path / "twice.json"
    table, flipped = tmp_path / "mod3.tt", tmp_path / "flipped.tt"
    _read_twice_bp(bp, 6, 3)
    bits = "".join("1" if bin(v).count("1") % 3 == 0 else "0" for v in range(64))
    table.write_text(f"6\n{bits}\n")
    flipped.write_text("6\n" + ("0" if bits[0] == "1" else "1") + bits[1:] + "\n")
    runner = CliRunner()
    built = runner.invoke(main, ["build", "perm", "--bp", str(bp), "-o", str(prog)])
    assert built.exit_code == 0, built.output
    assert "read_once=False" in built.stdout

    ok = runner.invoke(main, ["eval", str(prog), "--exhaustive", "--truth-table", str(table)])
    assert ok.exit_code == 0, ok.output
    assert "holds=True" in ok.stdout and "checked=64" in ok.stdout

    bad = runner.invoke(main, ["eval", str(prog), "--exhaustive", "--truth-table", str(flipped)])
    assert bad.exit_code == 1
    assert "holds=False" in bad.stdout
    assert "counterexamples=1\n  000000\n" in bad.stdout

    usage = runner.invoke(main, ["eval", str(prog), "--exhaustive"])
    assert usage.exit_code == 2
    assert "--exhaustive requires --truth-table" in usage.output


@pytest.mark.filterwarnings("ignore:modulus 7 exceeds n/2")
def test_cli_eval_input_prints_exact_probability(tmp_path):
    prog = tmp_path / "mod7.json"
    runner = CliRunner()
    built = runner.invoke(main, ["build", "mod", "--p", "7", "--n", "10", "--strategy", "sampled",
                                 "--seed", "3", "-o", str(prog)])
    assert built.exit_code == 0, built.output
    for bits, want in (("1110000000", "0.39110155409884728"), ("1011011000", "0.45195980527599344")):
        result = runner.invoke(main, ["eval", str(prog), "--input", bits])
        assert result.exit_code == 0, result.output
        assert result.stdout == want + "\n"


# `qbp sweep --p-range 3:23 --n 12` (seed 0) as evaluated one input at a time
SWEEP_3_23_N12 = """\
p,n,t_sampled,t_greedy,width_sampled,width_greedy,min_reject_sampled,min_reject_greedy,min_obdd_width,margin_epsilon,theta2,d_min_margin,d_min_general,error
3,12,18,1,36,2,0.74999999999999978,0.74999999999999967,3,0.24999999999999967,0,,1,
5,12,26,2,52,4,0.60349934637019409,0.62499999999999967,5,0.12499999999999967,0,,1,
7,12,32,2,64,4,0.57185986143902445,0.39975778302439491,7,,,,,
11,12,39,2,78,4,0.49458020535128289,0.32526532636052508,4,,,,,
13,12,42,3,84,6,0.48493330824421388,0.31684735244302753,2,,,,,
17,12,46,3,92,6,0.46476867950819201,0.31590873414853116,2,,,,,
19,12,48,3,96,6,0.45637988344488112,0.26496899094154491,2,,,,,
23,12,51,3,102,6,0.46544952460461653,0.23712866379970321,2,,,,,
"""


@pytest.mark.filterwarnings("ignore:modulus")
def test_cli_sweep_rows_match_per_input_evaluation():
    result = CliRunner().invoke(main, ["sweep", "--p-range", "3:23", "--n", "12"])
    assert result.exit_code == 0, result.output
    got = list(csv.reader(io.StringIO(result.stdout)))
    want = list(csv.reader(io.StringIO(SWEEP_3_23_N12)))
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        for name, cell, expected in zip(want[0], row, ref):
            if "." in expected:  # a probability or a margin: block products may round differently
                assert abs(float(cell) - float(expected)) <= 1e-15, (name, cell, expected)
            else:
                assert cell == expected, (name, cell, expected)


@pytest.mark.parametrize("text, want", [
    ("one-sided", OneSided()),
    ("one-sided:0.2", OneSided(reject_min=0.2)),
    ("one-sided:0.2:1e-6", OneSided(reject_min=0.2, tol=1e-6)),
])
def test_parse_one_sided_criterion_keeps_dataclass_defaults(text, want):
    assert _parse_criterion(text) == want


def test_eval_rejects_malformed_one_sided_criterion(tmp_path):
    prog, table = tmp_path / "mod3.json", tmp_path / "mod3.tt"
    table.write_text("6\n" + "".join("1" if bin(v).count("1") % 3 == 0 else "0" for v in range(64)))
    runner = CliRunner()
    built = runner.invoke(main, ["build", "mod", "--p", "3", "--n", "6", "-o", str(prog)])
    assert built.exit_code == 0, built.output
    args = ["eval", str(prog), "--exhaustive", "--truth-table", str(table), "--criterion"]
    assert runner.invoke(main, [*args, "one-sided"]).exit_code == 0
    result = runner.invoke(main, [*args, "one-sided:x"])
    assert result.exit_code == 2
    assert "invalid criterion 'one-sided:x'" in result.output


def _universal_files(tmp_path):
    table, univ = tmp_path / "f.tt", tmp_path / "univ.json"
    table.write_text("3\n01101001\n")
    built = CliRunner().invoke(main, ["build", "universal", "--truth-table", str(table), "-o", str(univ)])
    assert built.exit_code == 0, built.output
    return univ, table


def test_analyze_builds_the_leaf_block_once(tmp_path, monkeypatch):
    # analyze enumerates the reachable levels once and checks the program on
    # them: no per-input probabilities from evaluate_all, one split walk for
    # the derivation's verdicts and one for the derived OBDD's classify_all
    univ, table = _universal_files(tmp_path)
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(program, "evaluate_all", counting("evaluate_all", program.evaluate_all))
    monkeypatch.setattr(analysis, "reachable_configurations",
                        counting("reachable_configurations", analysis.reachable_configurations))
    walk = counting("_split_walk", program._split_walk)
    for module in (program, analysis):  # the verdicts' walk and classify_all's
        monkeypatch.setattr(module, "_split_walk", walk)
    result = CliRunner().invoke(
        main, ["analyze", str(univ), "--truth-table", str(table), "--epsilon", "0.5", "--auto-theta"]
    )
    assert result.exit_code == 0, result.output
    assert calls == ["reachable_configurations", "_split_walk", "_split_walk"]


def _mod_files(tmp_path):
    table, flipped, prog = tmp_path / "mod5.tt", tmp_path / "flipped.tt", tmp_path / "mod5.json"
    bits = "".join("1" if bin(v).count("1") % 5 == 0 else "0" for v in range(1 << 12))
    table.write_text(f"12\n{bits}\n")
    flipped.write_text("12\n" + "".join("10"[int(b)] if v % 700 == 3 else b for v, b in enumerate(bits)) + "\n")
    built = CliRunner().invoke(main, ["build", "mod", "--p", "5", "--n", "12", "-o", str(prog)])
    assert built.exit_code == 0, built.output
    return prog, table, flipped


@pytest.mark.parametrize("kind, calls", [("counted", 0), ("universal", 1)])
def test_exhaustive_eval_of_a_counted_program_makes_no_evaluate_all_call(tmp_path, monkeypatch, kind, calls):
    # a counted program is checked from its count form; any other program
    # through evaluate_all, once
    prog, table = _mod_files(tmp_path)[:2] if kind == "counted" else _universal_files(tmp_path)
    assert program._counted(load_program(prog)) == (kind == "counted")
    real, made = program.evaluate_all, []
    monkeypatch.setattr(program, "evaluate_all", lambda p: made.append(p) or real(p))
    result = CliRunner().invoke(main, ["eval", str(prog), "--exhaustive", "--truth-table", str(table),
                                       "--criterion", "one-sided"])
    assert result.exit_code == 0, result.output
    assert len(made) == calls


@pytest.mark.parametrize("criterion", ["one-sided", "margin:0.05", "margin:0"])
def test_exhaustive_eval_prints_what_the_walk_gives(tmp_path, monkeypatch, criterion):
    # stdout of the counted check is byte for byte that of the check over
    # the walk's probabilities, for a table that holds and one with six
    # flipped bits (under a margin the MOD_5 program fails more inputs)
    prog, table, flipped = _mod_files(tmp_path)
    args = ["eval", str(prog), "--exhaustive", "--criterion", criterion, "--max-listed", "100", "--truth-table"]
    counted = [CliRunner().invoke(main, [*args, str(t)]) for t in (table, flipped)]
    monkeypatch.setattr(program, "_counted", lambda p: False)
    monkeypatch.setattr(program, "_one_hot", lambda p: None)
    walked = [CliRunner().invoke(main, [*args, str(t)]) for t in (table, flipped)]
    assert [r.exit_code for r in counted] == [r.exit_code for r in walked]
    assert [r.stdout for r in counted] == [r.stdout for r in walked]
    assert counted[1].exit_code == 1 and "counterexamples=0\n" not in counted[1].stdout
    if criterion == "one-sided":
        assert counted[0].exit_code == 0 and "counterexamples=6\n" in counted[1].stdout


def test_analyze_exits_1_when_the_derived_obdd_disagrees(tmp_path, monkeypatch):
    univ, table = _universal_files(tmp_path)
    real = analysis.Obdd.classify_all

    def flipped(self):
        out = real(self).copy()
        out[5] = not out[5]
        return out

    monkeypatch.setattr(analysis.Obdd, "classify_all", flipped)
    result = CliRunner().invoke(
        main, ["analyze", str(univ), "--truth-table", str(table), "--epsilon", "0.5", "--auto-theta"]
    )
    assert result.exit_code == 1
    assert "verified=false" in result.stderr
    (record,) = _records(result.stderr)
    assert record["metrics"]["verified"] is False


def test_analyze_exits_1_when_the_width_chain_breaks(tmp_path, monkeypatch):
    # parity of 3 variables: the universal program's components per level are
    # 1, 2, 4, 8; a minimal OBDD wider than 4 at level 2 breaks the chain
    univ, table = _universal_files(tmp_path)
    real = analysis.min_obdd_width

    def wider(f, order=None):
        minimal = real(f, order)
        widths = list(minimal.level_widths)
        widths[2] = 9
        return dataclasses.replace(minimal, level_widths=tuple(widths))

    monkeypatch.setattr(analysis, "min_obdd_width", wider)
    result = CliRunner().invoke(
        main, ["analyze", str(univ), "--truth-table", str(table), "--epsilon", "0.5", "--auto-theta"]
    )
    assert result.exit_code == 1
    assert "chain broken at level 2: minimal width 9, components 4, bound " in result.stderr
    assert "verified=false" in result.stderr
    (record,) = _records(result.stderr)
    assert record["metrics"]["verified"] is False


@pytest.mark.parametrize("theta_args, message", [
    (["--theta", "0.5", "--auto-theta"], "exactly one of --theta or --auto-theta"),
    ([], "exactly one of --theta or --auto-theta"),
    (["--theta", "5.0"], "exceeds the measured accept/reject separation"),
])
def test_analyze_theta_usage_errors_exit_2(tmp_path, theta_args, message):
    univ, table = _universal_files(tmp_path)
    result = CliRunner().invoke(
        main, ["analyze", str(univ), "--truth-table", str(table), "--epsilon", "0.5", *theta_args]
    )
    assert result.exit_code == 2
    assert message in result.output


def test_in_process_commands_leave_nothing_behind(tmp_path):
    # each CliRunner run captures stdout and stderr in new text streams; click
    # caches the stream its default echo writes to as the value of its own
    # weak key, which kept every run's streams alive (50 more after 50 runs,
    # about 1.6 KB a run traced)
    save_truth_table(constructions.mod_truth_table(3, 6), tmp_path / "mod3.tt")
    runner, args = CliRunner(), ["widths", "--truth-table", str(tmp_path / "mod3.tt")]

    def live_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    assert runner.invoke(main, args).exit_code == 0
    before = live_streams()
    for _ in range(50):
        assert runner.invoke(main, args).exit_code == 0
    assert live_streams() == before
