import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from qbp import analysis
from qbp.cli import ExperimentRecord, main
from qbp.program import load_program, program_digest


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
    # measured_separation and derive_deterministic_obdd enumerate; the CSV reuses it
    assert calls == [16, 16]
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
