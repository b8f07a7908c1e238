import pytest
from click.testing import CliRunner

from qbp.cli import main


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
