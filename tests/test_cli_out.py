"""An --out file that cannot be written is unusable input: exit 2, one
``error:`` line, no traceback."""

from click.testing import CliRunner

from sheafgauge.cli import main


def test_out_into_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "r.txt"
    result = CliRunner().invoke(main, ["demo", "so2", "--out", str(target)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines() == [
        f"error: cannot write {target}: No such file or directory"]
    assert "Traceback" not in result.stderr + result.stdout
    assert not target.parent.exists()


def test_out_to_a_writable_path_still_writes(tmp_path):
    target = tmp_path / "r.txt"
    result = CliRunner().invoke(main, ["demo", "so2", "--out", str(target)])
    assert result.exit_code == 0
    assert target.read_text().startswith("cocycle.unit.residual = ")
