"""``tools/output_digest.py --check``: the lines that differ from a saved
file, on scripted lines in place of the outputs it digests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digest  # noqa: E402

LINES = ["# environment {}", "aa benchmark seed=1 ring/report.csv", "bb train_des seed=1 mask"]


@pytest.fixture
def scripted(monkeypatch):
    monkeypatch.setattr(output_digest, "output_lines", lambda seeds: iter(LINES))


def test_without_check_prints_every_line(scripted, capsys):
    assert output_digest.main([]) == 0
    assert capsys.readouterr().out.splitlines() == LINES


def test_equal_file_prints_nothing(scripted, capsys, tmp_path):
    saved = tmp_path / "digests.txt"
    saved.write_text("\n".join(LINES + ["cc train_des seed=2 mask"]) + "\n")
    assert output_digest.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == ""


def test_changed_and_missing_lines_are_printed(scripted, capsys, tmp_path):
    saved = tmp_path / "digests.txt"
    saved.write_text("# environment {}\nab benchmark seed=1 ring/report.csv\n")
    assert output_digest.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == LINES[1:]
