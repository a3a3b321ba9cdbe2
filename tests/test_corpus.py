"""The scenario corpus: each file's report matches the status table in
its header.

Each ``tests/scenarios/*.scn`` file carries, in its header comment, the
status of every report key of suite ``all`` as the library gives it
today, one ``#   key = status`` line each after ``# expected:``.  A file
whose table records a known wrong verdict says so in a ``# false green``
or ``# false red`` line naming the ROADMAP item that should change it.
A change that mends one edits that file's table, as a stated change.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from sheafgauge import load_scenario, run_checks

CORPUS = sorted((Path(__file__).resolve().parent / "scenarios").glob("*.scn"))
_ROW = re.compile(r"#\s+(\S+) = (\S+)")


def expected_table(text: str) -> dict:
    """The ``key = status`` lines right after ``# expected:``, in order."""
    table = {}
    for line in text.split("# expected:\n", 1)[1].splitlines():
        m = _ROW.fullmatch(line)
        if m is None:
            break
        table[m.group(1)] = m.group(2)
    return table


def test_the_corpus_is_there():
    assert {p.stem for p in CORPUS} >= {"torus2", "gl1pos", "powers"}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_report_shows_the_expected_table(path):
    expected = expected_table(path.read_text(encoding="utf-8"))
    report = run_checks(load_scenario(path))
    assert [r.name for r in report.results()] == list(expected)
    assert {r.name: r.status for r in report.results()} == expected
    good = sum(1 for s in expected.values() if s == "pass")
    n = len(expected)
    assert report.table().splitlines()[-1] == f"{n} checks, {good} passed, {n - good} failed"
