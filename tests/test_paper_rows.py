"""The paper rows: every check holds, and the committed PAPER_ROWS.md is
what the model generates.

Each section is one test, so a failure names the figure it is in.  No
section takes above 5 s, so none is marked ``slow``.
"""

from pathlib import Path

import pytest

from repro.analysis import paper_rows
from repro.analysis.paper_rows import SECTIONS, Row

COMMITTED = Path(__file__).resolve().parents[1] / "PAPER_ROWS.md"


@pytest.mark.parametrize("section", list(SECTIONS))
def test_section_holds_and_is_committed(section):
    rows = list(SECTIONS[section]())
    failed = [row.line() for row in rows if not row.ok]
    assert not failed, "checks fail:\n" + "\n".join(failed)
    block = "".join(row.line() + "\n" for row in rows)
    assert block in COMMITTED.read_text(encoding="utf-8"), (
        f"PAPER_ROWS.md is stale in {section}: run `python -m repro.analysis.paper_rows`"
    )


def test_committed_rows_are_named_once():
    lines = COMMITTED.read_text(encoding="utf-8").splitlines()
    names = [tuple(line.split(" | ")[:2]) for line in lines if line.startswith("| ")]
    assert len(names) > 200 and len(names) == len(set(names))


def test_main_writes_every_row_and_names_the_failures(tmp_path, monkeypatch, capsys):
    def section():
        yield Row("Fig. 0", "holds", "1", "1", "= 1", True)
        yield Row("Fig. 0", "moved", "1", "2", "= 1", False)

    monkeypatch.setattr(paper_rows, "SECTIONS", {"fig0": section})
    monkeypatch.chdir(tmp_path)
    assert paper_rows.main() == 1
    written = (tmp_path / "PAPER_ROWS.md").read_text(encoding="utf-8")
    assert written.endswith(
        "| Fig. 0 | holds | 1 | 1 | = 1 |\n| Fig. 0 | moved | 1 | 2 | = 1 **FAILS** |\n"
    )
    err = capsys.readouterr().err
    assert "Fig. 0 moved" in err and "holds" not in err
