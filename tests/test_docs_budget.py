"""The prose stays inside its budget: a ceiling a docs diet can only lower.

DESIGN.md may not grow past the length it had when the ceiling was set,
and every CHANGES.md entry numbered 31 or later is one line of at most
1 500 characters.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: DESIGN.md's length when the ceiling was set; a docs diet lowers it.
DESIGN_MAX_LINES = 1262
CHANGES_ENTRY_MAX_CHARS = 1500
#: The first CHANGES.md entry number the budget holds.
CHANGES_FIRST_BUDGETED = 31

_ENTRY = re.compile(r"^[-*\s]*PR (\d+)\b")


def test_design_stays_under_its_line_ceiling():
    lines = (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= DESIGN_MAX_LINES


def test_every_recent_changes_entry_fits_its_budget():
    entries = [
        (int(match.group(1)), len(line))
        for line in (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
        if (match := _ENTRY.match(line.replace("**", "")))
    ]
    budgeted = [(pr, size) for pr, size in entries if pr >= CHANGES_FIRST_BUDGETED]
    assert budgeted  # the pattern still finds the entries it holds
    assert [(pr, size) for pr, size in budgeted if size > CHANGES_ENTRY_MAX_CHARS] == []
