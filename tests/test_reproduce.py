"""The regression table: its declarations, its statuses and its rendering.

Every entry of the real table runs in ``tests/test_acceptance.py``.
"""

import subprocess
import sys

from nle import reproduce
from nle.reproduce import Check


def test_table_declarations():
    names = [c.name for c in reproduce.CHECKS]
    assert len(names) == len(set(names))
    assert len(names) >= 30
    assert [c.name for c in reproduce.CHECKS if c.known_diff] == ["Delta orth-pair fixed (right)"]


def test_statuses_of_a_fake_table():
    rows = reproduce.run_rows(
        [
            Check("pass", lambda: 0.5, 0.5, 1e-9),
            Check("fail", lambda: "blocked", "full"),
            Check("diff", lambda: 0.1, "> 1", (1.0, float("inf")), known_diff="why"),
        ]
    )
    assert [(r.name, r.expected, r.got, r.tolerance, r.status, r.note) for r in rows] == [
        ("pass", "0.500000", "0.500000", "1.0e-09", "PASS", ""),
        ("fail", "full", "blocked", "-", "FAIL", ""),
        ("diff", "> 1", "0.100000", "-", "KNOWN-DIFF", "why"),
    ]


def test_import_computes_nothing():
    # `nle.cli` imports the table; building it must not run a report
    code = (
        "import nle.cli\n"
        "from nle import reproduce as r\n"
        "assert all(f.cache_info().currsize == 0 for f in (r._d, r._g, r._chsh_e2, r._theorem1))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_render_contains_summary():
    rows = [
        reproduce.Row("a", "1", "1", "-", "PASS"),
        reproduce.Row("b", "2", "3", "-", "FAIL"),
    ]
    text = reproduce.render(rows)
    assert "passed: 1" in text
    assert "failed: 1" in text
