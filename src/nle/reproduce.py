"""Regression table: recompute every benchmark number and compare.

Each row names a quantity, its reference value, the stated tolerance, and
the freshly computed result. One row (the orth-pair right gap) is marked
``known-diff``: the plain controlled-shift transform provably yields exactly
zero for that family because the two members' post-gate marginal cross
terms cancel, so the reference value 0.0007 is not reachable; the row is
kept and reported rather than silently loosened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .dissect import as_product_set, classify
from .gates import apply_cnot
from .infobounds import chsh_max, holevo_chi, local_holevo
from .quantify import Mode, average_entropy_gap, nonlocal_entropy
from .states import entanglement_entropy

LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class Row:
    name: str
    expected: str
    got: str
    tolerance: str
    status: str  # PASS | FAIL | KNOWN-DIFF
    note: str = ""


def _row(name, expected, got, tol, known_diff=False, note=""):
    ok = abs(got - expected) <= tol
    status = "PASS" if ok else ("KNOWN-DIFF" if known_diff else "FAIL")
    return Row(name, f"{expected:.6f}", f"{got:.6f}", f"{tol:.1e}", status, note)


def _bool_row(name, ok, got_text, expected_text, known_diff=False, note=""):
    status = "PASS" if ok else ("KNOWN-DIFF" if known_diff else "FAIL")
    return Row(name, expected_text, got_text, "-", status, note)


def run_rows(seed: int = 0, upb_restarts: int = 16) -> list[Row]:
    rows: list[Row] = []
    fixed = Mode("fixed")
    assign = Mode("assign")

    r = nonlocal_entropy(catalog.build("e1-computational"), fixed)
    rows.append(_row("delta E1 fixed (sym)", 0.0, r.symmetric, 1e-12))

    r = nonlocal_entropy(catalog.build("e2-case2"), fixed)
    rows.append(_row("delta E2 fixed (right)", 0.0, r.right, 1e-9))
    rows.append(_row("delta E2 fixed (left)", 0.5, r.left, 1e-9))
    rows.append(_row("delta E2 fixed (sym)", 0.25, r.symmetric, 1e-9))

    r = nonlocal_entropy(catalog.build("case-3x2"), fixed)
    rows.append(_row("delta 3x2 fixed (right)", 1.0 / 3.0, r.right, 1e-9))

    r = nonlocal_entropy(catalog.build("nlwe-3x3"), fixed)
    rows.append(_row("delta NLWE fixed (right)", 4.0 / 9.0, r.right, 1e-9))
    rows.append(_row("delta NLWE fixed (left)", 4.0 / 9.0, r.left, 1e-9))

    tiles = catalog.build("tiles-upb")
    r = nonlocal_entropy(tiles, fixed)
    rows.append(_row("delta UPB fixed (sym)", 0.4, r.symmetric, 1e-9))
    r = nonlocal_entropy(
        tiles, Mode("per-state-lu", restarts=upb_restarts, seed=seed, rotate="target")
    )
    target = (2.0 + LOG2_3) / 5.0
    rows.append(
        _bool_row(
            "delta UPB per-state-lu target-rot >= (2+log2 3)/5 - 1e-3",
            r.symmetric >= target - 1e-3,
            f"{r.symmetric:.6f}",
            f">= {target - 1e-3:.6f}",
        )
    )

    for mode, tag in ((fixed, "fixed"), (assign, "assign")):
        r = average_entropy_gap(catalog.build("bell-pair"), mode)
        rows.append(_row(f"Delta bell-pair {tag} (right)", 1.0, r.right, 1e-9))
    r = average_entropy_gap(catalog.build("bell-triple"), assign)
    rows.append(_row("Delta bell-triple assign (right)", 0.081704, r.right, 5e-4))
    for mode, tag in ((fixed, "fixed"), (assign, "assign")):
        r = average_entropy_gap(catalog.build("bell-full"), mode)
        rows.append(_row(f"Delta bell-full {tag} (right)", 0.0, r.right, 1e-9))

    orth = catalog.build("orth-pair")
    r = average_entropy_gap(orth, fixed)
    rows.append(
        _row(
            "Delta orth-pair fixed (right)",
            0.0007,
            r.right,
            2e-4,
            known_diff=True,
            note="fixed transform yields exactly 0 here; cross terms cancel",
        )
    )
    rows.append(_row("Delta orth-pair fixed (left)", 0.0, r.left, 1e-6))

    for b in (0.1, 0.3, 0.5, 0.7):
        a = math.sqrt(1.0 - b * b)
        first3 = catalog.build("ghosh-nonmax", {"a": a, "b": b, "count": 3})
        expected = (
            2.0 - (2.0 - b * b) * math.log2(2.0 - b * b) - (1.0 + b * b) * math.log2(1.0 + b * b)
        ) / 3.0
        r = average_entropy_gap(first3, fixed)
        rows.append(_row(f"Delta ghosh first-three fixed b={b}", expected, r.right, 1e-9))
    full = catalog.build("ghosh-nonmax", {"a": 0.8, "b": 0.6})
    rows.append(_row("Delta ghosh full fixed", 0.0, average_entropy_gap(full, fixed).right, 1e-9))
    rows.append(
        _row("Delta ghosh pair assign", 1.0, average_entropy_gap(full.subset([0, 2]), assign).right, 1e-9)
    )

    r = average_entropy_gap(catalog.build("more-nl-mes"), assign)
    rows.append(_row("Delta mes-triple assign (right)", LOG2_3, r.right, 1e-9))
    r = average_entropy_gap(catalog.build("more-nl-mixed"), assign)
    rows.append(_row("Delta mixed-triple assign (right)", 1.43552, r.right, 1e-4))

    for d in (2, 3):
        blk = average_entropy_gap(catalog.build("canonical-mes", {"d": d, "block": 0}), fixed)
        rows.append(_row(f"Delta canonical d={d} one block fixed", math.log2(d), blk.right, 1e-9))
        alln = average_entropy_gap(catalog.build("canonical-mes", {"d": d}), fixed)
        rows.append(_row(f"Delta canonical d={d} all states fixed", 0.0, alln.right, 1e-9))
        mid = average_entropy_gap(catalog.build("canonical-mes", {"d": d, "count": d + 1}), fixed)
        rows.append(
            _bool_row(
                f"Delta canonical d={d} d+1 states strictly between",
                1e-9 < mid.right < math.log2(d) - 1e-9,
                f"{mid.right:.6f}",
                f"in (0, {math.log2(d):.6f})",
            )
        )

    expected_classes = {
        "e1-computational": "dissectible-either-side",
        "e2-case2": "dissectible-one-side(A)",
        "case-3x2": "dissectible-one-side(B)",
        "nlwe-3x3": "non-dissectible",
        "tiles-upb": "non-dissectible",
    }
    for name, want in expected_classes.items():
        got = classify(as_product_set(catalog.build(name)))
        rows.append(_bool_row(f"classification {name}", got == want, got, want))

    for name in ("nlwe-3x3", "tiles-upb"):
        r = nonlocal_entropy(catalog.build(name), fixed)
        rows.append(
            _bool_row(
                f"delta positive for non-dissectible {name}",
                r.symmetric > 1e-9,
                f"{r.symmetric:.6f}",
                "> 0",
            )
        )

    rows.append(_chsh_row())
    rows.append(_theorem1_row(seed))

    rows.append(_row("chi bell-full", 2.0, holevo_chi(catalog.build("bell-full")), 1e-9))
    rows.append(_row("local holevo bell-full", 1.0, local_holevo(catalog.build("bell-full")), 1e-9))
    rows.append(
        _row("local holevo NLWE", 2.0 * LOG2_3, local_holevo(catalog.build("nlwe-3x3")), 1e-9)
    )
    return rows


def _chsh_row() -> Row:
    e = catalog.build("e2-case2")
    ok = True
    for control in ("A", "B"):
        for s in e.states:
            out = apply_cnot(s, control, 1)
            ent = entanglement_entropy(out)
            value = chsh_max(out)
            if ent > 1e-9:
                ok = ok and abs(value - 2.0 * math.sqrt(2.0)) <= 1e-9
            else:
                ok = ok and value == 2.0
    return _bool_row(
        "CHSH link on E2 shift outputs", ok, "all outputs consistent", "entangled -> 2*sqrt(2)"
    )


def _theorem1_row(seed: int) -> Row:
    """Left-direction value positive iff the family is irreducible from B."""
    from .dissect import reducible_from
    from .states import Ensemble

    rng = np.random.default_rng(seed + 1_234_567)
    holds = 0
    draws = 200
    for _ in range(draws):
        etas = [catalog.random_eta(rng) for _ in range(2)]
        states = catalog.walgate_hardy_states(*etas)
        e = Ensemble.uniform((2, 2), states)
        report = nonlocal_entropy(e, Mode("fixed"))
        pset = as_product_set(e)
        irreducible_b = reducible_from(pset, "B") is None
        if (report.left > 1e-9) == irreducible_b and report.right <= 1e-12:
            holds += 1
    return _bool_row(
        "theorem-1 iff over 200 random bases", holds == draws, f"{holds}/{draws}", "200/200"
    )


def render(rows: list[Row]) -> str:
    width = max(len(r.name) for r in rows) + 2
    w_exp = max(8, max(len(r.expected) for r in rows)) + 2
    w_got = max(6, max(len(r.got) for r in rows)) + 2
    lines = [f"{'row':<{width}}{'expected':>{w_exp}}{'got':>{w_got}}{'tol':>10}  status"]
    for r in rows:
        note = f"  ({r.note})" if r.note else ""
        lines.append(
            f"{r.name:<{width}}{r.expected:>{w_exp}}{r.got:>{w_got}}{r.tolerance:>10}  {r.status}{note}"
        )
    n_pass = sum(r.status == "PASS" for r in rows)
    n_fail = sum(r.status == "FAIL" for r in rows)
    n_diff = sum(r.status == "KNOWN-DIFF" for r in rows)
    lines.append(f"passed: {n_pass}  failed: {n_fail}  known-diff: {n_diff}")
    return "\n".join(lines)
