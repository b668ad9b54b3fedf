"""Regression table: every benchmark number, its tolerance and its known-diff note.

``CHECKS`` is the one place a paper value is written. Each ``Check`` names
a quantity, computes it with no arguments and states what it must match: a
float ``expected`` within ``abs`` tolerance ``tol``, a text ``expected``
equal to the computed text, or, where ``tol`` is a ``(lo, hi)`` pair, a
value strictly inside that range (``expected`` then only describes it).
``run_rows`` evaluates the table for ``nle reproduce``; the tests
parametrize over the same tuple.

One row (the orth-pair right gap) is marked known-diff: the plain
controlled-shift transform provably yields exactly zero for that family
because the two members' post-gate marginal cross terms cancel, so the
quoted reference value is not reachable; the row is kept and reported
rather than silently loosened.

Reports are memoized by (catalog entry, parameters, mode), so a process,
such as one ``nle reproduce`` or one test session, runs each search once.
Nothing is computed at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import catalog
from .dissect import as_product_set, classify, dissect, reducible_from
from .gates import apply_cnot
from .infobounds import holevo_chi, local_holevo
from .linalg import PARTIES
from .qubits import chsh_max
from .quantify import Mode, QuantifierReport, average_entropy_gap, nonlocal_entropy
from .states import Ensemble, entanglement_entropy

LOG2_3 = math.log2(3.0)
FIXED, ASSIGN = Mode("fixed"), Mode("assign")


@dataclass(frozen=True)
class Row:
    name: str
    expected: str
    got: str
    tolerance: str
    status: str  # PASS | FAIL | KNOWN-DIFF
    note: str = ""


class Check(NamedTuple):
    """One table entry; ``known_diff`` notes a row kept red by design. A named tuple,
    not a dataclass: ``nle.cli`` imports the table, and a tuple class builds faster."""

    name: str
    compute: Callable[[], float | str]
    expected: float | str
    tol: float | tuple[float, float] = 0.0
    known_diff: str = ""

    def row(self) -> Row:
        got = self.compute()
        tol = "-"
        if isinstance(self.tol, tuple):
            ok = self.tol[0] < got < self.tol[1]
        elif isinstance(self.expected, str):
            ok = got == self.expected
        else:
            ok, tol = abs(got - self.expected) <= self.tol, f"{self.tol:.1e}"
        status = "PASS" if ok else ("KNOWN-DIFF" if self.known_diff else "FAIL")
        expected = self.expected if isinstance(self.expected, str) else f"{self.expected:.6f}"
        got = f"{got:.6f}" if isinstance(got, float) else str(got)
        return Row(self.name, expected, got, tol, status, self.known_diff)


def run_rows(checks: tuple[Check, ...] | list[Check] | None = None) -> list[Row]:
    """Evaluate ``checks`` (the whole ``CHECKS`` table by default)."""
    return [c.row() for c in (CHECKS if checks is None else checks)]


# the table's reports, memoized: one search per (entry, mode, params, subset) per process
@cache
def _d(name: str, mode: Mode = FIXED) -> QuantifierReport:
    return nonlocal_entropy(catalog.build(name), mode)


@cache
def _g(name: str, mode: Mode = FIXED, params: tuple = (), subset: tuple = ()) -> QuantifierReport:
    e = catalog.build(name, dict(params))
    return average_entropy_gap(e.subset(list(subset)) if subset else e, mode)


def _ghosh_three(b: float) -> tuple[tuple, float]:
    """Catalog parameters of the first three ghosh-nonmax states and their fixed gap."""
    c = b * b
    value = (2.0 - (2.0 - c) * math.log2(2.0 - c) - (1.0 + c) * math.log2(1.0 + c)) / 3.0
    return (("a", math.sqrt(1.0 - c)), ("b", b), ("count", 3)), value


@cache
def _chsh_e2() -> tuple[bool, int]:
    """Whether each shift output of E2 has CHSH maximum 2*sqrt(2) if entangled
    and 2 if not, and how many outputs are entangled."""
    consistent, entangled = True, 0
    for control in PARTIES:
        for s in catalog.build("e2-case2").states:
            out = apply_cnot(s, control, 1)
            value = chsh_max(out)
            if entanglement_entropy(out) > 1e-9:
                consistent = consistent and abs(value - 2.0 * math.sqrt(2.0)) <= 1e-9
                entangled += 1
            else:
                consistent = consistent and value == 2.0
    return consistent, entangled


def walgate_hardy_draws(seed: int, draws: int):
    """Seeded random Walgate-Hardy bases, one ``(fixed report, irreducible
    from B)`` pair each; each basis takes two ``catalog.random_eta`` draws."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        etas = [catalog.random_eta(rng) for _ in range(2)]
        e = Ensemble.uniform((2, 2), catalog.walgate_hardy_states(*etas))
        yield nonlocal_entropy(e, FIXED), reducible_from(as_product_set(e), "B") is None


@cache
def _theorem1(seed: int) -> tuple[int, int]:
    """Over 200 random Walgate-Hardy bases: the draws where the left value is
    positive iff the set is irreducible from B and the right value vanishes,
    and the draws reducible from B."""
    holds = reducible = 0
    for report, irreducible_b in walgate_hardy_draws(seed, 200):
        holds += (report.left > 1e-9) == irreducible_b and report.right <= 1e-12
        reducible += not irreducible_b
    return holds, reducible


_SIDES = (("sym", "symmetric"), ("right", "right"), ("left", "left"))
_UPB_LU = Mode("per-state-lu", restarts=16, seed=0, rotate="target")
_NLWE_LU = Mode("ensemble-lu", restarts=1, rotate="target")  # the fixed circuit meets its ceiling
_UPB_FLOOR = (2.0 + LOG2_3) / 5.0 - 1e-3
_H_THIRD = 1.0 - (LOG2_3 - 2.0 / 3.0)  # 1 - H(1/3)
_BELL_TRIPLE_QUOTED = 0.081704
_GHOSH = (("a", 0.8), ("b", 0.6))
_EXACT = (("", 1e-9), (" exact", 1e-12))  # the first tabulated tolerance, then rounding level
_LABELS = (
    ("e1-computational", "dissectible-either-side"),
    ("e2-case2", "dissectible-one-side(A)"),
    ("case-3x2", "dissectible-one-side(B)"),
    ("nlwe-3x3", "non-dissectible"),
    ("tiles-upb", "non-dissectible"),
)

CHECKS: tuple[Check, ...] = (
    *(Check(f"delta E1 fixed ({s})", lambda a=a: getattr(_d("e1-computational"), a), 0.0, 1e-12)
      for s, a in _SIDES),
    Check("delta E2 fixed (right)", lambda: _d("e2-case2").right, 0.0, 1e-9),
    Check("delta E2 fixed (left)", lambda: _d("e2-case2").left, 0.5, 1e-9),
    Check("delta E2 fixed (sym)", lambda: _d("e2-case2").symmetric, 0.25, 1e-9),
    Check("delta 3x2 fixed (right)", lambda: _d("case-3x2").right, 1.0 / 3.0, 1e-9),
    *(Check(f"delta NLWE fixed ({s})", lambda a=a: getattr(_d("nlwe-3x3"), a), 4.0 / 9.0, 1e-9)
      for s, a in _SIDES[1:]),
    *(Check(f"delta NLWE ensemble-lu target-rot ({s}) exact",
            lambda a=a: getattr(_d("nlwe-3x3", _NLWE_LU), a), 4.0 / 9.0, 1e-12) for s, a in _SIDES[1:]),
    *(Check(f"delta UPB fixed ({s})", lambda a=a: getattr(_d("tiles-upb"), a), 0.4, 1e-9)
      for s, a in _SIDES),
    Check("delta UPB per-state-lu target-rot >= (2+log2 3)/5 - 1e-3",
          lambda: _d("tiles-upb", _UPB_LU).symmetric,
          f">= {_UPB_FLOOR:.6f}", (math.nextafter(_UPB_FLOOR, -math.inf), math.inf)),
    Check("delta UPB per-state-lu target-rot exact",
          lambda: _d("tiles-upb", _UPB_LU).symmetric, (2.0 + LOG2_3) / 5.0, 1e-12),
    *(Check(f"Delta bell-pair {m.name} (right)", lambda m=m: _g("bell-pair", m).right, 1.0, 1e-9)
      for m in (FIXED, ASSIGN)),
    Check("Delta bell-triple assign (right)",
          lambda: _g("bell-triple", ASSIGN).right, _BELL_TRIPLE_QUOTED, 5e-4),
    Check("Delta bell-triple 1 - H(1/3) vs the quoted value",
          lambda: _H_THIRD, _BELL_TRIPLE_QUOTED, 5e-7),
    *(Check(f"Delta bell-triple {m.name} (right) = 1 - H(1/3)",
            lambda m=m: _g("bell-triple", m).right, _H_THIRD, 1e-9) for m in (FIXED, ASSIGN)),
    *(Check(f"Delta bell-full {m.name} (right){x}", lambda m=m: _g("bell-full", m).right, 0.0, tol)
      for x, tol in _EXACT for m in (FIXED, ASSIGN)),
    Check("Delta orth-pair fixed (right)", lambda: _g("orth-pair").right, 0.0007, 2e-4,
          known_diff="fixed transform yields exactly 0 here; cross terms cancel"),
    Check("Delta orth-pair fixed (left)", lambda: _g("orth-pair").left, 0.0, 1e-6),
    *(Check(f"Delta orth-pair fixed ({s}) exact", lambda a=a: getattr(_g("orth-pair"), a), 0.0, 1e-12)
      for s, a in _SIDES[1:]),
    *(Check(f"Delta ghosh first-three {m.name} b={b}",
            lambda b=b, m=m: _g("ghosh-nonmax", m, _ghosh_three(b)[0]).right,
            _ghosh_three(b)[1], 1e-9)
      for m in (FIXED, ASSIGN) for b in (0.1, 0.3, 0.5, 0.7, 0.2, 0.6)),
    Check("Delta ghosh full fixed", lambda: _g("ghosh-nonmax", FIXED, _GHOSH).right, 0.0, 1e-9),
    *(Check("Delta ghosh pair assign" + ("" if pair == (0, 2) else f" {pair}"),
            lambda pair=pair: _g("ghosh-nonmax", ASSIGN, _GHOSH, pair).right, 1.0, 1e-9)
      for pair in ((0, 2), (0, 1), (0, 3), (1, 2), (1, 3), (2, 3))),
    Check("Delta mes-triple assign (right)", lambda: _g("more-nl-mes", ASSIGN).right, LOG2_3, 1e-9),
    Check("Delta mixed-triple assign (right)",
          lambda: _g("more-nl-mixed", ASSIGN).right, 1.43552, 1e-4),
    Check("Delta mixed-triple assign (right) < log2 3 - 1e-6",
          lambda: _g("more-nl-mixed", ASSIGN).right,
          f"< {LOG2_3 - 1e-6:.6f}", (-math.inf, LOG2_3 - 1e-6)),
    *(check for d in (2, 3) for check in (
        Check(f"Delta canonical d={d} one block fixed",
              lambda d=d: _g("canonical-mes", FIXED, (("d", d), ("block", 0))).right,
              math.log2(d), 1e-9),
        Check(f"Delta canonical d={d} all states fixed",
              lambda d=d: _g("canonical-mes", FIXED, (("d", d),)).right, 0.0, 1e-9),
        Check(f"Delta canonical d={d} d+1 states strictly between",
              lambda d=d: _g("canonical-mes", FIXED, (("d", d), ("count", d + 1))).right,
              f"in (0, {math.log2(d):.6f})", (1e-9, math.log2(d) - 1e-9)))),
    *(Check(f"classification {n}", lambda n=n: classify(as_product_set(catalog.build(n))), label)
      for n, label in _LABELS),
    Check("dissection of case-3x2 starting from A",
          lambda: "full" if dissect(as_product_set(catalog.build("case-3x2")), "A").fully_dissected
          else "blocked", "blocked"),
    *(Check(f"delta positive for non-dissectible {n}", lambda n=n: _d(n).symmetric, "> 0",
            (1e-9, math.inf)) for n in ("nlwe-3x3", "tiles-upb")),
    Check("CHSH link on E2 shift outputs",
          lambda: "entangled -> 2*sqrt(2)" if _chsh_e2()[0] else "an output breaks the link",
          "entangled -> 2*sqrt(2)"),
    Check("CHSH entangled E2 shift outputs", lambda: str(_chsh_e2()[1]), "2"),
    Check("theorem-1 iff over 200 random bases",
          lambda: f"{_theorem1(1_234_567)[0]}/200", "200/200"),
    Check("theorem-1 iff, seed 20240817", lambda: f"{_theorem1(20240817)[0]}/200", "200/200"),
    Check("theorem-1 draws reducible from B, seed 20240817",
          lambda: _theorem1(20240817)[1], ">= 10", (9, math.inf)),
    *(check for x, tol in _EXACT for check in (
        Check(f"chi bell-full{x}", lambda: holevo_chi(catalog.build("bell-full")), 2.0, tol),
        Check(f"local holevo bell-full{x}",
              lambda: local_holevo(catalog.build("bell-full")), 1.0, tol),
        Check(f"local holevo NLWE{x}",
              lambda: local_holevo(catalog.build("nlwe-3x3")), 2 * LOG2_3, tol))),
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
