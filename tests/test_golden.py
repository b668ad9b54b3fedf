"""Pinned CLI outputs (``golden_cli.json``) of seeded searches and bounds.

The ``exact`` records must be reproduced byte for byte: the seeded delta
searches, where any change to the entropy kernel, the unitary
parameterization or the transforms that moves a float shows; the seeded gap
searches (ensemble-lu big-delta with 2 restarts and seed 3 on four entries,
each rotated side, and on the three two-qubit entries at ``--depth 2`` with
the target rotated, and on ``bell-triple`` and ``orth-pair`` at ``--depth
2`` with both sides or the control rotated). Those that ascend show any
change to the gap objective, its gradient or the starts: every rotation on
``more-nl-mixed`` (3x3) and the ``--depth 2`` records. The two-qubit
``e2-case2`` delta searches at ``--depth 2``, every rotation, pin the delta
ascent on two qubits; at depth 1 they pin the Bloch-axis delta form (each
party's parts lie on a great circle), and the three two-qubit entries
(``bell-triple``, ``orth-pair``, ``ghosh-nonmax``) at depth 1, every
rotation, the closed gap form: no search runs there, as ``nle.qubits``
states, so ``--restarts`` and ``--seed`` have no effect on them. The
``case-3x2`` delta searches with the control or the target rotated pin, at
depth 1, the qubit direction's Bloch-axis form beside the qutrit
direction's ascent, and at ``--depth 2`` the ascent in both directions.
Then the fixed circuit's outputs (fixed big-delta and
bounds in both directions on every catalog entry, fixed delta on every
product entry), where a one-ulp move in the family or mixture path shows;
and ``show --json`` of every catalog entry's default build, which pins each
member's amplitudes bit for bit (JSON floats round-trip); and ``dissect
--ensemble NAME --first {A,B,any}``, in text and with ``--json``, on
``e1-computational``, ``e2-case2``, ``walgate-hardy``, ``case-3x2``,
``nlwe-3x3`` and ``tiles-upb`` (36 records), which pin each tree, its
irreducibility flags, leaf masses and the class. The ``close`` records,
compared within 1e-12, are the commands no ``exact`` record pins.
"""

import json
from pathlib import Path

import pytest

from nle.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def _run(capsys, command: str) -> str:
    assert main(command.split()) == 0
    return capsys.readouterr().out


def _assert_close(got, want, path="record"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("command", sorted(GOLDEN["exact"]))
def test_delta_json_byte_identical(capsys, command):
    assert _run(capsys, command) == GOLDEN["exact"][command]


@pytest.mark.parametrize("command", sorted(GOLDEN["close"]))
def test_record_numbers_within_1e12(capsys, command):
    _assert_close(json.loads(_run(capsys, command)), GOLDEN["close"][command])
