"""Depth-1 ensemble-lu delta skips the ascent where the plain shift meets the ceiling.

``quantify._closed_delta_transforms`` compares, in each direction the qubit
forms leave open, the best plain ``CNOT^r`` (the search's identity
candidate) with the probability-weighted per-state ceiling:
``_per_state_closed`` with the target rotated, ``log2 min(d_A, d_B)``
otherwise. Where the two meet within ``TOL.capacity_gap`` the direction
takes the plain shifts and runs no ascent. Checked here:

* a certified direction reports as fixed mode does, bit for bit: value,
  contributions, repetition count and work;
* a certified report is at least the ascent it skips (the certificate
  switched off) minus 1e-12, on ``nlwe-3x3``, ``case-3x2`` and seeded 2x3,
  3x2 and 3x3 sets whose parts are basis vectors on one side per member;
* scope: ``nlwe-3x3`` with the target rotated runs no ascent, while
  ``tiles-upb`` (target), ``case-3x2`` (control and both) and Haar-random
  3x3 parts still ascend;
* the guard: the target fold bounds no control rotation. On ``case-3x2``
  right the fold and the plain shift both give 1/3, yet the control ascent
  reaches 0.918, so the control ceiling must stay ``log2 min(d_A, d_B)``;
* the ceiling itself, beyond the catalog: on 40 seeded random product sets
  with a qutrit side, depth-1 ensemble-lu delta is at most per-state-lu
  delta plus 1e-12, for every rotation.
"""

import functools
import math

import numpy as np
import pytest

from nle import catalog, quantify
from nle.linalg import cnot_family
from nle.quantify import Mode, _per_state_closed, nonlocal_entropy
from nle.states import Ensemble, PureState

ROTATIONS = ("target", "control", "both")
SHAPES = [(2, 3), (3, 2), (3, 3)]


def _part(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _basis_set(seed: int, dims) -> Ensemble:
    """Two to five product members with Dirichlet weights: per member one
    party's part is a basis vector with a random phase, the other's random.
    A target basis vector makes the plain shift reach the member's fold, and
    a control one makes the fold 0, so every direction meets its target ceiling."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    members = []
    for _ in range(k):
        parts = [_part(rng, d) for d in dims]
        side = int(rng.integers(2))
        parts[side] = np.exp(2j * math.pi * rng.random()) * np.eye(dims[side])[rng.integers(dims[side])]
        members.append(PureState(dims, np.kron(*parts)))
    return Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), tuple(members))


def _haar_set(seed: int, dims, k: int) -> Ensemble:
    rng = np.random.default_rng(seed)
    members = tuple(PureState(dims, np.kron(*(_part(rng, d) for d in dims))) for _ in range(k))
    return Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), members)


# (name, maker, the directions the ceiling certifies: those with a qutrit target)
CERTIFIED = [("nlwe-3x3", functools.partial(catalog.build, "nlwe-3x3"), ("right", "left")),
             ("case-3x2", functools.partial(catalog.build, "case-3x2"), ("left",))]  # right: a qubit form
CERTIFIED += [(f"basis-{a}x{b}-{seed}", functools.partial(_basis_set, seed, (a, b)),
               [d for d, t in zip(("right", "left"), (b, a)) if t == 3])
              for a, b in SHAPES for seed in range(4)]


def _ascents(monkeypatch) -> list:
    calls, original = [], quantify._ascend

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(quantify, "_ascend", counted)
    return calls


def _forced(monkeypatch, e, mode):
    """The report with the certificate switched off: only the qubit forms skip the ascent."""
    with monkeypatch.context() as m:
        m.setattr(quantify, "_closed_delta_transforms", quantify._qubit_delta_transforms)
        return nonlocal_entropy(e, mode)


@pytest.mark.parametrize("name,make,directions", CERTIFIED, ids=[c[0] for c in CERTIFIED])
def test_certified_direction_reports_as_fixed_mode(name, make, directions):
    e = make()
    fixed = nonlocal_entropy(e, Mode("fixed"))
    for restarts, seed in ((1, 0), (3, 7)):
        report = nonlocal_entropy(e, Mode("ensemble-lu", restarts=restarts, seed=seed, rotate="target"))
        for d in directions:
            got, want = (
                (getattr(r, d), getattr(r, f"contributions_{d}"), getattr(r, f"reps_{d}"), r.work[d])
                for r in (report, fixed))
            assert got == want, (name, d)
        if len(directions) == 2:
            assert report.symmetric == fixed.symmetric


# every certified set with the target rotated, and the catalog sets with the
# control or both rotated, where a target fold taken as the ceiling would certify
AT_LEAST = [(n, make, "target") for n, make, _ in CERTIFIED] + [
    (n, make, rotate) for n, make, _ in CERTIFIED[:2] for rotate in ROTATIONS[1:]]


@pytest.mark.parametrize("name,make,rotate", AT_LEAST, ids=[f"{n}-{r}" for n, _, r in AT_LEAST])
def test_certified_report_at_least_the_skipped_ascent(monkeypatch, name, make, rotate):
    e, mode = make(), Mode("ensemble-lu", restarts=1, rotate=rotate)
    report, forced = nonlocal_entropy(e, mode), _forced(monkeypatch, e, mode)
    assert report.right >= forced.right - 1e-12 and report.left >= forced.left - 1e-12, name


def test_nlwe_target_runs_no_ascent(monkeypatch):
    calls = _ascents(monkeypatch)
    report = nonlocal_entropy(catalog.build("nlwe-3x3"), Mode("ensemble-lu", restarts=2, rotate="target"))
    assert calls == [] and report.right == report.left == 0.44444444444444436


@pytest.mark.parametrize("make,rotate", [
    (functools.partial(catalog.build, "tiles-upb"), "target"),
    (functools.partial(catalog.build, "case-3x2"), "control"),
    (functools.partial(catalog.build, "case-3x2"), "both"),
    *((functools.partial(_haar_set, 1, (3, 3), 3), rotate) for rotate in ROTATIONS),
], ids=["tiles-upb-target", "case-3x2-control", "case-3x2-both", *(f"haar-3x3-{r}" for r in ROTATIONS)])
def test_uncertified_directions_still_ascend(monkeypatch, make, rotate):
    e, calls = make(), _ascents(monkeypatch)
    nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, rotate=rotate))
    assert calls


def test_target_fold_does_not_bound_a_control_rotation():
    e = catalog.build("case-3x2")
    probs = np.array(e.probabilities)
    fold = float(probs @ _per_state_closed(e, "right", "target"))
    rows = [c for c, (d, _) in enumerate(cnot_family(e.dims)) if d == "right"]
    identity = max(float(probs @ e.cnot_entanglement[c]) for c in rows)
    assert abs(fold - 1 / 3) <= 1e-12 and abs(identity - 1 / 3) <= 1e-12
    assert nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, rotate="control")).right > 0.918


@pytest.mark.parametrize("seed", range(40))
def test_ensemble_lu_at_most_per_state_lu(seed):
    e = _haar_set(1000 + seed, SHAPES[seed % 3], 2 + seed % 4)  # every shape with 2 to 5 members
    for rotate in ROTATIONS:
        lu = nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, seed=seed, rotate=rotate))
        ceiling = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
        assert lu.right <= ceiling.right + 1e-12 and lu.left <= ceiling.left + 1e-12, rotate
