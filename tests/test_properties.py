"""Invariants of the quantifiers on random ensembles.

Fixed mode, both quantifiers (dims in {2, 3}^2, at most five members;
product members for delta, general pure members for big-delta): a party swap
exchanges right and left, and the member order changes neither. On 2x2
inputs, ensemble-lu is never below fixed: its climb starts at the fixed
circuit, and both gap searches start from the identity. The identity makes
this hold for big-delta with a qutrit side too (3x2, 2x3 and 3x3 draws),
where the target rotation of the two directions turns different dimensions
and one search runs as two lockstep batches, and at depth 2 on 2x2 and 3x2
draws, where the search starts next to ``CNOT^r`` applied twice.

On 2x2 at depth 1 the ensemble-lu gap, a closed form for every rotation,
is invariant per direction under frame changes of the sides it rotates:
with the target rotated, right under ``I (x) V_B`` and left under ``V_A (x)
I``; with the control rotated, right under ``V_A (x) I`` and left under ``I
(x) V_B``; with both rotated, both directions under ``V_A (x) V_B``.

Depth-1 per-state-lu delta (dims in {2, 3, 4}^2, product members): the value
with both sides rotated is invariant under any local frame change
``V_A (x) V_B``; with one side rotated it is invariant under frame changes of
that side only. It lies between the fixed value and the both-sides value, and
every delta value and contribution lies in ``[0, log2 min(d_A, d_B)]``.

Delta at depth 1 on random product sets of every shape up to 3x3, some
with one or both parties' parts real, one restart: fixed <= ensemble-lu <=
per-state-lu at the same rotation, for every rotation. On 2x2, where
ensemble-lu delta is a closed form or a sphere search
(``qubits._qubit_delta_transforms``), any product set of one to six
members: the frame invariance above; a party swap exchanges right and left;
and fixed <= target <= both, control <= both. Where "both" enters, one
party's parts are real, so their Bloch vectors lie on a great circle and it
runs no ascent either.

Big-delta on random 2x2 and 2x3 general ensembles of two to four members,
fixed and ensemble-lu: every value lies in ``[0, max(S_A, S_B)]`` of the
mixture, and every contribution, a member's entanglement, is at most
``log2 min(d_A, d_B)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle.linalg import haar_unitary, partial_trace
from nle.quantify import Mode, average_entropy_gap, nonlocal_entropy
from nle.states import Ensemble, PureState, average_state, vn_entropy

TOL = 1e-12
QUANTIFIERS = {"delta": nonlocal_entropy, "big-delta": average_entropy_gap}


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_ensemble(seed: int, quantity: str, max_dim: int = 3, dims=None) -> Ensemble:
    rng = np.random.default_rng(seed)
    drawn = (int(rng.integers(2, max_dim + 1)), int(rng.integers(2, max_dim + 1)))
    dims = drawn if dims is None else dims
    k = int(rng.integers(1, 6))
    if quantity == "delta":
        members = [np.kron(_unit(rng, dims[0]), _unit(rng, dims[1])) for _ in range(k)]
    else:
        members = [_unit(rng, dims[0] * dims[1]) for _ in range(k)]
    probs = rng.dirichlet(np.ones(k))
    return Ensemble(dims, tuple(probs), tuple(PureState(dims, m) for m in members))


def _swap_parties(e: Ensemble) -> Ensemble:
    d_a, d_b = e.dims
    states = tuple(
        PureState((d_b, d_a), s.amplitudes.reshape(d_a, d_b).T.reshape(-1)) for s in e.states
    )
    return Ensemble((d_b, d_a), e.probabilities, states)


@pytest.mark.parametrize("quantity", QUANTIFIERS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_party_swap_exchanges_directions(quantity, seed):
    e = _random_ensemble(seed, quantity)
    quantifier = QUANTIFIERS[quantity]
    r, swapped = quantifier(e, Mode("fixed")), quantifier(_swap_parties(e), Mode("fixed"))
    assert abs(swapped.right - r.left) <= TOL
    assert abs(swapped.left - r.right) <= TOL


@pytest.mark.parametrize("quantity", QUANTIFIERS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_member_order_is_irrelevant(quantity, seed):
    e = _random_ensemble(seed, quantity)
    quantifier = QUANTIFIERS[quantity]
    order = np.random.default_rng(seed + 1).permutation(len(e))
    probs = tuple(e.probabilities[i] for i in order)
    shuffled = Ensemble(e.dims, probs, tuple(e.states[i] for i in order))
    r, permuted = quantifier(e, Mode("fixed")), quantifier(shuffled, Mode("fixed"))
    assert abs(permuted.right - r.right) <= TOL
    assert abs(permuted.left - r.left) <= TOL


@pytest.mark.parametrize("quantity", QUANTIFIERS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_ensemble_lu_never_below_fixed(quantity, seed):
    # two qubits and one restart: on qutrits the climb can chase float noise
    # for minutes
    e = _random_ensemble(seed, quantity, max_dim=2)
    quantifier = QUANTIFIERS[quantity]
    fixed = quantifier(e, Mode("fixed"))
    searched = quantifier(e, Mode("ensemble-lu", restarts=1, seed=seed, rotate="target"))
    for direction in ("right", "left"):
        assert getattr(fixed, direction) <= getattr(searched, direction) + TOL, direction


@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(3, 2), (2, 3), (3, 3)]))
@settings(max_examples=30, deadline=None)
def test_gap_ensemble_lu_never_below_fixed_with_a_qutrit(seed, dims):
    e = _random_ensemble(seed, "big-delta", dims=dims)
    fixed = average_entropy_gap(e, Mode("fixed"))
    searched = average_entropy_gap(e, Mode("ensemble-lu", restarts=1, seed=seed, rotate="target"))
    for direction in ("right", "left"):
        assert getattr(fixed, direction) <= getattr(searched, direction) + TOL, direction


@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (3, 2)]))
@settings(max_examples=30, deadline=None)
def test_gap_ensemble_lu_never_below_fixed_at_depth_2(seed, dims):
    # two layers start next to CNOT^r applied twice, not at the fixed circuit
    # (on a qubit target it is the identity), so this rests on the ascent
    # reaching a transform at least as good: seeds 0-299 of each shape held
    e = _random_ensemble(seed, "big-delta", dims=dims)
    fixed = average_entropy_gap(e, Mode("fixed"))
    searched = average_entropy_gap(e, Mode("ensemble-lu", depth=2, restarts=1, seed=seed,
                                           rotate="target"))
    for direction in ("right", "left"):
        assert getattr(fixed, direction) <= getattr(searched, direction) + TOL, direction


def _reframe(e: Ensemble, v_a, v_b) -> Ensemble:
    """Every member under the local frame change ``V_A (x) V_B``."""
    d_a, d_b = e.dims
    states = tuple(
        PureState(e.dims, (v_a @ s.amplitudes.reshape(d_a, d_b) @ v_b.T).reshape(-1))
        for s in e.states
    )
    return Ensemble(e.dims, e.probabilities, states)


def _per_state(e: Ensemble, rotate: str):
    return nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_per_state_frame_invariance(seed):
    # rotate=target values depend on the control basis (|0>|0> reads 0 to the
    # right, H|0>|0> reads 1), so each one-side value is checked only under
    # frame changes of its own rotated side
    e = _random_ensemble(seed, "delta", max_dim=4)
    rng = np.random.default_rng(seed + 1)
    v_a, v_b = haar_unitary(e.dims[0], rng), haar_unitary(e.dims[1], rng)
    eye_a, eye_b = np.eye(e.dims[0]), np.eye(e.dims[1])
    cases = (
        ("both", _reframe(e, v_a, v_b), ("right", "left")),
        ("target", _reframe(e, eye_a, v_b), ("right",)),  # right: B is the target
        ("target", _reframe(e, v_a, eye_b), ("left",)),
        ("control", _reframe(e, v_a, eye_b), ("right",)),  # right: A controls
        ("control", _reframe(e, eye_a, v_b), ("left",)),
    )
    for rotate, framed, directions in cases:
        r, moved = _per_state(e, rotate), _per_state(framed, rotate)
        for direction in directions:
            change = getattr(moved, direction) - getattr(r, direction)
            assert abs(change) <= TOL, (rotate, direction)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_two_qubit_target_gap_frame_invariance(seed):
    # with the target rotated, each direction is invariant under frame
    # changes of its own target: right under I (x) V_B, left under V_A (x) I
    e = _random_ensemble(seed, "big-delta", dims=(2, 2))
    rng = np.random.default_rng(seed + 1)
    v_a, v_b, eye = haar_unitary(2, rng), haar_unitary(2, rng), np.eye(2)
    mode = Mode("ensemble-lu", restarts=1, rotate="target")
    r = average_entropy_gap(e, mode)
    for framed, direction in ((_reframe(e, eye, v_b), "right"), (_reframe(e, v_a, eye), "left")):
        change = getattr(average_entropy_gap(framed, mode), direction) - getattr(r, direction)
        assert abs(change) <= TOL, direction


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_two_qubit_control_and_both_gap_frame_invariance(seed):
    # with the control rotated, right is invariant under V_A (x) I and left
    # under I (x) V_B; with both rotated, both under V_A (x) V_B
    e = _random_ensemble(seed, "big-delta", dims=(2, 2))
    rng = np.random.default_rng(seed + 1)
    v_a, v_b, eye = haar_unitary(2, rng), haar_unitary(2, rng), np.eye(2)
    framed_both = _reframe(e, v_a, v_b)
    for rotate, framed, direction in (("control", _reframe(e, v_a, eye), "right"),
                                      ("control", _reframe(e, eye, v_b), "left"),
                                      ("both", framed_both, "right"), ("both", framed_both, "left")):
        mode = Mode("ensemble-lu", restarts=1, rotate=rotate)
        before, after = (getattr(average_entropy_gap(x, mode), direction) for x in (e, framed))
        assert abs(after - before) <= TOL, (rotate, direction)


def _qubit_product_set(seed: int, real: str = "") -> Ensemble:
    """One to six 2x2 product members, Dirichlet weights; the parts of the
    parties in ``real`` are real, so their Bloch vectors lie on a great circle
    and ensemble-lu delta with both sides rotated runs no ascent."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    parts = {p: [_unit(rng, 2).real if p in real else _unit(rng, 2) for _ in range(k)] for p in "AB"}
    members = [np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)) for a, b in zip(parts["A"], parts["B"])]
    return Ensemble((2, 2), tuple(rng.dirichlet(np.ones(k))), tuple(PureState((2, 2), m) for m in members))


def _qubit_lu(rotate: str) -> Mode:
    return Mode("ensemble-lu", restarts=1, rotate=rotate)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_two_qubit_delta_frame_invariance(seed):
    # as for the gap: with the target rotated right is invariant under I (x)
    # V_B and left under V_A (x) I, with the control rotated the mirror, and
    # with both rotated (one party's parts on a circle, which a frame change
    # keeps) both directions under V_A (x) V_B
    e, circled = _qubit_product_set(seed), _qubit_product_set(seed, "AB"[seed % 2])
    rng = np.random.default_rng(seed + 1)
    v_a, v_b, eye = haar_unitary(2, rng), haar_unitary(2, rng), np.eye(2)
    cases = (("target", e, _reframe(e, eye, v_b), "right"), ("target", e, _reframe(e, v_a, eye), "left"),
             ("control", e, _reframe(e, v_a, eye), "right"), ("control", e, _reframe(e, eye, v_b), "left"),
             ("both", circled, _reframe(circled, v_a, v_b), "right"),
             ("both", circled, _reframe(circled, v_a, v_b), "left"))
    for rotate, x, framed, direction in cases:
        before, after = (getattr(nonlocal_entropy(y, _qubit_lu(rotate)), direction) for y in (x, framed))
        assert abs(after - before) <= TOL, (rotate, direction)


@pytest.mark.parametrize("rotate", ["target", "control", "both"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_two_qubit_delta_party_swap_exchanges_directions(rotate, seed):
    e = _qubit_product_set(seed, "AB"[seed % 2] if rotate == "both" else "")
    r, swapped = (nonlocal_entropy(x, _qubit_lu(rotate)) for x in (e, _swap_parties(e)))
    assert abs(swapped.right - r.left) <= TOL and abs(swapped.left - r.right) <= TOL


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_two_qubit_delta_rotations_are_ordered(seed):
    # fixed <= target <= both and control <= both: each adds rotations to the
    # same circuit; one party's parts on a circle, so "both" is exact too
    e = _qubit_product_set(seed, "AB"[seed % 2])
    fixed = nonlocal_entropy(e, Mode("fixed"))
    lu = {rotate: nonlocal_entropy(e, _qubit_lu(rotate)) for rotate in ("target", "control", "both")}
    for direction in ("right", "left"):
        value = {name: getattr(r, direction) for name, r in (("fixed", fixed), *lu.items())}
        assert value["fixed"] <= value["target"] + TOL, direction
        assert value["target"] <= value["both"] + TOL, direction
        assert value["control"] <= value["both"] + TOL, direction


def test_target_value_depends_on_the_control_basis():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    e = Ensemble((2, 2), (1.0,), (PureState((2, 2), np.array([1.0, 0, 0, 0])),))
    assert _per_state(e, "target").right == 0.0
    assert abs(_per_state(_reframe(e, hadamard, np.eye(2)), "target").right - 1.0) <= TOL


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_per_state_ordering_and_ceiling(seed):
    e = _random_ensemble(seed, "delta", max_dim=4)
    ceiling = math.log2(min(e.dims))
    fixed = nonlocal_entropy(e, Mode("fixed"))
    per_state = {rotate: _per_state(e, rotate) for rotate in ("target", "control", "both")}
    for direction in ("right", "left"):
        both = getattr(per_state["both"], direction)
        for r in (fixed, *per_state.values()):
            assert 0.0 <= getattr(r, direction) <= ceiling
            assert all(0.0 <= c <= ceiling for c in getattr(r, f"contributions_{direction}"))
        for rotate, r in per_state.items():
            assert getattr(fixed, direction) <= getattr(r, direction) + TOL, rotate
            assert getattr(r, direction) <= both + TOL, rotate


@pytest.mark.parametrize("rotate", ["target", "control", "both"])
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
       real=st.sampled_from(["", "A", "B", "AB"]))
@settings(max_examples=25, deadline=None)
def test_delta_mode_monotonicity(rotate, seed, dims, real):
    # fixed <= ensemble-lu <= per-state-lu at depth 1 and the same rotation:
    # the shared search starts at the fixed circuit's identity rotations, and
    # per-state-lu optimizes the same circuit member by member; 3x2 is the
    # non-square shape of the control-rotated capacities (seeds 0-199 on 3x2
    # and 3x3, every rotation: worst draw 0.7 s on a 2-core x86 machine). The
    # parts of the parties in ``real`` are real: on 2x2 their Bloch vectors
    # lie on a great circle, the closed-form case of ensemble-lu
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    parts = [[_unit(rng, d).real if p in real else _unit(rng, d) for p, d in zip("AB", dims)]
             for _ in range(k)]
    members = [np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)) for a, b in parts]
    e = Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), tuple(PureState(dims, m) for m in members))
    fixed = nonlocal_entropy(e, Mode("fixed"))
    shared = nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, seed=seed, rotate=rotate))
    per_state = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
    for direction in ("right", "left"):
        low, mid, high = (getattr(r, direction) for r in (fixed, shared, per_state))
        assert low <= mid + TOL and mid <= high + TOL, (direction, low, mid, high)


@pytest.mark.parametrize("mode", [Mode("fixed"), Mode("ensemble-lu", restarts=1, rotate="target")],
                         ids=["fixed", "ensemble-lu"])
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3)]))
@settings(max_examples=25, deadline=None)
def test_big_delta_ceiling(mode, seed, dims):
    # each side gap is S_side - S_fin with S_fin >= 0; the mixture's side
    # entropies are recomputed here from partial traces of the average state
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    members = tuple(PureState(dims, _unit(rng, dims[0] * dims[1])) for _ in range(k))
    e = Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), members)
    rho = average_state(e)
    ceiling = max(vn_entropy(partial_trace(rho, dims, side)) for side in "AB")
    r = average_entropy_gap(e, mode)
    for value in (r.right, r.left, r.symmetric):
        assert 0.0 <= value <= ceiling + TOL, (value, ceiling)
    for c in r.contributions_right + r.contributions_left:
        assert 0.0 <= c <= math.log2(min(dims))
