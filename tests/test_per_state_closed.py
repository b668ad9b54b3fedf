"""Per-state-lu in closed form (``quantify._per_state_closed``).

(a) On random product members, dims in {2,3,4}^2, every rotation and both
directions, the depth-1 closed form is never below the Riemannian ascent over
the same circuits, the search that depth > 1 still runs with the control
rotated.
(b) Each value is attained: the local unitaries the proof names (a
Householder map of the target part to |0>, of the control part to a uniform
superposition or to the capacity-achieving ``sqrt(q)``) followed by the
controlled shift give a member with exactly that entanglement; at depth 2
the target and both values are attained as well (a second layer with the
discrete Fourier transform on the target), and depth-2 and depth-3 reports
with the target or both sides rotated equal depth 1.
(c) The Blahut-Arimoto iteration stops with its duality gap certified below
``TOL.capacity_gap``, also where control classes repeat, and raises
``BadValue`` rather than return a number when its round cap is hit. Where
the letters ``X^c|b>`` nearly coincide it still hits the cap (strict xfail).
(d) ``_shift_classes`` and ``_shift_capacities`` give bit for bit the values
and class distributions of their earlier loop forms, kept here as oracles,
on batches certified in one round, in several, and in different rounds per
channel.
"""

import functools
import itertools
import math

import numpy as np
import pytest

import nle.quantify as quantify
from nle import catalog
from nle.config import TOL
from nle.errors import BadValue
from nle.gates import cnot_permutation
from nle.quantify import (
    Mode,
    _delta_objective,
    _LuCircuit,
    _delta_search,
    _maximize,
    _starts,
    _shift_capacities,
    _shift_classes,
    nonlocal_entropy,
)
from nle.states import Ensemble, PureState, entanglement_entropies, entropy_bits

DIMS = list(itertools.product((2, 3, 4), repeat=2))
DIM_IDS = [f"{a}x{b}" for a, b in DIMS]
ROTATIONS = ("target", "control", "both")


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _parts(seed, dims):
    rng = np.random.default_rng(seed)
    return _unit(rng, dims[0]), _unit(rng, dims[1])


def _closed(a, b, rotate):
    """Per-state-lu depth-1 contributions (right, left) of the one member ``a (x) b``."""
    dims = (len(a), len(b))
    e = Ensemble(dims, (1.0,), (PureState(dims, np.kron(a, b)),))
    r = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
    return {"right": r.contributions_right[0], "left": r.contributions_left[0]}


def _reps(dims, direction):
    d_t = dims[1] if direction == "right" else dims[0]
    return range(1, max(d_t, 2))


def _householder(x, y):
    """A unitary taking the unit vector ``x`` to a phase times the unit vector ``y``."""
    overlap = np.vdot(y, x)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-15 else 1.0
    w = x - phase * y
    if np.linalg.norm(w) < 1e-15:
        return np.eye(len(x), dtype=complex)
    w /= np.linalg.norm(w)
    return np.eye(len(x)) - 2.0 * np.outer(w, np.conjugate(w))


def _output_entanglement(a, b, direction, u_control, u_target, reps):
    """Entanglement of ``CNOT^reps (U_A (x) U_B) |a>|b>`` with the given control
    and target rotations (identity where ``None``)."""
    dims = (len(a), len(b))
    control, target = (a, b) if direction == "right" else (b, a)
    if u_control is not None:
        control = u_control @ control
    if u_target is not None:
        target = u_target @ target
    a, b = (control, target) if direction == "right" else (target, control)
    perm = cnot_permutation(dims, "A" if direction == "right" else "B", reps)
    out = np.empty(dims[0] * dims[1], dtype=complex)
    out[perm] = np.kron(a, b)
    return float(entanglement_entropies(out[None], dims)[0])


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
@pytest.mark.parametrize("rotate", ROTATIONS)
def test_closed_form_never_below_search(dims, rotate):
    a, b = _parts(100 + DIMS.index(dims), dims)
    row = np.kron(a, b)[None]
    closed = _closed(a, b, rotate)
    for direction in ("right", "left"):
        reps = _reps(dims, direction)
        circuits = _LuCircuit(dims, rotate, 1, [(direction, r) for r in reps])
        objective = functools.partial(_delta_objective, probs=np.ones(1), dims=dims)
        starts = [s for _ in reps for s in _starts(circuits.unitary_dims, 1, 7)]
        search = max(v for v, _ in _maximize(circuits.on(row, objective), starts, len(reps)))
        assert closed[direction] >= search - 1e-12, (direction, closed[direction], search)


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_target_value_attained(dims):
    a, b = _parts(200 + DIMS.index(dims), dims)
    closed = _closed(a, b, "target")
    for direction in ("right", "left"):
        target = b if direction == "right" else a
        to_zero = _householder(target, np.eye(len(target))[0])
        attained = max(
            _output_entanglement(a, b, direction, None, to_zero, r)
            for r in _reps(dims, direction)
        )
        assert abs(attained - closed[direction]) <= 1e-12


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_both_value_attained(dims):
    a, b = _parts(300 + DIMS.index(dims), dims)
    closed = _closed(a, b, "both")
    m = min(dims)
    for direction in ("right", "left"):
        control, target = (a, b) if direction == "right" else (b, a)
        uniform = np.zeros(len(control), dtype=complex)
        uniform[:m] = 1.0 / math.sqrt(m)
        attained = _output_entanglement(
            a, b, direction,
            _householder(control, uniform), _householder(target, np.eye(len(target))[0]), 1,
        )
        assert abs(attained - closed[direction]) <= 1e-12
        assert abs(closed[direction] - math.log2(m)) <= 1e-15


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_control_value_attained(dims):
    a, b = _parts(400 + DIMS.index(dims), dims)
    closed = _closed(a, b, "control")
    for direction in ("right", "left"):
        control, target = (a, b) if direction == "right" else (b, a)
        reps = _reps(dims, direction)
        classes = _shift_classes(len(control), len(target), reps)
        _, q = _shift_capacities(target[None], classes.any(axis=1))
        attained = []
        for n, r in enumerate(reps):
            # one control index per class carries that class's mass
            state = np.zeros(len(control), dtype=complex)
            for c in np.flatnonzero(q[0, n]):
                state[np.flatnonzero(classes[n, :, c])[0]] = math.sqrt(q[0, n, c])
            state /= np.linalg.norm(state)
            attained.append(
                _output_entanglement(a, b, direction, _householder(control, state), None, r)
            )
        assert abs(max(attained) - closed[direction]) <= 1e-12


def _fourier(d):
    """Columns ``|f_c>``, eigenvectors of the shift: ``X^c|f_c>`` is a phase times ``|f_c>``."""
    return np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
@pytest.mark.parametrize("rotate", ["target", "both"])
def test_deeper_values_attained(dims, rotate):
    # depth 2: the depth-1 optimum, then the Fourier transform on the target
    a, b = _parts(250 + DIMS.index(dims), dims)
    row = np.kron(a, b)[None]
    closed = _closed(a, b, rotate)
    for direction in ("right", "left"):
        control, target = (a, b) if direction == "right" else (b, a)
        to_zero, f = _householder(target, np.eye(len(target))[0]), _fourier(len(target))
        if rotate == "target":
            layers, reps = [to_zero, f], _reps(dims, direction)
        else:
            uniform = np.zeros(len(control), dtype=complex)
            uniform[: min(dims)] = 1.0 / math.sqrt(min(dims))
            first = [_householder(control, uniform), to_zero]
            second = [np.eye(len(control)), f]
            if direction == "left":  # the circuit takes the A rotation first
                first, second = first[::-1], second[::-1]
            layers, reps = first + second, [1]
        circuits = _LuCircuit(dims, rotate, 2, [(direction, r) for r in reps])
        rows = np.arange(len(reps))
        outputs = circuits.transform(rows, np.array([row] * len(reps)), [np.array([u] * len(reps)) for u in layers])
        attained = max(float(entanglement_entropies(out, dims)[0]) for out in outputs)
        assert abs(attained - closed[direction]) <= 1e-12


@pytest.mark.parametrize("rotate", ["target", "both"])
def test_deeper_reports_equal_depth_one(rotate):
    rng = np.random.default_rng(800)
    a, b = _unit(rng, 3), _unit(rng, 4)
    random_member = Ensemble((3, 4), (1.0,), (PureState((3, 4), np.kron(a, b)),))
    for e in (catalog.build("case-3x2"), catalog.build("tiles-upb"), random_member):
        one = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
        for depth in (2, 3):
            deep = nonlocal_entropy(e, Mode("per-state-lu", depth=depth, rotate=rotate))
            assert (deep.right, deep.left, deep.contributions_right, deep.contributions_left) == (
                one.right, one.left, one.contributions_right, one.contributions_left)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
@pytest.mark.parametrize("rotate", ["target", "both"])
def test_depth_two_search_reaches_closed_form(dims, rotate):
    # the search depth > 1 ran before: it lands on the closed form, never above
    a, b = _parts(900 + DIMS.index(dims), dims)
    row = np.kron(a, b)[None]
    closed = _closed(a, b, rotate)
    for direction in ("right", "left"):
        mode = Mode("ensemble-lu", depth=2, restarts=1, rotate=rotate)
        search = _delta_search(row[None], np.ones(1), dims, mode, [{direction: 5}])[0][direction].value
        assert abs(search - closed[direction]) <= 1e-9, (direction, search, closed[direction])


def _certified_gap(target, present, q):
    """``(max_c D(X^c b || rho) - S(rho), S(rho))`` of the class distribution ``q``,
    recomputed; the gap with the unfloored entropy, the value with the kernel's."""
    letters = np.array([np.roll(target, c) for c in range(len(target))])
    rho = np.einsum("c,ci,cj->ij", q, letters, np.conjugate(letters))
    lam, vecs = np.linalg.eigh(rho)
    logs = np.log2(np.where(lam > 0.0, lam, 1.0))
    divergence = -(np.abs(np.conjugate(vecs.T) @ letters.T) ** 2 * logs[:, None]).sum(axis=0)
    return divergence[present].max() + float(lam @ logs), float(entropy_bits(lam))


@pytest.mark.parametrize("dims", [(3, 2), (3, 4), (4, 3), (2, 4)], ids=["3x2", "3x4", "4x3", "2x4"])
def test_capacity_gap_certified(dims):
    # on 3x2 the control indices 0 and 2 shift the target alike: one class
    rng = np.random.default_rng(500 + sum(dims))
    d_c, d_t = dims
    targets = np.array([_unit(rng, d_t) for _ in range(4)])
    present = _shift_classes(d_c, d_t, range(1, d_t)).any(axis=1)
    values, q = _shift_capacities(targets, present)
    for i, n in itertools.product(range(len(targets)), range(len(present))):
        assert abs(q[i, n].sum() - 1.0) <= 1e-12 and np.all(q[i, n][~present[n]] == 0.0)
        gap, entropy = _certified_gap(targets[i], present[n], q[i, n])
        assert gap <= TOL.capacity_gap and abs(values[i, n] - entropy) <= 1e-15
    if dims == (3, 2):
        assert np.array_equal(present, [[True, True]])


def test_capacity_near_a_shift_eigenvector_certified():
    # b is close to an eigenvector of X, so the letters X^c b nearly agree up to
    # phase and the mixture has eigenvalues near the entropy floor: the gap must
    # use the unfloored entropy, as the divergences see the whole spectrum
    b = np.exp(0.5j * np.pi * np.arange(4)) / 2.0 + 1e-6 * np.eye(4)[1]
    b /= np.linalg.norm(b)
    present = _shift_classes(3, 4, range(1, 4)).any(axis=1)
    values, q = _shift_capacities(b[None], present)
    for n in range(len(present)):
        gap, entropy = _certified_gap(b, present[n], q[0, n])
        assert gap <= TOL.capacity_gap and abs(values[0, n] - entropy) <= 1e-15
    oracle_values, oracle_q = _oracle_shift_capacities(b[None], present)
    assert np.array_equal(values, oracle_values) and np.array_equal(q, oracle_q)


def test_capacity_round_cap_raises(monkeypatch):
    # three of four shift classes: the uniform start is not optimal
    a, b = _parts(600, (3, 4))
    monkeypatch.setattr(quantify, "_CAPACITY_ROUNDS", 1)
    with pytest.raises(BadValue) as err:
        _closed(a, b, "control")
    assert err.value.code == "bad-value"


@pytest.mark.xfail(
    strict=True,
    raises=BadValue,
    reason="near-coincident letters: Blahut-Arimoto does not close its gap within the round "
    "cap (ROADMAP item 2, open: a Newton step on the simplex)",
)
def test_capacity_certified_for_near_coincident_letters():
    rng = np.random.default_rng(0)
    a = np.ones(3) / math.sqrt(3.0)
    b = np.ones(4) / 2.0 + 3e-3 * rng.normal(size=4)
    b /= np.linalg.norm(b)
    e = Ensemble((3, 4), (1.0,), (PureState((3, 4), np.kron(a, b)),))
    r = nonlocal_entropy(e, Mode("per-state-lu", rotate="control"))
    fixed = nonlocal_entropy(e, Mode("fixed"))
    assert fixed.right <= r.right <= math.log2(3.0)


def test_per_state_reports_no_repetition_count():
    # each member picks its own count, so no single one describes the report
    a, b = _parts(700, (2, 2))
    e = Ensemble((2, 2), (1.0,), (PureState((2, 2), np.kron(a, b)),))
    for depth in (1, 2):
        r = nonlocal_entropy(e, Mode("per-state-lu", depth=depth, restarts=1, rotate="target"))
        assert r.reps_right is None and r.reps_left is None


# The earlier forms of ``_shift_classes`` and ``_shift_capacities``, verbatim:
# one ``np.roll`` per letter, the letters repeated and ``present`` tiled over
# every channel, and a copy of the running rows in every round.
_CAPACITY_ROUNDS = 10_000


def _oracle_shift_classes(d_c: int, d_t: int, reps) -> np.ndarray:
    """``(R, d_c, d_t)`` indicator: control index i lies in class ``r*i mod d_t``."""
    classes = np.zeros((len(reps), d_c, d_t))
    for n, r in enumerate(reps):
        classes[n, np.arange(d_c), r * np.arange(d_c) % d_t] = 1.0
    return classes


def _oracle_shift_capacities(target: np.ndarray, present: np.ndarray):
    """Capacities of the channels ``c -> X^c|b>`` over the classes ``present`` marks.

    ``target`` is ``(k, d_t)`` and ``present`` ``(R, d_t)``; returns the values
    and the optimal class distributions, ``(k, R)`` and ``(k, R, d_t)``. One
    letter per class: duplicated letters slow the iteration down. All ``k*R``
    channels run the quantum Blahut-Arimoto iteration (Nagaoka 1998) from the
    uniform ``q``, one stacked ``eigh`` per round: ``q_c <- q_c 2^{D(b_c||rho)}``.
    ``S(rho)`` is attained by the current ``q`` and ``max_c D(b_c||rho)``
    bounds the capacity from above, so a channel stops at ``S(rho)`` once
    their gap (with the unfloored entropy, as ``D`` sees the same spectrum) is
    at most ``TOL.capacity_gap``. ``BadValue`` if one is still open after
    ``_CAPACITY_ROUNDS`` rounds.
    """
    k, d_t = target.shape
    letters = np.stack([np.roll(target, c, axis=1) for c in range(d_t)], axis=1)  # row c: X^c|b>
    letters = np.repeat(letters, len(present), axis=0)
    present = np.tile(present, (k, 1))
    q = present / present.sum(axis=1, keepdims=True)
    values = np.empty(len(q))
    running = np.arange(len(q))
    for _ in range(_CAPACITY_ROUNDS):
        b, mask = letters[running], present[running]
        lam, vecs = np.linalg.eigh(np.einsum("mc,mci,mcj->mij", q[running], b, np.conjugate(b)))
        logs = np.log2(np.where(lam > 0.0, lam, 1.0))
        div = -(np.abs(b @ np.conjugate(vecs)) ** 2 * logs[:, None, :]).sum(-1)  # D(b_c||rho)
        div = np.where(mask, div, -np.inf)
        top = div.max(axis=1)
        done = top + (lam * logs).sum(-1) <= TOL.capacity_gap
        values[running[done]] = entropy_bits(lam[done])
        w = q[running] * np.exp2(div - top[:, None])
        q[running[~done]] = (w / w.sum(axis=1, keepdims=True))[~done]
        running = running[~done]
        if running.size == 0:
            return values.reshape(k, -1), q.reshape(k, -1, d_t)
    raise BadValue(f"shift capacity not certified within {_CAPACITY_ROUNDS} rounds")


def _channel_rounds(monkeypatch, target, present) -> list:
    """Rounds each channel of the batch takes alone: the oracle's ``eigh`` calls."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    rounds = []
    for b, row in itertools.product(target, present):
        calls.clear()
        _oracle_shift_capacities(b[None], row[None])
        rounds.append(len(calls))
    monkeypatch.undo()
    return rounds


ORACLE_DIMS = list(itertools.product(range(2, 6), repeat=2))


def _oracle_batches(dims):
    """Seeded ``(target, present)`` batches of one to four members on ``dims``."""
    d_c, d_t = dims
    present = _shift_classes(d_c, d_t, range(1, max(d_t, 2))).any(axis=1)
    for seed in range(8):
        rng = np.random.default_rng(1000 * d_c + 10 * d_t + seed)
        yield np.array([_unit(rng, d_t) for _ in range(1 + seed % 4)]), present


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=[f"{a}x{b}" for a, b in ORACLE_DIMS])
def test_shift_capacities_match_the_loop_oracle(dims):
    reps = range(1, max(dims[1], 2))
    classes, oracle_classes = _shift_classes(*dims, reps), _oracle_shift_classes(*dims, reps)
    assert classes.dtype == oracle_classes.dtype and np.array_equal(classes, oracle_classes)
    for target, present in _oracle_batches(dims):
        values, q = _shift_capacities(target, present)
        oracle_values, oracle_q = _oracle_shift_capacities(target, present)
        assert values.shape == oracle_values.shape and np.array_equal(values, oracle_values)
        assert q.shape == oracle_q.shape and np.array_equal(q, oracle_q)


def test_oracle_batches_cover_every_way_a_batch_ends(monkeypatch):
    # uniform q is optimal by symmetry for two letters or all d_t of them, so
    # the batches that run on are those with three or more classes out of d_t
    kinds = set()
    for dims in ORACLE_DIMS:
        for target, present in _oracle_batches(dims):
            rounds = _channel_rounds(monkeypatch, target, present)
            kinds.add("one round" if max(rounds) == 1 else "several rounds")
            if len(set(rounds)) > 1:
                kinds.add("channels stop in different rounds")
    assert kinds == {"one round", "several rounds", "channels stop in different rounds"}
