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
        circuits = [_LuCircuit(dims, direction, rotate, 1, r) for r in _reps(dims, direction)]
        objective = functools.partial(_delta_objective, probs=np.ones(1), dims=dims)
        search = max(_maximize(c.on(row, objective), c.unitary_dims, 1, 7)[0] for c in circuits)
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
        outputs = [_LuCircuit(dims, direction, rotate, 2, r).transform(row, layers) for r in reps]
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
        search = _delta_search(row, np.ones(1), dims, mode, direction, 5)[0]
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
    "cap (ROADMAP item 1, open: a Newton step on the simplex)",
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
