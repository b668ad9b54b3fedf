"""Depth-1 ensemble-lu delta on 2xd and dx2 when the only rotated side is a qubit.

``qubits._qubit_delta_transforms`` covers a direction whose one rotated
side is a qubit: "control" with ``d_c = 2`` and "target" with ``d_t = 2``.
Member k is ``a (x) b``, and after ``CNOT^r`` its squared concurrence is
``C_k^2 = c_k (1 - (axis.r_k)^2)``, ``r_k`` the Bloch vector of the rotated
qubit part. With the qubit control rotated ``c_k = 1 - |<t_k|X^r t_k>|^2``,
``t_k`` the qudit target part, each r its own sphere problem; with the qubit
target rotated (r = 1) ``c_k = 1 - delta_k^2``, ``delta_k = sum_i (-1)^i
|a_{k,i}|^2`` over the control part. The other direction rotates a qudit and
still ascends. Checked here:

* the formula: the entanglement of ``CNOT^r`` after the local unitary, both
  built as matrices (``gates.cnot``, ``gates.embed_local``), is ``g(C^2)`` on
  2x3, 3x2, 2x4 and 4x2;
* optimality: on 200 seeded random sets per shape and rotation, the covered
  direction is at least the 4-restart U(2) ascent minus 1e-12, and never
  below fixed mode;
* real qubit parts, whose Bloch vectors lie on the xz great circle, give
  ``_per_state_closed``'s value for that direction;
* scope: the covered direction makes no ``_ascend`` call and ignores
  ``restarts`` and ``seed``, while depth 2 and ``rotate="both"`` still
  ascend it.
"""

import math

import numpy as np
import pytest

from nle import quantify, qubits
from nle.gates import cnot, embed_local
from nle.linalg import cnot_family, haar_unitary
from nle.quantify import Mode, _delta_search, _direction_seed, _pick_delta, nonlocal_entropy
from nle.states import Ensemble, PureState, entanglement_entropies

SHAPES = [(2, 3), (3, 2), (2, 4), (4, 2)]
CASES = [(dims, rotate) for dims in SHAPES for rotate in ("control", "target")]
PAULI = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.array([[1, 0], [0, -1]])}


def _covered(dims, rotate) -> str:
    """The direction whose rotated side is the qubit: its control (A in "right")
    for "control", its target for "target"."""
    qubit_a = dims[0] == 2
    return "right" if qubit_a == (rotate == "control") else "left"


def _roles(direction) -> tuple[int, int]:
    return (0, 1) if direction == "right" else (1, 0)  # the control's party, the target's


def _part(rng, d: int, real: bool = False) -> np.ndarray:
    v = rng.normal(size=d) + (0.0 if real else 1j * rng.normal(size=d))
    return v / np.linalg.norm(v)


def _random_set(seed: int, dims, real_party: int | None = None, shared_party: int | None = None) -> Ensemble:
    """Two to six random product members with Dirichlet weights; the parts of
    ``real_party`` are real, and ``shared_party`` has one part for every member."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    shared = _part(rng, dims[shared_party]) if shared_party is not None else None
    members = []
    for _ in range(k):
        parts = [_part(rng, d, p == real_party) for p, d in enumerate(dims)]
        if shared is not None:
            parts[shared_party] = shared
        members.append(PureState(dims, np.kron(*parts)))
    return Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), tuple(members))


def _g(c2: float) -> float:
    """Entanglement in bits of a pure state of Schmidt rank 2 and squared concurrence ``c2``."""
    p = (1.0 + math.sqrt(max(1.0 - c2, 0.0))) / 2.0
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _bloch(v) -> np.ndarray:
    return np.array([np.vdot(v, PAULI[s] @ v).real for s in "XYZ"])


def _formula_c2(a, b, direction, r, rotate, u) -> float:
    """``C^2`` of ``CNOT^r (U on the rotated qubit) (a (x) b)``, written from the parts."""
    control, target = (a, b) if direction == "right" else (b, a)
    if rotate == "control":
        axis = np.array([np.trace(u.conj().T @ PAULI["Z"] @ u @ PAULI[s]).real / 2.0 for s in "XYZ"])
        shift = np.linalg.matrix_power(np.roll(np.eye(len(target)), 1, axis=0), r)
        return (1.0 - abs(np.vdot(target, shift @ target)) ** 2) * (1.0 - (axis @ _bloch(control)) ** 2)
    axis = np.array([np.trace(u.conj().T @ PAULI["X"] @ u @ PAULI[s]).real / 2.0 for s in "XYZ"])
    delta = sum((-1) ** i * abs(x) ** 2 for i, x in enumerate(control))
    return (1.0 - delta**2) * (1.0 - (axis @ _bloch(target)) ** 2)


@pytest.mark.parametrize("dims,rotate", CASES)
def test_the_formula_is_the_circuit_entanglement(dims, rotate):
    rng = np.random.default_rng(19)
    direction = _covered(dims, rotate)
    control, target = _roles(direction)
    side = "AB"[control if rotate == "control" else target]
    reps = [r for d, r in cnot_family(dims) if d == direction]
    for _ in range(40):
        a, b, u = _part(rng, dims[0]), _part(rng, dims[1]), haar_unitary(2, rng)
        for r in reps:
            out = cnot(dims, "AB"[control], r) @ embed_local(u, dims, side) @ np.kron(a, b)
            got = float(entanglement_entropies(out, dims))
            assert abs(got - _g(_formula_c2(a, b, direction, r, rotate, u))) <= 1e-12, (direction, r)


def _one_direction(e: Ensemble, rotate: str, direction: str, restarts: int, seed: int, closed: bool) -> float:
    """The direction's value from its qubit form, as ``nonlocal_entropy`` takes
    and values it, or else from the search."""
    probs = np.array(e.probabilities)
    if closed:
        form = [c for c in qubits._qubit_delta_transforms(e, probs, rotate) if c[0] == direction]
        ents = entanglement_entropies(np.stack([t for _, _, t in form]), e.dims)
        found = _pick_delta([(d, r) for d, r, _ in form], ents, probs)
    else:
        mode = Mode("ensemble-lu", restarts=restarts, seed=seed, rotate=rotate)
        seeds = [{direction: _direction_seed(seed, direction)}]
        found = _delta_search(e.amplitudes[None], probs, e.dims, mode, seeds)[0]
    assert list(found) == [direction]
    return found[direction].value


@pytest.mark.parametrize("first", range(0, 200, 100))
@pytest.mark.parametrize("dims,rotate", CASES)
def test_at_least_the_ascent_and_never_below_fixed(dims, rotate, first):
    direction = _covered(dims, rotate)
    for seed in range(first, first + 100):
        e = _random_set(seed, dims)
        closed = _one_direction(e, rotate, direction, 1, 0, True)
        searched = _one_direction(e, rotate, direction, 4, seed, False)
        fixed = getattr(nonlocal_entropy(e, Mode("fixed")), direction)
        assert closed >= searched - 1e-12 and closed >= fixed - 1e-12, seed


@pytest.mark.parametrize("dims,rotate", CASES)
def test_real_qubit_parts_give_the_per_state_value(dims, rotate):
    direction = _covered(dims, rotate)
    control, target = _roles(direction)
    qubit, qudit = (control, target) if rotate == "control" else (target, control)
    # with the control rotated each member takes its best shift count, and
    # one count serves all when the target parts agree (beyond d_t = 3,
    # |<t|X^r t>| differs between counts)
    shared = qudit if rotate == "control" and dims[qudit] > 3 else None
    for seed in range(40):
        e = _random_set(seed, dims, real_party=qubit, shared_party=shared)
        closed = _one_direction(e, rotate, direction, 1, 0, True)
        per_state = float(np.array(e.probabilities) @ quantify._per_state_closed(e, direction, rotate))
        assert abs(closed - per_state) <= 1e-12, seed


@pytest.mark.parametrize("dims,rotate", CASES)
def test_no_ascent_rotates_the_qubit_at_depth_1(monkeypatch, dims, rotate):
    ascended = []  # the unitary dimensions of each ascent batch

    def first_values_only(f, starts):  # no steps: the test needs only the batches
        ascended.append(tuple(len(u) for u in starts[0]))
        values, _ = f(np.arange(len(starts)), [np.array(stack) for stack in zip(*starts)])
        return [(v, list(start)) for v, start in zip(values, starts)]

    monkeypatch.setattr(quantify, "_ascend", first_values_only)
    direction, e = _covered(dims, rotate), _random_set(3, dims)
    qudit = (max(dims),)
    reports = [nonlocal_entropy(e, Mode("ensemble-lu", restarts=r, seed=s, rotate=rotate))
               for r, s in ((1, 0), (3, 9))]
    assert ascended == [qudit] * 2  # only the other direction ascends, over its qudit
    assert getattr(reports[0], direction) == getattr(reports[1], direction)
    ascended.clear()
    nonlocal_entropy(e, Mode("ensemble-lu", depth=2, restarts=1, rotate=rotate))
    assert sorted(ascended) == sorted([qudit * 2, (2, 2)])
    ascended.clear()
    nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, rotate="both"))
    assert ascended == [tuple(dims)]
