"""The two-qubit depth-1 delta on Bloch axes, against the ascent it replaced.

On 2x2 at depth 1, ensemble-lu delta (``qubits._qubit_delta_transforms``)
values member k at ``C_k^2 = (1 - (u.r_c)^2)(1 - (n.r_t)^2)``, ``u`` and
``n`` the control's and the target's axes and ``r_c``, ``r_t`` the Bloch
vectors of its parts. A party whose parts lie on one great circle takes the
circle's normal; one free axis is searched on the sphere; with both sides
rotated and neither party on a circle the ascent still runs. Checked here:

* the formula: the entanglement of ``CNOT (U_c (x) U_t)`` on a product
  member, computed from the matrices, is ``g(C^2)``;
* attainment: each reported direction equals the formula, written out here
  from the members and the unitaries the transform used, within 1e-12;
* optimality: on 200 seeded random sets per rotation, two to six members
  with Dirichlet weights (for "both" one party's parts real, so on a
  circle), each direction is at least the 4-restart ascent
  (``_searched_transforms``) minus 1e-12, and never below fixed mode;
* the great-circle cases, where every rotated party lies on a circle, equal
  per-state-lu within 1e-12;
* no ``_ascend`` or ``_starts`` call for "target", "control" and "both" with
  a party on a circle, so ``restarts`` and ``seed`` have no effect;
* the sphere search's derivatives, its finite terms where a member's
  concurrence is 0 or 1, and its step budget.
"""

import math

import numpy as np
import pytest

from nle import catalog, quantify, qubits
from nle.errors import BadValue
from nle.linalg import cnot_family, haar_unitary
from nle.quantify import (DIRECTIONS, ROTATE_CHOICES, Mode, _delta_search, _direction_seed,
                          nonlocal_entropy)
from nle.qubits import _sphere_terms
from nle.states import Ensemble, PureState, entanglement_entropies

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
CNOT = {"right": np.eye(4)[[0, 1, 3, 2]], "left": np.eye(4)[[0, 3, 2, 1]]}


def _closed(rotate: str, restarts: int = 1, seed: int = 0) -> Mode:
    return Mode("ensemble-lu", restarts=restarts, seed=seed, rotate=rotate)


def _part(rng, real: bool) -> np.ndarray:
    v = rng.normal(size=2) + (0.0 if real else 1j * rng.normal(size=2))
    return v / np.linalg.norm(v)


def _random_set(seed: int, real: str = "") -> Ensemble:
    """Two to six random product members, Dirichlet weights; the parts of the
    parties in ``real`` are real, so their Bloch vectors lie on the xz circle."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    members = [np.kron(_part(rng, "A" in real), _part(rng, "B" in real)) for _ in range(k)]
    return Ensemble((2, 2), tuple(rng.dirichlet(np.ones(k))), tuple(PureState((2, 2), m) for m in members))


def _one_circle(seed: int) -> Ensemble:
    return _random_set(seed, "AB"[seed % 2])


def _g(c2: float) -> float:
    """Entanglement in bits of a pure two-qubit state of squared concurrence ``c2``."""
    p = (1.0 + math.sqrt(max(1.0 - c2, 0.0))) / 2.0
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _bloch(v) -> np.ndarray:
    return np.array([np.vdot(v, s @ v).real for s in PAULI])


def _axis(u, reference) -> np.ndarray:
    """``a`` with ``u^dag (reference.s) u = a.s``."""
    return np.array([np.trace(u.conj().T @ reference @ u @ s).real / 2.0 for s in PAULI])


def _formula(e: Ensemble, direction: str, u_c, u_t) -> float:
    """Delta of one direction at the control and target unitaries ``u_c``, ``u_t``."""
    u, n = _axis(u_c, PAULI[2]), _axis(u_t, PAULI[0])
    total = 0.0
    for p, s in zip(e.probabilities, e.states):
        m = s.amplitudes.reshape(2, 2)
        if direction == "left":  # B controls: its part is a row of m
            m = m.T
        col = int(np.argmax(np.linalg.norm(m, axis=0)))
        row = int(np.argmax(np.linalg.norm(m, axis=1)))
        a, b = m[:, col] / np.linalg.norm(m[:, col]), m[row] / np.linalg.norm(m[row])
        total += p * _g((1.0 - (u @ _bloch(a)) ** 2) * (1.0 - (n @ _bloch(b)) ** 2))
    return total


def test_the_formula_is_the_circuit_entanglement():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = _part(rng, False), _part(rng, False)
        u_a, u_b = haar_unitary(2, rng), haar_unitary(2, rng)
        e = Ensemble((2, 2), (1.0,), (PureState((2, 2), np.kron(a, b)),))
        for direction in DIRECTIONS:
            out = CNOT[direction] @ np.kron(u_a @ a, u_b @ b)
            u_c, u_t = (u_a, u_b) if direction == "right" else (u_b, u_a)
            got = float(entanglement_entropies(out, (2, 2)))
            assert abs(got - _formula(e, direction, u_c, u_t)) <= 1e-12, direction


@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
def test_qubit_circuit_gives_the_lu_circuit_bytes(rotate):
    # the forms apply their unitaries directly; the batched circuit of the
    # searches is the reference, bit for bit and in its memory layout
    rng = np.random.default_rng(17)
    circuit = quantify._LuCircuit((2, 2), rotate, 1, cnot_family((2, 2)))
    for _ in range(50):
        e = _random_set(int(rng.integers(1000)))
        chosen = [(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in DIRECTIONS]
        point = [np.array([dict(zip(("AB", "BA")[d], chosen[d]))[party] for d, party in enumerate(parties)])
                 for parties in zip(*(quantify._rotated_sides(d, rotate) for d in DIRECTIONS))]
        want = circuit.transform(np.arange(2), np.stack([e.amplitudes] * 2), point)
        got = qubits._qubit_circuit(e, rotate, dict(zip(cnot_family((2, 2)), chosen)))
        assert [(d, r) for d, r, _ in got] == list(cnot_family((2, 2)))
        for (_, _, t), w in zip(got, want):
            assert t.flags.c_contiguous and t.tobytes() == w.tobytes()


def _spy(monkeypatch) -> list:
    used = []
    original = qubits._qubit_circuit

    def spied(e, rotate, chosen):
        used.append([tuple(np.array(u) for u in pair) for pair in chosen.values()])
        return original(e, rotate, chosen)

    monkeypatch.setattr(qubits, "_qubit_circuit", spied)
    return used


ATTAIN = [(f"random-{seed}", _random_set(seed)) for seed in range(20)]
ATTAIN += [(f"one-circle-{seed}", _one_circle(seed)) for seed in range(20, 30)]
ATTAIN += [(name, catalog.build(name)) for name in ("e1-computational", "e2-case2", "walgate-hardy")]


@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
@pytest.mark.parametrize("name,e", ATTAIN, ids=[n for n, _ in ATTAIN])
def test_reported_value_attains_the_formula(monkeypatch, name, e, rotate):
    used = _spy(monkeypatch)
    r = nonlocal_entropy(e, _closed(rotate))
    if not used:  # "both" with neither party on a circle: the ascent ran
        assert rotate == "both" and name.startswith("random"), name
        return
    for d, (u_c, u_t) in zip(DIRECTIONS, used[0]):
        assert abs(getattr(r, d) - _formula(e, d, u_c, u_t)) <= 1e-12, d


def _ascent(e: Ensemble, rotate: str, seed: int) -> dict:
    """Direction -> the 4-restart ascent's value (the search every other shape runs)."""
    seeds = {d: _direction_seed(seed, d) for d in DIRECTIONS}
    mode = Mode("ensemble-lu", restarts=4, seed=seed, rotate=rotate)
    found = _delta_search(e.amplitudes[None], np.array(e.probabilities), e.dims, mode, [seeds])[0]
    return {d: found[d].value for d in DIRECTIONS}


@pytest.mark.parametrize("first", range(0, 200, 50))
@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
def test_at_least_the_ascent_and_never_below_fixed(rotate, first):
    for seed in range(first, first + 50):
        e = _one_circle(seed) if rotate == "both" else _random_set(seed)
        closed, searched = nonlocal_entropy(e, _closed(rotate)), _ascent(e, rotate, seed)
        fixed = nonlocal_entropy(e, Mode("fixed"))
        for d in DIRECTIONS:
            assert getattr(closed, d) >= searched[d] - 1e-12, (seed, d)
            assert getattr(closed, d) >= getattr(fixed, d) - 1e-12, (seed, d)


CIRCLES = [catalog.build(name) for name in ("e1-computational", "e2-case2", "walgate-hardy")]
CIRCLES += [_random_set(seed, "AB") for seed in range(40)]  # real parts: every party on the xz circle


@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
def test_great_circles_give_the_per_state_value(rotate):
    rng = np.random.default_rng(3)
    pair = tuple(PureState((2, 2), np.kron(_part(rng, False), _part(rng, False))) for _ in range(2))
    # two members always lie on a circle, whatever their parts
    for i, e in enumerate(CIRCLES + [Ensemble((2, 2), (0.3, 0.7), pair)]):
        closed = nonlocal_entropy(e, _closed(rotate))
        per_state = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
        for d in DIRECTIONS:
            assert abs(getattr(closed, d) - getattr(per_state, d)) <= 1e-12, (i, d)


def _counting(monkeypatch) -> list:
    calls = []
    for name in ("_ascend", "_starts"):
        original = getattr(quantify, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(quantify, name, counted)
    return calls


def test_no_ascent_for_target_control_and_both_on_a_circle(monkeypatch):
    calls = _counting(monkeypatch)
    cases = [(rotate, _random_set(5)) for rotate in ("target", "control")]
    cases += [("both", _one_circle(6)), ("both", _one_circle(7)), ("both", catalog.build("e2-case2"))]
    for rotate, e in cases:
        reports = [nonlocal_entropy(e, _closed(rotate, r, s)) for r, s in ((1, 0), (4, 9))]
        assert calls == [], rotate
        assert reports[0].right == reports[1].right and reports[0].left == reports[1].left, rotate
    nonlocal_entropy(_random_set(5), _closed("both"))  # neither party on a circle
    assert "_ascend" in calls and "_starts" in calls


def _terms_at(n, r, c, probs):
    value, grad, hess = _sphere_terms(n[None], r[None], c[None], probs)
    return value[0], grad[0], hess[0]


def test_sphere_terms_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        r = rng.normal(size=(k, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        c, probs = rng.uniform(0.05, 1.0, size=k), rng.dirichlet(np.ones(k))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        value, grad, hess = _terms_at(n, r, c, probs)
        xi = np.cross(n, rng.normal(size=3))
        xi /= np.linalg.norm(xi)
        h = 1e-4
        f = [_terms_at(math.cos(t) * n + math.sin(t) * xi, r, c, probs)[0] for t in (-h, 0.0, h)]
        assert abs(grad @ n) <= 1e-15 and abs((f[2] - f[0]) / (2 * h) - grad @ xi) <= 1e-7
        assert abs((f[2] - 2 * f[1] + f[0]) / h**2 - xi @ hess @ xi) <= 1e-4


def test_sphere_terms_are_finite_where_a_concurrence_is_0_or_1():
    r = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for c in (np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])):
        # n = e_z: member 0 is unentangled, member 1 at its ceiling (x = 0)
        value, grad, hess = _terms_at(np.array([0.0, 0.0, 1.0]), r, c, np.array([0.5, 0.5]))
        assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all(), c


def test_sphere_ascent_budget_raises_bad_value(monkeypatch):
    monkeypatch.setattr(qubits, "_ASCENT_ROUNDS", 1)
    with pytest.raises(BadValue):
        nonlocal_entropy(_random_set(5), _closed("target"))

