"""The two-qubit depth-1 gap in closed form, against the search it replaced.

On 2x2 at depth 1, ensemble-lu big-delta runs no ascent for any rotation
(``qubits._qubit_transforms``): each side's squared Bloch norm after the
transform peaks at the top eigenvalue of a 3x3 form in the mixture's
Bloch and correlation data. Checked here, for "target", "control" and "both":

* attainment: the value read from the transformed stacks equals the formula,
  written out independently, within 1e-12. With the target rotated it is
  written in the target's Bloch axis, from the members' target parts (the
  control's top eigenvalue of ``aa^T + bb^T`` through the 2x2 Gram matrix of
  ``a`` and ``b``, the target's as ``(r_0.r_1 + |r_0||r_1|) / 2``); else from
  ``a``, ``b`` and ``T`` taken as traces of the 4x4 mixture: with the
  control rotated as the top eigenvalues of two rank-2 forms through their
  2x2 Gram matrices, with both as ``|c|^2 + lambda_max(K K^T - c c^T)``;
* optimality: on 200 seeded random sets per rotation, orthogonal and
  entangled, two to four members with Dirichlet weights, each direction is
  at least the 4-restart ascent (``_searched_transforms``, which every other
  shape still runs) minus 1e-12, and never below fixed mode;
* order: fixed <= target <= both and control <= both, and with both sides
  rotated the two directions agree, within 1e-12;
* the degenerate cases: two product sets whose control marginal is exactly
  maximally mixed, where the control's best axis is any axis off the top
  eigenvector, and a tie of the two sides' drops, which side A wins;
* no ``_ascend`` or ``_starts`` call, so ``restarts`` and ``seed`` have no
  effect; depth 2 and a qutrit side still ascend, and so does delta at depth
  2, with a qutrit side, or with both sides rotated and neither party's parts
  on a great circle (``test_qubit_delta_closed.py`` checks the delta cases
  that do not).
"""

import functools
import math

import numpy as np
import pytest

from nle import catalog, quantify
from nle.quantify import (DIRECTIONS, ROTATE_CHOICES, Mode, _direction_seed, _gap_objective,
                          _gap_search, _searched_transforms, average_entropy_gap, nonlocal_entropy)
from nle.qubits import _qubit_transforms
from nle.states import Ensemble, PureState, average_state, mixture_marginal_entropies

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def _closed(rotate: str) -> Mode:
    return Mode("ensemble-lu", restarts=1, rotate=rotate)


def _random_set(seed: int) -> Ensemble:
    """Odd seeds: k orthogonal states; even seeds: k independent pure states."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    if seed % 2:
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        amps = np.linalg.qr(z)[0][:, :k].T
    else:
        amps = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return Ensemble((2, 2), tuple(rng.dirichlet(np.ones(k))), tuple(PureState((2, 2), a) for a in amps))


def _entropy(total: float, length2: float) -> float:
    """Entropy in bits of the eigenvalues ``(total +- sqrt(length2)) / 2``."""
    v = math.sqrt(max(length2, 0.0))
    return -sum(x * math.log2(x) for x in ((total + v) / 2.0, (total - v) / 2.0) if x > 1e-300)


def _gram_top(x, y) -> float:
    """Top eigenvalue of ``x x^T + y y^T``, through the 2x2 Gram matrix of ``x`` and ``y``."""
    return (x @ x + y @ y + math.hypot(x @ x - y @ y, 2.0 * (x @ y))) / 2.0


def _target_norms(e: Ensemble, direction: str) -> tuple[float, float, float]:
    """The trace and the best squared Bloch norms (control, target) with the
    target rotated, from the target parts of the members."""
    m = e.amplitudes.reshape(len(e), 2, 2)
    if direction == "left":  # B controls: the target parts are the columns
        m = m.swapaxes(1, 2)
    probs = np.array(e.probabilities)
    block = lambda i, j: sum(p * np.outer(x[i], x[j].conj()) for p, x in zip(probs, m))  # noqa: E731
    c = np.array([np.trace(s @ block(0, 1)) for s in PAULI])
    r_0, r_1 = (np.array([np.trace(s @ block(i, i)).real for s in PAULI]) for i in (0, 1))
    t_0, t_1 = (np.trace(block(i, i)).real for i in (0, 1))
    target_top = (r_0 @ r_1 + np.linalg.norm(r_0) * np.linalg.norm(r_1)) / 2.0
    return (t_0 + t_1, (t_0 - t_1) ** 2 + 4.0 * _gram_top(c.real, c.imag),
            (r_0 - r_1) @ (r_0 - r_1) + 4.0 * target_top)


def _formula(e: Ensemble, direction: str, rotate: str) -> float:
    """The larger best side drop of one direction, from the proofs' formulas."""
    if rotate == "target":
        total, control, target = _target_norms(e, direction)
    else:
        rho = average_state(e)
        corr = np.array([[np.trace(rho @ np.kron(s, t)).real for t in (np.eye(2),) + PAULI]
                         for s in (np.eye(2),) + PAULI])
        a, b, t, total = corr[1:, 0], corr[0, 1:], corr[1:, 1:], corr[0, 0]
        if direction == "left":
            a, b, t = b, a, t.T
        if rotate == "control":  # the target's axis stays at e_x
            v = t[:, 0]  # |v|^2 plus the top eigenvalue of aa^T - vv^T
            s = a @ a + v @ v
            control = (s + math.sqrt(max(s * s - 4.0 * (a @ v) ** 2, 0.0))) / 2.0
            target = b[0] ** 2 + _gram_top(t[:, 1], t[:, 2])
        else:
            control = a @ a + np.linalg.eigvalsh(t @ t.T - np.outer(a, a))[-1]
            target = b @ b + np.linalg.eigvalsh(t.T @ t - np.outer(b, b))[-1]
    s_a, s_b = e.mixture_entropies
    s_control, s_target = (s_a, s_b) if direction == "right" else (s_b, s_a)
    return max(s_control - _entropy(total, control), s_target - _entropy(total, target))


def _searched(e: Ensemble, seed: int, rotate: str) -> dict:
    """Direction -> the larger side drop of the 4-restart ascent's transform."""
    probs, s_bar = np.array(e.probabilities), e.mixture_entropies
    objective = functools.partial(_gap_objective, probs=probs, dims=e.dims, s_bar=s_bar)
    seeds = {d: _direction_seed(seed, d) for d in DIRECTIONS}
    mode = Mode("ensemble-lu", restarts=4, seed=seed, rotate=rotate)
    out = {}
    for d, _, t in _searched_transforms(e.amplitudes[None], e.dims, mode, objective, [seeds], "AB")[0]:
        s_a, s_b = mixture_marginal_entropies(t, probs, e.dims)
        out[d] = max(s_bar[0] - s_a, s_bar[1] - s_b)
    return out


def _controlled_product(target_1) -> Ensemble:
    """``{|0>|0>, |1>|target_1>}``, equal weights: A's Bloch vector is exactly 0,
    so with both sides rotated the control's best axis is any axis off ``w``."""
    members = (np.kron([1, 0], [1, 0]), np.kron([0, 1], target_1))
    return Ensemble((2, 2), (0.5, 0.5), tuple(PureState((2, 2), m) for m in members))


INPUTS = [(name, catalog.build(name)) for name in ("bell-triple", "orth-pair", "ghosh-nonmax")]
INPUTS += [("00-11", _controlled_product(np.array([0.0, 1.0]))),
           ("00-1plus", _controlled_product(np.array([1.0, 1.0]) / math.sqrt(2.0)))]
INPUTS += [(f"random-{seed}", _random_set(seed)) for seed in range(20)]


@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
@pytest.mark.parametrize("name,e", INPUTS, ids=[n for n, _ in INPUTS])
def test_transformed_stack_attains_the_formula(name, e, rotate):
    probs, s_bar = np.array(e.probabilities), e.mixture_entropies
    for d, r, t in _qubit_transforms(e, probs, s_bar, rotate):
        s_a, s_b = mixture_marginal_entropies(t, probs, e.dims)
        assert r == 1
        assert abs(max(s_bar[0] - s_a, s_bar[1] - s_b) - _formula(e, d, rotate)) <= 1e-12, d


@pytest.mark.parametrize("first", range(0, 200, 50))
@pytest.mark.parametrize("rotate", ROTATE_CHOICES)
def test_at_least_the_ascent_and_never_below_fixed(rotate, first):
    for seed in range(first, first + 50):
        e = _random_set(seed)
        closed, searched = _gap_search(e, _closed(rotate)), _searched(e, seed, rotate)
        fixed = average_entropy_gap(e, Mode("fixed"))
        for d in DIRECTIONS:
            assert closed[d].value >= searched[d] - 1e-12, (seed, d)
            assert closed[d].value >= getattr(fixed, d) - 1e-12, (seed, d)


ORDERED = [e for _, e in INPUTS] + [_random_set(seed) for seed in range(20, 200)]


@pytest.mark.parametrize("first", range(0, len(ORDERED), 51))
def test_rotations_are_ordered_and_both_is_symmetric(first):
    for i, e in enumerate(ORDERED[first : first + 51], first):
        fixed = average_entropy_gap(e, Mode("fixed"))
        lu = {rotate: average_entropy_gap(e, _closed(rotate)) for rotate in ROTATE_CHOICES}
        for d in DIRECTIONS:
            value = {name: getattr(r, d) for name, r in (("fixed", fixed), *lu.items())}
            assert value["fixed"] <= value["target"] + 1e-12, (i, d)
            assert value["target"] <= value["both"] + 1e-12, (i, d)
            assert value["control"] <= value["both"] + 1e-12, (i, d)
        assert abs(lu["both"].right - lu["both"].left) <= 1e-12, i


def test_side_a_wins_equal_drops():
    # on {|00>, |11>} both sides of "right" can reach a pure marginal: the
    # control's through the rotations, the target's at the identity; as in
    # the search, the A side's transform is kept
    r = average_entropy_gap(dict(INPUTS)["00-11"], _closed("both"))
    assert r.side_gaps_right[0] >= 1.0 - 1e-12 and abs(r.side_gaps_right[1]) <= 1e-12


def _counting(monkeypatch) -> list:
    calls = []
    for name in ("_ascend", "_starts"):
        original = getattr(quantify, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(quantify, name, counted)
    return calls


def _spread_product_set() -> Ensemble:
    """``|0>|+i>``, ``|+>|0>``, ``|+i>|+>``: each party's Bloch vectors are z, x
    and y in some order, on no great circle."""
    zero, plus, plus_i = np.array([1, 0]), np.array([1, 1]) / math.sqrt(2.0), np.array([1, 1j]) / math.sqrt(2)
    members = (np.kron(zero, plus_i), np.kron(plus, zero), np.kron(plus_i, plus))
    return Ensemble.uniform((2, 2), tuple(PureState((2, 2), m) for m in members))


def test_only_the_two_qubit_depth_1_gap_skips_the_ascent(monkeypatch):
    calls = _counting(monkeypatch)
    bell, case = catalog.build("bell-triple"), catalog.build("case-3x2")
    for rotate in ROTATE_CHOICES:
        reports = [average_entropy_gap(bell, Mode("ensemble-lu", restarts=r, seed=s, rotate=rotate))
                   for r, s in ((1, 0), (4, 9))]
        assert calls == [], rotate
        assert reports[0].right == reports[1].right and reports[0].left == reports[1].left, rotate
    still_searched = (
        (average_entropy_gap, bell, Mode("ensemble-lu", depth=2, restarts=1, rotate="target")),
        (average_entropy_gap, bell, Mode("ensemble-lu", depth=2, restarts=1, rotate="both")),
        (average_entropy_gap, case, Mode("ensemble-lu", restarts=1, rotate="target")),
        (average_entropy_gap, case, Mode("ensemble-lu", restarts=1, rotate="both")),
        # delta: two qubits at depth 2, both sides rotated with neither party's
        # parts on a great circle (Bloch vectors along x, y and z), a qutrit side
        (nonlocal_entropy, catalog.build("e2-case2"),
         Mode("ensemble-lu", depth=2, restarts=1, rotate="target")),
        (nonlocal_entropy, _spread_product_set(), Mode("ensemble-lu", restarts=1, rotate="both")),
        # a qutrit target whose plain shifts fall short of the per-state ceiling
        (nonlocal_entropy, catalog.build("tiles-upb"), Mode("ensemble-lu", restarts=1, rotate="target")),
        (nonlocal_entropy, case, Mode("ensemble-lu", restarts=1, rotate="control")),
    )
    for quantifier, e, mode in still_searched:
        calls.clear()
        quantifier(e, mode)
        assert "_ascend" in calls and "_starts" in calls, (e.dims, mode)
