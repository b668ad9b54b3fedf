"""The two-qubit target-rotated gap in closed form, against the search it replaced.

On 2x2 with the target rotated at depth 1, ensemble-lu big-delta runs no
ascent (``quantify._qubit_target_transforms``): each side's best drop is a
quadratic form in the Bloch axis ``n`` of ``U^dag X U``, maximized by its top
eigenvector. Checked here:

* attainment: the value read from the transformed stacks equals the formula,
  written out independently (the control's top eigenvalue of ``aa^T + bb^T``
  through the 2x2 Gram matrix of ``a`` and ``b``, the target's as
  ``(r_0.r_1 + |r_0||r_1|) / 2``), within 1e-12;
* optimality: on 200 seeded random sets, orthogonal and entangled, two to
  four members with Dirichlet weights, each direction is at least the
  4-restart ascent (``_searched_transforms``, which every other shape still
  runs) minus 1e-12, and never below fixed mode;
* no ``_ascend`` or ``_starts`` call, so ``restarts`` and ``seed`` have no
  effect; the both and control rotations, depth 2, a qutrit side and delta
  still ascend.
"""

import functools
import math

import numpy as np
import pytest

from nle import catalog, quantify
from nle.quantify import (DIRECTIONS, Mode, _direction_seed, _gap_objective, _gap_search,
                          _qubit_target_transforms, _searched_transforms, average_entropy_gap,
                          nonlocal_entropy)
from nle.states import Ensemble, PureState, mixture_marginal_entropies

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
CLOSED = Mode("ensemble-lu", restarts=1, rotate="target")


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


def _formula(e: Ensemble, direction: str) -> float:
    """The larger best side drop of one direction, from the proof's formulas."""
    m = e.amplitudes.reshape(len(e), 2, 2)
    if direction == "left":  # B controls: the target parts are the columns
        m = m.swapaxes(1, 2)
    probs = np.array(e.probabilities)
    block = lambda i, j: sum(p * np.outer(x[i], x[j].conj()) for p, x in zip(probs, m))  # noqa: E731
    c = np.array([np.trace(s @ block(0, 1)) for s in PAULI])
    a, b = c.real, c.imag
    r_0, r_1 = (np.array([np.trace(s @ block(i, i)).real for s in PAULI]) for i in (0, 1))
    t_0, t_1 = (np.trace(block(i, i)).real for i in (0, 1))
    gram_top = (a @ a + b @ b + math.hypot(a @ a - b @ b, 2.0 * (a @ b))) / 2.0
    target_top = (r_0 @ r_1 + np.linalg.norm(r_0) * np.linalg.norm(r_1)) / 2.0
    s_control = _entropy(t_0 + t_1, (t_0 - t_1) ** 2 + 4.0 * gram_top)
    s_target = _entropy(t_0 + t_1, (r_0 - r_1) @ (r_0 - r_1) + 4.0 * target_top)
    s_a, s_b = e.mixture_entropies
    control, target = (s_a, s_b) if direction == "right" else (s_b, s_a)
    return max(control - s_control, target - s_target)


def _searched(e: Ensemble, seed: int) -> dict:
    """Direction -> the larger side drop of the 4-restart ascent's transform."""
    probs, s_bar = np.array(e.probabilities), e.mixture_entropies
    objective = functools.partial(_gap_objective, probs=probs, dims=e.dims, s_bar=s_bar)
    seeds = {d: _direction_seed(seed, d) for d in DIRECTIONS}
    mode = Mode("ensemble-lu", restarts=4, seed=seed, rotate="target")
    out = {}
    for d, _, t in _searched_transforms(e.amplitudes[None], e.dims, mode, objective, [seeds], "AB")[0]:
        s_a, s_b = mixture_marginal_entropies(t, probs, e.dims)
        out[d] = max(s_bar[0] - s_a, s_bar[1] - s_b)
    return out


INPUTS = [(name, catalog.build(name)) for name in ("bell-triple", "orth-pair", "ghosh-nonmax")]
INPUTS += [(f"random-{seed}", _random_set(seed)) for seed in range(20)]


@pytest.mark.parametrize("name,e", INPUTS, ids=[n for n, _ in INPUTS])
def test_transformed_stack_attains_the_formula(name, e):
    probs, s_bar = np.array(e.probabilities), e.mixture_entropies
    for d, r, t in _qubit_target_transforms(e, probs, s_bar):
        s_a, s_b = mixture_marginal_entropies(t, probs, e.dims)
        assert r == 1
        assert abs(max(s_bar[0] - s_a, s_bar[1] - s_b) - _formula(e, d)) <= 1e-12, d


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_at_least_the_ascent_and_never_below_fixed(first):
    for seed in range(first, first + 50):
        e = _random_set(seed)
        closed, searched = _gap_search(e, CLOSED), _searched(e, seed)
        fixed = average_entropy_gap(e, Mode("fixed"))
        for d in DIRECTIONS:
            assert closed[d].value >= searched[d] - 1e-12, (seed, d)
            assert closed[d].value >= getattr(fixed, d) - 1e-12, (seed, d)


def _counting(monkeypatch) -> list:
    calls = []
    for name in ("_ascend", "_starts"):
        original = getattr(quantify, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(quantify, name, counted)
    return calls


def test_only_the_two_qubit_target_gap_skips_the_ascent(monkeypatch):
    calls = _counting(monkeypatch)
    bell, case = catalog.build("bell-triple"), catalog.build("case-3x2")
    reports = [average_entropy_gap(bell, Mode("ensemble-lu", restarts=r, seed=s, rotate="target"))
               for r, s in ((1, 0), (4, 9))]
    assert calls == []
    assert reports[0].right == reports[1].right and reports[0].left == reports[1].left
    still_searched = (
        (average_entropy_gap, bell, Mode("ensemble-lu", restarts=1, rotate="both")),
        (average_entropy_gap, bell, Mode("ensemble-lu", restarts=1, rotate="control")),
        (average_entropy_gap, bell, Mode("ensemble-lu", depth=2, restarts=1, rotate="target")),
        (average_entropy_gap, case, Mode("ensemble-lu", restarts=1, rotate="target")),
        (nonlocal_entropy, catalog.build("e2-case2"), Mode("ensemble-lu", restarts=1, rotate="target")),
    )
    for quantifier, e, mode in still_searched:
        calls.clear()
        quantifier(e, mode)
        assert "_ascend" in calls and "_starts" in calls, (e.dims, mode)
