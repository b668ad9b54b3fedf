"""The Riemannian gradient ascent behind every lu search (``quantify._ascend``).

(a) The analytic gradients of both objectives, taken back through the
circuit (``_LuCircuit.backward``), match central finite differences along
random directions of the unitary group, at depth 1 and 2, for every rotation
and both directions.
(b) At depth 1 the Riemannian gradient has no component along the gauge
directions: a diagonal phase on the control and a Fourier-diagonal unitary
on the target both commute with the controlled shift.
(c) The ascent reaches the values the catalog lu searches are known to have,
never falls below the parameter-free circuit or above the per-state closed
form, is deterministic for a seed, and raises ``BadValue`` (exit code 2)
rather than return a number when its step budget runs out.
(d) The search takes a gradient only where it moves from: one backward row
at each ascent's start and one per accepted step (the steps its budget
counts), none at a rejected trial or at the identity; the ascents of one
batch share each backward call, and the objectives of one circuit share one
set of starts.
"""

import functools
import math

import numpy as np
import pytest

import nle.quantify as quantify
from nle import catalog
from nle.cli import main
from nle.errors import BadValue
from nle.linalg import cnot_family, expm_hermitian_unchecked, haar_unitary
from nle.quantify import (
    Mode,
    _ascend,
    _delta_objective,
    _gap_objective,
    _LuCircuit,
    _maximize,
    _starts,
    average_entropy_gap,
    nonlocal_entropy,
)
from nle.states import Ensemble, PureState, mixture_marginal_entropies

OBJECTIVES = ("delta", "gap-A", "gap-B")
ROTATIONS = ("both", "target", "control")


def _random_ensemble(dims, k, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(k, dims[0] * dims[1])) + 1j * rng.normal(size=(k, dims[0] * dims[1]))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return Ensemble(dims, tuple(rng.dirichlet(np.ones(k))), tuple(PureState(dims, a) for a in amps))


def _objective(kind, e):
    """The objective of ``kind`` on ``e`` and whether it values side A."""
    probs = np.array(e.probabilities)
    if kind == "delta":
        return functools.partial(_delta_objective, probs=probs, dims=e.dims), True
    s_bar = mixture_marginal_entropies(e.amplitudes, probs, e.dims)
    return functools.partial(_gap_objective, probs=probs, dims=e.dims, s_bar=s_bar), kind == "gap-A"


def _batch(dims, direction, rotate, depth, e, kind, size=1):
    """``size`` copies of one circuit and the batch's function for ``_ascend``."""
    circuit = _LuCircuit(dims, rotate, depth, [(direction, 1)] * size)
    objective, on_a = _objective(kind, e)
    return circuit, circuit.on(e.amplitudes, objective, [on_a] * size)


def _single(f):
    """Problem 0 of the batch function ``f`` as ``us -> (value, callable giving
    its gradients)``."""

    def single(us):
        values, gammas = f(np.arange(1), [u[None] for u in us])
        return values[0], lambda: [g[0] for g in gammas(slice(None))]

    return single


def _skew(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z - z.conj().T) / 2.0


@pytest.mark.parametrize("direction", ["right", "left"])
@pytest.mark.parametrize("rotate", ROTATIONS)
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("kind", OBJECTIVES)
@pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_gradient_matches_central_differences(dims, kind, depth, rotate, direction):
    e = _random_ensemble(dims, 3, seed=dims[0] * 10 + depth)
    circuit, batch = _batch(dims, direction, rotate, depth, e, kind)
    f = _single(batch)
    rng = np.random.default_rng(len(kind) + 7 * depth)
    us = [haar_unitary(d, rng) for d in circuit.unitary_dims]
    gammas = f(us)[1]()
    for _ in range(3):
        xs = [_skew(rng, d) for d in circuit.unitary_dims]
        # d/de f(exp(e X_j) U_j) at 0 is 2 Re sum_j tr(Gamma_j^dag X_j U_j)
        analytic = 2.0 * sum(np.vdot(g, x @ u).real for g, x, u in zip(gammas, xs, us))
        eps = 1e-5

        def moved(sign):
            return f([expm_hermitian_unchecked(-1j * sign * eps * x) @ u for x, u in zip(xs, us)])[0]

        numeric = (moved(1.0) - moved(-1.0)) / (2.0 * eps)
        assert abs(numeric - analytic) <= 1e-8, (numeric, analytic)


@pytest.mark.parametrize("direction", ["right", "left"])
@pytest.mark.parametrize("kind", OBJECTIVES)
@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)], ids=["3x3", "2x3", "3x2"])
def test_gauge_directions_have_zero_gradient(dims, kind, direction):
    e = _random_ensemble(dims, 4, seed=sum(dims))
    circuit, batch = _batch(dims, direction, "both", 1, e, kind)
    rng = np.random.default_rng(3)
    us = [haar_unitary(d, rng) for d in circuit.unitary_dims]
    gammas = _single(batch)(us)[1]()
    w = dict(zip("AB", (g @ u.conj().T - u @ g.conj().T for g, u in zip(gammas, us))))
    control, target = ("A", "B") if direction == "right" else ("B", "A")
    d_t = w[target].shape[0]
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d_t), np.arange(d_t)) / d_t) / math.sqrt(d_t)
    assert np.abs(w[control]).max() > 1e-3  # the point is not critical
    assert np.abs(np.diagonal(w[control])).max() <= 1e-12
    assert np.abs(np.diagonal(fourier.conj().T @ w[target] @ fourier)).max() <= 1e-12


def test_nlwe_ensemble_lu_reaches_its_known_value():
    r = nonlocal_entropy(catalog.build("nlwe-3x3"), Mode("ensemble-lu", restarts=4))
    for value in (r.right, r.left, r.symmetric):
        assert abs(value - 1.4036419183) <= 1e-9, value


def test_more_nl_mixed_gap_reaches_its_known_value():
    r = average_entropy_gap(catalog.build("more-nl-mixed"), Mode("ensemble-lu", restarts=1))
    for value in (r.right, r.left):
        assert value >= 0.5172246702281774 - 1e-9, value


@pytest.mark.parametrize("rotate", ROTATIONS)
@pytest.mark.parametrize("name", ["e2-case2", "case-3x2", "nlwe-3x3"])
def test_ensemble_lu_between_fixed_and_per_state(name, rotate):
    e = catalog.build(name)
    fixed = nonlocal_entropy(e, Mode("fixed"))
    searched = nonlocal_entropy(e, Mode("ensemble-lu", restarts=1, seed=2, rotate=rotate))
    per_state = nonlocal_entropy(e, Mode("per-state-lu", rotate=rotate))
    for direction in ("right", "left"):
        value = getattr(searched, direction)
        assert getattr(fixed, direction) <= value + 1e-12, direction
        assert value <= getattr(per_state, direction) + 1e-12, direction


@pytest.mark.parametrize("quantifier", [nonlocal_entropy, average_entropy_gap])
def test_same_seed_same_report(quantifier):
    name = "e2-case2" if quantifier is nonlocal_entropy else "bell-triple"
    mode = Mode("ensemble-lu", depth=2, restarts=2, seed=5)
    first, second = (quantifier(catalog.build(name), mode) for _ in range(2))
    assert first == second and first.work == second.work


def test_step_budget_raises_bad_value(monkeypatch, capsys):
    monkeypatch.setattr(quantify, "_ASCENT_ROUNDS", 1)
    with pytest.raises(BadValue) as err:
        nonlocal_entropy(catalog.build("e2-case2"), Mode("ensemble-lu", depth=2, restarts=1))
    assert err.value.code == "bad-value"
    assert main(["big-delta", "--ensemble", "bell-triple", "--mode", "ensemble-lu", "--depth", "2"]) == 2
    assert "bad-value" in capsys.readouterr().err


@pytest.mark.parametrize("rotate", ROTATIONS)
@pytest.mark.parametrize("kind", OBJECTIVES)
def test_gradient_taken_only_where_the_ascent_moves(monkeypatch, kind, rotate):
    e = _random_ensemble((2, 3), 3, seed=6)
    circuit, f = _batch(e.dims, "right", rotate, 1, e, kind, size=3)
    passes, backward = [], circuit.backward
    circuit.backward = lambda rows, *args: passes.append(len(rows)) or backward(rows, *args)
    starts = _starts(circuit.unitary_dims, 3, seed=11)
    per_ascent = []
    for start in starts:
        passes.clear()
        value = _ascend(f, [start])[0][0]
        n = sum(passes)
        # n - 1 accepted steps: a budget of n steps finishes, one of n - 1 runs out
        monkeypatch.setattr(quantify, "_ASCENT_ROUNDS", n)
        assert _ascend(f, [start])[0][0] == value
        monkeypatch.setattr(quantify, "_ASCENT_ROUNDS", n - 1)
        with pytest.raises(BadValue):
            _ascend(f, [start])
        monkeypatch.undo()
        per_ascent.append(n)
    assert min(per_ascent) > 2  # every ascent took steps
    passes.clear()
    _maximize(f, starts)
    assert sum(passes) == sum(per_ascent)  # none for the identity
    assert len(passes) < sum(per_ascent)  # the lockstep ascents share backward calls


@pytest.mark.parametrize("name,depth", [("bell-triple", 2), ("more-nl-mixed", 1)])
def test_gap_objectives_share_one_set_of_starts(monkeypatch, name, depth):
    # two qubits ascend only at depth 2: at depth 1 the gap is a closed form
    e, drawn = catalog.build(name), []
    monkeypatch.setattr(quantify, "_starts", lambda *args: drawn.append(args) or _starts(*args))
    average_entropy_gap(e, Mode("ensemble-lu", depth=depth, restarts=2, seed=3))
    assert len(drawn) == len(cnot_family(e.dims))  # one per circuit, not one per side
