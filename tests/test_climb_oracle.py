"""The lu search against an ascent that takes the members one at a time.

``sequential_maximize`` is a plain transcription of the search that
``quantify._maximize`` documents: the identity, then one Riemannian ascent
per restart (restart 0 from about 1e-3 around the identity, later ones from
Haar-random unitaries), each step ``U <- exp(t W) U`` with ``W = Gamma U^dag
- U Gamma^dag``, Barzilai-Borwein lengths alternated and halved under a
nonmonotone Armijo rule. It drives the circuits member by member: each
member goes through the circuit alone, forward and backward, and the
gradients are summed. The search on the stacked circuit, every restart one
problem of a lockstep batch, must walk the same path: from each start it
reaches the same value, to 1e-12, on the delta and gap objectives of the lu
searches, for every group size, restart count and seed below. On a noisy
objective, the same function on both sides (each row of the batch valued
alone), it must return the same value and point bit for bit; the noise is in
the value only, so late trial steps fail at random and most ascents end
through the step-length floor, short of the gradient tolerance. The stacked
circuit pieces must equal their one-member results exactly, because the
stacked searches rely on it.
"""

import functools
import math

import numpy as np
import pytest

from nle import catalog
from nle.config import TOL
from nle.gates import hermitian_from_coeffs
from nle.linalg import expm_hermitian_unchecked, haar_unitary
from nle.quantify import (_ascend, _delta_objective, _gap_objective, _LuCircuit, _maximize,
                          _starts)
from nle.states import mixture_marginal_entropies


def sequential_ascend(f, us, rounds=10_000):
    """Riemannian steepest ascent of ``f`` (value, callable giving
    ``df/dconj(U_j)``) from ``us``; it takes the gradient at every point."""

    def riemannian(point):
        value, gammas = f(point)
        return value, [g @ u.conj().T - u @ g.conj().T for g, u in zip(gammas(), point)]

    def inner(xs, ys):
        return sum(float(np.vdot(x, y).real) for x, y in zip(xs, ys))

    v, w = riemannian(us)
    norm2 = inner(w, w)
    t = 0.25 / math.sqrt(norm2) if norm2 else 0.0
    best_v, best_us, recent = v, us, [v]
    for step in range(rounds):
        if norm2 <= TOL.gradient**2:
            return best_v, best_us
        floor = min(recent[-10:])
        while True:
            cand = [expm_hermitian_unchecked(-1j * t * x) @ u for x, u in zip(w, us)]
            v, cw = riemannian(cand)
            if v >= floor + 1e-4 * t * norm2:
                break
            t *= 0.5
            if t * norm2 <= 1e-15:
                return best_v, best_us
        y = [b - a for a, b in zip(w, cw)]
        sy, yy, ss = t * inner(w, y), inner(y, y), t * t * norm2
        us, w, norm2 = cand, cw, inner(cw, cw)
        recent.append(v)
        if v > best_v:
            best_v, best_us = v, us
        if sy:
            t = ss / abs(sy) if step % 2 == 0 else abs(sy) / yy
    raise AssertionError("reference ascent did not converge")


def sequential_maximize(f, dims, restarts, seed):
    """The best ``(value, unitaries)`` and, per restart, its start and ascent."""
    rng = np.random.default_rng(seed)
    identity = [np.eye(d, dtype=complex) for d in dims]
    best_v, best_us = f(identity)[0], identity
    walks = []
    for restart in range(restarts):
        if restart == 0:
            start = []
            for d in dims:
                z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                start.append(expm_hermitian_unchecked(1e-3 * (z + z.conj().T) / 2.0))
        else:
            start = [haar_unitary(d, rng) for d in dims]
        v, us = sequential_ascend(f, start)
        walks.append((start, v, us))
        if v > best_v:
            best_v, best_us = v, us
    return best_v, best_us, walks


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (catalog entry, members, rotate) per real dimension n = sum of d^2 of the
# rotated unitary groups; the delta circuits are "right", the per-state ones
# "left", so case-3x2's qutrit is the control in one and the target in the other
DELTA_CIRCUITS = {4: ("e2-case2", None, "target"), 8: ("e2-case2", None, "both"),
                  9: ("case-3x2", None, "control"), 18: ("tiles-upb", [2, 3], "both")}
PER_STATE_CIRCUITS = {4: ("e2-case2", "target"), 8: ("e2-case2", "both"),
                      9: ("case-3x2", "target"), 18: ("tiles-upb", "both")}
GAP_CIRCUITS = {4: ("bell-triple", "target"), 8: ("bell-triple", "both"),
                9: ("more-nl-mixed", "target"), 18: ("more-nl-mixed", "both")}
NOISY_DIMS = {0: [], 4: [2], 8: [2, 2], 9: [3], 18: [3, 3]}


def _one_at_a_time(circuit, stack, objective, on_a):
    """Problem 0 of ``circuit.on(stack, objective, ...)`` valued on side A if
    ``on_a``, as ``us -> (value, callable giving the gradients)``, with every
    member sent through the circuit alone, forward and backward, and the
    gradients summed."""
    rows = np.arange(1)

    def f(unitaries):
        point = [u[None] for u in unitaries]
        passes = [circuit.forward(rows, stack[None, i : i + 1], point) for i in range(len(stack))]
        values, grad = objective(np.concatenate([out for out, _ in passes], axis=1), on_a)
        grad = grad(slice(None))
        gammas = [0.0] * len(unitaries)
        for i, (_, inputs) in enumerate(passes):
            summand = circuit.backward(rows, point, inputs, grad[:, i : i + 1])
            gammas = [a + b[0] for a, b in zip(gammas, summand)]
        return values[0], lambda: gammas

    return f


def _single(f):
    """Problem 0 of the batch function ``f`` as ``us -> value``."""
    return lambda us: f(np.arange(1), [u[None] for u in us])[0][0]


def _batched(single):
    """The one-problem function ``single`` (``us -> (value, callable giving
    the gradients)``) as a batch function for ``_ascend``: each row alone."""

    def f(rows, point):
        found = [single([u[i] for u in point]) for i in range(len(rows))]

        def gammas(pos):
            picked = [found[i][1]() for i in np.arange(len(rows))[pos]]
            return [np.array(g) for g in zip(*picked)]

        return [value for value, _ in found], gammas

    return f


def _delta_case(n):
    name, members, rotate = DELTA_CIRCUITS[n]
    e = catalog.build(name)
    e = e if members is None else e.subset(members)
    probs = np.array(e.probabilities)
    objective = functools.partial(_delta_objective, probs=probs, dims=e.dims)
    return e.dims, "right", rotate, e.amplitudes, objective, (True,)


def _per_state_case(n):
    name, rotate = PER_STATE_CIRCUITS[n]
    e = catalog.build(name)
    objective = functools.partial(_delta_objective, probs=np.ones(1), dims=e.dims)
    return e.dims, "left", rotate, e.amplitudes[1:2], objective, (True,)


def _gap_case(n):
    name, rotate = GAP_CIRCUITS[n]
    e = catalog.build(name)
    stack, probs = e.amplitudes, np.array(e.probabilities)
    s_bar = mixture_marginal_entropies(stack, probs, e.dims)
    objective = functools.partial(_gap_objective, probs=probs, dims=e.dims, s_bar=s_bar)
    return e.dims, "right", rotate, stack, objective, (True, False)  # each drop on its own


OBJECTIVES = {"delta": _delta_case, "per-state": _per_state_case, "gap": _gap_case}
CASES = [(kind, n) for kind in (*OBJECTIVES, "noisy") for n in (0, 4, 8, 9, 18)
         if n or kind == "noisy"]


def _noisy(dims):
    """A linear objective ``sum_j Re tr(C_j^dag U_j)``, highest at the polar
    factors of the ``C_j``, whose value carries a 1e-10 ripple that its
    gradient does not: near the top, trial steps pass and fail at random."""
    cs = [haar_unitary(d, np.random.default_rng(d)) * np.linspace(1.0, 2.0, d) for d in dims]

    def f(unitaries):
        value = sum(float(np.vdot(c, u).real) for c, u in zip(cs, unitaries))
        ripple = sum(float(np.sin(1e7 * u.real).sum()) for u in unitaries)
        return value + 1e-10 * ripple, lambda: [c / 2.0 for c in cs]

    return f


@pytest.mark.parametrize("seed", [0, 5, 20200909])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("kind,n", CASES)
def test_batched_climb_walks_the_sequential_path(kind, n, restarts, seed):
    if kind == "noisy":
        f = _noisy(NOISY_DIMS[n])
        want_v, want_us, _ = sequential_maximize(f, NOISY_DIMS[n], restarts, seed)
        got_v, got_us = _maximize(_batched(f), _starts(NOISY_DIMS[n], restarts, seed))[0]
        assert type(got_v) is float
        assert _same_bits(got_v, want_v), (got_v, want_v)
        assert len(got_us) == len(want_us)
        assert all(_same_bits(a, b) for a, b in zip(got_us, want_us))
        return
    dims, direction, rotate, stack, objective, sides = OBJECTIVES[kind](n)
    circuit = _LuCircuit(dims, rotate, 1, [(direction, 1)] * restarts)
    assert sum(d * d for d in circuit.unitary_dims) == n
    for on_a in sides:
        sequential = _one_at_a_time(circuit, stack, objective, on_a)
        stacked = circuit.on(stack, objective, [on_a] * restarts)
        want_v, _, walks = sequential_maximize(sequential, circuit.unitary_dims, restarts, seed)
        got_v, got_us = _maximize(stacked, _starts(circuit.unitary_dims, restarts, seed))[0]
        assert type(got_v) is float
        assert abs(got_v - want_v) <= 1e-12, (got_v, want_v)
        assert abs(_single(stacked)(got_us) - got_v) <= 1e-12
        # restarts tie to the last bits and maxima are flat (the gauge, and
        # more), so the points can part where the values agree: each
        # restart's ascent must reach the same value, at unitaries where the
        # stacked and the one-at-a-time objectives agree
        ascents = _ascend(stacked, [start for start, _, _ in walks])
        for (start, walk_v, walk_us), (v, us) in zip(walks, ascents):
            assert abs(v - walk_v) <= 1e-12, (v, walk_v)
            assert abs(sequential(us)[0] - v) <= 1e-12
            assert abs(_single(stacked)(walk_us) - walk_v) <= 1e-12
            assert all(np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-12 for u in us)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_generators_and_exponentials_equal_their_rows(dim):
    coeffs = np.random.default_rng(dim).normal(size=(2, 5, dim * dim))
    h = hermitian_from_coeffs(dim, coeffs)
    u = expm_hermitian_unchecked(h)
    assert h.shape == u.shape == (2, 5, dim, dim)
    for i in range(2):
        for j in range(5):
            assert _same_bits(h[i, j], hermitian_from_coeffs(dim, coeffs[i, j]))
            assert _same_bits(u[i, j], expm_hermitian_unchecked(h[i, j]))


@pytest.mark.parametrize("name", ["e2-case2", "case-3x2", "tiles-upb", "more-nl-mixed"])
@pytest.mark.parametrize("rotate", ["both", "target", "control"])
@pytest.mark.parametrize("direction,depth,reps", [("right", 1, 1), ("left", 2, 2)])
def test_stacked_transform_equals_its_rows(name, rotate, direction, depth, reps):
    e = catalog.build(name)
    circuit, rows = _LuCircuit(e.dims, rotate, depth, [(direction, reps)]), np.arange(1)
    rng = np.random.default_rng(7)
    us = [haar_unitary(d, rng)[None] for d in circuit.unitary_dims]
    out, inputs = circuit.forward(rows, e.amplitudes[None], us)
    assert out.shape == (1, len(e), e.dims[0] * e.dims[1])
    assert len(inputs) == len(us)
    grad = rng.normal(size=out.shape) + 1j * rng.normal(size=out.shape)
    gammas = circuit.backward(rows, us, inputs, grad)
    summed = [np.zeros_like(g) for g in gammas]
    for k in range(len(e)):
        row_out, row_inputs = circuit.forward(rows, e.amplitudes[None, k : k + 1], us)
        assert _same_bits(out[:, k : k + 1], row_out)
        row_gammas = circuit.backward(rows, us, row_inputs, grad[:, k : k + 1])
        summed = [a + b for a, b in zip(summed, row_gammas)]
    for g, s in zip(gammas, summed):
        assert np.abs(g - s).max() <= 1e-13
