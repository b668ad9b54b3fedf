"""The batched hill climb against the climber that tried one candidate at a time.

``sequential_hill_climb`` is a verbatim copy of ``quantify._hill_climb`` as
it was before probe rounds were evaluated as batches. The batched climb must
walk the same path: it returns the same value and the same point, bit for
bit, on the delta and gap objectives of the lu searches and on a noisy
objective, for every dimension, restart count and seed below. The oracle
runs the one-candidate objectives the searches used before, so these tests
also pin the batched objectives to them. The stacked circuit pieces must
equal their one-row results exactly, because the batched searches rely on it.
"""

import numpy as np
import pytest

from nle import catalog
from nle.gates import hermitian_from_coeffs
from nle.linalg import expm_hermitian_unchecked
from nle.quantify import _delta_objective, _gap_objective, _hill_climb, _LuCircuit
from nle.states import entanglement_entropies, mixture_marginal_entropies


def sequential_hill_climb(
    f,
    n: int,
    restarts: int,
    seed: int,
    init_step: float = 0.9,
    min_step: float = 3e-6,
) -> tuple[float, np.ndarray]:
    """Random-direction ascent with shrinking step; deterministic given seed.

    The first restart starts at the zero vector, so the search space always
    contains the unrotated circuit. The best value never decreases.
    """
    zero = np.zeros(n)
    if n == 0:
        return f(zero), zero
    rng = np.random.default_rng(seed)
    probes = max(10, 2 * n)
    best_v, best_x = f(zero), zero
    for restart in range(restarts):
        if restart == 0:
            x, v = zero.copy(), best_v
        else:
            x = rng.normal(size=n) * rng.uniform(0.2, 1.2)
            v = f(x)
        step = init_step
        while step > min_step:
            improved = False
            for _ in range(probes):
                d = rng.normal(size=n)
                d /= np.linalg.norm(d)
                for sgn in (1.0, -1.0):
                    cand = x + (sgn * step) * d
                    cv = f(cand)
                    if cv > v + 1e-13:
                        x, v = cand, cv
                        improved = True
                        while True:
                            cand = x + (sgn * step) * d
                            cv = f(cand)
                            if cv > v + 1e-13:
                                x, v = cand, cv
                            else:
                                break
                        break
            if not improved:
                step *= 0.5
        if v > best_v:
            best_v, best_x = v, x
    return best_v, best_x


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (catalog entry, members, rotate) per parameter count; "control" on
# case-3x2 rotates its qutrit
DELTA_CIRCUITS = {4: ("e2-case2", None, "target"), 8: ("e2-case2", None, "both"),
                  9: ("case-3x2", None, "control"), 18: ("tiles-upb", [2, 3], "both")}
GAP_CIRCUITS = {4: ("bell-triple", "target"), 8: ("bell-triple", "both"),
                9: ("more-nl-mixed", "target"), 18: ("more-nl-mixed", "both")}
# a search to the default 3e-6 step takes up to seconds one candidate at a
# time; the noisy objective keeps the default and covers the fine steps
MIN_STEP = {4: 3e-6, 8: 1e-3, 9: 1e-3, 18: 3e-2}


def _delta_pair(n):
    name, members, rotate = DELTA_CIRCUITS[n]
    e = catalog.build(name)
    e = e if members is None else e.subset(members)
    stack, probs = e.amplitudes, np.array(e.probabilities)
    circuit = _LuCircuit(e.dims, "right", rotate, 1, 1)

    def scalar(params):
        return float(probs @ entanglement_entropies(circuit.transform(stack, params), e.dims))

    return scalar, _delta_objective(circuit, stack, probs)


def _per_state_pair(n):
    name, _, rotate = DELTA_CIRCUITS[n]
    e = catalog.build(name)
    row = e.amplitudes[1:2]
    circuit = _LuCircuit(e.dims, "left", rotate, 1, 1)

    def scalar(params):
        return float(entanglement_entropies(circuit.transform(row, params), e.dims)[0])

    return scalar, _delta_objective(circuit, row, np.ones(1))


def _gap_pair(n):
    name, rotate = GAP_CIRCUITS[n]
    e = catalog.build(name)
    stack, probs = e.amplitudes, np.array(e.probabilities)
    s_bar = mixture_marginal_entropies(stack, probs, e.dims)
    circuit = _LuCircuit(e.dims, "right", rotate, 1, 1)

    def scalar(params):
        s_fin = mixture_marginal_entropies(circuit.transform(stack, params), probs, e.dims)
        return max(s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])

    return scalar, _gap_objective(circuit, stack, probs, s_bar)


def _noisy_pair(n):
    centre = np.linspace(-0.6, 0.9, n)

    def batch(points):
        # a bowl whose top is flatter than the ripple on it: late probe rounds
        # keep accepting gains of the ripple's size
        bowl = -((points - centre) ** 2).sum(axis=-1)
        return bowl + 1e-10 * np.sin(1e7 * points).sum(axis=-1)

    return (lambda params: float(batch(params[None])[0])), batch


OBJECTIVES = {"delta": _delta_pair, "per-state": _per_state_pair, "gap": _gap_pair,
              "noisy": _noisy_pair}
CASES = [(kind, n) for kind in OBJECTIVES for n in (0, 4, 8, 9, 18)
         if n or kind == "noisy"]


@pytest.mark.parametrize("seed", [0, 5, 20200909])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("kind,n", CASES)
def test_batched_climb_walks_the_sequential_path(kind, n, restarts, seed):
    scalar, batch = OBJECTIVES[kind](n)
    min_step = 3e-6 if kind == "noisy" else MIN_STEP[n]
    want_v, want_x = sequential_hill_climb(scalar, n, restarts, seed, min_step=min_step)
    got_v, got_x = _hill_climb(batch, n, restarts, seed, min_step=min_step)
    assert type(got_v) is float
    assert _same_bits(got_v, want_v), (got_v, want_v)
    assert _same_bits(got_x, want_x)


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
    circuit = _LuCircuit(e.dims, direction, rotate, depth, reps)
    params = np.random.default_rng(7).normal(size=(6, circuit.n_params))
    out = circuit.transform(e.amplitudes, params)
    assert out.shape == (6, len(e), e.dims[0] * e.dims[1])
    for b in range(6):
        assert _same_bits(out[b], circuit.transform(e.amplitudes, params[b]))
