"""Fixed-mode invariants of both quantifiers on random ensembles (dims in
{2, 3}^2, at most five members; product members for delta, general pure
members for big-delta): a party swap exchanges right and left, and the
member order changes neither.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle.quantify import Mode, average_entropy_gap, nonlocal_entropy
from nle.states import Ensemble, PureState

TOL = 1e-12
QUANTIFIERS = {"delta": nonlocal_entropy, "big-delta": average_entropy_gap}


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_ensemble(seed: int, quantity: str) -> Ensemble:
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
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
