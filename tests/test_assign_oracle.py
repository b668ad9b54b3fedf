"""Assign mode's sorted chunking against the exhaustive partition search.

``assign_partition`` computes the best relabeling in closed form (members
sorted by probability, cut into consecutive groups of the largest admissible
size); ``partitions_with_caps`` lists every admissible grouping and serves as
the oracle here, for ensembles small enough to enumerate (k <= 9).
"""

import math
import time

import numpy as np
import pytest

from nle import catalog
from nle.linalg import haar_unitary, is_unitary
from nle.quantify import (
    Mode,
    assign_partition,
    assign_unitary,
    average_entropy_gap,
    partitions_with_caps,
)
from nle.states import (
    LOG2,
    Ensemble,
    PureState,
    entanglement_entropies,
    mixture_marginal_entropies,
)

DIMS = [(d_a, d_b) for d_a in (2, 3, 4) for d_b in (2, 3, 4)]
PROB_KINDS = ("dirichlet", "uniform", "tied")


def _caps(dims, side):
    d_a, d_b = dims
    return (d_a, d_b) if side == "B" else (d_b, d_a)


def _mass_entropy(probs, parts) -> float:
    # the line assign_partition uses, so equal partitions give equal bits
    masses = np.array([probs[list(part)].sum() for part in parts])
    return float(-(masses * (np.log(masses) / LOG2)).sum()) + 0.0


def enumerated_minimum(e: Ensemble, side: str) -> float:
    """Smallest group-mass entropy over every admissible grouping."""
    max_size, max_parts = _caps(e.dims, side)
    probs = np.array(e.probabilities)
    return min(
        _mass_entropy(probs, parts) for parts in partitions_with_caps(len(e), max_size, max_parts)
    )


def random_orthogonal_ensemble(rng, dims, k, kind) -> Ensemble:
    n = dims[0] * dims[1]
    columns = haar_unitary(n, rng)[:, :k]
    if kind == "dirichlet":
        probs = rng.dirichlet(np.ones(k))
    elif kind == "uniform":
        probs = np.full(k, 1.0 / k)
    else:  # weights of one to four quarters, so many members tie
        weights = rng.integers(1, 5, size=k) / 4.0
        probs = weights / weights.sum()
    return Ensemble(dims, tuple(probs), tuple(PureState(dims, c) for c in columns.T))


def _cases():
    rng = np.random.default_rng(20240607)
    cases = []
    for i in range(36):
        dims = DIMS[i % len(DIMS)]
        k = int(rng.integers(1, min(9, dims[0] * dims[1]) + 1))
        cases.append((i, dims, k, PROB_KINDS[(i // len(DIMS)) % len(PROB_KINDS)]))
    return cases


@pytest.mark.parametrize("case,dims,k,kind", _cases())
def test_closed_form_matches_enumeration(case, dims, k, kind):
    e = random_orthogonal_ensemble(np.random.default_rng(case), dims, k, kind)
    for side in ("A", "B"):
        partition, h = assign_partition(e, side)
        best = enumerated_minimum(e, side)
        assert h <= best + 1e-15
        assert abs(h - best) <= 1e-15
        max_size, max_parts = _caps(dims, side)
        assert len(partition) <= max_parts
        assert all(1 <= len(part) <= max_size for part in partition)
        assert sorted(i for part in partition for i in part) == list(range(k))
        # the enumerator's form: ascending parts, ordered by smallest index
        assert all(list(part) == sorted(part) for part in partition)
        assert list(partition) == sorted(partition)


# enumerator values captured before the closed form replaced it
PINNED = [
    ("bell-triple", None, "0x1.d62adf1ea257cp-1"),
    ("more-nl-mes", None, "0x0.0p+0"),
    ("more-nl-mixed", None, "0x0.0p+0"),
    ("canonical-mes", {"d": 4, "count": 9}, "0x1.6463c2acdb3b4p+0"),
    ("canonical-mes", {"d": 4, "count": 10}, "0x1.859d146267a15p+0"),
]


@pytest.mark.parametrize("name,params,pinned", PINNED)
def test_catalog_entries_bit_identical(name, params, pinned):
    e = catalog.build(name, params)
    for side in ("A", "B"):
        assert assign_partition(e, side)[1] == float.fromhex(pinned)


@pytest.mark.parametrize("d", [4, 5])
def test_full_canonical_basis_has_no_gap(d):
    # k = d^2 lies far beyond the enumeration (2.6M groupings at d = 4)
    e = catalog.build("canonical-mes", {"d": d})
    start = time.perf_counter()
    r = average_entropy_gap(e, Mode("assign"))
    assert time.perf_counter() - start < 1.0
    assert abs(r.right) <= 1e-12 and abs(r.left) <= 1e-12
    for side in ("A", "B"):
        partition, h = assign_partition(e, side)
        assert sorted(len(part) for part in partition) == [d] * d
        assert abs(h - math.log2(d)) <= 1e-12


def test_full_basis_relabeling_is_realized():
    e = catalog.build("canonical-mes", {"d": 4})
    for side in ("A", "B"):
        partition, h = assign_partition(e, side)
        u = assign_unitary(e, partition, side)
        assert is_unitary(u, 1e-9)
        outs = e.amplitudes @ u.T
        assert np.max(entanglement_entropies(outs, e.dims)) <= 1e-9
        g = np.conjugate(outs) @ outs.T
        assert np.max(np.abs(g - np.eye(len(e)))) <= 1e-9
        s_a, s_b = mixture_marginal_entropies(outs, e.probabilities, e.dims)
        assert abs((s_b if side == "B" else s_a) - h) <= 1e-9
