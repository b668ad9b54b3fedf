import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle import catalog, reproduce
from nle.dissect import (
    ProductSet,
    as_product_set,
    classify,
    dissect,
    reducible_from,
    weighted_nonlocal_entropy,
)
from nle.errors import GramNotIdentity, NotAState, NotProductEnsemble, TrivialSet
from nle.linalg import haar_unitary
from nle.states import Ensemble, product_state, schmidt


def pset(name, params=None):
    return as_product_set(catalog.build(name, params))


def brute_force_reducible(ps, side):
    """Oracle: scan all bipartitions for cross-orthogonality on one side."""
    k = len(ps)
    parts = ps.parts(side)
    for size in range(1, k // 2 + 1):
        for subset in itertools.combinations(range(k), size):
            rest = [i for i in range(k) if i not in subset]
            if all(
                abs(np.vdot(parts[i], parts[j])) <= 1e-9 for i in subset for j in rest
            ):
                return True
    return False


class TestProductSet:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(GramNotIdentity):
            ProductSet(
                (2, 2),
                (0.5, 0.5),
                (np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)),
                (np.array([1, 0]), np.array([1, 0])),
            )

    def test_rejects_duplicates(self):
        with pytest.raises(GramNotIdentity):
            ProductSet(
                (2, 2),
                (0.5, 0.5),
                (np.array([1, 0]), np.array([1, 0])),
                (np.array([0, 1]), np.array([0, 1])),
            )

    def test_rejects_nan_probability(self):
        with pytest.raises(NotAState):
            ProductSet((2, 2), (math.nan,), ([1, 0],), ([1, 0],))

    @pytest.mark.parametrize(
        "probs",
        [(0.75, 0.5, -0.25), (0.5, 0.5, 0.0), (1.25, -0.125, -0.125), (0.5, math.nan, 0.5)],
        ids=["negative", "zero", "above-one", "nan"],
    )
    def test_rejects_probability_outside_unit_interval(self, probs):
        # all but the NaN case sum to 1, so only the range check rejects them;
        # the message pins the reason, since a NaN also fails the sum check
        with pytest.raises(NotAState, match=r"lie in \(0, 1\]"):
            ProductSet((2, 2), probs, ([1, 0], [1, 0], [0, 1]), ([1, 0], [0, 1], [1, 0]))

    def test_rejects_out_of_range_probability_before_classifying(self):
        # this set used to construct and classify as dissectible from A alone
        with pytest.raises(NotAState):
            ProductSet((2, 2), (2.0, -1.0), ([1, 0], [0, 1]), ([1, 0], [1, 0]))

    def test_rejects_nan_part(self):
        # a NaN part has NaN overlaps, which would otherwise read as orthogonal
        with pytest.raises(NotAState):
            ProductSet((2, 2), (0.5, 0.5), ([1, 0], [math.nan, 0]), ([1, 0], [0, 1]))

    def test_as_product_set_rejects_entangled(self):
        with pytest.raises(NotProductEnsemble):
            as_product_set(catalog.build("bell-pair"))

    @pytest.mark.parametrize("name", ["e2-case2", "case-3x2", "nlwe-3x3", "tiles-upb", "random"])
    def test_as_product_set_parts_match_per_state_schmidt(self, name):
        # reference: each member's leading Schmidt pair, coefficient on the A part
        if name == "random":
            rng = np.random.default_rng(7)
            u_a, u_b = haar_unitary(3, rng), haar_unitary(4, rng)
            pairs = [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3)]
            e = Ensemble.uniform((3, 4), [product_state((3, 4), u_a[:, i], u_b[:, j])
                                          for i, j in pairs])
        else:
            e = catalog.build(name)
        ps = as_product_set(e)
        for s, part_a, part_b in zip(e.states, ps.parts_a, ps.parts_b):
            coeffs, left, right = schmidt(s)
            assert np.allclose(part_a, left[:, 0] * coeffs[0], rtol=0, atol=1e-12)
            assert np.allclose(part_b, right[:, 0], rtol=0, atol=1e-12)

    def test_roundtrip_through_ensemble(self):
        ps = pset("nlwe-3x3")
        e = ps.to_ensemble()
        rebuilt = as_product_set(e)
        for i in range(len(ps)):
            joint_a = np.kron(ps.parts_a[i], ps.parts_b[i])
            joint_b = np.kron(rebuilt.parts_a[i], rebuilt.parts_b[i])
            assert abs(abs(np.vdot(joint_a, joint_b)) - 1.0) <= 1e-9


class TestReducibleFrom:
    def test_computational_basis_splits_from_a(self):
        blocks = reducible_from(pset("e1-computational"), "A")
        assert blocks == [(0, 1), (2, 3)]

    def test_case2_asymmetry(self):
        ps = pset("e2-case2")
        assert reducible_from(ps, "A") == [(0, 1), (2, 3)]
        assert reducible_from(ps, "B") is None

    def test_nlwe_irreducible_both_sides(self):
        ps = pset("nlwe-3x3")
        assert reducible_from(ps, "A") is None
        assert reducible_from(ps, "B") is None

    def test_trivial_set(self):
        ps = ProductSet((2, 2), (1.0,), (np.array([1, 0]),), (np.array([1, 0]),))
        with pytest.raises(TrivialSet) as err:
            reducible_from(ps, "A")
        assert err.value.code == "trivial-set"

    def test_cross_block_orthogonality(self):
        ps = pset("case-3x2")
        for side in ("A", "B"):
            blocks = reducible_from(ps, side)
            if blocks is None:
                continue
            parts = ps.parts(side)
            for b1, b2 in itertools.combinations(blocks, 2):
                for i in b1:
                    for j in b2:
                        assert abs(np.vdot(parts[i], parts[j])) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        names = ["e1-computational", "e2-case2", "case-3x2", "tiles-upb", "nlwe-3x3"]
        ps = pset(names[seed % len(names)])
        if len(ps) > 8:
            ps = ProductSet(
                ps.dims,
                tuple(1 / 8 for _ in range(8)),
                ps.parts_a[:8],
                ps.parts_b[:8],
            )
        side = "A" if rng.uniform() < 0.5 else "B"
        assert (reducible_from(ps, side) is not None) == brute_force_reducible(ps, side)


class TestDissect:
    def test_e1_full_from_either_party(self):
        ps = pset("e1-computational")
        for first in ("A", "B"):
            tree = dissect(ps, first)
            assert tree.fully_dissected
            assert len(list(tree.leaves())) == 4

    def test_case_3x2_from_b_full(self):
        assert dissect(pset("case-3x2"), "B").fully_dissected

    def test_case_3x2_from_a_leaves_irreducible_block(self):
        tree = dissect(pset("case-3x2"), "A")
        assert not tree.fully_dissected
        stuck = [leaf for leaf in tree.leaves() if leaf.leaf_kind == "irreducible"]
        assert len(stuck) == 1
        assert stuck[0].indices == (0, 1, 2, 3)
        assert stuck[0].irreducible_from["A"] is True
        assert stuck[0].irreducible_from["B"] is False

    def test_tiles_single_irreducible_leaf(self):
        tree = dissect(pset("tiles-upb"), None)
        assert tree.is_leaf
        assert tree.leaf_kind == "irreducible"
        assert tree.irreducible_from == {"A": True, "B": True}

    def test_e2_from_b_is_root_leaf(self):
        tree = dissect(pset("e2-case2"), "B")
        assert tree.is_leaf and tree.leaf_kind == "irreducible"

    def test_children_partition_parent(self):
        tree = dissect(pset("case-3x2"), "B")

        def check(node):
            if node.is_leaf:
                return
            merged = sorted(i for c in node.children for i in c.indices)
            assert tuple(merged) == node.indices
            for c in node.children:
                check(c)

        check(tree)


class TestClassify:
    @pytest.mark.parametrize(
        "name,expected",
        [
            (c.name.removeprefix("classification "), c.expected)
            for c in reproduce.CHECKS
            if c.name.startswith("classification ")
        ],
    )
    def test_catalog_labels(self, name, expected):
        assert classify(pset(name)) == expected


class TestWeightedNonlocalEntropy:
    def test_e1_vanishes(self):
        assert weighted_nonlocal_entropy(pset("e1-computational")) == 0.0

    def test_nlwe_single_leaf(self):
        assert abs(weighted_nonlocal_entropy(pset("nlwe-3x3")) - 4 / 9) <= 1e-9

    def test_case_3x2_from_a(self):
        assert abs(weighted_nonlocal_entropy(pset("case-3x2"), "A") - 1 / 3) <= 1e-9

    def test_positive_for_non_dissectible_catalog_sets(self):
        for name in ("nlwe-3x3", "tiles-upb"):
            ps = pset(name)
            assert classify(ps) == "non-dissectible"
            assert weighted_nonlocal_entropy(ps) > 0


def random_two_by_d_basis(rng, d):
    """Full product basis in 2 x d: each control level carries a random local frame."""
    frames = [haar_unitary(d, rng), haar_unitary(d, rng)]
    parts_a, parts_b = [], []
    for i, frame in enumerate(frames):
        for col in range(d):
            a = np.zeros(2, dtype=complex)
            a[i] = 1.0
            parts_a.append(a)
            parts_b.append(frame[:, col])
    k = 2 * d
    return ProductSet((2, d), tuple(1 / k for _ in range(k)), tuple(parts_a), tuple(parts_b))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_two_by_d_bases_fully_dissect(seed, d):
    ps = random_two_by_d_basis(np.random.default_rng(seed), d)
    assert dissect(ps, "A").fully_dissected
    assert classify(ps).startswith("dissectible")
