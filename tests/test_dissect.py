import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle import catalog, reproduce
from nle.dissect import (
    as_product_set,
    classify,
    dissect,
    reducible_from,
    weighted_nonlocal_entropy,
)
from nle.errors import BadParams, GramNotIdentity, NotAState, NotProductEnsemble, TrivialSet
from nle.linalg import haar_unitary
from nle.states import Ensemble, product_state, schmidt

dissect_module = importlib.import_module("nle.dissect")  # ``nle.dissect`` itself is the function


def pset(name, params=None):
    return as_product_set(catalog.build(name, params))


def from_parts(dims, probs, parts_a, parts_b):
    """Product-set view of the ensemble of members ``a_i (x) b_i`` (parts normalized)."""
    members = (product_state(dims, a, b) for a, b in zip(parts_a, parts_b))
    return as_product_set(Ensemble(dims, tuple(probs), tuple(members)))


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
            from_parts((2, 2), (0.5, 0.5), ([1, 0], [1, 1]), ([1, 0], [1, 0]))

    def test_rejects_duplicates(self):
        with pytest.raises(GramNotIdentity):
            from_parts((2, 2), (0.5, 0.5), ([1, 0], [1, 0]), ([0, 1], [0, 1]))

    def test_rejects_nan_probability(self):
        with pytest.raises(NotAState):
            from_parts((2, 2), (math.nan,), ([1, 0],), ([1, 0],))

    @pytest.mark.parametrize(
        "probs",
        [(0.75, 0.5, -0.25), (0.5, 0.5, 0.0), (1.25, -0.125, -0.125), (0.5, math.nan, 0.5)],
        ids=["negative", "zero", "above-one", "nan"],
    )
    def test_rejects_probability_outside_unit_interval(self, probs):
        # all but the NaN case sum to 1, so only the range check rejects them;
        # the message pins the reason, since a NaN also fails the sum check
        with pytest.raises(NotAState, match=r"lie in \(0, 1\]"):
            from_parts((2, 2), probs, ([1, 0], [1, 0], [0, 1]), ([1, 0], [0, 1], [1, 0]))

    def test_rejects_out_of_range_probability_before_classifying(self):
        # this set would classify as dissectible from A alone
        with pytest.raises(NotAState):
            from_parts((2, 2), (2.0, -1.0), ([1, 0], [0, 1]), ([1, 0], [1, 0]))

    def test_rejects_nan_part(self):
        # a NaN part has NaN overlaps, which would otherwise read as orthogonal
        with pytest.raises(NotAState), np.errstate(invalid="ignore"):
            from_parts((2, 2), (0.5, 0.5), ([1, 0], [math.nan, 0]), ([1, 0], [0, 1]))

    def test_as_product_set_rejects_entangled(self):
        with pytest.raises(NotProductEnsemble):
            as_product_set(catalog.build("bell-pair"))

    def test_is_a_view_of_its_ensemble(self):
        e = catalog.build("case-3x2")
        ps = as_product_set(e)
        assert [f.name for f in dataclasses.fields(ps)] == ["ensemble"]
        assert ps.ensemble is e
        assert (ps.dims, ps.probabilities, len(ps)) == (e.dims, e.probabilities, len(e))

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
        for s, part_a, part_b in zip(e.states, ps.parts("A"), ps.parts("B")):
            coeffs, left, right = schmidt(s)
            assert np.allclose(part_a, left[:, 0] * coeffs[0], rtol=0, atol=1e-12)
            assert np.allclose(part_b, right[:, 0], rtol=0, atol=1e-12)

    def test_roundtrip_through_ensemble(self):
        # the local parts rebuild every member up to a phase
        ps = pset("nlwe-3x3")
        rebuilt = from_parts(ps.dims, ps.probabilities, ps.parts("A"), ps.parts("B"))
        for original, member in zip(ps.ensemble.states, rebuilt.ensemble.states):
            assert abs(abs(np.vdot(original.amplitudes, member.amplitudes)) - 1.0) <= 1e-9


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
        ps = from_parts((2, 2), (1.0,), ([1, 0],), ([1, 0],))
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

    @pytest.mark.parametrize("indices", [[0, 99], (1.5, 2), [-1, 0], [0, 0, 1], [True, 0], 3],
                             ids=["out-of-range", "float", "negative", "repeated", "bool",
                                  "not-iterable"])
    def test_rejects_bad_member_indices(self, indices):
        # each used to raise IndexError or TypeError, or to return a wrong answer
        ps = pset("e1-computational")
        with pytest.raises(BadParams):
            reducible_from(ps, "A", indices)
        with pytest.raises(BadParams):
            ps.ensemble.subset(indices)

    def test_empty_indices(self):
        # an empty subset used to exit bad-dims about probabilities never given;
        # a reducibility question on no members stays a trivial set
        ps = pset("case-3x2")
        with pytest.raises(BadParams, match="at least one member"):
            ps.ensemble.subset([])
        with pytest.raises(TrivialSet):
            reducible_from(ps, "A", [])

    def test_accepts_numpy_indices(self):
        ps = pset("e1-computational")
        assert reducible_from(ps, "A", np.arange(4)) == reducible_from(ps, "A")
        assert ps.ensemble.subset(np.array([3, 1])).states[0] is ps.ensemble.states[3]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        names = ["e1-computational", "e2-case2", "case-3x2", "tiles-upb", "nlwe-3x3"]
        ps = pset(names[seed % len(names)])
        if len(ps) > 8:
            ps = as_product_set(ps.ensemble.subset(range(8)))
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
    return from_parts((2, d), [1 / k] * k, parts_a, parts_b)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_two_by_d_bases_fully_dissect(seed, d):
    ps = random_two_by_d_basis(np.random.default_rng(seed), d)
    assert dissect(ps, "A").fully_dissected
    assert classify(ps).startswith("dissectible")


def multiround_basis():
    """A 3x3 product basis that only alternating rounds dissect.

    Members 0-2 are ``|0>|f_j>`` for the Fourier vectors ``f_j``, 3-4 are
    ``(|1> +- |2>)|0>``, 5-6 are ``|1>(|1> +- |2>)`` and 7-8 ``|2>(|1> +- |2>)``.
    A splits off {0, 1, 2}, which B finishes; B then splits the rest into
    the pairs {3, 4}, {5, 7} and {6, 8}, and A finishes each pair. B cannot
    open, and no finisher resolves A's opening split in one move.
    """
    w = np.exp(2j * np.pi / 3)
    fourier = [np.array([1, w**j, w ** (2 * j)]) for j in range(3)]
    zero, one, two = np.eye(3)
    plus, minus = one + two, one - two
    parts_a = [zero] * 3 + [plus, minus, one, one, two, two]
    parts_b = fourier + [zero, zero, plus, minus, plus, minus]
    return from_parts((3, 3), [1 / 9] * 9, parts_a, parts_b)


def classify_by_trees(ps):
    """Oracle: the class read off ``dissect`` trees, as ``classify`` once did."""
    if len(ps) < 2:
        return "dissectible-either-side"
    full = {p: dissect(ps, p).fully_dissected for p in ("A", "B")}
    if full["A"] and full["B"]:
        return "dissectible-either-side"
    if full["A"] or full["B"]:
        return f"dissectible-one-side({'A' if full['A'] else 'B'})"
    if dissect(ps, None).fully_dissected:
        return "dissectible-multiround"
    return "non-dissectible"


def mask(indices):
    """The bitmask block of member ``indices``, bit i for member i."""
    return sum(1 << i for i in indices)


def components_by_fixpoint(ps, side, indices):
    """Oracle: the fixpoint loop over ``indices`` that the frontier search replaced."""
    neighbours = ps._neighbours["AB".index(side)]
    left, groups = sum(1 << i for i in indices), []
    while left:
        block, grown = 0, left & -left  # from the least member not yet placed
        while grown != block:
            block = grown
            for i in indices:
                if block >> i & 1:
                    grown |= neighbours[i] & left
        left &= ~block
        groups.append(tuple(i for i in indices if block >> i & 1))
    return groups


def test_multiround_basis_needs_alternation():
    ps = multiround_basis()
    assert classify(ps) == classify_by_trees(ps) == "dissectible-multiround"
    assert reducible_from(ps, "A") == [(0, 1, 2), (3, 4, 5, 6, 7, 8)]
    assert reducible_from(ps, "B") is None
    assert reducible_from(ps, "B", [3, 4, 5, 6, 7, 8]) == [(3, 4), (5, 7), (6, 8)]


@pytest.mark.parametrize("name", [c.name for c in catalog.entries()
                                  if c.product and c.orthogonal])
def test_classify_agrees_with_trees_on_the_catalog(name):
    assert classify(pset(name)) == classify_by_trees(pset(name))


def test_classify_builds_no_tree(monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("classify built a DissectionNode")

    monkeypatch.setattr(dissect_module, "DissectionNode", no_tree)
    for ps in [multiround_basis()] + [pset(c.name) for c in catalog.entries()
                                      if c.product and c.orthogonal]:
        classify(ps)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["walgate-hardy", 2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_classify_agrees_with_trees_on_random_sets(seed, kind):
    rng = np.random.default_rng(seed)
    ps = _walgate_hardy_set(rng) if kind == "walgate-hardy" else random_two_by_d_basis(rng, kind)
    assert classify(ps) == classify_by_trees(ps)


# ---------------------------------------------------------------------------
# invariants: member order, party swap, local frames


def _walgate_hardy_set(rng):
    """{|0 eta1>, |1 eta2>, |0 eta1^perp>, |1 eta2^perp>}; half the etas are
    basis-aligned, so both of its classes occur."""
    e = Ensemble.uniform((2, 2), catalog.walgate_hardy_states(catalog.random_eta(rng),
                                                              catalog.random_eta(rng)))
    return as_product_set(e)


def _outcome(ps):
    return classify(ps), {side: reducible_from(ps, side) for side in "AB"}


def _relabel(ps, perm=None, swap=False, frames=None):
    """The set with member j := member perm[j], the parties swapped, or each
    side's parts sent through its unitary in ``frames``."""
    perm = np.arange(len(ps)) if perm is None else perm
    parts_a, parts_b = ps.parts("A")[perm], ps.parts("B")[perm]
    if frames is not None:
        parts_a, parts_b = parts_a @ frames[0].T, parts_b @ frames[1].T
    probs = [ps.probabilities[i] for i in perm]
    if swap:
        return from_parts(ps.dims[::-1], probs, parts_b, parts_a)
    return from_parts(ps.dims, probs, parts_a, parts_b)


INVARIANT_KINDS = ["walgate-hardy", 2, 3, 4, "case-3x2", "tiles-upb", "multiround"]


def _invariant_input(rng, kind):
    """Random Walgate-Hardy sets and 2 x d bases; two catalog sets add the
    B-only and non-dissectible classes, and multiround_basis the last one."""
    if kind == "walgate-hardy":
        return _walgate_hardy_set(rng)
    if isinstance(kind, int):
        return random_two_by_d_basis(rng, kind)
    if kind == "multiround":
        return multiround_basis()
    return pset(kind)


@given(st.integers(0, 2**32 - 1), st.sampled_from(INVARIANT_KINDS))
@settings(max_examples=40, deadline=None)
def test_dissection_invariants(seed, kind):
    rng = np.random.default_rng(seed)
    ps = _invariant_input(rng, kind)
    label, blocks = _outcome(ps)

    # member order: same class, blocks mapped through the permutation
    perm = rng.permutation(len(ps))
    permuted_label, permuted_blocks = _outcome(_relabel(ps, perm=perm))
    assert permuted_label == label
    for side in "AB":
        mapped = permuted_blocks[side]
        if mapped is not None:
            mapped = sorted(tuple(sorted(int(perm[j]) for j in b)) for b in mapped)
        assert mapped == blocks[side]

    # party swap: A and B results exchange
    swapped_label, swapped_blocks = _outcome(_relabel(ps, swap=True))
    assert swapped_label == label.translate(str.maketrans("AB", "BA"))
    assert swapped_blocks == {"A": blocks["B"], "B": blocks["A"]}

    # local frame U_A (x) U_B: nothing changes
    frames = (haar_unitary(ps.dims[0], rng), haar_unitary(ps.dims[1], rng))
    assert _outcome(_relabel(ps, frames=frames)) == (label, blocks)


# ---------------------------------------------------------------------------
# the frontier search against the fixpoint oracle


@given(st.integers(0, 2**32 - 1), st.sampled_from(INVARIANT_KINDS))
@settings(max_examples=40, deadline=None)
def test_frontier_components_equal_the_fixpoint_oracle(seed, kind):
    # every member, and random subsets of them, from either side
    rng = np.random.default_rng(seed)
    ps = _invariant_input(rng, kind)
    subsets = [tuple(range(len(ps)))]
    subsets += [tuple(sorted(int(i) for i in rng.choice(len(ps), size, replace=False)))
                for size in rng.integers(1, len(ps) + 1, size=4)]
    for side in "AB":
        for idx in subsets:
            assert dissect_module._components(ps, side, mask(idx)) == [
                mask(g) for g in components_by_fixpoint(ps, side, idx)]


class DrawnGraphs:
    """A stand-in product-set view: only the members' count and each side's
    neighbour bitmasks, which is all the protocol reads."""

    def __init__(self, masks_a, masks_b):
        self._neighbours = (masks_a, masks_b)

    def __len__(self):
        return len(self._neighbours[0])


@st.composite
def neighbour_masks(draw):
    """Symmetric neighbour bitmasks of an A and a B graph on k members, each
    member its own neighbour and no two members adjacent on both sides (as
    for orthogonal product members), and sorted member indices to search."""
    k = draw(st.integers(1, 14))
    masks = {side: [1 << i for i in range(k)] for side in "AB"}
    for i, j in itertools.combinations(range(k), 2):
        side = draw(st.sampled_from(["", "A", "B"]))  # adjacent on one side at most
        if side:
            masks[side][i] |= 1 << j
            masks[side][j] |= 1 << i
    indices = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
    return DrawnGraphs(tuple(masks["A"]), tuple(masks["B"])), tuple(sorted(indices))


@given(neighbour_masks())
@settings(max_examples=200, deadline=None)
def test_frontier_components_on_drawn_bitmasks(graph):
    view, indices = graph
    for side in "AB":
        assert dissect_module._components(view, side, mask(indices)) == [
            mask(g) for g in components_by_fixpoint(view, side, indices)]
    assert classify(view) == classify_by_trees(view)


@pytest.mark.parametrize("first", [None, "A", "B"])
def test_dissect_searches_an_unsplit_block_once_per_side(monkeypatch, first):
    # tiles-upb splits from neither side: its one leaf reads the searches
    # that found no split instead of repeating them
    seen, original = [], dissect_module._components

    def counted(pset, side, mask):
        seen.append((side, mask))
        return original(pset, side, mask)

    monkeypatch.setattr(dissect_module, "_components", counted)
    tree = dissect(as_product_set(catalog.build("tiles-upb")), first)
    assert tree.is_leaf and tree.leaf_kind == "irreducible"
    assert sorted(seen) == [("A", 31), ("B", 31)]
