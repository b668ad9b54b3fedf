import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from nle import catalog
from nle.dissect import as_product_set, reducible_from
from nle.config import MAX_DEPTH, MAX_RESTARTS
from nle.errors import (BadParams, BadValue, GramNotIdentity, NleError, NotProductEnsemble,
                        TooLarge)
from nle.gates import cnot_permutation
from nle.linalg import cnot_family, is_unitary
from nle.quantify import (
    Mode,
    _clip_values,
    _delta_objective,
    _LuCircuit,
    _maximize,
    _starts,
    _work,
    assign_partition,
    assign_unitary,
    average_entropy_gap,
    nonlocal_entropy,
    partitions_with_caps,
)
from nle.states import Ensemble, PureState, entanglement_entropies, entanglement_entropy

LOG2_3 = math.log2(3.0)


class TestMode:
    def test_defaults(self):
        m = Mode()
        assert m.name == "fixed" and m.depth == 1 and m.rotate == "both"

    def test_rejects_unknown_name(self):
        with pytest.raises(BadParams):
            Mode(name="annealing")

    def test_rejects_bad_depth(self):
        with pytest.raises(BadParams):
            Mode(depth=0)

    @pytest.mark.parametrize("field,value", [
        ("depth", 2.5), ("depth", "2"), ("depth", True), ("restarts", 2.0),
        ("restarts", False), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integer_search_parameters(self, field, value):
        # they used to fail deep in the search with a TypeError, or (True) run as 1
        with pytest.raises(BadParams) as err:
            Mode("ensemble-lu", **{field: value})
        assert err.value.code == "bad-params"

    def test_accepts_numpy_integers(self):
        assert Mode("ensemble-lu", depth=np.int64(2), seed=np.int32(3)).depth == 2

    def test_numpy_integers_are_kept_as_python_ints(self):
        # a numpy seed used to overflow in the seed arithmetic of every lu
        # search that draws one, and made the mode's dict unserializable
        mode = Mode("ensemble-lu", restarts=np.int64(2), seed=np.int64(3), rotate="control")
        assert all(type(getattr(mode, key)) is int for key in ("depth", "restarts", "seed"))
        assert json.loads(json.dumps(asdict(mode)))["seed"] == 3
        e = catalog.build("case-3x2")
        assert nonlocal_entropy(e, mode) == nonlocal_entropy(e, Mode("ensemble-lu", restarts=2, seed=3,
                                                                     rotate="control"))

    @pytest.mark.parametrize("field,bound", [("restarts", MAX_RESTARTS), ("depth", MAX_DEPTH)])
    def test_rejects_search_sizes_beyond_the_limits(self, field, bound):
        # restarts=10**12 used to construct, and a search would draw that many
        # starts before its first step; a mode builds nothing, so this is cheap
        assert getattr(Mode("ensemble-lu", **{field: bound}), field) == bound
        with pytest.raises(TooLarge) as err:
            Mode("ensemble-lu", **{field: bound + 1})
        assert err.value.code == "too-large"

    @pytest.mark.parametrize("mode", ["fixed", None, ("fixed",)], ids=["name", "none", "tuple"])
    def test_quantifiers_reject_a_mode_that_is_not_a_mode(self, mode):
        # each used to raise a bare AttributeError on mode.name
        e = catalog.build("case-3x2")
        for quantifier in (nonlocal_entropy, average_entropy_gap):
            with pytest.raises(BadParams) as err:
                quantifier(e, mode)
            assert err.value.code == "bad-params"

    @pytest.mark.parametrize("quantifier", [nonlocal_entropy, average_entropy_gap])
    def test_quantifiers_reject_an_argument_that_is_not_an_ensemble(self, quantifier):
        # each used to raise a bare AttributeError on the first ensemble field read
        for e in (None, [catalog.build("case-3x2")], catalog.bell_state("phi+")):
            with pytest.raises(BadParams) as err:
                quantifier(e, Mode("fixed"))
            assert err.value.code == "bad-params"


class TestClipValue:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-6])
    def test_rejects_non_finite_or_negative(self, value):
        with pytest.raises(BadValue) as err:
            _clip_values([0.25, value])
        assert err.value.code == "bad-value"

    def test_clips_rounding_below_zero(self):
        assert _clip_values([-1e-12, 0.25, -0.0]) == [0.0, 0.25, 0.0]

    def test_clips_rounding_above_the_ceiling(self):
        assert _clip_values([1.0 + 1e-12, 0.25], 1.0) == [1.0, 0.25]
        with pytest.raises(BadValue):
            _clip_values([1.0 + 1e-6], 1.0)

    def test_delta_never_exceeds_its_ceiling(self):
        # five members at log2 3 each: their weighted sum rounds one ulp above
        r = nonlocal_entropy(catalog.build("tiles-upb"), Mode("per-state-lu", rotate="both"))
        assert r.right == r.left == r.symmetric == LOG2_3
        assert set(r.contributions_right) == set(r.contributions_left) == {LOG2_3}


class TestWork:
    def test_deficits_clipped_into_range(self):
        # entropies one ulp above log2 d (as a mixture of maximally mixed
        # marginals rounds) and one ulp below 0 give deficits 0 and log2 d
        above = (math.nextafter(1.0, 2.0), math.nextafter(LOG2_3, 2.0))
        below = (math.nextafter(0.0, -1.0),) * 2
        work = _work(above, below, (2, 3))
        assert work == {"A": (0.0, 1.0), "B": (0.0, LOG2_3)}
        assert all(type(w) is float for pair in work.values() for w in pair)


class TestNonlocalEntropy:
    def test_computational_basis_vanishes(self, table_rows_pass):
        table_rows_pass("delta E1 fixed")

    def test_case2_values(self, table_rows_pass):
        table_rows_pass("delta E2 fixed")

    def test_nlwe_four_ninths(self, table_rows_pass):
        table_rows_pass("delta NLWE fixed")

    def test_case_3x2_one_third(self, table_rows_pass):
        table_rows_pass("delta 3x2 fixed")

    def test_tiles_fixed_contributions(self):
        # oracle: hand-applied shifts leave members 1, 2, 5 product and
        # send members 3, 4 to two-term entangled states
        r = nonlocal_entropy(catalog.build("tiles-upb"), Mode("fixed"))
        assert np.allclose(r.contributions_right, [0, 0, 1, 1, 0], atol=1e-9)

    def test_rejects_entangled_members(self):
        with pytest.raises(NotProductEnsemble) as err:
            nonlocal_entropy(catalog.build("bell-pair"), Mode("fixed"))
        assert err.value.code == "not-product-ensemble"

    def test_rejects_assign_mode(self):
        with pytest.raises(BadParams):
            nonlocal_entropy(catalog.build("e1-computational"), Mode("assign"))

    def test_work_reading_matches_contributions(self):
        r = nonlocal_entropy(catalog.build("e2-case2"), Mode("fixed"))
        for direction, value in (("right", r.right), ("left", r.left)):
            control = "A" if direction == "right" else "B"
            w_in, w_fin = r.work[direction][control]
            assert abs((w_in - w_fin) - value) <= 1e-9
        # product inputs start with zero local entropy
        assert abs(r.work["right"]["A"][0] - 1.0) <= 1e-12

    def test_symmetric_is_mean(self):
        r = nonlocal_entropy(catalog.build("case-3x2"), Mode("fixed"))
        assert abs(r.symmetric - (r.right + r.left) / 2) <= 1e-12


class TestLuModes:
    def test_zero_parameters_reproduce_fixed_transform(self):
        # oracle: the shift permutation applied by hand
        e = catalog.build("nlwe-3x3")
        stack = np.array([s.amplitudes for s in e.states])
        for reps in (1, 2):
            shifted = np.empty_like(stack)
            shifted[:, cnot_permutation((3, 3), "A", reps)] = stack
            circuit = _LuCircuit((3, 3), "both", 1, [("right", reps)])
            identity = [np.eye(d)[None] for d in circuit.unitary_dims]
            assert np.allclose(circuit.transform(np.arange(1), stack[None], identity)[0], shifted)
            # the fixed circuit is the bare permutation: the memo's row for
            # (right, reps) is the entanglement of the hand-shifted stack
            row = cnot_family(e.dims).index(("right", reps))
            fixed = entanglement_entropies(shifted, e.dims)
            assert np.array_equal(e.cnot_entanglement[row], fixed)

    @pytest.mark.parametrize("name", ["case-3x2", "e2-case2", "ghosh-nonmax"])
    @pytest.mark.parametrize("quantifier", [nonlocal_entropy, average_entropy_gap])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_fixed_ignores_search_knobs(self, name, quantifier, depth):
        # the fixed circuit is one unrotated layer; depth layers would apply
        # CNOT^(depth*r), which is the identity when depth*r is a multiple of d_t
        def outcome(mode):
            try:
                r = quantifier(catalog.build(name), mode)
            except NleError as exc:  # delta of an entangled ensemble
                return exc.code
            return replace(r, mode=Mode()), r.work

        knobs = Mode("fixed", depth=depth, restarts=5, seed=9, rotate="control")
        assert outcome(knobs) == outcome(Mode("fixed"))

    def test_mode_monotonicity(self):
        e = catalog.build("e2-case2")
        fixed = nonlocal_entropy(e, Mode("fixed")).symmetric
        shared = nonlocal_entropy(e, Mode("ensemble-lu", restarts=6, seed=3)).symmetric
        per_state = nonlocal_entropy(e, Mode("per-state-lu", restarts=6, seed=3)).symmetric
        assert shared >= fixed - 1e-9
        assert per_state >= shared - 1e-9

    def test_per_state_reaches_member_bound(self):
        # target-side rotations cannot beat the control-amplitude entropy
        e = catalog.build("tiles-upb").subset([4])
        r = nonlocal_entropy(e, Mode("per-state-lu", restarts=8, seed=2, rotate="target"))
        assert r.right <= LOG2_3 + 1e-9
        assert r.right >= LOG2_3 - 1e-4


class TestAverageEntropyGap:
    def test_bell_pair_both_modes(self, table_rows_pass):
        table_rows_pass("Delta bell-pair")

    def test_bell_triple(self, table_rows_pass):
        table_rows_pass("Delta bell-triple")

    def test_bell_full_vanishes(self, table_rows_pass):
        table_rows_pass("Delta bell-full")

    def test_ghosh_expression(self, table_rows_pass):
        table_rows_pass("Delta ghosh first-three")

    def test_ghosh_pairs_give_unity(self, table_rows_pass):
        table_rows_pass("Delta ghosh pair assign")

    def test_mes_triples(self, table_rows_pass):
        table_rows_pass("Delta mes-triple", "Delta mixed-triple")

    def test_identity_wins_ties(self):
        # the target-rotated r=1 search only reaches a zero gap, as the
        # identity does, and leaves as many members entangled
        r = average_entropy_gap(
            catalog.build("orth-pair"), Mode("ensemble-lu", restarts=1, rotate="target")
        )
        assert r.right == 0.0
        assert r.reps_right == 0
        assert r.side_gaps_right == (0.0, 0.0)

    def test_orth_pair_fixed_gaps_vanish(self, table_rows_pass):
        # post-shift marginal cross terms cancel for this family
        table_rows_pass("Delta orth-pair fixed (right) exact", "Delta orth-pair fixed (left) exact")

    def test_assign_requires_orthogonality(self):
        e = Ensemble.uniform(
            (2, 2),
            [
                catalog.bell_state("phi+"),
                catalog.build("e1-computational").states[0],
            ],
        )
        with pytest.raises(GramNotIdentity) as err:
            average_entropy_gap(e, Mode("assign"))
        assert err.value.code == "gram-not-identity"

    def test_rejects_per_state_mode(self):
        with pytest.raises(BadParams):
            average_entropy_gap(catalog.build("bell-pair"), Mode("per-state-lu"))

    def test_entangled_fraction_reported(self):
        r = average_entropy_gap(catalog.build("bell-full"), Mode("fixed"))
        assert r.entangled_fraction_right == 0.0
        r = average_entropy_gap(catalog.build("orth-pair"), Mode("fixed"))
        assert r.entangled_fraction_right > 0.0

    def test_maximally_mixed_members_bounded_by_log_dim(self):
        # the initial marginal entropy caps the reachable gap
        both = (Mode("fixed"), Mode("assign"))
        for d, modes in ((2, both), (3, both), (4, (Mode("assign"),))):
            for count in (1, 2, d, d + 1, d * d):
                e = catalog.build("canonical-mes", {"d": d, "count": count})
                for mode in modes:
                    r = average_entropy_gap(e, mode)
                    assert r.right <= math.log2(d) + 1e-9


class TestAssignMachinery:
    def test_partition_caps(self):
        parts = list(partitions_with_caps(4, 2, 2))
        assert all(len(p) <= 2 and all(len(g) <= 2 for g in p) for p in parts)
        assert [(0, 1), (2, 3)] in parts
        assert [(0, 1, 2, 3)] not in parts

    def test_bell_triple_partition(self):
        partition, h = assign_partition(catalog.build("bell-triple"), "B")
        sizes = sorted(len(g) for g in partition)
        assert sizes == [1, 2]
        assert abs(h - (math.log2(3) - 2 / 3)) <= 1e-12

    def test_side_gaps_within_mixture_entropy_when_probabilities_exceed_one(self):
        # the probabilities sum to 1 + 4e-11 (within TOL.prob_sum), so the one
        # full group's mass exceeds 1; its entropy is floored at 0 and no side
        # gap exceeds the entropy it is a drop from
        bell = catalog.build("bell-pair")
        e = Ensemble(bell.dims, (0.5 + 4e-11, 0.5), bell.states)
        assert assign_partition(e, "B") == (((0, 1),), 0.0)
        r = average_entropy_gap(e, Mode("assign"))
        for gaps in (r.side_gaps_right, r.side_gaps_left):
            assert all(g <= s for g, s in zip(gaps, e.mixture_entropies))
        assert r.side_gaps_right == e.mixture_entropies

    def test_assign_unitary_realizes_relabeling(self):
        e = catalog.build("more-nl-mes")
        partition, _ = assign_partition(e, "B")
        u = assign_unitary(e, partition, "B")
        assert is_unitary(u, 1e-9)
        outs = [u @ s.amplitudes for s in e.states]
        for out in outs:
            ent = entanglement_entropy(
                type(e.states[0])(e.dims, out / np.linalg.norm(out))
            )
            assert ent <= 1e-9
        g = np.conjugate(np.array(outs)) @ np.array(outs).T
        assert np.max(np.abs(g - np.eye(len(outs)))) <= 1e-9


def optimize_unitary(objective, dim: int, restarts: int = 8, seed: int = 0):
    """Maximize ``objective(U)`` over the unitary group U(dim) with the lu
    searches' Riemannian ascent; ``objective`` returns the value and
    ``d value / d conj(U)``. Returns ``(best value, best U)``."""

    def f(rows, point):  # every problem is the one objective, valued row by row
        found = [objective(u) for u in point[0]]
        return [v for v, _ in found], lambda pos: [np.array([g for _, g in found])[pos]]

    val, us = _maximize(f, _starts([dim], restarts, seed))[0]
    return val, us[0]


def _overlap(u):
    # |u_01|^2 and its gradient d/dconj(u) = u_01 at (0, 1)
    gamma = np.zeros_like(u)
    gamma[0, 1] = u[0, 1]
    return abs(u[0, 1]) ** 2, gamma


class TestOptimizeUnitary:
    def test_constant_objective(self):
        val, u = optimize_unitary(lambda u: (0.25, np.zeros_like(u)), 2, restarts=2, seed=0)
        assert val == 0.25
        assert np.array_equal(u, np.eye(2))  # the identity; no start beats it

    def test_off_diagonal_overlap(self):
        val, u = optimize_unitary(_overlap, 2, restarts=8, seed=0)
        assert val >= 1.0 - 1e-12
        assert is_unitary(u, 1e-12)

    def test_deterministic_given_seed(self):
        runs = [optimize_unitary(_overlap, 2, restarts=3, seed=11) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_shift_output_entanglement_over_target_rotation(self):
        # rotating the uniform target part onto a basis vector yields the
        # maximally entangled output, so the optimum is log2(3)
        stack = np.ones((1, 9), dtype=complex) / 3.0
        circuit = _LuCircuit((3, 3), "target", 1, [("right", 1)] * 8)
        f = circuit.on(stack, lambda t, sides: _delta_objective(t, sides, np.ones(1), (3, 3)))
        val, us = _maximize(f, _starts(circuit.unitary_dims, 8, 0))[0]
        assert abs(val - LOG2_3) <= 1e-9
        out = circuit.transform(np.arange(1), stack[None], [u[None] for u in us])[0]
        assert abs(entanglement_entropy(PureState((3, 3), out[0])) - LOG2_3) <= 1e-9


class TestTheoremOneGrid:
    def test_left_value_positive_iff_irreducible_from_b(self):
        # grid mixes basis-aligned and generic local states; equal generic
        # angles are skipped because they tilt the whole frame, where only
        # the optimized quantity (not the bare shift) sees reducibility
        thetas = [0.0, 0.3, 0.7, 1.1, math.pi / 2]
        basis = {0.0, math.pi / 2}
        for t1 in thetas:
            for t2 in thetas:
                if t1 == t2 and t1 not in basis:
                    continue
                eta1 = [math.cos(t1), math.sin(t1)]
                eta2 = [math.cos(t2), math.sin(t2)]
                e = Ensemble.uniform((2, 2), catalog.walgate_hardy_states(eta1, eta2))
                r = nonlocal_entropy(e, Mode("fixed"))
                irreducible_b = reducible_from(as_product_set(e), "B") is None
                assert (r.left > 1e-9) == irreducible_b, (t1, t2)
                assert r.right <= 1e-12

    def test_rotated_frames_need_the_optimized_reading(self):
        # equal generic angles give a reducible frame whose bare-shift value
        # is positive; target-side rotations restore the vanishing optimum
        eta = [math.cos(0.3), math.sin(0.3)]
        e = Ensemble.uniform((2, 2), catalog.walgate_hardy_states(eta, eta))
        assert reducible_from(as_product_set(e), "B") is not None
        bare = nonlocal_entropy(e, Mode("fixed"))
        assert bare.left > 1e-3
        # a shared target-side rotation aligning eta with the basis is in the
        # lu search space, so the infimum over that family is 0; the max the
        # optimizer reports is only an upper-bound flavor and stays positive
        dressed = nonlocal_entropy(e, Mode("ensemble-lu", restarts=4, seed=1))
        assert dressed.left >= bare.left - 1e-9
