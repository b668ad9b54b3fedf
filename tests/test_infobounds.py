import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle import catalog
from nle.catalog import bell_state
from nle.errors import BadParams, UnsupportedDims
from nle.gates import apply_cnot
from nle.infobounds import cnot_bounds, holevo_chi, local_holevo
from nle.qubits import chsh_max, concurrence
from nle.states import (
    Ensemble,
    PureState,
    entanglement_entropy,
    marginal_entropies,
    product_state,
)

ROOT8 = 2.0 * math.sqrt(2.0)


class TestHolevoChi:
    def test_full_bell_basis(self, table_rows_pass):
        # oracle: the average is I/4, whose entropy is 2 by hand
        table_rows_pass("chi bell-full exact")

    def test_single_state(self):
        e = Ensemble((2, 2), (1.0,), (bell_state("phi+"),))
        assert holevo_chi(e) <= 1e-12

    def test_classical_pair(self):
        e = Ensemble.uniform(
            (2, 2),
            [product_state((2, 2), [1, 0], [1, 0]), product_state((2, 2), [0, 1], [0, 1])],
        )
        assert abs(holevo_chi(e) - 1.0) <= 1e-12

    def test_range(self):
        for name in ("bell-full", "nlwe-3x3", "tiles-upb", "more-nl-mixed"):
            e = catalog.build(name)
            chi = holevo_chi(e)
            assert -1e-12 <= chi <= math.log2(e.dims[0] * e.dims[1]) + 1e-12


class TestLocalHolevo:
    def test_full_bell_basis(self, table_rows_pass):
        # 1 + 1 - 1: maximally mixed average marginals, unit member entropy
        table_rows_pass("local holevo bell-full exact")

    def test_nlwe_zero_subtrahend(self):
        e = catalog.build("nlwe-3x3")
        s_a, s_b = marginal_entropies(e)
        assert abs(local_holevo(e) - (s_a + s_b)) <= 1e-12

    def test_single_product_state(self):
        e = Ensemble((2, 2), (1.0,), (product_state((2, 2), [1, 0], [1, 0]),))
        assert local_holevo(e) <= 1e-12

    def test_product_ensembles_have_zero_subtrahend(self):
        for name in ("e1-computational", "e2-case2", "tiles-upb", "case-3x2"):
            e = catalog.build(name)
            s_a, s_b = marginal_entropies(e)
            assert abs(local_holevo(e) - (s_a + s_b)) <= 1e-12

    def test_nonnegative_on_catalog(self):
        for entry in catalog.entries():
            e = catalog.build(entry.name)
            assert local_holevo(e) >= -1e-12
            assert holevo_chi(e) >= -1e-12


class TestCnotBounds:
    def test_nlwe_lower_relation(self):
        e = catalog.build("nlwe-3x3")
        report = cnot_bounds(e)
        assert report.product_input
        assert report.entangled_members_after == 4
        assert report.cnot_upper_bound is None
        # oracle: evaluate the comparator from explicitly transformed members
        transformed = Ensemble(
            e.dims, e.probabilities, tuple(apply_cnot(s, "A", 1) for s in e.states)
        )
        s_a, s_b = marginal_entropies(transformed)
        member_avg = sum(
            p * entanglement_entropy(s)
            for p, s in zip(transformed.probabilities, transformed.states)
        )
        assert abs(report.cnot_lower_comparator - (s_a + s_b - member_avg)) <= 1e-12
        assert report.applicable["product-lower-relation"]

    def test_entangled_pair_upper_bound(self):
        report = cnot_bounds(catalog.build("orth-pair"))
        assert not report.product_input
        assert report.cnot_lower_comparator is None
        assert report.entangled_members_after > 0
        assert report.applicable["upper-effective"]
        assert 0.0 <= report.cnot_upper_bound <= 2.0 + 1e-12

    def test_invariant_ensemble_bounds_coincide(self):
        e = Ensemble.uniform(
            (2, 2),
            [product_state((2, 2), [1, 0], [1, 0]), product_state((2, 2), [1, 0], [0, 1])],
        )
        report = cnot_bounds(e)
        assert report.entangled_members_after == 0
        assert abs(report.cnot_lower_comparator - report.local_holevo) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4), (4, 2)])
    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("product", [True, False])
    def test_matches_member_by_member_apply_cnot(self, dims, direction, product):
        # reference: rebuild every member through apply_cnot, then the ensemble
        rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + product)
        if product:
            states = [product_state(dims, rng.normal(size=dims[0]) + 1j * rng.normal(size=dims[0]),
                                    rng.normal(size=dims[1]) + 1j * rng.normal(size=dims[1]))
                      for _ in range(4)]
        else:
            n = dims[0] * dims[1]
            vs = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
            states = [PureState(dims, v / np.linalg.norm(v)) for v in vs]
        p = rng.uniform(0.1, 1.0, size=4)
        e = Ensemble(dims, tuple(p / p.sum()), tuple(states))
        control = "A" if direction == "right" else "B"
        after = Ensemble(dims, e.probabilities, tuple(apply_cnot(s, control, 1) for s in e.states))
        ents = np.array([entanglement_entropy(s) for s in after.states])
        s_a, s_b = marginal_entropies(after)
        reference = s_a + s_b - float(np.array(after.probabilities) @ ents)
        report = cnot_bounds(e, direction)
        got = report.cnot_lower_comparator if product else report.cnot_upper_bound
        assert report.product_input == product
        assert abs(got - reference) <= 1e-12
        assert abs(report.local_holevo - local_holevo(e)) <= 1e-12
        assert report.entangled_members_after == int(np.count_nonzero(ents > 1e-9))


@pytest.mark.parametrize("direction", ["sideways", "both", "", None, "Right"])
def test_cnot_bounds_rejects_unknown_direction(direction):
    with pytest.raises(BadParams):
        cnot_bounds(catalog.build("nlwe-3x3"), direction)


def test_cnot_bounds_rejects_an_argument_that_is_not_an_ensemble():
    # each used to raise a bare AttributeError on e.probabilities
    for e in (None, [catalog.build("case-3x2")], bell_state("phi+")):
        with pytest.raises(BadParams) as err:
            cnot_bounds(e)
        assert err.value.code == "bad-params"


class TestChsh:
    def test_bell_state_maximal(self):
        assert abs(chsh_max(bell_state("phi+")) - ROOT8) <= 1e-12

    def test_product_state_classical(self):
        assert chsh_max(product_state((2, 2), [1, 0], [1, 0])) == 2.0

    def test_case2_post_shift_members(self):
        e = catalog.build("e2-case2")
        outs = [apply_cnot(s, "B", 1) for s in e.states[:2]]
        for out in outs:
            assert abs(concurrence(out) - 1.0) <= 1e-12
            assert abs(chsh_max(out) - ROOT8) <= 1e-12

    def test_rejects_higher_dims(self):
        with pytest.raises(UnsupportedDims) as err:
            chsh_max(product_state((3, 3), [1, 0, 0], [1, 0, 0]))
        assert err.value.code == "unsupported-dims"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_violation_iff_entangled(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = PureState((2, 2), v / np.linalg.norm(v))
        assert (chsh_max(s) > 2.0) == (entanglement_entropy(s) > 1e-9)

    def test_range(self):
        for kind in ("phi+", "psi-"):
            assert 2.0 <= chsh_max(bell_state(kind)) <= ROOT8 + 1e-12


def test_chi_dominates_local_holevo_minus_weak_marginal():
    for entry in catalog.entries():
        e = catalog.build(entry.name)
        s_a, s_b = marginal_entropies(e)
        assert holevo_chi(e) >= local_holevo(e) - min(s_a, s_b) - 1e-9
