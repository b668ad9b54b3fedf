import math

import numpy as np
import pytest

from nle import catalog
from nle.errors import BadParams, NoSuchEntry
from nle.linalg import partial_trace
from nle.states import entanglement_entropy


def test_every_entry_builds_and_matches_descriptor():
    for entry in catalog.entries():
        e = catalog.build(entry.name)
        assert e.dims == entry.dims
        assert len(e) == entry.size
        assert e.is_orthogonal() == entry.orthogonal
        assert e.is_product() == entry.product


def test_listing_is_stable_and_documented():
    names = [entry.name for entry in catalog.entries()]
    assert names[0] == "e1-computational"
    assert "nlwe-3x3" in names
    tiles = next(entry for entry in catalog.entries() if entry.name == "tiles-upb")
    assert tiles.dims == (3, 3) and tiles.size == 5


def test_nlwe_gram_identity():
    e = catalog.build("nlwe-3x3")
    assert len(e) == 9
    assert e.is_orthogonal(1e-12)
    assert e.is_product()


def test_unknown_entry():
    with pytest.raises(NoSuchEntry) as err:
        catalog.build("does-not-exist")
    assert err.value.code == "no-such-entry"


def test_bad_params_rejected():
    with pytest.raises(BadParams):
        catalog.build("ghosh-nonmax", {"a": 0.8, "b": 0.9})
    with pytest.raises(BadParams):
        catalog.build("walgate-hardy", {"bogus": 1.0})
    with pytest.raises(BadParams):
        catalog.build("canonical-mes", {"d": 3, "block": 5})
    with pytest.raises(BadParams):
        catalog.build("canonical-mes", {"d": 3, "block": 0, "count": 2})


def test_canonical_mes_d2_is_bell_basis_up_to_phase():
    e = catalog.build("canonical-mes", {"d": 2})
    bells = [catalog.bell_state(k).amplitudes for k in ("phi+", "phi-", "psi+", "psi-")]
    for s in e.states:
        overlaps = [abs(np.vdot(b, s.amplitudes)) for b in bells]
        assert max(overlaps) >= 1.0 - 1e-12


def test_canonical_mes_marginals_maximally_mixed():
    for d in (2, 3):
        e = catalog.build("canonical-mes", {"d": d})
        for s in e.states:
            rho = s.projector()
            for keep in ("A", "B"):
                assert np.allclose(partial_trace(rho, s.dims, keep), np.eye(d) / d, atol=1e-12)
            assert abs(entanglement_entropy(s) - math.log2(d)) <= 1e-12


def test_canonical_mes_block_and_count_selection():
    blk = catalog.build("canonical-mes", {"d": 3, "block": 1})
    assert len(blk) == 3
    top = catalog.build("canonical-mes", {"d": 3, "count": 4})
    assert len(top) == 4


def test_ghosh_equal_amplitudes_reduce_to_maximal_entanglement():
    e = catalog.build("ghosh-nonmax", {"a": 1 / math.sqrt(2)})
    for s in e.states:
        assert abs(entanglement_entropy(s) - 1.0) <= 1e-12


def test_ghosh_count_selects_prefix():
    e = catalog.build("ghosh-nonmax", {"a": 0.8, "b": 0.6, "count": 3})
    assert len(e) == 3


def test_more_nl_mixed_replaces_last_with_product():
    e = catalog.build("more-nl-mixed")
    assert entanglement_entropy(e.states[2]) <= 1e-12
    expected = np.zeros(9)
    expected[1] = 1.0
    assert np.allclose(e.states[2].amplitudes, expected)
    for s in e.states[:2]:
        assert abs(entanglement_entropy(s) - math.log2(3)) <= 1e-12


def test_orth_pair_members_orthogonal_and_entangled():
    e = catalog.build("orth-pair")
    assert e.is_orthogonal(1e-12)
    for i, s in enumerate(e.states):
        assert entanglement_entropy(s) > 1e-3
        assert not e.subset([i]).is_product()


def test_walgate_hardy_default_reduces_to_case2():
    e = catalog.build("walgate-hardy")
    ref = catalog.build("e2-case2")
    # same states up to ordering: overlap matrix is a permutation
    overlap = np.array(
        [[abs(np.vdot(a.amplitudes, b.amplitudes)) for b in ref.states] for a in e.states]
    )
    assert np.allclose(np.sort(overlap.max(axis=1)), np.ones(4), atol=1e-12)
    assert np.allclose(overlap.sum(axis=0), np.ones(4), atol=1e-9)


def test_dissection_flags_of_named_sets(table_rows_pass):
    table_rows_pass(
        "classification tiles-upb", "classification nlwe-3x3", "classification e1-computational"
    )


def test_case_3x2_members_match_construction():
    e = catalog.build("case-3x2")
    assert e.dims == (3, 2)
    amps = e.states[0].amplitudes  # (|10> + |20>)/sqrt(2) in flat indexing
    expected = np.zeros(6)
    expected[[2, 4]] = 1 / math.sqrt(2)
    assert np.allclose(amps, expected)
