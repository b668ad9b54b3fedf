import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nle import catalog
from nle.errors import BadParams, NleError, NoSuchEntry, TooLarge
from nle.linalg import gram, partial_trace
from nle.states import Ensemble, entanglement_entropy


def test_every_entry_builds_and_matches_descriptor():
    for entry in catalog.entries():
        e = catalog.build(entry.name)
        assert e.dims == entry.dims
        assert len(e) == entry.size
        assert e.is_orthogonal() == entry.orthogonal
        assert e.is_product() == entry.product


def test_listed_parameters_build_the_entry():
    # every listed default, passed back in, builds the same ensemble
    for entry in catalog.entries():
        e = catalog.build(entry.name, entry.parameters)
        assert np.array_equal(e.amplitudes, catalog.build(entry.name).amplitudes), entry.name
        assert e.probabilities == catalog.build(entry.name).probabilities


def test_listing_is_stable_and_documented():
    names = [entry.name for entry in catalog.entries()]
    assert names[0] == "e1-computational"
    assert "nlwe-3x3" in names
    tiles = next(entry for entry in catalog.entries() if entry.name == "tiles-upb")
    assert tiles.dims == (3, 3) and tiles.size == 5


def test_nlwe_gram_identity():
    e = catalog.build("nlwe-3x3")
    assert len(e) == 9
    assert np.max(np.abs(gram(e.amplitudes) - np.eye(9))) <= 1e-12
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


# floats and booleans are not integers, whatever their value
@pytest.mark.parametrize("name,params", [
    ("ghosh-nonmax", {"count": 2.7}),
    ("ghosh-nonmax", {"count": True}),
    ("ghosh-nonmax", {"count": 3.0}),
    ("canonical-mes", {"d": 3.9}),
    ("canonical-mes", {"d": True}),
    ("canonical-mes", {"count": 4.5}),
    ("canonical-mes", {"block": 1.0}),
    ("canonical-mes", {"block": False}),
    ("canonical-mes", {"indices": [0, 1.5]}),
    ("canonical-mes", {"indices": [0, True]}),
], ids=lambda x: repr(x) if isinstance(x, dict) else x)
def test_integer_params_must_be_integers(name, params):
    with pytest.raises(BadParams) as err:
        catalog.build(name, params)
    assert err.value.code == "bad-params"


def test_integer_params_accept_numpy_integers():
    assert len(catalog.build("ghosh-nonmax", {"count": np.int64(3)})) == 3
    e = catalog.build("canonical-mes", {"d": np.int32(2), "indices": np.arange(3)})
    assert e.dims == (2, 2) and len(e) == 3
    assert len(catalog.build("canonical-mes", {"d": 3, "block": None, "count": None})) == 9
    with pytest.raises(BadParams):
        catalog.build("canonical-mes", {"indices": 5})


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


def test_canonical_mes_size_limit_precedes_the_members(monkeypatch):
    # d*d > MAX_DIM_PRODUCT is rejected from d alone, before any member is built
    calls = []
    state = catalog.canonical_mes_state
    monkeypatch.setattr(catalog, "canonical_mes_state", lambda *a: calls.append(a) or state(*a))
    with pytest.raises(TooLarge) as err:
        catalog.build("canonical-mes", {"d": 17})
    assert err.value.code == "too-large" and calls == []
    e = catalog.build("canonical-mes", {"d": 16})
    assert e.dims == (16, 16) and len(e) == 256 and len(calls) == 256


def test_canonical_mes_empty_indices_are_bad_params():
    # an empty selection is a parameter error, not a mismatch of probabilities and states
    with pytest.raises(BadParams) as err:
        catalog.build("canonical-mes", {"d": 3, "indices": []})
    assert err.value.code == "bad-params"


@pytest.mark.parametrize("call", [
    lambda: catalog.walgate_hardy_states([1, 0, 0], [1, 0]),
    lambda: catalog.walgate_hardy_states([1], [1, 0]),
    lambda: catalog.orth_pair_states([1, 0, 0], [1, 0]),
    lambda: catalog.walgate_hardy_states([float("nan"), 0], [1, 0]),
    lambda: catalog.walgate_hardy_states("ab", [1, 0]),
    lambda: catalog.walgate_hardy_states([1, 0], {"a": 1}),
    lambda: catalog.walgate_hardy_states([[1], 0], [1, 0]),
    lambda: catalog.orth_pair_states("ab", [1, 0]),
    lambda: catalog.orth_pair_states([1, 0], {"a": 1}),
    lambda: catalog.build("walgate-hardy", {"a1": [1, 0, 0]}),
    lambda: catalog.build("ghosh-nonmax", {"a": "x"}),
    lambda: catalog.walgate_hardy_states([0, 0], [1, 0]),
    lambda: catalog.build("ghosh-nonmax", {"count": 0}),
    lambda: catalog.build("ghosh-nonmax", {"count": 5}),
    lambda: catalog.walgate_hardy_states(["1", "0"], [1, 0]),
    lambda: catalog.orth_pair_states([1, 0], ["1", "0"]),
], ids=["wh-eta1-three", "wh-eta1-one", "orth-pair-eta1-three", "wh-eta1-nan", "wh-eta1-text",
       "wh-eta2-dict", "wh-eta1-ragged", "orth-pair-eta1-text", "orth-pair-eta2-dict",
       "wh-a1-list", "ghosh-a-text", "wh-eta1-zero", "ghosh-count-0", "ghosh-count-5",
       "wh-eta1-text-elements", "orth-pair-eta2-text-elements"])
def test_params_of_the_wrong_shape_or_type_are_bad_params(call):
    # these once raised a bare TypeError from unpacking, comparing or
    # converting the value (text, a dict), a ValueError, or (a NaN eta)
    # divided by a NaN norm, or (text elements) built, each parsed as a number
    with pytest.raises(BadParams) as err:
        call()
    assert err.value.code == "bad-params"


PARAMETERIZED = [(entry.name, tuple(entry.parameters)) for entry in catalog.entries()
                 if entry.parameters]
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.complex_numbers(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 20), st.floats(), st.booleans(), st.text(max_size=2)),
             max_size=5),
)


@given(st.sampled_from(PARAMETERIZED).flatmap(lambda row: st.tuples(
    st.just(row[0]), st.fixed_dictionaries({}, optional=dict.fromkeys(row[1], ANY_VALUE)))))
@example(("ghosh-nonmax", {"a": 10**200, "b": 0}))  # a*a overflows a float
@example(("walgate-hardy", {"a1": 10**400}))  # no float holds it
@settings(max_examples=300, deadline=None)
def test_any_param_values_build_or_raise_an_nle_error(case):
    # a library caller may pass anything; the answer is an ensemble or a coded error
    name, params = case
    try:
        e = catalog.build(name, params)
    except NleError:
        return
    assert isinstance(e, Ensemble)


def test_ghosh_equal_amplitudes_reduce_to_maximal_entanglement():
    e = catalog.build("ghosh-nonmax", {"a": 1 / math.sqrt(2)})
    for s in e.states:
        assert abs(entanglement_entropy(s) - 1.0) <= 1e-12


@pytest.mark.parametrize("name,key,value,size", [
    ("ghosh-nonmax", "count", 2, 2),
    ("canonical-mes", "d", 2, 4),
    ("canonical-mes", "block", 1, 3),
])
def test_builders_read_their_defaults_from_the_table(monkeypatch, name, key, value, size):
    # each default is written once, in the table: changed there, the default build follows
    builder, description, defaults = catalog._CATALOG[name]
    monkeypatch.setitem(catalog._CATALOG, name, (builder, description, {**defaults, key: value}))
    assert len(catalog.build(name)) == size
    catalog._default.cache_clear()


@pytest.mark.parametrize("name,params", [
    ("ghosh-nonmax", {"a": None, "count": None}),
    ("canonical-mes", {"d": None, "indices": None}),
    ("walgate-hardy", {"a1": None, "b2": None}),
    ("orth-pair", {"a2": None}),
])
def test_none_params_keep_the_defaults(name, params):
    # a None param keeps its default, also where the default is a number
    assert np.array_equal(catalog.build(name, params).amplitudes, catalog.build(name).amplitudes)


def test_canonical_mes_lists_every_parameter():
    entry = next(e for e in catalog.entries() if e.name == "canonical-mes")
    assert entry.parameters == {"d": 3, "block": None, "count": None, "indices": None}


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
    assert np.max(np.abs(gram(e.amplitudes) - np.eye(2))) <= 1e-12
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


def test_default_build_is_one_instance_per_process():
    for entry in catalog.entries():
        e = catalog.build(entry.name)
        assert catalog.build(entry.name) is e
        assert catalog.build(entry.name, {}) is e and catalog.build(entry.name, None) is e
    fresh = catalog.build("ghosh-nonmax", {"count": 4})
    assert fresh is not catalog.build("ghosh-nonmax")
    assert np.array_equal(fresh.amplitudes, catalog.build("ghosh-nonmax").amplitudes)
    assert catalog.build("canonical-mes", {"d": 3}) is not catalog.build("canonical-mes", {"d": 3})


def test_entries_report_the_shared_defaults():
    listed = catalog.entries()
    built = catalog._default.cache_info().misses
    assert built == len(listed) == catalog._default.cache_info().currsize
    for entry in listed:
        catalog.build(entry.name)
    catalog.entries()
    assert catalog._default.cache_info().misses == built


def test_default_arrays_are_read_only():
    for entry in catalog.entries():
        e = catalog.build(entry.name)
        arrays = [e.amplitudes, e.spectra, *e.schmidt_pairs, e.entanglement,
                  e.cnot_entanglement, e.cnot_mixture_entropies]
        arrays += [s.amplitudes for s in e.states]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0
        assert isinstance(e.mixture_entropies, tuple)


@pytest.mark.parametrize("name,params", [
    ("bell-full", {"count": 2}),
    ("nlwe-3x3", {"d": 4}),
    ("e1-computational", {"anything": None}),
    ("more-nl-mixed", {"a": 0.5}),
], ids=lambda x: repr(x) if isinstance(x, dict) else x)
def test_entries_without_parameters_reject_any(name, params):
    # these were once ignored: bell-full with count 2 had 4 members
    with pytest.raises(BadParams) as err:
        catalog.build(name, params)
    assert err.value.code == "bad-params"
