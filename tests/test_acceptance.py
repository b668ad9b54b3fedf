"""Acceptance checks: every benchmark number at its stated tolerance.

The numbers, their tolerances and the one known difference are written
once, in ``nle.reproduce.CHECKS``, which ``nle reproduce`` renders too.
``test_table_entry`` runs each entry as its own test; the known-diff entry
(the orth-pair right fixed gap, exactly 0 because the two members'
post-shift cross terms cancel, so its quoted value is unreachable in fixed
mode) is a strict expected failure. The numbered criteria keep their names
and check the entries they cover again; reports are memoized, so no search
runs twice. Criterion 18 checks properties, not paper values.
"""

import numpy as np
import pytest

from nle import reproduce
from nle.gates import apply, cnot
from nle.linalg import dagger, eigh, gram, haar_unitary, tensor
from nle.states import PureState, entanglement_entropy, vn_entropy


def _param(check):
    marks = [pytest.mark.xfail(strict=True, reason=check.known_diff)] if check.known_diff else []
    return pytest.param(check, id=check.name, marks=marks)


@pytest.mark.parametrize("check", [_param(c) for c in reproduce.CHECKS])
def test_table_entry(check):
    row = check.row()
    assert row.status == "PASS", row


def test_criterion_01_computational_basis_vanishes(table_rows_pass):
    table_rows_pass("delta E1 fixed")


def test_criterion_02_case2_values(table_rows_pass):
    table_rows_pass("delta E2 fixed")


def test_criterion_03_three_by_two_one_third(table_rows_pass):
    table_rows_pass("delta 3x2 fixed")


def test_criterion_04_nlwe_four_ninths(table_rows_pass):
    table_rows_pass("delta NLWE fixed")


def test_criterion_05_tiles_upb_values(table_rows_pass):
    table_rows_pass("delta UPB")


def test_criterion_06_bell_pair_maximum(table_rows_pass):
    table_rows_pass("Delta bell-pair")


def test_criterion_07_bell_triple(table_rows_pass):
    table_rows_pass("Delta bell-triple")


def test_criterion_08_bell_full_vanishes(table_rows_pass):
    table_rows_pass("Delta bell-full")


def test_criterion_09_orth_pair_left_vanishes(table_rows_pass):
    table_rows_pass("Delta orth-pair fixed (left)")


def test_criterion_10_nonmax_family(table_rows_pass):
    table_rows_pass("Delta ghosh")


def test_criterion_11_more_nonlocality_with_less_entanglement(table_rows_pass):
    table_rows_pass("Delta mes-triple", "Delta mixed-triple")


def test_criterion_12_canonical_blocks(table_rows_pass):
    table_rows_pass("Delta canonical")


def test_criterion_13_classification(table_rows_pass):
    table_rows_pass("classification", "dissection of case-3x2")


def test_criterion_14_theorem_one_iff(table_rows_pass):
    table_rows_pass("theorem-1")


def test_criterion_15_positive_for_non_dissectible(table_rows_pass):
    table_rows_pass(
        "classification nlwe-3x3", "classification tiles-upb", "delta positive for non-dissectible"
    )


def test_criterion_16_chsh_link(table_rows_pass):
    table_rows_pass("CHSH")


def test_criterion_17_information_bounds(table_rows_pass):
    table_rows_pass("chi bell-full", "local holevo")


def _random_state(rng, dims):
    n = dims[0] * dims[1]
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(dims, v / np.linalg.norm(v))


def test_criterion_18_property_suites():
    cases = 1000
    rng = np.random.default_rng(18)
    dims_pool = [(2, 2), (2, 3), (3, 3)]

    for i in range(cases):  # Schmidt symmetry
        s = _random_state(rng, dims_pool[i % 3])
        assert abs(vn_entropy(s.marginal("A")) - vn_entropy(s.marginal("B"))) <= 1e-9

    for i in range(cases):  # local-unitary invariance of entanglement entropy
        dims = dims_pool[i % 3]
        s = _random_state(rng, dims)
        u = tensor(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))
        assert abs(entanglement_entropy(s) - entanglement_entropy(apply(u, s))) <= 1e-9

    for i in range(cases):  # Gram preservation under a shared unitary
        dims = dims_pool[i % 3]
        states = [_random_state(rng, dims) for _ in range(3)]
        u = haar_unitary(dims[0] * dims[1], rng)
        outs = [apply(u, s) for s in states]
        g_in = gram([s.amplitudes for s in states])
        g_out = gram([s.amplitudes for s in outs])
        assert np.max(np.abs(g_in - g_out)) <= 1e-10

    for i in range(cases):  # permutation and involution laws of the shift gate
        d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        control = "A" if rng.uniform() < 0.5 else "B"
        reps = int(rng.integers(1, 4))
        u = cnot((d_a, d_b), control, reps)
        assert np.allclose(np.abs(u).sum(axis=0), 1.0)
        assert np.allclose(np.abs(u).sum(axis=1), 1.0)
        d_t = d_b if control == "A" else d_a
        assert np.allclose(cnot((d_a, d_b), control, d_t), np.eye(d_a * d_b))

    for i in range(cases):  # eigh reconstruction
        dim = int(rng.integers(2, 10))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (m + dagger(m)) / 2
        vals, vecs = eigh(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert np.max(np.abs((vecs * vals) @ dagger(vecs) - m)) <= 1e-9 * scale
        assert np.max(np.abs(dagger(vecs) @ vecs - np.eye(dim))) <= 1e-9

