"""Acceptance checks: every benchmark number at its stated tolerance.

One test per criterion; each prints a single pass line when its assertions
hold. Criterion 9's right-direction target is marked as a strict expected
failure: for that two-state family the plain controlled-shift transform
provably leaves both average marginals maximally mixed (the two members'
cross terms cancel), so the value is exactly 0 and the quoted 0.0007 is
unreachable in fixed mode (and every implemented search lands elsewhere);
see the reproduce table's KNOWN-DIFF row.
"""

import math

import numpy as np
import pytest

from nle import catalog
from nle.dissect import as_product_set, classify, reducible_from
from nle.gates import apply, apply_cnot, cnot
from nle.infobounds import chsh_max, holevo_chi, local_holevo
from nle.linalg import dagger, eigh, gram, haar_unitary, tensor
from nle.quantify import Mode, average_entropy_gap, nonlocal_entropy
from nle.states import Ensemble, PureState, entanglement_entropy, vn_entropy

LOG2_3 = math.log2(3.0)
FIXED = Mode("fixed")
ASSIGN = Mode("assign")


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d}: PASS  {text}")


def test_criterion_01_computational_basis_vanishes():
    r = nonlocal_entropy(catalog.build("e1-computational"), FIXED)
    assert abs(r.right) <= 1e-12
    assert abs(r.left) <= 1e-12
    assert abs(r.symmetric) <= 1e-12
    _ok(1, "delta(E1, fixed) = 0 exactly")


def test_criterion_02_case2_values():
    r = nonlocal_entropy(catalog.build("e2-case2"), FIXED)
    assert abs(r.right - 0.0) <= 1e-9
    assert abs(r.left - 0.5) <= 1e-9
    assert abs(r.symmetric - 0.25) <= 1e-9
    _ok(2, "delta(E2, fixed) = (0, 0.5, 0.25)")


def test_criterion_03_three_by_two_one_third():
    r = nonlocal_entropy(catalog.build("case-3x2"), FIXED)
    assert abs(r.right - 1.0 / 3.0) <= 1e-9
    _ok(3, "delta_right(3x2 set, fixed) = 1/3")


def test_criterion_04_nlwe_four_ninths():
    r = nonlocal_entropy(catalog.build("nlwe-3x3"), FIXED)
    assert abs(r.right - 4.0 / 9.0) <= 1e-9
    assert abs(r.left - 4.0 / 9.0) <= 1e-9
    _ok(4, "delta(NLWE, fixed) = 4/9 both directions")


def test_criterion_05_tiles_upb_values():
    tiles = catalog.build("tiles-upb")
    r = nonlocal_entropy(tiles, FIXED)
    assert abs(r.right - 0.4) <= 1e-9
    assert abs(r.left - 0.4) <= 1e-9
    assert abs(r.symmetric - 0.4) <= 1e-9
    lu = nonlocal_entropy(tiles, Mode("per-state-lu", restarts=16, seed=0, rotate="target"))
    target = (2.0 + LOG2_3) / 5.0
    assert lu.symmetric >= target - 1e-3
    _ok(5, f"delta(UPB) fixed = 0.4, per-state-lu reaches {lu.symmetric:.6f}")


def test_criterion_06_bell_pair_maximum():
    e = catalog.build("bell-pair")
    for mode in (FIXED, ASSIGN):
        r = average_entropy_gap(e, mode)
        assert abs(r.right - 1.0) <= 1e-9
    _ok(6, "Delta(bell-pair) = 1 in fixed and assign modes")


def test_criterion_07_bell_triple():
    r = average_entropy_gap(catalog.build("bell-triple"), ASSIGN)
    expected = 1.0 - (LOG2_3 - 2.0 / 3.0)  # 1 - H(1/3)
    assert abs(expected - 0.081704) <= 5e-7
    assert abs(r.right - 0.081704) <= 5e-4
    _ok(7, "Delta(bell-triple, assign) = 0.081704")


def test_criterion_08_bell_full_vanishes():
    e = catalog.build("bell-full")
    for mode in (ASSIGN, FIXED):
        r = average_entropy_gap(e, mode)
        assert abs(r.right) <= 1e-9
    _ok(8, "Delta(bell-full) = 0 in assign and fixed modes")


def test_criterion_09_orth_pair_left_vanishes():
    r = average_entropy_gap(catalog.build("orth-pair"), FIXED)
    assert abs(r.left) <= 1e-6
    _ok(9, "Delta_left(orth-pair, fixed) = 0")


@pytest.mark.xfail(
    strict=True,
    reason="fixed-mode value is exactly 0 for this family (post-shift marginal "
    "cross terms cancel); the 0.0007 target is not reachable by any "
    "implemented search, so this row stays red by design",
)
def test_criterion_09_orth_pair_right_quoted_value():
    r = average_entropy_gap(catalog.build("orth-pair"), FIXED)
    assert abs(r.right - 0.0007) <= 2e-4


def test_criterion_10_nonmax_family():
    for b in (0.1, 0.3, 0.5, 0.7):
        a = math.sqrt(1.0 - b * b)
        e = catalog.build("ghosh-nonmax", {"a": a, "b": b, "count": 3})
        expected = (
            2.0
            - (2.0 - b * b) * math.log2(2.0 - b * b)
            - (1.0 + b * b) * math.log2(1.0 + b * b)
        ) / 3.0
        assert abs(average_entropy_gap(e, FIXED).right - expected) <= 1e-9
    full = catalog.build("ghosh-nonmax", {"a": 0.8, "b": 0.6})
    assert abs(average_entropy_gap(full, FIXED).right) <= 1e-9
    for i in range(4):
        for j in range(i + 1, 4):
            pair = full.subset([i, j])
            assert abs(average_entropy_gap(pair, ASSIGN).right - 1.0) <= 1e-9
    _ok(10, "nonmax family: expression grid, full set 0, all pairs 1")


def test_criterion_11_more_nonlocality_with_less_entanglement():
    mes = average_entropy_gap(catalog.build("more-nl-mes"), ASSIGN)
    assert abs(mes.right - LOG2_3) <= 1e-9
    mixed = average_entropy_gap(catalog.build("more-nl-mixed"), ASSIGN)
    assert abs(mixed.right - 1.43552) <= 1e-4
    assert mixed.right < LOG2_3 - 1e-6
    _ok(11, "assign gap: log2(3) for the MES triple, 1.43552 for the mixed triple")


def test_criterion_12_canonical_blocks():
    for d in (2, 3):
        block = average_entropy_gap(catalog.build("canonical-mes", {"d": d, "block": 0}), FIXED)
        assert abs(block.right - math.log2(d)) <= 1e-9
        alln = average_entropy_gap(catalog.build("canonical-mes", {"d": d}), FIXED)
        assert abs(alln.right) <= 1e-9
        mid = average_entropy_gap(
            catalog.build("canonical-mes", {"d": d, "count": d + 1}), FIXED
        )
        assert 1e-9 < mid.right < math.log2(d) - 1e-9
    _ok(12, "canonical blocks: log2(d) / 0 / strictly between for d = 2, 3")


def test_criterion_13_classification():
    expected = {
        "e1-computational": "dissectible-either-side",
        "e2-case2": "dissectible-one-side(A)",
        "case-3x2": "dissectible-one-side(B)",
        "nlwe-3x3": "non-dissectible",
        "tiles-upb": "non-dissectible",
    }
    for name, want in expected.items():
        assert classify(as_product_set(catalog.build(name))) == want, name
    from nle.dissect import dissect

    blocked = dissect(as_product_set(catalog.build("case-3x2")), "A")
    assert not blocked.fully_dissected
    _ok(13, "classification labels match, A-start branch of the 3x2 set blocked")


def test_criterion_14_theorem_one_iff():
    rng = np.random.default_rng(20240817)
    checked_reducible = 0
    for _ in range(200):
        etas = [catalog.random_eta(rng) for _ in range(2)]
        e = Ensemble.uniform((2, 2), catalog.walgate_hardy_states(*etas))
        r = nonlocal_entropy(e, FIXED)
        irreducible_b = reducible_from(as_product_set(e), "B") is None
        assert (r.left > 1e-9) == irreducible_b
        assert r.right <= 1e-12
        checked_reducible += not irreducible_b
    assert checked_reducible >= 10  # the draw scheme exercises both branches
    _ok(14, f"theorem-1 iff holds on 200 draws ({checked_reducible} reducible)")


def test_criterion_15_positive_for_non_dissectible():
    for name in ("nlwe-3x3", "tiles-upb"):
        e = catalog.build(name)
        assert classify(as_product_set(e)) == "non-dissectible"
        r = nonlocal_entropy(e, FIXED)
        assert r.symmetric > 1e-9
    _ok(15, "delta(fixed) strictly positive for the non-dissectible sets")


def test_criterion_16_chsh_link():
    e = catalog.build("e2-case2")
    entangled = 0
    for control in ("A", "B"):
        for s in e.states:
            out = apply_cnot(s, control, 1)
            value = chsh_max(out)
            if entanglement_entropy(out) > 1e-9:
                assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-9
                entangled += 1
            else:
                assert value == 2.0
    assert entangled == 2
    _ok(16, "shift outputs of E2: entangled ones at 2*sqrt(2), products at 2")


def test_criterion_17_information_bounds():
    bell = catalog.build("bell-full")
    assert abs(holevo_chi(bell) - 2.0) <= 1e-9
    assert abs(local_holevo(bell) - 1.0) <= 1e-9
    assert abs(local_holevo(catalog.build("nlwe-3x3")) - 2.0 * LOG2_3) <= 1e-9
    _ok(17, "chi(bell-full) = 2, local Holevo 1 and 2*log2(3)")


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

    _ok(18, "five property suites x 1000 randomized cases")
