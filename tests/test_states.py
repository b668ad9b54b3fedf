import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle import catalog
from nle.catalog import bell_state
from nle.config import MAX_DIM_PRODUCT, MAX_MEMBERS
from nle.errors import DimensionMismatch, NleError, NotAState, TooLarge
from nle.linalg import haar_unitary, partial_trace, tensor
from nle.states import (
    Ensemble,
    PureState,
    average_state,
    entanglement_entropies,
    entanglement_entropy,
    marginal_entropies,
    mixture,
    mixture_marginal_entropies,
    product_state,
    schmidt,
    vn_entropy,
)


def random_pure(rng, dims):
    n = dims[0] * dims[1]
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(dims, v / np.linalg.norm(v))


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(NotAState):
            PureState((2, 2), np.array([1, 0, 0, 1], dtype=complex))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PureState((2, 2), np.array([1, 0, 0], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(NotAState):
            PureState((2, 1), np.array([np.nan, 0]))

    # (2.5, 1.6) would pass a length check alone, as 2.5 * 1.6 == 4, and
    # booleans are ints to Python
    @pytest.mark.parametrize("dims", [(2.0, 2.0), (2.5, 1.6), (True, 4), (4, True), (2,), (0, 4), 4],
                             ids=repr)
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(DimensionMismatch) as err:
            PureState(dims, np.eye(4)[0])
        assert err.value.code == "bad-dims"

    def test_accepts_numpy_integer_dims(self):
        s = PureState((np.int64(2), np.uint8(2)), np.eye(4)[0])
        assert s.dims == (2, 2) and all(type(d) is int for d in s.dims)
        e = Ensemble([np.int32(2), 2], (1.0,), (s,))
        assert e.dims == (2, 2) and all(type(d) is int for d in e.dims)

    def test_amplitudes_are_a_read_only_view(self):
        v = np.eye(4, dtype=complex)[1].copy()
        s = PureState((2, 2), v)
        assert np.shares_memory(s.amplitudes, v)  # no copy
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0
        v[1] = 1.0  # the caller's own array keeps its flag

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the state views the caller's array, so a later write changes it unchecked "
        "(ROADMAP item 5: an ensemble built from its stack removes the cause)",
    )
    def test_caller_cannot_change_a_state(self):
        v = np.array([1, 0, 0, 0], dtype=complex)
        s = PureState((2, 2), v)
        v[:] = [5, 0, 0, 0]
        e = Ensemble.uniform((2, 2), [s])
        assert np.linalg.norm(s.amplitudes) == 1.0
        assert np.linalg.norm(e.subset([0]).amplitudes[0]) == 1.0


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(vn_entropy(np.eye(2) / 2) - 1.0) <= 1e-12

    def test_two_thirds_one_third(self):
        # oracle: the binary entropy evaluated directly
        assert abs(vn_entropy(np.diag([2 / 3, 1 / 3])) - binary_entropy(1 / 3)) <= 1e-12
        assert abs(vn_entropy(np.diag([2 / 3, 1 / 3])) - 0.918296) <= 1e-5

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState) as err:
            vn_entropy(np.diag([1.5, -0.5]))
        assert err.value.code == "not-a-state"

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(NotAState):
            vn_entropy(np.full((2, 2), np.nan))

    def test_rejects_trace_off_one(self):
        with pytest.raises(NotAState, match="trace"):
            vn_entropy(np.eye(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_concavity(self, seed):
        rng = np.random.default_rng(seed)

        def random_density(dim):
            vecs = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = vecs @ vecs.conj().T
            return rho / np.trace(rho)

        rho, sigma = random_density(3), random_density(3)
        lam = rng.uniform()
        mixed = lam * rho + (1 - lam) * sigma
        assert vn_entropy(mixed) >= lam * vn_entropy(rho) + (1 - lam) * vn_entropy(sigma) - 1e-9


class TestEntanglementEntropy:
    def test_bell_state(self):
        assert abs(entanglement_entropy(bell_state("phi+")) - 1.0) <= 1e-12

    def test_product_state(self):
        s = product_state((2, 3), [1, 1], [1, 0, 1])
        assert entanglement_entropy(s) <= 1e-12

    def test_maximally_entangled_qutrits(self):
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 8]] = 1 / math.sqrt(3)
        assert abs(entanglement_entropy(PureState((3, 3), amps)) - math.log2(3)) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_schmidt_symmetry(self, seed, d_a, d_b):
        s = random_pure(np.random.default_rng(seed), (d_a, d_b))
        s_a = vn_entropy(s.marginal("A"))
        s_b = vn_entropy(s.marginal("B"))
        assert abs(s_a - s_b) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = random_pure(rng, (3, 2))
        u = tensor(haar_unitary(3, rng), haar_unitary(2, rng))
        rotated = PureState(s.dims, u @ s.amplitudes)
        assert abs(entanglement_entropy(s) - entanglement_entropy(rotated)) <= 1e-9


class TestSchmidt:
    def test_basis_product(self):
        s = product_state((2, 2), [1, 0], [0, 1])
        coeffs, _, _ = schmidt(s)
        assert np.allclose(coeffs, [1, 0], atol=1e-12)

    def test_bell(self):
        coeffs, _, _ = schmidt(bell_state("phi+"))
        assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2)

    def test_already_schmidt_form(self):
        amps = np.array([4 / 5, 0, 0, 3 / 5], dtype=complex)
        coeffs, _, _ = schmidt(PureState((2, 2), amps))
        assert np.allclose(coeffs, [4 / 5, 3 / 5])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, seed, d_a, d_b):
        s = random_pure(np.random.default_rng(seed), (d_a, d_b))
        coeffs, left, right = schmidt(s)
        rebuilt = sum(
            coeffs[k] * np.kron(left[:, k], right[:, k]) for k in range(len(coeffs))
        )
        assert np.linalg.norm(rebuilt - s.amplitudes) <= 1e-9
        assert abs((coeffs**2).sum() - 1.0) <= 1e-10


class TestBatchedEntanglement:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_matches_per_member_entropies(self, dims):
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        states = [random_pure(rng, dims) for _ in range(5)]
        states.append(product_state(dims, rng.normal(size=dims[0]), rng.normal(size=dims[1])))
        batched = entanglement_entropies(np.array([s.amplitudes for s in states]), dims)
        assert batched.shape == (len(states),)
        for value, s in zip(batched, states):
            assert abs(value - entanglement_entropy(s)) <= 1e-12
            assert abs(value - vn_entropy(s.marginal("A"))) <= 1e-12
            assert abs(value - vn_entropy(s.marginal("B"))) <= 1e-12


class TestAverageState:
    def test_bell_pair_cross_terms_cancel(self):
        e = Ensemble.uniform((2, 2), [bell_state("phi+"), bell_state("phi-")])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(average_state(e), expected, atol=1e-12)

    def test_single_member(self):
        s = bell_state("psi-")
        e = Ensemble((2, 2), (1.0,), (s,))
        assert np.allclose(average_state(e), s.projector())

    def test_full_bell_basis(self):
        e = Ensemble.uniform(
            (2, 2), [bell_state(k) for k in ("phi+", "phi-", "psi+", "psi-")]
        )
        assert np.allclose(average_state(e), np.eye(4) / 4, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        states = [random_pure(rng, (2, 3)) for _ in range(3)]
        p = rng.uniform(0.1, 1.0, size=3)
        p /= p.sum()
        rho = average_state(Ensemble((2, 3), tuple(p), tuple(states)))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestMarginalEntropies:
    def test_bell_pair(self):
        e = Ensemble.uniform((2, 2), [bell_state("phi+"), bell_state("phi-")])
        s_a, s_b = marginal_entropies(e)
        assert abs(s_a - 1.0) <= 1e-12 and abs(s_b - 1.0) <= 1e-12

    def test_mixed_triple(self):
        from nle import catalog

        e = catalog.build("more-nl-mixed")
        s_a, s_b = marginal_entropies(e)
        expected = -(5 / 9) * math.log2(5 / 9) - (4 / 9) * math.log2(2 / 9)
        assert abs(s_a - expected) <= 1e-12
        assert abs(s_b - expected) <= 1e-12
        assert abs(s_a - 1.43551) <= 1e-4

    def test_product_singleton(self):
        e = Ensemble((2, 2), (1.0,), (product_state((2, 2), [1, 0], [1, 0]),))
        assert marginal_entropies(e) == (0.0, 0.0)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 3)])
    def test_match_partial_traces_of_the_mixture(self, dims):
        # reference: the full (d_A d_B)^2 mixture traced down to each party
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        n, k = dims[0] * dims[1], 4
        stack = rng.normal(size=(3, k, n)) + 1j * rng.normal(size=(3, k, n))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        p = rng.uniform(0.1, 1.0, size=k)
        p /= p.sum()

        def reference(amps):
            rho = mixture(amps, p)
            return tuple(vn_entropy(partial_trace(rho, dims, side)) for side in "AB")

        single = mixture_marginal_entropies(stack[0], p, dims)
        assert all(isinstance(x, float) for x in single)
        assert np.allclose(single, reference(stack[0]), rtol=0, atol=1e-12)
        s_a, s_b = mixture_marginal_entropies(stack, p, dims)
        assert s_a.shape == s_b.shape == (3,)
        for b in range(3):
            assert np.allclose((s_a[b], s_b[b]), reference(stack[b]), rtol=0, atol=1e-12)


class TestEnsemble:
    def test_probabilities_must_sum_to_one(self):
        s = bell_state("phi+")
        with pytest.raises(NotAState):
            Ensemble((2, 2), (0.5, 0.4), (s, bell_state("phi-")))

    def test_rejects_nan_probability(self):
        with pytest.raises(NotAState):
            Ensemble((2, 2), (float("nan"),), (bell_state("phi+"),))

    def test_amplitudes_are_a_read_only_member_stack(self):
        states = (bell_state("phi+"), bell_state("psi-"))
        e = Ensemble.uniform((2, 2), states)
        assert e.amplitudes.shape == (2, 4)
        for row, s in zip(e.amplitudes, states):
            assert np.array_equal(row, s.amplitudes)
        with pytest.raises(ValueError):
            e.amplitudes[0, 0] = 0.0

    @pytest.mark.parametrize("dims", [(2.0, 2.0), (True, 4), (2, 2, 1)], ids=repr)
    def test_rejects_non_integer_dims(self, dims):
        # (2.0, 2.0) == (2, 2), so comparing with the members' dims is not enough
        with pytest.raises(DimensionMismatch) as err:
            Ensemble(dims, (1.0,), (bell_state("phi+"),))
        assert err.value.code == "bad-dims"

    @pytest.mark.parametrize("dims", [(MAX_DIM_PRODUCT + 1, 1), (1, MAX_DIM_PRODUCT + 1), (15, 18)])
    def test_rejects_too_many_dimensions(self, dims):
        state = PureState(dims, np.eye(1, dims[0] * dims[1])[0])
        with pytest.raises(TooLarge) as err:
            Ensemble(dims, (1.0,), (state,))
        assert err.value.code == "too-large"

    def test_rejects_too_many_members(self):
        state = PureState((1, 1), [1.0])
        with pytest.raises(TooLarge) as err:
            Ensemble.uniform((1, 1), [state] * (MAX_MEMBERS + 1))
        assert err.value.code == "too-large"

    def test_admits_the_limits(self):
        # the largest fixed-mode stack, (d_A + d_B - 1) * k * d_A*d_B complex
        # numbers, is largest for dims (MAX_DIM_PRODUCT, 1), and stays under 1 GB
        assert MAX_DIM_PRODUCT * MAX_MEMBERS * MAX_DIM_PRODUCT * 16 < 2**30
        e = Ensemble.uniform((1, 1), [PureState((1, 1), [1.0])] * MAX_MEMBERS)
        assert len(e) == MAX_MEMBERS
        for dims in [(MAX_DIM_PRODUCT, 1), (16, MAX_DIM_PRODUCT // 16)]:
            state = PureState(dims, np.eye(1, MAX_DIM_PRODUCT)[0])
            assert Ensemble(dims, (1.0,), (state,)).dims == dims

    def test_equality_is_identity(self):
        from nle.dissect import as_product_set

        def computational():
            return Ensemble.uniform((2, 2), [PureState((2, 2), row) for row in np.eye(4)])

        # equal contents are still two objects; hashing is by identity
        first, second = computational(), computational()
        views = as_product_set(first), as_product_set(first)
        for a, b in ((first, second), first.states[:2], views):
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2 and a in {a} and b not in {a}
        assert first.states[0] != second.states[0]

    def test_dims_must_agree(self):
        with pytest.raises(DimensionMismatch):
            Ensemble(
                (2, 2),
                (0.5, 0.5),
                (bell_state("phi+"), product_state((2, 3), [1, 0], [1, 0, 0])),
            )

    def test_orthogonal_flag_matches_gram(self):
        from nle import catalog

        assert catalog.build("nlwe-3x3").is_orthogonal()
        overlapping = Ensemble.uniform(
            (2, 2),
            [product_state((2, 2), [1, 0], [1, 0]), product_state((2, 2), [1, 1], [1, 0])],
        )
        assert not overlapping.is_orthogonal()

    def test_product_flag(self):
        from nle import catalog

        assert catalog.build("tiles-upb").is_product()
        assert not catalog.build("bell-pair").is_product()

    def test_subset_renormalizes(self):
        from nle import catalog

        sub = catalog.build("bell-full").subset([0, 2])
        assert len(sub) == 2
        assert abs(sum(sub.probabilities) - 1.0) <= 1e-12


MALFORMED = [
    ("member-not-a-state", lambda: Ensemble((2, 2), (1.0,), (np.array([1, 0, 0, 0]),)), "not-a-state"),
    ("no-probabilities", lambda: Ensemble((2, 2), None, (bell_state("phi+"),)), "not-a-state"),
    ("no-states", lambda: Ensemble((2, 2), (1.0,), None), "not-a-state"),
    ("text-probabilities", lambda: Ensemble((2, 2), "1", (bell_state("phi+"),)), "not-a-state"),
    ("bytes-probabilities", lambda: Ensemble((2, 2), b"\x01", (bell_state("phi+"),)), "not-a-state"),
    ("text-amplitudes", lambda: PureState((2, 2), "abcd"), "not-a-state"),
    ("text-amplitude-elements", lambda: PureState((2, 2), ["1", "0", "0", "0"]), "not-a-state"),
    ("text-probability-element", lambda: Ensemble((2, 2), ("1",), (bell_state("phi+"),)), "not-a-state"),
    ("text-probability-array", lambda: Ensemble((2, 2), np.array(["1"]), (bell_state("phi+"),)),
     "not-a-state"),
    ("complex-probabilities", lambda: Ensemble((2, 2), (1 + 0j,), (bell_state("phi+"),)), "not-a-state"),
    ("complex-probability-objects",
     lambda: Ensemble((2, 2), np.array([1 + 0j], dtype=object), (bell_state("phi+"),)), "not-a-state"),
    ("fewer-probabilities", lambda: Ensemble((2, 2), (1.0,), (bell_state("phi+"),) * 2), "bad-dims"),
    ("parts-off-dims", lambda: product_state((2, 2), [1, 0, 0], [1, 0]), "bad-dims"),
    ("text-part", lambda: product_state((2, 2), ["1", "0"], [1, 0]), "not-a-state"),
    ("unparsable-text-part", lambda: product_state((2, 2), [1, 0], ["x", "0"]), "not-a-state"),
    ("zero-part", lambda: product_state((2, 2), [0, 0], [1, 0]), "not-a-state"),
    ("none-in-part", lambda: product_state((2, 2), [1, None], [1, 0]), "not-a-state"),
    ("list-entry-name", lambda: catalog.build(["x"]), "no-such-entry"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build,code", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_library_inputs_raise_a_documented_error(build, code):
    # each used to raise a bare AttributeError, TypeError or ValueError, or
    # (text probabilities) to build, one member per character, or (text
    # elements) to build, each element parsed as a number, or (complex
    # probabilities) to build with their imaginary parts dropped, or (a zero
    # or NaN part) to divide by its norm with a RuntimeWarning first
    with pytest.raises(NleError) as err:
        build()
    assert err.value.code == code
