import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle.catalog import bell_state
from nle.errors import BadParams, DimensionMismatch, NotUnitary
from nle.gates import apply, apply_cnot, cnot, cnot_permutation, embed_local, hermitian_from_coeffs
from nle.linalg import expm_hermitian_unchecked, gram, haar_unitary, is_unitary, tensor
from nle.states import PureState, entanglement_entropy, product_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def ket(dims, i, j):
    v = np.zeros(dims[0] * dims[1], dtype=complex)
    v[i * dims[1] + j] = 1.0
    return PureState(dims, v)


class TestCnot:
    def test_standard_two_qubit(self):
        u = cnot((2, 2), "A", 1)
        assert np.allclose(u @ ket((2, 2), 1, 0).amplitudes, ket((2, 2), 1, 1).amplitudes)
        for j in (0, 1):
            fixed = ket((2, 2), 0, j).amplitudes
            assert np.allclose(u @ fixed, fixed)

    def test_involution_for_qubit_target(self):
        u = cnot((2, 2), "A", 2)
        assert np.allclose(u, np.eye(4))

    def test_qutrit_action_entangles_uniform_control(self):
        s = product_state((3, 3), [0, 1, 1], [1, 0, 0])
        out = apply_cnot(s, "A", 1)
        expected = np.zeros(9, dtype=complex)
        expected[[4, 8]] = 1 / math.sqrt(2)  # (|11> + |22>)/sqrt(2)
        assert np.allclose(out.amplitudes, expected)
        assert abs(entanglement_entropy(out) - 1.0) <= 1e-12

    def test_unequal_dims_use_target_modulus(self):
        # (1/sqrt2)(|1> +- |2>)|0> in 3x2 becomes an entropy-1 state
        for sign in (1, -1):
            s = product_state((3, 2), [0, 1, sign], [1, 0])
            out = apply_cnot(s, "A", 1)
            assert abs(entanglement_entropy(out) - 1.0) <= 1e-12

    def test_rejects_zero_repetitions(self):
        with pytest.raises(BadParams):
            cnot((2, 2), "A", 0)

    @pytest.mark.parametrize("control", ["A", "B"])
    def test_permutation_matches_index_loop(self, control):
        # reference: |i>|j> sent index by index, as the gate's definition reads
        for d_a, d_b, r in itertools.product(range(1, 6), range(1, 6), range(9)):
            expected = []
            for i, j in itertools.product(range(d_a), range(d_b)):
                ii, jj = (i, (j + r * i) % d_b) if control == "A" else ((i + r * j) % d_a, j)
                expected.append(ii * d_b + jj)
            assert cnot_permutation((d_a, d_b), control, r).tolist() == expected

    def test_permutation_rejects_unknown_party(self):
        with pytest.raises(DimensionMismatch):
            cnot_permutation((2, 2), "C")

    def test_permutation_is_cached_and_read_only(self):
        perm = cnot_permutation((2, 3), "A", 2)
        assert cnot_permutation((2, 3), "A", 2) is perm
        assert cnot_permutation([2, 3], "A", np.int64(2)) is perm
        assert cnot_permutation((2, 3), "B", 2) is not perm
        with pytest.raises(ValueError):
            perm[0] = 1

    @pytest.mark.parametrize("reps", [1.5, 1.0, True, False, "1", None, -1])
    def test_rejects_non_integer_repetitions(self, reps):
        # 1.5 once gave the float array [0, 1, 2, 4.5, 5.5, 3.5] and True ran as 1
        with pytest.raises(BadParams):
            cnot_permutation((2, 3), "A", reps)
        with pytest.raises(BadParams):
            cnot((2, 2), "A", reps)

    @given(st.integers(2, 4), st.integers(2, 4), st.sampled_from(["A", "B"]), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_permutation_matrix(self, d_a, d_b, control, reps):
        u = cnot((d_a, d_b), control, reps)
        assert np.allclose(np.abs(u).sum(axis=0), 1.0)
        assert np.allclose(np.abs(u).sum(axis=1), 1.0)
        assert is_unitary(u, 0.0)

    @given(st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_target_dim_repetitions_give_identity(self, d):
        assert np.allclose(cnot((d, d), "A", d), np.eye(d * d))
        assert np.allclose(cnot((d, d), "B", d), np.eye(d * d))


class TestEmbedLocal:
    def test_identity(self):
        assert np.allclose(embed_local(np.eye(2), (2, 2), "A"), np.eye(4))

    def test_sigma_z_on_a_flips_singlet_sign_pattern(self):
        u = embed_local(SZ, (2, 2), "A")
        out = u @ bell_state("psi-").amplitudes
        assert np.allclose(out, bell_state("psi+").amplitudes)

    def test_sigma_x_on_b(self):
        u = embed_local(SX, (2, 2), "B")
        assert np.allclose(u @ ket((2, 2), 0, 0).amplitudes, ket((2, 2), 0, 1).amplitudes)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            embed_local(np.eye(3), (2, 2), "A")
        assert err.value.code == "bad-dims"


def param_to_unitary(dim: int, coeffs) -> np.ndarray:
    return expm_hermitian_unchecked(hermitian_from_coeffs(dim, coeffs))


class TestParamToUnitary:
    """Real coordinates to unitaries: ``exp(i*hermitian_from_coeffs(...))``."""

    def test_zero_coeffs_identity(self):
        assert np.allclose(param_to_unitary(3, np.zeros(9)), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_always_unitary(self, seed, dim):
        coeffs = np.random.default_rng(seed).normal(size=dim * dim)
        assert is_unitary(param_to_unitary(dim, coeffs), 1e-10)

    def test_sigma_x_generator(self):
        # coefficient pi/2 on the symmetric off-diagonal element gives sigma_x up to phase
        coeffs = np.zeros(4)
        coeffs[2] = np.pi / 2
        assert np.allclose(hermitian_from_coeffs(2, coeffs), (np.pi / 2) * SX)
        u = param_to_unitary(2, coeffs)
        assert abs(abs(u[0, 1]) - 1.0) <= 1e-12
        assert abs(abs(u[1, 0]) - 1.0) <= 1e-12
        assert abs(u[0, 0]) <= 1e-12


class TestApply:
    def test_identity(self):
        s = bell_state("phi+")
        assert np.allclose(apply(np.eye(4), s).amplitudes, s.amplitudes)

    def test_cnot_disentangles_bell(self):
        out = apply(cnot((2, 2), "A", 1), bell_state("phi+"))
        expected = np.kron(np.array([1, 1]) / math.sqrt(2), np.eye(2)[0])
        assert np.allclose(out.amplitudes, expected)
        assert entanglement_entropy(out) <= 1e-12

    def test_double_shift_disentangles_omega_state(self):
        om = np.exp(2j * np.pi / 3)
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 8]] = np.array([1, om, om**2]) / math.sqrt(3)
        out = apply_cnot(PureState((3, 3), amps), "A", 2)
        expected = np.kron(np.array([1, om, om**2]) / math.sqrt(3), np.eye(3)[0])
        assert np.allclose(out.amplitudes, expected)
        assert entanglement_entropy(out) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary) as err:
            apply(np.ones((4, 4)), bell_state("phi+"))
        assert err.value.code == "not-unitary"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_and_gram_preservation(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3)
        vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        states = [PureState(dims, v / np.linalg.norm(v)) for v in vecs]
        u = haar_unitary(6, rng)
        outs = [apply(u, s) for s in states]
        for out in outs:
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
        g_in = gram([s.amplitudes for s in states])
        g_out = gram([s.amplitudes for s in outs])
        assert np.max(np.abs(g_in - g_out)) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_entanglement_invariant_under_post_local(self, seed):
        rng = np.random.default_rng(seed)
        s = product_state((2, 2), rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=2))
        shifted = apply_cnot(s, "A", 1)
        local = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
        dressed = apply(local, shifted)
        assert abs(entanglement_entropy(shifted) - entanglement_entropy(dressed)) <= 1e-10
