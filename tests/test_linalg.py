import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle.errors import DimensionMismatch, NotHermitian
from nle.linalg import (
    dagger,
    eigh,
    expm_hermitian_unchecked,
    gram,
    haar_unitary,
    is_unitary,
    partial_trace,
    tensor,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_projector():
    p0 = np.outer(np.eye(2)[0], np.eye(2)[0])
    p1 = np.outer(np.eye(2)[1], np.eye(2)[1])
    out = tensor(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(out, expected)


def test_tensor_sigma_x_moves_00_to_10():
    # hand bookkeeping: |00> is index 0, |10> is index 2
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    out = tensor(SX, np.eye(2)) @ ket00
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0
    assert np.allclose(out, expected)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_partial_trace_bell_marginal():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2)


def test_partial_trace_product_state():
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    rho = np.outer(ket01, ket01.conj())
    assert np.allclose(partial_trace(rho, (2, 2), "A"), np.diag([1.0, 0.0]))


def test_partial_trace_mixed_triple_marginal():
    # oracle: sum the three rank-1 B-marginals by hand before comparing
    om = np.exp(2j * np.pi / 3)
    psi1 = np.zeros(9, dtype=complex)
    psi1[[0, 4, 8]] = [1, om, om**2]
    psi1 /= np.sqrt(3)
    psi2 = np.zeros(9, dtype=complex)
    psi2[[0, 4, 8]] = [1, om**2, om]
    psi2 /= np.sqrt(3)
    psi3 = np.zeros(9, dtype=complex)
    psi3[1] = 1.0
    members = [psi1, psi2, psi3]

    by_hand = np.zeros((3, 3), dtype=complex)
    for vec in members:
        mat = vec.reshape(3, 3)
        by_hand += mat.conj().T @ mat / 3.0  # tr_A of the projector

    rho = sum(np.outer(v, v.conj()) for v in members) / 3.0
    out = partial_trace(rho, (3, 3), "B")
    assert np.allclose(out, by_hand, atol=1e-12)
    assert np.allclose(sorted(np.linalg.eigvalsh(out).real), [2 / 9, 2 / 9, 5 / 9], atol=1e-12)


def test_partial_trace_bad_dims():
    with pytest.raises(DimensionMismatch) as err:
        partial_trace(np.eye(3), (2, 2), "A")
    assert err.value.code == "bad-dims"


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_partial_trace_density_properties(seed, d_a, d_b):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(3, d_a * d_b)) + 1j * rng.normal(size=(3, d_a * d_b))
    rho = sum(np.outer(v, v.conj()) / (3 * v @ v.conj()) for v in vecs)
    for keep in ("A", "B"):
        red = partial_trace(rho, (d_a, d_b), keep)
        assert abs(np.trace(red) - np.trace(rho)) <= 1e-12
        assert np.linalg.eigvalsh(red).min() >= -1e-10


def test_eigh_diagonal():
    vals, _ = eigh(np.diag([2 / 3, 1 / 3]).astype(complex))
    assert np.allclose(vals, [1 / 3, 2 / 3])


def test_eigh_rank_one():
    vals, _ = eigh(np.ones((3, 3)) / 9)
    assert np.allclose(vals, [0, 0, 1 / 3], atol=1e-12)


def test_eigh_shifted_rank_one():
    m = np.diag([0, 1 / 3, 1 / 3]) + np.ones((3, 3)) / 9
    vals, _ = eigh(m)
    roots = np.roots([27, -18, 1])  # oracle for the symmetric sector
    expected = sorted([roots.min(), 1 / 3, roots.max()])
    assert np.allclose(vals, expected, atol=1e-12)
    assert np.allclose(vals, [0.061166, 1 / 3, 0.605500], atol=1e-5)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian) as err:
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))
    assert err.value.code == "not-hermitian"


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_eigh_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, dim)
    vals, vecs = eigh(m)
    assert np.max(np.abs((vecs * vals) @ dagger(vecs) - m)) <= 1e-9 * max(1.0, np.abs(m).max())
    assert np.max(np.abs(dagger(vecs) @ vecs - np.eye(dim))) <= 1e-9


def test_expm_zero_gives_identity():
    assert np.allclose(expm_hermitian_unchecked(np.zeros((3, 3))), np.eye(3))


def test_expm_sigma_y_rotation():
    u = expm_hermitian_unchecked((np.pi / 2) * SY)
    # exp(i (pi/2) sigma_y) maps |0> to a phase times |1>
    out = u @ np.eye(2)[0]
    assert abs(abs(out[1]) - 1.0) <= 1e-12
    assert abs(out[0]) <= 1e-12
    assert is_unitary(u)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_expm_inverse_and_unitarity(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    u = expm_hermitian_unchecked(h)
    assert np.allclose(u @ expm_hermitian_unchecked(-h), np.eye(dim), atol=1e-10)
    assert is_unitary(u, 1e-10)
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-9


def test_gram_orthonormal_basis():
    assert np.allclose(gram([np.eye(3)[i] for i in range(3)]), np.eye(3))


def test_gram_zero_plus():
    g = gram([np.eye(2)[0], np.array([1, 1]) / np.sqrt(2)])
    assert np.allclose(g[0, 1], 1 / np.sqrt(2))
    assert np.allclose(g, dagger(g))


def test_gram_tiles_states_orthogonal():
    from nle import catalog

    e = catalog.build("tiles-upb")
    vecs = [s.amplitudes for s in e.states]
    # oracle: explicit pairwise inner products
    for i in range(5):
        for j in range(5):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(vecs[i], vecs[j]) - expected) <= 1e-12
    assert np.allclose(gram(vecs), np.eye(5), atol=1e-12)


def test_gram_length_mismatch():
    with pytest.raises(DimensionMismatch):
        gram([np.eye(2)[0], np.eye(3)[0]])
    with pytest.raises(DimensionMismatch):
        gram([])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
@settings(max_examples=25, deadline=None)
def test_gram_of_a_stack_equals_gram_of_its_rows(seed, k, n):
    # a 2-D array is read as it is, with the same product as the row list
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    assert gram(stack).tobytes() == gram(list(stack)).tobytes()
    assert gram(stack.real).tobytes() == gram(list(stack.real)).tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_haar_unitary_is_unitary(seed, dim):
    u = haar_unitary(dim, np.random.default_rng(seed))
    assert is_unitary(u, 1e-10)
