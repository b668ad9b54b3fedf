"""Dense complex linear algebra for small bipartite dimensions.

Arrays are plain ``numpy`` complex arrays; everything here is a pure
function. Dimensions of interest are tiny (products up to ~64), so no
attention is paid to sparsity or scaling.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotHermitian

Party = str  # "A" or "B"

PARTIES = ("A", "B")


def other_party(side: Party) -> Party:
    if side not in PARTIES:
        raise DimensionMismatch(f"unknown party {side!r}")
    return "B" if side == "A" else "A"


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m.T)


def is_hermitian(m: np.ndarray, atol: float = TOL.hermitian) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= atol


def is_unitary(m: np.ndarray, atol: float = TOL.unitary) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0]))) <= atol


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a``'s indices major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: Party) -> np.ndarray:
    """Trace out one party of a (d_A*d_B) x (d_A*d_B) matrix, or of each in a stack.

    ``keep="A"`` returns tr_B(m); ``keep="B"`` returns tr_A(m).
    """
    d_a, d_b = dims
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"expected square matrices of size {d_a * d_b}, got {m.shape}")
    t = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "A":
        return np.einsum("...ijkj->...ik", t)
    if keep == "B":
        return np.einsum("...ijik->...jk", t)
    raise DimensionMismatch(f"unknown party {keep!r}")


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Columns of the returned matrix are the orthonormal eigenvectors.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise NotHermitian(f"matrix deviates from Hermiticity beyond {TOL.hermitian}")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    return vals, vecs


def expm_hermitian_unchecked(h: np.ndarray) -> np.ndarray:
    """exp(i*h) for an ``h`` known to be Hermitian (not checked: optimizer hot path).

    ``h`` may be a stack ``(..., d, d)``; each matrix is exponentiated.
    """
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ np.conjugate(vecs.swapaxes(-1, -2))


def expm_skew_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i*h) for Hermitian h, computed through the spectral decomposition."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NotHermitian("generator must be Hermitian")
    return expm_hermitian_unchecked((h + dagger(h)) / 2.0)


def gram(vectors: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i | v_j>."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    n = len(vecs)
    if n == 0:
        raise DimensionMismatch("empty vector list")
    length = vecs[0].shape[0]
    if any(v.shape[0] != length for v in vecs):
        raise DimensionMismatch("vectors differ in length")
    stack = np.array(vecs)
    return np.conjugate(stack) @ stack.T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v
