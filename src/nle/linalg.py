"""Dense complex linear algebra for small bipartite dimensions.

Arrays are plain ``numpy`` complex arrays; everything here is a pure
function. Dimensions of interest are tiny (products up to ~64), so no
attention is paid to sparsity or scaling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import TOL
from .errors import BadParams, DimensionMismatch, NotHermitian

Party = str  # "A" or "B"
PARTIES = ("A", "B")
DIRECTIONS = ("right", "left")  # of a controlled shift: "right", A controls; "left", B does
ROLES = {"right": (0, 1), "left": (1, 0)}  # per direction, the control's and the target's party index


def party_index(party: Party) -> int:
    """0 for "A", 1 for "B"; ``DimensionMismatch`` for any other party."""
    if party not in PARTIES:
        raise DimensionMismatch(f"unknown party {party!r}")
    return PARTIES.index(party)


def is_integer(value) -> bool:
    """True for Python and numpy integers; booleans, floats and the rest are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    return np.einsum(("...ijkj->...ik", "...ijik->...jk")[party_index(keep)], t)


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


def gram(vectors: np.ndarray | list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i | v_j> of a sequence of vectors, or of the
    rows of a 2-D array, which is read as it is."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        stack = vectors.astype(complex, copy=False)
    else:
        vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        if any(v.shape[0] != vecs[0].shape[0] for v in vecs):
            raise DimensionMismatch("vectors differ in length")
        stack = np.array(vecs)
    if len(stack) == 0:
        raise DimensionMismatch("empty vector list")
    return np.conjugate(stack) @ stack.T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def cnot_permutation(dims: tuple[int, int], control: Party, repetitions: int = 1) -> np.ndarray:
    """Index permutation ``out[new] = in[old]`` realizing the generalized CNOT
    (``nle.gates``) applied ``repetitions`` times.

    Returns a read-only integer array ``perm`` with ``perm[old_flat_index] =
    new_flat_index``, built once per ``(dims, control, repetitions)`` and
    shared by later calls. ``repetitions`` must be an integer >= 0 (booleans
    are not).
    """
    return _cnot_permutation(tuple(dims), party_index(control), repetitions_at_least(repetitions, 0))


def repetitions_at_least(value, least: int) -> int:
    """``value`` as an int; ``BadParams`` unless an integer (``is_integer``) >= ``least``."""
    if not is_integer(value):
        raise BadParams(f"repetitions must be an integer, not {value!r}")
    if value < least:
        raise BadParams(f"repetitions must be >= {least}")
    return int(value)


@lru_cache(maxsize=256)
def _cnot_permutation(dims: tuple[int, int], control: int, repetitions: int) -> np.ndarray:
    """``cnot_permutation`` with the control's party index (``PARTIES``)."""
    d_a, d_b = dims
    i, j = np.divmod(np.arange(d_a * d_b), d_b)
    if control == 0:
        perm = i * d_b + (j + repetitions * i) % d_b
    else:
        perm = (i + repetitions * j) % d_a * d_b + j
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=256)
def cnot_family(dims: tuple[int, int]) -> tuple[tuple[str, int], ...]:
    """``(direction, r)`` of each shift ``CNOT^r`` a circuit chooses from, in the
    one order every consumer reads: ``DIRECTIONS`` in turn, r = 1 .. d_t - 1
    (just 1 when d_t = 1) for target dimension d_t."""
    return tuple((d, r) for d, d_t in zip(DIRECTIONS, dims[::-1]) for r in range(1, max(d_t, 2)))


@lru_cache(maxsize=256)
def cnot_family_gather(dims: tuple[int, int]) -> np.ndarray:
    """Read-only ``(1 + C, d_A*d_B)`` gather index of ``cnot_family(dims)``: row 0
    is the identity and row 1 + c the inverse of candidate c's permutation, so
    ``amplitudes[..., row]`` is the stack after that candidate."""
    rows = [np.arange(dims[0] * dims[1])]
    for direction, r in cnot_family(dims):
        rows.append(np.argsort(_cnot_permutation(dims, ROLES[direction][0], r)))
    gather = np.array(rows)
    gather.flags.writeable = False
    return gather
