"""Generalized controlled-shift gates, local embeddings, and Hermitian generators.

The controlled gate in dimensions (d_A, d_B) with control A sends
|i>_A |j>_B to |i>_A |(j + i) mod d_B>_B; with control B it mirrors to
|(i + j) mod d_A>_A |j>_B. The control index always enters modulo the
target dimension, which is what makes unequal dimensions work. The index
permutation itself, ``cnot_permutation``, lives in ``nle.linalg`` (ensembles
read it too) and is re-exported here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotUnitary
from .linalg import Party, cnot_permutation, is_unitary, repetitions_at_least, tensor
from .states import PureState


def cnot(dims: tuple[int, int], control: Party, repetitions: int = 1) -> np.ndarray:
    """Permutation matrix of the generalized CNOT, applied ``repetitions`` times."""
    perm = cnot_permutation(dims, control, repetitions_at_least(repetitions, 1))
    n = dims[0] * dims[1]
    m = np.zeros((n, n), dtype=complex)
    m[perm, np.arange(n)] = 1.0
    return m


def embed_local(u: np.ndarray, dims: tuple[int, int], side: Party) -> np.ndarray:
    """Lift a local unitary to the full space, acting trivially on the other party."""
    u = np.asarray(u, dtype=complex)
    d = dims[0] if side == "A" else dims[1]
    if u.shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d} operator on side {side}")
    if side == "A":
        return tensor(u, np.eye(dims[1]))
    if side == "B":
        return tensor(np.eye(dims[0]), u)
    raise DimensionMismatch(f"unknown party {side!r}")


@lru_cache(maxsize=None)
def _triangle_indices(dim: int):
    return np.diag_indices(dim), np.triu_indices(dim, k=1)


def hermitian_from_coeffs(dim: int, coeffs: np.ndarray) -> np.ndarray:
    """Hermitian generator(s) from real coordinates.

    Packing for dimension d (d*d reals per row): the first d entries are the
    diagonal, then the d(d-1)/2 real parts and the d(d-1)/2 imaginary parts
    of the strictly upper triangle, row-major. ``coeffs`` has shape
    ``(..., dim*dim)``; the result has shape ``(..., dim, dim)``, one
    generator per coefficient row.
    """
    c = np.asarray(coeffs, dtype=float)
    (dr, dc), (ur, uc) = _triangle_indices(dim)
    h = np.zeros(c.shape[:-1] + (dim, dim), dtype=complex)
    h[..., dr, dc] = c[..., :dim]
    n_off = dim * (dim - 1) // 2
    upper = c[..., dim : dim + n_off] + 1j * c[..., dim + n_off :]
    h[..., ur, uc] = upper
    h[..., uc, ur] = np.conjugate(upper)
    return h


def apply(u: np.ndarray, s: PureState) -> PureState:
    """Apply a full-space unitary to a state."""
    u = np.asarray(u, dtype=complex)
    n = s.dims[0] * s.dims[1]
    if u.shape != (n, n):
        raise DimensionMismatch(f"operator size {u.shape} does not match state size {n}")
    if not is_unitary(u, TOL.unitary):
        raise NotUnitary("operator is not unitary")
    return PureState(s.dims, u @ s.amplitudes)


def apply_cnot(s: PureState, control: Party, repetitions: int = 1) -> PureState:
    """CNOT action through the index permutation (no matrix product)."""
    out = np.empty_like(s.amplitudes)
    out[cnot_permutation(s.dims, control, repetitions)] = s.amplitudes
    return PureState(s.dims, out)
