"""Bipartite pure states, ensembles, entropies, and Schmidt analysis.

Amplitude convention: the coefficient of |i>_A |j>_B sits at flat index
``i * d_B + j``. All entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotAState
from .linalg import gram, partial_trace

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class PureState:
    """A normalized pure state on C^{d_A} (x) C^{d_B}."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        d_a, d_b = self.dims
        if d_a < 1 or d_b < 1 or amps.shape[0] != d_a * d_b:
            raise DimensionMismatch(f"amplitude length {amps.shape[0]} != {d_a}*{d_b}")
        if not np.all(np.isfinite(amps.view(float))):
            raise NotAState("non-finite amplitude")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL.norm:
            raise NotAState(f"norm {norm} deviates from 1 beyond {TOL.norm}")
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conjugate(self.amplitudes))

    def marginal(self, keep: str) -> np.ndarray:
        return partial_trace(self.projector(), self.dims, keep)


def product_state(dims: tuple[int, int], part_a: np.ndarray, part_b: np.ndarray) -> PureState:
    a = np.asarray(part_a, dtype=complex).ravel()
    b = np.asarray(part_b, dtype=complex).ravel()
    if a.shape[0] != dims[0] or b.shape[0] != dims[1]:
        raise DimensionMismatch("local parts do not match dims")
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return PureState(dims, np.kron(a, b))


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted list of pure states on common dimensions.

    ``amplitudes`` holds the members once more as one read-only
    ``(k, d_A*d_B)`` array (row i is ``states[i].amplitudes``) for batched use.
    """

    dims: tuple[int, int]
    probabilities: tuple[float, ...]
    states: tuple[PureState, ...]
    name: str = field(default="", compare=False)
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if len(probs) != len(self.states) or not self.states:
            raise DimensionMismatch("probabilities and states must pair up")
        # positive conditions, so that NaN fails them
        if not all(0.0 < p <= 1.0 for p in probs):
            raise NotAState("probabilities must lie in (0, 1]")
        if not abs(sum(probs) - 1.0) <= TOL.prob_sum:
            raise NotAState(f"probabilities sum to {sum(probs)}")
        if any(s.dims != self.dims for s in self.states):
            raise DimensionMismatch("member dimensions disagree")
        stack = np.array([s.amplitudes for s in self.states])
        stack.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "amplitudes", stack)

    @classmethod
    def uniform(cls, dims, states, name: str = "") -> "Ensemble":
        k = len(states)
        return cls(dims, tuple(1.0 / k for _ in range(k)), tuple(states), name=name)

    def __len__(self) -> int:
        return len(self.states)

    def is_orthogonal(self, atol: float = TOL.gram) -> bool:
        g = gram(self.amplitudes)
        return bool(np.max(np.abs(g - np.eye(len(self)))) <= atol)

    def is_product(self, atol: float = TOL.product_rank) -> bool:
        return bool(np.all(schmidt_spectra(self.amplitudes, self.dims)[:, 0] >= 1.0 - atol))

    def subset(self, indices) -> "Ensemble":
        """Sub-ensemble on the given member indices, probabilities renormalized."""
        idx = list(indices)
        mass = sum(self.probabilities[i] for i in idx)
        return Ensemble(
            self.dims,
            tuple(self.probabilities[i] / mass for i in idx),
            tuple(self.states[i] for i in idx),
            name=self.name,
        )


def entropy_bits(spectrum: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum along the last axis; every entropy uses it.

    Entries at or below ``TOL.eig_floor`` contribute 0 (0 log 0 := 0), and so
    do NaN entries: callers validate spectra that do not come from checked states.
    """
    lam = np.where(spectrum > TOL.eig_floor, spectrum, 1.0)
    return np.maximum(-(lam * np.log(lam)).sum(axis=-1) / LOG2, 0.0)


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((m + np.conjugate(m.swapaxes(-1, -2))) / 2.0)


def vn_entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -tr(rho log2 rho) in bits; 0*log 0 := 0.

    ``rho`` must be positive semidefinite with unit trace; a matrix with
    non-finite entries fails both checks.
    """
    vals = _hermitian_spectrum(np.asarray(rho, dtype=complex))
    if not vals.min() >= -TOL.psd:
        raise NotAState(f"eigenvalue {vals.min()} is negative or not finite")
    if not abs(vals.sum() - 1.0) <= TOL.input_norm:
        raise NotAState(f"trace {vals.sum()} deviates from 1")
    return float(entropy_bits(vals))


def schmidt(s: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition: descending coefficients and local frames.

    Returns ``(coeffs, left, right)`` with ``left[:, k]`` / ``right[:, k]``
    the k-th local vectors, so that
    ``amplitudes = sum_k coeffs[k] * kron(left[:, k], right[:, k])``.
    """
    u, sv, vh = np.linalg.svd(s.amplitudes.reshape(s.dims))
    return sv, u, vh.T


def schmidt_spectra(amplitudes: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Squared Schmidt coefficients, descending, of each row of a (k, d_A*d_B) stack."""
    sv = np.linalg.svd(amplitudes.reshape(-1, dims[0], dims[1]), compute_uv=False)
    return sv**2


def entanglement_entropies(amplitudes: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Entanglement entropy of each row of a (k, d_A*d_B) amplitude stack."""
    return entropy_bits(schmidt_spectra(amplitudes, dims))


def entanglement_entropy(s: PureState) -> float:
    """Entropy of either marginal; the entanglement of a pure state."""
    return float(entanglement_entropies(s.amplitudes, s.dims)[0])


def mixture(amplitudes: np.ndarray, probs) -> np.ndarray:
    """Density matrix sum_i p_i |psi_i><psi_i| of a (k, d_A*d_B) amplitude stack.

    A (B, k, d_A*d_B) stack gives the B mixtures with the same weights.
    """
    return np.einsum("k,...ki,...kj->...ij", probs, amplitudes, np.conjugate(amplitudes))


def mixture_marginal_entropies(amplitudes: np.ndarray, probs, dims: tuple[int, int]):
    """(S(rho_A), S(rho_B)) of the mixture of a (k, d_A*d_B) amplitude stack.

    With ``M_k`` a member's ``(d_A, d_B)`` amplitude matrix the marginals are
    ``rho_A = sum_k p_k M_k M_k^dag`` and ``rho_B = sum_k p_k M_k^T conj(M_k)``;
    the full mixture is never formed. Floats for one stack; for a
    (B, k, d_A*d_B) stack, two arrays of shape (B,).
    """
    m = amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims))
    weighted = np.asarray(probs)[:, None, None] * m
    s_a = entropy_bits(_hermitian_spectrum(np.einsum("...kij,...klj->...il", weighted, m.conj())))
    s_b = entropy_bits(_hermitian_spectrum(np.einsum("...kij,...kil->...jl", weighted, m.conj())))
    if amplitudes.ndim == 2:
        return float(s_a), float(s_b)
    return s_a, s_b


def average_state(e: Ensemble) -> np.ndarray:
    """Density matrix sum_i p_i |psi_i><psi_i|."""
    return mixture(e.amplitudes, e.probabilities)


def marginal_entropies(e: Ensemble) -> tuple[float, float]:
    """(S(rho_A), S(rho_B)) of the ensemble-average state."""
    return mixture_marginal_entropies(e.amplitudes, e.probabilities, e.dims)
