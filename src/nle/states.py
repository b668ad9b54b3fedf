"""Bipartite pure states, ensembles, entropies, and Schmidt analysis.

Amplitude convention: the coefficient of |i>_A |j>_B sits at flat index
``i * d_B + j``. All entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import MAX_DIM_PRODUCT, MAX_MEMBERS, TOL
from .errors import BadParams, DimensionMismatch, NotAState, TooLarge
from .linalg import cnot_family_gather, gram, is_integer, partial_trace

LOG2 = math.log(2.0)


def _numbers(values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype``, no copy where it is one already;
    ``NotAState`` unless numbers that ``dtype`` holds: text, which numpy
    would parse, and complex numbers for a real ``dtype`` are refused."""
    try:
        array = np.asarray(values)
        if array.dtype.kind != "O":  # text and complex to real are not same-kind casts
            return array.astype(dtype, copy=False, casting="same_kind")
        if any(isinstance(x, (str, bytes)) for x in array.flat):
            raise TypeError("text is not a number")
        return array.astype(dtype)  # float() of a complex element raises
    except (TypeError, ValueError) as err:
        raise NotAState(f"expected numbers, not {values!r}") from err


def _dims(dims) -> tuple[int, int]:
    """``dims`` as two Python ints; ``DimensionMismatch`` unless two positive integers."""
    try:
        d_a, d_b = dims
        if is_integer(d_a) and is_integer(d_b) and d_a >= 1 and d_b >= 1:
            return int(d_a), int(d_b)
    except (TypeError, ValueError):
        pass
    raise DimensionMismatch(f"dims must be two positive integers, not {dims!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized pure state on C^{d_A} (x) C^{d_B}; equal only to itself.

    ``amplitudes`` is read-only; it is a flat view of the array given, not a
    copy, when that array is complex and contiguous already.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numbers(self.amplitudes, complex).ravel()
        d_a, d_b = _dims(self.dims)
        if amps.shape[0] != d_a * d_b:
            raise DimensionMismatch(f"amplitude length {amps.shape[0]} != {d_a}*{d_b}")
        norm = math.sqrt(np.vdot(amps, amps).real)  # inf or NaN for a non-finite amplitude
        if not abs(norm - 1.0) <= TOL.norm:
            raise NotAState(f"norm {norm} is not finite or deviates from 1 beyond {TOL.norm}")
        amps.flags.writeable = False  # a view: the caller's array keeps its own flag
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conjugate(self.amplitudes))

    def marginal(self, keep: str) -> np.ndarray:
        return partial_trace(self.projector(), self.dims, keep)


def product_state(dims: tuple[int, int], part_a: np.ndarray, part_b: np.ndarray) -> PureState:
    """``a (x) b`` of the local parts, each normalized; ``NotAState`` for a part
    that is not numbers, or is zero or not finite."""
    a, b = (_numbers(part, complex).ravel() for part in (part_a, part_b))
    if a.shape[0] != dims[0] or b.shape[0] != dims[1]:
        raise DimensionMismatch("local parts do not match dims")
    norms = [float(np.linalg.norm(part)) for part in (a, b)]
    if not all(0.0 < n < math.inf for n in norms):  # a NaN fails too
        raise NotAState(f"local parts of norms {norms}: each must be nonzero and finite")
    return PureState(dims, np.kron(a / norms[0], b / norms[1]))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability-weighted list of pure states on common dimensions, equal only to itself.

    ``amplitudes`` holds the members once more as one read-only
    ``(k, d_A*d_B)`` array (row i is ``states[i].amplitudes``) for batched use.
    Facts of that stack are computed on first use and kept: ``spectra``, the
    members' squared Schmidt coefficients, and ``entanglement``, their
    entropies; ``schmidt_pairs``, their leading Schmidt vectors;
    ``mixture_entropies``, the marginal entropies ``(S_A, S_B)`` of the
    mixture; and the fixed circuit's valuations, ``cnot_entanglement`` and
    ``cnot_mixture_entropies``. Each of those two batched calls values the
    members as they are too, as row 0: ``cnot_entanglement`` keeps it as
    ``spectra`` and ``entanglement`` if ``spectra`` is not known yet, and
    ``cnot_mixture_entropies`` as ``mixture_entropies`` if that is not known
    yet. Only valuations are kept, never transformed stacks.
    """

    dims: tuple[int, int]
    probabilities: tuple[float, ...]
    states: tuple[PureState, ...]
    name: str = ""
    amplitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = _dims(self.dims)
        try:
            probs, states = _numbers(self.probabilities, float), tuple(self.states)
            if probs.ndim != 1:
                raise TypeError("probabilities must be one flat sequence")
            probs = tuple(probs.tolist())
        except (TypeError, ValueError) as err:
            raise NotAState("probabilities must be numbers and states a sequence") from err
        if dims[0] * dims[1] > MAX_DIM_PRODUCT or len(states) > MAX_MEMBERS:
            raise TooLarge(f"{len(states)} members on {dims[0]}x{dims[1]}: at most "
                           f"{MAX_MEMBERS} members and d_A*d_B <= {MAX_DIM_PRODUCT}")
        if len(probs) != len(states) or not states:
            raise DimensionMismatch("probabilities and states must pair up")
        # positive conditions, so that NaN fails them
        if not all(0.0 < p <= 1.0 for p in probs):
            raise NotAState("probabilities must lie in (0, 1]")
        if not abs(sum(probs) - 1.0) <= TOL.prob_sum:
            raise NotAState(f"probabilities sum to {sum(probs)}")
        if not all(isinstance(s, PureState) for s in states):
            raise NotAState("members must be PureState instances")
        if any(s.dims != dims for s in states):
            raise DimensionMismatch("member dimensions disagree")
        stack = np.array([s.amplitudes for s in states])
        stack.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "amplitudes", stack)

    @classmethod
    def uniform(cls, dims, states, name: str = "") -> "Ensemble":
        k = len(states)
        return cls(dims, tuple(1.0 / k for _ in range(k)), tuple(states), name=name)

    def __len__(self) -> int:
        return len(self.states)

    def is_orthogonal(self) -> bool:
        g = gram(self.amplitudes)
        return bool(np.max(np.abs(g - np.eye(len(self)))) <= TOL.orthogonality)

    def is_product(self) -> bool:
        return bool(np.all(self.spectra[:, 0] >= 1.0 - TOL.product_rank))

    @cached_property
    def spectra(self) -> np.ndarray:
        """Read-only ``(k, min(d_A, d_B))`` squared Schmidt coefficients, descending;
        ``entropy_bits(spectra)`` is the members' entanglement."""
        spectra = schmidt_spectra(self.amplitudes, self.dims)
        spectra.flags.writeable = False
        return spectra

    @cached_property
    def schmidt_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(k, d_A)`` and ``(k, d_B)`` unit vectors: row i holds
        member i's leading Schmidt pair, its local parts when it is a product."""
        # not shared with ``spectra``: a full SVD's values differ in the last bits
        u, _, vh = np.linalg.svd(self.amplitudes.reshape(len(self), *self.dims))
        pairs = u[:, :, 0].copy(), vh[:, 0, :].copy()  # copies, so u and vh are freed
        for part in pairs:
            part.flags.writeable = False
        return pairs

    @cached_property
    def entanglement(self) -> np.ndarray:
        """Read-only ``(k,)`` entanglement entropies of the members, ``entropy_bits(spectra)``."""
        ents = entropy_bits(self.spectra)
        ents.flags.writeable = False
        return ents

    @cached_property
    def mixture_entropies(self) -> tuple[float, float]:
        """``(S(rho_A), S(rho_B))`` of the mixture ``sum_i p_i |psi_i><psi_i|``."""
        return mixture_marginal_entropies(self.amplitudes, self.probabilities, self.dims)

    def _shifted_stacks(self) -> np.ndarray:
        """``(1 + C, k, d_A*d_B)``: the members as they are (row 0), then after
        each candidate ``CNOT^r`` of ``cnot_family(dims)``, in one gather; made
        afresh for each memo that reads it, never kept. Contiguous, since the
        kernels' bits depend on the layout."""
        gather = cnot_family_gather(self.dims)
        return np.ascontiguousarray(self.amplitudes[:, gather].swapaxes(0, 1))

    @cached_property
    def cnot_entanglement(self) -> np.ndarray:
        """Read-only ``(C, k)``: row c holds the members' entanglement after
        candidate c of ``cnot_family(dims)``, from one batched SVD and one
        entropy pass that also yield ``spectra`` and ``entanglement`` (row 0)
        when ``spectra`` is not known yet, so the two always agree."""
        spectra = schmidt_spectra(self._shifted_stacks(), self.dims)
        ents = entropy_bits(spectra)
        if "spectra" not in self.__dict__:  # then neither is entanglement
            for name, rows in (("spectra", spectra), ("entanglement", ents)):
                row0 = rows[0].copy()  # a copy, so the family's rows are freed
                row0.flags.writeable = False
                self.__dict__[name] = row0
        ents = ents[1:].copy()  # a copy: a view would keep every row alive
        ents.flags.writeable = False
        return ents

    @cached_property
    def cnot_mixture_entropies(self) -> np.ndarray:
        """Read-only ``(C, 2)``: row c holds ``(S_A, S_B)`` of the mixture after
        candidate c of ``cnot_family(dims)``, from one batched call that also
        yields ``mixture_entropies`` (row 0) when it is not known yet."""
        s_a, s_b = mixture_marginal_entropies(self._shifted_stacks(), self.probabilities, self.dims)
        self.__dict__.setdefault("mixture_entropies", (float(s_a[0]), float(s_b[0])))
        out = np.stack([s_a[1:], s_b[1:]], axis=1)
        out.flags.writeable = False
        return out

    def member_indices(self, indices) -> tuple[int, ...]:
        """``indices`` as a tuple of ints; ``BadParams`` unless they are
        distinct integers in ``range(len(self))``."""
        idx = tuple(indices) if np.iterable(indices) else None
        if idx is None or not all(is_integer(i) and 0 <= i < len(self) for i in idx) \
                or len(set(idx)) != len(idx):
            raise BadParams(f"member indices must be distinct integers in [0, {len(self)})")
        return tuple(int(i) for i in idx)

    def subset(self, indices) -> "Ensemble":
        """Sub-ensemble on the given member indices, probabilities renormalized;
        ``BadParams`` unless they name at least one member."""
        idx = self.member_indices(indices)
        if not idx:
            raise BadParams("a sub-ensemble needs at least one member")
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
    """Squared Schmidt coefficients, descending, of each row of a (..., d_A*d_B) stack."""
    sv = np.linalg.svd(amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims)), compute_uv=False)
    return sv**2


def entanglement_entropies(amplitudes: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Entanglement entropy of each row of a (..., d_A*d_B) amplitude stack."""
    return entropy_bits(schmidt_spectra(amplitudes, dims))


def entanglement_entropy(s: PureState) -> float:
    """Entropy of either marginal; the entanglement of a pure state."""
    return float(entanglement_entropies(s.amplitudes, s.dims))


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
    (B, k, d_A*d_B) stack, two arrays of shape (B,). With ``d_A == d_B`` the
    two marginals take one eigensolve and one entropy pass together.
    """
    m = amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims))
    weighted = np.asarray(probs)[:, None, None] * m
    conj = m.conj()
    rho_a = np.einsum("...kij,...klj->...il", weighted, conj)
    rho_b = np.einsum("...kij,...kil->...jl", weighted, conj)
    if dims[0] == dims[1]:
        s_a, s_b = entropy_bits(_hermitian_spectrum(np.stack([rho_a, rho_b])))
    else:
        s_a, s_b = (entropy_bits(_hermitian_spectrum(rho)) for rho in (rho_a, rho_b))
    if amplitudes.ndim == 2:
        return float(s_a), float(s_b)
    return s_a, s_b


def average_state(e: Ensemble) -> np.ndarray:
    """Density matrix sum_i p_i |psi_i><psi_i|."""
    return mixture(e.amplitudes, e.probabilities)


def marginal_entropies(e: Ensemble) -> tuple[float, float]:
    """(S(rho_A), S(rho_B)) of the ensemble-average state."""
    return e.mixture_entropies
