"""The two ensemble nonlocality quantifiers under explicit optimization modes.

``nonlocal_entropy`` measures, per direction, the probability-weighted
entanglement created across a product ensemble by a controlled-shift based
transformation; ``average_entropy_gap`` measures how far a transformation can
lower the local entropy of the ensemble-average state. The optimization
freedom behind either quantity is expressed through an explicit ``Mode`` so
every reported number names the search that produced it:

* ``fixed``: the controlled shift alone, best repetition count.
* ``ensemble-lu``: layers of (local unitaries, controlled shift) with one
  shared parameter set, hill-climbed with restarts.
* ``per-state-lu``: the same circuit family optimized per member.
* ``assign`` (gap only, orthogonal ensembles): the best relabeling onto an
  orthonormal product frame, in closed form: members sorted by probability
  and cut into consecutive groups (exact by majorization).

Directions: "right" means party A controls and B is the target; "left" is
the mirror.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import BadParams, BadValue, GramNotIdentity, NotProductEnsemble
from .gates import UnitaryParam, cnot_permutation, hermitian_from_coeffs
from .linalg import expm_hermitian_unchecked, expm_skew_hermitian
from .states import LOG2, Ensemble, entanglement_entropies, mixture_marginal_entropies

DIRECTIONS = ("right", "left")
MODE_NAMES = ("fixed", "ensemble-lu", "per-state-lu", "assign")
ROTATE_CHOICES = ("both", "target", "control")


@dataclass(frozen=True)
class Mode:
    """Named optimization mode plus its search hyperparameters.

    ``rotate`` restricts which side carries the local pre-rotations in the
    lu modes: "both" (default), "target" (the shifted side), or "control".
    """

    name: str = "fixed"
    depth: int = 1
    restarts: int = 8
    seed: int = 0
    rotate: str = "both"

    def __post_init__(self):
        if self.name not in MODE_NAMES:
            raise BadParams(f"unknown mode {self.name!r}")
        if self.depth < 1 or self.restarts < 1:
            raise BadParams("depth and restarts must be >= 1")
        if self.rotate not in ROTATE_CHOICES:
            raise BadParams(f"unknown rotate choice {self.rotate!r}")


@dataclass(frozen=True)
class QuantifierReport:
    """Directional values, the symmetric value, and per-state diagnostics."""

    quantity: str
    right: float
    left: float
    symmetric: float
    contributions_right: tuple[float, ...]
    contributions_left: tuple[float, ...]
    mode: Mode
    work: dict = field(compare=False)
    side_gaps_right: tuple[float, float] | None = None
    side_gaps_left: tuple[float, float] | None = None
    reps_right: int | None = None
    reps_left: int | None = None
    entangled_fraction_right: float | None = None
    entangled_fraction_left: float | None = None


# ---------------------------------------------------------------------------
# shared numerics


def _clip_value(v: float) -> float:
    if not (math.isfinite(v) and v >= -TOL.value):
        raise BadValue(f"quantifier value {v} is not finite or lies below -{TOL.value}")
    return max(0.0, v)


def _target_dim(dims: tuple[int, int], direction: str) -> int:
    return dims[1] if direction == "right" else dims[0]


# ---------------------------------------------------------------------------
# derivative-free maximization


def _hill_climb(
    f,
    n: int,
    restarts: int,
    seed: int,
    init_step: float = 0.9,
    min_step: float = 3e-6,
) -> tuple[float, np.ndarray]:
    """Random-direction ascent with shrinking step; deterministic given seed.

    ``f`` maps a ``(B, n)`` batch of points to their ``(B,)`` values. A probe
    round draws ``probes`` unit directions and tries ``x + step*d``, then
    ``x - step*d``, for each in turn; the first improving point is taken and
    extended along its direction while that still improves, and the round
    goes on with the next direction from there. The candidates a round has
    left are evaluated as one batch, once at the start and again after each
    improving direction; the line extension evaluates one point per call.
    The first improving candidate of a batch is the one a one-at-a-time walk
    would take, so the walk, and the result, are the same as that walk's.

    The first restart starts at the zero vector, so the search space always
    contains the unrotated circuit. The best value never decreases.
    """

    def at(point: np.ndarray) -> float:
        return float(f(point[None])[0])

    zero = np.zeros(n)
    if n == 0:
        return at(zero), zero
    rng = np.random.default_rng(seed)
    probes = max(10, 2 * n)
    signs = np.tile([1.0, -1.0], probes)
    best_v, best_x = at(zero), zero
    for restart in range(restarts):
        if restart == 0:
            x, v = zero.copy(), best_v
        else:
            x = rng.normal(size=n) * rng.uniform(0.2, 1.2)
            v = at(x)
        step = init_step
        while step > min_step:
            dirs = rng.normal(size=(probes, n))
            for d in dirs:
                d /= np.linalg.norm(d)
            moves = (signs * step)[:, None] * np.repeat(dirs, 2, axis=0)
            improved = False
            first = 0  # candidates before this one are spent
            while first < 2 * probes:
                cands = x + moves[first:]
                values = f(cands)
                hits = np.flatnonzero(values > v + 1e-13)
                if hits.size == 0:
                    break
                x, v = cands[hits[0]], float(values[hits[0]])
                hit = first + hits[0]
                improved = True
                while True:
                    cand = x + moves[hit]
                    cv = at(cand)
                    if cv > v + 1e-13:
                        x, v = cand, cv
                    else:
                        break
                first = hit - hit % 2 + 2  # the other sign of a hit's direction is skipped
            if not improved:
                step *= 0.5
        if v > best_v:
            best_v, best_x = v, x
    return best_v, best_x


def optimize_unitary(objective, dim: int, restarts: int = 8, seed: int = 0):
    """Maximize ``objective(U)`` over the unitary group U(dim).

    Returns ``(best value, best UnitaryParam)``.
    """

    def f(batch: np.ndarray) -> np.ndarray:
        return np.array(
            [float(objective(expm_skew_hermitian(h))) for h in hermitian_from_coeffs(dim, batch)]
        )

    val, coeffs = _hill_climb(f, dim * dim, restarts, seed)
    return val, UnitaryParam(dim, coeffs)


# ---------------------------------------------------------------------------
# layered (local unitary, controlled shift) circuits


class _LuCircuit:
    """Depth-layered circuit: per layer local rotations then CNOT^reps."""

    def __init__(self, dims, direction: str, rotate: str, depth: int, reps: int):
        self.dims = dims
        self.depth = depth
        control = "A" if direction == "right" else "B"
        self.perm = cnot_permutation(dims, control, reps)
        target = "B" if direction == "right" else "A"
        wanted = {"both": ("A", "B"), "target": (target,), "control": (control,)}[rotate]
        self.rot_a = "A" in wanted
        self.rot_b = "B" in wanted
        self.n_a = dims[0] ** 2 if self.rot_a else 0
        self.n_b = dims[1] ** 2 if self.rot_b else 0
        self.n_params = depth * (self.n_a + self.n_b)

    def transform(self, stack: np.ndarray, params: np.ndarray) -> np.ndarray:
        """The circuit applied to a (k, d_A*d_B) stack; ``params`` has shape
        ``(..., n_params)`` and the result ``(..., k, d_A*d_B)``, one
        transformed stack per parameter row."""
        lead, k = params.shape[:-1], stack.shape[0]
        d_a, d_b = self.dims
        t = stack.reshape(k, d_a, d_b)
        off = 0
        for _ in range(self.depth):
            if self.rot_a:
                ua = expm_hermitian_unchecked(
                    hermitian_from_coeffs(d_a, params[..., off : off + self.n_a])
                )
                off += self.n_a
                t = np.matmul(ua[..., None, :, :], t)
            if self.rot_b:
                ub = expm_hermitian_unchecked(
                    hermitian_from_coeffs(d_b, params[..., off : off + self.n_b])
                )
                off += self.n_b
                t = np.matmul(t, ub.swapaxes(-1, -2)[..., None, :, :])
            flat = t.reshape(lead + (k, d_a * d_b))
            out = np.empty_like(flat)
            out[..., self.perm] = flat
            t = out.reshape(lead + (k, d_a, d_b))
        return t.reshape(lead + (k, d_a * d_b))


def _fixed_transform(stack: np.ndarray, dims, direction: str, reps: int) -> np.ndarray:
    control = "A" if direction == "right" else "B"
    perm = cnot_permutation(dims, control, reps)
    out = np.empty_like(stack)
    out[:, perm] = stack
    return out


def _direction_seed(base: int, direction: str, member: int = -1) -> int:
    return (base * 1_000_003 + (0 if direction == "right" else 7919) + 31 * (member + 1)) % (2**63)


# ---------------------------------------------------------------------------
# nonlocal entropy (product ensembles)


def nonlocal_entropy(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Average entanglement generated across a product ensemble, per direction.

    The per-state contribution is the entanglement entropy of the transformed
    member; the directional value is the probability-weighted sum. Raises
    ``NotProductEnsemble`` when any member has Schmidt rank above one.
    """
    if mode.name == "assign":
        raise BadParams("assign mode applies to the average-state gap only")
    if not e.is_product():
        raise NotProductEnsemble("every member must be a product state")
    stack = e.amplitudes
    probs = np.array(e.probabilities)

    per_dir = {}
    for direction in DIRECTIONS:
        value, contrib, transformed, reps = _delta_direction(e, stack, probs, mode, direction)
        per_dir[direction] = (value, contrib, transformed, reps)

    right, left = per_dir["right"][0], per_dir["left"][0]
    work = {
        d: _work_pairs(stack, per_dir[d][2], probs, e.dims) for d in DIRECTIONS
    }
    return QuantifierReport(
        quantity="delta",
        right=_clip_value(right),
        left=_clip_value(left),
        symmetric=_clip_value((right + left) / 2.0),
        contributions_right=tuple(per_dir["right"][1]),
        contributions_left=tuple(per_dir["left"][1]),
        mode=mode,
        work=work,
        reps_right=per_dir["right"][3],
        reps_left=per_dir["left"][3],
    )


def _delta_direction(e, stack, probs, mode, direction):
    dims = e.dims
    d_t = _target_dim(dims, direction)
    reps_range = range(1, max(d_t, 2))

    if mode.name == "fixed":
        best = None
        for r in reps_range:
            t = _fixed_transform(stack, dims, direction, r)
            contrib = entanglement_entropies(t, dims)
            avg = float(probs @ contrib)
            if best is None or avg > best[0] + 1e-15:
                best = (avg, contrib, t, r)
        return best

    if mode.name == "ensemble-lu":
        best = None
        for r in reps_range:
            circuit = _LuCircuit(dims, direction, mode.rotate, mode.depth, r)
            val, params = _hill_climb(
                _delta_objective(circuit, stack, probs),
                circuit.n_params,
                mode.restarts,
                _direction_seed(mode.seed, direction),
            )
            if best is None or val > best[0] + 1e-15:
                t = circuit.transform(stack, params)
                best = (val, entanglement_entropies(t, dims), t, r)
        return best

    # per-state-lu: parameters chosen member by member (upper-bound flavor)
    k = stack.shape[0]
    contrib = np.zeros(k)
    transformed = np.empty_like(stack)
    reps_used = 1
    for i in range(k):
        row = stack[i : i + 1]
        best = None
        for r in reps_range:
            circuit = _LuCircuit(dims, direction, mode.rotate, mode.depth, r)
            val, params = _hill_climb(
                _delta_objective(circuit, row, None),
                circuit.n_params,
                mode.restarts,
                _direction_seed(mode.seed, direction, i),
            )
            if best is None or val > best[0] + 1e-15:
                best = (val, circuit.transform(row, params)[0], r)
        contrib[i] = best[0]
        transformed[i] = best[1]
        reps_used = best[2]
    return float(probs @ contrib), contrib, transformed, reps_used


def _delta_objective(circuit: _LuCircuit, stack: np.ndarray, probs):
    """Batch objective of the delta searches: ``(B, n_params) -> (B,)``.

    Each row's value is the ``probs``-weighted entanglement of the transformed
    stack, or, with ``probs=None``, that of its single member. All ``B*k``
    members go through one SVD. The weighting is one dot product per row,
    which rounds as the one-candidate objective did; a ``(B, k) @ (k,)``
    product rounds differently and would move the seeded searches.
    """
    dims = circuit.dims

    def f(params: np.ndarray) -> np.ndarray:
        ents = entanglement_entropies(circuit.transform(stack, params), dims)
        if probs is None:
            return ents
        return np.array([float(probs @ row) for row in ents.reshape(len(params), -1)])

    return f


def _work_pairs(stack, transformed, probs, dims):
    """Work pairs of a product ensemble before and after its transform.

    Members are pure, so either marginal carries the squared Schmidt
    spectrum and both parties see the same average member entropy.
    """
    s_in = float(probs @ entanglement_entropies(stack, dims))
    s_fin = float(probs @ entanglement_entropies(transformed, dims))
    return _work((s_in, s_in), (s_fin, s_fin), dims)


# ---------------------------------------------------------------------------
# average-state local-entropy gap


def average_entropy_gap(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Reduction of the average-state local entropy achievable per direction.

    In fixed and ensemble-lu modes the transform family is the same
    controlled-shift circuit used by ``nonlocal_entropy`` (the identity is
    included, so the gap is never negative) and the report records how many
    members remain entangled. Assign mode relabels an orthogonal ensemble
    onto orthonormal product outputs: members are grouped, each group shares
    one target-side basis vector, and the residual target entropy is the
    entropy of the group-mass distribution, minimized over all admissible
    partitions; the minimum is attained by sorted chunking
    (``assign_partition``), so no search runs.
    """
    if mode.name == "per-state-lu":
        raise BadParams("the average-state gap needs a single global transform per direction")
    stack = e.amplitudes
    probs = np.array(e.probabilities)
    s_bar = mixture_marginal_entropies(stack, probs, e.dims)

    if mode.name == "assign":
        return _assign_gap(e, s_bar, mode)

    per_dir = {}
    for direction in DIRECTIONS:
        per_dir[direction] = _gap_direction(e, stack, probs, s_bar, mode, direction)

    right, left = per_dir["right"][0], per_dir["left"][0]
    work = {d: _work(s_bar, per_dir[d][4], e.dims) for d in DIRECTIONS}
    return QuantifierReport(
        quantity="big-delta",
        right=_clip_value(right),
        left=_clip_value(left),
        symmetric=_clip_value((right + left) / 2.0),
        contributions_right=tuple(per_dir["right"][1]),
        contributions_left=tuple(per_dir["left"][1]),
        mode=mode,
        work=work,
        side_gaps_right=per_dir["right"][2],
        side_gaps_left=per_dir["left"][2],
        reps_right=per_dir["right"][3],
        reps_left=per_dir["left"][3],
        entangled_fraction_right=_entangled_fraction(per_dir["right"][1]),
        entangled_fraction_left=_entangled_fraction(per_dir["left"][1]),
    )


def _entangled_fraction(contrib) -> float:
    contrib = np.asarray(contrib)
    return float(np.count_nonzero(contrib > TOL.value) / contrib.size)


def _work(s_in, s_fin, dims):
    """(W_in, W_fin) per party: deficit of the (A, B) local entropies from log2(d)."""
    return {
        party: (float(np.log2(d) - s_in[i]), float(np.log2(d) - s_fin[i]))
        for i, (party, d) in enumerate(zip("AB", dims))
    }


def _gap_direction(e, stack, probs, s_bar, mode, direction):
    dims = e.dims
    d_t = _target_dim(dims, direction)

    def score_of(t):
        s_fin = mixture_marginal_entropies(t, probs, dims)
        gaps = (s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])
        return max(gaps), gaps, s_fin

    def better(candidate, incumbent):
        # equal scores resolve toward the transform that disentangles more
        if incumbent is None:
            return True
        if candidate[0] > incumbent[0] + 1e-12:
            return True
        if candidate[0] < incumbent[0] - 1e-12:
            return False
        return np.count_nonzero(candidate[1] > TOL.value) < np.count_nonzero(
            incumbent[1] > TOL.value
        )

    best = None
    if mode.name == "fixed":
        for r in range(0, max(d_t, 1)):
            t = stack if r == 0 else _fixed_transform(stack, dims, direction, r)
            score, gaps, s_fin = score_of(t)
            candidate = (score, entanglement_entropies(t, dims), gaps, r, s_fin)
            if better(candidate, best):
                best = candidate
    else:  # ensemble-lu
        for r in range(1, max(d_t, 2)):
            circuit = _LuCircuit(dims, direction, mode.rotate, mode.depth, r)
            _, params = _hill_climb(
                _gap_objective(circuit, stack, probs, s_bar),
                circuit.n_params,
                mode.restarts,
                _direction_seed(mode.seed, direction),
            )
            t = circuit.transform(stack, params)
            score, gaps, s_fin = score_of(t)
            candidate = (score, entanglement_entropies(t, dims), gaps, r, s_fin)
            if better(candidate, best):
                best = candidate
        if best[0] < 0.0:  # the identity circuit is always admissible
            best = (0.0, entanglement_entropies(stack, dims), (0.0, 0.0), 0, s_bar)
    return best


def _gap_objective(circuit: _LuCircuit, stack: np.ndarray, probs, s_bar):
    """Batch objective of the gap searches: ``(B, n_params) -> (B,)``.

    Each row's value is the larger of the two local-entropy drops of the
    transformed mixture, as ``max`` of the (A, B) pair picks it; the B
    mixtures, their marginals and their spectra are each one batched call.
    """

    def f(params: np.ndarray) -> np.ndarray:
        s_a, s_b = mixture_marginal_entropies(circuit.transform(stack, params), probs, circuit.dims)
        gap_a, gap_b = s_bar[0] - s_a, s_bar[1] - s_b
        return np.where(gap_b > gap_a, gap_b, gap_a)

    return f


# ---------------------------------------------------------------------------
# assign mode: relabeling onto orthonormal product frames


def partitions_with_caps(k: int, max_size: int, max_parts: int):
    """All set partitions of range(k) with bounded part size and count; an
    exponential enumeration, the reference ``assign_partition`` is tested against."""
    items = tuple(range(k))

    def rec(remaining, parts_left):
        if not remaining:
            yield []
            return
        if parts_left == 0:
            return
        first, rest = remaining[0], remaining[1:]
        for size in range(0, min(len(rest), max_size - 1) + 1):
            for combo in itertools.combinations(rest, size):
                part = (first,) + combo
                taken = set(combo)
                others = tuple(x for x in rest if x not in taken)
                for sub in rec(others, parts_left - 1):
                    yield [part] + sub

    yield from rec(items, max_parts)


def assign_partition(e: Ensemble, reduction_side: str) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Best grouping for one side's reduction and its group-mass entropy.

    For ``reduction_side="B"`` the members of one group share a single B
    basis vector and get orthonormal A parts, so groups hold at most d_A
    members and there are at most d_B groups; the residual B entropy is the
    entropy of the group masses. Mirrored for side "A".

    The minimum has a closed form: sort the members by probability,
    descending, and cut them into consecutive chunks of ``max_size``. Proof:
    any j admissible groups hold at most ``j*max_size`` members, so their
    mass is at most the sum of the ``j*max_size`` largest probabilities,
    which is the mass of the j heaviest chunks. Hence the chunk mass vector
    majorizes the (zero-padded) mass vector of every admissible grouping, and
    Shannon entropy, being Schur-concave, is smallest on it (Marshall & Olkin,
    *Inequalities: Theory of Majorization*). The chunking is admissible:
    ``ceil(k/max_size) <= max_parts`` follows from ``k <= max_size*max_parts``.
    Each part lists its indices in ascending order and the parts are ordered
    by their smallest index, the form ``partitions_with_caps`` yields.
    """
    d_a, d_b = e.dims
    max_size, max_parts = (d_a, d_b) if reduction_side == "B" else (d_b, d_a)
    k = len(e)
    if k > max_size * max_parts:
        raise BadParams("ensemble too large for a product relabeling")
    probs = np.array(e.probabilities)
    order = sorted(range(k), key=probs.__getitem__, reverse=True)  # stable: ties keep index order
    parts = sorted(tuple(sorted(order[i : i + max_size])) for i in range(0, k, max_size))
    masses = np.array([probs[list(part)].sum() for part in parts])
    h = float(-(masses * (np.log(masses) / LOG2)).sum()) + 0.0
    return tuple(parts), h


def assign_unitary(e: Ensemble, partition, reduction_side: str) -> np.ndarray:
    """Global unitary realizing the relabeling (exists by Gram preservation)."""
    if not e.is_orthogonal():
        raise GramNotIdentity("assign mode needs an orthogonal ensemble")
    d_a, d_b = e.dims
    n = d_a * d_b
    used = [
        r * d_b + t if reduction_side == "B" else t * d_b + r
        for t, part in enumerate(partition)
        for r in range(len(part))
    ]
    order = [i for part in partition for i in part]

    # complete the input frame; outputs complete with unused basis vectors
    basis_in = _complete_frame(e.amplitudes[order].T, n)
    free = [i for i in range(n) if i not in used]
    basis_out = np.eye(n, dtype=complex)[:, used + free]
    return basis_out @ np.conjugate(basis_in.T)


def _complete_frame(cols: np.ndarray, n: int) -> np.ndarray:
    k = cols.shape[1]
    if k == n:
        return cols
    proj = np.eye(n) - cols @ np.conjugate(cols.T)
    _, vecs = np.linalg.eigh(proj)
    extra = vecs[:, k:]  # eigenvalue-1 subspace of the complement projector
    return np.hstack([cols, extra])


def _assign_gap(e, s_bar, mode):
    if not e.is_orthogonal():
        raise GramNotIdentity("assign mode needs an orthogonal ensemble")
    h_a, h_b = (assign_partition(e, side)[1] for side in "AB")
    gaps = (s_bar[0] - h_a, s_bar[1] - h_b)
    value = _clip_value(max(gaps))
    zeros = (0.0,) * len(e)
    work = {d: _work(s_bar, (h_a, h_b), e.dims) for d in DIRECTIONS}
    return QuantifierReport(
        quantity="big-delta",
        right=value,
        left=value,
        symmetric=value,
        contributions_right=zeros,
        contributions_left=zeros,
        mode=mode,
        work=work,
        side_gaps_right=gaps,
        side_gaps_left=gaps,
        entangled_fraction_right=0.0,
        entangled_fraction_left=0.0,
    )
