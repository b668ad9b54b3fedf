"""The two ensemble nonlocality quantifiers under explicit optimization modes.

``nonlocal_entropy`` measures, per direction, the probability-weighted
entanglement created across a product ensemble by a controlled-shift based
transformation; ``average_entropy_gap`` measures how far a transformation can
lower the local entropy of the ensemble-average state. The optimization
freedom behind either quantity is expressed through an explicit ``Mode`` so
every reported number names the search that produced it:

* ``fixed``: the controlled shift alone, best repetition count: the
  parameter-free member of the ensemble-lu family, one layer with no
  rotated side (``depth``, ``restarts`` and ``seed`` have no effect).
* ``ensemble-lu``: layers of (local unitaries, controlled shift) with one
  shared parameter set, hill-climbed with restarts.
* ``per-state-lu``: the same circuit family optimized per member; in closed
  form at depth 1 (``_per_state_closed``; ``restarts`` and ``seed`` have no
  effect, and a member, product within ``TOL.product_rank``, is valued
  through its leading Schmidt pair); deeper, ensemble-lu run on each
  one-member ensemble.
* ``assign`` (gap only, orthogonal ensembles): the best relabeling onto an
  orthonormal product frame, in closed form: members sorted by probability
  and cut into consecutive groups (exact by majorization).

Fixed, ensemble-lu and deeper per-state-lu share one search loop over the
repetition count r (``_searched_transforms``); every gap search starts from
the identity (r=0). Delta values lie in ``[0, log2 min(d_A, d_B)]``.

Directions: "right" means party A controls and B is the target; "left" is
the mirror.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import BadParams, BadValue, GramNotIdentity, NotProductEnsemble
from .gates import cnot_permutation, hermitian_from_coeffs
from .linalg import expm_hermitian_unchecked
from .states import LOG2, Ensemble, entanglement_entropies, entropy_bits, mixture_marginal_entropies

DIRECTIONS = ("right", "left")
MODE_NAMES = ("fixed", "ensemble-lu", "per-state-lu", "assign")
ROTATE_CHOICES = ("both", "target", "control")


@dataclass(frozen=True)
class Mode:
    """Named optimization mode plus its search hyperparameters.

    ``rotate`` restricts which side carries the local pre-rotations in the
    lu modes: "both" (default), "target" (the shifted side), or "control".
    ``restarts`` and ``seed`` drive the hill climbs; depth-1 per-state-lu runs
    none, so they do not affect it. Fixed mode has no rotations and one
    layer, so it ignores ``depth``, ``restarts``, ``seed`` and ``rotate``.
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


def _clip_value(v: float, ceiling: float = math.inf) -> float:
    """``v`` clipped into ``[0, ceiling]``; ``BadValue`` when it is not finite
    or lies outside by more than ``TOL.value``."""
    if not (math.isfinite(v) and -TOL.value <= v <= ceiling + TOL.value):
        raise BadValue(f"quantifier value {v} is not finite or lies outside [0, {ceiling}]")
    return min(max(0.0, v), ceiling)


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


# ---------------------------------------------------------------------------
# layered (local unitary, controlled shift) circuits


class _LuCircuit:
    """Depth-layered circuit: per layer local rotations (``rotate=None``: none) then CNOT^reps."""

    def __init__(self, dims, direction: str, rotate: str | None, depth: int, reps: int):
        self.dims = dims
        self.depth = depth
        control = "A" if direction == "right" else "B"
        self.perm = cnot_permutation(dims, control, reps)
        target = "B" if direction == "right" else "A"
        wanted = {"both": ("A", "B"), "target": (target,), "control": (control,), None: ()}[rotate]
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


def _searched_transforms(stack, dims, mode: Mode, direction: str, objective, seed: int):
    """Yield ``(r, transformed stack)`` for each repetition count r.

    The stack goes through the mode's circuit at the parameters the hill climb
    of ``objective(circuit)`` finds. The fixed circuit is the parameter-free
    one, a single layer with no rotated side whatever ``mode.depth`` says, and
    is not climbed.
    """
    rotate, depth = (None, 1) if mode.name == "fixed" else (mode.rotate, mode.depth)
    for r in range(1, max(_target_dim(dims, direction), 2)):
        circuit = _LuCircuit(dims, direction, rotate, depth, r)
        params = np.zeros(0)
        if circuit.n_params:
            params = _hill_climb(objective(circuit), circuit.n_params, mode.restarts, seed)[1]
        yield r, circuit.transform(stack, params)


def _direction_seed(base: int, direction: str, member: int = -1) -> int:
    return (base * 1_000_003 + (0 if direction == "right" else 7919) + 31 * (member + 1)) % (2**63)


# ---------------------------------------------------------------------------
# nonlocal entropy (product ensembles)


def nonlocal_entropy(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Average entanglement generated across a product ensemble, per direction.

    The per-state contribution is the entanglement entropy of the transformed
    member; the directional value is the probability-weighted sum. Values and
    contributions are clipped into ``[0, log2 min(d_A, d_B)]``. Raises
    ``NotProductEnsemble`` when any member has Schmidt rank above one.
    """
    if mode.name == "assign":
        raise BadParams("assign mode applies to the average-state gap only")
    if not e.is_product():
        raise NotProductEnsemble("every member must be a product state")
    stack = e.amplitudes
    probs = np.array(e.probabilities)

    per_dir = {d: _delta_direction(e, stack, probs, mode, d) for d in DIRECTIONS}
    right, left = per_dir["right"][0], per_dir["left"][0]
    work = {d: _work_pairs(stack, per_dir[d][1], probs, e.dims) for d in DIRECTIONS}
    ceiling = math.log2(min(e.dims))  # the entanglement of any pure state
    return QuantifierReport(
        quantity="delta",
        right=_clip_value(right, ceiling),
        left=_clip_value(left, ceiling),
        symmetric=_clip_value((right + left) / 2.0, ceiling),
        contributions_right=tuple(_clip_value(c, ceiling) for c in per_dir["right"][1]),
        contributions_left=tuple(_clip_value(c, ceiling) for c in per_dir["left"][1]),
        mode=mode,
        work=work,
        reps_right=per_dir["right"][2],
        reps_left=per_dir["left"][2],
    )


def _delta_direction(e, stack, probs, mode, direction):
    """(value, contributions, repetition count); per-state-lu reports no count,
    as each member picks its own."""
    dims, seed = e.dims, _direction_seed(mode.seed, direction)
    if mode.name != "per-state-lu":
        return _delta_search(stack, probs, dims, mode, direction, seed)
    # per-state-lu: parameters chosen member by member (upper-bound flavor)
    if mode.depth == 1:
        reps_range = range(1, max(_target_dim(dims, direction), 2))
        contrib = _per_state_closed(stack, dims, direction, mode.rotate, reps_range)
    else:  # ensemble-lu on each one-member ensemble
        member_seeds = (_direction_seed(mode.seed, direction, i) for i in range(len(stack)))
        contrib = np.array([
            _delta_search(row[None], np.ones(1), dims, mode, direction, s)[0]
            for row, s in zip(stack, member_seeds)
        ])
    return float(probs @ contrib), contrib, None


def _delta_search(stack, probs, dims, mode, direction, seed):
    """(value, contributions, r) of the best repetition count; a later r must
    beat the best value by more than 1e-15."""
    best = None
    objective = functools.partial(_delta_objective, stack=stack, probs=probs)
    for r, t in _searched_transforms(stack, dims, mode, direction, objective, seed):
        contrib = entanglement_entropies(t, dims)
        value = float(probs @ contrib)
        if best is None or value > best[0] + 1e-15:
            best = (value, contrib, r)
    return best


# ---------------------------------------------------------------------------
# depth-1 per-state optimum in closed form


_CAPACITY_ROUNDS = 10_000  # Blahut-Arimoto rounds before a capacity is given up


def _per_state_closed(stack, dims, direction: str, rotate: str, reps_range) -> np.ndarray:
    """Each member's best entanglement over one rotation layer and ``CNOT^r``.

    A member (product within ``TOL.product_rank``) is valued through its
    leading Schmidt pair: control part ``a``, target part ``b``. ``CNOT^r``
    sends ``|i>|b>`` to ``|i> X^{ri}|b>``, so the controls of one class
    ``c = r*i mod d_t`` see the same shift. Maximized over r in ``reps_range``:

    * target: ``H(fold_r |a|^2)``, the class masses. The output
      ``sum_c sqrt(w_c) |phi_c> X^c V|b>`` has orthonormal ``|phi_c>``, so its
      entropy is at most ``H(w)``, attained by ``V|b> = |0>``.
    * both: ``log2 min(d_A, d_B)``, the ceiling of any pure state, attained at
      r=1 by a control uniform on ``min(d_c, d_t)`` basis vectors and ``|0>``.
    * control: the capacity ``max_q S(sum_c q_c X^c|b><b|X^-c)`` over the
      classes, since control rotations reach every class distribution ``q``
      and the target marginal is that mixture (``_shift_capacities``).
    """
    k = stack.shape[0]
    if rotate == "both":
        return np.full(k, math.log2(min(dims)))
    u, _, vh = np.linalg.svd(stack.reshape(k, *dims))
    part_a, part_b = u[:, :, 0], vh[:, 0, :]
    control, target = (part_a, part_b) if direction == "right" else (part_b, part_a)
    classes = _shift_classes(control.shape[1], target.shape[1], reps_range)
    if rotate == "target":
        return entropy_bits(np.einsum("ki,ric->krc", np.abs(control) ** 2, classes)).max(axis=1)
    return _shift_capacities(target, classes.any(axis=1))[0].max(axis=1)


def _shift_classes(d_c: int, d_t: int, reps_range) -> np.ndarray:
    """``(R, d_c, d_t)`` indicator: control index i lies in class ``r*i mod d_t``."""
    classes = np.zeros((len(reps_range), d_c, d_t))
    for n, r in enumerate(reps_range):
        classes[n, np.arange(d_c), r * np.arange(d_c) % d_t] = 1.0
    return classes


def _shift_capacities(target: np.ndarray, present: np.ndarray):
    """Capacities of the channels ``c -> X^c|b>`` over the classes ``present`` marks.

    ``target`` is ``(k, d_t)`` and ``present`` ``(R, d_t)``; returns the values
    and the optimal class distributions, ``(k, R)`` and ``(k, R, d_t)``. One
    letter per class: duplicated letters slow the iteration down. All ``k*R``
    channels run the quantum Blahut-Arimoto iteration (Nagaoka 1998) from the
    uniform ``q``, one stacked ``eigh`` per round: ``q_c <- q_c 2^{D(b_c||rho)}``.
    ``S(rho)`` is attained by the current ``q`` and ``max_c D(b_c||rho)``
    bounds the capacity from above, so a channel stops at ``S(rho)`` once
    their gap (with the unfloored entropy, as ``D`` sees the same spectrum) is
    at most ``TOL.capacity_gap``. ``BadValue`` if one is still open after
    ``_CAPACITY_ROUNDS`` rounds.
    """
    k, d_t = target.shape
    letters = np.stack([np.roll(target, c, axis=1) for c in range(d_t)], axis=1)  # row c: X^c|b>
    letters = np.repeat(letters, len(present), axis=0)
    present = np.tile(present, (k, 1))
    q = present / present.sum(axis=1, keepdims=True)
    values = np.empty(len(q))
    running = np.arange(len(q))
    for _ in range(_CAPACITY_ROUNDS):
        b, mask = letters[running], present[running]
        lam, vecs = np.linalg.eigh(np.einsum("mc,mci,mcj->mij", q[running], b, np.conjugate(b)))
        logs = np.log2(np.where(lam > 0.0, lam, 1.0))
        div = -(np.abs(b @ np.conjugate(vecs)) ** 2 * logs[:, None, :]).sum(-1)  # D(b_c||rho)
        div = np.where(mask, div, -np.inf)
        top = div.max(axis=1)
        done = top + (lam * logs).sum(-1) <= TOL.capacity_gap
        values[running[done]] = entropy_bits(lam[done])
        w = q[running] * np.exp2(div - top[:, None])
        q[running[~done]] = (w / w.sum(axis=1, keepdims=True))[~done]
        running = running[~done]
        if running.size == 0:
            return values.reshape(k, -1), q.reshape(k, -1, d_t)
    raise BadValue(f"shift capacity not certified within {_CAPACITY_ROUNDS} rounds")


def _delta_objective(circuit: _LuCircuit, stack: np.ndarray, probs):
    """Batch objective of the delta searches: ``(B, n_params) -> (B,)``.

    Each row's value is the ``probs``-weighted entanglement of the transformed
    stack (``probs=np.ones(1)`` for a single member). All ``B*k`` members go
    through one SVD. The weighting is one dot product per row,
    which rounds as the one-candidate objective did; a ``(B, k) @ (k,)``
    product rounds differently and would move the seeded searches.
    """
    dims = circuit.dims

    def f(params: np.ndarray) -> np.ndarray:
        ents = entanglement_entropies(circuit.transform(stack, params), dims)
        return np.array([float(probs @ row) for row in ents.reshape(len(params), -1)])

    return f


def _work_pairs(stack, contrib, probs, dims):
    """Work pairs of a product ensemble before and after its transform.

    Members are pure, so either marginal carries the squared Schmidt
    spectrum and both parties see the same average member entropy;
    ``contrib`` holds the transformed members' entanglement.
    """
    s_in = float(probs @ entanglement_entropies(stack, dims))
    s_fin = float(probs @ contrib)
    return _work((s_in, s_in), (s_fin, s_fin), dims)


# ---------------------------------------------------------------------------
# average-state local-entropy gap


def average_entropy_gap(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Reduction of the average-state local entropy achievable per direction.

    In fixed and ensemble-lu modes the transform family is the same
    controlled-shift circuit used by ``nonlocal_entropy`` plus the identity,
    the first candidate of every direction, so the gap is never negative;
    the report records how many members remain entangled. Assign mode
    relabels an orthogonal ensemble onto orthonormal product outputs:
    members are grouped, each group shares
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

    identity = (0.0, entanglement_entropies(stack, e.dims), (0.0, 0.0), 0, s_bar)
    per_dir = {d: _gap_direction(e, stack, probs, s_bar, identity, mode, d) for d in DIRECTIONS}

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


def _gap_direction(e, stack, probs, s_bar, identity, mode, direction):
    """(gap, contributions, side gaps, r, final side entropies) of the best
    candidate, starting from ``identity`` (r=0)."""
    dims = e.dims

    def better(candidate, incumbent):
        # equal scores resolve toward the transform that disentangles more
        if candidate[0] > incumbent[0] + 1e-12:
            return True
        if candidate[0] < incumbent[0] - 1e-12:
            return False
        return np.count_nonzero(candidate[1] > TOL.value) < np.count_nonzero(
            incumbent[1] > TOL.value
        )

    best = identity
    objective = functools.partial(_gap_objective, stack=stack, probs=probs, s_bar=s_bar)
    seed = _direction_seed(mode.seed, direction)
    for r, t in _searched_transforms(stack, dims, mode, direction, objective, seed):
        s_fin = mixture_marginal_entropies(t, probs, dims)
        gaps = (s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])
        candidate = (max(gaps), entanglement_entropies(t, dims), gaps, r, s_fin)
        if better(candidate, best):
            best = candidate
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
