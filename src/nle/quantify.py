"""The two ensemble nonlocality quantifiers under explicit optimization modes.

``nonlocal_entropy`` measures, per direction, the probability-weighted
entanglement created across a product ensemble by a controlled-shift based
transformation; ``average_entropy_gap`` measures how far a transformation can
lower the local entropy of the ensemble-average state. Every reported number
names the search that produced it through an explicit ``Mode``:

* ``fixed``: the controlled shift alone, best repetition count: the
  parameter-free member of the ensemble-lu family, one layer with no
  rotated side. Its candidates are valued once per ensemble, in
  ``Ensemble.cnot_entanglement`` and ``Ensemble.cnot_mixture_entropies``.
* ``ensemble-lu``: layers of (local unitaries, controlled shift) with one
  shared set of unitaries, found by Riemannian gradient ascent on the
  unitary groups (``_ascend``) from the identity and seeded restarts,
  except where ``nle.qubits`` states a depth-1 form that rotates only qubits,
  and for depth-1 delta where the plain shifts meet the per-state ceiling.
* ``per-state-lu``: the same circuit family optimized per member, in closed
  form (``_per_state_closed``) except deeper than depth 1 with the control
  rotated, where ensemble-lu runs on each one-member ensemble, all members
  in one search.
* ``assign`` (gap only, orthogonal ensembles): the best relabeling onto an
  orthonormal product frame, in closed form (``assign_partition``).

Ensemble-lu and deeper control-rotated per-state-lu share one search over
the repetition count r (``_searched_transforms``), its ascents in lockstep
batches (``_ascend``). Fixed mode picks from the ensemble's memo through the
same selection code (``_pick_delta``, ``_gap_search``). Every mode ends in
one report builder, ``_report``, which clips into proven ceilings: ``log2
min(d_A, d_B)`` for delta, and for big-delta ``max(S_A, S_B)`` of the
mixture, whose side gaps are ``S_side - S_fin`` with ``S_fin >= 0``.

Directions: "right" means party A controls and B is the target; "left" is
the mirror.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import _ARMIJO, _ASCENT_ROUNDS, _GAIN_FLOOR, MAX_DEPTH, MAX_RESTARTS, TOL
from .errors import BadParams, BadValue, GramNotIdentity, NotProductEnsemble, TooLarge
from .linalg import (DIRECTIONS, PARTIES, ROLES, cnot_family, cnot_family_gather, cnot_permutation,
                     expm_hermitian_unchecked, haar_unitary, is_integer, party_index)
from .qubits import _TURNS, _qubit_delta_transforms, _qubit_transforms
from .states import LOG2, Ensemble, entanglement_entropies, entropy_bits, mixture_marginal_entropies

MODE_NAMES = ("fixed", "ensemble-lu", "per-state-lu", "assign")
ROTATE_CHOICES = tuple(_TURNS)


@dataclass(frozen=True)
class Mode:
    """Named optimization mode plus its search hyperparameters.

    ``rotate`` restricts which side carries the local pre-rotations in the
    lu modes: "both" (default), "target" (the shifted side), or "control".
    ``restarts`` and ``seed`` drive the gradient ascents (restart 0 starts
    next to the identity, later ones at seeded random unitaries), which
    per-state-lu runs only at depth > 1 with ``rotate="control"``, and
    ensemble-lu not where ``nle.qubits`` states a depth-1 qubit form (2x2,
    and delta in a direction of 2xd or dx2 whose only rotated side is the
    qubit) nor in a depth-1 delta direction whose plain shifts meet the
    per-state ceiling (``_closed_delta_transforms``). Fixed mode has no
    rotations and one layer, so it ignores all but ``name``. ``depth``,
    ``restarts`` and ``seed`` must be integers (booleans are not), kept as
    Python ints; ``depth`` and ``restarts`` at most ``MAX_DEPTH`` and
    ``MAX_RESTARTS`` (``TooLarge`` beyond). The checks hold in every mode,
    also where the mode ignores the field.
    """

    name: str = "fixed"
    depth: int = 1
    restarts: int = 8
    seed: int = 0
    rotate: str = "both"

    def __post_init__(self):
        if self.name not in MODE_NAMES:
            raise BadParams(f"unknown mode {self.name!r}")
        for key in ("depth", "restarts", "seed"):
            value = getattr(self, key)
            if not is_integer(value):
                raise BadParams(f"{key} must be an integer, not {value!r}")
            object.__setattr__(self, key, int(value))  # a numpy integer overflows a seed's arithmetic
        if self.depth < 1 or self.restarts < 1:
            raise BadParams("depth and restarts must be >= 1")
        if self.depth > MAX_DEPTH or self.restarts > MAX_RESTARTS:
            raise TooLarge(f"depth {self.depth} and restarts {self.restarts}: at most "
                           f"depth {MAX_DEPTH} and {MAX_RESTARTS} restarts")
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


class _Best(NamedTuple):
    """One direction's winning candidate, as every mode ends: its value, the
    members' entanglement after it, its repetition count (None if per member
    or absent), and for big-delta the side gaps and final ``(S_A, S_B)``."""

    value: float
    contributions: np.ndarray
    reps: int | None
    side_gaps: tuple[float, float] | None = None
    entropies: tuple[float, float] | None = None


def _report(quantity: str, e: Ensemble, mode: Mode, best: dict, s_in, ceiling: float):
    """The one ``QuantifierReport`` builder, from ``best`` (direction -> ``_Best``):
    values clipped into ``[0, ceiling]``, contributions into ``[0, log2 min(d_A,
    d_B)]``, work pairs from the local entropies ``s_in`` to each direction's end
    entropies (for delta, the value on both sides), entangled fractions for big-delta."""
    right, left = best["right"], best["left"]
    values = _clip_values([right.value, left.value, (right.value + left.value) / 2.0], ceiling)
    top = math.log2(min(e.dims))
    contrib = [tuple(_clip_values(b.contributions.tolist(), top)) for b in (right, left)]
    fractions = [None, None]
    if quantity == "big-delta":
        fractions = [sum(c > TOL.value for c in cs) / len(cs) for cs in contrib]
    work = {d: _work(s_in, best[d].entropies or (best[d].value,) * 2, e.dims) for d in DIRECTIONS}
    return QuantifierReport(quantity, *values, *contrib, mode, work, right.side_gaps,
                            left.side_gaps, right.reps, left.reps, *fractions)


def _clip_values(values, ceiling: float = math.inf) -> list[float]:
    """Floats ``values`` clipped into ``[0, ceiling]``; ``BadValue`` when one
    is not finite or lies outside by more than ``TOL.value`` (a loop over
    floats beats numpy at these sizes)."""
    out, low, high = [], -TOL.value, ceiling + TOL.value
    for v in values:
        if not (low <= v <= high and math.isfinite(v)):
            raise BadValue(f"quantifier value {v} is not finite or lies outside [0, {ceiling}]")
        out.append(min(max(0.0, v), ceiling))
    return out


# ---------------------------------------------------------------------------
# Riemannian gradient ascent on products of unitary groups


_MEMORY = 10             # values a nonmonotone step is measured against
_FIRST_ANGLE = 0.25      # rotation (radians) of an ascent's first trial step
_START_SCALE = 1e-3      # generator scale of the first start around the identity


def _ascend(f, starts: list) -> list:
    """Steepest ascents of a batch of problems over ``U(d_1) x ... x U(d_m)``, in lockstep.

    Problem i starts from the unitaries ``starts[i]``; all share ``d_1 .. d_m``.
    ``f(rows, point)`` values the problems ``rows`` at ``point``, a list of
    ``(len(rows), d_j, d_j)`` stacks, and returns their values and a callable
    that gives, for positions ``pos`` into ``rows`` (an index array, or
    ``slice(None)`` for all), the Euclidean gradients ``Gamma_j =
    df/dconj(U_j)`` of those problems, so that ``df = 2 Re sum_j
    tr(Gamma_j^dag dU_j)``. Each round values one trial step of every problem
    still running with one call of ``f``, and asks the gradient only of the
    problems whose trial was accepted: a problem's gradient is taken at its
    start and at each accepted step, the points it moves from, never at a
    rejected trial.

    Every problem walks its own sequential path, bit for bit as if it were
    ascended alone: the kernels act on each row as on a lone matrix, and its
    step length, norms, value memory and budget are its own Python scalars. A
    step is ``U_j <- exp(t W_j) U_j`` with ``W_j = Gamma_j U_j^dag - U_j
    Gamma_j^dag``, the Riemannian gradient translated to the identity (Abrudan,
    Eriksson & Koivunen, IEEE TSP 2008); along it f rises at the rate ``|W|^2``,
    the squared Frobenius norms summed. The length ``t`` alternates the two
    Barzilai-Borwein lengths ``<s, s> / |<s, y>|`` and ``|<s, y>| / <y, y>`` of
    the last step ``s = t W`` and gradient change ``y`` (Wen & Yin, Math.
    Program. 2013), halved until the step gains at least ``_ARMIJO * t *
    |W|^2`` over the lowest of the last ``_MEMORY`` values (nonmonotone Armijo;
    Grippo, Lampariello & Lucidi 1986). A problem stops once ``|W|`` is at most
    ``TOL.gradient``, or once a step predicted to gain ``_GAIN_FLOOR`` or less
    fails. Returns each problem's best visited ``(value, unitaries)``;
    ``BadValue`` once a problem has taken ``_ASCENT_ROUNDS`` steps.
    """
    n = len(starts)
    run = list(range(n))  # the problems still running; ``us`` and ``w`` hold their rows
    us = [np.array(stack) for stack in zip(*starts)]
    values, gammas = f(np.arange(n), us)
    w = _riemannian(gammas(slice(None)), us)
    norm2 = [_inner(w, w, p) for p in run]
    t = [_FIRST_ANGLE / math.sqrt(x) if x else 0.0 for x in norm2]
    best, kept = list(values), [list(start) for start in starts]
    recent, steps, floor = [[v] for v in values], [0] * n, [0.0] * n

    def settle(p) -> bool:  # the top of problem p's next step: whether it goes on
        if steps[p] == _ASCENT_ROUNDS:
            raise BadValue(f"lu ascent not converged within {_ASCENT_ROUNDS} steps")
        floor[p] = min(recent[p][-_MEMORY:])
        return norm2[p] > TOL.gradient**2

    going = [i for i, p in enumerate(run) if settle(p)]
    rows = np.arange(n)
    while going:
        if len(going) < len(run):
            at = np.array(going)
            run, rows, us, w = [run[i] for i in going], rows[at], [u[at] for u in us], [x[at] for x in w]
        angles = np.array([-1j * t[p] for p in run]).reshape(-1, 1, 1)
        point = [expm_hermitian_unchecked(angles * x) @ u for x, u in zip(w, us)]
        values, gammas = f(rows, point)
        moved, going = [], []
        for i, p in enumerate(run):
            if values[i] >= floor[p] + _ARMIJO * t[p] * norm2[p]:
                moved.append(i)
                continue
            t[p] *= 0.5
            if t[p] * norm2[p] > _GAIN_FLOOR:
                going.append(i)
        if moved:
            at = slice(None) if len(moved) == len(run) else np.array(moved)
            cand = [x[at] for x in point]
            cw = _riemannian(gammas(at), cand)
            y = [b - a[at] for a, b in zip(w, cw)]
            for i, row in enumerate(moved):
                p = run[row]
                sy, yy, ss = t[p] * _inner(w, y, row, i), _inner(y, y, i), t[p] * t[p] * norm2[p]
                norm2[p] = _inner(cw, cw, i)
                recent[p].append(values[row])
                if values[row] > best[p]:
                    best[p], kept[p] = values[row], [c[i] for c in cand]
                if sy:
                    t[p] = ss / abs(sy) if steps[p] % 2 == 0 else abs(sy) / yy
                steps[p] += 1
                if settle(p):
                    going.append(row)
            if len(moved) == len(run):
                w, us = cw, cand
            else:  # into fresh stacks: ``kept`` may hold rows of the current ones
                w, us = [a.copy() for a in w], [u.copy() for u in us]
                for a, b, u, c in zip(w, cw, us, cand):
                    a[at], u[at] = b, c
            going.sort()
    return list(zip(best, kept))


def _riemannian(gammas, point) -> list:
    """``Gamma U^dag - U Gamma^dag`` of each stack of gradients and unitaries."""
    return [g @ u.conj().swapaxes(-1, -2) - u @ g.conj().swapaxes(-1, -2) for g, u in zip(gammas, point)]


def _inner(xs, ys, i: int, j: int | None = None) -> float:
    """Real inner product ``Re sum_j tr(x_j^dag y_j)`` of row ``i`` of the stacks
    ``xs`` with row ``j`` (default ``i``) of the stacks ``ys``."""
    j, total = i if j is None else j, 0
    for x, y in zip(xs, ys):
        total += float(np.vdot(x[i], y[j]).real)
    return total


def _starts(dims: list[int], restarts: int, seed: int) -> list:
    """The start of each restart's ascent over ``U(d)`` for each d in ``dims``.

    Restart 0 starts within about ``_START_SCALE`` of the identity: a product
    input has a singular ``log rho``, and a zero gradient, at the identity
    itself. Later restarts start from Haar-random unitaries. All starts come
    from ``seed``, drawn once per circuit and shared by its objectives.
    """
    rng = np.random.default_rng(seed)
    first = [expm_hermitian_unchecked(_START_SCALE * _gaussian_hermitian(rng, d)) for d in dims]
    return [first] + [[haar_unitary(d, rng) for d in dims] for _ in range(restarts - 1)]


def _maximize(f, starts: list, groups: int = 1) -> list:
    """Best ``(value, unitaries)`` of each of ``groups`` equal runs of
    consecutive problems of ``f`` (as in ``_ascend``), problem i starting from
    ``starts[i]`` (``_starts``): the identity, valued for the run's first
    problem without its gradient, then the ascent of each problem of the run,
    in order; a later candidate must be strictly better to win. The
    identities take one call of ``f``, and all ascents of all runs are one
    lockstep batch.
    """
    size = len(starts) // groups
    identity = [np.eye(len(u), dtype=complex) for u in starts[0]]
    values = f(np.arange(0, len(starts), size), [np.array([u] * groups) for u in identity])[0]
    found = _ascend(f, starts)
    best = []
    for g, value in enumerate(values):
        top = (value, identity)
        for candidate in found[g * size : (g + 1) * size]:
            if candidate[0] > top[0]:
                top = candidate
        best.append(top)
    return best


def _gaussian_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2.0


# ---------------------------------------------------------------------------
# layered (local unitary, controlled shift) circuits


def _rotated_sides(direction: str, rotate: str) -> tuple[int, ...]:  # party indices, A first
    return tuple(sorted(p for p, turns in zip(ROLES[direction], _TURNS[rotate]) if turns))


class _LuCircuit:
    """Depth-layered circuits of the lu searches, one per problem of a batch:
    per layer local rotations, then CNOT^reps.

    Problem i's circuit shifts as ``shifts[i] = (direction, reps)``; all
    share ``dims``, ``depth`` and ``unitary_dims``, the dimension of each
    rotation: per layer, the A rotation and then the B rotation, of the sides
    ``rotate`` picks. A point of the batch is a list of stacks, one per
    rotation, whose row i is problem i's unitary. Rotations act on a member
    ``M`` (its ``(d_A, d_B)`` amplitude matrix) as ``U_A M U_B^T``; on square
    ``dims`` the target or control rotation of the two directions turns
    different sides at one dimension, and then each rotation kernel runs once
    per side present.
    """

    def __init__(self, dims, rotate: str, depth: int, shifts):
        self.dims, self.depth = dims, depth
        sides = [_rotated_sides(direction, rotate) for direction, _ in shifts]
        self.layer = len(sides[0])
        self.unitary_dims = [dims[p] for p in sides[0]] * depth  # the same for all
        self.on_a = np.array([[p == 0 for p in s] * depth for s in sides])
        self.perm = np.array([cnot_permutation(dims, PARTIES[ROLES[d][0]], r) for d, r in shifts])
        self.gather = np.argsort(self.perm, axis=1)  # out = t[..., gather], as out[..., perm] = t
        self._memo = {}

    def _rows(self, rows, k: int):
        """For problems ``rows`` with k members each, kept per row set: the flat
        gather and scatter indices of the permutations, and the side of each
        rotation, True or False when all turn A or all B, else a row mask."""
        key = (rows.tobytes(), k)
        if key not in self._memo:
            size = self.perm.shape[1]
            offsets = (np.arange(len(rows) * k) * size).reshape(len(rows), k, 1)
            sides = [_uniform(col) for col in self.on_a[rows].T]
            self._memo[key] = (self.gather[rows][:, None, :] + offsets,
                               self.perm[rows][:, :, None] + offsets.swapaxes(1, 2), sides)
        return self._memo[key]

    def transform(self, rows, stacks: np.ndarray, point) -> np.ndarray:
        """The circuits of problems ``rows`` applied to their (len(rows), k, d_A*d_B) stacks."""
        return self.forward(rows, stacks, point)[0]

    def forward(self, rows, stacks: np.ndarray, point):
        """The transformed stacks and the input of each rotation, which ``backward`` reads."""
        (n, k, _), (d_a, d_b) = stacks.shape, self.dims
        gather, _, on_a = self._rows(rows, k)
        inputs, t = [], stacks
        for _ in range(self.depth):
            m = t.reshape(n, k, d_a, d_b)
            for _ in range(self.layer):
                j = len(inputs)
                inputs.append(m)
                m = _by_side(on_a[j], lambda u, m: u[:, None] @ m,
                             lambda u, m: m @ u.swapaxes(-1, -2)[:, None], point[j], m)
            t = m.take(gather)
        return t, inputs

    def backward(self, rows, point, inputs, grad: np.ndarray) -> list:
        """``df/dconj(U_j)`` of every rotation of problems ``rows`` from ``grad =
        df/dconj(out)``, a (len(rows), k, d_A*d_B) stack.

        Layer by layer in reverse: the permutation's gradient is ``grad``
        read through it; a B rotation ``Y U_B^T`` gives ``sum_k G^T conj(Y)``
        and passes ``G conj(U_B)`` on; an A rotation ``U_A X`` gives
        ``sum_k G X^dag`` and passes ``U_A^dag G`` on, except the first
        rotation, whose pass-on nothing reads.
        """
        (n, k, size), (d_a, d_b) = grad.shape, self.dims
        _, perm, on_a = self._rows(rows, k)
        gammas, j = [None] * len(point), len(point)
        for _ in range(self.depth):
            # laid out members fastest, as a lone ``grad[:, perm]`` is: the
            # kernels below pick their loops, so their sums, by the layout
            g = grad.take(perm).swapaxes(1, 2).reshape(n, k, d_a, d_b)
            for _ in range(self.layer):
                j -= 1
                u, m = point[j], inputs[j].conj()
                gammas[j] = _by_side(on_a[j], lambda g, m: np.einsum("nkij,nklj->nil", g, m),
                                     lambda g, m: np.einsum("nkji,nkjl->nil", g, m), g, m)
                if j:
                    g = _by_side(on_a[j], lambda g, u: u.conj().swapaxes(-1, -2)[:, None] @ g,
                                 lambda g, u: g @ u.conj()[:, None], g, u)
            grad = g.reshape(n, k, size)
        return gammas

    def on(self, stacks: np.ndarray, objective, on_a=None):
        """The batch as a function of its unitaries, for ``_ascend``: problem i
        sends ``stacks[i]`` (or the one (k, d_A*d_B) ``stacks``) through its
        circuit and is valued on side A where ``on_a[i]`` holds (default
        everywhere), else on side B.

        ``objective(out, sides)`` maps an (n, k, d_A*d_B) stack of outputs and
        their sides (True or False when all rows share one, else a row mask)
        to their values and a callable giving ``df/dconj(out)`` at positions
        ``pos``. The backward pass runs only when the gradient is asked for,
        and only for the problems asked.
        """
        stacks = np.broadcast_to(stacks, (len(self.perm),) + stacks.shape[-2:])
        on_a = np.ones(len(self.perm), bool) if on_a is None else np.asarray(on_a)
        memo = {}  # per row set: its stacks and sides

        def f(rows, point):
            key = rows.tobytes()
            if key not in memo:
                memo[key] = stacks[rows], _uniform(on_a[rows])
            out, inputs = self.forward(rows, memo[key][0], point)
            values, grad = objective(out, memo[key][1])

            def gammas(pos):
                return self.backward(rows[pos], [u[pos] for u in point], [x[pos] for x in inputs], grad(pos))

            return values, gammas

        return f


def _uniform(on_a: np.ndarray):
    """``on_a`` as ``_by_side`` reads it: True or False when all rows agree."""
    return bool(on_a[0]) if on_a.all() or not on_a.any() else on_a


def _by_side(on_a, side_a, side_b, *stacks) -> np.ndarray:
    """``side_a`` of ``stacks`` if ``on_a`` is True, ``side_b`` if False; for a
    row mask ``on_a``, both over every row, each row kept from its side. A
    row's result does not depend on the other rows, and a kernel call costs
    more than its rows at these sizes."""
    if on_a is True or on_a is False:
        return side_a(*stacks) if on_a else side_b(*stacks)
    a, b = side_a(*stacks), side_b(*stacks)
    return np.where(on_a.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)


def _searched_transforms(stacks, dims, mode: Mode, objective, seeds: list, sides=PARTIES[:1],
                         closed=None) -> list:
    """For each search i, the (k, d_A*d_B) stack ``stacks[i]`` with ``seeds[i]``
    (direction -> search seed): ``(direction, r, transformed stack)`` for each
    candidate of ``cnot_family(dims)`` whose direction is in ``seeds[i]``, in
    that order.

    A stack goes through the mode's circuit at the unitaries ``_maximize``
    finds for the best side of ``objective`` (``_LuCircuit.on``) in ``sides``
    (the first of equals), each side ascended on its own from the circuit's
    one set of starts. Each (circuit, side, restart) ascent is one problem;
    the problems of every circuit that rotates the same ``unitary_dims`` form
    one lockstep batch. A one-search call at depth 1 takes instead the
    candidates ``closed()`` gives (a qubit form of ``nle.qubits``, or plain
    shifts at their ceiling) for the directions they cover, and searches
    only the others.
    """
    given = closed() if closed and mode.depth == 1 else []  # of whole directions
    if len(given) == len(cnot_family(dims)):
        return [given]
    if given:
        seeds = [{d: s for d, s in seeds[0].items() if d not in {c[0] for c in given}}]
    circuits = [(i, d, r) for i, chosen in enumerate(seeds) for d, r in cnot_family(dims) if d in chosen]
    batches, transformed = {}, {}
    for c, (_, d, _) in enumerate(circuits):
        unitary_dims = tuple(dims[p] for p in _rotated_sides(d, mode.rotate)) * mode.depth
        batches.setdefault(unitary_dims, []).append(c)
    for unitary_dims, members in batches.items():
        problems = [(side, c) for side in sides for c in members for _ in range(mode.restarts)]
        batch = _LuCircuit(dims, mode.rotate, mode.depth, [circuits[c][1:] for _, c in problems])
        problem_stacks = stacks[[circuits[c][0] for _, c in problems]]
        starts = {c: _starts(unitary_dims, mode.restarts, seeds[circuits[c][0]][circuits[c][1]])
                  for c in members}
        found = _maximize(batch.on(problem_stacks, objective, [side == PARTIES[0] for side, _ in problems]),
                          [s for _ in sides for c in members for s in starts[c]], len(sides) * len(members))
        winners = [max(found[c :: len(members)], key=lambda candidate: candidate[0])[1]  # first of equals
                   for c in range(len(members))]
        heads = np.arange(len(members)) * mode.restarts
        point = [np.array(us) for us in zip(*winners)]
        transformed.update(zip(members, batch.transform(heads, problem_stacks[heads], point)))
    out = [[] for _ in seeds]
    for c, (i, d, r) in enumerate(circuits):
        out[i].append((d, r, transformed[c]))
    return [sorted(given + out[0], key=lambda c: DIRECTIONS.index(c[0]))] if given else out


def _direction_seed(base: int, direction: str, member: int = -1) -> int:
    return (base * 1_000_003 + (0 if direction == "right" else 7919) + 31 * (member + 1)) % (2**63)


# ---------------------------------------------------------------------------
# nonlocal entropy (product ensembles)


def nonlocal_entropy(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Average entanglement generated across a product ensemble, per direction.

    The per-state contribution is the entanglement entropy of the transformed
    member; the directional value is the probability-weighted sum. Values and
    contributions are clipped into ``[0, log2 min(d_A, d_B)]``, the
    entanglement of any pure state. Raises ``NotProductEnsemble`` when any
    member has Schmidt rank above one. At depth 1 ensemble-lu takes the
    qubit forms ``nle.qubits`` states, on 2x2 and in a direction of 2xd or
    dx2 that rotates only the qubit, and fixed mode's candidates in a
    direction where they meet the per-state ceiling, with no ascent.
    """
    _check_arguments(e, mode)
    if mode.name == "assign":
        raise BadParams("assign mode applies to the average-state gap only")
    if mode.name == "fixed":
        e.cnot_entanglement  # its one SVD values the members as they are, e.spectra, too
    if not e.is_product():
        raise NotProductEnsemble("every member must be a product state")
    probs = np.array(e.probabilities)
    if mode.name == "per-state-lu":
        best = {d: _per_state_direction(e, probs, mode, d) for d in DIRECTIONS}
    elif mode.name == "fixed":
        best = _pick_delta(cnot_family(e.dims), e.cnot_entanglement, probs)
    else:
        seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
        best = _delta_search(e.amplitudes[None], probs, e.dims, mode, [seeds],
                             lambda: _closed_delta_transforms(e, probs, mode.rotate))[0]
    # pure members, so both parties start from the average member entanglement
    s_in = float(probs @ e.entanglement)
    return _report("delta", e, mode, best, (s_in, s_in), math.log2(min(e.dims)))


def _check_arguments(e, mode) -> None:
    if not isinstance(e, Ensemble):
        raise BadParams(f"expected an Ensemble, not {type(e).__name__}")
    if not isinstance(mode, Mode):
        raise BadParams(f"mode must be a Mode, not {mode!r}")


def _per_state_direction(e: Ensemble, probs, mode, direction) -> _Best:
    """Per-state-lu: parameters chosen member by member (upper-bound flavor),
    so no one repetition count is reported."""
    if mode.depth == 1 or mode.rotate != "control":
        contrib = _per_state_closed(e, direction, mode.rotate)
    else:  # ensemble-lu on each one-member ensemble, all in one search batch
        seeds = [{direction: _direction_seed(mode.seed, direction, i)} for i in range(len(e))]
        found = _delta_search(e.amplitudes[:, None], np.ones(1), e.dims, mode, seeds)
        contrib = np.array([best[direction].value for best in found])
    return _Best(float(probs @ contrib), contrib, None)


def _closed_delta_transforms(e: Ensemble, probs, rotate: str) -> list:
    """The depth-1 ensemble-lu delta candidates that need no ascent: the qubit
    forms (``_qubit_delta_transforms``), then, in each direction they leave
    open, the plain ``CNOT^r`` of every r if the best of them is within
    ``TOL.capacity_gap`` of the direction's ceiling.

    The ceiling is ``sum_k p_k v_k`` of the members' per-state values: ``v_k``
    from ``_per_state_closed`` for "target", and ``log2 min(d_A, d_B)`` for
    "control" and "both" (the control value is an iterated capacity, and the
    target fold bounds no control rotation). A candidate applies one circuit
    to every member, and no circuit gives member k more than ``v_k``, so no
    candidate exceeds the ceiling. The plain shift is a candidate too, the
    search's identity, so a certified direction is within ``TOL.capacity_gap``
    of the maximum, and reports as fixed mode does, bit for bit.
    """
    given = _qubit_delta_transforms(e, probs, rotate)
    family, gather, top = cnot_family(e.dims), cnot_family_gather(e.dims), math.log2(min(e.dims))
    for direction in [d for d in DIRECTIONS if d not in {c[0] for c in given}]:
        rows = [c for c, (d, _) in enumerate(family) if d == direction]
        ceiling = float(probs @ _per_state_closed(e, direction, "target")) if rotate == "target" else top
        if max(float(probs @ e.cnot_entanglement[c]) for c in rows) >= ceiling - TOL.capacity_gap:
            given += [(direction, family[c][1], e.amplitudes.take(gather[1 + c], -1)) for c in rows]
    return given


def _delta_search(stacks, probs, dims, mode, seeds: list, closed=None) -> list:
    """For each search i of ``_searched_transforms`` (``closed`` as there): direction ->
    ``_Best`` of each direction in ``seeds[i]``, as ``_pick_delta`` selects, one kernel call for all."""
    objective = functools.partial(_delta_objective, probs=probs, dims=dims)
    searches = _searched_transforms(stacks, dims, mode, objective, seeds, PARTIES[:1], closed)
    ents = iter(entanglement_entropies(np.stack([t for found in searches for _, _, t in found]), dims))
    return [_pick_delta([(d, r) for d, r, _ in found], ents, probs) for found in searches]


def _pick_delta(labels, ents: np.ndarray, probs) -> dict:
    """Direction -> ``_Best`` among the candidates ``labels`` (``(direction, r)``
    pairs), whose members' entanglement are the rows of ``ents``; a later r
    must beat the best value by more than 1e-15."""
    best = {}
    for (d, r), contrib in zip(labels, ents):
        value = float(probs @ contrib)
        if d not in best or value > best[d].value + 1e-15:
            best[d] = _Best(value, contrib, r)
    return best


# ---------------------------------------------------------------------------
# per-state optimum in closed form


_CAPACITY_ROUNDS = 10_000  # Blahut-Arimoto rounds before a capacity is given up


def _per_state_closed(e: Ensemble, direction: str, rotate: str) -> np.ndarray:
    """Each member's best entanglement over rotation layers and ``CNOT^r``.

    A member (product within ``TOL.product_rank``) is valued through its
    leading Schmidt pair ``e.schmidt_pairs``: control ``a``, target ``b``.
    ``CNOT^r`` sends ``|i>|b>`` to ``|i> X^{ri}|b>``, so the controls of one
    class ``c = r*i mod d_t`` see the same shift. Maximized over the
    direction's r in ``cnot_family``:

    * target, any depth: ``H(fold_r |a|^2)``, the class masses. The control
      is never rotated, so every output is ``sum_c sqrt(w_c) |phi_c> W_c|b>``
      with orthonormal ``|phi_c>`` and its entropy is at most ``H(w)``. One
      layer attains it by ``V|b> = |0>``; deeper, ``V_1|b> = |0>`` and then
      ``V_2`` the discrete Fourier transform, since ``X^c|f_c>`` is a phase
      times the Fourier vector ``|f_c>``.
    * both, any depth: ``log2 min(d_A, d_B)``, the ceiling of any pure state,
      attained at r=1 by a control uniform on ``min(d_c, d_t)`` basis vectors
      and ``|0>``. Each further layer first rotates the state into
      ``sum_k |k>|f_k> / sqrt(m)``, on which ``CNOT^r`` only adds phases.
    * control, depth 1: the capacity ``max_q S(sum_c q_c X^c|b><b|X^-c)``
      over the classes, since control rotations reach every class
      distribution ``q`` and the target marginal is that mixture
      (``_shift_capacities``). Deeper, a second layer can do better (case-3x2
      left: 0.9864 at depth 2 against 0.9371), so those values are searched.
    """
    if rotate == "both":
        return np.full(len(e), math.log2(min(e.dims)))
    control, target = (e.schmidt_pairs[p] for p in ROLES[direction])
    reps = [r for d, r in cnot_family(e.dims) if d == direction]
    classes = _shift_classes(control.shape[1], target.shape[1], reps)
    if rotate == "target":
        return entropy_bits(np.einsum("ki,ric->krc", np.abs(control) ** 2, classes)).max(axis=1)
    return _shift_capacities(target, classes.any(axis=1))[0].max(axis=1)


def _shift_classes(d_c: int, d_t: int, reps) -> np.ndarray:
    """``(R, d_c, d_t)`` indicator: control index i lies in class ``r*i mod d_t``."""
    residues = np.array(reps)[:, None] * np.arange(d_c) % d_t
    return (residues[:, :, None] == np.arange(d_t)).astype(float)


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
    at most ``TOL.capacity_gap``; its ``q`` is then frozen, so each later round
    gives it the same spectrum. Every round runs every channel, the letters
    broadcast over the R classes, and the loop returns once all are certified.
    ``BadValue`` if one is still open after ``_CAPACITY_ROUNDS`` rounds.
    """
    k, d_t = target.shape
    j = np.arange(d_t)
    b = target[:, (j - j[:, None]) % d_t][:, None]  # (k, 1, d_t, d_t), row c: X^c|b>
    q = np.empty((k,) + present.shape)
    q[:] = present / present.sum(axis=1, keepdims=True)
    for _ in range(_CAPACITY_ROUNDS):
        lam, vecs = np.linalg.eigh(np.einsum("...c,...ci,...cj->...ij", q, b, np.conjugate(b)))
        logs = np.log2(np.where(lam > 0.0, lam, 1.0))
        div = -(np.abs(b @ np.conjugate(vecs)) ** 2 * logs[..., None, :]).sum(-1)  # D(b_c||rho)
        div = np.where(present, div, -np.inf)
        top = div.max(axis=-1)
        done = top + (lam * logs).sum(-1) <= TOL.capacity_gap
        if done.all():
            return entropy_bits(lam), q
        w = q * np.exp2(div - top[..., None])
        q = np.where(done[..., None], q, w / w.sum(axis=-1, keepdims=True))
    raise BadValue(f"shift capacity not certified within {_CAPACITY_ROUNDS} rounds")


def _delta_objective(t: np.ndarray, sides, probs, dims):
    """Values of a delta search at the (n, k, d_A*d_B) transformed stacks
    ``t``, and a callable that gives the gradient at the stacks ``pos``;
    ``sides`` has no effect, since a pure member has one entanglement.

    The value is the ``probs``-weighted entanglement of the members
    (``probs=np.ones(1)`` for a single member). With ``M_k`` a member's
    amplitude matrix, ``rho_k = M_k M_k^dag`` and ``L_k = log2 rho_k``
    (``_entropies_and_logs``), ``dS_k = -tr(drho_k L_k)`` (the rotations
    keep ``tr rho_k = 1``), so the gradient ``df/dconj(M_k)`` is
    ``-p_k L_k M_k``.
    """
    m = t.reshape(t.shape[:-1] + tuple(dims))
    ents, logs = _entropies_and_logs(m @ m.conj().swapaxes(-1, -2))
    # one dot per stack: a stacked product sums in another order
    return [float(probs @ e) for e in ents], lambda pos: (
        -probs[:, None, None] * (logs(pos) @ m[pos])).reshape((-1,) + t.shape[1:])


def _gap_objective(t: np.ndarray, on_a, probs, dims, s_bar):
    """Values of a gap search at the (n, k, d_A*d_B) transformed stacks ``t``,
    the drops of each mixture's A entropy from ``s_bar`` where ``on_a`` holds
    (True, False, or a row mask) and of its B entropy elsewhere, and a
    callable that gives the gradient at the stacks ``pos``.

    ``rho_A = sum_k p_k M_k M_k^dag`` gives the gradient ``p_k L_A M_k``;
    ``rho_B``, taken as ``sum_k p_k M_k^dag M_k`` (the conjugate of the B
    marginal, same spectrum), gives ``p_k M_k L_B``. The sign is that of a
    drop, ``d(-S) = tr(drho L)``. Both sides take one eigensolve together
    when their marginals have one shape, ``d_A == d_B``.
    """
    m = t.reshape(t.shape[:-1] + tuple(dims))
    weighted, conj = probs[:, None, None] * m, m.conj()
    rho_a = lambda: np.einsum("nkij,nklj->nil", weighted, conj)  # noqa: E731
    rho_b = lambda: np.einsum("nkji,nkjl->nil", conj, weighted)  # noqa: E731
    if isinstance(on_a, bool):  # every row on one side
        s, log = _entropies_and_logs(rho_a() if on_a else rho_b())
        top = s_bar[0] if on_a else s_bar[1]

        def grad(pos):
            logs, w = log(pos)[:, None], weighted[pos]
            return (logs @ w if on_a else w @ logs).reshape((-1,) + t.shape[1:])

        return [top - v for v in s.tolist()], grad
    if dims[0] == dims[1]:
        s, log = _entropies_and_logs(_by_side(on_a, rho_a, rho_b))
        s, logs = (s, s), lambda pos: (log(pos),) * 2
    else:
        (s_a, log_a), (s_b, log_b) = _entropies_and_logs(rho_a()), _entropies_and_logs(rho_b())
        s, logs = (s_a, s_b), lambda pos: (log_a(pos), log_b(pos))

    def grad(pos):
        (l_a, l_b), w = logs(pos), weighted[pos]
        return _by_side(on_a[pos], lambda: l_a[:, None] @ w, lambda: w @ l_b[:, None]).reshape(
            (-1,) + t.shape[1:])

    return [s_bar[0] - a if flag else s_bar[1] - b
            for flag, a, b in zip(on_a.tolist(), s[0].tolist(), s[1].tolist())], grad


def _entropies_and_logs(rho: np.ndarray):
    """Entropies (``entropy_bits``) of an (n, ...) stack of density matrices,
    and a callable that gives the ``log2`` of those at ``pos`` from the same
    eigensolve; eigenvalues below ``TOL.eig_floor`` take the floor's log.
    Nothing writes to the arrays the callables close over, so a later call
    sees what the value saw."""
    lam, vecs = np.linalg.eigh(rho)

    def logs(pos):
        at = vecs[pos]
        floored = np.log2(np.maximum(lam[pos], TOL.eig_floor))
        return (at * floored[..., None, :]) @ at.conj().swapaxes(-1, -2)

    return entropy_bits(lam), logs


# ---------------------------------------------------------------------------
# average-state local-entropy gap


def average_entropy_gap(e: Ensemble, mode: Mode = Mode()) -> QuantifierReport:
    """Reduction of the average-state local entropy achievable per direction.

    In fixed and ensemble-lu modes the transform family is the same
    controlled-shift circuit used by ``nonlocal_entropy`` plus the identity,
    the first candidate of every direction, so the gap is never negative;
    the report records how many members remain entangled. On two qubits at
    depth 1 ensemble-lu takes the closed form ``nle.qubits`` states. Assign
    mode relabels an orthogonal ensemble onto orthonormal product outputs:
    members are grouped, each group shares one target-side basis vector, and
    the residual target entropy is the entropy of the group-mass
    distribution, minimized over all admissible partitions; the minimum is
    attained by sorted chunking (``assign_partition``), so no search runs,
    and one result serves both directions. Values are clipped into ``[0,
    max(S_A, S_B)]`` of the mixture.
    """
    _check_arguments(e, mode)
    if mode.name == "per-state-lu":
        raise BadParams("the average-state gap needs a single global transform per direction")
    if mode.name == "fixed":
        e.cnot_mixture_entropies  # its one call values the mixture as it is, s_bar, too
    s_bar = e.mixture_entropies
    if mode.name == "assign":
        if not e.is_orthogonal():
            raise GramNotIdentity("assign mode needs an orthogonal ensemble")
        h = tuple(assign_partition(e, side)[1] for side in PARTIES)
        gaps = (s_bar[0] - h[0], s_bar[1] - h[1])
        best = dict.fromkeys(DIRECTIONS, _Best(max(gaps), np.zeros(len(e)), None, gaps, h))
    else:
        best = _gap_search(e, mode)
    return _report("big-delta", e, mode, best, s_bar, max(s_bar))


def _work(s_in, s_fin, dims):
    """(W_in, W_fin) per party: deficit of the (A, B) local entropies from
    log2(d), clipped into ``[0, log2 d]`` (an entropy can round past either end)."""
    out = {}
    for party, d, a, b in zip(PARTIES, dims, s_in, s_fin):
        top = math.log2(d)
        out[party] = (min(max(0.0, top - float(a)), top), min(max(0.0, top - float(b)), top))
    return out


def _gap_search(e, mode) -> dict:
    """Direction -> ``_Best`` of each direction, starting from the identity
    (r=0, the ensemble as it is). Fixed mode reads the candidates' values
    from the ensemble's memo; ensemble-lu values the mixtures of every
    candidate it finds with one kernel call and their members' entanglement
    with one."""
    probs, dims, s_bar = np.array(e.probabilities), e.dims, e.mixture_entropies

    def better(candidate, incumbent):
        # equal scores resolve toward the transform that disentangles more
        if candidate.value > incumbent.value + 1e-12:
            return True
        if candidate.value < incumbent.value - 1e-12:
            return False
        return np.count_nonzero(candidate.contributions > TOL.value) < np.count_nonzero(
            incumbent.contributions > TOL.value
        )

    if mode.name == "fixed":
        labels, ents = cnot_family(dims), e.cnot_entanglement
        s_fins = map(tuple, e.cnot_mixture_entropies.tolist())
    else:
        objective = functools.partial(_gap_objective, probs=probs, dims=dims, s_bar=s_bar)
        seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
        candidates = _searched_transforms(e.amplitudes[None], dims, mode, objective, [seeds], PARTIES,
                                          lambda: _qubit_transforms(e, probs, s_bar, mode.rotate))[0]
        transformed = np.stack([t for _, _, t in candidates])
        s_a, s_b = mixture_marginal_entropies(transformed, probs, dims)
        labels, ents = [(d, r) for d, r, _ in candidates], entanglement_entropies(transformed, dims)
        s_fins = zip(s_a.tolist(), s_b.tolist())
    best = dict.fromkeys(DIRECTIONS, _Best(0.0, e.entanglement, 0, (0.0, 0.0), s_bar))
    for (d, r), contrib, s_fin in zip(labels, ents, s_fins):
        gaps = (s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])
        candidate = _Best(max(gaps), contrib, r, gaps, s_fin)
        if better(candidate, best[d]):
            best[d] = candidate
    return best


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
    max_size, max_parts = e.dims if party_index(reduction_side) else e.dims[::-1]
    k = len(e)
    if k > max_size * max_parts:
        raise BadParams("ensemble too large for a product relabeling")
    probs = np.array(e.probabilities)
    order = sorted(range(k), key=probs.__getitem__, reverse=True)  # stable: ties keep index order
    parts = sorted(tuple(sorted(order[i : i + max_size])) for i in range(0, k, max_size))
    masses = np.array([probs[list(part)].sum() for part in parts])
    # floored: probabilities may sum to a little over 1 (``TOL.prob_sum``),
    # and a full group's mass above 1 has a negative entropy
    h = max(0.0, float(-(masses * (np.log(masses) / LOG2)).sum()))
    return tuple(parts), h


def assign_unitary(e: Ensemble, partition, reduction_side: str) -> np.ndarray:
    """Global unitary realizing the relabeling (exists by Gram preservation)."""
    if not e.is_orthogonal():
        raise GramNotIdentity("assign mode needs an orthogonal ensemble")
    d_a, d_b = e.dims
    n = d_a * d_b
    used = [
        r * d_b + t if party_index(reduction_side) else t * d_b + r
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
