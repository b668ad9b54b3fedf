"""The two ensemble nonlocality quantifiers under explicit optimization modes.

``nonlocal_entropy`` measures, per direction, the probability-weighted
entanglement created across a product ensemble by a controlled-shift based
transformation; ``average_entropy_gap`` measures how far a transformation can
lower the local entropy of the ensemble-average state. The optimization
freedom behind either quantity is expressed through an explicit ``Mode`` so
every reported number names the search that produced it:

* ``fixed``: the controlled shift alone, best repetition count: the
  parameter-free member of the ensemble-lu family, one layer with no
  rotated side (``depth``, ``restarts`` and ``seed`` have no effect). Its
  candidates are valued once per ensemble, in ``Ensemble.cnot_entanglement``
  and ``Ensemble.cnot_mixture_entropies``, which ``nle.infobounds`` reads too.
* ``ensemble-lu``: layers of (local unitaries, controlled shift) with one
  shared set of unitaries, found by Riemannian gradient ascent on the
  unitary groups (``_ascend``) from the identity and seeded restarts.
* ``per-state-lu``: the same circuit family optimized per member; in closed
  form (``_per_state_closed``; ``restarts`` and ``seed`` have no effect, and
  a member, product within ``TOL.product_rank``, is valued through its
  leading Schmidt pair) at every depth when the target or both sides are
  rotated, and at depth 1 when the control is; deeper control-rotated
  values run ensemble-lu on each one-member ensemble.
* ``assign`` (gap only, orthogonal ensembles): the best relabeling onto an
  orthonormal product frame, in closed form: members sorted by probability
  and cut into consecutive groups (exact by majorization).

Ensemble-lu and deeper control-rotated per-state-lu share one search loop
over the repetition count r (``_searched_transforms``), and one kernel call
per quantity values the candidates of both directions. Fixed mode runs no
search: it picks from the ensemble's memo, through the same selection code
(``_pick_delta``, ``_gap_search``); every gap selection starts from the
identity (r=0). Every mode ends in one ``_Best`` per direction
and one report builder, ``_report``. It clips contributions into ``[0, log2
min(d_A, d_B)]`` and values into ``[0, ceiling]``, proven ceilings: ``log2
min(d_A, d_B)`` for delta and ``max(S_A, S_B)`` of the mixture for big-delta,
whose side gaps are ``S_side - S_fin`` with ``S_fin >= 0``. A number outside
by more than ``TOL.value`` or not finite, and an ascent out of steps, raise
``BadValue`` instead.

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

from .config import TOL
from .errors import BadParams, BadValue, GramNotIdentity, NotProductEnsemble
from .linalg import (DIRECTIONS, cnot_family, cnot_permutation, expm_hermitian_unchecked,
                     haar_unitary)
from .states import (LOG2, Ensemble, entanglement_entropies, entropy_bits, is_integer,
                     mixture_marginal_entropies)

MODE_NAMES = ("fixed", "ensemble-lu", "per-state-lu", "assign")
ROTATE_CHOICES = ("both", "target", "control")


@dataclass(frozen=True)
class Mode:
    """Named optimization mode plus its search hyperparameters.

    ``rotate`` restricts which side carries the local pre-rotations in the
    lu modes: "both" (default), "target" (the shifted side), or "control".
    ``restarts`` and ``seed`` drive the gradient ascents (restart 0 starts
    next to the identity, later ones at seeded random unitaries); per-state-lu
    runs none except at depth > 1 with ``rotate="control"``, so elsewhere they
    do not affect it. Fixed mode has no rotations and one layer, so it
    ignores ``depth``, ``restarts``, ``seed`` and ``rotate``. ``depth``,
    ``restarts`` and ``seed`` must be integers (booleans are not).
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


# ---------------------------------------------------------------------------
# shared numerics


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


_ASCENT_ROUNDS = 10_000  # gradient steps of one ascent before it is given up
_ARMIJO = 1e-4           # fraction of the first-order gain a step must realize
_MEMORY = 10             # values a nonmonotone step is measured against
_FIRST_ANGLE = 0.25      # rotation (radians) of an ascent's first trial step
_GAIN_FLOOR = 1e-15      # a step predicted to gain less is lost in float noise
_START_SCALE = 1e-3      # generator scale of the first start around the identity


def _ascend(f, us: list) -> tuple[float, list]:
    """Steepest ascent of ``f`` over ``U(d_1) x ... x U(d_m)`` from the unitaries ``us``.

    ``f(us)`` returns the value and a zero-argument callable that gives the
    Euclidean gradients ``Gamma_j = df/dconj(U_j)``, so that ``df = 2 Re sum_j
    tr(Gamma_j^dag dU_j)``; the ascent calls it only at the start and at each
    accepted step, the points it moves from, never at a rejected trial. A step is
    ``U_j <- exp(t W_j) U_j`` with ``W_j = Gamma_j U_j^dag - U_j Gamma_j^dag``,
    the Riemannian gradient translated to the identity (Abrudan, Eriksson &
    Koivunen, IEEE TSP 2008); along it f rises at the rate ``|W|^2``, the
    squared Frobenius norms summed. The length ``t`` alternates the two
    Barzilai-Borwein lengths ``<s, s> / |<s, y>|`` and ``|<s, y>| / <y, y>`` of
    the last step ``s = t W`` and gradient change ``y`` (Wen & Yin, Math.
    Program. 2013), halved until the step gains at least ``_ARMIJO * t *
    |W|^2`` over the lowest of the last ``_MEMORY`` values (nonmonotone Armijo;
    Grippo, Lampariello & Lucidi 1986). The ascent stops once ``|W|`` is at
    most ``TOL.gradient``, or once a step predicted to gain ``_GAIN_FLOOR``
    or less fails, and returns the best point it visited; ``BadValue`` after
    ``_ASCENT_ROUNDS`` steps.
    """

    def riemannian(point, gammas):  # the Riemannian gradient at ``point``
        return [g @ u.conj().T - u @ g.conj().T for g, u in zip(gammas(), point)]

    v, gammas = f(us)
    w = riemannian(us, gammas)
    norm2 = _inner(w, w)
    t = _FIRST_ANGLE / math.sqrt(norm2) if norm2 else 0.0
    best, recent = (v, us), [v]
    for step in range(_ASCENT_ROUNDS):
        if norm2 <= TOL.gradient**2:
            return best
        floor = min(recent[-_MEMORY:])
        while True:
            cand = [expm_hermitian_unchecked(-1j * t * x) @ u for x, u in zip(w, us)]
            v, gammas = f(cand)
            if v >= floor + _ARMIJO * t * norm2:
                break
            t *= 0.5
            if t * norm2 <= _GAIN_FLOOR:
                return best
        cw = riemannian(cand, gammas)
        y = [b - a for a, b in zip(w, cw)]
        sy, yy, ss = t * _inner(w, y), _inner(y, y), t * t * norm2
        us, w, norm2 = cand, cw, _inner(cw, cw)
        recent.append(v)
        if v > best[0]:
            best = (v, us)
        if sy:
            t = ss / abs(sy) if step % 2 == 0 else abs(sy) / yy
    raise BadValue(f"lu ascent not converged within {_ASCENT_ROUNDS} steps")


def _inner(xs, ys) -> float:
    """Real inner product ``Re sum_j tr(x_j^dag y_j)`` of two lists of matrices."""
    return sum(float(np.vdot(x, y).real) for x, y in zip(xs, ys))


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


def _maximize(f, starts: list) -> tuple[float, list]:
    """Best ``(value, unitaries)`` of ``f`` (as in ``_ascend``): the identity,
    valued without its gradient, then one ascent from each of ``starts``
    (``_starts``); a later candidate must be strictly better to win."""
    identity = [np.eye(len(u), dtype=complex) for u in starts[0]]
    best = (f(identity)[0], identity)
    for start in starts:
        candidate = _ascend(f, start)
        if candidate[0] > best[0]:
            best = candidate
    return best


def _gaussian_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2.0


# ---------------------------------------------------------------------------
# layered (local unitary, controlled shift) circuits


class _LuCircuit:
    """Depth-layered circuit of the lu searches: per layer local rotations, then CNOT^reps.

    A point of the circuit is a list of unitaries: per layer, the A rotation
    and then the B rotation, of the sides in ``sides``; ``unitary_dims``
    holds their dimensions. Rotations act on a member ``M`` (its
    ``(d_A, d_B)`` amplitude matrix) as ``U_A M U_B^T``. The fixed circuit,
    with no rotated side, is not one of these: fixed mode reads its
    candidates from the ensemble's memo.
    """

    def __init__(self, dims, direction: str, rotate: str, depth: int, reps: int):
        self.dims = dims
        self.depth = depth
        control = "A" if direction == "right" else "B"
        self.perm = cnot_permutation(dims, control, reps)
        target = "B" if direction == "right" else "A"
        self.sides = {"both": ("A", "B"), "target": (target,), "control": (control,)}[rotate]
        self.unitary_dims = [dims["AB".index(p)] for p in self.sides] * depth

    def transform(self, stack: np.ndarray, unitaries) -> np.ndarray:
        """The circuit applied to a (k, d_A*d_B) stack."""
        return self.forward(stack, unitaries)[0]

    def forward(self, stack: np.ndarray, unitaries):
        """The transformed stack and the input of each rotation, which
        ``backward`` reads."""
        k, (d_a, d_b) = stack.shape[0], self.dims
        inputs, us, t = [], iter(unitaries), stack
        for _ in range(self.depth):
            m = t.reshape(k, d_a, d_b)
            for side in self.sides:
                inputs.append(m)
                m = next(us) @ m if side == "A" else m @ next(us).T
            t = m.reshape(k, d_a * d_b)
            out = np.empty_like(t)
            out[:, self.perm] = t
            t = out
        return t, inputs

    def backward(self, unitaries, inputs, grad: np.ndarray) -> list:
        """``df/dconj(U_j)`` of every rotation from ``grad = df/dconj(out)``.

        Layer by layer in reverse: the permutation's gradient is ``grad``
        read through it; a B rotation ``Y U_B^T`` gives ``sum_k G^T conj(Y)``
        and passes ``G conj(U_B)`` on; an A rotation ``U_A X`` gives
        ``sum_k G X^dag`` and passes ``U_A^dag G`` on, except the first
        rotation, whose pass-on nothing reads.
        """
        k, (d_a, d_b) = grad.shape[0], self.dims
        gammas, j = [None] * len(unitaries), len(unitaries)
        for _ in range(self.depth):
            g = grad[:, self.perm].reshape(k, d_a, d_b)
            for side in reversed(self.sides):
                j -= 1
                u, m = unitaries[j], inputs[j].conj()
                if side == "B":
                    gammas[j] = np.einsum("kji,kjl->il", g, m)
                    g = g @ u.conj() if j else g
                else:
                    gammas[j] = np.einsum("kij,klj->il", g, m)
                    g = u.conj().T @ g if j else g
            grad = g.reshape(k, d_a * d_b)
        return gammas

    def on(self, stack: np.ndarray, objective):
        """``objective`` (the transformed stack to the value and a callable
        giving ``df/dconj`` of it) as a function of this circuit's unitaries,
        for ``_ascend``: the value now, and a callable that runs the backward
        pass only when the gradient is asked for."""

        def f(unitaries):
            out, inputs = self.forward(stack, unitaries)
            value, grad = objective(out)
            return value, lambda: self.backward(unitaries, inputs, grad())

        return f


def _searched_transforms(stack, dims, mode: Mode, objectives, seeds: dict) -> list:
    """``(direction, r, transformed stack)`` for each candidate of
    ``cnot_family(dims)`` whose direction is in ``seeds`` (direction -> search
    seed), in that order.

    The stack goes through the mode's circuit at the unitaries ``_maximize``
    finds for the best of ``objectives``, each ascended on its own from the
    circuit's one set of starts.
    """
    out = []
    for direction, r in cnot_family(dims):
        if direction in seeds:
            circuit = _LuCircuit(dims, direction, mode.rotate, mode.depth, r)
            starts = _starts(circuit.unitary_dims, mode.restarts, seeds[direction])
            found = (_maximize(circuit.on(stack, o), starts) for o in objectives)
            unitaries = max(found, key=lambda candidate: candidate[0])[1]  # first of equals
            out.append((direction, r, circuit.transform(stack, unitaries)))
    return out


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
    member has Schmidt rank above one.
    """
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
        best = _delta_search(e.amplitudes, probs, e.dims, mode, seeds)
    # pure members, so both parties start from the average member entanglement
    s_in = float(probs @ e.entanglement)
    return _report("delta", e, mode, best, (s_in, s_in), math.log2(min(e.dims)))


def _per_state_direction(e: Ensemble, probs, mode, direction) -> _Best:
    """Per-state-lu: parameters chosen member by member (upper-bound flavor),
    so no one repetition count is reported."""
    if mode.depth == 1 or mode.rotate != "control":
        contrib = _per_state_closed(e, direction, mode.rotate)
    else:  # ensemble-lu on each one-member ensemble
        member_seeds = (_direction_seed(mode.seed, direction, i) for i in range(len(e)))
        contrib = np.array([
            _delta_search(row[None], np.ones(1), e.dims, mode, {direction: s})[direction].value
            for row, s in zip(e.amplitudes, member_seeds)
        ])
    return _Best(float(probs @ contrib), contrib, None)


def _delta_search(stack, probs, dims, mode, seeds: dict) -> dict:
    """Direction -> ``_Best`` of the best repetition count for each direction
    in ``seeds`` (direction -> search seed), as ``_pick_delta`` selects. One
    kernel call values every candidate."""
    objectives = (functools.partial(_delta_objective, probs=probs, dims=dims),)
    candidates = _searched_transforms(stack, dims, mode, objectives, seeds)
    ents = entanglement_entropies(np.stack([t for _, _, t in candidates]), dims)
    return _pick_delta([(d, r) for d, r, _ in candidates], ents, probs)


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
    part_a, part_b = e.schmidt_pairs
    control, target = (part_a, part_b) if direction == "right" else (part_b, part_a)
    reps = [r for d, r in cnot_family(e.dims) if d == direction]
    classes = _shift_classes(control.shape[1], target.shape[1], reps)
    if rotate == "target":
        return entropy_bits(np.einsum("ki,ric->krc", np.abs(control) ** 2, classes)).max(axis=1)
    return _shift_capacities(target, classes.any(axis=1))[0].max(axis=1)


def _shift_classes(d_c: int, d_t: int, reps) -> np.ndarray:
    """``(R, d_c, d_t)`` indicator: control index i lies in class ``r*i mod d_t``."""
    classes = np.zeros((len(reps), d_c, d_t))
    for n, r in enumerate(reps):
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


def _delta_objective(t: np.ndarray, probs, dims):
    """Value of a delta search at the transformed stack ``t``, and a callable
    that gives the gradient there.

    The value is the ``probs``-weighted entanglement of the members
    (``probs=np.ones(1)`` for a single member). With ``M_k`` a member's
    amplitude matrix, ``rho_k = M_k M_k^dag`` and ``L_k = log2 rho_k``
    (``_entropies_and_logs``), ``dS_k = -tr(drho_k L_k)`` (the rotations
    keep ``tr rho_k = 1``), so the gradient ``df/dconj(M_k)`` is
    ``-p_k L_k M_k``.
    """
    m = t.reshape(len(t), *dims)
    ents, logs = _entropies_and_logs(m @ m.conj().swapaxes(1, 2))
    return float(probs @ ents), lambda: (-probs[:, None, None] * (logs() @ m)).reshape(t.shape)


def _gap_objective(t: np.ndarray, probs, dims, s_bar, side: str):
    """Value of a gap search at the transformed stack ``t``, the drop of the
    ``side`` entropy of the mixture from ``s_bar``, and a callable that gives
    the gradient there.

    ``rho_A = sum_k p_k M_k M_k^dag`` gives the gradient ``p_k L_A M_k``;
    ``rho_B``, taken as ``sum_k p_k M_k^dag M_k`` (the conjugate of the B
    marginal, same spectrum), gives ``p_k M_k L_B``. The sign is that of a
    drop, ``d(-S) = tr(drho L)``.
    """
    m = t.reshape(len(t), *dims)
    weighted = probs[:, None, None] * m
    if side == "A":
        s, log = _entropies_and_logs(np.einsum("kij,klj->il", weighted, m.conj()))
    else:
        s, log = _entropies_and_logs(np.einsum("kji,kjl->il", m.conj(), weighted))

    def grad():
        return (log() @ weighted if side == "A" else weighted @ log()).reshape(t.shape)

    return s_bar["AB".index(side)] - float(s), grad


def _entropies_and_logs(rho: np.ndarray):
    """Entropies (``entropy_bits``) of a stack of density matrices, and a
    callable that gives their ``log2`` from the same eigensolve; eigenvalues
    below ``TOL.eig_floor`` take the floor's log. Nothing writes to the
    arrays the callables close over, so a later call sees what the value saw."""
    lam, vecs = np.linalg.eigh(rho)

    def logs():
        floored = np.log2(np.maximum(lam, TOL.eig_floor))
        return (vecs * floored[..., None, :]) @ vecs.conj().swapaxes(-1, -2)

    return entropy_bits(lam), logs


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
    (``assign_partition``), so no search runs, and one result serves both
    directions. Values are clipped into ``[0, max(S_A, S_B)]`` of the mixture.
    """
    if mode.name == "per-state-lu":
        raise BadParams("the average-state gap needs a single global transform per direction")
    if mode.name == "fixed":
        e.cnot_mixture_entropies  # its one call values the mixture as it is, s_bar, too
    s_bar = e.mixture_entropies
    if mode.name == "assign":
        if not e.is_orthogonal():
            raise GramNotIdentity("assign mode needs an orthogonal ensemble")
        h = tuple(assign_partition(e, side)[1] for side in "AB")
        gaps = (s_bar[0] - h[0], s_bar[1] - h[1])
        best = dict.fromkeys(DIRECTIONS, _Best(max(gaps), np.zeros(len(e)), None, gaps, h))
    else:
        best = _gap_search(e, mode)
    return _report("big-delta", e, mode, best, s_bar, max(s_bar))


def _work(s_in, s_fin, dims):
    """(W_in, W_fin) per party: deficit of the (A, B) local entropies from
    log2(d), clipped into ``[0, log2 d]`` (an entropy can round past either end)."""
    out = {}
    for party, d, a, b in zip("AB", dims, s_in, s_fin):
        top = math.log2(d)
        out[party] = (min(max(0.0, top - float(a)), top), min(max(0.0, top - float(b)), top))
    return out


def _gap_search(e, mode) -> dict:
    """Direction -> ``_Best`` of each direction, starting from the identity
    (r=0, the ensemble as it is). Fixed mode reads the candidates' values
    from the ensemble's memo; the lu searches value the mixtures of every
    candidate with one kernel call and their members' entanglement with one."""
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
        objectives = tuple(functools.partial(_gap_objective, probs=probs, dims=dims, s_bar=s_bar,
                                             side=side) for side in "AB")
        seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
        candidates = _searched_transforms(e.amplitudes, dims, mode, objectives, seeds)
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
    d_a, d_b = e.dims
    max_size, max_parts = (d_a, d_b) if reduction_side == "B" else (d_b, d_a)
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
