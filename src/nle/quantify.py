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

Fixed, ensemble-lu and deeper control-rotated per-state-lu share one search
loop over the repetition count r (``_searched_transforms``); every gap search
starts from the identity (r=0). Delta values lie in ``[0, log2 min(d_A,
d_B)]``; an ascent that runs out of steps raises ``BadValue`` rather than
return a number.

Directions: "right" means party A controls and B is the target; "left" is
the mirror.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import BadParams, BadValue, GramNotIdentity, NotProductEnsemble
from .gates import cnot_permutation
from .linalg import expm_hermitian_unchecked, haar_unitary
from .states import LOG2, Ensemble, entanglement_entropies, entropy_bits, mixture_marginal_entropies

DIRECTIONS = ("right", "left")
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
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
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


# ---------------------------------------------------------------------------
# shared numerics


def _clip_values(values, ceiling: float = math.inf) -> list[float]:
    """Floats ``values`` clipped into ``[0, ceiling]``; ``BadValue`` when one
    is not finite or lies outside by more than ``TOL.value``. One call takes
    every value of a report (a loop over floats beats numpy at these sizes)."""
    out = []
    for v in values:
        if not (-TOL.value <= v <= ceiling + TOL.value and math.isfinite(v)):
            raise BadValue(f"quantifier value {v} is not finite or lies outside [0, {ceiling}]")
        out.append(min(max(0.0, v), ceiling))
    return out


def _reps_range(dims: tuple[int, int], direction: str) -> range:
    """Shift repetition counts 1 .. d_t - 1 (just 1 when d_t = 1) for target dimension d_t."""
    return range(1, max(dims[1] if direction == "right" else dims[0], 2))


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

    ``f(us)`` returns the value and the Euclidean gradients ``Gamma_j =
    df/dconj(U_j)``, so that ``df = 2 Re sum_j tr(Gamma_j^dag dU_j)``. A step is
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

    def ascent(point):  # the value and the Riemannian gradient at ``point``
        value, gammas = f(point)
        return value, [g @ u.conj().T - u @ g.conj().T for g, u in zip(gammas, point)]

    v, w = ascent(us)
    norm2 = _inner(w, w)
    t = _FIRST_ANGLE / math.sqrt(norm2) if norm2 else 0.0
    best, recent = (v, us), [v]
    for step in range(_ASCENT_ROUNDS):
        if norm2 <= TOL.gradient**2:
            return best
        floor = min(recent[-_MEMORY:])
        while True:
            cand = [expm_hermitian_unchecked(-1j * t * x) @ u for x, u in zip(w, us)]
            v, cw = ascent(cand)
            if v >= floor + _ARMIJO * t * norm2:
                break
            t *= 0.5
            if t * norm2 <= _GAIN_FLOOR:
                return best
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


def _maximize(f, dims: list[int], restarts: int, seed: int) -> tuple[float, list]:
    """Best ``(value, unitaries)`` of ``f`` (as in ``_ascend``) over ``U(d)`` for
    each d in ``dims``: the identity, then one ascent per restart.

    Restart 0 starts within about ``_START_SCALE`` of the identity: a product
    input has a singular ``log rho``, and a zero gradient, at the identity
    itself. Later restarts start from Haar-random unitaries. All starts come
    from ``seed``; a later candidate must be strictly better to win.
    """
    rng = np.random.default_rng(seed)
    identity = [np.eye(d, dtype=complex) for d in dims]
    best = (f(identity)[0], identity)
    for restart in range(restarts):
        if restart == 0:
            start = [expm_hermitian_unchecked(_START_SCALE * _gaussian_hermitian(rng, d)) for d in dims]
        else:
            start = [haar_unitary(d, rng) for d in dims]
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
    """Depth-layered circuit: per layer local rotations (``rotate=None``: none) then CNOT^reps.

    A point of the circuit is a list of unitaries: per layer, the A rotation
    and then the B rotation, of the sides in ``sides``; ``unitary_dims``
    holds their dimensions. Rotations act on a member ``M`` (its
    ``(d_A, d_B)`` amplitude matrix) as ``U_A M U_B^T``.
    """

    def __init__(self, dims, direction: str, rotate: str | None, depth: int, reps: int):
        self.dims = dims
        self.depth = depth
        control = "A" if direction == "right" else "B"
        self.perm = cnot_permutation(dims, control, reps)
        target = "B" if direction == "right" else "A"
        self.sides = {"both": ("A", "B"), "target": (target,), "control": (control,), None: ()}[rotate]
        self.unitary_dims = [dims["AB".index(p)] for p in self.sides] * depth

    def transform(self, stack: np.ndarray, unitaries) -> np.ndarray:
        """The circuit applied to a (k, d_A*d_B) stack."""
        return self.forward(stack, unitaries)[0]

    def forward(self, stack: np.ndarray, unitaries):
        """The transformed stack and the input of each rotation, which
        ``backward`` reads. With no rotated side a layer is the bare
        permutation of the flat stack."""
        k, (d_a, d_b) = stack.shape[0], self.dims
        inputs, us, t = [], iter(unitaries), stack
        for _ in range(self.depth):
            if self.sides:
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
        ``sum_k G X^dag`` and passes ``U_A^dag G`` on.
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
                    g = g @ u.conj()
                else:
                    gammas[j] = np.einsum("kij,klj->il", g, m)
                    g = u.conj().T @ g
            grad = g.reshape(k, d_a * d_b)
        return gammas

    def on(self, stack: np.ndarray, objective):
        """``objective`` (the transformed stack to the value and ``df/dconj``
        of it) as a function of this circuit's unitaries, for ``_ascend``."""

        def f(unitaries):
            out, inputs = self.forward(stack, unitaries)
            value, grad = objective(out)
            return value, self.backward(unitaries, inputs, grad)

        return f


def _searched_transforms(stack, dims, mode: Mode, direction: str, objectives, seed: int):
    """Yield ``(r, transformed stack)`` for each repetition count r.

    The stack goes through the mode's circuit at the unitaries ``_maximize``
    finds for the best of ``objectives``, each ascended on its own from the
    same starts. The fixed circuit is the parameter-free one, a single layer
    with no rotated side whatever ``mode.depth`` says, and runs no ascent.
    """
    rotate, depth = (None, 1) if mode.name == "fixed" else (mode.rotate, mode.depth)
    for r in _reps_range(dims, direction):
        circuit = _LuCircuit(dims, direction, rotate, depth, r)
        unitaries = []
        if circuit.sides:
            found = (_maximize(circuit.on(stack, o), circuit.unitary_dims, mode.restarts, seed)
                     for o in objectives)
            unitaries = max(found, key=lambda candidate: candidate[0])[1]  # first of equals
        yield r, circuit.transform(stack, unitaries)


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
    k = len(stack)
    clipped = _clip_values(
        [right, left, (right + left) / 2.0, *per_dir["right"][1].tolist(), *per_dir["left"][1].tolist()],
        ceiling,
    )
    return QuantifierReport(
        quantity="delta",
        right=clipped[0],
        left=clipped[1],
        symmetric=clipped[2],
        contributions_right=tuple(clipped[3 : 3 + k]),
        contributions_left=tuple(clipped[3 + k :]),
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
    if mode.depth == 1 or mode.rotate != "control":
        contrib = _per_state_closed(stack, dims, direction, mode.rotate)
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
    objectives = (functools.partial(_delta_objective, probs=probs, dims=dims),)
    for r, t in _searched_transforms(stack, dims, mode, direction, objectives, seed):
        contrib = entanglement_entropies(t, dims)
        value = float(probs @ contrib)
        if best is None or value > best[0] + 1e-15:
            best = (value, contrib, r)
    return best


# ---------------------------------------------------------------------------
# per-state optimum in closed form


_CAPACITY_ROUNDS = 10_000  # Blahut-Arimoto rounds before a capacity is given up


def _per_state_closed(stack, dims, direction: str, rotate: str) -> np.ndarray:
    """Each member's best entanglement over rotation layers and ``CNOT^r``.

    A member (product within ``TOL.product_rank``) is valued through its
    leading Schmidt pair: control part ``a``, target part ``b``. ``CNOT^r``
    sends ``|i>|b>`` to ``|i> X^{ri}|b>``, so the controls of one class
    ``c = r*i mod d_t`` see the same shift. Maximized over r in ``_reps_range``:

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
    k = stack.shape[0]
    if rotate == "both":
        return np.full(k, math.log2(min(dims)))
    u, _, vh = np.linalg.svd(stack.reshape(k, *dims))
    part_a, part_b = u[:, :, 0], vh[:, 0, :]
    control, target = (part_a, part_b) if direction == "right" else (part_b, part_a)
    classes = _shift_classes(control.shape[1], target.shape[1], _reps_range(dims, direction))
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


def _delta_objective(t: np.ndarray, probs, dims):
    """Value and gradient of a delta search at the transformed stack ``t``.

    The value is the ``probs``-weighted entanglement of the members
    (``probs=np.ones(1)`` for a single member). With ``M_k`` a member's
    amplitude matrix, ``rho_k = M_k M_k^dag`` and ``L_k = log2 rho_k``
    (``_entropies_and_logs``), ``dS_k = -tr(drho_k L_k)`` (the rotations
    keep ``tr rho_k = 1``), so the gradient ``df/dconj(M_k)`` is
    ``-p_k L_k M_k``.
    """
    m = t.reshape(len(t), *dims)
    ents, logs = _entropies_and_logs(m @ m.conj().swapaxes(1, 2))
    return float(probs @ ents), (-probs[:, None, None] * (logs @ m)).reshape(t.shape)


def _gap_objective(t: np.ndarray, probs, dims, s_bar, side: str):
    """Value and gradient of a gap search at the transformed stack ``t``: the
    drop of the ``side`` entropy of the mixture from ``s_bar``.

    ``rho_A = sum_k p_k M_k M_k^dag`` gives the gradient ``p_k L_A M_k``;
    ``rho_B``, taken as ``sum_k p_k M_k^dag M_k`` (the conjugate of the B
    marginal, same spectrum), gives ``p_k M_k L_B``. The sign is that of a
    drop, ``d(-S) = tr(drho L)``.
    """
    m = t.reshape(len(t), *dims)
    weighted = probs[:, None, None] * m
    if side == "A":
        s, log = _entropies_and_logs(np.einsum("kij,klj->il", weighted, m.conj()))
        grad = log @ weighted
    else:
        s, log = _entropies_and_logs(np.einsum("kji,kjl->il", m.conj(), weighted))
        grad = weighted @ log
    return s_bar["AB".index(side)] - float(s), grad.reshape(t.shape)


def _entropies_and_logs(rho: np.ndarray):
    """Entropies (``entropy_bits``) and ``log2`` of a stack of density
    matrices; eigenvalues below ``TOL.eig_floor`` take the floor's log."""
    lam, vecs = np.linalg.eigh(rho)
    logs = np.log2(np.maximum(lam, TOL.eig_floor))
    return entropy_bits(lam), (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
    right, left, symmetric = _clip_values([right, left, (right + left) / 2.0])
    return QuantifierReport(
        quantity="big-delta",
        right=right,
        left=left,
        symmetric=symmetric,
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
    """(W_in, W_fin) per party: deficit of the (A, B) local entropies from
    log2(d), clipped into ``[0, log2 d]`` (an entropy can round past either end)."""
    out = {}
    for party, d, a, b in zip("AB", dims, s_in, s_fin):
        top = math.log2(d)
        out[party] = (min(max(0.0, top - float(a)), top), min(max(0.0, top - float(b)), top))
    return out


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
    objectives = tuple(functools.partial(_gap_objective, probs=probs, dims=dims, s_bar=s_bar,
                                         side=side) for side in "AB")
    seed = _direction_seed(mode.seed, direction)
    for r, t in _searched_transforms(stack, dims, mode, direction, objectives, seed):
        s_fin = mixture_marginal_entropies(t, probs, dims)
        gaps = (s_bar[0] - s_fin[0], s_bar[1] - s_fin[1])
        candidate = (max(gaps), entanglement_entropies(t, dims), gaps, r, s_fin)
        if better(candidate, best):
            best = candidate
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
    (value,) = _clip_values([max(gaps)])
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
