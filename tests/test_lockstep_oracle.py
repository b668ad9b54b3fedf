"""The lockstep lu search against the sequential search it replaced, bit for bit.

The search used to run each (direction, r, objective side, restart) ascent
alone, one after another. The code below the line keeps that search
verbatim: ``_ascend``, ``_inner``, ``_maximize``, ``_LuCircuit``,
``_searched_transforms`` and the one-problem objectives. Every problem of a
lockstep batch must return the value and unitaries of its own sequential
ascent, to the last bit, each (circuit, side) group the same maximum, and
``_searched_transforms`` the same transformed stacks: on the delta, gap-A and
gap-B objectives, on 2x2 (the target rotation turns side B in one direction
and side A in the other, within one batch) and on 3x2 with the control
rotated (``unitary_dims`` differ per direction: two batches), at restarts 1
and 2 and depth 1 and 2. Where a depth-1 qubit form (``nle.qubits``) takes
one direction of case-3x2, the direction that rotates the qutrit must keep
its sequential bits. Deeper control-rotated per-state-lu puts all members
into one batch, and must value each member as its own search did.
"""

import functools
import math

import numpy as np
import pytest

from nle import catalog, quantify
from nle.config import TOL
from nle.errors import BadValue
from nle.linalg import DIRECTIONS, cnot_family, cnot_permutation, expm_hermitian_unchecked
from nle.quantify import (_ARMIJO, _ASCENT_ROUNDS, _FIRST_ANGLE, _GAIN_FLOOR, _MEMORY, Mode,
                          _direction_seed, _pick_delta, _starts)
from nle.states import entanglement_entropies, entropy_bits

ENTRIES = {("delta", "2x2"): "e2-case2", ("gap", "2x2"): "bell-triple",
           ("delta", "3x2"): "case-3x2", ("gap", "3x2"): "case-3x2"}
ROTATE = {"2x2": "target", "3x2": "control"}
CASES = [(quantity, shape, restarts, depth) for quantity in ("delta", "gap")
         for shape in ("2x2", "3x2") for restarts in (1, 2) for depth in (1, 2)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _objectives(quantity, e):
    """The sequential objectives (one per side), the batch's objective, and its sides."""
    probs = np.array(e.probabilities)
    if quantity == "delta":
        return ((functools.partial(_delta_objective, probs=probs, dims=e.dims),),
                functools.partial(quantify._delta_objective, probs=probs, dims=e.dims), "A")
    s_bar = e.mixture_entropies
    old = tuple(functools.partial(_gap_objective, probs=probs, dims=e.dims, s_bar=s_bar, side=side)
                for side in "AB")
    return old, functools.partial(quantify._gap_objective, probs=probs, dims=e.dims, s_bar=s_bar), "AB"


@pytest.mark.parametrize("quantity,shape,restarts,depth", CASES)
def test_every_problem_walks_its_sequential_path(quantity, shape, restarts, depth):
    e, rotate = catalog.build(ENTRIES[quantity, shape]), ROTATE[shape]
    old, new, sides = _objectives(quantity, e)
    batches = {}  # unitary_dims -> the (direction, r) circuits that rotate them
    for direction, r in cnot_family(e.dims):
        unitary_dims = _LuCircuit(e.dims, direction, rotate, depth, r).unitary_dims
        batches.setdefault(tuple(unitary_dims), []).append((direction, r))
    assert len(batches) == (2 if shape == "3x2" else 1)
    for unitary_dims, shifts in batches.items():
        groups = [(side, d, r, _starts(list(unitary_dims), restarts, 11 * r + len(d)))
                  for side in sides for d, r in shifts]
        starts = [start for *_, group_starts in groups for start in group_starts]
        batch = quantify._LuCircuit(e.dims, rotate, depth, [(d, r) for _, d, r, g in groups for _ in g])
        f = batch.on(e.amplitudes, new, [side == "A" for side, _, _, g in groups for _ in g])
        got, found = quantify._ascend(f, starts), quantify._maximize(f, starts, len(groups))
        for n, (side, d, r, group_starts) in enumerate(groups):
            sequential = _LuCircuit(e.dims, d, rotate, depth, r).on(e.amplitudes, old[sides.index(side)])
            for i, start in enumerate(group_starts):
                want_v, want_us = _ascend(sequential, start)
                value, us = got[n * restarts + i]
                assert type(value) is float and _same_bits(value, want_v), (side, d, r, value, want_v)
                assert len(us) == len(want_us) and all(map(_same_bits, us, want_us))
            want_v, want_us = _maximize(sequential, group_starts)
            assert _same_bits(found[n][0], want_v) and all(map(_same_bits, found[n][1], want_us))


@pytest.mark.parametrize("quantity,shape,restarts,depth", CASES)
def test_searched_transforms_equal_the_sequential_ones(quantity, shape, restarts, depth):
    e = catalog.build(ENTRIES[quantity, shape])
    mode = Mode("ensemble-lu", depth=depth, restarts=restarts, seed=4, rotate=ROTATE[shape])
    old, new, sides = _objectives(quantity, e)
    seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
    want = _searched_transforms(e.amplitudes, e.dims, mode, old, seeds)
    got = quantify._searched_transforms(e.amplitudes[None], e.dims, mode, new, [seeds], sides)[0]
    assert [(d, r) for d, r, _ in got] == [(d, r) for d, r, _ in want]
    assert all(_same_bits(a, b) for (_, _, a), (_, _, b) in zip(got, want))


@pytest.mark.parametrize("rotate", ["control", "target"])
def test_the_direction_beside_a_qubit_form_keeps_its_bits(monkeypatch, rotate):
    # on case-3x2 the qubit direction takes its form at depth 1 (nle.qubits)
    # and leaves the search; the direction that rotates the qutrit must still
    # walk its sequential path, bit for bit (the ceiling certificate, which
    # takes it with the target rotated, switched off)
    e = catalog.build("case-3x2")
    mode = Mode("ensemble-lu", restarts=2, seed=3, rotate=rotate)
    (old,), _, _ = _objectives("delta", e)
    made = []  # the candidates of the qubit forms, then those of the search

    def recorded(f):
        return lambda *args: made.append(f(*args)) or list(made[-1])  # a copy: the caller extends it

    for name in ("_qubit_delta_transforms", "_searched_transforms"):
        monkeypatch.setattr(quantify, name, recorded(getattr(quantify, name)))
    monkeypatch.setattr(quantify, "_ceiling_certified", lambda *args: {})
    quantify.nonlocal_entropy(e, mode)
    got = sorted(made[0] + made[1][0], key=lambda c: DIRECTIONS.index(c[0]))
    qubit = "left" if rotate == "control" else "right"  # the direction whose rotated side is B's qubit
    searched = [c for c in got if c[0] != qubit]
    seeds = {d: _direction_seed(mode.seed, d) for d in DIRECTIONS}
    others = {d: seed for d, seed in seeds.items() if d != qubit}
    want = _searched_transforms(e.amplitudes, e.dims, mode, (old,), others)
    assert [(d, r) for d, r, _ in got] == list(cnot_family(e.dims))
    assert [(d, r) for d, r, _ in searched] == [(d, r) for d, r, _ in want] != []
    assert all(_same_bits(a, b) for (_, _, a), (_, _, b) in zip(searched, want))


@pytest.mark.parametrize("name", ["case-3x2", "e2-case2"])
def test_per_state_members_share_one_batch(monkeypatch, name):
    e, probs = catalog.build(name), np.ones(1)
    mode = Mode("per-state-lu", depth=2, restarts=1, seed=6, rotate="control")
    batches = []
    ascend = quantify._ascend
    monkeypatch.setattr(quantify, "_ascend", lambda f, starts: batches.append(len(starts)) or ascend(f, starts))
    for direction in DIRECTIONS:
        batches.clear()
        got = quantify._per_state_direction(e, np.array(e.probabilities), mode, direction).contributions
        reps = [r for d, r in cnot_family(e.dims) if d == direction]
        assert batches == [len(e) * len(reps)]  # every member and repetition count in one batch
        objective = (functools.partial(_delta_objective, probs=probs, dims=e.dims),)
        want = []
        for i, row in enumerate(e.amplitudes):
            seeds = {direction: _direction_seed(mode.seed, direction, i)}
            found = _searched_transforms(row[None], e.dims, mode, objective, seeds)
            ents = entanglement_entropies(np.stack([t for _, _, t in found]), e.dims)
            want.append(_pick_delta([(d, r) for d, r, _ in found], ents, probs)[direction].value)
        assert _same_bits(got, np.array(want))


# ---------------------------------------------------------------------------
# the sequential search, verbatim


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
