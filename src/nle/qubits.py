"""Qubit facts: Bloch geometry, the depth-1 lu forms, concurrence and CHSH.

The qubit scope of ``nle.quantify``, stated once here. At depth 1
ensemble-lu runs no ascent in these cases, so ``restarts`` and ``seed`` have
no effect there: on 2x2, for big-delta (a closed form for every ``rotate``,
``_qubit_transforms``) and for delta (a closed form or a search of one Bloch
axis on the sphere, ``_qubit_delta_transforms``), except delta with both
sides rotated and neither party's parts on a great circle; on 2xd and dx2,
for the delta of a direction whose one rotated side is the qubit
(``rotate="control"`` with a qubit control, "target" with a qubit target).
Every other case, shape and depth runs the U(d) ascent: a qutrit marginal's
entropy is no function of one Bloch norm.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import _ARMIJO, _ASCENT_ROUNDS, _GAIN_FLOOR, TOL
from .errors import BadValue, UnsupportedDims
from .linalg import cnot_family, cnot_family_gather
from .states import LOG2, entropy_bits

_TURNS = {"both": (True, True), "target": (False, True), "control": (True, False)}  # turns (control, target)

# the identity, then sigma_x, sigma_y and sigma_z
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# row 4i + j dotted with rho.ravel() is tr(rho s_i (x) s_j), the transpose
# mattering for s_y; row 16 is zero, the entry that folded-away data reads
_PAULI_PAIRS = np.array([np.kron(s, t).T.ravel() for s in _PAULI for t in _PAULI] + [np.zeros(16)])
_REF = np.eye(3)[[2, 0]]  # the control's axis u and the target's n at the identity: e_z, e_x


def concurrence(s) -> float:
    """Two-qubit pure-state concurrence 2|a d - b c|."""
    if s.dims != (2, 2):
        raise UnsupportedDims("concurrence and CHSH values need a 2x2 state")
    a, b, c, d = s.amplitudes
    return float(2.0 * abs(a * d - b * c))


def chsh_max(s) -> float:
    """Largest CHSH value 2 sqrt(1 + C^2) reachable with a two-qubit pure state."""
    return float(2.0 * math.sqrt(1.0 + concurrence(s) ** 2))


def _qubit_transforms(e, probs, s_bar, rotate: str) -> list:
    """``(direction, 1, transformed stack)`` of each direction of a two-qubit
    ensemble-lu gap search at depth 1, in closed form for every ``rotate``.

    Write the mixture as ``(I + a.s (x) I + I (x) b.s + T_ij s_i (x) s_j) / 4``;
    local unitaries rotate ``a``, ``b`` and ``T`` (R. & M. Horodecki, PRA 54,
    1838 (1996)). After ``CNOT (U_c (x) U_t)`` of "right" (A controls), with
    ``u = R_c^T e_z`` and ``n = R_t^T e_x``, the control marginal's squared
    Bloch norm is ``(u.a)^2 + |Tn|^2 - (u.Tn)^2`` and the target's ``(n.b)^2 +
    |T^T u|^2 - (n.T^T u)^2``; "left" swaps ``a``, ``b`` and ``T``, ``T^T``.
    A side's entropy falls as its norm rises. With ``c`` the side's own
    vector, ``K`` its ``T`` or ``T^T``, and ``p``, ``q`` its own and the other
    axis, the norm is ``(p.c)^2 + |P K q|^2``, ``P`` the projector off ``p``.
    For any unit ``z`` off ``p``, ``|P K q|^2 - |P c|^2 <= |K^T z|^2 -
    (z.c)^2``, so the norm is at most ``|c|^2 + lambda_max(K K^T - c c^T)``,
    and the top eigenvector ``w`` attains it with ``p`` along ``P_w c`` (any
    unit vector off ``w`` when that vanishes) and ``q`` along ``K^T w``. An
    axis that does not turn is folded into the data: its own axis fixed at
    ``p_0`` makes ``c`` ``(p_0.c) p_0`` and ``K`` ``P_0 K``, where ``p = p_0``
    maximizes both terms, and the other fixed at ``q_0`` makes ``K`` ``K q_0
    q_0^T``, where ``q = +-q_0`` does.

    The four (side, direction) forms take one eigensolve. The norm is even in
    each axis, so each is taken with a non-negative reference component, and
    the reflection ``m.s``, ``m`` the unit bisector of the axis and its
    reference, which never vanishes, reaches it. As in ``quantify._maximize``
    the identity is kept unless the optimum is strictly better, and as in
    ``quantify._searched_transforms`` side A wins equals. On 2xd and dx2 with
    only the qubit side rotated the gap problem still lives on one sphere,
    where forms of this kind may hold; only delta uses one there so far
    (``_qubit_delta_transforms``).
    """
    if e.dims != (2, 2):
        return []
    c_at, k_at, identity_at = _qubit_layout(rotate)
    rho = (e.amplitudes.T * probs) @ e.amplitudes.conj()
    corr = (_PAULI_PAIRS @ rho.ravel()).real
    c, k = corr[c_at], corr[k_at]  # [side, direction], sides the control's and the target's
    top, vecs = np.linalg.eigh(k @ k.swapaxes(-1, -2) - c[..., :, None] * c[..., None, :])
    # P_w c through the eigenvectors off w, so it stays off w, plus a trace of
    # the first of them, which p is when P_w c vanishes; K^T w vanishes only
    # where every q is optimal, and its reflection is then the reference's
    rest = vecs[..., :2]
    p = (rest @ (c[..., None, :] @ rest + [1e-150, 0.0]).swapaxes(-1, -2))[..., 0]
    q = (vecs[..., None, :, -1] @ k)[..., 0, :]
    r2 = np.stack([(corr[identity_at] ** 2).sum(-1), (c**2).sum(-1) + top[..., -1]], -1)
    v = np.sqrt(np.maximum(r2, 0.0))[..., None] * [1.0, -1.0]
    drops = (np.array([s_bar, s_bar[::-1]])[..., None] - entropy_bits((corr[0] + v) / 2.0)).tolist()
    axes = np.array([[p[0], q[0]], [q[1], p[1]]])  # [side, role, direction]: roles u, n
    axes /= np.maximum(np.sqrt((axes**2).sum(-1, keepdims=True)), 1e-300)
    reflections = _reflections(axes, _REF[:, None])
    chosen = {}  # per candidate, the control's and the target's unitary
    for d, candidate in enumerate(cnot_family((2, 2))):
        s = (d, 1 - d)[max(drops[1 - d][d]) > max(drops[d][d])]  # the objective's side A wins equals
        chosen[candidate] = reflections[s, :, d] if drops[s][d][1] > drops[s][d][0] else (np.eye(2),) * 2
    return _qubit_circuit(e, rotate, chosen)


@functools.lru_cache(maxsize=None)
def _qubit_layout(rotate: str):
    """Where ``_qubit_transforms`` reads its data in the flat ``tr(rho s_i (x)
    s_j)``: ``c`` and ``K`` [side, direction], those that the axes ``rotate``
    leaves fixed fold away at 16 (a zero), and each side's marginal Bloch
    vector at the identity, ``(K_xx, K_yx, c_z)`` on the control side and
    ``(K_yz, K_zz, c_x)`` on the target's."""
    a, b = 4 * np.arange(1, 4), np.arange(1, 4)
    t = a[:, None] + b
    c, k = np.array([[a, b], [b, a]]), np.array([[t, t.T], [t.T, t]])
    identity = np.stack([np.stack([k[0, :, 0, 0], k[0, :, 1, 0], c[0, :, 2]], -1),
                         np.stack([k[1, :, 1, 2], k[1, :, 2, 2], c[1, :, 0]], -1)])
    turns = np.array(_TURNS[rotate])[:, None, None, None]  # per side, whether its own axis turns
    own, other = _REF.astype(bool)[:, None], _REF[::-1].astype(bool)[:, None]  # p_0, q_0 per side
    c = np.where(turns[..., 0] | own, c, 16)
    k = np.where((turns | ~own[..., None]) & (turns[::-1] | other[..., None, :]), k, 16)
    return c, k, identity


def _bloch(parts: np.ndarray) -> np.ndarray:
    """Bloch vectors ``<v|s|v>`` of a (..., 2) stack of unit vectors ``v``."""
    return np.einsum("...i,aij,...j->...a", parts.conj(), _PAULI[1:], parts).real


def _reflections(axes: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) reflections ``m.s`` with ``(m.s)(ref.s)(m.s) = +-axes.s``,
    for unit ``axes`` and ``ref`` (broadcast): ``m`` the unit bisector of
    ``ref`` and the sign of the axis with a non-negative ``ref`` component,
    which never vanishes."""
    m = np.where((axes * ref).sum(-1, keepdims=True) < 0.0, -axes, axes) + ref
    m /= np.sqrt((m**2).sum(-1, keepdims=True))
    return (m @ _PAULI[1:].reshape(3, 4)).reshape(m.shape[:-1] + (2, 2))


def _qubit_circuit(e, rotate: str, chosen: dict) -> list:
    """``(direction, r, transformed stack)`` of each depth-1 candidate ``(direction,
    r)`` of ``chosen``, which maps it to its control and target unitaries, each
    applied where ``rotate`` turns: a member ``M`` to ``U_A M U_B^T``, A first."""
    family, gather, out = cnot_family(e.dims), cnot_family_gather(e.dims), []
    for (direction, r), pair in chosen.items():
        (turn_a, u_a), (turn_b, u_b) = list(zip(_TURNS[rotate], pair))[:: 1 if direction == "right" else -1]
        m = e.amplitudes.reshape(-1, *e.dims)
        m = u_a @ m if turn_a else m
        m = m @ u_b.T if turn_b else m
        # C order, as the kernels' bits need
        out.append((direction, r, m.reshape(len(m), -1).take(gather[1 + family.index((direction, r))], -1)))
    return out


def _qubit_delta_transforms(e, probs, rotate: str) -> list:
    """``(direction, r, transformed stack)`` of each depth-1 ensemble-lu delta
    candidate whose rotated sides are all qubits (the scope in the module
    docstring); none for "both" when neither party's parts lie on a great
    circle.

    Member k is ``|a>|b>``, with ``a`` the control part and ``b`` the
    target's (``e.schmidt_pairs``; for "left" the B part controls). On a
    qubit write ``U_c^dag Z U_c = u.s`` or ``U_t^dag X U_t = n.s`` (``u = R_c^T
    e_z``, ``n = R_t^T e_x``; an unrotated qubit keeps ``e_z`` or ``e_x``).
    With a qubit control, ``U_c a = (x_0, x_1)`` and ``b' = U_t b``, the
    output ``x_0|0>b' + x_1|1>X^r b'`` has a control marginal of determinant
    ``|x_0 x_1|^2 (1 - |<b'|X^r|b'>|^2)``, where ``4|x_0 x_1|^2 = 1 -
    (u.r_c)^2``. With a qubit target (r = 1), the output ``sqrt(w_0)|e>b' +
    sqrt(w_1)|o>Xb'`` (``w_0``, ``w_1`` the masses of the even and odd control
    indices, ``|e>``, ``|o>`` orthonormal) has a target marginal of Bloch
    vector ``(m_x, delta m_y, delta m_z)``, ``m`` that of ``b'``, ``m_x =
    n.r_t`` and ``delta = w_0 - w_1``. Either output has Schmidt rank at most
    2, and its squared concurrence, 4 times its qubit marginal's determinant
    (Wootters, PRL 80, 2245 (1998)), is ``C_k^2 = (1 - (u.x_c)^2)(1 -
    (n.x_t)^2)`` with the vectors ``x`` of ``_role_vectors``: the Bloch vectors
    ``r_c``, ``r_t`` of qubit parts, ``delta e_z`` and ``|<b|X^r|b>| e_x`` of a
    qudit's. The member's entanglement ``g(C^2) = h((1 + sqrt(1 - C^2)) / 2)``
    rises with ``C^2``, and delta is ``sum_k p_k g(C_k^2)``, each candidate
    its own problem.

    Each factor is at most 1, and it is 1 where the axis is perpendicular
    to ``r``. So when the smallest eigenvalue of ``sum_k r_k r_k^T`` over one
    party's parts is 0 (at most ``TOL.eig_floor``, which costs at most about
    that much in value), its eigenvector, the normal of a great circle
    through every ``r_k``, is that party's best axis whatever the other axis
    is. With no axis left free every member has its best value at that r
    (its per-state value, ``quantify._per_state_closed``, unless another r
    suits it better); with one, the value is a function on a sphere
    (``_sphere_search``); both free is the "both" case left to the ascent.
    The unitaries are reflections, as in ``_qubit_transforms``, and the
    identity is kept unless the formula's optimum is strictly better.
    """
    turns = np.array(_TURNS[rotate])
    parties = {"right": (0, 1), "left": (1, 0)}  # the control's, then the target's
    candidates = [(d, shift) for d, shift in cnot_family(e.dims)
                  if all(e.dims[p] == 2 for p, t in zip(parties[d], turns) if t)]
    if not candidates:
        return []
    pairs = e.schmidt_pairs
    bloch = [_bloch(part) if part.shape[1] == 2 else None for part in pairs]
    r = np.array([_role_vectors(pairs, bloch, *parties[d], shift) for d, shift in candidates])
    lam, vecs = np.linalg.eigh(r.swapaxes(-1, -2) @ r)
    normals, circle = vecs[..., 0], lam[..., 0] <= TOL.eig_floor
    if rotate == "both" and not circle.any():
        return []
    free = turns & ~circle
    axes = np.where((turns & circle)[..., None], normals, _REF)
    if free.any():
        other = _axis_factors(r, axes)[:, ::-1][free]
        axes[free] = _sphere_search(r[free], other, probs, normals[free])
    found, identity = (_entanglement_of(np.prod(_axis_factors(r, a), 1)) @ probs
                       for a in (axes, np.broadcast_to(_REF, axes.shape)))
    reflections = _reflections(axes, _REF)
    return _qubit_circuit(e, rotate, {c: reflections[i] if found[i] > identity[i] else (np.eye(2),) * 2
                                      for i, c in enumerate(candidates)})


def _role_vectors(pairs, bloch, control: int, target: int, shift: int) -> list:
    """The (k, 3) vectors ``x`` of the control party's and the target party's
    parts under ``CNOT^shift``: a qubit's Bloch vectors ``bloch[party]``, and
    a qudit's, which never turns, on its own axis: ``delta e_z`` for a
    control (``delta = sum_i (-1)^i |a_i|^2``) and ``|<b|X^shift|b>| e_x``
    for a target."""
    (c, x_c), (t, x_t) = (pairs[control], bloch[control]), (pairs[target], bloch[target])
    if x_c is None:
        x_c = (abs(c) ** 2 @ (-1.0) ** np.arange(c.shape[1]))[:, None] * _REF[0]
    if x_t is None:
        x_t = abs((t.conj() * np.roll(t, shift, 1)).sum(1))[:, None] * _REF[1]
    return [x_c, x_t]


def _axis_factors(r: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """``1 - (axis.r_k)^2`` of (..., k, 3) Bloch vectors and (..., 3) axes, in [0, 1]."""
    return np.clip(1.0 - (r @ axes[..., None])[..., 0] ** 2, 0.0, 1.0)


def _entanglement_of(y: np.ndarray) -> np.ndarray:
    """``g(y) = h((1 + sqrt(1 - y)) / 2)``, the entanglement in bits of a pure
    two-qubit state of squared concurrence ``y`` in [0, 1]; the smaller
    eigenvalue is taken as ``y / (2 (1 + sqrt(1 - y)))``, exact near 0."""
    q = y / (2.0 * (1.0 + np.sqrt(1.0 - y)))
    return entropy_bits(np.stack([1.0 - q, q], -1))


def _fibonacci_hemisphere(size: int) -> np.ndarray:
    """``size`` unit vectors spread evenly over the upper hemisphere."""
    z, phi = (np.arange(size) + 0.5) / size, np.arange(size) * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], -1)


_GRID = _fibonacci_hemisphere(400)  # a sphere search's first look; F is even, so it covers the sphere
_GRID_STARTS = 3  # the best grid points each sphere search refines, beside the circle normal


def _sphere_search(r, c, probs, normals) -> np.ndarray:
    """For each row i, the best unit axis found of ``F_i(n) = sum_k p_k g(c_ik
    (1 - (n.r_ik)^2))``, given (m, k, 3) vectors ``r``, (m, k) factors ``c``
    in [0, 1] and (m, 3) starts ``normals``.

    ``F`` is valued on ``_GRID``; Riemannian Newton ascents (Absil, Mahony &
    Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008) then
    start at each row's ``_GRID_STARTS`` best points and its normal, all
    rows in one stack, and each row keeps its best end (the first of equals).
    """
    values = _entanglement_of(c[:, None] * _axis_factors(r[:, None], _GRID)) @ probs
    best = np.argsort(-values, axis=1, kind="stable")[:, :_GRID_STARTS]
    starts = np.concatenate([_GRID[best], normals[:, None]], 1)
    size = starts.shape[1]
    ends, values = _sphere_ascent(starts.reshape(-1, 3), np.repeat(r, size, 0), np.repeat(c, size, 0), probs)
    return ends.reshape(starts.shape)[np.arange(len(r)), values.reshape(-1, size).argmax(1)]


def _sphere_ascent(n, r, c, probs):
    """Riemannian Newton ascents of ``F`` (``_sphere_search``) from the (P, 3)
    unit axes ``n``, one per row of ``r`` and ``c``, in lockstep; their ends
    and values.

    The step solves ``Hess F[s] = -grad F`` on the tangent plane, with each
    eigenvalue of the Hessian taken as ``-max(|lambda|, 1e-9)``, so it always
    rises: Newton's step where ``F`` is concave, a gradient step scaled by
    the curvature elsewhere. Its length is capped at 1, it is retracted by
    normalizing ``n + t s``, and halved until it gains ``_ARMIJO`` of its
    first-order gain; ``t`` resets to 1 after each accepted step. An ascent
    stops once its gradient norm is at most ``TOL.gradient`` or a step
    predicted to gain ``_GAIN_FLOOR`` or less fails; ``BadValue`` once one has
    run ``_ASCENT_ROUNDS`` rounds.
    """
    value, grad, hess = _sphere_terms(n, r, c, probs)
    t, going = np.ones(len(n)), (grad**2).sum(-1) > TOL.gradient**2
    for _ in range(_ASCENT_ROUNDS):
        if not going.any():
            return n, value
        lam, vecs = np.linalg.eigh(hess)
        step = (vecs @ ((grad[:, None] @ vecs)[:, 0] / np.maximum(np.abs(lam), 1e-9))[..., None])[..., 0]
        step /= np.maximum(np.sqrt((step**2).sum(-1, keepdims=True)), 1.0)
        gain = t * (grad * step).sum(-1)
        trial = n + t[:, None] * step
        trial /= np.sqrt((trial**2).sum(-1, keepdims=True))
        tried = _sphere_terms(trial, r, c, probs)
        ok = going & (tried[0] >= value + _ARMIJO * gain)
        n = np.where(ok[:, None], trial, n)
        value, grad, hess = (np.where(ok.reshape((-1,) + (1,) * (a.ndim - 1)), b, a)
                             for a, b in zip((value, grad, hess), tried))
        t = np.where(ok, 1.0, 0.5 * t)
        going &= np.where(ok, (grad**2).sum(-1) > TOL.gradient**2, 0.5 * gain > _GAIN_FLOOR)
    raise BadValue(f"sphere ascent not converged within {_ASCENT_ROUNDS} steps")


def _sphere_terms(n, r, c, probs):
    """``F`` at the (P, 3) unit axes ``n``, its Riemannian gradient, and its
    Riemannian Hessian as a (P, 3, 3) map of the tangent plane, ``P(H - (n.G)
    I)P`` from the Euclidean gradient ``G`` and Hessian ``H``, ``P`` the
    projector off ``n``.

    Per member, with ``x = n.r``, ``y = c(1 - x^2)`` and ``s = sqrt(1 - y)``,
    ``dg/dy = A / (2 ln 2)`` and ``d2g/dy2 = -B / (4 ln 2)`` for ``A =
    atanh(s) / s`` and ``B = A'(s) / s = (s / y - atanh(s)) / s^3``, so
    ``dg/dx = -c x A / ln 2`` and ``d2g/dx2 = -c (A + c x^2 B) / ln 2``. ``s``
    is clipped into ``[1e-100, 1 - 2^-53]``, so both stay finite; ``B``'s
    rounding error, about ``1e-16 / s^2``, meets a factor ``c x^2 <= s^2``.
    """
    x = (r @ n[:, :, None])[..., 0]
    y = c * (1.0 - x * x).clip(0.0, 1.0)
    s = np.sqrt(1.0 - y).clip(1e-100, 1.0 - 2.0**-53)
    atanh = np.arctanh(s)
    a, b = atanh / s, (s / (1.0 - s * s) - atanh) / s**3
    weights = c * probs / -LOG2
    grad = (weights * x * a)[:, None] @ r
    hess = (r.swapaxes(1, 2) * (weights * (a + c * x * x * b))[:, None]) @ r
    radial = (grad[:, 0] * n).sum(-1)
    off = np.eye(3) - n[:, :, None] * n[:, None, :]
    hess = off @ (hess - radial[:, None, None] * np.eye(3)) @ off
    return _entanglement_of(y) @ probs, grad[:, 0] - radial[:, None] * n, hess
