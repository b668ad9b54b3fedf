"""Constructors for the named ensembles exercised throughout the package.

Entry names are stable identifiers used by the CLI. Builders normalize all
amplitudes explicitly and default to uniform probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import BadParams, NoSuchEntry
from .states import Ensemble, PureState, product_state

OMEGA3 = np.exp(2j * np.pi / 3)


def _ket(*amps) -> np.ndarray:
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def _joint(dims, a, b) -> PureState:
    return product_state(dims, _ket(*a), _ket(*b))


def _pure(dims, amps) -> PureState:
    v = np.array(amps, dtype=complex)
    return PureState(dims, v / np.linalg.norm(v))


def bell_state(kind: str) -> PureState:
    table = {
        "phi+": [1, 0, 0, 1],
        "phi-": [1, 0, 0, -1],
        "psi+": [0, 1, 1, 0],
        "psi-": [0, 1, -1, 0],
    }
    return _pure((2, 2), np.array(table[kind]) / math.sqrt(2))


# ---------------------------------------------------------------------------
# builders


def _build_e1(params) -> Ensemble:
    dims = (2, 2)
    states = [_joint(dims, [1, 0], [1, 0]), _joint(dims, [1, 0], [0, 1]),
              _joint(dims, [0, 1], [1, 0]), _joint(dims, [0, 1], [0, 1])]
    return Ensemble.uniform(dims, states, name="e1-computational")


def _build_e2(params) -> Ensemble:
    dims = (2, 2)
    states = [_joint(dims, [1, 0], [1, 1]), _joint(dims, [1, 0], [1, -1]),
              _joint(dims, [0, 1], [1, 0]), _joint(dims, [0, 1], [0, 1])]
    return Ensemble.uniform(dims, states, name="e2-case2")


def _eta_pair(a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
    eta = np.array([a, b], dtype=complex)
    n = np.linalg.norm(eta)
    if n == 0:
        raise BadParams("eta must be nonzero")
    eta = eta / n
    perp = np.array([-np.conjugate(eta[1]), np.conjugate(eta[0])])
    return eta, perp


def walgate_hardy_states(eta1, eta2) -> list[PureState]:
    """The four-product-state family {|0 eta1>, |1 eta2>, |0 eta1^perp>, |1 eta2^perp>}."""
    dims = (2, 2)
    e1, p1 = _eta_pair(*np.asarray(eta1, dtype=complex))
    e2, p2 = _eta_pair(*np.asarray(eta2, dtype=complex))
    zero, one = _ket(1, 0), _ket(0, 1)
    return [product_state(dims, zero, e1), product_state(dims, one, e2),
            product_state(dims, zero, p1), product_state(dims, one, p2)]


def random_eta(rng: np.random.Generator) -> np.ndarray:
    """Single-qubit state, basis-aligned with probability 1/2, else bounded away."""
    pick = rng.uniform()
    if pick < 0.25:
        return np.array([1.0, 0.0], dtype=complex)
    if pick < 0.5:
        return np.array([0.0, 1.0], dtype=complex)
    theta = rng.uniform(0.15, math.pi / 2 - 0.15)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phase)])


def _angles_from_params(params, defaults):
    vals = dict(defaults)
    vals.update(params or {})
    unknown = set(vals) - set(defaults)
    if unknown:
        raise BadParams(f"unknown parameters {sorted(unknown)}")
    return vals


def _ab_pairs(params, defaults):
    vals = _angles_from_params(params, defaults)
    out = []
    for i in (1, 2):
        a, b = vals[f"a{i}"], vals[f"b{i}"]
        if b is None:
            if not 0.0 <= a <= 1.0:
                raise BadParams(f"a{i} must lie in [0, 1] when b{i} is omitted")
            b = math.sqrt(max(0.0, 1.0 - a * a))
        if not abs(a * a + b * b - 1.0) <= TOL.input_norm:
            raise BadParams(f"a{i}^2 + b{i}^2 must equal 1")
        out.append((a, b))
    return out


_WH_DEFAULTS = {"a1": 1 / math.sqrt(2), "b1": None, "a2": 1.0, "b2": None}


def _build_walgate_hardy(params) -> Ensemble:
    (a1, b1), (a2, b2) = _ab_pairs(params, _WH_DEFAULTS)
    return Ensemble.uniform((2, 2), walgate_hardy_states([a1, b1], [a2, b2]),
                            name="walgate-hardy")


def _build_case_3x2(params) -> Ensemble:
    dims = (3, 2)
    states = [_joint(dims, [0, 1, 1], [1, 0]), _joint(dims, [0, 1, -1], [1, 0]),
              _joint(dims, [0, 1, 0], [0, 1]), _joint(dims, [0, 0, 1], [0, 1]),
              _joint(dims, [1, 0, 0], [1, 0]), _joint(dims, [1, 0, 0], [0, 1])]
    return Ensemble.uniform(dims, states, name="case-3x2")


def _build_nlwe(params) -> Ensemble:
    dims = (3, 3)
    states = [
        _joint(dims, [0, 1, 0], [0, 1, 0]),
        _joint(dims, [1, 0, 0], [1, 1, 0]),
        _joint(dims, [1, 0, 0], [1, -1, 0]),
        _joint(dims, [0, 0, 1], [0, 1, 1]),
        _joint(dims, [0, 0, 1], [0, 1, -1]),
        _joint(dims, [0, 1, 1], [1, 0, 0]),
        _joint(dims, [0, 1, -1], [1, 0, 0]),
        _joint(dims, [1, 1, 0], [0, 0, 1]),
        _joint(dims, [1, -1, 0], [0, 0, 1]),
    ]
    return Ensemble.uniform(dims, states, name="nlwe-3x3")


def _build_tiles(params) -> Ensemble:
    dims = (3, 3)
    states = [
        _joint(dims, [1, 0, 0], [1, -1, 0]),
        _joint(dims, [0, 0, 1], [0, 1, -1]),
        _joint(dims, [1, -1, 0], [0, 0, 1]),
        _joint(dims, [0, 1, -1], [1, 0, 0]),
        _joint(dims, [1, 1, 1], [1, 1, 1]),
    ]
    return Ensemble.uniform(dims, states, name="tiles-upb")


def _build_bell_pair(params) -> Ensemble:
    return Ensemble.uniform((2, 2), [bell_state("phi+"), bell_state("phi-")], name="bell-pair")


def _build_bell_triple(params) -> Ensemble:
    return Ensemble.uniform(
        (2, 2), [bell_state("phi+"), bell_state("phi-"), bell_state("psi-")], name="bell-triple"
    )


def _build_bell_full(params) -> Ensemble:
    return Ensemble.uniform(
        (2, 2),
        [bell_state("phi+"), bell_state("phi-"), bell_state("psi+"), bell_state("psi-")],
        name="bell-full",
    )


_ORTH_DEFAULTS = {"a1": 4 / 5, "b1": None, "a2": 3 / 4, "b2": None}


def orth_pair_states(eta1, eta2) -> list[PureState]:
    """Two orthogonal (generally entangled) states built from eta1, eta2."""
    dims = (2, 2)
    e1, p1 = _eta_pair(*np.asarray(eta1, dtype=complex))
    e2, p2 = _eta_pair(*np.asarray(eta2, dtype=complex))
    psi1 = np.concatenate([e1, e2]) / math.sqrt(2)
    psi2 = np.concatenate([p1, p2]) / math.sqrt(2)
    return [PureState(dims, psi1), PureState(dims, psi2)]


def _build_orth_pair(params) -> Ensemble:
    (a1, b1), (a2, b2) = _ab_pairs(params, _ORTH_DEFAULTS)
    return Ensemble.uniform((2, 2), orth_pair_states([a1, b1], [a2, b2]), name="orth-pair")


_GHOSH_DEFAULTS = {"a": 4 / 5, "b": None, "count": 4.0}


def ghosh_states(a: float, b: float) -> list[PureState]:
    dims = (2, 2)
    return [
        _pure(dims, [a, 0, 0, b]),
        _pure(dims, [-b, 0, 0, a]),
        _pure(dims, [0, a, b, 0]),
        _pure(dims, [0, -b, a, 0]),
    ]


def _build_ghosh(params) -> Ensemble:
    vals = _angles_from_params(params, _GHOSH_DEFAULTS)
    a, b = vals["a"], vals["b"]
    if b is None:
        if not 0.0 <= a <= 1.0:
            raise BadParams("a must lie in [0, 1] when b is omitted")
        b = math.sqrt(max(0.0, 1.0 - a * a))
    if not abs(a * a + b * b - 1.0) <= TOL.input_norm:
        raise BadParams("a^2 + b^2 must equal 1")
    count = int(vals["count"])
    if not 1 <= count <= 4:
        raise BadParams("count must lie in 1..4")
    return Ensemble.uniform((2, 2), ghosh_states(a, b)[:count], name="ghosh-nonmax")


def _build_more_nl_mes(params) -> Ensemble:
    dims = (3, 3)
    states = [
        _pure(dims, [1, 0, 0, 0, OMEGA3, 0, 0, 0, OMEGA3**2]),
        _pure(dims, [1, 0, 0, 0, OMEGA3**2, 0, 0, 0, OMEGA3]),
        _pure(dims, [0, 1, 0, 0, 0, 1, 1, 0, 0]),
    ]
    return Ensemble.uniform(dims, states, name="more-nl-mes")


def _build_more_nl_mixed(params) -> Ensemble:
    dims = (3, 3)
    states = [
        _pure(dims, [1, 0, 0, 0, OMEGA3, 0, 0, 0, OMEGA3**2]),
        _pure(dims, [1, 0, 0, 0, OMEGA3**2, 0, 0, 0, OMEGA3]),
        _pure(dims, [0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ]
    return Ensemble.uniform(dims, states, name="more-nl-mixed")


def canonical_mes_state(d: int, shift: int, phase: int) -> PureState:
    """(1/sqrt d) sum_k exp(2 pi i * phase * k / d) |k> |k + shift mod d>."""
    amps = np.zeros(d * d, dtype=complex)
    for k in range(d):
        amps[k * d + (k + shift) % d] = np.exp(2j * np.pi * phase * k / d) / math.sqrt(d)
    return PureState((d, d), amps)


def _build_canonical_mes(params) -> Ensemble:
    vals = dict(params or {})
    d = int(vals.pop("d", 3))
    if d < 2:
        raise BadParams("d must be >= 2")
    block = vals.pop("block", None)
    count = vals.pop("count", None)
    indices = vals.pop("indices", None)
    if vals:
        raise BadParams(f"unknown parameters {sorted(vals)}")
    if sum(x is not None for x in (block, count, indices)) > 1:
        raise BadParams("give at most one of block, count, indices")
    if indices is None:
        if block is not None:
            m = int(block)
            if not 0 <= m < d:
                raise BadParams("block must lie in 0..d-1")
            indices = range(m * d, (m + 1) * d)
        elif count is not None:
            c = int(count)
            if not 1 <= c <= d * d:
                raise BadParams("count must lie in 1..d*d")
            indices = range(c)
        else:
            indices = range(d * d)
    indices = [int(i) for i in indices]
    if any(not 0 <= i < d * d for i in indices) or len(set(indices)) != len(indices):
        raise BadParams("indices must be distinct and lie in 0..d*d-1")
    # index = shift * d + phase, so one block occupies a contiguous chunk
    states = [canonical_mes_state(d, i // d, i % d) for i in indices]
    return Ensemble.uniform((d, d), states, name="canonical-mes")


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dims: tuple[int, int]
    size: int
    description: str
    parameters: dict
    orthogonal: bool
    product: bool


# name: (builder, description, parameter defaults), in the documented order
_CATALOG = {
    "e1-computational": (_build_e1, "two-qubit computational product basis", {}),
    "e2-case2": (_build_e2, "product basis distinguishable only when A starts", {}),
    "walgate-hardy": (_build_walgate_hardy,
                      "general two-qubit product basis from two single-qubit states", _WH_DEFAULTS),
    "case-3x2": (_build_case_3x2, "3x2 product basis that blocks an A-start protocol", {}),
    "nlwe-3x3": (_build_nlwe,
                 "two-qutrit full product basis exhibiting nonlocality without entanglement", {}),
    "tiles-upb": (_build_tiles, "tiles unextendible product basis in two qutrits", {}),
    "bell-pair": (_build_bell_pair, "two maximally entangled states phi+, phi-", {}),
    "bell-triple": (_build_bell_triple, "three Bell states phi+, phi-, psi-", {}),
    "bell-full": (_build_bell_full, "the full Bell basis", {}),
    "orth-pair": (_build_orth_pair, "two orthogonal, generally entangled states", _ORTH_DEFAULTS),
    "ghosh-nonmax": (_build_ghosh, "full basis of nonmaximally entangled two-qubit states",
                     _GHOSH_DEFAULTS),
    "more-nl-mes": (_build_more_nl_mes,
                    "three maximally entangled qutrit states, locally distinguishable", {}),
    "more-nl-mixed": (
        _build_more_nl_mixed,
        "two maximally entangled states plus a product state, locally indistinguishable", {}),
    "canonical-mes": (_build_canonical_mes,
                      "canonical maximally entangled basis, organized into shift blocks",
                      {"d": 3, "block": None, "count": None}),
}


def entries() -> list[CatalogEntry]:
    """Catalog descriptors in a stable, documented order; dims, size and the
    orthogonal and product flags are those of the entry's default build."""
    out = []
    for name, (builder, description, defaults) in _CATALOG.items():
        e = builder({})
        out.append(CatalogEntry(name, e.dims, len(e), description, dict(defaults),
                                e.is_orthogonal(), e.is_product()))
    return out


def build(name: str, params: dict | None = None) -> Ensemble:
    """Build a named ensemble; parameterized entries accept overrides."""
    if name not in _CATALOG:
        raise NoSuchEntry(f"unknown catalog entry {name!r}")
    return _CATALOG[name][0](params or {})
