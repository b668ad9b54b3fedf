"""The named ensembles exercised throughout the package, as one table.

Entry names are stable identifiers used by the CLI. Each member is normalized
explicitly, and each entry is built with uniform probabilities.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .config import MAX_DIM_PRODUCT, TOL
from .errors import BadParams, NoSuchEntry, TooLarge
from .states import Ensemble, PureState, is_integer, product_state

OMEGA3 = np.exp(2j * np.pi / 3)


def _ket(*amps) -> np.ndarray:
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def _joint(dims, parts) -> PureState:
    a, b = parts
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


def _bell(dims, kind) -> PureState:
    return bell_state(kind)


# ---------------------------------------------------------------------------
# builders


def _eta_pair(eta) -> tuple[np.ndarray, np.ndarray]:
    try:
        eta = np.asarray(eta, dtype=complex)
    except (TypeError, ValueError) as err:  # not numbers, or a ragged nesting
        raise BadParams(f"eta must be two finite components, not {eta!r}") from err
    if eta.shape != (2,) or not np.isfinite(eta).all():
        raise BadParams(f"eta must be two finite components, not {eta.tolist()}")
    n = np.linalg.norm(eta)
    if n == 0:
        raise BadParams("eta must be nonzero")
    eta = eta / n
    perp = np.array([-np.conjugate(eta[1]), np.conjugate(eta[0])])
    return eta, perp


def walgate_hardy_states(eta1, eta2) -> list[PureState]:
    """The four-product-state family {|0 eta1>, |1 eta2>, |0 eta1^perp>, |1 eta2^perp>}."""
    dims = (2, 2)
    e1, p1 = _eta_pair(eta1)
    e2, p2 = _eta_pair(eta2)
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


def _with_defaults(params, defaults):
    """``defaults`` updated by the non-None ``params``; ``BadParams`` on a key not in ``defaults``."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise BadParams(f"unknown parameters {sorted(unknown)}")
    return {**defaults, **{k: v for k, v in params.items() if v is not None}}


def _integer_param(vals: dict, key: str):
    """``vals[key]`` as an int, None if None; ``BadParams`` unless ``is_integer``."""
    value = vals[key]
    if value is None:
        return None
    if not is_integer(value):
        raise BadParams(f"{key} must be an integer, not {value!r}")
    return int(value)


def _real_param(vals: dict, key: str):
    """``vals[key]`` as a float, None if None; ``BadParams`` unless a finite
    real number (booleans are not)."""
    value = vals[key]
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise BadParams(f"{key} must be a finite real number, not {value!r}")
    return float(value)


def _ab_pairs(vals, suffixes):
    """The ``(a, b)`` pair of each suffix, from ``vals["a<suffix>"]`` and
    ``vals["b<suffix>"]``; a None ``b`` completes ``a`` to norm 1."""
    out = []
    for i in suffixes:
        a, b = _real_param(vals, f"a{i}"), _real_param(vals, f"b{i}")
        if b is None:
            if not 0.0 <= a <= 1.0:
                raise BadParams(f"a{i} must lie in [0, 1] when b{i} is omitted")
            b = math.sqrt(max(0.0, 1.0 - a * a))
        if not abs(a * a + b * b - 1.0) <= TOL.input_norm:
            raise BadParams(f"a{i}^2 + b{i}^2 must equal 1")
        out.append((a, b))
    return out


def _build_walgate_hardy(vals):
    return (2, 2), walgate_hardy_states(*_ab_pairs(vals, "12"))


def orth_pair_states(eta1, eta2) -> list[PureState]:
    """Two orthogonal (generally entangled) states built from eta1, eta2."""
    dims = (2, 2)
    e1, p1 = _eta_pair(eta1)
    e2, p2 = _eta_pair(eta2)
    psi1 = np.concatenate([e1, e2]) / math.sqrt(2)
    psi2 = np.concatenate([p1, p2]) / math.sqrt(2)
    return [PureState(dims, psi1), PureState(dims, psi2)]


def _build_orth_pair(vals):
    return (2, 2), orth_pair_states(*_ab_pairs(vals, "12"))


def ghosh_states(a: float, b: float) -> list[PureState]:
    dims = (2, 2)
    return [
        _pure(dims, [a, 0, 0, b]),
        _pure(dims, [-b, 0, 0, a]),
        _pure(dims, [0, a, b, 0]),
        _pure(dims, [0, -b, a, 0]),
    ]


def _build_ghosh(vals):
    [(a, b)] = _ab_pairs(vals, [""])
    count = _integer_param(vals, "count")
    if not 1 <= count <= 4:
        raise BadParams("count must lie in 1..4")
    return (2, 2), ghosh_states(a, b)[:count]


def canonical_mes_state(d: int, shift: int, phase: int) -> PureState:
    """(1/sqrt d) sum_k exp(2 pi i * phase * k / d) |k> |k + shift mod d>."""
    amps = np.zeros(d * d, dtype=complex)
    for k in range(d):
        amps[k * d + (k + shift) % d] = np.exp(2j * np.pi * phase * k / d) / math.sqrt(d)
    return PureState((d, d), amps)


def _build_canonical_mes(vals):
    d = _integer_param(vals, "d")
    if d < 2:
        raise BadParams("d must be >= 2")
    if d * d > MAX_DIM_PRODUCT:
        raise TooLarge(f"canonical-mes on {d}x{d}: d_A*d_B must be <= {MAX_DIM_PRODUCT}")
    block, count = _integer_param(vals, "block"), _integer_param(vals, "count")
    indices = vals["indices"]
    if sum(x is not None for x in (block, count, indices)) > 1:
        raise BadParams("give at most one of block, count, indices")
    if indices is None:
        if block is not None:
            if not 0 <= block < d:
                raise BadParams("block must lie in 0..d-1")
            indices = range(block * d, (block + 1) * d)
        elif count is not None:
            if not 1 <= count <= d * d:
                raise BadParams("count must lie in 1..d*d")
            indices = range(count)
        else:
            indices = range(d * d)
    indices = list(indices) if np.iterable(indices) else None
    if not indices or not all(is_integer(i) and 0 <= i < d * d for i in indices) \
            or len(set(indices)) != len(indices):
        raise BadParams("indices must be one or more distinct integers in 0..d*d-1")
    # index = shift * d + phase, so one block occupies a contiguous chunk
    return (d, d), [canonical_mes_state(d, i // d, i % d) for i in indices]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dims: tuple[int, int]
    size: int
    description: str
    parameters: dict
    orthogonal: bool
    product: bool


# ---------------------------------------------------------------------------
# the table


# name: (builder, description, parameter defaults), in the documented order;
# the defaults are the one source of each parameter's value: a builder is
# called with them, updated by the caller's non-None params, and gives
# ``(dims, members)``. A fixed set's builder is the row ``(dims, normalize,
# specs)``: its members are ``normalize(dims, spec)``, each spec unnormalized.
_CATALOG = {
    "e1-computational": (((2, 2), _joint, [([1, 0], [1, 0]), ([1, 0], [0, 1]),
                                           ([0, 1], [1, 0]), ([0, 1], [0, 1])]),
                         "two-qubit computational product basis", {}),
    "e2-case2": (((2, 2), _joint, [([1, 0], [1, 1]), ([1, 0], [1, -1]),
                                   ([0, 1], [1, 0]), ([0, 1], [0, 1])]),
                 "product basis distinguishable only when A starts", {}),
    "walgate-hardy": (_build_walgate_hardy,
                      "general two-qubit product basis from two single-qubit states",
                      {"a1": 1 / math.sqrt(2), "b1": None, "a2": 1.0, "b2": None}),
    "case-3x2": (((3, 2), _joint, [([0, 1, 1], [1, 0]), ([0, 1, -1], [1, 0]),
                                   ([0, 1, 0], [0, 1]), ([0, 0, 1], [0, 1]),
                                   ([1, 0, 0], [1, 0]), ([1, 0, 0], [0, 1])]),
                 "3x2 product basis that blocks an A-start protocol", {}),
    "nlwe-3x3": (((3, 3), _joint, [([0, 1, 0], [0, 1, 0]),
                                   ([1, 0, 0], [1, 1, 0]),
                                   ([1, 0, 0], [1, -1, 0]),
                                   ([0, 0, 1], [0, 1, 1]),
                                   ([0, 0, 1], [0, 1, -1]),
                                   ([0, 1, 1], [1, 0, 0]),
                                   ([0, 1, -1], [1, 0, 0]),
                                   ([1, 1, 0], [0, 0, 1]),
                                   ([1, -1, 0], [0, 0, 1])]),
                 "two-qutrit full product basis exhibiting nonlocality without entanglement", {}),
    "tiles-upb": (((3, 3), _joint, [([1, 0, 0], [1, -1, 0]),
                                    ([0, 0, 1], [0, 1, -1]),
                                    ([1, -1, 0], [0, 0, 1]),
                                    ([0, 1, -1], [1, 0, 0]),
                                    ([1, 1, 1], [1, 1, 1])]),
                  "tiles unextendible product basis in two qutrits", {}),
    "bell-pair": (((2, 2), _bell, ["phi+", "phi-"]),
                  "two maximally entangled states phi+, phi-", {}),
    "bell-triple": (((2, 2), _bell, ["phi+", "phi-", "psi-"]),
                    "three Bell states phi+, phi-, psi-", {}),
    "bell-full": (((2, 2), _bell, ["phi+", "phi-", "psi+", "psi-"]), "the full Bell basis", {}),
    "orth-pair": (_build_orth_pair, "two orthogonal, generally entangled states",
                  {"a1": 4 / 5, "b1": None, "a2": 3 / 4, "b2": None}),
    "ghosh-nonmax": (_build_ghosh, "full basis of nonmaximally entangled two-qubit states",
                     {"a": 4 / 5, "b": None, "count": 4}),
    "more-nl-mes": (((3, 3), _pure, [[1, 0, 0, 0, OMEGA3, 0, 0, 0, OMEGA3**2],
                                     [1, 0, 0, 0, OMEGA3**2, 0, 0, 0, OMEGA3],
                                     [0, 1, 0, 0, 0, 1, 1, 0, 0]]),
                    "three maximally entangled qutrit states, locally distinguishable", {}),
    "more-nl-mixed": (
        ((3, 3), _pure, [[1, 0, 0, 0, OMEGA3, 0, 0, 0, OMEGA3**2],
                         [1, 0, 0, 0, OMEGA3**2, 0, 0, 0, OMEGA3],
                         [0, 1, 0, 0, 0, 0, 0, 0, 0]]),
        "two maximally entangled states plus a product state, locally indistinguishable", {}),
    "canonical-mes": (_build_canonical_mes,
                      "canonical maximally entangled basis, organized into shift blocks",
                      {"d": 3, "block": None, "count": None, "indices": None}),
}


def _make(name: str, vals: dict) -> Ensemble:
    """Entry ``name`` from its row, with uniform probabilities and its table key
    as its name; ``vals`` are the parameters a parameterized entry's builder reads."""
    row = _CATALOG[name][0]
    if callable(row):
        dims, members = row(vals)
    else:
        dims, normalize, specs = row
        members = [normalize(dims, spec) for spec in specs]
    return Ensemble.uniform(dims, members, name=name)


@functools.cache
def _default(name: str) -> Ensemble:
    """The entry built with its defaults, once per process; every array of it is read-only."""
    return _make(name, dict(_CATALOG[name][2]))


def entries() -> list[CatalogEntry]:
    """Catalog descriptors in a stable, documented order; dims, size and the
    orthogonal and product flags are those of the entry's default build."""
    out = []
    for name, (_, description, defaults) in _CATALOG.items():
        e = _default(name)
        out.append(CatalogEntry(name, e.dims, len(e), description, dict(defaults),
                                e.is_orthogonal(), e.is_product()))
    return out


def build(name: str, params: dict | None = None) -> Ensemble:
    """A named ensemble. With no ``params`` (or ``{}``) the one default build of
    the entry, shared by every caller; parameterized entries build afresh from
    overrides, and the rest reject any."""
    if not isinstance(name, str) or name not in _CATALOG:
        raise NoSuchEntry(f"unknown catalog entry {name!r}")
    if not params:
        return _default(name)
    defaults = _CATALOG[name][2]
    if not defaults:
        raise BadParams(f"{name} takes no parameters, not {sorted(params)}")
    return _make(name, _with_defaults(params, defaults))
