"""Holevo quantities, shift-gate bounds on locally accessible information,
and the two-qubit CHSH maximum.

The accessible-information relations compare quantities that cannot be
evaluated exactly, so this module reports only the computable endpoints of
each relation and flags which relation applies; it never produces a value
for the locally accessible information itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import UnsupportedDims
from .states import (
    Ensemble,
    average_state,
    entanglement_entropies,
    marginal_entropies,
    vn_entropy,
)
from .gates import apply_cnot


@dataclass(frozen=True)
class BoundsReport:
    chi: float
    local_holevo: float
    cnot_lower_comparator: float | None
    cnot_upper_bound: float | None
    product_input: bool
    entangled_members_after: int
    direction: str

    @property
    def applicable(self) -> dict:
        return {
            "product-lower-relation": self.product_input,
            "entangled-upper-relation": not self.product_input,
            "upper-effective": (not self.product_input) and self.entangled_members_after > 0,
        }


def holevo_chi(e: Ensemble) -> float:
    """S(average state) minus the average member entropy (zero, members are pure)."""
    return vn_entropy(average_state(e))


def _member_entropy_average(e: Ensemble) -> float:
    # pure members: both marginals carry the same entropy
    return float(np.array(e.probabilities) @ entanglement_entropies(e.amplitudes, e.dims))


def local_holevo(e: Ensemble) -> float:
    """S(rho_A) + S(rho_B) - max over parties of the average member marginal entropy."""
    s_a, s_b = marginal_entropies(e)
    return s_a + s_b - _member_entropy_average(e)


def cnot_bounds(e: Ensemble, direction: str = "right") -> BoundsReport:
    """Computable endpoints of the shift-gate information-bound relations.

    Product inputs: the transformed ensemble can only be harder to
    distinguish locally, so its local Holevo value is reported as the
    comparator of the lower-bound relation. Inputs with entanglement: the
    transformed local Holevo value upper-bounds the original locally
    accessible information; the bound is flagged effective when some members
    stay entangled after the gate.
    """
    control = "A" if direction == "right" else "B"
    transformed = Ensemble(
        e.dims,
        e.probabilities,
        tuple(apply_cnot(s, control, 1) for s in e.states),
    )
    lh_after = local_holevo(transformed)
    entangled_after = int(
        np.count_nonzero(entanglement_entropies(transformed.amplitudes, e.dims) > TOL.value)
    )
    product_input = e.is_product()
    return BoundsReport(
        chi=holevo_chi(e),
        local_holevo=local_holevo(e),
        cnot_lower_comparator=lh_after if product_input else None,
        cnot_upper_bound=None if product_input else lh_after,
        product_input=product_input,
        entangled_members_after=entangled_after,
        direction=direction,
    )


def concurrence(s) -> float:
    """Two-qubit pure-state concurrence 2|a d - b c|."""
    if s.dims != (2, 2):
        raise UnsupportedDims("concurrence needs a 2x2 state")
    a, b, c, d = s.amplitudes
    return float(2.0 * abs(a * d - b * c))


def chsh_max(s) -> float:
    """Largest CHSH value 2 sqrt(1 + C^2) reachable with a two-qubit pure state."""
    if s.dims != (2, 2):
        raise UnsupportedDims("CHSH evaluation needs a 2x2 state")
    return float(2.0 * math.sqrt(1.0 + concurrence(s) ** 2))
