"""Holevo quantities and shift-gate bounds on locally accessible information.

The accessible-information relations compare quantities that cannot be
evaluated exactly, so this module reports only the computable endpoints of
each relation and flags which relation applies; it never produces a value
for the locally accessible information itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import BadParams
from .linalg import DIRECTIONS, cnot_family
from .states import Ensemble, average_state, vn_entropy


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


def local_holevo(e: Ensemble) -> float:
    """S(rho_A) + S(rho_B) - max over parties of the average member marginal entropy."""
    return _local_holevo(e.mixture_entropies, e.entanglement, np.array(e.probabilities))


def _local_holevo(s_ab, ents: np.ndarray, probs: np.ndarray) -> float:
    """``local_holevo`` from the mixture's marginal entropies ``s_ab`` and the
    members' entanglement ``ents`` (pure members: both marginals of one carry
    the same entropy)."""
    return s_ab[0] + s_ab[1] - float(probs @ ents)


def cnot_bounds(e: Ensemble, direction: str = "right") -> BoundsReport:
    """Computable endpoints of the shift-gate information-bound relations.

    Product inputs: the transformed ensemble can only be harder to
    distinguish locally, so its local Holevo value is reported as the
    comparator of the lower-bound relation. Inputs with entanglement: the
    transformed local Holevo value upper-bounds the original locally
    accessible information; the bound is flagged effective when some members
    stay entangled after the gate. ``direction`` is "right" (A controls) or
    "left" (B controls). The transformed ensemble's values are the r=1 rows
    of the ensemble's memo of the fixed circuit.
    """
    if not isinstance(e, Ensemble):
        raise BadParams(f"expected an Ensemble, not {type(e).__name__}")
    if direction not in DIRECTIONS:
        raise BadParams(f"unknown direction {direction!r}")
    probs = np.array(e.probabilities)
    c = cnot_family(e.dims).index((direction, 1))
    ents_after = e.cnot_entanglement[c]
    lh_after = _local_holevo(e.cnot_mixture_entropies[c].tolist(), ents_after, probs)
    product_input = e.is_product()
    return BoundsReport(
        chi=holevo_chi(e),
        local_holevo=local_holevo(e),
        cnot_lower_comparator=lh_after if product_input else None,
        cnot_upper_bound=None if product_input else lh_after,
        product_input=product_input,
        entangled_members_after=int(np.count_nonzero(ents_after > TOL.value)),
        direction=direction,
    )

