"""Quantifiers and protocol machinery for local distinguishability of
bipartite pure-state ensembles.

Two complementary figures of merit are provided: the entanglement a
controlled-shift based transformation creates across a product ensemble
(``nonlocal_entropy``), and the reduction in local entropy of the
ensemble-average state the transformation can achieve when members are
entangled (``average_entropy_gap``). Supporting machinery covers
irreducibility and dissection of orthogonal product sets, accessible
information bounds, a catalog of named ensembles, and a CLI (``nle``).
"""

from .config import TOL, Tolerances
from .states import (
    Ensemble,
    PureState,
    average_state,
    entanglement_entropy,
    marginal_entropies,
    product_state,
    schmidt,
    vn_entropy,
)
from .gates import apply, apply_cnot, cnot, embed_local
from .dissect import (
    DissectionNode,
    ProductSet,
    as_product_set,
    classify,
    dissect,
    reducible_from,
    weighted_nonlocal_entropy,
)
from .quantify import (
    Mode,
    QuantifierReport,
    average_entropy_gap,
    nonlocal_entropy,
)
from .infobounds import BoundsReport, cnot_bounds, holevo_chi, local_holevo
from .qubits import chsh_max, concurrence
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "Ensemble",
    "PureState",
    "ProductSet",
    "DissectionNode",
    "Mode",
    "QuantifierReport",
    "BoundsReport",
    "average_state",
    "entanglement_entropy",
    "marginal_entropies",
    "product_state",
    "schmidt",
    "vn_entropy",
    "apply",
    "apply_cnot",
    "cnot",
    "embed_local",
    "as_product_set",
    "classify",
    "dissect",
    "reducible_from",
    "weighted_nonlocal_entropy",
    "average_entropy_gap",
    "nonlocal_entropy",
    "chsh_max",
    "cnot_bounds",
    "concurrence",
    "holevo_chi",
    "local_holevo",
    "catalog",
]
