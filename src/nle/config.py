"""Centralized numeric tolerances and input size limits.

Every module reads its thresholds from the single ``TOL`` instance so that
all cutoffs live in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-10        # max |M - M^dag| accepted as Hermitian
    unitary: float = 1e-10          # max |U^dag U - I| accepted as unitary
    psd: float = 1e-10              # eigenvalues >= -psd accepted as PSD
    norm: float = 1e-10             # state-vector normalization
    prob_sum: float = 1e-10         # ensemble probabilities sum to 1
    orthogonality: float = 1e-9     # Gram-identity check of orthogonal flags and the
                                    # inner-product threshold of dissection graphs
    product_rank: float = 1e-10     # 1 - (largest squared Schmidt coeff) for product flag
    eig_floor: float = 1e-12        # eigenvalues below this contribute 0 to entropy
    value: float = 1e-9             # quantifier non-negativity clip
    capacity_gap: float = 1e-12     # gap (bits) from a proven upper bound that certifies a value:
                                    # a shift capacity, a delta's plain shifts at its ceiling
    gradient: float = 1e-9          # Riemannian gradient norm that ends an lu ascent
    input_norm: float = 1e-8        # caller-supplied normalizations (file norms and
                                    # probability sums, catalog a^2 + b^2, vn_entropy trace)


TOL = Tolerances()

# Largest ensemble ``Ensemble`` accepts. Fixed mode gathers (d_A + d_B - 1) * k *
# d_A*d_B complex numbers, at most 256 * 512 * 256 * 16 bytes = 512 MiB here.
MAX_DIM_PRODUCT = 256  # d_A*d_B
MAX_MEMBERS = 512      # k

# Largest search ``Mode`` accepts: a search draws ``restarts`` starts of
# ``depth`` layers before its first step. Far above any shipped use (16
# restarts, depth 3); a bound on absurd inputs, not on memory.
MAX_RESTARTS = 256
MAX_DEPTH = 32

# step rules of the U(d) ascents (``quantify._ascend``) and the sphere's (``qubits._sphere_ascent``)
_ASCENT_ROUNDS = 10_000  # steps of one ascent before it is given up
_ARMIJO = 1e-4           # fraction of the first-order gain a step must realize
_GAIN_FLOOR = 1e-15      # a step predicted to gain less is lost in float noise
