"""Irreducibility testing and recursive dissection of orthogonal product sets.

Reducibility from one side is decided through that side's nonorthogonality
graph: members are vertices, and an edge joins two members whose local parts
on that side overlap beyond the tolerance. Connected components then give
the finest split into blocks supported on orthogonal local subspaces, so a
set is reducible from a side exactly when its graph is disconnected.

``dissect`` models two protocol flavors:

* With a fixed starting party, the start party performs its opening split
  and each resulting block is handed to the other party, who must finish it
  alone. Because graph components are maximal, a party can never refine its
  own components, so a handed-over block either resolves completely into
  singletons or becomes an irreducible leaf of the protocol.
* With no starting party, splits alternate freely until every block is a
  singleton or irreducible from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, GramNotIdentity, NotAState, NotProductEnsemble, TrivialSet
from .states import Ensemble, product_state


@dataclass(frozen=True)
class ProductSet:
    """Mutually orthogonal product states with probabilities."""

    dims: tuple[int, int]
    probabilities: tuple[float, ...]
    parts_a: tuple[np.ndarray, ...]
    parts_b: tuple[np.ndarray, ...]

    def __post_init__(self):
        k = len(self.probabilities)
        if k != len(self.parts_a) or k != len(self.parts_b) or k == 0:
            raise DimensionMismatch("probabilities and parts must pair up")
        pa = tuple(np.asarray(v, dtype=complex).ravel() for v in self.parts_a)
        pb = tuple(np.asarray(v, dtype=complex).ravel() for v in self.parts_b)
        if any(v.shape[0] != self.dims[0] for v in pa) or any(
            v.shape[0] != self.dims[1] for v in pb
        ):
            raise DimensionMismatch("local parts do not match dims")
        # positive conditions, so that NaN fails them
        for v in pa + pb:
            if not abs(np.linalg.norm(v) - 1.0) <= TOL.norm:
                raise NotAState("local parts must be normalized")
        if not all(0.0 < p <= 1.0 for p in self.probabilities):
            raise NotAState("probabilities must lie in (0, 1]")
        if not abs(sum(self.probabilities) - 1.0) <= TOL.prob_sum:
            raise NotAState("probabilities must sum to 1")
        overlaps_a = np.abs(np.conjugate(np.array(pa)) @ np.array(pa).T)
        overlaps_b = np.abs(np.conjugate(np.array(pb)) @ np.array(pb).T)
        joint = overlaps_a * overlaps_b
        np.fill_diagonal(joint, 0.0)
        if not joint.max() <= TOL.orthogonality:
            raise GramNotIdentity(
                "members must be mutually orthogonal (duplicates are rejected)"
            )
        object.__setattr__(self, "parts_a", pa)
        object.__setattr__(self, "parts_b", pb)

    def __len__(self) -> int:
        return len(self.probabilities)

    def parts(self, side: str):
        if side == "A":
            return self.parts_a
        if side == "B":
            return self.parts_b
        raise DimensionMismatch(f"unknown party {side!r}")

    def to_ensemble(self, indices=None) -> Ensemble:
        idx = list(range(len(self))) if indices is None else list(indices)
        mass = sum(self.probabilities[i] for i in idx)
        return Ensemble(
            self.dims,
            tuple(self.probabilities[i] / mass for i in idx),
            tuple(
                product_state(self.dims, self.parts_a[i], self.parts_b[i]) for i in idx
            ),
        )


def as_product_set(e: Ensemble) -> ProductSet:
    """Split every member of a product ensemble into its local parts."""
    if not e.is_product():
        raise NotProductEnsemble("member has Schmidt rank above one")
    # the leading Schmidt pair of each member, its coefficient (1 up to
    # normalization error) on the A part
    u, coeffs, vh = np.linalg.svd(e.amplitudes.reshape(len(e), *e.dims))
    parts_a, parts_b = u[:, :, 0] * coeffs[:, :1], vh[:, 0, :]
    return ProductSet(e.dims, e.probabilities, tuple(parts_a), tuple(parts_b))


# ---------------------------------------------------------------------------
# reducibility


def _components(pset: ProductSet, side: str, indices) -> list[tuple[int, ...]]:
    idx = list(indices)
    vecs = np.array([pset.parts(side)[i] for i in idx])
    adj = np.abs(np.conjugate(vecs) @ vecs.T) > TOL.orthogonality
    seen = [False] * len(idx)
    groups = []
    for start in range(len(idx)):
        if seen[start]:
            continue
        frontier = [start]
        seen[start] = True
        group = []
        while frontier:
            v = frontier.pop()
            group.append(idx[v])
            for w in range(len(idx)):
                if not seen[w] and adj[v, w]:
                    seen[w] = True
                    frontier.append(w)
        groups.append(tuple(sorted(group)))
    return sorted(groups)


def reducible_from(pset: ProductSet, side: str, indices=None):
    """Component partition from one side, or None when irreducible.

    Blocks are returned sorted; vectors in different blocks are orthogonal
    on ``side`` by construction of the nonorthogonality graph.
    """
    idx = list(range(len(pset))) if indices is None else list(indices)
    if len(idx) < 2:
        raise TrivialSet("need at least two members")
    groups = _components(pset, side, idx)
    return groups if len(groups) >= 2 else None


# ---------------------------------------------------------------------------
# dissection trees


@dataclass(frozen=True)
class DissectionNode:
    indices: tuple[int, ...]
    party: str | None = None                      # splitting party for internal nodes
    children: tuple["DissectionNode", ...] = ()
    leaf_kind: str | None = None                  # "singleton" | "irreducible"
    irreducible_from: dict = field(default_factory=dict, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf:
            yield self
        for child in self.children:
            yield from child.leaves()

    @property
    def fully_dissected(self) -> bool:
        return all(leaf.leaf_kind == "singleton" for leaf in self.leaves())

    def render(self, pset: ProductSet | None = None, prefix: str = "") -> str:
        mass = ""
        if pset is not None:
            mass = f" mass={sum(pset.probabilities[i] for i in self.indices):.4f}"
        if self.is_leaf:
            if self.leaf_kind == "singleton":
                head = f"{prefix}[{','.join(map(str, self.indices))}] leaf: singleton"
            else:
                sides = ",".join(s for s in ("A", "B") if self.irreducible_from.get(s))
                head = (
                    f"{prefix}[{','.join(map(str, self.indices))}] leaf: irreducible"
                    f" (from {sides or 'start party'}){mass}"
                )
            return head
        lines = [
            f"{prefix}[{','.join(map(str, self.indices))}] split by {self.party}{mass}"
        ]
        for child in self.children:
            lines.append(child.render(pset, prefix + "  "))
        return "\n".join(lines)


def _leaf(pset, indices) -> DissectionNode:
    idx = tuple(sorted(indices))
    if len(idx) == 1:
        return DissectionNode(idx, leaf_kind="singleton")
    flags = {side: reducible_from(pset, side, idx) is None for side in ("A", "B")}
    return DissectionNode(idx, leaf_kind="irreducible", irreducible_from=flags)


def _finishing_split(pset, indices, party) -> DissectionNode | None:
    """Split by ``party`` only if its components are all singletons."""
    groups = reducible_from(pset, party, indices)
    if groups is None or any(len(g) > 1 for g in groups):
        return None
    children = tuple(_leaf(pset, g) for g in groups)
    return DissectionNode(tuple(sorted(indices)), party=party, children=children)


def _free_dissect(pset, indices) -> DissectionNode:
    idx = tuple(sorted(indices))
    if len(idx) == 1:
        return _leaf(pset, idx)
    for party in ("A", "B"):
        groups = reducible_from(pset, party, idx)
        if groups is not None:
            children = tuple(_free_dissect(pset, g) for g in groups)
            return DissectionNode(idx, party=party, children=children)
    return _leaf(pset, idx)


def dissect(pset: ProductSet, first: str | None = None) -> DissectionNode:
    """Dissection tree; ``first`` fixes the party performing the opening split."""
    all_idx = tuple(range(len(pset)))
    if len(all_idx) == 1:
        return _leaf(pset, all_idx)
    if first is None:
        return _free_dissect(pset, all_idx)
    if first not in ("A", "B"):
        raise DimensionMismatch(f"unknown party {first!r}")
    groups = reducible_from(pset, first, all_idx)
    if groups is None:
        return _leaf(pset, all_idx)
    finisher = "B" if first == "A" else "A"
    children = []
    for g in groups:
        if len(g) == 1:
            children.append(_leaf(pset, g))
            continue
        finished = _finishing_split(pset, g, finisher)
        children.append(finished if finished is not None else _leaf(pset, g))
    return DissectionNode(all_idx, party=first, children=tuple(children))


def classify(pset: ProductSet) -> str:
    """Protocol class of the set, derived from dissection outcomes.

    A start party counts as successful when its opening split plus the other
    party's finishing moves resolve everything; free alternation is the
    fallback that distinguishes multiround sets from non-dissectible ones.
    """
    if len(pset) < 2:
        return "dissectible-either-side"
    full = {p: dissect(pset, p).fully_dissected for p in ("A", "B")}
    if full["A"] and full["B"]:
        return "dissectible-either-side"
    if full["A"] or full["B"]:
        return f"dissectible-one-side({'A' if full['A'] else 'B'})"
    if dissect(pset, None).fully_dissected:
        return "dissectible-multiround"
    return "non-dissectible"


def weighted_nonlocal_entropy(pset: ProductSet, first: str | None = None) -> float:
    """Leaf-mass weighted entanglement produced across the dissection tree.

    Every non-singleton leaf contributes its probability mass times the
    best-direction average entanglement the fixed controlled shift creates
    over the leaf's members; singleton leaves contribute nothing.
    """
    from .quantify import Mode, nonlocal_entropy

    tree = dissect(pset, first)
    total = 0.0
    for leaf in tree.leaves():
        if leaf.leaf_kind == "singleton":
            continue
        mass = sum(pset.probabilities[i] for i in leaf.indices)
        sub = pset.to_ensemble(leaf.indices)
        report = nonlocal_entropy(sub, Mode("fixed"))
        total += mass * max(report.right, report.left)
    return total
