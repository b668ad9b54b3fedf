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

``dissect`` builds the tree, for ``nle dissect`` and
``weighted_nonlocal_entropy``; ``classify`` reads the same outcome off the
component partitions and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, GramNotIdentity, NotProductEnsemble, TrivialSet
from .states import Ensemble


@dataclass(frozen=True, eq=False)
class ProductSet:
    """A product ensemble of mutually orthogonal members, read as local parts.

    A view: the members, probabilities and local parts are those of
    ``ensemble`` (its ``schmidt_pairs``). Each side's nonorthogonality graph,
    as neighbour bitmasks, and each component partition are computed once
    per view and kept on it.
    A view is equal only to itself.
    """

    ensemble: Ensemble

    def __post_init__(self):
        if not self.ensemble.is_product():
            raise NotProductEnsemble("member has Schmidt rank above one")
        if not self.ensemble.is_orthogonal():
            raise GramNotIdentity("members must be mutually orthogonal (duplicates are rejected)")

    @property
    def dims(self) -> tuple[int, int]:
        return self.ensemble.dims

    @property
    def probabilities(self) -> tuple[float, ...]:
        return self.ensemble.probabilities

    def __len__(self) -> int:
        return len(self.ensemble)

    def parts(self, side: str) -> np.ndarray:
        """Read-only ``(k, d_side)`` local parts of the members on ``side``."""
        return self.ensemble.schmidt_pairs[_side(side)]

    @cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Per side, member i's neighbours in that side's nonorthogonality graph
        as a bitmask, bit j for member j; i is its own neighbour."""
        graphs = (np.abs(np.conjugate(v) @ v.T) > TOL.orthogonality
                  for v in self.ensemble.schmidt_pairs)
        return tuple(tuple(int.from_bytes(row.tobytes(), "little")
                           for row in np.packbits(g, axis=1, bitorder="little")) for g in graphs)

    @cached_property
    def _partitions(self) -> dict:
        """``(side, sorted indices)`` -> component partition, each decided once."""
        return {}


def _side(side: str) -> int:
    if side not in ("A", "B"):
        raise DimensionMismatch(f"unknown party {side!r}")
    return ("A", "B").index(side)


def as_product_set(e: Ensemble) -> ProductSet:
    """The product-set view of a product ensemble with orthogonal members."""
    return ProductSet(e)


# ---------------------------------------------------------------------------
# reducibility


def _components(pset: ProductSet, side: str, indices) -> list[tuple[int, ...]]:
    """Connected components, each sorted, of the side's graph on sorted
    ``indices``, in the order of their least members; each grows from its
    least member by a frontier of members whose neighbours are not yet read."""
    neighbours = pset._neighbours[_side(side)]
    left, groups = sum(1 << i for i in indices), []
    while left:
        block = frontier = left & -left  # the least member not yet placed
        while frontier:
            low = frontier & -frontier
            grown = neighbours[low.bit_length() - 1] & left & ~block
            block |= grown
            frontier = (frontier ^ low) | grown
        left &= ~block
        groups.append(tuple(i for i in indices if block >> i & 1))
    return groups


def reducible_from(pset: ProductSet, side: str, indices=None):
    """Component partition from one side, or None when irreducible.

    Blocks are returned sorted; vectors in different blocks are orthogonal
    on ``side`` by construction of the nonorthogonality graph. ``indices``
    must be distinct member indices (``BadParams`` otherwise).
    """
    idx = range(len(pset)) if indices is None else pset.ensemble.member_indices(indices)
    if len(idx) < 2:
        raise TrivialSet("need at least two members")
    return _partition(pset, side, tuple(sorted(idx)))


def _partition(pset: ProductSet, side: str, idx: tuple[int, ...]):
    """``reducible_from`` on a sorted tuple of two or more valid indices,
    decided once per view and side."""
    if (side, idx) not in pset._partitions:
        pset._partitions[side, idx] = _components(pset, side, idx)
    groups = pset._partitions[side, idx]
    return list(groups) if len(groups) >= 2 else None


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
    flags = {side: _partition(pset, side, idx) is None for side in ("A", "B")}
    return DissectionNode(idx, leaf_kind="irreducible", irreducible_from=flags)


def _into_singletons(pset, idx, party) -> bool:
    """True when ``party``'s components of ``idx`` are all singletons."""
    groups = _partition(pset, party, idx)
    return groups is not None and all(len(g) == 1 for g in groups)


def _free_dissect(pset, indices) -> DissectionNode:
    idx = tuple(sorted(indices))
    if len(idx) == 1:
        return _leaf(pset, idx)
    for party in ("A", "B"):
        groups = _partition(pset, party, idx)
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
    groups = _partition(pset, first, all_idx)
    if groups is None:
        return _leaf(pset, all_idx)
    finisher = "B" if first == "A" else "A"
    # the finisher splits a block only into singletons, or leaves it a leaf
    children = tuple(
        DissectionNode(g, party=finisher, children=tuple(_leaf(pset, (i,)) for i in g))
        if len(g) > 1 and _into_singletons(pset, g, finisher) else _leaf(pset, g)
        for g in groups
    )
    return DissectionNode(all_idx, party=first, children=children)


def _start_finishes(pset, first: str) -> bool:
    """``dissect(pset, first).fully_dissected``, with no tree: ``first`` splits
    all members, and the other party splits each block into singletons."""
    groups = _partition(pset, first, tuple(range(len(pset))))
    finisher = "B" if first == "A" else "A"
    return groups is not None and all(len(g) == 1 or _into_singletons(pset, g, finisher)
                                      for g in groups)


def _free_finishes(pset, idx) -> bool:
    """``_free_dissect(pset, idx).fully_dissected``, with no tree: A splits the
    block, or else B does, and so on down to singletons."""
    if len(idx) == 1:
        return True
    groups = _partition(pset, "A", idx) or _partition(pset, "B", idx)
    return groups is not None and all(_free_finishes(pset, g) for g in groups)


def classify(pset: ProductSet) -> str:
    """Protocol class of the set, the outcome ``dissect`` would give.

    A start party counts as successful when its opening split plus the other
    party's finishing moves resolve everything; free alternation is the
    fallback that distinguishes multiround sets from non-dissectible ones.
    Decided from the component partitions alone; no tree is built.
    """
    if len(pset) < 2:
        return "dissectible-either-side"
    full = {p: _start_finishes(pset, p) for p in ("A", "B")}
    if full["A"] and full["B"]:
        return "dissectible-either-side"
    if full["A"] or full["B"]:
        return f"dissectible-one-side({'A' if full['A'] else 'B'})"
    if _free_finishes(pset, tuple(range(len(pset)))):
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
        report = nonlocal_entropy(pset.ensemble.subset(leaf.indices), Mode("fixed"))
        total += mass * max(report.right, report.left)
    return total
