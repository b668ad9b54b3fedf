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

A block of members is a bitmask, bit i for member i; index tuples are made
only for the blocks ``reducible_from`` returns and ``DissectionNode.indices``.
``dissect`` builds the tree, for ``nle dissect`` and
``weighted_nonlocal_entropy``; ``classify`` reads the same outcome off one
component search per split, and a finishing move is one edge test.
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
    as neighbour bitmasks, is computed once per view and kept on it.
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


def _side(side: str) -> int:
    if side not in ("A", "B"):
        raise DimensionMismatch(f"unknown party {side!r}")
    return ("A", "B").index(side)


def as_product_set(e: Ensemble) -> ProductSet:
    """The product-set view of a product ensemble with orthogonal members."""
    return ProductSet(e)


# ---------------------------------------------------------------------------
# reducibility


def _members(block: int) -> tuple[int, ...]:
    """The sorted member indices of a bitmask block."""
    return tuple(i for i in range(block.bit_length()) if block >> i & 1)


def _components(pset: ProductSet, side: str, mask: int) -> list[int]:
    """Connected components of the side's graph on the members in ``mask``,
    one mask each, in the order of their least members; each grows from its
    least member by a frontier of members whose neighbours are not yet read."""
    neighbours = pset._neighbours[_side(side)]
    left, blocks = mask, []
    while left:
        block = frontier = left & -left  # the least member not yet placed
        while frontier:
            low = frontier & -frontier
            grown = neighbours[low.bit_length() - 1] & left & ~block
            block |= grown
            frontier = (frontier ^ low) | grown
        left &= ~block
        blocks.append(block)
    return blocks


def reducible_from(pset: ProductSet, side: str, indices=None):
    """Component partition from one side, or None when irreducible.

    Blocks are returned sorted; vectors in different blocks are orthogonal
    on ``side`` by construction of the nonorthogonality graph. ``indices``
    must be distinct member indices (``BadParams`` otherwise).
    """
    idx = range(len(pset)) if indices is None else pset.ensemble.member_indices(indices)
    if len(idx) < 2:
        raise TrivialSet("need at least two members")
    blocks = _components(pset, side, sum(1 << i for i in idx))
    return [_members(b) for b in blocks] if len(blocks) >= 2 else None


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
        label = f"{prefix}[{','.join(map(str, self.indices))}]"
        mass = ""
        if pset is not None:
            mass = f" mass={sum(pset.probabilities[i] for i in self.indices):.4f}"
        if self.leaf_kind == "singleton":
            return f"{label} leaf: singleton"
        if self.is_leaf:
            sides = ",".join(s for s in ("A", "B") if self.irreducible_from.get(s))
            return f"{label} leaf: irreducible (from {sides or 'start party'}){mass}"
        lines = [f"{label} split by {self.party}{mass}"]
        lines += [child.render(pset, prefix + "  ") for child in self.children]
        return "\n".join(lines)


def _leaf(pset, block: int, found: dict | None = None) -> DissectionNode:
    """The leaf of ``block``; ``found`` holds the components of the sides
    already searched, and only the others are searched."""
    idx = _members(block)
    if len(idx) == 1:
        return DissectionNode(idx, leaf_kind="singleton")
    found = found or {}
    flags = {side: len(found[side] if side in found else _components(pset, side, block)) < 2
             for side in ("A", "B")}
    return DissectionNode(idx, leaf_kind="irreducible", irreducible_from=flags)


def _finishes(pset, party: str, block: int) -> bool:
    """True when ``party`` splits ``block`` into singletons: no edge of its
    graph joins two members of the block."""
    neighbours = pset._neighbours[_side(party)]
    return all(neighbours[i] & block == 1 << i for i in _members(block))


def _free_dissect(pset, block: int) -> DissectionNode:
    if block & (block - 1) == 0:
        return _leaf(pset, block)
    found = {}
    for party in ("A", "B"):
        blocks = found[party] = _components(pset, party, block)
        if len(blocks) >= 2:
            children = tuple(_free_dissect(pset, b) for b in blocks)
            return DissectionNode(_members(block), party=party, children=children)
    return _leaf(pset, block, found)


def dissect(pset: ProductSet, first: str | None = None) -> DissectionNode:
    """Dissection tree; ``first`` fixes the party performing the opening split."""
    everyone = (1 << len(pset)) - 1
    if len(pset) == 1:
        return _leaf(pset, everyone)
    if first is None:
        return _free_dissect(pset, everyone)
    if first not in ("A", "B"):
        raise DimensionMismatch(f"unknown party {first!r}")
    blocks = _components(pset, first, everyone)
    if len(blocks) < 2:
        return _leaf(pset, everyone, {first: blocks})
    finisher = "B" if first == "A" else "A"
    # the finisher splits a block only into singletons, or leaves it a leaf
    children = tuple(
        DissectionNode(_members(b), party=finisher,
                       children=tuple(_leaf(pset, 1 << i) for i in _members(b)))
        if b & (b - 1) and _finishes(pset, finisher, b) else _leaf(pset, b)
        for b in blocks
    )
    return DissectionNode(_members(everyone), party=first, children=children)


def _free_finishes(pset, splits) -> bool:
    """``_free_dissect(...).fully_dissected``, with no tree: ``splits`` yields
    A's components of a block, then B's, and the first of two or more blocks
    is taken; each of its blocks is a singleton or finishes alike."""
    blocks = next((s for s in splits if len(s) >= 2), None)
    return blocks is not None and all(
        b & (b - 1) == 0 or _free_finishes(pset, (_components(pset, p, b) for p in ("A", "B")))
        for b in blocks)


def classify(pset: ProductSet) -> str:
    """Protocol class of the set, the outcome ``dissect`` would give.

    A start party counts as successful when its opening split plus the other
    party's finishing moves resolve everything; free alternation is the
    fallback that distinguishes multiround sets from non-dissectible ones.
    Each opening split is searched once and read by both checks; no tree is
    built.
    """
    if len(pset) < 2:
        return "dissectible-either-side"
    everyone = (1 << len(pset)) - 1
    opening = {p: _components(pset, p, everyone) for p in ("A", "B")}
    full = {p: len(opening[p]) >= 2 and all(_finishes(pset, finisher, b) for b in opening[p])
            for p, finisher in (("A", "B"), ("B", "A"))}
    if full["A"] and full["B"]:
        return "dissectible-either-side"
    if full["A"] or full["B"]:
        return f"dissectible-one-side({'A' if full['A'] else 'B'})"
    if _free_finishes(pset, (opening[p] for p in ("A", "B"))):
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
