"""Combinatorics of the extended configuration space of k clustering points.

Boundary strata of the compactified configuration space are encoded by
laminar families of index subsets of {1..k}: collections whose members are
pairwise nested or disjoint, arranged into a rooted cluster tree.  This
module builds those trees from their vertex sets and enumerates them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "IndexSubset",
    "ClusterTree",
    "enumerate_fmax_strata",
    "MAX_ENUMERATION_K",
    "MAX_AUGMENTED_K",
]

# The tree count grows like A000311 (k = 7: 39,208 trees; k = 8: 660,032)
# and with singleton leaves faster (k = 6: 176,128); the caps keep one
# enumeration to seconds and a few hundred MB.
MAX_ENUMERATION_K = 7
MAX_AUGMENTED_K = 6


@dataclass(frozen=True, order=True)
class IndexSubset:
    """A nonempty subset of {1..k}, stored sorted and deduplicated."""

    members: tuple[int, ...]
    k: int = field(compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("index subset must be nonempty")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and deduplicated")
        if self.members[0] < 1 or self.members[-1] > self.k:
            raise ValueError(f"members {self.members} not within 1..{self.k}")

    @classmethod
    def of(cls, members: Iterable[int], k: int) -> "IndexSubset":
        return cls(tuple(sorted(set(members))), k)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)

    def issubset(self, other: "IndexSubset") -> bool:
        return set(self.members) <= set(other.members)

    def isdisjoint(self, other: "IndexSubset") -> bool:
        return set(self.members).isdisjoint(other.members)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


class ClusterTree:
    """A stratum tree: a laminar family of index subsets ordered by containment.

    ``vertices`` is any iterable of subsets of one {1..k}, every two of them
    nested or disjoint.  The largest vertex is the root and must contain all
    the others; each other vertex's parent is its smallest strict superset in
    the family, so the family is the whole tree and each stratum has a unique
    representation.  The root-only tree is the interior (open) stratum.
    """

    def __init__(self, vertices: Iterable[IndexSubset]):
        # descending size: a vertex's supersets come before it, as a chain
        by_size = sorted(set(vertices), key=lambda v: (-len(v), v.members))
        if not by_size:
            raise ValueError("tree must have at least one vertex")
        self.root = by_size[0]
        self.k = self.root.k
        self.parent: dict[IndexSubset, Optional[IndexSubset]] = {}
        self._depth: dict[IndexSubset, int] = {}
        kids: dict[IndexSubset, list[IndexSubset]] = {}
        for i, v in enumerate(by_size):
            if v.k != self.k:
                raise ValueError("mixed ambient counts in tree")
            parent = None
            for w in by_size[:i]:
                if not v.isdisjoint(w):
                    if not v.issubset(w):
                        raise ValueError(f"vertices {v} and {w} cross")
                    parent = w
            if i and parent is None:
                raise ValueError(f"vertex {v} is not inside the root {self.root}")
            self.parent[v] = parent
            self._depth[v] = 0 if parent is None else self._depth[parent] + 1
            kids[v] = []
            if parent is not None:
                kids[parent].append(v)
        self._children = {v: tuple(sorted(c)) for v, c in kids.items()}
        self.vertices: tuple[IndexSubset, ...] = tuple(
            sorted(by_size, key=lambda v: (v.members[0], -len(v), v.members))
        )
        self._encoding = self._encode(self.root)

    def _encode(self, v: IndexSubset) -> str:
        kids = self._children[v]
        covered = {i for c in kids for i in c.members}
        items = [(i, str(i)) for i in v.members if i not in covered]
        items += [(c.members[0], self._encode(c)) for c in kids]
        return "(" + ",".join(s for _, s in sorted(items)) + ")"

    def children(self, v: IndexSubset) -> tuple[IndexSubset, ...]:
        return self._children[v]

    def depth(self, v: IndexSubset) -> int:
        """Number of edges from the root to ``v``; the root has depth 0."""
        return self._depth[v]

    @property
    def is_interior(self) -> bool:
        """True for the root-only tree, the open stratum of F_max."""
        return len(self.parent) == 1

    @property
    def codimension(self) -> int:
        """Number of vertices: the corner codimension the tree labels."""
        return len(self.parent)

    @property
    def height(self) -> int:
        """Longest root-to-leaf path length; the root-only tree has height 0."""
        return max(self._depth.values())

    def encode(self) -> str:
        """Canonical nested-parentheses encoding, e.g. ``((1,2),3,4)``."""
        return self._encoding

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClusterTree) and self.k == other.k and self._encoding == other._encoding

    def __hash__(self) -> int:
        return hash((self.k, self._encoding))

    def __repr__(self) -> str:
        return f"ClusterTree({self._encoding}, k={self.k})"


def _partial_partitions(pool: tuple[int, ...], min_size: int):
    """Yield collections of disjoint subsets of ``pool`` with sizes >= min_size.

    Blocks need not cover the pool.  Each collection is produced exactly
    once, blocks carrying their smallest uncovered element.
    """
    if not pool:
        yield []
        return
    head, rest = pool[0], pool[1:]
    # head left uncovered
    yield from _partial_partitions(rest, min_size)
    # head belongs to a block
    for size in range(min_size, len(pool) + 1):
        for comb in itertools.combinations(rest, size - 1):
            block = frozenset((head,) + comb)
            remaining = tuple(i for i in rest if i not in block)
            for part in _partial_partitions(remaining, min_size):
                yield [block] + part


def _families(ground: frozenset[int], k: int, min_size: int, cache: dict) -> list[frozenset[IndexSubset]]:
    """All laminar families whose largest member is ``ground``.

    Each family is ``{ground}`` joined with one family per child block; the
    cache holds one ``IndexSubset`` per distinct subset, shared by all trees.
    """
    if ground not in cache:
        top = frozenset([IndexSubset.of(ground, k)])
        cache[ground] = [
            top.union(*combo)
            for blocks in _partial_partitions(tuple(sorted(ground)), min_size)
            if blocks != [ground]  # a child is a strict subset
            for combo in itertools.product(*(_families(b, k, min_size, cache) for b in blocks))
        ]
    return cache[ground]


def enumerate_fmax_strata(k: int, augmented: bool = False) -> list[ClusterTree]:
    """All cluster trees rooted at {1..k}: the strata of the deepest face.

    Every laminar family of subsets of size >= 2 containing the root appears
    exactly once; a tree with v vertices labels a corner of codimension v,
    and the root-only tree is the open stratum (``is_interior``).  With
    ``augmented=True``, singleton leaves are allowed as terminal nodes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    cap = MAX_AUGMENTED_K if augmented else MAX_ENUMERATION_K
    if k > cap:
        kind = "augmented enumeration" if augmented else "enumeration"
        raise ValueError(f"{kind} limited to k <= {cap}")
    families = _families(frozenset(range(1, k + 1)), k, 1 if augmented else 2, {})
    return sorted(map(ClusterTree, families), key=ClusterTree.encode)
