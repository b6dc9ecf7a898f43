"""Combinatorics of the extended configuration space of k clustering points.

Boundary strata of the compactified configuration space are encoded by
laminar families of index subsets of {1..k}: collections whose members are
pairwise nested or disjoint, arranged into a rooted cluster tree.  This
module builds those trees from their vertex sets, checking them, and
enumerates them by joining each root to shared, already built subtrees,
which are not checked again.  A tree is its root and those subtrees, and
nothing else: there is no parent map or depth table, and whatever walks a
tree recurses over ``subtrees``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "IndexSubset",
    "ClusterTree",
    "enumerate_fmax_strata",
    "MAX_ENUMERATION_K",
    "MAX_AUGMENTED_K",
]

# The tree count grows like A000311 (k = 7: 39,208 trees; k = 8: 660,032)
# and with singleton leaves faster (k = 6: 176,128; k = 7 more still).  At
# the caps, on a 2-core VM with Python 3.11, one enumeration takes 0.13 s
# (k = 7) and 0.60 s (augmented k = 6), and a cold `faces` run 0.26 s at
# 53 MB RSS and 0.93 s at 162 MB.  k = 8 has 17 times the trees of k = 7.
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


def _by_size(v: IndexSubset) -> tuple:
    # descending size: a vertex's supersets come before it, as a chain
    return (-len(v), v.members)


class ClusterTree:
    """A stratum tree: a laminar family of index subsets ordered by containment.

    A tree is its ``root`` vertex plus ``subtrees``, the trees rooted at the
    root's children, ordered by smallest index.  Three facts are computed
    from the subtrees when the tree is built: ``codimension``, the number of
    vertices (the corner codimension the tree labels); ``height``, the
    longest root-to-leaf path (0 for the root-only tree); and the encoding.
    ``vertices`` is collected from the subtrees on first use; a vertex's
    children are the roots of its subtree's ``subtrees``, so anything that
    walks the tree recurses over ``subtrees``.

    ``ClusterTree(vertices)`` validates outside input: ``vertices`` is any
    iterable of subsets of one {1..k}, every two of them nested or disjoint.
    The largest vertex is the root and must contain all the others; each
    other vertex's parent is its smallest strict superset in the family, so
    the family is the whole tree and each stratum has a unique
    representation.  The root-only tree is the interior (open) stratum.
    """

    def __init__(self, vertices: Iterable[IndexSubset]):
        by_size = sorted(set(vertices), key=_by_size)
        if not by_size:
            raise ValueError("tree must have at least one vertex")
        root = by_size[0]
        kids: dict[IndexSubset, list[IndexSubset]] = {}
        for i, v in enumerate(by_size):
            if v.k != root.k:
                raise ValueError("mixed ambient counts in tree")
            parent = None
            for w in by_size[:i]:
                if not v.isdisjoint(w):
                    if not v.issubset(w):
                        raise ValueError(f"vertices {v} and {w} cross")
                    parent = w
            if i and parent is None:
                raise ValueError(f"vertex {v} is not inside the root {root}")
            kids[v] = []
            if parent is not None:
                kids[parent].append(v)
        # ascending size: every child subtree is built before its parent's
        built: dict[IndexSubset, ClusterTree] = {}
        for v in reversed(by_size[1:]):
            built[v] = ClusterTree._join(v, tuple(built[c] for c in sorted(kids[v])))
        self._set(root, tuple(built[c] for c in sorted(kids[root])))

    @classmethod
    def _join(cls, root: IndexSubset, subtrees: tuple[ClusterTree, ...]) -> ClusterTree:
        """The tree at ``root`` over ``subtrees``, trusted to be laminar and ordered."""
        tree = cls.__new__(cls)
        tree._set(root, subtrees)
        return tree

    def _set(self, root: IndexSubset, subtrees: tuple[ClusterTree, ...]) -> None:
        self.root = root
        self.k = root.k
        self.subtrees = subtrees
        self.codimension = 1 + sum(s.codimension for s in subtrees)
        self.height = 1 + max(s.height for s in subtrees) if subtrees else 0
        covered = {i for s in subtrees for i in s.root.members}
        items = [(i, str(i)) for i in root.members if i not in covered]
        items += [(s.root.members[0], s._encoding) for s in subtrees]
        self._encoding = "(" + ",".join(e for _, e in sorted(items)) + ")"

    @functools.cached_property
    def vertices(self) -> tuple[IndexSubset, ...]:
        """Every vertex, ordered by smallest index and then by descending size."""
        found = [self.root, *(v for s in self.subtrees for v in s.vertices)]
        return tuple(sorted(found, key=lambda v: (v.members[0], -len(v), v.members)))

    @property
    def is_interior(self) -> bool:
        """True for the root-only tree, the open stratum of F_max."""
        return not self.subtrees

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


def _families(ground: frozenset[int], k: int, min_size: int, cache: dict) -> list[ClusterTree]:
    """All cluster trees rooted at ``ground``.

    Each tree joins ``ground`` to one cached tree per child block, so a
    subtree is built once and shared by every tree that contains it.
    """
    if ground not in cache:
        root = IndexSubset.of(ground, k)
        cache[ground] = [
            ClusterTree._join(root, combo)
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
    trees = _families(frozenset(range(1, k + 1)), k, 1 if augmented else 2, {})
    return sorted(trees, key=ClusterTree.encode)
