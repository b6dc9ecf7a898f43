"""Combinatorics of the extended configuration space of k clustering points.

Boundary strata of the compactified configuration space are encoded by
laminar families of index subsets of {1..k}: collections whose members are
pairwise nested or disjoint, arranged into a rooted cluster tree.  This
module enumerates those trees, classifies subset pairs, and decomposes
concrete planar configurations into well-separated clusters.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "IndexSubset",
    "PairRelation",
    "ClusterTree",
    "ClusterPartition",
    "classify_pair",
    "enumerate_fmax_strata",
    "enumerate_cmax_strata",
    "cluster_decomposition",
    "MAX_ENUMERATION_K",
]

# Enumeration is exponential in k; refuse anything past this.
MAX_ENUMERATION_K = 12


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


class PairRelation(enum.Enum):
    NESTED = "nested"
    DISJOINT = "disjoint"
    CROSSING = "crossing"


def classify_pair(a: IndexSubset, b: IndexSubset) -> PairRelation:
    """Classify two index subsets as nested, disjoint or crossing.

    Nested or disjoint pairs blow up in a well-defined order; crossing pairs
    never occur together in a stratum tree.
    """
    if a.k != b.k:
        raise ValueError(f"ambient counts differ: {a.k} != {b.k}")
    if a.issubset(b) or b.issubset(a):
        return PairRelation.NESTED
    if a.isdisjoint(b):
        return PairRelation.DISJOINT
    return PairRelation.CROSSING


class ClusterTree:
    """A laminar family of index subsets arranged by immediate containment.

    Vertices are subsets of {1..k}; the parent relation is the Hasse diagram
    of containment restricted to the chosen vertex set, so each stratum has a
    unique representation.  The root-only tree is allowed and flagged as the
    interior (open) stratum.
    """

    def __init__(self, parent: Mapping[IndexSubset, Optional[IndexSubset]]):
        if not parent:
            raise ValueError("tree must have at least one vertex")
        roots = [v for v, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        self.root = roots[0]
        self.k = self.root.k
        self.parent: dict[IndexSubset, Optional[IndexSubset]] = dict(parent)
        self.vertices: tuple[IndexSubset, ...] = tuple(
            sorted(parent, key=lambda v: (min(v.members), -len(v), v.members))
        )
        self._children: dict[IndexSubset, list[IndexSubset]] = {v: [] for v in parent}
        self._validate()

    def _validate(self) -> None:
        for v, p in self.parent.items():
            if v.k != self.k:
                raise ValueError("mixed ambient counts in tree")
            if p is None:
                continue
            if p not in self.parent:
                raise ValueError(f"parent {p} of {v} is not a vertex")
            if not (v.issubset(p) and len(v) < len(p)):
                raise ValueError(f"vertex {v} is not a proper subset of its parent {p}")
            self._children[p].append(v)
        # connectivity: every vertex reaches the root by parent links
        for v in self.parent:
            seen = set()
            w: Optional[IndexSubset] = v
            while w is not None:
                if w in seen:
                    raise ValueError("parent links contain a cycle")
                seen.add(w)
                w = self.parent[w]
            if self.root not in seen:
                raise ValueError(f"vertex {v} does not reach the root")
        # laminarity, and parent = immediate superset within the vertex set
        for a, b in itertools.combinations(self.parent, 2):
            if classify_pair(a, b) is PairRelation.CROSSING:
                raise ValueError(f"vertices {a} and {b} cross")
        for v, p in self.parent.items():
            if p is None:
                continue
            for w in self.parent:
                if w in (v, p):
                    continue
                if v.issubset(w) and w.issubset(p) and len(v) < len(w) < len(p):
                    raise ValueError(f"parent of {v} should be {w}, not {p}")

    def children(self, v: IndexSubset) -> tuple[IndexSubset, ...]:
        return tuple(sorted(self._children[v], key=lambda c: c.members))

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

        def depth(v: IndexSubset) -> int:
            kids = self._children[v]
            return 0 if not kids else 1 + max(depth(c) for c in kids)

        return depth(self.root)

    def has_singletons(self) -> bool:
        return any(len(v) == 1 for v in self.parent)

    def encode(self) -> str:
        """Canonical nested-parentheses encoding, e.g. ``((1,2),3,4)``."""

        def enc(v: IndexSubset) -> str:
            kids = self._children[v]
            covered = set().union(*(set(c.members) for c in kids)) if kids else set()
            items = [(i, str(i)) for i in v.members if i not in covered]
            items += [(min(c.members), enc(c)) for c in kids]
            items.sort()
            return "(" + ",".join(s for _, s in items) + ")"

        return enc(self.root)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClusterTree) and self.k == other.k and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash((self.k, self.encode()))

    def __repr__(self) -> str:
        return f"ClusterTree({self.encode()}, k={self.k})"


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint blocks covering {1..k}, pairwise separated by >= epsilon."""

    blocks: tuple[IndexSubset, ...]
    epsilon: float

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("partition must have at least one block")
        k = self.blocks[0].k
        covered: set[int] = set()
        for b in self.blocks:
            if b.k != k:
                raise ValueError("mixed ambient counts in partition")
            if covered & set(b.members):
                raise ValueError("blocks are not disjoint")
            covered |= set(b.members)
        if covered != set(range(1, k + 1)):
            raise ValueError("blocks must cover {1..k}")

    @property
    def k(self) -> int:
        return self.blocks[0].k


def _partial_partitions(pool: tuple[int, ...], min_size: int, forbid_all: frozenset[int]):
    """Yield collections of disjoint subsets of ``pool`` with sizes >= min_size.

    Blocks need not cover the pool.  A block equal to ``forbid_all`` is
    skipped (a child may not equal its parent).  Each collection is produced
    exactly once, blocks carrying their smallest uncovered element.
    """
    if not pool:
        yield []
        return
    head, rest = pool[0], pool[1:]
    # head left uncovered
    for part in _partial_partitions(rest, min_size, forbid_all):
        yield part
    # head belongs to a block
    for size in range(min_size, len(pool) + 1):
        for comb in itertools.combinations(rest, size - 1):
            block = frozenset((head,) + comb)
            if block == forbid_all:
                continue
            remaining = tuple(i for i in rest if i not in block)
            for part in _partial_partitions(remaining, min_size, forbid_all):
                yield [block] + part


def _families(ground: frozenset[int], min_size: int, cache: dict) -> list[dict]:
    """All laminar families rooted at ``ground`` as parent maps on frozensets."""
    key = ground
    if key in cache:
        return cache[key]
    out: list[dict] = []
    pool = tuple(sorted(ground))
    for blocks in _partial_partitions(pool, min_size, ground):
        choices = [_families(b, min_size, cache) for b in blocks]
        for combo in itertools.product(*choices):
            fam: dict = {ground: None}
            for block, sub in zip(blocks, combo):
                for v, p in sub.items():
                    fam[v] = p if p is not None else ground
            out.append(fam)
    cache[key] = out
    return out


def _to_tree(fam: dict, k: int) -> ClusterTree:
    conv = {fs: IndexSubset.of(fs, k) for fs in fam}
    return ClusterTree({conv[v]: (conv[p] if p is not None else None) for v, p in fam.items()})


def enumerate_fmax_strata(k: int, augmented: bool = False) -> list[ClusterTree]:
    """All cluster trees rooted at {1..k}: the strata of the deepest face.

    Every laminar family of subsets of size >= 2 containing the root appears
    exactly once; a tree with v vertices labels a corner of codimension v,
    and the root-only tree is the open stratum (``is_interior``).  With
    ``augmented=True``, singleton leaves are allowed as terminal nodes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > MAX_ENUMERATION_K:
        raise ValueError(f"enumeration limited to k <= {MAX_ENUMERATION_K}")
    ground = frozenset(range(1, k + 1))
    min_size = 1 if augmented else 2
    trees = [_to_tree(fam, k) for fam in _families(ground, min_size, {})]
    trees.sort(key=lambda t: t.encode())
    return trees


def enumerate_cmax_strata(k: int) -> list[tuple[ClusterTree, IndexSubset]]:
    """All (tree, node) pairs labelling faces and corners of the total space.

    One hemisphere of the fiber tower sits over each node of each stratum
    tree, so the pairs are exactly the boundary faces/corners of the deepest
    face of the configuration family.
    """
    out = []
    for t in enumerate_fmax_strata(k):
        for v in t.vertices:
            out.append((t, v))
    return out


_Point = Union[complex, tuple]


def _as_complex(p: _Point) -> complex:
    if isinstance(p, (tuple, list)):
        return complex(p[0], p[1])
    return complex(p)


def cluster_decomposition(points: Sequence[_Point], epsilon: float) -> ClusterPartition:
    """Finest partition with distinct blocks pairwise >= epsilon separated.

    Single linkage at threshold epsilon in the Euclidean chart metric:
    points closer than epsilon are forced into a common block.  Labels are
    1-based to match the index-subset convention.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    zs = [_as_complex(p) for p in points]
    k = len(zs)
    if k == 0:
        raise ValueError("need at least one point")
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(zs[i] - zs[j]) < epsilon:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i + 1)
    blocks = tuple(
        IndexSubset.of(m, k) for m in sorted(groups.values(), key=lambda m: m[0])
    )
    return ClusterPartition(blocks, float(epsilon))
