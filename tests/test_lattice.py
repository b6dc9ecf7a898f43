import itertools
import random
import tracemalloc

import pytest

from conic_moduli.lattice import (
    ClusterTree,
    IndexSubset,
    enumerate_fmax_strata,
)


# -- independent brute-force oracle (written against the definition only) ----


def brute_force_laminar_families(k: int, min_size: int = 2) -> set[frozenset]:
    """Every pairwise nested-or-disjoint collection of proper subsets of size
    >= ``min_size``, plus the root."""
    ground = frozenset(range(1, k + 1))
    cands = [
        frozenset(c)
        for size in range(min_size, k)
        for c in itertools.combinations(range(1, k + 1), size)
    ]

    def compatible(a, b):
        return a <= b or b <= a or not (a & b)

    out = []

    def dfs(i, fam):
        if i == len(cands):
            out.append(frozenset(fam) | {ground})
            return
        dfs(i + 1, fam)
        if all(compatible(cands[i], f) for f in fam):
            fam.append(cands[i])
            dfs(i + 1, fam)
            fam.pop()

    dfs(0, [])
    return set(out)


def as_family(tree: ClusterTree) -> frozenset:
    return frozenset(frozenset(v.members) for v in tree.vertices)


def nodes(tree: ClusterTree, parent=None, depth=0):
    """Yield (subtree, parent vertex, depth) for every vertex, recursing over ``subtrees``."""
    yield tree, parent, depth
    for s in tree.subtrees:
        yield from nodes(s, tree.root, depth + 1)


def parents(tree: ClusterTree) -> dict:
    return {s.root: p for s, p, _ in nodes(tree)}


def test_index_subset_validation():
    with pytest.raises(ValueError):
        IndexSubset((), 3)
    with pytest.raises(ValueError):
        IndexSubset((0, 1), 3)
    with pytest.raises(ValueError):
        IndexSubset((2, 1), 3)
    assert IndexSubset.of([3, 1, 1], 4).members == (1, 3)


# -- stratum enumeration -------------------------------------------------------


@pytest.mark.parametrize("k,count", [(2, 1), (3, 4), (4, 26), (5, 236)])
def test_fmax_counts(k, count):
    assert len(enumerate_fmax_strata(k)) == count


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_fmax_matches_brute_force(k):
    ours = {as_family(t) for t in enumerate_fmax_strata(k)}
    assert ours == brute_force_laminar_families(k)


def test_fmax_k3_structure():
    trees = enumerate_fmax_strata(3)
    encodings = sorted(t.encode() for t in trees)
    assert encodings == ["((1,2),3)", "((1,3),2)", "(1,(2,3))", "(1,2,3)"]
    interior = [t for t in trees if t.is_interior]
    assert len(interior) == 1 and interior[0].codimension == 1
    hypersurfaces = [t for t in trees if t.codimension == 2]
    assert len(hypersurfaces) == 3


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_two_vertex_count_identity(k):
    # trees with exactly one proper vertex <-> subsets of size 2..k-1
    n = sum(1 for t in enumerate_fmax_strata(k) if t.codimension == 2)
    assert n == 2**k - k - 2


def test_laminar_invariant():
    for t in enumerate_fmax_strata(5):
        for a, b in itertools.combinations(t.vertices, 2):
            assert a.issubset(b) or b.issubset(a) or a.isdisjoint(b)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_fmax_strata(1)
    # the caps follow the measured cost: k = 8 has 660,032 trees (17x k = 7)
    # and augmented k = 7 more still, so both refuse before enumerating
    with pytest.raises(ValueError):
        enumerate_fmax_strata(8)
    with pytest.raises(ValueError):
        enumerate_fmax_strata(7, augmented=True)


def test_enumeration_deterministic_order():
    a = [t.encode() for t in enumerate_fmax_strata(4)]
    b = [t.encode() for t in enumerate_fmax_strata(4)]
    assert a == b == sorted(a)


def test_augmented_trees_allow_singleton_leaves():
    trees = enumerate_fmax_strata(2, augmented=True)
    encodings = sorted(t.encode() for t in trees)
    assert encodings == ["((1),(2))", "((1),2)", "(1,(2))", "(1,2)"]
    # singletons are always leaves
    for t in enumerate_fmax_strata(3, augmented=True):
        for s, _, _ in nodes(t):
            if len(s.root) == 1:
                assert s.subtrees == ()


@pytest.mark.parametrize("k,count", [(2, 4), (3, 32), (4, 416)])
def test_augmented_matches_brute_force(k, count):
    ours = [as_family(t) for t in enumerate_fmax_strata(k, augmented=True)]
    assert len(ours) == len(set(ours)) == count
    assert set(ours) == brute_force_laminar_families(k, min_size=1)


# -- trees joined from shared subtrees -------------------------------------------


@pytest.mark.parametrize("k,augmented", [(k, False) for k in (2, 3, 4, 5)] + [(k, True) for k in (2, 3, 4)])
def test_joined_trees_match_the_validating_constructor(k, augmented):
    for t in enumerate_fmax_strata(k, augmented=augmented):
        u = ClusterTree(t.vertices)
        # the same vertex, parent, depth and children at every step of the recursion
        walked = [(s.root, p, d, tuple(c.root for c in s.subtrees)) for s, p, d in nodes(t)]
        assert [(s.root, p, d, tuple(c.root for c in s.subtrees)) for s, p, d in nodes(u)] == walked
        assert u.vertices == t.vertices
        assert u.encode() == t.encode() and u == t
        assert (u.codimension, u.height, u.is_interior) == (t.codimension, t.height, t.is_interior)


def test_enumeration_makes_no_laminarity_checks(monkeypatch):
    calls = []

    def counted(name):
        method = getattr(IndexSubset, name)

        def wrapper(self, other):
            calls.append(name)
            return method(self, other)

        return wrapper

    for name in ("issubset", "isdisjoint"):
        monkeypatch.setattr(IndexSubset, name, counted(name))
    assert len(enumerate_fmax_strata(5)) == 236
    assert calls == []


def test_enumerated_trees_share_their_subtrees():
    # 7,552 trees of augmented k = 5 hold about 310 bytes each when joined
    # from cached subtrees, and about 1,300 when each owns its vertex set
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trees = enumerate_fmax_strata(5, augmented=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(trees) < 700


# -- total-space strata ---------------------------------------------------------


@pytest.mark.parametrize("k,count", [(2, 1), (3, 7), (4, 66), (5, 786)])
def test_cmax_counts(k, count):
    # (tree, node) pairs label the faces and corners of the total space:
    # one per vertex of each stratum tree
    assert sum(t.codimension for t in enumerate_fmax_strata(k)) == count


# -- tree heights ----------------------------------------------------------------


def test_tree_height_examples():
    root4 = IndexSubset.of([1, 2, 3, 4], 4)
    t0 = ClusterTree([root4])
    assert t0.height == 0
    pair = IndexSubset.of([1, 2], 4)
    t1 = ClusterTree([root4, pair])
    assert t1.height == 1
    triple = IndexSubset.of([1, 2, 3], 4)
    t2 = ClusterTree([root4, triple, pair])
    assert t2.height == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tree_depth_is_the_parent_walk(k):
    for t in enumerate_fmax_strata(k):
        parent = parents(t)
        depth = {s.root: d for s, _, d in nodes(t)}
        assert sorted(depth) == sorted(t.vertices)
        for v in t.vertices:
            walk, w = 0, v
            while parent[w] is not None:
                walk, w = walk + 1, parent[w]
            assert depth[v] == walk
        assert t.height == max(depth.values())


def test_tree_parents_from_vertex_set_in_any_order():
    root, pair, triple, inner = (IndexSubset.of(m, 7) for m in (range(1, 8), [1, 2], [4, 5, 6], [4, 5]))
    vs = [root, pair, triple, inner]
    shuffled = vs[:]
    random.Random(3).shuffle(shuffled)
    trees = [ClusterTree(shuffled), ClusterTree(set(vs)), ClusterTree(v for v in reversed(vs)), ClusterTree(vs + vs)]
    for t in trees:
        assert parents(t) == {root: None, pair: root, triple: root, inner: triple}
        assert t.encode() == "((1,2),3,((4,5),6),7)"
        assert t.root == root and tuple(s.root for s in t.subtrees) == (pair, triple)


def test_tree_rejects_non_laminar_vertex_sets():
    root = IndexSubset.of([1, 2, 3, 4], 4)
    with pytest.raises(ValueError):  # crossing pair
        ClusterTree([root, IndexSubset.of([1, 2], 4), IndexSubset.of([2, 3], 4)])
    with pytest.raises(ValueError):  # two maximal vertices
        ClusterTree([IndexSubset.of([1, 2], 4), IndexSubset.of([3, 4], 4)])
    with pytest.raises(ValueError):  # mixed ambient counts
        ClusterTree([root, IndexSubset.of([1, 2], 5)])
    with pytest.raises(ValueError):
        ClusterTree([])
