import itertools

import pytest

from conic_moduli.lattice import (
    ClusterTree,
    IndexSubset,
    PairRelation,
    classify_pair,
    cluster_decomposition,
    enumerate_cmax_strata,
    enumerate_fmax_strata,
)


# -- independent brute-force oracle (written against the definition only) ----


def brute_force_laminar_families(k: int) -> set[frozenset]:
    """Every pairwise nested-or-disjoint collection of >=2-subsets plus root."""
    ground = frozenset(range(1, k + 1))
    cands = [
        frozenset(c)
        for size in range(2, k)
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


# -- classify_pair ------------------------------------------------------------


def test_classify_pair_examples():
    a = IndexSubset.of([1, 2], 4)
    assert classify_pair(a, IndexSubset.of([1, 2, 3], 4)) is PairRelation.NESTED
    assert classify_pair(a, IndexSubset.of([3, 4], 4)) is PairRelation.DISJOINT
    assert classify_pair(a, IndexSubset.of([2, 3], 4)) is PairRelation.CROSSING


def test_classify_pair_mismatched_ambient():
    with pytest.raises(ValueError):
        classify_pair(IndexSubset.of([1, 2], 3), IndexSubset.of([1, 2], 4))


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
            assert classify_pair(a, b) is not PairRelation.CROSSING


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_fmax_strata(1)
    with pytest.raises(ValueError):
        enumerate_fmax_strata(13)


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
        for v in t.vertices:
            if len(v) == 1:
                assert t.children(v) == ()


# -- total-space strata ---------------------------------------------------------


@pytest.mark.parametrize("k,count", [(2, 1), (3, 7), (4, 66), (5, 786)])
def test_cmax_counts(k, count):
    # sum of |vertices(T)| over the stratum trees; oracle = direct count
    pairs = enumerate_cmax_strata(k)
    assert len(pairs) == count
    assert len(pairs) == sum(t.codimension for t in enumerate_fmax_strata(k))
    for t, node in pairs:
        assert node in t.vertices


# -- tree heights ----------------------------------------------------------------


def test_tree_height_examples():
    root4 = IndexSubset.of([1, 2, 3, 4], 4)
    t0 = ClusterTree({root4: None})
    assert t0.height == 0
    pair = IndexSubset.of([1, 2], 4)
    t1 = ClusterTree({root4: None, pair: root4})
    assert t1.height == 1
    triple = IndexSubset.of([1, 2, 3], 4)
    t2 = ClusterTree({root4: None, triple: root4, pair: triple})
    assert t2.height == 2


def test_tree_rejects_crossing_and_bad_parent():
    root = IndexSubset.of([1, 2, 3, 4], 4)
    with pytest.raises(ValueError):
        ClusterTree({root: None, IndexSubset.of([1, 2], 4): root, IndexSubset.of([2, 3], 4): root})
    # parent must be the immediate superset within the vertex set
    triple = IndexSubset.of([1, 2, 3], 4)
    pair = IndexSubset.of([1, 2], 4)
    with pytest.raises(ValueError):
        ClusterTree({root: None, triple: root, pair: root})


# -- cluster decomposition --------------------------------------------------------


def test_cluster_decomposition_examples():
    part = cluster_decomposition([0j, 0.01 + 0j, 1 + 0j], 0.1)
    assert [b.members for b in part.blocks] == [(1, 2), (3,)]
    part2 = cluster_decomposition([0.5 + 0.5j] * 4, 1e-9)
    assert [b.members for b in part2.blocks] == [(1, 2, 3, 4)]
    part3 = cluster_decomposition([0j, 1 + 0j, 0.5 + 0.8660254j], 0.5)
    assert all(len(b) == 1 for b in part3.blocks)
    assert len(cluster_decomposition([0.7 + 0.2j], 0.5).blocks) == 1


def test_cluster_decomposition_idempotent_and_equivariant():
    import random

    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(2, 7)
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
        eps = rng.uniform(0.05, 0.8)
        part = cluster_decomposition(pts, eps)
        # idempotence: collapsing each block to a representative point and
        # re-running at the same threshold must not merge blocks further
        reps = [pts[b.members[0] - 1] for b in part.blocks]
        again = cluster_decomposition(reps, eps) if len(reps) > 0 else None
        assert len(again.blocks) == len(part.blocks)
        # permutation equivariance
        perm = list(range(k))
        rng.shuffle(perm)
        part_p = cluster_decomposition([pts[i] for i in perm], eps)
        blocks_orig = {frozenset(perm.index(i - 1) + 1 for i in b.members) for b in part.blocks}
        blocks_perm = {frozenset(b.members) for b in part_p.blocks}
        assert blocks_orig == blocks_perm


def test_cluster_decomposition_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        cluster_decomposition([0j], 0.0)
