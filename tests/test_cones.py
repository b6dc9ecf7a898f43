import itertools
import random
from fractions import Fraction as F

import pytest

from conic_moduli.cones import (
    ConeData,
    MergeStatus,
    classify_merges,
    consistent_area,
    merge_angle,
    to_fraction,
    verdict,
)


def test_gauss_bonnet_examples():
    # flat 3-cone data close up with any area
    assert consistent_area(ConeData.of(0, ["1/3", "1/3", "1/3"], 0)) is None
    # spherical two equal angles force area 2*pi (one unit of 2*pi)
    assert consistent_area(ConeData.of(0, ["1/2", "1/2"], 1)) == 1
    # smooth hyperbolic genus 2: area 4*pi = 2 units
    assert consistent_area(ConeData.of(2, [], -1)) == 2


def test_consistent_area_errors():
    with pytest.raises(ValueError):
        consistent_area(ConeData.of(0, ["1/3", "1/3"], 0))  # chi(beta) != 0
    with pytest.raises(ValueError):
        consistent_area(ConeData.of(0, ["1/3", "1/3", "1/3"], 1))  # area would be 0


def test_merge_angle_examples():
    assert merge_angle(["1/2", "4/5"]) == F(3, 10)
    assert merge_angle(["5/7"]) == F(5, 7)
    assert merge_angle(["2/3", "2/3", "5/6"]) == F(1, 6)


def verdict_map(verdicts):
    singles = {v.subset.members: v for v in verdicts if v.partner is None}
    partitions = {(v.subset.members, v.partner.members): v for v in verdicts if v.partner is not None}
    return singles, partitions


def test_classification_reference_table():
    d = ConeData.of(0, ["1/2", "2/3", "2/3", "5/6"], 1)
    singles, partitions = verdict_map(classify_merges(d))
    v14 = singles[(1, 4)]
    assert v14.status is MergeStatus.TROYANOV_VIOLATED and v14.at_equality
    assert v14.merged_angle == F(1, 3)
    v23 = singles[(2, 3)]
    assert v23.status is MergeStatus.TROYANOV_VIOLATED and v23.at_equality
    assert v23.merged_angle == F(1, 3)
    v24 = singles[(2, 4)]
    assert v24.status is MergeStatus.ADMISSIBLE
    assert v24.merged_angle == F(1, 2)
    football = partitions[((1, 4), (2, 3))]
    assert football.status is MergeStatus.FOOTBALL_BOUNDARY
    assert football.merged_angle == football.partner_angle == F(1, 3)
    # the unequal-block partitions are not footballs
    other = partitions[((1, 2), (3, 4))]
    assert other.status is MergeStatus.TROYANOV_VIOLATED


def test_sphere_three_cones_never_admissible():
    rng = random.Random(7)
    found = 0
    while found < 40:
        b = sorted(F(rng.randint(1, 19), 20) for _ in range(3))
        if not all(0 < x < 1 for x in b):
            continue
        if not 2 * min(b) + 1 > sum(b):  # Troyanov's inequalities for three cones on the sphere
            continue
        found += 1
        verdicts = classify_merges(ConeData.of(0, b, 1))
        assert all(v.status is not MergeStatus.ADMISSIBLE for v in verdicts)
        assert all(v.status is not MergeStatus.FOOTBALL_BOUNDARY for v in verdicts)


def test_hyperbolic_merge_admissible():
    d = ConeData.of(2, ["3/5", "3/5"], -1)
    verdicts = classify_merges(d)
    assert len(verdicts) == 1
    assert verdicts[0].status is MergeStatus.ADMISSIBLE
    assert verdicts[0].merged_angle == F(1, 5)


def test_angle_obstructed():
    d = ConeData.of(2, ["1/5", "2/5", "9/10"], -1)
    singles, _ = verdict_map(classify_merges(d))
    assert singles[(1, 2)].status is MergeStatus.ANGLE_OBSTRUCTED
    assert singles[(1, 3)].status is MergeStatus.ADMISSIBLE


def test_teardrop_is_rejected_on_sphere():
    # merging everything leaves one cone point: no spherical metric
    d = ConeData.of(0, ["2/3", "2/3", "5/6"], 1)
    singles, _ = verdict_map(classify_merges(d))
    assert singles[(1, 2, 3)].status is MergeStatus.TROYANOV_VIOLATED


def test_merge_telescoping_property():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 6)
        betas = [F(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(n)]
        j = F(rng.randint(1, 30), rng.randint(1, 30))
        merged_then_adjoined = merge_angle([merge_angle(betas), j])
        direct = merge_angle(betas + [j])
        assert merged_then_adjoined == direct


def test_beta_shift_identity_on_verdicts():
    # beta0 - 1 = sum(beta_i - 1) exactly on every emitted verdict
    d = ConeData.of(0, ["1/2", "2/3", "2/3", "5/6"], 1)
    for v in classify_merges(d):
        expected = sum((d.beta[i - 1] - 1 for i in v.subset), F(0))
        assert v.merged_angle - 1 == expected


def test_admissible_sphere_merge_decreases_angle():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(3, 5)
        b = [F(rng.randint(1, 19), 20) for _ in range(k)]
        d = ConeData.of(0, b, 1)
        for v in classify_merges(d):
            if v.status is MergeStatus.ADMISSIBLE and v.partner is None:
                assert v.merged_angle < min(d.beta[i - 1] for i in v.subset)


def test_classification_permutation_equivariant():
    rng = random.Random(31)
    betas = [F(1, 2), F(2, 3), F(2, 3), F(5, 6)]
    base = classify_merges(ConeData.of(0, betas, 1))
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = classify_merges(ConeData.of(0, [betas[p] for p in perm], 1))

        def relabel(subset):
            # permuted position i holds the original angle betas[perm[i-1]]
            return frozenset(perm[i - 1] + 1 for i in subset.members)

        base_map = {}
        for v in base:
            key = frozenset(v.subset.members) if v.partner is None else frozenset(
                [frozenset(v.subset.members), frozenset(v.partner.members)]
            )
            base_map[key if v.partner is None else frozenset(key)] = (v.status, v.merged_angle if v.partner is None else None)
        for v in permuted:
            if v.partner is None:
                key = frozenset(relabel(v.subset))
                assert base_map[key][0] is v.status
            else:
                key = frozenset([relabel(v.subset), relabel(v.partner)])
                assert base_map[key][0] is v.status


def test_float_ingestion_flagged():
    val, approx = to_fraction(1 / 3)
    assert approx and val == F(1, 3)
    val2, approx2 = to_fraction(0.5)
    assert not approx2 and val2 == F(1, 2)
    d = ConeData.of(0, [1 / 3, 1 / 3, 1 / 3], 0)
    assert d.approximated


@pytest.mark.parametrize(
    "genus, curvature, betas",
    [
        (0, 1, ["1/12"] * 3),  # chi = -3/4
        (0, 1, ["1/4", "1/4", "1/2"]),  # chi = 0: no positive area either
        (0, -1, ["1/2"] * 3),  # chi = 1/2
        (0, 0, ["1/2"] * 3),  # chi = 1/2
        (2, 0, ["1/2"]),  # chi = -5/2
        (1, 1, ["1/2", "3/4"]),  # chi = -3/4
    ],
)
def test_verdict_applies_gauss_bonnet_sign_rule_first(genus, curvature, betas):
    # each of these used to be ADMISSIBLE
    d = ConeData.of(genus, betas, curvature)
    assert verdict(genus, curvature, d.beta) == (MergeStatus.GAUSS_BONNET_VIOLATED, False)
    with pytest.raises(ValueError, match="Gauss-Bonnet"):
        consistent_area(d)
    # merging keeps chi(M, beta), so no merge escapes the rule
    assert all(v.status is MergeStatus.GAUSS_BONNET_VIOLATED for v in classify_merges(d))


@pytest.mark.parametrize(
    "genus, curvature, betas",
    [
        (0, 0, ["1/2"] * 4),
        (0, -1, ["1/3"] * 4),
        (1, 0, ["1/2", "3/2"]),
        (0, 1, ["2/3"] * 3),
        # off the sphere a beta = 1 entry changes neither chi(M, beta) nor the positivity test
        (1, 0, ["1"]),
        (2, -1, ["1", "1/2"]),
    ],
)
def test_verdict_passes_the_sign_rule_on_consistent_data(genus, curvature, betas):
    d = ConeData.of(genus, betas, curvature)
    assert verdict(genus, curvature, d.beta) == (MergeStatus.ADMISSIBLE, False)


@pytest.mark.parametrize(
    "betas, status, at_equality",
    [
        (["1"] * 3, MergeStatus.FOOTBALL_BOUNDARY, True),  # the round sphere; was TroyanovViolated
        (["1", "1/2", "1/2"], MergeStatus.FOOTBALL_BOUNDARY, True),  # was TroyanovViolated at equality
        (["1/3", "1", "1", "1/3"], MergeStatus.FOOTBALL_BOUNDARY, True),
        (["1/2", "1", "1/3"], MergeStatus.TROYANOV_VIOLATED, False),  # two unequal cones
        (["2/3", "2/3", "1", "2/3"], MergeStatus.ADMISSIBLE, False),
    ],
    ids=["round-sphere", "football-and-one-point", "football-and-two-points", "two-unequal-cones", "three-cones"],
)
def test_verdict_reads_beta_one_as_a_smooth_point(betas, status, at_equality):
    # on the sphere a beta = 1 point is no cone; Troyanov's slack over the other
    # cones is unchanged by it, so only the football count moves
    assert verdict(0, 1, ConeData.of(0, betas, 1).beta) == (status, at_equality)
    cones = [b for b in betas if b != "1"]
    if len(cones) > 2:
        assert verdict(0, 1, ConeData.of(0, cones, 1).beta) == (status, at_equality)


def test_positive_curvature_requires_small_angles():
    with pytest.raises(ValueError):
        classify_merges(ConeData.of(0, ["3/2", "1/2", "1/2"], 1))


def test_verdict_count():
    # one verdict per subset of size 2..k plus the 2-block partitions
    d = ConeData.of(0, ["1/2", "2/3", "2/3", "5/6"], 1)
    verdicts = classify_merges(d)
    n_subsets = sum(
        1 for size in range(2, 5) for _ in itertools.combinations(range(4), size)
    )
    assert len(verdicts) == n_subsets + 3  # three 2|2 partitions of a 4-set
