"""Exact cone-angle calculus: Gauss-Bonnet bookkeeping and merge classification.

Angles are kept as rationals end to end; every verdict below is decided by
strict/non-strict inequalities where floating-point error would be
unacceptable.  A cluster of cone points with parameters beta_i merges into a
single point with parameter sum(beta_i) - (|cluster|-1); merging is possible
only when that value is positive, and on the sphere the surviving
configuration must additionally satisfy the angle inequalities that
characterize existence for positive curvature.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .lattice import IndexSubset

__all__ = [
    "RationalLike",
    "to_fraction",
    "ConeData",
    "MergeStatus",
    "MergeVerdict",
    "consistent_area",
    "merge_angle",
    "verdict",
    "classify_merges",
    "MAX_CLASSIFY_K",
]

RationalLike = Union[Fraction, int, str, float]

# Continued-fraction cap used when ingesting floats as angle parameters.
INGEST_MAX_DENOMINATOR = 10**6

# One verdict per subset, so time and output double with each cone
MAX_CLASSIFY_K = 16


def to_fraction(x: RationalLike) -> tuple[Fraction, bool]:
    """Convert an angle parameter to an exact rational.

    Returns (value, approximated): floats are snapped to the nearest
    fraction with denominator <= INGEST_MAX_DENOMINATOR and flagged, so
    downstream strict inequalities stay exact.
    """
    if isinstance(x, float):
        f = Fraction(x).limit_denominator(INGEST_MAX_DENOMINATOR)
        return f, f != Fraction(x)
    return Fraction(x), False


def _betas(values: Iterable[RationalLike]) -> tuple[tuple[Fraction, ...], bool]:
    """The exact angles and whether any float among them was snapped."""
    pairs = [to_fraction(v) for v in values]
    return tuple(f for f, _ in pairs), any(a for _, a in pairs)


@dataclass(frozen=True)
class ConeData:
    """A marked-surface datum: genus, angle parameters and curvature sign.

    ``approximated`` flags angles snapped from floats by ``to_fraction``.
    """

    genus: int
    beta: tuple[Fraction, ...]
    curvature: int
    approximated: bool = False

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.curvature not in (-1, 0, 1):
            raise ValueError("curvature sign must be -1, 0 or +1")
        if any(b <= 0 for b in self.beta):
            raise ValueError("angle parameters must be positive")

    @classmethod
    def of(cls, genus: int, beta: Sequence[RationalLike], curvature: int) -> "ConeData":
        bs, approx = _betas(beta)
        return cls(genus, bs, curvature, approx)

    @property
    def k(self) -> int:
        return len(self.beta)

    @property
    def chi(self) -> Fraction:
        return Fraction(2 - 2 * self.genus)

    @property
    def chi_beta(self) -> Fraction:
        """chi(M, beta) = chi(M) + sum(beta_i - 1)."""
        return self.chi + sum((b - 1 for b in self.beta), Fraction(0))


def _sign_rule_holds(chi_beta: Fraction, curvature: int) -> bool:
    """Gauss-Bonnet's sign rule: K * A / (2*pi) = chi(M, beta) with A > 0 needs sign(chi_beta) = K."""
    return (chi_beta > 0) - (chi_beta < 0) == curvature


def consistent_area(d: ConeData) -> Optional[Fraction]:
    """The area (in units of 2*pi) forced by Gauss-Bonnet, if any.

    For K = 0 returns None (any area); raises ValueError if the data admit
    no positive-area solution, by the sign rule ``verdict`` applies first.
    """
    if not _sign_rule_holds(d.chi_beta, d.curvature):
        raise ValueError(
            f"no positive area satisfies Gauss-Bonnet: chi(M, beta) = {d.chi_beta} with curvature {d.curvature}"
        )
    return None if d.curvature == 0 else d.chi_beta / d.curvature


def merge_angle(betas: Sequence[RationalLike]) -> Fraction:
    """Angle parameter after a cluster coalesces: sum(beta_i) - (n-1)."""
    bs, _ = _betas(betas)
    if not bs:
        raise ValueError("need at least one angle")
    return sum(bs, Fraction(0)) - (len(bs) - 1)


def _troyanov_status(genus: int, betas: Sequence[Fraction]) -> tuple[bool, bool]:
    """(holds, at_equality) for min{2, 2 beta_j} + k - chi(M) > sum(beta_i), all j.

    The smallest slack over j decides: positive holds, zero is the equality case.
    """
    total = sum(betas, Fraction(0))
    slack = min(min(Fraction(2), 2 * b) + len(betas) - (2 - 2 * genus) - total for b in betas)
    return slack > 0, slack == 0


class MergeStatus(str, enum.Enum):
    ADMISSIBLE = "Admissible"
    ANGLE_OBSTRUCTED = "AngleObstructed"
    TROYANOV_VIOLATED = "TroyanovViolated"
    GAUSS_BONNET_VIOLATED = "GaussBonnetViolated"
    FOOTBALL_BOUNDARY = "FootballBoundary"


@dataclass(frozen=True)
class MergeVerdict:
    """Outcome of coalescing one subset (or a two-block partition).

    For a partition verdict, ``partner``/``partner_angle`` carry the second
    block; ``at_equality`` marks cases decided by an exact equality in the
    angle inequalities (the existence-ambiguous boundary).
    """

    subset: IndexSubset
    merged_angle: Fraction
    status: MergeStatus
    at_equality: bool = False
    partner: Optional[IndexSubset] = None
    partner_angle: Optional[Fraction] = None


def verdict(genus: int, curvature: int, betas: Sequence[Fraction]) -> tuple[MergeStatus, bool]:
    """(status, at_equality): whether a metric with these cone parameters exists.

    Gauss-Bonnet's sign rule comes first: chi(M, beta) = 2 - 2 genus +
    sum(beta_i - 1) must be positive for curvature 1, negative for -1 and
    zero for 0.  Then a parameter <= 0 is no cone; curvature <= 0 admits
    every other case.  A parameter of 1 (an angle of 2 pi) marks a smooth
    point, not a cone, so the rest counts only the others: on the sphere
    none is the round sphere and two equal angles the football, the
    degenerate family's boundary; else Troyanov's inequalities.
    """
    if not _sign_rule_holds(2 - 2 * genus + sum(betas, Fraction(0)) - len(betas), curvature):
        return MergeStatus.GAUSS_BONNET_VIOLATED, False
    if min(betas) <= 0:
        return MergeStatus.ANGLE_OBSTRUCTED, False
    if curvature <= 0:
        return MergeStatus.ADMISSIBLE, False
    cones = [b for b in betas if b != 1]
    if genus == 0 and (not cones or len(cones) == 2 and cones[0] == cones[1]):
        return MergeStatus.FOOTBALL_BOUNDARY, True
    holds, at_eq = _troyanov_status(genus, cones)
    return (MergeStatus.ADMISSIBLE if holds else MergeStatus.TROYANOV_VIOLATED), at_eq


def _verdict(d: ConeData, a: IndexSubset, b: Optional[IndexSubset] = None) -> MergeVerdict:
    """Merge subset ``a``, or both blocks of the two-block partition (a, b)."""
    angle_a = merge_angle([d.beta[i - 1] for i in a])
    if b is None:
        angle_b = None
        post = [angle_a] + [d.beta[j] for j in range(d.k) if (j + 1) not in a]
    else:
        angle_b = merge_angle([d.beta[i - 1] for i in b])
        post = [angle_a, angle_b]
    status, at_eq = verdict(d.genus, d.curvature, post)
    return MergeVerdict(a, angle_a, status, at_eq, b, angle_b)


def classify_merges(d: ConeData) -> list[MergeVerdict]:
    """One verdict per subset of size 2..k, plus sphere football partitions.

    Merging keeps chi(M, beta), so data that fail Gauss-Bonnet's sign rule
    get that verdict on every subset.  Otherwise, for K <= 0 admissibility
    alone decides.  For the sphere, a merge must leave a configuration
    satisfying the positive-curvature inequalities; collapsing to two
    equal angles is flagged as the football boundary.
    Simultaneous merges are enumerated only for partitions of {1..k} into
    two blocks of size >= 2 (single-subset verdicts cover the rest).  Over
    ``MAX_CLASSIFY_K`` cone points raise ValueError before any enumeration.
    """
    if d.k > MAX_CLASSIFY_K:
        raise ValueError(f"merge classification limited to k <= {MAX_CLASSIFY_K} cone points, got {d.k}")
    if d.curvature > 0 and any(b >= 1 for b in d.beta):
        raise ValueError("positive-curvature classification requires all beta < 1")
    k = d.k
    verdicts = []
    indices = range(1, k + 1)
    for size in range(2, k + 1):
        for comb in itertools.combinations(indices, size):
            verdicts.append(_verdict(d, IndexSubset.of(comb, k)))
    if d.curvature > 0 and d.genus == 0:
        for size in range(2, k - 1):
            for comb in itertools.combinations(range(2, k + 1), size - 1):
                a = IndexSubset.of((1,) + comb, k)
                b = IndexSubset.of(set(indices) - set(a.members), k)
                verdicts.append(_verdict(d, a, b))
    return verdicts
