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
    "gauss_bonnet_residual",
    "consistent_area",
    "merge_angle",
    "admissible",
    "troyanov",
    "classify_merges",
]

RationalLike = Union[Fraction, int, str, float]

# Continued-fraction cap used when ingesting floats as angle parameters.
INGEST_MAX_DENOMINATOR = 10**6


def to_fraction(x: RationalLike) -> tuple[Fraction, bool]:
    """Convert an angle parameter to an exact rational.

    Returns (value, approximated): floats are snapped to the nearest
    fraction with denominator <= INGEST_MAX_DENOMINATOR and flagged, so
    downstream strict inequalities stay exact.
    """
    if isinstance(x, Fraction):
        return x, False
    if isinstance(x, int):
        return Fraction(x), False
    if isinstance(x, str):
        return Fraction(x), False
    f = Fraction(x).limit_denominator(INGEST_MAX_DENOMINATOR)
    return f, f != Fraction(x)


def _betas(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        f, _ = to_fraction(v)
        out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class ConeData:
    """A marked-surface datum: genus, angle parameters, curvature sign, area.

    ``area`` is measured in units of 2*pi so the Gauss-Bonnet identity
    chi(M) + sum(beta_i - 1) = K * A / (2*pi) is a statement between
    rationals.  ``area=None`` means "unconstrained".
    """

    genus: int
    beta: tuple[Fraction, ...]
    curvature: int
    area: Optional[Fraction] = None
    approximated: bool = False

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.curvature not in (-1, 0, 1):
            raise ValueError("curvature sign must be -1, 0 or +1")
        if any(b <= 0 for b in self.beta):
            raise ValueError("angle parameters must be positive")
        if self.area is not None and self.area <= 0:
            raise ValueError("area must be positive")

    @classmethod
    def of(
        cls,
        genus: int,
        beta: Sequence[RationalLike],
        curvature: int,
        area: Optional[RationalLike] = None,
    ) -> "ConeData":
        bs = []
        approx = False
        for b in beta:
            f, a = to_fraction(b)
            bs.append(f)
            approx = approx or a
        ar = None
        if area is not None:
            ar, a = to_fraction(area)
            approx = approx or a
        return cls(genus, tuple(bs), curvature, ar, approx)

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


def gauss_bonnet_residual(d: ConeData) -> Fraction:
    """chi(M) + sum(beta_j - 1) - K*A/(2*pi), exactly; zero means consistent."""
    if d.area is None:
        raise ValueError("residual needs a prescribed area")
    return d.chi_beta - d.curvature * d.area


def consistent_area(d: ConeData) -> Optional[Fraction]:
    """The area (in units of 2*pi) forced by Gauss-Bonnet, if any.

    For K = 0 returns None (any area); raises if the data admit no
    positive-area solution.
    """
    if d.curvature == 0:
        if d.chi_beta != 0:
            raise ValueError("flat data require chi(M, beta) = 0")
        return None
    area = d.chi_beta / d.curvature
    if area <= 0:
        raise ValueError("no positive area satisfies Gauss-Bonnet for these data")
    return area


def merge_angle(betas: Sequence[RationalLike]) -> Fraction:
    """Angle parameter after a cluster coalesces: sum(beta_i) - (n-1)."""
    bs = _betas(betas)
    if not bs:
        raise ValueError("need at least one angle")
    return sum(bs, Fraction(0)) - (len(bs) - 1)


def admissible(betas: Sequence[RationalLike]) -> bool:
    """Strict inequality sum(beta_i) > n - 1: the merged point is conical."""
    bs = _betas(betas)
    if not bs:
        raise ValueError("need at least one angle")
    return sum(bs, Fraction(0)) > len(bs) - 1


def _troyanov_status(genus: int, betas: Sequence[Fraction]) -> tuple[bool, bool]:
    """(holds, at_equality) for min{2, 2 beta_j} + k - chi(M) > sum(beta_i)."""
    chi = 2 - 2 * genus
    k = len(betas)
    total = sum(betas, Fraction(0))
    holds = True
    at_eq = False
    for b in betas:
        lhs = min(Fraction(2), 2 * b) + k - chi
        if lhs < total:
            return False, False
        if lhs == total:
            holds = False
            at_eq = True
    return holds, at_eq


def troyanov(d: ConeData) -> bool:
    """All-j angle inequalities for positive-curvature existence.

    Trivially true off the sphere when every beta_j < 1; on the sphere with
    k = 3 it reduces to 2*min(beta) + 1 > sum(beta).
    """
    if d.k < 1:
        raise ValueError("need at least one cone point")
    holds, _ = _troyanov_status(d.genus, d.beta)
    return holds


class MergeStatus(enum.Enum):
    ADMISSIBLE = "Admissible"
    ANGLE_OBSTRUCTED = "AngleObstructed"
    TROYANOV_VIOLATED = "TroyanovViolated"
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


def _verdict(d: ConeData, a: IndexSubset, b: Optional[IndexSubset] = None) -> MergeVerdict:
    """Merge subset ``a``, or both blocks of the two-block partition (a, b)."""
    angle_a = merge_angle([d.beta[i - 1] for i in a])
    if b is None:
        angle_b = None
        post = [angle_a] + [d.beta[j] for j in range(d.k) if (j + 1) not in a]
    else:
        angle_b = merge_angle([d.beta[i - 1] for i in b])
        post = [angle_a, angle_b]
    if min(post) <= 0:
        status, at_eq = MergeStatus.ANGLE_OBSTRUCTED, False
    elif d.curvature <= 0:
        status, at_eq = MergeStatus.ADMISSIBLE, False
    elif d.genus == 0 and len(post) == 2 and post[0] == post[1]:
        status, at_eq = MergeStatus.FOOTBALL_BOUNDARY, True
    else:
        holds, at_eq = _troyanov_status(d.genus, post)
        status = MergeStatus.ADMISSIBLE if holds else MergeStatus.TROYANOV_VIOLATED
    return MergeVerdict(a, angle_a, status, at_eq, b, angle_b)


def classify_merges(d: ConeData) -> list[MergeVerdict]:
    """One verdict per subset of size 2..k, plus sphere football partitions.

    For K <= 0 admissibility alone decides.  For the sphere, a merge must
    leave a configuration satisfying the positive-curvature inequalities;
    collapsing to two equal angles is flagged as the football boundary.
    Simultaneous merges are enumerated only for partitions of {1..k} into
    two blocks of size >= 2 (single-subset verdicts cover the rest).
    """
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
                if len(b) < 2:
                    continue
                verdicts.append(_verdict(d, a, b))
    return verdicts
