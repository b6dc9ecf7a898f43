"""Iterated polar charts for a chain of coalescing clusters.

A chart covers the corner where the clusters {1,2} ⊂ {1,2,3} ⊂ … merge at
once, with a fiber point z nearby.  The named charts are the chain's depths
1 and 2: ``two`` is {1,2} alone, and ``three-corner`` is {1,2} ⊂ {1,2,3}, a
pair merging inside a merging triple.  Each cluster adds one polar layer, so
one blowdown, one inverse, one lifting matrix (a face per cluster, and the
fiber face ``fiber[omega]`` on the pair's column) and one sampling schedule
serve every depth.  ``pullback_report`` verifies numerically that base
boundary defining functions pull back to monomials in the total-space
defining functions times a smooth positive factor, with at most one base
face per total-space face (the fibration condition on the exponent matrix).

Every chart map is elementwise on floats or numpy arrays that broadcast
together (a scalar is a 0-d array); ``pullback_report`` samples in blocks of
``SAMPLE_BLOCK``, and its factor samples draw no angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChartPoint",
    "LiftingMatrix",
    "PullbackReport",
    "blowdown",
    "chart_from_points",
    "pullback_report",
    "DegenerateChartError",
]

TWO_PI = 2.0 * np.pi
# omega-type angles live in [0, pi/2], and relative coordinates in [0, 1]; allow this much roundoff slack
_OMEGA_SLACK = 1e-15
# keep verification samples off the omega = pi/2 coordinate singularity
OMEGA_MARGIN = 1e-6
# samples drawn and checked at once; bounds the memory of a large report
SAMPLE_BLOCK = 10_000
# smallest radial coordinate a verification sample draws
_RADIAL_FLOOR = 1e-6
# a smooth factor must lie strictly inside (bound, 1/bound): the log-midpoint
# between a bounded factor and one power of a wrong exponent at the floor
_FACTOR_BOUND = math.sqrt(_RADIAL_FLOOR)


class DegenerateChartError(ValueError):
    """Raised when inverting a chart at a blown-up center."""


def _phase(w, r):
    """Argument of w, and 0 where |w| = r is 0."""
    return np.where(r > 0, np.angle(w), 0.0)


def _outwards(radii, omega) -> list:
    """Each level's (a, s), from the pair outwards.

    a is z's offset and s the level's scale, in units of the radius and of
    the scale of the cluster above; at the last (outermost) level they are
    |z - zeta| and that cluster's scale.  The pair starts them as
    R (cos omega, sin omega), and a cluster of radius R maps (a, s) to
    R (a, sqrt(1 - a^2)).
    """
    a, s = radii[-1] * np.cos(omega), radii[-1] * np.sin(omega)
    levels = [(a, s)]
    for R in reversed(radii[:-1]):
        a, s = R * a, R * np.sqrt(np.maximum(0.0, 1.0 - a * a))
        levels.append((a, s))
    return levels


@dataclass(frozen=True)
class ChartPoint:
    """Iterated polar coordinates over the chain {1,2} ⊂ {1,2,3} ⊂ ….

    ``radii`` holds one radius per cluster, outermost first, so the pair's
    R is last; omega is the pair's fiber angle (see ``blowdown``).  theta is
    the direction of z1 - z2, phi that of z - zeta, and ``phases`` the
    direction of each outer cluster's added point, in the order of
    ``radii``.  Raises ValueError on a radius that is not finite and
    nonnegative, an omega outside [0, pi/2], a zeta, theta, phi or phase that
    is not finite, a phase count other than one per outer cluster, or an
    inner level whose relative coordinates leave [0, 1].
    """

    zeta: complex = 0j
    radii: tuple = (0.0,)
    omega: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    phases: tuple = ()
    _levels: list = field(init=False, repr=False, compare=False)  # _outwards(radii, omega)

    def __post_init__(self) -> None:
        if len(self.phases) != len(self.radii) - 1:
            raise ValueError(f"{len(self.radii)} radii need {len(self.radii) - 1} phases, got {len(self.phases)}")
        if not all(np.all(np.isfinite(R) & (R >= 0)) for R in self.radii):
            raise ValueError("radial coordinates must be finite and nonnegative")
        if not all(np.all(np.isfinite(t)) for t in (self.zeta, self.theta, self.phi, *self.phases)):
            raise ValueError("zeta, theta, phi and the phases must be finite")
        if not np.all((self.omega >= -_OMEGA_SLACK) & (self.omega <= np.pi / 2 + _OMEGA_SLACK)):
            raise ValueError(f"omega must lie in [0, pi/2], got {self.omega}")
        object.__setattr__(self, "omega", np.clip(self.omega, 0.0, np.pi / 2))
        object.__setattr__(self, "theta", np.mod(self.theta, TWO_PI))
        object.__setattr__(self, "phi", np.mod(self.phi, TWO_PI))
        object.__setattr__(self, "phases", tuple(np.mod(t, TWO_PI) for t in self.phases))
        object.__setattr__(self, "_levels", _outwards(self.radii, self.omega))
        if any(np.any(np.maximum(a, s) > 1 + _OMEGA_SLACK) for a, s in self._levels[:-1]):
            raise ValueError("an inner level's relative coordinates R cos(omega), R sin(omega) must lie in [0, 1]")


def blowdown(p: ChartPoint) -> tuple:
    """Map chart coordinates to (z1, z2, z3, ..., z), from the pair outwards.

    The pair starts a = R cos(omega), the fiber offset, and s = R sin(omega),
    its scale.  Each outer cluster of radius R has scale R sqrt(1 - a^2):
    its child takes the share s of it and its added point sqrt(1 - s^2),
    and a becomes R a.  Outermost, a = |z - zeta|, and the pair's scale is
    |z1 - zeta| = |z2 - zeta|: for the two-point chart, z1 - zeta =
    R sin(omega) e^{i theta} and z - zeta = R cos(omega) e^{i phi}.
    """
    *inner, (a, s) = p._levels
    added = []  # outermost first
    for (_, share), phase in zip(reversed(inner), p.phases):
        added.append(p.zeta + s * np.sqrt(np.maximum(0.0, 1.0 - share * share)) * np.exp(1j * phase))
        s = s * share
    w = s * np.exp(1j * p.theta)
    return (p.zeta + w, p.zeta - w, *reversed(added), p.zeta + a * np.exp(1j * p.phi))


def _scales(z1, z2, *others):
    """zeta = (z1 + z2)/2, the offsets (z1 - z2)/2 and z_k - zeta, and each
    cluster's scale, outermost first: the outermost's, and each inner one's
    share of its parent's, are the base defining functions rho.

    The pair's scale is |z1 - zeta|; a cluster's is the hypot of its
    child's and |z_k - zeta| for its added point z_k.
    """
    zeta = 0.5 * (z1 + z2)
    offsets = [0.5 * (z1 - z2)] + [zk - zeta for zk in others]
    scales = [np.abs(offsets[0])]
    for w in offsets[1:]:
        scales.insert(0, np.hypot(scales[0], np.abs(w)))
    return zeta, offsets, scales[:1] + [inner / outer for outer, inner in zip(scales, scales[1:])]


def chart_from_points(z1, z2, *rest) -> ChartPoint:
    """Invert the blowdown: ``chart_from_points(z1, z2, *others, z)``.

    Raises DegenerateChartError where a level's radius is 0, or undefined
    because a cluster above the pair has collapsed: the point then lies on
    that level's blown-up center.
    """
    *others, z = rest
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta, offsets, rhos = _scales(z1, z2, *others)
        v = z - zeta
        a = np.abs(v)
        radii = [np.hypot(rhos[0], a)]
        for share in rhos[1:]:
            a = a / radii[-1]
            radii.append(np.hypot(share, a))
    if not all(np.all(R > 0) for R in radii):
        raise DegenerateChartError("a level's radius is 0 or undefined: the point lies on a blown-up center")
    theta, *phases = (_phase(w, np.abs(w)) for w in offsets)
    omega = np.arctan2(rhos[-1], a)
    return ChartPoint(zeta, tuple(radii), omega, theta, _phase(v, np.abs(v)), tuple(phases[::-1]))


@dataclass(frozen=True)
class LiftingMatrix:
    """Integer exponents e(i,j) in the pullback of base defining functions.

    Rows are total-space faces, labelled ``face[bdf]`` by the chart coordinate
    defining the face, and columns base faces.  The fibration condition
    ``row_condition_ok`` requires at most one nonzero entry per row.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    row_condition_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.rows):
            raise ValueError("entry rows do not match row labels")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("entry columns do not match column labels")
            if any(e < 0 for e in row):
                raise ValueError("exponents must be nonnegative integers")
        object.__setattr__(self, "row_condition_ok", all(sum(map(bool, row)) <= 1 for row in self.entries))


@dataclass
class PullbackReport:
    """Observed smooth factors A = pullback / product of bdf^exponent."""

    chart: str
    lifting: LiftingMatrix
    factors: dict[str, tuple[float, float]]  # base face -> (Amin, Amax)
    amin: float
    amax: float
    roundtrip_max_err: float
    samples: int
    seed: int
    region: float
    positivity_ok: bool = field(default=True)
    failure: str | None = field(default=None)


def _lifting(depth: int) -> LiftingMatrix:
    """The lifting matrix of the chain of ``depth`` clusters: one face C[R] per cluster,
    outermost first, on its own base face rho, and the fiber face on the pair's column."""
    clusters = ["".join(map(str, range(1, n + 2))) for n in range(depth, 0, -1)]
    eye = [tuple(int(i == j) for j in range(depth)) for i in range(depth)]
    return LiftingMatrix(
        rows=tuple(f"C{c}[R{c}]" for c in clusters) + ("fiber[omega]",),
        cols=tuple(f"rho{c}" for c in clusters),
        entries=tuple(eye + eye[-1:]),
    )


# each named chart is the chain at its depth
_CHARTS = {"two": 1, "three-corner": 2}


def _draw(rng: np.random.Generator, bounds: list[tuple[float, float]], n: int) -> np.ndarray:
    """n rows of uniform draws in ``bounds``, in the order of a per-sample loop."""
    lo, hi = np.array(bounds).T
    return rng.uniform(lo, hi, size=(n, len(bounds)))


def pullback_report(
    chart: str,
    samples: int = 10_000,
    region: float = 0.3,
    seed: int = 20240,
) -> PullbackReport:
    """Sample a chart region and verify the b-fibration pullback relations.

    For each base boundary defining function rho, a function of the points,
    the observed smooth factor is A = (rho composed with the blowdown) /
    prod(bdf^exponent) over the lifting matrix's rows.  Reports min/max of A per base
    face; a factor reaching 1e-3 from above or 1e3 from below, where one
    wrong exponent lands at the 1e-6 radial floor, is reported as a
    verification failure naming the face and side, not raised.  A factor sample draws
    its radii, outermost first, and omega: no base defining function reads an angle.
    The round trip (blowdown, inversion, blowdown) runs on min(samples, SAMPLE_BLOCK) further interior points.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not _RADIAL_FLOOR < region < 1.0:
        raise ValueError(f"region must lie in ({_RADIAL_FLOOR:g}, 1): radial samples start at {_RADIAL_FLOOR:g}")
    if chart not in _CHARTS:
        raise ValueError(f"unknown chart {chart!r} (expected 'two' or 'three-corner')")
    depth = _CHARTS[chart]
    lifting = _lifting(depth)
    rng = np.random.default_rng(seed)
    top = np.pi / 2 - OMEGA_MARGIN
    radial = [(_RADIAL_FLOOR, 1.0)] * (depth - 1) + [(_RADIAL_FLOOR, region), (1e-9, top)]
    trip = [(-1.0, 1.0)] * 2 + [(0.1, 1.0)] * (depth - 1) + [(0.1 * region, region), (0.0, top)]
    trip += [(0.0, TWO_PI)] * (depth + 1)

    ranges: dict[str, tuple[float, float]] = {}
    for start in range(0, samples, SAMPLE_BLOCK):
        *radii, omega = _draw(rng, radial, min(SAMPLE_BLOCK, samples - start)).T
        p = ChartPoint(radii=tuple(radii), omega=omega, phases=(0.0,) * (depth - 1))
        rhos = _scales(*blowdown(p)[:-1])[2]
        bdfs = (*p.radii, p.omega)  # the rows' defining functions
        for face, rho, column in zip(lifting.cols, rhos, zip(*lifting.entries)):
            a = rho / math.prod((b**e for b, e in zip(bdfs, column) if e), start=1.0)
            lo, hi = ranges.get(face, (np.inf, -np.inf))
            ranges[face] = (min(lo, float(a.min())), max(hi, float(a.max())))

    x, y, *coords = _draw(rng, trip, min(samples, SAMPLE_BLOCK)).T
    omega, phi, theta, *phases = coords[depth:]
    pts = blowdown(ChartPoint(x + 1j * y, tuple(coords[:depth]), omega, theta, phi, tuple(phases)))
    back = blowdown(chart_from_points(*pts))
    err = np.max([np.abs(a - b) for a, b in zip(pts, back)], axis=0)
    scale = np.max([np.abs(z) for z in pts], axis=0)
    roundtrip = float(np.max(err / np.maximum(1.0, scale)))

    amin = min(lo for lo, _ in ranges.values())
    amax = max(hi for _, hi in ranges.values())
    low, high = _FACTOR_BOUND, 1 / _FACTOR_BOUND
    failures = [f"smooth factor of {face} below {low:g}" for face, (lo, _) in ranges.items() if lo <= low]
    failures += [f"smooth factor of {face} above {high:g}" for face, (_, hi) in ranges.items() if hi >= high]
    positivity_ok = not failures
    return PullbackReport(
        chart=chart,
        lifting=lifting,
        factors=ranges,
        amin=amin,
        amax=amax,
        roundtrip_max_err=roundtrip,
        samples=samples,
        seed=seed,
        region=region,
        positivity_ok=positivity_ok,
        failure="; ".join(failures) or None,
    )
