"""Iterated polar charts for two and three coalescing points.

The two-point chart covers the blowup where a pair merges with a spectator
point nearby; the three-point corner chart covers the depth-two tower where
a pair merges inside a merging triple.  Blowdown maps send chart
coordinates back to the marked points, and ``pullback_report`` verifies
numerically that base boundary defining functions pull back to monomials in
the total-space defining functions times a smooth positive factor, with at
most one base face per total-space face (the fibration condition on the
exponent matrix).

Every chart map is elementwise: a chart point holds floats or numpy arrays
that broadcast together, and a scalar is a 0-d array.  ``pullback_report``
draws and evaluates its samples in blocks of ``SAMPLE_BLOCK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Chart2Point",
    "Chart3CornerPoint",
    "LiftingMatrix",
    "PullbackReport",
    "blowdown2",
    "chart2_from_points",
    "blowdown3_corner",
    "chart3_corner_from_points",
    "pullback_report",
    "DegenerateChartError",
]

TWO_PI = 2.0 * np.pi
# omega-type angles live in [0, pi/2]; allow this much roundoff slack
_OMEGA_SLACK = 1e-15
# keep verification samples off the omega = pi/2 coordinate singularity
OMEGA_MARGIN = 1e-6
# samples drawn and evaluated at once; bounds the memory of a large report
SAMPLE_BLOCK = 10_000
# smallest radial coordinate a verification sample draws
_RADIAL_FLOOR = 1e-6
# a smooth factor must lie strictly inside (bound, 1/bound): the log-midpoint
# between a bounded factor and one power of a wrong exponent at the floor
_FACTOR_BOUND = math.sqrt(_RADIAL_FLOOR)


class DegenerateChartError(ValueError):
    """Raised when inverting a chart at its blown-up center."""


def _check_omega(omega, name: str):
    if not np.all((omega >= -_OMEGA_SLACK) & (omega <= np.pi / 2 + _OMEGA_SLACK)):
        raise ValueError(f"{name} must lie in [0, pi/2], got {omega}")
    return np.clip(omega, 0.0, np.pi / 2)


def _phase(w, r):
    """Argument of w, and 0 where |w| = r is 0."""
    return np.where(r > 0, np.angle(w), 0.0)


@dataclass(frozen=True)
class Chart2Point:
    """Spherical coordinates (R12, omega, phi) over the merging pair.

    rho12 = R12*sin(omega) is the pair separation scale; the point z sits at
    distance R12*cos(omega) from the center of mass zeta in direction phi,
    and theta is the direction through which the pair approaches.
    """

    zeta: complex = 0j
    R12: float = 0.0
    omega: float = 0.0
    phi: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        if np.any(self.R12 < 0):
            raise ValueError("R12 must be nonnegative")
        object.__setattr__(self, "omega", _check_omega(self.omega, "omega"))
        object.__setattr__(self, "phi", np.mod(self.phi, TWO_PI))
        object.__setattr__(self, "theta", np.mod(self.theta, TWO_PI))


@dataclass(frozen=True)
class Chart3CornerPoint:
    """Corner chart where a pair merges inside a merging triple."""

    zeta: complex = 0j
    R123: float = 0.0
    R12: float = 0.0
    omega12: float = 0.0
    phi12: float = 0.0
    theta12: float = 0.0
    phi2: float = 0.0

    def __post_init__(self) -> None:
        if np.any(self.R123 < 0) or np.any(self.R12 < 0):
            raise ValueError("radial coordinates must be nonnegative")
        object.__setattr__(self, "omega12", _check_omega(self.omega12, "omega12"))
        for name in ("phi12", "theta12", "phi2"):
            object.__setattr__(self, name, np.mod(getattr(self, name), TWO_PI))


def blowdown2(p: Chart2Point) -> tuple[complex, complex, complex]:
    """Map chart coordinates to (z1, z2, z).

    z1 = zeta + rho12 e^{i theta},  z2 = zeta - rho12 e^{i theta},
    z  = zeta + R12 cos(omega) e^{i phi},  rho12 = R12 sin(omega).
    """
    w = p.R12 * np.sin(p.omega) * np.exp(1j * p.theta)
    z = p.zeta + p.R12 * np.cos(p.omega) * np.exp(1j * p.phi)
    return p.zeta + w, p.zeta - w, z


def chart2_from_points(z1: complex, z2: complex, z: complex) -> Chart2Point:
    """Invert the two-point blowdown.

    The center of mass is zeta = (z1+z2)/2; the chart degenerates exactly on
    the blown-up center z1 = z2, z = zeta (R12 = 0).
    """
    zeta = 0.5 * (z1 + z2)
    w = 0.5 * (z1 - z2)
    zrel = z - zeta
    rho12, r = np.abs(w), np.abs(zrel)
    R12 = np.hypot(rho12, r)
    if np.any(R12 == 0.0):
        raise DegenerateChartError("z1 = z2 and z = zeta: point on the blown-up center")
    omega = np.arctan2(rho12, r)
    return Chart2Point(zeta=zeta, R12=R12, omega=omega, phi=_phase(zrel, r), theta=_phase(w, rho12))


def blowdown3_corner(p: Chart3CornerPoint) -> tuple[complex, complex, complex, complex]:
    """Map corner-chart coordinates to (z1, z2, z3, z).

    z1 - zeta = -(z2 - zeta) = R123 sqrt(1-(R12 cos w12)^2) R12 sin(w12) e^{i theta12},
    z3 - zeta = R123 sqrt(1-(R12 cos w12)^2) sqrt(1-(R12 sin w12)^2) e^{i phi2},
    z  - zeta = R123 R12 cos(w12) e^{i phi12}.
    """
    a = p.R12 * np.cos(p.omega12)
    b = p.R12 * np.sin(p.omega12)
    outer = p.R123 * np.sqrt(np.maximum(0.0, 1.0 - a * a))
    w1 = outer * b * np.exp(1j * p.theta12)
    z3 = p.zeta + outer * np.sqrt(np.maximum(0.0, 1.0 - b * b)) * np.exp(1j * p.phi2)
    z = p.zeta + p.R123 * a * np.exp(1j * p.phi12)
    return p.zeta + w1, p.zeta - w1, z3, z


def chart3_corner_from_points(
    z1: complex, z2: complex, z3: complex, z: complex
) -> Chart3CornerPoint:
    """Invert the corner blowdown.

    Uses R123^2 = |w1|^2 + |w2|^2 + |z-zeta|^2 with w1 = (z1-z2)/2 and
    w2 = z3 - zeta, which follows from the blowdown formulas.
    """
    zeta = 0.5 * (z1 + z2)
    w1 = 0.5 * (z1 - z2)
    w2 = z3 - zeta
    v = z - zeta
    r1, r2, rv = np.abs(w1), np.abs(w2), np.abs(v)
    rho123 = np.hypot(r1, r2)
    R123 = np.hypot(rho123, rv)
    if np.any(rho123 == 0.0):
        raise DegenerateChartError("configuration lies on a blown-up center")
    a = rv / R123  # R12 cos(omega12)
    rho12 = r1 / rho123  # R12 sin(omega12)
    return Chart3CornerPoint(
        zeta=zeta,
        R123=R123,
        R12=np.hypot(a, rho12),
        omega12=np.arctan2(rho12, a),
        phi12=_phase(v, rv),
        theta12=_phase(w1, r1),
        phi2=_phase(w2, r2),
    )


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


# Total-space faces: the pair face C12, the triple face C123 and the fiber boundary.
_LIFT_TWO = LiftingMatrix(
    rows=("C12[R12]", "fiber[omega]"),
    cols=("rho12",),
    entries=((1,), (1,)),
)
_LIFT_THREE = LiftingMatrix(
    rows=("C123[R123]", "C12[R12]", "fiber[omega12]"),
    cols=("rho123", "rho12"),
    entries=((1, 0), (0, 1), (0, 1)),
)


def _base_two(z1, z2, z) -> dict[str, np.ndarray]:
    return {"rho12": np.abs(z1 - z2) / 2}


def _base_three(z1, z2, z3, z) -> dict[str, np.ndarray]:
    w1 = 0.5 * (z1 - z2)
    w2 = z3 - 0.5 * (z1 + z2)
    rho123 = np.hypot(np.abs(w1), np.abs(w2))
    return {"rho123": rho123, "rho12": np.abs(w1) / rho123}



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
    verification failure naming the face and side, not raised.  The
    point-level round trip (blowdown, inversion, blowdown) runs on one
    further block of min(samples, SAMPLE_BLOCK) interior points.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not _RADIAL_FLOOR < region < 1.0:
        raise ValueError(f"region must lie in ({_RADIAL_FLOOR:g}, 1): radial samples start at {_RADIAL_FLOOR:g}")
    rng = np.random.default_rng(seed)
    top = np.pi / 2 - OMEGA_MARGIN
    angles = [(0.0, TWO_PI)] * 3
    # per chart: the coordinates drawn, in draw order, and their sampling bounds
    if chart == "two":
        lifting, point, base = _LIFT_TWO, Chart2Point, _base_two
        blowdown, invert = blowdown2, chart2_from_points
        coords = ("R12", "omega", "phi", "theta")
        sample_bounds = [(_RADIAL_FLOOR, region), (1e-9, top)]
        trip_bounds = [(0.1 * region, region), (0.0, top)] + angles[:2]
    elif chart == "three-corner":
        lifting, point, base = _LIFT_THREE, Chart3CornerPoint, _base_three
        blowdown, invert = blowdown3_corner, chart3_corner_from_points
        coords = ("R123", "R12", "omega12", "theta12", "phi12", "phi2")
        sample_bounds = [(_RADIAL_FLOOR, 1.0), (_RADIAL_FLOOR, region), (1e-9, top)] + angles
        trip_bounds = [(0.1, 1.0), (0.1 * region, region), (0.05, top)] + angles
    else:
        raise ValueError(f"unknown chart {chart!r} (expected 'two' or 'three-corner')")

    bdfs = [row[row.index("[") + 1 : -1] for row in lifting.rows]  # "C12[R12]" -> "R12"
    ranges: dict[str, tuple[float, float]] = {}
    for start in range(0, samples, SAMPLE_BLOCK):
        x = _draw(rng, sample_bounds, min(SAMPLE_BLOCK, samples - start))
        p = point(**dict(zip(coords, x.T)))
        rhos = base(*blowdown(p))
        for face, column in zip(lifting.cols, zip(*lifting.entries)):
            a = rhos[face] / math.prod((getattr(p, c) ** e for c, e in zip(bdfs, column) if e), start=1.0)
            lo, hi = ranges.get(face, (np.inf, -np.inf))
            ranges[face] = (min(lo, float(a.min())), max(hi, float(a.max())))

    # round trip: the center of mass zeta is drawn first, then the coordinates
    x = _draw(rng, [(-1.0, 1.0), (-1.0, 1.0)] + trip_bounds, min(samples, SAMPLE_BLOCK))
    pts = blowdown(point(zeta=x[:, 0] + 1j * x[:, 1], **dict(zip(coords, x[:, 2:].T))))
    back = blowdown(invert(*pts))
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
