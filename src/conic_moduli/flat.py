"""Exact flat conic metrics from logarithmic potentials, and geometric probes.

A configuration of marked points p_i with angle parameters beta_i carries
the flat singular metric e^{2G} |dz|^2 with

    G(z) = sum_i (beta_i - 1) log|z - p_i|.

With sum(beta_i - 1) = -2 this is the genus-zero global model on the plane,
smooth at infinity; otherwise it is a local model on a disk.  Nothing below
depends on which, so there is no background to choose.  The probes measure
cone angles by comparing circumference to radial distance, and G is
expanded at the two-point merging corner.  G is also the cone potential of
the solver's singular sphere background and of its merging pair, so
``FlatConicMetric`` is the one check of marked points and ``green_factor``
the one sum of (beta_i - 1) log|z - p_i|.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .cones import RationalLike, to_fraction
from .extrapolate import neville_zero
from .phg import TrigPoly

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FlatConicMetric",
    "CornerExpansion2",
    "ProbeReport",
    "green_factor",
    "corner_expansion_2pt",
    "cone_angle_probe",
    "circle_integral",
    "radial_log_integral",
]

QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class FlatConicMetric:
    """Marked points with exact angle parameters.

    When sum(beta_i - 1) = -2 exactly the metric is the plane model, closing
    up smoothly at infinity; otherwise it is the local density on a disk.
    Both are the same object here, so no background is chosen or checked.
    The points must be finite and distinct (ValueError otherwise).
    """

    points: tuple[complex, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.beta):
            raise ValueError("points and beta must have equal length")
        if not self.points:
            raise ValueError("need at least one marked point")
        if any(b <= 0 for b in self.beta):
            raise ValueError("angle parameters must be positive")
        for i, p in enumerate(self.points):
            if not cmath.isfinite(p):
                raise ValueError(f"marked point {p.real:g},{p.imag:g} is not finite")
            if p in self.points[:i]:
                raise ValueError(f"marked point {p.real:g},{p.imag:g} is repeated")

    @classmethod
    def of(cls, points: Sequence[complex], beta: Sequence[RationalLike]) -> "FlatConicMetric":
        return cls(tuple(complex(p) for p in points), tuple(to_fraction(b)[0] for b in beta))


def green_factor(m: FlatConicMetric, z: Union[complex, np.ndarray], exclude: Optional[int] = None) -> np.ndarray:
    """G(z) = sum (beta_i - 1) log|z - p_i|, elementwise; diverges at the marked points.

    ``z`` is a complex number or an array; a scalar gives a 0-d array.  With
    ``exclude`` the log term of points[exclude] is left out, which leaves a
    function smooth near that point.  Any other marked point in ``z`` raises
    ValueError.
    """
    import numpy as np

    z = np.asarray(z, dtype=complex)
    total = np.zeros(z.shape)
    for j, (p, b) in enumerate(zip(m.points, m.beta)):
        if j == exclude:
            continue
        d = np.abs(z - p)
        if np.any(d == 0.0):
            raise ValueError(f"z hits the marked point {p}")
        total += float(b - 1) * np.log(d)
    return total


# ---------------------------------------------------------------------------
# corner expansion of G when two points merge


@dataclass(frozen=True)
class CornerExpansion2:
    """Expansion of G at the two-point corner in s = (pair scale)/|z|.

    G = (beta1 + beta2 - 2) log r
        + 1/2 (beta1 - 1) log(1 - 2 s cos D + s^2)
        + 1/2 (beta2 - 1) log(1 + 2 s cos D + s^2),      D = theta - phi,

    and the s^n Taylor coefficient is the pure-degree-n polynomial
    -((beta1 - 1) + (-1)^n (beta2 - 1))/n * cos(n D).
    """

    beta1: Fraction
    beta2: Fraction
    log_coefficient: Fraction
    terms: tuple[tuple[int, TrigPoly], ...]


def corner_expansion_2pt(
    beta1: RationalLike, beta2: RationalLike, order: int
) -> CornerExpansion2:
    """Taylor coefficients in s of the two-point corner expansion of G (ValueError for beta <= 0)."""
    if not 1 <= order <= 8:
        raise ValueError("order must be between 1 and 8")
    b1, _ = to_fraction(beta1)
    b2, _ = to_fraction(beta2)
    if b1 <= 0 or b2 <= 0:
        raise ValueError("angle parameters must be positive")
    terms = []
    for n in range(1, order + 1):
        c = -Fraction((b1 - 1) + (-1) ** n * (b2 - 1), n)
        terms.append((n, TrigPoly.cos(n, c)))
    return CornerExpansion2(
        beta1=b1,
        beta2=b2,
        log_coefficient=b1 + b2 - 2,
        terms=tuple(terms),
    )


# ---------------------------------------------------------------------------
# quadrature helpers (fixed policy: doubling trapezoid / panelled GL)


def circle_integral(f) -> float:
    """Integral over [0, 2*pi) of a periodic function by doubling trapezoid.

    Nodes double from 32 until the relative change is at most QUAD_RTOL, up
    to 2^17 nodes; ArithmeticError if it is not reached there.
    """
    import numpy as np

    n = 32
    t = np.arange(n) * (2 * math.pi / n)
    vals = f(t)
    best = float(np.mean(vals)) * 2 * math.pi
    while n < 1 << 17:
        t_new = t + math.pi / n
        vals_new = f(t_new)
        n *= 2
        total = (np.sum(vals) + np.sum(vals_new)) * (2 * math.pi / n)
        t = np.concatenate([t, t_new])  # only the next midpoints read t
        vals = np.concatenate([vals, vals_new])
        if abs(total - best) <= QUAD_RTOL * max(abs(total), 1e-300):
            return total
        best = total
    raise ArithmeticError(f"circle_integral did not converge to QUAD_RTOL in {n} nodes")


@functools.cache
def _gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss-Legendre on [-1, 1], computed on first use."""
    import numpy as np

    return np.polynomial.legendre.leggauss(16)


def radial_log_integral(g, t_lo: float, t_hi: float) -> float:
    """Integral of g(t) dt on [t_lo, t_hi] by panelled 16-point Gauss-Legendre.

    Panels double from 4 until the relative change is at most QUAD_RTOL, up
    to 4096 panels (ArithmeticError if it is not reached there); t is a
    log-radius variable, so integrands are smooth here even when the radial
    integrand is algebraically singular at r = 0.
    ``g`` works elementwise: each level calls it once, on a panels x 16 array.
    """
    import numpy as np

    nodes, weights = _gauss_legendre_16()
    panels = 4
    prev = None
    while panels <= 4096:
        edges = np.linspace(t_lo, t_hi, panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        vals = g(mid[:, None] + half[:, None] * nodes)
        total = float(np.sum(half * np.sum(weights * vals, axis=1)))
        if prev is not None and abs(total - prev) <= QUAD_RTOL * max(abs(total), 1e-300):
            return total
        prev = total
        panels *= 2
    raise ArithmeticError(f"radial_log_integral did not converge to QUAD_RTOL in {panels // 2} panels of 16 nodes")


# ---------------------------------------------------------------------------
# cone-angle probe


@dataclass
class ProbeReport:
    radii: tuple[float, ...]
    ratios: tuple[float, ...]
    extrapolated: float


def _circumference(m: FlatConicMetric, index: int, r: float) -> float:
    import numpy as np

    p = m.points[index]
    b = float(m.beta[index])
    return r**b * circle_integral(lambda t: np.exp(green_factor(m, p + r * np.exp(1j * t), exclude=index)))


def _radial_length(m: FlatConicMetric, index: int, r: float) -> float:
    import numpy as np

    p = m.points[index]
    b = float(m.beta[index])
    t_hi = math.log(r)
    t_lo = t_hi - 40.0 / b
    # analytic tail below t_lo: the smooth factor is constant to machine
    # precision there, so its contribution is exp(Gtilde(p)) e^{b t_lo}/b
    tail = math.exp(green_factor(m, p, exclude=index)) * math.exp(b * t_lo) / b
    return radial_log_integral(
        lambda ts: np.exp(b * ts + green_factor(m, p + np.exp(ts), exclude=index)), t_lo, t_hi
    ) + tail


def cone_angle_probe(
    m: FlatConicMetric,
    point_index: int,
    radii: Sequence[float],
) -> ProbeReport:
    """Estimate the angle parameter at one marked point geometrically.

    For each radius, integrates the metric circumference C(r) of the circle
    around the point and the radial distance L(r) along the ray phi = 0;
    the ratio C(r)/(2 pi L(r)) tends to beta as r -> 0 and is extrapolated
    polynomially to r = 0.  ``point_index`` is 0-based (0 <= index < k); all
    radii must be small enough that the disks contain no other marked point.
    """
    if not 0 <= point_index < len(m.points):
        raise ValueError(f"point index {point_index} is not in 0..{len(m.points) - 1}")
    rs = [float(r) for r in radii]
    if not rs or not all(map(math.isfinite, rs)) or any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])) or rs[-1] <= 0:
        raise ValueError("radii must be finite, positive and strictly decreasing")
    p = m.points[point_index]
    others = [abs(p - q) for j, q in enumerate(m.points) if j != point_index]
    if others and rs[0] >= min(others):
        raise ValueError("largest radius reaches another marked point")
    ratios = []
    for r in rs:
        c = _circumference(m, point_index, r)
        length = _radial_length(m, point_index, r)
        ratios.append(c / (2 * math.pi * length))
    extrapolated = neville_zero(rs, ratios) if len(rs) > 1 else ratios[0]
    return ProbeReport(tuple(rs), tuple(ratios), extrapolated)
