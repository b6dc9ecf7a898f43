"""Exact flat conic metrics from logarithmic potentials, and geometric probes.

A configuration of marked points p_i with angle parameters beta_i carries
the flat singular metric e^{2G} |dz|^2 with

    G(z) = sum_i (beta_i - 1) log|z - p_i|.

With sum(beta_i - 1) = -2 this is the genus-zero global model on the plane,
smooth at infinity; otherwise it is a local model on a disk.  Nothing below
depends on which, so there is no background to choose.  The probes measure
cone angles by comparing circumference to radial distance, expand G at the
two-point merging corner, and verify the cluster factorization of G into
per-node logarithmic terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cones import RationalLike, to_fraction
from .extrapolate import neville_zero
from .lattice import ClusterTree, IndexSubset
from .phg import TrigPoly

__all__ = [
    "FlatConicMetric",
    "CornerExpansion2",
    "ProbeReport",
    "ClusterSplitReport",
    "green_factor",
    "corner_expansion_2pt",
    "cone_angle_probe",
    "cluster_split",
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

    @classmethod
    def of(cls, points: Sequence[complex], beta: Sequence[RationalLike]) -> "FlatConicMetric":
        return cls(tuple(complex(p) for p in points), tuple(to_fraction(b)[0] for b in beta))

    @property
    def k(self) -> int:
        return len(self.points)


def green_factor(m: FlatConicMetric, z: complex, exclude: Optional[int] = None) -> float:
    """G(z) = sum (beta_i - 1) log|z - p_i|; diverges at the marked points.

    With ``exclude`` the log term of points[exclude] is left out, which
    leaves a function smooth near that point.
    """
    total = 0.0
    for j, (p, b) in enumerate(zip(m.points, m.beta)):
        if j == exclude:
            continue
        d = abs(z - p)
        if d == 0.0:
            raise ValueError(f"z = {z} is a marked point")
        total += float(b - 1) * math.log(d)
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

    def coefficient(self, n: int) -> TrigPoly:
        for m, t in self.terms:
            if m == n:
                return t
        raise KeyError(n)


def corner_expansion_2pt(
    beta1: RationalLike, beta2: RationalLike, order: int
) -> CornerExpansion2:
    """Taylor coefficients in s of the two-point corner expansion of G."""
    if not 1 <= order <= 8:
        raise ValueError("order must be between 1 and 8")
    b1, _ = to_fraction(beta1)
    b2, _ = to_fraction(beta2)
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
    to 2^17 nodes.
    """
    n = 32
    t = np.arange(n) * (2 * math.pi / n)
    vals = f(t)
    best = float(np.mean(vals)) * 2 * math.pi
    while n < 1 << 17:
        t_new = t + math.pi / n
        vals_new = f(t_new)
        n *= 2
        total = (np.sum(vals) + np.sum(vals_new)) * (2 * math.pi / n)
        t = np.sort(np.concatenate([t, t_new]))
        vals = np.concatenate([vals, vals_new])  # order irrelevant for the mean
        if abs(total - best) <= QUAD_RTOL * max(abs(total), 1e-300):
            return total
        best = total
    return best


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def radial_log_integral(g, t_lo: float, t_hi: float) -> float:
    """Integral of g(t) dt on [t_lo, t_hi] by panelled 16-point Gauss-Legendre.

    Panels double from 4 until the relative change is at most QUAD_RTOL, up
    to 4096 panels; t is a log-radius variable, so integrands are smooth
    here even when the radial integrand is algebraically singular at r = 0.
    """
    panels = 4
    prev = None
    while panels <= 4096:
        edges = np.linspace(t_lo, t_hi, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total += half * float(np.sum(_GL_WEIGHTS * g(mid + half * _GL_NODES)))
        if prev is not None and abs(total - prev) <= QUAD_RTOL * max(abs(total), 1e-300):
            return total
        prev = total
        panels *= 2
    return prev if prev is not None else 0.0


# ---------------------------------------------------------------------------
# cone-angle probe


@dataclass
class ProbeReport:
    point_index: int
    radii: tuple[float, ...]
    ratios: tuple[float, ...]
    extrapolated: float


def _circumference(m: FlatConicMetric, index: int, r: float) -> float:
    p = m.points[index]
    b = float(m.beta[index])

    def f(t: np.ndarray) -> np.ndarray:
        zs = p + r * np.exp(1j * t)
        out = np.empty_like(t)
        for i, z in enumerate(zs):
            out[i] = math.exp(green_factor(m, complex(z), exclude=index))
        return out

    return r**b * circle_integral(f)


def _radial_length(m: FlatConicMetric, index: int, r: float) -> float:
    p = m.points[index]
    b = float(m.beta[index])
    t_hi = math.log(r)
    t_lo = t_hi - 40.0 / b

    def g(ts: np.ndarray) -> np.ndarray:
        out = np.empty_like(ts)
        for i, t in enumerate(ts):
            z = p + math.exp(t)
            out[i] = math.exp(b * t + green_factor(m, z, exclude=index))
        return out

    # analytic tail below t_lo: the smooth factor is constant to machine
    # precision there, so its contribution is exp(Gtilde(p)) e^{b t_lo}/b
    tail = math.exp(green_factor(m, p, exclude=index)) * math.exp(b * t_lo) / b
    return radial_log_integral(g, t_lo, t_hi) + tail


def cone_angle_probe(
    m: FlatConicMetric,
    point_index: int,
    radii: Sequence[float],
) -> ProbeReport:
    """Estimate the angle parameter at one marked point geometrically.

    For each radius, integrates the metric circumference C(r) of the circle
    around the point and the radial distance L(r) along the ray phi = 0;
    the ratio C(r)/(2 pi L(r)) tends to beta as r -> 0 and is extrapolated
    polynomially to r = 0.  ``point_index`` is 0-based; all radii must be
    small enough that the disks contain no other marked point.
    """
    rs = [float(r) for r in radii]
    if not rs or any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])) or rs[-1] <= 0:
        raise ValueError("radii must be positive and strictly decreasing")
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
    return ProbeReport(point_index, tuple(rs), tuple(ratios), extrapolated)


# ---------------------------------------------------------------------------
# cluster factorization


@dataclass
class ClusterSplitReport:
    """Per-node log coefficients and the remainder along a shrinking path."""

    coefficients: dict[IndexSubset, Fraction]
    path: tuple[tuple[float, float], ...]  # (contraction factor, remainder)
    value_at_first: float
    variation: float
    bounded: bool


def _centroid(points: Sequence[complex], members: Sequence[int]) -> complex:
    return sum(points[i - 1] for i in members) / len(members)


def _shrunk_positions(
    m: FlatConicMetric, t: ClusterTree, factor: float
) -> tuple[list[complex], dict[IndexSubset, complex]]:
    """Contract every cluster level of the configuration by ``factor``.

    Offsets between a node's children (and its free points) keep their
    directions from the metric's own points but are rescaled by factor per
    tree level, so every node's relative separation scale equals factor.
    """
    pts = list(m.points)
    pos = [0j] * m.k
    centers: dict[IndexSubset, complex] = {}

    def rec(node: IndexSubset, base: complex, acc: float) -> None:
        # acc is the accumulated contraction at this node's own level; the
        # relative separation scale of every node is then exactly ``factor``
        centers[node] = base
        c_node = _centroid(pts, node.members)
        for child in t.children(node):
            c_child = _centroid(pts, child.members)
            rec(child, base + acc * (c_child - c_node), acc * factor)
        covered = set().union(*(set(c.members) for c in t.children(node))) if t.children(node) else set()
        for i in node.members:
            if i not in covered:
                pos[i - 1] = base + acc * (pts[i - 1] - c_node)

    rec(t.root, _centroid(pts, t.root.members), factor)
    return pos, centers


def cluster_split(m: FlatConicMetric, t: ClusterTree, scale: float = 0.5) -> ClusterSplitReport:
    """Per-node coefficients of log(cluster scale) in G, with a remainder check.

    Exact part: each tree node I contributes (sum_{i in I} beta_i - |I|)
    times the log of its relative contraction.  Numeric part: the
    configuration is contracted level-by-level by factors 10^{-1}..10^{-6},
    a probe point rides in the deepest node's chart, and the remainder
    G(probe) - sum(coefficient * log factor) must stay bounded.

    ``scale`` is the required separation contrast: each cluster's diameter
    must be below scale times its distance to the rest of its parent,
    otherwise the tree is inconsistent with the points and a ValueError is
    raised.
    """
    if t.k != m.k:
        raise ValueError("tree ambient count does not match the configuration")
    if not 0 < scale < 1:
        raise ValueError("scale must lie in (0, 1)")
    pts = m.points
    for v in t.vertices:
        parent = t.parent[v]
        if parent is None:
            continue
        inside = [pts[i - 1] for i in v.members]
        outside = [pts[i - 1] for i in parent.members if i not in v]
        diam = max((abs(a - b) for a in inside for b in inside), default=0.0)
        gap = min(abs(a - b) for a in inside for b in outside)
        if diam >= scale * gap:
            raise ValueError(
                f"tree inconsistent with point clustering at node {v}: "
                f"diameter {diam:.3g} vs separation {gap:.3g}"
            )

    coefficients = {
        v: sum((m.beta[i - 1] for i in v.members), Fraction(0)) - len(v) for v in t.vertices
    }

    # deepest node hosts the probe point
    def depth(v: IndexSubset) -> int:
        d = 0
        w = v
        while t.parent[w] is not None:
            w = t.parent[w]
            d += 1
        return d

    deepest = max(t.vertices, key=lambda v: (depth(v), -min(v.members)))
    d_deep = depth(deepest)
    c_deep = _centroid(pts, deepest.members)
    spread = max(abs(pts[i - 1] - c_deep) for i in deepest.members)
    delta = 1.5 * max(spread, 1e-3) * cmath.exp(0.9j)

    total_coeff = sum(coefficients.values(), Fraction(0))
    path = []
    for depth_exp in range(1, 7):
        factor = 10.0**-depth_exp
        pos, centers = _shrunk_positions(m, t, factor)
        probe = centers[deepest] + factor ** (d_deep + 1) * delta
        shrunk = FlatConicMetric(tuple(pos), m.beta)
        rem = green_factor(shrunk, probe) - float(total_coeff) * math.log(factor)
        path.append((factor, rem))

    values = [r for _, r in path]
    variation = max(values) - min(values)
    first = values[0]
    bounded = variation < 10.0 * (abs(first) + 1e-9)
    return ClusterSplitReport(
        coefficients=coefficients,
        path=tuple(path),
        value_at_first=first,
        variation=variation,
        bounded=bounded,
    )
