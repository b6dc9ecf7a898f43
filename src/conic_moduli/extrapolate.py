"""Polynomial extrapolation to zero, log-log slopes and the decay verdict."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["neville_zero", "loglog_slopes", "least_squares_slope", "decay_verdict"]


def neville_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Value at x = 0 of the polynomial interpolating (xs, ys).

    Neville's scheme; xs must be distinct.  Used to push sequences of
    estimates h -> v(h) to their h -> 0 limit.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal, nonempty abscissae and values")
    t = [float(y) for y in ys]
    x = [float(v) for v in xs]
    n = len(t)
    for m in range(1, n):
        for i in range(n - m):
            denom = x[i] - x[i + m]
            if denom == 0:
                raise ValueError("abscissae must be distinct")
            t[i] = (0.0 - x[i + m]) * (t[i] - t[i + 1]) / denom + t[i + 1]
    return t[0]


def loglog_slopes(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Slopes log(y_i/y_{i+1}) / log(x_i/x_{i+1}) between consecutive samples."""
    out = []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 <= 0 or y1 <= 0 or x0 <= 0 or x1 <= 0:
            raise ValueError("log-log slopes need positive data")
        out.append(math.log(y0 / y1) / math.log(x0 / x1))
    return out


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def decay_verdict(
    rhos: Sequence[float], values: Sequence[float], n_target: int
) -> tuple[float, list[float], bool]:
    """Decay rate of |value| as rho -> 0 and whether it reaches n_target.

    Returns the least-squares log-log slope, the consecutive pair slopes,
    and the verdict slope >= n_target - 0.1.  Refuses (ValueError) fewer
    than three samples, rho values that are not positive, strictly
    decreasing and geometric (successive ratios within 1 % of each other),
    and a zero or non-finite value.
    """
    rhos = [float(r) for r in rhos]
    mags = [abs(float(v)) for v in values]
    if len(rhos) < 3:
        raise ValueError("need at least three (rho, value) samples")
    if not all(r1 > r2 > 0 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rho values must be positive and strictly decreasing")
    ratios = [r1 / r2 for r1, r2 in zip(rhos, rhos[1:])]
    if max(ratios) / min(ratios) > 1.01:
        raise ValueError("rho values must form a geometric sequence")
    if not all(0 < m < math.inf for m in mags):
        raise ValueError("values must be finite and nonzero")
    slope = least_squares_slope(rhos, mags)
    return slope, loglog_slopes(rhos, mags), slope >= n_target - 0.1
