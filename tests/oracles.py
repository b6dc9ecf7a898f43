"""Reference computations the tests compare the library against."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from conic_moduli.phg import ExponentEntry
from conic_moduli.solver import FootballDegeneracyError


def spherical_existence_gate(betas) -> None:
    """The spherical solve's refusal of cone data, written out by cases in exact rationals.

    Angles with chi(beta) = 2 + sum(beta_i - 1) <= 0 leave Gauss-Bonnet no
    positive area (ValueError).  One cone point admits no metric
    (ValueError).  Two equal angles are the football
    (FootballDegeneracyError), two unequal angles admit no metric
    (ValueError), and with all beta < 1 the Luo-Tian inequalities
    1 - beta_i < sum_{j != i} (1 - beta_j), for every i, decide (ValueError);
    any other data pass.
    """
    bs = [Fraction(b) for b in betas]
    defects = [1 - b for b in bs]
    if 2 - sum(defects) <= 0:
        raise ValueError("no positive area")
    if len(bs) == 1:
        raise ValueError("one cone point")
    if len(bs) == 2:
        if bs[0] == bs[1]:
            raise FootballDegeneracyError("two equal cone angles")
        raise ValueError("two unequal cone angles")
    if max(bs) < 1 and any(d >= sum(defects) - d for d in defects):
        raise ValueError("Luo-Tian inequalities violated")


@dataclass
class RadialProfile:
    beta: float
    rfrak: np.ndarray
    u0: np.ndarray
    r: np.ndarray


def radial_hyperbolic(beta: float, r_max: float, nodes: int) -> RadialProfile:
    """Integrate the one-cone geodesic/conformal ODE system numerically.

    The system d rtilde/d rfrak = e^{u0}, sinh(rtilde) = e^{u0} rfrak is
    reduced to d rtilde/d rfrak = sinh(rtilde)/rfrak and integrated with a
    high-order scheme from a series start; u0(rfrak) = log(sinh(rtilde)/rfrak)
    is returned on a uniform grid.  The metric closes up at rfrak = 2.
    """
    if not 0 < r_max < 2:
        raise ValueError("r_max must lie in (0, 2) in the rfrak variable")
    if nodes < 2:
        raise ValueError("need at least two nodes")
    b = float(beta)
    if b <= 0:
        raise ValueError("beta must be positive")

    rf = np.linspace(0.0, r_max, nodes)
    u0 = np.zeros(nodes)
    x0 = 1e-6

    def series_rtilde(x: float) -> float:
        # rtilde = x + x^3/12 + 3 x^5/320 + O(x^7) near the tip
        return x * (1.0 + x * x / 12.0 + 3.0 * x**4 / 320.0)

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        return np.array([math.sinh(y[0]) / x])

    far = np.nonzero(rf > x0)[0]
    if far.size:
        sol = solve_ivp(
            rhs,
            (x0, float(rf[far[-1]])),
            np.array([series_rtilde(x0)]),
            t_eval=rf[far],
            method="DOP853",
            rtol=1e-13,
            atol=1e-16,
        )
        if not sol.success:
            raise ArithmeticError(f"ODE integration failed: {sol.message}")
        for idx, rtilde in zip(far, sol.y[0]):
            u0[idx] = math.log(math.sinh(rtilde) / rf[idx])
    for i, x in enumerate(rf):
        if 0.0 < x <= x0:
            u0[i] = math.log(math.sinh(series_rtilde(x)) / x)
    r = np.power(b * rf, 1.0 / b, where=rf > 0, out=np.zeros_like(rf))
    return RadialProfile(beta=b, rfrak=rf, u0=u0, r=r)


def index_set_by_fractions(beta: Fraction, cutoff: Fraction) -> list[ExponentEntry]:
    """``phg.index_set`` without its cap, enumerating one Fraction j + 2*k*beta per (j, k) pair."""
    found: dict[Fraction, list[tuple[int, int]]] = {}
    k = 0
    while 2 * k * beta <= cutoff:
        j = 0
        while j + 2 * k * beta <= cutoff:
            if (j, k) != (0, 0):
                found.setdefault(j + 2 * k * beta, []).append((j, k))
            j += 1
        k += 1
    return [ExponentEntry(a, tuple(sorted(found[a]))) for a in sorted(found)]
