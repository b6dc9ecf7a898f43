"""Reference computations the tests compare the library against."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from conic_moduli.phg import ExponentEntry, TrigPoly
from conic_moduli.solver import FootballDegeneracyError, assemble, picard_solve


def spherical_existence_gate(betas) -> None:
    """The spherical solve's refusal of cone data, written out by cases in exact rationals.

    Angles with chi(beta) = 2 + sum(beta_i - 1) <= 0 leave Gauss-Bonnet no
    positive area (ValueError).  A point with beta = 1 is smooth, not a
    cone, and the rest counts only the cones.  No cone is the round sphere
    and two equal angles the football (FootballDegeneracyError), one cone
    point or two unequal angles admit no metric (ValueError), and with
    every cone's beta < 1 the Luo-Tian inequalities
    1 - beta_i < sum_{j != i} (1 - beta_j), for every i, decide
    (ValueError); any other data pass.
    """
    bs = [Fraction(b) for b in betas]
    defects = [1 - b for b in bs]
    if 2 - sum(defects) <= 0:
        raise ValueError("no positive area")
    cones = [b for b in bs if b != 1]
    if not cones:
        raise FootballDegeneracyError("no cone point")
    if len(cones) == 1:
        raise ValueError("one cone point")
    if len(cones) == 2:
        if cones[0] == cones[1]:
            raise FootballDegeneracyError("two equal cone angles")
        raise ValueError("two unequal cone angles")
    if max(cones) < 1 and any(d >= sum(defects) - d for d in defects):
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


def full_width_hyperbolic_correction(mesh, beta: float, profile, tol: float = 1e-10):
    """``hyperbolic_correction_solve``'s problem assembled and Picard-solved on every node of ``mesh``.

    The same data, the flat cone r^{2(beta-1)} times e^{2 profile(rfrak)} and
    its discrete curvature away from the tip (the weak form of the profile
    alone: the cone's part is linear in t), on the caller's full rings rather
    than on the narrowest ones.
    """
    r, _ = mesh.grids()
    u_approx = profile(r**beta / beta) * np.ones((mesh.nt, mesh.nphi))
    op = assemble(mesh, r ** (2.0 * (beta - 1.0)) * np.exp(2.0 * u_approx))
    K_tilde = op.weak_form(u_approx) / op.W
    return picard_solve(op, op.dof_to_grid(-(K_tilde + 1.0)), tol=tol)


def hyperbolic_forcing_stencil(r_min: float, r_max: float, nt: int, beta: float, u_approx) -> np.ndarray:
    """The one-cone correction's forcing -(K_tilde + 1), by a radial three-point stencil in long double.

    On a log-polar mesh of nt rings, uniform in t = log r from log r_min to
    log r_max with spacing h, a collapsed inner ring and a Dirichlet outer
    one, the metric e^{2 u} r^{2(beta - 1)} |dz|^2 with u = ``u_approx`` (its
    nt radial values) has lumped mass e^{2 beta t + 2 u} h per unit angle on
    an interior ring and half that on the inner one, which holds its whole
    ring.  The flat cone's part is linear in t, so away from the tip only u
    bends and K_tilde is -(u_{i-1} - 2 u_i + u_{i+1}) / (h^2 e^{2 beta t_i + 2 u_i});
    the tip's own delta is the background's, and the inner ring's row is
    2 (u_0 - u_1) / (h^2 e^{2 beta t_0 + 2 u_0}).  The outer ring's value enters
    only as its neighbour's.  Returns nt - 1 values, inner ring first.
    """
    ld = np.longdouble
    u = np.asarray(u_approx, dtype=ld)
    h = (np.log(ld(r_max)) - np.log(ld(r_min))) / ld(nt - 1)
    t = np.log(ld(r_min)) + h * np.arange(nt, dtype=ld)
    bend = np.empty(nt - 1, dtype=ld)
    bend[0] = 2 * (u[0] - u[1])
    bend[1:] = 2 * u[1:-1] - u[:-2] - u[2:]
    k_tilde = bend / (h * h * np.exp(2 * ld(beta) * t[:-1] + 2 * u[:-1]))
    return -(k_tilde + 1)


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


def trig_value(poly: TrigPoly, phi: float) -> float:
    """sum_m (c_m cos(m phi) + d_m sin(m phi)) at one angle, in floating point."""
    return sum((float(c) * math.cos(m * phi) + float(d) * math.sin(m * phi) for m, (c, d) in poly.coeffs.items()), 0.0)


def _accumulate(out: dict, table: dict, scale=1) -> None:
    """out += scale * table, slot by slot, over tables {exponent of r: TrigPoly}."""
    for x, t in table.items():
        out[x] = out.get(x, TrigPoly()) + t.scale(scale)


def _product(a: dict, b: dict, cap: Fraction) -> dict:
    """The product of two tables, through the exponent ``cap``."""
    out: dict = {}
    for xa, ta in a.items():
        for xb, tb in b.items():
            if xa + xb <= cap:
                out[xa + xb] = out.get(xa + xb, TrigPoly()) + ta * tb
    return out


def phg_step_identity_holds(j: int, series, table: dict) -> bool:
    """Whether ``table`` solves step j of the phg recursion exactly, through the truncation.

    The identity is L u_j + 2 r^{2 beta} E u_j = -r^{2 beta} E Q_j, slot by
    slot, with L = (r d/dr)^2 + d^2/dphi^2, which maps r^alpha trig_m to
    (alpha^2 - m^2) r^alpha trig_m.  E = e^{2 u0} = (1 - rfrak^2/4)^{-2} =
    sum_k (k + 1) (r^{2 beta}/(4 beta^2))^k is written in closed form, and
    Q_j = sum_{n >= 2} 2^n/n! [rho^j] v^n, the rho^j coefficient of
    e^{2v} - 1 - 2v with v = sum_{i < j} rho^i u_i, is built from its
    definition out of ``series.steps``, by powers of v.
    """
    b, cap = series.beta, series.truncation
    shifted_weight = {  # r^{2 beta} E
        2 * (k + 1) * b: TrigPoly.const(Fraction(k + 1) / (4 * b * b) ** k) for k in range(int(cap / (2 * b)))
    }
    q: dict = {}
    power = {0: {Fraction(0): TrigPoly.const(1)}}  # rho degree -> table of v^n, from n = 0
    for n in range(1, j + 1):
        nxt: dict = {}
        for d, t in power.items():
            for i in range(1, min(j - d, j - 1) + 1):
                _accumulate(nxt.setdefault(d + i, {}), _product(t, series.steps[i], cap))
        power = nxt
        if n >= 2:
            _accumulate(q, power.get(j, {}), Fraction(2**n, math.factorial(n)))
    residual = {
        a: TrigPoly({m: ((a * a - m * m) * c, (a * a - m * m) * d) for m, (c, d) in t.coeffs.items()})
        for a, t in table.items()
        if a <= cap
    }
    _accumulate(residual, _product(shifted_weight, table, cap), 2)
    _accumulate(residual, _product(shifted_weight, q, cap))
    return all(t.is_zero for t in residual.values())
