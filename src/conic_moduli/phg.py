"""Asymptotic-series machinery for the one-cone degeneration.

Implements, over exact rationals:

  * the exponent set {j + 2*k*beta} with collision multiplicities,
  * the closed-form radial series of the one-cone hyperbolic conformal
    factor, u0 = -log(1 - rfrak^2/4) in the geodesic-model variable rfrak,
  * the indicial solve c / (a^2 - m^2) for the model operator
    (r d/dr)^2 + d^2/dphi^2 acting on r^a * (trig of degree m),
  * the order-by-order recursion producing the coefficient tables of the
    expansion transverse to the limit fiber, with globally-determined
    indicial coefficients carried as symbols,
  * numeric exponent fitting for sampled decay data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cones import RationalLike, to_fraction
from .extrapolate import loglog_slopes, neville_zero

__all__ = [
    "LinExpr",
    "TrigPoly",
    "ExponentEntry",
    "PhgSeries",
    "IndicialCollisionError",
    "index_set",
    "MAX_INDEX_PAIRS",
    "u0_series",
    "u0_value",
    "u0_truncated",
    "exp_series",
    "indicial_solve",
    "free_symbols",
    "recursion_step",
    "recurse",
    "verify_step",
    "fit_exponents",
    "FitTerm",
    "FitReport",
]

Rat = Union[Fraction, int]

# (j, k) pairs ``index_set`` may span, counted as the box j <= cutoff,
# 2*k*beta <= cutoff; about half of them are enumerated.  On a 2-core VM a
# box of 525,231 took 1.5 s and 68 MB, 2,101,491 took 7.4 s and 187 MB.
MAX_INDEX_PAIRS = 10**6


class IndicialCollisionError(ArithmeticError):
    """The model operator annihilates the requested exponent/degree pair."""


# ---------------------------------------------------------------------------
# coefficients: rationals extended by formal symbols, linearly


@dataclass(frozen=True)
class LinExpr:
    """const + sum(coeff * symbol): a rational-linear expression.

    Free expansion coefficients (fixed by the global problem, not by the
    local recursion) enter tables through these symbols.  Products of two
    genuinely symbolic expressions are refused; the recursion never needs
    them because nonlinear terms only involve earlier, resolved steps.
    """

    const: Fraction = Fraction(0)
    terms: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def of(x: Union["LinExpr", Rat]) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        return LinExpr(Fraction(x))

    @staticmethod
    def symbol(name: str) -> "LinExpr":
        return LinExpr(Fraction(0), ((name, Fraction(1)),))

    def _tdict(self) -> dict[str, Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def __add__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        o = LinExpr.of(other)
        t = self._tdict()
        for s, c in o.terms:
            t[s] = t.get(s, Fraction(0)) + c
        return LinExpr(self.const + o.const, tuple(sorted((s, c) for s, c in t.items() if c != 0)))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr(-self.const, tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        return self + (-LinExpr.of(other))

    def __mul__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        o = LinExpr.of(other)
        if self.terms and o.terms:
            raise ValueError("product of two symbolic expressions is not linear")
        if o.terms:
            return o * self.const
        return LinExpr(self.const * o.const, tuple((s, c * o.const) for s, c in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rat) -> "LinExpr":
        q = Fraction(scalar)
        return LinExpr(self.const / q, tuple((s, c / q) for s, c in self.terms))

    def substitute(self, values: Mapping[str, Rat]) -> "LinExpr":
        const = self.const + sum((c * Fraction(values[s]) for s, c in self.terms if s in values), Fraction(0))
        return LinExpr(const, tuple(sorted((s, c) for s, c in self.terms if s not in values and c != 0)))

    def value(self) -> Fraction:
        if self.terms:
            raise ValueError(f"unresolved symbols {[s for s, _ in self.terms]}")
        return self.const

    def __str__(self) -> str:
        bits = [] if self.const == 0 else [str(self.const)]
        bits += [f"{c}*{s}" if c != 1 else s for s, c in self.terms]
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# trigonometric polynomials with exact coefficients


class TrigPoly:
    """sum_m (c_m cos(m phi) + d_m sin(m phi)) with LinExpr coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[int, tuple]] = None):
        self.coeffs: dict[int, tuple[LinExpr, LinExpr]] = {}
        if coeffs:
            for m, (c, d) in coeffs.items():
                self._set(m, LinExpr.of(c), LinExpr.of(d))

    def _set(self, m: int, c: LinExpr, d: LinExpr) -> None:
        if m < 0:
            raise ValueError("trig degree must be nonnegative")
        if m == 0:
            d = LinExpr()  # sin(0) = 0
        if c.is_zero and d.is_zero:
            self.coeffs.pop(m, None)
        else:
            self.coeffs[m] = (c, d)

    @staticmethod
    def const(c: Union[LinExpr, Rat]) -> "TrigPoly":
        return TrigPoly({0: (LinExpr.of(c), 0)})

    @staticmethod
    def cos(m: int, c: Union[LinExpr, Rat] = 1) -> "TrigPoly":
        return TrigPoly({m: (LinExpr.of(c), 0)})

    @staticmethod
    def sin(m: int, d: Union[LinExpr, Rat] = 1) -> "TrigPoly":
        return TrigPoly({m: (0, LinExpr.of(d))})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def is_pure(self) -> bool:
        """Only the top-degree harmonics are present."""
        return len(self.coeffs) <= 1

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = TrigPoly()
        for m in set(self.coeffs) | set(other.coeffs):
            c1, d1 = self.coeffs.get(m, (LinExpr(), LinExpr()))
            c2, d2 = other.coeffs.get(m, (LinExpr(), LinExpr()))
            out._set(m, c1 + c2, d1 + d2)
        return out

    def __neg__(self) -> "TrigPoly":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def scale(self, s: Union[LinExpr, Rat]) -> "TrigPoly":
        out = TrigPoly()
        for m, (c, d) in self.coeffs.items():
            out._set(m, c * s, d * s)
        return out

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        # 2 cos(a)cos(b) = cos(a+b) + cos(a-b), 2 sin(a)sin(b) = cos(a-b) - cos(a+b),
        # 2 cos(a)sin(b) = sin(a+b) - sin(a-b), 2 sin(a)cos(b) = sin(a+b) + sin(a-b);
        # sin(a-b) is rewritten at degree |a-b|, and _set drops it at degree 0
        out = TrigPoly()
        half = Fraction(1, 2)
        for a, (ca, da) in self.coeffs.items():
            for b, (cb, db) in other.coeffs.items():
                cc, ss, cs, sc = ca * cb, da * db, ca * db, da * cb
                sgn = half if a >= b else -half
                hi = (a + b, (cc - ss) * half, (cs + sc) * half)
                lo = (abs(a - b), (cc + ss) * half, (sc - cs) * sgn)
                for m, c, d in (hi, lo):
                    c0, d0 = out.coeffs.get(m, (LinExpr(), LinExpr()))
                    out._set(m, c0 + c, d0 + d)
        return out

    def substitute(self, values: Mapping[str, Rat]) -> "TrigPoly":
        out = TrigPoly()
        for m, (c, d) in self.coeffs.items():
            out._set(m, c.substitute(values), d.substitute(values))
        return out

    def has_symbols(self) -> bool:
        return any(c.terms or d.terms for c, d in self.coeffs.values())

    def evaluate(self, phi: float, values: Optional[Mapping[str, Rat]] = None) -> float:
        total = 0.0
        for m, (c, d) in self.coeffs.items():
            cc = c.substitute(values).value() if values else c.value()
            dd = d.substitute(values).value() if values else d.value()
            total += float(cc) * math.cos(m * phi) + float(dd) * math.sin(m * phi)
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return "TrigPoly(0)"
        bits = []
        for m in sorted(self.coeffs):
            c, d = self.coeffs[m]
            if not c.is_zero:
                bits.append(f"({c})cos({m}phi)" if m else f"({c})")
            if not d.is_zero:
                bits.append(f"({d})sin({m}phi)")
        return "TrigPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# exponent sets


@dataclass(frozen=True)
class ExponentEntry:
    """An exponent alpha = j + 2*k*beta with the (j, k) pairs realizing it."""

    alpha: Fraction
    pairs: tuple[tuple[int, int], ...]

    @property
    def multiplicity(self) -> int:
        return len(self.pairs)


def index_set(beta: RationalLike, cutoff: RationalLike) -> list[ExponentEntry]:
    """All exponents j + 2*k*beta <= cutoff with (j,k) != (0,0), sorted.

    j and k range over nonnegative integers.  When 2*k*beta is itself a
    nonnegative integer, distinct (j, k) pairs collide at one exponent; the
    entry records all of them (its multiplicity).  A box of more than
    ``MAX_INDEX_PAIRS`` (j, k) pairs raises ValueError before any enumeration.
    """
    b, _ = to_fraction(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    cut, _ = to_fraction(cutoff)
    if cut <= 0:
        raise ValueError("cutoff must be positive")
    box = (cut // (2 * b) + 1) * (cut // 1 + 1)
    if box > MAX_INDEX_PAIRS:
        raise ValueError(
            f"index set limited to {MAX_INDEX_PAIRS} (j, k) pairs; beta = {b} with cutoff {cut} spans {box}"
        )
    found: dict[Fraction, list[tuple[int, int]]] = {}
    k = 0
    while 2 * k * b <= cut:
        j = 0
        while j + 2 * k * b <= cut:
            if (j, k) != (0, 0):
                found.setdefault(j + 2 * k * b, []).append((j, k))
            j += 1
        k += 1
    return [ExponentEntry(a, tuple(sorted(found[a]))) for a in sorted(found)]


# ---------------------------------------------------------------------------
# the radial one-cone series


_U0_MAX_ORDER = 30  # the most terms of the radial series that ``u0_series`` hands out


def u0_series(order: int) -> list[Fraction]:
    """Coefficients a_j of rfrak^{2j}, j = 1..order, of -log(1 - rfrak^2/4).

    a_j = 1/(j*4^j); the series is independent of the cone parameter in the
    geodesic-model variable rfrak.
    """
    if not 1 <= order <= _U0_MAX_ORDER:
        raise ValueError(f"order must be between 1 and {_U0_MAX_ORDER}")
    return [Fraction(1, j * 4**j) for j in range(1, order + 1)]


def u0_value(rfrak: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """-log(1 - rfrak^2/4), the exact sum of the radial series, elementwise.

    ``rfrak`` is a float or an array; every entry must lie in [0, 2), inside
    the closing radius, and the check runs before any log is taken.
    """
    x = np.asarray(rfrak, dtype=float)
    if not np.all((0 <= x) & (x < 2)):
        raise ValueError("rfrak must lie in [0, 2)")
    return -np.log1p(-x * x / 4.0)


def u0_truncated(rfrak: Union[float, np.ndarray], order: int) -> Union[float, np.ndarray]:
    """sum_{j=1}^{order} a_j rfrak^{2j}, the radial series truncated at ``order``, elementwise."""
    x = np.asarray(rfrak, dtype=float)
    return sum(float(c) * x ** (2 * (j + 1)) for j, c in enumerate(u0_series(order)))


def exp_series(coeffs: Sequence[Fraction], order: int) -> list[Fraction]:
    """Power-series coefficients of exp(2*sum c_k y^k) through y^order.

    Standard derivative recurrence; used for the e^{2 u0} weight expansion.
    """
    E = [Fraction(1)] + [Fraction(0)] * order
    c = list(coeffs) + [Fraction(0)] * max(0, order - len(coeffs))
    for n in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, n + 1):
            s += 2 * k * c[k - 1] * E[n - k]
        E[n] = s / n
    return E


# ---------------------------------------------------------------------------
# indicial solves and the transverse recursion


def indicial_solve(a: Rat, m: int, c: Union[LinExpr, Rat]) -> Union[LinExpr, Fraction]:
    """Coefficient of the particular solution r^a trig_m to L u = c r^a trig_m.

    L = (r d/dr)^2 + d^2/dphi^2 maps r^a trig_m to (a^2 - m^2) r^a trig_m, so
    the answer is c/(a^2 - m^2), exactly; a^2 = m^2 is an indicial collision
    and the caller must route to the homogeneous/matching branch.
    """
    denom = Fraction(a) ** 2 - m * m
    if denom == 0:
        raise IndicialCollisionError(f"exponent {a} collides with trig degree {m}")
    return LinExpr.of(c) / denom if isinstance(c, LinExpr) else Fraction(c) / denom


def free_symbols(j: int, alpha: Fraction) -> tuple[str, ...]:
    """Names of the free indicial coefficients of step ``j`` at exponent ``alpha``.

    Steps j >= 1 carry a[j,l,c] (and a[j,l,s] for l > 0) at each integer
    exponent l; step 0 and non-integer exponents carry none.
    """
    if j < 1 or Fraction(alpha).denominator != 1:
        return ()
    l = int(alpha)
    return (f"a[{j},{l},c]",) + ((f"a[{j},{l},s]",) if l > 0 else ())


StepTable = dict[Fraction, TrigPoly]  # exponent -> coefficient of r^alpha


class PhgSeries:
    """Tables u_j of the expansion u ~ sum_j rho^j u_j(r, phi) near the corner.

    Step 0 is the radial one-cone series (exponents 2*k*beta); later steps
    are produced by ``recursion_step`` (``recurse`` runs them).  Free indicial
    coefficients appear as symbols named a[j,l,c] / a[j,l,s]; ``assign`` fixes
    them (they are determined by the global problem, not locally).  ``labels``
    maps each exponent of {0} U ``index_set(beta, truncation)`` to its (l, k)
    pairs; every table entry sits at one of these exponents.  ``weight`` is
    e^{2 u0} at the exponents 2*k*beta <= truncation; ValueError refuses a
    truncation that needs more one-cone terms than ``u0_series`` hands out.
    """

    def __init__(self, beta: Union[Fraction, str], truncation: Union[Fraction, int, str]):
        self.beta = Fraction(beta)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        self.truncation = Fraction(truncation)
        if self.truncation <= 0:
            raise ValueError("truncation must be positive")
        b = self.beta
        kmax = int(self.truncation / (2 * b))
        if kmax > _U0_MAX_ORDER:
            raise ValueError(
                f"beta = {b} with truncation {self.truncation} needs {kmax} one-cone terms; "
                f"at most {_U0_MAX_ORDER} are tabulated"
            )
        self.labels: dict[Fraction, tuple[tuple[int, int], ...]] = {Fraction(0): ((0, 0),)}
        self.labels.update((e.alpha, e.pairs) for e in index_set(b, self.truncation))
        # step 0 and the weight, once: a_k rfrak^{2k} = a_k r^{2k beta} / beta^{2k}
        coeffs = [c / b ** (2 * k) for k, c in enumerate(u0_series(kmax), start=1)] if kmax else []
        self.steps: dict[int, StepTable] = {0: {}}
        for k, c in enumerate(coeffs, start=1):
            self.inject(0, 2 * k * b, TrigPoly.const(c))
        self.weight: dict[Fraction, TrigPoly] = {
            2 * k * b: TrigPoly.const(c) for k, c in enumerate(exp_series(coeffs, kmax))
        }
        self.assignments: dict[str, Fraction] = {}

    def inject(self, j: int, alpha: Union[Fraction, int], trig: TrigPoly) -> None:
        """Install a bespoke table entry (unit tests drive the recursion this way)."""
        a = Fraction(alpha)
        if a not in self.labels:
            raise ValueError(f"exponent {a} is not of the form l + 2k*beta <= {self.truncation}")
        self.steps.setdefault(j, {})[a] = trig

    def assign(self, values: Mapping[str, Rat]) -> None:
        for k, v in values.items():
            self.assignments[k] = Fraction(v)

    def resolved_table(self, j: int) -> dict[Fraction, TrigPoly]:
        """Step table with current symbol assignments substituted."""
        out = {}
        for alpha, trig in self.steps[j].items():
            t = trig.substitute(self.assignments)
            if not t.is_zero:
                out[alpha] = t
        return out


def _mul_tables(
    a: dict[Fraction, TrigPoly], b: dict[Fraction, TrigPoly], cap: Fraction
) -> dict[Fraction, TrigPoly]:
    out: dict[Fraction, TrigPoly] = {}
    for xa, ta in a.items():
        for xb, tb in b.items():
            x = xa + xb
            if x > cap:
                continue
            prod = ta * tb
            out[x] = out[x] + prod if x in out else prod
    return {x: t for x, t in out.items() if not t.is_zero}


def _add_tables(
    a: dict[Fraction, TrigPoly], b: dict[Fraction, TrigPoly], scale: Fraction = Fraction(1)
) -> dict[Fraction, TrigPoly]:
    out = dict(a)
    for x, t in b.items():
        ts = t.scale(scale)
        out[x] = out[x] + ts if x in out else ts
    return {x: t for x, t in out.items() if not t.is_zero}


def _forcing(j: int, prior: PhgSeries) -> dict[Fraction, TrigPoly]:
    """The step-j right-hand side, through the truncation.

    The right-hand side is -r^{2 beta} e^{2 u0} Q_j, where Q_j is the rho^j
    coefficient of e^{2v} - 1 - 2v over the resolved prior steps 1..j-1.
    """
    b, cap = prior.beta, prior.truncation
    two_b = 2 * b

    # resolved prior steps 1..j-1 (products need numeric coefficients)
    v: dict[int, dict[Fraction, TrigPoly]] = {}
    for i in range(1, j):
        v[i] = prior.resolved_table(i)
        for t in v[i].values():
            if t.has_symbols():
                raise ValueError(
                    f"step {i} carries unassigned free coefficients; assign them "
                    "before they enter nonlinear terms"
                )

    # rho^j coefficient of e^{2v}: W_n = (2/n) sum_i i * v_i * W_{n-i}
    inner_cap = cap - two_b
    W: dict[int, dict[Fraction, TrigPoly]] = {0: {Fraction(0): TrigPoly.const(1)}}
    for n in range(1, j + 1):
        acc: dict[Fraction, TrigPoly] = {}
        for i in range(1, min(n, j - 1) + 1):
            acc = _add_tables(acc, _mul_tables(v[i], W[n - i], inner_cap), Fraction(2 * i, n))
        W[n] = acc
    q_j = W[j] if j >= 2 else {}  # e^{2v}-1-2v has no rho^1 coefficient

    return {x + two_b: t.scale(Fraction(-1)) for x, t in _mul_tables(q_j, prior.weight, inner_cap).items()}


def recursion_step(j: int, prior: PhgSeries) -> StepTable:
    """Produce the step-j coefficient table from steps 0..j-1.

    Forms the rho^j coefficient of e^{2v} - 1 - 2v over the prior steps,
    multiplies by the r^{2 beta} e^{2 u0} weight, and solves the shifted
    model equation

        ((r d/dr)^2 + d^2/dphi^2) u_j + 2 r^{2 beta} e^{2 u0} u_j = -RHS

    term by term over ``prior.labels`` in increasing exponent.  Indicial slots
    at integer exponents l receive fresh free symbols a[j,l,c], a[j,l,s] of
    pure degree l; the weight term propagates every slot up the ladder.
    """
    if j < 1:
        raise ValueError("recursion starts at step 1")
    for i in range(j):
        if i not in prior.steps:
            raise ValueError(f"prior is missing step {i}")
    two_b = 2 * prior.beta
    rhs = _forcing(j, prior)

    table: StepTable = {}
    substituted: dict[Fraction, TrigPoly] = {}  # with prior assignments applied
    for alpha in sorted(prior.labels):
        force = rhs.get(alpha, TrigPoly())
        # ladder coupling 2 r^{2b} e^{2u0} u_j from already-solved slots
        for x, wk in prior.weight.items():
            lower = alpha - two_b - x
            if lower in substituted:
                force = force - substituted[lower].scale(2 * wk.coeffs[0][0].value())
        solved = TrigPoly()
        for m, (c, d) in force.coeffs.items():
            if Fraction(alpha) ** 2 == m * m:
                if not (c.is_zero and d.is_zero):
                    raise IndicialCollisionError(
                        f"forcing hits the indicial pair (alpha={alpha}, m={m})"
                    )
                continue
            solved = solved + TrigPoly({m: (indicial_solve(alpha, m, c), indicial_solve(alpha, m, d))})
        for name, harmonic in zip(free_symbols(j, alpha), (TrigPoly.cos, TrigPoly.sin)):
            solved = solved + harmonic(int(alpha), LinExpr.symbol(name))
        if solved.is_zero:
            continue
        table[alpha] = solved
        substituted[alpha] = solved.substitute(prior.assignments)
    return table


def recurse(beta: Fraction, truncation: Fraction, steps: int, values: Mapping[str, Rat]) -> PhgSeries:
    """Run ``recursion_step`` for steps 1..``steps`` on a fresh ``PhgSeries``.

    After each step its free coefficients are fixed, so later steps can form
    products: each takes its value from ``values``, or 0 if it has none.  A
    key of ``values`` that names no free coefficient of the computed steps
    is refused with ValueError, as is ``steps`` < 1.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    series = PhgSeries(beta, truncation)
    for j in range(1, steps + 1):
        series.steps[j] = table = recursion_step(j, series)
        series.assign({s: values.get(s, 0) for alpha in table for s in free_symbols(j, alpha)})
    unknown = sorted(set(values) - set(series.assignments))
    if unknown:
        raise ValueError(f"no free coefficient named {unknown[0]!r} in steps 1..{steps}")
    return series


def verify_step(j: int, prior: PhgSeries, table: StepTable) -> bool:
    """Check L u_j + 2 r^{2b} e^{2u0} u_j = -r^{2b} e^{2u0} Q_j exactly.

    Applies the model operator symbolically to the produced table (with the
    series' symbol assignments) and compares against the right-hand side of
    ``_forcing``, which ``recursion_step`` shares, slot by slot: this checks
    the solve, not the forcing.
    """
    b = prior.beta
    cap = prior.truncation
    values = prior.assignments
    sub = {alpha: t.substitute(values) for alpha, t in table.items()}
    # left side: L(r^alpha trig) = (alpha^2 - m^2) r^alpha trig, plus ladder
    lhs: dict[Fraction, TrigPoly] = {}
    for alpha, t in sub.items():
        op = TrigPoly()
        for m, (c, d) in t.coeffs.items():
            factor = Fraction(alpha) ** 2 - m * m
            op = op + TrigPoly({m: (c * factor, d * factor)})
        if not op.is_zero:
            lhs[alpha] = lhs[alpha] + op if alpha in lhs else op
    rhs = _forcing(j, prior)
    coupling = {2 * b + x: t.scale(Fraction(2)) for x, t in prior.weight.items() if 2 * b + x <= cap}
    lhs = _add_tables(lhs, _mul_tables(sub, coupling, cap))

    keys = set(lhs) | set(rhs)
    for x in keys:
        if x > cap:
            continue
        diff = lhs.get(x, TrigPoly()) - rhs.get(x, TrigPoly())
        for c, d in diff.coeffs.values():
            # must cancel identically, including terms linear in free symbols
            if not (c.substitute(values).is_zero and d.substitute(values).is_zero):
                return False
    return True


# ---------------------------------------------------------------------------
# numeric exponent fitting


@dataclass(frozen=True)
class FitTerm:
    alpha: float
    coefficient: float


@dataclass
class FitReport:
    terms: list[FitTerm]
    ok: bool
    message: str = ""
    residual_floor: float = 0.0


def fit_exponents(samples: Sequence[tuple[float, float]], count: int = 1) -> FitReport:
    """Peel leading powers off sampled decay data.

    Consecutive log-log slopes are extrapolated to rho -> 0 for the leading
    exponent, the matching coefficient is extrapolated the same way, the
    fitted term is subtracted, and the process repeats.  Non-monotone decay
    is reported as a failure, not raised, and so are rho values that are not
    finite, positive and strictly decreasing and values that are zero or
    not finite; peeling stops early once the residual reaches the
    cancellation floor.  Refuses (ValueError) a count below 1.
    """
    if count < 1:
        raise ValueError(f"term count must be at least 1, got {count}")
    rho = [float(r) for r, _ in samples]
    val = [float(v) for _, v in samples]
    if len(rho) < 3:
        return FitReport([], ok=False, message="need at least three samples")
    if not all(math.inf > r1 > r2 > 0 for r1, r2 in zip(rho, rho[1:])):
        return FitReport([], ok=False, message="rho must be finite, positive and strictly decreasing")
    if not all(0 < abs(v) < math.inf for v in val):
        return FitReport([], ok=False, message="values must be finite and nonzero")
    floor = max(abs(v) for v in val) * 1e-13
    terms: list[FitTerm] = []
    resid = list(val)
    for _ in range(count):
        if any(abs(v) <= floor for v in resid):
            return FitReport(terms, ok=True, message="residual at cancellation floor", residual_floor=floor)
        sign = 1.0 if resid[0] > 0 else -1.0
        mags = [sign * v for v in resid]
        if any(m <= 0 for m in mags) or any(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
            ok = bool(terms)
            return FitReport(terms, ok=ok, message="non-monotone decay", residual_floor=floor)
        mids = [math.sqrt(r1 * r2) for r1, r2 in zip(rho, rho[1:])]
        alpha = neville_zero(mids, loglog_slopes(rho, mags))
        coeff = sign * neville_zero(rho, [m / r**alpha for r, m in zip(rho, mags)])
        terms.append(FitTerm(alpha=alpha, coefficient=coeff))
        resid = [v - coeff * r**alpha for r, v in zip(rho, resid)]
    return FitReport(terms, ok=True, residual_floor=floor)
