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
  * the bounded-leading-behavior exponents {0} U {j/beta : j/beta < 2},
  * numeric exponent fitting for sampled decay data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cones import RationalLike, to_fraction
from .extrapolate import neville_zero

__all__ = [
    "LinExpr",
    "TrigPoly",
    "ExponentEntry",
    "PhgSeries",
    "Slot",
    "IndicialCollisionError",
    "index_set",
    "u0_series",
    "u0_value",
    "exp_series",
    "indicial_solve",
    "recursion_step",
    "verify_step",
    "friedrichs_exponents",
    "fit_exponents",
    "FitTerm",
    "FitReport",
]

Rat = Union[Fraction, int]


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
    entry records all of them (its multiplicity).
    """
    b, _ = to_fraction(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    cut, _ = to_fraction(cutoff)
    if cut <= 0:
        raise ValueError("cutoff must be positive")
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


def u0_series(order: int) -> list[Fraction]:
    """Coefficients a_j of rfrak^{2j}, j = 1..order, of -log(1 - rfrak^2/4).

    a_j = 1/(j*4^j); the series is independent of the cone parameter in the
    geodesic-model variable rfrak.
    """
    if not 1 <= order <= 30:
        raise ValueError("order must be between 1 and 30")
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


@dataclass
class Slot:
    """One exponent's worth of a step table: r^alpha * trig."""

    alpha: Fraction
    trig: TrigPoly
    labels: tuple[tuple[int, int], ...]  # (l, k) pairs with l + 2k*beta = alpha
    free_symbols: tuple[str, ...] = ()

    @property
    def multiplicity(self) -> int:
        return len(self.labels)

    @property
    def is_free_slot(self) -> bool:
        return bool(self.free_symbols)

    @property
    def pure_expected(self) -> bool:
        """Purity of the top harmonic is asserted only for collision-free slots."""
        return len(self.labels) == 1


StepTable = dict[Fraction, Slot]


class PhgSeries:
    """Tables u_j of the expansion u ~ sum_j rho^j u_j(r, phi) near the corner.

    Step 0 is the radial one-cone series (exponents 2*k*beta); later steps
    are produced by ``recursion_step``.  Free indicial coefficients appear as
    symbols named a[j,l,c] / a[j,l,s]; ``assign`` fixes them (they are
    determined by the global problem, not locally).
    """

    def __init__(self, beta: Union[Fraction, str], truncation: Union[Fraction, int, str]):
        self.beta = Fraction(beta)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        self.truncation = Fraction(truncation)
        if self.truncation <= 0:
            raise ValueError("truncation must be positive")
        self.steps: dict[int, StepTable] = {0: self._u0_table()}
        self.assignments: dict[str, Fraction] = {}

    def _u0_table(self) -> StepTable:
        table: StepTable = {}
        b = self.beta
        kmax = int(self.truncation / (2 * b))
        coeffs = u0_series(max(1, kmax)) if kmax >= 1 else []
        for k in range(1, kmax + 1):
            alpha = 2 * k * b
            a_rk = coeffs[k - 1] / b ** (2 * k)  # rfrak^{2k} = r^{2k beta}/beta^{2k}
            table[alpha] = Slot(alpha, TrigPoly.const(a_rk), labels=((0, k),))
        return table

    def weight_series(self) -> list[Fraction]:
        """e^{2 u0} as coefficients of r^{2 k beta}, through the truncation."""
        b = self.beta
        kmax = int(self.truncation / (2 * b))
        coeffs = [self.steps[0][2 * k * b].trig.coeffs[0][0].value() for k in range(1, kmax + 1)]
        return exp_series(coeffs, kmax)

    def set_step(self, j: int, table: StepTable) -> None:
        self.steps[j] = table

    def inject(self, j: int, alpha: Union[Fraction, int], trig: TrigPoly) -> None:
        """Install a bespoke table entry (unit tests drive the recursion this way)."""
        a = Fraction(alpha)
        table = self.steps.setdefault(j, {})
        table[a] = Slot(a, trig, labels=self._labels(a))

    def assign(self, values: Mapping[str, Rat]) -> None:
        for k, v in values.items():
            self.assignments[k] = Fraction(v)

    def _labels(self, alpha: Fraction) -> tuple[tuple[int, int], ...]:
        out = []
        b = self.beta
        k = 0
        while 2 * k * b <= alpha:
            l = alpha - 2 * k * b
            if l.denominator == 1 and l >= 0:
                out.append((int(l), k))
            k += 1
        return tuple(sorted(out))

    def resolved_table(self, j: int) -> dict[Fraction, TrigPoly]:
        """Step table with current symbol assignments substituted."""
        out = {}
        for alpha, slot in self.steps[j].items():
            t = slot.trig.substitute(self.assignments)
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


def _forcing(j: int, prior: PhgSeries) -> tuple[dict[Fraction, TrigPoly], dict[Fraction, TrigPoly]]:
    """The e^{2 u0} weight table and the step-j right-hand side, through the truncation.

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

    weight: dict[Fraction, TrigPoly] = {
        2 * k * b: TrigPoly.const(c) for k, c in enumerate(prior.weight_series()) if 2 * k * b <= cap
    }
    rhs = {x + two_b: t.scale(Fraction(-1)) for x, t in _mul_tables(q_j, weight, inner_cap).items()}
    return weight, rhs


def recursion_step(j: int, prior: PhgSeries) -> StepTable:
    """Produce the step-j coefficient table from steps 0..j-1.

    Forms the rho^j coefficient of e^{2v} - 1 - 2v over the prior steps,
    multiplies by the r^{2 beta} e^{2 u0} weight, and solves the shifted
    model equation

        ((r d/dr)^2 + d^2/dphi^2) u_j + 2 r^{2 beta} e^{2 u0} u_j = -RHS

    term by term in increasing exponent.  Indicial slots at integer
    exponents l receive fresh free symbols a[j,l,c], a[j,l,s] of pure degree
    l; the weight term propagates every slot up the r^{2 k beta} ladder.
    """
    if j < 1:
        raise ValueError("recursion starts at step 1")
    for i in range(j):
        if i not in prior.steps:
            raise ValueError(f"prior is missing step {i}")
    cap = prior.truncation
    two_b = 2 * prior.beta
    weight, rhs = _forcing(j, prior)

    # candidate exponents: integers (indicial slots), forcing exponents, and
    # their images under the +2 beta ladder
    base = {Fraction(n) for n in range(0, int(cap) + 1)} | set(rhs)
    exponents: set[Fraction] = set()
    stack = list(base)
    while stack:
        x = stack.pop()
        if x > cap or x in exponents:
            continue
        exponents.add(x)
        if x + two_b <= cap:
            stack.append(x + two_b)

    table: StepTable = {}
    substituted: dict[Fraction, TrigPoly] = {}  # with prior assignments applied
    for alpha in sorted(exponents):
        force = rhs.get(alpha, TrigPoly())
        # ladder coupling 2 r^{2b} e^{2u0} u_j from already-solved slots
        for x, wk in weight.items():
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
        free_syms: tuple[str, ...] = ()
        if alpha.denominator == 1 and alpha >= 0:
            l = int(alpha)
            c_sym = f"a[{j},{l},c]"
            free = TrigPoly({l: (LinExpr.symbol(c_sym), LinExpr.symbol(f"a[{j},{l},s]") if l > 0 else 0)})
            free_syms = (c_sym,) + ((f"a[{j},{l},s]",) if l > 0 else ())
            solved = solved + free
        if solved.is_zero and not free_syms:
            continue
        table[alpha] = Slot(alpha, solved, labels=prior._labels(alpha), free_symbols=free_syms)
        substituted[alpha] = solved.substitute(prior.assignments)
    return table


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
    sub = {alpha: s.trig.substitute(values) for alpha, s in table.items()}
    # left side: L(r^alpha trig) = (alpha^2 - m^2) r^alpha trig, plus ladder
    lhs: dict[Fraction, TrigPoly] = {}
    for alpha, t in sub.items():
        op = TrigPoly()
        for m, (c, d) in t.coeffs.items():
            factor = Fraction(alpha) ** 2 - m * m
            op = op + TrigPoly({m: (c * factor, d * factor)})
        if not op.is_zero:
            lhs[alpha] = lhs[alpha] + op if alpha in lhs else op
    weight, rhs = _forcing(j, prior)
    coupling = {2 * b + x: t.scale(Fraction(2)) for x, t in weight.items() if 2 * b + x <= cap}
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
# bounded leading behavior and numeric exponent fitting


def friedrichs_exponents(beta: RationalLike) -> list[Fraction]:
    """{0} U {j/beta : 1 <= j, j/beta < 2}: the bounded leading exponents."""
    b, _ = to_fraction(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    out = [Fraction(0)]
    j = 1
    while Fraction(j) / b < 2:
        out.append(Fraction(j) / b)
        j += 1
    return out


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
    is reported as a failure, not raised; peeling stops early once the
    residual reaches the cancellation floor.
    """
    rho = [float(r) for r, _ in samples]
    val = [float(v) for _, v in samples]
    if len(rho) < 3:
        return FitReport([], ok=False, message="need at least three samples")
    if any(r2 >= r1 for r1, r2 in zip(rho, rho[1:])) or any(r <= 0 for r in rho):
        return FitReport([], ok=False, message="rho must be positive and strictly decreasing")
    if any(v == 0 for v in val):
        return FitReport([], ok=False, message="values must be nonzero")
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
        slopes = []
        mids = []
        for (r1, m1), (r2, m2) in zip(zip(rho, mags), zip(rho[1:], mags[1:])):
            slopes.append(math.log(m1 / m2) / math.log(r1 / r2))
            mids.append(math.sqrt(r1 * r2))
        alpha = neville_zero(mids, slopes)
        coeff = sign * neville_zero(rho, [m / r**alpha for r, m in zip(rho, mags)])
        terms.append(FitTerm(alpha=alpha, coefficient=coeff))
        resid = [v - coeff * r**alpha for r, v in zip(rho, resid)]
    return FitReport(terms, ok=True, residual_floor=floor)
