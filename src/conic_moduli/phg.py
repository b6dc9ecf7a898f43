"""Asymptotic-series machinery for the one-cone degeneration.

Implements, over exact rationals:

  * the exponent set {j + 2*k*beta} with collision multiplicities,
  * the closed-form radial series of the one-cone hyperbolic conformal
    factor, u0 = -log(1 - rfrak^2/4) in the geodesic-model variable rfrak,
  * the indicial solve c / (a^2 - m^2) for the model operator
    (r d/dr)^2 + d^2/dphi^2 acting on r^a * (trig of degree m),
  * the order-by-order recursion producing the coefficient tables of the
    expansion transverse to the limit fiber, with the globally-determined
    indicial coefficients given as values (0 unless assigned),
  * numeric exponent fitting for sampled decay data.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .cones import RationalLike, to_fraction
from .extrapolate import loglog_slopes, neville_zero

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TrigPoly",
    "ExponentEntry",
    "PhgSeries",
    "IndicialCollisionError",
    "index_set",
    "MAX_INDEX_PAIRS",
    "u0_series",
    "u0_value",
    "u0_truncated",
    "indicial_solve",
    "free_symbols",
    "recursion_step",
    "recurse",
    "fit_exponents",
    "FitTerm",
    "FitReport",
]

Rat = Union[Fraction, int]

# (j, k) pairs ``index_set`` may span, counted as the box j <= cutoff,
# 2*k*beta <= cutoff; time and memory grow with the box
MAX_INDEX_PAIRS = 10**6


class IndicialCollisionError(ArithmeticError):
    """The model operator annihilates the requested exponent/degree pair."""


# ---------------------------------------------------------------------------
# trigonometric polynomials with exact coefficients


class TrigPoly:
    """sum_m (c_m cos(m phi) + d_m sin(m phi)) with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[int, tuple[Rat, Rat]]] = None):
        self.coeffs: dict[int, tuple[Fraction, Fraction]] = {}
        if coeffs:
            for m, (c, d) in coeffs.items():
                self._set(m, Fraction(c), Fraction(d))

    def _set(self, m: int, c: Fraction, d: Fraction) -> None:
        if m < 0:
            raise ValueError("trig degree must be nonnegative")
        if m == 0:
            d = Fraction(0)  # sin(0) = 0
        if c == 0 and d == 0:
            self.coeffs.pop(m, None)
        else:
            self.coeffs[m] = (c, d)

    @staticmethod
    def const(c: Rat) -> "TrigPoly":
        return TrigPoly({0: (c, 0)})

    @staticmethod
    def cos(m: int, c: Rat = 1) -> "TrigPoly":
        return TrigPoly({m: (c, 0)})

    @staticmethod
    def sin(m: int, d: Rat = 1) -> "TrigPoly":
        return TrigPoly({m: (0, d)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = TrigPoly()
        zero = (Fraction(0), Fraction(0))
        for m in set(self.coeffs) | set(other.coeffs):
            c1, d1 = self.coeffs.get(m, zero)
            c2, d2 = other.coeffs.get(m, zero)
            out._set(m, c1 + c2, d1 + d2)
        return out

    def __neg__(self) -> "TrigPoly":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def scale(self, s: Rat) -> "TrigPoly":
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
        zero = (Fraction(0), Fraction(0))
        for a, (ca, da) in self.coeffs.items():
            for b, (cb, db) in other.coeffs.items():
                cc, ss, cs, sc = ca * cb, da * db, ca * db, da * cb
                sgn = half if a >= b else -half
                hi = (a + b, (cc - ss) * half, (cs + sc) * half)
                lo = (abs(a - b), (cc + ss) * half, (sc - cs) * sgn)
                for m, c, d in (hi, lo):
                    c0, d0 = out.coeffs.get(m, zero)
                    out._set(m, c0 + c, d0 + d)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return "TrigPoly(0)"
        bits = []
        for m in sorted(self.coeffs):
            c, d = self.coeffs[m]
            if c:
                bits.append(f"({c})cos({m}phi)" if m else f"({c})")
            if d:
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
    # over beta's denominator q, alpha = (j*q + 2*k*p)/q: collect integer
    # numerators and make one Fraction per entry.  k outermost lets the pairs
    # of one k share its int; an entry's pairs arrive with k ascending, so j
    # descending, and are reversed into (j, k) order
    p, q = b.numerator, b.denominator
    top = cut.numerator * q // cut.denominator  # floor(cut * q)
    found: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for k in range(top // (2 * p) + 1):
        base = 2 * k * p
        for j in range(0 if k else 1, (top - base) // q + 1):
            found[base + j * q].append((j, k))
    return [ExponentEntry(Fraction(n, q), tuple(reversed(found[n]))) for n in sorted(found)]


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
    import numpy as np

    x = np.asarray(rfrak, dtype=float)
    if not np.all((0 <= x) & (x < 2)):
        raise ValueError("rfrak must lie in [0, 2)")
    return -np.log1p(-x * x / 4.0)


def u0_truncated(rfrak: Union[float, np.ndarray], order: int) -> Union[float, np.ndarray]:
    """sum_{j=1}^{order} a_j rfrak^{2j}, the radial series truncated at ``order``, elementwise."""
    import numpy as np

    x = np.asarray(rfrak, dtype=float)
    return sum(float(c) * x ** (2 * (j + 1)) for j, c in enumerate(u0_series(order)))


# ---------------------------------------------------------------------------
# indicial solves and the transverse recursion


def indicial_solve(a: Rat, m: int, c: Rat) -> Fraction:
    """Coefficient of the particular solution r^a trig_m to L u = c r^a trig_m.

    L = (r d/dr)^2 + d^2/dphi^2 maps r^a trig_m to (a^2 - m^2) r^a trig_m, so
    the answer is c/(a^2 - m^2), exactly; a^2 = m^2 is an indicial collision
    and the caller must route to the homogeneous/matching branch.
    """
    denom = Fraction(a) ** 2 - m * m
    if denom == 0:
        raise IndicialCollisionError(f"exponent {a} collides with trig degree {m}")
    return Fraction(c) / denom


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
    are produced by ``recursion_step`` (``recurse`` runs them).  It reads
    steps 1..j-1 as they stand, so a caller may also set ``steps[j]``
    directly, with its entries at exponents of ``labels``.  The free
    indicial coefficients a[j,l,c] / a[j,l,s] are determined by the global
    problem, not locally: ``assign`` records their values in ``assignments``,
    which ``recursion_step`` reads (an unassigned one is 0).  ``labels``
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
        # step 0 and the weight, once: a_k rfrak^{2k} = a_k r^{2k beta} / beta^{2k}; each
        # 2k beta <= truncation is an exponent of index_set, so no label is checked
        coeffs = [c / b ** (2 * k) for k, c in enumerate(u0_series(kmax), start=1)] if kmax else []
        self.steps: dict[int, StepTable] = {0: {2 * k * b: TrigPoly.const(c) for k, c in enumerate(coeffs, start=1)}}
        # e^{2 u0} = (1 - rfrak^2/4)^{-2} = sum (k+1) (rfrak^2/4)^k
        self.weight: dict[Fraction, TrigPoly] = {
            2 * k * b: TrigPoly.const(Fraction(k + 1) / (4 * b * b) ** k) for k in range(kmax + 1)
        }
        self.assignments: dict[str, Fraction] = {}

    def assign(self, values: Mapping[str, Rat]) -> None:
        for k, v in values.items():
            self.assignments[k] = Fraction(v)


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
    coefficient of e^{2v} - 1 - 2v over the prior steps 1..j-1.
    """
    two_b = 2 * prior.beta

    # rho^j coefficient of e^{2v}: W_n = (2/n) sum_i i * v_i * W_{n-i}
    inner_cap = prior.truncation - two_b
    W: dict[int, dict[Fraction, TrigPoly]] = {0: {Fraction(0): TrigPoly.const(1)}}
    for n in range(1, j + 1):
        acc: dict[Fraction, TrigPoly] = {}
        for i in range(1, min(n, j - 1) + 1):
            acc = _add_tables(acc, _mul_tables(prior.steps[i], W[n - i], inner_cap), Fraction(2 * i, n))
        W[n] = acc
    q_j = W[j] if j >= 2 else {}  # e^{2v}-1-2v has no rho^1 coefficient

    return {x + two_b: t.scale(Fraction(-1)) for x, t in _mul_tables(q_j, prior.weight, inner_cap).items()}


def recursion_step(j: int, prior: PhgSeries) -> StepTable:
    """Produce the step-j coefficient table from steps 0..j-1.

    Forms the rho^j coefficient of e^{2v} - 1 - 2v over the prior steps,
    multiplies by the r^{2 beta} e^{2 u0} weight, and solves the shifted
    model equation

        ((r d/dr)^2 + d^2/dphi^2) u_j + 2 r^{2 beta} e^{2 u0} u_j = -RHS

    term by term over ``prior.labels`` in increasing exponent.  The slot at
    each integer exponent l adds the free indicial coefficients a[j,l,c],
    a[j,l,s] of pure degree l, read from ``prior.assignments`` (0 where
    unassigned), and stays in the table whatever their value; the weight
    term propagates every slot up the ladder.
    """
    if j < 1:
        raise ValueError("recursion starts at step 1")
    for i in range(j):
        if i not in prior.steps:
            raise ValueError(f"prior is missing step {i}")
    two_b = 2 * prior.beta
    rhs = _forcing(j, prior)

    table: StepTable = {}
    for alpha in sorted(prior.labels):
        force = rhs.get(alpha, TrigPoly())
        # ladder coupling 2 r^{2b} e^{2u0} u_j from already-solved slots
        for x, wk in prior.weight.items():
            lower = alpha - two_b - x
            if lower in table:
                force = force - table[lower].scale(2 * wk.coeffs[0][0])
        solved = TrigPoly()
        for m, (c, d) in force.coeffs.items():
            solved = solved + TrigPoly({m: (indicial_solve(alpha, m, c), indicial_solve(alpha, m, d))})
        free = free_symbols(j, alpha)
        for name, harmonic in zip(free, (TrigPoly.cos, TrigPoly.sin)):
            solved = solved + harmonic(int(alpha), prior.assignments.get(name, 0))
        if free or not solved.is_zero:
            table[alpha] = solved
    return table


def recurse(beta: Fraction, truncation: Fraction, steps: int, values: Mapping[str, Rat]) -> PhgSeries:
    """Run ``recursion_step`` for steps 1..``steps`` on a fresh ``PhgSeries``.

    Each free coefficient takes its value from ``values``, or 0 if it has
    none, and ``series.assignments`` ends as every free coefficient of the
    computed steps with its value.  A key of ``values`` that names no free
    coefficient of the computed steps is refused with ValueError, as is
    ``steps`` < 1.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    series = PhgSeries(beta, truncation)
    series.assign(values)
    for j in range(1, steps + 1):
        series.steps[j] = recursion_step(j, series)
    free = [s for j in range(1, steps + 1) for alpha in series.steps[j] for s in free_symbols(j, alpha)]
    unknown = sorted(set(values) - set(free))
    if unknown:
        raise ValueError(f"no free coefficient named {unknown[0]!r} in steps 1..{steps}")
    series.assignments = {s: series.assignments.get(s, Fraction(0)) for s in free}
    return series


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
            return FitReport(terms, ok=True, message="residual at cancellation floor")
        sign = 1.0 if resid[0] > 0 else -1.0
        mags = [sign * v for v in resid]
        if any(m <= 0 for m in mags) or any(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
            return FitReport(terms, ok=bool(terms), message="non-monotone decay")
        mids = [math.sqrt(r1 * r2) for r1, r2 in zip(rho, rho[1:])]
        alpha = neville_zero(mids, loglog_slopes(rho, mags))
        coeff = sign * neville_zero(rho, [m / r**alpha for r, m in zip(rho, mags)])
        terms.append(FitTerm(alpha=alpha, coefficient=coeff))
        resid = [v - coeff * r**alpha for r, v in zip(rho, resid)]
    return FitReport(terms, ok=True)
