import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conic_moduli.phg import (
    IndicialCollisionError,
    LinExpr,
    PhgSeries,
    TrigPoly,
    exp_series,
    fit_exponents,
    friedrichs_exponents,
    index_set,
    indicial_solve,
    recursion_step,
    u0_series,
    u0_value,
    verify_step,
)


# -- index sets -----------------------------------------------------------------


def test_index_set_example_three_quarters():
    entries = index_set(F(3, 4), F(31, 10))
    table = {e.alpha: e.multiplicity for e in entries}
    assert table == {F(1): 1, F(3, 2): 1, F(2): 1, F(5, 2): 1, F(3): 2}
    three = [e for e in entries if e.alpha == 3][0]
    assert set(three.pairs) == {(3, 0), (0, 2)}


def test_index_set_half_collisions():
    entries = index_set(F(1, 2), 2)
    for e in entries:
        if e.alpha.denominator == 1:
            assert e.multiplicity >= 2


def test_index_set_huge_denominator_no_collisions():
    entries = index_set(F(577, 1000), 4)
    assert all(e.multiplicity == 1 for e in entries)


def brute_force_index_count(beta: F, cutoff: F) -> int:
    alphas = set()
    j = 0
    while j <= cutoff:
        k = 0
        while j + 2 * k * beta <= cutoff:
            if (j, k) != (0, 0):
                alphas.add(j + 2 * k * beta)
            k += 1
        j += 1
    return len(alphas)


def test_index_set_completeness_random():
    rng = random.Random(2)
    for _ in range(30):
        beta = F(rng.randint(1, 12), rng.randint(1, 12))
        cutoff = F(rng.randint(2, 9))
        assert len(index_set(beta, cutoff)) == brute_force_index_count(beta, cutoff)


# -- the radial series -----------------------------------------------------------


def test_u0_series_examples():
    coeffs = u0_series(5)
    assert coeffs[0] == F(1, 4)
    assert coeffs[1] == F(1, 32)
    assert coeffs[2] == F(1, 192)
    total = sum(float(c) * 0.2 ** (2 * (j + 1)) for j, c in enumerate(u0_series(20)))
    assert total == pytest.approx(-math.log(0.99), abs=1e-15)
    assert u0_value(0.2) == pytest.approx(-math.log(0.99), rel=1e-15)


def test_u0_series_remainder_below_first_omitted_term():
    for order in (2, 5, 9):
        coeffs = u0_series(order)
        for rf in (0.3, 0.7, 1.0):
            partial = sum(float(c) * rf ** (2 * (j + 1)) for j, c in enumerate(coeffs))
            remainder = abs(u0_value(rf) - partial)
            first_omitted = rf ** (2 * (order + 1)) / ((order + 1) * 4 ** (order + 1))
            assert remainder < 2.0 * first_omitted


def test_u0_value_on_arrays_matches_scalar_calls():
    rf = np.array([[0.0, 0.3, 1.0], [1.5, 1.9, 1.999]])
    scalar = [[u0_value(float(x)) for x in row] for row in rf]
    np.testing.assert_allclose(u0_value(rf), scalar, rtol=1e-15, atol=0)
    for bad in ([0.5, 2.0], [0.5, 3.0], [-0.1, 0.5], [0.5, float("nan")]):
        with pytest.raises(ValueError):
            u0_value(np.array(bad))


def test_u0_series_guard():
    with pytest.raises(ValueError):
        u0_series(0)
    with pytest.raises(ValueError):
        u0_series(31)


def test_exp_series_closed_form():
    # exp(2 u0) as a series in y = rfrak^2/ (4 is absorbed): with u0 = -log(1-cy),
    # e^{2u0} = (1-cy)^{-2} has coefficients (k+1) c^k
    c = F(1, 4)
    coeffs = [c / 1, c**2 / 2 * 2, c**3 / 3 * 3]  # 1/(j 4^j)->c^j/j with c=1/4
    E = exp_series([F(1, (j + 1) * 4 ** (j + 1)) for j in range(6)], 6)
    for k, e in enumerate(E):
        assert e == (k + 1) * F(1, 4) ** k


# -- indicial solves --------------------------------------------------------------


def test_indicial_solve_examples():
    beta = F(3, 5)
    assert indicial_solve(2 * beta, 0, -1) == F(-1) / (4 * beta**2)
    with pytest.raises(IndicialCollisionError):
        indicial_solve(3, 3, 1)
    assert indicial_solve(F(5, 2), 1, 2) == F(2) / F(21, 4)


# -- trig algebra -----------------------------------------------------------------


def test_trig_product_rules():
    x = TrigPoly.cos(2, F(1, 2))
    y = TrigPoly.sin(3, 1)
    prod = x * y
    # cos(2)sin(3)/2 = (sin(5) - sin(-1))/4 = sin(5)/4 + sin(1)/4
    assert prod.coeffs[5][1].value() == F(1, 4)
    assert prod.coeffs[1][1].value() == F(1, 4)
    sq = TrigPoly.cos(1) * TrigPoly.cos(1)
    assert sq.coeffs[0][0].value() == F(1, 2)
    assert sq.coeffs[2][0].value() == F(1, 2)


def test_trig_numeric_evaluation_matches_algebra():
    rng = random.Random(4)
    for _ in range(20):
        a = TrigPoly({1: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))), 2: (F(1, 2), 0)})
        b = TrigPoly({0: (F(rng.randint(-2, 2)), 0), 3: (0, F(rng.randint(-2, 2)))})
        phi = rng.uniform(0, 2 * math.pi)
        assert (a * b).evaluate(phi) == pytest.approx(a.evaluate(phi) * b.evaluate(phi), abs=1e-12)


def test_linexpr_refuses_symbol_products():
    s = LinExpr.symbol("a")
    with pytest.raises(ValueError):
        s * s


# -- the transverse recursion -------------------------------------------------------


def test_recursion_step_one_structure():
    beta = F(3, 4)
    series = PhgSeries(beta, 4)
    table = recursion_step(1, series)
    # free indicial slots at the integers, pure degree, flagged free
    for ell in (0, 1, 2):
        slot = table[F(ell)]
        assert slot.is_free_slot
        assert slot.trig.degree == ell
        assert slot.trig.is_pure()
    # ladder slot at 2*beta driven by the free constant: -2 E0 a/( (2b)^2 )
    ladder = table[2 * beta]
    coeff = ladder.trig.coeffs[0][0]
    assert dict(coeff.terms) == {"a[1,0,c]": F(-2) / (2 * beta) ** 2}
    # ladder at 1 + 2*beta from the free degree-1 slot
    ladder2 = table[1 + 2 * beta]
    assert dict(ladder2.trig.coeffs[1][0].terms) == {"a[1,1,c]": F(-2) / ((1 + 2 * beta) ** 2 - 1)}


def test_recursion_step_two_unit_input():
    beta = F(3, 4)
    series = PhgSeries(beta, F(9, 2))
    series.inject(1, 1, TrigPoly.cos(1))  # u_1 = r cos(phi)
    table = recursion_step(2, series)
    alpha = 2 + 2 * beta
    slot = table[alpha]
    assert slot.trig.coeffs[0][0].const == F(-1) / alpha**2
    assert slot.trig.coeffs[2][0].const == F(-1) / (alpha**2 - 4)


def test_recursion_degree_bounds():
    beta = F(3, 4)
    series = PhgSeries(beta, F(9, 2))
    series.inject(1, 1, TrigPoly.cos(1))
    series.inject(1, 2, TrigPoly({2: (F(1, 3), F(-1, 5))}))
    table = recursion_step(2, series)
    for alpha, slot in table.items():
        if slot.is_free_slot:
            continue
        max_label_ell = max(l for l, k in slot.labels)
        assert slot.trig.degree <= max_label_ell


def test_recursion_requires_resolved_priors():
    beta = F(3, 4)
    series = PhgSeries(beta, 4)
    series.set_step(1, recursion_step(1, series))
    with pytest.raises(ValueError):
        recursion_step(2, series)  # free symbols of step 1 unassigned


def test_recursion_verify_operator_identity():
    beta = F(3, 4)
    series = PhgSeries(beta, F(9, 2))
    t1 = recursion_step(1, series)
    series.set_step(1, t1)
    series.assign({"a[1,0,c]": F(1, 3), "a[1,1,c]": 2, "a[1,1,s]": F(-1, 2)})
    assert verify_step(1, series, t1)
    series.assign({s: F(0) for a in t1 for s in t1[a].free_symbols if s not in series.assignments})
    t2 = recursion_step(2, series)
    series.set_step(2, t2)
    series.assign({s: F(1, 7) for a in t2 for s in t2[a].free_symbols})
    assert verify_step(2, series, t2)


def test_recursion_collision_slots_share_and_drop_purity():
    series = PhgSeries(F(1, 2), 4)
    series.inject(1, 1, TrigPoly.cos(1))
    table = recursion_step(2, series)
    # at beta = 1/2, 2 + 2*beta = 3 collides with the integer slot
    slot = table[F(3)]
    assert slot.multiplicity >= 2
    assert not slot.pure_expected
    series.set_step(2, table)
    series.assign({s: F(0) for a in table for s in table[a].free_symbols})
    assert verify_step(2, series, table)


def test_recursion_truncation_guard():
    series = PhgSeries(F(3, 4), 4)
    with pytest.raises(ValueError):
        recursion_step(0, series)


# -- bounded leading exponents ---------------------------------------------------


def test_friedrichs_exponents_examples():
    assert friedrichs_exponents(F(3, 5)) == [F(0), F(5, 3)]
    assert friedrichs_exponents(F(2, 5)) == [F(0)]
    assert friedrichs_exponents(F(9, 10)) == [F(0), F(10, 9)]


def test_friedrichs_exponents_range_property():
    rng = random.Random(8)
    for _ in range(50):
        beta = F(rng.randint(1, 40), rng.randint(1, 40))
        exps = friedrichs_exponents(beta)
        assert exps[0] == 0
        assert all(0 <= e < 2 for e in exps)
        # completeness: j/beta < 2 iff present
        j = 1
        while F(j) / beta < 2:
            assert F(j) / beta in exps
            j += 1


# -- numeric exponent fitting ------------------------------------------------------


def test_fit_single_power():
    rho = [0.2 / 2**i for i in range(6)]
    rep = fit_exponents([(r, 3.0 * r**1.4) for r in rho], count=1)
    assert rep.ok
    assert rep.terms[0].alpha == pytest.approx(1.4, abs=1e-3)
    assert rep.terms[0].coefficient == pytest.approx(3.0, rel=1e-3)


def test_fit_two_powers():
    rho = [0.2 / 2**i for i in range(6)]
    rep = fit_exponents([(r, r + 0.1 * r**2) for r in rho], count=2)
    assert rep.ok
    assert rep.terms[0].alpha == pytest.approx(1.0, abs=1e-3)
    assert rep.terms[1].alpha == pytest.approx(2.0, abs=2e-2)


def test_fit_u0_leading_exponent():
    beta = 0.7
    rho = [0.2 / 2**i for i in range(7)]
    samples = [(r, u0_value(r**beta / beta)) for r in rho]
    rep = fit_exponents(samples, count=1)
    assert rep.ok
    assert abs(rep.terms[0].alpha - 2 * beta) < 0.02


def test_fit_non_monotone_reports_failure():
    rep = fit_exponents([(0.1, 1.0), (0.05, 2.0), (0.025, 0.5)], count=1)
    assert not rep.ok
    assert "monotone" in rep.message
