import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conic_moduli import phg
from conic_moduli.phg import (
    IndicialCollisionError,
    PhgSeries,
    TrigPoly,
    fit_exponents,
    free_symbols,
    index_set,
    indicial_solve,
    recurse,
    recursion_step,
    u0_series,
    u0_truncated,
    u0_value,
    verify_step,
)

from oracles import index_set_by_fractions


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


def test_index_set_refuses_a_box_past_the_cap(monkeypatch):
    # beta = 3/4, cutoff 31/10 spans (floor(31/10 / (3/2)) + 1) * (floor(31/10) + 1) = 12 pairs
    monkeypatch.setattr(phg, "MAX_INDEX_PAIRS", 12)
    assert len(index_set(F(3, 4), F(31, 10))) == 5
    monkeypatch.setattr(phg, "MAX_INDEX_PAIRS", 11)
    with pytest.raises(ValueError, match="limited to 11 .* spans 12"):
        index_set(F(3, 4), F(31, 10))


def test_index_set_completeness_random():
    rng = random.Random(2)
    for _ in range(30):
        beta = F(rng.randint(1, 12), rng.randint(1, 12))
        cutoff = F(rng.randint(2, 9))
        assert index_set(beta, cutoff) == index_set_by_fractions(beta, cutoff)


@pytest.mark.parametrize("beta", [F(1), F(3, 4), F(1, 2), F(2, 3), F(5, 2), F(7, 3), F(577, 1000), F(1, 101), F(13, 6)])
@pytest.mark.parametrize("cutoff", [F(1, 3), F(1), F(31, 10), F(4), F(17, 2)])
def test_index_set_matches_fraction_enumeration(beta, cutoff):
    # entries, pairs and their order equal the per-pair Fraction enumeration
    assert index_set(beta, cutoff) == index_set_by_fractions(beta, cutoff)


# -- the radial series -----------------------------------------------------------


def test_u0_series_examples():
    coeffs = u0_series(5)
    assert coeffs[0] == F(1, 4)
    assert coeffs[1] == F(1, 32)
    assert coeffs[2] == F(1, 192)
    assert u0_truncated(0.2, 20) == pytest.approx(-math.log(0.99), abs=1e-15)
    assert u0_value(0.2) == pytest.approx(-math.log(0.99), rel=1e-15)


def test_u0_series_remainder_below_first_omitted_term():
    for order in (2, 5, 9):
        for rf in (0.3, 0.7, 1.0):
            remainder = abs(u0_value(rf) - u0_truncated(rf, order))
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


def test_weight_matches_the_derivative_recurrence():
    # reference: the power series of e^{2 u0} = exp(2 sum c_k y^k) in y = r^{2 beta},
    # c_k = 1/(k 4^k beta^{2k}), by the derivative recurrence n E_n = sum_k 2 k c_k E_{n-k}
    for beta in (F(3, 4), F(2, 5), F(1, 3)):
        series = PhgSeries(beta, 6)
        kmax = int(6 / (2 * beta))
        c = [F(1, k * 4**k) / beta ** (2 * k) for k in range(1, kmax + 1)]
        E = [F(1)]
        for n in range(1, kmax + 1):
            E.append(sum((2 * k * c[k - 1] * E[n - k] for k in range(1, n + 1)), F(0)) / n)
        assert series.weight == {2 * k * beta: TrigPoly.const(e) for k, e in enumerate(E)}
        assert len(E) > 4


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
    assert prod.coeffs[5][1] == F(1, 4)
    assert prod.coeffs[1][1] == F(1, 4)
    sq = TrigPoly.cos(1) * TrigPoly.cos(1)
    assert sq.coeffs[0][0] == F(1, 2)
    assert sq.coeffs[2][0] == F(1, 2)


def test_trig_numeric_evaluation_matches_algebra():
    rng = random.Random(4)
    for _ in range(20):
        a = TrigPoly({1: (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))), 2: (F(1, 2), 0)})
        b = TrigPoly({0: (F(rng.randint(-2, 2)), 0), 3: (0, F(rng.randint(-2, 2)))})
        phi = rng.uniform(0, 2 * math.pi)
        assert (a * b).evaluate(phi) == pytest.approx(a.evaluate(phi) * b.evaluate(phi), abs=1e-12)


# -- the transverse recursion -------------------------------------------------------


def test_recursion_step_one_structure():
    beta = F(3, 4)
    series = PhgSeries(beta, 4)
    # unit values for the cosine coefficients at l = 0, 1, 2; the rest read 0
    series.assign({f"a[1,{ell},c]": 1 for ell in (0, 1, 2)})
    table = recursion_step(1, series)
    # free indicial slots at the integers, pure degree, flagged free
    for ell in (0, 1, 2):
        trig = table[F(ell)]
        assert free_symbols(1, F(ell))
        assert trig == TrigPoly.cos(ell)
    # a free slot stays in the table at value 0: a[1,3,*] are unassigned, and the
    # ladder terms from the slots at 0 and 3/2 cancel at 3
    assert table[F(3)].is_zero
    # ladder slot at 2*beta driven by the free constant: -2 E0 a/( (2b)^2 )
    assert table[2 * beta] == TrigPoly.const(F(-2) / (2 * beta) ** 2)
    # ladder at 1 + 2*beta from the free degree-1 slot
    assert table[1 + 2 * beta] == TrigPoly.cos(1, F(-2) / ((1 + 2 * beta) ** 2 - 1))


def test_recursion_step_two_unit_input():
    beta = F(3, 4)
    series = PhgSeries(beta, F(9, 2))
    series.inject(1, 1, TrigPoly.cos(1))  # u_1 = r cos(phi)
    table = recursion_step(2, series)
    alpha = 2 + 2 * beta
    trig = table[alpha]
    assert trig.coeffs[0][0] == F(-1) / alpha**2
    assert trig.coeffs[2][0] == F(-1) / (alpha**2 - 4)


def test_recursion_degree_bounds():
    beta = F(3, 4)
    series = PhgSeries(beta, F(9, 2))
    series.inject(1, 1, TrigPoly.cos(1))
    series.inject(1, 2, TrigPoly({2: (F(1, 3), F(-1, 5))}))
    table = recursion_step(2, series)
    for alpha, trig in table.items():
        if free_symbols(2, alpha):
            continue
        max_label_ell = max(l for l, k in series.labels[alpha])
        assert max(trig.coeffs, default=0) <= max_label_ell


def test_recursion_verify_operator_identity():
    # step 1 partly assigned: a[1,2,*], a[1,3,*], a[1,4,*] read 0
    series = PhgSeries(F(3, 4), F(9, 2))
    series.assign({"a[1,0,c]": F(1, 3), "a[1,1,c]": 2, "a[1,1,s]": F(-1, 2)})
    t1 = series.steps[1] = recursion_step(1, series)
    assert verify_step(1, series, t1)
    # a spurious term is caught, at a free slot and at a ladder slot
    for alpha in (F(2), F(3, 2)):
        bad = dict(t1)
        bad[alpha] = t1[alpha] + TrigPoly.const(1)
        assert not verify_step(1, series, bad)


def test_recurse_verify_operator_identity():
    # step 1 partly assigned (the rest default to 0), step 2 fully assigned
    step2 = {f"a[2,{l},{p}]": F(1, 7) for l in range(5) for p in "cs" if l or p == "c"}
    series = recurse(F(3, 4), F(9, 2), 2, {"a[1,0,c]": F(1, 3), "a[1,1,c]": 2, "a[1,1,s]": F(-1, 2), **step2})
    assert series.assignments["a[1,2,c]"] == 0
    assert verify_step(1, series, series.steps[1])
    assert verify_step(2, series, series.steps[2])


@pytest.mark.parametrize("beta", [F(1, 2), F(2, 3), F(3, 4), F(5, 4), F(3)], ids=str)
def test_recurse_verifies_every_step(beta):
    # integer collisions at beta = 1/2, 2/3, 3/4; at beta = 3, 2*beta is past the truncation
    steps, truncation = 3, F(9, 2)
    values = {f"a[{j},{l},c]": F(1, j + l + 1) for j in range(1, steps + 1) for l in range(5)}
    values.update({f"a[{j},{l},s]": F(-1, 2 * j + l) for j in range(1, steps + 1) for l in range(1, 5)})
    series = recurse(beta, truncation, steps, values)
    assert series.assignments == values
    for j in range(1, steps + 1):
        assert series.steps[j]
        assert verify_step(j, series, series.steps[j])


def test_recurse_refuses_unknown_assignment():
    with pytest.raises(ValueError, match="zzz"):
        recurse(F(3, 4), 4, 2, {"zzz": 5})
    with pytest.raises(ValueError, match=r"a\[3,1,c\]"):
        recurse(F(3, 4), 4, 2, {"a[3,1,c]": 1})  # a step-3 name, but only 2 steps ran


def test_recursion_collision_slots_share_and_drop_purity():
    series = PhgSeries(F(1, 2), 4)
    series.inject(1, 1, TrigPoly.cos(1))
    table = recursion_step(2, series)
    # at beta = 1/2, 2 + 2*beta = 3 collides with the integer slot
    assert F(3) in table
    assert len(series.labels[F(3)]) >= 2
    # step 0 sits on the same exponent set: 2*beta = 1 collides with l = 1
    assert F(1) in series.steps[0]
    assert series.labels[F(1)] == ((0, 1), (1, 0))
    series.steps[2] = table
    series.assign({s: F(0) for a in table for s in free_symbols(2, a)})
    assert verify_step(2, series, table)


def test_free_symbols_name_the_integer_slots_of_later_steps():
    assert free_symbols(0, F(2)) == ()
    assert free_symbols(1, F(3, 2)) == ()
    assert free_symbols(2, F(0)) == ("a[2,0,c]",)
    assert free_symbols(3, F(2)) == ("a[3,2,c]", "a[3,2,s]")


def test_inject_refuses_exponent_outside_index_set():
    series = PhgSeries(F(3, 4), 4)
    series.inject(1, F(5, 2), TrigPoly.cos(1))  # 1 + 2*beta
    for alpha in (F(1, 3), F(9, 2), -1):  # not l + 2k*beta, past the truncation, negative
        with pytest.raises(ValueError):
            series.inject(1, alpha, TrigPoly.cos(1))


def test_recursion_truncation_guard():
    series = PhgSeries(F(3, 4), 4)
    with pytest.raises(ValueError):
        recursion_step(0, series)


def test_series_refuses_more_one_cone_terms_than_tabulated():
    # floor(4 / (2/16)) = 32 terms; 30 (beta = 1/15) still build
    with pytest.raises(ValueError, match="beta = 1/16 with truncation 4 needs 32 one-cone terms"):
        PhgSeries(F(1, 16), 4)
    assert len(PhgSeries(F(1, 15), 4).steps[0]) == 30


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


def test_fit_stops_at_the_cancellation_floor():
    # the exact family 2 rho^2 leaves nothing after one term to peel a second from
    rho = [0.2 / 2**i for i in range(6)]
    rep = fit_exponents([(r, 2.0 * r**2) for r in rho], count=2)
    assert rep.ok and rep.message == "residual at cancellation floor"
    assert len(rep.terms) == 1
    assert rep.terms[0].alpha == pytest.approx(2.0, abs=1e-9)


def test_fit_u0_leading_exponent():
    beta = 0.7
    rho = [0.2 / 2**i for i in range(7)]
    samples = [(r, u0_value(r**beta / beta)) for r in rho]
    rep = fit_exponents(samples, count=1)
    assert rep.ok
    assert abs(rep.terms[0].alpha - 2 * beta) < 0.02


@pytest.mark.parametrize(
    "samples, message",
    [
        ([(0.1, 0.01), (0.05, math.nan), (0.025, 0.000625)], "values must be finite"),
        ([(0.1, 0.01), (0.05, math.inf), (0.025, 0.000625)], "values must be finite"),
        ([(0.1, 0.01), (math.nan, 0.0025), (0.025, 0.000625)], "rho must be finite"),
        ([(math.inf, 0.01), (0.05, 0.0025), (0.025, 0.000625)], "rho must be finite"),
    ],
    ids=["nan_value", "inf_value", "nan_rho", "inf_rho"],
)
def test_fit_reports_non_finite_data(samples, message):
    rep = fit_exponents(samples, count=1)
    assert not rep.ok and not rep.terms
    assert message in rep.message


def test_fit_non_monotone_reports_failure():
    rep = fit_exponents([(0.1, 1.0), (0.05, 2.0), (0.025, 0.5)], count=1)
    assert not rep.ok
    assert "monotone" in rep.message
