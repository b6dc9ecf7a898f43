import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conic_moduli.extrapolate import neville_zero
from conic_moduli.flat import (
    FlatConicMetric,
    cone_angle_probe,
    corner_expansion_2pt,
    green_factor,
)

from oracles import trig_value


def unit_roots(k):
    return [cmath.exp(2j * math.pi * j / k) for j in range(k)]


def test_green_factor_examples():
    m2 = FlatConicMetric.of([0.3, -0.3], ["1/2", "1/2"])
    assert green_factor(m2, 0.6) == pytest.approx(-0.5 * math.log(3 * 0.3**2), rel=1e-14)
    # single point: G / log|z - p| -> beta - 1
    m1 = FlatConicMetric.of([0.2 + 0.1j], ["3/4"])
    for r in (1e-3, 1e-5):
        z = m1.points[0] + r
        assert green_factor(m1, z) / math.log(r) == pytest.approx(-0.25, rel=1e-3)
    # symmetric cube roots at unit radius: G(0) = 0
    m3 = FlatConicMetric.of(unit_roots(3), ["1/3"] * 3)
    assert green_factor(m3, 0j) == pytest.approx(0.0, abs=1e-14)


def test_green_factor_pole_and_symmetry():
    m = FlatConicMetric.of([0j, 1 + 0j], ["1/2", "1/3"])
    with pytest.raises(ValueError):
        green_factor(m, 1 + 0j)
    m_swapped = FlatConicMetric.of([1 + 0j, 0j], ["1/3", "1/2"])
    for z in (0.3 + 0.4j, -1.2 + 0.1j):
        assert green_factor(m, z) == pytest.approx(green_factor(m_swapped, z), rel=1e-15)


def test_green_factor_exclude_drops_one_term():
    m = FlatConicMetric.of([0j, 1 + 0j], ["1/2", "1/3"])
    z = 0.3 + 0.4j
    term0 = -0.5 * math.log(abs(z))
    assert green_factor(m, z, exclude=0) == pytest.approx(green_factor(m, z) - term0, rel=1e-14)
    # finite at the excluded point itself
    assert green_factor(m, 0j, exclude=0) == 0.0


@pytest.mark.parametrize("exclude", [None, 1])
def test_green_factor_on_arrays_matches_scalar_calls(exclude):
    m = FlatConicMetric.of([0j, 1 + 0j, -0.3 + 0.7j], ["1/2", "1/3", "5/4"])
    z = np.array([[0.3 + 0.4j, -1.2 + 0.1j, 2j], [0.5, 1e-9 + 0j, -0.3 + 0.69j]])
    scalar = [[float(green_factor(m, complex(x), exclude=exclude)) for x in row] for row in z]
    np.testing.assert_allclose(green_factor(m, z, exclude=exclude), scalar, rtol=1e-15, atol=0)
    assert green_factor(m, 0.5).shape == ()


def test_green_factor_on_arrays_rejects_any_marked_point():
    m = FlatConicMetric.of([0j, 1 + 0j], ["1/2", "1/3"])
    z = np.array([[0.3 + 0.4j, 0.5], [1 + 0j, 2j]])
    with pytest.raises(ValueError, match=r"marked point \(1\+0j\)$"):
        green_factor(m, z)
    # the excluded point is no pole
    assert np.isfinite(green_factor(m, z, exclude=1)).all()


def test_plane_background_constraint():
    # sum(beta - 1) = -2: the plane model, with exact angle parameters
    m = FlatConicMetric.of(unit_roots(3), ["1/3", "1/3", "1/3"])
    assert sum(b - 1 for b in m.beta) == -2 and m.beta == (F(1, 3),) * 3
    with pytest.raises(ValueError):
        FlatConicMetric.of([0j, 1 + 0j], ["1/2", "0"])
    with pytest.raises(ValueError, match="equal length"):
        FlatConicMetric.of([0j, 1 + 0j], ["1/2"])
    with pytest.raises(ValueError, match="at least one marked point"):
        FlatConicMetric.of([], [])


def test_corner_expansion_symbolic_coefficients():
    b1, b2 = F(1, 3), F(3, 4)
    exp2 = corner_expansion_2pt(b1, b2, 4)
    # the log r coefficient is b1 + b2 - 2: G - (b1 + b2 - 2) log|z| is the s-series
    # alone, here at s = 0.1/2 through s^8
    w, z = 0.1 * cmath.exp(0.35j), 2 * cmath.exp(0.9j)
    terms8 = corner_expansion_2pt(b1, b2, 8).terms
    series = sum(0.05**n * trig_value(poly, 0.35 - 0.9) for n, poly in terms8)
    g = green_factor(FlatConicMetric.of([w, -w], [b1, b2]), z)
    assert g - (b1 + b2 - 2) * math.log(2) == pytest.approx(series, abs=1e-10)
    for order in (0, 9):
        with pytest.raises(ValueError, match="order must be between 1 and 8"):
            corner_expansion_2pt(b1, b2, order)
    # s^1: (b2 - b1) cos(D)
    c1 = dict(exp2.terms)[1]
    assert c1.coeffs[1][0] == b2 - b1
    assert set(c1.coeffs) == {1}
    # s^2: -(b12 - 1) cos(2D) / 2 with b12 = b1 + b2 - 1
    c2 = dict(exp2.terms)[2]
    assert c2.coeffs[2][0] == -(b1 + b2 - 2) / 2
    assert set(c2.coeffs) == {2}


def test_corner_expansion_equal_angles_kills_odd_orders():
    exp2 = corner_expansion_2pt(F(2, 3), F(2, 3), 6)
    for n, poly in exp2.terms:
        if n % 2 == 1:
            assert poly.is_zero
        else:
            assert not poly.is_zero


def finite_difference_taylor(f, n, base_h=0.3, levels=5):
    """n-th Taylor coefficient of f at 0 by Richardson-refined central stencils."""

    def dn(h):
        if n == 1:
            return (f(h) - f(-h)) / (2 * h)
        if n == 2:
            return (f(h) - 2 * f(0.0) + f(-h)) / h**2
        if n == 3:
            return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
        if n == 4:
            return (f(2 * h) - 4 * f(h) + 6 * f(0.0) - 4 * f(-h) + f(-2 * h)) / h**4
        raise ValueError(n)

    hs = [base_h / 2**i for i in range(levels)]
    return neville_zero([h * h for h in hs], [dn(h) for h in hs]) / math.factorial(n)


@pytest.mark.parametrize("b1,b2", [(F(1, 3), F(3, 4)), (F(1, 2), F(5, 6)), (F(2, 3), F(2, 3))])
def test_corner_expansion_matches_green_factor_derivatives(b1, b2):
    # oracle: differentiate the actual two-point Green factor in the pair
    # scale s at fixed direction, on the unit circle r = 1
    terms = dict(corner_expansion_2pt(b1, b2, 4).terms)
    theta = 0.35
    for phi in (0.0, 0.9, 2.1):
        delta = theta - phi
        z = cmath.exp(1j * phi)

        def g_of_s(s, _z=z):
            if s == 0.0:
                return 0.0
            sign = 1.0 if s > 0 else -1.0
            w = abs(s) * cmath.exp(1j * theta) * sign
            m = FlatConicMetric.of([w, -w], [b1, b2])
            return green_factor(m, _z)

        for n in range(1, 5):
            fd = finite_difference_taylor(g_of_s, n)
            sym = trig_value(terms[n], delta)
            assert abs(fd - sym) < 1e-8


def test_probe_pure_model_exact():
    m = FlatConicMetric.of([0j], ["2/3"])
    rep = cone_angle_probe(m, 0, [1e-2, 5e-3, 2.5e-3])
    for ratio in rep.ratios:
        assert ratio == pytest.approx(2 / 3, abs=1e-9)
    assert rep.extrapolated == pytest.approx(2 / 3, abs=1e-9)


def test_probe_removable_point():
    # beta = 1 with spectators: ratio -> 1
    m = FlatConicMetric.of([0j, 2 + 0j, -2 + 0j], ["1", "1/2", "1/2"])
    rep = cone_angle_probe(m, 0, [2e-2, 1e-2, 5e-3, 2.5e-3])
    assert rep.extrapolated == pytest.approx(1.0, abs=1e-8)


def test_probe_plane_model_third():
    m = FlatConicMetric.of(unit_roots(3), ["1/3"] * 3)
    radii = [10 ** (-2 - 0.5 * i) for i in range(5)]
    rep = cone_angle_probe(m, 0, radii)
    assert abs(rep.extrapolated - 1 / 3) < 1e-6


def test_probe_error_decreases_and_extrapolation_wins():
    # asymmetric global model so the finite-radius corrections are genuine
    beta = [F(1, 4), F(1, 3), F(5, 12)]
    pts = [1 + 0j, -0.2 + 0.9j, -1.1 - 0.3j]
    m = FlatConicMetric.of(pts, beta)
    radii = [2e-2, 1e-2, 5e-3, 2.5e-3]
    rep = cone_angle_probe(m, 1, radii)
    errs = [abs(rho - 1 / 3) for rho in rep.ratios]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert abs(rep.extrapolated - 1 / 3) < errs[-1]


def test_probe_rejects_radius_reaching_other_points():
    m = FlatConicMetric.of(unit_roots(3), ["1/3"] * 3)
    with pytest.raises(ValueError):
        cone_angle_probe(m, 0, [2.0, 1.0])


def test_discrete_harmonicity_of_green_factor():
    # 5-point Laplacian vanishes to quadrature order away from the points
    m = FlatConicMetric.of(unit_roots(3), ["1/3"] * 3)
    z0 = 0.21 + 0.13j

    def lap(h):
        return (
            green_factor(m, z0 + h)
            + green_factor(m, z0 - h)
            + green_factor(m, z0 + 1j * h)
            - 4 * green_factor(m, z0)
            + green_factor(m, z0 - 1j * h)
        ) / h**2

    l1, l2 = abs(lap(1e-2)), abs(lap(5e-3))
    assert l1 < 1e-3
    assert l2 < 0.3 * l1  # second-order decay
