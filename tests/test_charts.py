import cmath
import itertools
import math

import numpy as np
import pytest

from conic_moduli import charts
from conic_moduli.charts import (
    Chart2Point,
    Chart3CornerPoint,
    OMEGA_MARGIN,
    DegenerateChartError,
    LiftingMatrix,
    blowdown2,
    blowdown3_corner,
    chart2_from_points,
    chart3_corner_from_points,
    pullback_report,
)


def test_blowdown2_example():
    p = Chart2Point(zeta=0j, R12=0.2, omega=math.pi / 6, phi=0.0, theta=0.0)
    z1, z2, z = blowdown2(p)
    assert abs(z1 - z2) / 2 == pytest.approx(0.1, abs=1e-15)
    assert z1 == pytest.approx(0.1 + 0j, abs=1e-15)
    assert z2 == pytest.approx(-0.1 + 0j, abs=1e-15)
    assert z == pytest.approx(0.1 * math.sqrt(3) + 0j, abs=1e-15)


def test_blowdown2_boundary_cases():
    # omega = pi/2: z collapses to the center of mass, rho12 = R12
    p = Chart2Point(zeta=0.3 + 0.4j, R12=0.5, omega=math.pi / 2, phi=1.0, theta=2.0)
    z1, z2, z = blowdown2(p)
    assert abs(z - p.zeta) < 1e-16
    assert abs(z1 - z2) / 2 == pytest.approx(0.5)
    # omega = 0: the two points coincide, z sits on the circle of radius R12
    q = Chart2Point(zeta=0j, R12=0.5, omega=0.0, phi=0.7, theta=0.0)
    z1, z2, z = blowdown2(q)
    assert z1 == z2 == 0j
    assert abs(abs(z) - 0.5) < 1e-15


def test_chart2_inverse_example():
    q = chart2_from_points(0.1 + 0j, -0.1 + 0j, 0.1 * math.sqrt(3) + 0j)
    assert q.zeta == 0j
    assert q.R12 == pytest.approx(0.2, rel=1e-14)
    assert q.omega == pytest.approx(math.pi / 6, rel=1e-14)
    assert q.phi == pytest.approx(0.0, abs=1e-15)
    assert q.theta == pytest.approx(0.0, abs=1e-15)


def test_chart2_coincident_pair():
    q = chart2_from_points(0j, 0j, 0.5 + 0j)
    assert q.omega == 0.0
    assert q.R12 == pytest.approx(0.5)


def test_chart2_degenerate_center():
    with pytest.raises(DegenerateChartError):
        chart2_from_points(0.2 + 0.3j, 0.2 + 0.3j, 0.2 + 0.3j)


def test_swap_symmetry():
    # theta -> theta + pi swaps z1, z2 and fixes z
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Chart2Point(
            zeta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            R12=rng.uniform(0.01, 1.0),
            omega=rng.uniform(0, math.pi / 2),
            phi=rng.uniform(0, 2 * math.pi),
            theta=rng.uniform(0, 2 * math.pi),
        )
        z1, z2, z = blowdown2(p)
        q = Chart2Point(p.zeta, p.R12, p.omega, p.phi, p.theta + math.pi)
        w1, w2, w = blowdown2(q)
        assert abs(w1 - z2) < 5e-16 * (1 + abs(z2))
        assert abs(w2 - z1) < 5e-16 * (1 + abs(z1))
        assert w == z


def test_roundtrip_coordinates_interior():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = Chart2Point(
            zeta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            R12=rng.uniform(0.05, 1.0),
            omega=rng.uniform(0.05, math.pi / 2 - 0.05),
            phi=rng.uniform(0, 2 * math.pi),
            theta=rng.uniform(0, 2 * math.pi),
        )
        z1, z2, z = blowdown2(p)
        q = chart2_from_points(z1, z2, z)
        assert q.R12 == pytest.approx(p.R12, rel=1e-12)
        assert q.omega == pytest.approx(p.omega, abs=1e-12)
        assert abs(q.zeta - p.zeta) < 1e-13
        assert math.remainder(q.theta - p.theta, 2 * math.pi) == pytest.approx(0.0, abs=1e-11)
        assert math.remainder(q.phi - p.phi, 2 * math.pi) == pytest.approx(0.0, abs=1e-11)


def test_blowdown3_corner_boundary_cases():
    # R12 = 0: the pair collapses onto the center, z3 on the R123 circle
    p = Chart3CornerPoint(zeta=0.1 + 0j, R123=0.4, R12=0.0, omega12=0.3, phi12=0.2, theta12=0.5, phi2=1.2)
    z1, z2, z3, z = blowdown3_corner(p)
    assert z1 == z2 == p.zeta
    assert abs((z3 - p.zeta) - 0.4 * cmath.exp(1.2j)) < 1e-15
    # omega12 = pi/2, R12 = 1: z hits the inner blowup center
    q = Chart3CornerPoint(R123=0.7, R12=1.0, omega12=math.pi / 2, phi12=0.0, theta12=0.0, phi2=0.0)
    _, _, _, z = blowdown3_corner(q)
    assert abs(z - q.zeta) < 1e-15


def generic_chart_oracle(p: Chart3CornerPoint):
    """Two-step composition: the mid-level chart followed by the corner substitution.

    Mid-level coordinates (R123, omega, phi, rho12, theta12, phi2) map by
      z1 - zeta = R123 sin(omega) rho12 e^{i theta12}   (= -(z2 - zeta))
      z3 - zeta = R123 sin(omega) sqrt(1 - rho12^2) e^{i phi2}
      z  - zeta = R123 cos(omega) e^{i phi}
    and the corner substitution is cos(omega) e^{i phi} = R12 cos(w12) e^{i phi12},
    rho12 = R12 sin(w12).
    """
    a = p.R12 * math.cos(p.omega12)
    rho12 = p.R12 * math.sin(p.omega12)
    cos_omega = a
    sin_omega = math.sqrt(1.0 - cos_omega**2)
    phi = p.phi12
    w1 = p.R123 * sin_omega * rho12 * cmath.exp(1j * p.theta12)
    z3 = p.zeta + p.R123 * sin_omega * math.sqrt(1.0 - rho12**2) * cmath.exp(1j * p.phi2)
    z = p.zeta + p.R123 * cos_omega * cmath.exp(1j * phi)
    return p.zeta + w1, p.zeta - w1, z3, z


def test_blowdown3_matches_generic_composition():
    rng = np.random.default_rng(9)
    for _ in range(500):
        p = Chart3CornerPoint(
            zeta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            R123=rng.uniform(0.0, 1.0),
            R12=rng.uniform(0.0, 0.999),
            omega12=rng.uniform(0, math.pi / 2),
            phi12=rng.uniform(0, 2 * math.pi),
            theta12=rng.uniform(0, 2 * math.pi),
            phi2=rng.uniform(0, 2 * math.pi),
        )
        ours = blowdown3_corner(p)
        oracle = generic_chart_oracle(p)
        for a, b in zip(ours, oracle):
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_chart3_corner_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = Chart3CornerPoint(
            R123=rng.uniform(0.1, 1.0),
            R12=rng.uniform(0.05, 0.5),
            omega12=rng.uniform(0.05, math.pi / 2 - 0.05),
            phi12=rng.uniform(0, 2 * math.pi),
            theta12=rng.uniform(0, 2 * math.pi),
            phi2=rng.uniform(0, 2 * math.pi),
        )
        q = chart3_corner_from_points(*blowdown3_corner(p))
        assert q.R123 == pytest.approx(p.R123, rel=1e-12)
        assert q.R12 == pytest.approx(p.R12, rel=1e-11)
        assert q.omega12 == pytest.approx(p.omega12, abs=1e-11)


def test_lifting_matrix_row_condition():
    good = LiftingMatrix(rows=("a", "b"), cols=("x", "y"), entries=((1, 0), (0, 2)))
    assert good.row_condition_ok
    bad = LiftingMatrix(rows=("a",), cols=("x", "y"), entries=((1, 1),))
    assert not bad.row_condition_ok
    with pytest.raises(ValueError):
        LiftingMatrix(rows=("a",), cols=("x",), entries=((-1,),))


def test_pullback_two_chart():
    rep = pullback_report("two", samples=4000, region=0.3, seed=101)
    assert rep.lifting.row_condition_ok
    assert rep.lifting.entries == ((1,), (1,))
    lo, hi = rep.factors["rho12"]
    # A = sin(omega)/omega on (0, pi/2]
    assert 2 / math.pi - 1e-12 <= lo and hi <= 1.0 + 1e-12
    assert rep.amin > 0.5
    assert rep.positivity_ok


def test_pullback_three_corner_chart():
    rep = pullback_report("three-corner", samples=4000, region=0.3, seed=101)
    assert rep.lifting.row_condition_ok
    assert rep.lifting.entries == ((1, 0), (0, 1), (0, 1))
    lo123, hi123 = rep.factors["rho123"]
    assert math.sqrt(0.91) - 1e-12 <= lo123 and hi123 <= 1.0 + 1e-12
    lo12, hi12 = rep.factors["rho12"]
    assert 2 / math.pi - 1e-12 <= lo12 and hi12 <= 1.0 + 1e-12
    assert rep.amin > 0.5
    assert rep.roundtrip_max_err < 1e-12


def test_pullback_factors_follow_the_lifting_matrix(monkeypatch):
    # a wrong exponent must show in the factors: R12^2 leaves a factor ~ 1/R12
    wrong = LiftingMatrix(
        rows=("C123[R123]", "C12[R12]", "fiber[omega12]"),
        cols=("rho123", "rho12"),
        entries=((1, 0), (0, 2), (0, 1)),
    )
    monkeypatch.setattr(charts, "_LIFT_THREE", wrong)
    rep = pullback_report("three-corner", samples=4000, region=0.3, seed=101)
    assert rep.lifting is wrong
    assert rep.factors["rho12"][1] > 1e3


def off_by_one(chart, attr):
    """(chart, attr, entries, face, side) for each exponent of a chart's matrix moved by one."""
    lifting = getattr(charts, attr)
    for i, j in itertools.product(range(len(lifting.rows)), range(len(lifting.cols))):
        for step, side in ((-1, "below 0.001"), (1, "above 1000")):
            entries = [list(row) for row in lifting.entries]
            entries[i][j] += step
            if entries[i][j] >= 0:
                entries = tuple(map(tuple, entries))
                yield pytest.param(chart, attr, entries, lifting.cols[j], side, id=f"{chart}-{entries}")


@pytest.mark.parametrize(
    "chart, attr, entries, face, side",
    [*off_by_one("two", "_LIFT_TWO"), *off_by_one("three-corner", "_LIFT_THREE")],
)
def test_pullback_flags_a_wrong_exponent(chart, attr, entries, face, side, monkeypatch):
    # one exponent too many leaves a factor ~ 1/bdf, one too few ~ bdf
    lifting = getattr(charts, attr)
    monkeypatch.setattr(charts, attr, LiftingMatrix(lifting.rows, lifting.cols, entries))
    rep = pullback_report(chart, samples=10_000)
    assert not rep.positivity_ok
    assert rep.failure == f"smooth factor of {face} {side}"


def test_pullback_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pullback_report("two", samples=0)
    with pytest.raises(ValueError):
        pullback_report("two", region=1.5)
    with pytest.raises(ValueError, match="radial samples start at 1e-06"):
        pullback_report("three-corner", region=1e-6)
    with pytest.raises(ValueError):
        pullback_report("five")


MAPS = {
    "two": (blowdown2, chart2_from_points),
    "three-corner": (blowdown3_corner, chart3_corner_from_points),
}


def random_points(rng, n):
    """n interior points of each chart, as one array point per chart."""
    zeta = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    two = Chart2Point(
        zeta=zeta,
        R12=rng.uniform(0.05, 1.0, n),
        omega=rng.uniform(0.05, math.pi / 2 - 0.05, n),
        phi=rng.uniform(-7, 7, n),
        theta=rng.uniform(-7, 7, n),
    )
    three = Chart3CornerPoint(
        zeta=zeta,
        R123=rng.uniform(0.1, 1.0, n),
        R12=rng.uniform(0.05, 0.9, n),
        omega12=rng.uniform(0.05, math.pi / 2 - 0.05, n),
        phi12=rng.uniform(-7, 7, n),
        theta12=rng.uniform(-7, 7, n),
        phi2=rng.uniform(-7, 7, n),
    )
    return {"two": two, "three-corner": three}


def entry(p, i):
    """The i-th entry of an array chart point, as a scalar chart point."""
    fields = {name: value[i] for name, value in vars(p).items()}
    return type(p)(**fields)


def assert_entrywise(arrays, scalars):
    for k, a in enumerate(arrays):
        np.testing.assert_allclose(a, [s[k] for s in scalars], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("chart", ["two", "three-corner"])
def test_chart_maps_on_arrays_match_scalar_calls(chart):
    blowdown, invert = MAPS[chart]
    p = random_points(np.random.default_rng(17), 64)[chart]
    n = p.zeta.size
    pts = blowdown(p)
    assert all(np.shape(z) == (n,) for z in pts)
    assert_entrywise(pts, [blowdown(entry(p, i)) for i in range(n)])
    q = invert(*pts)
    coords = list(vars(q))
    assert_entrywise(
        [getattr(q, c) for c in coords],
        [[getattr(invert(*(z[i] for z in pts)), c) for c in coords] for i in range(n)],
    )


def test_chart_maps_on_arrays_reject_any_bad_entry():
    points = random_points(np.random.default_rng(19), 8)
    z1, z2, z = blowdown2(points["two"])
    z1[3] = z2[3] = z[3] = 0.5 + 0.5j
    with pytest.raises(DegenerateChartError):
        chart2_from_points(z1, z2, z)
    w1, w2, w3, w = blowdown3_corner(points["three-corner"])
    w1[5] = w2[5] = w3[5] = 0.1j
    with pytest.raises(DegenerateChartError):
        chart3_corner_from_points(w1, w2, w3, w)
    bad = np.array([0.1, 0.2, -1e-12])
    with pytest.raises(ValueError):
        Chart2Point(R12=bad)
    with pytest.raises(ValueError):
        Chart3CornerPoint(R123=bad)
    with pytest.raises(ValueError):
        Chart3CornerPoint(R123=0.5, R12=bad)


def reference_pullback(chart, samples, region, seed):
    """The per-sample sampling loop, with scalar draws and math/cmath maps.

    Returns the factor ranges and the generator after the draws of the
    round-trip points, which follow the factor samples in the stream.
    """
    rng = np.random.default_rng(seed)
    top = math.pi / 2 - OMEGA_MARGIN
    factors = {}
    for _ in range(samples):
        if chart == "two":
            R12 = rng.uniform(1e-6, region)
            omega = rng.uniform(1e-9, top)
            factors.setdefault("rho12", []).append(R12 * math.sin(omega) / (R12 * omega))
            continue
        R123 = rng.uniform(1e-6, 1.0)
        R12 = rng.uniform(1e-6, region)
        omega12 = rng.uniform(1e-9, top)
        theta12, phi12, phi2 = (rng.uniform(0, 2 * math.pi) for _ in range(3))
        a, b = R12 * math.cos(omega12), R12 * math.sin(omega12)
        outer = math.sqrt(max(0.0, 1.0 - a * a))
        w = R123 * outer * b * cmath.exp(1j * theta12)
        z1, z2 = 0j + w, 0j - w
        z3 = 0j + R123 * outer * math.sqrt(max(0.0, 1.0 - b * b)) * cmath.exp(1j * phi2)
        # base coordinates, recomputed from the points
        w1 = 0.5 * (z1 - z2)
        w2 = z3 - 0.5 * (z1 + z2)
        rho123 = math.hypot(abs(w1), abs(w2))
        factors.setdefault("rho123", []).append(rho123 / R123)
        factors.setdefault("rho12", []).append(abs(w1) / rho123 / (R12 * omega12))
    # round-trip points: zeta, then 4 (two) or 6 (three-corner) coordinates
    for _ in range(min(samples, 10_000) * (6 if chart == "two" else 8)):
        rng.uniform()
    return {face: (min(v), max(v)) for face, v in factors.items()}, rng


@pytest.mark.parametrize("chart", ["two", "three-corner"])
@pytest.mark.parametrize("seed", [20240, 7])
def test_pullback_keeps_the_per_sample_draw_order(monkeypatch, chart, seed):
    # 10,001 samples: one full block and a one-sample tail
    generators = []
    default_rng = np.random.default_rng

    def recording_rng(s):
        generators.append(default_rng(s))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    rep = pullback_report(chart, samples=10_001, region=0.3, seed=seed)
    monkeypatch.undo()
    ranges, rng = reference_pullback(chart, 10_001, 0.3, seed)
    assert list(rep.factors) == list(ranges)
    extremes = (min(lo for lo, _ in ranges.values()), max(hi for _, hi in ranges.values()))
    for got, want in [(rep.factors[face], ranges[face]) for face in ranges] + [((rep.amin, rep.amax), extremes)]:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # the report consumed exactly the reference's draws
    assert generators[0].bit_generator.state == rng.bit_generator.state
