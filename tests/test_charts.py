import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from conic_moduli import charts
from conic_moduli.charts import (
    OMEGA_MARGIN,
    ChartPoint,
    DegenerateChartError,
    LiftingMatrix,
    blowdown,
    chart_from_points,
    pullback_report,
)


def test_two_point_blowdown_example():
    p = ChartPoint(zeta=0j, radii=(0.2,), omega=math.pi / 6, theta=0.0, phi=0.0)
    z1, z2, z = blowdown(p)
    assert abs(z1 - z2) / 2 == pytest.approx(0.1, abs=1e-15)
    assert z1 == pytest.approx(0.1 + 0j, abs=1e-15)
    assert z2 == pytest.approx(-0.1 + 0j, abs=1e-15)
    assert z == pytest.approx(0.1 * math.sqrt(3) + 0j, abs=1e-15)


def test_two_point_blowdown_boundary_cases():
    # omega = pi/2: z collapses to the center of mass, rho12 = R12
    p = ChartPoint(zeta=0.3 + 0.4j, radii=(0.5,), omega=math.pi / 2, theta=2.0, phi=1.0)
    z1, z2, z = blowdown(p)
    assert abs(z - p.zeta) < 1e-16
    assert abs(z1 - z2) / 2 == pytest.approx(0.5)
    # omega = 0: the two points coincide, z sits on the circle of radius R12
    q = ChartPoint(zeta=0j, radii=(0.5,), omega=0.0, theta=0.0, phi=0.7)
    z1, z2, z = blowdown(q)
    assert z1 == z2 == 0j
    assert abs(abs(z) - 0.5) < 1e-15


def test_chart2_inverse_example():
    q = chart_from_points(0.1 + 0j, -0.1 + 0j, 0.1 * math.sqrt(3) + 0j)
    assert q.zeta == 0j
    assert len(q.radii) == 1 and q.phases == ()
    assert q.radii[0] == pytest.approx(0.2, rel=1e-14)
    assert q.omega == pytest.approx(math.pi / 6, rel=1e-14)
    assert q.phi == pytest.approx(0.0, abs=1e-15)
    assert q.theta == pytest.approx(0.0, abs=1e-15)


def test_chart2_coincident_pair():
    q = chart_from_points(0j, 0j, 0.5 + 0j)
    assert q.omega == 0.0
    assert q.radii[0] == pytest.approx(0.5)


def test_chart2_degenerate_center():
    with pytest.raises(DegenerateChartError):
        chart_from_points(0.2 + 0.3j, 0.2 + 0.3j, 0.2 + 0.3j)


def test_inverse_refuses_the_center_of_every_level():
    # z1 = z2 and z = zeta: the pair's radius is 0, inside a triple as on its own
    with pytest.raises(DegenerateChartError):
        chart_from_points(0j, 0j, 0j)
    with pytest.raises(DegenerateChartError):
        chart_from_points(0j, 0j, 1 + 0j, 0j)
    # z1 = z2 = z3 with z away: the pair's share of the triple is undefined
    with pytest.raises(DegenerateChartError):
        chart_from_points(0j, 0j, 0j, 1 + 0j)
    # all four at one point: the outermost radius is 0
    with pytest.raises(DegenerateChartError):
        chart_from_points(0.5j, 0.5j, 0.5j, 0.5j)
    # depth 3: the triple's radius in units of {1,2,3,4} is 0, and the pair's is undefined
    with pytest.raises(DegenerateChartError):
        chart_from_points(0j, 0j, 0j, 1 + 0j, 0j)
    # off the centers a coincident pair is a point of the chart: omega = 0
    q = chart_from_points(0j, 0j, 1 + 0j, 0.5 + 0j)
    assert q.omega == 0.0 and q.radii[1] > 0


def test_chart_point_refuses_inner_levels_outside_the_unit_square():
    # R12 cos(omega12) = 1.91 > 1: z would lie outside the triple's radius
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ChartPoint(radii=(1.0, 2.0), omega=0.3, phases=(0.0,))
    # R12 sin(omega12) > 1: the pair would outgrow the triple
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ChartPoint(radii=(1.0, 1.2), omega=1.4, phases=(0.0,))
    # one bad entry of an array point
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ChartPoint(radii=(1.0, np.array([0.5, 1.0, 1.0 + 1e-9])), omega=0.0, phases=(0.0,))
    # depth 3: the triple's relative coordinates 1.5 (a, sqrt(1 - a^2)) leave [0, 1]
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        ChartPoint(radii=(1.0, 1.5, 0.1), omega=0.3, phases=(0.0, 0.0))
    # the outermost radius is absolute, and round-off at the edge is allowed
    ChartPoint(radii=(5.0,), omega=0.3)
    ChartPoint(radii=(5.0, 1.0 + 5e-16), omega=0.0, phases=(0.0,))
    with pytest.raises(ValueError, match="2 radii need 1 phases"):
        ChartPoint(radii=(1.0, 0.5), omega=0.3)


def test_swap_symmetry():
    # theta -> theta + pi swaps z1, z2 and fixes z
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = ChartPoint(
            zeta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            radii=(rng.uniform(0.01, 1.0),),
            omega=rng.uniform(0, math.pi / 2),
            phi=rng.uniform(0, 2 * math.pi),
            theta=rng.uniform(0, 2 * math.pi),
        )
        z1, z2, z = blowdown(p)
        w1, w2, w = blowdown(dataclasses.replace(p, theta=p.theta + math.pi))
        assert abs(w1 - z2) < 5e-16 * (1 + abs(z2))
        assert abs(w2 - z1) < 5e-16 * (1 + abs(z1))
        assert w == z


def test_roundtrip_coordinates_interior():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = ChartPoint(
            zeta=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            radii=(rng.uniform(0.05, 1.0),),
            omega=rng.uniform(0.05, math.pi / 2 - 0.05),
            phi=rng.uniform(0, 2 * math.pi),
            theta=rng.uniform(0, 2 * math.pi),
        )
        z1, z2, z = blowdown(p)
        q = chart_from_points(z1, z2, z)
        assert q.radii[0] == pytest.approx(p.radii[0], rel=1e-12)
        assert q.omega == pytest.approx(p.omega, abs=1e-12)
        assert abs(q.zeta - p.zeta) < 1e-13
        assert math.remainder(q.theta - p.theta, 2 * math.pi) == pytest.approx(0.0, abs=1e-11)
        assert math.remainder(q.phi - p.phi, 2 * math.pi) == pytest.approx(0.0, abs=1e-11)


def test_corner_blowdown_boundary_cases():
    # R12 = 0: the pair collapses onto the center, z3 on the R123 circle
    p = ChartPoint(zeta=0.1 + 0j, radii=(0.4, 0.0), omega=0.3, theta=0.5, phi=0.2, phases=(1.2,))
    z1, z2, z3, z = blowdown(p)
    assert z1 == z2 == p.zeta
    assert abs((z3 - p.zeta) - 0.4 * cmath.exp(1.2j)) < 1e-15
    # omega12 = pi/2, R12 = 1: z hits the inner blowup center
    q = ChartPoint(radii=(0.7, 1.0), omega=math.pi / 2, theta=0.0, phi=0.0, phases=(0.0,))
    _, _, _, z = blowdown(q)
    assert abs(z - q.zeta) < 1e-15


def generic_chart_oracle(p: ChartPoint):
    """Two-step composition: the mid-level chart followed by the corner substitution.

    Mid-level coordinates (R123, omega, phi, rho12, theta12, phi2) map by
      z1 - zeta = R123 sin(omega) rho12 e^{i theta12}   (= -(z2 - zeta))
      z3 - zeta = R123 sin(omega) sqrt(1 - rho12^2) e^{i phi2}
      z  - zeta = R123 cos(omega) e^{i phi}
    and the corner substitution is cos(omega) e^{i phi} = R12 cos(w12) e^{i phi12},
    rho12 = R12 sin(w12).
    """
    (R123, R12), (phi2,) = p.radii, p.phases
    a = R12 * math.cos(p.omega)
    rho12 = R12 * math.sin(p.omega)
    cos_omega = a
    sin_omega = math.sqrt(1.0 - cos_omega**2)
    phi = p.phi
    w1 = R123 * sin_omega * rho12 * cmath.exp(1j * p.theta)
    z3 = p.zeta + R123 * sin_omega * math.sqrt(1.0 - rho12**2) * cmath.exp(1j * phi2)
    z = p.zeta + R123 * cos_omega * cmath.exp(1j * phi)
    return p.zeta + w1, p.zeta - w1, z3, z


def test_blowdown3_matches_generic_composition():
    rng = np.random.default_rng(9)
    for _ in range(500):
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        R123, R12, omega12, phi12, theta12, phi2 = (
            rng.uniform(*bounds)
            for bounds in [(0.0, 1.0), (0.0, 0.999), (0, math.pi / 2)] + [(0, 2 * math.pi)] * 3
        )
        p = ChartPoint(zeta, (R123, R12), omega12, theta12, phi12, (phi2,))
        ours = blowdown(p)
        oracle = generic_chart_oracle(p)
        for a, b in zip(ours, oracle):
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_chart3_corner_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        R123, R12, omega12, phi12, theta12, phi2 = (
            rng.uniform(*bounds)
            for bounds in [(0.1, 1.0), (0.05, 0.5), (0.05, math.pi / 2 - 0.05)] + [(0, 2 * math.pi)] * 3
        )
        p = ChartPoint(0j, (R123, R12), omega12, theta12, phi12, (phi2,))
        q = chart_from_points(*blowdown(p))
        assert q.radii[0] == pytest.approx(R123, rel=1e-12)
        assert q.radii[1] == pytest.approx(R12, rel=1e-11)
        assert q.omega == pytest.approx(omega12, abs=1e-11)


def chain3_moduli(R1234, R123, R12, omega):
    """|z1 - zeta|, |z3 - zeta|, |z4 - zeta| and |z - zeta| on the chain {1,2} ⊂ {1,2,3} ⊂ {1,2,3,4}.

    Each level's (a, s) is its radius times (cos, sin) of its angle; an outer
    level's angle has cosine the inner a, its scale splits into its child's
    share s and its added point's sqrt(1 - s^2), and its a is |z - zeta|.
    """
    a0, s0 = R12 * math.cos(omega), R12 * math.sin(omega)
    a1, s1 = R123 * a0, R123 * math.sqrt(1 - a0 * a0)
    a2, s2 = R1234 * a1, R1234 * math.sqrt(1 - a1 * a1)
    return s2 * s1 * s0, s2 * s1 * math.sqrt(1 - s0 * s0), s2 * math.sqrt(1 - s1 * s1), a2


def test_depth_three_chain_round_trips():
    # {1,2} ⊂ {1,2,3} ⊂ {1,2,3,4}: radii (R1234, R123, R12), phases (of z4, of z3)
    rng = np.random.default_rng(23)
    n = 2000
    radii = (rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 1.0, n), rng.uniform(0.05, 0.9, n))
    p = ChartPoint(
        zeta=rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n),
        radii=radii,
        omega=rng.uniform(0.05, math.pi / 2 - 0.05, n),
        theta=rng.uniform(0, 2 * math.pi, n),
        phi=rng.uniform(0, 2 * math.pi, n),
        phases=(rng.uniform(0, 2 * math.pi, n), rng.uniform(0, 2 * math.pi, n)),
    )
    pts = blowdown(p)
    assert len(pts) == 5
    z1, z2, z3, z4, z = pts
    for i in range(0, n, 97):
        want = chain3_moduli(*(R[i] for R in radii), p.omega[i])
        got = (abs(z1[i] - p.zeta[i]), abs(z3[i] - p.zeta[i]), abs(z4[i] - p.zeta[i]), abs(z[i] - p.zeta[i]))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    q = chart_from_points(*pts)
    assert np.max(np.abs(q.zeta - p.zeta)) < 1e-12
    for got, want in zip((*q.radii, q.omega), (*p.radii, p.omega)):
        assert np.max(np.abs(got - want)) < 1e-12
    for got, want in zip((q.theta, q.phi, *q.phases), (p.theta, p.phi, *p.phases)):
        assert np.max(np.abs(np.remainder(got - want + math.pi, 2 * math.pi) - math.pi)) < 1e-12
    back = blowdown(q)
    assert max(np.max(np.abs(a - b)) for a, b in zip(pts, back)) < 1e-12


def test_lifting_matrix_row_condition():
    good = LiftingMatrix(rows=("a", "b"), cols=("x", "y"), entries=((1, 0), (0, 2)))
    assert good.row_condition_ok
    bad = LiftingMatrix(rows=("a",), cols=("x", "y"), entries=((1, 1),))
    assert not bad.row_condition_ok
    with pytest.raises(ValueError):
        LiftingMatrix(rows=("a",), cols=("x",), entries=((-1,),))
    with pytest.raises(ValueError, match="entry rows do not match row labels"):
        LiftingMatrix(rows=("a", "b"), cols=("x",), entries=((1,),))
    with pytest.raises(ValueError, match="entry columns do not match column labels"):
        LiftingMatrix(rows=("a", "b"), cols=("x", "y"), entries=((1, 0), (1,)))


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


# the charts' matrices written out, which the chain's derived ones must equal
LIFT_TWO = LiftingMatrix(rows=("C12[R12]", "fiber[omega]"), cols=("rho12",), entries=((1,), (1,)))
LIFT_THREE = LiftingMatrix(
    rows=("C123[R123]", "C12[R12]", "fiber[omega]"),
    cols=("rho123", "rho12"),
    entries=((1, 0), (0, 1), (0, 1)),
)


def test_derived_lifting_matrices_equal_the_written_ones():
    assert pullback_report("two", samples=1).lifting == LIFT_TWO
    assert pullback_report("three-corner", samples=1).lifting == LIFT_THREE
    # depth 3: one face per cluster, the fiber face on the pair's column
    deep = charts._lifting(3)
    assert deep.rows == ("C1234[R1234]", "C123[R123]", "C12[R12]", "fiber[omega]")
    assert deep.cols == ("rho1234", "rho123", "rho12")
    assert deep.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1))
    assert deep.row_condition_ok


def test_pullback_factors_follow_the_lifting_matrix(monkeypatch):
    # a wrong exponent must show in the factors: R12^2 leaves a factor ~ 1/R12
    wrong = LiftingMatrix(
        rows=("C123[R123]", "C12[R12]", "fiber[omega]"),
        cols=("rho123", "rho12"),
        entries=((1, 0), (0, 2), (0, 1)),
    )
    monkeypatch.setattr(charts, "_lifting", lambda depth: wrong)
    rep = pullback_report("three-corner", samples=4000, region=0.3, seed=101)
    assert rep.lifting is wrong
    assert rep.factors["rho12"][1] > 1e3


def test_one_schedule_serves_every_depth(monkeypatch):
    # a depth-3 alias, the chain {1,2} ⊂ {1,2,3} ⊂ {1,2,3,4}, sampled like the named charts
    monkeypatch.setitem(charts._CHARTS, "four-corner", 3)
    rep = pullback_report("four-corner", samples=10_000, region=0.3, seed=20240)
    assert rep.lifting.rows == ("C1234[R1234]", "C123[R123]", "C12[R12]", "fiber[omega]")
    assert rep.lifting.row_condition_ok and rep.positivity_ok
    assert rep.roundtrip_max_err < 1e-12
    # each outer cluster's factor is sqrt(1 - a^2) with a <= region, as in acceptance 2
    for face in ("rho1234", "rho123"):
        lo, hi = rep.factors[face]
        assert 0.95394 - 1e-9 <= lo and hi <= 1.0
    lo, hi = rep.factors["rho12"]
    assert 2 / math.pi - 1e-12 <= lo and hi <= 1.0 + 1e-12


def off_by_one(chart, lifting):
    """(chart, entries, face, side) for each exponent of a chart's matrix moved by one."""
    for i, j in itertools.product(range(len(lifting.rows)), range(len(lifting.cols))):
        for step, side in ((-1, "below 0.001"), (1, "above 1000")):
            entries = [list(row) for row in lifting.entries]
            entries[i][j] += step
            if entries[i][j] >= 0:
                entries = tuple(map(tuple, entries))
                yield pytest.param(chart, entries, lifting.cols[j], side, id=f"{chart}-{entries}")


@pytest.mark.parametrize(
    "chart, entries, face, side",
    [*off_by_one("two", LIFT_TWO), *off_by_one("three-corner", LIFT_THREE)],
)
def test_pullback_flags_a_wrong_exponent(chart, entries, face, side, monkeypatch):
    # one exponent too many leaves a factor ~ 1/bdf, one too few ~ bdf
    derived = charts._lifting

    def wrong(depth):
        lifting = derived(depth)
        return LiftingMatrix(lifting.rows, lifting.cols, entries)

    monkeypatch.setattr(charts, "_lifting", wrong)
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


def random_points(rng, n):
    """n interior points of each chart, as one array point per chart."""
    zeta = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    R12 = rng.uniform(0.05, 1.0, n)
    omega = rng.uniform(0.05, math.pi / 2 - 0.05, n)
    phi, theta = rng.uniform(-7, 7, n), rng.uniform(-7, 7, n)
    two = ChartPoint(zeta, (R12,), omega, theta, phi)
    radii = (rng.uniform(0.1, 1.0, n), rng.uniform(0.05, 0.9, n))
    omega12 = rng.uniform(0.05, math.pi / 2 - 0.05, n)
    phi12, theta12, phi2 = (rng.uniform(-7, 7, n) for _ in range(3))
    three = ChartPoint(zeta, radii, omega12, theta12, phi12, (phi2,))
    return {"two": two, "three-corner": three}


def coordinates(p):
    """A chart point's coordinates, as one flat list."""
    return [p.zeta, *p.radii, p.omega, p.theta, p.phi, *p.phases]


def entry(p, i):
    """The i-th entry of an array chart point, as a scalar chart point."""
    radii, phases = tuple(R[i] for R in p.radii), tuple(t[i] for t in p.phases)
    return ChartPoint(p.zeta[i], radii, p.omega[i], p.theta[i], p.phi[i], phases)


def assert_entrywise(arrays, scalars):
    for k, a in enumerate(arrays):
        np.testing.assert_allclose(a, [s[k] for s in scalars], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("chart", ["two", "three-corner"])
def test_chart_maps_on_arrays_match_scalar_calls(chart):
    p = random_points(np.random.default_rng(17), 64)[chart]
    n = p.zeta.size
    pts = blowdown(p)
    assert all(np.shape(z) == (n,) for z in pts)
    assert_entrywise(pts, [blowdown(entry(p, i)) for i in range(n)])
    q = chart_from_points(*pts)
    assert_entrywise(coordinates(q), [coordinates(chart_from_points(*(z[i] for z in pts))) for i in range(n)])


@pytest.mark.parametrize(
    "coordinates",
    [
        dict(radii=(math.nan,)),
        dict(radii=(math.inf,)),
        dict(radii=(0.5, math.nan), phases=(0.0,)),
        dict(radii=(np.array([0.1, math.nan]),)),
        dict(radii=(0.5,), theta=math.nan),
        dict(radii=(0.5,), phi=-math.inf),
        dict(radii=(0.5, 0.5), phases=(math.inf,)),
        dict(zeta=complex(0.0, math.nan), radii=(0.5,)),
    ],
    ids=["nan-radius", "inf-radius", "nan-inner-radius", "nan-radius-entry", "nan-theta", "inf-phi", "inf-phase", "nan-zeta"],
)
def test_chart_point_refuses_non_finite_coordinates(coordinates):
    with pytest.raises(ValueError, match="finite"):
        ChartPoint(**coordinates)


@pytest.mark.parametrize("omega", [-0.1, math.pi / 2 + 1e-9, np.array([0.3, 2.0])], ids=["below", "above", "array-entry"])
def test_chart_point_refuses_omega_outside_the_quarter_turn(omega):
    with pytest.raises(ValueError, match=r"omega must lie in \[0, pi/2\]"):
        ChartPoint(radii=(0.5,), omega=omega)


def test_chart_maps_on_arrays_reject_any_bad_entry():
    points = random_points(np.random.default_rng(19), 8)
    z1, z2, z = blowdown(points["two"])
    z1[3] = z2[3] = z[3] = 0.5 + 0.5j
    with pytest.raises(DegenerateChartError):
        chart_from_points(z1, z2, z)
    w1, w2, w3, w = blowdown(points["three-corner"])
    w1[5] = w2[5] = w3[5] = 0.1j
    with pytest.raises(DegenerateChartError):
        chart_from_points(w1, w2, w3, w)
    bad = np.array([0.1, 0.2, -1e-12])
    with pytest.raises(ValueError):
        ChartPoint(radii=(bad,))
    with pytest.raises(ValueError):
        ChartPoint(radii=(bad, 0.0), phases=(0.0,))
    with pytest.raises(ValueError):
        ChartPoint(radii=(0.5, bad), phases=(0.0,))


def reference_pullback(chart, samples, region, seed):
    """The per-sample sampling loop, with scalar draws and math/cmath maps.

    Returns the factor ranges and the generator after the draws of the
    round-trip points, which follow the factor samples in the stream.
    """
    rng = np.random.default_rng(seed)
    top = math.pi / 2 - OMEGA_MARGIN
    factors = {}
    # the radii, outermost first, then omega; a factor sample draws no angle
    theta12 = phi2 = 0.0
    for _ in range(samples):
        if chart == "two":
            R12 = rng.uniform(1e-6, region)
            omega = rng.uniform(1e-9, top)
            factors.setdefault("rho12", []).append(R12 * math.sin(omega) / (R12 * omega))
            continue
        R123 = rng.uniform(1e-6, 1.0)
        R12 = rng.uniform(1e-6, region)
        omega = rng.uniform(1e-9, top)
        a, b = R12 * math.cos(omega), R12 * math.sin(omega)
        outer = math.sqrt(max(0.0, 1.0 - a * a))
        w = R123 * outer * b * cmath.exp(1j * theta12)
        z1, z2 = 0j + w, 0j - w
        z3 = 0j + R123 * outer * math.sqrt(max(0.0, 1.0 - b * b)) * cmath.exp(1j * phi2)
        # base coordinates, recomputed from the points
        w1 = 0.5 * (z1 - z2)
        w2 = z3 - 0.5 * (z1 + z2)
        rho123 = math.hypot(abs(w1), abs(w2))
        factors.setdefault("rho123", []).append(rho123 / R123)
        factors.setdefault("rho12", []).append(abs(w1) / rho123 / (R12 * omega))
    # round-trip points: zeta, then the radii, omega, phi, theta and the phases (4 or 6 coordinates)
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
