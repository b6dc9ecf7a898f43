"""Acceptance suite: every criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.  Tolerances and runtime budgets are pinned here, not computed.
"""

import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conic_moduli.charts import pullback_report
from conic_moduli.cones import ConeData, MergeStatus, classify_merges
from conic_moduli.extrapolate import neville_zero
from conic_moduli.flat import FlatConicMetric, cone_angle_probe, corner_expansion_2pt, green_factor
from conic_moduli.lattice import enumerate_fmax_strata
from conic_moduli.phg import fit_exponents, u0_value
from conic_moduli.solver import (
    FiberMesh,
    assemble,
    decay_check,
    eigen_gap,
    football_density,
    merging_pair_residual_family,
    picard_solve,
    round_sphere_density,
    spherical_cone_solve,
)

from oracles import radial_hyperbolic, trig_value


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS -- {text}")


# -- 1. stratum enumeration vs brute force ------------------------------------------


def _brute_force_families(k: int) -> set[frozenset]:
    ground = frozenset(range(1, k + 1))
    cands = [
        frozenset(c)
        for size in range(2, k)
        for c in itertools.combinations(range(1, k + 1), size)
    ]

    def ok(a, b):
        return a <= b or b <= a or not (a & b)

    out = []

    def dfs(i, fam):
        if i == len(cands):
            out.append(frozenset(fam) | {ground})
            return
        dfs(i + 1, fam)
        if all(ok(cands[i], f) for f in fam):
            fam.append(cands[i])
            dfs(i + 1, fam)
            fam.pop()

    dfs(0, [])
    return set(out)


def test_acceptance_1_stratum_enumeration():
    t0 = time.perf_counter()
    expected_counts = {2: 1, 3: 4, 4: 26, 5: 236}  # k=5 recorded from the oracle
    for k in (2, 3, 4, 5):
        trees = enumerate_fmax_strata(k)
        assert len(trees) == expected_counts[k]
        ours = {frozenset(frozenset(v.members) for v in t.vertices) for t in trees}
        assert ours == _brute_force_families(k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"strata k=2..5 = (1, 4, 26, 236) match brute force [{elapsed:.2f}s < 1s]")


# -- 2. b-fibration verification ------------------------------------------------------


def test_acceptance_2_bfibration_verification():
    t0 = time.perf_counter()
    two = pullback_report("two", samples=10_000, region=0.3, seed=20240)
    corner = pullback_report("three-corner", samples=10_000, region=0.3, seed=20240)
    assert two.roundtrip_max_err < 1e-12
    assert corner.roundtrip_max_err < 1e-12
    assert two.lifting.row_condition_ok and corner.lifting.row_condition_ok
    lo, hi = corner.factors["rho123"]
    assert lo >= 0.95394 - 1e-9
    assert hi <= 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        2,
        f"roundtrip {max(two.roundtrip_max_err, corner.roundtrip_max_err):.1e} < 1e-12, "
        f"rows ok, A in [{lo:.6f}, {hi:.6f}] [{elapsed:.2f}s < 5s]",
    )


# -- 3. merge classification ------------------------------------------------------------


def test_acceptance_3_classification():
    t0 = time.perf_counter()
    d = ConeData.of(0, ["1/2", "2/3", "2/3", "5/6"], 1)
    verdicts = classify_merges(d)
    singles = {v.subset.members: v for v in verdicts if v.partner is None}
    partitions = {(v.subset.members, v.partner.members): v for v in verdicts if v.partner is not None}
    assert singles[(1, 4)].status is MergeStatus.TROYANOV_VIOLATED and singles[(1, 4)].at_equality
    assert singles[(2, 3)].status is MergeStatus.TROYANOV_VIOLATED and singles[(2, 3)].at_equality
    assert partitions[((1, 4), (2, 3))].status is MergeStatus.FOOTBALL_BOUNDARY
    assert singles[(2, 4)].status is MergeStatus.ADMISSIBLE
    # every Troyanov sphere triple admits no merge at all; those with chi(M, beta) <= 0
    # admit no positive area either, and classification refuses them
    denoms = (F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(5, 6), F(9, 10))
    checked = refused = 0
    for triple in itertools.combinations_with_replacement(denoms, 3):
        if not 2 * min(triple) + 1 > sum(triple):  # Troyanov's inequalities for three cones
            continue
        data = ConeData.of(0, triple, 1)
        checked += 1
        if data.chi_beta <= 0:
            refused += 1
            with pytest.raises(ValueError, match="Gauss-Bonnet"):
                classify_merges(data)
            continue
        assert all(v.status is not MergeStatus.ADMISSIBLE for v in classify_merges(data))
        assert all(v.status is not MergeStatus.FOOTBALL_BOUNDARY for v in classify_merges(data))
    assert checked == 76 and 0 < refused < checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        3,
        f"verdict table exact; {checked} Troyanov triples admit no merge, {refused} refused by Gauss-Bonnet "
        f"[{elapsed:.2f}s < 1s]",
    )


# -- 4. one-cone hyperbolic series --------------------------------------------------------


def test_acceptance_4_one_cone_series():
    t0 = time.perf_counter()
    prof = radial_hyperbolic(0.7, 0.5, 201)
    exact = np.array([u0_value(x) for x in prof.rfrak])
    max_err = float(np.max(np.abs(prof.u0 - exact)))
    assert max_err < 1e-10

    # recover the first two series coefficients from the ODE output alone
    xs = [0.20, 0.15, 0.10, 0.05]
    vals = {x: prof.u0[int(round(x / 0.5 * 200))] for x in xs}
    a1 = neville_zero([x * x for x in xs], [vals[x] / x**2 for x in xs])
    assert abs(a1 - 0.25) < 1e-8
    a2 = neville_zero([x * x for x in xs], [(vals[x] - a1 * x**2) / x**4 for x in xs])
    assert abs(a2 - 1.0 / 32.0) < 1e-6

    # exponent fitting on u0(r) with beta = 0.7
    beta = 0.7
    rho = [0.2 / 2**i for i in range(7)]
    fit = fit_exponents([(r, u0_value(r**beta / beta)) for r in rho], count=1)
    assert fit.ok
    assert abs(fit.terms[0].alpha - 2 * beta) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        4,
        f"ODE matches -log(1-r^2/4) to {max_err:.1e}; a1={a1:.10f}, a2={a2:.8f}; "
        f"fitted exponent {fit.terms[0].alpha:.4f} [{elapsed:.2f}s < 5s]",
    )


# -- 5. flat corner expansion ----------------------------------------------------------------


def _fd_taylor(f, n, base_h=0.3, levels=5):
    def dn(h):
        if n == 1:
            return (f(h) - f(-h)) / (2 * h)
        if n == 2:
            return (f(h) - 2 * f(0.0) + f(-h)) / h**2
        if n == 3:
            return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
        return (f(2 * h) - 4 * f(h) + 6 * f(0.0) - 4 * f(-h) + f(-2 * h)) / h**4

    hs = [base_h / 2**i for i in range(levels)]
    return neville_zero([h * h for h in hs], [dn(h) for h in hs]) / math.factorial(n)


def test_acceptance_5_corner_expansion():
    t0 = time.perf_counter()
    import cmath

    worst = 0.0
    for b1, b2 in ((F(1, 3), F(3, 4)), (F(1, 2), F(5, 6))):
        terms = dict(corner_expansion_2pt(b1, b2, 4).terms)
        theta = 0.35
        for phi in (0.0, 1.3, 2.4):
            z = cmath.exp(1j * phi)

            def g(s, _z=z, _b1=b1, _b2=b2):
                if s == 0.0:
                    return 0.0
                w = s * cmath.exp(1j * theta)
                return green_factor(FlatConicMetric.of([w, -w], [_b1, _b2]), _z)

            for n in range(1, 5):
                fd = _fd_taylor(g, n)
                sym = trig_value(terms[n], theta - phi)
                worst = max(worst, abs(fd - sym))
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    report(5, f"orders s^1..s^4 match finite differences to {worst:.1e} < 1e-8 [{elapsed:.2f}s]")


# -- 6. cone-angle probe ------------------------------------------------------------------------


def test_acceptance_6_cone_angle_probe():
    t0 = time.perf_counter()
    import cmath

    pts = [cmath.exp(2j * math.pi * j / 3) for j in range(3)]
    metric = FlatConicMetric.of(pts, [F(1, 3)] * 3)
    radii = [10 ** (-2 - 0.5 * i) for i in range(5)]
    errs = []
    for idx in range(3):
        rep = cone_angle_probe(metric, idx, radii)
        errs.append(abs(rep.extrapolated - 1.0 / 3.0))
    assert max(errs) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"all three angle ratios within {max(errs):.1e} < 1e-6 of 1/3 [{elapsed:.2f}s < 10s]")


# -- 7. maximum-principle solver -------------------------------------------------------------------


def test_acceptance_7_maximum_principle_solver():
    t0 = time.perf_counter()
    eps = 0.05

    def manufactured(mesh):
        op = assemble(mesh, 1.0)
        r, phi = mesh.grids()
        vstar = eps * r * np.cos(phi)
        f = np.exp(2 * vstar) - 1.0
        bc = {"inner": vstar[0, :], "outer": vstar[-1, :]}
        rep = picard_solve(op, f, tol=1e-11, maxit=100, boundary=bc)
        assert rep.bound_ok
        return float(np.max(np.abs(rep.solution - vstar)))

    mesh = FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet")
    e1 = manufactured(mesh)
    e2 = manufactured(mesh.refine())
    ratio = e1 / e2
    assert 4 * 0.8 <= ratio <= 4 * 1.2

    op = assemble(mesh, 1.0)
    zero = picard_solve(op, np.zeros((mesh.nt, mesh.nphi)))
    assert np.max(np.abs(zero.solution)) == 0.0 and zero.bound_ok

    # the sup bound holds on every emitted report
    rng = np.random.default_rng(17)
    for _ in range(3):
        r, phi = mesh.grids()
        f = 1e-3 * np.cos(phi) * rng.uniform(0.5, 1.0) * np.ones((mesh.nt, mesh.nphi))
        rep = picard_solve(op, f, tol=1e-12)
        assert rep.bound_ok
        assert rep.sup_solution <= 0.5 * rep.sup_rhs + 1e-12
    elapsed = time.perf_counter() - t0
    report(7, f"mesh-halving ratio {ratio:.2f} in 4 +/- 20%; f=0 -> v=0; sup bound holds [{elapsed:.2f}s]")


# -- 8. spectral gaps ----------------------------------------------------------------------------------


def test_acceptance_8_spectral_gaps():
    t0 = time.perf_counter()
    round_gaps = []
    for L, nt, P in ((5.0, 97, 16), (6.0, 161, 24), (7.0, 257, 32)):
        mesh = FiberMesh(math.exp(-L), math.exp(L), nt, P, inner="pole", outer="pole")
        round_gaps.append(eigen_gap(assemble(mesh, round_sphere_density)))
    assert abs(round_gaps[-1] - 2.0) / 2.0 < 0.01
    assert abs(round_gaps[-1] - 2.0) < abs(round_gaps[0] - 2.0)

    football_gaps = {}
    for beta in (0.5, 1.0 / 3.0):
        gaps = []
        for L, nt, P in ((8.0, 129, 16), (10.0, 257, 24)):
            mesh = FiberMesh(math.exp(-L), math.exp(L), nt, P, inner="pole", outer="pole")
            gaps.append(eigen_gap(assemble(mesh, football_density(beta))))
        assert abs(gaps[-1] - 2.0) / 2.0 < 0.01
        assert abs(gaps[-1] - 2.0) < abs(gaps[0] - 2.0)
        football_gaps[beta] = gaps[-1]

    cone_gaps = []
    for L, nt, P in ((6.0, 129, 24), (7.0, 193, 32), (8.0, 257, 40)):
        mesh = FiberMesh(math.exp(-L), math.exp(L), nt, P, inner="pole", outer="pole")
        rep = spherical_cone_solve([2.0 / 3.0] * 3, [0j, 1.0 + 0j], mesh)
        cone_gaps.append(rep.gap)
    assert all(g > 2.0 for g in cone_gaps)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        8,
        f"round {round_gaps[-1]:.4f}, footballs {football_gaps[0.5]:.4f}/{football_gaps[1/3]:.4f} "
        f"within 1% of 2; 3-cone gaps {', '.join(f'{g:.4f}' for g in cone_gaps)} all > 2 "
        f"[{elapsed:.1f}s < 60s]",
    )


# -- 9. decay / conormality ------------------------------------------------------------------------------


def test_acceptance_9_decay_conormality():
    t0 = time.perf_counter()
    fam = merging_pair_residual_family(0.9, 0.6, (0.1, 0.05, 0.025))
    slopes = {}
    for n in (1, 2):
        rep = decay_check(fam.families[n], n)
        assert rep.passes, f"order {n} slope {rep.value_slope:.3f} < {n - 0.1}"
        assert rep.value_slope >= n - 0.1
        slopes[n] = rep.value_slope
    assert slopes[2] >= slopes[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        9,
        f"curvature-residual slopes N=1: {slopes[1]:.3f} >= 0.9, N=2: {slopes[2]:.3f} >= 1.9, "
        f"non-decreasing [{elapsed:.1f}s < 120s]",
    )
