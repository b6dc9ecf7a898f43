import cmath
import functools
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conic_moduli import cli, solver
from conic_moduli.phg import u0_truncated, u0_value
from conic_moduli.solver import (
    ConicLaplacianOp,
    DivergenceError,
    FiberMesh,
    FootballDegeneracyError,
    assemble,
    decay_check,
    eigen_gap,
    football_density,
    hyperbolic_correction_solve,
    merging_pair_residual_family,
    newton_solve_spherical,
    picard_solve,
    round_sphere_density,
    singular_sphere_background,
    spherical_cone_solve,
)

from oracles import radial_hyperbolic, spherical_existence_gate


def annulus(nt=64, nphi=32, r0=0.05, r1=1.0):
    return FiberMesh(r0, r1, nt, nphi, inner="dirichlet", outer="dirichlet")


def weak_laplacian_grid(op, u):
    """Nonnegative Laplacian of a grid field, Dirichlet rings taken from the field."""
    return op.dof_to_grid(op.weak_form(u) / op.W)


def bumpy_density(r, phi):
    return 1.0 + 0.3 * np.cos(phi) + r


RING_KINDS = [("pole", "pole"), ("pole", "dirichlet"), ("dirichlet", "dirichlet")]
FIVE_CONES = (
    [0.7, 0.75, 0.8, 0.85, 0.9],
    [0j, 1 + 0j, cmath.exp(2j * math.pi / 3), cmath.exp(4j * math.pi / 3)],
)


# -- assembly -------------------------------------------------------------------


def test_mesh_validation():
    with pytest.raises(ValueError):
        FiberMesh(0.5, 0.1, 32, 16)
    with pytest.raises(ValueError):
        FiberMesh(0.1, 1.0, 4, 16)
    with pytest.raises(ValueError):
        FiberMesh(0.1, 1.0, 32, 15)
    with pytest.raises(ValueError):
        FiberMesh(0.1, 1.0, 32, 16, inner="robin")
    # an infinite r_max used to give ht = inf, a fractional nt a TypeError in mesh.t
    for args in ((1e-3, math.inf, 16, 8), (math.nan, 1.0, 16, 8), (1e-3, math.nan, 16, 8)):
        with pytest.raises(ValueError, match="finite radii"):
            FiberMesh(*args)
    for args in ((1e-3, 1.0, 16.5, 8), (1e-3, 1.0, 16, 8.0)):
        with pytest.raises(ValueError, match="must be integers"):
            FiberMesh(*args)


def test_assemble_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        assemble(annulus(), 0.0)


def dof_map(op):
    """Node -> dof, node by node: a collapsed ring is one dof, an interior ring nphi, a Dirichlet ring -1."""
    mesh = op.mesh
    dof_of, d = np.full((mesh.nt, mesh.nphi), -1), 0
    for i in range(mesh.nt):
        kind = mesh.inner if i == 0 else mesh.outer if i == mesh.nt - 1 else "interior"
        if kind == "pole":
            dof_of[i], d = d, d + 1
        elif kind == "interior":
            dof_of[i], d = d + np.arange(mesh.nphi), d + mesh.nphi
    assert d == op.ndof
    return dof_of


def loop_assembly(op):
    """Reference (A, B): the per-edge loop the vectorized assembly replaced; B couples dofs to Dirichlet nodes."""
    mesh = op.mesh
    nt, P = mesh.nt, mesh.nphi
    dof_of = dof_map(op)
    ent_a, ent_b = [], []

    def edge(n1, n2, w):
        a, b = dof_of[n1], dof_of[n2]
        if a == b and a >= 0:
            return
        for x, y, ny in ((a, b, n2), (b, a, n1)):
            if x >= 0:
                ent_a.append((x, x, w))
                if y >= 0:
                    ent_a.append((x, y, -w))
                else:
                    ent_b.append((x, ny[0] * P + ny[1], -w))

    for i in range(nt - 1):
        for j in range(P):
            edge((i, j), (i + 1, j), mesh.hp / mesh.ht)
    for i in range(nt):
        for j in range(P):
            edge((i, j), (i, (j + 1) % P), mesh.ht / mesh.hp)

    def csr(entries, ncols):
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        return sp.csr_matrix((vals, (rows, cols)), shape=(op.ndof, ncols))

    return csr(ent_a, op.ndof), csr(ent_b, nt * P)


# at nphi = 16 a pole's diagonal, wr summed 16 times in turn, is not 16 * wr
# (nor a pairwise sum); at nphi = 8 the two agree
@pytest.mark.parametrize(
    "inner,outer,nphi",
    [pytest.param(i, o, 8, id=f"{i}-{o}") for i, o in RING_KINDS + [("dirichlet", "pole")]]
    + [pytest.param(i, o, 16, id=f"{i}-{o}-16") for i, o in RING_KINDS + [("dirichlet", "pole")]],
)
def test_assembly_matches_edge_loop(inner, outer, nphi):
    op = assemble(FiberMesh(0.05, 1.0, 17, nphi, inner, outer), bumpy_density)
    A_loop, B_loop = loop_assembly(op)
    for part in ("data", "indices", "indptr"):
        got, want = getattr(op.A, part), getattr(A_loop, part)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the weak form is the loop's A x + B g bit for bit, for x the field's dof values
    # (a collapsed ring read at its last node) and g nonzero on the Dirichlet rings
    dof_of = dof_map(op)
    g = np.random.default_rng(13).standard_normal((17, nphi)) * 10.0 ** np.arange(-3, 4)[np.arange(17) % 7, None]
    x = np.zeros(op.ndof)
    x[dof_of[dof_of >= 0]] = g[dof_of >= 0]
    assert op.weak_form(g).tobytes() == (A_loop @ x + B_loop @ g.ravel()).tobytes()


@pytest.mark.parametrize("inner,outer", RING_KINDS)
def test_assembly_peak_memory_is_a_few_operators(inner, outer):
    # the per-edge COO assembly traced 10.6 times A's bytes here
    mesh = FiberMesh(0.05, 1.0, 257, 64, inner, outer)
    tracemalloc.start()
    try:
        op = assemble(mesh, bumpy_density)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (op.A.data.nbytes + op.A.indices.nbytes + op.A.indptr.nbytes)


@pytest.mark.parametrize("inner,outer", RING_KINDS)
def test_coupling_reads_only_dirichlet_ring_values(inner, outer):
    # a unit value on one node: the weak form is A's action on its dof values plus
    # the edge loop's coupling column, which is nonzero exactly on Dirichlet nodes
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner, outer), bumpy_density)
    _, B_loop = loop_assembly(op)
    for node, d in enumerate(dof_map(op).ravel()):
        unit = np.zeros((17, 8))
        unit.flat[node] = 1.0
        coupling = B_loop[:, [node]].toarray().ravel()
        assert np.array_equal(op.weak_form(unit), op.A @ op.grid_to_dof(unit) + coupling)
        assert np.any(coupling) == (d < 0)


@pytest.mark.parametrize("inner,outer", RING_KINDS)
def test_mass_is_per_dof_sum_of_cell_mass(inner, outer):
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner, outer), bumpy_density)
    ref = np.zeros(op.ndof)
    for (i, j), d in np.ndenumerate(dof_map(op)):
        if d >= 0:
            ref[d] += op.cell_mass[i, j]
    assert np.array_equal(op.W, ref)  # a pole dof holds its whole ring


@pytest.mark.parametrize("inner,outer", RING_KINDS + [("dirichlet", "pole")])
def test_transfers_match_the_dof_map_bit_for_bit(inner, outer):
    # references from the dof map alone: a mask gather (a repeated index keeps its last
    # node), a mask scatter and a per-dof sum in ring order; at nphi = 16 the
    # pole's sum in turn differs from a pairwise one
    op = assemble(FiberMesh(0.05, 1.0, 17, 16, inner, outer), bumpy_density)
    rng = np.random.default_rng(11)
    field = rng.standard_normal((17, 16)) * 10.0 ** rng.uniform(-3, 3, (17, 16))
    x = rng.standard_normal(op.ndof)
    dof_of = dof_map(op)
    mask = dof_of >= 0
    gathered, scattered, summed = np.zeros(op.ndof), np.zeros((17, 16)), np.zeros(op.ndof)
    gathered[dof_of[mask]] = field[mask]
    scattered[mask] = x[dof_of[mask]]
    for (i, j), d in np.ndenumerate(dof_of):
        if d >= 0:
            summed[d] += field[i, j]
    assert np.array_equal(op.grid_to_dof(field), gathered)
    assert np.array_equal(op.dof_to_grid(x), scattered)
    assert np.array_equal(op.ring_sum(field), summed)


def test_fourier_solve_transient_is_a_few_right_hand_sides():
    # the concatenated and transposed right-hand sides traced 6.0 times b's bytes here
    op = assemble(FiberMesh(1e-3, 0.7, 1025, 128), 1.0)
    factor = op.shifted(2.0)
    b = np.cos(np.arange(op.ndof))
    tracemalloc.start()
    try:
        factor.solve(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * b.nbytes


def test_shifted_factorization_matches_dense_solve():
    op = assemble(FiberMesh(0.05, 1.0, 12, 8, inner="pole", outer="dirichlet"), bumpy_density)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(op.ndof)
    for shift in (2.0, 1.0 + rng.random(op.ndof)):
        dense = np.linalg.solve(op.A.toarray() + np.diag(shift * op.W), b)
        got = op.shifted(shift).solve(b)
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))


def radial_density(r, phi):
    return 1.0 + r + 0.0 * phi


def spied_routines(monkeypatch, names):
    """The names of the LAPACK routines in ``names`` that ``solver`` calls, in call order."""
    calls = []

    def spy(name, routine):
        def called(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)

        return called

    for name in names:
        monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
    return calls


@pytest.fixture
def band_routines(monkeypatch):
    return spied_routines(monkeypatch, ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"))


@pytest.fixture
def tridiagonal_routines(monkeypatch):
    return spied_routines(monkeypatch, ("dpttrf", "dpttrs"))


@pytest.mark.parametrize("inner,outer", RING_KINDS + [("dirichlet", "pole")])
@pytest.mark.parametrize("shift", [2.0, 1e-3, -0.7, "per-ring"])
def test_fourier_factor_matches_superlu(inner, outer, shift, tridiagonal_routines, band_routines):
    # a ring-constant shift is factored by the Fourier LDL^T exactly when it is
    # positive on every dof; any other (-0.7, and the per-ring shift, which is 0
    # on a collapsed ring at r = 1) by the band LU, with pivoting
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner, outer), radial_density)
    if shift == "per-ring":  # a ring-constant per-dof array
        shift = op.grid_to_dof(np.broadcast_to(1.0 - op.mesh.r[:, None], op.density.shape))
    positive = np.all(shift * op.W > 0)
    factor = op.shifted(shift)
    assert isinstance(factor, solver._FourierFactor if positive else solver._BandFactor)
    reference = spla.splu((op.A + sp.diags(shift * op.W)).tocsc())
    rng = np.random.default_rng(5)
    for b in (rng.standard_normal(op.ndof), rng.standard_normal((op.ndof, 2))):
        got, want = factor.solve(b), reference.solve(b)
        assert got.shape == b.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    calls = ["dpttrf", "dpttrs", "dpttrs"] if positive else ["dgbtrf", "dgbtrs", "dgbtrs"]
    assert tridiagonal_routines + band_routines == calls


@pytest.mark.parametrize("nphi, kind", [(8, solver._BandFactor), (64, solver._BandFactor), (66, spla.SuperLU)])
def test_shifted_dispatches_on_ring_constancy_and_ring_width(nphi, kind, band_routines):
    # a density or a shift that varies along a ring, and a shift that is not
    # positive on every dof, has no Fourier factor; it is a band on rings of at
    # most _BAND_MAX_NPHI nodes, Cholesky's for a positive shift and LU's
    # otherwise, and SuperLU's past them
    band = kind is solver._BandFactor
    bumpy = assemble(FiberMesh(0.05, 1.0, 17, nphi), bumpy_density)
    assert isinstance(bumpy.shifted(2.0), kind)
    assert isinstance(bumpy.shifted(-0.7), kind)
    assert band_routines == (["dpbtrf", "dgbtrf"] if band else [])
    band_routines.clear()
    op = assemble(FiberMesh(0.05, 1.0, 17, nphi, outer="pole"), radial_density)
    waves = np.cos(np.broadcast_to(op.mesh.phi, op.density.shape))
    assert isinstance(op.shifted(op.grid_to_dof(2.0 + waves)), kind)
    assert isinstance(op.shifted(op.grid_to_dof(waves)), kind)  # indefinite
    # ring-constant and indefinite: -0.7, and a per-ring shift that is 0 on the collapsed ring at r = 1
    assert isinstance(op.shifted(-0.7), kind)
    assert isinstance(op.shifted(op.grid_to_dof(np.broadcast_to(1.0 - op.mesh.r[:, None], op.density.shape))), kind)
    assert band_routines == (["dpbtrf", "dgbtrf", "dgbtrf", "dgbtrf"] if band else [])
    assert isinstance(op.shifted(2.0), solver._FourierFactor)


@pytest.mark.parametrize("inner,outer", RING_KINDS + [("dirichlet", "pole")])
@pytest.mark.parametrize("shift", [2.0, 1e-3, -0.7, "indefinite"])
def test_band_factor_matches_dense_solve(inner, outer, shift, band_routines):
    # a positive shift is factored by Cholesky, any other by LU with pivoting
    factored, solved = ("dpbtrf", "dpbtrs") if shift in (2.0, 1e-3) else ("dgbtrf", "dgbtrs")
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner, outer), bumpy_density)
    rng = np.random.default_rng(7)
    if shift == "indefinite":  # a per-dof shift of both signs
        shift = rng.uniform(-2.0, 2.0, op.ndof)
    factor = op.shifted(shift)
    assert isinstance(factor, solver._BandFactor)
    dense = op.A.toarray() + np.diag(shift * op.W)
    for b in (rng.standard_normal(op.ndof), rng.standard_normal((op.ndof, 2))):
        got, want = factor.solve(b), np.linalg.solve(dense, b)
        assert got.shape == b.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert band_routines == [factored, solved, solved]


def test_fourier_factor_raises_on_an_exactly_singular_factor(monkeypatch):
    # LAPACK's info > 0, a nonpositive pivot of LDL^T, is SuperLU's RuntimeError
    calls = []

    def nonpositive_pivot(d, e, overwrite_d=0, overwrite_e=0):
        calls.append("dpttrf")
        return d, e, 3

    monkeypatch.setattr(solver, "dpttrf", nonpositive_pivot)
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner="pole", outer="pole"), 1.0)
    with pytest.raises(RuntimeError):
        op.shifted(2.0)
    assert calls == ["dpttrf"]


def test_band_factor_raises_on_an_exactly_singular_factor(monkeypatch):
    # LAPACK's info > 0, a zero pivot of the LU or a nonpositive one of Cholesky
    def zero_pivot(ab, kl, ku, overwrite_ab=0):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 3

    def nonpositive_pivot(ab, overwrite_ab=0):
        return ab, 3

    monkeypatch.setattr(solver, "dgbtrf", zero_pivot)
    monkeypatch.setattr(solver, "dpbtrf", nonpositive_pivot)
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner="pole", outer="pole"), bumpy_density)
    for shift in (-0.7, 2.0):
        with pytest.raises(RuntimeError):
            op.shifted(shift)


@pytest.mark.parametrize("pages", ["populated", "faulted"])
def test_band_factors_alive_together_keep_their_own_bands(pages, monkeypatch):
    # each factor owns its band: factors alive together, one built after a drop
    # while an older factor lives, and one built after all were dropped, with
    # the LU and the Cholesky band in either order.  A band may land in pages a
    # dropped band left populated with its values (here NaN in every fresh float
    # array) or in freshly faulted zero pages; neither shows
    empty, stale = np.empty, np.nan if pages == "populated" else 0.0

    def allocated(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(stale)
        return out

    monkeypatch.setattr(np, "empty", allocated)
    op = assemble(FiberMesh(0.05, 1.0, 17, 8, inner="pole", outer="pole"), bumpy_density)
    rng = np.random.default_rng(11)
    draw = {  # indefinite shifts get LU with differing pivots, positive ones Cholesky
        "LU": lambda: rng.uniform(-2.0, 2.0, op.ndof),
        "Cholesky": lambda: rng.uniform(0.5, 2.0, op.ndof),
    }
    b = rng.standard_normal(op.ndof)

    def check(factor, shift):
        assert isinstance(factor, solver._BandFactor)
        # (nphi + 1) rows of the upper band for Cholesky, (3 nphi + 1) for LU
        assert factor.band.shape == ((9 if np.all(shift > 0) else 25), op.ndof)
        want = np.linalg.solve(op.A.toarray() + np.diag(shift * op.W), b)
        assert np.max(np.abs(factor.solve(b) - want)) <= 1e-10 * np.max(np.abs(want))

    for kinds in (("LU", "Cholesky"), ("Cholesky", "LU")):
        shifts = [draw[kinds[k % 2]]() for k in range(4)]
        first, second = op.shifted(shifts[0]), op.shifted(shifts[1])
        check(first, shifts[0])
        check(second, shifts[1])
        del second
        third = op.shifted(shifts[2])
        check(first, shifts[0])
        check(third, shifts[2])
        del first, third
        check(op.shifted(shifts[3]), shifts[3])


@pytest.mark.parametrize("outer", ["pole", "dirichlet"])
def test_weak_form_annihilates_constants(outer):
    op = assemble(FiberMesh(0.05, 1.0, 33, 24, inner="pole", outer=outer), 2.5)
    ones = np.ones((33, 24))
    resid = op.weak_form(ones)
    # the coupling's weights: the weak form of ones on the Dirichlet rings alone
    fixed = np.where(dof_map(op) < 0, 1.0, 0.0)
    row_scale = abs(op.A) @ op.grid_to_dof(ones) + np.abs(op.weak_form(fixed))
    # rounding only: the row sums cancel up to a few ulps of the row scale
    assert np.all(np.abs(resid) <= 8 * np.finfo(float).eps * row_scale)


def test_model_operator_eigenfunction_second_order():
    a, m = 1.7, 2

    def err(mesh):
        op = assemble(mesh, 1.0)
        r, phi = mesh.grids()
        u = r**a * np.cos(m * phi)
        expected = (m * m - a * a) * r ** (a - 2.0) * np.cos(m * phi)
        got = weak_laplacian_grid(op, u)
        return np.max(np.abs((got - expected)[1:-1, :])) / np.max(np.abs(expected[1:-1, :]))

    mesh = annulus(48, 16)
    e1 = err(mesh)
    e2 = err(mesh.refine())
    assert 3.0 < e1 / e2 < 5.0  # O(h^2)


def test_weak_operator_symmetric_in_weighted_inner_product():
    mesh = FiberMesh(0.05, 1.0, 32, 16, inner="pole", outer="dirichlet")
    op = assemble(mesh, bumpy_density)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(op.ndof)
        y = rng.standard_normal(op.ndof)
        lhs = float((op.A @ x) @ y)
        rhs = float((op.A @ y) @ x)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# -- Picard ----------------------------------------------------------------------


def test_picard_zero_rhs():
    op = assemble(annulus(32, 16), 1.0)
    rep = picard_solve(op, np.zeros((32, 16)))
    assert rep.iterations == 1
    assert np.max(np.abs(rep.solution)) == 0.0
    assert rep.residual_sup == 0.0


def manufactured_error(mesh, eps=0.05, tol=1e-11, maxit=100):
    op = assemble(mesh, 1.0)
    r, phi = mesh.grids()
    vstar = eps * r * np.cos(phi)  # harmonic, so f = e^{2 v*} - 1 exactly
    f = np.exp(2 * vstar) - 1.0
    bc = {"inner": vstar[0, :], "outer": vstar[-1, :]}
    rep = picard_solve(op, f, tol=tol, maxit=maxit, boundary=bc)
    return float(np.max(np.abs(rep.solution - vstar))), rep


def test_picard_evaluates_q_once_per_iterate(monkeypatch):
    # one evaluation for the start and one for each new iterate
    calls = []
    q = solver._q_nonlinearity

    def counted(v):
        calls.append(v)
        return q(v)

    monkeypatch.setattr(solver, "_q_nonlinearity", counted)
    _, rep = manufactured_error(FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet"))
    assert rep.iterations == 5
    assert len(calls) == rep.iterations + 1


def test_picard_rejects_boundary_keys_it_would_ignore():
    values = np.full(8, 0.01)
    with pytest.raises(ValueError):  # misspelt side
        picard_solve(assemble(annulus(17, 8), 1.0), np.zeros((17, 8)), boundary={"Inner": values})
    mesh = FiberMesh(0.05, 1.0, 17, 8, inner="pole", outer="dirichlet")
    with pytest.raises(ValueError):  # a collapsed ring takes no prescribed values
        picard_solve(assemble(mesh, 1.0), np.zeros((17, 8)), boundary={"inner": values})


def test_picard_manufactured_convergence_ratio():
    mesh = FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet")
    e1, rep1 = manufactured_error(mesh)
    e2, rep2 = manufactured_error(mesh.refine())
    assert rep1.bound_ok and rep2.bound_ok
    assert 0.8 * 4 <= e1 / e2 <= 1.2 * 4


def test_picard_sup_bound_holds():
    op = assemble(annulus(48, 16), 1.0)
    r, phi = annulus(48, 16).grids()
    f = 1e-3 * np.cos(phi) * np.exp(-((np.log(r) + 1.5) ** 2)) * np.ones((48, 16))
    rep = picard_solve(op, f, tol=1e-12)
    assert rep.bound_ok
    assert rep.sup_solution <= 0.5 * rep.sup_rhs + 1e-12
    # for tiny data the solution is about half the forcing
    assert rep.sup_solution <= 0.5 * np.max(np.abs(f)) * 1.05


def test_picard_divergence_detected():
    op = assemble(annulus(32, 16), 1.0)
    with pytest.raises((DivergenceError, OverflowError)):
        picard_solve(op, np.full((32, 16), 30.0), maxit=40)


def test_picard_budget_raises():
    mesh = FiberMesh(0.05, 1.0, 129, 32, inner="dirichlet", outer="dirichlet")
    with pytest.raises(solver.NonconvergenceError, match="no convergence in 2 Picard iterations"):
        manufactured_error(mesh, maxit=2)


def recorded_fourier_solves(monkeypatch):
    """Every ``_FourierFactor.solve`` result, in call order: Picard's iterates on its one factor."""
    solve, results = solver._FourierFactor.solve, []

    def recorded(factor, b):
        results.append(solve(factor, b))
        return results[-1].copy()

    monkeypatch.setattr(solver._FourierFactor, "solve", recorded)
    return results


def test_picard_stagnates_when_tol_is_below_round_off(monkeypatch):
    # tol = 1e-18 is below every update the iterates can make and below the
    # residual's W-norm: at r_min = 1e-8 the solve goes on until an iterate moves
    # by round-off only (10 iterations) and raises; so does the manufactured solve
    mesh = FiberMesh(1e-8, 0.7, 129, 16, inner="pole", outer="dirichlet")
    iterates = recorded_fourier_solves(monkeypatch)
    with pytest.raises(solver.NonconvergenceError, match="stagnated at residual .*: tol is below round-off"):
        hyperbolic_correction_solve(mesh, 0.5, functools.partial(u0_truncated, order=4), tol=1e-18)
    assert len(iterates) == 10
    roundoff = np.finfo(float).eps * (1.0 + np.max(np.abs(iterates[-1])))
    assert np.max(np.abs(iterates[-1] - iterates[-2])) <= roundoff
    with pytest.raises(solver.NonconvergenceError, match="stagnated at residual .*: tol is below round-off"):
        manufactured_error(FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet"), tol=1e-18)


def test_picard_at_r_min_1e_8_ends_by_the_w_norm_per_area(monkeypatch):
    # at r_min = 1e-8 the pole-side rows, with W down to about r^2, keep the
    # residual's sup above tol: the W-norm per unit area ends the solve on
    # iteration 6 (the evaluation floor it replaces took 7), with an update still
    # above tol, so the update rule did not.  The reported sup is the final
    # iterate's, and the iterate is within tol of a solve to tol = 1e-14
    mesh = FiberMesh(1e-8, 0.7, 129, 16, inner="pole", outer="dirichlet")
    profile = functools.partial(u0_truncated, order=4)
    iterates = recorded_fourier_solves(monkeypatch)
    rep = hyperbolic_correction_solve(mesh, 0.5, profile)
    assert rep.iterations == rep.steps == len(iterates) == 6
    assert rep.residual_sup > 1e-10 and np.max(np.abs(iterates[-1] - iterates[-2])) > 1e-10
    tight = hyperbolic_correction_solve(mesh, 0.5, profile, tol=1e-14)
    assert np.max(np.abs(rep.solution - tight.solution)) <= 1e-10


def test_picard_readme_solve_ends_by_tol_before_the_floor():
    # the README hyperbolic solve's residual sup and its W-norm per unit area
    # reach tol on the same iteration, so the payload is the sup-norm stop's
    mesh = FiberMesh(1e-3, 0.7, 96, 16, inner="pole", outer="dirichlet")
    rep = hyperbolic_correction_solve(mesh, 0.5, functools.partial(u0_truncated, order=4))
    assert rep.iterations == rep.steps == 6
    assert rep.residual_sup == 3.5448116664227314e-11


# -- spherical solves ---------------------------------------------------------------


def closed_sphere_mesh(L=5.0, nt=97, nphi=16):
    return FiberMesh(math.exp(-L), math.exp(L), nt, nphi, inner="pole", outer="pole")


def w_norm_per_area(op, K0, u):
    """||r||_W / sqrt(sum W) of the spherical residual r = A u / W + K0 - e^{2u} at a grid field u."""
    x = op.grid_to_dof(u)
    r = op.A @ x / op.W + op.ring_sum(K0 * op.cell_mass) / op.W - np.exp(2 * x)
    return math.sqrt(float(r @ (op.W * r)) / float(np.sum(op.W)))


def solved_operator(betas, points, mesh):
    """The background operator and K0 grid of ``spherical_cone_solve``'s Newton for these data."""
    density, K0 = singular_sphere_background(betas, points)
    return assemble(mesh, density), K0(*mesh.grids())


def test_newton_round_sphere_is_exact_start():
    mesh = closed_sphere_mesh()
    op = assemble(mesh, round_sphere_density)
    rep = newton_solve_spherical(op, np.ones((mesh.nt, mesh.nphi)))
    assert rep.iterations == 0
    assert rep.residual_sup == 0.0
    assert rep.sup_solution == 0.0


def test_newton_rejects_step_on_singular_factor(monkeypatch):
    # a factorization that is exactly singular counts as a rejected step
    shifted, calls = ConicLaplacianOp.shifted, []

    def flaky(op, shift):
        calls.append(shift)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return shifted(op, shift)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", flaky)
    mesh = FiberMesh(0.01, 100.0, 65, 16, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
    assert rep.residual_sup < 1e-10
    assert len(calls) > 1
    # the next factor is built at the same u with tau grown fourfold, 1e-3 -> 4e-3
    assert np.allclose(calls[1] - calls[0], 3e-3, rtol=0, atol=1e-15)


def test_newton_on_a_radial_density_pivots_through_indefinite_shifts(
    monkeypatch, tridiagonal_routines, band_routines
):
    # tau - 2 e^{2u} starts ring-constant and indefinite: a factor without
    # pivoting (Cholesky) would fail there, and Newton would reject the step.
    # The shift's sign, not its ring-constancy, picks the factor, so from the
    # first step on every factor is the band LU: the iterate's round-off along
    # rings, which ends ring-constancy after a few steps, changes nothing
    mesh = closed_sphere_mesh()
    op = assemble(mesh, round_sphere_density)
    r, _ = mesh.grids()
    K0 = (1.0 + 0.5 * (r**2 - 1.0) / (r**2 + 1.0)) * np.ones((mesh.nt, mesh.nphi))
    shifted, factors, raised = ConicLaplacianOp.shifted, [], []

    def recorded(op, shift):
        try:
            factors.append((np.min(shift), shifted(op, shift)))
        except RuntimeError:
            raised.append(shift)
            raise
        return factors[-1][1]

    monkeypatch.setattr(ConicLaplacianOp, "shifted", recorded)
    rep = newton_solve_spherical(op, K0)
    assert not raised
    assert factors[0][0] < 0
    assert all(isinstance(factor, solver._BandFactor) for _, factor in factors), [type(f) for _, f in factors]
    assert (rep.iterations, rep.steps) == (len(factors), 39) == (34, 39)
    assert band_routines.count("dgbtrf") == 34 and set(band_routines) == {"dgbtrf", "dgbtrs"}
    assert tridiagonal_routines == []
    monkeypatch.setattr(ConicLaplacianOp, "shifted", lambda op, s: spla.splu((op.A + sp.diags(s * op.W)).tocsc()))
    forced = newton_solve_spherical(op, K0)
    assert np.max(np.abs(rep.solution - forced.solution)) <= 1e-8


def test_rotation_invariant_solves_factor_only_by_fourier(monkeypatch):
    # every factor of these solves is a _FourierFactor: one that falls off the
    # Fourier path builds a _BandFactor at nphi <= 64, which a ban on SuperLU misses
    shifted, factors = ConicLaplacianOp.shifted, []

    def recorded(op, shift):
        factors.append(shifted(op, shift))
        return factors[-1]

    monkeypatch.setattr(ConicLaplacianOp, "shifted", recorded)
    # the README hyperbolic solve, the default merging family, the round and
    # football gaps and the manufactured Picard solve
    hyperbolic = FiberMesh(1e-3, 0.7, 96, 16, inner="pole", outer="dirichlet")
    assert hyperbolic_correction_solve(hyperbolic, 0.5, functools.partial(u0_truncated, order=4)).bound_ok
    fam = merging_pair_residual_family(0.9, 0.6, (0.1, 0.05, 0.025))
    assert decay_check(fam.families[2], 2).passes
    assert abs(eigen_gap(assemble(closed_sphere_mesh(), round_sphere_density)) - 2.0) < 0.05
    assert abs(eigen_gap(assemble(closed_sphere_mesh(10.0, 129, 16), football_density(0.5))) - 2.0) < 0.05
    error, rep = manufactured_error(FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet"))
    assert rep.bound_ok and error < 1e-3
    assert factors and all(isinstance(f, solver._FourierFactor) for f in factors), [type(f) for f in factors]


def test_picard_and_the_merging_pair_factor_positive_shifts_by_ldlt(tridiagonal_routines):
    # Picard's shift 2W and the pair's 2 W0 e^{2 u0} are positive on every dof:
    # each factor is dpttrf's, and none pivots
    hyperbolic = FiberMesh(1e-3, 0.7, 96, 16, inner="pole", outer="dirichlet")
    solves = {
        "hyperbolic": lambda: hyperbolic_correction_solve(hyperbolic, 0.5, functools.partial(u0_truncated, order=4)),
        "merging pair": lambda: merging_pair_residual_family(0.9, 0.6, (0.1, 0.05, 0.025)),
        "manufactured": lambda: manufactured_error(FiberMesh(0.05, 1.0, 65, 16, inner="dirichlet", outer="dirichlet")),
    }
    for name, solve in solves.items():
        tridiagonal_routines.clear()
        solve()
        assert "dpttrf" in tridiagonal_routines, name
        assert set(tridiagonal_routines) == {"dpttrf", "dpttrs"}, (name, tridiagonal_routines)


def readme_three_cone_mesh():
    return FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")


def test_spherical_cone_solve_builds_no_superlu_factor(monkeypatch):
    # the README 3-cone solve: every Newton step and the gap factor a band
    def no_superlu(*args, **kwargs):
        raise AssertionError("a SuperLU factor was built")

    monkeypatch.setattr(spla, "splu", no_superlu)
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], readme_three_cone_mesh())
    assert rep.residual_sup < 1e-10 and rep.gap > 2.0


def test_newton_holds_one_factor_at_a_time(monkeypatch):
    # each step's factor is dropped before the next is built, so no earlier
    # factor, and no band of one, is alive at a new one; every factor built is
    # one iteration, a last step's that is not kept too.  Rings of 24 nodes keep
    # LAPACK's band LU unblocked, so the counts do not depend on the BLAS thread
    # count
    shifted, built = ConicLaplacianOp.shifted, []

    def tracked(op, shift):
        assert all(ref() is None for ref in built), "an earlier factor is still alive"
        factor = shifted(op, shift)
        built.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(ConicLaplacianOp, "shifted", tracked)
    mesh = readme_three_cone_mesh()
    readme = ([2 / 3] * 3, [0j, 1.0 + 0j], 1e-10)
    four_cone_default = ([Fraction(k, k + 1) for k in range(1, 5)], [0j, 1.0 + 0j, -1.0 + 0j], 1e-9)
    for betas, points, residual in (readme, four_cone_default):
        built.clear()
        density, K0 = singular_sphere_background(betas, points)
        rep = newton_solve_spherical(assemble(mesh, density), K0(*mesh.grids()))
        assert rep.residual_sup < residual and len(built) == rep.iterations >= 2, betas


def test_newton_holds_a_factor_that_cut_the_residual_tenfold(monkeypatch):
    # on the README case a fresh factor's step cuts the residual tenfold, so the
    # next steps solve on that factor again: more steps than factors, and at
    # every build and every solve no factor but the newest is alive
    shifted, band_solve, built, solves = ConicLaplacianOp.shifted, solver._BandFactor.solve, [], []

    def tracked(op, shift):
        assert all(ref() is None for ref in built), "an earlier factor is still alive"
        factor = shifted(op, shift)
        built.append(weakref.ref(factor))
        return factor

    def counted(factor, b):
        assert all(ref() is None for ref in built[:-1]), "an earlier factor is still alive"
        solves.append(np.ndim(b))
        return band_solve(factor, b)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", tracked)
    monkeypatch.setattr(solver._BandFactor, "solve", counted)
    mesh = readme_three_cone_mesh()
    density, K0 = singular_sphere_background([2 / 3] * 3, [0j, 1.0 + 0j])
    rep = newton_solve_spherical(assemble(mesh, density), K0(*mesh.grids()))
    assert rep.residual_sup < 1e-10
    assert len(built) == rep.iterations < len(solves)
    # a fresh factor solves for -W res and q at once, a held one for -W res alone
    assert solves.count(2) == rep.iterations


def luo_tian_admissible_data(count, seed):
    """Seeded spherical cone data: 3-5 distinct angles in [0.15, 0.95], Luo-Tian admissible.

    The angles are rounded to 3 digits and kept when chi(beta) > 0 and
    2 (1 - beta_i) < sum_j (1 - beta_j); the cones sit at 0, 1, k - 3 points
    uniform in [-2, 2]^2, and infinity (the last angle).
    """
    rng = random.Random(seed)
    data = []
    while len(data) < count:
        k = rng.randint(3, 5)
        betas = [round(rng.uniform(0.15, 0.95), 3) for _ in range(k)]
        deficits = [1 - b for b in betas]
        if len(set(betas)) < k or not (sum(deficits) < 2 and all(2 * d < sum(deficits) for d in deficits)):
            continue
        points = [0j, 1 + 0j] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k - 3)]
        data.append((betas, points))
    return data


def test_spherical_newton_converges_on_seeded_admissible_data():
    # every datum converges on the README mesh within 3 factors, 125 in all at one
    # BLAS thread and at two (the sup-norm stop with its evaluation floor built
    # 146, and factoring every step 379)
    mesh = readme_three_cone_mesh()
    factors = 0
    for betas, points in luo_tian_admissible_data(80, seed=7):
        rep = spherical_cone_solve(betas, points, mesh)
        assert rep.residual_sup <= 1e-8 and rep.iterations <= 3 and rep.gap > 2.0, (betas, points)
        factors += rep.iterations
    assert factors == 125


def test_spherical_cone_solve_traces_below_two_bands(monkeypatch):
    # Newton's last factor is dropped before the gap's factor allocates its band:
    # the traced peak stays below two LU bands (1.28 on numpy 2.4).  The gap's
    # Cholesky band is a third of an LU band, so a Newton band left alive would stay
    # below that too; when the gap starts, what is traced is below half an LU band
    # (0.15; 1.11 with Newton's last band alive).  Newton's operator stays alive
    # through the gap, whose operator shares its stiffness; its arrays are a small
    # fraction of one band
    mesh = FiberMesh(math.exp(-8), math.exp(8), 257, 40, inner="pole", outer="pole")
    band = 8 * (3 * mesh.nphi + 1) * ((mesh.nt - 2) * mesh.nphi + 2)
    gap, at_gap = solver.eigen_gap, []

    def traced_gap(op):
        at_gap.append(tracemalloc.get_traced_memory()[0])
        return gap(op)

    monkeypatch.setattr(solver, "eigen_gap", traced_gap)
    tracemalloc.start()
    try:
        rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.gap > 2.0
    assert peak < 2 * band
    assert len(at_gap) == 1 and at_gap[0] < band / 2


def test_spherical_cone_solve_builds_one_stiffness(monkeypatch):
    # the gap's operator is Newton's with the mass of the solved metric, so the
    # stiffness is built once per solve (assembling the gap's operator builds it twice)
    build, newton, gap = solver.ConicLaplacianOp._build, solver.newton_solve_spherical, solver.eigen_gap
    built, ops = [], {}

    def counted_build(op):
        built.append(op)
        build(op)

    def seen_newton(op, *args, **kwargs):
        ops["newton"] = op
        return newton(op, *args, **kwargs)

    def seen_gap(op):
        ops["gap"] = op
        return gap(op)

    monkeypatch.setattr(solver.ConicLaplacianOp, "_build", counted_build)
    monkeypatch.setattr(solver, "newton_solve_spherical", seen_newton)
    monkeypatch.setattr(solver, "eigen_gap", seen_gap)
    mesh = FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
    assert len(built) == 1
    assert ops["gap"].A is ops["newton"].A
    # the same mass as an operator assembled on the solved metric's density
    solved = assemble(mesh, ops["newton"].density * np.exp(2 * rep.solution))
    assert np.array_equal(ops["gap"].W, solved.W)


def test_spherical_cone_solve_three_cones():
    mesh = FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
    assert rep.residual_sup < 1e-10
    assert rep.gap > 2.0
    # regression value recorded at first build
    assert rep.gap == pytest.approx(3.3606, abs=2e-3)


def test_spherical_cone_solve_perturbed_configuration():
    # perturbed cone position: the residual's W-norm per unit area still converges
    # below 1e-10 at desk scale (its sup reads 1.01e-10), gap regression recorded
    # at first build
    mesh = FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.1 + 0.1j], mesh)
    assert w_norm_per_area(*solved_operator([2 / 3] * 3, [0j, 1.1 + 0.1j], mesh), rep.solution) <= 1e-10
    assert rep.gap == pytest.approx(3.2786, abs=2e-3)


@pytest.mark.parametrize(
    "betas,points",
    [
        ([0.6, 0.7, 0.8], [0j, 1 + 0j]),
        FIVE_CONES,
        ([0.5, 0.5, 0.8], [0j, 1 + 0j]),
        ([0.4, 0.45, 0.5], [0j, 1 + 0j]),
        ([2 / 3] * 3, [0j, 0.1 + 0j]),
    ],
    ids=["three-cones", "five-cones", "two-halves", "small-angles", "close-pair"],
)
def test_spherical_cone_solve_asymmetric_angles(betas, points):
    # all beta < 1, chi = 2 - sum(1 - beta_j) > 0 and
    # (1 - beta_i) < sum_{j != i} (1 - beta_j): a unique metric exists
    deficits = [1.0 - b for b in betas]
    assert 0 < min(deficits) and sum(deficits) < 2
    assert all(2 * d < sum(deficits) for d in deficits)
    mesh = FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")
    rep = spherical_cone_solve(betas, points, mesh)
    assert rep.residual_sup < 1e-9
    assert rep.gap > 2.0


def test_spherical_cone_solve_factorization_count(monkeypatch):
    # one Newton run from u = 0 plus one factor for the gap estimate: the
    # algorithm, not the machine, sets these counts
    shifted, gap = ConicLaplacianOp.shifted, solver.eigen_gap
    calls, phase = {"newton": 0, "gap": 0}, ["newton"]

    def counted(op, shift):
        calls[phase[0]] += 1
        return shifted(op, shift)

    def counted_gap(op):
        phase[0] = "gap"
        return gap(op)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", counted)
    monkeypatch.setattr(solver, "eigen_gap", counted_gap)
    mesh = FiberMesh(math.exp(-8), math.exp(8), 257, 40, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
    assert rep.gap > 2.0
    assert calls["gap"] == 1
    assert calls["newton"] + calls["gap"] <= 7  # 9 Newton factors when tau started at 1
    assert calls["newton"] == rep.iterations  # 2, at one BLAS thread and at two


@pytest.mark.parametrize("nt,nphi,extent", [(193, 32, 7), (257, 40, 8)])
def test_newton_ends_once_an_undamped_correction_moves_by_at_most_tol(nt, nphi, extent, monkeypatch):
    # (2/3)^3: at tol = 1e-10 the residual's W-norm per unit area ends the solve on
    # 2 factors, while its sup, inflated by pole-side rows of tiny W, stays above
    # tol.  At tol = 1e-13 the W-norm bottoms out above tol, near 1e-12, and the
    # solve ends on a step of a fresh factor built at tau <= _NEWTON_TAU0 that
    # moves u by at most tol: the last shift is tau - 2 e^{2u} at the returned u to
    # within that move.  Both iterates give the same gap to 1e-10 relative
    shifted, built = ConicLaplacianOp.shifted, []

    def counted(op, shift):
        built.append(shift)
        return shifted(op, shift)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", counted)
    mesh = FiberMesh(math.exp(-extent), math.exp(extent), nt, nphi, inner="pole", outer="pole")
    op, K0 = solved_operator([2 / 3] * 3, [0j, 1.0 + 0j], mesh)
    rep = newton_solve_spherical(op, K0)
    assert len(built) == rep.iterations == 2 and rep.residual_sup > 1e-10
    assert w_norm_per_area(op, K0, rep.solution) <= 1e-10
    built.clear()
    tight = newton_solve_spherical(op, K0, tol=1e-13)
    assert len(built) == tight.iterations > 2 and w_norm_per_area(op, K0, tight.solution) > 1e-13
    tau = built[-1] + 2.0 * np.exp(2.0 * op.grid_to_dof(tight.solution))
    assert np.max(tau) <= solver._NEWTON_TAU0 and np.ptp(tau) <= 1e-11
    gap, tight_gap = eigen_gap(op.conformal(rep.solution)), eigen_gap(op.conformal(tight.solution))
    assert tight_gap == pytest.approx(gap, rel=1e-10)


def test_newton_reaches_tol_at_extent_12_where_the_sup_cannot():
    # inner rings with W near 1e-11 keep the residual's sup at 2e-4, but the
    # W-norm per unit area reaches tol on 7 factors.  The evaluation floor this
    # stop replaces ended the solve on 2 factors, with gap 2.4294 and sup
    # residual 5.4e-2
    mesh = FiberMesh(math.exp(-12), math.exp(12), 257, 48, inner="pole", outer="pole")
    betas, points = [Fraction(37, 40), Fraction(9, 25), Fraction(59, 200)], [0j, 1.0 + 0j]
    rep = spherical_cone_solve(betas, points, mesh)
    assert w_norm_per_area(*solved_operator(betas, points, mesh), rep.solution) <= 1e-9
    assert rep.gap == pytest.approx(2.18292, abs=1e-5)


@pytest.mark.parametrize("nt,nphi,extent,steps", [(129, 24, 6, 6), (193, 32, 7, 6), (257, 40, 8, 6)])
def test_newton_steps_count_every_step_and_iterations_every_factor(nt, nphi, extent, steps, monkeypatch):
    # the README case refined: every step is one band solve, fresh or held, on 2
    # factors each, at one BLAS thread and at two
    band_solve, solves = solver._BandFactor.solve, []

    def counted(factor, b):
        solves.append(np.ndim(b))
        return band_solve(factor, b)

    monkeypatch.setattr(solver._BandFactor, "solve", counted)
    mesh = FiberMesh(math.exp(-extent), math.exp(extent), nt, nphi, inner="pole", outer="pole")
    density, K0 = singular_sphere_background([2 / 3] * 3, [0j, 1.0 + 0j])
    rep = newton_solve_spherical(assemble(mesh, density), K0(*mesh.grids()))
    assert rep.steps == len(solves) == steps
    assert rep.iterations == solves.count(2) == 2


@pytest.mark.parametrize(
    "betas,points,gap",
    [
        ([2 / 3] * 3, [0j, 1 + 0j], 3.360606159732047),
        ([1 / 2, 2 / 3, 3 / 4, 5 / 6], cli._default_sphere_points(4), 3.470335779229304),
        ([1 / 2, 1 / 3, 1 / 4], [0j, 1 + 0j], 23.365269328026976),
        ([1 / 2] * 3, [0j, 1 + 0j], 5.796499936258584),
        (*FIVE_CONES, 3.517178062217959),
        ([0.8, 0.8, 0.7, 0.7], [0j, 0.1 + 0j, 1 + 0j], 3.036756533000387),
    ],
    ids=["readme-2/3", "4-cone-default", "1/2,1/3,1/4", "halves", "five-cones", "pair-at-0.1"],
)
def test_spherical_newton_takes_few_steps_on_admissible_data(betas, points, gap):
    # Luo-Tian admissible data on the README mesh (the 4-cone layout is the
    # CLI's default, with its third cone at exactly -1); each took 8 or 9 steps
    # when the damping started at tau = 1, and the gaps are the values recorded then
    rep = spherical_cone_solve(betas, points, readme_three_cone_mesh())
    assert rep.iterations <= 6
    assert rep.residual_sup < 1e-9
    assert rep.gap == pytest.approx(gap, rel=1e-8)


def test_newton_needs_closed_fiber_and_positive_area():
    mesh = closed_sphere_mesh()
    op = assemble(mesh, round_sphere_density)
    for K0 in (np.zeros((mesh.nt, mesh.nphi)), -np.ones((mesh.nt, mesh.nphi))):
        with pytest.raises(ValueError):
            newton_solve_spherical(op, K0)
    open_mesh = FiberMesh(math.exp(-5), math.exp(5), 97, 16, inner="pole", outer="dirichlet")
    with pytest.raises(ValueError):
        newton_solve_spherical(assemble(open_mesh, round_sphere_density), np.ones((97, 16)))


def test_spherical_cone_solve_football_refused():
    mesh = FiberMesh(math.exp(-8), math.exp(8), 97, 16, inner="pole", outer="pole")
    with pytest.raises(FootballDegeneracyError):
        spherical_cone_solve([0.5, 0.5], [0j], mesh)
    with pytest.raises(ValueError):
        spherical_cone_solve([0.4, 0.5], [0j], mesh)


def test_spherical_cone_solve_refuses_a_solved_gap_within_the_margin():
    # Luo-Tian admissible, so the gate passes and Newton converges, but the
    # solved metric's gap, 2.0486 on the README mesh, is within the margin of 2
    betas = [Fraction(2, 3), Fraction(2, 3), Fraction(99, 100)]
    spherical_existence_gate(betas)
    with pytest.raises(FootballDegeneracyError, match=r"solved metric has spectral gap 2\.04"):
        spherical_cone_solve(betas, [0j, 1.0 + 0j], readme_three_cone_mesh())


def test_spherical_newton_stall_raises():
    # a close pair that Newton does not solve, although a metric exists
    # (Moebius-equivalent to the README case): 16 rejections in a row
    with pytest.raises(solver.NonconvergenceError, match="Newton stalled at residual"):
        spherical_cone_solve([2 / 3] * 3, [0j, 0.01 + 0j], readme_three_cone_mesh())


@pytest.mark.parametrize("betas", [[0.45, 0.5, 0.96], [0.4, 0.7, 0.7]], ids=["outside", "at-equality"])
def test_spherical_cone_solve_refuses_luo_tian_violation(betas, monkeypatch):
    # all beta < 1 and (1 - beta_i) >= sum_{j != i} (1 - beta_j): no metric
    # exists, although the discrete problem near that line can still converge
    monkeypatch.setattr(ConicLaplacianOp, "shifted", lambda op, shift: pytest.fail("solved"))
    mesh = FiberMesh(math.exp(-6), math.exp(6), 129, 24, inner="pole", outer="pole")
    with pytest.raises(ValueError, match="Luo-Tian"):
        spherical_cone_solve(betas, [0j, 1 + 0j], mesh)


class _PastGate(Exception):
    pass


def test_spherical_gate_refuses_what_the_oracle_refuses(monkeypatch):
    # stop right after the gate: the background is the first step of the solve
    def stop(betas, points):
        raise _PastGate

    monkeypatch.setattr(solver, "singular_sphere_background", stop)
    mesh = FiberMesh(math.exp(-6), math.exp(6), 33, 8, inner="pole", outer="pole")
    twelfths = [Fraction(i, 12) for i in range(1, 31)]

    def outcome(gate, betas):
        try:
            gate(betas)
        except (ValueError, FootballDegeneracyError, _PastGate) as exc:
            return type(exc)
        return _PastGate

    for k in (1, 2, 3):
        for betas in itertools.product(twelfths, repeat=k):
            solve = functools.partial(spherical_cone_solve, finite_points=[0j, 1 + 0j][: k - 1], mesh=mesh)
            assert outcome(solve, betas) is outcome(spherical_existence_gate, betas), betas


def test_spherical_gate_refuses_nonpositive_chi_beta_whatever_the_largest_angle(monkeypatch):
    # chi(beta) = 2 + sum(beta_i - 1) = -1/2 with a beta >= 1, which the Luo-Tian
    # gate leaves unchecked: it used to reach Newton's float test on sum W K0
    monkeypatch.setattr(solver, "singular_sphere_background", lambda betas, points: pytest.fail("past the gate"))
    mesh = FiberMesh(math.exp(-6), math.exp(6), 33, 8, inner="pole", outer="pole")
    with pytest.raises(ValueError, match="Gauss-Bonnet"):
        spherical_cone_solve([1 / 12, 1 / 12, 1 / 12, 5 / 4], [0j, 1 + 0j, 2 + 0j], mesh)


def test_spherical_gate_refuses_nonpositive_angles(monkeypatch):
    monkeypatch.setattr(solver, "singular_sphere_background", lambda betas, points: pytest.fail("past the gate"))
    mesh = FiberMesh(math.exp(-6), math.exp(6), 33, 8, inner="pole", outer="pole")
    for betas in ([1.5, -0.5, 1.0], [0.0, 0.5, 0.5], [-0.5, -0.5]):
        with pytest.raises(ValueError, match="angle parameters must be positive"):
            spherical_cone_solve(betas, [0j, 1 + 0j][: len(betas) - 1], mesh)


def test_singular_background_refuses_repeated_points():
    with pytest.raises(ValueError, match="marked point 0,0 is repeated"):
        singular_sphere_background([2 / 3, 2 / 3, 2 / 3], [0j, 0j])


def test_singular_background_reads_the_gate_angles():
    # a float the gate snaps to 2/3 gives 2/3's density and curvature, bit for bit
    mesh = FiberMesh(math.exp(-6), math.exp(6), 65, 16, inner="pole", outer="pole")
    snapped = singular_sphere_background([0.6666667] * 3, [0j, 1 + 0j])
    exact = singular_sphere_background([Fraction(2, 3)] * 3, [0j, 1 + 0j])
    for got, want in zip(snapped, exact):
        assert np.array_equal(got(*mesh.grids()), want(*mesh.grids()))


def test_singular_background_curvature_formula():
    # the closed-form K0 of the singular background is the limit of the
    # discrete curvature of its density (second-order, away from the cones)
    dens, K0f = singular_sphere_background([2 / 3, 2 / 3, 2 / 3], [0j, 1.0 + 0j])

    def err(mesh):
        op = assemble(mesh, dens)
        r, phi = mesh.grids()
        phi0 = 0.5 * np.log(op.density)
        K_disc = weak_laplacian_grid(op, phi0)
        K_true = K0f(r, phi)
        sel = np.zeros_like(K_true, dtype=bool)
        sel[1:-1, :] = True
        sel &= np.abs(r * np.exp(1j * phi) - 1.0) > 0.5
        return float(np.max(np.abs((K_disc - K_true)[sel])))

    mesh = FiberMesh(math.exp(-4), math.exp(4), 129, 32, inner="dirichlet", outer="dirichlet")
    e1 = err(mesh)
    e2 = err(mesh.refine())
    assert e1 < 0.1
    assert 3.0 < e1 / e2 < 5.0  # O(h^2): the closed form is the true limit


# -- eigenvalue gaps -------------------------------------------------------------------


def test_eigen_gap_round_sphere_converges_to_two():
    gaps = []
    for L, nt, P in ((5.0, 97, 16), (6.0, 161, 24)):
        mesh = FiberMesh(math.exp(-L), math.exp(L), nt, P, inner="pole", outer="pole")
        gaps.append(eigen_gap(assemble(mesh, round_sphere_density)))
    assert abs(gaps[-1] - 2.0) < 0.01
    assert abs(gaps[-1] - 2.0) < abs(gaps[0] - 2.0)


@pytest.mark.parametrize("beta", [0.5, 1 / 3])
def test_eigen_gap_football(beta):
    mesh = FiberMesh(math.exp(-10), math.exp(10), 257, 24, inner="pole", outer="pole")
    gap = eigen_gap(assemble(mesh, football_density(beta)))
    assert abs(gap - 2.0) < 0.02


def solved_metric_op(betas, points):
    """The operator of the solved metric that spherical_cone_solve's guard measures."""

    def operator(mesh, monkeypatch):
        ops = []
        gap = solver.eigen_gap
        monkeypatch.setattr(solver, "eigen_gap", lambda op: ops.append(op) or gap(op))
        spherical_cone_solve(betas, points, mesh)
        return ops[0]

    return operator


@pytest.mark.parametrize(
    "operator",
    [
        lambda mesh, _: assemble(mesh, round_sphere_density),
        lambda mesh, _: assemble(mesh, football_density(1 / 3)),
        # radial but not symmetric under r -> 1/r: the two pole masses differ
        lambda mesh, _: assemble(mesh, lambda r, phi: 1.0 / (r * (1.0 + r) ** 3)),
        solved_metric_op([2 / 3] * 3, [0j, 1 + 0j]),
        solved_metric_op([1 / 3, 1 / 2, 1 / 4], [0j, 1 + 0j]),
        solved_metric_op(*FIVE_CONES),
    ],
    ids=["round", "football-1/3", "radial-unequal-poles", "three-2/3", "1/3,1/2,1/4", "five-cones"],
)
def test_eigen_gap_matches_dense_generalized_eigensolver(operator, monkeypatch):
    mesh = FiberMesh(math.exp(-6), math.exp(6), 65, 16, inner="pole", outer="pole")
    op = operator(mesh, monkeypatch)
    dense = scipy.linalg.eigh(op.A.toarray(), np.diag(op.W), eigvals_only=True)
    assert dense[0] == pytest.approx(0.0, abs=1e-9)
    assert eigen_gap(op) == pytest.approx(dense[1], rel=1e-8)


def generalized_mode_gap(op, factor):
    """The larger of the two eigenvalues nearest -1e-3 on the whole space.

    ARPACK's generalized shift-invert mode on the pencil (A, diag(W)), with
    its mass products: a check independent of ``eigen_gap``'s standard form.
    """
    inverse = spla.LinearOperator(op.A.shape, matvec=factor.solve, dtype=float)
    both = spla.eigsh(
        op.A, k=2, M=sp.diags(op.W), sigma=-1e-3, OPinv=inverse, ncv=8,
        v0=np.cos(np.arange(op.ndof)), tol=1e-10, return_eigenvectors=False,
    )
    return max(both)


@pytest.mark.parametrize("half_width, nt, nphi", [(6.0, 129, 24), (7.0, 193, 32), (8.0, 257, 40)])
def test_eigen_gap_leaves_out_the_constants(half_width, nt, nphi, monkeypatch):
    # Lanczos on the complement of the constants asks for the gap alone: at
    # most 16 band solves on these solved metrics, where generalized
    # shift-invert mode took 17 and asking it for the two eigenvalues nearest
    # -1e-3 (the constants' 0 and the gap) took 24
    mesh = FiberMesh(math.exp(-half_width), math.exp(half_width), nt, nphi, inner="pole", outer="pole")
    op = solved_metric_op([2 / 3] * 3, [0j, 1 + 0j])(mesh, monkeypatch)
    shifted, solves = ConicLaplacianOp.shifted, []

    class Counted:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, b):
            solves.append(b.shape)
            return self.factor.solve(b)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", lambda op, shift: Counted(shifted(op, shift)))
    gap = eigen_gap(op)
    assert 0 < len(solves) <= 16
    assert gap == pytest.approx(generalized_mode_gap(op, shifted(op, 1e-3)), rel=1e-13)


def test_eigen_gap_where_the_mass_falls_to_1e_9(monkeypatch):
    # at extent 12 the pole rings' mass W falls to 1.3e-9, and the standard
    # form scales every solve by W^{1/2} on both sides
    mesh = FiberMesh(math.exp(-12), math.exp(12), 257, 48, inner="pole", outer="pole")
    op = solved_metric_op([2 / 3] * 3, [0j, 1 + 0j])(mesh, monkeypatch)
    assert op.W.min() < 2e-9
    assert eigen_gap(op) == pytest.approx(generalized_mode_gap(op, op.shifted(1e-3)), rel=1e-13)


def lanczos_gap(op):
    """The gap by shift-invert Lanczos on SuperLU's own factor of A + 1e-3 W, no op.shifted.

    Four eigenvalues nearest -1e-3, so that a cluster at the gap (the round
    sphere's near-triple one at 2) cannot hide its smallest member; the
    first is the constants' 0, the second is the gap.
    """
    lu = spla.splu((op.A + sp.diags(1e-3 * op.W)).tocsc())
    inverse = spla.LinearOperator(op.A.shape, matvec=lu.solve, dtype=float)
    vals = spla.eigsh(
        op.A, k=4, M=sp.diags(op.W), sigma=-1e-3, OPinv=inverse,
        v0=np.cos(np.arange(op.ndof)), tol=1e-13, return_eigenvectors=False,
    )
    return np.sort(vals)[1]


@pytest.mark.parametrize(
    "L, nt, nphi, density",
    [(6.0, 257, 32, round_sphere_density), (10.0, 257, 24, football_density(1 / 3))],
    ids=["round-257x32", "football-1/3-257x24"],
)
def test_radial_eigen_gap_matches_shift_invert_lanczos(L, nt, nphi, density):
    op = assemble(FiberMesh(math.exp(-L), math.exp(L), nt, nphi, inner="pole", outer="pole"), density)
    assert eigen_gap(op) == pytest.approx(lanczos_gap(op), rel=1e-10)


def test_radial_eigen_gap_needs_no_factor_and_no_lanczos(monkeypatch):
    # a rotation-invariant W separates the eigenproblem by angular mode: two
    # tridiagonals, no shifted factor and no ARPACK; a solved cone metric is
    # not rotation-invariant and takes one factor and one Lanczos run
    mesh = FiberMesh(math.exp(-6), math.exp(6), 65, 16, inner="pole", outer="pole")
    solved = solved_metric_op([2 / 3] * 3, [0j, 1 + 0j])(mesh, monkeypatch)
    shifted, eigsh = ConicLaplacianOp.shifted, spla.eigsh
    calls = {"shifted": 0, "eigsh": 0}

    def counted_shifted(op, shift):
        calls["shifted"] += 1
        return shifted(op, shift)

    def counted_eigsh(*args, **kwargs):
        calls["eigsh"] += 1
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(ConicLaplacianOp, "shifted", counted_shifted)
    monkeypatch.setattr(spla, "eigsh", counted_eigsh)
    for density in (round_sphere_density, football_density(1 / 3)):
        assert abs(eigen_gap(assemble(mesh, density)) - 2.0) < 0.25
    assert calls == {"shifted": 0, "eigsh": 0}
    assert eigen_gap(solved) > 2.0
    assert calls == {"shifted": 1, "eigsh": 1}


def test_eigen_gap_draws_no_random_numbers(monkeypatch):
    # the payload's seed is the only seed: the gap has a fixed start vector.
    # Generators may be made (eigsh makes one it uses only on a Krylov
    # breakdown) but not drawn from.
    class NoDraws:
        def __init__(self, *args, **kwargs):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"random draw {name}")

    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    mesh = FiberMesh(math.exp(-6), math.exp(6), 65, 16, inner="pole", outer="pole")
    rep = spherical_cone_solve([2 / 3] * 3, [0j, 1 + 0j], mesh)
    assert rep.gap > 2.0


def test_eigen_gap_requires_closed_fiber():
    with pytest.raises(ValueError):
        eigen_gap(assemble(annulus(), 1.0))


# -- decay reports -----------------------------------------------------------------------


def test_decay_check_synthetic_cubic():
    mesh = annulus(33, 16, 0.2, 0.7)
    r, phi = mesh.grids()
    base = np.sin(phi) * np.exp(r) * np.ones((33, 16))
    fam = [(rho, rho**3 * base) for rho in (0.1, 0.05, 0.025)]
    rep = decay_check(fam, 3)
    assert rep.passes
    assert rep.value_slope == pytest.approx(3.0, abs=1e-10)
    assert rep.bderiv_slopes[0] == pytest.approx(3.0, abs=1e-8)


def test_decay_check_validation():
    base = np.ones((8, 8))
    with pytest.raises(ValueError):
        decay_check([(0.1, base), (0.05, base)], 1)
    with pytest.raises(ValueError):
        decay_check([(0.1, base), (0.05, base), (0.03, base)], 1)  # not geometric
    with pytest.raises(ValueError):
        decay_check([(0.025, base), (0.05, base), (0.1, base)], 1)  # increasing
    with pytest.raises(ValueError):
        decay_check([(0.1, base), (0.05, 0 * base), (0.025, base)], 1)  # a zero field


def test_merging_pair_residual_slopes():
    fam = merging_pair_residual_family(0.9, 0.6, (0.1, 0.05, 0.025), tol=1e-10)
    rep1 = decay_check(fam.families[1], 1)
    rep2 = decay_check(fam.families[2], 2)
    assert rep1.passes and rep1.value_slope >= 0.9
    assert rep2.passes and rep2.value_slope >= 1.9
    # slopes do not decrease with the truncation order
    assert rep2.value_slope > rep1.value_slope
    # first b-derivatives decay at essentially the same rate
    for rep in (rep1, rep2):
        for s in rep.bderiv_slopes:
            assert abs(s - rep.value_slope) < 0.2


def test_merging_pair_rejects_bad_data():
    with pytest.raises(ValueError):
        merging_pair_residual_family(0.4, 0.5, (0.1, 0.05))  # merged parameter <= 0
    with pytest.raises(ValueError):
        merging_pair_residual_family(0.9, 0.6, (0.3, 0.15))  # rho inside the hole
    with pytest.raises(ValueError):
        # merged parameter 0.1 puts the whole annulus past rfrak = 2
        merging_pair_residual_family(0.55, 0.55, (0.1, 0.05))
    pole = FiberMesh(0.2, 0.7, 33, 16, inner="pole", outer="dirichlet")
    with pytest.raises(ValueError, match="needs dirichlet rings"):
        merging_pair_residual_family(0.9, 0.6, (0.1, 0.05), mesh=pole)


# -- the radial profile -------------------------------------------------------------------


def test_radial_hyperbolic_matches_closed_form():
    prof = radial_hyperbolic(0.7, 0.5, 101)
    exact = np.array([u0_value(x) for x in prof.rfrak])
    assert np.max(np.abs(prof.u0 - exact)) < 1e-10


def test_radial_hyperbolic_consistency_with_series():
    prof = radial_hyperbolic(1.0, 0.5, 51)
    assert np.max(np.abs(prof.u0 - u0_truncated(prof.rfrak, 25))) < 1e-10


def test_radial_hyperbolic_domain_guard():
    with pytest.raises(ValueError):
        radial_hyperbolic(0.5, 2.0, 11)
    prof = radial_hyperbolic(0.5, 0.3, 11)
    assert prof.u0[0] == 0.0  # u0 -> 0 at the tip
