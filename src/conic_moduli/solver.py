"""Discrete conic Laplacians on log-polar fiber meshes and Liouville solvers.

A fiber surface is discretized in log-radius t = log r (uniform) and a
periodic angle phi.  Conformally, the Dirichlet energy is the flat (t, phi)
energy, so the stiffness matrix is the flat 5-point stencil, the same for
every density; the metric enters only through the lumped mass weights
density * e^{2t}.  Cone tips and sphere closures are modelled by collapsing
a boundary ring to a single unknown: the angular fluctuations vanish there
(they decay like a positive power of r) while the ring constant keeps the
natural zero-flux condition.  That is the discrete counterpart of the
bounded-leading-behavior domain.

Sign conventions: ``ConicLaplacianOp.weak_form(g) / W`` is the geometer's
nonnegative Laplacian Delta = -e^{-2 phi0} r^{-2} ((r d/dr)^2 + d^2/dphi^2), which sends
r^a cos(m phi) to (m^2 - a^2) r^{a-2} cos(m phi).  It is used in all
equations: curvature equations are written as Delta u + e^{2u} + K0 = 0
(hyperbolic) and Delta u + K0 - e^{2u} = 0 (spherical).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs, dpttrf, dpttrs

from .cones import ConeData, MergeStatus, RationalLike, to_fraction, verdict
from .extrapolate import decay_verdict, least_squares_slope
from .flat import FlatConicMetric, green_factor
from .phg import u0_value

__all__ = [
    "FiberMesh",
    "ConicLaplacianOp",
    "SolveReport",
    "DecayReport",
    "assemble",
    "picard_solve",
    "hyperbolic_correction_solve",
    "newton_solve_spherical",
    "spherical_cone_solve",
    "eigen_gap",
    "decay_check",
    "round_sphere_density",
    "football_density",
    "singular_sphere_background",
    "merging_pair_residual_family",
    "DivergenceError",
    "NonconvergenceError",
    "FootballDegeneracyError",
]

Field = np.ndarray
DensityLike = Union[float, Field, Callable[[Field, Field], Field]]


class DivergenceError(ArithmeticError):
    """Picard contraction factor reached 1 (an ArithmeticError: the CLI exits 1)."""


class NonconvergenceError(ArithmeticError):
    """Iteration budget exhausted before the residual target (an ArithmeticError)."""


class FootballDegeneracyError(ArithmeticError):
    """Spectral-gap guard refused a solve at or below the degenerate gap (an ArithmeticError)."""


@dataclass(frozen=True)
class FiberMesh:
    """Uniform log-polar mesh on r in [r_min, r_max], periodic in phi.

    ``inner`` and ``outer`` are each "pole" (collapsed ring: the discrete
    bounded-leading-behavior closure) or "dirichlet" (ring values
    prescribed per solve).  Angular nodes sit at half-integer multiples of
    the spacing so rays through marked points avoid the grid.
    """

    r_min: float
    r_max: float
    nt: int
    nphi: int
    inner: str = "pole"
    outer: str = "dirichlet"

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max and math.isfinite(self.r_max)):
            raise ValueError("need finite radii 0 < r_min < r_max")
        if not all(isinstance(n, (int, np.integer)) for n in (self.nt, self.nphi)):
            raise ValueError("node counts must be integers")
        if self.nt < 8 or self.nphi < 8:
            raise ValueError("node counts must be >= 8")
        if self.nphi % 2:
            raise ValueError("angular count must be even")
        for side, kind in (("inner", self.inner), ("outer", self.outer)):
            if kind not in ("pole", "dirichlet"):
                raise ValueError(f"{side} boundary must be 'pole' or 'dirichlet'")

    @property
    def t(self) -> Field:
        return np.linspace(math.log(self.r_min), math.log(self.r_max), self.nt)

    @property
    def phi(self) -> Field:
        h = 2 * math.pi / self.nphi
        return (np.arange(self.nphi) + 0.5) * h

    @property
    def ht(self) -> float:
        return (math.log(self.r_max) - math.log(self.r_min)) / (self.nt - 1)

    @property
    def hp(self) -> float:
        return 2 * math.pi / self.nphi

    @property
    def r(self) -> Field:
        return np.exp(self.t)

    def grids(self) -> tuple[Field, Field]:
        return self.r[:, None], self.phi[None, :]

    def refine(self) -> "FiberMesh":
        """Halve both mesh spacings (for convergence studies)."""
        return FiberMesh(self.r_min, self.r_max, 2 * self.nt - 1, 2 * self.nphi, self.inner, self.outer)


def _density_array(mesh: FiberMesh, density: DensityLike) -> Field:
    r, phi = mesh.grids()
    if callable(density):
        out = np.asarray(density(r, phi), dtype=float) * np.ones((mesh.nt, mesh.nphi))
    else:
        out = np.asarray(density, dtype=float) * np.ones((mesh.nt, mesh.nphi))
    if out.shape != (mesh.nt, mesh.nphi):
        raise ValueError("density does not broadcast to the mesh shape")
    if not np.all(out > 0):
        raise ValueError("density must be positive at every node")
    return out


def _lumped_mass(mesh: FiberMesh, density: Field) -> Field:
    """Cell masses density * e^{2t} * ht * hp, halved on the end rings."""
    cell = density * np.exp(2 * mesh.t)[:, None] * mesh.ht * mesh.hp
    cell[0, :] *= 0.5
    cell[-1, :] *= 0.5
    return cell


class ConicLaplacianOp:
    """Discrete conic Laplacian: flat (t, phi) stiffness + metric mass.

    The stiffness A is the flat (t, phi) 5-point stencil, written straight
    into CSR: an interior dof couples to its down- and up-ring neighbours
    with -hp/ht and to its left and right ones with -ht/hp, and a collapsed
    ring's dof to each node of its neighbour ring with -hp/ht.  ``stencil``
    holds (radial, angular, centre, pole): hp/ht, ht/hp and the two
    diagonals, each summed in one fixed order (``_build``), so payloads stay
    byte-identical.  A is symmetric positive semidefinite and annihilates
    constants when both rings are collapsed.

    The lumped mass is density * e^{2t} * ht * hp with half cells at the
    end rings (a collapsed ring's unknown carries its whole ring mass; the
    area below the truncation radius is dropped).  It is the only part that
    depends on the density, so ``conformal(u)``, the operator of the metric
    e^{2u} times this one, shares A and the layout and sets a new mass.

    The dofs run ring by ring: a collapsed ring is one dof, the interior
    rings [1:-1] are runs of nphi dofs and Dirichlet ring nodes have none,
    so grid <-> dof transfers are ring slices.  A Dirichlet ring's radial
    edges couple each of its nodes to the dof beside it in the neighbour
    ring with -hp/ht; ``weak_form`` adds them by one ring slice.
    """

    def __init__(self, mesh: FiberMesh, density: DensityLike):
        self.mesh = mesh
        self._build()
        self._mass(_density_array(mesh, density))

    def conformal(self, u: Field) -> "ConicLaplacianOp":
        """The operator of density * e^{2u} for a grid field u: only the mass changes.

        A copy that shares A, the ring layout, ``stencil`` and any cached band
        positions with this operator (nothing writes to them) and carries its
        own density, cell masses and W.
        """
        op = copy.copy(self)
        op._mass(self.density * np.exp(2 * u))
        return op

    # -- layout and assembly --------------------------------------------------
    def _build(self) -> None:
        mesh, nt, P = self.mesh, self.mesh.nt, self.mesh.nphi
        lo, hi = int(mesh.inner == "pole"), int(mesh.outer == "pole")
        self.ndof = n = lo + (nt - 2) * P + hi
        self._ends = lo, hi  # whether the inner and outer rings are collapsed
        self._rings = slice(lo, n - hi)  # the interior rings' dofs
        self._poles = [(0, 0)] * lo + [(-1, n - 1)] * hi
        # each Dirichlet ring with its neighbour ring's dofs
        self._dirichlet = [(0, slice(0, P))] * (1 - lo) + [(-1, slice(n - P, n))] * (1 - hi)
        wr, wa = mesh.hp / mesh.ht, mesh.ht / mesh.hp
        # diagonals summed as an edge loop sums them: an interior node's two radial
        # and two angular edges, and a collapsed ring's nphi radial edges, in turn
        centre, pole = ((wr + wr) + wa) + wa, np.cumsum(np.full(P, wr))[-1]
        self.stencil = (wr, wa, centre, pole)
        # a ring's rows: columns from its first dof (down-ring, left, centre, right,
        # up-ring) ascending, so the wrap moves row 0's left and row nphi-1's right
        j = np.arange(P)[:, None]
        order = np.argsort((j + [-1, 0, 1]) % P, axis=1)
        cols = np.hstack([j - P, (j + order - 1) % P, j + P])
        vals = np.hstack([[[-wr]] * P, np.array([-wa, centre, -wa])[order], [[-wr]] * P])
        # row blocks: first dofs, columns from them, weights.  A collapsed ring is one
        # dof next to its neighbour ring's; a Dirichlet ring has none (first dof -1)
        ring = np.r_[lo - 1, lo + P * np.arange(nt - 2), hi * n - 1]
        blocks = [(ring[:1], np.arange(P + 1)[None], np.r_[pole, [-wr] * P][None])] * lo + [
            (ring[1:2], np.hstack([[[-1]] * P, cols[:, 1:]])[:, 1 - lo :], vals[:, 1 - lo :]),
            (ring[2:-2], cols, vals),
            (ring[-2:-1], np.hstack([cols[:, :-1], [[P]] * P])[:, : 4 + hi], vals[:, : 4 + hi]),
        ] + [(ring[-1:], np.arange(-P, 1)[None], np.r_[[-wr] * P, pole][None])] * hi
        sizes = np.repeat([v.shape[1] for *_, v in blocks], [b.size * len(v) for b, _, v in blocks])
        indptr = np.cumsum(np.r_[0, sizes], dtype=np.int32)
        indices = np.concatenate([(b[:, None, None] + c).ravel() for b, c, _ in blocks], dtype=np.int32)
        data = np.concatenate([np.broadcast_to(v, (b.size, *v.shape)).ravel() for b, _, v in blocks])
        self.A = sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def _mass(self, density: Field) -> None:
        """Set the density, its lumped cell masses and their per-dof sums W."""
        self.density = density
        self.cell_mass = _lumped_mass(self.mesh, density)
        self.W = self.ring_sum(self.cell_mass)
        if not np.all(np.isfinite(self.W) & (self.W > 0)):
            raise ValueError("lumped mass W is zero or not finite at some dof: density * r^2 under/overflows")

    # -- grid <-> dof transfer ----------------------------------------------
    def grid_to_dof(self, u: Field) -> Field:
        """Dof values of a grid field; a collapsed ring is read at its last node."""
        x = np.empty(self.ndof)
        x[self._rings].reshape(-1, self.mesh.nphi)[:] = u[1:-1]
        for i, d in self._poles:
            x[d] = u[i, -1]
        return x

    def ring_sum(self, field: Field) -> Field:
        """Per-dof sums of a grid field's nodes, a collapsed ring's in ring order."""
        x = self.grid_to_dof(field)
        for i, d in self._poles:
            x[d] = np.cumsum(field[i])[-1]
        return x

    def dof_to_grid(self, x: Field) -> Field:
        """Grid field of a dof vector, zero on Dirichlet rings."""
        u = np.zeros((self.mesh.nt, self.mesh.nphi))
        u[1:-1] = x[self._rings].reshape(-1, self.mesh.nphi)
        for i, d in self._poles:
            u[i] = x[d]
        return u

    def _constant_on_rings(self, x: Field) -> bool:
        """Whether a dof vector is exactly equal (``==``) along every ring; a collapsed ring is one dof."""
        rings = x[self._rings].reshape(-1, self.mesh.nphi)
        return bool(np.all(rings == rings[:, :1]))

    # -- operator action and shifted factorizations ---------------------------
    def weak_form(self, g: Field) -> Field:
        """Weak form of Delta g: A x for g's dof values x plus each Dirichlet ring * -hp/ht on its neighbour ring."""
        y = self.A @ self.grid_to_dof(g)
        for i, near in self._dirichlet:
            y[near] += -self.stencil[0] * g[i]
        return y

    def shifted(self, shift: Union[float, Field]) -> Union[_FourierFactor, _BandFactor, spla.SuperLU]:
        """Factorization of A + diag(shift * W), with a ``solve(b)`` method.

        ``shift`` is a scalar or a per-dof array; the factor is the weak
        form of Delta + shift with the Dirichlet rings eliminated.  The sign
        of shift * W is tested once.  When every entry is positive and
        equal (``==``) along every ring (Picard's 2W, the merging pair's
        2 W0 e^{2 u0}) the operator is rotation-invariant and positive
        definite, and the factor is a ``_FourierFactor``: LAPACK's
        tridiagonal LDL^T per angular mode, with no fill.  Any other shift,
        an indefinite one (Newton's tau - 2 e^{2u}, on any density) or a
        positive one that varies along a ring (the gap's), is a
        ``_BandFactor`` in ring order on rings of at most ``_BAND_MAX_NPHI``
        nodes: LAPACK's band Cholesky when positive, its pivoting band LU
        otherwise; and SuperLU's, in minimum-degree order on A + A^T, on
        wider rings.  An exactly singular factor raises RuntimeError in
        every case.
        """
        s = shift * self.W
        positive = bool(np.all(s > 0))
        if positive and self._constant_on_rings(s):
            return _FourierFactor(self, s)
        if self.mesh.nphi <= _BAND_MAX_NPHI:
            return _BandFactor(self, s, positive)
        return spla.splu((self.A + sp.diags(s)).tocsc(), permc_spec="MMD_AT_PLUS_A")

    @cached_property
    def _band_at(self) -> Field:
        """Flat position of each entry of A in ``_BandFactor``'s LU band: (i, j) at 2 nphi + i + 3 nphi j."""
        P = self.mesh.nphi
        i = np.repeat(np.arange(self.ndof), np.diff(self.A.indptr))
        return (2 * P + i + 3 * P * self.A.indices.astype(np.int64)).astype(np.int32)

    @cached_property
    def _upper_band_at(self) -> tuple[Field, Field]:
        """A's entries with i <= j, and their flat positions in ``_BandFactor``'s Cholesky band: nphi + i + nphi j."""
        P = self.mesh.nphi
        i = np.repeat(np.arange(self.ndof), np.diff(self.A.indptr))
        upper = np.flatnonzero(i <= self.A.indices)
        return upper, (P + i[upper] + P * self.A.indices[upper].astype(np.int64)).astype(np.int32)


# widest ring factored as a band, set by the LU band's 24 nt nphi^2 bytes (timings: CHANGES.md, "Band widths")
_BAND_MAX_NPHI = 64


def _mode_tridiagonals(op: ConicLaplacianOp, s: Field, modes: int) -> tuple[Field, Field]:
    """A + diag(s), for s constant on every ring, on angular modes 0 .. modes-1: one tridiagonal in t each.

    The coefficients are the scalar weights of ``op.stencil``; no entry of
    ``op.A`` is read.  The orthonormal real FFT in phi turns a ring's angular
    coupling -wa (x_{j-1} + x_{j+1}) into -2 wa cos(2 pi k / nphi) on mode k,
    leaving one tridiagonal in t per mode, with radial coupling -wr.  A
    collapsed ring couples only to mode 0: the ring sum of its neighbour is
    sqrt(nphi) times that mode, so it borders mode 0's block with coupling
    -sqrt(nphi) wr, and is an identity row on every other mode.  Returns
    (d, e) of shape (mode, row of its block): the diagonals, and each row's
    coupling to the next, zero on a block's last row.
    """
    n, P, m, (lo, hi) = op.ndof, op.mesh.nphi, op.mesh.nt - 2, op._ends  # m rings of nphi dofs
    wr, wa, centre, pole = op.stencil
    cos = np.cos(2.0 * np.pi * np.arange(modes) / P)[:, None]
    d = np.ones((modes, lo + m + hi))
    d[:, lo : lo + m] = (centre + s[lo : n - hi : P]) - 2.0 * cos * wa
    d[0, :lo], d[0, lo + m :] = pole + s[:lo], pole + s[n - hi :]
    e = np.zeros_like(d)
    e[:, lo : lo + m - 1] = -wr
    e[0, :lo] = e[0, lo + m - 1 : lo + m - 1 + hi] = -math.sqrt(P) * wr  # a pole's coupling to mode 0
    return d, e


class _FourierFactor:
    """LDL^T factor of A + diag(s) for s > 0 constant on every ring: one tridiagonal per angular mode.

    The blocks of ``_mode_tridiagonals`` for the modes 0 .. nphi/2 of the
    real FFT sit in one tridiagonal with zero couplings between them,
    factored once.  As s > 0 and A is semidefinite, each block is
    symmetric positive definite, and LAPACK's dpttrf factors it as LDL^T
    with no pivoting, in place; dpttrs solves for all real and imaginary
    parts at once, in place.
    """

    def __init__(self, op: ConicLaplacianOp, s: Field):
        self.n, self.P, self.m, (self.lo, self.hi) = op.ndof, op.mesh.nphi, op.mesh.nt - 2, op._ends
        d, e = _mode_tridiagonals(op, s, self.P // 2 + 1)
        *self.ldl, info = dpttrf(d.ravel(), e.ravel()[:-1], overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b: Field) -> Field:
        """x with (A + diag(s)) x = b, for b of shape (ndof,) or (ndof, k)."""
        lo, hi, m, P, n = self.lo, self.hi, self.m, self.P, self.n
        x = np.asarray(b, dtype=float).reshape(n, -1)
        k = x.shape[1]
        f = np.fft.rfft(x[lo : n - hi].reshape(m, P, k), axis=1, norm="ortho")  # (ring, mode, column)
        y = np.zeros((2, k, P // 2 + 1, lo + m + hi))  # (real|imag, column, mode, row of its block)
        y[0, :, :, lo : lo + m], y[1, :, :, lo : lo + m] = f.real.T, f.imag.T
        y[0, :, 0, :lo], y[0, :, 0, lo + m :] = x[:lo].T, x[n - hi :].T  # a pole has no imaginary part
        y = dpttrs(*self.ldl, y.reshape(2 * k, -1).T, overwrite_b=1)[0].T.reshape(y.shape)
        f.real[...], f.imag[...] = y[0, :, :, lo : lo + m].T, y[1, :, :, lo : lo + m].T
        out = np.empty((n, k))
        out[:lo], out[n - hi :] = y[0, :, 0, :lo].T, y[0, :, 0, lo + m :].T
        del y  # freed before the inverse FFT allocates
        out[lo : n - hi] = np.fft.irfft(f, n=P, axis=1, norm="ortho").reshape(m * P, k)
        return out.reshape(np.shape(b))


class _BandFactor:
    """Cholesky or LU factor of A + diag(s) as a band: in ring order no entry is more than nphi off the diagonal.

    A ring couples to its neighbour rings at distance nphi, its periodic wrap
    sits at nphi - 1 and a collapsed ring couples to its neighbour's nphi
    dofs, so A + diag(s) is banded with half-bandwidth nphi.  ``op.A``'s CSR
    entries are written into LAPACK's band storage, Fortran ordered so that
    LAPACK factors it in place.  ``positive`` is ``shifted``'s test that
    every s > 0; then the matrix is symmetric positive definite (A is
    semidefinite): its upper entries go to row nphi + i - j of column j,
    (nphi + 1) ndof doubles, and dpbtrf factors them by Cholesky; dpbtrs
    solves.  Otherwise (Newton's indefinite shift) every entry goes to row
    2 nphi + i - j, with nphi rows left for the fill of row interchanges,
    (3 nphi + 1) ndof doubles, and dgbtrf factors it by LU with pivoting;
    dgbtrs solves.
    """

    def __init__(self, op: ConicLaplacianOp, s: Field, positive: bool):
        P = self.P = op.mesh.nphi
        if positive:
            upper, at = op._upper_band_at
            ab = np.zeros((P + 1, op.ndof), order="F")
            ab.reshape(-1, order="F")[at] = op.A.data[upper]
            ab[P] += s
            self.band, info = dpbtrf(ab, overwrite_ab=1)
            self.piv = None
        else:
            ab = np.empty((3 * P + 1, op.ndof), order="F")
            ab[P:] = 0.0  # dgbtrf sets the nphi fill rows above these itself
            ab.reshape(-1, order="F")[op._band_at] = op.A.data
            ab[2 * P] += s
            self.band, self.piv, info = dgbtrf(ab, P, P, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b: Field) -> Field:
        """x with (A + diag(s)) x = b, for b of shape (ndof,) or (ndof, k)."""
        rhs = np.reshape(b, (self.band.shape[1], -1))
        if self.piv is None:
            x, _ = dpbtrs(self.band, rhs)
        else:
            x, _ = dgbtrs(self.band, self.P, self.P, rhs, self.piv)
        return x.reshape(np.shape(b))


def assemble(mesh: FiberMesh, density: DensityLike) -> ConicLaplacianOp:
    """Build the discrete conic Laplacian for a conformal density e^{2 phi0}."""
    return ConicLaplacianOp(mesh, density)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SolveReport:
    solution: Field
    residual_sup: float
    iterations: int
    steps: int
    contraction: Optional[float] = None
    gap: Optional[float] = None
    sup_rhs: Optional[float] = None
    sup_solution: float = 0.0
    bound_ok: bool = True


def _require_finite_tol(tol: float) -> None:
    """Refuse tol <= 0, a NaN (it stops a solve's loop at once) and inf (it accepts the first iterate)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")


def _require_closed_fiber(op: ConicLaplacianOp, what: str) -> None:
    if op._ends != (1, 1):
        raise ValueError(f"{what} needs a closed fiber (both rings collapsed)")


# ---------------------------------------------------------------------------
# Picard iteration (hyperbolic-type correction solves)


def _q_nonlinearity(v: Field) -> Field:
    return -(np.exp(2 * v) - 1.0 - 2.0 * v)


def picard_solve(
    op: ConicLaplacianOp,
    f: Field,
    tol: float = 1e-10,
    maxit: int = 60,
    boundary: Optional[dict[str, Field]] = None,
) -> SolveReport:
    """Fixed-point iteration (Delta + 2) v_{j+1} = f + Q(v_j), Q(v) = -(e^{2v}-1-2v).

    Converges to the bounded solution of Delta v + e^{2v} - 1 = f under the
    contraction the maximum principle provides for small sup|f|; each linear
    solve is direct, on one ``op.shifted(2.0)`` factor built before the first
    iteration: positive definite, so on a rotation-invariant operator it is
    the Fourier factor's LDL^T, with no pivoting.  Dirichlet rings take the
    values in ``boundary``, a dict keyed by the mesh's Dirichlet sides
    "inner"/"outer" (default zero; any other key raises ValueError).  The
    reported residual is recomputed from scratch on the final iterate, and
    the discrete maximum-principle bound sup|v| <= sup|f + Q(v)|/2 + tol is
    checked (it is exact for zero boundary data).  ``tol`` must be positive
    and finite (ValueError otherwise).

    The solve ends when the residual's W-norm per unit area,
    ||r||_W / sqrt(sum W), is at most ``tol``, or when an iterate moves by
    at most ``tol`` in sup norm: the update is the correction, so that
    iterate is within about c/(1 - c) tol of the fixed point, c the
    contraction.  An update of round-off size still above ``tol`` has
    stagnated, and a solve that needs more than ``maxit`` iterations has
    not converged (both NonconvergenceError); a contraction factor of 1 or
    more raises DivergenceError.  ``residual_sup`` is the sup of the final
    iterate's strong residual, which can exceed ``tol`` where W is tiny.
    ``iterations`` and ``steps`` both count the linear solves.
    """
    _require_finite_tol(tol)
    f = np.asarray(f, dtype=float) * np.ones_like(op.density)
    # the boundary data as a grid field, zero off the Dirichlet rings
    lift = np.zeros_like(op.density)
    ring = {side: i for side, i in (("inner", 0), ("outer", -1)) if getattr(op.mesh, side) == "dirichlet"}
    for side, values in (boundary or {}).items():
        if side not in ring:
            raise ValueError(f"boundary key {side!r} is not a dirichlet side of the mesh")
        lift[ring[side], :] = values
    b_lift = op.weak_form(lift)
    lu = op.shifted(2.0)
    eps, area = float(np.finfo(float).eps), float(np.sum(op.W))

    # each iterate's grid field, f + Q(v) and load vector, computed once for every use below
    v = np.zeros(op.ndof)
    v_grid = op.dof_to_grid(v) + lift
    rhs_grid = f + _q_nonlinearity(v_grid)
    load = op.ring_sum(rhs_grid * op.cell_mass)
    prev_delta = None
    contraction = 0.0
    iterations = 0
    while True:
        if iterations >= maxit:
            raise NonconvergenceError(f"no convergence in {maxit} Picard iterations")
        iterations += 1
        v_new = lu.solve(load - b_lift)
        delta = float(np.max(np.abs(v_new - v)))
        roundoff = eps * (1.0 + float(np.max(np.abs(v_new))))
        if prev_delta is not None and prev_delta > 0 and delta > 0:
            contraction = delta / prev_delta
            if contraction >= 1.0 and delta > max(tol, 1e3 * roundoff):
                raise DivergenceError(f"contraction factor {contraction:.3f} >= 1 at iteration {iterations}")
        v, prev_delta = v_new, delta
        v_grid = op.dof_to_grid(v) + lift
        rhs_grid = f + _q_nonlinearity(v_grid)
        load = op.ring_sum(rhs_grid * op.cell_mass)
        # Delta v + 2v - f - Q(v), rebuilt from scratch in the weak form
        resid = op.weak_form(v_grid) / op.W + 2.0 * v - load / op.W
        if delta <= tol or float(resid @ (op.W * resid)) <= tol * tol * area:
            break
        if delta <= roundoff:
            raise NonconvergenceError(
                f"stagnated at residual {float(np.max(np.abs(resid))):.3e}: tol is below round-off"
            )

    sup_rhs = float(np.max(np.abs(rhs_grid)))
    sup_v = float(np.max(np.abs(v_grid)))
    return SolveReport(
        solution=v_grid,
        residual_sup=float(np.max(np.abs(resid))),
        iterations=iterations,
        steps=iterations,
        contraction=contraction,
        sup_rhs=sup_rhs,
        sup_solution=sup_v,
        bound_ok=sup_v <= 0.5 * sup_rhs + tol,
    )


def hyperbolic_correction_solve(
    mesh: FiberMesh, beta: float, profile: Callable[[Field], Field], tol: float = 1e-10
) -> SolveReport:
    """Hyperbolic cone metric r^{2(beta-1)} e^{2u} |dz|^2 in correction form.

    u_approx = profile(rfrak) is the approximate one-cone conformal factor at
    rfrak = r^beta / beta: ``phg.u0_value``, or a ``phg.u0_truncated`` partial.
    With gtilde = e^{2 u_approx} g0 for the flat cone g0 = r^{2(beta-1)} |dz|^2,
    the correction v = u - u_approx solves
    Delta_tilde v + 2v = -(K_tilde + 1) - (e^{2v} - 1 - 2v), v = 0 on
    Dirichlet rings, by ``picard_solve``.  The discrete curvature K_tilde at
    a collapsed inner ring includes the cone's distributional curvature;
    that delta belongs to the background, so the exact flux of the conic
    part is removed from the pole row.  beta <= 0, and a mesh that reaches
    the closing radius rfrak = 2, are refused with ValueError.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    r, _ = mesh.grids()
    rfrak = r**beta / beta
    if np.max(rfrak) >= 2.0:
        raise ValueError("mesh reaches the closing radius of the hyperbolic cone")
    u_approx = profile(rfrak) * np.ones((mesh.nt, mesh.nphi))
    cone_part = (beta - 1.0) * np.log(r) * np.ones((mesh.nt, mesh.nphi))
    op = assemble(mesh, np.exp(2.0 * cone_part + 2.0 * u_approx))
    K_tilde = op.weak_form(cone_part + u_approx) / op.W
    if mesh.inner == "pole":  # the inner ring's dof is the first
        K_tilde[0] -= op.weak_form(cone_part)[0] / op.W[0]
    return picard_solve(op, op.dof_to_grid(-(K_tilde + 1.0)), tol=tol)


# ---------------------------------------------------------------------------
# eigenvalue gap


def eigen_gap(op: ConicLaplacianOp) -> float:
    """Smallest nonzero eigenvalue of the weighted Laplacian on a closed fiber.

    Requires both rings collapsed (the surface is closed).  The eigenproblem
    is A x = lambda W x.  When W is exactly constant on every ring (a
    rotation-invariant density: the round sphere, the footballs) it
    separates by angular mode, with the blocks of ``_mode_tridiagonals``
    and each row's ring mass: mode 0 is the poles plus the ring means,
    whose smallest eigenvalue is the constants' 0, and modes k >= 1 are the
    interior rings alone (the identity pole rows the factor puts there are
    no eigenvalues).  Mode k's block is mode 1's plus
    2 wa (cos(2 pi / nphi) - cos(2 pi k / nphi)) I, a nonnegative multiple
    of the identity on the same rows with the same W, so no eigenvalue of
    it is below mode 1's smallest.  The gap is therefore the smaller of
    mode 0's second eigenvalue and mode 1's first.  Each block, scaled by
    W^{-1/2} on both sides, goes to LAPACK's bisection (dstebz, through
    ``scipy.linalg.eigh_tridiagonal``) with the smallest positive tolerance.
    The default, eps ||T||, is too loose: small pole masses W make ||T||
    large.

    Otherwise the gap is the smallest eigenvalue on the W-orthogonal
    complement of the constants, found by ARPACK's Lanczos in standard mode
    on one ``op.shifted(1e-3)`` factor: the shift is positive, so on rings
    of at most ``_BAND_MAX_NPHI`` nodes it is a band Cholesky, whose solves
    read a third of an LU band.  In y = W^{1/2} x the pencil's inverse at
    -1e-3 is the symmetric S = W^{1/2} (A + 1e-3 W)^{-1} W^{1/2}, so ARPACK
    makes no mass products; its largest eigenvalue theta on the complement
    gives the gap -1e-3 + 1/theta.  The constants' 0 is known exactly, so
    it is left out rather than resolved: their unit vector
    W^{1/2} 1 / sqrt(sum W) is removed from the start vector and from every
    product, and ARPACK is asked for one eigenvalue.  S maps the complement
    to itself, so the removal only keeps round-off from growing the
    constants back.  The start vector is fixed, so no random start is
    drawn.  ARPACK's failure to converge raises NonconvergenceError.
    """
    _require_closed_fiber(op, "eigen_gap")
    n = op.ndof
    if op._constant_on_rings(op.W):
        d, e = _mode_tridiagonals(op, np.zeros(n), 2)
        w = op.W[np.r_[0, 1 : n - 1 : op.mesh.nphi, n - 1]]  # the mass of each block row
        root = np.sqrt(w)
        d, e = d / w, e[:, :-1] / (root[:-1] * root[1:])
        bisect = {"eigvals_only": True, "select": "i", "tol": np.finfo(float).tiny}
        mode0 = eigh_tridiagonal(d[0], e[0], select_range=(1, 1), **bisect)[0]
        mode1 = eigh_tridiagonal(d[1, 1:-1], e[1, 1:-1], select_range=(0, 0), **bisect)[0]  # rings only
        return float(min(mode0, mode1))
    lu, root = op.shifted(1e-3), np.sqrt(op.W)
    unit = root / math.sqrt(np.sum(op.W))  # the constants, in y = W^{1/2} x

    def deflated(y: Field) -> Field:  # y minus its part along the constants
        return y - (unit @ y) * unit

    inverse = spla.LinearOperator((n, n), matvec=lambda y: deflated(root * lu.solve(root * y)), dtype=float)
    try:
        # ncv = 10 takes the fewest solves on acceptance 8's series (CHANGES.md, "Lanczos vectors")
        theta = spla.eigsh(
            inverse, k=1, ncv=10, v0=deflated(root * np.cos(np.arange(n))), tol=1e-10,
            return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise NonconvergenceError("Lanczos did not converge") from exc
    return float(-1e-3 + 1.0 / theta[0])


# ---------------------------------------------------------------------------
# spherical Newton solver


# factor budget of the spherical Newton, kept and rejected steps alike (a step
# on a held factor builds none and is not counted)
_NEWTON_MAXIT = 60
# the damping shift's start, 1e-3 of the reduced Hessian's scale (CHANGES.md, "Damping start")
_NEWTON_TAU0 = 1e-3
# a factor is held while its steps cut the residual's W-norm by this (CHANGES.md, "Factor hold")
_NEWTON_HOLD = 0.1
# a solved spherical metric is refused when its spectral gap is <= 2 + this
_GAP_MARGIN = 0.05


def newton_solve_spherical(op: ConicLaplacianOp, K0: Field, tol: float = 1e-10) -> SolveReport:
    """Damped Newton for Delta u + K0 - e^{2u} = 0 on a closed fiber, from u = 0.

    The equation is the Euler-Lagrange equation of the Liouville energy
    F(u) = u.Au/2 + sum W K0 u - sum W e^{2u}/2, which is concave along the
    constants.  Every iterate is moved along them to the maximum of F,
    u += log(M / sum W e^{2u})/2 with M = sum W K0 (discrete Gauss-Bonnet:
    A annihilates constants on a closed fiber), and the step is Newton's for
    F reduced over the constants:
    (A + W (tau - 2 e^{2u}) + 2 q q^T / M) d = -W r with q = W e^{2u}, one
    ``op.shifted`` factor for both right-hand sides plus a Sherman-Morrison
    update.  The shift is indefinite, so on any density, radial or not, the
    factor is a band LU on rings of at most ``_BAND_MAX_NPHI`` nodes and
    SuperLU's on wider ones.  That Hessian is positive at a solution whose
    spectral gap exceeds 2, so the shift tau, which starts at
    ``_NEWTON_TAU0``, only damps: a step is kept when the W-norm of the
    residual drops (tau shrinks by 0.3), otherwise it is rejected and tau
    grows by 4.

    A factor whose step cut the W-norm at least tenfold (``_NEWTON_HOLD``)
    is held, with its q, z and Sherman-Morrison denominator, and the next
    step solves on it for -W r alone (Newton-chord, Shamanskii's method).
    A held step that again cuts tenfold is kept and the factor held again;
    one that at least halves the W-norm is kept and the factor dropped; one
    that does not is discarded, neither a rejection nor a change of tau,
    and redone on a fresh factor.  Every factor is dropped, with no alias
    left, before the next is built, so one factor is alive at a time.  Each
    held step cuts the W-norm tenfold, so they need no budget of their own.

    The solve has converged when the residual's W-norm per unit area,
    ||r||_W / sqrt(sum W), is at most ``tol``, or when an undamped Newton
    correction moves u by at most ``tol`` in sup norm (Deuflhard's
    correction test): a step on a fresh factor built at
    tau <= ``_NEWTON_TAU0``, whose iterate is taken only if the step is
    kept.  When that is the step from the start, nothing was solved
    (NonconvergenceError).  60 factors, or 16 rejections in a row, are a
    stall (NonconvergenceError).  ``residual_sup`` is the sup of the final
    iterate's strong residual, which can exceed ``tol`` where W is tiny.
    ``iterations`` counts the factors built, fresh steps kept or rejected;
    ``steps`` counts every step tried, fresh or held.

    K0 is the smooth curvature of the background on the grid; ValueError is
    raised unless sum W K0 > 0, and unless 0 < ``tol`` < inf.  The football
    refusal (spectral gap of the solved metric) is ``spherical_cone_solve``'s.
    """
    _require_finite_tol(tol)
    _require_closed_fiber(op, "the spherical solve")
    W = op.W
    K0_dof = op.ring_sum(np.asarray(K0, dtype=float) * op.cell_mass) / W  # mass average

    def residual_dof(u_dof: Field) -> Field:
        with np.errstate(over="ignore", invalid="ignore"):
            return op.A @ u_dof / W + K0_dof - np.exp(2 * u_dof)

    M = float(W @ K0_dof)
    if not M > 1e-8 * float(W @ np.abs(K0_dof)):
        # the area of a curvature-one metric, up to rounding relative to |K0|
        raise ValueError(f"total curvature sum W K0 = {M:.3e} is not positive: no spherical metric")

    def normalized(u_dof: Field) -> Field:
        with np.errstate(all="ignore"):
            return u_dof + 0.5 * np.log(M / float(W @ np.exp(2 * u_dof)))

    def l2w(res: Field) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(res @ (W * res))
        return math.sqrt(val) if math.isfinite(val) else math.inf

    def factored(u_dof: Field, res: Field, tau: float) -> tuple[tuple, Field]:
        """A fresh factor at u with q = W e^{2u}, its z solving for q and 1 + 2 q.z / M; and its y solving for -W res."""
        e2u = np.exp(2 * u_dof)
        q = W * e2u
        factor = op.shifted(tau - 2.0 * e2u)
        y, z = factor.solve(np.column_stack([-(W * res), q])).T
        return (factor, q, z, 1.0 + 2.0 * (q @ z) / M), y

    u = normalized(np.zeros(op.ndof))
    res = residual_dof(u)
    res_l2, target = l2w(res), tol * math.sqrt(float(np.sum(W)))  # the W-norm per unit area at most tol
    tau, rejections, iterations, steps = _NEWTON_TAU0, 0, 0, 0
    held = None  # factored()'s tuple while its steps cut the residual by _NEWTON_HOLD
    while res_l2 > target:
        fresh = held is None
        steps += 1
        with np.errstate(over="ignore", invalid="ignore"):
            if not fresh:
                y = held[0].solve(-(W * res))
            elif iterations >= _NEWTON_MAXIT or rejections >= 16:
                raise NonconvergenceError(f"Newton stalled at residual {float(np.max(np.abs(res))):.3e}")
            else:
                iterations += 1
                try:  # no factor is alive here, so one is alive at a time
                    held, y = factored(u, res, tau)
                except RuntimeError:  # exactly singular: a rejected step
                    tau, rejections = min(4.0 * tau, 1e9), rejections + 1
                    continue
            # Sherman-Morrison for the rank-one term 2 q q^T / M; no alias of the factor
            q, z, denominator = held[1:]
            u_new = normalized(u + y - z * (2.0 * (q @ y) / M) / denominator)
        res_new = residual_dof(u_new)
        l2_new = l2w(res_new)
        kept = l2_new < res_l2 if fresh else l2_new <= 0.5 * res_l2
        if fresh and tau <= _NEWTON_TAU0 and float(np.max(np.abs(u_new - u))) <= tol:  # an undamped correction
            if steps == 1:
                sup = float(np.max(np.abs(res)))
                raise NonconvergenceError(
                    f"the step from the start moves u by at most tol at residual {sup:.3e}: nothing was solved"
                )
            if kept:
                u, res = u_new, res_new
            break
        if not (kept and l2_new <= _NEWTON_HOLD * res_l2):
            held = None  # dropped before the next factor is built
        if kept:
            u, res, res_l2 = u_new, res_new, l2_new
        if fresh and kept:
            tau, rejections = max(0.3 * tau, 1e-12), 0
        elif fresh:
            tau, rejections = min(4.0 * tau, 1e9), rejections + 1
    u_grid = op.dof_to_grid(u)
    return SolveReport(
        solution=u_grid,
        residual_sup=float(np.max(np.abs(res))),
        iterations=iterations,
        steps=steps,
        sup_solution=float(np.max(np.abs(u_grid))),
    )


def spherical_cone_solve(
    betas: Sequence[RationalLike],
    finite_points: Sequence[complex],
    mesh: FiberMesh,
    tol: float = 1e-10,
) -> SolveReport:
    """Solve for the spherical metric with prescribed cone data on the sphere.

    The singular background at the target angles carries the cones; the
    bounded conformal factor u solves Delta u + K0 - e^{2u} = 0 by one run of
    ``newton_solve_spherical`` from u = 0.  Where the subcritical (Troyanov,
    Luo-Tian) condition holds the reduced Liouville energy is coercive and
    its minimiser is the metric.  ``cones.verdict`` decides existence before
    any solve, and the background is built, on the same exact angles (floats
    snapped by ``to_fraction``): a parameter that is not positive raises
    ValueError, as do angles with chi(beta) = 2 + sum(beta_i - 1) <= 0
    (Gauss-Bonnet leaves no positive area), whatever the largest beta.  A
    point with beta = 1 is smooth: it stays in the background, where its
    terms vanish, but counts as no cone below.  No cone or two of equal
    angles raise FootballDegeneracyError, and one cone point (the
    teardrop), two of unequal angles, or all cones' beta < 1 against the
    Luo-Tian inequalities raise ValueError, because no metric exists.  The
    gap of the solved metric is computed on ``op.conformal(u)``, which
    shares Newton's stiffness, so one A is built per solve, and the solve
    is rejected at or below 2 + _GAP_MARGIN (football degeneracy).
    """
    exact = ConeData.of(0, betas, 1).beta
    status, _ = verdict(0, 1, exact)
    named = ", ".join(map(str, betas))
    cones = [b for b in exact if b != 1]  # an angle of 2 pi is a smooth point
    if status is MergeStatus.FOOTBALL_BOUNDARY:
        what = "two equal cone angles" if cones else "no cone point"
        raise FootballDegeneracyError(f"{what}: the degenerate family with spectral gap exactly 2")
    if status is MergeStatus.GAUSS_BONNET_VIOLATED:
        raise ValueError(f"cone angles {named} have chi(beta) <= 0: Gauss-Bonnet leaves no spherical metric")
    if len(cones) == 1:
        raise ValueError(f"one cone point of angle {cones[0]}: no spherical metric has exactly one cone point")
    if status is not MergeStatus.ADMISSIBLE and (len(cones) == 2 or max(cones) < 1):
        raise ValueError(f"cone angles {named} violate the Luo-Tian inequalities: no spherical metric")
    density, K0 = singular_sphere_background(exact, finite_points)
    op = assemble(mesh, density)
    report = newton_solve_spherical(op, K0(*mesh.grids()), tol=tol)
    report.gap = eigen_gap(op.conformal(report.solution))
    if report.gap <= 2.0 + _GAP_MARGIN:
        raise FootballDegeneracyError(
            f"solved metric has spectral gap {report.gap:.6f} <= 2 + margin = {2 + _GAP_MARGIN:.2f}"
        )
    return report


# ---------------------------------------------------------------------------
# decay / conormality report


@dataclass
class DecayReport:
    value_slope: float
    pair_slopes: tuple[float, ...]
    bderiv_slopes: tuple[float, float]  # (t-derivative, phi-derivative)
    passes: bool


def decay_check(family: Sequence[tuple[float, Field]], n_target: int) -> DecayReport:
    """Log-log decay rate of sup|field| and of its first discrete b-derivatives.

    The sups over interior rows go through ``extrapolate.decay_verdict``,
    which refuses fewer than three samples, rho values that do not decrease
    geometrically and a zero sup; passes when the value slope is at least
    n_target - 0.1.  Report-only: never raises on a failed slope.
    """
    rhos = [float(r) for r, _ in family]
    sups = []
    sups_dt = []
    sups_dp = []
    for _, f in family:
        f = np.asarray(f, dtype=float)
        interior = f[1:-1, :]
        sups.append(float(np.max(np.abs(interior))))
        dt = (f[2:, :] - f[:-2, :]) / 2.0
        dp = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1))[1:-1, :] / 2.0
        sups_dt.append(float(np.max(np.abs(dt))))
        sups_dp.append(float(np.max(np.abs(dp))))
    value_slope, pair_slopes, passes = decay_verdict(rhos, sups, n_target)
    slope_dt = least_squares_slope(rhos, sups_dt) if min(sups_dt) > 0 else math.inf
    slope_dp = least_squares_slope(rhos, sups_dp) if min(sups_dp) > 0 else math.inf
    return DecayReport(
        value_slope=value_slope,
        pair_slopes=tuple(pair_slopes),
        bderiv_slopes=(slope_dt, slope_dp),
        passes=passes,
    )


# ---------------------------------------------------------------------------
# reference densities on the conformal plane


def round_sphere_density(r: Field, phi: Optional[Field] = None) -> Field:
    """e^{2 phi0} of the round unit sphere in the stereographic chart."""
    return 4.0 / (1.0 + r**2) ** 2


def football_density(beta: float) -> Callable[[Field, Field], Field]:
    """Constant-curvature-one density with equal cone angles at 0 and infinity."""
    b = float(beta)

    def density(r: Field, phi: Field) -> Field:
        rb = r**b
        return 4.0 * b * b * r ** (2 * (b - 1)) / (1.0 + rb * rb) ** 2

    return density


def singular_sphere_background(
    betas: Sequence[RationalLike], finite_points: Sequence[complex]
) -> tuple[Callable[[Field, Field], Field], Callable[[Field, Field], Field]]:
    """Conic background on the sphere: cones at the finite points and infinity.

    betas lists the parameters of the finite points followed by the one at
    infinity; floats are snapped by ``to_fraction``.  Returns (density, K0):
    the log density is log(4/(1+r^2)^2) + 2 G - c log(1+r^2), the round
    sphere times e^{2G} for the cone potential G = ``flat.green_factor`` of
    the finite cones, with c = sum(beta_i - 1) taken exactly, and K0 is its
    curvature, which has the closed form
    (chi(beta)/2) * e^{2(phi_round - phi0)} away from the cone points.  The
    finite cones are a ``flat.FlatConicMetric``, so no finite point, one
    that is not finite or repeated, and a finite beta <= 0 raise ValueError.
    """
    if len(betas) != len(finite_points) + 1:
        raise ValueError("need one more beta than finite points (the last is at infinity)")
    cones = FlatConicMetric.of(finite_points, betas[:-1])
    c = sum(cones.beta) + to_fraction(betas[-1])[0] - len(betas)
    chi_beta, c = float(2 + c), float(c)

    def log_density(r: Field, phi: Field) -> Field:
        g = green_factor(cones, r * np.exp(1j * phi))
        return np.log(4.0 / (1.0 + r**2) ** 2) + 2.0 * g - c * np.log1p(r**2)

    def density(r: Field, phi: Field) -> Field:
        return np.exp(log_density(r, phi))

    def K0(r: Field, phi: Field) -> Field:
        log_round = np.log(4.0 / (1.0 + r**2) ** 2)
        return 0.5 * chi_beta * np.exp(log_round - log_density(r, phi))

    return density, K0


# ---------------------------------------------------------------------------
# merging-pair residual family (decay verification for coalescing cones)


@dataclass
class MergingFamily:
    """Residual fields of truncated approximate solutions as the pair merges.

    ``families[N]`` lists (rho, residual field) for the order-N truncation.
    """

    families: dict[int, list[tuple[float, Field]]]


def merging_pair_residual_family(
    beta1: float,
    beta2: float,
    rhos: Sequence[float],
    mesh: Optional[FiberMesh] = None,
    tol: float = 1e-12,
) -> MergingFamily:
    """Curvature residuals of order-N approximate solutions, N = 1, 2, on an annulus.

    The background is the exact flat two-point metric with the pair at
    +-rho; its merged limit is the one-cone metric with parameter
    beta1 + beta2 - 1.  The order-1 approximate solution is the discrete
    hyperbolic conformal factor of the limit (``hyperbolic_correction_solve``
    around the exact limit); order 2 adds rho times the discrete solution of
    the linearized transverse equation.  Because both pieces satisfy their
    discrete equations to solver precision, the discrete curvature residual
    Delta_rho u + e^{2u} of the order-N truncation decays like rho^N with no
    discretization floor.
    """
    b1, b2 = float(beta1), float(beta2)
    b0 = b1 + b2 - 1.0
    if b0 <= 0:
        raise ValueError("the pair is not admissible (merged parameter <= 0)")
    if mesh is None:
        mesh = FiberMesh(0.2, 0.7, 161, 48, inner="dirichlet", outer="dirichlet")
    if mesh.inner != "dirichlet" or mesh.outer != "dirichlet":
        raise ValueError("the annulus study needs dirichlet rings")
    rr, pp = mesh.grids()
    if max(rhos) >= 0.75 * mesh.r_min:
        raise ValueError("rho values must stay well inside the annulus hole")

    # exact merged-limit conformal factor, used as boundary data and seed
    u0_grid = u0_value(rr**b0 / b0) + hyperbolic_correction_solve(mesh, b0, u0_value, tol=tol).solution

    # limit background density e^{2 G0}
    op0 = assemble(mesh, np.exp(2.0 * (b0 - 1.0) * np.log(rr) * np.ones_like(u0_grid)))

    # linearized transverse equation: (A + 2 W0 e^{2u0}) u1 = -(A G1 + 2 W0 e^{2u0} G1);
    # the merged limit is rotation-invariant, so u0 is taken at its ring mean
    # (its solve leaves round-off off the rings) and the shift factors by FFT
    g1 = (b2 - b1) * np.cos(pp) / rr * np.ones_like(u0_grid)
    u0_ring = np.broadcast_to(u0_grid.mean(axis=1, keepdims=True), u0_grid.shape)
    shift = op0.grid_to_dof(2.0 * np.exp(2.0 * u0_ring))
    u1 = op0.shifted(shift).solve(-(op0.weak_form(g1) + shift * op0.W * op0.grid_to_dof(g1)))
    u1_grid = op0.dof_to_grid(u1)

    families: dict[int, list[tuple[float, Field]]] = {1: [], 2: []}
    z = rr * np.exp(1j * pp)
    for rho in map(float, rhos):
        log_density_rho = 2.0 * green_factor(FlatConicMetric.of((rho, -rho), (b1, b2)), z)  # the pair at +-rho
        mass_rho = op0.ring_sum(_lumped_mass(mesh, np.exp(log_density_rho)))
        for order, u in ((1, u0_grid), (2, u0_grid + rho * u1_grid)):
            # weak residual of Delta_rho u + e^{2u} + K_rho(=0): A (G_rho + u) + W_rho e^{2u}
            phi = 0.5 * log_density_rho + u
            res_dof = op0.weak_form(phi) / mass_rho + op0.grid_to_dof(np.exp(2 * u))
            families[order].append((rho, op0.dof_to_grid(res_dof)))
    return MergingFamily(families)
