"""Discrete conic Laplacians on log-polar fiber meshes and Liouville solvers.

A fiber surface is discretized in log-radius t = log r (uniform) and a
periodic angle phi.  Conformally, the Dirichlet energy is the flat (t, phi)
energy, so the stiffness matrix is density-independent; the metric enters
only through the lumped mass weights density * e^{2t}.  Cone tips and
sphere closures are modelled by collapsing a boundary ring to a single
unknown: the angular fluctuations vanish there (they decay like a positive
power of r) while the ring constant keeps the natural zero-flux condition.
That is the discrete counterpart of the bounded-leading-behavior domain.

Sign conventions: ``ConicLaplacianOp.weak_laplacian_dof`` returns
(A x + B g) / W, the geometer's nonnegative Laplacian
Delta = -e^{-2 phi0} r^{-2} ((r d/dr)^2 + d^2/dphi^2), which sends
r^a cos(m phi) to (m^2 - a^2) r^{a-2} cos(m phi).  It is used in all
equations: curvature equations are written as Delta u + e^{2u} + K0 = 0
(hyperbolic) and Delta u + K0 - e^{2u} = 0 (spherical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .extrapolate import least_squares_slope, loglog_slopes

__all__ = [
    "FiberMesh",
    "ConicLaplacianOp",
    "SolveReport",
    "DecayReport",
    "RadialProfile",
    "assemble",
    "picard_solve",
    "hyperbolic_correction_solve",
    "newton_solve_spherical",
    "spherical_cone_solve",
    "eigen_gap",
    "decay_check",
    "radial_hyperbolic",
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


class DivergenceError(RuntimeError):
    """Picard contraction factor reached 1."""


class NonconvergenceError(RuntimeError):
    """Iteration budget exhausted before the residual target."""


class FootballDegeneracyError(RuntimeError):
    """Spectral-gap guard refused a solve at or below the degenerate gap."""


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
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
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


class ConicLaplacianOp:
    """Discrete conic Laplacian: flat (t, phi) stiffness + metric mass.

    The stiffness A is assembled from the Dirichlet energy with edge
    weights hp/ht (radial) and ht/hp (angular); A is symmetric positive
    semidefinite and annihilates constants when both rings are collapsed.
    The lumped mass is density * e^{2t} * ht * hp with half cells at the
    end rings (a collapsed ring's unknown carries its whole ring mass; the
    area below the truncation radius is dropped).
    """

    def __init__(self, mesh: FiberMesh, density: DensityLike):
        self.mesh = mesh
        self.density = _density_array(mesh, density)
        self._build_dofs()
        self._build_matrices()

    # -- layout -------------------------------------------------------------
    def _build_dofs(self) -> None:
        mesh = self.mesh
        nt, P = mesh.nt, mesh.nphi
        self.dof_of = np.full((nt, P), -1, dtype=int)
        self.fixed_of = np.full((nt, P), -1, dtype=int)
        ndof = 0
        nfix = 0
        self.inner_pole_dof = self.outer_pole_dof = -1
        if mesh.inner == "pole":
            self.inner_pole_dof = ndof
            self.dof_of[0, :] = ndof
            ndof += 1
        else:
            self.fixed_of[0, :] = np.arange(P)
            nfix += P
        for i in range(1, nt - 1):
            self.dof_of[i, :] = np.arange(ndof, ndof + P)
            ndof += P
        if mesh.outer == "pole":
            self.outer_pole_dof = ndof
            self.dof_of[nt - 1, :] = ndof
            ndof += 1
        else:
            self.fixed_of[nt - 1, :] = np.arange(nfix, nfix + P)
            nfix += P
        self.ndof = ndof
        self.nfixed = nfix

    # -- assembly -----------------------------------------------------------
    def _build_matrices(self) -> None:
        mesh = self.mesh
        nt, P = mesh.nt, mesh.nphi
        # edges as node pairs: radial (i, j)-(i+1, j), then angular (i, j)-(i, j+1)
        node = np.arange(nt * P).reshape(nt, P)
        n1 = np.concatenate([node[:-1].ravel(), node.ravel()])
        n2 = np.concatenate([node[1:].ravel(), np.roll(node, -1, axis=1).ravel()])
        w = np.repeat([mesh.hp / mesh.ht, mesh.ht / mesh.hp], [(nt - 1) * P, nt * P])
        dof, fixed = self.dof_of.ravel(), self.fixed_of.ravel()
        a, b = dof[n1], dof[n2]
        keep = a != b  # drops edges collapsed onto one unknown
        a, b, w = a[keep], b[keep], w[keep]
        fa, fb = fixed[n1[keep]], fixed[n2[keep]]
        # per edge (a,a,w), (a,b,-w), (b,b,w), (b,a,-w); a coupling to a
        # prescribed ring node goes to B.  This entry order fixes the order
        # in which duplicates are summed.
        pa, pb = a >= 0, b >= 0
        rows = np.stack([a, a, b, b], axis=1)
        cols = np.stack([a, np.where(pb, b, fb), b, np.where(pa, a, fa)], axis=1)
        vals = np.stack([w, -w, w, -w], axis=1)
        none = np.zeros_like(pa)
        in_a = np.stack([pa, pa & pb, pb, pa & pb], axis=1)
        in_b = np.stack([none, pa & ~pb, none, pb & ~pa], axis=1)
        self.A = sp.csr_matrix((vals[in_a], (rows[in_a], cols[in_a])), shape=(self.ndof, self.ndof))
        self.B = sp.csr_matrix((vals[in_b], (rows[in_b], cols[in_b])), shape=(self.ndof, self.nfixed))

        # grid -> dof summation: R @ field.ravel() sums each dof's nodes
        nodes = np.flatnonzero(dof >= 0)
        self.R = sp.csr_matrix((np.ones(nodes.size), (dof[nodes], nodes)), shape=(self.ndof, nt * P))

        cell = self.density * np.exp(2 * mesh.t)[:, None] * mesh.ht * mesh.hp
        cell[0, :] *= 0.5
        cell[-1, :] *= 0.5
        self.cell_mass = cell
        self.W = self.R @ cell.ravel()

    # -- grid <-> dof transfer ----------------------------------------------
    def grid_to_dof(self, u: Field) -> Field:
        out = np.zeros(self.ndof)
        mask = self.dof_of >= 0
        out[self.dof_of[mask]] = u[mask]  # pole rings are constant, any copy works
        return out

    def dof_to_grid(self, x: Field, boundary: Optional[dict[str, Field]] = None) -> Field:
        mesh = self.mesh
        u = np.zeros((mesh.nt, mesh.nphi))
        mask = self.dof_of >= 0
        u[mask] = x[self.dof_of[mask]]
        boundary = boundary or {}
        if mesh.inner == "dirichlet":
            u[0, :] = boundary.get("inner", 0.0)
        if mesh.outer == "dirichlet":
            u[-1, :] = boundary.get("outer", 0.0)
        return u

    def fixed_values(self, boundary: Optional[dict[str, Field]] = None) -> Field:
        g = np.zeros(self.nfixed)
        boundary = boundary or {}
        mesh = self.mesh
        if mesh.inner == "dirichlet":
            g[self.fixed_of[0, :]] = boundary.get("inner", 0.0)
        if mesh.outer == "dirichlet":
            g[self.fixed_of[-1, :]] = boundary.get("outer", 0.0)
        return g

    # -- operator action and shifted factorizations ---------------------------
    def weak_laplacian_dof(self, x: Field, g: Optional[Field] = None) -> Field:
        """(A x + B g) / W: the nonnegative Laplacian in dof space."""
        out = self.A @ x
        if self.nfixed and g is not None:
            out += self.B @ g
        return out / self.W

    def shifted(self, shift: Union[float, Field]) -> spla.SuperLU:
        """Sparse LU factorization of A + diag(shift * W).

        ``shift`` is a scalar or a per-dof array; the factor is the weak
        form of Delta + shift with the Dirichlet rings eliminated.
        """
        return spla.splu((self.A + sp.diags(shift * self.W)).tocsc())


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
    contraction: Optional[float] = None
    contraction_history: tuple[float, ...] = ()
    gap: Optional[float] = None
    sup_rhs: float = 0.0
    sup_solution: float = 0.0
    bound_ok: bool = True
    n_target: Optional[int] = None
    message: str = ""


# ---------------------------------------------------------------------------
# Picard iteration (hyperbolic-type correction solves)


def _q_nonlinearity(v: Field) -> Field:
    return -(np.exp(2 * v) - 1.0 - 2.0 * v)


def picard_solve(
    op: ConicLaplacianOp,
    f: Field,
    n_target: Optional[int] = None,
    tol: float = 1e-10,
    maxit: int = 60,
    boundary: Optional[dict[str, Field]] = None,
) -> SolveReport:
    """Fixed-point iteration (Delta + 2) v_{j+1} = f + Q(v_j), Q(v) = -(e^{2v}-1-2v).

    Converges to the bounded solution of Delta v + e^{2v} - 1 = f under the
    contraction the maximum principle provides for small sup|f|; each linear
    solve is direct.  Dirichlet rings take the values in ``boundary``
    (default zero).  The reported residual is recomputed from scratch on
    the final iterate, and the discrete maximum-principle bound
    sup|v| <= sup|f + Q(v)|/2 + tol is checked (it is exact for zero
    boundary data).
    """
    f = np.asarray(f, dtype=float) * np.ones_like(op.density)
    g_fixed = op.fixed_values(boundary) if op.nfixed else None
    lu = op.shifted(2.0)

    def solve_dof(g_grid: Field) -> Field:
        b = op.R @ (g_grid * op.cell_mass).ravel()
        if g_fixed is not None:
            b -= op.B @ g_fixed
        return lu.solve(b)

    def recomputed_residual(v_dof: Field, v_grid: Field) -> float:
        # Delta v + 2v - f - Q(v), rebuilt from scratch in the weak form
        rhs_grid = f + _q_nonlinearity(v_grid)
        resid = op.weak_laplacian_dof(v_dof, g_fixed) + 2.0 * v_dof - _restrict(op, rhs_grid)
        return float(np.max(np.abs(resid)))

    abs_a = abs(op.A)

    def roundoff_floor(v_dof: Field, rhs_sup: float) -> float:
        amp = (abs_a @ np.abs(v_dof)) / op.W + 2.0 * np.abs(v_dof)
        return float(np.finfo(float).eps) * (float(np.max(amp)) + rhs_sup)

    v = np.zeros(op.ndof)
    prev_delta = None
    history: list[float] = []
    residual = math.inf
    iterations = 0
    while True:
        if iterations >= maxit:
            raise NonconvergenceError(f"no convergence in {maxit} Picard iterations")
        iterations += 1
        v_grid = op.dof_to_grid(v, boundary)
        v_new = solve_dof(f + _q_nonlinearity(v_grid))
        delta = float(np.max(np.abs(v_new - v)))
        if prev_delta is not None and prev_delta > 0 and delta > 0:
            ratio = delta / prev_delta
            history.append(ratio)
            noise = 1e3 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(v_new))))
            if ratio >= 1.0 and delta > max(tol, noise):
                raise DivergenceError(f"contraction factor {ratio:.3f} >= 1 at iteration {iterations}")
        v, prev_delta = v_new, delta
        v_grid_new = op.dof_to_grid(v, boundary)
        residual = recomputed_residual(v, v_grid_new)
        if residual <= tol:
            break
        if delta <= np.finfo(float).eps * (1.0 + float(np.max(np.abs(v)))):
            # stagnated; acceptable only when the residual sits at the
            # floating-point evaluation floor of the residual expression
            rhs_sup = float(np.max(np.abs(f + _q_nonlinearity(v_grid_new))))
            if residual <= 1000.0 * roundoff_floor(v, rhs_sup):
                break
            raise NonconvergenceError(
                f"stagnated at residual {residual:.3e} above the evaluation floor"
            )
    if residual > tol and iterations >= maxit:
        raise NonconvergenceError(f"final residual {residual:.3e} exceeds tol {tol:.1e}")

    v_grid = op.dof_to_grid(v, boundary)
    rhs_grid = f + _q_nonlinearity(v_grid)
    sup_rhs = float(np.max(np.abs(rhs_grid)))
    sup_v = float(np.max(np.abs(v_grid)))
    contraction = history[-1] if history else 0.0
    return SolveReport(
        solution=v_grid,
        residual_sup=residual,
        iterations=iterations,
        contraction=contraction,
        contraction_history=tuple(history),
        sup_rhs=sup_rhs,
        sup_solution=sup_v,
        bound_ok=sup_v <= 0.5 * sup_rhs + tol,
        n_target=n_target,
    )


def _restrict(op: ConicLaplacianOp, grid: Field) -> Field:
    """Mass-average a grid field onto dofs (pole dofs get their ring mean)."""
    return op.R @ (grid * op.cell_mass).ravel() / op.W


def hyperbolic_correction_solve(
    mesh: FiberMesh, beta: float, u_approx: Field, tol: float = 1e-10
) -> SolveReport:
    """Hyperbolic cone metric r^{2(beta-1)} e^{2u} |dz|^2 in correction form.

    With gtilde = e^{2 u_approx} g0 for the flat cone g0 = r^{2(beta-1)} |dz|^2,
    the correction v = u - u_approx solves
    Delta_tilde v + 2v = -(K_tilde + 1) - (e^{2v} - 1 - 2v), v = 0 on
    Dirichlet rings, by ``picard_solve``.  The discrete curvature K_tilde at
    a collapsed inner ring includes the cone's distributional curvature;
    that delta belongs to the background, so the exact flux of the conic
    part is removed from the pole row.
    """
    r, _ = mesh.grids()
    cone_part = (beta - 1.0) * np.log(r) * np.ones((mesh.nt, mesh.nphi))
    op = assemble(mesh, np.exp(2.0 * cone_part + 2.0 * u_approx))
    phi_grid = cone_part + u_approx
    fix = op.fixed_values({"inner": phi_grid[0, :], "outer": phi_grid[-1, :]})
    K_tilde = op.weak_laplacian_dof(op.grid_to_dof(phi_grid), fix)
    if mesh.inner == "pole":
        pole = op.inner_pole_dof
        K_tilde[pole] -= op.weak_laplacian_dof(op.grid_to_dof(cone_part))[pole]
    return picard_solve(op, op.dof_to_grid(-(K_tilde + 1.0)), tol=tol)


# ---------------------------------------------------------------------------
# eigenvalue gap


def eigen_gap(
    op: ConicLaplacianOp, tol: float = 1e-10, maxit: int = 200, seed: int = 7, block: int = 4
) -> float:
    """Smallest nonzero eigenvalue of the weighted Laplacian on a closed fiber.

    Requires both rings collapsed (the surface is closed).  Blocked inverse
    iteration with the constants deflated in the mass inner product and a
    Rayleigh-Ritz projection each sweep; the block absorbs the near-triple
    cluster the sphere produces at 2, keeping convergence geometric.
    """
    if op.mesh.inner != "pole" or op.mesh.outer != "pole":
        raise ValueError("eigen_gap needs a closed fiber (both rings collapsed)")
    W = op.W
    total = W.sum()
    lu = op.shifted(1e-3)
    rng = np.random.default_rng(seed)
    m = min(block, op.ndof - 1)
    X = rng.standard_normal((op.ndof, m))

    def deflate(Y: Field) -> Field:
        return Y - np.outer(np.ones(op.ndof), (W @ Y)) / total

    def orthonormalize(Y: Field) -> Field:
        for j in range(Y.shape[1]):
            for i in range(j):
                Y[:, j] -= float(Y[:, i] @ (W * Y[:, j])) * Y[:, i]
            norm = math.sqrt(float(Y[:, j] @ (W * Y[:, j])))
            if norm < 1e-14:
                Y[:, j] = deflate(rng.standard_normal(op.ndof))
                norm = math.sqrt(float(Y[:, j] @ (W * Y[:, j])))
            Y[:, j] /= norm
        return Y

    X = orthonormalize(deflate(X))
    lam_old = None
    for _ in range(maxit):
        Y = lu.solve(W[:, None] * X)
        Y = orthonormalize(deflate(Y))
        H = Y.T @ (op.A @ Y)
        H = 0.5 * (H + H.T)
        theta, vecs = np.linalg.eigh(H)
        X = Y @ vecs
        lam = float(theta[0])
        if lam_old is not None and abs(lam - lam_old) <= tol * max(abs(lam), 1.0):
            return lam
        lam_old = lam
    raise NonconvergenceError("eigenvalue iteration did not converge")


# ---------------------------------------------------------------------------
# spherical Newton solver with a spectral-gap guard


def _damped_newton_dof(
    op: ConicLaplacianOp,
    K0_dof: Field,
    u: Field,
    K_target: float,
    tol: float,
    maxit: int,
) -> tuple[Optional[Field], float, int]:
    """Levenberg-regularized Newton for Delta u + K0 - K_target e^{2u} = 0.

    The shift tau persists across iterations: it shrinks toward plain
    Newton on accepted steps and grows on rejections, which keeps the
    iteration from wandering along the near-kernel of the linearization
    when the spectral gap sits close to 2.  Returns (solution or None on
    stall, final sup residual, iterations); a residual stagnating at the
    floating-point evaluation floor is accepted as converged.
    """

    def residual_dof(u_dof: Field) -> Field:
        with np.errstate(over="ignore"):
            return op.weak_laplacian_dof(u_dof) + K0_dof - K_target * np.exp(2 * u_dof)

    def l2w(res: Field) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(res @ (op.W * res))
        return math.sqrt(val) if math.isfinite(val) else math.inf

    abs_a = abs(op.A)

    def roundoff_floor(u_dof: Field) -> float:
        # forward-error scale of evaluating the residual expression itself;
        # below this no iteration can make honest progress
        amp = (abs_a @ np.abs(u_dof)) / op.W + np.abs(K0_dof) + np.exp(2 * np.abs(u_dof).max())
        return float(np.finfo(float).eps) * float(np.max(amp))

    tau = 1.0
    res = residual_dof(u)
    res_sup = float(np.max(np.abs(res)))
    res_l2 = l2w(res)
    rejections = 0
    iterations = 0
    while res_sup > tol:
        if iterations >= maxit:
            return None, res_sup, iterations
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                delta = op.shifted(tau - 2.0 * K_target * np.exp(2 * u)).solve(-(res * op.W))
            except RuntimeError:  # exactly singular: rejected like a failed step
                delta = np.full(op.ndof, np.nan)
        res_new = residual_dof(u + delta)
        l2_new = l2w(res_new)
        if l2_new < res_l2:
            u = u + delta
            res, res_l2 = res_new, l2_new
            res_sup = float(np.max(np.abs(res)))
            tau = max(0.3 * tau, 1e-12)
            rejections = 0
        else:
            tau = min(4.0 * tau, 1e9)
            rejections += 1
            if rejections >= 16:
                if res_sup <= 1000.0 * roundoff_floor(u):
                    return u, res_sup, iterations  # stagnated at the evaluation floor
                return None, res_sup, iterations
        iterations += 1
    return u, res_sup, iterations


def newton_solve_spherical(
    op: ConicLaplacianOp,
    K_target: float = 1.0,
    guard: bool = True,
    K0: Optional[Field] = None,
    margin: float = 0.05,
    tol: float = 1e-10,
    maxit: int = 40,
    u0: Optional[Field] = None,
) -> SolveReport:
    """Newton iteration for Delta u + K0 - K_target e^{2u} = 0 on a closed fiber.

    The linearization at a solution is Delta - 2 K_target e^{2u}, invertible
    exactly when the first nonzero eigenvalue exceeds 2; with ``guard`` the
    gap of the background operator is estimated before any Jacobian solve
    and the iteration refuses (football degeneracy) when it is not above
    2 + margin.  K0 defaults to the discrete curvature of the assembled
    density; ``u0`` seeds the iteration (continuation callers use it).
    """
    gap = None
    if K0 is None:
        phi0 = 0.5 * np.log(op.density)
        fix = op.fixed_values() if op.nfixed else None
        K0_dof = op.weak_laplacian_dof(op.grid_to_dof(phi0), fix)
    else:
        K0_dof = _restrict(op, np.asarray(K0, dtype=float))

    u = np.zeros(op.ndof) if u0 is None else op.grid_to_dof(np.asarray(u0, dtype=float))
    res0 = op.weak_laplacian_dof(u) + K0_dof - K_target * np.exp(2 * u)
    res0_sup = float(np.max(np.abs(res0)))
    if guard and res0_sup > tol:
        # an exact starting metric (residual already below tol) needs no solves
        gap = eigen_gap(op)
        if gap <= 2.0 + margin:
            raise FootballDegeneracyError(
                f"spectral gap {gap:.6f} is not above 2 + margin = {2 + margin:.2f}"
            )
    u_new, res_sup, iterations = _damped_newton_dof(op, K0_dof, u, K_target, tol, maxit)
    if u_new is None:
        raise NonconvergenceError(f"Newton stalled at residual {res_sup:.3e}")
    u_grid = op.dof_to_grid(u_new)
    return SolveReport(
        solution=u_grid,
        residual_sup=res_sup,
        iterations=iterations,
        gap=gap,
        sup_solution=float(np.max(np.abs(u_grid))),
        sup_rhs=float(np.max(np.abs(K0_dof - K_target))),
    )


def spherical_cone_solve(
    betas: Sequence[float],
    finite_points: Sequence[complex],
    mesh: FiberMesh,
    guard: bool = True,
    margin: float = 0.05,
    tol: float = 1e-10,
    maxit: int = 60,
) -> SolveReport:
    """Solve for the spherical metric with prescribed cone data on the sphere.

    Continuation in the cone angles: beta(s) = 1 + s (beta - 1) walks from
    the round sphere (u = 0 exact) to the target while staying inside the
    family of positively-curved cone metrics, where the linearized operator
    is invertible away from the two-equal-cones locus.  Each step rebuilds
    the singular background, transfers the previous solution conformally as
    the warm start, and runs damped Newton; steps halve on stalls.  With
    ``guard``, the gap of the solved metric is estimated and the solve is
    rejected at or below 2 + margin (football degeneracy).
    """
    bs = np.array([float(b) for b in betas])
    if len(bs) == 2:
        # two cones on the sphere: either the degenerate two-equal-angles
        # family (gap exactly 2 all along the continuation path) or no
        # metric at all
        if bs[0] == bs[1] and guard:
            raise FootballDegeneracyError(
                "two equal cone angles: the degenerate family with spectral gap exactly 2"
            )
        if bs[0] != bs[1]:
            raise ValueError("no spherical cone metric exists with two unequal angles")
    r, phi = mesh.grids()

    def background(s: float):
        bet = 1.0 + s * (bs - 1.0)
        dens, K0f = singular_sphere_background(bet, finite_points)
        op = assemble(mesh, dens)
        K0_dof = _restrict(op, K0f(r, phi))
        return op, K0_dof

    # the solution's bounded conformal factor varies mildly along the family,
    # so the previous step's u is the warm start (the cone-strength deltas
    # themselves live in the rebuilt background, not in u)
    u_grid = np.zeros((mesh.nt, mesh.nphi))
    s_done, step = 0.0, 0.25
    total_iters = 0
    res_sup = math.inf
    op = None
    while s_done < 1.0:
        s_try = min(1.0, s_done + step)
        op, K0_dof = background(s_try)
        step_tol = tol if s_try >= 1.0 else max(tol, 1e-8)
        u_try, res_sup, its = _damped_newton_dof(
            op, K0_dof, op.grid_to_dof(u_grid), 1.0, step_tol, maxit
        )
        if u_try is None and s_done > 0.0:
            # a poisoned warm start can be worse than none
            u_try, res_sup, its = _damped_newton_dof(
                op, K0_dof, np.zeros(op.ndof), 1.0, step_tol, maxit
            )
        if u_try is None:
            step *= 0.5
            if step < 1e-3:
                raise NonconvergenceError(
                    f"cone-angle continuation stalled at s = {s_done:.3f} (residual {res_sup:.2e})"
                )
            continue
        u_grid = op.dof_to_grid(u_try)
        s_done = s_try
        total_iters += its
        if its <= 8:
            step = 2 * step
    gap = None
    if guard:
        solved = assemble(mesh, op.density * np.exp(2 * u_grid))
        gap = eigen_gap(solved)
        if gap <= 2.0 + margin:
            raise FootballDegeneracyError(
                f"solved metric has spectral gap {gap:.6f} <= 2 + margin = {2 + margin:.2f}"
            )
    return SolveReport(
        solution=u_grid,
        residual_sup=res_sup,
        iterations=total_iters,
        gap=gap,
        sup_solution=float(np.max(np.abs(u_grid))),
    )


# ---------------------------------------------------------------------------
# decay / conormality report


@dataclass
class DecayReport:
    rhos: tuple[float, ...]
    sup_values: tuple[float, ...]
    value_slope: float
    pair_slopes: tuple[float, ...]
    bderiv_slopes: tuple[float, float]  # (t-derivative, phi-derivative)
    n_target: int
    passes: bool


def decay_check(family: Sequence[tuple[float, Field]], n_target: int) -> DecayReport:
    """Log-log decay rate of sup|field| and of its first discrete b-derivatives.

    The family must list at least three geometrically decreasing rho values;
    passes when the value slope is at least n_target - 0.1.  Report-only:
    never raises on a failed slope.
    """
    if len(family) < 3:
        raise ValueError("need at least three (rho, field) samples")
    rhos = [float(r) for r, _ in family]
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rho values must be strictly decreasing")
    ratios = [r1 / r2 for r1, r2 in zip(rhos, rhos[1:])]
    if max(ratios) / min(ratios) > 1.01:
        raise ValueError("rho values must form a geometric sequence")
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
    value_slope = least_squares_slope(rhos, sups)
    slope_dt = least_squares_slope(rhos, sups_dt) if min(sups_dt) > 0 else math.inf
    slope_dp = least_squares_slope(rhos, sups_dp) if min(sups_dp) > 0 else math.inf
    return DecayReport(
        rhos=tuple(rhos),
        sup_values=tuple(sups),
        value_slope=value_slope,
        pair_slopes=tuple(loglog_slopes(rhos, sups)),
        bderiv_slopes=(slope_dt, slope_dp),
        n_target=n_target,
        passes=value_slope >= n_target - 0.1,
    )


# ---------------------------------------------------------------------------
# the one-cone radial profile by honest ODE integration


@dataclass
class RadialProfile:
    beta: float
    rfrak: Field
    u0: Field
    r: Field


def radial_hyperbolic(beta: float, r_max: float, nodes: int) -> RadialProfile:
    """Integrate the one-cone geodesic/conformal ODE system numerically.

    The system d rtilde/d rfrak = e^{u0}, sinh(rtilde) = e^{u0} rfrak is
    reduced to d rtilde/d rfrak = sinh(rtilde)/rfrak and integrated with a
    high-order scheme from a series start; u0(rfrak) = log(sinh(rtilde)/rfrak)
    is returned on a uniform grid.  The metric closes up at rfrak = 2.
    """
    if not 0 < r_max < 2:
        raise ValueError("r_max must lie in (0, 2) in the rfrak variable")
    if nodes < 2:
        raise ValueError("need at least two nodes")
    b = float(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    rf = np.linspace(0.0, r_max, nodes)
    u0 = np.zeros(nodes)
    x0 = 1e-6

    def series_rtilde(x: float) -> float:
        # rtilde = x + x^3/12 + 3 x^5/320 + O(x^7) near the tip
        return x * (1.0 + x * x / 12.0 + 3.0 * x**4 / 320.0)

    def rhs(x: float, y: Field) -> Field:
        return np.array([math.sinh(y[0]) / x])

    far = np.nonzero(rf > x0)[0]
    if far.size:
        sol = solve_ivp(
            rhs,
            (x0, float(rf[far[-1]])),
            np.array([series_rtilde(x0)]),
            t_eval=rf[far],
            method="DOP853",
            rtol=1e-13,
            atol=1e-16,
        )
        if not sol.success:
            raise ArithmeticError(f"ODE integration failed: {sol.message}")
        for idx, rtilde in zip(far, sol.y[0]):
            u0[idx] = math.log(math.sinh(rtilde) / rf[idx])
    for i, x in enumerate(rf):
        if 0.0 < x <= x0:
            u0[i] = math.log(math.sinh(series_rtilde(x)) / x)
    r = np.power(b * rf, 1.0 / b, where=rf > 0, out=np.zeros_like(rf))
    return RadialProfile(beta=b, rfrak=rf, u0=u0, r=r)


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
    betas: Sequence[float], finite_points: Sequence[complex]
) -> tuple[Callable[[Field, Field], Field], Callable[[Field, Field], Field]]:
    """Conic background on the sphere: cones at the finite points and infinity.

    betas lists the parameters of the finite points followed by the one at
    infinity.  Returns (density, K0): the density is the round sphere times
    |z - p_i|^{2(beta_i - 1)} factors with the compensating (1+|z|^2) power,
    and K0 is its curvature, which has the closed form
    (chi(beta)/2) * e^{2(phi_round - phi0)} away from the cone points.
    """
    bs = [float(b) for b in betas]
    pts = [complex(p) for p in finite_points]
    if len(bs) != len(pts) + 1:
        raise ValueError("need one more beta than finite points (the last is at infinity)")
    c = sum(b - 1.0 for b in bs)
    chi_beta = 2.0 + c

    def log_density(r: Field, phi: Field) -> Field:
        z = r * np.exp(1j * phi)
        out = np.log(4.0 / (1.0 + r**2) ** 2)
        for b, p in zip(bs[:-1], pts):
            d = np.abs(z - p)
            if np.any(d == 0):
                raise ValueError("mesh node coincides with a cone point")
            out = out + 2.0 * (b - 1.0) * np.log(d)
        out = out - c * np.log1p(r**2)
        return out

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
    """Residual fields of truncated approximate solutions as the pair merges."""

    mesh: FiberMesh
    beta1: float
    beta2: float
    order: int
    families: dict[int, list[tuple[float, Field]]]
    u0_report: SolveReport


def _pair_log_density(beta1: float, beta2: float, rho: float, r: Field, phi: Field) -> Field:
    z = r * np.exp(1j * phi)
    return 2.0 * (beta1 - 1.0) * np.log(np.abs(z - rho)) + 2.0 * (beta2 - 1.0) * np.log(np.abs(z + rho))


def merging_pair_residual_family(
    beta1: float,
    beta2: float,
    rhos: Sequence[float],
    mesh: Optional[FiberMesh] = None,
    orders: Sequence[int] = (1, 2),
    tol: float = 1e-12,
) -> MergingFamily:
    """Curvature residuals of order-N approximate solutions on an annulus.

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
    rfrak = rr**b0 / b0
    if np.max(rfrak) >= 2.0:
        raise ValueError("annulus reaches the closing radius of the hyperbolic cone")

    # exact merged-limit conformal factor, used as boundary data and seed
    u_d = -np.log1p(-(rfrak**2) / 4.0) * np.ones_like(rr + pp * 0)
    report = hyperbolic_correction_solve(mesh, b0, u_d, tol=tol)
    u0_grid = u_d + report.solution

    # limit background density e^{2 G0}
    op0 = assemble(mesh, np.exp(2.0 * (b0 - 1.0) * np.log(rr) * np.ones_like(u_d)))

    families: dict[int, list[tuple[float, Field]]] = {}
    u1_grid = None
    if max(orders) >= 2:
        # linearized transverse equation: (A + 2 W0 e^{2u0}) u1 = -(A G1 + 2 W0 e^{2u0} G1)
        g1 = (b2 - b1) * np.cos(pp) / rr * np.ones_like(u0_grid)
        g1_dof = op0.grid_to_dof(g1)
        shift = op0.grid_to_dof(2.0 * np.exp(2.0 * u0_grid))
        a_g1 = op0.A @ g1_dof + op0.B @ op0.fixed_values({"inner": g1[0, :], "outer": g1[-1, :]})
        u1 = op0.shifted(shift).solve(-(a_g1 + shift * op0.W * g1_dof))
        u1_grid = op0.dof_to_grid(u1)

    for order in orders:
        fam = []
        for rho in rhos:
            log_density_rho = _pair_log_density(b1, b2, float(rho), rr, pp)
            w_rho = np.exp(log_density_rho) * np.exp(2 * mesh.t)[:, None] * mesh.ht * mesh.hp
            w_rho[0, :] *= 0.5
            w_rho[-1, :] *= 0.5
            u = u0_grid if order == 1 else u0_grid + float(rho) * u1_grid
            # weak residual of Delta_rho u + e^{2u} + K_rho(=0): A u + A G_rho + W_rho e^{2u}
            g_rho_dof = op0.grid_to_dof(0.5 * log_density_rho)
            u_dof = op0.grid_to_dof(u)
            fix = op0.fixed_values({"inner": (0.5 * log_density_rho + u)[0, :], "outer": (0.5 * log_density_rho + u)[-1, :]})
            weak = op0.A @ (u_dof + g_rho_dof) + op0.B @ fix
            res_dof = weak / (op0.R @ w_rho.ravel()) + op0.grid_to_dof(np.exp(2 * u))
            res_grid = op0.dof_to_grid(res_dof)
            fam.append((float(rho), res_grid))
        families[order] = fam
    return MergingFamily(
        mesh=mesh, beta1=b1, beta2=b2, order=max(orders), families=families, u0_report=report
    )
