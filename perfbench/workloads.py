"""The benchmark's workloads: fixed operations, their inputs and output checks.

``sphere-continuation`` and ``annulus-picard`` call the library inside one
worker process (``worker.py``); ``readme-cli`` runs every README command as
its own cold ``python -m conic_moduli.cli`` process.  ``sphere-4cone-stall``
is not in BENCHMARK.json: it reproduces the known 4-cone continuation stall
and fails on purpose (see README.md).

Each size preset is ``full`` (the measured workload) or ``tiny`` (the
self-check).  The seed picks the chart samples and the ``fit`` input family
of ``readme-cli``.  The library cases are the paper's fixed cases and take
no seed, so their iteration counts repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import checks
from checks import CheckContext, require

CLI_WORKLOAD = "readme-cli"
FIT_VARIANTS = 16
FIT_INPUT = "family.csv"


@dataclass
class Op:
    """One library operation: ``run`` calls the program, ``check`` its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, CheckContext], None]


@dataclass
class Command:
    """One CLI invocation: ``check`` sees its standard output."""

    name: str
    argv: list[str]
    check: Callable[[bytes, CheckContext], None]


# ---------------------------------------------------------------------------
# library workloads (built inside the worker, after the package is imported)


def _closed_mesh(solver, half_width: float, nt: int, nphi: int):
    return solver.FiberMesh(math.exp(-half_width), math.exp(half_width), nt, nphi, inner="pole", outer="pole")


def _cli_in_process(cli, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise checks.CheckFailure(f"cli.main exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


def sphere_ops(size: str) -> list[Op]:
    import numpy as np
    from conic_moduli import solver

    # acceptance 8's three-cone series; 129x24 at half-width 6 is the README case
    cases = [(6.0, 129, 24), (7.0, 193, 32), (8.0, 257, 40)] if size == "full" else [(6.0, 65, 12)]

    def check(report, ctx: CheckContext) -> None:
        checks.three_cone_gap(report.gap, ctx)
        require(bool(np.all(np.isfinite(report.solution))), "solution is not finite")

    ops = []
    for half_width, nt, nphi in cases:
        mesh = _closed_mesh(solver, half_width, nt, nphi)
        run = lambda mesh=mesh: solver.spherical_cone_solve([2 / 3] * 3, [0j, 1 + 0j], mesh)
        ops.append(Op(f"3-cone {nt}x{nphi}", run, check))
    return ops


def four_cone_ops(size: str) -> list[Op]:
    from conic_moduli import cli

    argv = ["solve", "spherical", "--beta", "1/2,2/3,3/4,5/6"]
    return [Op("4-cone default layout", lambda: _cli_in_process(cli, argv), checks.spherical_payload)]


def annulus_ops(size: str) -> list[Op]:
    import numpy as np
    from conic_moduli import cli, solver

    full = size == "full"
    hyperbolic_mesh = "1025x128" if full else "96x16"
    family_mesh = solver.FiberMesh(0.2, 0.7, *((641, 192) if full else (161, 48)), inner="dirichlet", outer="dirichlet")
    round_mesh = _closed_mesh(solver, *((7.0, 1025, 64) if full else (6.0, 161, 24)))
    football_mesh = _closed_mesh(solver, 10.0, *((257, 24) if full else (129, 16)))
    footballs = [solver.football_density(0.5), solver.football_density(1.0 / 3.0)]

    # acceptance 7: manufactured solution v* = eps r cos(phi) on a mesh and its halving
    picard_cases = []
    for nt, nphi in ((129, 32), (257, 64)) if full else ((65, 16), (129, 32)):
        mesh = solver.FiberMesh(0.05, 1.0, nt, nphi, inner="dirichlet", outer="dirichlet")
        r, phi = mesh.grids()
        vstar = 0.05 * r * np.cos(phi)
        picard_cases.append((mesh, vstar, np.exp(2 * vstar) - 1.0, {"inner": vstar[0, :], "outer": vstar[-1, :]}))

    def hyperbolic():
        return _cli_in_process(cli, ["solve", "hyperbolic", "--beta", "1/2", "--mesh", hyperbolic_mesh])

    def family():
        return solver.merging_pair_residual_family(0.9, 0.6, (0.1, 0.05, 0.025), mesh=family_mesh)

    def check_family(fam, ctx: CheckContext) -> None:
        for n in (1, 2):
            checks.decay_slope(solver.decay_check(fam.families[n], n).value_slope, n, ctx)

    def round_gap():
        return solver.eigen_gap(solver.assemble(round_mesh, solver.round_sphere_density))

    def football_gaps():
        return [solver.eigen_gap(solver.assemble(football_mesh, d)) for d in footballs]

    def check_football_gaps(gaps, ctx: CheckContext) -> None:
        for g in gaps:
            checks.gap_near_two(g, ctx)

    def manufactured():
        return [
            solver.picard_solve(solver.assemble(mesh, 1.0), f, tol=1e-11, maxit=100, boundary=bc)
            for mesh, _, f, bc in picard_cases
        ]

    def check_manufactured(reports, ctx: CheckContext) -> None:
        errors = []
        for report, (_, vstar, _, _) in zip(reports, picard_cases):
            require(report.bound_ok, "maximum-principle bound violated")
            errors.append(float(np.max(np.abs(report.solution - vstar))))
        checks.halving_ratio(errors[0] / errors[1], ctx)

    # five operations, so the median operation is one of them (the round-sphere gap)
    return [
        Op(f"cli solve hyperbolic {hyperbolic_mesh}", hyperbolic, checks.hyperbolic_payload),
        Op(f"residual family {family_mesh.nt}x{family_mesh.nphi}", family, check_family),
        Op(f"eigen_gap round {round_mesh.nt}x{round_mesh.nphi}", round_gap, checks.gap_near_two),
        Op(f"eigen_gap footballs 1/2, 1/3 {football_mesh.nt}x{football_mesh.nphi}", football_gaps, check_football_gaps),
        Op(f"picard manufactured {picard_cases[0][0].nt}x{picard_cases[0][0].nphi} and halving", manufactured, check_manufactured),
    ]


LIBRARY_OPS = {
    "sphere-continuation": sphere_ops,
    "annulus-picard": annulus_ops,
    "sphere-4cone-stall": four_cone_ops,
}


# ---------------------------------------------------------------------------
# the README command line


def fit_family(seed: int) -> str:
    """The ``fit`` input: a seeded member of a fixed family of decay tables."""
    variant = seed % FIT_VARIANTS
    a, b = 1.0 + variant / 4, 0.5 - variant / 16
    lines = [f"# decay family variant {variant}", "rho,value"]
    for i in range(7):
        rho = 0.2 / 2**i
        lines.append(f"{rho!r},{a * rho**2 * (1 + b * rho)!r}")
    return "\n".join(lines) + "\n"


def _fit_check(out: bytes, ctx: CheckContext) -> None:
    checks.exact(f"fit variant {ctx.seed % FIT_VARIANTS}")(out, ctx)


def readme_commands(size: str) -> list[Command]:
    e = checks.exact
    if size == "tiny":
        return [
            Command("faces k4 csv", ["faces", "--k", "4", "--format", "csv"], e("faces --k 4 --format csv")),
            Command("phg u0", ["phg", "u0", "--order", "8"], e("phg u0 --order 8")),
            Command("charts verify 1000", ["charts", "verify", "--chart", "three-corner", "--samples", "1000"], checks.charts_payload(1000)),
            Command("fit", ["fit", "--input", FIT_INPUT, "--N", "2", "--terms", "1"], _fit_check),
        ]
    return [
        Command("faces k4 csv", ["faces", "--k", "4", "--format", "csv"], e("faces --k 4 --format csv")),
        Command(
            "charts verify 10000",
            ["charts", "verify", "--chart", "three-corner", "--samples", "10000", "--region", "0.3"],
            checks.charts_payload(10_000),
        ),
        Command(
            "cones classify",
            ["cones", "classify", "--genus", "0", "--curvature", "1", "--beta", "1/2,2/3,2/3,5/6"],
            e("cones classify --genus 0 --curvature 1 --beta 1/2,2/3,2/3,5/6"),
        ),
        Command(
            "flat expand",
            ["flat", "expand", "--beta1", "1/3", "--beta2", "3/4", "--order", "4"],
            e("flat expand --beta1 1/3 --beta2 3/4 --order 4"),
        ),
        Command(
            "flat probe",
            ["flat", "probe", "--beta", "1/3,1/3,1/3", "--radii", "1e-2,1e-3,1e-4"],
            checks.probe_csv(1.0 / 3.0),
        ),
        Command("phg index", ["phg", "index", "--beta", "3/4", "--cutoff", "31/10"], e("phg index --beta 3/4 --cutoff 31/10")),
        Command("phg u0", ["phg", "u0", "--order", "8"], e("phg u0 --order 8")),
        Command(
            "phg recurse",
            ["phg", "recurse", "--beta", "3/4", "--steps", "2", "--truncation", "4", "--assign", "a[1,1,c]=1"],
            e("phg recurse --beta 3/4 --steps 2 --truncation 4 --assign a[1,1,c]=1"),
        ),
        Command(
            "solve hyperbolic 96x16",
            ["solve", "hyperbolic", "--beta", "1/2", "--mesh", "96x16", "--series-order", "4"],
            checks.hyperbolic_payload,
        ),
        Command(
            "solve spherical 129x24",
            ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0", "--mesh", "129x24"],
            checks.spherical_payload,
        ),
        Command("fit", ["fit", "--input", FIT_INPUT, "--N", "2", "--terms", "1"], _fit_check),
        Command("faces k6", ["faces", "--k", "6"], e("faces --k 6")),
        Command(
            "charts verify 100000",
            ["charts", "verify", "--chart", "three-corner", "--samples", "100000"],
            checks.charts_payload(100_000),
        ),
    ]
