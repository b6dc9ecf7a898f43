"""The ``conic-moduli`` command line front end.

Every subcommand emits deterministic artifacts: identical invocations give
byte-identical output at a fixed BLAS thread count.  LAPACK's band factors
(``dgbtrf``, ``dpbtrf``) sum their blocked BLAS calls in a thread-dependent
order, so the last digits of ``solve spherical`` can move with it; CI and
perfbench pin one thread.  Every payload carries the package version (a CSV
in its first line).  ``charts verify`` alone draws random samples, and its
payload carries the seed it drew them with; the ``solve`` payloads carry the
seed in use too, though no solve reads it.  Exit codes: 2 for malformed
configuration (ValueError, OSError), 1 for numeric failures (any
ArithmeticError, which includes the solver's divergence, nonconvergence and
football-degeneracy errors, an unconverged quadrature, and singular linear
algebra) and for a ``charts verify`` whose check fails (``positivity_ok`` or
the lifting matrix's ``row_condition_ok`` false; the payload is written
first), 0 otherwise.
Each command imports only the layers it runs: ``faces``, ``cones classify``,
``flat expand`` and the ``phg`` commands run on the standard library alone,
``charts verify``, ``flat probe`` and ``fit`` load numpy, and only the
``solve`` commands import ``solver``, and with it scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__

DEFAULT_SEED = 20240
ENV_SEED = "CONIC_MODULI_SEED"


def _seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get(ENV_SEED, DEFAULT_SEED))


def _write(args: argparse.Namespace, text: str) -> None:
    """Write a payload to ``--out`` if given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args: argparse.Namespace, seed: Optional[int] = None) -> None:
    payload = dict(payload, version=__version__)
    if seed is not None:
        payload["seed"] = seed
    _write(args, json.dumps(payload, sort_keys=True, default=str) + "\n")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence], args: argparse.Namespace) -> None:
    lines = [f"# conic-moduli {__version__}", ",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    _write(args, "\n".join(lines) + "\n")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _parse_beta_list(text: str) -> list[Fraction]:
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise ValueError("empty angle list")
    return [_parse_rational(p) for p in parts]


def _parse_points(text: str) -> list[complex]:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            x, y = (float(v) for v in chunk.split(","))
        except ValueError as exc:  # a wrong count or a non-number
            raise ValueError(f"malformed point {chunk!r} in {text!r}: expected re,im;re,im") from exc
        pts.append(complex(x, y))
    return pts


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        nt, nphi = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:  # a wrong count or a non-integer
        raise ValueError(f"malformed mesh {text!r}: expected NTxNPHI") from exc
    return nt, nphi


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_faces(args: argparse.Namespace) -> int:
    from . import lattice

    trees = lattice.enumerate_fmax_strata(args.k, augmented=args.augmented)
    rows = [(t.encode(), t.codimension, t.height, int(t.is_interior)) for t in trees]
    if args.format == "csv":
        _emit_csv(("encoding", "codimension", "height", "interior"), rows, args)
    else:
        _emit_json(
            {
                "k": args.k,
                "augmented": args.augmented,
                "count": len(rows),
                "strata": [
                    {"encoding": e, "codimension": c, "height": h, "interior": bool(i)}
                    for e, c, h, i in rows
                ],
            },
            args,
        )
    return 0


def _cmd_charts_verify(args: argparse.Namespace) -> int:
    from . import charts

    report = charts.pullback_report(args.chart, samples=args.samples, region=args.region, seed=_seed(args))
    _emit_json(dataclasses.asdict(report), args)
    return 0 if report.positivity_ok and report.lifting.row_condition_ok else 1


def _cmd_cones_classify(args: argparse.Namespace) -> int:
    from . import cones

    betas = _parse_beta_list(args.beta)
    data = cones.ConeData.of(args.genus, betas, args.curvature)
    cones.consistent_area(data)  # refuses data with no positive area; merging keeps chi(M, beta)
    payload = {
        "genus": args.genus,
        "curvature": args.curvature,
        "beta": [str(b) for b in data.beta],
        "approximated": data.approximated,
        "verdicts": [{k: x for k, x in vars(v).items() if x is not None} for v in cones.classify_merges(data)],
    }
    _emit_json(payload, args)
    return 0


def _cmd_flat_expand(args: argparse.Namespace) -> int:
    from . import flat

    b1 = _parse_rational(args.beta1)
    b2 = _parse_rational(args.beta2)
    exp2 = flat.corner_expansion_2pt(b1, b2, args.order)
    rows = []
    for n, poly in exp2.terms:
        for m in sorted(poly.coeffs):
            c, d = poly.coeffs[m]
            rows.append((n, m, str(c), str(d)))
        if poly.is_zero:
            rows.append((n, n, "0", "0"))
    _emit_csv(("power", "degree", "cos", "sin"), rows, args)
    return 0


def _cmd_flat_probe(args: argparse.Namespace) -> int:
    from . import flat

    betas = _parse_beta_list(args.beta)
    pts = _parse_points(args.points) if args.points else _unit_roots(len(betas))
    metric = flat.FlatConicMetric.of(pts, betas)
    radii = [float(r) for r in args.radii.split(",")]
    report = flat.cone_angle_probe(metric, args.index, radii)
    rows = [*zip(report.radii, report.ratios), ("extrapolated", report.extrapolated)]
    _emit_csv(("r", "ratio"), rows, args)
    return 0


def _cmd_phg_index(args: argparse.Namespace) -> int:
    from . import phg

    entries = phg.index_set(_parse_rational(args.beta), _parse_rational(args.cutoff))
    rows = [(str(e.alpha), j, k, e.multiplicity) for e in entries for j, k in e.pairs]
    _emit_csv(("alpha", "j", "k", "multiplicity"), rows, args)
    return 0


def _cmd_phg_u0(args: argparse.Namespace) -> int:
    from . import phg

    rows = [(j + 1, str(c)) for j, c in enumerate(phg.u0_series(args.order))]
    _emit_csv(("j", "a_j"), rows, args)
    return 0


def _cmd_phg_recurse(args: argparse.Namespace) -> int:
    from . import phg

    assignments = {}
    for item in args.assign or []:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"malformed assignment {item!r}")
        if key in assignments:
            raise ValueError(f"free coefficient {key!r} is assigned twice")
        assignments[key] = _parse_rational(val)
    series = phg.recurse(_parse_rational(args.beta), _parse_rational(args.truncation), args.steps, assignments)
    rows = []
    for j in range(1, args.steps + 1):
        for alpha, trig in sorted(series.steps[j].items()):
            free = bool(phg.free_symbols(j, alpha))
            degrees = sorted(set(trig.coeffs) | ({int(alpha)} if free else set()))
            pairs = series.labels[alpha]
            labels = ";".join(f"{l}+{k}" for l, k in pairs)
            for m in degrees:
                c, d = trig.coeffs.get(m, (0, 0))
                rows.append((j, str(alpha), labels, len(pairs), int(free), m, str(c), str(d)))
    _emit_csv(("j", "alpha", "labels", "multiplicity", "free", "degree", "cos", "sin"), rows, args)
    return 0


def _cmd_solve_hyperbolic(args: argparse.Namespace) -> int:
    from . import phg, solver

    beta = float(_parse_rational(args.beta))
    nt, nphi = _parse_mesh(args.mesh)
    mesh = solver.FiberMesh(args.rmin, args.rmax, nt, nphi, inner="pole", outer="dirichlet")
    profile = functools.partial(phg.u0_truncated, order=args.series_order)
    report = solver.hyperbolic_correction_solve(mesh, beta, profile, tol=args.tol)
    payload = {
        "equation": "hyperbolic correction (Delta+2)v = f + Q(v)",
        "beta": args.beta,
        "series_order": args.series_order,
        "mesh": args.mesh,
        "r_range": [args.rmin, args.rmax],
        "iterations": report.iterations,
        "residual_sup": report.residual_sup,
        "contraction": report.contraction,
        "sup_correction": report.sup_solution,
        "sup_rhs": report.sup_rhs,
        "max_principle_bound_ok": report.bound_ok,
    }
    _emit_json(payload, args, _seed(args))
    return 0


def _cmd_solve_spherical(args: argparse.Namespace) -> int:
    from . import solver

    betas = _parse_beta_list(args.beta)  # exact: the solve's gate reads them as given
    pts = _parse_points(args.points) if args.points else _default_sphere_points(len(betas))
    nt, nphi = _parse_mesh(args.mesh)
    # the background density divides by (1 + r^2)^2, which overflows once r = e^extent
    # passes float max^(1/4)
    bound = math.log(sys.float_info.max) / 4
    if not 0 < args.extent < bound:
        raise ValueError(f"extent {args.extent} must be positive and below {bound:.2f}")
    mesh = solver.FiberMesh(
        math.exp(-args.extent), math.exp(args.extent), nt, nphi, inner="pole", outer="pole"
    )
    report = solver.spherical_cone_solve(betas, pts, mesh, tol=args.tol)
    payload = {
        "equation": "spherical Delta u + K0 - e^{2u} = 0",
        "beta": args.beta,
        "mesh": args.mesh,
        "extent": args.extent,
        "iterations": report.iterations,
        "residual_sup": report.residual_sup,
        "sup_solution": report.sup_solution,
        "spectral_gap": report.gap,
    }
    _emit_json(payload, args, _seed(args))
    return 0


def _unit_roots(k: int) -> list[complex]:
    """The k-th roots of unity, exact at the quarter turns 1, i, -1, -i."""
    return [
        (1 + 0j, 1j, -1 + 0j, -1j)[4 * j // k] if 4 * j % k == 0
        else complex(math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k))
        for j in range(k)
    ]


def _default_sphere_points(k: int) -> list[complex]:
    """Cones at 0, the (k-2)-th roots of unity, and infinity (the last angle); one angle has no finite point."""
    return ([0j] if k > 1 else []) + _unit_roots(k - 2)


def _cmd_fit(args: argparse.Namespace) -> int:
    from . import extrapolate, phg

    with open(args.input, "r", encoding="utf-8") as f:
        lines = [s for s in (line.strip() for line in f) if s and not s.startswith("#")]
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:  # the one header: the first line, led by a non-number
            del lines[0]
    rows = []
    for line in lines:
        try:
            rho, value = (float(v) for v in line.split(","))
        except ValueError as exc:  # a wrong count or a non-number
            raise ValueError(f"malformed row {line!r}: expected rho,value") from exc
        rows.append((rho, value))
    slope, pair_slopes, passes = extrapolate.decay_verdict([r for r, _ in rows], [v for _, v in rows], args.N)
    payload = {
        "input": os.path.basename(args.input),
        "n_target": args.N,
        "slope": slope,
        "pair_slopes": pair_slopes,
        "passes": passes,
    }
    if args.terms:
        fit = phg.fit_exponents(rows, count=args.terms)
        payload["fit_ok"] = fit.ok
        payload["fit_terms"] = [{"alpha": t.alpha, "coefficient": t.coefficient} for t in fit.terms]
        payload["fit_message"] = fit.message
    _emit_json(payload, args)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="conic-moduli", description=__doc__)
    p.add_argument("--out", help="write output to this path instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("faces", help="enumerate boundary strata of the deepest face")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--augmented", action="store_true")
    f.add_argument("--format", choices=("json", "csv"), default="json")
    f.set_defaults(func=_cmd_faces)

    c = sub.add_parser("charts", help="chart verification")
    csub = c.add_subparsers(dest="subcommand", required=True)
    cv = csub.add_parser("verify")
    cv.add_argument("--chart", choices=("two", "three-corner"), required=True)
    cv.add_argument("--samples", type=int, default=10_000)
    cv.add_argument("--seed", type=int)
    cv.add_argument("--region", type=float, default=0.3)
    cv.set_defaults(func=_cmd_charts_verify)

    k = sub.add_parser("cones", help="cone-angle calculus")
    ksub = k.add_subparsers(dest="subcommand", required=True)
    kc = ksub.add_parser("classify")
    kc.add_argument("--genus", type=int, required=True)
    kc.add_argument("--curvature", type=int, choices=(-1, 0, 1), required=True)
    kc.add_argument("--beta", required=True, help="comma-separated rationals, e.g. 1/2,2/3")
    kc.set_defaults(func=_cmd_cones_classify)

    fl = sub.add_parser("flat", help="flat conic metrics")
    flsub = fl.add_subparsers(dest="subcommand", required=True)
    fe = flsub.add_parser("expand")
    fe.add_argument("--beta1", required=True)
    fe.add_argument("--beta2", required=True)
    fe.add_argument("--order", type=int, default=4)
    fe.set_defaults(func=_cmd_flat_expand)
    fp = flsub.add_parser("probe")
    fp.add_argument("--beta", required=True)
    fp.add_argument("--points", help="semicolon-separated re,im pairs (default: unit roots)")
    fp.add_argument("--index", type=int, default=0)
    fp.add_argument("--radii", default="1e-2,3.16e-3,1e-3,3.16e-4,1e-4")
    fp.set_defaults(func=_cmd_flat_probe)

    g = sub.add_parser("phg", help="asymptotic-series tables")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gi = gsub.add_parser("index")
    gi.add_argument("--beta", required=True)
    gi.add_argument("--cutoff", required=True)
    gi.set_defaults(func=_cmd_phg_index)
    gu = gsub.add_parser("u0")
    gu.add_argument("--order", type=int, default=8)
    gu.set_defaults(func=_cmd_phg_u0)
    gr = gsub.add_parser("recurse")
    gr.add_argument("--beta", required=True)
    gr.add_argument("--steps", type=int, default=2)
    gr.add_argument("--truncation", default="4")
    gr.add_argument("--assign", action="append", help="free coefficient, e.g. 'a[1,1,c]=1'")
    gr.set_defaults(func=_cmd_phg_recurse)

    s = sub.add_parser("solve", help="nonlinear Liouville solves")
    ssub = s.add_subparsers(dest="subcommand", required=True)
    sh = ssub.add_parser("hyperbolic")
    sh.add_argument("--beta", required=True, help="merged cone parameter, e.g. 1/2")
    sh.add_argument("--mesh", default="96x24")
    sh.add_argument("--rmin", type=float, default=1e-3)
    sh.add_argument("--rmax", type=float, default=0.7)
    sh.add_argument("--tol", type=float, default=1e-10)
    sh.add_argument("--series-order", type=int, default=4)
    sh.add_argument("--seed", type=int)
    sh.set_defaults(func=_cmd_solve_hyperbolic)
    sp = ssub.add_parser("spherical")
    sp.add_argument("--beta", required=True, help="comma-separated cone parameters; last sits at infinity")
    sp.add_argument("--points", help="finite cone points as re,im;re,im (default layout)")
    sp.add_argument("--mesh", default="129x24")
    sp.add_argument("--extent", type=float, default=6.0, help="log-radius half-width")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_solve_spherical)

    ft = sub.add_parser("fit", help="slope report for a decay family CSV")
    ft.add_argument("--input", required=True)
    ft.add_argument("--N", type=int, required=True)
    ft.add_argument("--terms", type=int, default=0, help="also peel this many power terms")
    ft.set_defaults(func=_cmd_fit)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, ValueError, OSError) as exc:
        # ArithmeticError covers the solver's and phg's numeric errors, and
        # LinAlgError, a ValueError subclass, is numeric too; numpy.linalg can
        # only have raised it if the command loaded it
        linalg = sys.modules.get("numpy.linalg")
        if isinstance(exc, ArithmeticError) or (linalg is not None and isinstance(exc, linalg.LinAlgError)):
            print(f"numeric error: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
