"""Child process of the benchmark; ``run.py`` starts it, one job per process.

    worker.py setup --workload W --size S --seed N --out FILE
        import what the workload calls and build its inputs (a cold start)
    worker.py pass --workload W --size S --seed N --out FILE [--trace]
        run one pass over a library workload's operations and check them
    worker.py cli --out FILE -- ARGS...
        run one traced ``conic-moduli ARGS...`` command

The package is imported from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src``.  Results, spans included, are written to FILE as JSON
when the job ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def _setup(args: argparse.Namespace) -> None:
    import workloads

    if args.workload == workloads.CLI_WORKLOAD:
        import conic_moduli.cli  # noqa: F401  (the cold start being measured)

        with open(workloads.FIT_INPUT, "w", encoding="utf-8") as f:
            f.write(workloads.fit_family(args.seed))
        ops = [c.name for c in workloads.readme_commands(args.size)]
    else:
        ops = [op.name for op in workloads.LIBRARY_OPS[args.workload](args.size)]
    import numpy
    import scipy

    _write(
        args.out,
        {
            "ops": ops,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "package": os.path.dirname(sys.modules["conic_moduli"].__file__),
        },
    )


def _pass(args: argparse.Namespace) -> None:
    import checks
    import workloads
    from tracing import Tracer

    ctx = checks.corrupted(checks.CheckContext.load(args.seed), args.corrupt)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.span("cli.import"):
            import conic_moduli.cli  # noqa: F401
    ops = workloads.LIBRARY_OPS[args.workload](args.size)
    if tracer is not None:
        tracer.install()

    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is recorded, not fatal
            seconds = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - t0
            error = checks.run_check(op.check, out, ctx)
        results.append({"name": op.name, "seconds": seconds, "error": error})
    wall = time.perf_counter() - start
    _write(args.out, {"ops": results, "wall_s": wall, "spans": tracer.spans if tracer else []})


def _cli(args: argparse.Namespace) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    try:
        with tracer.span("cli.import"):
            from conic_moduli import cli
        tracer.install()
        return cli.main(args.argv)
    finally:
        _write(args.out, {"spans": tracer.spans})


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="job", required=True)
    for job in ("setup", "pass"):
        s = sub.add_parser(job)
        s.add_argument("--workload", required=True)
        s.add_argument("--size", choices=("full", "tiny"), default="full")
        s.add_argument("--seed", type=int, required=True)
        s.add_argument("--out", required=True)
        if job == "pass":
            s.add_argument("--trace", action="store_true")
            s.add_argument("--corrupt", choices=("none", "digest", "tolerance"), default="none")
    c = sub.add_parser("cli")
    c.add_argument("--out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if args.job == "setup":
        _setup(args)
    elif args.job == "pass":
        _pass(args)
    else:
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _cli(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
