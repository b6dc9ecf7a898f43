"""Layered benchmark for conic-moduli.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a source checkout: the package is imported from
``./src``.  Workloads: ``sphere-continuation``, ``annulus-picard`` and
``readme-cli`` (measured), and ``sphere-4cone-stall`` (the known-defect probe,
see README.md).  One client runs one operation at a time (a closed loop).
All program code runs in child processes whose environment sets one BLAS
thread (so at most ``nproc``).

With ``--trace 0`` the run measures set-up (median of several cold starts),
then repeats passes over the workload's fixed operations until ``--seconds``
of passes have been measured, and reports the end-to-end metrics.  With
``--trace 1`` it runs one plain pass and one traced pass and reports the
per-layer metrics from the traced pass's spans, plus the tracing overhead.
Every output is checked (see checks.py); the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = {"full": 3, "tiny": 1}
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# one BLAS thread (at most nproc): with a fixed reduction order the float
# results, and so the iteration counts, repeat exactly, and the timings do not
# depend on how the other CPU is shared
BLAS_THREADS = 1


@dataclass
class Child:
    code: int
    seconds: float
    maxrss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Pass:
    wall_s: float
    ops: list[dict]  # name, seconds, error
    peak_rss_mb: float
    spans: list[list[list]] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["CONIC_MODULI_SEED"] = str(seed)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts the children of one run, each in the run's scratch directory."""

    def __init__(self, workload: str, seed: int, size: str, corrupt: str = "none"):
        self.workload, self.seed, self.size, self.corrupt = workload, seed, size, corrupt
        self.env = child_env(seed)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.ctx = checks.corrupted(checks.CheckContext.load(seed), corrupt)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's directory is still there

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion; its peak RSS comes from wait4."""
        out_path, err_path = os.path.join(self.dir, "stdout"), os.path.join(self.dir, "stderr")
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.dir)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read().strip()
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)

    def _job(self, job: str, *extra: str) -> tuple[Child, dict]:
        out = os.path.join(self.dir, f"{job}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [sys.executable, WORKER, job, "--workload", self.workload, "--size", self.size]
        child = self.child(argv + ["--seed", str(self.seed), "--out", out, *extra])
        payload = {}
        if child.code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as f:
                payload = json.load(f)
        return child, payload

    def setup(self) -> tuple[float, dict]:
        child, info = self._job("setup")
        if not info:
            raise RuntimeError(f"set-up exited {child.code}: {child.stderr[-2000:]}")
        return child.seconds, info

    def library_pass(self, trace: bool, op_names: list[str]) -> Pass:
        child, res = self._job("pass", "--corrupt", self.corrupt, *(["--trace"] if trace else []))
        if not res:
            error = f"worker exited {child.code}: {child.stderr[-500:]}"
            ops = [{"name": n, "seconds": child.seconds, "error": error} for n in op_names]
            return Pass(child.seconds, ops, child.maxrss_mb)
        return Pass(res["wall_s"], res["ops"], child.maxrss_mb, [res["spans"]] if trace else [])

    def cli_pass(self, trace: bool) -> Pass:
        spans_path = os.path.join(self.dir, "spans.json")
        ops, spans, peak = [], [], 0.0
        start = time.perf_counter()
        for cmd in workloads.readme_commands(self.size):
            if trace:
                argv = [sys.executable, WORKER, "cli", "--out", spans_path, "--", *cmd.argv]
            else:
                argv = [sys.executable, "-m", "conic_moduli.cli", *cmd.argv]
            child = self.child(argv)
            peak = max(peak, child.maxrss_mb)
            if child.code != 0:
                error = f"exit {child.code}: {child.stderr[-500:]}"
            else:
                error = checks.run_check(cmd.check, child.stdout, self.ctx)
            ops.append({"name": cmd.name, "seconds": child.seconds, "error": error})
            if trace and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as f:
                    spans.append(json.load(f)["spans"])
                os.remove(spans_path)
        return Pass(time.perf_counter() - start, ops, peak, spans)

    def one_pass(self, trace: bool, op_names: list[str]) -> Pass:
        if self.workload == workloads.CLI_WORKLOAD:
            return self.cli_pass(trace)
        return self.library_pass(trace, op_names)


# ---------------------------------------------------------------------------
# provenance


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "conic_moduli", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(runner: Runner, info: dict) -> dict:
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "size": runner.size,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "package": info["package"],
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "child_blas_threads": BLAS_THREADS,
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# one run


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", corrupt: str = "none") -> dict:
    """One run; returns the result object plus a report of what was measured."""
    runner = Runner(workload, seed, size, corrupt)
    try:
        _, info = runner.setup()  # untimed: compiles bytecode, writes the fit input
        names = info["ops"]
        setups = [] if trace else [runner.setup()[0] for _ in range(SETUP_SAMPLES[size])]
        if trace:
            passes = [runner.one_pass(False, names), runner.one_pass(True, names)]
        else:
            passes = [runner.one_pass(False, names)]
            while sum(p.wall_s for p in passes) < seconds:
                remaining = runner.deadline - time.perf_counter()
                if remaining < 1.5 * max(p.wall_s for p in passes) + 5.0:
                    break  # another pass would not end within the run's time
                passes.append(runner.one_pass(False, names))
    finally:
        runner.close()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op["error"]]
    if trace:
        metrics = tracing.layer_metrics(passes[1].spans)
        metrics["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "op_p50_s": statistics.median(op["seconds"] for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
            "ok_frac": (len(ops) - len(failed)) / len(ops),
        }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    report = {
        "provenance": provenance(runner, info),
        "passes": [p.wall_s for p in passes],
        "op_samples": len(ops),
        "setup_samples": setups,
        "failures": [f"{op['name']}: {op['error']}" for op in failed],
    }
    return {"result": result, "report": report}


def print_run(out: dict) -> None:
    result, report = out["result"], out["report"]
    prov = report["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  passes {len(report['passes'])}  "
          f"operations {report['op_samples']}  set-up samples {len(report['setup_samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':30s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for line in report["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"provenance": prov, "pass_wall_s": report["passes"], "setup_s": report["setup_samples"]}))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# self-check


def self_check() -> int:
    """Tiny runs: every metric is emitted with its unit, corrupted checks fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            out = run(w["name"], 1, 0.0, trace, size="tiny")
            got = {k: m["unit"] for k, m in out["result"]["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={int(trace)}: metrics {got} != {want}")
            if not out["result"]["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: {out['report']['failures']}")
    for workload, corrupt in (("readme-cli", "digest"), *((w["name"], "tolerance") for w in bench["workloads"])):
        out = run(workload, 1, 0.0, False, size="tiny", corrupt=corrupt)
        if out["result"]["failed"] == 0:
            problems.append(f"{workload}: a corrupted {corrupt} did not count as a failure")
        else:
            print(f"corrupted {corrupt} on {workload}: {out['result']['failed']} failure(s), as it should")
    for line in problems:
        print(f"SELF-CHECK FAILED {line}")
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*workloads.LIBRARY_OPS, workloads.CLI_WORKLOAD])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conic_moduli", "__init__.py")):
        print(f"error: no conic_moduli package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    print_run(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
