"""Span tracing around the package's public entry points, from outside.

The program is not edited: ``install`` replaces module attributes with
wrappers that record a span per call.  Calls made through the module
(``solver.assemble(...)`` from the CLI, or ``assemble(...)`` looked up as a
module global inside ``solver``) go through the wrapper.  Only entry points
are wrapped, never per-sample helpers, so the overhead stays small.

A span is ``[name, start, end, parent, op, count]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the operation id of the
workload, ``count`` a work count taken from the call's result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from typing import Callable, Optional

Counter = Callable[[tuple, dict, object], int]


def _report_iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _length(args, kwargs, result) -> int:
    return len(result)


def _samples(args, kwargs, result) -> int:
    return int(result.samples)


# (module, attribute, span name, counter); modules are imported by ``install``
ENTRY_POINTS: list[tuple[str, str, str, Optional[Counter]]] = [
    ("conic_moduli.cli", "main", "cli.main", None),
    ("conic_moduli.lattice", "enumerate_fmax_strata", "lattice.enumerate", _length),
    ("conic_moduli.charts", "pullback_report", "charts.pullback", _samples),
    ("conic_moduli.cones", "classify_merges", "cones.classify", _length),
    ("conic_moduli.flat", "corner_expansion_2pt", "flat.expand", None),
    ("conic_moduli.flat", "cone_angle_probe", "flat.probe", None),
    ("conic_moduli.flat", "circle_integral", "flat.circle_integral", None),
    ("conic_moduli.phg", "recursion_step", "phg.recursion_step", None),
    ("conic_moduli.phg", "fit_exponents", "phg.fit", None),
    ("scipy.sparse.linalg", "spsolve", "solver.spsolve", None),
    ("scipy.sparse.linalg", "splu", "solver.splu", None),
    ("conic_moduli.solver", "assemble", "solver.assemble", None),
    ("conic_moduli.solver", "picard_solve", "solver.picard", _report_iterations),
    ("conic_moduli.solver", "eigen_gap", "solver.eigen_gap", None),
    ("conic_moduli.solver", "spherical_cone_solve", "solver.continuation", _report_iterations),
    ("conic_moduli.solver", "singular_sphere_background", "solver.background", None),
    ("conic_moduli.solver", "merging_pair_residual_family", "solver.residual_family", None),
]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in ``ENTRY_POINTS`` (imports the package)."""
        for module_name, attr, name, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, counter))


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans: list[list], index: int, ancestor_name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer totals over one pass; ``span_lists`` holds one list per process.

    Times are summed span durations (``*_self_s``: minus child spans), counts
    are summed; ``cli.import_s`` is the median import time per process.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    own: dict[str, float] = {}
    imports: list[float] = []
    continuation_solves = 0
    for spans in span_lists:
        selfs = _self_times(spans)
        for i, (name, start, end, _parent, _op, count) in enumerate(spans):
            if name == "cli.import":
                imports.append(end - start)
                continue
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
            own[name] = own.get(name, 0.0) + selfs[i]
            if name == "solver.spsolve" and _under(spans, i, "solver.continuation"):
                continuation_solves += 1

    samples = counts.get("charts.pullback", 0)
    pullback_s = total.get("charts.pullback", 0.0)
    newton = counts.get("solver.continuation", 0)
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.self_s": own.get("cli.main", 0.0),
        "lattice.enumerate_s": total.get("lattice.enumerate", 0.0),
        "lattice.trees": counts.get("lattice.enumerate", 0),
        "charts.pullback_s": pullback_s,
        "charts.samples": samples,
        "charts.samples_per_s": samples / pullback_s if pullback_s > 0 else 0.0,
        "cones.classify_s": total.get("cones.classify", 0.0),
        "cones.verdicts": counts.get("cones.classify", 0),
        "flat.expand_s": total.get("flat.expand", 0.0),
        "flat.probe_s": total.get("flat.probe", 0.0),
        "flat.circle_integral_calls": calls.get("flat.circle_integral", 0),
        "phg.recursion_step_s": total.get("phg.recursion_step", 0.0),
        "phg.recursion_steps": calls.get("phg.recursion_step", 0),
        "phg.fit_s": total.get("phg.fit", 0.0),
        "solver.spsolve_s": total.get("solver.spsolve", 0.0),
        "solver.spsolve_calls": calls.get("solver.spsolve", 0),
        "solver.splu_s": total.get("solver.splu", 0.0),
        "solver.splu_calls": calls.get("solver.splu", 0),
        "solver.newton_iterations": newton,
        "solver.newton_kept_ratio": newton / continuation_solves if continuation_solves else 0.0,
        "solver.continuation_attempts": calls.get("solver.background", 0),
        "solver.continuation_self_s": own.get("solver.continuation", 0.0),
        "solver.assemble_s": total.get("solver.assemble", 0.0),
        "solver.assemble_calls": calls.get("solver.assemble", 0),
        "solver.picard_s": total.get("solver.picard", 0.0),
        "solver.picard_iterations": counts.get("solver.picard", 0),
        "solver.eigen_gap_s": total.get("solver.eigen_gap", 0.0),
        "solver.eigen_gap_calls": calls.get("solver.eigen_gap", 0),
        "solver.residual_family_s": total.get("solver.residual_family", 0.0),
    }
