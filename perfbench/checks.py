"""Output checks: stored digests for exact outputs, pinned tolerances for floats.

Every check raises ``CheckFailure`` with the reason; callers count that as a
failed operation.  Exact outputs (faces, cones classify, flat expand, phg
index/u0/recurse, fit) must match the SHA-256 digests in ``digests.json``,
recorded from the package's output at the commit that added this benchmark.
Float outputs must meet the acceptance-suite tolerances in ``TOLERANCES``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

TOLERANCES = {
    "roundtrip_max": 1e-12,  # chart round trips, strict upper bound
    "rho123_min": 0.95394 - 1e-9,  # smooth pullback factor, lower bound
    "rho123_max": 1.0,
    "gap_rel": 0.01,  # round sphere and footballs: |gap - 2| / 2 below this
    "cone_gap_min": 2.0,  # three-cone spheres: gap strictly above this
    "slope_margin": 0.1,  # decay slopes at least N - margin
    "probe_abs": 1e-6,  # cone-angle probe, extrapolated ratio
    "halving_rel": 0.2,  # manufactured Picard error ratio under mesh halving: 4 within 20 %
}

# what the self-check substitutes: bounds no output can meet
UNATTAINABLE = {
    "roundtrip_max": 0.0,
    "rho123_min": math.inf,
    "rho123_max": -math.inf,
    "gap_rel": 0.0,
    "cone_gap_min": math.inf,
    "slope_margin": -math.inf,
    "probe_abs": 0.0,
    "halving_rel": 0.0,
}

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class CheckFailure(Exception):
    """An output did not pass its check."""


@dataclass
class CheckContext:
    seed: int
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))
    digests: dict = field(default_factory=dict)

    @classmethod
    def load(cls, seed: int) -> "CheckContext":
        with open(DIGESTS_FILE, encoding="utf-8") as f:
            return cls(seed=seed, digests=json.load(f))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def exact(key: str):
    """Check that an output is byte-identical to the stored one under ``key``."""

    def check(out: bytes, ctx: CheckContext) -> None:
        want = ctx.digests.get(key)
        require(want is not None, f"no stored digest for {key!r}")
        got = sha256(out)
        require(got == want, f"digest {got[:12]} differs from stored {want[:12]} for {key!r}")

    return check


def charts_payload(samples: int):
    def check(out: bytes, ctx: CheckContext) -> None:
        tol = ctx.tolerances
        p = json.loads(out)
        lo, hi = p["factors"]["rho123"]
        require(p["roundtrip_max_err"] < tol["roundtrip_max"], f"roundtrip {p['roundtrip_max_err']:.3e}")
        require(lo >= tol["rho123_min"], f"rho123 factor {lo!r} below {tol['rho123_min']!r}")
        require(hi <= tol["rho123_max"], f"rho123 factor {hi!r} above {tol['rho123_max']!r}")
        require(p["lifting"]["row_condition_ok"] and p["positivity_ok"], "lifting or positivity check failed")
        require(p["samples"] == samples, f"samples {p['samples']} != {samples}")
        require(p["seed"] == ctx.seed, f"payload seed {p['seed']} != {ctx.seed}")

    return check


def probe_csv(beta: float):
    def check(out: bytes, ctx: CheckContext) -> None:
        last = out.decode().strip().splitlines()[-1]
        label, value = last.split(",")
        require(label == "extrapolated", f"unexpected last row {last!r}")
        err = abs(float(value) - beta)
        require(err < ctx.tolerances["probe_abs"], f"probe error {err:.3e}")

    return check


def hyperbolic_payload(out: bytes, ctx: CheckContext) -> None:
    p = json.loads(out)
    require(p["max_principle_bound_ok"], "maximum-principle bound violated")
    require(p["seed"] == ctx.seed, f"payload seed {p['seed']} != {ctx.seed}")


def spherical_payload(out: bytes, ctx: CheckContext) -> None:
    p = json.loads(out)
    three_cone_gap(p["spectral_gap"], ctx)
    require(p["seed"] == ctx.seed, f"payload seed {p['seed']} != {ctx.seed}")


def three_cone_gap(gap: float, ctx: CheckContext) -> None:
    require(gap is not None and gap > ctx.tolerances["cone_gap_min"], f"three-cone gap {gap!r} not above {ctx.tolerances['cone_gap_min']!r}")


def gap_near_two(gap: float, ctx: CheckContext) -> None:
    rel = abs(gap - 2.0) / 2.0
    require(rel < ctx.tolerances["gap_rel"], f"gap {gap!r} is {rel:.2%} from 2")


def halving_ratio(ratio: float, ctx: CheckContext) -> None:
    rel = abs(ratio / 4.0 - 1.0)
    require(rel <= ctx.tolerances["halving_rel"], f"mesh-halving error ratio {ratio:.3f} is {rel:.1%} from 4")


def decay_slope(slope: float, n: int, ctx: CheckContext) -> None:
    floor = n - ctx.tolerances["slope_margin"]
    require(math.isfinite(slope) and slope >= floor, f"order-{n} decay slope {slope:.4f} < {floor}")


def corrupted(ctx: CheckContext, what: str) -> CheckContext:
    """``ctx`` with every stored digest, or every tolerance, made unmeetable."""
    if what == "digest":
        return CheckContext(ctx.seed, ctx.tolerances, {k: sha256(b"corrupted " + k.encode()) for k in ctx.digests})
    if what == "tolerance":
        return CheckContext(ctx.seed, dict(UNATTAINABLE), ctx.digests)
    return ctx


def run_check(check, out, ctx: CheckContext):
    """Run one check; return None if it passed, else the reason it failed."""
    try:
        check(out, ctx)
    except CheckFailure as exc:
        return f"check failed: {exc}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
