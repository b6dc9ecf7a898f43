import functools
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conic_moduli import solver
from conic_moduli.cli import main
from conic_moduli.phg import u0_truncated


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_commands():
    """The argument lists of the sh block under the README's "## Command line"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def write_family_csv(directory):
    """The ``family.csv`` that the README's ``fit`` command reads."""
    with open(directory / "family.csv", "w") as f:
        f.write("rho,value\n")
        for r in (0.1, 0.05, 0.025, 0.0125):
            f.write(f"{r},{r**2}\n")


def fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_family_csv(tmp_path)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refused a flag or subcommand
        rc = exc.code
    assert rc == 0, capsys.readouterr().err


# the README commands that compute in floating point; the others run on the standard library alone
NUMPY_COMMANDS = (["charts", "verify"], ["flat", "probe"], ["fit"], ["solve"])


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_loads_scipy_only_to_solve(argv, tmp_path):
    # a cold process: each command imports only the layers it runs, and only
    # the solve commands import the solver, and with it scipy
    write_family_csv(tmp_path)
    code = (
        "import contextlib, io, sys\n"
        "from conic_moduli.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(rc, 'numpy' in sys.modules, 'scipy' in sys.modules)\n"
    )
    numpy = any(argv[: len(prefix)] == prefix for prefix in NUMPY_COMMANDS)
    assert fresh_python(code, tmp_path).split() == ["0", str(numpy), str(argv[0] == "solve")]


def test_solver_import_leaves_ode_stack_unloaded(tmp_path):
    # no library module and no README solve loads scipy's ODE integrators
    solves = [argv for argv in readme_commands() if argv[0] == "solve"]
    code = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "import conic_moduli\n"
        "for mod in pkgutil.iter_modules(conic_moduli.__path__):\n"
        "    importlib.import_module(f'conic_moduli.{mod.name}')\n"
        "from conic_moduli.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rcs = [main(argv) for argv in {solves!r}]\n"
        "print(*rcs, 'scipy.integrate' in sys.modules)\n"
    )
    assert fresh_python(code, tmp_path).split() == ["0", "0", "False"]


def test_faces_csv_row_count(capsys):
    rc, out, _ = run(capsys, "faces", "--k", "3", "--format", "csv")
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l and not l.startswith("#")]
    assert len(lines) - 1 == 4  # header plus one row per stratum


def test_faces_json_deterministic(capsys):
    rc1, out1, _ = run(capsys, "faces", "--k", "4")
    rc2, out2, _ = run(capsys, "faces", "--k", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 26
    assert payload["version"]


def test_charts_verify_payload(capsys):
    rc, out, _ = run(capsys, "charts", "verify", "--chart", "two", "--samples", "500", "--region", "0.3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["lifting"]["row_condition_ok"]
    assert payload["positivity_ok"]
    assert payload["seed"] == 20240
    rc2, out2, _ = run(capsys, "charts", "verify", "--chart", "two", "--samples", "500", "--region", "0.3")
    assert out2 == out


def test_seed_flag_takes_precedence_over_the_environment(capsys, monkeypatch):
    argv = ["charts", "verify", "--chart", "two", "--samples", "50"]
    rc, out, _ = run(capsys, *argv, "--seed", "7")
    assert rc == 0 and '"seed": 7' in out
    monkeypatch.setenv("CONIC_MODULI_SEED", "11")
    assert run(capsys, *argv, "--seed", "7") == (0, out, "")
    rc, env_out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(env_out)["seed"] == 11


def test_charts_verify_corner_100k_meets_tolerances(capsys):
    # the 100,000-sample corner check spans ten sampling blocks
    rc, out, _ = run(capsys, "charts", "verify", "--chart", "three-corner", "--samples", "100000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["samples"] == 100_000
    assert payload["roundtrip_max_err"] < 1e-12
    lo, hi = payload["factors"]["rho123"]
    assert 0.95394 - 1e-9 <= lo and hi <= 1.0
    assert payload["lifting"]["row_condition_ok"] and payload["positivity_ok"]


@pytest.mark.parametrize(
    "row, failed",
    [((0, 2), '"positivity_ok": false'), ((1, 1), '"row_condition_ok": false')],
    ids=["wrong-exponent", "two-faces-in-a-row"],
)
def test_charts_verify_that_fails_exits_1_after_its_payload(row, failed, capsys, monkeypatch):
    # the corner chart's face of R12 lifted with a wrong row of exponents
    from conic_moduli import charts

    derived = charts._lifting

    def wrong(clusters, fiber):
        lifting = derived(clusters, fiber)
        entries = tuple(row if name == "C12[R12]" else e for name, e in zip(lifting.rows, lifting.entries))
        return charts.LiftingMatrix(lifting.rows, lifting.cols, entries)

    monkeypatch.setattr(charts, "_lifting", wrong)
    rc, out, _ = run(capsys, "charts", "verify", "--chart", "three-corner", "--samples", "1000")
    assert rc == 1
    assert failed in out
    assert json.loads(out)["samples"] == 1000


def test_cones_classify_matches_table(capsys):
    rc, out, _ = run(
        capsys, "cones", "classify", "--genus", "0", "--curvature", "1", "--beta", "1/2,2/3,2/3,5/6"
    )
    assert rc == 0
    payload = json.loads(out)
    verdicts = {v["subset"]: v for v in payload["verdicts"] if "partner" not in v}
    assert verdicts["{1,4}"]["status"] == "TroyanovViolated"
    assert verdicts["{1,4}"]["at_equality"] is True
    assert verdicts["{2,4}"]["status"] == "Admissible"
    footballs = [v for v in payload["verdicts"] if v.get("partner")]
    assert any(v["status"] == "FootballBoundary" for v in footballs)


REFUSALS = {
    "malformed_beta": (["cones", "classify", "--genus", "0", "--curvature", "1", "--beta", "0.x"], "not a rational"),
    # 1 - 0.45 = 0.55 > (1 - 0.5) + (1 - 0.96) = 0.54: no spherical metric
    "luo_tian_violation": (["solve", "spherical", "--beta", "9/20,1/2,24/25", "--points", "0,0;1,0"], "Luo-Tian"),
    # on the Luo-Tian equality exactly; snapped to denominators <= 10^6 the angles
    # read admissible, and the solve used to exit 0
    "luo_tian_equality_past_the_float_snap": (
        ["solve", "spherical", "--beta", "1000005/2000006,1/2,1/1000003", "--points", "0,0;1,0"],
        "cone angles 1000005/2000006, 1/2, 1/1000003 violate the Luo-Tian",
    ),
    # rfrak = r^beta / beta reaches 2 at r = 1 for beta = 1/2
    # the teardrop: it used to reach Newton and end on the gap guard (exit 1)
    "spherical_one_cone": (
        ["solve", "spherical", "--beta", "3", "--points", ";"], "one cone point of angle 3: no spherical metric"
    ),
    # the default layout of one angle has no finite point: the library's refusal
    # a point with beta = 1 is smooth, so these are two cones of unequal angles;
    # counted as three, they used to exit 0 with spectral_gap 2.914
    "spherical_two_cones_and_a_smooth_point": (
        ["solve", "spherical", "--beta", "1/2,1,1/3"], "cone angles 1/2, 1, 1/3 violate the Luo-Tian"
    ),
    "spherical_one_cone_default_layout": (
        ["solve", "spherical", "--beta", "3"], "one cone point of angle 3: no spherical metric"
    ),
    "hyperbolic_past_closing_radius": (["solve", "hyperbolic", "--beta", "1/2", "--rmax", "1.5"], "closing radius"),
    "faces_enumeration_cap": (["faces", "--k", "8"], "k <= 7"),
    "assign_names_no_free_coefficient": (["phg", "recurse", "--beta", "3/4", "--assign", "zzz=5"], "'zzz'"),
    "assign_value_divide_by_zero": (
        ["phg", "recurse", "--beta", "3/4", "--assign", "a[1,1,c]=1/0"], "not a rational"
    ),
    "recurse_steps_zero": (["phg", "recurse", "--beta", "3/4", "--steps", "0"], "steps must be at least 1"),
    "probe_index_past_k": (["flat", "probe", "--beta", "1/3,1/3,1/3", "--index", "5"], "point index 5"),
    "probe_index_negative": (["flat", "probe", "--beta", "1/3,1/3,1/3", "--index", "-1"], "point index -1"),
    "hyperbolic_beta_zero": (["solve", "hyperbolic", "--beta", "0"], "beta must be positive"),
    "hyperbolic_beta_negative": (["solve", "hyperbolic", "--beta=-1/2"], "beta must be positive"),
    "mesh_three_parts": (["solve", "hyperbolic", "--beta", "1/2", "--mesh", "129x24x3"], "expected NTxNPHI"),
    "points_missing_im": (
        ["solve", "spherical", "--beta", "1/2,2/3,3/4,5/6", "--points", "0,0;1,0;2"], "expected re,im;re,im"
    ),
    # refused before any assembly, where a full Newton used to stall
    "coincident_finite_points": (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;0,0"], "marked point 0,0 is repeated"
    ),
    # a NaN point or radius used to print nan ratios (exit 0) or fail on the density
    "probe_point_not_finite": (
        ["flat", "probe", "--beta", "1/3,1/3,1/3", "--points", "0,0;nan,0;1,1"], "marked point nan,0 is not finite"
    ),
    # used to be refused as "largest radius reaches another marked point"
    "probe_point_repeated": (
        ["flat", "probe", "--beta", "1/3,1/3,1/3", "--points", "0,0;0,0;1,0"], "marked point 0,0 is repeated"
    ),
    "spherical_beta_count_mismatch": (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0"], "need one more beta than finite points"
    ),
    "spherical_point_not_finite": (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "nan,0;1,0"], "marked point nan,0 is not finite"
    ),
    # (1 + r^2)^2 in the background density overflowed past extent 177.45: numpy
    # warned and the density was refused as not positive, without naming the extent
    **{
        f"spherical_extent_{e}_overflows_the_density": (
            ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--extent", e], f"extent {float(e)} must be positive"
        )
        for e in ("180", "350", "709")
    },
    # math.exp overflowed before FiberMesh saw the radii (exit 1, "math range error")
    "spherical_extent_overflows": (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--extent", "710"], "extent 710.0 must be positive"
    ),
    "spherical_extent_far_past_overflow": (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--extent", "1e6"], "extent 1000000.0 must be positive"
    ),
    "probe_radius_not_finite": (["flat", "probe", "--beta", "1/3,1/3,1/3", "--radii", "1e-2,nan"], "radii must be finite"),
    # a negative cone parameter used to reach Newton and fail on the spectral gap (exit 1)
    "spherical_beta_negative": (
        ["solve", "spherical", "--beta", "3/2,-1/2,1", "--mesh", "65x16"], "angle parameters must be positive"
    ),
    # floor(4 / (2/16)) = 32 one-cone terms, more than phg.u0_series hands out
    "recurse_needs_too_many_u0_terms": (
        ["phg", "recurse", "--beta", "1/16", "--truncation", "4"], "beta = 1/16 with truncation 4 needs 32 one-cone terms"
    ),
    # a box of 210,000,651 (j, k) pairs would take minutes and GBs; the cap refuses before enumerating
    "index_past_cap": (["phg", "index", "--beta", "1/1000003", "--cutoff", "20"], "index set limited to 1000000"),
    # 17 cones would take ~11 s and ~230 MB; the cap refuses before enumerating
    "classify_past_cap": (
        ["cones", "classify", "--genus", "0", "--curvature", "1", "--beta", ",".join(["9/10"] * 17)],
        "limited to k <= 16",
    ),
    # chi(M, beta) without the sign of K leaves Gauss-Bonnet no positive area; each used to print a table
    "classify_hyperbolic_positive_chi": (
        ["cones", "classify", "--genus", "0", "--curvature", "-1", "--beta", "1/2,1/2,1/2"], "Gauss-Bonnet"
    ),
    "classify_spherical_negative_chi": (
        ["cones", "classify", "--genus", "0", "--curvature", "1", "--beta", "1/12,1/12,1/12"], "Gauss-Bonnet"
    ),
    "classify_flat_nonzero_chi": (
        ["cones", "classify", "--genus", "0", "--curvature", "0", "--beta", "1/2,1/2,1/2"], "Gauss-Bonnet"
    ),
    # refused by the existence verdict before any assembly, whatever the largest angle
    "spherical_negative_chi": (
        ["solve", "spherical", "--beta", "1/12,1/12,1/12,5/4", "--points", "0,0;1,0;2,0"], "Gauss-Bonnet"
    ),
    # these three used to print a table, silently keep the last value, or leak numpy's message
    "expand_beta_zero": (["flat", "expand", "--beta1", "0", "--beta2", "1/2"], "angle parameters must be positive"),
    "expand_beta_negative": (["flat", "expand", "--beta1=-1/2", "--beta2", "1/2"], "angle parameters must be positive"),
    "assign_name_twice": (
        ["phg", "recurse", "--beta", "3/4", "--assign", "a[1,1,c]=1", "--assign", "a[1,1,c]=2"],
        "'a[1,1,c]' is assigned twice",
    ),
    "charts_region_below_radial_floor": (
        ["charts", "verify", "--chart", "two", "--region", "1e-300"], "radial samples start at 1e-06"
    ),
    # e^{2t} = r^2 underflows at r_min = 1e-300: the lumped mass used to be 0 on the pole ring
    "hyperbolic_mass_underflow": (
        ["solve", "hyperbolic", "--beta", "1/2", "--rmin", "1e-300", "--mesh", "65x16"], "lumped mass W is zero"
    ),
}
# a NaN or infinite tol would end the solve loop early and print an unsolved field as solved
for _tol, _message in (("nan", "positive"), ("0", "positive"), ("-1", "positive"), ("inf", "finite")):
    REFUSALS[f"hyperbolic_tol_{_tol}"] = (
        ["solve", "hyperbolic", "--beta", "1/2", "--mesh", "48x16", f"--tol={_tol}"], f"tol must be {_message}"
    )
    REFUSALS[f"spherical_tol_{_tol}"] = (
        ["solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0", "--mesh", "65x16", f"--tol={_tol}"],
        f"tol must be {_message}",
    )


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_2(argv, message, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_football_solve_exits_1(capsys):
    rc, _, err = run(
        capsys,
        "solve", "spherical", "--beta", "1/2,1/2", "--points", "0,0",
        "--mesh", "97x16", "--extent", "5",
    )
    assert rc == 1
    assert "numeric error" in err


@pytest.mark.parametrize("betas", ["1,1/2,1/2", "1/3,1,1,1/3"])
def test_football_with_smooth_marked_points_exits_1(betas, capsys):
    # two equal cones and smooth points (beta = 1): the football, whose exact gap
    # is 2; counted as cones, these exited 0 with gaps 2.124 and 2.188
    rc, out, err = run(capsys, "solve", "spherical", "--beta", betas)
    assert rc == 1
    assert out == ""
    assert err == "numeric error: two equal cone angles: the degenerate family with spectral gap exactly 2\n"


def test_smooth_marked_point_leaves_the_solve_unchanged(capsys):
    # a point with beta = 1 adds nothing to the background, so the payload is the
    # three-cone solve's, byte for byte, apart from the angles it echoes
    rc, out, _ = run(capsys, "solve", "spherical", "--beta", "2/3,2/3,1,2/3", "--points", "0,0;1,0;-1,0")
    assert rc == 0
    three = run(capsys, "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0")
    assert three[0] == 0
    assert out == three[1].replace('"beta": "2/3,2/3,2/3"', '"beta": "2/3,2/3,1,2/3"')


def test_newton_refuses_a_start_it_cannot_move_exits_1(capsys):
    # at extent 1e-9 the step from the start moves u by at most tol, so nothing was
    # solved: this used to exit 0 with the unsolved start, residual_sup
    # 2128653.995767803 and spectral_gap 1.49e18
    rc, out, err = run(capsys, "solve", "spherical", "--beta", "2/3,2/3,2/3", "--extent", "1e-9")
    assert rc == 1
    assert out == ""
    assert err == (
        "numeric error: the step from the start moves u by at most tol at residual 2.129e+06: nothing was solved\n"
    )


def test_newton_that_cannot_reach_tol_exits_1(capsys):
    # at extent 40 the residual's W-norm per unit area stalls near 2.4e-4 and no
    # correction is at most tol, so the solve stalls.  The evaluation floor
    # accepted it with exit 0, residual_sup 144642414.3598114 and gap 2.707 after
    # 3 factors
    rc, out, err = run(capsys, "solve", "spherical", "--beta", "2/3,2/3,2/3", "--extent", "40")
    assert rc == 1
    assert out == ""
    assert err == "numeric error: Newton stalled at residual 8.036e+07\n"


def test_newton_at_extent_24_exits_1_at_one_blas_thread(tmp_path):
    # 1025x48 at extent 24: the W-norm per unit area stalls near 7e-9, where it is
    # round-off, and noise-level rejections lift tau above _NEWTON_TAU0 before a
    # correction of at most tol is seen, so the solve stalls.  The evaluation floor
    # accepted it with exit 0, residual_sup 0.005545090820243655 and gap 20.565
    # after 2 factors.  Its verdict depends on the BLAS thread count (at two the
    # rejections fall differently and a fresh correction of 1e-12 ends it with
    # exit 0), so it runs at one thread, as CI and perfbench pin
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = ["solve", "spherical", "--beta", "1/2,1/3,1/4", "--mesh", "1025x48", "--extent", "24"]
    proc = subprocess.run(
        [sys.executable, "-m", "conic_moduli.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr == "numeric error: Newton stalled at residual 4.900e-03\n"


# a probe whose quadrature stops short of QUAD_RTOL; each used to exit 0 with the
# unconverged ratio (0.341402099244046 at r = 0.999, 0.36656564931755786 at 0.999999)
UNCONVERGED_PROBES = {
    "probe_radial_rule_unconverged": (
        ["flat", "probe", "--beta", "1/3,1/3,1/3", "--points", "0,0;1,0;-1,0", "--radii", "0.999"],
        "radial_log_integral did not converge to QUAD_RTOL in 4096 panels of 16 nodes",
    ),
    "probe_circle_rule_unconverged": (
        ["flat", "probe", "--beta", "1/3,1/3,1/3", "--points", "0,0;1,0;-1,0", "--radii", "0.999999"],
        "circle_integral did not converge to QUAD_RTOL in 131072 nodes",
    ),
}


@pytest.mark.parametrize("argv, message", UNCONVERGED_PROBES.values(), ids=UNCONVERGED_PROBES.keys())
def test_unconverged_probe_exits_1(argv, message, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"numeric error: {message}\n"


@pytest.mark.parametrize(
    "error", [solver.DivergenceError, solver.NonconvergenceError, solver.FootballDegeneracyError],
    ids=lambda e: e.__name__,
)
def test_solver_error_exits_1(error, capsys, monkeypatch):
    # the solver's errors are ArithmeticErrors, which main maps to exit 1
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(solver, "spherical_cone_solve", fail)
    rc, out, err = run(capsys, "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0")
    assert rc == 1
    assert out == ""
    assert err == "numeric error: injected\n"


def test_linalg_error_exits_1(capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it is a numeric failure, not a
    # malformed configuration
    def singular(op, *args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(solver, "eigen_gap", singular)
    rc, _, err = run(
        capsys,
        "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0", "--mesh", "65x16",
    )
    assert rc == 1
    assert "numeric error" in err


def test_arpack_nonconvergence_exits_1(capsys, monkeypatch):
    def stuck(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", stuck)
    mesh = solver.FiberMesh(math.exp(-6), math.exp(6), 65, 16, inner="pole", outer="pole")
    # a non-radial operator: a rotation-invariant one's gap never reaches ARPACK
    density, _ = solver.singular_sphere_background([2 / 3] * 3, [0j, 1 + 0j])
    with pytest.raises(solver.NonconvergenceError):
        solver.eigen_gap(solver.assemble(mesh, density))
    rc, out, err = run(
        capsys,
        "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0", "--mesh", "65x16",
    )
    assert rc == 1
    assert out == "" and "numeric error" in err


def test_four_cone_default_layout_solves(capsys):
    # the default layout is 0, 1, -1 exactly: float cos/sin put the third finite
    # cone at -1 + 1.2e-16j, and the payload's last digits moved with it
    default = run(capsys, "solve", "spherical", "--beta", "1/2,2/3,3/4,5/6")
    assert default[0] == 0 and json.loads(default[1])["spectral_gap"] > 2.05
    explicit = run(capsys, "solve", "spherical", "--beta", "1/2,2/3,3/4,5/6", "--points", "0,0;1,0;-1,0")
    assert default == explicit


def test_hyperbolic_payload_is_the_shared_solve(capsys):
    rc, out, _ = run(capsys, "solve", "hyperbolic", "--beta", "1/2", "--mesh", "48x16")
    assert rc == 0
    payload = json.loads(out)
    mesh = solver.FiberMesh(1e-3, 0.7, 48, 16, inner="pole", outer="dirichlet")
    rep = solver.hyperbolic_correction_solve(mesh, 0.5, functools.partial(u0_truncated, order=4), tol=1e-10)
    assert payload["iterations"] == rep.iterations
    assert payload["residual_sup"] == rep.residual_sup
    assert payload["sup_correction"] == rep.sup_solution


def test_phg_index_csv(capsys):
    rc, out, _ = run(capsys, "phg", "index", "--beta", "3/4", "--cutoff", "31/10")
    assert rc == 0
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    alphas = [r[0] for r in rows]
    assert alphas == ["1", "3/2", "2", "5/2", "3", "3"]


def test_phg_u0_csv(capsys):
    rc, out, _ = run(capsys, "phg", "u0", "--order", "2")
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert rows == [["1", "1/4"], ["2", "1/32"]]


def test_flat_expand_csv(capsys):
    rc, out, _ = run(capsys, "flat", "expand", "--beta1", "1/3", "--beta2", "3/4", "--order", "2")
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert rows[0] == ["1", "1", "5/12", "0"]
    assert rows[1] == ["2", "2", "11/24", "0"]


def test_flat_expand_prints_zero_rows(capsys):
    # equal angles cancel every odd power, which is still printed as a zero row
    rc, out, _ = run(capsys, "flat", "expand", "--beta1", "1/2", "--beta2", "1/2", "--order", "4")
    assert rc == 0
    assert out.splitlines()[2:] == ["1,1,0,0", "2,2,1/2,0", "3,3,0,0", "4,4,1/4,0"]


def test_fit_roundtrip(tmp_path, capsys):
    path = tmp_path / "family.csv"
    rhos = [0.1 / 2**i for i in range(5)]
    with open(path, "w") as f:
        f.write("rho,value\n")
        for r in rhos:
            f.write(f"{r},{2.0 * r**3}\n")
    rc, out, _ = run(capsys, "fit", "--input", str(path), "--N", "3", "--terms", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passes"]
    assert payload["slope"] == pytest.approx(3.0, abs=1e-8)
    assert payload["fit_terms"][0]["alpha"] == pytest.approx(3.0, abs=1e-6)


FIT_REFUSALS = {
    "one_field_row": (["0.1,0.01", "0.05", "0.025,0.000625"], [], "malformed row '0.05'"),
    "increasing_rho": (["0.025,0.000625", "0.05,0.0025", "0.1,0.01"], [], "strictly decreasing"),
    "non_geometric_rho": (["0.1,0.01", "0.05,0.0025", "0.03,0.0009"], [], "geometric"),
    "zero_value": (["0.1,0.01", "0.05,0", "0.025,0.000625"], [], "nonzero"),
    "nan_value": (["0.1,0.01", "0.05,nan", "0.025,0.000625"], [], "finite"),
    # a data row led by letters is no header, however it is spelt
    "nan_rho": (["0.1,0.01", "nan,0.5", "0.05,0.0025", "0.025,0.000625"], [], "strictly decreasing"),
    "text_row": (["0.1,0.01", "0.05,0.0025", "0.025,0.000625", "extrapolated,0.5"], [], "'extrapolated,0.5'"),
    "terms_negative": (["0.1,0.01", "0.05,0.0025", "0.025,0.000625"], ["--terms", "-1"], "at least 1"),
}


@pytest.mark.parametrize("rows, extra, message", FIT_REFUSALS.values(), ids=FIT_REFUSALS.keys())
def test_fit_refusal_exits_2(rows, extra, message, tmp_path, capsys):
    path = tmp_path / "family.csv"
    path.write_text("rho,value\n" + "\n".join(rows) + "\n")
    rc, out, err = run(capsys, "fit", "--input", str(path), "--N", "2", *extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("n_target", [2, 3])
def test_fit_and_decay_check_share_the_verdict(n_target, tmp_path, capsys):
    # constant fields: the interior sup of each is the value's magnitude
    rhos = [0.1 / 2**i for i in range(5)]
    values = [-2.0 * r**2.5 * (1 + r) for r in rhos]
    path = tmp_path / "family.csv"
    path.write_text("rho,value\n" + "".join(f"{r!r},{v!r}\n" for r, v in zip(rhos, values)))
    rc, out, _ = run(capsys, "fit", "--input", str(path), "--N", str(n_target))
    assert rc == 0
    payload = json.loads(out)
    rep = solver.decay_check([(r, np.full((5, 4), v)) for r, v in zip(rhos, values)], n_target)
    assert payload["slope"] == rep.value_slope
    assert payload["pair_slopes"] == list(rep.pair_slopes)
    assert payload["passes"] == rep.passes == (n_target == 2)


DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


# the "fit variant" entries read perfbench's seeded input; its --self-check runs them
@pytest.mark.parametrize("command", [k for k in DIGESTS if not k.startswith("fit variant")])
def test_output_matches_stored_digest(command, capsys):
    rc, out, _ = run(capsys, *shlex.split(command))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "faces.csv"
    rc, out, _ = run(capsys, "--out", str(target), "faces", "--k", "2", "--format", "csv")
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert "(1,2)" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("charts", "verify", "--chart", "two", "--samples", "500"),
        ("phg", "index", "--beta", "3/4", "--cutoff", "31/10"),
    ],
    ids=["json", "csv"],
)
def test_out_file_matches_stdout(argv, tmp_path, capsys):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    target = tmp_path / "payload"
    rc, out_file, _ = run(capsys, "--out", str(target), *argv)
    assert rc == 0 and out_file == ""
    assert target.read_bytes() == out.encode()


def test_emitted_csv_reingested_by_fit(tmp_path, capsys):
    # round-trip contract: flat probe output feeds the fit reader
    target = tmp_path / "probe.csv"
    rc, _, _ = run(
        capsys, "--out", str(target),
        "flat", "probe", "--beta", "1/3,1/3,1/3", "--radii", "1e-2,5e-3,2.5e-3,1.25e-3",
    )
    assert rc == 0
    # keep only numeric rows (drop the trailing extrapolation line)
    rows = [l for l in target.read_text().splitlines() if l and l[0].isdigit()]
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(rows) + "\n")
    rc2, out, _ = run(capsys, "fit", "--input", str(clean), "--N", "0")
    assert rc2 == 0
    payload = json.loads(out)
    assert payload["passes"]
