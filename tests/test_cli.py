import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conic_moduli import solver
from conic_moduli.cli import main
from conic_moduli.phg import u0_series


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def readme_commands():
    """The argument lists of the sh block under the README's "## Command line"."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("family.csv", "w") as f:
        f.write("rho,value\n")
        for r in (0.1, 0.05, 0.025, 0.0125):
            f.write(f"{r},{r**2}\n")
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refused a flag or subcommand
        rc = exc.code
    assert rc == 0, capsys.readouterr().err


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


def test_malformed_beta_exits_2(capsys):
    rc, _, err = run(capsys, "cones", "classify", "--genus", "0", "--curvature", "1", "--beta", "0.x")
    assert rc == 2
    assert "error" in err


def test_football_solve_exits_1(capsys):
    rc, _, err = run(
        capsys,
        "solve", "spherical", "--beta", "1/2,1/2", "--points", "0,0",
        "--mesh", "97x16", "--extent", "5",
    )
    assert rc == 1
    assert "numeric error" in err


def test_luo_tian_violation_exits_2(capsys):
    # 1 - 0.45 = 0.55 > (1 - 0.5) + (1 - 0.96) = 0.54: no spherical metric
    rc, out, err = run(capsys, "solve", "spherical", "--beta", "9/20,1/2,24/25", "--points", "0,0;1,0")
    assert rc == 2
    assert out == "" and "Luo-Tian" in err


def test_hyperbolic_past_closing_radius_exits_2(capsys):
    # rfrak = r^beta / beta reaches 2 at r = 1 for beta = 1/2
    rc, out, err = run(capsys, "solve", "hyperbolic", "--beta", "1/2", "--rmax", "1.5")
    assert rc == 2
    assert out == "" and "closing radius" in err


def test_faces_enumeration_cap_exits_2(capsys):
    rc, out, err = run(capsys, "faces", "--k", "8")
    assert rc == 2
    assert out == "" and "k <= 7" in err


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
    with pytest.raises(solver.NonconvergenceError):
        solver.eigen_gap(solver.assemble(mesh, solver.round_sphere_density))
    rc, out, err = run(
        capsys,
        "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0", "--mesh", "65x16",
    )
    assert rc == 1
    assert out == "" and "numeric error" in err


def test_four_cone_default_layout_solves(capsys):
    # the default layout puts the third finite cone at -1 + 1.2e-16j; the
    # result must not depend on that rounding
    rc, out, _ = run(capsys, "solve", "spherical", "--beta", "1/2,2/3,3/4,5/6")
    assert rc == 0
    gap = json.loads(out)["spectral_gap"]
    assert gap > 2.05
    rc, out, _ = run(
        capsys, "solve", "spherical", "--beta", "1/2,2/3,3/4,5/6", "--points", "0,0;1,0;-1,0"
    )
    assert rc == 0
    assert gap == pytest.approx(json.loads(out)["spectral_gap"], rel=1e-8)


def test_hyperbolic_payload_is_the_shared_solve(capsys):
    rc, out, _ = run(capsys, "solve", "hyperbolic", "--beta", "1/2", "--mesh", "48x16")
    assert rc == 0
    payload = json.loads(out)
    mesh = solver.FiberMesh(1e-3, 0.7, 48, 16, inner="pole", outer="dirichlet")
    r, _ = mesh.grids()
    rfrak = r**0.5 / 0.5
    u_trunc = sum(float(c) * rfrak ** (2 * (j + 1)) for j, c in enumerate(u0_series(4))) * np.ones((48, 16))
    rep = solver.hyperbolic_correction_solve(mesh, 0.5, u_trunc, tol=1e-10)
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
