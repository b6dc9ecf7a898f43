import json
import math

import numpy as np
import pytest

from conic_moduli import solver
from conic_moduli.cli import main
from conic_moduli.phg import u0_series


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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


def test_spherical_reports_extent_from_rmin(capsys):
    rc, out, _ = run(
        capsys,
        "solve", "spherical", "--beta", "2/3,2/3,2/3", "--points", "0,0;1,0",
        "--mesh", "65x16", "--rmin", "0.01", "--no-guard",
    )
    assert rc == 0
    assert json.loads(out)["extent"] == -math.log(0.01)


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
