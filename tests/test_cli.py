"""Command-line interface: outputs, formats, determinism."""

import json
import subprocess
import sys

import pytest

from gradedgeo.cli import main


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_area_command_json():
    code, out = run_cli(
        ["area", "--catalog", "engel-graph:theta=x", "--degree", "4", "--grid", "64x64"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 4
    assert payload["value"] == pytest.approx(1.0709005268409828, rel=1e-12)
    assert not payload["divergent_by_theory"]


def test_area_auto_degree():
    code, out = run_cli(
        ["area", "--catalog", "rt-graph:u=x", "--grid", "32x32"]
    )
    payload = json.loads(out)
    assert payload["d"] == 3


def test_degree_scan_command():
    # an odd cell count centers one column of midpoints exactly on u_s = 0
    code, out = run_cli(
        ["degree-scan", "--catalog", "h1xh1-surface:u=s^2", "--grid", "15x5"]
    )
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert payload["singular_count"] == 5
    assert payload["lsc_certificate"]
    code, out = run_cli(
        ["degree-scan", "--catalog", "h1xh1-surface:u=s^2", "--grid", "16x5"]
    )
    assert json.loads(out)["singular_count"] == 0


def test_gr_limit_csv(tmp_path):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(
        [
            "gr-limit",
            "--catalog",
            "engel-graph:theta=x",
            "--degree",
            "4",
            "--grid",
            "32x32",
            "--r-seq",
            "1e-1,1e-2,1e-3",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r,v"
    assert len(lines) == 4


def test_regularity_command():
    code, out = run_cli(
        ["regularity", "--catalog", "isolated-plane", "--degree", "3", "--grid", "4x4"]
    )
    payload = json.loads(out)
    assert not payload["all_strongly_regular"]
    for row in payload["points"]:
        assert row["rank"] == 1 and row["ell"] == 3 and not row["flag"]


def test_admissibility_command(tmp_path):
    field_path = tmp_path / "field.json"
    field_path.write_text(
        json.dumps({"frame": "adapted", "components": ["0", "0", "1", "0"]})
    )
    code, out = run_cli(
        [
            "admissibility",
            "--catalog",
            "engel-graph:theta=0.2*x+0.3*y",
            "--degree",
            "4",
            "--grid",
            "4x4",
            "--field",
            str(field_path),
        ]
    )
    payload = json.loads(out)
    assert payload["max_residual_norm"] > 0.1  # X3 alone is not admissible


def test_first_variation_command(tmp_path):
    field_path = tmp_path / "field.json"
    field_path.write_text(
        json.dumps(
            {
                "frame": "normal",
                "components": ["0", "(16*x*(1-x)*y*(1-y))^2"],
            }
        )
    )
    code, out = run_cli(
        [
            "first-variation",
            "--catalog",
            "engel-graph:theta=0.2*x+0.3*y",
            "--degree",
            "4",
            "--grid",
            "48x48",
            "--field",
            str(field_path),
        ]
    )
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["value"]) > 1e-6


def test_el_residual_command():
    code, out = run_cli(
        ["el-residual", "--catalog", "engel-graph:theta=0.2*x+0.3*y", "--grid", "4x4"]
    )
    payload = json.loads(out)
    assert payload["d"] == 4
    assert payload["max_abs_residual"] > 0


def test_mean_curvature_command():
    code, out = run_cli(
        ["mean-curvature", "--catalog", "rt-graph:u=0.3*x+0.2*y^2", "--degree", "3", "--grid", "3x3"]
    )
    payload = json.loads(out)
    assert len(payload["points"]) == 9
    assert len(payload["points"][0]["H"]) == 1


def test_manifold_immersion_files(tmp_path):
    manifold_spec = {
        "coordinates": ["x", "y", "theta"],
        "frame": [
            {"degree": 1, "components": ["cos(theta)", "sin(theta)", "0"]},
            {"degree": 1, "components": ["0", "0", "1"]},
            {"degree": 2, "components": ["sin(theta)", "-cos(theta)", "0"]},
        ],
        "metric": "frame-orthonormal",
    }
    immersion_spec = {
        "params": ["x", "y"],
        "components": ["x", "y", "x"],
        "domain": [[0.0, 1.0], [0.0, 1.0]],
        "base_coords": [0, 1],
    }
    mpath = tmp_path / "manifold.json"
    ipath = tmp_path / "immersion.json"
    mpath.write_text(json.dumps(manifold_spec))
    ipath.write_text(json.dumps(immersion_spec))
    code, out = run_cli(
        [
            "area",
            "--manifold",
            str(mpath),
            "--immersion",
            str(ipath),
            "--degree",
            "3",
            "--grid",
            "64x64",
        ]
    )
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.311442498215547, rel=1e-10)


def test_cli_rerun_is_byte_identical():
    args = ["area", "--catalog", "engel-graph:theta=x+0.3*y", "--degree", "4", "--grid", "24x24"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gradedgeo.cli", "area", "--catalog", "rt-graph:u=x",
         "--degree", "3", "--grid", "16x16"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["d"] == 3


def test_cli_bad_catalog_errors():
    with pytest.raises(SystemExit):
        run_cli(["area", "--catalog", "missing-thing", "--grid", "8x8"])
    with pytest.raises(SystemExit):
        run_cli(["area", "--catalog", "rt-graph:u=x", "--grid", "8by8"])


def test_verify_subset_command():
    code, out = run_cli(["verify", "--catalog", "dimension-counts,flags"])
    assert code == 0
    assert "PASS" in out


def test_cli_refuses_non_finite_area(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", "--catalog", "rt-graph:u=log(x-0.5)", "--degree", "3", "--grid", "8x8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("gradedgeo: error: ") and "quadrature node" in err
    assert "Traceback" not in err


def test_cli_bad_input_is_one_line_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", "--catalog", "rt-graph:u=x", "--degree", "3", "--grid", "1x1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("gradedgeo: error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", "--catalog", "rt-graph:u=x", "--grid", "8x8", "--tol", "foo=bar"])
    assert exc.value.code == 2


def test_cli_subprocess_bad_input_exit_status():
    proc = subprocess.run(
        [sys.executable, "-m", "gradedgeo.cli", "area", "--catalog", "rt-graph:u=x",
         "--degree", "3", "--grid", "1x1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("gradedgeo: error: ") and "Traceback" not in proc.stderr
