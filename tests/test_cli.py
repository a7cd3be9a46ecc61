"""Command-line interface: outputs, formats, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gradedgeo
from gradedgeo import admissibility, catalog, cli, variation
from gradedgeo.admissibility import VariationField, residual
from gradedgeo.cli import main
from gradedgeo.immersion import uniform_grid

# Subprocesses import the same gradedgeo as this process, installed or not.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gradedgeo.__file__)))
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])),
}


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


def test_admissibility_command_builds_residuals_once(tmp_path, monkeypatch):
    original = admissibility.residual_exprs
    builds = []

    def counted(imm, field, d):
        builds.append(d)
        return original(imm, field, d)

    components = ["0", "x*y", "1", "0"]
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({"frame": "adapted", "components": components}))
    monkeypatch.setattr(admissibility, "residual_exprs", counted)
    monkeypatch.setattr(cli, "residual_exprs", counted)
    theta = "0.2*x+0.3*y"
    code, out = run_cli(["admissibility", "--catalog", f"engel-graph:theta={theta}",
                         "--degree", "4", "--grid", "4x4", "--field", str(field_path)])
    assert code == 0 and builds == [4]
    # each row is still the norm of the pointwise residual
    monkeypatch.setattr(admissibility, "residual_exprs", original)
    imm = catalog.immersion("engel-graph", theta=theta)
    field = VariationField.from_json(field_path.read_text(), imm.params)
    points, _ = uniform_grid(imm.domain, (4, 4))
    norms = [float(np.linalg.norm(residual(imm, field, p[None], 4)[0])) for p in points]
    assert [row[-1] for row in json.loads(out)["points"]] == norms


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


def _spec_files(tmp_path, missing=None, **immersion_values):
    """``--manifold``/``--immersion`` arguments for the rototrans graph theta = x.

    ``missing`` names a top-level key left out of whichever spec has it;
    ``immersion_values`` replace values of the immersion spec.
    """
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
    immersion_spec.update(immersion_values)
    for spec in (manifold_spec, immersion_spec):
        spec.pop(missing, None)
    mpath = tmp_path / "manifold.json"
    ipath = tmp_path / "immersion.json"
    mpath.write_text(json.dumps(manifold_spec))
    ipath.write_text(json.dumps(immersion_spec))
    return ["--manifold", str(mpath), "--immersion", str(ipath)]


def test_manifold_immersion_files(tmp_path):
    code, out = run_cli(["area", *_spec_files(tmp_path), "--degree", "3", "--grid", "64x64"])
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.311442498215547, rel=1e-10)


@pytest.mark.parametrize(
    "spec,key",
    [
        ("manifold", "coordinates"),
        ("manifold", "frame"),
        ("immersion", "params"),
        ("immersion", "components"),
        ("immersion", "domain"),
    ],
)
def test_spec_missing_key_is_one_line_exit_2(tmp_path, capsys, spec, key):
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", *_spec_files(tmp_path, missing=key), "--degree", "3", "--grid", "8x8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gradedgeo: error: {spec} spec is missing the key '{key}'\n"


PAIRS = "finite [lo, hi] pairs with lo < hi"


@pytest.mark.parametrize(
    "key,value,what",
    [
        ("params", "xy", "strings"),
        ("params", ["x", 2], "strings"),
        ("components", "x", "strings"),
        ("components", ["x", "y", 1.5], "strings"),
        ("domain", 5, PAIRS),
        ("domain", [[0.0, 1.0], [0.0]], PAIRS),
        ("domain", [[0.0, 1.0], [0.0, "1"]], PAIRS),
        ("domain", [[0.0, 1.0], [False, 1.0]], PAIRS),
        ("domain", [0.0, 1.0], PAIRS),
        ("domain", [[1.0, 0.0], [0.0, 1.0]], PAIRS),
        ("domain", [[0.0, float("inf")], [0.0, 1.0]], PAIRS),
        ("base_coords", 5, "coordinate indices in 0..2"),
        ("base_coords", [0, 3], "coordinate indices in 0..2"),
    ],
)
def test_spec_bad_value_is_one_line_exit_2(tmp_path, capsys, key, value, what):
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", *_spec_files(tmp_path, **{key: value}), "--degree", "3", "--grid", "8x8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gradedgeo: error: immersion spec key '{key}' must be a list of {what}\n"


def test_manifold_files_metric_spec(tmp_path, capsys):
    area = ["area", *_spec_files(tmp_path), "--degree", "3", "--grid", "16x16"]
    _, euclidean = run_cli(area + ["--metric", "euclidean"])
    metric_path = tmp_path / "metric.json"
    metric_path.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    _, from_file = run_cli(area + ["--metric", str(metric_path)])
    assert from_file == euclidean and json.loads(from_file)["metric"] == "coordinate"
    with pytest.raises(SystemExit) as exc:
        run_cli(area + ["--metric", "foo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("gradedgeo: error: unknown metric 'foo'") and err.count("\n") == 1
    metric_path.write_text(json.dumps({"matrix": [["1"]]}))
    with pytest.raises(SystemExit) as exc:
        run_cli(area + ["--metric", str(metric_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "gradedgeo: error: metric matrix must be 3 x 3, one entry per coordinate pair\n"


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
        env=SUBPROCESS_ENV,
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
    code, out = run_cli(["verify", "--catalog", "dimensions,flags"])
    assert code == 0
    assert out.endswith("2/2 checks passed\n")


def test_verify_refuses_unknown_check_names(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--catalog", "stationarity-residual,flags"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("gradedgeo: error: ") and err.count("\n") == 1
    assert "stationarity-residual" in err and "el_residual" in err and "isolation" in err


@pytest.mark.parametrize("degree", ["-3", "1", "6", "99"])
def test_degree_no_tangent_m_vector_can_have_is_refused(capsys, degree):
    # engel-graph: weights (1, 1, 2, 3), so a 2-vector has a degree in [2, 5]
    for command in (["area", "--grid", "8x8"], ["first-variation", "--field", "unused.json"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, "--catalog", "engel-graph:theta=0.3*x", "--degree", degree])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gradedgeo: error: degree {degree} is outside [2, 5], the degrees a tangent "
            "2-vector can have\n"
        )
    code, _ = run_cli(["area", "--catalog", "engel-graph:theta=0.3*x", "--degree", "2",
                       "--grid", "8x8"])
    assert code == 0


def test_cli_refuses_non_finite_area(capsys):
    # refused by the finiteness check alone: no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run_cli(["area", "--catalog", "rt-graph:u=log(x-0.5)", "--degree", "3", "--grid", "8x8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("gradedgeo: error: ") and "quadrature node" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command,z,message",
    [
        # z = 0 makes X3 = z d/dz the zero field on the image, refused by name
        # before its coframe's constant 1/z = 1/0 reaches a tape
        pytest.param(["area", "--degree", "3"], "0",
                     "frame field X3 vanishes on the image, so the frame is no basis there",
                     id="command0-0-frame field X3 vanishes"),
        pytest.param(["degree-scan"], "0",
                     "frame field X3 vanishes on the image, so the frame is no basis there",
                     id="command1-0-frame field X3 vanishes"),
        (["area", "--degree", "3"], "(x-0.5)^2",
         "degree-3 area density is not finite at quadrature node (0.5, 0.015919880246186957)"),
        (["degree-scan"], "(x-0.5)^2",
         "immersion tangent is not finite at grid point (0.5, 0.05555555555555555)"),
    ],
)
def test_frame_degenerate_on_the_image_is_refused(tmp_path, capsys, command, z, message):
    # X3 = z d/dz is no basis field where z = 0; the Jacobian row of a
    # constant z is structurally zero, so tau alone would not see it
    manifold_spec = {
        "coordinates": ["x", "y", "z"],
        "frame": [
            {"degree": 1, "components": ["1", "0", "0"]},
            {"degree": 1, "components": ["0", "1", "0"]},
            {"degree": 2, "components": ["0", "0", "z"]},
        ],
    }
    immersion_spec = {"params": ["x", "y"], "components": ["x", "y", z],
                      "domain": [[0.0, 1.0], [0.0, 1.0]]}
    mpath, ipath = tmp_path / "manifold.json", tmp_path / "immersion.json"
    mpath.write_text(json.dumps(manifold_spec))
    ipath.write_text(json.dumps(immersion_spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run_cli([command[0], "--manifold", str(mpath), "--immersion", str(ipath),
                     *command[1:], "--grid", "9x9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gradedgeo: error: {message}\n"


def test_cli_bad_input_is_one_line_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", "--catalog", "rt-graph:u=x", "--degree", "3", "--grid", "1x1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("gradedgeo: error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["area", "--catalog", "rt-graph:u=x", "--grid", "8x8", "--tol", "foo=bar"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a catalog key the entry does not take is refused, naming the keys it takes
    for spec, key, accepted in (
        ("engel-graph:thta=x", "thta", "theta, metric"),
        ("engel-graph:lam=2", "lam", "theta, metric"),
        ("rt-graph:u=x,mu=2", "mu", "u, metric"),
        ("isolated-plane:u=x", "u", "metric"),
        ("h1xh1-surface:lam=2,nu=3", "nu", "u, lam, mu, metric"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(["area", "--catalog", spec, "--degree", "4", "--grid", "8x8"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = spec.split(":")[0]
        assert captured.err == (
            f"gradedgeo: error: catalog entry '{name}' has no parameter '{key}' "
            f"(accepted: {accepted})\n"
        )
    # a frame-diagonal squared length must be finite and > 0 (lam, mu are
    # g(X5, X5), g(X6, X6) of h1xh1), the command line takes no domain
    domain = (
        "catalog key 'domain' is not accepted on the command line; give the domain "
        "in an immersion spec file (--manifold FILE --immersion FILE)"
    )
    for argv, message in (
        (["regularity", "--catalog", "h1xh1-surface:u=s^3+s,lam=-1"],
         "frame-diagonal metric: squared length g(X5, X5) = -1.0 must be finite and > 0"),
        (["regularity", "--catalog", "h1xh1-surface:u=s^3+s,lam=0"],
         "frame-diagonal metric: squared length g(X5, X5) = 0.0 must be finite and > 0"),
        (["area", "--catalog", "h1xh1-surface:mu=nan", "--degree", "3"],
         "frame-diagonal metric: squared length g(X6, X6) = nan must be finite and > 0"),
        (["area", "--catalog", "h1xh1-surface:mu=inf", "--degree", "3"],
         "frame-diagonal metric: squared length g(X6, X6) = inf must be finite and > 0"),
        (["area", "--catalog", "rt-graph:domain=12", "--degree", "3"], domain),
        # a non-finite tangent is refused at the first grid point, not by an SVD
        (["degree-scan", "--catalog", "rt-graph:u=sqrt(x-0.5)"],
         "immersion tangent is not finite at grid point (0.125, 0.125)"),
        (["gr-limit", "--catalog", "rt-graph:u=sqrt(x-0.5)", "--degree", "3"],
         "g_r (r = 0.1) area density is not finite at quadrature node "
         "(0.06943184420297371, 0.06943184420297371)"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "4x4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gradedgeo: error: {message}\n"
    # --degree exists only where a degree is read
    for command in ("degree-scan", "el-residual"):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--catalog", "engel-graph", "--degree", "3", "--grid", "4x4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --degree 3" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        # constant folding overflows while the catalog spec is parsed
        (["area", "--catalog", "rt-graph:u=exp(1000)*x", "--degree", "3"],
         "overflow in exp(1000.0)"),
        (["area", "--catalog", "rt-graph:u=1e200^2*x", "--degree", "3"],
         "overflow in (1e+200)^2"),
        (["area", "--catalog", "rt-graph:u=0^-1*x", "--degree", "3"],
         "zero raised to a negative power"),
        # a non-finite tangent at the frames' base point, not an SVD failure
        (["regularity", "--catalog", "engel-graph:theta=1/(x-0.5)", "--degree", "4"],
         "immersion tangent is not finite at (0.5, 0.5)"),
        (["el-residual", "--catalog", "engel-graph:theta=1/(x-0.5)"],
         "immersion tangent is not finite at (0.5, 0.5)"),
        # squares that overflow are refused as non-finite densities, with no warning
        (["area", "--catalog", "rt-graph:u=x^2000*1e300", "--degree", "3"],
         "degree-3 area density is not finite at quadrature node "
         "(0.9305681557970262, 0.06943184420297371)"),
        (["gr-limit", "--catalog", "rt-graph:u=x^2000*1e300", "--degree", "3"],
         "g_r (r = 0.1) area density is not finite at quadrature node "
         "(0.9305681557970262, 0.06943184420297371)"),
        # tau is finite there; the squares of its minors overflow, which is no
        # rank deficiency
        (["degree-scan", "--catalog", "rt-graph:u=x^2000*1e300"],
         "immersion tangent minors overflow at grid point (0.875, 0.125)"),
    ],
)
def test_refusal_is_one_line_without_warnings(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "4x4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gradedgeo: error: {message}\n"
    assert "SVD" not in captured.err and "rank deficient" not in captured.err


@pytest.mark.parametrize(
    "argv,grid",
    [
        (["degree-scan"], "0x4"),
        (["regularity", "--degree", "4"], "0x4"),
        (["el-residual"], "0x4"),
        (["area", "--degree", "4"], "4x0"),
        (["degree-scan"], "-2x4"),
        (["mean-curvature", "--degree", "4"], "-2x4"),
        (["degree-scan"], "4x4x4"),
        (["gr-limit", "--degree", "4"], "64"),
    ],
)
def test_grid_needs_one_count_of_at_least_1_per_parameter(capsys, argv, grid):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--catalog", "engel-graph:theta=0.3*x", f"--grid={grid}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"gradedgeo: error: bad --grid {grid!r} (expected 2 counts of at least 1, "
        "one per parameter)\n"
    )


def test_grid_too_large_to_allocate_is_one_line_exit_2(capsys, monkeypatch):
    # the rule builder raises as numpy does when 100000^2 nodes do not fit;
    # nothing is allocated
    def no_memory(order):
        raise MemoryError(f"Unable to allocate 74.5 GiB for an array with shape ({order}, {order})")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_memory)
    with pytest.raises(SystemExit) as exc:
        main(["area", "--catalog", "engel-graph:theta=0.3*x", "--degree", "4",
              "--grid", "100000x100000"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "gradedgeo: error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"
    )


def test_cli_subprocess_bad_input_exit_status():
    proc = subprocess.run(
        [sys.executable, "-m", "gradedgeo.cli", "area", "--catalog", "rt-graph:u=x",
         "--degree", "3", "--grid", "1x1"],
        capture_output=True,
        text=True,
        timeout=300,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("gradedgeo: error: ") and "Traceback" not in proc.stderr


def test_pointwise_commands_name_the_singular_grid_point(capsys):
    # u = s^2 + s is singular at s = -0.5, the first grid point of a 2x2 grid
    for command in ("regularity", "mean-curvature"):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--catalog", "h1xh1-surface:u=s^2+s", "--degree", "3",
                     "--grid", "2x2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gradedgeo: error: division by zero at grid point (-0.5, -0.5)\n"


def test_pointwise_commands_blame_the_midpoint_alone(tmp_path, capsys):
    # a repeated parameter makes the Jacobian rank deficient everywhere; the
    # structural choices at the domain midpoint fail before any grid point
    spec = _spec_files(tmp_path, params=["x", "x"], components=["x", "x", "x"])
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"frame": "adapted", "components": ["0", "x", "1"]}))
    for command in (["regularity"], ["mean-curvature"], ["admissibility", "--field", str(field)]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, *spec, "--degree", "3", "--grid", "2x2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gradedgeo: error: immersion Jacobian is rank deficient at (0.5, 0.5)\n"
        )


def test_curve_tangent_refusals_name_the_point(tmp_path, capsys):
    # for m != 2 the rank test takes singular values; a tangent that is not
    # finite is refused by name, by the scan and at the midpoint alike
    spec = _spec_files(
        tmp_path, params=["x"], components=["x", "0", "1/(x-0.5)"],
        domain=[[0.0, 1.0]], base_coords=[0],
    )
    for command, message in (
        (["degree-scan"], "immersion tangent is not finite at grid point (0.5,)"),
        (["regularity", "--degree", "2"], "immersion tangent is not finite at (0.5,)"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, *spec, "--grid", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gradedgeo: error: {message}\n"


README_FIELD = {"frame": "normal", "components": ["0", "(16*x*(1-x)*y*(1-y))^2"]}


@pytest.mark.parametrize(
    "command,entry,kwargs,d,shape",
    [  # the README commands (admissibility at its default grid), and H_4 at 16x16
        ("regularity", "isolated-plane", {}, 3, (6, 6)),
        ("mean-curvature", "rt-graph", {"u": "0.3*x+0.2*y^2"}, 3, (4, 4)),
        ("mean-curvature", "engel-graph", {"theta": "0.2*x+0.3*y"}, 4, (16, 16)),
        ("admissibility", "engel-graph", {"theta": "0.2*x+0.3*y"}, 4, (8, 8)),
    ],
)
def test_grid_commands_equal_pointwise_library_calls(tmp_path, command, entry, kwargs, d, shape):
    # one grid pass per command; each row equals the batch of one at its point
    imm = catalog.immersion(entry, **kwargs)
    spec = entry + "".join(f":{key}={value}" for key, value in kwargs.items())
    argv = [command, "--catalog", spec, "--degree", str(d), "--grid", "x".join(map(str, shape))]
    if command == "admissibility":
        field = VariationField.from_json(json.dumps(README_FIELD), imm.params)
        field_path = tmp_path / "field.json"
        field_path.write_text(json.dumps(README_FIELD))
        argv += ["--field", str(field_path)]
    code, out = run_cli(argv)
    assert code == 0
    rows = json.loads(out)["points"]
    points, _ = uniform_grid(imm.domain, shape)
    assert len(rows) == len(points)
    for row, p in zip(rows, points):
        if command == "regularity":
            (reg,) = admissibility.is_strongly_regular(imm, p[None], d)
            sigma_min = min(reg.singular_values) if reg.singular_values else 0.0
            assert (row["rank"], row["ell"], row["flag"]) == (reg.rank, reg.ell, reg.strongly_regular)
            assert np.float64(row["sigma_min"]).tobytes() == np.float64(sigma_min).tobytes()
        elif command == "mean-curvature":
            want = variation.mean_curvature(imm, p[None], d)[0].components
            assert np.array(row["H"]).tobytes() == want.tobytes()
        else:
            want = np.linalg.norm(residual(imm, field, p[None], d)[0])
            assert np.float64(row[-1]).tobytes() == np.float64(want).tobytes()


def test_grid_commands_name_a_singular_point_past_the_first(tmp_path, capsys):
    # u = s^2 + s is singular at s = -0.5, the second s value of a 6x2 grid
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"frame": "normal", "components": ["0", "0", "0", "s*t"]}))
    for command in (["regularity"], ["mean-curvature"], ["admissibility", "--field", str(field)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                run_cli([*command, "--catalog", "h1xh1-surface:u=s^2+s", "--degree", "3",
                         "--grid", "6x2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gradedgeo: error: division by zero at grid point (-0.5, -0.5)\n"
