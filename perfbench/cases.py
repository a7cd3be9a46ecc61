"""Seeded inputs, independent oracles and output checks for the benchmark.

Every input parameter is drawn by the seed from a small table, so the outputs
of every possible input can be recorded once (``reference.json``, written by
``record_reference.py``) and every op can be checked against them.  The
table values are chosen so that no two constants in one expression coincide
and none equals 0, 1 or -1: hash-consing and constant folding then build the
same DAG shape for every variant, which keeps node counts independent of the
seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# |got - ref| <= TOL * max(1, |ref|) for every number of an output.  Wide
# enough for a change of floating-point operation order, narrow enough for
# any change of the mathematics.
TOL = 1e-8
ORACLE_TOL = 1e-8  # area vs. 1-D Gauss oracle, as in ``gradedgeo verify``
LIMIT_TOL = 1e-3  # g_r extrapolated limit vs. 1-D Gauss oracle

A = (0.37, 0.43, 0.53, 0.61, 0.67, 0.73)
B = (0.29, 0.31, 0.41, 0.47, 0.59, 0.71)
C = (0.17, 0.19, 0.23, 0.26, 0.34, 0.38)
VARIANTS = len(A)

BUMP = "(16*x*(1-x)*y*(1-y))^2"
R_SEQ = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

# Nine kinds, so the median of a balanced run lies inside one kind's cluster
# of times, not in the gap between two clusters.
CLI_KINDS = (
    "degree-scan",
    "area",
    "area-rt",
    "gr-limit",
    "regularity",
    "mean-curvature",
    "admissibility",
    "first-variation",
    "el-residual",
)

# Seven steps, for the same reason as the nine cli kinds.
GRID_STEPS = ("area-engel", "area-engel-euclidean", "area-rt", "gr-limit", "degree-scan",
              "first-variation", "el-residual")

# Grid sizes of the ``grid`` workload.  The el-residual DAG has 12.5k nodes
# and evaluate_many keeps one array per node, so its grid stays at 48^2
# (about 230 MB of memo) instead of 128^2 (1.6 GB).
GRID_AREA = 256
GRID_LIMIT = 128
GRID_SCAN = (129, 128)  # odd along s, so the singular line s = 0 is sampled
GRID_FV = 128
GRID_EL = 48

VERIFY_CHECKS = (
    "filtration",
    "flags",
    "degrees",
    "dimensions",
    "areas",
    "scaling",
    "admissibility_matrices",
    "regularity",
    "transport",
    "variation",
    "el_residual",
    "contact",
    "isolation",
)


def field_json(k: int) -> dict:
    return {"frame": "normal", "components": ["0", f"{BUMP}*(1+{C[k]}*x)"]}


def field_path(run_dir: str, k: int) -> str:
    return os.path.join(run_dir, f"field{k}.json")


def write_fields(run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    for k in range(VARIANTS):
        with open(field_path(run_dir, k), "w", encoding="utf-8") as fh:
            json.dump(field_json(k), fh)


def cli_argv(kind: str, k: int, run_dir: str) -> list[str]:
    """Arguments of ``gradedgeo`` for one cli op."""
    a, b = A[k], B[k]
    if kind == "degree-scan":
        return [kind, "--catalog", f"h1xh1-surface:u={C[k]}*s^2", "--grid", "15x5"]
    if kind == "area":
        return [kind, "--catalog", f"engel-graph:theta={a}*x", "--degree", "4", "--grid", "64x64"]
    if kind == "area-rt":
        return ["area", "--catalog", f"rt-graph:u={a}*x", "--degree", "3", "--grid", "64x64"]
    if kind == "gr-limit":
        return [kind, "--catalog", f"engel-graph:theta={a}*x", "--degree", "4"]
    if kind == "regularity":
        return [kind, "--catalog", "isolated-plane", "--degree", "3", "--grid", "6x6"]
    if kind == "mean-curvature":
        return [kind, "--catalog", f"rt-graph:u={a}*x+{b}*y^2", "--degree", "3", "--grid", "4x4"]
    if kind in ("admissibility", "first-variation"):
        return [kind, "--catalog", f"engel-graph:theta={a}*x+{b}*y", "--degree", "4",
                "--field", field_path(run_dir, k)]
    if kind == "el-residual":
        return [kind, "--catalog", f"engel-graph:theta={a}*x+{b}*y", "--grid", "8x8"]
    raise KeyError(kind)


SUBCOMMANDS = tuple(dict.fromkeys(cli_argv(kind, 0, "")[0] for kind in CLI_KINDS))


def cli_ops(rng, rounds: int):
    """``rounds`` shuffled rounds, each holding every cli kind once."""
    ops = []
    for _ in range(rounds):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        ops.extend((kind, rng.randrange(VARIANTS)) for kind in kinds)
    return ops


# -- oracles ------------------------------------------------------------------

def gauss_1d(f, order: int = 200) -> float:
    """Gauss-Legendre integral of f over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    xs = 0.5 * x + 0.5
    return 0.5 * float(np.dot(w, f(xs)))


def engel_area_oracle(a: float) -> float:
    """Degree-4 area of the engel-graph theta = a x (frame metric)."""
    return gauss_1d(lambda x: np.sqrt(1 + a**4 * np.sin(a * x) ** 2 * np.cos(a * x) ** 2))


def engel_euclidean_area_oracle(a: float) -> float:
    """Degree-4 area of the engel-graph theta = a x (euclidean metric)."""
    return gauss_1d(lambda x: np.sqrt(1 + a**2 * np.cos(a * x) ** 2
                                      + a**4 * np.sin(a * x) ** 2 * np.cos(a * x) ** 2))


def rt_area_oracle(a: float) -> float:
    """Degree-3 area of the rt-graph u = a x."""
    return gauss_1d(lambda x: np.sqrt(1 + a**2 * np.cos(a * x) ** 2))


# -- checks -------------------------------------------------------------------

class CheckError(Exception):
    pass


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def leaves(obj) -> list:
    """Scalars of a JSON value in document order (keys sorted)."""
    if isinstance(obj, dict):
        return [v for key in sorted(obj) for v in leaves(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in leaves(item)]
    return [obj]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def match_leaves(got: list, ref: list, what: str) -> None:
    if len(got) != len(ref):
        raise CheckError(f"{what}: {len(got)} values, reference has {len(ref)}")
    for i, (g, r) in enumerate(zip(got, ref)):
        if _is_number(r):
            if not _is_number(g) or not math.isfinite(g):
                raise CheckError(f"{what}: value {i} is {g!r}")
            if abs(g - r) > TOL * max(1.0, abs(r)):
                raise CheckError(f"{what}: value {i} is {g!r}, reference {r!r}")
        elif g != r:
            raise CheckError(f"{what}: value {i} is {g!r}, reference {r!r}")


def _near(got: float, want: float, rel: float, what: str) -> None:
    if not math.isfinite(got) or abs(got - want) > rel * max(1.0, abs(want)):
        raise CheckError(f"{what}: {got!r}, oracle {want!r}")


def parse_json_output(stdout: bytes):
    """Strict JSON: a NaN or an infinity in the output is a failure."""
    def refuse(token):
        raise CheckError(f"non-finite value {token} in the output")

    try:
        return json.loads(stdout, parse_constant=refuse)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def check_cli(kind: str, k: int, stdout: bytes, ref: dict) -> None:
    """Raise CheckError unless the output of one cli op is right."""
    out = parse_json_output(stdout)
    if kind == "degree-scan":
        if out["degree"] != 3 or out["singular_count"] != 5 or not out["lsc_certificate"]:
            raise CheckError(f"h1xh1-surface: degree {out['degree']}, "
                             f"singular {out['singular_count']}, lsc {out['lsc_certificate']}")
    elif kind == "area":
        _near(out["value"], engel_area_oracle(A[k]), ORACLE_TOL, "engel-graph area")
    elif kind == "area-rt":
        _near(out["value"], rt_area_oracle(A[k]), ORACLE_TOL, "rt-graph area")
    elif kind == "gr-limit":
        if not out["converged"]:
            raise CheckError("g_r probe did not converge")
        _near(out["limit"], engel_area_oracle(A[k]), LIMIT_TOL, "g_r limit")
    elif kind == "regularity":
        bad = [p for p in out["points"] if (p["rank"], p["ell"], p["flag"]) != (1, 3, False)]
        if bad or out["all_strongly_regular"]:
            raise CheckError(f"isolated-plane: {len(bad)} points not rank 1 of 3")
    match_leaves(leaves(out), ref["leaves"], f"{kind}[{k}]")


def check_verify(stdout: bytes) -> None:
    """All 13 checks ran and passed (a filter can silently select none)."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    want = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    if not lines or lines[-1] != want:
        raise CheckError(f"verify printed {lines[-1] if lines else 'nothing'!r}, want {want!r}")
    passed = [ln for ln in lines[:-1] if ln.startswith("PASS ")]
    if len(passed) != len(VERIFY_CHECKS):
        raise CheckError(f"{len(passed)} checks passed, want {len(VERIFY_CHECKS)}")


def check_grid(step: str, k: int, out: dict, ref: dict) -> None:
    """Raise CheckError unless the output of one grid op is right."""
    if step == "area-engel":
        _near(out["value"], engel_area_oracle(A[k]), ORACLE_TOL, "engel-graph area")
    elif step == "area-engel-euclidean":
        _near(out["value"], engel_euclidean_area_oracle(A[k]), ORACLE_TOL,
              "engel-graph euclidean area")
    elif step == "area-rt":
        _near(out["value"], rt_area_oracle(A[k]), ORACLE_TOL, "rt-graph area")
    elif step == "gr-limit":
        if not out["converged"]:
            raise CheckError("g_r probe did not converge")
        _near(out["limit"], engel_area_oracle(A[k]), LIMIT_TOL, "g_r limit")
    elif step == "degree-scan":
        if out["degree"] != 3 or out["singular_count"] != GRID_SCAN[1] or not out["lsc_ok"]:
            raise CheckError(f"h1xh1-surface: degree {out['degree']}, "
                             f"singular {out['singular_count']}, lsc {out['lsc_ok']}")
    match_leaves(leaves(out), ref["leaves"], f"grid {step}[{k}]")
