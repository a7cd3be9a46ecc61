"""The byte contract of the command line: one fixed command list against ``tests/golden/``.

Each case runs ``cli.main`` in-process and compares its exit status, stdout,
stderr and warnings, byte for byte, with its file in ``tests/golden/``.  The
list holds the README commands, one command per benchmark cli kind (the
benchmark's variant 0), the refusals that CI requires, the h1xh1 singular
cases, a 128x128 first variation and the ``--manifold``/``--immersion``
spec path.  ``gradedgeo verify`` is not in it.

A change that moves output bytes rewrites the corpus in the same commit:

    python tests/test_golden.py

so ``git diff tests/golden/`` lists every byte that moved.

Last digits depend on numpy's ufunc kernels (its version, and whether the
CPU runs the AVX-512 ones), so ``tests/golden/PLATFORM`` records the
platform the corpus was written on, and the comparison runs only there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import warnings

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

BUMP = "(16*x*(1-x)*y*(1-y))^2"
# the rototrans graph theta = x as JSON specs, and its immersion without a domain
ROTOTRANS = {
    "coordinates": ["x", "y", "theta"],
    "frame": [
        {"degree": 1, "components": ["cos(theta)", "sin(theta)", "0"]},
        {"degree": 1, "components": ["0", "0", "1"]},
        {"degree": 2, "components": ["sin(theta)", "-cos(theta)", "0"]},
    ],
    "metric": "frame-orthonormal",
}
GRAPH = {"params": ["x", "y"], "components": ["x", "y", "x"], "base_coords": [0, 1]}
FIELDS = {
    "field.json": {"frame": "normal", "components": ["0", BUMP]},  # the README's
    "field0.json": {"frame": "normal", "components": ["0", f"{BUMP}*(1+0.17*x)"]},
    "field-st.json": {"frame": "normal", "components": ["0", "0", "0", "s*t"]},
    # NaN on the boundary x = 0, where it is no compactly supported field
    "field-sqrt.json": {"frame": "normal", "components": ["0", f"sqrt(x-0.3)*{BUMP}"]},
    "rototrans.json": ROTOTRANS,
    "graph.json": {**GRAPH, "domain": [[0.0, 1.0], [0.0, 1.0]]},
    "graph-no-domain.json": GRAPH,
}

CASES = {
    # README
    "readme-area": "area --catalog engel-graph:theta=x --degree 4 --grid 64x64",
    "readme-degree-scan": "degree-scan --catalog h1xh1-surface:u=s^2 --grid 16x8",
    "readme-gr-limit": (
        "gr-limit --catalog engel-graph:theta=x --degree 4 --r-seq 1e-1,1e-2,1e-3,1e-4,1e-5"
    ),
    "readme-regularity": "regularity --catalog isolated-plane --degree 3 --grid 6x6",
    "readme-mean-curvature": (
        "mean-curvature --catalog rt-graph:u=0.3*x+0.2*y^2 --degree 3 --grid 4x4"
    ),
    "readme-admissibility": (
        "admissibility --catalog engel-graph:theta=0.2*x+0.3*y --degree 4 --field field.json"
    ),
    "readme-first-variation": (
        "first-variation --catalog engel-graph:theta=0.2*x+0.3*y --degree 4 --field field.json"
    ),
    "readme-el-residual": "el-residual --catalog engel-graph:theta=0.2*x+0.3*y --grid 8x8",
    "first-variation-128": (
        "first-variation --catalog engel-graph:theta=0.2*x+0.3*y --degree 4 --field field.json"
        " --grid 128x128"
    ),
    "area-engel-0.3x": "area --catalog engel-graph:theta=0.3*x --degree 4 --grid 64x64",
    # the benchmark's cli kinds, variant 0 (its regularity kind is the README's)
    "bench-degree-scan": "degree-scan --catalog h1xh1-surface:u=0.17*s^2 --grid 15x5",
    "bench-area": "area --catalog engel-graph:theta=0.37*x --degree 4 --grid 64x64",
    "bench-area-rt": "area --catalog rt-graph:u=0.37*x --degree 3 --grid 64x64",
    "bench-gr-limit": "gr-limit --catalog engel-graph:theta=0.37*x --degree 4",
    "bench-mean-curvature": (
        "mean-curvature --catalog rt-graph:u=0.37*x+0.29*y^2 --degree 3 --grid 4x4"
    ),
    "bench-admissibility": (
        "admissibility --catalog engel-graph:theta=0.37*x+0.29*y --degree 4 --field field0.json"
    ),
    "bench-first-variation": (
        "first-variation --catalog engel-graph:theta=0.37*x+0.29*y --degree 4"
        " --field field0.json"
    ),
    "bench-el-residual": "el-residual --catalog engel-graph:theta=0.37*x+0.29*y --grid 8x8",
    # refusals that CI requires
    "refuse-exp-overflow": "area --catalog rt-graph:u=exp(1000)*x --degree 3 --grid 4x4",
    "refuse-singular-theta": (
        "regularity --catalog engel-graph:theta=1/(x-0.5) --degree 4 --grid 4x4"
    ),
    "refuse-power-overflow": "area --catalog rt-graph:u=x^2000*1e300 --degree 3 --grid 4x4",
    "refuse-sqrt-domain": "area --catalog rt-graph:u=sqrt(y-0.5) --degree 3 --grid 8x8",
    "refuse-gr-limit-not-finite": (
        'gr-limit --catalog "rt-graph:u=sqrt(x-0.5)" --degree 3 --grid 8x8'
    ),
    "refuse-gr-limit-scale-overflow": (
        "gr-limit --catalog engel-graph:theta=x --degree 4 --grid 8x8 --r-seq 1e-1,1e-200"
    ),
    "refuse-scan-overflow": "degree-scan --catalog rt-graph:u=x^2000*1e300 --grid 4x4",
    "degree-below-range": "area --catalog engel-graph:theta=0.3*x --degree -3 --grid 8x8",
    "degree-above-range": "area --catalog engel-graph:theta=0.3*x --degree 99 --grid 8x8",
    "refuse-grid-zero": "degree-scan --catalog engel-graph:theta=0.3*x --grid 0x4",
    "refuse-grid-negative": "degree-scan --catalog engel-graph:theta=0.3*x --grid=-2x4",
    "refuse-grid-axes": "degree-scan --catalog engel-graph:theta=0.3*x --grid 4x4x4",
    # h1xh1 singular cases
    "h1xh1-regularity-s2": "regularity --catalog h1xh1-surface:u=s^2 --degree 3 --grid 2x2",
    "h1xh1-regularity-s2+s": (
        "regularity --catalog h1xh1-surface:u=s^2+s --degree 3 --grid 6x2"
    ),
    "h1xh1-mean-curvature-s2+s": (
        "mean-curvature --catalog h1xh1-surface:u=s^2+s --degree 3 --grid 6x2"
    ),
    "h1xh1-admissibility-s2+s": (
        "admissibility --catalog h1xh1-surface:u=s^2+s --degree 3 --grid 6x2"
        " --field field-st.json"
    ),
    "h1xh1-degree-scan-s2+s": "degree-scan --catalog h1xh1-surface:u=s^2+s --grid 6x6",
    "h1xh1-degree-scan-tiny": "degree-scan --catalog h1xh1-surface:u=1e-11*(s^2+s) --grid 6x6",
    "h1xh1-mean-curvature-s3+s": (
        "mean-curvature --catalog h1xh1-surface:u=s^3+s --degree 3 --grid 4x4"
    ),
    # the JSON spec path, and bad input: a missing key, a malformed expression
    "spec-area": "area --manifold rototrans.json --immersion graph.json --degree 3 --grid 16x16",
    "refuse-spec-missing-key": (
        "area --manifold rototrans.json --immersion graph-no-domain.json --degree 3 --grid 8x8"
    ),
    "refuse-parse-error": "area --catalog rt-graph:u=x*(y --degree 3 --grid 4x4",
    # a derivative keeps its division by zero, and every grid evaluation of
    # parameter expressions names a domain error and its grid point
    "refuse-zero-denominator": "area --catalog h1xh1-surface:u=s/0 --degree 3 --grid 4x4",
    "refuse-el-residual-domain": "el-residual --catalog engel-graph:theta=sqrt(x-0.3) --grid 8x8",
    "refuse-first-variation-domain": (
        "first-variation --catalog engel-graph:theta=sqrt(x-0.3) --degree 4 --field field.json"
        " --grid 8x8"
    ),
    "refuse-first-variation-interior": (  # not finite only inside the domain
        "first-variation --catalog engel-graph:theta=sqrt((x-0.3)^2+(y-0.3)^2-0.01) --degree 4"
        " --field field.json --grid 8x8"
    ),
    "refuse-support-not-finite": (
        "first-variation --catalog engel-graph:theta=0.2*x+0.3*y --degree 4"
        " --field field-sqrt.json --grid 8x8"
    ),
}


def run(command: str) -> str:
    """One command through ``cli.main`` in the current directory, as its golden text."""
    from gradedgeo import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(shlex.split(command))
            except SystemExit as exc:
                status = exc.code
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return (
        f"$ gradedgeo {command}\nexit {status}\n--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}--- warnings\n{warned}"
    )


def platform_stamp() -> str:
    """numpy's version, the machine, and whether numpy runs its AVX-512 (SKX) kernels."""
    import platform

    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    skx = "AVX512_SKX" if features.get("AVX512_SKX") else "no AVX512_SKX"
    return f"numpy {np.__version__} {platform.machine()} {skx}\n"


def write_fields(directory: str) -> None:
    for name, spec in FIELDS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.txt")


@pytest.fixture(scope="module")
def field_dir(tmp_path_factory):
    with open(os.path.join(GOLDEN, "PLATFORM"), encoding="utf-8") as fh:
        recorded = fh.read()
    if recorded != platform_stamp():
        pytest.skip(f"corpus written on {recorded.strip()}, not on {platform_stamp().strip()}")
    directory = tmp_path_factory.mktemp("golden")
    write_fields(str(directory))
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_corpus(name, field_dir, monkeypatch):
    monkeypatch.chdir(field_dir)
    with open(_golden_path(name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert run(CASES[name]) == want


def test_corpus_holds_exactly_the_listed_cases():
    assert sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".txt")) == sorted(CASES)


def main() -> None:
    """Rewrite ``tests/golden/`` from the current source."""
    import tempfile

    sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), os.pardir, "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    for stale in os.listdir(GOLDEN):
        if stale.endswith(".txt") and stale[:-4] not in CASES:
            os.remove(os.path.join(GOLDEN, stale))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_fields(directory)
        os.chdir(directory)
        try:
            texts = {name: run(command) for name, command in sorted(CASES.items())}
        finally:
            os.chdir(here)
    for name, text in texts.items():
        with open(_golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    with open(os.path.join(GOLDEN, "PLATFORM"), "w", encoding="utf-8") as fh:
        fh.write(platform_stamp())


if __name__ == "__main__":
    main()
