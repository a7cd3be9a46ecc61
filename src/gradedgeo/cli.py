"""Command-line front end.

Commands operate on a catalog immersion (``--catalog NAME[:key=value,...]``)
or on JSON manifold/immersion specs, and emit JSON (default) or CSV.  Exit
status: 0 on success, 1 when a ``verify`` check fails, 2 on bad input (a
one-line ``gradedgeo: error: ...`` on stderr, including results that are not
finite).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import catalog
from .admissibility import VariationField, is_strongly_regular, residual
from .area import QuadratureGrid, area_degree, scaling_limit_probe
from .exprs import ExprError, parse as parse_expr
from .immersion import Immersion, degree_scan, uniform_grid
from .manifold import (AdaptedFrame, Manifold, MetricField, is_int, is_interval, is_string,
                       require_keys, spec_list)
from .multivec import d_max
from .variation import first_variation, mean_curvature

__all__ = ["main"]


def _parse_catalog_spec(spec: str):
    if ":" not in spec:
        return spec, {}
    name, rest = spec.split(":", 1)
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad catalog parameter {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return name, params


def _load_immersion(args) -> Immersion:
    if args.catalog:
        name, kwargs = _parse_catalog_spec(args.catalog)
        if "domain" in kwargs:
            raise ValueError(
                "catalog key 'domain' is not accepted on the command line; give the "
                "domain in an immersion spec file (--manifold FILE --immersion FILE)"
            )
        if args.metric:
            kwargs["metric"] = args.metric
        try:
            return catalog.immersion(name, **kwargs)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if not (args.manifold and args.immersion):
        raise ValueError("need --catalog NAME or both --manifold FILE and --immersion FILE")
    with open(args.manifold, encoding="utf-8") as fh:
        mdata = json.load(fh)
    frame = AdaptedFrame.from_json(mdata)
    metric_spec = args.metric or mdata.get("metric", "frame-orthonormal")
    if isinstance(metric_spec, str) and metric_spec.endswith(".json"):
        with open(metric_spec, encoding="utf-8") as fh:
            metric_spec = json.load(fh)
    mani = Manifold(frame, MetricField.from_json(metric_spec, frame.coords))
    with open(args.immersion, encoding="utf-8") as fh:
        idata = json.load(fh)
    what = "immersion spec"
    require_keys(idata, ("params", "components", "domain"), what)
    params = spec_list(idata, "params", is_string, "strings", what)
    sources = spec_list(idata, "components", is_string, "strings", what)
    domain = spec_list(idata, "domain", is_interval, "finite [lo, hi] pairs with lo < hi", what)
    base = None
    if idata.get("base_coords") is not None:
        n = mani.n
        base = spec_list(idata, "base_coords", lambda i: is_int(i) and 0 <= i < n,
                         f"coordinate indices in 0..{n - 1}", what)
    comps = tuple(parse_expr(src, params) for src in sources)
    return Immersion(mani, params, comps, domain, base_coords=base)


def _parse_grid(text: str, m: int):
    """Grid counts from ``text``, refused unless there is one per parameter and each is >= 1."""
    try:
        counts = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad --grid {text!r} (expected e.g. 64x64)") from None
    if len(counts) != m or min(counts) < 1:
        raise ValueError(
            f"bad --grid {text!r} (expected {m} counts of at least 1, one per parameter)"
        )
    return counts


def _load_field(path: str, params) -> VariationField:
    with open(path, encoding="utf-8") as fh:
        return VariationField.from_json(fh.read(), params)


def _emit(args, payload, csv_rows=None, csv_header=None):
    if args.format == "csv":
        if csv_rows is None:
            raise ValueError("this command has no CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """``text`` to the ``--output`` file, or to stdout without one."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_degree(args, imm: Immersion) -> int:
    if args.degree == "auto":
        return degree_scan(imm, (12,) * imm.m if imm.m <= 2 else (8,) * imm.m).degree
    d = int(args.degree)
    # an m-vector's degree is a sum of m distinct layer weights
    weights = imm.manifold.weights
    lo, hi = sum(sorted(weights)[: imm.m]), d_max(imm.m, weights)
    if not lo <= d <= hi:
        raise ValueError(
            f"degree {d} is outside [{lo}, {hi}], the degrees a tangent {imm.m}-vector can have"
        )
    return d


def cmd_degree_scan(args):
    imm = _load_immersion(args)
    shape = _parse_grid(args.grid, imm.m)
    report = degree_scan(imm, shape)
    payload = {
        "degree": report.degree,
        "grid": list(report.shape),
        "singular_count": report.singular_count,
        "lsc_certificate": report.lsc_ok,
        "degrees": report.degrees.reshape(report.shape).tolist(),
    }
    rows = [
        [*map(float, pt), int(d)] for pt, d in zip(report.points, report.degrees)
    ]
    _emit(args, payload, rows, [*imm.params, "degree"])
    return 0


def cmd_area(args):
    imm = _load_immersion(args)
    shape = _parse_grid(args.grid, imm.m)
    d = _resolve_degree(args, imm)
    res = area_degree(imm, d, QuadratureGrid(imm.domain, shape))
    payload = {
        "d": d,
        "value": res.value,
        "grid": list(shape),
        "metric": imm.manifold.metric.kind,
        "degree_seen": res.degree_seen,
        "divergent_by_theory": res.divergent_by_theory,
    }
    _emit(args, payload)
    return 0


def cmd_gr_limit(args):
    imm = _load_immersion(args)
    shape = _parse_grid(args.grid, imm.m)
    d = _resolve_degree(args, imm)
    rs = [float(x) for x in args.r_seq.split(",")]
    probe = scaling_limit_probe(imm, d, QuadratureGrid(imm.domain, shape), rs)
    payload = {
        "d": d,
        "r": list(probe.r_values),
        "v": list(probe.values),
        "limit": probe.limit,
        "rate": probe.rate,
        "converged": probe.converged,
        "divergent": probe.divergent,
        "zero_limit": probe.zero_limit,
    }
    _emit(args, payload, list(zip(probe.r_values, probe.values)), ["r", "v"])
    return 0


def cmd_admissibility(args):
    imm = _load_immersion(args)
    d = _resolve_degree(args, imm)
    field = _load_field(args.field, imm.params)
    pts, _ = uniform_grid(imm.domain, _parse_grid(args.grid, imm.m))
    res = residual(imm, field, pts, d)  # (N, ell), rows contiguous
    # per row the dot product that np.linalg.norm takes of a vector, bit for bit
    norms = np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])
    rows = [[*map(float, p), float(r)] for p, r in zip(pts, norms)]
    payload = {
        "d": d,
        "frame": field.frame,
        "max_residual_norm": max(row[-1] for row in rows),
        "points": rows,
    }
    _emit(args, payload, rows, [*imm.params, "residual_norm"])
    return 0


def cmd_regularity(args):
    imm = _load_immersion(args)
    d = _resolve_degree(args, imm)
    pts, _ = uniform_grid(imm.domain, _parse_grid(args.grid, imm.m))
    regs = is_strongly_regular(imm, pts, d)
    rows = [
        {
            "point": [float(x) for x in p],
            "rank": reg.rank,
            "ell": reg.ell,
            "flag": reg.strongly_regular,
            "sigma_min": min(reg.singular_values) if reg.singular_values else 0.0,
        }
        for p, reg in zip(pts, regs)
    ]
    all_flags = all(reg.strongly_regular for reg in regs)
    payload = {"d": d, "all_strongly_regular": all_flags, "points": rows}
    csv_rows = [
        [*r["point"], r["rank"], r["ell"], int(r["flag"]), r["sigma_min"]] for r in rows
    ]
    _emit(args, payload, csv_rows, [*imm.params, "rank", "ell", "flag", "sigma_min"])
    return 0


def cmd_mean_curvature(args):
    imm = _load_immersion(args)
    d = _resolve_degree(args, imm)
    pts, _ = uniform_grid(imm.domain, _parse_grid(args.grid, imm.m))
    rows = [
        {"point": [float(x) for x in p], "H": [float(h) for h in mc.components]}
        for p, mc in zip(pts, mean_curvature(imm, pts, d))
    ]
    payload = {"d": d, "points": rows}
    csv_rows = [[*r["point"], *r["H"]] for r in rows]
    ncomps = len(rows[0]["H"]) if rows else 0
    _emit(args, payload, csv_rows, [*imm.params, *[f"H{j+1}" for j in range(ncomps)]])
    return 0


def cmd_first_variation(args):
    imm = _load_immersion(args)
    d = _resolve_degree(args, imm)
    field = _load_field(args.field, imm.params)
    grid = QuadratureGrid(imm.domain, _parse_grid(args.grid, imm.m))
    value = first_variation(imm, field, grid, d)
    _emit(args, {"d": d, "value": value})
    return 0


def cmd_el_residual(args):
    imm = _load_immersion(args)
    if imm.name != "engel-graph":
        raise ValueError("el-residual expects --catalog engel-graph:theta=...")
    resid, scale = catalog.engel_el_residual_exprs(imm)
    pts, _ = uniform_grid(imm.domain, _parse_grid(args.grid, imm.m))
    (vals,) = imm.values_at([resid], pts)
    rows = [[*map(float, p), float(v)] for p, v in zip(pts, vals)]
    payload = {
        "d": 4,
        "max_abs_residual": float(np.max(np.abs(vals))),
        "points": rows,
    }
    _emit(args, payload, rows, [*imm.params, "residual"])
    return 0


def cmd_verify(args):
    from .verify import run_checks

    names = None
    if args.catalog and args.catalog != "all":
        names = set(args.catalog.split(","))
    results = run_checks(names)
    width = max(len(r.name) for r in results) if results else 10
    failed = 0
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    _write(args, "\n".join(lines) + f"\n{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedgeo",
        description="degree-driven submanifold geometry in graded manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default="16x16", degree=True):
        p.add_argument("--catalog", help="catalog entry, e.g. engel-graph:theta=x+0.3*y")
        p.add_argument("--manifold", help="manifold JSON file")
        p.add_argument("--immersion", help="immersion JSON file")
        p.add_argument("--metric", help="frame-orthonormal | euclidean | FILE.json")
        if degree:
            p.add_argument("--degree", default="auto", help="degree d (default: scanned max)")
        p.add_argument("--grid", default=grid_default, help="grid, e.g. 64x64")
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("degree-scan", help="grid certificate of the degree map")
    common(p, degree=False)
    p.set_defaults(fn=cmd_degree_scan)

    p = sub.add_parser("area", help="degree-d area by quadrature")
    common(p, "64x64")
    p.set_defaults(fn=cmd_area)

    p = sub.add_parser("gr-limit", help="dilated-metric scaling probe")
    common(p, "48x48")
    p.add_argument("--r-seq", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    p.set_defaults(fn=cmd_gr_limit)

    p = sub.add_parser("admissibility", help="residual norms of a variation field")
    common(p, "8x8")
    p.add_argument("--field", required=True, help="variation field JSON file")
    p.set_defaults(fn=cmd_admissibility)

    p = sub.add_parser("regularity", help="strong-regularity rank test on a grid")
    common(p, "6x6")
    p.set_defaults(fn=cmd_regularity)

    p = sub.add_parser("mean-curvature", help="curvature components on a grid")
    common(p, "4x4")
    p.set_defaults(fn=cmd_mean_curvature)

    p = sub.add_parser("first-variation", help="first variation along a field")
    common(p, "48x48")
    p.add_argument("--field", required=True)
    p.set_defaults(fn=cmd_first_variation)

    p = sub.add_parser("el-residual", help="third-order residual for ruled graphs")
    common(p, "8x8", degree=False)
    p.set_defaults(fn=cmd_el_residual)

    p = sub.add_parser("verify", help="run the built-in regression checks")
    p.add_argument("--catalog", default="all", help="comma list of check names, or all")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ExprError, OSError, MemoryError) as exc:
        # a grid too large to allocate is bad input too
        parser.exit(2, f"{parser.prog}: error: {str(exc) or type(exc).__name__}\n")


if __name__ == "__main__":
    raise SystemExit(main())
