"""Built-in regression checks over the catalog structures.

Each check recomputes a quantity through the generic pipeline and compares
it against an independent route (closed-form reductions, brute-force
enumeration, finite differences, transport identities).  The CLI ``verify``
command runs them all and exits nonzero on any failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .admissibility import (
    VariationField,
    assemble_adapted,
    assemble_normal,
    frames_for,
    is_strongly_regular,
    metric_change_check,
)
from .area import QuadratureGrid, area_degree, scaling_limit_probe
from .exprs import const, parse
from .immersion import degree_scan, tangent_flag, uniform_grid
from .manifold import MetricField, carnot_flag, verify_filtration
from .multivec import GrowthVector, all_multi_indices, degree_of_index, dim_gt, dim_leq
from .variation import duality_integral, first_variation

__all__ = ["CheckResult", "run_checks", "ALL_CHECKS", "engel_closed_forms"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _gauss_1d(f, a, b, order=200):
    x, w = np.polynomial.legendre.leggauss(order)
    xs = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(w, f(xs)))


def check_filtration() -> CheckResult:
    worst = 0.0
    for name in ("h1xh1", "rototrans", "engel-structure", "engel-group"):
        mani = catalog.manifold(name)
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1.0, 1.0, (40, mani.n))
        rep = verify_filtration(mani.frame, samples)
        worst = max(worst, rep.max_residual)
        if not rep.ok:
            return CheckResult("filtration", False, f"{name}: {len(rep.violations)} violations")
    return CheckResult("filtration", True, f"4 structures, max residual {worst:.2e}")


def check_flags() -> CheckResult:
    expect = {"rototrans": (2, 3), "engel-structure": (2, 3, 4), "engel-group": (2, 3, 4)}
    for name, growth in expect.items():
        mani = catalog.manifold(name)
        horiz = [list(f) for f in mani.frame.fields[: mani.growth.dims[0]]]
        res = carnot_flag(horiz, mani.coords, np.full(mani.n, 0.2))
        if res.growth != growth or not res.hormander:
            return CheckResult("bracket-generation", False, f"{name}: {res.growth}")
    return CheckResult("bracket-generation", True, "growth vectors reproduced")


def check_degrees() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    plane = catalog.immersion("isolated-plane")
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    h = catalog.immersion("h1xh1-surface", u="s^2")
    checks = [
        (degree_scan(eg, (12, 12)).degree, 4, "engel-graph"),
        (plane.pointwise_degree([0.3, -0.4]), 3, "isolated-plane"),
        (rt.pointwise_degree([0.5, 0.5]), 3, "rt-graph"),
        (degree_scan(h, (15, 5)).degree, 3, "h1xh1-surface"),
    ]
    for got, want, name in checks:
        if got != want:
            return CheckResult("degrees", False, f"{name}: {got} != {want}")
    scan = degree_scan(h, (15, 5))
    if scan.singular_count == 0 or not scan.lsc_ok:
        return CheckResult("degrees", False, "h1xh1 singular line not detected")
    for imm in (eg, plane, rt):
        for p in imm.sample_points(20, seed=1):
            dims, gromov = tangent_flag(imm, p)
            if gromov != imm.pointwise_degree(p):
                return CheckResult("degrees", False, f"flag degree mismatch at {tuple(p)}")
    return CheckResult("degrees", True, "pointwise, flag and scan degrees agree")


def check_dimensions() -> CheckResult:
    engel = GrowthVector((2, 3, 4))
    if dim_gt(engel, 2, 3) != 3 or dim_gt(engel, 2, 4) != 1:
        return CheckResult("dimension-counts", False, "engel counts wrong")
    for dims in [(2, 3), (2, 3, 4), (4, 6), (1, 2, 3, 4)]:
        g = GrowthVector(dims)
        w = g.weights()
        n = g.n
        for m in range(1, n + 1):
            degs = [degree_of_index(J, w) for J in all_multi_indices(n, m)]
            for d in range(m, max(degs) + 1):
                if dim_leq(g, m, d) != sum(1 for x in degs if x <= d):
                    return CheckResult("dimension-counts", False, f"{dims} m={m} d={d}")
                if dim_gt(g, m, d) != sum(1 for x in degs if x > d):
                    return CheckResult("dimension-counts", False, f"{dims} m={m} d={d}")
    return CheckResult("dimension-counts", True, "match brute-force enumeration")


def check_areas() -> CheckResult:
    rt = catalog.immersion("rt-graph", u="x")
    a3 = area_degree(rt, 3, QuadratureGrid(rt.domain, 64)).value
    oracle = _gauss_1d(lambda x: np.sqrt(1 + np.cos(x) ** 2), 0.0, 1.0)
    if abs(a3 - oracle) > 1e-8 * max(1.0, abs(oracle)):
        return CheckResult("areas", False, f"rt-graph: {a3} vs {oracle}")
    eg = catalog.immersion("engel-graph", theta="x")
    a4 = area_degree(eg, 4, QuadratureGrid(eg.domain, 64)).value
    o4 = _gauss_1d(lambda x: np.sqrt(1 + (np.sin(x) * np.cos(x)) ** 2), 0.0, 1.0)
    if abs(a4 - o4) > 1e-8 * max(1.0, abs(o4)):
        return CheckResult("areas", False, f"engel frame metric: {a4} vs {o4}")
    eg0 = catalog.immersion("engel-graph", theta="x", metric="euclidean")
    a40 = area_degree(eg0, 4, QuadratureGrid(eg0.domain, 64)).value
    o40 = _gauss_1d(
        lambda x: np.sqrt(1 + np.cos(x) ** 2 + (np.sin(x) * np.cos(x)) ** 2), 0.0, 1.0
    )
    if abs(a40 - o40) > 1e-8 * max(1.0, abs(o40)):
        return CheckResult("areas", False, f"engel euclidean: {a40} vs {o40}")
    return CheckResult("areas", True, "closed-form reductions reproduced to 1e-8")


def check_scaling() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    grid = QuadratureGrid(eg.domain, 48)
    a4 = area_degree(eg, 4, grid).value
    rs = [10.0**-i for i in range(1, 6)]
    p4 = scaling_limit_probe(eg, 4, grid, rs)
    if not p4.converged or abs(p4.limit - a4) > 1e-3 * a4:
        return CheckResult("scaling-limit", False, f"limit {p4.limit} vs {a4}")
    if not scaling_limit_probe(eg, 3, grid, rs).divergent:
        return CheckResult("scaling-limit", False, "d=3 not flagged divergent")
    p5 = scaling_limit_probe(eg, 5, grid, rs)
    if not p5.zero_limit:
        return CheckResult("scaling-limit", False, f"d=5 limit {p5.limit}")
    return CheckResult("scaling-limit", True, f"limit error {abs(p4.limit - a4)/a4:.1e}")


def engel_closed_forms(theta_src, p):
    """Closed-form frame data of a ruled (theta, kappa)-graph at a point."""
    th = parse(theta_src, ["x", "y"])
    env = {"x": p[0], "y": p[1]}
    t = th.eval(env)
    tx, ty = th.diff("x").eval(env), th.diff("y").eval(env)
    kappa = math.cos(t) * tx + math.sin(t) * ty
    kap_expr = catalog.engel_graph_kappa(th)
    kx, ky = kap_expr.diff("x").eval(env), kap_expr.diff("y").eval(env)
    x1k = math.cos(t) * kx + math.sin(t) * ky
    x4t = -math.sin(t) * tx + math.cos(t) * ty
    x4k = -math.sin(t) * kx + math.cos(t) * ky
    a1 = math.sqrt(1 + x1k**2)
    a3 = math.sqrt(1 + x4t**2)
    a2 = math.sqrt(a1 * a1 * a3 * a3 + x4k * x4k) / a1
    return dict(theta=t, kappa=kappa, x1k=x1k, x4t=x4t, x4k=x4k, a1=a1, a2=a2, a3=a3)


def check_admissibility_matrices() -> CheckResult:
    theta_src = "0.2*x + 0.3*y"
    eg = catalog.immersion("engel-graph", theta=theta_src)
    worst = 0.0
    for p in eg.sample_points(25, seed=2):
        f = engel_closed_forms(theta_src, p)
        sys = assemble_adapted(eg, p, 4)
        worst = max(
            worst,
            abs(sys.A[0, 0] + f["x1k"]),
            abs(sys.A[0, 1] - 1.0),
            abs(sys.B[0, 0] - f["x4t"]),
            abs(sys.B[0, 1] + f["kappa"] ** 2),
            abs(sys.C[0][0, 0] - 1.0),
            abs(sys.C[0][0, 1] - f["x4t"]),
            float(np.max(np.abs(sys.C[1]))),
        )
        nsys = assemble_normal(eg, p, 4)
        xi = nsys.C[0][0, 0]
        a_hat = f["a1"] * nsys.A[0, 0] / xi
        b_hat = f["a1"] * nsys.B[0, 0] / xi
        a_true = f["a1"] * f["a2"] / f["a3"] ** 2
        b_true = f["x4t"] * (1 - f["kappa"] ** 2) / f["a3"] ** 2
        worst = max(worst, abs(a_hat - a_true), abs(b_hat - b_true))
    if worst > 1e-8:
        return CheckResult("admissibility-matrices", False, f"max dev {worst:.2e}")
    plane = catalog.immersion("isolated-plane")
    sysp = assemble_adapted(plane, [0.2, -0.3], 3)
    expect_A = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    expect_C1 = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    expect_C2 = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    dev = max(
        float(np.max(np.abs(sysp.A - expect_A))),
        float(np.max(np.abs(sysp.B))),
        float(np.max(np.abs(sysp.C[0] - expect_C1))),
        float(np.max(np.abs(sysp.C[1] - expect_C2))),
    )
    if dev > 1e-12:
        return CheckResult("admissibility-matrices", False, f"plane dev {dev:.2e}")
    return CheckResult("admissibility-matrices", True, f"max dev {worst:.2e}")


def check_regularity() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    plane = catalog.immersion("isolated-plane")
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    r1 = is_strongly_regular(eg, [0.4, 0.6], 4)
    r2 = is_strongly_regular(plane, [0.2, -0.3], 3)
    r3 = is_strongly_regular(rt, [0.5, 0.5], 3)
    ok = (
        r1.strongly_regular
        and r1.rank == 1
        and not r2.strongly_regular
        and r2.rank == 1
        and r2.ell == 3
        and r3.strongly_regular
        and r3.ell == 0
    )
    detail = f"engel rank {r1.rank}/{r1.ell}; plane rank {r2.rank}/{r2.ell}; hypersurface ell {r3.ell}"
    return CheckResult("strong-regularity", ok, detail)


def check_transport() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    comps = tuple(parse(s, ["x", "y"]) for s in ("x*y", "1+x", "y^2", "x-y"))
    rep = metric_change_check(
        eg, eg.sample_points(5, seed=3), MetricField.euclidean(4),
        VariationField("adapted", comps), 4,
    )
    detail = f"residual transport {rep.residual_transport_error:.2e}"
    return CheckResult("metric-transport", rep.ok, detail)


def check_variation() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    grid = QuadratureGrid(eg.domain, 48)
    theta = eg.components[2]
    psi = parse("(x*(1-x)*y*(1-y))^2", ["x", "y"])
    fam = catalog.engel_family_field(eg, psi)
    fv = first_variation(eg, fam, grid, 4)
    dual = duality_integral(eg, fam, grid, 4)
    if abs(fv - dual) > 1e-4 * (1 + abs(dual)):
        return CheckResult("first-variation", False, f"duality {fv} vs {dual}")
    h = 1e-4
    ap = area_degree(catalog.immersion("engel-graph", theta=theta + h * psi), 4, grid).value
    am = area_degree(catalog.immersion("engel-graph", theta=theta + (-h) * psi), 4, grid).value
    fd = (ap - am) / (2 * h)
    if abs(fv - fd) > 1e-4 * max(abs(fd), 1e-9):
        return CheckResult("first-variation", False, f"fd {fd} vs {fv}")
    return CheckResult("first-variation", True, f"duality and fd agree ({fv:.3e})")


def check_el_residual() -> CheckResult:
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    fr = frames_for(eg)
    grid = QuadratureGrid(eg.domain, 48)
    resid, _ = catalog.engel_el_residual_exprs(eg)
    env = eg.grid_env(grid.points)
    for src in ("(x*(1-x)*y*(1-y))^2", "(x*(1-x)*y*(1-y))^2*sin(3*x+y)"):
        psi = parse(src, ["x", "y"])
        fv = first_variation(eg, catalog.engel_admissible_normal_field(eg, psi), grid, 4)
        weak = grid.integrate_values(
            np.broadcast_to((resid * psi * fr.sqrt_detmu).eval(env), (len(grid),))
        )
        if abs(fv - weak) > 1e-4 * (1 + abs(fv)):
            return CheckResult("stationarity-residual", False, f"{fv} vs {weak}")
    grad = catalog.engel_theta_gradient_expr(eg)
    bump = parse("(16*x*(1-x)*y*(1-y))^2", ["x", "y"])
    step = grad * bump
    base = area_degree(eg, 4, grid).value
    tau = 0.005
    theta_new = eg.components[2] - tau * step
    a_new = area_degree(catalog.immersion("engel-graph", theta=theta_new), 4, grid).value
    if not a_new < base:
        return CheckResult("stationarity-residual", False, f"descent {base} -> {a_new}")
    return CheckResult("stationarity-residual", True, f"weak form ok; descent {base - a_new:.2e}")


def check_contact() -> CheckResult:
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    from .variation import mean_curvature

    H_contact, n_comps = catalog.contact_mean_curvature_exprs(rt)
    pts = rt.sample_points(10, seed=4)
    values = rt.values_at([H_contact, *n_comps], pts)
    worst = 0.0
    for mc, (hc, *ngraph) in zip(mean_curvature(rt, pts, 3), values.T):
        orient = float(mc.normal_frame[:, 0] @ ngraph)
        worst = max(worst, abs(-mc.components[0] * orient - hc))
    dens = catalog.contact_area_density(rt.components[2])
    grid = QuadratureGrid(rt.domain, 48)
    env = rt.grid_env(grid.points)
    a3c = grid.integrate_values(np.broadcast_to(dens.eval(env), (len(grid),)))
    a3 = area_degree(rt, 3, grid).value
    ok = worst <= 1e-6 and abs(a3 - a3c) <= 1e-8 * max(1.0, a3)
    return CheckResult("contact-crosscheck", ok, f"H dev {worst:.2e}, area dev {abs(a3-a3c):.2e}")


def check_isolation() -> CheckResult:
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (64, 64))
    bump = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    zero = const(0.0)
    cases = [
        (bump, zero),
        (zero, bump),
        (bump, parse("-w*((v^2-1)^2*(w^2-1)^2)", ["v", "w"])),
        (bump * parse("sin(3*v)", ["v", "w"]), bump),
    ]
    for phi, psi in cases:
        rep = catalog.isolated_plane_probe(phi, psi, pts)
        if rep["max_residual"] < 1e-3:
            return CheckResult("isolation-probe", False, f"residual {rep['max_residual']:.2e}")
    trivial = catalog.isolated_plane_probe(zero, zero, pts)
    if trivial["max_residual"] != 0.0:
        return CheckResult("isolation-probe", False, "trivial pair not exact")
    return CheckResult("isolation-probe", True, f"{len(cases)} nonzero pairs rejected")


ALL_CHECKS = [
    check_filtration,
    check_flags,
    check_degrees,
    check_dimensions,
    check_areas,
    check_scaling,
    check_admissibility_matrices,
    check_regularity,
    check_transport,
    check_variation,
    check_el_residual,
    check_contact,
    check_isolation,
]


def run_checks(names=None) -> list[CheckResult]:
    """Run the checks whose labels (``check_*`` suffixes) are in ``names``, or all."""
    labels = [fn.__name__.removeprefix("check_") for fn in ALL_CHECKS]
    unknown = sorted(set(names or ()) - set(labels))
    if unknown:
        raise ValueError(
            f"unknown verify check {', '.join(unknown)} (known: {', '.join(labels)})"
        )
    results = []
    for label, fn in zip(labels, ALL_CHECKS):
        if names and label not in names:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(label, False, f"error: {exc}"))
    return results
