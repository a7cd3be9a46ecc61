"""Built-in regression checks over the catalog structures.

Each check recomputes a quantity through the generic pipeline and compares
it against an independent route (closed-form reductions, brute-force
enumeration, finite differences, transport identities).  Every route is
written once, as an oracle: a function of the cases it checks (immersions,
point sets, psi lists, grid orders) that returns a :class:`CheckResult`.
The argument-free ``check_*`` functions call their oracle on the cases of
``VERIFY_CASES``; the acceptance suite (``tests/test_acceptance.py``) calls
the same oracles on larger case sets.  The CLI ``verify`` command runs the
checks and exits nonzero on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .admissibility import (
    VariationField,
    frames_for,
    is_strongly_regular,
    metric_change_check,
)
from .area import QuadratureGrid, area_degree, scaling_limit_probe
from .exprs import const, parse
from .immersion import degree_scan, uniform_grid
from .manifold import MetricField, carnot_flag, numeric_rank, verify_filtration
from .multivec import (
    GrowthVector,
    all_multi_indices,
    d_max,
    degree_of_index,
    dim_gt,
    dim_leq,
)
from .variation import duality_integral, first_variation, mean_curvature

__all__ = [
    "CheckResult", "run_checks", "ALL_CHECKS", "VERIFY_CASES", "AREA_REDUCTIONS",
    "engel_closed_forms",
    # the oracles, one per check label
    "filtration", "flags", "degrees", "dimensions", "areas", "scaling",
    "admissibility_matrices", "regularity", "transport", "variation", "el_residual",
    "contact", "isolation",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# -- the oracles ----------------------------------------------------------------

def filtration(structures, samples: int) -> CheckResult:
    """Each catalog structure's frame satisfies its filtration at ``samples`` seeded points."""
    worst = 0.0
    for name in structures:
        mani = catalog.manifold(name)
        rng = np.random.default_rng(0)
        rep = verify_filtration(mani.frame, rng.uniform(-1.0, 1.0, (samples, mani.n)))
        worst = max(worst, rep.max_residual)
        if not rep.ok:
            return CheckResult("filtration", False, f"{name}: {len(rep.violations)} violations")
    return CheckResult("filtration", True, f"{len(structures)} structures, max residual {worst:.2e}")


def flags(growth_vectors) -> CheckResult:
    """The horizontal layer of each structure brackets out to its growth vector."""
    for name, growth in growth_vectors.items():
        mani = catalog.manifold(name)
        horiz = [list(f) for f in mani.frame.fields[: mani.growth.dims[0]]]
        res = carnot_flag(horiz, mani.coords, np.full(mani.n, 0.2))
        if res.growth != growth or not res.hormander:
            return CheckResult("bracket-generation", False, f"{name}: {res.growth}")
    return CheckResult("bracket-generation", True, "growth vectors reproduced")


def degrees(scans, pointwise, flag_cases) -> CheckResult:
    """Scan, pointwise and flag degrees.

    ``scans``: (immersion, grid shape, degree, singular), the scan's degree,
    a lower semicontinuous degree map, and the singular mask |singular| <
    1e-12 for a parameter expression source, or no singular point for None.
    ``pointwise``: (immersion, points, degree).  ``flag_cases``: (immersion,
    points), where the flag (Gromov) degree sum_j j (dim_j - dim_{j-1})
    equals the pointwise degree.  Each point set is evaluated in one pass.
    """
    for imm, shape, degree, singular in scans:
        scan = degree_scan(imm, shape)
        if scan.degree != degree:
            return CheckResult("degrees", False, f"{imm.name}: {scan.degree} != {degree}")
        want = np.zeros(len(scan.points), dtype=bool)
        if singular is not None:
            want = np.abs(imm.values_at([parse(singular, imm.params)], scan.points)[0]) < 1e-12
        if not np.array_equal(scan.mask, want) or not scan.lsc_ok:
            return CheckResult("degrees", False, f"{imm.name} singular set not detected")
    for imm, points, degree in pointwise:
        for got in imm.degrees(points).tolist():
            if got != degree:
                return CheckResult("degrees", False, f"{imm.name}: {got} != {degree}")
    for imm, points in flag_cases:
        for p, dims, got in zip(points, imm.flag_dims(points), imm.degrees(points).tolist()):
            gromov = sum(j * (b - a) for j, (a, b) in enumerate(zip((0, *dims), dims), start=1))
            if gromov != got:
                return CheckResult("degrees", False, f"flag degree mismatch at {tuple(p)}")
    return CheckResult("degrees", True, "pointwise, flag and scan degrees agree")


def dimensions(growth_vectors) -> CheckResult:
    """dim_gt and dim_leq equal brute-force enumeration; the Engel counts are 3 and 1."""
    engel = GrowthVector((2, 3, 4))
    if dim_gt(engel, 2, 3) != 3 or dim_gt(engel, 2, 4) != 1:
        return CheckResult("dimension-counts", False, "engel counts wrong")
    for dims in growth_vectors:
        g = GrowthVector(dims)
        w = g.weights()
        for m in range(1, g.n + 1):
            degs = [degree_of_index(J, w) for J in all_multi_indices(g.n, m)]
            for d in range(m, d_max(m, w) + 1):
                brute = (sum(x <= d for x in degs), sum(x > d for x in degs))
                if (dim_leq(g, m, d), dim_gt(g, m, d)) != brute:
                    return CheckResult("dimension-counts", False, f"{dims} m={m} d={d}")
    return CheckResult("dimension-counts", True, "match brute-force enumeration")


def _gauss_1d(f):
    """Order-200 Gauss-Legendre integral of f over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(200)
    return 0.5 * float(np.dot(w, f(0.5 * x + 0.5)))


# Areas with a 1-D closed-form reduction, by label: (catalog entry, keys,
# degree, integrand in x over [0, 1]).
AREA_REDUCTIONS = {
    "rt-graph": ("rt-graph", {"u": "x"}, 3, lambda x: np.sqrt(1 + np.cos(x) ** 2)),
    "engel frame metric": ("engel-graph", {"theta": "x"}, 4,
                           lambda x: np.sqrt(1 + (np.sin(x) * np.cos(x)) ** 2)),
    "engel euclidean": ("engel-graph", {"theta": "x", "metric": "euclidean"}, 4,
                        lambda x: np.sqrt(1 + np.cos(x) ** 2 + (np.sin(x) * np.cos(x)) ** 2)),
}


def areas(order: int, labels) -> CheckResult:
    """The areas of ``AREA_REDUCTIONS[label]`` on an order x order grid equal their 1-D reductions.

    Each to 1e-8 relative, and none is tagged divergent.
    """
    for label in labels:
        name, keys, d, integrand = AREA_REDUCTIONS[label]
        imm = catalog.immersion(name, **keys)
        res = area_degree(imm, d, QuadratureGrid(imm.domain, order))
        oracle = _gauss_1d(integrand)
        if abs(res.value - oracle) > 1e-8 * max(1.0, abs(oracle)) or res.divergent_by_theory:
            return CheckResult("areas", False, f"{label}: {res.value} vs {oracle}")
    return CheckResult("areas", True, "closed-form reductions reproduced to 1e-8")


def scaling(imm, d: int, order: int, rs) -> CheckResult:
    """r^{(e-m)/2} Area(g_r) along ``rs``: the limit at e = d, divergence below, zero above."""
    grid = QuadratureGrid(imm.domain, order)
    area = area_degree(imm, d, grid).value
    probe = scaling_limit_probe(imm, d, grid, rs)
    err = abs(probe.limit - area) / area
    if not probe.converged or probe.divergent or err > 1e-3 or abs(probe.rate - 1.0) > 0.2:
        return CheckResult("scaling-limit", False, f"limit {probe.limit} vs {area}")
    if not scaling_limit_probe(imm, d - 1, grid, rs).divergent:
        return CheckResult("scaling-limit", False, f"d={d - 1} not flagged divergent")
    above = scaling_limit_probe(imm, d + 1, grid, rs)
    if not above.zero_limit or abs(above.limit) > 1e-6:
        return CheckResult("scaling-limit", False, f"d={d + 1} limit {above.limit}")
    return CheckResult("scaling-limit", True, f"limit error {err:.1e}")


def engel_closed_forms(eg, points):
    """Closed-form frame data of a ruled (theta, kappa)-graph ``eg`` at points (N, 2), arrays (N,)."""
    th = eg.components[2]
    kap = catalog.engel_graph_kappa(th)
    t, tx, ty, kx, ky = eg.values_at(
        [th, th.diff("x"), th.diff("y"), kap.diff("x"), kap.diff("y")], points
    )
    cos_t, sin_t = np.cos(t), np.sin(t)
    kappa = cos_t * tx + sin_t * ty
    x1k = cos_t * kx + sin_t * ky
    x4t = -sin_t * tx + cos_t * ty
    x4k = -sin_t * kx + cos_t * ky
    a1 = np.sqrt(1 + x1k**2)
    a3 = np.sqrt(1 + x4t**2)
    a2 = np.sqrt(a1 * a1 * a3 * a3 + x4k * x4k) / a1
    return dict(kappa=kappa, x1k=x1k, x4t=x4t, x4k=x4k, a1=a1, a2=a2, a3=a3)


# Adapted degree-3 system of the isolated plane: A, B, C_1, C_2.
_PLANE_SYSTEM = (
    [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0], [0.0], [0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
)


def admissibility_matrices(eg, points, plane, plane_points) -> CheckResult:
    """Degree-4 engel-graph systems (to 1e-8) and the degree-3 plane system (1e-12) in closed form.

    Adapted: A = (-X1(kappa), 1), B = (X4(theta), -kappa^2), C_1 = (1,
    X4(theta)), C_2 = 0.  Normal: xi = C_1 = alpha3 / alpha2, C_2 = 0,
    alpha1 A / xi = alpha1 alpha2 / alpha3^2 > 0, alpha1 B / xi =
    X4(theta) (1 - kappa^2) / alpha3^2.  One evaluation per system.
    """
    f = engel_closed_forms(eg, points)
    fr = frames_for(eg)
    A, B, (C1, C2), _ = fr.adapted_system(4).at(eg, points)
    nA, nB, (nC1, nC2), _ = fr.normal_system(4).at(eg, points)
    xi = nC1[:, 0, 0]
    a_hat = f["a1"] * nA[:, 0, 0] / xi
    devs = [
        A[:, 0, 0] + f["x1k"],
        A[:, 0, 1] - 1.0,
        B[:, 0, 0] - f["x4t"],
        B[:, 0, 1] + f["kappa"] ** 2,
        C1[:, 0, 0] - 1.0,
        C1[:, 0, 1] - f["x4t"],
        C2,
        xi - f["a3"] / f["a2"],
        nC2[:, 0, 0],
        a_hat - f["a1"] * f["a2"] / f["a3"] ** 2,
        f["a1"] * nB[:, 0, 0] / xi - f["x4t"] * (1 - f["kappa"] ** 2) / f["a3"] ** 2,
    ]
    worst = float(max(np.max(np.abs(dev), initial=0.0) for dev in devs))
    if not worst <= 1e-8 or not np.all(a_hat > 0):
        return CheckResult("admissibility-matrices", False, f"max dev {worst:.2e}")
    pA, pB, pC, _ = frames_for(plane).adapted_system(3).at(plane, plane_points)
    dev = max(
        float(np.max(np.abs(got - np.asarray(want)), initial=0.0))
        for got, want in zip([pA, pB, *pC], _PLANE_SYSTEM)
    )
    if not dev <= 1e-12:
        return CheckResult("admissibility-matrices", False, f"plane dev {dev:.2e}")
    return CheckResult("admissibility-matrices", True, f"max dev {worst:.2e}")


def regularity(cases, rank_cases) -> CheckResult:
    """Strong-regularity flags, and rank(A) = rank(A_perp) across the two system frames.

    ``cases`` holds (label, immersion, points, d, (strongly regular, rank,
    ell)), expected at every point; ``rank_cases`` holds (immersion, points,
    d).  Each point set is evaluated in one pass.
    """
    parts = []
    for label, imm, points, d, want in cases:
        got = {(r.strongly_regular, r.rank, r.ell) for r in is_strongly_regular(imm, points, d)}
        if got != {tuple(want)}:
            return CheckResult("strong-regularity", False, f"{label}: {sorted(got)} != {want}")
        _, rank, ell = want
        parts.append(f"{label} ell 0" if ell == 0 else f"{label} rank {rank}/{ell}")
    count = 0
    for imm, points, d in rank_cases:
        fr = frames_for(imm)
        ranks = numeric_rank(fr.adapted_system(d).at(imm, points)[0])
        if not np.array_equal(ranks, numeric_rank(fr.normal_system(d).at(imm, points)[0])):
            return CheckResult("strong-regularity", False, f"{imm.name}: rank(A) != rank(A_perp)")
        count += len(points)
    if rank_cases:
        parts.append(f"rank(A) = rank(A_perp) at {count} points")
    return CheckResult("strong-regularity", True, "; ".join(parts))


def transport(imm, d: int, fields, points) -> CheckResult:
    """Residual and matrix transport identities to the euclidean metric, per adapted field.

    ``MetricChangeReport.ok`` holds, and Lambda's block from the degree <= d
    indices into the degree > d ones vanishes to 1e-10.
    """
    metric = MetricField.euclidean(imm.n)
    worst = 0.0
    for comps in fields:
        rep = metric_change_check(imm, points, metric, VariationField("adapted", comps), d)
        worst = max(worst, rep.residual_transport_error)
        if not rep.ok or rep.block_triangular_error > 1e-10:
            return CheckResult("metric-transport", False, f"{rep}")
    return CheckResult("metric-transport", True, f"residual transport {worst:.2e}")


def variation(eg, order: int, family_psis, normal_fields, tangent_fields) -> CheckResult:
    """First variation of the degree-4 area of an engel-graph on an order x order grid.

    Along the family theta + t psi of each of ``family_psis`` it equals the
    duality integral <V, H> and the central difference (h = 1e-4) of the
    area, each to 1e-4 relative; along each of ``normal_fields`` it equals
    the duality integral; along each of ``tangent_fields`` it is below 1e-6.
    """
    grid = QuadratureGrid(eg.domain, order)
    fvs, dual_dev = [], 0.0
    for field in [*(catalog.engel_family_field(eg, psi) for psi in family_psis), *normal_fields]:
        fv = first_variation(eg, field, grid, 4)
        dual = duality_integral(eg, field, grid, 4)
        dual_dev = max(dual_dev, abs(fv - dual) / (1 + abs(dual)))
        fvs.append(fv)
    if dual_dev > 1e-4:
        return CheckResult("first-variation", False, f"duality dev {dual_dev:.1e}")
    theta, h = eg.components[2], 1e-4
    for psi, fv in zip(family_psis, fvs):
        ap = area_degree(catalog.immersion("engel-graph", theta=theta + h * psi), 4, grid).value
        am = area_degree(catalog.immersion("engel-graph", theta=theta + (-h) * psi), 4, grid).value
        fd = (ap - am) / (2 * h)
        if abs(fv - fd) > 1e-4 * max(abs(fd), 1e-12):
            return CheckResult("first-variation", False, f"fd {fd} vs {fv}")
    tangent_fv = max((abs(first_variation(eg, f, grid, 4)) for f in tangent_fields), default=0.0)
    if tangent_fv > 1e-6:
        return CheckResult("first-variation", False, f"tangent FV {tangent_fv:.1e}")
    parts = []
    if family_psis:
        family_fvs = fvs[: len(family_psis)]
        parts.append(f"duality and fd agree ({', '.join(f'{fv:.3e}' for fv in family_fvs)})")
    if normal_fields:
        parts.append(f"{len(normal_fields)} normal fields, duality dev {dual_dev:.1e}")
    if tangent_fields:
        parts.append(f"{len(tangent_fields)} tangent fields, FV {tangent_fv:.1e}")
    return CheckResult("first-variation", True, "; ".join(parts))


# Descent step of the stationarity oracle: theta - tau * gradient * bump.
_DESCENT_BUMP = "(16*x*(1-x)*y*(1-y))^2"
_DESCENT_TAU = 0.005


def el_residual(eg, order: int, psis) -> CheckResult:
    """Third-order Euler-Lagrange residual of an engel-graph on an order x order grid.

    For the admissible normal field of each psi, FV = integral of residual *
    psi * sqrt(det mu) to 1e-4 relative; the control coefficient is positive
    on the grid (``engel_el_residual_exprs`` refuses an iota residual); one
    explicit step along the theta gradient lowers the area.
    """
    grid = QuadratureGrid(eg.domain, order)
    resid, control_scale = catalog.engel_el_residual_exprs(eg)  # refuses an iota residual
    sqrt_detmu = frames_for(eg).sqrt_detmu
    scale, *weak_integrands = eg.values_at(
        [control_scale, *(resid * psi * sqrt_detmu for psi in psis)], grid.points
    )
    if not np.all(scale > 0):
        return CheckResult("stationarity-residual", False, "control coefficient not positive")
    for psi, integrand in zip(psis, weak_integrands):
        fv = first_variation(eg, catalog.engel_admissible_normal_field(eg, psi), grid, 4)
        weak = grid.integrate_values(integrand)
        if abs(fv - weak) > 1e-4 * (1 + abs(fv)):
            return CheckResult("stationarity-residual", False, f"{fv} vs {weak}")
    step = catalog.engel_theta_gradient_expr(eg) * parse(_DESCENT_BUMP, ["x", "y"])
    base = area_degree(eg, 4, grid).value
    theta_new = eg.components[2] - _DESCENT_TAU * step
    a_new = area_degree(catalog.immersion("engel-graph", theta=theta_new), 4, grid).value
    if not a_new < base:
        return CheckResult("stationarity-residual", False, f"descent {base} -> {a_new}")
    return CheckResult("stationarity-residual", True, f"weak form ok; descent {base - a_new:.2e}")


def contact(surfaces, count: int, seed: int, order: int) -> CheckResult:
    """Degree-3 curvature and area of rt-graphs against the contact-geometry closed forms.

    At ``count`` seeded points, in one pass: |orientation| of the graph
    normal on the first normal field is 1 to 1e-10, and -H_3 times it is the
    contact curvature to 1e-6.  The order^2 area is the integral of
    sqrt(1 + X(u)^2) to 1e-8 relative.
    """
    h_dev = area_dev = 0.0
    for rt in surfaces:
        H_contact, n_comps = catalog.contact_mean_curvature_exprs(rt)
        pts = rt.sample_points(count, seed=seed)
        values = rt.values_at([H_contact, *n_comps], pts)
        for mc, (hc, *ngraph) in zip(mean_curvature(rt, pts, 3), values.T):
            orient = float(mc.normal_frame[:, 0] @ ngraph)
            if abs(abs(orient) - 1.0) > 1e-10:
                return CheckResult("contact-crosscheck", False, f"orientation {orient}")
            h_dev = max(h_dev, float(abs(-mc.components[0] * orient - hc)))
        grid = QuadratureGrid(rt.domain, order)
        dens = catalog.contact_area_density(rt.components[2])
        a3c = grid.integrate_values(rt.values_at([dens], grid.points)[0])
        a3 = area_degree(rt, 3, grid).value
        if abs(a3 - a3c) > 1e-8 * max(1.0, a3):
            return CheckResult("contact-crosscheck", False, f"area {a3} vs {a3c}")
        area_dev = max(area_dev, abs(a3 - a3c))
    ok = h_dev <= 1e-6
    return CheckResult("contact-crosscheck", ok, f"H dev {h_dev:.2e}, area dev {area_dev:.2e}")


def isolation(pairs, order: int) -> CheckResult:
    """Rigidity of the isolated plane on an order x order grid of [-1, 1]^2.

    Each nonzero pair (phi, psi) in (v, w) violates the degree-3 constraints
    by at least 1e-3 somewhere; the zero pair satisfies them exactly.
    """
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (order, order))
    for phi, psi in pairs:
        rep = catalog.isolated_plane_probe(phi, psi, pts)
        if rep["max_residual"] < 1e-3:
            return CheckResult("isolation-probe", False, f"residual {rep['max_residual']:.2e}")
    zero = const(0.0)
    trivial = catalog.isolated_plane_probe(zero, zero, pts)
    if trivial["max_residual"] != 0.0 or not trivial["trivial"]:
        return CheckResult("isolation-probe", False, "trivial pair not exact")
    return CheckResult("isolation-probe", True, f"{len(pairs)} nonzero pairs rejected")


# -- the checks: each oracle on the cases of ``VERIFY_CASES`` ----------------

_THETA = "0.2*x + 0.3*y"
_BUMP_VW = "(v^2-1)^2*(w^2-1)^2"

# The catalog immersions the cases name: (entry, keys).
_SURFACES = {
    "engel": ("engel-graph", {"theta": _THETA}),
    "plane": ("isolated-plane", {}),
    "hypersurface": ("rt-graph", {"u": "0.3*x + 0.2*y^2"}),
    "h1xh1": ("h1xh1-surface", {"u": "s^2"}),
}

VERIFY_CASES = {
    "filtration": {
        "structures": ("h1xh1", "rototrans", "engel-structure", "engel-group"),
        "samples": 40,
    },
    "flags": {"rototrans": (2, 3), "engel-structure": (2, 3, 4), "engel-group": (2, 3, 4)},
    "degrees": {
        "scans": [("engel", (12, 12), 4, None), ("h1xh1", (15, 5), 3, "s")],
        "pointwise": [("plane", [0.3, -0.4], 3), ("hypersurface", [0.5, 0.5], 3)],
        "flags": [("engel", 20, 1), ("plane", 20, 1), ("hypersurface", 20, 1)],  # count, seed
    },
    "dimensions": [(2, 3), (2, 3, 4), (4, 6), (1, 2, 3, 4)],
    "areas": {"order": 64, "labels": tuple(AREA_REDUCTIONS)},
    "scaling": {"d": 4, "order": 48, "rs": (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)},
    "admissibility_matrices": {"count": 25, "seed": 2, "plane_point": [0.2, -0.3]},
    "regularity": [  # (surface, point, d, expected (strongly regular, rank, ell))
        ("engel", [0.4, 0.6], 4, (True, 1, 1)),
        ("plane", [0.2, -0.3], 3, (False, 1, 3)),
        ("hypersurface", [0.5, 0.5], 3, (True, 0, 0)),
    ],
    "transport": {"field": ("x*y", "1+x", "y^2", "x-y"), "count": 5, "seed": 3},
    "variation": {"order": 48, "family_psis": ["(x*(1-x)*y*(1-y))^2"]},
    "el_residual": {
        "order": 48,
        "psis": ["(x*(1-x)*y*(1-y))^2", "(x*(1-x)*y*(1-y))^2*sin(3*x+y)"],
    },
    "contact": {"count": 10, "seed": 4, "order": 48},
    "isolation": {
        "pairs": [
            (_BUMP_VW, "0"),
            ("0", _BUMP_VW),
            (_BUMP_VW, f"-w*({_BUMP_VW})"),
            (f"{_BUMP_VW}*sin(3*v)", _BUMP_VW),
        ],
        "order": 64,
    },
}


def _surface(key):
    name, keys = _SURFACES[key]
    return catalog.immersion(name, **keys)


def _xy(sources):
    return [parse(src, ["x", "y"]) for src in sources]


def check_filtration() -> CheckResult:
    return filtration(**VERIFY_CASES["filtration"])


def check_flags() -> CheckResult:
    return flags(VERIFY_CASES["flags"])


def check_degrees() -> CheckResult:
    c = VERIFY_CASES["degrees"]
    imm = {key: _surface(key) for key in _SURFACES}
    return degrees(
        [(imm[key], shape, deg, singular) for key, shape, deg, singular in c["scans"]],
        [(imm[key], np.array([p]), deg) for key, p, deg in c["pointwise"]],
        [(imm[key], imm[key].sample_points(n, seed=seed)) for key, n, seed in c["flags"]],
    )


def check_dimensions() -> CheckResult:
    return dimensions(VERIFY_CASES["dimensions"])


def check_areas() -> CheckResult:
    return areas(**VERIFY_CASES["areas"])


def check_scaling() -> CheckResult:
    return scaling(_surface("engel"), **VERIFY_CASES["scaling"])


def check_admissibility_matrices() -> CheckResult:
    c = VERIFY_CASES["admissibility_matrices"]
    eg = _surface("engel")
    return admissibility_matrices(
        eg, eg.sample_points(c["count"], seed=c["seed"]),
        _surface("plane"), np.array([c["plane_point"]]),
    )


def check_regularity() -> CheckResult:
    cases = [
        (key, _surface(key), np.array([p]), d, want)
        for key, p, d, want in VERIFY_CASES["regularity"]
    ]
    return regularity(cases, [])


def check_transport() -> CheckResult:
    c = VERIFY_CASES["transport"]
    eg = _surface("engel")
    return transport(eg, 4, [tuple(_xy(c["field"]))], eg.sample_points(c["count"], seed=c["seed"]))


def check_variation() -> CheckResult:
    c = VERIFY_CASES["variation"]
    return variation(_surface("engel"), c["order"], _xy(c["family_psis"]), [], [])


def check_el_residual() -> CheckResult:
    c = VERIFY_CASES["el_residual"]
    return el_residual(_surface("engel"), c["order"], _xy(c["psis"]))


def check_contact() -> CheckResult:
    return contact([_surface("hypersurface")], **VERIFY_CASES["contact"])


def check_isolation() -> CheckResult:
    c = VERIFY_CASES["isolation"]
    pairs = [tuple(parse(src, ["v", "w"]) for src in pair) for pair in c["pairs"]]
    return isolation(pairs, c["order"])


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
