"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance against an independent
route: brute-force enumeration, reduced-dimension quadrature, finite
differences of the area under explicit degree-preserving families, closed
forms validated by the annihilation of admissible fields, and transport
identities.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gradedgeo import catalog
from gradedgeo.admissibility import (
    VariationField,
    assemble_adapted,
    assemble_normal,
    frames_for,
    is_strongly_regular,
    metric_change_check,
    residual,
)
from gradedgeo.area import QuadratureGrid, area_degree, scaling_limit_probe
from gradedgeo.exprs import const, parse, var
from gradedgeo.immersion import Immersion, degree_scan, tangent_flag, uniform_grid
from gradedgeo.manifold import MetricField, numeric_rank
from gradedgeo.multivec import (
    GrowthVector,
    all_multi_indices,
    d_max,
    degree_of_index,
    dim_gt,
    dim_leq,
)
from gradedgeo.variation import (
    critical_residual_exprs,
    duality_integral,
    first_variation,
    mean_curvature,
)
from gradedgeo.verify import engel_closed_forms

THETA = "0.2*x + 0.3*y"


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta=THETA)


@pytest.fixture(scope="module")
def grid64(engel_graph):
    return QuadratureGrid(engel_graph.domain, 64)


def bump(power=2):
    return parse(f"(16*x*(1-x)*y*(1-y))^{power}", ["x", "y"])


def test_criterion_01_combinatorics():
    """dim counts equal brute force for every growth vector with n <= 8."""
    checked = 0
    for n in range(1, 9):
        for inner in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(n)
        ):
            growth = GrowthVector((*inner, n))
            w = growth.weights()
            for m in range(1, n + 1):
                degs = [degree_of_index(J, w) for J in all_multi_indices(n, m)]
                for d in range(m, d_max(m, w) + 1):
                    if dim_gt(growth, m, d) != sum(1 for x in degs if x > d):
                        report(1, False, f"dim_gt {growth.dims} m={m} d={d}")
                    if dim_leq(growth, m, d) != sum(1 for x in degs if x <= d):
                        report(1, False, f"dim_leq {growth.dims} m={m} d={d}")
                    checked += 1
    engel = GrowthVector((2, 3, 4))
    ok = dim_gt(engel, 2, 3) == 3 and dim_gt(engel, 2, 4) == 1
    report(1, ok, f"exhaustive enumeration, {checked} cases; listed counts 3 and 1")


def test_criterion_02_degrees(engel_graph):
    """Pointwise, scan and flag degrees; hypersurfaces at Q - 1."""
    problems = []
    scan = degree_scan(engel_graph, (16, 16))
    if scan.degree != 4 or scan.singular_count:
        problems.append("ruled graph degree")
    plane = catalog.immersion("isolated-plane")
    if any(plane.pointwise_degree(p) != 3 for p in plane.sample_points(20, seed=0)):
        problems.append("plane degree")
    h = catalog.immersion("h1xh1-surface", u="s^2")
    hscan = degree_scan(h, (21, 5))
    grid_deg = hscan.degrees.reshape(hscan.shape)
    s_vals = hscan.points[:, 0].reshape(hscan.shape)
    if hscan.degree != 3 or not np.array_equal(
        hscan.mask.reshape(hscan.shape), np.abs(s_vals) < 1e-12
    ):
        problems.append("product-surface singular line")
    # random graph hypersurfaces: degree Q - 1
    rng = np.random.default_rng(1)
    for name, q in (("rototrans", 4), ("engel-structure", 7)):
        mani = catalog.manifold(name)
        params = tuple(f"p{i}" for i in range(mani.n - 1))
        for trial in range(3):
            coeffs = rng.uniform(-0.4, 0.4, mani.n - 1)
            graph_fn = parse(
                "0.1 + " + " + ".join(f"{c}*{v}" for c, v in zip(coeffs, params)),
                params,
            )
            imm = Immersion(
                mani,
                params,
                tuple([var(p) for p in params] + [graph_fn]),
                tuple((0.0, 1.0) for _ in params),
            )
            degs = {imm.pointwise_degree(p) for p in imm.sample_points(10, seed=trial)}
            if degs != {q - 1}:
                problems.append(f"{name} hypersurface degrees {degs}")
    # flag degree == wedge degree at 500 points
    count = 0
    for imm in (
        engel_graph,
        plane,
        catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2"),
        catalog.immersion("h1xh1-surface", u="s^2 + 0.5*s"),
    ):
        for p in imm.sample_points(125, seed=2):
            _, gromov = tangent_flag(imm, p)
            if gromov != imm.pointwise_degree(p):
                problems.append(f"flag mismatch {imm.name} {tuple(p)}")
                break
            count += 1
    report(2, not problems, f"degrees exact; {count} flag comparisons; {problems}")


def test_criterion_03_areas(grid64):
    """Reduced-dimension quadrature oracles at 1e-8 relative, 64^2 grids."""
    rt = catalog.immersion("rt-graph", u="x")
    a3 = area_degree(rt, 3, grid64).value
    o3 = quad(lambda x: math.sqrt(1 + math.cos(x) ** 2), 0, 1, epsabs=1e-13)[0]
    eg = catalog.immersion("engel-graph", theta="x")
    a4 = area_degree(eg, 4, grid64).value
    o4 = quad(
        lambda x: math.sqrt(1 + (math.sin(x) * math.cos(x)) ** 2), 0, 1, epsabs=1e-13
    )[0]
    eg0 = catalog.immersion("engel-graph", theta="x", metric="euclidean")
    a40 = area_degree(eg0, 4, grid64).value
    o40 = quad(
        lambda x: math.sqrt(1 + math.cos(x) ** 2 + (math.sin(x) * math.cos(x)) ** 2),
        0,
        1,
        epsabs=1e-13,
    )[0]
    errs = (
        abs(a3 - o3) / o3,
        abs(a4 - o4) / o4,
        abs(a40 - o40) / o40,
    )
    report(3, max(errs) <= 1e-8, f"relative errors {tuple(f'{e:.1e}' for e in errs)}")


def test_criterion_04_scaling_limit(engel_graph, grid64):
    """r^{(d-m)/2} Area(g_r) converges to the degree-4 area."""
    rs = [10.0**-k for k in range(1, 6)]
    a4 = area_degree(engel_graph, 4, grid64).value
    p4 = scaling_limit_probe(engel_graph, 4, grid64, rs)
    p3 = scaling_limit_probe(engel_graph, 3, grid64, rs)
    p5 = scaling_limit_probe(engel_graph, 5, grid64, rs)
    ok = (
        p4.converged
        and abs(p4.limit - a4) <= 1e-3 * a4
        and p3.divergent
        and p5.zero_limit
        and abs(p5.limit) <= 1e-6
    )
    report(
        4,
        ok,
        f"limit err {abs(p4.limit - a4)/a4:.1e}; below-degree divergent={p3.divergent}; "
        f"above-degree limit {p5.limit:.1e}",
    )


def test_criterion_05_admissibility_assembly(engel_graph):
    """Matrices match the closed forms at 100 random points (1e-8 / 1e-12).

    The f3 coefficient carries +X4(theta) and the normalized control
    coefficient is alpha1 alpha2 / alpha3^2: both pinned by the requirement
    that explicit degree-preserving families be annihilated (the source
    displays differ by a sign and by one alpha2 factor; see the decisions
    ledger).
    """
    worst = 0.0
    for p in engel_graph.sample_points(100, seed=3):
        f = engel_closed_forms(THETA, p)
        sys = assemble_adapted(engel_graph, p, 4)
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
        nsys = assemble_normal(engel_graph, p, 4)
        xi = nsys.C[0][0, 0]
        worst = max(
            worst,
            abs(xi - f["a3"] / f["a2"]),
            abs(f["a1"] * nsys.A[0, 0] / xi - f["a1"] * f["a2"] / f["a3"] ** 2),
            abs(
                f["a1"] * nsys.B[0, 0] / xi
                - f["x4t"] * (1 - f["kappa"] ** 2) / f["a3"] ** 2
            ),
        )
    plane = catalog.immersion("isolated-plane")
    plane_dev = 0.0
    for p in plane.sample_points(20, seed=4):
        sysp = assemble_adapted(plane, p, 3)
        plane_dev = max(
            plane_dev,
            float(np.max(np.abs(sysp.A - [[0, 1], [0, 0], [0, 0]]))),
            float(np.max(np.abs(sysp.B))),
            float(np.max(np.abs(sysp.C[0] - [[0, 0], [0, 0], [0, -1]]))),
            float(np.max(np.abs(sysp.C[1] - [[0, 1], [0, 0], [0, 0]]))),
        )
    ok = worst <= 1e-8 and plane_dev <= 1e-12
    report(5, ok, f"ruled-graph max dev {worst:.1e}; plane max dev {plane_dev:.1e}")


def test_criterion_06_regularity(engel_graph):
    """Strong-regularity flags and rank equality across system frames."""
    plane = catalog.immersion("isolated-plane")
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    ok = True
    for p in engel_graph.sample_points(20, seed=5):
        reg = is_strongly_regular(engel_graph, p, 4)
        ok = ok and reg.strongly_regular and reg.rank == 1 == reg.ell
    for p in plane.sample_points(20, seed=6):
        reg = is_strongly_regular(plane, p, 3)
        ok = ok and (not reg.strongly_regular) and reg.rank == 1 and reg.ell == 3
    reg = is_strongly_regular(rt, [0.5, 0.5], 3)
    ok = ok and reg.strongly_regular and reg.ell == 0
    for imm, d in ((engel_graph, 4), (plane, 3)):
        for p in imm.sample_points(25, seed=7):
            ra = numeric_rank(assemble_adapted(imm, p, d).A)
            rp = numeric_rank(assemble_normal(imm, p, d).A)
            ok = ok and ra == rp
    report(6, ok, "flags true/false/vacuous; rank(A) == rank(A_perp) at all points")


def test_criterion_07_metric_transport(engel_graph):
    """Residual transport identity at 1e-7, 10 fields x 20 points."""
    rng = np.random.default_rng(8)
    pts = engel_graph.sample_points(20, seed=9)
    worst = 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, (4, 3))
        comps = tuple(
            const(c0) + const(c1) * var("x") + const(c2) * var("y")
            for c0, c1, c2 in coeffs
        )
        rep = metric_change_check(
            engel_graph, pts, MetricField.euclidean(4),
            VariationField("adapted", comps), 4,
        )
        worst = max(
            worst,
            rep.residual_transport_error,
            rep.a_identity_error,
            rep.b_identity_error,
            rep.c_identity_error,
        )
        if not rep.rank_equal:
            report(7, False, "rank changed under the metric change")
    report(7, worst <= 1e-7, f"transport identities max dev {worst:.1e}")


def test_criterion_08_first_variation_duality(engel_graph, grid64):
    """|FV(V) - <V, H>| <= 1e-4 (1 + |<V, H>|); tangent fields below 1e-6."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        c1, c2 = rng.uniform(-1, 1, 2)
        f1, f2 = rng.integers(1, 4, 2)
        V = VariationField(
            "normal",
            (
                bump() * parse(f"{c1}*sin({f1}*x)*cos(y)", ["x", "y"]),
                bump() * parse(f"{c2}*cos({f2}*y + x)", ["x", "y"]),
            ),
        )
        fv = first_variation(engel_graph, V, grid64, 4)
        dual = duality_integral(engel_graph, V, grid64, 4)
        worst = max(worst, abs(fv - dual) / (1 + abs(dual)))
    fr = frames_for(engel_graph)
    tangent_worst = 0.0
    for col in range(2):
        comps = tuple(bump() * fr.E_amb[i][col] for i in range(4))
        fv = first_variation(engel_graph, VariationField("adapted", comps), grid64, 4)
        tangent_worst = max(tangent_worst, abs(fv))
    ok = worst <= 1e-4 and tangent_worst <= 1e-6
    report(8, ok, f"duality dev {worst:.1e}; tangent FV {tangent_worst:.1e}")


def test_criterion_09_family_oracle(engel_graph, grid64):
    """Central differences of the area along theta + t psi match FV (1e-4)."""
    rng = np.random.default_rng(11)
    theta0 = engel_graph.components[2]
    h = 1e-4
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(0.5, 1.5)
        f = int(rng.integers(1, 4))
        psi = bump() * parse(f"{c}*sin({f}*x + y)", ["x", "y"])
        fv = first_variation(engel_graph, catalog.engel_family_field(engel_graph, psi), grid64, 4)
        ap = area_degree(
            catalog.immersion("engel-graph", theta=theta0 + h * psi), 4, grid64
        ).value
        am = area_degree(
            catalog.immersion("engel-graph", theta=theta0 + (-h) * psi), 4, grid64
        ).value
        fd = (ap - am) / (2 * h)
        worst = max(worst, abs(fv - fd) / max(abs(fd), 1e-12))
    report(9, worst <= 1e-4, f"family finite-difference dev {worst:.1e}")


def test_criterion_10_stationarity_residual(engel_graph, grid64):
    """Weak-form identity for the third-order residual; descent step."""
    fr = frames_for(engel_graph)
    res = critical_residual_exprs(engel_graph, 4)
    env = {nm: grid64.points[:, i] for i, nm in enumerate(engel_graph.params)}
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(0.5, 1.5)
        f = int(rng.integers(1, 5))
        psi = bump() * parse(f"{c}*sin({f}*x + 0.5*y)", ["x", "y"])
        V = catalog.engel_admissible_normal_field(engel_graph, psi)
        fv = first_variation(engel_graph, V, grid64, 4)
        weak = grid64.integrate_values(
            np.broadcast_to(
                (res.vert[0] * psi * fr.sqrt_detmu).eval(env), (len(grid64),)
            )
        )
        worst = max(worst, abs(fv - weak) / (1 + abs(fv)))
    grad = catalog.engel_theta_gradient_expr(engel_graph)
    base = area_degree(engel_graph, 4, grid64).value
    theta_new = engel_graph.components[2] - 0.005 * grad * bump()
    stepped = area_degree(
        catalog.immersion("engel-graph", theta=theta_new), 4, grid64
    ).value
    ok = worst <= 1e-4 and stepped < base
    report(
        10, ok, f"weak-form dev {worst:.1e}; descent {base:.9f} -> {stepped:.9f}"
    )


def test_criterion_11_isolation_probe():
    """Every nonzero compactly supported pair violates the plane system."""
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (64, 64))
    bump_vw = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    zero = parse("0", ["v", "w"])
    rng = np.random.default_rng(13)
    cases = [(bump_vw, zero), (zero, bump_vw),
             (bump_vw, -1.0 * parse("w", ["v", "w"]) * bump_vw)]
    while len(cases) < 20:
        fa, fb = rng.integers(1, 4, 2)
        ca, cb = rng.uniform(-1.5, 1.5, 2)
        phi = bump_vw * parse(f"{ca}*sin({fa}*v + w)", ["v", "w"])
        psi = bump_vw * parse(f"{cb}*cos({fb}*w - v)", ["v", "w"])
        cases.append((phi, psi))
    min_violation = math.inf
    for phi, psi in cases:
        rep = catalog.isolated_plane_probe(phi, psi, pts)
        min_violation = min(min_violation, rep["max_residual"])
    trivial = catalog.isolated_plane_probe(zero, zero, pts)
    ok = min_violation >= 1e-3 and trivial["max_residual"] == 0.0
    report(
        11,
        ok,
        f"{len(cases)} nonzero pairs, smallest violation {min_violation:.2e}; "
        "trivial pair exact",
    )


def test_criterion_12_contact_crosscheck():
    """Degree-3 density equals the horizontal-normal density; curvature match."""
    from gradedgeo.exprs import evaluate_many
    from gradedgeo.symmat import eval_matrix

    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    grid = QuadratureGrid(rt.domain, 64)
    dens = catalog.contact_area_density(rt.components[2])
    env = {nm: grid.points[:, i] for i, nm in enumerate(rt.params)}
    a3_closed = grid.integrate_values(np.broadcast_to(dens.eval(env), (len(grid),)))
    a3 = area_degree(rt, 3, grid).value
    area_dev = abs(a3 - a3_closed) / max(1.0, a3)
    H_contact, n_comps = catalog.contact_mean_curvature_exprs(rt)
    fr = frames_for(rt)
    h_dev = 0.0
    for p in rt.sample_points(15, seed=14):
        penv = rt.param_env(p)
        mc = mean_curvature(rt, p, 3)
        hc = float(H_contact.eval(penv))
        N = eval_matrix(fr.normal_amb, penv)[:, 0]
        ngraph = np.array(evaluate_many(n_comps, penv), dtype=float)
        orient = float(N @ ngraph)
        h_dev = max(h_dev, abs(-mc.components[0] * orient - hc))
    ok = area_dev <= 1e-8 and h_dev <= 1e-6
    report(12, ok, f"area dev {area_dev:.1e}; curvature dev {h_dev:.1e}")
