"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion takes its verdict from the ``gradedgeo verify`` oracle that
``CRITERIA`` names (``gradedgeo.verify.<label>``, the oracle behind
``check_<label>``), called here on larger case sets than ``verify`` uses.
The oracles compare against independent routes: brute-force enumeration,
reduced-dimension quadrature, finite differences of the area under
explicit degree-preserving families, closed forms validated by the
annihilation of admissible fields, and transport identities.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools

import numpy as np
import pytest

from gradedgeo import catalog, verify
from gradedgeo.admissibility import VariationField, frames_for
from gradedgeo.exprs import const, parse, var
from gradedgeo.immersion import Immersion

THETA = "0.2*x + 0.3*y"

CRITERIA = {
    1: "dimensions",
    2: "degrees",
    3: "areas",
    4: "scaling",
    5: "admissibility_matrices",
    6: "regularity",
    7: "transport",
    8: "variation",
    9: "variation",
    10: "el_residual",
    11: "isolation",
    12: "contact",
}


def accept(number, *cases):
    """Run criterion ``number``'s oracle on ``cases``; print its line and assert it passed."""
    label = CRITERIA[number]
    assert getattr(verify, f"check_{label}") in verify.ALL_CHECKS
    result = getattr(verify, label)(*cases)
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {status}: {result.name}: {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta=THETA)


@pytest.fixture(scope="module")
def plane():
    return catalog.immersion("isolated-plane")


@pytest.fixture(scope="module")
def rt_graph():
    return catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")


def bump():
    return parse("(16*x*(1-x)*y*(1-y))^2", ["x", "y"])


def test_criterion_01_combinatorics():
    """dim counts equal brute force for every growth vector with n <= 8."""
    growth_vectors = [
        (*inner, n)
        for n in range(1, 9)
        for k in range(n)
        for inner in itertools.combinations(range(1, n), k)
    ]
    accept(1, growth_vectors)


def test_criterion_02_degrees(engel_graph, plane, rt_graph):
    """Pointwise, scan and flag degrees; hypersurfaces at Q - 1."""
    h = catalog.immersion("h1xh1-surface", u="s^2")
    pointwise = [(plane, plane.sample_points(20, seed=0), 3)]
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
            pointwise.append((imm, imm.sample_points(10, seed=trial), q - 1))
    flag_surfaces = (
        engel_graph,
        plane,
        rt_graph,
        catalog.immersion("h1xh1-surface", u="s^2 + 0.5*s"),
    )
    accept(
        2,
        [(engel_graph, (16, 16), 4, None), (h, (21, 5), 3, "s")],
        pointwise,
        [(imm, imm.sample_points(125, seed=2)) for imm in flag_surfaces],
    )


def test_criterion_03_areas():
    """Reduced-dimension quadrature oracles at 1e-8 relative, 64^2 grids."""
    accept(3, 64, tuple(verify.AREA_REDUCTIONS))


def test_criterion_04_scaling_limit(engel_graph):
    """r^{(d-m)/2} Area(g_r) converges to the degree-4 area."""
    accept(4, engel_graph, 4, 64, [10.0**-k for k in range(1, 6)])


def test_criterion_05_admissibility_assembly(engel_graph, plane):
    """Matrices match the closed forms at 100 random points (1e-8 / 1e-12).

    The f3 coefficient carries +X4(theta) and the normalized control
    coefficient is alpha1 alpha2 / alpha3^2: both pinned by the requirement
    that explicit degree-preserving families be annihilated (the source
    displays differ by a sign and by one alpha2 factor; see the decisions
    ledger).
    """
    accept(
        5,
        engel_graph,
        engel_graph.sample_points(100, seed=3),
        plane,
        plane.sample_points(20, seed=4),
    )


def test_criterion_06_regularity(engel_graph, plane, rt_graph):
    """Strong-regularity flags and rank equality across system frames."""
    h = catalog.immersion("h1xh1-surface", u="s^2 + 0.5*s")
    accept(
        6,
        [
            ("engel", engel_graph, engel_graph.sample_points(20, seed=5), 4, (True, 1, 1)),
            ("plane", plane, plane.sample_points(20, seed=6), 3, (False, 1, 3)),
            ("hypersurface", rt_graph, np.array([[0.5, 0.5]]), 3, (True, 0, 0)),
        ],
        [(imm, imm.sample_points(50, seed=5), d) for imm, d in
         ((engel_graph, 4), (plane, 3), (h, 3))],
    )


def test_criterion_07_metric_transport(engel_graph):
    """Residual transport identity at 1e-7, 10 fields x 20 points."""
    rng = np.random.default_rng(8)
    pts = engel_graph.sample_points(20, seed=9)
    fields = []
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, (4, 3))
        fields.append(tuple(
            const(c0) + const(c1) * var("x") + const(c2) * var("y")
            for c0, c1, c2 in coeffs
        ))
    accept(7, engel_graph, 4, fields, pts)


def test_criterion_08_first_variation_duality(engel_graph):
    """|FV(V) - <V, H>| <= 1e-4 (1 + |<V, H>|); tangent fields below 1e-6."""
    rng = np.random.default_rng(10)
    normal_fields = []
    for _ in range(10):
        c1, c2 = rng.uniform(-1, 1, 2)
        f1, f2 = rng.integers(1, 4, 2)
        normal_fields.append(VariationField(
            "normal",
            (
                bump() * parse(f"{c1}*sin({f1}*x)*cos(y)", ["x", "y"]),
                bump() * parse(f"{c2}*cos({f2}*y + x)", ["x", "y"]),
            ),
        ))
    fr = frames_for(engel_graph)
    tangent_fields = [
        VariationField("adapted", tuple(bump() * fr.E_amb[i][col] for i in range(4)))
        for col in range(2)
    ]
    accept(8, engel_graph, 64, [], normal_fields, tangent_fields)


def test_criterion_09_family_oracle(engel_graph):
    """Central differences of the area along theta + t psi match FV (1e-4)."""
    rng = np.random.default_rng(11)
    psis = []
    for _ in range(5):
        c = rng.uniform(0.5, 1.5)
        f = int(rng.integers(1, 4))
        psis.append(bump() * parse(f"{c}*sin({f}*x + y)", ["x", "y"]))
    accept(9, engel_graph, 64, psis, [], [])


def test_criterion_10_stationarity_residual(engel_graph):
    """Weak-form identity for the third-order residual; descent step."""
    rng = np.random.default_rng(12)
    psis = []
    for _ in range(5):
        c = rng.uniform(0.5, 1.5)
        f = int(rng.integers(1, 5))
        psis.append(bump() * parse(f"{c}*sin({f}*x + 0.5*y)", ["x", "y"]))
    accept(10, engel_graph, 64, psis)


def test_criterion_11_isolation_probe():
    """Every nonzero compactly supported pair violates the plane system."""
    def vw(src):
        return parse(src, ["v", "w"])

    bump_vw = vw("(v^2-1)^2*(w^2-1)^2")
    zero = vw("0")
    cases = [(bump_vw, zero), (zero, bump_vw), (bump_vw, -1.0 * vw("w") * bump_vw)]
    rng = np.random.default_rng(13)
    while len(cases) < 20:
        fa, fb = rng.integers(1, 4, 2)
        ca, cb = rng.uniform(-1.5, 1.5, 2)
        phi = bump_vw * vw(f"{ca}*sin({fa}*v + w)")
        psi = bump_vw * vw(f"{cb}*cos({fb}*w - v)")
        cases.append((phi, psi))
    accept(11, cases, 64)


def test_criterion_12_contact_crosscheck(rt_graph):
    """Degree-3 density equals the horizontal-normal density; curvature match."""
    accept(12, [rt_graph], 15, 14, 64)
