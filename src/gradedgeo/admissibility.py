"""First-order admissibility systems for degree-preserving variation fields.

A variation field along an immersion of degree d must keep the tangent
m-vector orthogonal to every simple m-vector of degree above d, which is a
first-order PDE system on the surface.  The system is assembled here in two
frames: on the ambient orthonormal adapted frame (matrices A, B, C_j, with
the degree-adapted echelon tangent basis supplying the derivative
directions) and on an adapted orthonormal frame of the normal bundle
(A_perp, B_perp, C_perp_j, derivative directions given by the orthonormal
tangent frame).  The zeroth-order coefficients use the covariant form,
which only needs data along the surface.

Strong regularity at a point is full rank of A; it is what licenses solving
for the control components and integrating admissible fields.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .exprs import Expr, dot, parse
from .immersion import Immersion
from .manifold import is_string, numeric_rank, require_keys, spec_list
from .moving_frames import ImmersionFrames, SymbolicSystem, SystemShape
from .multivec import TRANSPORT_TOL, DegenerateInputError, compound
from .symmat import emat_mul, ematvec, etranspose, upper_triangular_inverse

__all__ = [
    "VariationField",
    "RegularityResult",
    "MetricChangeReport",
    "frames_for",
    "system_shape",
    "residual",
    "residual_exprs",
    "is_strongly_regular",
    "metric_change_check",
]


@dataclass(frozen=True)
class VariationField:
    """Vector field along an immersion, components as parameter expressions.

    ``frame`` selects the interpretation of the components: "adapted" means
    one component per ambient orthonormal adapted frame field (n entries);
    "normal" means components on the orthonormal tangent/normal frame,
    either n entries (tangent first) or n - m entries (purely normal).
    """

    frame: str
    components: tuple[Expr, ...]

    def __post_init__(self):
        if self.frame not in ("adapted", "normal"):
            raise ValueError("frame must be 'adapted' or 'normal'")

    @classmethod
    def from_json(cls, data, params) -> "VariationField":
        import json

        if isinstance(data, str):
            data = json.loads(data)
        what = "variation field spec"
        require_keys(data, ("frame", "components"), what)
        sources = spec_list(data, "components", is_string, "strings", what)
        return cls(data["frame"], tuple(parse(src, params) for src in sources))


# The immersion owns its frames (``Immersion._frames``), so an entry lives
# exactly as long as its immersion and an id cannot be reused while it exists.
_FRAMES_CACHE: "weakref.WeakValueDictionary[int, ImmersionFrames]" = (
    weakref.WeakValueDictionary()
)


def frames_for(imm: Immersion) -> ImmersionFrames:
    """Shared symbolic frame bundle per immersion instance."""
    frames = _FRAMES_CACHE.get(id(imm))
    if frames is None:
        frames = imm._frames = ImmersionFrames(imm)
        _FRAMES_CACHE[id(imm)] = frames
    return frames


def system_shape(imm: Immersion, grid_points, d: int) -> SystemShape:
    """Shape integers of the system, with an equiregularity scan over the grid.

    A degenerate tangent anywhere on the grid is refused (``Immersion.flag_dims``)
    before any point's tangent flag is compared with the midpoint's.
    """
    frames = frames_for(imm)
    dims0 = frames.flag_dims
    if grid_points is not None:
        pts = np.asarray(grid_points, dtype=float)
        for p, dims in zip(pts, imm.flag_dims(pts)):
            if dims != dims0:
                raise DegenerateInputError(
                    f"tangent flag changes over the grid: {dims0} vs {dims} "
                    f"at {tuple(map(float, p))}"
                )
    return frames.shape_for(d)


def _residual_from_system(frames, sym: SymbolicSystem, comps) -> list[Expr]:
    """Row i: sum_j C_j[i] . E_j(F) + B[i] . F + A[i] . G, with G the control components."""
    G = comps[: sym.control_cols]
    F = comps[sym.control_cols :]
    EF = [frames.tangent_derivative(col, f) for col in etranspose(sym.tangent_param) for f in F]
    return [
        dot([*(c for Cj in sym.C for c in Cj[i]), *sym.B[i], *sym.A[i]], [*EF, *F, *G])
        for i in range(sym.shape.ell)
    ]


def residual_exprs(imm: Immersion, field: VariationField, d: int) -> list[Expr]:
    """Symbolic admissibility residual (length ell) for a variation field."""
    frames = frames_for(imm)
    comps = frames.field_parts(field)
    if field.frame == "adapted":
        return _residual_from_system(frames, frames.adapted_system(d), comps)
    # the tangent part is always admissible
    return _residual_from_system(frames, frames.normal_system(d), comps[frames.m :])


def residual(imm: Immersion, field: VariationField, points, d: int) -> np.ndarray:
    """Admissibility residual at parameter points (N, m): (N, ell)."""
    return np.ascontiguousarray(imm.values_at(residual_exprs(imm, field, d), points).T)


@dataclass
class RegularityResult:
    strongly_regular: bool
    rank: int
    ell: int
    rho: int
    k: int
    singular_values: tuple[float, ...]


def is_strongly_regular(imm: Immersion, points, d: int):
    """Rank test of A: strong regularity needs rank(A) = ell <= rho.

    One result per point of ``points`` (N, m), from one evaluation and one
    stacked SVD.
    """
    sym = frames_for(imm).adapted_system(d)
    shape = sym.shape
    A = sym.at(imm, points)[0]
    if shape.ell == 0:
        return [RegularityResult(True, 0, 0, shape.rho, shape.k, ()) for _ in A]
    svals = np.linalg.svd(A, compute_uv=False)
    return [
        RegularityResult(
            shape.rho >= shape.ell and rank == shape.ell,
            rank, shape.ell, shape.rho, shape.k, tuple(s),
        )
        for rank, s in zip(numeric_rank(A).tolist(), svals.tolist())
    ]


@dataclass
class MetricChangeReport:
    residual_transport_error: float
    a_identity_error: float
    b_identity_error: float
    c_identity_error: float
    rank_equal: bool
    block_triangular_error: float

    @property
    def ok(self) -> bool:
        return (
            self.residual_transport_error <= TRANSPORT_TOL
            and self.a_identity_error <= TRANSPORT_TOL
            and self.b_identity_error <= TRANSPORT_TOL
            and self.c_identity_error <= TRANSPORT_TOL
            and self.rank_equal
        )


def metric_change_check(imm: Immersion, points, metric_b, field: VariationField, d: int) -> MetricChangeReport:
    """Transport identities between the systems of two metrics.

    Builds the frame change D (g-orthonormal to g~-orthonormal adapted
    frames), the induced m-vector change block Lambda_v on the degree > d
    indices, and verifies at the given points that the g~ residual of the
    transported field equals Lambda_v^{-1} times the g residual, along with
    the matrix identities A~ = Lambda_v^{-1} A D_h, C~_j = Lambda_v^{-1}
    C_j D_v and B~ = Lambda_v^{-1} (A D_hv + B D_v + sum_j C_j E_j(D_v)).
    Both systems use the same tangent basis (the g echelon basis).
    """
    if field.frame != "adapted":
        raise ValueError("metric change check expects an adapted-frame field")
    frames_g = frames_for(imm)
    imm_b = imm.with_metric(metric_b)
    frames_b = frames_for(imm_b)
    n, m = frames_g.n, frames_g.m

    Ug = imm.manifold.ortho_change_exprs
    Ub = imm_b.manifold.ortho_change_exprs
    D = emat_mul(upper_triangular_inverse(Ug), Ub)
    Dm = [[imm.compose(e) for e in row] for row in D]
    Dinv_m = [[imm.compose(e) for e in row] for row in upper_triangular_inverse(D)]

    sym_g = frames_g.adapted_system(d)
    rho, ell = sym_g.shape.rho, sym_g.shape.ell
    if not ell:
        return MetricChangeReport(0.0, 0.0, 0.0, 0.0, True, 0.0)
    # shared tangent basis, expressed in the g~ orthonormal frame
    t_amb_b = emat_mul(imm_b.ortho_coframe_exprs, frames_g.adapted_coord)
    sym_b = frames_b.adapted_system_with_tangent(d, t_amb_b, frames_g.adapted_param)

    # transported field components: v_X = D v_Y  =>  v_Y = D^{-1} v_X
    comps = list(field.components)
    comps_b = ematvec(Dinv_m, comps)

    res_g = _residual_from_system(frames_g, sym_g, comps)
    res_b = _residual_from_system(frames_b, sym_b, comps_b)

    # Lambda rows and columns: the degree > d indices (the system's basis)
    high = imm.multi_index_degrees > d
    EjDv = [
        [[frames_g.tangent_derivative(col, Dm[i][r]) for r in range(rho, n)]
         for i in range(rho, n)]
        for col in etranspose(frames_g.adapted_param)
    ]

    # one evaluation of D, both residuals, both systems and the E_j(D_v)
    pts = np.asarray(points, dtype=float)
    N, q = len(pts), n - rho
    flat_g, flat_b = sym_g.entries, sym_b.entries
    vals = imm.values_at(
        [*(e for row in Dm for e in row), *res_g, *res_b, *flat_g, *flat_b,
         *(e for Ej in EjDv for row in Ej for e in row)],
        pts,
    )
    dv, rg, rb, vg, vb, ej = np.split(vals, np.cumsum([n * n, ell, ell, len(flat_g), len(flat_b)]))
    Dp = dv.reshape(n, n, N).transpose(2, 0, 1)
    Ag, Bg, Cg, _ = sym_g.split(vg)
    Ab, Bb, Cb, _ = sym_b.split(vb)
    Ej_v = ej.reshape(m, q, q, N).transpose(0, 3, 1, 2)
    lam = compound(Dp, m)
    lam_inv = np.linalg.inv(lam[:, high][:, :, high])
    lam_low = lam[:, high][:, :, ~high]
    max_block = float(np.abs(lam_low).max()) if lam_low.size else 0.0
    max_res_err = float(np.abs(rb.T - (lam_inv @ rg.T[:, :, None])[:, :, 0]).max())
    Dh_v, Dv_v, Dhv_v = Dp[:, :rho, :rho], Dp[:, rho:, rho:], Dp[:, :rho, rho:]
    max_a = float(np.abs(Ab - lam_inv @ Ag @ Dh_v).max())
    max_c = max(float(np.abs(Cb[j] - lam_inv @ Cg[j] @ Dv_v).max()) for j in range(m))
    csum = np.zeros_like(Bg)
    for j in range(m):
        csum += Cg[j] @ Ej_v[j]
    max_b = float(np.abs(Bb - lam_inv @ (Ag @ Dhv_v + Bg @ Dv_v + csum)).max())
    ranks_equal = bool(np.array_equal(numeric_rank(Ag), numeric_rank(Ab)))
    return MetricChangeReport(max_res_err, max_a, max_b, max_c, ranks_equal, max_block)
