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

from .exprs import Expr, const, parse
from .immersion import Immersion
from .manifold import numeric_rank
from .moving_frames import ImmersionFrames, SymbolicSystem, SystemShape
from .multivec import TRANSPORT_TOL, DegenerateInputError, compound
from .symmat import emat_mul, eval_matrix, upper_triangular_inverse

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
        comps = tuple(parse(src, params) for src in data["components"])
        return cls(data["frame"], comps)


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
    """Shape integers of the system, with an equiregularity scan over the grid."""
    frames = frames_for(imm)
    dims0 = frames.flag_dims
    if grid_points is not None:
        for p in np.asarray(grid_points, dtype=float):
            dims = imm.tangent_flag_dims(p)
            if dims != dims0:
                raise DegenerateInputError(
                    f"tangent flag changes over the grid: {dims0} vs {dims} "
                    f"at {tuple(map(float, p))}"
                )
    return frames.shape_for(d)


def _residual_from_system(frames, sym: SymbolicSystem, comps) -> list[Expr]:
    G = comps[: sym.control_cols]
    F = comps[sym.control_cols :]
    out = []
    for i in range(sym.shape.ell):
        acc = const(0.0)
        for j in range(frames.m):
            param_col = [sym.tangent_param[a][j] for a in range(frames.m)]
            for r, f in enumerate(F):
                acc = acc + sym.C[j][i][r] * frames.tangent_derivative(param_col, f)
        for r, f in enumerate(F):
            acc = acc + sym.B[i][r] * f
        for h, g in enumerate(G):
            acc = acc + sym.A[i][h] * g
        out.append(acc)
    return out


def residual_exprs(imm: Immersion, field: VariationField, d: int) -> list[Expr]:
    """Symbolic admissibility residual (length ell) for a variation field."""
    frames = frames_for(imm)
    comps = list(field.components)
    if field.frame == "adapted":
        sym = frames.adapted_system(d)
        if len(comps) != frames.n:
            raise ValueError("adapted-frame field needs n components")
    else:
        sym = frames.normal_system(d)
        if len(comps) == frames.n:
            comps = comps[frames.m :]  # tangent part is always admissible
        if len(comps) != frames.n - frames.m:
            raise ValueError("normal-frame field needs n or n-m components")
    return _residual_from_system(frames, sym, comps)


def residual(imm: Immersion, field: VariationField, points, d: int) -> np.ndarray:
    """Admissibility residual at parameter points (N, m), (N, ell); at one point (m,), (ell,)."""
    values = imm.values_at(residual_exprs(imm, field, d), points)
    return values[:, 0] if np.ndim(points) == 1 else np.ascontiguousarray(values.T)


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

    Over points (N, m), one result per point from one evaluation and one
    stacked SVD; at one point (m,), a batch of one, that point's result.
    """
    one = np.ndim(points) == 1
    sym = frames_for(imm).adapted_system(d)
    shape = sym.shape
    A = sym.at(imm, points)[0]
    if one:
        A = A[None]
    if shape.ell == 0:
        results = [RegularityResult(True, 0, 0, shape.rho, shape.k, ()) for _ in A]
    else:
        svals = np.linalg.svd(A, compute_uv=False)
        results = [
            RegularityResult(
                shape.rho >= shape.ell and rank == shape.ell,
                rank, shape.ell, shape.rho, shape.k, tuple(s),
            )
            for rank, s in zip(numeric_rank(A).tolist(), svals.tolist())
        ]
    return results[0] if one else results


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
    Dm = [[frames_g.compose(D[i][j]) for j in range(n)] for i in range(n)]
    Dinv = upper_triangular_inverse(D)
    Dinv_m = [[frames_g.compose(Dinv[i][j]) for j in range(n)] for i in range(n)]

    sym_g = frames_g.adapted_system(d)
    rho, ell = sym_g.shape.rho, sym_g.shape.ell
    # shared tangent basis, expressed in the g~ orthonormal frame
    t_amb_b = emat_mul(imm_b.ortho_coframe_exprs, frames_g.adapted_coord)
    sym_b = frames_b.adapted_system_with_tangent(d, t_amb_b, frames_g.adapted_param)

    # transported field components: v_X = D v_Y  =>  v_Y = D^{-1} v_X
    comps = list(field.components)
    comps_b = [
        sum((Dinv_m[i][j] * comps[j] for j in range(n)), const(0.0)) for i in range(n)
    ]

    res_g = _residual_from_system(frames_g, sym_g, comps)
    res_b = _residual_from_system(frames_b, sym_b, comps_b)

    # Lambda rows and columns: the degree > d indices (the system's basis)
    high = imm.multi_index_degrees > d
    EjDv = []
    for j in range(m):
        param_col = [frames_g.adapted_param[a][j] for a in range(m)]
        EjDv.append(
            [
                [frames_g.tangent_derivative(param_col, Dm[i][r]) for r in range(rho, n)]
                for i in range(rho, n)
            ]
        )

    max_res_err = 0.0
    max_a = 0.0
    max_b = 0.0
    max_c = 0.0
    max_block = 0.0
    ranks_equal = True
    for p in np.asarray(points, dtype=float):
        env = imm.param_env(p)
        if ell:
            Dp = eval_matrix(Dm, env)
            lam = compound(Dp, m)
            lam_v = lam[np.ix_(high, high)]
            lam_inv = np.linalg.inv(lam_v)
            rg = imm.values_at(res_g, p)[:, 0]
            rb = imm.values_at(res_b, p)[:, 0]
            max_res_err = max(max_res_err, float(np.max(np.abs(rb - lam_inv @ rg))))
            lam_low = lam[np.ix_(high, ~high)]
            if lam_low.size:
                max_block = max(max_block, float(np.abs(lam_low).max()))
            Ag, Bg, Cg, _ = sym_g.at(imm, p)
            Ab, Bb, Cb, _ = sym_b.at(imm_b, p)
            Dh_v = Dp[:rho, :rho]
            Dv_v = Dp[rho:, rho:]
            Dhv_v = Dp[:rho, rho:]
            max_a = max(max_a, float(np.max(np.abs(Ab - lam_inv @ Ag @ Dh_v))))
            csum = np.zeros_like(Bg)
            for j in range(m):
                Ej_v = eval_matrix(EjDv[j], env)
                csum += Cg[j] @ Ej_v
                max_c = max(
                    max_c, float(np.max(np.abs(Cb[j] - lam_inv @ Cg[j] @ Dv_v)))
                )
            target_b = lam_inv @ (Ag @ Dhv_v + Bg @ Dv_v + csum)
            max_b = max(max_b, float(np.max(np.abs(Bb - target_b))))
            if numeric_rank(Ag) != numeric_rank(Ab):
                ranks_equal = False
    return MetricChangeReport(max_res_err, max_a, max_b, max_c, ranks_equal, max_block)
