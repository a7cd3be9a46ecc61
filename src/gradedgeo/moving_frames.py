"""Symbolic moving frames along an immersion.

Everything needed by the admissibility systems and the variational formulas
is built once per immersion as expressions in the parameters, from the
immersion's tangent map tau = (coframe o Phi) J (``Immersion.tau_exprs``):
the ambient orthonormal adapted frame restricted to the surface, the
degree-adapted (echelon) tangent basis, its orthonormalization, an adapted
orthonormal frame of the normal bundle, the degree-d density, and
covariant-derivative helpers.  Covariant derivatives of a field W along the
tangent fields t_i form one table (``nabla_table``); the divergence, the
curvature summands and the system coefficients read it through one slot
pairing (nabla_{t_i} W at slot i of the tangent wedge) and one Leibniz
pairing (the tangent wedge against nabla_W X_J).  Each degree-d object
(systems, Theta_d, H_d, control columns) is built once through one
per-instance memo, and a system's matrices are evaluated over a grid of
points, or at one point as a batch of one, in one tape pass.

Structural choices that need a fixed pattern over the domain (echelon pivot
rows, normal Gram-Schmidt pivoting, invertible control-column selection) are
made numerically at a base point, the domain midpoint, and reused across the
domain; equiregularity of the catalog immersions makes the
patterns valid away from degeneracies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprs import Expr, add_all, call, const, div, dot
from .immersion import Immersion
from .multivec import (
    CONTROL_DET_TOL,
    NORMAL_PIVOT_TOL,
    DegenerateInputError,
    all_multi_indices,
    dim_gt,
)
from .symmat import edet, einverse, emat_mul, gram_schmidt_from_gram

__all__ = ["ImmersionFrames", "SystemShape", "SymbolicSystem"]

ZERO = const(0.0)
ONE = const(1.0)


@dataclass(frozen=True)
class SystemShape:
    """Integer data of the admissibility system."""

    m: int
    n: int
    degree: int
    ell: int
    iota0: int
    rho: int
    k: int
    basis: tuple[tuple[int, ...], ...]  # multi-indices of degree > d, lex order
    flag_dims: tuple[int, ...]


@dataclass
class SymbolicSystem:
    """Admissibility system with expression-valued matrices.

    ``A`` couples the control components, ``B`` the remaining components,
    and ``C[j]`` the directional derivative along the j-th tangent frame
    field.  ``tangent_param`` holds the parameter-space components of the
    tangent frame used for those derivatives.
    """

    shape: SystemShape
    A: list[list[Expr]]
    B: list[list[Expr]]
    C: list[list[list[Expr]]]
    tangent_param: list[list[Expr]]
    control_cols: int
    other_cols: int

    def at(self, imm: Immersion, points):
        """Numeric (A, B, [C_j], tangent_param) at parameter points, from one evaluation.

        Over points (N, m) each matrix is a stack (N, rows, cols); at one
        point (m,), a batch of one, it is the (rows, cols) matrix.
        """
        ell, m = self.shape.ell, self.shape.m
        mats = [self.A, self.B, *self.C, self.tangent_param]
        shapes = [(ell, self.control_cols), *[(ell, self.other_cols)] * (m + 1), (m, m)]
        flat = [e for M in mats for row in M for e in row]
        vals = imm.values_at(flat, points)
        N = vals.shape[1]
        ends = np.cumsum([rows * cols for rows, cols in shapes])
        stacks = [
            v.reshape(*shape, N).transpose(2, 0, 1)
            for v, shape in zip(np.split(vals, ends[:-1]), shapes)
        ]
        if np.ndim(points) == 1:
            stacks = [stack[0] for stack in stacks]
        A, B, *C, tangent_param = stacks
        return A, B, C, tangent_param


def _per_degree(build):
    """Build ``build(self, d)`` once per degree d, in the instance's one ``_memo`` dict."""

    @functools.wraps(build)
    def memo(self, d: int):
        key = (build.__name__, d)
        if key not in self._memo:
            self._memo[key] = build(self, d)
        return self._memo[key]

    return memo


class ImmersionFrames:
    """Lazily built symbolic frames and derived operators along an immersion."""

    def __init__(self, imm: Immersion):
        self.imm = imm
        self.mani = imm.manifold
        self.base = imm.midpoint()
        self._memo: dict = {}

    def compose(self, expr: Expr) -> Expr:
        """Restrict an ambient expression to the surface (``Immersion.compose``)."""
        return self.imm.compose(expr)

    # -- frames --------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.mani.n

    @property
    def m(self) -> int:
        return self.imm.m

    @cached_property
    def ortho_mat(self):
        """Ambient orthonormal adapted frame along M (coordinate comps, columns)."""
        return [[self.imm.compose(e) for e in row] for row in self.mani.ortho_matrix_exprs]

    @cached_property
    def mu_param(self):
        """Induced metric on the parameter basis: tau^T tau."""
        n, m = self.n, self.m
        tau = self.imm.tau_exprs
        out = [[ZERO for _ in range(m)] for _ in range(m)]
        for a in range(m):
            for b in range(m):
                out[a][b] = dot([tau[i][a] for i in range(n)], [tau[i][b] for i in range(n)])
        return out

    @cached_property
    def sqrt_detmu(self) -> Expr:
        return call("sqrt", edet(self.mu_param))

    @cached_property
    def flag_dims(self) -> tuple[int, ...]:
        return self.imm.tangent_flag_dims(self.base)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return self.imm.adapted_tangent_pivots(self.base)

    @cached_property
    def adapted_param(self):
        """Parameter components of the echelon tangent basis (columns)."""
        P = [[self.imm.tau_exprs[p - 1][a] for a in range(self.m)] for p in self.pivots]
        return einverse(P)

    @cached_property
    def adapted_amb(self):
        """Orthonormal-frame components of the echelon tangent basis (n x m)."""
        return emat_mul(self.imm.tau_exprs, self.adapted_param)

    @cached_property
    def adapted_coord(self):
        return emat_mul(self.ortho_mat, self.adapted_amb)

    @cached_property
    def _tangent_gs(self):
        gram = [
            [
                add_all(
                    [self.adapted_amb[i][a] * self.adapted_amb[i][b] for i in range(self.n)]
                )
                for b in range(self.m)
            ]
            for a in range(self.m)
        ]
        return gram_schmidt_from_gram(gram)

    @cached_property
    def E_amb(self):
        """Orthonormal tangent frame (ortho comps, n x m), Gram-Schmidt of the echelon basis."""
        return emat_mul(self.adapted_amb, self._tangent_gs)

    @cached_property
    def E_param(self):
        return emat_mul(self.adapted_param, self._tangent_gs)

    @cached_property
    def E_cols(self):
        """The orthonormal tangent frame fields as columns (ortho comps), m x n."""
        return [[self.E_amb[i][a] for i in range(self.n)] for a in range(self.m)]

    # -- shape integers ------------------------------------------------------

    @cached_property
    def iota0(self) -> int:
        for j, dim in enumerate(self.flag_dims, start=1):
            if dim > 0:
                return j
        raise DegenerateInputError("tangent flag is empty")

    @property
    def rho(self) -> int:
        return self.mani.growth.dims[self.iota0 - 1]

    @property
    def k(self) -> int:
        return self.rho - self.flag_dims[self.iota0 - 1]

    @_per_degree
    def shape_for(self, d: int) -> SystemShape:
        degrees = self.imm.multi_index_degrees
        basis = tuple(
            J for J, deg in zip(all_multi_indices(self.n, self.m), degrees) if deg > d
        )
        ell = len(basis)
        assert ell == dim_gt(self.mani.growth, self.m, d)
        return SystemShape(
            self.m, self.n, d, ell, self.iota0, self.rho, self.k, basis, self.flag_dims
        )

    # -- normal frame ---------------------------------------------------------

    @cached_property
    def N_cols(self):
        """Adapted orthonormal normal frame as columns (ortho comps), controls first.

        Gram-Schmidt of the ambient frame fields projected onto the normal
        space; within each group, candidates are pivoted by projection
        residual at the base point, and each field keeps the orientation of
        its source (positive inner product with the source frame field).
        """
        n, m = self.n, self.m
        env = self.imm.param_env(self.base)
        accepted: list[list[Expr]] = []

        def residual_for(q: int) -> list[Expr]:
            w: list[Expr] = [ONE if i == q else ZERO for i in range(n)]
            for col in self.E_cols + accepted:
                coeff = dot(w, col)
                w = [w[i] - coeff * col[i] for i in range(n)]
            return w

        def run_group(candidates, want: int):
            remaining = list(candidates)
            for _ in range(want):
                best_q, best_norm, best_w = None, 0.0, None
                for q in remaining:
                    w = residual_for(q)
                    norm2 = float(dot(w, w).eval(env))
                    if norm2 > best_norm:
                        best_q, best_norm, best_w = q, norm2, w
                if best_q is None or best_norm <= NORMAL_PIVOT_TOL:
                    raise DegenerateInputError(
                        "normal frame construction degenerate at the base point"
                    )
                remaining.remove(best_q)
                nrm = call("sqrt", dot(best_w, best_w))
                accepted.append([div(c, nrm) for c in best_w])

        run_group(range(self.rho), self.k)
        run_group(range(self.rho, n), n - m - self.k)
        return accepted

    @cached_property
    def normal_amb(self):
        """Ortho comps of the normal frame, n x (n-m), control block first."""
        return [[col[i] for col in self.N_cols] for i in range(self.n)]

    # -- covariant machinery ----------------------------------------------------

    @cached_property
    def christoffel(self):
        """Gamma^c_ab composed with the immersion (expressions in the parameters)."""
        gam = self.mani.christoffel_exprs
        n = self.n
        return [
            [[self.imm.compose(gam[c][a][b]) for b in range(n)] for a in range(n)]
            for c in range(n)
        ]

    @cached_property
    def frame_coord_derivs(self):
        """dX[a][c][j] = (d_a of ortho frame comp c of field j), composed."""
        raw = self.mani.ortho_frame_derivative_exprs
        n = self.n
        return [
            [[self.imm.compose(raw[a][c][j]) for j in range(n)] for c in range(n)]
            for a in range(n)
        ]

    def tangent_derivative(self, param_col, f: Expr) -> Expr:
        """Directional derivative of a parameter function along a tangent field."""
        return dot(param_col, [f.diff(name) for name in self.imm.params])

    def _christoffel_sum(self, c: int, v_coord, w_coord) -> Expr:
        """sum_ab Gamma^c_ab v^a w^b as sum_a v^a (sum_b Gamma^c_ab w^b).

        The rows of Gamma^c that are the structural 0 throughout are left
        out.  Factored by rows, the sum keeps v^a as one factor of each row
        instead of one product per symbol, which makes the frames' tapes
        smaller.
        """
        gam = self.christoffel[c]
        rows = [a for a, row in enumerate(gam) if any(g is not ZERO for g in row)]
        return dot([v_coord[a] for a in rows], [dot(gam[a], w_coord) for a in rows])

    def nabla_field_along(self, param_col, field_coord) -> list[Expr]:
        """nabla_v W for W given along M (coordinate comps), v tangent (param comps)."""
        v_coord = [
            dot(self.imm.jacobian_exprs[c], param_col)
            for c in range(self.n)
        ]
        return [
            self.tangent_derivative(param_col, field_coord[c])
            + self._christoffel_sum(c, v_coord, field_coord)
            for c in range(self.n)
        ]

    def nabla_ambient_field(self, v_coord, field_index: int) -> list[Expr]:
        """nabla_v X_field for an ambient orthonormal frame field, v in coord comps."""
        n = self.n
        field = [self.ortho_mat[b][field_index] for b in range(n)]
        return [
            dot(v_coord, [self.frame_coord_derivs[a][c][field_index] for a in range(n)])
            + self._christoffel_sum(c, v_coord, field)
            for c in range(n)
        ]

    def to_ortho_comps(self, coord_col) -> list[Expr]:
        return [dot(row, coord_col) for row in self.imm.ortho_coframe_exprs]

    def nabla_table(self, t_param, field_coord) -> list[list[Expr]]:
        """nabla_{t_i} W (ortho comps) for each tangent field t_i, a column of ``t_param``.

        ``t_param`` holds parameter comps (m rows); W is given along M in
        coordinate comps.
        """
        return [
            self.to_ortho_comps(self.nabla_field_along([row[i] for row in t_param], field_coord))
            for i in range(len(t_param[0]))
        ]

    def _slot_det(self, cols, J, slot=None, v=None) -> Expr:
        """<col_1 ^ .. (v at ``slot``) .. ^ col_m, X_J>, columns in ortho comps.

        With ``slot`` None this is the plain pairing of the columns' wedge.
        """
        return edet(
            [[(v if a == slot else cols[a])[j - 1] for j in J] for a in range(self.m)]
        )

    def _slot_pairing(self, cols, table, weights, total=ZERO) -> Expr:
        """``total`` + sum over slots i, then J, of w_J <cols with table[i] at slot i, X_J>.

        ``weights`` maps multi-indices J to w_J; ``table`` is a ``nabla_table``.
        """
        for i, dv in enumerate(table):
            for J, w in weights.items():
                total = total + w * self._slot_det(cols, J, i, dv)
        return total

    def _leibniz_pairing(self, cols, v_coord, weights) -> Expr:
        """sum over J of w_J <col_1 ^..^ col_m, nabla_v X_J>, v in coord comps.

        nabla_v X_J expands by the Leibniz rule over the slots of X_J.
        """
        total = ZERO
        for J, w in weights.items():
            inner = ZERO
            for slot in range(self.m):
                dcol = self.to_ortho_comps(self.nabla_ambient_field(v_coord, J[slot] - 1))
                inner = inner + edet(
                    [
                        [dot(col, dcol) if b == slot else col[j - 1] for b, j in enumerate(J)]
                        for col in cols
                    ]
                )
            total = total + w * inner
        return total

    # -- degree-d data ------------------------------------------------------------

    @_per_degree
    def tangent_coeffs(self, d: int) -> dict:
        """{J: <E_1 ^...^ E_m, X_J>} over indices of degree exactly d."""
        degrees = self.imm.multi_index_degrees
        return {
            J: self._slot_det(self.E_cols, J)
            for J, deg in zip(all_multi_indices(self.n, self.m), degrees)
            if deg == d
        }

    @_per_degree
    def theta(self, d: int) -> Expr:
        coeffs = self.tangent_coeffs(d)
        return call("sqrt", add_all([c * c for c in coeffs.values()]))

    def div_tangent(self, param_comps) -> Expr:
        """Intrinsic divergence of a tangent field given in parameter comps."""
        w = self.sqrt_detmu
        total = ZERO
        for a, name in enumerate(self.imm.params):
            total = total + (w * param_comps[a]).diff(name)
        return div(total, w)

    # -- admissibility systems -----------------------------------------------------

    def _beta_entry(self, t_cols, table, J, field_coord) -> Expr:
        """One coefficient of the zeroth-order block, nabla form:

        beta = <e_1^..^e_m, nabla_X X_J> + sum_j <e_1^..(nabla_{e_j} X)..^e_m, X_J>
        where X is the ambient field of the column (coordinate comps given)
        and ``table`` its ``nabla_table`` along the e_j.
        """
        unit = {J: ONE}
        return self._slot_pairing(
            t_cols, table, unit, self._leibniz_pairing(t_cols, field_coord, unit)
        )

    def _system(self, d: int, t_amb, t_param, field_cols, controls: int) -> SymbolicSystem:
        """(A, B, C_j) for fields on ``field_cols`` (ortho comps), controls first.

        Derivatives run along the tangent basis ``t_amb`` (ortho comps, n x m)
        with parameter comps ``t_param``.
        """
        shape = self.shape_for(d)
        m = self.m
        t_cols = [[t_amb[i][a] for i in range(self.n)] for a in range(m)]
        C = [
            [[self._slot_det(t_cols, J, j, col) for col in field_cols[controls:]]
             for J in shape.basis]
            for j in range(m)
        ]
        field_coords = [self.coord_comps(col) for col in field_cols]
        tables = [self.nabla_table(t_param, fc) for fc in field_coords]
        A, B = [], []
        for J in shape.basis:
            row = [
                self._beta_entry(t_cols, table, J, fc)
                for fc, table in zip(field_coords, tables)
            ]
            A.append(row[:controls])
            B.append(row[controls:])
        return SymbolicSystem(shape, A, B, C, t_param, controls, len(field_cols) - controls)

    @_per_degree
    def adapted_system(self, d: int) -> SymbolicSystem:
        """System in the ambient orthonormal adapted frame, echelon tangent basis."""
        return self.adapted_system_with_tangent(d, self.adapted_amb, self.adapted_param)

    def adapted_system_with_tangent(self, d: int, t_amb, t_param) -> SymbolicSystem:
        """Adapted-frame system assembled on a caller-supplied tangent basis."""
        n = self.n
        units = [[ONE if i == h else ZERO for i in range(n)] for h in range(n)]
        return self._system(d, t_amb, t_param, units, self.rho)

    @_per_degree
    def normal_system(self, d: int) -> SymbolicSystem:
        """System on the adapted normal frame, orthonormal tangent derivatives."""
        return self._system(d, self.E_amb, self.E_param, self.N_cols, self.k)

    @_per_degree
    def control_columns(self, d: int) -> tuple[int, ...] | None:
        """Control columns making the square block of A_perp invertible at the base point.

        None when no block is invertible there (not strongly regular).
        """
        sym = self.normal_system(d)
        ell, k = sym.shape.ell, sym.shape.k
        if ell == 0:
            return ()
        A = sym.at(self.imm, self.base)[0]
        best, best_det = None, 0.0
        for cols in itertools.combinations(range(k), ell):
            det = abs(float(np.linalg.det(A[:, cols])))
            if det > best_det:
                best, best_det = cols, det
        if best is None or best_det <= CONTROL_DET_TOL:
            return None
        return tuple(best)

    # -- variational quantities -----------------------------------------------------

    def ambient_field_from_variation(self, field) -> list[Expr]:
        """Ortho comps (n expressions) of a variation field."""
        comps = list(field.components)
        if field.frame == "adapted":
            if len(comps) != self.n:
                raise ValueError("adapted-frame field needs n components")
            return comps
        if field.frame == "normal":
            if len(comps) == self.n - self.m:
                tangent = [ZERO] * self.m
                normal = comps
            elif len(comps) == self.n:
                tangent = comps[: self.m]
                normal = comps[self.m :]
            else:
                raise ValueError("normal-frame field needs n-m or n components")
            out = []
            for i in range(self.n):
                acc = ZERO
                for a in range(self.m):
                    acc = acc + tangent[a] * self.E_amb[i][a]
                for j in range(self.n - self.m):
                    acc = acc + normal[j] * self.normal_amb[i][j]
                out.append(acc)
            return out
        raise ValueError(f"unknown variation frame {field.frame!r}")

    def coord_comps(self, ortho_comps) -> list[Expr]:
        return [dot(self.ortho_mat[c], ortho_comps) for c in range(self.n)]

    def first_variation_roots(self, field, d: int) -> tuple[Expr, ...]:
        """(integrand, Theta_d, ambient field components) of the first variation.

        The integrand is (div_d V + f(V)) / Theta_d * sqrt(det mu).  The roots
        of the last (field, d) asked for are kept in ``_memo``, one slot: a
        caller asks for one field at a time, often again.
        """
        last = self._memo.get("first_variation_roots")
        if last is not None and last[0] == (field, d):
            return last[1]
        theta = self.theta(d)
        integrand = (
            (self.div_degree_d_expr(field, d) + self.f_linear_expr(field, d))
            / theta
            * self.sqrt_detmu
        )
        roots = (integrand, theta, *self.ambient_field_from_variation(field))
        self._memo["first_variation_roots"] = ((field, d), roots)
        return roots

    def div_degree_d_expr(self, field, d: int) -> Expr:
        """Degree-d divergence of a variation field (expression in parameters)."""
        coord = self.coord_comps(self.ambient_field_from_variation(field))
        table = self.nabla_table(self.E_param, coord)
        return self._slot_pairing(self.E_cols, table, self.tangent_coeffs(d))

    def f_linear_expr(self, field, d: int) -> Expr:
        """f(V) = sum_J <E-wedge, nabla_V X_J> <E-wedge, X_J>."""
        coord = self.coord_comps(self.ambient_field_from_variation(field))
        return self._leibniz_pairing(self.E_cols, coord, self.tangent_coeffs(d))

    @_per_degree
    def _xi(self, d: int):
        """xi[i][j] = <E_1^..(N_j at slot i)..^E_m, unit degree-d part>, m x (n-m)."""
        theta = self.theta(d)
        coeffs = self.tangent_coeffs(d)
        out = []
        for i in range(self.m):
            row = []
            for ncol in self.N_cols:
                acc = ZERO
                for J, cJ in coeffs.items():
                    acc = acc + cJ * self._slot_det(self.E_cols, J, i, ncol)
                row.append(div(acc, theta))
            out.append(row)
        return out

    @_per_degree
    def mean_curvature_exprs(self, d: int):
        """Per normal field: (H1, H2, H3) expressions of the three summand groups."""
        m = self.m
        theta = self.theta(d)
        weights = {J: div(cJ, theta) for J, cJ in self.tangent_coeffs(d).items()}
        xi = self._xi(d)
        out = []
        for jn, ncol in enumerate(self.N_cols):
            ncoord = self.coord_comps(ncol)
            h1 = ZERO
            for i in range(m):
                param_comps = [xi[i][jn] * self.E_param[a][i] for a in range(m)]
                h1 = h1 - self.div_tangent(param_comps)
            h2 = self._slot_pairing(self.E_cols, self.nabla_table(self.E_param, ncoord), weights)
            h3 = self._leibniz_pairing(self.E_cols, ncoord, weights)
            out.append((h1, h2, h3))
        return out

    def graph_extend(self, expr: Expr) -> Expr:
        """Read a parameter expression as an ambient one through the base coordinates."""
        if self.imm.base_coords is None:
            raise DegenerateInputError(
                "immersion has no base-coordinate chart; cannot extend fields"
            )
        from .exprs import var

        mapping = {
            name: var(self.mani.coords[ci])
            for name, ci in zip(self.imm.params, self.imm.base_coords)
        }
        return expr.substitute(mapping)

    def graph_extend_field(self, ortho_comps) -> list[Expr]:
        """Extend a field off M with constant orthonormal-frame components.

        Extending the frame components (rather than the coordinate ones)
        keeps orthonormal frames orthonormal off the surface, which the
        bracket-form curvature identities assume.  Returns ambient
        coordinate components.
        """
        ext = [self.graph_extend(c) for c in ortho_comps]
        F = self.mani.ortho_matrix_exprs
        n = self.n
        return [add_all([F[c][a] * ext[a] for a in range(n)]) for c in range(n)]
