"""Local stress equilibration on vertex patches.

Each partition-of-unity patch contributes a broken-stress correction that
(i) restores element equilibrium against the projected volume load,
(ii) cancels normal-trace jumps weighted by the patch function, and
(iii) is weakly symmetric against the continuous scalar test space.
The correction minimizes its L2 norm subject to those constraints; the
patch-wise corrections sum to a reconstruction sigma_R that is
H(div)-conforming, elementwise in equilibrium with the projected load,
matches the projected traction data, and is weakly symmetric.

All moments reuse the quadrature rules of :mod:`.spaces`; the volume and
side rules here are the same objects used by the finite-element assembly,
which makes the compatibility identities hold to rounding error even for
non-polynomial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .elasticity import LoadData
from .errors import IncompatiblePatch, StressEqError
from .mesh import INTERIOR, NEUMANN, Mesh, VertexPatch, modified_patches
from .spaces import (
    BrokenField,
    Discretization,
    StressTables,
    _exps_array,
    lagrange_values,
    legendre01,
    monomial_values,
    project_side,
    project_volume,
    rt_dim,
    segment_rule,
)

_QR_RTOL = 1e-10       # rank threshold relative to the largest row norm
_RESIDUAL_RTOL = 1e-9  # constraint residual vs. problem scale
_ROW_NORM_SPAN = 1e-8  # smallest / largest row norm the Schur path accepts


@dataclass
class RhsTables:
    """Hat-weighted residual moments shared by all patch problems.

    rdiv[e, a, r, b]  = -int_T (f + div sigma_h)_r hat_a m_b dx
      (P1 vertex hats `a`, scaled monomials m_b of degree <= k).
    rjump[s, a, r, m] for interior sides:
                      = -int_0^1 hat_a [[sigma_h . n]]_r L_m dt,
      for traction sides:
                      = +int_0^1 hat_a (g - sigma_h . n)_r L_m dt,
      with the side's endpoint hats (1-t, t) and orthonormal Legendre L_m.
    """

    rdiv: np.ndarray
    rjump: np.ndarray
    sigma_norm: float
    f_norm: float

    @property
    def scale(self) -> float:
        """Tolerance reference: data plus stress magnitude plus one."""
        return self.sigma_norm + self.f_norm + 1.0


def _scatter_traces(mesh: Mesh, tb: StressTables, tr, tminus, tplus) -> None:
    """Store element side traces tr (ne, 3, npts, 2) of the chunk ``tb``
    into per-side arrays: from the side's minus element into ``tminus``,
    from its plus element into ``tplus``."""
    is_minus = mesh.side_tri[tb.side_ids, 0] == tb.elems[:, None]
    for j in range(3):
        s = tb.side_ids[:, j]
        m = is_minus[:, j]
        tminus[s[m]] = tr[m, j]
        tplus[s[~m]] = tr[~m, j]


def side_traces(
    disc: Discretization, field: BrokenField
) -> tuple[np.ndarray, np.ndarray]:
    """Normal traces at the side quadrature points, per global side.

    Returns (trace_minus, trace_plus), each (n_sides, nqs, 2); the plus
    trace of boundary sides is zero.  Traces use the side's global normal
    from both adjacent elements, so their difference is the jump.
    """
    mesh = disc.mesh
    nqs = len(segment_rule(2 * disc.k + 5)[0])
    tminus = np.zeros((mesh.n_sides, nqs, 2))
    tplus = np.zeros((mesh.n_sides, nqs, 2))
    for tb in disc.stress_chunks():
        nb = tb.normal_basis()                            # (ne, 3, nqs, nd)
        tr = np.einsum("erd,esqd->esqr", field.dofs[tb.elems], nb)
        _scatter_traces(mesh, tb, tr, tminus, tplus)
    return tminus, tplus


def build_rhs_tables(
    disc: Discretization, sigma_h: BrokenField, load: LoadData
) -> RhsTables:
    """Integrate the residual moments behind every patch right-hand side."""
    mesh, k = disc.mesh, disc.k
    nmk = len(_exps_array(k))
    rdiv = np.empty((mesh.n_triangles, 3, 2, nmk))
    rjump = np.zeros((mesh.n_sides, 2, 2, k + 1))
    tq, tw = segment_rule(2 * k + 5)
    lam_side = np.stack([1.0 - tq, tq], axis=1)           # (nqs, 2)
    lg = legendre01(k + 1, tq)                            # (nqs, k+1)
    tminus, tplus = side_traces(disc, sigma_h)
    sig_sq = 0.0
    f_sq = 0.0

    for tb in disc.stress_chunks():
        divv = sigma_h.div_values(tb)                     # (ne, nq, 2)
        fv = load.volume_at(tb.vol_x)                     # (ne, nq, 2)
        resid = fv + divv
        hats = lagrange_values(1, tb.vol_ref)             # (nq, 3)
        mk = monomial_values(_exps_array(k), tb.vol_xi)   # (ne, nq, nmk)
        rdiv[tb.elems] = -np.einsum(
            "eq,qa,eqr,eqb->earb", tb.vol_w, hats, resid, mk
        )
        sig_sq += float(np.einsum("eq,eqrc->", tb.vol_w, sigma_h.values(tb) ** 2))
        f_sq += float(np.einsum("eq,eqr->", tb.vol_w, fv**2))

    interior = mesh.side_label == INTERIOR
    jump = tminus[interior] - tplus[interior]
    rjump[interior] = -np.einsum("q,qa,sqr,qm->sarm", tw, lam_side, jump, lg)

    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size:
        gv = load.traction_at(mesh.side_points(nsides, tq))
        rjump[nsides] = np.einsum(
            "q,qa,sqr,qm->sarm", tw, lam_side, gv - tminus[nsides], lg
        )

    tables = RhsTables(
        rdiv=rdiv,
        rjump=rjump,
        sigma_norm=float(np.sqrt(sig_sq)),
        f_norm=float(np.sqrt(f_sq)),
    )
    _check_scale(tables.scale)
    return tables


def _check_scale(scale: float) -> None:
    """Every residual gate reads ``tol * scale``; an infinite or nan scale
    would let any residual pass."""
    if not np.isfinite(scale):
        raise StressEqError(
            f"equilibration scale is not finite ({scale}): the stress or "
            "load norm overflows"
        )


@dataclass
class PatchProblem:
    """Dense constrained-least-squares data of one patch correction.

    Unknowns are the free broken-stress dofs of the patch: all element
    dofs except the normal-trace moments on sides of the patch boundary
    that are interior to the mesh (the local space has zero normal trace
    there).  Constraint rows come in three deterministic groups:
    divergence moments (element ascending, tensor row, monomial), jump
    moments (active side ascending, tensor row, Legendre moment), and
    weak-symmetry moments (scalar node ascending).
    """

    patch: VertexPatch
    k: int
    elements: np.ndarray       # (ne,) global element ids, ascending
    col_elem: np.ndarray       # (n_free,) local element index per column
    col_row: np.ndarray        # (n_free,) tensor row per column
    col_dof: np.ndarray        # (n_free,) local dof index per column
    free_col: np.ndarray       # (ne, 2, nd) column index or -1
    mass: np.ndarray           # (n_free, n_free)
    constraints: np.ndarray    # (n_rows, n_free)
    rhs: np.ndarray            # (n_rows,)
    jump_sides: np.ndarray     # (n_active,) global side ids, ascending
    sym_nodes: np.ndarray      # (n_sym,) global scalar node ids, ascending

    @property
    def n_free(self) -> int:
        return len(self.col_elem)

    @property
    def n_div(self) -> int:
        return len(self.elements) * 2 * len(_exps_array(self.k))

    @property
    def n_jump(self) -> int:
        return len(self.jump_sides) * 2 * (self.k + 1)


class Equilibrator:
    """Builds, solves, and sums the patch corrections for one solution."""

    def __init__(
        self,
        disc: Discretization,
        sigma_h: BrokenField,
        load: LoadData,
    ):
        self.disc = disc
        self.sigma_h = sigma_h
        self.tables = disc.constraints
        self.rhs_tables = build_rhs_tables(disc, sigma_h, load)
        self._neumann_only = disc.mesh.vertex_flags()[1]

    @property
    def scale(self) -> float:
        return self.rhs_tables.scale

    # -- patch problem construction ------------------------------------------

    def build_patch_problem(self, patch: VertexPatch) -> PatchProblem:
        mesh, k = self.disc.mesh, self.disc.k
        assert not self._neumann_only[patch.vertex], (
            "patch centered on a traction-only vertex is not admissible"
        )
        elements = patch.elements
        ne = len(elements)
        nd = rt_dim(k)
        nmk = len(_exps_array(k))
        in_patch = np.zeros(mesh.n_triangles + 1, dtype=bool)
        in_patch[elements] = True  # index -1 (boundary partner) stays False

        sides = mesh.tri_sides[elements]           # (ne, 3)
        both_in = in_patch[mesh.side_tri[sides, 0]] & in_patch[mesh.side_tri[sides, 1]]
        labels = mesh.side_label[sides]
        alive = both_in | (labels != INTERIOR)

        # free dofs: everything except side moments on dead sides
        free = np.ones((ne, 2, nd), dtype=bool)
        for j in range(3):
            dead = ~alive[:, j]
            free[dead, :, j * (k + 1) : (j + 1) * (k + 1)] = False
        free_col = np.full((ne, 2, nd), -1, dtype=np.int64)
        order = np.flatnonzero(free.ravel())
        free_col.ravel()[order] = np.arange(len(order))
        col_elem, col_row, col_dof = np.unravel_index(order, (ne, 2, nd))
        n_free = len(order)

        # active jump sides: interior to the patch, or on the traction boundary
        on_active = both_in | (labels == NEUMANN)
        active = np.unique(sides[on_active])
        n_jump = len(active) * 2 * (k + 1)
        n_div = ne * 2 * nmk
        nodes = np.unique(self.disc.pressure.element_dofs[elements])
        n_rows = n_div + n_jump + len(nodes)

        # padded matrices: column n_free collects dead-dof entries, row trash
        B = np.zeros((n_rows, n_free + 1))
        cols = np.where(free_col >= 0, free_col, n_free)

        # divergence rows: (element, tensor row, monomial)
        divm = self.tables.divm[elements]          # (ne, nmk, nd)
        rows_div = np.arange(n_div).reshape(ne, 2, nmk)
        B[rows_div[:, :, :, None], cols[:, :, None, :]] = np.broadcast_to(
            divm[:, None, :, :], (ne, 2, nmk, nd)
        )

        # jump rows: per active side, tensor rows then Legendre moments; one
        # entry per (element, local side) on an active side, +1 from the
        # side's minus element and -1 from its plus element
        e_loc, j_loc = np.nonzero(on_active)
        s = sides[e_loc, j_loc]
        si = np.searchsorted(active, s)[:, None, None]
        r = np.arange(2)[:, None]
        m = np.arange(k + 1)
        rows_jump = n_div + (si * 2 + r) * (k + 1) + m           # (n, 2, k+1)
        cols_jump = cols[e_loc[:, None, None], r, j_loc[:, None, None] * (k + 1) + m]
        sign = np.where(mesh.side_tri[s, 0] == elements[e_loc], 1.0, -1.0)
        B[rows_jump, cols_jump] = sign[:, None, None]

        # weak-symmetry rows, one per scalar node of the patch; dead dofs
        # land in the padding column
        ed_p = self.disc.pressure.element_dofs[elements]        # (ne, nlk)
        rows_sym = n_div + n_jump + np.searchsorted(nodes, ed_p)
        B[rows_sym[:, :, None], cols[:, None, 0, :]] = self.tables.symy[elements]
        B[rows_sym[:, :, None], cols[:, None, 1, :]] = -self.tables.symx[elements]
        B = B[:, :n_free]

        # right-hand side: jump moments weighted by the hats of the patch group
        w = np.isin(mesh.sides[active], [patch.vertex, *patch.absorbed])
        rhs = np.zeros(n_rows)
        rdiv = self.rhs_tables.rdiv[elements]                    # (ne, 3, 2, nmk)
        rhs[:n_div] = np.einsum("ea,earb->erb", patch.weights, rdiv).ravel()
        rhs[n_div : n_div + n_jump] = np.einsum(
            "sa,sarm->srm", w, self.rhs_tables.rjump[active]
        ).ravel()

        # objective: plain L2 norm, block-diagonal per element and tensor row
        gram = self.tables.gram[elements]
        mass = np.zeros((n_free + 1, n_free + 1))
        for r in range(2):
            mass[cols[:, r, :, None], cols[:, r, None, :]] = gram
        mass = mass[:n_free, :n_free]

        return PatchProblem(
            patch=patch,
            k=k,
            elements=elements,
            col_elem=col_elem,
            col_row=col_row,
            col_dof=col_dof,
            free_col=free_col,
            mass=mass,
            constraints=B,
            rhs=rhs,
            jump_sides=active,
            sym_nodes=nodes,
        )

    # -- patch solve -----------------------------------------------------------

    def solve_patch(self, problem: PatchProblem) -> np.ndarray:
        """Minimize the patch L2 norm subject to the constraint rows.

        The fast path (:meth:`_solve_patch_schur`) eliminates the unknowns
        through the block-diagonal mass matrix and factors the Jacobi-scaled
        Schur complement B M^-1 B^T with a pivoted Cholesky, whose rank
        drops the redundant rows (exactly three on patches away from the
        displacement boundary).  It must pass the same KKT and constraint
        residual gates as the QR+LU path (:meth:`_solve_patch_qr_lu`),
        which takes over when it fails them, when the factorization fails,
        or when the row norms of B span more than 8 decades (there the
        QR rank rule drops rows of tiny norm, and the fallback keeps that
        behaviour).  A failure of the fallback indicates incompatible data
        and raises IncompatiblePatch.
        """
        if problem.constraints.shape[0] == 0 or problem.n_free == 0:
            return np.zeros(problem.n_free)
        fast = self._solve_patch_schur(problem)
        if fast is not None:
            return fast[0]
        return self._solve_patch_qr_lu(problem)

    def _solve_patch_schur(
        self, problem: PatchProblem
    ) -> tuple[np.ndarray, int] | None:
        """Schur-complement solve; returns (x, rank), or None when the
        caller must fall back to the QR+LU path."""
        B, rhs, M = problem.constraints, problem.rhs, problem.mass
        row_norms = np.linalg.norm(B, axis=1)
        if row_norms.min() < _ROW_NORM_SPAN * row_norms.max():
            return None
        # G = M^-1 B^T: one batched solve per size of the diagonal blocks of M
        # (one per element and tensor row, contiguous in columns), each on
        # the few rows of B that the block's columns touch
        sizes = np.count_nonzero(problem.free_col >= 0, axis=2).ravel()
        starts = np.cumsum(sizes) - sizes
        G = np.zeros(B.shape[::-1])
        try:
            for size in np.unique(sizes):
                idx = starts[sizes == size, None] + np.arange(size)
                bt = B.T[idx]                                  # (nb, size, n_rows)
                hit = np.any(bt != 0.0, axis=1)
                n_hit = hit.sum(axis=1)
                rows = np.argsort(~hit, axis=1, kind="stable")[:, : n_hit.max()]
                # pad short row lists by repeating a touched row
                pad = np.arange(rows.shape[1]) >= n_hit[:, None]
                rows = np.where(pad, rows[:, :1], rows)
                G[idx[:, :, None], rows[:, None, :]] = np.linalg.solve(
                    M[idx[:, :, None], idx[:, None, :]],
                    np.take_along_axis(bt, rows[:, None, :], axis=2),
                )
        except np.linalg.LinAlgError:
            return None
        d = 1.0 / np.sqrt(np.einsum("ij,ji->i", B, G))
        S = (B @ G) * d[:, None] * d
        c, piv, rank, info = scipy.linalg.lapack.dpstrf(
            S, tol=1e-12, lower=1, overwrite_a=1
        )
        if info < 0:
            return None
        # multipliers lam = D S_kk^-1 D r_k on the kept rows, zero on the
        # dropped ones, so that x = G lam; one refinement step
        keep = piv[:rank] - 1
        lam = np.zeros(len(rhs))
        resid = rhs
        for _ in range(2):
            step, _ = scipy.linalg.lapack.dpotrs(
                c[:rank, :rank], (d * resid)[keep], lower=1
            )
            lam[keep] += d[keep] * step
            x = G @ lam
            resid = rhs - B @ x
        # the gates of the QR+LU path, on its KKT system of the kept rows
        # (multipliers -lam)
        denom = max(
            float(np.linalg.norm(rhs[keep])),
            max(float(np.abs(M).max()), float(np.abs(B[keep]).max()))
            * max(float(np.abs(x).max()), float(np.abs(lam).max())),
            1e-300,
        )
        kkt_rel = float(
            np.hypot(np.linalg.norm(M @ x - B.T @ lam), np.linalg.norm(resid[keep]))
        ) / denom
        if not (
            kkt_rel <= 1e-10
            and np.max(np.abs(resid)) <= _RESIDUAL_RTOL * self.scale
        ):
            return None
        return x, rank

    def _solve_patch_qr_lu(self, problem: PatchProblem) -> np.ndarray:
        """Drop redundant rows by rank-revealing QR with a threshold relative
        to the largest row norm, then solve the reduced KKT system by dense
        LU.  Raises IncompatiblePatch when a residual gate fails."""
        B, rhs, M = problem.constraints, problem.rhs, problem.mass
        n_free = problem.n_free
        row_norms = np.linalg.norm(B, axis=1)
        tol = _QR_RTOL * float(row_norms.max())
        _, R, piv = scipy.linalg.qr(B.T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int(np.sum(diag > tol))
        keep = np.sort(piv[:rank])
        b1 = B[keep]
        kkt = np.zeros((n_free + rank, n_free + rank))
        kkt[:n_free, :n_free] = M
        kkt[:n_free, n_free:] = b1.T
        kkt[n_free:, :n_free] = b1
        full_rhs = np.concatenate([np.zeros(n_free), rhs[keep]])
        try:
            lu = scipy.linalg.lu_factor(kkt)
            sol = scipy.linalg.lu_solve(lu, full_rhs)
            sol += scipy.linalg.lu_solve(lu, full_rhs - kkt @ sol)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise IncompatiblePatch(
                f"patch at vertex {problem.patch.vertex}: KKT solve failed ({exc})"
            )
        denom = max(
            float(np.linalg.norm(full_rhs)),
            float(np.abs(kkt).max() * np.abs(sol).max()),
            1e-300,
        )
        kkt_rel = float(np.linalg.norm(kkt @ sol - full_rhs)) / denom
        if not np.isfinite(kkt_rel) or kkt_rel > 1e-10:
            raise IncompatiblePatch(
                f"patch at vertex {problem.patch.vertex}: KKT relative residual "
                f"{kkt_rel:.3e} exceeds 1e-10"
            )
        x = sol[:n_free]
        resid = float(np.max(np.abs(B @ x - rhs))) if B.size else 0.0
        if resid > _RESIDUAL_RTOL * self.scale:
            raise IncompatiblePatch(
                f"patch at vertex {problem.patch.vertex}: constraint residual "
                f"{resid:.3e} exceeds {_RESIDUAL_RTOL:g} * scale "
                f"(scale {self.scale:.3e})"
            )
        return x

    # -- reconstruction ---------------------------------------------------------

    def correction(self) -> BrokenField:
        """Sum of all patch corrections, solved in patch-vertex order."""
        disc = self.disc
        nd = rt_dim(disc.k)
        dofs = np.zeros((disc.mesh.n_triangles, 2, nd))
        for patch in modified_patches(disc.mesh):
            problem = self.build_patch_problem(patch)
            x = self.solve_patch(problem)
            np.add.at(
                dofs,
                (
                    problem.elements[problem.col_elem],
                    problem.col_row,
                    problem.col_dof,
                ),
                x,
            )
        return BrokenField(disc.mesh, disc.k, dofs)


def equilibrate(
    disc: Discretization, sigma_h: BrokenField, load: LoadData
) -> tuple[BrokenField, BrokenField, Equilibrator]:
    """Build the equilibrated reconstruction.

    Returns (sigma_delta, sigma_r, equilibrator) where sigma_r = sigma_h +
    sigma_delta is H(div)-conforming, elementwise in equilibrium with the
    projected volume load, matches the projected traction, and is weakly
    symmetric against the continuous scalar space.
    """
    eq = Equilibrator(disc, sigma_h, load)
    delta = eq.correction()
    return delta, sigma_h + delta, eq


# -- null space of patch constraints (rigid motions) ---------------------------


def null_space_vectors(problem: PatchProblem, mesh: Mesh) -> np.ndarray:
    """Left null vectors of the constraint matrix on displacement-free patches.

    Rows combine like the virtual work of a rigid motion rho: divergence
    rows by the monomial expansion of rho, jump rows by minus the side
    length times the Legendre expansion of rho on the side, symmetry rows
    by the (constant) off-diagonal entry of grad rho.  Returns (3, n_rows)
    for the two translations and one rotation about the patch vertex.
    Only valid when the patch does not touch the displacement boundary.
    """
    k = problem.k
    nmk = len(_exps_array(k))
    ne = len(problem.elements)
    n_div = problem.n_div
    n_jump = problem.n_jump
    n_rows = problem.constraints.shape[0]
    out = np.zeros((3, n_rows))
    zc = mesh.vertices[problem.patch.vertex]
    centers = mesh.vertices[mesh.triangles[problem.elements]].mean(axis=1)
    hs = mesh.h[problem.elements]

    # rho candidates: e_x, e_y, rotation (-(y-z_y), x-z_x)
    # divergence-row coefficients: expansion of rho_r over scaled monomials
    div = np.zeros((3, ne, 2, nmk))
    div[0, :, 0, 0] = 1.0
    div[1, :, 1, 0] = 1.0
    div[2, :, 0, 0] = -(centers[:, 1] - zc[1])
    div[2, :, 0, 2] = -hs                      # monomial order: 1, x, y
    div[2, :, 1, 0] = centers[:, 0] - zc[0]
    div[2, :, 1, 1] = hs
    out[:, :n_div] = div.reshape(3, -1)

    # jump-row coefficients: -|S| * Legendre expansion of rho on the side
    tq, tw = segment_rule(2 * k + 5)
    lg = legendre01(k + 1, tq)
    sides = problem.jump_sides
    xq = mesh.side_points(sides, tq)                # (ns, nqs, 2)
    rho = np.zeros((3,) + xq.shape)
    rho[0, ..., 0] = 1.0
    rho[1, ..., 1] = 1.0
    rho[2, ..., 0] = -(xq[..., 1] - zc[1])
    rho[2, ..., 1] = xq[..., 0] - zc[0]
    coeff = np.einsum("q,qm,vsqr->vsrm", tw, lg, rho)
    out[:, n_div : n_div + n_jump] = (
        -mesh.side_length[sides][:, None, None] * coeff
    ).reshape(3, -1)

    # symmetry rows: grad rho off-diagonal (0 for translations, -1 for rotation)
    out[2, n_div + n_jump :] = -1.0
    return out


def compatibility_residual(
    problem: PatchProblem, mesh: Mesh
) -> tuple[np.ndarray, float]:
    """Dot products of the rhs with the three null vectors, and the norm of
    the rhs projection onto their (orthonormalized) span."""
    nv = null_space_vectors(problem, mesh)
    dots = nv @ problem.rhs
    q, _ = np.linalg.qr(nv.T)
    proj = float(np.linalg.norm(q.T @ problem.rhs))
    return dots, proj


# -- verification -----------------------------------------------------------------


@dataclass
class EquilibrationReport:
    """Pointwise residual maxima of a reconstruction, plus the scale.

    All residuals should be at rounding level (<= 1e-10 * scale) for a
    correct reconstruction:
      div_residual: max |div sigma_R + proj f| at volume points;
      jump_residual: max interior-side |[[sigma_R . n]]| at k+2 points;
      neumann_residual: max |sigma_R . n - proj g| at k+2 points;
      symmetry_residual: max |(sigma_R_12 - sigma_R_21, hat)| over all
        continuous scalar hats.
    """

    div_residual: float
    jump_residual: float
    neumann_residual: float
    symmetry_residual: float
    scale: float

    @property
    def max_residual(self) -> float:
        return max(
            self.div_residual,
            self.jump_residual,
            self.neumann_residual,
            self.symmetry_residual,
        )


def verify_equilibration(
    disc: Discretization,
    sigma_r: BrokenField,
    load: LoadData,
    scale: float | None = None,
) -> EquilibrationReport:
    """Check the defining properties of the reconstruction pointwise.

    Trace checks evaluate at k+2 parameter points per side (one more than
    needed to pin down a degree-k polynomial).
    """
    mesh, k = disc.mesh, disc.k
    npts = k + 2
    tpts = (np.arange(npts) + 1.0) / (npts + 1.0)
    lg = legendre01(k + 1, tpts)

    div_res = 0.0
    sym_acc = np.zeros(disc.pressure.n_scalar)
    tmin = np.zeros((mesh.n_sides, npts, 2))
    tplus = np.zeros((mesh.n_sides, npts, 2))
    f_sq = 0.0
    sig_sq = 0.0
    for tb in disc.stress_chunks():
        fv = load.volume_at(tb.vol_x)
        proj_f = project_volume(tb, fv, k)                  # (ne, 2, nmk)
        mk = monomial_values(_exps_array(k), tb.vol_xi)
        pf_vals = np.einsum("erb,eqb->eqr", proj_f, mk)
        divv = sigma_r.div_values(tb)
        div_res = max(div_res, float(np.max(np.abs(divv + pf_vals), initial=0.0)))

        # traces at the check points (scaled coordinates of side points)
        xi = tb.scaled(mesh.side_points(tb.side_ids, tpts))
        vals = np.einsum(
            "eri,eisqc->esqrc",
            sigma_r.dofs[tb.elems],
            tb.basis_at(xi.reshape(len(tb.elems), -1, 2)).reshape(
                len(tb.elems), tb.n_dofs, 3, npts, 2
            ),
        )
        tr = np.einsum("esqrc,esc->esqr", vals, mesh.side_normal[tb.side_ids])
        _scatter_traces(mesh, tb, tr, tmin, tplus)

        # weak-symmetry accumulation over the continuous scalar hats
        ct = disc.constraints
        contrib = np.einsum(
            "ei,eai->ea", sigma_r.dofs[tb.elems, 0], ct.symy[tb.elems]
        ) - np.einsum("ei,eai->ea", sigma_r.dofs[tb.elems, 1], ct.symx[tb.elems])
        np.add.at(sym_acc, disc.pressure.element_dofs[tb.elems], contrib)

        f_sq += float(np.einsum("eq,eqr->", tb.vol_w, fv**2))
        sig_sq += float(np.einsum("eq,eqrc->", tb.vol_w, sigma_r.values(tb) ** 2))

    interior = mesh.side_label == INTERIOR
    jump_res = float(np.max(np.abs(tmin[interior] - tplus[interior]), initial=0.0))

    neu_res = 0.0
    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size:
        tq, _ = segment_rule(2 * k + 5)
        xq = mesh.side_points(nsides, tq)
        coeff = project_side(mesh, nsides, load.traction_at(xq), k)
        pg = np.einsum("scm,qm->sqc", coeff, lg)
        neu_res = float(np.max(np.abs(tmin[nsides] - pg), initial=0.0))

    if scale is None:
        scale = float(np.sqrt(sig_sq) + np.sqrt(f_sq) + 1.0)
    _check_scale(scale)
    return EquilibrationReport(
        div_residual=div_res,
        jump_residual=jump_res,
        neumann_residual=neu_res,
        symmetry_residual=float(np.max(np.abs(sym_acc), initial=0.0)),
        scale=scale,
    )
