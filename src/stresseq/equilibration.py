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

from dataclasses import dataclass, fields
from typing import NamedTuple

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
    rt_dim,
    segment_rule,
)

_QR_RTOL = 1e-10       # rank threshold relative to the largest row norm
_RESIDUAL_RTOL = 1e-9  # constraint residual vs. problem scale
_ROW_NORM_SPAN = 1e-8  # smallest / largest row norm the Schur path accepts
_BATCH_BYTES = 2_200_000  # stacked B per batch: 32 patches of shape (89, 96)


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
        ne, _, _, nd = nb.shape
        # einsum "erd,esqd->esqr"
        tr = nb.reshape(ne, -1, nd) @ field.dofs[tb.elems].swapaxes(1, 2)
        tr = tr.reshape(ne, 3, nqs, 2)
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
        ne, nq = tb.vol_w.shape
        whats = tb.vol_w[:, :, None] * hats               # (ne, nq, 3)
        wres = whats[..., None] * resid[:, :, None, :]    # (ne, nq, 3, 2)
        # einsum "eq,qa,eqr,eqb->earb"
        rdiv[tb.elems] = -(wres.reshape(ne, nq, 6).swapaxes(1, 2) @ mk).reshape(
            ne, 3, 2, nmk
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
    weak-symmetry moments (scalar node ascending).  The objective is the
    plain L2 norm: its matrix is block diagonal, the free part of each
    element's Gram matrix once per tensor row, and is only assembled on
    request (:attr:`mass`).
    """

    patch: VertexPatch
    k: int
    elements: np.ndarray       # (ne,) global element ids, ascending
    col_elem: np.ndarray       # (n_free,) local element index per column
    col_row: np.ndarray        # (n_free,) tensor row per column
    col_dof: np.ndarray        # (n_free,) local dof index per column
    free_col: np.ndarray       # (ne, 2, nd) column index or -1
    gram: np.ndarray           # (ne, nd, nd) Gram matrix per element
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

    @property
    def mass(self) -> np.ndarray:
        """The dense objective matrix (n_free, n_free)."""
        cols = np.where(self.free_col >= 0, self.free_col, self.n_free)
        mass = np.zeros((self.n_free + 1, self.n_free + 1))
        for r in range(2):
            mass[cols[:, r, :, None], cols[:, r, None, :]] = self.gram
        return mass[: self.n_free, : self.n_free]


@dataclass
class PatchBatch:
    """Problems of patches with one topology, stacked along a leading axis.

    Every array field is the :class:`PatchProblem` field of the same name
    with one entry per patch; the shapes after the leading axis agree.
    """

    patches: list[VertexPatch]
    k: int
    elements: np.ndarray       # (P, ne)
    col_elem: np.ndarray       # (P, n_free)
    col_row: np.ndarray        # (P, n_free)
    col_dof: np.ndarray        # (P, n_free)
    free_col: np.ndarray       # (P, ne, 2, nd)
    gram: np.ndarray           # (P, ne, nd, nd)
    constraints: np.ndarray    # (P, n_rows, n_free)
    rhs: np.ndarray            # (P, n_rows)
    jump_sides: np.ndarray     # (P, n_active)
    sym_nodes: np.ndarray      # (P, n_sym)

    def problem(self, i: int) -> PatchProblem:
        return PatchProblem(
            patch=self.patches[i],
            k=self.k,
            **{name: getattr(self, name)[i] for name in _STACKED},
        )

    def take(self, ids: np.ndarray) -> PatchBatch:
        """The batch of the patches ``ids`` (indices into this batch)."""
        return PatchBatch(
            patches=[self.patches[i] for i in ids],
            k=self.k,
            **{name: getattr(self, name)[ids] for name in _STACKED},
        )

    @classmethod
    def of(cls, problem: PatchProblem) -> PatchBatch:
        """The batch of one patch problem."""
        return cls(
            patches=[problem.patch],
            k=problem.k,
            **{name: getattr(problem, name)[None] for name in _STACKED},
        )


_STACKED = [f.name for f in fields(PatchBatch) if f.name not in ("patches", "k")]


class BatchSolution(NamedTuple):
    """Patch solutions of one batch, one entry per patch."""

    x: np.ndarray          # (P, n_free) minimizers
    rank: np.ndarray       # (P,) rank of the pivoted Cholesky (Schur path)
    fallback: np.ndarray   # (P,) solved by QR+LU instead of the Schur path
    residual: np.ndarray   # (P,) max |B x - r|


def _no_solution(n: int, n_free: int, fallback: bool) -> BatchSolution:
    return BatchSolution(
        np.zeros((n, n_free)),
        np.zeros(n, dtype=np.int64),
        np.full(n, fallback),
        np.zeros(n),
    )


def _n_distinct(values: np.ndarray) -> np.ndarray:
    """Number of distinct entries per row of a 2-d array."""
    v = np.sort(values, axis=1)
    return 1 + np.count_nonzero(v[:, 1:] != v[:, :-1], axis=1)


def _row_unique(values: np.ndarray) -> np.ndarray:
    """Distinct entries per row, ascending; every row has as many."""
    v = np.sort(values, axis=1)
    first = np.ones(v.shape, dtype=bool)
    first[:, 1:] = v[:, 1:] != v[:, :-1]
    return v[first].reshape(len(v), int(first[0].sum()))


def _mass_blocks(batch: PatchBatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonal blocks of the objective matrices of a batch.

    The free columns of one element and tensor row are contiguous and form
    one block.  Returns, per block size, the columns (nb, size) and the
    blocks (P, nb, size, size).
    """
    sizes = np.count_nonzero(batch.free_col[0] >= 0, axis=2).ravel()
    starts = np.cumsum(sizes) - sizes
    pn = np.arange(len(batch.patches))[:, None, None, None]
    out = []
    for size in np.unique(sizes):
        blk = np.flatnonzero(sizes == size)
        idx = starts[blk, None] + np.arange(size)
        dof = batch.col_dof[:, idx]                            # (P, nb, size)
        elem = (blk // 2)[None, :, None, None]
        out.append((idx, batch.gram[pn, elem, dof[..., :, None], dof[..., None, :]]))
    return out


class Equilibrator:
    """Builds, solves, and sums the patch corrections for one solution.

    :meth:`correction` leaves plain counters of its step: ``n_patches``,
    ``n_batches`` (stacked solves), ``n_fallbacks`` (patches solved by
    QR+LU), and ``worst_residual``, the largest max|B x - r| / scale of a
    patch, with ``worst_vertex``, that patch's vertex.
    """

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
        self.n_patches = self.n_batches = self.n_fallbacks = 0
        self.worst_residual = 0.0
        self.worst_vertex = -1

    @property
    def scale(self) -> float:
        return self.rhs_tables.scale

    # -- patch problem construction ------------------------------------------

    def build_patch_problem(self, patch: VertexPatch) -> PatchProblem:
        return self._build_batch([patch]).problem(0)

    def _topology(self, elements: np.ndarray):
        """Side data of stacked patches (P, ne): the element sides
        (P, ne, 3), which of them carry jump rows (interior to the patch,
        or on the traction boundary), and the free dofs (P, ne, nd): all
        but the side moments on patch-boundary sides interior to the mesh.
        """
        mesh, k = self.disc.mesh, self.disc.k
        sides = mesh.tri_sides[elements]
        # the boundary partner -1 matches no element
        partner = mesh.side_tri[sides][..., None]              # (P, ne, 3, 2, 1)
        both_in = (partner == elements[:, None, None, None, :]).any(4).all(3)
        labels = mesh.side_label[sides]
        free = np.ones(elements.shape + (rt_dim(k),), dtype=bool)
        free[..., : 3 * (k + 1)] = np.repeat(
            both_in | (labels != INTERIOR), k + 1, axis=2
        )
        return sides, both_in | (labels == NEUMANN), free

    def _batches(self, patches: list[VertexPatch]):
        """Yield (patch indices, PatchBatch) for the patches grouped by
        topology: element count, free dofs per element, jump entries, jump
        sides, scalar nodes, and whether the patch touches the displacement
        boundary.  A group is cut into chunks whose stacked constraint
        matrices take at most _BATCH_BYTES (at least one patch each)."""
        k = self.disc.k
        by_size: dict[int, list[int]] = {}
        for i, patch in enumerate(patches):
            by_size.setdefault(len(patch.elements), []).append(i)
        for ne, ids in by_size.items():
            ids = np.asarray(ids)
            elements = np.stack([patches[i].elements for i in ids])
            sides, on_active, free = self._topology(elements)
            jump = np.where(on_active, sides, -1).reshape(len(ids), -1)
            n_active = _n_distinct(jump) - (jump < 0).any(axis=1)
            n_sym = _n_distinct(
                self.disc.pressure.element_dofs[elements].reshape(len(ids), -1)
            )
            key = np.column_stack(
                [
                    free.sum(axis=2),
                    on_active.sum(axis=(1, 2)),
                    n_active,
                    n_sym,
                    [patches[i].dirichlet_touching for i in ids],
                ]
            )
            _, first, group = np.unique(
                key, axis=0, return_index=True, return_inverse=True
            )
            n_rows = ne * 2 * len(_exps_array(k)) + n_active * 2 * (k + 1) + n_sym
            n_free = 2 * free.sum(axis=(1, 2))
            for g, i in enumerate(first):
                members = ids[group.ravel() == g]
                size = max(1, _BATCH_BYTES // (8 * int(n_rows[i] * n_free[i])))
                for start in range(0, len(members), size):
                    chunk = members[start : start + size]
                    yield chunk, self._build_batch([patches[j] for j in chunk])

    def _build_batch(self, patches: list[VertexPatch]) -> PatchBatch:
        """Stack the problems of patches of one topology (see _batches)."""
        mesh, k = self.disc.mesh, self.disc.k
        assert not self._neumann_only[[p.vertex for p in patches]].any(), (
            "patch centered on a traction-only vertex is not admissible"
        )
        elements = np.stack([p.elements for p in patches])     # (P, ne)
        n, ne = elements.shape
        nd = rt_dim(k)
        nmk = len(_exps_array(k))
        pn = np.arange(n)[:, None]
        sides, on_active, free = self._topology(elements)

        # free columns in (element, tensor row, dof) order
        free = np.broadcast_to(free[:, :, None, :], (n, ne, 2, nd)).reshape(n, -1)
        n_free = int(free[0].sum())
        order = np.nonzero(free)[1].reshape(n, n_free)
        free_col = np.full((n, ne * 2 * nd), -1, dtype=np.int64)
        free_col[pn, order] = np.arange(n_free)
        free_col = free_col.reshape(n, ne, 2, nd)
        col_elem, col_row, col_dof = np.unravel_index(order, (ne, 2, nd))

        # jump sides and scalar nodes of each patch, ascending
        ent = np.nonzero(on_active.reshape(n, -1))[1].reshape(n, int(on_active[0].sum()))
        e_loc, j_loc = np.divmod(ent, 3)                          # (P, n_ent)
        s = sides.reshape(n, -1)[pn, ent]
        active = _row_unique(s)
        ed_p = self.disc.pressure.element_dofs[elements]        # (P, ne, nlk)
        nodes = _row_unique(ed_p.reshape(n, -1))
        n_jump = active.shape[1] * 2 * (k + 1)
        n_div = ne * 2 * nmk
        n_rows = n_div + n_jump + nodes.shape[1]

        # padded matrices: column n_free collects dead-dof entries
        B = np.zeros((n, n_rows, n_free + 1))
        cols = np.where(free_col >= 0, free_col, n_free)
        p3 = pn[:, :, None, None]

        # divergence rows: (element, tensor row, monomial)
        divm = self.tables.divm[elements]                       # (P, ne, nmk, nd)
        rows_div = np.arange(n_div).reshape(ne, 2, nmk)
        B[p3[..., None], rows_div[..., None], cols[:, :, :, None, :]] = divm[
            :, :, None
        ]

        # jump rows: per active side, tensor rows then Legendre moments; one
        # entry per (element, local side) on an active side, +1 from the
        # side's minus element and -1 from its plus element
        si = np.count_nonzero(active[:, None, :] < s[:, :, None], axis=2)
        r = np.arange(2)[:, None]
        m = np.arange(k + 1)
        rows_jump = n_div + (si[..., None, None] * 2 + r) * (k + 1) + m
        cols_jump = cols[p3, e_loc[..., None, None], r, j_loc[..., None, None] * (k + 1) + m]
        sign = np.where(mesh.side_tri[s, 0] == elements[pn, e_loc], 1.0, -1.0)
        B[p3, rows_jump, cols_jump] = sign[..., None, None]

        # weak-symmetry rows, one per scalar node of the patch; dead dofs
        # land in the padding column
        rows_sym = n_div + n_jump + np.count_nonzero(
            nodes[:, None, None, :] < ed_p[..., None], axis=3
        )
        B[p3, rows_sym[..., None], cols[:, :, None, 0, :]] = self.tables.symy[elements]
        B[p3, rows_sym[..., None], cols[:, :, None, 1, :]] = -self.tables.symx[elements]
        B = np.ascontiguousarray(B[:, :, :n_free])

        # right-hand side: jump moments weighted by the hats of the patch group
        group = np.full((n, 1 + max(len(p.absorbed) for p in patches)), -1)
        for i, p in enumerate(patches):
            group[i, 0] = p.vertex
            group[i, 1 : 1 + len(p.absorbed)] = p.absorbed
        w = (mesh.sides[active][..., None] == group[:, None, None, :]).any(axis=3)
        rhs = np.zeros((n, n_rows))
        weights = np.stack([p.weights for p in patches])
        rdiv = self.rhs_tables.rdiv[elements]                  # (P, ne, 3, 2, nmk)
        rhs[:, :n_div] = np.einsum("pea,pearb->perb", weights, rdiv).reshape(n, -1)
        rhs[:, n_div : n_div + n_jump] = np.einsum(
            "psa,psarm->psrm", w, self.rhs_tables.rjump[active]
        ).reshape(n, -1)

        return PatchBatch(
            patches=list(patches),
            k=k,
            elements=elements,
            col_elem=col_elem,
            col_row=col_row,
            col_dof=col_dof,
            free_col=free_col,
            gram=self.tables.gram[elements],
            constraints=B,
            rhs=rhs,
            jump_sides=active,
            sym_nodes=nodes,
        )

    # -- patch solve -----------------------------------------------------------

    def solve_patch(self, problem: PatchProblem) -> np.ndarray:
        """Minimize the patch L2 norm subject to the constraint rows: the
        patch solve of :meth:`_solve_batch` on a batch of one."""
        return self._solve_batch(PatchBatch.of(problem)).x[0]

    def _solve_batch(self, batch: PatchBatch) -> BatchSolution:
        """Minimize every patch L2 norm of a batch subject to its rows.

        The fast path (:meth:`_schur_stack`) eliminates the unknowns
        through the block-diagonal mass matrix and factors the Jacobi-scaled
        Schur complement B M^-1 B^T with a pivoted Cholesky, whose rank
        drops the redundant rows (exactly three on patches away from the
        displacement boundary).  It must pass the same KKT and constraint
        residual gates as the QR+LU path (:meth:`_solve_patch_qr_lu`).  A
        patch goes alone to that path when it fails them, when its
        factorization fails, or when the row norms of its B span more
        than 8 decades (there the QR rank rule drops rows of tiny norm,
        and the fallback keeps that behaviour).  A failure of the fallback
        indicates incompatible data and raises IncompatiblePatch.
        """
        B, rhs = batch.constraints, batch.rhs
        n, n_rows, n_free = B.shape
        if n_rows == 0 or n_free == 0:
            return _no_solution(n, n_free, fallback=False)
        row_norms = np.sqrt(np.einsum("pij,pij->pi", B, B))
        fast = np.flatnonzero(
            ~(row_norms.min(axis=1) < _ROW_NORM_SPAN * row_norms.max(axis=1))
        )
        sol = _no_solution(n, n_free, fallback=True)
        if len(fast):
            part = self._schur_stack(batch if len(fast) == n else batch.take(fast))
            for whole, value in zip(sol, part):
                whole[fast] = value
        for i in np.flatnonzero(sol.fallback):
            sol.x[i] = self._solve_patch_qr_lu(batch.problem(i))
            sol.residual[i] = np.max(np.abs(B[i] @ sol.x[i] - rhs[i]))
        return sol

    def _schur_stack(self, batch: PatchBatch) -> BatchSolution:
        """Schur-complement solve of a batch, without fallback: ``fallback``
        marks the patches whose factorization or gates failed.  Only the
        pivoted Cholesky and its solves run patch by patch."""
        B, rhs = batch.constraints, batch.rhs
        n, n_rows, n_free = B.shape
        blocks = _mass_blocks(batch)
        # G = M^-1 B^T: one stacked solve per size of the diagonal blocks of
        # M (one per element and tensor row, contiguous in columns), each on
        # the rows of B that the block's columns touch in some patch of the
        # stack (a row no patch touches would solve to zeros)
        G = np.zeros((n, n_free, n_rows))
        touched = np.any(B, axis=0)                            # (n_rows, n_free)
        pn = np.arange(n)[:, None, None, None]
        try:
            for idx, mblk in blocks:
                hit = touched[:, idx].any(axis=2).T            # (nb, n_rows)
                n_hit = hit.sum(axis=1)
                rows = np.argsort(~hit, axis=1, kind="stable")[:, : n_hit.max()]
                # pad short row lists by repeating a touched row
                pad = np.arange(rows.shape[1]) >= n_hit[:, None]
                rows = np.where(pad, rows[:, :1], rows)[None, :, None, :]
                cols = idx[None, :, :, None]
                G[pn, cols, rows] = np.linalg.solve(mblk, B[pn, rows, cols])
        except np.linalg.LinAlgError:
            # find the failing patches one by one
            if n == 1:
                return _no_solution(1, n_free, fallback=True)
            parts = [self._schur_stack(batch.take([i])) for i in range(n)]
            return BatchSolution(*(np.concatenate(f) for f in zip(*parts)))
        d = 1.0 / np.sqrt(np.einsum("pij,pji->pi", B, G))
        S = B @ G
        S *= d[:, :, None]
        S *= d[:, None, :]
        rank = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        kept = np.zeros((n, n_rows), dtype=bool)
        factors = []
        for p in range(n):
            c, piv, rank[p], info = scipy.linalg.lapack.dpstrf(
                S[p], tol=1e-12, lower=1, overwrite_a=1
            )
            ok[p] = info >= 0
            keep = piv[: rank[p]] - 1 if ok[p] else piv[:0]
            kept[p, keep] = True
            factors.append((np.asfortranarray(c[: len(keep), : len(keep)]), keep))
        del S
        # multipliers lam = D S_kk^-1 D r_k on the kept rows, zero on the
        # dropped ones, so that x = G lam; one refinement step
        lam = np.zeros((n, n_rows))
        resid = rhs
        for _ in range(2):
            scaled = d * resid
            for p, (c, keep) in enumerate(factors):
                if len(keep):
                    step, _ = scipy.linalg.lapack.dpotrs(c, scaled[p, keep], lower=1)
                    lam[p, keep] += d[p, keep] * step
            x = (G @ lam[:, :, None])[:, :, 0]
            resid = rhs - (B @ x[:, :, None])[:, :, 0]
        # the gates of the QR+LU path, on its KKT system of the kept rows
        # (multipliers -lam)
        mx = np.zeros((n, n_free))
        m_max = np.zeros(n)
        for idx, mblk in blocks:
            mx[:, idx] = (mblk @ x[:, idx, None])[..., 0]
            m_max = np.maximum(m_max, np.abs(mblk).max(axis=(1, 2, 3)))
        b_max = np.where(kept, np.maximum(B.max(axis=2), -B.min(axis=2)), 0.0).max(axis=1)
        denom = np.maximum(
            np.maximum(
                np.linalg.norm(np.where(kept, rhs, 0.0), axis=1),
                np.maximum(m_max, b_max)
                * np.maximum(np.abs(x).max(axis=1), np.abs(lam).max(axis=1)),
            ),
            1e-300,
        )
        kkt_rel = np.hypot(
            np.linalg.norm(mx - (lam[:, None, :] @ B)[:, 0], axis=1),
            np.linalg.norm(np.where(kept, resid, 0.0), axis=1),
        ) / denom
        residual = np.abs(resid).max(axis=1)
        ok &= (kkt_rel <= 1e-10) & (residual <= _RESIDUAL_RTOL * self.scale)
        return BatchSolution(x, rank, ~ok, residual)

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
        """Sum of all patch corrections, solved in batches of one topology
        and scattered in patch-vertex order."""
        disc = self.disc
        nd = rt_dim(disc.k)
        patches = modified_patches(disc.mesh)
        targets: list = [None] * len(patches)
        values: list = [None] * len(patches)
        residual = np.zeros(len(patches))
        self.n_patches = len(patches)
        self.n_batches = self.n_fallbacks = 0
        for ids, batch in self._batches(patches):
            sol = self._solve_batch(batch)
            self.n_batches += 1
            self.n_fallbacks += int(sol.fallback.sum())
            residual[ids] = sol.residual
            elem = np.take_along_axis(batch.elements, batch.col_elem, axis=1)
            flat = (elem * 2 + batch.col_row) * nd + batch.col_dof
            for j, i in enumerate(ids):
                targets[i] = flat[j]
                values[i] = sol.x[j]
            del batch  # before the next batch is built
        dofs = np.zeros((disc.mesh.n_triangles, 2, nd))
        if patches:
            np.add.at(dofs.reshape(-1), np.concatenate(targets), np.concatenate(values))
            worst = int(np.argmax(residual))
            self.worst_residual = float(residual[worst]) / self.scale
            self.worst_vertex = patches[worst].vertex
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

    div_res = 0.0
    sym_acc = np.zeros(disc.pressure.n_scalar)
    tmin = np.zeros((mesh.n_sides, npts, 2))
    tplus = np.zeros((mesh.n_sides, npts, 2))
    f_sq = 0.0
    sig_sq = 0.0
    for tb in disc.stress_chunks():
        fv, pf_vals = load.projected_volume(tb)
        divv = sigma_r.div_values(tb)
        div_res = max(div_res, float(np.max(np.abs(divv + pf_vals), initial=0.0)))

        # traces at the check points (scaled coordinates of side points)
        xi = tb.scaled(mesh.side_points(tb.side_ids, tpts))
        ne = len(tb.elems)
        vals = sigma_r.values(tb, xi.reshape(ne, -1, 2)).reshape(ne, 3, npts, 2, 2)
        nrm = mesh.side_normal[tb.side_ids][:, :, None, None, :]  # (ne, 3, 1, 1, 2)
        # einsum "esqrc,esc->esqr"
        tr = vals[..., 0] * nrm[..., 0] + vals[..., 1] * nrm[..., 1]
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
        _, pg = load.projected_traction(mesh, nsides, k, tpts)
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
