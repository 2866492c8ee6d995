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
    side_rule,
)

_QR_RTOL = 1e-10       # rank threshold relative to the largest row norm
_RESIDUAL_RTOL = 1e-9  # constraint residual vs. problem scale
_ROW_NORM_SPAN = 1e-8  # smallest / largest row norm the Schur path accepts
_BATCH_BYTES = 2_200_000  # stacked local blocks per batch


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
    nqs = len(side_rule(disc.k)[0])
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
    tq, tw = side_rule(k)
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
    request (:attr:`mass`).  ``block_rows`` maps the local rows of each
    (element, tensor row) block (see :class:`PatchBatch`) to these rows.
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
    block_rows: np.ndarray     # (ne, 2, n_loc) constraint row, or n_rows

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


def _n_local(k: int) -> int:
    """Local rows of an (element, tensor row) block: nmk divergence moments,
    3 (k + 1) side-moment selectors, 3 k symmetry rows."""
    return len(_exps_array(k)) + 3 * (k + 1) + 3 * k


@dataclass
class PatchBatch:
    """Problems of patches of one condensed shape (element count, jump
    sides, scalar nodes), stacked along a leading axis.

    The constraints are kept as local blocks, one per element and tensor
    row: ``blocks[p, e, r]`` holds the block's local rows (its divergence
    moments, the moment selectors of its three sides signed by the side's
    orientation, its symmetry rows) over all nd element dofs, zero on the
    dofs that are not free.  ``block_rows`` maps each local row to its
    constraint row, or to n_rows for a side without jump rows.  The free
    dofs ``free[p, e]`` are the same for both tensor rows.  The dense
    matrices of :class:`PatchProblem` are assembled per patch on request
    (:meth:`problem`).
    """

    patches: list[VertexPatch]
    k: int
    elements: np.ndarray       # (P, ne)
    free: np.ndarray           # (P, ne, nd) bool
    gram: np.ndarray           # (P, ne, nd, nd)
    blocks: np.ndarray         # (P, ne, 2, n_loc, nd)
    block_rows: np.ndarray     # (P, ne, 2, n_loc)
    rhs: np.ndarray            # (P, n_rows)
    jump_sides: np.ndarray     # (P, n_active)
    sym_nodes: np.ndarray      # (P, n_sym)

    def problem(self, i: int) -> PatchProblem:
        """The dense problem of patch ``i``, assembled from its blocks."""
        ne, nd = self.free.shape[1:]
        live = np.broadcast_to(self.free[i][:, None, :], (ne, 2, nd))
        order = np.flatnonzero(live)
        n_free = len(order)
        n_rows = self.rhs.shape[1]
        free_col = np.full(live.shape, -1, dtype=np.int64)
        free_col[live] = np.arange(n_free)
        col_elem, col_row, col_dof = np.unravel_index(order, live.shape)
        # the padding row and column collect the absent rows and dead dofs
        dense = np.zeros((n_rows + 1, n_free + 1))
        cols = np.where(live, free_col, n_free)
        dense[self.block_rows[i][..., :, None], cols[:, :, None, :]] = self.blocks[i]
        return PatchProblem(
            patch=self.patches[i],
            k=self.k,
            elements=self.elements[i],
            free_col=free_col,
            gram=self.gram[i],
            constraints=np.ascontiguousarray(dense[:n_rows, :n_free]),
            rhs=self.rhs[i],
            jump_sides=self.jump_sides[i],
            sym_nodes=self.sym_nodes[i],
            block_rows=self.block_rows[i],
            col_elem=col_elem,
            col_row=col_row,
            col_dof=col_dof,
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
        """The batch of one patch problem, its blocks read from the dense
        constraint matrix."""
        n_rows, n_free = problem.constraints.shape
        dense = np.zeros((n_rows + 1, n_free + 1))
        dense[:n_rows, :n_free] = problem.constraints
        cols = np.where(problem.free_col >= 0, problem.free_col, n_free)
        blocks = dense[problem.block_rows[..., :, None], cols[:, :, None, :]]
        return cls(
            patches=[problem.patch],
            k=problem.k,
            elements=problem.elements[None],
            free=(problem.free_col[:, 0] >= 0)[None],
            gram=problem.gram[None],
            blocks=blocks[None],
            block_rows=problem.block_rows[None],
            rhs=problem.rhs[None],
            jump_sides=problem.jump_sides[None],
            sym_nodes=problem.sym_nodes[None],
        )


_STACKED = [f.name for f in fields(PatchBatch) if f.name not in ("patches", "k")]


class BatchSolution(NamedTuple):
    """Patch solutions of one batch, one entry per patch."""

    x: np.ndarray          # (P, ne, 2, nd) minimizers, zero on dofs not free
    rank: np.ndarray       # (P,) rows kept by the rank decision
    fallback: np.ndarray   # (P,) solved by QR+LU instead of the condensed path
    residual: np.ndarray   # (P,) max |B x - r|
    kkt: np.ndarray        # (P,) relative KKT residual on the kept rows


def _no_solution(shape: tuple, fallback: bool) -> BatchSolution:
    n = shape[0]
    return BatchSolution(
        np.zeros(shape), np.zeros(n, dtype=np.int64), np.full(n, fallback),
        np.zeros(n), np.zeros(n),
    )


def _n_distinct(values: np.ndarray) -> np.ndarray:
    """Number of distinct entries per row of a 2-d array."""
    v = np.sort(values, axis=1)
    return 1 + np.count_nonzero(v[:, 1:] != v[:, :-1], axis=1)


def _row_unique(values: np.ndarray, drop: int | None = None) -> np.ndarray:
    """Distinct entries per row other than ``drop``, ascending; every row
    has as many."""
    v = np.sort(values, axis=1)
    first = np.ones(v.shape, dtype=bool)
    first[:, 1:] = v[:, 1:] != v[:, :-1]
    if drop is not None:
        first &= v != drop
    return v[first].reshape(len(v), -1)


def _flat_rows(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Local-row map (P, ...) into rows 0..n_rows of each patch, n_rows
    padding, as indices into the flattened (P, n_rows + 1) row values."""
    return rows + (n_rows + 1) * np.arange(len(rows)).reshape((-1,) + (1,) * (rows.ndim - 1))


def _scatter_rows(values: np.ndarray, flat: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the local-row values (P, ...) into the rows (P, n_rows) of each
    patch; ``flat`` (see _flat_rows) has the shape of ``values``."""
    n = len(values)
    out = np.bincount(flat.ravel(), values.ravel(), minlength=n * (n_rows + 1))
    return out.reshape(n, n_rows + 1)[:, :n_rows]


def _gather_rows(values: np.ndarray, flat: np.ndarray, pad=0.0) -> np.ndarray:
    """The row values (P, n_rows) at the local rows ``flat`` (see
    _flat_rows), ``pad`` at the padding row."""
    padded = np.concatenate([values, np.full((len(values), 1), pad)], axis=1)
    return padded.ravel()[flat]


class Equilibrator:
    """Builds, solves, and sums the patch corrections for one solution.

    :meth:`correction` leaves plain counters of its step: ``n_patches``,
    ``n_batches`` (stacked solves), ``n_fallbacks`` (patches solved by
    QR+LU), ``worst_residual``, the largest max|B x - r| / scale of a
    patch, with ``worst_vertex``, that patch's vertex, ``worst_kkt``, the
    largest relative KKT residual of a patch, and ``dropped_rows``, the
    number of patches per number of constraint rows dropped as redundant.
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
        self.worst_residual = self.worst_kkt = 0.0
        self.worst_vertex = -1
        self.dropped_rows: dict[int, int] = {}

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
        condensed shape: element count, jump sides and scalar nodes.  A
        group is cut into chunks whose stacked local blocks take at most
        _BATCH_BYTES (at least one patch each)."""
        k = self.disc.k
        by_size: dict[int, list[int]] = {}
        for i, patch in enumerate(patches):
            by_size.setdefault(len(patch.elements), []).append(i)
        for ne, ids in by_size.items():
            ids = np.asarray(ids)
            elements = np.stack([patches[i].elements for i in ids])
            sides, on_active, _ = self._topology(elements)
            jump = np.where(on_active, sides, -1).reshape(len(ids), -1)
            n_sym = _n_distinct(
                self.disc.pressure.element_dofs[elements].reshape(len(ids), -1)
            )
            key = np.column_stack([_n_distinct(jump) - (jump < 0).any(axis=1), n_sym])
            _, group = np.unique(key, axis=0, return_inverse=True)
            size = max(1, _BATCH_BYTES // (8 * ne * 2 * _n_local(k) * rt_dim(k)))
            for g in range(group.max() + 1):
                members = ids[group.ravel() == g]
                for start in range(0, len(members), size):
                    chunk = members[start : start + size]
                    yield chunk, self._build_batch([patches[j] for j in chunk])

    def _build_batch(self, patches: list[VertexPatch]) -> PatchBatch:
        """Stack the local blocks of patches of one condensed shape (see
        _batches), by index arithmetic on the constraint tables."""
        mesh, k = self.disc.mesh, self.disc.k
        assert not self._neumann_only[[p.vertex for p in patches]].any(), (
            "patch centered on a traction-only vertex is not admissible"
        )
        elements = np.stack([p.elements for p in patches])     # (P, ne)
        n, ne = elements.shape
        nd = rt_dim(k)
        nmk = len(_exps_array(k))
        nsel = 3 * (k + 1)
        sides, on_active, free = self._topology(elements)

        # jump sides and scalar nodes of each patch, ascending
        active = _row_unique(
            np.where(on_active, sides, mesh.n_sides).reshape(n, -1), mesh.n_sides
        )
        ed_p = self.disc.pressure.element_dofs[elements]        # (P, ne, nlk)
        nodes = _row_unique(ed_p.reshape(n, -1))
        n_div = ne * 2 * nmk
        n_jump = active.shape[1] * 2 * (k + 1)
        n_rows = n_div + n_jump + nodes.shape[1]

        # row map of the local rows; divergence rows (element, tensor row,
        # monomial); jump rows per active side, tensor rows then Legendre
        # moments; symmetry rows per scalar node
        r = np.arange(2)[:, None]
        rows_div = (np.arange(ne)[:, None, None] * 2 + r) * nmk + np.arange(nmk)
        si = np.count_nonzero(active[:, None, None, :] < sides[..., None], axis=3)
        rows_sel = n_div + (si[:, :, None, :, None] * 2 + r[..., None]) * (k + 1)
        rows_sel = rows_sel + np.arange(k + 1)                 # (P, ne, 2, 3, k+1)
        rows_sel = np.where(on_active[:, :, None, :, None], rows_sel, n_rows)
        rows_sym = n_div + n_jump + np.count_nonzero(
            nodes[:, None, None, :] < ed_p[..., None], axis=3
        )
        block_rows = np.concatenate(
            [
                np.broadcast_to(rows_div, (n, ne, 2, nmk)),
                rows_sel.reshape(n, ne, 2, nsel),
                np.broadcast_to(rows_sym[:, :, None, :], (n, ne, 2, ed_p.shape[2])),
            ],
            axis=3,
        )

        # local blocks: the tables on the free dofs; each side moment is
        # selected with +1 from the side's minus element and -1 from its
        # plus element
        blocks = np.zeros(block_rows.shape + (nd,))
        fr = free[:, :, None, :]
        blocks[:, :, :, :nmk] = np.where(fr, self.tables.divm[elements], 0.0)[:, :, None]
        sign = np.where(mesh.side_tri[sides, 0] == elements[..., None], 1.0, -1.0)
        sel = np.arange(nsel)
        blocks[:, :, :, nmk + sel, sel] = np.repeat(
            np.where(on_active, sign, 0.0), k + 1, axis=2
        )[:, :, None, :]
        blocks[:, :, 0, nmk + nsel :] = np.where(fr, self.tables.symy[elements], 0.0)
        blocks[:, :, 1, nmk + nsel :] = np.where(fr, -self.tables.symx[elements], 0.0)

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
            free=free,
            gram=self.tables.gram[elements],
            blocks=blocks,
            block_rows=block_rows,
            rhs=rhs,
            jump_sides=active,
            sym_nodes=nodes,
        )

    # -- patch solve -----------------------------------------------------------

    def solve_patch(self, problem: PatchProblem) -> np.ndarray:
        """Minimize the patch L2 norm subject to the constraint rows: the
        patch solve of :meth:`_solve_batch` on a batch of one."""
        x = self._solve_batch(PatchBatch.of(problem)).x[0]
        return x[problem.free_col >= 0]

    def _solve_batch(self, batch: PatchBatch) -> BatchSolution:
        """Minimize every patch L2 norm of a batch subject to its rows.

        The fast path (:meth:`_condensed_stack`) eliminates the unknowns
        block by block through the block-diagonal mass matrix, condenses
        the divergence rows of each block onto its jump and symmetry rows,
        and factors the Jacobi-scaled reduced Schur complement with a
        pivoted Cholesky, whose rank drops the redundant rows (exactly
        three on patches away from the displacement boundary).  It must
        pass the same KKT and constraint residual gates, on the unreduced
        rows, as the QR+LU path (:meth:`_solve_patch_qr_lu`).  A patch goes
        alone to that path when it fails them, when a block factorization
        or its pivoted Cholesky fails, or when the row norms of its
        constraint matrix span more than 8 decades (there the QR rank rule
        drops rows of tiny norm, and the fallback keeps that behaviour).  A
        failure of the fallback indicates incompatible data and raises
        IncompatiblePatch.
        """
        n, ne, _, _, nd = batch.blocks.shape
        sq = np.einsum("perld,perld->perl", batch.blocks, batch.blocks)
        n_rows = batch.rhs.shape[1]
        row_norms = np.sqrt(_scatter_rows(sq, _flat_rows(batch.block_rows, n_rows), n_rows))
        fast = np.flatnonzero(
            ~(row_norms.min(axis=1) < _ROW_NORM_SPAN * row_norms.max(axis=1))
        )
        sol = _no_solution((n, ne, 2, nd), fallback=True)
        if len(fast):
            part = self._condensed_stack(batch if len(fast) == n else batch.take(fast))
            for whole, value in zip(sol, part):
                whole[fast] = value
        for i in np.flatnonzero(sol.fallback):
            problem = batch.problem(i)
            x, sol.rank[i], sol.kkt[i] = self._solve_patch_qr_lu(problem)
            sol.x[i][problem.free_col >= 0] = x
            sol.residual[i] = np.max(np.abs(problem.constraints @ x - problem.rhs))
        return sol

    def _condensed_stack(self, batch: PatchBatch) -> BatchSolution:
        """Condensed Schur-complement solve of a batch, without fallback:
        ``fallback`` marks the patches whose factorizations or gates
        failed.  Only the pivoted Cholesky and its solves run patch by
        patch.

        Per block b (element, tensor row) with local rows L_b and mass
        M_b: H_b = M_b^-1 L_b^T and K_b = L_b H_b.  The divergence rows d
        of a block touch no other block, so the Schur complement B M^-1 B^T
        condenses onto the jump and symmetry rows c as the sum of the
        block complements K_cc - K_cd K_dd^-1 K_dc.  The multipliers of
        the d rows follow per block, and x_b = H_b lam_b.
        """
        L, rows, rhs = batch.blocks, batch.block_rows, batch.rhs
        n, ne, _, n_loc, nd = L.shape
        nmk = len(_exps_array(batch.k))
        n_div = ne * 2 * nmk
        n_c = rhs.shape[1] - n_div
        rows_c = rows[..., nmk:] - n_div                        # n_c pads
        flat_c = _flat_rows(rows_c, n_c)
        live = batch.free[..., :, None] & batch.free[..., None, :]
        mass = np.where(live, batch.gram, np.eye(nd))           # (P, ne, nd, nd)
        try:
            # one inverse per element for both tensor rows: at these sizes a
            # stacked inverse and product take half the time of a solve
            H = np.linalg.inv(mass)[:, :, None] @ L.swapaxes(3, 4)
            K = L @ H                                           # (P, ne, 2, n_loc, n_loc)
            kdd_inv = np.linalg.inv(K[..., :nmk, :nmk])
        except np.linalg.LinAlgError:
            # find the failing patches one by one
            if n == 1:
                return _no_solution((1, ne, 2, nd), fallback=True)
            parts = [self._condensed_stack(batch.take([i])) for i in range(n)]
            return BatchSolution(*(np.concatenate(f) for f in zip(*parts)))
        kcd = K[..., nmk:, :nmk]
        W = kdd_inv @ K[..., :nmk, nmk:]                        # K_dd^-1 K_dc
        reduced = K[..., nmk:, nmk:] - kcd @ W
        m = n_c + 1
        pairs = flat_c[..., :, None] * m + rows_c[..., None, :]
        S = np.bincount(pairs.ravel(), reduced.ravel(), minlength=n * m * m)
        S = np.ascontiguousarray(S.reshape(n, m, m)[:, :n_c, :n_c])
        del K, reduced, pairs
        d = 1.0 / np.sqrt(np.einsum("pii->pi", S))
        S *= d[:, :, None]
        S *= d[:, None, :]
        rank = np.zeros(n, dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        kept = np.zeros((n, n_c), dtype=bool)
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

        def multipliers(res):
            """Multipliers (d rows (P, ne, 2, nmk), c rows (P, n_c)) of the
            residual ``res``: zero on the dropped c rows."""
            yd = kdd_inv @ res[:, :n_div].reshape(n, ne, 2, nmk, 1)
            scaled = d * (res[:, n_div:] - _scatter_rows((kcd @ yd)[..., 0], flat_c, n_c))
            lam_c = np.zeros((n, n_c))
            for p, (c, keep) in enumerate(factors):
                if len(keep):
                    step, _ = scipy.linalg.lapack.dpotrs(c, scaled[p, keep], lower=1)
                    lam_c[p, keep] = d[p, keep] * step
            local = _gather_rows(lam_c, flat_c)[..., None]
            return (yd - W @ local)[..., 0], lam_c

        # x = H lam; one refinement step
        lam_d = np.zeros((n, ne, 2, nmk))
        lam_c = np.zeros((n, n_c))
        resid = rhs
        for _ in range(2):
            step_d, step_c = multipliers(resid)
            lam_d += step_d
            lam_c += step_c
            lam = np.concatenate([lam_d, _gather_rows(lam_c, flat_c)], axis=3)
            x = (H @ lam[..., None])[..., 0]                    # (P, ne, 2, nd)
            lx = (L @ x[..., None])[..., 0]                     # (P, ne, 2, n_loc)
            resid = rhs - np.concatenate(
                [lx[..., :nmk].reshape(n, n_div), _scatter_rows(lx[..., nmk:], flat_c, n_c)],
                axis=1,
            )
        # the gates of the QR+LU path, on its KKT system of the kept rows
        # (multipliers -lam), evaluated block by block
        kept = np.concatenate([np.ones((n, n_div), dtype=bool), kept], axis=1)
        kept_local = _gather_rows(kept, _flat_rows(rows, n_div + n_c), pad=False)
        stationarity = (mass[:, :, None] @ x[..., None])[..., 0] - (lam[..., None, :] @ L)[..., 0, :]
        m_max = (np.abs(batch.gram) * live).reshape(n, -1).max(axis=1)
        b_max = (np.abs(L) * kept_local[..., None]).reshape(n, -1).max(axis=1)
        lam_max = np.maximum(np.abs(lam_d).max(axis=(1, 2, 3)), np.abs(lam_c).max(axis=1))
        denom = np.maximum(
            np.maximum(
                np.linalg.norm(np.where(kept, rhs, 0.0), axis=1),
                np.maximum(m_max, b_max)
                * np.maximum(np.abs(x).max(axis=(1, 2, 3)), lam_max),
            ),
            1e-300,
        )
        kkt_rel = np.hypot(
            np.linalg.norm(stationarity.reshape(n, -1), axis=1),
            np.linalg.norm(np.where(kept, resid, 0.0), axis=1),
        ) / denom
        residual = np.abs(resid).max(axis=1)
        ok &= (kkt_rel <= 1e-10) & (residual <= _RESIDUAL_RTOL * self.scale)
        return BatchSolution(x, n_div + rank, ~ok, residual, kkt_rel)

    def _solve_patch_qr_lu(self, problem: PatchProblem) -> tuple[np.ndarray, int, float]:
        """Drop redundant rows by rank-revealing QR with a threshold relative
        to the largest row norm, then solve the reduced KKT system by dense
        LU.  Returns the minimizer, the rank and the relative KKT residual;
        raises IncompatiblePatch when a residual gate fails."""
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
        return x, rank, kkt_rel

    # -- reconstruction ---------------------------------------------------------

    def correction(self) -> BrokenField:
        """Sum of all patch corrections, solved in batches of one condensed
        shape and scattered in patch-vertex order."""
        disc = self.disc
        nd = rt_dim(disc.k)
        patches = modified_patches(disc.mesh)
        targets: list = [None] * len(patches)
        values: list = [None] * len(patches)
        residual = np.zeros(len(patches))
        dropped = np.zeros(len(patches), dtype=np.int64)
        self.n_patches = len(patches)
        self.n_batches = self.n_fallbacks = 0
        self.worst_kkt = 0.0
        for ids, batch in self._batches(patches):
            sol = self._solve_batch(batch)
            self.n_batches += 1
            self.n_fallbacks += int(sol.fallback.sum())
            self.worst_kkt = max(self.worst_kkt, float(sol.kkt.max()))
            residual[ids] = sol.residual
            dropped[ids] = batch.rhs.shape[1] - sol.rank
            live = np.broadcast_to(batch.free[:, :, None, :], sol.x.shape)
            row = batch.elements[:, :, None, None] * 2 + np.arange(2)[:, None]
            flat = row * nd + np.arange(nd)
            for j, i in enumerate(ids):
                targets[i] = flat[j][live[j]]
                values[i] = sol.x[j][live[j]]
            del batch  # before the next batch is built
        dofs = np.zeros((disc.mesh.n_triangles, 2, nd))
        self.dropped_rows = dict(zip(*(v.tolist() for v in np.unique(dropped, return_counts=True))))
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
    tq, tw = side_rule(k)
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
    scale: float,
) -> EquilibrationReport:
    """Check the defining properties of the reconstruction pointwise;
    ``scale`` is the reference of the residual gates (``RhsTables.scale``
    of the step that built ``sigma_r``).

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
    for tb in disc.stress_chunks():
        _, pf_vals = load.projected_volume(tb)
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

    interior = mesh.side_label == INTERIOR
    jump_res = float(np.max(np.abs(tmin[interior] - tplus[interior]), initial=0.0))

    neu_res = 0.0
    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size:
        _, pg = load.projected_traction(mesh, nsides, k, tpts)
        neu_res = float(np.max(np.abs(tmin[nsides] - pg), initial=0.0))

    _check_scale(scale)
    return EquilibrationReport(
        div_residual=div_res,
        jump_residual=jump_res,
        neumann_residual=neu_res,
        symmetry_residual=float(np.max(np.abs(sym_acc), initial=0.0)),
        scale=scale,
    )
