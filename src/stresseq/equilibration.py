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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .elasticity import LoadData
from .errors import IncompatiblePatch, StressEqError
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, Patches, _batches, modified_patches
from .spaces import (
    BrokenField,
    Discretization,
    StressTables,
    _dof_signs,
    _exps_array,
    build_stress_tables,
    element_chunks,
    lagrange_values,
    legendre01,
    monomial_values,
    rt_dim,
    side_rule,
)

_QR_RTOL = 1e-10       # rank threshold relative to the largest row norm
_KKT_RTOL = 1e-10      # relative KKT residual a patch solve accepts
_RESIDUAL_RTOL = 1e-9  # constraint residual vs. problem scale
VERIFY_RTOL = 1e-9     # verification gate: largest residual vs. problem scale
_ROW_NORM_SPAN = 1e-8  # smallest / largest row norm the Schur path accepts
_BATCH_BYTES = 1_800_000  # stacked local blocks per chunk of patches


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
    scale is the tolerance reference: data plus stress magnitude plus one.
    """

    rdiv: np.ndarray
    rjump: np.ndarray
    scale: float


def _scatter_jumps(mesh: Mesh, tb: StressTables, tr, jump) -> None:
    """Gather element side traces tr (ne, 3, npts, 2) of the chunk ``tb``
    into the per-side ``jump``: the minus element's trace, less the plus
    element's.  Every minus trace of the chunk is stored before any plus
    trace is subtracted (a side's plus element may hold it at a lower
    local index); across chunks, which ascend in element number, the
    minus element is the lower-numbered one and comes first."""
    is_minus = mesh.is_minus[tb.elems]
    for j in range(3):
        jump[tb.side_ids[is_minus[:, j], j]] = tr[is_minus[:, j], j]
    for j in range(3):
        jump[tb.side_ids[~is_minus[:, j], j]] -= tr[~is_minus[:, j], j]


def side_jumps(disc: Discretization, field: BrokenField) -> np.ndarray:
    """Normal-trace jumps at the side quadrature points, (n_sides, nqs, 2).

    Traces use the side's global normal from both adjacent elements; an
    interior side holds the minus trace less the plus trace, a boundary
    side its one trace.
    """
    mesh = disc.mesh
    nqs = len(side_rule(disc.k)[0])
    jump = np.zeros((mesh.n_sides, nqs, 2))
    for tb in disc.stress_chunks:
        nb = tb.normal_basis()                            # (ne, 3, nqs, nd)
        ne, _, _, nd = nb.shape
        # einsum "erd,esqd->esqr"
        tr = nb.reshape(ne, -1, nd) @ field.dofs[tb.elems].swapaxes(1, 2)
        _scatter_jumps(mesh, tb, tr.reshape(ne, 3, nqs, 2), jump)
    return jump


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
    sig_sq = 0.0
    f_sq = 0.0

    for tb in disc.stress_chunks:
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

    # side defects: -[[sigma_h . n]] inside, g - sigma_h . n on traction sides
    defect = -side_jumps(disc, sigma_h)
    nsides = mesh.boundary_sides(NEUMANN)
    defect[nsides] += load.traction_at(mesh.side_points(nsides, tq))
    active = mesh.side_label != DIRICHLET
    rjump[active] = np.einsum("q,qa,sqr,qm->sarm", tw, lam_side, defect[active], lg)

    scale = float(np.sqrt(sig_sq)) + float(np.sqrt(f_sq)) + 1.0
    _check_scale(scale)
    return RhsTables(rdiv=rdiv, rjump=rjump, scale=scale)


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
    """Dense constrained-least-squares data of one patch correction, the
    input of :meth:`Equilibrator.solve_patch`.

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

    vertex: int                # the patch vertex
    k: int
    elements: np.ndarray       # (ne,) global element ids, ascending
    free_col: np.ndarray       # (ne, 2, nd) column index, in C order, or -1
    gram: np.ndarray           # (ne, nd, nd) Gram matrix per element
    constraints: np.ndarray    # (n_rows, n_free)
    rhs: np.ndarray            # (n_rows,)
    block_rows: np.ndarray     # (ne, 2, n_loc) constraint row, or n_rows

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.free_col >= 0))

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
    3 (k + 1) side-moment selectors, nmk symmetry rows (one per P_k node)."""
    return 2 * len(_exps_array(k)) + 3 * (k + 1)


def _selectors(k: int) -> tuple[int, np.ndarray]:
    """The first selector row nmk of an (element, tensor row) block and the
    selector dofs 0..3(k+1)-1: selector row nmk + j picks dof j, the side
    moments being the first 3(k+1) dofs, side by side."""
    return len(_exps_array(k)), np.arange(3 * (k + 1))


def _table_rows(k: int, divm, symx, symy, selector) -> np.ndarray:
    """The local rows (n, 2, n_loc, nd) of element tables, per tensor row:
    the divergence moments, the side-moment selectors with the entries
    ``selector`` (n, 3 (k + 1)), and the symmetry rows, symy for tensor
    row 0 and -symx for tensor row 1."""
    nmk, sel = _selectors(k)
    n, _, nd = divm.shape
    rows = np.zeros((n, 2, _n_local(k), nd))
    rows[:, :, :nmk] = divm[:, None]
    rows[:, :, nmk + sel, sel] = selector[:, None, :]
    rows[:, 0, nmk + len(sel) :] = symy
    rows[:, 1, nmk + len(sel) :] = -symx
    return rows


class TableShapes(NamedTuple):
    """The element tables of a batch as scaled shape tables, the input of
    :meth:`Equilibrator._reduce`; ``rows`` and ``gram`` may hold shapes
    that no table reads.  Table t reads shape ``index[t]``: its
    K = L M^-1 L^T is the shape's scaled by ``row_scale[t]`` on both sides
    and its M^-1 the shape's scaled by ``dof_scale[t]`` on both sides.
    With rows L = diag(h, selector sign, h^2) L_s D and M = h^2 D M_s D
    (D the dof signs), row_scale is (1, selector sign / h, h) and
    dof_scale D / h."""

    rows: np.ndarray       # (n_shapes, 2, n_loc, nd), unit selectors
    gram: np.ndarray       # (n_shapes, nd, nd)
    index: np.ndarray      # (n_tables,)
    row_scale: np.ndarray  # (n_tables, n_loc)
    dof_scale: np.ndarray  # (n_tables, nd)


@dataclass
class PatchBatch:
    """Problems of consecutive patches, stacked by (patch, element) pair.

    The pairs of a patch are consecutive, its elements ascending.  The
    constraints are kept per element table: ``table_rows[t, r]`` holds the
    local rows of tensor row r (the divergence moments, the moment
    selectors of all three sides signed by the side's orientation, the
    symmetry rows) over all nd dofs, and ``table_gram[t]`` the Gram
    matrix; pair q reads table ``table[q]``, and ``shapes`` gives the
    tables by element shape.  A pair's local block is its
    table's rows on its free dofs, zero on the rows without a stacked row
    (:meth:`blocks`).  The free dofs ``free[q]`` are the same for both
    tensor rows: all but the moments of at most one masked side, a
    patch-boundary side interior to the mesh.  The pairs of one table have
    distinct ``slot`` (< 3), their column when the condensed solve applies
    the table to all of them at once.

    The constraint rows of all patches are stacked in patch order, patch
    i's from ``row_offsets[i]`` on, each patch's in the order of
    :class:`PatchProblem`; ``block_rows`` maps each local row to its
    stacked row, or to the number of stacked rows for a side without jump
    rows.  The dense matrices of :class:`PatchProblem` are assembled per
    patch on request (:meth:`problem`).
    """

    vertex: np.ndarray         # (P,) patch vertices
    dirichlet_touching: np.ndarray  # (P,) bool, as in :class:`Patches`
    k: int
    pair_patch: np.ndarray     # (n_pairs,) patch index, ascending
    elements: np.ndarray       # (n_pairs,)
    free: np.ndarray           # (n_pairs, nd) bool
    table: np.ndarray          # (n_pairs,) element table of each pair
    slot: np.ndarray           # (n_pairs,) column of each pair in its table
    table_gram: np.ndarray     # (n_tables, nd, nd)
    table_rows: np.ndarray     # (n_tables, 2, n_loc, nd)
    shapes: TableShapes        # the tables by shape, for the condensed solve
    block_rows: np.ndarray     # (n_pairs, 2, n_loc)
    row_offsets: np.ndarray    # (P + 1,)
    rhs: np.ndarray            # (n_rows,) stacked rows

    def pairs(self, i: int) -> slice:
        """The pairs of patch ``i``."""
        lo, hi = np.searchsorted(self.pair_patch, [i, i + 1])
        return slice(int(lo), int(hi))

    @property
    def masked_side(self) -> np.ndarray:
        """(n_pairs,) the local side whose moments are not free, or -1."""
        masked = ~self.free[:, : 3 * (self.k + 1) : self.k + 1]
        return np.where(masked.any(axis=1), np.argmax(masked, axis=1), -1)

    def blocks(self, pairs) -> np.ndarray:
        """The local blocks (n, 2, n_loc, nd) of the pairs ``pairs``."""
        live = self.free[pairs][:, None, None, :] & (
            self.block_rows[pairs] < len(self.rhs)
        )[..., None]
        return np.where(live, self.table_rows[self.table[pairs]], 0.0)

    def problem(self, i: int) -> PatchProblem:
        """The dense problem of patch ``i``, assembled from its blocks."""
        pairs = self.pairs(i)
        lo, hi = self.row_offsets[i : i + 2]
        n_rows = hi - lo
        block_rows = np.minimum(self.block_rows[pairs] - lo, n_rows)
        free = self.free[pairs]
        live = np.broadcast_to(free[:, None, :], (len(free), 2, free.shape[1]))
        n_free = int(np.count_nonzero(live))
        free_col = np.full(live.shape, -1, dtype=np.int64)
        free_col[live] = np.arange(n_free)
        # the padding row and column collect the absent rows and dead dofs
        dense = np.zeros((n_rows + 1, n_free + 1))
        cols = np.where(live, free_col, n_free)
        dense[block_rows[..., :, None], cols[:, :, None, :]] = self.blocks(pairs)
        return PatchProblem(
            vertex=int(self.vertex[i]),
            k=self.k,
            elements=self.elements[pairs],
            free_col=free_col,
            gram=self.table_gram[self.table[pairs]],
            constraints=np.ascontiguousarray(dense[:n_rows, :n_free]),
            rhs=self.rhs[lo:hi],
            block_rows=block_rows,
        )


class BatchSolution(NamedTuple):
    """Patch solutions of one batch: the minimizers and multipliers per
    pair, the rest per patch."""

    x: np.ndarray          # (n_pairs, 2, nd) minimizers, zero on dofs not free
    lam: np.ndarray        # (n_pairs, 2, n_loc) multipliers of the condensed path
    rank: np.ndarray       # (P,) rows kept: all but the rigid-motion rows
    fallback: np.ndarray   # (P,) solved by QR+LU instead of the condensed path
    residual: np.ndarray   # (P,) max |B x - r|
    kkt: np.ndarray        # (P,) relative KKT residual on the kept rows


class Reduction(NamedTuple):
    """The condensed system of a batch (:meth:`Equilibrator._reduce`): per
    table, per pair (d rows, then c rows per local row) and per patch."""

    minv: np.ndarray       # (n_tables, nd, nd) inverse Gram matrices
    kdd_inv: np.ndarray    # (n_pairs, 1, n_d, n_d), both tensor rows
    kcd: np.ndarray        # (n_pairs, 2, n_loc - nmk, n_d), K_dc = K_cd^T
    side: np.ndarray       # (n_pairs,) masked side, or -1
    rows_c: np.ndarray     # (n_pairs, 2, n_loc - nmk) c row, or the c row count
    c_rows: np.ndarray     # (n_c_all,) stacked row of each c row
    S: np.ndarray          # reduced matrices, flat, patch p's from s_start[p]
    s_start: np.ndarray    # (P,)
    n_c: np.ndarray        # (P,) c rows per patch
    c_start: np.ndarray    # (P,) first c row per patch


def _stacked_unique(values: np.ndarray, owner: np.ndarray, n_owners: int, bound: int):
    """Distinct ``values`` (in [0, bound)) per owner, ascending, stacked in
    owner order: the stacked values, the offsets (n_owners + 1) of each
    owner's run, and the stacked index of each entry of ``values``."""
    keys, index = np.unique(owner * bound + values, return_inverse=True)
    offsets = np.searchsorted(keys, np.arange(n_owners + 1) * bound)
    return keys % bound, offsets, index.reshape(values.shape)


def _scatter_rows(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the local-row values into rows 0..n_rows-1; ``rows`` has the
    shape of ``values``, n_rows for a padding row."""
    return np.bincount(rows.ravel(), values.ravel(), minlength=n_rows + 1)[:n_rows]


def _gather_rows(values: np.ndarray, rows: np.ndarray, pad=0.0) -> np.ndarray:
    """The row values at the local rows ``rows``, ``pad`` at the padding
    row len(values)."""
    return np.append(values, pad)[rows]


def _segment_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Largest entry of each run of the rows of ``values`` that begin at
    ``starts``."""
    return np.maximum.reduceat(values.reshape(len(values), -1).max(axis=1), starts)


def _segment_norm(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """2-norm of each run of ``values`` (stacked along the first axis) that
    begins at ``starts``."""
    sq = (values * values).reshape(len(values), -1).sum(axis=1)
    return np.sqrt(np.add.reduceat(sq, starts))


def _lower_inverse(G: np.ndarray) -> np.ndarray:
    """The inverses of stacked lower-triangular matrices, by forward
    substitution on all of them at once (a few times faster than a stacked
    ``np.linalg.inv`` at 8 to 15 rows)."""
    n = G.shape[-1]
    R = np.zeros_like(G)
    for i in range(n):
        R[:, i, i] = 1.0
        R[:, i, :i] -= np.einsum("tj,tjc->tc", G[:, i, :i], R[:, :i, :i])
        R[:, i, : i + 1] /= G[:, i, i, None]
    return R


def _shape_products(rows: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = L M^-1 L^T per tensor row (n, 2, n_loc, n_loc) and M^-1
    (n, nd, nd) of tables with rows L and Gram matrices M: with the
    Cholesky factor M = G G^T and R = G^-1, C = R L^T, K = C^T C and
    M^-1 = R^T R, both exactly symmetric.  Raises LinAlgError when a Gram
    matrix is singular."""
    R = _lower_inverse(np.linalg.cholesky(gram))
    C = R[:, None] @ rows.swapaxes(2, 3)                  # (n, 2, nd, n_loc)
    return C.swapaxes(2, 3) @ C, R.swapaxes(1, 2) @ R


def _d_rows(k: int, side: np.ndarray) -> np.ndarray:
    """The d rows (len(side), n_d) of an (element, tensor row) block: the
    divergence moments, then the moments of the masked side ``side``, or
    of side 0 where it is -1."""
    nmk = len(_exps_array(k))
    return np.concatenate(
        [
            np.broadcast_to(np.arange(nmk), (len(side), nmk)),
            nmk + (k + 1) * np.maximum(side, 0)[:, None] + np.arange(k + 1),
        ],
        axis=1,
    )


def _pair_maxima(batch: PatchBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair, on its free dofs: the largest |entry| of its Gram matrix,
    and per local row the largest |entry| and the squared norm (n_pairs, 2,
    n_loc).  The maxima are taken per table over each group of dofs (the
    moments of side 0, 1 or 2, the other dofs), then per pair over the
    groups that are not masked; the squared norm is the table row's minus
    the masked dofs'."""
    k, L, t, side = batch.k, batch.table_rows, batch.table, batch.masked_side
    _, sel = _selectors(k)
    groups = [*sel.reshape(3, -1), range(len(sel), L.shape[3])]

    def group_max(a):
        """(4, ...) the largest entry of ``a`` over each group of its last axis."""
        return np.stack([functools.reduce(np.maximum, (a[..., j] for j in g)) for g in groups])

    q = np.flatnonzero(side >= 0)
    gram = group_max(group_max(np.abs(batch.table_gram)))[:, :, t]      # (4, 4, n_pairs)
    gram[side[q], :, q] = 0.0
    gram[:, side[q], q] = 0.0
    row_max = group_max(np.abs(L))[:, t]                                # (4, n_pairs, 2, n_loc)
    row_max[side[q], q] = 0.0
    masked = L[t[:, None], :, :, sel.reshape(3, -1)[np.maximum(side, 0)]]   # (n_pairs, k+1, 2, n_loc)
    masked[side < 0] = 0.0
    row_sq = np.einsum("trld,trld->trl", L, L)[t] - np.einsum("qmrl,qmrl->qrl", masked, masked)
    return gram.reshape(16, -1).max(axis=0), row_max.max(axis=0), row_sq


class Equilibrator:
    """Builds, solves, and sums the patch corrections for one solution, on
    the patches of :func:`modified_patches` (``patches``, built once).

    :meth:`correction` leaves plain counters of its step: ``n_patches``,
    ``n_batches`` (stacked solves, one per chunk of consecutive patches),
    ``n_fallbacks`` (patches solved by QR+LU), ``worst_residual``, the
    largest max|B x - r| / scale of a patch, with ``worst_vertex``, that
    patch's vertex, ``worst_kkt``, the largest relative KKT residual of a
    patch, and ``dropped_rows``, the number of patches per number of
    constraint rows dropped as redundant.
    """

    def __init__(
        self,
        disc: Discretization,
        sigma_h: BrokenField,
        load: LoadData,
    ):
        self.disc = disc
        ct = disc.constraints
        # the local rows of every shape class, with unit selectors
        self.shape_rows = _table_rows(
            disc.k, ct.divm, ct.symx, ct.symy, np.ones((len(ct.divm), 3 * (disc.k + 1)))
        )
        self.rhs_tables = build_rhs_tables(disc, sigma_h, load)
        self.patches: Patches = modified_patches(disc.mesh)
        self.n_patches = self.n_batches = self.n_fallbacks = 0
        self.worst_residual = self.worst_kkt = 0.0
        self.worst_vertex = -1
        self.dropped_rows: dict[int, int] = {}

    @property
    def scale(self) -> float:
        return self.rhs_tables.scale

    # -- patch problem construction ------------------------------------------

    def build_patch_problem(self, i: int) -> PatchProblem:
        """The problem of patch ``i`` of :attr:`patches`."""
        return self._build_batch(i, i + 1).problem(0)

    def _batches(self):
        """Yield (first patch index, PatchBatch) for chunks of consecutive
        patches whose local blocks, were they stacked, would take at most
        _BATCH_BYTES (at least one patch each).  The condensed solve of a
        chunk holds per-pair arrays of about that size, so the cut bounds
        its memory."""
        pair_bytes = 8 * 2 * _n_local(self.disc.k) * rt_dim(self.disc.k)
        for start, stop in _batches(np.diff(self.patches.offsets) * pair_bytes, _BATCH_BYTES):
            yield start, self._build_batch(start, stop)

    def _build_batch(self, lo: int, hi: int) -> PatchBatch:
        """Stack the patches lo..hi-1 by (patch, element) pair, by index
        arithmetic on the constraint tables, with one element table per
        distinct element."""
        mesh, k = self.disc.mesh, self.disc.k
        patches = self.patches
        pairs = slice(patches.offsets[lo], patches.offsets[hi])
        n = hi - lo
        n_elems = np.diff(patches.offsets[lo : hi + 1])
        pair_patch = np.repeat(np.arange(n), n_elems)
        elements = patches.elements[pairs]
        vertex = patches.vertex[lo:hi]
        n_pairs = len(elements)
        nd = rt_dim(k)
        nmk, sel = _selectors(k)
        nsel = len(sel)

        # a side carries jump rows when the patch holds both of its elements
        # (a triangle is in the patch when the patch vertex owns one of its
        # vertices) or when it is a traction side; the free dofs are all but
        # the side moments on patch-boundary sides interior to the mesh
        sides = mesh.tri_sides[elements]                       # (n_pairs, 3)
        partner = mesh.side_tri[sides]                         # (n_pairs, 3, 2)
        owned = patches.owner[mesh.triangles[partner]] == vertex[pair_patch, None, None, None]
        both_in = (owned.any(axis=3) & (partner >= 0)).all(axis=2)
        labels = mesh.side_label[sides]
        on_active = both_in | (labels == NEUMANN)
        free = np.ones((n_pairs, nd), dtype=bool)
        free[:, :nsel] = np.repeat(both_in | (labels != INTERIOR), k + 1, axis=1)

        # jump sides and scalar nodes of each patch, ascending
        side_patch = np.broadcast_to(pair_patch[:, None], sides.shape)[on_active]
        active, side_offsets, side_index = _stacked_unique(
            sides[on_active], side_patch, n, mesh.n_sides
        )
        ed_p = self.disc.pressure.element_dofs[elements]       # (n_pairs, nlk)
        _, node_offsets, node_index = _stacked_unique(
            ed_p, pair_patch[:, None], n, self.disc.pressure.n_scalar
        )
        n_div = n_elems * 2 * nmk
        n_jump = np.diff(side_offsets) * 2 * (k + 1)
        n_rows = n_div + n_jump + np.diff(node_offsets)
        row_offsets = np.concatenate([[0], np.cumsum(n_rows)])
        first_jump = row_offsets[:-1] + n_div                  # per patch

        # stacked row of each local row; divergence rows (element, tensor
        # row, monomial); jump rows per active side, tensor rows then
        # Legendre moments; symmetry rows per scalar node
        r = np.arange(2)[:, None]
        e_loc = np.arange(n_pairs) - (np.cumsum(n_elems) - n_elems)[pair_patch]
        rows_div = row_offsets[pair_patch][:, None, None] + (
            (e_loc[:, None, None] * 2 + r) * nmk + np.arange(nmk)
        )
        si = np.zeros(sides.shape, dtype=np.int64)
        si[on_active] = side_index - side_offsets[side_patch]
        rows_sel = first_jump[pair_patch][:, None, None, None] + (
            (si[:, None, :, None] * 2 + r[..., None]) * (k + 1) + np.arange(k + 1)
        )                                                      # (n_pairs, 2, 3, k+1)
        rows_sel = np.where(on_active[:, None, :, None], rows_sel, row_offsets[-1])
        rows_sym = (first_jump + n_jump)[pair_patch][:, None] + (
            node_index - node_offsets[pair_patch][:, None]
        )
        block_rows = np.concatenate(
            [
                rows_div,
                rows_sel.reshape(n_pairs, 2, nsel),
                np.broadcast_to(rows_sym[:, None, :], (n_pairs, 2, ed_p.shape[1])),
            ],
            axis=2,
        )

        # element tables: their classes' scaled, divm by h D, symx and symy
        # by h^2 D, gram by h^2 D D^T; each side moment is selected with +1
        # from the side's minus element and -1 from its plus element; the
        # pairs of an element take the slot of their first vertex that the
        # patch owns
        unique, table = np.unique(elements, return_inverse=True)
        cls, ct = mesh.shape_classes[1][unique], self.disc.constraints
        selector = np.repeat(np.where(mesh.is_minus[unique], 1.0, -1.0), k + 1, axis=1)
        dof_sign = _dof_signs(mesh, unique, k)
        h = mesh.h[unique, None]
        hD, h2D = (h * dof_sign)[:, None], (h * h * dof_sign)[:, None]
        rows = _table_rows(k, ct.divm[cls] * hD, ct.symx[cls] * h2D, ct.symy[cls] * h2D, selector)
        gram = ct.gram[cls] * (h2D * dof_sign[:, :, None])
        dof_scale = dof_sign / h
        shapes = TableShapes(
            rows=self.shape_rows,
            gram=ct.gram,
            index=cls,
            row_scale=np.concatenate(
                [np.ones((len(unique), nmk)), selector * dof_scale[:, :nsel],
                 np.repeat(h, ed_p.shape[1], axis=1)],
                axis=1,
            ),
            dof_scale=dof_scale,
        )

        # right-hand side: the residual moments weighted by the patch weight;
        # a side's endpoint hats count where the patch vertex owns them
        active_patch = np.repeat(np.arange(n), np.diff(side_offsets))
        w = patches.owner[mesh.sides[active]] == vertex[active_patch][:, None]
        rhs = np.zeros(row_offsets[-1])
        rdiv = self.rhs_tables.rdiv[elements]                  # (n_pairs, 3, 2, nmk)
        rhs[rows_div] = np.einsum("ea,earb->erb", patches.weights[pairs], rdiv)
        rows_jump = (
            first_jump[active_patch]
            + (np.arange(len(active)) - side_offsets[active_patch]) * 2 * (k + 1)
        )[:, None] + np.arange(2 * (k + 1))
        rhs[rows_jump] = np.einsum(
            "sa,sarm->srm", w, self.rhs_tables.rjump[active]
        ).reshape(len(active), 2 * (k + 1))

        return PatchBatch(
            vertex=vertex,
            dirichlet_touching=patches.dirichlet_touching[lo:hi],
            k=k,
            pair_patch=pair_patch,
            elements=elements,
            free=free,
            table=table,
            slot=np.argmax(patches.weights[pairs], axis=1),
            table_gram=gram,
            table_rows=rows,
            shapes=shapes,
            block_rows=block_rows,
            row_offsets=row_offsets,
            rhs=rhs,
        )

    # -- patch solve -----------------------------------------------------------

    def _solve_batch(self, batch: PatchBatch) -> BatchSolution:
        """Minimize every patch L2 norm of a batch subject to its rows.

        The fast path (:meth:`_condensed_stack`) runs on all patches of the
        batch at once.  It condenses the divergence rows of each block onto
        its jump and symmetry rows through the element tables, and factors
        the Jacobi-scaled reduced Schur complement of each patch with a
        pivoted Cholesky.  Its rank is structural: a patch without a side on
        the displacement boundary drops three rows, redundant by the rigid
        motions, and any other patch none; the pivot order chooses which.
        It must pass the same KKT and constraint residual gates, on the
        unreduced rows, as :meth:`solve_patch`.  Every patch whose
        ``fallback`` flag the fast path sets is solved again alone by
        :meth:`solve_patch`, on its dense problem, its fast result
        overwritten: a patch that fails a gate, whose pivoted Cholesky stops
        before that rank, or whose constraint row norms span more than 8
        decades (there the QR rank rule drops rows of tiny norm, and the
        fallback keeps that behaviour), and every patch of the batch when
        the element reduction raises LinAlgError.  A failure of the fallback
        indicates incompatible data and raises IncompatiblePatch.
        """
        sol = self._condensed_stack(batch)
        for i in np.flatnonzero(sol.fallback):
            problem = batch.problem(i)
            x, sol.rank[i], sol.kkt[i] = self.solve_patch(problem)
            xi = np.zeros(problem.free_col.shape)
            xi[problem.free_col >= 0] = x
            sol.x[batch.pairs(i)] = xi
            sol.residual[i] = np.max(np.abs(problem.constraints @ x - problem.rhs))
        return sol

    def _reduce(self, batch: PatchBatch) -> Reduction:
        """The condensed system of a batch, from its element tables; raises
        LinAlgError when a Gram matrix or a condensed block is singular.

        Per shape and tensor row r, with rows L and Gram matrix M:
        K = L M^-1 L^T and M^-1 (:func:`_shape_products`).  K is exactly
        symmetric, so K_dc = K_cd^T.  A pair's problem is its element's on
        the free dofs.  Its d rows, the divergence moments and the k+1
        moments of its masked side as rows with zero right-hand side (a
        unit block without coupling on a pair without one), touch no other
        pair; its c rows are its other rows.  The Schur complement of a
        patch then condenses onto its c rows as the sum over its pairs of
        K_cc - K_cd K_dd^-1 K_dc, built once per (shape, masked side) and
        scaled per pair (:class:`TableShapes`), as are K_dd^-1 and K_cd.
        Entry (i, j) of patch p's reduced matrix sits at
        ``s_start[p] + i n_c[p] + j`` of ``S``.
        """
        k = batch.k
        nmk = len(_exps_array(k))
        rows, rhs, pp = batch.block_rows, batch.rhs, batch.pair_patch
        n = len(batch.vertex)
        n_elems = np.bincount(pp, minlength=n)
        n_div = n_elems * 2 * nmk
        n_c = np.diff(batch.row_offsets) - n_div
        c_start = np.cumsum(n_c) - n_c
        n_c_all = int(n_c.sum())
        # stacked row minus stacked c row, per patch, on its c rows
        shift = batch.row_offsets[:-1] + n_div - c_start
        rows_c = np.where(
            rows[..., nmk:] < len(rhs), rows[..., nmk:] - shift[pp][:, None, None], n_c_all
        )
        c_rows = np.repeat(shift, n_c) + np.arange(n_c_all)   # stacked row per c row
        side = batch.masked_side

        # the d rows, the same in both tensor rows, and the c rows of each
        # (shape, masked side): the condensed blocks are built once per such
        # variant and scaled per pair by its rows' scales
        shapes = batch.shapes
        used, shape_of = np.unique(shapes.index, return_inverse=True)
        K, minv = _shape_products(shapes.rows[used], shapes.gram[used])
        variants, variant = np.unique(shape_of[batch.table] * 4 + side + 1, return_inverse=True)
        v_shape, v_side = np.divmod(variants, 4)
        v_side -= 1
        d_idx = _d_rows(k, v_side)[:, None, None, :]          # (n_v, 1, 1, n_d)
        v = v_shape[:, None, None, None]
        r = np.arange(2)[:, None, None]
        kdd = K[v, r[:1], d_idx.swapaxes(2, 3), d_idx]
        kcd = K[v, r, np.arange(nmk, K.shape[-1])[:, None], d_idx]
        comp = K[v_shape, :, nmk:, nmk:]
        del K
        unmasked = v_side < 0
        kdd[unmasked, :, nmk:] = 0.0
        kdd[unmasked, :, :, nmk:] = np.eye(d_idx.shape[-1])[:, nmk:]
        kcd[unmasked, :, :, nmk:] = 0.0
        kdd_inv = np.linalg.inv(kdd)
        del kdd
        # K_cc - K_cd K_dd^-1 K_dc; a chunk's per-pair arrays set the peak
        # memory of a step, so K_dd^-1 K_dc is not kept
        np.subtract(comp, kcd @ (kdd_inv @ kcd.swapaxes(2, 3)), out=comp)

        # per pair: K = diag(s) K_shape diag(s) with the row scales s, a unit
        # scale on the unit block of a pair without masked side
        scale = shapes.row_scale[batch.table]
        s_d = np.take_along_axis(scale, _d_rows(k, side), axis=1)
        s_d[side < 0, nmk:] = 1.0
        s_c = scale[:, None, nmk:]
        kdd_inv = np.take(kdd_inv, variant, axis=0)
        kdd_inv /= s_d[:, None, :, None] * s_d[:, None, None, :]
        kcd = np.take(kcd, variant, axis=0)
        kcd *= s_c[..., :, None] * s_d[:, None, None, :]
        f = shapes.dof_scale
        minv = np.take(minv, shape_of, axis=0)
        minv *= f[:, :, None] * f[:, None, :]
        s_offsets = np.concatenate([[0], np.cumsum(n_c * n_c)])
        pair_offsets = np.concatenate([[0], np.cumsum(n_elems)])
        S = np.empty(s_offsets[-1])
        # the complements scaled and scattered a quarter of the pairs at a
        # time, in whole patches, so that each entry of S sums the same
        # terms in the same order
        for lo, hi in _batches(n_elems, max(len(pp) // 4, 1)):
            q = slice(pair_offsets[lo], pair_offsets[hi])
            n_s = s_offsets[hi] - s_offsets[lo]
            local = rows_c[q] - c_start[pp[q]][:, None, None]
            entry = local[..., :, None] * n_c[pp[q], None, None, None] + local[..., None, :]
            entry += (s_offsets[:-1] - s_offsets[lo])[pp[q], None, None, None]
            pad = rows_c[q] == n_c_all
            entry[pad[..., :, None] | pad[..., None, :]] = n_s
            reduced = np.take(comp, variant[q], axis=0)
            reduced *= s_c[q, ..., :, None] * s_c[q, ..., None, :]
            S[s_offsets[lo] : s_offsets[hi]] = _scatter_rows(reduced, entry, n_s)
        return Reduction(minv, kdd_inv, kcd, side, rows_c, c_rows, S, s_offsets[:-1], n_c, c_start)

    def _condensed_stack(self, batch: PatchBatch) -> BatchSolution:
        """Condensed Schur-complement solve of a batch (:meth:`_reduce`),
        without fallback: ``fallback`` marks the patches whose row norms
        span too wide, whose factorizations failed or stopped before the
        structural rank, or that fail a gate.  When :meth:`_reduce` raises
        LinAlgError, it marks every patch of the batch, with zeros in the
        other fields.  Only the pivoted Cholesky and its solves run patch by
        patch.

        The multipliers of the d rows follow per block, and x = M^-1 L^T lam
        by two products per element table over the pairs that read it; the
        masked entries of x are set to 0 before the gates.  The row norms
        and the scales of the gates are those of the dense problem, read
        from the tables by :func:`_pair_maxima`.
        """
        k, rows, rhs = batch.k, batch.block_rows, batch.rhs
        n = len(batch.vertex)
        n_pairs, nd = batch.free.shape
        pp, t, slot = batch.pair_patch, batch.table, batch.slot
        nmk = len(_exps_array(k))
        L = batch.table_rows
        n_elems = np.bincount(pp, minlength=n)
        pair_start = np.cumsum(n_elems) - n_elems
        starts = batch.row_offsets[:-1]

        gram_max, row_max, row_sq = _pair_maxima(batch)
        row_norms = np.sqrt(_scatter_rows(row_sq, rows, len(rhs)))
        wide = np.minimum.reduceat(row_norms, starts) < _ROW_NORM_SPAN * np.maximum.reduceat(
            row_norms, starts
        )
        del row_sq, row_norms
        try:
            minv, kdd_inv, kcd, side, rows_c, c_rows, S, s_start, n_c, c_start = self._reduce(batch)
        except np.linalg.LinAlgError:
            return BatchSolution(
                np.zeros((n_pairs, 2, nd)), np.zeros((n_pairs,) + L.shape[1:3]),
                np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool), np.zeros(n), np.zeros(n),
            )
        n_c_all = len(c_rows)
        c_patch = np.repeat(np.arange(n), n_c)
        diagonal = s_start[c_patch] + (np.arange(n_c_all) - c_start[c_patch]) * (n_c[c_patch] + 1)
        d = 1.0 / np.sqrt(S[diagonal])
        # a patch without displacement side drops its three rigid-motion rows
        rank = n_c - 3 * ~batch.dirichlet_touching
        ok = ~wide
        kept = np.zeros(n_c_all, dtype=bool)
        factors = []
        for p in range(n):
            m, c0 = n_c[p], c_start[p]
            Sp = S[s_start[p] : s_start[p] + m * m].reshape(m, m)
            Sp *= d[c0 : c0 + m, None]
            Sp *= d[c0 : c0 + m]
            # tol 0: the pivots choose the rows, and only a non-positive
            # pivot stops the factorization
            c, piv, positive, _ = scipy.linalg.lapack.dpstrf(Sp, tol=0.0, lower=1, overwrite_a=1)
            r = min(positive, rank[p])
            ok[p] &= r == rank[p]
            keep = c0 + piv[:r] - 1
            kept[keep] = True
            # the kept factor, column-major, in the first entries of Sp
            factor = S[s_start[p] : s_start[p] + r * r].reshape(r, r).T
            factor[...] = c[:r, :r]
            factors.append((factor, keep))

        def multipliers(res_d, res_c):
            """Multipliers (d rows (n_pairs, 2, n_d), c rows (n_c_all,)) of
            the residual: zero on the dropped c rows."""
            yd = kdd_inv @ res_d[..., None]
            scaled = d * (res_c - _scatter_rows((kcd @ yd)[..., 0], rows_c, n_c_all))
            lam_c = np.zeros(n_c_all)
            for c, keep in factors:
                if len(keep):
                    step, _ = scipy.linalg.lapack.dpotrs(c, scaled[keep], lower=1)
                    lam_c[keep] = d[keep] * step
            local = _gather_rows(lam_c, rows_c)[..., None]
            return (yd - kdd_inv @ (kcd.swapaxes(2, 3) @ local))[..., 0], lam_c

        def per_table(v, *tables):
            """The product of the tables of each pair with v, as products
            per table whose columns are the slots of its pairs."""
            V = np.zeros((len(L), 2, v.shape[2], 3))
            V[t, :, :, slot] = v
            for A in reversed(tables):
                V = A @ V
            return V[t, :, :, slot]

        q_m = np.flatnonzero(side >= 0)
        m_pos = nmk + (k + 1) * side[q_m, None, None] + np.arange(k + 1)
        Lt = L.swapaxes(2, 3)

        def primal(lam_d, lam_c):
            """x, zero on the masked dofs, and the multipliers of the
            constraint rows per local row."""
            lam = np.concatenate([lam_d[..., :nmk], _gather_rows(lam_c, rows_c)], axis=2)
            full = lam.copy()
            full[q_m[:, None, None], np.arange(2)[:, None], m_pos] = lam_d[q_m, :, nmk:]
            x = per_table(full, minv[:, None], Lt)
            x[~np.broadcast_to(batch.free[:, None], x.shape)] = 0.0
            return x, lam

        rhs_d, rhs_c = rhs[rows[..., :nmk]], rhs[c_rows]

        def residuals(x):
            lx = per_table(x, L)                                # (n_pairs, 2, n_loc)
            return rhs_d - lx[..., :nmk], rhs_c - _scatter_rows(lx[..., nmk:], rows_c, n_c_all)

        # one refinement step; the masked moments keep a zero residual
        zero_m = np.zeros((n_pairs, 2, kdd_inv.shape[-1] - nmk))
        lam_d, lam_c = 0.0, 0.0
        res_d, res_c = rhs_d, rhs_c
        for _ in range(2):
            step_d, step_c = multipliers(np.concatenate([res_d, zero_m], axis=2), res_c)
            lam_d, lam_c = lam_d + step_d, lam_c + step_c
            x, lam = primal(lam_d, lam_c)
            res_d, res_c = residuals(x)

        # the gates of the QR+LU path, on its KKT system of the kept rows
        # (multipliers -lam), evaluated block by block; patch p's rows are
        # stacked from row_offsets[p] on, its pairs from pair_start[p] on
        kept_rows = np.ones(len(rhs), dtype=bool)
        kept_rows[c_rows] = kept
        resid = np.empty(len(rhs))
        resid[rows[..., :nmk]] = res_d
        resid[c_rows] = res_c
        stationarity = per_table(x, batch.table_gram[:, None]) - per_table(lam, Lt)
        stationarity[~np.broadcast_to(batch.free[:, None], x.shape)] = 0.0
        a_max = np.maximum(
            np.maximum.reduceat(gram_max, pair_start),
            _segment_max(row_max * _gather_rows(kept_rows, rows, pad=False), pair_start),
        )
        lam_max = np.maximum(
            _segment_max(np.abs(lam[..., :nmk]), pair_start),
            np.maximum.reduceat(np.abs(lam_c), c_start),
        )
        denom = np.maximum(
            np.maximum(
                _segment_norm(np.where(kept_rows, rhs, 0.0), starts),
                a_max * np.maximum(_segment_max(np.abs(x), pair_start), lam_max),
            ),
            1e-300,
        )
        kkt_rel = np.hypot(
            _segment_norm(stationarity, pair_start),
            _segment_norm(np.where(kept_rows, resid, 0.0), starts),
        ) / denom
        residual = np.maximum.reduceat(np.abs(resid), starts)
        ok &= (kkt_rel <= _KKT_RTOL) & (residual <= _RESIDUAL_RTOL * self.scale)
        return BatchSolution(x, lam, n_elems * 2 * nmk + rank, ~ok, residual, kkt_rel)

    def solve_patch(self, problem: PatchProblem) -> tuple[np.ndarray, int, float]:
        """The dense patch solve, the fallback of :meth:`_solve_batch`: drop
        redundant rows by rank-revealing QR with a threshold relative to the
        largest row norm, then solve the reduced KKT system by dense LU.
        Returns the minimizer on the free columns, the rank and the relative
        KKT residual; raises IncompatiblePatch when a residual gate fails."""
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
                f"patch at vertex {problem.vertex}: KKT solve failed ({exc})"
            )
        denom = max(
            float(np.linalg.norm(full_rhs)),
            float(np.abs(kkt).max() * np.abs(sol).max()),
            1e-300,
        )
        kkt_rel = float(np.linalg.norm(kkt @ sol - full_rhs)) / denom
        if not np.isfinite(kkt_rel) or kkt_rel > _KKT_RTOL:
            raise IncompatiblePatch(
                f"patch at vertex {problem.vertex}: KKT relative residual "
                f"{kkt_rel:.3e} exceeds {_KKT_RTOL:g}"
            )
        x = sol[:n_free]
        resid = float(np.max(np.abs(B @ x - rhs))) if B.size else 0.0
        if resid > _RESIDUAL_RTOL * self.scale:
            raise IncompatiblePatch(
                f"patch at vertex {problem.vertex}: constraint residual "
                f"{resid:.3e} exceeds {_RESIDUAL_RTOL:g} * scale "
                f"(scale {self.scale:.3e})"
            )
        return x, rank, kkt_rel

    # -- reconstruction ---------------------------------------------------------

    def correction(self) -> BrokenField:
        """Sum of all patch corrections, solved in chunks of consecutive
        patches and scattered in patch-vertex order."""
        disc = self.disc
        patches = self.patches
        dofs = np.zeros((disc.mesh.n_triangles, 2, rt_dim(disc.k)))
        residual = np.zeros(len(patches))
        dropped = np.zeros(len(patches), dtype=np.int64)
        self.n_patches = len(patches)
        self.n_batches = self.n_fallbacks = 0
        self.worst_kkt = 0.0
        for start, batch in self._batches():
            sol = self._solve_batch(batch)
            ids = slice(start, start + len(batch.vertex))
            self.n_batches += 1
            self.n_fallbacks += int(sol.fallback.sum())
            self.worst_kkt = max(self.worst_kkt, float(sol.kkt.max()))
            residual[ids] = sol.residual
            dropped[ids] = np.diff(batch.row_offsets) - sol.rank
            # x is zero on the dofs that are not free, so adding it whole
            # leaves every sum bitwise as over the free dofs alone
            np.add.at(dofs, batch.elements, sol.x)
            del batch  # before the next batch is built
        self.dropped_rows = dict(zip(*(v.tolist() for v in np.unique(dropped, return_counts=True))))
        if patches:
            worst = int(np.argmax(residual))
            self.worst_residual = float(residual[worst]) / self.scale
            self.worst_vertex = int(patches.vertex[worst])
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


# -- verification -----------------------------------------------------------------


@dataclass
class EquilibrationReport:
    """Pointwise residual maxima of a reconstruction, plus the scale.

    A correct reconstruction passes the gate
    ``max_residual <= VERIFY_RTOL * scale``:
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
    needed to pin down a degree-k polynomial).  The stress tables are built
    here, element by element from each element's own shape, not read from
    ``disc``, whose tables are built per shape class: the check does not
    rest on the class tables.
    """
    mesh, k = disc.mesh, disc.k
    npts = k + 2
    tpts = (np.arange(npts) + 1.0) / (npts + 1.0)

    div_res = 0.0
    sym_acc = np.zeros(disc.pressure.n_scalar)
    jump = np.zeros((mesh.n_sides, npts, 2))
    for elems in element_chunks(mesh.n_triangles):
        tb = build_stress_tables(mesh, k, elems)
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
        _scatter_jumps(mesh, tb, tr, jump)

        # weak-symmetry accumulation over the continuous scalar hats:
        # (sigma_01 - sigma_10, hat_a) on each element
        vals = sigma_r.values(tb)
        # einsum "eq,eq,qa->ea"
        contrib = (tb.vol_w * (vals[..., 0, 1] - vals[..., 1, 0])) @ lagrange_values(k, tb.vol_ref)
        np.add.at(sym_acc, disc.pressure.element_dofs[tb.elems], contrib)

    interior = mesh.side_label == INTERIOR
    jump_res = float(np.max(np.abs(jump[interior]), initial=0.0))

    neu_res = 0.0
    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size:
        _, pg = load.projected_traction(mesh, nsides, k, tpts)
        neu_res = float(np.max(np.abs(jump[nsides] - pg), initial=0.0))

    _check_scale(scale)
    return EquilibrationReport(
        div_residual=div_res,
        jump_residual=jump_res,
        neumann_residual=neu_res,
        symmetry_residual=float(np.max(np.abs(sym_acc), initial=0.0)),
        scale=scale,
    )
