"""Independent reference implementations used only by tests.

Everything here is deliberately written against the *mathematical*
definitions with generic dense tools (high-order quadrature, pseudo-
inverses), sharing as little code as possible with the production path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from stresseq import (
    Discretization,
    assemble_system,
    elasticity,
    reference_energy_errors,
    refine,
    solve,
)
from stresseq.equilibration import Equilibrator, PatchBatch, PatchProblem, TableShapes, _selectors
from stresseq.errors import IsolatedNeumannVertex, ProblemError
from stresseq.mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    Mesh,
    Patches,
    _assemble,
)
from stresseq.spaces import _dof_signs, _exps_array, legendre01, rt_dim, side_rule, triangle_rule


def dense_kkt_minimizer(problem: PatchProblem) -> np.ndarray:
    """Minimum-norm solution of the patch problem via one dense pseudo-inverse.

    Solves  min 1/2 x^T M x  s.t.  B x = r  with ALL constraint rows kept
    (redundant ones included) through the KKT system pseudo-inverse; the
    primal block of any least-squares KKT solution is the unique minimizer
    whenever the constraints are consistent.
    """
    m, b, r = problem.mass, problem.constraints, problem.rhs
    n, nr = m.shape[0], b.shape[0]
    kkt = np.zeros((n + nr, n + nr))
    kkt[:n, :n] = m
    kkt[:n, n:] = b.T
    kkt[n:, :n] = b
    rhs = np.concatenate([np.zeros(n), r])
    sol = np.linalg.pinv(kkt, rcond=1e-12) @ rhs
    return sol[:n]


def dense_patch_constraints(eq: Equilibrator, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix and right-hand side of patch ``i`` of
    ``eq.patches``, written straight into the dense matrix by index
    arithmetic on the constraint tables.

    Rows and columns are ordered as in :class:`PatchProblem`; the columns
    are the free dofs in (element, tensor row, dof) order.
    """
    disc = eq.disc
    mesh, k = disc.mesh, disc.k
    patches = eq.patches
    elements = patches.elements[patch_pairs(patches, i)]
    tables = disc.element_constraints(elements, _dof_signs(mesh, elements, k))
    z = patches.vertex[i]
    ne, nd, nmk = len(elements), rt_dim(k), len(_exps_array(k))

    sides = mesh.tri_sides[elements]                             # (ne, 3)
    partner = mesh.side_tri[sides][..., None]                    # (ne, 3, 2, 1)
    both_in = (partner == elements).any(3).all(2)
    labels = mesh.side_label[sides]
    on_active = both_in | (labels == NEUMANN)
    free = np.ones((ne, nd), dtype=bool)
    free[:, : 3 * (k + 1)] = np.repeat(both_in | (labels != INTERIOR), k + 1, axis=1)

    live = np.broadcast_to(free[:, None, :], (ne, 2, nd)).ravel()
    n_free = int(live.sum())
    free_col = np.full(ne * 2 * nd, -1, dtype=np.int64)
    free_col[live] = np.arange(n_free)
    cols = np.where(free_col >= 0, free_col, n_free).reshape(ne, 2, nd)

    e_loc, j_loc = np.nonzero(on_active)
    s = sides[e_loc, j_loc]
    active = np.unique(s)
    ed_p = disc.pressure.element_dofs[elements]                  # (ne, nlk)
    nodes = np.unique(ed_p)
    n_div = ne * 2 * nmk
    n_jump = len(active) * 2 * (k + 1)
    n_rows = n_div + n_jump + len(nodes)

    # padded matrix: column n_free collects dead-dof entries
    B = np.zeros((n_rows, n_free + 1))
    rows_div = np.arange(n_div).reshape(ne, 2, nmk)
    B[rows_div[..., None], cols[:, :, None, :]] = tables.divm[:, None]

    r = np.arange(2)[:, None]
    m = np.arange(k + 1)
    rows_jump = n_div + (np.searchsorted(active, s)[:, None, None] * 2 + r) * (k + 1) + m
    cols_jump = cols[e_loc[:, None, None], r, j_loc[:, None, None] * (k + 1) + m]
    sign = np.where(mesh.side_tri[s, 0] == elements[e_loc], 1.0, -1.0)
    B[rows_jump, cols_jump] = sign[:, None, None]

    rows_sym = n_div + n_jump + np.searchsorted(nodes, ed_p)     # (ne, nlk)
    B[rows_sym[..., None], cols[:, None, 0, :]] = tables.symy
    B[rows_sym[..., None], cols[:, None, 1, :]] = -tables.symx

    group = np.concatenate([[z], absorbed(patches, i)])
    w = np.isin(mesh.sides[active], group)
    rhs = np.zeros(n_rows)
    rdiv = eq.rhs_tables.rdiv[elements]                          # (ne, 3, 2, nmk)
    weights = patches.weights[patch_pairs(patches, i)]
    rhs[:n_div] = np.einsum("ea,earb->erb", weights, rdiv).ravel()
    rhs[n_div : n_div + n_jump] = np.einsum(
        "sa,sarm->srm", w, eq.rhs_tables.rjump[active]
    ).ravel()
    return np.ascontiguousarray(B[:, :n_free]), rhs


def vertex_triangles(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style map vertex -> incident triangle ids (ascending)."""
    order = np.argsort(mesh.triangles.ravel(), kind="stable")
    ids = np.repeat(np.arange(mesh.n_triangles), 3)[order]
    counts = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
    return np.concatenate([[0], np.cumsum(counts)]), ids


def patch_pairs(patches: Patches, i: int) -> slice:
    """The (patch, element) pairs of patch ``i``."""
    return slice(int(patches.offsets[i]), int(patches.offsets[i + 1]))


def absorbed(patches: Patches, i: int) -> np.ndarray:
    """The vertices, ascending, whose hats are folded into the weight of
    patch ``i``."""
    z = patches.vertex[i]
    folded = np.flatnonzero(patches.owner == z)
    return folded[folded != z]


def reference_patches(mesh: Mesh, modified: bool) -> Patches:
    """The vertex patches, built one vertex group at a time.

    The per-vertex form of :func:`stresseq.mesh.standard_patches` and, when
    ``modified``, of :func:`stresseq.mesh.modified_patches`: each
    traction-only vertex is assigned, by a scan of the side table, to the
    lowest-numbered neighbour off the traction boundary; each remaining
    vertex z gets the group of z and the vertices assigned to it, whose
    patch is the union of the group's vertex stars, weighted by the hats of
    the group.  Vertices in no triangle carry no patch.  Both must give
    bitwise the same record.
    """
    _, on_n_only = mesh.vertex_flags()
    if not modified:
        on_n_only[:] = False
    offsets, ids = vertex_triangles(mesh)
    assigned: dict[int, list[int]] = {}
    for z_n in np.flatnonzero(on_n_only):
        nbrs = np.concatenate(
            [
                mesh.sides[mesh.sides[:, 0] == z_n, 1],
                mesh.sides[mesh.sides[:, 1] == z_n, 0],
            ]
        )
        eligible = nbrs[~on_n_only[nbrs]]
        if eligible.size == 0:
            raise IsolatedNeumannVertex(
                f"traction vertex {int(z_n)} has no eligible neighbour"
            )
        assigned.setdefault(int(eligible.min()), []).append(int(z_n))
    owner = np.arange(mesh.n_vertices)
    vertex, elements, weights, touching = [], [], [], []
    for z in np.flatnonzero(~on_n_only):
        group = [int(z)] + sorted(assigned.get(int(z), []))
        owner[group] = z
        members = np.unique(
            np.concatenate([ids[offsets[v] : offsets[v + 1]] for v in group])
        )
        if not members.size:
            continue
        labels = mesh.side_label[mesh.tri_sides[members]]
        vertex.append(z)
        elements.append(members)
        weights.append(np.isin(mesh.triangles[members], group).astype(np.float64))
        touching.append(bool((labels == DIRICHLET).any()))
    return Patches(
        vertex=np.array(vertex, dtype=np.int64),
        offsets=np.concatenate([[0], np.cumsum([len(e) for e in elements])]),
        elements=np.concatenate(elements),
        weights=np.concatenate(weights),
        owner=owner,
        dirichlet_touching=np.array(touching),
    )


class CondensedReference(NamedTuple):
    """The condensed solve of a batch, built pair by pair."""

    wide: np.ndarray        # (P,) row norms spanning more than 8 decades
    reduced: list           # per patch, its reduced matrix (unscaled)
    lam: np.ndarray         # (n_pairs, 2, n_loc) multipliers
    x: np.ndarray           # (n_pairs, 2, nd)
    rank: np.ndarray        # (P,) rows kept
    fallback: np.ndarray    # (P,) wide, or failing a factorization or a gate


def reference_condensed(eq: Equilibrator, batch: PatchBatch) -> CondensedReference:
    """The condensed patch solve of a batch with one masked Gram matrix per
    (patch, element) pair.

    Each pair inverts its element's Gram matrix with the masked dofs
    replaced by the identity, H = M^-1 L^T and K = L H on its local block
    L (the element rows on the free dofs), condenses the divergence rows
    onto the jump and symmetry rows, and sums the complements into each
    patch's reduced matrix; the pivoted Cholesky, the Jacobi scaling, the
    two multiplier passes and the KKT and residual gates follow as in the
    production path, whose thresholds this repeats.  A patch keeps all
    rows but three when none of its elements has a side on the displacement
    boundary, found from the side labels.
    """
    L, rows, rhs = batch.blocks(slice(None)), batch.block_rows, batch.rhs
    gram = batch.table_gram[batch.table]
    n_pairs, _, _, nd = L.shape
    n = len(batch.vertex)
    pp = batch.pair_patch
    nmk = len(_exps_array(batch.k))
    starts = batch.row_offsets[:-1]
    sq = np.einsum("qrld,qrld->qrl", L, L)
    row_norms = np.sqrt(np.bincount(rows.ravel(), sq.ravel(), minlength=len(rhs) + 1)[:-1])
    wide = np.minimum.reduceat(row_norms, starts) < 1e-8 * np.maximum.reduceat(row_norms, starts)

    n_elems = np.bincount(pp, minlength=n)
    pair_start = np.cumsum(n_elems) - n_elems
    n_div = n_elems * 2 * nmk
    n_c = np.diff(batch.row_offsets) - n_div
    c_start = np.cumsum(n_c) - n_c
    n_c_all = int(n_c.sum())
    shift = starts + n_div - c_start
    c_rows = np.repeat(shift, n_c) + np.arange(n_c_all)
    rows_c = np.where(
        rows[..., nmk:] < len(rhs), rows[..., nmk:] - shift[pp][:, None, None], n_c_all
    )

    def scatter(values, at):
        return np.bincount(at.ravel(), values.ravel(), minlength=n_c_all + 1)[:n_c_all]

    def gather(values, at, pad=0.0):
        return np.append(values, pad)[at]

    rhs_d, rhs_c = rhs[rows[..., :nmk]], rhs[c_rows]
    live = batch.free[:, :, None] & batch.free[:, None, :]
    mass = np.where(live, gram, np.eye(nd))[:, None]
    H = np.linalg.inv(mass) @ L.swapaxes(2, 3)
    K = L @ H
    kdd_inv = np.linalg.inv(K[..., :nmk, :nmk])
    kcd = K[..., nmk:, :nmk]
    W = kdd_inv @ K[..., :nmk, nmk:]
    complements = K[..., nmk:, nmk:] - kcd @ W
    reduced = [np.zeros((m, m)) for m in n_c]
    for q in range(n_pairs):
        p = pp[q]
        for r in range(2):
            at = rows_c[q, r] - c_start[p]
            on = rows_c[q, r] < n_c_all
            reduced[p][np.ix_(at[on], at[on])] += complements[q, r][np.ix_(on, on)]

    d = np.concatenate([1.0 / np.sqrt(np.diag(S)) for S in reduced])
    touching = [touches_displacement(eq.disc.mesh, batch.elements[pp == p]) for p in range(n)]
    rank = n_c - 3 * ~np.array(touching)
    ok = np.ones(n, dtype=bool)
    kept = np.zeros(n_c_all, dtype=bool)
    factors = []
    for p, S in enumerate(reduced):
        c0, m = c_start[p], n_c[p]
        scaled = S * d[c0 : c0 + m, None] * d[c0 : c0 + m]
        c, piv, positive, _ = scipy.linalg.lapack.dpstrf(scaled, tol=0.0, lower=1)
        ok[p] = positive >= rank[p]
        keep = c0 + piv[: min(positive, rank[p])] - 1
        kept[keep] = True
        factors.append((c[: len(keep), : len(keep)], keep))

    def multipliers(res_d, res_c):
        yd = kdd_inv @ res_d[..., None]
        scaled = d * (res_c - scatter((kcd @ yd)[..., 0], rows_c))
        lam_c = np.zeros(n_c_all)
        for c, keep in factors:
            if len(keep):
                lam_c[keep] = d[keep] * scipy.linalg.lapack.dpotrs(c, scaled[keep], lower=1)[0]
        return (yd - W @ gather(lam_c, rows_c)[..., None])[..., 0], lam_c

    lam_d = np.zeros((n_pairs, 2, nmk))
    lam_c = np.zeros(n_c_all)
    res_d, res_c = rhs_d, rhs_c
    for _ in range(2):
        step_d, step_c = multipliers(res_d, res_c)
        lam_d += step_d
        lam_c += step_c
        lam = np.concatenate([lam_d, gather(lam_c, rows_c)], axis=2)
        x = (H @ lam[..., None])[..., 0]
        lx = (L @ x[..., None])[..., 0]
        res_d = rhs_d - lx[..., :nmk]
        res_c = rhs_c - scatter(lx[..., nmk:], rows_c)

    def segment_max(values, at):
        return np.maximum.reduceat(values.reshape(len(values), -1).max(axis=1), at)

    def segment_norm(values, at):
        return np.sqrt(np.add.reduceat((values * values).reshape(len(values), -1).sum(axis=1), at))

    resid = np.empty(len(rhs))
    resid[rows[..., :nmk]] = res_d
    resid[c_rows] = res_c
    kept_rows = np.ones(len(rhs), dtype=bool)
    kept_rows[c_rows] = kept
    kept_local = gather(kept_rows, rows, pad=False)
    stationarity = (mass @ x[..., None])[..., 0] - (lam[..., None, :] @ L)[..., 0, :]
    a_max = np.maximum(
        segment_max(np.abs(gram) * live, pair_start),
        segment_max(np.abs(L).max(axis=3) * kept_local, pair_start),
    )
    lam_max = np.maximum(
        segment_max(np.abs(lam_d), pair_start), np.maximum.reduceat(np.abs(lam_c), c_start)
    )
    denom = np.maximum(
        np.maximum(
            segment_norm(np.where(kept_rows, rhs, 0.0), starts),
            a_max * np.maximum(segment_max(np.abs(x), pair_start), lam_max),
        ),
        1e-300,
    )
    kkt_rel = np.hypot(
        segment_norm(stationarity, pair_start),
        segment_norm(np.where(kept_rows, resid, 0.0), starts),
    ) / denom
    residual = np.maximum.reduceat(np.abs(resid), starts)
    ok &= (kkt_rel <= 1e-10) & (residual <= 1e-9 * eq.scale)
    return CondensedReference(wide, reduced, lam, x, n_div + rank, ~ok | wide)


def touches_displacement(mesh: Mesh, elements: np.ndarray) -> bool:
    """Whether some side of the ``elements`` lies on the displacement
    boundary."""
    return bool((mesh.side_label[mesh.tri_sides[elements]] == DIRICHLET).any())


def batch_of(mesh: Mesh, *problems: PatchProblem) -> PatchBatch:
    """The batch of the patch problems on ``mesh``, in order, each pair on
    a table of its own: the rows read from the dense constraint matrix, and
    a unit selector on each side without jump rows; each table is its own
    shape.  The inverse of
    :meth:`PatchBatch.problem`, for feeding modified dense problems to the
    batch solve."""
    nmk, sel = _selectors(problems[0].k)
    n_rows = np.array([len(p.rhs) for p in problems])
    row_offsets = np.concatenate([[0], np.cumsum(n_rows)])
    rows, block_rows = [], []
    for p, lo in zip(problems, row_offsets):
        n, n_free = p.constraints.shape
        dense = np.zeros((n + 1, n_free + 1))
        dense[:n, :n_free] = p.constraints
        cols = np.where(p.free_col >= 0, p.free_col, n_free)
        rows.append(dense[p.block_rows[..., :, None], cols[:, :, None, :]])
        pad = p.block_rows[..., nmk + sel] == n
        rows[-1][..., nmk + sel, sel] += pad
        block_rows.append(np.where(p.block_rows == n, row_offsets[-1], p.block_rows + lo))
    n_elems = [len(p.elements) for p in problems]
    table_rows = np.concatenate(rows)
    table_gram = np.concatenate([p.gram for p in problems])
    n_tables, _, n_loc, nd = table_rows.shape
    return PatchBatch(
        vertex=np.array([p.vertex for p in problems]),
        dirichlet_touching=np.array([touches_displacement(mesh, p.elements) for p in problems]),
        k=problems[0].k,
        pair_patch=np.repeat(np.arange(len(problems)), n_elems),
        elements=np.concatenate([p.elements for p in problems]),
        free=np.concatenate([p.free_col[:, 0] >= 0 for p in problems]),
        table=np.arange(sum(n_elems)),
        slot=np.zeros(sum(n_elems), dtype=np.int64),
        table_gram=table_gram,
        table_rows=table_rows,
        # each table its own shape, unscaled
        shapes=TableShapes(
            table_rows, table_gram, np.arange(n_tables), np.ones((n_tables, n_loc)),
            np.ones((n_tables, nd)),
        ),
        block_rows=np.concatenate(block_rows),
        row_offsets=row_offsets,
        rhs=np.concatenate([p.rhs for p in problems]),
        jump_sides=np.concatenate([p.jump_sides for p in problems]),
        side_offsets=np.cumsum([0] + [len(p.jump_sides) for p in problems]),
        sym_nodes=np.concatenate([p.sym_nodes for p in problems]),
        node_offsets=np.cumsum([0] + [len(p.sym_nodes) for p in problems]),
    )


def production_minimizer(eq: Equilibrator, problem: PatchProblem) -> np.ndarray:
    """The minimizer of the production batch solve, fallback included, on
    the free columns of ``problem``."""
    return eq._solve_batch(batch_of(eq.disc.mesh, problem)).x[problem.free_col >= 0]


def mass_norm(problem: PatchProblem, x: np.ndarray) -> float:
    return float(np.sqrt(x @ problem.mass @ x))


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
    out = np.zeros((3, problem.constraints.shape[0]))
    zc = mesh.vertices[problem.vertex]
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


def compatibility_residual(problem: PatchProblem, mesh: Mesh) -> tuple[np.ndarray, float]:
    """Dot products of the rhs with the three null vectors, and the norm of
    the rhs projection onto their (orthonormalized) span."""
    nv = null_space_vectors(problem, mesh)
    dots = nv @ problem.rhs
    q, _ = np.linalg.qr(nv.T)
    proj = float(np.linalg.norm(q.T @ problem.rhs))
    return dots, proj


def full_saddle_matrix(disc: Discretization, material, load) -> sp.csr_matrix:
    """The saddle-point matrix over all dofs, Dirichlet rows and columns
    included: the COO -> CSR sum of the element triplets, of which
    ``assemble_system`` keeps only the free-dof block."""
    (rows, cols, data), _, _ = elasticity._element_triplets(disc, material, load)
    n = disc.displacement.n_dofs + disc.pressure.n_scalar
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def reference_side_traces(disc: Discretization, field) -> tuple[np.ndarray, np.ndarray]:
    """Normal traces at the side quadrature points as two per-side arrays,
    (trace_minus, trace_plus), each (n_sides, nqs, 2), the plus trace of a
    boundary side zero: the pair that ``side_jumps`` folds into one jump."""
    mesh = disc.mesh
    nqs = len(side_rule(disc.k)[0])
    tminus = np.zeros((mesh.n_sides, nqs, 2))
    tplus = np.zeros((mesh.n_sides, nqs, 2))
    for tb in disc.stress_chunks:
        nb = tb.normal_basis()
        ne, _, _, nd = nb.shape
        tr = nb.reshape(ne, -1, nd) @ field.dofs[tb.elems].swapaxes(1, 2)
        tr = tr.reshape(ne, 3, nqs, 2)
        is_minus = mesh.side_tri[tb.side_ids, 0] == tb.elems[:, None]
        for j in range(3):
            s = tb.side_ids[:, j]
            m = is_minus[:, j]
            tminus[s[m]] = tr[m, j]
            tplus[s[~m]] = tr[~m, j]
    return tminus, tplus


def quad_integrate(mesh: Mesh, elems, func, degree: int = 20) -> np.ndarray:
    """Per-element integral of ``func(x) -> (...)`` by a dense volume rule."""
    rq, rw = triangle_rule(degree)
    elems = np.asarray(elems)
    p = mesh.vertices[mesh.triangles[elems]]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    xq = p[:, None, 0, :] + np.einsum("qr,edr->eqd", rq, jac)
    vals = func(xq)
    w = 2.0 * mesh.areas[elems][:, None] * rw[None, :]
    return np.einsum("eq,eq...->e...", w, vals)


def poly_integral_unit_triangle(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    import math

    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# Uniform bisection rounds of the reference mesh in uniform_reference_errors.
# Against the exact errors of manufactured_smooth (8 adaptive steps,
# inv_lambda 0 and 0.5), 2 rounds are up to 2.7 % off on the last steps and
# 3 rounds within 0.52 %; each round quadruples the reference solve.
REFERENCE_ROUNDS = 3


def uniform_reference_errors(history, problem) -> np.ndarray:
    """Energy error of every step of ``history`` against one reference solve.

    The reference is the discrete solution, at the run's degree, on the
    run's final mesh bisected uniformly ``REFERENCE_ROUNDS`` times.  Unlike
    the run's own finest level, this reference is finer than every step by
    at least that many uniform rounds, so the last steps are not measured
    against a solution that is barely finer than themselves.
    """
    chain = [step.mesh for step in history]
    for _ in range(REFERENCE_ROUNDS):
        chain.append(refine(chain[-1], np.arange(chain[-1].n_triangles)))
    disc = Discretization(chain[-1], history[-1].fields.disc.k)
    reference = solve(assemble_system(disc, problem.material, problem.load))
    return reference_energy_errors(
        [step.fields for step in history], reference, chain,
        problem.material,
    )


def reference_rotate_to_longest_edge(vertices, triangles):
    """The three-pass form of :func:`stresseq.mesh._rotate_to_longest_edge`:
    each edge in turn replaces the best one so far when it is longer, or as
    long with a larger sorted vertex pair.  Both must give bitwise the same
    triangles."""
    tri = triangles.copy()
    pts = vertices[tri]                                  # (nt, 3, 2)
    # edge j is (t[j], t[j+1]) for j = 0, 1, 2 (cyclic)
    nxt = np.roll(pts, -1, axis=1)
    lens = np.linalg.norm(nxt - pts, axis=2)             # (nt, 3)
    pair_lo = np.minimum(tri, np.roll(tri, -1, axis=1))
    pair_hi = np.maximum(tri, np.roll(tri, -1, axis=1))
    best = np.zeros(len(tri), dtype=np.int64)
    cur = np.full(len(tri), -np.inf)
    cur_lo = np.zeros(len(tri), dtype=np.int64)
    cur_hi = np.zeros(len(tri), dtype=np.int64)
    for j in range(3):
        better = (lens[:, j] > cur) | (
            (lens[:, j] == cur)
            & (
                (pair_lo[:, j] > cur_lo)
                | ((pair_lo[:, j] == cur_lo) & (pair_hi[:, j] > cur_hi))
            )
        )
        best[better] = j
        cur[better] = lens[better, j]
        cur_lo[better] = pair_lo[better, j]
        cur_hi[better] = pair_hi[better, j]
    out = tri.copy()
    for j in (1, 2):
        rows = best == j
        out[rows] = np.roll(tri[rows], -j, axis=1)
    return out


def reference_neighborhood_ratio(mesh: Mesh, eta_a, eta_b, eta_c, eta_r) -> float:
    """The per-element loop of :func:`stresseq.neighborhood_ratio`: each
    element's neighbours gathered from the vertex-to-triangle lists.  The
    sums run in another order, so the two agree to rounding."""
    offsets, ids = vertex_triangles(mesh)
    num = eta_a**2 + eta_b**2 + eta_c**2
    r_sq = eta_r**2
    worst = 0.0
    for e in range(mesh.n_triangles):
        nbrs = np.unique(
            np.concatenate([ids[offsets[v] : offsets[v + 1]] for v in mesh.triangles[e]])
        )
        den = float(np.sum(r_sq[nbrs]))
        if den > 0.0:
            worst = max(worst, num[e] / den)
    return worst


def reference_refine(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked elements; close recursively to stay conforming.

    The dict-based form of :func:`stresseq.refine`: an edge -> triangles
    map rebuilt on every split, and boundary labels kept per vertex pair.
    Both must give bitwise the same mesh.

    Newest-vertex bisection: a triangle ``(a, b, c)`` with refinement edge
    ``(a, b)`` splits at the edge midpoint ``m`` into ``(c, a, m)`` and
    ``(b, c, m)``, so each child's refinement edge is an unsplit edge of
    the parent.  An edge is only split when every triangle sharing it has
    it as its refinement edge, which the recursion establishes first.

    Returns a new mesh whose ``parent`` array maps each element to the
    element of ``mesh`` containing it.  ``refine(mesh, [])`` returns an
    equal mesh.  Raises ProblemError when the stored refinement edges admit
    no closure (for instance when they form a cycle).
    """
    marked = sorted({int(m) for m in np.asarray(marked, dtype=np.int64).ravel()})
    if marked and (marked[0] < 0 or marked[-1] >= mesh.n_triangles):
        raise ValueError("marked element index out of range")

    verts = [tuple(p) for p in mesh.vertices]
    tris = [list(t) for t in mesh.triangles]
    alive = [True] * len(tris)
    ancestor = list(range(len(tris)))

    adj: dict[tuple[int, int], list[int]] = {}
    for e, t in enumerate(tris):
        for i, j in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            adj.setdefault((min(i, j), max(i, j)), []).append(e)
    labels = {
        (int(lo), int(hi)): int(lab)
        for (lo, hi), lab in zip(mesh.sides, mesh.side_label)
        if lab != INTERIOR
    }

    def refedge(t):
        a, b = tris[t][0], tris[t][1]
        return (min(a, b), max(a, b))

    def split(edge, members):
        """Bisect all triangles in `members`, each having `edge` as its
        refinement edge."""
        m = len(verts)
        pa, pb = verts[edge[0]], verts[edge[1]]
        verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        lab = labels.pop(edge, None)
        if lab is not None:
            labels[(min(edge[0], m), max(edge[0], m))] = lab
            labels[(min(edge[1], m), max(edge[1], m))] = lab
        adj.pop(edge)
        for t in members:
            a, b, c = tris[t]
            alive[t] = False
            for i, j in ((a, b), (b, c), (c, a)):
                key = (min(i, j), max(i, j))
                if key in adj:
                    adj[key] = [x for x in adj[key] if x != t]
                    if not adj[key]:
                        del adj[key]
            for child in ([c, a, m], [b, c, m]):
                cid = len(tris)
                tris.append(child)
                alive.append(True)
                ancestor.append(ancestor[t])
                for i, j in (
                    (child[0], child[1]),
                    (child[1], child[2]),
                    (child[2], child[0]),
                ):
                    adj.setdefault((min(i, j), max(i, j)), []).append(cid)

    budget = 64 * (mesh.n_triangles + len(marked)) + 4096
    for root in marked:
        stack = [root]
        while stack:
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            e = refedge(t)
            partners = [x for x in adj.get(e, ()) if x != t and alive[x]]
            incompatible = [x for x in partners if refedge(x) != e]
            if incompatible:
                stack.append(incompatible[0])
            else:
                split(e, [t] + partners)
                stack.pop()
            budget -= 1
            if budget < 0:
                raise ProblemError(
                    "bisection closure did not terminate; "
                    "inconsistent refinement-edge labels"
                )

    new_tris = np.array(
        [t for t, a in zip(tris, alive) if a], dtype=np.int64
    ).reshape(-1, 3)
    new_parent = np.array(
        [p for p, a in zip(ancestor, alive) if a], dtype=np.int64
    )
    dirichlet = [e for e, lab in labels.items() if lab == DIRICHLET]
    neumann = [e for e, lab in labels.items() if lab == NEUMANN]
    dirichlet.sort()
    neumann.sort()
    return _assemble(
        np.array(verts, dtype=np.float64),
        new_tris,
        dirichlet,
        neumann,
        parent=new_parent,
        geometric_check=False,
    )
