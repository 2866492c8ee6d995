"""Independent reference implementations used only by tests.

Everything here is deliberately written against the *mathematical*
definitions with generic dense tools (high-order quadrature, pseudo-
inverses), sharing as little code as possible with the production path.
"""

from __future__ import annotations

import numpy as np

from stresseq import (
    Discretization,
    assemble_system,
    reference_energy_errors,
    refine,
    solve,
)
from stresseq.equilibration import Equilibrator, PatchProblem
from stresseq.mesh import INTERIOR, NEUMANN, Mesh, VertexPatch
from stresseq.spaces import _exps_array, rt_dim, triangle_rule


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


def dense_patch_constraints(
    eq: Equilibrator, patch: VertexPatch
) -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix and right-hand side of one patch, written straight
    into the dense matrix by index arithmetic on the constraint tables.

    Rows and columns are ordered as in :class:`PatchProblem`; the columns
    are the free dofs in (element, tensor row, dof) order.
    """
    disc, tables = eq.disc, eq.tables
    mesh, k = disc.mesh, disc.k
    elements = patch.elements
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
    B[rows_div[..., None], cols[:, :, None, :]] = tables.divm[elements][:, None]

    r = np.arange(2)[:, None]
    m = np.arange(k + 1)
    rows_jump = n_div + (np.searchsorted(active, s)[:, None, None] * 2 + r) * (k + 1) + m
    cols_jump = cols[e_loc[:, None, None], r, j_loc[:, None, None] * (k + 1) + m]
    sign = np.where(mesh.side_tri[s, 0] == elements[e_loc], 1.0, -1.0)
    B[rows_jump, cols_jump] = sign[:, None, None]

    rows_sym = n_div + n_jump + np.searchsorted(nodes, ed_p)     # (ne, nlk)
    B[rows_sym[..., None], cols[:, None, 0, :]] = tables.symy[elements]
    B[rows_sym[..., None], cols[:, None, 1, :]] = -tables.symx[elements]

    group = np.concatenate([[patch.vertex], patch.absorbed])
    w = np.isin(mesh.sides[active], group)
    rhs = np.zeros(n_rows)
    rdiv = eq.rhs_tables.rdiv[elements]                          # (ne, 3, 2, nmk)
    rhs[:n_div] = np.einsum("ea,earb->erb", patch.weights, rdiv).ravel()
    rhs[n_div : n_div + n_jump] = np.einsum(
        "sa,sarm->srm", w, eq.rhs_tables.rjump[active]
    ).ravel()
    return np.ascontiguousarray(B[:, :n_free]), rhs


def production_minimizer(eq: Equilibrator, problem: PatchProblem) -> np.ndarray:
    return eq.solve_patch(problem)


def mass_norm(problem: PatchProblem, x: np.ndarray) -> float:
    return float(np.sqrt(x @ problem.mass @ x))


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
    chain = list(history.meshes)
    for _ in range(REFERENCE_ROUNDS):
        chain.append(refine(chain[-1], np.arange(chain[-1].n_triangles)))
    disc = Discretization(chain[-1], history[-1].fields.disc.k)
    reference = solve(assemble_system(disc, problem.material, problem.load))
    return reference_energy_errors(
        [rec.fields for rec in history.records], reference, chain,
        problem.material,
    )
