"""Saddle-point assembly, solve, and direct-stress tests."""

import dataclasses
import gc
import platform
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import solve_problem
from oracles import full_saddle_matrix
from stresseq import (
    AdaptiveConfig,
    BrokenField,
    Discretization,
    FieldPair,
    LoadData,
    Material,
    SingularSystem,
    adaptive_loop,
    assemble_system,
    attach_reference_errors,
    build_mesh,
    conservative_constants,
    cook,
    direct_stress,
    manufactured_smooth,
    solve,
    solve_step,
    square_lshape,
    triangle_rule,
    uniform_refine,
    unit_square_mesh,
)
from stresseq import elasticity, estimator
from stresseq.mesh import NEUMANN
from stresseq.spaces import build_stress_tables, lagrange_grads, lagrange_values
from test_mesh import two_triangle_square

# -- material ---------------------------------------------------------------


def test_material_validation():
    with pytest.raises(ValueError):
        Material(mu=0.0)
    with pytest.raises(ValueError):
        Material(mu=1.0, inv_lambda=-1e-3)


# -- assembly ----------------------------------------------------------------


def dense_assembly_oracle(mesh, k, material, load):
    """Independent dense assembly of the full saddle-point matrix and rhs.

    Built from scratch: explicit reference-to-physical mapping, dense
    quadrature of degree 8, symmetric-gradient contraction written out.
    """
    from stresseq.spaces import make_dofmap, segment_rule

    dm_u = make_dofmap(mesh, k + 1, ncomp=2)
    dm_p = make_dofmap(mesh, k)
    n_u, n_p = dm_u.n_dofs, dm_p.n_scalar
    K = np.zeros((n_u + n_p, n_u + n_p))
    F = np.zeros(n_u + n_p)
    rq, rw = triangle_rule(8)
    gref = lagrange_grads(k + 1, rq)  # (nq, nlu, 2)
    vu = lagrange_values(k + 1, rq)
    vp = lagrange_values(k, rq)
    mu, t = material.mu, material.inv_lambda

    for e in range(mesh.n_triangles):
        p = mesh.vertices[mesh.triangles[e]]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        Jinv = np.linalg.inv(J)
        area2 = abs(np.linalg.det(J))
        w = area2 * rw
        # physical gradients: dphi/dx_d = sum_r dphi/dxi_r * dxi_r/dx_d
        gphys = np.einsum("qir,rd->qid", gref, Jinv)
        xq = p[0] + rq @ J.T

        nl = gphys.shape[1]
        for i in range(nl):
            for c in range(2):
                gi = np.zeros((len(rq), 2, 2))
                gi[:, c, :] = gphys[:, i, :]
                eps_i = 0.5 * (gi + np.swapaxes(gi, 1, 2))
                row = dm_u.element_dofs[e, i] * 2 + c
                for j in range(nl):
                    for d in range(2):
                        gj = np.zeros((len(rq), 2, 2))
                        gj[:, d, :] = gphys[:, j, :]
                        eps_j = 0.5 * (gj + np.swapaxes(gj, 1, 2))
                        col = dm_u.element_dofs[e, j] * 2 + d
                        val = 2.0 * mu * np.einsum("q,qab,qab->", w, eps_i, eps_j)
                        K[row, col] += val
                # pressure coupling (p, div v)
                for j in range(vp.shape[1]):
                    col = n_u + dm_p.element_dofs[e, j]
                    div_i = gphys[:, i, c]
                    val = np.einsum("q,q,q->", w, vp[:, j], div_i)
                    K[row, col] += val
                    K[col, row] += val
                fq = load.volume_at(xq)
                F[row] += np.einsum("q,q->", w, fq[:, c] * vu[:, i])
        for i in range(vp.shape[1]):
            for j in range(vp.shape[1]):
                r = n_u + dm_p.element_dofs[e, i]
                c2 = n_u + dm_p.element_dofs[e, j]
                K[r, c2] -= t * np.einsum("q,q,q->", w, vp[:, i], vp[:, j])

    tq, tw = segment_rule(9)
    dm_s = make_dofmap(mesh, k + 1)
    for s in mesh.boundary_sides(NEUMANN):
        a, b = mesh.vertices[mesh.sides[s, 0]], mesh.vertices[mesh.sides[s, 1]]
        length = np.linalg.norm(b - a)
        xq = a[None, :] + tq[:, None] * (b - a)[None, :]
        gq = load.traction_at(xq)
        e = int(mesh.side_tri[s, 0])
        # values of the P_{k+1} basis along the side, via barycentric mapping
        p = mesh.vertices[mesh.triangles[e]]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        lam = np.linalg.solve(J, (xq - p[0]).T).T
        ref = np.column_stack([lam[:, 0], lam[:, 1]])
        vals = lagrange_values(k + 1, ref)
        for i in range(vals.shape[1]):
            for c in range(2):
                row = dm_s.element_dofs[e, i] * 2 + c
                F[row] += length * np.einsum("q,q,q->", tw, gq[:, c], vals[:, i])
    return K, F


def traction_side_cases(mesh):
    """(local side index, orientation) of each traction side in its owner
    element; the orientation says the local edge (vertex j+1 -> j+2) runs
    against the side's global parameter."""
    sides = mesh.boundary_sides(NEUMANN)
    owner = mesh.side_tri[sides, 0]
    j = np.argmax(mesh.tri_sides[owner] == sides[:, None], axis=1)
    tri = mesh.triangles[owner]
    rows = np.arange(len(sides))
    flip = tri[rows, (j + 1) % 3] > tri[rows, (j + 2) % 3]
    return set(zip(j.tolist(), flip.tolist()))


ORACLE_MESHES = {"square": two_triangle_square, "cook": lambda: cook().mesh}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_assembly_matches_dense_oracle(name, k):
    mesh = ORACLE_MESHES[name]()
    if name == "cook":
        # traction sides in every local position and orientation
        assert traction_side_cases(mesh) == {
            (j, flip) for j in range(3) for flip in (False, True)
        }
    material = Material(mu=1.3, inv_lambda=0.7)

    def f(x):
        out = np.empty_like(x)
        out[..., 0] = 1.0 + x[..., 1]
        out[..., 1] = 2.0 - x[..., 0]
        return out

    def g(x):
        out = np.empty_like(x)
        out[..., 0] = 0.5 * x[..., 1]
        out[..., 1] = 0.01 + x[..., 0]
        return out

    load = LoadData(volume=f, traction=g)
    disc = Discretization(mesh, k)
    system = assemble_system(disc, material, load)
    K, F = dense_assembly_oracle(mesh, k, material, load)
    full = full_saddle_matrix(disc, material, load).toarray()
    scale = np.abs(K).max()
    assert np.max(np.abs(full - K)) < 1e-12 * scale
    free = system.free
    produced = system.matrix.toarray()
    assert np.max(np.abs(produced - K[np.ix_(free, free)])) < 1e-12 * scale
    assert np.max(np.abs(system.rhs - F)) < 1e-12 * max(1.0, np.abs(F).max())


def element_pattern(disc, inv_lambda):
    """The distinct (row, col) pairs the elements touch, as sorted keys
    row * n + col: every pair of an element's dofs, but no pressure pair
    when inv_lambda = 0."""
    n_u = disc.displacement.n_dofs
    n = n_u + disc.pressure.n_scalar
    udofs = disc.displacement.element_dofs
    u = np.stack([2 * udofs, 2 * udofs + 1], axis=-1).reshape(len(udofs), -1)
    p = n_u + disc.pressure.element_dofs
    blocks = [(u, u), (u, p), (p, u)] + ([(p, p)] if inv_lambda != 0.0 else [])
    keys = [(r[:, :, None] * n + c[:, None, :]).ravel() for r, c in blocks]
    return np.unique(np.concatenate(keys))


ASSEMBLY_PROBLEMS = pytest.mark.parametrize(
    "factory",
    [
        lambda: cook(),
        lambda: manufactured_smooth(Material(mu=1.0, inv_lambda=0.5), cells=4),
        lambda: square_lshape(Material(mu=1.0, inv_lambda=0.002)),
    ],
    ids=["cook", "smooth", "lshape"],
)


@pytest.mark.parametrize("k", [1, 2])
@ASSEMBLY_PROBLEMS
def test_matrix_pattern_is_the_element_pattern(factory, k):
    """The saddle-point matrix stores exactly the (row, col) pairs the
    elements touch, entries that cancel to 0.0 included; its pattern does
    not depend on the order in which the triplets are summed; and with
    inv_lambda = 0 its pressure block holds no entry."""
    problem = factory()
    disc = Discretization(problem.mesh, k)
    n_u = disc.displacement.n_dofs
    for material in (problem.material, Material(mu=problem.material.mu)):
        matrix = full_saddle_matrix(disc, material, problem.load)
        n = matrix.shape[0]
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        keys = rows * n + matrix.indices
        assert np.array_equal(keys, element_pattern(disc, material.inv_lambda))
        if material.inv_lambda == 0.0:
            assert matrix[n_u:, n_u:].nnz == 0

        (r, c, data), _, _ = elasticity._element_triplets(disc, material, problem.load)
        order = np.random.default_rng(11).permutation(len(data))
        shuffled = sp.coo_matrix((data[order], (r[order], c[order])), shape=(n, n)).tocsr()
        assert np.array_equal(shuffled.indptr, matrix.indptr)
        assert np.array_equal(shuffled.indices, matrix.indices)
        scale = np.abs(matrix.data).max()
        assert np.max(np.abs(shuffled.data - matrix.data)) <= 1e-13 * scale


@pytest.mark.parametrize("k", [1, 2])
@ASSEMBLY_PROBLEMS
def test_system_matrix_is_the_free_block(factory, k):
    """``assemble_system`` returns the free-dof block of the full matrix in
    CSC, bit for bit as slicing the full matrix gives it."""
    problem = factory()
    disc = Discretization(problem.mesh, k)
    for material in (problem.material, Material(mu=problem.material.mu)):
        system = assemble_system(disc, material, problem.load)
        free = system.free
        want = full_saddle_matrix(disc, material, problem.load)[free][:, free].tocsc()
        assert system.matrix.format == "csc"
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(system.matrix, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


def test_one_saddle_matrix_alive_at_the_factorization(monkeypatch):
    """When ``splu`` factors the free-dof block, no other sparse matrix of
    the system's full or free-dof shape is alive: neither the full matrix
    nor a second copy of the block."""
    problem = cook()
    disc = Discretization(uniform_refine(problem.mesh, 2), 1)
    n = disc.displacement.n_dofs + disc.pressure.n_scalar
    scans = []
    real = spla.splu

    def scanning(a, **kwargs):
        gc.collect()
        shapes = {(n, n), a.shape}
        alive = [o for o in gc.get_objects() if sp.issparse(o) and o.shape in shapes]
        scans.append([o is a for o in alive])
        return real(a, **kwargs)

    monkeypatch.setattr(elasticity.spla, "splu", scanning)
    solve(assemble_system(disc, problem.material, problem.load))
    assert scans == [[True]]


def test_zero_load_zero_solution():
    mesh = unit_square_mesh(2)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, Material(), LoadData())
    assert np.all(system.rhs == 0)
    fields = solve(system)
    assert np.all(fields.u == 0)
    assert np.all(fields.p == 0)


def test_incompressible_pressure_block_exactly_zero():
    mesh = unit_square_mesh(2)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, Material(inv_lambda=0.0), LoadData())
    n_free_u = np.count_nonzero(system.free[: system.n_u])
    block = system.matrix.toarray()[n_free_u:, n_free_u:]
    assert np.all(block == 0.0)


# -- solve ---------------------------------------------------------------------


def galerkin_residual(problem, k=1):
    disc = Discretization(problem.mesh, k)
    system = assemble_system(disc, problem.material, problem.load)
    fields = solve(system)
    x = np.concatenate([fields.u, fields.p])
    r = system.rhs - full_saddle_matrix(disc, problem.material, problem.load) @ x
    rel = np.linalg.norm(r[system.free]) / max(np.linalg.norm(system.rhs), 1e-300)
    return rel, disc, fields, system


def test_galerkin_residual_manufactured():
    rel, _, _, _ = galerkin_residual(manufactured_smooth(cells=2))
    assert rel <= 1e-10


def test_discrete_equilibrium_identity():
    """(sigma_h, eps(v)) = (f, v) + <g, v> for every displacement basis v,
    recomputed from the stress values rather than the stiffness matrix."""
    problem = manufactured_smooth(cells=2)
    disc, fields, sigma = solve_problem(problem)
    mesh, k = problem.mesh, 1
    tables = build_stress_tables(disc.mesh, disc.k)
    sig_vals = sigma.values(tables)  # (ne, nq, 2, 2)

    dm_u = disc.displacement
    n_u = dm_u.n_dofs
    lhs = np.zeros(n_u)
    jinv = mesh.jac_inv
    rq = tables.vol_ref
    gref = lagrange_grads(k + 1, rq)
    gphys = np.einsum("qir,erd->eqid", gref, jinv)
    w = tables.vol_w
    for c in range(2):
        rows = dm_u.element_dofs * 2 + c
        # sigma symmetric, so sigma : eps(phi_i e_c) = sum_b sigma_cb d_b phi_i
        contrib = np.einsum("eq,eqb,eqib->ei", w, sig_vals[:, :, c, :], gphys)
        np.add.at(lhs, rows, contrib)

    system = assemble_system(disc, problem.material, problem.load)
    rhs_u = system.rhs[:n_u]
    free_u = system.free[:n_u]
    scale = max(np.abs(rhs_u).max(), 1.0)
    assert np.max(np.abs(lhs - rhs_u)[free_u]) < 1e-10 * scale


def test_second_discrete_equation():
    problem = manufactured_smooth(
        material=Material(mu=1.0, inv_lambda=1e-3), cells=2
    )
    rel, disc, fields, system = galerkin_residual(problem)
    n_u = system.n_u
    full = full_saddle_matrix(disc, problem.material, problem.load)
    resid = (full @ np.concatenate([fields.u, fields.p]))[n_u:]
    rhs_p = system.rhs[n_u:]
    assert np.max(np.abs(resid - rhs_p)) < 1e-10 * max(
        1.0, np.abs(system.rhs).max()
    )


def test_pressure_pinning_logic():
    base = unit_square_mesh(2)
    boundary = base.sides[base.side_label != 0]
    all_d = build_mesh(base.vertices, base.triangles, boundary, [])
    disc = Discretization(all_d, 1)

    def f(x):
        out = np.zeros_like(x)
        out[..., 0] = np.sin(x[..., 1])
        return out

    system = assemble_system(disc, Material(inv_lambda=0.0), LoadData(volume=f))
    assert system.pinned_pressure
    fields = solve(system)
    integrals = system.pressure_integrals
    assert integrals.sum() == pytest.approx(float(all_d.areas.sum()), rel=1e-13)
    # the mean of p_h by quadrature, independent of the integrals vector
    tables = build_stress_tables(disc.mesh, disc.k)
    ph = fields.p[disc.pressure.element_dofs] @ lagrange_values(1, tables.vol_ref).T
    scale = max(1.0, np.abs(fields.p).max())
    assert abs(float(np.sum(tables.vol_w * ph))) < 1e-10 * scale
    assert abs(float(integrals @ fields.p)) < 1e-10 * scale

    mixed = two_triangle_square()
    system2 = assemble_system(
        Discretization(mixed, 1), Material(inv_lambda=0.0), LoadData(volume=f)
    )
    assert not system2.pinned_pressure
    solve(system2)


def test_singular_system_guard():
    problem = manufactured_smooth(cells=2)
    disc = Discretization(problem.mesh, 1)
    system = assemble_system(disc, problem.material, problem.load)
    broken = system.matrix.tolil()
    i = 3  # the fourth free dof
    broken[i, :] = 0.0
    broken[:, i] = 0.0
    bad = dataclasses.replace(system, matrix=broken.tocsc())
    with pytest.raises(SingularSystem):
        solve(bad)


# -- saddle-point LU: symmetric ordering and COLAMD fallback ----------------------


def _splu_calls(monkeypatch, wrap=None):
    """Record the keyword arguments of every ``splu`` call of ``solve``;
    ``wrap(lu, kwargs)`` may replace each factor."""
    calls = []
    real = spla.splu

    def recording(a, **kwargs):
        calls.append(kwargs)
        lu = real(a, **kwargs)
        return lu if wrap is None else wrap(lu, kwargs)

    monkeypatch.setattr(elasticity.spla, "splu", recording)
    return calls


def _is_symmetric(kwargs):
    return (
        kwargs.get("permc_spec") == "MMD_AT_PLUS_A"
        and kwargs.get("diag_pivot_thresh") == 0.0
        and kwargs.get("options") == {"SymmetricMode": True}
    )


def _colamd_solution(system):
    """What ``solve`` returns from the COLAMD factorization: (u, p)."""
    free, k_ff = system.free, system.matrix
    b = system.rhs[free]
    lu = spla.splu(k_ff)
    xf = lu.solve(b)
    xf += lu.solve(b - k_ff @ xf)
    x = np.zeros(free.size)
    x[free] = xf
    return x[: system.n_u], x[system.n_u :]


def _cook_system(k=1):
    problem = cook()
    disc = Discretization(problem.mesh, k)
    return assemble_system(disc, problem.material, problem.load)


def test_symmetric_factorization_failure_falls_back_to_colamd(monkeypatch):
    system = _cook_system()
    u_ref, p_ref = _colamd_solution(system)
    real = spla.splu

    def failing(a, **kwargs):
        if kwargs:
            raise RuntimeError("Factor is exactly singular")
        return real(a)

    monkeypatch.setattr(elasticity.spla, "splu", failing)
    fields = solve(system)
    assert np.array_equal(fields.u, u_ref)
    assert np.array_equal(fields.p, p_ref)


def test_free_heap_is_released_before_each_factorization(monkeypatch):
    """Freed assembly temporaries left resident made the factorization's
    peak memory differ by 20-30 MB between identical runs."""
    if platform.libc_ver()[0] == "glibc":
        assert elasticity._malloc_trim.__name__ == "malloc_trim"
    events = []
    real = spla.splu

    def failing(a, **kwargs):
        events.append("splu")
        if kwargs:
            raise RuntimeError("Factor is exactly singular")
        return real(a)

    monkeypatch.setattr(elasticity, "_malloc_trim", lambda pad: events.append("trim"))
    monkeypatch.setattr(elasticity.spla, "splu", failing)
    solve(_cook_system())
    assert events == ["trim", "splu", "trim", "splu"]


def test_symmetric_residual_above_gate_falls_back_to_colamd(monkeypatch):
    system = _cook_system()
    u_ref, p_ref = _colamd_solution(system)

    class Shifted:
        """A factor whose solves are off by a constant, which the
        refinement step cannot remove."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) + 1e-3

    calls = _splu_calls(
        monkeypatch, lambda lu, kw: Shifted(lu) if _is_symmetric(kw) else lu
    )
    fields = solve(system)
    assert len(calls) == 2
    assert _is_symmetric(calls[0]) and calls[1] == {}
    assert np.array_equal(fields.u, u_ref)
    assert np.array_equal(fields.p, p_ref)


@pytest.mark.parametrize("k", [1, 2])
def test_pinned_pressure_solve_by_symmetric_lu(monkeypatch, k):
    """All-Dirichlet unit square, inv_lambda = 0: one pressure dof pinned."""
    base = unit_square_mesh(4)
    boundary = base.sides[base.side_label != 0]
    mesh = build_mesh(base.vertices, base.triangles, boundary, [])

    def f(x):
        out = np.zeros_like(x)
        out[..., 0] = np.sin(3.0 * x[..., 1])
        out[..., 1] = x[..., 0] ** 2
        return out

    system = assemble_system(
        Discretization(mesh, k), Material(inv_lambda=0.0), LoadData(volume=f)
    )
    assert system.pinned_pressure and not system.free[system.n_u]
    calls = _splu_calls(monkeypatch)
    fields = solve(system)
    assert len(calls) == 1 and _is_symmetric(calls[0])

    free, k_ff = system.free, system.matrix
    b = system.rhs[free]
    # undo the zero-mean shift: the pinned pressure dof was solved as 0
    x = np.concatenate([fields.u, fields.p - fields.p[0]])
    assert np.linalg.norm(b - k_ff @ x[free]) <= 1e-10 * np.linalg.norm(b)

    ref = np.zeros(free.size)
    ref[free] = spla.spsolve(k_ff, b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "problem, k",
    [
        (cook(), 1),
        (cook(), 2),
        (manufactured_smooth(), 1),
        (square_lshape(Material(mu=1.0, inv_lambda=0.002)), 2),
    ],
    ids=["cook-k1", "cook-k2", "smooth-k1", "lshape-k2"],
)
def test_symmetric_lu_is_the_path_taken(monkeypatch, problem, k):
    """A silent fallback to COLAMD would still pass every other test."""
    mesh = uniform_refine(problem.mesh, 2)
    system = assemble_system(Discretization(mesh, k), problem.material, problem.load)
    calls = _splu_calls(monkeypatch)
    solve(system)
    assert len(calls) == 1 and _is_symmetric(calls[0])


def test_cook_tip_displacement_solver_agreement():
    problem = cook()
    disc = Discretization(problem.mesh, 1)
    system = assemble_system(disc, problem.material, problem.load)
    fields = solve(system)

    free, k_ff = system.free, system.matrix
    x = np.zeros(free.size)
    x[free] = spla.spsolve(k_ff, system.rhs[free])
    alt_u = x[: system.n_u]

    tip = np.argmin(
        np.linalg.norm(problem.mesh.vertices - np.array([0.48, 0.6]), axis=1)
    )
    dof = 2 * int(tip) + 1
    a, b = fields.u[dof], alt_u[dof]
    assert a != 0
    assert abs(a - b) <= 1e-6 * abs(a)


# -- direct stress ---------------------------------------------------------------


def test_direct_stress_identity_pressure():
    mesh = unit_square_mesh(2)
    disc = Discretization(mesh, 1)
    fields = FieldPair(
        disc=disc,
        u=np.zeros(disc.displacement.n_dofs),
        p=np.ones(disc.pressure.n_scalar),
    )
    sigma = direct_stress(fields, Material(mu=1.0))
    tables = build_stress_tables(disc.mesh, disc.k)
    vals = sigma.values(tables)
    eye = np.eye(2)[None, None, :, :]
    assert np.max(np.abs(vals - eye)) < 1e-13


def test_direct_stress_linear_displacement():
    mesh = unit_square_mesh(2)
    disc = Discretization(mesh, 1)
    # the P2 nodes: the vertices, then the side midpoints
    nodes = np.concatenate([mesh.vertices, mesh.vertices[mesh.sides].mean(axis=1)])
    u = np.empty(disc.displacement.n_dofs)
    u[0::2] = nodes[:, 0]
    u[1::2] = -nodes[:, 1]
    fields = FieldPair(disc=disc, u=u, p=np.zeros(disc.pressure.n_scalar))
    sigma = direct_stress(fields, Material(mu=0.5))
    tables = build_stress_tables(disc.mesh, disc.k)
    vals = sigma.values(tables)
    expect = np.diag([1.0, -1.0])[None, None, :, :]
    assert np.max(np.abs(vals - expect)) < 1e-13


def test_direct_stress_symmetric(rng):
    mesh = unit_square_mesh(2)
    disc = Discretization(mesh, 1)
    fields = FieldPair(
        disc=disc,
        u=rng.standard_normal(disc.displacement.n_dofs),
        p=rng.standard_normal(disc.pressure.n_scalar),
    )
    sigma = direct_stress(fields, Material(mu=2.0))
    tables = build_stress_tables(disc.mesh, disc.k)
    vals = sigma.values(tables)
    asym = np.abs(vals[..., 0, 1] - vals[..., 1, 0])
    assert asym.max() < 1e-12 * max(1.0, np.abs(vals).max())


def test_side_values_are_evaluated_only_by_direct_stress(monkeypatch):
    """The evaluations of (grad u_h, p_h) in a pipeline step, in the energy
    error and in the reference errors go through ``elasticity.fields_at``;
    only direct_stress evaluates at side points."""
    calls = []
    inner = elasticity.fields_at

    def recording(fields, elems, ref):
        flat = ref.reshape(-1, 2)
        bary = np.column_stack([flat, 1.0 - flat.sum(axis=1)])
        on_side = bool(np.all(bary.min(axis=1) < 1e-12))
        calls.append((sys._getframe(1).f_code.co_name, on_side))
        return inner(fields, elems, ref)

    for module in (elasticity, estimator):
        monkeypatch.setattr(module, "fields_at", recording)
    history = adaptive_loop(cook(), AdaptiveConfig(max_steps=4))
    attach_reference_errors(history, cook().material)
    problem = manufactured_smooth(cells=2)
    solve_step(problem, problem.mesh, 2, conservative_constants())
    assert {name for name, on_side in calls if on_side} == {"direct_stress"}
    assert {name for name, _ in calls} == {
        "direct_stress",
        "divergence_defect_sq",
        "energy_error",
        "reference_energy_errors",
    }


# -- element geometry -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_element_jacobian_inverse_property(coords):
    from hypothesis import assume

    p = np.array(coords).reshape(3, 2)
    area2 = float(
        (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
        - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
    )
    assume(abs(area2) > 1e-2)
    if area2 < 0:
        p = p[[0, 2, 1]]
    mesh = build_mesh(p, [(0, 1, 2)], [(0, 1)], [(1, 2), (0, 2)])
    jac, jinv = mesh.jac, mesh.jac_inv
    assert np.max(np.abs(jinv[0] @ jac[0] - np.eye(2))) < 1e-10
    assert np.max(np.abs(jac[0] @ jinv[0] - np.eye(2))) < 1e-10
    assert np.linalg.det(jac[0]) == pytest.approx(2 * mesh.areas[0], rel=1e-10)
    rq, rw = triangle_rule(6)
    xq, _ = mesh.rule_points(np.array([0]), rq, rw)
    assert np.max(np.abs(mesh.reference_points(np.array([0]), xq) - rq)) < 1e-12


# -- robustness and convergence -----------------------------------------------------


def energy_and_pressure_errors(problem, k=1):
    from stresseq import energy_error

    disc, fields, _ = solve_problem(problem, k)
    err = energy_error(fields, problem.exact, problem.material)
    tables = build_stress_tables(disc.mesh, disc.k)
    vals_p = lagrange_values(k, tables.vol_ref)
    ph = np.einsum("ei,qi->eq", fields.p[disc.pressure.element_dofs], vals_p)
    dp = ph - problem.exact.pressure(tables.vol_x)
    perr = float(np.sqrt(np.einsum("eq,eq->", tables.vol_w, dp**2)))
    return err, perr, fields


def test_lambda_robustness_fixed_mesh():
    errors = []
    for t in (1.0, 1e-3, 1e-6, 0.0):
        problem = manufactured_smooth(
            material=Material(mu=1.0, inv_lambda=t), cells=4
        )
        err, _, _ = energy_and_pressure_errors(problem)
        errors.append(err)
    spread = (max(errors) - min(errors)) / min(errors)
    assert spread < 0.10


def test_convergence_rates_uniform():
    """Observed orders over the last 3 of 4 uniformly refined meshes."""
    errs, perrs, hs = [], [], []
    for cells in (4, 8, 16, 32):
        problem = manufactured_smooth(
            material=Material(mu=1.0, inv_lambda=1.0), cells=cells
        )
        err, perr, _ = energy_and_pressure_errors(problem)
        errs.append(err)
        perrs.append(perr)
        hs.append(1.0 / cells)
    rate_u = np.polyfit(np.log(hs[-3:]), np.log(errs[-3:]), 1)[0]
    rate_p = np.polyfit(np.log(hs[-3:]), np.log(perrs[-3:]), 1)[0]
    assert rate_u >= 1.9
    assert rate_p >= 1.9
