"""Quadrature, dof maps, broken-stress tables, and projection tests."""

import math

import numpy as np
import pytest

from oracles import poly_integral_unit_triangle
from stresseq import (
    BrokenField,
    Discretization,
    UnsupportedDegree,
    build_mesh,
    cook_mesh,
    rt_dim,
    segment_rule,
    triangle_rule,
    uniform_refine,
    unit_square_mesh,
)
from stresseq import spaces
from stresseq.spaces import (
    _dof_signs,
    build_stress_tables,
    eval_volume_poly,
    lagrange_values,
    legendre01,
    make_dofmap,
    project_side,
    project_volume,
)
from test_mesh import two_triangle_square

# -- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_rule_exactness(degree):
    pts, w = triangle_rule(degree)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(0.5, abs=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
            exact = poly_integral_unit_triangle(a, b)
            assert abs(val - exact) < 1e-14, (a, b)


def test_gauss_jacobi_rule_is_scipys_bit_for_bit():
    """The Golub-Welsch port gives scipy.special's Gauss-Jacobi(1, 0) rule
    with the same bits, nodes and weights, for every n up to 40."""
    from scipy.special import roots_jacobi

    for n in range(1, 41):
        x, w = spaces._gauss_jacobi10(n)
        xs, ws = roots_jacobi(n, 1.0, 0.0)
        assert np.array_equal(x, xs) and np.array_equal(w, ws), n


def test_triangle_rule_is_built_on_scipys_jacobi_rule():
    """triangle_rule(d) matches, bit for bit, the conical-product rule that
    scipy.special's Gauss-Jacobi rule gives, for every degree up to 40."""
    from scipy.special import roots_jacobi

    for degree in range(41):
        n = max(1, (degree + 2) // 2)
        xg, wg = np.polynomial.legendre.leggauss(n)
        xj, wj = roots_jacobi(n, 1.0, 0.0)
        u = np.repeat((xj + 1.0) / 2.0, n)
        v = np.tile((xg + 1.0) / 2.0, n)
        pts, w = triangle_rule(degree)
        assert np.array_equal(pts, np.column_stack([u, v * (1.0 - u)])), degree
        assert np.array_equal(w, np.repeat(wj / 4.0, n) * np.tile(wg / 2.0, n)), degree


@pytest.mark.parametrize("degree", range(1, 12))
def test_segment_rule_exactness(degree):
    pts, w = segment_rule(degree)
    assert np.all(w > 0)
    for a in range(degree + 1):
        val = float(w @ pts**a)
        assert abs(val - 1.0 / (a + 1)) < 1e-14


def test_legendre01_orthonormal():
    t, w = segment_rule(12)
    vals = legendre01(4, t)
    gram = np.einsum("q,qi,qj->ij", w, vals, vals)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-13


# -- dof maps ------------------------------------------------------------------


def test_dof_counts_two_triangle_square():
    mesh = two_triangle_square()
    assert make_dofmap(mesh, 1).n_scalar == 4
    assert make_dofmap(mesh, 2, ncomp=2).n_dofs == 18
    assert rt_dim(1) == 8
    assert mesh.n_triangles * 2 * rt_dim(1) == 32


def test_continuous_dofs_shared_across_elements():
    mesh = two_triangle_square()
    dm = make_dofmap(mesh, 2)
    d0, d1 = set(dm.element_dofs[0].tolist()), set(dm.element_dofs[1].tolist())
    shared = d0 & d1
    # two shared vertices + one shared edge dof
    assert len(shared) == 3
    assert dm.n_scalar == 4 + 5


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        Discretization(two_triangle_square(), 3)


@pytest.mark.parametrize("m", range(1, 5))
def test_lagrange_basis_is_nodal_and_reproduces_p_m(m, rng):
    """The P_m basis is 1 at its own node and 0 at the others, and its
    interpolant of every monomial of degree <= m is that monomial."""
    nodes, exps, _ = spaces.lagrange_reference(m)
    lattice = [(i / m, j / m) for i in range(1, m) for j in range(1, m - i)]
    assert np.array_equal(nodes[3 * m :].reshape(-1, 2), np.array(lattice).reshape(-1, 2))
    assert np.allclose(lagrange_values(m, nodes), np.eye(len(nodes)), rtol=0, atol=1e-12)
    pts = rng.random((20, 2))
    pts = np.where(pts.sum(axis=1, keepdims=True) > 1, 1 - pts, pts)
    at_nodes = spaces.monomial_values(exps, nodes)
    assert np.allclose(
        lagrange_values(m, pts) @ at_nodes, spaces.monomial_values(exps, pts), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("m", range(1, 5))
def test_dofmap_layout_any_degree(m):
    """On a bisected Cook mesh: the two elements of a side share its dofs,
    each dof sits at one point, interior dofs belong to one element, and
    the count is nv + ns (m - 1) + nt (m - 1)(m - 2)/2."""
    mesh = uniform_refine(cook_mesh(), 1)
    nv, ns, nt = mesh.n_vertices, mesh.n_sides, mesh.n_triangles
    dm = make_dofmap(mesh, m)
    ed = dm.element_dofs
    assert dm.n_scalar == nv + ns * (m - 1) + nt * (m - 1) * (m - 2) // 2
    assert np.array_equal(np.unique(ed), np.arange(dm.n_scalar))

    interior = ed[:, 3 * m :]
    assert len(np.unique(interior)) == interior.size
    assert interior.size == 0 or interior.min() == nv + ns * (m - 1)

    nodes = spaces.lagrange_reference(m)[0]
    x, _ = mesh.rule_points(np.arange(nt), nodes, np.zeros(len(nodes)))
    at = np.empty((dm.n_scalar, 2))
    at[ed] = x
    assert np.allclose(at[ed], x, rtol=0, atol=1e-10)
    assert len(np.unique(np.round(at, 9), axis=0)) == dm.n_scalar

    def side_dofs(t, j):
        edge = np.arange(3 + j * (m - 1), 3 + (j + 1) * (m - 1))
        return set(ed[t, [(j + 1) % 3, (j + 2) % 3]]) | set(ed[t, edge])

    for s in np.flatnonzero(mesh.side_tri[:, 1] >= 0):
        a, b = mesh.side_tri[s]
        ja = int(np.flatnonzero(mesh.tri_sides[a] == s)[0])
        jb = int(np.flatnonzero(mesh.tri_sides[b] == s)[0])
        assert side_dofs(a, ja) == side_dofs(b, jb)
        assert side_dofs(a, ja) == set(dm.side_scalar_dofs([s]).tolist())


def test_mass_matrices_spd():
    mesh = two_triangle_square()
    pts, w = triangle_rule(6)
    for degree in (1, 2):
        dm = make_dofmap(mesh, degree)
        vals = lagrange_values(degree, pts)
        mass = np.zeros((dm.n_scalar, dm.n_scalar))
        for e in range(mesh.n_triangles):
            loc = 2 * mesh.areas[e] * np.einsum("q,qi,qj->ij", w, vals, vals)
            dofs = dm.element_dofs[e]
            mass[np.ix_(dofs, dofs)] += loc
        assert np.allclose(mass, mass.T)
        assert np.linalg.eigvalsh(mass).min() > 0
    every = np.arange(mesh.n_triangles)
    for g in Discretization(mesh, 1).element_constraints(every, _dof_signs(mesh, every, 1)).gram:
        assert np.allclose(g, g.T, atol=1e-13)
        assert np.linalg.eigvalsh(g).min() > 0


# -- broken stress space ---------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_rt_interpolation_is_projection(k, rng):
    mesh = two_triangle_square()
    tables = build_stress_tables(mesh, k)
    dofs = rng.standard_normal((mesh.n_triangles, 2, rt_dim(k)))
    field = BrokenField(mesh, k, dofs)
    vol_vals = field.values(tables)
    side_xi = tables.side_xi
    basis_side = tables.basis_at(side_xi.reshape(len(tables.elems), -1, 2))
    side_vals = np.einsum(
        "eri,eiqc->eqrc", dofs, basis_side
    ).reshape(vol_vals.shape[0], 3, -1, 2, 2)
    back = tables.dofs_from_values(vol_vals, side_vals)
    assert np.max(np.abs(back - dofs)) < 1e-12 * max(1.0, np.abs(dofs).max())


@pytest.mark.parametrize("k", [1, 2])
def test_rt_divergence_matches_finite_differences(k, rng):
    mesh = two_triangle_square()
    tables = build_stress_tables(mesh, k)
    xi = tables.vol_xi[:, :4, :]
    div = tables.basis_div_at(xi)
    eps = 1e-6
    h = tables.h[:, None, None]
    fd = np.zeros_like(div)
    for c in range(2):
        d = np.zeros(2)
        d[c] = eps
        up = tables.basis_at(xi + d / h)
        dn = tables.basis_at(xi - d / h)
        fd += (up[..., c] - dn[..., c]) / (2 * eps)
    assert np.max(np.abs(fd - div)) < 1e-5


@pytest.mark.parametrize("k", [1, 2])
def test_rt_normal_trace_in_pk(k):
    """Normal traces on each side are degree-k polynomials in arc length."""
    mesh = two_triangle_square()
    tables = build_stress_tables(mesh, k)
    nb = tables.normal_basis()  # (ne, 3, nqs, nd)
    t = tables.side_t
    vand = np.polynomial.polynomial.polyvander(t, k)
    cols = nb.transpose(2, 0, 1, 3).reshape(len(t), -1)
    coeff, *_ = np.linalg.lstsq(vand, cols, rcond=None)
    assert np.max(np.abs(vand @ coeff - cols)) < 1e-12


def test_flux_moments_invariant_under_affine_maps(rng):
    """Interpolating one polynomial field on random affine images of a
    triangle gives side flux moments equal to direct dense integration."""

    def tau(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = x[..., 0] + 0.3 * x[..., 1]
        out[..., 0, 1] = 1.0 - x[..., 1]
        out[..., 1, 0] = 0.25 * x[..., 0]
        out[..., 1, 1] = x[..., 1] - x[..., 0]
        return out

    for trial in range(5):
        A = rng.standard_normal((2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) @ A.T + b
        if np.linalg.det(A) < 0:
            base = base[[0, 2, 1]]
        tris = [(0, 1, 2)]
        sides = [(0, 1), (1, 2), (0, 2)]
        mesh = build_mesh(base, tris, sides[:1], sides[1:])
        tables = build_stress_tables(mesh, 1)
        dofs = tables.dofs_from_values(tau(tables.vol_x), tau(tables.side_x))
        field = BrokenField(mesh, 1, dofs)

        # dense independent moments: 40-point Gauss per side
        tq, tw = segment_rule(40)
        for s in range(mesh.n_sides):
            a_pt = mesh.vertices[mesh.sides[s, 0]]
            b_pt = mesh.vertices[mesh.sides[s, 1]]
            xq = a_pt[None, :] + tq[:, None] * (b_pt - a_pt)[None, :]
            n = mesh.side_normal[s]
            tn_exact = np.einsum("qrc,c->qr", tau(xq), n)
            lengths = np.linalg.norm(b_pt - a_pt)
            lg = legendre01(2, tq)
            moments_exact = lengths * np.einsum("q,qr,qm->rm", tw, tn_exact, lg)

            e = int(mesh.side_tri[s, 0])
            j = int(np.flatnonzero(tables.side_ids[e] == s)[0])
            xi = tables.scaled(xq[None, :, :])
            vals = field.values(tables, xi)[e]
            tn_field = np.einsum("qrc,c->qr", vals, n)
            moments_field = lengths * np.einsum("q,qr,qm->rm", tw, tn_field, lg)
            assert np.max(np.abs(moments_field - moments_exact)) < 1e-12 * max(
                1.0, np.abs(moments_exact).max()
            )


# -- projections -----------------------------------------------------------------


def test_project_volume_reproduces_pk(rng):
    mesh = unit_square_mesh(2)
    k = 1
    tables = build_stress_tables(mesh, k)

    def f(x):
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = 1.0 + 2 * x[..., 0] - x[..., 1]
        out[..., 1] = 0.5 * x[..., 0] + 3 * x[..., 1]
        return out

    coeff = project_volume(tables, f(tables.vol_x), k)
    vals = eval_volume_poly(tables, coeff, k)
    assert np.max(np.abs(vals - f(tables.vol_x))) < 1e-13


def test_project_volume_zero():
    mesh = unit_square_mesh(2)
    tables = build_stress_tables(mesh, 1)
    coeff = project_volume(tables, np.zeros_like(tables.vol_x), 1)
    assert np.all(coeff == 0)


def test_project_volume_best_fit_oracle():
    """Element-wise projection of (x^2, 0) matches a dense normal-equations
    solve built from scratch on each element."""
    mesh = two_triangle_square()
    k = 1
    tables = build_stress_tables(mesh, k)

    def f(x):
        out = np.zeros(x.shape[:-1] + (2,))
        out[..., 0] = x[..., 0] ** 2
        return out

    coeff = project_volume(tables, f(tables.vol_x), k)
    proj_vals = eval_volume_poly(tables, coeff, k)

    rq, rw = triangle_rule(8)
    for e in range(mesh.n_triangles):
        p = mesh.vertices[mesh.triangles[e]]
        xq = p[0] + np.outer(rq[:, 0], p[1] - p[0]) + np.outer(rq[:, 1], p[2] - p[0])
        w = 2 * mesh.areas[e] * rw
        vand = np.column_stack([np.ones(len(xq)), xq[:, 0], xq[:, 1]])
        gram = vand.T @ (w[:, None] * vand)
        fe = f(xq)
        co = np.linalg.solve(gram, vand.T @ (w[:, None] * fe))
        # compare values at this element's stored quadrature points
        vq = tables.vol_x[e]
        vand_q = np.column_stack([np.ones(len(vq)), vq[:, 0], vq[:, 1]])
        oracle_vals = vand_q @ co
        assert np.max(np.abs(oracle_vals - proj_vals[e])) < 1e-13


def test_project_side_constant_traction():
    mesh = unit_square_mesh(2)
    from stresseq.mesh import NEUMANN

    sides = mesh.boundary_sides(NEUMANN)
    k = 1

    def g(x):
        out = np.zeros(x.shape[:-1] + (2,))
        out[..., 1] = 0.01
        return out

    t, _ = segment_rule(2 * k + 5)
    a = mesh.vertices[mesh.sides[sides, 0]]
    b = mesh.vertices[mesh.sides[sides, 1]]
    xq = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    coeff = project_side(g(xq), k)
    vals = np.einsum("scm,qm->sqc", coeff, legendre01(k + 1, t))
    assert np.max(np.abs(vals[..., 0])) < 1e-16
    assert np.max(np.abs(vals[..., 1] - 0.01)) < 1e-15


def test_project_side_linear_and_sine_oracle():
    mesh = unit_square_mesh(2)
    from stresseq.mesh import NEUMANN

    sides = mesh.boundary_sides(NEUMANN)
    k = 1

    def linear(x):
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = 2.0 * x[..., 0] - x[..., 1]
        out[..., 1] = x[..., 0] + 0.5
        return out

    t, _ = segment_rule(2 * k + 5)
    a = mesh.vertices[mesh.sides[sides, 0]]
    b = mesh.vertices[mesh.sides[sides, 1]]
    xq = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    coeff = project_side(linear(xq), k)
    vals = np.einsum("scm,qm->sqc", coeff, legendre01(k + 1, t))
    assert np.max(np.abs(vals - linear(xq))) < 1e-13

    def sine(x):
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = np.sin(3.0 * x[..., 0] + x[..., 1])
        out[..., 1] = 0.0
        return out

    coeff = project_side(sine(xq), k)
    tq, tw = segment_rule(2 * k + 5)
    vals = np.einsum("scm,qm->sqc", coeff, legendre01(k + 1, tq))
    vand = np.column_stack([np.ones_like(tq), tq])
    for i in range(len(sides)):
        # independent 1D normal-equations solve (2x2, monomial basis) on
        # the same sampled data
        gram = vand.T @ (tw[:, None] * vand)
        rhs = vand.T @ (tw[:, None] * sine(xq[i]))
        co = np.linalg.solve(gram, rhs)
        oracle_vals = vand @ co
        assert np.max(np.abs(oracle_vals - vals[i])) < 1e-13


STORES = ("classes", "constraints", "stress_chunks")


def test_discretization_keeps_tables_until_released():
    """The stores are built on first use and kept; release drops all
    three, and a store read again is the same tables."""
    disc = Discretization(unit_square_mesh(4), 1)
    assert disc.stress_chunks is disc.stress_chunks
    assert disc.constraints is disc.constraints
    assert all(name in vars(disc) for name in STORES)
    kept = disc.constraints
    disc.release_tables()
    assert not any(name in vars(disc) for name in STORES)
    for name in ("divm", "symx", "symy", "gram"):
        assert np.array_equal(getattr(disc.constraints, name), getattr(kept, name))


def test_constraint_store_builds_no_stress_chunk(monkeypatch):
    """The class-only constraint store reads the class store, not the
    per-element stress chunks."""
    disc = Discretization(unit_square_mesh(4), 2)
    monkeypatch.setattr(spaces, "build_stress_tables", None)
    disc.constraints
    assert "stress_chunks" not in vars(disc)
