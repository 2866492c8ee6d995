"""The per-element kernels against the einsum expressions they replace.

Each kernel contracts per-element tables by stacked matrix products; here
it is compared with the plain einsum of the same contraction, on the tables
of the Cook problem at k = 1 and of the square L-shape at k = 2, within
1e-13 times the largest entry.
"""

import numpy as np
import pytest

from oracles import full_saddle_matrix
from stresseq import (
    BrokenField,
    FieldPair,
    Material,
    cook,
    square_lshape,
)
from stresseq.elasticity import LoadData, assemble_system, fields_at
from stresseq.equilibration import Equilibrator, _selectors, build_rhs_tables, side_jumps
from stresseq.spaces import (
    Discretization,
    _div_maps,
    _exps_array,
    _interior_moments,
    _normal_moments,
    _rt_span,
    eval_volume_poly,
    lagrange_grads,
    lagrange_reference,
    lagrange_values,
    legendre01,
    monomial_grads,
    monomial_values,
    project_side,
    project_volume,
    rt_dim,
    side_rule,
    volume_rule,
)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


@pytest.fixture(scope="module", params=[(cook, 1), (square_lshape, 2)], ids=["cook-k1", "lshape-k2"])
def case(request):
    """Discretization, its one stress chunk, and a random pair and stress."""
    make, k = request.param
    problem = make()
    disc = Discretization(problem.mesh, k)
    rng = np.random.default_rng(7)
    fields = FieldPair(
        disc,
        rng.standard_normal(disc.displacement.n_dofs),
        rng.standard_normal(disc.pressure.n_scalar),
    )
    nt = disc.mesh.n_triangles
    stress = BrokenField(disc.mesh, k, rng.standard_normal((nt, 2, rt_dim(k))))
    (tb,) = disc.stress_chunks
    return disc, tb, fields, stress


def test_monomials(case):
    _, tb, _, _ = case
    exps = _exps_array(3)
    a, b = exps[:, 0], exps[:, 1]
    for pts in (tb.vol_xi, tb.side_xi):
        x, y = pts[..., None, 0], pts[..., None, 1]
        assert_close(monomial_values(exps, pts), x**a * y**b)
        gx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y**b, 0.0)
        gy = np.where(b > 0, b * x**a * y ** np.maximum(b - 1, 0), 0.0)
        assert_close(monomial_grads(exps, pts), np.stack([gx, gy], axis=-1))


def test_lagrange_grads(case):
    disc, tb, _, _ = case
    for m in (disc.k, disc.k + 1):
        _, exps, coeff = lagrange_reference(m)
        for pts in (tb.vol_ref, tb.vol_xi):
            want = np.einsum("...md,im->...id", monomial_grads(exps, pts), coeff)
            assert_close(lagrange_grads(m, pts), want)
            assert_close(lagrange_values(m, pts), monomial_values(exps, pts) @ coeff.T)


def test_basis_values_and_divergences(case):
    disc, tb, _, stress = case
    exps1, _ = _rt_span(disc.k)
    mv = monomial_values(exps1, tb.vol_xi)
    basis = np.einsum("eicm,eqm->eiqc", tb.C, mv)
    assert_close(tb.basis_at(tb.vol_xi), basis)

    DX, DY = _div_maps(disc.k)
    dc = (tb.C[:, :, 0, :] @ DX + tb.C[:, :, 1, :] @ DY) / tb.h[:, None, None]
    mk = monomial_values(_exps_array(disc.k), tb.vol_xi)
    divs = np.einsum("eib,eqb->eiq", dc, mk)
    assert_close(tb.basis_div_at(tb.vol_xi), divs)

    mv_side = monomial_values(exps1, tb.side_xi)
    vals = np.einsum("eicm,esqm->eisqc", tb.C, mv_side)
    assert_close(tb.normal_basis(), np.einsum("eisqc,esc->esqi", vals, tb.side_normal))

    dofs = stress.dofs[tb.elems]
    assert_close(stress.values(tb), np.einsum("eri,eiqc->eqrc", dofs, basis))
    assert_close(stress.div_values(tb), np.einsum("eri,eiq->eqr", dofs, divs))


def test_stress_table_coefficients(case):
    disc, tb, _, _ = case
    k = disc.k
    exps1, S = _rt_span(k)
    rq, rw = volume_rule(k)
    tq, tw = side_rule(k)
    lg = legendre01(k + 1, tq)
    mq = monomial_values(_exps_array(k - 1), tb.vol_xi)
    f_vol = np.einsum("fcm,eqm->eqfc", S, monomial_values(exps1, tb.vol_xi))
    f_side = np.einsum("fcm,esqm->esqfc", S, monomial_values(exps1, tb.side_xi))
    f_n = np.einsum("esqfc,esc->esqf", f_side, tb.side_normal)
    v_side = np.einsum("q,qm,esqf->esmf", tw, lg, f_n)
    assert_close(_normal_moments(f_side, tb.side_normal, tw, lg), v_side)
    v_int = 2.0 * np.einsum("q,eqb,eqfc->ebfc", rw, mq, f_vol)
    ne, nd = len(tb.elems), rt_dim(k)
    assert_close(_interior_moments(f_vol, mq, rw), v_int.reshape(ne, -1, 2 * nd))
    vand = np.concatenate(
        [v_side.reshape(ne, -1, nd), v_int.transpose(0, 3, 1, 2).reshape(ne, -1, nd)],
        axis=1,
    )
    C = np.einsum("efi,fcm->eicm", np.linalg.inv(vand), S)
    assert_close(tb.C, C)


def test_constraint_tables(case):
    """The element rows and Gram matrices of a patch batch, which scale the
    class store's, against the integrals on the element."""
    disc, tb, _, stress = case
    k = disc.k
    eq = Equilibrator(disc, stress, LoadData())
    batch = eq._build_batch(0, len(eq.patches.vertex))
    assert np.array_equal(np.unique(batch.elements), tb.elems)
    nmk, sel = _selectors(k)
    divm = batch.table_rows[:, 0, :nmk]
    assert np.array_equal(batch.table_rows[:, 1, :nmk], divm)
    symy, symx = batch.table_rows[:, 0, nmk + len(sel) :], -batch.table_rows[:, 1, nmk + len(sel) :]
    exps1, _ = _rt_span(k)
    vals = np.einsum("eicm,eqm->eiqc", tb.C, monomial_values(exps1, tb.vol_xi))
    divs = tb.basis_div_at(tb.vol_xi)
    mk = monomial_values(_exps_array(k), tb.vol_xi)
    hats = lagrange_values(k, tb.vol_ref)
    w = tb.vol_w
    assert_close(divm, np.einsum("eq,eiq,eqb->ebi", w, divs, mk))
    assert_close(symx, np.einsum("eq,eiq,qa->eai", w, vals[..., 0], hats))
    assert_close(symy, np.einsum("eq,eiq,qa->eai", w, vals[..., 1], hats))
    assert_close(batch.table_gram, np.einsum("eq,eiqc,ejqc->eij", w, vals, vals))


def test_projections(case):
    disc, tb, _, _ = case
    k = disc.k
    rng = np.random.default_rng(3)
    values = rng.standard_normal(tb.vol_w.shape + (2,))
    mk = monomial_values(_exps_array(k), tb.vol_xi)
    G = np.einsum("eq,eqa,eqb->eab", tb.vol_w, mk, mk)
    rhs = np.einsum("eq,eqa,eqc->eca", tb.vol_w, mk, values)
    coeff = np.linalg.solve(G[:, None], rhs[..., None])[..., 0]
    assert_close(project_volume(tb, values, k), coeff)
    assert_close(eval_volume_poly(tb, coeff, k), np.einsum("eca,eqa->eqc", coeff, mk))
    tq, tw = side_rule(k)
    side_vals = rng.standard_normal((5, len(tq), 2))
    want = np.einsum("q,qm,sqc->scm", tw, legendre01(k + 1, tq), side_vals)
    assert_close(project_side(side_vals, k), want)


def _einsum_fields(fields, elems, lg, lv):
    """(grad u_h, p_h) from reference gradients lg (..., nq, ni, 2) and
    values lv (..., nq, np) by the einsum chain."""
    disc = fields.disc
    jinv = disc.mesh.jac_inv[elems]
    ue = fields.u[disc.displacement.vector_dofs(elems)]
    pe = fields.p[disc.pressure.element_dofs[elems]]
    if lg.ndim == 3:
        grads = np.einsum("qir,erd->eqid", lg, jinv)
        p = np.einsum("ei,qi->eq", pe, lv)
    else:
        grads = np.einsum("eqir,erd->eqid", lg, jinv)
        p = np.einsum("eqi,ei->eq", lv, pe)
    return np.einsum("eic,eqid->eqcd", ue, grads), p


def test_fields_at(case):
    disc, tb, fields, _ = case
    k = disc.k
    rng = np.random.default_rng(5)
    shared = tb.vol_ref
    per_element = rng.random((len(tb.elems), 4, 2)) / 2.0
    for ref in (shared, per_element):
        grad_u, p = fields_at(fields, tb.elems, ref)
        want_g, want_p = _einsum_fields(
            fields, tb.elems, lagrange_grads(k + 1, ref), lagrange_values(k, ref)
        )
        assert_close(grad_u, want_g)
        assert_close(p, want_p)


def test_assembled_matrix(case):
    disc, _, _, _ = case
    k, mesh = disc.k, disc.mesh
    material = Material(mu=1.7, inv_lambda=0.3)
    system = assemble_system(disc, material, cook().load)
    full = full_saddle_matrix(disc, material, cook().load)
    rq, rw = volume_rule(k)
    elems = np.arange(mesh.n_triangles)
    jinv = mesh.jac_inv[elems]
    grads = np.einsum("qir,erd->eqid", lagrange_grads(k + 1, rq), jinv)
    vals_p = lagrange_values(k, rq)
    wq = 2.0 * mesh.areas[:, None] * rw[None, :]
    gg = np.einsum("eq,eqid,eqjd->eij", wq, grads, grads)
    ae = material.mu * np.einsum("eq,eqid,eqjc->eicjd", wq, grads, grads)
    for c in range(2):
        ae[:, :, c, :, c] += material.mu * gg
    bte = np.einsum("eq,qj,eqic->eicj", wq, vals_p, grads)
    me = np.einsum("eq,qi,qj->eij", wq, vals_p, vals_p)
    n_u = system.n_u
    udofs = disc.displacement.vector_dofs(elems).reshape(len(elems), -1)
    pdofs = disc.pressure.element_dofs[elems] + n_u
    want = np.zeros(full.shape)
    nlu2 = udofs.shape[1]
    np.add.at(want, (udofs[:, :, None], udofs[:, None, :]), ae.reshape(len(elems), nlu2, nlu2))
    bte = bte.reshape(len(elems), nlu2, -1)
    np.add.at(want, (udofs[:, :, None], pdofs[:, None, :]), bte)
    np.add.at(want, (pdofs[:, None, :], udofs[:, :, None]), bte)
    np.add.at(want, (pdofs[:, :, None], pdofs[:, None, :]), -material.inv_lambda * me)
    assert_close(full.toarray(), want)
    free = system.free
    assert_close(system.matrix.toarray(), want[np.ix_(free, free)])


def test_side_jumps_and_rhs_moments(case):
    disc, tb, _, stress = case
    k, mesh = disc.k, disc.mesh
    load = cook().load
    jump = side_jumps(disc, stress)
    tr = np.einsum("erd,esqd->esqr", stress.dofs[tb.elems], tb.normal_basis())
    sides = tb.side_ids
    minus = mesh.side_tri[sides, 0] == tb.elems[:, None]
    tminus = np.zeros_like(jump)
    tminus[sides[minus]] = tr[minus]
    tplus = np.zeros_like(jump)
    tplus[sides[~minus]] = tr[~minus]
    boundary = mesh.side_tri[:, 1] < 0
    assert_close(jump[boundary], tminus[boundary])
    assert_close(jump[~boundary], tminus[~boundary] - tplus[~boundary])

    rdiv = build_rhs_tables(disc, stress, load).rdiv
    resid = load.volume_at(tb.vol_x) + stress.div_values(tb)
    hats = lagrange_values(1, tb.vol_ref)
    mk = monomial_values(_exps_array(k), tb.vol_xi)
    want = -np.einsum("eq,qa,eqr,eqb->earb", tb.vol_w, hats, resid, mk)
    assert_close(rdiv, want)

