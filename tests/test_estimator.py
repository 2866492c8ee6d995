"""Error-estimator tests: tensor algebra, bound weights, dense oracles."""

import numpy as np
import pytest

from stresseq import (
    AdaptiveConfig,
    BoundConstants,
    BrokenField,
    EstimatorReport,
    FieldPair,
    InvalidConstants,
    LoadData,
    Material,
    a_norm_sq,
    adaptive_loop,
    antisymmetric_norm_sq,
    compose_ancestry,
    conservative_constants,
    data_oscillation,
    direct_stress,
    divergence_defect_sq,
    energy_error,
    equilibrate,
    estimate,
    eta_components,
    guaranteed_bound,
    lshape_mesh,
    manufactured_smooth,
    neighborhood_ratio,
    reference_energy_errors,
    refine,
    residual_estimator,
    solve,
    unit_square_mesh,
)
from stresseq import estimator, spaces
from stresseq.elasticity import assemble_system
from stresseq.spaces import (
    Discretization,
    build_stress_tables,
    lagrange_grads,
    lagrange_values,
    rt_dim,
    triangle_rule,
)

from conftest import solve_problem
from oracles import reference_neighborhood_ratio, uniform_reference_errors, vertex_triangles
from test_mesh import two_triangle_square

D = 2


@pytest.fixture(scope="module")
def manu_solution():
    problem = manufactured_smooth(Material(mu=1.3, inv_lambda=0.5), cells=4)
    disc, fields, sigma = solve_problem(problem)
    delta, sigma_r, eq = equilibrate(disc, sigma, problem.load)
    return problem, disc, fields, sigma, delta


# -- pointwise tensor algebra -----------------------------------------------


def deviatoric(tau: np.ndarray) -> np.ndarray:
    """Trace-free part tau - (tr tau / d) I."""
    tr = (tau[..., 0, 0] + tau[..., 1, 1]) / D
    return tau - tr[..., None, None] * np.eye(D)


def test_apply_A_identity_example():
    """A I = I / 4 at mu = lambda = 1, so (A I) : I = 1 / 2."""
    assert np.isclose(a_norm_sq(np.eye(2), Material(mu=1.0, inv_lambda=1.0)), 0.5, atol=1e-15)


def test_apply_A_incompressible_annihilates_traces(rng):
    mat = Material(mu=0.7, inv_lambda=0.0)
    c = rng.standard_normal(16)
    tau = c[:, None, None] * np.eye(2)
    assert np.max(np.abs(a_norm_sq(tau, mat))) < 1e-14 * np.max(c**2)


def test_apply_A_maps_trace_free_to_scaled(rng):
    for t in (0.0, 0.4, 2.0):
        mat = Material(mu=1.9, inv_lambda=t)
        tau = deviatoric(rng.standard_normal((8, 2, 2)))
        expect = np.einsum("qrc,qrc->q", tau, tau) / (2 * 1.9)
        assert np.allclose(a_norm_sq(tau, mat), expect, atol=1e-14)


def test_incompressible_A_norm_is_deviatoric_norm(rng):
    mu = 1.4
    mat = Material(mu=mu, inv_lambda=0.0)
    tau = rng.standard_normal((32, 2, 2))
    lhs = 2 * mu * a_norm_sq(tau, mat)
    dev = deviatoric(tau)
    rhs = np.einsum("qrc,qrc->q", dev, dev)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_A_norm_dominates_deviatoric_norm(rng):
    mu = 0.9
    tau = rng.standard_normal((64, 2, 2))
    dev_sq = np.einsum("qrc,qrc->q", deviatoric(tau), deviatoric(tau))
    for t in (0.0, 1e-3, 0.5, 3.0):
        a_sq = a_norm_sq(tau, Material(mu=mu, inv_lambda=t))
        assert np.all(2 * mu * a_sq >= dev_sq - 1e-12 * dev_sq)


def test_antisymmetric_and_deviatoric_algebra(rng):
    tau = rng.standard_normal((16, 2, 2))
    as_sq = antisymmetric_norm_sq(tau)
    assert np.allclose(as_sq, 0.5 * (tau[..., 0, 1] - tau[..., 1, 0]) ** 2)
    dev = deviatoric(tau)
    assert np.max(np.abs(dev[..., 0, 0] + dev[..., 1, 1])) < 1e-14
    assert np.allclose(deviatoric(dev), dev, atol=1e-14)
    # symmetric tensors have no antisymmetric part
    sym = 0.5 * (tau + np.swapaxes(tau, -1, -2))
    assert np.max(antisymmetric_norm_sq(sym)) < 1e-28


# -- guaranteed bound weights -------------------------------------------------


def test_bound_zero_for_zero_components():
    z = np.zeros(4)
    assert guaranteed_bound(
        z, z, z, Material(), conservative_constants()
    ) == 0.0


def test_bound_weights_at_incompressible_limit():
    """With the default constants at lambda = inf: 2 S_A + 127 S_B + 288 S_C."""
    mat = Material(mu=1.0, inv_lambda=0.0)
    c = conservative_constants()
    one, z = np.ones(1), np.zeros(1)
    assert np.isclose(guaranteed_bound(one, z, z, mat, c), 2.0, atol=1e-12)
    assert np.isclose(guaranteed_bound(z, one, z, mat, c), 127.0, atol=1e-10)
    assert np.isclose(guaranteed_bound(z, z, one, mat, c), 288.0, atol=1e-10)


def test_bound_near_incompressible_matches_limit(rng):
    etas = rng.random((3, 8))
    c = conservative_constants()
    b_lim = guaranteed_bound(*etas, Material(mu=1.0, inv_lambda=0.0), c)
    b_near = guaranteed_bound(*etas, Material(mu=1.0, inv_lambda=1e-6), c)
    assert abs(b_near - b_lim) <= 1e-5 * b_lim


def test_bound_lambda_free_is_supremum(rng):
    etas = rng.random((3, 8))
    c = conservative_constants()
    for t in (0.0, 1e-3, 0.1, 1.0):
        mat = Material(mu=1.0, inv_lambda=t)
        free = guaranteed_bound(*etas, mat, c, lambda_free=True)
        tied = guaranteed_bound(*etas, mat, c)
        assert free >= tied - 1e-12 * free
        assert np.isclose(
            free, guaranteed_bound(*etas, Material(mu=1.0, inv_lambda=0.0), c)
        )


def test_invalid_constants_rejected():
    with pytest.raises(InvalidConstants):
        BoundConstants(korn=1.9, dev_div=1.0)
    with pytest.raises(InvalidConstants):
        BoundConstants(korn=3.0, dev_div=0.0)
    with pytest.raises(InvalidConstants):
        BoundConstants(korn=np.nan, dev_div=1.0)


# -- eta components against dense re-integration -------------------------------


def dense_fields(disc, fields, elems, rq):
    """Gradient of u_h and p_h at reference points rq, independent path."""
    mesh, k = disc.mesh, disc.k
    jinv = mesh.jac_inv[elems]
    ue = fields.u[
        (disc.displacement.element_dofs[elems][:, :, None] * 2 + np.arange(2))
    ]
    grads = np.einsum("qir,erd->eqid", lagrange_grads(k + 1, rq), jinv)
    grad_u = np.einsum("eic,eqid->eqcd", ue, grads)
    p = np.einsum(
        "ei,qi->eq",
        fields.p[disc.pressure.element_dofs[elems]],
        lagrange_values(k, rq),
    )
    return grad_u, p


def test_eta_components_match_dense_integration(manu_solution):
    problem, disc, fields, sigma, delta = manu_solution
    mat = problem.material
    mu, t = mat.mu, mat.inv_lambda
    b_sq = divergence_defect_sq(disc, fields, t)
    eta_a, eta_b, eta_c = eta_components(disc, delta, b_sq, mat)

    mesh, k = disc.mesh, disc.k
    elems = np.arange(mesh.n_triangles)
    rq, rw = triangle_rule(16)
    tb = build_stress_tables(disc.mesh, disc.k, elems)
    p0 = mesh.vertices[mesh.triangles[elems, 0]]
    jac = mesh.jac[elems]
    xq = p0[:, None, :] + np.einsum("qr,edr->eqd", rq, jac)
    w = 2.0 * mesh.areas[elems][:, None] * rw[None, :]

    basis = tb.basis_at(tb.scaled(xq))
    vals = np.einsum("eri,eiqc->eqrc", delta.dofs[elems], basis)
    tr = vals[..., 0, 0] + vals[..., 1, 1]
    a_tau = vals / (2 * mu)
    coef = 1.0 / ((2 * mu * t + D) * 2 * mu)
    a_tau[..., 0, 0] -= coef * tr
    a_tau[..., 1, 1] -= coef * tr
    a_sq = np.einsum("eqrc,eqrc->eq", a_tau, vals)
    ref_a = np.sqrt(np.einsum("eq,eq->e", w, a_sq))
    assert np.max(np.abs(eta_a - ref_a)) <= 1e-12 * max(1.0, ref_a.max())

    grad_u, p = dense_fields(disc, fields, elems, rq)
    bval = grad_u[..., 0, 0] + grad_u[..., 1, 1] - t * p
    ref_b = np.sqrt(2 * mu * np.einsum("eq,eq->e", w, bval**2))
    assert np.max(np.abs(eta_b - ref_b)) <= 1e-12 * max(1.0, ref_b.max())

    c_sq = 0.5 * (vals[..., 0, 1] - vals[..., 1, 0]) ** 2 / (2 * mu)
    ref_c = np.sqrt(np.einsum("eq,eq->e", w, c_sq))
    assert np.max(np.abs(eta_c - ref_c)) <= 1e-12 * max(1.0, ref_c.max())


def test_eta_components_zero_cases(manu_solution):
    problem, disc, fields, sigma, delta = manu_solution
    mat = problem.material
    zero_delta = BrokenField(
        disc.mesh, disc.k, np.zeros((disc.mesh.n_triangles, 2, rt_dim(disc.k)))
    )
    b_sq = divergence_defect_sq(disc, fields, mat.inv_lambda)
    eta_a, eta_b, eta_c = eta_components(disc, zero_delta, b_sq, mat)
    assert np.max(eta_a) == 0.0
    assert np.max(eta_c) == 0.0
    assert np.max(eta_b) > 0.0  # Taylor-Hood is not pointwise divergence-free

    zero_fields = FieldPair(
        disc, np.zeros_like(fields.u), np.zeros_like(fields.p)
    )
    b_sq0 = divergence_defect_sq(disc, zero_fields, mat.inv_lambda)
    _, eta_b0, _ = eta_components(disc, delta, b_sq0, mat)
    assert np.max(eta_b0) == 0.0


def test_estimate_evaluates_the_fields_once_per_chunk(monkeypatch):
    """eta_B and the last term of eta_R share one evaluation of
    (grad u_h, p_h) at the volume rule per stress chunk."""
    monkeypatch.setattr(spaces, "_CHUNK", 10)  # several chunks
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.1), cells=4)
    disc, fields, sigma = solve_problem(problem)
    delta, _, _ = equilibrate(disc, sigma, problem.load)
    chunks = disc.stress_chunks()
    at_volume_rule = []
    inner = estimator.fields_at

    def counting(fields, elems, ref):
        if np.array_equal(ref, chunks[0].vol_ref):
            at_volume_rule.append(len(elems))
        return inner(fields, elems, ref)

    monkeypatch.setattr(estimator, "fields_at", counting)
    estimate(
        disc, fields, sigma, delta, problem.load, problem.material,
        conservative_constants(),
    )
    assert len(chunks) > 1
    assert at_volume_rule == [len(tb.elems) for tb in chunks]


# -- residual estimator ----------------------------------------------------------


def test_residual_estimator_hand_example():
    """u_h = 0, p_h = 1, no loads: only the traction defect remains.

    sigma_h = I on both elements of the square, so interior jumps vanish
    and each non-clamped boundary side contributes h_S * |S| * 1.
    """
    mesh = two_triangle_square()
    disc = Discretization(mesh, k=1)
    n_u = disc.displacement.n_scalar
    fields = FieldPair(disc, np.zeros(2 * n_u), np.ones(disc.pressure.n_scalar))
    mat = Material(mu=0.5, inv_lambda=0.0)
    sigma = direct_stress(fields, mat)
    b_sq = divergence_defect_sq(disc, fields, mat.inv_lambda)
    eta_r = residual_estimator(disc, b_sq, sigma, LoadData())
    assert np.allclose(eta_r, [np.sqrt(2.0), 1.0], atol=1e-12)


def test_residual_estimator_zero_for_exact_equilibrium():
    """A constant stress state with matching tractions has zero residual."""
    mesh = two_triangle_square()
    disc = Discretization(mesh, k=1)
    n_u = disc.displacement.n_scalar
    fields = FieldPair(disc, np.zeros(2 * n_u), np.ones(disc.pressure.n_scalar))
    mat = Material(mu=0.5, inv_lambda=0.0)
    sigma = direct_stress(fields, mat)

    def g(x):
        out = np.zeros_like(x)
        on_r = np.abs(x[..., 0] - 1.0) < 1e-9
        on_b = np.abs(x[..., 1]) < 1e-9
        on_t = np.abs(x[..., 1] - 1.0) < 1e-9
        out[..., 0] = np.where(on_r, 1.0, 0.0)
        out[..., 1] = np.where(on_t, 1.0, np.where(on_b, -1.0, 0.0))
        return out

    b_sq = divergence_defect_sq(disc, fields, mat.inv_lambda)
    eta_r = residual_estimator(disc, b_sq, sigma, LoadData(traction=g))
    assert np.max(eta_r) <= 1e-12


def test_oscillation_vanishes_for_resolved_data():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    disc = Discretization(problem.mesh, k=1)

    def f(x):
        out = np.empty_like(x)
        out[..., 0] = 1.0 + 2.0 * x[..., 0] - x[..., 1]
        out[..., 1] = 0.25 * x[..., 1]
        return out

    osc_f, osc_g = data_oscillation(
        disc, LoadData(volume=f, traction=lambda x: np.full_like(x, 0.01))
    )
    assert np.max(osc_f) <= 1e-14
    assert osc_g.size and np.max(osc_g) <= 1e-14


def test_oscillation_rate_for_smooth_data():
    """Non-polynomial f: total h-weighted oscillation decays ~ h^(k+2)."""
    mat = Material(mu=1.0, inv_lambda=0.0)

    def f(x):
        out = np.zeros_like(x)
        out[..., 0] = np.sin(3.0 * x[..., 0])
        return out

    totals, hs = [], []
    for cells in (2, 4, 8, 16):
        mesh = unit_square_mesh(cells)
        disc = Discretization(mesh, k=1)
        osc_f, _ = data_oscillation(disc, LoadData(volume=f))
        totals.append(float(np.sqrt(np.sum(osc_f**2))))
        hs.append(float(np.max(mesh.h)))
    rates = np.diff(np.log(totals)) / np.diff(np.log(hs))
    assert np.all(rates >= 2.5)


# -- energy errors ------------------------------------------------------------


def test_energy_error_matches_dense_oracle(manu_solution):
    problem, disc, fields, sigma, delta = manu_solution
    mat = problem.material
    err = energy_error(fields, problem.exact, mat)

    mesh = disc.mesh
    elems = np.arange(mesh.n_triangles)
    rq, rw = triangle_rule(24)
    jac = mesh.jac[elems]
    p0 = mesh.vertices[mesh.triangles[elems, 0]]
    xq = p0[:, None, :] + np.einsum("qr,edr->eqd", rq, jac)
    w = 2.0 * mesh.areas[elems][:, None] * rw[None, :]
    grad_u, p = dense_fields(disc, fields, elems, rq)
    dg = problem.exact.displacement_gradient(xq) - grad_u
    eps = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    dp = problem.exact.pressure(xq) - p
    total = float(
        np.einsum("eq,eq->", w, 2 * mat.mu * np.einsum("eqrc,eqrc->eq", eps, eps))
    ) + float(np.einsum("eq,eq->", w, mat.inv_lambda * dp**2))
    ref = float(np.sqrt(total))
    assert abs(err - ref) <= 1e-10 * ref


def test_energy_error_pressure_blind_at_incompressible_limit():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    disc, fields, _ = solve_problem(problem)
    err = energy_error(fields, problem.exact, problem.material)
    shifted = type(problem.exact)(
        displacement=problem.exact.displacement,
        displacement_gradient=problem.exact.displacement_gradient,
        pressure=lambda x: problem.exact.pressure(x) + 10.0,
    )
    err_shifted = energy_error(fields, shifted, problem.material)
    assert abs(err - err_shifted) <= 1e-12 * err


def test_proxy_error_zero_against_itself(manu_solution):
    problem, disc, fields, sigma, delta = manu_solution
    (err,) = reference_energy_errors(
        [fields], fields, [disc.mesh], problem.material
    )
    assert err <= 1e-14


def test_proxy_error_close_to_analytic_error():
    """|err(coarse) - proxy(coarse vs fine)| <= err(fine), by the triangle
    inequality in the energy norm."""
    mat = Material(mu=1.0, inv_lambda=0.5)
    problem = manufactured_smooth(mat, cells=2)
    meshes = [problem.mesh]
    for _ in range(2):
        meshes.append(refine(meshes[-1], np.arange(meshes[-1].n_triangles)))

    def solve_on(mesh):
        disc = Discretization(mesh, k=1)
        system = assemble_system(disc, mat, problem.load)
        return disc, solve(system)

    cdisc, cfields = solve_on(meshes[0])
    fdisc, ffields = solve_on(meshes[-1])
    err_c = energy_error(cfields, problem.exact, mat)
    err_f = energy_error(ffields, problem.exact, mat)
    (proxy,) = reference_energy_errors([cfields], ffields, meshes, mat)
    assert err_f < 0.5 * err_c  # the reference really is finer
    assert abs(err_c - proxy) <= err_f


def test_uniform_reference_errors_match_analytic_errors():
    """The reference oracle of the effectivity check, run on a problem with
    an exact solution: against the final mesh of an adaptive run bisected
    uniformly REFERENCE_ROUNDS times, every step's error agrees with the
    analytic energy error to 1 %, also on the last steps of the run."""
    for t in (0.0, 0.5):
        problem = manufactured_smooth(Material(mu=1.0, inv_lambda=t), cells=2)
        history = adaptive_loop(problem, AdaptiveConfig(theta=0.5, max_steps=8))
        exact = np.array([s.error for s in history])
        errors = uniform_reference_errors(history, problem)
        assert np.all(np.abs(errors / exact - 1.0) <= 0.01), (t, errors / exact)


def test_compose_ancestry_identity_and_chain():
    mesh = unit_square_mesh(2)
    assert np.array_equal(compose_ancestry([mesh]), np.arange(mesh.n_triangles))
    fine = refine(mesh, np.array([0]))
    anc = compose_ancestry([mesh, fine])
    assert np.array_equal(anc, fine.parent)
    with pytest.raises(ValueError):
        compose_ancestry([mesh, unit_square_mesh(4)])


# -- neighborhood efficiency ratio ----------------------------------------------


def test_neighborhood_ratio_hand_example():
    mesh = two_triangle_square()
    eta_a = np.array([1.0, 2.0])
    z = np.zeros(2)
    eta_r = np.array([1.0, 1.0])
    # both elements share vertices, so every neighborhood is the whole mesh
    assert np.isclose(neighborhood_ratio(mesh, eta_a, z, z, eta_r), 2.0)
    assert neighborhood_ratio(mesh, eta_a, z, z, np.zeros(2)) == 0.0


def test_neighborhood_ratio_respects_locality():
    mesh = unit_square_mesh(4)
    eta_a = np.zeros(mesh.n_triangles)
    eta_a[0] = 1.0
    z = np.zeros(mesh.n_triangles)
    eta_r = np.ones(mesh.n_triangles)
    offsets, ids = vertex_triangles(mesh)
    nbrs = np.unique(
        np.concatenate(
            [ids[offsets[v] : offsets[v + 1]] for v in mesh.triangles[0]]
        )
    )
    expect = 1.0 / len(nbrs)
    assert np.isclose(neighborhood_ratio(mesh, eta_a, z, z, eta_r), expect)


def test_neighborhood_ratio_matches_the_loop_oracle():
    """Random indicators on a graded L-shape mesh, with eta_R zero on about
    nine tenths of the elements so that some neighbourhoods sum to zero:
    the sparse neighbourhood sums give the loop's ratio to rounding (a
    sum of about ten positive terms, in another order)."""
    rng = np.random.default_rng(21)
    coarse = lshape_mesh()
    mesh = refine(coarse, np.arange(0, coarse.n_triangles, 3))
    for _ in range(20):
        eta = rng.random((4, mesh.n_triangles))
        eta[3, rng.random(mesh.n_triangles) < 0.9] = 0.0
        got = neighborhood_ratio(mesh, *eta)
        assert got == pytest.approx(reference_neighborhood_ratio(mesh, *eta), rel=1e-13, abs=0)


# -- assembled report ------------------------------------------------------------


def test_estimate_report_consistency(manu_solution):
    problem, disc, fields, sigma, delta = manu_solution
    mat = problem.material
    c = conservative_constants()
    report = estimate(disc, fields, sigma, delta, problem.load, mat, c)
    assert isinstance(report, EstimatorReport)
    assert np.isclose(
        report.eta_total**2,
        report.eta_A_total**2 + report.eta_B_total**2 + report.eta_C_total**2,
    )
    assert np.allclose(
        report.eta_T,
        np.sqrt(report.eta_A**2 + report.eta_B**2 + report.eta_C**2),
    )
    assert report.bound == guaranteed_bound(
        report.eta_A, report.eta_B, report.eta_C, mat, c
    )
    assert report.bound_lambda_free >= report.bound - 1e-12 * report.bound
    assert report.effectivity is None
    report.energy_error = energy_error(fields, problem.exact, mat)
    assert report.effectivity == np.sqrt(report.bound) / report.energy_error
    # the guaranteed bound actually bounds the squared error here
    assert report.energy_error**2 <= report.bound
