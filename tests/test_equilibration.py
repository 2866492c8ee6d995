"""Patch equilibration tests against dense re-integration and KKT oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from stresseq import (
    AdaptiveConfig,
    BrokenField,
    Discretization,
    Equilibrator,
    IncompatiblePatch,
    LoadData,
    Material,
    adaptive_loop,
    cook,
    cook_mesh,
    direct_stress,
    equilibrate,
    lshape_mesh,
    manufactured_smooth,
    modified_patches,
    square_lshape,
    standard_patches,
    uniform_refine,
    verify_equilibration,
)
import stresseq.equilibration as equilibration
from stresseq.equilibration import _BATCH_BYTES, _n_local, side_jumps
from stresseq.spaces import (
    _exps_array,
    _rt_span,
    build_stress_tables,
    lagrange_values,
    legendre01,
    make_dofmap,
    monomial_values,
    rt_dim,
    triangle_rule,
)

from conftest import solve_problem
from oracles import (
    absorbed,
    batch_of,
    compatibility_residual,
    dense_kkt_minimizer,
    dense_patch_constraints,
    mass_norm,
    null_space_vectors,
    patch_rows,
    production_minimizer,
    reference_condensed,
    reference_side_traces,
    side_dof_jumps,
    touches_displacement,
)
from test_mesh import randomly_refined


@pytest.fixture(scope="module")
def cook_eq():
    problem = cook()
    disc, fields, sigma = solve_problem(problem)
    return problem, disc, Equilibrator(disc, sigma, problem.load)


@pytest.fixture(scope="module")
def cook2_eq():
    problem = cook()
    disc, fields, sigma = solve_problem(problem, k=2)
    return problem, disc, Equilibrator(disc, sigma, problem.load)


@pytest.fixture(scope="module")
def lshape2_eq():
    problem = square_lshape(Material(mu=1.0, inv_lambda=0.002))
    disc, fields, sigma = solve_problem(problem, k=2)
    return problem, disc, Equilibrator(disc, sigma, problem.load)


@pytest.fixture(scope="module")
def manu_eq():
    problem = manufactured_smooth(
        material=Material(mu=1.0, inv_lambda=0.5), cells=4
    )
    disc, fields, sigma = solve_problem(problem)
    return problem, disc, Equilibrator(disc, sigma, problem.load)


def patch_field(problem, x):
    """Scatter free-column values into per-element dof arrays (ne, 2, nd)."""
    dofs = np.zeros(problem.free_col.shape)
    dofs[problem.free_col >= 0] = x
    return dofs


def dense_row_actions(mesh, k, pp, jump_sides, dofs):
    """Re-integrate the action of every constraint row with dense rules.

    ``dofs`` is the patch-local stress (ne, 2, nd), ``jump_sides`` the
    sides with jump rows, ascending.  Basis evaluation is
    shared with production (validated separately against finite
    differences); the quadrature, moment assembly, and bookkeeping are
    independent.
    """
    elements = pp.elements
    tb = build_stress_tables(mesh, k, elements)
    loc_of = {int(e): i for i, e in enumerate(elements)}
    nmk = len(_exps_array(k))

    # dense volume rule
    rq, rw = triangle_rule(20)
    p = mesh.vertices[mesh.triangles[elements]]
    xq = (
        p[:, None, 0, :]
        + rq[None, :, 0, None] * (p[:, 1] - p[:, 0])[:, None, :]
        + rq[None, :, 1, None] * (p[:, 2] - p[:, 0])[:, None, :]
    )
    w = 2.0 * mesh.areas[elements][:, None] * rw[None, :]
    xi = tb.scaled(xq)

    div_b = tb.basis_div_at(xi)                        # (ne, nd, nq)
    div_vals = np.einsum("eri,eiq->eqr", dofs, div_b)  # (ne, nq, 2)
    mk = monomial_values(_exps_array(k), xi)
    div_rows = np.einsum("eq,eqr,eqb->erb", w, div_vals, mk).ravel()

    # dense side rule for the jump rows
    gx, gw = np.polynomial.legendre.leggauss(40)
    ts, ws = (gx + 1.0) / 2.0, gw / 2.0
    lg = legendre01(k + 1, ts)
    exps1, _ = _rt_span(k)
    in_patch = np.zeros(mesh.n_triangles + 1, dtype=bool)
    in_patch[elements] = True
    jump_rows = np.zeros((len(jump_sides), 2, k + 1))
    for si, s in enumerate(jump_sides):
        a, b = mesh.vertices[mesh.sides[s]]
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        total = np.zeros((len(ts), 2))
        for sign, e in zip((1.0, -1.0), mesh.side_tri[s]):
            if e < 0 or not in_patch[e]:
                continue
            i = loc_of[int(e)]
            xi_s = (pts - tb.centers[i]) / tb.h[i]
            mv = monomial_values(exps1, xi_s)           # (nq, m)
            basis = np.einsum("icm,qm->iqc", tb.C[i], mv)
            vals = np.einsum("ri,iqc->qrc", dofs[i], basis)
            total += sign * np.einsum(
                "qrc,c->qr", vals, mesh.side_normal[s]
            )
        jump_rows[si] = np.einsum("q,qr,qm->rm", ws, total, lg)

    # symmetry rows against the continuous scalar hats
    hats = lagrange_values(k, rq)                       # (nq, nlk)
    vol_b = tb.basis_at(xi)                             # (ne, nd, nq, 2)
    t01 = np.einsum("ei,eiqc->eqc", dofs[:, 0], vol_b)[..., 1]
    t10 = np.einsum("ei,eiqc->eqc", dofs[:, 1], vol_b)[..., 0]
    contrib = np.einsum("eq,eq,qa->ea", w, t01 - t10, hats)
    # element_dofs order matches lagrange_values node order
    return div_rows, jump_rows.ravel(), contrib


@pytest.mark.parametrize("setup", ["cook_eq", "cook2_eq", "manu_eq"])
def test_constraint_rows_match_dense_integration(setup, request, rng):
    problem, disc, eq = request.getfixturevalue(setup)
    mesh, k = disc.mesh, disc.k
    patches = eq.patches
    interior = np.flatnonzero(~patches.dirichlet_touching)
    touching = np.flatnonzero(patches.dirichlet_touching)
    folding = [i for i in range(len(patches)) if len(absorbed(patches, i))]
    chosen = [interior[0], touching[0]] + folding[:1]
    for i in chosen:
        pp = eq.build_patch_problem(i)
        x = rng.standard_normal(pp.n_free)
        y = pp.constraints @ x
        dofs = patch_field(pp, x)
        structure = patch_rows(disc, pp)
        div_rows, jump_rows, sym_contrib = dense_row_actions(
            mesh, k, pp, structure.jump_sides, dofs
        )
        sym_rows = np.zeros(len(structure.sym_nodes))
        ed = disc.pressure.element_dofs[pp.elements]
        np.add.at(sym_rows, np.searchsorted(structure.sym_nodes, ed), sym_contrib)
        expect = np.concatenate([div_rows, jump_rows, sym_rows])
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(y - expect)) <= 1e-12 * scale


def test_zero_data_gives_zero_correction(manu_eq):
    _, disc, _ = manu_eq
    zero = BrokenField(
        disc.mesh,
        disc.k,
        np.zeros((disc.mesh.n_triangles, 2, rt_dim(disc.k))),
    )
    eq = Equilibrator(disc, zero, LoadData())
    assert eq.rhs_tables.scale == 1.0
    assert np.max(np.abs(eq.rhs_tables.rdiv)) == 0.0
    assert np.max(np.abs(eq.rhs_tables.rjump)) == 0.0
    delta = eq.correction()
    assert np.max(np.abs(delta.dofs)) == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_side_jumps_match_the_trace_pair_oracle(k):
    """On a mesh of two stress chunks, where 233 sides have their elements
    in different chunks, the one jump array holds the bytes of the minus
    trace less the plus trace."""
    mesh = uniform_refine(cook().mesh, 7)
    disc = Discretization(mesh, k)
    first = disc.stress_chunks[0].elems
    interior = mesh.side_tri[:, 1] >= 0
    across = np.isin(mesh.side_tri[interior], first).sum(axis=1) == 1
    assert len(disc.stress_chunks) == 2 and across.sum() == 233
    rng = np.random.default_rng(11)
    field = BrokenField(mesh, k, rng.standard_normal((mesh.n_triangles, 2, rt_dim(k))))
    tminus, tplus = reference_side_traces(disc, field)
    assert side_jumps(disc, field).tobytes() == (tminus - tplus).tobytes()


@pytest.mark.parametrize(
    "problem, config, n_triangles",
    [
        (cook(), AdaptiveConfig(k=1, theta=0.5, max_steps=20), 213),
        (
            square_lshape(Material(mu=1.0, inv_lambda=0.002)),
            AdaptiveConfig(k=2, theta=0.7, max_steps=20, estimator="residual"),
            240,
        ),
    ],
    ids=["cook-k1", "lshape-k2"],
)
def test_side_jumps_are_the_side_dof_differences(problem, config, n_triangles):
    """A side's RT_k dofs are the Legendre moments of the normal trace in
    the side's global normal and parameter, so the jumps of sigma_h and
    sigma_r at the side points are the minus element's side dofs less the
    plus element's, summed against the Legendre values; checked on the
    final mesh of a graded adaptive run."""
    step = adaptive_loop(problem, config)[-1]
    assert step.mesh.n_triangles == n_triangles
    for field in (direct_stress(step.fields, problem.material), step.sigma_r):
        diff = np.max(np.abs(side_jumps(step.disc, field) - side_dof_jumps(field)))
        assert diff <= 1e-11 * np.max(np.abs(field.dofs))


@pytest.mark.parametrize("setup", ["cook_eq", "manu_eq"])
def test_patch_minimizer_matches_dense_kkt(setup, request):
    """Production rank-handling solve equals the all-rows pseudo-inverse."""
    problem, disc, eq = request.getfixturevalue(setup)
    for i in range(len(eq.patches)):
        pp = eq.build_patch_problem(i)
        x = production_minimizer(eq, pp)
        x_ref = dense_kkt_minimizer(pp)
        ref = mass_norm(pp, x_ref)
        diff = mass_norm(pp, x - x_ref)
        assert diff <= 1e-10 * max(ref, 1e-12), (
            f"patch {pp.vertex}: |x - x_ref|_M = {diff:.3e}, "
            f"|x_ref|_M = {ref:.3e}"
        )


def test_interior_patch_rank_deficiency_exactly_three(manu_eq):
    _, disc, eq = manu_eq
    seen_interior = 0
    for i, touching in enumerate(eq.patches.dirichlet_touching):
        pp = eq.build_patch_problem(i)
        sv = np.linalg.svd(pp.constraints, compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        deficiency = pp.constraints.shape[0] - rank
        if touching:
            assert deficiency == 0, f"patch {pp.vertex}"
        else:
            assert deficiency == 3, f"patch {pp.vertex}"
            seen_interior += 1
    # 5x5 grid: three interior columns, but patches in the column nearest
    # the clamped edge touch it through their triangles
    assert seen_interior >= 6


@pytest.mark.parametrize("setup", ["cook_eq", "manu_eq"])
def test_null_vectors_annihilate_constraints(setup, request):
    """Rigid-motion row combinations vanish on displacement-free patches."""
    problem, disc, eq = request.getfixturevalue(setup)
    for i in np.flatnonzero(~eq.patches.dirichlet_touching):
        pp = eq.build_patch_problem(i)
        nv = null_space_vectors(pp, disc)
        resid = np.abs(nv @ pp.constraints)
        scale = np.linalg.norm(nv, axis=1) * np.linalg.norm(pp.constraints)
        assert np.max(resid / scale[:, None]) <= 1e-12


def test_interior_patch_rhs_is_compatible(cook_eq):
    problem, disc, eq = cook_eq
    for i in np.flatnonzero(~eq.patches.dirichlet_touching):
        pp = eq.build_patch_problem(i)
        _, proj = compatibility_residual(pp, disc)
        assert proj <= 1e-10 * eq.scale, f"patch {pp.vertex}: {proj:.3e}"


def test_minimizer_is_mass_orthogonal_to_constraint_null_space(cook_eq):
    """KKT stationarity: M x lies in the row space of the constraints."""
    problem, disc, eq = cook_eq
    checked = 0
    for i in range(len(eq.patches)):
        pp = eq.build_patch_problem(i)
        if pp.n_free <= pp.constraints.shape[0]:
            continue
        x = production_minimizer(eq, pp)
        _, sv, vt = np.linalg.svd(pp.constraints)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        null_basis = vt[rank:]
        if not len(null_basis):
            continue
        mx = pp.mass @ x
        overlap = np.max(np.abs(null_basis @ mx))
        assert overlap <= 1e-10 * max(np.linalg.norm(mx), 1e-12)
        checked += 1
    assert checked >= 5


def test_incompatible_rhs_raises(manu_eq):
    problem, disc, eq = manu_eq
    pp = eq.build_patch_problem(np.flatnonzero(~eq.patches.dirichlet_touching)[0])
    nv = null_space_vectors(pp, disc)
    bad = nv[0] / np.linalg.norm(nv[0]) * eq.scale
    broken = dataclasses.replace(pp, rhs=pp.rhs + bad)
    with pytest.raises(IncompatiblePatch):
        production_minimizer(eq, broken)


@pytest.mark.parametrize("setup", ["cook_eq", "cook2_eq", "lshape2_eq"])
def test_schur_path_matches_qr_lu_fallback(setup, request):
    """The condensed path passes its gates on every patch and agrees with
    QR+LU and with the all-rows pseudo-inverse, on displacement-boundary
    patches and on patches with absorbed vertices too; the pivoted
    Cholesky keeps exactly the structural rank."""
    _, disc, eq = request.getfixturevalue(setup)
    seen = set()
    patches = eq.patches
    for start, batch in eq._batches():
        sol = eq._solve_batch(batch)
        for i, z in enumerate(batch.vertex):
            touching = patches.dirichlet_touching[start + i]
            n_rows = batch.row_offsets[i + 1] - batch.row_offsets[i]
            assert not sol.fallback[i], f"patch {z} failed the fast path"
            pp = batch.problem(i)
            x = sol.x[batch.pairs(i)][pp.free_col >= 0]
            for x_ref in (eq.solve_patch(pp)[0], dense_kkt_minimizer(pp)):
                assert np.max(np.abs(x - x_ref)) <= 1e-8 * np.max(np.abs(x_ref)), (
                    f"patch {z}"
                )
            assert sol.rank[i] == (n_rows if touching else n_rows - 3), f"patch {z}"
            assert sol.kkt[i] <= 1e-10
            seen.add((touching, len(absorbed(patches, start + i)) > 0))
    assert {(True, False), (False, False), (False, True)} <= seen


@pytest.mark.parametrize("k", range(1, 5))
def test_local_rows_count_a_symmetry_row_per_pk_node(k):
    """An (element, tensor row) block holds the nmk divergence moments, the
    3 (k + 1) side-moment selectors and a symmetry row per P_k node, the
    width of the pressure dof map that the patch build reads."""
    nlk = make_dofmap(cook_mesh(), k).element_dofs.shape[1]
    assert nlk == (k + 1) * (k + 2) // 2
    assert _n_local(k) == len(_exps_array(k)) + 3 * (k + 1) + nlk


@pytest.mark.parametrize("setup", ["cook_eq", "cook2_eq", "lshape2_eq"])
def test_batched_patches_match_batch_of_one(setup, request):
    """Each patch of a batch is built and solved bitwise as in a batch of
    its own, the problem that the batch slices is bitwise, field by field,
    the one built by index, the correction sums the patch solutions in
    patch-vertex order, and the solve of the dense patch problem agrees to
    rounding."""
    _, disc, eq = request.getfixturevalue(setup)
    pair_bytes = 16 * _n_local(disc.k) * rt_dim(disc.k)
    dofs = np.zeros((disc.mesh.n_triangles, 2, rt_dim(disc.k)))
    for start, batch in eq._batches():
        assert len(batch.vertex) == 1 or len(batch.elements) * pair_bytes <= _BATCH_BYTES
        sol = eq._solve_batch(batch)
        for i in range(len(batch.vertex)):
            pp = eq.build_patch_problem(start + i)
            assert pp.vertex == batch.vertex[i]
            sliced = batch.problem(i)
            for field in dataclasses.fields(pp):
                a, b = getattr(sliced, field.name), getattr(pp, field.name)
                assert type(a) is type(b) and np.array_equal(a, b), field.name
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            rows = slice(batch.row_offsets[i], batch.row_offsets[i + 1])
            assert np.array_equal(batch.rhs[rows], pp.rhs)
            alone = eq._solve_batch(eq._build_batch(start + i, start + i + 1)).x
            assert np.array_equal(sol.x[batch.pairs(i)], alone), f"patch {pp.vertex}"
            x = alone[pp.free_col >= 0]
            x_dense = production_minimizer(eq, pp)
            assert np.max(np.abs(x - x_dense)) <= 1e-10 * np.max(np.abs(x_dense)), (
                f"patch {pp.vertex}"
            )
            e, r, d = np.nonzero(pp.free_col >= 0)
            np.add.at(dofs, (pp.elements[e], r, d), x)
    assert np.array_equal(eq.correction().dofs, dofs)


def _table_cases():
    cook_random = randomly_refined(cook_mesh(), 16)
    lshape_random = randomly_refined(lshape_mesh(), 17)
    lshape = square_lshape(Material(mu=1.0, inv_lambda=0.002))
    for k in (1, 2):
        yield pytest.param(cook(), None, k, id=f"cook-k{k}")
        yield pytest.param(lshape, None, k, id=f"square-lshape-k{k}")
        yield pytest.param(cook(), cook_random, k, id=f"cook-random-k{k}")
        yield pytest.param(lshape, lshape_random, k, id=f"lshape-random-k{k}")


def _pivoting(reduced: np.ndarray, rank: int) -> tuple[np.ndarray, float]:
    """The first ``rank`` rows, ascending, that the Jacobi-scaled pivoted
    Cholesky of ``reduced`` chooses, or fewer where it meets a non-positive
    pivot, and the condition number of the scaled matrix on them."""
    d = 1.0 / np.sqrt(np.diag(reduced))
    scaled = reduced * d[:, None] * d
    _, piv, positive, _ = scipy.linalg.lapack.dpstrf(scaled, tol=0.0, lower=1)
    keep = np.sort(piv[: min(positive, rank)] - 1)
    return keep, float(np.linalg.cond(scaled[np.ix_(keep, keep)]))


@pytest.mark.parametrize("build", [standard_patches, modified_patches])
@pytest.mark.parametrize("problem, mesh, k", list(_table_cases()))
def test_element_tables_match_the_pair_oracle(problem, mesh, k, build):
    """The reduced matrices built from the element tables agree with the
    masked-Gram construction per pair to 1e-12 relative, and so do the
    multipliers, times the condition number of the scaled reduced matrix;
    the ranks, and so the dropped rows, are the same on every patch, and
    the fallback flags wherever both pivoted Choleskys keep the same rows.
    No pair has more than one masked side, and the masked entries of x
    are 0.

    Both keep all rows but the three rigid-motion rows of a patch without
    displacement side, the oracle finding those patches from the side
    labels.  After the Jacobi scaling every diagonal entry is 1 up to
    rounding, so which redundant rows a pivoted Cholesky drops is decided
    by rounding; where the two drop different ones, their multipliers
    differ by a left null vector of the constraints.  A standard patch at a
    traction-only vertex has a fourth redundant row, and its rows are not
    consistent: both keep a null pivot there and take the fallback."""
    disc, fields, sigma = solve_problem(problem, k=k, mesh=mesh)
    eq = Equilibrator(disc, sigma, problem.load)
    eq.patches = build(disc.mesh)
    n_masked = n_compared = 0
    for start, batch in eq._batches():
        ref = reference_condensed(eq, batch)
        red = eq._reduce(batch)
        sol = eq._condensed_stack(batch)
        masked = ~batch.free[:, : 3 * (k + 1) : k + 1]
        assert masked.sum(axis=1).max() <= 1
        n_masked += int(masked.sum())
        assert not sol.x[~np.broadcast_to(batch.free[:, None], sol.x.shape)].any()
        assert np.array_equal(sol.rank, ref.rank)
        n_div = np.diff(batch.row_offsets) - red.n_c
        for i, S_ref in enumerate(ref.reduced):
            S = red.S[red.s_start[i] : red.s_start[i] + S_ref.size].reshape(S_ref.shape)
            assert np.max(np.abs(S - S_ref)) <= 1e-12 * np.max(np.abs(S_ref)), f"patch {i}"
            keep, cond = _pivoting(S_ref, ref.rank[i] - n_div[i])
            if not np.array_equal(_pivoting(S, sol.rank[i] - n_div[i])[0], keep):
                continue
            assert sol.fallback[i] == ref.fallback[i], f"patch {i}"
            if not sol.fallback[i]:
                lam, lam_ref = sol.lam[batch.pairs(i)], ref.lam[batch.pairs(i)]
                bound = 1e-12 * cond * np.max(np.abs(lam_ref))
                assert np.max(np.abs(lam - lam_ref)) <= bound, f"patch {i}"
                n_compared += 1
    assert n_masked > 0 and n_compared > 0


def test_condensed_rank_is_structural(monkeypatch):
    """On every patch that the condensed path solves, the rows minus the
    rank are 3 on a patch without a side on the displacement boundary and 0
    on any other: on the steps of a 20-step Cook run (k = 1), of a 12-step
    L-shape run (k = 2) and on the Cook mesh bisected uniformly 1 to 4
    times (k = 2).  On the last, no patch takes the fallback, and the worst
    KKT residual is at most 1e-12."""
    counts = []
    solve_batch = Equilibrator._solve_batch

    def recording(self, batch):
        sol = solve_batch(self, batch)
        for i in np.flatnonzero(~sol.fallback):
            floating = not touches_displacement(self.disc.mesh, batch.elements[batch.pairs(i)])
            rows = batch.row_offsets[i + 1] - batch.row_offsets[i]
            counts.append((int(rows - sol.rank[i]), 3 * floating))
        return sol

    monkeypatch.setattr(Equilibrator, "_solve_batch", recording)
    adaptive_loop(cook(), AdaptiveConfig(k=1, theta=0.5, max_steps=20))
    lshape = square_lshape(Material(mu=1.0, inv_lambda=0.002))
    adaptive_loop(lshape, AdaptiveConfig(k=2, theta=0.7, max_steps=12, estimator="residual"))
    problem = cook()
    for r in range(1, 5):
        disc, _, sigma = solve_problem(problem, k=2, mesh=uniform_refine(problem.mesh, r))
        eq = Equilibrator(disc, sigma, problem.load)
        eq.correction()
        assert eq.n_fallbacks == 0, f"r = {r}"
        assert eq.worst_kkt <= 1e-12, f"r = {r}"
    off = [(dropped, expected) for dropped, expected in counts if dropped != expected]
    assert not off, f"{len(off)} of {len(counts)} patches off the structural count"
    assert {expected for _, expected in counts} == {0, 3}


def _mixed_batch(eq, n_patches):
    """The first batch of at least ``n_patches`` patches that holds patches
    of two or more element counts."""
    return next(
        b for _, b in eq._batches()
        if len(b.vertex) >= n_patches and len(np.unique(np.bincount(b.pair_patch))) > 1
    )


def test_batch_fallback_is_per_patch(cook_eq, monkeypatch):
    """A patch over the row-norm span and a patch failing its gate take
    QR+LU alone; the other patches of the batch are bitwise unchanged."""
    _, disc, eq = cook_eq
    batch = _mixed_batch(eq, 4)
    problems = [batch.problem(i) for i in range(len(batch.vertex))]
    base = eq._solve_batch(batch_of(disc.mesh, *problems))
    assert not base.fallback.any()
    pp = problems[0]
    structure = patch_rows(disc, pp)
    sym = slice(structure.n_div + structure.n_jump, None)   # the symmetry rows
    b, rhs = pp.constraints.copy(), pp.rhs.copy()
    b[sym] *= 1e-9
    rhs[sym] *= 1e-9
    modified = batch_of(disc.mesh, dataclasses.replace(pp, constraints=b, rhs=rhs), *problems[1:])

    # patch 0 rides along in the Schur stack and leaves it by the row-norm
    # rule, so patch 2 is the third solve of each of the two passes over it
    n_stack = len(batch.vertex)
    calls = itertools.count()
    dpotrs = scipy.linalg.lapack.dpotrs

    def perturbed(c, b, lower):
        x, info = dpotrs(c, b, lower=lower)
        return (1.01 * x if next(calls) % n_stack == 2 else x), info

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", perturbed)
    sol = eq._solve_batch(modified)
    assert np.flatnonzero(sol.fallback).tolist() == [0, 2]
    for i in (0, 2):
        problem = modified.problem(i)
        x = sol.x[batch.pairs(i)][problem.free_col >= 0]
        assert np.array_equal(x, eq.solve_patch(problem)[0])
    others = ~np.isin(batch.pair_patch, [0, 2])
    assert np.array_equal(sol.x[others], base.x[others])


def test_correction_counts_its_patches():
    """The Cook mesh bisected uniformly twice solves every patch on the
    Schur path, in fewer batches than patches."""
    problem = cook()
    disc, fields, sigma = solve_problem(problem, mesh=uniform_refine(problem.mesh, 2))
    eq = Equilibrator(disc, sigma, problem.load)
    eq.correction()
    patches = eq.patches
    assert eq.n_patches == len(patches)
    assert 0 < eq.n_batches < eq.n_patches
    assert eq.n_fallbacks == 0
    assert 0.0 < eq.worst_residual <= 1e-9
    assert eq.worst_vertex in patches.vertex
    assert 0.0 < eq.worst_kkt <= 1e-10


def test_correction_counts_the_dropped_rows(cook_eq):
    """On cook (k = 1) every displacement-free patch drops exactly the three
    rigid-motion rows, and every other patch drops none."""
    _, disc, eq = cook_eq
    eq.correction()
    patches = eq.patches
    touching = int(patches.dirichlet_touching.sum())
    assert 0 < touching < len(patches)
    assert eq.dropped_rows == {0: touching, 3: len(patches) - touching}
    assert 0.0 < eq.worst_kkt <= 1e-10


@pytest.mark.parametrize("setup", ["cook_eq", "lshape2_eq"])
def test_dense_view_matches_dense_builder(setup, request):
    """The dense constraint matrix assembled from the local blocks is
    bitwise the one that the dense index arithmetic writes, and the blocks
    read back from it are the element tables' on the free dofs."""
    _, disc, eq = request.getfixturevalue(setup)
    mixed = False
    for start, batch in eq._batches():
        mixed |= len(np.unique(np.bincount(batch.pair_patch))) > 1
        for i in range(len(batch.vertex)):
            b, rhs = dense_patch_constraints(eq, start + i)
            pp = batch.problem(i)
            assert np.array_equal(pp.constraints, b), f"patch {pp.vertex}"
            assert np.array_equal(pp.rhs, rhs), f"patch {pp.vertex}"
            back = batch_of(disc.mesh, pp)
            assert np.array_equal(back.blocks(slice(None)), batch.blocks(batch.pairs(i)))
            assert np.array_equal(back.problem(0).constraints, pp.constraints)
    assert mixed


def test_singular_divergence_block_sends_its_batch_to_the_fallback(cook_eq, monkeypatch):
    """A patch whose local divergence block is singular makes the element
    reduction of its batch fail; every patch of the batch then goes to
    QR+LU, each bitwise as :meth:`Equilibrator.solve_patch` on its own."""
    _, disc, eq = cook_eq
    batch = _mixed_batch(eq, 3)
    problems = [batch.problem(i) for i in range(len(batch.vertex))]
    # a repeated divergence row of patch 1, with its repeated right-hand side
    pp = problems[1]
    b, rhs = pp.constraints.copy(), pp.rhs.copy()
    b[1], rhs[1] = b[0], rhs[0]
    modified = batch_of(
        disc.mesh, problems[0], dataclasses.replace(pp, constraints=b, rhs=rhs), *problems[2:]
    )

    inv = np.linalg.inv
    raised = []

    def spy(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            raised.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "inv", spy)
    sol = eq._solve_batch(modified)
    assert raised[0] == len(batch.elements)
    assert sol.fallback.all()
    for i in range(len(batch.vertex)):
        problem = modified.problem(i)
        x = sol.x[modified.pairs(i)][problem.free_col >= 0]
        assert np.array_equal(x, eq.solve_patch(problem)[0]), f"patch {problem.vertex}"


@pytest.mark.parametrize("setup", ["cook_eq", "cook2_eq", "lshape2_eq"])
def test_correction_does_not_depend_on_chunking(setup, request, monkeypatch):
    """One patch per chunk, the default chunks and one chunk per step give
    bitwise the same correction and the same counters; some default chunk
    holds patches of different element counts."""
    _, disc, eq = request.getfixturevalue(setup)
    results, chunks = [], []
    for size in (1, _BATCH_BYTES, 1 << 40):
        monkeypatch.setattr(equilibration, "_BATCH_BYTES", size)
        dofs = eq.correction().dofs
        chunks.append(eq.n_batches)
        results.append(
            (dofs.tobytes(), eq.n_fallbacks, eq.dropped_rows, eq.worst_residual, eq.worst_vertex)
        )
    assert results[0] == results[1] == results[2]
    assert chunks[0] == eq.n_patches and chunks[2] == 1
    monkeypatch.setattr(equilibration, "_BATCH_BYTES", _BATCH_BYTES)
    assert any(
        len(np.unique(np.bincount(b.pair_patch))) > 1
        for _, b in eq._batches()
    )


def _loaded_patch(eq):
    """The patch problem with the largest right-hand side."""
    problems = [eq.build_patch_problem(i) for i in range(len(eq.patches))]
    return max(problems, key=lambda pp: np.max(np.abs(pp.rhs)))


def wide_span_problem(eq):
    """The loaded patch problem with its symmetry rows and their right-hand
    side scaled by 1e-9: its row norms span more than 8 decades."""
    pp = _loaded_patch(eq)
    b, rhs = pp.constraints.copy(), pp.rhs.copy()
    structure = patch_rows(eq.disc, pp)
    sym = slice(structure.n_div + structure.n_jump, None)
    b[sym] *= 1e-9
    rhs[sym] *= 1e-9
    return dataclasses.replace(pp, constraints=b, rhs=rhs)


def test_wide_row_norm_span_takes_the_fallback(cook_eq):
    _, disc, eq = cook_eq
    scaled = wide_span_problem(eq)
    assert eq._solve_batch(batch_of(disc.mesh, scaled)).fallback[0]
    assert np.array_equal(production_minimizer(eq, scaled), eq.solve_patch(scaled)[0])


@pytest.mark.parametrize("failure", ["gate", "linalg"])
def test_fast_path_failure_takes_the_fallback(cook_eq, monkeypatch, failure):
    _, disc, eq = cook_eq
    pp = _loaded_patch(eq)
    expected = eq.solve_patch(pp)[0]
    assert not np.array_equal(production_minimizer(eq, pp), expected)
    if failure == "gate":
        dpotrs = scipy.linalg.lapack.dpotrs

        def perturbed(c, b, lower):
            x, info = dpotrs(c, b, lower=lower)
            return 1.01 * x, info

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", perturbed)
    else:

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
    assert eq._solve_batch(batch_of(disc.mesh, pp)).fallback[0]
    assert np.array_equal(production_minimizer(eq, pp), expected)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: cook(),
        lambda: manufactured_smooth(Material(mu=1.0, inv_lambda=0.5), cells=4),
        lambda: manufactured_smooth(Material(mu=2.0, inv_lambda=0.0), cells=2),
    ],
)
def test_reconstruction_satisfies_all_properties(factory):
    problem = factory()
    disc, fields, sigma = solve_problem(problem)
    delta, sigma_r, eq = equilibrate(disc, sigma, problem.load)
    report = verify_equilibration(disc, sigma_r, problem.load, scale=eq.scale)
    assert report.div_residual <= 1e-10 * eq.scale
    assert report.jump_residual <= 1e-10 * eq.scale
    assert report.neumann_residual <= 1e-10 * eq.scale
    assert report.symmetry_residual <= 1e-10 * eq.scale


def test_reconstruction_properties_quadratic_elements():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.2), cells=2)
    disc, fields, sigma = solve_problem(problem, k=2)
    delta, sigma_r, eq = equilibrate(disc, sigma, problem.load)
    report = verify_equilibration(disc, sigma_r, problem.load, scale=eq.scale)
    assert report.max_residual <= 1e-10 * eq.scale


def test_uncorrected_stress_fails_equilibrium(cook_eq):
    """Negative control: sigma_h alone has jumps but is pointwise symmetric."""
    problem, disc, eq = cook_eq
    _, _, sigma_h = solve_problem(problem)
    report = verify_equilibration(disc, sigma_h, problem.load, scale=eq.scale)
    assert report.jump_residual > 1e-6 * eq.scale
    assert report.symmetry_residual <= 1e-10 * eq.scale


def test_corrupted_reconstruction_is_detected(manu_eq):
    problem, disc, eq = manu_eq
    _, _, sigma_h = solve_problem(problem)
    sigma_r = sigma_h + eq.correction()
    dofs = sigma_r.dofs.copy()
    dofs[3, 0, 2] += 0.1 * eq.scale
    broken = BrokenField(disc.mesh, disc.k, dofs)
    report = verify_equilibration(disc, broken, problem.load, scale=eq.scale)
    assert report.max_residual > 1e-6 * eq.scale
