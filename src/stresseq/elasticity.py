"""Taylor-Hood saddle-point solver for (nearly) incompressible elasticity.

Discrete problem: find (u_h, p_h) in continuous P_{k+1}^2 x P_k with
u_h = 0 on the displacement boundary such that

    2 mu (eps(u_h), eps(v)) + (p_h, div v) = (f, v) + <g, v>_{traction}
    (div u_h, q) - inv_lambda (p_h, q)     = 0

for all test functions v, q.  ``inv_lambda = 0`` encodes the
incompressible limit exactly.  All integrals use the shared quadrature
rules of :mod:`.spaces` (volume exactness 2k+4, side exactness 2k+5), so
downstream residual identities hold to rounding.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystem
from .mesh import DIRICHLET, NEUMANN, Mesh
from .spaces import (
    _CHUNK,
    BrokenField,
    Discretization,
    StressTables,
    eval_volume_poly,
    lagrange_grads,
    lagrange_values,
    legendre01,
    project_side,
    project_volume,
    rt_dim,
    segment_rule,
    triangle_rule,
)


@dataclass(frozen=True)
class Material:
    """Isotropic material with shear modulus mu and compliance 1/lambda.

    ``inv_lambda`` stores the reciprocal of the first Lame parameter; the
    incompressible limit lambda = infinity is the exact value 0.
    """

    mu: float = 1.0
    inv_lambda: float = 0.0

    def __post_init__(self):
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        if self.inv_lambda < 0.0:
            raise ValueError("inv_lambda must be nonnegative")

    @property
    def lam(self) -> float:
        return np.inf if self.inv_lambda == 0.0 else 1.0 / self.inv_lambda


@dataclass
class LoadData:
    """Problem data: volume load f and traction g on the traction boundary.

    Both are callables mapping points of shape (..., 2) to values of the
    same shape; ``traction`` may be None when the traction boundary is
    empty or load-free.
    """

    volume: Callable[[np.ndarray], np.ndarray] | None = None
    traction: Callable[[np.ndarray], np.ndarray] | None = None

    def volume_at(self, x: np.ndarray) -> np.ndarray:
        if self.volume is None:
            return np.zeros_like(x)
        return np.asarray(self.volume(x), dtype=np.float64)

    def traction_at(self, x: np.ndarray) -> np.ndarray:
        if self.traction is None:
            return np.zeros_like(x)
        return np.asarray(self.traction(x), dtype=np.float64)

    def projected_volume(self, tables: StressTables):
        """f and its elementwise L2 projection onto P_k at the volume
        points of ``tables``: two (ne, nq, 2) arrays."""
        fv = self.volume_at(tables.vol_x)
        coeff = project_volume(tables, fv, tables.k)
        return fv, eval_volume_poly(tables, coeff, tables.k)

    def projected_traction(self, mesh: Mesh, sides, k: int, t: np.ndarray):
        """g at the side rule of degree 2k+5 on ``sides``, (ns, nqs, 2), and
        its side-wise L2 projection onto P_k at the parameters ``t``,
        (ns, len(t), 2)."""
        tq, _ = segment_rule(2 * k + 5)
        gv = self.traction_at(mesh.side_points(sides, tq))
        coeff = project_side(mesh, sides, gv, k)
        # einsum "scm,qm->sqc"
        return gv, (coeff @ legendre01(k + 1, t).T).swapaxes(1, 2)


@dataclass
class FieldPair:
    """Discrete displacement-pressure pair on one mesh.

    ``u`` holds interleaved (x, y) components per scalar displacement dof;
    ``p`` holds the pressure dofs.  Dirichlet displacement dofs are zero.
    """

    disc: Discretization
    u: np.ndarray
    p: np.ndarray

    @property
    def mesh(self) -> Mesh:
        return self.disc.mesh

    @property
    def k(self) -> int:
        return self.disc.k


@dataclass
class LinearSystem:
    """Assembled saddle-point system with boundary bookkeeping."""

    disc: Discretization
    material: Material
    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray          # boolean mask over all dofs
    n_u: int
    pressure_mass: sp.csr_matrix
    pinned_pressure: bool


# -- element geometry helpers --------------------------------------------------


def element_jacobians(mesh: Mesh, elems) -> tuple[np.ndarray, np.ndarray]:
    """Affine map Jacobians and inverses for the given elements.

    Returns (jac, inv) with jac[e] = [d x / d ref]; inv maps physical
    gradients: grad_phys = grad_ref @ inv.
    """
    pts = mesh.vertices[mesh.triangles[elems]]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    jac = np.stack([e1, e2], axis=-1)  # columns are edge vectors
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = e2[:, 1]
    inv[:, 0, 1] = -e2[:, 0]
    inv[:, 1, 0] = -e1[:, 1]
    inv[:, 1, 1] = e1[:, 0]
    inv /= det[:, None, None]
    return jac, inv


def rule_points(mesh: Mesh, elems, rq, rw):
    """Physical points (ne, nq, 2) and weights (ne, nq) of the reference
    rule (rq, rw) on ``elems``."""
    jac, _ = element_jacobians(mesh, elems)
    p0 = mesh.vertices[mesh.triangles[elems, 0]]
    # einsum "qr,edr->eqd"
    xq = p0[:, None, :] + (
        rq[None, :, 0, None] * jac[:, None, :, 0]
        + rq[None, :, 1, None] * jac[:, None, :, 1]
    )
    return xq, 2.0 * mesh.areas[elems][:, None] * rw[None, :]


def _side_reference_points(j: int, flip: bool, t: np.ndarray) -> np.ndarray:
    """Reference coordinates of side quadrature points on local side j.

    The global side parameter runs from the side's lower to higher vertex
    id; `flip` says the local edge (vertex j+1 -> vertex j+2) runs the
    other way.
    """
    corners = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    a = corners[(j + 1) % 3]
    b = corners[(j + 2) % 3]
    tau = 1.0 - t if flip else t
    return a[None, :] + tau[:, None] * (b - a)[None, :]


def side_flip_mask(mesh: Mesh, elems) -> np.ndarray:
    """flip[e, j]: local side j of element e runs against its global param."""
    tri = mesh.triangles[elems]
    va = tri[:, [1, 2, 0]]
    vb = tri[:, [2, 0, 1]]
    return va > vb


# -- assembly -------------------------------------------------------------------


def _summed(rows, cols, data, shape: tuple) -> sp.csr_matrix:
    """CSR matrix of the triplets, duplicates summed."""
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _element_triplets(
    disc: Discretization, material: Material, load: LoadData
) -> tuple[dict, np.ndarray]:
    """Element contributions as (rows, cols, data) triplets in element
    order, per block: "a" for A, "b" for B^T (displacement rows, pressure
    columns), "m" for the pressure mass M; and the volume-load vector."""
    mesh, k = disc.mesh, disc.k
    m = k + 1
    dm_u = disc.displacement
    dm_p = disc.pressure
    n = dm_u.n_dofs + dm_p.n_scalar
    mu = material.mu

    rq, rw = triangle_rule(2 * k + 4)
    gref = lagrange_grads(m, rq).transpose(1, 2, 0)  # (nlu, 2, nq)
    vals_u = lagrange_values(m, rq)       # (nq, nlu)
    vals_p = lagrange_values(k, rq)       # (nq, nlp)
    nq, nlu = vals_u.shape
    nlp = vals_p.shape[1]
    pp = (vals_p[:, :, None] * vals_p[:, None, :]).reshape(nq, -1)

    nt = mesh.n_triangles
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    sizes = {"a": (2 * nlu) ** 2, "b": 2 * nlu * nlp, "m": nlp * nlp}
    triplets = {
        name: (np.empty(nt * size, index), np.empty(nt * size, index), np.empty(nt * size))
        for name, size in sizes.items()
    }
    rhs = np.zeros(n)

    for lo in range(0, mesh.n_triangles, _CHUNK):
        elems = np.arange(lo, min(lo + _CHUNK, mesh.n_triangles))
        ne = len(elems)
        _, jinv = element_jacobians(mesh, elems)
        xq, wq = rule_points(mesh, elems, rq, rw)
        # einsum "qir,erd->eqid", laid out as (e, i, d, q)
        grads = gref[None, :, 0, None, :] * jinv[:, None, 0, :, None]
        grads += gref[None, :, 1, None, :] * jinv[:, None, 1, :, None]
        grads = grads.reshape(ne, 2 * nlu, nq)
        wgrads = grads * wq[:, None, :]

        # einsum "eq,qj,eqic->eicj"
        bte = (wgrads.reshape(-1, nq) @ vals_p).reshape(ne, 2 * nlu, nlp)

        # einsum "eq,eqid,eqjc->eicjd", and "eq,eqid,eqjd->eij" as its
        # trace over c = d
        m4 = (wgrads @ grads.swapaxes(1, 2)).reshape(ne, nlu, 2, nlu, 2)
        del grads, wgrads  # the largest arrays of the chunk
        gg = m4[:, :, 0, :, 0] + m4[:, :, 1, :, 1]
        m4 *= mu
        ae = m4.transpose(0, 1, 4, 3, 2)  # [e, i, c, j, d]
        for c in range(2):
            ae[:, :, c, :, c] += mu * gg

        # einsum "eq,qi,qj->eij"
        me = (wq @ pp).reshape(ne, nlp, nlp)

        udofs = dm_u.vector_dofs(elems).reshape(ne, 2 * nlu)
        pdofs = dm_p.element_dofs[elems]

        for name, r, c, values in (
            ("a", udofs, udofs, ae), ("b", udofs, pdofs, bte), ("m", pdofs, pdofs, me)
        ):
            rows, cols, data = triplets[name]
            part = slice(lo * sizes[name], (lo + ne) * sizes[name])
            rows[part] = np.repeat(r, c.shape[1], axis=1).ravel()
            cols[part] = np.tile(c, (1, r.shape[1])).ravel()
            data[part].reshape(values.shape)[...] = values

        # volume load
        fv = load.volume_at(xq)
        # einsum "eq,eqc,qi->eic"
        fe = vals_u.T @ (fv * wq[:, :, None])
        np.add.at(rhs, udofs, fe.reshape(ne, -1))
    return triplets, rhs


def assemble_system(
    disc: Discretization, material: Material, load: LoadData
) -> LinearSystem:
    """Assemble the saddle-point matrix and right-hand side.

    Block layout: displacement dofs first (interleaved components), then
    pressure dofs.  Dirichlet dofs are kept in the matrix but flagged in
    ``free``; elimination happens in :func:`solve` (homogeneous data, so
    no right-hand-side correction is needed).
    """
    mesh, k = disc.mesh, disc.k
    m = k + 1
    dm_u = disc.displacement
    n_u = dm_u.n_dofs
    n_p = disc.pressure.n_scalar
    n = n_u + n_p
    t = material.inv_lambda
    triplets, rhs = _element_triplets(disc, material, load)

    # each block is summed on its own, in its own rows, as adding the COO
    # blocks through CSR additions did; the blocks share no entry, so
    # stacking them adds nothing, and exact zeros are dropped as those
    # additions drop them
    a_mat = _summed(*triplets.pop("a"), (n_u, n_u))
    rows_b, cols_b, data_b = triplets.pop("b")
    upper = sp.hstack([a_mat, _summed(rows_b, cols_b, data_b, (n_u, n_p))], format="csr")
    del a_mat
    mass = _summed(*triplets.pop("m"), (n_p, n_p))
    lower = sp.hstack(
        [
            _summed(cols_b, rows_b, data_b, (n_p, n_u)),
            mass * (-t) if t != 0.0 else sp.csr_matrix((n_p, n_p)),
        ],
        format="csr",
    )
    matrix = sp.vstack([upper, lower], format="csr")
    del upper, lower
    matrix.eliminate_zeros()

    # traction contributions on the Neumann boundary
    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size and load.traction is not None:
        tq, tw = segment_rule(2 * k + 5)
        owner = mesh.side_tri[nsides, 0]
        jloc = np.argmax(mesh.tri_sides[owner] == nsides[:, None], axis=1)
        flip = side_flip_mask(mesh, owner)[np.arange(len(owner)), jloc]
        gv = load.traction_at(mesh.side_points(nsides, tq))
        lens = mesh.side_length[nsides]
        for j in range(3):
            for fl in (False, True):
                pick = (jloc == j) & (flip == fl)
                if not pick.any():
                    continue
                ref = _side_reference_points(j, fl, tq)
                bv = lagrange_values(m, ref)  # (nqs, nlu)
                # einsum "s,q,sqc,qi->sic"
                contrib = lens[pick, None, None] * ((tw[:, None] * bv).T @ gv[pick])
                udofs = dm_u.vector_dofs(owner[pick]).reshape(pick.sum(), -1)
                np.add.at(rhs, udofs, contrib.reshape(pick.sum(), -1))

    # boundary conditions
    free = np.ones(n, dtype=bool)
    ddofs = dm_u.side_scalar_dofs(mesh.boundary_sides(DIRICHLET))
    free[ddofs * 2] = False
    free[ddofs * 2 + 1] = False
    pinned = False
    if nsides.size == 0 and t == 0.0:
        free[n_u] = False  # pin one pressure dof; shift to zero mean later
        pinned = True

    return LinearSystem(
        disc=disc,
        material=material,
        matrix=matrix,
        rhs=rhs,
        free=free,
        n_u=n_u,
        pressure_mass=mass,
        pinned_pressure=pinned,
    )


# SuperLU's symmetric mode: minimum-degree ordering of A + A^T, diagonal pivots
_SYMMETRIC_LU = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options=dict(SymmetricMode=True),
)

# glibc keeps freed heap pages resident between live blocks; this returns them
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)


def _refined_lu_solve(k_ff, b: np.ndarray, **splu_options):
    """Factor ``k_ff`` by ``spla.splu`` and solve with one refinement step.

    Returns (x, relative residual); raises RuntimeError when the
    factorization fails.
    """
    _malloc_trim(0)  # else the LU's peak memory varies with the heap's layout
    lu = spla.splu(k_ff, **splu_options)
    x = lu.solve(b)
    x += lu.solve(b - k_ff @ x)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return x, float(np.linalg.norm(b - k_ff @ x)) / scale


def solve(system: LinearSystem) -> FieldPair:
    """Solve the assembled system by sparse LU with one refinement step.

    The saddle-point matrix is symmetric, so it is first factored in
    SuperLU's symmetric mode: minimum-degree ordering of A + A^T
    (``MMD_AT_PLUS_A``) and diagonal pivots only.  Diagonal pivoting is
    not stable in general, so when that factorization fails or its
    refined relative residual is not finite or exceeds 1e-10, the system
    is factored again with the COLAMD ordering and partial pivoting.
    Raises SingularSystem when that fallback fails the same tests.
    """
    free = system.free
    k_ff = system.matrix[free][:, free].tocsc()
    b = system.rhs[free]
    x = np.zeros(system.matrix.shape[0])
    if b.size:
        try:
            xf, rel = _refined_lu_solve(k_ff, b, **_SYMMETRIC_LU)
        except RuntimeError:
            rel = np.inf
        if not rel <= 1e-10:  # a NaN residual fails too
            try:
                xf, rel = _refined_lu_solve(k_ff, b)  # COLAMD, partial pivoting
            except RuntimeError as exc:
                raise SingularSystem(f"saddle-point factorization failed: {exc}")
            if not rel <= 1e-10:
                raise SingularSystem(
                    f"saddle-point solve residual {rel:.3e} exceeds 1e-10"
                )
        x[free] = xf

    n_u = system.n_u
    u = x[:n_u]
    p = x[n_u:]
    if system.pinned_pressure:
        area = float(np.sum(system.disc.mesh.areas))
        ones = np.asarray(system.pressure_mass.sum(axis=0)).ravel()
        mean = float(ones @ p) / area
        p = p - mean
    return FieldPair(disc=system.disc, u=u, p=p)


# -- field evaluation -----------------------------------------------------------


def fields_at(fields: FieldPair, elems, ref: np.ndarray):
    """u-gradients and pressures of ``fields`` on ``elems`` at the reference
    points ``ref``: (nq, 2), shared by the elements, or (ne, nq, 2), one set
    per element.

    Returns grad_u (ne, nq, 2, 2) [grad_u[..., r, c] = d u_r / d x_c] and
    p (ne, nq).
    """
    disc = fields.disc
    k = disc.k
    _, jinv = element_jacobians(disc.mesh, elems)
    ue = fields.u[disc.displacement.vector_dofs(elems)]      # (ne, ni, 2)
    pe = fields.p[disc.pressure.element_dofs[elems]]         # (ne, np)
    gt = np.swapaxes(lagrange_grads(k + 1, ref), -1, -2)     # (..., nq, 2, ni)
    nq, _, ni = gt.shape[-3:]
    # einsum "qir,erd->eqid" then "eic,eqid->eqcd", summed over i first
    # ("eqir,erd->eqid" for points per element): t[e, q, r, c], then r
    t = (gt.reshape(gt.shape[:-3] + (2 * nq, ni)) @ ue).reshape(len(elems), nq, 2, 2)
    grad_u = (
        t[:, :, 0, :, None] * jinv[:, None, None, 0, :]
        + t[:, :, 1, :, None] * jinv[:, None, None, 1, :]
    )
    # einsum "ei,qi->eq" ("eqi,ei->eq" for points per element)
    return grad_u, (lagrange_values(k, ref) @ pe[:, :, None])[..., 0]


def _stress_from(grad_u: np.ndarray, p: np.ndarray, mu: float) -> np.ndarray:
    """sigma = 2 mu eps(u) + p I from gradient and pressure values."""
    eps = 0.5 * (grad_u + np.swapaxes(grad_u, -1, -2))
    sig = 2.0 * mu * eps
    sig[..., 0, 0] += p
    sig[..., 1, 1] += p
    return sig


def direct_stress(fields: FieldPair, material: Material) -> BrokenField:
    """Represent sigma_h = 2 mu eps(u_h) + p_h I in the broken stress space.

    The representation is exact: each tensor row of sigma_h is a degree-k
    polynomial, hence lies in the elementwise Raviart-Thomas space.
    """
    disc = fields.disc
    mu = material.mu
    nt = disc.mesh.n_triangles
    dofs = np.empty((nt, 2, rt_dim(disc.k)))
    for tables in disc.stress_chunks():
        vol = _stress_from(*fields_at(fields, tables.elems, tables.vol_ref), mu)
        # side points: one reference rule per local side and orientation
        flips = side_flip_mask(disc.mesh, tables.elems)
        side = np.empty((len(tables.elems), 3, len(tables.side_t), 2, 2))
        for j in range(3):
            for fl in (False, True):
                pick = flips[:, j] == fl
                if not pick.any():
                    continue
                ref = _side_reference_points(j, fl, tables.side_t)
                side[pick, j] = _stress_from(
                    *fields_at(fields, tables.elems[pick], ref), mu
                )
        dofs[tables.elems] = tables.dofs_from_values(vol, side)
    return BrokenField(disc.mesh, disc.k, dofs)
