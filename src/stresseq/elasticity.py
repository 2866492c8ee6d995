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
    BrokenField,
    Discretization,
    StressTables,
    element_chunks,
    eval_volume_poly,
    lagrange_grads,
    lagrange_values,
    legendre01,
    project_side,
    project_volume,
    rt_dim,
    side_rule,
    volume_rule,
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
        """g at the points of side_rule(k) on ``sides``, (ns, nqs, 2), and
        its side-wise L2 projection onto P_k at the parameters ``t``,
        (ns, len(t), 2)."""
        tq, _ = side_rule(k)
        gv = self.traction_at(mesh.side_points(sides, tq))
        coeff = project_side(gv, k)
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


@dataclass
class LinearSystem:
    """Assembled saddle-point system with boundary bookkeeping."""

    disc: Discretization
    matrix: sp.csc_matrix     # the free-dof block; rhs and free span all dofs
    rhs: np.ndarray
    free: np.ndarray          # boolean mask over all dofs
    n_u: int
    pressure_integrals: np.ndarray  # int phi_j over the domain, per pressure dof
    pinned_pressure: bool


# -- assembly -------------------------------------------------------------------


def _shape_matrices(shape: np.ndarray, k: int, material: Material) -> np.ndarray:
    """Scale-free element matrices (n, nl, nl) of the shapes S = J / h
    (n, 2, 2), local dofs ordered (u interleaved, p): the stiffness block,
    which does not depend on h, B and B^T over h, and the -inv_lambda
    pressure mass over h^2 (zero when inv_lambda is 0)."""
    m = k + 1
    mu, t = material.mu, material.inv_lambda
    rq, rw = volume_rule(k)
    gref = lagrange_grads(m, rq).transpose(1, 2, 0)  # (nlu, 2, nq)
    vals_p = lagrange_values(k, rq)       # (nq, nlp)
    nq, nlp = vals_p.shape
    nlu = gref.shape[0]
    nl = 2 * nlu + nlp
    n = len(shape)
    det = shape[:, 0, 0] * shape[:, 1, 1] - shape[:, 1, 0] * shape[:, 0, 1]
    # the adjugate of S over det(S)
    sinv = np.stack(
        [shape[:, 1, 1], -shape[:, 0, 1], -shape[:, 1, 0], shape[:, 0, 0]], axis=-1
    ).reshape(n, 2, 2) / det[:, None, None]
    wq = det[:, None] * rw[None, :]
    # einsum "qir,erd->eqid", laid out as (e, i, d, q)
    grads = gref[None, :, 0, None, :] * sinv[:, None, 0, :, None]
    grads += gref[None, :, 1, None, :] * sinv[:, None, 1, :, None]
    grads = grads.reshape(n, 2 * nlu, nq)
    wgrads = grads * wq[:, None, :]

    # every product is stacked per shape, as in spaces._shape_tables
    ke = np.zeros((n, nl, nl))
    # einsum "eq,qj,eqic->eicj"
    bte = wgrads @ vals_p
    ke[:, : 2 * nlu, 2 * nlu :] = bte
    ke[:, 2 * nlu :, : 2 * nlu] = bte.swapaxes(1, 2)

    # einsum "eq,eqid,eqjc->eicjd", and "eq,eqid,eqjd->eij" as its
    # trace over c = d
    m4 = (wgrads @ grads.swapaxes(1, 2)).reshape(n, nlu, 2, nlu, 2)
    del grads, wgrads  # the largest arrays of the chunk
    gg = m4[:, :, 0, :, 0] + m4[:, :, 1, :, 1]
    m4 *= mu
    ae = m4.transpose(0, 1, 4, 3, 2)  # [e, i, c, j, d]
    for c in range(2):
        ae[:, :, c, :, c] += mu * gg
    ke[:, : 2 * nlu, : 2 * nlu] = ae.reshape(n, 2 * nlu, 2 * nlu)

    if t != 0.0:
        # einsum "eq,qi,qj->eij"
        pp = (vals_p[:, :, None] * vals_p[:, None, :]).reshape(nq, -1)
        ke[:, 2 * nlu :, 2 * nlu :] = (wq[:, None, :] @ pp).reshape(n, nlp, nlp) * (-t)
    return ke


def _element_triplets(
    disc: Discretization, material: Material, load: LoadData
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Element contributions to the saddle-point matrix as one set of
    (rows, cols, data) triplets in element order, the volume-load vector,
    and the pressure-basis integrals (int phi_j for each pressure dof j).

    Each element writes its A, B^T and B entries, and its -inv_lambda M
    entries only when inv_lambda != 0: the incompressible pressure block
    stays structurally empty.  The entries are those of the element's shape
    (:func:`_shape_matrices`, once per shape class of the mesh) times h^0,
    h or h^2 per block.
    """
    mesh, k = disc.mesh, disc.k
    dm_u = disc.displacement
    dm_p = disc.pressure
    n_u = dm_u.n_dofs
    n = n_u + dm_p.n_scalar
    t = material.inv_lambda

    rq, rw = volume_rule(k)
    vals_u = lagrange_values(k + 1, rq)   # (nq, nlu)
    vals_p = lagrange_values(k, rq)       # (nq, nlp)
    nlu, nlp = vals_u.shape[1], vals_p.shape[1]
    nl = 2 * nlu + nlp

    # the local (row, col) pairs an element writes, as flat indices, and
    # the power of h of each: 0 in A, 1 in B and B^T, 2 in M
    keep = np.ones((nl, nl), dtype=bool)
    if t == 0.0:
        keep[2 * nlu :, 2 * nlu :] = False
    local = np.flatnonzero(keep)
    local_rows, local_cols = np.divmod(local, nl)
    power = (local_rows >= 2 * nlu).astype(np.int64) + (local_cols >= 2 * nlu)
    in_b, in_m = power == 1, power == 2
    size = len(local)

    nt = mesh.n_triangles
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(nt * size, index)
    cols = np.empty(nt * size, index)
    data = np.empty(nt * size)
    rhs = np.zeros(n)
    p_integrals = np.zeros(dm_p.n_scalar)
    shape = disc.classes.shape
    ke = np.concatenate([_shape_matrices(shape[b], k, material).reshape(len(b), -1)[:, local]
                         for b in element_chunks(len(shape))])
    _, cls = mesh.shape_classes

    for elems in element_chunks(nt):
        ne, lo = len(elems), elems[0]
        udofs = dm_u.vector_dofs(elems).reshape(ne, 2 * nlu)
        pdofs = dm_p.element_dofs[elems]
        ldofs = np.concatenate([udofs, n_u + pdofs], axis=1)
        part = slice(lo * size, (lo + ne) * size)
        np.take(ldofs, local_rows, axis=1, out=rows[part].reshape(ne, size))
        np.take(ldofs, local_cols, axis=1, out=cols[part].reshape(ne, size))
        entries = data[part].reshape(ne, size)
        np.take(ke, cls[elems], axis=0, out=entries)
        h = mesh.h[elems, None]
        entries[:, in_b] *= h
        entries[:, in_m] *= h * h

        # volume load
        xq, wq = mesh.rule_points(elems, rq, rw)
        fv = load.volume_at(xq)
        # einsum "eq,eqc,qi->eic"
        fe = vals_u.T @ (fv * wq[:, :, None])
        np.add.at(rhs, udofs, fe.reshape(ne, -1))
        # einsum "eq,qj->ej"
        np.add.at(p_integrals, pdofs, wq @ vals_p)
    return (rows, cols, data), rhs, p_integrals


def assemble_system(
    disc: Discretization, material: Material, load: LoadData
) -> LinearSystem:
    """Assemble the saddle-point matrix and right-hand side.

    Block layout: displacement dofs first (interleaved components), then
    pressure dofs.  The matrix stores every (row, col) pair an element
    touches, also where the element contributions cancel to 0.0, so its
    pattern does not depend on rounding.  Dirichlet dofs (and a pinned
    pressure dof) are flagged in ``free`` and sliced out: the system keeps
    only the free-dof block, in CSC for :func:`solve` (homogeneous data, so
    no right-hand-side correction is needed).
    """
    mesh, k = disc.mesh, disc.k
    dm_u = disc.displacement
    n_u = dm_u.n_dofs
    n = n_u + disc.pressure.n_scalar
    t = material.inv_lambda
    (rows, cols, data), rhs, p_integrals = _element_triplets(disc, material, load)
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    del rows, cols, data

    # traction contributions on the Neumann boundary
    nsides = mesh.boundary_sides(NEUMANN)
    if nsides.size and load.traction is not None:
        tq, tw = side_rule(k)
        owner = mesh.side_tri[nsides, 0]
        xs = mesh.side_points(nsides, tq)
        bv = lagrange_values(k + 1, mesh.reference_points(owner, xs))  # (ns, nqs, nlu)
        # einsum "s,q,sqc,sqi->sic"
        contrib = mesh.side_length[nsides, None, None] * (
            (tw[:, None] * bv).swapaxes(1, 2) @ load.traction_at(xs)
        )
        udofs = dm_u.vector_dofs(owner).reshape(len(owner), -1)
        np.add.at(rhs, udofs, contrib.reshape(len(owner), -1))

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
        matrix=matrix[free][:, free].tocsc(),
        rhs=rhs,
        free=free,
        n_u=n_u,
        pressure_integrals=p_integrals,
        pinned_pressure=pinned,
    )


_SOLVE_RTOL = 1e-10  # refined relative residual the saddle-point solve accepts

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

    The free-dof block ``system.matrix`` is factored as given, and the
    solution scattered through ``system.free``.  The block is symmetric,
    so it is first factored in SuperLU's symmetric mode: minimum-degree
    ordering of A + A^T (``MMD_AT_PLUS_A``) and diagonal pivots only.
    Diagonal pivoting is not stable in general, so when that factorization
    fails or its refined relative residual is not finite or exceeds
    ``_SOLVE_RTOL``, the block is factored again with the COLAMD ordering
    and partial pivoting.  Raises SingularSystem when that fallback fails
    the same tests.
    """
    free, k_ff = system.free, system.matrix
    b = system.rhs[free]
    x = np.zeros(free.size)
    if b.size:
        try:
            xf, rel = _refined_lu_solve(k_ff, b, **_SYMMETRIC_LU)
        except RuntimeError:
            rel = np.inf
        if not rel <= _SOLVE_RTOL:  # a NaN residual fails too
            try:
                xf, rel = _refined_lu_solve(k_ff, b)  # COLAMD, partial pivoting
            except RuntimeError as exc:
                raise SingularSystem(f"saddle-point factorization failed: {exc}")
            if not rel <= _SOLVE_RTOL:
                raise SingularSystem(
                    f"saddle-point solve residual {rel:.3e} exceeds {_SOLVE_RTOL:g}"
                )
        x[free] = xf

    n_u = system.n_u
    u = x[:n_u]
    p = x[n_u:]
    if system.pinned_pressure:
        area = float(np.sum(system.disc.mesh.areas))
        mean = float(system.pressure_integrals @ p) / area
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
    jinv = disc.mesh.jac_inv[elems]
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
    for tables in disc.stress_chunks:
        elems = tables.elems
        vol = _stress_from(*fields_at(fields, elems, tables.vol_ref), mu)
        side_ref = disc.mesh.reference_points(elems, tables.side_x)
        side = _stress_from(
            *fields_at(fields, elems, side_ref.reshape(len(elems), -1, 2)), mu
        )
        dofs[elems] = tables.dofs_from_values(vol, side.reshape(side_ref.shape + (2,)))
    return BrokenField(disc.mesh, disc.k, dofs)
