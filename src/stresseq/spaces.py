"""Quadrature rules, polynomial bases, dof maps, and per-element tables.

Conventions
-----------
* Volume quadrature lives on the reference triangle ``{x, y >= 0, x+y <= 1}``
  with weights summing to 1/2; a physical integral is
  ``2 * area * sum(w * f(x_q))``.
* Segment quadrature lives on ``[0, 1]`` with weights summing to one.
* Element-local polynomials are expressed in scaled monomials
  ``((x - x_c) / h)^a ((y - y_c) / h)^b`` around the element centroid.
* The broken stress space holds, per element and per tensor row, a
  Raviart-Thomas field of degree ``k``.  Its side degrees of freedom are
  moments of the normal trace against an orthonormal Legendre basis in the
  side's global parameter (lower vertex to higher vertex), with the side's
  global normal; both adjacent elements therefore share the same
  functionals and inter-element jump constraints have entries exactly
  ``+1`` / ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import UnsupportedDegree
from .mesh import Mesh

# Elements per block of every elementwise loop: bounds the size of the
# per-block quadrature arrays.
_CHUNK = 4096

__all__ = [
    "segment_rule",
    "triangle_rule",
    "volume_rule",
    "side_rule",
    "legendre01",
    "skew_tensor",
    "lagrange_values",
    "lagrange_grads",
    "DofMap",
    "make_dofmap",
    "rt_dim",
    "StressTables",
    "build_stress_tables",
    "ConstraintTables",
    "Discretization",
    "BrokenField",
]


# -- quadrature --------------------------------------------------------------


@lru_cache(maxsize=None)
def segment_rule(degree: int):
    """Gauss rule on [0, 1] exact for polynomials of the given degree."""
    n = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Conical-product rule on the reference triangle, exact for `degree`.

    Tensorizes a Gauss-Jacobi rule (weight 1-x) in the first coordinate
    with a Gauss-Legendre rule in the second; weights sum to 1/2.
    """
    n = max(1, (degree + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    vg, vw = (xg + 1.0) / 2.0, wg / 2.0
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    ug, uw = (xj + 1.0) / 2.0, wj / 4.0
    u = np.repeat(ug, n)
    v = np.tile(vg, n)
    pts = np.column_stack([u, v * (1.0 - u)])
    w = np.repeat(uw, n) * np.tile(vw, n)
    return pts, w


def volume_rule(k: int):
    """The element rule of every degree-k table, moment and norm:
    triangle_rule(2k + 4)."""
    return triangle_rule(2 * k + 4)


def side_rule(k: int):
    """The side rule of every degree-k trace, moment and projection:
    segment_rule(2k + 5)."""
    return segment_rule(2 * k + 5)


@lru_cache(maxsize=None)
def _legendre01_table(n: int):
    """Coefficient rows of the first n orthonormal Legendre polynomials."""
    return [np.eye(n)[j] * np.sqrt(2 * j + 1) for j in range(n)]


def legendre01(n: int, t) -> np.ndarray:
    """Values of the orthonormal Legendre basis on [0, 1]: (..., n)."""
    x = 2.0 * np.asarray(t) - 1.0
    cols = [np.polynomial.legendre.legval(x, c) for c in _legendre01_table(n)]
    return np.stack(cols, axis=-1)


def skew_tensor(theta) -> np.ndarray:
    """Skew 2x2 tensor generated by a scalar: [[0, theta], [-theta, 0]].

    Broadcasts over any leading shape; the tensor pairs with a stress
    through (tau, skew_tensor(theta)) = theta * (tau_01 - tau_10).
    """
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape + (2, 2))
    out[..., 0, 1] = th
    out[..., 1, 0] = -th
    return out


# -- monomials ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _pk_exponents(m: int):
    """Exponent pairs of the monomial basis of P_m (degree-major)."""
    return tuple((a, d - a) for d in range(m + 1) for a in range(d, -1, -1))


def _exps_array(m: int) -> np.ndarray:
    return np.array(_pk_exponents(m), dtype=np.int64).reshape(-1, 2)


def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """t**0, ..., t**n by repeated products: (..., n + 1)."""
    out = np.empty(t.shape + (n + 1,))
    out[..., 0] = 1.0
    for j in range(1, n + 1):
        out[..., j] = out[..., j - 1] * t
    return out


def monomial_values(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Monomial values; pts (..., 2) -> (..., n_monomials)."""
    n = int(exps.max(initial=0))
    # x ** exps[:, 0] * y ** exps[:, 1]
    xp = _powers(pts[..., 0], n)
    yp = _powers(pts[..., 1], n)
    return xp[..., exps[:, 0]] * yp[..., exps[:, 1]]


def monomial_grads(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Monomial gradients; pts (..., 2) -> (..., n_monomials, 2).

    The result is a view of a (..., 2, n_monomials) array: swapping its
    last two axes back gives a contiguous array.
    """
    n = int(exps.max(initial=0))
    xp = _powers(pts[..., 0], n)
    yp = _powers(pts[..., 1], n)
    a = exps[:, 0]
    b = exps[:, 1]
    out = np.empty(pts.shape[:-1] + (2, len(exps)))
    # a * x ** (a - 1) * y ** b and b * x ** a * y ** (b - 1)
    out[..., 0, :] = np.where(
        a > 0, a * xp[..., np.maximum(a - 1, 0)] * yp[..., b], 0.0
    )
    out[..., 1, :] = np.where(
        b > 0, b * xp[..., a] * yp[..., np.maximum(b - 1, 0)], 0.0
    )
    return np.swapaxes(out, -1, -2)


# -- Lagrange reference elements ----------------------------------------------


@lru_cache(maxsize=None)
def lagrange_reference(m: int):
    """Reference nodes and monomial coefficients of the P_m Lagrange basis.

    Node order: the three vertices; then for each local edge j (opposite
    vertex j, running from vertex j+1 to vertex j+2) its m-1 interior
    nodes; then the centroid for m = 3.
    """
    if m not in (1, 2, 3):
        raise UnsupportedDegree(f"lagrange degree {m} not supported")
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(corners)
    for j in range(3):
        a = np.array(corners[(j + 1) % 3])
        b = np.array(corners[(j + 2) % 3])
        for q in range(1, m):
            nodes.append(tuple(a + (q / m) * (b - a)))
    if m == 3:
        nodes.append((1.0 / 3.0, 1.0 / 3.0))
    nodes = np.array(nodes)
    exps = _exps_array(m)
    vand = monomial_values(exps, nodes)
    coeff = np.linalg.inv(vand).T  # row i: monomial coefficients of basis i
    return nodes, exps, coeff


def lagrange_values(m: int, pts) -> np.ndarray:
    """P_m basis values at reference points: (..., n_local)."""
    _, exps, coeff = lagrange_reference(m)
    mv = monomial_values(exps, np.asarray(pts))
    return (mv.reshape(-1, len(exps)) @ coeff.T).reshape(mv.shape[:-1] + (-1,))


def lagrange_grads(m: int, pts) -> np.ndarray:
    """P_m basis reference gradients at reference points: (..., n_local, 2).

    The result is a view of a (..., 2, n_local) array: swapping its last
    two axes back gives a contiguous array.
    """
    _, exps, coeff = lagrange_reference(m)
    gt = np.swapaxes(monomial_grads(exps, np.asarray(pts)), -1, -2)
    # einsum "...md,im->...id"
    out = gt.reshape(-1, len(exps)) @ coeff.T
    return np.swapaxes(out.reshape(gt.shape[:-1] + (len(coeff),)), -1, -2)


# -- continuous Lagrange dof maps ---------------------------------------------


@dataclass
class DofMap:
    """Scalar dof layout of a continuous P_m space, shared by all components.

    Scalar dofs are numbered: vertex dofs first (= vertex id), then m-1
    dofs per side (ordered from the side's lower vertex to its higher),
    then one interior dof per element for m = 3.  Vector-valued fields
    interleave components: global dof = scalar_dof * ncomp + component.
    """

    mesh: Mesh
    degree: int
    ncomp: int
    element_dofs: np.ndarray
    n_scalar: int
    dof_coords: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.n_scalar * self.ncomp

    def vector_dofs(self, elems) -> np.ndarray:
        """Global dofs of the elements' local nodes: (ne, n_local, ncomp)."""
        ed = self.element_dofs[elems]
        return ed[:, :, None] * self.ncomp + np.arange(self.ncomp)

    def side_scalar_dofs(self, side_ids) -> np.ndarray:
        """Scalar dofs lying on the given sides (ascending, unique)."""
        m = self.degree
        side_ids = np.asarray(side_ids, dtype=np.int64)
        parts = [self.mesh.sides[side_ids].ravel()]
        nv = self.mesh.n_vertices
        for slot in range(m - 1):
            parts.append(nv + side_ids * (m - 1) + slot)
        return np.unique(np.concatenate(parts))


def make_dofmap(mesh: Mesh, degree: int, ncomp: int = 1) -> DofMap:
    """Build the dof map of a continuous P_degree space on the mesh."""
    m = degree
    if m not in (1, 2, 3):
        raise UnsupportedDegree(f"continuous degree {m} not supported")
    nt, nv, ns = mesh.n_triangles, mesh.n_vertices, mesh.n_sides
    nloc = 3 + 3 * (m - 1) + (1 if m == 3 else 0)
    ed = np.empty((nt, nloc), dtype=np.int64)
    ed[:, :3] = mesh.triangles
    if m >= 2:
        for j in range(3):
            s = mesh.tri_sides[:, j]
            va = mesh.triangles[:, (j + 1) % 3]
            vb = mesh.triangles[:, (j + 2) % 3]
            base = nv + s * (m - 1)
            for q in range(m - 1):
                slot = np.where(va < vb, q, m - 2 - q)
                ed[:, 3 + j * (m - 1) + q] = base + slot
    if m == 3:
        ed[:, -1] = nv + ns * (m - 1) + np.arange(nt)
    n_scalar = nv + ns * (m - 1) + (nt if m == 3 else 0)

    coords = np.empty((n_scalar, 2))
    coords[:nv] = mesh.vertices
    if m >= 2:
        fracs = np.arange(1, m) / m
        coords[nv : nv + ns * (m - 1)] = mesh.side_points(
            np.arange(ns), fracs
        ).reshape(-1, 2)
    if m == 3:
        coords[nv + ns * (m - 1) :] = mesh.centroids
    return DofMap(mesh, m, ncomp, ed, n_scalar, coords)


# -- broken Raviart-Thomas stress space ----------------------------------------


def rt_dim(k: int) -> int:
    """Dofs per tensor row and element: 3(k+1) side + k(k+1) interior."""
    return (k + 1) * (k + 3)


@lru_cache(maxsize=None)
def _rt_span(k: int):
    """Spanning fields of scalar RT_k as coefficients over P_{k+1} monomials.

    Returns (exps1, S) with S of shape (n_fields, 2, n_monomials):
    the 2 * dim P_k componentwise monomial fields followed by the k+1
    fields x * (homogeneous degree-k monomial).
    """
    exps1 = _exps_array(k + 1)
    index = {tuple(e): i for i, e in enumerate(exps1)}
    nf = rt_dim(k)
    S = np.zeros((nf, 2, len(exps1)))
    f = 0
    for c in range(2):
        for e in _pk_exponents(k):
            S[f, c, index[e]] = 1.0
            f += 1
    for a in range(k, -1, -1):
        b = k - a
        S[f, 0, index[(a + 1, b)]] = 1.0
        S[f, 1, index[(a, b + 1)]] = 1.0
        f += 1
    assert f == nf
    return exps1, S


@lru_cache(maxsize=None)
def _div_maps(k: int):
    """Matrices DX, DY mapping P_{k+1} monomial coefficients to the P_k
    monomial coefficients of their x / y derivatives (unscaled)."""
    exps1 = _pk_exponents(k + 1)
    expsk = {e: i for i, e in enumerate(_pk_exponents(k))}
    nm1, nmk = len(exps1), len(expsk)
    DX = np.zeros((nm1, nmk))
    DY = np.zeros((nm1, nmk))
    for m, (a, b) in enumerate(exps1):
        if a >= 1 and (a - 1, b) in expsk:
            DX[m, expsk[(a - 1, b)]] = a
        if b >= 1 and (a, b - 1) in expsk:
            DY[m, expsk[(a, b - 1)]] = b
    return DX, DY


@dataclass
class StressTables:
    """Per-element broken-RT tables for a subset of elements.

    ``C[e, i, c, m]`` holds the scaled-monomial coefficients (component c,
    monomial m over P_{k+1}) of local basis function i on element e.  The
    tables carry the quadrature layout used to build them so that all
    downstream moments are taken with the same rules.
    """

    k: int
    elems: np.ndarray
    centers: np.ndarray
    h: np.ndarray
    vol_ref: np.ndarray  # (nq, 2) reference points
    vol_w: np.ndarray    # (ne, nq) physical weights (include 2|T|)
    vol_x: np.ndarray    # (ne, nq, 2) physical points
    side_t: np.ndarray   # (nqs,) parameter points
    side_w: np.ndarray   # (nqs,) parameter weights
    side_x: np.ndarray   # (ne, 3, nqs, 2) physical points
    side_ids: np.ndarray  # (ne, 3) global side ids (opposite local vertex)
    side_normal: np.ndarray  # (ne, 3, 2) global side normals
    vol_xi: np.ndarray = field(init=False)   # (ne, nq, 2) scaled points
    side_xi: np.ndarray = field(init=False)  # (ne, 3, nqs, 2) scaled points
    C: np.ndarray = field(init=False)        # set by build_stress_tables

    def __post_init__(self):
        self.vol_xi = self.scaled(self.vol_x)
        self.side_xi = self.scaled(self.side_x)

    def scaled(self, x: np.ndarray) -> np.ndarray:
        """Map physical points (ne, ..., 2) to scaled element coordinates."""
        extra = (1,) * (x.ndim - 2)
        return (x - self.centers.reshape(-1, *extra, 2)) / self.h.reshape(
            -1, *extra, 1
        )

    def basis_at(self, xi: np.ndarray) -> np.ndarray:
        """Basis values at scaled points (ne, nq, 2) -> (ne, nd, nq, 2).

        The result is a view of an (ne, nd, 2, nq) array: swapping axes 2
        and 3 back gives a contiguous array.
        """
        exps1, _ = _rt_span(self.k)
        mv = monomial_values(exps1, xi)
        ne, nd, _, nm = self.C.shape
        # einsum "eicm,eqm->eiqc"
        out = self.C.reshape(ne, 2 * nd, nm) @ mv.swapaxes(1, 2)
        return out.reshape(ne, nd, 2, -1).swapaxes(2, 3)

    def basis_div_at(self, xi: np.ndarray) -> np.ndarray:
        """Basis divergences at scaled points -> (ne, nd, nq)."""
        DX, DY = _div_maps(self.k)
        dc = (self.C[:, :, 0, :] @ DX + self.C[:, :, 1, :] @ DY)
        dc = dc / self.h[:, None, None]
        mv = monomial_values(_exps_array(self.k), xi)
        # einsum "eib,eqb->eiq"
        return dc @ mv.swapaxes(1, 2)

    def normal_basis(self) -> np.ndarray:
        """n . basis at the side quadrature points -> (ne, 3, nqs, nd)."""
        exps1, _ = _rt_span(self.k)
        mv = monomial_values(exps1, self.side_xi)          # (ne, 3, nqs, nm)
        n = self.side_normal[:, :, None, :, None]          # (ne, 3, 1, 2, 1)
        C = self.C[:, None]                                # (ne, 1, nd, 2, nm)
        # einsum "eicm,esqm->eisqc" then "eisqc,esc->esqi", with the normal
        # taken into the coefficients first
        cn = n[:, :, :, 0] * C[:, :, :, 0] + n[:, :, :, 1] * C[:, :, :, 1]
        return mv @ cn.swapaxes(2, 3)

    def dofs_from_values(self, vol_vals, side_vals) -> np.ndarray:
        """Dofs of a tensor field given its values at the stored points.

        vol_vals: (ne, nq, 2, 2) tensor values at volume points (row, col).
        side_vals: (ne, 3, nqs, 2, 2) tensor values at side points.
        Returns (ne, 2, nd): broken-RT dofs of each tensor row.
        """
        k = self.k
        ne = len(self.elems)
        lg = legendre01(k + 1, self.side_t)
        side = _normal_moments(side_vals, self.side_normal, self.side_w, lg)
        _, rw = volume_rule(k)
        mq = monomial_values(_exps_array(k - 1), self.vol_xi)
        inter = _interior_moments(vol_vals, mq, rw).reshape(ne, -1, 2, 2)
        out = np.empty((ne, 2, rt_dim(k)))
        out[:, :, : 3 * (k + 1)] = side.transpose(0, 3, 1, 2).reshape(ne, 2, -1)
        out[:, :, 3 * (k + 1) :] = inter.transpose(0, 2, 3, 1).reshape(ne, 2, -1)
        return out


def _normal_moments(side_vals, normal, w, lg) -> np.ndarray:
    """Legendre moments of the normal component of side values.

    side_vals (ne, 3, nqs, X, 2) against the side normals (ne, 3, 2), the
    weights w (nqs,) and the Legendre values lg (nqs, k+1):
    returns (ne, 3, k+1, X).
    """
    # einsum "esqXc,esc->esqX" then "q,qm,esqX->esmX"
    tn = (
        side_vals[..., 0] * normal[:, :, None, None, 0]
        + side_vals[..., 1] * normal[:, :, None, None, 1]
    )
    return (w[:, None] * lg).T @ tn


def _interior_moments(vol_vals, mq, rw) -> np.ndarray:
    """Moments 2 sum_q rw_q mq[e, q, b] vol_vals[e, q, ...] on the
    reference rule rw: (ne, nb, size of the trailing axes of vol_vals)."""
    ne, nq = mq.shape[:2]
    # einsum "q,eqb,eqX->ebX"
    return 2.0 * ((rw[:, None] * mq).swapaxes(1, 2) @ vol_vals.reshape(ne, nq, -1))


def build_stress_tables(mesh: Mesh, k: int, elems=None) -> StressTables:
    """Construct the broken-RT dof-to-coefficient tables for `elems`.

    Local dof order per element and tensor row: for each local side
    j = 0, 1, 2 (opposite vertex j) the k+1 Legendre moments of the normal
    trace, then the interior moments (component-major over the P_{k-1}
    monomials).  Side dofs use the side's global parameter and normal.
    """
    if k not in (1, 2):
        raise UnsupportedDegree(f"stress degree {k} not supported")
    if elems is None:
        elems = np.arange(mesh.n_triangles)
    elems = np.asarray(elems, dtype=np.int64)
    ne = len(elems)
    nd = rt_dim(k)
    exps1, S = _rt_span(k)

    rq, rw = volume_rule(k)
    vol_x, vol_w = mesh.rule_points(elems, rq, rw)
    tq, tw = side_rule(k)
    sids = mesh.tri_sides[elems]
    tables = StressTables(
        k=k,
        elems=elems,
        centers=mesh.centroids[elems],
        h=mesh.h[elems],
        vol_ref=rq,
        vol_w=vol_w,
        vol_x=vol_x,
        side_t=tq,
        side_w=tw,
        side_x=mesh.side_points(sids, tq),
        side_ids=sids,
        side_normal=mesh.side_normal[sids],
    )

    mv_vol = monomial_values(exps1, tables.vol_xi)
    mv_side = monomial_values(exps1, tables.side_xi)
    nm = len(exps1)
    st = S.reshape(2 * nd, nm).T
    # einsum "fcm,eqm->eqfc" and "fcm,esqm->esqfc"
    f_vol = (mv_vol.reshape(-1, nm) @ st).reshape(mv_vol.shape[:-1] + (nd, 2))
    f_side = (mv_side.reshape(-1, nm) @ st).reshape(mv_side.shape[:-1] + (nd, 2))

    v_side = _normal_moments(f_side, tables.side_normal, tw, legendre01(k + 1, tq))
    mq = monomial_values(_exps_array(k - 1), tables.vol_xi)
    v_int = _interior_moments(f_vol, mq, rw).reshape(ne, -1, nd, 2)

    vand = np.concatenate(
        [
            v_side.reshape(ne, 3 * (k + 1), nd),
            v_int.transpose(0, 3, 1, 2).reshape(ne, -1, nd),
        ],
        axis=1,
    )
    vinv = np.linalg.inv(vand)
    # einsum "efi,fcm->eicm"
    C = vinv.swapaxes(1, 2).reshape(-1, nd) @ S.reshape(nd, -1)
    tables.C = C.reshape(ne, nd, 2, nm)
    return tables


@dataclass
class BrokenField:
    """A field in the broken tensor stress space: dofs (nt, 2, nd)."""

    mesh: Mesh
    k: int
    dofs: np.ndarray

    def __add__(self, other: "BrokenField") -> "BrokenField":
        return BrokenField(self.mesh, self.k, self.dofs + other.dofs)

    def values(self, tables: StressTables, xi=None) -> np.ndarray:
        """Tensor values at scaled points: (ne, nq, 2, 2)."""
        if xi is None:
            xi = tables.vol_xi
        basis = tables.basis_at(xi).swapaxes(2, 3)          # (ne, nd, 2, nq)
        ne, nd, _, nq = basis.shape
        # einsum "eri,eiqc->eqrc"
        out = self.dofs[tables.elems] @ basis.reshape(ne, nd, 2 * nq)
        return out.reshape(ne, 2, 2, nq).transpose(0, 3, 1, 2)

    def div_values(self, tables: StressTables, xi=None) -> np.ndarray:
        """Row divergences at scaled points: (ne, nq, 2)."""
        if xi is None:
            xi = tables.vol_xi
        dvals = tables.basis_div_at(xi)
        # einsum "eri,eiq->eqr"
        return (self.dofs[tables.elems] @ dvals).swapaxes(1, 2)


# -- per-element constraint tables ---------------------------------------------


@dataclass
class ConstraintTables:
    """Patch-independent element integrals used by the patch problems.

    divm[e, b, i] = (div basis_i, m_b)_T over the P_k monomials.
    symx[e, a, i] = (basis_i . e_x, phi_a)_T for the local P_k hats phi_a.
    symy[e, a, i] = (basis_i . e_y, phi_a)_T.
    gram[e, i, j] = (basis_i, basis_j)_T.
    """

    divm: np.ndarray
    symx: np.ndarray
    symy: np.ndarray
    gram: np.ndarray


def build_constraint_tables(disc: Discretization) -> ConstraintTables:
    """Integrate the constraint tables over the stress chunks of ``disc``."""
    nt, k = disc.mesh.n_triangles, disc.k
    nd = rt_dim(k)
    nmk = len(_pk_exponents(k))
    nlk = 3 * k  # local P_k nodes for k in (1, 2): 3 or 6
    divm = np.empty((nt, nmk, nd))
    symx = np.empty((nt, nlk, nd))
    symy = np.empty((nt, nlk, nd))
    gram = np.empty((nt, nd, nd))
    for tb in disc.stress_chunks():
        elems = tb.elems
        vals = tb.basis_at(tb.vol_xi).swapaxes(2, 3)       # (ne, nd, 2, nq)
        divs = tb.basis_div_at(tb.vol_xi)
        mk = monomial_values(_exps_array(k), tb.vol_xi)
        hats = lagrange_values(k, tb.vol_ref)
        w = tb.vol_w[:, :, None]
        # einsum "eq,eiq,eqb->ebi"
        divm[elems] = (w * mk).swapaxes(1, 2) @ divs.swapaxes(1, 2)
        # einsum "eq,eiq,qa->eai" on vals[..., 0] and on vals[..., 1]
        wh = (w * hats).swapaxes(1, 2)
        symx[elems] = wh @ vals[:, :, 0].swapaxes(1, 2)
        symy[elems] = wh @ vals[:, :, 1].swapaxes(1, 2)
        # einsum "eq,eiqc,ejqc->eij"
        flat = vals.reshape(len(elems), nd, -1)             # (ne, nd, 2 nq)
        gram[elems] = (flat * np.tile(tb.vol_w, 2)[:, None, :]) @ flat.swapaxes(1, 2)
    return ConstraintTables(divm=divm, symx=symx, symy=symy, gram=gram)


class Discretization:
    """Per-mesh dof maps, plus the stress and constraint tables of one step.

    The tables are built on first use and kept until :meth:`release_tables`;
    after that they are built again on every use and not kept, so a
    finished step holds only its dof maps.
    """

    def __init__(self, mesh: Mesh, k: int = 1):
        if k not in (1, 2):
            raise UnsupportedDegree(f"stress degree {k} not supported")
        self.mesh = mesh
        self.k = k
        self._tables: dict | None = {}  # None once released

    @cached_property
    def displacement(self) -> DofMap:
        return make_dofmap(self.mesh, self.k + 1, 2)

    @cached_property
    def pressure(self) -> DofMap:
        return make_dofmap(self.mesh, self.k, 1)

    def _kept(self, name: str, build):
        if self._tables is None:
            return build()
        if name not in self._tables:
            self._tables[name] = build()
        return self._tables[name]

    @property
    def constraints(self) -> ConstraintTables:
        return self._kept("constraints", lambda: build_constraint_tables(self))

    def stress_tables(self, elems=None) -> StressTables:
        return build_stress_tables(self.mesh, self.k, elems)

    def stress_chunks(self) -> list[StressTables]:
        """Stress tables over element chunks covering the mesh."""
        nt = self.mesh.n_triangles
        return self._kept("chunks", lambda: [
            self.stress_tables(np.arange(lo, min(lo + _CHUNK, nt)))
            for lo in range(0, nt, _CHUNK)
        ])

    def release_tables(self) -> None:
        """Free the stress and constraint tables and stop keeping them."""
        self._tables = None


# -- projections ---------------------------------------------------------------


def project_volume(tables: StressTables, values: np.ndarray, k: int) -> np.ndarray:
    """Elementwise L2 projection onto P_k in scaled monomials.

    values: (ne, nq, ncomp) at the tables' volume points.
    Returns coefficients (ne, ncomp, n_monomials).
    """
    mk = monomial_values(_exps_array(k), tables.vol_xi)
    wmk = tables.vol_w[:, :, None] * mk
    # einsum "eq,eqa,eqb->eab" and "eq,eqa,eqc->eca"
    G = wmk.swapaxes(1, 2) @ mk
    rhs = values.swapaxes(1, 2) @ wmk
    return np.linalg.solve(G[:, None, :, :], rhs[..., None]).squeeze(-1)


def eval_volume_poly(tables: StressTables, coeff: np.ndarray, k: int) -> np.ndarray:
    """Evaluate elementwise P_k polynomials at the volume points."""
    mk = monomial_values(_exps_array(k), tables.vol_xi)
    # einsum "eca,eqa->eqc"
    return mk @ coeff.swapaxes(1, 2)


def project_side(values: np.ndarray, k: int):
    """Side-wise L2 projection onto P_k as orthonormal Legendre coefficients.

    values: (ns, nqs, ncomp) at the parameter points of side_rule(k).
    Returns coefficients (ns, ncomp, k+1); evaluation is coeff @ legendre.
    """
    tq, tw = side_rule(k)
    lg = legendre01(k + 1, tq)
    # einsum "q,qm,sqc->scm"
    return values.swapaxes(1, 2) @ (tw[:, None] * lg)
