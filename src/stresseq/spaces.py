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
* An element's scaled monomials are monomials in the scaled reference
  coordinates ``xi = S (r - r_c)``, ``S = J / h`` (``r_c`` the reference
  centroid), so its tables depend on ``S`` alone, up to a power of ``h``
  per table and a sign per side dof.  They are built once per shape class
  of the mesh (:attr:`.Mesh.shape_classes`) and taken to the elements by
  those exact factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvals_banded

from .errors import UnsupportedDegree
from .mesh import Mesh

# Elements per block of every elementwise loop: bounds the size of the
# per-block quadrature arrays.
_CHUNK = 4096

# The stress degrees k a Discretization accepts; the layouts hold for any k,
# and README "Numerical notes" says what holds k = 3 and k = 4 back.
SUPPORTED_DEGREES = (1, 2)


def element_chunks(n: int) -> list[np.ndarray]:
    """The element blocks 0.._CHUNK-1, _CHUNK..2 _CHUNK-1, ... of n elements."""
    return [np.arange(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _by_blocks(build, n: int) -> list[np.ndarray]:
    """The tuples of arrays ``build(block)`` over the blocks of
    ``element_chunks(n)``, concatenated array by array: a per-shape build
    holds at most _CHUNK shapes at a time, and one that stacks every
    product per shape gives the same bits for any blocks."""
    return [np.concatenate(a) for a in zip(*(build(b) for b in element_chunks(n)))]


# -- quadrature --------------------------------------------------------------


@lru_cache(maxsize=None)
def segment_rule(degree: int):
    """Gauss rule on [0, 1] exact for polynomials of the given degree."""
    n = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi(n: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """The Jacobi polynomial P_n^(a, b) at x, by the forward recurrence of
    scipy.special.eval_jacobi at integer n, operation for operation."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (a + 1) + (a + b + 2) * (x - 1))
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2 * k + a + b
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p + 2 * k * (k + b) * (t + 2) * d) / (
            2 * (k + a + 1) * (k + a + b + 1) * t
        )
        p = d + p
    return math.comb(n + a, n) * p


def _gauss_jacobi10(n: int):
    """The n-point Gauss-Jacobi rule of weight 1 - x on [-1, 1]: the
    Golub-Welsch algorithm as scipy.special.roots_jacobi(n, 1, 0) runs it.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the three-term recurrence, improved by one Newton step
    x -= P_n / P_n' with P_n' = (n + 2)/2 P_{n-1}^(2, 1); the weights are
    1 / (P_{n-1} P_n') after a log-normalisation of both factors, scaled to
    sum to 2 (the integral of 1 - x).
    """
    # The matrix in upper band storage: row 0 the off-diagonal, row 1 the
    # diagonal.  scipy's special cases of k = 0 (diagonal) and k = 1
    # (off-diagonal) are the general formulas' values to the bit.
    k = np.arange(n, dtype=float)
    j = k[1:]
    c = np.zeros((2, n))
    c[0, 1:] = (
        2.0 / (2.0 * j + 1.0)
        * np.sqrt((j + 1.0) * j / (2.0 * j + 2.0))
        * np.sqrt(j * (j + 1.0) / (2.0 * j))
    )
    c[1] = -1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    x = eigvals_banded(c, overwrite_a_band=True)
    dy = 0.5 * (n + 2.0) * _jacobi(n - 1, 2, 1, x)
    x -= _jacobi(n, 1, 0, x) / dy
    fm = _jacobi(n - 1, 1, 0, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 2.0 / w.sum()
    return x, w


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Conical-product rule on the reference triangle, exact for `degree`.

    Tensorizes a Gauss-Jacobi rule (weight 1-x) in the first coordinate
    with a Gauss-Legendre rule in the second; weights sum to 1/2.  The
    Gauss-Jacobi rule is `_gauss_jacobi10`, scipy.special.roots_jacobi's
    Golub-Welsch algorithm on scipy.linalg.eigvals_banded, which gives its
    nodes and weights bit for bit without importing scipy.special.
    """
    n = max(1, (degree + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    vg, vw = (xg + 1.0) / 2.0, wg / 2.0
    xj, wj = _gauss_jacobi10(n)
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
    nodes; then the points (i/m, j/m), i, j >= 1, i + j < m, i-major.
    """
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(corners)
    for j in range(3):
        a = np.array(corners[(j + 1) % 3])
        b = np.array(corners[(j + 2) % 3])
        for q in range(1, m):
            nodes.append(tuple(a + (q / m) * (b - a)))
    nodes += [(i / m, j / m) for i in range(1, m) for j in range(1, m - i)]
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
    then (m-1)(m-2)/2 interior dofs per element, element by element in
    the order of :func:`lagrange_reference`.  Vector-valued fields
    interleave components: global dof = scalar_dof * ncomp + component.
    """

    mesh: Mesh
    degree: int
    ncomp: int
    element_dofs: np.ndarray
    n_scalar: int

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
    nt, nv, ns = mesh.n_triangles, mesh.n_vertices, mesh.n_sides
    n_int = (m - 1) * (m - 2) // 2
    ed = np.empty((nt, 3 * m + n_int), dtype=np.int64)
    ed[:, :3] = mesh.triangles
    for j in range(3):
        s = mesh.tri_sides[:, j]
        va = mesh.triangles[:, (j + 1) % 3]
        vb = mesh.triangles[:, (j + 2) % 3]
        base = nv + s * (m - 1)
        for q in range(m - 1):
            slot = np.where(va < vb, q, m - 2 - q)
            ed[:, 3 + j * (m - 1) + q] = base + slot
    first = nv + ns * (m - 1)
    ed[:, 3 * m :] = first + np.arange(nt * n_int).reshape(nt, n_int)
    return DofMap(mesh, m, ncomp, ed, first + nt * n_int)


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


# the reference vertices; local side j (opposite vertex j) runs from vertex
# j + 1 to vertex j + 2
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_SIDE_ENDS = ((1, 2), (2, 0), (0, 1))


def _shape_points(shape: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Scaled points ``xi = S (r - r_c)`` of the reference points r (..., 2)
    for each shape S (n, 2, 2): (n, ..., 2)."""
    d = r - 1.0 / 3.0
    extra = (1,) * (d.ndim - 1)
    return (
        d[..., 0, None] * shape[:, :, 0].reshape(-1, *extra, 2)
        + d[..., 1, None] * shape[:, :, 1].reshape(-1, *extra, 2)
    )


def _basis_at(C: np.ndarray, k: int, xi: np.ndarray) -> np.ndarray:
    """Basis values of the coefficients C (n, nd, 2, nm) at scaled points
    (n, nq, 2) -> (n, nd, nq, 2), a view of an (n, nd, 2, nq) array."""
    exps1, _ = _rt_span(k)
    mv = monomial_values(exps1, xi)
    n, nd, _, nm = C.shape
    # einsum "eicm,eqm->eiqc"
    out = C.reshape(n, 2 * nd, nm) @ mv.swapaxes(1, 2)
    return out.reshape(n, nd, 2, -1).swapaxes(2, 3)


def _basis_div_at(C: np.ndarray, k: int, xi: np.ndarray, h=1.0) -> np.ndarray:
    """Basis divergences at scaled points (n, nq, 2) -> (n, nd, nq): d/dxi
    over h, h (n, 1, 1) or 1."""
    DX, DY = _div_maps(k)
    dc = (C[:, :, 0, :] @ DX + C[:, :, 1, :] @ DY) / h
    mv = monomial_values(_exps_array(k), xi)
    # einsum "eib,eqb->eiq"
    return dc @ mv.swapaxes(1, 2)


class ShapeTables(NamedTuple):
    """Scale-free broken-RT coefficients of element shapes ``S = J / h``.

    They are an element's tables in its local frame: the moments of side j
    use its outward normal and its parameter from local vertex j + 1 to
    j + 2.  ``C`` is laid out as in :class:`StressTables`, and ``vol_xi``
    holds the scaled points of the volume rule.
    """

    shape: np.ndarray   # (n, 2, 2)
    vol_xi: np.ndarray  # (n, nq, 2)
    C: np.ndarray       # (n, nd, 2, nm)


def _shape_tables(k: int, shape: np.ndarray) -> ShapeTables:
    """Build the local-frame coefficients of the shapes ``shape``."""
    n = len(shape)
    nd = rt_dim(k)
    exps1, S = _rt_span(k)
    rq, rw = volume_rule(k)
    tq, tw = side_rule(k)
    ends = _CORNERS[np.array(_SIDE_ENDS)]                   # (3, 2, 2)
    tangent = ends[:, 1] - ends[:, 0]                        # (3, 2)
    vol_xi = _shape_points(shape, rq)
    side_xi = _shape_points(shape, ends[:, None, 0] + tq[:, None] * tangent[:, None])
    # einsum "jr,edr->ejd": the scaled side vectors, then their outward normals
    edge = tangent[:, 0, None] * shape[:, None, :, 0] + tangent[:, 1, None] * shape[:, None, :, 1]
    normal = np.stack([edge[..., 1], -edge[..., 0]], axis=-1)
    normal /= np.linalg.norm(edge, axis=-1)[..., None]

    # every product is stacked per shape, never one product over several
    # shapes, so that a shape's bits do not depend on the others built with it
    mv_vol = monomial_values(exps1, vol_xi)
    mv_side = monomial_values(exps1, side_xi)
    nm = len(exps1)
    st = S.reshape(2 * nd, nm).T
    # einsum "fcm,eqm->eqfc" and "fcm,esqm->esqfc"
    f_vol = (mv_vol @ st).reshape(mv_vol.shape[:-1] + (nd, 2))
    f_side = (mv_side @ st).reshape(mv_side.shape[:-1] + (nd, 2))

    v_side = _normal_moments(f_side, normal, tw, legendre01(k + 1, tq))
    mq = monomial_values(_exps_array(k - 1), vol_xi)
    v_int = _interior_moments(f_vol, mq, rw).reshape(n, -1, nd, 2)

    vand = np.concatenate(
        [
            v_side.reshape(n, 3 * (k + 1), nd),
            v_int.transpose(0, 3, 1, 2).reshape(n, -1, nd),
        ],
        axis=1,
    )
    vinv = np.linalg.inv(vand)
    # einsum "efi,fcm->eicm"
    C = vinv.swapaxes(1, 2) @ S.reshape(nd, -1)
    return ShapeTables(shape=shape, vol_xi=vol_xi, C=C.reshape(n, nd, 2, nm))


def _dof_signs(mesh: Mesh, elems: np.ndarray, k: int) -> np.ndarray:
    """(ne, nd) the sign of each element dof against its local-frame dof.

    A side's global normal is its minus element's outward normal, so the
    plus element flips all moments of the side; a side whose global
    parameter (lower to higher vertex) runs against the local one flips its
    odd Legendre moments.  Interior dofs keep their sign."""
    tri = mesh.triangles[elems]
    plus = ~mesh.is_minus[elems]                                          # (ne, 3)
    against = tri[:, [1, 2, 0]] > tri[:, [2, 0, 1]]                       # (ne, 3)
    odd = np.arange(k + 1) % 2 == 1
    flip = plus[:, :, None] != (against[:, :, None] & odd)
    sign = np.ones((len(elems), rt_dim(k)))
    sign[:, : 3 * (k + 1)] = np.where(flip, -1.0, 1.0).reshape(len(elems), -1)
    return sign


@dataclass
class StressTables:
    """Per-element broken-RT tables for a subset of elements.

    ``C[e, i, c, m]`` holds the scaled-monomial coefficients (component c,
    monomial m over P_{k+1}) of local basis function i on element e.  The
    tables carry the quadrature layout used to build them so that all
    downstream moments are taken with the same rules.  ``C`` and
    ``vol_xi`` are those of the element's shape (``shapes``, row
    ``index[e]``), ``C`` times the element's dof signs (:func:`_dof_signs`);
    the physical points and weights are the element's own.
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
    shapes: ShapeTables
    index: np.ndarray         # (ne,) row of each element in shapes
    C: np.ndarray             # (ne, nd, 2, nm)
    side_xi: np.ndarray = field(init=False)  # (ne, 3, nqs, 2) scaled points

    def __post_init__(self):
        self.side_xi = self.scaled(self.side_x)

    @property
    def vol_xi(self) -> np.ndarray:
        """(ne, nq, 2) the scaled points of the volume rule."""
        return self.shapes.vol_xi[self.index]

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
        return _basis_at(self.C, self.k, xi)

    def basis_div_at(self, xi: np.ndarray) -> np.ndarray:
        """Basis divergences at scaled points -> (ne, nd, nq)."""
        return _basis_div_at(self.C, self.k, xi, self.h[:, None, None])

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


def build_stress_tables(
    mesh: Mesh, k: int, elems=None, classes: ShapeTables | None = None
) -> StressTables:
    """Construct the broken-RT dof-to-coefficient tables for `elems`.

    Local dof order per element and tensor row: for each local side
    j = 0, 1, 2 (opposite vertex j) the k+1 Legendre moments of the normal
    trace, then the interior moments (component-major over the P_{k-1}
    monomials).  Side dofs use the side's global parameter and normal.

    The coefficients are the local-frame tables of each element's shape
    (:func:`_shape_tables`) signed per element (:func:`_dof_signs`).  Given
    ``classes``, the tables of the shape classes of the mesh
    (:attr:`Discretization.classes`), an element reads its class's row;
    without it, the tables are built here from each element's own shape by
    the same routine, so both give the same bits.
    """
    if elems is None:
        elems = np.arange(mesh.n_triangles)
    elems = np.asarray(elems, dtype=np.int64)
    if classes is None:
        classes = _shape_tables(k, mesh.jac[elems] / mesh.h[elems, None, None])
        index = np.arange(len(elems))
    else:
        index = mesh.shape_classes[1][elems]
    rq, rw = volume_rule(k)
    vol_x, vol_w = mesh.rule_points(elems, rq, rw)
    tq, tw = side_rule(k)
    sids = mesh.tri_sides[elems]
    return StressTables(
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
        shapes=classes,
        index=index,
        C=classes.C[index] * _dof_signs(mesh, elems, k)[:, :, None, None],
    )


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


# -- constraint tables ---------------------------------------------------------


class ShapeConstraints(NamedTuple):
    """The patch-independent integrals of the patch problems per shape class
    (:attr:`.Mesh.shape_classes`), in the local frame and over the scaled
    element (d/dxi, area det(S) / 2): divm[c, b, i] = (div basis_i, m_b)
    over the P_k monomials, symx[c, a, i] = (basis_i . e_x, phi_a) and symy
    for the local P_k hats phi_a, gram[c, i, j] = (basis_i, basis_j).  An
    element's tables are its class's scaled by its h and dof signs D
    (:func:`_dof_signs`): divm by h D, symx and symy by h^2 D, gram by
    h^2 D D^T (:meth:`.Equilibrator._build_batch`).
    """

    divm: np.ndarray   # (n_classes, nmk, nd)
    symx: np.ndarray   # (n_classes, nlk, nd)
    symy: np.ndarray   # (n_classes, nlk, nd)
    gram: np.ndarray   # (n_classes, nd, nd)


def _shape_constraints(shapes: ShapeTables, k: int) -> tuple[np.ndarray, ...]:
    """The scale-free constraint tables (divm, symx, symy, gram) of
    ``shapes``."""
    S = shapes.shape
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 1, 0] * S[:, 0, 1]
    rq, rw = volume_rule(k)
    xi = shapes.vol_xi
    vals = _basis_at(shapes.C, k, xi).swapaxes(2, 3)      # (n, nd, 2, nq)
    divs = _basis_div_at(shapes.C, k, xi)
    mk = monomial_values(_exps_array(k), xi)
    hats = lagrange_values(k, rq)
    w = det[:, None] * rw                                   # (n, nq)
    # einsum "eq,eiq,eqb->ebi"
    divm = (w[:, :, None] * mk).swapaxes(1, 2) @ divs.swapaxes(1, 2)
    # einsum "eq,eiq,qa->eai" on vals[..., 0] and on vals[..., 1]
    wh = (w[:, :, None] * hats).swapaxes(1, 2)
    symx = wh @ vals[:, :, 0].swapaxes(1, 2)
    symy = wh @ vals[:, :, 1].swapaxes(1, 2)
    # einsum "eq,eiqc,ejqc->eij"
    flat = vals.reshape(len(S), vals.shape[1], -1)          # (n, nd, 2 nq)
    gram = (flat * np.tile(w, 2)[:, None, :]) @ flat.swapaxes(1, 2)
    return divm, symx, symy, gram


def build_constraint_tables(disc: Discretization) -> ShapeConstraints:
    """Integrate the constraint tables of ``disc`` once per shape class of
    its mesh (:attr:`Discretization.classes`)."""
    classes = disc.classes

    def build(block):
        return _shape_constraints(ShapeTables(*(a[block] for a in classes)), disc.k)

    return ShapeConstraints(*_by_blocks(build, len(classes.C)))


class Discretization:
    """Per-mesh dof maps, plus the stress and constraint tables of one step.

    The tables are built on first use and kept until :meth:`release_tables`
    drops them, so that a finished step holds only its dof maps.  The stores
    :attr:`classes` and :attr:`constraints` hold class data only: every
    table that depends on an element's shape alone is built once per shape
    class of the mesh, and an element's own facts (its class, dof signs and
    h) are read from the mesh where its tables are used: the stress
    chunks, the element matrices and each patch batch.
    """

    def __init__(self, mesh: Mesh, k: int = 1):
        if k not in SUPPORTED_DEGREES:
            raise UnsupportedDegree(f"stress degree {k} not in {SUPPORTED_DEGREES}")
        self.mesh = mesh
        self.k = k

    @cached_property
    def displacement(self) -> DofMap:
        return make_dofmap(self.mesh, self.k + 1, 2)

    @cached_property
    def pressure(self) -> DofMap:
        return make_dofmap(self.mesh, self.k, 1)

    @cached_property
    def classes(self) -> ShapeTables:
        """The local-frame tables of the shape classes of the mesh, in class
        order (:attr:`.Mesh.shape_classes`)."""
        first, _ = self.mesh.shape_classes
        shape = self.mesh.jac[first] / self.mesh.h[first, None, None]
        return ShapeTables(*_by_blocks(lambda b: _shape_tables(self.k, shape[b]), len(shape)))

    @cached_property
    def constraints(self) -> ShapeConstraints:
        return build_constraint_tables(self)

    @cached_property
    def stress_chunks(self) -> list[StressTables]:
        """Stress tables over element chunks covering the mesh."""
        return [
            build_stress_tables(self.mesh, self.k, elems, self.classes)
            for elems in element_chunks(self.mesh.n_triangles)
        ]

    def release_tables(self) -> None:
        """Drop the stress and constraint tables and the class store."""
        for name in ("classes", "constraints", "stress_chunks"):
            self.__dict__.pop(name, None)


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
