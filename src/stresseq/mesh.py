"""Conforming triangle meshes, bisection refinement, and vertex patches.

A :class:`Mesh` stores vertices, positively oriented triangles, and a full
side table with deterministic orientation conventions:

* sides are stored as sorted vertex pairs ``(lo, hi)`` and numbered in
  lexicographic order of those pairs;
* the side tangent runs from the lower to the higher vertex index;
* the side normal points from the lower-numbered adjacent triangle into the
  higher-numbered one, and outward on the boundary;
* the refinement edge of every triangle is the edge between its first two
  stored vertices.

Each element is the affine image ``x = p0 + J r`` of the reference
triangle; its Jacobian, inverse, area and centroid are computed once, when
the mesh is built, and :meth:`Mesh.rule_points` and
:meth:`Mesh.reference_points` are the map and its inverse.  Elements whose
``J / h`` is bitwise equal form one shape class (:attr:`Mesh.shape_classes`).

Refinement is newest-vertex bisection with recursive conformity closure.
The vertex patches of a partition of unity are one :class:`Patches` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDirichlet,
    InvertedElement,
    IoError,
    IsolatedNeumannVertex,
    NonConforming,
    ProblemError,
)

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2

_FMT = "%.17g"
_HEADER = ("vertices", "triangles", "sides_dirichlet", "sides_neumann")


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation with classified boundary sides.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Positively oriented; the refinement edge is ``(t[0], t[1])``.
    sides : (ns, 2) int array
        Vertex pairs ``(lo, hi)``, lexicographically sorted.
    side_tri : (ns, 2) int array
        Adjacent triangles ``(t_minus, t_plus)`` with ``t_minus < t_plus``;
        ``t_plus == -1`` on the boundary.
    side_label : (ns,) int array
        One of ``INTERIOR``, ``DIRICHLET``, ``NEUMANN``.
    tri_sides : (nt, 3) int array
        ``tri_sides[e, j]`` is the side opposite local vertex ``j``.
    parent : (nt,) int array or None
        For refined meshes, the element of the previous mesh containing
        each element; ``None`` for meshes built from scratch.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    sides: np.ndarray
    side_tri: np.ndarray
    side_label: np.ndarray
    tri_sides: np.ndarray
    parent: np.ndarray | None = None

    # element geometry, set by _assemble: the affine map x = p0 + jac r of
    # each element from the reference triangle, whose Jacobian's columns are
    # the edge vectors p1 - p0 and p2 - p0; grad_phys = grad_ref @ jac_inv
    jac: np.ndarray = field(default=None, repr=False)
    jac_inv: np.ndarray = field(default=None, repr=False)
    areas: np.ndarray = field(default=None, repr=False)
    centroids: np.ndarray = field(default=None, repr=False)
    # side geometry and element diameters, filled by _finalize
    side_length: np.ndarray = field(default=None, repr=False)
    side_normal: np.ndarray = field(default=None, repr=False)
    h: np.ndarray = field(default=None, repr=False)
    # the owner array of modified_patches (see _traction_hosts)
    traction_hosts: np.ndarray = field(default=None, repr=False)

    def _finalize(self):
        v = self.vertices
        a, b = v[self.sides[:, 0]], v[self.sides[:, 1]]
        self.side_length = np.linalg.norm(b - a, axis=1)
        tang = (b - a) / self.side_length[:, None]
        n0 = np.column_stack([tang[:, 1], -tang[:, 0]])
        centroids = self.centroids
        mid = 0.5 * (a + b)
        ref = np.where(
            (self.side_tri[:, 1] >= 0)[:, None],
            centroids[self.side_tri[:, 1]] - centroids[self.side_tri[:, 0]],
            mid - centroids[self.side_tri[:, 0]],
        )
        sign = np.sign(np.einsum("ij,ij->i", n0, ref))
        self.side_normal = n0 * sign[:, None]
        edge_len = self.side_length[self.tri_sides]
        self.h = edge_len.max(axis=1)

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_sides(self) -> int:
        return self.sides.shape[0]

    def boundary_sides(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.side_label == label)

    def side_points(self, sides, t: np.ndarray) -> np.ndarray:
        """Points ``a + t (b - a)`` on sides from their lower vertex ``a``
        to their higher vertex ``b``: ``shape(sides) + (len(t), 2)``."""
        a = self.vertices[self.sides[sides, 0]]
        b = self.vertices[self.sides[sides, 1]]
        return a[..., None, :] + t[:, None] * (b - a)[..., None, :]

    def rule_points(self, elems, rq, rw):
        """Physical points (ne, nq, 2) and weights (ne, nq) of the reference
        rule (rq, rw) on ``elems``: the affine map of each element."""
        jac = self.jac[elems]
        # einsum "qr,edr->eqd", added as (p0 + r0 jac[:, 0]) + r1 jac[:, 1]
        xq = (
            self.vertices[self.triangles[elems, 0]][:, None, :]
            + rq[None, :, 0, None] * jac[:, None, :, 0]
            + rq[None, :, 1, None] * jac[:, None, :, 1]
        )
        return xq, 2.0 * self.areas[elems][:, None] * rw[None, :]

    def reference_points(self, elems, x: np.ndarray) -> np.ndarray:
        """Reference coordinates of the physical points ``x`` (ne, ..., 2),
        one set per element of ``elems``: the inverse of each element's
        affine map."""
        jinv = self.jac_inv[elems]
        xc = x.reshape(len(elems), -1, 2) - self.vertices[self.triangles[elems, 0]][:, None, :]
        # einsum "erd,eqd->eqr"
        ref = xc[:, :, 0, None] * jinv[:, None, :, 0] + xc[:, :, 1, None] * jinv[:, None, :, 1]
        return ref.reshape(x.shape)

    @cached_property
    def shape_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact similarity classes of the elements: the first element
        of each class and the class of each element.  Two elements share a
        class when the bytes of their ``jac / h`` are equal, with no
        tolerance; classes are numbered in the byte order of that key.
        Computed on first use."""
        shape = np.ascontiguousarray(self.jac / self.h[:, None, None])
        keys = shape.reshape(len(shape), 4).view(np.dtype((np.void, 32)))[:, 0]
        _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
        return first, cls.reshape(-1)

    @cached_property
    def is_minus(self) -> np.ndarray:
        """(nt, 3) whether each element is the minus element of its side j,
        the one the side's global normal points out of.  On first use."""
        return self.side_tri[self.tri_sides, 0] == np.arange(self.n_triangles)[:, None]

    def vertex_flags(self):
        """Boolean masks (on_dirichlet, on_neumann_only) per vertex."""
        on_d = np.zeros(self.n_vertices, bool)
        on_n = np.zeros(self.n_vertices, bool)
        d = self.sides[self.side_label == DIRICHLET]
        n = self.sides[self.side_label == NEUMANN]
        on_d[d.ravel()] = True
        on_n[n.ravel()] = True
        return on_d, on_n & ~on_d

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.triangles, other.triangles)
            and np.array_equal(self.side_label, other.side_label)
        )


def _side_table(triangles, n_vertices):
    """Enumerate unique sides; raise NonConforming on >2 incidences.

    Sides are found by their packed keys ``lo * n_vertices + hi``, which
    ascend in the lexicographic order of the pairs."""
    nt = triangles.shape[0]
    local = np.sort(triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
    keys, inverse, counts = np.unique(
        local[:, 0] * n_vertices + local[:, 1], return_inverse=True, return_counts=True
    )
    sides = np.column_stack([keys // n_vertices, keys % n_vertices])
    if counts.max(initial=0) > 2:
        bad = sides[np.argmax(counts)]
        raise NonConforming(
            f"side {tuple(bad.tolist())} is shared by more than two triangles"
        )
    inverse = inverse.reshape(nt, 3)
    order = np.argsort(inverse.ravel(), kind="stable")
    elems = np.repeat(np.arange(nt), 3)[order]
    side_tri = np.full((len(sides), 2), -1, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    side_tri[:, 0] = elems[offsets[:-1]]
    two = counts == 2
    side_tri[two, 1] = elems[offsets[:-1][two] + 1]
    return sides, side_tri, inverse


def _side_labels(sides, boundary, n_vertices, dirichlet, neumann):
    """Label the sides named by the dirichlet and neumann vertex pairs.

    The pairs are checked in order, dirichlet first; the first pair that
    names no side, an interior side or a side named before it raises
    NonConforming, and so does a boundary side that no pair names."""
    try:
        given = [np.asarray(p, dtype=np.int64) for p in (dirichlet, neumann)]
        if any(p.size and (p.ndim != 2 or p.shape[1] != 2) for p in given):
            raise ValueError
    except ValueError:  # also raised for rows of unequal length
        raise ValueError("boundary sides must be vertex pairs") from None
    pairs = np.sort(np.concatenate([p.reshape(-1, 2) for p in given]), axis=1)
    keys = sides[:, 0] * n_vertices + sides[:, 1]  # ascending
    in_range = (pairs[:, 0] >= 0) & (pairs[:, 1] < n_vertices)
    want = np.where(in_range, pairs[:, 0] * n_vertices + pairs[:, 1], -1)
    s = np.searchsorted(keys, want)
    found = in_range & (np.append(keys, -1)[s] == want)
    interior = found & ~np.append(boundary, True)[s]
    order = np.argsort(s, kind="stable")
    repeat = np.zeros(len(s), dtype=bool)
    repeat[order[1:]] = s[order[1:]] == s[order[:-1]]
    bad = ~found | interior | repeat
    if bad.any():
        i = int(np.argmax(bad))
        name = "dirichlet" if i < len(given[0]) else "neumann"
        key = tuple(pairs[i].tolist())
        if not found[i]:
            raise NonConforming(f"{name} side {key} is not a mesh side")
        if interior[i]:
            raise NonConforming(f"{name} side {key} is not on the boundary")
        raise NonConforming(f"side {key} classified twice")
    side_label = np.zeros(len(sides), dtype=np.int64)
    side_label[s] = np.where(np.arange(len(s)) < len(given[0]), DIRICHLET, NEUMANN)
    unclassified = boundary & (side_label == INTERIOR)
    if unclassified.any():
        s = int(np.flatnonzero(unclassified)[0])
        raise NonConforming(f"boundary side {tuple(sides[s].tolist())} is unclassified")
    return side_label


_SCAN_BATCH = 1 << 15  # (side, candidate) pairs tested at once


def _batches(weights, limit):
    """Consecutive slices of ``weights`` whose sums stay within ``limit``
    (a slice of one item may exceed it)."""
    ends = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + limit, "right")), start + 1)
        yield start, stop
        start = stop


def _hanging_node_scan(vertices, triangles, sides):
    """Geometric check for vertices lying strictly inside a side.

    Used vertices are put in square buckets of the median side length.  A
    side's candidates are the used vertices in the buckets that its
    bounding box, widened by one bucket, touches.  They are found by binary
    search over the vertices sorted by (bucket x, bucket y, id), so sides
    are tested in order and each side's candidates in that order, and the
    first hanging vertex found is reported.
    """
    if not len(sides):
        return
    used = np.flatnonzero(np.bincount(triangles.ravel(), minlength=len(vertices)))
    a = vertices[sides[:, 0]]
    b = vertices[sides[:, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    cell = max(np.median(lengths), 1e-300)

    def bucket(x):
        # clipped to stay an int64; clipping is monotone, so a vertex inside
        # a side's bounding box stays inside the side's bucket range
        return np.clip(np.floor(x / cell), -(2.0**62), 2.0**62).astype(np.int64)

    # occupied bucket columns and rows, ranked so a bucket packs into one int64
    keys = bucket(vertices[used])
    cols, col_of = np.unique(keys[:, 0], return_inverse=True)
    rows, row_of = np.unique(keys[:, 1], return_inverse=True)
    packed = col_of * len(rows) + row_of
    order = np.argsort(packed, kind="stable")  # ties keep ascending ids
    packed, vids = packed[order], used[order]

    lo = bucket(np.minimum(a, b)) - 1
    hi = bucket(np.maximum(a, b)) + 1
    c0 = np.searchsorted(cols, lo[:, 0])
    r0 = np.searchsorted(rows, lo[:, 1])
    r1 = np.searchsorted(rows, hi[:, 1], "right")
    n_cols = np.searchsorted(cols, hi[:, 0], "right") - c0
    n_cols[r1 <= r0] = 0

    # (side, first candidate, candidate count) into the sorted vertices per
    # occupied column of each side's box, in side order: about three per side
    side = np.repeat(np.arange(len(sides)), n_cols)
    col = c0[side] + np.arange(len(side)) - np.repeat(np.cumsum(n_cols) - n_cols, n_cols)
    first = np.searchsorted(packed, col * len(rows) + r0[side])
    n_cand = np.searchsorted(packed, col * len(rows) + r1[side]) - first

    eps = 1e-12
    for start, stop in _batches(n_cand, _SCAN_BATCH):
        m = n_cand[start:stop]
        s = np.repeat(side[start:stop], m)
        cand = vids[np.arange(m.sum()) + np.repeat(first[start:stop] - np.cumsum(m) + m, m)]
        keep = (cand != sides[s, 0]) & (cand != sides[s, 1])
        s, cand = s[keep], cand[keep]
        p = vertices[cand]
        ab = b[s] - a[s]
        t = np.einsum("ij,ij->i", p - a[s], ab) / (lengths[s] ** 2)
        proj = a[s] + t[:, None] * ab
        dist = np.linalg.norm(p - proj, axis=1)
        onseg = (dist <= 1e-10 * lengths[s]) & (t > eps) & (t < 1 - eps)
        if onseg.any():
            i = np.flatnonzero(onseg)[0]
            raise NonConforming(
                f"vertex {int(cand[i])} hangs on side {tuple(sides[s[i]].tolist())}"
            )


def _rotate_to_longest_edge(vertices, triangles):
    """Cyclically rotate each triple so the refinement edge (t0, t1) is the
    longest edge, ties broken by the sorted vertex pair."""
    # edge j is (t[j], t[j+1]) for j = 0, 1, 2 (cyclic)
    nxt = np.roll(triangles, -1, axis=1)
    length = np.linalg.norm(vertices[nxt] - vertices[triangles], axis=2)
    lo, hi = np.minimum(triangles, nxt), np.maximum(triangles, nxt)
    best = np.lexsort((hi, lo, length), axis=1)[:, -1:]
    return np.take_along_axis(triangles, (best + np.arange(3)) % 3, axis=1)


def _assemble(
    vertices,
    triangles,
    dirichlet,
    neumann,
    parent=None,
    geometric_check=True,
    rotate=False,
) -> Mesh:
    """Validate the arrays and build the mesh with its element and side
    geometry.  With ``rotate``, each triangle is first rotated cyclically
    so that its refinement edge is its longest edge."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be an (nt, 3) array")
    nv = len(vertices)
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError("triangle vertex index out of range")
    unused = np.bincount(triangles.ravel(), minlength=nv) == 0
    if unused.any():
        raise ValueError(f"vertex {int(np.argmax(unused))} lies in no triangle")
    if rotate:
        triangles = _rotate_to_longest_edge(vertices, triangles)
    if (
        (triangles[:, 0] == triangles[:, 1])
        | (triangles[:, 1] == triangles[:, 2])
        | (triangles[:, 2] == triangles[:, 0])
    ).any():
        raise InvertedElement("triangle with repeated vertex")

    pts = vertices[triangles]
    jac = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=-1)
    area2 = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 1, 0] * jac[:, 0, 1]
    if (area2 <= 0.0).any():
        e = int(np.flatnonzero(area2 <= 0.0)[0])
        raise InvertedElement(f"triangle {e} has non-positive area")

    canon = np.sort(triangles, axis=1)
    canon = canon[np.lexsort(canon.T[::-1])]
    if (canon[1:] == canon[:-1]).all(axis=1).any():
        raise NonConforming("duplicate triangle")

    sides, side_tri, tri_sides = _side_table(triangles, nv)
    if geometric_check:
        _hanging_node_scan(vertices, triangles, sides)
    # Slivers: twice the area over the longest edge squared (the height onto
    # that edge over its length) at rounding level.  Tested after the scan,
    # so that a vertex hanging on a sliver's side is still named.
    d1, d2 = jac[:, :, 0], jac[:, :, 1]
    longest2 = np.max([np.sum(d * d, axis=1) for d in (d1, d2, d2 - d1)], axis=0)
    flat = ~(area2 > 1e-12 * longest2)
    if flat.any():
        e = int(np.flatnonzero(flat)[0])
        raise InvertedElement(f"triangle {e} is degenerate to rounding")
    # Duplicates: coordinates equal to 14 digits of the mesh's extent, so
    # that the test does not depend on the length scale.  Tested last: the
    # apex of a sliver, or a vertex hanging on a side, can be a near-duplicate
    # of a corner, and the messages above are the more specific ones.
    if geometric_check:
        low = vertices.min(axis=0, initial=np.inf)
        extent = float(np.max(vertices.max(axis=0, initial=-np.inf) - low))
        rel = (vertices - low) / (extent if extent > 0.0 else 1.0)
        _, dup_counts = np.unique(np.round(rel, 14), axis=0, return_counts=True)
        if dup_counts.max(initial=0) > 1:
            raise NonConforming("duplicate vertex coordinates")

    side_label = _side_labels(sides, side_tri[:, 1] < 0, nv, dirichlet, neumann)
    if not (side_label == DIRICHLET).any():
        raise EmptyDirichlet("no dirichlet sides: displacement boundary is empty")

    # the adjugate of jac over its determinant
    adj = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], axis=-1)
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        sides=sides,
        side_tri=side_tri,
        side_label=side_label,
        tri_sides=tri_sides,
        parent=None if parent is None else np.asarray(parent, dtype=np.int64),
        jac=jac,
        jac_inv=adj.reshape(-1, 2, 2) / area2[:, None, None],
        areas=0.5 * area2,
        centroids=pts.mean(axis=1),
    )
    mesh._finalize()
    mesh.traction_hosts = _traction_hosts(mesh)
    return mesh


def build_mesh(vertices, triangles, dirichlet, neumann) -> Mesh:
    """Validate and assemble a mesh from raw arrays.

    Parameters
    ----------
    vertices : (nv, 2) array of coordinates.
    triangles : (nt, 3) array of vertex indices, positively oriented.
    dirichlet, neumann : iterables of boundary vertex pairs ``(i, j)``.
        Together they must classify every boundary side exactly once.

    Each triangle is rotated cyclically so its refinement edge (the first
    two stored vertices) is its longest edge, ties broken by vertex ids.

    Raises
    ------
    ValueError, NonConforming, InvertedElement, EmptyDirichlet,
    IsolatedNeumannVertex
    """
    return _assemble(vertices, triangles, dirichlet, neumann, rotate=True)


# -- file I/O --------------------------------------------------------------


def write_mesh(mesh: Mesh, path):
    """Write a mesh in the plain-text exchange format.

    Header ``vertices N / triangles M / sides_dirichlet K / sides_neumann L``
    followed by coordinate lines ``x y`` (17 significant digits), triangle
    lines ``i j k``, and boundary side lines ``i j``.  Coordinates re-read
    bit-exactly; refinement lineage is not serialized.
    """
    d = mesh.sides[mesh.side_label == DIRICHLET]
    n = mesh.sides[mesh.side_label == NEUMANN]
    counts = (mesh.n_vertices, mesh.n_triangles, len(d), len(n))
    lines = [" / ".join(f"{name} {count}" for name, count in zip(_HEADER, counts))]
    lines += [f"{_FMT % x} {_FMT % y}" for x, y in mesh.vertices.tolist()]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
    lines += [f"{i} {j}" for i, j in d.tolist()]
    lines += [f"{i} {j}" for i, j in n.tolist()]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write mesh file {path}: {exc}") from exc


def read_mesh(path) -> Mesh:
    """Read a mesh written by :func:`write_mesh`.

    The stored vertex order of each triangle is preserved (the first two
    vertices remain the refinement edge); full validation is performed, and
    a file that cannot be read or holds no valid mesh raises IoError.
    """
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read mesh file {path}: {exc}") from exc
    if not raw:
        raise IoError(f"mesh file {path} is empty")
    try:
        fields = [f.split() for f in raw[0].split("/")]
        counts = {name: int(num) for name, num in fields}
        if len(fields) != len(_HEADER) or set(counts) != set(_HEADER):
            raise ValueError(f"header fields must be {', '.join(_HEADER)}, each once")
        nv, nt, nd, nn = (counts[name] for name in _HEADER)
        rows = raw[1:]
        if len(rows) != nv + nt + nd + nn:
            raise ValueError(
                f"expected {nv + nt + nd + nn} data lines, got {len(rows)}"
            )
        vertices = np.array(
            [[float(t) for t in r.split()] for r in rows[:nv]], dtype=np.float64
        ).reshape(nv, 2)
        triangles = np.array(
            [[int(t) for t in r.split()] for r in rows[nv : nv + nt]],
            dtype=np.int64,
        ).reshape(nt, 3)
        dirichlet = [
            tuple(int(t) for t in r.split()) for r in rows[nv + nt : nv + nt + nd]
        ]
        neumann = [tuple(int(t) for t in r.split()) for r in rows[nv + nt + nd :]]
        if not np.isfinite(vertices).all():
            raise ValueError("non-finite vertex coordinate")
        return _assemble(vertices, triangles, dirichlet, neumann)
    except (ValueError, KeyError, OverflowError) as exc:
        raise IoError(f"malformed mesh file {path}: {exc}") from exc
    except (
        NonConforming, InvertedElement, EmptyDirichlet, IsolatedNeumannVertex
    ) as exc:
        raise IoError(f"invalid mesh in file {path}: {exc}") from exc


# -- refinement ------------------------------------------------------------


def refine(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked elements; close recursively to stay conforming.

    Newest-vertex bisection: a triangle ``(a, b, c)`` with refinement edge
    ``(a, b)`` splits at the edge midpoint ``m`` into ``(c, a, m)`` and
    ``(b, c, m)``, so each child's refinement edge is an unsplit edge of
    the parent.  An edge is only split when every triangle sharing it has
    it as its refinement edge, which the recursion establishes first.

    The closure works on flat neighbour lists: for local edge ``j`` of
    triangle ``t`` (edge 0 is ``(a, b)``, 1 is ``(b, c)``, 2 is ``(c, a)``),
    ``nbr[3t + j]`` is the triangle across it (-1 on the boundary) and
    ``lab[3t + j]`` its boundary label.  New vertices and triangles are
    numbered in traversal order: the marked roots ascending, each split
    appending the midpoint, then the two children of the triangle on the
    stack, then those of its partner across the refinement edge.

    Returns a new mesh whose ``parent`` array maps each element to the
    element of ``mesh`` containing it.  ``refine(mesh, [])`` returns an
    equal mesh.  Raises ProblemError when the stored refinement edges admit
    no closure (for instance when they form a cycle).
    """
    marked = sorted({int(m) for m in np.asarray(marked, dtype=np.int64).ravel()})
    if marked and (marked[0] < 0 or marked[-1] >= mesh.n_triangles):
        raise ValueError("marked element index out of range")

    # the side of local edge j is the side opposite local vertex (j + 2) % 3
    edge_side = mesh.tri_sides[:, [2, 0, 1]]
    pair = mesh.side_tri[edge_side]
    own = np.arange(mesh.n_triangles)[:, None]
    verts = mesh.vertices.tolist()
    tri = mesh.triangles.ravel().tolist()
    nbr = np.where(pair[..., 0] == own, pair[..., 1], pair[..., 0]).ravel().tolist()
    lab = mesh.side_label[edge_side].ravel().tolist()
    alive = [True] * mesh.n_triangles
    ancestor = list(range(mesh.n_triangles))

    def relink(q, old, new):
        if q >= 0:
            nbr[3 * q + nbr[3 * q : 3 * q + 3].index(old)] = new

    def halve(t, m):
        """Replace ``t`` by its children ``(c, a, m)`` and ``(b, c, m)``;
        return the first child's id.  The halves of edge 0 stay unlinked."""
        a, b, c = tri[3 * t : 3 * t + 3]
        _, n1, n2 = nbr[3 * t : 3 * t + 3]
        l0, l1, l2 = lab[3 * t : 3 * t + 3]
        left = len(alive)
        tri.extend((c, a, m, b, c, m))
        nbr.extend((n2, -1, left + 1, n1, left, -1))
        lab.extend((l2, l0, INTERIOR, l1, INTERIOR, l0))
        relink(n2, t, left)
        relink(n1, t, left + 1)
        alive[t] = False
        alive.extend((True, True))
        ancestor.extend((ancestor[t], ancestor[t]))
        return left

    def split(t, p):
        """Bisect ``t`` and its partner ``p`` (-1 on the boundary) at the
        midpoint of their common refinement edge."""
        (xa, ya), (xb, yb) = verts[tri[3 * t]], verts[tri[3 * t + 1]]
        m = len(verts)
        verts.append(((xa + xb) / 2.0, (ya + yb) / 2.0))
        left = halve(t, m)
        if p >= 0:
            # positive orientation: p runs from b to a, so its first child
            # holds the half (b, m) and its second the half (m, a)
            other = halve(p, m)
            nbr[3 * left + 1], nbr[3 * left + 5] = other + 1, other
            nbr[3 * other + 1], nbr[3 * other + 5] = left + 1, left

    budget = 64 * (mesh.n_triangles + len(marked)) + 4096
    for root in marked:
        stack = [root]
        while stack:
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            p = nbr[3 * t]
            if p >= 0 and nbr[3 * p] != t:
                stack.append(p)
            else:
                split(t, p)
                stack.pop()
            budget -= 1
            if budget < 0:
                raise ProblemError(
                    "bisection closure did not terminate; "
                    "inconsistent refinement-edge labels"
                )

    keep = np.array(alive)
    triangles = np.array(tri, dtype=np.int64).reshape(-1, 3)[keep]
    labels = np.array(lab, dtype=np.int64).reshape(-1, 3)[keep]
    edges = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2)
    return _assemble(
        np.array(verts, dtype=np.float64),
        triangles,
        edges[labels == DIRICHLET],
        edges[labels == NEUMANN],
        parent=np.array(ancestor, dtype=np.int64)[keep],
        geometric_check=False,
    )


def uniform_refine(mesh: Mesh, rounds: int = 2) -> Mesh:
    """Bisect every element `rounds` times (two rounds halve h on meshes of
    right triangles).  The result's ``parent`` maps each element to the
    element of ``mesh`` containing it."""
    lineage = np.arange(mesh.n_triangles)
    for _ in range(rounds):
        mesh = refine(mesh, np.arange(mesh.n_triangles))
        lineage = lineage[mesh.parent]
        mesh.parent = lineage
    return mesh


# -- vertex patches ---------------------------------------------------------


@dataclass
class Patches:
    """The supports of a partition of unity's weights, stacked in vertex order.

    Patch i carries the weight of ``vertex[i]``, the sum of the hats of the
    vertices v with ``owner[v] == vertex[i]``.  Its (patch, element) pairs
    are ``offsets[i]`` to ``offsets[i + 1]`` of ``elements``, ascending, and
    of ``weights``, the nodal values of the weight, which is affine on each
    triangle.  ``dirichlet_touching[i]`` is true when some side of the
    closed patch lies on the displacement boundary.
    """

    vertex: np.ndarray              # (P,) ascending
    offsets: np.ndarray             # (P + 1,)
    elements: np.ndarray            # (n_pairs,)
    weights: np.ndarray             # (n_pairs, 3)
    owner: np.ndarray               # (nv,)
    dirichlet_touching: np.ndarray  # (P,) bool

    def __len__(self) -> int:
        return len(self.vertex)


def _patches(mesh: Mesh, owner: np.ndarray) -> Patches:
    """The patches of the weights that ``owner`` defines, in one pass: the
    keys ``owner * nt + element`` of the triangles' vertices sort the
    (patch, element) pairs by patch vertex, then by element."""
    nt = mesh.n_triangles
    keys = np.unique(owner[mesh.triangles] * nt + np.arange(nt)[:, None])
    pair_vertex, elements = keys // nt, keys % nt
    vertex, first = np.unique(pair_vertex, return_index=True)
    on_d = (mesh.side_label[mesh.tri_sides[elements]] == DIRICHLET).any(axis=1)
    return Patches(
        vertex=vertex,
        offsets=np.append(first, len(keys)),
        elements=elements,
        weights=(owner[mesh.triangles[elements]] == pair_vertex[:, None]).astype(np.float64),
        owner=owner,
        dirichlet_touching=np.logical_or.reduceat(on_d, first),
    )


def _traction_hosts(mesh: Mesh) -> np.ndarray:
    """The ``owner`` of :func:`modified_patches`: each vertex, or the
    host of each traction-only vertex; raises IsolatedNeumannVertex when a
    traction-only vertex has no eligible neighbour to host it."""
    _, on_n_only = mesh.vertex_flags()
    nv = mesh.n_vertices
    ends = mesh.sides[on_n_only[mesh.sides[:, 0]] != on_n_only[mesh.sides[:, 1]]]
    traction = np.where(on_n_only[ends[:, 0]], ends[:, 0], ends[:, 1])
    host = np.full(nv, nv)
    np.minimum.at(host, traction, ends[:, 0] + ends[:, 1] - traction)
    bad = np.flatnonzero(on_n_only & (host == nv))
    if bad.size:
        raise IsolatedNeumannVertex(
            f"traction-boundary vertex {int(bad[0])} has no edge to an"
            " interior or displacement-boundary vertex"
        )
    return np.where(on_n_only, host, np.arange(nv))


def standard_patches(mesh: Mesh) -> Patches:
    """One hat-function patch per mesh vertex; the weights sum to one."""
    return _patches(mesh, np.arange(mesh.n_vertices))


def modified_patches(mesh: Mesh) -> Patches:
    """Patches for the traction-adjusted partition of unity.

    Vertices lying on the traction boundary only (no displacement side)
    carry no patch of their own: each is assigned to the lowest-numbered
    vertex it shares an edge with that is eligible (interior or touching
    the displacement boundary), and its hat weight is folded into that
    vertex's weight.  The extended weight equals one along the connecting
    edge, and the patch is the union of the supports.

    Raises
    ------
    IsolatedNeumannVertex
        If some traction vertex has no eligible neighbour.
    """
    return _patches(mesh, mesh.traction_hosts)


# -- quality -----------------------------------------------------------------


def angles(mesh: Mesh) -> np.ndarray:
    """Interior angles per triangle in radians, shape (nt, 3)."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty((mesh.n_triangles, 3))
    for j in range(3):
        u = p[:, (j + 1) % 3] - p[:, j]
        w = p[:, (j + 2) % 3] - p[:, j]
        cosang = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
        )
        out[:, j] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return out
