"""Mesh construction, refinement, file IO, and vertex-patch tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLIC_MESH_TEXT, min_angle_deg, random_points_in_elements
from oracles import (
    absorbed,
    patch_pairs,
    reference_patches,
    reference_refine,
    reference_rotate_to_longest_edge,
    vertex_triangles,
)
from stresseq import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    BrokenField,
    Discretization,
    EmptyDirichlet,
    InvertedElement,
    IoError,
    IsolatedNeumannVertex,
    Mesh,
    NonConforming,
    Patches,
    ProblemError,
    build_mesh,
    compose_ancestry,
    cook,
    cook_mesh,
    lshape_mesh,
    modified_patches,
    read_mesh,
    refine,
    square_lshape,
    standard_patches,
    uniform_refine,
    unit_square_mesh,
    write_mesh,
)
from stresseq.equilibration import side_jumps
from stresseq.spaces import build_stress_tables
import stresseq.mesh
from stresseq.mesh import _hanging_node_scan, _rotate_to_longest_edge

SQUARE_V = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_T = [(0, 1, 2), (0, 2, 3)]
SQUARE_D = [(0, 3)]
SQUARE_N = [(0, 1), (1, 2), (2, 3)]


def two_triangle_square() -> Mesh:
    return build_mesh(SQUARE_V, SQUARE_T, SQUARE_D, SQUARE_N)


# -- construction -----------------------------------------------------------


def test_two_triangle_square_side_counts():
    mesh = two_triangle_square()
    assert mesh.n_sides == 5
    assert (mesh.side_label == INTERIOR).sum() == 1
    assert (mesh.side_label == DIRICHLET).sum() == 1
    assert (mesh.side_label == NEUMANN).sum() == 3
    assert np.all(mesh.areas > 0)


def test_cook_mesh_valid():
    mesh = cook_mesh()
    assert mesh.n_triangles == 32
    corners = [(0, 0), (0.48, 0.44), (0.48, 0.6), (0, 0.44)]
    for c in corners:
        dist = np.linalg.norm(mesh.vertices - np.array(c), axis=1)
        assert dist.min() < 1e-12
    # left segment x=0 is the clamped edge
    d = mesh.sides[mesh.side_label == DIRICHLET]
    assert np.all(np.abs(mesh.vertices[d.ravel()][:, 0]) < 1e-12)
    lengths = mesh.side_length[mesh.side_label == DIRICHLET]
    assert lengths.sum() == pytest.approx(0.44, abs=1e-12)


def test_isolated_neumann_vertex():
    # two triangles sharing only one vertex; the top triangle is entirely
    # traction boundary, so its outer vertices have no edge to any vertex
    # off the traction boundary
    v = [(0, 0), (1, 0), (0.5, 1), (1, 2), (0, 2)]
    t = [(0, 1, 2), (2, 3, 4)]
    d = [(0, 1)]
    n = [(1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    with pytest.raises(IsolatedNeumannVertex):
        build_mesh(v, t, d, n)


def test_shared_vertex_with_reachable_host_is_admissible():
    # same bowtie, but the shared vertex touches the clamped edge, so the
    # top triangle's vertices fold into it
    v = [(0, 0), (1, 0), (0.5, 1), (1, 2), (0, 2)]
    t = [(0, 1, 2), (2, 3, 4)]
    d = [(0, 1), (1, 2), (2, 0)]
    n = [(2, 3), (3, 4), (4, 2)]
    mesh = build_mesh(v, t, d, n)
    patches = modified_patches(mesh)
    assert patches.vertex.tolist() == [0, 1, 2]


def test_nonconforming_triple_side():
    v = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0.5)]
    t = [(0, 1, 2), (1, 3, 2), (0, 2, 4)]
    # side (0, 2) would be shared by three triangles
    t.append((0, 3, 2))
    with pytest.raises(NonConforming):
        build_mesh(v, t, [(0, 1)], [])


def test_nonconforming_hanging_vertex():
    v = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    t = [(0, 1, 2), (1, 3, 4)]  # vertex 4 hangs on side (1, 2)
    with pytest.raises(NonConforming, match=r"^vertex 4 hangs on side \(1, 2\)$"):
        build_mesh(v, t, [(0, 1)], [(0, 2), (1, 3), (3, 4), (4, 2)])


def test_nonconforming_hanging_vertex_on_a_very_long_side():
    """A side 1e9 times longer than the bucket size of the scan: the scan
    ends, and still finds the vertex hanging on that side."""
    v = [(0, 0), (1e15, 0), (0, 1), (5e14, 0), (5e14 - 1e6, -1e6), (5e14 + 1e6, -1e6)]
    t = [(0, 1, 2), (3, 4, 5)]  # vertex 3 hangs on side (0, 1)
    n = [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(NonConforming, match="vertex 3 hangs on side"):
        build_mesh(v, t, [(0, 2)], n)


def _loop_hanging_node_scan(vertices, triangles, sides):
    """The per-side loop that ``_hanging_node_scan`` vectorises: the same
    buckets, candidates, candidate order and on-segment test."""
    used = np.zeros(vertices.shape[0], bool)
    used[triangles.ravel()] = True
    a = vertices[sides[:, 0]]
    b = vertices[sides[:, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    cell = max(np.median(lengths), 1e-300)

    def bucket(x):
        return np.clip(np.floor(x / cell), -(2.0**62), 2.0**62).astype(np.int64)

    buckets = {}
    keys = bucket(vertices)
    for vid in np.flatnonzero(used):
        buckets.setdefault((keys[vid, 0], keys[vid, 1]), []).append(vid)
    side_lo = bucket(np.minimum(a, b)) - 1
    side_hi = bucket(np.maximum(a, b)) + 1
    for s in range(len(sides)):
        lo, hi = side_lo[s].tolist(), side_hi[s].tolist()
        near = sorted(
            key
            for key in buckets
            if lo[0] <= key[0] <= hi[0] and lo[1] <= key[1] <= hi[1]
        )
        cand = np.array([vid for key in near for vid in buckets[key]], dtype=int)
        cand = cand[(cand != sides[s, 0]) & (cand != sides[s, 1])]
        p = vertices[cand]
        ab = b[s] - a[s]
        t = (p - a[s]) @ ab / (lengths[s] ** 2)
        dist = np.linalg.norm(p - (a[s] + t[:, None] * ab), axis=1)
        onseg = (dist <= 1e-10 * lengths[s]) & (t > 1e-12) & (t < 1 - 1e-12)
        if onseg.any():
            vid = int(cand[np.flatnonzero(onseg)[0]])
            raise NonConforming(f"vertex {vid} hangs on side {tuple(sides[s].tolist())}")


def _scan_outcome(scan, vertices, triangles, sides):
    try:
        scan(vertices, triangles, sides)
    except NonConforming as exc:
        return str(exc)
    return None


def _sides_of(triangles):
    local = triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    return np.unique(np.sort(local, axis=1), axis=0)


def _scans_agree(vertices, triangles):
    """Outcome of the scan, after checking that the loop gives the same."""
    sides = _sides_of(triangles)
    got = _scan_outcome(_hanging_node_scan, vertices, triangles, sides)
    assert got == _scan_outcome(_loop_hanging_node_scan, vertices, triangles, sides)
    return got


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tri=st.integers(1, 60),
    grid=st.sampled_from([3, 5, 9]),
    scale=st.sampled_from([1.0, 1e-7, 3e5]),
)
def test_hanging_node_scan_matches_the_loop(seed, n_tri, grid, scale):
    """Random triangles over the points of a small lattice, some of them
    shifted off it, so that many vertices lie on other triangles' sides."""
    rng = np.random.default_rng(seed)
    lattice = np.stack(np.divmod(rng.permutation(grid * grid), grid), axis=1)
    vertices = scale * lattice.astype(float)
    vertices[:, 0] += scale * 1e-3 * rng.integers(0, 2, size=len(vertices))
    triangles = np.array(
        [rng.choice(len(vertices), 3, replace=False) for _ in range(n_tri)]
    )
    _scans_agree(vertices, triangles)


def test_hanging_node_scan_does_not_depend_on_its_batches(monkeypatch):
    """Batches of one, a few or all stacked candidates name the same first
    hanging vertex, on meshes with and without one."""
    coarse = cook_mesh()
    fine = refine(coarse, [3, 17])
    meshes = [fine.triangles] + [
        np.vstack([fine.triangles[fine.parent != e], coarse.triangles[e]])
        for e in np.flatnonzero(np.bincount(fine.parent) > 1)
    ]
    outcomes = []
    for size in (1, 5, 1 << 15):
        monkeypatch.setattr(stresseq.mesh, "_SCAN_BATCH", size)
        outcomes.append(
            [_scan_outcome(_hanging_node_scan, fine.vertices, t, _sides_of(t)) for t in meshes]
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] is None and any(o is not None for o in outcomes[0])


def test_hanging_node_scan_matches_the_loop_on_refined_meshes():
    """Putting a bisected triangle of a refined Cook mesh back in place of
    its children leaves a midpoint hanging on it when that midpoint is
    shared with a neighbour."""
    coarse = cook_mesh()
    fine = refine(coarse, [3, 17])
    assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)
    assert _scans_agree(fine.vertices, fine.triangles) is None
    reports = [
        _scans_agree(
            fine.vertices,
            np.vstack([fine.triangles[fine.parent != e], coarse.triangles[e]]),
        )
        for e in np.flatnonzero(np.bincount(fine.parent) > 1)
    ]
    assert sum(r is not None for r in reports) >= 2


def test_nonconforming_boundary_classification():
    with pytest.raises(NonConforming, match=r"^dirichlet side \(0, 2\) is not on the boundary$"):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3), (0, 2)], SQUARE_N)
    with pytest.raises(NonConforming, match=r"^boundary side \(2, 3\) is unclassified$"):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3)], [(0, 1), (1, 2)])
    with pytest.raises(NonConforming, match=r"^side \(0, 1\) classified twice$"):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3), (0, 1)], SQUARE_N)


@pytest.mark.parametrize(
    "dirichlet, neumann, message",
    [
        ([(3, 1)], SQUARE_N, "dirichlet side (1, 3) is not a mesh side"),
        # 0 * 4 + 6 would be the packed key of side (1, 2) of the 4 vertices
        (SQUARE_D, [(0, 6)] + SQUARE_N, "neumann side (0, 6) is not a mesh side"),
        (SQUARE_D, [(-1, 0)] + SQUARE_N, "neumann side (-1, 0) is not a mesh side"),
        (SQUARE_D, SQUARE_N + [(2, 0)], "neumann side (0, 2) is not on the boundary"),
        (SQUARE_D, SQUARE_N + [(3, 2)], "side (2, 3) classified twice"),
        # the first offending pair is named, in order, dirichlet first
        ([(0, 3), (1, 3), (0, 2)], [(0, 3)], "dirichlet side (1, 3) is not a mesh side"),
        ([(0, 3), (0, 2), (1, 3)], [(0, 3)], "dirichlet side (0, 2) is not on the boundary"),
        (SQUARE_D + [(3, 0)], [(0, 2)], "side (0, 3) classified twice"),
        ([(1, 2)], [(0, 1)], "boundary side (0, 3) is unclassified"),
    ],
)
def test_boundary_classification_names_the_first_offending_pair(
    dirichlet, neumann, message
):
    with pytest.raises(NonConforming, match=f"^{re.escape(message)}$"):
        build_mesh(SQUARE_V, SQUARE_T, dirichlet, neumann)


def test_duplicate_triangle_is_rejected():
    """The same triangle stored twice, the second time rotated."""
    with pytest.raises(NonConforming, match="^duplicate triangle$"):
        build_mesh(SQUARE_V, SQUARE_T + [(1, 2, 0)], SQUARE_D, SQUARE_N)


def test_read_mesh_names_the_misclassified_side(tmp_path):
    path = tmp_path / "square.txt"
    write_mesh(two_triangle_square(), path)
    text = path.read_text().replace("\n0 3\n", "\n0 2\n")
    path.write_text(text)
    with pytest.raises(
        IoError, match=r"invalid mesh in file .*: dirichlet side \(0, 2\) is not on the boundary$"
    ):
        read_mesh(path)


def test_inverted_element():
    with pytest.raises(InvertedElement):
        build_mesh(SQUARE_V, [(0, 2, 1), (0, 2, 3)], SQUARE_D, SQUARE_N)


@pytest.mark.parametrize("scale", [1e-15, 1e-8, 1.0, 1e5, 1e10])
def test_sliver_triangle_is_rejected_at_any_scale(scale):
    """Height over longest edge 1e-13: positive area, but degenerate to
    rounding.  The apex sits too close to a corner to hang on the long
    side, so the hanging-vertex scan lets it through."""
    d = [(0, 1)]
    n = [(1, 2), (2, 0)]
    with pytest.raises(InvertedElement, match="degenerate to rounding"):
        build_mesh(scale * np.array([(0, 0), (1, 0), (1e-13, 1e-13)]), [(0, 1, 2)], d, n)
    build_mesh(scale * np.array([(0, 0), (1, 0), (1e-3, 1e-3)]), [(0, 1, 2)], d, n)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e10])
def test_duplicate_vertex_is_rejected_at_any_scale(scale):
    """A square cracked along its diagonal: vertices 2 and 4 coincide."""
    v = scale * np.array([(0, 0), (1, 0), (1, 1), (0, 1), (1, 1)])
    n = [(1, 2), (0, 2), (0, 4), (4, 3), (0, 3)]
    with pytest.raises(NonConforming, match="duplicate vertex coordinates"):
        build_mesh(v, [(0, 1, 2), (0, 4, 3)], [(0, 1)], n)


def test_corner_graded_refinement_keeps_its_shape():
    """Forty rounds of bisection into the reentrant corner (h down to about
    1e-6) keep every triangle far from the sliver test's threshold."""
    mesh = lshape_mesh()
    for _ in range(40):
        at_corner = (np.linalg.norm(mesh.vertices[mesh.triangles], axis=2) == 0).any(axis=1)
        mesh = refine(mesh, np.flatnonzero(at_corner))
    assert mesh.h.min() < 2e-6
    p = mesh.vertices[mesh.triangles]
    edges = p - np.roll(p, 1, axis=1)
    ratio = 2 * mesh.areas / np.max(np.sum(edges**2, axis=2), axis=1)
    assert ratio.min() > 0.1


def test_empty_dirichlet():
    with pytest.raises(EmptyDirichlet):
        build_mesh(SQUARE_V, SQUARE_T, [], SQUARE_D + SQUARE_N)


@pytest.mark.parametrize(
    "triangles, message",
    [
        ([(0, 1, 5)], "triangle vertex index out of range"),
        ([(0, 1, 3, 2), (0, 3, 2, 1)], r"triangles must be an \(nt, 3\) array"),
    ],
    ids=["index-out-of-range", "four-columns"],
)
def test_build_mesh_checks_the_arrays_before_rotating(triangles, message):
    """The arrays are checked before the refinement edges are chosen, so an
    index past the vertices is no IndexError and a fourth column is not cut
    off."""
    sides = [(0, 1), (1, 3), (3, 2), (2, 0)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_mesh([(0, 0), (1, 0), (0, 1), (1, 1)], triangles, sides, [])


def test_build_mesh_rejects_a_vertex_in_no_triangle():
    """A vertex that no triangle holds would carry displacement dofs that no
    element couples, and a singular system; the error names it."""
    sides = [(0, 1), (1, 3), (3, 2), (2, 0)]
    vertices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]
    with pytest.raises(ValueError, match="^vertex 4 lies in no triangle$"):
        build_mesh(vertices, [(0, 1, 3), (0, 3, 2)], sides, [])


# -- refinement -------------------------------------------------------------


def assert_conforming(mesh: Mesh):
    """Brute-force conformity: side incidences and no hanging vertices."""
    pairs = {}
    for e, tri in enumerate(mesh.triangles):
        for j in range(3):
            key = tuple(sorted((int(tri[(j + 1) % 3]), int(tri[(j + 2) % 3]))))
            pairs.setdefault(key, []).append(e)
    for key, owners in pairs.items():
        assert len(owners) <= 2
    # geometric hanging-node scan
    v = mesh.vertices
    for (a, b), owners in pairs.items():
        pa, pb = v[a], v[b]
        d = pb - pa
        L2 = d @ d
        t = ((v - pa) @ d) / L2
        dist = np.abs(d[0] * (v - pa)[:, 1] - d[1] * (v - pa)[:, 0]) / np.sqrt(L2)
        on = (dist < 1e-12) & (t > 1e-9) & (t < 1 - 1e-9)
        on[[a, b]] = False
        assert not on.any(), f"vertex hangs on side {(a, b)}"
    # boundary sides of the mesh object agree with incidence counts
    boundary = {k for k, o in pairs.items() if len(o) == 1}
    stored = {tuple(s) for s in mesh.sides[mesh.side_label != INTERIOR]}
    assert boundary == stored


def test_refine_empty_marked_is_identity():
    mesh = two_triangle_square()
    out = refine(mesh, [])
    assert out == mesh
    assert np.array_equal(out.parent, np.arange(2))


def test_refine_single_marked_conforming():
    mesh = two_triangle_square()
    out = refine(mesh, [0])
    assert out.n_triangles >= 4
    assert_conforming(out)
    # genealogy: children partition their parent's area
    for parent in range(mesh.n_triangles):
        kids = np.flatnonzero(out.parent == parent)
        assert kids.size >= 1
        assert out.areas[kids].sum() == pytest.approx(mesh.areas[parent])
    # marked element was actually subdivided
    assert (out.parent == 0).sum() >= 2


def test_refine_all_cook():
    mesh = cook_mesh()
    out = refine(mesh, np.arange(32))
    assert out.n_triangles >= 64
    assert_conforming(out)
    # the clamped edge keeps its total length across refinement
    for m in (mesh, out):
        lengths = m.side_length[m.side_label == DIRICHLET]
        assert lengths.sum() == pytest.approx(0.44)


def test_min_angle_constant_under_uniform_refinement():
    mesh = cook_mesh()
    angles = [min_angle_deg(mesh)]
    cur = mesh
    for _ in range(6):
        cur = refine(cur, np.arange(cur.n_triangles))
        angles.append(min_angle_deg(cur))
    last = angles[-4:]
    assert max(last) - min(last) < 1e-9
    assert min(angles) > 5.0


def test_uniform_refine_parent_maps_to_input_mesh():
    mesh = cook_mesh()
    fine = uniform_refine(mesh, 2)
    once = refine(mesh, np.arange(mesh.n_triangles))
    twice = refine(once, np.arange(once.n_triangles))
    assert fine == twice
    assert np.array_equal(compose_ancestry([mesh, fine]), fine.parent)
    assert np.array_equal(fine.parent, compose_ancestry([mesh, once, twice]))
    # every fine centroid lies inside its ancestor in the input mesh
    c = fine.vertices[fine.triangles].mean(axis=1)
    p = mesh.vertices[mesh.triangles[fine.parent]]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    lam = np.linalg.solve(jac, (c - p[:, 0])[..., None])[..., 0]
    assert lam.min() > 0.0 and lam.sum(axis=1).max() < 1.0
    assert uniform_refine(mesh, 0) is mesh


def test_refinement_edge_is_first_two_vertices():
    mesh = cook_mesh()
    out = refine(mesh, [5])
    kids = np.flatnonzero(out.parent == 5)
    tri = mesh.triangles[5]
    midpoint = 0.5 * (mesh.vertices[tri[0]] + mesh.vertices[tri[1]])
    kid_verts = out.vertices[out.triangles[kids].ravel()]
    dist = np.linalg.norm(kid_verts - midpoint, axis=1)
    assert dist.min() < 1e-12


def assert_bitwise_equal(mesh: Mesh, other: Mesh):
    assert mesh.vertices.tobytes() == other.vertices.tobytes()
    for name in ("triangles", "parent", "sides", "side_tri", "side_label", "tri_sides"):
        a, b = getattr(mesh, name), getattr(other, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_rotation_to_longest_edge_matches_the_three_pass_oracle():
    """Vertices on a 3 x 3 integer grid, so that many triangles have two or
    three edges of one length and the vertex pairs break the tie: the
    rotations are bitwise those of the three-pass loop."""
    rng = np.random.default_rng(18)
    grid = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), axis=-1).reshape(-1, 2)
    tied = 0
    for _ in range(200):
        vertices = grid[rng.permutation(len(grid))] * rng.choice([1.0, 0.1, 3.7])
        triangles = np.array([rng.choice(len(grid), 3, replace=False) for _ in range(40)])
        rotated = _rotate_to_longest_edge(vertices, triangles)
        assert np.array_equal(rotated, reference_rotate_to_longest_edge(vertices, triangles))
        p = vertices[rotated]
        lens = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)
        assert (lens[:, 0] == lens.max(axis=1)).all()
        tied += int(((lens == lens.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert tied > 500


@pytest.mark.parametrize(
    "make", [cook_mesh, lshape_mesh, lambda: unit_square_mesh(4)],
    ids=["cook", "lshape", "square4"],
)
def test_refine_matches_the_dict_oracle(make):
    """Random marked sets of 3-60 % of the elements, 12 refinements in a
    row: the neighbour-list closure numbers vertices and triangles as the
    dict-based one does, and gives the same parents, sides and labels."""
    rng = np.random.default_rng(15)
    mesh = make()
    for _ in range(12):
        n = max(1, int(rng.uniform(0.03, 0.6) * mesh.n_triangles))
        marked = rng.choice(mesh.n_triangles, n, replace=False)
        fine = refine(mesh, marked)
        assert_bitwise_equal(fine, reference_refine(mesh, marked))
        mesh = fine
    assert mesh.n_triangles > 20 * make().n_triangles


def test_uniform_refine_matches_the_dict_oracle_on_cook_large(tmp_path):
    """The 7,641-triangle mesh of seven uniform rounds of the Cook mesh,
    and its mesh file, byte for byte."""
    mesh = reference = cook().mesh
    lineage = np.arange(mesh.n_triangles)
    for _ in range(7):
        reference = reference_refine(reference, np.arange(reference.n_triangles))
        lineage = lineage[reference.parent]
    reference.parent = lineage
    fine = uniform_refine(mesh, 7)
    assert fine.n_triangles == 7641
    assert_bitwise_equal(fine, reference)
    write_mesh(fine, tmp_path / "fine.txt")
    write_mesh(reference, tmp_path / "reference.txt")
    assert (tmp_path / "fine.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_cyclic_refinement_edges_admit_no_closure(tmp_path):
    """The closure runs out of its budget, as the dict-based one does."""
    path = tmp_path / "cyclic.txt"
    path.write_text(CYCLIC_MESH_TEXT)
    mesh = read_mesh(path)
    message = (
        "^bisection closure did not terminate; inconsistent refinement-edge labels$"
    )
    with pytest.raises(ProblemError, match=message):
        refine(mesh, [0])
    with pytest.raises(ProblemError, match=message):
        reference_refine(mesh, [0])
    assert refine(mesh, []) == mesh


# -- file round-trip ----------------------------------------------------------


def test_mesh_io_roundtrip(tmp_path):
    mesh = refine(cook_mesh(), [0, 3, 7])
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.side_label, mesh.side_label)
    first = path.read_bytes()
    write_mesh(back, path)
    assert path.read_bytes() == first


def test_read_mesh_errors(tmp_path):
    with pytest.raises(IoError):
        read_mesh(tmp_path / "absent.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(IoError):
        read_mesh(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("vertices 1 / triangles 0 / sides_dirichlet 0 / sides_neumann 0\nnot numbers\n")
    with pytest.raises(IoError):
        read_mesh(bad)


def test_read_mesh_takes_the_header_fields_in_any_order(tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(cook_mesh(), path)
    header, body = path.read_text().split("\n", 1)
    path.write_text(" / ".join(reversed(header.split(" / "))) + "\n" + body)
    assert read_mesh(path) == cook_mesh()


# -- vertex patches -----------------------------------------------------------


def fixed_diagonal_grid():
    """2x2 grid of squares, each split along the same diagonal."""
    v = [(x / 2, y / 2) for y in range(3) for x in range(3)]
    t = []
    for j in range(2):
        for i in range(2):
            v00 = j * 3 + i
            v10, v01, v11 = v00 + 1, v00 + 3, v00 + 4
            t += [(v00, v10, v11), (v00, v11, v01)]
    clamped = [(0, 3), (3, 6), (2, 5), (5, 8)]
    rest = [(0, 1), (1, 2), (8, 7), (7, 6)]
    return build_mesh(v, t, clamped, rest)


def test_standard_patch_sizes():
    mesh = fixed_diagonal_grid()
    patches = standard_patches(mesh)
    assert len(patches) == mesh.n_vertices
    sizes = dict(zip(patches.vertex.tolist(), np.diff(patches.offsets).tolist()))
    assert sizes[4] == 6  # interior vertex of the structured grid
    assert sizes[2] == 1  # corner the diagonals avoid
    assert sizes[6] == 1


def test_each_element_in_three_standard_patches():
    for mesh in (cook_mesh(), fixed_diagonal_grid()):
        count = np.bincount(standard_patches(mesh).elements, minlength=mesh.n_triangles)
        assert np.all(count == 3)


def randomly_refined(mesh: Mesh, seed: int, rounds: int = 6) -> Mesh:
    """``mesh`` refined ``rounds`` times on random marked sets of 3-60 %
    of the elements."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        n = max(1, int(rng.uniform(0.03, 0.6) * mesh.n_triangles))
        mesh = refine(mesh, rng.choice(mesh.n_triangles, n, replace=False))
    return mesh


@pytest.mark.parametrize("make", [cook, square_lshape], ids=["cook", "square-lshape"])
@pytest.mark.parametrize("seed", [3, 11])
def test_is_minus_is_where_the_side_normal_points_out(make, seed):
    """``Mesh.is_minus`` holds exactly where a side's global normal points
    out of the element: n . (side midpoint - centroid) > 0."""
    mesh = randomly_refined(make().mesh, seed)
    sides = mesh.tri_sides
    mid = mesh.vertices[mesh.sides[sides]].mean(axis=2)              # (nt, 3, 2)
    outward = np.einsum("ejc,ejc->ej", mesh.side_normal[sides], mid - mesh.centroids[:, None])
    assert np.array_equal(mesh.is_minus, outward > 0)
    assert mesh.is_minus.any() and not mesh.is_minus.all()


def test_element_geometry_matches_the_per_element_formulas(tmp_path):
    """The Jacobian, its inverse, twice the area and the centroid that the
    mesh stores equal, bit for bit, the formulas evaluated one element at a
    time, also on a mesh re-read from its file."""
    mesh = randomly_refined(cook_mesh(), seed=7)
    write_mesh(mesh, tmp_path / "mesh.txt")
    for m in (mesh, read_mesh(tmp_path / "mesh.txt")):
        for e, (p0, p1, p2) in enumerate(m.vertices[m.triangles]):
            (a, c), (b, d) = p1 - p0, p2 - p0
            det = a * d - c * b
            assert m.jac[e].tolist() == [[a, b], [c, d]]
            assert m.jac_inv[e].tolist() == [[d / det, -b / det], [-c / det, a / det]]
            assert 2.0 * m.areas[e] == det
            assert m.centroids[e].tolist() == ((p0 + p1 + p2) / 3.0).tolist()


@pytest.mark.parametrize(
    "mesh",
    [
        cook_mesh(),
        uniform_refine(cook_mesh(), 2),
        lshape_mesh(),
        unit_square_mesh(4),
        randomly_refined(cook_mesh(), 16),
        randomly_refined(lshape_mesh(), 17),
        randomly_refined(fixed_diagonal_grid(), 18),
    ],
    ids=["cook", "cook-refined", "lshape", "square", "cook-random", "lshape-random", "grid-random"],
)
def test_patches_match_the_per_vertex_reference(mesh):
    """The patch records built in one pass equal the per-group construction,
    field by field and dtype by dtype."""
    for build, modified in ((standard_patches, False), (modified_patches, True)):
        patches, ref = build(mesh), reference_patches(mesh, modified)
        for field in dataclasses.fields(Patches):
            a, b = getattr(patches, field.name), getattr(ref, field.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (build.__name__, field.name)


def weight_sums(mesh: Mesh, patches: Patches, elems, x) -> np.ndarray:
    """Sum of all patch weights at the points ``x`` in the elements
    ``elems``."""
    total = np.zeros(len(x))
    for i in range(len(patches)):
        pairs = patch_pairs(patches, i)
        pos = {int(e): j for j, e in enumerate(patches.elements[pairs])}
        for q in range(len(x)):
            j = pos.get(int(elems[q]))
            if j is None:
                continue
            tri = mesh.triangles[elems[q]]
            pts = mesh.vertices[tri]
            T = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
            lam = np.linalg.solve(T, x[q] - pts[0])
            bary = np.array([1 - lam.sum(), lam[0], lam[1]])
            total[q] += float(patches.weights[pairs][j] @ bary)
    return total


def test_partition_of_unity_standard(rng):
    mesh = cook_mesh()
    elems, x = random_points_in_elements(mesh, 100, rng)
    total = weight_sums(mesh, standard_patches(mesh), elems, x)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_partition_of_unity_modified(rng):
    mesh = cook_mesh()
    patches = modified_patches(mesh)
    on_d, n_only = mesh.vertex_flags()
    assert set(patches.vertex.tolist()) == set(np.flatnonzero(~n_only))
    elems, x = random_points_in_elements(mesh, 100, rng)
    total = weight_sums(mesh, patches, elems, x)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_modified_equals_standard_without_neumann():
    v = SQUARE_V
    t = SQUARE_T
    mesh = build_mesh(v, t, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    std = standard_patches(mesh)
    mod = modified_patches(mesh)
    assert len(std) == len(mod)
    assert np.array_equal(std.vertex, mod.vertex)
    assert np.array_equal(std.offsets, mod.offsets)
    assert np.array_equal(std.elements, mod.elements)
    assert np.allclose(std.weights, mod.weights)


def test_modified_patch_covers_extended_support():
    mesh = cook_mesh()
    patches = modified_patches(mesh)
    offsets, ids = vertex_triangles(mesh)
    for i in range(len(patches)):
        folded = absorbed(patches, i)
        if len(folded) == 0:
            continue
        # the extended weight equals one at each absorbed vertex, so every
        # triangle with weight one at some vertex must belong to the patch
        pairs = patch_pairs(patches, i)
        ones = np.isclose(patches.weights[pairs], 1.0)
        assert ones.any()
        for za in folded:
            star = ids[offsets[za] : offsets[za + 1]]
            assert np.all(np.isin(star, patches.elements[pairs]))


def test_absorbed_vertices_unique_host():
    mesh = cook_mesh()
    patches = modified_patches(mesh)
    folded = np.concatenate([absorbed(patches, i) for i in range(len(patches))])
    assert len(folded) == len(set(folded.tolist()))
    _, n_only = mesh.vertex_flags()
    assert set(folded.tolist()) == set(np.flatnonzero(n_only).tolist())


def test_continuous_field_has_zero_side_jumps():
    # a globally polynomial tensor field lies in the broken stress space
    # with matching traces, so the side-trace jump is pure roundoff;
    # this pins the per-side normal orientation conventions
    mesh = uniform_refine(cook_mesh(), rounds=2)
    disc = Discretization(mesh, 1)
    tables = build_stress_tables(disc.mesh, disc.k)

    def tau(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + x[..., 0] - 2 * x[..., 1]
        out[..., 0, 1] = x[..., 0] + x[..., 1]
        out[..., 1, 0] = -3.0 * x[..., 0]
        out[..., 1, 1] = 0.5 - x[..., 1]
        return out

    dofs = tables.dofs_from_values(tau(tables.vol_x), tau(tables.side_x))
    field = BrokenField(mesh, 1, dofs)
    interior = mesh.side_label == INTERIOR
    gap = np.abs(side_jumps(disc, field)[interior])
    assert gap.max() < 1e-12
