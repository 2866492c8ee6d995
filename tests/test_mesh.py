"""Mesh construction, refinement, file IO, and vertex-patch tests."""

import numpy as np
import pytest

from conftest import min_angle_deg, random_points_in_elements
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
    build_mesh,
    compose_ancestry,
    cook_mesh,
    modified_patches,
    read_mesh,
    refine,
    standard_patches,
    uniform_refine,
    unit_square_mesh,
    write_mesh,
)
from stresseq.equilibration import side_traces

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
    assert {p.vertex for p in patches} == {0, 1, 2}


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
    with pytest.raises(NonConforming):
        build_mesh(v, t, [(0, 1)], [(0, 2), (1, 3), (3, 4), (4, 2)])


def test_nonconforming_hanging_vertex_on_a_very_long_side():
    """A side 1e9 times longer than the bucket size of the scan: the scan
    ends, and still finds the vertex hanging on that side."""
    v = [(0, 0), (1e15, 0), (0, 1), (5e14, 0), (5e14 - 1e6, -1e6), (5e14 + 1e6, -1e6)]
    t = [(0, 1, 2), (3, 4, 5)]  # vertex 3 hangs on side (0, 1)
    n = [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(NonConforming, match="vertex 3 hangs on side"):
        build_mesh(v, t, [(0, 2)], n)


def test_nonconforming_boundary_classification():
    with pytest.raises(NonConforming):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3), (0, 2)], SQUARE_N)
    with pytest.raises(NonConforming):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3)], [(0, 1), (1, 2)])
    with pytest.raises(NonConforming):
        build_mesh(SQUARE_V, SQUARE_T, [(0, 3), (0, 1)], SQUARE_N)


def test_inverted_element():
    with pytest.raises(InvertedElement):
        build_mesh(SQUARE_V, [(0, 2, 1), (0, 2, 3)], SQUARE_D, SQUARE_N)


def test_empty_dirichlet():
    with pytest.raises(EmptyDirichlet):
        build_mesh(SQUARE_V, SQUARE_T, [], SQUARE_D + SQUARE_N)


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
    sizes = {p.vertex: len(p.elements) for p in patches}
    assert sizes[4] == 6  # interior vertex of the structured grid
    assert sizes[2] == 1  # corner the diagonals avoid
    assert sizes[6] == 1


def test_each_element_in_three_standard_patches():
    for mesh in (cook_mesh(), fixed_diagonal_grid()):
        count = np.zeros(mesh.n_triangles, dtype=int)
        for p in standard_patches(mesh):
            count[p.elements] += 1
        assert np.all(count == 3)


def test_partition_of_unity_standard(rng):
    mesh = cook_mesh()
    elems, x = random_points_in_elements(mesh, 100, rng)
    total = np.zeros(100)
    for p in standard_patches(mesh):
        pos = {int(e): i for i, e in enumerate(p.elements)}
        for q in range(100):
            i = pos.get(int(elems[q]))
            if i is None:
                continue
            tri = mesh.triangles[elems[q]]
            pts = mesh.vertices[tri]
            T = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
            lam = np.linalg.solve(T, x[q] - pts[0])
            bary = np.array([1 - lam.sum(), lam[0], lam[1]])
            total[q] += float(p.weights[i] @ bary)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_partition_of_unity_modified(rng):
    mesh = cook_mesh()
    patches = modified_patches(mesh)
    on_d, n_only = mesh.vertex_flags()
    assert {p.vertex for p in patches} == set(np.flatnonzero(~n_only))
    elems, x = random_points_in_elements(mesh, 100, rng)
    total = np.zeros(100)
    for p in patches:
        pos = {int(e): i for i, e in enumerate(p.elements)}
        for q in range(100):
            i = pos.get(int(elems[q]))
            if i is None:
                continue
            tri = mesh.triangles[elems[q]]
            pts = mesh.vertices[tri]
            T = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
            lam = np.linalg.solve(T, x[q] - pts[0])
            bary = np.array([1 - lam.sum(), lam[0], lam[1]])
            total[q] += float(p.weights[i] @ bary)
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_modified_equals_standard_without_neumann():
    v = SQUARE_V
    t = SQUARE_T
    mesh = build_mesh(v, t, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    std = standard_patches(mesh)
    mod = modified_patches(mesh)
    assert len(std) == len(mod)
    for a, b in zip(std, mod):
        assert a.vertex == b.vertex
        assert np.array_equal(a.elements, b.elements)
        assert np.allclose(a.weights, b.weights)


def test_modified_patch_covers_extended_support():
    mesh = cook_mesh()
    for p in modified_patches(mesh):
        if len(p.absorbed) == 0:
            continue
        # the extended weight equals one at each absorbed vertex, so every
        # triangle with weight one at some vertex must belong to the patch
        ones = np.isclose(p.weights, 1.0)
        assert ones.any()
        offsets, ids = mesh.vertex_triangles()
        for za in p.absorbed:
            star = ids[offsets[za] : offsets[za + 1]]
            assert np.all(np.isin(star, p.elements))


def test_absorbed_vertices_unique_host():
    mesh = cook_mesh()
    patches = modified_patches(mesh)
    absorbed = np.concatenate([p.absorbed for p in patches])
    assert len(absorbed) == len(set(absorbed.tolist()))
    _, n_only = mesh.vertex_flags()
    assert set(absorbed.tolist()) == set(np.flatnonzero(n_only).tolist())


def test_continuous_field_has_zero_side_jumps():
    # a globally polynomial tensor field lies in the broken stress space
    # with matching traces, so the side-trace jump is pure roundoff;
    # this pins the per-side normal orientation conventions
    mesh = uniform_refine(cook_mesh(), rounds=2)
    disc = Discretization(mesh, 1)
    tables = disc.stress_tables()

    def tau(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + x[..., 0] - 2 * x[..., 1]
        out[..., 0, 1] = x[..., 0] + x[..., 1]
        out[..., 1, 0] = -3.0 * x[..., 0]
        out[..., 1, 1] = 0.5 - x[..., 1]
        return out

    dofs = tables.dofs_from_values(tau(tables.vol_x), tau(tables.side_x))
    field = BrokenField(mesh, 1, dofs)
    tminus, tplus = side_traces(disc, field)
    interior = mesh.side_label == INTERIOR
    gap = np.abs(tminus[interior] - tplus[interior])
    assert gap.max() < 1e-12
