"""Built-in benchmark problem tests: geometry, loads, and exact fields."""

import hashlib

import numpy as np
import pytest

from stresseq import (
    DIRICHLET,
    NEUMANN,
    Material,
    ProblemError,
    cook,
    cook_mesh,
    lshape_mesh,
    make_problem,
    manufactured_smooth,
    modified_patches,
    square_lshape,
    unit_square_mesh,
)


@pytest.mark.parametrize("cells", [2, 4, 6, 8])
def test_generators_admissible(cells):
    """Every built-in grid admits modified patches at every supported size."""
    builders = (cook_mesh, unit_square_mesh) + (
        (lshape_mesh,) if cells >= 4 else ()
    )
    for builder in builders:
        mesh = builder(cells)
        patches = modified_patches(mesh)
        assert len(patches) >= 1
        assert np.all(mesh.areas > 0)


@pytest.mark.parametrize("cells", [4, 6, 10])
def test_lshape_corners_end_an_inward_refinement_edge(cells):
    """Every corner of the L, the reentrant one included, ends the
    refinement edge (the first two vertices) of some triangle whose other
    end is off the boundary, as the union-jack split promises.  Where
    cells // 2 is odd (6, 10), the two arm corners next to the cut owe
    this to the flipped diagonals of their cells.  Modified patches build
    on each mesh."""
    mesh = lshape_mesh(cells)
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.sides[mesh.side_tri[:, 1] < 0]] = True
    a, b = mesh.triangles[:, 0], mesh.triangles[:, 1]
    inward = set(a[~on_boundary[b]].tolist()) | set(b[~on_boundary[a]].tolist())
    for corner in [(-1, -1), (-1, 1), (1, 1), (1, 0), (0, 0), (0, -1)]:
        (v,) = np.flatnonzero(np.isclose(mesh.vertices, corner).all(axis=1))
        assert v in inward, corner
    assert len(modified_patches(mesh)) >= 1



def test_odd_cell_counts_rejected():
    for builder in (cook_mesh, unit_square_mesh, lshape_mesh):
        with pytest.raises(ProblemError):
            builder(3)
        with pytest.raises(ProblemError):
            builder(0)
    # one-cell-wide arms leave traction corners with no interior neighbour
    with pytest.raises(ProblemError):
        lshape_mesh(2)


# sha256 over the bytes of vertices, triangles, sides and side_label; the
# meshes are built without BLAS, so the digests hold on every machine
MESH_DIGESTS = {
    (cook_mesh, 4): "6767479472aef5a2bef5e9d37e8ce58a50e9360079edcf3db7ba384fc13ff6c0",
    (cook_mesh, 8): "c8ecf72019fe9f99db065cc3a7891340403f505c45001176c6737750d1d13b06",
    (unit_square_mesh, 2): "948250ac3b570d7d101db0d087e5a358d596699a2a52c0b67bcfed4f686832af",
    (unit_square_mesh, 4): "41f8f421c2538fffffd686a61bf0e7c1a887338b76d35b5856eb6938ceb5401b",
    (lshape_mesh, 4): "1e1449c7626cc2127eabd35e03194241a20d1fdfd4202904764957afc5cbeeab",
    (lshape_mesh, 6): "39f6a1706b9fed23a34af10d34a4d6b8266e30251645fc041329b83c67791ede",
}


def test_builtin_meshes_keep_their_bytes():
    """The built-in meshes, which every benchmark reference starts from,
    keep their bytes; the grid-size errors keep their messages."""
    for (builder, cells), digest in MESH_DIGESTS.items():
        mesh = builder(cells)
        h = hashlib.sha256()
        for array in (mesh.vertices, mesh.triangles, mesh.sides, mesh.side_label):
            h.update(array.tobytes())
        assert h.hexdigest() == digest, (builder.__name__, cells)
    for cells in (3, 0):
        with pytest.raises(ProblemError, match="even cell count >= 2"):
            lshape_mesh(cells)
    with pytest.raises(ProblemError, match="needs cells >= 4"):
        lshape_mesh(2)


def test_make_problem_names():
    mat = Material()
    for name in ("cook", "manufactured-smooth", "square-lshape"):
        problem = make_problem(name, mat)
        assert problem.name == name
    with pytest.raises(ProblemError):
        make_problem("unknown", mat)


def test_cook_geometry_and_loads():
    problem = cook()
    mesh = problem.mesh
    assert mesh.n_triangles == 32
    # traction acts on the right edge only: g = (0, 0.01) there, 0 elsewhere
    nsides = mesh.boundary_sides(NEUMANN)
    mids = 0.5 * (
        mesh.vertices[mesh.sides[nsides, 0]] + mesh.vertices[mesh.sides[nsides, 1]]
    )
    g = problem.load.traction_at(mids)
    on_right = np.abs(mids[:, 0] - 0.48) < 1e-12
    assert np.all(g[on_right] == np.array([0.0, 0.01]))
    assert np.all(g[~on_right] == 0.0)
    assert problem.load.volume is None
    assert problem.exact is None


def test_lshape_geometry():
    mesh = lshape_mesh()
    v = mesh.vertices
    # reentrant corner at the origin, no vertices inside the removed quadrant
    assert np.min(np.linalg.norm(v, axis=1)) < 1e-12
    inside_cut = (v[:, 0] > 1e-9) & (v[:, 1] < -1e-9)
    assert not inside_cut.any()
    d = mesh.sides[mesh.side_label == DIRICHLET]
    assert np.all(np.abs(v[d.ravel()][:, 0] + 1.0) < 1e-12)
    problem = square_lshape()
    assert problem.exact is None


def test_manufactured_dirichlet_homogeneous(rng):
    problem = manufactured_smooth(
        material=Material(mu=1.0, inv_lambda=0.5), cells=2
    )
    y = rng.random(64)
    x = np.zeros((64, 2))
    x[:, 1] = y
    u = problem.exact.displacement(x)
    assert np.max(np.abs(u)) < 1e-14


def test_manufactured_pressure_is_lambda_times_divergence(rng):
    """p = lambda * div(u) holds for every lambda, including the limit."""
    for t in (0.0, 0.3, 1.0):
        problem = manufactured_smooth(
            material=Material(mu=1.0, inv_lambda=t), cells=2
        )
        x = rng.random((128, 2))
        g = problem.exact.displacement_gradient(x)
        div = g[..., 0, 0] + g[..., 1, 1]
        p = problem.exact.pressure(x)
        assert np.max(np.abs(div - t * p)) < 1e-13


def test_manufactured_gradient_matches_fd(rng):
    problem = manufactured_smooth(
        material=Material(mu=1.0, inv_lambda=0.25), cells=2
    )
    x = 0.05 + 0.9 * rng.random((32, 2))
    g = problem.exact.displacement_gradient(x)
    eps = 1e-6
    for c in range(2):
        d = np.zeros(2)
        d[c] = eps
        fd = (
            problem.exact.displacement(x + d) - problem.exact.displacement(x - d)
        ) / (2 * eps)
        assert np.max(np.abs(fd - g[..., c])) < 1e-8


def test_manufactured_volume_load_matches_fd(rng):
    """f = -div(2 mu eps(u) + p I), verified by central differences."""
    mu, t = 1.7, 0.4
    problem = manufactured_smooth(
        material=Material(mu=mu, inv_lambda=t), cells=2
    )
    exact = problem.exact

    def stress(x):
        g = exact.displacement_gradient(x)
        sig = mu * (g + np.swapaxes(g, -1, -2))
        p = exact.pressure(x)
        sig[..., 0, 0] += p
        sig[..., 1, 1] += p
        return sig

    x = 0.05 + 0.9 * rng.random((32, 2))
    eps = 1e-6
    div = np.zeros((32, 2))
    for c in range(2):
        d = np.zeros(2)
        d[c] = eps
        div += (stress(x + d)[..., :, c] - stress(x - d)[..., :, c]) / (2 * eps)
    f = problem.load.volume_at(x)
    assert np.max(np.abs(f + div)) < 1e-7


def test_manufactured_traction_matches_stress_normal(rng):
    mu, t = 1.0, 0.0
    problem = manufactured_smooth(material=Material(mu=mu, inv_lambda=t))
    exact = problem.exact

    def stress(x):
        g = exact.displacement_gradient(x)
        sig = mu * (g + np.swapaxes(g, -1, -2))
        p = exact.pressure(x)
        sig[..., 0, 0] += p
        sig[..., 1, 1] += p
        return sig

    ts = rng.random(16)
    for normal, xs in (
        (np.array([1.0, 0.0]), np.column_stack([np.ones(16), ts])),
        (np.array([0.0, -1.0]), np.column_stack([ts, np.zeros(16)])),
        (np.array([0.0, 1.0]), np.column_stack([ts, np.ones(16)])),
    ):
        g = problem.load.traction_at(xs)
        expect = np.einsum("qrc,c->qr", stress(xs), normal)
        assert np.max(np.abs(g - expect)) < 1e-12
