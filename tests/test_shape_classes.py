"""Element tables built once per shape class against the same routines run
element by element.

The class path builds each table of the stress space, the patch problems
and the Taylor-Hood assembly once per exact similarity class of a mesh
(``Mesh.shape_classes``), from the one store ``Discretization.classes``,
and takes it to the elements by exact dof signs and one power of h per
block.  On a copy of the mesh with one class per element the same routines
run on each element's own shape, as does ``build_stress_tables`` without
the store.  They must agree bit for bit, and ``verify_equilibration``,
which builds its own tables element by element, must see a class table
that is wrong.
"""

import copy

import numpy as np
import pytest

from stresseq import (
    BrokenField,
    Discretization,
    Material,
    assemble_system,
    conservative_constants,
    cook,
    direct_stress,
    solve,
    solve_step,
    square_lshape,
)
from stresseq import elasticity, spaces
from stresseq.elasticity import _element_triplets
from stresseq.equilibration import Equilibrator, _shape_products, equilibrate, verify_equilibration
from stresseq.mesh import DIRICHLET, NEUMANN, _assemble, read_mesh, uniform_refine, write_mesh
from test_mesh import randomly_refined

LSHAPE = square_lshape(Material(mu=1.0, inv_lambda=0.002))


def _read_back(mesh, tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    return read_mesh(path)


def _cases():
    cook_random = randomly_refined(cook().mesh, 3)
    yield pytest.param(cook(), cook_random, 1, True, id="cook-random-k1")
    yield pytest.param(cook(), cook_random, 2, True, id="cook-random-k2")
    lshape_random = randomly_refined(LSHAPE.mesh, 5)
    yield pytest.param(LSHAPE, lshape_random, 2, True, id="square-lshape-random-k2")
    # two stress chunks; its patch reductions are not compared (time)
    yield pytest.param(cook(), uniform_refine(cook().mesh, 7), 1, False, id="cook-uniform7-k1")


def _one_class_per_element(mesh):
    """A copy of ``mesh`` on which every element is a shape class of its
    own."""
    single = copy.copy(mesh)
    every = np.arange(mesh.n_triangles)
    single.__dict__["shape_classes"] = (every, every)
    return single


def _assert_both_orientations(mesh):
    """Some element holds a side as its plus element, some a side whose
    global parameter runs against its local one, in every combination, and
    some element has a boundary side."""
    e = np.arange(mesh.n_triangles)[:, None]
    plus = mesh.side_tri[mesh.tri_sides, 0] != e
    against = mesh.triangles[:, [1, 2, 0]] > mesh.triangles[:, [2, 0, 1]]
    for p in (False, True):
        for a in (False, True):
            assert ((plus == p) & (against == a)).any(), (p, a)
    assert (mesh.side_tri[mesh.tri_sides, 1] < 0).any()


def _assert_bitwise(a, b, name):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _table_products(batch):
    """K = L M^-1 L^T of every element table of a batch, as ``_reduce``
    reads it: its shape's scaled by the table's row scales."""
    shapes = batch.shapes
    K, _ = _shape_products(shapes.rows, shapes.gram)
    s = shapes.row_scale[:, None]
    return K[shapes.index] * (s[..., :, None] * s[..., None, :])


@pytest.mark.parametrize("read_back", [False, True], ids=["built", "read"])
@pytest.mark.parametrize("problem, mesh, k, reduce", list(_cases()))
def test_class_tables_are_the_per_element_build(problem, mesh, k, reduce, read_back, tmp_path):
    """C, the element matrices, and of every patch batch the element
    tables (rows and Gram matrices), their K and the condensed blocks
    (K_dd^-1, K_cd, the reduced matrices and M^-1) are bitwise the
    per-element build, on meshes built by bisection and on the same meshes
    read back from a file, which have the same classes."""
    if read_back:
        again = _read_back(mesh, tmp_path)
        for got, want in zip(again.shape_classes, mesh.shape_classes):
            assert np.array_equal(got, want)
        mesh = again
    _assert_both_orientations(mesh)
    n_classes = len(mesh.shape_classes[0])
    assert n_classes < mesh.n_triangles
    by_class = Discretization(mesh, k)
    by_element = Discretization(_one_class_per_element(mesh), k)

    assert len(by_class.classes.C) == n_classes
    assert len(by_element.classes.C) == mesh.n_triangles
    chunks = by_class.stress_chunks
    assert len(chunks) == (2 if mesh.n_triangles > spaces._CHUNK else 1)
    for tc, te in zip(chunks, by_element.stress_chunks):
        assert tc.shapes is by_class.classes and te.shapes is by_element.classes
        own = spaces.build_stress_tables(mesh, k, tc.elems)  # verification's build
        for name in ("C", "vol_xi", "side_xi", "vol_x", "vol_w"):
            _assert_bitwise(getattr(tc, name), getattr(te, name), name)
            _assert_bitwise(getattr(tc, name), getattr(own, name), name)

    material = Material(mu=1.3, inv_lambda=0.25)  # a pressure block too
    got, want = (_element_triplets(d, material, problem.load) for d in (by_class, by_element))
    for a, b in zip(got[0], want[0]):
        _assert_bitwise(a, b, "triplets")

    # neither the element tables nor the reduction read the stress
    zero = BrokenField(mesh, k, np.zeros((mesh.n_triangles, 2, spaces.rt_dim(k))))
    eqs = [Equilibrator(d, zero, problem.load) for d in (by_class, by_element)]
    for (_, bc), (_, be) in zip(*(eq._batches() for eq in eqs)):
        for name in ("table_rows", "table_gram"):
            _assert_bitwise(getattr(bc, name), getattr(be, name), name)
        if not reduce:
            continue
        assert len(np.unique(bc.shapes.index)) < len(bc.shapes.index)
        _assert_bitwise(_table_products(bc), _table_products(be), "K")
        rc, re = eqs[0]._reduce(bc), eqs[1]._reduce(be)
        for name in ("minv", "kdd_inv", "kcd", "S"):
            _assert_bitwise(getattr(rc, name), getattr(re, name), name)


def test_one_ulp_moves_only_the_classes_of_that_vertex():
    """Moving one vertex coordinate by one ulp changes the shape key of the
    elements around that vertex and of no other element: the others keep
    their classes, and each moved element leaves the unmoved members of its
    old class."""
    mesh = randomly_refined(cook().mesh, 3)
    _, cls = mesh.shape_classes
    # an interior vertex of an element whose class has other members
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.sides[mesh.side_tri[:, 1] < 0].ravel()] = False
    shared = mesh.triangles[np.bincount(cls)[cls] > 1]
    v = int(shared[interior[shared]][0])
    vertices = mesh.vertices.copy()
    vertices[v, 0] = np.nextafter(vertices[v, 0], np.inf)
    moved = _assemble(
        vertices,
        mesh.triangles,
        mesh.sides[mesh.side_label == DIRICHLET],
        mesh.sides[mesh.side_label == NEUMANN],
    )
    _, new = moved.shape_classes
    around = (mesh.triangles == v).any(axis=1)
    assert around.sum() >= 3

    def key(m):
        return (m.jac / m.h[:, None, None]).reshape(m.n_triangles, -1)

    assert np.array_equal((key(mesh) == key(moved)).all(axis=1), ~around)
    rest = np.flatnonzero(~around)
    assert np.array_equal(cls[rest][:, None] == cls[rest], new[rest][:, None] == new[rest])
    assert any((cls[rest] == cls[e]).any() for e in np.flatnonzero(around))
    for e in np.flatnonzero(around):
        assert not ((cls[rest] == cls[e]) & (new[rest] == new[e])).any(), e


def test_verification_does_not_rest_on_the_class_tables():
    """A sign flip of one side moment of one class row of the store
    ``Discretization.classes``, which every production table reads, leaves a
    reconstruction that ``verify_equilibration``, with its own per-element
    tables, reports above the 1e-9 * scale gate; without the flip it stays
    below.  The class is one whose elements all have a side on the
    displacement boundary, so that every patch it enters keeps all its rows
    and the step still solves."""
    problem = cook()
    mesh = uniform_refine(problem.mesh, 2)
    first, cls = mesh.shape_classes
    on_d = (mesh.side_label[mesh.tri_sides] == DIRICHLET).any(axis=1)
    flipped = next(c for c in range(len(first)) if on_d[cls == c].all())

    def worst(flip):
        disc = Discretization(mesh, 1)
        if flip:
            disc.classes.C[flipped, 0] *= -1.0      # side 0, moment 0
        fields = solve(assemble_system(disc, problem.material, problem.load))
        sigma = direct_stress(fields, problem.material)
        _, sigma_r, eq = equilibrate(disc, sigma, problem.load)
        report = verify_equilibration(disc, sigma_r, problem.load, scale=eq.scale)
        return report.max_residual / report.scale

    assert worst(False) <= 1e-9
    assert worst(True) > 1e-9


def test_shape_tables_are_built_once_per_step(monkeypatch):
    """On a mesh of two stress chunks, one step builds the class tables, the
    constraint tables and the element matrices once each, on all the classes
    of the mesh."""
    problem = cook()
    mesh = uniform_refine(problem.mesh, 7)
    assert len(spaces.element_chunks(mesh.n_triangles)) == 2
    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(spaces, "_shape_tables")
    counted(spaces, "_shape_constraints")
    counted(elasticity, "_shape_matrices")
    solve_step(problem, mesh, 1, conservative_constants())
    assert sorted(calls) == ["_shape_constraints", "_shape_matrices", "_shape_tables"]


@pytest.mark.parametrize("k", [1, 2])
def test_class_builds_do_not_depend_on_the_block_size(monkeypatch, k):
    """The class store, the constraint store and the element matrices,
    built three classes at a time, are bitwise the one-block build."""
    problem = cook()
    mesh = randomly_refined(problem.mesh, 3)
    material = Material(mu=1.3, inv_lambda=0.25)

    def built():
        disc = Discretization(mesh, k)
        (_, _, data), _, _ = _element_triplets(disc, material, problem.load)
        return [*disc.classes, *disc.constraints, data]

    whole = built()
    monkeypatch.setattr(spaces, "_CHUNK", 3)
    assert len(spaces.element_chunks(len(mesh.shape_classes[0]))) > 3
    for i, (got, want) in enumerate(zip(built(), whole, strict=True)):
        _assert_bitwise(got, want, i)
