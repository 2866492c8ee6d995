"""Built-in benchmark problems.

Three problems drive the test and benchmark suite:

* ``cook``: the tapered Cook-membrane panel, clamped on the left edge and
  sheared upward along the right edge; no analytic solution.
* ``manufactured-smooth``: a smooth displacement/pressure pair on the unit
  square with loads derived analytically; the divergence-free part makes it
  meaningful up to the incompressible limit.
* ``square-lshape``: an L-shaped domain with a reentrant corner at the
  origin under constant volume load; used to stress-test efficiency in the
  presence of a corner singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elasticity import LoadData, Material, _stress_from
from .errors import ProblemError
from .mesh import Mesh, _side_table, build_mesh

_EDGE_TOL = 1e-9


@dataclass
class ExactSolution:
    """Analytic fields for manufactured problems.

    ``displacement(x) -> (..., 2)``; ``displacement_gradient(x) -> (..., 2, 2)``
    with entry [r, c] = d u_r / d x_c; ``pressure(x) -> (...)``.
    """

    displacement: Callable[[np.ndarray], np.ndarray]
    displacement_gradient: Callable[[np.ndarray], np.ndarray]
    pressure: Callable[[np.ndarray], np.ndarray]


@dataclass
class Problem:
    """A mesh, material, and load, with an optional analytic solution."""

    name: str
    mesh: Mesh
    material: Material
    load: LoadData
    exact: ExactSolution | None = None


# -- structured grids -----------------------------------------------------------

def _union_jack(cells: int, keep=None, flip=None) -> np.ndarray:
    """Union-jack split of a (cells x cells) grid into triangles.

    Cell (i, j) spans grid points vid(i, j)..vid(i+1, j+1); the diagonal
    alternates with (i + j) parity so every outer corner of the grid is
    connected to an interior grid point by a diagonal.  Each triangle is
    listed with its diagonal first; :func:`build_mesh` then rotates it so
    that its longest edge is the refinement edge, which is the diagonal
    on square cells but not on skewed ones (in 4 of the 8 triangles of
    ``cook_mesh(2)``).
    ``keep(i, j)`` can drop cells (for non-rectangular domains);
    ``flip(i, j)`` reverses the diagonal of selected cells (for corners
    that the global parity would leave without a diagonal).
    """
    n = cells + 1

    def vid(i, j):
        return i * n + j

    tris = []
    for i in range(cells):
        for j in range(cells):
            if keep is not None and not keep(i, j):
                continue
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            parity = (i + j) % 2
            if flip is not None and flip(i, j):
                parity ^= 1
            if parity == 0:
                tris.append((v11, v00, v10))
                tris.append((v00, v11, v01))
            else:
                tris.append((v10, v01, v00))
                tris.append((v01, v10, v11))
    return np.array(tris, dtype=np.int64)


def _require_even(cells: int) -> None:
    if cells < 2 or cells % 2:
        raise ProblemError(
            f"structured grids need an even cell count >= 2, got {cells}"
        )


def _grid_mesh(
    cells: int, lo: float, hi: float, clamped_x: float,
    to_xy=None, keep=None, flip=None,
) -> Mesh:
    """Union-jack mesh of the (cells x cells) grid on [lo, hi]^2.

    ``to_xy(x, y)`` maps the grid points to the domain; ``keep`` and
    ``flip`` pass to :func:`_union_jack`, and vertices of dropped cells are
    removed.  A boundary side is clamped when both of its ends lie on the
    line x = ``clamped_x``; every other boundary side is a traction side.
    """
    _require_even(cells)
    t = np.linspace(lo, hi, cells + 1)
    x, y = np.meshgrid(t, t, indexing="ij")
    if to_xy is not None:
        x, y = to_xy(x, y)
    verts = np.stack([x.ravel(), y.ravel()], axis=1)
    tris = _union_jack(cells, keep, flip)
    used, inverse = np.unique(tris, return_inverse=True)
    verts, tris = verts[used], inverse.reshape(tris.shape)
    sides, side_tri, _ = _side_table(tris, len(verts))
    boundary = sides[side_tri[:, 1] < 0]
    on = np.all(np.abs(verts[boundary, 0] - clamped_x) < _EDGE_TOL, axis=1)
    return build_mesh(verts, tris, boundary[on], boundary[~on])


# -- Cook membrane ---------------------------------------------------------------


def cook_mesh(cells: int = 4) -> Mesh:
    """Structured triangulation of the tapered panel.

    Corners (0,0), (0.48,0.44), (0.48,0.6), (0,0.44); a ``cells`` x
    ``cells`` grid of quadrilaterals, each split into two triangles
    (4x4 -> 32 elements).  The left edge carries the displacement
    condition; the other three edges are traction sides.  The cells are
    skewed, so a triangle's refinement edge (its longest) is often not
    the cell diagonal.
    """
    return _grid_mesh(
        cells, 0.0, 1.0, 0.0,
        lambda xi, eta: (0.48 * xi, 0.44 * xi + eta * (0.44 - 0.28 * xi)),
    )


def _cook_traction(x: np.ndarray) -> np.ndarray:
    g = np.zeros_like(x)
    g[..., 1] = np.where(x[..., 0] > 0.48 - _EDGE_TOL, 0.01, 0.0)
    return g


def cook(material: Material = Material()) -> Problem:
    """Cook membrane: clamped left edge, upward shear g=(0, 0.01) on the right."""
    return Problem(
        name="cook",
        mesh=cook_mesh(),
        material=material,
        load=LoadData(volume=None, traction=_cook_traction),
        exact=None,
    )


# -- manufactured smooth problem ---------------------------------------------------


def unit_square_mesh(cells: int = 2) -> Mesh:
    """Structured unit-square triangulation; left edge is the clamped side."""
    return _grid_mesh(cells, 0.0, 1.0, 0.0)


def _smooth_fields(mu: float, inv_lambda: float):
    """Analytic fields of the smooth manufactured problem.

    Displacement u = u0 + inv_lambda * u1 with a divergence-free u0 and a
    correction u1 whose divergence equals the pressure, so that
    p = lambda * div(u) = x cos(pi y) / 5 for every lambda including the
    incompressible limit.  Both parts vanish on the clamped edge x = 0.
    """
    t = inv_lambda

    def u(x):
        xs, ys = x[..., 0], x[..., 1]
        c, s = np.cos(np.pi * ys), np.sin(np.pi * ys)
        out = np.empty_like(x)
        out[..., 0] = np.pi * xs**2 * c + t * xs**2 * c / 10.0
        out[..., 1] = -2.0 * xs * s
        return out

    def grad_u(x):
        xs, ys = x[..., 0], x[..., 1]
        c, s = np.cos(np.pi * ys), np.sin(np.pi * ys)
        g = np.empty(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 2.0 * np.pi * xs * c + t * xs * c / 5.0
        g[..., 0, 1] = -np.pi**2 * xs**2 * s - t * np.pi * xs**2 * s / 10.0
        g[..., 1, 0] = -2.0 * s
        g[..., 1, 1] = -2.0 * np.pi * xs * c
        return g

    def pressure(x):
        xs, ys = x[..., 0], x[..., 1]
        return xs * np.cos(np.pi * ys) / 5.0

    def volume(x):
        # f = -div sigma for sigma = 2 mu eps(u) + p I, using
        # div(2 mu eps(u)) = mu (Lap u + grad div u) and div u = t * p.
        xs, ys = x[..., 0], x[..., 1]
        c, s = np.cos(np.pi * ys), np.sin(np.pi * ys)
        lap0 = np.stack(
            [2.0 * np.pi * c - np.pi**3 * xs**2 * c, 2.0 * np.pi**2 * xs * s],
            axis=-1,
        )
        lap1 = np.stack(
            [(2.0 * c - np.pi**2 * xs**2 * c) / 10.0, np.zeros_like(xs)],
            axis=-1,
        )
        grad_p = np.stack([c / 5.0, -np.pi * xs * s / 5.0], axis=-1)
        return -mu * (lap0 + t * lap1) - (t * mu + 1.0) * grad_p

    def traction(x):
        # outward normal on the unit square, decided by position; the
        # quadrature points never sit on corners.
        xs, ys = x[..., 0], x[..., 1]
        n = np.zeros_like(x)
        n[..., 1] = np.where(ys < _EDGE_TOL, -1.0, n[..., 1])
        n[..., 1] = np.where(ys > 1.0 - _EDGE_TOL, 1.0, n[..., 1])
        n[..., 0] = np.where(xs > 1.0 - _EDGE_TOL, 1.0, n[..., 0])
        sig = _stress_from(grad_u(x), pressure(x), mu)
        return np.einsum("...rc,...c->...r", sig, n)

    return u, grad_u, pressure, volume, traction


def manufactured_smooth(material: Material = Material(), cells: int = 2) -> Problem:
    """Smooth manufactured problem on the unit square, clamped at x = 0."""
    u, grad_u, pressure, volume, traction = _smooth_fields(
        material.mu, material.inv_lambda
    )
    return Problem(
        name="manufactured-smooth",
        mesh=unit_square_mesh(cells),
        material=material,
        load=LoadData(volume=volume, traction=traction),
        exact=ExactSolution(
            displacement=u, displacement_gradient=grad_u, pressure=pressure
        ),
    )


# -- L-shaped domain ----------------------------------------------------------------


def lshape_mesh(cells: int = 4) -> Mesh:
    """L-shaped domain: [-1,1]^2 minus the open quadrant x > 0, y < 0.

    ``cells`` counts grid cells across the full side, so the reentrant
    corner at the origin is a grid point; the x = -1 edge is clamped and
    the rest of the boundary carries (zero) traction.
    """
    _require_even(cells)
    if cells < 4:
        raise ProblemError(
            "the L-shaped grid needs cells >= 4 so both arms have"
            f" interior vertices, got {cells}"
        )
    half = cells // 2
    # When half is odd the global parity leaves the two convex arm corners
    # next to the reentrant cut without a diagonal into their arm; flip
    # the diagonal of exactly those corner cells.
    flip = None
    if half % 2:
        corner_cells = {(half - 1, 0), (cells - 1, half)}
        flip = lambda i, j: (i, j) in corner_cells
    return _grid_mesh(
        cells, -1.0, 1.0, -1.0,
        keep=lambda i, j: not (i >= half and j < half), flip=flip,
    )


def square_lshape(material: Material = Material()) -> Problem:
    """L-shaped domain, constant volume load (1, 0), traction-free elsewhere."""

    def volume(x):
        f = np.zeros_like(x)
        f[..., 0] = 1.0
        return f

    return Problem(
        name="square-lshape",
        mesh=lshape_mesh(),
        material=material,
        load=LoadData(volume=volume, traction=None),
        exact=None,
    )


_BUILTINS = {
    "cook": cook,
    "manufactured-smooth": manufactured_smooth,
    "square-lshape": square_lshape,
}


def make_problem(name: str, material: Material) -> Problem:
    """Instantiate a built-in problem by name with the given material."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ProblemError(f"unknown problem {name!r} (known: {known})")
    return factory(material)
