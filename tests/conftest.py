"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from stresseq import (
    Discretization,
    Material,
    assemble_system,
    direct_stress,
    solve,
)


def solve_problem(problem, k=1, mesh=None):
    """Run the forward pipeline on ``mesh`` (default: the problem's own):
    returns (disc, fields, sigma_h)."""
    disc = Discretization(problem.mesh if mesh is None else mesh, k)
    fields = solve(assemble_system(disc, problem.material, problem.load))
    sigma = direct_stress(fields, problem.material)
    return disc, fields, sigma


def random_points_in_elements(mesh, n, rng):
    """n random physical points, with their element ids: (elems, x)."""
    elems = rng.integers(0, mesh.n_triangles, size=n)
    r = rng.random((n, 2))
    flip = r.sum(axis=1) > 1.0
    r[flip] = 1.0 - r[flip]
    p = mesh.vertices[mesh.triangles[elems]]
    x = (
        p[:, 0]
        + r[:, :1] * (p[:, 1] - p[:, 0])
        + r[:, 1:] * (p[:, 2] - p[:, 0])
    )
    return elems, x


# Four triangles around the centre of the unit square, each stored as
# (p_{i+1}, centre, p_i): every refinement edge is the next triangle's
# second edge, so the refinement edges form a cycle and admit no closure.
CYCLIC_MESH_TEXT = """\
vertices 5 / triangles 4 / sides_dirichlet 4 / sides_neumann 0
0 0
1 0
1 1
0 1
0.5 0.5
1 4 0
2 4 1
3 4 2
0 4 3
0 1
1 2
2 3
3 0
"""


def min_angle_deg(mesh) -> float:
    p = mesh.vertices[mesh.triangles]
    worst = np.inf
    for j in range(3):
        a = p[:, (j + 1) % 3] - p[:, j]
        b = p[:, (j + 2) % 3] - p[:, j]
        cos = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        worst = min(worst, np.degrees(np.arccos(np.clip(cos, -1, 1))).min())
    return float(worst)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="session")
def incompressible():
    return Material(mu=1.0, inv_lambda=0.0)
