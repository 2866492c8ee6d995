"""Independent reference implementations used only by tests.

Everything here is deliberately written against the *mathematical*
definitions with generic dense tools (high-order quadrature, pseudo-
inverses), sharing as little code as possible with the production path.
"""

from __future__ import annotations

import numpy as np

from stresseq import (
    Discretization,
    assemble_system,
    reference_energy_errors,
    refine,
    solve,
)
from stresseq.equilibration import Equilibrator, PatchProblem
from stresseq.mesh import Mesh
from stresseq.spaces import triangle_rule


def dense_kkt_minimizer(problem: PatchProblem) -> np.ndarray:
    """Minimum-norm solution of the patch problem via one dense pseudo-inverse.

    Solves  min 1/2 x^T M x  s.t.  B x = r  with ALL constraint rows kept
    (redundant ones included) through the KKT system pseudo-inverse; the
    primal block of any least-squares KKT solution is the unique minimizer
    whenever the constraints are consistent.
    """
    m, b, r = problem.mass, problem.constraints, problem.rhs
    n, nr = m.shape[0], b.shape[0]
    kkt = np.zeros((n + nr, n + nr))
    kkt[:n, :n] = m
    kkt[:n, n:] = b.T
    kkt[n:, :n] = b
    rhs = np.concatenate([np.zeros(n), r])
    sol = np.linalg.pinv(kkt, rcond=1e-12) @ rhs
    return sol[:n]


def production_minimizer(eq: Equilibrator, problem: PatchProblem) -> np.ndarray:
    return eq.solve_patch(problem)


def mass_norm(problem: PatchProblem, x: np.ndarray) -> float:
    return float(np.sqrt(x @ problem.mass @ x))


def quad_integrate(mesh: Mesh, elems, func, degree: int = 20) -> np.ndarray:
    """Per-element integral of ``func(x) -> (...)`` by a dense volume rule."""
    rq, rw = triangle_rule(degree)
    elems = np.asarray(elems)
    p = mesh.vertices[mesh.triangles[elems]]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    xq = p[:, None, 0, :] + np.einsum("qr,edr->eqd", rq, jac)
    vals = func(xq)
    w = 2.0 * mesh.areas[elems][:, None] * rw[None, :]
    return np.einsum("eq,eq...->e...", w, vals)


def poly_integral_unit_triangle(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    import math

    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# Uniform bisection rounds of the reference mesh in uniform_reference_errors.
# Against the exact errors of manufactured_smooth (8 adaptive steps,
# inv_lambda 0 and 0.5), 2 rounds are up to 2.7 % off on the last steps and
# 3 rounds within 0.52 %; each round quadruples the reference solve.
REFERENCE_ROUNDS = 3


def uniform_reference_errors(history, problem) -> np.ndarray:
    """Energy error of every step of ``history`` against one reference solve.

    The reference is the discrete solution, at the run's degree, on the
    run's final mesh bisected uniformly ``REFERENCE_ROUNDS`` times.  Unlike
    the run's own finest level, this reference is finer than every step by
    at least that many uniform rounds, so the last steps are not measured
    against a solution that is barely finer than themselves.
    """
    chain = list(history.meshes)
    for _ in range(REFERENCE_ROUNDS):
        chain.append(refine(chain[-1], np.arange(chain[-1].n_triangles)))
    disc = Discretization(chain[-1], history[-1].fields.disc.k)
    reference = solve(assemble_system(disc, problem.material, problem.load))
    return reference_energy_errors(
        [rec.fields for rec in history.records], reference, chain,
        problem.material,
    )
