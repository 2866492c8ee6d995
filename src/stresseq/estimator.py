"""Error estimation from the equilibrated stress reconstruction.

Element-wise estimator triple:
  eta_A = compliance-norm of the stress correction,
  eta_B = (2 mu)^(1/2) |div u_h - inv_lambda p_h|,
  eta_C = (2 mu)^(-1/2) |antisymmetric part of the correction|,
combined into a guaranteed upper bound for the squared energy-norm error

  error^2 <= 2 S_A + c_B(lambda) S_B + 4 C_K^2 S_C,

with S_X the global sums of squares and c_B a rational coefficient in
lambda that is monotone increasing in lambda; its incompressible-limit
value therefore gives a lambda-independent bound.  A classical residual
estimator and data-oscillation terms support efficiency studies, and
energy errors are evaluated against analytic solutions or nested
finer-mesh proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .elasticity import FieldPair, LoadData, Material, fields_at
from .equilibration import side_jumps
from .errors import InvalidConstants, StressEqError
from .mesh import DIRICHLET, NEUMANN, Mesh
from .problems import ExactSolution
from .spaces import (
    BrokenField,
    Discretization,
    element_chunks,
    side_rule,
    triangle_rule,
    volume_rule,
)

_DIM = 2


@dataclass(frozen=True)
class BoundConstants:
    """Global constants entering the guaranteed bound.

    ``korn`` is the Korn-type constant (at least 2 by theory); ``dev_div``
    the deviatoric-divergence constant (positive).  ``provenance`` records
    whether values were user-supplied or the conservative defaults for
    near-regular patches.
    """

    korn: float
    dev_div: float
    provenance: str = "user-supplied"

    def __post_init__(self):
        if not (self.korn >= 2.0):
            raise InvalidConstants(f"Korn constant {self.korn} is below 2")
        if not (self.dev_div > 0.0):
            raise InvalidConstants(
                f"dev-div constant {self.dev_div} is not positive"
            )


def conservative_constants() -> BoundConstants:
    """Defaults for near-regular patches.

    Per-patch Korn values are at most sqrt(8) on such meshes; the matching
    deviatoric-divergence value is 2 (C_Kz^2 - 1)^(1/2) = 2 sqrt(7).  Both
    are scaled by (d + 1) = 3 to cover overlapping patch sums.
    """
    return BoundConstants(
        korn=3.0 * np.sqrt(8.0),
        dev_div=6.0 * np.sqrt(7.0),
        provenance="default-regular-patch",
    )


# -- pointwise tensor algebra ---------------------------------------------------


def a_norm_sq(tau: np.ndarray, material: Material) -> np.ndarray:
    """Pointwise (A tau) : tau of value arrays (..., 2, 2), with the
    compliance A tau = (1/2mu) (tau - tr(tau)/(2 mu/lambda + d) I); the
    incompressible limit divides the trace term by d exactly."""
    trace_coef = 1.0 / (2.0 * material.mu * material.inv_lambda + _DIM)
    tr = tau[..., 0, 0] + tau[..., 1, 1]
    return (np.einsum("...rc,...rc->...", tau, tau) - trace_coef * tr**2) / (2.0 * material.mu)


def antisymmetric_norm_sq(tau: np.ndarray) -> np.ndarray:
    """|as tau|^2 = (tau_12 - tau_21)^2 / 2 pointwise."""
    return 0.5 * (tau[..., 0, 1] - tau[..., 1, 0]) ** 2


# -- estimator components ----------------------------------------------------------


def divergence_defect_sq(
    disc: Discretization, fields: FieldPair, inv_lambda: float
) -> np.ndarray:
    """Per-element integral of (div u_h - inv_lambda p_h)^2: eta_B^2 up to
    the factor 2 mu, and the last term of eta_R^2."""
    b_sq = np.empty(disc.mesh.n_triangles)
    for tb in disc.stress_chunks():
        grad_u, p = fields_at(fields, tb.elems, tb.vol_ref)
        b_val = grad_u[..., 0, 0] + grad_u[..., 1, 1] - inv_lambda * p
        b_sq[tb.elems] = np.einsum("eq,eq->e", tb.vol_w, b_val**2)
    return b_sq


def eta_components(
    disc: Discretization,
    sigma_delta: BrokenField,
    b_sq: np.ndarray,
    material: Material,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element (eta_A, eta_B, eta_C); quadrature-exact integrands.

    ``b_sq`` is :func:`divergence_defect_sq` of the discrete pair.
    """
    mesh = disc.mesh
    mu = material.mu
    eta_a = np.empty(mesh.n_triangles)
    eta_c = np.empty(mesh.n_triangles)
    for tb in disc.stress_chunks():
        vals = sigma_delta.values(tb)                       # (ne, nq, 2, 2)
        a_sq = a_norm_sq(vals, material)
        eta_a[tb.elems] = np.sqrt(
            np.maximum(np.einsum("eq,eq->e", tb.vol_w, a_sq), 0.0)
        )
        c_sq = antisymmetric_norm_sq(vals) / (2.0 * mu)
        eta_c[tb.elems] = np.sqrt(np.einsum("eq,eq->e", tb.vol_w, c_sq))
    return eta_a, np.sqrt(2.0 * mu * b_sq), eta_c


def _b_coefficient(material: Material, constants: BoundConstants) -> float:
    """Coefficient of the Sum eta_B^2 term; monotone increasing in lambda."""
    mu, t = material.mu, material.inv_lambda
    den = 2.0 * mu * t + _DIM
    return 2.0 * (2.0 * mu * t + _DIM + constants.dev_div**2) / den**2


def guaranteed_bound(
    eta_a: np.ndarray,
    eta_b: np.ndarray,
    eta_c: np.ndarray,
    material: Material,
    constants: BoundConstants,
    lambda_free: bool = False,
) -> float:
    """Guaranteed upper bound for the squared energy-norm error.

    With ``lambda_free=True`` the eta_B coefficient is evaluated at the
    incompressible limit, its supremum over lambda, making the bound valid
    independently of lambda.  Raises StressEqError when the bound is not a
    finite number (the data, material or constants overflow).
    """
    s_a = float(np.sum(np.square(eta_a)))
    s_b = float(np.sum(np.square(eta_b)))
    s_c = float(np.sum(np.square(eta_c)))
    mat_b = Material(mu=material.mu, inv_lambda=0.0) if lambda_free else material
    try:
        bound = (
            2.0 * s_a
            + _b_coefficient(mat_b, constants) * s_b
            + 4.0 * constants.korn**2 * s_c
        )
    except OverflowError:
        bound = float("inf")
    if not np.isfinite(bound):
        raise StressEqError(
            f"guaranteed bound is not finite ({bound}): mu {material.mu}, "
            f"inv_lambda {material.inv_lambda}, C_K {constants.korn}, "
            f"C_A {constants.dev_div}"
        )
    return bound


# -- residual estimator -------------------------------------------------------------


def residual_estimator(
    disc: Discretization,
    b_sq: np.ndarray,
    sigma_h: BrokenField,
    load: LoadData,
) -> np.ndarray:
    """Classical residual indicator per element.

    eta_R^2 = h_T^2 |proj f + div sigma_h|_T^2
            + sum over non-displacement sides of h_S |jump*|_S^2
            + |div u_h - inv_lambda p_h|_T^2,
    with the plain normal jump on interior sides and the traction defect
    sigma_h . n - proj g on traction sides.  ``b_sq`` is the last term,
    :func:`divergence_defect_sq` of the discrete pair.
    """
    mesh, k = disc.mesh, disc.k
    vol_sq = np.empty(mesh.n_triangles)
    for tb in disc.stress_chunks():
        resid = sigma_h.div_values(tb) + load.projected_volume(tb)[1]
        vol_sq[tb.elems] = np.einsum("eq,eqr->e", tb.vol_w, resid**2)

    tq, tw = side_rule(k)
    defect = side_jumps(disc, sigma_h)
    nsides = mesh.boundary_sides(NEUMANN)
    defect[nsides] -= load.projected_traction(mesh, nsides, k, tq)[1]
    active = mesh.side_label != DIRICHLET
    h_s = mesh.side_length
    side_sq = np.zeros(mesh.n_sides)
    side_sq[active] = h_s[active] * np.einsum("q,sqr->s", tw, defect[active] ** 2)

    eta_sq = mesh.h**2 * vol_sq + b_sq
    for j in range(3):  # side_sq is zero on displacement sides
        s = mesh.tri_sides[:, j]
        eta_sq += h_s[s] * side_sq[s]
    return np.sqrt(eta_sq)


def data_oscillation(
    disc: Discretization, load: LoadData
) -> tuple[np.ndarray, np.ndarray]:
    """h-weighted data approximation defects.

    Returns (per-element h_T |f - proj f|_T, per-traction-side
    h_S^(1/2) |g - proj g|_S); both vanish for piecewise-polynomial data
    of degree <= k (up to the quadrature used throughout).
    """
    mesh, k = disc.mesh, disc.k
    osc_f = np.empty(mesh.n_triangles)
    for tb in disc.stress_chunks():
        fv, proj_f = load.projected_volume(tb)
        defect = fv - proj_f
        osc_f[tb.elems] = mesh.h[tb.elems] * np.sqrt(
            np.einsum("eq,eqr->e", tb.vol_w, defect**2)
        )
    nsides = mesh.boundary_sides(NEUMANN)
    osc_g = np.zeros(len(nsides))
    if nsides.size:
        tq, tw = side_rule(k)
        gv, pg = load.projected_traction(mesh, nsides, k, tq)
        lens = mesh.side_length[nsides]
        osc_g = np.sqrt(lens) * np.sqrt(
            lens * np.einsum("q,sqc->s", tw, (gv - pg) ** 2)
        )
    return osc_f, osc_g


# -- energy errors -------------------------------------------------------------------


def _add_energy(total: float, wq, dg, dp, material: Material) -> float:
    """total + the squared energy norm of the gradient and pressure
    differences (dg, dp) under the weights wq."""
    eps = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    strain = 2.0 * material.mu * np.einsum("eqrc,eqrc->eq", eps, eps)
    return (
        total
        + float(np.einsum("eq,eq->", wq, strain))
        + float(np.einsum("eq,eq->", wq, material.inv_lambda * dp**2))
    )


def energy_error(
    fields: FieldPair, exact: ExactSolution, material: Material
) -> float:
    """Energy-norm distance to an analytic solution.

    Uses a quadrature rule four degrees beyond the exactness needed for
    the discrete part, so the non-polynomial reference is integrated far
    below the discretization error on any practical mesh.
    """
    mesh, k = fields.disc.mesh, fields.disc.k
    rq, rw = triangle_rule(2 * k + 8)
    total = 0.0
    for elems in element_chunks(mesh.n_triangles):
        xq, wq = mesh.rule_points(elems, rq, rw)
        grad_uh, ph = fields_at(fields, elems, rq)
        dg = exact.displacement_gradient(xq) - grad_uh
        total = _add_energy(total, wq, dg, exact.pressure(xq) - ph, material)
    return float(np.sqrt(total))


def reference_energy_errors(
    coarse: list[FieldPair],
    reference: FieldPair,
    chain: list[Mesh],
    material: Material,
) -> np.ndarray:
    """Energy-norm distance of each coarse pair to a solution on a nested
    finer mesh.

    ``coarse[i]`` lives on ``chain[i]`` and ``reference`` on ``chain[-1]``;
    each mesh after the first carries the parent array of its refinement.
    Integration runs over the reference mesh, where both fields are
    polynomial, so the quadrature is exact.  The reference fields are
    evaluated once per chunk of fine elements, for every coarse pair.
    """
    fmesh, k = reference.disc.mesh, reference.disc.k
    rq, rw = volume_rule(k)
    ancestors = [compose_ancestry(chain[i:]) for i in range(len(coarse))]
    totals = [0.0] * len(coarse)
    for elems in element_chunks(fmesh.n_triangles):
        xq, wq = fmesh.rule_points(elems, rq, rw)
        grad_fine, p_fine = fields_at(reference, elems, rq)
        for i, fields in enumerate(coarse):
            # coarse fields at the same physical points
            ce = ancestors[i][elems]
            ref_c = fields.disc.mesh.reference_points(ce, xq)
            grad_coarse, p_coarse = fields_at(fields, ce, ref_c)
            totals[i] = _add_energy(
                totals[i], wq, grad_fine - grad_coarse, p_fine - p_coarse, material
            )
    return np.sqrt(totals)


def compose_ancestry(meshes) -> np.ndarray:
    """Map each element of the last mesh to its ancestor in the first.

    ``meshes`` is the refinement chain; every mesh after the first must
    carry the parent array produced by refinement.
    """
    anc = np.arange(meshes[-1].n_triangles)
    for m in reversed(meshes[1:]):
        if m.parent is None:
            raise ValueError("mesh chain lacks refinement lineage")
        anc = m.parent[anc]
    return anc


# -- efficiency ratio ------------------------------------------------------------------


def neighborhood_ratio(
    mesh: Mesh,
    eta_a: np.ndarray,
    eta_b: np.ndarray,
    eta_c: np.ndarray,
    eta_r: np.ndarray,
) -> float:
    """max over elements of (eta_A^2+eta_B^2+eta_C^2) / sum of eta_R^2 over
    the vertex-neighborhood of the element; the efficiency constant.

    The neighborhood of an element is every element that shares a vertex
    with it: the nonzeros of its row of T T^T, with T the triangle-vertex
    incidence matrix."""
    nt = mesh.n_triangles
    incidence = scipy.sparse.csr_matrix(
        (np.ones(3 * nt), mesh.triangles.ravel(), np.arange(0, 3 * nt + 1, 3)),
        shape=(nt, mesh.n_vertices),
    )
    den = ((incidence @ incidence.T) > 0) @ eta_r**2
    num = eta_a**2 + eta_b**2 + eta_c**2
    pos = den > 0.0
    return float(np.max(num[pos] / den[pos], initial=0.0))


# -- report -------------------------------------------------------------------------


@dataclass
class EstimatorReport:
    """Per-element estimator data plus the global bound for one solve."""

    eta_A: np.ndarray
    eta_B: np.ndarray
    eta_C: np.ndarray
    eta_R: np.ndarray
    material: Material
    constants: BoundConstants
    energy_error: float | None = None

    @property
    def eta_T(self) -> np.ndarray:
        return np.sqrt(self.eta_A**2 + self.eta_B**2 + self.eta_C**2)

    @property
    def eta_A_total(self) -> float:
        return float(np.sqrt(np.sum(self.eta_A**2)))

    @property
    def eta_B_total(self) -> float:
        return float(np.sqrt(np.sum(self.eta_B**2)))

    @property
    def eta_C_total(self) -> float:
        return float(np.sqrt(np.sum(self.eta_C**2)))

    @property
    def eta_total(self) -> float:
        return float(
            np.sqrt(np.sum(self.eta_A**2 + self.eta_B**2 + self.eta_C**2))
        )

    def _bound(self, constants: BoundConstants, lambda_free: bool = False) -> float:
        return guaranteed_bound(
            self.eta_A, self.eta_B, self.eta_C, self.material, constants, lambda_free
        )

    @property
    def bound(self) -> float:
        return self._bound(self.constants)

    @property
    def bound_conservative(self) -> float:
        return self._bound(conservative_constants())

    @property
    def bound_lambda_free(self) -> float:
        return self._bound(self.constants, lambda_free=True)

    @property
    def effectivity(self) -> float | None:
        if self.energy_error is None or self.energy_error == 0.0:
            return None
        return float(np.sqrt(self.bound)) / self.energy_error


def estimate(
    disc: Discretization,
    fields: FieldPair,
    sigma_h: BrokenField,
    sigma_delta: BrokenField,
    load: LoadData,
    material: Material,
    constants: BoundConstants,
) -> EstimatorReport:
    """Full estimator report for one solved mesh."""
    b_sq = divergence_defect_sq(disc, fields, material.inv_lambda)
    eta_a, eta_b, eta_c = eta_components(disc, sigma_delta, b_sq, material)
    eta_r = residual_estimator(disc, b_sq, sigma_h, load)
    return EstimatorReport(
        eta_A=eta_a,
        eta_B=eta_b,
        eta_C=eta_c,
        eta_R=eta_r,
        material=material,
        constants=constants,
    )
