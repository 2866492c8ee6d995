"""Adaptive solve-estimate-mark-refine driver.

Each step (:func:`solve_step`) solves the saddle-point system,
reconstructs the equilibrated stress, and computes the estimator report;
between steps a bulk (Doerfler) criterion marks the smallest set of largest
indicators and the mesh is bisected.  A run's history is the list of its
:class:`Step` records: they keep every mesh, solution and reconstruction,
but not the per-step tables, so energy errors against the finest level can
be attached after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elasticity import (
    FieldPair,
    Material,
    assemble_system,
    direct_stress,
    solve,
)
from .equilibration import equilibrate
from .errors import ConfigError, StressEqError
from .estimator import (
    BoundConstants,
    EstimatorReport,
    conservative_constants,
    energy_error,
    estimate,
    reference_energy_errors,
)
from .mesh import Mesh, refine, uniform_refine
from .problems import Problem
from .spaces import SUPPORTED_DEGREES, BrokenField, Discretization

_ESTIMATORS = ("equilibrated", "residual")
_MODES = ("adaptive", "uniform")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of one adaptive (or uniform) refinement run."""

    k: int = 1
    theta: float = 0.5
    max_steps: int = 1
    max_dofs: int | None = None
    estimator: str = "equilibrated"
    mode: str = "adaptive"
    uniform_rounds: int = 2
    constants: BoundConstants = field(default_factory=conservative_constants)

    def __post_init__(self):
        if self.k not in SUPPORTED_DEGREES:
            raise ConfigError(f"polynomial degree {self.k} not in {SUPPORTED_DEGREES}")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"marking fraction {self.theta} outside (0, 1]")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps {self.max_steps} is below 1")
        if self.max_dofs is not None and self.max_dofs < 1:
            raise ConfigError(f"max_dofs {self.max_dofs} is below 1")
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(
                f"estimator {self.estimator!r} not in {_ESTIMATORS}"
            )
        if self.mode not in _MODES:
            raise ConfigError(f"mode {self.mode!r} not in {_MODES}")


def doerfler_mark(eta: np.ndarray, theta: float) -> np.ndarray:
    """Smallest set of largest indicators with
    sum of marked eta^2 >= theta^2 * total; ties broken by element index.

    Returns ascending element indices; empty when every indicator is zero,
    every positive indicator when theta == 1.
    """
    if not (0.0 < theta <= 1.0):
        raise ConfigError(f"marking fraction {theta} outside (0, 1]")
    eta = np.asarray(eta, dtype=float)
    # squared after scaling by the power of two that puts the largest
    # indicator in [0.5, 1): the scaling is exact, so the marking does not
    # depend on the indicators' scale even where their squares underflow
    sq = np.ldexp(eta, -np.frexp(eta.max(initial=0.0))[1]) ** 2
    total = float(np.sum(sq))
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    if theta == 1.0:
        return np.flatnonzero(eta > 0.0).astype(np.int64)
    order = np.lexsort((np.arange(len(eta)), -eta))
    csum = np.cumsum(sq[order])
    nsel = int(np.searchsorted(csum, theta**2 * total, side="left")) + 1
    nsel = min(nsel, len(eta))
    return np.sort(order[:nsel])


@dataclass
class Step:
    """One solved mesh: the Taylor-Hood pair, the equilibrated stress
    sigma_r with the scale of its residual gates, the estimator report, and
    the elements marked for the next mesh (None when the loop did not mark).

    It keeps neither sigma_h nor the equilibrator: the equilibrator holds the
    step's constraint and rhs tables, which a long history must not keep.
    """

    fields: FieldPair
    sigma_r: BrokenField
    scale: float
    report: EstimatorReport
    marked: np.ndarray | None = None

    @property
    def disc(self) -> Discretization:
        return self.fields.disc

    @property
    def mesh(self) -> Mesh:
        return self.fields.mesh

    @property
    def n_dofs(self) -> int:
        return self.fields.u.size + self.fields.p.size

    @property
    def error(self) -> float | None:
        return self.report.energy_error

    @property
    def effectivity(self) -> float | None:
        return self.report.effectivity


def solve_step(
    problem: Problem, mesh: Mesh, k: int, constants: BoundConstants
) -> Step:
    """Solve, equilibrate and estimate on one mesh.

    The energy error is filled in when the problem has an exact solution.
    """
    disc = Discretization(mesh, k)
    fields = solve(assemble_system(disc, problem.material, problem.load))
    sigma_h = direct_stress(fields, problem.material)
    delta, sigma_r, eq = equilibrate(disc, sigma_h, problem.load)
    report = estimate(
        disc, fields, sigma_h, delta, problem.load, problem.material, constants
    )
    if problem.exact is not None:
        report.energy_error = energy_error(fields, problem.exact, problem.material)
    return Step(fields, sigma_r, eq.scale, report)


def adaptive_loop(problem: Problem, config: AdaptiveConfig) -> list[Step]:
    """Run solve/equilibrate/estimate steps with refinement in between.

    Exactly one step per solve, in order, and dof counts strictly increase;
    the mesh is refined between steps, never after the last.  A step's
    tables are released before the loop moves to the next mesh.  Any
    component failure is re-raised with the step index prefixed.
    """
    history: list[Step] = []
    mesh = problem.mesh
    for i in range(config.max_steps):
        try:
            step = solve_step(problem, mesh, config.k, config.constants)
            if history and step.n_dofs <= history[-1].n_dofs:
                raise StressEqError(
                    f"dof count stalled: {history[-1].n_dofs} -> {step.n_dofs}"
                )
            history.append(step)
            if i == config.max_steps - 1:
                break
            if config.max_dofs is not None and step.n_dofs >= config.max_dofs:
                break
            step.disc.release_tables()
            if config.mode == "uniform":
                mesh = uniform_refine(mesh, config.uniform_rounds)
            else:
                report = step.report
                indicator = (
                    report.eta_R
                    if config.estimator == "residual"
                    else report.eta_T
                )
                step.marked = doerfler_mark(indicator, config.theta)
                mesh = refine(mesh, step.marked)
        except StressEqError as exc:
            if str(exc).startswith("step "):
                raise
            raise type(exc)(f"step {i}: {exc}") from exc
    return history


# The run's finest level is the reference of attach_reference_errors; the
# errors of this many last levels, the reference included, stay unset.
_SKIP_LAST = 2


def attach_reference_errors(history: list[Step], material: Material) -> None:
    """Fill energy errors against the finest solution of the run.

    The finest level acts as the reference; its own error and that of the
    level before it stay unset because the proxy is no longer trustworthy
    there.

    The reference is only two adaptive steps finer than the last reported
    step, so the errors of the last reported steps read low and their
    effectivities high.  Against the final mesh bisected uniformly 3 times,
    the 14-step Cook run (theta 0.5) reads 27 % and 33 % low on its last
    two reported steps; against the exact error of ``manufactured_smooth``
    (8 steps, inv_lambda 0 and 0.5) the last reported step reads 26-31 %
    low.
    """
    if len(history) <= _SKIP_LAST:
        return
    reported = history[: len(history) - _SKIP_LAST]
    errors = reference_energy_errors(
        [step.fields for step in reported],
        history[-1].fields,
        [step.mesh for step in history],
        material,
    )
    for step, error in zip(reported, errors):
        step.report.energy_error = float(error)
