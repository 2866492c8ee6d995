"""Adaptive solve-estimate-mark-refine driver.

Each step (:func:`solve_step`) solves the saddle-point system,
reconstructs the equilibrated stress, and computes the estimator report;
between steps a bulk (Doerfler) criterion marks the smallest set of largest
indicators and the mesh is bisected.  Histories keep every mesh, solution
and reconstruction, but not the per-step tables, so energy errors against
the finest level can be attached after the run.
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
from .equilibration import Equilibrator, equilibrate
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
from .spaces import BrokenField, Discretization

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
        if self.k not in (1, 2):
            raise ConfigError(f"polynomial degree {self.k} not in (1, 2)")
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
    sigma_r = sigma_h + delta, its equilibrator, and the estimator report."""

    disc: Discretization
    fields: FieldPair
    sigma_h: BrokenField
    delta: BrokenField
    sigma_r: BrokenField
    eq: Equilibrator
    report: EstimatorReport


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
    return Step(disc, fields, sigma_h, delta, sigma_r, eq, report)


@dataclass
class StepRecord:
    """What later stages read of one solve of the loop."""

    step: int
    n_dofs: int
    mesh: Mesh
    fields: FieldPair
    report: EstimatorReport
    sigma_r: BrokenField
    scale: float
    marked: np.ndarray | None = None

    @property
    def error(self) -> float | None:
        return self.report.energy_error

    @property
    def effectivity(self) -> float | None:
        return self.report.effectivity


@dataclass
class RunHistory:
    """Ordered step records of one run; dof counts strictly increase."""

    records: list[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord):
        if self.records and rec.n_dofs <= self.records[-1].n_dofs:
            raise StressEqError(
                f"dof count stalled at step {rec.step}: "
                f"{self.records[-1].n_dofs} -> {rec.n_dofs}"
            )
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i) -> StepRecord:
        return self.records[i]

    @property
    def meshes(self) -> list[Mesh]:
        return [r.mesh for r in self.records]

    @property
    def n_dofs(self) -> np.ndarray:
        return np.array([r.n_dofs for r in self.records])

    def totals(self, name: str) -> np.ndarray:
        """Per-step global value: eta_A/eta_B/eta_C/eta_total/bound."""
        key = {
            "eta_A": "eta_A_total",
            "eta_B": "eta_B_total",
            "eta_C": "eta_C_total",
            "eta_total": "eta_total",
            "bound": "bound",
        }[name]
        return np.array([getattr(r.report, key) for r in self.records])


def adaptive_loop(problem: Problem, config: AdaptiveConfig) -> RunHistory:
    """Run solve/equilibrate/estimate steps with refinement in between.

    Exactly one record per solve; the mesh is refined between steps, never
    after the last.  A step's tables are released before the loop moves
    to the next mesh.  Any component failure is re-raised with the step
    index prefixed.
    """
    history = RunHistory()
    mesh = problem.mesh
    for step in range(config.max_steps):
        try:
            solved = solve_step(problem, mesh, config.k, config.constants)
            fields, report = solved.fields, solved.report
            rec = StepRecord(
                step=step,
                n_dofs=fields.u.size + fields.p.size,
                mesh=mesh,
                fields=fields,
                report=report,
                sigma_r=solved.sigma_r,
                scale=solved.eq.scale,
            )
            history.append(rec)
            if step == config.max_steps - 1:
                break
            if config.max_dofs is not None and rec.n_dofs >= config.max_dofs:
                break
            solved.disc.release_tables()
            if config.mode == "uniform":
                mesh = uniform_refine(mesh, config.uniform_rounds)
            else:
                indicator = (
                    report.eta_R
                    if config.estimator == "residual"
                    else report.eta_T
                )
                rec.marked = doerfler_mark(indicator, config.theta)
                mesh = refine(mesh, rec.marked)
        except StressEqError as exc:
            if str(exc).startswith("step "):
                raise
            raise type(exc)(f"step {step}: {exc}") from exc
    return history


# The run's finest level is the reference of attach_reference_errors; the
# errors of this many last levels, the reference included, stay unset.
_SKIP_LAST = 2


def attach_reference_errors(history: RunHistory, material: Material) -> None:
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
    reported = history.records[: len(history) - _SKIP_LAST]
    errors = reference_energy_errors(
        [rec.fields for rec in reported],
        history.records[-1].fields,
        history.meshes,
        material,
    )
    for rec, error in zip(reported, errors):
        rec.report.energy_error = float(error)
