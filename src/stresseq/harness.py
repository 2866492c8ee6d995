"""Command-line driver: configs, run orchestration, result files.

Config files are flat ``key = value`` text.  Recognized keys (defaults in
parentheses):

  problem      built-in problem name: cook | manufactured-smooth |
               square-lshape                       (cook)
  k            polynomial degree, one of
               spaces.SUPPORTED_DEGREES            (1)
  mu           shear modulus, > 0                  (1.0)
  inv_lambda   reciprocal of the first Lame
               parameter lambda; 0 means
               incompressible                      (0.0)
  theta        bulk marking fraction in (0, 1]     (0.5)
  steps        number of solves                    (1)
  estimator    marking indicator:
               equilibrated | residual             (equilibrated)
  mode         adaptive | uniform                  (adaptive)
  C_K, C_A     bound constants; both or neither    (conservative defaults)
  output_dir   where result files go               (out)
  save_mesh    true | false, dump the final mesh   (false)
  mesh_file    replace the initial mesh by one
               loaded from this path               (unset)
  max_dofs     stop refining once the dof count
               reaches this                        (unset)

Blank lines and ``#`` comments are ignored; unknown keys and malformed
values are configuration errors.  The environment variable
``STRESSEQ_OUTPUT_DIR`` overrides ``output_dir``.

``run`` writes ``history.csv`` (one row per step: step, N, eta_A, eta_B,
eta_C, eta_total, bound, error, effectivity — ``bound`` is the guaranteed
bound on the squared error), ``estimator_final.csv`` (per-element
indicators on the last mesh), ``summary.csv`` (global scalars),
``equilibration.txt`` (reconstruction residual diagnostics), and
``config_used.txt``.  All numbers carry 17 significant digits; reruns of
the same config on one machine and BLAS build are byte-identical.  Exit codes: 0 success, 2 configuration error,
3 problem definition error, 4 file error, 1 any other solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .adaptivity import (
    AdaptiveConfig,
    Step,
    adaptive_loop,
    attach_reference_errors,
    solve_step,
)
from .elasticity import Material
from .equilibration import verify_equilibration
from .errors import ConfigError, IoError, ProblemError, StressEqError
from .estimator import BoundConstants, conservative_constants
from .mesh import DIRICHLET, NEUMANN, angles, read_mesh, write_mesh
from .problems import make_problem

_FLOAT = "%.17g"


@dataclass(frozen=True)
class RunConfig:
    """One run as described by a config file."""

    problem: str = "cook"
    k: int = 1
    mu: float = 1.0
    inv_lambda: float = 0.0
    theta: float = 0.5
    steps: int = 1
    estimator: str = "equilibrated"
    mode: str = "adaptive"
    C_K: float | None = None
    C_A: float | None = None
    output_dir: str = "out"
    save_mesh: bool = False
    mesh_file: str | None = None
    max_dofs: int | None = None

    def constants(self) -> BoundConstants:
        if (self.C_K is None) != (self.C_A is None):
            raise ConfigError("C_K and C_A must be given together")
        if self.C_K is None:
            return conservative_constants()
        return BoundConstants(korn=self.C_K, dev_div=self.C_A)

    def adaptive(self) -> AdaptiveConfig:
        """The loop parameters of this run; raises ConfigError on a value
        the loop does not accept."""
        return AdaptiveConfig(
            k=self.k,
            theta=self.theta,
            max_steps=self.steps,
            max_dofs=self.max_dofs,
            estimator=self.estimator,
            mode=self.mode,
            constants=self.constants(),
        )


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


_PARSERS = {
    "problem": str,
    "k": int,
    "mu": float,
    "inv_lambda": float,
    "theta": float,
    "steps": int,
    "estimator": str,
    "mode": str,
    "C_K": float,
    "C_A": float,
    "output_dir": str,
    "save_mesh": _parse_bool,
    "mesh_file": str,
    "max_dofs": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:  # pragma: no cover - guarded by key check
        raise ConfigError(str(exc)) from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for name in ("mu", "inv_lambda", "theta", "C_K", "C_A"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} {value} is not finite")
    if cfg.mu <= 0.0:
        raise ConfigError(f"mu {cfg.mu} is not positive")
    if cfg.inv_lambda < 0.0:
        raise ConfigError(f"inv_lambda {cfg.inv_lambda} is negative")
    cfg.adaptive()


def emit_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse(emit(cfg)) == cfg."""
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# -- serialization ------------------------------------------------------------


def _fmt(v) -> str:
    return _FLOAT % v


def emit_history(history: list[Step], path) -> None:
    """Write the per-step convergence table, one row per step in order."""
    rows = ["step,N,eta_A,eta_B,eta_C,eta_total,bound,error,effectivity"]
    for i, step in enumerate(history):
        rep = step.report
        err = "" if step.error is None else _fmt(step.error)
        eff = "" if step.effectivity is None else _fmt(step.effectivity)
        rows.append(
            f"{i},{step.n_dofs},{_fmt(rep.eta_A_total)},"
            f"{_fmt(rep.eta_B_total)},{_fmt(rep.eta_C_total)},"
            f"{_fmt(rep.eta_total)},{_fmt(rep.bound)},{err},{eff}"
        )
    _write_text(path, "\n".join(rows) + "\n")


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _emit_final_report(history: list[Step], path) -> None:
    rep = history[-1].report
    rows = ["element,eta_A,eta_B,eta_C,eta_T,eta_R"]
    eta_t = rep.eta_T
    for e in range(len(rep.eta_A)):
        rows.append(
            f"{e},{_fmt(rep.eta_A[e])},{_fmt(rep.eta_B[e])},"
            f"{_fmt(rep.eta_C[e])},{_fmt(eta_t[e])},{_fmt(rep.eta_R[e])}"
        )
    _write_text(path, "\n".join(rows) + "\n")


def _emit_summary(history: list[Step], path) -> None:
    final = history[-1]
    rep = final.report
    c = rep.constants
    pairs = [
        ("steps", str(len(history))),
        ("N_final", str(final.n_dofs)),
        ("eta_A", _fmt(rep.eta_A_total)),
        ("eta_B", _fmt(rep.eta_B_total)),
        ("eta_C", _fmt(rep.eta_C_total)),
        ("eta_total", _fmt(rep.eta_total)),
        ("bound", _fmt(rep.bound)),
        ("bound_lambda_free", _fmt(rep.bound_lambda_free)),
        ("bound_conservative", _fmt(rep.bound_conservative)),
        ("C_K", _fmt(c.korn)),
        ("C_A", _fmt(c.dev_div)),
        ("constants_provenance", c.provenance),
        ("mu", _fmt(rep.material.mu)),
        ("inv_lambda", _fmt(rep.material.inv_lambda)),
    ]
    if final.error is not None:
        pairs.append(("error", _fmt(final.error)))
        pairs.append(("effectivity", _fmt(final.effectivity)))
    rows = ["quantity,value"] + [f"{k},{v}" for k, v in pairs]
    _write_text(path, "\n".join(rows) + "\n")


def _equilibration_lines(report) -> list[str]:
    return [
        f"scale {_fmt(report.scale)}",
        f"divergence_residual {_fmt(report.div_residual)}",
        f"jump_residual {_fmt(report.jump_residual)}",
        f"neumann_residual {_fmt(report.neumann_residual)}",
        f"symmetry_residual {_fmt(report.symmetry_residual)}",
        f"max_residual {_fmt(report.max_residual)}",
    ]


def _emit_equilibration(report, path) -> None:
    _write_text(path, "\n".join(_equilibration_lines(report)) + "\n")


# -- orchestration -------------------------------------------------------------


def _build_problem(cfg: RunConfig):
    material = Material(mu=cfg.mu, inv_lambda=cfg.inv_lambda)
    problem = make_problem(cfg.problem, material)
    if cfg.mesh_file is not None:
        if not os.path.exists(cfg.mesh_file):
            raise ConfigError(f"mesh file {cfg.mesh_file} does not exist")
        problem = dataclasses.replace(problem, mesh=read_mesh(cfg.mesh_file))
    return problem


def _output_dir(cfg: RunConfig) -> str:
    out = os.environ.get("STRESSEQ_OUTPUT_DIR", cfg.output_dir)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out}: {exc}") from exc
    return out


def run(config_path) -> None:
    """Execute one config: adaptive run plus result files."""
    cfg = load_config(config_path)
    problem = _build_problem(cfg)
    settings = cfg.adaptive()
    out = _output_dir(cfg)
    history = adaptive_loop(problem, settings)
    if problem.exact is None and len(history) > 3:
        attach_reference_errors(history, problem.material)
    emit_history(history, os.path.join(out, "history.csv"))
    _emit_final_report(history, os.path.join(out, "estimator_final.csv"))
    _emit_summary(history, os.path.join(out, "summary.csv"))

    final = history[-1]
    diag = verify_equilibration(
        final.disc, final.sigma_r, problem.load, scale=final.scale
    )
    _emit_equilibration(diag, os.path.join(out, "equilibration.txt"))
    if cfg.save_mesh:
        write_mesh(final.mesh, os.path.join(out, "mesh_final.txt"))
    _write_text(os.path.join(out, "config_used.txt"), emit_config(cfg))


def verify(config_path) -> None:
    """Equilibration diagnostics only, on the config's initial mesh."""
    cfg = load_config(config_path)
    problem = _build_problem(cfg)
    step = solve_step(problem, problem.mesh, cfg.k, cfg.constants())
    diag = verify_equilibration(
        step.disc, step.sigma_r, problem.load, scale=step.scale
    )
    ok = diag.max_residual <= 1e-9 * diag.scale
    print("\n".join(_equilibration_lines(diag)) + f" ({'ok' if ok else 'FAIL'})")
    if not ok:
        raise StressEqError(
            f"equilibration residual {diag.max_residual:.3e} exceeds "
            f"1e-9 * scale {diag.scale:.3e}"
        )


def mesh_info(mesh_path) -> None:
    """Print counts and quality statistics of a stored mesh."""
    mesh = read_mesh(mesh_path)
    ang = angles(mesh)
    print(f"vertices {mesh.n_vertices}")
    print(f"triangles {mesh.n_triangles}")
    print(f"sides {mesh.n_sides}")
    print(f"dirichlet_sides {len(mesh.boundary_sides(DIRICHLET))}")
    print(f"neumann_sides {len(mesh.boundary_sides(NEUMANN))}")
    print(f"min_angle_deg {_fmt(np.degrees(ang.min()))}")
    print(f"max_angle_deg {_fmt(np.degrees(ang.max()))}")
    print(f"h_max {_fmt(mesh.h.max())}")
    print(f"h_min {_fmt(mesh.h.min())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stresseq",
        description="Adaptive elasticity solver with guaranteed error bounds.",
        epilog="STRESSEQ_OUTPUT_DIR overrides the configured output_dir.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config end to end")
    p_run.add_argument("config", help="path to a key=value config file")
    p_ver = sub.add_parser("verify", help="equilibration diagnostics only")
    p_ver.add_argument("config", help="path to a key=value config file")
    p_info = sub.add_parser("mesh-info", help="describe a stored mesh")
    p_info.add_argument("meshfile", help="path to a mesh exchange file")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run(args.config)
        elif args.command == "verify":
            verify(args.config)
        else:
            mesh_info(args.meshfile)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ProblemError as exc:
        print(f"error: problem: {exc}", file=sys.stderr)
        return 3
    except IoError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    except StressEqError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
