"""Output checker: result files against recorded references, and step gates.

A run is checked in two ways.

* Agreement: ``history.csv``, ``summary.csv``, ``estimator_final.csv`` and
  ``equilibration.txt`` are parsed and compared with the references in
  ``reference/<workload>/`` cell by cell within a tolerance.  Whether each
  file is also byte-identical is reported separately.
* Step gates: an operation is one solved step.  A step fails when the run
  exits non-zero, when ``verify_equilibration`` of its reconstruction has a
  max residual above 1e-9 * scale, or when its squared reference error
  exceeds its guaranteed bound.  The reconstructions are captured by
  ``capture_steps`` and verified after the timed call.
"""

from __future__ import annotations

import contextlib
import gzip
import math
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, patched, traced

CHECKED_FILES = ("history.csv", "summary.csv", "estimator_final.csv", "equilibration.txt")
RESIDUAL_GATE = 1e-9  # verification residual relative to the scale
RTOL = 1e-6           # agreement of a value with its reference ...
ATOL_SHARE = 1e-12    # ... or within this share of the column's largest value
# Residuals in equilibration.txt are rounding-level: they agree when they
# differ by less than the gate, or by less than half the reference value.
RESIDUAL_ATOL = RESIDUAL_GATE
RESIDUAL_RTOL = 0.5


# -- agreement with the reference ---------------------------------------------------


def _table(text: str, sep: str | None) -> list[list[str]]:
    return [line.split(sep) for line in text.splitlines() if line.strip()]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def compare_table(name: str, got: str, ref: str, sep: str | None, atol_fixed=None) -> list[str]:
    """Cell-by-cell agreement; returns one message per disagreement."""
    g, r = _table(got, sep), _table(ref, sep)
    if [len(row) for row in g] != [len(row) for row in r]:
        return [f"{name}: rows or columns differ from the reference"]
    columns = max((len(row) for row in r), default=0)
    col_max = [
        max((abs(float(row[c])) for row in r if c < len(row) and _is_number(row[c])), default=0.0)
        for c in range(columns)
    ]
    problems = []
    for i, (grow, rrow) in enumerate(zip(g, r)):
        for c, (a, b) in enumerate(zip(grow, rrow)):
            if a == b:
                continue
            if not (_is_number(a) and _is_number(b)):
                problems.append(f"{name} line {i + 1} column {c + 1}: {a!r} != {b!r}")
                continue
            x, y = float(a), float(b)
            atol = atol_fixed(rrow) if atol_fixed else ATOL_SHARE * col_max[c]
            if not abs(x - y) <= RTOL * abs(y) + atol:
                problems.append(f"{name} line {i + 1} column {c + 1}: {a} vs reference {b}")
    return problems


def _equilibration_atol(ref_text: str):
    """Tolerance of each residual line; the scale itself agrees by RTOL."""
    scale = float(dict(_table(ref_text, None))["scale"])
    return lambda row: (
        0.0 if row[0] == "scale" else RESIDUAL_ATOL * scale + RESIDUAL_RTOL * abs(float(row[1]))
    )


def compare_outputs(out_dir: Path, ref_dir: Path) -> tuple[list[str], dict[str, bool]]:
    """(disagreements, byte identity per file) of a run's outputs."""
    problems, identical = [], {}
    for fname in CHECKED_FILES:
        ref_path = ref_dir / (fname + ".gz")
        out_path = out_dir / fname
        if not ref_path.exists():
            problems.append(f"no reference {ref_path.name}")
            continue
        if not out_path.exists():
            problems.append(f"{fname} was not written")
            continue
        ref = gzip.decompress(ref_path.read_bytes())
        got = out_path.read_bytes()
        identical[fname] = got == ref
        if fname == "equilibration.txt":
            problems += compare_table(
                fname, got.decode(), ref.decode(), None, _equilibration_atol(ref.decode())
            )
        else:
            problems += compare_table(fname, got.decode(), ref.decode(), ",")
    return problems, identical


def record_reference(out_dir: Path, ref_dir: Path) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    for fname in CHECKED_FILES:
        data = (out_dir / fname).read_bytes()
        (ref_dir / (fname + ".gz")).write_bytes(gzip.compress(data, mtime=0))


# -- step gates ---------------------------------------------------------------------------


@dataclass
class StepCheck:
    step: int
    n_dofs: int
    residual_rel: float          # verify max residual / scale
    error: float | None
    bound: float
    reasons: list[str]

    @property
    def effectivity(self) -> float | None:
        if self.error is None or self.error == 0.0:
            return None
        return math.sqrt(self.bound) / self.error


def parse_history(text: str) -> list[dict]:
    rows = _table(text, ",")
    header = rows[0]
    return [dict(zip(header, row + [""] * (len(header) - len(row)))) for row in rows[1:]]


def gate_steps(history: list[dict], residual_rel: list[float]) -> list[StepCheck]:
    """One StepCheck per history row, with the reasons it fails (if any)."""
    checks = []
    for i, row in enumerate(history):
        error = float(row["error"]) if row["error"] else None
        bound = float(row["bound"])
        rel = residual_rel[i] if i < len(residual_rel) else math.inf
        reasons = []
        if not rel <= RESIDUAL_GATE:
            reasons.append(f"verify residual {rel:.3g} * scale > {RESIDUAL_GATE:g} * scale")
        if error is not None and not error * error <= bound:
            reasons.append(f"err^2 {error * error:.6g} > bound {bound:.6g}")
        checks.append(StepCheck(int(row["step"]), int(row["N"]), rel, error, bound, reasons))
    return checks


@contextlib.contextmanager
def capture_steps(captured: list):
    """Record (disc, load, sigma_r, scale) of each step of ``adaptive_loop``.

    Wraps ``equilibrate`` as ``stresseq.adaptivity`` calls it; the final
    re-solve in ``harness.run`` is not a step and is not captured.
    """
    import stresseq.adaptivity as adaptivity

    inner = adaptivity.equilibrate

    def capturing(disc, sigma_h, load):
        result = inner(disc, sigma_h, load)
        captured.append((disc, load, result[1], result[2].scale))
        return result

    with patched([(adaptivity, "equilibrate", capturing)]):
        yield


def verify_captured(captured: list) -> list[float]:
    """max residual / scale of each captured reconstruction."""
    from stresseq.equilibration import verify_equilibration

    rels = []
    for disc, load, sigma_r, scale in captured:
        report = verify_equilibration(disc, sigma_r, load, scale=scale)
        rels.append(report.max_residual / report.scale)
    return rels


# -- self-test ------------------------------------------------------------------------------


def self_test() -> list[str]:
    """Check the checker and the wrappers; returns what went wrong."""
    import numpy as np
    import stresseq.adaptivity as adaptivity
    import stresseq.elasticity as elasticity
    import stresseq.harness as harness
    from stresseq.equilibration import Equilibrator

    problems = []
    history = parse_history(
        "step,N,eta_A,eta_B,eta_C,eta_total,bound,error,effectivity\n"
        "0,10,1,1,1,1,4.0,1.5,\n"   # err^2 = 2.25 <= 4: passes
        "1,20,1,1,1,1,1.0,1.5,\n"   # err^2 = 2.25 > 1: fails
        "2,30,1,1,1,1,1.0,,\n"      # no error; residual above the gate: fails
    )
    failing = [c.step for c in gate_steps(history, [1e-12, 1e-12, 2e-9]) if c.reasons]
    if failing != [1, 2]:
        problems.append(f"gate_steps flagged steps {failing}, expected [1, 2]")
    if not gate_steps(history[:1], [])[0].reasons:
        problems.append("a step without a verified reconstruction was not counted failed")

    tracer = Tracer()
    sentinel = object()
    if tracer.wrap("probe", lambda: sentinel)() is not sentinel:
        problems.append("a wrapper did not return the wrapped function's result")
    try:
        tracer.wrap("probe", lambda: 1 / 0)()
        problems.append("a wrapper swallowed an exception")
    except ZeroDivisionError:
        pass
    if tracer._open or len(tracer.spans) != 2:
        problems.append("a wrapper left a span open")
    eta = np.linspace(1.0, 0.0, 17) ** 2
    wrapped = tracer.wrap("probe", adaptivity.doerfler_mark)
    if not np.array_equal(wrapped(eta, 0.5), adaptivity.doerfler_mark(eta, 0.5)):
        problems.append("wrapped doerfler_mark differs from the unwrapped one")

    def targets():
        return (harness.main, elasticity.spla, Equilibrator.__dict__["solve_patch"],
                adaptivity.equilibrate)

    before = targets()
    with traced(Tracer()), capture_steps([]):
        inside = targets()
    if any(a is b for a, b in zip(before, inside)):
        problems.append("a layer was not wrapped")
    if any(a is not b for a, b in zip(before, targets())):
        problems.append("a patched function was not restored")
    return problems
