"""Spans recorded from outside the program, by wrapping its public functions.

``traced(tracer)`` replaces, for the duration of a ``with`` block, every
reference that the ``stresseq`` modules hold to each function in ``LAYERS``
by a wrapper that records a span (name, start, end, parent) and, for some
layers, a count taken from the call's arguments or result.  The wrapper
returns exactly what the wrapped function returns and lets every exception
through.  The program's source is not touched.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


def _patch_shape(args, kwargs, result):
    problem = kwargs.get("problem", args[-1])
    return problem.constraints.shape  # (rows, free columns)


def _lu_fill(args, kwargs, result):
    return int(result.L.nnz + result.U.nnz)


# (span name, module, attribute path, note taken after the call)
LAYERS = [
    ("harness.main", "stresseq.harness", "main", None),
    ("harness.run", "stresseq.harness", "run", None),
    ("adaptivity.adaptive_loop", "stresseq.adaptivity", "adaptive_loop", None),
    ("adaptivity.attach_reference_errors", "stresseq.adaptivity", "attach_reference_errors", None),
    ("adaptivity.doerfler_mark", "stresseq.adaptivity", "doerfler_mark", None),
    ("mesh.refine", "stresseq.mesh", "refine", None),
    ("mesh.modified_patches", "stresseq.mesh", "modified_patches", None),
    ("spaces.build_stress_tables", "stresseq.spaces", "build_stress_tables", None),
    ("spaces.build_constraint_tables", "stresseq.spaces", "build_constraint_tables", None),
    ("elasticity.assemble_system", "stresseq.elasticity", "assemble_system", None),
    ("elasticity.solve", "stresseq.elasticity", "solve", None),
    ("elasticity.splu", "stresseq.elasticity", "spla.splu", _lu_fill),
    ("elasticity.direct_stress", "stresseq.elasticity", "direct_stress", None),
    ("equilibration.equilibrate", "stresseq.equilibration", "equilibrate", None),
    ("equilibration.build_rhs_tables", "stresseq.equilibration", "build_rhs_tables", None),
    ("equilibration.build_patch_problem", "stresseq.equilibration", "Equilibrator.build_patch_problem", None),
    ("equilibration.solve_patch", "stresseq.equilibration", "Equilibrator.solve_patch", _patch_shape),
    ("equilibration.verify_equilibration", "stresseq.equilibration", "verify_equilibration", None),
    ("estimator.estimate", "stresseq.estimator", "estimate", None),
    ("estimator.eta_components", "stresseq.estimator", "eta_components", None),
    ("estimator.residual_estimator", "stresseq.estimator", "residual_estimator", None),
]


class Tracer:
    """Spans of one process, kept in memory: [name, start, end, parent, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper


class _Namespace:
    """Stands in for a module object, overriding some of its attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the old values on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _references(fn):
    """(module, name) of every ``stresseq`` module global bound to ``fn``."""
    return [
        (module, attr)
        for mod_name, module in list(sys.modules.items())
        if mod_name == "stresseq" or mod_name.startswith("stresseq.")
        for attr, value in list(vars(module).items())
        if value is fn
    ]


def layer_replacements(tracer: Tracer):
    replacements = []
    for name, mod_name, path, note in LAYERS:
        module = sys.modules[mod_name]
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            fn = getattr(module, attr)
            wrapper = tracer.wrap(name, fn, note)
            replacements += [(mod, ref, wrapper) for mod, ref in _references(fn)]
        elif isinstance(getattr(module, owner_name), type):
            owner = getattr(module, owner_name)
            replacements.append((owner, attr, tracer.wrap(name, owner.__dict__[attr], note)))
        else:
            # a function reached through a module alias, e.g. ``spla.splu``
            target = getattr(module, owner_name)
            wrapper = tracer.wrap(name, getattr(target, attr), note)
            replacements.append((module, owner_name, _Namespace(target, **{attr: wrapper})))
    return replacements


def traced(tracer: Tracer):
    return patched(layer_replacements(tracer))


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans: list[list], n_steps: int) -> dict[str, float]:
    """Per-layer totals of one traced run of ``harness.main``."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child_time[i]

    metrics = {f"{name}.s": total[name] for name, *_ in LAYERS}
    shapes = [note for name, *_, note in spans if name == "equilibration.solve_patch"]
    fills = [note for name, *_, note in spans if name == "elasticity.splu"]
    metrics.update(
        {
            "equilibration.equilibrate.calls": calls["equilibration.equilibrate"],
            "equilibration.patches": len(shapes),
            "equilibration.patch_rows_max": max((r for r, _ in shapes), default=0),
            "equilibration.patch_cols_max": max((c for _, c in shapes), default=0),
            "equilibration.patch_flops": float(sum(patch_flops(r, c) for r, c in shapes)),
            "harness.run.equilibrate.s": sum(
                end - start
                for name, start, end, parent, _ in spans
                if name == "equilibration.equilibrate" and parent >= 0 and spans[parent][0] == "harness.run"
            ),
            "spaces.build_stress_tables.calls_per_step": calls["spaces.build_stress_tables"] / n_steps,
            "elasticity.lu_fill": fills[-1] if fills else 0,
            "mesh.refine.calls": calls["mesh.refine"],
            "harness.run.self_s": self_time["harness.run"],
            "adaptivity.adaptive_loop.self_s": self_time["adaptivity.adaptive_loop"],
            "trace.unattributed_s": sum(
                self_time[n] for n in ("harness.main", "harness.run", "adaptivity.adaptive_loop")
            ),
        }
    )
    return metrics


def patch_flops(rows: int, cols: int) -> float:
    """Computed flop count of one patch solve from its constraint shape.

    Householder QR of the (cols x rows) transpose, LU of the KKT matrix of
    order cols + rows (rank taken as rows, an upper estimate) and two
    triangular solve pairs.
    """
    m, n = max(rows, cols), min(rows, cols)
    order = rows + cols
    return 2.0 * m * n * n - 2.0 * n**3 / 3.0 + 2.0 * order**3 / 3.0 + 4.0 * order**2
