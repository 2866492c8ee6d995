#!/usr/bin/env python3
"""Time ``equilibrate`` from two source trees in one process.

    python scripts/ab_layer.py SRC_A SRC_B WORKLOAD [--reps 6]

SRC_A and SRC_B are directories holding a ``stresseq`` package (the
``src`` directory of two checkouts); WORKLOAD is a name from
``perfbench/workloads.py``.  Each tree runs the workload's config once
through its own ``harness.main``, and the ``(disc, sigma_h, load)`` of every
step is captured on the way, with the step tables kept.  Each repetition
then calls ``equilibrate`` on all captured steps of one tree and then of the
other, alternating which tree goes first, and records the CPU time of the
pass.  The script prints each tree's median and quartiles, the ratio of
the medians, and whether the sigma_r of every step is bitwise equal.

Timings taken in separate processes on a shared 2-core machine swing by
about 10 %, which hides layer gains of that size; two trees in one
process share the machine's state at every moment.  BLAS runs on one
thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib.util
import pathlib
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tree(src: pathlib.Path, alias: str):
    """Import the ``stresseq`` package under ``src`` as the module ``alias``."""
    package = src / "stresseq"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def workload_config(name: str, work_dir: pathlib.Path, src: pathlib.Path) -> pathlib.Path:
    """Write the workload's inputs (seed 1) under ``work_dir``; the mesh
    file of ``cook-large`` is written by the package under ``src``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(src)]
    try:
        import workloads

        config, _ = workloads.write_inputs(name, 1, work_dir)
    finally:
        del sys.path[:2]
    return config


@contextlib.contextmanager
def _replaced(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def capture(tree, config: pathlib.Path) -> list[tuple]:
    """(disc, sigma_h, load) of every step of one run of ``config``."""
    adaptivity = sys.modules[tree.__name__ + ".adaptivity"]
    spaces = sys.modules[tree.__name__ + ".spaces"]
    steps: list[tuple] = []
    inner = adaptivity.equilibrate

    def capturing(disc, sigma_h, load):
        steps.append((disc, sigma_h, load))
        return inner(disc, sigma_h, load)

    harness = sys.modules[tree.__name__ + ".harness"]
    # the tables stay kept, as they are while a step is solved
    with _replaced(adaptivity, "equilibrate", capturing), _replaced(
        spaces.Discretization, "release_tables", lambda self: None
    ):
        code = harness.main(["run", str(config)])
    if code != 0:
        raise SystemExit(f"{tree.__name__}: run exited {code}")
    return steps


def timed_pass(tree, steps) -> tuple[float, list[np.ndarray]]:
    """CPU seconds of ``equilibrate`` over all steps, and each sigma_r."""
    equilibrate = sys.modules[tree.__name__ + ".equilibration"].equilibrate
    dofs = []
    start = time.process_time()
    for disc, sigma_h, load in steps:
        dofs.append(equilibrate(disc, sigma_h, load)[1].dofs)
    return time.process_time() - start, dofs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=pathlib.Path)
    ap.add_argument("src_b", type=pathlib.Path)
    ap.add_argument("workload")
    ap.add_argument("--reps", type=int, default=6, help="timed passes per tree")
    args = ap.parse_args(argv)

    trees = {"A": load_tree(args.src_a.resolve(), "stresseq_a"),
             "B": load_tree(args.src_b.resolve(), "stresseq_b")}
    steps, times, results = {}, {"A": [], "B": []}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, tree in trees.items():
            work = pathlib.Path(tmp) / label
            steps[label] = capture(tree, workload_config(args.workload, work, args.src_a))
            timed_pass(tree, steps[label])  # warm-up
    if len(steps["A"]) != len(steps["B"]):
        raise SystemExit("the two trees solved different numbers of steps")
    for rep in range(args.reps):
        order = "AB" if rep % 2 == 0 else "BA"
        for label in order:
            seconds, results[label] = timed_pass(trees[label], steps[label])
            times[label].append(seconds)

    print(f"{args.workload}: {len(steps['A'])} steps, {args.reps} passes per tree (CPU s)")
    for label, src in (("A", args.src_a), ("B", args.src_b)):
        q1, med, q3 = np.percentile(times[label], [25, 50, 75])
        print(f"  {label} {src}: median {med:.3f}  quartiles {q1:.3f} {q3:.3f}")
    print(f"  median A / median B: {np.median(times['A']) / np.median(times['B']):.3f}")
    equal = all(a.tobytes() == b.tobytes() for a, b in zip(results["A"], results["B"]))
    print(f"  sigma_r bitwise equal: {equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
