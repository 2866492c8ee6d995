#!/usr/bin/env python3
"""Time the solve, patch, estimator and mesh layers of two trees in one process.

    python scripts/ab_layer.py SRC_A SRC_B WORKLOAD [--reps 6]

SRC_A and SRC_B are directories holding a ``stresseq`` package (the
``src`` directory of two checkouts); WORKLOAD is a name from
``perfbench/workloads.py``.  Each tree runs the workload's config once
through its own ``harness.main``, and three things are captured on the
way: the ``(disc, sigma_h, load)`` of every step, with the step tables
kept, together with the problem's material, the arguments of every
step's ``estimate``, and the steps the loop returns.  Each repetition then
runs six timed passes per tree, alternating which tree goes first:

* the per-mesh tables on every captured mesh: a fresh ``Discretization``'s
  stress chunks and ``constraints``, and ``_element_triplets``, with the
  shape classes and side orientations the mesh has cached dropped first;
* ``equilibrate`` on all captured steps (it reuses the captured step's
  kept tables);
* ``estimate`` on all captured steps;
* ``refine(step.mesh, step.marked)`` on every step that marked elements;
* ``uniform_refine(cook().mesh, 7)`` and ``write_mesh`` of the result, the
  mesh that perfbench builds for ``cook-large``;
* ``solve(assemble_system(disc, material, load))`` on all captured steps.

The script prints, per pass, each tree's median and quartiles of the CPU
time and the ratio of the medians, and whether the two trees' results are
bitwise equal: the tables of every step, the sigma_r of every step, the
four indicator arrays (eta_A, eta_B, eta_C, eta_R) of every step, the
refined meshes (every array of the record in ``MESH_FIELDS``: the
topology, the element and side geometry and the traction hosts), the mesh
files and the (u, p) of every step.  For the tables it also prints the
largest difference of each table (the stress coefficients, the four
constraint tables per shape class and the matrix entries), relative to
its largest |entry|, over the steps; the timed pass only builds them.
The constraint tables are compared as the class store
``Discretization.constraints`` holds them, whether a tree's
``Discretization`` or its patch batches take them to the elements, so the
pass runs on trees on either side of that move.  For ``estimate`` it also
prints which indicator arrays are bitwise equal on every step.  For
``equilibrate`` it also prints the largest sigma_r difference relative to
the step's largest |dof|, and each tree's ``Equilibrator`` counters
summed over the steps: ``n_batches``, ``n_fallbacks``, ``dropped_rows``
(patches per number of dropped rows) and the largest ``worst_kkt``.
For the solve it also prints, for one more, untimed pass of each tree,
the ``tracemalloc`` peak and the most memory traced at a call of
``splu``.  These count the NumPy and SciPy arrays only: SuperLU
allocates its factors outside Python's allocator, so they do not show.

Timings taken in separate processes on a shared 2-core machine swing by
about 10 %, which hides layer gains of that size; two trees in one
process share the machine's state at every moment.  BLAS runs on one
thread, as in the benchmark.

The ratios carry a bias: on passes whose code is the same in both trees,
tree B has been timed 6-9 % slower than tree A (median A / median B
0.91-0.94 for the tables pass on all three workloads), although the
order alternates per repetition.  It shows with one tree as both A and
B too (0.90 for the tables pass on lshape-k2), so such an A = A run
measures the bias on the machine at hand; read a ratio against it.
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
import tracemalloc
from typing import NamedTuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MESH_FIELDS = (
    "vertices", "triangles", "parent", "sides", "side_tri", "side_label", "tri_sides",
    "jac", "jac_inv", "areas", "centroids", "side_length", "side_normal", "h",
    "traction_hosts",
)


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


def submodule(tree, name: str):
    return sys.modules[f"{tree.__name__}.{name}"]


def workload_config(name: str, work_dir: pathlib.Path, src: pathlib.Path) -> pathlib.Path:
    """Write the workload's inputs (seed 1) under ``work_dir``; the mesh
    file of ``cook-large`` is written by the package under ``src``."""
    sys.path.insert(0, str(src))
    try:
        config, _ = workloads.write_inputs(name, 1, work_dir)
    finally:
        sys.path.remove(str(src))
    return config


@contextlib.contextmanager
def _replaced(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def capture(tree, config: pathlib.Path) -> dict[str, list]:
    """The ``(disc, sigma_h, load)``, the ``estimate`` arguments and the
    ``(disc, material, load)`` of every step of one run of ``config`` and
    the ``(mesh, marked)`` of every step that marked elements."""
    adaptivity = submodule(tree, "adaptivity")
    harness = submodule(tree, "harness")
    solves, estimates, steps, materials = [], [], [], []
    inner_equilibrate, inner_loop = adaptivity.equilibrate, harness.adaptive_loop
    inner_estimate = adaptivity.estimate

    def capturing(disc, sigma_h, load):
        solves.append((disc, sigma_h, load))
        return inner_equilibrate(disc, sigma_h, load)

    def estimating(*args):
        estimates.append(args)
        return inner_estimate(*args)

    def recording(problem, config):
        materials.append(problem.material)
        history = inner_loop(problem, config)
        steps.extend(history)
        return history

    # the tables stay kept, as they are while a step is solved
    with (
        _replaced(adaptivity, "equilibrate", capturing),
        _replaced(adaptivity, "estimate", estimating),
        _replaced(harness, "adaptive_loop", recording),
        _replaced(submodule(tree, "spaces").Discretization, "release_tables",
                  lambda self: None),
    ):
        code = harness.main(["run", str(config)])
    if code != 0:
        raise SystemExit(f"{tree.__name__}: run exited {code}")
    marks = [(step.mesh, step.marked) for step in steps if step.marked is not None]
    systems = [(disc, materials[0], load) for disc, _, load in solves]
    return {"equilibrate": solves, "estimate": estimates, "refine": marks,
            "solve": systems}


class Solved(NamedTuple):
    """The sigma_r of one step and the Equilibrator that built it."""

    sigma_r: object
    eq: object


TABLES = ("C", "divm", "symx", "symy", "gram", "matrix entries")


class Tables(NamedTuple):
    """The per-mesh tables of one step: a fresh ``Discretization`` with its
    stress chunks and constraints built, and the matrix entries."""

    disc: object
    data: np.ndarray

    def arrays(self) -> dict:
        """The tables by name, the constraint tables per shape class."""
        ct = self.disc.constraints
        C = np.concatenate([tb.C for tb in self.disc.stress_chunks])
        return dict(zip(TABLES, (C, ct.divm, ct.symx, ct.symy, ct.gram, self.data)))


def tables_pass(tree, captured, _path):
    spaces, elasticity = submodule(tree, "spaces"), submodule(tree, "elasticity")
    out = []
    for disc, material, load in captured["solve"]:
        for cached in ("shape_classes", "is_minus"):  # found on first use
            disc.mesh.__dict__.pop(cached, None)
        fresh = spaces.Discretization(disc.mesh, disc.k)
        fresh.stress_chunks
        fresh.constraints
        (_, _, data), _, _ = elasticity._element_triplets(fresh, material, load)
        out.append(Tables(fresh, data))
    return out


def equilibrate_pass(tree, captured, _path):
    equilibrate = submodule(tree, "equilibration").equilibrate
    return [Solved(*equilibrate(*solve)[1:]) for solve in captured["equilibrate"]]


def estimate_pass(tree, captured, _path):
    estimate = submodule(tree, "estimator").estimate
    return [estimate(*args) for args in captured["estimate"]]


def refine_pass(tree, captured, _path):
    refine = submodule(tree, "mesh").refine
    return [refine(mesh, marked) for mesh, marked in captured["refine"]]


def cook_large_pass(tree, _captured, path):
    mesh_module = submodule(tree, "mesh")
    mesh = mesh_module.uniform_refine(
        submodule(tree, "problems").cook().mesh, workloads.COOK_LARGE_ROUNDS
    )
    mesh_module.write_mesh(mesh, path)
    return [mesh]


def solve_pass(tree, captured, _path):
    elasticity = submodule(tree, "elasticity")
    return [elasticity.solve(elasticity.assemble_system(*system))
            for system in captured["solve"]]


PASSES = {
    "tables": tables_pass,
    "equilibrate": equilibrate_pass,
    "estimate": estimate_pass,
    "refine": refine_pass,
    "uniform_refine + write_mesh": cook_large_pass,
    "solve(assemble_system)": solve_pass,
}


def traced_memory(tree, captured, path) -> tuple[int, int]:
    """Bytes that ``tracemalloc`` counts over one untimed solve pass: the
    peak, and the most alive at a call of ``splu``."""
    spla = submodule(tree, "elasticity").spla
    inner, at_splu = spla.splu, [0]

    def counting(*args, **kwargs):
        at_splu[0] = max(at_splu[0], tracemalloc.get_traced_memory()[0])
        return inner(*args, **kwargs)

    tracemalloc.start()
    try:
        with _replaced(spla, "splu", counting):
            solve_pass(tree, captured, path)
        return tracemalloc.get_traced_memory()[1], at_splu[0]
    finally:
        tracemalloc.stop()


INDICATORS = ("eta_A", "eta_B", "eta_C", "eta_R")


def bitwise_equal(a, b) -> bool:
    """Equal bytes of two steps' sigma_r, of two steps' indicator arrays,
    of two steps' (u, p) or of two meshes' tables."""
    if isinstance(a, Tables):
        a, b = a.arrays(), b.arrays()
        return all(a[name].tobytes() == b[name].tobytes() for name in TABLES)
    if isinstance(a, Solved):
        return a.sigma_r.dofs.tobytes() == b.sigma_r.dofs.tobytes()
    if hasattr(a, "eta_R"):  # an EstimatorReport
        return all(indicator_equal(a, b, name) for name in INDICATORS)
    if hasattr(a, "p"):  # a FieldPair
        return a.u.tobytes() == b.u.tobytes() and a.p.tobytes() == b.p.tobytes()
    return all(same_bytes(getattr(a, name), getattr(b, name)) for name in MESH_FIELDS)


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes of two arrays; two Nones are equal."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def indicator_equal(a, b, name: str) -> bool:
    return getattr(a, name).tobytes() == getattr(b, name).tobytes()


def table_drift(tables_a, tables_b, name: str) -> float:
    """Largest difference of one table between two runs, relative to the
    table's largest |entry| on the step, over the steps."""
    drifts = []
    for a, b in zip(tables_a, tables_b):
        a, b = a.arrays()[name], b.arrays()[name]
        drifts.append(float(np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b)), 1e-300)))
    return max(drifts)


def sigma_r_drift(solved_a, solved_b) -> float:
    """Largest difference of two runs' sigma_r dofs, relative to the largest
    |dof| of the step, over the steps."""
    return max(
        float(np.max(np.abs(a.sigma_r.dofs - b.sigma_r.dofs)) / np.max(np.abs(a.sigma_r.dofs)))
        for a, b in zip(solved_a, solved_b)
    )


def counters(solved) -> str:
    """The Equilibrator counters summed over the steps (worst_kkt: the
    largest)."""
    dropped: dict[int, int] = {}
    for s in solved:
        for rows, count in s.eq.dropped_rows.items():
            dropped[rows] = dropped.get(rows, 0) + count
    return (
        f"n_batches {sum(s.eq.n_batches for s in solved)}  "
        f"n_fallbacks {sum(s.eq.n_fallbacks for s in solved)}  "
        f"dropped_rows {dict(sorted(dropped.items()))}  "
        f"worst_kkt {max(s.eq.worst_kkt for s in solved):.2e}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=pathlib.Path)
    ap.add_argument("src_b", type=pathlib.Path)
    ap.add_argument("workload")
    ap.add_argument("--reps", type=int, default=6, help="timed passes per tree")
    args = ap.parse_args(argv)

    trees = {"A": load_tree(args.src_a.resolve(), "stresseq_a"),
             "B": load_tree(args.src_b.resolve(), "stresseq_b")}
    captured = {}
    times = {name: {"A": [], "B": []} for name in PASSES}
    results = {name: {} for name in PASSES}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {label: pathlib.Path(tmp) / f"mesh_{label}.txt" for label in trees}
        for label, tree in trees.items():
            work = pathlib.Path(tmp) / label
            captured[label] = capture(tree, workload_config(args.workload, work, args.src_a))
            for run_pass in PASSES.values():  # warm-up
                run_pass(tree, captured[label], paths[label])
        if len(captured["A"]["equilibrate"]) != len(captured["B"]["equilibrate"]):
            raise SystemExit("the two trees solved different numbers of steps")
        for rep in range(args.reps):
            order = "AB" if rep % 2 == 0 else "BA"
            for name, run_pass in PASSES.items():
                for label in order:
                    start = time.process_time()
                    out = run_pass(trees[label], captured[label], paths[label])
                    times[name][label].append(time.process_time() - start)
                    results[name][label] = out
        files_equal = paths["A"].read_bytes() == paths["B"].read_bytes()
        traced = {label: traced_memory(tree, captured[label], paths[label])
                  for label, tree in trees.items()}

    n_steps, n_marks = len(captured["A"]["equilibrate"]), len(captured["A"]["refine"])
    print(f"{args.workload}: {n_steps} steps, {n_marks} refinements, "
          f"{args.reps} passes per tree (CPU s)")
    for name in PASSES:
        print(f"  {name}:")
        for label, src in (("A", args.src_a), ("B", args.src_b)):
            q1, med, q3 = np.percentile(times[name][label], [25, 50, 75])
            print(f"    {label} {src}: median {med:.3f}  quartiles {q1:.3f} {q3:.3f}")
        ratio = np.median(times[name]["A"]) / np.median(times[name]["B"])
        equal = len(results[name]["A"]) == len(results[name]["B"]) and all(
            bitwise_equal(a, b) for a, b in zip(results[name]["A"], results[name]["B"])
        )
        print(f"    median A / median B: {ratio:.3f}  bitwise equal: {equal}")
        if name == "tables":
            print("    largest relative difference: " + "  ".join(
                f"{table} {table_drift(results[name]['A'], results[name]['B'], table):.2e}"
                for table in TABLES
            ))
        if name == "equilibrate":
            drift = sigma_r_drift(results[name]["A"], results[name]["B"])
            print(f"    largest relative sigma_r difference: {drift:.2e}")
            for label in "AB":
                print(f"    {label} counters: {counters(results[name][label])}")
        if name == "estimate":
            pairs = list(zip(results[name]["A"], results[name]["B"]))
            print("    " + "  ".join(
                f"{ind} {all(indicator_equal(a, b, ind) for a, b in pairs)}"
                for ind in INDICATORS
            ))
        if name == "solve(assemble_system)":
            for label in "AB":
                peak, at_splu = (b / 2**20 for b in traced[label])
                print(f"    {label} tracemalloc peak {peak:.1f} MB, at splu {at_splu:.1f} MB")
    print(f"  mesh files byte-identical: {files_equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
