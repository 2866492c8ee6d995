#!/usr/bin/env python3
"""Run the ten refactor-oracle configs of one tree, one run directory each.

    python scripts/oracle_runs.py SRC OUT
    python scripts/compare_outputs.py OUT_A OUT_B

SRC is a directory holding a ``stresseq`` package (the ``src`` directory of
a checkout).  The runs are:

* ``cook``, ``manufactured-smooth`` and ``square-lshape`` at k = 1 and 2,
  each with ``steps = 6`` and ``save_mesh = true`` (run directories
  ``cook-k1`` ... ``square-lshape-k2``);
* ``cook`` at k = 1 under uniform refinement, with ``steps = 3`` and
  ``save_mesh = true`` (run directory ``cook-uniform``);
* the three workloads of ``perfbench/workloads.py`` with their seed-1
  inputs (run directories named after the workloads); the mesh file of
  ``cook-large`` is written by the package under SRC.

Each run is one ``python -m stresseq run`` process on the package under
SRC, with BLAS on one thread as in the benchmark, writing into
``OUT/<name>``.  ``compare_outputs.py`` then compares the same-named runs
of two such roots; a refactor that keeps the numbers reports no drift and
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SMALL = tuple(
    (problem, k) for problem in ("cook", "manufactured-smooth", "square-lshape") for k in (1, 2)
)


def write_configs(src: pathlib.Path, work_dir: pathlib.Path) -> dict[str, pathlib.Path]:
    """Write the ten configs (and the cook-large mesh) under ``work_dir``:
    run name -> config path.  Their ``output_dir`` is overridden at the
    run."""
    configs = {}
    for problem, k in SMALL:
        name = f"{problem}-k{k}"
        path = work_dir / f"{name}.cfg"
        path.write_text(f"problem = {problem}\nk = {k}\nsteps = 6\nsave_mesh = true\n")
        configs[name] = path
    configs["cook-uniform"] = work_dir / "cook-uniform.cfg"
    configs["cook-uniform"].write_text(
        "problem = cook\nk = 1\nmode = uniform\nsteps = 3\nsave_mesh = true\n"
    )
    sys.path.insert(0, str(src))
    try:
        for name in workloads.WORKLOADS:
            configs[name], _ = workloads.write_inputs(name, 1, work_dir / name)
    finally:
        sys.path.remove(str(src))
    return configs


def run(src: pathlib.Path, config: pathlib.Path, out: pathlib.Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), STRESSEQ_OUTPUT_DIR=str(out))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "stresseq", "run", str(config)], env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{config.name}: run exited {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=pathlib.Path, help="directory holding a stresseq package")
    parser.add_argument("out", type=pathlib.Path, help="root of the run directories")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in write_configs(src, pathlib.Path(tmp)).items():
            print(name, flush=True)
            run(src, config, args.out.resolve() / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
