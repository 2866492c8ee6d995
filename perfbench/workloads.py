"""Workload inputs: config text and, for ``cook-large``, a mesh file.

The numerical problem of each workload is fixed, so that its outputs can be
checked against references recorded once (``reference/``).  The seed changes
only the text of the inputs, in ways the program's readers ignore: the order
of the config keys, a comment line, the order of the mesh header fields and
a few blank lines in the mesh file.  The same seed gives the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cook-adaptive": {
        "problem": "cook",
        "k": "1",
        "mu": "1.0",
        "inv_lambda": "0.0",
        "theta": "0.5",
        "steps": "30",
        "estimator": "equilibrated",
        "mode": "adaptive",
    },
    "cook-large": {
        "problem": "cook",
        "k": "1",
        "mu": "1.0",
        "inv_lambda": "0.0",
        "steps": "1",
    },
    "lshape-k2": {
        "problem": "square-lshape",
        "k": "2",
        "mu": "1.0",
        "inv_lambda": "0.002",
        "theta": "0.7",
        "estimator": "residual",
        "steps": "26",
        "mode": "adaptive",
    },
}

# cook-large starts from the built-in Cook mesh bisected uniformly this often
# (7,641 triangles).
COOK_LARGE_ROUNDS = 7


def config_text(name: str, seed: int, output_dir: Path, mesh_file: Path | None) -> str:
    rng = random.Random(f"{name}/{seed}/config")
    items = dict(WORKLOADS[name])
    items["output_dir"] = str(output_dir)
    if mesh_file is not None:
        items["mesh_file"] = str(mesh_file)
    lines = [f"{key} = {value}" for key, value in items.items()]
    rng.shuffle(lines)
    lines.insert(rng.randrange(len(lines) + 1), f"# perfbench workload {name}, seed {seed}")
    return "\n".join(lines) + "\n"


def _reformat_mesh(text: str, rng: random.Random) -> str:
    """Permute the header fields and insert blank lines; the mesh is unchanged."""
    lines = text.splitlines()
    header = lines[0].split(" / ")
    rng.shuffle(header)
    body = lines[1:]
    for pos in sorted(rng.sample(range(len(body) + 1), 8), reverse=True):
        body.insert(pos, "")
    return "\n".join([" / ".join(header)] + body) + "\n"


def write_inputs(name: str, seed: int, work_dir: Path) -> tuple[Path, Path]:
    """Write the workload's inputs under ``work_dir``.

    Returns (config path, output directory the config names).
    """
    from stresseq.mesh import uniform_refine, write_mesh
    from stresseq.problems import cook

    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    work_dir.mkdir(parents=True, exist_ok=True)
    mesh_file = None
    if name == "cook-large":
        mesh_file = work_dir / "mesh.txt"
        write_mesh(uniform_refine(cook().mesh, COOK_LARGE_ROUNDS), mesh_file)
        rng = random.Random(f"{name}/{seed}/mesh")
        mesh_file.write_text(_reformat_mesh(mesh_file.read_text(), rng))
    out_dir = work_dir / "out"
    config = work_dir / "run.cfg"
    config.write_text(config_text(name, seed, out_dir, mesh_file))
    return config, out_dir
