"""Smoke tests of the reproduction scripts, the README's code, the
benchmark's self-test and its correctness checks on every workload."""

import csv
import dataclasses
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import stresseq
from stresseq import Equilibrator, cook

from conftest import solve_problem
from oracles import batch_of
from test_equilibration import _loaded_patch, wide_span_problem

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(stresseq.__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def test_benchmark_self_test_passes(monkeypatch):
    """perfbench wraps the functions it names in ``spans.LAYERS``; its
    self-test resolves every one of them and checks the wrappers."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    assert checks.self_test() == []


def test_traced_fallback_records_one_solve_patch_span(monkeypatch):
    """Each patch that falls back from the condensed path goes through
    ``Equilibrator.solve_patch``, so perfbench's span on it counts the
    fallbacks and notes their constraint shapes."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    problem = cook()
    disc, _, sigma = solve_problem(problem)
    eq = Equilibrator(disc, sigma, problem.load)
    scaled = wide_span_problem(eq)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sol = eq._solve_batch(batch_of(disc.mesh, scaled, _loaded_patch(eq)))
    assert sol.fallback.tolist() == [True, False]
    notes = [note for name, *_, note in tracer.spans if name == "equilibration.solve_patch"]
    assert notes == [scaled.constraints.shape]


def test_readme_python_blocks_run():
    """Every ``python`` block of README.md runs as written, each in a fresh
    namespace, so a documented call that goes stale fails here."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_run_cook_script(tmp_path):
    """Four steps: the CLI fills the reference errors of all but the last
    two."""
    out = tmp_path / "cook"
    proc = _run_script("run_cook.py", "--steps", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("eta_total", "eta_A", "eta_B", "eta_C"):
        assert f"rate of {name} vs N over the last 6 steps: " in proc.stdout
    with open(out / "history.csv", newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert len(errors) == 4
    assert all(errors[:2]) and not any(errors[2:])


def test_cli_reach_lists_what_no_run_reaches(tmp_path):
    """On one 2-step Cook run (k = 1), ``cli_reach.py`` lists
    ``data_oscillation``, which no CLI command calls, as never run, and
    does not list ``equilibrate``, every statement of which each step
    runs."""
    config = tmp_path / "cook.cfg"
    config.write_text("problem = cook\nk = 1\nsteps = 2\n")
    proc = _run_script("cli_reach.py", str(SRC), str(config))
    assert proc.returncode == 0, proc.stderr
    listed = dict(
        line.strip().split(": ", 1) for line in proc.stdout.splitlines() if line.startswith("  ")
    )
    assert listed["data_oscillation"] == "never ran"
    assert "equilibrate" not in listed



def test_run_convergence_script():
    proc = _run_script("run_convergence.py", "--cells", "2", "4", "8")
    assert proc.returncode == 0, proc.stderr
    assert "observed order (last 3 meshes): error " in proc.stdout
    assert len(proc.stdout.splitlines()) == 5  # header, 3 meshes, orders


def _write_outputs(directory, error_cell="0.5", n_rows=2, eta_cell="1.0e-3"):
    directory.mkdir()
    rows = [f"{i},{10 + i},{eta_cell},{error_cell}" for i in range(n_rows)]
    (directory / "history.csv").write_text("step,N,eta_A,error\n" + "\n".join(rows) + "\n")
    (directory / "summary.csv").write_text("quantity,value\nbound,2.0\nprovenance,default\n")
    (directory / "equilibration.txt").write_text("scale 4.0\nmax_residual 1e-12\n")


def test_compare_outputs_reports_drift_per_column(tmp_path):
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b", error_cell="0.5000000000001")
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stdout
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert ["error", "2e-13"] in lines
    assert ["eta_A", "0"] in lines
    assert ["bound", "0"] in lines and ["max_residual", "0"] in lines
    assert not any(line[0] in ("step", "N", "provenance") for line in lines)
    assert ["history.csv:", "bytes", "differ"] in lines
    assert ["summary.csv:", "byte-identical"] in lines
    assert ["equilibration.txt:", "byte-identical"] in lines
    # a zero drift is not identical bytes: both cells are the same double
    _write_outputs(tmp_path / "c", eta_cell="1e-05")
    _write_outputs(tmp_path / "d", eta_cell="1.0000000000000001e-05")
    proc = _run_script("compare_outputs.py", str(tmp_path / "c"), str(tmp_path / "d"))
    assert proc.returncode == 0, proc.stdout
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert ["eta_A", "0"] in lines and ["history.csv:", "bytes", "differ"] in lines


def test_compare_outputs_fails_on_structure(tmp_path):
    _write_outputs(tmp_path / "a")
    for name, kwargs in (("blank", {"error_cell": ""}), ("rows", {"n_rows": 3})):
        _write_outputs(tmp_path / name, **kwargs)
        proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / name))
        assert proc.returncode == 1, proc.stdout
        assert "DIFFERS" in proc.stdout
    (tmp_path / "n").mkdir()
    for f in (tmp_path / "a").iterdir():
        (tmp_path / "n" / f.name).write_text(f.read_text().replace(",11,", ",12,"))
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "n"))
    assert proc.returncode == 1 and "column N" in proc.stdout
    (tmp_path / "n" / "summary.csv").unlink()
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "n"))
    assert "summary.csv: present in only one directory" in proc.stdout


def test_compare_outputs_compares_final_meshes(tmp_path):
    """The final meshes are compared byte for byte when both runs saved one."""
    mesh = "vertices 3 / triangles 1\n0 0\n1 0\n0 1\n0 1 2\n"
    for name in ("a", "b", "c"):
        _write_outputs(tmp_path / name)
    (tmp_path / "a" / "mesh_final.txt").write_text(mesh)
    # a mesh saved by one run only is not compared
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "c"))
    assert proc.returncode == 0 and "mesh_final.txt" not in proc.stdout
    (tmp_path / "b" / "mesh_final.txt").write_text(mesh)
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stdout
    assert "mesh_final.txt: byte-identical" in proc.stdout
    (tmp_path / "b" / "mesh_final.txt").write_text(mesh.replace("1 0\n", "1.0000000000000002 0\n"))
    proc = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 1
    assert "mesh_final.txt: DIFFERS: line 3" in proc.stdout


def test_compare_outputs_compares_same_named_runs_under_two_roots(tmp_path):
    """Given two roots, each pair of same-named run directories is compared;
    a mesh difference or a run under one root only exits 1."""
    mesh = "vertices 3 / triangles 1\n0 0\n1 0\n0 1\n0 1 2\n"
    for root in ("a", "b"):
        (tmp_path / root).mkdir()
        (tmp_path / root / "inputs").mkdir()  # not a run: skipped
        for run in ("cook-k1", "lshape-k2"):
            _write_outputs(tmp_path / root / run)
            (tmp_path / root / run / "mesh_final.txt").write_text(mesh)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    proc = _run_script("compare_outputs.py", a, b)
    assert proc.returncode == 0, proc.stdout
    assert "== cook-k1" in proc.stdout and "== lshape-k2" in proc.stdout
    assert proc.stdout.count("mesh_final.txt: byte-identical") == 2
    assert "inputs" not in proc.stdout
    (tmp_path / "b" / "lshape-k2" / "mesh_final.txt").write_text(mesh.replace("0 1 2", "1 2 0"))
    proc = _run_script("compare_outputs.py", a, b)
    assert proc.returncode == 1
    assert "mesh_final.txt: DIFFERS: line 5" in proc.stdout
    (tmp_path / "b" / "lshape-k2" / "mesh_final.txt").write_text(mesh)
    _write_outputs(tmp_path / "a" / "square-k2")
    proc = _run_script("compare_outputs.py", a, b)
    assert proc.returncode == 1
    assert "== square-k2\npresent in only one root" in proc.stdout


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_runs_writes_the_nine_configs(tmp_path):
    """``oracle_runs.py`` runs the three small problems at k = 1, 2 for six
    steps with the final mesh saved, cook at k = 1 for three uniform steps
    with the final mesh saved, and the three workloads with their seed-1
    inputs."""
    from stresseq.harness import load_config

    oracle = _load_script("oracle_runs")
    configs = oracle.write_configs(SRC, tmp_path)
    workloads = oracle.workloads.WORKLOADS
    small = [f"{p}-k{k}" for p in ("cook", "manufactured-smooth", "square-lshape") for k in (1, 2)]
    assert list(configs) == small + ["cook-uniform"] + list(workloads)
    for name in small:
        cfg = load_config(configs[name])
        assert (cfg.problem, cfg.steps, cfg.save_mesh) == (name[:-3], 6, True)
        assert cfg.k == int(name[-1])
    cfg = load_config(configs["cook-uniform"])
    assert (cfg.problem, cfg.k, cfg.mode, cfg.steps, cfg.save_mesh) == ("cook", 1, "uniform", 3, True)
    for name, settings in workloads.items():
        cfg = load_config(configs[name])
        assert (cfg.problem, cfg.k, cfg.steps) == (
            settings["problem"], int(settings["k"]), int(settings["steps"])
        )
        assert (cfg.mesh_file is not None) == (name == "cook-large")


def test_ab_layer_compares_every_mesh_array():
    """``ab_layer.py``'s mesh comparison covers the geometry that the mesh
    is built with: a copy reads equal, one flipped side normal unequal."""
    ab_layer = _load_script("ab_layer")
    mesh = cook().mesh
    assert {f.name for f in dataclasses.fields(mesh)} == set(ab_layer.MESH_FIELDS)
    assert ab_layer.bitwise_equal(mesh, dataclasses.replace(mesh))
    normal = mesh.side_normal.copy()
    normal[3] *= -1.0
    assert not ab_layer.bitwise_equal(mesh, dataclasses.replace(mesh, side_normal=normal))


# failed steps allowed per workload, of the steps it attempts: the counts
# the references were recorded with
BENCHMARK_FAILED = {"cook-adaptive": (8, 30), "cook-large": (0, 1), "lshape-k2": (0, 26)}


@pytest.mark.parametrize("workload", list(BENCHMARK_FAILED))
def test_benchmark_workload_is_correct(workload, tmp_path, monkeypatch):
    """Each benchmark workload, run as the benchmark runs it, agrees with
    its recorded reference outputs and fails no more steps (verification
    above 1e-9 * scale, or an error above its bound) than recorded."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delenv("STRESSEQ_OUTPUT_DIR", raising=False)
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    from stresseq import harness

    config, out_dir = workloads.write_inputs(workload, 1, tmp_path)
    captured = []
    with checks.capture_steps(captured):
        assert harness.main(["run", str(config)]) == 0
    problems, _ = checks.compare_outputs(out_dir, ROOT / "perfbench" / "reference" / workload)
    assert problems == []
    history = checks.parse_history((out_dir / "history.csv").read_text())
    gates = checks.gate_steps(history, checks.verify_captured(captured))
    allowed, attempted = BENCHMARK_FAILED[workload]
    assert len(gates) == attempted
    assert sum(1 for g in gates if g.reasons) <= allowed
