"""Smoke tests of the reproduction scripts and of the benchmark's self-test."""

import csv
import importlib
import os
import pathlib
import subprocess
import sys

import stresseq

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


def test_run_cook_script(tmp_path):
    """Four steps: more than three, so the CLI attaches reference errors."""
    out = tmp_path / "cook"
    proc = _run_script("run_cook.py", "--steps", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("eta_total", "eta_A", "eta_B", "eta_C"):
        assert f"rate of {name} vs N over the last 6 steps: " in proc.stdout
    with open(out / "history.csv", newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert len(errors) == 4
    assert all(errors[:2]) and not any(errors[2:])


def test_run_convergence_script():
    proc = _run_script("run_convergence.py", "--cells", "2", "4", "8")
    assert proc.returncode == 0, proc.stderr
    assert "observed order (last 3 meshes): error " in proc.stdout
    assert len(proc.stdout.splitlines()) == 5  # header, 3 meshes, orders


def _write_outputs(directory, error_cell="0.5", n_rows=2):
    directory.mkdir()
    rows = [f"{i},{10 + i},1.0e-3,{error_cell}" for i in range(n_rows)]
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
