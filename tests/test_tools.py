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
