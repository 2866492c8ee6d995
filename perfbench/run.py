#!/usr/bin/env python3
"""stresseq benchmark: runs ``stresseq run`` in-process on one workload.

    python3 perfbench/run.py --workload cook-adaptive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The loop is closed: one call of
``stresseq.harness.main(["run", cfg])`` at a time, from this one process,
repeated until ``--seconds`` have passed (at least once).  After each call,
outside the timer, the outputs are checked against the recorded references
and every step's reconstruction is verified (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced call, ends with an untraced one, and prints the
per-layer metrics taken from spans recorded around the program's public
functions (see ``spans.py``).  Every metric is printed as
``name value unit``; the last line is one JSON object.  The names and units
are those of ``BENCHMARK.json``.  The result, with a capture of the
environment, is also written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` (the spans of a traced
run beside it).  ``--record-reference`` stores the outputs of one call as
the workload's reference instead.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pinned before NumPy loads OpenBLAS: the patch solves take about a third
# longer with two BLAS threads than with one, so the count must not float.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("STRESSEQ_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference"
SETUP_SAMPLES = 5  # this process plus four fresh ones


def setup(workload: str, seed: int, work_dir: Path):
    """Import the program and write the workload's inputs."""
    if not (SRC / "stresseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no stresseq sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import stresseq.harness  # noqa: F401

    return workloads.write_inputs(workload, seed, work_dir)


def setup_seconds(workload: str, seed: int, work_dir: Path) -> list[float]:
    """Set-up time of fresh processes, each writing its own inputs."""
    times = []
    for i in range(SETUP_SAMPLES - 1):
        child_dir = work_dir / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(child_dir),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(child_dir)
    return times


# -- environment ------------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of a git checkout, read from its files; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                counts[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stresseq").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy.show_config),
        "openblas_scipy": blas_version(scipy.show_config),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
    }


# -- one call of the program ------------------------------------------------------------


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {f: (out_dir / f).read_bytes() for f in checks.CHECKED_FILES if (out_dir / f).exists()}


def call_program(config: Path, out_dir: Path, tracer=None):
    """One timed ``stresseq run``; returns (exit code, seconds, captured steps)."""
    from stresseq import harness

    shutil.rmtree(out_dir, ignore_errors=True)
    captured: list = []
    gc.collect()
    tracing = spans.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with tracing, checks.capture_steps(captured):
        start = time.perf_counter()
        code = harness.main(["run", str(config)])
        seconds = time.perf_counter() - start
    return code, seconds, captured


@dataclass
class Call:
    """One checked call: timing, step gates and disagreements."""

    seconds: float
    gates: list
    attempted: int
    failed: int
    problems: list
    identical: dict
    outputs: dict


def checked_call(config: Path, out_dir: Path, workload: str, tracer=None) -> Call:
    """One timed call, then its step gates and reference agreement, untimed."""
    code, seconds, captured = call_program(config, out_dir, tracer)
    problems, identical = checks.compare_outputs(out_dir, REFERENCE / workload)
    if code != 0:
        steps = int(workloads.WORKLOADS[workload]["steps"])
        problems.append(f"stresseq run exited with {code}")
        return Call(seconds, [], steps, steps, problems, identical, _outputs(out_dir))
    history = checks.parse_history((out_dir / "history.csv").read_text())
    gates = checks.gate_steps(history, checks.verify_captured(captured))
    failed = sum(1 for g in gates if g.reasons)
    return Call(seconds, gates, len(gates), failed, problems, identical, _outputs(out_dir))


# -- main ---------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        print(time.perf_counter() - _T0)
        return 0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK_ROOT / run_id
    shutil.rmtree(work_dir, ignore_errors=True)
    config, out_dir = setup(args.workload, args.seed, work_dir / "inputs")
    setup_times = [time.perf_counter() - _T0]

    if args.record_reference:
        code, _, _ = call_program(config, out_dir)
        if code != 0:
            raise SystemExit(f"error: stresseq run exited with {code}; nothing recorded")
        checks.record_reference(out_dir, REFERENCE / args.workload)
        shutil.rmtree(work_dir)
        print(f"recorded {REFERENCE / args.workload}")
        return 0

    if args.trace == 0:
        setup_times += setup_seconds(args.workload, args.seed, work_dir)
    problems = [f"self-test: {p}" for p in checks.self_test()]

    untraced, traced, tracers, layer_runs, rss = [], [], [], [], 0
    began = time.perf_counter()
    while not untraced or time.perf_counter() - began < args.seconds:
        untraced.append(checked_call(config, out_dir, args.workload))
        rss = max(rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if args.trace:
            tracers.append(spans.Tracer())
            traced.append(checked_call(config, out_dir, args.workload, tracers[-1]))
            if traced[-1].outputs != untraced[-1].outputs:
                problems.append("traced and untraced runs wrote different outputs")
            layer_runs.append(spans.layer_metrics(tracers[-1].spans, max(len(traced[-1].gates), 1)))
    if args.trace:
        # The first call of a process runs slower than later ones; closing
        # with an untraced call keeps that out of trace.overhead_s.
        untraced.append(checked_call(config, out_dir, args.workload))
    calls = untraced + traced
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    problems += [p for c in calls for p in c.problems]
    correct = not problems
    walls = [c.seconds for c in untraced]
    last = calls[-1]

    if args.trace == 0:
        dofs = sum(g.n_dofs for g in last.gates)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "dofs_per_s": dofs / statistics.median(walls),
            "peak_rss_mb": rss * 1024 / 1e6,
        }
    else:
        metrics = {name: statistics.median([run[name] for run in layer_runs]) for name in layer_runs[0]}
        rels = [g.residual_rel for g in last.gates]
        effs = [g.effectivity for g in last.gates if g.effectivity is not None]
        metrics.update(
            {
                "trace.overhead_s": statistics.median(c.seconds for c in traced) - statistics.median(walls),
                "equilibration.verify_rel_max": max(rels, default=0.0),
                "steps_failed_frac": failed / attempted,
                "effectivity_max": max(effs, default=0.0),
            }
        )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"wall_s samples {len(walls)}: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s samples {len(setup_times)}: {', '.join(f'{s:.4f}' for s in setup_times)}")
    print(f"byte-identical to reference: {last.identical}")
    failing = "; ".join(f"step {g.step}: {', '.join(g.reasons)}" for g in last.gates if g.reasons)
    print(f"failed steps {failed} of {attempted}: {failing or 'none'}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, wall_samples=walls,
                  traced_wall_samples=[c.seconds for c in traced], setup_samples=setup_times,
                  problems=problems, byte_identical=last.identical,
                  failing_steps=[{"step": g.step, "reasons": g.reasons} for g in last.gates if g.reasons],
                  environment=environment())
    (WORK_ROOT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (WORK_ROOT / f"{run_id}.spans.json").write_text(json.dumps([t.spans for t in tracers]) + "\n")
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
