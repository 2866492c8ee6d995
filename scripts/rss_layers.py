#!/usr/bin/env python3
"""Peak resident memory of each layer of a run, call by call, in one process.

    python scripts/rss_layers.py SRC WORKLOAD [--calls 3]

SRC is a directory holding a ``stresseq`` package (the ``src`` directory of
a checkout); WORKLOAD is a name from ``perfbench/workloads.py``.  The script
writes the workload's inputs (seed 1) and runs ``harness.main(["run", cfg])``
``--calls`` times in this one process.  The five layers of a step,
``assemble_system``, ``solve``, ``direct_stress``, ``equilibrate`` and
``estimate``, are wrapped where ``adaptivity`` imports them, and
``verify_equilibration`` and ``attach_reference_errors`` where ``harness``
imports them.  After each call the script runs perfbench's per-step check
(``checks.capture_steps`` around the call, then ``checks.verify_captured``)
as one more layer, ``check``, so that the process holds what perfbench's
holds.  A daemon thread reads the resident set of the process from
``/proc/self/statm`` every 2 ms and counts each reading toward the layer
that runs at that moment, or toward ``outside``; each wrapper also reads
it on entry and on exit.  For each call the script prints the peak RSS
inside each layer and outside them, and ``ru_maxrss`` after the check (the
peak of the process so far, as perfbench's ``peak_rss_mb`` reads it).  MB
are 10^6 bytes.

``tracemalloc`` counts only the bytes that Python's allocator hands out, so
it cannot show how glibc's heap places them, and from the second call on
cook-large's peak depends on that placement; the RSS shows it.  The thread
reads only while it holds the interpreter lock, so a peak that lasts less
than the interpreter's switch interval (5 ms) inside a native call that
keeps the lock can be missed.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import pathlib
import resource
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("assemble_system", "solve", "direct_stress", "equilibrate", "estimate")
HARNESS_LAYERS = ("verify_equilibration", "attach_reference_errors")
CHECK = "check"
OUTSIDE = "outside"
PERIOD_S = 0.002
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6


def rss_mb() -> float:
    """The resident set of this process, read from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_MB


class Sampler:
    """The peak RSS per layer since the last :meth:`take`, fed by the
    sampling thread (:meth:`run`) and by the layer wrappers."""

    def __init__(self):
        self.layer = OUTSIDE
        self.peaks: dict[str, float] = {}
        self._lock = threading.Lock()

    def sample(self, layer: str) -> None:
        rss = rss_mb()
        with self._lock:
            self.peaks[layer] = max(self.peaks.get(layer, 0.0), rss)

    def run(self) -> None:
        while True:
            self.sample(self.layer)
            time.sleep(PERIOD_S)

    def wrap(self, name: str, inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            outer = self.layer
            self.layer = name
            self.sample(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.sample(name)
                self.layer = outer

        return wrapper

    def take(self) -> dict[str, float]:
        with self._lock:
            peaks, self.peaks = self.peaks, {}
        return peaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=pathlib.Path)
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--calls", type=int, default=3, help="runs in this process")
    args = ap.parse_args(argv)
    if args.calls < 1:
        ap.error("--calls must be at least 1")

    sys.path.insert(0, str(args.src.resolve()))
    from stresseq import adaptivity, harness

    sampler = Sampler()
    for module, names in ((adaptivity, LAYERS), (harness, HARNESS_LAYERS)):
        for name in names:
            setattr(module, name, sampler.wrap(name, getattr(module, name)))
    verify_captured = sampler.wrap(CHECK, checks.verify_captured)
    threading.Thread(target=sampler.run, daemon=True).start()

    columns = (*LAYERS, *HARNESS_LAYERS, CHECK, OUTSIDE, "ru_maxrss")
    width = max(map(len, columns)) + 1
    print(f"{args.workload}: {args.calls} calls in one process, "
          f"peak RSS per layer (MB), sampled every {PERIOD_S * 1e3:g} ms")
    print("call " + " ".join(f"{c:>{width}}" for c in columns))
    with tempfile.TemporaryDirectory() as tmp:
        config, _ = workloads.write_inputs(args.workload, 1, pathlib.Path(tmp))
        sampler.take()  # the set-up belongs to no call
        for call in range(1, args.calls + 1):
            captured: list = []
            with checks.capture_steps(captured):
                code = harness.main(["run", str(config)])
            if code != 0:
                raise SystemExit(f"call {call}: run exited {code}")
            verify_captured(captured)
            del captured
            peaks = sampler.take()
            peaks["ru_maxrss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            print(f"{call:>4} " + " ".join(
                f"{peaks[c]:>{width}.1f}" if c in peaks else f"{'-':>{width}}" for c in columns
            ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
