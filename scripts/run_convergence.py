#!/usr/bin/env python3
"""Uniform-refinement convergence table on the smooth constructed problem.

For each mesh in a chain of structured unit-square meshes, solves the
problem, reconstructs the equilibrated stress, and prints the energy
error, the total estimator, and the guaranteed bound, followed by the
observed orders (fitted over the last three meshes).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from stresseq import (
    Material,
    conservative_constants,
    manufactured_smooth,
    solve_step,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1, choices=(1, 2),
                    help="pressure degree (displacement is one higher)")
    ap.add_argument("--cells", type=int, nargs="+", default=[4, 8, 16, 32],
                    help="grid cells per side for each mesh in the chain")
    ap.add_argument("--inv-lambda", type=float, default=0.0,
                    help="1/lambda; 0 is the incompressible limit")
    ap.add_argument("--mu", type=float, default=1.0, help="shear modulus")
    args = ap.parse_args()

    consts = conservative_constants()
    mat = Material(mu=args.mu, inv_lambda=args.inv_lambda)
    hs, errs, etas = [], [], []
    print(f"{'cells':>6} {'h':>10} {'N':>8} {'error':>12} {'eta_total':>12} "
          f"{'bound':>12} {'sqrt(bound)/err':>15}")
    for cells in args.cells:
        problem = manufactured_smooth(mat, cells=cells)
        step = solve_step(problem, problem.mesh, args.k, consts)
        rep = step.report
        err = rep.energy_error
        hs.append(1.0 / cells)
        errs.append(err)
        etas.append(rep.eta_total)
        print(f"{cells:>6} {1.0 / cells:>10.4e} {step.n_dofs:>8} "
              f"{err:>12.4e} {rep.eta_total:>12.4e} {rep.bound:>12.4e} "
              f"{np.sqrt(rep.bound) / err:>15.2f}")

    if len(hs) >= 3:
        log_h = np.log(hs[-3:])
        order_err = np.polyfit(log_h, np.log(errs[-3:]), 1)[0]
        order_eta = np.polyfit(log_h, np.log(etas[-3:]), 1)[0]
        print(f"observed order (last 3 meshes): error {order_err:.3f}, "
              f"estimator {order_eta:.3f}  (expected ~{args.k + 1})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
