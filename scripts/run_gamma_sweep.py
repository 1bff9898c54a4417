#!/usr/bin/env python3
"""Sweep the nuisance-confidence level gamma and report the power optimum.

For each gamma, the class-0 rejection cutoff is the closed-form supremum of
the per-nu upper quantile over the oracle (1-gamma) interval of the target
nuisance distribution, inverted at level alpha - gamma. Small gamma shrinks
the search region (cutoff down, power up) but also tightens the inversion
level (cutoff up); the optimum sits in between.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import naps
from naps import files, harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/gamma_sweep")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--evaluation", type=int, default=50_000)
    parser.add_argument("--grid-lo", type=float, default=1e-4)
    parser.add_argument("--grid-hi", type=float, default=1e-2)
    parser.add_argument("--grid-size", type=int, default=30)
    args = parser.parse_args()

    config = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=1_000,
        n_evaluation=args.evaluation,
        alphas=(args.alpha,),
        seed=args.seed,
    )
    grid = np.concatenate([[0.0], np.geomspace(args.grid_lo, args.grid_hi, args.grid_size)])
    result = harness.gamma_sweep(config, args.alpha, grid)

    print(f"{'gamma':>12} {'x0*':>10} {'power(y=1)':>11}")
    for row in result["rows"]:
        if row["skipped"]:
            print(f"{row['gamma']:>12.2e}    skipped ({row['reason']})")
        else:
            print(f"{row['gamma']:>12.2e} {row['x0_star']:>10.5f} {row['power_y1']:>11.4f}")
    print(f"\ncutoff-minimizing gamma: {result['minimizing_gamma']:.3e} "
          f"(x0* = {result['min_x0_star']:.5f})")

    files.write_json(os.path.join(args.out, "gamma_sweep.json"), result)
    print(f"table written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
