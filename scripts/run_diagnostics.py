#!/usr/bin/env python3
"""Goodness-of-fit diagnostics for the fitted rejection surface.

Prints per-bin PIT Kolmogorov-Smirnov distances for the nuisance-aware
surface and a one-bin control that ignores the nuisance parameter, then the
per-cell sup-distances of the invariance check (train-fitted surface against
target-data rejection rates), with and without a deliberate likelihood
perturbation.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import naps
from naps import files, harness


def _fmt(distance) -> str:
    """A sup-distance, or n/a when every cell was too sparse to compare."""
    return "n/a" if distance is None else f"{distance:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/diagnostics")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calibration", type=int, default=400_000)
    parser.add_argument("--evaluation", type=int, default=40_000)
    parser.add_argument("--param-bins", type=int, default=2)
    args = parser.parse_args()

    config = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=args.calibration,
        n_evaluation=args.evaluation,
        nu_bins=20,
        cutoff_grid_size=400,
        seed=args.seed,
    )
    # One fit: its calibration posterior also feeds the PIT control surface.
    pipeline = harness.fit_pipeline(config)

    pit = harness.run_pit_diagnostics(config, n_param_bins=args.param_bins, pipeline=pipeline)
    print("PIT diagnostics (KS distance vs the 1.36/sqrt(n) band):")
    for name in ("nuisance_aware", "nuisance_ignoring"):
        print(f"  {name}:")
        for row in pit[name]:
            verdict = "ok" if row["within_band"] else "OUT OF BAND"
            print(f"    {row['bin']:<22} n={row['n']:<7} ks={row['ks_distance']:.4f} "
                  f"band={row['ks_band']:.4f}  {verdict}")

    clean = harness.invariance_check(config, pipeline=pipeline)
    broken = harness.invariance_check(config, perturb_scale=1.5, pipeline=pipeline)
    print("\nInvariance of the rejection probability under the target shift:")
    print(f"  cells compared: {len(clean['cells'])} (skipped {len(clean['skipped'])} sparse cells)")
    print(f"  max sup-distance: {_fmt(clean['max_sup_distance'])}")
    print(f"  with class-0 rate perturbation x1.5: {_fmt(broken['max_sup_distance'])}")

    files.write_json(os.path.join(args.out, "pit.json"), pit)
    files.write_json(os.path.join(args.out, "invariance.json"), {"clean": clean, "perturbed": broken})
    print(f"\ntables written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
