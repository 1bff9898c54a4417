"""Workload definitions: each one is an experiment config generated from a seed.

The program under test only ever sees the JSON config produced here; the
seed is the only input that changes between runs of one workload.
"""

from __future__ import annotations

NU_INTERVAL = {"kind": "continuous-interval", "bounds": [1.0, 10.0]}
PROTOCOLS = {"kind": "discrete-set", "categories": [0, 1, 2, 3]}
ALPHAS = [0.05, 0.1, 0.2]


def _analytic(seed: int) -> dict:
    return {
        "scenario": "analytic-exponential",
        "class1_probability": 0.5,
        "train_prior": {"kind": "uniform", "support": NU_INTERVAL},
        "target_prior": {"kind": "truncated-gaussian", "mean": 4.0, "sd": 0.1, "support": NU_INTERVAL},
        "n_calibration": 200_000,
        "n_evaluation": 50_000,
        "alphas": list(ALPHAS),
        "nu_bins": 20,
        "cutoff_grid_size": 200,
        "classifier": "analytic-marginal",
        "seed": seed,
    }


def analytic_readme(seed: int) -> dict:
    """The README quick-start config: quadrature-bound posterior."""
    return _analytic(seed)


def analytic_naps_only(seed: int) -> dict:
    """The README config with its two NAPS methods and no baselines.

    Its NAPS outputs are those of ``analytic-readme``; the baselines' passes
    over the calibration set are left out.
    """
    config = _analytic(seed)
    config["methods"] = [
        {"name": "naps", "kind": "naps"},
        {
            "name": "naps-oracle",
            "kind": "naps",
            "gamma_rule": {"kind": "alpha-multiple", "value": 0.01},
            "provider": "oracle-quantile",
        },
    ]
    return config


def histogram_10x(seed: int) -> dict:
    """The README priors at ten times the data, with the histogram classifier."""
    config = _analytic(seed)
    config.update(n_calibration=2_000_000, n_evaluation=500_000, n_train=1_000_000, classifier="histogram")
    return config


def discrete_toy(seed: int) -> dict:
    """Poisson-count toy under four protocols, shifted towards protocol 3."""
    return {
        "scenario": "discrete-toy",
        "class1_probability": 0.5,
        "train_prior": {"kind": "discrete-weights", "weights": [0.25, 0.25, 0.25, 0.25], "support": PROTOCOLS},
        "target_prior": {"kind": "discrete-weights", "weights": [0.05, 0.05, 0.1, 0.8], "support": PROTOCOLS},
        "n_calibration": 200_000,
        "n_evaluation": 50_000,
        "alphas": list(ALPHAS),
        "methods": [
            {"name": "naps", "kind": "naps"},
            {"name": "standard", "kind": "standard"},
            {"name": "class-conditional", "kind": "class-conditional"},
        ],
        "cutoff_grid_size": 200,
        "seed": seed,
    }


WORKLOADS = {
    "analytic-readme": analytic_readme,
    "analytic-naps-only": analytic_naps_only,
    "histogram-10x": histogram_10x,
    "discrete-toy": discrete_toy,
}


def scaled(config: dict, factor: float) -> dict:
    """The same config with every dataset size multiplied by ``factor``.

    Used only by the benchmark's own self-tests, never by a measured run.
    """
    out = dict(config)
    for key in ("n_calibration", "n_evaluation", "n_train"):
        if key in out:
            out[key] = max(2_000, int(out[key] * factor))
    return out
