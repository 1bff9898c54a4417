import numpy as np
import pytest

import naps
from naps import harness


SEED = 101


@pytest.fixture(scope="session")
def uniform_gen():
    return naps.analytic_config(0.5, naps.uniform_prior())


@pytest.fixture(scope="session")
def model(uniform_gen):
    return naps.AnalyticMarginalClassifier(uniform_gen)


@pytest.fixture(scope="session")
def base_config():
    return harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=100_000,
        n_evaluation=20_000,
        alphas=(0.05, 0.1, 0.2),
        cutoff_grid_size=200,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def pipeline(base_config):
    return harness.fit_pipeline(base_config)


@pytest.fixture(scope="session")
def calibration(base_config):
    return base_config.calibration_set()


@pytest.fixture(scope="session")
def fine_config():
    # Finer binning and grid: used wherever cutoffs are compared against
    # closed-form x-space values.
    return harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=400_000,
        n_evaluation=10_000,
        alphas=(0.05, 0.1, 0.2),
        nu_bins=40,
        nu_bin_scheme="geometric",
        cutoff_grid_size=400,
        seed=2024,
    )


@pytest.fixture(scope="session")
def fine_pipeline(fine_config):
    return harness.fit_pipeline(fine_config)


@pytest.fixture(scope="session")
def readme_points():
    """3000 evaluation observations of the README config (uniform training prior, N(4, 0.1) target)."""
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=200_000,
        n_evaluation=3000,
        seed=7,
    )
    return cfg.evaluation_set().x
