"""Nuisance-aware prediction sets for binary classification under
generalized label shift: distribution shift in (label, nuisance) while the
observation model p(x | y, nu) is shared between train and target."""

from .classifier import (
    AnalyticMarginalClassifier,
    HistogramClassifier,
    bayes_factor,
    bayes_factor_from_posterior,
    fit_histogram_classifier,
)
from .cutoffs import CutoffRequest, CutoffResult, analytic_oracle_cutoffs, cutoff_for_region
from .errors import (
    BinningError,
    ConfigError,
    DomainError,
    NapsError,
    NumericError,
    SaturationError,
)
from .genmodel import (
    Dataset,
    GenerativeConfig,
    NuisanceSpace,
    PriorSpec,
    analytic_config,
    sample_dataset,
    truncated_gaussian_prior,
    uniform_prior,
)
from .harness import ExperimentConfig, MetricsReport, gamma_sweep, invariance_check, run_experiment
from .nuisance import (
    FullSpaceProvider,
    NuisanceRegion,
    OracleQuantileProvider,
    full_space_set,
)
from .prediction_sets import NapsSetClassifier, PredictionSet
from .rejection import CutoffGrid, NuBinning, RejectionSurface, fit_surface, pit_diagnostics

__version__ = "0.1.0"
