"""Probabilistic classifiers and the Bayes-factor test statistic.

The analytic classifier evaluates P(Y=1 | x) exactly, marginalizing the
class-0 nuisance parameter over its training prior with one Gauss-Legendre
rule, chosen once per classifier from 16, 32 and 64 nodes (each size's
Gauss-Legendre nodes and weights are computed once per process, read-only,
and shared by every classifier): the 64-node rule is checked against the
128-node one to the classifier's ``quad_tol``, and the coarsest rule that
differs from its double by no more than any finer pair does (so its own
difference is rounding) is the one used. The rule's
weights carry the class-0 normalizer nu / (1 - e^{-nu}), so x is read in
blocks of 4096 rows with one exponential per (x, node), and each x's
weighted terms are summed by a fixed pairwise tree of elementwise adds over
the nodes: a point's posterior is the same IEEE operations, hence
bit-identical, whether it is scored alone or in any batch, and its bits do
not depend on the BLAS library, which it does not call. ``scipy.special``
is imported only by the discrete toy's paths.
A histogram classifier provides an estimated posterior so the full
pipeline can also be exercised with a fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import files, genmodel
from .errors import ConfigError, DomainError, NumericError
from .genmodel import SCENARIO_ANALYTIC, Dataset, GenerativeConfig, PriorSpec

POSTERIOR_CLIP = 1e-12

# Gauss-Legendre sizes tried for the nuisance rule, each compared with the next; 128 only checks 64.
_LADDER = (16, 32, 64, 128)
# Rows of x per block of the rule. NumPy's broadcasting loops over shorter rows run up to
# twice as slow; the block's terms take 512 KB per moment at 16 nodes, 2 MB at 64.
_BLOCK = 4096


@cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], computed once per process, read-only."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _nuisance_rule(prior: PriorSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An n-node rule against the prior, for the moments 1 and nu of the class-0 density.

    Returns the nodes and, per node, the prior weight times the class-0
    normalizer nu / (1 - e^{-nu}) in two columns, the second times nu: one
    exponential per (x, node) then gives both moments. A truncated Gaussian is
    integrated in its standardized variable z, where the sd cancels from the
    weights, so the nodes' rounding does not grow as the prior narrows.
    """
    if prior.kind == "point-mass":
        nodes, w = np.array([prior.value]), np.array([1.0])
    else:
        t, w = _legendre(n)
        u = np.array([1e-16, 1.0 - 1e-16])  # the window that holds the prior's mass
        if prior.kind == "truncated-gaussian":
            lo, hi = prior.standardized_ppf(u)
            z = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
            w = w * prior.standardized_pdf(z) * (hi - lo) / 2.0
            nodes = prior.mean + prior.sd * z
        else:
            lo, hi = prior.ppf(u)
            nodes = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
            w = w * prior.pdf(nodes) * (hi - lo) / 2.0
    nodes = genmodel._check_nu(nodes)
    w = w * nodes / -np.expm1(-nodes)
    return nodes, np.column_stack([w, nodes * w])


def _prior_moments(x, rule, k: int = 2) -> tuple[np.ndarray, ...]:
    """The first k of ∫ f0(x; nu) dπ(nu) and ∫ nu f0(x; nu) dπ(nu) per x.

    Each row's terms over the nodes are summed by the same pairwise tree of
    elementwise adds (halve the node axis, an odd count keeping its middle
    term), so a point's moments are bit-identical whatever batch it is
    scored in, on any BLAS.
    """
    nodes, weights = rule
    x = genmodel._check_unit_interval(x)
    flat = x.ravel()
    minus_nodes = -nodes[:, None]
    moments = np.empty((k, flat.size))
    for start in range(0, flat.size, _BLOCK):
        rows = flat[start : start + _BLOCK]
        t = np.empty((nodes.size, k, rows.size))  # (node, moment, row) terms
        e = np.exp(np.multiply(minus_nodes, rows, out=t[:, 0]), out=t[:, 0])
        if k == 2:
            np.multiply(e, weights[:, 1:], out=t[:, 1])
        e *= weights[:, :1]
        n = nodes.size
        while n > 1:
            h = n // 2
            lo = t[:h]
            lo += t[n - h : n]
            n -= h
        moments[:, start : start + _BLOCK] = t[0]
    return tuple(m.reshape(x.shape) for m in moments)


# The toy's log-rate shifts in hundredths: their dot products with counts are exact integer sums.
_TOY_CLASS_CENTS = np.rint(100.0 * genmodel.TOY_CLASS_SHIFT)
_TOY_PROTOCOL_CENTS = np.rint(100.0 * genmodel.TOY_PROTOCOL_SHIFT)


def _check_counts(x) -> np.ndarray:
    """The toy's count vectors as floats: finite nonnegative integers, ``TOY_N_DIMS`` to a vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != genmodel.TOY_N_DIMS:
        raise DomainError(f"a count vector has {genmodel.TOY_N_DIMS} entries, got shape {x.shape}")
    if not ((x >= 0.0) & (x < np.inf) & (x == np.floor(x))).all():  # a NaN fails all three
        raise DomainError("counts must be finite nonnegative integers")
    return x


def _toy_log_numerator(x, y: int, weights, protocols) -> np.ndarray:
    """log sum_k weights[k] p(x | y, protocols[k]), less x . TOY_LOG_BASE and the log-factorials.

    Those terms are shared by every (y, k) and cancel in the log-odds. The
    rest reads x only through exact integer sums, so tied count vectors get
    equal floats; the mixture is taken in log space, so counts cannot underflow.
    """
    from scipy import special

    with np.errstate(divide="ignore"):  # a zero weight is a -inf term
        log_w = np.log(np.asarray(weights, dtype=float))
    class_term = y * (x @ _TOY_CLASS_CENTS) / 100.0
    terms = [
        lw + class_term + (x @ _TOY_PROTOCOL_CENTS[k]) / 100.0 - np.sum(genmodel.toy_rates(y, k))
        for lw, k in zip(log_w, protocols)
    ]
    return special.logsumexp(terms, axis=0)


@dataclass(frozen=True)
class AnalyticMarginalClassifier:
    """Exact P(Y=1 | x) under a known generative configuration.

    The class-0 density is marginalized over the configured training prior;
    the class-1 density is nuisance-free in both scenarios' class-1 branch
    of the analytic model, so no integral is needed there.
    """

    config: GenerativeConfig
    quad_tol: float = 1e-9
    kind: str = field(default="analytic-marginal", init=False)

    def __post_init__(self):
        if not 0.0 < self.quad_tol < np.inf:
            raise ConfigError(f"quad_tol must be finite and > 0, got {self.quad_tol!r}")

    @property
    def class1_prior(self) -> float:
        return self.config.class1_probability

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The class-0 prior's nuisance rule: the coarsest on the ladder that has converged.

        Each rule's moments at 9 probes of [0, 1] are compared with the next
        rule's. The 64- and 128-node rules must agree to ``quad_tol``. A rule
        is used once its difference is no larger than any finer pair's: the
        differences have stopped falling, so what is left is rounding. The
        128-node weights carry more rounding than the coarser ones, so their
        difference alone is too loose a floor: on N(-3, 1) it passes a 16-node
        rule ten times less accurate than the 64-node one.
        """
        prior = self.config.nuisance_prior_class0
        rules = [_nuisance_rule(prior, n) for n in _LADDER]
        probes = np.linspace(0.0, 1.0, 9)
        moments = [np.stack(_prior_moments(probes, rule)) for rule in rules]
        errs = [np.max(np.abs(coarse - fine)) for coarse, fine in zip(moments, moments[1:])]
        if not errs[-1] <= self.quad_tol:
            raise NumericError(
                f"nuisance quadrature did not converge: {_LADDER[-2]}- and {_LADDER[-1]}-node rules "
                f"differ by {errs[-1]:.3e} at tolerance {self.quad_tol:.1e}"
            )
        return next(rule for i, (rule, err) in enumerate(zip(rules, errs)) if err <= np.min(errs[i:]))

    def posterior1(self, x) -> np.ndarray:
        """P(Y=1 | x), vectorized."""
        x = np.asarray(x, dtype=float)
        p1 = self.config.class1_probability
        if self.config.scenario == SCENARIO_ANALYTIC:
            num1 = p1 * genmodel.density_class1(x)
            (f0bar,) = _prior_moments(x, self._rule, k=1)
            num0 = (1.0 - p1) * f0bar
            out = num1 / (num1 + num0)
            return float(out) if x.ndim == 0 else out
        # Discrete toy: finite mixture over protocols.
        from scipy import special

        x = _check_counts(x)
        protocols = self.config.nuisance_space.categories
        weights1 = p1 * self.config.nuisance_prior_class1.pdf(protocols)
        weights0 = (1.0 - p1) * self.config.nuisance_prior_class0.pdf(protocols)
        log_odds = _toy_log_numerator(x, 1, weights1, protocols) - _toy_log_numerator(x, 0, weights0, protocols)
        out = special.expit(log_odds)
        return float(out) if x.ndim == 1 else out

    def posterior1_given_nu(self, x, nu) -> np.ndarray:
        """P(Y=1 | x, nu) at a fixed nuisance value; a toy protocol outside its space is a ``DomainError``."""
        p1 = self.config.class1_probability
        if self.config.scenario == SCENARIO_ANALYTIC:
            num1 = p1 * genmodel.density_class1(x)
            num0 = (1.0 - p1) * genmodel.density_class0(x, nu)
            return num1 / (num1 + num0)
        from scipy import special

        x = _check_counts(x)
        if np.ndim(nu) or not self.config.nuisance_space.contains(nu):
            raise DomainError(f"protocol must be one of {list(self.config.nuisance_space.categories)}, got {nu!r}")
        log_odds = _toy_log_numerator(x, 1, [p1], [int(nu)]) - _toy_log_numerator(x, 0, [1.0 - p1], [int(nu)])
        out = special.expit(log_odds)
        return float(out) if np.ndim(x) == 1 else out

    def posterior_mean_nu(self, x) -> np.ndarray:
        """Posterior mean of the nuisance parameter given x, mixing over classes.

        E[nu | x] = [p1 f1(x) m1 + p0 ∫ nu f0(x; nu) dπ0(nu)] / [p1 f1(x) + p0 ∫ f0(x; nu) dπ0(nu)]
        where m1 is the class-1 prior mean (the class-1 density carries no
        nuisance information).
        """
        if self.config.scenario != SCENARIO_ANALYTIC:
            raise ConfigError("posterior_mean_nu is defined for the analytic scenario only")
        x = np.asarray(x, dtype=float)
        p1 = self.config.class1_probability
        m1 = self.config.nuisance_prior_class1.mean_value()
        f1 = genmodel.density_class1(x)
        f0bar, nu_f0bar = _prior_moments(x, self._rule)
        out = (p1 * f1 * m1 + (1.0 - p1) * nu_f0bar) / (p1 * f1 + (1.0 - p1) * f0bar)
        return float(out) if x.ndim == 0 else out


@dataclass(frozen=True)
class HistogramClassifier:
    """Per-bin class-1 frequency with add-one smoothing.

    Evaluation clamps x into the nearest bin, so the posterior is defined on
    the whole real line and stays strictly inside (0, 1); a NaN x is a
    ``DomainError``. ``config`` and ``n_train`` are the training
    configuration and size it was fitted under, recorded so that a saved
    histogram is not evaluated under another one.
    """

    bin_edges: np.ndarray
    bin_posterior: np.ndarray
    class1_prior: float
    config: GenerativeConfig
    n_train: int
    kind: str = field(default="histogram", init=False)

    def __post_init__(self):
        edges, posterior = np.asarray(self.bin_edges, dtype=float), np.asarray(self.bin_posterior, dtype=float)
        if posterior.ndim != 1 or posterior.size < 1 or edges.shape != (posterior.size + 1,):
            raise ConfigError("a histogram needs at least one bin and one more edge than bin posteriors")
        increasing = np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)
        if not (increasing and np.all((posterior >= 0) & (posterior <= 1)) and 0 <= self.class1_prior <= 1):
            raise ConfigError("histogram edges must be finite and increasing; posteriors and class1_prior in [0, 1]")

    def posterior1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DomainError("x must not be NaN")
        idx = np.searchsorted(self.bin_edges, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.bin_posterior) - 1)
        out = self.bin_posterior[idx]
        return float(out) if x.ndim == 0 else out


def fit_histogram_classifier(dataset: Dataset, n_bins: int, config: GenerativeConfig) -> HistogramClassifier:
    """Fit per-bin smoothed class-1 frequencies on [0, 1] to ``dataset``, drawn under ``config``."""
    if len(dataset) == 0:
        raise ConfigError("cannot fit a histogram classifier on an empty dataset")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if dataset.scenario != SCENARIO_ANALYTIC:
        raise ConfigError("the histogram classifier applies to scalar observations in [0, 1]")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, dataset.x, side="right") - 1, 0, n_bins - 1)
    total = np.bincount(idx, minlength=n_bins).astype(float)
    ones = np.bincount(idx, weights=(dataset.y == 1).astype(float), minlength=n_bins)
    posterior = (ones + 1.0) / (total + 2.0)
    return HistogramClassifier(
        bin_edges=edges,
        bin_posterior=posterior,
        class1_prior=float(np.mean(dataset.y == 1)),
        config=config,
        n_train=len(dataset),
    )


def _parse_classifier(d) -> AnalyticMarginalClassifier | HistogramClassifier:
    kind = d.get("kind") if isinstance(d, dict) else None
    for cls in (AnalyticMarginalClassifier, HistogramClassifier):
        if kind == cls.kind:
            return files.parse(cls, d)
    raise ConfigError(f"unknown classifier kind {kind!r}")


def load_classifier(path) -> AnalyticMarginalClassifier | HistogramClassifier:
    return files.read_json(path, _parse_classifier, "fitted artifact")


def save_classifier(model, path) -> None:
    files.write_json(path, model)


def bayes_factor_from_posterior(p_y: np.ndarray, prior_y: float):
    """Posterior-to-prior odds ratio, with clipping for boundary posteriors.

    Returns the statistic together with a mask marking entries whose
    posterior had to be clipped into [POSTERIOR_CLIP, 1 - POSTERIOR_CLIP].
    """
    if not 0.0 < prior_y < 1.0:
        raise DomainError("class prior must lie strictly inside (0, 1)")
    p_y = np.asarray(p_y, dtype=float)
    clipped = (p_y < POSTERIOR_CLIP) | (p_y > 1.0 - POSTERIOR_CLIP)
    p = p_y.clip(POSTERIOR_CLIP, 1.0 - POSTERIOR_CLIP)
    tau = (p * (1.0 - prior_y)) / ((1.0 - p) * prior_y)
    return tau, clipped


def bayes_factor(model, y: int, x) -> np.ndarray:
    """Bayes-factor statistic for label y at observation(s) x.

    The posterior odds of label y divided by its prior odds,
    [P(Y=y|x) P(Y != y)] / [P(Y != y|x) P(Y=y)]: a strictly increasing
    transform of the label-y posterior.
    """
    tau, _ = bayes_factor_with_flags(model, y, x)
    return tau


def bayes_factor_with_flags(model, y: int, x):
    if y not in (0, 1):
        raise DomainError("label must be 0 or 1")
    return label_bayes_factors(model.posterior1(x), model.class1_prior)[y]


def label_bayes_factors(p1, class1_prior: float) -> dict:
    """Both labels' Bayes factors and clip masks from one posterior P(Y=1 | x).

    Returns ``{y: (statistic, clipped)}``; label y's statistic is its own
    posterior odds over its prior odds.
    """
    p1 = np.asarray(p1, dtype=float)
    out = {}
    for y in (0, 1):
        p_y = p1 if y == 1 else 1.0 - p1
        prior_y = class1_prior if y == 1 else 1.0 - class1_prior
        out[y] = bayes_factor_from_posterior(p_y, prior_y)
    return out


@dataclass(frozen=True)
class ScoredDataset:
    """A dataset with the classifier's statistic on it, computed once.

    ``p1`` is P(Y=1 | x) per sample; ``statistics`` is the
    ``{y: (statistic, clipped)}`` output of ``label_bayes_factors``.
    """

    data: Dataset
    p1: np.ndarray
    statistics: dict


def score_dataset(model, data: Dataset) -> ScoredDataset:
    """One posterior pass over ``data``, turned into both labels' statistics."""
    p1 = np.asarray(model.posterior1(data.x), dtype=float)
    return ScoredDataset(data=data, p1=p1, statistics=label_bayes_factors(p1, model.class1_prior))


def x_at_bayes_factor(model, y: int, value: float) -> float:
    """Invert the Bayes-factor statistic back to x-space.

    Valid for the analytic scenario, where the posterior (hence the
    statistic) is strictly monotone in x. Values outside the attainable
    range clamp to the corresponding endpoint.
    """
    ends = float(bayes_factor(model, y, 0.0)), float(bayes_factor(model, y, 1.0))
    a, b = (0.0, 1.0) if ends[0] <= ends[1] else (1.0, 0.0)  # where the statistic is lowest, highest
    if value <= min(ends):
        return a
    if value >= max(ends):
        return b
    while abs(b - a) > 1e-12:  # bisection to 1e-12 in x
        mid = 0.5 * (a + b)
        a, b = (mid, b) if float(bayes_factor(model, y, mid)) < value else (a, mid)
    return 0.5 * (a + b)
