"""Synthetic generative processes with exact densities, CDFs and quantiles.

Two scenarios are implemented:

* ``analytic-exponential`` -- a scalar observation x in [0, 1]. Class 1 has
  density e^x / (e - 1); class 0 has a truncated-exponential density
  nu * exp(-nu x) / (1 - exp(-nu)) indexed by a nuisance parameter
  nu in [1, 10]. Both class-conditional CDFs invert in closed form, so
  sampling is exact inverse-CDF transform sampling.

* ``discrete-toy`` -- an 8-dimensional count observation. The nuisance
  parameter is one of four acquisition protocols; counts are independent
  Poissons whose log-rates are linear in (class, protocol). All rate
  constants are fixed below.

``sample_dataset`` is the only sampler, for both scenarios: it draws the
label, then the nuisance from that label's prior, then the observation. A
draw at fixed ``(y, nu)`` is a ``sample_dataset`` draw on
``point_mass_prior(nu)`` with class-1 probability 0 or 1. Randomness is
counter-based (Philox) keyed by ``(seed, stream)``, so every draw is
reproducible regardless of how work is split up.

The truncated-Gaussian nuisance prior is computed on ``scipy.special`` with
scipy's own truncnorm algorithm (log-mass in the nearer tail, quantiles by
``ndtri_exp``), so its quantiles, density and mean are bit-identical to
``scipy.stats.truncnorm`` wherever that is finite (a top quantile whose lower
tail rounds to mass 1 is inverted from the upper tail instead) without
importing ``scipy.stats``, which would add about half a second to every
command-line start-up. The quantile's two-term log-sum-exp is NumPy
arithmetic, scipy's own for two terms, so it keeps ``scipy.special.logsumexp``'s
bits without its array-API layer. ``scipy.special`` itself is imported only
by the truncated Gaussian's functions, so a run on uniform priors never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import files
from .errors import ConfigError, DomainError

E_MINUS_1 = math.e - 1.0

SCENARIO_ANALYTIC = "analytic-exponential"
SCENARIO_DISCRETE = "discrete-toy"

# Sub-stream offsets within one dataset draw.
_STREAM_LABEL = 0
_STREAM_NUISANCE = 1
_STREAM_OBSERVATION = 2

# Discrete-toy constants: 4 protocols, 8 count dimensions. Log-rates are
# base + class_shift * y + protocol_shift[protocol]. Chosen so counts stay
# small (rates between roughly 0.5 and 8) and every (y, protocol) pair is
# distinguishable.
TOY_N_PROTOCOLS = 4
TOY_N_DIMS = 8
TOY_LOG_BASE = np.log(np.array([2.0, 3.5, 1.5, 4.0, 2.5, 1.8, 3.0, 1.2]))
TOY_CLASS_SHIFT = np.array([0.45, -0.30, 0.25, -0.50, 0.35, -0.20, 0.15, -0.40])
TOY_PROTOCOL_SHIFT = np.array(
    [
        [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00],
        [0.20, -0.10, 0.15, -0.20, 0.10, -0.15, 0.05, -0.10],
        [-0.15, 0.25, -0.10, 0.10, -0.20, 0.20, -0.05, 0.15],
        [0.35, -0.25, 0.30, -0.35, 0.25, -0.30, 0.20, -0.25],
    ]
)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Distinct streams are statistically independent, and a given key always
    reproduces the same sequence.
    """
    if seed < 0 or stream < 0:
        raise ConfigError(f"seed and stream must be nonnegative, got ({seed}, {stream})")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NuisanceSpace:
    """Domain of the nuisance parameter: a closed interval or a finite set."""

    kind: str  # "continuous-interval" | "discrete-set"
    bounds: tuple[float, float] | None = None
    categories: tuple[int, ...] | None = None

    def __post_init__(self):
        interval = self.bounds is not None and len(self.bounds) == 2 and self.bounds[0] < self.bounds[1]
        if self.kind == "continuous-interval" and not (interval and self.categories is None):
            raise ConfigError(f"a continuous nuisance space takes two bounds lo < hi and no categories, got {self}")
        unique = bool(self.categories) and len(set(self.categories)) == len(self.categories)
        if self.kind == "discrete-set" and not (unique and self.bounds is None):
            raise ConfigError(f"a discrete nuisance space takes unique categories and no bounds, got {self}")
        if self.kind not in ("continuous-interval", "discrete-set"):
            raise ConfigError(f"unknown nuisance space kind {self.kind!r}")

    @property
    def is_continuous(self) -> bool:
        return self.kind == "continuous-interval"

    def contains(self, nu) -> np.ndarray:
        nu = np.asarray(nu)
        if self.is_continuous:
            lo, hi = self.bounds
            return (nu >= lo) & (nu <= hi)
        return np.isin(nu, np.asarray(self.categories))


ANALYTIC_SPACE = NuisanceSpace(kind="continuous-interval", bounds=(1.0, 10.0))
DISCRETE_SPACE = NuisanceSpace(kind="discrete-set", categories=tuple(range(TOY_N_PROTOCOLS)))


_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


def _log_gauss_mass(a: float, b: float) -> float:
    """Log of the standard normal mass on [a, b], as scipy's truncnorm computes it.

    The tails are worked in the left tail (a log_ndtr difference, mirrored
    for a > 0); the central case is log1p(-Phi(a) - Phi(-b)).
    """
    from scipy import special

    if b <= 0 or a > 0:
        hi, lo = (b, a) if b <= 0 else (-a, -b)
        return special.logsumexp([special.log_ndtr(hi), special.log_ndtr(lo) + np.pi * 1j], axis=0).real
    return special.log1p(-special.ndtr(a) - special.ndtr(-b))


def _std_normal_pdf(z, log_mass):
    """Standard normal density at z renormalized by exp(log_mass)."""
    return np.exp(-z**2 / 2.0 - _LOG_SQRT_2PI - log_mass)


def _log_add_exp(c, v):
    """log(exp(c) + exp(v)) for a finite scalar c, bit-identical to ``scipy.special.logsumexp([c, v])``.

    It is scipy's own arithmetic for two terms, on the same NumPy ufuncs: the
    larger term plus log1p of the smaller one's shifted exponential, and
    log(2) + c at an exact tie. NaN stays NaN.
    """
    hi = np.maximum(v, c)
    return np.where(v == c, np.log(2.0) + c, np.log1p(np.exp(np.minimum(v, c) - hi)) + hi)


# The parameters each prior kind takes; a prior given any other one is refused.
_PRIOR_PARAMETERS = {
    "uniform": (), "truncated-gaussian": ("mean", "sd"), "discrete-weights": ("weights",), "point-mass": ("value",)
}


@dataclass(frozen=True)
class PriorSpec:
    """Distribution over the nuisance space.

    ``truncated-gaussian`` is truncated to the support interval and
    renormalized; ``sd`` is the standard deviation of the parent normal.
    """

    kind: str  # "uniform" | "truncated-gaussian" | "discrete-weights" | "point-mass"
    support: NuisanceSpace
    mean: float | None = None
    sd: float | None = None
    weights: tuple[float, ...] | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _PRIOR_PARAMETERS:
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        given = tuple(p for p in ("mean", "sd", "weights", "value") if getattr(self, p) is not None)
        if given != _PRIOR_PARAMETERS[self.kind]:
            expected = ", ".join(_PRIOR_PARAMETERS[self.kind]) or "no parameter"
            raise ConfigError(f"a {self.kind} prior takes {expected}, got {', '.join(given) or 'none'}")
        if self.kind != "point-mass" and self.support.is_continuous == (self.kind == "discrete-weights"):
            raise ConfigError(f"a {self.kind} prior does not apply to a {self.support.kind} nuisance space")
        if self.kind == "truncated-gaussian" and not (math.isfinite(self.mean) and 0 < self.sd < math.inf):
            raise ConfigError("truncated-gaussian prior needs a finite mean and a finite sd > 0")
        w = self.weights
        if self.kind == "discrete-weights" and not (
            len(w) == len(self.support.categories)
            and all(math.isfinite(wi) and wi >= 0 for wi in w)
            and abs(sum(w) - 1.0) <= 1e-12
        ):
            raise ConfigError(f"discrete weights must be finite, nonnegative, one per category and sum to 1, got {w}")
        if self.kind == "point-mass" and not bool(np.all(self.support.contains(self.value))):
            raise ConfigError("point-mass prior needs a value inside the support")

    def _tn(self):
        lo, hi = self.support.bounds
        a = (lo - self.mean) / self.sd
        b = (hi - self.mean) / self.sd
        return a, b, _log_gauss_mass(a, b)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Quantile transform of u in [0, 1]; used for inverse-CDF sampling."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            lo, hi = self.support.bounds
            return lo + u * (hi - lo)
        if self.kind == "truncated-gaussian":
            return self.standardized_ppf(u) * self.sd + self.mean
        if self.kind == "point-mass":
            return np.full_like(u, self.value)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(cum) - 1)
        return np.asarray(self.support.categories)[idx]

    def pdf(self, nu: np.ndarray) -> np.ndarray:
        """Density (continuous kinds) or mass (discrete kinds) at nu."""
        nu = np.asarray(nu, dtype=float)
        if self.kind == "uniform":
            lo, hi = self.support.bounds
            return np.where((nu >= lo) & (nu <= hi), 1.0 / (hi - lo), 0.0)
        if self.kind == "truncated-gaussian":
            return self.standardized_pdf((nu - self.mean) / self.sd) / self.sd
        if self.kind == "point-mass":
            return np.where(nu == self.value, np.inf, 0.0)
        cats = np.asarray(self.support.categories, dtype=float)
        w = np.asarray(self.weights)
        scalar = nu.ndim == 0
        nu1 = np.atleast_1d(nu)
        out = np.zeros_like(nu1, dtype=float)
        for c, wi in zip(cats, w):
            out[nu1 == c] = wi
        return out[0] if scalar else out

    def standardized_ppf(self, u: np.ndarray) -> np.ndarray:
        """Truncated Gaussian: quantiles of its standardized variable z = (nu - mean) / sd."""
        from scipy import special

        u = np.asarray(u, dtype=float)
        a, b, mass = self._tn()
        # Invert from the lower tail of the side nearer the mode (mirrored when a >= 0).
        sign, edge = (1.0, a) if a < 0 else (-1.0, -b)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q = np.log(u) if a < 0 else np.log1p(-u)
            # log Phi(z) = log(Phi(edge) + q * exp(mass)) at the quantile z, a two-term log-sum-exp
            # in NumPy arithmetic (bit-identical to scipy's), inverted by ndtri_exp.
            z = special.ndtri_exp(_log_add_exp(special.log_ndtr(edge), log_q + mass))
            # Unmirrored, that tail's cdf can round to 1 (z = inf) below the upper edge: there,
            # invert from the upper tail. Mirrored, it stays below ndtr(-a) <= 1/2.
            top = np.isinf(z) & (u > 0.0) & (u < 1.0)
            if np.any(top):
                z = np.where(top, -special.ndtri_exp(_log_add_exp(special.log_ndtr(-b), np.log1p(-u) + mass)), z)
        z = sign * z
        return np.select([u == 0.0, u == 1.0, (u > 0.0) & (u < 1.0)], [a, b, z], np.nan)

    def standardized_pdf(self, z: np.ndarray) -> np.ndarray:
        """Truncated Gaussian: density of z = (nu - mean) / sd, which is ``pdf`` times sd."""
        a, b, mass = self._tn()
        return np.select([(z >= a) & (z <= b), np.isnan(z)], [_std_normal_pdf(z, mass), np.nan], 0.0)

    def mean_value(self) -> float:
        if self.kind == "uniform":
            lo, hi = self.support.bounds
            return 0.5 * (lo + hi)
        if self.kind == "truncated-gaussian":
            a, b, mass = self._tn()
            return float((_std_normal_pdf(a, mass) - _std_normal_pdf(b, mass)) * self.sd + self.mean)
        if self.kind == "point-mass":
            return float(self.value)
        return float(np.dot(self.weights, np.asarray(self.support.categories, dtype=float)))


def uniform_prior(space: NuisanceSpace = ANALYTIC_SPACE) -> PriorSpec:
    return PriorSpec(kind="uniform", support=space)


def point_mass_prior(value, space: NuisanceSpace = ANALYTIC_SPACE) -> PriorSpec:
    return PriorSpec(kind="point-mass", support=space, value=value)


def truncated_gaussian_prior(mean: float, sd: float, space: NuisanceSpace = ANALYTIC_SPACE) -> PriorSpec:
    return PriorSpec(kind="truncated-gaussian", support=space, mean=mean, sd=sd)


def discrete_prior(weights, space: NuisanceSpace = DISCRETE_SPACE) -> PriorSpec:
    return PriorSpec(kind="discrete-weights", support=space, weights=tuple(weights))


@dataclass(frozen=True)
class GenerativeConfig:
    """Complete description of one joint distribution over (y, nu, x)."""

    scenario: str
    class1_probability: float
    nuisance_prior_class0: PriorSpec
    nuisance_prior_class1: PriorSpec

    def __post_init__(self):
        if self.scenario not in (SCENARIO_ANALYTIC, SCENARIO_DISCRETE):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not 0.0 <= self.class1_probability <= 1.0:
            raise ConfigError("class1_probability must lie in [0, 1]")
        if self.nuisance_prior_class0.support != self.nuisance_prior_class1.support:
            raise ConfigError("class priors must share a common nuisance space")
        space = self.nuisance_prior_class0.support
        if self.scenario == SCENARIO_ANALYTIC and not space.is_continuous:
            raise ConfigError("analytic scenario requires a continuous nuisance space")
        if self.scenario == SCENARIO_ANALYTIC and not np.all(ANALYTIC_SPACE.contains(space.bounds)):
            lo, hi = ANALYTIC_SPACE.bounds
            raise ConfigError(f"analytic nuisance space {list(space.bounds)} must lie inside [{lo}, {hi}]")
        if self.scenario == SCENARIO_DISCRETE and space.is_continuous:
            raise ConfigError("discrete toy requires a discrete nuisance space")

    @property
    def nuisance_space(self) -> NuisanceSpace:
        return self.nuisance_prior_class0.support


def analytic_config(class1_probability: float, nuisance_prior: PriorSpec) -> GenerativeConfig:
    """Analytic scenario with a shared nuisance prior for both classes."""
    return GenerativeConfig(
        scenario=SCENARIO_ANALYTIC,
        class1_probability=class1_probability,
        nuisance_prior_class0=nuisance_prior,
        nuisance_prior_class1=nuisance_prior,
    )


# ---------------------------------------------------------------------------
# Analytic scenario: densities, CDFs, quantiles.
# ---------------------------------------------------------------------------


def _check_unit_interval(x, name="x"):
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():  # a NaN fails both
        raise DomainError(f"{name} must lie in [0, 1]")
    return x


def _check_nu(nu):
    nu = np.asarray(nu, dtype=float)
    lo, hi = ANALYTIC_SPACE.bounds
    if not ((nu >= lo) & (nu <= hi)).all():  # a NaN fails both
        raise DomainError(f"nu must lie in [{lo}, {hi}]")
    return nu


def density_class1(x):
    """Class-1 density e^x / (e - 1) on [0, 1]; strictly increasing."""
    x = _check_unit_interval(x)
    return np.exp(x) / E_MINUS_1


def density_class0(x, nu):
    """Class-0 density nu e^{-nu x} / (1 - e^{-nu}); strictly decreasing in x."""
    x = _check_unit_interval(x)
    nu = _check_nu(nu)
    return nu * np.exp(-nu * x) / (1.0 - np.exp(-nu))


def cdf_class1(x):
    """P[X <= x | Y=1] = (e^x - 1) / (e - 1)."""
    x = _check_unit_interval(x)
    return np.expm1(x) / E_MINUS_1


def quantile_class1(u):
    """Inverse of :func:`cdf_class1`: log(1 + u (e - 1))."""
    u = _check_unit_interval(u, "quantile level")
    # clip away one-ulp overshoot at the support endpoints
    return np.clip(np.log1p(u * E_MINUS_1), 0.0, 1.0)


def cdf_class0(x, nu):
    """P[X <= x | Y=0, nu] = (1 - e^{-nu x}) / (1 - e^{-nu})."""
    x = _check_unit_interval(x)
    nu = _check_nu(nu)
    return -np.expm1(-nu * x) / (1.0 - np.exp(-nu))


def quantile_class0(u, nu):
    """Inverse of :func:`cdf_class0` in x."""
    u = _check_unit_interval(u, "quantile level")
    nu = _check_nu(nu)
    return np.clip(-np.log1p(u * np.expm1(-nu)) / nu, 0.0, 1.0)


def survival_class0(x, nu):
    """P[X >= x | Y=0, nu] = (e^{-nu x} - e^{-nu}) / (1 - e^{-nu})."""
    x = _check_unit_interval(x)
    nu = _check_nu(nu)
    return (np.exp(-nu * x) - np.exp(-nu)) / (1.0 - np.exp(-nu))


def upper_quantile_class0(alpha, nu):
    """The x with P[X >= x | Y=0, nu] = alpha: -(1/nu) log(alpha (1-e^{-nu}) + e^{-nu}).

    alpha = 1 maps to the lower support point 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not ((alpha > 0.0) & (alpha <= 1.0)).all():  # a NaN fails both
        raise DomainError("upper-quantile level must lie in (0, 1]")
    nu = _check_nu(nu)
    return -np.log(alpha * (1.0 - np.exp(-nu)) + np.exp(-nu)) / nu


# ---------------------------------------------------------------------------
# Discrete toy: Poisson count vectors under four protocols.
# ---------------------------------------------------------------------------


def toy_rates(y: int, protocol) -> np.ndarray:
    """Poisson rate vector(s) for the given class and protocol(s)."""
    protocol = np.asarray(protocol, dtype=int)
    if np.any(protocol < 0) or np.any(protocol >= TOY_N_PROTOCOLS):
        raise DomainError(f"protocol must lie in 0..{TOY_N_PROTOCOLS - 1}")
    log_rate = TOY_LOG_BASE + TOY_CLASS_SHIFT * y + TOY_PROTOCOL_SHIFT[protocol]
    return np.exp(log_rate)


# ---------------------------------------------------------------------------
# Datasets and sampling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable sample of (y, nu, x) rows from one generative configuration."""

    scenario: str
    y: np.ndarray
    nu: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for arr in (self.y, self.nu, self.x):
            arr.flags.writeable = False
        if not (len(self.y) == len(self.nu) == len(self.x)):
            raise ConfigError("dataset columns must share one length")

    def __len__(self) -> int:
        return len(self.y)

    def save(self, path) -> None:
        """Write delimited text; floats keep 17 significant digits."""
        if self.scenario == SCENARIO_ANALYTIC:
            header, row = ("y", "nu", "x"), f"%d,{files.FLOAT_FMT},{files.FLOAT_FMT}"
            columns = (self.y, self.nu, self.x)
        else:
            header = ("y", "protocol", *(f"x{j + 1}" for j in range(TOY_N_DIMS)))
            row, columns = ",".join(["%d"] * len(header)), (self.y, self.nu, *self.x.T)
        files.write_table(path, header, row, columns)


def _draw_nuisance(config: GenerativeConfig, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row's nuisance by inverse CDF of its label's prior: one quantile pass when the priors agree."""
    nu = config.nuisance_prior_class0.ppf(u)
    if config.nuisance_prior_class1 != config.nuisance_prior_class0:
        nu = np.where(y == 1, config.nuisance_prior_class1.ppf(u), nu)
    return nu


def sample_dataset(config: GenerativeConfig, n: int, seed: int, stream_base: int = 0) -> Dataset:
    """Draw n samples from the configured joint distribution.

    Labels, nuisance values and observations come from three separate
    Philox streams, so the draw is identical no matter how callers batch
    or parallelize around it. A draw at fixed (y, nu) is this draw on a
    ``point_mass_prior`` with class1_probability 0 or 1.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    u_label = stream_rng(seed, stream_base + _STREAM_LABEL).random(n)
    u_nu = stream_rng(seed, stream_base + _STREAM_NUISANCE).random(n)
    rng_x = stream_rng(seed, stream_base + _STREAM_OBSERVATION)

    y = (u_label < config.class1_probability).astype(np.int8)
    nu = _draw_nuisance(config, y, u_nu)
    if config.scenario == SCENARIO_DISCRETE:
        nu = nu.astype(np.int64)  # the protocol
        rates = np.where((y == 1)[:, None], toy_rates(1, nu), toy_rates(0, nu))
        x = rng_x.poisson(lam=rates).astype(np.int64)
    else:
        u_x = rng_x.random(n)
        x = np.where(y == 1, quantile_class1(u_x), quantile_class0(u_x, nu))
    return Dataset(config.scenario, y, nu, x)
