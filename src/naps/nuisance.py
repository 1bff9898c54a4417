"""Confidence sets for the nuisance parameter.

A provider is any object with ``region(y)``, label y's nuisance region, and
``gamma``, that region's miscoverage; label y's cutoff inverts at
alpha - gamma over ``region(y)``. The region does not depend on the
observation, so each label's cutoff is resolved once per alpha by
``cutoffs.cutoff_for_region``. Besides a provider's set, that path takes the
full space (``full_space_set``) or a one-point region
``NuisanceRegion(intervals=((nu0, nu0),))``. Two providers ship:

* ``FullSpaceProvider`` -- always returns the whole nuisance space, so it is
  valid at any gamma (0 unless given one) for every nuisance value.

* ``OracleQuantileProvider`` -- the central (gamma/2, 1 - gamma/2) quantile
  interval of a known nuisance distribution. This is valid when the true
  nuisance values are drawn from that distribution, but NOT pointwise: a
  fixed nuisance value outside the interval, and so outside ``region(0)``,
  is never covered.

Class-1 events in the analytic scenario carry no nuisance information
(their density is nuisance-free), so providers return the full space for
label 1 and constrain only label 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .genmodel import NuisanceSpace, PriorSpec


@dataclass(frozen=True)
class NuisanceRegion:
    """A subset of the nuisance space: disjoint closed intervals or categories."""

    intervals: tuple[tuple[float, float], ...] = ()
    categories: tuple[int, ...] = ()

    def __post_init__(self):
        if self.intervals and self.categories:
            raise ConfigError("a region is either continuous or discrete, not both")
        prev_hi = -np.inf
        for lo, hi in self.intervals:
            if lo > hi or lo < prev_hi:
                raise ConfigError("region intervals must be disjoint and sorted")
            prev_hi = hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.categories

    def cache_key(self) -> tuple:
        return (self.intervals, self.categories)


def full_space_set(space: NuisanceSpace) -> NuisanceRegion:
    """The whole nuisance space as a region."""
    if space.is_continuous:
        return NuisanceRegion(intervals=(tuple(space.bounds),))
    return NuisanceRegion(categories=tuple(space.categories))


@dataclass(frozen=True)
class FullSpaceProvider:
    space: NuisanceSpace
    gamma: float = 0.0

    def region(self, y: int) -> NuisanceRegion:
        return full_space_set(self.space)


@dataclass(frozen=True)
class OracleQuantileProvider:
    """Central quantile interval of a known nuisance distribution.

    Only meaningful for continuous distributions with quantiles. With
    gamma = 0 the interval degenerates to the full support.
    """

    gamma: float
    distribution: PriorSpec

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if self.distribution.kind == "discrete-weights":
            raise ConfigError("the oracle-quantile provider needs a continuous distribution")

    @property
    def space(self) -> NuisanceSpace:
        return self.distribution.support

    def region(self, y: int) -> NuisanceRegion:
        """Central (gamma/2, 1 - gamma/2) interval, intersected with the space.

        Label 1 gets the full space: its class-conditional density carries
        no nuisance dependence, so no constraint is available or needed.
        """
        g = self.gamma
        if y == 1 or g == 0.0:
            return full_space_set(self.space)
        lo, hi = self.distribution.ppf([g / 2.0, 1.0 - g / 2.0]).tolist()
        slo, shi = self.space.bounds
        lo, hi = max(lo, slo), min(hi, shi)
        # A point mass gives the one-point region ((v, v),), which a cutoff can be inverted over.
        if not np.isfinite(lo) or not np.isfinite(hi) or hi < lo:
            raise NumericError(f"quantile interval degenerated at gamma={g}: [{lo}, {hi}]")
        return NuisanceRegion(intervals=((float(lo), float(hi)),))
