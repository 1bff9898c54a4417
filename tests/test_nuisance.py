from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naps
from naps import files
from naps import genmodel as gm
from naps import nuisance as nu
from naps.errors import ConfigError, NumericError

# central 95% interval of N(4, sd=0.1); truncation to [1, 10] is 30 sigma out
ORACLE_95_INTERVAL = (3.8040036015459946, 4.1959963984540054)


def covered(region, nus) -> np.ndarray:
    """Whether each nuisance value lies in a continuous region's closed intervals."""
    nus = np.asarray(nus, dtype=float)
    return np.any([(lo <= nus) & (nus <= hi) for lo, hi in region.intervals], axis=0)


def test_full_space_set_identity():
    region = nu.full_space_set(gm.ANALYTIC_SPACE)
    assert region.intervals == ((1.0, 10.0),)
    disc = nu.full_space_set(gm.DISCRETE_SPACE)
    assert disc.categories == (0, 1, 2, 3)


def test_full_space_always_covers():
    region = nu.full_space_set(gm.ANALYTIC_SPACE)
    assert np.all(covered(region, np.linspace(1, 10, 77)))


def test_oracle_quantile_interval_value():
    provider = nu.OracleQuantileProvider(gamma=0.05, distribution=naps.truncated_gaussian_prior(4.0, 0.1))
    region = provider.region(y=0)
    (lo, hi), = region.intervals
    assert lo == pytest.approx(ORACLE_95_INTERVAL[0], abs=1e-7)
    assert hi == pytest.approx(ORACLE_95_INTERVAL[1], abs=1e-7)


def test_oracle_gamma_zero_is_full_support():
    provider = nu.OracleQuantileProvider(gamma=0.0, distribution=naps.truncated_gaussian_prior(4.0, 0.1))
    assert provider.region(0).intervals == ((1.0, 10.0),)


def test_oracle_full_space_for_class1():
    # class-1 observations carry no nuisance information in this model
    provider = nu.OracleQuantileProvider(gamma=0.1, distribution=naps.truncated_gaussian_prior(4.0, 0.1))
    assert provider.region(1).intervals == ((1.0, 10.0),)


def test_oracle_center_always_covered():
    dist = naps.truncated_gaussian_prior(4.0, 0.1)
    for gamma in (0.001, 0.05, 0.5, 0.99):
        provider = nu.OracleQuantileProvider(gamma=gamma, distribution=dist)
        assert covered(provider.region(0), 4.0)


@given(
    g=st.tuples(
        st.floats(min_value=1e-6, max_value=0.99, allow_nan=False),
        st.floats(min_value=1e-6, max_value=0.99, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_oracle_width_nonincreasing_in_gamma(g):
    g1, g2 = sorted(g)
    dist = naps.truncated_gaussian_prior(4.0, 0.1)
    ((lo1, hi1),) = nu.OracleQuantileProvider(gamma=g1, distribution=dist).region(0).intervals
    ((lo2, hi2),) = nu.OracleQuantileProvider(gamma=g2, distribution=dist).region(0).intervals
    w1, w2 = hi1 - lo1, hi2 - lo2
    assert w2 <= w1 + 1e-12


def test_oracle_degenerate_interval_error():
    # only an interval with a non-finite or inverted end is degenerate
    for ends in [(5.0, 4.0), (np.nan, 4.0), (4.0, np.nan)]:
        dist = SimpleNamespace(kind="stub", support=gm.ANALYTIC_SPACE, ppf=lambda u, ends=ends: np.array(ends))
        provider = nu.OracleQuantileProvider(gamma=0.1, distribution=dist)
        with pytest.raises(NumericError):
            provider.region(0)


def test_oracle_point_mass_gives_one_point_region():
    dist = gm.point_mass_prior(4.0)
    region = nu.OracleQuantileProvider(gamma=0.1, distribution=dist).region(0)
    assert region == nu.NuisanceRegion(intervals=((4.0, 4.0),))
    assert covered(region, 4.0) and not covered(region, np.nextafter(4.0, 5.0))


def test_oracle_rejects_discrete_distribution():
    weights = (0.25, 0.25, 0.25, 0.25)
    dist = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    with pytest.raises(ConfigError):
        nu.OracleQuantileProvider(gamma=0.1, distribution=dist)


def test_region_validation_and_roundtrip():
    region = nu.NuisanceRegion(intervals=((1.5, 2.0), (3.0, 4.0)))
    point, protocols = nu.NuisanceRegion(intervals=((4.0, 4.0),)), nu.NuisanceRegion(categories=(0, 3))
    for r in (region, point, protocols, nu.NuisanceRegion()):
        assert files.parse(nu.NuisanceRegion, files.jsonable(r)) == r
    assert sum(hi - lo for lo, hi in region.intervals) == pytest.approx(1.5)
    assert not covered(region, 2.5)
    assert covered(region, [1.7, 3.5]).all()
    with pytest.raises(ConfigError):
        nu.NuisanceRegion(intervals=((3.0, 4.0), (3.5, 5.0)))
    empty = nu.NuisanceRegion()
    assert empty.is_empty


def test_coverage_by_nu_full_space():
    provider = nu.FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    assert np.all(covered(provider.region(0), np.linspace(1, 10, 5)))


def test_coverage_by_nu_oracle_flags_outside_point():
    # the region ignores x, so its coverage at a fixed nu is 0 or 1
    provider = nu.OracleQuantileProvider(gamma=0.05, distribution=naps.truncated_gaussian_prior(4.0, 0.1))
    at_1, at_4 = covered(provider.region(0), [1.0, 4.0])
    assert not at_1
    assert at_4


def test_marginal_coverage_matched_distribution():
    # nu drawn from the same distribution the quantile interval is built on
    gamma = 0.1
    target = naps.truncated_gaussian_prior(4.0, 0.1)
    provider = nu.OracleQuantileProvider(gamma=gamma, distribution=target)
    nus = target.ppf(gm.stream_rng(3, 7).random(20_000))
    cov = float(np.mean(covered(provider.region(0), nus)))
    se = np.sqrt(gamma * (1 - gamma) / 20_000)
    assert cov >= 1 - gamma - 3 * se
