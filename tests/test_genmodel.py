import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import truncnorm

import naps
from naps import genmodel as gm
from naps.errors import ConfigError, DomainError
from naps.rejection import ks_distance_uniform

# Closed-form reference values, computed independently at 30-digit precision.
F1_AT_0 = 0.5819767068693264
F1_AT_1 = 1.5819767068693264
F0_AT_0_NU1 = 1.5819767068693264
F0_AT_1_NU10 = 4.540199100968777e-04
Q1_AT_005 = 0.08242211287901112
UQ0_005_NU1 = 0.9175778871209889
MEAN_X_CLASS1 = 0.5819767068693264  # 1 / (e - 1)
SD_X_CLASS1 = math.sqrt(0.07932640579220768)


def test_density_class1_endpoints():
    assert gm.density_class1(0.0) == pytest.approx(F1_AT_0, abs=1e-12)
    assert gm.density_class1(1.0) == pytest.approx(F1_AT_1, abs=1e-12)


def test_density_class1_domain_error():
    with pytest.raises(DomainError):
        gm.density_class1(-0.01)
    with pytest.raises(DomainError):
        gm.density_class1(np.array([0.5, 1.2]))


def test_density_class1_normalizes():
    total, _ = quad(gm.density_class1, 0.0, 1.0, epsabs=1e-13)
    assert abs(total - 1.0) < 1e-10


def test_density_class0_values():
    assert gm.density_class0(0.0, 1.0) == pytest.approx(F0_AT_0_NU1, abs=1e-12)
    assert gm.density_class0(1.0, 10.0) == pytest.approx(F0_AT_1_NU10, rel=1e-10)


def test_density_class0_normalizes():
    for nu in (1.0, 5.5, 10.0):
        total, _ = quad(lambda x: gm.density_class0(x, nu), 0.0, 1.0, epsabs=1e-13)
        assert abs(total - 1.0) < 1e-10


def test_density_class0_normalizes_on_nu_grid():
    for nu in np.linspace(1.0, 10.0, 50):
        total, _ = quad(lambda x: gm.density_class0(x, nu), 0.0, 1.0, epsabs=1e-12)
        assert abs(total - 1.0) < 1e-8


def test_density_class0_domain_errors():
    with pytest.raises(DomainError):
        gm.density_class0(0.5, 0.9)
    with pytest.raises(DomainError):
        gm.density_class0(1.5, 2.0)


def test_density_monotonicity_on_grid():
    x = np.linspace(0.0, 1.0, 1000)
    f1 = gm.density_class1(x)
    assert np.all(np.diff(f1) > 0)
    for nu in (1.0, 4.0, 10.0):
        f0 = gm.density_class0(x, nu)
        assert np.all(np.diff(f0) < 0)


def test_cdf_quantile_class1():
    assert gm.quantile_class1(0.0) == 0.0
    assert gm.quantile_class1(0.05) == pytest.approx(Q1_AT_005, abs=1e-12)
    u = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(gm.cdf_class1(gm.quantile_class1(u)) - u)) < 1e-12
    with pytest.raises(DomainError):
        gm.quantile_class1(1.2)


def test_survival_upper_quantile_class0():
    for nu in (1.0, 3.0, 10.0):
        assert gm.upper_quantile_class0(1.0, nu) == pytest.approx(0.0, abs=1e-12)
    assert gm.upper_quantile_class0(0.05, 1.0) == pytest.approx(UQ0_005_NU1, abs=1e-12)
    u = np.linspace(0.01, 1.0, 100)
    for nu in (1.0, 5.5, 10.0):
        x = gm.upper_quantile_class0(u, nu)
        assert np.max(np.abs(gm.survival_class0(x, nu) - u)) < 1e-12
    with pytest.raises(DomainError):
        gm.upper_quantile_class0(0.0, 2.0)


@given(
    u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    nu=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_class0_cdf_quantile_roundtrip(u, nu):
    x = gm.quantile_class0(u, nu)
    assert 0.0 <= x <= 1.0
    assert gm.cdf_class0(x, nu) == pytest.approx(u, abs=1e-10)


def test_sample_dataset_deterministic(uniform_gen):
    a = gm.sample_dataset(uniform_gen, 5000, seed=7)
    b = gm.sample_dataset(uniform_gen, 5000, seed=7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.nu, b.nu)
    assert np.array_equal(a.x, b.x)
    c = gm.sample_dataset(uniform_gen, 5000, seed=8)
    assert not np.array_equal(a.x, c.x)


def test_sample_dataset_class_fraction(uniform_gen):
    n = 100_000
    ds = gm.sample_dataset(uniform_gen, n, seed=11)
    frac = np.mean(ds.y == 1)
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / n)


def test_sample_dataset_class1_mean(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 200_000, seed=12)
    x1 = ds.x[ds.y == 1]
    se = SD_X_CLASS1 / math.sqrt(len(x1))
    assert abs(np.mean(x1) - MEAN_X_CLASS1) < 3.0 * se


def test_class1_empirical_cdf_ks(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 200_000, seed=13)
    x1 = ds.x[ds.y == 1]
    assert len(x1) > 90_000
    assert ks_distance_uniform(gm.cdf_class1(x1)) < 0.01


def test_samples_respect_domains(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 20_000, seed=3)
    assert np.all((ds.x >= 0) & (ds.x <= 1))
    assert np.all((ds.nu >= 1) & (ds.nu <= 10))


def test_dataset_is_immutable(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 100, seed=19)
    with pytest.raises(ValueError):
        ds.x[0] = 0.5
    with pytest.raises(ValueError):
        ds.y[0] = 1


def test_dataset_roundtrip_csv(tmp_path, uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 500, seed=4)
    path = tmp_path / "data.csv"
    ds.save(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,nu,x"
    loaded = naps.Dataset.load(path)
    assert np.array_equal(loaded.y, ds.y)
    assert np.array_equal(loaded.nu, ds.nu)
    assert np.array_equal(loaded.x, ds.x)


@pytest.mark.parametrize("save_rows", [gm._SAVE_ROWS, 3])
def test_dataset_save_bytes(tmp_path, monkeypatch, save_rows):
    # pinned text of both layouts, also when the rows are written in chunks of 3
    monkeypatch.setattr(gm, "_SAVE_ROWS", save_rows)
    y = np.array([0, 1, 1, 0], dtype=np.int8)
    analytic = naps.Dataset(gm.SCENARIO_ANALYTIC, y, np.array([1.0, 10.0, 4.1, 2.5]), np.array([0.0, 1.0, 0.1, 5e-324]))
    counts = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [12, 0, 0, 0, 0, 0, 0, 0], [0] * 8, [1, 1, 1, 1, 1, 1, 1, 123]])
    toy = naps.Dataset(gm.SCENARIO_DISCRETE, y, np.array([0, 3, 1, 2], dtype=np.int64), counts.astype(np.int64))
    analytic.save(tmp_path / "a.csv")
    toy.save(tmp_path / "t.csv")
    assert (tmp_path / "a.csv").read_bytes() == (
        b"y,nu,x\n0,1,0\n1,10,1\n1,4.0999999999999996,0.10000000000000001\n0,2.5,4.9406564584124654e-324\n"
    )
    assert (tmp_path / "t.csv").read_bytes() == (
        b"y,protocol,x1,x2,x3,x4,x5,x6,x7,x8\n"
        b"0,0,0,1,2,3,4,5,6,7\n1,3,12,0,0,0,0,0,0,0\n1,1,0,0,0,0,0,0,0,0\n0,2,1,1,1,1,1,1,1,123\n"
    )


def test_sample_conditional_matches_closed_form(uniform_gen):
    xs = gm.sample_conditional(uniform_gen, 0, 2.0, 20_000, seed=5)
    assert ks_distance_uniform(gm.cdf_class0(xs, 2.0)) < 0.02
    xs1 = gm.sample_conditional(uniform_gen, 1, 2.0, 20_000, seed=5)
    assert ks_distance_uniform(gm.cdf_class1(xs1)) < 0.02


def test_truncated_gaussian_prior_stays_in_support():
    prior = naps.truncated_gaussian_prior(4.0, 0.1)
    u = np.linspace(1e-9, 1 - 1e-9, 1001)
    vals = prior.ppf(u)
    assert np.all((vals >= 1.0) & (vals <= 10.0))
    assert prior.mean_value() == pytest.approx(4.0, abs=1e-9)


# Central, left-tail and right-tail mass cases of the [1, 10] truncation; N(0.99, 0.1) takes the
# mirrored inversion with the mean just below the lower bound, where no quantile saturates.
TRUNCATED_GAUSSIANS = [
    (4.0, 0.1), (1.0, 0.01), (10.0, 0.001), (5.0, 3.0), (5.5, 100.0), (-3.0, 1.0), (20.0, 2.0), (0.5, 0.3),
    (0.99, 0.1),
]


def test_upper_quantiles_finite_with_the_mean_just_above_the_lower_bound():
    # Below u = 1 - 1e-16 the lower tail's cdf stays under 1 and the quantiles keep scipy's bytes;
    # at 1 - 1e-16 it rounds to 1 (scipy returns inf) and the upper tail inverts u instead.
    from scipy.special import ndtr

    prior = naps.truncated_gaussian_prior(1.01, 0.1)
    a, b = (1.0 - 1.01) / 0.1, (10.0 - 1.01) / 0.1
    kept = np.array([1e-16, 0.5, 1.0 - 1e-10, 1.0 - 1e-14])
    assert np.array_equal(prior.standardized_ppf(kept), truncnorm.ppf(kept, a, b))
    u = 1.0 - 1e-16
    assert np.isinf(truncnorm.ppf(u, a, b))
    z = float(prior.standardized_ppf(np.array(u)))
    upper_mass = (ndtr(-z) - ndtr(-b)) / (ndtr(b) - ndtr(a))
    assert upper_mass == pytest.approx(1.0 - u, rel=1e-9, abs=0.0)
    assert prior.standardized_ppf(kept)[-1] < z < b and prior.ppf(u) < 10.0


def test_equal_class_priors_draw_each_nuisance_once(base_config, monkeypatch):
    calls = []
    ppf = gm.PriorSpec.standardized_ppf
    monkeypatch.setattr(gm.PriorSpec, "standardized_ppf", lambda self, u: calls.append(np.size(u)) or ppf(self, u))
    base_config.evaluation_set()
    assert calls == [base_config.n_evaluation]


def test_unequal_class_priors_draw_from_each_label_prior():
    prior0, prior1 = naps.truncated_gaussian_prior(4.0, 0.1), naps.uniform_prior()
    cfg = naps.GenerativeConfig(gm.SCENARIO_ANALYTIC, 0.5, nuisance_prior_class0=prior0, nuisance_prior_class1=prior1)
    data = gm.sample_dataset(cfg, 1000, seed=3)
    u = gm.stream_rng(3, gm._STREAM_NUISANCE).random(1000)
    assert np.array_equal(data.nu, np.where(data.y == 1, prior1.ppf(u), prior0.ppf(u)))


@pytest.mark.parametrize("mean,sd", TRUNCATED_GAUSSIANS)
def test_truncated_gaussian_bit_identical_to_scipy(mean, sd):
    # scipy.stats stays the reference; the prior itself is computed on scipy.special.
    prior = naps.truncated_gaussian_prior(mean, sd)
    a, b = (1.0 - mean) / sd, (10.0 - mean) / sd
    rng = np.random.default_rng(11)
    edges = [0.0, 1.0, 1e-300, 1.0 - 1e-16, np.nan, -0.1, 1.1]
    u = np.concatenate([rng.random(200_000), edges])
    with np.errstate(invalid="ignore"):
        reference = truncnorm.ppf(u, a, b, loc=mean, scale=sd)
    assert np.array_equal(prior.ppf(u), reference, equal_nan=True)
    for q in edges:
        assert np.array_equal(prior.quantile(q), float(truncnorm.ppf(q, a, b, loc=mean, scale=sd)), equal_nan=True)
    nu = np.concatenate([rng.uniform(0.0, 11.0, 100_000), [1.0, 10.0, np.nextafter(1.0, 0.0), np.nan, -0.1, 1.1]])
    assert np.array_equal(prior.pdf(nu), truncnorm.pdf(nu, a, b, loc=mean, scale=sd), equal_nan=True)
    assert np.array_equal(prior.mean_value(), truncnorm.mean(a, b, loc=mean, scale=sd))


def test_point_mass_prior():
    prior = naps.PriorSpec(kind="point-mass", support=gm.ANALYTIC_SPACE, value=3.0)
    assert np.all(prior.ppf(np.array([0.1, 0.9])) == 3.0)
    with pytest.raises(ConfigError):
        naps.PriorSpec(kind="point-mass", support=gm.ANALYTIC_SPACE, value=0.5)


def test_prior_validation():
    with pytest.raises(ConfigError):
        naps.NuisanceSpace(kind="continuous-interval", bounds=(3.0, 1.0))
    with pytest.raises(ConfigError):
        naps.PriorSpec(kind="truncated-gaussian", support=gm.ANALYTIC_SPACE, mean=4.0, sd=-1.0)
    with pytest.raises(ConfigError):
        naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=(0.5, 0.5))


def test_generative_config_validation():
    with pytest.raises(ConfigError):
        naps.analytic_config(1.5, naps.uniform_prior())
    discrete = naps.PriorSpec(
        kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=(0.25, 0.25, 0.25, 0.25)
    )
    with pytest.raises(ConfigError):
        naps.GenerativeConfig(
            scenario=gm.SCENARIO_ANALYTIC,
            class1_probability=0.5,
            nuisance_prior_class0=discrete,
            nuisance_prior_class1=discrete,
        )


def test_stream_rng_contract():
    a = gm.stream_rng(3, 5).random(4)
    b = gm.stream_rng(3, 5).random(4)
    assert np.array_equal(a, b)
    c = gm.stream_rng(3, 6).random(4)
    assert not np.array_equal(a, c)
    with pytest.raises(ConfigError):
        gm.stream_rng(-1, 0)


# --- discrete toy -----------------------------------------------------------


@pytest.fixture(scope="module")
def toy_config():
    weights = (0.4, 0.3, 0.2, 0.1)
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    return naps.GenerativeConfig(
        scenario=gm.SCENARIO_DISCRETE,
        class1_probability=0.5,
        nuisance_prior_class0=prior,
        nuisance_prior_class1=prior,
    )


def test_discrete_toy_deterministic(toy_config):
    a = naps.sample_discrete_toy(toy_config, 3000, seed=1)
    b = naps.sample_discrete_toy(toy_config, 3000, seed=1)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.nu, b.nu)


def test_discrete_toy_protocol_weights(toy_config):
    n = 80_000
    ds = naps.sample_discrete_toy(toy_config, n, seed=2)
    for p, w in zip(range(4), (0.4, 0.3, 0.2, 0.1)):
        frac = np.mean(ds.nu == p)
        assert abs(frac - w) < 3.0 * math.sqrt(w * (1 - w) / n)


def test_discrete_toy_count_means(toy_config):
    ds = naps.sample_discrete_toy(toy_config, 120_000, seed=4)
    for y in (0, 1):
        for p in range(4):
            sel = ds.x[(ds.y == y) & (ds.nu == p)]
            rates = gm.toy_rates(y, p)
            se = np.sqrt(rates / len(sel))
            assert np.all(np.abs(sel.mean(axis=0) - rates) < 3.0 * se)


def test_discrete_toy_roundtrip_csv(tmp_path, toy_config):
    ds = naps.sample_discrete_toy(toy_config, 200, seed=4)
    path = tmp_path / "toy.csv"
    ds.save(path)
    assert path.read_text().splitlines()[0] == "y,protocol,x1,x2,x3,x4,x5,x6,x7,x8"
    loaded = naps.Dataset.load(path)
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.nu, ds.nu)


def test_discrete_toy_requires_discrete_scenario(uniform_gen):
    with pytest.raises(ConfigError):
        naps.sample_discrete_toy(uniform_gen, 10, seed=0)
