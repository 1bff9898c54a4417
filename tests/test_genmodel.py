import hashlib
import math

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import truncnorm

import naps
from naps import files
from naps import genmodel as gm
from naps.errors import ConfigError, DomainError
from naps.rejection import ks_distance_uniform

# Whether NumPy runs its AVX-512 exp and log loops, which round differently from its AVX2 ones.
NUMPY_AVX512 = __cpu_features__["AVX512_SKX"]

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


def read_columns(path, parse):
    """A saved dataset's header line and its columns, each field read by ``parse``."""
    header, *lines = path.read_text().splitlines()
    return header, np.array([[parse(v) for v in line.split(",")] for line in lines]).T


def test_dataset_roundtrip_csv(tmp_path, uniform_gen):
    # 17 significant digits read back bit-exact
    ds = gm.sample_dataset(uniform_gen, 500, seed=4)
    path = tmp_path / "data.csv"
    ds.save(path)
    header, (y, nu, x) = read_columns(path, float)
    assert header == "y,nu,x"
    assert np.array_equal(y, ds.y)
    assert nu.tobytes() == ds.nu.tobytes()
    assert x.tobytes() == ds.x.tobytes()


@pytest.mark.parametrize("save_rows", [files._TABLE_ROWS, 3])
def test_dataset_save_bytes(tmp_path, monkeypatch, save_rows):
    # pinned text of both layouts, also when the rows are written in chunks of 3
    monkeypatch.setattr(files, "_TABLE_ROWS", save_rows)
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


def test_fixed_nuisance_draw_matches_closed_form():
    xs = gm.sample_dataset(gm.analytic_config(0.0, gm.point_mass_prior(2.0)), 20_000, seed=5).x
    assert ks_distance_uniform(gm.cdf_class0(xs, 2.0)) < 0.02
    xs1 = gm.sample_dataset(gm.analytic_config(1.0, gm.point_mass_prior(2.0)), 20_000, seed=5).x
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
        assert np.array_equal(float(prior.ppf(q)), float(truncnorm.ppf(q, a, b, loc=mean, scale=sd)), equal_nan=True)
    nu = np.concatenate([rng.uniform(0.0, 11.0, 100_000), [1.0, 10.0, np.nextafter(1.0, 0.0), np.nan, -0.1, 1.1]])
    assert np.array_equal(prior.pdf(nu), truncnorm.pdf(nu, a, b, loc=mean, scale=sd), equal_nan=True)
    assert np.array_equal(prior.mean_value(), truncnorm.mean(a, b, loc=mean, scale=sd))


def test_two_term_log_sum_exp_has_scipys_bits():
    # the quantile's log(exp(c) + exp(v)) is NumPy arithmetic; scipy.special.logsumexp of the pair is the reference
    from scipy.special import logsumexp

    rng = np.random.default_rng(13)
    u = np.concatenate([rng.random(50_000), rng.random(1000) * 1e-300, [0.0, 1.0, 5e-324, np.nan]])
    with np.errstate(divide="ignore"):
        tails = np.concatenate([np.log(u), np.log1p(-u)])
    for c in (-454.3, -37.0, -0.5, -1e-300, 0.0):
        v = np.concatenate([tails, tails - 0.3, tails - 40.0, [c, c, -np.inf, np.inf, np.nan]])
        assert np.any(v == c) and np.any(np.isinf(v)) and np.any(np.isnan(v))
        want = logsumexp([np.full_like(v, c), v], axis=0)
        got = gm._log_add_exp(c, v)
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), (c, v[~same][:5], got[~same][:5], want[~same][:5])


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
    for mean, sd in [(float("nan"), 1.0), (4.0, float("nan")), (float("inf"), 1.0), (4.0, float("inf"))]:
        with pytest.raises(ConfigError):
            naps.truncated_gaussian_prior(mean, sd)
    with pytest.raises(ConfigError):
        naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=(0.5, 0.5))


@pytest.mark.parametrize("weights", [(math.nan, 0.5, 0.25, 0.25), (math.inf, 0.5, 0.25, 0.25), (-0.5, 1.0, 0.25, 0.25)])
def test_discrete_prior_rejects_nonfinite_or_negative_weights(weights):
    # a NaN weight used to pass, and its ppf([0.1, 0.9]) gave [0, 0]
    with pytest.raises(ConfigError, match="finite, nonnegative"):
        gm.discrete_prior(weights)


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("uniform", {"sd": 3.0}),
        ("uniform", {"mean": 4.0}),
        ("truncated-gaussian", {"mean": 4.0, "sd": 1.0, "weights": (1.0,)}),
        ("truncated-gaussian", {"mean": 4.0, "sd": 1.0, "value": 4.0}),
        ("point-mass", {"value": 4.0, "sd": 1.0}),
    ],
)
def test_prior_rejects_a_parameter_of_another_kind(kind, extra):
    with pytest.raises(ConfigError, match="takes"):
        naps.PriorSpec(kind=kind, support=gm.ANALYTIC_SPACE, **extra)


def test_nuisance_space_rejects_a_parameter_of_the_other_kind():
    with pytest.raises(ConfigError, match="no categories"):
        naps.NuisanceSpace(kind="continuous-interval", bounds=(1.0, 10.0), categories=(0, 1))
    with pytest.raises(ConfigError, match="no bounds"):
        naps.NuisanceSpace(kind="discrete-set", bounds=(1.0, 10.0), categories=(0, 1))


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


@pytest.mark.parametrize("bounds", [(0.5, 20.0), (0.5, 5.0), (2.0, 10.5)])
def test_analytic_space_must_lie_inside_its_domain(bounds):
    # the closed forms are defined for nu in [1, 10] only
    space = naps.NuisanceSpace(kind="continuous-interval", bounds=bounds)
    with pytest.raises(ConfigError, match="must lie inside"):
        naps.analytic_config(0.5, naps.uniform_prior(space))
    inner = naps.NuisanceSpace(kind="continuous-interval", bounds=(2.0, 5.0))
    assert naps.analytic_config(0.5, naps.uniform_prior(inner)).nuisance_space == inner


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
    a = naps.sample_dataset(toy_config, 3000, seed=1)
    b = naps.sample_dataset(toy_config, 3000, seed=1)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.nu, b.nu)


def test_discrete_toy_protocol_weights(toy_config):
    n = 80_000
    ds = naps.sample_dataset(toy_config, n, seed=2)
    for p, w in zip(range(4), (0.4, 0.3, 0.2, 0.1)):
        frac = np.mean(ds.nu == p)
        assert abs(frac - w) < 3.0 * math.sqrt(w * (1 - w) / n)


def test_discrete_toy_count_means(toy_config):
    ds = naps.sample_dataset(toy_config, 120_000, seed=4)
    for y in (0, 1):
        for p in range(4):
            sel = ds.x[(ds.y == y) & (ds.nu == p)]
            rates = gm.toy_rates(y, p)
            se = np.sqrt(rates / len(sel))
            assert np.all(np.abs(sel.mean(axis=0) - rates) < 3.0 * se)


def test_discrete_toy_roundtrip_csv(tmp_path, toy_config):
    ds = naps.sample_dataset(toy_config, 200, seed=4)
    path = tmp_path / "toy.csv"
    ds.save(path)
    header, (y, protocol, *x) = read_columns(path, int)
    assert header == "y,protocol,x1,x2,x3,x4,x5,x6,x7,x8"
    assert np.array_equal(np.transpose(x), ds.x)
    assert np.array_equal(protocol, ds.nu)
    assert np.array_equal(y, ds.y)


def _toy_config(class1_probability, prior):
    return naps.GenerativeConfig(gm.SCENARIO_DISCRETE, class1_probability, prior, prior)


# (config, seed, stream_base) -> (dtype, sha256 prefix) of y, nu and x over 1000 draws. The digests
# were recorded with the earlier per-scenario and fixed-nuisance samplers, so any change to what is
# drawn fails here. The analytic x column goes through NumPy's exp and log, whose loops round
# differently without AVX-512, so it has a second digest for hosts whose NumPy dispatches to its
# AVX2 loops; every host is checked against the exact bits of the loops it runs.
PINNED_DRAWS = [
    (
        lambda: naps.analytic_config(0.5, naps.uniform_prior()), 7, 1 << 8,
        [("|i1", "0ae38580b440cacf"), ("<f8", "8c559dc3be3c1b9b"),
         ("<f8", "d4990a6ef2e4a494" if NUMPY_AVX512 else "7513fe0086735cf2")],
    ),
    (
        lambda: naps.analytic_config(0.5, naps.truncated_gaussian_prior(4.0, 0.1)), 7, 3 << 8,
        [("|i1", "bc5857406618e243"), ("<f8", "245d9211c3a7bc35"),
         ("<f8", "24415a3f5947f674" if NUMPY_AVX512 else "f11b3695ec3ac61c")],
    ),
    (
        lambda: _toy_config(0.5, gm.discrete_prior((0.05, 0.05, 0.1, 0.8))), 11, 3 << 8,
        [("|i1", "23d333e3f85970ca"), ("<i8", "a87c2199d50cec1d"), ("<i8", "7010f2026a4d043f")],
    ),
    # fixed (y, nu): analytic y = 0 at nu = 1, toy y = 1 at protocol 3
    (
        lambda: naps.analytic_config(0.0, gm.point_mass_prior(1.0)), 5, 0,
        [("|i1", "541b3e9daa09b20b"), ("<f8", "e4190bf93e24bcf8"),
         ("<f8", "9dc4e25972a7c5a7" if NUMPY_AVX512 else "30ed634dceac2ab5")],
    ),
    (
        lambda: _toy_config(1.0, gm.point_mass_prior(3, gm.DISCRETE_SPACE)), 5, 4,
        [("|i1", "353c38352a855c80"), ("<i8", "e2a4c98d23f4b1e0"), ("<i8", "b3ba861b42bcf5eb")],
    ),
]


@pytest.mark.parametrize(
    "make_config,seed,stream_base,expected",
    PINNED_DRAWS,
    ids=["uniform", "gaussian-4-0.1", "toy-target", "analytic-y0-nu1", "toy-y1-protocol3"],
)
def test_sampler_draws_are_pinned(make_config, seed, stream_base, expected):
    ds = gm.sample_dataset(make_config(), 1000, seed, stream_base=stream_base)
    got = [(c.dtype.str, hashlib.sha256(c.tobytes()).hexdigest()[:16]) for c in (ds.y, ds.nu, ds.x)]
    assert got == expected
