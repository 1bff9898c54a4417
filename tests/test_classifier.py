import math
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit, logsumexp
from scipy.stats import poisson, spearmanr

import naps
from naps import classifier as clf
from naps import genmodel as gm
from naps.errors import ConfigError, DomainError
from reference_fit import toy_log_pmf
from test_cli import src_env
from test_genmodel import TRUNCATED_GAUSSIANS

POSTERIOR1_AT_1 = 0.9426053577545077  # 30-digit quadrature of the marginal posterior
POSTERIOR1_GIVEN_NU_0_1 = 0.2689414213699951  # 1 / (1 + e)


def brute_marginal_class0(x, n_nodes=10_001):
    """Trapezoid-rule oracle for the nuisance-marginalized class-0 density."""
    nus = np.linspace(1.0, 10.0, n_nodes)
    vals = np.array([gm.density_class0(x, nu) for nu in nus]) / 9.0
    return np.trapezoid(vals, nus, axis=0)


def brute_posterior1(x):
    f1 = gm.density_class1(np.asarray(x, dtype=float))
    f0 = brute_marginal_class0(x)
    return 0.5 * f1 / (0.5 * f1 + 0.5 * f0)


def test_posterior_matches_bruteforce(model):
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    expected = brute_posterior1(xs)
    got = model.posterior1(xs)
    assert np.max(np.abs(got - expected)) < 1e-6


def test_posterior_frozen_value(model):
    assert model.posterior1(1.0) == pytest.approx(POSTERIOR1_AT_1, abs=1e-7)


def test_posterior_half_at_density_crossing(model):
    x_star = brentq(lambda x: gm.density_class1(x) - brute_marginal_class0(x), 0.0, 1.0)
    assert model.posterior1(x_star) == pytest.approx(0.5, abs=2e-6)


def test_posterior_monotone(model):
    x = np.linspace(0.0, 1.0, 1000)
    p = model.posterior1(x)
    assert np.all(np.diff(p) > 0)


def test_posterior_given_nu(model):
    assert model.posterior1_given_nu(0.0, 1.0) == pytest.approx(POSTERIOR1_GIVEN_NU_0_1, abs=1e-12)
    for nu in (1.0, 4.0, 10.0):
        # Equal class priors: the posterior is 1/2 exactly where the densities cross.
        x_star = brentq(lambda x: gm.density_class1(x) - gm.density_class0(x, nu), 0.0, 1.0)
        assert model.posterior1_given_nu(x_star, nu) == pytest.approx(0.5, abs=1e-12)
        x = np.linspace(0.0, 1.0, 500)
        assert np.all(np.diff(model.posterior1_given_nu(x, nu)) > 0)


def test_bayes_factor_identities(model):
    # posterior equal to the prior gives an uninformative factor of 1
    tau, flag = clf.bayes_factor_from_posterior(np.array([0.5]), 0.5)
    assert tau[0] == pytest.approx(1.0, abs=1e-14)
    assert not flag[0]
    # posterior 0.8 with equal priors: odds 4:1
    tau, _ = clf.bayes_factor_from_posterior(np.array([0.8]), 0.5)
    assert tau[0] == pytest.approx(4.0, abs=1e-12)
    x = np.linspace(0.0, 1.0, 101)
    t0 = clf.bayes_factor(model, 0, x)
    t1 = clf.bayes_factor(model, 1, x)
    assert np.max(np.abs(t0 * t1 - 1.0)) < 1e-10


def test_bayes_factor_monotone_in_posterior():
    # strictly decreasing in the opposite-label posterior
    p = np.linspace(0.01, 0.99, 99)
    tau, _ = clf.bayes_factor_from_posterior(p, 0.5)
    assert np.all(np.diff(tau) > 0)
    tau_vs_other, _ = clf.bayes_factor_from_posterior(1.0 - p, 0.5)
    assert np.all(np.diff(tau_vs_other) < 0)


CLIP = clf.POSTERIOR_CLIP
# 0, 1, the clip bounds, values inside them and their float neighbours
EDGE_POSTERIORS = [0.0, 1.0, CLIP, 1.0 - CLIP, CLIP / 2, 1.0 - CLIP / 2, 5e-324, 1.0 - 2**-53]
EDGE_POSTERIORS += [np.nextafter(v, d) for v in (CLIP, 1.0 - CLIP) for d in (0.0, 1.0)]


@given(
    p1=st.lists(
        st.one_of(
            st.sampled_from(EDGE_POSTERIORS), st.floats(0.0, 1.0), st.floats(0.0, 1e-10), st.floats(1 - 1e-10, 1.0)
        ),
        min_size=1,
        max_size=80,
    ),
    repeats=st.integers(1, 3),
    class1_prior=st.floats(0.01, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_one_argsort_of_p1_sorts_both_statistics(p1, repeats, class1_prior):
    # the fit argsorts p1 once: that order sorts label 1's Bayes factor and its reverse label 0's
    p1 = np.repeat(np.array(p1), repeats)  # ties
    np.random.default_rng(len(p1)).shuffle(p1)
    order = np.argsort(p1)
    stats = clf.label_bayes_factors(p1, class1_prior)
    assert np.all(np.diff(stats[1][0][order]) >= 0)
    assert np.all(np.diff(stats[0][0][order[::-1]]) >= 0)


def test_legendre_rule_computed_once_and_read_only():
    for n in clf._LADDER:
        nodes, weights = clf._legendre(n)
        assert clf._legendre(n)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        expected = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])


def test_histogram_posterior_strictly_inside_unit_interval(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 3000, seed=24)
    fitted = naps.fit_histogram_classifier(ds, 32, uniform_gen)
    assert np.all(fitted.bin_posterior > 0.0)
    assert np.all(fitted.bin_posterior < 1.0)


def test_bayes_factor_clipping():
    tau, flag = clf.bayes_factor_from_posterior(np.array([0.0, 1.0, 0.3]), 0.5)
    assert flag[0] and flag[1] and not flag[2]
    assert tau[0] == pytest.approx(1e-12, rel=1e-6)
    with pytest.raises(DomainError):
        clf.bayes_factor_from_posterior(np.array([0.5]), 0.0)


def test_statistic_is_monotone_link_in_x(model, uniform_gen):
    # Rejecting for small tau_0 is the same ordering as rejecting for large x,
    # which is what licenses closed-form x-space oracles.
    ds = gm.sample_dataset(uniform_gen, 10_000, seed=21)
    tau0 = clf.bayes_factor(model, 0, ds.x)
    rho = spearmanr(tau0, ds.x).statistic
    assert rho == pytest.approx(-1.0, abs=1e-12)


def test_histogram_all_class1(uniform_gen):
    x = np.linspace(0.0, 1.0, 1000)
    ds = naps.Dataset(gm.SCENARIO_ANALYTIC, np.ones(1000, dtype=np.int8), np.full(1000, 5.0), x)
    fitted = naps.fit_histogram_classifier(ds, 8, uniform_gen)
    assert np.all(fitted.bin_posterior > 0.5)
    assert np.all(fitted.bin_posterior < 1.0)


@pytest.mark.parametrize(
    "edges, posterior, prior",
    [
        ([0.0, 0.5, 1.0], [2.0, 0.5], 0.5),
        ([0.0, 0.5, 1.0], [-0.1, 0.5], 0.5),
        ([0.0, 1.0], [0.5, 0.5], 0.5),
        ([0.0, 0.5, 0.5], [0.5, 0.5], 0.5),
        ([0.0, 0.5, np.inf], [0.5, 0.5], 0.5),
        ([0.0], [], 0.5),
        ([0.0, 1.0], [0.5], 1.5),
    ],
    ids=["posterior-above-1", "negative-posterior", "one-edge-short", "repeated-edge", "infinite-edge", "no-bin",
         "prior-above-1"],
)
def test_histogram_validation(edges, posterior, prior, uniform_gen):
    with pytest.raises(ConfigError):
        naps.HistogramClassifier(np.array(edges), np.array(posterior), prior, uniform_gen, n_train=100)


def test_histogram_single_bin(uniform_gen):
    y = np.array([1, 1, 0, 1], dtype=np.int8)
    ds = naps.Dataset(gm.SCENARIO_ANALYTIC, y, np.full(4, 2.0), np.array([0.1, 0.4, 0.6, 0.9]))
    fitted = naps.fit_histogram_classifier(ds, 1, uniform_gen)
    expected = (3 + 1) / (4 + 2)
    assert fitted.posterior1(0.123) == pytest.approx(expected)
    # evaluation clamps out-of-range points into the nearest bin
    assert fitted.posterior1(np.array([-5.0, 5.0]))[0] == pytest.approx(expected)


def test_histogram_tracks_analytic_posterior(model, uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 100_000, seed=22)
    fitted = naps.fit_histogram_classifier(ds, 64, uniform_gen)
    centers = 0.5 * (fitted.bin_edges[:-1] + fitted.bin_edges[1:])
    exact = model.posterior1(centers)
    assert np.max(np.abs(fitted.bin_posterior - exact)) <= 0.05


def test_histogram_roundtrip(tmp_path, uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 2000, seed=23)
    fitted = naps.fit_histogram_classifier(ds, 16, uniform_gen)
    path = tmp_path / "clf.json"
    clf.save_classifier(fitted, path)
    loaded = clf.load_classifier(path)
    assert np.array_equal(loaded.bin_edges, fitted.bin_edges)
    assert np.array_equal(loaded.bin_posterior, fitted.bin_posterior)
    assert loaded.class1_prior == fitted.class1_prior
    assert loaded.config == fitted.config == uniform_gen


def test_histogram_rejects_empty(uniform_gen):
    with pytest.raises(ConfigError):
        naps.fit_histogram_classifier(
            naps.Dataset(gm.SCENARIO_ANALYTIC, np.array([], dtype=np.int8), np.array([]), np.array([])),
            4,
            uniform_gen,
        )


def test_posterior_mean_nu_in_support(model):
    x = np.linspace(0.0, 1.0, 50)
    nu_hat = model.posterior_mean_nu(x)
    assert np.all((nu_hat >= 1.0) & (nu_hat <= 10.0))


def test_posterior_mean_nu_matches_bruteforce(model):
    nus = np.linspace(1.0, 10.0, 10_001)
    for x in (0.0, 0.3, 0.7, 1.0):
        f1 = gm.density_class1(x)
        f0 = gm.density_class0(np.full_like(nus, x), nus) / 9.0
        f0bar = np.trapezoid(f0, nus)
        nu_f0bar = np.trapezoid(nus * f0, nus)
        expected = (0.5 * f1 * 5.5 + 0.5 * nu_f0bar) / (0.5 * f1 + 0.5 * f0bar)
        assert model.posterior_mean_nu(x) == pytest.approx(expected, abs=1e-4)


def test_posterior_mean_nu_point_mass_prior():
    cfg = naps.analytic_config(0.5, naps.PriorSpec(kind="point-mass", support=gm.ANALYTIC_SPACE, value=3.7))
    m = naps.AnalyticMarginalClassifier(cfg)
    got = m.posterior_mean_nu(np.array([0.1, 0.5, 0.9]))
    assert np.max(np.abs(got - 3.7)) < 1e-12


# The uniform prior, the truncated Gaussians of test_genmodel, two narrower ones and one whose
# mean sits just above the lower bound (its top quantile needs the upper tail).
TRAINING_PRIORS = [naps.uniform_prior()] + [
    naps.truncated_gaussian_prior(mean, sd)
    for mean, sd in TRUNCATED_GAUSSIANS + [(4.0, 0.01), (5.3, 0.001), (1.01, 0.1)]
]


def prior_id(p):
    return p.kind if p.mean is None else f"N({p.mean},{p.sd})"


@pytest.mark.parametrize("prior", TRAINING_PRIORS, ids=prior_id)
def test_posterior_exact_under_narrow_training_priors(prior):
    # A rule spread over all of [1, 10] can miss a prior of sd 0.01 entirely and return
    # posterior 1 everywhere; the reference integrates over the prior's own +-12 sd window.
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, prior))
    lo, hi = (1.0, 10.0)
    if prior.mean is not None:
        lo, hi = max(lo, prior.mean - 12 * prior.sd), min(hi, prior.mean + 12 * prior.sd)
    for x in (0.0, 0.1, 0.5, 0.9, 1.0):
        f1 = gm.density_class1(x)
        f0bar = quad(lambda nu: gm.density_class0(x, nu) * prior.pdf(nu), lo, hi)[0]
        nu_f0bar = quad(lambda nu: nu * gm.density_class0(x, nu) * prior.pdf(nu), lo, hi)[0]
        assert m.posterior1(x) == pytest.approx(f1 / (f1 + f0bar), abs=1e-12)
        expected_mean = (f1 * prior.mean_value() + nu_f0bar) / (f1 + f0bar)
        assert m.posterior_mean_nu(x) == pytest.approx(expected_mean, abs=1e-12)


def test_nuisance_rule_built_and_checked_once(monkeypatch):
    sizes = []
    build = clf._nuisance_rule
    monkeypatch.setattr(clf, "_nuisance_rule", lambda prior, n: sizes.append(n) or build(prior, n))
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, naps.truncated_gaussian_prior(5.0, 2.0)))
    for n in (0, 1, 7, clf._BLOCK + 1, 3 * clf._BLOCK):
        x = np.linspace(0.0, 1.0, n)
        p1, nu_hat = m.posterior1(x), m.posterior_mean_nu(x)
        assert p1.shape == nu_hat.shape == (n,)
        if n:  # a point scores the same in any batch
            assert m.posterior1(x[-1]) == p1[-1]
    assert isinstance(m.posterior1(0.3), float) and isinstance(m.posterior_mean_nu(0.3), float)
    # the ladder is built once, on the first call, and never again
    assert sizes == list(clf._LADDER)


@pytest.mark.parametrize("prior", TRAINING_PRIORS, ids=prior_id)
def test_chosen_rule_as_accurate_as_64_nodes(prior):
    # against a 256-node rule, on a dense x grid with both ends
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, prior))
    x = np.linspace(0.0, 1.0, 2001)
    reference = np.stack(clf._prior_moments(x, clf._nuisance_rule(prior, 256)))

    def error(rule):
        return np.max(np.abs(np.stack(clf._prior_moments(x, rule)) - reference) / reference)

    assert error(m._rule) <= error(clf._nuisance_rule(prior, 64)) + 4 * np.finfo(float).eps


def test_uniform_training_prior_needs_16_nodes(model):
    # the README's training prior: the coarsest rule is already at rounding
    assert len(model._rule[0]) == 16


# A training prior for each rule size: the README's uniform prior takes 16 nodes, N(5, 1) 32, N(4, 0.1) 64.
RULE_SIZES = [(naps.uniform_prior(), 16), (naps.truncated_gaussian_prior(5.0, 1.0), 32),
              (naps.truncated_gaussian_prior(4.0, 0.1), 64)]


@pytest.mark.parametrize("prior, n_nodes", RULE_SIZES, ids=[prior_id(p) for p, _ in RULE_SIZES])
def test_posterior_bit_identical_in_any_batch(prior, n_nodes, readme_points):
    # point by point, in chunks of 7 and in one batch across at least two of the rule's block edges
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, prior))
    assert len(m._rule[0]) == n_nodes
    extra = np.random.default_rng(n_nodes).random(3 * (clf._BLOCK + 2) - len(readme_points) - 2)
    x = np.concatenate([readme_points, [0.0, 1.0], extra])
    assert len(x) > 2 * clf._BLOCK and len(x) % 3 == 0
    for f in (m.posterior1, m.posterior_mean_nu):
        whole = f(x)
        assert np.array_equal(np.array([f(xi) for xi in x]), whole)
        assert np.array_equal(np.concatenate([f(x[i : i + 7]) for i in range(0, len(x), 7)]), whole)
        assert np.array_equal(f(x.reshape(3, -1)), whole.reshape(3, -1))


@pytest.mark.parametrize("prior, n_nodes", RULE_SIZES, ids=[prior_id(p) for p, _ in RULE_SIZES])
def test_prior_moments_within_2_5_eps_of_30_digits(prior, n_nodes):
    # the rule's own float64 nodes and weights, summed exactly, on a dense x grid with both ends
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    nodes, weights = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, prior))._rule
    assert len(nodes) == n_nodes
    x = np.linspace(0.0, 1.0, 2001)
    minus_nodes = [-mpmath.mpf(float(v)) for v in nodes]
    columns = [[mpmath.mpf(float(v)) for v in weights[:, j]] for j in (0, 1)]
    reference = np.empty((2, x.size))
    for i, xi in enumerate(x):
        e = [mpmath.exp(v * mpmath.mpf(float(xi))) for v in minus_nodes]
        for j, w in enumerate(columns):
            reference[j, i] = float(mpmath.fsum(wj * ej for wj, ej in zip(w, e)))
    error = np.abs(np.stack(clf._prior_moments(x, (nodes, weights))) - reference) / reference
    assert np.max(error) <= 2.5 * np.finfo(float).eps


# sha256 prefixes of posterior1 and posterior_mean_nu on fixed points, under the rule sizes above
KERNEL_DIGEST_SCRIPT = """
import hashlib
import numpy as np
import naps

x = np.random.default_rng(3).random(20_000)
for prior in (naps.uniform_prior(), naps.truncated_gaussian_prior(5.0, 1.0), naps.truncated_gaussian_prior(4.0, 0.1)):
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, prior))
    for f in (m.posterior1, m.posterior_mean_nu):
        print(hashlib.sha256(f(x).tobytes()).hexdigest()[:16])
"""


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_posterior_bits_do_not_depend_on_the_blas_kernel():
    # Prescott is OpenBLAS's baseline SSE3 kernel set, so it runs on any x86-64 host
    digests = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in src_env().items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", KERNEL_DIGEST_SCRIPT], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 6 and digests[0] == digests[1]


@pytest.mark.parametrize("sd", [1e-4, 1e-5, 1e-6, 1e-7])
def test_rule_rounding_does_not_grow_as_the_prior_narrows(sd):
    # the rule lives in the prior's standardized variable, so no NumericError at the default quad_tol
    m = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, naps.truncated_gaussian_prior(5.0, sd)))
    x = np.linspace(0.0, 1.0, 11)
    p1 = m.posterior1(x)
    if sd <= 1e-6:  # the prior is all but a point mass at its mean
        assert np.max(np.abs(p1 - m.posterior1_given_nu(x, 5.0))) < 1e-11


@pytest.mark.parametrize("quad_tol", [-1.0, 0.0, math.nan, math.inf])
def test_quad_tol_must_be_finite_and_positive(uniform_gen, quad_tol):
    with pytest.raises(ConfigError):
        naps.AnalyticMarginalClassifier(uniform_gen, quad_tol=quad_tol)


def test_posterior_mean_nu_needs_analytic_scenario():
    weights = (0.25, 0.25, 0.25, 0.25)
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    cfg = naps.GenerativeConfig(
        scenario=gm.SCENARIO_DISCRETE,
        class1_probability=0.5,
        nuisance_prior_class0=prior,
        nuisance_prior_class1=prior,
    )
    m = naps.AnalyticMarginalClassifier(cfg)
    with pytest.raises(ConfigError):
        m.posterior_mean_nu(np.zeros(8))


def test_x_at_bayes_factor_roundtrip(model):
    for y in (0, 1):
        for x in (0.05, 0.4, 0.95):
            tau = float(clf.bayes_factor(model, y, x))
            assert clf.x_at_bayes_factor(model, y, tau) == pytest.approx(x, abs=1e-9)


def test_discrete_toy_posterior():
    weights = (0.4, 0.3, 0.2, 0.1)
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    cfg = naps.GenerativeConfig(
        scenario=gm.SCENARIO_DISCRETE,
        class1_probability=0.5,
        nuisance_prior_class0=prior,
        nuisance_prior_class1=prior,
    )
    m = naps.AnalyticMarginalClassifier(cfg)
    ds = naps.sample_dataset(cfg, 4000, seed=6)
    p1 = m.posterior1(ds.x)
    assert np.all((p1 > 0) & (p1 < 1))
    # Bayes-optimal accuracy sanity: thresholding the posterior must beat chance.
    acc = np.mean((p1 > 0.5).astype(int) == ds.y)
    assert acc > 0.6
    # Mixture posterior: a weighted average of the per-protocol posteriors.
    row = ds.x[0]
    per_protocol = np.array([m.posterior1_given_nu(row, p) for p in range(4)])
    assert min(per_protocol) - 1e-12 <= p1[0] <= max(per_protocol) + 1e-12


def toy_model(weights0, weights1, class1_probability=0.5):
    return naps.AnalyticMarginalClassifier(
        naps.GenerativeConfig(
            scenario=gm.SCENARIO_DISCRETE,
            class1_probability=class1_probability,
            nuisance_prior_class0=gm.discrete_prior(weights0),
            nuisance_prior_class1=gm.discrete_prior(weights1),
        )
    )


def toy_log_joint(x, y, weight, protocol):
    """log(weight) + log p(x | y, protocol), from scipy's Poisson log-pmf."""
    return math.log(weight) + poisson.logpmf(x, gm.toy_rates(y, protocol)).sum(axis=-1)


def test_discrete_toy_posterior_extreme_counts_finite():
    w0, w1 = (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)
    m = toy_model(w0, w1, 0.3)
    x = np.full(8, 100)
    log1 = logsumexp([toy_log_joint(x, 1, 0.3 * w, k) for k, w in enumerate(w1)])
    log0 = logsumexp([toy_log_joint(x, 0, 0.7 * w, k) for k, w in enumerate(w0)])
    with np.errstate(divide="raise", invalid="raise"):
        p = m.posterior1(x)
        p_nu = m.posterior1_given_nu(np.full(8, 400), 2)
    assert np.isfinite(p) and p == pytest.approx(expit(log1 - log0), rel=1e-9)
    ref_nu = expit(toy_log_joint(np.full(8, 400), 1, 0.3, 2) - toy_log_joint(np.full(8, 400), 0, 0.7, 2))
    assert np.isfinite(p_nu) and p_nu == pytest.approx(ref_nu, rel=1e-9)


def test_discrete_toy_posterior_matches_direct_mixture():
    # ordinary counts: the log-space mixture equals the direct sum of densities
    w0, w1 = (0.05, 0.05, 0.1, 0.8), (0.0, 0.5, 0.5, 0.0)
    m = toy_model(w0, w1, 0.4)
    x = naps.sample_dataset(m.config, 3000, seed=8).x
    num1 = sum(0.4 * w * np.exp(toy_log_pmf(x, 1, k)) for k, w in enumerate(w1))
    num0 = sum(0.6 * w * np.exp(toy_log_pmf(x, 0, k)) for k, w in enumerate(w0))
    np.testing.assert_allclose(m.posterior1(x), num1 / (num1 + num0), rtol=0, atol=1e-12)
    for k in range(4):
        num1 = 0.4 * np.exp(toy_log_pmf(x, 1, k))
        num0 = 0.6 * np.exp(toy_log_pmf(x, 0, k))
        np.testing.assert_allclose(m.posterior1_given_nu(x, k), num1 / (num1 + num0), rtol=0, atol=1e-12)
    assert isinstance(m.posterior1(x[0]), float) and m.posterior1(x[0]) == m.posterior1(x[:1])[0]


def test_discrete_toy_ties_are_exact():
    # x enters the posterior only through x . TOY_CLASS_SHIFT and x . TOY_PROTOCOL_SHIFT[k];
    # distinct count vectors with equal sums (in integer hundredths) must get the same float
    w0, w1 = (0.25, 0.25, 0.25, 0.25), (0.05, 0.05, 0.1, 0.8)
    m = toy_model(w0, w1)
    x = naps.sample_dataset(m.config, 10_000, seed=11).x
    cents = np.rint(100 * np.vstack([gm.TOY_CLASS_SHIFT, gm.TOY_PROTOCOL_SHIFT])).astype(np.int64)
    _, group = np.unique(x @ cents.T, axis=0, return_inverse=True)
    group = group.ravel()
    n_vectors = np.bincount(np.unique(np.column_stack([group, x]), axis=0)[:, 0])
    assert np.sum(n_vectors > 1) >= 100  # many groups of distinct tied vectors
    for p in (m.posterior1(x), m.posterior1_given_nu(x, 2)):
        lo = np.full(len(n_vectors), np.inf)
        hi = np.full(len(n_vectors), -np.inf)
        np.minimum.at(lo, group, p)
        np.maximum.at(hi, group, p)
        assert np.array_equal(lo, hi)
    # the same values as the log-space mixture of the full log-pmfs, to rounding
    log1 = logsumexp([np.log(0.5 * w) + toy_log_pmf(x, 1, k) for k, w in enumerate(w1)], axis=0)
    log0 = logsumexp([np.log(0.5 * w) + toy_log_pmf(x, 0, k) for k, w in enumerate(w0)], axis=0)
    np.testing.assert_allclose(m.posterior1(x), expit(log1 - log0), rtol=0, atol=1e-12)
