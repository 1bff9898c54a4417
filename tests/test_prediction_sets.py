import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naps
from naps import genmodel as gm
from naps import harness
from naps import prediction_sets as ps
from naps.cutoffs import CutoffRequest, cutoff_for_region
from naps.errors import ConfigError, DomainError
from naps.nuisance import FullSpaceProvider, OracleQuantileProvider
from naps.rejection import NuBinning
from reference_fit import class_conditional_cutoffs, standard_cutoff

X0_STAR_005 = 0.9175778871209889
X1_STAR_005 = 0.0824221128790111


@pytest.fixture(scope="module")
def naps_clf(fine_pipeline):
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    return ps.NapsSetClassifier(
        model=fine_pipeline.model,
        surfaces=fine_pipeline.surfaces,
        providers={0: provider, 1: provider},
    )


def test_lower_quantile_convention():
    scores = np.sort(np.arange(1, 11) / 10.0)
    assert ps.lower_quantile(scores, 0.2) == pytest.approx(0.2)  # 2nd smallest
    assert ps.lower_quantile(scores, 0.05) == pytest.approx(0.1)  # floored at the minimum
    assert ps.lower_quantile(scores, 1.0) == pytest.approx(1.0)


def test_naps_three_regimes(naps_clf):
    # x-space oracle thresholds at alpha = 0.05: include 0 iff x below ~0.918,
    # include 1 iff x above ~0.082
    assert naps_clf.predict(0.95, alpha=0.05).members == (1,)
    assert naps_clf.predict(0.5, alpha=0.05).members == (0, 1)
    assert naps_clf.predict(0.01, alpha=0.05).members == (0,)


def test_naps_fresh_classifier_matches_shared(naps_clf, fine_pipeline):
    # a classifier built for one call predicts what the shared one, whose
    # cutoff table is already filled, predicts
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    fresh = ps.NapsSetClassifier(
        model=fine_pipeline.model, surfaces=fine_pipeline.surfaces, providers={0: provider, 1: provider}
    )
    single = fresh.predict(0.5, alpha=0.05)
    assert single.members == naps_clf.predict(0.5, alpha=0.05).members


@dataclass
class CountingModel:
    """Delegates to a model and counts posterior1 calls."""

    base: object
    calls: int = 0

    @property
    def class1_prior(self):
        return self.base.class1_prior

    def posterior1(self, x):
        self.calls += 1
        return self.base.posterior1(x)


def test_naps_one_posterior_pass_per_call(fine_pipeline, monkeypatch):
    counting = CountingModel(fine_pipeline.model)
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    clf = ps.NapsSetClassifier(
        model=counting, surfaces=fine_pipeline.surfaces, providers={0: provider, 1: provider}
    )
    inversions = []
    real = ps.cutoff_for_region
    monkeypatch.setattr(ps, "cutoff_for_region", lambda *a: inversions.append(a) or real(*a))
    clf.predict(0.5, alpha=0.05)
    assert counting.calls == 1
    clf.predict_batch(np.linspace(0.0, 1.0, 7), alpha=0.05)
    assert counting.calls == 2
    for x in (0.1, 0.9):
        clf.predict(x, alpha=0.05)
    assert counting.calls == 4
    # cutoffs are inverted once per label and (alpha, gamma), not per point or call
    assert len(inversions) == 2
    clf.predict(0.5, alpha=0.1)
    assert len(inversions) == 4


def test_predict_statistics_bitwise_equal_to_batch(naps_clf, readme_points):
    batch = naps_clf.predict_batch(readme_points, alpha=0.05)
    for i, x in enumerate(readme_points):
        single = naps_clf.predict(x, alpha=0.05)
        assert single.decisions[0].statistic == batch.statistic0[i]
        assert single.decisions[1].statistic == batch.statistic1[i]


@pytest.mark.parametrize("kind", ["analytic-marginal", "histogram"])
def test_nan_observation_is_a_domain_error(kind, fine_pipeline, uniform_gen):
    if kind == "histogram":
        model = naps.fit_histogram_classifier(gm.sample_dataset(uniform_gen, 2000, seed=7), 4, uniform_gen)
    else:
        model = fine_pipeline.model
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    clf = ps.NapsSetClassifier(model=model, surfaces=fine_pipeline.surfaces, providers={0: provider, 1: provider})
    with pytest.raises(DomainError):
        model.posterior1(np.nan)
    with pytest.raises(DomainError):
        model.posterior1(np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        clf.predict(np.nan, 0.1)


def test_naps_empty_set_flagged(naps_clf):
    # at a large miscoverage level the inclusion bands separate and the
    # middle of the domain yields empty sets
    pred = naps_clf.predict(0.5, alpha=0.9)
    assert pred.members == ()


def test_naps_nested_in_alpha(naps_clf):
    xs = np.linspace(0.0, 1.0, 41)
    small = naps_clf.predict_batch(xs, alpha=0.05)
    large = naps_clf.predict_batch(xs, alpha=0.2)
    # H(alpha=0.2) is contained in H(alpha=0.05) pointwise
    assert np.all(small.include0 | ~large.include0)
    assert np.all(small.include1 | ~large.include1)


def test_naps_audit_trail(naps_clf):
    pred = naps_clf.predict(0.5, alpha=0.05)
    d0, d1 = pred.decisions
    assert d0.statistic > d0.cutoff and d1.statistic > d1.cutoff
    assert not (d0.saturated or d1.saturated or d0.clipped or d1.clipped)
    assert 0 in pred and 1 in pred


@pytest.mark.parametrize(
    "provider",
    [
        FullSpaceProvider(space=gm.ANALYTIC_SPACE, gamma=0.002),
        OracleQuantileProvider(gamma=0.002, distribution=naps.truncated_gaussian_prior(4.0, 0.1)),
    ],
    ids=["full-space", "oracle-quantile"],
)
def test_cutoff_table_inverts_at_the_provider_gamma(fine_pipeline, naps_clf, provider):
    # gamma is the provider's: each label inverts at alpha - gamma over its region
    clf = ps.NapsSetClassifier(
        model=fine_pipeline.model, surfaces=fine_pipeline.surfaces, providers={0: provider, 1: provider}
    )
    alpha = 0.05
    table = clf.cutoff_table(alpha)
    for y in (0, 1):
        region = provider.region(y)
        want = cutoff_for_region(fine_pipeline.surfaces[y], region, CutoffRequest(y, alpha, provider.gamma))
        assert (table[y].cutoff, table[y].region) == (want.cutoff, region)
    # the provider's gamma moves the cutoffs off the gamma-0 ones
    assert [c.cutoff for c in table] != [c.cutoff for c in naps_clf.cutoff_table(alpha)]


def test_batch_csv_output(tmp_path, naps_clf):
    batch = naps_clf.predict_batch(np.array([0.01, 0.5, 0.95]), alpha=0.05)
    path = tmp_path / "pred.csv"
    batch.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,statistic0,statistic1,cutoff0,cutoff1,members,flags"
    assert len(lines) == 4
    assert lines[1].split(",")[5] == "0"
    assert lines[2].split(",")[5] == "01"
    assert lines[3].split(",")[5] == "1"
    assert batch.members_column() == ["0", "01", "1"]


@dataclass
class LinearModel:
    """Toy posterior P(Y=1|x) = x on [0, 1]; symmetric under label swap."""

    class1_prior: float = 0.5

    def posterior1(self, x):
        return np.asarray(x, dtype=float)


def linear_calibration(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = (rng.random(n) < x).astype(np.int8)
    return naps.Dataset(gm.SCENARIO_ANALYTIC, y, np.full(n, 5.0), x)


def ranked(p1, y):
    """A calibration posterior and its labels in ascending ``p1`` order, as the baselines take them."""
    order = np.argsort(p1)
    return p1[order], y[order]


def test_standard_sets_quantile_limit():
    model = LinearModel()
    cal = linear_calibration(500, seed=0)
    baseline = ps.StandardSetsBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    cutoff = baseline.cutoff(1e-9)
    assert cutoff == min(baseline.sorted_scores0[0], baseline.sorted_scores1[0])
    # any point whose both-label scores exceed the smallest score gets both labels
    include0, include1 = baseline.include_batch(model.posterior1(np.array([0.5])), 1e-9)
    assert (bool(include0[0]), bool(include1[0])) == (True, True)


def test_standard_sets_marginal_coverage_no_shift(model, uniform_gen):
    cal = gm.sample_dataset(uniform_gen, 50_000, seed=31)
    ev = gm.sample_dataset(uniform_gen, 20_000, seed=32)
    baseline = ps.StandardSetsBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    p1 = model.posterior1(ev.x)
    for alpha in (0.1, 0.2):
        i0, i1 = baseline.include_batch(p1, alpha)
        cov = np.mean(np.where(ev.y == 1, i1, i0))
        se = math.sqrt(alpha * (1 - alpha) / len(ev))
        assert abs(cov - (1 - alpha)) <= 3 * se


def test_class_conditional_symmetric_cutoffs():
    model = LinearModel()
    cal = linear_calibration(40_000, seed=1)
    baseline = ps.ClassConditionalBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    c0, c1 = baseline.cutoffs(0.1)
    # the construction is label-symmetric, so the two cutoffs agree up to noise
    assert abs(c0 - c1) < 0.02


def test_class_conditional_per_class_coverage(model, uniform_gen):
    cal = gm.sample_dataset(uniform_gen, 50_000, seed=33)
    ev = gm.sample_dataset(uniform_gen, 20_000, seed=34)
    baseline = ps.ClassConditionalBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    p1 = model.posterior1(ev.x)
    alpha = 0.1
    i0, i1 = baseline.include_batch(p1, alpha)
    for y, inc in ((0, i0), (1, i1)):
        mask = ev.y == y
        cov = np.mean(inc[mask])
        se = math.sqrt(alpha * (1 - alpha) / mask.sum())
        assert cov >= 1 - alpha - 3 * se


def test_class_conditional_fails_at_nu_1(model, uniform_gen):
    # conditioning on the hardest nuisance value exposes the invalidity
    cal = gm.sample_dataset(uniform_gen, 50_000, seed=35)
    baseline = ps.ClassConditionalBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    xs = gm.sample_dataset(gm.analytic_config(0.0, gm.point_mass_prior(1.0)), 20_000, seed=36).x
    i0, _ = baseline.include_batch(model.posterior1(xs), 0.1)
    cov = np.mean(i0)
    se = math.sqrt(0.1 * 0.9 / len(xs))
    assert cov < 0.9 - 3 * se


def test_class_conditional_requires_both_classes():
    model = LinearModel()
    cal = linear_calibration(100, seed=2)
    keep = cal.y == 1
    one_class = naps.Dataset(cal.scenario, cal.y[keep], cal.nu[keep], cal.x[keep])
    with pytest.raises(ConfigError):
        ps.ClassConditionalBaseline.fit(*ranked(model.posterior1(one_class.x), one_class.y))


def test_standard_sets_require_a_calibration_set():
    with pytest.raises(ConfigError, match="nonempty calibration set"):
        ps.StandardSetsBaseline.fit(np.array([]), np.array([], dtype=np.int8))


BASELINES = (ps.StandardSetsBaseline, ps.ClassConditionalBaseline)


@pytest.mark.parametrize("baseline", BASELINES)
@pytest.mark.parametrize(
    "p1, y, fault",
    [
        ([0.2, np.nan, 0.7, 0.9], [1, 0, 1, 1], "finite"),
        ([0.2, 0.7, 0.9, np.inf], [1, 0, 1, 1], "finite"),
        ([-3.0, 0.2, 1.5], [1, 0, 1], r"inside \[0, 1\]"),
        ([0.2, 1.5, -3.0], [1, 0, 1], "ascending"),
        ([0.2, 0.7, 0.9], [1, 0], "one value per label"),
        ([0.2, 0.7], [1, 0, 1], "one value per label"),
        ([0.2, 0.7], [2, 1], "labels must be 0 or 1"),
        ([0.2, 0.7, 0.9], [0, -1, 1], "labels must be 0 or 1"),
    ],
)
def test_baselines_refuse_a_malformed_posterior(baseline, p1, y, fault):
    with pytest.raises(ConfigError, match=fault):
        baseline.fit(np.array(p1), np.array(y, dtype=np.int8))


@st.composite
def ranked_calibrations(draw):
    """A ranked calibration posterior with ties, exact 0s and 1s and sometimes one label absent, and an alpha."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 8, 1000, None]))  # None keeps every float
    p1 = rng.random(n) if levels is None else np.round(rng.random(n) * levels) / levels
    y = (rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))).astype(np.int8)
    alpha = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, n).map(lambda j: j / n)))
    order = np.argsort(p1)
    return p1[order], y[order], alpha


@settings(max_examples=400, deadline=None)
@given(draw=ranked_calibrations())
def test_baseline_cutoffs_equal_the_sorting_references(draw):
    p1, y, alpha = draw
    shuffled = np.random.default_rng(len(p1)).permutation(len(p1))  # the references take any order
    got = ps.StandardSetsBaseline.fit(p1, y).cutoff(alpha)
    assert np.float64(got).tobytes() == np.float64(standard_cutoff(p1[shuffled], y[shuffled], alpha)).tobytes()
    if np.all(y == y[0]):
        with pytest.raises(ConfigError, match="both classes"):
            ps.ClassConditionalBaseline.fit(p1, y)
        with pytest.raises(ConfigError, match="both classes"):
            class_conditional_cutoffs(p1[shuffled], y[shuffled], alpha)
        return
    got = ps.ClassConditionalBaseline.fit(p1, y).cutoffs(alpha)
    want = class_conditional_cutoffs(p1[shuffled], y[shuffled], alpha)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_bayes_point_thresholds(model):
    fake = LinearModel()

    def label(x, costs=(1.0, 1.0)):
        return int(ps.bayes_point_batch(np.atleast_1d(fake.posterior1(x)), costs)[0])

    assert label(0.7) == 1
    assert label(0.3) == 0
    assert label(0.5) == 1  # tie goes to label 1
    # cost ratio moves the threshold to c0 / (c0 + c1)
    assert label(0.3, costs=(1.0, 3.0)) == 1
    # balanced-accuracy costs (1/P0, 1/P1) with equal priors keep 1/2
    assert label(0.49, costs=(2.0, 2.0)) == 0
    with pytest.raises(ConfigError):
        label(0.5, costs=(0.0, 1.0))


def test_bayes_point_batch():
    labels = ps.bayes_point_batch(np.array([0.2, 0.5, 0.8]))
    assert labels.tolist() == [0, 1, 1]


def test_plug_in_point_mass_reduces_to_class_conditional():
    # point mass placed in a bin interior: an edge value would let one-ulp
    # noise in the posterior mean flip the selected bin
    cfg = naps.analytic_config(
        0.5, naps.PriorSpec(kind="point-mass", support=gm.ANALYTIC_SPACE, value=3.8)
    )
    model = naps.AnalyticMarginalClassifier(cfg)
    cal = gm.sample_dataset(cfg, 20_000, seed=40)
    binning = NuBinning.equal_width(1.0, 10.0, 20)
    plug = ps.PlugInConditionalBaseline.fit(model, cal, binning)

    @dataclass
    class KnownNuModel:
        base: object
        nu0: float
        class1_prior: float = 0.5

        def posterior1(self, x):
            return self.base.posterior1_given_nu(x, self.nu0)

    known = KnownNuModel(model, 3.8)
    cc = ps.ClassConditionalBaseline.fit(*ranked(known.posterior1(cal.x), cal.y))
    ev = np.linspace(0.0, 1.0, 301)
    for alpha in (0.05, 0.2):
        pi0, pi1 = plug.include_batch(model, ev, alpha)
        ci0, ci1 = cc.include_batch(known.posterior1(ev), alpha)
        assert np.array_equal(pi0, ci0)
        assert np.array_equal(pi1, ci1)


def test_plug_in_undercovers_marginally(model, uniform_gen, base_config, pipeline, calibration):
    plug = ps.PlugInConditionalBaseline.fit(model, calibration, pipeline.binning)
    ev = gm.sample_dataset(uniform_gen, 20_000, seed=41)
    alpha = 0.1
    i0, i1 = plug.include_batch(model, ev.x, alpha)
    cov = np.mean(np.where(ev.y == 1, i1, i0))
    se = math.sqrt(alpha * (1 - alpha) / len(ev))
    assert cov < 1 - alpha - 3 * se


def test_plug_in_requires_analytic_model():
    model = LinearModel()
    cal = linear_calibration(100, seed=3)
    with pytest.raises(ConfigError):
        ps.PlugInConditionalBaseline.fit(model, cal, NuBinning.equal_width(1.0, 10.0, 4))


def test_baselines_single_point_matches_batch(model, uniform_gen):
    # baselines are fitted once; one point is a batch of one
    cal = gm.sample_dataset(uniform_gen, 5000, seed=42)
    xs = np.array([0.05, 0.5, 0.95])
    std = ps.StandardSetsBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    cc = ps.ClassConditionalBaseline.fit(*ranked(model.posterior1(cal.x), cal.y))
    plug = ps.PlugInConditionalBaseline.fit(model, cal, NuBinning.equal_width(1.0, 10.0, 5))
    for include in (
        lambda x: std.include_batch(model.posterior1(x), 0.1),
        lambda x: cc.include_batch(model.posterior1(x), 0.1),
        lambda x: plug.include_batch(model, x, 0.1),
    ):
        batch0, batch1 = include(xs)
        for i, x in enumerate(xs):
            one0, one1 = include(np.array([x]))
            assert (one0.shape, one1.shape) == ((1,), (1,))
            assert (bool(one0[0]), bool(one1[0])) == (bool(batch0[i]), bool(batch1[i]))
