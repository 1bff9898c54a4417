import hashlib

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from hypothesis import given, settings
from hypothesis import strategies as st

import naps
from naps import cli
from naps import cutoffs as co
from naps import files
from naps import genmodel as gm
from naps import harness
from naps import rejection as rj
from naps.classifier import label_bayes_factors
from naps.errors import BinningError, ConfigError, DomainError, SaturationError
from naps.nuisance import NuisanceRegion
from reference_fit import AugmentedRecords, augment, fit_rejection_surface, lone_fit, pool_adjacent_violators

UQ0_005_NU1 = 0.9175778871209889


def midpoints(binning):
    """Each cell's midpoint on a continuous binning."""
    return 0.5 * (binning.edges[:-1] + binning.edges[1:])


def identity_statistic(xs):
    return np.asarray(xs, dtype=float)


def minimax_isotonic(values, weights):
    """O(n^3) reference: fitted_k = max_{i<=k} min_{j>=k} weighted mean of [i..j]."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(values)
    out = np.empty(n)
    for k in range(n):
        best = -np.inf
        for i in range(k + 1):
            worst = np.inf
            for j in range(k, n):
                seg = slice(i, j + 1)
                worst = min(worst, np.average(values[seg], weights=weights[seg]))
            best = max(best, worst)
        out[k] = best
    return out


def test_pav_hand_case():
    fitted = pool_adjacent_violators(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(fitted, [0.5, 0.5, 1.0])


def test_pav_weighted_hand_case():
    fitted = pool_adjacent_violators(np.array([1.0, 0.0]), np.array([1.0, 3.0]))
    assert np.allclose(fitted, [0.25, 0.25])


def test_pav_monotone_input_is_identity():
    vals = np.array([0.0, 0.2, 0.2, 0.9, 1.0])
    assert np.array_equal(pool_adjacent_violators(vals), vals)


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            st.floats(min_value=0.1, max_value=4, allow_nan=False),
        ),
        min_size=1,
        max_size=18,
    )
)
@settings(max_examples=120, deadline=None)
def test_pav_matches_minimax_reference(data):
    values = np.array([d[0] for d in data])
    weights = np.array([d[1] for d in data])
    fitted = pool_adjacent_violators(values, weights)
    assert np.all(np.diff(fitted) >= -1e-12)
    assert np.allclose(fitted, minimax_isotonic(values, weights), atol=1e-9)
    # idempotent
    assert np.allclose(pool_adjacent_violators(fitted, weights), fitted, atol=1e-12)


def test_cutoff_grid_hand_case():
    grid = rj.cutoff_grid_from_values(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.allclose(grid.values, [1.75, 3.25])


def test_cutoff_grid_sorted_and_deduplicated():
    grid = rj.cutoff_grid_from_values(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.0]), 12)
    assert np.all(np.diff(grid.values) > 0)


def test_cutoff_grid_degenerate_statistic():
    with pytest.raises(ConfigError):
        rj.cutoff_grid_from_values(np.full(10, 3.0), 4)


@given(
    values=st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), min_size=1, max_size=60),
    grid_size=st.sampled_from([2, 3, 7, 200, 1000]),
)
@settings(max_examples=300, deadline=None)
def test_cutoff_grid_matches_numpy_quantile_bit_for_bit(values, grid_size):
    ranked = np.sort(np.array(values))
    levels = (np.arange(grid_size) + 0.5) / grid_size
    expected = np.unique(np.quantile(ranked, levels, method="linear"))
    if len(expected) < 2:
        with pytest.raises(ConfigError):
            rj.cutoff_grid_from_values(ranked, grid_size)
    else:
        assert rj.cutoff_grid_from_values(ranked, grid_size).values.tobytes() == expected.tobytes()


def test_cutoff_grid_refuses_unsorted_values():
    with pytest.raises(ValueError, match="not in ascending order"):
        rj.cutoff_grid_from_values(np.array([1.0, 3.0, 2.0, 4.0]), 2)


def test_cutoff_grid_from_values_deterministic(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 500, seed=1)
    a = rj.cutoff_grid_from_values(np.sort(ds.x), 16)
    b = rj.cutoff_grid_from_values(np.sort(ds.x), 16)
    assert np.array_equal(a.values, b.values)


def _tiny_dataset(lams, y=None, nu=None):
    n = len(lams)
    return naps.Dataset(
        gm.SCENARIO_ANALYTIC,
        np.zeros(n, dtype=np.int8) if y is None else np.asarray(y, dtype=np.int8),
        np.full(n, 2.0) if nu is None else np.asarray(nu, dtype=float),
        np.asarray(lams, dtype=float),
    )


def test_augment_indicator_hand_case():
    ds = _tiny_dataset([0.2, 0.8])
    grid = rj.CutoffGrid(values=np.array([0.5, 0.9]))
    records = augment(ds, identity_statistic, grid)
    # record (i, j) order: sample-major
    assert np.array_equal(records.z, [1, 1, 0, 1])
    assert np.array_equal(records.cutoff, [0.5, 0.9, 0.5, 0.9])


def test_augment_count_contract():
    ds = _tiny_dataset([0.1, 0.5, 0.9])
    grid = rj.CutoffGrid(values=np.array([0.2, 0.4, 0.6, 0.8]))
    records = augment(ds, identity_statistic, grid)
    assert len(records) == 3 * 4


def test_augment_rows_monotone_along_grid(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 50, seed=2)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 8)
    records = augment(ds, identity_statistic, grid)
    z = records.z.reshape(len(ds), len(grid))
    assert np.all(np.diff(z.astype(int), axis=1) >= 0)


def test_fit_records_hand_case_single_cell():
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    records = AugmentedRecords(
        y=np.zeros(3, dtype=np.int8),
        nu=np.full(3, 2.0),
        cutoff=np.array([1.0, 2.0, 3.0]),
        z=np.array([1, 0, 1], dtype=np.int8),
    )
    surface = fit_rejection_surface(records, binning)
    assert np.allclose(surface.values[0, 0], [0.5, 0.5, 1.0])


def test_fit_records_all_zero_cell():
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    records = AugmentedRecords(
        y=np.zeros(4, dtype=np.int8),
        nu=np.full(4, 3.0),
        cutoff=np.array([1.0, 2.0, 1.0, 2.0]),
        z=np.zeros(4, dtype=np.int8),
    )
    surface = fit_rejection_surface(records, binning)
    assert np.array_equal(surface.values[0, 0], [0.0, 0.0])


def test_fit_records_empty_cell_raises(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 200, seed=3)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 8)
    records = augment(ds, identity_statistic, grid)
    # Binning extends past the sampled support, so the top cell is empty.
    binning = rj.NuBinning(edges=np.array([1.0, 10.0, 20.0]))
    with pytest.raises(BinningError, match="bin=1"):
        fit_rejection_surface(records, binning)


def fit_both_labels(ds, rank, statistics, binning, grid_size):
    """Both labels' surfaces from one ``fit_surface`` call, its rows sorted once by ``rank``, and each label's grid.

    Each label's statistic is a function of ``rank``: label 1's nondecreasing and label 0's nonincreasing.
    """
    order = np.argsort(rank, kind="stable")
    grids = {y: rj.cutoff_grid_from_values(np.sort(tau), grid_size) for y, tau in statistics.items()}
    ranked = {y: tau[order] for y, tau in statistics.items()}
    return rj.fit_surface(binning.cell_code(ds.y, ds.nu)[order], ranked, grids, binning), grids


def assert_each_label_is_the_reference(ds, statistics, surfaces, grids, binning):
    for y, tau in statistics.items():
        reference = fit_rejection_surface(augment(ds, lambda x: tau, grids[y]), binning)
        assert surfaces[y].statistic_id == f"statistic-{y}"
        assert np.array_equal(surfaces[y].grid, reference.grid)
        assert np.array_equal(surfaces[y].values, reference.values)


def test_fit_surface_equals_records_path(uniform_gen):
    # both labels' surfaces from one call, each equal to its own records-path fit
    ds = gm.sample_dataset(uniform_gen, 3000, seed=4)
    statistics = {1: ds.x, 0: np.exp(-ds.x)}
    binning = rj.NuBinning.equal_width(1.0, 10.0, 5)
    surfaces, grids = fit_both_labels(ds, ds.x, statistics, binning, 32)
    assert sorted(surfaces) == [0, 1]
    assert_each_label_is_the_reference(ds, statistics, surfaces, grids, binning)


def brute_force_cdfs(ds, lam, grid, binning):
    """Each (label, cell)'s empirical CDF on the grid, one cell at a time; absent labels stay zero."""
    cells = binning.cell_index(ds.nu)
    out = np.zeros((2, binning.n_cells, len(grid)))
    for y in (0, 1):
        for cell in range(binning.n_cells):
            lam_cell = lam[(ds.y == y) & (cells == cell)]
            if len(lam_cell):
                out[y, cell] = np.mean(lam_cell[:, None] <= grid.values, axis=0)
    return out


def toy_dataset(n, seed, class1_probability=0.5):
    prior = gm.discrete_prior((0.1, 0.2, 0.3, 0.4))
    return gm.sample_dataset(naps.GenerativeConfig(gm.SCENARIO_DISCRETE, class1_probability, prior, prior), n, seed)


def test_fit_surface_counts_atoms_on_grid_values():
    # total Poisson counts: integer atoms, and the mid-quantile grid lands on many of them
    ds = toy_dataset(5000, seed=21)
    lam = ds.x.sum(axis=1).astype(float)
    grid = rj.cutoff_grid_from_values(np.sort(lam), 64)
    assert np.isin(grid.values, lam).sum() >= 5
    binning = rj.NuBinning.discrete((2, 0, 3, 1))
    surface = lone_fit(ds, lam, grid, binning)
    assert np.array_equal(surface.values, brute_force_cdfs(ds, lam, grid, binning))


def test_fit_surface_absent_label_keeps_zero_slice():
    # both labels' statistics in one call: each surface keeps a zero slice for the absent label 1
    ds = toy_dataset(3000, seed=23, class1_probability=0.0)
    lam = ds.x[:, 0].astype(float)
    statistics = {1: lam, 0: -lam}
    binning = rj.NuBinning.discrete((0, 1, 2, 3))
    surfaces, grids = fit_both_labels(ds, lam, statistics, binning, 20)
    for y, tau in statistics.items():
        assert not np.any(surfaces[y].values[1]) and np.any(surfaces[y].values[0])
        assert np.array_equal(surfaces[y].values, brute_force_cdfs(ds, tau, grids[y], binning))


@pytest.mark.parametrize(
    "y, nu, message",
    [
        ([0, 0, 0, 1, 1, 1], [1.5, 3.5, 8.0, 1.5, 1.6, 1.7], r"\(y=0, bin=2\)"),
        ([0, 0, 0, 0, 1, 1], [1.5, 3.5, 5.5, 8.0, 1.5, 5.5], r"\(y=1, bin=1\)"),
    ],
    ids=["label-0", "label-1"],
)
def test_fit_surface_names_first_empty_cell(y, nu, message):
    # cells [1, 3), [3, 5), [5, 7), [7, 10]; one call for both statistics checks label 0's cells before label 1's
    ds = _tiny_dataset([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], y=y, nu=nu)
    binning = rj.NuBinning(edges=np.array([1.0, 3.0, 5.0, 7.0, 10.0]))
    grid = rj.CutoffGrid(values=np.array([0.2, 0.4]))
    with pytest.raises(BinningError, match=rf"^no calibration samples in cell {message}$"):
        rj.fit_surface(binning.cell_code(ds.y, ds.nu), {1: ds.x, 0: -ds.x}, {1: grid, 0: grid}, binning)


def test_fit_surface_fits_grids_of_unequal_length_in_one_call():
    # total counts are integer atoms; label 0's rounded statistic ties more, so np.unique drops more of its grid
    ds = toy_dataset(5000, seed=21)
    total = ds.x.sum(axis=1).astype(float)
    statistics = {1: total, 0: np.round(10.0 / (1.0 + total), 1)}
    binning = rj.NuBinning.discrete((2, 0, 3, 1))
    surfaces, grids = fit_both_labels(ds, total, statistics, binning, 64)
    assert len(grids[0]) < len(grids[1]) < 64
    assert_each_label_is_the_reference(ds, statistics, surfaces, grids, binning)


def test_an_empty_cell_is_a_configuration_error_on_the_command_line(tmp_path, capsys):
    # 60 calibration samples cannot fill 40 cells per label; BinningError is a ConfigError, so the CLI exits 2
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(), target_prior=naps.uniform_prior(),
        n_calibration=60, n_evaluation=10, nu_bins=40, cutoff_grid_size=8, seed=3,
    )
    path = tmp_path / "config.json"
    files.write_json(path, cfg)
    assert cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "models")]) == 2
    assert capsys.readouterr().err == "configuration error: no calibration samples in cell (y=0, bin=0)\n"
    assert not (tmp_path / "models").exists()


README_20K = dict(
    train_prior=naps.uniform_prior(), target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
    n_train=20_000, n_calibration=20_000, n_evaluation=1, seed=7,
)
TOY_20K = dict(
    scenario=gm.SCENARIO_DISCRETE, train_prior=gm.discrete_prior((0.25,) * 4),
    target_prior=gm.discrete_prior((0.05, 0.05, 0.1, 0.8)), n_calibration=20_000, n_evaluation=1, seed=11,
)

# config -> sha256 prefixes of (values, grid) of the label-0 and label-1 surfaces from fit_pipeline.
# The digests were recorded with the per-cell sort-and-search fit, so any change to a fitted bit fails here.
# The analytic posterior calls no BLAS, so the digests are the same under every OpenBLAS kernel; they
# still follow NumPy's own exp and log loops, which round differently without AVX-512, so the grids
# have a second digest for hosts whose NumPy dispatches to its AVX2 loops.
NUMPY_AVX512 = __cpu_features__["AVX512_SKX"]
PINNED_SURFACES = {
    "readme": (
        README_20K,
        [("6b511b20a520ca16", "f12ab761ee3a0c2e"), ("7088681e4861614a", "25b9a1c09d68b6a1")] if NUMPY_AVX512
        else [("6b511b20a520ca16", "9988fe372c6012a4"), ("7088681e4861614a", "82c2a83db3fbb824")],
    ),
    "discrete-toy": (
        TOY_20K,
        [("6d40c2da9c8127b7", "b65a3bdc68acd077"), ("ea2909be18e8a8a2", "7b042f0bebc71043")] if NUMPY_AVX512
        else [("6d40c2da9c8127b7", "f9e67d451e47a5da"), ("ea2909be18e8a8a2", "fb8fd7b416c1d745")],
    ),
    "histogram": (
        dict(README_20K, classifier="histogram"),
        [("701881cc671a3f94", "dfda770837626438"), ("e91bd4987c54b288", "06ba044cf75e8c20")],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SURFACES))
def test_fitted_surfaces_are_pinned(name):
    config, expected = PINNED_SURFACES[name]
    pipeline = harness.fit_pipeline(harness.ExperimentConfig(**config))
    surfaces = [pipeline.surfaces[y] for y in (0, 1)]
    digest = [tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (s.values, s.grid)) for s in surfaces]
    assert digest == expected


def test_shared_fit_equals_reference_on_discrete_toy():
    # one argsort of p1 for both labels; the toy's statistics have atoms and ties
    config = harness.ExperimentConfig(**dict(TOY_20K, n_calibration=4000, cutoff_grid_size=64))
    pipeline = harness.fit_pipeline(config)
    calibration = config.calibration_set()
    p1, labels = pipeline.calibration_posterior
    assert np.all(p1[1:] >= p1[:-1])
    # the kept (p1, y) pairs are the calibration set's own, sorted by p1
    scored = pipeline.model.posterior1(calibration.x)
    by_pair = np.lexsort((labels, p1)), np.lexsort((calibration.y, scored))
    assert np.array_equal(p1[by_pair[0]], scored[by_pair[1]])
    assert np.array_equal(labels[by_pair[0]], calibration.y[by_pair[1]])
    # the reference counts the calibration set in its drawn order
    statistics = label_bayes_factors(scored, pipeline.model.class1_prior)
    for y in (0, 1):
        tau = statistics[y][0]
        assert len(np.unique(tau)) < len(tau)  # ties
        surface = pipeline.surfaces[y]
        grid = rj.cutoff_grid_from_values(np.sort(tau), config.cutoff_grid_size)
        assert np.array_equal(surface.grid, grid.values)
        reference = fit_rejection_surface(augment(calibration, lambda x: tau, grid), pipeline.binning)
        assert np.array_equal(surface.values, reference.values)


def test_fit_surface_refuses_unsorted_values(uniform_gen):
    # label 1's statistic must ascend along the rows and label 0's descend
    ds = gm.sample_dataset(uniform_gen, 200, seed=13)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 8)
    binning = rj.NuBinning.equal_width(1.0, 10.0, 2)
    code = binning.cell_code(ds.y, ds.nu)
    with pytest.raises(ValueError, match="label 1's statistic is not in ascending order"):
        rj.fit_surface(code, {1: ds.x}, {1: grid}, binning)
    with pytest.raises(ValueError, match="label 0's statistic is not in descending order"):
        rj.fit_surface(code, {0: np.sort(ds.x)}, {0: grid}, binning)
    with pytest.raises(ValueError, match="label 1's statistic is not in ascending order"):
        rj.fit_surface(code, {0: np.sort(ds.x)[::-1], 1: np.sort(ds.x)[::-1]}, {0: grid, 1: grid}, binning)


@pytest.mark.parametrize(
    "bad", [lambda x: np.where(x > 0.5, np.nan, x), lambda x: np.where(x > 0.5, np.inf, x), lambda x: x[:-1]],
    ids=["nan", "inf", "short"],
)
def test_statistic_values_validated_on_both_fit_paths(uniform_gen, bad):
    ds = gm.sample_dataset(uniform_gen, 200, seed=13)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 8)
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    order = np.argsort(ds.x)
    with pytest.raises(ConfigError):
        # the (label, cell) codes gathered into the statistic's ascending order, as a caller hands them over
        rj.fit_surface(binning.cell_code(ds.y, ds.nu)[order], {1: bad(ds.x[order])}, {1: grid}, binning)
    with pytest.raises(ConfigError):
        augment(ds, bad, grid)


def sup_distance_to_ecdf(surface, y, cell, lams):
    lams = np.sort(lams)
    ecdf = np.arange(1, len(lams) + 1) / len(lams)
    nu = np.full(len(lams), midpoints(surface.binning)[cell])
    fitted = surface.rejection_probability_batch(lams, np.full(len(lams), y), nu)
    return float(np.max(np.abs(fitted - ecdf)))


def test_single_bin_fit_reproduces_ecdf(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 100_000, seed=5)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 200)
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    surface = lone_fit(ds, ds.x, grid, binning)
    for y in (0, 1):
        lams = ds.x[ds.y == y]
        assert sup_distance_to_ecdf(surface, y, 0, lams) <= 0.01


def test_eval_boundary_conventions():
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    surface = rj.RejectionSurface(
        statistic_id="s",
        binning=binning,
        grid=np.array([0.0, 1.0, 2.0]),
        values=np.array([[[0.25, 0.5, 0.75]], [[0.1, 0.2, 1.0]]]),
    )
    w = surface.rejection_probability_batch([-0.5, 0.0, 1.5, 99.0, 99.0], [0, 0, 0, 0, 1], np.full(5, 2.0))
    assert w[0] == 0.0
    assert w[1] == 0.25
    assert w[2] == 0.5
    assert w[3] == 0.75  # stays at the fitted max
    assert w[4] == 1.0


def invert_at(surface, nu0, beta):
    """Label 0's inverse at level ``beta`` in the cell holding ``nu0``, through the one inversion path."""
    region = NuisanceRegion(intervals=((nu0, nu0),))
    return co.cutoff_for_region(surface, region, co.CutoffRequest(null_label=0, alpha=beta)).cutoff


def test_invert_contracts():
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    surface = rj.RejectionSurface(
        statistic_id="s",
        binning=binning,
        grid=np.array([0.0, 1.0, 2.0, 3.0]),
        values=np.array([[[0.1, 0.4, 0.4, 0.9]], [[0.0, 0.3, 0.6, 1.0]]]),
    )

    def w0(c):
        return surface.rejection_probability_batch([c], [0], [2.0])[0]

    assert invert_at(surface, 2.0, 0.05) == 0.0  # smallest grid cutoff
    for beta in (0.05, 0.1, 0.3, 0.4, 0.7, 0.9):
        c = invert_at(surface, 2.0, beta)
        assert w0(c) >= beta
    # ties resolve to the smaller cutoff
    assert invert_at(surface, 2.0, 0.4) == 1.0
    # round trip: inverting an attained level returns a cutoff no larger
    for c_in in (1.0, 2.0, 3.0):
        assert invert_at(surface, 2.0, w0(c_in)) <= c_in
    with pytest.raises(SaturationError) as err:
        invert_at(surface, 2.0, 0.95)
    assert err.value.attainable_max == 0.9


@pytest.mark.parametrize(
    "grid, w0",
    [
        ([2.0, 1.0, 3.0], [0.1, 0.4, 0.9]),
        ([1.0, 1.0, 2.0], [0.1, 0.4, 0.9]),
        ([np.nan, 1.0, 2.0], [0.1, 0.4, 0.9]),
        ([0.0, 1.0, np.inf], [0.1, 0.4, 0.9]),
        ([0.0, 1.0, 2.0], [np.nan, 0.4, 0.9]),
        ([0.0, 1.0, 2.0], [-0.1, 0.4, 0.9]),
        ([0.0, 1.0, 2.0], [0.1, 0.4, 1.5]),
        ([0.0, 1.0, 2.0], [0.1, 0.4, 0.4 - 1e-13]),
    ],
    ids=[
        "unsorted-grid", "tied-grid", "nan-grid", "inf-grid", "nan-value", "negative-value", "value-above-1",
        "dip-1e-13",
    ],
)
def test_surface_rejects_bad_grid_or_values(grid, w0):
    with pytest.raises(ConfigError):
        rj.RejectionSurface(
            statistic_id="s",
            binning=rj.NuBinning.equal_width(1.0, 10.0, 1),
            grid=np.array(grid),
            values=np.array([[w0], [[0.0, 0.5, 1.0]]]),
        )


def test_w_matches_closed_form_cdf(uniform_gen):
    # statistic = x itself; a narrow bin centered at nu = 2
    ds = gm.sample_dataset(uniform_gen, 2_000_000, seed=6)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 200)
    binning = rj.NuBinning(edges=np.array([1.0, 1.95, 2.05, 10.0]))
    surface = lone_fit(ds, ds.x, grid, binning)
    for x0 in np.linspace(0.05, 0.95, 10):
        expected = 1.0 - gm.survival_class0(x0, 2.0)
        got = surface.rejection_probability_batch([x0], [0], [2.0])[0]
        assert abs(got - expected) <= 0.02


def test_invert_recovers_upper_quantile(uniform_gen):
    ds = gm.sample_dataset(uniform_gen, 1_000_000, seed=7)
    grid = rj.cutoff_grid_from_values(np.sort(ds.x), 400)
    binning = rj.NuBinning(edges=np.array([1.0, 1.1, 10.0]))
    surface = lone_fit(ds, ds.x, grid, binning)
    # beta = 0.95 on the CDF scale is the alpha = 0.05 upper tail in x
    cut = invert_at(surface, 1.02, 0.95)
    assert abs(cut - UQ0_005_NU1) <= 0.02


def test_surface_is_read_only(pipeline):
    # prediction is amortized: fitted surfaces are immutable shared inputs
    with pytest.raises(ValueError):
        pipeline.surfaces[0].values[0, 0, 0] = 0.123
    with pytest.raises(ValueError):
        pipeline.surfaces[0].grid[0] = -1.0


def test_surface_roundtrip_bit_exact(tmp_path, pipeline):
    values = np.linspace(0.0, 1.0, 3 * 2 * 4).reshape(2, 3, 4)
    toy = rj.RejectionSurface("toy", rj.NuBinning.discrete((0, 2, 5)), np.array([0.5, 1.0, 2.0, 4.0]), values)
    for surface in (pipeline.surfaces[0], toy):
        path = tmp_path / "surface.json"
        surface.save(path)
        loaded = rj.RejectionSurface.load(path)
        assert np.array_equal(loaded.grid, surface.grid)
        assert np.array_equal(loaded.values, surface.values)
        assert loaded.statistic_id == surface.statistic_id
        assert files.jsonable(loaded) == files.jsonable(surface)


def test_binning_cells():
    binning = rj.NuBinning.equal_width(1.0, 10.0, 9)
    assert binning.n_cells == 9
    idx = binning.cell_index(np.array([1.0, 2.0, 9.9999, 10.0]))
    assert idx.tolist() == [0, 1, 8, 8]
    with pytest.raises(DomainError):
        binning.cell_index(0.5)
    assert midpoints(binning)[0] == pytest.approx(1.5)
    geo = rj.NuBinning.geometric(1.0, 10.0, 4)
    assert geo.edges[0] == pytest.approx(1.0)
    assert geo.edges[-1] == pytest.approx(10.0)
    disc = rj.NuBinning.discrete((0, 1, 2))
    assert disc.cell_index(np.array([2, 0])).tolist() == [2, 0]
    with pytest.raises(DomainError):
        disc.cell_index(np.array([5]))


@pytest.mark.parametrize("n_bins, dtype", [(20, np.uint8), (128, np.uint8), (129, np.uint16)])
def test_cell_code_is_label_and_cell_in_the_narrowest_type(n_bins, dtype):
    # the int8 labels must not overflow past 127 cells
    binning = rj.NuBinning.equal_width(1.0, 10.0, n_bins)
    nu = np.linspace(1.0, 10.0, 1001)
    y = (np.arange(1001) % 2).astype(np.int8)
    code = binning.cell_code(y, nu)
    assert code.dtype == dtype
    assert np.array_equal(code, y.astype(np.intp) * n_bins + binning.cell_index(nu))
    disc = rj.NuBinning.discrete((2, 0, 3, 1))
    assert disc.cell_code(np.array([0, 1, 1], dtype=np.int8), np.array([3, 3, 2])).tolist() == [2, 6, 4]


def searchsorted_cells(binning, nu):
    """The defining continuous cell index: the last edge at or below nu, the top end in the last cell."""
    return np.minimum(np.searchsorted(binning.edges, nu, side="right") - 1, binning.n_cells - 1)


def edge_probes(edges):
    """Every edge and its float neighbours both ways, inside the support."""
    probes = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return probes[(probes >= edges[0]) & (probes <= edges[-1])]


CONTINUOUS_BINNINGS = {
    # 300 cells: past 255 a cell number no longer fits one byte
    **{f"equal-{n}": rj.NuBinning.equal_width(1.0, 10.0, n) for n in (1, 2, 5, 20, 200, 300)},
    **{f"geometric-{n}": rj.NuBinning.geometric(1.0, 10.0, n) for n in (1, 2, 5, 20, 200, 300)},
    # cells from 1e-9 wide to 5 wide, one edge one ulp above a round value
    "irregular": rj.NuBinning(
        edges=np.array([1.0, 1.0 + 1e-9, 1.5, np.nextafter(2.125, 3.0), 2.2, 7.25, 9.9, 10.0])
    ),
}


@pytest.mark.parametrize("name", sorted(CONTINUOUS_BINNINGS))
def test_continuous_cell_index_is_searchsorted_exactly(name):
    binning = CONTINUOUS_BINNINGS[name]
    lo, hi = binning.edges[0], binning.edges[-1]
    probes = edge_probes(binning.edges)
    rng = np.random.default_rng(17)
    for nu in (probes, rng.permutation(probes), rng.uniform(lo, hi, 20_000), probes.reshape(-1, 1)):
        cells = binning.cell_index(nu)
        assert cells.dtype == np.intp and cells.shape == nu.shape
        assert np.array_equal(cells, searchsorted_cells(binning, nu))
    for end in (lo, hi):
        cell = binning.cell_index(end)
        assert np.ndim(cell) == 0 and cell == searchsorted_cells(binning, end)
    assert binning.cell_index(hi) == binning.n_cells - 1
    assert binning.cell_index(np.array([])).shape == (0,)
    for outside in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan):
        for nu in (outside, np.array([lo, outside, hi])):
            with pytest.raises(DomainError):
                binning.cell_index(nu)


@pytest.mark.parametrize("edges", [[1.0, np.inf], [-np.inf, 1.0], [1.0, np.nan, 2.0]], ids=["inf", "-inf", "nan"])
def test_binning_refuses_non_finite_edges(edges):
    with pytest.raises(ConfigError, match="finite"):
        rj.NuBinning(edges=np.array(edges))


@pytest.mark.parametrize("n_bins", [0, -3])
def test_binning_refuses_fewer_than_one_bin(n_bins):
    space = naps.uniform_prior().support
    for make in (rj.NuBinning.equal_width, rj.NuBinning.geometric):
        with pytest.raises(ConfigError, match="at least 1 bin"):
            make(1.0, 10.0, n_bins)
    for scheme in ("equal", "geometric"):
        with pytest.raises(ConfigError, match="at least 1 bin"):
            rj.NuBinning.for_space(space, n_bins, scheme=scheme)


def test_discrete_cell_index_matches_lookup():
    categories = (7, 2, 11, 0, 5)
    binning = rj.NuBinning.discrete(categories)
    lookup = {c: i for i, c in enumerate(categories)}
    rng = np.random.default_rng(4)
    for n in (1, 10, 5000):
        nu = rng.choice(categories, size=n)
        assert binning.cell_index(nu).tolist() == [lookup[v] for v in nu.tolist()]
    scalar = binning.cell_index(np.int64(11))
    assert np.ndim(scalar) == 0 and scalar == 2
    for unknown in (np.array([2, 3]), 12, -1, np.array([[0, 5], [7, 4]])):
        with pytest.raises(DomainError, match="unknown nuisance category"):
            binning.cell_index(unknown)


def test_binning_refuses_repeated_categories():
    # (0, 0, 1) would have 3 cells, and cell_index([0, 1]) would give [0, 2]: cell 1 could never fill
    with pytest.raises(ConfigError, match="categories must be unique"):
        rj.NuBinning.discrete((0, 0, 1))
    surface = rj.RejectionSurface("s", rj.NuBinning.discrete((0, 1, 2)), np.array([0.5, 1.0]), np.zeros((2, 3, 2)))
    data = files.jsonable(surface)
    data["binning"]["categories"] = [0, 0, 1]
    with pytest.raises(ConfigError, match=r"RejectionSurface\.binning: binning categories must be unique"):
        files.parse(rj.RejectionSurface, data)


def test_binning_region_intersection():
    from naps.nuisance import NuisanceRegion

    binning = rj.NuBinning.equal_width(1.0, 10.0, 9)
    region = NuisanceRegion(intervals=((3.8, 4.2),))
    cells = binning.cells_intersecting(region)
    assert cells.tolist() == [2, 3]
    # point-touches at cell edges are kept on both sides (widening is conservative)
    region2 = NuisanceRegion(intervals=((4.0, 5.0),))
    assert binning.cells_intersecting(region2).tolist() == [2, 3, 4]
    assert binning.cells_intersecting(NuisanceRegion()).tolist() == []


def test_binning_roundtrip():
    for binning in (
        rj.NuBinning.equal_width(1.0, 10.0, 7), rj.NuBinning.geometric(1.0, 10.0, 5), rj.NuBinning.discrete((0, 1, 3))
    ):
        again = files.parse(rj.NuBinning, files.jsonable(binning))
        assert files.jsonable(again) == files.jsonable(binning)


# --- PIT diagnostics ---------------------------------------------------------


def exact_surface(n_nu_cells=200, n_grid=2000):
    """Surface holding the closed-form conditional CDFs at cell centers."""
    binning = rj.NuBinning.equal_width(1.0, 10.0, n_nu_cells)
    grid = np.linspace(1e-6, 1.0 - 1e-6, n_grid)
    centers = midpoints(binning)
    values = np.empty((2, n_nu_cells, n_grid))
    for cell, center in enumerate(centers):
        values[0, cell] = gm.cdf_class0(grid, center)
        values[1, cell] = gm.cdf_class1(grid)
    return rj.RejectionSurface(statistic_id="x", binning=binning, grid=grid, values=values)


def test_pit_exact_w_is_uniform(uniform_gen):
    surface = exact_surface()
    ds = gm.sample_dataset(uniform_gen, 100_000, seed=8)
    binning = rj.NuBinning.for_space(gm.ANALYTIC_SPACE, 2)
    results = rj.pit_diagnostics(surface, ds, ds.x, binning)
    assert len(results) == 4
    for r in results:
        assert r["ks_distance"] <= 0.02


def test_pit_constant_half_degenerates(uniform_gen):
    binning = rj.NuBinning.equal_width(1.0, 10.0, 1)
    surface = rj.RejectionSurface(
        statistic_id="x",
        binning=binning,
        grid=np.array([-1.0, 2.0]),
        values=np.full((2, 1, 2), 0.5),
    )
    ds = gm.sample_dataset(uniform_gen, 5000, seed=9)
    results = rj.pit_diagnostics(surface, ds, ds.x, rj.NuBinning.for_space(gm.ANALYTIC_SPACE, 1))
    for r in results:
        assert r["ks_distance"] >= 0.45


def test_pit_partition_counts(uniform_gen):
    surface = exact_surface(20, 200)
    ds = gm.sample_dataset(uniform_gen, 20_000, seed=10)
    binning = rj.NuBinning.for_space(gm.ANALYTIC_SPACE, 4)
    results = rj.pit_diagnostics(surface, ds, ds.x, binning)
    assert sum(r["n"] for r in results) == len(ds)


def test_pit_empty_bin_skipped(uniform_gen):
    surface = exact_surface(20, 200)
    ds = gm.sample_dataset(uniform_gen, 2000, seed=11)
    keep = ds.y == 0
    only_class0 = naps.Dataset(ds.scenario, ds.y[keep], ds.nu[keep], ds.x[keep])
    binning = rj.NuBinning.for_space(gm.ANALYTIC_SPACE, 1)
    results = rj.pit_diagnostics(surface, only_class0, only_class0.x, binning)
    skipped = [r for r in results if r["skipped"]]
    assert len(skipped) == 1 and skipped[0]["bin"].startswith("y=1")


def test_pit_non_partition_raises(uniform_gen):
    surface = exact_surface(20, 200)
    ds = gm.sample_dataset(uniform_gen, 2000, seed=12)
    binning = rj.NuBinning.equal_width(1.0, 5.0, 1)  # misses most of the space
    with pytest.raises(DomainError):
        rj.pit_diagnostics(surface, ds, ds.x, binning)


def test_ks_distance_uniform():
    assert rj.ks_distance_uniform(np.linspace(1e-6, 1 - 1e-6, 10_000)) < 2e-4
    assert rj.ks_distance_uniform(np.full(100, 0.5)) == pytest.approx(0.5, abs=1e-9)
