import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naps
from naps import cutoffs as co
from naps import genmodel as gm
from naps.classifier import bayes_factor_from_posterior, x_at_bayes_factor
from naps.errors import ConfigError, DomainError, NumericError, SaturationError
from naps.nuisance import FullSpaceProvider, NuisanceRegion, OracleQuantileProvider, full_space_set
from naps.rejection import NuBinning, RejectionSurface
from reference_fit import lone_fit
from test_rejection import midpoints

# Frozen closed-form values (30-digit arithmetic):
# x0*(alpha) = sup_nu -(1/nu) log(alpha (1 - e^-nu) + e^-nu) over [1, 10],
# attained at nu = 1; x1*(alpha) = log(1 + alpha (e - 1)).
X0_STAR = {
    0.01: 0.9829631367638234,
    0.05: 0.9175778871209889,
    0.1: 0.8414349212595709,
    0.2: 0.7046054708796523,
}
X1_STAR = {
    0.01: 0.0170368632361765,
    0.05: 0.0824221128790111,
    0.1: 0.1585650787404291,
    0.2: 0.2953945291203476,
}
# sup over [3.8, 4.2] at inversion level alpha - gamma = 0.0475 (at nu = 3.8)
X0_RESTRICTED_38_42 = 0.7043244562157329


FULL_SPACE = full_space_set(gm.ANALYTIC_SPACE)


def full_request(alpha, gamma=0.0, y=0, mode="fpr"):
    return co.CutoffRequest(null_label=y, alpha=alpha, gamma=gamma, mode=mode)


def point_region(nu0):
    return NuisanceRegion(intervals=((nu0, nu0),))


def arg_nu(surface, result):
    return tuple(float(v) for v in midpoints(surface.binning)[list(result.cells)])


def test_request_validation():
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=0, alpha=1.0)
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=0, alpha=0.05, gamma=0.05)  # beta = 0
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=0, alpha=0.9, gamma=0.2, mode="tpr")  # beta > 1
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=2, alpha=0.1)
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=0, alpha=0.1, mode="both")
    with pytest.raises(ConfigError):
        co.CutoffRequest(null_label=0, alpha=0.1, gamma=-0.01)
    req = co.CutoffRequest(null_label=0, alpha=0.1, gamma=0.02, mode="tpr")
    assert req.beta == pytest.approx(0.12)
    assert req.slice_label == 1


def test_fixed_nu_cutoff_recovers_closed_form(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    result = co.cutoff_for_region(surface, point_region(1.0), co.CutoffRequest(null_label=0, alpha=0.05))
    x_cut = x_at_bayes_factor(fine_pipeline.model, 0, result.cutoff)
    assert abs(x_cut - X0_STAR[0.05]) <= 0.02
    assert result.cells == (int(surface.binning.cell_index(1.0)),)


def test_fixed_nu_cutoff_monotone_in_alpha(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    cuts, xcuts = [], []
    for alpha in (0.02, 0.05, 0.1, 0.2, 0.4):
        request = co.CutoffRequest(null_label=0, alpha=alpha)
        c = co.cutoff_for_region(surface, point_region(3.0), request).cutoff
        cuts.append(c)
        xcuts.append(x_at_bayes_factor(fine_pipeline.model, 0, c))
    # statistic-scale cutoffs rise with alpha; the x-space rejection
    # threshold falls, i.e. the sets only shrink
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    assert all(a >= b for a, b in zip(xcuts, xcuts[1:]))


def test_uniform_cutoff_is_min_over_fixed(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    request = full_request(0.05)
    uniform = co.cutoff_for_region(surface, FULL_SPACE, request)
    fixed = []
    for rep in midpoints(surface.binning):
        fixed.append(co.cutoff_for_region(surface, point_region(float(rep)), request).cutoff)
    assert uniform.cutoff == min(fixed)
    assert uniform.cutoff <= min(fixed) + 1e-15


def test_uniform_cutoff_single_bin_equals_fixed(base_config, calibration, model):
    from naps.rejection import cutoff_grid_from_values

    p1 = model.posterior1(calibration.x)
    tau0 = bayes_factor_from_posterior(1.0 - p1, 0.5)[0]
    grid = cutoff_grid_from_values(np.sort(tau0), 100)
    binning = NuBinning.equal_width(1.0, 10.0, 1)
    surface = lone_fit(calibration, tau0, grid, binning)
    uniform = co.cutoff_for_region(surface, FULL_SPACE, full_request(0.1))
    fixed = co.cutoff_for_region(surface, point_region(7.0), full_request(0.1))
    assert uniform.cutoff == fixed.cutoff


def test_uniform_cutoff_matches_oracle_sweep(fine_pipeline):
    for alpha in (0.05, 0.1, 0.2):
        surface = fine_pipeline.surfaces[0]
        result = co.cutoff_for_region(surface, FULL_SPACE, full_request(alpha))
        x_cut = x_at_bayes_factor(fine_pipeline.model, 0, result.cutoff)
        assert abs(x_cut - X0_STAR[alpha]) <= 0.02
        assert arg_nu(surface, result)[0] < 1.3  # optimum sits against the lower boundary


def test_data_dependent_gamma0_equals_uniform(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    request = co.CutoffRequest(null_label=0, alpha=0.1, gamma=0.0)
    dd = co.cutoff_for_region(surface, provider.region(0), request)
    uni = co.cutoff_for_region(surface, FULL_SPACE, full_request(0.1))
    assert dd.cutoff == uni.cutoff
    assert arg_nu(surface, dd) == arg_nu(surface, uni)


def test_data_dependent_superset_is_more_conservative(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    request = full_request(0.05)
    small = NuisanceRegion(intervals=((3.8, 4.2),))
    large = NuisanceRegion(intervals=((2.0, 6.0),))
    c_small = co.cutoff_for_region(surface, small, request)
    c_large = co.cutoff_for_region(surface, large, request)
    # enlarging the search set can only lower the infimum (more conservative)
    assert c_large.cutoff <= c_small.cutoff


def test_data_dependent_restricted_region_gains_power(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    request = co.CutoffRequest(null_label=0, alpha=0.05, gamma=0.0025)
    region = NuisanceRegion(intervals=((3.8, 4.2),))
    restricted = co.cutoff_for_region(surface, region, request)
    x_cut = x_at_bayes_factor(fine_pipeline.model, 0, restricted.cutoff)
    assert abs(x_cut - X0_RESTRICTED_38_42) <= 0.02
    assert x_cut < X0_STAR[0.05]  # net power gain over the full-space cutoff


def test_empty_region_errors(fine_pipeline):
    request = full_request(0.05)
    with pytest.raises(NumericError):
        co.cutoff_for_region(fine_pipeline.surfaces[0], NuisanceRegion(), request)


def test_saturation_error_lists_cells():
    binning = NuBinning.equal_width(1.0, 10.0, 2)
    surface = RejectionSurface(
        statistic_id="s",
        binning=binning,
        grid=np.array([0.0, 1.0]),
        values=np.array([[[0.1, 0.6], [0.1, 0.9]], [[0.0, 1.0], [0.0, 1.0]]]),
    )
    with pytest.raises(SaturationError) as err:
        co.cutoff_for_region(surface, FULL_SPACE, full_request(0.95))
    assert err.value.attainable_max == pytest.approx(0.6)


def test_tpr_mode_uses_opposite_slice():
    binning = NuBinning.equal_width(1.0, 10.0, 1)
    surface = RejectionSurface(
        statistic_id="s",
        binning=binning,
        grid=np.array([0.0, 1.0, 2.0]),
        values=np.array([[[0.1, 0.5, 0.9]], [[0.2, 0.6, 1.0]]]),
    )
    request = co.CutoffRequest(null_label=0, alpha=0.6, mode="tpr")
    result = co.cutoff_for_region(surface, FULL_SPACE, request)
    # inverts the label-1 slice at beta = 0.6: the smallest C with W >= 0.6 is 1.0
    assert result.cutoff == 1.0


# --- closed-form oracles -----------------------------------------------------


def brute_force_x0_star(alpha, gamma, region, n=500):
    grid = np.concatenate([np.linspace(lo, hi, n) for lo, hi in region.intervals])
    vals = gm.upper_quantile_class0(alpha - gamma, grid)
    return float(np.max(vals))


def test_oracle_x1_star_values():
    for alpha, expected in X1_STAR.items():
        oracle = co.analytic_oracle_cutoffs(alpha, 0.0, full_space_set(gm.ANALYTIC_SPACE))
        assert oracle.x1_star == pytest.approx(expected, abs=1e-12)


def test_oracle_x0_star_values():
    for alpha, expected in X0_STAR.items():
        oracle = co.analytic_oracle_cutoffs(alpha, 0.0, full_space_set(gm.ANALYTIC_SPACE))
        assert oracle.x0_star == pytest.approx(expected, abs=1e-12)
        assert oracle.arg_nu == pytest.approx(1.0, abs=1e-9)
        # independent dense sweep agrees
        assert oracle.x0_star == pytest.approx(brute_force_x0_star(alpha, 0.0, FULL_SPACE), abs=1e-6)


def test_oracle_restricted_region():
    region = NuisanceRegion(intervals=((3.8, 4.2),))
    oracle = co.analytic_oracle_cutoffs(0.05, 0.0025, region)
    assert oracle.x0_star == pytest.approx(X0_RESTRICTED_38_42, abs=1e-12)
    assert oracle.arg_nu == pytest.approx(3.8, abs=1e-9)
    assert oracle.x0_star < X0_STAR[0.05]


def test_oracle_parameter_errors():
    region = full_space_set(gm.ANALYTIC_SPACE)
    with pytest.raises(DomainError):
        co.analytic_oracle_cutoffs(0.05, 0.05, region)  # alpha - gamma = 0
    with pytest.raises(ConfigError):
        co.analytic_oracle_cutoffs(0.05, 0.0, NuisanceRegion())


def test_oracle_two_interval_region_takes_lowest_nu():
    region = NuisanceRegion(intervals=((2.0, 3.0), (6.0, 8.0)))
    for alpha, gamma in ((0.05, 0.0), (0.1, 0.02), (0.5, 0.1)):
        oracle = co.analytic_oracle_cutoffs(alpha, gamma, region)
        assert oracle.arg_nu == 2.0
        # independent sweep over both intervals: the lower interval's lower end wins
        assert oracle.x0_star == pytest.approx(brute_force_x0_star(alpha, gamma, region), abs=1e-12)
        assert oracle.x0_star > brute_force_x0_star(alpha, gamma, NuisanceRegion(intervals=((6.0, 8.0),)))


def test_upper_quantile_class0_decreasing_in_nu():
    # the analytic oracle reads its supremum at a region's lowest nu on this property
    grid = np.linspace(1.0, 10.0, 200)  # both support ends included
    for alpha in (1e-3, 0.05, 0.5, 0.999):
        vals = gm.upper_quantile_class0(alpha, grid)
        assert np.all(np.diff(vals) < 0)


# --- Monte Carlo FPR/TPR guarantee with the trivially valid provider ---------


def test_full_space_cutoffs_control_rates(fine_pipeline):
    model = fine_pipeline.model
    alpha = 0.1
    n = 5000
    provider = FullSpaceProvider(space=gm.ANALYTIC_SPACE)
    cut_fpr = {}
    cut_tpr = {}
    for y in (0, 1):
        fpr_req = co.CutoffRequest(null_label=y, alpha=alpha)
        cut_fpr[y] = co.cutoff_for_region(fine_pipeline.surfaces[y], provider.region(y), fpr_req).cutoff
        tpr_req = co.CutoffRequest(null_label=y, alpha=alpha, mode="tpr")
        cut_tpr[y] = co.cutoff_for_region(fine_pipeline.surfaces[y], provider.region(1 - y), tpr_req).cutoff
    se = math.sqrt(alpha * (1 - alpha) / n)
    for y in (0, 1):
        prior_y = 0.5
        for k, nu in enumerate(np.linspace(1.0, 10.0, 10)):
            fixed = gm.analytic_config(float(y), gm.point_mass_prior(nu))
            xs = gm.sample_dataset(fixed, n, 77, stream_base=64 * k + 4 * y).x
            p1 = np.asarray(model.posterior1(xs))
            p_y = p1 if y == 1 else 1.0 - p1
            tau = bayes_factor_from_posterior(p_y, prior_y)[0]
            type1 = float(np.mean(tau <= cut_fpr[y]))
            assert type1 <= alpha + 3 * se
            alt = gm.analytic_config(float(1 - y), gm.point_mass_prior(nu))
            xs_alt = gm.sample_dataset(alt, n, 78, stream_base=64 * k + 4 * y).x
            p1a = np.asarray(model.posterior1(xs_alt))
            p_ya = p1a if y == 1 else 1.0 - p1a
            tau_alt = bayes_factor_from_posterior(p_ya, prior_y)[0]
            recall = float(np.mean(tau_alt <= cut_tpr[y]))
            assert recall >= alpha - 3 * se


# --- the single path against its per-cell definition --------------------------

LEVELS = [i / 10 for i in range(11)]  # coarse, so cells tie


@st.composite
def surface_region_request(draw):
    mode = draw(st.sampled_from(("fpr", "tpr")))
    alpha = draw(st.floats(min_value=0.01, max_value=0.99))
    gamma = draw(st.floats(min_value=0.0, max_value=0.5))
    beta = alpha - gamma if mode == "fpr" else alpha + gamma
    assume(0.0 < beta < 1.0)
    request = co.CutoffRequest(null_label=draw(st.integers(0, 1)), alpha=alpha, gamma=gamma, mode=mode)
    n_cells = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=2, max_value=5))
    grid = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))).astype(float)
    # the levels include beta itself, so rows have plateaus exactly at beta
    levels = st.sampled_from(sorted({*LEVELS, request.beta}))
    slices = st.lists(levels, min_size=k, max_size=k).map(sorted)
    values = np.array([[draw(slices) for _ in range(n_cells)] for _ in (0, 1)])
    surface = RejectionSurface("s", NuBinning.equal_width(1.0, 10.0, n_cells), grid, values)
    ends = st.floats(min_value=1.0, max_value=10.0, allow_nan=False)
    lo, hi = sorted((draw(ends), draw(ends)))
    return surface, NuisanceRegion(intervals=((lo, hi),)), request


def cell_inverse(surface, beta, y, cell):
    """The smallest grid cutoff with W >= beta in one cell, or ``SaturationError`` with the cell's maximum."""
    row = surface.values[y, cell]
    pos = int(np.searchsorted(row, beta, "left"))
    if pos == len(row):
        raise SaturationError("saturated", attainable_max=float(row[-1]))
    return float(surface.grid[pos])


@given(surface_region_request())
@settings(max_examples=300, deadline=None)
def test_cutoff_for_region_is_the_per_cell_optimum(case):
    surface, region, request = case
    y = request.slice_label
    inverses, maxima = {}, {}
    for cell in surface.binning.cells_intersecting(region):
        try:
            inverses[int(cell)] = cell_inverse(surface, request.beta, y, int(cell))
        except SaturationError as exc:
            maxima[int(cell)] = exc.attainable_max
    if maxima:
        with pytest.raises(SaturationError) as err:
            co.cutoff_for_region(surface, region, request)
        assert err.value.attainable_max == min(maxima.values())
        return
    result = co.cutoff_for_region(surface, region, request)
    optimum = (min if request.mode == "fpr" else max)(inverses.values())
    assert result.cutoff == optimum
    assert set(result.cells) == {c for c, v in inverses.items() if v == optimum}
    assert list(result.cells) == sorted(result.cells)


def test_one_point_region_is_the_cell_inverse(fine_pipeline):
    surface = fine_pipeline.surfaces[0]
    request = full_request(0.1)
    reps = midpoints(surface.binning)
    for cell, nu0 in enumerate(reps):
        result = co.cutoff_for_region(surface, point_region(float(nu0)), request)
        assert result.cutoff == cell_inverse(surface, request.beta, 0, cell)
        assert result.cells == (cell,)
    # an interior edge meets both neighbouring cells: the more conservative cutoff
    edge = float(surface.binning.edges[5])
    on_edge = co.cutoff_for_region(surface, point_region(edge), request)
    both = [cell_inverse(surface, request.beta, 0, c) for c in (4, 5)]
    assert on_edge.cutoff == min(both)
    assert set(on_edge.cells) <= {4, 5}
