"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). Monte Carlo checks pin their seeds; tolerances come from the
criteria themselves, never from the observed values.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import naps
from naps import cli, files, genmodel as gm, harness
from naps.classifier import bayes_factor_from_posterior, x_at_bayes_factor
from naps.cutoffs import CutoffRequest, analytic_oracle_cutoffs, cutoff_for_region
from naps.nuisance import FullSpaceProvider, OracleQuantileProvider, full_space_set
from naps.rejection import NuBinning, cutoff_grid_from_values
from reference_fit import augment, fit_rejection_surface, pool_adjacent_violators


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def x0_star_closed_form(alpha: float) -> float:
    # sup over [1, 10] sits at the boundary nu = 1
    return float(gm.upper_quantile_class0(alpha, 1.0))


def test_criterion_1_closed_form_oracle_agreement():
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=2_000_000,
        n_evaluation=10_000,
        nu_bins=40,
        nu_bin_scheme="geometric",
        cutoff_grid_size=400,
        seed=20250809,
    )
    pipeline = harness.fit_pipeline(cfg)
    errors = {}
    for alpha in (0.01, 0.05, 0.1, 0.2):
        request = CutoffRequest(null_label=0, alpha=alpha)
        cut = cutoff_for_region(pipeline.surfaces[0], full_space_set(gm.ANALYTIC_SPACE), request).cutoff
        x_cut = x_at_bayes_factor(pipeline.model, 0, cut)
        errors[alpha] = abs(x_cut - x0_star_closed_form(alpha))
        if alpha == 0.05:
            spot = abs(x_cut - 0.9175778871209889)
    elapsed = time.perf_counter() - t0
    ok = all(e <= 0.02 for e in errors.values()) and spot <= 0.02 and elapsed < 30.0
    report(
        1,
        ok,
        f"uniform FPR cutoff vs closed form, max |err| = {max(errors.values()):.4f} "
        f"(tol 0.02), spot err at alpha=0.05 = {spot:.4f}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_conditional_coverage():
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=400_000,
        n_evaluation=10_000,
        nu_bins=20,
        cutoff_grid_size=400,
        seed=11,
    )
    pipeline = harness.fit_pipeline(cfg)
    model = pipeline.model
    # ten interior representatives of the nuisance interval (decile midpoints)
    nu_grid = np.linspace(1.45, 9.55, 10)
    n_cell = 20_000
    alphas = (0.05, 0.1, 0.2)
    cuts = {
        (a, y): cutoff_for_region(
            pipeline.surfaces[y], full_space_set(gm.ANALYTIC_SPACE), CutoffRequest(null_label=y, alpha=a)
        ).cutoff
        for a in alphas
        for y in (0, 1)
    }
    worst = math.inf
    for a in alphas:
        bound = 1 - a - 3 * math.sqrt(a * (1 - a) / n_cell)
        for y in (0, 1):
            prior_y = 0.5
            for k, nu in enumerate(nu_grid):
                fixed = gm.analytic_config(float(y), gm.point_mass_prior(nu))
                base = harness.STREAM_MC_BASE + 64 * k + 2 * y
                xs = gm.sample_dataset(fixed, n_cell, cfg.seed, stream_base=base).x
                p1 = np.asarray(model.posterior1(xs))
                p_y = p1 if y == 1 else 1.0 - p1
                tau = bayes_factor_from_posterior(p_y, prior_y)[0]
                coverage = float(np.mean(tau > cuts[(a, y)]))
                worst = min(worst, coverage - bound)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and elapsed < 120.0
    report(
        2,
        ok,
        f"conditional coverage over {{0,1}} x 10-point nu grid, gamma=0, "
        f"worst margin above 1-alpha-3se = {worst:+.4f}, runtime {elapsed:.1f}s < 120s",
    )


def _contrast_methods():
    return (
        harness.MethodSpec(name="naps", kind="naps"),
        harness.MethodSpec(
            name="naps-oracle",
            kind="naps",
            gamma_rule=harness.GammaRule("alpha-multiple", 0.01),
            provider="oracle-quantile",
        ),
        harness.MethodSpec(name="standard", kind="standard"),
    )


def test_criterion_3_shift_coverage_contrast():
    alphas = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    base = dict(
        train_prior=naps.uniform_prior(),
        n_calibration=200_000,
        n_evaluation=50_000,
        alphas=alphas,
        nu_bins=20,
        cutoff_grid_size=400,
        methods=_contrast_methods(),
        seed=7,
    )
    n = base["n_evaluation"]

    no_shift = harness.run_experiment(
        harness.ExperimentConfig(target_prior=naps.uniform_prior(), **base)
    )
    max_dev_sigma = 0.0
    for a in alphas:
        cov = no_shift.method_alpha("standard", a)["marginal"]["coverage"]
        max_dev_sigma = max(max_dev_sigma, abs(cov - (1 - a)) / math.sqrt(a * (1 - a) / n))

    shifted = harness.run_experiment(
        harness.ExperimentConfig(target_prior=naps.truncated_gaussian_prior(4.0, 0.1), **base)
    )
    a = 0.2
    se = math.sqrt(a * (1 - a) / n)
    std_cov = shifted.method_alpha("standard", a)["marginal"]["coverage"]
    naps_cov = shifted.method_alpha("naps", a)["marginal"]["coverage"]
    oracle_cov = shifted.method_alpha("naps-oracle", a)["marginal"]["coverage"]
    naps_pow = shifted.method_alpha("naps", a)["marginal"]["power"]
    oracle_pow = shifted.method_alpha("naps-oracle", a)["marginal"]["power"]

    ok = (
        std_cov < 0.8 - 3 * se
        and naps_cov >= 0.8 - 3 * se
        and oracle_cov >= 0.8 - 3 * se
        and oracle_pow >= naps_pow
        and max_dev_sigma <= 3.0
    )
    report(
        3,
        ok,
        f"GLS alpha=0.2: standard coverage {std_cov:.4f} < 0.8 - 3se, NAPS {naps_cov:.4f} "
        f"and oracle-gamma {oracle_cov:.4f} >= 0.8 - 3se, power gain {oracle_pow:.3f} >= {naps_pow:.3f}; "
        f"no-GLS standard within ±3se across the alpha grid (max {max_dev_sigma:.2f}se)",
    )


def test_criterion_4_gamma_power_sweep():
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=1_000,
        n_evaluation=20_000,
        alphas=(0.05,),
        seed=13,
    )
    grid = np.geomspace(1e-4, 1e-2, 30)
    result = harness.gamma_sweep(cfg, alpha=0.05, gamma_grid=grid)
    elapsed = time.perf_counter() - t0
    gamma_min = result["minimizing_gamma"]
    ok = 3e-4 <= gamma_min <= 3e-3 and elapsed < 10.0
    report(
        4,
        ok,
        f"x0* minimizing gamma on the 30-point log grid = {gamma_min:.2e} "
        f"(required in [3e-4, 3e-3]), runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_5_invariance_check():
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=200_000,
        n_evaluation=10_000,
        nu_bins=20,
        seed=5,
    )
    pipeline = harness.fit_pipeline(cfg)
    # comparing empirical CDFs at the 0.03 level needs cells whose own
    # noise floor (1.36 / sqrt(n)) sits well below 0.03
    clean = harness.invariance_check(cfg, pipeline, min_cell_count=10_000)
    broken = harness.invariance_check(cfg, pipeline, perturb_scale=1.5, min_cell_count=10_000)
    ok = (
        clean["max_sup_distance"] is not None
        and clean["max_sup_distance"] <= 0.03
        and broken["max_sup_distance"] > 0.1
    )
    report(
        5,
        ok,
        f"train-fitted surface vs target rejection rates: max sup-distance "
        f"{clean['max_sup_distance']:.4f} <= 0.03 over {len(clean['cells'])} cells; "
        f"constructed likelihood violation reaches {broken['max_sup_distance']:.4f} > 0.1",
    )


def test_criterion_6_algorithm_unit_suite():
    pav = pool_adjacent_violators(np.array([1.0, 0.0, 1.0]))
    pav_ok = np.allclose(pav, [0.5, 0.5, 1.0])

    gen = naps.analytic_config(0.5, naps.uniform_prior())
    small = gm.sample_dataset(gen, 50, seed=61)
    grid_small = cutoff_grid_from_values(np.sort(small.x), 6)
    records_small = augment(small, lambda xs: xs, grid_small)
    count_ok = len(records_small) == 50 * len(grid_small)

    big = gm.sample_dataset(gen, 100_000, seed=64)
    grid = cutoff_grid_from_values(np.sort(big.x), 200)
    records = augment(big, lambda xs: xs, grid)
    count_ok = count_ok and len(records) == 100_000 * 200
    surface = fit_rejection_surface(records, NuBinning.equal_width(1.0, 10.0, 1))
    sup = 0.0
    for y in (0, 1):
        lam = np.sort(big.x[big.y == y])
        ecdf = np.arange(1, len(lam) + 1) / len(lam)
        one_bin = np.full(len(lam), 5.0)  # the single bin holds every nu
        fitted = surface.rejection_probability_batch(lam, np.full(len(lam), y), one_bin)
        sup = max(sup, float(np.max(np.abs(fitted - ecdf))))
    ok = pav_ok and count_ok and sup <= 0.01
    report(
        6,
        ok,
        f"PAV hand case {np.round(pav, 3).tolist()}, augmentation count B*K exact, "
        f"single-bin K=200 B=1e5 fit vs empirical CDF sup-distance {sup:.4f} <= 0.01",
    )


def test_criterion_7_pit_diagnostics():
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=2_000_000,
        n_evaluation=40_000,
        nu_bins=20,
        cutoff_grid_size=400,
        seed=0,
    )
    result = harness.run_pit_diagnostics(cfg, harness.fit_pipeline(cfg), n_param_bins=2)
    aware = result["nuisance_aware"]
    flat = result["nuisance_ignoring"]
    aware_ok = all(r["within_band"] for r in aware)
    flat_failures = sum(not r["within_band"] for r in flat)
    ok = len(aware) == 4 and aware_ok and flat_failures >= 2
    report(
        7,
        ok,
        f"nuisance-aware surface within the 1.36/sqrt(n) band in all 4 parameter bins "
        f"(KS {[round(r['ks_distance'], 4) for r in aware]}); the one-bin surface fails "
        f"{flat_failures}/4 bins",
    )


def test_criterion_8_baseline_failure_reproduction():
    from naps.prediction_sets import ClassConditionalBaseline, PlugInConditionalBaseline

    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.uniform_prior(),
        n_calibration=200_000,
        n_evaluation=50_000,
        nu_bins=20,
        seed=2,
    )
    pipeline = harness.fit_pipeline(cfg)
    model = pipeline.model
    gen = cfg.generative("train")
    cal = cfg.calibration_set()
    ev = gm.sample_dataset(gen, cfg.n_evaluation, cfg.seed, stream_base=harness.STREAM_EVALUATION)

    alpha = 0.1
    cc = ClassConditionalBaseline.fit(*pipeline.calibration_posterior)  # the posterior of cal
    p1_ev = model.posterior1(ev.x)
    i0, i1 = cc.include_batch(p1_ev, alpha)
    cov0 = float(np.mean(i0[ev.y == 0]))
    cov1 = float(np.mean(i1[ev.y == 1]))
    se_class = math.sqrt(alpha * (1 - alpha) / min((ev.y == 0).sum(), (ev.y == 1).sum()))
    per_class_ok = min(cov0, cov1) >= 1 - alpha - 3 * se_class

    n_fix = 20_000
    at_nu1 = gm.analytic_config(0.0, gm.point_mass_prior(1.0))
    xs_nu1 = gm.sample_dataset(at_nu1, n_fix, cfg.seed, stream_base=1 << 20).x
    i0_nu1, _ = cc.include_batch(model.posterior1(xs_nu1), alpha)
    cov_nu1 = float(np.mean(i0_nu1))
    se_fix = math.sqrt(alpha * (1 - alpha) / n_fix)
    nu1_fails = cov_nu1 < 1 - alpha - 3 * se_fix

    plug = PlugInConditionalBaseline.fit(model, cal, pipeline.binning)
    pi0, pi1 = plug.include_batch(model, ev.x, alpha)
    cov_plug = float(np.mean(np.where(ev.y == 1, pi1, pi0)))
    se_marg = math.sqrt(alpha * (1 - alpha) / len(ev))
    plug_fails = cov_plug < 1 - alpha - 3 * se_marg

    ok = per_class_ok and nu1_fails and plug_fails
    report(
        8,
        ok,
        f"class-conditional per-class coverage ({cov0:.4f}, {cov1:.4f}) >= 1-alpha-3se under the "
        f"train prior, but nu=1 conditional coverage {cov_nu1:.4f} << {1 - alpha}; posterior-mean "
        f"plug-in marginal coverage {cov_plug:.4f} below nominal by "
        f"{(1 - alpha - cov_plug) / se_marg:.1f} standard errors",
    )


def test_criterion_9_fpr_tpr_control():
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=200_000,
        n_evaluation=10_000,
        nu_bins=20,
        seed=2,
    )
    pipeline = harness.fit_pipeline(cfg)
    model = pipeline.model
    alpha = 0.05
    gamma = alpha * 0.01
    provider = OracleQuantileProvider(gamma=gamma, distribution=cfg.target_prior)
    # the quantile set is valid exactly on its own interval, which is where
    # the per-nu control guarantee of the data-dependent cutoff applies
    (lo, hi), = provider.region(0).intervals
    nu_grid = np.linspace(lo, hi, 10)
    n_pt = 20_000
    se = math.sqrt(alpha * (1 - alpha) / n_pt)

    cut_fpr, cut_tpr = {}, {}
    for y in (0, 1):
        fpr_req = CutoffRequest(null_label=y, alpha=alpha, gamma=gamma, mode="fpr")
        cut_fpr[y] = cutoff_for_region(pipeline.surfaces[y], provider.region(y), fpr_req).cutoff
        tpr_req = CutoffRequest(null_label=y, alpha=alpha, gamma=gamma, mode="tpr")
        cut_tpr[y] = cutoff_for_region(pipeline.surfaces[y], provider.region(1 - y), tpr_req).cutoff

    worst_type1, worst_recall = -math.inf, math.inf
    for y in (0, 1):
        prior_y = 0.5
        for k, nu in enumerate(nu_grid):
            fixed = gm.analytic_config(float(y), gm.point_mass_prior(nu))
            xs = gm.sample_dataset(fixed, n_pt, cfg.seed, stream_base=(1 << 21) + 16 * k + 2 * y).x
            p1 = np.asarray(model.posterior1(xs))
            tau = bayes_factor_from_posterior(p1 if y == 1 else 1 - p1, prior_y)[0]
            worst_type1 = max(worst_type1, float(np.mean(tau <= cut_fpr[y])))
            alt = gm.analytic_config(float(1 - y), gm.point_mass_prior(nu))
            xs_alt = gm.sample_dataset(alt, n_pt, cfg.seed, stream_base=(1 << 22) + 16 * k + 2 * y).x
            p1a = np.asarray(model.posterior1(xs_alt))
            tau_alt = bayes_factor_from_posterior(p1a if y == 1 else 1 - p1a, prior_y)[0]
            worst_recall = min(worst_recall, float(np.mean(tau_alt <= cut_tpr[y])))
    ok = worst_type1 <= alpha + 3 * se and worst_recall >= alpha - 3 * se
    report(
        9,
        ok,
        f"oracle-provider cutoffs on a 10-point nu grid: worst type-I error {worst_type1:.4f} "
        f"<= {alpha + 3 * se:.4f}, worst recall {worst_recall:.4f} >= {alpha - 3 * se:.4f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=20_000,
        n_evaluation=4_000,
        alphas=(0.1, 0.2),
        nu_bins=10,
        cutoff_grid_size=100,
        seed=29,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(files.jsonable(cfg), indent=2, sort_keys=True))

    def read_all(directory):
        return {
            name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))
        }

    commands = {
        "simulate": ["simulate"],
        "fit": ["fit"],
        "evaluate": ["evaluate"],
        "diagnose": ["diagnose"],
        "invariance": ["invariance"],
        "sweep-gamma": ["sweep-gamma", "--alpha", "0.05"],
    }
    all_ok = True
    for name, argv in commands.items():
        outs = []
        for run_id in ("a", "b"):
            out = str(tmp_path / f"{name}-{run_id}")
            code = cli.main(argv + ["--config", str(config_path), "--seed", "7", "--out", out])
            assert code == 0
            outs.append(read_all(out))
        all_ok = all_ok and outs[0] == outs[1]

    # thread-count independence: the evaluate report is byte-identical under
    # different BLAS/OpenMP thread settings
    reports = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"threads-{threads}")
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "naps.cli", "evaluate", "--config", str(config_path),
             "--seed", "7", "--out", out],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(open(os.path.join(out, "report.json"), "rb").read())
    all_ok = all_ok and reports[0] == reports[1]
    report(10, all_ok, "every CLI subcommand byte-reproducible under a fixed seed, "
                       "evaluate report identical across thread counts")
