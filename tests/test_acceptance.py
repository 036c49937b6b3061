"""Acceptance gate: association, coverage, zero-cell, and rate metrics all
cross-validated between the Monte Carlo and closed-form pipelines, plus the
qualitative sweep shapes and the invariant suite.  One printed line per
criterion (visible with pytest -s)."""
import math
from dataclasses import replace

import numpy as np
import pytest

from vanetcov import NetworkConfig, validate
from vanetcov.analytic import (
    NU,
    dl_coverage,
    effective_rate_with_error,
    p_assoc_sl,
    sl_coverage,
    total_rate_with_error,
)
from vanetcov.simulator import (
    DOWNLINK,
    SIDELINK,
    TOTAL,
    SimPlan,
    draw_sir_samples,
    estimate_association,
    estimate_coverage_grid,
    estimate_effective_rate,
    estimate_voronoi_area_moment,
    estimate_zero_cell_areas,
    make_plan,
)

BASE = dict(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=200.0, rho=0.05,
            alpha=3.0, p_b=1.0, p_v=1.0, epsilon=1.0, w_s=0.5, w_d=0.5)

REF_CFG = validate(NetworkConfig(**BASE))

TAU_GRID = tuple(np.logspace(-1.0, 1.0, 7))

COVERAGE_CONFIGS = {
    "ll5_mu5_rho05": REF_CFG,
    "ll5_mu5_rho15": validate(NetworkConfig(**{**BASE, "rho": 0.15})),
    "ll2_mu1_rho05": validate(NetworkConfig(**{**BASE, "lambda_l": 2.0, "mu": 1.0})),
}

COVERAGE_SAMPLES = 200_000


@pytest.fixture(scope="module")
def coverage_runs():
    """Shared Monte Carlo draws for the coverage cross-validation configs."""
    runs = {}
    for i, (name, cfg) in enumerate(COVERAGE_CONFIGS.items()):
        plan = make_plan(cfg, COVERAGE_SAMPLES, seed=614_000 + i)
        batch = draw_sir_samples(cfg, plan)
        grid = estimate_coverage_grid(cfg, TAU_GRID, plan, samples=batch)
        runs[name] = (cfg, plan, batch, grid)
    return runs


def test_criterion_1_association_cross_validation():
    worst_z = worst_gap = 0.0
    for i, lambda_l in enumerate((2.0, 5.0, 10.0)):
        for j, mu in enumerate((1.0, 5.0, 20.0)):
            cfg = validate(NetworkConfig(**{**BASE, "lambda_l": lambda_l, "mu": mu}))
            plan = make_plan(cfg, 1_000_000, seed=101_000 + 10 * i + j)
            sl, dl = estimate_association(cfg, plan)
            want = p_assoc_sl(lambda_l, mu, cfg.rho)
            gap = abs(sl.mean - want)
            assert gap < 3 * sl.std_error, (lambda_l, mu, gap / sl.std_error)
            assert gap < 0.005
            assert sl.mean + dl.mean == 1.0
            worst_z = max(worst_z, gap / sl.std_error)
            worst_gap = max(worst_gap, gap)
    print(f"ACCEPTANCE 1 PASS: association 3x3 grid, worst |z|={worst_z:.2f}, "
          f"worst |gap|={worst_gap:.2e}")


def test_criterion_2_dense_road_asymptote():
    target = 1.0 - math.exp(-0.5)
    cfg = validate(NetworkConfig(**{**BASE, "mu": 1000.0}))
    ana = p_assoc_sl(5.0, 1000.0, 0.05)
    assert abs(ana - target) < 1e-3
    plan = make_plan(cfg, 4_000_000, seed=202_020)
    sl, _ = estimate_association(cfg, plan)
    assert abs(sl.mean - target) < 1e-3
    print(f"ACCEPTANCE 2 PASS: asymptote analytic gap={abs(ana-target):.1e}, "
          f"mc gap={abs(sl.mean-target):.1e}")


def test_criterion_3_classic_coverage_oracle():
    cfg = validate(NetworkConfig(**{**BASE, "lambda_l": 0.0, "mu": 0.0,
                                    "alpha": 4.0}))
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        # independent closed form, no shared code with the coverage integrals
        want = 1.0 / (1.0 + math.sqrt(tau)
                      * (math.pi / 2 - math.atan(1.0 / math.sqrt(tau))))
        got = dl_coverage(cfg, tau).value
        assert abs(got - want) < 1e-4
        worst = max(worst, abs(got - want))
    assert abs(dl_coverage(cfg, 1.0).value - 0.56010) < 1e-4
    print(f"ACCEPTANCE 3 PASS: classic oracle, worst gap={worst:.1e}")


def test_criterion_4_coverage_cross_validation(coverage_runs):
    worst_z = 0.0
    rows = 0
    for name, (cfg, plan, batch, grid) in coverage_runs.items():
        for tau in TAU_GRID:
            for link, ana in ((DOWNLINK, dl_coverage(cfg, tau)),
                              (SIDELINK, sl_coverage(cfg, tau))):
                est = grid[(link, float(tau))]
                gap = abs(est.mean - ana.value)
                tol = 3 * est.std_error + ana.est_abs_error
                assert gap <= tol, (name, link, tau, gap, tol)
                if est.std_error > 0:
                    worst_z = max(worst_z, gap / est.std_error)
                rows += 1
    print(f"ACCEPTANCE 4 PASS: {rows} coverage validation rows, "
          f"worst |z|={worst_z:.2f}")


def test_window_bias_bound_below_a_tenth_of_the_standard_error(coverage_runs):
    # every coverage row states the bias its window leaves; at the default
    # window it stays below a tenth of the row's standard error
    worst = 0.0
    for name, (cfg, plan, batch, grid) in coverage_runs.items():
        for tau in TAU_GRID:
            for link in (SIDELINK, DOWNLINK, TOTAL):
                est = grid[(link, float(tau))]
                assert 0.0 <= est.bias_bound < 0.1 * est.std_error, (name, link, tau)
                worst = max(worst, est.bias_bound / est.std_error)
    print(f"window bias bound: worst {worst:.4f} standard errors")


def test_window_bias_bound_vanishes_at_tau_zero_and_grows_as_the_window_shrinks(
        coverage_runs):
    for i, (name, (cfg, plan, batch, grid)) in enumerate(coverage_runs.items()):
        # at tau = 0 only the degenerate resample's exp(-pi lambda_b R^2) is left
        conditioning = math.exp(-math.pi * cfg.lambda_b * plan.window_radius ** 2)
        at_zero = estimate_coverage_grid(cfg, [0.0], plan, samples=batch)
        for link in (SIDELINK, DOWNLINK):
            assert at_zero[(link, 0.0)].bias_bound == conditioning, (name, link)
        # halving a window of 2R to R raises the bound about R^(2 alpha - 3)
        # = 8-fold at alpha = 3
        wide = make_plan(cfg, 4096, seed=615_000 + i,
                         window_radius=2 * plan.window_radius)
        wide_grid = estimate_coverage_grid(cfg, TAU_GRID, wide)
        for tau in TAU_GRID:
            for link in (SIDELINK, DOWNLINK, TOTAL):
                key = (link, float(tau))
                assert grid[key].bias_bound > 4 * wide_grid[key].bias_bound, (name, key)


def test_criterion_5_decomposition_identity(coverage_runs):
    for name, (cfg, plan, batch, grid) in coverage_runs.items():
        n = len(batch)
        for tau in TAU_GRID:
            sl = grid[(SIDELINK, float(tau))]
            dl = grid[(DOWNLINK, float(tau))]
            tot = grid[(TOTAL, float(tau))]
            # same samples: the event counts decompose exactly
            assert round(tot.mean * n) == round(sl.mean * n) + round(dl.mean * n)
            assert tot.mean == pytest.approx(sl.mean + dl.mean, abs=1e-12)
            ana_sl = sl_coverage(cfg, tau)
            ana_dl = dl_coverage(cfg, tau)
            ana_tot = ana_sl.value + ana_dl.value
            assert ana_tot <= 1.0 + ana_sl.est_abs_error + ana_dl.est_abs_error
            gap = abs(tot.mean - ana_tot)
            tol = 3 * tot.std_error + ana_sl.est_abs_error + ana_dl.est_abs_error
            assert gap <= tol, (name, tau)
    print("ACCEPTANCE 5 PASS: total = SL + DL exactly in MC, within quadrature "
          "ledger analytically")


def test_criterion_6_voronoi_second_moment_oracle():
    plan = SimPlan(window_radius=1.0, n_samples=100_000, seed=660_001)
    est = estimate_voronoi_area_moment(1.0, plan)
    gap = abs(est.mean - 1.28)
    assert gap <= 0.02, (est.mean, est.std_error)
    print(f"ACCEPTANCE 6 PASS: cell-area second moment {est.mean:.4f} "
          f"+- {est.std_error:.4f} vs 1.28 (gap {gap:.3f})")


def test_criterion_7_zero_cell_areas():
    plan = SimPlan(window_radius=3.0, n_samples=20_000, seed=770_007)
    est_in, est_out = estimate_zero_cell_areas(REF_CFG, plan)
    p_sl = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    want_in = NU / REF_CFG.lambda_b * p_sl
    want_out = NU / REF_CFG.lambda_b * (1.0 - p_sl)
    z_in = abs(est_in.mean - want_in) / est_in.std_error
    z_out = abs(est_out.mean - want_out) / est_out.std_error
    assert z_in < 3 and z_out < 3, (z_in, z_out)
    print(f"ACCEPTANCE 7 PASS: zero-cell areas |z_in|={z_in:.2f}, "
          f"|z_out|={z_out:.2f}")


def test_criterion_8_effective_rate():
    ana, ana_err = effective_rate_with_error(REF_CFG)
    plan = make_plan(REF_CFG, 200_000, seed=880_008)
    est = estimate_effective_rate(REF_CFG, plan, load_replications=10_000)
    gap = abs(est.mean - ana)
    assert gap <= 3 * est.std_error + ana_err, (gap, est.std_error)
    doubled, _ = effective_rate_with_error(validate(replace(REF_CFG, lambda_u=400.0)))
    assert doubled == pytest.approx(ana / 2, rel=1e-12)
    print(f"ACCEPTANCE 8 PASS: effective rate mc={est.mean:.6f} "
          f"ana={ana:.6f} |z|={gap/est.std_error:.2f}; exact halving holds")


def test_criterion_9_qualitative_sweep_shapes():
    # Utility rises with the vehicle power ratio for every sidelink weight.
    # The sweep varies w_s with w_d held at its configured value (sweep
    # semantics: one field varies, the rest keep their config values); the
    # broadcast radius is 200 m, the upper end of the safety-range setups.
    etas = [round(0.1 * k, 1) for k in range(1, 11)]
    weights = [round(0.1 * k, 1) for k in range(1, 10)]
    w_d = 0.5
    sl_vals, rate_vals = [], []
    for eta in etas:
        cfg = validate(NetworkConfig(**{**BASE, "rho": 0.2, "p_v": eta}))
        sl_vals.append(sl_coverage(cfg, 2.0 ** cfg.epsilon - 1.0).value)
        rate_vals.append(effective_rate_with_error(cfg)[0])
    for w_s in weights:
        utilities = [w_s * s + w_d * t for s, t in zip(sl_vals, rate_vals)]
        assert all(b >= a for a, b in zip(utilities, utilities[1:])), w_s
    # steeper utility growth for heavier sidelink weighting
    gain = [w * (sl_vals[-1] - sl_vals[0]) + w_d * (rate_vals[-1] - rate_vals[0])
            for w in weights]
    assert all(b > a for a, b in zip(gain, gain[1:]))
    # lighter load (fewer users per base station) means more total rate
    rates = [total_rate_with_error(validate(NetworkConfig(**{**BASE, "lambda_u": 5.0 * r})))[0]
             for r in (20.0, 100.0, 200.0)]
    assert rates[0] > rates[1] > rates[2]
    print(f"ACCEPTANCE 9 PASS: utility non-decreasing in power ratio for "
          f"w_s in {{0.1..0.9}}; total rate ordering {rates[0]:.4f} > "
          f"{rates[1]:.4f} > {rates[2]:.4f}")


def test_criterion_10_invariant_suite(coverage_runs):
    cfg, plan, batch, grid = coverage_runs["ll5_mu5_rho05"]
    # tau-monotonicity on common random numbers, exact
    for link in (SIDELINK, DOWNLINK, TOTAL):
        series = [grid[(link, float(t))].mean for t in TAU_GRID]
        assert all(a >= b for a, b in zip(series, series[1:]))
    # analytic monotonicity on the same grid
    ana_dl = [dl_coverage(cfg, t).value for t in TAU_GRID]
    ana_sl = [sl_coverage(cfg, t).value for t in TAU_GRID]
    assert all(a >= b - 1e-9 for a, b in zip(ana_dl, ana_dl[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(ana_sl, ana_sl[1:]))
    # joint <= marginal, both pipelines
    p_sl_mc = float(np.mean(batch.is_sl))
    p_sl_ana = p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho)
    for tau in TAU_GRID:
        assert grid[(SIDELINK, float(tau))].mean <= p_sl_mc
        assert grid[(DOWNLINK, float(tau))].mean <= 1.0 - p_sl_mc
        assert sl_coverage(cfg, tau).value <= p_sl_ana + 1e-8
        assert dl_coverage(cfg, tau).value <= (1.0 - p_sl_ana) + 1e-8
    # tau -> 0 limits recover the association probabilities
    assert abs(sl_coverage(cfg, 1e-9).value - p_sl_ana) < 1e-5
    assert abs(dl_coverage(cfg, 1e-9).value - (1 - p_sl_ana)) < 1e-5
    # probability bounds
    for tau in TAU_GRID:
        for link in (SIDELINK, DOWNLINK, TOTAL):
            assert 0.0 <= grid[(link, float(tau))].mean <= 1.0
    # seed reproducibility, bit-identical
    small = make_plan(cfg, 5000, seed=1001)
    again = make_plan(cfg, 5000, seed=1001)
    a = draw_sir_samples(cfg, small)
    b = draw_sir_samples(cfg, again)
    assert np.array_equal(a.sir, b.sir)
    est_a = estimate_association(cfg, small)
    est_b = estimate_association(cfg, again)
    assert est_a == est_b
    print("ACCEPTANCE 10 PASS: monotonicity, dominance, small-tau limits, "
          "bounds, reproducibility")
