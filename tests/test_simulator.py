import math
from dataclasses import replace

import numpy as np
import pytest

from oracle import sample_network, sample_sir
from vanetcov import NetworkConfig, validate
from vanetcov.analytic import (
    NU,
    dl_coverage,
    effective_rate_with_error,
    p_assoc_sl,
    sl_coverage,
)
from vanetcov.simulator import (
    DOWNLINK,
    SIDELINK,
    TOTAL,
    DegenerateRealizationError,
    SimPlan,
    _resolve_sir,
    _segment_starts,
    default_window_radius,
    draw_sir_samples,
    estimate_association,
    estimate_coverage_grid,
    estimate_effective_rate,
    estimate_voronoi_area_moment,
    estimate_zero_cell_areas,
    estimate_zero_cell_load,
    far_field_mean,
    make_plan,
)

REF_CFG = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0,
                                 lambda_u=200.0, rho=0.05, alpha=3.0,
                                 p_b=1.0, p_v=1.0, epsilon=1.0))


def _manual_realization(vehicle_dists=(), bs_dists=()):
    """Vehicle and base-station positions on the positive x axis."""
    return ([(d, 0.0) for d in vehicle_dists], [(d, 0.0) for d in bs_dists])


def test_plan_floor_and_defaults():
    plan = make_plan(REF_CFG, 1000, seed=1)
    assert plan.window_radius == pytest.approx(default_window_radius(REF_CFG))
    assert plan.window_radius >= 10 * REF_CFG.rho
    assert plan.window_radius >= 10 / math.sqrt(math.pi * REF_CFG.lambda_b)
    with pytest.raises(ValueError, match="bias floor"):
        make_plan(REF_CFG, 1000, seed=1, window_radius=0.5)
    with pytest.raises(ValueError):
        SimPlan(window_radius=1.0, n_samples=0, seed=1)


def test_sample_sir_association_rules():
    rng = np.random.default_rng(0)
    # vehicle inside rho wins over any base station
    real = _manual_realization(vehicle_dists=[0.01], bs_dists=[0.2, 0.5])
    s = sample_sir(*real, REF_CFG, rng)
    assert s.association == SIDELINK and s.serving_distance == pytest.approx(0.01)
    # nearest of several in-range vehicles serves
    real = _manual_realization(vehicle_dists=[0.04, 0.02], bs_dists=[0.2])
    s = sample_sir(*real, REF_CFG, rng)
    assert s.association == SIDELINK and s.serving_distance == pytest.approx(0.02)
    # otherwise nearest base station
    real = _manual_realization(vehicle_dists=[0.2], bs_dists=[0.3, 0.1])
    s = sample_sir(*real, REF_CFG, rng)
    assert s.association == DOWNLINK and s.serving_distance == pytest.approx(0.1)


def test_sample_sir_degenerate_and_infinite():
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateRealizationError):
        sample_sir(*_manual_realization(), REF_CFG, rng)
    lone = sample_sir(*_manual_realization(bs_dists=[0.2]), REF_CFG, rng)
    assert lone.sir == math.inf  # empty interference sentinel


def test_association_estimates_complementary_and_exact_zero():
    plan = make_plan(REF_CFG, 50_000, seed=3)
    sl, dl = estimate_association(REF_CFG, plan)
    assert sl.mean + dl.mean == 1.0
    assert sl.n_samples == dl.n_samples == 50_000
    cfg0 = validate(replace(REF_CFG, rho=0.0))
    sl0, dl0 = estimate_association(cfg0, make_plan(cfg0, 10_000, seed=3))
    assert sl0.mean == 0.0 and dl0.mean == 1.0


def test_association_matches_analytic():
    plan = make_plan(REF_CFG, 400_000, seed=101)
    sl, _ = estimate_association(REF_CFG, plan)
    want = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    assert abs(sl.mean - want) < 3 * sl.std_error


def test_association_reproducible():
    plan = make_plan(REF_CFG, 20_000, seed=77)
    a = estimate_association(REF_CFG, plan)
    b = estimate_association(REF_CFG, plan)
    assert a == b


@pytest.fixture(scope="module")
def fig_samples():
    plan = make_plan(REF_CFG, 60_000, seed=2026)
    return plan, draw_sir_samples(REF_CFG, plan)


def test_coverage_cross_validates(fig_samples):
    plan, batch = fig_samples
    grid = estimate_coverage_grid(REF_CFG, (0.1, 1.0, 10.0), plan, samples=batch)
    for tau in (0.1, 1.0, 10.0):
        for link, ana in ((DOWNLINK, dl_coverage(REF_CFG, tau).value),
                          (SIDELINK, sl_coverage(REF_CFG, tau).value)):
            est = grid[(link, tau)]
            assert abs(est.mean - ana) < 3 * est.std_error + 1e-6, (tau, link)


def test_coverage_decomposition_and_monotonicity(fig_samples):
    plan, batch = fig_samples
    taus = [0.1, 0.5, 1.0, 5.0]
    grid = estimate_coverage_grid(REF_CFG, taus, plan, samples=batch)
    prev = 1.0
    for tau in taus:
        sl = grid[(SIDELINK, tau)].mean
        dl = grid[(DOWNLINK, tau)].mean
        tot = grid[(TOTAL, tau)].mean
        assert tot == pytest.approx(sl + dl, abs=1e-15)
        assert tot <= prev + 1e-15  # common samples make this exact
        prev = tot


def test_joint_coverage_below_association(fig_samples):
    plan, batch = fig_samples
    sl_assoc = float(np.mean(batch.is_sl))
    grid = estimate_coverage_grid(REF_CFG, [0.2], plan, samples=batch)
    assert grid[(SIDELINK, 0.2)].mean <= sl_assoc
    assert grid[(DOWNLINK, 0.2)].mean <= 1.0 - sl_assoc


def test_coverage_rejects_bad_tau(fig_samples):
    plan, batch = fig_samples
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        estimate_coverage_grid(REF_CFG, [1.0, -1.0], plan, samples=batch)
    # tau = 0 asks for SIR > 0: the association fractions, exactly
    grid = estimate_coverage_grid(REF_CFG, [0.0], plan, samples=batch)
    n = len(batch)
    assert grid[(SIDELINK, 0.0)].mean == np.count_nonzero(batch.is_sl) / n
    assert grid[(DOWNLINK, 0.0)].mean == np.count_nonzero(~batch.is_sl) / n


def test_huge_tau_estimate_near_zero(fig_samples):
    plan, batch = fig_samples
    est = estimate_coverage_grid(REF_CFG, [1e9], plan, samples=batch)[(TOTAL, 1e9)]
    assert est.mean < 1e-3


def test_sir_draws_reproducible():
    plan = make_plan(REF_CFG, 5000, seed=404)
    a = draw_sir_samples(REF_CFG, plan)
    b = draw_sir_samples(REF_CFG, plan)
    assert np.array_equal(a.sir, b.sir) and np.array_equal(a.is_sl, b.is_sl)


def test_window_doubling_guard():
    # with far-field compensation the truncation residual is far below the
    # Monte Carlo resolution: doubling the window moves nothing
    n = 40_000
    base = make_plan(REF_CFG, n, seed=55)
    wide = make_plan(REF_CFG, n, seed=56,
                     window_radius=2 * base.window_radius)
    tau = 1.0
    est_a = estimate_coverage_grid(REF_CFG, [tau], base)[(TOTAL, tau)]
    est_b = estimate_coverage_grid(REF_CFG, [tau], wide)[(TOTAL, tau)]
    combined = math.hypot(est_a.std_error, est_b.std_error)
    assert abs(est_a.mean - est_b.mean) < 2 * combined


def test_far_field_mean_value():
    # closed form: 2 pi (lambda_b + eta lambda_l mu) R^(2-a) / (a-2)
    want = 2 * math.pi * (5.0 + 25.0) / 2.5
    assert far_field_mean(REF_CFG, 2.5) == pytest.approx(want, rel=1e-12)


def test_far_field_mean_matches_sampled_exterior():
    # Campbell's formula over the window exterior, checked against a wide
    # sampled annulus (truncated at R_out, hence the small deficit allowance)
    rng = np.random.default_rng(515)
    R_in, R_out, n_rep = 2.5, 50.0, 200
    tot = 0.0
    for _ in range(n_rep):
        vehicles, bs = sample_network(REF_CFG, R_out, rng)
        d = np.hypot(*np.concatenate([vehicles, bs]).T)
        d = d[d > R_in]
        tot += float(np.sum(d ** -REF_CFG.alpha))
    sampled = tot / n_rep
    want = far_field_mean(REF_CFG, R_in) - far_field_mean(REF_CFG, R_out)
    assert sampled == pytest.approx(want, rel=0.05)


def test_compensation_toggle_changes_sir():
    rng = np.random.default_rng(9)
    n, R = 2000, default_window_radius(REF_CFG)
    area = math.pi * R * R
    veh_starts = _segment_starts(rng.poisson(REF_CFG.lambda_l * REF_CFG.mu * area, n))
    bs_starts = _segment_starts(rng.poisson(REF_CFG.lambda_b * area, n))
    d2_v, d2_b = R * R * rng.random(veh_starts[-1]), R * R * rng.random(bs_starts[-1])
    fade_v, fade_b = rng.standard_exponential(d2_v.size), rng.standard_exponential(d2_b.size)

    def resolve(m_far):
        # _resolve_sir overwrites its distance and fade arrays
        return _resolve_sir(REF_CFG, m_far, veh_starts, d2_v.copy(), fade_v.copy(),
                            bs_starts, d2_b.copy(), fade_b.copy())
    on_sl, on_sir, _ = resolve(far_field_mean(REF_CFG, R))
    off_sl, off_sir, _ = resolve(0.0)
    assert np.array_equal(on_sl, off_sl)
    assert np.all(on_sir <= off_sir)  # extra interference can only lower SIR


def test_voronoi_area_moment_scaling():
    plan = SimPlan(window_radius=1.0, n_samples=4000, seed=12)
    est = estimate_voronoi_area_moment(4.0, plan)
    want = NU / 16.0
    assert abs(est.mean - want) < 3 * est.std_error
    with pytest.raises(ValueError):
        estimate_voronoi_area_moment(0.0, plan)


def test_zero_cell_areas_match_formula():
    plan = SimPlan(window_radius=3.0, n_samples=2500, seed=31)
    est_in, est_out = estimate_zero_cell_areas(REF_CFG, plan)
    p_sl = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    want_in = NU / REF_CFG.lambda_b * p_sl
    want_out = NU / REF_CFG.lambda_b * (1 - p_sl)
    assert abs(est_in.mean - want_in) < 3 * est_in.std_error
    assert abs(est_out.mean - want_out) < 3 * est_out.std_error


def test_zero_cell_load_formula_and_linearity():
    plan = SimPlan(window_radius=3.0, n_samples=3000, seed=37)
    est = estimate_zero_cell_load(REF_CFG, plan)
    p_dl = 1 - p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    want = REF_CFG.lambda_u * NU / REF_CFG.lambda_b * p_dl
    assert abs(est.mean - want) < 3 * est.std_error
    cfg2 = validate(replace(REF_CFG, lambda_u=400.0))
    est2 = estimate_zero_cell_load(cfg2, SimPlan(window_radius=3.0,
                                                 n_samples=3000, seed=38))
    assert abs(est2.mean - 2 * want) < 3 * est2.std_error


def test_zero_cell_load_no_roads():
    # with an empty vehicle region the load is the plain zero-cell user count
    cfg = validate(replace(REF_CFG, lambda_l=0.0, mu=0.0, lambda_u=6.4,
                           lambda_b=5.0))
    plan = SimPlan(window_radius=3.0, n_samples=4000, seed=41)
    est = estimate_zero_cell_load(cfg, plan)
    want = cfg.lambda_u * NU / cfg.lambda_b
    assert abs(est.mean - want) < 3 * est.std_error


def test_effective_rate_matches_analytic():
    plan = make_plan(REF_CFG, 40_000, seed=61)
    est = estimate_effective_rate(REF_CFG, plan, load_replications=2500)
    want, _ = effective_rate_with_error(REF_CFG)
    assert abs(est.mean - want) < 3 * est.std_error
    assert est.std_error > 0


def test_effective_rate_classic_no_roads():
    cfg = validate(replace(REF_CFG, lambda_l=0.0, mu=0.0, alpha=4.0))
    plan = make_plan(cfg, 40_000, seed=67)
    est = estimate_effective_rate(cfg, plan, load_replications=2500)
    want, _ = effective_rate_with_error(cfg)
    assert abs(est.mean - want) < 3 * est.std_error

