import math
import os
from dataclasses import replace

import numpy as np
import pytest

from vanetcov import NetworkConfig, analytic, cli, validate
from vanetcov.analytic import (
    NU,
    AnalyticResult,
    _bs_tail_coeff,
    _c_alpha,
    _gl01,
    _half_power,
    _interference_tail,
    _p_assoc_sl,
    _rate_numerator_of,
    _rate_tail,
    _road_exponents,
    _RoadSumTable,
    _road_sum_table,
    _table_exponents,
    _tail_grid,
    _unit_road_exponents,
    dl_coverage,
    effective_rate_with_error,
    mean_zero_cell_areas,
    network_utility_with_error,
    nu,
    p_assoc_sl,
    sl_coverage,
    total_rate_with_error,
)
from vanetcov.quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate

REF_CFG = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0,
                                 lambda_u=200.0, rho=0.05, alpha=3.0,
                                 p_b=1.0, p_v=1.0, epsilon=1.0))

# Frozen against an independent nested scipy.integrate.quad implementation of
# the same integrals (see _brute_dl_coverage below); the two paths agreed to
# 2e-10 when these were generated.
BRUTE_FROZEN = {
    ("dl", 0.3): 0.169705650690,
    ("dl", 1.0): 0.081973774878,
    ("sl", 0.3): 0.131402511648,
    ("sl", 1.0): 0.108284916686,
}


def effective_rate(cfg):
    return effective_rate_with_error(cfg)[0]


def network_utility(cfg):
    return network_utility_with_error(cfg)[0]


def total_rate(cfg):
    return total_rate_with_error(cfg)[0]


def _cli_rows(cfg, metric, taus=()):
    """The CLI's analytic results for one config."""
    req = cli.RunRequest(config_path="", mode="analytic", metric=metric,
                         output_path="", tau_grid=taus)
    return cli._analytic_results(cfg, req)


def total_coverage(cfg, tau):
    ((_, _, result),) = _cli_rows(cfg, "total_cov", (tau,))
    return result.value


def classic_rayleigh_coverage(tau):
    """Interference-limited nearest-server coverage, path-loss exponent 4."""
    return 1.0 / (1.0 + math.sqrt(tau) * (math.pi / 2 - math.atan(1.0 / math.sqrt(tau))))


def test_association_edge_cases():
    assert p_assoc_sl(5.0, 5.0, 0.0) == 0.0
    assert p_assoc_sl(0.0, 5.0, 0.05) == 0.0
    assert p_assoc_sl(5.0, 0.0, 0.05) == 0.0
    with pytest.raises(ValueError):
        p_assoc_sl(5.0, 5.0, -0.1)


def test_association_complementarity():
    for mu in (0.5, 2.0, 20.0):
        sl = p_assoc_sl(5.0, mu, 0.05)
        assert 0.0 < sl < 1.0
        rows = _cli_rows(validate(replace(REF_CFG, mu=mu)), "assoc")
        assert [r[0] for r in rows] == ["assoc_sl", "assoc_dl"]
        assert rows[0][2].value + rows[1][2].value == pytest.approx(1.0, abs=1e-15)


def test_association_dense_road_limit():
    # at very high vehicle density only the road-hit geometry remains
    got = p_assoc_sl(5.0, 1000.0, 0.05)
    assert abs(got - (1.0 - math.exp(-0.5))) < 1e-3


def test_association_monotone_in_mu():
    vals = [p_assoc_sl(5.0, mu, 0.05) for mu in (0.5, 1, 2, 5, 10, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_association_error_grows_with_looser_tolerance():
    # at rho = 1, mu = 20 the association integral's own error is visible
    base = _p_assoc_sl(0.5, 20.0, 1.0)
    loose = _p_assoc_sl(0.5, 20.0, 1.0, QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8))
    assert base.value == p_assoc_sl(0.5, 20.0, 1.0)
    assert 0.0 < base.est_abs_error < loose.est_abs_error
    assert abs(loose.value - base.value) <= loose.est_abs_error
    rows = _cli_rows(validate(replace(REF_CFG, lambda_l=0.5, mu=20.0, rho=1.0)), "assoc")
    assert [r[2].est_abs_error for r in rows] == [base.est_abs_error] * 2


def test_effective_rate_error_carries_the_association_error(monkeypatch):
    cfg = validate(replace(REF_CFG, mu=6.5))  # a key no other test caches
    base = effective_rate_with_error(cfg)
    exact = analytic._p_assoc_sl

    def inflated(*args):
        value, err = exact(*args)
        return AnalyticResult(value, err + 1e-3)
    monkeypatch.setattr(analytic, "_p_assoc_sl", inflated)
    moved = effective_rate_with_error(cfg)
    assert moved.value == base.value
    p_dl = 1.0 - p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho)
    assert moved.est_abs_error - base.est_abs_error == pytest.approx(
        base.value * 1e-3 / p_dl, rel=1e-9)


def test_bs_tail_coeff_closed_form_alpha4():
    for tau in (0.1, 1.0, 10.0, 250.0):
        got = 2.0 * _bs_tail_coeff(tau, 4.0, DEFAULT_SPEC).value
        want = math.sqrt(tau) * (math.pi / 2 - math.atan(1.0 / math.sqrt(tau)))
        assert got == pytest.approx(want, rel=1e-8)


def test_bs_full_coeff_closed_form():
    # the sidelink's coefficient amp^(2/alpha) C_alpha against a direct
    # quadrature of Int_0^inf amp s / (s^alpha + amp) ds
    from scipy.integrate import quad
    for amp, alpha in ((1.0, 3.0), (0.37, 3.5), (5.0, 4.0)):
        want = quad(lambda s: amp * s / (s ** alpha + amp), 0.0, np.inf,
                    epsabs=1e-13, epsrel=1e-12)[0]
        assert amp ** (2 / alpha) * _c_alpha(alpha) == pytest.approx(want, rel=1e-6)


def _bs_tail_oracle(tau, alpha):
    """C_alpha tau^(2/alpha) I_{tau/(1+tau)}(1 - 2/alpha, 2/alpha), the
    regularised incomplete beta taken from the side where it is small: the
    one-sided form loses every digit as tau/(1+tau) rounds towards 1."""
    from scipy.special import betainc
    p, q = 1.0 - 2.0 / alpha, 2.0 / alpha
    part = 1.0 - betainc(q, p, 1.0 / (1.0 + tau)) if tau >= 1.0 else betainc(p, q, tau / (1.0 + tau))
    return _c_alpha(alpha) * tau ** (2.0 / alpha) * part


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, QuadratureSpec(1e-9, 1e-13)],
                         ids=["default", "tight"])
@pytest.mark.parametrize("alpha", [2.05, 2.2, 2.3, 2.33, 2.5, 3.0, 3.7, 4.0, 6.0, 20.0, 60.0])
def test_bs_tail_coeff_within_its_error_of_the_beta_oracle(alpha, spec):
    # one vector integral for 63 thresholds spanning 31 decades
    taus = np.logspace(-12, 19, 63)
    values, errors = _bs_tail_coeff(taus, alpha, spec)
    want = np.array([_bs_tail_oracle(tau, alpha) for tau in taus])
    assert np.all(np.abs(values - want) <= errors), np.max(np.abs(values - want) / errors)


def test_bs_tail_coeff_is_zero_at_zero_threshold():
    values, errors = _bs_tail_coeff(np.array([0.0, 1.0]), 3.0, DEFAULT_SPEC)
    assert (values[0], errors[0]) == (0.0, 0.0) and values[1] > 0.0


def test_classic_coverage_oracle_no_roads():
    cfg = validate(replace(REF_CFG, lambda_l=0.0, mu=0.0, alpha=4.0))
    for tau in (0.1, 1.0, 10.0):
        res = dl_coverage(cfg, tau)
        assert abs(res.value - classic_rayleigh_coverage(tau)) < 1e-4
    assert abs(dl_coverage(cfg, 1.0).value - 0.56010) < 1e-4


def test_frozen_brute_force_values():
    for (link, tau), want in BRUTE_FROZEN.items():
        res = dl_coverage(REF_CFG, tau) if link == "dl" else sl_coverage(REF_CFG, tau)
        assert res.value == pytest.approx(want, abs=1e-7)
        assert abs(res.value - want) <= res.est_abs_error + 1e-9


def test_huge_tau_drives_coverage_to_zero():
    assert dl_coverage(REF_CFG, 1e9).value < 1e-6
    assert sl_coverage(REF_CFG, 1e9).value < 1e-6


def test_small_tau_recovers_association_split():
    sl = sl_coverage(REF_CFG, 1e-9).value
    dl = dl_coverage(REF_CFG, 1e-9).value
    want_sl = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    assert abs(sl - want_sl) < 1e-5
    assert abs(dl - (1.0 - want_sl)) < 1e-5


def test_sl_coverage_zero_radius():
    cfg = validate(replace(REF_CFG, rho=0.0))
    res = sl_coverage(cfg, 1.0)
    assert res.value == 0.0
    assert total_coverage(cfg, 1.0) == dl_coverage(cfg, 1.0).value


def test_coverage_monotone_in_tau():
    taus = np.logspace(-2, 2, 9)
    dl = [dl_coverage(REF_CFG, t).value for t in taus]
    sl = [sl_coverage(REF_CFG, t).value for t in taus]
    assert all(a >= b - 1e-9 for a, b in zip(dl, dl[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(sl, sl[1:]))


def test_joint_below_marginal():
    p_sl = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    for tau in (0.01, 0.3, 3.0):
        assert sl_coverage(REF_CFG, tau).value <= p_sl + 1e-8
        assert dl_coverage(REF_CFG, tau).value <= (1 - p_sl) + 1e-8


def test_probability_bounds():
    for tau in (0.05, 0.5, 5.0):
        for res in (dl_coverage(REF_CFG, tau), sl_coverage(REF_CFG, tau)):
            assert -res.est_abs_error <= res.value <= 1.0 + res.est_abs_error
        assert total_coverage(REF_CFG, tau) <= 1.0 + 1e-6


def test_total_coverage_is_component_sum():
    tau = 0.7
    total = total_coverage(REF_CFG, tau)
    assert total == dl_coverage(REF_CFG, tau).value + sl_coverage(REF_CFG, tau).value


@pytest.mark.parametrize("alpha", [3.7, 4.0])
def test_coverage_error_carries_the_base_station_coefficient(monkeypatch, alpha):
    # shifting the coefficient by its own error estimate must move the
    # downlink coverage by no more than the error it reported
    cfg = validate(replace(REF_CFG, alpha=alpha))
    base = dl_coverage(cfg, 1.0)
    exact = analytic._bs_tail_coeff

    def shifted(taus, alpha, spec):
        value, err = exact(taus, alpha, spec)
        return AnalyticResult(value + err, err)
    monkeypatch.setattr(analytic, "_bs_tail_coeff", shifted)
    moved = dl_coverage(cfg, 1.0)
    assert moved.value != base.value
    assert abs(moved.value - base.value) <= base.est_abs_error


def test_every_error_stating_evaluator_returns_one_type():
    results = [dl_coverage(REF_CFG, 1.0), sl_coverage(REF_CFG, 1.0),
               effective_rate_with_error(REF_CFG), network_utility_with_error(REF_CFG),
               total_rate_with_error(REF_CFG)]
    for res in results:
        assert type(res) is AnalyticResult
        value, err = res
        assert (value, err) == (res.value, res.est_abs_error)
        assert math.isfinite(value) and 0.0 < err < 1e-5


def test_tighter_tolerance_stays_within_reported_error():
    tight = QuadratureSpec(rel_tol=DEFAULT_SPEC.rel_tol / 2,
                           abs_tol=DEFAULT_SPEC.abs_tol / 2)
    for tau in (0.3, 3.0):
        base = dl_coverage(REF_CFG, tau)
        refined = dl_coverage(REF_CFG, tau, tight)
        assert abs(base.value - refined.value) <= base.est_abs_error
        base = sl_coverage(REF_CFG, tau)
        refined = sl_coverage(REF_CFG, tau, tight)
        assert abs(base.value - refined.value) <= base.est_abs_error


def test_nu_constant():
    assert nu() == 1.280


def test_mean_zero_cell_areas():
    inside, outside = mean_zero_cell_areas(REF_CFG)
    p_sl = p_assoc_sl(REF_CFG.lambda_l, REF_CFG.mu, REF_CFG.rho)
    assert inside == pytest.approx(NU / REF_CFG.lambda_b * p_sl, rel=1e-10)
    assert inside + outside == NU / REF_CFG.lambda_b  # exact by construction
    cfg0 = validate(replace(REF_CFG, rho=0.0))
    assert mean_zero_cell_areas(cfg0) == (0.0, NU / cfg0.lambda_b)


def test_effective_rate_halves_when_users_double():
    t1 = effective_rate(REF_CFG)
    t2 = effective_rate(validate(replace(REF_CFG, lambda_u=400.0)))
    assert t2 == pytest.approx(t1 / 2, rel=1e-14)


def test_effective_rate_classic_limit():
    # without roads the numerator is the classic spectral efficiency and the
    # denominator the plain mean load nu * lambda_u / lambda_b
    cfg = validate(replace(REF_CFG, lambda_l=0.0, mu=0.0, alpha=4.0))
    rate, err = effective_rate_with_error(cfg)
    from vanetcov.quadrature import integrate
    spectral, _ = integrate(
        lambda x: np.array([classic_rayleigh_coverage(2.0 ** xv - 1.0) for xv in np.atleast_1d(x)]),
        0.0, 40.0)
    want = cfg.lambda_b * spectral / (NU * cfg.lambda_u)
    assert rate == pytest.approx(want, rel=1e-5)


def test_network_utility_weight_edges():
    tau_eps = 2.0 ** REF_CFG.epsilon - 1.0
    sl = sl_coverage(REF_CFG, tau_eps).value
    t = effective_rate(REF_CFG)
    assert network_utility(replace(REF_CFG, w_s=0.0, w_d=1.0)) == pytest.approx(t, rel=1e-12)
    assert network_utility(replace(REF_CFG, w_s=1.0, w_d=0.0)) == pytest.approx(sl, rel=1e-12)
    assert network_utility(REF_CFG) == pytest.approx(0.5 * sl + 0.5 * t, rel=1e-12)
    with pytest.raises(ValueError):
        network_utility(validate(replace(REF_CFG, w_s=-0.2, w_d=1.0)))


def test_total_rate_edges():
    cfg0 = validate(replace(REF_CFG, rho=0.0))
    assert total_rate(cfg0) == pytest.approx(effective_rate(cfg0), rel=1e-12)
    cfg_eps0 = validate(replace(REF_CFG, epsilon=0.0))
    assert total_rate(cfg_eps0) == pytest.approx(effective_rate(cfg_eps0), rel=1e-12)
    assert total_rate(REF_CFG) > effective_rate(REF_CFG)


def _reference_tail(r, start, amp, alpha, m):
    """The interference tail as first written: temporaries throughout, the
    general pow, and the Jacobian applied before the contraction, on the map
    u = start + scale T (1 + T)^(p - 1), T = t / (1 - t), with
    p = ceil(alpha - 1) / (alpha - 1)."""
    t, tw = _gl01(m)
    p = math.ceil(alpha - 1.0) / (alpha - 1.0)
    inv = 1.0 / (1.0 - t)
    big_t = t * inv
    stretch = (1.0 + big_t) ** (p - 1.0)
    scale = np.hypot(r, start) + np.power(amp, 1.0 / alpha)
    scale = np.where(scale > 0.0, scale, 1.0)[..., None]
    u = start[..., None] + scale * (big_t * stretch)
    den = (r[..., None] ** 2 + u * u) ** (0.5 * alpha)
    a = amp[..., None]
    g = a / (den + a) * (inv * inv * stretch * (1.0 + (p - 1.0) * t)) * scale
    return g @ tw


@pytest.mark.parametrize("m", [24, 48, 96, 192])
def test_whole_power_tail_grid_is_the_plain_map(m):
    # at whole alpha both tail maps take p = 1, and their grids are the plain
    # map u = t / (1 - t) with the weights w / (1 - t)^2, to the bit, as
    # computed through inv = 1 / (1 - t)
    t, w = _gl01(m)
    inv = 1.0 / (1.0 - t)
    nodes, weights = _tail_grid(m, 1.0)
    assert np.array_equal(nodes, t * inv)
    assert np.array_equal(weights, w * (inv * inv))


@pytest.mark.parametrize("m", [24, 48])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.7, 4.0])
def test_interference_tail_matches_reference(alpha, m):
    rng = np.random.default_rng(int(10 * alpha) + m)
    amp = np.concatenate([[0.0, 1e-12, 1e12], 10.0 ** rng.uniform(-8, 6, 29)])[:, None]
    r = 10.0 ** rng.uniform(-3, 1, (amp.size, m))
    start = rng.uniform(0.0, 1.0, r.shape)
    got = _interference_tail(r, amp, alpha, m, start)
    np.testing.assert_allclose(got, _reference_tail(r, start, amp, alpha, m),
                               rtol=1e-13, atol=0.0)
    got = _interference_tail(r, amp, alpha, m)
    np.testing.assert_allclose(got, _reference_tail(r, np.zeros_like(r), amp, alpha, m),
                               rtol=1e-13, atol=0.0)
    assert np.all(got[0] == 0.0)


def _quad_road_sums(radius, amp, mu, alpha):
    """The serving factor, near sum and far sum behind the road sums, each by
    nested scipy quad in its defining variable."""
    from scipy.integrate import quad

    def q(f, lo, hi):
        return quad(f, lo, hi, epsabs=0.0, epsrel=1e-12)[0]

    def tail(r, start):
        return q(lambda u: amp / ((r * r + u * u) ** (alpha / 2) + amp), start, np.inf)

    def void(r):
        return math.sqrt(radius * radius - r * r)

    serving = q(lambda s: math.exp(-2 * mu * (radius * math.cos(s) + tail(
        radius * math.sin(s), radius * math.cos(s)))), 0.0, math.pi / 2)
    near = q(lambda r: 1 - math.exp(-2 * mu * (void(r) + tail(r, void(r)))), 0.0, radius)
    far = q(lambda r: 1 - math.exp(-2 * mu * tail(r, 0.0)), radius, np.inf)
    return serving, near + far


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_road_sums_match_nested_quad(alpha):
    # (radius, amp, mu): zero radius and zero amplitude included
    cases = [(0.0, 0.0, 5.0), (0.0, 1e-3, 5.0), (0.05, 0.0, 5.0), (0.05, 1e-4, 5.0),
             (0.15, 1e-2, 1.0), (0.3, 1.0, 5.0), (0.05, 10.0, 20.0)]
    for radius, amp, mu in cases:
        got = _road_exponents(np.array([radius]), np.array([amp]), alpha, 96).reduce(2.0 * mu)
        want = _quad_road_sums(radius, amp, mu, alpha)
        np.testing.assert_allclose(np.concatenate(got), want, rtol=1e-10, atol=0.0)


def _table_k_max(alpha, eta=1.0, lambda_b=5.0):
    """The downlink table's range at the default outer cut, margin included."""
    y_max = math.sqrt(-math.log(DEFAULT_SPEC.abs_tol))
    c_alpha = (math.pi / alpha) / math.sin(2 * math.pi / alpha)
    return analytic._K_MAX_MARGIN * y_max * eta ** (1 / alpha) / math.sqrt(
        2 * c_alpha * math.pi * lambda_b)


@pytest.mark.parametrize("m", [24, 48])
@pytest.mark.parametrize("alpha", [3.0, 3.7, 4.0])
@pytest.mark.parametrize("rho", [0.0, 0.05, 0.3])
def test_road_sum_table_matches_road_sums(rho, alpha, m):
    k_max = _table_k_max(alpha)
    table = _road_sum_table(rho, 5.0, alpha, k_max, m)
    rng = np.random.default_rng(int(100 * rho + 10 * alpha) + m)
    amp = np.concatenate([[0.0, k_max ** alpha], rng.uniform(0.0, k_max ** alpha, 200)])
    want = _road_exponents(np.full(amp.size, rho), amp, alpha, m).reduce(2.0 * 5.0)[1]
    got = table(np.minimum(amp ** (1 / alpha), k_max))  # k_max^alpha may round up
    assert 0.0 < table.err < 1e-9
    assert np.max(np.abs(got - want)) <= table.err


@pytest.mark.parametrize("m", [24, 48, 96])
@pytest.mark.parametrize("mu", [1.0, 5.0, 40.0])
@pytest.mark.parametrize("rho, alpha", [(0.05, 4.0), (0.0, 3.0), (0.15, 3.7), (0.3, 2.5)])
def test_road_sum_table_holds_the_road_sums_at_its_nodes_bit_for_bit(rho, alpha, mu, m):
    # the table reduces cached mu-free exponents; the road sums it holds are
    # exactly those of one _road_exponents call at its Chebyshev-Lobatto
    # nodes, reduced with 2 mu
    k_max = _table_k_max(alpha)
    table = _road_sum_table(rho, mu, alpha, k_max, m)
    n = table.nodes.size - 1
    np.testing.assert_allclose(table.nodes, np.cos(np.pi * np.arange(n + 1) / n),
                               rtol=0.0, atol=1e-15)
    u = 0.5 * (k_max / (k_max + table.c)) * (table.nodes + 1.0)
    amp = (table.c * u / (1.0 - u)) ** alpha
    want = _road_exponents(np.full(amp.size, rho), amp, alpha, m).reduce(2.0 * mu)[1]
    w = table.weights[:, 1]
    assert np.array_equal(np.abs(w[1:-1]), np.ones(n - 1)) and abs(w[0]) == abs(w[-1]) == 0.5
    assert np.array_equal(table.weights[:, 0] / w, want)


def test_mu_sweep_builds_each_road_tensor_once(monkeypatch):
    # the road exponents are mu-free: a cold sweep over mu at one (rho, alpha)
    # computes each (inner grid, node) row once, reduced per mu
    rows, nodes = {}, {}
    real_exponents = analytic._road_exponents

    def counted_exponents(radius, amp, alpha, m):
        rows.setdefault(m, []).extend(amp.tolist())
        return real_exponents(radius, amp, alpha, m)

    def recorded_table(rho, mu, alpha, k_max, m):
        table = _road_sum_table(rho, mu, alpha, k_max, m)
        nodes[m] = max(nodes.get(m, 0), table.nodes.size)
        return table
    monkeypatch.setattr(analytic, "_road_exponents", counted_exponents)
    monkeypatch.setattr(analytic, "_road_sum_table", recorded_table)
    _road_sum_table.cache_clear()
    _table_exponents.cache_clear()
    for mu in (1.0, 5.0, 10.0, 20.0, 40.0):
        dl_coverage(validate(replace(REF_CFG, mu=mu)), [0.1, 0.5, 1.0, 5.0, 10.0])
    # every inner grid reached builds the rows of its largest table, once
    assert len(nodes) >= 2 and set(rows) == set(nodes)
    for m, amps in rows.items():
        assert len(set(amps)) == len(amps) == nodes[m]


def test_road_sum_table_refuses_k_beyond_its_range():
    k_max = _table_k_max(3.0)
    table = _road_sum_table(0.05, 5.0, 3.0, k_max, 24)
    table(np.array([0.0, k_max]))
    with pytest.raises(ValueError, match="road-sum table reaches"):
        table(np.array([0.5 * k_max, k_max * (1 + 1e-12)]))


def test_every_threshold_stays_inside_the_table_range():
    # k_tot >= 2 C_alpha tau^(2/alpha) bounds k at y_max whatever tau is
    for alpha in (2.95, 3.0, 4.0, 6.0):
        cfg = validate(replace(REF_CFG, alpha=alpha, p_v=3.0))
        for tau in (0.0, 1e-6, 1.0, 1e6, 1e15):
            assert 0.0 <= dl_coverage(cfg, tau).value <= 1.0


def test_cold_rate_fills_a_few_tables(monkeypatch):
    # the road tensor is built only to fill one table per inner grid, not
    # at every outer node of the 278 nested coverage calls
    calls = []
    real = analytic._road_exponents

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(analytic, "_road_exponents", counted)
    _road_sum_table.cache_clear()
    _table_exponents.cache_clear()
    _rate_numerator_of.cache_clear()
    effective_rate_with_error(REF_CFG)
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("changes", [
    {}, {"alpha": 3.7}, {"lambda_l": 0.0, "mu": 0.0, "alpha": 4.0},
    {"rho": 0.2, "p_v": 0.1},
], ids=["ref", "alpha3.7", "noroads_alpha4", "rho0.2_pv0.1"])
def test_threshold_vector_agrees_with_scalar_coverage(changes):
    # one shared outer rule for many thresholds: each threshold still lands
    # within its own stated error of the one-threshold evaluation
    cfg = validate(replace(REF_CFG, **changes))
    taus = 2.0 ** np.linspace(0.0, 40.0, 15) - 1.0
    assert taus[0] == 0.0
    values, errors = dl_coverage(cfg, taus, DEFAULT_SPEC)
    assert values.shape == errors.shape == (15,)
    for tau, value, err in zip(taus, values, errors):
        want = dl_coverage(cfg, float(tau))
        assert abs(value - want.value) <= err + want.est_abs_error


def test_cold_rate_reads_the_table_once_per_panel(monkeypatch):
    # the rate numerator evaluates every open panel of every dyadic segment in
    # one downlink call per refinement round, so one table read serves up to
    # 1,575 threshold points (105 rows of 15); a cold reference rate makes 63
    # reads, against 172 when the table was read once per outer panel
    reads, tensors = [], []
    real_read, real_exponents = _RoadSumTable.__call__, analytic._road_exponents

    def counted_read(table, k):
        reads.append(k.size)
        return real_read(table, k)

    def counted_exponents(*args):
        tensors.append(args)
        return real_exponents(*args)
    monkeypatch.setattr(_RoadSumTable, "__call__", counted_read)
    monkeypatch.setattr(analytic, "_road_exponents", counted_exponents)
    _road_sum_table.cache_clear()
    _table_exponents.cache_clear()
    _rate_numerator_of.cache_clear()
    effective_rate_with_error(REF_CFG)
    assert 0 < len(reads) <= 100
    assert 0 < len(tensors) <= 16


def test_alpha_below_three_still_reports_inner_grid_failure(monkeypatch):
    # the table interpolates each inner grid's road sum; it must not smooth
    # away the far sum's slow convergence in m.  The tail map's power keeps
    # that sum bounded below alpha = 3, so the slow convergence is made here
    # with p = 1 on both tails, under which the mapped far integrand is
    # unbounded there
    cfg = validate(replace(REF_CFG, alpha=2.9))
    res = dl_coverage(cfg, 0.01)
    assert 0.6 < res.value < 0.65 and res.est_abs_error < 1e-6
    monkeypatch.setattr(analytic, "_tail_power", lambda d: 1.0)
    _road_sum_table.cache_clear()
    _table_exponents.cache_clear()
    try:
        with pytest.raises(NonConvergenceError, match="inner grids"):
            dl_coverage(cfg, 1.0)
    finally:
        _road_sum_table.cache_clear()
        _table_exponents.cache_clear()


@pytest.mark.parametrize("alpha,spec", [
    (2.5, DEFAULT_SPEC), (2.9, DEFAULT_SPEC), (2.5, QuadratureSpec(1e-9, 1e-13)),
], ids=["2.5", "2.9", "2.5_tight"])
def test_alpha_below_three_converges_on_both_links(alpha, spec):
    # the tight spec needs the near tail's whole-power map: on the plain map
    # u = start + scale t / (1 - t) the ladder fails there on both links
    cfg = validate(replace(REF_CFG, alpha=alpha))
    for res in (dl_coverage(cfg, 1.0, spec), sl_coverage(cfg, 1.0, spec)):
        assert 0.0 < res.value < 1.0 and 0.0 < res.est_abs_error < 1e-6


def test_both_links_and_the_rate_converge_at_alpha_2_28():
    # the base-station coefficient is bounded for every alpha > 2, so the
    # floor is set by the road sums' inner-grid ladder; 2.10 needs the near
    # tail's whole-power map
    for alpha in (2.28, 2.10):
        cfg = validate(replace(REF_CFG, alpha=alpha))
        for tau in (0.01, 1.0, 100.0):
            for res in (dl_coverage(cfg, tau), sl_coverage(cfg, tau)):
                assert 0.0 < res.value < 1.0 and 0.0 < res.est_abs_error < 1e-5
        rate = effective_rate_with_error(cfg)
        assert 0.0 < rate.value < 1.0 and rate.est_abs_error < 1e-4 * rate.value


@pytest.mark.parametrize("alpha", [35.0, 40.0, 40.5])
def test_large_alpha_coverage_warns_of_no_overflow(alpha):
    # the far roads' (r^2 + u^2)^(alpha/2) passes the float range; the ratio
    # amp / (inf + amp) = 0 is the right limit, so no warning is due
    import warnings
    cfg = validate(replace(REF_CFG, alpha=alpha))
    _road_sum_table.cache_clear()
    _unit_road_exponents.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for res in (dl_coverage(cfg, 1.0), sl_coverage(cfg, 1.0)):
            assert 0.0 < res.value < 1.0 and 0.0 < res.est_abs_error < 1e-4 * res.value


@pytest.mark.parametrize("alpha", [3.0, 3.7])
def test_road_sums_scale_with_the_radius(alpha):
    # every length in the road kernel scales with the radius:
    # the road sums at (x, tau x^alpha, mu) are (serving, x * road_sum) of
    # those at (1, tau, mu x), on the same nodes
    tau, mu = 1.0, 5.0
    for x in (1e-3, 1e-2, 0.1, 1.0):
        serving, road_sum = _road_exponents(
            np.array([x]), np.array([tau * x ** alpha]), alpha, 96).reduce(2.0 * mu)
        unit_serving, unit_sum = _road_exponents(
            np.array([1.0]), np.array([tau]), alpha, 96).reduce(2.0 * mu * x)
        np.testing.assert_allclose(serving, unit_serving, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(road_sum, x * unit_sum, rtol=1e-12, atol=0.0)


def test_cold_sidelink_computes_one_profile_per_inner_grid(monkeypatch):
    # the sidelink reduces one unit-radius row of road exponents per inner
    # grid at every outer node; a sweep over mu at one tau reuses the rows
    calls = []
    real = analytic._road_exponents

    def counted(radius, *args):
        calls.append(radius.size)
        return real(radius, *args)
    monkeypatch.setattr(analytic, "_road_exponents", counted)
    _unit_road_exponents.cache_clear()
    cfg = validate(replace(REF_CFG, mu=3.0))
    sl_coverage(cfg, 0.7)
    assert 0 < len(calls) <= 4 and set(calls) == {1}
    calls.clear()
    sl_coverage(replace(cfg, mu=11.0), 0.7)
    assert calls == []


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.7, 4.0, 5.0, 6.0])
def test_half_power_matches_pow(alpha):
    x = 10.0 ** np.random.default_rng(7).uniform(-6, 6, 1000)
    want = np.power(x, 0.5 * alpha)
    got = _half_power(x, alpha)
    assert got is x
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


# (changes, x where the rate's range ends at the default spec)
RATE_RANGE_ENDS = {
    "ref": ({}, 64.0),
    "alpha2.5": ({"alpha": 2.5}, 64.0),
    "alpha3.7": ({"alpha": 3.7}, 64.0),
    "alpha6": ({"alpha": 6.0}, 128.0),
    "noroads_alpha4": ({"lambda_l": 0.0, "mu": 0.0, "alpha": 4.0}, 128.0),
}
TIGHT_SPEC = QuadratureSpec(1e-9, 1e-30)


@pytest.mark.parametrize("case", ["ref", "noroads_alpha4"])
def test_coverage_stays_below_the_rate_envelope(case):
    # the vehicle factor is at most 1 and k_tot >= 2 C_alpha tau^(2/alpha)
    changes, hi = RATE_RANGE_ENDS[case]
    cfg = validate(replace(REF_CFG, **changes))
    taus = 2.0 ** np.linspace(0.25, 4.0 * hi, 40) - 1.0
    values, errors = dl_coverage(cfg, taus, TIGHT_SPEC)
    envelope = 1.0 / (2.0 * _c_alpha(cfg.alpha) * taus ** (2.0 / cfg.alpha))
    assert np.all(values - errors <= envelope)


@pytest.mark.parametrize("case", ["ref", "noroads_alpha4"])
def test_stated_rate_tail_bounds_the_computed_tail(case):
    # the tail past the range's end, computed on [hi, 4 hi] at a spec whose
    # absolute tolerance does not swamp values of 1e-20
    changes, hi = RATE_RANGE_ENDS[case]
    cfg = validate(replace(REF_CFG, **changes))

    def g(xs):
        return dl_coverage(cfg, [2.0 ** float(x) - 1.0 for x in xs], TIGHT_SPEC).value
    computed, err = integrate(g, hi, 4.0 * hi, TIGHT_SPEC)
    stated = _rate_tail(hi, cfg.alpha)
    assert 0.0 < computed - err <= stated <= DEFAULT_SPEC.abs_tol
    if case == "noroads_alpha4":
        # with no roads P_dl = 1 / k_tot, and the envelope is all but exact
        assert computed == pytest.approx(stated, rel=1e-4)


@pytest.mark.parametrize("case", list(RATE_RANGE_ENDS))
def test_rate_range_ends_where_the_envelope_meets_the_tolerance(monkeypatch, case):
    changes, hi = RATE_RANGE_ENDS[case]
    cfg = validate(replace(REF_CFG, **changes))
    largest = []
    real = analytic.dl_coverage

    def recorded(cfg, taus, spec):
        largest.append(max(taus))
        return real(cfg, taus, spec)
    monkeypatch.setattr(analytic, "dl_coverage", recorded)
    _rate_numerator_of.cache_clear()
    effective_rate_with_error(cfg)
    # Gauss-Kronrod nodes are interior, so the last segment [hi / 2, hi]
    # reads thresholds strictly between its ends
    assert 2.0 ** (hi / 2.0) - 1.0 < max(largest) < 2.0 ** hi - 1.0
    assert _rate_tail(hi, cfg.alpha) <= DEFAULT_SPEC.abs_tol < _rate_tail(hi / 2.0, cfg.alpha)


def _rate_numerator_per_segment(cfg, spec=DEFAULT_SPEC):
    """Reference rate numerator: one adaptive integral per dyadic segment,
    one dl_coverage call per outer panel, and the same error ledger."""
    edges = [0.0, 1.0]
    while (tail := _rate_tail(edges[-1], cfg.alpha)) > spec.abs_tol:
        edges.append(2.0 * edges[-1])
    inner_errors = []

    def g(xs):
        res = dl_coverage(cfg, [2.0 ** float(x) - 1.0 for x in xs], spec)
        inner_errors.append(float(res.est_abs_error.max()))
        return res.value

    parts = [integrate(g, lo, hi, spec) for lo, hi in zip(edges, edges[1:])]
    value = sum(v for v, _ in parts)
    err = sum(e for _, e in parts) + max(inner_errors) * edges[-1] + tail
    return AnalyticResult(cfg.lambda_b * value, cfg.lambda_b * err)


def _cold_rate_numerator(cfg):
    _rate_numerator_of.cache_clear()
    return _rate_numerator_of(cfg.lambda_l, cfg.mu, cfg.lambda_b, cfg.rho,
                              cfg.alpha, cfg.p_v / cfg.p_b, DEFAULT_SPEC)


def test_cold_rate_makes_one_downlink_call_per_round(monkeypatch):
    # all dyadic segments refine together: a round's new panels are one call
    calls = []
    real = analytic.dl_coverage

    def counted(cfg, taus, spec):
        calls.append(len(taus))
        return real(cfg, taus, spec)
    monkeypatch.setattr(analytic, "dl_coverage", counted)
    _cold_rate_numerator(REF_CFG)
    assert 0 < len(calls) <= 8
    # round 0: the 15 nodes of each of the 7 segments [0, 1], ..., [32, 64]
    assert calls[0] == 15 * 7
    assert all(n % 30 == 0 for n in calls[1:])


@pytest.mark.parametrize("changes", [
    {}, {"alpha": 3.7, "p_v": 0.3}, {"rho": 0.2, "p_v": 0.1},
    {"lambda_l": 0.0, "mu": 0.0, "alpha": 4.0}, {"alpha": 6.0},
    {"lambda_l": 2.0, "mu": 1.0, "alpha": 2.5},
], ids=["ref", "alpha3.7_pv0.3", "rho0.2_pv0.1", "noroads_alpha4", "alpha6",
        "ll2_mu1_alpha2.5"])
def test_rate_in_rounds_agrees_with_the_per_segment_reference(changes):
    cfg = validate(replace(REF_CFG, **changes))
    got = _cold_rate_numerator(cfg)
    want = _rate_numerator_per_segment(cfg)
    assert abs(got.value - want.value) <= got.est_abs_error + want.est_abs_error


def test_rate_converges_at_alpha_20():
    # the range ends at x = 512, below the x = 1024 where 2^x overflows
    res = effective_rate_with_error(validate(replace(REF_CFG, alpha=20.0)))
    assert 0.0 < res.value < 1.0 and res.est_abs_error < 1e-4 * res.value


def test_rate_range_past_the_float_range_raises_before_integrating(monkeypatch):
    # at alpha = 60 the envelope needs x > 1024, where 2^x - 1 overflows
    def never(*args):
        raise AssertionError("integrand called")
    monkeypatch.setattr(analytic, "dl_coverage", never)
    with pytest.raises(NonConvergenceError, match="x = 1024"):
        effective_rate_with_error(validate(replace(REF_CFG, alpha=60.0)))


def test_cold_rate_fits_bounded_caches():
    _rate_numerator_of.cache_clear()
    effective_rate(REF_CFG)
    effective_rate(validate(replace(REF_CFG, lambda_u=400.0)))
    rate = _rate_numerator_of.cache_info()
    assert rate.maxsize is not None
    assert (rate.currsize, rate.misses, rate.hits) == (1, 1, 1)


# --- regenerable independent oracle -----------------------------------------
# Set REGEN_ORACLES=1 to re-derive BRUTE_FROZEN from nested scipy quadrature.

@pytest.mark.skipif(not os.environ.get("REGEN_ORACLES"),
                    reason="slow independent oracle; set REGEN_ORACLES=1")
def test_regenerate_brute_force_oracle():
    import warnings
    warnings.filterwarnings("ignore")
    for (link, tau), frozen in BRUTE_FROZEN.items():
        brute = (_brute_dl_coverage if link == "dl" else _brute_sl_coverage)(REF_CFG, tau)
        print(f"{link} tau={tau}: brute={brute:.12f} frozen={frozen:.12f}")
        assert brute == pytest.approx(frozen, abs=5e-9)


def _brute_dl_coverage(cfg, tau):
    from scipy.integrate import quad
    eta = cfg.p_v / cfg.p_b
    al, rho, mu, ll, lb = cfg.alpha, cfg.rho, cfg.mu, cfg.lambda_l, cfg.lambda_b

    def bs_tail(x):
        return quad(lambda r: tau * x ** al * r / (r ** al + tau * x ** al),
                    x, np.inf, epsabs=1e-12, epsrel=1e-10)[0]

    def veh_tail(r, x, lower):
        amp = tau * eta * x ** al
        return quad(lambda u: amp / ((r * r + u * u) ** (al / 2) + amp),
                    lower, np.inf, epsabs=1e-12, epsrel=1e-10)[0]

    def near(x):
        return quad(lambda r: 1 - math.exp(
            -2 * mu * math.sqrt(rho ** 2 - r ** 2)
            - 2 * mu * veh_tail(r, x, math.sqrt(rho ** 2 - r ** 2))),
            0, rho, epsabs=1e-11)[0]

    def far(x):
        return quad(lambda r: 1 - math.exp(-2 * mu * veh_tail(r, x, 0.0)),
                    rho, np.inf, epsabs=1e-11)[0]

    def outer(x):
        return 2 * math.pi * lb * x * math.exp(
            -math.pi * lb * (x * x + 2 * bs_tail(x)) - 2 * ll * (near(x) + far(x)))

    return quad(outer, 0, 2.0, epsabs=1e-9, limit=200)[0]


def _brute_sl_coverage(cfg, tau):
    from scipy.integrate import quad
    eta = cfg.p_v / cfg.p_b
    al, rho, mu, ll, lb = cfg.alpha, cfg.rho, cfg.mu, cfg.lambda_l, cfg.lambda_b

    def veh_tail(r, x, lower):
        amp = tau * x ** al
        return quad(lambda u: amp / ((r * r + u * u) ** (al / 2) + amp),
                    lower, np.inf, epsabs=1e-12, epsrel=1e-10)[0]

    def serving(x):
        return quad(lambda s: 4 * ll * mu * x * math.exp(
            -2 * mu * (x * math.cos(s) + veh_tail(x * math.sin(s), x, x * math.cos(s)))),
            0, math.pi / 2, epsabs=1e-11)[0]

    def bs_full(x):
        amp = tau / eta * x ** al
        return 2 * math.pi * lb * quad(
            lambda u: amp * u / (u ** al + amp), 0, np.inf, epsabs=1e-12)[0]

    def near(x):
        return quad(lambda u: 1 - math.exp(
            -2 * mu * math.sqrt(x * x - u * u)
            - 2 * mu * veh_tail(u, x, math.sqrt(x * x - u * u))),
            0, x, epsabs=1e-11)[0]

    def far(x):
        return quad(lambda u: 1 - math.exp(-2 * mu * veh_tail(u, x, 0.0)),
                    x, np.inf, epsabs=1e-11)[0]

    def outer(x):
        if x == 0:
            return 0.0
        return serving(x) * math.exp(-bs_full(x) - 2 * ll * (near(x) + far(x)))

    return quad(outer, 0, rho, epsabs=1e-9, limit=200)[0]
