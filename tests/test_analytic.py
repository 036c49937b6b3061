import math
import os
from dataclasses import replace

import numpy as np
import pytest

from vanetcov import NetworkConfig, analytic, cli, validate
from vanetcov.analytic import (
    NU,
    CoverageResult,
    _bs_full_coeff,
    _bs_tail_coeff,
    _gl01,
    _half_power,
    _interference_tail,
    _rate_numerator_of,
    _road_sums,
    _scaled_power_integral,
    dl_coverage,
    effective_rate_with_error,
    mean_zero_cell_areas,
    network_utility_with_error,
    nu,
    p_assoc_sl,
    sl_coverage,
    total_rate_with_error,
)
from vanetcov.quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec

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
    ((_, _, value, _),) = _cli_rows(cfg, "total_cov", (tau,))
    return value


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
        assert rows[0][2] + rows[1][2] == pytest.approx(1.0, abs=1e-15)


def test_association_dense_road_limit():
    # at very high vehicle density only the road-hit geometry remains
    got = p_assoc_sl(5.0, 1000.0, 0.05)
    assert abs(got - (1.0 - math.exp(-0.5))) < 1e-3


def test_association_monotone_in_mu():
    vals = [p_assoc_sl(5.0, mu, 0.05) for mu in (0.5, 1, 2, 5, 10, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bs_tail_coeff_closed_form_alpha4():
    for tau in (0.1, 1.0, 10.0, 250.0):
        got = _bs_tail_coeff(tau, 4.0, DEFAULT_SPEC)
        want = math.sqrt(tau) * (math.pi / 2 - math.atan(1.0 / math.sqrt(tau)))
        assert got == pytest.approx(want, rel=1e-8)


def test_bs_full_coeff_closed_form():
    for amp, alpha in ((1.0, 3.0), (0.37, 3.5), (5.0, 4.0)):
        got = _bs_full_coeff(amp, alpha, DEFAULT_SPEC)
        want = amp ** (2 / alpha) * (math.pi / alpha) / math.sin(2 * math.pi / alpha)
        assert got == pytest.approx(want, rel=1e-6)


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
    general pow, and the Jacobian applied before the contraction."""
    t, tw = _gl01(m)
    inv = 1.0 / (1.0 - t)
    scale = np.hypot(r, start) + np.power(amp, 1.0 / alpha)
    scale = np.where(scale > 0.0, scale, 1.0)[..., None]
    u = start[..., None] + scale * (t * inv)
    den = (r[..., None] ** 2 + u * u) ** (0.5 * alpha)
    a = amp[..., None]
    g = a / (den + a) * (inv * inv) * scale
    return g @ tw


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
    """The serving factor, near sum and far sum behind _road_sums, each by
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
        got = _road_sums(np.array([radius]), np.array([amp]), mu, alpha, 96)
        want = _quad_road_sums(radius, amp, mu, alpha)
        np.testing.assert_allclose(np.concatenate(got), want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.7, 4.0, 5.0, 6.0])
def test_half_power_matches_pow(alpha):
    x = 10.0 ** np.random.default_rng(7).uniform(-6, 6, 1000)
    want = np.power(x, 0.5 * alpha)
    got = _half_power(x, alpha)
    assert got is x
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_rate_range_cap_raises(monkeypatch):
    # a coverage that never decays keeps the rate integrand above the floor
    monkeypatch.setattr(analytic, "dl_coverage",
                        lambda cfg, tau, spec=DEFAULT_SPEC: CoverageResult(0.5, 0.0))
    cfg = validate(replace(REF_CFG, mu=7.25))  # a key no other test caches
    with pytest.raises(NonConvergenceError, match="range cap"):
        _rate_numerator_of(cfg.lambda_l, cfg.mu, cfg.lambda_b, cfg.rho,
                           cfg.alpha, cfg.p_v / cfg.p_b, DEFAULT_SPEC)


def test_cold_rate_fits_bounded_caches():
    _scaled_power_integral.cache_clear()
    _rate_numerator_of.cache_clear()
    effective_rate(REF_CFG)
    effective_rate(validate(replace(REF_CFG, lambda_u=400.0)))
    coeff = _scaled_power_integral.cache_info()
    rate = _rate_numerator_of.cache_info()
    # bounded, and a cold rate evicts none of its own coefficients
    assert coeff.maxsize is not None
    assert 0 < coeff.currsize == coeff.misses <= coeff.maxsize
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
