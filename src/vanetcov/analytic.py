"""Closed-form evaluators for association, coverage, and rate metrics.

Every metric reduces to nested integrals over (i) the serving-distance
density, (ii) the Laplace transform of base-station interference, and (iii)
the Laplace transform of vehicle interference accumulated road by road.  The
integrals are evaluated with the adaptive engine in :mod:`.quadrature` on the
outside and vectorised fixed-order Gauss-Legendre tensors on the inside.

One road-level kernel, :func:`_road_sums`, serves both links: the downlink
evaluates it at the exclusion radius rho, the sidelink at the serving
distance x, where it also yields the serving road's factor.

Two substitutions keep every inner integrand bounded and the error estimates
trustworthy:

* square-root factors sqrt(radius^2 - r^2) vanish under r = radius * sin(s),
  which also removes the 1/sqrt(x^2 - r^2) serving-line singularity;
* semi-infinite interference tails map onto [0, 1) via u = a + t / (1 - t);
  a tail integrand decays like u^(-alpha) with alpha > 2, so the mapped
  integrand stays bounded.  The far-road sum decays only like r^(1 - alpha)
  and stays bounded under the same map only for alpha >= 3; at alpha = 2.9
  or less its inner grids may not stabilise, and the coverage then raises
  NonConvergenceError.

Inner grids double (24, 48, 96, 192 nodes per axis) until the outer integral
value is stable within tolerance; the observed change joins the reported
error bound.  Outer integrals over semi-infinite ranges are truncated where
a Gaussian envelope drops below abs_tol, and that envelope joins the bound.

The vehicle-interference tail is the innermost tensor, (outer nodes x m x m)
elements per call, and nearly all of the run time.  It is computed in place
on one buffer: the squared distance, then its alpha/2 power (products and
one square root for integer alpha, the general pow otherwise), then the
bounded ratio, and a single contraction with weights that already carry the
(1 - t)^-2 Jacobian of the tail map.

All evaluators are pure functions of their arguments; the memo caches are
bounded (functools.lru_cache), so concurrent use is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import NetworkConfig
from .quadrature import (
    DEFAULT_SPEC,
    NonConvergenceError,
    QuadratureSpec,
    integrate,
    integrate_with_panels,
    resum_panels,
)

# Normalised second moment of the typical Poisson-Voronoi cell area:
# E[area^2] = NU / lambda^2 for a Voronoi tessellation of intensity lambda.
NU = 1.280

_INNER_LEVELS = (24, 48, 96, 192)

# Integrand floor below which the rate integral stops extending its range,
# and the range (in bits/s/Hz) past which it gives up instead.
_RATE_INTEGRAND_FLOOR = 1e-10
_RATE_RANGE_CAP = 512.0


@dataclass(frozen=True)
class CoverageResult:
    """A probability plus the quadrature error ledger that produced it."""
    value: float
    est_abs_error: float


@lru_cache(maxsize=None)
def _gl01(m: int):
    """Gauss-Legendre nodes/weights on [0, 1]; cached, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def _tail_grid(m: int):
    """The m-node grid of the map u = t / (1 - t) from [0, 1) onto [0, inf):
    mapped nodes T and Jacobian-folded weights w / (1 - t)^2; cached,
    read-only."""
    t, w = _gl01(m)
    inv = 1.0 / (1.0 - t)
    nodes = t * inv
    weights = w * (inv * inv)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _half_power(x, alpha):
    """x ** (alpha / 2) computed in place; returns x.

    For integer alpha the power is a product of integer powers of x and at
    most one square root, several times cheaper than the general pow."""
    if alpha != math.floor(alpha):
        return np.power(x, 0.5 * alpha, out=x)
    k, odd = divmod(int(alpha), 2)
    root = np.sqrt(x) if odd else None
    if k > 1:
        base = x.copy()
        for _ in range(k - 1):
            x *= base
    if odd:
        x *= root
    return x


def _interference_tail(r, amp, alpha, m, start=None):
    """Integral over u in [start, inf) of q / (1 + q) with
    q = amp * (r^2 + u^2)^(-alpha/2); ``start`` None means 0.

    Written as amp / ((r^2 + u^2)^(alpha/2) + amp) so that neither tiny nor
    huge amplitudes overflow.  The rational map u = start + scale * t/(1 - t)
    is stretched to the integrand's own knee, the transverse distance plus
    amp^(1/alpha), so one fixed m-node t grid resolves every (r, amp)
    regime.  ``r``, ``start``, ``amp`` broadcast together; the t axis is
    appended and summed out.  All work after the first product happens in
    place on one buffer of the broadcast shape plus the t axis (odd integer
    alpha adds one square-root temporary).
    """
    nodes, weights = _tail_grid(m)
    knee = r if start is None else np.hypot(r, start)
    scale = knee + np.power(amp, 1.0 / alpha)
    scale = np.where(scale > 0.0, scale, 1.0)
    x = scale[..., None] * nodes
    if start is not None:
        x += start[..., None]
    x *= x
    x += (r * r)[..., None]
    _half_power(x, alpha)
    a = amp[..., None]
    x += a
    np.divide(a, x, out=x)
    out = x @ weights
    out *= scale
    return out


def _road_sums(radius, amp, mu, alpha, m):
    """(serving, road_sum) at radius ``radius``, one entry per outer node.

    A road at distance r < radius carries no vehicle on its chord of the
    exclusion disk, a void of half-length a = sqrt(radius^2 - r^2); J_near(r)
    is the interference tail beyond it and J_full(r) that of a whole road.
    With r = radius sin(s), a = radius cos(s):
    serving = Int_0^(pi/2) exp(-2 mu (a + J_near)) ds, the serving road's
    residual-interference factor, and road_sum = Int_0^radius 1 -
    exp(-2 mu (a + J_near)) dr + Int_radius^inf 1 - exp(-2 mu J_full) dr, the
    exponent of the road-level Laplace functional.  The first two share one
    near tensor; the far sum has its own.
    """
    t01, w01 = _gl01(m)
    s = 0.5 * math.pi * t01
    sw = 0.5 * math.pi * w01
    amp = amp[:, None]
    r = radius[:, None] * np.sin(s)
    a = radius[:, None] * np.cos(s)
    near = np.exp(-2.0 * mu * (a + _interference_tail(r, amp, alpha, m, a)))
    nodes, weights = _tail_grid(m)
    far = 1.0 - np.exp(-2.0 * mu * _interference_tail(
        radius[:, None] + nodes, amp, alpha, m))
    return near @ sw, ((1.0 - near) * a) @ sw + far @ weights


@lru_cache(maxsize=4096)
def _scaled_power_integral(lo, alpha, spec):
    """Int_lo^inf w / (w^alpha + 1) dw: the scale-free core of every
    base-station interference exponent.  The integrand's knee is pinned at
    w = 1, so the adaptive rule handles any lo, and w^alpha overflowing to
    inf merely flushes the tail to zero.  A cold effective rate asks for
    about 280 distinct lo, so the cache holds a dozen rates' worth."""
    def f(w):
        return w / (w ** alpha + 1.0)
    return integrate(f, lo, np.inf, spec)[0]


def _bs_tail_coeff(tau, alpha, spec):
    """Scale-free base-station interference exponent: the nearest-server
    exclusion integral 2 * Int_1^inf tau s / (s^alpha + tau) ds, evaluated
    as 2 tau^(2/alpha) * Int_{tau^(-1/alpha)}^inf w / (w^alpha + 1) dw so
    arbitrarily large thresholds stay in range.

    The full exponent is pi * lambda_b * x^2 * (1 + this); computed once per
    (tau, alpha) because the x dependence factors out.
    """
    if tau == 0:
        return 0.0
    return 2.0 * tau ** (2.0 / alpha) * _scaled_power_integral(
        tau ** (-1.0 / alpha), alpha, spec)


def _bs_full_coeff(amp, alpha, spec):
    """Full-plane base-station interference exponent per unit x^2:
    Int_0^inf amp w / (w^alpha + amp) dw = amp^(2/alpha) * the scale-free
    core from zero; no exclusion because a vehicle-served user has base
    stations arbitrarily close."""
    if amp == 0:
        return 0.0
    return amp ** (2.0 / alpha) * _scaled_power_integral(0.0, alpha, spec)


def _leveled_outer(make_integrand, lower, upper, spec, tail_bound):
    """Adaptive outer integral with inner-grid doubling until stable.

    The adaptive pass at the coarsest inner grid fixes the panel set; finer
    inner grids re-sum the same panels, so successive differences measure the
    inner-grid error alone, free of adaptive stopping noise.  An integrand
    that does not depend on the inner grid stops after one re-sum.
    """
    prev, outer_err, panels = integrate_with_panels(
        make_integrand(_INNER_LEVELS[0]), lower, upper, spec)
    for m in _INNER_LEVELS[1:]:
        value, outer_err = resum_panels(make_integrand(m), panels)
        diff = abs(value - prev)
        if diff <= 0.5 * max(spec.abs_tol, spec.rel_tol * abs(value)):
            return CoverageResult(value, outer_err + diff + tail_bound)
        prev = value
    raise NonConvergenceError(
        f"inner grids up to {_INNER_LEVELS[-1]} nodes did not stabilise the "
        f"outer integral (last value {prev:.6e})")


def p_assoc_sl(lambda_l, mu, rho, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Probability that the typical user lies within rho of some vehicle.

    1 - exp(-2 lambda_l * Int_0^rho 1 - exp(-2 mu sqrt(rho^2 - u^2)) du); the
    square root is removed by u = rho * sin(s) before quadrature.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0 or lambda_l == 0 or mu == 0:
        return 0.0

    def f(s):
        return (1.0 - np.exp(-2.0 * mu * rho * np.cos(s))) * rho * np.cos(s)

    inner, _ = integrate(f, 0.0, 0.5 * math.pi, spec)
    return 1.0 - math.exp(-2.0 * lambda_l * inner)


def dl_coverage(cfg: NetworkConfig, tau, spec: QuadratureSpec = DEFAULT_SPEC) -> CoverageResult:
    """Joint probability that the typical user is base-station associated and
    its downlink SIR exceeds ``tau``.

    The outer variable is the nearest-base-station distance.  Substituting
    y = x * sqrt(pi lambda_b (1 + bs_tail)) turns the base-station factor
    into 2 y exp(-y^2) / (1 + bs_tail), which keeps the integrand's mass on
    an O(1) range for every tau; the vehicle factor is the road-level sum at
    radius rho.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    eta = cfg.p_v / cfg.p_b
    k_tail = _bs_tail_coeff(tau, cfg.alpha, spec)
    k_tot = 1.0 + k_tail
    x_scale = 1.0 / math.sqrt(math.pi * cfg.lambda_b * k_tot)
    tail_eps = min(spec.abs_tol, 1e-10)
    y_max = math.sqrt(-math.log(tail_eps))
    tail_bound = math.exp(-y_max * y_max) / k_tot
    has_vehicles = cfg.lambda_l > 0 and cfg.mu > 0

    def make_integrand(m):
        def f(y):
            y = np.asarray(y, dtype=float)
            expo = y * y
            if has_vehicles:
                x = x_scale * y
                amp = tau * eta * np.power(x, cfg.alpha)
                _, road_sum = _road_sums(np.full_like(x, cfg.rho), amp,
                                         cfg.mu, cfg.alpha, m)
                expo = expo + 2.0 * cfg.lambda_l * road_sum
            return (2.0 / k_tot) * y * np.exp(-expo)
        return f

    return _leveled_outer(make_integrand, 0.0, y_max, spec, tail_bound)


def sl_coverage(cfg: NetworkConfig, tau, spec: QuadratureSpec = DEFAULT_SPEC) -> CoverageResult:
    """Joint probability that the typical user is vehicle associated and its
    sidelink SIR exceeds ``tau``.

    The outer variable is the nearest-vehicle distance x in [0, rho].  The
    integrand combines the serving-road factor (density of the nearest
    vehicle on its road, with that road's residual interference), the
    base-station interference exponent (quadratic in x, with the inverse
    power ratio), and the road-level sum at radius x.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if cfg.rho == 0 or cfg.lambda_l == 0 or cfg.mu == 0:
        return CoverageResult(0.0, 0.0)
    eta = cfg.p_v / cfg.p_b
    lambda_l, mu, alpha, rho = cfg.lambda_l, cfg.mu, cfg.alpha, cfg.rho
    bs_quad = 2.0 * math.pi * cfg.lambda_b * _bs_full_coeff(tau / eta, alpha, spec)

    def make_integrand_x(m):
        def f(x):
            x = np.asarray(x, dtype=float)
            serving, road_sum = _road_sums(x, tau * np.power(x, alpha), mu, alpha, m)
            return 4.0 * lambda_l * mu * x * serving * np.exp(
                -bs_quad * x * x - 2.0 * lambda_l * road_sum)
        return f

    # For large tau the integrand concentrates near 0 on the 1/sqrt(bs_quad)
    # scale; rescaling keeps its mass visible to the adaptive rule.
    if bs_quad * rho * rho <= 25.0:
        return _leveled_outer(make_integrand_x, 0.0, rho, spec, 0.0)
    root = math.sqrt(bs_quad)
    y_end = rho * root
    y_max = math.sqrt(-math.log(min(spec.abs_tol, 1e-10)))
    tail_bound = 0.0
    if y_end > y_max:
        # envelope: integrand_x <= 2 pi lambda_l mu x exp(-bs_quad x^2)
        tail_bound = (math.pi * lambda_l * mu / bs_quad) * math.exp(-y_max * y_max)
        y_end = y_max

    def make_integrand_y(m):
        fx = make_integrand_x(m)

        def f(y):
            return fx(np.asarray(y, dtype=float) / root) / root
        return f

    return _leveled_outer(make_integrand_y, 0.0, y_end, spec, tail_bound)


def nu() -> float:
    """Normalised second moment of the typical Poisson-Voronoi cell area."""
    return NU


def mean_zero_cell_areas(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_SPEC):
    """Mean area of the serving cell split by the vehicle region:
    (inside, outside) = (nu / lambda_b) * (P[vehicle assoc], P[bs assoc]).

    The cell containing the typical user is area-biased, hence the second
    moment nu rather than the mean cell area.  The components sum to
    nu / lambda_b exactly.
    """
    whole = NU / cfg.lambda_b
    inside = whole * p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho, spec)
    return inside, whole - inside


@lru_cache(maxsize=256)
def _rate_numerator_of(lambda_l, mu, lambda_b, rho, alpha, eta, spec):
    """lambda_b * Int_0^inf P[bs associated, SIR > 2^x - 1] dx and its error
    bound, on a canonical config with power ratio eta = p_v / p_b.  lambda_u
    never enters, so sweeps over the user density hit the cache.

    The range extends in doublings until the integrand stays below
    _RATE_INTEGRAND_FLOOR at the ends of two consecutive panels; if that
    has not happened by _RATE_RANGE_CAP the untruncated tail is unbounded
    and NonConvergenceError is raised."""
    cfg = NetworkConfig(lambda_l=lambda_l, mu=mu, lambda_b=lambda_b,
                        lambda_u=1.0, rho=rho, alpha=alpha, p_b=1.0, p_v=eta,
                        epsilon=0.0)
    inner_errors: list[float] = []

    def g(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        for i, xv in enumerate(xs):
            res = dl_coverage(cfg, 2.0 ** float(xv) - 1.0, spec)
            inner_errors.append(res.est_abs_error)
            out[i] = res.value
        return out

    total = 0.0
    outer_err = 0.0
    lo, hi = 0.0, 1.0
    quiet_panels = 0
    while True:
        v, e = integrate(g, lo, hi, spec)
        total += v
        outer_err += e
        edge = dl_coverage(cfg, 2.0 ** hi - 1.0, spec).value
        quiet_panels = quiet_panels + 1 if edge < _RATE_INTEGRAND_FLOOR else 0
        if quiet_panels >= 2:
            break
        if hi >= _RATE_RANGE_CAP:
            raise NonConvergenceError(
                f"rate integrand still {edge:.3e} at x = {hi:g} (floor "
                f"{_RATE_INTEGRAND_FLOOR:g}); the range cap leaves its tail "
                "unbounded")
        lo, hi = hi, hi * 2.0
    err = outer_err + (max(inner_errors) if inner_errors else 0.0) * hi \
        + _RATE_INTEGRAND_FLOOR
    return cfg.lambda_b * total, cfg.lambda_b * err


def effective_rate_with_error(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_SPEC):
    """Long-term downlink rate per user, bits/s/Hz, and its quadrature error
    bound: the mean Shannon rate on the base-station association, divided by
    the mean number of users that share the serving base station."""
    num, num_err = _rate_numerator_of(cfg.lambda_l, cfg.mu, cfg.lambda_b, cfg.rho,
                                      cfg.alpha, cfg.p_v / cfg.p_b, spec)
    p_dl = 1.0 - p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho, spec)
    den = NU * cfg.lambda_u * p_dl
    return num / den, num_err / den


def _weighted_links(cfg: NetworkConfig, w_sl, w_dl, spec: QuadratureSpec):
    """w_sl * P(SIR > 2^epsilon - 1, SL) + w_dl * effective rate, and its
    quadrature error bound; a term with zero weight is not evaluated."""
    sl = sl_coverage(cfg, 2.0 ** cfg.epsilon - 1.0, spec) if w_sl > 0 \
        else CoverageResult(0.0, 0.0)
    rate, rate_err = effective_rate_with_error(cfg, spec) if w_dl > 0 else (0.0, 0.0)
    return (w_sl * sl.value + w_dl * rate,
            w_sl * sl.est_abs_error + w_dl * rate_err)


def network_utility_with_error(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_SPEC):
    """Weighted sum, with the config's weights w_s and w_d, of sidelink
    decoding reliability at the encoding rate epsilon and the effective
    downlink rate; and its quadrature error bound."""
    return _weighted_links(cfg, cfg.w_s, cfg.w_d, spec)


def total_rate_with_error(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_SPEC):
    """Total ergodic rate from both links, the sidelink encoding rate times
    its joint decoding probability plus the effective downlink rate; and its
    quadrature error bound."""
    return _weighted_links(cfg, cfg.epsilon, 1.0, spec)
