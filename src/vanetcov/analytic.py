"""Closed-form evaluators for association, coverage, and rate metrics.

Every metric reduces to nested integrals over the serving distance and the
Laplace transforms of base-station interference and of vehicle interference,
accumulated road by road.  The outer integrals run on the adaptive engine of
:mod:`.quadrature`, over finite ranges; the inner ones are fixed-order
Gauss-Legendre tensors whose grid doubles (24, 48, 96, 192 nodes per axis)
until the outer value is stable (:func:`_leveled_outer`).  The parts:

* the road kernel, shared by both links: :func:`_road_exponents` (with
  :func:`_interference_tail`, and one tail map for both, :func:`_tail_grid`
  with :func:`_tail_power`), mu-free, and its reduction with 2 mu,
  :meth:`_RoadExponents.reduce`;
* the downlink, :func:`dl_coverage`, for one threshold or a tau grid: the
  base-station coefficient (:func:`_bs_tail_coeff`) and the road sum at
  radius rho, read from a Chebyshev table per config and inner grid
  (:func:`_road_sum_table`, :func:`_table_exponents`);
* the sidelink, :func:`sl_coverage`: the road kernel at radius 1, rescaled to
  the serving distance (:func:`_unit_road_exponents`);
* the effective rate, :func:`effective_rate_with_error`: the downlink
  coverage integrated over the thresholds 2^x - 1 on dyadic segments that
  refine in rounds, one :func:`dl_coverage` call per round
  (:func:`_rate_numerator_of`), and the utility and total rate built on it.

Substitutions keep every integrand bounded on a finite range: r = radius
sin(s) removes the factors sqrt(radius^2 - r^2) and the serving line's
1/sqrt(x^2 - r^2) singularity; the tails to infinity, u^(-alpha) along a
road and r^(1 - alpha) across the far roads, alpha > 2, map onto [0, 1) by
one map whose power makes the mapped integrand end in a whole power of
1 - t.  That power is capped at 16, which keeps the far nodes finite; below
about alpha = 2.10 at lambda_b = 5, rho = 0.05 the capped far map no longer
resolves the far-road sum (at 2.05 every threshold fails), and the
inner-grid ladder raises NonConvergenceError.  Outer integrals over
semi-infinite ranges are cut where a Gaussian envelope drops below abs_tol,
and that envelope joins the error bound.

Every evaluator that states an error returns one named tuple,
:class:`AnalyticResult` (value, est_abs_error).  ``p_assoc_sl``, ``nu`` and
``mean_zero_cell_areas`` return bare floats; the error of ``p_assoc_sl``
reaches the CLI's association rows and the effective rate through
``_p_assoc_sl``.  All evaluators are pure functions of their arguments; the
memo caches, road-sum tables included, are functools.lru_caches, bounded or
keyed by the inner grid alone, so memory stays bounded and concurrent use is
safe.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import NetworkConfig
from .quadrature import (
    DEFAULT_SPEC,
    NonConvergenceError,
    QuadratureSpec,
    integrate,
    integrate_segments,
    integrate_with_panels,
    resum_panels,
)

# Normalised second moment of the typical Poisson-Voronoi cell area:
# E[area^2] = NU / lambda^2 for a Voronoi tessellation of intensity lambda.
NU = 1.280

_INNER_LEVELS = (24, 48, 96, 192)

# Downlink road-sum tables: Chebyshev-Lobatto degrees double from the first
# to the second until the error bound meets _TABLE_REL_TOL of the table's
# scale; filling them, _road_exponents is called with at most _TABLE_CHUNK
# tensor elements, about one 15-node panel at m = 96.  _K_MAX_MARGIN widens the
# table's range past the bound on k so that a base-station coefficient off by
# its own quadrature error stays inside it.
_TABLE_DEGREES = (16, 256)
_TABLE_REL_TOL = 1e-10
_TABLE_CHUNK = 1 << 17
_K_MAX_MARGIN = 1.0625


class AnalyticResult(NamedTuple):
    """A value plus the absolute error bound of the ledger that produced it."""
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


@lru_cache(maxsize=64)
def _tail_grid(m: int, p: float):
    """The m-node grid of the map T (1 + T)^(p - 1), T = t / (1 - t), from
    [0, 1) onto [0, inf): the mapped nodes and the Jacobian-folded weights
    w (1 + T)^(p - 1) (1 + (p - 1) t) / (1 - t)^2.  p = 1 is the plain map T,
    to the bit.  Keyed by the power, so by alpha: 64 entries hold 8 alphas'
    grids at every inner level.  Cached, read-only."""
    t, w = _gl01(m)
    inv = 1.0 / (1.0 - t)
    nodes = t * inv
    stretch = np.power(1.0 + nodes, p - 1.0)
    weights = w * (inv * inv) * stretch * (1.0 + (p - 1.0) * t)
    nodes *= stretch
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _tail_power(d):
    """The tail map's power p for an integrand that decays like x^(-1 - d).
    Under x = T (1 + T)^(p - 1) the mapped integrand behaves like
    (1 - t)^(p d - 1) at t = 1, while the map is linear at t = 0.  The least
    p >= 1 that makes p d whole, ceil(d) / d, keeps that power bounded and
    smooth for Gauss-Legendre; a fractional power near 0 (p = 1 at
    alpha = 3.1 on the far roads) converges so slowly in m that the
    inner-grid ladder gives up.  p stays at most 16, so the farthest node at
    m = 192 lies within 4e70 knees and its square stays finite; on the far
    roads, d = alpha - 2, below alpha = 2.0625 the mapped sum is then
    unbounded again, and the ladder says so."""
    return min(math.ceil(d) / d, 16.0)


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
    huge amplitudes overflow.  The map u = start + scale T (1 + T)^(p - 1) of
    :func:`_tail_grid` is stretched to the integrand's own knee, the
    transverse distance plus amp^(1/alpha), so one fixed m-node t grid
    resolves every (r, amp) regime; the integrand decays like u^(-alpha), so
    p is :func:`_tail_power` of alpha - 1 (1 at whole alpha).  ``r``,
    ``start``, ``amp`` broadcast together; the t axis is appended and summed
    out.  All work after the first product happens in place on one buffer of
    the broadcast shape plus the t axis (odd integer alpha adds one
    square-root temporary).
    """
    nodes, weights = _tail_grid(m, _tail_power(alpha - 1.0))
    knee = r if start is None else np.hypot(r, start)
    scale = knee + np.power(amp, 1.0 / alpha)
    scale = np.where(scale > 0.0, scale, 1.0)
    x = scale[..., None] * nodes
    if start is not None:
        x += start[..., None]
    x *= x
    x += (r * r)[..., None]
    # at large alpha the power overflows to inf on the far nodes, where
    # amp / (inf + amp) = 0 is the right limit
    with np.errstate(over="ignore"):
        _half_power(x, alpha)
    a = amp[..., None]
    x += a
    np.divide(a, x, out=x)
    out = x @ weights
    out *= scale
    return out


class _RoadExponents(NamedTuple):
    """The mu-free half of the road kernel, one row per outer node: the
    exponents a + J_near on the s-nodes and J_full on the far nodes, with the
    weights of the serving factor (ds), the near road sum (a ds) and the far
    road sum (dr)."""
    near: np.ndarray
    serving_w: np.ndarray
    near_w: np.ndarray
    far: np.ndarray
    far_w: np.ndarray

    def reduce(self, v):
        """(serving, road_sum) with every exponent scaled by ``v``: 2 mu at
        the exponents' own radius, or one 2 mu x per outer node for a
        unit-radius row.  At v = 2 mu, serving = Int_0^(pi/2) exp(-2 mu (a +
        J_near)) ds is the serving road's residual-interference factor, and
        road_sum = Int_0^radius 1 - exp(-2 mu (a + J_near)) dr +
        Int_radius^inf 1 - exp(-2 mu J_full) dr is the exponent of the
        road-level Laplace functional (see :func:`_road_exponents`).  expm1
        keeps the far roads' tiny exponents, which the far map's large
        weights would otherwise turn into rounding."""
        v = np.asarray(v, dtype=float)[..., None]
        near = -v * self.near
        serving = np.exp(near) @ self.serving_w
        near = -np.expm1(near, out=near)
        far = -np.expm1(-v * self.far)
        return serving, (near * self.near_w).sum(-1) + (far * self.far_w).sum(-1)


def _road_exponents(radius, amp, alpha, m):
    """The road exponents at radius ``radius``, one row per outer node.

    A road at distance r < radius carries no vehicle on its chord of the
    exclusion disk, a void of half-length a = sqrt(radius^2 - r^2); J_near(r)
    is the interference tail beyond it and J_full(r) that of a whole road.
    r = radius sin(s), a = radius cos(s) on the near roads; the far roads sit
    at r = radius + kappa T (1 + T)^(p - 1), the map of :func:`_tail_grid`
    stretched to the road's knee kappa = radius + amp^(1/alpha).  The far
    integrand 1 - exp(-2 mu J_full(r)) decays like r^(1 - alpha), so p is
    :func:`_tail_power` of alpha - 2.  Every length here scales with the
    radius, so the exponents at (x, tau x^alpha) are x times those at
    (1, tau) on the same nodes."""
    t01, w01 = _gl01(m)
    s = 0.5 * math.pi * t01
    sw = 0.5 * math.pi * w01
    amp = amp[:, None]
    radius = radius[:, None]
    r = radius * np.sin(s)
    a = radius * np.cos(s)
    nodes, weights = _tail_grid(m, _tail_power(alpha - 2.0))
    kappa = radius + np.power(amp, 1.0 / alpha)
    far = _interference_tail(radius + kappa * nodes, amp, alpha, m)
    return _RoadExponents(a + _interference_tail(r, amp, alpha, m, a), sw, a * sw,
                          far, kappa * weights)


@lru_cache(maxsize=256)
def _unit_road_exponents(tau, alpha, m):
    """The sidelink's road exponents at radius 1 and amplitude tau, one row.
    At serving distance x the amplitude is tau x^alpha, so the road kernel
    at x is this row reduced with v = 2 mu x, its road sum times x: one
    profile serves every x and every mu.  Cached, read-only."""
    ex = _road_exponents(np.ones(1), np.array([tau]), alpha, m)
    for field in ex:
        field.flags.writeable = False
    return ex


class _RoadSumTable(NamedTuple):
    """H(k) on [0, k_max], interpolated at the Chebyshev-Lobatto nodes
    z_i = cos(pi i / n) of z = 2 u / u_max - 1, u = k / (k + c); ``weights``
    holds the barycentric products w_i H(z_i) and the weights w_i =
    (-1)^i (halved at both ends) as two columns, and ``err`` bounds the
    interpolant's error.  Call it on an array of k."""
    nodes: np.ndarray
    weights: np.ndarray
    err: float
    c: float
    k_max: float

    def __call__(self, k):
        """The interpolant at k by the barycentric formula: the same
        polynomial as the Chebyshev series, without a cosine per node and
        term."""
        if k.max() > self.k_max:
            raise ValueError(f"road-sum table reaches k = {self.k_max:.6g}, "
                             f"asked for {k.max():.6g}")
        u_max = self.k_max / (self.k_max + self.c)
        # node-major, so the product below takes d as it lies
        d = (2.0 * k / ((k + self.c) * u_max) - 1.0) - self.nodes[:, None]
        # at a node itself, that node's term outweighs the rest to the last bit
        d[d == 0.0] = 1e-200
        np.divide(1.0, d, out=d)
        num, den = self.weights.T @ d
        return num / den


def _table_nodes(degree):
    """The Chebyshev-Lobatto nodes z_i = cos(pi i / degree) new at ``degree``:
    all of them at the first degree, the odd i after each doubling."""
    if degree == _TABLE_DEGREES[0]:
        return np.cos(np.pi * np.arange(degree + 1) / degree)
    return np.cos(np.pi * np.arange(1, degree, 2) / degree)


@lru_cache(maxsize=64)
def _table_exponents(rho, alpha, k_max, m, degree):
    """The road exponents at radius rho of the downlink table's nodes new at
    ``degree`` (see :func:`_road_sum_table`), one row per node.  They are
    mu-free, so a sweep over mu builds each (inner grid, degree) tensor once
    and reduces it per mu.  Built with at most _TABLE_CHUNK tensor elements
    per :func:`_road_exponents` call.  One (rho, alpha, k_max) has at most
    4 inner grids x 5 degrees = 20 entries, so the cache holds three.
    Cached, read-only."""
    c = max(2.0 * rho, k_max / 20.0)
    u = 0.5 * (k_max / (k_max + c)) * (_table_nodes(degree) + 1.0)
    amp = (c * u / (1.0 - u)) ** alpha
    step = max(1, _TABLE_CHUNK // (m * m))
    parts = [_road_exponents(np.full(part.size, float(rho)), part, alpha, m)
             for part in np.split(amp, range(step, amp.size, step))]
    # the rows join; the serving weights are one row shared by all
    ex = _RoadExponents(*map(np.concatenate, zip(*parts)))._replace(
        serving_w=parts[0].serving_w)
    for field in ex:
        field.flags.writeable = False
    return ex


@lru_cache(maxsize=256)
def _road_sum_table(rho, mu, alpha, k_max, m):
    """The downlink road sum H_m(k), that of
    ``_road_exponents(rho, k^alpha, alpha, m).reduce(2 mu)``, on k in
    [0, k_max], interpolated in u = k / (k + c).

    c = max(2 rho, k_max / 20): at rho = 0 H_m has a power-law cusp at
    k = 0, which c = k_max / 20 resolves; an exclusion radius rounds the cusp
    off on the scale rho, and c = 2 rho spreads the nodes over it.  The
    Lobatto nodes of degree n are half of those of degree 2 n, so each
    doubling evaluates only the new half, reduced with 2 mu from the cached
    mu-free exponents of :func:`_table_exponents`.

    The bound has two terms.  Twice the sum of the Chebyshev coefficients
    above 3 n / 4 bounds the interpolation error (Trefethen, Approximation
    Theory and Approximation Practice, ch. 3-4: twice the coefficient tail
    beyond n), as long as the coefficients halve at least once over the last
    quarter of the degree, which a series that meets the tolerance does.
    And 4 m^2 eps of the table's scale covers the rounding of the samples
    themselves: the road-sum tensor sums m^2 terms, and the rounding it shows
    grows like m^2 (0.1 to 1.6 m^2 eps measured for m = 24 to 192)."""
    def sample(degree):
        return _table_exponents(rho, alpha, k_max, m, degree).reduce(2.0 * mu)[1]

    n, n_max = _TABLE_DEGREES
    z = _table_nodes(n)
    values = sample(n)
    while True:
        ends = np.ones(n + 1)
        ends[[0, n]] = 0.5
        # Chebyshev coefficients 3 n / 4 < j <= n of the interpolant, from
        # T_j(z_i) = cos(j pi i / n)
        j = np.arange(3 * n // 4 + 1, n + 1)
        tail = np.cos(np.outer(j, np.pi / n * np.arange(n + 1))) @ (ends * values)
        tail[-1] *= 0.5
        scale = float(np.abs(values).max())
        err = (4.0 / n) * float(np.abs(tail).sum()) + 4.0 * m * m * np.finfo(float).eps * scale
        if err <= _TABLE_REL_TOL * max(1.0, scale) or n >= n_max:
            w = ends * (-1.0) ** np.arange(n + 1)
            weights = np.stack([w * values, w], axis=1)
            weights.flags.writeable = False
            z.flags.writeable = False
            return _RoadSumTable(z, weights, err, max(2.0 * rho, k_max / 20.0), k_max)
        at = np.arange(1, n + 1)
        n *= 2
        z = np.insert(z, at, _table_nodes(n))
        values = np.insert(values, at, sample(n))


def _bs_tail_coeff(taus, alpha, spec) -> AnalyticResult:
    """Int_1^inf tau s / (s^alpha + tau) ds and its error bound at every
    threshold of ``taus``: the base-station interference exponent of a
    base-station-served user per unit 2 pi lambda_b x^2, lengths in units of
    the serving distance x.  It is tau^(2/alpha) core, core = Int_lo^inf
    w / (1 + w^alpha) dw with lo = tau^(-1/alpha), split at w = 1 into
    Int_a^1 w / (1 + w^alpha) dw, a = min(lo, 1), and, under v = w^(2 - alpha),
    (1 / (alpha - 2)) Int_0^b dv / (1 + v^(alpha / (alpha - 2))),
    b = min(1, lo^(2 - alpha)): bounded integrands on finite ranges for every
    alpha > 2.  Each threshold maps both ranges onto one s in [0, 1], so all
    share one vector integral.  (8 + 2 |ln tau|) eps core, the rounding of the
    two powers of tau, joins the error."""
    taus = np.asarray(taus, dtype=float)
    a = np.power(taus, -1.0 / alpha, out=np.ones_like(taus), where=taus > 1.0)[..., None]
    b = np.minimum(taus ** (1.0 - 2.0 / alpha), 1.0)[..., None]
    q = alpha / (alpha - 2.0)

    def f(s):
        w = a + (1.0 - a) * s
        return (1.0 - a) * w / (1.0 + w ** alpha) + (b / (alpha - 2.0)) / (1.0 + (b * s) ** q)
    core, err = integrate(f, 0.0, 1.0, spec)
    log_tau = np.log(taus, out=np.zeros_like(taus), where=taus > 0.0)
    rounding = (8.0 + 2.0 * np.abs(log_tau)) * np.finfo(float).eps * core
    scale = taus ** (2.0 / alpha)
    return AnalyticResult(scale * core, scale * (err + rounding))


def _c_alpha(alpha):
    """C_alpha = Int_0^inf w / (w^alpha + 1) dw (Andrews, Baccelli & Ganti,
    IEEE TCOM 2011); k_tot >= 2 C_alpha tau^(2/alpha) for every tau."""
    return (math.pi / alpha) / math.sin(2.0 * math.pi / alpha)


def _gaussian_cut(spec):
    """Where the outer integrals cut: exp(-y_max^2) = min(abs_tol, 1e-10)."""
    return math.sqrt(-math.log(min(spec.abs_tol, 1e-10)))


def _leveled_outer(make_integrand, lower, upper, spec, known_err):
    """Adaptive outer integral with inner-grid doubling until stable;
    ``known_err`` (truncation, inexact coefficients) joins the error bound.

    The adaptive pass at the coarsest inner grid fixes the panel set; finer
    inner grids re-sum the same panels, so successive differences measure the
    inner-grid error alone, free of adaptive stopping noise.  An integrand
    that does not depend on the inner grid stops after one re-sum.  A vector
    integrand re-sums until every component is stable, and each component
    states its own difference.
    """
    prev, outer_err, panels = integrate_with_panels(
        make_integrand(_INNER_LEVELS[0]), lower, upper, spec)
    for m in _INNER_LEVELS[1:]:
        value, outer_err = resum_panels(make_integrand(m), panels)
        diff = abs(value - prev)
        unstable = diff > 0.5 * np.maximum(spec.abs_tol, spec.rel_tol * abs(value))
        if not np.any(unstable):
            return AnalyticResult(value, outer_err + diff + known_err)
        prev = value
    raise NonConvergenceError(
        f"inner grids up to {_INNER_LEVELS[-1]} nodes did not stabilise the "
        f"outer integral (last value {np.ravel(prev)[np.argmax(unstable)]:.6e})")


@lru_cache(maxsize=256)
def _p_assoc_sl(lambda_l, mu, rho, spec: QuadratureSpec = DEFAULT_SPEC) -> AnalyticResult:
    """Probability that the typical user lies within rho of some vehicle, and
    its error bound.

    1 - exp(-2 lambda_l * Int_0^rho 1 - exp(-2 mu sqrt(rho^2 - u^2)) du); the
    square root is removed by u = rho * sin(s) before quadrature.  The
    integral's error reaches the probability through the derivative
    2 lambda_l exp(-2 lambda_l * integral).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0 or lambda_l == 0 or mu == 0:
        return AnalyticResult(0.0, 0.0)

    def f(s):
        return (1.0 - np.exp(-2.0 * mu * rho * np.cos(s))) * rho * np.cos(s)

    inner, inner_err = integrate(f, 0.0, 0.5 * math.pi, spec)
    outside = math.exp(-2.0 * lambda_l * inner)
    return AnalyticResult(1.0 - outside, 2.0 * lambda_l * outside * inner_err)


def p_assoc_sl(lambda_l, mu, rho, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Probability that the typical user lies within rho of some vehicle
    (``_p_assoc_sl`` also gives its error bound)."""
    return _p_assoc_sl(lambda_l, mu, rho, spec).value


def dl_coverage(cfg: NetworkConfig, tau, spec: QuadratureSpec = DEFAULT_SPEC) -> AnalyticResult:
    """Joint probability that the typical user is base-station associated and
    its downlink SIR exceeds ``tau``.

    The outer variable is the nearest-base-station distance.  Substituting
    y = x * sqrt(pi lambda_b k_tot), k_tot = 1 + 2 * bs_coeff, turns the
    base-station factor into 2 y exp(-y^2) / k_tot, which keeps the
    integrand's mass on an O(1) range for every tau; the vehicle factor is
    the road-level sum at radius rho, read from the config's road-sum table
    at k = (tau eta)^(1/alpha) x.

    A sequence of thresholds gives arrays of values and errors in its shape,
    from one adaptive outer rule whose panels serve them all; a scalar gives
    plain (15,) integrands and floats.  The adaptive pass reads the road-sum
    table once per round, for every threshold at all of that round's nodes,
    and a finer inner grid's re-sum once per panel; the panel set refines
    until each threshold meets its own tolerance, and each states its own
    outer error, inner-grid difference, Gaussian tail, coefficient and table
    error.  The base-station coefficients of all thresholds are one vector
    integral (:func:`_bs_tail_coeff`).
    """
    taus = np.asarray(tau, dtype=float)
    if (taus < 0).any():
        raise ValueError("tau must be nonnegative")
    eta = cfg.p_v / cfg.p_b
    alpha = cfg.alpha
    coeff, coeff_err = _bs_tail_coeff(taus, alpha, spec)
    k_tot = 1.0 + 2.0 * coeff
    y_max = _gaussian_cut(spec)
    tail_bound = math.exp(-y_max * y_max) / k_tot
    has_vehicles = cfg.lambda_l > 0 and cfg.mu > 0
    # k_tot >= 2 C_alpha tau^(2/alpha) bounds k at y_max for every tau
    k_max = _K_MAX_MARGIN * y_max * eta ** (1.0 / alpha) / math.sqrt(
        2.0 * _c_alpha(alpha) * math.pi * cfg.lambda_b)
    # one row of nodes per threshold
    k_scale = ((taus * eta) ** (1.0 / alpha) / np.sqrt(math.pi * cfg.lambda_b * k_tot))[..., None]
    weight = (2.0 / k_tot)[..., None]
    table_err = 0.0

    def make_integrand(m):
        nonlocal table_err
        if has_vehicles:
            table = _road_sum_table(cfg.rho, cfg.mu, alpha, k_max, m)
            table_err = max(table_err, table.err)

        def f(y):
            y = np.asarray(y, dtype=float)
            expo = y * y
            if has_vehicles:
                # one table read for every threshold's nodes
                k = k_scale * y
                expo = expo + 2.0 * cfg.lambda_l * table(k.ravel()).reshape(k.shape)
            return weight * y * np.exp(-expo)
        return f

    # the vehicle factor is at most 1, so |dP/dk_tot| <= 1 / k_tot^2 carries
    # the coefficient's error to first order
    coeff_err = 2.0 * coeff_err / (k_tot * k_tot)
    res = _leveled_outer(make_integrand, 0.0, y_max, spec, tail_bound + coeff_err)
    # exp(-2 lambda_l H) moves by at most 2 lambda_l eps_H, and the outer
    # weight 2 y exp(-y^2) / k_tot integrates to at most 1 / k_tot
    err = res.est_abs_error + 2.0 * cfg.lambda_l * table_err / k_tot
    if np.ndim(tau):
        return AnalyticResult(res.value, err)
    return AnalyticResult(float(res.value), float(err))


def sl_coverage(cfg: NetworkConfig, tau, spec: QuadratureSpec = DEFAULT_SPEC) -> AnalyticResult:
    """Joint probability that the typical user is vehicle associated and its
    sidelink SIR exceeds ``tau``.

    The outer variable is the nearest-vehicle distance x in [0, rho].  The
    integrand combines the serving-road factor (density of the nearest
    vehicle on its road, with that road's residual interference), the
    base-station interference exponent (quadratic in x, with the inverse
    power ratio), and the road-level sum at radius x, reduced from the
    inner grid's unit-radius road exponents at v = 2 mu x.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if cfg.rho == 0 or cfg.lambda_l == 0 or cfg.mu == 0:
        return AnalyticResult(0.0, 0.0)
    eta = cfg.p_v / cfg.p_b
    lambda_l, mu, alpha, rho = cfg.lambda_l, cfg.mu, cfg.alpha, cfg.rho
    # exact: a vehicle-served user sees base stations from distance 0
    bs_quad = 2.0 * math.pi * cfg.lambda_b * _c_alpha(alpha) * (tau / eta) ** (2.0 / alpha)

    def make_integrand(m):
        unit = _unit_road_exponents(float(tau), alpha, m)

        def f(x):
            x = np.asarray(x, dtype=float)
            serving, road_sum = unit.reduce(2.0 * mu * x)
            return 4.0 * lambda_l * mu * x * serving * np.exp(
                -bs_quad * x * x - 2.0 * lambda_l * x * road_sum)
        return f

    # For large tau the integrand concentrates near 0 on the 1/sqrt(bs_quad)
    # scale.  The adaptive rule bisects any affine image of the range alike, so
    # only the cut matters: past x_end the Gaussian envelope is below tolerance.
    y_max = _gaussian_cut(spec)
    x_end, tail_bound = rho, 0.0
    if bs_quad * rho * rho > y_max * y_max:
        # envelope: integrand <= 2 pi lambda_l mu x exp(-bs_quad x^2)
        x_end = y_max / math.sqrt(bs_quad)
        tail_bound = (math.pi * lambda_l * mu / bs_quad) * math.exp(-y_max * y_max)
    return _leveled_outer(make_integrand, 0.0, x_end, spec, tail_bound)


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


def _rate_tail(x, alpha):
    """Int_x^inf P_dl(2^t - 1) dt for x >= 1 is at most this, from P_dl(tau)
    <= 1 / k_tot <= 1 / (2 C_alpha tau^(2/alpha)) and 2^t - 1 >= 2^t (1 - 2^-x)."""
    return (alpha / (4.0 * _c_alpha(alpha) * math.log(2.0))
            * (1.0 - 2.0 ** -x) ** (-2.0 / alpha) * 2.0 ** (-2.0 * x / alpha))


@lru_cache(maxsize=256)
def _rate_numerator_of(lambda_l, mu, lambda_b, rho, alpha, eta, spec):
    """lambda_b * Int_0^inf P[bs associated, SIR > 2^x - 1] dx and its error
    bound, on a canonical config with power ratio eta = p_v / p_b.  lambda_u
    never enters, so sweeps over the user density hit the cache.

    The range [0, 1], [1, 2], ..., [hi / 2, hi] ends, before any integrand
    call, at the first hi whose :func:`_rate_tail` is within abs_tol, and that
    tail joins the error; past x = 1024 the thresholds 2^x - 1 overflow, so a
    longer range raises NonConvergenceError.  The segments refine together
    (:func:`integrate_segments`), each to its own tolerance: the nodes of a
    round's new panels, 15 per panel across every segment still above
    tolerance, are one :func:`dl_coverage` call, and the largest of that
    call's errors joins the inner-error ledger."""
    edges = [0.0, 1.0]
    while (tail := _rate_tail(edges[-1], alpha)) > spec.abs_tol:
        if edges[-1] >= sys.float_info.max_exp:  # 2^x overflows past x = 1024
            raise NonConvergenceError(f"rate tail bound still {tail:.3e} at x = 1024")
        edges.append(2.0 * edges[-1])
    cfg = NetworkConfig(lambda_l=lambda_l, mu=mu, lambda_b=lambda_b,
                        lambda_u=1.0, rho=rho, alpha=alpha, p_b=1.0, p_v=eta,
                        epsilon=0.0)
    inner_errors: list[float] = []

    def g(xs):
        res = dl_coverage(cfg, [2.0 ** float(x) - 1.0 for x in xs], spec)
        inner_errors.append(float(res.est_abs_error.max()))
        return res.value

    total = outer_err = 0.0
    for v, e, _ in integrate_segments(g, edges, spec):
        total += v
        outer_err += e
    err = outer_err + max(inner_errors) * edges[-1] + tail
    return AnalyticResult(cfg.lambda_b * total, cfg.lambda_b * err)


def effective_rate_with_error(cfg: NetworkConfig, spec: QuadratureSpec = DEFAULT_SPEC):
    """Long-term downlink rate per user, bits/s/Hz, and its quadrature error
    bound: the mean Shannon rate on the base-station association, divided by
    the mean number of users that share the serving base station.  The bound
    carries the numerator's error and that of P[base-station association].
    Raises ValueError when no user is served by a base station."""
    p_sl = _p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho, spec)
    p_dl = 1.0 - p_sl.value
    if p_dl <= 0:
        raise ValueError("P[base-station association] is 0: no downlink user, "
                         "so the effective rate is undefined")
    num, num_err = _rate_numerator_of(cfg.lambda_l, cfg.mu, cfg.lambda_b, cfg.rho,
                                      cfg.alpha, cfg.p_v / cfg.p_b, spec)
    den = NU * cfg.lambda_u * p_dl
    # p_dl's error reaches the ratio to first order
    rate = num / den
    return AnalyticResult(rate, num_err / den + rate * p_sl.est_abs_error / p_dl)


def _weighted_links(cfg: NetworkConfig, w_sl, w_dl, spec: QuadratureSpec):
    """w_sl * P(SIR > 2^epsilon - 1, SL) + w_dl * effective rate, and its
    quadrature error bound; a term with zero weight is not evaluated."""
    zero = AnalyticResult(0.0, 0.0)
    sl = sl_coverage(cfg, 2.0 ** cfg.epsilon - 1.0, spec) if w_sl > 0 else zero
    rate = effective_rate_with_error(cfg, spec) if w_dl > 0 else zero
    return AnalyticResult(w_sl * sl.value + w_dl * rate.value,
                          w_sl * sl.est_abs_error + w_dl * rate.est_abs_error)


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
