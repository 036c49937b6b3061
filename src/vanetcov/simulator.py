"""Monte Carlo estimators for every metric, from repeated network draws.

The typical user sits at the origin of a disk window.  Per replication the
kernel draws roads, vehicles, base stations and per-transmitter unit-mean
exponential fades, resolves the vehicle-first association, and forms the SIR.
Replications are vectorised in fixed-size batches; each batch owns an RNG
stream spawned from the master seed, so results are bit-reproducible for a
given (seed, batch_size) regardless of how batches are scheduled.

Within a batch every population is one flat array grouped by replication and
described by per-replication start offsets; minima and sums are segment
reductions over it.  The kernel works on squared distances throughout: path
loss is (d^2)^(-alpha/2), association compares with rho^2, and only the
serving distance takes a square root.

Interference beyond the window would bias SIR low-side truncation: with a
path-loss exponent close to 2 the far field decays too slowly to ignore at
any affordable window.  The kernel therefore adds the far field's exact mean
(Campbell's formula over the window exterior) as a deterministic term; the
fluctuation it ignores is second order and the window-doubling guard check
quantifies what remains.  Set ``far_field_compensation=False`` on the plan to
sample the strictly truncated model instead.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig, config_dict
from .geometry import sample_lines, sample_planar_ppp, sample_vehicles

SIDELINK = "SL"
DOWNLINK = "DL"
TOTAL = "Total"

RATE_CAP_BITS = 60.0       # numerical guard on log2(1 + SIR)
PROBES_PER_CELL = 10_000   # hit-or-miss probes for cell-area estimators
DEGENERATE_ABORT_FRACTION = 1e-6


class DegenerateRealizationError(RuntimeError):
    """No serving candidate: no base station in window and no vehicle in range."""


@dataclass(frozen=True)
class SirSample:
    association: str        # SIDELINK or DOWNLINK
    serving_distance: float
    sir: float


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class SimPlan:
    window_radius: float
    n_samples: int
    seed: int
    batch_size: int = 4096
    far_field_compensation: bool = True

    def __post_init__(self):
        if self.window_radius <= 0:
            raise ValueError("window_radius must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def default_window_radius(cfg: NetworkConfig) -> float:
    """Window keeping the serving distance and dominant interferers at least
    an order of magnitude inside the boundary: ten association radii, ten
    mean base-station spacings, and ten mean vehicle spacings."""
    w = max(10.0 * cfg.rho, 10.0 / math.sqrt(math.pi * cfg.lambda_b))
    if cfg.lambda_l > 0 and cfg.mu > 0:
        w = max(w, 10.0 / math.sqrt(cfg.lambda_l * cfg.mu))
    return w


def make_plan(cfg: NetworkConfig, n_samples: int, seed: int,
              window_radius: float | None = None, **kwargs) -> SimPlan:
    """Build a plan, enforcing the window floor for the given scenario."""
    floor = max(10.0 * cfg.rho, 10.0 / math.sqrt(math.pi * cfg.lambda_b))
    if window_radius is None:
        window_radius = default_window_radius(cfg)
    elif window_radius < floor:
        raise ValueError(f"window_radius below the bias floor {floor:.3f} km")
    return SimPlan(window_radius=float(window_radius), n_samples=int(n_samples),
                   seed=int(seed), **kwargs)


def far_field_mean(cfg: NetworkConfig, window_radius: float) -> float:
    """Mean interference power (units of p_b) from all transmitters beyond
    the window: 2 pi (lambda_b + eta lambda_l mu) R^(2-alpha)/(alpha-2).

    Both populations have constant mean intensity, so Campbell's formula over
    the window exterior needs nothing beyond their area densities; the
    road-bound process contributes lambda_l * mu points per unit area.
    """
    eta = cfg.p_v / cfg.p_b
    dens = cfg.lambda_b + eta * cfg.lambda_l * cfg.mu
    return 2.0 * math.pi * dens * window_radius ** (2.0 - cfg.alpha) / (cfg.alpha - 2.0)


# ---------------------------------------------------------------------------
# segmented reductions over replication-grouped flat arrays
# ---------------------------------------------------------------------------

def _segment_starts(counts):
    """Offsets of consecutive count-sized segments with the total appended:
    segment i is [starts[i], starts[i + 1])."""
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def _segment_reduce(ufunc, values, starts, empty):
    """ufunc reduced over each segment; empty segments hold ``empty``."""
    lo = starts[:-1]
    nonempty = starts[1:] > lo
    out = np.full(lo.size, empty)
    if values.size:
        out[nonempty] = ufunc.reduceat(values, lo[nonempty])
    return out


def _first_min_index(d2, starts, d2_min, rows):
    """Flat index of the first entry equal to its segment minimum, for each
    segment in ``rows`` (all nonempty).  Only entries at or below the largest
    requested minimum can match, so the search runs on that subset."""
    if rows.size == 0:
        return rows
    cand = np.flatnonzero(d2 <= d2_min[rows].max())
    seg = np.searchsorted(starts, cand, side="right") - 1
    hit = d2[cand] == d2_min[seg]
    cand, seg = cand[hit], seg[hit]
    return cand[np.searchsorted(seg, rows)]


# ---------------------------------------------------------------------------
# SIR sampling
# ---------------------------------------------------------------------------

@dataclass
class SirBatch:
    """Vectorised draws of (association, serving distance, SIR)."""
    is_sl: np.ndarray
    serving_distance: np.ndarray
    sir: np.ndarray
    n_degenerate: int
    seed: int
    window_radius: float

    def __len__(self):
        return self.is_sl.size

    def dl_rate_samples(self):
        """log2(1 + SIR) on downlink samples, capped; returns (values, hits)."""
        raw = np.log1p(np.minimum(self.sir, 2.0 ** 80)) / math.log(2.0)
        hits = int(np.count_nonzero((raw > RATE_CAP_BITS) & ~self.is_sl))
        return np.where(self.is_sl, 0.0, np.minimum(raw, RATE_CAP_BITS)), hits


def _received_power(fade, d2, alpha):
    """fade * d2^(-alpha/2) computed in place in ``fade``; returns it.

    For integer alpha the path loss is repeated division by d2 and at most
    one square root (written into ``d2``), several times cheaper than the
    general pow; other exponents overwrite ``d2`` with d2^(-alpha/2).
    """
    if alpha != math.floor(alpha):
        fade *= np.power(d2, -0.5 * alpha, out=d2)
        return fade
    k, odd = divmod(int(alpha), 2)
    for _ in range(k):
        fade /= d2
    if odd:
        fade /= np.sqrt(d2, out=d2)
    return fade


def _resolve_sir(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b, fade_b):
    """Association, serving distance and SIR per replication.

    Vehicles and base stations are flat arrays of squared distances and
    unit-mean fades grouped by replication (segment i of each population is
    [starts[i], starts[i + 1])).  ``m_far`` is the deterministic far-field
    interference added to every row.  Returns (is_sl, serving_distance, sir,
    degenerate); degenerate rows have no vehicle within rho and no base
    station, and their other outputs are meaningless.  The fade arrays are
    overwritten with received powers and the d2 arrays with scratch values.
    """
    dv2_min = _segment_reduce(np.minimum, d2_v, veh_starts, np.inf)
    db2_min = _segment_reduce(np.minimum, d2_b, bs_starts, np.inf)
    is_sl = dv2_min <= cfg.rho * cfg.rho
    degenerate = ~is_sl & np.isinf(db2_min)
    sl_rows = np.flatnonzero(is_sl)
    dl_rows = np.flatnonzero(~is_sl & ~degenerate)

    iv = _first_min_index(d2_v, veh_starts, dv2_min, sl_rows)
    ib = _first_min_index(d2_b, bs_starts, db2_min, dl_rows)

    pw_v = _received_power(fade_v, d2_v, cfg.alpha)
    pw_v *= cfg.p_v / cfg.p_b
    pw_b = _received_power(fade_b, d2_b, cfg.alpha)

    # The serving term is taken out of the sum, not subtracted from the
    # total: at a large SIR the subtraction would leave mostly rounding.
    serving_pw = np.zeros(is_sl.size)
    serving_pw[sl_rows] = pw_v[iv]
    pw_v[iv] = 0.0
    serving_pw[dl_rows] = pw_b[ib]
    pw_b[ib] = 0.0
    interference = _segment_reduce(np.add, pw_v, veh_starts, 0.0)
    interference += _segment_reduce(np.add, pw_b, bs_starts, 0.0)
    interference += m_far
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = np.divide(serving_pw, interference, out=serving_pw)
    serving_d = np.sqrt(np.where(is_sl, dv2_min, db2_min))
    return is_sl, serving_d, sir, degenerate


def _sir_chunk(cfg, plan, n, rng, depth=0):
    """One vectorised batch of n replications; resamples degenerate rows."""
    R = plan.window_radius
    # Poisson(0) draws nothing, so road-free configs consume no stream here
    line_starts = _segment_starts(rng.poisson(2.0 * cfg.lambda_l * R, n))
    r_l = rng.uniform(-R, R, line_starts[-1])
    r2 = r_l * r_l
    half = np.sqrt(np.maximum(R * R - r2, 0.0))
    n_veh = rng.poisson(2.0 * cfg.mu * half)
    veh_offsets = _segment_starts(n_veh)
    # a vehicle at chord position s*half on the line at distance r_l
    d2_v = rng.uniform(-1.0, 1.0, veh_offsets[-1])
    d2_v *= np.repeat(half, n_veh)
    d2_v *= d2_v
    d2_v += np.repeat(r2, n_veh)

    bs_starts = _segment_starts(rng.poisson(cfg.lambda_b * math.pi * R * R, n))
    d2_b = rng.random(bs_starts[-1])
    d2_b *= R * R

    fade_v = rng.standard_exponential(d2_v.size)
    fade_b = rng.standard_exponential(d2_b.size)
    m_far = far_field_mean(cfg, R) if plan.far_field_compensation else 0.0
    is_sl, serving_d, sir, degenerate = _resolve_sir(
        cfg, m_far, veh_offsets[line_starts], d2_v, fade_v, bs_starts, d2_b, fade_b)

    n_deg = int(np.count_nonzero(degenerate))
    if n_deg:
        if depth > 8:
            raise DegenerateRealizationError(
                "degenerate realizations persist after repeated resampling")
        redo = _sir_chunk(cfg, plan, n_deg, rng, depth + 1)
        where = np.flatnonzero(degenerate)
        is_sl[where] = redo.is_sl
        serving_d[where] = redo.serving_distance
        sir[where] = redo.sir
        n_deg += redo.n_degenerate
    return SirBatch(is_sl, serving_d, sir, n_deg, plan.seed, R)


def _batches(plan: SimPlan, seed_sequence=None):
    """(size, rng) per fixed-size batch of plan.n_samples; each batch owns a
    child stream spawned from the seed sequence (default: the plan seed)."""
    ss = seed_sequence if seed_sequence is not None else np.random.SeedSequence(plan.seed)
    n = plan.n_samples
    sizes = [plan.batch_size] * (n // plan.batch_size)
    if n % plan.batch_size:
        sizes.append(n % plan.batch_size)
    return [(size, np.random.default_rng(child))
            for size, child in zip(sizes, ss.spawn(len(sizes)))]


def draw_sir_samples(cfg: NetworkConfig, plan: SimPlan,
                     seed_sequence: np.random.SeedSequence | None = None) -> SirBatch:
    """Draw plan.n_samples SIR samples in reproducible fixed-size batches."""
    n = plan.n_samples
    chunks = [_sir_chunk(cfg, plan, size, rng)
              for size, rng in _batches(plan, seed_sequence)]
    batch = SirBatch(
        np.concatenate([c.is_sl for c in chunks]),
        np.concatenate([c.serving_distance for c in chunks]),
        np.concatenate([c.sir for c in chunks]),
        sum(c.n_degenerate for c in chunks),
        plan.seed, plan.window_radius,
    )
    if batch.n_degenerate > DEGENERATE_ABORT_FRACTION * max(n, 1) + 1:
        raise DegenerateRealizationError(
            f"{batch.n_degenerate} degenerate realizations out of {n}; "
            "window too small for the configured densities")
    return batch


def sample_sir(real, cfg: NetworkConfig, rng) -> SirSample:
    """One SIR draw from an explicit realization (window-truncated model).

    Association follows the vehicle-first rule: the nearest vehicle within
    rho serves if one exists, otherwise the nearest base station.  Fresh
    unit-mean exponential fades are drawn per transmitter.  An empty
    interference set yields the +inf sentinel.
    """
    eta = cfg.p_v / cfg.p_b
    d_v = np.hypot(real.vehicles.x, real.vehicles.y)
    bs = np.atleast_2d(real.base_stations) if len(real.base_stations) else np.empty((0, 2))
    d_b = np.hypot(bs[:, 0], bs[:, 1]) if bs.size else np.empty(0)

    dv_min = float(np.min(d_v)) if d_v.size else math.inf
    db_min = float(np.min(d_b)) if d_b.size else math.inf
    is_sl = dv_min <= cfg.rho
    if not is_sl and not d_b.size:
        raise DegenerateRealizationError("no base station and no vehicle within rho")

    pw_v = eta * rng.exponential(1.0, d_v.size) * np.power(d_v, -cfg.alpha) if d_v.size else np.empty(0)
    pw_b = rng.exponential(1.0, d_b.size) * np.power(d_b, -cfg.alpha) if d_b.size else np.empty(0)
    # the serving power is left out of the sum, not subtracted from the
    # total: at a large SIR the subtraction would leave mostly rounding
    if is_sl:
        serve = int(np.argmin(d_v))
        signal = float(pw_v[serve])
        interference = float(np.delete(pw_v, serve).sum() + pw_b.sum())
        serving_d = dv_min
    else:
        serve = int(np.argmin(d_b))
        signal = float(pw_b[serve])
        interference = float(pw_v.sum() + np.delete(pw_b, serve).sum())
        serving_d = db_min
    sir = float(signal / interference) if interference > 0 else math.inf
    return SirSample(SIDELINK if is_sl else DOWNLINK, serving_d, sir)


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------

def _association_chunk(cfg, n, rng):
    """Exact draw of the vehicle-association indicator.

    The event depends only on the vehicle process inside the association
    disk, whose restriction is sampled directly: roads hitting the disk are
    Poisson(2 lambda_l rho) and each carries Poisson vehicles on its chord.
    """
    if cfg.rho == 0 or cfg.lambda_l == 0 or cfg.mu == 0:
        return np.zeros(n, dtype=bool)
    k = rng.poisson(2.0 * cfg.lambda_l * cfg.rho, n)
    rep = np.repeat(np.arange(n), k)
    r = rng.uniform(-cfg.rho, cfg.rho, rep.size)
    occupied = rng.poisson(2.0 * cfg.mu * np.sqrt(cfg.rho ** 2 - r * r)) > 0
    hits = np.bincount(rep, weights=occupied, minlength=n)
    return hits > 0


def _proportion_estimate(indicator, plan) -> Estimate:
    n = indicator.size
    p = float(np.count_nonzero(indicator)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, se, n, plan.seed)


def estimate_association(cfg: NetworkConfig, plan: SimPlan):
    """(sidelink, downlink) association estimates; the per-sample indicators
    are complementary, so the two means sum to one exactly."""
    parts = [_association_chunk(cfg, size, rng) for size, rng in _batches(plan)]
    is_sl = np.concatenate(parts) if parts else np.zeros(0, dtype=bool)
    sl = _proportion_estimate(is_sl, plan)
    return sl, Estimate(1.0 - sl.mean, sl.std_error, sl.n_samples, sl.seed)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def _coverage_indicator(batch: SirBatch, tau, link):
    above = batch.sir > tau
    if link == SIDELINK:
        return above & batch.is_sl
    if link == DOWNLINK:
        return above & ~batch.is_sl
    if link == TOTAL:
        return above
    raise ValueError(f"unknown link {link!r}")


def estimate_coverage(cfg: NetworkConfig, tau, link, plan: SimPlan,
                      samples: SirBatch | None = None) -> Estimate:
    """Joint probability of (SIR > tau together with the given association);
    link=Total gives the samplewise sum of the two joint events."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    batch = samples if samples is not None else draw_sir_samples(cfg, plan)
    return _proportion_estimate(_coverage_indicator(batch, tau, link), plan)


def estimate_coverage_grid(cfg: NetworkConfig, taus, plan: SimPlan,
                           samples: SirBatch | None = None):
    """Estimates for every (link, tau) pair from one common sample set,
    so decomposition and tau-monotonicity hold exactly samplewise."""
    batch = samples if samples is not None else draw_sir_samples(cfg, plan)
    out = {}
    for tau in taus:
        for link in (SIDELINK, DOWNLINK, TOTAL):
            out[(link, float(tau))] = _proportion_estimate(
                _coverage_indicator(batch, tau, link), plan)
    return out


# ---------------------------------------------------------------------------
# zero cell, cell-area moments, effective rate
# ---------------------------------------------------------------------------

def _disk_points(center, radius, n, rng):
    rad = radius * np.sqrt(rng.random(n))
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    return center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _cell_member_mask(points, nucleus, competitors):
    """True per point iff it is closer to ``nucleus`` than to every
    competitor: a half-plane test against each perpendicular bisector,
    ((p - nucleus) . c) < |c|^2 / 2 with c = competitor - nucleus.

    Screening against the nearest few competitors first settles almost every
    point before the full test runs on the survivors.
    """
    if points.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if competitors.shape[0] == 0:
        return np.ones(points.shape[0], dtype=bool)
    q = points - nucleus
    c = competitors - nucleus
    norms = np.einsum("ij,ij->i", c, c)
    order = np.argsort(norms)
    c = c[order]
    half = 0.5 * norms[order]
    k0 = min(16, c.shape[0])
    alive = np.all(q @ c[:k0].T < half[:k0], axis=1)
    if c.shape[0] > k0 and alive.any():
        idx = np.flatnonzero(alive)
        alive[idx] = np.all(q[idx] @ c[k0:].T < half[k0:], axis=1)
    return alive


def _near_any_vehicle(points, vehicle_xy, rho):
    """True per point iff some vehicle lies within the closed rho-ball."""
    if points.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if vehicle_xy.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    dx = points[:, 0, None] - vehicle_xy[None, :, 0]
    dy = points[:, 1, None] - vehicle_xy[None, :, 1]
    return np.any(dx * dx + dy * dy <= rho * rho, axis=1)


def _zero_cell_replication(cfg, rng, want_load, want_areas=True):
    """One zero-cell draw.

    Returns hit-or-miss areas (inside / outside the vehicle region) and, when
    asked, the user count of the cell outside the vehicle region.  The cell
    nucleus is the base station nearest the origin; membership tests use the
    nearest-base-station rule directly, no polygon construction.  Probe and
    user sampling is confined to a disk around the nucleus large enough that
    the chance of any cell area outside it is negligible (< 1e-20).
    """
    lam = cfg.lambda_b
    bs_window = 10.0 / math.sqrt(lam)
    probe_radius = 4.0 / math.sqrt(lam)
    while True:
        bs = sample_planar_ppp(lam, bs_window, rng)
        if len(bs):
            break
    d0 = np.hypot(bs[:, 0], bs[:, 1])
    zi = int(np.argmin(d0))
    nucleus = bs[zi]
    others = np.delete(bs, zi, axis=0)

    veh_window = float(d0[zi]) + probe_radius + cfg.rho + 1e-9
    lines = sample_lines(cfg.lambda_l, veh_window, rng) if cfg.lambda_l > 0 else None
    veh_xy = (sample_vehicles(lines, cfg.mu, rng).positions
              if lines is not None and cfg.mu > 0 else np.empty((0, 2)))

    def split(points):
        member = points[_cell_member_mask(points, nucleus, others)]
        if member.shape[0] == 0:
            return 0, 0
        inside = int(np.count_nonzero(_near_any_vehicle(member, veh_xy, cfg.rho)))
        return inside, member.shape[0] - inside

    area_in = area_out = None
    if want_areas:
        probes = _disk_points(nucleus, probe_radius, PROBES_PER_CELL, rng)
        hit_in, hit_out = split(probes)
        area_scale = math.pi * probe_radius ** 2 / PROBES_PER_CELL
        area_in, area_out = hit_in * area_scale, hit_out * area_scale

    load = None
    if want_load:
        n_users = rng.poisson(cfg.lambda_u * math.pi * probe_radius ** 2)
        _, load = split(_disk_points(nucleus, probe_radius, n_users, rng))
    return area_in, area_out, load


def _mean_estimate(values, plan) -> Estimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(float(np.mean(values)), se, n, plan.seed)


def estimate_zero_cell_areas(cfg: NetworkConfig, plan: SimPlan):
    """Hit-or-miss estimates of the mean serving-cell area inside and outside
    the vehicle region; returns (inside, outside) Estimates."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    areas_in = np.empty(plan.n_samples)
    areas_out = np.empty(plan.n_samples)
    for i in range(plan.n_samples):
        areas_in[i], areas_out[i], _ = _zero_cell_replication(cfg, rng, False)
    return _mean_estimate(areas_in, plan), _mean_estimate(areas_out, plan)


def estimate_zero_cell_load(cfg: NetworkConfig, plan: SimPlan) -> Estimate:
    """Mean number of users sharing the typical user's base station: an
    independent user process is drawn and counted over the serving cell minus
    the vehicle region."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    loads = np.empty(plan.n_samples)
    for i in range(plan.n_samples):
        loads[i] = _zero_cell_replication(cfg, rng, True, want_areas=False)[2]
    return _mean_estimate(loads, plan)


def estimate_voronoi_area_moment(lambda_b, plan: SimPlan) -> Estimate:
    """Second moment of the typical cell area of a Poisson-Voronoi
    tessellation of intensity lambda_b.

    Conditioning a point at the origin (Slivnyak) makes its cell the typical
    cell.  Hit-or-miss probes give an unbiased squared area through pair
    counting: E[h (h - 1)] / (M (M - 1)) = (area / S)^2 for h hits out of M
    probes over a probe region of area S.
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    window = 8.0 / math.sqrt(lambda_b)
    probe_radius = 4.0 / math.sqrt(lambda_b)
    region_area = math.pi * probe_radius ** 2
    m = PROBES_PER_CELL
    origin = np.zeros(2)
    vals = np.empty(plan.n_samples)
    for i in range(plan.n_samples):
        competitors = sample_planar_ppp(lambda_b, window, rng)
        probes = _disk_points(origin, probe_radius, m, rng)
        h = int(np.count_nonzero(_cell_member_mask(probes, origin, competitors)))
        vals[i] = region_area ** 2 * h * (h - 1) / (m * (m - 1))
    return _mean_estimate(vals, plan)


def estimate_effective_rate(cfg: NetworkConfig, plan: SimPlan,
                            load_replications: int | None = None) -> Estimate:
    """Ratio estimator for the effective downlink rate: mean downlink Shannon
    rate over the mean user count sharing the serving base station.

    Numerator and denominator run on independent streams spawned from the
    plan seed; the standard error combines both by the delta method.
    """
    ss = np.random.SeedSequence(plan.seed)
    ss_num, ss_den = ss.spawn(2)
    batch = draw_sir_samples(cfg, plan, seed_sequence=ss_num)
    rate, cap_hits = batch.dl_rate_samples()
    if cap_hits:
        warnings.warn(f"{cap_hits} of {len(batch)} rate samples hit the "
                      f"{RATE_CAP_BITS} bits/s/Hz cap", RuntimeWarning,
                      stacklevel=2)
    num = float(np.mean(rate))
    num_se = float(np.std(rate, ddof=1) / math.sqrt(rate.size))

    reps = load_replications if load_replications is not None \
        else max(1000, plan.n_samples // 20)
    rng = np.random.default_rng(ss_den)
    loads = np.empty(reps)
    for i in range(reps):
        loads[i] = _zero_cell_replication(cfg, rng, True, want_areas=False)[2]
    den = float(np.mean(loads))
    den_se = float(np.std(loads, ddof=1) / math.sqrt(reps))
    if den <= 0:
        raise ZeroDivisionError("zero-cell load estimate is zero; raise lambda_u")
    mean = num / den
    se = abs(mean) * math.sqrt((num_se / num) ** 2 + (den_se / den) ** 2) if num > 0 else num_se / den
    return Estimate(mean, se, plan.n_samples, plan.seed)


def summary_row(cfg: NetworkConfig, metric: str, est: Estimate,
                window_radius: float) -> dict:
    """Flat per-run summary: config fields plus the estimate."""
    row = config_dict(cfg)
    row.update(metric=metric, mean=est.mean, std_error=est.std_error,
               n_samples=est.n_samples, seed=est.seed,
               window_radius=window_radius)
    return row
