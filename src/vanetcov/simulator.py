"""Monte Carlo estimators for every metric, from repeated network draws.

The typical user sits at the origin of a disk window.  Per replication the
kernel draws roads, vehicles, base stations and per-transmitter unit-mean
exponential fades, resolves the vehicle-first association, and forms the SIR.
Replications are vectorised in batches of BATCH_SIZE = 1,024; each batch
owns an RNG stream spawned from the master seed, so the seed alone fixes
every result, however the batches are scheduled.  ``_map_batches`` runs the
batches of one call on a thread pool with one worker per available CPU:
numpy's random fills and ufuncs release the interpreter lock, so batches
really run at once.  At most MAX_WORKERS = 4 batches in flight bound the
kernel's memory; a run of a single batch starts no thread, and a pool task
never submits to a pool.

Within a batch every population is one flat array grouped by replication and
described by per-replication start offsets; minima and sums are segment
reductions over it.  The kernel works on squared distances throughout: path
loss is (d^2)^(-alpha/2) and association compares with rho^2.

Interference beyond the window would bias SIR low-side truncation: with a
path-loss exponent close to 2 the far field decays too slowly to ignore at
any affordable window.  The kernel therefore adds the far field's exact mean
(Campbell's formula over the window exterior) as a deterministic term; the
fluctuation it ignores is second order and the window-doubling guard check
quantifies what remains.

The cell estimators need no window: they build each replication's Voronoi
cell exactly, as a convex polygon clipped by one bisector per base station in
order of distance, and stop once no farther base station can cut it.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import NetworkConfig

SIDELINK = "SL"
DOWNLINK = "DL"
TOTAL = "Total"

RATE_CAP_BITS = 60.0       # numerical guard on log2(1 + SIR)
DEGENERATE_ABORT_FRACTION = 1e-6
BATCH_SIZE = 1024          # replications per batch, each with its own stream
MAX_WORKERS = 4            # batches in flight at once


class DegenerateRealizationError(RuntimeError):
    """No serving candidate: no base station in window and no vehicle in range."""


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class SimPlan:
    """Sample count and seed of one Monte Carlo run, and the window of the
    SIR kernel.  The cell estimators (Voronoi moment, zero-cell areas and
    load, the effective rate's denominator) build exact cells and ignore
    ``window_radius``.

    Replications are drawn in batches of BATCH_SIZE, each with its own random
    stream, so the seed fixes every result.  Batches run on a thread pool of
    at most MAX_WORKERS workers, capped by the CPUs available; a plan of one
    batch runs without threads."""
    window_radius: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.window_radius <= 0:
            raise ValueError("window_radius must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _window_floor(cfg: NetworkConfig) -> float:
    """The smallest unbiased window: ten association radii and ten mean
    base-station spacings."""
    return max(10.0 * cfg.rho, 10.0 / math.sqrt(math.pi * cfg.lambda_b))


def default_window_radius(cfg: NetworkConfig) -> float:
    """Window keeping the serving distance and dominant interferers at least
    an order of magnitude inside the boundary: the window floor, and ten
    mean vehicle spacings."""
    w = _window_floor(cfg)
    if cfg.lambda_l > 0 and cfg.mu > 0:
        w = max(w, 10.0 / math.sqrt(cfg.lambda_l * cfg.mu))
    return w


def make_plan(cfg: NetworkConfig, n_samples: int, seed: int,
              window_radius: float | None = None) -> SimPlan:
    """Build a plan, enforcing the window floor for the given scenario."""
    floor = _window_floor(cfg)
    if window_radius is None:
        window_radius = default_window_radius(cfg)
    elif window_radius < floor:
        raise ValueError(f"window_radius below the bias floor {floor:.3f} km")
    return SimPlan(window_radius=float(window_radius), n_samples=int(n_samples),
                   seed=int(seed))


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
    """Vectorised draws of (association, SIR)."""
    is_sl: np.ndarray
    sir: np.ndarray
    n_degenerate: int

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
    """Association and SIR per replication.

    Vehicles and base stations are flat arrays of squared distances and
    unit-mean fades grouped by replication (segment i of each population is
    [starts[i], starts[i + 1])).  ``m_far`` is the deterministic far-field
    interference added to every row.  Returns (is_sl, sir, degenerate);
    degenerate rows have no vehicle within rho and no base station, and their
    other outputs are meaningless.  The fade arrays are overwritten with
    received powers and the d2 arrays with scratch values.
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
    return is_sl, sir, degenerate


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
    is_sl, sir, degenerate = _resolve_sir(
        cfg, far_field_mean(cfg, R), veh_offsets[line_starts], d2_v, fade_v,
        bs_starts, d2_b, fade_b)

    n_deg = int(np.count_nonzero(degenerate))
    if n_deg:
        if depth > 8:
            raise DegenerateRealizationError(
                "degenerate realizations persist after repeated resampling")
        redo = _sir_chunk(cfg, plan, n_deg, rng, depth + 1)
        where = np.flatnonzero(degenerate)
        is_sl[where] = redo.is_sl
        sir[where] = redo.sir
        n_deg += redo.n_degenerate
    return SirBatch(is_sl, sir, n_deg)


def _batches(plan: SimPlan, seed_sequence=None):
    """(size, rng) per fixed-size batch of plan.n_samples; each batch owns a
    child stream spawned from the seed sequence (default: the plan seed)."""
    ss = seed_sequence if seed_sequence is not None else np.random.SeedSequence(plan.seed)
    n = plan.n_samples
    sizes = [BATCH_SIZE] * (n // BATCH_SIZE)
    if n % BATCH_SIZE:
        sizes.append(n % BATCH_SIZE)
    return [(size, np.random.default_rng(child))
            for size, child in zip(sizes, ss.spawn(len(sizes)))]


def _available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_batches(fn, batches):
    """[fn(size, rng) for (size, rng) in batches], in batch order.

    Batches run on a thread pool made for this call, with one worker per
    available CPU, no more workers than batches, and at most MAX_WORKERS.
    Each batch draws only from its own generator, so the results do not
    depend on the number of workers.  With one batch or one worker this is a
    plain loop and starts no thread.  ``fn`` must not call this helper: a
    pool task never submits to a pool.  The first exception a batch raises
    propagates, and batches not yet started are cancelled.
    """
    workers = min(len(batches), _available_cpus(), MAX_WORKERS)
    if workers <= 1:
        return [fn(size, rng) for size, rng in batches]
    from concurrent.futures import ThreadPoolExecutor  # only threaded calls pay the import
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*batches)))


def draw_sir_samples(cfg: NetworkConfig, plan: SimPlan,
                     seed_sequence: np.random.SeedSequence | None = None) -> SirBatch:
    """Draw plan.n_samples SIR samples in reproducible fixed-size batches."""
    n = plan.n_samples
    chunks = _map_batches(lambda size, rng: _sir_chunk(cfg, plan, size, rng),
                          _batches(plan, seed_sequence))
    batch = SirBatch(
        np.concatenate([c.is_sl for c in chunks]),
        np.concatenate([c.sir for c in chunks]),
        sum(c.n_degenerate for c in chunks),
    )
    if batch.n_degenerate > DEGENERATE_ABORT_FRACTION * max(n, 1) + 1:
        raise DegenerateRealizationError(
            f"{batch.n_degenerate} degenerate realizations out of {n}; "
            "window too small for the configured densities")
    return batch


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


def _proportion_estimate(indicator) -> Estimate:
    n = indicator.size
    p = float(np.count_nonzero(indicator)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, se, n)


def estimate_association(cfg: NetworkConfig, plan: SimPlan):
    """(sidelink, downlink) association estimates; the per-sample indicators
    are complementary, so the two means sum to one exactly.

    The batches run in a plain loop: each costs about 0.1 ms, less than
    handing it to a thread pool."""
    is_sl = np.concatenate([_association_chunk(cfg, size, rng)
                            for size, rng in _batches(plan)])
    sl = _proportion_estimate(is_sl)
    return sl, Estimate(1.0 - sl.mean, sl.std_error, sl.n_samples)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def _coverage_indicator(batch: SirBatch, tau, link):
    above = batch.sir > tau
    if link == SIDELINK:
        return above & batch.is_sl
    if link == DOWNLINK:
        return above & ~batch.is_sl
    return above


def estimate_coverage_grid(cfg: NetworkConfig, taus, plan: SimPlan,
                           samples: SirBatch | None = None):
    """Joint probability of (SIR > tau together with each association) for
    every (link, tau) pair, link=Total being the samplewise sum of the two
    joint events.  All pairs share one sample set, so decomposition and
    tau-monotonicity hold exactly samplewise.

    tau = 0 asks for SIR > 0, which holds wherever the serving signal is
    nonzero: the grid then gives the association fractions, as ``analytic.sl_coverage`` and
    ``dl_coverage`` give the association probabilities at tau = 0.
    """
    if any(tau < 0 for tau in taus):
        raise ValueError("tau must be nonnegative")
    batch = samples if samples is not None else draw_sir_samples(cfg, plan)
    out = {}
    for tau in taus:
        for link in (SIDELINK, DOWNLINK, TOTAL):
            out[(link, float(tau))] = _proportion_estimate(
                _coverage_indicator(batch, tau, link))
    return out


# ---------------------------------------------------------------------------
# zero cell, cell-area moments, effective rate
# ---------------------------------------------------------------------------

CELL_SQUARE_HALF_SIDE = 16.0  # start square, in units of 1 / sqrt(lambda_b)
AREA_PROBES = 256             # probes per cell for the inside/outside split
PAIR_BUDGET = 1 << 16         # point-line pairs held at once


def _next_vertex(m, width):
    """Column of each vertex's successor in (n, width) padded polygons whose
    row i has m[i] valid vertices: k + 1, wrapping to 0 at the last one."""
    col = np.arange(width)
    return np.where(col + 1 < m[:, None], col + 1, 0)


def _clip(q, m, c):
    """Clip each convex polygon to the nucleus side of one bisector.

    Coordinates are nucleus-relative, so the bisector between the nucleus and
    a competitor at c bounds the half-plane x . c <= |c|^2 / 2.  ``q`` is
    (k, V, 2) with the first m[i] vertices of row i valid, counter-clockwise,
    zeros after them.  Sutherland-Hodgman on every edge at once: a vertex is
    kept if inside, and an edge whose ends lie on opposite sides adds its
    crossing right after its first end, so the order stays counter-clockwise.
    The nucleus is strictly inside, so no polygon is clipped away.
    """
    nxt = _next_vertex(m, q.shape[1])
    s = np.einsum("kvj,kj->kv", q, c)
    s -= 0.5 * np.einsum("kj,kj->k", c, c)[:, None]
    s_next = np.take_along_axis(s, nxt, axis=1)
    valid = np.arange(q.shape[1]) < m[:, None]
    inside = s <= 0.0
    keep = valid & inside
    cross = valid & (inside != (s_next <= 0.0))
    emit = keep.astype(np.int64) + cross
    pos = np.cumsum(emit, axis=1) - emit
    m_new = pos[:, -1] + emit[:, -1]
    out = np.zeros((q.shape[0], int(m_new.max()), 2))
    r, v = np.nonzero(keep)
    out[r, pos[r, v]] = q[r, v]
    r, v = np.nonzero(cross)
    a, b = q[r, v], q[r, nxt[r, v]]
    t = s[r, v] / (s[r, v] - s_next[r, v])
    out[r, pos[r, v] + keep[r, v]] = a + t[:, None] * (b - a)
    return out, m_new


def _voronoi_cells(lambda_b, n, rng, zero_cell):
    """Exact Poisson-Voronoi cells of n independent replications.

    Base stations arrive in order of distance from the origin:
    pi lambda_b r_k^2 is a unit-rate Poisson process and the angles are
    uniform.  The typical cell (Slivnyak) has its nucleus at the origin and
    every arrival as a competitor; the zero cell has the first arrival as its
    nucleus (placed on the positive x axis, by isotropy) and every later one
    as a competitor.  Each row starts as a square around its nucleus and is
    clipped by one competitor's bisector per step until the next arrival can
    no longer cut it: its distance from the nucleus, at least r_next - d0,
    exceeds twice the farthest vertex's.  Later arrivals are farther still,
    so the polygon is the exact cell once no vertex of the square is left.

    Returns (q, m): (n, V, 2) nucleus-relative vertices, counter-clockwise
    and zero-padded, and the vertex count of each row.
    """
    arrival = rng.standard_exponential(n)
    d0 = np.zeros(n)
    if zero_cell:
        d0 = np.sqrt(arrival / (math.pi * lambda_b))
        arrival += rng.standard_exponential(n)
    half = CELL_SQUARE_HALF_SIDE / math.sqrt(lambda_b)
    square = np.array([[half, -half], [half, half], [-half, half], [-half, -half]])
    q = np.broadcast_to(square, (n, 4, 2)).copy()
    m = np.full(n, 4)
    rows = np.arange(n)
    done = []
    while True:
        r_next = np.sqrt(arrival / (math.pi * lambda_b))
        gap = r_next - d0
        closed = gap * gap > 4.0 * np.einsum("kvj,kvj->kv", q, q).max(axis=1)
        if closed.any():
            done.append((rows[closed], q[closed], m[closed]))
            keep = ~closed
            rows, q, m, arrival, r_next, d0 = (
                rows[keep], q[keep], m[keep], arrival[keep], r_next[keep], d0[keep])
            if not rows.size:
                break
        theta = rng.uniform(0.0, 2.0 * math.pi, rows.size)
        c = np.column_stack([r_next * np.cos(theta) - d0, r_next * np.sin(theta)])
        q, m = _clip(q, m, c)
        arrival += rng.standard_exponential(rows.size)

    out = np.zeros((n, max(part[1].shape[1] for part in done), 2))
    counts = np.empty(n, dtype=np.int64)
    for idx, qq, mm in done:
        out[idx, :qq.shape[1]] = qq
        counts[idx] = mm
    # a vertex left on the start square means the cell may reach beyond it;
    # the disk around that vertex through the nucleus, of radius at least
    # CELL_SQUARE_HALF_SIDE spacings, would hold no base station: about
    # exp(-256 pi)
    if np.any(np.abs(out) >= half):
        raise RuntimeError("a Voronoi cell reaches its start square")
    return out, counts


def _fan_areas(q, m):
    """(n, V) areas of the triangles (nucleus, q_k, q_k+1) that fan out each
    polygon; they sum to its area, and padded columns hold zeros."""
    qn = np.take_along_axis(q, _next_vertex(m, q.shape[1])[..., None], axis=1)
    return 0.5 * (q[..., 0] * qn[..., 1] - q[..., 1] * qn[..., 0])


def _points_in_cells(q, m, tri, counts, rng):
    """counts[i] points uniform in polygon i, grouped by row.

    A multinomial draw spreads each row's points over its fan triangles in
    proportion to their areas ``tri``; a point in the triangle (nucleus, a, b)
    is u a + v b with (u, v) uniform on the unit triangle.  Returns the
    nucleus-relative points (k, 2).
    """
    per_tri = rng.multinomial(counts, tri / tri.sum(axis=1, keepdims=True))
    flat = np.repeat(np.arange(per_tri.size), per_tri.ravel())
    row, col = np.divmod(flat, q.shape[1])
    nxt = _next_vertex(m, q.shape[1])
    a, b = q[row, col], q[row, nxt[row, col]]
    uv = rng.random((flat.size, 2))
    fold = uv.sum(axis=1) > 1.0
    uv[fold] = 1.0 - uv[fold]
    return uv[:, :1] * a + uv[:, 1:] * b


def _pairs(first, count):
    """(owner, index) pairs: owner i with each of first[i] .. first[i] +
    count[i] - 1, grouped by owner."""
    start = _segment_starts(count)
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(start[-1]) + np.repeat(first - start[:-1], count)


def _roads_near(cfg, q, rng):
    """The roads that carry a vehicle and pass within rho of each cell.

    Roads are drawn in the disk of radius (farthest vertex + rho) around each
    nucleus, which by convexity holds every point within rho of the cell.
    The vehicle process is stationary and isotropic, so around any nucleus
    the roads hitting a disk of radius R are Poisson(2 lambda_l R), with
    displacement uniform on (-R, R) and angle uniform on (0, pi), and each
    chord carries Poisson(mu) vehicles per km.  A road is kept if it carries
    a vehicle and comes within rho of the cell, whose signed distances to it
    range between those of its vertices.

    Returns (starts, nx, ny, r, road, vehicles): kept roads grouped by row,
    each the line x . (nx, ny) = r in nucleus-relative coordinates with its
    index ``road`` among all drawn roads, and every vehicle as the complex
    number road + 1j * t, sorted (numpy orders complex numbers by real, then
    imaginary part), where t is its position along its road, direction
    (ny, -nx).
    """
    n = q.shape[0]
    if cfg.lambda_l == 0 or cfg.mu == 0:
        none = np.empty(0)
        return np.zeros(n + 1, dtype=np.int64), none, none, none, none, none
    reach = np.sqrt(np.einsum("kvj,kvj->kv", q, q).max(axis=1))
    radius = reach + cfg.rho
    n_lines = rng.poisson(2.0 * cfg.lambda_l * radius)
    row = np.repeat(np.arange(n), n_lines)
    R = radius[row]
    r = rng.uniform(-1.0, 1.0, R.size) * R
    theta = rng.uniform(0.0, math.pi, R.size)
    half = np.sqrt(np.maximum(R * R - r * r, 0.0))
    veh_count = rng.poisson(2.0 * cfg.mu * half)
    t = rng.uniform(-1.0, 1.0, veh_count.sum()) * np.repeat(half, veh_count)
    vehicles = np.sort(np.repeat(np.arange(R.size), veh_count) + 1j * t)
    nx, ny = -np.sin(theta), np.cos(theta)
    s = q[row, :, 0] * nx[:, None] + q[row, :, 1] * ny[:, None] - r[:, None]
    keep = (veh_count > 0) & (s.min(axis=1) <= cfg.rho) & (s.max(axis=1) >= -cfg.rho)
    starts = _segment_starts(np.bincount(row[keep], minlength=n))
    return starts, nx[keep], ny[keep], r[keep], np.flatnonzero(keep), vehicles


def _row_ranges(weight, budget):
    """Consecutive row ranges [a, b) whose weights sum to at most ``budget``;
    a heavier row forms a range alone."""
    ends = np.cumsum(weight)
    a = 0
    while a < weight.size:
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield a, b
        a = b


def _in_vehicle_region(points, row, roads, rho):
    """True per point iff a vehicle of its row lies within the closed
    rho-ball.

    A point at distance delta from a road is within rho of a vehicle on it
    iff the vehicle's position along the road is within
    w = sqrt(rho^2 - delta^2) of the point's.  For each road closer than rho
    one search in the sorted vehicles finds the first vehicle of that road
    at or after the point's position minus w.
    """
    starts, nx, ny, r, road, vehicles = roads
    pt, line = _pairs(starts[row], np.diff(starts)[row])
    px, py, nx, ny = points[pt, 0], points[pt, 1], nx[line], ny[line]
    delta = px * nx + py * ny - r[line]
    close = np.abs(delta) <= rho
    pt, line, delta = pt[close], line[close], delta[close]
    along = px[close] * ny[close] - py[close] * nx[close]
    w = np.sqrt(rho * rho - delta * delta)
    first = np.searchsorted(vehicles, road[line] + 1j * (along - w))
    found = vehicles[np.minimum(first, vehicles.size - 1)]
    hit = first < vehicles.size
    hit &= (found.real == road[line]) & (found.imag <= along + w)
    near = np.zeros(points.shape[0], dtype=bool)
    near[pt[hit]] = True
    return near


def _zero_cell_chunk(cfg, n, rng, users):
    """n zero cells with their vehicles and points: Poisson(lambda_u A)
    users per cell when ``users``, else AREA_PROBES probes.

    Returns per row the exact area, the point count and how many points lie
    in the vehicle region.  Points are drawn and tested a few rows at a time,
    so that at most PAIR_BUDGET point-road pairs are held at once.
    """
    q, m = _voronoi_cells(cfg.lambda_b, n, rng, zero_cell=True)
    roads = _roads_near(cfg, q, rng)
    tri = _fan_areas(q, m)
    area = tri.sum(axis=1)
    counts = rng.poisson(cfg.lambda_u * area) if users else np.full(n, AREA_PROBES)
    n_roads = np.diff(roads[0])
    n_near = np.zeros(n, dtype=np.int64)
    for a, b in _row_ranges(counts * (1 + n_roads), PAIR_BUDGET):
        points = _points_in_cells(q[a:b], m[a:b], tri[a:b], counts[a:b], rng)
        row = np.repeat(np.arange(a, b), counts[a:b])
        near = _in_vehicle_region(points, row, roads, cfg.rho)
        n_near[a:b] = np.bincount(row[near] - a, minlength=b - a)
    return area, counts, n_near


def _zero_cell_loads(cfg, batches):
    """User count outside the vehicle region of each zero cell."""
    def loads(size, rng):
        _, n_users, n_near = _zero_cell_chunk(cfg, size, rng, users=True)
        return n_users - n_near
    return np.concatenate(_map_batches(loads, batches))


def _mean_estimate(values) -> Estimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(float(np.mean(values)), se, n)


def estimate_zero_cell_areas(cfg: NetworkConfig, plan: SimPlan):
    """Mean area of the serving (zero) cell inside and outside the vehicle
    region; returns (inside, outside) Estimates.

    Each cell's area is exact; AREA_PROBES probes uniform in the cell split it
    between the two regions.
    """
    def split(size, rng):
        area, _, n_near = _zero_cell_chunk(cfg, size, rng, users=False)
        area_in = area * (n_near / AREA_PROBES)
        return area_in, area - area_in
    inside, outside = zip(*_map_batches(split, _batches(plan)))
    return (_mean_estimate(np.concatenate(inside)),
            _mean_estimate(np.concatenate(outside)))


def estimate_zero_cell_load(cfg: NetworkConfig, plan: SimPlan) -> Estimate:
    """Mean number of users sharing the typical user's base station: an
    independent user process is drawn in the serving cell and counted outside
    the vehicle region."""
    return _mean_estimate(_zero_cell_loads(cfg, _batches(plan)))


def estimate_voronoi_area_moment(lambda_b, plan: SimPlan) -> Estimate:
    """Second moment of the typical cell area of a Poisson-Voronoi
    tessellation of intensity lambda_b.

    Conditioning a point at the origin (Slivnyak) makes its cell the typical
    cell; each replication squares its exact area.
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be positive")
    def areas(size, rng):
        return _fan_areas(*_voronoi_cells(lambda_b, size, rng, False)).sum(axis=1)
    return _mean_estimate(np.concatenate(_map_batches(areas, _batches(plan))) ** 2)


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
    num = _mean_estimate(rate)

    reps = load_replications if load_replications is not None \
        else max(1000, plan.n_samples // 20)
    den = _mean_estimate(_zero_cell_loads(
        cfg, _batches(replace(plan, n_samples=reps), ss_den)))
    if den.mean <= 0:
        raise ZeroDivisionError("zero-cell load estimate is zero; raise lambda_u")
    mean = num.mean / den.mean
    se = abs(mean) * math.sqrt((num.std_error / num.mean) ** 2 + (den.std_error / den.mean) ** 2) \
        if num.mean > 0 else num.std_error / den.mean
    return Estimate(mean, se, plan.n_samples)
