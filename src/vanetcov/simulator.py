"""Monte Carlo estimators for every metric, from repeated network draws.

The typical user sits at the origin of a disk window.  Per replication the
SIR kernel draws roads, vehicles, base stations and per-transmitter unit-mean
exponential fades, resolves the vehicle-first association, and forms the SIR.
Every estimator draws its roads with ``_roads``, and the association sub-draw
below places its vehicles with ``_chord_vehicles``, as the cell estimators do.
Replications are vectorised in batches of BATCH_SIZE = 1,024; each batch
owns an RNG stream spawned from the master seed, so the seed alone fixes
every result, however the batches are scheduled.  ``_map_batches`` runs
batches on one thread pool shared by the whole process, with one worker per
available CPU: numpy's random fills and ufuncs release the interpreter lock,
so batches really run at once.  At most MAX_WORKERS = 4 batches in flight,
across every caller, bound how many batches are in memory at once; a run of
a single batch starts no thread, and a pool task never submits to a pool.

Within a batch every population is one flat array grouped by replication and
described by per-replication start offsets; minima and sums are segment
reductions over it.  The kernel works on squared distances throughout: path
loss is (d^2)^(-alpha/2) and association compares with rho^2.

The SIR kernel draws the association first.  A user is sidelink iff a
vehicle lies within rho, and only the roads through the rho-disk can bring
one that close, so the batch's own stream draws exactly the sub-draw of
``estimate_association``: the roads hitting each row's rho-disk
(``_roads``), then the vehicles on their chords in it (``_chord_vehicles``).
A row with such a chord vehicle is sidelink and its nearest one serves it;
the kernel's association is ``estimate_association``'s, row for row.  The
batch's generator then spawns two child streams, sidelink first, and each
link's rows (in row order) draw the rest of the window from their link's
stream, in this order:
  1. the counts of the roads with rho < |r| < R, Poisson(2 lambda_l (R - rho));
  2. their r, uniform on (-(R - rho), R - rho) plus copysign(rho, r);
  3. the vehicle counts on those roads, Poisson(2 mu h_R), h_R being a
     road's chord half-length in the window;
  4. the vehicle counts on the rho-disk roads' outer parts, the window
     chord less the rho-chord, Poisson(2 mu (h_R - h_rho));
  5. the base-station counts, Poisson(lambda_b pi R^2), and their d^2;
  6. the outer-part positions, s = sign(u) (h_rho + |u| (h_R - h_rho));
  7. the other roads' positions, s = u h_R;
  8. the fades of the chord vehicles, the outer parts, the other roads, and
     then the base stations.
A row of a link therefore holds the same bits whether one link or both are
drawn, and a caller that reads one link (``draw_sir_samples``' ``link``)
never draws the other link's rows; those hold NaN.  A downlink row with no
base station in the window is degenerate and draws its downlink rest again,
on the downlink stream, keeping its association.

The kernel never holds all of a link's vehicles, whose number grows with
lambda_l mu.  It reads each link's PCG64 stream through two cursors: after
the base stations a copy of the generator reads the positions of steps 6
and 7, one double each (u = 2v - 1, bit for bit uniform(-1, 1)), while the
link's own generator skips them with ``advance`` and draws the fades.  The
outer parts and then the other roads pass through the kernel in row ranges
of at most VEHICLE_SLICE vehicles (a heavier row forms a range alone): per
range their squared distances and each row's interference sum.  So a batch's
memory is bounded by the slice and not by the vehicle density.

Interference beyond the window would bias SIR low-side truncation: with a
path-loss exponent close to 2 the far field decays too slowly to ignore at
any affordable window.  The kernel therefore adds the far field's mean as a
deterministic term, conditional on the roads the row draws: every road that
crosses the window carries on past its edge, so each row gets the mean
exterior power of its own crossing roads, plus Campbell's formula for the
base stations and the roads that miss the window.  Averaged over the roads
this is the unconditional exterior mean ``far_field_mean``.

What the mean leaves out is stated per coverage estimate.  Fading is
Rayleigh, so given a row's in-window draw the true coverage at tau is
E[exp(-s (I_in + I_ext))], with s = tau / (serving path-loss power, eta
included for a vehicle), I_in the in-window interference and I_ext the
exterior one, while the row's indicator has mean exp(-s (I_in + m_c)), m_c
the far-field term.  Jensen's inequality and a second-order Taylor bound give
    0 <= truth - MC <= exp(-s I_in) min(s^2 V_c / 2, 1 - exp(-s m_c)),
V_c being the exterior variance given the crossing roads, from Campbell's
second moment, road by road.  The degenerate redraw conditions a downlink
row's law on a base station in the window, which moves it by at most
exp(-pi lambda_b R^2).  Each coverage ``Estimate`` carries the mean of the
row bound over its rows plus that term as ``bias_bound``.

The cell estimators need no window: they build each replication's Voronoi
cell exactly, as a convex polygon clipped by one bisector per base station in
order of distance, and stop once no farther base station can cut it.  A zero
cell closes once the next arrival's distance r_next from the origin exceeds
|x| + |x - n| at every vertex x, n being the nucleus: any later base station y
has |y| >= r_next, so |x - y| >= r_next - |x| > |x - n| by the triangle
inequality, and no later bisector reaches the convex polygon.  The typical
cell's nucleus is the origin, where the rule reads r_next > 2 |x|.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .config import NetworkConfig

SIDELINK = "SL"
DOWNLINK = "DL"
TOTAL = "Total"

DEGENERATE_ABORT_FRACTION = 1e-6
BATCH_SIZE = 1024          # replications per batch, each with its own stream
MAX_WORKERS = 4            # batches in flight at once, across all callers
VEHICLE_SLICE = 1 << 16    # vehicles per row range of the SIR kernel


class DegenerateRealizationError(RuntimeError):
    """A draw no estimate can use: no serving candidate (no base station in
    the window and no vehicle in range), or a serving distance of exactly 0."""


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error.  On coverage estimates
    ``bias_bound`` bounds how far the SIR kernel's window moves the mean's
    expectation from the truth (see the module docstring); elsewhere 0."""
    mean: float
    std_error: float
    n_samples: int
    bias_bound: float = 0.0


@dataclass(frozen=True)
class SimPlan:
    """Sample count and seed of one Monte Carlo run, and the window of the
    SIR kernel.  The cell estimators (Voronoi moment, zero-cell areas and
    load, the effective rate's denominator) build exact cells and ignore
    ``window_radius``.

    A window at the floor keeps each coverage estimate's stated window bias
    (``Estimate.bias_bound``) below a tenth of its standard error at 200k
    samples on the acceptance configs; a smaller one raises the bound.

    Replications are drawn in batches of BATCH_SIZE, each with its own random
    stream, so the seed fixes every result.  Batches run on the process's
    shared thread pool of at most MAX_WORKERS workers, capped by the CPUs
    available; a plan of one batch runs without threads.  A batch of the SIR
    kernel holds its vehicles one row range of VEHICLE_SLICE at a time, so
    its memory is bounded by the slice, not by the vehicle density;
    MAX_WORKERS bounds the memory only across batches."""
    window_radius: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.window_radius <= 0:
            raise ValueError("window_radius must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def default_window_radius(cfg: NetworkConfig) -> float:
    """The smallest window allowed, and the default: ten association radii and
    six mean base-station spacings.  Six spacings is the least whole number
    that keeps every stated window bias (``Estimate.bias_bound``) below 0.1
    standard errors at 200k samples on the acceptance configs (five reach 0.19
    on lambda_l = 2, mu = 1); degenerate rows, with no base station in the
    window, then have probability at most exp(-36).  Sparse roads need no wider
    window: the kernel's far-field term follows each crossing road past the
    window edge, and the stated bias bound covers its fluctuation."""
    return max(10.0 * cfg.rho, 6.0 / math.sqrt(math.pi * cfg.lambda_b))


def make_plan(cfg: NetworkConfig, n_samples: int, seed: int,
              window_radius: float | None = None) -> SimPlan:
    """Build a plan, enforcing the window floor for the given scenario."""
    floor = default_window_radius(cfg)
    window_radius = floor if window_radius is None else window_radius
    if window_radius < floor:
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


# The mean exterior power of one road at distance r from the origin is
# g(r) = 2 eta mu R^(1-alpha) G(1 - t^2) with t = h / R, h the half-length of
# its chord in the window, and
#     G(s) = Int_0^1 v^(alpha-2) (1 - s v^2)^(-1/2) dv
#          = Int_0^inf (1 + 2 t y + y^2)^(-alpha/2) dy,
# v = (1 + 2 t y + y^2)^(-1/2) being R over the distance to the point y R
# beyond the chord's end.  (1 + t) G is analytic on t in [0, 1] (G's nearest
# singularity is at t = -1, where it grows like (1 + t)^((1 - alpha)/2)) and
# equals 1 at alpha = 3, so a short Chebyshev series in t holds it.
EXTERIOR_DEGREE = 48       # Chebyshev degree of the table before trimming
EXTERIOR_NODES = 48        # Gauss-Legendre nodes per table entry
EXTERIOR_TOL = 1e-14       # trailing coefficients below this, relative, go


@functools.lru_cache(maxsize=16)
def _exterior_table(alpha):
    """Chebyshev coefficients of (1 + t) G(1 - t^2) in x = 2t - 1; cached,
    read-only.

    Each entry splits the y integral at 1 and maps y = 1/z beyond it, then
    puts z = u^4 on both halves: G = Int_0^1 4 (u^3 + u^(4 alpha - 5))
    (1 + 2 t u^4 + u^8)^(-alpha/2) du.  The integrand is bounded, smooth in t,
    and its only non-analytic factor is u^(4 alpha - 5), with more than three
    continuous derivatives, so one 48-node Gauss-Legendre rule gives every
    entry to about 1e-15 relative.  Coefficients decay about 5.8-fold per
    degree, and each trimmed one is below EXTERIOR_TOL of the first.  Against
    an adaptive rule the table holds G to 2e-14 relative for 2.001 <= alpha
    <= 100.  Raises if the series has not decayed by degree 48 (alpha above
    about 400).
    """
    x, w = np.polynomial.legendre.leggauss(EXTERIOR_NODES)
    u = 0.5 * (x + 1.0)
    weight = 2.0 * w * (u ** 3 + u ** (4.0 * alpha - 5.0))
    u4 = u ** 4

    def one_plus_t_times_g(x):
        t = 0.5 * (x + 1.0)
        base = 1.0 + 2.0 * t[:, None] * u4 + u4 * u4
        return (1.0 + t) * (base ** (-0.5 * alpha) @ weight)
    c = np.polynomial.chebyshev.chebinterpolate(one_plus_t_times_g, EXTERIOR_DEGREE)
    if np.abs(c[-4:]).max() > EXTERIOR_TOL * c[0]:
        raise ValueError(f"the exterior table did not converge at alpha={alpha}")
    c = np.polynomial.chebyshev.chebtrim(c, EXTERIOR_TOL * c[0])
    c.flags.writeable = False
    return c


def _road_far_field(cfg: NetworkConfig, window_radius: float, half):
    """g: mean power (units of p_b) from beyond the window of one road whose
    chord in the window has half-length ``half``."""
    t = half / window_radius
    scale = 2.0 * cfg.p_v / cfg.p_b * cfg.mu * window_radius ** (1.0 - cfg.alpha)
    return scale * np.polynomial.chebyshev.chebval(
        2.0 * t - 1.0, _exterior_table(cfg.alpha)) / (1.0 + t)


def _line_integral(beta):
    """c_beta = Int_{-inf}^{inf} (1 + u^2)^(-beta/2) du
    = sqrt(pi) Gamma((beta - 1)/2) / Gamma(beta/2), for beta > 1."""
    return math.sqrt(math.pi) * math.exp(
        math.lgamma(0.5 * (beta - 1.0)) - math.lgamma(0.5 * beta))


def _crossing_far_field_mean(cfg: NetworkConfig, window_radius: float) -> float:
    """m_cross: the mean of g summed over the roads crossing the window,
    lambda_l Int_{-R}^{R} g(r) dr = 4 eta mu lambda_l R^(2-alpha)
    (pi/2 - W(alpha - 2)) / (alpha - 2), with the Wallis integral
    W(p) = Int_0^(pi/2) sin(theta)^p dtheta = c_(p+2) / 2 (integrate
    Int_0^1 G(x^2) dx = Int_0^1 v^(alpha-3) asin(v) dv by parts).  At
    alpha = 3 it is 2 eta mu lambda_l (pi - 2) / R."""
    p = cfg.alpha - 2.0
    wallis = 0.5 * _line_integral(cfg.alpha)
    eta = cfg.p_v / cfg.p_b
    return (4.0 * eta * cfg.mu * cfg.lambda_l * window_radius ** -p
            * (0.5 * math.pi - wallis) / p)


def _far_field_variances(cfg: NetworkConfig, window_radius: float):
    """The variance of the interference from beyond the window, given the
    roads crossing it, in three parts (units of p_b^2): base stations, roads
    that miss the window, and a ceiling per crossing road.

    Campbell's second moment with unit-mean exponential fades (E[h^2] = 2):
    - base stations: 2 lambda_b Int_{|x|>R} |x|^(-2 alpha) dx
      = 2 pi lambda_b R^(2-2 alpha) / (alpha - 1);
    - a road at distance r carries vehicles of variance 2 eta^2 mu c_(2 alpha)
      r^(1-2 alpha) and mean eta mu c_alpha r^(1-alpha); roads at |r| > R
      are Poisson with intensity lambda_l dr, so they add lambda_l times
      variance plus squared mean, integrated: 2 lambda_l eta^2 [2 mu
      c_(2 alpha) R^(2-2 alpha) / (2 alpha - 2) + mu^2 c_alpha^2
      R^(3-2 alpha) / (2 alpha - 3)];
    - a crossing road's vehicles beyond its chord have variance 4 eta^2 mu
      R^(1-2 alpha) G_(2 alpha)(1 - t^2), G as for ``_road_far_field`` with
      2 alpha for alpha.  G grows with its argument and G_beta(1) =
      c_beta / 2 (a tangent road), so each is at most 2 eta^2 mu
      R^(1-2 alpha) c_(2 alpha).
    """
    a, R = cfg.alpha, window_radius
    eta = cfg.p_v / cfg.p_b
    c_a, c_2a = _line_integral(a), _line_integral(2.0 * a)
    base_stations = 2.0 * math.pi * cfg.lambda_b * R ** (2.0 - 2.0 * a) / (a - 1.0)
    missing_roads = 2.0 * cfg.lambda_l * eta * eta * (
        2.0 * cfg.mu * c_2a * R ** (2.0 - 2.0 * a) / (2.0 * a - 2.0)
        + cfg.mu * cfg.mu * c_a * c_a * R ** (3.0 - 2.0 * a) / (2.0 * a - 3.0))
    per_crossing_road = 2.0 * eta * eta * cfg.mu * R ** (1.0 - 2.0 * a) * c_2a
    return base_stations, missing_roads, per_crossing_road


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
    cand = np.flatnonzero(d2 <= d2_min[rows].max(initial=-1.0))
    seg = np.searchsorted(starts, cand, side="right") - 1
    hit = d2[cand] == d2_min[seg]
    return cand[hit][np.searchsorted(seg[hit], rows)]


def _select_rows(starts, rows):
    """Segments ``rows`` (ascending) of a grouped flat array: their starts
    in the selection, and the flat index of their entries."""
    counts = np.diff(starts)[rows]
    selected = _segment_starts(counts)
    index = np.repeat(starts[rows] - selected[:-1], counts)
    index += np.arange(selected[-1])
    return selected, index


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


# ---------------------------------------------------------------------------
# the road network: a Poisson line Cox process
# ---------------------------------------------------------------------------

def _roads(lambda_l, radius, n, rng):
    """The roads hitting a disk of radius R around each of n origins.  Roads
    form a stationary, isotropic Poisson line process of lambda_l km per
    km^2, so about any origin they are Poisson(2 lambda_l R), at
    displacements r uniform on (-R, R) and uniform angles, which callers draw
    if they need them.  R is ``radius``, a scalar or one per origin.
    Poisson(0) draws nothing, so a road-free network consumes no stream.
    Returns (starts, r, chord half-lengths), roads grouped by origin."""
    starts = _segment_starts(rng.poisson(2.0 * lambda_l * radius, n))
    radius = np.repeat(radius, np.diff(starts)) if np.ndim(radius) else radius
    r = rng.uniform(-radius, radius, starts[-1])
    return starts, r, np.sqrt(np.maximum(radius * radius - r * r, 0.0))


def _chord_vehicles(mu, half, rng):
    """Poisson(2 mu half) vehicles per chord of half-length ``half``, uniform
    along it; returns their counts per chord, and each vehicle's chord index
    and signed position, grouped by chord."""
    counts = rng.poisson(2.0 * mu * half)
    road = np.repeat(np.arange(half.size), counts)
    t = rng.uniform(-1.0, 1.0, road.size)
    t *= half.take(road)
    return counts, road, t


def _association_draw(cfg, n, rng):
    """The association sub-draw of n rows: the roads hitting each row's
    rho-disk and the vehicles on their chords in it.  A row is sidelink iff
    it has such a vehicle.  Returns (road starts, r, chord half-lengths,
    vehicle starts per row, vehicle road index, vehicle position)."""
    starts, r, half = _roads(cfg.lambda_l, cfg.rho, n, rng)
    counts, road, t = _chord_vehicles(cfg.mu, half, rng)
    return starts, r, half, _segment_starts(counts)[starts], road, t


# ---------------------------------------------------------------------------
# SIR sampling
# ---------------------------------------------------------------------------

@dataclass
class SirBatch:
    """Vectorised draws of (association, SIR), with what each row's window
    bias bound needs: the serving path-loss power (eta included for a
    vehicle, no fade), the in-window interference without the far field,
    the far-field term m_c the SIR includes and the far field's variance V_c
    given the crossing roads.

    ``link`` names the link whose rows were drawn, None for both.  Every row
    has its association (``is_sl``); the other fields of a row of a link not
    drawn hold NaN."""
    is_sl: np.ndarray
    sir: np.ndarray
    loss: np.ndarray
    interference: np.ndarray
    far_mean: np.ndarray
    far_var: np.ndarray
    n_degenerate: int = 0
    link: str | None = None

    ROWS = ("is_sl", "sir", "loss", "interference", "far_mean", "far_var")

    def __len__(self):
        return self.is_sl.size

    @classmethod
    def concatenate(cls, parts):
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in cls.ROWS),
                   sum(p.n_degenerate for p in parts), parts[0].link)

    def window_bias(self, tau):
        """Per row, exp(-s I_in) min(s^2 V_c / 2, 1 - exp(-s m_c)) with
        s = tau / loss: a bound on how far the row's mean indicator of
        SIR > tau lies below the truth given the in-window draw (see the
        module docstring).  It is 0 at tau = 0."""
        s = tau / self.loss
        bound = np.minimum(0.5 * s * s * self.far_var, -np.expm1(-s * self.far_mean))
        bound *= np.exp(-s * self.interference)
        return bound


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


def _nearest_serves(alpha, gain, starts, d2, fade, served):
    """One population's per-row powers: in each row that ``served`` marks,
    the first nearest transmitter serves and the others interfere; in the
    other rows all of them interfere.

    The population is a flat array of squared distances and unit-mean fades
    grouped by replication (segment i is [starts[i], starts[i + 1])), and
    ``gain`` scales its powers (eta for vehicles).  ``served`` maps the
    per-row nearest squared distances to a boolean per row and must mark
    only nonempty rows.  Returns (d2_min, serving, interference) per row:
    the nearest squared distance (inf for an empty row), the serving power
    (0 in unserved rows) and the sum of the other powers.  The serving term
    is taken out of the sum, not subtracted from the total: at a large SIR
    the subtraction would leave mostly rounding.  ``fade`` is overwritten
    with received powers and ``d2`` with scratch values.
    """
    # the minima scan every entry, and the index search only those at or
    # below the largest served minimum
    d2_min = _segment_reduce(np.minimum, d2, starts, np.inf)
    rows = np.flatnonzero(served(d2_min))
    first = _first_min_index(d2, starts, d2_min, rows)
    pw = _received_power(fade, d2, alpha)
    if gain != 1.0:
        pw *= gain
    serving = np.zeros(d2_min.size)
    serving[rows] = pw[first]
    pw[first] = 0.0
    return d2_min, serving, _segment_reduce(np.add, pw, starts, 0.0)


def _road_interference(cfg, road_starts, r, counts, span, inner, positions, rng):
    """Per row, the summed received power (units of p_b) of ``counts``
    vehicles on each road, the roads grouped by row and at distance r.

    A vehicle sits at distance |u| span + inner along its road, or u span
    when ``inner`` is None, with u = 2v - 1 (bit for bit uniform(-1, 1)) and
    v read from ``positions``; its fade comes from ``rng``.  The vehicles
    pass in row ranges of at most VEHICLE_SLICE (a heavier row forms a range
    alone), so only one range is in memory at once.
    """
    veh_starts = _segment_starts(counts)[road_starts]
    eta = cfg.p_v / cfg.p_b
    r2 = r * r
    out = np.empty(road_starts.size - 1)
    for a, b in _row_ranges(np.diff(veh_starts), VEHICLE_SLICE):
        roads = slice(road_starts[a], road_starts[b])
        k = counts[roads]
        d2 = positions.random(veh_starts[b] - veh_starts[a])
        d2 *= 2.0
        d2 -= 1.0
        if inner is not None:
            np.abs(d2, out=d2)
        d2 *= np.repeat(span[roads], k)
        if inner is not None:
            d2 += np.repeat(inner[roads], k)
        d2 *= d2
        d2 += np.repeat(r2[roads], k)
        pw = _received_power(rng.standard_exponential(d2.size), d2, cfg.alpha)
        if eta != 1.0:
            pw *= eta
        out[a:b] = _segment_reduce(np.add, pw, veh_starts[a:b + 1] - veh_starts[a], 0.0)
    return out


def _resolve_link(cfg, sl, m_far, chord, roads, bs):
    """SIR per row of one link (``sl``: sidelink) from its transmitters.

    ``chord`` and ``bs`` are (starts, d2, fade) of the rows' vehicles on
    their rho-chords and of their base stations, overwritten as
    ``_nearest_serves`` says; ``roads`` is each row's summed power of every
    other vehicle, and ``m_far`` the far-field term, a scalar or one per
    row.  A sidelink row is served by its nearest chord vehicle, a downlink
    row by its nearest base station.  Returns per row (sir, loss,
    interference, degenerate): the serving path-loss power (eta included for
    a vehicle, no fade), the interference without ``m_far``, and whether the
    row is a downlink row with no base station (its other outputs are then
    meaningless).
    """
    eta = cfg.p_v / cfg.p_b
    dv2_min, serving_v, interference = _nearest_serves(cfg.alpha, eta, *chord, np.isfinite)
    interference += roads
    db2_min, serving_b, interference_b = _nearest_serves(
        cfg.alpha, 1.0, *bs, lambda d2_min: np.isfinite(d2_min) & (not sl))
    interference += interference_b
    with np.errstate(divide="ignore"):
        loss = np.power(dv2_min if sl else db2_min, -0.5 * cfg.alpha)
    if sl and eta != 1.0:
        loss *= eta
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = (serving_v if sl else serving_b) / (interference + m_far)
    return [sir, loss, interference, np.isinf(db2_min) & (not sl)]


def _window_rest(cfg, R, sl, rho_roads, chord, rng, depth=0):
    """The rest of the window for the rows of one link, drawn from that
    link's stream ``rng``, and their SIR.

    ``sl`` says which link; ``rho_roads`` is (starts, r, half-lengths in the
    rho-disk) of the rows' roads through their rho-disk, and ``chord`` is
    (starts, d2) of the vehicles on those chords, d2 overwritten.  The draws
    follow the module docstring's order.  A downlink row with no base
    station in the window is degenerate: its rest is drawn again, up to
    eight times.  Returns per row (sir, loss, interference, far_mean,
    far_var), then the number of rows redrawn.
    """
    rho_starts, r_rho, h_rho = rho_roads
    n = rho_starts.size - 1
    # the roads with rho < |r| < R, and the rho-disk roads' chords in the window
    starts, r, _ = _roads(cfg.lambda_l, R - cfg.rho, n, rng)
    r += np.copysign(cfg.rho, r)
    half = np.sqrt(np.maximum(R * R - r * r, 0.0))
    h_out = np.sqrt(R * R - r_rho * r_rho)
    n_veh = rng.poisson(2.0 * cfg.mu * half)
    span = h_out - h_rho
    n_outer = rng.poisson(2.0 * cfg.mu * span)
    bs_starts = _segment_starts(rng.poisson(cfg.lambda_b * math.pi * R * R, n))
    d2_b = rng.random(bs_starts[-1])
    d2_b *= R * R

    # the far field given this row's crossing roads: its mean
    # m - m_cross + sum_j g_j and a ceiling on its variance
    m_far = _segment_reduce(np.add, _road_far_field(cfg, R, h_out), rho_starts, 0.0)
    m_far += _segment_reduce(np.add, _road_far_field(cfg, R, half), starts, 0.0)
    m_far += far_field_mean(cfg, R) - _crossing_far_field_mean(cfg, R)
    v_bs, v_miss, v_road = _far_field_variances(cfg, R)
    far_var = v_road * (np.diff(rho_starts) + np.diff(starts)) + (v_bs + v_miss)

    # the vehicle positions, one double each, are read by a second cursor
    # while the link's own generator skips past them to the fades
    positions = np.random.Generator(np.random.PCG64())
    positions.bit_generator.state = rng.bit_generator.state
    rng.bit_generator.advance(int(n_outer.sum() + n_veh.sum()))
    chord_starts, d2_c = chord
    fade_c = rng.standard_exponential(d2_c.size)
    roads = _road_interference(cfg, rho_starts, r_rho, n_outer, span, h_rho, positions, rng)
    roads += _road_interference(cfg, starts, r, n_veh, half, None, positions, rng)
    fade_b = rng.standard_exponential(d2_b.size)
    *out, degenerate = _resolve_link(cfg, sl, m_far, (chord_starts, d2_c, fade_c), roads,
                                     (bs_starts, d2_b, fade_b))
    out += [m_far, far_var]

    where = np.flatnonzero(degenerate)
    if not where.size:
        return (*out, 0)
    if depth > 8:
        raise DegenerateRealizationError(
            "degenerate realizations persist after repeated resampling")
    redo_starts, take = _select_rows(rho_starts, where)
    *redo, n_redo = _window_rest(cfg, R, False, (redo_starts, r_rho[take], h_rho[take]),
                                 (np.zeros(where.size + 1, dtype=np.int64), d2_c[:0]),
                                 rng, depth + 1)
    for field, value in zip(out, redo):
        field[where] = value
    return (*out, where.size + n_redo)


def _sir_chunk(cfg, plan, n, rng, link=None):
    """One vectorised batch of n replications, association first: every
    row's association from the batch's own stream, then the rest of the
    window for the rows of ``link`` (None: both links), each link from its
    own child stream (see the module docstring).

    ``rng`` must be a PCG64 generator, else TypeError: each link's stream is
    read through two cursors."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError("the SIR kernel skips its vehicle positions with "
                        "PCG64.advance: the batch generator must be PCG64")
    R = plan.window_radius
    if R < cfg.rho:
        raise ValueError("the window must hold the association disk")
    rho_starts, r, h_rho, chord_starts, road, d2_c = _association_draw(cfg, n, rng)
    is_sl = chord_starts[1:] > chord_starts[:-1]
    d2_c *= d2_c
    d2_c += (r * r).take(road)
    batch = SirBatch(is_sl, *np.full((5, n), np.nan), link=link)
    for name, link_rng in zip((SIDELINK, DOWNLINK), rng.spawn(2)):
        if link not in (None, name):
            continue
        sl = name == SIDELINK
        rows = np.flatnonzero(is_sl == sl)
        starts, take = _select_rows(rho_starts, rows)
        # the sidelink rows hold every chord vehicle, the downlink rows none
        chord = ((np.append(chord_starts[rows], chord_starts[-1]), d2_c) if sl
                 else (np.zeros(rows.size + 1, dtype=np.int64), d2_c[:0]))
        *fields, n_degenerate = _window_rest(cfg, R, sl, (starts, r[take], h_rho[take]),
                                             chord, link_rng)
        for field, value in zip(SirBatch.ROWS[1:], fields):
            getattr(batch, field)[rows] = value
        batch.n_degenerate += n_degenerate
    return batch


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


_pool = None                # (workers, executor): the shared batch pool
_pool_lock = threading.Lock()


def _forget_pool():
    """In a forked child: the parent's pool threads do not exist here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _map_batches(fn, batches):
    """[fn(size, rng) for (size, rng) in batches], in batch order.

    Batches run on one thread pool shared by every call in the process, with
    one worker per available CPU and at most MAX_WORKERS.  The pool is made
    on the first threaded call, and made again in a forked child or when
    that worker count changes.  It starts a worker only when a batch finds
    none idle, so no call starts more threads than it has batches, and it
    bounds the batches in flight across concurrent callers too.  So
    MAX_WORKERS bounds the memory only across batches; within an SIR batch
    the kernel's row ranges of VEHICLE_SLICE vehicles bound it, whatever the
    vehicle density.  Each batch draws only from its own generator, so the
    results do not depend on the number of workers.  With one batch or one CPU this is a plain loop and
    starts no thread.  ``fn`` must not call this helper: a pool task never
    submits to a pool.  The first exception a batch raises propagates once
    the running batches end, and batches not yet started are cancelled.
    """
    global _pool
    workers = min(_available_cpus(), MAX_WORKERS)
    if min(len(batches), workers) <= 1:
        return [fn(size, rng) for size, rng in batches]
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            from concurrent.futures import ThreadPoolExecutor  # only threaded calls pay the import
            _pool = workers, ThreadPoolExecutor(max_workers=workers)
        futures = [_pool[1].submit(fn, size, rng) for size, rng in batches]
    try:
        return [future.result() for future in futures]
    except BaseException:
        from concurrent.futures import wait
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def draw_sir_samples(cfg: NetworkConfig, plan: SimPlan,
                     seed_sequence: np.random.SeedSequence | None = None,
                     link: str | None = None) -> SirBatch:
    """Draw plan.n_samples SIR samples in reproducible fixed-size batches.

    Every row gets its association, from the sub-draw ``estimate_association``
    makes at the same plan.  Only the rows of ``link`` (SIDELINK or
    DOWNLINK; None, the default, for both) get the rest of the window and an
    SIR; the others hold NaN (see ``SirBatch``).  Each link reads its own
    stream, so a row of a link holds the same bits whether one link or both
    are drawn.  A downlink row with no base station in the window draws its
    downlink rest again (``n_degenerate`` counts the redraws)."""
    if link not in (None, SIDELINK, DOWNLINK):
        raise ValueError(f"link must be {SIDELINK}, {DOWNLINK} or None, not {link!r}")
    n = plan.n_samples
    chunks = _map_batches(lambda size, rng: _sir_chunk(cfg, plan, size, rng, link),
                          _batches(plan, seed_sequence))
    batch = SirBatch.concatenate(chunks)
    if batch.n_degenerate > DEGENERATE_ABORT_FRACTION * max(n, 1) + 1:
        raise DegenerateRealizationError(
            f"{batch.n_degenerate} degenerate realizations out of {n}; "
            "window too small for the configured densities")
    return batch


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------

def _proportion_estimate(indicator) -> Estimate:
    n = indicator.size
    p = float(np.count_nonzero(indicator)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, se, n)


def estimate_association(cfg: NetworkConfig, plan: SimPlan):
    """(sidelink, downlink) association estimates; the per-sample indicators
    are complementary, so the two means sum to one exactly.  A user is vehicle
    associated iff a road hitting its association disk carries a vehicle on
    its chord.  The batches run in a plain loop: each costs about 0.1 ms,
    less than handing it to a thread pool."""
    def vehicle_associated(size, rng):
        veh_starts = _association_draw(cfg, size, rng)[3]
        return veh_starts[1:] > veh_starts[:-1]
    is_sl = np.concatenate([vehicle_associated(*batch) for batch in _batches(plan)])
    sl = _proportion_estimate(is_sl)
    return sl, Estimate(1.0 - sl.mean, sl.std_error, sl.n_samples)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def estimate_coverage_grid(cfg: NetworkConfig, taus, plan: SimPlan,
                           samples: SirBatch | None = None, link: str | None = None):
    """Joint probability of (SIR > tau together with each association) for
    every (link, tau) pair, link=Total being the samplewise sum of the two
    joint events.  All pairs share one sample set, so decomposition and
    tau-monotonicity hold exactly samplewise.

    ``link`` (SIDELINK or DOWNLINK) asks for that link's pairs only: the
    draw then resolves only that link's rows, and the grid holds only its
    keys.  None, the default, draws both links and gives all three.
    ``samples`` drawn for one link serve only that link.

    tau = 0 asks for SIR > 0, which holds wherever the serving signal is
    nonzero: the grid then gives the association fractions, as ``analytic.sl_coverage`` and
    ``dl_coverage`` give the association probabilities at tau = 0.

    Each estimate's ``bias_bound`` is the mean over all rows of the window
    bias bound (``SirBatch.window_bias``) on the rows of its link, plus
    exp(-pi lambda_b R^2) for the redraw of degenerate downlink rows;
    Total's is the sum of the two links'.  It draws no random numbers.
    """
    if any(tau < 0 for tau in taus):
        raise ValueError("tau must be nonnegative")
    batch = samples if samples is not None else draw_sir_samples(cfg, plan, link=link)
    if batch.link not in (None, link):
        raise ValueError(f"the samples hold only the {batch.link} rows")
    links = {SIDELINK: batch.is_sl, DOWNLINK: ~batch.is_sl, TOTAL: True}
    if link is not None:
        links = {link: links[link]}
    conditioning = math.exp(-math.pi * cfg.lambda_b * plan.window_radius ** 2)
    out = {}
    for tau in taus:
        above = batch.sir > tau
        dl_bias, sl_bias = np.bincount(batch.is_sl, weights=batch.window_bias(tau),
                                       minlength=2) / len(batch) + conditioning
        bias = {SIDELINK: sl_bias, DOWNLINK: dl_bias, TOTAL: sl_bias + dl_bias}
        for name, associated in links.items():
            est = _proportion_estimate(above & associated)
            out[(name, float(tau))] = replace(est, bias_bound=float(bias[name]))
    return out


# ---------------------------------------------------------------------------
# zero cell, cell-area moments, effective rate
# ---------------------------------------------------------------------------

CELL_SQUARE_HALF_SIDE = 16.0  # start square, in units of 1 / sqrt(lambda_b)
AREA_PROBES = 256             # probes per cell for the inside/outside split
PAIR_BUDGET = 1 << 16         # points times (1 + kept roads) per point draw


def _successors(m, width):
    """Flat index of each vertex's successor in (n, width) padded polygons,
    flattened to n * width slots, whose row i has m[i] valid vertices: the
    next slot, wrapping to the row's first at its last valid vertex.  Padded
    slots point anywhere in bounds, as only valid vertices are read."""
    base = np.arange(0, m.size * width, width)
    succ = np.arange(1, m.size * width + 1)
    succ[-1] = 0
    succ[base + m - 1] = base
    return succ


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
    k, width = q.shape[:2]
    succ = _successors(m, width)
    s = np.einsum("kvj,kj->kv", q, c)
    s -= 0.5 * np.einsum("kj,kj->k", c, c)[:, None]
    s = s.ravel()
    s_next = s.take(succ)
    valid = (np.arange(width) < m[:, None]).ravel()
    inside = s <= 0.0
    keep = valid & inside
    cross = valid & (inside != (s_next <= 0.0))
    emit = (keep.astype(np.int64) + cross).reshape(k, width)
    pos = np.cumsum(emit, axis=1) - emit
    m_new = pos[:, -1] + emit[:, -1]
    w_new = int(m_new.max())
    pos += np.arange(0, k * w_new, w_new)[:, None]
    pos = pos.ravel()
    out = np.zeros((k * w_new, 2))
    q = q.reshape(-1, 2)
    i = np.flatnonzero(keep)
    out[pos.take(i)] = q.take(i, axis=0)
    i = np.flatnonzero(cross)
    a, b = q.take(i, axis=0), q.take(succ.take(i), axis=0)
    si = s.take(i)
    t = si / (si - s_next.take(i))
    out[pos.take(i) + keep.take(i)] = a + t[:, None] * (b - a)
    return out.reshape(k, w_new, 2), m_new


def _voronoi_cells(lambda_b, n, rng, zero_cell):
    """Exact Poisson-Voronoi cells of n independent replications.

    Base stations arrive in order of distance from the origin:
    pi lambda_b r_k^2 is a unit-rate Poisson process and the angles are
    uniform.  The typical cell (Slivnyak) has its nucleus at the origin and
    every arrival as a competitor; the zero cell has the first arrival as its
    nucleus (placed on the positive x axis, by isotropy) and every later one
    as a competitor.  Each row starts as a square around its nucleus and is
    clipped by one competitor's bisector per step until the next arrival, at
    r_next from the origin, can no longer cut it: r_next > |x| + |x - n| at
    every vertex x, nucleus n.  Every later arrival y has |y| >= r_next, so
    |x - y| >= r_next - |x| > |x - n|: each vertex, and so the convex
    polygon, stays on the nucleus's side of y's bisector.  Both cell types
    take this test; for the typical cell (n at the origin) it reads
    r_next > 2 max |x|.  The polygon is the exact cell once no vertex of the
    square is left.

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
        # |x| + |x - n| per vertex, x = v + (d0, 0) seen from the origin
        reach = (np.sqrt((q[..., 0] + d0[:, None]) ** 2 + q[..., 1] ** 2)
                 + np.sqrt(np.einsum("kvj,kvj->kv", q, q)))
        closed = r_next > reach.max(axis=1)
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
    qn = q.reshape(-1, 2).take(_successors(m, q.shape[1]), axis=0).reshape(q.shape)
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
    succ = _successors(m, q.shape[1])
    q = q.reshape(-1, 2)
    a, b = q.take(flat, axis=0), q.take(succ.take(flat), axis=0)
    uv = rng.random((flat.size, 2))
    fold = np.flatnonzero(uv.sum(axis=1) > 1.0)
    uv[fold] = 1.0 - uv[fold]
    a *= uv[:, :1]
    a += uv[:, 1:] * b
    return a


def _roads_near(cfg, q, rng):
    """The roads that carry a vehicle and pass within rho of each cell.

    Roads are drawn by ``_roads`` in the disk of radius (farthest vertex +
    rho) around each nucleus, which by convexity holds every point within rho
    of the cell, each with an angle uniform on (0, pi).  A road is kept if it
    carries a vehicle and comes within rho of the cell, whose signed
    distances to it range between those of its vertices.

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
    line_starts, r, half = _roads(cfg.lambda_l, reach + cfg.rho, n, rng)
    theta = rng.uniform(0.0, math.pi, r.size)
    veh_count, road, t = _chord_vehicles(cfg.mu, half, rng)
    row = np.repeat(np.arange(n), np.diff(line_starts))
    vehicles = np.sort(road + 1j * t)
    del road, t  # not held while the per-vertex distances below are formed
    nx, ny = -np.sin(theta), np.cos(theta)
    s = q[row, :, 0] * nx[:, None] + q[row, :, 1] * ny[:, None] - r[:, None]
    keep = (veh_count > 0) & (s.min(axis=1) <= cfg.rho) & (s.max(axis=1) >= -cfg.rho)
    starts = _segment_starts(np.bincount(row[keep], minlength=n))
    return starts, nx[keep], ny[keep], r[keep], np.flatnonzero(keep), vehicles


def _in_vehicle_region(points, row, roads, rho):
    """True per point iff a vehicle of its row lies within the closed
    rho-ball.

    A point at distance delta from a road is within rho of a vehicle on it
    iff the vehicle's position along the road is within
    w = sqrt(rho^2 - delta^2) of the point's.  For each road closer than rho
    one search in the sorted vehicles finds the first vehicle of that road
    at or after the point's position minus w.  Roads go one slot at a time:
    slot j tests each point against road j of its row, for the points whose
    row keeps more than j roads.
    """
    starts, nx, ny, r, road, vehicles = roads
    first = starts.take(row)
    count = starts.take(row + 1) - first
    order = np.argsort(count, kind="stable")
    count = count.take(order)
    # points by descending road count: slot j takes the first n_more[j], the
    # points that keep more than j roads
    order = order[::-1]
    n_more = count.size - np.searchsorted(count, np.arange(count.max(initial=0)), side="right")
    px, py, first = points[:, 0].take(order), points[:, 1].take(order), first.take(order)
    near = np.zeros(points.shape[0], dtype=bool)
    for j, n in enumerate(n_more):
        line = first[:n] + j
        delta = px[:n] * nx.take(line) + py[:n] * ny.take(line) - r.take(line)
        close = np.flatnonzero(np.abs(delta) <= rho)
        line, delta = line.take(close), delta.take(close)
        along = px.take(close) * ny.take(line) - py.take(close) * nx.take(line)
        w = np.sqrt(rho * rho - delta * delta)
        line_road = road.take(line)
        at = np.searchsorted(vehicles, line_road + 1j * (along - w))
        found = vehicles[np.minimum(at, vehicles.size - 1)]
        hit = at < vehicles.size
        hit &= (found.real == line_road) & (found.imag <= along + w)
        near[order.take(close[hit])] = True
    return near


def _zero_cell_chunk(cfg, n, rng, users):
    """n zero cells with their vehicles and points: Poisson(lambda_u A)
    users per cell when ``users``, else AREA_PROBES probes.

    Returns per row the exact area, the point count and how many points lie
    in the vehicle region.  Points are drawn and tested a few rows at a time,
    in ranges of rows whose points times (1 + kept roads) sum to at most
    PAIR_BUDGET.  No point-road pairs are held, so the budget only fixes where
    the point draws split, and with it the random stream.  A batch
    with no road near any cell places no points: none could be in the
    vehicle region, and they would be the batch's last draws.
    """
    q, m = _voronoi_cells(cfg.lambda_b, n, rng, zero_cell=True)
    roads = _roads_near(cfg, q, rng)
    tri = _fan_areas(q, m)
    area = tri.sum(axis=1)
    counts = rng.poisson(cfg.lambda_u * area) if users else np.full(n, AREA_PROBES)
    n_roads = np.diff(roads[0])
    n_near = np.zeros(n, dtype=np.int64)
    if not n_roads.any():
        return area, counts, n_near
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
    batch = draw_sir_samples(cfg, plan, seed_sequence=ss_num, link=DOWNLINK)
    # log2(1 + SIR) on downlink rows, 0 on sidelink ones (not drawn, NaN
    # there); the far field keeps
    # every SIR finite unless a serving distance is exactly 0, about 2^-53 a
    # draw
    rate = np.where(batch.is_sl, 0.0, np.log1p(batch.sir) / math.log(2.0))
    if not np.isfinite(rate).all():
        raise DegenerateRealizationError("an infinite downlink SIR: a base "
                                         "station at the user's position")
    num = _mean_estimate(rate)

    reps = load_replications if load_replications is not None \
        else max(1000, plan.n_samples // 20)
    den = _mean_estimate(_zero_cell_loads(
        cfg, _batches(replace(plan, n_samples=reps), ss_den)))
    if den.mean <= 0:
        raise ValueError(f"no user is served by a base station in {reps} zero "
                         "cells: the effective rate is undefined")
    mean = num.mean / den.mean
    se = abs(mean) * math.sqrt((num.std_error / num.mean) ** 2 + (den.std_error / den.mean) ** 2) \
        if num.mean > 0 else num.std_error / den.mean
    return Estimate(mean, se, plan.n_samples)
