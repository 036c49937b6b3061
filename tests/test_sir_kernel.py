"""The vectorised SIR kernel against the scalar reference
``oracle.sample_sir`` and against a whole-batch copy of its draws, its
one-link draws against its two-link draws, its memory per batch, and the
kernel's degenerate-resample path."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernel_rows import resolve_rows
from oracle import sample_sir
from vanetcov import NetworkConfig, simulator, validate
from vanetcov.analytic import p_assoc_sl
from vanetcov.simulator import (
    DOWNLINK,
    SIDELINK,
    DegenerateRealizationError,
    SimPlan,
    SirBatch,
    _batches,
    _crossing_far_field_mean,
    _far_field_variances,
    _received_power,
    _road_far_field,
    _segment_reduce,
    _segment_starts,
    _sir_chunk,
    draw_sir_samples,
    estimate_association,
    estimate_coverage_grid,
    far_field_mean,
    make_plan,
)

CFG = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0,
                             lambda_u=200.0, rho=0.3, alpha=3.0,
                             p_b=1.0, p_v=0.5, epsilon=1.0))


class _QueuedFades:
    """Stands in for a Generator: hands out the given fades in call order."""

    def __init__(self, *fades):
        self.queue = [f for f in fades if f.size]

    def exponential(self, scale, size):
        fades = self.queue.pop(0)
        assert scale == 1.0 and fades.size == size
        return fades.copy()


# (distance, angle, fade) over six decades each: both sides sum the other
# powers directly, so the SIR keeps a few ulps of relative accuracy at any size
_transmitter = st.tuples(st.floats(1e-3, 1e3), st.floats(0.0, 2 * math.pi),
                         st.floats(1e-3, 1e3))
_population = st.lists(_transmitter, max_size=6, unique_by=lambda t: t[0])
_replication = st.tuples(_population, _population)


def _points(population):
    return [(d * math.cos(a), d * math.sin(a)) for d, a, _ in population]


def _flat(replications, side):
    """Per-replication starts, squared distances and fades of one population."""
    pops = [rep[side] for rep in replications]
    xy = np.array([p for pop in pops for p in _points(pop)]).reshape(-1, 2)
    fades = np.array([f for pop in pops for _, _, f in pop])
    starts = _segment_starts(np.array([len(pop) for pop in pops]))
    return starts, xy[:, 0] ** 2 + xy[:, 1] ** 2, fades


def _distinct(population):
    d = np.sort([dist for dist, _, _ in population])
    return bool(np.all(np.diff(d) > 1e-9 * d[1:]))


@settings(max_examples=300, deadline=None)
@given(replications=st.lists(_replication, min_size=1, max_size=5),
       alpha=st.sampled_from([2.5, 3.0, 4.0]))
def test_kernel_matches_scalar_reference(replications, alpha):
    cfg = replace(CFG, alpha=alpha)
    for vehicles, bss in replications:
        # ties in distance or at rho make the serving choice rounding-dependent
        assume(_distinct(vehicles) and _distinct(bss))
        assume(all(abs(d - cfg.rho) > 1e-9 for d, _, _ in vehicles))
    veh_starts, d2_v, fade_v = _flat(replications, 0)
    bs_starts, d2_b, fade_b = _flat(replications, 1)
    is_sl, sir, degenerate, _, _ = resolve_rows(
        cfg, 0.0, veh_starts, d2_v, fade_v, bs_starts, d2_b, fade_b)

    for i, (vehicles, bss) in enumerate(replications):
        real = (_points(vehicles), _points(bss))
        rng = _QueuedFades(np.array([f for _, _, f in vehicles]),
                           np.array([f for _, _, f in bss]))
        if degenerate[i]:
            with pytest.raises(DegenerateRealizationError):
                sample_sir(*real, cfg, rng)
            continue
        ref = sample_sir(*real, cfg, rng)
        assert is_sl[i] == (ref.association == SIDELINK)
        if math.isinf(ref.sir):
            assert math.isinf(sir[i])
        else:
            assert sir[i] == pytest.approx(ref.sir, rel=1e-12)


def _first_minima(d2, starts):
    """Per segment, the flat index of its first minimum, by one np.argmin
    over the whole segment; -1 for an empty segment."""
    return np.array([lo + np.argmin(d2[lo:hi]) if hi > lo else -1
                     for lo, hi in zip(starts[:-1], starts[1:])], dtype=np.int64)


def _subset_sums(values, starts, keep):
    """Per segment, the sum of the entries ``keep`` marks, by one reduceat
    over them."""
    row = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    return _sums(values[keep], _segment_starts(np.bincount(row[keep], minlength=starts.size - 1)))


def _resolve_sir_by_full_scan(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b,
                             fade_b):
    """The kernel with the association and both serving transmitters taken
    from a scan of every segment, row by row.  As in the kernel, the
    vehicles within rho, the vehicles beyond it and the base stations are
    summed apart."""
    inside = d2_v <= cfg.rho * cfg.rho
    iv, ib = _first_minima(d2_v, veh_starts), _first_minima(d2_b, bs_starts)
    # index -1 (an empty segment) reads the appended inf
    dv2_min = np.append(d2_v, np.inf)[iv]
    db2_min = np.append(d2_b, np.inf)[ib]
    is_sl = dv2_min <= cfg.rho * cfg.rho
    degenerate = ~is_sl & np.isinf(db2_min)
    sl_rows = np.flatnonzero(is_sl)
    dl_rows = np.flatnonzero(~is_sl & ~degenerate)
    with np.errstate(divide="ignore"):
        loss = np.power(np.where(is_sl, dv2_min, db2_min), -0.5 * cfg.alpha)
    loss[sl_rows] *= cfg.p_v / cfg.p_b
    iv, ib = iv[sl_rows], ib[dl_rows]
    pw_v = _received_power(fade_v, d2_v, cfg.alpha)
    pw_v *= cfg.p_v / cfg.p_b
    pw_b = _received_power(fade_b, d2_b, cfg.alpha)
    serving_pw = np.zeros(is_sl.size)
    serving_pw[sl_rows] = pw_v[iv]
    pw_v[iv] = 0.0
    serving_pw[dl_rows] = pw_b[ib]
    pw_b[ib] = 0.0
    interference = _subset_sums(pw_v, veh_starts, inside)
    interference += _subset_sums(pw_v, veh_starts, ~inside)
    interference += _segment_reduce(np.add, pw_b, bs_starts, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = np.divide(serving_pw, interference + m_far, out=serving_pw)
    return is_sl, sir, degenerate, loss, interference


@pytest.mark.parametrize("p_v", [1.0, 0.3])
@pytest.mark.parametrize("alpha", [3.0, 3.7])
def test_kernel_searches_only_vehicles_within_rho_bit_for_bit(alpha, p_v):
    # the nearest vehicle's distance comes from every vehicle, and its index
    # is looked for among the vehicles within rho only; empty segments on both
    # sides, rows without any vehicle within rho, no vehicle at all, tied
    # distances (squared distances on a coarse grid), nearest vehicles exactly
    # at rho and tied pairs of nearest vehicles within rho give the same
    # outputs, bit for bit, as a search over every vehicle
    cfg = replace(CFG, alpha=alpha, p_v=p_v)
    rho2 = cfg.rho * cfg.rho
    rng = np.random.default_rng(int(10 * alpha + 10 * p_v))
    for n, mean_veh, mean_bs, boundary in ((400, 3.0, 2.0, False), (300, 0.5, 0.3, False),
                                           (50, 0.0, 1.0, False), (300, 3.0, 2.0, True)):
        veh_starts = _segment_starts(rng.poisson(mean_veh, n))
        bs_starts = _segment_starts(rng.poisson(mean_bs, n))
        d2_v = np.round(rng.uniform(0.0, 0.5, veh_starts[-1]), 2) + 1e-3
        if boundary:
            # every vehicle outside rho, then even rows get one exactly at
            # rho (the closed ball: sidelink) and odd rows two tied within
            # rho, the segment's first and last (the first serves)
            d2_v += rho2
            lo, hi = veh_starts[:-1], veh_starts[1:]
            at_rho = np.flatnonzero((hi > lo) & (np.arange(n) % 2 == 0))
            tied = np.flatnonzero((hi - lo >= 2) & (np.arange(n) % 2 == 1))
            d2_v[hi[at_rho] - 1] = rho2
            d2_v[lo[tied]] = d2_v[hi[tied] - 1] = 0.5 * rho2
        d2_b = rng.uniform(1e-3, 2.0, bs_starts[-1])
        fade_v = rng.standard_exponential(d2_v.size)
        fade_b = rng.standard_exponential(d2_b.size)
        m_far = rng.uniform(0.0, 0.1, n)
        want = _resolve_sir_by_full_scan(cfg, m_far, veh_starts, d2_v.copy(), fade_v.copy(),
                                         bs_starts, d2_b.copy(), fade_b.copy())
        got = resolve_rows(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b, fade_b)
        assert want[0].any() == (mean_veh > 0) and want[2].any()
        if boundary:
            assert at_rho.size and tied.size
            assert np.array_equal(np.flatnonzero(want[0]), np.union1d(at_rho, tied))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)


def test_kernel_resamples_degenerate_rows_and_draws_abort():
    # lambda_b pi R^2 = 2: about e^-2 of the rows draw no base station, and
    # most of those have no vehicle within rho either
    ref = validate(replace(CFG, rho=0.05))
    R = math.sqrt(2.0 / (math.pi * ref.lambda_b))
    plan = SimPlan(window_radius=R, n_samples=4096, seed=8)
    batch = _sir_chunk(ref, plan, 4096, np.random.default_rng(8))
    assert batch.n_degenerate > 0
    assert len(batch) == 4096
    assert np.all(np.isfinite(batch.sir) & (batch.sir > 0))
    with pytest.raises(DegenerateRealizationError, match="window too small"):
        draw_sir_samples(ref, plan)


def test_degenerate_resample_enters_the_bias_bound():
    # resampling the rows with no base station in the window conditions the
    # law on one being there: at lambda_b pi R^2 = 2 that moves the
    # association fractions by about 0.02, and each row's stated bound
    # carries exp(-2) for it; at tau = 0 that is all it carries
    ref = validate(replace(CFG, rho=0.05))
    R = math.sqrt(2.0 / (math.pi * ref.lambda_b))
    plan = SimPlan(window_radius=R, n_samples=4096, seed=8)
    batch = _sir_chunk(ref, plan, 4096, np.random.default_rng(8))
    assert batch.n_degenerate > 0
    assert np.all(batch.window_bias(0.0) == 0.0)
    conditioning = math.exp(-math.pi * ref.lambda_b * R * R)
    grid = estimate_coverage_grid(ref, [0.0, 1.0], plan, samples=batch)
    p_sl = p_assoc_sl(ref.lambda_l, ref.mu, ref.rho)
    for link, want in ((SIDELINK, p_sl), (DOWNLINK, 1.0 - p_sl)):
        est = grid[(link, 0.0)]
        assert est.bias_bound == pytest.approx(conditioning, rel=1e-12)
        assert abs(est.mean - want) <= est.bias_bound + 3 * est.std_error
        assert grid[(link, 1.0)].bias_bound > conditioning


@pytest.mark.parametrize("serving", ["vehicle", "base_station"])
def test_scalar_reference_interference_at_huge_sir(serving):
    # one transmitter 4e-5 km away, four far ones: SIR about 1e12, where a
    # total-minus-signal interference would be mostly rounding
    near = [(4e-5, 0.0)]
    vehicles = [(0.6, 0.0), (0.0, 0.8)] + (near if serving == "vehicle" else [])
    bss = [(0.5, 0.5), (-0.9, 0.2)] + (near if serving == "base_station" else [])
    fade_v = np.array([1.3, 0.7, 1.0][:len(vehicles)])
    fade_b = np.array([0.9, 1.1, 1.0][:len(bss)])
    ref = sample_sir(vehicles, bss, CFG, _QueuedFades(fade_v, fade_b))

    eta = CFG.p_v / CFG.p_b
    pw = [eta * f * math.hypot(*p) ** -CFG.alpha for p, f in zip(vehicles, fade_v)]
    pw += [f * math.hypot(*p) ** -CFG.alpha for p, f in zip(bss, fade_b)]
    signal = pw.pop(len(vehicles) - 1 if serving == "vehicle" else len(pw) - 1)
    want = signal / math.fsum(pw)
    assert (ref.association == SIDELINK) == (serving == "vehicle")
    assert 1e11 < want < 1e13
    assert ref.sir == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# vehicles in row ranges: the same bits as the whole batch, bounded memory
# ---------------------------------------------------------------------------

REF = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=50.0,
                             rho=0.05, alpha=3.0, p_b=1.0, p_v=1.0, epsilon=1.0))


def _sums(values, starts):
    """Per-segment sums by one reduceat, 0 for an empty segment."""
    lo = starts[:-1]
    nonempty = starts[1:] > lo
    out = np.zeros(lo.size)
    if values.size:
        out[nonempty] = np.add.reduceat(values, lo[nonempty])
    return out


def _powers(fade, d2, alpha):
    """fade * d2^(-alpha/2), rounded as the kernel rounds it: repeated
    division by d2 and one by its square root for whole alpha."""
    if alpha != math.floor(alpha):
        return fade * np.power(d2, -0.5 * alpha)
    k, odd = divmod(int(alpha), 2)
    for _ in range(k):
        fade = fade / d2
    return fade / np.sqrt(d2) if odd else fade


def _whole_rest(cfg, R, sl, rho_starts, r_rho, h_rho, chord_starts, d2_c, rng, depth=0):
    """One link's rest of the window with every vehicle in one array, drawn
    from the link's stream in the kernel's order: the roads with
    rho < |r| < R (counts, then r uniform on (-(R - rho), R - rho) moved out
    by rho), their vehicle counts, the vehicle counts on the rho-disk roads'
    outer parts, the base stations, the outer-part positions, the other
    roads' positions, then the fades of the chord vehicles, the outer
    parts, the other roads and the base stations.  Each serving transmitter
    is found by a row-by-row argmin, and a downlink row with no base station
    draws its rest again.  Returns (sir, loss, interference, far_mean,
    far_var, n_degenerate)."""
    n = rho_starts.size - 1
    W = R - cfg.rho
    n_lines = rng.poisson(2.0 * cfg.lambda_l * W, n)
    line_starts = _segment_starts(n_lines)
    r_l = rng.uniform(-W, W, line_starts[-1])
    r_l = r_l + np.copysign(cfg.rho, r_l)
    half = np.sqrt(np.maximum(R * R - r_l * r_l, 0.0))
    h_out = np.sqrt(R * R - r_rho * r_rho)
    n_veh = rng.poisson(2.0 * cfg.mu * half)
    n_outer = rng.poisson(2.0 * cfg.mu * (h_out - h_rho))
    bs_starts = _segment_starts(rng.poisson(cfg.lambda_b * math.pi * R * R, n))
    d2_b = rng.random(bs_starts[-1]) * (R * R)
    outer = np.repeat(np.arange(h_rho.size), n_outer)
    s = np.abs(rng.uniform(-1.0, 1.0, outer.size)) * (h_out - h_rho)[outer] + h_rho[outer]
    d2_o = s * s + (r_rho * r_rho)[outer]
    road = np.repeat(np.arange(half.size), n_veh)
    t = rng.uniform(-1.0, 1.0, road.size) * half[road]
    d2_v = t * t + (r_l * r_l)[road]
    fade_c = rng.standard_exponential(d2_c.size)
    fade_o = rng.standard_exponential(d2_o.size)
    fade_v = rng.standard_exponential(d2_v.size)
    fade_b = rng.standard_exponential(d2_b.size)

    far_mean = _sums(_road_far_field(cfg, R, h_out), rho_starts)
    far_mean += _sums(_road_far_field(cfg, R, half), line_starts)
    far_mean += far_field_mean(cfg, R) - _crossing_far_field_mean(cfg, R)
    v_bs, v_miss, v_road = _far_field_variances(cfg, R)
    far_var = v_road * (np.diff(rho_starts) + n_lines) + (v_bs + v_miss)

    eta = cfg.p_v / cfg.p_b
    ic, ib = _first_minima(d2_c, chord_starts), _first_minima(d2_b, bs_starts)
    dc2_min = np.append(d2_c, np.inf)[ic]
    db2_min = np.append(d2_b, np.inf)[ib]
    degenerate = np.isinf(db2_min) & (not sl)
    with np.errstate(divide="ignore"):
        loss = np.power(dc2_min if sl else db2_min, -0.5 * cfg.alpha)
    if sl:
        loss *= eta
    pw_c = _powers(fade_c, d2_c, cfg.alpha) * eta
    pw_o = _powers(fade_o, d2_o, cfg.alpha) * eta
    pw_v = _powers(fade_v, d2_v, cfg.alpha) * eta
    pw_b = _powers(fade_b, d2_b, cfg.alpha)
    serving = np.zeros(n)
    if sl:
        serving = pw_c[ic]
        pw_c[ic] = 0.0
    else:
        ok = ~degenerate
        serving[ok] = pw_b[ib[ok]]
        pw_b[ib[ok]] = 0.0
    outer_starts = _segment_starts(n_outer)[rho_starts]
    veh_starts = _segment_starts(n_veh)[line_starts]
    interference = (_sums(pw_c, chord_starts)
                    + (_sums(pw_o, outer_starts) + _sums(pw_v, veh_starts))
                    + _sums(pw_b, bs_starts))
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = serving / (interference + far_mean)

    fields = [sir, loss, interference, far_mean, far_var]
    where = np.flatnonzero(degenerate)
    if not where.size:
        return fields + [0]
    assert depth <= 8
    per_road = np.repeat(np.arange(n), np.diff(rho_starts))
    keep = np.isin(per_road, where)
    *redo, n_redo = _whole_rest(cfg, R, False, _segment_starts(np.diff(rho_starts)[where]),
                                r_rho[keep], h_rho[keep], np.zeros(where.size + 1, dtype=np.int64),
                                d2_c[:0], rng, depth + 1)
    for field, value in zip(fields, redo):
        field[where] = value
    return fields + [where.size + n_redo]


def _whole_batch(cfg, plan, n, rng):
    """The kernel's batch with every vehicle of a link in one array.  The
    batch's stream draws the association: the roads hitting each row's
    rho-disk, their chord counts and positions; a row with a chord vehicle
    is sidelink.  Then each link's rows draw the rest from the link's child
    stream (``_whole_rest``; children of ``rng.spawn(2)``, sidelink first).
    The far-field closed forms are the module's: they read only the roads.
    Returns the SirBatch fields in SirBatch.ROWS order, then n_degenerate."""
    R = plan.window_radius
    n_rho = rng.poisson(2.0 * cfg.lambda_l * cfg.rho, n)
    rho_starts = _segment_starts(n_rho)
    r_rho = rng.uniform(-cfg.rho, cfg.rho, rho_starts[-1])
    h_rho = np.sqrt(np.maximum(cfg.rho * cfg.rho - r_rho * r_rho, 0.0))
    n_chord = rng.poisson(2.0 * cfg.mu * h_rho)
    road = np.repeat(np.arange(h_rho.size), n_chord)
    t = rng.uniform(-1.0, 1.0, road.size) * h_rho[road]
    d2_c = t * t + (r_rho * r_rho)[road]
    per_road = np.repeat(np.arange(n), n_rho)
    is_sl = np.bincount(per_road[road], minlength=n) > 0

    fields = [is_sl] + [np.empty(n) for _ in range(5)]
    n_degenerate = 0
    for sl, link_rng in zip((True, False), rng.spawn(2)):
        rows = np.flatnonzero(is_sl == sl)
        keep = is_sl[per_road] == sl
        chord = is_sl[per_road[road]] == sl
        *rest, n_redo = _whole_rest(
            cfg, R, sl, _segment_starts(n_rho[rows]), r_rho[keep], h_rho[keep],
            _segment_starts(np.bincount(per_road[road][chord], minlength=n)[rows]),
            d2_c[chord], link_rng)
        for field, value in zip(fields[1:], rest):
            field[rows] = value
        n_degenerate += n_redo
    return fields + [n_degenerate]


_DEGENERATE_CFG = validate(replace(CFG, rho=0.05))
_SLICED_CASES = {
    # name: (config, window radius or None for the floor, rows, seed,
    #        VEHICLE_SLICE or None for the module's)
    "REF": (REF, None, 1024, 3, None),
    "mu 40": (replace(REF, mu=40.0), None, 1024, 4, None),
    "a row per range": (REF, None, 300, 5, 50),
    "no roads": (replace(REF, lambda_l=0.0), None, 1024, 6, None),
    "alpha 2.5 / p_v 0.3": (replace(REF, alpha=2.5, p_v=0.3), None, 1024, 7, None),
    "alpha 4": (replace(REF, alpha=4.0), None, 1024, 8, None),
    "degenerate rows": (_DEGENERATE_CFG, math.sqrt(2.0 / (math.pi * _DEGENERATE_CFG.lambda_b)),
                        4096, 8, None),
}


@pytest.mark.parametrize("case", list(_SLICED_CASES))
def test_sliced_kernel_matches_whole_batch_bit_for_bit(case, monkeypatch):
    cfg, radius, n, seed, vehicle_slice = _SLICED_CASES[case]
    cfg = validate(cfg)
    plan = SimPlan(radius, n, seed) if radius else make_plan(cfg, n, seed)
    if vehicle_slice:
        monkeypatch.setattr(simulator, "VEHICLE_SLICE", vehicle_slice)
    R = plan.window_radius
    mean_vehicles = cfg.lambda_l * cfg.mu * math.pi * R * R
    if case == "mu 40":
        assert n * mean_vehicles > 16 * simulator.VEHICLE_SLICE
    if vehicle_slice:
        assert mean_vehicles > 3 * vehicle_slice
    got = _sir_chunk(cfg, plan, n, np.random.default_rng(seed))
    want = _whole_batch(cfg, plan, n, np.random.default_rng(seed))
    for name, w in zip(SirBatch.ROWS, want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert got.n_degenerate == want[-1]
    assert (got.n_degenerate > 0) == (case == "degenerate rows")


@pytest.mark.parametrize("link", [SIDELINK, DOWNLINK])
@pytest.mark.parametrize("case", ["REF", "mu 40", "a row per range", "no roads",
                                  "degenerate rows"])
def test_one_link_draw_matches_the_two_link_draw_on_its_rows(case, link, monkeypatch):
    # each link reads its own child stream, so a draw of one link gives its
    # rows the bits the draw of both gives them, and the other link's rows
    # hold NaN; degenerate rows are downlink rows, redrawn on that stream
    cfg, radius, n, seed, vehicle_slice = _SLICED_CASES[case]
    cfg = validate(cfg)
    plan = SimPlan(radius, n, seed) if radius else make_plan(cfg, n, seed)
    if vehicle_slice:
        monkeypatch.setattr(simulator, "VEHICLE_SLICE", vehicle_slice)
    both = _sir_chunk(cfg, plan, n, np.random.default_rng(seed))
    one = _sir_chunk(cfg, plan, n, np.random.default_rng(seed), link)
    rows = both.is_sl if link == SIDELINK else ~both.is_sl
    assert one.link == link and both.link is None
    assert np.array_equal(one.is_sl, both.is_sl)
    assert rows.any() == (case != "no roads" or link == DOWNLINK)
    for name in SirBatch.ROWS[1:]:
        got, want = getattr(one, name), getattr(both, name)
        assert np.array_equal(got[rows], want[rows]), name
        assert np.isnan(got[~rows]).all() and not np.isnan(want).any(), name
    assert one.n_degenerate == (both.n_degenerate if link == DOWNLINK else 0)
    assert (both.n_degenerate > 0) == (case == "degenerate rows")


def test_kernel_association_is_estimate_association(monkeypatch):
    # the kernel's association sub-draw is estimate_association's, row for
    # row, whichever links the draw resolves
    indicators = []
    real = simulator._proportion_estimate
    monkeypatch.setattr(simulator, "_proportion_estimate",
                        lambda indicator: indicators.append(indicator) or real(indicator))
    for cfg in (REF, replace(REF, rho=0.15), replace(REF, lambda_l=2.0, mu=1.0)):
        plan = make_plan(cfg, 3000, 21)
        indicators.clear()
        estimate_association(cfg, plan)
        assert len(indicators) == 1 and indicators[0].any()
        for link in (None, SIDELINK, DOWNLINK):
            assert np.array_equal(draw_sir_samples(cfg, plan, link=link).is_sl, indicators[0])


def test_one_link_samples_serve_only_their_link():
    plan = make_plan(REF, 2048, 5)
    grid = estimate_coverage_grid(REF, [0.5], plan, link=SIDELINK)
    assert list(grid) == [(SIDELINK, 0.5)]
    samples = draw_sir_samples(REF, plan, link=DOWNLINK)
    assert list(estimate_coverage_grid(REF, [0.5], plan, samples, link=DOWNLINK)) == [
        (DOWNLINK, 0.5)]
    for link in (None, SIDELINK):
        with pytest.raises(ValueError, match="only the DL rows"):
            estimate_coverage_grid(REF, [0.5], plan, samples, link=link)
    with pytest.raises(ValueError, match="link must be"):
        draw_sir_samples(REF, plan, link=simulator.TOTAL)
    with pytest.raises(ValueError, match="association disk"):
        draw_sir_samples(REF, SimPlan(0.5 * REF.rho, 8, 5))


@pytest.mark.parametrize("k", [0, 1, 7, 100_000])
def test_a_double_takes_one_pcg64_step(k):
    # the kernel reads vehicle positions through a copy of the batch's
    # generator and skips them on the batch's own with advance: that needs
    # each double to take exactly one 64-bit output, and 2u - 1 to equal
    # uniform(-1, 1)
    drawn, skipped, shifted = (np.random.default_rng(17) for _ in range(3))
    u = drawn.random(k)
    skipped.bit_generator.advance(k)
    assert drawn.bit_generator.state == skipped.bit_generator.state
    assert np.array_equal(shifted.uniform(-1.0, 1.0, k), 2.0 * u - 1.0)


def test_kernel_needs_pcg64_batches():
    plan = make_plan(REF, 3000, 1)
    assert all(isinstance(rng.bit_generator, np.random.PCG64) for _, rng in _batches(plan))
    with pytest.raises(TypeError, match="PCG64"):
        _sir_chunk(REF, plan, 8, np.random.Generator(np.random.Philox(1)))


def test_kernel_memory_per_batch_does_not_grow_with_vehicle_density():
    # one batch at mu = 40 holds about 1.5M vehicles, eight times as many as
    # at mu = 5; only a row range of them is in memory at once
    peaks = {}
    for mu in (5.0, 40.0):
        cfg = replace(REF, mu=mu)
        plan = make_plan(cfg, 1024, 1)
        _sir_chunk(cfg, plan, 1024, np.random.default_rng(1))  # fills the far-field table cache
        tracemalloc.start()
        try:
            _sir_chunk(cfg, plan, 1024, np.random.default_rng(2))
            peaks[mu] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40.0] <= 1.25 * peaks[5.0]
    assert max(peaks.values()) < 4.1e6
