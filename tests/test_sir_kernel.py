"""The vectorised SIR kernel against the scalar reference
``oracle.sample_sir``, and the kernel's degenerate-resample path."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import sample_sir
from vanetcov import NetworkConfig, validate
from vanetcov.analytic import p_assoc_sl
from vanetcov.simulator import (
    DOWNLINK,
    SIDELINK,
    DegenerateRealizationError,
    GATHER_SLICE,
    SimPlan,
    _gather,
    _received_power,
    _resolve_sir,
    _segment_index,
    _segment_reduce,
    _segment_starts,
    _sir_chunk,
    draw_sir_samples,
    estimate_coverage_grid,
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
    is_sl, sir, degenerate, _, _ = _resolve_sir(
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


def _resolve_sir_by_full_scan(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b,
                             fade_b):
    """The kernel with the association and both serving transmitters taken
    from a scan of every segment, row by row."""
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
    interference = _segment_reduce(np.add, pw_v, veh_starts, 0.0)
    interference += _segment_reduce(np.add, pw_b, bs_starts, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = np.divide(serving_pw, interference + m_far, out=serving_pw)
    return is_sl, sir, degenerate, loss, interference


@pytest.mark.parametrize("p_v", [1.0, 0.3])
@pytest.mark.parametrize("alpha", [3.0, 3.7])
def test_kernel_searches_only_vehicles_within_rho_bit_for_bit(alpha, p_v):
    # the serving vehicle is looked for among the vehicles within rho only;
    # empty segments on both sides, rows without any vehicle within rho, no
    # vehicle at all, and tied distances (squared distances on a coarse grid)
    # give the same outputs, bit for bit, as a search over every vehicle
    cfg = replace(CFG, alpha=alpha, p_v=p_v)
    rng = np.random.default_rng(int(10 * alpha + 10 * p_v))
    for n, mean_veh, mean_bs in ((400, 3.0, 2.0), (300, 0.5, 0.3), (50, 0.0, 1.0)):
        veh_starts = _segment_starts(rng.poisson(mean_veh, n))
        bs_starts = _segment_starts(rng.poisson(mean_bs, n))
        d2_v = np.round(rng.uniform(0.0, 0.5, veh_starts[-1]), 2) + 1e-3
        d2_b = rng.uniform(1e-3, 2.0, bs_starts[-1])
        fade_v = rng.standard_exponential(d2_v.size)
        fade_b = rng.standard_exponential(d2_b.size)
        m_far = rng.uniform(0.0, 0.1, n)
        want = _resolve_sir_by_full_scan(cfg, m_far, veh_starts, d2_v.copy(), fade_v.copy(),
                                         bs_starts, d2_b.copy(), fade_b.copy())
        got = _resolve_sir(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b, fade_b)
        assert want[0].any() == (mean_veh > 0) and want[2].any()
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 4), max_size=12),
       spread=st.sampled_from([1, GATHER_SLICE]))
def test_segment_index_and_gather_match_repeat(counts, spread):
    # empty segments first, last and in a row; with ``spread`` the vehicles
    # span several gather slices
    counts = np.array(counts, dtype=np.int64) * spread
    index = _segment_index(counts)
    assert index.dtype == np.int64
    np.testing.assert_array_equal(index, np.repeat(np.arange(counts.size), counts))
    values = np.linspace(0.5, 2.0, counts.size)
    out = np.linspace(-1.0, 1.0, index.size)
    want = out * np.repeat(values, counts)
    _gather(np.multiply, out, values, index)
    assert np.array_equal(out, want)


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
