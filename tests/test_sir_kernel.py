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
from vanetcov.simulator import (
    SIDELINK,
    DegenerateRealizationError,
    SimPlan,
    _resolve_sir,
    _segment_starts,
    _sir_chunk,
    draw_sir_samples,
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
    is_sl, sir, degenerate = _resolve_sir(
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
