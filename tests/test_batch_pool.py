"""Batches on the thread pool: the same results with one worker or several,
no thread for a single batch, and the cap on the worker count."""
import concurrent.futures

import numpy as np
import pytest

from vanetcov import NetworkConfig, simulator, validate
from vanetcov.simulator import (
    BATCH_SIZE,
    MAX_WORKERS,
    SimPlan,
    _batches,
    _map_batches,
    default_window_radius,
    draw_sir_samples,
    estimate_association,
    estimate_effective_rate,
    estimate_voronoi_area_moment,
    estimate_zero_cell_areas,
    estimate_zero_cell_load,
)

CFG = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=50.0,
                             rho=0.05, alpha=3.0, p_b=1.0, p_v=1.0, epsilon=1.0))


class _RecordingPool(concurrent.futures.ThreadPoolExecutor):
    """A real thread pool that records the worker count of each pool made."""
    made = []

    def __init__(self, max_workers=None, **kwargs):
        _RecordingPool.made.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def _run_all(plan):
    """Every estimator that runs through _map_batches, as plain values."""
    batch = draw_sir_samples(CFG, plan)
    return [batch.is_sl, batch.serving_distance, batch.sir, batch.n_degenerate,
            estimate_association(CFG, plan),
            estimate_voronoi_area_moment(CFG.lambda_b, plan),
            estimate_zero_cell_areas(CFG, plan),
            estimate_zero_cell_load(CFG, plan),
            estimate_effective_rate(CFG, plan, load_replications=plan.n_samples)]


def _use_pool(monkeypatch, cpus, pool):
    monkeypatch.setattr(simulator, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)


def test_estimators_identical_with_one_worker_and_several(monkeypatch):
    # two full batches plus a remainder
    plan = SimPlan(window_radius=default_window_radius(CFG),
                   n_samples=2 * BATCH_SIZE + 188, seed=31)
    _use_pool(monkeypatch, 1, _NoPool)
    serial = _run_all(plan)
    _RecordingPool.made = []
    _use_pool(monkeypatch, 4, _RecordingPool)
    threaded = _run_all(plan)
    # SIR draws, three cell estimators, and the effective rate's numerator
    # and denominator each made a pool of three workers
    assert _RecordingPool.made == [3] * 6
    for a, b in zip(serial, threaded):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("n_samples", [
    BATCH_SIZE,   # one full batch
    300,          # one short batch
])
def test_single_worker_plans_start_no_thread(monkeypatch, n_samples):
    _use_pool(monkeypatch, 8, _NoPool)
    _run_all(SimPlan(window_radius=default_window_radius(CFG),
                     n_samples=n_samples, seed=5))


@pytest.mark.parametrize("cpus, n_batches, want", [
    (8, 10, MAX_WORKERS),   # the cap on batches in flight
    (2, 10, 2),             # one worker per CPU
    (64, 3, 3),             # no more workers than batches
])
def test_worker_count(monkeypatch, cpus, n_batches, want):
    _RecordingPool.made = []
    _use_pool(monkeypatch, cpus, _RecordingPool)
    plan = SimPlan(window_radius=1.0, n_samples=n_batches * BATCH_SIZE, seed=2)
    estimate_voronoi_area_moment(CFG.lambda_b, plan)
    assert _RecordingPool.made == [want]


def test_association_starts_no_pool(monkeypatch):
    # its batches cost about 0.1 ms each, less than handing them to a pool
    _use_pool(monkeypatch, 8, _NoPool)
    estimate_association(CFG, SimPlan(window_radius=1.0, n_samples=8 * BATCH_SIZE, seed=2))


def test_results_in_batch_order_and_errors_propagate(monkeypatch):
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 4)
    plan = SimPlan(window_radius=1.0, n_samples=10 * BATCH_SIZE, seed=3)
    want = [rng.random() for _, rng in _batches(plan)]
    assert _map_batches(lambda size, rng: rng.random(), _batches(plan)) == want

    batches = _batches(plan)

    def fn(size, rng):
        if rng is batches[3][1]:
            raise ValueError("batch 3")
        return size
    with pytest.raises(ValueError, match="batch 3"):
        _map_batches(fn, batches)
