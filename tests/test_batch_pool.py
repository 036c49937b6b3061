"""Batches on the shared thread pool: the same results with one worker or
several, no thread for a single batch, one pool per worker count, the cap on
the threads started, and a fresh pool in a forked child."""
import concurrent.futures
import os
import select
import sys
import threading
import warnings

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
    """A real thread pool that records each pool made."""
    made = []

    def __init__(self, max_workers=None, **kwargs):
        _RecordingPool.made.append(self)
        super().__init__(max_workers=max_workers, **kwargs)

    @classmethod
    def record(cls):
        """(max workers, threads started) of each pool made."""
        return [(pool._max_workers, len(pool._threads)) for pool in cls.made]


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def _run_all(plan):
    """Every estimator that runs through _map_batches, as plain values."""
    batch = draw_sir_samples(CFG, plan)
    return [batch.is_sl, batch.sir, batch.n_degenerate,
            estimate_association(CFG, plan),
            estimate_voronoi_area_moment(CFG.lambda_b, plan),
            estimate_zero_cell_areas(CFG, plan),
            estimate_zero_cell_load(CFG, plan),
            estimate_effective_rate(CFG, plan, load_replications=plan.n_samples)]


def _use_pool(monkeypatch, cpus, pool):
    monkeypatch.setattr(simulator, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Each test starts without a shared pool; a pool it makes is shut down
    after it, and the process's own pool comes back."""
    monkeypatch.setattr(simulator, "_pool", None)
    _RecordingPool.made = []
    yield
    if simulator._pool is not None:
        simulator._pool[1].shutdown()


def test_estimators_identical_with_one_worker_and_several(monkeypatch):
    # two full batches plus a remainder
    plan = SimPlan(window_radius=default_window_radius(CFG),
                   n_samples=2 * BATCH_SIZE + 188, seed=31)
    _use_pool(monkeypatch, 1, _NoPool)
    serial = _run_all(plan)
    _use_pool(monkeypatch, 4, _RecordingPool)
    threaded = _run_all(plan)
    # SIR draws, three cell estimators, and the effective rate's numerator
    # and denominator all ran on one pool of four workers, which started no
    # more threads than a call has batches
    [(workers, threads)] = _RecordingPool.record()
    assert workers == 4 and 0 < threads <= 3
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
    (64, 3, 3),             # no more threads than batches
])
def test_worker_count(monkeypatch, cpus, n_batches, want):
    _use_pool(monkeypatch, cpus, _RecordingPool)
    plan = SimPlan(window_radius=1.0, n_samples=n_batches * BATCH_SIZE, seed=2)
    estimate_voronoi_area_moment(CFG.lambda_b, plan)
    estimate_voronoi_area_moment(CFG.lambda_b, plan)
    # one pool of min(CPUs, MAX_WORKERS) workers serves both calls
    [(workers, threads)] = _RecordingPool.record()
    assert workers == min(cpus, MAX_WORKERS)
    assert 0 < threads <= want


def test_pool_made_again_when_the_worker_count_changes(monkeypatch):
    plan = SimPlan(window_radius=1.0, n_samples=4 * BATCH_SIZE, seed=2)
    _use_pool(monkeypatch, 2, _RecordingPool)
    first = estimate_voronoi_area_moment(CFG.lambda_b, plan)
    _use_pool(monkeypatch, 3, _RecordingPool)
    assert estimate_voronoi_area_moment(CFG.lambda_b, plan) == first
    assert [pool._max_workers for pool in _RecordingPool.made] == [2, 3]
    assert _RecordingPool.made[0]._shutdown


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more callers than CPUs, switching threads often: every caller gets the
    # serial result, and the first threaded calls race to make one pool only
    plan = SimPlan(window_radius=1.0, n_samples=3 * BATCH_SIZE, seed=41)
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 1)
    want = estimate_voronoi_area_moment(CFG.lambda_b, plan)
    _use_pool(monkeypatch, 2, _RecordingPool)
    got, start = [], threading.Barrier(6)

    def caller():
        start.wait()
        got.append(estimate_voronoi_area_moment(CFG.lambda_b, plan))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 6
    [(workers, threads)] = _RecordingPool.record()
    assert workers == 2 and 0 < threads <= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_on_a_fresh_pool(monkeypatch):
    # the child inherits the parent's pool object but none of its threads:
    # a threaded draw there must make its own pool, not wait forever
    monkeypatch.setattr(simulator, "_available_cpus", lambda: 2)
    plan = SimPlan(window_radius=default_window_radius(CFG),
                   n_samples=3 * BATCH_SIZE, seed=17)
    want = draw_sir_samples(CFG, plan).sir
    assert simulator._pool is not None
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns on fork() in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            same = np.array_equal(draw_sir_samples(CFG, plan).sir, want)
            code = 0 if same and simulator._pool is not None else 3
        finally:
            os.write(write, bytes([code]))
            os._exit(code)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60.0)
        if not ready:
            os.kill(pid, 9)
        assert ready, "the forked child's threaded draw did not finish within 60 s"
        assert os.read(read, 1) == bytes([0]), "the child's draw differs from the parent's"
    finally:
        os.close(read)
        os.waitpid(pid, 0)


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
