"""One sha256 per estimator over a fixed set of configs and seeds, to check a
"same bits" claim: run it on two commits and compare the lines.

Usage, from the repository root:

    python3 scripts/fingerprint.py

It imports the package from this checkout's src/.  Every Monte Carlo plan
spans several 1,024-row batches, so a run on one CPU and a run on several
(``taskset -c 0`` against no affinity) exercise the inline loop and the
thread pool on the same streams; their digests must match.  A digest hashes
each result's dtype, shape and bytes (arrays) or the float.hex of each value
(estimates and analytic results), config by config and seed by seed.  The
analytic evaluators and draw_sir_samples are also hashed on STEEP_CONFIGS
(whole alpha 4 and 6, and alpha 4 with no roads), one line each; the Monte
Carlo line covers the path loss of whole even alpha.  A last line hashes
draw_sir_samples on DENSE_CONFIGS (REF at mu = 40): about 1.5M vehicles a
batch, which the kernel passes in many row ranges of VEHICLE_SLICE vehicles.
Two lines hash draw_sir_samples on CONFIGS with one link resolved
(``link=SIDELINK`` and ``link=DOWNLINK``), the path of single-link requests;
their rows of that link must equal the two-link draw's.  The last line hashes
one kernel batch (``simulator._sir_chunk``, both links, then each alone) on
DEGENERATE_CONFIGS, in a window with lambda_b pi R^2 = 2: about e^-2 of the
rows draw no base station, and the downlink ones among them are redrawn.
"""
import dataclasses
import hashlib
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from vanetcov import NetworkConfig, analytic, simulator, validate  # noqa: E402

REF = dict(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=50.0, rho=0.05, alpha=3.0,
           p_b=1.0, p_v=1.0, epsilon=1.0)
CONFIGS = {
    "REF": REF,
    "rho 0.15": dict(REF, rho=0.15),
    "lambda_l 2 / mu 1": dict(REF, lambda_l=2.0, mu=1.0),
    "alpha 2.5 / p_v 0.3": dict(REF, alpha=2.5, p_v=0.3),
}
STEEP_CONFIGS = {
    "alpha 4": dict(REF, alpha=4.0),
    "alpha 6": dict(REF, alpha=6.0),
    "no roads / alpha 4": dict(REF, lambda_l=0.0, mu=0.0, alpha=4.0),
}
DENSE_CONFIGS = {"mu 40": dict(REF, mu=40.0)}
DEGENERATE_CONFIGS = {"rho 0.05 / p_v 0.5": dict(REF, lambda_u=200.0, p_v=0.5)}
DEGENERATE_ROWS = 4096
SEEDS = (11, 2026)
SIR_SAMPLES = 5000       # four full batches and a short one
CELL_SAMPLES = 2500      # two full batches and a short one
TAUS = (0.0, 0.1, 1.0, 10.0)


def _update(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for v in value:
            _update(h, v)
    elif dataclasses.is_dataclass(value):
        _update(h, [getattr(value, f.name) for f in dataclasses.fields(value)])
    else:
        h.update(float(value).hex().encode())


def _batch_fields(batch):
    return [getattr(batch, name) for name in simulator.SirBatch.ROWS] + [batch.n_degenerate]


def _sir_fields(cfg, plan, link=None):
    return _batch_fields(simulator.draw_sir_samples(cfg, plan, link=link))


def _degenerate_chunks(cfg, plan):
    # one batch of plan.n_samples rows at lambda_b pi R^2 = 2
    plan = dataclasses.replace(plan, window_radius=math.sqrt(2.0 / (math.pi * cfg.lambda_b)))
    out = []
    for link in (None, simulator.SIDELINK, simulator.DOWNLINK):
        out += _batch_fields(simulator._sir_chunk(cfg, plan, plan.n_samples,
                                                  np.random.default_rng(plan.seed), link))
    return out


ESTIMATORS = {
    "draw_sir_samples": (SIR_SAMPLES, _sir_fields),
    "draw_sir_samples SL only": (
        SIR_SAMPLES, lambda cfg, plan: _sir_fields(cfg, plan, simulator.SIDELINK)),
    "draw_sir_samples DL only": (
        SIR_SAMPLES, lambda cfg, plan: _sir_fields(cfg, plan, simulator.DOWNLINK)),
    "estimate_association": (SIR_SAMPLES, simulator.estimate_association),
    "estimate_voronoi_area_moment": (
        CELL_SAMPLES, lambda cfg, plan: simulator.estimate_voronoi_area_moment(cfg.lambda_b, plan)),
    "estimate_zero_cell_areas": (CELL_SAMPLES, simulator.estimate_zero_cell_areas),
    "estimate_zero_cell_load": (CELL_SAMPLES, simulator.estimate_zero_cell_load),
    "estimate_effective_rate": (CELL_SAMPLES, simulator.estimate_effective_rate),
}
ANALYTIC = {
    "analytic.dl_coverage": lambda cfg: analytic.dl_coverage(cfg, list(TAUS)),
    "analytic.sl_coverage": lambda cfg: [analytic.sl_coverage(cfg, tau) for tau in TAUS],
    "analytic.effective_rate_with_error": analytic.effective_rate_with_error,
}
# more evaluators on CONFIGS; a scalar tau takes dl_coverage's plain integrand
ANALYTIC_MORE = {
    "analytic.dl_coverage scalar tau": lambda cfg: [analytic.dl_coverage(cfg, tau)
                                                    for tau in TAUS],
    "analytic.network_utility_with_error": analytic.network_utility_with_error,
    "analytic.total_rate_with_error": analytic.total_rate_with_error,
}


def _mc_digest(n_samples, fn, configs):
    h = hashlib.sha256()
    for cfg in configs.values():
        for seed in SEEDS:
            _update(h, fn(cfg, simulator.make_plan(cfg, n_samples, seed)))
    return h.hexdigest()


def _analytic_digest(fn, configs):
    h = hashlib.sha256()
    for cfg in configs.values():
        _update(h, fn(cfg))
    return h.hexdigest()


def main():
    configs = {name: validate(NetworkConfig(**kw)) for name, kw in CONFIGS.items()}
    steep = {name: validate(NetworkConfig(**kw)) for name, kw in STEEP_CONFIGS.items()}
    dense = {name: validate(NetworkConfig(**kw)) for name, kw in DENSE_CONFIGS.items()}
    degenerate = {name: validate(NetworkConfig(**kw))
                  for name, kw in DEGENERATE_CONFIGS.items()}
    print(f"# configs: {', '.join(configs)}; seeds {SEEDS}; "
          f"{simulator._available_cpus()} CPU(s) available")
    for name, (n_samples, fn) in ESTIMATORS.items():
        print(f"{name:34} {_mc_digest(n_samples, fn, configs)}")
    for name, fn in {**ANALYTIC, **ANALYTIC_MORE}.items():
        print(f"{name:34} {_analytic_digest(fn, configs)}")
    for name, fn in ANALYTIC.items():
        print(f"{'steep: ' + name.removeprefix('analytic.'):34} {_analytic_digest(fn, steep)}")
    print(f"{'steep: draw_sir_samples':34} "
          f"{_mc_digest(*ESTIMATORS['draw_sir_samples'], steep)}")
    print(f"{'dense: draw_sir_samples':34} "
          f"{_mc_digest(*ESTIMATORS['draw_sir_samples'], dense)}")
    print(f"{'degenerate: _sir_chunk':34} "
          f"{_mc_digest(DEGENERATE_ROWS, _degenerate_chunks, degenerate)}")


if __name__ == "__main__":
    main()
