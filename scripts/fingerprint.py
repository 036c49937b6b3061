"""One sha256 per estimator over a fixed set of configs and seeds, to check a
"same bits" claim: run it on two commits and compare the lines.

Usage, from the repository root:

    python3 scripts/fingerprint.py

It imports the package from this checkout's src/.  Every Monte Carlo plan
spans several 1,024-row batches, so a run on one CPU and a run on several
(``taskset -c 0`` against no affinity) exercise the inline loop and the
thread pool on the same streams; their digests must match.  A digest hashes
each result's dtype, shape and bytes (arrays) or the float.hex of each value
(estimates and analytic results), config by config and seed by seed.
"""
import dataclasses
import hashlib
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


def _sir_fields(cfg, plan):
    batch = simulator.draw_sir_samples(cfg, plan)
    return [getattr(batch, name) for name in simulator.SirBatch.ROWS] + [batch.n_degenerate]


ESTIMATORS = {
    "draw_sir_samples": (SIR_SAMPLES, _sir_fields),
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


def main():
    configs = {name: validate(NetworkConfig(**kw)) for name, kw in CONFIGS.items()}
    print(f"# configs: {', '.join(configs)}; seeds {SEEDS}; "
          f"{simulator._available_cpus()} CPU(s) available")
    for name, (n_samples, fn) in ESTIMATORS.items():
        h = hashlib.sha256()
        for cfg in configs.values():
            for seed in SEEDS:
                _update(h, fn(cfg, simulator.make_plan(cfg, n_samples, seed)))
        print(f"{name:34} {h.hexdigest()}")
    for name, fn in ANALYTIC.items():
        h = hashlib.sha256()
        for cfg in configs.values():
            _update(h, fn(cfg))
        print(f"{name:34} {h.hexdigest()}")


if __name__ == "__main__":
    main()
