"""The three benchmark workloads: their requests and their output checks.

Each workload is one closed-loop client: ``build`` turns a pass seed into a
list of ``(name, call)`` requests that run back to back, and ``check`` judges
their outputs.
Requests go through ``vanetcov.cli.run`` where the CLI has an entry point and
through the public simulator functions where it does not (the zero-cell
estimators).  Module attributes are looked up at call time so that the
tracer's wrappers see every call.

- ``mc_coverage``: ``validate`` runs of dl_cov, sl_cov and assoc on the
  three coverage cross-validation configs.  The SIR kernel does most of the
  work; the analytic side is 42 single-level coverage calls.
- ``analytic_sweep``: analytic-mode sweeps, no Monte Carlo.  Cold effective
  rates (nested dl_coverage), rate-numerator cache hits along lambda_u, plain
  coverage calls along mu, and the no-roads alpha=4 config.
- ``cell_engine``: the per-replication cell estimators (Voronoi moment,
  zero-cell areas and loads).  No SIR draws, no analytic integrals.
"""
from __future__ import annotations

import json
import math
import os
import random

import numpy as np

BASE = dict(lambda_l=5.0, mu=5.0, lambda_b=5.0, lambda_u=200.0, rho=0.05,
            alpha=3.0, p_b=1.0, p_v=1.0, epsilon=1.0, w_s=0.5, w_d=0.5)

CONFIGS = {
    "ref": BASE,
    "rho15": {**BASE, "rho": 0.15},
    "ll2_mu1": {**BASE, "lambda_l": 2.0, "mu": 1.0},
    "util_rho20": {**BASE, "rho": 0.2},
    "noroads_a4": {**BASE, "lambda_l": 0.0, "mu": 0.0, "alpha": 4.0},
    # Used only by the warm-up call: alpha 3.7 shares no (tau, alpha) key of
    # the base-station coefficient cache and no rate-numerator key with any
    # timed request, so the timed requests start as cold as a fresh CLI run.
    "warmup": {**BASE, "alpha": 3.7},
}

COVERAGE_TAUS = tuple(float(t) for t in np.logspace(-1.0, 1.0, 7))
SWEEP_TAUS = tuple(float(t) for t in np.logspace(-1.0, 1.0, 5))

# Sizes per request, chosen so one pass takes a few seconds on a 2-core box.
MC_SAMPLES = 12_288          # three 4096-sample kernel batches per request
NU_REPS = 800
AREA_REPS = 400
LOAD_REPS = 1_000

NU = 1.280                   # Gilbert's Poisson-Voronoi second moment
Z_BOUND = 5.0                # |gap| <= 5 sigma: rare false alarms over many runs
ORACLE_TOL = 1e-4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class Env:
    """What a pass shares: the imported package, config files and objects."""

    def __init__(self, workdir):
        import vanetcov
        from vanetcov import analytic, cli, simulator
        self.vanetcov, self.cli, self.simulator, self.analytic = vanetcov, cli, simulator, analytic
        self.workdir = workdir
        self.paths, self.cfgs = {}, {}
        for name, doc in CONFIGS.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths[name] = path
            self.cfgs[name] = vanetcov.validate(vanetcov.NetworkConfig(**doc))

    def cli_request(self, name, cfg, mode, metric, taus=(), sweep=None,
                    samples=0, seed=None):
        req = self.cli.RunRequest(
            config_path=self.paths[cfg], mode=mode, metric=metric,
            output_path=os.path.join(self.workdir, name.replace("/", "_") + ".csv"),
            tau_grid=tuple(taus), sweep=sweep, seed=seed, n_samples=samples)
        return name, lambda: self.cli.run(req)

    def warm_up(self, seed):
        self.cli_request("warmup", "warmup", "validate", "dl_cov", taus=(0.37,),
                         samples=512, seed=seed)[1]()


# ---------------------------------------------------------------------------
# request lists
# ---------------------------------------------------------------------------

def _mc_coverage(env, rng):
    reqs = []
    for cfg in ("ref", "rho15", "ll2_mu1"):
        for metric in ("dl_cov", "sl_cov"):
            reqs.append(env.cli_request(f"{cfg}/{metric}", cfg, "validate", metric,
                                        taus=COVERAGE_TAUS, samples=MC_SAMPLES,
                                        seed=rng.getrandbits(31)))
        reqs.append(env.cli_request(f"{cfg}/assoc", cfg, "validate", "assoc",
                                    samples=MC_SAMPLES, seed=rng.getrandbits(31)))
    return reqs


ANALYTIC_REQUESTS = (
    # name, config, metric, taus, sweep
    ("utility_p_v", "util_rho20", "utility", (), ("p_v", (0.1, 1.0))),
    ("total_rate_lambda_u", "ref", "total_rate", (),
     ("lambda_u", (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0))),
    ("dl_cov_mu", "ref", "dl_cov", SWEEP_TAUS, ("mu", (1.0, 5.0, 10.0, 20.0, 40.0))),
    ("sl_cov_mu", "ref", "sl_cov", SWEEP_TAUS, ("mu", (1.0, 5.0, 10.0, 20.0, 40.0))),
    ("noroads_dl_cov", "noroads_a4", "dl_cov", COVERAGE_TAUS, None),
    ("noroads_eff_rate", "noroads_a4", "eff_rate", (), None),
)


def _analytic_sweep(env, rng):
    reqs = [env.cli_request(name, cfg, "analytic", metric, taus=taus, sweep=sweep)
            for name, cfg, metric, taus, sweep in ANALYTIC_REQUESTS]
    rng.shuffle(reqs)   # the seed sets the order; every cache key stays the same
    return reqs


def _cell_engine(env, rng):
    sim = env.simulator
    ref, noroads = env.cfgs["ref"], env.cfgs["noroads_a4"]

    def lib(name, fn_name, cfg, reps, seed):
        return name, lambda: getattr(sim, fn_name)(cfg, sim.make_plan(cfg, reps, seed))

    return [
        env.cli_request("nu", "ref", "montecarlo", "nu", samples=NU_REPS,
                        seed=rng.getrandbits(31)),
        lib("zero_cell_areas", "estimate_zero_cell_areas", ref, AREA_REPS,
            rng.getrandbits(31)),
        lib("zero_cell_load/ref", "estimate_zero_cell_load", ref, LOAD_REPS,
            rng.getrandbits(31)),
        lib("zero_cell_load/noroads_a4", "estimate_zero_cell_load", noroads,
            LOAD_REPS, rng.getrandbits(31)),
    ]


# ---------------------------------------------------------------------------
# checks: each returns a list of (ok, label)
# ---------------------------------------------------------------------------

def _rows_clean(name, rows):
    return [(not r.get("error"), f"{name}: row error {r.get('error')!r}") for r in rows] \
        + [(len(rows) > 0, f"{name}: no rows")]


def _check_mc_coverage(env, outputs):
    res = []
    for name, rows in outputs:
        res += _rows_clean(name, rows)
        for r in rows:
            gap = abs(r["value"] - r["analytic_value"])
            lim = Z_BOUND * r["std_error_or_quad_error"] + r["analytic_error"]
            res.append((gap <= lim, f"{name} {r['metric']} tau={r['tau_or_epsilon']}: "
                                    f"|mc-analytic|={gap:.3g} > {lim:.3g}"))
        if name.endswith("/assoc"):
            total = sum(r["value"] for r in rows)
            res.append((total == 1.0, f"{name}: sl+dl={total!r} != 1"))
        else:
            series = [r["value"] for r in sorted(rows, key=lambda r: r["tau_or_epsilon"])]
            res.append((all(a >= b for a, b in zip(series, series[1:])),
                        f"{name}: coverage not non-increasing in tau {series}"))
    return res


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_rows(name, rows):
    """The identity and value of each analytic row, as frozen in reference.json."""
    sweep = dict((n, s) for n, _, _, _, s in ANALYTIC_REQUESTS)[name]
    return [[r["metric"], r["tau_or_epsilon"], r[sweep[0]] if sweep else "",
             r["value"], r["std_error_or_quad_error"]] for r in rows]


def noroads_dl_oracle(tau):
    """Classic PPP downlink coverage at alpha = 4 (no vehicles, no noise)."""
    s = math.sqrt(tau)
    return 1.0 / (1.0 + s * (0.5 * math.pi - math.atan(1.0 / s)))


def _check_analytic_sweep(env, outputs):
    ref = load_reference()
    res = []
    for name, rows in outputs:
        res += _rows_clean(name, rows)
        want = ref.get(name, [])
        got = reference_rows(name, rows)
        res.append((len(got) == len(want), f"{name}: {len(got)} rows, reference has {len(want)}"))
        for g, w in zip(got, want):
            same_row = g[:3] == w[:3]
            res.append((same_row, f"{name}: row {g[:3]} does not match reference {w[:3]}"))
            lim = (g[4] or 0.0) + (w[4] or 0.0)
            res.append((abs(g[3] - w[3]) <= lim,
                        f"{name} {g[:3]}: {g[3]!r} vs frozen {w[3]!r} beyond {lim:.3g}"))
        values = [r["value"] for r in rows]
        if name == "utility_p_v":
            res.append((all(b >= a for a, b in zip(values, values[1:])),
                        f"{name}: utility decreases in p_v {values}"))
        elif name == "total_rate_lambda_u":
            res.append((all(b < a for a, b in zip(values, values[1:])),
                        f"{name}: total rate not strictly decreasing {values}"))
        elif name == "noroads_dl_cov":
            for r in rows:
                want_v = noroads_dl_oracle(r["tau_or_epsilon"])
                res.append((abs(r["value"] - want_v) <= ORACLE_TOL,
                            f"{name} tau={r['tau_or_epsilon']}: {r['value']!r} vs "
                            f"closed form {want_v!r}"))
    return res


def _within(est, want, label):
    gap = abs(est.mean - want)
    return gap <= Z_BOUND * est.std_error, \
        f"{label}: {est.mean:.5g} vs {want:.5g}, {gap / est.std_error if est.std_error else math.inf:.2f} sigma"


def _check_cell_engine(env, outputs):
    out = dict(outputs)
    res = _rows_clean("nu", out["nu"])
    for r in out["nu"]:
        gap = abs(r["value"] - NU)
        res.append((gap <= Z_BOUND * r["std_error_or_quad_error"],
                    f"nu: {r['value']:.5g} vs {NU}"))
    ref = env.cfgs["ref"]
    p_sl = env.analytic.p_assoc_sl(ref.lambda_l, ref.mu, ref.rho)
    whole = NU / ref.lambda_b
    est_in, est_out = out["zero_cell_areas"]
    res.append(_within(est_in, whole * p_sl, "zero-cell area inside"))
    res.append(_within(est_out, whole * (1.0 - p_sl), "zero-cell area outside"))
    for name, cfg, p_dl in (("zero_cell_load/ref", ref, 1.0 - p_sl),
                            ("zero_cell_load/noroads_a4", env.cfgs["noroads_a4"], 1.0)):
        res.append(_within(out[name], cfg.lambda_u * NU / cfg.lambda_b * p_dl, name))
    return res


WORKLOADS = {
    "mc_coverage": (_mc_coverage, _check_mc_coverage),
    "analytic_sweep": (_analytic_sweep, _check_analytic_sweep),
    "cell_engine": (_cell_engine, _check_cell_engine),
}


def build(workload, env, pass_seed):
    return WORKLOADS[workload][0](env, random.Random(pass_seed))


def check(workload, env, outputs):
    return WORKLOADS[workload][1](env, outputs)


def verdict_failures(outputs):
    """Rows the CLI itself marked ``fail`` under its per-row 3-sigma rule."""
    return sum(1 for _, rows in outputs if isinstance(rows, list)
               for r in rows if isinstance(r, dict) and r.get("verdict") == "fail")
