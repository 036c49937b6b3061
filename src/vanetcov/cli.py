"""Batch driver: load a config, run analytic and/or Monte Carlo pipelines,
sweep parameters, and emit CSV plus a JSON mirror.

In validate mode each row carries the Monte Carlo estimate in the value
column and a pass/fail verdict; the JSON mirror additionally records the
analytic value, its quadrature error, and the z-score.  In montecarlo and
validate modes the mirror's coverage rows also carry ``mc_bias_bound``, the
stated bias of the Monte Carlo window (``simulator.Estimate.bias_bound``);
the CSV columns stay as they are.  Verdicts follow only
from |analytic - mc| <= 3 * std_error + quadrature_error; nothing is nudged
to force agreement.  The rule is applied per row, so a report of failures
also gives how many a correct model would fail by chance alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

from . import analytic, simulator
from .config import NetworkConfig, ValidationError, load_config, validate
from .quadrature import NonConvergenceError

SEED_ENV_VAR = "VANET_SEED"
VERDICT_SIGMAS = 3.0

MODES = ("analytic", "montecarlo", "validate")
METRICS = ("assoc", "dl_cov", "sl_cov", "total_cov", "eff_rate", "utility",
           "total_rate", "nu")

_COLUMNS = [f.name for f in fields(NetworkConfig)] + [
    "metric", "tau_or_epsilon", "value", "std_error_or_quad_error",
    "n_samples", "seed", "verdict", "error",
]


@dataclass(frozen=True)
class RunRequest:
    config_path: str
    mode: str
    metric: str
    output_path: str
    tau_grid: tuple[float, ...] = ()
    sweep: tuple[str, tuple[float, ...]] | None = None
    seed: int | None = None
    n_samples: int = 0
    timestamp: bool = True


def _verdict(analytic_value, analytic_err, mc_mean, mc_se):
    gap = abs(analytic_value - mc_mean)
    ok = gap <= VERDICT_SIGMAS * mc_se + analytic_err
    z = gap / mc_se if mc_se > 0 else (0.0 if gap == 0 else math.inf)
    return ("pass" if ok else "fail"), z


# coverage metric -> (analytic terms summed, Monte Carlo link).  The terms are
# attribute names, looked up on each call, so a wrapped or patched
# ``analytic.dl_coverage`` sees every call: one per config's tau grid, or one
# per threshold after a grid call fails.
_COVERAGE = {
    "dl_cov": (("dl_coverage",), simulator.DOWNLINK),
    "sl_cov": (("sl_coverage",), simulator.SIDELINK),
    "total_cov": (("dl_coverage", "sl_coverage"), simulator.TOTAL),
}


def _coverage_term(cfg, name, taus):
    """One AnalyticResult, or the exception in its place, per threshold of
    ``taus`` for the analytic term ``name``.  The downlink takes the whole
    grid in one call on one shared outer rule; only when that call fails is
    each threshold evaluated alone, so one failing threshold keeps the
    others."""
    fn = getattr(analytic, name)
    if name == "dl_coverage":
        try:
            values, errors = fn(cfg, taus)
            return [analytic.AnalyticResult(float(v), float(e))
                    for v, e in zip(values, errors)]
        except NonConvergenceError:
            pass
    out = []
    for tau in taus:
        try:
            out.append(fn(cfg, tau))
        except NonConvergenceError as exc:
            out.append(exc)
    return out


def _analytic_results(cfg, req):
    """(metric, tau_or_epsilon, AnalyticResult) per row.  The nu row states
    an error of 0: the bound of ``nu`` is not carried yet.  A coverage
    threshold whose integral fails has the exception in place of its
    result."""
    m = req.metric
    if m == "assoc":
        sl, err = analytic._p_assoc_sl(cfg.lambda_l, cfg.mu, cfg.rho)
        return [("assoc_sl", "", analytic.AnalyticResult(sl, err)),
                ("assoc_dl", "", analytic.AnalyticResult(1.0 - sl, err))]
    if m in _COVERAGE:
        out = []
        terms = [_coverage_term(cfg, name, req.tau_grid) for name in _COVERAGE[m][0]]
        for tau, parts in zip(req.tau_grid, zip(*terms)):
            failed = [p for p in parts if isinstance(p, Exception)]
            out.append((m, tau, failed[0] if failed else analytic.AnalyticResult(
                sum(p.value for p in parts), sum(p.est_abs_error for p in parts))))
        return out
    if m == "eff_rate":
        return [(m, "", analytic.effective_rate_with_error(cfg))]
    if m in ("utility", "total_rate"):
        fn = analytic.network_utility_with_error if m == "utility" \
            else analytic.total_rate_with_error
        return [(m, cfg.epsilon, fn(cfg))]
    return [(m, "", analytic.AnalyticResult(analytic.nu(), 0.0))]


def _mc_results(cfg, req, seed):
    """(metric, tau_or_epsilon, Estimate) per row, in the order of
    ``_analytic_results``."""
    m = req.metric
    plan = simulator.make_plan(cfg, req.n_samples, seed)
    if m == "assoc":
        sl, dl = simulator.estimate_association(cfg, plan)
        return [("assoc_sl", "", sl), ("assoc_dl", "", dl)]
    if m in _COVERAGE:
        link = _COVERAGE[m][1]
        grid = simulator.estimate_coverage_grid(
            cfg, req.tau_grid, plan, link=None if link == simulator.TOTAL else link)
        return [(m, tau, grid[(link, float(tau))]) for tau in req.tau_grid]
    if m == "eff_rate":
        return [(m, "", simulator.estimate_effective_rate(cfg, plan))]
    if m in ("utility", "total_rate"):
        # as in analytic._weighted_links, a term with zero weight is not
        # evaluated; at epsilon = 0 the sidelink term is the association
        w_sl, w_dl = (cfg.w_s, cfg.w_d) if m == "utility" else (cfg.epsilon, 1.0)
        zero = simulator.Estimate(0.0, 0.0, plan.n_samples)
        tau_eps = 2.0 ** cfg.epsilon - 1.0
        sl = simulator.estimate_coverage_grid(cfg, (tau_eps,), plan, link=simulator.SIDELINK)[
            (simulator.SIDELINK, tau_eps)] if w_sl > 0 else zero
        rate = simulator.estimate_effective_rate(cfg, plan) if w_dl > 0 else zero
        return [(m, cfg.epsilon, simulator.Estimate(
            w_sl * sl.mean + w_dl * rate.mean,
            math.hypot(w_sl * sl.std_error, w_dl * rate.std_error), plan.n_samples))]
    est = simulator.estimate_voronoi_area_moment(cfg.lambda_b, plan)
    scale = cfg.lambda_b ** 2
    return [(m, "", simulator.Estimate(scale * est.mean, scale * est.std_error,
                                       est.n_samples))]


def _row(cfg, **values) -> dict:
    return {**dict.fromkeys(_COLUMNS, ""), **vars(cfg), **values}


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _rows_for_config(cfg, req, seed):
    if req.mode == "analytic":
        return [_row(cfg, metric=m, tau_or_epsilon=t, error=_error_text(res))
                if isinstance(res, Exception) else
                _row(cfg, metric=m, tau_or_epsilon=t, value=res.value,
                     std_error_or_quad_error=res.est_abs_error)
                for m, t, res in _analytic_results(cfg, req)]
    refs = _analytic_results(cfg, req) if req.mode == "validate" else None
    rows = [_row(cfg, metric=m, tau_or_epsilon=t, value=est.mean,
                 std_error_or_quad_error=est.std_error,
                 n_samples=est.n_samples, seed=seed,
                 **({"mc_bias_bound": est.bias_bound} if m in _COVERAGE else {}))
            for m, t, est in _mc_results(cfg, req, seed)]
    if refs is not None:
        for row, (_, _, res) in zip(rows, refs, strict=True):
            if isinstance(res, Exception):
                row["error"] = _error_text(res)
                continue
            row["verdict"], z = _verdict(res.value, res.est_abs_error, row["value"],
                                         row["std_error_or_quad_error"])
            row.update(analytic_value=res.value, analytic_error=res.est_abs_error,
                       z_score=z)
    return rows


def _resolve_seed(req: RunRequest):
    env = os.environ.get(SEED_ENV_VAR)
    if req.seed is None and env is None:
        if req.mode in ("montecarlo", "validate"):
            raise ValidationError(
                f"montecarlo/validate modes need --seed or {SEED_ENV_VAR}")
        return 0
    try:
        seed = req.seed if req.seed is not None else int(env)
    except ValueError as exc:
        raise ValidationError(f"{SEED_ENV_VAR} must be a decimal integer") from exc
    if seed < 0:
        raise ValidationError(f"the seed must be nonnegative, not {seed}")
    return seed


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def run(req: RunRequest) -> list[dict]:
    """Execute the request and write the CSV and JSON outputs."""
    if req.mode not in MODES:
        raise ValidationError(f"unknown mode {req.mode!r}")
    if req.metric not in METRICS:
        raise ValidationError(f"unknown metric {req.metric!r}")
    if req.metric in _COVERAGE and not req.tau_grid:
        raise ValidationError(f"metric {req.metric} needs --tau values")
    base_cfg = load_config(req.config_path)
    seed = _resolve_seed(req)
    if req.mode in ("montecarlo", "validate") and req.n_samples < 1:
        raise ValidationError("n_samples must be >= 1")

    if req.sweep is not None:
        field, values = req.sweep
        if field not in vars(base_cfg):
            raise ValidationError(f"sweep parameter {field!r} is not a config field")
        variants = [{field: v} for v in values]
    else:
        variants = [{}]
    if os.path.isdir(req.output_path):
        raise ValidationError(f"--out {req.output_path} is a directory")
    if not os.path.isdir(os.path.dirname(req.output_path) or "."):
        raise ValidationError(f"--out {req.output_path}: no such directory")

    rows: list[dict] = []
    for variant in variants:
        cfg = base_cfg
        try:
            cfg = validate(replace(base_cfg, **variant))
            rows.extend(_rows_for_config(cfg, req, seed))
        except (ValidationError, NonConvergenceError, ValueError) as exc:
            rows.append(_row(cfg, **variant, metric=req.metric,
                             error=_error_text(exc)))
    _write_outputs(req, rows)
    return rows


def _write_outputs(req: RunRequest, rows: list[dict]) -> None:
    generated = datetime.now(timezone.utc).isoformat()
    with open(req.output_path, "w", encoding="utf-8", newline="") as fh:
        if req.timestamp:
            fh.write(f"# generated {generated}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows([_fmt(row[col]) for col in _COLUMNS] for row in rows)

    json_path = (req.output_path[:-4] if req.output_path.endswith(".csv")
                 else req.output_path) + ".json"
    # strict JSON has no Infinity or NaN: a non-finite float (the z-score of a
    # row whose Monte Carlo std error is 0) is written as null
    doc = {"columns": _COLUMNS,
           "rows": [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                     for k, v in row.items()} for row in rows]}
    if req.timestamp:
        doc["generated"] = generated
    # one write: json.dump streams many small chunks through the file object
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, default=str, allow_nan=False) + "\n")


def _numbers(text: str) -> tuple[float, ...]:
    """argparse type of --tau and --sweep's values: one or more numbers."""
    try:
        values = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list: {text}") from None
    if not values:
        raise argparse.ArgumentTypeError("number list is empty")
    return values


def _parse_sweep(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("sweep must look like name=v1,v2,...")
    name, _, values = text.partition("=")
    return name.strip(), _numbers(values)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vanetcov",
        description="Sidelink/downlink coexistence metrics: analytic, Monte "
                    "Carlo, or cross-validation runs over a config file.")
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--tau", type=_numbers, default=(),
                   help="comma-separated SIR thresholds, linear (dB with "
                        "--db-thresholds), positive and finite once converted")
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   metavar="name=v1,v2,...")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None,
                   help=f"nonnegative master seed; falls back to ${SEED_ENV_VAR}")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--db-thresholds", action="store_true",
                   help="interpret --tau values as dB and convert on parse")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress the timestamp header line")
    return p


def _chance_note(n_rows: int) -> str:
    """Expected failures of n_rows correct rows under the per-row rule: each
    fails with the two-sided normal tail probability beyond VERDICT_SIGMAS."""
    expected = n_rows * math.erfc(VERDICT_SIGMAS / math.sqrt(2.0))
    return (f"about {expected:.2g} expected by chance: "
            f"{n_rows} rows at {VERDICT_SIGMAS:g} sigma")


def _from_db(t: float) -> float:
    """Linear threshold of t dB; past the float range it reads inf."""
    try:
        return 10.0 ** (t / 10.0)
    except OverflowError:
        return math.inf


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    taus = args.tau
    if args.db_thresholds:
        taus = tuple(_from_db(t) for t in taus)
    req = RunRequest(
        config_path=args.config, mode=args.mode, metric=args.metric,
        output_path=args.out, tau_grid=taus, sweep=args.sweep,
        seed=args.seed, n_samples=args.samples,
        timestamp=not args.no_timestamp)
    try:
        if not all(0.0 < t < math.inf for t in taus):  # NaN fails both
            raise ValidationError("tau values must be positive and finite")
        rows = run(req)
    except (ValidationError, OSError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = [r for r in rows if r.get("error")]
    judged = [r for r in rows if r.get("verdict")]
    verdicts = [r for r in judged if r["verdict"] == "fail"]
    print(f"wrote {len(rows)} rows to {req.output_path}")
    if verdicts:
        print(f"{len(verdicts)} validation rows FAILED ({_chance_note(len(judged))})",
              file=sys.stderr)
    if failures:
        print(f"{len(failures)} rows recorded errors", file=sys.stderr)
    return 1 if verdicts or failures else 0


if __name__ == "__main__":
    sys.exit(main())
