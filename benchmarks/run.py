"""vanetcov benchmark: three workloads, each a closed loop with one client.

    python3 benchmarks/run.py --workload mc_coverage --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

Run it from the repository root.  Every timed pass is a fresh Python process
(benchmarks/worker.py), so analytic caches start cold as they do for every
CLI invocation.  Passes run back to back until ``--seconds`` is used up (at
least three).  The seed makes each pass's inputs (Monte Carlo seeds, request
order), so one seed always gives the same inputs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
medians over the passes of set-up time, pass wall time and peak RSS.
``--trace 1`` alternates untraced and traced passes on the same inputs and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Every output is checked (see workloads.py); the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Spans and a result file
with provenance go to .bench_work/ under the repository root.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("mc_coverage", "analytic_sweep", "cell_engine")
CAL_REF_S = 0.04   # as in worker.py

MIN_PASSES = 3
HARD_LIMIT_S = 165.0   # the whole run, set-up included, stays under 180 s

# ROADMAP baseline table (Python 3.10.12, numpy 2.4.6, 2 vCPU), for the
# cross-check printed by traced runs: (label, table value, metric, request
# whose own figure matches the table's config, or None for the pass median).
BASELINE = (
    ("draw_sir_samples, REF_CFG, us/sample", "37.7", "sir_us_per_sample", "ref/dl_cov"),
    ("draw_sir_samples, 3 configs, us/sample", "-", "simulator.sir_us_per_sample", None),
    ("Voronoi replication, ms", "1.5", "simulator.voronoi_ms_per_rep", None),
    ("zero-cell replication, areas, ms", "2.7", "simulator.zero_cell_area_ms_per_rep", None),
    ("zero-cell replication, load, ms (ref+no-roads)", "0.75",
     "simulator.zero_cell_load_ms_per_rep", None),
    ("dl_coverage, ms/call (all calls of the pass)", "12-16",
     "analytic.dl_coverage.ms_per_call", None),
    ("sl_coverage, ms/call", "4-9", "analytic.sl_coverage.ms_per_call", None),
    ("effective_rate, cold, REF_CFG, s", "2.48", "rate_cold_s", "total_rate_lambda_u"),
    ("nested dl_coverage calls, cold rate, REF_CFG", "218", "dl_calls_per_rate",
     "total_rate_lambda_u"),
    ("inner-grid level (2 = 48 nodes per axis)", "-", "analytic.inner_level_mean", None),
)


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def read_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "vanetcov")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def provenance(seed):
    return {"git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": nproc(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "seed": seed}


def pass_seed(seed, k):
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def run_pass(workload, seed, trace, deadline, spans=""):
    """One worker process; returns its JSON document, or None if it failed."""
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"{workload} pass (seed {seed}) timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"{workload} pass (seed {seed}) exited {proc.returncode}:\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"{workload} pass printed no result:\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None


def run_workload(workload, seed, seconds, trace, t_start):
    """Passes back to back for ``seconds``; returns (passes, pairs, crashed)."""
    deadline = t_start + HARD_LIMIT_S
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    docs, pairs, crashed, lengths = [], [], 0, []
    t0 = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t0
        need = (k < MIN_PASSES) if not trace else (k < MIN_PASSES - 1)
        typical = statistics.median(lengths) if lengths else 0.0
        if not need and elapsed + typical > seconds:
            break
        if time.perf_counter() + typical > deadline:
            break
        s = pass_seed(seed, k)
        t_pass = time.perf_counter()
        if trace:
            spans = os.path.join(spans_dir, f"{workload}-pass{k}.csv")
            order = (0, 1) if k % 2 == 0 else (1, 0)
            got = {t: run_pass(workload, s, t, deadline, spans if t else "") for t in order}
            if got[0] is None or got[1] is None:
                crashed += 1
            else:
                pairs.append((got[0], got[1]))
            docs += [d for d in got.values() if d is not None]
        else:
            doc = run_pass(workload, s, 0, deadline)
            if doc is None:
                crashed += 1
            else:
                docs.append(doc)
        lengths.append(time.perf_counter() - t_pass)
        k += 1
    return docs, pairs, crashed


def end_to_end(docs):
    return {
        "setup_s": statistics.median(d["setup_s"] for d in docs),
        "wall_s": statistics.median(d["wall_s"] for d in docs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
    }


def per_layer(pairs, verdict_fails):
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    out = {k: statistics.median(d["layers"][k] for d in traced) for k in traced[0]["layers"]}
    out["proc.wall_s"] = statistics.median(d["wall_raw_s"] for d in plain)
    out["proc.cpu_s"] = statistics.median(d["cpu_s"] for d in plain)
    out["proc.cal_ms"] = 1e3 * statistics.median(c for d in plain for c in d["cal_s"])
    out["trace.overhead_frac"] = (statistics.median(d["wall_s"] for d in traced)
                                  / statistics.median(d["wall_s"] for d in plain) - 1.0)
    out["cli.verdict_fails"] = verdict_fails
    return out


def report(workload, seed, seconds, trace, spec, prov, t_start):
    docs, pairs, crashed = run_workload(workload, seed, seconds, trace, t_start)
    attempted = sum(d["attempted"] for d in docs) + crashed
    failed = sum(d["failed"] for d in docs) + crashed
    verdict_fails = sum(d["verdict_fails"] for d in docs)
    prov = {**prov, **(docs[0]["provenance"] if docs else {})}
    if prov.get("blas_threads") and prov["blas_threads"] > prov["nproc"]:
        fail(f"BLAS uses {prov['blas_threads']} threads on {prov['nproc']} CPUs")
    if not docs or (trace and not pairs):
        fail(f"{workload}: no pass completed", code=1)

    section = "per_layer" if trace else "end_to_end"
    values = per_layer(pairs, verdict_fails) if trace else end_to_end(docs)
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}", code=1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    n_passes = len(pairs) if trace else len(docs)
    print(f"== {workload}  seed {seed}  {n_passes} {'traced/untraced pairs' if trace else 'passes'}"
          f" (medians; one fresh process per pass)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if not trace:
        for name in ("setup_raw_s", "wall_raw_s"):
            print(f"  {name:40s} {statistics.median(d[name] for d in docs):14.6g} s"
                  f" (unscaled; calibration median "
                  f"{1e3 * statistics.median(c for d in docs for c in d['cal_s']):.1f} ms,"
                  f" reference {1e3 * CAL_REF_S:.0f} ms)")
    print(f"  {'failed_frac':40s} {failed / attempted if attempted else 0.0:14.6g}"
          f" ({failed} of {attempted} output checks failed or errored)")
    print(f"  CLI 3-sigma verdicts: {verdict_fails} rows failed over {len(docs)} passes")
    for d in docs:
        for label in d["failures"]:
            print(f"  CHECK FAILED: {label}")
    if trace:
        print(f"  baseline cross-check (ROADMAP table: Python 3.10.12; here Python "
              f"{prov['python']}, numpy {prov.get('numpy')}):")
        traced = [p[1] for p in pairs]
        for label, table, name, request in BASELINE:
            if request is None:
                value = values.get(name)
            else:
                mine = [d["by_request"][request][name] for d in traced
                        if name in d["by_request"].get(request, {})]
                value = statistics.median(mine) if mine else None
            if value:
                print(f"    {label:48s} table {table:>6s}  here {value:10.4g}")
    print("provenance " + json.dumps(prov))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "passes": docs}, fh, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "vanetcov", "__init__.py")):
        fail(f"no vanetcov sources under {ROOT}/src; run from a full checkout")
    spec = read_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # Compile the package once so no pass pays for writing bytecode.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import vanetcov  # noqa: F401
    except Exception as exc:  # a broken checkout must not print a result
        fail(f"cannot import vanetcov: {exc!r}")

    prov = provenance(args.seed)
    if args.workload != "all":
        result = report(args.workload, args.seed, seconds, args.trace, spec, prov, t_start)
    else:
        result = {w: report(w, args.seed, seconds, args.trace, spec, prov,
                            time.perf_counter()) for w in WORKLOADS}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
