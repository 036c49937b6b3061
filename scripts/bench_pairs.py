"""Paired benchmark runs of a parent commit and the working tree, written to
one BENCH file.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json [--seed0 22001]

The parent side is ``git archive REV``; the change side is a copy of the
working tree's src/, benchmarks/, BENCHMARK.json and pyproject.toml; a
second ``git archive REV`` runs as a third side, parent_copy: the A/A run.
Its gap to the parent is the spread between two checkouts of the same code,
the floor below which a parent/change gap says nothing.  Each side is
unpacked into its own directory under .bench_pairs/, and every run is

    python3 benchmarks/run.py --workload W --seed S --trace 0 --seconds T

in that directory, with T the run_seconds of BENCHMARK.json, one run per side
and pair.  Each workload gets 10 pairs.  Pairs rotate which side runs first
(pair i starts at side i mod 3, in the order parent, change, parent_copy),
and every side of a pair uses the same seed.  Workload number w (in WORKLOADS order) uses seeds seed0 + 100 w + i
for pair i.  The values come from the result file
run.py writes to .bench_work/results/; quartiles are
statistics.quantiles(n=4), and wall_raw_s is the median raw pass time of a
run.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
CHANGE_FILES = ("src", "benchmarks", "BENCHMARK.json", "pyproject.toml")
WORKLOADS = ("analytic_sweep", "mc_coverage", "cell_engine")
PAIRS = 10
WORKDIR = os.path.join(ROOT, ".bench_pairs")


def checkout_parent(rev, dest):
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def checkout_change(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work", "*.pyc")
    os.makedirs(dest)
    for name in CHANGE_FILES:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, dest)


def run(side_dir, workload, seed, seconds):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)]
    subprocess.run(cmd, cwd=side_dir, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(side_dir, ".bench_work", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    row = {"seed": seed}
    row.update({m: res["metrics"][m]["value"] for m in METRICS})
    row.update(wall_raw_s=statistics.median(p["wall_raw_s"] for p in res["passes"]),
               attempted=res["attempted"], failed=res["failed"],
               passes=len(res["passes"]))
    return row, res["provenance"]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs):
    summary = {side: {**{m: quartiles([r[m] for r in rows]) for m in METRICS},
                      "failed": sum(r["failed"] for r in rows),
                      "attempted": sum(r["attempted"] for r in rows)}
               for side, rows in runs.items()}
    doc = {"summary": summary, "pairs": len(runs["parent"])}
    for side in runs:
        if side == "parent":
            continue
        ratios = {m: [c[m] / p[m] for p, c in zip(runs["parent"], runs[side])]
                  for m in METRICS}
        doc[f"{side}_better_pairs"] = {m: sum(r < 1.0 for r in ratios[m]) for m in METRICS}
        doc[f"median_ratio_{side}_over_parent"] = {m: statistics.median(ratios[m])
                                                   for m in METRICS}
    return doc


def note(workload, doc):
    s, n = doc["summary"], doc["pairs"]
    parts = []
    for m in METRICS:
        p, c = s["parent"][m], s["change"][m]
        iqr = p["q3"] - p["q1"]
        gap = p["median"] - c["median"]
        aa = p["median"] - s["parent_copy"][m]["median"]
        parts.append(f"{m} {p['median']:.4g} -> {c['median']:.4g} "
                     f"(ratio {doc['median_ratio_change_over_parent'][m]:.3f}, "
                     f"better in {doc['change_better_pairs'][m]}/{n} pairs, "
                     f"median gap {gap:.3g} against parent IQR {iqr:.3g}, "
                     f"A/A gap {aa:.3g} (copy better in "
                     f"{doc['parent_copy_better_pairs'][m]}/{n}))")
    failed = ", ".join(f"{v['failed']} ({side})" for side, v in s.items())
    return f"{workload}: " + "; ".join(parts) + f"; failed output checks {failed}."


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed0", type=int, default=22001)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    shutil.rmtree(WORKDIR, ignore_errors=True)
    names = ("parent", "change", "parent_copy")
    sides = {name: os.path.join(WORKDIR, name) for name in names}
    checkout_parent(args.parent, sides["parent"])
    checkout_change(sides["change"])
    checkout_parent(args.parent, sides["parent_copy"])
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()

    out = {"what": ("Parent commit vs the working tree on each workload. Values are "
                    "copied from the result files that `python3 benchmarks/run.py "
                    "--workload W --seed S --trace 0` writes to .bench_work/results/, "
                    "each side run from its own directory with identical benchmark "
                    "code; pairs rotate which side runs first (see the script). "
                    "parent_copy is a second checkout of the parent: "
                    "its gap to the parent is the A/A spread between checkouts. "
                    "Written by scripts/bench_pairs.py."),
           "end_to_end_unit": {"setup_s": "s (scaled to reference speed)",
                               "wall_s": "s (scaled to reference speed)",
                               "peak_rss_mb": "MB"},
           "run_seconds": seconds,
           "provenance": {"parent_commit": parent_commit},
           "workloads": {}, "notes": []}
    for w, workload in enumerate(WORKLOADS):
        seeds = [args.seed0 + 100 * w + i for i in range(PAIRS)]
        runs = {name: [] for name in names}
        for i, seed in enumerate(seeds):
            order = names[i % len(names):] + names[:i % len(names)]
            for side in order:
                row, prov = run(sides[side], workload, seed, seconds)
                row["ran_first"] = side == order[0]
                runs[side].append(row)
                out["provenance"][side] = {k: v for k, v in prov.items() if k != "seed"}
            print(f"{workload} pair {i}: wall_s " + " ".join(
                f"{side} {rows[-1]['wall_s']:.4f}" for side, rows in runs.items()), flush=True)
        doc = {"seeds": seeds, "runs": runs, **summarise(runs)}
        out["workloads"][workload] = doc
        out["notes"].append(note(workload, doc))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    print("\n".join(out["notes"]))


if __name__ == "__main__":
    main()
