"""Write reference.json: every analytic_sweep row (value and reported error).

    python3 benchmarks/freeze_reference.py

The frozen values let a later quadrature be judged against the one they were
recorded with: a new value passes when it differs from the frozen one by no
more than the sum of the two reported errors.  Re-freezing would defeat that,
so run this only to record a reference for a new request.
"""
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        env = workloads.Env(workdir)
        ref = {}
        for name, cfg, metric, taus, sweep in workloads.ANALYTIC_REQUESTS:
            rows = env.cli_request(name, cfg, "analytic", metric, taus=taus,
                                   sweep=sweep)[1]()
            ref[name] = workloads.reference_rows(name, rows)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in rows) + "\n ]"
            for name, rows in ref.items()) + "\n}\n")


if __name__ == "__main__":
    main()
