"""One timed pass of one workload, in a fresh process.

Usage (from the repository root; run.py starts it):

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR

Set-up is timed from before ``import vanetcov`` until the configs are built
and one warm-up call has returned.  The pass is timed request by request; with
``--trace 1`` the tracer is installed just before it.  The outputs are checked
after the clock stops.  The last stdout line is a JSON object for run.py.

Speed normalisation.  On a shared 2-vCPU box the host's speed drifts by tens
of percent within seconds and between minutes, and raw pass times of one
commit spread by 10-40% (interquartile range over median) across runs.  So a
fixed calibration task (``calibrate``) runs right after set-up and again
whenever ``CAL_EVERY_S`` of requests have passed.  Each stretch of requests
is scaled by CAL_REF_S over the mean calibration time at its two ends, which
gives its time at the reference speed; ``setup_s`` uses the first
calibration.  The raw times are reported next to the scaled ones.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The reference speed is the one at which ``calibrate`` takes CAL_REF_S; that
# is about its time on an idle 2-vCPU Xeon virtual machine.
CAL_REF_S = 0.04
CAL_EVERY_S = 0.5   # calibrate again once this much request time has passed


def make_calibration():
    """A fixed task mixing what the workloads do: Python calls, numpy on
    mid-size arrays with a matrix-vector product, and elementwise passes over
    an 8 MB array, as large as the kernel's.  Its buffers are allocated once,
    so the peak RSS it adds is the same fixed amount in every pass.  Returns a
    function timing one run."""
    import numpy as np
    rng = np.random.default_rng(0)
    mid = rng.random((360, 48))
    y = np.empty_like(mid)
    w = rng.random(48)
    big = np.empty(1_000_000)

    def step(x, v):
        return x * 0.5 + v

    def calibrate():
        t0 = time.perf_counter()
        s = 0.0
        for i in range(30_000):
            s = step(s, i) % 97.0
        for _ in range(40):
            np.multiply(mid, mid, out=y)
            np.add(y, 1.0, out=y)
            np.power(y, 1.5, out=y)
            np.negative(y, out=y)
            np.exp(y, out=y)
            y @ w
        big.fill(0.25)
        for _ in range(2):
            np.hypot(big, 0.5, out=big)
            np.subtract(big, 0.5, out=big)
        return time.perf_counter() - t0
    return calibrate


def blas_threads():
    """(threads, config) of the OpenBLAS that numpy loaded, or (None, None)."""
    import ctypes
    import glob

    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_n = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_c = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_n is not None and get_c is not None:
                    get_n.restype, get_n.argtypes = ctypes.c_int, []
                    get_c.restype, get_c.argtypes = ctypes.c_char_p, []
                    return get_n(), get_c().decode()
    return None, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    env = workloads.Env(args.workdir)
    if not os.path.abspath(env.vanetcov.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported vanetcov from {env.vanetcov.__file__}, not this checkout")
    requests = workloads.build(args.workload, env, args.seed)
    env.warm_up(args.seed)
    setup_raw = time.perf_counter() - T_START

    calibrate = make_calibration()
    cals = [calibrate()]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(env.cli, env.simulator, env.analytic)

    outputs, request_s = [], {}
    wall_raw = wall = cpu = stretch = 0.0
    for i, (name, call) in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        c0, t0 = time.process_time(), time.perf_counter()
        outputs.append((name, call()))
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        request_s[name] = dt
        stretch += dt
        if stretch >= CAL_EVERY_S or i == len(requests) - 1:
            cals.append(calibrate())
            wall += stretch * CAL_REF_S / (0.5 * (cals[-2] + cals[-1]))
            wall_raw += stretch
            stretch = 0.0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {"setup_s": setup_raw * CAL_REF_S / cals[0], "wall_s": wall,
           "setup_raw_s": setup_raw, "wall_raw_s": wall_raw, "cpu_s": cpu,
           "cal_s": cals, "peak_rss_mb": peak_rss_kb / 1024.0, "request_s": request_s}
    if tracer is not None:
        tracer.uninstall()
        doc["layers"], by_request = tracer.metrics(wall_raw)
        doc["by_request"] = {requests[i][0]: v for i, v in by_request.items()}
        if args.spans:
            tracer.dump(args.spans)

    checks = workloads.check(args.workload, env, outputs)
    failures = [label for ok, label in checks if not ok]
    doc.update(attempted=len(checks), failed=len(failures), failures=failures[:10],
               verdict_fails=workloads.verdict_failures(outputs))
    threads, config = blas_threads()
    import numpy
    doc["provenance"] = {"numpy": numpy.__version__, "blas_threads": threads,
                         "blas_config": config}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
