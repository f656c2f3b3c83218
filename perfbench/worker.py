"""One workload process: times `import accretive`, then runs the workload.

Started by run.py with BLAS pinned to one thread and the checkout's `src` on
PYTHONPATH.  Prints one JSON object with the raw measurements as its last
line; run.py turns them into metrics.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload analyze --seed 1 --seconds 20 --trace 0
"""

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_t0 = time.perf_counter()
import accretive  # noqa: E402  (the import is what setup_s measures)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import cli_cold  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def max_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count reported by numpy's OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def attempt(request, tr, item, record):
    """Run one request; record its latency and whether any claim failed.

    A request fails when a claim fails or any exception escapes: every
    generated input satisfies the hypotheses, so a typed refusal is wrong too.
    """
    t0 = time.perf_counter()
    try:
        claims = request(tr, item)
        failed = [f"{c[0]} measured={c[1]:.3e} tolerance={c[2]:.3e}" for c in claims if not c[3]]
    except Exception as exc:  # a failed request must not stop the run
        failed = [f"{type(exc).__name__}: {exc}"]
    record["latencies"].append(time.perf_counter() - t0)
    record["attempted"] += 1
    if failed:
        record["failed"] += 1
        if len(record["failures"]) < 5:
            record["failures"].append("; ".join(failed))


def run_lists(request, items, tr, seconds, record, min_lists=1):
    """Repeat the fixed request list while another full list still fits in `seconds`.

    One calibration pass follows every request, outside the request's time.
    A list's time is the sum of its request latencies.
    """
    start = time.perf_counter()
    lists, walls = [], []
    while True:
        t0 = time.perf_counter()
        first = len(record["latencies"])
        for item in items:
            attempt(request, tr, item, record)
            record["calibration"].append(calibrate.timed())
        lists.append(sum(record["latencies"][first:]))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(lists) >= min_lists and elapsed + statistics.median(walls) > seconds:
            return lists


def new_record():
    return {"latencies": [], "attempted": 0, "failed": 0, "failures": [], "calibration": []}


def merge(record, other):
    """Count another record's requests and failures, not its latencies."""
    record["attempted"] += other["attempted"]
    record["failed"] += other["failed"]
    record["failures"] += other["failures"]


def run_workload(args, items_fn, request):
    """One warm-up request, untimed; then timed lists; then one traced list if asked."""
    items = items_fn(args.seed, args.scale)
    warm = new_record()
    attempt(request, spans.NullTracer(), items_fn(args.seed, args.scale, warmup=True)[0], warm)
    calibrate.warm()
    record = new_record()
    budget = args.seconds / 2 if args.trace else args.seconds
    min_lists = cli_cold.MIN_LISTS[args.scale] if args.workload == "cli-cold" else 1
    record["lists"] = run_lists(request, items, spans.NullTracer(), budget, record, min_lists)
    record["max_rss_mib"] = max_rss_mib()
    if args.trace:
        traced = new_record()
        with spans.Tracer() as tr:
            for item in items:
                attempt(request, tr, item, traced)
        record["traced_list_s"] = sum(traced["latencies"])
        record["spans"] = tr.stats
        merge(record, traced)
    merge(record, warm)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true",
                        help="report the import time and a calibration time, and exit")
    parser.add_argument("--workload", choices=sorted(workloads.IN_PROCESS) + ["cli-cold"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(accretive.__file__).startswith(src):
        print(f"accretive imported from {accretive.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        calibrate.warm(2)
        calibration_s = statistics.median(calibrate.timed() for _ in range(3))
        print(json.dumps({"import_s": IMPORT_S, "calibration_s": calibration_s}))
        return 0
    if args.workload == "cli-cold":
        with cli_cold.WorkDir(ROOT) as work:
            items_fn = functools.partial(cli_cold.items, work=work)
            record = run_workload(args, items_fn, cli_cold.request)
            record.update(cli_cold.summary(work))
    else:
        record = run_workload(args, *workloads.IN_PROCESS[args.workload])
    record["import_s"] = IMPORT_S
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
