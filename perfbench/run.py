"""Benchmark of the accretive toolkit, driven from outside the library.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: analyze, pipeline, solve-large, cli-cold (see README.md).  Every
workload process runs with BLAS pinned to one thread and imports the library
from this checkout's `src`.  End-to-end times are reported at the fixed
reference speed of calibrate.py, which cancels the drift of a shared host.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced list.  The exit code is 0 only when every output was checked
correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("analyze", "pipeline", "solve-large", "cli-cold")
PINNED = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 4  # fresh processes that only import accretive and calibrate
# The library functions the benchmark calls through a span, each with the
# kernel stats it can reach; every span also has calls, busy_s and peak_mib.
# bvp.solve_bvp.eigh_matrices is 0 today and stays listed to show it stays so.
LAYER_FUNCTIONS = (
    ("linops.operator_norm", ("svd_calls",)),
    ("linops.accretivity_report", ("eigh_matrices", "svd_calls", "eigvals_calls")),
    ("linops.numerical_range_boundary", ("eigh_matrices",)),
    ("linops.support_excess", ("eigh_matrices",)),
    ("pinv.perturbation_certificate", ("eigh_matrices", "svd_calls", "eigvals_calls")),
    ("pinv.pseudoinverse", ("svd_calls",)),
    ("pinv.perturbed_pinv", ("svd_calls",)),
    ("pencil.factorize", ("eigh_matrices", "svd_calls", "eigvals_calls")),
    ("pencil.factorization_residuals", ("svd_calls",)),
    ("pencil.pencil_spectrum", ("eigvals_calls",)),
    ("pencil.multiset_match_distance", ()),
    ("pencil.vandermonde_check", ("svd_calls",)),
    ("bvp.BvpProblem", ("svd_calls", "eigvals_calls")),
    ("bvp.solve_bvp", ("eigh_matrices", "svd_calls", "expm_calls")),
    ("spectral.demo", ("eigh_matrices", "svd_calls", "eigvals_calls", "expm_calls")),
)
SPAN_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "eigh_matrices": "count",
    "svd_calls": "count",
    "eigvals_calls": "count",
    "expm_calls": "count",
    "peak_mib": "MiB",
}
CLI_COMMANDS = ("analyze", "pinv", "perturb", "factorize", "solve-bvp", "demo-laplacian", "selftest")
CLI_STATS = (("import_s", "s"), ("run_s", "s"), ("max_rss_mib", "MiB"))


def span_stats(kernels):
    return ("calls", "busy_s", *kernels, "peak_mib")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in output order."""
    spec = [
        (f"{fn}.{stat}", SPAN_UNITS[stat])
        for fn, kernels in LAYER_FUNCTIONS
        for stat in span_stats(kernels)
    ]
    spec += [(f"cli.{cmd}.{stat}", unit) for cmd in CLI_COMMANDS for stat, unit in CLI_STATS]
    spec.append(("trace.overhead_ratio", "ratio"))
    return spec


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, timeout):
    proc = subprocess.run(
        [sys.executable, WORKER, *args], env=child_env(), capture_output=True, text=True,
        timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(count):
    """Import times of fresh processes, each at the reference speed it measured itself."""
    samples = []
    for _ in range(count):
        probe = run_child(["--probe"], 60)
        samples.append(probe["import_s"] * REFERENCE_S / probe["calibration_s"])
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def speed_factor(raw):
    """REFERENCE_S over the run's median calibration time (see calibrate.py)."""
    return REFERENCE_S / statistics.median(raw["calibration"])


def end_to_end(raw, setup_s):
    """Times at the reference speed; setup_s comes in at that speed already."""
    factor = speed_factor(raw)
    return {
        "setup_s": metric(setup_s, "s"),
        "batch_s": metric(statistics.median(raw["lists"]) * factor, "s"),
        "latency_p50_s": metric(statistics.median(raw["latencies"]) * factor, "s"),
        "peak_rss_mib": metric(raw["max_rss_mib"], "MiB"),
    }


def per_layer(raw):
    spans = raw["spans"]
    out = {}
    for fn, kernels in LAYER_FUNCTIONS:
        stats = spans.get(fn, {})
        for stat in span_stats(kernels):
            out[f"{fn}.{stat}"] = metric(stats.get(stat, 0), SPAN_UNITS[stat])
    for cmd in CLI_COMMANDS:
        log = raw.get("cli", {}).get(cmd, [])
        for stat, unit in CLI_STATS:
            value = statistics.median(info[stat] for info in log) if log else 0
            out[f"cli.{cmd}.{stat}"] = metric(value, unit)
    overhead = raw["traced_list_s"] / statistics.median(raw["lists"]) - 1
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def run_workload(workload, seed, seconds, trace, scale):
    """Run one workload; returns (result line dict, raw worker record, setup samples).

    setup_s is the median import time over the workload process and the
    probe processes, which run half before the workload and half after it;
    each sample is scaled to the reference speed its own process measured.
    """
    samples = setup_probes(SETUP_PROBES // 2)
    raw = run_child(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", scale],
        170,
    )
    samples += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    samples.append(raw["import_s"] * speed_factor(raw))
    metrics = per_layer(raw) if trace else end_to_end(raw, statistics.median(samples))
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, raw, samples


def describe(workload, result, raw, samples):
    """Human-readable lines printed ahead of the result line."""
    lines = [f"# workload {workload}", "env " + json.dumps(raw["env"], sort_keys=True)]
    m = result["metrics"]
    if "batch_s" in m:
        factor = speed_factor(raw)
        lines += [
            f"calibration    {statistics.median(raw['calibration']):.4f} s  "
            f"(median of {len(raw['calibration'])}; times below are at the reference "
            f"{REFERENCE_S} s, raw times in brackets)",
            f"setup_s        {m['setup_s']['value']:.4f} s  "
            f"(median of {len(samples)} processes, each at its own calibration)",
            f"batch_s        {m['batch_s']['value']:.4f} s  "
            f"[{m['batch_s']['value'] / factor:.4f}]  (median of {len(raw['lists'])} lists)",
            f"latency_p50_s  {m['latency_p50_s']['value']:.4f} s  "
            f"[{m['latency_p50_s']['value'] / factor:.4f}]  (n={len(raw['latencies'])} requests)",
            f"peak_rss_mib   {m['peak_rss_mib']['value']:.1f} MiB",
        ]
    else:
        lines += [f"{name} {v['value']} {v['unit']}" for name, v in m.items() if v["value"]]
    ratio = result["failed"] / result["attempted"]
    lines.append(f"failed_ratio   {ratio:.4f} ({result['failed']}/{result['attempted']})")
    lines += [f"failure: {f}" for f in raw["failures"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "accretive", "__init__.py")):
        print(f"no library source at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, raw, samples = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        print("\n".join(describe(name, result, raw, samples)), flush=True)
        results[name] = result
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
