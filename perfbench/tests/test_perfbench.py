"""The benchmark's own tests, at tiny problem sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cli_cold  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from run import WORKLOADS, end_to_end, per_layer_spec  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COUNT_STATS = ("calls", "eigh_matrices", "svd_calls", "eigvals_calls", "expm_calls")


def bench(workload, seed=3, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_spec()
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload):
    out = result(bench(workload))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 7
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_times_are_scaled_to_the_reference_speed():
    # A machine running at half the reference speed: times halve, RSS stays.
    raw = {"lists": [4.0, 6.0, 8.0], "latencies": [1.0, 2.0, 3.0], "max_rss_mib": 100.0,
           "calibration": [2 * REFERENCE_S] * 3}
    metrics = end_to_end(raw, 0.5)
    assert metrics["batch_s"]["value"] == 3.0
    assert metrics["latency_p50_s"]["value"] == 1.0
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["peak_rss_mib"]["value"] == 100.0


def test_reference_never_imports_the_library():
    code = "import sys, calibrate; calibrate.timed(); print('accretive' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("workload", ("analyze", "pipeline", "solve-large"))
def test_traced_kernel_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, seed=5, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [
        {k: v["value"] for k, v in out["metrics"].items() if k.rsplit(".", 1)[-1] in COUNT_STATS}
        for out in (first, second)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_solve_large_does_no_eigh():
    metrics = result(bench("solve-large", trace=1))["metrics"]
    assert metrics["bvp.solve_bvp.eigh_matrices"]["value"] == 0
    assert metrics["bvp.solve_bvp.expm_calls"]["value"] > 0


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", sorted(workloads.IN_PROCESS))
def test_inputs_repeat_for_the_same_seed(workload):
    items_fn = workloads.IN_PROCESS[workload][0]
    assert _same(items_fn(7, "tiny"), items_fn(7, "tiny"))
    assert not _same(items_fn(7, "tiny"), items_fn(8, "tiny"))
    assert len(items_fn(7, "full")) >= 20


def test_cli_inputs_repeat_for_the_same_seed(tmp_path):
    def files(seed, name):
        work = cli_cold.WorkDir(str(tmp_path / name))
        with work:
            cli_cold.items(seed, "tiny", work=work)
            folder = os.path.join(work.path, "timed")
            return {f: open(os.path.join(folder, f)).read() for f in sorted(os.listdir(folder))
                    if f.endswith(".json")}

    assert files(7, "a") == files(7, "b") != files(8, "c")


def test_mode_oracle_is_independent_of_the_solver():
    from accretive import bvp

    item = workloads.solve_large_items(11, "tiny")[0]
    grid = bvp.chebyshev_grid(65)
    assert all(c[3] for c in workloads.bvp_request(spans.NullTracer(), item, grid))
    sol = bvp.solve_bvp(bvp.BvpProblem(item["T"], item["S"], item["u0"], item["u1"]), grid)
    wrong = dict(item, t=item["t"] * 1.001)
    gap = np.max(np.abs(sol.values - workloads.mode_oracle(wrong, grid)))
    assert gap > 1e3 * workloads.TOLS["mode-oracle"]


def _report(command, **measured):
    """Report claims for `command`, every one claiming to pass at a loose tolerance."""
    return [{"claim": name, "status": "pass", "measured": value, "tolerance": 1.0}
            for name, value in measured.items()]


def _passes(command, listed):
    return all(c[3] for c in cli_cold.judge(command, listed))


def test_cli_claims_are_judged_by_the_benchmark():
    within = {name: 0.0 for name in cli_cold.CLAIMS["solve-bvp"]}
    assert _passes("solve-bvp", _report("solve-bvp", **within))
    # The report's own status and tolerance are ignored ...
    loose = dict(within, **{"ode-residual": 1e-6})
    assert not _passes("solve-bvp", _report("solve-bvp", **loose))
    # ... a dropped, an extra or no claim at all fails ...
    assert not _passes("solve-bvp", _report("solve-bvp", **{"ode-residual": 0.0}))
    assert not _passes("solve-bvp", _report("solve-bvp", **within, extra=0.0))
    assert not _passes("selftest", [])
    # ... and selftest may add a suite only if it passes.
    suites = {name: 0.0 for name in cli_cold.CLAIMS["selftest"]}
    added = _report("selftest", **suites, extra=0.0)
    assert _passes("selftest", added)
    added[-1]["status"] = "fail"
    assert not _passes("selftest", added)


def test_scipy_kernels_are_counted():
    import scipy.linalg

    A = np.eye(3)
    with spans.Tracer() as tr:
        tr.call("span", scipy.linalg.eigh, A)
        tr.call("span", scipy.linalg.eigvalsh, A)
        tr.call("span", scipy.linalg.svd, A)
        tr.call("span", np.linalg.eigh, np.stack([A, A]))
    assert tr.stats["span"]["eigh_matrices"] == 4
    assert tr.stats["span"]["svd_calls"] == 1


def copy_benchmark(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def test_fails_without_the_library(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("analyze", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_rejects_a_wrong_solution_that_passes_its_own_residuals(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # Scale every returned solution by 1 + 1e-7: the solver's own boundary and
    # ODE residuals are computed before, so only the independent oracle sees it.
    with open(tmp_path / "src" / "accretive" / "bvp.py", "a") as fh:
        fh.write(
            "\n_exact_solve = solve_bvp\n\n\n"
            "def solve_bvp(*args, **kwargs):\n"
            "    sol = _exact_solve(*args, **kwargs)\n"
            "    object.__setattr__(sol, 'values', sol.values * (1 + 1e-7))\n"
            "    return sol\n"
        )
    proc = bench("solve-large", cwd=tmp_path)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0 and not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]
    assert "mode-oracle" in proc.stdout
