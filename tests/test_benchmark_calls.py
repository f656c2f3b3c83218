"""The benchmark's in-process workloads still run against the library.

One tiny warmup request of each workload in perfbench/workloads.py runs
untimed and untraced, so a change that breaks a public call the benchmark
makes, or a claim it checks, fails here rather than in a benchmark run.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_workload_request_claims_pass(name):
    make_items, request = workloads.IN_PROCESS[name]
    for item in make_items(1, scale="tiny", warmup=True):
        claims = request(spans.NullTracer(), item)
        failing = [c for c in claims if not c[3]]
        assert claims and not failing, failing
