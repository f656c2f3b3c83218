"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark's host is shared: its speed drifts by 20-40% over minutes, and
CPU time drifts with wall time, so raw wall times of two runs minutes apart
cannot resolve a 25% change.  Every workload process runs `timed()` after
each request and reports its times as measured at a fixed reference speed:

    reported = measured * REFERENCE_S / median(calibration times of the run)

The reference touches the same resources as the workloads: the interpreter,
small stacked Hermitian eigensolves (the W(T) sweep) and a dense matrix
exponential (solve_bvp).  Its arrays take under 2 MiB, so it does not raise
the process's peak RSS.  It uses numpy and scipy only, never the library, so
no change to the library can move it, and a library change moves the
reported times by the same share as the raw ones.
"""

import time

import numpy as np
import scipy.linalg

# Median of timed() on the machine the baseline was measured on (2 shared
# cores, OpenBLAS pinned to one thread).  Reported times are in seconds at
# this speed.
REFERENCE_S = 0.030

_rng = np.random.default_rng(20260101)
_A = _rng.standard_normal((48, 32, 32)) + 1j * _rng.standard_normal((48, 32, 32))
_HERMITIAN = (_A + _A.conj().transpose(0, 2, 1)) / 2
_M = (_rng.standard_normal((144, 144)) + 1j * _rng.standard_normal((144, 144))) / 24


def _interpreter(n=120_000):
    total = 0
    for i in range(n):
        total += i * i
    return total


def work():
    _interpreter()
    np.linalg.eigh(_HERMITIAN)
    scipy.linalg.expm(_M)


def timed():
    """Seconds one reference computation took."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def warm(rounds=5):
    for _ in range(rounds):
        work()
