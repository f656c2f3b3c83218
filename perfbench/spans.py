"""Spans around the benchmark's calls into the library, with kernel counts.

Only the traced run uses a Tracer.  It wraps the Hermitian eigensolvers and
SVD of both numpy.linalg and scipy.linalg, numpy's general eigensolver, and
scipy's dense matrix exponential, at module attribute level, and charges each
kernel call to the span that is active when it runs.  Spans are opened only
by the benchmark around its own calls into public library functions, so they
do not nest.  tracemalloc runs only while a Tracer is installed.
"""

import time
import tracemalloc

import numpy as np
import scipy.linalg

STATS = ("calls", "busy_s", "eigh_matrices", "svd_calls", "eigvals_calls", "expm_calls", "peak_mib")


def _stacked(a, *args, **kwargs):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _one(*args, **kwargs):
    return 1


# (module, attribute, stat, amount). numpy.linalg.norm(A, 2) reaches svd
# through the private module's globals, so that module is patched as well.
# scipy.linalg's eigh, eigvalsh and svd feed the same stats as numpy's, so a
# switch of backend (say, to eigh with subset_by_index) keeps being counted.
# scipy's own modules hold the unpatched functions, so nothing counts twice.
_LINALG_MODULES = [m for m in (np.linalg, getattr(np.linalg, "_linalg", None)) if m]
KERNELS = [
    (mod, name, stat, amount)
    for mod in _LINALG_MODULES
    for name, stat, amount in (
        ("eigh", "eigh_matrices", _stacked),
        ("eigvalsh", "eigh_matrices", _stacked),
        ("svd", "svd_calls", _one),
        ("eigvals", "eigvals_calls", _one),
    )
] + [
    (scipy.linalg, "eigh", "eigh_matrices", _stacked),
    (scipy.linalg, "eigvalsh", "eigh_matrices", _stacked),
    (scipy.linalg, "svd", "svd_calls", _one),
    (scipy.linalg, "expm", "expm_calls", _one),
]


class NullTracer:
    """Untraced run: call straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Per-span totals of STATS for one traced round.

    Use as a context manager; kernels are patched and tracemalloc runs only
    inside the `with` block.
    """

    def __init__(self):
        self.stats = {}
        self._active = None
        self._saved = []

    def __enter__(self):
        tracemalloc.start()
        for mod, name, stat, amount in KERNELS:
            original = getattr(mod, name)
            self._saved.append((mod, name, original))
            setattr(mod, name, self._counting(original, stat, amount))
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()
        tracemalloc.stop()
        return False

    def _counting(self, original, stat, amount):
        def kernel(*args, **kwargs):
            if self._active is not None:
                self._active[stat] += amount(*args, **kwargs)
            return original(*args, **kwargs)

        return kernel

    def call(self, name, fn, *args, **kwargs):
        span = self.stats.setdefault(name, dict.fromkeys(STATS, 0))
        self._active = span
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["busy_s"] += time.perf_counter() - t0
            span["calls"] += 1
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            span["peak_mib"] = max(span["peak_mib"], peak)
            self._active = None
