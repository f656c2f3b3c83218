"""Shared fixtures."""

from collections import Counter

import numpy as np
import pytest

from accretive import linops, tolerances


@pytest.fixture(autouse=True)
def fresh_operators():
    """Start each test with no shared Operator, so no test reads another's factorizations."""
    linops._shared_operator.cache_clear()


@pytest.fixture(autouse=True)
def default_tolerances():
    """Fail a test that leaves an overridden tolerance table active, and restore the defaults."""
    yield
    leaked = tolerances._ACTIVE.get()
    tolerances._ACTIVE.set(tolerances.DEFAULTS)
    assert leaked is tolerances.DEFAULTS, "test left an overridden tolerance table active"


@pytest.fixture
def stacked_solves(monkeypatch):
    """Matrices passed in stacks (ndim > 2) to numpy's eigh and eigvalsh, per
    function, and matrices passed to LAPACK zhetrd, the W(T) sweep's kernel,
    with a count of zhetrd matrices per order under "zhetrd_orders"."""
    from scipy.linalg import lapack

    counts = {"eigh": 0, "eigvalsh": 0, "zhetrd": 0, "zhetrd_orders": Counter()}
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) > 2:
                counts[_name] += np.shape(a)[0]
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def zhetrd(a, *args, _fn=lapack.zhetrd, **kwargs):
        counts["zhetrd"] += 1
        counts["zhetrd_orders"][np.shape(a)[0]] += 1
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "zhetrd", zhetrd)
    return counts


@pytest.fixture
def root_kernels(monkeypatch):
    """Calls to scipy's schur and sqrtm and to numpy's eigvals; every sqrtm
    argument must be upper triangular, the factor of a Schur form."""
    import scipy.linalg

    counts = {"schur": 0, "sqrtm": 0, "eigvals": 0}

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            counts[name] += 1
            if name == "sqrtm":
                assert np.array_equal(np.triu(a), a), "sqrtm of a non-triangular matrix"
            return fn(a, *args, **kwargs)
        return wrapped

    for mod, name in ((scipy.linalg, "schur"), (scipy.linalg, "sqrtm"), (np.linalg, "eigvals")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return counts


# Kernel families counted per operator, on numpy.linalg and its private module
# (numpy.linalg.norm(A, 2) reaches svd through the latter), as the benchmark's
# tracer counts them, plus scipy's Schur form and square root.
_KERNEL_FAMILIES = {"svd": "svd", "eigh": "eigh", "eigvalsh": "eigh", "eigvals": "eigvals"}


@pytest.fixture
def kernel_args(monkeypatch):
    """(family, matrix) for every matrix a counted kernel is given: one entry
    for a 2-D argument, and one per matrix of a stacked argument."""
    import scipy.linalg

    calls = []

    def counting(fn, family):
        def wrapped(a, *args, **kwargs):
            if np.ndim(a) >= 2:
                calls.extend((family, M) for M in np.array(a).reshape(-1, *np.shape(a)[-2:]))
            return fn(a, *args, **kwargs)
        return wrapped

    for mod in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        for name, family in _KERNEL_FAMILIES.items():
            monkeypatch.setattr(mod, name, counting(getattr(mod, name), family))
    for name in ("schur", "sqrtm"):
        monkeypatch.setattr(scipy.linalg, name, counting(getattr(scipy.linalg, name), name))
    return calls
