"""Shared fixtures."""

import numpy as np
import pytest

from accretive import linops


@pytest.fixture(autouse=True)
def fresh_operators():
    """Start each test with no shared Operator, so no test reads another's factorizations."""
    linops._shared_operator.cache_clear()


@pytest.fixture
def stacked_solves(monkeypatch):
    """Matrices passed in stacks (ndim > 2) to numpy's eigh and eigvalsh, per
    function, and matrices passed to LAPACK zhetrd, the W(T) sweep's kernel."""
    from scipy.linalg import lapack

    counts = {"eigh": 0, "eigvalsh": 0, "zhetrd": 0}
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) > 2:
                counts[_name] += np.shape(a)[0]
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)

    def zhetrd(a, *args, _fn=lapack.zhetrd, **kwargs):
        counts["zhetrd"] += 1
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "zhetrd", zhetrd)
    return counts
