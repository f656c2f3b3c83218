"""One rule per input kind: every count, scalar, boundary vector and time grid
that a public entry point takes is refused by the shared rule it reads."""

import math

import numpy as np
import pytest

from accretive.bvp import BvpProblem, chebyshev_grid, fd_oracle, solve_bvp
from accretive.errors import ParameterError
from accretive.linops import checked_count, checked_scalar, checked_vector
from accretive.pinv import neumann_identity_check
from accretive.spectral import LaplacianModel, demo, per_mode_oracle

MODEL = LaplacianModel(1.0, 0.0, 0.1, 3)
ZEROS = np.zeros(3)

# Each count site, the least count it takes, and a call passing the count.
COUNT_SITES = {
    "chebyshev_grid": (2, chebyshev_grid),
    "n_modes": (1, lambda n: LaplacianModel(1.0, 0.0, 0.1, n)),
    "fd_oracle": (16, lambda n: fd_oracle(BvpProblem(np.eye(3), np.eye(3), ZEROS, ZEROS), n)),
    "x_samples": (2, lambda n: demo(MODEL, ZEROS, ZEROS, x_samples=n)),
    "neumann_k": (0, lambda n: neumann_identity_check(np.eye(3), 0.5 * np.eye(3), n)),
}
# Each vector site, as a call passing one length-3 vector.
VECTOR_SITES = {
    "BvpProblem_u0": lambda v: BvpProblem(np.eye(3), np.eye(3), v, ZEROS),
    "BvpProblem_u1": lambda v: BvpProblem(np.eye(3), np.eye(3), ZEROS, v),
    "per_mode_oracle_u0": lambda v: per_mode_oracle(MODEL, v, ZEROS),
    "per_mode_oracle_u1": lambda v: per_mode_oracle(MODEL, ZEROS, v),
}
BAD_VECTORS = {
    "wrong_length": np.zeros(2),
    "nan": np.array([math.nan, 0.0, 0.0]),
    "inf": np.array([0.0, math.inf, 0.0]),
    "2d": np.zeros((3, 1)),
    # The kind is tested before the cast, which would hand strings to numpy's
    # parser and raise its bare ValueError.
    "str": np.array(["1", "2", "x"]),
}
# Each scalar site, whether it takes a real, and a call passing one value.
SCALAR_SITES = {
    "eta": (True, lambda x: LaplacianModel(x, 0.0, 0.1, 3)),
    "eta1": (True, lambda x: LaplacianModel(1.0, x, 0.1, 3)),
    "xi": (False, lambda x: LaplacianModel(1.0, 0.0, x, 3)),
}
# Each grid site, as a call passing one grid.
GRID_SITES = {
    "solve_bvp": lambda g: solve_bvp(BvpProblem(np.eye(3), np.eye(3), ZEROS, ZEROS), g),
    "per_mode_oracle": lambda g: per_mode_oracle(MODEL, ZEROS, ZEROS, g),
}
BAD_GRIDS = {
    "wrong_length": [0.5],
    "nan": [0.0, math.nan, 1.0],
    "inf": [0.0, 0.5, math.inf],
    "2d": [[0.5, 0.2]],
    # The cast would drop the imaginary part with a ComplexWarning.
    "complex": [0.0, 0.5 + 1e-3j, 1.0],
    "str": ["0", "0.5", "1"],
}


def _cases():
    for site, (least, call) in COUNT_SITES.items():
        # 20.5 is above every least count, so a bare `< least` test passes
        # it: fd_oracle(p, 20.5) did.
        for label, bad in (("2.5", 2.5), ("nan", math.nan), ("inf", math.inf), ("str", "65"),
                           ("below", least - 1), ("20.5", 20.5)):
            yield pytest.param(call, bad, id=f"count-{site}-{label}")
    for site, (real, call) in SCALAR_SITES.items():
        # float() and complex() take '1.0'; the scalar rule does not.
        bad = {"str": "1.0", "nan": math.nan, "inf": math.inf, "vector": [1.0]}
        if real:
            bad["complex"] = 1.0 + 1j
        for label, value in bad.items():
            yield pytest.param(call, value, id=f"scalar-{site}-{label}")
    for site, call in VECTOR_SITES.items():
        for label, bad in BAD_VECTORS.items():
            yield pytest.param(call, bad, id=f"vector-{site}-{label}")
    for site, call in GRID_SITES.items():
        for label, bad in BAD_GRIDS.items():
            yield pytest.param(call, bad, id=f"grid-{site}-{label}")


@pytest.mark.parametrize("call, bad", _cases())
def test_every_site_refuses_a_malformed_input(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


def test_rules_pass_well_formed_input_unchanged():
    assert checked_count(65.0, "n", 2) == 65 and type(checked_count(np.int64(5), "n", 2)) is int
    v = checked_vector([1, 2j, 3], 3, "v")
    assert v.dtype == np.complex128 and np.array_equal(v, [1, 2j, 3])
    assert checked_scalar(np.float64(0.5), "x") == 0.5 and type(checked_scalar(2, "x")) is float
    assert checked_scalar(2, "x", real=False) == 2 and type(checked_scalar(2, "x", real=False)) is complex
    for site, (least, call) in COUNT_SITES.items():
        call(float(max(least, 16)))
