"""One rule per input kind: every count, scalar, matrix, boundary vector, time
grid and lambda list that a public entry point takes is refused by the shared
rule it reads.  The array and scalar rules share one intake, which refuses a
ragged or non-numeric input with the rule's own typed error."""

import math
import re

import numpy as np
import pytest

from accretive.bvp import BvpProblem, chebyshev_grid, fd_oracle, solve_bvp
from accretive.errors import DimensionError, ParameterError
from accretive.linops import as_operator, checked_count, checked_matrix, checked_scalar, checked_vector
from accretive.pencil import QuadraticPencil, factorization_residuals, factorize
from accretive.pinv import neumann_identity_check, penrose_residuals, perturbation_certificate
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
    # numpy's array constructor refuses a ragged nesting with a bare ValueError.
    "ragged": [1.0, [2.0, 3.0], 4.0],
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
    "ragged": [0.0, [0.5, 0.6], 1.0],
}
# Each matrix site, and matrices the matrix rule refuses with DimensionError.
MATRIX_SITES = {"checked_matrix": checked_matrix, "as_operator": as_operator}
BAD_MATRICES = {
    "str": [["a", "b"], ["c", "d"]],
    "ragged": [[1.0, 2.0], [3.0]],
    "object": np.array([[1.0, None], [0.0, 1.0]], dtype=object),
    "nan": [[1.0, math.nan], [0.0, 1.0]],
    "non_square": np.zeros((2, 3)),
}
# Each site that pairs T with a second matrix of T's shape, as a call passing
# a 3x3 T and the second matrix.
PAIR_SITES = {
    "penrose_residuals": lambda M: penrose_residuals(np.eye(3), M),
    "neumann_identity_check": lambda M: neumann_identity_check(np.eye(3), M, 2),
    "perturbation_certificate": lambda M: perturbation_certificate(np.eye(3), M),
    "QuadraticPencil": lambda M: QuadraticPencil(np.eye(3), M),
}
PENCIL = QuadraticPencil(np.eye(2), np.eye(2))
BAD_LAMBDAS = {"str": ["1", "x"], "ragged": [1.0, [2.0, 3.0]], "nan": [1.0, math.nan]}


def _cases():
    for site, (least, call) in COUNT_SITES.items():
        # 20.5 is above every least count, so a bare `< least` test passes
        # it: fd_oracle(p, 20.5) did.
        for label, bad in (("2.5", 2.5), ("nan", math.nan), ("inf", math.inf), ("str", "65"),
                           ("below", least - 1), ("20.5", 20.5)):
            yield pytest.param(call, bad, id=f"count-{site}-{label}")
    for site, (real, call) in SCALAR_SITES.items():
        # float() and complex() take '1.0'; the scalar rule does not.
        bad = {"str": "1.0", "nan": math.nan, "inf": math.inf, "vector": [1.0],
               "ragged": [1.0, [2.0]]}
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
    for label, bad in BAD_LAMBDAS.items():
        yield pytest.param(lambda lams: factorization_residuals(factorize(PENCIL), PENCIL, lams),
                           bad, id=f"lambdas-{label}")


@pytest.mark.parametrize("call, bad", _cases())
def test_every_site_refuses_a_malformed_input(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize("site", MATRIX_SITES)
@pytest.mark.parametrize("label", BAD_MATRICES)
def test_matrix_rule_refuses_a_malformed_matrix(site, label):
    with pytest.raises(DimensionError):
        MATRIX_SITES[site](BAD_MATRICES[label])


@pytest.mark.parametrize("site", PAIR_SITES)
@pytest.mark.parametrize("size", [2, 4])
def test_pair_sites_refuse_a_size_mismatch(site, size):
    # A ParameterError naming both shapes, not numpy's bare matmul ValueError.
    with pytest.raises(ParameterError, match=re.escape(f"dimension mismatch: (3, 3) vs ({size}, {size})")):
        PAIR_SITES[site](0.1 * np.eye(size))


def test_rules_pass_well_formed_input_unchanged():
    assert checked_count(65.0, "n", 2) == 65 and type(checked_count(np.int64(5), "n", 2)) is int
    v = checked_vector([1, 2j, 3], 3, "v")
    assert v.dtype == np.complex128 and np.array_equal(v, [1, 2j, 3])
    A = checked_matrix([[1, 2], [3, 4]])
    assert A.dtype == np.complex128 and np.array_equal(A, [[1, 2], [3, 4]])
    assert checked_scalar(np.float64(0.5), "x") == 0.5 and type(checked_scalar(2, "x")) is float
    assert checked_scalar(2, "x", real=False) == 2 and type(checked_scalar(2, "x", real=False)) is complex
    for site, (least, call) in COUNT_SITES.items():
        call(float(max(least, 16)))
