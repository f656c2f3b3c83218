"""The active tolerance table: every check reads it, and overrides reach every check."""

import numpy as np
import pytest

from accretive.bvp import BvpProblem, solve_bvp
from accretive.errors import AccretiveError, AccuracyError, HypothesisError, ResonanceError
from accretive.linops import accretivity_report
from accretive.pencil import QuadraticPencil, accretive_sqrt, balakrishnan_power, factorize
from accretive.pinv import perturbation_certificate
from accretive.sampling import accretive_operator, commuting_pencil_pair, complex_gaussian, rng_for
from accretive.spectral import LaplacianModel, per_mode_oracle
from accretive.tolerances import DEFAULTS, overridden, tolerance

SEED = 61309


def _accretive():
    return accretive_operator(rng_for(SEED, "accretive"), 4)


def _pencil():
    # Commutes up to rounding: ||TS - ST|| is small but not zero.
    return QuadraticPencil(*commuting_pencil_pair(rng_for(SEED, "pencil"), 4))


def _problem():
    rng = rng_for(SEED, "bvp")
    T, S = commuting_pencil_pair(rng, 4)
    return BvpProblem(T, S, complex_gaussian(rng, 4), complex_gaussian(rng, 4))


# key -> (override, check, the check's outcome under the override); a second
# reader of a key is listed as "key/reader".  An outcome that is an error class
# means the check raises it.  Every key that a library function reads is here,
# with a value that flips that function's verdict; a key read only as the
# tolerance of a selftest claim (square-pinv, vector-inequality) is not.
CASES = {
    "accretivity": (1e3, lambda: accretivity_report(np.array([[1.0, 1.0], [-1.0, 1.0]])).status,
                    "accretive, singular real part"),
    "inclusion-residual": (
        1.0, lambda: perturbation_certificate(np.diag([2.0, 0.0]), np.diag([0.0, 0.3])).mode,
        "both"),
    "sqrt-residual": (1e-300, lambda: accretive_sqrt(_accretive()).shape, AccuracyError),
    "quadrature-rel": (1e-300, lambda: balakrishnan_power(_accretive(), 0.5).shape, AccuracyError),
    "commutation": (1e-300, lambda: factorize(_pencil()).commuting, False),
    "separation-strong": (1e3, lambda: factorize(_pencil()).separation_regime, "degenerate"),
    "bvp-commutation": (1e-300, lambda: solve_bvp(_problem()).grid.size, HypothesisError),
    "resonance": (1e3, lambda: solve_bvp(_problem()).grid.size, ResonanceError),
    "resonance/oracle": (1e3, lambda: per_mode_oracle(
        LaplacianModel(1.0, 0.0, 0.1, 4), np.ones(4), np.ones(4)).values.shape, ResonanceError),
    "dual-route": (1e-300, lambda: solve_bvp(_problem()).grid.size, AccuracyError),
}


def _outcome(check):
    try:
        return check()
    except AccretiveError as exc:
        return type(exc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_override_reaches_the_library_check(case):
    value, check, flipped = CASES[case]
    assert _outcome(check) != flipped
    with overridden({case.split("/")[0]: value}):
        assert _outcome(check) == flipped


def test_deferred_fields_keep_the_table_they_were_built_under():
    # Fields computed on first read give the verdict of the table active when
    # their object was built, whenever and under whatever table they are read.
    # Re [[1, 1], [-1, 1]] = I: S is strongly accretive with theta = pi/4, and
    # under accretivity 1e3 its real part reads as singular, theta = 0.
    S = np.array([[1.0, 1.0], [-1.0, 1.0]])
    with overridden({"separation-strong": 1e3}):
        f = factorize(_pencil())
    with overridden({"accretivity": 1e3}):
        cert = perturbation_certificate(np.eye(2), S)
    assert f.separation_regime == "degenerate"
    assert cert.theta == 0.0
    f, cert = factorize(_pencil()), perturbation_certificate(np.eye(2), S)
    with overridden({"separation-strong": 1e3, "accretivity": 1e3}):
        assert f.separation_regime == "strong"
        assert cert.theta == pytest.approx(np.pi / 4)


def test_overridden_applies_to_its_block_only():
    with overridden({"penrose": 1e-3}):
        assert tolerance("penrose") == 1e-3
        with overridden({"ep": 1e-4}):
            # An inner block starts again from DEFAULTS.
            assert (tolerance("penrose"), tolerance("ep")) == (DEFAULTS["penrose"], 1e-4)
        assert tolerance("penrose") == 1e-3
    with pytest.raises(ZeroDivisionError), overridden({"penrose": 1e-3}):
        1 / 0
    assert tolerance("penrose") == DEFAULTS["penrose"]
