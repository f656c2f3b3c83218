"""Pseudoinverse core: Penrose axioms, EP structure, reduced minimum modulus."""

import math
import re
import warnings

import numpy as np
import pytest

from accretive import linops, pinv, selftest
from accretive.errors import ParameterError
from accretive.linops import as_operator
from accretive.pencil import QuadraticPencil, factorize
from accretive.pinv import (
    penrose_residuals,
    perturbation_certificate,
    pseudoinverse,
    second_power_inequalities,
)
from accretive.sampling import (
    accretive_operator,
    complex_gaussian,
    random_operator,
    random_unitary,
    rng_for,
    singular_accretive_operator,
    square_accretive_operator,
)

SEED = 91041
N_TRIALS = 40


def assembled_rank_deficient(rng, dim, rank):
    """Oracle construction: U diag(s) V* with exactly `rank` nonzero values.

    The pseudoinverse is then V diag(1/s) U* by definition, so the expected
    matrix is assembled independently of the code under test.
    """
    U = random_unitary(rng, dim)
    V = random_unitary(rng, dim)
    s = np.zeros(dim)
    s[:rank] = np.sort(0.5 + 2 * rng.random(rank))[::-1]
    T = (U * s) @ V.conj().T
    inv = np.where(s > 0, 1 / np.where(s > 0, s, 1), 0.0)
    expected = (V * inv) @ U.conj().T
    return T, expected, s


def test_diagonal_trivial_cases():
    res = pseudoinverse(np.diag([2.0, 0.0]))
    assert np.allclose(res.pinv, np.diag([0.5, 0.0]), atol=1e-15)
    assert res.rank == 1
    assert res.gamma == pytest.approx(2.0)

    zero = pseudoinverse(np.zeros((3, 3)))
    assert np.allclose(zero.pinv, 0)
    assert zero.rank == 0
    assert math.isinf(zero.gamma)


def test_constructed_rank_deficient_matches_reassembly():
    rng = rng_for(SEED, "rank-reassembly")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        T, expected, s = assembled_rank_deficient(rng, dim, rank)
        res = pseudoinverse(T)
        assert res.rank == rank, f"trial {k}"
        assert np.linalg.norm(res.pinv - expected, 2) <= 1e-10, f"trial {k}"
        kept = np.asarray(res.singular_values)[:rank]
        assert np.allclose(kept, s[:rank], atol=1e-10)


def test_penrose_residuals_and_projections():
    rng = rng_for(SEED, "penrose")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 10))
        rank = int(rng.integers(0, dim + 1))
        T, _, _ = assembled_rank_deficient(rng, dim, max(rank, 0))
        res = pseudoinverse(T)
        scale = max(1.0, np.linalg.norm(T, 2), np.linalg.norm(res.pinv, 2))
        for name, val in penrose_residuals(T, res.pinv).items():
            assert val <= 1e-10 * scale, name
        TP = T @ res.pinv
        PT = res.pinv @ T
        assert np.linalg.norm(TP @ TP - TP, 2) <= 1e-10 * scale
        assert np.linalg.norm(PT @ PT - PT, 2) <= 1e-10 * scale


def test_involution():
    rng = rng_for(SEED, "involution")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 9))
        T = random_operator(rng, dim)
        back = pseudoinverse(pseudoinverse(T).pinv).pinv
        assert np.linalg.norm(back - T, 2) <= 1e-10 * max(1.0, np.linalg.norm(T, 2))


def test_gamma_is_reciprocal_pinv_norm():
    rng = rng_for(SEED, "gamma")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        T, _, _ = assembled_rank_deficient(rng, dim, rank)
        res = pseudoinverse(T)
        assert res.gamma == pytest.approx(1 / np.linalg.norm(res.pinv, 2), rel=1e-12)


def test_accretive_implies_ep_and_shared_kernels():
    rng = rng_for(SEED, "ep-accretive")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 12))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        # EP: T commutes with its pseudoinverse, so the range projector T T^+
        # equals the row-space projector T^+ T, and N(T) = N(T*).
        res = pseudoinverse(T)
        P = res.pinv
        assert np.linalg.norm(T @ P - P @ T, 2) <= 1e-10


def test_second_power_frozen_cases():
    # On unit x, ||Tx||^2 - 2 ||T^2 x|| for diag(1, 1/2) is convex in |x_1|^2
    # and largest at e_2: 1/4 - 2/4.  For I it is 1 - 2 everywhere.
    T = np.diag([1.0, 0.5])
    assert (pseudoinverse(T).gamma, pseudoinverse(T @ T).gamma) == (0.5, 0.25)
    rep = second_power_inequalities(T)
    lo, hi = rep["vector_violation"]
    assert lo == pytest.approx(-0.25, rel=1e-14)
    assert lo <= hi < 0 and hi == pytest.approx(-0.25, rel=1e-6)
    assert rep["gamma_bound_slack"] == pytest.approx(0.125)

    # The bracket closes at its stated width, _RADIUS_RTOL max(1, ||T||^2).
    rep_eye = second_power_inequalities(np.eye(4))
    lo, hi = rep_eye["vector_violation"]
    assert lo == pytest.approx(-1.0, rel=1e-12) and lo <= hi <= lo + linops._RADIUS_RTOL
    assert rep_eye["gamma_bound_slack"] == pytest.approx(0.5)

    # T = 0: kernel(T^2) is everything, its complement is empty, and so is
    # the set the bracket is taken over; the claim's clamp at 0 is exact.
    rep_zero = second_power_inequalities(np.zeros((3, 3)))
    assert rep_zero == {"vector_violation": (-math.inf, -math.inf), "gamma_bound_slack": math.inf}


def test_second_power_random_suite():
    rng = rng_for(SEED, "second-power")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 13))
        T = square_accretive_operator(rng, dim)
        rep = second_power_inequalities(T)
        assert rep["vector_violation"][1] < 0, f"trial {k}: {rep}"
        assert rep["gamma_bound_slack"] >= -1e-12


def test_second_power_gamma_bound_for_plain_accretive():
    # The modulus bound needs only accretivity of T itself.
    rng = rng_for(SEED, "gamma-plain")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 10))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        rep = second_power_inequalities(T)
        assert rep["gamma_bound_slack"] >= -1e-12


def test_second_power_certifies_a_gaussian_violation():
    # A complex Gaussian T is not accretive, and Kato's bound fails on most
    # draws: the lower end, attained by some unit x, is above 0.
    rng = rng_for(SEED, "second-power-gaussian")
    decided = [second_power_inequalities(random_operator(rng, dim))["vector_violation"]
               for dim in (3, 4, 6, 8, 10)]
    assert decided[0][0] > 0, decided[0]
    # No draw is left undecided.
    assert all(lo > 0 or hi < 0 for lo, hi in decided), decided


def test_second_power_certifies_an_accretive_operator():
    T = accretive_operator(rng_for(SEED, "second-power-accretive"), 8)
    lo, hi = second_power_inequalities(T)["vector_violation"]
    assert lo <= hi < 0


def _excess(T, X):
    """(||Tx||^2 - 2 ||T^2 x||) / max(1, ||T||^2) for each unit row x of X."""
    scale = max(1.0, np.linalg.norm(T, 2) ** 2)
    tx = np.linalg.norm(X @ T.T, axis=1) ** 2
    return (tx - 2 * np.linalg.norm(X @ (T @ T).T, axis=1)) / scale


@pytest.mark.parametrize("kind", ["gaussian", "accretive", "singular-accretive"])
def test_second_power_bracket_holds_the_sampled_vectors(kind, monkeypatch):
    # The sampler the certificate replaced, kept as an oracle at 10^4 random
    # unit vectors, projected on the complement of kernel(T^2) as it did:
    # none exceeds the upper end.  The lower end is attained: it is the
    # excess, recomputed here from T, at the probe vector x = Qy of largest
    # excess, y a bottom eigenvector of a probed Q_0(mu).  The bracket is
    # closed at its stated width, up to the rounding of lo + width, at most
    # 2 eps |lo| <= 1e-5 of it.
    probes = []

    def recording(T, Q, _ends=pinv._pencil_ends, _eigh=np.linalg.eigh):
        def eigh(M):
            vals, vecs = _eigh(M)
            probes.append(Q @ vecs[:, 0])
            return vals, vecs

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", eigh)
            return _ends(T, Q)

    monkeypatch.setattr(pinv, "_pencil_ends", recording)
    rng = rng_for(SEED, f"second-power-oracle-{kind}")
    for dim in (2, 5, 9):
        if kind == "gaussian":
            T = random_operator(rng, dim)
        elif kind == "accretive":
            T = accretive_operator(rng, dim)
        else:
            T = singular_accretive_operator(rng, dim, dim - 1)
        probes.clear()
        lo, hi = second_power_inequalities(T)["vector_violation"]
        sq = T @ T
        _, s, Vh = np.linalg.svd(sq)
        Q = Vh[s > 1e-10 * s[0]].conj().T
        X = complex_gaussian(rng, (10**4, dim))
        X = X @ (Q @ Q.conj().T).T
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert np.max(_excess(T, X)) <= hi, (kind, dim)
        assert lo == pytest.approx(np.max(_excess(T, np.array(probes))), abs=1e-14), (kind, dim)
        assert hi - lo <= linops._RADIUS_RTOL * (1 + 1e-5), (kind, dim)


def test_second_power_ill_conditioned_accretive_is_never_a_violation():
    # T^2 = diag(1, 1e-20): the rank rule drops 1e-20, so kernel(T^2) looks
    # larger than kernel(T) = 0, but T moves e_2 by 1e-10 only, and the
    # excess there is 1e-20 - 2e-20 < 0.  It is read as kernel(T), and the
    # rest of the space gives 1 - 2.
    lo, hi = second_power_inequalities(np.diag([1.0, 1e-10]))["vector_violation"]
    assert lo <= hi <= 0 and hi == pytest.approx(-1.0)
    # Positive definite with ||T^2 x||^2 down to 1e-20 or below: every bound
    # is certified, hi <= 0.  Where the level-set rounds stall on tiny roots,
    # Q_0 has no real root, and the unclosed bracket still ends at 0.
    rng = rng_for(SEED, "second-power-ill-conditioned")
    spectra = [[1.0, 1e-5], np.logspace(0, -9, 4), np.logspace(0, -9, 8)]
    spectra += [np.logspace(0, -k, n) for k in (4, 6, 8) for n in (2, 8, 32)]
    for d in spectra:
        U = random_unitary(rng, len(d))
        lo, hi = second_power_inequalities((U * d) @ U.conj().T)["vector_violation"]
        assert lo <= hi <= 0, (d, lo, hi)


# Jordan-like blocks that break Kato's bound: the excess at e_2 is about c^2.
VIOLATORS = [np.array([[1e-3, c], [0.0, 1e-3]]) for c in (0.5, 2.0)]


def test_second_power_violation_and_rescaling_keep_their_sign():
    # Each violator gives an attained lo > 0 in a closed bracket.  Rescaled
    # by 1e-150 up to 1e150, every input keeps its sign, with no
    # RuntimeWarning: the call works on T / s, s a power of two of T, where
    # (T^2)*T^2 neither overflows nor underflows, and forms no (T^2)^+,
    # whose 1/gamma would overflow at 1e-150.  A closed bracket is at most
    # _RADIUS_RTOL max(1, ||T||^2) wide in T's units: relative to
    # max(1, ||T||^2), that is _RADIUS_RTOL min(1, ||T||^2).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (1.0, 1e-150, 1e-100, 1e100, 1e150):
            lo, hi = second_power_inequalities(f * np.diag([1.0, 0.5]))["vector_violation"]
            assert lo <= hi < 0, (f, lo, hi)
            for T in VIOLATORS:
                lo, hi = second_power_inequalities(f * T)["vector_violation"]
                width = linops._RADIUS_RTOL * min(1.0, np.linalg.norm(f * T, 2) ** 2)
                assert 0 < lo <= hi <= lo + width * (1 + 1e-5), (f, T, lo, hi)
        # A dense violator of order 40, a unitary similarity of 20 copies of
        # each, keeps its sign at ||T|| = 2e-154, near the bottom of the
        # domain: the bound on hi s^2 does not depend on n.
        for k, T in enumerate(VIOLATORS):
            U = random_unitary(np.random.default_rng(k), 40)
            D = U @ np.kron(np.eye(20), T) @ U.conj().T
            for norm in (1.0, 2e-154):
                X = D * (norm / np.linalg.norm(D, 2))
                lo, hi = second_power_inequalities(X)["vector_violation"]
                width = linops._RADIUS_RTOL * min(1.0, np.linalg.norm(X, 2) ** 2)
                assert 0 < lo <= hi <= lo + width * (1 + 1e-5), (k, norm, lo, hi)


def test_second_power_forms_no_pseudoinverse(monkeypatch):
    # rank and gamma of T and T^2 are read off the SVDs the call takes: on
    # the draws of the selftest suite, it returns the same figures with
    # pseudoinverse unavailable.
    draws = []

    def recording(T):
        draws.append((T, second_power_inequalities(T)))
        return draws[-1][1]

    monkeypatch.setattr(selftest, "second_power_inequalities", recording)
    selftest._suite_second_power(rng_for(SEED, "second-power"))
    assert len(draws) == 10

    def refused(T):
        raise AssertionError("second_power_inequalities formed a pseudoinverse")

    monkeypatch.setattr(pinv, "pseudoinverse", refused)
    for T, rep in draws:
        assert second_power_inequalities(T) == rep


def test_planted_rank_is_one_decision():
    # T = U diag(d) U* is positive semidefinite, so accretive and EP, with its
    # last singular value planted at rel * sigma_1.  The pseudoinverse, the
    # Operator and the root that factorize takes must put the kernel at one
    # place: a certificate from one rank is never paired with a result of another.
    rng = rng_for(SEED, "planted-rank")
    for n in (2, 4, 8, 16, 64):
        for rel in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8):
            d = rng.uniform(0.5, 1.5, n)
            d[-1] = rel * d.max()
            U = random_unitary(rng, n)
            T = (U * d) @ U.conj().T
            root = factorize(QuadraticPencil(np.zeros((n, n)), T)).root
            ranks = (pseudoinverse(T).rank, as_operator(T).rank, root.rank)
            assert len(set(ranks)) == 1, f"n = {n}, rel = {rel}: ranks {ranks}"
            if rel <= 1e-14:
                assert ranks[0] == n - 1, f"n = {n}, rel = {rel}"
            if rel >= 1e-10:
                assert ranks[0] == n, f"n = {n}, rel = {rel}"


def test_tiny_singular_value_is_kernel():
    # 1e-14 lies below 100 * 2 * eps: kernel, not a 1e14 entry of the inverse.
    T = np.diag([1.0, 1e-14])
    res = pseudoinverse(T)
    assert (res.rank, res.gamma) == (1, 1.0)
    assert np.array_equal(res.pinv, np.diag([1.0, 0.0]))
    assert as_operator(T).rank == 1


def test_pseudoinverse_beyond_the_float_range_is_a_parameter_error():
    # The rank rule scales with ||T||, so diag(1e-300, 1e-310) keeps 1e-310,
    # whose inverse overflows; diag(1e-308, 1e-308) has a finite T^+ but an
    # overflowing T^+ + (T^+)*, which the pinv-accretive claim sums.  Both
    # are one ParameterError naming gamma, with no RuntimeWarning, for
    # pseudoinverse and for the perturbation certificate that reads it.
    # With the factor-2 headroom, diag(1e-307, 1e-307) is inverted as before.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T, gamma in ((np.diag([1e-300, 1e-310]), 1e-310), (np.diag([1e-308, 1e-308]), 1e-308)):
            match = re.escape(f"gamma = {gamma:.3e}")
            with pytest.raises(ParameterError, match=match):
                pseudoinverse(T)
            with pytest.raises(ParameterError, match=match):
                perturbation_certificate(T, T)
        T = np.diag([1e-307, 1e-307])
        res = pseudoinverse(T)
        assert np.allclose(res.pinv, np.diag([1e307, 1e307]), rtol=1e-15, atol=0)
        assert res.gamma == 1e-307
        assert all(c["status"] == "pass" for c in selftest.pinv_claims(T, res))


def test_second_power_overflow_is_a_parameter_error():
    # The domain is T = 0 and every T whose ||T||^2 is a normal float.
    # Outside it the figures relative to max(1, ||T||^2) cannot be
    # represented: 1e-160 times a violator would read lo = hi = 0, a false
    # certificate.  Each is one ParameterError naming ||T||, with no
    # RuntimeWarning.  A nilpotent T has T^2 = 0 but an overflowing ||T||^2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (
            np.diag([1e200, 1.0]),
            np.array([[0.0, 1e160], [0.0, 0.0]]),
            1e-160 * VIOLATORS[1],
            np.diag([1e-155, 1e-156]),
        ):
            with pytest.raises(ParameterError, match=re.escape(f"||T|| = {np.linalg.norm(T, 2):.3e}")):
                second_power_inequalities(T)
        # Inside it a bracket comes back, decided, where forms in T's units
        # overflow: (T^2)*T^2 reaches 1e400 for diag(1e100, 1), and its
        # entries 1e308 for the dense accretive T.
        reps = [second_power_inequalities(T) for T in (
            np.diag([1e100, 1.0]), np.array([[8e76, 2.4e76], [1.6e76, 8e76]]))]
        linops._shared_operator.cache_clear()
        rep = second_power_inequalities(np.diag([1e60, 1.0]))
    assert all(r["vector_violation"][1] < 0 for r in reps), reps
    lo, hi = rep["vector_violation"]
    assert lo == pytest.approx(-1.0) and lo <= hi < 0
    assert rep["gamma_bound_slack"] == pytest.approx(5e119)
    # Only T is shared: the call adds no Operator to as_operator's cache.
    assert linops._shared_operator.cache_info().currsize == 1


NILPOTENT = np.array([[0.0, 10.0], [0.0, 0.0]])


def test_second_power_vector_bounds_are_judged_by_one_figure():
    # T^2 = 0, so every unit x lies in kernel(T^2) and the excess is
    # ||Tx||^2, largest at ||T||^2: over max(1, ||T||^2) that is exactly one.
    # A sampler only approaches it from below.
    assert second_power_inequalities(NILPOTENT)["vector_violation"] == (1.0, 1.0)
    # Below norm 1 the scale is 1: the figure is ||T||^2 itself.
    assert second_power_inequalities(NILPOTENT / 20)["vector_violation"] == (0.25, 0.25)


def test_second_power_suite_reads_the_library_figure(monkeypatch):
    # The suite's claim is the library's scaled upper end, so an input the
    # library passes cannot fail the suite through an unscaled excess.
    def on_nilpotent(T):
        return second_power_inequalities(NILPOTENT)

    monkeypatch.setattr(selftest, "second_power_inequalities", on_nilpotent)
    claims = {row[0]: row[1] for row in selftest._suite_second_power(rng_for(SEED, "suite"))}
    # Unscaled, the excess is 100.
    assert claims["second-power-vectors"] == on_nilpotent(None)["vector_violation"][1] == 1.0
