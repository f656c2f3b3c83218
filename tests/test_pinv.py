"""Pseudoinverse core: Penrose axioms, EP structure, reduced minimum modulus."""

import math

import numpy as np
import pytest

from accretive import selftest
from accretive.linops import as_operator
from accretive.pencil import QuadraticPencil, factorize
from accretive.pinv import (
    penrose_residuals,
    pseudoinverse,
    second_power_inequalities,
)
from accretive.sampling import (
    random_operator,
    random_unitary,
    rng_for,
    singular_accretive_operator,
    square_accretive_operator,
)
from accretive.tolerances import overridden

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
    rep = second_power_inequalities(np.diag([1.0, 0.5]), seed=3)
    assert rep["gamma"] == pytest.approx(0.5)
    assert rep["gamma_sq"] == pytest.approx(0.25)
    assert rep["gamma_bound_slack"] == pytest.approx(0.125)
    assert rep["violations"] == 0

    rep_eye = second_power_inequalities(np.eye(4), seed=5)
    # At nu = 1 the split bound reads 1 <= 1 + 1: slack exactly 1.
    assert rep_eye["worst_split_slack"]["1.0"] == pytest.approx(1.0)
    assert rep_eye["violations"] == 0


def test_second_power_random_suite():
    rng = rng_for(SEED, "second-power")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 13))
        T = square_accretive_operator(rng, dim)
        rep = second_power_inequalities(T, seed=1000 + k)
        assert rep["violations"] == 0, f"trial {k}: {rep}"
        assert rep["gamma_bound_slack"] >= -1e-12


def test_second_power_gamma_bound_for_plain_accretive():
    # The modulus bound needs only accretivity of T itself.
    rng = rng_for(SEED, "gamma-plain")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 10))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        rep = second_power_inequalities(T, seed=7)
        assert rep["gamma_bound_slack"] >= -1e-12


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


NILPOTENT = np.array([[0.0, 10.0], [0.0, 0.0]])


def test_second_power_vector_bounds_are_judged_by_one_figure():
    # T^2 = 0, so the split bound at nu = 1/2 fails by about ||T||^2 - 1/2;
    # over max(1, ||T||^2) = 100 that is just under one.
    rep = second_power_inequalities(NILPOTENT, seed=1)
    slacks = [*rep["worst_split_slack"].values(), rep["worst_product_slack"]]
    worst = rep["worst_vector_violation"]
    assert worst == max(0.0, -min(slacks)) / 100.0
    assert 0.5 < worst < 1.0
    for factor, violated in ((0.99, True), (1.01, False)):
        with overridden({"vector-inequality": factor * worst}):
            rep = second_power_inequalities(NILPOTENT, seed=1)
        assert (rep["violations"] > 0) == violated, factor


def test_second_power_suite_reads_the_library_figure(monkeypatch):
    # The suite's claim is the library's scaled figure, so an input the
    # library passes cannot fail the suite through an unscaled slack.
    def on_nilpotent(T, seed):
        return second_power_inequalities(NILPOTENT, seed=seed)

    monkeypatch.setattr(selftest, "second_power_inequalities", on_nilpotent)
    claims = {row[0]: row[1] for row in selftest._suite_second_power(rng_for(SEED, "suite"))}
    expected = max(on_nilpotent(None, k)["worst_vector_violation"] for k in range(10))
    # Unscaled, the worst slack is about -99.5.
    assert claims["second-power-vectors"] == expected < 1.0
