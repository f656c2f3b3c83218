"""Quadratic pencil factorization, square roots, fractional powers, spectra."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from accretive import pencil
from accretive.errors import AccuracyError, ParameterError, PreconditionError
from accretive.linops import (
    accretivity_report,
    as_operator,
    hermitian_sqrt,
    operator_norm,
    rank_cutoff,
    sectorial_angle,
)
from accretive.pencil import (
    QuadraticPencil,
    accretive_sqrt,
    balakrishnan_power,
    eval_pencil,
    factorization_residuals,
    factorize,
    multiset_match_distance,
    pencil_spectrum,
    vandermonde_check,
)
from accretive.pinv import pseudoinverse
from accretive.sampling import (
    accretive_operator,
    commuting_pencil_pair,
    complex_gaussian,
    pencil_pair,
    positive_definite,
    random_unitary,
    rng_for,
    singular_accretive_operator,
)
from accretive.tolerances import overridden

SEED = 60493
N_TRIALS = 20


# Frozen square-root witness: the Jordan-type block [[2,1],[0,2]] has the
# upper-triangular principal root [[sqrt 2, 1/(2 sqrt 2)], [0, sqrt 2]].
SQRT_WITNESS = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
SQRT_EXPECTED = np.array(
    [[math.sqrt(2), 1 / (2 * math.sqrt(2))], [0.0, math.sqrt(2)]], dtype=complex
)

# Frozen noncommuting accretive pair: T, T^2, S all accretive, TS != ST.
NC_T = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
NC_S = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)

# Frozen diagonal pencil: scalar quadratics l^2-2l-3 and l^2-4l-5.
DIAG_T = np.diag([1.0, 2.0]).astype(complex)
DIAG_S = np.diag([3.0, 5.0]).astype(complex)
DIAG_PENCIL_EIGS = [3.0, -1.0, 5.0, -1.0]


def test_sqrt_diagonal_and_kernel():
    assert np.allclose(accretive_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    assert np.allclose(accretive_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-12)


def test_sqrt_jordan_witness_frozen():
    W = accretive_sqrt(SQRT_WITNESS)
    assert np.linalg.norm(W - SQRT_EXPECTED, 2) <= 1e-12
    assert np.linalg.norm(W @ W - SQRT_WITNESS, 2) <= 1e-12


def test_sqrt_matches_hermitian_route():
    rng = rng_for(SEED, "sqrt-psd")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 9))
        H = positive_definite(rng, dim)
        assert np.linalg.norm(accretive_sqrt(H) - hermitian_sqrt(H), 2) <= 1e-10


def test_sqrt_reuses_the_operators_schur_form(root_kernels):
    # The Schur form is a cached Operator field: a second root of the same
    # content takes its triangular root again but factors nothing.
    U = accretive_operator(rng_for(SEED, "schur-cache"), 5)
    first = accretive_sqrt(U)
    assert np.array_equal(accretive_sqrt(U.copy()), first)
    assert root_kernels == {"schur": 1, "sqrtm": 2, "eigvals": 0}


def test_sqrt_rejects_negative_axis():
    with pytest.raises(PreconditionError, match="principal"):
        accretive_sqrt(np.diag([-1.0, 1.0]))
    # Nonnormal, with the negative eigenvalue off the diagonal of the input:
    # the test reads it from the Schur form.
    rng = rng_for(SEED, "negative-axis")
    V = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    U = V @ np.array([[2, 1, 0, 3], [0, -0.5, 1, 0], [0, 0, 1j + 1, 2], [0, 0, 0, 4]]) @ V.conj().T
    with pytest.raises(PreconditionError, match="principal"):
        accretive_sqrt(U)


def test_sqrt_kernel_structure_singular_ep():
    rng = rng_for(SEED, "sqrt-kernel")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(3, 9))
        rank = int(rng.integers(1, dim))
        U = singular_accretive_operator(rng, dim, rank)
        W = accretive_sqrt(U)
        assert np.linalg.norm(W @ W - U, 2) <= 1e-10 * max(1.0, np.linalg.norm(U, 2))
        assert pseudoinverse(W).rank == rank
        # Range projectors M M^+ of the root and of U.
        projectors = [M @ pseudoinverse(M).pinv for M in (W, U)]
        assert np.linalg.norm(projectors[0] - projectors[1], 2) <= 1e-8
        kernel = np.linalg.svd(U)[2][rank:].conj().T
        assert np.linalg.norm(W @ kernel, 2) <= 1e-12 * max(1.0, np.linalg.norm(U, 2))


def test_non_ep_singular_input_is_rejected():
    # A singular input that its kernel does not reduce fails the range
    # reduction's residual test (pencil._on_range_block), so neither the root
    # nor a fractional power can preserve the kernel.  The second input is
    # accretive up to the accretivity tolerance (lambda_min(Re T) ~ -2.5e-13)
    # yet 1e-6 away from EP.
    for T in (np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]]), np.array([[1, 1e-6], [0, 0]])):
        with pytest.raises(PreconditionError, match="not EP"):
            accretive_sqrt(T)
    with pytest.raises(PreconditionError, match="not EP"):
        balakrishnan_power(np.array([[1, 1e-6], [0, 0]]), 0.5)


def test_root_across_the_rank_cutoff():
    # A normal accretive EP T = Q diag(lam) Q* whose smallest nonzero |lam|
    # sits 1% above or below the rank cutoff: above, T is reduced at rank 8;
    # below, at rank 7, its residual ~ that |lam| passing the EP test.  Either
    # way the root has T's rank and squares back to T.
    n, rank = 16, 8
    rng = rng_for(SEED, "rank-cutoff-root")
    Q = random_unitary(rng, n)[:, :rank]
    lam = (0.5 + 1.5 * rng.random(rank)) * np.exp(1j * rng.uniform(-1.2, 1.2, rank))
    lam[0] = 2.0
    cutoff = rank_cutoff(n, 2.0)
    for factor, kept in ((1.01, rank), (0.99, rank - 1)):
        lam[-1] = factor * cutoff * np.exp(0.3j)
        T = (Q * lam) @ Q.conj().T
        W = accretive_sqrt(T)
        assert as_operator(T).rank == as_operator(W).rank == kept
        assert np.linalg.norm(W @ W - T, 2) <= 2 * cutoff


def test_sqrt_sector_angle():
    rng = rng_for(SEED, "sqrt-angle")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 9))
        U = accretive_operator(rng, dim, max_tan=4.0)
        rep = accretivity_report(accretive_sqrt(U))
        assert rep.is_accretive
        assert rep.omega <= math.pi / 4 + 1e-8


def test_balakrishnan_trivial():
    for alpha in (0.25, 0.5, 0.75):
        assert np.linalg.norm(balakrishnan_power(np.eye(3), alpha) - np.eye(3), 2) <= 1e-8
    got = balakrishnan_power(np.diag([1.0, 4.0]), 0.5)
    assert np.linalg.norm(got - np.diag([1.0, 2.0]), 2) <= 1e-8


def test_balakrishnan_matches_schur_pade_oracle():
    # scipy's Schur-Pade fractional power (Higham & Lin 2011) is the
    # independent route; unlike V diag(mu^alpha) V^{-1} it stays well
    # conditioned on nonnormal input.
    rng = rng_for(SEED, "balakrishnan")
    for k in range(10):
        T = accretive_operator(rng, 6, max_tan=2.0)
        for alpha in (0.25, 0.5, 0.75):
            got = balakrishnan_power(T, alpha)
            expected = scipy.linalg.fractional_matrix_power(T, alpha)
            rel = np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)
            assert rel <= 1e-6, f"trial {k}, alpha={alpha}: rel={rel:.2e}"


def test_balakrishnan_keeps_relative_accuracy_below_unit_norm():
    # The quadrature's tails are truncated relative to ||T||^alpha, and only
    # the rank-0 operator has power zero, so small-norm input keeps the
    # accuracy of unit-norm input.  The oracle is the Schur-method root
    # (Bjorck & Hammarling 1983): T^(1/4) = sqrt(sqrt(T)), T^(3/4) = T^(1/2) T^(1/4).
    base = accretive_operator(rng_for(SEED, "balakrishnan-small"), 4, max_tan=2.0)
    for scale in (1e-16, 1e-11, 1e-9):
        T = scale * base
        half = scipy.linalg.sqrtm(T)
        quarter = scipy.linalg.sqrtm(half)
        for alpha, oracle in ((0.25, quarter), (0.5, half), (0.75, half @ quarter)):
            got = balakrishnan_power(T, alpha)
            rel = np.linalg.norm(got - oracle, 2) / np.linalg.norm(oracle, 2)
            assert rel <= 1e-10, f"scale {scale:.0e}, alpha={alpha}: rel={rel:.2e}"


@pytest.mark.parametrize("n", [3, 0])
def test_rank_0_input_has_zero_root_and_powers(n, root_kernels):
    # The zero operator and the 0x0 operator have rank 0: the root and every
    # fractional power are the n x n zero matrix, and no Schur form is taken.
    T = np.zeros((n, n))
    powers = [balakrishnan_power(T, alpha) for alpha in (0.25, 0.5, 0.75)]
    for zero in [accretive_sqrt(T), *powers]:
        assert zero.shape == (n, n) and zero.dtype == complex and not np.any(zero)
    assert root_kernels == {"schur": 0, "sqrtm": 0, "eigvals": 0}


def test_balakrishnan_singular_ep_input():
    rng = rng_for(SEED, "balakrishnan-singular")
    for _ in range(6):
        dim = int(rng.integers(3, 7))
        rank = int(rng.integers(1, dim))
        T = singular_accretive_operator(rng, dim, rank)
        got = balakrishnan_power(T, 0.5)
        # Kernel passes through: the result annihilates kernel(T) both sides.
        P_row = pseudoinverse(T).pinv @ T
        eye = np.eye(dim)
        assert np.linalg.norm(got @ (eye - P_row), 2) <= 1e-8
        assert np.linalg.norm(got @ got - T, 2) <= 1e-6 * max(1.0, np.linalg.norm(T, 2))


def test_balakrishnan_agrees_with_sqrt():
    rng = rng_for(SEED, "balakrishnan-sqrt")
    for _ in range(6):
        T, S = pencil_pair(rng, int(rng.integers(2, 7)))
        U = T @ T + S
        via_quad = balakrishnan_power(U, 0.5)
        via_schur = accretive_sqrt(U)
        rel = np.linalg.norm(via_quad - via_schur, 2) / np.linalg.norm(via_schur, 2)
        assert rel <= 1e-6


def test_balakrishnan_angle_bound():
    rng = rng_for(SEED, "balakrishnan-angle")
    for _ in range(6):
        T = accretive_operator(rng, 5, max_tan=5.0)
        for alpha in (0.25, 0.5, 0.75):
            rep = accretivity_report(balakrishnan_power(T, alpha))
            assert rep.is_accretive
            assert rep.omega <= alpha * math.pi / 2 + 1e-6


def test_balakrishnan_parameter_and_precondition_errors():
    with pytest.raises(ParameterError):
        balakrishnan_power(np.eye(2), 0.0)
    with pytest.raises(ParameterError):
        balakrishnan_power(np.eye(2), 1.0)
    with pytest.raises(PreconditionError):
        balakrishnan_power(np.diag([-1.0, 1.0]), 0.5)


def test_balakrishnan_nonconvergence_reports_achieved():
    with overridden({"quadrature-rel": 1e-300}), pytest.raises(
        AccuracyError, match=r"achieved .* target 1\.0e-300"
    ):
        balakrishnan_power(np.diag([1.0, 1e4]), 0.5)


def test_balakrishnan_solves_each_node_once(monkeypatch):
    # The returned power is the trapezoidal sum over exactly the solved
    # nodes: each halving solves only the new midpoints, so the shifts form
    # one uniform grid in u = log(lambda) and no node is solved twice.  T is
    # the nonnormal Jordan-type [[0, 1], [-1, 2]] (eigenvalue 1 twice); its
    # zero corner makes each system's corner the shift lambda itself.
    T = np.array([[0.0, 1.0], [-1.0, 2.0]], dtype=complex)
    solve = np.linalg.solve
    shifts = []

    def recording(a, b):
        shifts.extend(a[:, 0, 0].real)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    alpha = 0.5
    got = balakrishnan_power(T, alpha)
    u = np.log(np.sort(shifts))
    h = np.diff(u)
    assert np.allclose(h, h.mean(), rtol=1e-9), "solved nodes are not one uniform grid"
    weight = np.ones(u.size)
    weight[[0, -1]] = 0.5
    X = solve(np.exp(u)[:, None, None] * np.eye(2) + T, np.broadcast_to(T, (u.size, 2, 2)))
    ref = math.sin(math.pi * alpha) / math.pi * h.mean() * np.tensordot(
        weight * np.exp(alpha * u), X, axes=(0, 0))
    assert np.linalg.norm(got - ref, 2) <= 1e-12
    assert np.linalg.norm(got @ got - T, 2) <= 1e-10


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_balakrishnan_memory_is_bounded():
    # Chunked solves keep the peak O(n^2), on the non-convergence path too.
    T = accretive_operator(rng_for(SEED, "balakrishnan-memory"), 64, max_tan=2.0)
    for alpha in (0.25, 0.5, 0.75):
        peak = _traced_peak(lambda: balakrishnan_power(T, alpha))
        assert peak < 32 * 2**20, f"n = 64, alpha = {alpha}: peak {peak / 2**20:.1f} MiB"

    def nonconverging():
        with overridden({"quadrature-rel": 1e-300}), pytest.raises(AccuracyError):
            balakrishnan_power(np.diag([1.0, 1e4]), 0.5)

    peak = _traced_peak(nonconverging)
    assert peak < 8 * 2**20, f"non-convergence peak {peak / 2**20:.1f} MiB"


def test_factorize_diagonal_frozen():
    f = factorize(QuadraticPencil(DIAG_T, DIAG_S))
    assert np.allclose(f.z1, np.diag([3.0, 5.0]), atol=1e-12)
    assert np.allclose(f.z2, np.diag([-1.0, -1.0]), atol=1e-12)
    assert f.separation == pytest.approx(4.0, abs=1e-10)
    assert f.commuting
    assert f.separation_regime == "strong"
    assert not f.warnings


def test_factorize_zero_T():
    f = factorize(QuadraticPencil(np.zeros((2, 2)), np.eye(2)))
    assert np.allclose(f.z1, np.eye(2), atol=1e-12)
    assert np.allclose(f.z2, -np.eye(2), atol=1e-12)
    assert f.separation == pytest.approx(2.0, abs=1e-10)


def test_factorize_type_invariants():
    rng = rng_for(SEED, "fact-invariants")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 9))
        T, S = pencil_pair(rng, dim)
        f = factorize(QuadraticPencil(T, S))
        scale = max(1.0, np.linalg.norm(T @ T + S, 2))
        assert np.linalg.norm(f.z1 + f.z2 - 2 * T, 2) <= 1e-12 * scale
        assert np.linalg.norm(f.z1 - f.z2 - 2 * f.root.matrix, 2) <= 1e-12 * scale
        assert f.sqrt_residual <= 1e-10 * scale
        assert sectorial_angle(f.root)[0] <= math.pi / 4 + 1e-8
        # Quadratic identity for both factors: Z^2 - TZ - ZT - S = 0.
        for Z in (f.z1, f.z2):
            res = np.linalg.norm(Z @ Z - T @ Z - Z @ T - S, 2)
            assert res <= 1e-10 * scale


def test_factorize_records_warnings():
    f = factorize(QuadraticPencil(np.diag([-1.0, 1.0]), np.eye(2)))
    assert any("not accretive" in w for w in f.warnings)
    # Each operator is judged on its own scale, as analyze judges it: a large
    # ||T||^2 or ||S|| must not hide a small negative lambda_min(Re T).
    for T, S in ((np.diag([100.0, -1e-7]), np.eye(2)), (np.diag([1.0, -1e-9]), 1e4 * np.eye(2))):
        assert not accretivity_report(T).is_accretive
        f = factorize(QuadraticPencil(T, S))
        assert any(w.startswith("T not accretive") for w in f.warnings)


def test_non_accretive_z1_has_no_sector_angle(stacked_solves):
    # Upsilon = diag(0.5, 2), so Z1 = diag(-1 + sqrt(0.5), 1 + sqrt(2)) is not
    # accretive and no sector holds it: its angle is None, as analyze reports
    # omega, and W(Z1) is not swept in its place.
    f = factorize(QuadraticPencil(np.diag([-1.0, 1.0]), np.diag([-0.5, 1.0])))
    assert f.z1_sector_angle is None
    assert f.warnings == ["T not accretive (delta = -1.000e+00)", "S not accretive (delta = -5.000e-01)"]
    assert stacked_solves["zhetrd"] == 0
    # Otherwise it is the certified semiangle of Z1, None exactly when Z1 is
    # not accretive.
    rng = rng_for(SEED, "z1-angle")
    for _ in range(N_TRIALS):
        T, S = pencil_pair(rng, int(rng.integers(2, 7)))
        f = factorize(QuadraticPencil(T, S))
        assert f.z1_sector_angle == sectorial_angle(f.z1)[0]
        assert (f.z1_sector_angle is None) == (not accretivity_report(f.z1).is_accretive)


def test_degenerate_regime_shares_kernel_eigenvalue():
    f = factorize(QuadraticPencil(np.diag([1.0, 0.0]), np.zeros((2, 2))))
    assert f.separation_regime == "degenerate"
    assert f.separation == pytest.approx(0.0, abs=1e-12)
    assert any("disjoint-spectra" in w for w in f.warnings)


def test_separation_positive_under_strong_hypotheses():
    rng = rng_for(SEED, "separation")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 8))
        T, S = pencil_pair(rng, dim)
        f = factorize(QuadraticPencil(T, S))
        if f.separation_regime == "strong":
            assert f.separation > 0


def test_factorize_takes_one_schur_form_per_root(root_kernels):
    # Upsilon (or, for singular EP input, its range block) is factored once,
    # by the Schur form that both the negative-axis test and sqrtm read.  The
    # spectra of Z1 and Z2 are one eigvals call each, taken on first read of
    # them or of separation, and never again.
    rng = rng_for(SEED, "one-schur")
    pairs = [
        commuting_pencil_pair(rng, 6),
        pencil_pair(rng, 6),
        (np.zeros((4, 4)), singular_accretive_operator(rng, 4, 2)),
    ]
    for T, S in pairs:
        root_kernels.update(schur=0, sqrtm=0, eigvals=0)
        f = factorize(QuadraticPencil(T, S))
        assert root_kernels == {"schur": 1, "sqrtm": 1, "eigvals": 0}
        for _ in range(2):
            f.spectra_z1, f.spectra_z2, f.separation
            assert root_kernels == {"schur": 1, "sqrtm": 1, "eigvals": 2}


def test_factorize_cost_follows_reads(stacked_solves, kernel_args):
    # factorize and reads of commuting, z1, z2 and root take no Hermitian
    # eigensolve, stacked or not; the hypothesis warnings take theirs when
    # read, which shows the counters see them.
    rng = rng_for(SEED, "cost-follows-reads")
    for T, S in (commuting_pencil_pair(rng, 6), pencil_pair(rng, 6)):
        kernel_args.clear()
        f = factorize(QuadraticPencil(T, S))
        _ = f.commuting, f.z1, f.z2, f.root
        assert [family for family, _ in kernel_args if family == "eigh"] == []
        assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": 0, "zhetrd_orders": {}}
        _ = f.warnings
        assert [family for family, _ in kernel_args if family == "eigh"] != []


def test_eval_pencil():
    p = QuadraticPencil(DIAG_T, DIAG_S)
    assert np.allclose(eval_pencil(p, 0.0), -DIAG_S)
    assert np.allclose(eval_pencil(p, 1.0), np.diag([-4.0, -8.0]))
    assert np.allclose(eval_pencil(p, 3.0), np.diag([0.0, -8.0]))


def test_factorization_residuals_commuting():
    p = QuadraticPencil(DIAG_T, DIAG_S)
    f = factorize(p)
    lambdas = [0.0, 1.0, 3.0, 1j, 2.5 - 0.5j]
    sym, one = factorization_residuals(f, p, lambdas)
    assert sym <= 1e-12
    assert one <= 1e-12


def test_factorization_residuals_noncommuting_frozen():
    p = QuadraticPencil(NC_T, NC_S)
    f = factorize(p)
    assert not f.commuting
    lambdas = np.exp(2j * math.pi * np.arange(16) / 16)
    sym, one = factorization_residuals(f, p, lambdas)
    assert sym <= 1e-10
    assert one > 1e-3, "one-sided residual must expose the commutator defect"


def test_symmetric_residual_uniform_over_sweep():
    rng = rng_for(SEED, "sweep")
    lambdas = 2.0 * np.exp(2j * math.pi * np.arange(24) / 24)
    for _ in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 8))
        T, S = pencil_pair(rng, dim)
        p = QuadraticPencil(T, S)
        f = factorize(p)
        sym, _ = factorization_residuals(f, p, lambdas)
        assert sym <= 1e-10 * max(1.0, np.linalg.norm(T @ T + S, 2))


def _residuals_per_lambda(f, p, lambdas):
    """Reference: each residual formed from Q(lambda) and the two factors, one norm at a time."""
    worst_sym = worst_one = 0.0
    eye = np.eye(p.dim)
    for lam in np.asarray(lambdas, dtype=complex).ravel():
        Qlam = eval_pencil(p, lam)
        A1 = lam * eye - f.z1
        A2 = lam * eye - f.z2
        norm = 1.0 + abs(lam) ** 2
        worst_sym = max(worst_sym, np.linalg.norm(Qlam - 0.5 * (A1 @ A2 + A2 @ A1), 2) / norm)
        worst_one = max(worst_one, np.linalg.norm(Qlam - A1 @ A2, 2) / norm)
    return worst_sym, worst_one


@pytest.mark.parametrize("scale", [1, 2**19])
def test_factorization_residuals_match_per_lambda_reference(scale):
    # Factors that do not split the pencil give residuals of order one, so the
    # E1/E0 coefficient form is compared at full relative precision. The
    # lambdas are scaled by a power of two (exact); at 2**19 the |lambda|*|E1|
    # term leads every bound of the pruned search.
    rng = rng_for(SEED, "residual-reference")
    lambdas = scale * np.concatenate([2.0 * np.exp(2j * math.pi * np.arange(13) / 13), [0.0, -3.0]])
    for dim in (1, 2, 7):
        T, S = pencil_pair(rng, dim)
        p = QuadraticPencil(T, S)
        f = factorize(p)
        wrong = SimpleNamespace(z1=f.z1 + random_unitary(rng, dim), z2=f.z2)
        for factors in (f, wrong):
            got = factorization_residuals(factors, p, lambdas)
            ref = _residuals_per_lambda(factors, p, lambdas)
            scale = 1.0 + np.linalg.norm(factors.z1, 2) * np.linalg.norm(factors.z2, 2)
            assert np.allclose(got, ref, rtol=1e-12, atol=64 * dim * np.finfo(float).eps * scale)
    assert factorization_residuals(f, p, []) == (0.0, 0.0)


def _stacked_residuals(f, p, lambdas):
    """Reference: the exact normalized norm at every lambda from one stacked
    SVD of every lambda E1 - E0, the formula the pruned search replaced."""
    lams = np.asarray(lambdas, dtype=complex).ravel()
    if p.dim == 0 or lams.size == 0:
        return 0.0, 0.0
    T, S = p.T.matrix, p.S.matrix
    e1 = f.z1 + f.z2 - 2 * T
    z12 = f.z1 @ f.z2
    e0 = np.stack([S + 0.5 * (z12 + f.z2 @ f.z1), S + z12])
    norms = np.linalg.svd(lams[:, None, None, None] * e1 - e0, compute_uv=False)[..., 0]
    worst = np.max(norms / (1.0 + np.abs(lams[:, None]) ** 2), axis=0)
    return float(worst[0]), float(worst[1])


def _cli_lambdas(seed):
    """The 16 lambdas of the CLI factorize check (cli._cmd_factorize)."""
    rng = rng_for(seed, "factorize-lambdas")
    return np.concatenate([complex_gaussian(rng, 12, 2.0), rng.standard_normal(4) * 3.0])


def test_factorization_residuals_equal_the_stacked_formula():
    # The bound-ordered search returns the stacked formula's bits: commuting
    # and non-commuting pairs, and factors whose E1 is of order one; lambda
    # sets with tied |lambda| (conjugate pairs, +-lambda), lambda = 0,
    # |lambda| = 1e8, and none.
    rng = rng_for(SEED, "residual-bits")
    base = complex_gaussian(rng, 5, 2.0)
    lambda_sets = [
        np.concatenate([base, base.conj()]),
        np.concatenate([base, -base, [0.0]]),
        [0.0],
        [1e8, 1e8j, -1e8, 0.5],
        _cli_lambdas(42),
        [],
    ]
    for dim in (1, 2, 7, 32):
        for T, S in (commuting_pencil_pair(rng, dim), pencil_pair(rng, dim)):
            p = QuadraticPencil(T, S)
            f = factorize(p)
            wrong = SimpleNamespace(z1=f.z1 + random_unitary(rng, dim), z2=f.z2)
            for factors in (f, wrong):
                for lams in lambda_sets:
                    got = factorization_residuals(factors, p, lams)
                    assert got == _stacked_residuals(factors, p, lams), (dim, lams)


def test_factorization_residuals_take_few_svds(kernel_args):
    # One SVD of E1, one of each E0 form, and an exact one per form that the
    # bounds cannot rule out: a commuting pair at the CLI's 16 lambdas takes
    # at most 5 SVD matrices, where the stacked formula took 32.
    rng = rng_for(SEED, "residual-svds")
    for dim in (4, 32):
        p = QuadraticPencil(*commuting_pencil_pair(rng, dim))
        f = factorize(p)
        assert f.commuting
        kernel_args.clear()
        factorization_residuals(f, p, _cli_lambdas(dim))
        assert sum(family == "svd" for family, _ in kernel_args) <= 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf), complex(np.nan, 0)])
def test_factorization_residuals_refuse_non_finite_lambda(bad, kernel_args):
    # Refused before any kernel runs, with no RuntimeWarning on the way.
    p = QuadraticPencil(*commuting_pencil_pair(rng_for(SEED, "bad-lambda"), 3))
    f = factorize(p)
    kernel_args.clear()
    with pytest.raises(ParameterError, match="finite"):
        factorization_residuals(f, p, [1.0, bad])
    assert kernel_args == []


def test_factorize_screens_commutation_and_root_residual(kernel_args):
    # factorize and a read of commuting take no SVD of TS - ST or of
    # W^2 - Upsilon: norm_at_most decides both from their Frobenius norms.
    # Reading sqrt_residual takes exactly one SVD of W^2 - Upsilon, whose
    # value it reports.
    rng = rng_for(SEED, "screened-norms")
    for (T, S), commuting in ((commuting_pencil_pair(rng, 8), True), (pencil_pair(rng, 8), False)):
        kernel_args.clear()
        p = QuadraticPencil(T, S)
        f = factorize(p)
        assert f.commuting is commuting
        A, B, U, W = p.T.matrix, p.S.matrix, p.upsilon, f.root.matrix
        C, D = A @ B - B @ A, W @ W - U

        def svds_of(M):
            return sum(family == "svd" and np.array_equal(a, M) for family, a in kernel_args)

        assert (svds_of(C), svds_of(D)) == (0, 0)
        residual = f.sqrt_residual
        assert f.sqrt_residual == residual
        assert (svds_of(C), svds_of(D)) == (0, 1)
        assert residual == operator_norm(D)


def test_pencil_spectrum_frozen():
    got = pencil_spectrum(QuadraticPencil(DIAG_T, DIAG_S))
    assert multiset_match_distance(got, DIAG_PENCIL_EIGS) <= 1e-10
    got_sym = pencil_spectrum(QuadraticPencil(np.zeros((2, 2)), np.eye(2)))
    assert multiset_match_distance(got_sym, [1, -1, 1, -1]) <= 1e-12
    got_shift = pencil_spectrum(QuadraticPencil(np.eye(2), np.zeros((2, 2))))
    assert multiset_match_distance(got_shift, [0, 0, 2, 2]) <= 1e-12


def test_pencil_spectrum_roots_and_commuting_match():
    rng = rng_for(SEED, "pencil-spec")
    for _ in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 7))
        T, S = commuting_pencil_pair(rng, dim)
        p = QuadraticPencil(T, S)
        roots = pencil_spectrum(p)
        scale = max(1.0, np.linalg.norm(T, 2) ** 2, np.linalg.norm(S, 2))
        for lam in roots:
            smin = np.linalg.svd(eval_pencil(p, lam), compute_uv=False)[-1]
            assert smin <= 1e-6 * scale * (1 + abs(lam) ** 2)
        f = factorize(p)
        assert f.commuting
        assert multiset_match_distance(roots, f.spectra_z1 + f.spectra_z2) <= 1e-6


def _brute_force_min_sum(cost):
    rows = np.arange(len(cost))
    return min(cost[rows, list(perm)].sum() for perm in itertools.permutations(rows))


def test_min_sum_assignment_matches_brute_force():
    # Against every permutation for m <= 7: continuous costs, small-integer
    # costs full of ties, and distances between multisets with repeated values.
    rng = rng_for(SEED, "assignment-brute")
    multisets = [
        ([0, 0, 2, 2], [2, 0, 2, 0]),
        ([0, 0, 2, 2], [0, 1, 1, 2]),
        ([1, 1, 1j, 1j, -1, 3], [1j, -1, 1, 1j, 3 + 1e-9, 1]),
    ]
    costs = [np.abs(np.subtract.outer(np.asarray(a, complex), np.asarray(b, complex)))
             for a, b in multisets]
    for m in range(1, 8):
        costs += [rng.random((m, m)), rng.integers(0, 3, (m, m)).astype(float)]
    for cost in costs:
        cols = pencil._min_sum_assignment(cost)
        rows = np.arange(len(cost))
        assert sorted(cols) == list(rows)
        assert cost[rows, cols].sum() <= _brute_force_min_sum(cost) + 1e-12
    assert multiset_match_distance([0, 0, 2, 2], [2, 0, 2, 0]) == 0.0
    assert multiset_match_distance(*multisets[2]) == pytest.approx(1e-9, rel=1e-6)


def test_min_sum_assignment_matches_scipy_reference():
    from scipy.optimize import linear_sum_assignment  # test-only reference

    rng = rng_for(SEED, "assignment-scipy")
    rows = np.arange(64)
    for k in range(4):
        cost = rng.random((64, 64)) * 10.0 ** (2 * k - 3)
        ref = linear_sum_assignment(cost)[1]
        best = cost[rows, ref].sum()
        assert cost[rows, pencil._min_sum_assignment(cost)].sum() == pytest.approx(best, rel=1e-12)
    # A 64-point spectrum against a shuffled copy with rounding-level noise,
    # the shape of the spectrum-multiset claim: the same distance, to the bit.
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = rng.permutation(x) * (1 + 1e-15 * rng.standard_normal(64))
    cost = np.abs(x[:, None] - y[None, :])
    assert multiset_match_distance(x, y) == cost[rows, linear_sum_assignment(cost)[1]].max()


def test_vandermonde_agreement():
    f = factorize(QuadraticPencil(DIAG_T, DIAG_S))
    assert vandermonde_check(f)
    f_sing = factorize(QuadraticPencil(np.diag([1.0, 0.0]), np.zeros((2, 2))))
    assert vandermonde_check(f_sing)
    # T = 0 with S = c I has a full-rank root R = sqrt(c) I, so
    # det V = det(-2R) != 0; V's rank is judged at the scale of Z1 and Z2, not
    # of its identity blocks, at which a root of norm 1e-15 or 1e-100 reads
    # as 0.  The zero pencil's root and V are both singular.
    zero, eye = np.zeros((2, 2)), np.eye(2)
    for c, rank in ((1e-30, 2), (1e-200, 2), (0.0, 0)):
        f = factorize(QuadraticPencil(zero, c * eye))
        assert f.root.rank == rank and vandermonde_check(f), c
    # A full-rank root of norm 1e-7 beside ||T|| = 1 (T, T^2, S accretive):
    # scaling the identity blocks by ||R|| alone would read V as singular.
    f = factorize(QuadraticPencil(np.exp(0.25j * np.pi) * eye, (1e-14 - 1j) * eye))
    assert f.root.rank == 2 and vandermonde_check(f)
    rng = rng_for(SEED, "vandermonde")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 8))
        T, S = pencil_pair(rng, dim)
        assert vandermonde_check(factorize(QuadraticPencil(T, S)))


def test_vandermonde_singular_root_case():
    # Rank-deficient T with S = 0: Upsilon^{1/2} singular, Vandermonde too.
    rng = rng_for(SEED, "vandermonde-singular")
    for _ in range(6):
        dim = int(rng.integers(3, 7))
        Q = random_unitary(rng, dim)[:, :dim - 1]
        T = Q @ accretive_operator(rng, dim - 1, max_tan=0.4) @ Q.conj().T
        f = factorize(QuadraticPencil(T, np.zeros((dim, dim))))
        assert vandermonde_check(f)
