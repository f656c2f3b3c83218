"""Certified perturbation of pseudoinverses: update formula, bounds, Neumann."""

import math

import numpy as np
import pytest

from accretive.cli import run
from accretive.errors import HypothesisError, PreconditionError
from accretive.matio import write_matrix
from accretive.pinv import (
    neumann_identity_check,
    perturbation_bound,
    perturbation_certificate,
    perturbed_pinv,
    pseudoinverse,
)
from accretive.sampling import (
    accretive_operator,
    certified_pair,
    complex_gaussian,
    random_unitary,
    rng_for,
)

SEED = 47202
N_TRIALS = 40

# Scalar Neumann witness: T = 1, S = 0.5, k = 3.  Exact value 1/(1+0.5) = 2/3,
# partial sum 1 - 0.5 + 0.25 - 0.125 = 0.625, deviation 2/3 - 5/8 = 1/24.
NEUMANN_SCALAR_DEV = 1.0 / 24.0


def test_certificate_trivial_cases():
    cert = perturbation_certificate(np.diag([1.0, 0.0]), np.diag([0.3, 0.0]))
    assert cert.mode == "both"
    assert cert.contraction_TdS == pytest.approx(0.3)
    assert cert.range_inclusion_residual <= 1e-14
    assert cert.s_accretive

    bad = perturbation_certificate(np.diag([1.0, 0.0]), np.diag([0.0, 0.3]))
    assert bad.mode == "fail"
    assert bad.range_inclusion_residual == pytest.approx(0.3)
    assert bad.kernel_inclusion_residual == pytest.approx(0.3)


def test_certificate_records_informational_ratio():
    cert = perturbation_certificate(np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))
    assert cert.norm_over_gamma == pytest.approx(0.25)
    assert cert.theta == pytest.approx(0.0, abs=1e-12)


def test_certificate_cost_follows_reads(stacked_solves, kernel_args):
    # The certificate and a read of its mode take no Hermitian eigensolve,
    # stacked or not; theta takes its own when read, which shows the counters
    # see it.  as_dict reads the eight keys in their report order.
    T, S = certified_pair(rng_for(SEED, "cost-follows-reads"), 6, 3)
    kernel_args.clear()
    cert = perturbation_certificate(T, S)
    assert cert.mode == "both"
    assert [family for family, _ in kernel_args if family == "eigh"] == []
    assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": 0, "zhetrd_orders": {}}
    assert cert.theta is not None
    assert [family for family, _ in kernel_args if family == "eigh"] != []
    assert list(cert.as_dict()) == [
        "range_inclusion_residual", "kernel_inclusion_residual", "contraction_TdS",
        "contraction_STd", "mode", "s_accretive", "theta", "norm_over_gamma",
    ]


def test_perturbed_pinv_trivial_cases():
    T = np.diag([1.0, 0.0])
    assert np.allclose(perturbed_pinv(T, np.zeros((2, 2))), pseudoinverse(T).pinv)
    got = perturbed_pinv(T, np.diag([0.3, 0.0]))
    assert np.allclose(got, np.diag([1 / 1.3, 0.0]), atol=1e-14)


def test_perturbed_pinv_scalar_scaling():
    rng = rng_for(SEED, "scaling")
    for _ in range(N_TRIALS // 2):
        dim = int(rng.integers(1, 9))
        T = accretive_operator(rng, dim)
        eps = 0.4 * rng.random() + 0.05
        P = pseudoinverse(T).pinv
        got = perturbed_pinv(T, eps * T)
        assert np.linalg.norm(got - P / (1 + eps), 2) <= 1e-12 * max(1.0, np.linalg.norm(P, 2))


def test_perturbed_pinv_fail_mode_raises():
    with pytest.raises(HypothesisError, match="hypotheses unmet"):
        perturbed_pinv(np.diag([1.0, 0.0]), np.diag([0.0, 0.3]))


def test_one_contraction_with_both_inclusions_certifies():
    # T is invertible, so both inclusions hold; ||T_pinv S|| ~ 0.99 while
    # ||S T_pinv|| ~ 17, and the update formula still gives (T + S)^+.
    T = np.diag([1.0, 0.01])
    S = np.array([[0.9, 0.17], [0.0, 0.009]])
    cert = perturbation_certificate(T, S)
    assert cert.s_accretive
    assert cert.contraction_TdS < 1 < cert.contraction_STd
    assert cert.mode == "both"
    direct = pseudoinverse(T + S).pinv
    assert np.linalg.norm(perturbed_pinv(T, S, cert) - direct, 2) <= 1e-12 * np.linalg.norm(direct, 2)
    diff = np.linalg.norm(direct - pseudoinverse(T).pinv, 2)
    assert diff <= perturbation_bound(cert)


def _single_inclusion_pairs():
    """(T, S) pairs meeting exactly one inclusion, with ||T_pinv|| ||S|| = 1/2.

    The frozen 2x2 S maps into range(T) but does not vanish on kernel(T),
    and its transpose vanishes on kernel(T) but maps outside range(T); the
    random EP pairs are S = Q B (range pair only) and S = B* Q* (kernel pair
    only) for T = Q M Q*.  On each, the update formula misses (T + S)^+ (by
    0.163 on the 2x2 pairs).
    """
    S = np.array([[0.1, 0.2], [0.0, 0.0]])
    pairs = [(np.diag([1.0, 0.0]), S), (np.diag([1.0, 0.0]), S.T)]
    rng = rng_for(SEED, "single-inclusion")
    for _ in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 9))
        Q = random_unitary(rng, dim)[:, :int(rng.integers(1, dim))]
        T = Q @ accretive_operator(rng, Q.shape[1]) @ Q.conj().T
        B = complex_gaussian(rng, (Q.shape[1], dim))
        scale = 0.5 / np.linalg.norm(pseudoinverse(T).pinv, 2)
        for S in (Q @ B, B.conj().T @ Q.conj().T):
            pairs.append((T, scale * S / np.linalg.norm(S, 2)))
    return pairs


def test_single_inclusion_fails_the_certificate(tmp_path):
    for k, (T, S) in enumerate(_single_inclusion_pairs()):
        cert = perturbation_certificate(T, S)
        residuals = sorted([cert.range_inclusion_residual, cert.kernel_inclusion_residual])
        assert residuals[0] <= 1e-12 < 1e-3 <= residuals[1], f"pair {k}: {residuals}"
        assert max(cert.contraction_TdS, cert.contraction_STd) < 1, f"pair {k}"
        assert cert.mode == "fail", f"pair {k}"
        with pytest.raises(HypothesisError, match="hypotheses unmet"):
            perturbed_pinv(T, S, cert)
        if k < 4:
            write_matrix(tmp_path / "t.json", T)
            write_matrix(tmp_path / "s.json", S)
            argv = ["perturb", "--input", str(tmp_path / "t.json"),
                    "--input2", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")]
            assert run(argv) == 3, f"pair {k}"


def test_update_formula_matches_direct_pinv():
    rng = rng_for(SEED, "formula-direct")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 12))
        rank = int(rng.integers(1, dim + 1))
        T, S = certified_pair(rng, dim, rank)
        cert = perturbation_certificate(T, S)
        assert cert.mode == "both", f"trial {k}"
        got = perturbed_pinv(T, S, cert)
        res_T = pseudoinverse(T)
        direct = pseudoinverse(T + S)
        pinv_scale = max(1.0, np.linalg.norm(res_T.pinv, 2))
        assert np.linalg.norm(got - direct.pinv, 2) <= 1e-8 * pinv_scale, f"trial {k}"
        assert direct.rank == res_T.rank, f"trial {k}"
        # Range and kernel survive the perturbation.
        # Range projectors T T^+ and row-space projectors T^+ T of T + S and T.
        assert np.linalg.norm((T + S) @ direct.pinv - T @ res_T.pinv, 2) <= 1e-8
        assert np.linalg.norm(direct.pinv @ (T + S) - res_T.pinv @ T, 2) <= 1e-8


def test_error_and_norm_bounds():
    rng = rng_for(SEED, "bounds")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 10))
        rank = int(rng.integers(1, dim + 1))
        T, S = certified_pair(rng, dim, rank)
        cert = perturbation_certificate(T, S)
        res = pseudoinverse(T)
        pn = 1 / res.gamma
        diff = np.linalg.norm(pseudoinverse(T + S).pinv - res.pinv, 2)
        bound = np.linalg.norm(S, 2) * pn ** 2 / (1 - cert.contraction_TdS)
        assert perturbation_bound(cert) == bound, f"trial {k}"
        assert diff <= bound + 1e-10, f"trial {k}"
        if cert.s_accretive and cert.theta is not None and cert.theta < math.pi / 2:
            norm_bound = 2 * pn + (1 + math.tan(cert.theta)) ** 2 * pn ** 2
            assert np.linalg.norm(pseudoinverse(T + S).pinv, 2) <= norm_bound + 1e-10


def test_neumann_scalar_witness():
    dev = neumann_identity_check(np.array([[1.0]]), np.array([[0.5]]), 3)
    assert dev == pytest.approx(NEUMANN_SCALAR_DEV, abs=1e-14)
    assert neumann_identity_check(np.eye(3), np.zeros((3, 3)), 7) == pytest.approx(0.0)


def test_neumann_tail_bound():
    rng = rng_for(SEED, "neumann")
    for k in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        T, S = certified_pair(rng, dim, rank)
        cert = perturbation_certificate(T, S)
        P = pseudoinverse(T).pinv
        c = cert.contraction_TdS
        for order in (0, 3, 20):
            dev = neumann_identity_check(T, S, order)
            tail = c ** (order + 1) * np.linalg.norm(P, 2) / (1 - c)
            assert dev <= tail + 1e-12, f"trial {k}, k={order}"
        # At moderate contraction the order-20 sum is already below 1e-6.
        T2, S2 = certified_pair(rng, dim, rank, contraction=0.4)
        assert neumann_identity_check(T2, S2, 20) <= 1e-6, f"trial {k}"


def test_neumann_contraction_precondition():
    with pytest.raises(PreconditionError):
        neumann_identity_check(np.eye(2), 2 * np.eye(2), 3)
