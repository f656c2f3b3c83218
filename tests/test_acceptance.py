"""Acceptance gate: one test per shipped criterion, at the stated sizes.

Every test here re-states a headline guarantee end to end with seed 42;
the per-module files cover edge cases and failure modes.  Each criterion
prints as its own pytest -v line.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from accretive.bvp import BvpProblem, fd_oracle, solve_bvp
from accretive.errors import ModelError
from accretive.linops import operator_norm, sectorial_angle
from accretive.pencil import (
    QuadraticPencil,
    balakrishnan_power,
    factorization_residuals,
    factorize,
    multiset_match_distance,
    pencil_spectrum,
    vandermonde_check,
)
from accretive.pinv import (
    penrose_residuals,
    perturbation_certificate,
    perturbed_pinv,
    pseudoinverse,
    second_power_inequalities,
)
from accretive.sampling import (
    accretive_operator,
    certified_pair,
    commuting_pencil_pair,
    complex_gaussian,
    pencil_pair,
    random_operator,
    rank_deficient_operator,
    rng_for,
    singular_accretive_operator,
)
from accretive.selftest import run_selftest
from accretive.spectral import LaplacianModel, build_operators, condition_check, demo

SEED = 42


def test_criterion_1_penrose_and_ep():
    rng = rng_for(SEED, "acceptance-penrose")
    for k in range(150):
        dim = int(rng.integers(1, 13))
        if k % 2:
            T = rank_deficient_operator(rng, dim, int(rng.integers(0, dim + 1)))
        else:
            T = random_operator(rng, dim)
        res = pseudoinverse(T)
        scale = max(1.0, operator_norm(T), operator_norm(res.pinv))
        worst = max(penrose_residuals(T, res.pinv).values())
        assert worst <= 1e-10 * scale, f"general trial {k}"
    for k in range(150):
        dim = int(rng.integers(1, 13))
        T = singular_accretive_operator(rng, dim, int(rng.integers(1, dim + 1)))
        res = pseudoinverse(T)
        scale = max(1.0, operator_norm(T), operator_norm(res.pinv))
        assert max(penrose_residuals(T, res.pinv).values()) <= 1e-10 * scale
        assert operator_norm(T @ res.pinv - res.pinv @ T) <= 1e-10, f"EP trial {k}"
        herm = 0.5 * (res.pinv + res.pinv.conj().T)
        assert float(np.min(np.linalg.eigvalsh(herm))) >= -1e-10, f"accretive pinv trial {k}"


def test_criterion_2_sectorial_angle():
    rng = rng_for(SEED, "acceptance-sectorial")
    for k in range(500):
        dim = int(rng.integers(1, 11))
        T = accretive_operator(rng, dim)
        omega, delta, _, tan_om = sectorial_angle(T)
        assert omega is not None and delta > 0, f"trial {k}"
        rhs = math.sqrt(max((operator_norm(T) / delta) ** 2 - 1.0, 0.0))
        assert tan_om <= rhs + 1e-8, f"trial {k}"
    witness = sectorial_angle(np.array([[1.0, 1.0], [-1.0, 1.0]]))[0]
    assert abs(witness - math.pi / 4) <= 1e-10


def test_criterion_3_perturbation():
    rng = rng_for(SEED, "acceptance-perturbation")
    for k in range(600):
        dim = int(rng.integers(2, 11))
        rank = int(rng.integers(1, dim + 1))
        T, S = certified_pair(rng, dim, rank, contraction=0.2 + 0.5 * rng.random())
        cert = perturbation_certificate(T, S)
        assert cert.mode == "both", f"trial {k}"
        res = pseudoinverse(T)
        pn = operator_norm(res.pinv)
        updated = perturbed_pinv(T, S, cert)
        direct = pseudoinverse(T + S)
        assert operator_norm(updated - direct.pinv) <= 1e-8 * pn, f"trial {k}"
        assert direct.rank == res.rank
        # Range projectors T T^+ and row-space projectors T^+ T of T and T + S.
        assert operator_norm(T @ res.pinv - (T + S) @ direct.pinv) <= 1e-8
        assert operator_norm(res.pinv @ T - direct.pinv @ (T + S)) <= 1e-8
        diff = operator_norm(direct.pinv - res.pinv)
        bound = operator_norm(S) * pn**2 / (1 - cert.contraction_TdS)
        assert diff <= bound * (1 + 1e-9) + 1e-12, f"bound trial {k}"
        if cert.s_accretive and cert.theta is not None and cert.theta < math.pi / 2:
            norm_bound = 2 * pn + (1 + math.tan(cert.theta)) ** 2 * pn**2
            assert operator_norm(direct.pinv) <= norm_bound * (1 + 1e-9)
    for k in range(10):
        dim = int(rng.integers(2, 9))
        T = singular_accretive_operator(rng, dim, int(rng.integers(1, dim + 1)))
        eps = 0.1 + 0.4 * rng.random()
        res = pseudoinverse(T)
        updated = perturbed_pinv(T, eps * T)
        gap = operator_norm(updated - res.pinv / (1 + eps))
        assert gap <= 1e-12 * max(1.0, operator_norm(res.pinv)), f"scaling trial {k}"


def test_criterion_4_second_power():
    rng = rng_for(SEED, "acceptance-second-power")
    for k in range(200):
        dim = int(rng.integers(1, 11))
        rank = int(rng.integers(1, dim + 1))
        T = singular_accretive_operator(rng, dim, rank)
        res = pseudoinverse(T)
        res_sq = pseudoinverse(T @ T)
        if math.isfinite(res.gamma):
            assert res_sq.gamma >= res.gamma**2 / 2 - 1e-12, f"gamma trial {k}"
        P = res.pinv
        gap = operator_norm(res_sq.pinv - P @ P)
        assert gap <= 1e-10 * max(1.0, operator_norm(P) ** 2), f"square pinv trial {k}"
        stats = second_power_inequalities(T)
        # Certified for every x: the bracket's upper end is below 0.
        assert stats["vector_violation"][1] < 0, f"vector trial {k}: {stats}"
        assert stats["gamma_bound_slack"] >= -1e-12, f"gamma trial {k}: {stats}"


def test_criterion_5_fractional_powers():
    rng = rng_for(SEED, "acceptance-fractional")
    for k in range(50):
        dim = int(rng.integers(2, 9))
        T = accretive_operator(rng, dim, max_tan=1.5)
        for alpha in (0.25, 0.5, 0.75):
            power = balakrishnan_power(T, alpha)
            oracle = scipy.linalg.fractional_matrix_power(T, alpha)
            rel = operator_norm(power - oracle) / operator_norm(oracle)
            assert rel <= 1e-6, f"trial {k} alpha={alpha}: {rel:.2e}"
            omega = sectorial_angle(power)[0]
            assert omega is not None and omega <= alpha * math.pi / 2 + 1e-6, f"trial {k}"


def test_criterion_6_factorization():
    rng = rng_for(SEED, "acceptance-factorization")
    for k in range(100):
        dim = int(rng.integers(2, 9))
        T, S = commuting_pencil_pair(rng, dim) if k % 2 else pencil_pair(rng, dim)
        p = QuadraticPencil(T, S)
        f = factorize(p)
        scale = max(1.0, operator_norm(T) ** 2, operator_norm(S))
        lams = np.concatenate([complex_gaussian(rng, 12, 2.0), rng.standard_normal(4) * 3.0])
        sym, one = factorization_residuals(f, p, lams)
        assert sym <= 1e-10 * scale, f"trial {k}: symmetric {sym:.2e}"
        if f.commuting:
            assert one <= 1e-10 * scale, f"trial {k}: one-sided {one:.2e}"
            dist = multiset_match_distance(f.spectra_z1 + f.spectra_z2, pencil_spectrum(p))
            assert dist <= 1e-6, f"trial {k}: multiset {dist:.2e}"
        assert vandermonde_check(f), f"trial {k}"
        upsilon = T @ T + S
        upsilon_delta = float(np.min(np.linalg.eigvalsh(0.5 * (upsilon + upsilon.conj().T))))
        if upsilon_delta > 1e-6:
            assert f.separation > 0, f"trial {k}"


def test_criterion_7_bvp():
    scalar = BvpProblem(np.zeros((1, 1)), np.eye(1), np.array([1.0]), np.array([0.0]))
    sol = solve_bvp(scalar)
    assert len(sol.grid) == 65
    expected = np.sinh(1 - sol.grid) / math.sinh(1.0)
    assert np.max(np.abs(sol.values[:, 0] - expected)) <= 1e-10
    rng = rng_for(SEED, "acceptance-bvp")
    for k in range(100):
        dim = int(rng.integers(2, 7))
        T, S = commuting_pencil_pair(rng, dim)
        u0 = complex_gaussian(rng, dim)
        u1 = complex_gaussian(rng, dim)
        s = solve_bvp(BvpProblem(T, S, u0, u1))
        scale = 1 + np.linalg.norm(u0) + np.linalg.norm(u1)
        assert s.boundary_residual <= 1e-9 * scale, f"trial {k}"
        assert s.ode_residual <= 1e-8, f"trial {k}"
    gap_coarse = fd_oracle(scalar, 1000).oracle_gap
    gap_fine = fd_oracle(scalar, 2000).oracle_gap
    assert gap_fine <= 1e-4
    assert 3.5 <= gap_coarse / gap_fine <= 4.5
    T, S = commuting_pencil_pair(rng, 4)
    u0, u1, v0, v1 = (complex_gaussian(rng, 4) for _ in range(4))
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    s1 = solve_bvp(BvpProblem(T, S, u0, u1))
    s2 = solve_bvp(BvpProblem(T, S, v0, v1))
    s12 = solve_bvp(BvpProblem(T, S, a * u0 + b * v0, a * u1 + b * v1))
    assert np.max(np.abs(s12.values - a * s1.values - b * s2.values)) <= 1e-10


def test_criterion_8_laplacian_demo():
    model = LaplacianModel(1.0, 0.0, 0.1, 16)
    ok, total = condition_check(model)
    assert ok
    assert 1 / 90 <= total <= 1 / 90 + 1e-6
    rng = rng_for(SEED, "acceptance-laplacian")
    u0 = complex_gaussian(rng, 16)
    u1 = complex_gaussian(rng, 16)
    out = demo(model, u0, u1, x_samples=17)
    assert out["oracle_gap"] <= 1e-8
    infeasible = LaplacianModel(1.0, 0.01, 0.1, 16)
    assert not infeasible.feasible
    with pytest.raises(ModelError):
        build_operators(infeasible)
    with pytest.raises(ModelError):
        demo(infeasible, u0, u1)


def test_criterion_9_selftest_determinism():
    first = run_selftest(SEED, {})
    second = run_selftest(SEED, {})
    assert json.dumps(first["body"], sort_keys=True) == json.dumps(second["body"], sort_keys=True)
    assert first["body"]["summary"]["failed"] == 0
