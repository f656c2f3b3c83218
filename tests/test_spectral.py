"""Laplacian-mode demo: screens, condition sum, per-mode oracle, pipeline."""

import math

import numpy as np
import pytest

from accretive import pencil
from accretive.bvp import BvpProblem, solve_bvp
from accretive.errors import (
    ModelError,
    ParameterError,
    PreconditionError,
    ResonanceError,
)
from accretive.sampling import rng_for
from accretive.spectral import (
    LaplacianModel,
    _stage,
    build_operators,
    condition_check,
    demo,
    per_mode_oracle,
)

SEED = 33871


def scalar_mode_oracle(t_val, s_val, u0, u1, ts):
    # Direct 2x2 boundary fit in the scaled two-exponential basis.
    r = np.sqrt(complex(t_val) ** 2 + complex(s_val))
    z1, z2 = t_val + r, t_val - r
    A = np.array([[np.exp(-z1), 1.0], [1.0, np.exp(z2)]], dtype=complex)
    a, b = np.linalg.solve(A, np.array([u0, u1], dtype=complex))
    ts = np.asarray(ts, dtype=float)
    return a * np.exp(z1 * (ts - 1)) + b * np.exp(z2 * ts)


def test_model_validation():
    with pytest.raises(ParameterError):
        LaplacianModel(1.0, 0.0, 0.1, 0)
    with pytest.raises(ParameterError):
        LaplacianModel(1.0 + 1j, 0.0, 0.1, 4)
    with pytest.raises(ParameterError):
        LaplacianModel(math.nan, 0.0, 0.1, 4)


def test_model_refuses_a_non_integral_mode_count():
    # int() would truncate 2.5 to 2 modes and overflow on inf.
    for bad in (2.5, math.inf):
        with pytest.raises(ParameterError):
            LaplacianModel(1.0, 0.0, 0.1, bad)
    assert LaplacianModel(1.0, 0.0, 0.1, 4.0).n_modes == 4


def test_eigenvalues_and_operators_frozen():
    m = LaplacianModel(1.0, 0.0, 0.1, 2)
    assert np.allclose(m.eigenvalues, [math.pi**2, 4 * math.pi**2], rtol=0, atol=0)
    T, S = build_operators(m)
    assert np.array_equal(T, np.diag([math.pi**2, 4 * math.pi**2]).astype(complex))
    assert np.array_equal(S, 0.1 * np.eye(2))
    zero = LaplacianModel(0.0, 0.0, 0.1, 3)
    T0, _ = build_operators(zero)
    assert np.array_equal(T0, np.zeros((3, 3)))


def test_screens():
    assert LaplacianModel(1.0, 0.0, 0.1, 16).feasible
    # eta1*lambda_16 = 0.01 * (16 pi)^2 = 25.3 > eta kills the T^2 screen.
    bad = LaplacianModel(1.0, 0.01, 0.1, 16)
    assert not bad.feasible
    assert any("mode j=" in msg for msg in bad.screen_failures())
    with pytest.raises(ModelError):
        build_operators(bad)
    assert not LaplacianModel(-1.0, 0.0, 0.1, 2).feasible
    assert not LaplacianModel(1.0, 0.0, -0.1, 2).feasible
    # Small eta1 stays feasible while the screen holds: eta1*lambda_5 = 0.247.
    assert LaplacianModel(1.0, 0.001, 0.1, 5).feasible


def test_condition_check_frozen():
    # sum_j 1/lambda_j^2 = zeta(4)/pi^4 = 1/90; the reported total adds the
    # integral tail bound, so it brackets 1/90 from above.
    ok, total = condition_check(LaplacianModel(1.0, 0.0, 0.1, 16))
    assert ok
    assert 1 / 90 <= total <= 1 / 90 + 1 / (3 * 16**3 * math.pi**4)
    ok2, total2 = condition_check(LaplacianModel(1.0, 0.0, 100.0, 16))
    assert not ok2 and total2 == total
    ok3, total3 = condition_check(LaplacianModel(1.0, 0.0, 0.1, 2))
    assert ok3
    assert 1 / 90 <= total3 <= 1 / 90 + 1 / (3 * 2**3 * math.pi**4)


def test_condition_check_pure_fourth_order_tail():
    # With eta = 0 the terms are 1/(eta1^2 lambda_j^4): zeta(8)/pi^8 = 1/9450.
    ok, total = condition_check(LaplacianModel(0.0, 1.0, 1.0, 4))
    assert ok
    assert 1 / 9450 <= total <= 1 / 9450 + 1 / (7 * 4**7 * math.pi**8)


def test_condition_check_preconditions():
    with pytest.raises(PreconditionError):
        condition_check(LaplacianModel(0.0, 0.0, 0.1, 4))
    with pytest.raises(PreconditionError):
        condition_check(LaplacianModel(1.0, 0.0, 0.0, 4))


def test_per_mode_oracle_zero_data():
    m = LaplacianModel(1.0, 0.0, 0.1, 4)
    sol = per_mode_oracle(m, np.zeros(4), np.zeros(4))
    assert np.array_equal(sol.values, np.zeros_like(sol.values))
    assert np.array_equal(sol.x0, np.zeros(4))


def test_per_mode_oracle_single_mode():
    m = LaplacianModel(1.0, 0.0, 0.1, 3)
    u0 = np.array([1.0, 0.0, 0.0])
    sol = per_mode_oracle(m, u0, np.zeros(3))
    expected = scalar_mode_oracle(math.pi**2, 0.1, 1.0, 0.0, sol.grid)
    assert np.max(np.abs(sol.values[:, 0] - expected)) <= 1e-12
    assert np.max(np.abs(sol.values[:, 1:])) == 0.0
    assert sol.boundary_residual <= 1e-12
    assert sol.ode_residual <= 1e-12


def test_per_mode_oracle_validation():
    m = LaplacianModel(1.0, 0.0, 0.1, 3)
    with pytest.raises(ParameterError):
        per_mode_oracle(m, np.zeros(2), np.zeros(3))


def test_oracle_matches_matrix_solver():
    rng = rng_for(SEED, "oracle-vs-matrix")
    m = LaplacianModel(1.0, 0.001, 0.1 + 0.05j, 5)
    u0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    T, S = build_operators(m)
    p = BvpProblem(T, S, u0, u1)
    assert p.commutation_residual <= 1e-14
    sol = solve_bvp(p)
    oracle = per_mode_oracle(m, u0, u1, sol.grid)
    assert np.max(np.abs(sol.values - oracle.values)) <= 1e-8
    assert np.max(np.abs(sol.x0 - oracle.x0)) <= 1e-8
    assert np.max(np.abs(sol.x1 - oracle.x1)) <= 1e-8


def test_resonance_verdicts_match():
    m = LaplacianModel(0.0, 0.0, 0.0, 2)
    with pytest.raises(ResonanceError):
        per_mode_oracle(m, np.ones(2), np.zeros(2))
    T, S = build_operators(m)
    with pytest.raises(ResonanceError):
        solve_bvp(BvpProblem(T, S, np.ones(2), np.zeros(2)))


def test_demo_full_pipeline():
    rng = rng_for(SEED, "demo")
    m = LaplacianModel(1.0, 0.0, 0.1, 16)
    u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    u1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = demo(m, u0, u1, x_samples=21)
    scale = 1 + np.linalg.norm(u0) + np.linalg.norm(u1)
    assert out["oracle_gap"] <= 1e-8
    assert out["boundary_residual"] <= 1e-9 * scale
    assert out["ode_residual"] <= 1e-8
    assert abs(out["condition_sum"] - 1 / 90) <= 1e-4
    assert out["certificate_mode"] == "both"
    assert out["certificate"]["contraction_TdS"] < 1
    assert out["factorization"]["separation_regime"] == "strong"
    assert out["factorization"]["warnings"] == []
    assert out["field"].shape == (len(out["solution"].grid), 21)
    # Dirichlet ends of the x grid carry no field regardless of the data.
    assert np.max(np.abs(out["field"][:, 0])) <= 1e-9 * scale
    assert np.max(np.abs(out["field"][:, -1])) <= 1e-9 * scale


def test_demo_zero_data():
    m = LaplacianModel(1.0, 0.0, 0.1, 4)
    out = demo(m, np.zeros(4), np.zeros(4), x_samples=9)
    assert np.array_equal(out["field"], np.zeros_like(out["field"]))


def test_demo_truncation_monotone():
    rng = rng_for(SEED, "truncation")
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    small = demo(LaplacianModel(1.0, 0.0, 0.1, 4), u0, u1, x_samples=17)
    pad0 = np.concatenate([u0, np.zeros(4)])
    pad1 = np.concatenate([u1, np.zeros(4)])
    big = demo(LaplacianModel(1.0, 0.0, 0.1, 8), pad0, pad1, x_samples=17)
    assert np.max(np.abs(big["solution"].values[:, :4] - small["solution"].values)) <= 1e-12
    assert np.max(np.abs(big["solution"].values[:, 4:])) <= 1e-12
    assert np.max(np.abs(big["field"] - small["field"])) <= 1e-12


def test_demo_refusals_with_stage():
    with pytest.raises(ModelError, match=r"\[stage: screen\]"):
        demo(LaplacianModel(1.0, 0.01, 0.1, 16), np.zeros(16), np.zeros(16))
    with pytest.raises(PreconditionError, match=r"\[stage: condition\]"):
        demo(LaplacianModel(1.0, 0.0, 100.0, 16), np.zeros(16), np.zeros(16))
    with pytest.raises(PreconditionError, match=r"\[stage: condition\]"):
        demo(LaplacianModel(0.0, 0.0, 0.1, 4), np.zeros(4), np.zeros(4))
    with pytest.raises(ParameterError, match=r"\[stage: build\] boundary vectors"):
        demo(LaplacianModel(1.0, 0.0, 0.1, 4), np.zeros(6), np.zeros(4))
    with pytest.raises(ParameterError):
        demo(LaplacianModel(1.0, 0.0, 0.1, 4), np.zeros(4), np.zeros(4), x_samples=1)


def test_root_failure_is_labelled_factorize(monkeypatch):
    # Building the problem only validates; Upsilon is rooted when factorize
    # first reads the root, so a root failure carries that stage's label.
    def no_root(op):
        raise PreconditionError("no principal square root: forced")

    monkeypatch.setattr(pencil, "_sqrt_and_residual", no_root)
    with pytest.raises(PreconditionError, match=r"\[stage: factorize\] no principal"):
        demo(LaplacianModel(1.0, 0.0, 0.1, 4), np.zeros(4), np.zeros(4))


class _CodedError(Exception):
    """An exception whose constructor needs two arguments."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


def test_stage_passes_foreign_exceptions_through():
    raised = _CodedError(7, "detail")

    def fail():
        raise raised

    with pytest.raises(_CodedError) as info:
        _stage("solve", fail)
    assert info.value is raised and info.value.code == 7
