"""Two-point BVP: exponential formula, residuals, finite-difference oracle."""

import gc
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from accretive import bvp, pencil, selftest
from accretive.bvp import (
    BvpProblem,
    _TAYLOR_THETA,
    _expm_actions,
    _factor_actions,
    chebyshev_grid,
    expm,
    fd_oracle,
    solve_bvp,
)
from accretive.errors import (
    AccuracyError,
    HypothesisError,
    ParameterError,
    PreconditionError,
    ResonanceError,
)
from accretive.linops import as_operator
from accretive.pencil import accretive_sqrt, factorize
from accretive.sampling import commuting_pencil_pair, complex_gaussian, random_unitary, rng_for

SEED = 78112
N_TRIALS = 15


def scalar_mode_oracle(t_val, s_val, u0, u1, ts):
    """Closed-form scalar solution via the quadratic roots, boundary-fitted.

    Uses the overflow-safe basis e^{z1 (t-1)} and e^{z2 t}; independent of the
    matrix solver's coefficient formulas (direct 2x2 solve).
    """
    r = np.sqrt(complex(t_val) ** 2 + complex(s_val))
    z1, z2 = t_val + r, t_val - r
    A = np.array([[np.exp(-z1), 1.0], [1.0, np.exp(z2)]], dtype=complex)
    a, b = np.linalg.solve(A, np.array([u0, u1], dtype=complex))
    ts = np.asarray(ts, dtype=float)
    return a * np.exp(z1 * (ts - 1)) + b * np.exp(z2 * ts)


def sinh_solution(ts):
    # u'' = u with u(0)=1, u(1)=0: u(t) = sinh(1-t)/sinh(1).
    ts = np.asarray(ts, dtype=float)
    return np.sinh(1 - ts) / math.sinh(1.0)


def test_expm_trivial():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    got = expm(np.diag([1.0, -2.0 + 1j]))
    assert np.allclose(got, np.diag([math.e, np.exp(-2.0 + 1j)]), atol=1e-14)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(nilpotent), np.array([[1, 1], [0, 1]]), atol=1e-15)


@pytest.fixture
def expm_calls(monkeypatch):
    """Count calls of scipy.linalg.expm, the dense exponential."""
    calls = []
    dense = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return dense(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Count numpy SVDs, including the one behind numpy.linalg.norm(A, 2)."""
    calls = []
    for mod in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        def counting(a, *args, _svd=mod.svd, **kwargs):
            calls.append(np.shape(a))
            return _svd(a, *args, **kwargs)

        monkeypatch.setattr(mod, "svd", counting)
    return calls


def jordan_block(n, lam):
    return lam * np.eye(n) + np.diag(np.ones(n - 1), 1)


@pytest.mark.parametrize("scale, route", [(1.0, "taylor"), (3.0, "taylor"), (60.0, "dense")])
def test_expm_actions_match_dense_per_time(expm_calls, scale, route):
    A = scale * jordan_block(6, -0.5 + 0.3j)
    v = np.arange(1, 7) + 1j * np.arange(6)[::-1]
    ts = np.array([0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
    reference = np.stack([scipy.linalg.expm(t * A) @ v for t in ts], axis=1)
    expm_calls.clear()
    got = _expm_actions(A, v, ts)
    # exp(0) v is v exactly; the dense route skips the zero time and takes
    # the others in one stacked call, bit for bit the per-time products.
    assert np.array_equal(got[:, 0], v)
    assert len(expm_calls) == (0 if route == "taylor" else 1)
    assert route == "taylor" or np.array_equal(got, reference)
    rel = np.linalg.norm(got - reference, axis=0) / np.linalg.norm(reference, axis=0)
    assert np.max(rel) <= 1e-13


def test_expm_actions_share_steps_across_unsorted_signed_times(expm_calls):
    # n = 64, nonnormal, with ||B||_1 max|t| beyond the largest theta_m, so
    # the Taylor route walks q >= 2 steps.  Times come unsorted, repeated and
    # zero; each is checked against its own dense exponential.  The grid rule
    # keeps every action time at or above 0, so a negative one is refused,
    # not walked.
    rng = rng_for(SEED, "taylor-steps")
    n = 64
    A = (complex_gaussian(rng, (n, n)) / math.sqrt(n) + np.diag(np.ones(n - 1), 1)
         - 0.5 * np.eye(n))
    v = complex_gaussian(rng, n)
    ts = np.array([0.7, 0.0, 3.0, 0.7, 1.9, 0.0, 2.99, 1.5])
    B = A - np.trace(A) / n * np.eye(n)
    assert np.linalg.norm(B, 1) * np.max(ts) > max(_TAYLOR_THETA.values())
    reference = np.stack([scipy.linalg.expm(t * A) @ v for t in ts], axis=1)
    expm_calls.clear()
    got = _expm_actions(A, v, ts)
    assert len(expm_calls) == 0
    assert np.array_equal(got[:, 1], v) and np.array_equal(got[:, 5], v)
    assert np.array_equal(got[:, 0], got[:, 3])
    rel = np.linalg.norm(got - reference, axis=0) / np.linalg.norm(reference, axis=0)
    assert np.max(rel) <= 1e-13
    with pytest.raises(ParameterError):
        _expm_actions(A, v, np.array([0.7, -0.2, 1.5]))


@pytest.mark.parametrize("A, route", [
    (800.0 * np.eye(2), "taylor"),  # zero norm once shifted by trace/n
    (np.diag([800.0, -800.0]), "dense"),
])
def test_expm_actions_overflow_raises(expm_calls, A, route):
    with pytest.raises(AccuracyError):
        _expm_actions(A, np.ones(2), np.array([0.0, 0.5, 1.0]))
    assert (len(expm_calls) > 0) == (route == "dense")


def test_solve_bvp_makes_one_dense_exponential(expm_calls):
    # Only the boundary system's I - e^{-2R} is dense; its right-hand sides
    # e^{Z2} u0 and e^{-Z1} u1, u(t) on the grid and the ODE check points
    # come from exponential actions.
    rng = rng_for(SEED, "three-expm")
    T, S = commuting_pencil_pair(rng, 32)
    u0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    u1 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    p = BvpProblem(T, S, u0, u1)
    sol = solve_bvp(p)
    assert len(expm_calls) == 1
    R = p.root.matrix
    z1, z2 = T + R, T - R
    dense = np.stack([
        expm(-(1 - t) * z1) @ sol.x0 + expm(t * z2) @ sol.x1 for t in sol.grid
    ])
    assert np.max(np.abs(sol.values - dense)) <= 1e-12 * (1 + np.max(np.abs(dense)))
    assert sol.ode_residual <= 1e-8


def test_solve_bvp_takes_each_norm_once(svd_calls):
    # ||T|| and ||S|| feed both the commutation tolerance and the residual
    # scale, the only two SVDs.  The root of the strictly accretive Upsilon
    # takes none: one Cholesky factorization certifies its rank and the
    # negative-axis test, and another excludes resonance, so sigma_min of
    # I - e^{-2R} is not taken.  The commutation test is decided from the
    # Frobenius norm of TR - RT, with no SVD; reading the reported
    # commutation_residual afterwards takes one.
    rng = rng_for(SEED, "three-svd")
    T, S = commuting_pencil_pair(rng, 8)
    p = BvpProblem(T, S, np.ones(8), np.zeros(8))
    svd_calls.clear()
    p.root
    assert svd_calls == []
    solve_bvp(p)
    assert len(svd_calls) == 2
    p.commutation_residual
    assert len(svd_calls) == 3


def _outcome(fn):
    """fn's result, or its error's class and message."""
    try:
        return fn()
    except (PreconditionError, ResonanceError) as exc:
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, bvp.BvpSolution):
        return all(_same(getattr(a, f), getattr(b, f))
                   for f in ("grid", "values", "x0", "x1", "boundary_residual", "ode_residual"))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    return a == b


def _certificates(monkeypatch, verdict=None):
    """Record each Cholesky certificate's verdict; with verdict given, force it."""
    seen = []
    exceeds = pencil._re_part_exceeds

    def spy(X, c):
        seen.append(exceeds(X, c) if verdict is None else verdict)
        return seen[-1]

    for mod in (pencil, bvp):
        monkeypatch.setattr(mod, "_re_part_exceeds", spy)
    return seen


def test_certificates_change_no_bit(monkeypatch):
    # The root's certificate (rank, norm and negative-axis test of Upsilon)
    # and the resonance certificate only skip SVDs: forced to fail, every
    # test takes its exact route and every root and solution is bit for bit
    # the same.  On sampled problems at n = 2, 8, 32, on the roots of 2^100
    # Upsilon, and on the planted-rank inputs of
    # test_pinv.py::test_planted_rank_is_one_decision, positive semidefinite
    # with the last singular value at rel * sigma_1.
    rng = rng_for(SEED, "certificates")
    problems = [(*commuting_pencil_pair(rng, n), complex_gaussian(rng, n), complex_gaussian(rng, n))
                for n in (2, 8, 32)]
    roots = [T @ T + S for T, S, _, _ in problems]
    roots += [2.0**100 * U for U in roots]
    for n in (2, 4, 8, 16, 64):
        for rel in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8):
            d = rng.uniform(0.5, 1.5, n)
            d[-1] = rel * d.max()
            U = random_unitary(rng, n)
            roots.append((U * d) @ U.conj().T)

    def run():
        return ([_outcome(lambda: accretive_sqrt(U.copy())) for U in roots]
                + [solve_bvp(BvpProblem(*data)) for data in problems])

    seen = _certificates(monkeypatch)
    fast = run()
    # The roots of Upsilon and 2^100 Upsilon come first: each is certified.
    assert all(seen[:2 * len(problems)]) and not all(seen)
    _certificates(monkeypatch, False)
    exact = run()
    assert all(_same(a, b) for a, b in zip(fast, exact))


def test_exact_routes_keep_their_verdicts(monkeypatch, svd_calls):
    # Upsilon with an indefinite real part, singular EP Upsilon, Upsilon with
    # an eigenvalue on the negative axis and a resonant problem: no
    # certificate holds, so each takes the exact route, an SVD of Upsilon or
    # of I - e^{-2R}, and gives what it gives with the certificates forced
    # to fail: a root, or the same refusal.
    rng = rng_for(SEED, "negative-axis-exact")
    V = np.linalg.qr(complex_gaussian(rng, (4, 4)))[0]
    theta = np.array([[2, 1, 0, 3], [0, -0.5, 1, 0], [0, 0, 1j + 1, 2], [0, 0, 0, 4]])
    negative = V @ theta @ V.conj().T
    resonant = (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.array([1.0, 1.0]), np.zeros(2))
    cases = [
        (lambda: accretive_sqrt(np.array([[1.0, 10.0], [0.0, 1.0]])), np.ndarray),
        (lambda: accretive_sqrt(np.diag([1.0, 2.0, 0.0])), np.ndarray),
        (lambda: accretive_sqrt(np.diag([-1.0, 1.0])), PreconditionError),
        (lambda: accretive_sqrt(negative), PreconditionError),
        (lambda: solve_bvp(BvpProblem(*resonant)), ResonanceError),
    ]
    for k, (case, kind) in enumerate(cases):
        seen = _certificates(monkeypatch)
        svd_calls.clear()
        got = _outcome(case)
        assert seen and not seen[-1] and svd_calls, k
        assert isinstance(got, kind) or got[0] is kind, k
        _certificates(monkeypatch, False)
        assert _same(got, _outcome(case)), k
    assert np.allclose(_outcome(cases[1][0]), np.diag([1.0, math.sqrt(2.0), 0.0]), rtol=0, atol=1e-14)


def test_chebyshev_grid_default():
    g = chebyshev_grid()
    assert len(g) == 65
    assert g[0] == 0.0 and g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(g) > 0)


def test_chebyshev_grid_refuses_a_non_integral_size():
    # int(2.5) would give a grid of 2 points; 2.5 itself a repeated point.
    for bad in (2.5, math.nan, math.inf, "65"):
        with pytest.raises(ParameterError):
            chebyshev_grid(bad)
    assert np.array_equal(chebyshev_grid(5.0), chebyshev_grid(np.int64(5)))


def test_problem_validation():
    with pytest.raises(ParameterError):
        BvpProblem(np.eye(2), np.eye(3), np.zeros(2), np.zeros(2))
    with pytest.raises(ParameterError):
        BvpProblem(np.eye(2), np.eye(2), np.zeros(3), np.zeros(2))


def test_zero_boundary_data():
    p = BvpProblem(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2))
    sol = solve_bvp(p)
    assert np.allclose(sol.values, 0)
    assert np.allclose(sol.x0, 0) and np.allclose(sol.x1, 0)
    assert sol.boundary_residual <= 1e-14


def test_scalar_sinh_witness():
    p = BvpProblem(np.zeros((1, 1)), np.eye(1), np.array([1.0]), np.array([0.0]))
    sol = solve_bvp(p)
    expected = sinh_solution(sol.grid)
    gap = np.max(np.abs(sol.values[:, 0] - expected))
    assert gap <= 1e-10
    # Same numbers through the two-exponential closed form.
    alt = (np.exp(-sol.grid) - np.exp(sol.grid - 2)) / (1 - math.exp(-2))
    assert np.max(np.abs(sol.values[:, 0] - alt)) <= 1e-12
    assert sol.boundary_residual <= 1e-9 * 2
    assert sol.ode_residual <= 1e-12


def test_diagonal_example_matches_mode_oracle():
    T = np.diag([1.0, 2.0])
    S = np.diag([3.0, 5.0])
    p = BvpProblem(T, S, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    sol = solve_bvp(p)
    for j in range(2):
        expected = scalar_mode_oracle(T[j, j], S[j, j], 1.0, 0.0, sol.grid)
        assert np.max(np.abs(sol.values[:, j] - expected)) <= 1e-10, f"mode {j}"


def test_grid_without_its_ends():
    # u(0) and u(1) are extra action times when the grid lacks them: the
    # values are written on the grid alone, and the boundary residual still
    # reads the ends.
    T = np.diag([1.0, 2.0])
    S = np.diag([3.0, 5.0])
    u0, u1 = np.array([1.0, -0.5j]), np.array([0.3, 2.0])
    grid = [0.25, 0.5, 0.75]
    sol = solve_bvp(BvpProblem(T, S, u0, u1), grid)
    assert np.array_equal(sol.grid, grid) and sol.values.shape == (3, 2)
    scale = 1 + np.linalg.norm(u0) + np.linalg.norm(u1)
    assert sol.boundary_residual <= 1e-14 * scale
    for j in range(2):
        expected = scalar_mode_oracle(T[j, j], S[j, j], u0[j], u1[j], grid)
        assert np.max(np.abs(sol.values[:, j] - expected)) <= 1e-12, f"mode {j}"


def test_boundary_residual_reads_the_written_ends():
    rng = rng_for(SEED, "written-ends")
    T, S = commuting_pencil_pair(rng, 6)
    p = BvpProblem(T, S, complex_gaussian(rng, 6), complex_gaussian(rng, 6))
    sol = solve_bvp(p)
    assert sol.boundary_residual == max(np.linalg.norm(sol.values[0] - p.u0),
                                        np.linalg.norm(sol.values[-1] - p.u1))


def _source_mutant(old, new):
    """solve_bvp with the one occurrence of old in its source replaced by new."""
    def make(monkeypatch):
        source = inspect.getsource(bvp.solve_bvp)
        assert source.count(old) == 1
        namespace = dict(vars(bvp))
        exec(compile(source.replace(old, new), bvp.__file__, "exec"), namespace)
        return namespace["solve_bvp"]
    return make


def _scaled_actions(monkeypatch):
    """solve_bvp with every exponential action scaled by 1.01."""
    actions = bvp._expm_actions
    monkeypatch.setattr(bvp, "_expm_actions", lambda A, v, ts: 1.01 * actions(A, v, ts))
    return bvp.solve_bvp


# Faults in the boundary route that the ODE residual cannot see, since its
# defect vanishes for a commuting pair whatever x0, x1 and the actions hold.
BOUNDARY_MUTANTS = {
    "swapped-coefficients": _source_mutant("x0, x1 = np.linalg.solve", "x1, x0 = np.linalg.solve"),
    "plus-z1-right-hand-side": _source_mutant("_expm_actions(-z1, p.u1", "_expm_actions(z1, p.u1"),
    "actions-times-1.01": _scaled_actions,
}


@pytest.mark.parametrize("mutant", sorted(BOUNDARY_MUTANTS))
def test_boundary_mutants_fail_the_boundary_residual_claim(monkeypatch, mutant):
    rng = rng_for(SEED, "boundary-mutants")
    T, S = commuting_pencil_pair(rng, 8)
    p = BvpProblem(T, S, complex_gaussian(rng, 8), complex_gaussian(rng, 8))
    status = {c["claim"]: c["status"] for c in selftest.bvp_claims(solve_bvp(p), p.u0, p.u1)}
    assert status == {"boundary-residual": "pass", "ode-residual": "pass"}
    solve = BOUNDARY_MUTANTS[mutant](monkeypatch)
    status = {c["claim"]: c["status"] for c in selftest.bvp_claims(solve(p), p.u0, p.u1)}
    assert status == {"boundary-residual": "fail", "ode-residual": "pass"}


def test_random_commuting_suite():
    rng = rng_for(SEED, "bvp-suite")
    for k in range(N_TRIALS):
        dim = int(rng.integers(2, 7))
        T, S = commuting_pencil_pair(rng, dim)
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p = BvpProblem(T, S, u0, u1)
        assert p.commutation_residual <= 1e-10
        sol = solve_bvp(p)
        scale = 1 + np.linalg.norm(u0) + np.linalg.norm(u1)
        assert sol.boundary_residual <= 1e-9 * scale, f"trial {k}"
        assert sol.ode_residual <= 1e-8, f"trial {k}"


def test_analytic_derivative_matches_finite_differences():
    # The ODE residual that solve_bvp reports differentiates u = x + y as
    # u' = Z1 x + Z2 y.  Central differences of the factor actions, step
    # 1e-4, check that derivative without the solver's algebra; the wrong
    # sign on Z1 fails the same check.
    rng = rng_for(SEED, "derivative-check")
    ts, h = np.linspace(0.05, 0.95, 7), 1e-4
    for k in range(5):
        dim = int(rng.integers(2, 7))
        T, S = commuting_pencil_pair(rng, dim)
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p = BvpProblem(T, S, u0, u1)
        sol = solve_bvp(p)
        R = p.root.matrix
        z1, z2 = T + R, T - R
        X, Y = _factor_actions(z1, z2, sol.x0, sol.x1, np.concatenate([ts + h, ts - h, ts]))
        U = X + Y
        fd = (U[:, :7] - U[:, 7:14]) / (2 * h)
        scale = (1 + 2 * np.linalg.norm(T, 2) + np.linalg.norm(S, 2)) * (
            1 + np.linalg.norm(sol.x0) + np.linalg.norm(sol.x1))
        du = z1 @ X[:, 14:] + z2 @ Y[:, 14:]
        assert np.max(np.linalg.norm(du - fd, axis=0)) <= 1e-6 * scale, f"trial {k}"
        flipped = -z1 @ X[:, 14:] + z2 @ Y[:, 14:]
        assert np.max(np.linalg.norm(flipped - fd, axis=0)) > 1e-6 * scale, f"trial {k}"


def test_superposition():
    rng = rng_for(SEED, "superposition")
    T, S = commuting_pencil_pair(rng, 4)
    data = [
        (rng.standard_normal(4) + 1j * rng.standard_normal(4),
         rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(2)
    ]
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    sols = [solve_bvp(BvpProblem(T, S, u0, u1)) for u0, u1 in data]
    combo = solve_bvp(BvpProblem(
        T, S,
        a * data[0][0] + b * data[1][0],
        a * data[0][1] + b * data[1][1],
    ))
    direct = a * sols[0].values + b * sols[1].values
    assert np.max(np.abs(combo.values - direct)) <= 1e-10


def test_exponential_consistency():
    rng = rng_for(SEED, "exp-consistency")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(2, 6))
        T, S = commuting_pencil_pair(rng, dim)
        p = BvpProblem(T, S, np.zeros(dim), np.zeros(dim))
        R = p.root.matrix
        lhs = expm(-2 * R)
        rhs = expm(-(T + R)) @ expm(T - R)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9


def test_resonance_detection():
    # Singular Upsilon gives a zero eigenvalue of R; I - e^{-2R} drops rank.
    p = BvpProblem(np.diag([1.0, 0.0]), np.zeros((2, 2)),
                   np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ResonanceError):
        solve_bvp(p)


def test_commutation_gate():
    T = np.array([[1.0, 1.0], [0.0, 1.0]])
    S = np.array([[1.0, 0.0], [1.0, 1.0]])
    p = BvpProblem(T, S, np.ones(2), np.zeros(2))
    assert p.commutation_residual > 1e-3
    with pytest.raises(HypothesisError):
        solve_bvp(p)


def test_grid_validation():
    p = BvpProblem(np.eye(1), np.eye(1), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ParameterError):
        solve_bvp(p, grid=[0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ParameterError):
        solve_bvp(p, grid=[-0.1, 0.5, 1.0])
    # NaN fails every comparison, so the grid is checked before any solve.
    for grid in ([0.0, math.nan, 1.0], [0.0, 0.5, math.inf]):
        with pytest.raises(ParameterError):
            solve_bvp(p, grid=grid)


def test_problem_roots_upsilon_from_one_schur_form(root_kernels):
    # Construction only validates; the first read of the commutation residual
    # roots Upsilon.  The negative-axis test reads the Schur diagonal, so
    # Upsilon is factored once; sqrtm sees only the triangular factor (the
    # fixture checks that).
    T, S = commuting_pencil_pair(rng_for(SEED, "one-schur"), 6)
    p = BvpProblem(T, S, np.ones(6), np.zeros(6))
    assert root_kernels == {"schur": 0, "sqrtm": 0, "eigvals": 0}
    p.commutation_residual
    assert root_kernels == {"schur": 1, "sqrtm": 1, "eigvals": 0}


def test_factorize_and_solve_share_the_problems_root(root_kernels):
    # A problem is its pencil: factorize and solve_bvp read the one root the
    # first of them took, so Upsilon is factored and rooted once in all.
    T, S = commuting_pencil_pair(rng_for(SEED, "shared-root"), 4)
    problem = BvpProblem(T, S, np.ones(4), np.zeros(4))
    f = factorize(problem)
    solve_bvp(problem)
    assert (root_kernels["schur"], root_kernels["sqrtm"]) == (1, 1)
    assert f.root is problem.root
    with pytest.raises(TypeError):
        BvpProblem(T, S, np.ones(4), np.zeros(4), commutation_residual=0.0)


def test_live_problem_keeps_upsilon_as_a_matrix_and_one_root():
    # After factorize and solve_bvp, a live problem holds Upsilon as a
    # read-only matrix and its root, not Upsilon's Schur form, singular
    # values, Cartesian parts or eigh(Re Upsilon).  The given operators T and
    # S, with what they cache, exist before tracing starts; at n = 128 each
    # n x n complex matrix is 256 KiB.
    rng = rng_for(SEED, "retained")
    warm = BvpProblem(np.eye(4), np.eye(4), np.ones(4), np.zeros(4))
    factorize(warm)
    solve_bvp(warm)
    T, S = (as_operator(M) for M in commuting_pencil_pair(rng, 128))
    u0, u1 = complex_gaussian(rng, 128), complex_gaussian(rng, 128)
    gc.collect()
    tracemalloc.start()
    try:
        p = BvpProblem(T, S, u0, u1)
        factorize(p)
        solve_bvp(p)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 2.5 * 2**20, f"{retained / 2**20:.2f} MiB retained"
    assert type(p.upsilon) is np.ndarray and not p.upsilon.flags.writeable


def test_fd_oracle_sinh():
    p = BvpProblem(np.zeros((1, 1)), np.eye(1), np.array([1.0]), np.array([0.0]))
    fd = fd_oracle(p, 2000)
    assert fd.oracle_gap <= 1e-5
    expected = sinh_solution(fd.grid)
    assert np.max(np.abs(fd.values[:, 0] - expected)) <= 1e-5


def test_fd_oracle_zero_data_and_validation():
    p = BvpProblem(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2))
    fd = fd_oracle(p, 64)
    assert np.allclose(fd.values, 0)
    with pytest.raises(ParameterError):
        fd_oracle(p, 8)
    # A 0x0 problem has the trivial solution that solve_bvp returns, at gap 0.
    empty = BvpProblem(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    fd = fd_oracle(empty, 16)
    exact = solve_bvp(empty, fd.grid)
    assert fd.values.shape == exact.values.shape == (17, 0)
    assert np.array_equal(fd.grid, np.linspace(0.0, 1.0, 17))
    assert (fd.oracle_gap, fd.ode_residual, fd.boundary_residual) == (0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        fd_oracle(empty, 8)


def test_fd_oracle_diagonal_example():
    T = np.diag([1.0, 2.0])
    S = np.diag([3.0, 5.0])
    p = BvpProblem(T, S, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    fd = fd_oracle(p, 4000)
    for j in range(2):
        expected = scalar_mode_oracle(T[j, j], S[j, j], 1.0, 0.0, fd.grid)
        assert np.max(np.abs(fd.values[:, j] - expected)) <= 1e-5, f"mode {j}"


def test_fd_oracle_matches_the_dense_block_system():
    # The banded solve and the block-by-block residual against the dense
    # block-tridiagonal system, on a non-diagonal commuting pair: any entry
    # misplaced in band storage shows here.
    rng = rng_for(SEED, "fd-dense")
    n, n_points = 3, 24
    T, S = commuting_pencil_pair(rng, n)
    p = BvpProblem(T, S, complex_gaussian(rng, n), complex_gaussian(rng, n))
    fd = fd_oracle(p, n_points)
    m, h = n_points - 1, 1.0 / n_points
    lower = np.eye(n) / h**2 + p.T.matrix / h
    diag = -2 * np.eye(n) / h**2 - p.S.matrix
    upper = np.eye(n) / h**2 - p.T.matrix / h
    A = np.kron(np.eye(m), diag) + np.kron(np.eye(m, k=-1), lower) + np.kron(np.eye(m, k=1), upper)
    rhs = np.zeros(m * n, dtype=complex)
    rhs[:n] = -(lower @ p.u0)
    rhs[-n:] = -(upper @ p.u1)
    dense = np.linalg.solve(A, rhs).reshape(m, n)
    assert np.max(np.abs(fd.values[1:-1] - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert fd.ode_residual <= 1e-14


def test_fd_convergence_rate():
    p = BvpProblem(np.zeros((1, 1)), np.eye(1), np.array([1.0]), np.array([0.0]))
    gaps = [fd_oracle(p, n).oracle_gap for n in (128, 256, 512)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5
