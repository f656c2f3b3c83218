"""Numerical range, accretivity, and sectorial-angle certification."""

from collections import Counter
import gc
import math
import os
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from accretive import linops, pencil, pinv, selftest
from accretive.bvp import BvpProblem, solve_bvp
from accretive.errors import AccuracyError, DimensionError, PreconditionError
from accretive.linops import (
    accretivity_report,
    as_operator,
    cartesian_parts,
    hermitian_sqrt,
    kato_representation,
    numerical_range_boundary,
    support_excess,
)
from accretive.sampling import (
    accretive_operator,
    commuting_pencil_pair,
    hermitian,
    pencil_pair,
    positive_definite,
    random_operator,
    random_unitary,
    rng_for,
    singular_accretive_operator,
)

SEED = 20260814
N_TRIALS = 40
DIMS = (1, 2, 3, 5, 8, 13)


def rayleigh_radius_oracle(T, rng, n_starts=32, n_iter=500):
    """Ascent oracle for the numerical radius, independent of the grid method.

    From random unit vectors, alternate a phase update phi = arg(x^H T x)
    with one shifted power step on Re(e^{-i phi} T) + ||T|| I.  Each sweep is
    nondecreasing in |x^H T x|, every iterate stays inside W(T), so the result
    lower-bounds w(T) and converges to it from multiple starts.
    """
    dim = T.shape[0]
    shift = np.linalg.norm(T, 2)
    X = rng.standard_normal((dim, n_starts)) + 1j * rng.standard_normal((dim, n_starts))
    X /= np.linalg.norm(X, axis=0, keepdims=True)
    Th = T.conj().T
    for _ in range(n_iter):
        vals = np.einsum("ik,ij,jk->k", X.conj(), T, X)
        phase = np.exp(-1j * np.angle(vals))
        Y = 0.5 * (phase * (T @ X) + phase.conj() * (Th @ X)) + shift * X
        X = Y / np.linalg.norm(Y, axis=0, keepdims=True)
    vals = np.einsum("ik,ij,jk->k", X.conj(), T, X)
    return float(np.max(np.abs(vals)))


def rayleigh_points_oracle(T, rng, n_samples=2000):
    """Random Rayleigh points, all inside W(T) by definition."""
    dim = T.shape[0]
    X = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return np.einsum("ki,ij,kj->k", X.conj(), T, X)


# Frozen witnesses.  The 2x2 nilpotent Jordan block has numerical range equal
# to the closed disk of radius 1/2 at the origin, so w = 0.5 exactly.  The
# rotation witness [[1,1],[-1,1]] has Re = I (delta = 1), Hermitian tangent of
# norm 1 (omega = pi/4), ||T|| = sqrt(2), and eigenvalues 1 +- i.
JORDAN2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ROT_WITNESS = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
W_JORDAN2 = 0.5
OMEGA_ROT = math.pi / 4
BOUND_RHS_ROT = 1.0
NORM_ROT = math.sqrt(2.0)


def test_numerical_radius_jordan_block_frozen():
    w = as_operator(JORDAN2).radius_bracket[0]
    assert abs(w - W_JORDAN2) < 1e-12, f"w(J2) = {w}, expected {W_JORDAN2}"
    oracle = rayleigh_radius_oracle(JORDAN2, rng_for(SEED, "jordan-oracle"))
    assert oracle <= w + 1e-12
    assert w - oracle < 1e-9, "ascent oracle should attain the disk radius"


def test_rotation_witness_report_frozen():
    rep = accretivity_report(ROT_WITNESS)
    assert rep.is_accretive and rep.sectorial
    assert abs(rep.delta - 1.0) < 1e-12
    assert abs(rep.omega - OMEGA_ROT) < 1e-10
    assert abs(rep.bound_rhs - BOUND_RHS_ROT) < 1e-10
    assert abs(rep.operator_norm - NORM_ROT) < 1e-12
    assert abs(rep.spectral_radius - NORM_ROT) < 1e-12
    assert abs(rep.numerical_radius - NORM_ROT) < 1e-9
    assert abs(rep.lambda0_modulus - 1.0) < 1e-10
    assert rep.status == "strongly accretive"


def test_accretive_not_sectorial_witness():
    # diag(1, i) is accretive, but range(T) is not contained in range(Re T):
    # the angle cannot be certified below pi/2.
    T = np.diag([1.0, 1j])
    rep = accretivity_report(T)
    assert rep.is_accretive
    assert not rep.sectorial
    assert rep.omega == pytest.approx(math.pi / 2)
    assert "range condition" in rep.status


def test_singular_real_part_sectorial_witness():
    # diag(1+i, 0): kernel shared with the real part, range block is the
    # scalar 1+i, so the tangent is 1 and omega = pi/4.
    T = np.diag([1.0 + 1.0j, 0.0])
    rep = accretivity_report(T)
    assert rep.is_accretive and rep.sectorial
    assert rep.omega == pytest.approx(math.pi / 4, abs=1e-10)
    assert rep.status == "accretive, singular real part"


def test_not_accretive_status():
    rep = accretivity_report(np.diag([-1.0, 2.0]))
    assert not rep.is_accretive
    assert rep.omega is None
    assert rep.bound_rhs is None
    assert rep.status == "not accretive"


def test_positive_hermitian_has_zero_angle():
    rng = rng_for(SEED, "psd-angle")
    inputs = [positive_definite(rng, dim) for dim in DIMS] + [np.diag([1.0, 2.0])]
    for H in inputs:
        rep = accretivity_report(H)
        assert rep.sectorial
        assert rep.omega <= 1e-8
        # A zero tangent matrix gives +0.0, never -0.0, in reports.
        assert math.copysign(1.0, rep.omega) == 1.0


def test_numerical_radius_matches_rayleigh_oracle():
    rng = rng_for(SEED, "radius-oracle")
    for k in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 9))
        T = random_operator(rng, dim)
        w = as_operator(T).radius_bracket[0]
        oracle = rayleigh_radius_oracle(T, rng)
        scale = max(1.0, w)
        assert oracle <= w + 1e-10 * scale, f"trial {k}: oracle exceeded rotation value"
        assert w - oracle <= 1e-6 * scale, f"trial {k}: ascent oracle fell short of w"


def test_radius_bracket_holds_the_rayleigh_oracle():
    # The ascent oracle lower-bounds w(T) with points of W(T), so it may not
    # pass the polygon's upper end; on random input, whose W(T) is no disk,
    # the refinement closes the bracket to its relative width of 1e-10.
    rng = rng_for(SEED, "radius-bracket")
    for k in range(N_TRIALS // 2):
        dim = int(rng.integers(2, 17))
        T = random_operator(rng, dim) if k % 2 else accretive_operator(rng, dim)
        lo, hi = as_operator(T).radius_bracket
        assert rayleigh_radius_oracle(T, rng) <= hi * (1 + 1e-12), f"trial {k}"
        assert lo <= hi and hi - lo <= linops._RADIUS_RTOL * hi, f"trial {k}"


def test_radius_bracket_of_the_jordan_disk(stacked_solves):
    # W(J_n) is the disk |z| <= cos(pi/(n + 1)): every support value is that
    # radius, so w_lo is the radius to rounding and every vertex lies above
    # it.  Bisection lowers the vertices only as (arc width)^2, so it stops
    # at its solve cap, and the level-set test certifies w_hi = w_lo(1 + 1e-10):
    # a bracket at most 1e-10 wide that holds w.  Each solve is one order-n
    # tridiagonalization of the polygon's own kernel.
    for n in (2, 5, 32):
        linops._shared_operator.cache_clear()
        stacked_solves.update(eigh=0, eigvalsh=0, zhetrd=0, zhetrd_orders=Counter())
        w = math.cos(math.pi / (n + 1))
        lo, hi = as_operator(np.eye(n, k=1)).radius_bracket
        assert abs(lo - w) <= 4 * n * np.finfo(float).eps * w, n
        assert hi == lo * (1 + linops._RADIUS_RTOL) and w <= hi and hi - lo <= 1e-10, n
        count = 4 + linops._RADIUS_SOLVES
        assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": count,
                                  "zhetrd_orders": {n: count}}, n


def test_level_set_certificate_can_refuse(monkeypatch):
    # Just below w the level set {theta : H(theta) has eigenvalue r} is not
    # empty on a Gaussian input: its unimodular eigenvalues are found, so no
    # upper end is certified there, while just above w none lies near the
    # circle.  With no refinement past the seed, w_lo of the complex inputs
    # lies far below w (a real input can attain w at a seed angle, 0 or pi),
    # and one level-set test keeps the seed polygon's upper end.  Iterated,
    # the test raises w_lo at the midpoints of the level-set arcs it finds,
    # and closes the seed polygon's bracket within its rounds.  The Jordan
    # disks have no unimodular eigenvalue at any r off the spectrum of
    # Re(J_n), since their H(theta) all share one spectrum: their
    # certificate rests on r exceeding the attained support values as well.
    rng = rng_for(SEED, "level-set")
    gap = linops._UNIT_CIRCLE_GAP
    inputs = [random_operator(rng, n) for n in (2, 5, 32)]
    inputs += [rng.standard_normal((n, n)) + 0j for n in (2, 5, 32)]
    brackets = []
    for k, T in enumerate(inputs):
        lo, hi = as_operator(T).radius_bracket
        brackets.append((lo, hi))
        assert linops._level_set(T, lo * (1 - 1e-10))[0] <= gap, k
        assert linops._level_set(T, lo * (1 + 1e-10))[0] > gap, k
    for n in (2, 5, 32):
        J = np.eye(n, k=1).astype(complex)
        assert linops._level_set(J, math.cos(math.pi / (n + 1)) * (1 + 1e-10))[0] > gap, n
    monkeypatch.setattr(linops, "_RADIUS_SOLVES", 0)
    for k, (T, (lo, hi)) in enumerate(zip(inputs, brackets)):
        seed_lo, seed_hi = linops.Operator(T).radius_bracket
        assert seed_lo <= hi and lo <= seed_hi, k
        assert seed_hi - seed_lo <= linops._RADIUS_RTOL * seed_hi * (1 + 1e-6), k
    monkeypatch.setattr(linops, "_LEVEL_SET_ROUNDS", 1)
    for k, (T, (lo, _)) in enumerate(zip(inputs[:3], brackets)):
        seed_lo, seed_hi = linops.Operator(T).radius_bracket
        assert seed_lo < lo * (1 - 1e-6) and seed_hi >= lo, k


def test_level_set_iteration_closes_a_flat_real_bracket(monkeypatch):
    # A real 2x2 Gaussian whose W(T) boundary runs near the circle |z| = w(T)
    # on both sides of the real axis: the polygon spends all its solves and
    # stays 9.2e-9 wide, and one level-set test at w_lo (1 + 1e-10) finds
    # unimodular eigenvalues.  Solving at the midpoints of the level-set arcs
    # they bound raises w_lo, and the second test certifies the upper end.
    T = np.array([[-0.2193284040415566, -0.28135739120693926],
                  [0.5533489476856183, -0.6339906002528877]])
    rounds = []
    level_set = linops._level_set
    monkeypatch.setattr(linops, "_level_set", lambda A, r: rounds.append(r) or level_set(A, r))
    op = linops.Operator(T.astype(complex))
    s, (polygon_lo, polygon_hi, closed) = op._unit, op._polygon[3]
    lo, hi = op.radius_bracket
    assert not closed and polygon_hi - polygon_lo > 1e-9 * polygon_hi
    assert len(rounds) == 2 and polygon_lo * s < lo and hi < polygon_hi * s
    assert hi - lo <= linops._RADIUS_RTOL * hi and hi == rounds[-1] * s
    assert rayleigh_radius_oracle(T, rng_for(SEED, "flat-real")) <= hi * (1 + 1e-12)


def test_bisection_never_inserts_an_angle_twice(monkeypatch):
    # With _arc_vertex giving the first arc the one far vertex, at a
    # direction outside every arc, the loop halves that arc until its
    # midpoint, or that of the opposite arc, rounds to an end of it; it then
    # stops, with every angle distinct, where a repeated angle would divide
    # by sin(0) in _arc_vertex.
    calls = []

    def first_arc(theta, h, i):
        calls.append(i)
        return (1e300 if i == 0 else 0.0), -1.0

    monkeypatch.setattr(linops, "_arc_vertex", first_arc)
    monkeypatch.setattr(linops, "_RADIUS_SOLVES", 200)
    op = linops.Operator(random_operator(rng_for(SEED, "bisect-floor"), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = op._polygon[0]
    m = len(theta) // 2
    seed = 2 * len(linops._SEED_ANGLES)
    assert seed < len(theta) < seed + 2 * 200
    assert np.all(np.diff(theta) > 0) and np.array_equal(theta[m:], theta[:m] + np.pi)
    assert calls and not op._polygon[3][2]


def _full_radius_ends(theta, h, points):
    """(w_lo, w_hi, closed) of a polygon recomputed from every arc and point
    at once, with the loop's own vertex and modulus arithmetic."""
    theta, h = theta.tolist(), h.tolist()
    top = max(linops._arc_vertex(theta, h, i)[0] for i in range(len(theta)))
    lo = max(max(map(abs, points.tolist())), max(h))
    hi = max(top, lo)
    return lo, hi, hi - lo <= linops._RADIUS_RTOL * hi


def test_refinement_ends_match_a_full_recomputation():
    # The loop recomputes only the four vertices of the arcs each solve
    # splits and raises w_lo by the new values alone; its last (lo, hi,
    # closed) must be bit-identical to a recomputation over the whole
    # returned polygon, and 2^100 T must give the same angles and ends in
    # units of s.
    rng = rng_for(SEED, "incremental-ends")
    draws = [T for n in (2, 8, 32) for T in (
        random_operator(rng, n), accretive_operator(rng, n), singular_accretive_operator(rng, n, n // 2),
    )]
    for k, T in enumerate(draws):
        op, big = linops.Operator(T), linops.Operator(2.0**100 * T)
        theta, h, points, ends = op._polygon
        assert ends == _full_radius_ends(theta, h, points), k
        assert np.array_equal(big._polygon[0], theta) and big._polygon[3] == ends, k


def test_refinement_solve_counts(monkeypatch):
    # Mean solves past the 4 seed solves on 20 draws each at n = 32.  The
    # midpoint bisection that the farthest-vertex cut replaced took 15.5
    # (accretive_operator), 14.35 (singular_accretive_operator, rank n/2)
    # and 25.85 (random_operator); the cut takes 8.35, 7.05 and 21.6.  On
    # neither did the level-set test run on any draw.
    level_sets = []
    level_set = linops._level_set
    monkeypatch.setattr(linops, "_level_set", lambda A, r: level_sets.append(r) or level_set(A, r))
    generators = {
        "accretive_operator": accretive_operator,
        "singular_accretive_operator": lambda rng, n: singular_accretive_operator(rng, n, n // 2),
        "random_operator": random_operator,
    }
    means = {}
    for name, gen in generators.items():
        rng = rng_for(7, f"solves/{name}")
        solves = []
        for _ in range(20):
            op = linops.Operator(gen(rng, 32))
            lo, hi = op.radius_bracket
            assert hi - lo <= linops._RADIUS_RTOL * hi, name
            solves.append(len(op._polygon[0]) // 2 - len(linops._SEED_ANGLES))
        means[name] = sum(solves) / len(solves)
    assert means["accretive_operator"] <= 10 and means["singular_accretive_operator"] <= 10, means
    assert not level_sets, means
    # Nor does any of the 100 analyze benchmark inputs of seeds 1-5.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    for seed in range(1, 6):
        for k, item in enumerate(workloads.analyze_items(seed)):
            lo, hi = linops.Operator(item["T"]).radius_bracket
            assert hi - lo <= linops._RADIUS_RTOL * hi, (seed, k)
    assert not level_sets, level_sets


def test_norm_chain():
    # r(T) <= w(T) <= ||T|| <= 2 w(T), all within the stated slack.
    rng = rng_for(SEED, "norm-chain")
    tol = 1e-8
    for k in range(N_TRIALS):
        dim = int(rng.integers(1, 11))
        T = random_operator(rng, dim)
        rep = accretivity_report(T)
        r, w, nrm = rep.spectral_radius, rep.numerical_radius, rep.operator_norm
        assert r <= w + tol * max(1.0, nrm), f"trial {k}"
        assert w <= nrm + tol * max(1.0, nrm), f"trial {k}"
        assert nrm <= 2 * w + tol * max(1.0, nrm), f"trial {k}"


def test_chain_extremes_jordan_block():
    rep = accretivity_report(JORDAN2)
    assert rep.spectral_radius == pytest.approx(0.0, abs=1e-12)
    assert rep.operator_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.operator_norm == pytest.approx(2 * rep.numerical_radius, abs=1e-10)


def test_spectral_inclusion_random():
    rng = rng_for(SEED, "spec-inclusion")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 13))
        T = random_operator(rng, dim)
        excess = support_excess(T, np.linalg.eigvals(T))
        assert np.all(excess <= 1e-8 * max(1.0, np.linalg.norm(T, 2)))


def test_rayleigh_points_respect_support_planes():
    # Inner points (random Rayleigh quotients, and boundary points at the
    # angles midway between adjacent polygon angles) must not cross any of
    # the polygon's support lines.
    rng = rng_for(SEED, "hull-consistency")
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        T = random_operator(rng, dim)
        scale = max(1.0, np.linalg.norm(T, 2))
        inner = rayleigh_points_oracle(T, rng)
        excess = support_excess(T, inner)
        assert np.max(excess) <= 1e-10 * scale
        theta = as_operator(T)._polygon[0]
        off_grid = _sweep_oracle(T, (theta + np.append(theta[1:], 2 * np.pi)) / 2)[1]
        assert np.max(support_excess(T, off_grid)) <= 1e-10 * scale


def _sweep_oracle(T, angles):
    """Per-angle eigh of Re(e^{-i theta} T): the support values and the
    boundary Rayleigh points attaining them."""
    support = np.full(len(angles), -np.inf)
    points = np.zeros(len(angles), complex)
    for k, theta in enumerate(angles):
        rot = np.exp(-1j * theta) * T
        if T.shape[0]:
            vals, vecs = np.linalg.eigh((rot + rot.conj().T) / 2)
            support[k], points[k] = vals[-1], vecs[:, -1].conj() @ T @ vecs[:, -1]
    return support, points


def test_sweep_matches_per_angle_oracle():
    # The polygon's half-turn solves against an independent per-angle
    # full-turn eigh at its own angles: the 8 uniform seed angles and the
    # bisected ones, ascending and distinct, a first half-turn and the same
    # angles plus pi.
    seed = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    rng = rng_for(SEED, "sweep-oracle")
    inputs = [random_operator(rng, dim) for dim in (0, 1, 2, 5, 13, 32)] + [JORDAN2]
    for T in inputs:
        tol = 1e-13 * max(1.0, np.linalg.norm(T, 2) if T.size else 0.0)
        op = as_operator(T)
        angles = op._polygon[0]
        m = len(angles) // 2
        assert np.isin(seed, angles).all()
        assert np.all(np.diff(angles) > 0) and 0 <= angles[0] and angles[-1] < 2 * np.pi
        assert np.array_equal(angles[m:], angles[:m] + np.pi)
        if T.shape[0] == 0:
            assert np.all(op.support == -np.inf) and op.points.size == 0
            continue
        support = _sweep_oracle(T, angles)[0]
        assert np.max(np.abs(op.support - support)) <= tol
        attained = np.real(np.exp(-1j * angles) * op.points)
        assert np.max(np.abs(attained - support)) <= tol


def _end_pair_inputs(n, rng):
    """Stacks of Hermitian matrices: random, diagonal, a multiple of I, and
    at n = 2 the Cartesian parts of the Jordan block."""
    stacks = {
        "random": np.stack([hermitian(rng, n) for _ in range(5)]),
        # A tridiagonal that is split already.
        "diagonal": np.stack([np.diag(rng.standard_normal(n)).astype(complex) for _ in range(3)]),
        # Both end eigenvalues repeated n times.
        "scalar": np.stack([c * np.eye(n, dtype=complex) for c in (-2.5, 0.0, 3.0)]),
    }
    if n == 2:
        parts = cartesian_parts(JORDAN2)
        stacks["jordan"] = np.stack([parts.re_part, parts.im_part])
    return stacks


@pytest.mark.parametrize("n", [1, 2, 3, 32, 65, 128])
def test_end_eigenpairs_match_eigh(n):
    # The polygon's kernel against numpy's full eigh: the same end
    # eigenvalues, residuals and unit norms at rounding level.  Each matrix
    # is passed as the real part at theta = 0 with a zero imaginary part, so
    # the kernel builds it exactly.  n = 65 and 128 check the zunmqr
    # back-transform past LAPACK's block size of 32.
    eps = np.finfo(float).eps
    for name, H in _end_pair_inputs(n, rng_for(SEED, f"end-pairs-{n}")).items():
        ref = np.linalg.eigvalsh(H)
        for j, M in enumerate(H):
            vals, vecs = linops._end_eigenpairs(M, np.zeros_like(M), np.zeros(1))
            scale = 8 * n * eps * max(np.linalg.norm(M, 2), np.finfo(float).tiny)
            assert np.abs(vals[0] - ref[j, [0, -1]]).max() <= scale, (name, j)
            for lam, x in zip(vals[0], vecs[0]):
                assert np.linalg.norm(M @ x - lam * x) <= scale, (name, j)
                assert abs(np.linalg.norm(x) - 1) <= 8 * n * eps, (name, j)


@pytest.mark.parametrize("n", [1, 2, 13, 65])
def test_end_eigenpairs_off_the_grid(n):
    # At angles off the seed angles, the kernel's end eigenpairs of the
    # matrices it builds itself match numpy's eigh of
    # cos(theta) Re T + sin(theta) Im T at rounding level, and it leaves the
    # Cartesian parts as they were.
    eps = np.finfo(float).eps
    parts = cartesian_parts(random_operator(rng_for(SEED, f"end-pairs-off-grid-{n}"), n))
    re_part, im_part = parts.re_part.copy(), parts.im_part.copy()
    theta = np.array([0.1, 1.0, 2.5, 3.0, 4.4, 6.2])
    vals, vecs = linops._end_eigenpairs(parts.re_part, parts.im_part, theta)
    assert np.array_equal(parts.re_part, re_part) and np.array_equal(parts.im_part, im_part)
    for j, t in enumerate(theta):
        M = math.cos(t) * re_part + math.sin(t) * im_part
        ref_vals, ref_vecs = np.linalg.eigh(M)
        scale = 8 * n * eps * max(np.linalg.norm(M, 2), np.finfo(float).tiny)
        assert np.abs(vals[j] - ref_vals[[0, -1]]).max() <= scale, j
        for lam, x, y in zip(vals[j], vecs[j], ref_vecs[:, [0, -1]].T):
            assert np.linalg.norm(M @ x - lam * x) <= scale, j
            # The end eigenvalues of a random matrix are simple: the vectors
            # agree up to a unimodular factor.
            assert abs(abs(np.vdot(y, x)) - 1) <= 8 * n * eps, j


@pytest.mark.parametrize("routine, refined", [
    ("zhetrd", False), ("dstemr", False), ("zunmqr", False), ("zhetrd", True),
], ids=["zhetrd", "dstemr", "zunmqr", "zhetrd-refined"])
def test_sweep_raises_on_lapack_failure(routine, refined, monkeypatch):
    # A nonzero LAPACK status names the routine and the angle it was solving:
    # here the third seed angle, whose zhetrd and zunmqr calls are the third
    # and whose first dstemr call is the fifth, or the first angle that the
    # w(T) refinement adds, whose zhetrd call follows the 4 seed solves.
    from scipy.linalg import lapack

    T = random_operator(rng_for(SEED, "lapack-info"), 4)
    theta = float(linops._SEED_ANGLES[2])
    if refined:
        added = []
        solve = linops._end_eigenpairs
        monkeypatch.setattr(
            linops, "_end_eigenpairs", lambda a, b, t: added.append(t) or solve(a, b, t)
        )
        as_operator(T).radius_bracket
        linops._shared_operator.cache_clear()
        assert len(added) > 1
        theta = float(added[1][0])
    fail_at = {"zhetrd": 5 if refined else 3, "dstemr": 5, "zunmqr": 3}[routine]
    calls = []

    def failing(*args, _fn=getattr(lapack, routine), **kwargs):
        out = _fn(*args, **kwargs)
        calls.append(None)
        return out[:-1] + (1,) if len(calls) == fail_at else out

    monkeypatch.setattr(lapack, routine, failing)
    op = as_operator(T)
    with pytest.raises(AccuracyError, match=rf"{routine} .*theta = {re.escape(repr(theta))}$"):
        op.radius_bracket


def _assert_polygons_only(record, order, *polygons):
    """Assert a stacked_solves record of the given W(T) polygons alone: one
    tridiagonalization per solve, a polygon of 2m angles taking m solves, 4
    seed solves and at most _RADIUS_SOLVES more, all of the given order, and
    no stacked eigh or eigvalsh.  A second solve of any polygon adds at least
    4 to the exact count, so it shows."""
    solves = [len(angles) // 2 for angles in polygons]
    assert all(4 <= m <= 4 + linops._RADIUS_SOLVES for m in solves), solves
    count = sum(solves)
    assert record == {"eigh": 0, "eigvalsh": 0, "zhetrd": count, "zhetrd_orders": {order: count}}


def test_sweep_solves_each_grid_once_for_its_readers(stacked_solves):
    # w(T), support excess and the accretivity report read support values
    # only, yet solve the one polygon that also gives the points, so a
    # cached field never depends on which read came first.  Alone, each call
    # solves the polygon once, one tridiagonalization per solved angle of
    # the half-turn; in sequence on one matrix content the three share it.
    T = random_operator(rng_for(SEED, "sweep-lazy"), 6)
    calls = (
        lambda: as_operator(T).radius_bracket[0],
        lambda: support_excess(T.copy(), np.linalg.eigvals(T)),
        lambda: accretivity_report(T.copy()),
    )
    for call in calls:
        linops._shared_operator.cache_clear()
        stacked_solves.update(eigh=0, eigvalsh=0, zhetrd=0, zhetrd_orders=Counter())
        call()
        _assert_polygons_only(stacked_solves, 6, as_operator(T)._polygon[0])
    linops._shared_operator.cache_clear()
    stacked_solves.update(eigh=0, eigvalsh=0, zhetrd=0, zhetrd_orders=Counter())
    for call in calls:
        call()
    _assert_polygons_only(stacked_solves, 6, as_operator(T)._polygon[0])


def test_analyze_sequence_on_one_array_sweeps_once(stacked_solves):
    # The report, the boundary and two support-excess checks, each handed the
    # same raw array, share one polygon that gives the support values and the
    # boundary points.
    T = random_operator(rng_for(SEED, "analyze-sequence"), 6)
    accretivity_report(T)
    pts = numerical_range_boundary(T)
    support_excess(T, pts)
    support_excess(T, np.linalg.eigvals(T))
    _assert_polygons_only(stacked_solves, 6, as_operator(T)._polygon[0])


def _stacked_support(T, angles):
    """h(theta) of T at the given angles from one stacked numpy eigvalsh."""
    rot = np.exp(-1j * angles)[:, None, None] * T
    return np.linalg.eigvalsh((rot + rot.conj().transpose(0, 2, 1)) / 2)[:, -1]


def _vertex_max(angles, h):
    """Largest |vertex| of the support lines of adjacent angles: w(T) <= it."""
    step = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    nxt = np.roll(h, -1)
    return float(np.max(np.hypot(h, (nxt - h * np.cos(step)) / np.sin(step))))


def _planted_ep(rng, n, rank, accretive):
    """Q M Q* for an n x rank isometry Q: singular EP, M strongly accretive or not."""
    Q = random_unitary(rng, n)[:, :rank]
    M = accretive_operator(rng, rank) if accretive else random_operator(rng, rank)
    return Q @ M @ Q.conj().T


# Singular EP inputs Q M Q* of rank n/2 and 1, M strongly accretive or not.
_PLANTED_EP = [
    pytest.param(
        _planted_ep(rng_for(SEED, f"planted-ep-{n}-{rank}-{accretive}"), n, rank, accretive),
        id=f"ep-{n}-rank-{rank}-{'accretive' if accretive else 'gaussian'}",
    )
    for n in (4, 16, 64) for rank in (n // 2, 1) for accretive in (True, False)
]


@pytest.mark.parametrize("T", [
    np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex),  # singular, not EP
    ROT_WITNESS,
    np.diag([3.0, 1e-3, 1.0]).astype(complex),
    *_PLANTED_EP,
])
def test_full_rank_and_non_ep_input_sweep_at_full_order(stacked_solves, T):
    # Every input, full rank, singular EP or not EP, has its polygon solved
    # and refined at order n: 4 seed tridiagonalizations and at most
    # _RADIUS_SOLVES more.  Against a stacked eigh of T, the support values
    # agree within 1e-13 ||T||, the points lie in W(T) (no point passes a
    # reference support line), and the bracket holds w(T), each up to a
    # rounding allowance of 10 n eps ||T||.
    op = as_operator(T)
    lo, hi = op.radius_bracket
    angles = op._polygon[0]
    _assert_polygons_only(stacked_solves, len(T), angles)
    ref = _stacked_support(T, angles)
    slack = 10 * len(T) * np.finfo(float).eps * op.norm
    assert np.max(np.abs(op.support - ref)) <= 1e-13 * op.norm
    attained = np.real(np.exp(-1j * angles)[None, :] * op.points[:, None])
    assert np.max(attained - ref[None, :]) <= slack
    assert np.max(ref) <= hi + slack and lo <= _vertex_max(angles, ref) + slack


def test_zero_operator_sweep(stacked_solves):
    # The zero operator is solved like any other: its 4 seed solves close the
    # bracket at once.  Both ends are positive zeros, which a report writes
    # as 0.0, not -0.0; == cannot tell the two apart.
    op = as_operator(np.zeros((5, 5)))
    assert np.array_equal(op._polygon[0], np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    assert np.array_equal(op.support, np.zeros(8))
    assert np.array_equal(op.points, np.zeros(8, complex))
    assert op.radius_bracket == (0.0, 0.0)
    assert stacked_solves["zhetrd"] == 4
    for n in (5, 1):
        bracket = as_operator(np.zeros((n, n))).radius_bracket
        assert [math.copysign(1.0, w) for w in bracket] == [1.0, 1.0], n


def test_range_block_across_the_rank_cutoff():
    # A normal EP T = Q diag(lam) Q* whose smallest nonzero |lam| sits 1%
    # above or below the rank cutoff has rank 8 above it and rank 7 below.
    # Both polygons are solved at order n, and the two supports agree within
    # two cutoffs.
    n, rank = 16, 8
    rng = rng_for(SEED, "rank-cutoff-sweep")
    Q = random_unitary(rng, n)[:, :rank]
    lam = (0.5 + 1.5 * rng.random(rank)) * np.exp(1j * rng.uniform(-1.2, 1.2, rank))
    lam[0] = 2.0
    cutoff = linops.rank_cutoff(n, 2.0)
    supports = []
    for factor, kept in ((1.01, rank), (0.99, rank - 1)):
        lam[-1] = factor * cutoff * np.exp(0.3j)
        op = as_operator((Q * lam) @ Q.conj().T)
        assert op.rank == kept
        supports.append(op.support)
    assert np.max(np.abs(supports[0] - supports[1])) <= 2 * cutoff


def _bits(x):
    """A value's exact bits: array bytes, and repr (exact for floats) otherwise."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    return repr(x)


def test_results_do_not_depend_on_call_order():
    # Each cached field has one kernel, so the public readers give the same
    # bits whichever runs first on a matrix content.  Forward, the full SVD
    # and the boundary points are read first; in reverse, the norm and the
    # support values are.
    rng = rng_for(SEED, "call-order")
    inputs = [JORDAN2]
    for dim in (0, 1, 5, 32):
        # The singular accretive 1x1 operator is zero.
        singular = singular_accretive_operator(rng, dim, dim // 2) if dim != 1 else np.zeros((1, 1))
        inputs += [random_operator(rng, dim), accretive_operator(rng, dim), singular]
    readers = (
        lambda A: pinv.pseudoinverse(A).pinv,
        lambda A: pinv.pseudoinverse(A).singular_values,
        numerical_range_boundary,
        lambda A: accretivity_report(A).as_dict(),
        lambda A: as_operator(A).radius_bracket[0],
        lambda A: support_excess(A, np.linalg.eigvals(A)),
        linops.sectorial_angle,
        lambda A: as_operator(A).schur,
    )
    for k, A in enumerate(inputs):
        linops._shared_operator.cache_clear()
        forward = [_bits(read(A)) for read in readers]
        assert as_operator(A).norm == linops.operator_norm(A), f"input {k}"
        linops._shared_operator.cache_clear()
        backward = [_bits(read(A)) for read in reversed(readers)][::-1]
        for j, (a, b) in enumerate(zip(forward, backward)):
            assert a == b, f"input {k}, reader {j}"


def test_factorize_keeps_the_callers_operators_shared():
    # Upsilon, its root and Z1 are factorize's own temporaries: they take no
    # shared slot, so the caller's T and S stay cached.  The sampler puts
    # nothing in the cache either.
    T, S = pencil_pair(rng_for(SEED, "factorize-sharing"), 5)
    assert linops._shared_operator.cache_info().currsize == 0
    p = pencil.QuadraticPencil(T, S)
    pencil.factorize(p)
    assert as_operator(T) is p.T
    assert as_operator(S) is p.S
    assert linops._shared_operator.cache_info().currsize == 2


def test_bvp_problem_keeps_the_callers_operators_shared():
    # Upsilon is BvpProblem's own temporary: it takes no shared slot.
    C, D = commuting_pencil_pair(rng_for(SEED, "bvp-sharing"), 5)
    assert linops._shared_operator.cache_info().currsize == 0
    problem = BvpProblem(C, D, np.ones(5), np.zeros(5))
    assert linops._shared_operator.cache_info().currsize == 2
    assert as_operator(C) is problem.T
    assert as_operator(D) is problem.S


def test_operator_matrix_is_a_read_only_copy():
    A = random_operator(rng_for(SEED, "read-only"), 4)
    op = as_operator(A)
    assert not op.matrix.flags.writeable
    assert not np.shares_memory(op.matrix, A)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    assert as_operator(A.copy()) is op
    assert as_operator(op) is op
    assert as_operator(A.real) is not op


def test_mutated_input_gets_the_new_contents_report():
    T = accretive_operator(rng_for(SEED, "mutated"), 5)
    first = accretivity_report(T)
    T[:] = -T
    second = accretivity_report(T)
    linops._shared_operator.cache_clear()
    assert second.as_dict() == accretivity_report(T.copy()).as_dict()
    assert first.is_accretive and not second.is_accretive


def test_shared_operators_are_bounded(stacked_solves):
    rng = rng_for(SEED, "bounded-sharing")
    first = random_operator(rng, 4)
    others = [random_operator(rng, 4) for _ in range(linops._SHARED_OPERATORS)]
    # Unshared Operators of the same contents give the same polygons.
    polygons = [linops.Operator(M)._polygon[0] for M in [first, *others[:-1]]]
    stacked_solves.update(zhetrd=0, zhetrd_orders=Counter())
    as_operator(first).radius_bracket[0]
    for M in others[:-1]:
        as_operator(M).radius_bracket[0]
    as_operator(first).radius_bracket[0]
    _assert_polygons_only(stacked_solves, 4, *polygons)
    # first is now the most recent of the kept contents; after as many
    # distinct contents as are kept, its polygon is solved again.
    for M in others:
        as_operator(M).radius_bracket[0]
    stacked_solves.update(zhetrd=0, zhetrd_orders=Counter())
    as_operator(first).radius_bracket[0]
    _assert_polygons_only(stacked_solves, 4, polygons[0])


def test_dropped_operator_is_freed_without_the_cycle_collector():
    # The Operator caches its own polygon, and none of its cached fields points
    # back at it, so a dropped Operator's factorizations are freed at once,
    # not kept until the cyclic garbage collector happens to run.  The second
    # input is singular EP, Q M Q* of rank n/2.
    rng = rng_for(SEED, "no-cycle")
    for T in (random_operator(rng, 4), _planted_ep(rng, 4, 2, True)):
        op = as_operator(T)
        op.radius_bracket
        op.svd
        ref = weakref.ref(op)
        gc.disable()
        try:
            del op
            linops._shared_operator.cache_clear()
            assert ref() is None
        finally:
            gc.enable()


def test_returned_arrays_are_writable():
    rng = rng_for(SEED, "writable")
    T, S = accretive_operator(rng, 4), accretive_operator(rng, 4)
    C, D = commuting_pencil_pair(rng, 4)
    f = pencil.factorize(pencil.QuadraticPencil(T, S))
    parts = cartesian_parts(T)
    arrays = [
        f.z1, f.z2, parts.re_part, parts.im_part,
        numerical_range_boundary(T), kato_representation(T),
        pinv.pseudoinverse(T).pinv, pinv.pseudoinverse(np.zeros((0, 0))).pinv,
        pencil.accretive_sqrt(T), pencil.balakrishnan_power(T, 0.5),
        solve_bvp(BvpProblem(C, D, np.ones(4), np.zeros(4))).values,
    ]
    assert all(a.flags.writeable for a in arrays)
    # Writing to the arrays drawn from T's cached fields changes nothing that
    # later calls on T read.
    pts, parts = numerical_range_boundary(T), cartesian_parts(T)
    before = pts.copy()
    pts[...] = 0
    parts.re_part[...] = 0
    assert np.array_equal(numerical_range_boundary(T), before)
    assert np.array_equal(cartesian_parts(T).re_part, (T + T.conj().T) / 2)


def test_sweep_memory_is_bounded():
    # Solving all 720 angles at once with eigenvectors peaks at 136 MiB at
    # n = 64; carrying the end vectors of 8 MiB chunks of angles back through
    # every reflector of the chunk at once peaked at 16.3 MiB at n = 128.
    # Building the rotated matrices in two 1 MiB stacks peaked at 2.9 MiB at
    # n = 32; one n x n buffer, rebuilt per angle, peaked at 0.9 MiB over the
    # old 720-angle grid, and peaks at 0.13 / 1.90 MiB at n = 32 / 128 over
    # the polygon, whose refinement holds Re T, Im T and T divided by s.  A
    # 2x2 polygon first, so the peak leaves out the ~14 MiB
    # that the first import of scipy.linalg allocates in a process that has
    # none yet.
    as_operator(np.eye(2)).points
    for n, bound_mib in ((32, 1.5), (128, 6)):
        T = random_operator(rng_for(SEED, "sweep-memory"), n)
        tracemalloc.start()
        try:
            as_operator(T).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, f"sweep peak {peak / 2**20:.2f} MiB at n = {n}"


def test_excess_memory_is_bounded():
    # The one-shot 720 x 720 projection of the old fixed grid's own points
    # peaked at 11.9 MiB; the polygon has at most 8 + 2 _RADIUS_SOLVES angles.
    T = random_operator(rng_for(SEED, "excess-memory"), 32)
    op = as_operator(T)
    pts = op.points  # the polygon itself is solved before tracing starts
    tracemalloc.start()
    try:
        op.excess(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"excess peak {peak / 2**20:.1f} MiB"


def test_cartesian_parts_reconstruct():
    rng = rng_for(SEED, "cartesian")
    for _ in range(N_TRIALS):
        dim = int(rng.integers(1, 10))
        T = random_operator(rng, dim)
        parts = cartesian_parts(T)
        assert np.allclose(parts.re_part, parts.re_part.conj().T, atol=1e-14)
        assert np.allclose(parts.im_part, parts.im_part.conj().T, atol=1e-14)
        assert np.allclose(parts.re_part + 1j * parts.im_part, T, atol=1e-14)


def test_parts_halve_before_summing():
    # On ordinary input the parts are (A + A*)/2 and (A - A*)/2i to the bit;
    # halving first keeps them finite up to the float range's edge, where
    # A + A* overflows.  Warnings are errors, so an overflow fails here.
    rng = rng_for(SEED, "parts-bits")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(N_TRIALS):
            dim = int(rng.integers(1, 40))
            for A in (random_operator(rng, dim), hermitian(rng, dim), rng.standard_normal((dim, dim)) + 0j):
                parts = linops.Operator(A).parts
                Ah = A.conj().T
                assert parts.re_part.tobytes() == ((A + Ah) / 2).tobytes()
                assert parts.im_part.tobytes() == ((A - Ah) / 2j).tobytes()
        rep = accretivity_report(np.diag([1.5e308, 1.0]))
    assert rep.is_accretive and rep.delta == 1.0
    assert math.isfinite(rep.numerical_radius) and math.isfinite(rep.numerical_radius_upper)
    assert rep.numerical_radius == 1.5e308 <= rep.numerical_radius_upper


def _analyzed_without_warnings(T):
    """T's accretivity_report and analyze claims, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = accretivity_report(T)
        claims = selftest.analyze_claims(T, rep)
    assert [c["status"] for c in claims] == ["pass"] * 3, claims
    return rep


def test_float_range_edge_bracket_is_finite():
    # At the float range's edge the Rayleigh quotients and the polygon's
    # vertices of this non-normal matrix would overflow in T's own units.
    # In units of a power of two they are finite: the bracket holds
    # w(T) = (sqrt(5) / 2) 1e308 and closes to _RADIUS_RTOL, and the three
    # analyze claims pass.
    rep = _analyzed_without_warnings(np.array([[1e308, 1e308], [0.0, -1e308]]))
    lo, hi = rep.numerical_radius, rep.numerical_radius_upper
    w = math.sqrt(5) / 2 * 1e308
    assert math.isfinite(hi) and hi - lo <= 2 * linops._RADIUS_RTOL * hi
    assert lo <= w * (1 + 4 * np.finfo(float).eps) and w <= hi * (1 + 4 * np.finfo(float).eps)


def test_subnormal_input_analyzes_without_warnings():
    # Subnormal entries: 1/s overflows, so T/s is taken by real division of
    # each part, exactly.  In T's own units a subnormal Jordan block's
    # Rayleigh quotients would underflow to 0, and a complex division by its
    # largest entry overflows.  In units of s the 32 x 32 block's bracket
    # closes around w = cos(pi/33) 1e-310 to _RADIUS_RTOL plus the
    # subnormal spacing.
    rep = _analyzed_without_warnings(np.array([[1e-320, 3e-321], [0.0, 2e-320]]))
    assert 0 < rep.numerical_radius <= rep.numerical_radius_upper < 1e-319
    rep = _analyzed_without_warnings(1e-310 * np.eye(32, k=1))
    lo, hi = rep.numerical_radius, rep.numerical_radius_upper
    w, spacing = math.cos(math.pi / 33) * 1e-310, 5e-324
    assert lo - spacing <= w <= hi + spacing and hi - lo <= 2 * linops._RADIUS_RTOL * hi + spacing


@pytest.mark.parametrize("k", [-600, -20, 20, 600])
def test_power_of_two_rescaling_is_exact(k):
    # T and 2^k T have the same T/s, so the same polygon angles, and support
    # values, points and bracket exactly 2^k times T's.
    T = random_operator(rng_for(SEED, "rescale"), 6)
    c = math.ldexp(1.0, k)
    op, scaled = linops.Operator(T), linops.Operator(c * T)
    assert np.array_equal(scaled._polygon[0], op._polygon[0])
    assert np.array_equal(scaled.support, c * op.support)
    assert np.array_equal(scaled.points, c * op.points)
    assert scaled.radius_bracket == tuple(c * w for w in op.radius_bracket)


def test_kato_representation_round_trip():
    rng = rng_for(SEED, "kato")
    for k in range(N_TRIALS):
        dim = int(rng.integers(1, 10))
        T = accretive_operator(rng, dim)
        K = kato_representation(T)
        assert np.allclose(K, K.conj().T, atol=1e-10)
        H = cartesian_parts(T).re_part
        R = hermitian_sqrt(H)
        back = R @ (np.eye(dim) + 1j * K) @ R
        scale = max(1.0, np.linalg.norm(T, 2))
        assert np.linalg.norm(back - T, 2) <= 1e-12 * scale, f"trial {k}"
        rep = accretivity_report(T)
        assert abs(np.linalg.norm(K, 2) - math.tan(rep.omega)) <= 1e-8 * scale


def test_kato_rejects_singular_real_part():
    with pytest.raises(PreconditionError):
        kato_representation(np.diag([1.0 + 1.0j, 0.0]))
    with pytest.raises(PreconditionError):
        kato_representation(np.diag([-1.0, 1.0]))


def test_angle_bound_under_strong_accretivity():
    # tan(omega) <= sqrt(||T||^2 / delta^2 - 1) whenever delta > 0.
    rng = rng_for(SEED, "angle-bound")
    for k in range(N_TRIALS):
        dim = int(rng.integers(1, 9))
        T = accretive_operator(rng, dim)
        rep = accretivity_report(T)
        assert rep.delta > 0
        assert math.tan(rep.omega) <= rep.bound_rhs + 1e-8, f"trial {k}"


def test_sampled_angle_agrees_with_certified_angle():
    # The polygon's boundary points lie in W(T), inside the certified sector,
    # and their largest argument nearly attains its semiangle.
    rng = rng_for(SEED, "angle-sampled")
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        T = accretive_operator(rng, dim)
        rep = accretivity_report(T)
        sampled = float(np.max(np.abs(np.angle(as_operator(T).points))))
        assert sampled <= rep.omega + 1e-8
        assert sampled >= rep.omega - 0.05, "sampled boundary should nearly attain omega"


def test_compression_preserves_angle():
    # T = Q M Q* with isometric Q keeps the certified angle of M.
    rng = rng_for(SEED, "compress-angle")
    for _ in range(15):
        dim = int(rng.integers(3, 9))
        rank = int(rng.integers(1, dim))
        T = singular_accretive_operator(rng, dim, rank)
        rep = accretivity_report(T)
        assert rep.is_accretive and rep.sectorial
        assert rep.omega < math.pi / 2


def test_input_validation():
    with pytest.raises(DimensionError):
        accretivity_report(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        accretivity_report(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(DimensionError):
        as_operator(np.zeros(4))


def test_operator_norm_once_per_input(monkeypatch):
    # A norm is the first singular value, so each input reaches numpy's SVD
    # once per call (numpy.linalg.norm(A, 2) reaches it through the private
    # module).  The full SVD never stands in for the values-only one.
    rng = rng_for(SEED, "norm-once")
    T = accretive_operator(rng, 5)
    S = accretive_operator(rng, 5)
    seen = []
    for mod in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        def counting(a, *args, _svd=mod.svd, **kwargs):
            seen.append((np.asarray(a), kwargs.get("compute_uv", True)))
            return _svd(a, *args, **kwargs)

        monkeypatch.setattr(mod, "svd", counting)

    def svds_of(M, full=None):
        return sum(
            m.shape == M.shape and np.array_equal(m, M) and full in (None, uv)
            for m, uv in seen
        )

    C, D = commuting_pencil_pair(rng, 5)
    calls = (
        ((T, S), lambda: pinv.perturbation_certificate(T, S)),
        ((T,), lambda: accretivity_report(T)),
        ((T,), lambda: pencil.balakrishnan_power(T, 0.5)),
        ((T, S), lambda: pencil.factorize(pencil.QuadraticPencil(T.copy(), S.copy()))),
        ((C, D), lambda: solve_bvp(BvpProblem(C, D, np.ones(5), np.zeros(5)))),
    )
    # Alone, each call takes each input's norm, or its full SVD, once.
    for inputs, call in calls:
        linops._shared_operator.cache_clear()
        seen.clear()
        call()
        assert [svds_of(M) for M in inputs] == [1] * len(inputs)
    # In sequence, separate arrays of one content share each kernel: T
    # reaches the full SVD once (the pseudoinverse) and the values-only SVD
    # once (its norm, read by every call); S, C and D reach the latter once.
    linops._shared_operator.cache_clear()
    seen.clear()
    for _, call in calls:
        call()
    assert [svds_of(M) for M in (T, S, C, D)] == [2, 1, 1, 1]
    assert [svds_of(T, full=True), svds_of(T, full=False)] == [1, 1]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_norm_at_most_gives_the_exact_verdict(scale, kernel_args):
    # X has singular values 4, 2, 1, 1 (times scale): ||X||_F / 2 = 2.35,
    # ||X||_2 = 4 and ||X||_F = 4.69.  A b below the first or above the last
    # is decided by the Frobenius norm alone; between them the exact norm is
    # taken, one SVD.  The verdict is always operator_norm(X) <= b, also
    # where the squares of the entries overflow (1e300) or underflow (1e-300).
    rng = rng_for(SEED, "norm-screen")
    U, V = random_unitary(rng, 4), random_unitary(rng, 4)
    X = scale * (U * np.array([4.0, 2.0, 1.0, 1.0])) @ V.conj().T
    exact = linops.operator_norm(X)
    for b, svds in ((2.0, 0), (3.0, 1), (4.3, 1), (5.0, 0)):
        kernel_args.clear()
        assert linops.norm_at_most(X, b * scale) is (exact <= b * scale), b
        assert sum(family == "svd" for family, _ in kernel_args) == svds, b
    # A real X, and its verdict at its own norm.
    assert linops.norm_at_most(X.real, linops.operator_norm(X.real))


def test_norm_at_most_on_empty_and_zero_matrices():
    assert linops.norm_at_most(np.zeros((0, 0), complex), 0.0)
    assert not linops.norm_at_most(np.zeros((0, 0), complex), -1.0)
    assert linops.norm_at_most(np.zeros((3, 3), complex), 0.0)
    assert not linops.norm_at_most(np.zeros((3, 3), complex), -1e-300)
