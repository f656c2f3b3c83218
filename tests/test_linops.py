"""Numerical range, accretivity, and sectorial-angle certification."""

from collections import Counter
import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from accretive import linops, pencil, pinv
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
    # W(J2) is the disk |z| <= 1/2: every support value is 1/2, so w_lo is
    # 1/2 to rounding and every arc's vertex ties at 1/(2 cos(pi/720)).  No
    # bisection lowers that, so the refinement stops at its angle cap, and
    # the bracket still holds w = 1/2.  Each added angle is one more order-2
    # tridiagonalization of the sweep's own kernel.
    lo, hi = as_operator(JORDAN2).radius_bracket
    assert abs(lo - W_JORDAN2) <= 2 * np.finfo(float).eps * W_JORDAN2
    assert W_JORDAN2 <= hi <= W_JORDAN2 / math.cos(math.pi / 720) * (1 + 1e-15)
    count = 360 + linops._RADIUS_ANGLES
    assert stacked_solves == {"eigh": 0, "eigvalsh": 0, "zhetrd": count,
                              "zhetrd_orders": {2: count}}


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
    # angles midway between grid angles) must not cross any sampled support
    # plane.
    rng = rng_for(SEED, "hull-consistency")
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        T = random_operator(rng, dim)
        scale = max(1.0, np.linalg.norm(T, 2))
        inner = rayleigh_points_oracle(T, rng)
        excess = support_excess(T, inner)
        assert np.max(excess) <= 1e-10 * scale
        off_grid = _sweep_oracle(T, linops._ANGLES + np.pi / 720)[1]
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
    # Half-turn sweep against an independent per-angle full-turn eigh on the
    # one grid, 720 uniform angles.
    angles = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    assert np.array_equal(linops._ANGLES, angles)
    rng = rng_for(SEED, "sweep-oracle")
    inputs = [random_operator(rng, dim) for dim in (0, 1, 2, 5, 13, 32)] + [JORDAN2]
    for T in inputs:
        tol = 1e-13 * max(1.0, np.linalg.norm(T, 2) if T.size else 0.0)
        op = as_operator(T)
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
    # The sweep's kernel against numpy's full eigh: the same end
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
    # At angles off the 720-angle grid, the kernel's end eigenpairs of the
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
    # here the third angle of the grid, whose zhetrd and zunmqr calls are the
    # third and whose first dstemr call is the fifth, or the first angle that
    # the w(T) bracket adds, whose zhetrd call follows the sweep's 360.
    from scipy.linalg import lapack

    T = random_operator(rng_for(SEED, "lapack-info"), 4)
    theta = float(linops._ANGLES[2])
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
    fail_at = {"zhetrd": 361 if refined else 3, "dstemr": 5, "zunmqr": 3}[routine]
    calls = []

    def failing(*args, _fn=getattr(lapack, routine), **kwargs):
        out = _fn(*args, **kwargs)
        calls.append(None)
        return out[:-1] + (1,) if len(calls) == fail_at else out

    monkeypatch.setattr(lapack, routine, failing)
    op = as_operator(T)
    with pytest.raises(AccuracyError, match=rf"{routine} .*theta = {re.escape(repr(theta))}$"):
        op.radius_bracket


def _assert_sweeps_only(record, order, sweeps=1, brackets=0):
    """Assert a stacked_solves record of W(T) sweeps and w(T) brackets alone:
    360 tridiagonalizations per sweep, at most _RADIUS_ANGLES more per
    refined bracket, all of the given order, and no stacked eigh or eigvalsh.
    A second sweep adds 360, more than a bracket may, so it still shows."""
    count = record["zhetrd"]
    assert 0 <= count - 360 * sweeps <= linops._RADIUS_ANGLES * brackets, count
    assert record == {"eigh": 0, "eigvalsh": 0, "zhetrd": count, "zhetrd_orders": {order: count}}


def test_sweep_solves_each_grid_once_for_its_readers(stacked_solves):
    # w(T), support excess and the accretivity report read support values
    # only, yet run the one half-turn sweep that also gives the points, so a
    # cached field never depends on which read came first.  Alone, each call
    # sweeps the grid once, one tridiagonalization per solved angle of the
    # half-turn, and the bracket's refined angles add at most _RADIUS_ANGLES
    # more; in sequence on one matrix content the three share one sweep and
    # one bracket.
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
        _assert_sweeps_only(stacked_solves, 6, brackets=1)
    linops._shared_operator.cache_clear()
    stacked_solves.update(eigh=0, eigvalsh=0, zhetrd=0, zhetrd_orders=Counter())
    for call in calls:
        call()
    _assert_sweeps_only(stacked_solves, 6, brackets=1)


def test_analyze_sequence_on_one_array_sweeps_once(stacked_solves):
    # The report, the boundary and two support-excess checks, each handed the
    # same raw array, share one sweep that gives the support values and the
    # boundary points, and the report's one refined bracket.
    T = random_operator(rng_for(SEED, "analyze-sequence"), 6)
    accretivity_report(T)
    pts = numerical_range_boundary(T)
    support_excess(T, pts)
    support_excess(T, np.linalg.eigvals(T))
    _assert_sweeps_only(stacked_solves, 6, brackets=1)


def _stacked_support(T):
    """h(theta) of T at every grid angle from stacked numpy eigvalsh, 90 angles per stack."""
    out = []
    for theta in np.split(linops._ANGLES, 8):
        rot = np.exp(-1j * theta)[:, None, None] * T
        out.append(np.linalg.eigvalsh((rot + rot.conj().transpose(0, 2, 1)) / 2)[:, -1])
    return np.concatenate(out)


def _vertex_max(h):
    """Largest |vertex| of the support lines of adjacent grid angles: w(T) <= it."""
    step = 2 * np.pi / len(h)
    nxt = np.roll(h, -1)
    return float(np.max(np.hypot(h, (nxt - h * math.cos(step)) / math.sin(step))))


def _planted_ep(rng, n, rank, accretive):
    """Q M Q* for an n x rank isometry Q: singular EP, M strongly accretive or not."""
    Q = random_unitary(rng, n)[:, :rank]
    M = accretive_operator(rng, rank) if accretive else random_operator(rng, rank)
    return Q @ M @ Q.conj().T


@pytest.mark.parametrize("accretive", [True, False])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_singular_ep_sweep_runs_on_the_range_block(stacked_solves, n, accretive):
    # T = Q M Q* is swept and its bracket refined on its range block: 360
    # tridiagonalizations of order rank(T), and at most _RADIUS_ANGLES more.
    # Against a stacked eigh of T itself, the support values are upper bounds
    # of h(theta) that exceed it by at most the block's reconstruction
    # residual delta, the points lie in W(T), and the bracket holds w(T).
    # Both sides carry a rounding allowance of 10 n eps ||T||: the support
    # sits a few eps ||T|| below the reference on some rank-1 and rank-2
    # inputs, whose delta is itself ~eps ||T||.  Bit for bit, the
    # sweep and the bracket are the block's: support max(h_B, 0) + delta,
    # B's points where h_B >= 0 and 0 where the kernel attains the support,
    # and B's bracket with delta added to its upper end.
    rng = rng_for(SEED, f"planted-ep-{n}-{accretive}")
    eps = np.finfo(float).eps
    for rank in (n // 2, 1):
        T = _planted_ep(rng, n, rank, accretive)
        ref = _stacked_support(T)
        linops._shared_operator.cache_clear()
        stacked_solves.update(eigh=0, eigvalsh=0, zhetrd=0, zhetrd_orders=Counter())
        op = as_operator(T)
        lo, hi = op.radius_bracket
        assert op.rank == rank and op.range_block.block.dim == rank
        _assert_sweeps_only(stacked_solves, rank, brackets=1)
        slack = 10 * n * eps * op.norm
        delta = op.range_block.residual
        assert np.min(op.support - ref) >= -slack, rank
        assert np.max(op.support - ref) <= delta + slack, rank
        attained = np.real(np.exp(-1j * linops._ANGLES)[None, :] * op.points[:, None])
        assert np.max(attained - ref[None, :]) <= slack, rank
        assert np.max(ref) <= hi + slack and lo <= _vertex_max(ref) + slack, rank
        B = op.range_block.block
        assert np.array_equal(op.support, np.maximum(B.support, 0) + delta), rank
        assert np.array_equal(op.points, np.where(B.support >= 0, B.points, 0)), rank
        b_lo, b_hi = B.radius_bracket
        assert (lo, hi) == (b_lo, b_hi + delta), rank


@pytest.mark.parametrize("T", [
    np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex),  # singular, not EP
    ROT_WITNESS,
    np.diag([3.0, 1e-3, 1.0]).astype(complex),
])
def test_full_rank_and_non_ep_input_sweep_at_full_order(stacked_solves, T):
    op = as_operator(T)
    assert op.range_block is None
    op.radius_bracket
    _assert_sweeps_only(stacked_solves, len(T))
    assert np.max(np.abs(op.support - _stacked_support(T))) <= 1e-13 * op.norm


def test_zero_operator_sweep(stacked_solves):
    op = as_operator(np.zeros((5, 5)))
    assert np.array_equal(op.support, np.zeros(720))
    assert np.array_equal(op.points, np.zeros(720, complex))
    assert op.radius_bracket == (0.0, 0.0)
    assert stacked_solves["zhetrd"] == 0


def test_range_block_across_the_rank_cutoff():
    # A normal EP T = Q diag(lam) Q* whose smallest nonzero |lam| sits 1%
    # above or below the rank cutoff: above, it is swept at rank 8; below,
    # at rank 7 with delta ~ that |lam|.  The two supports agree within two
    # cutoffs.
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
        assert op.rank == kept and op.range_block.block.dim == kept
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
    as_operator(first).radius_bracket[0]
    for M in others[:-1]:
        as_operator(M).radius_bracket[0]
    as_operator(first).radius_bracket[0]
    n = linops._SHARED_OPERATORS
    _assert_sweeps_only(stacked_solves, 4, sweeps=n, brackets=n)
    # first is now the most recent of the kept contents; after as many
    # distinct contents as are kept, its sweep runs again.
    for M in others:
        as_operator(M).radius_bracket[0]
    stacked_solves.update(zhetrd=0, zhetrd_orders=Counter())
    as_operator(first).radius_bracket[0]
    _assert_sweeps_only(stacked_solves, 4, brackets=1)


def test_dropped_operator_is_freed_without_the_cycle_collector():
    # The Operator caches its own sweep, and none of its cached fields points
    # back at it, so a dropped Operator's factorizations are freed at once,
    # not kept until the cyclic garbage collector happens to run.  The second
    # input is singular EP, Q M Q* of rank n/2, whose sweep and bracket run
    # on the range block's Operator.
    rng = rng_for(SEED, "no-cycle")
    for T, reduced in ((random_operator(rng, 4), False), (_planted_ep(rng, 4, 2, True), True)):
        op = as_operator(T)
        op.radius_bracket
        op.svd
        assert (op.range_block is not None) == reduced
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
    # n = 32; one n x n buffer, rebuilt per angle, peaks at 0.9 MiB.
    # A 2x2 sweep first, so the peak leaves out the ~14 MiB that the sweep's
    # first import of scipy.linalg allocates in a process that has none yet.
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


def test_excess_memory_is_bounded_and_chunking_changes_no_bit():
    # The one-shot 720 x 720 projection of a sweep's own points peaks at 11.9 MiB.
    T = random_operator(rng_for(SEED, "excess-memory"), 32)
    op = as_operator(T)
    pts = op.points  # the sweep itself is solved before tracing starts
    tracemalloc.start()
    try:
        op.excess(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"excess peak {peak / 2**20:.1f} MiB"
    # A probe of several chunks (a chunk holds 2**16 // 720 = 91 points) against
    # the one-shot formula.
    probe = np.concatenate([pts, 1.5 * pts[:300], [0.0, 1e3j]])
    proj = np.real(np.exp(-1j * linops._ANGLES)[None, :] * probe[:, None])
    one_shot = np.max(proj - op.support[None, :], axis=1)
    assert np.array_equal(op.excess(probe), one_shot)


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
    # The sweep's boundary points lie in W(T), inside the certified sector,
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
