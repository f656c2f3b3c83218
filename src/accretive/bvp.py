"""Two-point boundary value problem u'' - 2Tu' - Su = 0 on [0, 1].

With R = (T^2 + S)^{1/2} commuting with T, the factor operators Z1 = T + R
and Z2 = T - R split the equation, and the unique solution through boundary
values u(0) = u0, u(1) = u1 is

    u(t) = exp(-(1-t) Z1) x0 + exp(t Z2) x1,

where x0 and x1 solve the boundary system.  Both exponents have the stable
orientation (decaying for accretive Z1 and the suite's Z2), so the formula is
evaluable without rescaling.

The inputs are checked by one rule per kind: T and S by the matrix rule,
u0 and u1 by the vector rule (linops.checked_vector: finite, length n),
counts by the count rule (linops.checked_count) and the time grid by
checked_grid (at least 2 strictly increasing times within [0, 1],
Chebyshev by default).

u(t) is evaluated through the actions x(t) = exp(-(1-t) Z1) x0 and
y(t) = exp(t Z2) x1 on all requested times at once, by the truncated Taylor
method (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), never forming an
n x n exponential per time.  The time span is cut into q steps; each step
takes the m Taylor powers of its one base vector, and every time in the step
reads them, so an action costs at most m*q matrix-vector products plus one
small product per step, not m*q products with an n x K block.  The grid
rule keeps both action times, 1 - t and t, at or above 0, so each action is
one forward walk from its base vector.  Stiff factors, whose per-time
Taylor work would reach that of a dense scaling-and-squaring exponential,
take the dense expm(t Z) @ v instead, the times stacked into one call per
chunk.  The boundary system needs one dense exponential, exp(-2R): x0 and x1
come from one factorization of I - exp(-2R), with the right-hand sides
exp(Z2) u0 and exp(-Z1) u1 taken as actions at t = 1.  The boundary residual
reads the written values: it is max(||u(0) - u0||, ||u(1) - u1||) with u(0)
and u(1) from the same actions that give u on the grid, an end the grid
lacks being one more action time.

In the paper's setting Upsilon = T^2 + S is m-accretive, so its principal
root R is accretive too (Kato, Perturbation Theory for Linear Operators,
V 3.11), and by Lumer-Phillips ||exp(-2R)|| <= exp(-2 lambda_min(Re R)),
below 1 for strictly accretive Upsilon: then neither Upsilon nor R is
singular and the problem cannot be resonant.  One Cholesky factorization of
Re Upsilon certifies the root's rank and negative-axis test
(pencil._sqrt_and_residual), and one of Re R excludes resonance
(_resonance_excluded), so neither takes an SVD; an input they cannot
certify takes the exact SVD tests, with the same values and verdicts.

The reported ODE residual checks the hypotheses, not the written values: its
defect is [R, T](x(t) - y(t)) + (R^2 - Upsilon) u(t), which vanishes for a
commuting pair and an exact root whatever x(t) and y(t) hold.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import AccuracyError, HypothesisError, ParameterError, ResonanceError
from .linops import _in_units, _numeric_array, _power_of_two_unit, rank_cutoff
from .linops import checked_count, checked_matrix, checked_vector, norm_at_most, operator_norm
from .pencil import QuadraticPencil, _re_part_exceeds
from .tolerances import tolerance


def expm(A):
    """Matrix exponential (scaling-and-squaring); exp(0) = I exactly.

    Non-finite entries in the result (overflow from extreme norms) raise
    AccuracyError with the offending norm in the message.
    """
    M = checked_matrix(A)
    if M.shape[0] == 0 or not M.any():
        return np.eye(M.shape[0], dtype=complex)
    import scipy.linalg  # deferred: a first import takes ~0.3 s and ~28 MiB

    E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise AccuracyError(
            f"matrix exponential overflowed (input norm {operator_norm(M):.3e})"
        )
    return np.asarray(E, dtype=complex)


# theta_m for m = 5, 10, ..., 55: the largest ||t A||_1 for which m Taylor
# terms of exp(t A) meet double-precision unit roundoff (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 2011, Table 3.1).
_TAYLOR_THETA = {
    5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53
# _taylor_walk takes each step's Taylor powers in blocks of this many.
_POWER_BLOCK = 8
# Complex entries per stacked chunk (8 MiB) of the dense route's exponentials
# (_expm_actions), so memory stays O(n^2) for any number of times.
_EXPM_CHUNK = 2**19


def _expm_actions(A, v, ts):
    """exp(t_k A) v for every t_k in ts, as the columns of an n x len(ts) array.

    Truncated Taylor method on the shifted B = A - mu I, mu = trace(A)/n: the
    degree m and step count q minimise m*q subject to
    ||B||_1 max t_k / q <= theta_m.  [0, max t_k] is split into q steps of
    h = max t_k / q, and each time reads the one power sequence of the step it
    falls in (_taylor_walk), so the work is at most m*q matrix-vector
    products, plus one small product per step, whatever the number of times.
    The route rule still weighs per-time work: when m*q*n^2 per time reaches
    the ~(8 + s)*n^3 of a dense scaling-and-squaring exponential,
    s = ceil(log2(||t A||_1 / 5.4)), each column is scipy's expm(t_k A) @ v
    instead, without the input and output checks of expm: the one finiteness
    check of F covers every time.  That route stacks the times, in chunks of
    at most _EXPM_CHUNK entries so memory stays O(n^2), one
    scipy.linalg.expm(t[:, None, None] A) @ v call per chunk, bit for bit the
    per-time products.  Times come in any order, each t_k >= 0
    (the grid rule, checked_grid, keeps both of solve_bvp's factor actions
    there); a negative or NaN time raises ParameterError.  t_k = 0 gives v
    exactly, with no call.  Non-finite results raise AccuracyError.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts >= 0):
        raise ParameterError("exponential action times must be >= 0")
    n = A.shape[0]
    if n == 0 or ts.size == 0:
        return np.zeros((n, ts.size), dtype=complex)
    t_max = float(np.max(ts))
    mu = np.trace(A) / n
    B = np.array(A, dtype=complex)
    B.flat[:: n + 1] -= mu
    reach = float(np.linalg.norm(B, 1)) * t_max
    m, q = 0, 1
    if reach > 0:
        m, q = min(
            ((deg, math.ceil(reach / theta)) for deg, theta in _TAYLOR_THETA.items()),
            key=lambda mq: mq[0] * mq[1],
        )
    dense_reach = float(np.linalg.norm(A, 1)) * t_max
    squarings = max(0, math.ceil(math.log2(dense_reach / 5.4))) if dense_reach > 0 else 0
    v = np.asarray(v, dtype=complex)
    F = np.empty((n, ts.size), dtype=complex)
    F[:, ts == 0] = v[:, None]
    cols = np.flatnonzero(ts > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        if m * q >= (8 + squarings) * n:
            import scipy.linalg  # deferred, as in expm

            chunk = max(1, _EXPM_CHUNK // (n * n))
            for at in (cols[lo:lo + chunk] for lo in range(0, cols.size, chunk)):
                F[:, at] = (scipy.linalg.expm(ts[at][:, None, None] * A) @ v).T
        elif cols.size:
            F[:, cols] = _taylor_walk(B, mu, v, ts[cols], m, q, t_max / q)
    if not np.all(np.isfinite(F)):
        raise AccuracyError(
            f"matrix exponential action overflowed (input norm {t_max * operator_norm(A):.3e})"
        )
    return F


def _taylor_walk(B, mu, v, ts, m, q, h):
    """exp(t_k (B + mu I)) v for positive times ts in (0, q h], m terms per step h.

    One forward walk from v, whatever the order of the times: step j starts
    from w_j = exp(j h (B + mu I)) v and takes the powers
    p_i = B^i w_j, one matrix-vector product each.  A time t_k in that step,
    at r_k = t_k - j h in [0, h], is e^{mu r_k} sum_i (r_k^i / i!) p_i: one
    (n x (i+1)) @ ((i+1) x K_j) product for the K_j times of the step, and
    w_{j+1} is its column at r = h.  Each column's sum may stop at the first
    i where its last two terms, (r_k^i / i!) ||p_i||_inf and the one before,
    add up to at most u ||F_k||_inf, and the step stops when every column
    may (_taylor_sum).
    """
    steps = np.minimum(ts // h, q - 1).astype(int)
    last = int(steps.max())
    F = np.empty((v.size, ts.size), dtype=complex)
    P = np.empty((m + 1, v.size), dtype=complex)
    sizes = np.empty(m + 1)
    w = v
    for j in range(last + 1):
        here = np.flatnonzero(steps == j)
        r = ts[here] - j * h
        if j < last:
            r = np.append(r, h)
        P[0] = w
        sizes[0] = np.abs(w).max()
        coef = np.ones((m + 1, r.size))
        np.cumprod(r / np.arange(1, m + 1)[:, None], axis=0, out=coef[1:])
        S = _taylor_sum(B, P, sizes, coef)
        S *= np.exp(mu * r)
        F[:, here] = S[:, : here.size]
        w = S[:, -1]
    return F


def _taylor_sum(B, P, sizes, coef):
    """sum_{i <= k} coef_i p_i over the powers p_i = B^i p_0 (rows of P), stopped at
    the first k where the two-stage test passes for every column, else at m.

    The test at i: the tail coef_{i-1} ||p_{i-1}||_inf + coef_i ||p_i||_inf is
    at most u sum_{l <= i} coef_l ||p_l||_inf (sizes @ coef, an upper bound of
    ||F_k||_inf), and then at most u ||F_k||_inf of the formed partial sum.
    The powers are taken _POWER_BLOCK at a time, each B @ p_{i-1} as one
    product, and their sizes in one call per block.  A running sum (cumsum)
    then screens the block's first stages at once: the terms are
    nonnegative, so any order of summing them, BLAS's or cumsum's, lies
    within a relative rank_cutoff(m + 1, 1) of the true sum, and an index
    the padded screen fails is one the exact first stage fails too.  The
    exact test runs only at the indices the screen passes, so the stopping
    index, and with it every value, is the one a term-by-term walk gives.
    A block may take up to _POWER_BLOCK - 1 powers past the stop.
    """
    m = len(P) - 1
    # Once they underflow, u * sum and the screen's product each round by up
    # to half the smallest subnormal: tiny, two of them, covers both.
    screen, tiny =_UNIT_ROUNDOFF * (1 + 2 * rank_cutoff(m + 1, 1.0)), 2.0**-1073
    for lo in range(1, m + 1, _POWER_BLOCK):
        hi = min(lo + _POWER_BLOCK, m + 1)
        for i in range(lo, hi):
            P[i] = B @ P[i - 1]
        sizes[lo:hi] = np.abs(P[lo:hi]).max(axis=1)
        terms = sizes[:hi, None] * coef[:hi]
        tails = terms[lo - 1:hi - 1] + terms[lo:hi]
        passes = (tails <= screen * np.cumsum(terms, axis=0)[lo:hi] + tiny).all(axis=1)
        for i in lo + np.flatnonzero(passes):
            tail = tails[i - lo]
            if (tail <= _UNIT_ROUNDOFF * (sizes[: i + 1] @ coef[: i + 1])).all():
                S = P[: i + 1].T @ coef[: i + 1]
                if (tail <= _UNIT_ROUNDOFF * np.linalg.norm(S, np.inf, axis=0)).all():
                    return S
    return P.T @ coef


def chebyshev_grid(n=65):
    """n Chebyshev-spaced points on [0, 1], endpoints included.

    n follows the count rule (linops.checked_count) with at least 2 points:
    65.0 gives 65 points, and 2.5, nan, inf or '65' raise ParameterError.
    """
    count = checked_count(n, "grid size", 2)
    k = np.arange(count)
    return (1 - np.cos(math.pi * k / (count - 1))) / 2


def checked_grid(grid):
    """The one grid rule: grid as a float array of at least 2 strictly
    increasing real times within [0, 1], else ParameterError, a ragged,
    complex or non-numeric grid included (linops._numeric_array); None gives
    chebyshev_grid().  solve_bvp and spectral.per_mode_oracle read it, so
    every time their exponentials see is finite and t, 1 - t >= 0.
    """
    if grid is None:
        return chebyshev_grid()
    ts = _numeric_array(grid, True, ParameterError, "grid")
    if not (ts.ndim == 1 and len(ts) >= 2 and np.all(np.diff(ts) > 0)
            and ts[0] >= 0 and ts[-1] <= 1):
        raise ParameterError("grid must be 1-D, >= 2 points, strictly increasing within [0, 1]")
    return ts


@dataclass(frozen=True, eq=False)
class BvpProblem(QuadraticPencil):
    """The pencil of u'' - 2Tu' - Su = 0 with boundary values u0 and u1.

    Construction only validates the data: T and S by the matrix rule, u0 and
    u1 by the vector rule (linops.checked_vector), so boundary data that is
    not finite or not of length n raises ParameterError here.  The root
    R = (T^2 + S)^{1/2} is the pencil's (QuadraticPencil.root), taken on
    first read, so factorize and solve_bvp given one problem root Upsilon
    once.  ||T R - R T|| must be small to solve, since the closed formulas
    rely on Z1 Z2 = Z2 Z1.
    solve_bvp decides that test with norm_at_most, from the Frobenius norm
    where it can; commutation_residual, the exact ||T R - R T|| that the CLI
    solve-bvp report carries, is one SVD taken on first read.
    """

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        for name in ("u0", "u1"):
            u = checked_vector(getattr(self, name), self.dim, f"boundary vectors: {name}")
            object.__setattr__(self, name, u)

    @cached_property
    def commutation_residual(self):
        return float(operator_norm(self._commutator()))

    def _commutator(self):
        A, R = self.T.matrix, self.root.matrix
        return A @ R - R @ A


@dataclass(frozen=True, eq=False)
class BvpSolution:
    """Samples of u on a grid, the boundary coefficients x0 and x1, the
    boundary and ODE residuals, and, for an oracle, its gap to solve_bvp."""

    grid: np.ndarray
    values: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    boundary_residual: float
    ode_residual: float
    oracle_gap: float | None = None


def _factor_actions(z1, z2, x0, x1, ts):
    """Columns x(t) = exp(-(1-t) Z1) x0 and y(t) = exp(t Z2) x1; u(t) = x(t) + y(t)."""
    ts = np.asarray(ts, dtype=float)
    return _expm_actions(-z1, x0, 1 - ts), _expm_actions(z2, x1, ts)


def _residual_scale(p, x0, x1):
    return (1 + 2 * p.T.norm + p.S.norm) * (
        1 + float(np.linalg.norm(x0)) + float(np.linalg.norm(x1))
    )


def solve_bvp(p, grid=None):
    """Boundary-fitted exponential solution of u'' - 2Tu' - Su = 0.

    x0 and x1 are taken from the closed formulas through (I - e^{-2R})^{-1},
    whose right-hand sides read e^{Z2} u0 and e^{-Z1} u1 as exponential
    actions.  boundary_residual is max(||u(0) - u0||, ||u(1) - u1||) on the
    values the solve writes, so a wrong sign, a swapped coefficient or a
    wrong action shows there.  Near-singular I - e^{-2R} is a resonance
    (non-uniqueness of the two-point problem) and raises ResonanceError:
    sigma_min(I - e^{-2R}) at most tolerance("resonance") * max(1, n).
    That SVD is taken only when _resonance_excluded cannot certify, from one
    Cholesky factorization of Re R, that sigma_min exceeds the threshold,
    which it can for any R with lambda_min(Re R) above about half the
    threshold (Lumer-Phillips).  Only ||T|| and ||S|| are then taken by SVD,
    for the commutation tolerance and the ODE residual's scale.  grid
    follows the grid rule (checked_grid); None gives the 65-point Chebyshev
    grid.
    """
    ts = checked_grid(grid)
    tol = tolerance("bvp-commutation") * p.scale
    if not norm_at_most(p._commutator(), tol):
        raise HypothesisError(
            f"T does not commute with the pencil root: residual "
            f"{p.commutation_residual:.3e} > tol {tol:.3e}"
        )
    R = p.root.matrix
    z1 = p.T.matrix + R
    z2 = p.T.matrix - R
    n = p.dim
    M = np.eye(n) - expm(-2 * R)
    threshold = tolerance("resonance") * max(1, n)
    if not _resonance_excluded(R, threshold):
        smin = np.linalg.svd(M, compute_uv=False)[-1] if n else 1.0
        if smin <= threshold:
            raise ResonanceError(
                f"I - exp(-2 R) is singular to working precision "
                f"(sigma_min = {smin:.3e}); the two-point problem is resonant"
            )
    # One factorization of M for both coefficients: their right-hand sides,
    # u1 - e^{Z2} u0 and u0 - e^{-Z1} u1, are the two columns of one solve.
    rhs = np.stack([
        p.u1 - _expm_actions(z2, p.u0, [1.0])[:, 0],
        p.u0 - _expm_actions(-z1, p.u1, [1.0])[:, 0],
    ], axis=1)
    x0, x1 = np.linalg.solve(M, rhs).T
    # The boundary residual reads u(0) and u(1) from the actions that write
    # the values; an end the grid lacks is one more action time.
    times = np.union1d(ts, (0.0, 1.0))
    X, Y = _factor_actions(z1, z2, x0, x1, times)
    boundary_residual = max(float(np.linalg.norm(X[:, 0] + Y[:, 0] - p.u0)),
                            float(np.linalg.norm(X[:, -1] + Y[:, -1] - p.u1)))
    at = np.searchsorted(times, ts)
    X, Y = X[:, at], Y[:, at]
    # The ODE check points are grid points, so their x(t), y(t) are already
    # here: at most 16 interior ones, spread over (0, 1) by index.
    inner = np.flatnonzero((ts > 0) & (ts < 1)) if len(ts) > 2 else np.arange(2)
    check = inner[np.linspace(0, inner.size - 1, min(16, inner.size)).astype(int)]
    scale = _residual_scale(p, x0, x1)
    resid = _ode_residual_analytic(z1, z2, X[:, check], Y[:, check], p, scale)
    return BvpSolution(
        grid=ts, values=(X + Y).T, x0=x0, x1=x1,
        boundary_residual=boundary_residual, ode_residual=resid,
    )


def _resonance_excluded(R, threshold):
    """Whether one Cholesky factorization certifies that the computed
    sigma_min(I - e^{-2R}) exceeds threshold, with no SVD.

    For any R, ||e^{-2R}|| <= e^{-2 lambda_min(Re R)} (Lumer-Phillips; Pazy,
    Semigroups of Linear Operators, 1983), so lambda_min(Re R) >= c' gives
    sigma_min(I - e^{-2R}) >= 1 - e^{-2c'}.  c' = -log1p(-(threshold + a)) / 2
    puts that at threshold + a, the allowance a = rank_cutoff(n, 2 + 2 ||R||_F)
    covering the rounding of the computed M = I - e^{-2R} and of its SVD at
    the scale ||M|| <= 2, and that of the computed exponential at the scale
    of the exponent 2R: e^{-2tR} is then a contraction, so the exponential's
    Frechet derivative at -2R has norm at most 1, and the backward error of
    scaling and squaring, a multiple of u ||2R||, reaches e^{-2R} no larger.
    _re_part_exceeds tests Re(R/s) - (c'/s + rank_cutoff(n, ||R/s||_F)) I in
    the power-of-two unit s of R, the second term covering the Cholesky
    backward error.  When threshold + a >= 1 no c' exists (as under
    --tol-override resonance=1e3), and neither does a certificate at n = 0:
    the caller takes the SVD.
    """
    n = len(R)
    if n == 0:
        return False
    s = _power_of_two_unit(R)
    X = _in_units(R, s)
    fro = float(np.linalg.norm(X))
    allowance = threshold + rank_cutoff(n, 2 + 2 * s * fro)
    if not allowance < 1:
        return False
    c = -0.5 * math.log1p(-allowance)
    return _re_part_exceeds(X, c / s + rank_cutoff(n, fro))


def _ode_residual_analytic(z1, z2, X, Y, p, scale):
    """Max ||u'' - 2Tu' - Su|| / scale over the check points, analytic derivatives.

    X and Y hold x(t) = e^{-(1-t)Z1} x0 and y(t) = e^{tZ2} x1 as columns, one
    per check point.  The derivatives are u' = Z1 x + Z2 y and
    u'' = Z1^2 x + Z2^2 y, so the defect is [R, T](x - y) + (R^2 - Upsilon)(x + y)
    and vanishes in the commuting case.  It checks the hypotheses, not the
    values: a wrong X or Y leaves it as small.  The grid rule gives at least
    one check point: both points of a 2-point grid, else up to 16 interior
    ones spread over the grid by index.
    """
    du = z1 @ X + z2 @ Y
    ddu = z1 @ (z1 @ X) + z2 @ (z2 @ Y)
    defect = ddu - 2 * (p.T.matrix @ du) - p.S.matrix @ (X + Y)
    return float(np.max(np.linalg.norm(defect, axis=0))) / scale


def fd_oracle(p, n_points):
    """Second-order central-difference discretization, solved as one system.

    n_points follows the count rule (linops.checked_count), at least 16.
    Interior nodes t_i = i h with h = 1/n_points; row i couples
    (I/h^2 + T/h) u_{i-1} + (-2I/h^2 - S) u_i + (I/h^2 - T/h) u_{i+1} = 0
    with boundary values moved to the right-hand side.  The block-tridiagonal
    system has 2n - 1 sub- and superdiagonals, so it is stored in LAPACK band
    form and solved by one banded LU (scipy.linalg.solve_banded); the
    discrete residual is formed block by block.  oracle_gap is the max grid
    distance to solve_bvp(p, grid) on the same grid (O(h^2)); that solve reads
    the problem's cached root.  A 0x0 problem has no unknowns: its solution
    is the trivial one solve_bvp returns, at gap 0.
    """
    n_points = checked_count(n_points, "n_points", 16)
    n = p.dim
    grid = np.linspace(0.0, 1.0, n_points + 1)
    if n == 0:
        # No band to store: its width 2n - 1 would be -1.
        empty = np.zeros(0, dtype=complex)
        return BvpSolution(
            grid=grid, values=np.zeros((grid.size, 0), dtype=complex), x0=empty, x1=empty,
            boundary_residual=0.0, ode_residual=0.0, oracle_gap=0.0,
        )
    import scipy.linalg  # deferred, as in expm

    m = n_points - 1
    h = 1.0 / n_points
    eye = np.eye(n)
    lower = eye / h**2 + p.T.matrix / h
    diag = -2 * eye / h**2 - p.S.matrix
    upper = eye / h**2 - p.T.matrix / h
    # Band storage: entry (r, c) of the system sits at band[width + r - c, c].
    # Block (i, i + s) puts entry (a, b) at r - c = a - b - s n, c = (i + s) n + b.
    width = 2 * n - 1
    band = np.zeros((2 * width + 1, m * n), dtype=complex)
    a, b = np.arange(n)[:, None], np.arange(n)[None, :]
    for s, block, first, last in ((-1, lower, 0, m - 1), (0, diag, 0, m), (1, upper, 1, m)):
        c = np.arange(first, last)[:, None, None] * n + b
        band[width + a - b - s * n, c] = block
    rhs = np.zeros((m, n), dtype=complex)
    rhs[0] = -(lower @ p.u0)
    rhs[-1] = -(upper @ p.u1)
    try:
        flat = scipy.linalg.solve_banded((width, width), band, rhs.ravel())
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"discrete boundary system unsolvable: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ResonanceError("discrete boundary system is singular (non-finite solve)")
    interior = flat.reshape(m, n)
    values = np.vstack([p.u0[None, :], interior, p.u1[None, :]])
    resid = interior @ diag.T - rhs
    resid[1:] += interior[:-1] @ lower.T
    resid[:-1] += interior[1:] @ upper.T
    discrete_residual = float(np.linalg.norm(resid)) / (1 + float(np.linalg.norm(rhs)))
    exact = solve_bvp(p, grid).values
    gap = float(np.max(np.linalg.norm(values - exact, axis=1)))
    return BvpSolution(
        grid=grid, values=values,
        x0=np.zeros(n, dtype=complex), x1=np.zeros(n, dtype=complex),
        boundary_residual=0.0, ode_residual=discrete_residual, oracle_gap=gap,
    )
