"""Two-point boundary value problem u'' - 2Tu' - Su = 0 on [0, 1].

With R = (T^2 + S)^{1/2} commuting with T, the factor operators Z1 = T + R
and Z2 = T - R split the equation, and the unique solution through boundary
values u(0) = u0, u(1) = u1 is

    u(t) = exp(-(1-t) Z1) x0 + exp(t Z2) x1,

where x0 and x1 solve the boundary system.  Both exponents have the stable
orientation (decaying for accretive Z1 and the suite's Z2), so the formula is
evaluable without rescaling.

u(t) is evaluated through the actions x(t) = exp(-(1-t) Z1) x0 and
y(t) = exp(t Z2) x1 on all requested times at once: a truncated Taylor
recurrence on an n x K block (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
2011), never forming an n x n exponential per time.  Stiff factors, whose
Taylor work would reach that of a dense scaling-and-squaring exponential,
take the dense expm(t Z) @ v per time instead.  The boundary system still
needs three dense exponentials: exp(-2R), exp(Z2) and exp(-Z1).
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import AccuracyError, HypothesisError, ParameterError, ResonanceError
from .linops import checked_matrix, norm_at_most, operator_norm
from .pencil import QuadraticPencil
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


def _expm_actions(A, v, ts):
    """exp(t_k A) v for every t_k in ts, as the columns of an n x len(ts) array.

    Truncated Taylor recurrence on the shifted B = A - mu I, mu = trace(A)/n,
    run on all times at once: column k takes q steps of length t_k/q, and the
    degree m and step count q minimise m*q subject to
    ||B||_1 max|t_k| / q <= theta_m.  When that Taylor work, m*q*n^2 per time,
    reaches the ~(8 + s)*n^3 of a dense scaling-and-squaring exponential,
    s = ceil(log2(||t A||_1 / 5.4)), each column is scipy's expm(t_k A) @ v
    instead, without the input and output checks of expm: the one finiteness
    check of F covers every time.  t_k = 0 gives v exactly, with no call.
    Non-finite results raise AccuracyError.
    """
    ts = np.asarray(ts, dtype=float)
    n = A.shape[0]
    if n == 0 or ts.size == 0:
        return np.zeros((n, ts.size), dtype=complex)
    t_max = float(np.max(np.abs(ts)))
    mu = np.trace(A) / n
    B = A - mu * np.eye(n)
    reach = float(np.linalg.norm(B, 1)) * t_max
    m, q = 0, 1
    if reach > 0:
        m, q = min(
            ((deg, math.ceil(reach / theta)) for deg, theta in _TAYLOR_THETA.items()),
            key=lambda mq: mq[0] * mq[1],
        )
    dense_reach = float(np.linalg.norm(A, 1)) * t_max
    squarings = max(0, math.ceil(math.log2(dense_reach / 5.4))) if dense_reach > 0 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        if m * q >= (8 + squarings) * n:
            import scipy.linalg  # deferred, as in expm

            v = np.asarray(v, dtype=complex)
            F = np.stack([scipy.linalg.expm(t * A) @ v if t else v for t in ts], axis=1)
        else:
            steps = ts / q
            growth = np.exp(mu * steps)
            F = np.repeat(np.asarray(v, dtype=complex)[:, None], ts.size, axis=1)
            for _ in range(q):
                term = F
                prev = np.linalg.norm(term, np.inf, axis=0)
                for k in range(1, m + 1):
                    term = B @ term
                    term *= steps / k
                    size = np.linalg.norm(term, np.inf, axis=0)
                    F += term
                    if np.all(prev + size <= _UNIT_ROUNDOFF * np.linalg.norm(F, np.inf, axis=0)):
                        break
                    prev = size
                F *= growth
    if not np.all(np.isfinite(F)):
        raise AccuracyError(
            f"matrix exponential action overflowed (input norm {t_max * operator_norm(A):.3e})"
        )
    return F


def chebyshev_grid(n=65):
    """n Chebyshev-spaced points on [0, 1], endpoints included."""
    if n < 2:
        raise ParameterError(f"grid needs at least 2 points, got {n}")
    k = np.arange(n)
    return (1 - np.cos(math.pi * k / (n - 1))) / 2


@dataclass(frozen=True, eq=False)
class BvpProblem(QuadraticPencil):
    """The pencil of u'' - 2Tu' - Su = 0 with boundary values u0 and u1.

    Construction only validates the data.  The root R = (T^2 + S)^{1/2} is the
    pencil's (QuadraticPencil.root), taken on first read, so factorize and
    solve_bvp given one problem root Upsilon once.  ||T R - R T|| must be
    small to solve, since the closed formulas rely on Z1 Z2 = Z2 Z1.
    solve_bvp decides that test with norm_at_most, from the Frobenius norm
    where it can; commutation_residual, the exact ||T R - R T|| that the CLI
    solve-bvp report carries, is one SVD taken on first read.
    """

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        n = self.dim
        u0 = np.asarray(self.u0, dtype=complex).ravel()
        u1 = np.asarray(self.u1, dtype=complex).ravel()
        if u0.shape != (n,) or u1.shape != (n,):
            raise ParameterError(
                f"boundary vectors must have length {n}, "
                f"got {u0.shape[0]} and {u1.shape[0]}"
            )
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

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

    x0 and x1 are taken from the closed formulas through (I - e^{-2R})^{-1}
    and re-derived from the 2x2 block boundary system; the two routes must
    agree (AccuracyError otherwise), which pins the sign conventions
    independently of either derivation.  Near-singular I - e^{-2R} is a
    resonance (non-uniqueness of the two-point problem) and raises
    ResonanceError.
    """
    # Written as positive tests so that NaN, which fails every comparison, is refused.
    ts = chebyshev_grid() if grid is None else np.asarray(grid, dtype=float)
    if not (ts.ndim == 1 and len(ts) >= 2 and np.all(np.diff(ts) > 0)
            and ts[0] >= 0 and ts[-1] <= 1):
        raise ParameterError("grid must be strictly increasing within [0, 1]")
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
    eye = np.eye(n)
    M = eye - expm(-2 * R)
    smin = np.linalg.svd(M, compute_uv=False)[-1] if n else 1.0
    if smin <= tolerance("resonance") * max(1, n):
        raise ResonanceError(
            f"I - exp(-2 R) is singular to working precision "
            f"(sigma_min = {smin:.3e}); the two-point problem is resonant"
        )
    e_z2 = expm(z2)
    e_mz1 = expm(-z1)
    x0 = np.linalg.solve(M, -e_z2 @ p.u0 + p.u1)
    x1 = np.linalg.solve(M, p.u0 - e_mz1 @ p.u1)
    # Independent route: the raw boundary system, no inverse-of-M shortcut.
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = e_mz1
    block[:n, n:] = eye
    block[n:, :n] = eye
    block[n:, n:] = e_z2
    stacked = np.linalg.solve(block, np.concatenate([p.u0, p.u1]))
    route_gap = float(np.linalg.norm(np.concatenate([x0, x1]) - stacked))
    if route_gap > tolerance("dual-route") * (1 + np.linalg.norm(stacked)):
        raise AccuracyError(
            f"boundary-coefficient routes disagree by {route_gap:.3e}; "
            "sign conventions violated"
        )
    X, Y = _factor_actions(z1, z2, x0, x1, ts)
    b0 = e_mz1 @ x0 + x1 - p.u0
    b1 = x0 + e_z2 @ x1 - p.u1
    boundary_residual = max(float(np.linalg.norm(b0)), float(np.linalg.norm(b1)))
    # The ODE check points are grid points, so their x(t), y(t) are already here.
    check = np.flatnonzero((ts > 0) & (ts < 1))[:16] if len(ts) > 2 else slice(None)
    scale = _residual_scale(p, x0, x1)
    resid = _ode_residual_analytic(z1, z2, X[:, check], Y[:, check], p, scale)
    return BvpSolution(
        grid=ts, values=(X + Y).T, x0=x0, x1=x1,
        boundary_residual=boundary_residual, ode_residual=resid,
    )


def _ode_residual_analytic(z1, z2, X, Y, p, scale):
    """Max ||u'' - 2Tu' - Su|| / scale over the check points, analytic derivatives.

    X and Y hold x(t) = e^{-(1-t)Z1} x0 and y(t) = e^{tZ2} x1 as columns, one
    per check point.  The derivatives are u' = Z1 x + Z2 y and
    u'' = Z1^2 x + Z2^2 y, so the defect reduces to the commutator [T, R]
    applied to x - y and vanishes in the commuting case.
    """
    if X.shape[1] == 0:
        return 0.0
    du = z1 @ X + z2 @ Y
    ddu = z1 @ (z1 @ X) + z2 @ (z2 @ Y)
    defect = ddu - 2 * (p.T.matrix @ du) - p.S.matrix @ (X + Y)
    return float(np.max(np.linalg.norm(defect, axis=0))) / scale


def fd_oracle(p, n_points):
    """Second-order central-difference discretization, solved as one system.

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
    if n_points < 16:
        raise ParameterError(f"n_points must be >= 16, got {n_points}")
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
