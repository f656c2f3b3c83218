"""Diagonal demonstration pipeline built from interval Laplacian modes.

The model truncates the Dirichlet eigenfunction expansion on the unit
interval, where the damping operator acts mode by mode as
t_j = (eta + i*eta1*lambda_j)*lambda_j with lambda_j = (j*pi)^2.  Every
pipeline operator is diagonal in this basis, so a scalar closed form per
mode serves as independent ground truth for the matrix solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvp import BvpProblem, BvpSolution, checked_grid, solve_bvp
from .errors import AccretiveError, ModelError, ParameterError, PreconditionError, ResonanceError
from .linops import checked_count, checked_vector
from .pencil import factorize
from .pinv import perturbation_certificate
from .tolerances import tolerance


@dataclass(frozen=True)
class LaplacianModel:
    """Mode-truncated damped evolution u'' - 2(eta - i*eta1*L)Lu' - xi*u = 0.

    eta and Re(xi) must be nonnegative for the first- and zero-order
    coefficients to be accretive; violations are reported by
    screen_failures() rather than raised, so infeasible parameter sets can
    still be inspected.  n_modes follows the count rule
    (linops.checked_count), at least 1.
    """

    eta: float
    eta1: float
    xi: complex
    n_modes: int

    def __post_init__(self):
        n = checked_count(self.n_modes, "n_modes", 1)
        for name in ("eta", "eta1"):
            val = getattr(self, name)
            if isinstance(val, complex) or not math.isfinite(float(val)):
                raise ParameterError(f"{name} must be a finite real, got {val!r}")
        xi = complex(self.xi)
        if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
            raise ParameterError(f"xi must be finite, got {self.xi!r}")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "eta1", float(self.eta1))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "n_modes", n)

    @property
    def eigenvalues(self):
        j = np.arange(1, self.n_modes + 1, dtype=float)
        return (j * math.pi) ** 2

    def mode_coefficients(self):
        lam = self.eigenvalues
        return (self.eta + 1j * self.eta1 * lam) * lam

    def screen_failures(self):
        """Accretivity screens; empty list means the model is feasible.

        The third screen guards T^2: Re(t_j^2) = (eta^2 - eta1^2 lam_j^2) lam_j^2
        goes negative once |eta1|*lam_j exceeds |eta|, and the square of the
        damping operator genuinely stops being accretive there; the moduli are
        compared unsquared, so no square overflows.
        """
        failures = []
        if self.eta < 0:
            failures.append(f"eta = {self.eta} < 0: damping coefficient not accretive")
        if self.xi.real < 0:
            failures.append(f"Re(xi) = {self.xi.real} < 0: zero-order coefficient not accretive")
        lam = self.eigenvalues
        bad = np.flatnonzero(abs(self.eta1) * lam > abs(self.eta))
        if bad.size:
            j = int(bad[0]) + 1
            failures.append(
                f"Re(t_j^2) < 0 from mode j={j}: "
                f"|eta1|*lambda_j = {abs(self.eta1) * lam[bad[0]]:.6g} exceeds eta = {self.eta}"
            )
        return failures

    @property
    def feasible(self):
        return not self.screen_failures()

    def as_dict(self):
        return {
            "eta": self.eta,
            "eta1": self.eta1,
            "xi": [self.xi.real, self.xi.imag],
            "n_modes": self.n_modes,
            "feasible": self.feasible,
            "screen_failures": self.screen_failures(),
        }


def build_operators(m):
    """Diagonal damping operator T = diag(t_j) and zero-order S = xi*I."""
    failures = m.screen_failures()
    if failures:
        raise ModelError("model infeasible: " + "; ".join(failures))
    T = np.diag(m.mode_coefficients()).astype(complex)
    S = m.xi * np.eye(m.n_modes, dtype=complex)
    return T, S


def condition_check(m):
    """Modulus summability test sum_j 1/|t_j|^2 < 1/|xi|, tail-bounded.

    Returns (verdict, total) where total adds an upper bound for the
    discarded tail: |t_j|^2 >= eta^2 (j pi)^4 gives tail <= 1/(3 N^3 eta^2 pi^4)
    via the integral comparison, and |t_j|^2 >= eta1^2 (j pi)^8 gives
    1/(7 N^7 eta1^2 pi^8) when eta vanishes.  A true verdict makes
    ||S (T^2)^+|| = |xi| max_j |t_j|^{-2} < 1, the contraction the
    pseudoinverse update needs on (T^2, S).
    """
    if m.eta == 0 and m.eta1 == 0:
        raise PreconditionError("degenerate damping: eta = eta1 = 0 leaves T = 0")
    if m.xi == 0:
        raise PreconditionError("xi = 0: the condition compares against 1/|xi|")
    # A |t_j|^2 or eta^2 beyond the float range gives a zero term, and one that
    # underflows an infinite term: eta * eta overflows to inf where eta**2 raises.
    with np.errstate(over="ignore", divide="ignore"):
        partial = float(np.sum(1.0 / np.abs(m.mode_coefficients()) ** 2))
    N = m.n_modes
    if m.eta > 0:
        denom = 3 * N**3 * (m.eta * m.eta) * math.pi**4
    else:
        denom = 7 * N**7 * (m.eta1 * m.eta1) * math.pi**8
    total = partial + (1.0 / denom if denom else math.inf)
    return bool(total < 1.0 / abs(m.xi)), total


def per_mode_oracle(m, u0, u1, grid=None):
    """Assemble the solution mode by mode from the scalar closed form.

    Independent of the matrix solver: each mode fits a*e^{z1(t-1)} + b*e^{z2 t}
    with z = t_j +/- sqrt(t_j^2 + xi) through a direct 2x2 boundary solve.
    The scaled basis keeps every exponent nonpositive for accretive modes, so
    large |t_j| underflows instead of overflowing.  u0 and u1 follow the
    vector rule (linops.checked_vector: finite, n_modes entries) and grid the
    grid rule (bvp.checked_grid; None gives the Chebyshev grid), the rules
    BvpProblem and solve_bvp read, so malformed data raises ParameterError
    rather than giving NaN values or a mis-shaped array.
    """
    u0 = checked_vector(u0, m.n_modes, "boundary vectors: u0")
    u1 = checked_vector(u1, m.n_modes, "boundary vectors: u1")
    ts = checked_grid(grid)
    t = m.mode_coefficients()
    r = np.sqrt(t**2 + m.xi)
    z1, z2 = t + r, t - r
    # det [[e^{-z1}, 1], [1, e^{z2}]] = e^{-2r} - 1, the same quantity whose
    # matrix version sigma_min(I - e^{-2R}) gates the assembled solver.
    dets = np.abs(np.expm1(-2 * r))
    tol = tolerance("resonance") * max(1.0, m.n_modes)
    if np.min(dets) <= tol:
        j = int(np.argmin(dets)) + 1
        raise ResonanceError(f"mode j={j} boundary system singular: |e^(-2r)-1| = {dets[j-1]:.3e}")
    a = np.empty(m.n_modes, dtype=complex)
    b = np.empty(m.n_modes, dtype=complex)
    for j in range(m.n_modes):
        A = np.array([[np.exp(-z1[j]), 1.0], [1.0, np.exp(z2[j])]], dtype=complex)
        a[j], b[j] = np.linalg.solve(A, np.array([u0[j], u1[j]]))
    values = (a * np.exp(np.multiply.outer(ts - 1.0, z1))
              + b * np.exp(np.multiply.outer(ts, z2)))
    boundary_residual = float(max(
        np.linalg.norm(a * np.exp(-z1) + b - u0),
        np.linalg.norm(a + b * np.exp(z2) - u1),
    ))
    # z1, z2 are roots of z^2 - 2 t_j z - xi, so the defect coefficients are
    # analytically zero; what remains measures rounding in the root solve.
    c1 = z1**2 - 2 * t * z1 - m.xi
    c2 = z2**2 - 2 * t * z2 - m.xi
    scale = (1 + 2 * np.max(np.abs(t), initial=0.0) + abs(m.xi)) * (
        1 + np.linalg.norm(a) + np.linalg.norm(b))
    check = np.linspace(0.05, 0.95, 7)
    defect = (c1 * a * np.exp(np.multiply.outer(check - 1.0, z1))
              + c2 * b * np.exp(np.multiply.outer(check, z2)))
    ode_residual = float(np.max(np.linalg.norm(defect, axis=1)) / scale)
    return BvpSolution(
        grid=ts,
        values=values,
        x0=a,
        x1=b,
        boundary_residual=boundary_residual,
        ode_residual=ode_residual,
    )


def _stage(name, fn, *args, **kwargs):
    # The library's own errors (one-message constructors) are re-raised with
    # the failing pipeline stage prefixed and their type kept, so callers can
    # still dispatch on it; any other exception propagates as it was raised.
    try:
        return fn(*args, **kwargs)
    except AccretiveError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


def demo(m, u0, u1, grid=None, x_samples=33):
    """Full pipeline: screens, condition, build, factorize, solve, oracle.

    The screen stage builds the model's operators, refusing an infeasible
    model; the build stage makes one BvpProblem from them and the boundary
    data, and the problem's root is taken when factorize first reads it, so a
    failure to root Upsilon is labelled factorize.  The factorize and
    certificate stages read every field the report takes from them, so a
    field computed on first read fails under its own stage's label too.
    Returns a report dict including the synthesized field
    u(t, x) = sum_j u_j(t) * sqrt(2) sin(j pi x) on a uniform x grid of
    x_samples points.  x_samples follows the count rule
    (linops.checked_count), at least 2, and is checked before any stage:
    2.5 or '33' raises ParameterError.
    """
    x_samples = checked_count(x_samples, "x_samples", 2)

    def condition():
        ok, total = condition_check(m)
        if not ok:
            raise PreconditionError(
                f"modulus condition fails: {total:.6g} >= 1/|xi| = {1.0 / abs(m.xi):.6g}"
            )
        return total

    def factorization():
        fac = factorize(p)
        return {
            "separation": fac.separation,
            "separation_regime": fac.separation_regime,
            "sqrt_residual": fac.sqrt_residual,
            "z1_sector_angle": fac.z1_sector_angle,
            "warnings": list(fac.warnings),
        }

    T, S = _stage("screen", build_operators, m)
    total = _stage("condition", condition)
    # One problem serves every stage: factorize and the solve read its one root.
    p = _stage("build", BvpProblem, T, S, u0, u1)
    fac = _stage("factorize", factorization)
    sol = _stage("solve", solve_bvp, p, grid)
    oracle = _stage("oracle", per_mode_oracle, m, u0, u1, sol.grid)
    oracle_gap = float(np.max(np.abs(sol.values - oracle.values)))
    cert = _stage(
        "certificate",
        lambda: perturbation_certificate(p.T.matrix @ p.T.matrix, p.S).as_dict(),
    )
    xs = np.linspace(0.0, 1.0, x_samples)
    basis = math.sqrt(2.0) * np.sin(math.pi * np.outer(np.arange(1, m.n_modes + 1), xs))
    field = sol.values @ basis
    return {
        "model": m.as_dict(),
        "condition_sum": total,
        "condition_bound": 1.0 / abs(m.xi),
        "factorization": fac,
        "solution": sol,
        "oracle_gap": oracle_gap,
        "boundary_residual": sol.boundary_residual,
        "ode_residual": sol.ode_residual,
        "certificate": cert,
        "certificate_mode": cert["mode"],
        "x_grid": xs,
        "field": field,
    }
