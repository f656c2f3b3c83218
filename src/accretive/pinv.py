"""Moore-Penrose inverses, EP structure, and additive perturbation formulas.

The perturbation results all live on the same geometry: for an EP operator T
(range and row space coincide) and a perturbation S acting within that common
subspace, mapping into range(T) and vanishing on kernel(T), with a
contraction certificate ||T_pinv S|| < 1 or ||S T_pinv|| < 1, the
pseudoinverse of T + S is a Neumann-type update of T_pinv and keeps T's rank,
range, and kernel.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import AccuracyError, HypothesisError, ParameterError, PreconditionError
from .linops import _RADIUS_RTOL, _RADIUS_SOLVES, _UNIT_CIRCLE_GAP, _in_units, _same_shape
from .linops import (
    Operator,
    as_operator,
    checked_count,
    operator_norm,
    rank_cutoff,
    sectorial_angle,
)
from .tolerances import active_table, deferred, tolerance


@dataclass(frozen=True, eq=False)
class PinvResult:
    """SVD-truncated pseudoinverse with its rank decision made explicit."""

    pinv: np.ndarray
    rank: int
    singular_values: list
    gamma: float


def pseudoinverse(T):
    """Moore-Penrose inverse by SVD truncation.

    Singular values at or below rank_cutoff(dim, sigma_max), the rule of
    Operator.rank, are treated as zero; it is applied to the full SVD, so T
    is factored once.  gamma is the smallest retained singular value, the
    reduced minimum modulus 1/||pinv|| (infinite for the zero matrix).

    Raises ParameterError naming gamma when 1/gamma, P + P* or P - P* is not
    finite, with no RuntimeWarning: rank_cutoff scales with ||T||, so a T
    near the bottom of the float range can keep a singular value whose
    inverse overflows, and the pinv-accretive claim and the Cartesian parts
    of T^+ need this factor-2 headroom.
    """
    op = as_operator(T)
    n = op.dim
    if n == 0:
        return PinvResult(pinv=op.matrix.copy(), rank=0, singular_values=[], gamma=math.inf)
    U, s, Vh = op.svd
    keep = s > rank_cutoff(n, float(s[0]))
    rank = int(np.count_nonzero(keep))
    gamma = float(s[keep][-1]) if rank else math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        P = (Vh[keep].conj().T / s[keep]) @ U[:, keep].conj().T
        finite = math.isfinite(1 / gamma) and np.isfinite([P + P.conj().T, P - P.conj().T]).all()
    if not finite:
        raise ParameterError(f"the pseudoinverse overflows: gamma = {gamma:.3e}")
    return PinvResult(pinv=P, rank=rank, singular_values=[float(v) for v in s], gamma=gamma)


def penrose_residuals(T, P):
    """The four Penrose identity residuals for a claimed pseudoinverse P;
    ParameterError when P's shape is not T's (_same_shape)."""
    A, B = _same_shape(T, P)
    TP, PT = A @ B, B @ A
    return {
        "TPT": operator_norm(TP @ A - A),
        "PTP": operator_norm(PT @ B - B),
        "TP_hermitian": operator_norm(TP - TP.conj().T),
        "PT_hermitian": operator_norm(PT - PT.conj().T),
    }


@dataclass(frozen=True)
class PerturbationCertificate:
    """Checkable hypotheses for the additive pseudoinverse update.

    mode is "both" when range(S) sits inside range(T), S vanishes on
    kernel(T), and ||T_pinv S|| < 1, the contraction that the returned
    formula and perturbation_bound read; it is "fail" otherwise.
    ||S T_pinv|| (contraction_STd) is recorded but not required: the two
    products share their nonzero spectrum, so either contraction makes both
    resolvents invertible.  One inclusion alone does not make the update
    formula give (T + S)^+: T = diag(1, 0) with S = [[0.1, 0.2], [0, 0]]
    meets only the range pair, and its transpose only the kernel pair.  For
    EP T and accretive S the range pair implies the kernel pair, since
    N(S) = N(S*).  norm_over_gamma records the informational ratio
    ||S|| / gamma(T); it is not a hypothesis.

    The residuals, contraction_TdS, mode and norm_over_gamma are computed by
    perturbation_certificate.  contraction_STd, theta and s_accretive, which
    no hypothesis reads, are computed on first read, once, under the
    tolerance table active when the certificate was built (tolerance_table).
    pinv_result keeps the pseudoinverse of T the certificate was computed
    from, so perturbed_pinv does not factor T again, and perturbation the
    Operator of S; as_dict leaves them out.
    """

    range_inclusion_residual: float
    kernel_inclusion_residual: float
    contraction_TdS: float
    mode: str
    norm_over_gamma: float
    pinv_result: PinvResult = field(repr=False, compare=False)
    perturbation: Operator = field(repr=False, compare=False)
    tolerance_table: dict = field(default_factory=active_table, init=False, repr=False,
                                  compare=False)

    @deferred
    def contraction_STd(self):
        """||S T_pinv||."""
        return operator_norm(self.perturbation.matrix @ self.pinv_result.pinv)

    @deferred
    def theta(self):
        """The sectorial angle of S when S is accretive (pi/2 when accretive
        but not sectorial), None otherwise."""
        return sectorial_angle(self.perturbation)[0]

    @deferred
    def s_accretive(self):
        """Whether S is accretive: theta is not None."""
        return self.theta is not None

    def as_dict(self):
        """The eight reported keys, in _REPORTED's order; reading them computes the deferred ones."""
        return {name: getattr(self, name) for name in _REPORTED}


# PerturbationCertificate.as_dict's keys, in report order.
_REPORTED = (
    "range_inclusion_residual",
    "kernel_inclusion_residual",
    "contraction_TdS",
    "contraction_STd",
    "mode",
    "s_accretive",
    "theta",
    "norm_over_gamma",
)


def perturbation_certificate(T, S, tol=None):
    """Residuals and contraction norms for the perturbation hypotheses.

    A failed mode is recorded, never raised.  theta, the sectorial angle of
    S, and ||S T_pinv|| are computed when first read (PerturbationCertificate).
    """
    T, S = as_operator(T), as_operator(S)
    A, B = _same_shape(T, S)
    s_norm = S.norm
    if tol is None:
        tol = tolerance("inclusion-residual") * max(1.0, s_norm)
    res = pseudoinverse(T)
    P = res.pinv
    eye = np.eye(A.shape[0])
    r_range = operator_norm((eye - A @ P) @ B)
    r_kernel = operator_norm(B @ (eye - P @ A))
    c_tds = operator_norm(P @ B)
    mode = "both" if max(r_range, r_kernel) <= tol and c_tds < 1 else "fail"
    ratio = s_norm / res.gamma if math.isfinite(res.gamma) else 0.0
    return PerturbationCertificate(
        range_inclusion_residual=float(r_range),
        kernel_inclusion_residual=float(r_kernel),
        contraction_TdS=float(c_tds),
        mode=mode,
        norm_over_gamma=float(ratio),
        pinv_result=res,
        perturbation=S,
    )


def perturbation_bound(cert):
    """The bound ||(T + S)^+ - T^+|| <= ||S|| ||T^+||^2 / (1 - ||T^+ S||).

    cert is the certificate of (T, S): S is its perturbation, and ||T^+||
    is 1/gamma of its pseudoinverse of T, which the SVD of T already gives.
    A bound beyond the float range raises AccuracyError: an infinite bound
    would pass any claim against it.
    """
    pn = 1 / cert.pinv_result.gamma
    try:
        bound = cert.perturbation.norm * pn**2 / (1 - cert.contraction_TdS)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise AccuracyError(f"perturbation bound overflows: ||T^+|| = {pn:.3e}")
    return bound


def perturbed_pinv(T, S, cert=None):
    """Pseudoinverse of T + S by the certified update formula.

    Returns (I + T_pinv S)^{-1} T_pinv.  The dual form
    T_pinv (I + S T_pinv)^{-1} is computed as well and the two are required to
    agree; under a valid certificate both resolvents exist because the two
    products share their nonzero spectrum.  A singular resolvent, or a gap
    between the routes above tolerance("update-route-gap") * max(1, ||T_pinv||),
    raises AccuracyError.  A given cert must be the certificate of (T, S):
    its pseudoinverse of T is reused.
    """
    T, S = as_operator(T), as_operator(S)
    if cert is None:
        cert = perturbation_certificate(T, S)
    if cert.mode == "fail":
        raise HypothesisError(
            "perturbation hypotheses unmet: "
            f"range residual {cert.range_inclusion_residual:.3e}, "
            f"kernel residual {cert.kernel_inclusion_residual:.3e}, "
            f"contractions {cert.contraction_TdS:.3f} / {cert.contraction_STd:.3f}"
        )
    res = cert.pinv_result
    A, B, P = T.matrix, S.matrix, res.pinv
    eye = np.eye(A.shape[0])
    try:
        F_range = np.linalg.solve(eye + P @ B, P)
        F_kernel = np.linalg.solve((eye + B @ P).conj().T, P.conj().T).conj().T
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(
            "resolvent singular despite contraction certificate; "
            "this contradicts the spectral-radius argument"
        ) from exc
    gap = operator_norm(F_range - F_kernel)
    # ||T_pinv|| = 1 / gamma
    if gap > tolerance("update-route-gap") * max(1.0, 1.0 / res.gamma):
        raise AccuracyError(f"update formula routes disagree: gap = {gap:.3e}")
    return F_range


def neumann_identity_check(T, S, k):
    """Deviation of the order-k Neumann partial sum from the exact update.

    Returns ||(I + T_pinv S)^{-1} T_pinv - sum_{n<=k} (-T_pinv S)^n T_pinv||,
    which the geometric tail bounds by c^{k+1} ||T_pinv|| / (1 - c) with
    c = ||T_pinv S||.  k follows the count rule (linops.checked_count), at
    least 0, so 2.5 raises ParameterError rather than running order 2, and
    S of another shape than T raises ParameterError (_same_shape).
    """
    A, B = _same_shape(T, S)
    k = checked_count(k, "k", 0)
    P = pseudoinverse(A).pinv
    C = P @ B
    c = operator_norm(C)
    if c >= 1:
        raise PreconditionError(f"contraction ||T_pinv S|| = {c:.6f} >= 1")
    eye = np.eye(A.shape[0])
    exact = np.linalg.solve(eye + C, P)
    partial = P.copy()
    for _ in range(k):
        partial = P - C @ partial
    return float(operator_norm(exact - partial))


def second_power_inequalities(T):
    """Kato's second-power bounds, decided over every vector, not sampled.

    Kato (Adv. Math. 7, 1971) proves ||Tx||^2 <= 2 ||x|| ||T^2 x|| for
    m-accretive T, with the constant 2 sharp, and the modulus bound
    gamma(T^2) >= gamma(T)^2 / 2 follows.  Returns two keys:
    vector_violation, a bracket (lo, hi) of sup (||Tx||^2 - 2 ||T^2 x||) over
    unit x, relative to max(1, ||T||^2): hi <= 0 certifies the vector bound
    for every x, lo > 0 is a violation, since lo is attained up to rounding,
    and hi = +inf leaves it undecided; and gamma_bound_slack =
    (gamma(T^2) - gamma(T)^2 / 2) / ||T||^2, negative when violated (inf
    for T = 0).  Both figures have degree 2; the slack's unit ||T||^2 makes
    it one figure for T and cT, representable wherever ||T||^2 is.

    Everything is solved on A = T / s, s the power of two of T that its
    W(T) polygon is solved in (Operator._unit), where A^2 and the pencil's
    B = G* G neither overflow nor underflow: the bracket is found in units
    of s and multiplied by s^2, and the slack is read in A's own units, as
    (gamma(A^2) - gamma(A)^2 / 2) / ||A||^2.  rank(T) and gamma(T)
    are read off T's singular values (Operator.rank), and rank(T^2),
    gamma(T^2) and the right singular vectors V off the one full SVD of
    A^2, by the same rank rule; no pseudoinverse is formed.

    If rank(T^2) < rank(T), T moves some unit x of kernel(T^2), and the
    excess is taken at the one it stretches most.  Above 0, it is a
    violation with bracket (that excess, ||T||^2).  At or below 0, every
    unit x of kernel(T^2) has excess at most 2 rank_cutoff(n, ||T^2||),
    which the rank rule reads as 0, and kernel(T^2) is read as kernel(T).
    On the complement, spanned by the leading columns Q of V, the bracket
    is the level-set test of Kato's quadratic pencil (_pencil_ends) on
    F = AQ and G = A^2 Q.  It is at most _RADIUS_RTOL max(1, ||T||^2) wide
    when it closes, up to rounding.  Adding z in kernel(T) to such x
    changes neither Tx nor T^2 x and only lengthens x, so vectors in
    kernel(T^2) add 0: over all unit x the sup is max(0, .) of the bracket
    when T^2 is singular.

    The domain is T = 0 and every T whose ||T||^2 is a normal float
    (||T|| from about 1.5e-154 to 1.3e154); elsewhere the figures relative
    to max(1, ||T||^2) are not representable (1e-160 T would read 0 for a
    violation), and ParameterError naming ||T|| is raised, with no
    RuntimeWarning.  Inside it, no violation reads hi <= 0, at any n: its
    upper end is at least _RADIUS_RTOL max(1, ||F||^2) in units of s, so
    hi s^2 >= _RADIUS_RTOL max(s^2, ||TQ||^2) before the division by
    max(1, ||T||^2).  ||TQ|| is ||T|| up to the rank rule, since Q spans
    the complement of kernel(T^2), read as kernel(T), so that is at least
    about _RADIUS_RTOL 2^-1022, a nonzero subnormal; the kernel step's
    upper end is ||T||^2 itself.
    """
    op = as_operator(T)
    norm_sq = op.norm * op.norm
    # 2^-1022 is the least normal float.
    if op.norm and not math.ldexp(1.0, -1022) <= norm_sq < math.inf:
        raise ParameterError(f"Kato's second power needs a normal ||T||^2: ||T|| = {op.norm:.3e}")
    s = op._unit
    A = _in_units(op.matrix, s)
    sq = A @ A
    _, sv, Vh = np.linalg.svd(sq)
    rank = int(np.count_nonzero(sv > rank_cutoff(op.dim, sv.max(initial=0.0))))
    V = Vh.conj().T
    lo = -math.inf
    if rank < op.rank:
        # The unit x of kernel(T^2) that T stretches most.
        x = V[:, rank:] @ np.linalg.svd(A @ V[:, rank:])[2][0].conj()
        lo = float(np.linalg.norm(A @ x) ** 2 - 2 * np.linalg.norm(sq @ x))
    ends = (lo, norm_sq / s / s) if lo > 0 else _pencil_ends(A, V[:, :rank])
    lo, hi = (end * s * s / max(1.0, norm_sq) for end in ends)
    gamma = op.singular_values[op.rank - 1] / s if op.rank else math.inf
    gamma_sq = sv[rank - 1] if rank else math.inf
    slack = (gamma_sq - gamma * gamma / 2) / (op.norm / s) ** 2 if op.rank else math.inf
    return {"vector_violation": (lo, hi), "gamma_bound_slack": float(slack)}


def _pencil_ends(T, Q):
    """(lo, hi) with lo <= sup (||Fy||^2 - 2 ||Gy||) over unit y <= hi, up to
    rounding, for F = TQ and G = TF, Q with orthonormal columns.

    With A = F* F and B = G* G, Kato's quadratic pencil
    Q_c(mu) = mu^2 I - mu (A - cI) + B has y* Q_c(mu) y >= 0 for every
    mu >= 0 exactly when ||Fy||^2 - 2 ||Gy|| <= c (the minimum over mu is at
    mu = (||Fy||^2 - c) / 2), for unit y: the sup is at most c exactly when
    Q_c(mu) is positive semidefinite for every mu >= 0 (Higham, Tisseur &
    Van Dooren, LAA 351-352, 2002).  Q_c(0) = B is positive definite on
    the complement of the kernel, so lambda_min(Q_c(mu)) changes sign only
    at a real root mu > 0 of det Q_c, an eigenvalue of the companion matrix
    [[0, I], [-B, A - cI]]; a root counts as real when
    |Im mu| <= _UNIT_CIRCLE_GAP |mu|.  Q_c(mu) and Q_0(mu) differ by mu c I,
    so they share the bottom eigenvector y of each probe mu, whose excess,
    measured directly, is attained; where lambda_min(Q_c(mu)) < 0 it exceeds
    c.  lo starts as the largest excess at mu = |root| over the roots of
    Q_0 with Re mu > 0.  Each round then sets c = lo + _RADIUS_RTOL
    max(1, ||F||^2), capped at 0 when lo <= 0: if Q_c has no real root,
    hi = c; otherwise the real roots and their geometric midpoints are
    probed and lo raised, as in the level-set iteration of Boyd &
    Balakrishnan (Systems & Control Letters 15, 1990).  The rounds stop
    when lo stops rising, or after _RADIUS_SOLVES of them; unclosed, hi is
    0 when lo <= 0 and Q_0 has no real root, else +inf.  An empty Q, over
    which the sup is -inf, gives (-inf, -inf).
    """
    F = T @ Q
    G = T @ F
    A, B, eye = F.conj().T @ F, G.conj().T @ G, np.eye(Q.shape[1])
    width = _RADIUS_RTOL * max(1.0, operator_norm(F) ** 2)

    def roots(c):
        """The roots with Re mu > 0, and the real ones among them, ascending."""
        mu = np.linalg.eigvals(np.block([[0 * eye, eye], [-B, A - c * eye]]))
        mu = mu[mu.real > 0]
        return mu, np.sort(mu[np.abs(mu.imag) <= _UNIT_CIRCLE_GAP * np.abs(mu)].real)

    def probe(mus):
        """The largest excess at the bottom eigenvectors of Q_0(mu), mu in mus."""
        ys = (np.linalg.eigh(t * t * eye - t * A + B)[1][:, 0] for t in mus)
        excess = (np.linalg.norm(F @ y) ** 2 - 2 * np.linalg.norm(G @ y) for y in ys)
        return float(max(excess, default=-math.inf))

    lo = probe(np.abs(roots(0.0)[0]))
    for _ in range(_RADIUS_SOLVES):
        c = lo + width if lo > 0 else min(lo + width, 0.0)
        mu = roots(c)[1]
        if not mu.size:
            return lo, c
        raised = probe(np.concatenate([mu, np.sqrt(mu[:-1] * mu[1:])]))
        if raised <= lo:
            break
        lo = raised
    return lo, 0.0 if lo <= 0 and not roots(0.0)[1].size else math.inf
