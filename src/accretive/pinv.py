"""Moore-Penrose inverses, EP structure, and additive perturbation formulas.

The perturbation results all live on the same geometry: for an EP operator T
(range and row space coincide) and a perturbation S acting within that common
subspace, mapping into range(T) and vanishing on kernel(T), with a
contraction certificate ||T_pinv S|| < 1 or ||S T_pinv|| < 1, the
pseudoinverse of T + S is a Neumann-type update of T_pinv and keeps T's rank,
range, and kernel.
"""

from dataclasses import dataclass, field, fields
import math

import numpy as np

from .errors import AccuracyError, HypothesisError, ParameterError, PreconditionError
from .linops import (
    Operator,
    as_operator,
    checked_matrix,
    operator_norm,
    rank_cutoff,
    sectorial_angle,
)
from .tolerances import tolerance


@dataclass(frozen=True)
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
    finite (_with_headroom), with no RuntimeWarning: rank_cutoff scales with
    ||T||, so a T near the bottom of the float range can keep a singular
    value whose inverse overflows, and the pinv-accretive claim and the
    Cartesian parts of T^+ need the factor-2 headroom.
    """
    op = as_operator(T)
    n = op.dim
    if n == 0:
        return PinvResult(pinv=op.matrix.copy(), rank=0, singular_values=[], gamma=math.inf)
    U, s, Vh = op.svd
    keep = s > rank_cutoff(n, float(s[0]))
    rank = int(np.count_nonzero(keep))
    gamma = float(s[keep][-1]) if rank else math.inf
    P = _with_headroom(lambda: (Vh[keep].conj().T / s[keep]) @ U[:, keep].conj().T)
    if P is None or not math.isfinite(1 / gamma):
        raise ParameterError(f"the pseudoinverse overflows: gamma = {gamma:.3e}")
    return PinvResult(pinv=P, rank=rank, singular_values=[float(v) for v in s], gamma=gamma)


def penrose_residuals(T, P):
    """The four Penrose identity residuals for a claimed pseudoinverse P."""
    A = checked_matrix(T)
    B = checked_matrix(P)
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
    ||S T_pinv|| is recorded but not required: the two products share their
    nonzero spectrum, so either contraction makes both resolvents
    invertible.  One inclusion alone does not make the update formula give
    (T + S)^+: T = diag(1, 0) with S = [[0.1, 0.2], [0, 0]] meets only the
    range pair, and its transpose only the kernel pair.  For EP T and
    accretive S the range pair implies the kernel pair, since N(S) = N(S*).
    norm_over_gamma records the informational ratio ||S|| / gamma(T); it is
    not a hypothesis.
    pinv_result keeps the pseudoinverse of T the certificate was computed
    from, so perturbed_pinv does not factor T again; as_dict leaves it out.
    """

    range_inclusion_residual: float
    kernel_inclusion_residual: float
    contraction_TdS: float
    contraction_STd: float
    mode: str
    s_accretive: bool
    theta: float | None
    norm_over_gamma: float
    pinv_result: PinvResult = field(repr=False, compare=False)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def perturbation_certificate(T, S, tol=None):
    """Residuals and contraction norms for the perturbation hypotheses.

    A failed mode is recorded, never raised.  theta is the sectorial angle of
    S when S is accretive (pi/2 when accretive but not sectorial).
    """
    T, S = as_operator(T), as_operator(S)
    A, B = T.matrix, S.matrix
    if A.shape != B.shape:
        raise ParameterError(f"dimension mismatch: {A.shape} vs {B.shape}")
    s_norm = S.norm
    if tol is None:
        tol = tolerance("inclusion-residual") * max(1.0, s_norm)
    res = pseudoinverse(T)
    P = res.pinv
    eye = np.eye(A.shape[0])
    r_range = operator_norm((eye - A @ P) @ B)
    r_kernel = operator_norm(B @ (eye - P @ A))
    c_tds = operator_norm(P @ B)
    c_std = operator_norm(B @ P)
    mode = "both" if max(r_range, r_kernel) <= tol and c_tds < 1 else "fail"
    theta = sectorial_angle(S)[0]
    ratio = s_norm / res.gamma if math.isfinite(res.gamma) else 0.0
    return PerturbationCertificate(
        range_inclusion_residual=float(r_range),
        kernel_inclusion_residual=float(r_kernel),
        contraction_TdS=float(c_tds),
        contraction_STd=float(c_std),
        mode=mode,
        s_accretive=theta is not None,
        theta=theta,
        norm_over_gamma=float(ratio),
        pinv_result=res,
    )


def perturbation_bound(S, cert):
    """The bound ||(T + S)^+ - T^+|| <= ||S|| ||T^+||^2 / (1 - ||T^+ S||).

    cert is the certificate of (T, S).  ||T^+|| is read through the shared
    Operator of its pseudoinverse, so every reader shares one SVD of T^+.
    A bound beyond the float range raises AccuracyError: an infinite bound
    would pass any claim against it.
    """
    pn = as_operator(cert.pinv_result.pinv).norm
    try:
        bound = as_operator(S).norm * pn**2 / (1 - cert.contraction_TdS)
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
    c = ||T_pinv S||.
    """
    A = as_operator(T).matrix
    B = as_operator(S).matrix
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    P = pseudoinverse(A).pinv
    C = P @ B
    c = operator_norm(C)
    if c >= 1:
        raise PreconditionError(f"contraction ||T_pinv S|| = {c:.6f} >= 1")
    eye = np.eye(A.shape[0])
    exact = np.linalg.solve(eye + C, P)
    partial = P.copy()
    for _ in range(int(k)):
        partial = P - C @ partial
    return float(operator_norm(exact - partial))


def second_power_inequalities(T):
    """Kato's second-power bounds, decided over every vector, not sampled.

    Kato (Adv. Math. 7, 1971) proves ||Tx||^2 <= 2 ||x|| ||T^2 x|| for
    m-accretive T, with the constant 2 sharp, and the modulus bound
    gamma(T^2) >= gamma(T)^2 / 2 follows.  Returns two keys:
    vector_violation, a bracket (lo, hi) of sup (||Tx||^2 - 2 ||T^2 x||) over
    unit x, relative to max(1, ||T||^2): hi <= 0 certifies the vector bound
    for every x and lo > 0 a violation, since lo is attained up to rounding;
    and gamma_bound_slack = gamma(T^2) - gamma(T)^2 / 2, exact, negative when
    violated (inf for T = 0).

    If rank(T^2) < rank(T) (the rule of pseudoinverse), T moves some unit x
    of kernel(T^2), and the excess is taken at the one it stretches most.
    Above 0, it is a violation with bracket (that excess, ||T||^2).  At or
    below 0, every unit x of kernel(T^2) has excess at most
    2 rank_cutoff(n, ||T^2||), which the rank rule reads as 0, and
    kernel(T^2) is read as kernel(T).  With Q an orthonormal basis of its
    complement, A = (TQ)*(TQ) and B = (T^2 Q)*(T^2 Q), the numerical range
    W(B + iA) = {||T^2 x||^2 + i ||Tx||^2 : x = Qy, ||y|| = 1} is convex
    (Toeplitz-Hausdorff) and f(b + ia) = a - 2 sqrt(b), +inf for b < 0, is
    convex, so Operator.convex_bound of f on B + iA bounds the sup over unit
    x in that complement, and f at W's points, which lie in it, is attained.
    Near b = 0 the square root turns a rounding of b into a far larger one
    of f, so each b is read within e = rank_cutoff(m, ||B + iA||), the size
    of B + iA that the rank rule reads as 0: the upper end takes f at b - e,
    +inf (undecided) where the polygon reaches b < e, and the lower end at
    max(b, 0) + e.  Adding z in kernel(T) to such x changes neither Tx nor
    T^2 x and only lengthens x, so vectors in kernel(T^2) add 0: over all
    unit x the sup is max(0, .) of the bracket when T^2 is singular.

    Raises ParameterError naming ||T|| when ||T||^2, T^2 or B + iA, or M + M*
    or M - M* for either M, overflow (from ||T|| ~ 1e77 on, as B's
    entries reach ||T||^4), with no RuntimeWarning.  T^2 and B + iA are this
    call's own matrices: as unshared Operators they evict no caller's
    operator from as_operator's cache.
    """
    op = as_operator(T)
    A = op.matrix
    res = pseudoinverse(op)
    sq = _kato_operator(lambda: A @ A, op.norm)
    res_sq = pseudoinverse(sq)
    V = sq.svd[2].conj().T
    lo = -math.inf
    if res_sq.rank < res.rank:
        # The unit x of kernel(T^2) that T stretches most.
        x = V[:, res_sq.rank:] @ np.linalg.svd(A @ V[:, res_sq.rank:])[2][0].conj()
        lo = float(np.linalg.norm(A @ x) ** 2 - 2 * np.linalg.norm(sq.matrix @ x))
    if lo > 0:
        hi = op.norm ** 2
    else:
        TQ, SQ = A @ V[:, :res_sq.rank], sq.matrix @ V[:, :res_sq.rank]
        W = _kato_operator(lambda: SQ.conj().T @ SQ + 1j * (TQ.conj().T @ TQ), op.norm)
        e = rank_cutoff(W.dim, W.norm)
        b, a = W.points.real, W.points.imag
        lo = float(np.max(a - 2 * np.sqrt(np.maximum(b, 0) + e), initial=-math.inf))
        hi = W.convex_bound(
            lambda z: np.where(z.real >= e, z.imag - 2 * np.sqrt(np.abs(z.real - e)), np.inf)
        )
    scale = max(1.0, op.norm ** 2)
    gamma_bound_slack = (
        res_sq.gamma - res.gamma ** 2 / 2
        if math.isfinite(res.gamma) else math.inf
    )
    return {
        "vector_violation": (lo / scale, hi / scale),
        "gamma_bound_slack": float(gamma_bound_slack),
    }


def _kato_operator(form, norm):
    """The matrix M = form() as an unshared Operator, or ParameterError naming
    ||T|| = norm when norm^2 overflows or M lacks _with_headroom's factor-2
    headroom: such an M can overflow in its W(M) sweep and outer polygon."""
    M = _with_headroom(form)
    if M is None or not math.isfinite(norm * norm):
        raise ParameterError(f"Kato's second-power forms overflow: ||T|| = {norm:.3e}")
    return Operator(M)


def _with_headroom(form):
    """M = form(), or None unless M + M* and M - M* are finite, the factor-2
    headroom that Cartesian parts and sums of M with M* need.  form() and the
    check run with no RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = form()
        finite = np.isfinite([M + M.conj().T, M - M.conj().T]).all()
    return M if finite else None
