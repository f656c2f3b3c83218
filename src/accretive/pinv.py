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
from .linops import as_operator, checked_matrix, operator_norm, rank_cutoff, sectorial_angle
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
    """
    op = as_operator(T)
    n = op.dim
    if n == 0:
        return PinvResult(pinv=op.matrix.copy(), rank=0, singular_values=[], gamma=math.inf)
    U, s, Vh = op.svd
    keep = s > rank_cutoff(n, float(s[0]))
    rank = int(np.count_nonzero(keep))
    gamma = float(s[keep][-1]) if rank else math.inf
    P = (Vh[keep].conj().T / s[keep]) @ U[:, keep].conj().T
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


def range_projector(T, result):
    """Orthogonal projector onto range(T), given result = pseudoinverse(T)."""
    return checked_matrix(T) @ result.pinv


def row_projector(T, result):
    """Orthogonal projector onto range(T*) = kernel(T) orthocomplement, given
    result = pseudoinverse(T)."""
    return result.pinv @ checked_matrix(T)


def subspace_distance(P, Q):
    """Spectral norm of a projector difference: sine of the largest principal
    angle between the two subspaces."""
    return operator_norm(np.asarray(P) - np.asarray(Q))


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
    """
    pn = as_operator(cert.pinv_result.pinv).norm
    return as_operator(S).norm * pn**2 / (1 - cert.contraction_TdS)


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


# Random unit vectors per second_power_inequalities call.
_SECOND_POWER_SAMPLES = 48


def second_power_inequalities(T, seed):
    """Sampled second-power inequalities relating ||Tx||, ||T^2 x||, gamma.

    Checks, over _SECOND_POWER_SAMPLES random unit vectors drawn from seed,
    the split bound ||Tx||^2 <= nu ||x||^2 + (1/nu) ||T^2 x||^2 for nu in
    {0.5, 1, 2}, the product bound ||Tx||^2 <= 2 ||T^2 x|| ||x|| on the
    orthocomplement of kernel(T^2), and the modulus bound
    gamma(T^2) >= gamma(T)^2 / 2.  Reports worst slacks; a negative slack is
    a violation.  The vector bounds are judged by one figure,
    worst_vector_violation: -slack / max(1, ||T||^2).
    """
    op = as_operator(T)
    A, n = op.matrix, op.dim
    rng = np.random.default_rng(seed)
    res = pseudoinverse(op)
    sq = A @ A
    res_sq = pseudoinverse(sq)
    proj = res_sq.pinv @ sq
    nson = (0.5, 1.0, 2.0)
    worst_split = {nu: math.inf for nu in nson}
    worst_product = math.inf
    shape = (_SECOND_POWER_SAMPLES, n)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    for x in X:
        tx = float(np.linalg.norm(A @ x) ** 2)
        t2x = float(np.linalg.norm(sq @ x) ** 2)
        for nu in nson:
            worst_split[nu] = min(worst_split[nu], nu + t2x / nu - tx)
        if res_sq.rank:
            y = proj @ x
            y = y / float(np.linalg.norm(y))
            worst_product = min(
                worst_product,
                2 * float(np.linalg.norm(sq @ y)) - float(np.linalg.norm(A @ y) ** 2),
            )
    gamma_bound_slack = (
        res_sq.gamma - res.gamma ** 2 / 2
        if math.isfinite(res.gamma) else math.inf
    )
    scaled = [-v / max(1.0, op.norm ** 2) for v in (*worst_split.values(), worst_product)]
    violations = sum(1 for v in scaled if v > tolerance("vector-inequality"))
    if gamma_bound_slack < -tolerance("second-power-gamma"):
        violations += 1
    return {
        "samples": _SECOND_POWER_SAMPLES,
        "worst_split_slack": {str(nu): float(v) for nu, v in worst_split.items()},
        "worst_product_slack": float(worst_product),
        "worst_vector_violation": max(0.0, *scaled),
        "gamma": res.gamma,
        "gamma_sq": res_sq.gamma,
        "gamma_bound_slack": float(gamma_bound_slack),
        "violations": int(violations),
    }
