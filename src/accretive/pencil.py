"""Quadratic pencil Q(lambda) = lambda^2 I - 2 lambda T - S and its factors.

With Upsilon = T^2 + S accretive, the principal square root R = Upsilon^{1/2}
yields factor operators Z1 = T + R and Z2 = T - R.  The pencil then splits as
the symmetrized product of (lambda - Z1) and (lambda - Z2), one-sidedly so
when T and S commute.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .errors import AccuracyError, ParameterError, PreconditionError
from .linops import (
    Operator,
    _in_units,
    _numeric_array,
    _power_of_two_unit,
    _same_shape,
    accretivity_tol,
    as_operator,
    checked_matrix,
    norm_at_most,
    operator_norm,
    rank_cutoff,
    sectorial_angle,
)
from .tolerances import active_table, deferred, tolerance

# Complex entries per stacked chunk (8 MiB) of the quadrature's shifted
# systems, so memory stays O(n^2) for any node count.
_RESIDUAL_CHUNK = 2**19
# Singular input whose kernel does not reduce it (_on_range_block's residual
# test fails): kernel-preserving roots and powers are undefined.
_NOT_EP = (
    "singular input is not reduced by its range (not EP); "
    "kernel-preserving functional calculus undefined"
)


@dataclass(frozen=True, eq=False)
class QuadraticPencil:
    """Monic quadratic pencil data; hypotheses are certified later, not here.

    T and S are kept as Operators, so the norms factorize takes are cached on
    the operators the caller passed.  The pencil owns Upsilon = T^2 + S, kept
    as a read-only matrix, and its principal root R, the one factorization of
    Upsilon it keeps; each is computed on first read, so factorize and
    solve_bvp given one pencil share the one root.  scale is the size of the
    pencil's coefficients that the factorization and BVP tolerances scale by.
    """

    T: Operator
    S: Operator

    def __post_init__(self):
        T, S = as_operator(self.T), as_operator(self.S)
        _same_shape(T, S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)

    @property
    def dim(self):
        return self.T.dim

    @cached_property
    def scale(self):
        """max(1, ||T||^2, ||S||); a ||T||^2 beyond the float range raises ParameterError."""
        try:
            return max(1.0, self.T.norm ** 2, self.S.norm)
        except OverflowError:
            raise ParameterError(f"||T||^2 overflows: ||T|| = {self.T.norm:.3e}") from None

    @cached_property
    def upsilon(self):
        """Upsilon = T^2 + S as a read-only matrix; no factorization of it is kept.

        Overflowing entries raise ParameterError, with no RuntimeWarning.
        """
        A = self.T.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            U = A @ A + self.S.matrix
        if not np.all(np.isfinite(U)):
            raise ParameterError(
                f"Upsilon = T^2 + S overflows: ||T|| = {self.T.norm:.3e}, ||S|| = {self.S.norm:.3e}"
            )
        U.flags.writeable = False
        return U

    @cached_property
    def root(self):
        """R = Upsilon^{1/2} by accretive_sqrt, as an Operator whose matrix is
        read-only, since every reader shares it.

        R has passed _sqrt_and_residual's residual test, which takes no SVD
        of R^2 - Upsilon when its Frobenius norm decides it; the value
        ||R^2 - Upsilon|| is taken when PencilFactorization.sqrt_residual is
        first read.  In the paper's setting Upsilon is strictly accretive,
        and one Cholesky factorization of its real part certifies that
        (_sqrt_and_residual): Upsilon then has full rank and no eigenvalue
        on the negative axis, so it takes one Schur form and no SVD.
        Upsilon is rooted as a transient unshared Operator, so its Schur
        form is freed once R is taken, and it evicts no caller's operator
        from as_operator's cache.
        """
        W = _sqrt_and_residual(Operator(self.upsilon))
        W.flags.writeable = False
        return Operator(W)


def accretive_sqrt(U):
    """Principal square root with the kernel annihilated explicitly.

    Full-rank input goes straight to the Schur method (Bjorck & Hammarling,
    Linear Algebra Appl. 52/53, 1983): one complex Schur form U = V Theta V*,
    whose diagonal gives the eigenvalues, and the root V Theta^{1/2} V* from
    the triangular recurrence.  Singular EP input is compressed to its range
    block, rooted there, and reassembled, so kernel(result) = kernel(U)
    exactly.  An eigenvalue on the closed negative real axis (impossible for
    accretive U outside zero) means no principal root exists.
    """
    return _sqrt_and_residual(as_operator(U))


def _sqrt_and_residual(op):
    """accretive_sqrt W of the Operator op = U, after its residual test.

    W is refused with AccuracyError unless ||W^2 - U|| is at most
    tolerance("sqrt-residual") * max(1, ||U||).  norm_at_most decides that
    from the Frobenius norm where it can, so an accepted root usually takes
    no SVD of W^2 - U; the exact norm is taken for the error message, and
    by PencilFactorization.sqrt_residual, which reports it.

    Strictly accretive U, the paper's m-accretive Upsilon, takes no SVD of
    U either.  In the power-of-two unit s of U (_power_of_two_unit) the
    real part is tested by _re_part_exceeds at c = 2 rank_cutoff(n, ||U/s||_F):
    one rank_cutoff for the rank rule and one for the Cholesky backward
    error.  When it passes, sigma_min(U) >= lambda_min(Re U) exceeds
    rank_cutoff(n, ||U||), so U has full rank (Operator.rank would count n),
    and W(U), with every eigenvalue, lies in Re z > 0, so the negative-axis
    test passes without ||U|| (_schur_sqrt).  The residual is then first
    tested against tolerance("sqrt-residual") * max(1, ||U||_F / sqrt(n)),
    at most the exact bound since ||U||_F / sqrt(n) <= ||U||; only when that
    fails is ||U|| taken, for the exact test.  Any other U (not strictly
    accretive, or singular) takes the exact route: its rank and norm from
    its singular values, and _on_range_block.  Either route gives the same
    root and verdict.
    """
    A, n = op.matrix, op.dim
    s = _power_of_two_unit(A)
    X = _in_units(A, s)
    fro = float(np.linalg.norm(X))
    strict = n > 0 and _re_part_exceeds(X, 2 * rank_cutoff(n, fro))
    W = _schur_sqrt(op) if strict else _on_range_block(op, _schur_sqrt)
    D = W @ W - A
    tol = tolerance("sqrt-residual")
    if not (strict and norm_at_most(D, tol * max(1.0, s * (fro / math.sqrt(n))))
            or norm_at_most(D, tol * max(1.0, op.norm))):
        raise AccuracyError(f"square-root residual {operator_norm(D):.3e} above tolerance")
    return W


def _re_part_exceeds(X, c):
    """Whether one Cholesky factorization (LAPACK zpotrf) of X + X* - 2c I,
    twice Re X - c I, succeeds.

    Success certifies lambda_min(Re X) > c - rank_cutoff(n, ||X||_F), with no
    SVD or eigensolve: the computed factor is that of Re X - c I + E, up to
    the exact factor 2, with ||E|| <= gamma_{n+1} trace(Re X - c I)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 10.7), and the trace is at most sqrt(n) ||X||_F, so ||E|| stays
    below rank_cutoff(n, ||X||_F) for any n below about 40000, the rounding
    of forming the matrix included.  Since sigma_min(X) >= lambda_min(Re X)
    and W(X) lies in Re z >= lambda_min(Re X), the certificate bounds X's
    rank and spectrum as well.  X is in units where its entries are small
    (_in_units), so X + X* cannot overflow.
    """
    from scipy.linalg import lapack  # deferred: a first import takes ~0.3 s and ~28 MiB

    # X* is taken Fortran-ordered, so H is too, and zpotrf factors it in place.
    H = X.T.conj()
    H += X
    H.flat[:: len(X) + 1] -= 2 * c
    return lapack.zpotrf(H, lower=1, overwrite_a=1, clean=0)[1] == 0


def _schur_sqrt(op):
    """Principal square root of the invertible Operator op by the Schur method.

    Its one complex Schur form (Operator.schur) serves both the
    negative-axis test, on its diagonal, and the root, taken of its
    triangular factor, so op is factored once.  The test's tolerance
    accretivity_tol(||op||) is read, one SVD, only when some eigenvalue has
    Re < 0: a strictly accretive op (_sqrt_and_residual) takes none.
    """
    theta, V = op.schur
    eigs = np.diag(theta)
    left = eigs.real < 0
    if np.any(left):
        tol = accretivity_tol(op.norm)
        bad = left & (np.abs(eigs.imag) / np.maximum(1.0, np.abs(eigs.real)) <= tol)
        if np.any(bad):
            raise PreconditionError(
                f"no principal square root: eigenvalue {eigs[bad][0]:.6g} on the negative real axis"
            )
    import scipy.linalg  # deferred: a first import takes ~0.3 s and ~28 MiB

    return V @ np.asarray(scipy.linalg.sqrtm(theta), dtype=np.complex128) @ V.conj().T


def _on_range_block(op, fn):
    """f(T) of the Operator op = T, for an f with f(0) = 0 that fn takes of invertible input.

    Rank 0 (the zero operator, or 0x0) gives zeros and full rank fn(op).
    Singular input is reduced by its range when it is EP: Q, the rank(T)
    leading left singular vectors of T's SVD, B = Q* T Q and the residual
    ||Q B Q* - T||, which must be at most max(rank_cutoff, 1e-12 max(1, ||T||)).
    Then f(T) = Q fn(B) Q*, so kernel(f(T)) = kernel(T) exactly; any other
    singular input has no kernel-preserving f(T) and raises PreconditionError.
    """
    A, n, rank = op.matrix, op.dim, op.rank
    if rank == 0:
        return np.zeros_like(A)
    if rank == n:
        return fn(op)
    Q = op.svd[0][:, :rank]
    B = Q.conj().T @ A @ Q
    residual = operator_norm(Q @ B @ Q.conj().T - A)
    if residual > max(rank_cutoff(n, op.norm), 1e-12 * max(1.0, op.norm)):
        raise PreconditionError(_NOT_EP)
    return Q @ fn(Operator(B)) @ Q.conj().T


# Balakrishnan quadrature: each truncated tail stays below _QUAD_TAIL * ||T||^alpha,
# relative to the power at any scale; the step is halved at most _QUAD_HALVINGS times.
_QUAD_TAIL = 1e-12
_QUAD_HALVINGS = 8


def _balakrishnan_dense(op, alpha):
    """Balakrishnan's integral by the trapezoidal rule on invertible input.

    After lambda = e^u the representation reads
    T^alpha = (sin(pi alpha)/pi) * integral of e^{alpha u} (e^u + T)^{-1} T du
    over the whole line.  Accretivity gives ||(e^u + T)^{-1}|| <= e^{-u}, so
    the integrand norm decays like e^{alpha u} to the left and like
    ||T|| e^{(alpha-1)u} to the right; the truncation points push both tails
    below _QUAD_TAIL * ||T||^alpha, the scale of T^alpha, whatever ||T|| is.
    The integrand is analytic in the strip |Im u| < pi/2, where the
    trapezoidal rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  The step starts at most 1,
    and each halving solves only the new midpoints and adds them to one
    running sum, so every node is solved once.  The shifted systems are solved
    in chunks of at most _RESIDUAL_CHUNK entries, so memory stays O(n^2).
    T is the Operator op.
    """
    A, n, nrm = op.matrix, op.dim, op.norm
    target = tolerance("quadrature-rel")
    sin_pa = math.sin(math.pi * alpha)
    tail_target = _QUAD_TAIL * nrm ** alpha
    u_lo = math.log(math.pi * alpha * tail_target / (2 * sin_pa)) / alpha
    u_hi = math.log(math.pi * (1 - alpha) * tail_target / (sin_pa * nrm)) / (alpha - 1)
    if u_hi <= u_lo:
        u_hi = u_lo + 1.0
    chunk = max(1, _RESIDUAL_CHUNK // (n * n))

    def chunk_sum(u, coeff):
        # sum of coeff * (e^u + T)^{-1} T over one chunk of nodes u
        systems = np.repeat(A[None], u.size, axis=0)
        systems.reshape(u.size, n * n)[:, ::n + 1] += np.exp(u)[:, None]
        X = np.linalg.solve(systems, np.broadcast_to(A, systems.shape))
        return np.tensordot(coeff, X, axes=(0, 0))

    def node_sum(u, weight):
        coeff = weight * np.exp(alpha * u)
        return sum(chunk_sum(u[lo:lo + chunk], coeff[lo:lo + chunk])
                   for lo in range(0, u.size, chunk))

    steps = math.ceil(u_hi - u_lo)
    h = (u_hi - u_lo) / steps
    weight = np.r_[0.5, np.ones(steps - 1), 0.5]
    total = node_sum(np.linspace(u_lo, u_hi, steps + 1), weight)
    prev = (sin_pa / math.pi) * h * total
    diff = math.inf
    for _ in range(_QUAD_HALVINGS):
        total += node_sum(u_lo + h * (np.arange(steps) + 0.5), 1.0)
        steps *= 2
        h /= 2
        curr = (sin_pa / math.pi) * h * total
        diff = operator_norm(curr - prev) / max(operator_norm(curr), 1e-300)
        if diff < target:
            return curr
        prev = curr
    raise AccuracyError(
        f"quadrature did not converge: achieved relative difference {diff:.3e}, "
        f"target {target:.1e}"
    )


def balakrishnan_power(T, alpha):
    """Fractional power T^alpha, 0 < alpha < 1, by Balakrishnan quadrature.

    Accretive input required.  The integral is summed by the trapezoidal rule
    in u = log(lambda), halving the step until two sums agree to
    tolerance("quadrature-rel"); each node is solved once, and memory stays
    O(n^2).  Singular accretive (EP) input is compressed to its range block
    first so the kernel passes through unchanged.
    """
    op = as_operator(T)
    if not (0 < alpha < 1):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if op.delta < -accretivity_tol(op.norm):
        raise PreconditionError(f"input not accretive: delta = {op.delta:.3e}")
    return _on_range_block(op, lambda block: _balakrishnan_dense(block, float(alpha)))


@dataclass(frozen=True, eq=False)
class PencilFactorization:
    """Factor data for Q(lambda) with residuals and spectral layout.

    z1, z2, commuting and the pencil's root are computed by factorize.  The
    report fields sqrt_residual, spectra_z1, spectra_z2, separation,
    separation_regime, z1_sector_angle and warnings are computed on first
    read, once, under the tolerance table active when factorize ran
    (tolerance_table), so a field nobody reads costs nothing and a field
    read after an overridden block gives the verdict it would have given
    inside it.  pencil is the factored
    pencil, whose Operators, Upsilon and root the other fields read.
    """

    z1: np.ndarray
    z2: np.ndarray
    commuting: bool
    pencil: QuadraticPencil = field(repr=False, compare=False)
    tolerance_table: dict = field(default_factory=active_table, init=False, repr=False,
                                  compare=False)

    @property
    def root(self):
        """The pencil's root Operator (QuadraticPencil.root), so vandermonde_check
        reads the rank of the root factorize took; its matrix, Upsilon^{1/2},
        is read-only."""
        return self.pencil.root

    @deferred
    def sqrt_residual(self):
        """||R^2 - Upsilon|| of the pencil's root R, one SVD."""
        W = self.root.matrix
        return operator_norm(W @ W - self.pencil.upsilon)

    @deferred
    def spectra_z1(self):
        """Eigenvalues of Z1, one eigvals call."""
        return [complex(v) for v in np.linalg.eigvals(self.z1)]

    @deferred
    def spectra_z2(self):
        """Eigenvalues of Z2, one eigvals call."""
        return [complex(v) for v in np.linalg.eigvals(self.z2)]

    @deferred
    def separation(self):
        """Smallest distance between an eigenvalue of Z1 and one of Z2 (inf at dim 0)."""
        s1, s2 = np.asarray(self.spectra_z1), np.asarray(self.spectra_z2)
        return float(np.min(np.abs(s1[:, None] - s2[None, :]))) if s1.size else math.inf

    @deferred
    def separation_regime(self):
        """The regime "strong" when Re(Upsilon) is strictly positive, lambda_min
        above tolerance("separation-strong"), so the disjoint-spectra claim
        applies; "degenerate" otherwise (Z1 and Z2 share kernel eigenvalues)."""
        strong = Operator(self.pencil.upsilon).delta > tolerance("separation-strong")
        return "strong" if strong else "degenerate"

    @deferred
    def z1_sector_angle(self):
        """The sectorial semiangle of Z1 that sectorial_angle certifies, None
        when Z1 is not accretive (no sector holds it; W(Z1) is not sampled in
        its place); it is reported, not asserted against any fixed sector.
        Z1 is an unshared Operator, so it evicts no caller's operator from
        as_operator's cache."""
        return sectorial_angle(Operator(self.z1))[0]

    @deferred
    def warnings(self):
        """Hypothesis shortfalls: T, T^2 or S not accretive, each judged as
        sectorial_angle judges it, then a degenerate separation regime."""
        p = self.pencil
        out = []
        for name, M in (("T", p.T), ("T^2", Operator(p.T.matrix @ p.T.matrix)), ("S", p.S)):
            if M.delta < -accretivity_tol(M.norm):
                out.append(f"{name} not accretive (delta = {M.delta:.3e})")
        if self.separation_regime == "degenerate":
            out.append("Re(Upsilon) not strictly positive; disjoint-spectra claim not applicable")
        return out


def factorize(p):
    """Factor operators Z1 = T + Upsilon^{1/2}, Z2 = T - Upsilon^{1/2}.

    Upsilon and its root are the pencil's (QuadraticPencil.upsilon, .root).
    factorize takes the root, forms Z1 and Z2, refuses a TS - ST that
    overflows and decides commuting, ||TS - ST|| at most
    tolerance("commutation") * max(1, ||T|| ||S||), so each refusal is raised
    by factorize itself.  That norm is never reported, so norm_at_most
    decides the verdict, from the Frobenius norm where it can, with no SVD
    of TS - ST.  The report fields are computed on first read
    (PencilFactorization): hypothesis shortfalls are recorded as warnings
    rather than raised, and the sector angle of Z1 is sectorial_angle's, so
    no W(Z1) sweep runs.
    """
    T, S = p.T.matrix, p.S.matrix
    # The root first: an Upsilon that overflows is refused before TS - ST is formed.
    W = p.root.matrix
    z1 = checked_matrix(T + W)
    z2 = T - W
    with np.errstate(over="ignore", invalid="ignore"):
        C = T @ S - S @ T
    if not np.all(np.isfinite(C)):
        raise ParameterError(f"TS - ST overflows: ||T|| = {p.T.norm:.3e}, ||S|| = {p.S.norm:.3e}")
    commuting = norm_at_most(C, tolerance("commutation") * max(1.0, p.T.norm * p.S.norm))
    return PencilFactorization(z1=z1, z2=z2, commuting=commuting, pencil=p)


def eval_pencil(p, lam):
    """Q(lambda) = lambda^2 I - 2 lambda T - S."""
    lam = complex(lam)
    return lam * lam * np.eye(p.dim) - 2 * lam * p.T.matrix - p.S.matrix


def factorization_residuals(f, p, lambdas):
    """Worst normalized factorization residuals over the given lambdas.

    Returns (symmetric, one_sided): the symmetric value compares Q(lambda)
    with the half-sum of the two orderings of (lambda - Z1)(lambda - Z2) and
    is an algebraic identity, commuting or not; the one-sided value compares
    against the single ordering and is only meaningful when f.commuting.
    Each residual is normalized by (1 + |lambda|^2) so a tolerance can be
    stated uniformly over sweeps.  A non-finite, non-numeric or ragged
    lambdas raises ParameterError before any kernel runs (the intake of the
    input rules, linops._numeric_array).

    Q(lambda) - (lambda - Z1)(lambda - Z2) = lambda E1 - E0 with
    E1 = Z1 + Z2 - 2T and E0 = S + Z1 Z2 (S + the half-sum of both products
    for the symmetric form).  Only the worst value is wanted, and by Weyl's
    inequality for singular values (Horn & Johnson, Topics in Matrix
    Analysis, 1991, 3.3) ||lambda E1 - E0|| <= s0 + |lambda| s1, s0 and s1
    the norms of E0 and E1, one SVD of E1 and one stacked SVD of the two E0.
    Each form visits the lambdas in descending order of the padded bound
    (s0 + |lambda| s1)(1 + c n eps) / (1 + |lambda|^2), c = 100, the rank
    rule's rank_cutoff(n, 1), which covers forming lambda E1 - E0 and the
    rounding of the SVDs.  It takes the exact norm of lambda E1 - E0, one
    SVD per lambda, and stops once the next bound is below the worst value
    found; a bound that is not finite is never passed over.  The result is
    bit for bit the largest exact normalized norm over all the lambdas.  E1
    is at rounding level for factors of the pencil, so one exact SVD per
    form usually decides it.  Memory is O(n^2) for any number of lambdas.
    """
    lams = _numeric_array(lambdas, False, ParameterError, "lambdas").ravel()
    n = p.dim
    if n == 0 or lams.size == 0:
        return 0.0, 0.0
    T, S = p.T.matrix, p.S.matrix
    e1 = f.z1 + f.z2 - 2 * T
    z12 = f.z1 @ f.z2
    e0 = np.stack([S + 0.5 * (z12 + f.z2 @ f.z1), S + z12])
    s1 = np.linalg.svd(e1, compute_uv=False)[0]
    s0 = np.linalg.svd(e0, compute_uv=False)[:, 0]
    size = np.abs(lams)
    norm = 1.0 + size ** 2
    worst = []
    for form in range(2):
        bound = (s0[form] + size * s1) * (1 + rank_cutoff(n, 1.0)) / norm
        # A NaN or infinite bound sorts first, so no break passes it over.
        order = np.argsort(np.where(np.isfinite(bound), -bound, -np.inf), kind="stable")
        top = -np.inf
        for j in order:
            if bound[j] < top:
                break
            exact = np.linalg.svd(lams[j] * e1 - e0[form], compute_uv=False)[0]
            top = np.maximum(top, exact / norm[j])
        worst.append(float(top))
    return worst[0], worst[1]


def pencil_spectrum(p):
    """All 2*dim pencil eigenvalues via the companion linearization.

    lambda^2 x = 2 lambda T x + S x rewrites as the block eigenproblem
    [[0, I], [S, 2T]] (x, lambda x) = lambda (x, lambda x).
    """
    n = p.dim
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[:n, n:] = np.eye(n)
    C[n:, :n] = p.S.matrix
    C[n:, n:] = 2 * p.T.matrix
    return [complex(v) for v in np.linalg.eigvals(C)]


def multiset_match_distance(a, b):
    """Largest pairwise distance under the min-sum matching of two multisets."""
    x = np.asarray(a, dtype=complex).ravel()
    y = np.asarray(b, dtype=complex).ravel()
    if x.size != y.size:
        raise ParameterError(f"multiset sizes differ: {x.size} vs {y.size}")
    if x.size == 0:
        return 0.0
    cost = np.abs(x[:, None] - y[None, :])
    return float(cost[np.arange(x.size), _min_sum_assignment(cost)].max())


def _min_sum_assignment(cost):
    """Column of each row in a matching of the square cost matrix with least total cost.

    The Hungarian method (Kuhn, Naval Res. Logist. Q. 2, 1955) in its
    shortest-augmenting-path form with dual potentials u, v: each row is
    added by a Dijkstra search over the reduced costs cost - u - v, one
    numpy step over the columns per scanned column, and the alternating path
    found is flipped.  O(m^3); the objective of scipy's linear_sum_assignment.
    """
    m = cost.shape[0]
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=int)  # 1-based row matched to column j; column 0 is the root
    # Column reduction: v_j = min_i cost_ij is feasible, and each row that is
    # the first minimum of some column starts matched to it at zero reduced cost.
    v[1:] = cost.min(axis=0)
    best = cost.argmin(axis=0)
    _, cols = np.unique(best, return_index=True)
    row_of[cols + 1] = best[cols] + 1
    for i in np.setdiff1d(np.arange(1, m + 1), row_of):
        row_of[0] = i
        col = 0
        dist = np.full(m + 1, np.inf)
        via = np.zeros(m + 1, dtype=int)
        done = np.zeros(m + 1, dtype=bool)
        while row_of[col]:
            done[col] = True
            reduced = cost[row_of[col] - 1] - u[row_of[col]] - v[1:]
            closer = ~done[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            via[1:][closer] = col
            step = np.where(done[1:], np.inf, dist[1:])
            nxt = int(np.argmin(step)) + 1
            delta = step[nxt - 1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[1:][~done[1:]] -= delta
            col = nxt
        while col:
            prev = via[col]
            row_of[col] = row_of[prev]
            col = prev
    assignment = np.empty(m, dtype=int)
    assignment[row_of[1:] - 1] = np.arange(m)
    return assignment


def vandermonde_check(f):
    """Invertibility of [[I, I], [Z1, Z2]] must track invertibility of the root.

    Row reduction gives det V = det(Z2 - Z1) = det(-2 Upsilon^{1/2}), so the
    two rank decisions agree exactly; this check confirms it with Operator.rank.
    The identity blocks are scaled by the largest entry of Z1 and Z2, a row
    scaling that leaves rank V unchanged, so that V's rank is judged at the
    scale of its bottom blocks, not of the identity: at T = 0, S = 1e-30 I
    the unscaled V reads rank n.  Scaling by ||Upsilon^{1/2}|| alone would
    misjudge a small root beside a large T.
    """
    n = f.z1.shape[0]
    V = np.zeros((2 * n, 2 * n), dtype=complex)
    scale = max(np.abs(Z).max(initial=0.0) for Z in (f.z1, f.z2))
    V[:n, :n] = V[:n, n:] = scale * np.eye(n)
    V[n:, :n] = f.z1
    V[n:, n:] = f.z2
    return (Operator(V).rank == 2 * n) == (f.root.rank == n)

