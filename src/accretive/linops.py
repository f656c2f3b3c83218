"""Dense complex operators: Cartesian split, numerical range, accretivity.

A square complex ndarray stands in for a bounded operator on C^n with the
inner product <x, y> = y^H x.  An operator T is accretive when the Hermitian
real part Re(T) = (T + T*)/2 is positive semidefinite, and omega-accretive
(sectorial) when its numerical range W(T) = {x^H T x : ||x|| = 1} lies in the
closed sector |arg z| <= omega about the positive real axis.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import AccuracyError, DimensionError, PreconditionError
from .tolerances import tolerance

_EPS = float(np.finfo(np.float64).eps)
# The factor of the one rank rule, rank_cutoff.
_RANK_FACTOR = 100
# The one W(T) grid: 720 uniform angles on [0, 2 pi).  The count is even, so
# _ANGLES[k + 360] = _ANGLES[k] + pi and a sweep solves the first half-turn only.
_ANGLES = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
_ANGLES.flags.writeable = False
# Complex entries per chunk of the point-by-angle projection in excess (1 MiB),
# so its memory is O(len(_ANGLES)) whatever the number of points.
_EXCESS_CHUNK = 2**16
# The numerical-radius bracket stops at this relative width, or once this
# many angles have been added to the grid.  Random inputs at n = 2-64 took a
# median of 9 and at most 52; the cap binds only where the boundary of W(T)
# runs close to the circle |z| = w(T) near its farthest point (a disk, or a
# near-circular arc, where the bracket stays ~1e-8 to 1e-5 wide).
_RADIUS_RTOL = 1e-10
_RADIUS_ANGLES = 64
# Distinct matrix contents whose Operators as_operator keeps: enough for the
# operators one command works on, few enough that retained memory is O(n^2).
_SHARED_OPERATORS = 4


@dataclass(frozen=True, eq=False)
class Operator:
    """A validated square complex128 matrix that computes each factorization once.

    Every step given the same Operator shares what the first one computed:
    the singular values (norm and rank read them), the Cartesian parts, eigh(Re T),
    the W(T) sweep of end eigenpairs, the full SVD that callers
    needing singular vectors read, the range block that reduces a singular
    EP operator, and the complex Schur form that the principal square root
    reads.  Each field has one kernel, whichever call reads it first.

    The Operator owns its W(T) sweep (_sweep): support and points read the
    one rotation-method sweep over the 720-angle grid _ANGLES, excess
    measures points against its support planes.  Its support lines bound
    one outer polygon of W(T) (_vertex_heights): radius_bracket refines it
    into a bracket of the numerical radius w(T), and convex_bound reads it
    as it stands to bound the maximum of a quasiconvex functional over
    W(T).  A singular EP operator reads the sweep and the bracket from its
    range block, at order rank(T).

    Build one with as_operator.  Equal matrix content then gives the same
    Operator across calls, for the _SHARED_OPERATORS most recently used
    contents, and its matrix is a read-only copy of the input, so nothing
    cached can go stale.  The cached fields are shared by every caller: read
    them, never write them (the public functions that return arrays return
    copies).  Each field is computed on first read; two threads reading it
    first may both compute it, which is harmless, since both get the same
    values.
    """

    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def svd(self):
        return np.linalg.svd(self.matrix)

    @cached_property
    def singular_values(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    @cached_property
    def norm(self):
        """Spectral norm, bit-for-bit operator_norm(matrix)."""
        return float(self.singular_values[0]) if self.dim else 0.0

    @cached_property
    def rank(self):
        """Number of singular values above rank_cutoff(dim, norm)."""
        return int(np.count_nonzero(self.singular_values > rank_cutoff(self.dim, self.norm)))

    @cached_property
    def range_block(self):
        """T = Q B Q* + E on R(T) + N(T) for singular EP T, or None (no reduction).

        Q is the orthonormal basis of the rank leading left singular vectors
        of svd, B = Q* T Q the compressed block and residual = ||Q B Q* - T||.
        None when T has full rank (no SVD is taken then), or when the kernel
        does not reduce T: residual above max(rank_cutoff, 1e-12 max(1, ||T||)).
        Whatever T's sweep, bracket, root and powers need is B's (RangeBlock).
        """
        A, n, rank = self.matrix, self.dim, self.rank
        if rank == n:
            return None
        Q = self.svd[0][:, :rank]
        B = Q.conj().T @ A @ Q
        residual = operator_norm(Q @ B @ Q.conj().T - A)
        if residual > max(rank_cutoff(n, self.norm), 1e-12 * max(1.0, self.norm)):
            return None
        return RangeBlock(basis=Q, block=Operator(B), residual=residual)

    @cached_property
    def parts(self):
        """Re T = A/2 + A*/2 and Im T = (A/2 - A*/2)/i, halved before summing so
        that finite entries up to the float range give finite parts."""
        A, Ah = self.matrix / 2, self.matrix.conj().T / 2
        return CartesianParts(re_part=A + Ah, im_part=(A - Ah) / 1j)

    @cached_property
    def re_eigh(self):
        """Ascending eigenvalues and the eigenvectors of Re(T)."""
        return np.linalg.eigh(self.parts.re_part) if self.dim else (np.zeros(0), np.zeros((0, 0)))

    @property
    def delta(self):
        """lambda_min(Re T), 0 for a 0x0 operator; T is accretive when it is >= 0."""
        return float(self.re_eigh[0][0]) if self.dim else 0.0

    @cached_property
    def schur(self):
        """Complex Schur form (Theta, Q): matrix = Q Theta Q*, Theta upper triangular."""
        import scipy.linalg  # deferred: a first import takes ~0.3 s and ~28 MiB

        return scipy.linalg.schur(self.matrix, output="complex")

    @property
    def support(self):
        """h(theta_k) at every grid angle; on a range block, the bound max(h_B, 0) + delta."""
        return self._sweep[0]

    @property
    def points(self):
        """Boundary Rayleigh points attaining h(theta_k), in grid order."""
        return self._sweep[1]

    @cached_property
    def _sweep(self):
        """(h, points): one rotation-method sweep of W(T) over the grid _ANGLES.

        At each grid angle theta_k the top eigenpair of
        H(theta_k) = Re(e^{-i*theta_k} T) = cos(theta_k) Re T + sin(theta_k) Im T
        gives the support value h(theta_k) = max Re(e^{-i*theta_k} z) over W(T)
        and the boundary Rayleigh point attaining it (Johnson, SIAM J. Numer.
        Anal. 15, 1978).  Since H(theta + pi) = -H(theta), one solve at theta_k
        also gives h(theta_k + pi) and its point from the bottom eigenpair, so
        only the first half-turn is solved, and only the bottom and top
        eigenpairs of each rotated matrix (_end_eigenpairs), which builds each
        angle's matrix from the Cartesian parts into one reused n x n buffer
        just before reducing it.  Only the two end eigenvectors of each angle
        are kept, and the points are their Rayleigh quotients, taken once at
        the end.  So memory is O(n^2) plus 720 vectors, not
        O(len(_ANGLES) * n^2): a tracemalloc peak of 0.9 / 1.6 / 3.3 MiB at
        n = 32 / 64 / 128.

        A singular EP operator is B's sweep (RangeBlock): T = Q B Q* + E with
        ||E|| = delta, so W(T) lies within delta of W(Q B Q*) = conv(W(B) u {0}),
        whose support is max(h_B, 0), and x* T x = y* B y at x = Q y.  The
        support values are max(h_B, 0) + delta; the points are B's, or 0 where
        the kernel attains the support (h_B < 0).  A 0x0 operator has empty
        W(T): no points, support values -inf, w(T) = 0.
        """
        A, m = self.matrix, len(_ANGLES)
        if self.dim == 0:
            return np.full(m, -np.inf), np.zeros(0, complex)
        rb = self.range_block
        if rb is not None:
            h, pts = rb.block._sweep
            kernel = h < 0  # everywhere for the zero operator, whose block is 0x0
            points = np.zeros(m, complex)
            if rb.block.dim:
                points[~kernel] = pts[~kernel]
            return np.where(kernel, 0.0, h) + rb.residual, points
        vals, vecs = _end_eigenpairs(self.parts.re_part, self.parts.im_part, _ANGLES[:m // 2])
        support = np.concatenate([vals[:, 1], -vals[:, 0]])
        return support, np.concatenate([_rayleigh(A, vecs[:, 1]), _rayleigh(A, vecs[:, 0])])

    def excess(self, points):
        """Signed distance of each point to the sampled support planes of W(T).

        <= 0 up to rounding for p in the closure of W(T); a positive value
        lower-bounds the distance from W(T), so containment claims need no
        discretization allowance.  The points are projected on the angles in
        chunks of at most _EXCESS_CHUNK entries, so memory is O(len(_ANGLES)).
        """
        pts = np.asarray(points, dtype=np.complex128).ravel()
        rot = np.exp(-1j * _ANGLES)
        step = max(1, _EXCESS_CHUNK // len(rot))
        out = np.empty(pts.size)
        for lo in range(0, pts.size, step):
            proj = np.real(rot[None, :] * pts[lo:lo + step, None])
            out[lo:lo + step] = np.max(proj - self.support[None, :], axis=1)
        return out

    @cached_property
    def radius_bracket(self):
        """(w_lo, w_hi) with w_lo <= w(T) <= w_hi up to rounding, computed on first read.

        w(T) = max over theta of h(theta).  The support lines of adjacent
        angles alpha < beta meet at a vertex v of an outer polygon of W(T)
        (_vertex_heights), and h <= |v| on [alpha, beta], so
        w_hi = max |v|.  w_lo = max(h, |boundary point|) is attained in W(T).
        The arc with the largest vertex is bisected, one single-matrix
        eigvalsh per new angle, until the relative width (w_hi - w_lo) / w_hi
        is at most _RADIUS_RTOL or _RADIUS_ANGLES angles have been added.
        The cap binds when W(T) is a disk: every arc of the grid then has the
        same vertex, 1/cos(pi/720) - 1 = 9.5e-6 relative above w(T).
        A singular EP operator takes B's bracket and adds delta to its upper
        end (RangeBlock): w(T) <= w(Q B Q*) + delta = w(B) + delta, while
        W(B) = W(Q* T Q) lies inside W(T), so w_lo(B) <= w(T) as it stands.
        """
        if self.dim == 0:
            return 0.0, 0.0
        rb = self.range_block
        if rb is not None:
            lo, hi = rb.block.radius_bracket
            return lo, hi + rb.residual
        re, im = self.parts.re_part, self.parts.im_part
        grid = self._sweep[0]
        theta = np.append(_ANGLES, 2 * np.pi)
        h = np.append(grid, grid[0])
        lo = max(float(np.max(grid)), float(np.max(np.abs(self.points))))
        for spent in range(_RADIUS_ANGLES + 1):
            vertex = np.hypot(h[:-1], _vertex_heights(theta, h))
            k = int(np.argmax(vertex))
            hi = max(float(vertex[k]), lo)
            if hi - lo <= _RADIUS_RTOL * hi or spent == _RADIUS_ANGLES:
                return lo, hi
            t = (theta[k] + theta[k + 1]) / 2
            h_t = float(np.linalg.eigvalsh(math.cos(t) * re + math.sin(t) * im)[-1])
            lo = max(lo, h_t)
            theta = np.insert(theta, k + 1, t)
            h = np.insert(h, k + 1, h_t)

    def convex_bound(self, f):
        """An upper bound, up to rounding, of sup f(W(T)) for a quasiconvex f.

        f maps an array of complex numbers to reals, +inf allowed, and has
        convex sublevel sets, as a convex f has.  The bound is the largest f
        at the vertices of the outer polygon of the grid's support lines
        (_vertex_heights): the polygon contains W(T), and such an f takes its
        maximum over a polygon at a vertex.  It reads the one sweep on the
        grid _ANGLES as it stands: unlike radius_bracket, no angle is added.
        The points, which lie in W(T), give the caller a lower end.  On a
        singular EP operator the support values are the range block's bounds
        max(h_B, 0) + delta, so the bound holds there too.  A 0x0 operator
        has empty W(T): -inf.
        """
        if self.dim == 0:
            return -math.inf
        h = np.append(self.support, self.support[0])
        u = h[:-1] + 1j * _vertex_heights(np.append(_ANGLES, 2 * np.pi), h)
        return float(np.max(f(np.exp(1j * _ANGLES) * u)))


def as_operator(T):
    """Validate T and return it as an Operator; an Operator is returned unchanged.

    Equal matrix content (shape and complex128 bytes) gives the same
    Operator, so calls handed separate arrays with one content share its
    factorizations and W(T) sweep; each field has one kernel, so sharing
    never changes a result's bits.  Only the _SHARED_OPERATORS most recently
    used contents are kept, so retained memory stays O(n^2).  The Operator's
    matrix is a read-only copy, not the caller's array: changing that array
    afterwards gives a new content and a new Operator.  Two threads that miss
    at once may each get their own Operator for one content, harmlessly.

    Raises DimensionError for non-square shapes or non-finite entries.
    """
    if isinstance(T, Operator):
        return T
    A = checked_matrix(T)
    return _shared_operator(A.shape, A.tobytes())


def checked_matrix(T):
    """T as a square complex128 ndarray with finite entries, not kept or copied.

    For callers that need the validated array but no factorization of it; an
    Operator gives its matrix.  Raises DimensionError like as_operator.
    """
    if isinstance(T, Operator):
        return T.matrix
    A = np.asarray(T, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionError("matrix entries must be finite")
    return A


@lru_cache(maxsize=_SHARED_OPERATORS)
def _shared_operator(shape, content):
    """The Operator for one matrix content, viewing the immutable bytes of its key."""
    return Operator(np.frombuffer(content, dtype=np.complex128).reshape(shape))


def rank_cutoff(n, sigma_max):
    """The one rank rule: of an n x n matrix with top singular value sigma_max,
    a singular value at or below _RANK_FACTOR * n * eps * sigma_max is kernel."""
    return _RANK_FACTOR * n * _EPS * sigma_max


def accretivity_tol(norm):
    """The one accretivity threshold: an operator of the given norm is
    accretive when lambda_min(Re T) >= -tolerance("accretivity") * max(1, norm)."""
    return tolerance("accretivity") * max(1.0, norm)


def operator_norm(T):
    """Spectral norm (largest singular value) of an array."""
    return float(np.linalg.norm(T, 2)) if T.size else 0.0


@dataclass(frozen=True, eq=False)
class RangeBlock:
    """Operator.range_block: T = basis @ block.matrix @ basis* up to residual in norm.

    The one seam of a singular EP operator T = Q B Q* + E, ||E|| = delta:
    each quantity of T is B's, carried back once.  The W(T) sweep and the
    w(T) bracket are B's, widened by delta where they bound W(T) from
    outside; B = Q* T Q is a compression of T, so W(B) lies inside W(T) and
    B's attained points and lower bounds hold for T as they are.  A function
    f with f(0) = 0 (the root, the fractional powers) is Q f(B) Q*, so
    kernel(f(T)) = kernel(T) exactly (pencil._on_range_block).
    """

    basis: np.ndarray
    block: Operator
    residual: float


@dataclass(frozen=True)
class CartesianParts:
    """Hermitian pair with re_part + i*im_part = T."""

    re_part: np.ndarray
    im_part: np.ndarray


def cartesian_parts(T):
    """Cartesian decomposition T = Re(T) + i*Im(T), both parts Hermitian.

    The parts are copies, so writing to them leaves the operator's cache intact.
    """
    parts = as_operator(T).parts
    return CartesianParts(re_part=parts.re_part.copy(), im_part=parts.im_part.copy())


def _vertex_heights(theta, h):
    """Where each vertex of the outer polygon lies along its first support line.

    The support lines Re(e^{-i alpha} z) = h(alpha) and Re(e^{-i beta} z) =
    h(beta) of adjacent angles alpha < beta meet at the vertex
    v = e^{i alpha} (h(alpha) + i height), height being its offset along
    the first line from the foot e^{i alpha} h(alpha):
    height = (h(beta) - h(alpha) cos(beta - alpha)) / sin(beta - alpha).
    The polygon contains W(T), and h <= |v| = hypot(h(alpha), height) on
    [alpha, beta].
    """
    step = np.diff(theta)
    return (h[1:] - h[:-1] * np.cos(step)) / np.sin(step)


def _end_eigenpairs(re, im, theta):
    """Bottom and top eigenpairs of H(theta_j) = cos(theta_j) re + sin(theta_j) im.

    re and im are Hermitian n x n arrays, only read.  Returns the two
    eigenvalues at each of the k angles in ascending order, shape (k, 2), and
    their unit eigenvectors as rows, shape (k, 2, n).  Each H(theta_j) is
    built into one n x n buffer, reused across the angles, and reduced there
    to a real tridiagonal by one Householder tridiagonalization (zhetrd),
    whose end eigenpairs z come from two index-range dstemr calls; one zunmqr
    call then carries both z back before the next matrix is built, so no
    matrix or reflectors outlive their angle.  zhetrd runs in place on H.T,
    the Fortran-ordered view of conj(H), so the vectors are conjugated on
    return.  A nonzero LAPACK info raises AccuracyError naming the routine
    and the angle theta[j].

    Upper storage gives Q = G_{n-2} ... G_0, G_i = I - tau_i v v^H with
    v = (c[:i, i+1], 1, 0, ...), its 1 at index i; Q fixes the last axis.
    With P the index reversal, P Q P = (P G_{n-2} P) ... (P G_0 P) is the QR
    form that zunmqr applies, on rows 1..n-1 of P z: reflector l is column l
    of c[-2::-1, :0:-1], below its diagonal, with tau[::-1][l].
    """
    from scipy.linalg import lapack  # deferred: a first import takes ~0.3 s and ~28 MiB

    k, n = len(theta), re.shape[0]
    cos, sin = np.cos(theta), np.sin(theta)
    H = np.empty((n, n), complex)
    vals = np.empty((k, 2))
    # Each angle's two eigenvectors, in reversed index order until the return.
    vecs = np.empty((k, 2, n), complex)
    # dstemr takes the off-diagonal padded to length n (the pad is workspace,
    # unread on input) and overwrites it: each call gets its own row.
    offdiag = np.zeros((2, n))
    # Rows 1..n-1 of the two reversed vectors, which zunmqr overwrites.
    tail = np.empty((n - 1, 2), complex, order="F")
    for j in range(k):
        np.multiply(cos[j], re, out=H)
        H += sin[j] * im
        c, d, e, tau, info = lapack.zhetrd(H.T, overwrite_a=1)
        if info:
            raise _lapack_error("zhetrd", info, theta[j])
        offdiag[:, :-1] = e
        for col, index in enumerate((1, n)):
            # range 2: eigenpairs il..iu = index..index, counted from the bottom.
            _, w, z, info = lapack.dstemr(d, offdiag[col], 2, 0.0, 1.0, index, index)
            if info:
                raise _lapack_error("dstemr", info, theta[j])
            vals[j, col] = w[0]
            vecs[j, col, 0] = z[-1, 0]
            tail[:, col] = z[-2::-1, 0]
        if n > 1:
            # lwork = 2, the minimum for two columns, takes the unblocked path:
            # a blocked one builds a triangular factor per block of reflectors,
            # which two vectors do not amortize (5x slower at n = 128).
            info = lapack.zunmqr("L", "N", c[-2::-1, :0:-1], tau[::-1], tail, 2, overwrite_c=1)[2]
            if info:
                raise _lapack_error("zunmqr", info, theta[j])
            vecs[j, :, 1:] = tail.T
    return vals, vecs[:, :, ::-1].conj()


def _lapack_error(routine, info, theta):
    return AccuracyError(
        f"LAPACK {routine} failed (info = {info}) in the W(T) sweep at theta = {float(theta)!r}"
    )


def _rayleigh(A, X):
    """x^H A x for each row x of X."""
    return ((X.conj() @ A) * X).sum(axis=1)


def numerical_range_boundary(T):
    """Rayleigh points attaining the support function at each grid angle.

    They lie in W(T), so their hull approximates W(T) from inside.  The
    points are a copy, so writing to them leaves the cached sweep intact.
    """
    return as_operator(T).points.copy()


def support_excess(T, points):
    """Signed distance of each point to the sampled support planes of W(T)."""
    return as_operator(T).excess(points)


@dataclass(frozen=True)
class AccretivityReport:
    """Accretivity / sectoriality certificate for one operator.

    omega is the sectorial semiangle in [0, pi/2]: 0 for positive Hermitian
    inputs, pi/2 when the operator is accretive but the range condition of the
    singular-real-part criterion fails, None when not accretive.  bound_rhs
    carries sqrt(||T||^2/delta^2 - 1) and is only defined on the strongly
    accretive path.  eigenvalues is the spectrum behind spectral_radius, kept
    so callers need no second eigensolve; as_dict leaves it out.
    numerical_radius and numerical_radius_upper are the ends of the w(T)
    bracket of the operator's Operator.radius_bracket.
    """

    dim: int
    tolerance: float
    delta: float
    is_accretive: bool
    sectorial: bool
    omega: float | None
    lambda0_modulus: float | None
    bound_rhs: float | None
    numerical_radius: float
    numerical_radius_upper: float
    operator_norm: float
    spectral_radius: float
    status: str
    eigenvalues: np.ndarray = field(repr=False, compare=False)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _tangent_matrix(op, keep):
    """Compressed Re^{-1/2} Im Re^{-1/2} on the span of the kept eigenvectors of Re(T)."""
    re_vals, re_vecs = op.re_eigh
    Q = re_vecs[:, keep]
    B = Q.conj().T @ op.parts.im_part @ Q
    scale = 1.0 / np.sqrt(re_vals[keep])
    return scale[:, None] * B * scale[None, :]


def sectorial_angle(T, tol=None):
    """Sectorial semiangle of an accretive operator.

    Returns (omega, delta, sectorial, tan_omega).  omega is None when T is not
    accretive.  On the strongly accretive path tan(omega) is the norm of the
    Hermitian similarity Re^{-1/2} Im Re^{-1/2} of S = Im(T) (Re T)^{-1} (that
    norm equals the spectral radius of S, the quantity the semiangle formula
    omega = arctan|lambda_0| actually uses).  With singular Re(T) the same
    norm is taken on the range block of Re(T), valid exactly when
    range(T) <= range(Re T), which is checked by the rank test
    rank([Re T | T]) = rank(Re T); when that fails the operator is accretive
    but not sectorial and omega = pi/2 is returned flagged.  Both ranks count
    values above max(tol, rank_cutoff(n, ||T||)): tol decides the kernel of Re T.
    """
    op = as_operator(T)
    n, delta = op.dim, op.delta
    if tol is None:
        tol = accretivity_tol(op.norm)
    if delta < -tol:
        return None, delta, False, None
    keep = slice(None)
    if delta <= tol:
        # Singular (or nearly singular) real part: pseudoinverse path.
        re_vals = op.re_eigh[0]
        cutoff = max(tol, rank_cutoff(n, op.norm))
        aug = np.hstack([op.parts.re_part, op.matrix]) if n else np.zeros((0, 0))
        rank_h = int(np.count_nonzero(re_vals > cutoff))
        rank_aug = int(np.count_nonzero(np.linalg.svd(aug, compute_uv=False) > cutoff)) if n else 0
        if rank_aug > rank_h:
            return math.pi / 2, delta, False, math.inf
        keep = re_vals > cutoff
    # tan(omega) is the spectral norm of the Hermitian tangent matrix.
    vals = np.linalg.eigvalsh(_tangent_matrix(op, keep))
    tan_omega = float(max(0.0, -vals[0], vals[-1])) if vals.size else 0.0
    return math.atan(tan_omega), delta, True, tan_omega


def accretivity_report(T, tol=None):
    """Full accretivity certificate: delta, omega, the w(T) bracket, r(T), ||T||.

    tol defaults to accretivity_tol(||T||), on lambda_min(Re T).
    Non-accretive input yields is_accretive=False with omega=None (a status,
    not an exception).
    """
    op = as_operator(T)
    n, nrm = op.dim, op.norm
    if tol is None:
        tol = accretivity_tol(nrm)
    omega, delta, sectorial, tan_omega = sectorial_angle(op, tol)
    eigs = np.linalg.eigvals(op.matrix) if n else np.zeros(0, dtype=complex)
    spec_r = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    w_lo, w_hi = op.radius_bracket
    is_acc = delta >= -tol
    bound = None
    if not is_acc:
        status = "not accretive"
    elif delta > tol:
        status = "strongly accretive"
        bound = math.sqrt(max((nrm / delta) ** 2 - 1.0, 0.0))
    elif sectorial:
        status = "accretive, singular real part"
    else:
        status = "accretive, not sectorial (range condition fails)"
    return AccretivityReport(
        dim=n,
        tolerance=float(tol),
        delta=delta,
        is_accretive=is_acc,
        sectorial=sectorial,
        omega=omega,
        lambda0_modulus=tan_omega,
        bound_rhs=bound,
        numerical_radius=w_lo,
        numerical_radius_upper=w_hi,
        operator_norm=nrm,
        spectral_radius=spec_r,
        status=status,
        eigenvalues=eigs,
    )


def kato_representation(T):
    """Tangent operator T_tilde of the representation T = H^{1/2}(I + i*T_tilde)H^{1/2}.

    H = Re(T) must be positive definite; T_tilde = H^{-1/2} Im(T) H^{-1/2} is
    Hermitian with ||T_tilde|| = tan(omega).
    """
    op = as_operator(T)
    tol = accretivity_tol(op.norm)
    if op.delta <= tol:
        raise PreconditionError(
            f"real part not positive definite: lambda_min = {op.delta:.3e} <= tol = {tol:.3e}"
        )
    vecs = op.re_eigh[1]
    return vecs @ _tangent_matrix(op, slice(None)) @ vecs.conj().T


def hermitian_sqrt(H):
    """Principal square root of a positive semidefinite Hermitian matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T

