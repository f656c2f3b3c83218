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

from .errors import AccuracyError, DimensionError, ParameterError, PreconditionError
from .tolerances import tolerance

_EPS = float(np.finfo(np.float64).eps)
# The factor of the one rank rule, rank_cutoff.
_RANK_FACTOR = 100
# The polygon's first half-turn of seed angles: with H(theta + pi) = -H(theta),
# these 4 solves give 8 uniform angles.
_SEED_ANGLES = np.arange(4) * (np.pi / 4)
# The w(T) bisection stops at this relative width, or after this many solves
# past the seed.  The 40 analyze benchmark inputs of seeds 1 and 3 took 10-29
# of them; on 186 seeded inputs at n = 2-32 the median / largest count was
# 24 / 49 for complex Gaussian, 30 / 64 for real Gaussian (6 reached the cap)
# and 14 / 25 for accretive_operator.  The cap binds where the boundary of
# W(T) runs close to the circle |z| = w(T) near its farthest point (a disk,
# which 64 solves leave 3e-4 wide), and the level-set test then decides: one
# QZ costs as much as 68 solves at n = 32 and 235 at n = 128.  Kato's pencil
# test (pinv._pencil_ends) takes the same width and the same cap on its rounds.
_RADIUS_RTOL = 1e-10
_RADIUS_SOLVES = 64
# A pencil eigenvalue this close to the unit circle counts as unimodular
# (_level_set_distance).  On 179 of those inputs whose bracket closed, the
# unimodular eigenvalues at r = w_lo(1 - 1e-10) were computed within 2.7e-10
# of the circle, and at r = w_lo(1 + 1e-10) the nearest eigenvalue sat at
# least 1.2e-5 off it.  The gap sits nearer the latter: a refusal only leaves
# the polygon's wider bracket, while a missed unimodular eigenvalue would
# certify a false upper end.  pinv._pencil_ends counts a root mu of Kato's
# pencil as real when |Im mu| is at most this gap times |mu|, for that reason.
_UNIT_CIRCLE_GAP = 1e-6
# Distinct matrix contents whose Operators as_operator keeps: enough for the
# operators one command works on, few enough that retained memory is O(n^2).
_SHARED_OPERATORS = 4


@dataclass(frozen=True, eq=False)
class Operator:
    """A validated square complex128 matrix that computes each factorization once.

    Every step given the same Operator shares what the first one computed:
    the singular values (norm and rank read them), the Cartesian parts, eigh(Re T),
    the outer polygon of W(T), the full SVD that callers
    needing singular vectors read, and the complex Schur form that the
    principal square root reads.  Each field has one kernel, whichever call
    reads it first.

    The Operator owns one outer polygon of W(T) (_polygon): support lines at
    8 seed angles, refined where the w(T) bracket needs them, solved at
    order n for every T, whatever its rank, and in units of one power of
    two (_unit), so nothing in it overflows.  support and points read it,
    excess measures points against its support lines, and radius_bracket
    reads the numerical radius w(T) off it, with a level-set test where the
    bisection stalls.

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
        """h(theta_k) at every polygon angle theta_k (_polygon)."""
        return self._polygon[1] * self._unit

    @property
    def points(self):
        """Boundary Rayleigh points attaining h(theta_k), in the polygon's order."""
        return self._polygon[2] * self._unit

    @cached_property
    def _unit(self):
        """The power of two s (_power_of_two_unit) in whose units the polygon
        and the level-set test are solved."""
        return _power_of_two_unit(self.matrix)

    @cached_property
    def _polygon(self):
        """(theta, h, points): one outer polygon of W(T), refined for w(T),
        with h and points in units of s (_unit).

        At an angle theta the top eigenpair of
        H(theta) = Re(e^{-i*theta} T) = cos(theta) Re T + sin(theta) Im T
        gives the support value h(theta) = max Re(e^{-i*theta} z) over W(T)
        and the boundary Rayleigh point attaining it (Johnson, SIAM J. Numer.
        Anal. 15, 1978).  Since H(theta + pi) = -H(theta), one solve at t
        also gives h(t + pi) and its point from the bottom eigenpair, so the
        angles are a first half-turn and the same angles plus pi.  The
        support lines of adjacent angles cut out an outer polygon of W(T)
        (_vertices).  The 8 seed angles _SEED_ANGLES take 4 solves; the arc
        of the largest vertex is then bisected (_bisect) until the w(T)
        bracket is _RADIUS_RTOL wide relative, or _RADIUS_SOLVES more solves
        are spent.  Every T is solved this way at order n, whatever its
        rank.  It is one cached computation: every reader gets the same
        bits, whichever reads first.  Each solve is one _end_eigenpairs call
        on copies of Re T, Im T and T divided by s, which live only as long
        as this refinement and are not kept.  Memory is O(n^2) plus one
        point per angle.  In units of s every support value,
        point and vertex is at most a small multiple of n, so none
        overflows, and T and 2^k T give the same bits.  A 0x0 operator has
        empty W(T): support values -inf at the seed angles, no points,
        w(T) = 0.
        """
        theta = np.concatenate([_SEED_ANGLES, _SEED_ANGLES + np.pi])
        if self.dim == 0:
            return theta, np.full(len(theta), -np.inf), np.zeros(0, complex)
        s = self._unit
        re, im, A = (_in_units(M, s) for M in (self.parts.re_part, self.parts.im_part, self.matrix))

        # h and the attaining points at the angles t, then at t + pi.
        def solve(t):
            vals, vecs = _end_eigenpairs(re, im, t)
            X = np.concatenate([vecs[:, 1], vecs[:, 0]])
            # The points are the Rayleigh quotients x^H (T/s) x of the rows x of X.
            points = ((X.conj() @ A) * X).sum(axis=1)
            return np.concatenate([vals[:, 1], -vals[:, 0]]), points

        return _bisect((theta, *solve(_SEED_ANGLES)), solve)

    def excess(self, points):
        """Signed distance of each point to the polygon's support lines.

        <= 0 up to rounding for p in the closure of W(T); a positive value
        lower-bounds the distance from W(T), so containment claims need no
        discretization allowance.  Memory is O(len(points)): the polygon
        has at most 8 + 2 _RADIUS_SOLVES angles.  The points are measured in
        units of s (_unit) and each distance multiplied by s.
        """
        theta, h, _ = self._polygon
        s = self._unit
        pts = _in_units(np.asarray(points, dtype=np.complex128).ravel(), s)
        return s * np.max(np.real(np.exp(-1j * theta) * pts[:, None]) - h, axis=1)

    @cached_property
    def radius_bracket(self):
        """(w_lo, w_hi) with w_lo <= w(T) <= w_hi up to rounding, computed on first read.

        w(T) = max over theta of h(theta), and h <= |v| on the arc of each
        vertex v of the outer polygon (_vertices), so w_hi = max |v|.
        w_lo = max(h, |boundary point|) is attained in W(T).  The polygon's
        bisection closes the bracket to _RADIUS_RTOL relative width unless
        W(T) runs close to the circle |z| = w(T) near its farthest point, as
        a disk does: no bisection lowers its vertices fast.  Then the
        level-set test (Mengi & Overton, IMA J. Numer. Anal. 25, 2005) runs
        once at r = w_lo (1 + _RADIUS_RTOL): when no eigenvalue of its pencil
        lies within _UNIT_CIRCLE_GAP of the unit circle (_level_set_distance),
        no H(theta) has eigenvalue r.  Since r exceeds the attained h at the
        polygon's angles, h < r everywhere by continuity, and w_hi = r.
        Both ends are found in units of s (_unit), where they are finite,
        and then multiplied by s.
        """
        if self.dim == 0:
            return 0.0, 0.0
        s = self._unit
        lo, hi, unclosed = _radius_ends(*self._polygon)
        if unclosed is not None:
            r = lo * (1 + _RADIUS_RTOL)
            if _level_set_distance(_in_units(self.matrix, s), r) > _UNIT_CIRCLE_GAP:
                hi = r
        return lo * s, hi * s


def as_operator(T):
    """Validate T and return it as an Operator; an Operator is returned unchanged.

    Equal matrix content (shape and complex128 bytes) gives the same
    Operator, so calls handed separate arrays with one content share its
    factorizations and W(T) polygon; each field has one kernel, so sharing
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
    Operator gives its matrix.  Raises DimensionError like as_operator, a
    ragged or non-numeric T included (_numeric_array).
    """
    if isinstance(T, Operator):
        return T.matrix
    A = _numeric_array(T, False, DimensionError, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


def _same_shape(T, S):
    """The one pair rule: the matrices of T and S (checked_matrix), or
    ParameterError "dimension mismatch" when their shapes differ, not
    numpy's bare ValueError from a product of the two."""
    A, B = checked_matrix(T), checked_matrix(S)
    if A.shape != B.shape:
        raise ParameterError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def checked_count(n, what, least):
    """The one count rule: n as an int when it is integral and at least least.

    An integral value passes, 65.0 and np.int64(65) as 65; 2.5, nan, inf, a
    string such as '65' and a value below least raise ParameterError naming
    what.  int() alone would truncate 2.5 to 2 and accept '65'.
    """
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{what} must be an integer: {n!r}") from exc
    if count != n:
        raise ParameterError(f"{what} must be an integer: {n!r}")
    if count < least:
        raise ParameterError(f"{what} must be at least {least}, got {count}")
    return count


def checked_scalar(x, what, real=True):
    """The one scalar rule: x as a finite float, or as a finite complex when
    real is False, else ParameterError naming what.  The dtype kind is tested
    before any cast (_numeric_array): 2, 0.5 and np.float64(0.5) pass, while
    a string such as '1.0', a complex value where a real one is asked, nan
    and inf raise.  float() alone would accept '1.0'."""
    a = _numeric_array(x, real, ParameterError, what)
    if a.shape != ():
        raise ParameterError(f"{what} must be a finite {'real' if real else 'complex'} number, got {x!r}")
    return float(a) if real else complex(a)


def checked_vector(v, n, what):
    """The one vector rule: v as a 1-D complex128 array of length n with finite
    entries, or ParameterError naming what.  A ragged or non-numeric v is
    refused (_numeric_array), and so is a 2-D array, not flattened."""
    x = _numeric_array(v, False, ParameterError, what)
    if x.shape != (n,):
        raise ParameterError(f"{what} must have length {n}, got shape {x.shape}")
    return x


def _numeric_array(x, real, error, what):
    """The one intake of the matrix, vector, grid and scalar rules: x as an
    ndarray of finite floats when real, else of finite complex128, or error
    naming what.  A ragged nesting, which numpy's array constructor refuses
    with a bare ValueError, is refused here, and the dtype kind is tested
    before the cast: a string is refused, not handed to numpy's parser, and
    a complex value where a real one is asked is refused, not cast with a
    ComplexWarning."""
    try:
        a = np.asarray(x)
    except ValueError as exc:
        raise error(f"{what} must be a rectangular array, not a ragged one") from exc
    if a.dtype.kind not in ("biuf" if real else "biufc"):
        raise error(f"{what} must hold {'real ' if real else ''}numbers, got dtype {a.dtype}")
    a = a.astype(float if real else np.complex128, copy=False)
    if not np.all(np.isfinite(a)):
        raise error(f"{what} must be finite")
    return a


@lru_cache(maxsize=_SHARED_OPERATORS)
def _shared_operator(shape, content):
    """The Operator for one matrix content, viewing the immutable bytes of its key."""
    return Operator(np.frombuffer(content, dtype=np.complex128).reshape(shape))


def rank_cutoff(n, sigma_max):
    """The one rank rule: of an n x n matrix with top singular value sigma_max,
    a singular value at or below _RANK_FACTOR * n * eps * sigma_max is kernel.

    The same figure is the one allowance for rounding: rank_cutoff(k, 1) is
    the relative error allowed a 2-norm or Frobenius norm computed over k
    rows or entries (norm_at_most, pencil.factorization_residuals)."""
    return _RANK_FACTOR * n * _EPS * sigma_max


def accretivity_tol(norm):
    """The one accretivity threshold: an operator of the given norm is
    accretive when lambda_min(Re T) >= -tolerance("accretivity") * max(1, norm)."""
    return tolerance("accretivity") * max(1.0, norm)


def operator_norm(T):
    """Spectral norm (largest singular value) of an array."""
    return float(np.linalg.norm(T, 2)) if T.size else 0.0


def norm_at_most(X, b):
    """The verdict operator_norm(X) <= b for a finite 2-D array X, decided by
    the Frobenius norm where it can be.

    With r = min(X.shape), ||X||_F / sqrt(r) <= ||X||_2 <= ||X||_F, so
    ||X||_F <= b passes and ||X||_F / sqrt(r) > b fails, each only beyond
    the relative allowance rank_cutoff(X.size, 1) for the rounding of the
    sum of squares and of the SVD that operator_norm takes; only between
    the two is operator_norm(X) taken, one SVD.  ||X||_F is summed in units
    of the power of two s of X's largest entry (_power_of_two_unit) and
    compared with b / s, so squares of entries near the ends of the float
    range neither overflow nor underflow.  No value of ||X||_2 is returned:
    a caller that reports it takes operator_norm.
    """
    X, b = np.asarray(X), float(b)
    if X.size == 0:
        return 0.0 <= b
    A = X.astype(np.complex128, copy=False)
    s = _power_of_two_unit(A)
    fro = float(np.linalg.norm(_in_units(A, s)))
    pad = rank_cutoff(X.size, 1.0)
    if fro * (1 + pad) <= b / s:
        return True
    if fro * (1 - pad) > math.sqrt(min(X.shape)) * (b / s):
        return False
    return operator_norm(X) <= b


@dataclass(frozen=True, eq=False)
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


def _power_of_two_unit(A):
    """The power of two s in (m/2, m], m the largest real or imaginary part of
    an entry of A in modulus (1/2 for a zero or empty A).  A/s is exact, its
    entries below 2 * sqrt(2) in modulus, and A and 2^k A give the same A/s."""
    m = float(np.max(np.abs((A.real, A.imag)), initial=0.0))
    return math.ldexp(1.0, math.frexp(m)[1] - 1)


def _in_units(A, s):
    """A / s for a power of two s, exact: the real and imaginary parts are
    divided as reals, since complex division multiplies by 1/s, which
    overflows for a subnormal s."""
    out = np.empty_like(A)
    out.real, out.imag = A.real / s, A.imag / s
    return out


def _vertices(theta, h):
    """The vertices of the outer polygon of the support lines at theta.

    theta ascends in [0, 2 pi) from theta[0] = 0.  The support lines
    Re(e^{-i alpha} z) = h(alpha) and Re(e^{-i beta} z) = h(beta) of adjacent
    angles alpha < beta (beta = 2 pi after the last angle) meet at the vertex
    v = e^{i alpha} (h(alpha) + i height), height being its offset along
    the first line from the foot e^{i alpha} h(alpha):
    height = (h(beta) - h(alpha) cos(beta - alpha)) / sin(beta - alpha).
    The polygon contains W(T), and h <= |v| on [alpha, beta].
    """
    step = np.diff(np.append(theta, 2 * np.pi))
    height = (np.append(h[1:], h[0]) - h * np.cos(step)) / np.sin(step)
    return np.exp(1j * theta) * (h + 1j * height)


def _radius_ends(theta, h, points):
    """(w_lo, w_hi, k) of the polygon: the attained max(h, |point|), the
    largest vertex modulus (at least w_lo), and the arc k of that vertex,
    None once (w_hi - w_lo) / w_hi is at most _RADIUS_RTOL."""
    modulus = np.abs(_vertices(theta, h))
    k = int(np.argmax(modulus))
    # |point| first: a tie with h = -0.0 keeps w_lo = +0.0.
    lo = max(float(np.max(np.abs(points))), float(np.max(h)))
    hi = max(float(modulus[k]), lo)
    return lo, hi, None if hi - lo <= _RADIUS_RTOL * hi else k


def _bisect(polygon, solve):
    """Refine polygon = (theta, h, points) for w(T), at most _RADIUS_SOLVES solves.

    While _radius_ends names an arc k, the one from theta[k] to the next
    angle, its midpoint t is solved by solve, which gives t + pi too, and
    both are inserted; the angles stay a first half-turn and the same angles
    plus pi.  It stops early when the midpoint of that arc, or of the
    opposite one, would equal an end of it in floating point, so two angles
    never coincide.
    """
    theta, h, points = polygon
    for _ in range(_RADIUS_SOLVES):
        k = _radius_ends(theta, h, points)[2]
        if k is None:
            break
        m = len(theta) // 2
        j = k % m
        ext = np.append(theta, 2 * np.pi)
        t = (ext[j] + ext[j + 1]) / 2
        # Rounding is monotone, so t + pi strictly inside the opposite arc
        # puts t strictly inside its own.
        if not ext[m + j] < t + np.pi < ext[m + j + 1]:
            break
        at, (h_t, points_t) = [j + 1, m + j + 1], solve(np.array([t]))
        theta = np.insert(theta, at, [t, t + np.pi])
        h, points = np.insert(h, at, h_t), np.insert(points, at, points_t)
    return theta, h, points


def _level_set_distance(A, r):
    """Distance from the unit circle of the nearest eigenvalue z of A' - z B'.

    A' = [[0, I], [-A, 2 r I]] and B' = [[I, 0], [0, A*]] linearize
    A - 2 r z I + z^2 A*, and z = e^{i theta} is an eigenvalue exactly when
    r is an eigenvalue of H(theta) = Re(e^{-i theta} A) (Mengi & Overton, IMA
    J. Numer. Anal. 25, 2005).  One QZ (scipy's eigvals of the pencil): an
    infinite eigenvalue is infinitely far, and a singular pencil gives NaN,
    which no distance exceeds.  A is T in units of s (Operator._unit), so
    2 r I cannot overflow: r is near w(A) <= n max |a_ij| < 2 sqrt(2) n.
    """
    import scipy.linalg  # deferred: a first import takes ~0.3 s and ~28 MiB

    eye, zero = np.eye(len(A)), np.zeros(A.shape)
    z = scipy.linalg.eigvals(
        np.block([[zero, eye], [-A, 2 * r * eye]]), np.block([[eye, zero], [zero, A.conj().T]])
    )
    return float(np.min(np.abs(np.abs(z) - 1)))


def _end_eigenpairs(re, im, theta):
    """Bottom and top eigenpairs of H(theta_j) = cos(theta_j) re + sin(theta_j) im.

    The one solver of every W(T) support value (Operator._polygon): the
    polygon's seed angles and each angle that a bisection adds.  The vectors
    are the boundary points' Rayleigh vectors, so no angle needs another
    kernel for its point.

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

    Lower storage gives Q = G_0 ... G_{n-2}, G_i = I - tau_i v v^H with
    v = (0, ..., 0, 1, c[i+2:, i]), its 1 at index i + 1.  Q fixes the first
    axis, and on rows 1..n-1 it is the QR form that zunmqr applies:
    reflector i is column i of c[1:, :-1], below its diagonal, with tau[i].
    """
    from scipy.linalg import lapack  # deferred: a first import takes ~0.3 s and ~28 MiB

    k, n = len(theta), re.shape[0]
    cos, sin = np.cos(theta), np.sin(theta)
    H = np.empty((n, n), complex)
    vals = np.empty((k, 2))
    vecs = np.empty((k, 2, n), complex)
    # dstemr takes the off-diagonal padded to length n (the pad is workspace,
    # unread on input) and overwrites it: each call gets its own row.
    offdiag = np.zeros((2, n))
    # Rows 1..n-1 of the two vectors, which zunmqr overwrites.
    tail = np.empty((n - 1, 2), complex, order="F")
    for j in range(k):
        np.multiply(cos[j], re, out=H)
        H += sin[j] * im
        c, d, e, tau, info = lapack.zhetrd(H.T, lower=1, overwrite_a=1)
        if info:
            raise _lapack_error("zhetrd", info, theta[j])
        offdiag[:, :-1] = e
        for col, index in enumerate((1, n)):
            # range 2: eigenpairs il..iu = index..index, counted from the bottom.
            _, w, z, info = lapack.dstemr(d, offdiag[col], 2, 0.0, 1.0, index, index)
            if info:
                raise _lapack_error("dstemr", info, theta[j])
            vals[j, col] = w[0]
            vecs[j, col, 0] = z[0, 0]
            tail[:, col] = z[1:, 0]
        if n > 1:
            # lwork = 2, the minimum for two columns, takes the unblocked path:
            # a blocked one builds a triangular factor per block of reflectors,
            # which two vectors do not amortize (5x slower at n = 128).
            info = lapack.zunmqr("L", "N", c[1:, :-1], tau, tail, 2, overwrite_c=1)[2]
            if info:
                raise _lapack_error("zunmqr", info, theta[j])
            vecs[j, :, 1:] = tail.T
    return vals, vecs.conj()


def _lapack_error(routine, info, theta):
    return AccuracyError(
        f"LAPACK {routine} failed (info = {info}) solving H(theta) at theta = {float(theta)!r}"
    )


def numerical_range_boundary(T):
    """Rayleigh points attaining the support function at each polygon angle.

    They lie in W(T), so their hull approximates W(T) from inside.  The
    points are a new array, so writing to them leaves the cached polygon intact.
    """
    return as_operator(T).points


def support_excess(T, points):
    """Signed distance of each point to the polygon's support lines of W(T)."""
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

