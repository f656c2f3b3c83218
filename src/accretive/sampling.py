"""Seeded generators for the operator classes the toolkit certifies.

Every generator takes a numpy Generator so suites stay reproducible; rng_for
derives independent streams from a base seed and a text label.
"""

import math
import zlib

import numpy as np

from .linops import hermitian_sqrt
from .pinv import pseudoinverse


def rng_for(seed, label):
    """Independent Generator derived from (seed, label).

    The label is folded in through crc32 so suites with different names never
    share a stream even under the same base seed.
    """
    return np.random.default_rng([int(seed), zlib.crc32(label.encode("utf-8"))])


def complex_gaussian(rng, shape, scale=1.0):
    """IID complex Gaussian entries, standard deviation `scale` per entry."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_operator(rng, dim):
    """Unstructured dense complex matrix."""
    return complex_gaussian(rng, (dim, dim))


def random_unitary(rng, dim):
    """Haar-ish unitary via QR of a complex Gaussian, phases fixed."""
    Q, R = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def hermitian(rng, dim):
    A = complex_gaussian(rng, (dim, dim))
    return (A + A.conj().T) / 2


def positive_definite(rng, dim, floor=0.1):
    """Hermitian positive definite with eigenvalues in [floor, floor + 2]."""
    U = random_unitary(rng, dim)
    vals = floor + 2.0 * rng.random(dim)
    return (U * vals) @ U.conj().T


def accretive_operator(rng, dim, max_tan=3.0):
    """Strongly accretive T = H^{1/2} (I + i K) H^{1/2}.

    H is positive definite; K Hermitian with ||K|| <= max_tan, so the
    sectorial semiangle is at most arctan(max_tan).
    """
    H = positive_definite(rng, dim)
    K = hermitian(rng, dim)
    nrm = np.linalg.norm(K, 2)
    if nrm > 0:
        K *= max_tan * rng.random() / nrm
    R = hermitian_sqrt(H)
    return R @ (np.eye(dim) + 1j * K) @ R


def singular_accretive_operator(rng, dim, rank):
    """Accretive operator with kernel of dimension dim - rank and N(T) = N(T*).

    Built as Q M Q* with Q an isometry onto an r-dimensional subspace and M
    strongly accretive, so T annihilates range(Q)^perp on both sides.
    """
    if rank >= dim:
        return accretive_operator(rng, dim)
    Q = random_unitary(rng, dim)[:, :rank]
    M = accretive_operator(rng, max(rank, 1))
    return Q @ M @ Q.conj().T


def rank_deficient_operator(rng, dim, rank):
    """Generic (non-accretive) matrix of prescribed rank."""
    X = complex_gaussian(rng, (dim, rank))
    Y = complex_gaussian(rng, (dim, rank))
    return X @ Y.conj().T


def square_accretive_operator(rng, dim):
    """Accretive T whose square is accretive too.

    Accretivity of T does not imply accretivity of T^2 (a 2x2 Jordan-like
    block already fails), so the imaginary part is shrunk until
    lambda_min(Re T^2) clears 1e-3.  Terminates because the Hermitian
    limit has Re(T^2) = H^2 > 0.
    """
    H = positive_definite(rng, dim, floor=0.3)
    K = hermitian(rng, dim)
    nrm = np.linalg.norm(K, 2)
    if nrm > 0:
        K *= 0.4 * rng.random() / nrm
    R = hermitian_sqrt(H)
    for _ in range(60):
        T = R @ (np.eye(dim) + 1j * K) @ R
        sq = T @ T
        if np.linalg.eigvalsh((sq + sq.conj().T) / 2)[0] >= 1e-3:
            return T
        K *= 0.5
    return R @ R


def commuting_pencil_pair(rng, dim):
    """(T, S) commuting with T, T^2, S, and T^2 + S all accretive.

    Joint diagonalization with T-values confined to |arg| <= pi/8 (so the
    squares stay in the right half-plane with margin) and S-values to
    |arg| <= pi/3 with real part bounded below.
    """
    U = random_unitary(rng, dim)
    t_mod = 0.3 + 1.5 * rng.random(dim)
    t_arg = (math.pi / 8) * (2 * rng.random(dim) - 1)
    t_vals = t_mod * np.exp(1j * t_arg)
    s_mod = 0.3 + 1.5 * rng.random(dim)
    s_arg = (math.pi / 3) * (2 * rng.random(dim) - 1)
    s_vals = s_mod * np.exp(1j * s_arg)
    T = (U * t_vals) @ U.conj().T
    S = (U * s_vals) @ U.conj().T
    return T, S


def pencil_pair(rng, dim):
    """Generic (non-commuting) pair with T, T^2, and S accretive."""
    T = square_accretive_operator(rng, dim)
    S = accretive_operator(rng, dim, max_tan=1.0)
    nrm = np.linalg.norm(S, 2)
    if nrm > 0:
        S *= 0.8 * max(np.linalg.norm(T, 2), 1.0) / nrm
    return T, S


def certified_pair(rng, dim, rank, contraction=0.6):
    """(T, S) meeting both inclusion hypotheses, with ||T_pinv S|| < contraction.

    T = Q M Q* and S = Q B Q* share the range of an isometry Q with rank
    columns, M and B strongly accretive, so S maps into range(T) and vanishes
    on kernel(T).  S is scaled so that ||T_pinv S|| is a uniform random
    fraction of contraction.
    """
    Q = random_unitary(rng, dim)[:, :rank]
    T = Q @ accretive_operator(rng, rank) @ Q.conj().T
    S = Q @ accretive_operator(rng, rank, max_tan=1.5) @ Q.conj().T
    P = pseudoinverse(T).pinv
    S *= contraction * rng.random() / np.linalg.norm(P @ S, 2)
    return T, S
