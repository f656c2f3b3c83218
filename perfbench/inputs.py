"""Seeded input generators for the benchmark, written against numpy alone.

The benchmark builds every matrix itself so that the program under test
receives only the generated arrays, and so that a refactor of the library's
own samplers cannot change what is measured.  Each request draws from its own
stream, derived from the run seed and a text label.
"""

import math
import zlib

import numpy as np


def rng_for(seed, label):
    """Independent Generator for (seed, label)."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode("utf-8"))])


def complex_gaussian(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def random_unitary(rng, n):
    Q, R = np.linalg.qr(complex_gaussian(rng, (n, n)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _hermitian(rng, n):
    A = complex_gaussian(rng, (n, n))
    return (A + A.conj().T) / 2


def _unit_norm(M):
    return M / np.linalg.norm(M, 2)


def strongly_accretive(rng, n, max_tan=3.0, floor=0.1):
    """T = H^{1/2} (I + iK) H^{1/2} with spec(H) in [floor, floor + 2], ||K|| <= max_tan."""
    U = random_unitary(rng, n)
    root = (U * np.sqrt(floor + 2.0 * rng.random(n))) @ U.conj().T
    K = _unit_norm(_hermitian(rng, n)) * (max_tan * rng.random())
    return root @ (np.eye(n) + 1j * K) @ root


def singular_accretive(rng, n, rank, max_tan=3.0):
    """Q M Q* with Q an n x rank isometry and M strongly accretive: N(T) = N(T*)."""
    Q = random_unitary(rng, n)[:, :rank]
    return Q @ strongly_accretive(rng, rank, max_tan=max_tan) @ Q.conj().T


def non_accretive(rng, n):
    """Gaussian matrix shifted so that lambda_min(Re T) = -1/2."""
    G = complex_gaussian(rng, (n, n), 1.0 / math.sqrt(n))
    return G - (np.linalg.eigvalsh((G + G.conj().T) / 2)[0] + 0.5) * np.eye(n)


def certified_pair(rng, n, rank, contraction=0.6):
    """(T, S) meeting both pseudoinverse-update hypotheses.

    T = Q M Q* and S = Q B Q* share the range block of the isometry Q, so both
    inclusion residuals vanish; S is scaled so ||T^+ S|| lies in
    [0.3, 1) * contraction.  T^+ = Q M^{-1} Q* is exact because Q is an isometry.
    """
    Q = random_unitary(rng, n)[:, :rank]
    M = strongly_accretive(rng, rank)
    B = strongly_accretive(rng, rank, max_tan=1.5)
    T = Q @ M @ Q.conj().T
    S = Q @ B @ Q.conj().T
    T_pinv = Q @ np.linalg.inv(M) @ Q.conj().T
    S *= contraction * (0.3 + 0.7 * rng.random()) / np.linalg.norm(T_pinv @ S, 2)
    return T, S


def commuting_pencil(rng, n, floor=0.3):
    """Commuting (T, S) = (U diag(t) U*, U diag(s) U*) with T, T^2, S accretive.

    Returns (T, S, U, t, s) so that a caller can solve per eigenmode.  Both
    value sets stay in sectors |arg| <= pi/8 and pi/3 around the positive axis.
    """
    U = random_unitary(rng, n)
    t = (floor + 1.5 * rng.random(n)) * np.exp(1j * (math.pi / 8) * (2 * rng.random(n) - 1))
    s = (floor + 1.5 * rng.random(n)) * np.exp(1j * (math.pi / 3) * (2 * rng.random(n) - 1))
    T = (U * t) @ U.conj().T
    S = (U * s) @ U.conj().T
    return T, S, U, t, s


def noncommuting_pencil(rng, n, s_scale=0.8, margin=1e-3):
    """Generic (T, S) with T, T^2 and S accretive.

    The imaginary part of T is halved until lambda_min(Re T^2) clears the
    margin; the Hermitian limit T = H has Re T^2 = H^2 > 0, so this ends.
    """
    U = random_unitary(rng, n)
    root = (U * np.sqrt(0.3 + 2.0 * rng.random(n))) @ U.conj().T
    K = _unit_norm(_hermitian(rng, n)) * (0.4 * rng.random())
    while True:
        T = root @ (np.eye(n) + 1j * K) @ root
        sq = T @ T
        if np.linalg.eigvalsh((sq + sq.conj().T) / 2)[0] >= margin:
            break
        K = K * 0.5
    S = strongly_accretive(rng, n, max_tan=1.0)
    S *= s_scale * max(np.linalg.norm(T, 2), 1.0) / np.linalg.norm(S, 2)
    return T, S
