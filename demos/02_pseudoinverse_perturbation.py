"""Pseudoinverse of a rank-deficient accretive matrix and the update formula."""

import numpy as np

from accretive import (
    perturbation_bound,
    perturbation_certificate,
    perturbed_pinv,
    pseudoinverse,
)

# Rank-2 accretive matrix acting on a 2d block of C^4.
rng = np.random.default_rng(7)
Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
block = np.array([[2.0, 0.4], [-0.4, 1.5]])
T = Q[:, :2] @ block @ Q[:, :2].conj().T

res = pseudoinverse(T)
print(f"rank {res.rank}, singular values {np.round(res.singular_values, 4)}")
print(f"reduced minimum modulus gamma = {res.gamma:.6f}")

# Accretive matrices are EP: T T+ = T+ T, so range and row space agree
# and the pseudoinverse of the square is the square of the pseudoinverse.
commute = np.linalg.norm(T @ res.pinv - res.pinv @ T)
sq = np.linalg.norm(np.linalg.pinv(T @ T) - res.pinv @ res.pinv)
print(f"\n|T T+ - T+ T|        = {commute:.2e}")
print(f"|(T^2)+ - (T+)^2|    = {sq:.2e}")

# Perturb inside the block: same column space and row space, so the
# closed-form update (I + T+ S)^{-1} T+ applies.
S = 0.05 * (Q[:, :2] @ np.array([[1.0, 0.3], [0.0, -0.8]]) @ Q[:, :2].conj().T)
cert = perturbation_certificate(T, S)
print(f"\ncertificate mode      {cert.mode}")
print(f"contraction |T+ S|    {cert.contraction_TdS:.6f}")
# |T+ S| <= |T+| |S| = |S| / gamma(T): the contraction is at most this ratio.
print(f"|S| / gamma(T)        {cert.norm_over_gamma:.6f}")

upd = perturbed_pinv(T, S, cert)
direct = np.linalg.pinv(T + S)
# The paper's bound ||S|| ||T+||^2 / (1 - ||T+ S||).
bound = perturbation_bound(cert)
print(f"update vs direct      {np.linalg.norm(upd - direct, 2):.2e}")
print(f"|(T+S)+ - T+|         = {np.linalg.norm(direct - res.pinv, 2):.2e}  bound {bound:.2e}")

# A perturbation that leaks outside the block is refused with a certificate.
leak = np.zeros((4, 4), dtype=complex)
leak[3, 3] = 0.1
cert = perturbation_certificate(T, leak)
print(f"\nout-of-block perturbation -> mode {cert.mode}")
print(f"range inclusion residual  {cert.range_inclusion_residual:.3e}")
print(f"kernel inclusion residual {cert.kernel_inclusion_residual:.3e}")
