"""Factor a quadratic pencil lambda^2 - 2 lambda T - S into linear factors."""

import numpy as np

from accretive import (
    QuadraticPencil,
    accretive_sqrt,
    balakrishnan_power,
    factorize,
    pencil_spectrum,
    sectorial_angle,
)
from accretive.pencil import factorization_residuals, vandermonde_check

# Commuting pair: T and S are polynomials in one Hermitian matrix, so the
# one-sided factorizations hold in addition to the symmetric one.
rng = np.random.default_rng(3)
H = rng.standard_normal((4, 4))
H = (H + H.T) / 2
T = np.eye(4) * 2.0 + 0.3 * H
S = np.eye(4) * 1.0 + 0.1 * H @ H

p = QuadraticPencil(T, S)
f = factorize(p)
print(f"sqrt residual        {f.sqrt_residual:.3e}")
print(f"sqrt sector angle    {sectorial_angle(f.root)[0]:.4f} rad")
print(f"commuting            {f.commuting}")
print(f"separation           {f.separation:.4f}  ({f.separation_regime})")
print(f"warnings             {f.warnings}")

# The factor identity lambda^2 - 2 lambda T - S = (lambda - Z1)(lambda - Z2)
# holds symmetrically always, one-sidedly when [T, S] = 0.
lams = [0.0, 1.0, -2.0, 1.5 + 0.7j, -0.3 - 2.1j]
worst_sym, worst_one = factorization_residuals(f, p, lams)
print(f"\nsymmetric residual   {worst_sym:.3e}  over {len(lams)} sample points")
print(f"one-sided residual   {worst_one:.3e}")

# Z1 and Z2 eigenvalues together recover the pencil spectrum (companion form).
spec = pencil_spectrum(p)
combined = np.sort_complex(np.asarray(f.spectra_z1 + f.spectra_z2))
print(f"\npencil spectrum      {np.round(np.sort_complex(spec), 4)}")
print(f"factor spectra       {np.round(combined, 4)}")
print(f"vandermonde ranks agree  {vandermonde_check(f)}")

# Fractional powers of the strongly accretive Upsilon = T^2 + S by
# quadrature: the half power squares back, matches the Schur-method root,
# and quarter powers compose.
U = T @ T + S
half = balakrishnan_power(U, 0.5)
print(f"\n|U^0.5 U^0.5 - U|        {np.linalg.norm(half @ half - U, 2):.3e}")
print(f"|U^0.5 - sqrt(U)|        {np.linalg.norm(half - accretive_sqrt(U), 2):.3e}")
quarter = balakrishnan_power(U, 0.25)
print(f"|U^0.25 U^0.25 - U^0.5|  {np.linalg.norm(quarter @ quarter - half, 2):.3e}")
