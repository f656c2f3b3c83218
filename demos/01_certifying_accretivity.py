"""Certify accretivity and measure the sectorial angle of a few matrices."""

import numpy as np

from accretive import accretivity_report, numerical_range_boundary

# A rotation-like matrix: numerical range is a disk around 1, angle pi/4.
T = np.array([[1.0, 1.0], [-1.0, 1.0]])
rep = accretivity_report(T)
print("witness [[1,1],[-1,1]]")
print(f"  status           {rep.status}")
print(f"  delta            {rep.delta:.6f}")
print(f"  omega            {rep.omega:.12f}  (pi/4 = {np.pi / 4:.12f})")
print(f"  numerical radius {rep.numerical_radius:.6f}")
print(f"  norm bound rhs   {rep.bound_rhs:.6f}  >= tan(omega) = {rep.lambda0_modulus:.6f}")

# The norm chain r <= w <= ||T|| <= 2 w for a random non-normal matrix.
rng = np.random.default_rng(1)
G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
rep = accretivity_report(G)
print("\nrandom 5x5")
print(f"  spectral radius  {rep.spectral_radius:.6f}")
print(f"  numerical radius {rep.numerical_radius:.6f}")
print(f"  operator norm    {rep.operator_norm:.6f}")
print(f"  2 * w            {2 * rep.numerical_radius:.6f}")
print(f"  accretive        {rep.is_accretive}")

# Accretive with singular real part: diag(1, i) has delta = 0 and the
# imaginary direction escapes every proper sector.
D = np.diag([1.0, 1.0j])
rep = accretivity_report(D)
print("\ndiag(1, i)")
print(f"  status {rep.status}")
print(f"  omega  {rep.omega:.6f}  (pi/2: flagged, not sectorial)")

# Boundary samples trace the numerical range; print its bounding box.
pts = numerical_range_boundary(G)
print("\nnumerical range bounding box of the random matrix")
print(f"  Re in [{pts.real.min():+.4f}, {pts.real.max():+.4f}]")
print(f"  Im in [{pts.imag.min():+.4f}, {pts.imag.max():+.4f}]")
