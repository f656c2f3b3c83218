"""Central tolerance table.

Every asserted claim reads its default tolerance from here.  A
--tol-override key=value on the command line (or an ``overrides`` dict passed
to resolve) retunes the thresholds of the claims that the CLI subcommands and
the selftest suites assert; the library's own internal checks read DEFAULTS
directly and do not see overrides.  Values are absolute unless the consuming
check documents a scale factor.
"""

from .errors import ParameterError

DEFAULTS = {
    # linops
    "accretivity": 1e-10,          # on lambda_min(Re T), scaled by max(1, ||T||)
    "norm-chain": 1e-8,            # slack in r <= w <= ||T|| <= 2w
    "sectorial-bound": 1e-8,       # slack in tan(omega) <= sqrt(||T||^2/delta^2 - 1)
    "sectorial-witness": 1e-10,    # omega = pi/4 for the 2x2 witness
    "hull-distance": 1e-10,        # Rayleigh points vs sampled support planes
    "spectral-inclusion": 1e-8,    # eigenvalues vs sampled support planes
    "kato-reconstruction": 1e-12,  # scaled by ||T||
    # pinv
    "penrose": 1e-10,              # scaled by max(1, ||T||, ||pinv||)
    "ep": 1e-10,
    "pinv-accretive": 1e-10,       # lambda_min(Re pinv) >= -tol
    "involution": 1e-10,
    "inclusion-residual": 1e-10,   # certificate residuals, scaled by max(1, ||S||)
    "perturb-formula-rel": 1e-8,   # formula vs direct pinv, scaled by ||pinv||
    "subspace-angle": 1e-8,
    "perturb-scaling": 1e-12,
    "neumann-tail": 1e-6,          # truncation deviation at order 20, contraction 0.4
    "bound-slack": 1e-12,          # rounding guard on exact inequalities and booleans
    "square-pinv": 1e-10,
    "second-power-gamma": 1e-12,
    "vector-inequality": 1e-10,
    # pencil
    "sqrt-residual": 1e-10,        # scaled by max(1, ||U||)
    "commutation": 1e-10,          # scaled by max(1, ||T||*||S||)
    "factorization-identity": 1e-10,
    "spectrum-match": 1e-6,
    "separation-strong": 1e-6,     # lambda_min(Re Upsilon) above which separation is asserted
    "balakrishnan-rel": 1e-6,
    "power-angle": 1e-6,           # slack over alpha*pi/2
    "quadrature-rel": 1e-8,
    # bvp
    "bvp-witness": 1e-10,          # scalar sinh witness at the default grid
    "bvp-commutation": 1e-8,       # scaled by max(1, ||T||^2, ||S||)
    "resonance": 1e-12,            # scaled by dim
    "boundary-residual": 1e-9,     # scaled by 1 + ||u0|| + ||u1||
    "ode-residual": 1e-8,
    "dual-route": 1e-8,
    "derivative-check": 1e-6,
    "superposition": 1e-10,
    "fd-gap": 1e-4,
    # spectral
    "mode-oracle": 1e-8,
}


def resolve(overrides=None):
    """Return a tolerance table with ``overrides`` applied.

    Raises ParameterError for unknown keys or non-positive values.
    """
    table = dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in table:
            raise ParameterError(f"unknown tolerance key: {key!r}")
        value = float(value)
        if value <= 0:
            raise ParameterError(f"tolerance {key!r} must be positive, got {value}")
        table[key] = value
    return table
