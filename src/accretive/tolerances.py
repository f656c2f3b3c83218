"""Central tolerance table.

Every check reads tolerance(key) from the active table: DEFAULTS, or DEFAULTS
with overrides inside ``with overridden(...)``, which cli.run and run_selftest
enter once.  So a --tol-override reaches every check that reads its key, and a
failed internal check can make a subcommand exit 3 or 1 (solve-bvp
--tol-override resonance=1e3 exits 3).  An explicit tol= argument wins over
the table.  Values are absolute unless the check documents a scale factor.

A report field computed on first read (deferred) runs its checks under the
table that was active when its object was built, whenever it is read.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property, wraps

from .errors import ParameterError

DEFAULTS = {
    # linops
    "accretivity": 1e-10,          # on lambda_min(Re T), scaled in linops.accretivity_tol
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
    "update-route-gap": 1e-10,     # range vs kernel update route, scaled by max(1, ||pinv||)
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
    "factorization-identity": 1e-10,  # scaled by QuadraticPencil.scale
    "spectrum-match": 1e-6,
    "separation-strong": 1e-6,     # lambda_min(Re Upsilon) above which separation is asserted
    "balakrishnan-rel": 1e-6,
    "power-angle": 1e-6,           # slack over alpha*pi/2
    "quadrature-rel": 1e-8,
    # bvp
    "bvp-witness": 1e-10,          # scalar sinh witness at the default grid
    "bvp-commutation": 1e-8,       # scaled by QuadraticPencil.scale
    "resonance": 1e-12,            # scaled by dim
    "boundary-residual": 1e-9,     # scaled by 1 + ||u0|| + ||u1||
    "ode-residual": 1e-8,
    "dual-route": 1e-8,
    "superposition": 1e-10,
    "fd-gap": 1e-4,
    # spectral
    "mode-oracle": 1e-8,
}


_ACTIVE = ContextVar("tolerances", default=DEFAULTS)


def tolerance(key):
    """The active table's tolerance for key."""
    return _ACTIVE.get()[key]


@contextmanager
def overridden(overrides):
    """Make DEFAULTS with ``overrides`` applied the active table inside the block.

    Raises ParameterError for unknown keys and for values outside (0, inf).
    """
    table = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in table:
            raise ParameterError(f"unknown tolerance key: {key!r}")
        value = float(value)
        if not 0 < value < float("inf"):
            raise ParameterError(f"tolerance {key!r} must be positive and finite, got {value}")
        table[key] = value
    with _active(table):
        yield


def active_table():
    """The active table, for an object to keep as its tolerance_table field."""
    return _ACTIVE.get()


@contextmanager
def _active(table):
    token = _ACTIVE.set(table)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def deferred(compute):
    """A cached_property that computes on first read under the object's
    tolerance_table, the table active when the object was built, so a field
    read after an overridden block ends gives the verdict it gave inside."""

    @wraps(compute)
    def read(self):
        with _active(self.tolerance_table):
            return compute(self)

    return cached_property(read)
