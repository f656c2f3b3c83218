"""Accretive-operator toolkit: certification, pseudoinverses, pencils, BVPs."""

from .errors import (
    AccretiveError,
    AccuracyError,
    DimensionError,
    HypothesisError,
    ModelError,
    ParameterError,
    ParseError,
    PreconditionError,
    ResonanceError,
)
from .linops import (
    AccretivityReport,
    CartesianParts,
    Operator,
    accretivity_report,
    as_operator,
    cartesian_parts,
    kato_representation,
    numerical_range_boundary,
    sectorial_angle,
)
from .pinv import (
    PerturbationCertificate,
    PinvResult,
    perturbation_bound,
    perturbation_certificate,
    perturbed_pinv,
    pseudoinverse,
    second_power_inequalities,
)
from .pencil import (
    PencilFactorization,
    QuadraticPencil,
    accretive_sqrt,
    balakrishnan_power,
    factorize,
    pencil_spectrum,
)
from .bvp import (
    BvpProblem,
    BvpSolution,
    chebyshev_grid,
    fd_oracle,
    solve_bvp,
)
from .spectral import (
    LaplacianModel,
    build_operators,
    condition_check,
    demo,
    per_mode_oracle,
)

__version__ = "0.1.0"
