"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, the hypothesis-class
errors (HypothesisError and subclasses, PreconditionError, ModelError) -> 3,
and failed numerical claims and AccuracyError -> 1.
"""


class DimensionError(ValueError):
    """Input is not a finite square matrix / sizes do not match."""


class ParameterError(ValueError):
    """A scalar parameter is outside its documented domain."""


class ParseError(ValueError):
    """An input file could not be parsed; message carries the location."""


class PreconditionError(RuntimeError):
    """A documented operation precondition is violated."""


class HypothesisError(RuntimeError):
    """Theorem hypotheses could not be certified for the given data."""


class ResonanceError(HypothesisError):
    """The boundary map I - exp(-2*sqrt(Upsilon)) is (numerically) singular."""


class ModelError(ValueError):
    """Model parameters fail a feasibility screen; message lists the screens."""


class AccuracyError(RuntimeError):
    """A computation failed its own accuracy check.

    An iterative scheme missed its target tolerance, or two routes to one
    result disagree.
    """
