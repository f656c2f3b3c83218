"""Exception types shared across the package, each an AccretiveError.

The CLI maps these onto exit codes: ParseError -> 2, the hypothesis-class
errors (HypothesisError and subclasses, PreconditionError, ModelError) -> 3,
and failed numerical claims and AccuracyError -> 1.
"""


class AccretiveError(Exception):
    """Base of every library error; each also keeps a ValueError or RuntimeError base."""


class DimensionError(AccretiveError, ValueError):
    """Input is not a square matrix, or not a finite one.

    Shape and finiteness of one matrix only: two matrices whose shapes
    differ raise ParameterError "dimension mismatch" (the pair rule,
    linops._same_shape)."""


class ParameterError(AccretiveError, ValueError):
    """A scalar parameter is outside its documented domain."""


class ParseError(AccretiveError, ValueError):
    """An input file could not be parsed; message carries the location."""


class PreconditionError(AccretiveError, RuntimeError):
    """A documented operation precondition is violated."""


class HypothesisError(AccretiveError, RuntimeError):
    """Theorem hypotheses could not be certified for the given data."""


class ResonanceError(HypothesisError):
    """The boundary map I - exp(-2*sqrt(Upsilon)) is (numerically) singular."""


class ModelError(AccretiveError, ValueError):
    """Model parameters fail a feasibility screen; message lists the screens."""


class AccuracyError(AccretiveError, RuntimeError):
    """A computation failed its own accuracy check.

    An iterative scheme missed its target tolerance, or two routes to one
    result disagree.
    """
