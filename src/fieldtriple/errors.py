"""Exception types shared across the package.

Every error raised on purpose derives from FieldTripleError so callers can
catch the package's failures without also swallowing programming mistakes.
"""


class FieldTripleError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidInputError(FieldTripleError, ValueError):
    """Structurally bad input: mismatched block dimensions, wrong arity."""


class InvalidParameterError(FieldTripleError, ValueError):
    """A parameter value outside its documented range (h=0, non-SPD metric, ...)."""


class IncompatiblePointsError(FieldTripleError, ValueError):
    """Two geometric objects were combined but sit over different base points."""


class DomainError(FieldTripleError, ArithmeticError):
    """Evaluation left the admissible domain (e.g. sqrt of a negative value).

    ``component`` identifies the offending entry when the evaluation was
    vectorised; it is None for scalar evaluations.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class GridDomainError(DomainError):
    """Domain violation during grid assembly; carries the offending cell."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NoConvergenceError(FieldTripleError, RuntimeError):
    """An iterative method exhausted its iteration budget."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class SingularJacobianError(FieldTripleError, RuntimeError):
    """A Newton step hit a singular (or numerically unusable) Jacobian."""


class ExprSyntaxError(FieldTripleError, ValueError):
    """Expression parse failure; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _require_newton_options(tol, max_iter) -> None:
    """The Newton solvers' shared test of their tolerance and iteration cap;
    a nan tolerance fails it."""
    if not tol > 0.0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
