"""Exception types shared across the package, and its one damped-Newton loop.

Every error raised on purpose derives from FieldTripleError so callers can
catch the package's failures without also swallowing programming mistakes.
"""

import math


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
    """Expression parse failure; ``offset`` is the offset of the problem in
    the source, in characters and, since all before it is ASCII, in bytes."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _require_newton_options(tol, max_iter) -> None:
    """The Newton loop's test of its tolerance and iteration cap; a nan
    tolerance fails it, and so does an infinite one, which every residual
    would meet."""
    if not tol > 0.0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if not math.isfinite(tol):
        raise InvalidParameterError(f"tolerance must be finite, got {tol}")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")


def _max_norm(r) -> float:
    return float(abs(r).max(initial=0.0))


# Trial step lengths per line search, 1 down to 2^-29, before it gives up.
_MAX_HALVINGS = 30


def _damped_newton(residual, newton_step, x, F, tol, max_iter):
    """Damped Newton iteration on ``residual`` from ``x``, where it is ``F``.

    ``newton_step(x, F, iterations)`` gives the full step and ``residual``
    raises ``DomainError`` where it is undefined, as the loop does when
    ``F`` is not finite.  The line search halves the step until
    ``x + t*step`` is defined and strictly lowers the max-norm.
    Returns ``(x, norm, iterations, stop)`` with ``stop`` one of converged,
    cap (``max_iter`` steps), stalled (no defined trial lowered the norm) or
    inadmissible (no trial was defined).
    """
    _require_newton_options(tol, max_iter)
    norm = _max_norm(F)
    if not math.isfinite(norm):
        raise DomainError(f"residual at the starting point is not finite ({norm})")
    iterations = 0
    while norm > tol:
        if iterations == max_iter:
            return x, norm, iterations, "cap"
        step = newton_step(x, F, iterations)
        stop = "inadmissible"
        for k in range(_MAX_HALVINGS):
            trial = x + 0.5 ** k * step
            try:
                F_trial = residual(trial)
            except DomainError:
                continue
            stop = "stalled"
            norm_trial = _max_norm(F_trial)
            if norm_trial < norm:
                break
        else:
            return x, norm, iterations, stop
        x, F, norm = trial, F_trial, norm_trial
        iterations += 1
    return x, norm, iterations, "converged"
