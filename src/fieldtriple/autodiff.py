"""Forward-mode automatic differentiation on second-order Taylor numbers.

A :class:`Taylor` carries a value, its gradient and optionally its Hessian
with respect to k seeded inputs, and propagates all of them through one
arithmetic pass (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
Every channel is a python float or a numpy array whose trailing axes are a
batch, so a single pass can differentiate a function at one point or at a
whole batch of points at once.

Conventions
-----------
* A plain number entering Taylor arithmetic is promoted with zero derivative
  parts, so evaluating on Taylor numbers reproduces the plain value bit for
  bit (the value channel performs exactly the same float operations).
* ``grad`` and ``hessian`` are one seeded pass each; ``hessian_mixed`` is an
  entry of ``hessian``.  A first-order pass leaves ``hess`` as None and does
  no second-order work.
* The finite-difference oracle ``fd_grad`` is kept deliberately independent
  of the Taylor path (pure f-evaluations) so the two can cross-check each
  other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError, InvalidParameterError

__all__ = [
    "Taylor",
    "ScalarField",
    "seed",
    "grad",
    "fd_grad",
    "hessian_mixed",
    "hessian",
    "sqrt",
]


def _first_bad_component(mask) -> int | None:
    """Index of the first True entry of a boolean array, None for scalars."""
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return None
    return int(np.argmax(mask))


def _check_value_domain(value, ok_mask, what: str) -> None:
    ok = np.asarray(ok_mask)
    if not bool(np.all(ok)):
        comp = _first_bad_component(~ok)
        at = "" if comp is None else f" at component {comp}"
        raise DomainError(f"{what} left the admissible domain{at}", component=comp)


def _lift(x) -> "Taylor":
    """A plain number as a constant: zero gradient, untracked Hessian."""
    return x if isinstance(x, Taylor) else Taylor(x, 0.0)


def _plus(a, b):
    """Sum of two Hessian channels, ``None`` standing for zero."""
    if a is None:
        return b
    return a if b is None else a + b


def _scaled(h, c):
    """h * c for a Hessian channel.  A scalar zero (a seed's) stays a scalar
    rather than broadcasting to the batch shape of c: sums of seeds then keep
    Hessians of shape (k, k, 1)."""
    if h is None or (np.ndim(h) == 0 and h == 0.0):
        return h
    return h * c


def _outer(a, b):
    """a_i b_j over the leading (input) axis; batch axes ride along."""
    return a[:, None] * b[None]


def _sym_outer(a, b):
    """a_i b_j + a_j b_i, exactly symmetric."""
    p = _outer(a, b)
    return p + p.swapaxes(0, 1)


class Taylor:
    """Second-order Taylor expansion value + grad.dx + dx.hess.dx / 2.

    ``grad`` has shape (k,) + batch and ``hess`` (k, k) + batch, where k is
    the number of seeded inputs and batch the shape of ``value``; either may
    be a scalar that broadcasts to it.  ``hess`` is None when the pass tracks
    first order only, so a gradient pass does no second-order work.  All
    inputs of one pass are seeded to the same order.
    """

    # Keep numpy from consuming us in mixed expressions; its binary ufuncs
    # then return NotImplemented and python falls back to our reflected ops.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = value
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Taylor({self.value!r}, {self.grad!r}, {self.hess!r})"

    def __add__(self, other):
        o = _lift(other)
        return Taylor(self.value + o.value, self.grad + o.grad,
                      _plus(self.hess, o.hess))

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        hess = self.hess if o.hess is None else self.hess - o.hess
        return Taylor(self.value - o.value, self.grad - o.grad, hess)

    def __rsub__(self, other):
        o = _lift(other)
        return Taylor(o.value - self.value, o.grad - self.grad,
                      _scaled(self.hess, -1.0))

    def __neg__(self):
        return Taylor(-self.value, -self.grad, _scaled(self.hess, -1.0))

    def __mul__(self, other):
        o = _lift(other)
        if o.hess is None:
            hess = _scaled(self.hess, o.value)
        else:
            hess = (_scaled(self.hess, o.value) + _scaled(o.hess, self.value)
                    + _sym_outer(self.grad, o.grad))
        return Taylor(self.value * o.value,
                      self.grad * o.value + self.value * o.grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _divide(self, _lift(other))

    def __rtruediv__(self, other):
        return _divide(_lift(other), self)


def _divide(a: Taylor, b: Taylor) -> Taylor:
    """a / b, from a = v b differentiated once and twice."""
    v = a.value / b.value
    grad = (a.grad - v * b.grad) / b.value
    hess = _plus(a.hess, _scaled(b.hess, -v))
    if b.hess is not None:
        hess = hess - _sym_outer(grad, b.grad)
    return Taylor(v, grad, None if hess is None else hess / b.value)


def sqrt(x):
    """Square root with derivative propagation; negative values are a domain error."""
    if isinstance(x, Taylor):
        _check_value_domain(x.value, np.asarray(x.value) > 0.0, "sqrt")
        r = np.sqrt(x.value)
        d1 = 0.5 / r
        hess = None
        if x.hess is not None:
            hess = (_scaled(x.hess, d1)
                    + (-0.25 / (r * x.value)) * _outer(x.grad, x.grad))
        return Taylor(r, d1 * x.grad, hess)
    _check_value_domain(x, np.asarray(x) >= 0.0, "sqrt")
    return np.sqrt(x)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of ``arity`` real arguments, written in generic
    arithmetic so it accepts plain numbers, Taylor entries, and numpy-array
    channels for batched evaluation."""

    arity: int
    eval: Callable

    def __post_init__(self):
        if self.arity < 1:
            raise InvalidInputError(f"arity must be >= 1, got {self.arity}")

    def __call__(self, xs: Sequence):
        if len(xs) != self.arity:
            raise InvalidInputError(
                f"expected {self.arity} arguments, got {len(xs)}")
        return self.eval(xs)


def _point(f: ScalarField, x, batch: bool = False) -> np.ndarray:
    """x as a float array of shape (arity,), or (arity,) + batch if allowed."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[0] != f.arity or (x.ndim > 1 and not batch):
        expected = f"({f.arity},)" + (" + batch" if batch else "")
        raise InvalidInputError(f"point has shape {x.shape}, expected {expected}")
    return x


def seed(x, second: bool) -> list[Taylor]:
    """Taylor inputs for one pass over the rows of ``x``: row i (a value, or
    a batch of values) gets gradient e_i, and a zero Hessian if ``second``."""
    x = np.asarray(x, dtype=float)
    k = len(x)
    eye = np.eye(k).reshape((k, k) + (1,) * (x.ndim - 1))
    hess = 0.0 if second else None
    return [Taylor(x[i], eye[i], hess) for i in range(k)]


def _expand(f: ScalarField, x: np.ndarray, second: bool) -> Taylor:
    """f at the checked point x in one seeded pass, to second order if
    ``second``."""
    r = f(seed(x, second))
    if not isinstance(r, Taylor):
        raise InvalidInputError("field did not propagate Taylor numbers")
    return r


def grad(f: ScalarField, x) -> np.ndarray:
    """Exact gradient of f at x via one seeded first-order pass.

    ``x`` has shape (arity,) + batch: one point, or a batch of points along
    trailing axes.  The result has the shape of ``x``; entry [i, b...] is
    df/dx_i at point b, from the same float operations as a pass at that
    point alone.
    """
    x = _point(f, x, batch=True)
    out = np.empty(x.shape)
    out[:] = _expand(f, x, second=False).grad
    return out


def fd_grad(f: ScalarField, x: Sequence[float], h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, independent of the Taylor path.

    The step for coordinate i is h*max(1, |x[i]|) so the stencil stays
    well-scaled for both small and large coordinates.
    """
    if h <= 0.0:
        raise InvalidParameterError(f"finite-difference step must be positive, got {h}")
    x = _point(f, x)
    out = np.empty(f.arity)
    for i in range(f.arity):
        hi = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        fp = f(list(xp))
        fm = f(list(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DomainError(f"non-finite value on the stencil of coordinate {i}",
                              component=i)
        out[i] = (fp - fm) / (2.0 * hi)
    return out


def hessian(f: ScalarField, x: Sequence[float]) -> np.ndarray:
    """Full Hessian of f at x via one seeded second-order pass; the result
    is exactly symmetric."""
    k = f.arity
    out = np.empty((k, k))
    out[:] = _expand(f, _point(f, x), second=True).hess
    return out


def hessian_mixed(f: ScalarField, x: Sequence[float], i: int, j: int) -> float:
    """Second derivative d^2 f / dx_i dx_j, one entry of ``hessian`` (i == j ok)."""
    if not (0 <= i < f.arity and 0 <= j < f.arity):
        raise InvalidInputError(f"indices ({i}, {j}) out of range for arity {f.arity}")
    return float(hessian(f, x)[i, j])
