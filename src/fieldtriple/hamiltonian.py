"""Hamiltonian side of the phase dynamics.

A Hamiltonian H(q, p) generates the phase equations through beta: a phase
jet w belongs to the Hamiltonian dynamics when beta(w) = dH at the base of
w, i.e. in coordinates

    -(d_1 p[0] + d_2 p[1]) = dH/dq,   qdot[i] = dH/dp[i].

Like the Lagrangian relation, this is membership in a subset, represented by
the residual functional ``ham_phase_residual``.

``hamiltonian_from_lagrangian`` builds H as the pointwise Legendre transform
H(q, p) = sum_i p[i].v[i] - L(q, v), with the velocities v recovered by
Newton inversion of the Legendre map.  Since p = dL/dv at the recovered
velocities, first derivatives of H do not see dv/dp (the envelope property):
dH/dp[i] = v[i] and dH/dq = -dL/dq.  The transformed H therefore supports
plain and first-order Taylor evaluation exactly, one point at a time;
second-order evaluation is refused rather than done wrong -- differentiate
the Lagrangian side instead -- and so is a batch of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff
from .autodiff import ScalarField, Taylor
from .bundles import Jet, Phase, PhaseCovector, PhaseJet, beta
from .errors import (InvalidInputError, NoConvergenceError, SingularJacobianError,
                     _damped_newton, _max_norm)
from .lagrangian import (LagrangianModel, _check_model, _flat, _max_norm_per_point,
                         _member_pdot, _require_m)

__all__ = [
    "HamiltonianModel",
    "dH",
    "ham_phase_residual",
    "ham_dynamics_member",
    "legendre_invert",
    "hamiltonian_from_lagrangian",
]


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian: ``H`` has arity 3m over the flattened phase point
    (q, p[0], p[1]), each slot of m entries.  Its admissible domain is where
    it is defined: ``H`` is finite on every admissible Phase and raises
    ``DomainError`` on any other, plain or Taylor.
    """

    m: int
    H: ScalarField
    name: str = ""

    def __post_init__(self):
        _check_model(self.m, self.H, "H")


def dH(model: HamiltonianModel, ph: Phase) -> PhaseCovector:
    """Differential of H at an admissible phase point, or at a batch of
    them in one Taylor pass; H's ``DomainError`` at any one inadmissible
    point fails the whole batch."""
    _require_m(model, ph)
    g = autodiff.grad(model.H, _flat(ph))
    m = model.m
    return PhaseCovector(phase=ph, phi=g[:m], psi=g[m:].reshape(ph.p.shape))


def ham_phase_residual(model: HamiltonianModel, w: PhaseJet):
    """Distance of a phase jet from the Hamiltonian phase dynamics:
    max-norm of beta(w) - dH(model, w.base) over the 3m covector components.
    A float for one phase jet; for a batch, an array of the batch shape
    holding each point's max-norm."""
    c = dH(model, w.base)
    b = beta(w)
    return _max_norm_per_point(b.phi - c.phi, *(b.psi - c.psi))


def ham_dynamics_member(model: HamiltonianModel, ph: Phase,
                        free=None) -> PhaseJet:
    """One member of the Hamiltonian dynamics over the phase point ``ph``.

    The relation fixes qdot and the divergence pdot[0, 0] + pdot[1, 1] =
    -dH/dq; the split and the cross derivatives are free.  ``free`` holds
    them as one array of shape (3, m) + batch, rows (split, cross0, cross1),
    giving pdot[1, 1] = split, pdot[0, 0] = -dH/dq - split,
    pdot[0, 1] = cross0, pdot[1, 0] = cross1; the default of zeros is the
    canonical member.
    """
    c = dH(model, ph)
    return PhaseJet(base=ph, qdot=c.psi, pdot=_member_pdot(-c.phi, free, ph.q.shape))


def _momenta(model: LagrangianModel, z: np.ndarray) -> np.ndarray:
    """(dL/dqdot[0], dL/dqdot[1]) at the flattened jet z, as one 2m vector."""
    g = autodiff.grad(model.L, z)
    return g[model.m:]


def legendre_invert(model: LagrangianModel, ph: Phase, guess: Jet,
                    tol: float = 1e-10, max_iter: int = 50) -> Jet:
    """Invert the Legendre map of ``model`` at the phase point ``ph``.

    Damped Newton iteration on F(v) = momenta(q, v) - p in the 2m velocity
    unknowns, starting from ``guess``, where L must be defined: L's own
    ``DomainError`` there propagates.  The loop is the grid solver's: the
    step is halved, over at most 30 lengths 1, 1/2, ..., 2^-29, whenever the
    residual fails to decrease or L raises ``DomainError`` at the trial
    iterate.  ``guess`` must share the shape of ``ph``'s ``q``.
    """
    _require_m(model, ph)
    if guess.q.shape != ph.q.shape:
        raise InvalidInputError(
            f"guess has q shape {guess.q.shape}, expected {ph.q.shape}")
    target = np.concatenate(ph.p)

    def residual(v: np.ndarray) -> np.ndarray:
        return _momenta(model, np.concatenate([ph.q, v])) - target

    def newton_step(v: np.ndarray, F: np.ndarray, iterations: int) -> np.ndarray:
        J = autodiff.hessian(model.L, np.concatenate([ph.q, v]))[model.m:, model.m:]
        try:
            return np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as e:
            raise SingularJacobianError("Legendre map degenerate at iterate "
                                        f"(residual {_max_norm(F):.3e})") from e

    v = np.concatenate(guess.qdot)
    v, res, _, stop = _damped_newton(residual, newton_step, v, residual(v),
                                     tol, max_iter)
    jet = Jet(q=ph.q, qdot=v.reshape(ph.p.shape))
    if stop == "converged":
        return jet
    if stop == "cap":
        raise NoConvergenceError(
            f"Legendre inversion did not reach tolerance {tol:.1e} "
            f"in {max_iter} iterations (residual {res:.3e})",
            last_iterate=jet, residual=res)
    raise NoConvergenceError(f"Legendre inversion stalled at residual {res:.3e}",
                             last_iterate=jet, residual=res)


def _default_invert(model: LagrangianModel, ph: Phase) -> Jet:
    return legendre_invert(model, ph, Jet(q=ph.q, qdot=np.zeros(ph.p.shape)))


def hamiltonian_from_lagrangian(model: LagrangianModel,
                                invert: Callable | None = None) -> HamiltonianModel:
    """Legendre transform of a Lagrangian model.

    H(q, p) = sum_i p[i].v[i] - L(q, v) with the velocities v obtained
    from ``invert(model, ph) -> Jet``.  H is a pure function of its point,
    defined wherever ``invert`` and L are: their errors propagate.  The
    default strategy runs ``legendre_invert`` from zero velocities; models
    whose admissible region excludes zero velocities need a custom strategy.
    """
    m = model.m
    if invert is None:
        invert = _default_invert

    def eval_H(xs):
        if any(isinstance(x, Taylor) and x.hess is not None for x in xs):
            raise InvalidInputError(
                "second-order evaluation of a transformed Hamiltonian is not "
                "supported; differentiate the Lagrangian side instead")
        plain = np.array([x.value if isinstance(x, Taylor) else x for x in xs],
                         dtype=float)
        if plain.ndim != 1:
            raise InvalidInputError(
                "a transformed Hamiltonian inverts the Legendre map one point "
                "at a time; evaluate it point by point")
        j = invert(model, Phase(q=plain[:m], p=plain[m:].reshape(2, m)))
        # The recovered velocities enter as constants: p = dL/dv there, so
        # their dependence on (q, p) drops out of first derivatives.  The
        # products add component by component, directions within each.
        acc = 0.0
        for a in range(m):
            for i, v in enumerate(j.qdot, start=1):
                acc = acc + xs[i * m + a] * v[a]
        return acc - model.L(list(xs[:m]) + j.qdot.ravel().tolist())

    return HamiltonianModel(m=m, H=ScalarField(arity=3 * m, eval=eval_H),
                            name=f"legendre-transform({model.name})" if model.name
                            else "legendre-transform")
