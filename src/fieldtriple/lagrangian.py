"""Lagrangian side of the phase dynamics.

A Lagrangian L(q, qdot1, qdot2) induces, without any regularity assumption,

* the differential dL, a covector on jet space,
* the Legendre map (q, qdot1, qdot2) -> (q, dL/dqdot1, dL/dqdot2),
* the phase-dynamics relation: a phase jet w belongs to the dynamics when
  alpha(w) = dL at the jet of w.  The relation is represented by a residual
  functional rather than by materialising its preimage, which for a fixed
  jet is an affine subspace of dimension 3m; ``phase_dynamics_member``
  constructs one representative for tests.
* the pointwise Euler-Lagrange residual dL/dq - D1(dL/dqdot1) - D2(dL/dqdot2)
  with the total derivatives expanded along a second-order jet.

Derivatives of L come from forward-mode AD: one Taylor pass for the
gradient, one second-order Taylor pass for the Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff
from .autodiff import ScalarField
from .bundles import Jet, JetCovector, Phase, PhaseJet, project_to_jet, project_to_phase
from .errors import DomainError, InvalidInputError

__all__ = [
    "LagrangianModel",
    "SecondJet",
    "dL",
    "legendre",
    "phase_relation_residual",
    "phase_dynamics_member",
    "el_residual_pointwise",
]


@dataclass(frozen=True)
class LagrangianModel:
    """A Lagrangian with its admissible domain.

    ``L`` has arity 3m over the flattened jet (q, qdot1, qdot2), must be
    finite on every admissible jet and raises ``DomainError`` on any other:
    that error is the one admissibility test the grid solver makes.
    ``admissible`` takes a Jet, one point or a batch, and says whether every
    point of it is admissible.
    """

    m: int
    L: ScalarField
    admissible: Callable[[Jet], bool]
    name: str = ""

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError(f"m must be >= 1, got {self.m}")
        if self.L.arity != 3 * self.m:
            raise InvalidInputError(
                f"L has arity {self.L.arity}, expected 3m = {3 * self.m}")


@dataclass(frozen=True)
class SecondJet:
    """Second-order data of a field at a point: a jet plus both second
    partials.  d12 stands for the mixed partial; its symmetry is the
    caller's responsibility."""

    jet: Jet
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    def __post_init__(self):
        if not isinstance(self.jet, Jet):
            raise InvalidInputError("jet must be a Jet")
        m = self.jet.m
        for name in ("d11", "d12", "d22"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise InvalidInputError(
                    f"block {name} has shape {arr.shape}, expected ({m},)")
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.jet.m


def _flat_jet(j: Jet) -> np.ndarray:
    return np.concatenate([j.q, j.qdot1, j.qdot2])


def _require_admissible(model: LagrangianModel, j: Jet) -> None:
    if j.m != model.m:
        raise InvalidInputError(f"jet has m={j.m}, model has m={model.m}")
    if not model.admissible(j):
        raise DomainError("jet outside the admissible domain of the Lagrangian")


def dL(model: LagrangianModel, j: Jet) -> JetCovector:
    """Differential of L at an admissible jet, as a covector on jet space.

    A batch of jets (blocks of shape (m,) + batch) is differentiated in one
    Taylor pass; the model's admissibility check then covers the whole batch.
    """
    _require_admissible(model, j)
    g = autodiff.grad(model.L, _flat_jet(j))
    m = model.m
    return JetCovector(jet=j, a=g[:m], b1=g[m:2 * m], b2=g[2 * m:])


def legendre(model: LagrangianModel, j: Jet) -> Phase:
    """Associate momenta to an infinitesimal configuration:
    (q, dL/dqdot1, dL/dqdot2)."""
    return project_to_phase(dL(model, j))


def _max_norm_per_point(*blocks):
    """Max-norm over the component axis of the stacked blocks, each of shape
    (m,) + batch: a float for one point, an array of the batch shape for a
    batch."""
    r = np.max(np.abs(np.concatenate(blocks)), axis=0)
    return float(r) if r.ndim == 0 else r


def phase_relation_residual(model: LagrangianModel, w: PhaseJet):
    """Distance of a phase jet from the Lagrangian phase dynamics.

    Returns the max-norm of alpha(w) - dL(model, jet of w) over the 3m
    covector components; the jet blocks agree by construction.  Zero (to
    tolerance) exactly on members of the dynamics: p1 = dL/dqdot1,
    p2 = dL/dqdot2, p1dot1 + p2dot2 = dL/dq.  A float for one phase jet; for
    a batch, an array of the batch shape holding each point's max-norm.
    """
    from .bundles import alpha

    c = dL(model, project_to_jet(w))
    aw = alpha(w)
    return _max_norm_per_point(aw.a - c.a, aw.b1 - c.b1, aw.b2 - c.b2)


def _member_free(free, shape: tuple) -> np.ndarray:
    """The free parameters (split, cross1, cross2) of a dynamics member over
    points whose blocks have ``shape``; None means zeros."""
    if free is None:
        return np.zeros((3,) + shape)
    free = np.asarray(free, dtype=float)
    if free.shape != (3,) + shape:
        raise InvalidInputError(
            f"free parameters have shape {free.shape}, expected {(3,) + shape}")
    return free


def phase_dynamics_member(model: LagrangianModel, j: Jet,
                          free=None) -> PhaseJet:
    """One member of the phase dynamics over the jet ``j``.

    The relation fixes (p1, p2) via the Legendre map and the combination
    p1dot1 + p2dot2 = dL/dq; the split between p1dot1 and p2dot2 and the
    cross derivatives (p2dot1, p1dot2) are free.  ``free`` holds them as one
    array of shape (3, m) + batch, rows (split, cross1, cross2), giving
    p2dot2 = split, p1dot1 = dL/dq - split, p2dot1 = cross1, p1dot2 = cross2.
    Every choice lands exactly on the relation; the default of zeros is the
    canonical member.  ``rng.standard_normal((3, m))`` draws a random one.
    """
    c = dL(model, j)
    split, cross1, cross2 = _member_free(free, j.q.shape)
    base = Phase(q=j.q, p1=c.b1, p2=c.b2)
    return PhaseJet(base=base,
                    qdot1=j.qdot1,
                    p1dot1=c.a - split,
                    p2dot1=cross1,
                    qdot2=j.qdot2,
                    p1dot2=cross2,
                    p2dot2=split)


def el_residual_pointwise(model: LagrangianModel, s: SecondJet) -> np.ndarray:
    """Euler-Lagrange residual dL/dq^a - D1(dL/dqdot1^a) - D2(dL/dqdot2^a)
    along a second-order jet.

    The total derivatives are expanded by the chain rule,

      D1(dL/dqdot1^a) = sum_b [ H[q^b, qdot1^a] qdot1^b
                              + H[qdot1^b, qdot1^a] d11^b
                              + H[qdot2^b, qdot1^a] d12^b ],

    and analogously for D2 with (qdot2, d12, d22); H is the Hessian of L at
    the jet, computed by one second-order Taylor pass.
    """
    j = s.jet
    _require_admissible(model, j)
    m = model.m
    z = _flat_jet(j)
    g = autodiff.grad(model.L, z)
    H = autodiff.hessian(model.L, z)
    Hq1 = H[0:m, m:2 * m]        # rows q, cols qdot1
    B11 = H[m:2 * m, m:2 * m]
    B21 = H[2 * m:, m:2 * m]     # rows qdot2, cols qdot1
    Hq2 = H[0:m, 2 * m:]
    B12 = H[m:2 * m, 2 * m:]
    B22 = H[2 * m:, 2 * m:]
    d1_term = Hq1.T @ j.qdot1 + B11.T @ s.d11 + B21.T @ s.d12
    d2_term = Hq2.T @ j.qdot2 + B12.T @ s.d12 + B22.T @ s.d22
    return g[:m] - d1_term - d2_term
