"""Lagrangian side of the phase dynamics.

A Lagrangian L(q, qdot) induces, without any regularity assumption,

* the differential dL, a covector on jet space,
* the Legendre map (q, qdot) -> (q, p) with p[i] = dL/dqdot[i],
* the phase-dynamics relation: a phase jet w belongs to the dynamics when
  alpha(w) = dL at the jet of w.  The relation is represented by a residual
  functional rather than by materialising its preimage, which for a fixed
  jet is an affine subspace of dimension 3m; ``phase_dynamics_member``
  constructs one representative for tests.
* the pointwise Euler-Lagrange residual dL/dq - sum_i D_i(dL/dqdot[i])
  with the total derivatives expanded along a second-order jet.

L is a scalar field over the flat slots (q, qdot[0], qdot[1]); its
derivatives come from forward-mode AD: one Taylor pass for the gradient,
one second-order Taylor pass for the Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import ScalarField
from .bundles import (Jet, JetCovector, Phase, PhaseJet, _anchor_shape, _BlockValue,
                      _set_blocks, project_to_jet, project_to_phase)
from .errors import InvalidInputError

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
    """A Lagrangian: ``L`` has arity 3m over the flattened jet
    (q, qdot[0], qdot[1]).  Its admissible domain is where it is defined:
    ``L`` is finite on every admissible jet and raises ``DomainError`` on
    any other, plain or Taylor, and that error is the one admissibility
    test ``dL``, the Legendre inversion and the grid solver make.
    """

    m: int
    L: ScalarField
    name: str = ""

    def __post_init__(self):
        _check_model(self.m, self.L, "L")


def _check_model(m: int, f: ScalarField, name: str) -> None:
    """The shape checks of a model on either side: m >= 1, and its function
    ``name`` (L or H) of arity 3m."""
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if f.arity != 3 * m:
        raise InvalidInputError(f"{name} has arity {f.arity}, expected 3m = {3 * m}")


@dataclass(frozen=True, eq=False)
class SecondJet(_BlockValue):
    """Second-order data of a field at a point: a jet plus the second
    partials d[i, j] = d_i d_j q, of shape (2, 2) + q's shape.  The symmetry
    d[0, 1] = d[1, 0] is the caller's responsibility."""

    jet: Jet
    d: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.jet, Jet, "jet"), d=2)


def _flat(point) -> np.ndarray:
    """The flat slots (q, v[0], v[1]) of a Jet (v = qdot) or a Phase (v = p)."""
    v = point.qdot if isinstance(point, Jet) else point.p
    return np.concatenate([point.q, *v])


def _require_m(model, point) -> None:
    """Reject a Jet or a Phase whose m is not the model's."""
    if point.m != model.m:
        kind = "jet" if isinstance(point, Jet) else "phase"
        raise InvalidInputError(f"{kind} has m={point.m}, model has m={model.m}")


def dL(model: LagrangianModel, j: Jet) -> JetCovector:
    """Differential of L at an admissible jet, as a covector on jet space.

    A batch of jets (blocks of shape (m,) + batch) is differentiated in one
    Taylor pass; L's ``DomainError`` at any one inadmissible point fails the
    whole batch.
    """
    _require_m(model, j)
    g = autodiff.grad(model.L, _flat(j))
    m = model.m
    return JetCovector(jet=j, a=g[:m], b=g[m:].reshape(j.qdot.shape))


def legendre(model: LagrangianModel, j: Jet) -> Phase:
    """Associate momenta to an infinitesimal configuration:
    (q, p) with p[i] = dL/dqdot[i]."""
    return project_to_phase(dL(model, j))


def _max_norm_per_point(*blocks):
    """Max-norm over the component axis of the stacked blocks, each of shape
    (m,) + batch: a float for one point, an array of the batch shape for a
    batch.  The max is exact, so the stacking order does not matter."""
    r = np.max(np.abs(np.concatenate(blocks)), axis=0)
    return float(r) if r.ndim == 0 else r


def phase_relation_residual(model: LagrangianModel, w: PhaseJet):
    """Distance of a phase jet from the Lagrangian phase dynamics.

    Returns the max-norm of alpha(w) - dL(model, jet of w) over the 3m
    covector components; the jet blocks agree by construction.  Zero (to
    tolerance) exactly on members of the dynamics: p[i] = dL/dqdot[i] and
    d_1 p[0] + d_2 p[1] = dL/dq.  A float for one phase jet; for
    a batch, an array of the batch shape holding each point's max-norm.
    """
    from .bundles import alpha

    c = dL(model, project_to_jet(w))
    aw = alpha(w)
    return _max_norm_per_point(aw.a - c.a, *(aw.b - c.b))


def _member_pdot(div, free, shape: tuple) -> np.ndarray:
    """pdot of a dynamics member whose divergence d_1 p[0] + d_2 p[1] is
    ``div``, over points whose blocks have ``shape``.  ``free`` holds the
    rows (split, cross0, cross1), None meaning zeros: pdot[1, 1] = split,
    pdot[0, 0] = div - split, pdot[0, 1] = cross0, pdot[1, 0] = cross1."""
    if free is None:
        free = np.zeros((3,) + shape)
    free = np.asarray(free, dtype=float)
    if free.shape != (3,) + shape:
        raise InvalidInputError(
            f"free parameters have shape {free.shape}, expected {(3,) + shape}")
    split, cross0, cross1 = free
    return np.array([[div - split, cross0], [cross1, split]])


def phase_dynamics_member(model: LagrangianModel, j: Jet,
                          free=None) -> PhaseJet:
    """One member of the phase dynamics over the jet ``j``.

    The relation fixes p via the Legendre map and the divergence
    pdot[0, 0] + pdot[1, 1] = dL/dq; the split between the two and the
    cross derivatives (pdot[0, 1], pdot[1, 0]) are free.  ``free`` holds
    them as one array of shape (3, m) + batch, rows (split, cross0, cross1),
    giving pdot[1, 1] = split, pdot[0, 0] = dL/dq - split,
    pdot[0, 1] = cross0, pdot[1, 0] = cross1.  Every choice lands exactly on
    the relation; the default of zeros is the canonical member.
    ``rng.standard_normal((3, m))`` draws a random one.
    """
    c = dL(model, j)
    return PhaseJet(base=Phase(q=j.q, p=c.b), qdot=j.qdot,
                    pdot=_member_pdot(c.a, free, j.q.shape))


def el_residual_pointwise(model: LagrangianModel, s: SecondJet) -> np.ndarray:
    """Euler-Lagrange residual dL/dq^a - sum_i D_i(dL/dqdot[i]^a) along a
    second-order jet.

    The total derivatives are expanded by the chain rule,

      D_i(dL/dqdot[i]^a) = sum_b [ H[q^b, qdot[i]^a] qdot[i]^b
                                 + sum_j H[qdot[j]^b, qdot[i]^a] d[i, j]^b ],

    where H is the Hessian of L at the jet, computed by one second-order
    Taylor pass; the terms of each D_i add in that order, and the D_i are
    subtracted in direction order.  An inadmissible jet raises L's own
    ``DomainError`` from the first pass.
    """
    j = s.jet
    _require_m(model, j)
    m = model.m
    z = _flat(j)
    g = autodiff.grad(model.L, z)
    # H[k, :, l] is the block of slots k, l of the flat jet: q, then qdot[i]
    H = autodiff.hessian(model.L, z).reshape(3, m, 3, m)
    r = g[:m]
    for i, qd in enumerate(j.qdot):
        term = H[0, :, i + 1].T @ qd
        for k, dk in enumerate(s.d[i], start=1):
            term = term + H[k, :, i + 1].T @ dk
        r = r - term
    return r
