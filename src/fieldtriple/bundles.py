"""Jet and phase bundles for maps R^2 -> R^m, and the canonical maps between
their prolongations.

A first-order configuration ("jet") of a field u: R^2 -> R^m at a point is
(q, qdot1, qdot2): the value together with both partial derivatives.  The
phase space replaces the two velocities by two momentum covectors (q, p1, p2),
representing the covector-valued density p1.dq (x) dx^2 - p2.dq (x) dx^1;
that pairing convention is fixed here, and every boundary-term sign in the
grid solver derives from it.  A phase jet additionally records the x^1- and
x^2-derivatives of all phase coordinates; it is the pointwise object that
phase-space field equations constrain.

Two bundles share the same nine blocks but order them differently:

* ``JetTangent``  -- a tangent vector to jet space, flat order
  (q, qdot1, qdot2, dq, dqdot1, dqdot2): point first, then the variation.
* ``JetVariation`` -- the first-order data of a varied field together with
  the variation of that data, flat order (q, dq, qdot1, dqdot1, qdot2,
  dqdot2): each block interleaved with its variation.

``kappa`` identifies the two.  It is a pure block permutation; no arithmetic
happens, which is why its round-trip is required to be exact to the bit.

``alpha`` turns a phase jet into a covector on jet space.  It is defined by
<alpha(w), v> = pair_jet(w, kappa(v)) and the explicit formula implemented
here is validated against that pairing in the test-suite.  ``beta`` turns a
phase jet into a covector on phase space; it is the two-parameter version of
the isomorphism generated by the canonical symplectic structure.

Sign conventions
----------------
On each cotangent factor the symplectic form is omega(v, w) =
dq(v).dp(w) - dp(v).dq(w), i.e. omega = dq ^ dp.  The induced isomorphism
``beta_m`` sends the tangent vector (q, p, dq, dp) to the covector
(q, p, -dp, dq).  With this choice ``beta_tilde`` (the composite glued from
the two factors) reproduces ``beta`` exactly, component for component.

Batches
-------
Every block has shape (m,) + batch: the m components first, then trailing
axes that hold many points side by side, as the channels of ``autodiff`` do.
All blocks of one object, its anchor's included, share one batch shape, and
a single point has batch shape ().  Every map acts on batches.  The
pairings reduce over the component axis only: a float for one point, an
array of the batch shape for a batch, each entry rounded as that point's
own pairing.  Paired arguments must hold the same batch over one anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import IncompatiblePointsError, InvalidInputError

__all__ = [
    "Jet",
    "Phase",
    "PhaseJet",
    "JetTangent",
    "JetVariation",
    "JetCovector",
    "PhaseCovector",
    "PhaseTangent",
    "kappa",
    "kappa_inv",
    "pair_jet",
    "pair_covector",
    "pair_phase_covector",
    "alpha",
    "beta",
    "beta_m",
    "beta_tilde",
    "omega2_pair",
    "project_to_jet",
    "project_to_phase",
    "random_jet",
    "random_phase",
    "random_phase_jet",
    "random_jet_tangent",
    "random_phase_tangent",
]


def _as_block(x, shape: tuple | None, name: str) -> np.ndarray:
    """``x`` as a float block of shape (m,) + batch, m >= 1; ``shape``, when
    given, is the shape the other blocks of the object already have."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or arr.shape[0] < 1:
        raise InvalidInputError(
            f"block {name} must have shape (m,) + batch, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(
            f"block {name} has shape {arr.shape}, expected {shape}")
    return arr


def _set_blocks(obj, names, shape: tuple | None = None) -> None:
    for name in names:
        arr = _as_block(getattr(obj, name), shape, name)
        shape = arr.shape
        object.__setattr__(obj, name, arr)


def _same_anchor(a, b, what: str) -> None:
    """Reject anchors (two Jets or two Phases) that hold different batches
    or differ at any point; every block shares its anchor's batch."""
    if a.q.shape[1:] != b.q.shape[1:]:
        raise InvalidInputError(
            f"cannot pair batch shape {a.q.shape[1:]} with {b.q.shape[1:]}")
    if a != b:
        raise IncompatiblePointsError(f"{what} sit over different points")


def _pairing(*pairs):
    """Sum of a.b over the block pairs, reduced over the component axis: a
    float for one point, an array of the batch shape for a batch.  Each
    point's components are made contiguous (``.T`` moves them last), so it
    rounds as ``np.dot`` of its two vectors; a strided axis would not."""
    total = sum(np.vecdot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
                for a, b in pairs).T
    return float(total) if total.ndim == 0 else total


class _BlockValue:
    """Value semantics for the bundle types: two objects are equal exactly
    when they are the same type and every block (and base point) agrees
    elementwise, with no tolerance."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in dataclass_fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Jet(_BlockValue):
    """First-order data (value, both partial derivatives) of a field at a point."""

    q: np.ndarray
    qdot1: np.ndarray
    qdot2: np.ndarray

    def __post_init__(self):
        _set_blocks(self, ("q", "qdot1", "qdot2"))

    @property
    def m(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class Phase(_BlockValue):
    """Phase-space point: value plus the two momentum covectors.

    p1 is the momentum density paired with dx^2, p2 the one paired with
    -dx^1; together they represent p1.dq (x) dx^2 - p2.dq (x) dx^1.
    """

    q: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        _set_blocks(self, ("q", "p1", "p2"))

    @property
    def m(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class PhaseJet(_BlockValue):
    """Phase-space point with x^1- and x^2-derivatives of all its coordinates.

    ``p1dot2`` reads "derivative of p1 along x^2", and so on.
    """

    base: Phase
    qdot1: np.ndarray
    p1dot1: np.ndarray
    p2dot1: np.ndarray
    qdot2: np.ndarray
    p1dot2: np.ndarray
    p2dot2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, Phase):
            raise InvalidInputError("base must be a Phase")
        _set_blocks(self, ("qdot1", "p1dot1", "p2dot1", "qdot2", "p1dot2", "p2dot2"),
                    self.base.q.shape)

    @property
    def m(self) -> int:
        return self.base.m


@dataclass(frozen=True, eq=False)
class JetTangent(_BlockValue):
    """Tangent vector to jet space at ``jet``: a variation of the first-order
    data.  Flat coordinate order: (q, qdot1, qdot2, dq, dqdot1, dqdot2)."""

    jet: Jet
    dq: np.ndarray
    dqdot1: np.ndarray
    dqdot2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.jet, Jet):
            raise InvalidInputError("jet must be a Jet")
        _set_blocks(self, ("dq", "dqdot1", "dqdot2"), self.jet.q.shape)

    @property
    def m(self) -> int:
        return self.jet.m

    def flat(self) -> np.ndarray:
        j = self.jet
        return np.concatenate([j.q, j.qdot1, j.qdot2, self.dq, self.dqdot1, self.dqdot2])


@dataclass(frozen=True, eq=False)
class JetVariation(_BlockValue):
    """First-order data of a field variation: the jet of the varied field
    interleaved with the variation of each block.  Flat coordinate order:
    (q, dq, qdot1, dqdot1, qdot2, dqdot2).  Same stored blocks as
    JetTangent; only the flat order differs."""

    jet: Jet
    dq: np.ndarray
    dqdot1: np.ndarray
    dqdot2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.jet, Jet):
            raise InvalidInputError("jet must be a Jet")
        _set_blocks(self, ("dq", "dqdot1", "dqdot2"), self.jet.q.shape)

    @property
    def m(self) -> int:
        return self.jet.m

    def flat(self) -> np.ndarray:
        j = self.jet
        return np.concatenate([j.q, self.dq, j.qdot1, self.dqdot1, j.qdot2, self.dqdot2])


@dataclass(frozen=True, eq=False)
class JetCovector(_BlockValue):
    """Covector on jet space at ``jet``; pairs with the variation blocks as
    a.dq + b1.dqdot1 + b2.dqdot2."""

    jet: Jet
    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.jet, Jet):
            raise InvalidInputError("jet must be a Jet")
        _set_blocks(self, ("a", "b1", "b2"), self.jet.q.shape)

    @property
    def m(self) -> int:
        return self.jet.m


@dataclass(frozen=True, eq=False)
class PhaseCovector(_BlockValue):
    """Covector on phase space at ``phase``; pairs with a PhaseTangent as
    phi.dq + psi1.dp1 + psi2.dp2."""

    phase: Phase
    phi: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.phase, Phase):
            raise InvalidInputError("phase must be a Phase")
        _set_blocks(self, ("phi", "psi1", "psi2"), self.phase.q.shape)

    @property
    def m(self) -> int:
        return self.phase.m


@dataclass(frozen=True, eq=False)
class PhaseTangent(_BlockValue):
    """Tangent vector to phase space at ``phase``."""

    phase: Phase
    dq: np.ndarray
    dp1: np.ndarray
    dp2: np.ndarray

    def __post_init__(self):
        if not isinstance(self.phase, Phase):
            raise InvalidInputError("phase must be a Phase")
        _set_blocks(self, ("dq", "dp1", "dp2"), self.phase.q.shape)

    @property
    def m(self) -> int:
        return self.phase.m


def kappa(v: JetTangent) -> JetVariation:
    """Exchange "variation of first-order data" for "first-order data of a
    variation".

    Flat coordinates map (q, qdot1, qdot2, dq, dqdot1, dqdot2) to
    (q, dq, qdot1, dqdot1, qdot2, dqdot2): a pure block permutation.  The
    stored arrays pass through untouched, so the round-trip with
    ``kappa_inv`` is exact to the bit.
    """
    return JetVariation(jet=v.jet, dq=v.dq, dqdot1=v.dqdot1, dqdot2=v.dqdot2)


def kappa_inv(w: JetVariation) -> JetTangent:
    """Inverse of ``kappa``; also a pure block relabelling."""
    return JetTangent(jet=w.jet, dq=w.dq, dqdot1=w.dqdot1, dqdot2=w.dqdot2)


def pair_jet(w: PhaseJet, dv: JetVariation):
    """Evaluation pairing of a phase jet against the jet of a variation.

    pair_jet(w, dv) = (p1dot1 + p2dot2).dq + p1.dqdot1 + p2.dqdot2.

    Both arguments must sit over the same Jet (exact block equality).
    """
    _same_anchor(project_to_jet(w), dv.jet, "phase jet and variation")
    return _pairing((w.p1dot1 + w.p2dot2, dv.dq), (w.base.p1, dv.dqdot1),
                    (w.base.p2, dv.dqdot2))


def pair_covector(c: JetCovector, v: JetTangent):
    """Canonical pairing <c, v> = a.dq + b1.dqdot1 + b2.dqdot2 (same jet required)."""
    _same_anchor(c.jet, v.jet, "covector and tangent")
    return _pairing((c.a, v.dq), (c.b1, v.dqdot1), (c.b2, v.dqdot2))


def pair_phase_covector(c: PhaseCovector, u: PhaseTangent):
    """Canonical pairing <c, u> = phi.dq + psi1.dp1 + psi2.dp2 (same phase required)."""
    _same_anchor(c.phase, u.phase, "covector and tangent")
    return _pairing((c.phi, u.dq), (c.psi1, u.dp1), (c.psi2, u.dp2))


def alpha(w: PhaseJet) -> JetCovector:
    """Covector on jet space induced by a phase jet.

    Defined by <alpha(w), v> = pair_jet(w, kappa(v)) for every jet tangent v
    over the same jet; in coordinates a = p1dot1 + p2dot2, b1 = p1, b2 = p2.
    """
    return JetCovector(jet=project_to_jet(w),
                       a=w.p1dot1 + w.p2dot2,
                       b1=w.base.p1,
                       b2=w.base.p2)


def beta(w: PhaseJet) -> PhaseCovector:
    """Covector on phase space induced by a phase jet.

    In coordinates phi = -(p1dot1 + p2dot2), psi1 = qdot1, psi2 = qdot2.
    Satisfies <beta(w), u> = omega2_pair(w, u) for every phase tangent u,
    and coincides exactly with the factor-glued construction ``beta_tilde``.
    """
    return PhaseCovector(phase=w.base,
                         phi=-(w.p1dot1 + w.p2dot2),
                         psi1=w.qdot1,
                         psi2=w.qdot2)


def beta_m(q, p, dq, dp):
    """Cotangent-bundle isomorphism of a single factor, from omega = dq ^ dp.

    Sends the tangent vector (q, p, dq, dp) at (q, p) to the covector
    (q, p, -dp, dq): the third returned block pairs with dq-variations, the
    fourth with dp-variations.
    """
    q = _as_block(q, None, "q")
    p = _as_block(p, q.shape, "p")
    dq = _as_block(dq, q.shape, "dq")
    dp = _as_block(dp, q.shape, "dp")
    return q, p, -dp, dq


def beta_tilde(w: PhaseJet) -> PhaseCovector:
    """``beta`` rebuilt from the single-factor isomorphism ``beta_m``.

    The phase jet is split into the two factor tangents (q, p1, qdot1,
    p1dot1) and (q, p2, qdot2, p2dot2), discarding the cross derivatives,
    which the factor maps never see.  Each factor passes through ``beta_m``;
    the factor covectors are then glued back over the product: the dq-blocks
    add, the dp-blocks stay separate.  Agrees with ``beta`` exactly.
    """
    q1, p1, a1, b1 = beta_m(w.base.q, w.base.p1, w.qdot1, w.p1dot1)
    q2, p2, a2, b2 = beta_m(w.base.q, w.base.p2, w.qdot2, w.p2dot2)
    return PhaseCovector(phase=Phase(q=q1, p1=p1, p2=p2),
                         phi=a1 + a2,
                         psi1=b1,
                         psi2=b2)


def omega2_pair(w: PhaseJet, u: PhaseTangent):
    """Pairing of a phase jet with a phase tangent through the bi-form
    structure: qdot1.dp1 + qdot2.dp2 - (p1dot1 + p2dot2).dq.
    Both arguments must sit over the same phase point."""
    _same_anchor(w.base, u.phase, "phase jet and tangent")
    return (_pairing((w.qdot1, u.dp1), (w.qdot2, u.dp2))
            - _pairing((w.p1dot1 + w.p2dot2, u.dq)))


def project_to_jet(x) -> Jet:
    """Project onto jet space.

    JetCovector -> its anchor jet; PhaseJet -> (q, qdot1, qdot2);
    PhaseCovector -> (q, psi1, psi2), the jet-space leg of phase covectors.
    """
    if isinstance(x, JetCovector):
        return x.jet
    if isinstance(x, PhaseJet):
        return Jet(q=x.base.q, qdot1=x.qdot1, qdot2=x.qdot2)
    if isinstance(x, PhaseCovector):
        return Jet(q=x.phase.q, qdot1=x.psi1, qdot2=x.psi2)
    raise InvalidInputError(f"cannot project {type(x).__name__} to a Jet")


def project_to_phase(x) -> Phase:
    """Project onto phase space.

    PhaseCovector -> its anchor phase; PhaseJet -> its base;
    JetCovector -> (q, b1, b2), the phase-space leg of jet covectors.
    """
    if isinstance(x, PhaseCovector):
        return x.phase
    if isinstance(x, PhaseJet):
        return x.base
    if isinstance(x, JetCovector):
        return Phase(q=x.jet.q, p1=x.b1, p2=x.b2)
    raise InvalidInputError(f"cannot project {type(x).__name__} to a Phase")


def random_jet(rng: np.random.Generator, m: int) -> Jet:
    return Jet(q=rng.standard_normal(m), qdot1=rng.standard_normal(m),
               qdot2=rng.standard_normal(m))


def random_phase(rng: np.random.Generator, m: int) -> Phase:
    return Phase(q=rng.standard_normal(m), p1=rng.standard_normal(m),
                 p2=rng.standard_normal(m))


def random_phase_jet(rng: np.random.Generator, m: int,
                     base: Phase | None = None) -> PhaseJet:
    if base is None:
        base = random_phase(rng, m)
    return PhaseJet(base=base,
                    qdot1=rng.standard_normal(m),
                    p1dot1=rng.standard_normal(m),
                    p2dot1=rng.standard_normal(m),
                    qdot2=rng.standard_normal(m),
                    p1dot2=rng.standard_normal(m),
                    p2dot2=rng.standard_normal(m))


def random_jet_tangent(rng: np.random.Generator, m: int,
                       jet: Jet | None = None) -> JetTangent:
    if jet is None:
        jet = random_jet(rng, m)
    return JetTangent(jet=jet, dq=rng.standard_normal(m),
                      dqdot1=rng.standard_normal(m), dqdot2=rng.standard_normal(m))


def random_phase_tangent(rng: np.random.Generator,
                         phase: Phase) -> PhaseTangent:
    m = phase.m
    return PhaseTangent(phase=phase, dq=rng.standard_normal(m),
                        dp1=rng.standard_normal(m), dp2=rng.standard_normal(m))
