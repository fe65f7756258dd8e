"""Jet and phase bundles for maps R^2 -> R^m, and the canonical maps between
their prolongations.

A first-order configuration ("jet") of a field u: R^2 -> R^m at a point is
(q, qdot): the value together with its partial derivatives, qdot[i] = d_i u
along x^(i+1).  The phase space replaces the velocities by momentum
covectors (q, p), p[i] paired with the interior product of d_i with
dx^1 ^ dx^2, so p represents p[0].dq (x) dx^2 - p[1].dq (x) dx^1; that
pairing convention is fixed here, and every boundary-term sign in the grid
solver derives from it.  A phase jet additionally records the derivatives
of all phase coordinates, qdot and pdot[j, i] = d_j p[i]; it is the
pointwise object that phase-space field equations constrain.

Two bundles hold the same blocks, a jet and its variation (dq, dqdot), but
order them differently:

* ``JetTangent``  -- a tangent vector to jet space, flat order
  (q, qdot[0], qdot[1], dq, dqdot[0], dqdot[1]): point first, then the
  variation.
* ``JetVariation`` -- the first-order data of a varied field together with
  the variation of that data, flat order (q, dq, qdot[0], dqdot[0],
  qdot[1], dqdot[1]): each block interleaved with its variation.

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

Shapes and batches
------------------
The anchor block q has shape (m,) + batch: the m components first, then
trailing axes that hold many points side by side, as the channels of
``autodiff`` do.  A block along the direction axis (qdot, p, dqdot, b, psi,
dp) has shape (2, m) + batch, and pdot has (2, 2, m) + batch; the other
blocks share q's shape.  All blocks of one object, its anchor's included,
share one batch shape, and a single point has batch shape ().  Every map
acts on batches.  The pairings reduce over the direction and component
axes: a float for one point, an array of the batch shape for a batch, each
entry rounded as that point's own pairing.  Paired arguments must hold the
same batch over one anchor.
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
]

# The length of the direction axis: the dimension of the base.
_N = 2


def _as_block(x, shape: tuple | None, name: str) -> np.ndarray:
    """``x`` as a float block of shape ``shape``; None means an anchor
    block, of shape (m,) + batch with m >= 1."""
    try:
        arr = np.asarray(x, dtype=float)
    except ValueError:  # rows of different lengths
        raise InvalidInputError(f"block {name} is not a rectangular array") from None
    if shape is None and (arr.ndim < 1 or arr.shape[0] < 1):
        raise InvalidInputError(
            f"block {name} must have shape (m,) + batch, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(
            f"block {name} has shape {arr.shape}, expected {shape}")
    return arr


def _set_blocks(obj, shape: tuple | None, **axes: int) -> None:
    """Check and store the named blocks of ``obj``, each with ``axes[name]``
    direction axes in front of ``shape``, the anchor's (m,) + batch; None
    makes the first block the anchor."""
    for name, k in axes.items():
        arr = _as_block(getattr(obj, name),
                        None if shape is None else (_N,) * k + shape, name)
        shape = arr.shape[k:]
        object.__setattr__(obj, name, arr)


def _anchor_shape(anchor, cls, name: str) -> tuple:
    if not isinstance(anchor, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}")
    return anchor.q.shape


def _same_anchor(a, b, what: str) -> None:
    """Reject anchors (two Jets or two Phases) that hold different batches
    or differ at any point; every block shares its anchor's batch."""
    if a.q.shape[1:] != b.q.shape[1:]:
        raise InvalidInputError(
            f"cannot pair batch shape {a.q.shape[1:]} with {b.q.shape[1:]}")
    if a != b:
        raise IncompatiblePointsError(f"{what} sit over different points")


def _pairing(*pairs):
    """Sum of a.b over the block pairs, in order, reduced over the component
    axis: a float for one point, an array of the batch shape for a batch.
    Each point's components are made contiguous (``.T`` moves them last), so
    it rounds as ``np.dot`` of its two vectors; a strided axis would not."""
    total = sum(np.vecdot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
                for a, b in pairs).T
    return float(total) if total.ndim == 0 else total


def _divergence(w: PhaseJet) -> np.ndarray:
    """d_1 p[0] + d_2 p[1], the divergence of the momenta of ``w``."""
    return w.pdot[0, 0] + w.pdot[1, 1]


class _BlockValue:
    """Value semantics for the bundle types: two objects are equal exactly
    when they are the same type and every block (and base point) agrees
    elementwise, with no tolerance.  The first field of each type is its
    anchor: q, or the Jet or Phase the other blocks sit over."""

    @property
    def m(self) -> int:
        """The number of field components, read off the anchor."""
        anchor = getattr(self, dataclass_fields(self)[0].name)
        return anchor.m if isinstance(anchor, _BlockValue) else anchor.shape[0]

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
    """First-order data of a field at a point: the value q and the partial
    derivatives qdot[i] along x^(i+1)."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        _set_blocks(self, None, q=0, qdot=1)


@dataclass(frozen=True, eq=False)
class Phase(_BlockValue):
    """Phase-space point: value plus the momentum covectors.

    p[0] is the momentum density paired with dx^2, p[1] the one paired with
    -dx^1; together they represent p[0].dq (x) dx^2 - p[1].dq (x) dx^1.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _set_blocks(self, None, q=0, p=1)


@dataclass(frozen=True, eq=False)
class PhaseJet(_BlockValue):
    """Phase-space point with the derivatives of all its coordinates:
    qdot[j] = d_j q and pdot[j, i] = d_j p[i]."""

    base: Phase
    qdot: np.ndarray
    pdot: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.base, Phase, "base"), qdot=1, pdot=2)


@dataclass(frozen=True, eq=False)
class JetTangent(_BlockValue):
    """Tangent vector to jet space at ``jet``: a variation of the first-order
    data.  Flat coordinate order: (q, qdot[0], qdot[1], dq, dqdot[0],
    dqdot[1])."""

    jet: Jet
    dq: np.ndarray
    dqdot: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.jet, Jet, "jet"), dq=0, dqdot=1)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.jet.q, *self.jet.qdot, self.dq, *self.dqdot])


@dataclass(frozen=True, eq=False)
class JetVariation(_BlockValue):
    """First-order data of a field variation: the jet of the varied field
    interleaved with the variation of each block.  Flat coordinate order:
    (q, dq, qdot[0], dqdot[0], qdot[1], dqdot[1]).  Same stored blocks as
    JetTangent; only the flat order differs."""

    jet: Jet
    dq: np.ndarray
    dqdot: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.jet, Jet, "jet"), dq=0, dqdot=1)

    def flat(self) -> np.ndarray:
        pairs = zip(self.jet.qdot, self.dqdot)
        return np.concatenate([self.jet.q, self.dq, *(x for p in pairs for x in p)])


@dataclass(frozen=True, eq=False)
class JetCovector(_BlockValue):
    """Covector on jet space at ``jet``; pairs with the variation blocks as
    a.dq + b[0].dqdot[0] + b[1].dqdot[1]."""

    jet: Jet
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.jet, Jet, "jet"), a=0, b=1)


@dataclass(frozen=True, eq=False)
class PhaseCovector(_BlockValue):
    """Covector on phase space at ``phase``; pairs with a PhaseTangent as
    phi.dq + psi[0].dp[0] + psi[1].dp[1]."""

    phase: Phase
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.phase, Phase, "phase"), phi=0, psi=1)


@dataclass(frozen=True, eq=False)
class PhaseTangent(_BlockValue):
    """Tangent vector (dq, dp) to phase space at ``phase``."""

    phase: Phase
    dq: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        _set_blocks(self, _anchor_shape(self.phase, Phase, "phase"), dq=0, dp=1)


def kappa(v: JetTangent) -> JetVariation:
    """Exchange "variation of first-order data" for "first-order data of a
    variation".

    Flat coordinates map (q, qdot[0], qdot[1], dq, dqdot[0], dqdot[1]) to
    (q, dq, qdot[0], dqdot[0], qdot[1], dqdot[1]): a pure block permutation.
    The stored arrays pass through untouched, so the round-trip with
    ``kappa_inv`` is exact to the bit.
    """
    return JetVariation(jet=v.jet, dq=v.dq, dqdot=v.dqdot)


def kappa_inv(w: JetVariation) -> JetTangent:
    """Inverse of ``kappa``; also a pure block relabelling."""
    return JetTangent(jet=w.jet, dq=w.dq, dqdot=w.dqdot)


def pair_jet(w: PhaseJet, dv: JetVariation):
    """Evaluation pairing of a phase jet against the jet of a variation.

    pair_jet(w, dv) = (d_1 p[0] + d_2 p[1]).dq + sum_i p[i].dqdot[i].

    Both arguments must sit over the same Jet (exact block equality).
    """
    _same_anchor(project_to_jet(w), dv.jet, "phase jet and variation")
    return _pairing((_divergence(w), dv.dq), *zip(w.base.p, dv.dqdot))


def pair_covector(c: JetCovector, v: JetTangent):
    """Canonical pairing <c, v> = a.dq + sum_i b[i].dqdot[i] (same jet
    required)."""
    _same_anchor(c.jet, v.jet, "covector and tangent")
    return _pairing((c.a, v.dq), *zip(c.b, v.dqdot))


def pair_phase_covector(c: PhaseCovector, u: PhaseTangent):
    """Canonical pairing <c, u> = phi.dq + sum_i psi[i].dp[i] (same phase
    required)."""
    _same_anchor(c.phase, u.phase, "covector and tangent")
    return _pairing((c.phi, u.dq), *zip(c.psi, u.dp))


def alpha(w: PhaseJet) -> JetCovector:
    """Covector on jet space induced by a phase jet.

    Defined by <alpha(w), v> = pair_jet(w, kappa(v)) for every jet tangent v
    over the same jet; in coordinates a = d_1 p[0] + d_2 p[1], b = p.
    """
    return JetCovector(jet=project_to_jet(w), a=_divergence(w), b=w.base.p)


def beta(w: PhaseJet) -> PhaseCovector:
    """Covector on phase space induced by a phase jet.

    In coordinates phi = -(d_1 p[0] + d_2 p[1]), psi = qdot.
    Satisfies <beta(w), u> = omega2_pair(w, u) for every phase tangent u,
    and coincides exactly with the factor-glued construction ``beta_tilde``.
    """
    return PhaseCovector(phase=w.base, phi=-_divergence(w), psi=w.qdot)


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

    The phase jet is split into the factor tangents (q, p[i], qdot[i],
    pdot[i, i]), discarding the cross derivatives, which the factor maps
    never see.  Each factor passes through ``beta_m``; the factor covectors
    are then glued back over the product: the dq-blocks add, the dp-blocks
    stay separate.  Agrees with ``beta`` exactly.
    """
    q, p, a, b = zip(*(beta_m(w.base.q, w.base.p[i], w.qdot[i], w.pdot[i, i])
                       for i in range(_N)))
    return PhaseCovector(phase=Phase(q=q[0], p=np.stack(p)),
                         phi=a[0] + a[1], psi=np.stack(b))


def omega2_pair(w: PhaseJet, u: PhaseTangent):
    """Pairing of a phase jet with a phase tangent through the bi-form
    structure: sum_i qdot[i].dp[i] - (d_1 p[0] + d_2 p[1]).dq.
    Both arguments must sit over the same phase point."""
    _same_anchor(w.base, u.phase, "phase jet and tangent")
    return _pairing(*zip(w.qdot, u.dp)) - _pairing((_divergence(w), u.dq))


def project_to_jet(x) -> Jet:
    """Project onto jet space.

    JetCovector -> its anchor jet; PhaseJet -> (q, qdot);
    PhaseCovector -> (q, psi), the jet-space leg of phase covectors.
    """
    if isinstance(x, JetCovector):
        return x.jet
    if isinstance(x, PhaseJet):
        return Jet(q=x.base.q, qdot=x.qdot)
    if isinstance(x, PhaseCovector):
        return Jet(q=x.phase.q, qdot=x.psi)
    raise InvalidInputError(f"cannot project {type(x).__name__} to a Jet")


def project_to_phase(x) -> Phase:
    """Project onto phase space.

    PhaseCovector -> its anchor phase; PhaseJet -> its base;
    JetCovector -> (q, b), the phase-space leg of jet covectors.
    """
    if isinstance(x, PhaseCovector):
        return x.phase
    if isinstance(x, PhaseJet):
        return x.base
    if isinstance(x, JetCovector):
        return Phase(q=x.jet.q, p=x.b)
    raise InvalidInputError(f"cannot project {type(x).__name__} to a Phase")
