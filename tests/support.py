"""Test-side helpers: a finite-difference gradient oracle, random bundle
points, and a model pair whose Lagrangian depends on q, so the source term
dL/dq = -dH/dq of the phase equations is nonzero."""

import numpy as np

from fieldtriple.autodiff import ScalarField, Taylor, _point
from fieldtriple.bundles import _N, Jet, JetTangent, Phase, PhaseJet, PhaseTangent
from fieldtriple.errors import DomainError, InvalidParameterError
from fieldtriple.hamiltonian import HamiltonianModel
from fieldtriple.lagrangian import LagrangianModel


def fd_grad(f: ScalarField, x, h: float = 1e-5) -> np.ndarray:
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


def random_jet(rng: np.random.Generator, m: int) -> Jet:
    return Jet(q=rng.standard_normal(m), qdot=rng.standard_normal((_N, m)))


def random_phase(rng: np.random.Generator, m: int) -> Phase:
    return Phase(q=rng.standard_normal(m), p=rng.standard_normal((_N, m)))


def random_phase_jet(rng: np.random.Generator, m: int,
                     base: Phase | None = None) -> PhaseJet:
    """Direction-major draws after the base: (qdot[j], pdot[j, 0],
    pdot[j, 1]) for each direction j."""
    if base is None:
        base = random_phase(rng, m)
    x = rng.standard_normal((_N, 1 + _N, m))
    return PhaseJet(base=base, qdot=x[:, 0], pdot=x[:, 1:])


def random_jet_tangent(rng: np.random.Generator, m: int,
                       jet: Jet | None = None) -> JetTangent:
    if jet is None:
        jet = random_jet(rng, m)
    return JetTangent(jet=jet, dq=rng.standard_normal(m),
                      dqdot=rng.standard_normal((_N, m)))


def random_phase_tangent(rng: np.random.Generator,
                         phase: Phase) -> PhaseTangent:
    m = phase.m
    return PhaseTangent(phase=phase, dq=rng.standard_normal(m),
                        dp=rng.standard_normal((_N, m)))


def _require_upper(q2) -> None:
    value = q2.value if isinstance(q2, Taylor) else q2
    if not np.all(np.asarray(value) > 0.0):
        raise DomainError("q2 must be positive")


def _velocity_norm2(xs):
    """|w1|^2 + |w2|^2 over the slots (q, w1, w2) of m = 2."""
    return sum(xs[k] * xs[k] for k in range(2, 6))


def halfplane_lagrangian() -> LagrangianModel:
    """Harmonic maps into the upper half-plane with the hyperbolic metric:
    L = (|v1|^2 + |v2|^2) / (2 q2^2), defined where q2 > 0."""

    def eval_L(xs):
        _require_upper(xs[1])
        return _velocity_norm2(xs) / (2.0 * xs[1] * xs[1])

    return LagrangianModel(m=2, L=ScalarField(arity=6, eval=eval_L),
                           name="halfplane")


def halfplane_hamiltonian() -> HamiltonianModel:
    """The Legendre transform of ``halfplane_lagrangian``:
    H = q2^2 (|p1|^2 + |p2|^2) / 2, defined where q2 > 0."""

    def eval_H(xs):
        _require_upper(xs[1])
        return 0.5 * (xs[1] * xs[1]) * _velocity_norm2(xs)

    return HamiltonianModel(m=2, H=ScalarField(arity=6, eval=eval_H),
                            name="halfplane")


def sample_halfplane_q(rng: np.random.Generator) -> np.ndarray:
    """A point of the upper half-plane, q2 in [0.5, 2]."""
    return np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)])
