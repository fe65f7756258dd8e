"""Built-in model catalog: harmonic/sigma maps and the Minkowski string.

The harmonic model L = (1/2) g_ab (v1^a v1^b + v2^a v2^b) with an SPD target
metric g is the canonical smooth test case: its Euler-Lagrange equation is
the (metric-weighted) Laplace equation, admissible everywhere, Legendre map
linear.  "sigma" is the same functional with a fixed non-trivial constant
metric, so cross-component coupling gets exercised.

The string model ("nambu") lives in 4-dimensional Minkowski space with
signature (+,-,-,-).  Writing g for the 2x2 Gram matrix of the worldsheet
tangent vectors v1, v2 (a jet's qdot[0], qdot[1]) under the metric eta,

    L(q, v1, v2) = sqrt(-det g),

admissible exactly where det g < 0 (a timelike/spacelike pair).  The
Legendre map and its inverse have closed forms for the momenta p1, p2 (a
phase point's p[0], p[1]), implemented here and cross-checked against AD in
the tests:

    p1 = [eta(v1,v2) low(v2) - eta(v2,v2) low(v1)] / sqrt(-det g)
    p2 = [eta(v1,v2) low(v1) - eta(v1,v1) low(v2)] / sqrt(-det g)

    v1 = [eta(p1,p2) raise(p2) - eta(p2,p2) raise(p1)] / sqrt(-det gd)
    v2 = [eta(p1,p2) raise(p1) - eta(p1,p1) raise(p2)] / sqrt(-det gd)

where gd = [[-eta(p2,p2), eta(p1,p2)], [eta(p1,p2), -eta(p1,p1)]] is the
dual-side Gram matrix (equal to g along the image of the Legendre map: the
momenta satisfy eta(p1,p1) = -eta(v2,v2), eta(p2,p2) = -eta(v1,v1),
eta(p1,p2) = eta(v1,v2)).  Both formulas carry the same overall sign; this
is forced by direct linear inversion of the momentum formulas and is
verified numerically in the tests (forward then inverse is the identity).

The string Hamiltonian is the Legendre transform

    H(q, p1, p2) = p1.v1 + p2.v2 - L = sqrt(-det gd),

with the positive root: L is jointly degree-2 homogeneous in (v1, v2), so
p1.v1 + p2.v2 = 2L and H = L > 0 on the admissible region.  With this root
dH/dp_i reproduces the inverse-Legendre velocities, making the Hamiltonian
phase equations literally equivalent to the Lagrangian ones; the negative
root would generate the parameter-reversed dynamics instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import ScalarField, Taylor
from .bundles import Jet, Phase
from .errors import DomainError, InvalidParameterError
from .hamiltonian import HamiltonianModel
from .lagrangian import LagrangianModel

__all__ = [
    "MinkowskiMetric",
    "GramMatrix",
    "harmonic_lagrangian",
    "harmonic_hamiltonian",
    "sigma_metric",
    "nambu_lagrangian",
    "nambu_legendre_closed_form",
    "nambu_legendre_inverse_closed_form",
    "nambu_hamiltonian",
    "Uniform",
    "draw_points",
    "STRING_JET",
    "sample_admissible_string_jet",
    "sample_admissible_string_phase",
    "MODEL_NAMES",
    "get_lagrangian",
    "get_hamiltonian",
]


def _value(x):
    return x.value if isinstance(x, Taylor) else x


def _require_negative(x, what: str) -> None:
    val = np.asarray(_value(x))
    ok = val < 0.0
    if not bool(np.all(ok)):
        comp = None if val.ndim == 0 else int(np.argmax(~ok))
        at = "" if comp is None else f" at component {comp}"
        raise DomainError(f"{what} must be negative{at}", component=comp)


@dataclass(frozen=True)
class MinkowskiMetric:
    """Flat metric of signature (+,-,-,-) on R^4, in a fixed inertial chart.

    With the metric diagonal, lowering and raising an index are the same
    componentwise sign flip, and the dual-side bilinear form has the same
    components as the primal one.
    """

    dim: int = 4

    @property
    def signs(self) -> np.ndarray:
        s = -np.ones(self.dim)
        s[0] = 1.0
        return s

    def inner(self, v, w):
        """eta(v, w) for two vectors given as length-4 sequences; entries may
        be plain numbers, arrays, or Taylor numbers."""
        acc = v[0] * w[0]
        for i in range(1, self.dim):
            acc = acc - v[i] * w[i]
        return acc

    # The form is diagonal with entries +-1, so it equals its own inverse
    # and the dual pairing has the identical component formula.
    inner_dual = inner

    def lower(self, v) -> np.ndarray:
        """The index of ``v`` lowered; ``v`` has shape (dim,) + batch."""
        v = np.asarray(v, dtype=float)
        return self.signs.reshape((self.dim,) + (1,) * (v.ndim - 1)) * v

    raise_ = lower


MINKOWSKI = MinkowskiMetric()


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric 2x2 Gram matrix, held as its diagonal (g[0][0], g[1][1])
    and its off-diagonal entry; the worldsheet is admissible iff det < 0."""

    diag: tuple
    off: object

    @property
    def det(self):
        return self.diag[0] * self.diag[1] - self.off * self.off

    @property
    def admissible(self) -> bool:
        return bool(np.all(np.asarray(_value(self.det)) < 0.0))

    @classmethod
    def from_velocities(cls, metric: MinkowskiMetric, v) -> "GramMatrix":
        """g[i][j] = eta(v[i], v[j]) for the two tangent vectors v[0], v[1]."""
        return cls(diag=(metric.inner(v[0], v[0]), metric.inner(v[1], v[1])),
                   off=metric.inner(v[0], v[1]))

    @classmethod
    def from_momenta(cls, metric: MinkowskiMetric, p) -> "GramMatrix":
        """The dual-side gd of the two momenta p[0], p[1]."""
        return cls(diag=(-metric.inner_dual(p[1], p[1]),
                         -metric.inner_dual(p[0], p[0])),
                   off=metric.inner_dual(p[0], p[1]))


def _check_metric(m: int, target_metric) -> np.ndarray:
    if target_metric is None:
        return np.eye(m)
    g = np.asarray(target_metric, dtype=float)
    if g.shape != (m, m):
        raise InvalidParameterError(
            f"target metric has shape {g.shape}, expected ({m}, {m})")
    if not np.allclose(g, g.T, rtol=1e-12, atol=1e-12):
        raise InvalidParameterError("target metric must be symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as e:
        raise InvalidParameterError("target metric must be positive definite") from e
    return g


def _half_quadratic_form(m: int, g: np.ndarray) -> ScalarField:
    """(1/2) g_ab (w1^a w1^b + w2^a w2^b) on slots (q, w1, w2), each of size m."""

    def eval_form(xs):
        w1 = xs[m:2 * m]
        w2 = xs[2 * m:]
        acc = 0.0
        for a in range(m):
            for b in range(m):
                gab = g[a, b]
                if gab != 0.0:
                    acc = acc + gab * (w1[a] * w1[b] + w2[a] * w2[b])
        return 0.5 * acc

    return ScalarField(arity=3 * m, eval=eval_form)


def harmonic_lagrangian(m: int = 1, target_metric=None,
                        name: str = "harmonic") -> LagrangianModel:
    """L = (1/2) g_ab (v1^a v1^b + v2^a v2^b), admissible everywhere."""
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    g = _check_metric(m, target_metric)
    return LagrangianModel(m=m, L=_half_quadratic_form(m, g),
                           admissible=lambda j: True, name=name)


def harmonic_hamiltonian(m: int = 1, target_metric=None,
                         name: str = "harmonic") -> HamiltonianModel:
    """Closed-form Legendre transform of the harmonic model:
    H = (1/2) g^ab (p1_a p1_b + p2_a p2_b)."""
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    ginv = np.linalg.inv(_check_metric(m, target_metric))
    return HamiltonianModel(m=m, H=_half_quadratic_form(m, ginv),
                            admissible=lambda ph: True, name=name)


def sigma_metric(m: int) -> np.ndarray:
    """Constant SPD target metric for the "sigma" model: identity plus a
    rank-one bump, eigenvalues 1 (multiplicity m-1) and 3/2."""
    return np.eye(m) + 0.5 * np.ones((m, m)) / m


def _string_gram_from_slots(xs) -> GramMatrix:
    return GramMatrix.from_velocities(MINKOWSKI, (xs[4:8], xs[8:12]))


def nambu_lagrangian() -> LagrangianModel:
    """String Lagrangian L = sqrt(-det g) in Minkowski R^4 (m = 4)."""

    def eval_L(xs):
        g = _string_gram_from_slots(xs)
        det = g.det
        _require_negative(det, "worldsheet Gram determinant")
        return autodiff.sqrt(-det)

    def admissible(j: Jet) -> bool:
        return GramMatrix.from_velocities(MINKOWSKI, j.qdot).admissible

    return LagrangianModel(m=4, L=ScalarField(arity=12, eval=eval_L),
                           admissible=admissible, name="nambu")


def nambu_legendre_closed_form(j: Jet) -> Phase:
    """Closed-form string momenta (see module docstring for the formulas),
    per point of a batch: each point rounds as it would alone."""
    if j.m != 4:
        raise InvalidParameterError(f"string model needs m=4, got m={j.m}")
    v1, v2 = j.qdot
    A = MINKOWSKI.inner(v1, v1)
    B = MINKOWSKI.inner(v1, v2)
    C = MINKOWSKI.inner(v2, v2)
    det = A * C - B * B
    _require_negative(det, "worldsheet Gram determinant")
    s = np.sqrt(-det)
    w1 = MINKOWSKI.lower(v1)
    w2 = MINKOWSKI.lower(v2)
    return Phase(q=j.q, p=np.array([(B * w2 - C * w1) / s, (B * w1 - A * w2) / s]))


def nambu_legendre_inverse_closed_form(ph: Phase) -> Jet:
    """Closed-form inverse of the string Legendre map, per point of a batch.

    Same structure as the forward map with indices raised instead of
    lowered; the overall sign is +1/sqrt(-det gd), which is what direct
    linear inversion of the momentum formulas gives (and what the
    round-trip tests enforce).
    """
    if ph.m != 4:
        raise InvalidParameterError(f"string model needs m=4, got m={ph.m}")
    p1, p2 = ph.p
    P11 = MINKOWSKI.inner_dual(p1, p1)
    P12 = MINKOWSKI.inner_dual(p1, p2)
    P22 = MINKOWSKI.inner_dual(p2, p2)
    det_d = P11 * P22 - P12 * P12  # equals det gd for gd built from momenta
    _require_negative(det_d, "dual-side Gram determinant")
    s = np.sqrt(-det_d)
    r1 = MINKOWSKI.raise_(p1)
    r2 = MINKOWSKI.raise_(p2)
    return Jet(q=ph.q, qdot=np.array([(P12 * r2 - P22 * r1) / s,
                                      (P12 * r1 - P11 * r2) / s]))


_DUAL_DET_MARGIN = 1e-8


def nambu_hamiltonian() -> HamiltonianModel:
    """String Hamiltonian H = sqrt(-det gd) on the dual-side Gram matrix.

    Positive root: H is the Legendre transform of L = sqrt(-det g) and
    p1.v1 + p2.v2 = 2L by homogeneity, so H = L > 0 (see module docstring).
    Admissibility requires det gd < 0 with a small margin, keeping the
    square-root derivatives bounded.
    """

    def eval_H(xs):
        det = GramMatrix.from_momenta(MINKOWSKI, (xs[4:8], xs[8:12])).det
        _require_negative(det, "dual-side Gram determinant")
        return autodiff.sqrt(-det)

    def admissible(ph: Phase) -> bool:
        g = GramMatrix.from_momenta(MINKOWSKI, ph.p)
        return bool(np.all(_value(g.det) < -_DUAL_DET_MARGIN))

    return HamiltonianModel(m=4, H=ScalarField(arity=12, eval=eval_H),
                            admissible=admissible, name="nambu")


@dataclass(frozen=True)
class Uniform:
    """One ``rng.uniform(lo, hi)`` draw in a ``draw_points`` layout."""

    lo: float
    hi: float


def draw_points(rng: np.random.Generator, n: int, layout) -> list:
    """``n`` points' draws, in the stream order of one point after another
    drawing ``layout`` item by item: a shape tuple is
    ``rng.standard_normal(shape)`` and a ``Uniform`` is ``rng.uniform(lo, hi)``.

    Consecutive normals are one stream however the calls split them, so each
    run of normals between two uniforms, across point boundaries too, is one
    ``standard_normal(out=...)`` call into a shared buffer; a layout without
    uniforms takes one call.  Returns one array per item with a leading
    point axis: shape (n,) + shape for normals, (n,) for a uniform.
    """
    sizes = [1 if isinstance(it, Uniform) else int(np.prod(it)) for it in layout]
    stops = np.cumsum(sizes).tolist()
    starts = [stop - size for stop, size in zip(stops, sizes)]
    width = stops[-1]
    buf = np.empty(n * width)
    uniforms = [(start, it.lo, it.hi) for start, it in zip(starts, layout)
                if isinstance(it, Uniform)]
    pos = 0
    for base in range(0, n * width, width):
        for start, lo, hi in uniforms:
            at = base + start
            if at > pos:
                rng.standard_normal(out=buf[pos:at])
            buf[at] = rng.uniform(lo, hi)
            pos = at + 1
    if pos < len(buf):
        rng.standard_normal(out=buf[pos:])
    table = buf.reshape(n, width)
    return [table[:, start] if isinstance(it, Uniform)
            else table[:, start:stop].reshape((n,) + tuple(it))
            for it, start, stop in zip(layout, starts, stops)]


# One string point's draws for the samplers: the directions u and d, the
# length r of v2, and q.
STRING_JET = ((3,), (3,), Uniform(0.5, 2.0), (4,))


def sample_admissible_string_jet(rng: np.random.Generator | None = None, *,
                                 draws=None) -> Jet:
    """Random admissible worldsheet jets, away from the degenerate boundary.

    v1 = e0 + u/2 with u a random spatial unit vector is timelike, and
    v2 = (0, r d) with d a random spatial unit vector and r uniform in
    [0.5, 2].  Then eta(v1, v1) = 3/4, eta(v1, v2) = -r (u.d)/2 and
    eta(v2, v2) = -r^2, so

        det g = -r^2 (3/4 + (u.d)^2 / 4) <= -0.1875,

    bounded away from the degenerate boundary det g = 0 by one draw, which
    keeps the sqrt derivatives bounded.

    One jet of batch shape () is drawn from ``rng``; ``draws``, the arrays
    (u, d, r, q) that ``draw_points`` gives for ``STRING_JET``, gives a
    batch of one jet per row.  All after the draws runs once per batch,
    each point rounded as alone: ``sqrt(vecdot)`` over a contiguous row
    rounds as ``np.linalg.norm``.
    """
    single = draws is None
    if single:
        draws = draw_points(rng, 1, STRING_JET)
    u, d, r, q = draws
    u = u / np.sqrt(np.vecdot(u, u))[:, None]
    d = d / np.sqrt(np.vecdot(d, d))[:, None]
    qdot = np.array([np.concatenate([np.ones((1, len(r))), 0.5 * u.T]),
                     np.concatenate([np.zeros((1, len(r))), r * d.T])])
    return Jet(q[0], qdot[..., 0]) if single else Jet(q.T, qdot)


def sample_admissible_string_phase(rng: np.random.Generator | None = None, *,
                                   draws=None) -> Phase:
    """Random admissible dual-side points: the images of admissible jets,
    drawn as ``sample_admissible_string_jet`` draws them (the dual Gram
    determinant there equals the primal one)."""
    return nambu_legendre_closed_form(
        sample_admissible_string_jet(rng, draws=draws))


MODEL_NAMES = ("harmonic", "sigma", "nambu")


def _validated_m(name: str, m: int | None) -> int:
    if name == "nambu":
        if m is not None and m != 4:
            raise InvalidParameterError(f"model 'nambu' requires m=4, got m={m}")
        return 4
    m = 1 if m is None else m
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    return m


def get_lagrangian(name: str, m: int | None = None) -> LagrangianModel:
    """Catalog lookup by CLI name: "harmonic", "sigma", or "nambu"."""
    if name not in MODEL_NAMES:
        raise InvalidParameterError(
            f"unknown model '{name}' (available: {', '.join(MODEL_NAMES)})")
    mm = _validated_m(name, m)
    if name == "harmonic":
        return harmonic_lagrangian(mm)
    if name == "sigma":
        return harmonic_lagrangian(mm, sigma_metric(mm), name="sigma")
    return nambu_lagrangian()


def get_hamiltonian(name: str, m: int | None = None) -> HamiltonianModel:
    """Closed-form Hamiltonian counterpart of each catalog model."""
    if name not in MODEL_NAMES:
        raise InvalidParameterError(
            f"unknown model '{name}' (available: {', '.join(MODEL_NAMES)})")
    mm = _validated_m(name, m)
    if name == "harmonic":
        return harmonic_hamiltonian(mm)
    if name == "sigma":
        return harmonic_hamiltonian(mm, sigma_metric(mm), name="sigma")
    return nambu_hamiltonian()
