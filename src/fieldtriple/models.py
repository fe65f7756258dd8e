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
eta(p1,p2) = eta(v1,v2)).  Its determinant

    det gd = eta(p1,p1) eta(p2,p2) - eta(p1,p2)^2

is the Gram determinant of the momenta themselves, so one function forms
both sides' entries and determinants.  Both formulas carry the same
overall sign; this is forced by direct linear inversion of the momentum
formulas and is verified numerically in the tests (forward then inverse is
the identity).

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
from .autodiff import ScalarField, Taylor, _require_domain
from .bundles import Jet, Phase
from .errors import InvalidParameterError
from .hamiltonian import HamiltonianModel
from .lagrangian import LagrangianModel

__all__ = [
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


def _eta(v, w):
    """eta(v, w) of signature (+,-,-,-) for two vectors given as length-4
    sequences, summed left to right; entries may be plain numbers, arrays,
    or Taylor numbers."""
    acc = v[0] * w[0]
    for i in range(1, 4):
        acc = acc - v[i] * w[i]
    return acc


def _lower(v) -> np.ndarray:
    """The index of ``v``, of shape (4,) + batch, lowered by eta.  eta is
    diagonal with entries +-1, so it is its own inverse: raising an index is
    the same sign flip."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v[:1], -v[1:]])


def _gram(v1, v2):
    """The 2x2 Gram matrix of v1, v2 under eta, as (A, B, C, det) with
    A = eta(v1,v1), B = eta(v1,v2), C = eta(v2,v2) and det = A C - B^2."""
    A = _eta(v1, v1)
    B = _eta(v1, v2)
    C = _eta(v2, v2)
    return A, B, C, A * C - B * B


def _check_metric(m: int, target_metric) -> np.ndarray:
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
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
    g = _check_metric(m, target_metric)
    return LagrangianModel(L=_half_quadratic_form(m, g), name=name)


def harmonic_hamiltonian(m: int = 1, target_metric=None,
                         name: str = "harmonic") -> HamiltonianModel:
    """Closed-form Legendre transform of the harmonic model:
    H = (1/2) g^ab (p1_a p1_b + p2_a p2_b)."""
    ginv = np.linalg.inv(_check_metric(m, target_metric))
    return HamiltonianModel(H=_half_quadratic_form(m, ginv), name=name)


def sigma_metric(m: int) -> np.ndarray:
    """Constant SPD target metric for the "sigma" model: identity plus a
    rank-one bump, eigenvalues 1 (multiplicity m-1) and 3/2."""
    return np.eye(m) + 0.5 * np.ones((m, m)) / m


_WORLDSHEET_DOMAIN = "worldsheet Gram determinant must be negative"


def nambu_lagrangian() -> LagrangianModel:
    """String Lagrangian L = sqrt(-det g) in Minkowski R^4 (m = 4)."""

    def eval_L(xs):
        det = _gram(xs[4:8], xs[8:12])[3]
        _require_domain(_value(det) < 0.0, _WORLDSHEET_DOMAIN)
        return autodiff.sqrt(-det)

    return LagrangianModel(L=ScalarField(arity=12, eval=eval_L), name="nambu")


def _require_string_m(point) -> None:
    """Reject a Jet or a Phase that is not in the string's m = 4."""
    if point.m != 4:
        raise InvalidParameterError(f"string model needs m=4, got m={point.m}")


def nambu_legendre_closed_form(j: Jet) -> Phase:
    """Closed-form string momenta (see module docstring for the formulas),
    per point of a batch: each point rounds as it would alone."""
    _require_string_m(j)
    v1, v2 = j.qdot
    A, B, C, det = _gram(v1, v2)
    _require_domain(det < 0.0, _WORLDSHEET_DOMAIN)
    s = np.sqrt(-det)
    w1, w2 = _lower(v1), _lower(v2)
    return Phase(q=j.q, p=np.array([(B * w2 - C * w1) / s, (B * w1 - A * w2) / s]))


def nambu_legendre_inverse_closed_form(ph: Phase) -> Jet:
    """Closed-form inverse of the string Legendre map, per point of a batch.

    Same structure as the forward map with indices raised instead of
    lowered; the overall sign is +1/sqrt(-det gd), which is what direct
    linear inversion of the momentum formulas gives (and what the
    round-trip tests enforce).
    """
    _require_string_m(ph)
    p1, p2 = ph.p
    P11, P12, P22, det_d = _gram(p1, p2)
    _require_domain(det_d < 0.0, "dual-side Gram determinant must be negative")
    s = np.sqrt(-det_d)
    r1, r2 = _lower(p1), _lower(p2)
    return Jet(q=ph.q, qdot=np.array([(P12 * r2 - P22 * r1) / s,
                                      (P12 * r1 - P11 * r2) / s]))


_DUAL_DET_MARGIN = 1e-8
_DUAL_DET_DOMAIN = f"dual-side Gram determinant must be below {-_DUAL_DET_MARGIN:g}"


def nambu_hamiltonian() -> HamiltonianModel:
    """String Hamiltonian H = sqrt(-det gd) on the dual-side Gram matrix.

    Positive root: H is the Legendre transform of L = sqrt(-det g) and
    p1.v1 + p2.v2 = 2L by homogeneity, so H = L > 0 (see module docstring).
    H is defined where det gd < -1e-8: the margin keeps the square-root
    derivatives bounded, and H raises ``DomainError`` everywhere else.
    """

    def eval_H(xs):
        det = _gram(xs[4:8], xs[8:12])[3]
        _require_domain(_value(det) < -_DUAL_DET_MARGIN, _DUAL_DET_DOMAIN)
        return autodiff.sqrt(-det)

    return HamiltonianModel(H=ScalarField(arity=12, eval=eval_H), name="nambu")


@dataclass(frozen=True)
class Uniform:
    """One draw uniform in [lo, hi) in a ``draw_points`` layout: the value of
    ``rng.uniform(lo, hi)``, drawn as ``lo + (hi - lo) * rng.random()``."""

    lo: float
    hi: float


def draw_points(rng: np.random.Generator, n: int, layout) -> list:
    """``n`` points' draws, in the stream order of one point after another
    drawing ``layout`` item by item: a shape tuple is
    ``rng.standard_normal(shape)`` and a ``Uniform`` is ``rng.uniform(lo, hi)``.

    Consecutive normals are one stream however the calls split them, so each
    run of normals between two uniforms, across point boundaries too, is one
    ``standard_normal(out=...)`` call into a shared buffer; a layout without
    uniforms takes one call.  Each uniform is one ``rng.random()`` call u,
    all of them scaled afterwards in one array expression
    ``lo + (hi - lo) * u``: numpy's ``uniform`` is that same expression on
    the same double, so the values are its own bit for bit.  Returns one array per item with a leading
    point axis: shape (n,) + shape for normals, (n,) for a uniform.
    """
    sizes = [1 if isinstance(it, Uniform) else int(np.prod(it)) for it in layout]
    stops = np.cumsum(sizes).tolist()
    starts = [stop - size for stop, size in zip(stops, sizes)]
    width = stops[-1]
    buf = np.empty(n * width)
    cols = [start for start, it in zip(starts, layout) if isinstance(it, Uniform)]
    pos = 0
    for base in range(0, n * width, width):
        for start in cols:
            at = base + start
            if at > pos:
                rng.standard_normal(out=buf[pos:at])
            buf[at] = rng.random()
            pos = at + 1
    if pos < len(buf):
        rng.standard_normal(out=buf[pos:])
    table = buf.reshape(n, width)
    lo = np.array([it.lo for it in layout if isinstance(it, Uniform)])
    hi = np.array([it.hi for it in layout if isinstance(it, Uniform)])
    table[:, cols] = lo + (hi - lo) * table[:, cols]
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
    if name not in MODEL_NAMES:
        raise InvalidParameterError(
            f"unknown model '{name}' (available: {', '.join(MODEL_NAMES)})")
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
    mm = _validated_m(name, m)
    if name == "harmonic":
        return harmonic_lagrangian(mm)
    if name == "sigma":
        return harmonic_lagrangian(mm, sigma_metric(mm), name="sigma")
    return nambu_lagrangian()


def get_hamiltonian(name: str, m: int | None = None) -> HamiltonianModel:
    """Closed-form Hamiltonian counterpart of each catalog model."""
    mm = _validated_m(name, m)
    if name == "harmonic":
        return harmonic_hamiltonian(mm)
    if name == "sigma":
        return harmonic_hamiltonian(mm, sigma_metric(mm), name="sigma")
    return nambu_hamiltonian()
