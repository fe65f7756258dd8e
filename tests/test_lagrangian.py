"""Velocity-side structures: dL, the Legendre map, membership in the phase
dynamics, and the pointwise field-equation residual."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldtriple import autodiff
from fieldtriple.autodiff import ScalarField
from fieldtriple.bundles import Jet, Phase, PhaseJet, project_to_jet
from fieldtriple.errors import DomainError, InvalidInputError
from fieldtriple.lagrangian import (
    LagrangianModel,
    SecondJet,
    dL,
    el_residual_pointwise,
    legendre,
    phase_dynamics_member,
    phase_relation_residual,
)
from fieldtriple.models import (
    get_lagrangian,
    harmonic_lagrangian,
    nambu_lagrangian,
    nambu_legendre_closed_form,
    sample_admissible_string_jet,
)

from support import halfplane_lagrangian, sample_halfplane_q

HARM1 = harmonic_lagrangian(1)
NAMBU = nambu_lagrangian()
HALFPLANE = halfplane_lagrangian()
STANDARD_JET = Jet([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# dL


def test_dl_harmonic_hand_case():
    c = dL(HARM1, Jet([0.0], [[2.0], [-3.0]]))
    assert c.a.tolist() == [0.0]
    assert c.b[0].tolist() == [2.0]
    assert c.b[1].tolist() == [-3.0]


def test_dl_nambu_standard_point():
    c = dL(NAMBU, STANDARD_JET)
    assert np.max(np.abs(c.a)) <= 1e-14
    assert np.max(np.abs(c.b[0] - [1.0, 0.0, 0.0, 0.0])) <= 1e-14
    assert np.max(np.abs(c.b[1] - [0.0, 1.0, 0.0, 0.0])) <= 1e-14


def test_dl_inadmissible_point_is_domain_error():
    degenerate = Jet([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        dL(NAMBU, degenerate)


def test_inadmissible_jet_raises_the_lagrangians_own_error():
    """dL and the Euler-Lagrange residual test no domain of their own: an
    inadmissible jet fails with the DomainError that L raises."""
    degenerate = Jet([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    message = "^worldsheet Gram determinant must be negative$"
    with pytest.raises(DomainError, match=message):
        NAMBU.L.eval(np.concatenate([degenerate.q, *degenerate.qdot]))
    with pytest.raises(DomainError, match=message):
        dL(NAMBU, degenerate)
    with pytest.raises(DomainError, match=message):
        el_residual_pointwise(NAMBU, SecondJet(degenerate, np.zeros((2, 2, 4))))


def test_model_m_is_a_third_of_the_arity():
    model = LagrangianModel(L=ScalarField(arity=6, eval=lambda xs: xs[3]))
    assert model.m == 2
    with pytest.raises(AttributeError):
        model.m = 3
    for arity in (1, 2, 4, 13):
        with pytest.raises(InvalidInputError, match=f"^L has arity {arity}, "
                           "expected a multiple of 3$"):
            LagrangianModel(L=ScalarField(arity=arity, eval=lambda xs: xs[0]))


def test_model_and_jet_dimensions_must_agree():
    with pytest.raises(InvalidInputError, match="^jet has m=2, model has m=1$"):
        dL(HARM1, Jet([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]))


def test_dl_jet_passthrough():
    j = Jet([0.4], [[1.5], [-0.5]])
    assert dL(HARM1, j).jet == j


# ---------------------------------------------------------------------------
# legendre


def test_legendre_harmonic_is_identity_on_velocities():
    ph = legendre(HARM1, Jet([0.0], [[2.0], [-3.0]]))
    assert ph == Phase([0.0], [[2.0], [-3.0]])


def test_legendre_nambu_standard_point():
    ph = legendre(NAMBU, STANDARD_JET)
    assert np.max(np.abs(ph.p[0] - [1.0, 0.0, 0.0, 0.0])) <= 1e-14
    assert np.max(np.abs(ph.p[1] - [0.0, 1.0, 0.0, 0.0])) <= 1e-14


def test_legendre_equals_dl_momentum_blocks_exactly():
    rng = np.random.default_rng(23)
    for _ in range(50):
        j = sample_admissible_string_jet(rng)
        c = dL(NAMBU, j)
        ph = legendre(NAMBU, j)
        assert np.array_equal(ph.p[0], c.b[0])
        assert np.array_equal(ph.p[1], c.b[1])
        assert np.array_equal(ph.q, j.q)


def test_legendre_matches_closed_form_on_1000_points():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(1000):
        j = sample_admissible_string_jet(rng)
        ad = legendre(NAMBU, j)
        cf = nambu_legendre_closed_form(j)
        gap = max(float(np.max(np.abs(ad.p[0] - cf.p[0]))),
                  float(np.max(np.abs(ad.p[1] - cf.p[1]))))
        scale = max(1.0, float(np.max(np.abs(cf.p[0]))),
                    float(np.max(np.abs(cf.p[1]))))
        worst = max(worst, gap / scale)
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# phase_relation_residual and members


def _member_by_hand(model, j, p1dot2=0.0, p2dot1=0.0):
    """Assemble a relation member from its three coordinate equations:
    momenta from the Legendre map, and the divergence of the momenta
    matching the configuration gradient of L (split: all of it on the
    x1-derivative of p1).  ``p1dot2`` is pdot[1, 0], ``p2dot1`` pdot[0, 1]."""
    c = dL(model, j)
    m = model.m
    return PhaseJet(Phase(j.q, c.b), j.qdot,
                    [[c.a, np.full(m, p2dot1)], [np.full(m, p1dot2), np.zeros(m)]])


def test_member_built_by_hand_has_zero_residual():
    j = Jet([0.2], [[1.5], [-0.3]])
    w = _member_by_hand(HARM1, j)
    assert phase_relation_residual(HARM1, w) <= 1e-12


def test_member_residual_invariant_under_free_blocks():
    j = Jet([0.2], [[1.5], [-0.3]])
    for p1dot2, p2dot1 in ((0.0, 0.0), (5.0, -3.0), (100.0, 0.25)):
        w = _member_by_hand(HARM1, j, p1dot2, p2dot1)
        assert phase_relation_residual(HARM1, w) <= 1e-12


def test_perturbing_momentum_moves_residual_by_epsilon():
    j = Jet([0.2], [[1.5], [-0.3]])
    w = _member_by_hand(HARM1, j)
    eps = 1e-3
    w_bad = PhaseJet(Phase(w.base.q, w.base.p + [[eps], [0.0]]), w.qdot, w.pdot)
    assert phase_relation_residual(HARM1, w_bad) == pytest.approx(eps, rel=1e-12)


def test_harmonic_member_with_matching_momenta():
    w = PhaseJet(Phase([0.0], [[1.5], [-0.3]]),
                 [[1.5], [-0.3]],
                 [[[0.0], [0.0]], [[0.0], [0.0]]])
    assert phase_relation_residual(HARM1, w) <= 1e-15


def test_phase_dynamics_member_canonical_and_randomized():
    rng = np.random.default_rng(31)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        w0 = phase_dynamics_member(NAMBU, j)
        w1 = phase_dynamics_member(NAMBU, j, free=rng.standard_normal((3, 4)))
        assert phase_relation_residual(NAMBU, w0) <= 1e-12
        assert phase_relation_residual(NAMBU, w1) <= 1e-12
        assert project_to_jet(w0) == j
    # L depends on q here, so the members carry a nonzero source term dL/dq.
    for _ in range(100):
        j = Jet(sample_halfplane_q(rng), rng.standard_normal((2, 2)))
        w0 = phase_dynamics_member(HALFPLANE, j)
        w1 = phase_dynamics_member(HALFPLANE, j, free=rng.standard_normal((3, 2)))
        assert phase_relation_residual(HALFPLANE, w0) <= 1e-12
        assert phase_relation_residual(HALFPLANE, w1) <= 1e-12
        assert project_to_jet(w0) == j


@given(st.floats(1e-6, 0.1), st.integers(0, 2))
@settings(max_examples=25)
def test_single_coordinate_perturbation_raises_residual(eps, which):
    j = Jet([0.2, -0.1], [[1.5, 0.3], [-0.3, 0.8]])
    model = harmonic_lagrangian(2)
    w = _member_by_hand(model, j)
    blocks = {0: ("base", 0), 1: ("base", 1), 2: (None, 0)}
    holder, i = blocks[which]
    if holder == "base":
        p = w.base.p.copy()
        p[i, 0] += eps
        w_bad = PhaseJet(Phase(w.base.q, p), w.qdot, w.pdot)
    else:
        qdot = w.qdot.copy()
        qdot[i, 0] += eps
        w_bad = PhaseJet(w.base, qdot, w.pdot)
    # the covector blocks are linear in the perturbed coordinate for the
    # harmonic model, so the residual must jump by at least eps/2
    assert phase_relation_residual(model, w_bad) >= eps / 2.0


# ---------------------------------------------------------------------------
# pointwise field-equation residual


def test_el_residual_of_saddle_polynomial_vanishes():
    # u = x^2 - y^2 at (x, y): jet (u, 2x, -2y), second partials
    # (d11, d12, d22) = (2, 0, -2)
    x, y = 0.7, -0.2
    s = SecondJet(Jet([x * x - y * y], [[2 * x], [-2 * y]]),
                  [[[2.0], [0.0]], [[0.0], [-2.0]]])
    assert np.max(np.abs(el_residual_pointwise(HARM1, s))) <= 1e-14


def test_el_residual_of_parabola():
    s = SecondJet(Jet([0.25], [[1.0], [0.0]]), [[[2.0], [0.0]], [[0.0], [0.0]]])
    r = el_residual_pointwise(HARM1, s)
    assert r.tolist() == pytest.approx([-2.0], rel=1e-14)


def test_el_residual_of_constant_map_vanishes():
    s = SecondJet(Jet([1.3], [[0.0], [0.0]]), np.zeros((2, 2, 1)))
    assert np.max(np.abs(el_residual_pointwise(HARM1, s))) == 0.0


def test_el_residual_of_holomorphic_map_into_the_half_plane_vanishes():
    # q = (-e^x sin y, e^x cos y) is i e^(x + iy), holomorphic, hence a
    # harmonic map into the hyperbolic half-plane; its source term dL/dq is
    # balanced by the q-dependence of the momenta.
    x, y = 0.3, 0.7
    ex, s, c = np.exp(x), np.sin(y), np.cos(y)
    q, qx, qy = ex * np.array([[-s, c], [-s, c], [-c, -s]])
    sj = SecondJet(Jet(q, [qx, qy]), [[qx, qy], [qy, -qx]])
    assert dL(HALFPLANE, sj.jet).a[1] == pytest.approx(-3.311, abs=1e-3)
    assert np.max(np.abs(el_residual_pointwise(HALFPLANE, sj))) <= 1e-14


def test_el_residual_nambu_flat_sheet_vanishes():
    # an affine worldsheet solves the minimal-surface equations
    s = SecondJet(STANDARD_JET, np.zeros((2, 2, 4)))
    assert np.max(np.abs(el_residual_pointwise(NAMBU, s))) <= 1e-14


def test_el_residual_takes_one_second_order_pass(monkeypatch):
    """dL/dq comes from the gradient channel of the Hessian pass: one
    ``_expand`` call per residual.  That channel performs the float
    operations of a first-order pass, so it is ``autodiff.grad`` bit for
    bit."""
    rng = np.random.default_rng(8)
    jets = [(NAMBU, sample_admissible_string_jet(rng)) for _ in range(5)]
    jets += [(HALFPLANE, Jet(sample_halfplane_q(rng), rng.standard_normal((2, 2))))
             for _ in range(5)]
    sigma = get_lagrangian("sigma", 3)
    jets += [(sigma, Jet(rng.standard_normal(3), rng.standard_normal((2, 3))))
             for _ in range(5)]
    for model, j in jets:
        z = np.concatenate([j.q, *j.qdot])
        one_pass = autodiff._expand(model.L, z, second=True).grad
        assert np.array_equal(one_pass.view(np.int64),
                              autodiff.grad(model.L, z).view(np.int64))
    calls = []
    expand = autodiff._expand

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return expand(*args, **kwargs)

    monkeypatch.setattr(autodiff, "_expand", counting)
    for model, j in jets:
        d = rng.standard_normal((2, 2, model.m))
        el_residual_pointwise(model, SecondJet(j, d + d.swapaxes(0, 1)))
    assert calls == [{"second": True}] * len(jets)
