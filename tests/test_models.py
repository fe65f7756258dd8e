"""The model catalog: quadratic field theories, the Minkowski worldsheet
geometry, and the closed-form string Legendre maps."""

import numpy as np
import pytest

from fieldtriple import autodiff
from fieldtriple.bundles import Jet, Phase
from fieldtriple.errors import DomainError, InvalidParameterError
from fieldtriple.lagrangian import dL, legendre, phase_dynamics_member
from fieldtriple.models import (
    MODEL_NAMES,
    get_hamiltonian,
    get_lagrangian,
    harmonic_hamiltonian,
    harmonic_lagrangian,
    nambu_hamiltonian,
    nambu_lagrangian,
    nambu_legendre_closed_form,
    nambu_legendre_inverse_closed_form,
    sample_admissible_string_jet,
    sample_admissible_string_phase,
    sigma_metric,
    _eta,
    _gram,
    _lower,
)

NAMBU = nambu_lagrangian()
V1 = np.array([1.0, 0.0, 0.0, 0.0])
V2 = np.array([0.0, 1.0, 0.0, 0.0])
STANDARD_JET = Jet([0.0] * 4, [V1, V2])


# ---------------------------------------------------------------------------
# Minkowski metric and Gram matrices


def test_metric_signature():
    assert _lower(np.ones(4)).tolist() == [1.0, -1.0, -1.0, -1.0]


def test_lower_then_raise_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(4)
        # eta is its own inverse: raising an index is lowering it again
        assert np.array_equal(_lower(_lower(v)), v)


def test_inner_is_symmetric_and_matches_lowering():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        assert _eta(v, w) == _eta(w, v)
        assert _eta(v, w) == pytest.approx(float(_lower(v) @ w), rel=1e-15)


def test_gram_determinant_hand_case():
    A, B, C, det = _gram(V1, V2)
    assert A == 1.0 and C == -1.0 and B == 0.0
    assert det == -1.0


def test_dual_gram_equals_primal_gram_on_legendre_image():
    """The momenta of an admissible jet span a dual Gram matrix with the
    same determinant as the velocity Gram matrix."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = sample_admissible_string_jet(rng)
        ph = nambu_legendre_closed_form(j)
        dp = _gram(*j.qdot)[3]
        dd = _gram(*ph.p)[3]
        assert dd == pytest.approx(dp, rel=1e-12)


# ---------------------------------------------------------------------------
# quadratic models


def test_harmonic_value():
    flat = np.array([0.0, 2.0, -3.0])
    assert harmonic_lagrangian(1).L.eval(flat) == 6.5


def test_harmonic_vector_valued():
    model = harmonic_lagrangian(2)
    flat = np.array([0.0, 0.0, 1.0, 2.0, 3.0, -1.0])
    # 0.5 * (1 + 4 + 9 + 1)
    assert model.L.eval(flat) == 7.5


def test_sigma_legendre_is_metric_contraction():
    m = 3
    model = get_lagrangian("sigma", m)
    G = sigma_metric(m)
    rng = np.random.default_rng(11)
    for _ in range(50):
        j = Jet(rng.standard_normal(m), rng.standard_normal((2, m)))
        ph = legendre(model, j)
        assert np.max(np.abs(ph.p[0] - G @ j.qdot[0])) <= 1e-12
        assert np.max(np.abs(ph.p[1] - G @ j.qdot[1])) <= 1e-12


def test_sigma_metric_is_symmetric_positive_definite():
    for m in (1, 2, 5):
        G = sigma_metric(m)
        assert np.array_equal(G, G.T)
        assert np.all(np.linalg.eigvalsh(G) > 0.0)


def test_non_spd_target_metric_rejected():
    with pytest.raises(InvalidParameterError):
        harmonic_lagrangian(2, target_metric=[[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidParameterError):
        harmonic_lagrangian(2, target_metric=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidParameterError):
        harmonic_lagrangian(2, target_metric=[[1.0, 0.0]])


# ---------------------------------------------------------------------------
# string model


def test_string_lagrangian_value_at_standard_point():
    flat = np.concatenate([STANDARD_JET.q, V1, V2])
    assert NAMBU.L.eval(flat) == 1.0


def test_string_rejects_degenerate_sheet():
    with pytest.raises(DomainError):
        dL(NAMBU, Jet([0.0] * 4, [V1, V1]))


def test_string_lagrangian_symmetric_under_velocity_swap():
    rng = np.random.default_rng(13)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        a = NAMBU.L.eval(np.concatenate([j.q, *j.qdot]))
        b = NAMBU.L.eval(np.concatenate([j.q, j.qdot[1], j.qdot[0]]))
        assert a == pytest.approx(b, rel=1e-15)


def test_closed_form_momenta_match_autodiff():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        j = sample_admissible_string_jet(rng)
        ad = legendre(NAMBU, j)
        cf = nambu_legendre_closed_form(j)
        scale = max(1.0, float(np.max(np.abs(cf.p[0]))),
                    float(np.max(np.abs(cf.p[1]))))
        assert np.max(np.abs(ad.p[0] - cf.p[0])) / scale <= 1e-10
        assert np.max(np.abs(ad.p[1] - cf.p[1])) / scale <= 1e-10


def test_momentum_scaling_under_velocity_dilation():
    """Doubling the first velocity leaves p1 unchanged and doubles p2:
    both Gram rows scale together and the normalisation absorbs the
    first-slot factor."""
    rng = np.random.default_rng(19)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        ph = nambu_legendre_closed_form(j)
        j2 = Jet(j.q, [2.0 * j.qdot[0], j.qdot[1]])
        ph2 = nambu_legendre_closed_form(j2)
        assert np.max(np.abs(ph2.p[0] - ph.p[0])) <= 1e-12 * max(
            1.0, float(np.max(np.abs(ph.p[0]))))
        assert np.max(np.abs(ph2.p[1] - 2.0 * ph.p[1])) <= 1e-12 * max(
            1.0, float(np.max(np.abs(ph.p[1]))))


def test_closed_form_round_trips():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        j = sample_admissible_string_jet(rng)
        rec = nambu_legendre_inverse_closed_form(nambu_legendre_closed_form(j))
        assert np.max(np.abs(rec.qdot[0] - j.qdot[0])) <= 1e-9
        assert np.max(np.abs(rec.qdot[1] - j.qdot[1])) <= 1e-9
        ph = sample_admissible_string_phase(rng)
        back = nambu_legendre_closed_form(nambu_legendre_inverse_closed_form(ph))
        assert np.max(np.abs(back.p[0] - ph.p[0])) <= 1e-9
        assert np.max(np.abs(back.p[1] - ph.p[1])) <= 1e-9


def test_inverse_closed_form_rejects_inadmissible_momenta():
    with pytest.raises(DomainError):
        nambu_legendre_inverse_closed_form(
            Phase([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))


def test_string_momentum_divergence_vanishes_on_members():
    """The string Lagrangian does not depend on the configuration, so every
    member of its phase dynamics carries divergence-free momenta."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        w = phase_dynamics_member(NAMBU, j, free=rng.standard_normal((3, 4)))
        assert np.max(np.abs(w.pdot[0, 0] + w.pdot[1, 1])) <= 1e-14


def test_string_hamiltonian_is_configuration_independent():
    rng = np.random.default_rng(31)
    ham = nambu_hamiltonian()
    for _ in range(50):
        ph = sample_admissible_string_phase(rng)
        shifted = Phase(ph.q + rng.standard_normal(4), ph.p)
        a = ham.H.eval(np.concatenate([ph.q, *ph.p]))
        b = ham.H.eval(np.concatenate([shifted.q, *shifted.p]))
        assert a == b


# ---------------------------------------------------------------------------
# samplers and catalog


def test_samplers_respect_admissibility_margin():
    rng = np.random.default_rng(37)
    for _ in range(500):
        j = sample_admissible_string_jet(rng)
        assert _gram(*j.qdot)[3] < -1e-3
        ph = sample_admissible_string_phase(rng)
        assert _gram(*ph.p)[3] < -1e-3


def test_string_jet_sampler_gram_bound():
    # v1 = e0 + u/2 and v2 = (0, r d) with unit u, d and r in [0.5, 2] give
    # det g = -r^2 (3/4 + (u.d)^2 / 4) <= -0.1875, so one draw always lands
    # inside the admissible margin.
    rng = np.random.default_rng(2024)
    dets = np.empty(10_000)
    for k in range(len(dets)):
        j = sample_admissible_string_jet(rng)
        u, v2 = 2.0 * j.qdot[0][1:], j.qdot[1][1:]
        r = np.linalg.norm(v2)
        c = float(u @ v2) / r
        dets[k] = _gram(*j.qdot)[3]
        assert dets[k] == pytest.approx(-r * r * (0.75 + 0.25 * c * c), rel=1e-13)
    assert np.max(dets) <= -0.1875 * (1.0 - 1e-12)
    assert np.max(dets) >= -0.19  # the bound is nearly attained


def test_string_jet_sampler_draws_once():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        u = ref.standard_normal(3)
        d = ref.standard_normal(3)
        r = ref.uniform(0.5, 2.0)
        q = ref.standard_normal(4)
        assert np.array_equal(j.qdot[0][1:], 0.5 * (u / np.linalg.norm(u)))
        assert np.array_equal(j.qdot[1][1:], r * (d / np.linalg.norm(d)))
        assert np.array_equal(j.q, q)


def test_catalog_names_and_dimensions():
    assert MODEL_NAMES == ("harmonic", "sigma", "nambu")
    assert get_lagrangian("harmonic").m == 1
    assert get_lagrangian("harmonic", 3).m == 3
    assert get_lagrangian("sigma", 2).m == 2
    assert get_lagrangian("nambu").m == 4
    assert get_hamiltonian("nambu").m == 4


def test_catalog_rejects_bad_requests():
    with pytest.raises(InvalidParameterError):
        get_lagrangian("maxwell")
    with pytest.raises(InvalidParameterError):
        get_hamiltonian("maxwell")
    with pytest.raises(InvalidParameterError):
        get_lagrangian("nambu", m=3)
    with pytest.raises(InvalidParameterError):
        get_lagrangian("harmonic", m=0)
    with pytest.raises(InvalidParameterError, match="^m must be >= 1, got 0$"):
        harmonic_lagrangian(0)
    with pytest.raises(InvalidParameterError, match="^m must be >= 1, got 0$"):
        harmonic_hamiltonian(0)
    with pytest.raises(InvalidParameterError,
                       match="^string model needs m=4, got m=1$"):
        nambu_legendre_closed_form(Jet([0.0], [[1.0], [0.0]]))
    with pytest.raises(InvalidParameterError,
                       match="^string model needs m=4, got m=1$"):
        nambu_legendre_inverse_closed_form(Phase([0.0], [[1.0], [0.0]]))


def test_nambu_lagrangian_raises_exactly_outside_admissible():
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(200):
        q = rng.standard_normal(4)
        v1 = rng.standard_normal(4) * 1.5
        v2 = rng.standard_normal(4) * 1.5
        j = Jet(q, [v1, v2])
        try:
            NAMBU.L(list(np.concatenate([q, v1, v2])))
            raised = False
        except DomainError:
            raised = True
        assert raised != (_gram(*j.qdot)[3] < 0.0)
        outcomes.add(raised)
    assert outcomes == {False, True}
