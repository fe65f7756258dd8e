"""Momentum-side structures: dH, the Hamiltonian dynamics residual, the
Newton inversion of the Legendre map, and the Legendre transform."""

import numpy as np
import pytest

from fieldtriple import autodiff
from fieldtriple.autodiff import ScalarField
from fieldtriple.bundles import Jet, Phase, PhaseJet, project_to_phase
from fieldtriple.errors import (
    DomainError,
    InvalidInputError,
    InvalidParameterError,
    NoConvergenceError,
    SingularJacobianError,
)
from fieldtriple.hamiltonian import (
    HamiltonianModel,
    dH,
    ham_dynamics_member,
    ham_phase_residual,
    hamiltonian_from_lagrangian,
    legendre_invert,
)
from fieldtriple.lagrangian import (
    LagrangianModel,
    legendre,
    phase_dynamics_member,
    phase_relation_residual,
)
from fieldtriple.models import (
    harmonic_hamiltonian,
    harmonic_lagrangian,
    nambu_hamiltonian,
    nambu_lagrangian,
    nambu_legendre_closed_form,
    nambu_legendre_inverse_closed_form,
    sample_admissible_string_jet,
    sample_admissible_string_phase,
    sigma_metric,
    _gram,
)

from support import (fd_grad, halfplane_hamiltonian, halfplane_lagrangian,
                     sample_halfplane_q)

HARM_L = harmonic_lagrangian(1)
HARM_H = harmonic_hamiltonian(1)
NAMBU_L = nambu_lagrangian()
NAMBU_H = nambu_hamiltonian()
HALFPLANE_L = halfplane_lagrangian()
HALFPLANE_H = halfplane_hamiltonian()
STANDARD_PHASE = Phase([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def _string_invert(model, ph):
    """Inversion strategy for the string: seed Newton with the closed-form
    inverse, which lands inside its basin at every admissible point."""
    return legendre_invert(model, ph, nambu_legendre_inverse_closed_form(ph))


# ---------------------------------------------------------------------------
# dH


def test_dh_quadratic_hand_case():
    c = dH(HARM_H, Phase([0.0], [[2.0], [-3.0]]))
    assert c.phi.tolist() == [0.0]
    assert c.psi[0].tolist() == [2.0]
    assert c.psi[1].tolist() == [-3.0]


def test_dh_nambu_standard_point():
    c = dH(NAMBU_H, STANDARD_PHASE)
    assert np.max(np.abs(c.phi)) <= 1e-14
    assert np.max(np.abs(c.psi[0] - [1.0, 0.0, 0.0, 0.0])) <= 1e-14
    assert np.max(np.abs(c.psi[1] - [0.0, 1.0, 0.0, 0.0])) <= 1e-14


def test_nambu_h_value_is_positive_root():
    flat = np.concatenate([STANDARD_PHASE.q, *STANDARD_PHASE.p])
    assert NAMBU_H.H.eval(flat) == pytest.approx(1.0, abs=1e-15)


def test_dh_inadmissible_point_is_domain_error():
    parallel = Phase([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        dH(NAMBU_H, parallel)


def test_dh_wrong_dimension_rejected():
    with pytest.raises(InvalidInputError):
        dH(HARM_H, Phase([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]))


def test_hamiltonian_model_shape_checks():
    assert HamiltonianModel(H=HARM_H.H).m == 1
    assert HamiltonianModel(H=NAMBU_H.H).m == 4
    with pytest.raises(AttributeError):
        HARM_H.m = 2
    for arity in (1, 2, 4, 13):
        with pytest.raises(InvalidInputError, match=f"^H has arity {arity}, "
                           "expected a multiple of 3$"):
            HamiltonianModel(H=ScalarField(arity=arity, eval=lambda xs: xs[0]))


@pytest.mark.parametrize("det_gd,defined", [(-5e-9, False), (-2e-8, True)])
def test_string_h_is_defined_only_below_the_dual_margin(det_gd, defined):
    """H = sqrt(-det gd) is refused for det gd in [-1e-8, 0), by its plain
    value and by dH alike."""
    ph = Phase([0.0] * 4, [[1.0, 0.0, 0.0, 0.0], [0.0, np.sqrt(-det_gd), 0.0, 0.0]])
    assert _gram(*ph.p)[3] == pytest.approx(det_gd, rel=1e-15)
    flat = np.concatenate([ph.q, *ph.p])
    if defined:
        assert NAMBU_H.H.eval(flat) == pytest.approx(np.sqrt(-det_gd), rel=1e-15)
        v = nambu_legendre_inverse_closed_form(ph).qdot
        assert np.max(np.abs(dH(NAMBU_H, ph).psi - v)) <= 1e-12
        return
    message = "^dual-side Gram determinant must be below -1e-08$"
    with pytest.raises(DomainError, match=message):
        NAMBU_H.H.eval(flat)
    with pytest.raises(DomainError, match=message):
        dH(NAMBU_H, ph)


def test_dh_matches_finite_differences_on_string():
    rng = np.random.default_rng(41)
    for _ in range(50):
        ph = sample_admissible_string_phase(rng)
        flat = np.concatenate([ph.q, *ph.p])
        g = autodiff.grad(NAMBU_H.H, flat)
        fg = fd_grad(NAMBU_H.H, flat)
        assert np.max(np.abs(g - fg)) <= 1e-6


# ---------------------------------------------------------------------------
# ham_phase_residual and members


def test_ham_member_canonical_and_randomized():
    rng = np.random.default_rng(43)
    for _ in range(100):
        ph = sample_admissible_string_phase(rng)
        w0 = ham_dynamics_member(NAMBU_H, ph)
        w1 = ham_dynamics_member(NAMBU_H, ph, free=rng.standard_normal((3, 4)))
        assert ham_phase_residual(NAMBU_H, w0) <= 1e-12
        assert ham_phase_residual(NAMBU_H, w1) <= 1e-12
        assert project_to_phase(w0) == ph
    # H depends on q here, so the members carry a nonzero source term -dH/dq.
    for _ in range(100):
        ph = Phase(sample_halfplane_q(rng), rng.standard_normal((2, 2)))
        w0 = ham_dynamics_member(HALFPLANE_H, ph)
        w1 = ham_dynamics_member(HALFPLANE_H, ph, free=rng.standard_normal((3, 2)))
        assert ham_phase_residual(HALFPLANE_H, w0) <= 1e-12
        assert ham_phase_residual(HALFPLANE_H, w1) <= 1e-12
        assert project_to_phase(w0) == ph


def test_perturbing_velocity_moves_ham_residual_by_epsilon():
    ph = Phase([0.2], [[1.5], [-0.3]])
    w = ham_dynamics_member(HARM_H, ph)
    eps = 1e-3
    w_bad = PhaseJet(w.base, w.qdot + [[eps], [0.0]], w.pdot)
    assert ham_phase_residual(HARM_H, w_bad) == pytest.approx(eps, rel=1e-12)


def test_dynamics_agree_between_both_descriptions():
    """A member of the velocity-side dynamics is a member of the
    momentum-side dynamics and vice versa (same relation, two generators)."""
    rng = np.random.default_rng(47)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        w = phase_dynamics_member(NAMBU_L, j, free=rng.standard_normal((3, 4)))
        assert ham_phase_residual(NAMBU_H, w) <= 1e-8

        ph = sample_admissible_string_phase(rng)
        w = ham_dynamics_member(NAMBU_H, ph, free=rng.standard_normal((3, 4)))
        assert phase_relation_residual(NAMBU_L, w) <= 1e-8
    for _ in range(100):
        j = Jet(sample_halfplane_q(rng), rng.standard_normal((2, 2)))
        w = phase_dynamics_member(HALFPLANE_L, j, free=rng.standard_normal((3, 2)))
        assert ham_phase_residual(HALFPLANE_H, w) <= 1e-8

        ph = Phase(sample_halfplane_q(rng), rng.standard_normal((2, 2)))
        w = ham_dynamics_member(HALFPLANE_H, ph, free=rng.standard_normal((3, 2)))
        assert phase_relation_residual(HALFPLANE_L, w) <= 1e-8


# ---------------------------------------------------------------------------
# legendre_invert


def test_invert_harmonic_recovers_velocities():
    ph = Phase([0.7], [[2.0], [-3.0]])
    j = legendre_invert(HARM_L, ph, Jet([0.7], [[0.0], [0.0]]))
    assert np.max(np.abs(j.qdot[0] - [2.0])) <= 1e-12
    assert np.max(np.abs(j.qdot[1] - [-3.0])) <= 1e-12


def test_invert_nambu_from_perturbed_guess():
    rng = np.random.default_rng(53)
    count = 0
    while count < 200:
        j = sample_admissible_string_jet(rng)
        ph = nambu_legendre_closed_form(j)
        guess = Jet(j.q, [1.1 * j.qdot[0], 0.9 * j.qdot[1]])
        if not _gram(*guess.qdot)[3] < 0.0:
            continue
        count += 1
        rec = legendre_invert(NAMBU_L, ph, guess)
        assert np.max(np.abs(rec.qdot[0] - j.qdot[0])) <= 1e-9
        assert np.max(np.abs(rec.qdot[1] - j.qdot[1])) <= 1e-9


def test_invert_round_trip_through_forward_map():
    rng = np.random.default_rng(59)
    for _ in range(100):
        j = sample_admissible_string_jet(rng)
        ph = legendre(NAMBU_L, j)
        rec = legendre_invert(NAMBU_L, ph, Jet(j.q, [1.05 * j.qdot[0], j.qdot[1]]))
        ph2 = legendre(NAMBU_L, rec)
        assert np.max(np.abs(ph2.p[0] - ph.p[0])) <= 1e-9
        assert np.max(np.abs(ph2.p[1] - ph.p[1])) <= 1e-9


def test_invert_affine_lagrangian_is_singular():
    affine = LagrangianModel(
        L=ScalarField(arity=3, eval=lambda xs: xs[1]),
        name="affine",
    )
    with pytest.raises(SingularJacobianError):
        legendre_invert(affine, Phase([0.0], [[2.0], [0.0]]),
                        Jet([0.0], [[0.0], [0.0]]))


# Momenta v/sqrt(1 + v^2) fill (-1, 1) only, so p1 = 2 has no preimage.
SATURATING = LagrangianModel(
    L=ScalarField(arity=3, eval=lambda xs: autodiff.sqrt(1.0 + xs[1] * xs[1])
                  + autodiff.sqrt(1.0 + xs[2] * xs[2])),
    name="saturating",
)
ZERO_JET = Jet([0.0], [[0.0], [0.0]])


def _momentum_residual(model, ph, j):
    got = legendre(model, j)
    return float(np.max(np.abs(np.concatenate([got.p[0] - ph.p[0], got.p[1] - ph.p[1]]))))


def test_invert_outside_the_momentum_range_stalls():
    ph = Phase([0.0], [[2.0], [0.0]])
    with pytest.raises(NoConvergenceError) as exc:
        legendre_invert(SATURATING, ph, ZERO_JET)
    e = exc.value
    assert str(e) == "Legendre inversion stalled at residual 1.000e+00"
    assert e.residual == 1.0
    assert e.residual == _momentum_residual(SATURATING, ph, e.last_iterate)
    assert e.last_iterate.q.tolist() == [0.0]
    assert e.last_iterate.qdot[0][0] > 1e8
    assert e.last_iterate.qdot[1].tolist() == [0.0]


def test_invert_stops_at_the_iteration_cap():
    # The preimage of p1 = 0.5 is v1 = 1/sqrt(3); two steps do not reach it.
    ph = Phase([0.0], [[0.5], [0.0]])
    with pytest.raises(NoConvergenceError) as exc:
        legendre_invert(SATURATING, ph, ZERO_JET, max_iter=2)
    e = exc.value
    assert str(e) == ("Legendre inversion did not reach tolerance 1.0e-10 "
                      "in 2 iterations (residual 2.330e-03)")
    assert e.residual == _momentum_residual(SATURATING, ph, e.last_iterate)
    assert abs(e.last_iterate.qdot[0][0] - 1.0 / np.sqrt(3.0)) < 1e-2
    assert e.last_iterate.qdot[1].tolist() == [0.0]


def test_invert_converges_on_the_last_allowed_step():
    # The harmonic momenta are the velocities, so one Newton step is exact.
    ph = Phase([0.3], [[0.7], [-1.1]])
    j = legendre_invert(HARM_L, ph, Jet([0.3], [[0.0], [0.0]]), max_iter=1)
    assert j.q.tolist() == [0.3]
    assert _momentum_residual(HARM_L, ph, j) <= 1e-10


def test_invert_retreats_when_the_full_step_leaves_the_domain():
    """From this guess the undamped Newton step crosses det g >= 0; the line
    search halves it on the Lagrangian's own DomainError and converges."""
    rng = np.random.default_rng(4)
    ph = sample_admissible_string_phase(rng)
    exact = nambu_legendre_inverse_closed_form(ph)
    guess = Jet(ph.q, exact.qdot + 0.3 * rng.standard_normal((2, 4)))
    assert _gram(*guess.qdot)[3] < 0.0
    z = np.concatenate([ph.q, *guess.qdot])
    F = autodiff.grad(NAMBU_L.L, z)[4:] - np.concatenate(ph.p)
    step = np.linalg.solve(autodiff.hessian(NAMBU_L.L, z)[4:, 4:], -F)
    full = z[4:] + step
    assert _gram(*full.reshape(2, 4))[3] >= 0.0

    refused = []

    def eval_L(xs):
        try:
            return NAMBU_L.L.eval(xs)
        except DomainError:
            refused.append([x.value for x in xs])
            raise

    counting = LagrangianModel(L=ScalarField(arity=12, eval=eval_L))
    rec = legendre_invert(counting, ph, guess)
    assert np.array_equal(refused[0], np.concatenate([ph.q, full]))
    assert np.max(np.abs(rec.qdot - exact.qdot)) <= 1e-9


def test_invert_line_search_that_never_regains_admissibility_stalls():
    # Harmonic L that raises DomainError outside a 1e-12 band around the
    # guess's zero velocities.  The full Newton step is (0.7, -1.1), so even
    # its 2^-29 fraction leaves the band: the line search refuses all of its
    # 30 trials, the cap the grid solver's line search has too.
    refused = []

    def eval_L(xs):
        v1, v2 = (getattr(x, "value", x) for x in xs[1:])
        if not abs(v1) + abs(v2) < 1e-12:
            refused.append((float(v1), float(v2)))
            raise DomainError("velocity left the band")
        return HARM_L.L(xs)

    banded = LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="banded")
    guess = Jet([0.3], [[0.0], [0.0]])
    with pytest.raises(NoConvergenceError) as exc:
        legendre_invert(banded, Phase([0.3], [[0.7], [-1.1]]), guess)
    e = exc.value
    assert str(e) == "Legendre inversion stalled at residual 1.100e+00"
    assert e.residual == 1.1
    assert e.last_iterate.q.tolist() == [0.3]
    assert np.array_equal(e.last_iterate.qdot, guess.qdot)
    assert refused == [(0.5 ** k * 0.7, 0.5 ** k * -1.1) for k in range(30)]


def test_invert_from_a_nan_guess_names_the_start():
    """L raises nothing at a nan velocity, so the residual there is nan: the
    loop names the start, without taking a step."""
    with pytest.raises(DomainError,
                       match=r"^residual at the starting point is not finite \(nan\)$"):
        legendre_invert(HARM_L, Phase([0.3], [[0.7], [-1.1]]),
                        Jet([0.3], [[np.nan], [0.0]]))


def test_invert_wrong_dimension_rejected():
    with pytest.raises(InvalidInputError, match="^phase has m=2, model has m=1$"):
        legendre_invert(HARM_L, Phase([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
                        Jet([0.0], [[0.0], [0.0]]))
    ph = Phase([0.7], [[2.0], [-3.0]])
    with pytest.raises(InvalidInputError,
                       match=r"^guess has q shape \(1, 3\), expected \(1,\)$"):
        legendre_invert(HARM_L, ph, Jet(np.zeros((1, 3)), np.zeros((2, 1, 3))))
    guess = Jet([0.7], [[0.0], [0.0]])
    for tol, text in ((float("nan"), "nan"), (-1.0, "-1.0"),
                      (-float("inf"), "-inf")):
        with pytest.raises(InvalidParameterError,
                           match=f"^tolerance must be positive, got {text}$"):
            legendre_invert(HARM_L, ph, guess, tol=tol)
    with pytest.raises(InvalidParameterError,
                       match="^tolerance must be finite, got inf$"):
        legendre_invert(HARM_L, ph, guess, tol=float("inf"))
    with pytest.raises(InvalidParameterError, match="^max_iter must be >= 1, got 0$"):
        legendre_invert(HARM_L, ph, guess, max_iter=0)


def test_invert_rejects_inadmissible_guess():
    ph = STANDARD_PHASE
    zero_guess = Jet(ph.q, [[0.0] * 4, [0.0] * 4])
    with pytest.raises(DomainError):
        legendre_invert(NAMBU_L, ph, zero_guess)


# ---------------------------------------------------------------------------
# hamiltonian_from_lagrangian


def test_transform_of_harmonic_is_half_p_squared():
    model = hamiltonian_from_lagrangian(HARM_L)
    rng = np.random.default_rng(61)
    for _ in range(50):
        q, p1, p2 = rng.standard_normal(3)
        got = model.H.eval(np.array([q, p1, p2]))
        assert got == pytest.approx(0.5 * (p1 * p1 + p2 * p2), abs=1e-12)


def test_transform_adds_the_products_component_by_component():
    """The transformed H sums p[i][a] v[i][a] over components a, and over
    the directions i within each component, bit for bit."""
    g = sigma_metric(3)
    lag = harmonic_lagrangian(3, g)

    def invert(model, ph):
        return Jet(ph.q, np.linalg.solve(g, ph.p.T).T)

    model = hamiltonian_from_lagrangian(lag, invert)
    rng = np.random.default_rng(73)
    for _ in range(50):
        x = rng.standard_normal(9)
        v = invert(lag, Phase(x[:3], x[3:].reshape(2, 3))).qdot
        acc = 0.0
        for a in range(3):
            acc = acc + x[3 + a] * v[0][a] + x[6 + a] * v[1][a]
        assert model.H.eval(x) == acc - lag.L(list(x[:3]) + v.ravel().tolist())


def test_transform_value_does_not_depend_on_call_history():
    here = np.array([1.8, -1.3, -1.6])
    fresh = hamiltonian_from_lagrangian(HARM_L).H.eval(here)
    model = hamiltonian_from_lagrangian(HARM_L)
    model.H.eval(np.array([-0.8, 0.6, -0.9]))
    assert model.H.eval(here) == fresh


def test_transform_of_string_matches_closed_form():
    model = hamiltonian_from_lagrangian(NAMBU_L, invert=_string_invert)
    rng = np.random.default_rng(67)
    for _ in range(200):
        ph = sample_admissible_string_phase(rng)
        flat = np.concatenate([ph.q, *ph.p])
        lt = model.H.eval(flat)
        cf = NAMBU_H.H.eval(flat)
        assert lt > 0.0
        assert abs(lt - cf) <= 1e-9


def test_transform_is_named_after_its_lagrangian():
    assert hamiltonian_from_lagrangian(HARM_L).name == "legendre-transform(harmonic)"
    nameless = LagrangianModel(L=HARM_L.L)
    assert hamiltonian_from_lagrangian(nameless).name == "legendre-transform"


def test_transform_of_affine_lagrangian_fails_at_evaluation():
    affine = LagrangianModel(
        L=ScalarField(arity=3, eval=lambda xs: xs[1]),
        name="affine",
    )
    model = hamiltonian_from_lagrangian(affine)
    with pytest.raises(SingularJacobianError):
        model.H.eval(np.array([0.0, 2.0, 0.0]))


def test_string_h_squares_to_minus_dual_determinant():
    rng = np.random.default_rng(71)
    for _ in range(200):
        ph = sample_admissible_string_phase(rng)
        flat = np.concatenate([ph.q, *ph.p])
        h = NAMBU_H.H.eval(flat)
        det = _gram(*ph.p)[3]
        assert h * h == pytest.approx(-det, rel=1e-12)
