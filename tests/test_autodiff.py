"""Forward-mode Taylor differentiation, against hand values and the
independent central-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldtriple.autodiff import (
    ScalarField,
    Taylor,
    grad,
    hessian,
    seed,
    sqrt,
)
from fieldtriple.errors import (
    DomainError,
    InvalidInputError,
    InvalidParameterError,
)
from fieldtriple.grid import Grid, GridField, _cell_hessians, _cell_jets
from fieldtriple.hamiltonian import hamiltonian_from_lagrangian
from fieldtriple.models import (
    get_lagrangian,
    harmonic_lagrangian,
    nambu_lagrangian,
    sample_admissible_string_jet,
)

from support import fd_grad

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def field(arity, fn):
    return ScalarField(arity=arity, eval=fn)


half_norm2 = field(2, lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]))
constant = field(3, lambda xs: 7.5 + 0.0 * xs[0])
prod_square = field(2, lambda xs: xs[0] * xs[1] * xs[1])


# ---------------------------------------------------------------------------
# Taylor arithmetic


def test_dual_product_rule():
    a = Taylor(2.0, 1.0)
    b = Taylor(3.0, 0.0)
    c = a * b
    assert c.value == 6.0 and c.grad == 3.0
    assert c.hess is None


def test_dual_quotient_and_chain():
    x = Taylor(4.0, np.array([1.0]), 0.0)
    y = sqrt(x)  # d/dx sqrt(x) = 1/(2 sqrt(x)) = 0.25, d2 = -1/32
    assert y.value == 2.0
    assert y.grad[0] == pytest.approx(0.25, rel=1e-15)
    assert y.hess[0, 0] == pytest.approx(-1.0 / 32.0, rel=1e-15)
    z = 1.0 / x  # d/dx x^-1 = -1/16, d2 = 2/64
    assert z.grad[0] == pytest.approx(-1.0 / 16.0, rel=1e-15)
    assert z.hess[0, 0] == pytest.approx(1.0 / 32.0, rel=1e-15)


def test_hyperdual_mixed_second_derivative():
    # f(x, y) = x^2 y: f_x = 2xy, f_y = x^2, f_xx = 2y, f_xy = 2x, f_yy = 0
    x, y = seed([3.0, 5.0], second=True)
    f = x * x * y
    assert f.value == 45.0
    assert f.grad.tolist() == pytest.approx([30.0, 9.0])
    assert f.hess.tolist() == [[10.0, 6.0], [6.0, 0.0]]


def test_sqrt_of_negative_dual_is_domain_error():
    with pytest.raises(DomainError):
        sqrt(Taylor(-1.0, 1.0))
    with pytest.raises(DomainError):
        sqrt(Taylor(-0.5, np.array([1.0]), 0.0))


def test_sqrt_of_batch_names_the_first_negative_entry():
    x = Taylor(np.array([4.0, 1.0, -2.0, -3.0]), np.ones((1, 4)), 0.0)
    with pytest.raises(DomainError) as exc:
        sqrt(x)
    assert exc.value.component == 2
    assert str(exc.value) == "sqrt left the admissible domain at component 2"


def test_reflected_subtraction_hand_values():
    # f(x, y) = 1 - x y: f_x = -y, f_y = -x, f_xy = -1
    x, y = seed([3.0, 5.0], second=True)
    f = 1.0 - x * y
    assert f.value == -14.0
    assert f.grad.tolist() == [-5.0, -3.0]
    assert f.hess.tolist() == [[0.0, -1.0], [-1.0, 0.0]]


@given(finite, finite)
def test_dual_lifting_consistency_bitwise(a, b):
    # evaluating on Taylor numbers, first or second order, reproduces the
    # plain value bit for bit
    plain = prod_square([a, b])
    for second in (False, True):
        lifted = prod_square(seed([a, b], second))
        assert lifted.value == plain or (math.isnan(plain)
                                         and math.isnan(lifted.value))


# ---------------------------------------------------------------------------
# grad


def test_grad_of_quadratic_is_identity():
    g = grad(half_norm2, [2.0, -3.0])
    assert g.tolist() == [2.0, -3.0]


def test_grad_of_constant_is_zero():
    assert grad(constant, [0.3, -0.7, 2.0]).tolist() == [0.0, 0.0, 0.0]


def test_grad_matches_fd_on_nambu_at_standard_point():
    model = nambu_lagrangian()
    x = [0.0] * 4 + [1.0, 0.0, 0.0, 0.0] + [0.0, 1.0, 0.0, 0.0]
    g = grad(model.L, x)
    f = fd_grad(model.L, x)
    assert np.max(np.abs(g - f)) <= 1e-6 * max(1.0, float(np.max(np.abs(g))))


def test_grad_wrong_arity_raises():
    with pytest.raises(InvalidInputError):
        grad(half_norm2, [1.0, 2.0, 3.0])


def test_field_that_drops_taylor_numbers_is_invalid_input():
    with pytest.raises(InvalidInputError,
                       match="^field did not propagate Taylor numbers$"):
        grad(field(1, lambda xs: 1.0), [0.5])


# ---------------------------------------------------------------------------
# fd_grad


def test_fd_matches_grad_on_quadratic():
    x = [0.7, -1.3]
    assert np.max(np.abs(fd_grad(half_norm2, x) - grad(half_norm2, x))) <= 1e-9


def test_fd_matches_grad_on_rational_test_function():
    x = [1.7, -0.4]
    g = grad(prod_square, x)
    f = fd_grad(prod_square, x)
    assert np.max(np.abs(g - f)) <= 1e-6 * max(1.0, float(np.max(np.abs(g))))


def test_fd_zero_step_raises():
    with pytest.raises(InvalidParameterError):
        fd_grad(half_norm2, [1.0, 2.0], h=0.0)


# ---------------------------------------------------------------------------
# hessian


def test_hessian_mixed_hand_cases():
    xy = field(2, lambda xs: xs[0] * xs[1])
    assert hessian(xy, [5.0, -2.0])[0, 1] == pytest.approx(1.0)
    sq = field(1, lambda xs: 0.5 * xs[0] * xs[0])
    assert hessian(sq, [3.0])[0, 0] == pytest.approx(1.0)


def test_hessian_mixed_symmetry():
    rng = np.random.default_rng(2)
    model = nambu_lagrangian()
    for _ in range(10):
        j = sample_admissible_string_jet(rng)
        x = np.concatenate([j.q, *j.qdot])
        i, k = rng.integers(0, 12, size=2)
        a = hessian(model.L, x)[i, k]
        b = hessian(model.L, x)[k, i]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_hessian_mixed_matches_fd_on_nambu():
    rng = np.random.default_rng(8)
    model = nambu_lagrangian()
    j = sample_admissible_string_jet(rng)
    x = np.concatenate([j.q, *j.qdot])

    def fd_column(k, h=1e-4):
        xp, xm = x.copy(), x.copy()
        hk = h * max(1.0, abs(x[k]))
        xp[k] += hk
        xm[k] -= hk
        return (fd_grad(model.L, xp, h=h) - fd_grad(model.L, xm, h=h)) / (2 * hk)

    exact = hessian(model.L, x)
    approx = np.stack([fd_column(k) for k in range(12)], axis=1)
    assert np.all(np.abs(exact - approx) <= 1e-5 * np.maximum(1.0, np.abs(exact)))
    for i, k in ((4, 5), (4, 8), (6, 11), (5, 5)):
        assert hessian(model.L, x)[i, k] == exact[i, k]


def test_full_hessian_is_symmetric_matrix():
    model = nambu_lagrangian()
    rng = np.random.default_rng(4)
    j = sample_admissible_string_jet(rng)
    x = np.concatenate([j.q, *j.qdot])
    H = hessian(model.L, x)
    assert H.shape == (12, 12)
    assert np.max(np.abs(H - H.T)) <= 1e-12


def test_cell_hessians_match_pointwise_hessian():
    model = nambu_lagrangian()
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array(
        [x, y, 0.1 * x * y, 0.1 * np.sin(np.pi * x) * np.sin(np.pi * y)]), 4)
    H = _cell_hessians(model, g, f.values)
    jets = np.concatenate(_cell_jets(g, f.values), axis=1)
    assert H.shape == (len(jets), 12, 12)
    for Hc, z in zip(H, jets):
        ref = hessian(model.L, z)
        assert np.max(np.abs(Hc - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hessian_of_transformed_hamiltonian_is_refused():
    ham = hamiltonian_from_lagrangian(harmonic_lagrangian(1))
    with pytest.raises(InvalidInputError):
        hessian(ham.H, [0.0, 0.5, -1.0])


# ---------------------------------------------------------------------------
# catalog-wide oracle agreement (the same check the acceptance gate runs
# at 100 points per model)


@pytest.mark.parametrize("name,m", [("harmonic", 1), ("harmonic", 3),
                                    ("sigma", 2), ("nambu", 4)])
def test_grad_vs_fd_on_catalog_models(name, m):
    model = get_lagrangian(name, m)
    rng = np.random.default_rng(17)
    for _ in range(25):
        if name == "nambu":
            j = sample_admissible_string_jet(rng)
            x = np.concatenate([j.q, *j.qdot])
        else:
            x = rng.standard_normal(3 * m)
        g = grad(model.L, x)
        f = fd_grad(model.L, x)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - f)) <= 1e-6 * scale


def test_scalar_field_rejects_bad_arity():
    with pytest.raises(InvalidInputError):
        ScalarField(arity=0, eval=lambda xs: 0.0)
    with pytest.raises(InvalidInputError):
        half_norm2([1.0])
