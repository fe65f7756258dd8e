"""Grid discretisation: masks, the discrete action and its variation,
per-cell momenta, conservation form, continuum consistency, and the
Dirichlet Newton solver."""

import re
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from fieldtriple import autodiff
from fieldtriple import grid as grid_module
from fieldtriple.autodiff import ScalarField
from fieldtriple.bundles import Jet
from fieldtriple.errors import (
    DomainError,
    GridDomainError,
    InvalidInputError,
    InvalidParameterError,
    SingularJacobianError,
)
from fieldtriple.grid import (
    Grid,
    GridField,
    GridMomentum,
    _cell_hessians,
    _cell_slots,
    _dissection_order,
    _element_blocks,
    _free_dofs,
    _newton_layout,
    _newton_matrix,
    _solve_jacobian,
    boundary_momentum,
    discrete_action,
    discrete_action_gradient,
    discrete_el_residual,
    momentum_divergence,
    solve_dirichlet,
)
from fieldtriple.lagrangian import LagrangianModel, SecondJet, el_residual_pointwise
from fieldtriple.models import get_lagrangian

from support import cell_order_newton_matrix, coo_newton_matrix, symmetry_generators

HARM1 = get_lagrangian("harmonic")
NAMBU = get_lagrangian("nambu")


def minimal_surface_model() -> LagrangianModel:
    """Area of the graph of a scalar field: L = sqrt(1 + |grad u|^2)."""

    def eval_L(xs):
        return autodiff.sqrt(1.0 + xs[1] * xs[1] + xs[2] * xs[2])

    return LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="graph-area")


def boundary_rows(field: GridField) -> np.ndarray:
    b = field.grid.boundary_nodes
    return field.values[b[:, 0], b[:, 1]]


def near_flat_sheet(eps: float):
    return lambda x, y: (x, y, eps * x * y, 0.0)


# ---------------------------------------------------------------------------
# Grid and GridField


def test_square_grid_layout():
    g = Grid.square(5, 9)
    assert (g.nx, g.ny) == (5, 9)
    assert g.hx == pytest.approx(0.25) and g.hy == pytest.approx(0.125)
    assert np.sum(g.mask == 2) == 3 * 7
    assert np.sum(g.mask == 1) == 5 * 9 - 3 * 7
    assert len(g.active_cells) == 4 * 8
    assert len(g.interior_nodes) + len(g.boundary_nodes) == 5 * 9


def test_grid_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        Grid.square(2, 5)
    with pytest.raises(InvalidParameterError,
                       match="^grid needs nx, ny >= 3, got 9 x 2$"):
        Grid.disc_mask(9, 2)
    with pytest.raises(InvalidParameterError,
                       match="^grid needs nx, ny >= 3, got 2 x 3$"):
        Grid(hx=0.5, hy=0.5, mask=np.ones((2, 3)))
    with pytest.raises(InvalidParameterError, match=r"^grid spacings must be "
                       r"positive, got hx=0\.5, hy=nan$"):
        Grid(hx=0.5, hy=float("nan"), mask=np.ones((3, 3)))
    with pytest.raises(InvalidInputError):
        Grid(hx=0.5, hy=0.5, mask=np.full((3, 3), 7))
    with pytest.raises(InvalidInputError):
        Grid(hx=0.5, hy=0.5, mask=np.zeros((3, 3)))  # no boundary


def test_grid_takes_its_shape_from_a_2d_mask():
    g = Grid(hx=0.5, hy=1 / 3, mask=np.ones((3, 4)))
    assert (g.nx, g.ny) == (3, 4)
    assert type(g.nx) is int and type(g.ny) is int
    with pytest.raises(AttributeError):
        g.nx = 5
    for shape in ((9,), (3, 4, 1), ()):
        message = f"^mask must be 2-D, got shape {re.escape(str(shape))}$"
        with pytest.raises(InvalidInputError, match=message):
            Grid(hx=0.5, hy=0.5, mask=np.ones(shape))


def test_grid_rejects_interior_node_with_outside_neighbor():
    mask = np.full((4, 4), 1, dtype=np.int8)
    mask[1, 1] = 2
    mask[0, 1] = 0
    with pytest.raises(InvalidInputError):
        Grid(hx=0.5, hy=0.5, mask=mask)


def test_disc_mask_counts():
    g = Grid.disc_mask(17, 17)
    assert int(np.sum(g.mask == 2)) == 153
    assert int(np.sum(g.mask == 1)) == 44
    assert len(g.active_cells) == 164


def test_grid_field_validation():
    g = Grid.square(4, 4)
    with pytest.raises(InvalidInputError):
        GridField(grid=g, values=np.zeros((4, 3, 1)))
    with pytest.raises(InvalidInputError,
                       match="^field needs at least one component$"):
        GridField(grid=g, values=np.zeros((4, 4, 0)))
    bad = np.zeros((4, 4, 1))
    bad[1, 1, 0] = np.nan
    with pytest.raises(InvalidInputError):
        GridField(grid=g, values=bad)


def test_grid_field_from_function():
    """``fn`` gets the coordinates of every non-outside node in one call,
    and a component given as a number is taken at every node."""
    g = Grid.square(5, 5)
    f = GridField.from_function(g, lambda x, y: np.array([x + 2 * y]), m=1)
    assert f.values[4, 0, 0] == pytest.approx(1.0)
    assert f.values[0, 4, 0] == pytest.approx(2.0)
    assert f.m == 1
    g = Grid.disc_mask(9, 9)
    calls = []

    def fn(x, y):
        calls.append((x, y))
        return (x + 2 * y, 0.5)

    f = GridField.from_function(g, fn, m=2)
    X, Y = g.node_coords()
    inside = g.mask > 0
    (x, y), = calls
    assert np.array_equal(x, X[inside]) and np.array_equal(y, Y[inside])
    assert np.array_equal(f.values[inside, 0], X[inside] + 2 * Y[inside])
    assert np.all(f.values[inside, 1] == 0.5)
    assert np.all(np.isnan(f.values[~inside]))


def test_from_function_rejects_a_value_of_the_wrong_shape():
    g = Grid.square(4, 4)
    with pytest.raises(InvalidInputError,
                       match=r"^function returned 2 components, expected 1$"):
        GridField.from_function(g, lambda x, y: np.array([x, y]), m=1)
    with pytest.raises(InvalidInputError,
                       match=r"^function returned 1 components, expected 2$"):
        GridField.from_function(g, lambda x, y: (x + y,), m=2)
    with pytest.raises(InvalidInputError,
                       match=r"^function returned 1\.5, expected 1 components$"):
        GridField.from_function(g, lambda x, y: 1.5, m=1)
    with pytest.raises(InvalidInputError, match=r"^component 1 has shape "
                       r"\(15,\), expected \(\) or \(16,\)$"):
        GridField.from_function(g, lambda x, y: (x, y[1:]), m=2)
    with pytest.raises(InvalidInputError, match=r"^component 0 has shape "
                       r"\(2, 16\), expected \(\) or \(16,\)$"):
        GridField.from_function(g, lambda x, y: (np.stack([x, y]),), m=1)


def test_grid_momentum_validation():
    g = Grid.disc_mask(9, 9)
    mom, _ = boundary_momentum(HARM1, GridField.from_function(
        g, lambda x, y: np.array([x]), m=1))
    with pytest.raises(InvalidInputError,
                       match=r"^p1 has shape \(8, 8\), expected \(8, 8\) \+ \(m,\)$"):
        GridMomentum(g, mom.p1[..., 0], mom.p2)
    with pytest.raises(InvalidInputError,
                       match="^p1 and p2 must have the same shape$"):
        GridMomentum(g, mom.p1, np.concatenate([mom.p2, mom.p2], axis=2))
    bad = mom.p2.copy()
    i, j = g.active_cells[0]
    bad[i, j, 0] = np.inf
    with pytest.raises(InvalidInputError,
                       match="^non-finite momentum on an active cell$"):
        GridMomentum(g, mom.p1, bad)
    outside = mom.p2.copy()
    outside[0, 0, 0] = np.inf  # a corner cell of the disc is not active
    assert GridMomentum(g, mom.p1, outside).m == 1


def test_field_and_model_must_agree():
    f = GridField.from_function(Grid.square(4, 4), lambda x, y: np.array([x]), m=1)
    with pytest.raises(InvalidInputError, match="^expected a GridField$"):
        discrete_action(HARM1, f.values)
    with pytest.raises(InvalidInputError, match="^field has m=1, model has m=4$"):
        discrete_action_gradient(NAMBU, f)


def test_boundary_pairing_rejects_a_variation_of_the_wrong_shape():
    f = GridField.from_function(Grid.square(5, 5), lambda x, y: np.array([x]), m=1)
    _, pairing = boundary_momentum(HARM1, f)
    with pytest.raises(InvalidInputError, match=r"^variation has shape "
                       r"\(5, 5\), expected \(5, 5, 1\)$"):
        pairing(np.zeros((5, 5)))


def test_from_function_outside_nodes_are_nan():
    g = Grid.disc_mask(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([1.0]), m=1)
    assert np.all(np.isnan(f.values[g.mask == 0]))
    assert np.all(np.isfinite(f.values[g.mask > 0]))


# ---------------------------------------------------------------------------
# action, gradient, residual


def test_action_of_linear_ramp_is_exact():
    g = Grid.square(33, 33)
    f = GridField.from_function(g, lambda x, y: np.array([x]), m=1)
    assert discrete_action(HARM1, f) == 0.5


def test_saddle_is_discretely_stationary():
    g = Grid.square(33, 33)
    f = GridField.from_function(g, lambda x, y: np.array([x * x - y * y]), m=1)
    r = discrete_el_residual(HARM1, f)
    assert np.max(np.abs(r)) == 0.0
    assert discrete_action(HARM1, f) == 1.3330078125


@pytest.mark.parametrize("name,m,fn", [
    ("harmonic", 1, lambda x, y: np.array([np.sin(2 * x) + y * y])),
    ("sigma", 2, lambda x, y: np.array([x * y, np.cos(x + y)])),
    ("nambu", 4, near_flat_sheet(0.3)),
])
def test_gradient_matches_finite_differences(name, m, fn):
    model = get_lagrangian(name, m)
    g = Grid.square(5, 5)
    f = GridField.from_function(g, fn, m)
    grad = discrete_action_gradient(model, f)
    scale = max(1.0, float(np.nanmax(np.abs(grad))))
    h = 1e-6
    for i in range(g.nx):
        for j in range(g.ny):
            if g.mask[i, j] == 0:
                continue
            for k in range(m):
                vp = f.values.copy()
                vm = f.values.copy()
                vp[i, j, k] += h
                vm[i, j, k] -= h
                fd = (discrete_action(model, GridField(grid=g, values=vp))
                      - discrete_action(model, GridField(grid=g, values=vm))) / (2 * h)
                assert abs(grad[i, j, k] - fd) / scale <= 1e-6


@pytest.mark.parametrize("name,m,fn", [
    ("nambu", 4, lambda x, y: np.array(
        [x, y, 0.1 * x * y, 0.1 * np.sin(np.pi * x) * np.sin(np.pi * y)])),
    ("sigma", 2, lambda x, y: np.array([x * y, np.cos(x + y)])),
])
def test_newton_jacobian_matches_residual_differences(name, m, fn):
    model = get_lagrangian(name, m)
    g = Grid.square(9, 9)
    f = GridField.from_function(g, fn, m)
    inodes = g.interior_nodes
    node_flat = inodes[:, 0] * g.ny + inodes[:, 1]
    dofs = (node_flat[:, None] * m + np.arange(m)).ravel()
    J = _newton_matrix(g, _newton_layout(g, dofs, m),
                       _element_blocks(model, g, f.values))
    delta = np.random.default_rng(5).standard_normal((len(inodes), m))

    def residual(t):
        u = f.values.copy()
        u[inodes[:, 0], inodes[:, 1]] += t * delta
        return discrete_el_residual(model, GridField(grid=g, values=u))

    h = 1e-6
    fd = (residual(h) - residual(-h)) / (2 * h)
    jd = (J @ delta.ravel()).reshape(fd.shape)
    assert np.max(np.abs(jd - fd)) <= 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("name,m", [("harmonic", 1), ("nambu", 4)])
def test_gradient_matches_add_at_accumulation_bitwise(name, m):
    """Each corner pass touches a node through at most one cell, so plain
    fancy-index addition accumulates exactly what ``np.add.at`` does."""
    model = get_lagrangian(name, m)
    g = Grid.disc_mask(19, 23)
    f = GridField.from_function(g, near_flat_sheet(0.1) if m == 4 else
                                lambda x, y: np.array([np.sin(3 * x) * y]), m)
    ref = np.zeros((g.nx, g.ny, m))
    G = grid_module._cell_gradients(model, g, f.values)
    cells = g.active_cells
    for di, dj, sx, sy in grid_module._CORNERS:
        contrib = g.hx * g.hy * (0.25 * G[:m].T + (sx / (2.0 * g.hx)) * G[m:2 * m].T
                                 + (sy / (2.0 * g.hy)) * G[2 * m:].T)
        np.add.at(ref, (cells[:, 0] + di, cells[:, 1] + dj), contrib)
    grad = discrete_action_gradient(model, f)
    assert np.array_equal(grad.view(np.int64), ref.view(np.int64))


def test_el_residual_is_interior_gradient_block():
    g = Grid.square(7, 7)
    f = GridField.from_function(
        g, lambda x, y: np.array([np.sin(x) * y + x * x]), m=1)
    grad = discrete_action_gradient(HARM1, f)
    res = discrete_el_residual(HARM1, f)
    assert np.array_equal(res, grad[g.mask == 2])


@pytest.mark.parametrize("grid", [Grid.square(9, 9), Grid.disc_mask(17, 17)])
def test_first_variation_splits_into_interior_and_boundary(grid):
    """Summing the interior residual against a variation and the boundary
    pairing against the same variation reproduces the full directional
    derivative of the action: the discrete divergence theorem."""
    f = GridField.from_function(
        grid, lambda x, y: np.array([np.exp(x) * np.cos(y) + x * y]), m=1)
    grad = discrete_action_gradient(HARM1, f)
    _, pairing = boundary_momentum(HARM1, f)
    rng = np.random.default_rng(101)
    for _ in range(5):
        delta = rng.standard_normal((grid.nx, grid.ny, 1))
        delta[grid.mask == 0] = 0.0
        full = float(np.sum(grad[grid.mask > 0] * delta[grid.mask > 0]))
        interior = float(np.sum(grad[grid.mask == 2] * delta[grid.mask == 2]))
        assert abs(full - interior - pairing(delta)) <= 1e-12


def test_momenta_of_linear_ramp():
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([x]), m=1)
    mom, _ = boundary_momentum(HARM1, f)
    cells = g.active_cells
    assert np.max(np.abs(mom.p1[cells[:, 0], cells[:, 1]] - 1.0)) == 0.0
    assert np.max(np.abs(mom.p2[cells[:, 0], cells[:, 1]])) == 0.0


def test_conservation_form_relates_divergence_and_residual():
    """With no explicit q dependence the residual is -hx*hy times the
    momentum divergence, bit for bit, at every interior node whose four
    cells are active: all of them on a square."""
    for name, m, grid, fn in [
        ("harmonic", 1, Grid.square(11, 11),
         lambda x, y: np.array([x ** 3 * y + np.sin(2 * y)])),
        ("harmonic", 1, Grid.square(17, 23),
         lambda x, y: np.array([np.exp(x) * np.cos(3 * y)])),
        ("sigma", 3, Grid.square(13, 13),
         lambda x, y: np.array([x * y, np.cos(x + y), x - y ** 2])),
        ("harmonic", 2, Grid.disc_mask(19, 23),
         lambda x, y: np.array([x * x - y, np.sinh(x * y)])),
    ]:
        model = get_lagrangian(name, m)
        f = GridField.from_function(grid, fn, m)
        res = discrete_el_residual(model, f)
        mom, _ = boundary_momentum(model, f)
        div, nodes = momentum_divergence(mom)
        area = grid.hx * grid.hy
        lookup = {tuple(n): r for n, r in zip(grid.interior_nodes, res)}
        k = len(grid.interior_nodes)
        assert len(nodes) == k if grid.mask.all() else 0 < len(nodes) < k
        assert np.array_equal(div, np.array([-lookup[tuple(n)] / area for n in nodes]))


@pytest.mark.parametrize("name,m", [("harmonic", 1), ("harmonic", 3),
                                    ("sigma", 2), ("sigma", 3), ("nambu", 4)])
@pytest.mark.parametrize("domain", ["square", "disc"])
def test_target_isometries_leave_the_discrete_action_invariant(name, m, domain):
    """Discrete Noether: every affine isometry of the target is an exact
    symmetry of the discrete action, so <dS, delta> vanishes to rounding
    for its generator delta on any admissible field, while a generator that
    is no symmetry (delta = q_1^2 e_m) pairs to a non-rounding value.  The
    bound is relative to sum |dS_i delta_i|; the symmetries measured at most
    1.9e-16 of it on 17x17 fields (seeds 0-8) and the control at least
    3.2e-3."""
    g = Grid.square(17, 17) if domain == "square" else Grid.disc_mask(17, 17)
    rng = np.random.default_rng(5)
    if name == "nambu":
        x, y = g.node_coords()
        sheet = np.stack([x, y, np.zeros_like(x), np.zeros_like(x)], axis=-1)
        values = sheet + 0.1 * g.hx * rng.standard_normal(sheet.shape)
    else:
        values = rng.standard_normal((g.nx, g.ny, m))
    grad = discrete_action_gradient(get_lagrangian(name, m),
                                    GridField(grid=g, values=values))

    def relative_pairing(delta):
        return abs(np.sum(grad * delta)) / np.sum(np.abs(grad * delta))

    generators = symmetry_generators(name, m)
    assert len(generators) == m + m * (m - 1) // 2
    for omega, b in generators:
        assert relative_pairing(values @ omega.T + b) <= 1e-15
    control = np.zeros_like(values)
    control[..., -1] = values[..., 0] ** 2
    assert relative_pairing(control) >= 1e-3


# ---------------------------------------------------------------------------
# continuum consistency


def test_cubic_residual_equals_pointwise_operator_times_area():
    """For a cubic the forward-difference stencil reproduces the second
    derivatives exactly, so residual / cell area equals the pointwise
    field-equation residual at every interior node."""
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([x ** 3]), m=1)
    res = discrete_el_residual(HARM1, f)
    area = g.hx * g.hy
    X, _ = g.node_coords()
    for (i, j), r in zip(g.interior_nodes, res):
        x = X[i, j]
        s = SecondJet(Jet([x ** 3], [[3 * x * x], [0.0]]),
                      [[[6 * x], [0.0]], [[0.0], [0.0]]])
        want = el_residual_pointwise(HARM1, s) * area
        assert np.max(np.abs(r - want)) <= 1e-14


def test_residual_converges_to_pointwise_operator():
    def exact(x, y):
        return np.array([np.exp(x) * np.cos(2 * y)])

    errs = []
    for n in (9, 17, 33):
        g = Grid.square(n, n)
        f = GridField.from_function(g, exact, m=1)
        res = discrete_el_residual(HARM1, f)
        area = g.hx * g.hy
        X, Y = g.node_coords()
        worst = 0.0
        for (i, j), r in zip(g.interior_nodes, res):
            x, y = X[i, j], Y[i, j]
            u = np.exp(x) * np.cos(2 * y)
            uy = -2 * np.exp(x) * np.sin(2 * y)
            s = SecondJet(Jet([u], [[u], [uy]]), [[[u], [uy]], [[uy], [-4 * u]]])
            want = el_residual_pointwise(HARM1, s)
            worst = max(worst, float(np.max(np.abs(r / area - want))))
        errs.append(worst)
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8


# ---------------------------------------------------------------------------
# solve_dirichlet


def _solve_with_bc(model, grid, fn, m, interior=None, **kw):
    initial = GridField.from_function(grid, fn, m)
    if interior is not None:
        values = GridField.from_function(grid, interior, m).values
        values[grid.mask == 1] = boundary_rows(initial)
        initial = GridField(grid=grid, values=values)
    return solve_dirichlet(model, initial, **kw)


def test_harmonic_saddle_solved_exactly():
    g = Grid.square(33, 33)

    def exact(x, y):
        return np.array([x * x - y * y])

    sol, rep = _solve_with_bc(HARM1, g, exact,
                              m=1, interior=lambda x, y: np.array([0.0]))
    assert rep.converged
    assert rep.iterations <= 2
    f_exact = GridField.from_function(g, exact, m=1)
    assert np.max(np.abs(sol.values - f_exact.values)) <= 1e-9
    assert rep.action == pytest.approx(1.3330078125, abs=1e-12)


def test_harmonic_solution_converges_at_second_order():
    def exact(x, y):
        return np.array([np.sin(x) * np.sinh(y)])

    frozen = {17: 2.770342e-05, 33: 6.892371e-06, 65: 1.722204e-06}
    errs = []
    for n in (17, 33, 65):
        g = Grid.square(n, n)
        sol, rep = _solve_with_bc(HARM1, g, exact,
                                  m=1, interior=lambda x, y: np.array([0.0]))
        assert rep.converged
        err = float(np.max(np.abs(sol.values
                                  - GridField.from_function(g, exact, 1).values)))
        assert err == pytest.approx(frozen[n], rel=0.01)
        errs.append(err)
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8


def test_minimal_surface_newton_contracts():
    model = minimal_surface_model()
    g = Grid.square(17, 17)
    sol, rep = _solve_with_bc(
        model, g, lambda x, y: np.array([0.5 * (x * x - y * y)]), m=1)
    assert rep.converged
    assert 1 <= rep.iterations <= 6
    assert rep.final_residual <= 1e-12
    assert rep.action == pytest.approx(1.280215867759, abs=1e-9)


def test_string_near_flat_boundary_converges():
    g = Grid.square(17, 17)
    sol, rep = _solve_with_bc(NAMBU, g, near_flat_sheet(1e-3), m=4,
                              tol=1e-10, max_iter=50)
    assert rep.converged
    assert rep.final_residual <= 1e-10
    mom, _ = boundary_momentum(NAMBU, sol)
    div, _ = momentum_divergence(mom)
    assert np.max(np.abs(div)) <= 1e-8


def test_string_strongly_curved_boundary_stalls_gracefully():
    """At large boundary amplitude the string system is degenerate along
    reparametrisations and the Newton iteration stalls; the contract is a
    clean non-converged report with the best iterate, not an exception."""
    g = Grid.square(9, 9)
    sol, rep = _solve_with_bc(NAMBU, g, near_flat_sheet(0.1), m=4,
                              tol=1e-10, max_iter=8)
    initial = GridField.from_function(g, near_flat_sheet(0.1), 4)
    r0 = float(np.max(np.abs(discrete_el_residual(NAMBU, initial))))
    assert not rep.converged
    assert rep.message != ""
    assert rep.final_residual <= r0
    assert rep.final_residual > 1e-10
    assert np.all(np.isfinite(sol.values))


def test_newton_releases_each_factorization(monkeypatch):
    """Each Newton step's LU factors are gone before the next factorization,
    so peak memory holds one factorization, not the previous one as well,
    and no element-block array is alive while splu runs.  Within a definite
    step, each decoupled block's factors are gone before the next block is
    factored."""
    factors = []
    blocks = []
    splu = scipy.sparse.linalg.splu
    element_blocks = grid_module._element_blocks

    class Factors:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def tracked_splu(*args, **kwargs):
        assert all(ref() is None for ref in factors)
        assert all(ref() is None for ref in blocks)
        lu = Factors(splu(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    def tracked_blocks(*args):
        out = element_blocks(*args)
        blocks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scipy.sparse.linalg, "splu", tracked_splu)
    monkeypatch.setattr(grid_module, "_element_blocks", tracked_blocks)
    g = Grid.square(9, 9)
    _, rep = _solve_with_bc(NAMBU, g, near_flat_sheet(0.1), m=4,
                            tol=1e-10, max_iter=4)
    assert rep.iterations >= 2 and len(factors) >= 2
    assert len(blocks) >= 2
    assert all(ref() is None for ref in factors)
    string_factors = len(factors)
    _, rep = _solve_with_bc(HARM1, Grid.square(17, 17),
                            lambda x, y: np.array([x * x * y]), m=1)
    assert rep.converged and rep.iterations == 1
    assert len(factors) == string_factors + 2  # one per checkerboard
    assert all(ref() is None for ref in factors)


def test_solve_builds_no_coo_matrix_and_frees_the_blocks_before_splu(monkeypatch):
    """A solve sums its Newton matrices without a triplet list: no COO
    matrix is built, and the element-block array is garbage when the first
    splu runs, on a one-step harmonic solve and on a multi-step string
    solve."""
    blocks = []
    coo_builds = []
    first_splu = []
    element_blocks = grid_module._element_blocks
    splu = scipy.sparse.linalg.splu

    def tracked_blocks(*args):
        out = element_blocks(*args)
        blocks.append(weakref.ref(out))
        return out

    def tracked_splu(*args, **kwargs):
        if len(first_splu) < len(blocks):
            first_splu.append(all(ref() is None for ref in blocks))
        return splu(*args, **kwargs)

    for cls in (scipy.sparse.coo_matrix, scipy.sparse.coo_array):
        init = cls.__init__

        def tracked_init(self, *args, _init=init, **kwargs):
            coo_builds.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", tracked_init)
    monkeypatch.setattr(grid_module, "_element_blocks", tracked_blocks)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", tracked_splu)
    _, rep = _solve_with_bc(HARM1, Grid.square(17, 17),
                            lambda x, y: np.array([x * x * y]), m=1)
    assert rep.converged and rep.iterations == 1
    assert first_splu == [True]
    _, rep = _solve_with_bc(NAMBU, Grid.square(9, 9), near_flat_sheet(0.1),
                            m=4, tol=1e-10, max_iter=4)
    assert rep.iterations == 4 and len(blocks) == 5
    assert first_splu == [True] * 5
    assert coo_builds == []


def test_reused_order_factors_with_the_assembled_matrix_freed(monkeypatch):
    """A string solve's steps after its first fallback factor the permuted
    copy of the Newton matrix alone: the assembled matrix is garbage when
    that splu runs."""
    matrices = []
    reused = []
    newton_matrix = grid_module._newton_matrix
    splu = scipy.sparse.linalg.splu

    def tracked_matrix(*args):
        out = newton_matrix(*args)
        matrices.append(weakref.ref(out))
        return out

    def tracked_splu(A, permc_spec=None, **kwargs):
        if permc_spec == "NATURAL" and not kwargs:
            reused.append(all(ref() is None for ref in matrices))
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(grid_module, "_newton_matrix", tracked_matrix)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", tracked_splu)
    _, rep = _solve_with_bc(NAMBU, Grid.square(9, 9), near_flat_sheet(0.1),
                            m=4, tol=1e-10, max_iter=4)
    assert rep.iterations == 4 and len(matrices) == 4
    assert reused == [True] * 3


# ---------------------------------------------------------------------------
# Newton factorization: nested-dissection order and the definiteness trial


def _check_dissection(rank, i0, i1, j0, j1):
    """Ranks in the box [i0, i1) x [j0, j1) of a full rank table (-1 where
    no node is): the box is numbered as one block, and each separator line
    after both halves it splits.  Returns the box's ranks."""
    box = rank[i0:i1, j0:j1]
    ranks = np.sort(box[box >= 0])
    if len(ranks):
        assert ranks[-1] - ranks[0] == len(ranks) - 1
    di, dj = i1 - i0, j1 - j0
    if di * dj <= 8:
        return ranks
    if di >= dj:
        mid = (i0 + i1) // 2
        halves = (_check_dissection(rank, i0, mid, j0, j1),
                  _check_dissection(rank, mid + 1, i1, j0, j1))
        line = rank[mid, j0:j1]
    else:
        mid = (j0 + j1) // 2
        halves = (_check_dissection(rank, i0, i1, j0, mid),
                  _check_dissection(rank, i0, i1, mid + 1, j1))
        line = rank[i0:i1, mid]
    line = line[line >= 0]
    for half in halves:
        if len(half) and len(line):
            assert half.max() < line.min()
    return ranks


@pytest.mark.parametrize("grid", [Grid.square(33, 33), Grid.square(21, 17),
                                  Grid.square(4, 40), Grid.disc_mask(19, 23)],
                         ids=["33x33", "21x17", "4x40", "disc-19x23"])
def test_dissection_order_numbers_separators_after_their_halves(grid):
    inodes = grid.interior_nodes
    order = _dissection_order(inodes)
    assert np.array_equal(np.sort(order), np.arange(len(inodes)))
    lo = inodes.min(axis=0)
    hi = inodes.max(axis=0) + 1
    rank = np.full(tuple(hi - lo), -1)
    rank[inodes[order, 0] - lo[0], inodes[order, 1] - lo[1]] = np.arange(len(order))
    _check_dissection(rank, 0, rank.shape[0], 0, rank.shape[1])


@pytest.mark.parametrize("grid,m", [(Grid.square(9, 7), 1), (Grid.square(13, 13), 3),
                                    (Grid.disc_mask(19, 23), 2)],
                         ids=["9x7-m1", "13x13-m3", "disc-19x23-m2"])
def test_free_dofs_number_interior_nodes_in_dissection_order(grid, m):
    """The unknowns are int32 flat dofs (i*ny + j)*m + c: every interior
    dof once, nodes in nested-dissection order, each node's components
    contiguous and in order."""
    dofs = _free_dofs(grid, m)
    assert dofs.dtype == np.int32 and dofs.shape == (len(grid.interior_nodes) * m,)
    interior = np.flatnonzero(np.repeat((grid.mask == 2).ravel(), m))
    assert np.array_equal(np.sort(dofs), interior)
    node, comp = np.divmod(dofs, m)
    assert np.array_equal(comp, np.tile(np.arange(m), len(grid.interior_nodes)))
    assert np.array_equal(node.reshape(-1, m), np.repeat(node[::m, None], m, axis=1))
    inodes = grid.interior_nodes
    ordered = inodes[_dissection_order(inodes)]
    assert np.array_equal(np.stack(np.divmod(node[::m], grid.ny), axis=1), ordered)


def test_solve_without_interior_nodes_is_converged():
    g = Grid(hx=0.5, hy=1 / 3, mask=np.ones((3, 4)))
    sol, rep = _solve_with_bc(HARM1, g, lambda x, y: np.array([x + y]), m=1)
    assert rep.converged and rep.iterations == 0
    assert rep.final_residual == 0.0


class _RecordedLU:
    """A SuperLU factorization that records its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = []

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, b):
        x = self.lu.solve(b)
        self.solves.append((b, x))
        return x


_ORIGINAL_SPLU = scipy.sparse.linalg.splu


def _record_factorizations(monkeypatch):
    """Wrap splu; returns the list of (J, permc_spec, recorded LU) per call,
    with None for the LU of a call that raised."""
    calls = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(J, **kwargs):
        lu = None
        try:
            lu = _RecordedLU(splu(J, **kwargs))
            return lu
        finally:
            calls.append((J, kwargs.get("permc_spec"), lu))

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    return calls


@pytest.mark.parametrize("name,m,grid,fn", [
    ("harmonic", 1, Grid.square(33, 33),
     lambda x, y: np.array([np.sin(x) * np.cosh(y)])),
    ("harmonic", 3, Grid.square(21, 17),
     lambda x, y: np.array([x, y * y, np.exp(x)])),
    ("sigma", 2, Grid.square(17, 17),
     lambda x, y: np.array([x * y, np.exp(-x)])),
    ("harmonic", 1, Grid.disc_mask(19, 23),
     lambda x, y: np.array([x * x - y * y + np.sqrt(x + 1)])),
    ("graph-area", 1, Grid.square(17, 17),
     lambda x, y: np.array([0.5 * (x * x - y * y)])),
], ids=["harmonic", "harmonic-m3", "sigma-m2", "harmonic-disc", "graph-area"])
def test_definite_newton_systems_keep_the_diagonal_pivot_trial(
        monkeypatch, name, m, grid, fn):
    model = (minimal_surface_model() if name == "graph-area"
             else get_lagrangian(name, m))
    calls = _record_factorizations(monkeypatch)
    assembled, _, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(model, grid, fn, m,
                            interior=lambda x, y: np.full(m, 0.3))
    assert rep.converged and rep.iterations >= 1
    assert len(assembled) == rep.iterations
    assert all(fallback is None for _, _, fallback in factored)
    assert len(calls) == sum(_components(J)[0] for J in assembled)
    assert all(spec == "NATURAL" and len(lu.solves) == 1
               for _, spec, lu in calls)


def _components(J):
    """``connected_components`` of ``J`` without its stored zeros."""
    J = J.copy()
    J.eliminate_zeros()
    return connected_components(J, directed=False)


def _record_newton_matrices(monkeypatch):
    """Wrap the Newton matrix sum and the solve; returns the list of Newton
    matrices, the list of test-side plain Python sums of the same element
    blocks in cell order and the list of ``(rhs, step, fallback)`` of each
    ``_solve_jacobian`` call."""
    assembled, reference, factored = [], [], []
    newton_matrix = grid_module._newton_matrix
    solve = grid_module._solve_jacobian

    def recording_matrix(grid, layout, blocks):
        J = newton_matrix(grid, layout, blocks)
        dofs = _free_dofs(grid, blocks.shape[-1] // 4)
        assert len(dofs) == J.shape[0]
        assembled.append(J)
        reference.append(cell_order_newton_matrix(grid, blocks, dofs))
        return J

    def recording_solve(J, rhs, fallback):
        out = solve(J, rhs, fallback)
        factored.append((rhs, *out))
        return out

    monkeypatch.setattr(grid_module, "_newton_matrix", recording_matrix)
    monkeypatch.setattr(grid_module, "_solve_jacobian", recording_solve)
    return assembled, reference, factored


def _same_bits(A, B):
    """Whether two sparse matrices store the same entries, bit for bit."""
    A, B = A.tocsc(), B.tocsc()
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data.view(np.int64), B.data.view(np.int64)))


def _check_fallback_reuse(calls, assembled, reference, factored, first):
    """Every Newton matrix is bit for bit the cell-order sum of its element
    blocks, stored zeros included.  Step ``first`` of the solve is its first fallback and every
    later step reuses that fallback's column order: it factors
    ``J_asm[:, cols]`` (stored zeros included) in its natural order, and its
    factors, row pivots and step are bitwise those of a fresh ``MMD_ATA``
    factorization of the assembled matrix.  Each fallback solves the
    right-hand side as given, unpermuted."""
    for J_asm, ref in zip(assembled, reference, strict=True):
        assert J_asm is not ref and _same_bits(J_asm, ref)
    fallbacks = calls[len(calls) - len(assembled) + first:]
    assert [spec for _, spec, _ in fallbacks] == (
        ["MMD_ATA"] + ["NATURAL"] * (len(assembled) - first - 1))
    _, _, cols = factored[first]
    assert np.array_equal(np.sort(cols), np.arange(len(cols)))
    for k, ((J, _, lu), J_asm, (rhs, step, fallback)) in enumerate(
            zip(fallbacks, assembled[first:], factored[first:], strict=True)):
        n = J_asm.shape[0]
        assert fallback is cols
        (b, x), = lu.solves
        assert b is rhs
        if k == 0:
            assert J is J_asm
            assert np.array_equal(step.view(np.int64), x.view(np.int64))
        else:
            assert _same_bits(J, J_asm[:, cols])
            assert J.nnz == J_asm.nnz
            assert np.count_nonzero(J.data) == np.count_nonzero(J_asm.data)
            assert np.array_equal(lu.perm_c, np.arange(n))
            assert np.array_equal(step[cols].view(np.int64), x.view(np.int64))
        fresh = _ORIGINAL_SPLU(J_asm, permc_spec="MMD_ATA")
        assert np.array_equal(cols, np.argsort(fresh.perm_c))
        assert _same_bits(lu.L, fresh.L) and _same_bits(lu.U, fresh.U)
        assert np.array_equal(lu.perm_r, fresh.perm_r)
        ref = fresh.solve(b)
        assert np.array_equal(step.view(np.int64), ref.view(np.int64))


def _perturbed_blocks(name, m, grid, fn, seed=11):
    """The element blocks and the free dofs at a perturbed state (at the
    bilinear start summation orders can agree by accident)."""
    dofs = _free_dofs(grid, m)
    values = GridField.from_function(grid, fn, m).values
    bump = np.random.default_rng(seed).standard_normal(len(dofs))
    values.reshape(-1)[dofs] += 0.01 * bump
    return _element_blocks(get_lagrangian(name, m), grid, values), dofs


def _same_structure(J, ref):
    return (J.indptr.dtype == ref.indptr.dtype == np.int32
            and J.indices.dtype == ref.indices.dtype == np.int32
            and np.array_equal(J.indptr, ref.indptr)
            and np.array_equal(J.indices, ref.indices))


@pytest.mark.parametrize("name,m,grid,fn", [
    ("harmonic", 1, Grid.square(33, 33),
     lambda x, y: np.array([np.sin(x) * np.cosh(y)])),
    ("harmonic", 1, Grid.disc_mask(19, 23),
     lambda x, y: np.array([x * x - y * y + np.sqrt(x + 1)])),
    ("harmonic", 1, Grid.square(21, 17),
     lambda x, y: np.array([np.exp(x) * y])),
    ("harmonic", 2, Grid.disc_mask(21, 21),
     lambda x, y: np.array([x * y, np.exp(-x)])),
    ("harmonic", 3, Grid.square(14, 19),
     lambda x, y: np.array([x, y ** 1.5, np.cosh(x * y)])),
    ("sigma", 2, Grid.disc_mask(21, 21),
     lambda x, y: np.array([x * y, np.exp(-x)])),
    ("sigma", 3, Grid.square(14, 19),
     lambda x, y: np.array([x, y ** 1.5, np.cosh(x * y)])),
], ids=["harmonic-33", "harmonic-disc-19x23", "harmonic-21x17",
        "harmonic-m2-disc-21", "harmonic-m3-14x19", "sigma-m2-disc-21",
        "sigma-m3-14x19"])
def test_newton_matrix_is_the_coo_assembly_bitwise(name, m, grid, fn):
    """At m = 1 the COO conversion adds each entry's summands in cell
    order, as the stencil sum does.  Harmonic and sigma have the same slot
    Hessian in every cell, so every summand of an entry is the same value
    and any order gives the same bits at m = 2-3 too.  The structure, int32
    and with its stored zeros, is the COO one."""
    blocks, dofs = _perturbed_blocks(name, m, grid, fn)
    ref = coo_newton_matrix(grid, blocks, dofs)
    J = _newton_matrix(grid, _newton_layout(grid, dofs, m), blocks)
    assert _same_structure(J, ref)
    assert np.array_equal(J.data.view(np.int64), ref.data.view(np.int64))


@pytest.mark.parametrize("grid", [Grid.square(9, 9), Grid.disc_mask(13, 17)],
                         ids=["9x9", "disc-13x17"])
def test_string_newton_matrix_sums_in_cell_order(grid):
    """The string's slot Hessian differs from cell to cell, so the order of
    an entry's summands shows in its bits: they are added in increasing
    cell order, left to right, as a plain Python sum over the cells adds
    them.  The structure is the COO one."""
    blocks, dofs = _perturbed_blocks("nambu", 4, grid, near_flat_sheet(0.1))
    J = _newton_matrix(grid, _newton_layout(grid, dofs, 4), blocks)
    assert _same_structure(J, coo_newton_matrix(grid, blocks, dofs))
    assert _same_bits(J, cell_order_newton_matrix(grid, blocks, dofs))


def test_element_blocks_lie_on_the_cell_lattice():
    """On a masked grid the element blocks fill the cell lattice: each
    active cell holds T H T^t * hx*hy, and each inactive cell a block of
    -0.0, sign bit set, which adds nothing to a stencil sum."""
    grid = Grid.disc_mask(13, 17)
    m = 2
    model = get_lagrangian("sigma", m)
    values = GridField.from_function(grid, lambda x, y: (x * y, np.exp(-x)), m).values
    blocks = _element_blocks(model, grid, values)
    assert blocks.shape == (grid.nx - 1, grid.ny - 1, 4 * m, 4 * m)
    inactive = ~grid_module._active_cell_mask(grid.mask)
    assert inactive.sum() == 12 * 16 - len(grid.active_cells) > 0
    assert np.all(blocks[inactive] == 0.0) and np.all(np.signbit(blocks[inactive]))
    T = np.zeros((4 * m, 3 * m))
    for c, (_, _, sx, sy) in enumerate(grid_module._CORNERS):
        for slot, w in enumerate((0.25, sx / (2.0 * grid.hx), sy / (2.0 * grid.hy))):
            T[c * m:(c + 1) * m, slot * m:(slot + 1) * m] = w * np.eye(m)
    H = np.concatenate([H for _, H in _cell_hessians(model, grid, values)])
    cells = grid.active_cells
    assert np.array_equal(blocks[cells[:, 0], cells[:, 1]],
                          (T @ H @ T.T) * (grid.hx * grid.hy))


def test_newton_matrix_keeps_a_negative_zero_beside_an_inactive_cell():
    """A -0.0 summand stays -0.0 where the other cells that hold the
    entry's nodes are inactive: the sum starts from -0.0 and an inactive
    cell adds -0.0, since x + (-0.0) is x, where +0.0 would give +0.0."""
    grid = Grid.disc_mask(13, 17)
    m = 2
    dofs = _free_dofs(grid, m)
    inodes = np.stack(np.divmod(dofs[::m] // m, grid.ny), axis=1)
    active = np.pad(grid_module._active_cell_mask(grid.mask), 1)
    cells = grid.active_cells
    blocks = np.full((grid.nx - 1, grid.ny - 1, 4 * m, 4 * m), -0.0)
    blocks[cells[:, 0], cells[:, 1]] = np.random.default_rng(3).standard_normal(
        (len(cells), 4 * m, 4 * m))
    # Every cell at an interior node that also touches an inactive cell
    # gets a -0.0 block.
    beside = [k for k, (i, j) in enumerate(inodes)
              if not active[i:i + 2, j:j + 2].all()]
    assert len(beside) == 16
    for i, j in inodes[beside]:
        blocks[i - 1:i + 1, j - 1:j + 1] = -0.0
    J = _newton_matrix(grid, _newton_layout(grid, dofs, m), blocks)
    assert _same_bits(J, cell_order_newton_matrix(grid, blocks, dofs))
    for u in beside:
        for c in range(m * u, m * u + m):
            column = J.data[J.indptr[c]:J.indptr[c + 1]]
            rows = J.indices[J.indptr[c]:J.indptr[c + 1]]
            own = column[(rows >= m * u) & (rows < m * u + m)]
            assert len(own) == m and np.all(own == 0.0) and np.all(np.signbit(own))


def test_string_newton_skips_the_trial_and_factors_with_mmd_ata(monkeypatch):
    """The string's Newton matrix has a negative diagonal, so no diagonal
    pivot trial runs.  The first step factors the matrix as assembled, its
    stored zeros included, with partial pivoting in the MMD(J^T J) order;
    every later step factors the assembled matrix in that column order."""
    calls = _record_factorizations(monkeypatch)
    assembled, reference, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(NAMBU, Grid.square(9, 9), near_flat_sheet(0.1),
                            m=4, tol=1e-10, max_iter=4)
    assert rep.iterations == 4
    assert [spec for _, spec, _ in calls] == (
        ["MMD_ATA"] + ["NATURAL"] * (rep.iterations - 1))
    assert [len(lu.solves) for _, _, lu in calls] == [1] * rep.iterations
    assert np.all(assembled[0].diagonal() < 0.0)
    assert np.any(assembled[0].data == 0.0)
    _check_fallback_reuse(calls, assembled, reference, factored, 0)


def _double_hump_model():
    """L = |grad u|^2/2 + u^2/2 - u^4/4: convex near u = 0, and concave
    enough for |u| > 1/sqrt(3) that the Newton matrix turns indefinite on
    a 9x9 grid once the field rises towards boundary data 2.5."""

    def eval_L(xs):
        u = xs[0]
        return (xs[1] * xs[1] + xs[2] * xs[2]) / 2.0 + u * u / 2.0 - u * u * u * u / 4.0

    return LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="double-hump")


def test_trial_rejected_mid_solve_fixes_the_column_order(monkeypatch):
    """The first step keeps the definite trial; the second step's trial is
    rejected and falls back to MMD_ATA, and every later step reuses that
    fallback's column order without running the trial again."""
    calls = _record_factorizations(monkeypatch)
    assembled, reference, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(_double_hump_model(), Grid.square(9, 9),
                            lambda x, y: np.array([2.5 + 0.0 * x]), m=1,
                            interior=lambda x, y: np.array([1.0]), max_iter=4)
    assert rep.iterations == 4
    assert [spec for _, spec, _ in calls] == [
        "NATURAL", "NATURAL", "MMD_ATA", "NATURAL", "NATURAL"]
    assert all(np.all(J.diagonal() > 0.0) for J in assembled[:2])
    assert all(_components(J)[0] == 1 for J in assembled[:2])
    (rhs, step, fallback) = factored[0]
    assert fallback is None
    assert calls[0][0] is assembled[0]
    (b, x), = calls[0][2].solves
    assert np.array_equal(b, rhs)
    assert np.array_equal(step.view(np.int64), x.view(np.int64))
    assert len(calls[1][2].solves) == 0
    _check_fallback_reuse(calls, assembled, reference, factored, 1)


@pytest.mark.parametrize("name,m,grid,fn,components", [
    ("harmonic", 1, Grid.square(33, 33),
     lambda x, y: np.array([0.7 * np.sin(2.1 * x) * np.cosh(y) + 1.3 * x * x * y]),
     2),
    ("sigma", 3, Grid.square(14, 19),
     lambda x, y: np.array([x, y ** 1.5, np.cosh(x * y)]), 1),
    ("harmonic", 2, Grid.square(17, 17),
     lambda x, y: np.array([np.sin(x) * np.cosh(y) + x * x, np.exp(x * y)]), 4),
    ("harmonic", 1, Grid.disc_mask(21, 21),
     lambda x, y: np.array([x * x - y * y + np.sqrt(x + 1)]), 2),
    ("sigma", 2, Grid.square(17, 17),
     lambda x, y: np.array([x * y, np.exp(-x)]), 2),
], ids=["harmonic-33", "sigma-m3-14x19", "harmonic-m2-17", "harmonic-disc-21",
        "sigma-m2-17"])
def test_definite_newton_step_matches_partial_pivoting(monkeypatch, name, m,
                                                       grid, fn, components):
    """The trial factors the decoupled blocks of the Newton matrix (with
    hx = hy, two checkerboards per harmonic component, two for sigma; one
    block with hx != hy) one by one and keeps them; its step matches
    partial pivoting on the matrix as assembled."""
    splu = scipy.sparse.linalg.splu
    calls = _record_factorizations(monkeypatch)
    assembled, _, factored = _record_newton_matrices(monkeypatch)
    _solve_with_bc(get_lagrangian(name, m), grid, fn, m)
    (J_asm,), ((rhs, step, fallback),) = assembled, factored
    assert fallback is None
    ncomp, labels = _components(J_asm)
    assert ncomp == components and len(calls) == components
    if components == 1:
        assert calls[0][0] is J_asm
    else:
        assert sum(J.nnz for J, _, _ in calls) == np.count_nonzero(J_asm.data)
    firsts = []
    for k, (J, spec, lu) in enumerate(calls):
        # Block k is component k, whole, in the assembled order.
        rows = np.flatnonzero(labels == k)
        firsts.append(rows[0])
        assert spec == "NATURAL"
        assert connected_components(J, directed=False)[0] == 1
        if components > 1:
            assert J.nnz == np.count_nonzero(J.data)
            assert (J - J_asm[rows][:, rows]).count_nonzero() == 0
        (b, x), = lu.solves
        assert np.array_equal(b, rhs[rows])
        assert np.array_equal(step[rows].view(np.int64), x.view(np.int64))
    assert np.all(np.diff(firsts) > 0)
    ref = splu(J_asm).solve(rhs)
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


def _block_diagonal_step(J, rhs):
    """The definite step as one factorization: the decoupled blocks of ``J``
    without its stored zeros, each in ``J``'s order, in one block-diagonal
    matrix factored with diagonal pivots."""
    trial = J.copy()
    trial.eliminate_zeros()
    _, labels = connected_components(trial, directed=False)
    order = np.argsort(labels, kind="stable")
    lu = _ORIGINAL_SPLU(trial[order][:, order], permc_spec="NATURAL",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)
    step = np.empty(len(rhs))
    step[order] = lu.solve(rhs[order])
    return step


@pytest.mark.parametrize("name,m,grid,fn,components", [
    ("harmonic", 1, Grid.square(33, 33),
     lambda x, y: np.array([0.7 * np.sin(2.1 * x) * np.cosh(y) + 1.3 * x * x * y]),
     2),
    ("harmonic", 2, Grid.square(17, 17),
     lambda x, y: np.array([np.sin(x) * np.cosh(y) + x * x, np.exp(x * y)]), 4),
    ("harmonic", 3, Grid.square(21, 21),
     lambda x, y: np.array([x * y * y, np.cos(3 * x) * np.exp(y), np.sqrt(1 + x)]),
     6),
    ("sigma", 2, Grid.square(17, 17),
     lambda x, y: np.array([x * y, np.exp(-x)]), 2),
    ("harmonic", 1, Grid.disc_mask(21, 21),
     lambda x, y: np.array([x * x - y * y + np.sqrt(x + 1)]), 2),
], ids=["harmonic-33", "harmonic-m2-17", "harmonic-m3-21", "sigma-m2-17",
        "harmonic-disc-21"])
def test_blockwise_step_is_the_block_diagonal_factorization_bitwise(
        monkeypatch, name, m, grid, fn, components):
    """Factoring the decoupled blocks one at a time gives, bit for bit, the
    step of one factorization of all of them as a block-diagonal matrix."""
    assembled, _, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(get_lagrangian(name, m), grid, fn, m)
    assert rep.converged
    (J,), ((rhs, step, fallback),) = assembled, factored
    assert fallback is None and _components(J)[0] == components
    ref = _block_diagonal_step(J, rhs)
    assert np.array_equal(step.view(np.int64), ref.view(np.int64))


# The tiny first pivot of the trial swamps every other entry, the remaining
# block becomes exactly rank one, and the last pivot cancels to an exact zero;
# the matrix itself is well conditioned (condition number 1.22).
_SWAMPED = [[1e-20, 1.0, -2.0], [1.0, 2.0, 1.0], [-2.0, 1.0, 0.0]]


# Positive diagonal, condition number 1.21: the tiny first pivot swamps the
# rest, and the trial's last pivot cancels to an exact zero.
_SWAMPED_POSITIVE = [[2.0 ** -53, 3.0, 2.0], [3.0, 1.0, -2.0], [2.0, -2.0, 2.0]]


@pytest.mark.parametrize("A,trial", [
    ([[0.0, 1.0], [1.0, 0.0]], None),
    ([[1.0, 0.0], [0.0, -1.0]], None),
    (_SWAMPED, None),
    ([[1.0, 2.0], [2.0, 1.0]], "rejected"),
    ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], "rejected"),
    (_SWAMPED_POSITIVE, "raises"),
], ids=["zero-diagonal", "negative-pivot", "exact-zero-pivot",
        "positive-diagonal-negative-pivot", "positive-diagonal-row-swap",
        "positive-diagonal-exact-zero-pivot"])
def test_indefinite_matrix_falls_back_to_partial_pivoting(monkeypatch, A, trial):
    """A diagonal entry <= 0 skips the trial; a positive diagonal reaches
    it, and a negative pivot, a swapped row or an exact zero pivot rejects
    it."""
    calls = _record_factorizations(monkeypatch)
    J = scipy.sparse.csc_matrix(np.array(A))
    b = np.arange(1.0, len(A) + 1.0)
    step, fallback = _solve_jacobian(J, b, None)
    assert [spec for _, spec, _ in calls] == (
        ["MMD_ATA"] if trial is None else ["NATURAL", "MMD_ATA"])
    if trial is not None:
        assert (calls[0][2] is None) == (trial == "raises")
    J_fallback, _, lu = calls[-1]
    assert J_fallback is J
    (rhs, x), = lu.solves
    assert rhs is b and np.array_equal(step.view(np.int64), x.view(np.int64))
    assert np.array_equal(fallback, np.argsort(lu.perm_c))
    assert np.allclose(step, np.linalg.solve(A, b), rtol=0, atol=1e-14)


def _with_stored_zeros(A):
    """CSC matrix of the dense ``A`` that stores every entry, zeros too."""
    A = np.array(A)
    rows, cols = np.indices(A.shape)
    return scipy.sparse.coo_matrix(
        (A.ravel(), (rows.ravel(), cols.ravel())), shape=A.shape).tocsc()


@pytest.mark.parametrize("A,definite", [
    ([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 2.0]], True),
    ([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]], False),
], ids=["definite", "negative-pivot"])
def test_trial_factors_the_decoupled_blocks(monkeypatch, A, definite):
    """Stored zeros are dropped and the components {0, 2} and {1} factored
    one after the other, each in the order it has in the matrix; a rejected
    trial leaves partial pivoting with the matrix as given, stored zeros
    included."""
    calls = _record_factorizations(monkeypatch)
    J = _with_stored_zeros(A)
    b = np.array([1.0, -2.0, 3.0])
    step, fallback = _solve_jacobian(J, b, None)
    assert (fallback is None) is definite
    assert np.array_equal(calls[0][0].toarray(), np.array(A)[[0, 2]][:, [0, 2]])
    assert calls[0][0].nnz == 4
    if definite:
        assert [spec for _, spec, _ in calls] == ["NATURAL", "NATURAL"]
        assert np.array_equal(calls[1][0].toarray(), [[3.0]])
        assert calls[1][0].nnz == 1
        (b0, x0), = calls[0][2].solves
        (b1, x1), = calls[1][2].solves
        assert np.array_equal(b0, b[[0, 2]]) and np.array_equal(b1, b[[1]])
        assert np.array_equal(step[[0, 2]], x0) and np.array_equal(step[[1]], x1)
    else:
        assert [spec for _, spec, _ in calls] == ["NATURAL", "MMD_ATA"]
        assert calls[1][0] is J and J.nnz == 9
        assert np.array_equal(fallback, np.argsort(calls[1][2].perm_c))
    assert np.allclose(step, np.linalg.solve(A, b), rtol=0, atol=1e-14)


_DEFINITE_BLOCK = [[2.0, 1.0], [1.0, 2.0]]


@pytest.mark.parametrize("second", [
    [[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 3.0]],
    _SWAMPED_POSITIVE,
], ids=["negative-pivot", "exact-zero-pivot"])
def test_rejected_later_block_discards_the_step(monkeypatch, second):
    """The first block {0, 2} is definite and kept; the second {1, 3, 4} has
    a negative pivot, or an exact zero pivot that makes splu raise.  The
    partial step is discarded, and the matrix as assembled, stored zeros
    included, is factored with partial pivoting."""
    A = np.zeros((5, 5))
    A[np.ix_([0, 2], [0, 2])] = _DEFINITE_BLOCK
    A[np.ix_([1, 3, 4], [1, 3, 4])] = second
    calls = _record_factorizations(monkeypatch)
    J = _with_stored_zeros(A)
    b = np.array([1.0, -2.0, 3.0, 0.5, -1.5])
    step, fallback = _solve_jacobian(J, b, None)
    assert [spec for _, spec, _ in calls] == ["NATURAL", "NATURAL", "MMD_ATA"]
    (J1, _, lu1), (J2, _, lu2), (J3, _, lu3) = calls
    assert np.array_equal(J1.toarray(), _DEFINITE_BLOCK) and J1.nnz == 4
    assert len(lu1.solves) == 1
    assert np.array_equal(J2.toarray(), second) and J2.nnz == 9
    if second is _SWAMPED_POSITIVE:
        assert lu2 is None
    else:
        assert np.array_equal(lu2.perm_r, lu2.perm_c)
        assert np.any(lu2.U.diagonal() < 0.0) and lu2.solves == []
    assert J3 is J and J.nnz == 25
    (rhs, x), = lu3.solves
    assert rhs is b and np.array_equal(step.view(np.int64), x.view(np.int64))
    assert np.array_equal(fallback, np.argsort(lu3.perm_c))
    assert np.allclose(step, np.linalg.solve(A, b), rtol=0, atol=1e-13)


def test_exact_zero_pivot_case_makes_the_trial_raise():
    with pytest.raises(RuntimeError):
        scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(np.array(_SWAMPED)),
                                 permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})


def test_non_finite_newton_step_raises():
    """A Newton matrix of order 1e-300 against a residual of order 1e10
    overflows the step."""

    def eval_L(xs):
        return 1e-300 * (xs[1] * xs[1] + xs[2] * xs[2]) / 2.0 + 1e10 * xs[0]

    model = LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="overflow")
    with pytest.raises(SingularJacobianError,
                       match="Newton step is non-finite at iteration 0"):
        _solve_with_bc(model, Grid.square(5, 5), lambda x, y: np.array([x]), m=1)


def test_singular_newton_system_raises():
    # L = qbar is linear in the nodal values: its Hessian, and so the Newton
    # matrix, is zero while the residual is not.
    model = LagrangianModel(
        L=ScalarField(arity=3, eval=lambda xs: 1.0 * xs[0]), name="linear")
    with pytest.raises(SingularJacobianError,
                       match="Newton system is singular at iteration 0: "):
        _solve_with_bc(model, Grid.square(7, 7), lambda x, y: np.array([x]), m=1)


def test_nan_start_residual_is_named(monkeypatch):
    """L = |qdot|^2/2 + nan*q^2 raises nothing, so the residual at the start
    is nan: the solve names it before any Newton matrix is factored."""

    def eval_L(xs):
        return (xs[1] * xs[1] + xs[2] * xs[2]) / 2.0 + np.nan * xs[0] * xs[0]

    model = LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="nan")
    calls = _record_factorizations(monkeypatch)
    with pytest.raises(DomainError,
                       match=r"^residual at the starting point is not finite \(nan\)$"):
        _solve_with_bc(model, Grid.square(5, 5), lambda x, y: np.array([x]), m=1)
    assert calls == []


def test_string_affine_boundary_is_exact_solution():
    g = Grid.square(9, 9)
    sol, rep = _solve_with_bc(NAMBU, g, lambda x, y:
                              (x, y, 0.0, 0.0), m=4)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.final_residual == 0.0


def test_solve_on_disc_domain():
    """On the masked disc the solver reaches the discrete stationary point
    and lands there from any starting field (the interior system of the
    quadratic action is a fixed linear system)."""
    g = Grid.disc_mask(17, 17)

    def saddle(x, y):
        return np.array([x * x - y * y])

    sol, rep = _solve_with_bc(HARM1, g, saddle, m=1)
    assert rep.converged
    assert rep.final_residual <= 1e-10
    bc_field = GridField.from_function(g, saddle, m=1)
    assert np.array_equal(boundary_rows(sol), boundary_rows(bc_field))
    sol2, rep2 = _solve_with_bc(HARM1, g, saddle, m=1,
                                interior=lambda x, y: np.array([5.0]))
    assert rep2.converged
    inside = g.mask > 0
    assert np.max(np.abs(sol.values[inside] - sol2.values[inside])) <= 1e-9


def test_solver_takes_its_grid_and_dirichlet_data_from_the_initial_field():
    # A disc grid, nan outside it, and a start off the solution inside: the
    # solution lives on the start's grid and keeps its boundary and outside
    # values bit for bit.
    g = Grid.disc_mask(13, 11)
    f = GridField.from_function(g, lambda x, y: np.array([x * y, x - y * y]), m=2)
    values = f.values.copy()
    values[g.mask == 2] += 0.25
    sol, rep = solve_dirichlet(get_lagrangian("harmonic", 2),
                               GridField(grid=g, values=values))
    assert rep.converged and rep.iterations == 1
    assert sol.grid is g
    fixed = g.mask != 2
    assert np.array_equal(sol.values[fixed], values[fixed], equal_nan=True)
    assert np.isnan(sol.values[g.mask == 0]).all()


def test_solver_rejects_a_lagrangian_that_drops_taylor_numbers():
    constant = LagrangianModel(L=ScalarField(arity=3, eval=lambda xs: 1.0),
                               name="constant")
    with pytest.raises(InvalidInputError,
                       match="^field did not propagate Taylor numbers$"):
        _solve_with_bc(constant, Grid.square(5, 5), lambda x, y: np.array([x]), m=1)


def test_solver_rejects_inadmissible_initial_cell():
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y:
                                (0.0, 0.0, x, y), m=4)
    with pytest.raises(GridDomainError) as exc:
        solve_dirichlet(NAMBU, f)
    assert "cell" in str(exc.value)


def test_line_search_that_never_regains_admissibility_raises():
    # Harmonic L that raises DomainError outside a 1e-12 band around the
    # start's cell slopes.  The start x^2 y is not discretely harmonic, so the
    # Newton step is nonzero, and even its 2^-29 fraction moves some cell
    # slope out of the band: every trial fails the line search's plain pass.
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([x * x * y]), m=1)
    _, s1, s2 = _cell_slots(g, f.values)

    def eval_L(xs):
        v1, v2 = (getattr(x, "value", x) for x in xs[1:])
        if not np.all(np.abs(v1 - s1) + np.abs(v2 - s2) < 1e-12):
            raise DomainError("cell slope left the band")
        return HARM1.L(xs)

    banded = LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="banded")
    discrete_action_gradient(banded, f)  # the start is inside the band
    with pytest.raises(GridDomainError) as exc:
        solve_dirichlet(banded, f)
    assert str(exc.value) == ("line search could not restore admissibility "
                              "at iteration 0")


def test_hessian_pass_names_the_inadmissible_cell():
    # Collapsing the corner node (16, 16) onto (15, 15) makes the two tangents
    # of cell (15, 15), the last of 256 and outside the first block of cells,
    # parallel.
    assert grid_module._HESSIAN_BLOCK // 12 ** 2 < 255
    g = Grid.square(17, 17)
    values = GridField.from_function(g, near_flat_sheet(0.1), 4).values
    values[16, 16] = values[15, 15]
    with pytest.raises(GridDomainError) as exc:
        list(_cell_hessians(NAMBU, g, values))
    assert exc.value.cell == (15, 15)


def test_solver_rejects_bad_parameters():
    g = Grid.square(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([x]), m=1)
    with pytest.raises(InvalidParameterError):
        solve_dirichlet(HARM1, f, tol=-1.0)
    with pytest.raises(InvalidParameterError,
                       match="^tolerance must be positive, got nan$"):
        solve_dirichlet(HARM1, f, tol=float("nan"))
    with pytest.raises(InvalidParameterError):
        solve_dirichlet(HARM1, f, max_iter=0)
    with pytest.raises(InvalidInputError, match="^expected a GridField$"):
        solve_dirichlet(HARM1, f.values)
    with pytest.raises(InvalidInputError, match="^field has m=1, model has m=4$"):
        solve_dirichlet(NAMBU, f)
