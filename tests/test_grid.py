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
from fieldtriple.bundles import Jet, Phase
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
from fieldtriple.lagrangian import (LagrangianModel, SecondJet, el_residual_pointwise,
                                    legendre)
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
    with pytest.raises(InvalidParameterError, match=r"^grid spacings must be "
                       r"finite, got hx=inf, hy=1\.0$"):
        Grid(hx=float("inf"), hy=1.0, mask=np.ones((3, 3)))
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


def test_momentum_divergence_validates_its_momenta():
    g = Grid.disc_mask(9, 9)
    momenta, _ = boundary_momentum(HARM1, GridField.from_function(
        g, lambda x, y: np.array([x]), m=1))
    with pytest.raises(InvalidInputError, match="^momenta must be a Phase$"):
        momentum_divergence(g, momenta.p)
    ncells = len(g.active_cells)
    fewer = Phase(momenta.q[:, 1:], momenta.p[..., 1:])
    with pytest.raises(InvalidInputError, match=(
            rf"^momenta have batch shape \({ncells - 1},\), expected "
            rf"\({ncells},\), one point per active cell$")):
        momentum_divergence(g, fewer)
    with pytest.raises(InvalidInputError, match=(
            rf"^momenta have batch shape \(\), expected \({ncells},\)")):
        momentum_divergence(g, Phase(momenta.q[:, 0], momenta.p[..., 0]))
    momenta.p[1, 0, 0] = np.inf
    with pytest.raises(InvalidInputError, match="^non-finite momentum$"):
        momentum_divergence(g, momenta)


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
    momenta, _ = boundary_momentum(HARM1, f)
    assert np.max(np.abs(momenta.p[0] - 1.0)) == 0.0
    assert np.max(np.abs(momenta.p[1])) == 0.0


@pytest.mark.parametrize("name,m,grid,fn", [
    ("harmonic", 2, Grid.disc_mask(19, 23),
     lambda x, y: np.array([x * x - y, np.sinh(x * y)])),
    ("sigma", 3, Grid.square(9, 11),
     lambda x, y: np.array([x * y, np.cos(x + y), x - y ** 2])),
    ("nambu", 4, Grid.square(9, 9), near_flat_sheet(0.3)),
])
def test_momenta_are_the_legendre_image_of_the_cell_jets(name, m, grid, fn):
    """One phase point per active cell, in ``active_cells`` order: q the
    cell average and p = dL/dqdot at the cell jet, bit for bit."""
    model = get_lagrangian(name, m)
    f = GridField.from_function(grid, fn, m)
    momenta, _ = boundary_momentum(model, f)
    ci, cj = grid.active_cells.T
    u00, u10 = f.values[ci, cj].T, f.values[ci + 1, cj].T
    u01, u11 = f.values[ci, cj + 1].T, f.values[ci + 1, cj + 1].T
    jets = Jet((u00 + u10 + u01 + u11) / 4,
               [(u10 + u11 - u00 - u01) / (2 * grid.hx),
                (u01 + u11 - u00 - u10) / (2 * grid.hy)])
    assert isinstance(momenta, Phase)
    assert momenta.p.shape == (2, m, len(ci))
    assert momenta == legendre(model, jets)
    assert momenta.p.flags.writeable


def test_pairing_scatters_only_when_called(monkeypatch):
    """``boundary_momentum`` makes one slot-gradient pass and no nodal
    scatter; each ``pairing`` call makes one scatter, from its own copy of
    the slot gradient, so writing to the momenta leaves it as it was."""
    calls = {"scatter": 0, "pass": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(grid_module, "_nodal_gradient",
                        counted(grid_module._nodal_gradient, "scatter"))
    monkeypatch.setattr(autodiff, "_expand", counted(autodiff._expand, "pass"))
    monkeypatch.setattr(grid_module, "_expand", counted(grid_module._expand, "pass"))
    g = Grid.disc_mask(9, 9)
    f = GridField.from_function(g, lambda x, y: np.array([x * x + y]), m=1)
    momenta, pairing = boundary_momentum(HARM1, f)
    assert calls == {"scatter": 0, "pass": 1}
    delta = np.ones((g.nx, g.ny, 1))
    first = pairing(delta)
    assert first != 0.0
    momenta.p[:] = 0.0
    assert pairing(delta) == first
    assert calls == {"scatter": 2, "pass": 1}


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
        momenta, _ = boundary_momentum(model, f)
        div, nodes = momentum_divergence(grid, momenta)
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


# Converged Dirichlet solves whose boundary pairing the on-shell action
# generates: harmonic m=2 on a square and sigma m=3 on a disc, each with two
# smooth boundary variations (zero off the boundary).
_ON_SHELL = {
    "harmonic": (2, Grid.square(33, 33), lambda x, y: np.array(
        [x * x - y * y + 0.3 * np.sin(np.pi * x), x * y + np.cos(y)])),
    "sigma": (3, Grid.disc_mask(33, 33), lambda x, y: np.array(
        [x * y, np.cos(x + y), x - y ** 2])),
}
_EPS = 1e-4


def _on_shell(name):
    """The model, the grid, a solve at the boundary data plus a nodal
    variation, and two boundary variations."""
    m, grid, fn = _ON_SHELL[name]
    model = get_lagrangian(name, m)
    values = GridField.from_function(grid, fn, m).values
    x, y = grid.node_coords()
    variations = [np.stack([vary(x, y, k) for k in range(m)], axis=-1)
                  for vary in (lambda x, y, k: np.sin(np.pi * (k + 1) * x) + y * (k - 1),
                               lambda x, y, k: np.cos(2 * x + k * y) * x)]
    for delta in variations:
        delta[grid.mask != 1] = 0.0

    def solve(delta=0.0):
        sol, rep = solve_dirichlet(model, GridField(grid, values + delta), tol=1e-12)
        assert rep.converged
        return sol, rep

    return model, grid, solve, variations


@pytest.mark.parametrize("name", sorted(_ON_SHELL))
def test_on_shell_action_generates_the_boundary_pairing(name):
    """dS/deps of the on-shell action at q_B + eps*delta is pairing(delta):
    the boundary momenta are the derivative of S(q_B).  Both models are
    linear, so the central difference is exact but for rounding; measured
    at most 2.4e-12 relative (sigma, first variation)."""
    model, _, solve, variations = _on_shell(name)
    _, pairing = boundary_momentum(model, solve()[0])
    for delta in variations:
        dS = (solve(_EPS * delta)[1].action
              - solve(-_EPS * delta)[1].action) / (2 * _EPS)
        assert abs(dS - pairing(delta)) <= 1e-11 * abs(pairing(delta))


@pytest.mark.parametrize("name", sorted(_ON_SHELL))
def test_boundary_pairing_is_reciprocal(name):
    """d/deps1 pairing(delta2) = d/deps2 pairing(delta1): the graph of the
    boundary momenta is Lagrangian.  Measured at most 2.7e-12 relative
    (harmonic)."""
    model, _, solve, (d1, d2) = _on_shell(name)

    def derivative(along, paired):
        plus, minus = solve(_EPS * along)[0], solve(-_EPS * along)[0]
        return (boundary_momentum(model, plus)[1](paired)
                - boundary_momentum(model, minus)[1](paired)) / (2 * _EPS)

    a, b = derivative(d1, d2), derivative(d2, d1)
    assert abs(a - b) <= 1e-11 * abs(a)


@pytest.mark.parametrize("name", sorted(_ON_SHELL))
def test_target_isometries_pair_to_the_residual_at_converged_solves(name):
    """Discrete Noether at a converged solve: a symmetry's <dS, delta>
    vanishes, so its boundary pairing is minus the interior residual's,
    at most the final residual times sum |delta|.  Measured at most
    4.9e-15 against bounds of at least 1.6e-13."""
    model, grid, solve, _ = _on_shell(name)
    sol, rep = solve()
    _, pairing = boundary_momentum(model, sol)
    for omega, b in symmetry_generators(name, model.m):
        delta = sol.values @ omega.T + b
        delta[grid.mask == 0] = 0.0
        assert abs(pairing(delta)) <= rep.final_residual * np.sum(np.abs(delta))


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
    momenta, _ = boundary_momentum(NAMBU, sol)
    div, _ = momentum_divergence(g, momenta)
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
    """A SuperLU factorization that records its solves and the keyword
    arguments of its splu call."""

    def __init__(self, lu, kwargs):
        self.lu = lu
        self.kwargs = kwargs
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
            lu = _RecordedLU(splu(J, **kwargs), kwargs)
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
    assert len(assembled) == rep.iterations == len(factored)
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
    blocks in cell order and the list of ``(rhs, step)`` of each
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

    def recording_solve(J, rhs):
        step = solve(J, rhs)
        factored.append((rhs, step))
        return step

    monkeypatch.setattr(grid_module, "_newton_matrix", recording_matrix)
    monkeypatch.setattr(grid_module, "_solve_jacobian", recording_solve)
    return assembled, reference, factored


def _same_bits(A, B):
    """Whether two sparse matrices store the same entries, bit for bit."""
    A, B = A.tocsc(), B.tocsc()
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data.view(np.int64), B.data.view(np.int64)))


_MACHINE_EPS = np.finfo(float).eps

# The splu arguments of the definite trial and of the refined step: the
# matrix's own order, diagonal pivots.
_DIAGONAL_PIVOTS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                    "options": {"SymmetricMode": True}}


def _backward_error(J, x, b):
    """Componentwise backward error max_i |b - J x|_i / (|J| |x| + |b|)_i,
    a row with a zero denominator counting 0."""
    r = np.abs(b - J @ x)
    scale = abs(J) @ np.abs(x) + np.abs(b)
    return max((ri / si for ri, si in zip(r, scale) if si > 0.0), default=0.0)


def _check_refined(J, rhs, step, lu):
    """``lu`` factored ``J`` itself with diagonal pivots; ``step`` is its
    solve of ``rhs`` plus, in turn, its solve of each residual
    ``rhs - J x`` of the step so far, and its backward error is at most
    8 eps.  Returns the number of corrections."""
    assert lu.kwargs == _DIAGONAL_PIVOTS
    (b, x), *corrections = lu.solves
    assert b is rhs
    for r, d in corrections:
        assert np.array_equal(r, rhs - J @ x)
        x = x + d
    assert np.array_equal(step.view(np.int64), x.view(np.int64))
    assert _backward_error(J, step, rhs) <= 8 * _MACHINE_EPS
    return len(corrections)


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
    ("sigma", 2, Grid.disc_mask(3, 4),
     lambda x, y: np.array([x * y, np.exp(-x)])),
], ids=["harmonic-33", "harmonic-disc-19x23", "harmonic-21x17",
        "harmonic-m2-disc-21", "harmonic-m3-14x19", "sigma-m2-disc-21",
        "sigma-m3-14x19", "sigma-m2-disc-3x4-no-unknowns"])
def test_newton_matrix_is_the_coo_assembly_bitwise(name, m, grid, fn):
    """At m = 1 the COO conversion adds each entry's summands in cell
    order, as the stencil sum does.  Harmonic and sigma have the same slot
    Hessian in every cell, so every summand of an entry is the same value
    and any order gives the same bits at m = 2-3 too.  The structure, int32
    and with its stored zeros, is the COO one, also on a grid with no
    unknowns."""
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


def test_string_newton_step_is_one_refined_diagonal_pivot_factorization(monkeypatch):
    """The string's Newton matrix has a negative diagonal, so no definite
    trial runs.  Each step factors the matrix as assembled, stored zeros
    included, once, in its own order with diagonal pivots, and refines its
    step against that matrix to a backward error of at most 8 eps; the
    first step takes all 5 corrections."""
    calls = _record_factorizations(monkeypatch)
    assembled, reference, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(NAMBU, Grid.square(9, 9), near_flat_sheet(0.1),
                            m=4, tol=1e-10, max_iter=4)
    assert rep.iterations == len(calls) == len(assembled) == 4
    assert np.all(assembled[0].diagonal() < 0.0)
    assert np.any(assembled[0].data == 0.0)
    corrections = []
    for (J, _, lu), J_asm, ref, (rhs, step) in zip(
            calls, assembled, reference, factored, strict=True):
        assert J is J_asm and J_asm is not ref and _same_bits(J_asm, ref)
        corrections.append(_check_refined(J, rhs, step, lu))
    assert corrections == [5, 1, 2, 1]


def _double_hump_model():
    """L = |grad u|^2/2 + u^2/2 - u^4/4: convex near u = 0, and concave
    enough for |u| > 1/sqrt(3) that the Newton matrix turns indefinite on
    a 9x9 grid once the field rises towards boundary data 2.5."""

    def eval_L(xs):
        u = xs[0]
        return (xs[1] * xs[1] + xs[2] * xs[2]) / 2.0 + u * u / 2.0 - u * u * u * u / 4.0

    return LagrangianModel(L=ScalarField(arity=3, eval=eval_L), name="double-hump")


def test_trial_rejected_mid_solve_takes_the_refined_step(monkeypatch):
    """The first step keeps the definite trial.  From the second step on the
    matrix keeps its positive diagonal but the trial is rejected, and the
    step is the refined one: the same matrix factored again, whole, with
    diagonal pivots.  Nothing carries over from one step to the next."""
    calls = _record_factorizations(monkeypatch)
    assembled, _, factored = _record_newton_matrices(monkeypatch)
    _, rep = _solve_with_bc(_double_hump_model(), Grid.square(9, 9),
                            lambda x, y: np.array([2.5 + 0.0 * x]), m=1,
                            interior=lambda x, y: np.array([1.0]), max_iter=4)
    assert rep.iterations == 4
    assert all(np.all(J.diagonal() > 0.0) and _components(J)[0] == 1
               for J in assembled)
    assert [J is assembled[k] for k, (J, _, _) in zip(
        [0, 1, 1, 2, 2, 3, 3], calls, strict=True)] == [True] * 7
    assert all(lu.kwargs == _DIAGONAL_PIVOTS for _, _, lu in calls)
    (rhs, step) = factored[0]
    (b, x), = calls[0][2].solves
    assert np.array_equal(b, rhs)
    assert np.array_equal(step.view(np.int64), x.view(np.int64))
    corrections = []
    for (_, _, trial), (J, _, lu), (rhs, step) in zip(
            calls[1::2], calls[2::2], factored[1:], strict=True):
        assert trial.solves == []
        assert not (np.array_equal(trial.perm_r, trial.perm_c)
                    and np.all(trial.U.diagonal() > 0.0))
        corrections.append(_check_refined(J, rhs, step, lu))
    assert corrections == [0, 0, 1]


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
    (J_asm,), ((rhs, step),) = assembled, factored
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
    (J,), ((rhs, step),) = assembled, factored
    assert _components(J)[0] == components
    ref = _block_diagonal_step(J, rhs)
    assert np.array_equal(step.view(np.int64), ref.view(np.int64))


# The tiny first pivot of the trial swamps every other entry, the remaining
# block becomes exactly rank one, and the last pivot cancels to an exact zero;
# the matrix itself is well conditioned (condition number 1.22).
_SWAMPED = [[1e-20, 1.0, -2.0], [1.0, 2.0, 1.0], [-2.0, 1.0, 0.0]]


# Positive diagonal, condition number 1.21: the tiny first pivot swamps the
# rest, and the trial's last pivot cancels to an exact zero.
_SWAMPED_POSITIVE = [[2.0 ** -53, 3.0, 2.0], [3.0, 1.0, -2.0], [2.0, -2.0, 2.0]]


# Negative diagonal, condition number 4.3: the tiny first pivot swamps the
# trailing 2x2 block without cancelling it to an exact zero, and refining
# with those factors stops when the backward error fails to halve.
_STAGNATING = [[-1e-17, 1.0, -2.0], [1.0, -2.0, 1.0], [-2.0, 1.0, -1.0]]


# Negative diagonal, condition number 1.0: the tiny first pivot overflows
# the second, so the first solve with diagonal pivots is not finite.
_OVERFLOWING = [[-1e-300, 1e10], [1e10, 1.0]]


@pytest.mark.parametrize("A,trial,refined", [
    ([[0.0, 1.0], [1.0, 0.0]], None, "accepted"),
    ([[1.0, 0.0], [0.0, -1.0]], None, "accepted"),
    (_SWAMPED, None, "raises"),
    ([[1.0, 2.0], [2.0, 1.0]], "rejected", "accepted"),
    ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], "rejected", "accepted"),
    (_SWAMPED_POSITIVE, "raises", "raises"),
    (_STAGNATING, None, "stagnates"),
    (_OVERFLOWING, None, "non-finite"),
], ids=["zero-diagonal", "negative-pivot", "exact-zero-pivot",
        "positive-diagonal-negative-pivot", "positive-diagonal-row-swap",
        "positive-diagonal-exact-zero-pivot", "stagnating-refinement",
        "non-finite-refinement"])
def test_indefinite_matrix_falls_back_to_partial_pivoting(monkeypatch, A, trial,
                                                         refined):
    """A diagonal entry <= 0 skips the trial; a positive diagonal reaches
    it, and a negative pivot, a swapped row or an exact zero pivot rejects
    it.  The matrix is then factored whole with diagonal pivots and its
    step refined.  Only when that factorization raises, or its refinement
    stagnates above 8 eps or is not finite, does the matrix as given go to
    partial pivoting in the MMD(J^T J) order.  Every path solves to 1e-14."""
    calls = _record_factorizations(monkeypatch)
    J = scipy.sparse.csc_matrix(np.array(A))
    b = np.arange(1.0, len(A) + 1.0)
    step = _solve_jacobian(J, b)
    specs = ["NATURAL"] * (1 + (trial is not None))
    if refined != "accepted":
        specs.append("MMD_ATA")
    assert [spec for _, spec, _ in calls] == specs
    if trial is not None:
        assert (calls[0][2] is None) == (trial == "raises")
    J_refined, _, lu = calls[len(specs) - 1 - (refined != "accepted")]
    assert J_refined is J
    if refined == "accepted":
        _check_refined(J, b, step, lu)
    elif refined == "raises":
        assert lu is None
    else:
        assert lu.kwargs == _DIAGONAL_PIVOTS
        (_, x), *corrections = lu.solves
        errors = [_backward_error(J, x, b)]
        for _, d in corrections:
            x = x + d
            errors.append(_backward_error(J, x, b))
        if refined == "non-finite":
            assert corrections == [] and not np.isfinite(x).all()
        else:
            assert 1 <= len(corrections) < 5 and np.isfinite(x).all()
            assert errors[-1] > 8 * _MACHINE_EPS and 2 * errors[-1] > errors[-2]
    if refined != "accepted":
        J_fallback, _, lu = calls[-1]
        assert J_fallback is J
        (rhs, x), = lu.solves
        assert rhs is b and np.array_equal(step.view(np.int64), x.view(np.int64))
    assert np.allclose(step, np.linalg.solve(A, b), rtol=0, atol=1e-14)


@pytest.mark.parametrize("A", [_STAGNATING, _OVERFLOWING],
                         ids=["stagnating-refinement", "non-finite-refinement"])
def test_refined_factors_are_freed_before_the_fallback(monkeypatch, A):
    """The refused refinement's factors are garbage when the fallback's
    splu runs, so one factorization is alive at a time."""
    factors = []
    alive = []
    splu = scipy.sparse.linalg.splu

    def tracked_splu(A, **kwargs):
        alive.append((kwargs["permc_spec"], [ref() is not None for ref in factors]))
        lu = _RecordedLU(splu(A, **kwargs), kwargs)
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", tracked_splu)
    _solve_jacobian(scipy.sparse.csc_matrix(np.array(A)), np.ones(len(A)))
    assert alive == [("NATURAL", []), ("MMD_ATA", [False])]
    assert factors[-1]() is None


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
    trial leaves the refined step of the matrix as given, stored zeros
    included."""
    calls = _record_factorizations(monkeypatch)
    J = _with_stored_zeros(A)
    b = np.array([1.0, -2.0, 3.0])
    step = _solve_jacobian(J, b)
    assert [spec for _, spec, _ in calls] == ["NATURAL", "NATURAL"]
    assert np.array_equal(calls[0][0].toarray(), np.array(A)[[0, 2]][:, [0, 2]])
    assert calls[0][0].nnz == 4
    if definite:
        assert np.array_equal(calls[1][0].toarray(), [[3.0]])
        assert calls[1][0].nnz == 1
        (b0, x0), = calls[0][2].solves
        (b1, x1), = calls[1][2].solves
        assert np.array_equal(b0, b[[0, 2]]) and np.array_equal(b1, b[[1]])
        assert np.array_equal(step[[0, 2]], x0) and np.array_equal(step[[1]], x1)
    else:
        assert calls[0][2].solves == []
        assert calls[1][0] is J and J.nnz == 9
        _check_refined(J, b, step, calls[1][2])
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
    included, is factored whole with diagonal pivots for the refined step.
    That factorization meets the same exact zero pivot and raises, so that
    matrix goes on to partial pivoting."""
    A = np.zeros((5, 5))
    A[np.ix_([0, 2], [0, 2])] = _DEFINITE_BLOCK
    A[np.ix_([1, 3, 4], [1, 3, 4])] = second
    calls = _record_factorizations(monkeypatch)
    J = _with_stored_zeros(A)
    b = np.array([1.0, -2.0, 3.0, 0.5, -1.5])
    step = _solve_jacobian(J, b)
    (J1, _, lu1), (J2, _, lu2), (J3, _, lu3), *fallback = calls
    assert np.array_equal(J1.toarray(), _DEFINITE_BLOCK) and J1.nnz == 4
    assert len(lu1.solves) == 1
    assert np.array_equal(J2.toarray(), second) and J2.nnz == 9
    assert J3 is J and J.nnz == 25
    if second is _SWAMPED_POSITIVE:
        assert lu2 is None and lu3 is None
        (J4, spec, lu4), = fallback
        assert J4 is J and spec == "MMD_ATA"
        (rhs, x), = lu4.solves
        assert rhs is b and np.array_equal(step.view(np.int64), x.view(np.int64))
    else:
        assert np.array_equal(lu2.perm_r, lu2.perm_c)
        assert np.any(lu2.U.diagonal() < 0.0) and lu2.solves == []
        assert fallback == []
        _check_refined(J, b, step, lu3)
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


def test_singular_newton_system_raises(monkeypatch):
    # L = qbar is linear in the nodal values: its Hessian, and so the Newton
    # matrix, is zero while the residual is not.  Its zero diagonal skips the
    # trial; the refined step's factorization raises, and so does the
    # fallback's.
    model = LagrangianModel(
        L=ScalarField(arity=3, eval=lambda xs: 1.0 * xs[0]), name="linear")
    calls = _record_factorizations(monkeypatch)
    with pytest.raises(SingularJacobianError,
                       match="Newton system is singular at iteration 0: "):
        _solve_with_bc(model, Grid.square(7, 7), lambda x, y: np.array([x]), m=1)
    assert [(spec, lu) for _, spec, lu in calls] == [("NATURAL", None),
                                                     ("MMD_ATA", None)]
    assert calls[0][0] is calls[1][0] and not calls[0][0].count_nonzero()


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
    # an infinite tolerance would call the start converged
    with pytest.raises(InvalidParameterError,
                       match="^tolerance must be finite, got inf$"):
        solve_dirichlet(HARM1, f, tol=float("inf"))
    with pytest.raises(InvalidParameterError):
        solve_dirichlet(HARM1, f, max_iter=0)
    with pytest.raises(InvalidInputError, match="^expected a GridField$"):
        solve_dirichlet(HARM1, f.values)
    with pytest.raises(InvalidInputError, match="^field has m=1, model has m=4$"):
        solve_dirichlet(NAMBU, f)
