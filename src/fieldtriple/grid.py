"""Variational discretization of the field action on a rectangular grid.

The action S(u) = integral of L(u, d1 u, d2 u) over the domain is discretized
by cell-centered one-point quadrature.  A grid cell with corner values
u00, u10, u01, u11 (first index along x1, second along x2) carries the jet

    qbar  = (u00 + u10 + u01 + u11) / 4
    qdot1 = (u10 + u11 - u00 - u01) / (2 hx)
    qdot2 = (u01 + u11 - u00 - u10) / (2 hy)

and contributes L(qbar, qdot1, qdot2) * hx * hy.  The discrete action is an
explicit smooth function of the nodal values, so its exact gradient is
available cell by cell through forward AD: there is no discretization gap
between ``discrete_action`` and ``discrete_action_gradient``, only float
rounding.

The discrete Euler-Lagrange residual is *defined* as the interior block of
that exact gradient (variational-integrator convention, no sign flip).  Its
continuum limit at an interior node is the pointwise Euler-Lagrange residual
dL/dq - D1(dL/dqdot1) - D2(dL/dqdot2) times the cell area, and the discrete
analog of integration by parts,

    <full gradient, delta u> = <interior block, delta u> + boundary pairing,

holds by construction up to float reassociation rather than up to mesh error:
one nodal scatter of the per-cell slot gradients gives both the gradient and
the pairing functional of ``boundary_momentum``, which pairs a variation with
that scatter's boundary rows.  At a discrete stationary point with Dirichlet
data the interior block vanishes, so the boundary pairing alone reproduces
the action's first variation.  The per-cell momenta are the triple's phase
points: the Legendre image ``Phase`` of the cell jets.

Lagrangians must be written in generic arithmetic (as the built-in catalog
models are): the solver evaluates them on Taylor numbers with array-valued
channels, one batched pass over all active cells for the slot gradients and
batched second-order passes over blocks of cells for the slot Hessians.  The
nodal element blocks of the Newton matrix lie on the cell lattice, with a
-0.0 block at each inactive cell, so full and masked grids sum one way.
``GridField.from_function`` samples a field with one call of its function,
on the coordinate arrays of the non-outside nodes.

Node (i, j) sits at (i*hx, j*hy).  The mask tags nodes 0 = outside,
1 = boundary, 2 = interior; cells enter the quadrature when all four corners
are non-outside.  All loops are deterministic (ordered numpy reductions), so
results are bitwise reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# scipy is imported by the functions that build and factor the Newton matrix,
# so only a solve's first Newton step loads it; the rest needs numpy.

from .autodiff import _expand
from .bundles import Jet, Phase, project_to_phase
from .errors import (
    DomainError,
    GridDomainError,
    InvalidInputError,
    InvalidParameterError,
    SingularJacobianError,
    _damped_newton,
)
from .lagrangian import LagrangianModel, dL

__all__ = [
    "Grid",
    "GridField",
    "SolveReport",
    "discrete_action",
    "discrete_action_gradient",
    "discrete_el_residual",
    "boundary_momentum",
    "momentum_divergence",
    "solve_dirichlet",
]

OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2

# Corner table: offsets within a cell and the signs of the forward-difference
# coefficients dqdot1/du = sx/(2hx), dqdot2/du = sy/(2hy) at that corner.
_CORNERS = ((0, 0, -1.0, -1.0), (1, 0, 1.0, -1.0),
            (0, 1, -1.0, 1.0), (1, 1, 1.0, 1.0))


def _require_size(nx: int, ny: int) -> None:
    if nx < 3 or ny < 3:
        raise InvalidParameterError(f"grid needs nx, ny >= 3, got {nx} x {ny}")


def _surrounded(inside: np.ndarray) -> np.ndarray:
    """Nodes whose four edge neighbors are all ``inside``; a neighbor past
    the array edge is not."""
    padded = np.pad(inside, 1, constant_values=False)
    return (padded[2:, 1:-1] & padded[:-2, 1:-1]
            & padded[1:-1, 2:] & padded[1:-1, :-2])


def _active_cell_mask(mask: np.ndarray) -> np.ndarray:
    """Cells whose four corners are non-outside, shape (nx-1, ny-1); cell
    (i, j) spans nodes (i..i+1, j..j+1)."""
    inside = mask > OUTSIDE
    return (inside[:-1, :-1] & inside[1:, :-1]
            & inside[:-1, 1:] & inside[1:, 1:])


@dataclass(frozen=True, eq=False)
class Grid:
    """Rectangular node grid with an interior/boundary/outside mask.

    ``mask`` is a 2-D array with values 0 (outside the domain),
    1 (boundary: value prescribed), 2 (interior: value solved for); its
    shape is the grid's (nx, ny).  Every interior node must have its four
    edge neighbors non-outside, and the boundary set must be nonempty.
    Equality on grids is identity.
    """

    hx: float
    hy: float
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 2:
            raise InvalidInputError(f"mask must be 2-D, got shape {mask.shape}")
        _require_size(*mask.shape)
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise InvalidParameterError(
                f"grid spacings must be positive, got hx={self.hx}, hy={self.hy}")
        if not np.isfinite([self.hx, self.hy]).all():
            raise InvalidParameterError(
                f"grid spacings must be finite, got hx={self.hx}, hy={self.hy}")
        if not np.isin(mask, (OUTSIDE, BOUNDARY, INTERIOR)).all():
            raise InvalidInputError("mask entries must be 0, 1 or 2")
        mask = mask.astype(np.int8)
        if np.any((mask == INTERIOR) & ~_surrounded(mask > OUTSIDE)):
            raise InvalidInputError(
                "interior node with an outside (or missing) edge neighbor")
        if not np.any(mask == BOUNDARY):
            raise InvalidInputError("boundary set is empty")
        object.__setattr__(self, "mask", mask)

    @property
    def nx(self) -> int:
        return self.mask.shape[0]

    @property
    def ny(self) -> int:
        return self.mask.shape[1]

    @classmethod
    def square(cls, nx: int, ny: int) -> "Grid":
        """The unit square, spacings 1/(nx-1) and 1/(ny-1): border nodes
        boundary, rest interior."""
        _require_size(nx, ny)
        mask = np.full((nx, ny), INTERIOR, dtype=np.int8)
        mask[0, :] = mask[-1, :] = BOUNDARY
        mask[:, 0] = mask[:, -1] = BOUNDARY
        return cls(hx=1.0 / (nx - 1), hy=1.0 / (ny - 1), mask=mask)

    @classmethod
    def disc_mask(cls, nx: int, ny: int) -> "Grid":
        """Stair-step disc (x-1/2)^2 + (y-1/2)^2 <= 1/4 inside the unit square.

        Inside nodes with all four edge neighbors inside are interior; inside
        nodes touching the outside (or the array edge) form the boundary.
        First-order accurate at the curved boundary by construction.
        """
        _require_size(nx, ny)
        hx, hy = 1.0 / (nx - 1), 1.0 / (ny - 1)
        x = np.arange(nx) * hx
        y = np.arange(ny) * hy
        inside = ((x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2) <= 0.25
        mask = np.where(inside & _surrounded(inside), INTERIOR,
                        np.where(inside, BOUNDARY, OUTSIDE)).astype(np.int8)
        return cls(hx=hx, hy=hy, mask=mask)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nx, ny) with node coordinates."""
        return tuple(np.meshgrid(np.arange(self.nx) * self.hx,
                                 np.arange(self.ny) * self.hy, indexing="ij"))

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        """(k, 2) int array of interior node indices, lexicographic in (i, j)."""
        return np.argwhere(self.mask == INTERIOR)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """(k, 2) int array of boundary node indices, lexicographic in (i, j)."""
        return np.argwhere(self.mask == BOUNDARY)

    @cached_property
    def active_cells(self) -> np.ndarray:
        """(k, 2) int array of cells whose four corners are non-outside; cell
        (i, j) spans nodes (i..i+1, j..j+1)."""
        return np.argwhere(_active_cell_mask(self.mask))


@dataclass(frozen=True, eq=False)
class GridField:
    """Nodal values of a discrete field u: grid -> R^m.

    ``values`` has shape (nx, ny, m) and must be finite on every non-outside
    node; entries at outside nodes are never read (``from_function`` fills
    them with nan).  The array is adopted, not copied.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[:2] != (self.grid.nx, self.grid.ny):
            raise InvalidInputError(
                f"values have shape {values.shape}, expected "
                f"({self.grid.nx}, {self.grid.ny}, m)")
        if values.shape[2] < 1:
            raise InvalidInputError("field needs at least one component")
        if not np.isfinite(values[self.grid.mask > OUTSIDE]).all():
            raise InvalidInputError("non-finite value at a non-outside node")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[2]

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable, m: int) -> "GridField":
        """Sample ``fn`` at every non-outside node in one call: ``fn(x, y)``
        gets the coordinate arrays of those nodes and returns m components,
        each an array of their length or a number, which every node takes.
        Outside nodes hold nan."""
        inside = grid.mask > OUTSIDE
        x, y = (c[inside] for c in grid.node_coords())
        columns = fn(x, y)
        try:
            count = len(columns)
        except TypeError:
            raise InvalidInputError(
                f"function returned {columns!r}, expected {m} components") from None
        if count != m:
            raise InvalidInputError(
                f"function returned {count} components, expected {m}")
        values = np.full((grid.nx, grid.ny, m), np.nan)
        for k, column in enumerate(columns):
            column = np.asarray(column, dtype=float)
            if column.shape not in ((), x.shape):
                raise InvalidInputError(
                    f"component {k} has shape {column.shape}, expected () "
                    f"or {x.shape}")
            values[inside, k] = column
        return cls(grid=grid, values=values)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Dirichlet solve: accepted Newton steps, final max-norm
    of the discrete Euler-Lagrange residual, action at the returned field."""

    converged: bool
    iterations: int
    final_residual: float
    action: float
    message: str = ""


def _require_model_field(model: LagrangianModel, f: GridField) -> None:
    if not isinstance(f, GridField):
        raise InvalidInputError("expected a GridField")
    if f.m != model.m:
        raise InvalidInputError(f"field has m={f.m}, model has m={model.m}")


def _cell_slots(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The 3m jet slots (qbar, qdot1, qdot2) over active cells, (3m, ncells)."""
    ci, cj = grid.active_cells.T
    u00, u10 = values[ci, cj], values[ci + 1, cj]
    u01, u11 = values[ci, cj + 1], values[ci + 1, cj + 1]
    return np.concatenate([0.25 * (u00 + u10 + u01 + u11),
                           (u10 + u11 - u00 - u01) / (2.0 * grid.hx),
                           (u01 + u11 - u00 - u10) / (2.0 * grid.hy)], axis=1).T


def _evaluate_cells(grid: Grid, evaluate: Callable, *args, first: int = 0):
    """``evaluate(*args)``, a pass of L over per-cell slot arrays of the
    active cells first, first + 1, ...; a domain error names the offending
    cell."""
    try:
        return evaluate(*args)
    except DomainError as e:
        cells = grid.active_cells
        cell = None
        if e.component is not None and 0 <= first + e.component < len(cells):
            cell = (int(cells[first + e.component, 0]),
                    int(cells[first + e.component, 1]))
        at = "" if cell is None else f" at cell {cell}"
        raise GridDomainError(f"inadmissible cell jet{at}: {e}", cell=cell) from e


def _cell_values(model: LagrangianModel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """L at every active cell jet, one batched plain evaluation."""
    out = _evaluate_cells(grid, model.L, list(_cell_slots(grid, values)))
    return np.broadcast_to(np.asarray(out, dtype=float), (len(grid.active_cells),))


def _cell_gradients(model: LagrangianModel, grid: Grid,
                    values: np.ndarray) -> np.ndarray:
    """dL/d(slot) at every active cell jet, shape (3m, ncells), from one
    batched first-order pass."""
    out = _evaluate_cells(grid, _expand, model.L, _cell_slots(grid, values), False)
    return np.broadcast_to(np.asarray(out.grad, dtype=float),
                           (3 * model.m, len(grid.active_cells)))


# Hessian entries per second-order pass.  Each (3m, 3m, cells) temporary then
# holds 256 KiB; one pass over all cells makes megabyte temporaries that raise
# the process's peak memory.  Blocks of 32768 entries took the string 33x33
# Hessians from 15.6 to 9.5 ms and the harmonic 257x257 ones from 20.0 to
# 14.8 ms against 8192 (fastest of 20 and 6, 2-vCPU host), bit for bit the
# same, with the same peak memory; 65536 was slower on the string.
_HESSIAN_BLOCK = 32768


def _cell_hessians(model: LagrangianModel, grid: Grid, values: np.ndarray):
    """Per-cell Hessians of L over the 3m jet slots, one batched
    second-order pass per block of cells: yields ``(lo, H)`` with H of shape
    (cells, 3m, 3m) for the active cells lo, lo + 1, ..."""
    k = 3 * model.m
    slots = _cell_slots(grid, values)
    ncells = slots.shape[1]
    step = max(1, _HESSIAN_BLOCK // (k * k))
    for lo in range(0, ncells, step):
        hi = min(lo + step, ncells)
        out = _evaluate_cells(grid, _expand, model.L, slots[:, lo:hi], True,
                              first=lo)
        yield lo, np.moveaxis(np.broadcast_to(out.hess, (k, k, hi - lo)), -1, 0)


def discrete_action(model: LagrangianModel, f: GridField) -> float:
    """Quadrature value of the action: sum of L(cell jet) * hx * hy over
    active cells.  Raises a grid domain error naming the first inadmissible
    cell."""
    _require_model_field(model, f)
    L = _cell_values(model, f.grid, f.values)
    return float(f.grid.hx * f.grid.hy * np.sum(L))


def _nodal_gradient(grid: Grid, G: np.ndarray, m: int) -> np.ndarray:
    """The nodal scatter of the per-cell slot gradient ``G`` (3m, ncells),
    shape (nx, ny, m): each cell corner adds hx*hy times the quarter weight
    of the cell average and the signed forward-difference coefficients
    applied to ``G``, which is exactly the chain rule for the discrete
    action.  The sum runs corner by corner, cells in lexicographic order, so
    it is bitwise reproducible."""
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    area = grid.hx * grid.hy
    Gq = G[:m].T
    Gv1 = G[m:2 * m].T
    Gv2 = G[2 * m:].T
    grad = np.zeros((grid.nx, grid.ny, m))
    for di, dj, sx, sy in _CORNERS:
        grad[ci + di, cj + dj] += area * (0.25 * Gq + (sx / (2.0 * grid.hx)) * Gv1
                                          + (sy / (2.0 * grid.hy)) * Gv2)
    return grad


def discrete_action_gradient(model: LagrangianModel, f: GridField) -> np.ndarray:
    """Exact gradient of ``discrete_action`` with respect to every nodal
    value, shape (nx, ny, m); rows of outside nodes are zero.  Repeated
    evaluation is bitwise reproducible."""
    _require_model_field(model, f)
    return _nodal_gradient(f.grid, _cell_gradients(model, f.grid, f.values), model.m)


def discrete_el_residual(model: LagrangianModel, f: GridField) -> np.ndarray:
    """Discrete Euler-Lagrange residual: the interior block of
    ``discrete_action_gradient``, shape (n_interior, m), rows aligned with
    ``grid.interior_nodes``.

    Zero exactly at a discrete stationary point with Dirichlet data; the
    continuum limit of residual/(hx*hy) is the pointwise Euler-Lagrange
    residual.
    """
    grad = discrete_action_gradient(model, f)
    return grad[f.grid.mask == INTERIOR]


def boundary_momentum(model: LagrangianModel, f: GridField):
    """Per-cell momenta and the boundary part of the action's first variation.

    Returns ``(momenta, pairing)``.  ``momenta`` is the ``Phase`` batch
    ``legendre(model, Jet(qbar, qdot))`` of the cell jets, one point per
    active cell in ``grid.active_cells`` order: q is the cell average and
    p = (dL/dqdot1, dL/dqdot2), bit for bit the momentum rows of the slot
    gradient the action gradient scatters.  ``pairing(delta)`` evaluates the
    boundary-node part of <d(discrete_action), delta> for a nodal variation
    ``delta`` of shape (nx, ny, m): the sum of ``delta`` against the
    boundary rows of that nodal scatter, made when it is called, so

        <gradient, delta> = <interior block, delta> + pairing(delta)

    holds up to float reassociation.  For Lagrangians with no explicit q
    dependence the pairing is the pure flux of the momenta.
    """
    _require_model_field(model, f)
    grid, m = f.grid, model.m
    slots = _cell_slots(grid, f.values)
    c = _evaluate_cells(grid, dL, model, Jet(slots[:m], slots[m:].reshape(2, m, -1)))
    # The pairing keeps its own copy of the slot gradient, so writing to
    # momenta.p leaves it as it was.
    G = np.concatenate([c.a, *c.b])
    boundary = grid.mask == BOUNDARY

    def pairing(delta: np.ndarray) -> float:
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (grid.nx, grid.ny, m):
            raise InvalidInputError(
                f"variation has shape {delta.shape}, expected "
                f"({grid.nx}, {grid.ny}, {m})")
        return float(np.sum(_nodal_gradient(grid, G, m)[boundary] * delta[boundary]))

    return project_to_phase(c), pairing


def momentum_divergence(grid: Grid, momenta: Phase) -> tuple[np.ndarray, np.ndarray]:
    """Discrete divergence D1 p[0] + D2 p[1] of per-cell momenta, one value
    per interior node whose four incident cells are all active.

    ``momenta`` is a ``Phase`` batch with one finite point per active cell of
    ``grid``, in ``grid.active_cells`` order, as ``boundary_momentum``
    returns it; only its p is read.  Returns ``(div, nodes)`` with ``div``
    of shape (k, m) and ``nodes`` the (k, 2) node indices.  The divergence
    is the momentum part of the nodal scatter the action gradient makes,
    divided by -hx*hy: for a Lagrangian with no explicit q dependence the
    Euler-Lagrange residual at such a node equals -hx*hy times this
    divergence, so the conservation form of the field equations reads
    div = 0 at a discrete stationary point.
    """
    if not isinstance(momenta, Phase):
        raise InvalidInputError("momenta must be a Phase")
    ncells, m = len(grid.active_cells), momenta.m
    if momenta.p.shape != (2, m, ncells):
        raise InvalidInputError(
            f"momenta have batch shape {momenta.p.shape[2:]}, expected "
            f"({ncells},), one point per active cell")
    if not np.isfinite(momenta.p).all():
        raise InvalidInputError("non-finite momentum")
    G = np.concatenate([np.zeros((m, ncells)), *momenta.p])
    # Node (i, j) touches cells (i-1..i, j-1..j).
    active = np.pad(_active_cell_mask(grid.mask), 1)
    eligible = ((grid.mask == INTERIOR) & active[:-1, :-1] & active[1:, :-1]
                & active[:-1, 1:] & active[1:, 1:])
    div = _nodal_gradient(grid, G, m)[eligible] / -(grid.hx * grid.hy)
    return div, np.argwhere(eligible)


def _element_blocks(model: LagrangianModel, grid: Grid,
                    values: np.ndarray) -> np.ndarray:
    """Per-cell nodal Hessian blocks of the discrete action on the cell
    lattice, shape (nx-1, ny-1, 4m, 4m): T H T^t * hx*hy at each active
    cell, with H the 3m x 3m slot Hessian and T the (4m x 3m)
    corner-coefficient matrix, and -0.0 at each inactive cell.  Each pass's
    H goes through T into its active cells, so no whole-grid H or T H is
    formed, and the blocks are scaled in place."""
    m = model.m
    coeff = np.array([(0.25, sx / (2.0 * grid.hx), sy / (2.0 * grid.hy))
                      for _, _, sx, sy in _CORNERS])
    T = np.kron(coeff, np.eye(m))
    blocks = np.empty((grid.nx - 1, grid.ny - 1, 4 * m, 4 * m))
    blocks[~_active_cell_mask(grid.mask)] = -0.0
    cells = grid.active_cells
    for lo, H in _cell_hessians(model, grid, values):
        ci, cj = cells[lo:lo + len(H)].T
        blocks[ci, cj] = T @ H @ T.T
    blocks *= grid.hx * grid.hy
    return blocks


# The nine offsets (di, dj) from a node to the nodes it can share a cell with.
_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))

# One (k, a, b) per pair of cell corners: the element-block rows of corner a
# and columns of corner b add to the Newton entries whose row node lies at
# offset _OFFSETS[k] from their column node.  Column corners run (1, 1),
# (1, 0), (0, 1), (0, 0), so each node meets its cells in increasing cell
# order, the order of ``Grid.active_cells``.
_CORNER_PAIRS = tuple(
    (_OFFSETS.index((_CORNERS[a][0] - _CORNERS[b][0],
                     _CORNERS[a][1] - _CORNERS[b][1])), a, b)
    for b in (3, 1, 2, 0) for a in range(4))


def _newton_layout(grid: Grid, dofs: np.ndarray, m: int):
    """The CSC structure of a solve's Newton matrices, built once per solve.

    ``dofs`` holds the flat dof (i*ny + j)*m + c of each unknown, as
    ``_free_dofs`` numbers them; unknown u heads row and column u.  Returns
    ``(indptr, indices, gather)``, int32.  Entry (row, col) is stored,
    zeros included, when an active cell holds the nodes of both unknowns.
    ``gather`` holds each stored entry's position in the flattened stencil
    sums of ``_newton_matrix``, shape (nx, ny, 9, m, m): the column node,
    the offset of the row node from it, the row component and the column
    component.
    """
    nx, ny = grid.nx, grid.ny
    active = np.pad(_active_cell_mask(grid.mask), 1)
    shared = np.zeros((nx, ny, len(_OFFSETS)), dtype=bool)
    for k, _, b in _CORNER_PAIRS:
        bi, bj = _CORNERS[b][:2]
        shared[:, :, k] |= active[1 - bi:1 - bi + nx, 1 - bj:1 - bj + ny]
    node, comp = np.divmod(dofs, m)
    i, j = np.divmod(node, ny)
    # The unknown of each dof of the grid padded by one node, -1 if fixed.
    unknown = np.full((nx + 2, ny + 2, m), -1, dtype=np.int32)
    unknown[i + 1, j + 1, comp] = np.arange(len(dofs), dtype=np.int32)
    # Slot k * m + c of a column holds the row of component c of the node at
    # offset k, or -1 for none.
    di, dj = np.array(_OFFSETS, dtype=np.int32).T
    rows = unknown[i[:, None] + 1 + di, j[:, None] + 1 + dj]
    rows[~shared[i, j]] = -1
    rows = rows.reshape(len(dofs), len(_OFFSETS) * m)
    # Each column's slots in row order, the -1 rows first.
    slot = np.argsort(rows, axis=1, kind="stable").astype(np.int32)
    rows = np.take_along_axis(rows, slot, axis=1)
    stored = rows >= 0
    indptr = np.zeros(len(dofs) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    # The entry in slot k * m + c of column (node, comp) sums at
    # [node, k, c, comp]; the slots become those positions in place.
    slot *= m
    slot += (node * (len(_OFFSETS) * m * m) + comp)[:, None]
    return indptr, rows[stored], slot[stored]


def _newton_matrix(grid: Grid, layout, blocks: np.ndarray):
    """The Newton matrix: the element blocks of ``_element_blocks`` summed
    on the structure ``layout`` of ``_newton_layout``.

    For each stencil offset, each node's entries add the blocks of the (at
    most four) cells that hold the node and its neighbour, in increasing
    cell order, left to right, to a -0.0 start, as in-place slice additions
    over the grid; an inactive cell adds its -0.0 block.  x + (-0.0) is x
    for every x, so the start and the inactive cells drop out exactly,
    where a +0.0 would turn a -0.0 sum into +0.0.  The stored entries are
    then gathered.  The function consumes ``blocks``: a caller that passes
    them inline has them freed before the gather.
    """
    import scipy.sparse

    indptr, indices, gather = layout
    nx, ny, m = grid.nx, grid.ny, blocks.shape[-1] // 4
    sums = np.full((nx, ny, len(_OFFSETS), m, m), -0.0)
    for k, a, b in _CORNER_PAIRS:
        bi, bj = _CORNERS[b][:2]
        sums[bi:bi + nx - 1, bj:bj + ny - 1, k] += (
            blocks[:, :, a * m:(a + 1) * m, b * m:(b + 1) * m])
    del blocks
    nfree = len(indptr) - 1
    return scipy.sparse.csc_matrix((sums.reshape(-1)[gather], indices, indptr),
                                   shape=(nfree, nfree))


# Boxes of at most this many nodes are numbered as they lie, not split.
_DISSECTION_LEAF = 8


def _dissection_order(inodes: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection order of the nodes ``inodes`` ((k, 2)).

    The bounding box of the nodes is split across its longer side by one grid
    line; both halves are numbered, recursively, before that separator line,
    and boxes of at most ``_DISSECTION_LEAF`` nodes are numbered row by row.
    Positions of the box that are not in ``inodes`` (outside a masked domain)
    are dropped.  A box's numbering depends only on its shape, so each shape
    is numbered once.  Returns the permutation ``order`` of ``range(k)``
    that lists ``inodes[order]`` in elimination order.
    """
    if not len(inodes):
        return np.arange(0)
    lo = inodes.min(axis=0)
    numbered = {}

    def number(di: int, dj: int) -> np.ndarray:
        if (di, dj) not in numbered:
            if di * dj <= _DISSECTION_LEAF:
                labels = np.arange(di * dj).reshape(di, dj)
            elif di >= dj:
                a, b = number(di // 2, dj), number(di - di // 2 - 1, dj)
                line = a.size + b.size + np.arange(dj)
                labels = np.concatenate([a, line[None, :], a.size + b], axis=0)
            else:
                a, b = number(di, dj // 2), number(di, dj - dj // 2 - 1)
                line = a.size + b.size + np.arange(di)
                labels = np.concatenate([a, line[:, None], a.size + b], axis=1)
            numbered[di, dj] = labels
        return numbered[di, dj]

    di, dj = inodes.max(axis=0) - lo + 1
    labels = number(int(di), int(dj))
    return np.argsort(labels[inodes[:, 0] - lo[0], inodes[:, 1] - lo[1]])


def _solve_jacobian(J, rhs):
    """The Newton step ``x`` with ``J x = rhs``.

    While every diagonal entry of ``J`` is positive (a positive definite
    matrix has a positive diagonal), ``J`` first goes to the definite trial
    of ``_definite_step``.  Otherwise, or when the trial fails, the step is
    ``_refined_step``'s; only if that refuses it is ``J``, stored zeros
    included, factored with partial pivoting in the MMD(J^T J) column
    order, and a ``RuntimeError`` from that propagates.  No state is kept
    between calls, and no factors outlive one.
    """
    import scipy.sparse.linalg

    if np.all(J.diagonal() > 0.0):
        step = _definite_step(J, rhs)
        if step is not None:
            return step
    step = _refined_step(J, rhs)
    if step is not None:
        return step
    return scipy.sparse.linalg.splu(J, permc_spec="MMD_ATA").solve(rhs)


def _refined_step(J, rhs):
    """The step of ``J x = rhs`` by diagonal pivots and iterative
    refinement, or None if that is refused.

    ``J`` is factored whole, in its own (nested-dissection) order, with
    diagonal pivots; a singular factorization refuses the step.  Each solve
    is followed by the componentwise backward error max_i |r_i| /
    (|J||x| + |rhs|)_i of r = rhs - J x, a zero denominator counting 0,
    and then by a correction solve of r unless, by LAPACK xGERFS's rule,
    the error is at most eps, has not halved, or 5 corrections were made.
    The step is kept if it is finite and its last error is at most 8 eps.
    """
    import scipy.sparse.linalg

    try:
        lu = scipy.sparse.linalg.splu(J, permc_spec="NATURAL",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError:
        return None
    eps, absJ, absb = np.finfo(float).eps, abs(J), np.abs(rhs)
    x, last = lu.solve(rhs), np.inf
    for corrections in range(6):
        if not np.isfinite(x).all():
            return None
        r = rhs - J @ x
        scale = absJ @ np.abs(x) + absb
        error = np.divide(np.abs(r), scale, out=np.zeros(len(r)),
                          where=scale > 0.0).max(initial=0.0)
        if error <= eps or 2.0 * error > last or corrections == 5:
            return x if error <= 8.0 * eps else None
        x, last = x + lu.solve(r), error


def _definite_step(J, rhs):
    """The step of ``J x = rhs`` by diagonal pivots, or None if that does
    not prove ``J`` positive definite.

    Each connected component of ``J`` without its stored zeros (a
    checkerboard of the grid) is a decoupled principal block; a matrix of
    one component is taken as it stands.  The blocks are taken in turn, in
    ``J``'s order, each factored alone in its natural order with diagonal
    pivots, and a block is kept only if no row was swapped and every pivot
    is positive: for a symmetric ``J`` that proves the block positive
    definite.  An exact zero pivot makes ``splu`` raise, which also means
    "not definite".  A kept block's rows of the step are solved, and its
    factors freed, before the next block is factored, so one block's LU is
    alive at a time; a rejected block discards the step.
    """
    import scipy.sparse.linalg
    from scipy.sparse.csgraph import connected_components

    trial = J.copy()
    trial.eliminate_zeros()
    ncomp, labels = connected_components(trial, directed=False)
    # The blocks are cut from J, so the copy is freed before any splu.
    del trial
    order = np.argsort(labels, kind="stable")
    step = np.empty(len(rhs))
    for rows in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        if ncomp == 1:
            block = J
        else:
            block = J[rows][:, rows]
            block.eliminate_zeros()
        try:
            lu = scipy.sparse.linalg.splu(block, permc_spec="NATURAL",
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
        except RuntimeError:
            return None
        del block
        if not (np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0.0)):
            return None
        step[rows] = lu.solve(rhs[rows])
        del lu
    return step


def _free_dofs(grid: Grid, m: int) -> np.ndarray:
    """Numbering of the unknowns: the int32 flat dofs (i*ny + j)*m + c of
    the interior nodes, nodes in nested-dissection order, each node's m
    components contiguous; unknown u is dof ``dofs[u]``."""
    inodes = grid.interior_nodes[_dissection_order(grid.interior_nodes)]
    node_flat = inodes[:, 0] * grid.ny + inodes[:, 1]
    return (node_flat[:, None] * m + np.arange(m)).ravel().astype(np.int32)


def solve_dirichlet(model: LagrangianModel, initial: GridField, *,
                    tol: float = 1e-10,
                    max_iter: int = 50) -> tuple[GridField, SolveReport]:
    """Damped Newton solve of the discrete Euler-Lagrange equations with
    Dirichlet data.

    Input: ``initial`` is the start and carries the whole problem: the grid
    is ``initial.grid``, the Dirichlet data are its values at the boundary
    nodes, and its interior values are the first iterate.  Every cell jet of
    ``initial`` must be admissible.  The returned field lives on the same
    grid and keeps ``initial``'s boundary and outside values bit for bit.

    Iteration: each step solves the Newton system of the interior dofs and
    halves the step, over at most 30 lengths 1, 1/2, ..., 2^-29, until the
    trial field is admissible (L raises no ``DomainError`` at any cell; a
    plain evaluation screens each trial) and strictly lowers the residual
    max-norm.  So accepted steps never raise it.

    Stop reasons, in ``report.message`` (empty when converged): converged,
    when the max-norm of the discrete Euler-Lagrange residual is at most
    ``tol``; "iteration cap N reached" after ``max_iter`` steps; and "line
    search stalled" when no admissible trial lowered the residual.  The last
    two return the best iterate with ``report.converged`` false.

    Errors: ``InvalidInputError`` when ``initial`` is not a ``GridField``, its
    m is not the model's, or L drops Taylor numbers; ``InvalidParameterError``
    for a ``tol`` that is not positive and finite or a ``max_iter`` below 1;
    ``GridDomainError`` naming the cell when a start cell is inadmissible,
    and without one when no step length restores admissibility;
    ``DomainError`` when the start residual is not finite; and
    ``SingularJacobianError`` when a Newton system is singular or its step
    is not finite.

    Factorization policy: the unknowns are the one array ``dofs`` of flat
    dof indices (i*ny + j)*m + c from ``_free_dofs``, interior nodes in
    geometric nested-dissection order with each node's components
    contiguous; the field, the residual and the step index the flattened
    nodal values with it.  Each Newton matrix is summed once per step
    on a structure built once per solve (``_newton_layout``,
    ``_newton_matrix``).  While the diagonal is positive, a step first
    factors each decoupled block of the matrix on its own, in natural order
    with diagonal pivots, and keeps the step only if no row was swapped and
    every pivot is positive, which proves the matrix positive definite (the
    harmonic and sigma models).  Otherwise (the string) the matrix is
    factored once, whole, in the same order with diagonal pivots, and its
    step is refined to a componentwise backward error of at most 8 machine
    epsilons (``_refined_step``); only a refused step is solved again with
    partial pivoting in the MMD(J^T J) column order.  No step depends on an
    earlier one, one factorization is alive at a time, and none outlives
    its step.
    """
    _require_model_field(model, initial)
    grid, m = initial.grid, model.m
    dofs = _free_dofs(grid, m)

    def field(x: np.ndarray) -> np.ndarray:
        u = initial.values.copy()
        u.reshape(-1)[dofs] = x
        return u

    def residual(x: np.ndarray) -> np.ndarray:
        u = field(x)
        # The plain pass screens a trial before the gradient pass, which
        # costs five times as much: on the first draws of the string-33
        # benchmark, seeds 1-5, it turned away 274 of 645 trials, at 0.35 ms
        # a pass against 1.78 ms for a gradient pass (means, 2-vCPU host).
        _cell_values(model, grid, u)
        return discrete_action_gradient(
            model, GridField(grid=grid, values=u)).reshape(-1)[dofs]

    layout = _newton_layout(grid, dofs, m)

    def newton_step(x: np.ndarray, F: np.ndarray, iterations: int) -> np.ndarray:
        # The field, its element blocks and the Newton matrix are passed on,
        # not bound, so each is freed as soon as its consumer drops it
        # (binding the field put harmonic-257 peak RSS at 170 MB in 7 of 10
        # seeded runs, 2-vCPU host, against 158-162 MB); _solve_jacobian
        # returns the step alone, so no factors reach here.
        try:
            step = _solve_jacobian(_newton_matrix(
                grid, layout, _element_blocks(model, grid, field(x))), -F)
        except RuntimeError as e:
            raise SingularJacobianError(
                f"Newton system is singular at iteration {iterations}: {e}") from e
        if not np.isfinite(step).all():
            raise SingularJacobianError(
                f"Newton step is non-finite at iteration {iterations}")
        return step

    x, res_norm, iterations, stop = _damped_newton(
        residual, newton_step, initial.values.reshape(-1)[dofs],
        discrete_action_gradient(model, initial).reshape(-1)[dofs], tol, max_iter)
    if stop == "inadmissible":
        raise GridDomainError(
            f"line search could not restore admissibility at iteration {iterations}")
    message = {"converged": "", "cap": f"iteration cap {max_iter} reached",
               "stalled": "line search stalled: no step decreased the residual"}[stop]
    final = GridField(grid=grid, values=field(x))
    return final, SolveReport(converged=stop == "converged", iterations=iterations,
                              final_residual=res_norm,
                              action=discrete_action(model, final),
                              message=message)
