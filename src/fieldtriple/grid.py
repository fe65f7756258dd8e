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
the pairing functional returned by ``boundary_momentum`` re-sums exactly the
per-cell corner contributions that land on boundary nodes.  At a discrete
stationary point with Dirichlet data the interior block vanishes, so the
boundary pairing alone reproduces the action's first variation.

Lagrangians must be written in generic arithmetic (as the built-in catalog
models are): the solver evaluates them on Taylor numbers with array-valued
channels, one batched pass over all active cells for the slot gradients and
batched second-order passes over blocks of cells for the slot Hessians.

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

from .autodiff import Taylor, _expand
from .errors import (
    DomainError,
    GridDomainError,
    InvalidInputError,
    InvalidParameterError,
    SingularJacobianError,
    _damped_newton,
)
from .lagrangian import LagrangianModel

__all__ = [
    "Grid",
    "GridField",
    "GridMomentum",
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

    ``mask`` has shape (nx, ny) with values 0 (outside the domain),
    1 (boundary: value prescribed), 2 (interior: value solved for).  Every
    interior node must have its four edge neighbors non-outside, and the
    boundary set must be nonempty.  Equality on grids is identity; use
    ``same_layout`` for structural comparison.
    """

    nx: int
    ny: int
    hx: float
    hy: float
    mask: np.ndarray

    def __post_init__(self):
        _require_size(self.nx, self.ny)
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise InvalidParameterError(
                f"grid spacings must be positive, got hx={self.hx}, hy={self.hy}")
        mask = np.asarray(self.mask)
        if mask.shape != (self.nx, self.ny):
            raise InvalidInputError(
                f"mask has shape {mask.shape}, expected ({self.nx}, {self.ny})")
        if not np.isin(mask, (OUTSIDE, BOUNDARY, INTERIOR)).all():
            raise InvalidInputError("mask entries must be 0, 1 or 2")
        mask = mask.astype(np.int8)
        if np.any((mask == INTERIOR) & ~_surrounded(mask > OUTSIDE)):
            raise InvalidInputError(
                "interior node with an outside (or missing) edge neighbor")
        if not np.any(mask == BOUNDARY):
            raise InvalidInputError("boundary set is empty")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def square(cls, nx: int, ny: int) -> "Grid":
        """The unit square, spacings 1/(nx-1) and 1/(ny-1): border nodes
        boundary, rest interior."""
        _require_size(nx, ny)
        mask = np.full((nx, ny), INTERIOR, dtype=np.int8)
        mask[0, :] = mask[-1, :] = BOUNDARY
        mask[:, 0] = mask[:, -1] = BOUNDARY
        return cls(nx=nx, ny=ny, hx=1.0 / (nx - 1), hy=1.0 / (ny - 1), mask=mask)

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
        return cls(nx=nx, ny=ny, hx=hx, hy=hy, mask=mask)

    def same_layout(self, other: "Grid") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and self.hx == other.hx and self.hy == other.hy
                and np.array_equal(self.mask, other.mask))

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nx, ny) with node coordinates."""
        x = np.arange(self.nx) * self.hx
        y = np.arange(self.ny) * self.hy
        return (np.broadcast_to(x[:, None], (self.nx, self.ny)).copy(),
                np.broadcast_to(y[None, :], (self.nx, self.ny)).copy())

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
        """Sample ``fn(x, y) -> length-m sequence`` at every non-outside node."""
        values = np.full((grid.nx, grid.ny, m), np.nan)
        x, y = grid.node_coords()
        for i, j in np.argwhere(grid.mask > OUTSIDE):
            v = np.asarray(fn(x[i, j], y[i, j]), dtype=float)
            if v.shape != (m,):
                raise InvalidInputError(
                    f"function returned shape {v.shape}, expected ({m},)")
            values[i, j] = v
        return cls(grid=grid, values=values)


@dataclass(frozen=True, eq=False)
class GridMomentum:
    """Per-cell momenta (p1, p2) = (dL/dqdot1, dL/dqdot2) at the cell jets.

    ``p1`` and ``p2`` have shape (nx-1, ny-1, m); entries are finite on
    active cells and nan elsewhere.
    """

    grid: Grid
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx - 1, self.grid.ny - 1)
        for name in ("p1", "p2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 3 or arr.shape[:2] != shape:
                raise InvalidInputError(
                    f"{name} has shape {arr.shape}, expected {shape} + (m,)")
            object.__setattr__(self, name, arr)
        if self.p1.shape != self.p2.shape:
            raise InvalidInputError("p1 and p2 must have the same shape")
        cells = self.grid.active_cells
        if not (np.isfinite(self.p1[cells[:, 0], cells[:, 1]]).all()
                and np.isfinite(self.p2[cells[:, 0], cells[:, 1]]).all()):
            raise InvalidInputError("non-finite momentum on an active cell")

    @property
    def m(self) -> int:
        return self.p1.shape[2]


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


def _cell_jets(grid: Grid, values: np.ndarray):
    """Cell-jet blocks (qbar, qdot1, qdot2), each (ncells, m), over active cells."""
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    u00 = values[ci, cj]
    u10 = values[ci + 1, cj]
    u01 = values[ci, cj + 1]
    u11 = values[ci + 1, cj + 1]
    qbar = 0.25 * (u00 + u10 + u01 + u11)
    qdot1 = (u10 + u11 - u00 - u01) / (2.0 * grid.hx)
    qdot2 = (u01 + u11 - u00 - u10) / (2.0 * grid.hy)
    return qbar, qdot1, qdot2


def _wrap_cell_domain_error(grid: Grid, e: DomainError,
                            first: int) -> GridDomainError:
    cells = grid.active_cells
    cell = None
    if e.component is not None and 0 <= first + e.component < len(cells):
        cell = (int(cells[first + e.component, 0]),
                int(cells[first + e.component, 1]))
    at = "" if cell is None else f" at cell {cell}"
    return GridDomainError(f"inadmissible cell jet{at}: {e}", cell=cell)


def _cell_slots(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The 3m jet slots (qbar, qdot1, qdot2) over active cells, (3m, ncells)."""
    return np.concatenate(_cell_jets(grid, values), axis=1).T


def _evaluate_cells(grid: Grid, evaluate: Callable, *args, first: int = 0):
    """``evaluate(*args)``, a pass of L over per-cell slot arrays of the
    active cells first, first + 1, ...; a domain error names the offending
    cell."""
    try:
        return evaluate(*args)
    except DomainError as e:
        raise _wrap_cell_domain_error(grid, e, first) from e


def _cell_values(model: LagrangianModel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """L at every active cell jet, one batched plain evaluation."""
    out = _evaluate_cells(grid, model.L, list(_cell_slots(grid, values)))
    return np.broadcast_to(np.asarray(out, dtype=float), (len(grid.active_cells),))


def _cell_expansion(model: LagrangianModel, grid: Grid, slots: np.ndarray,
                    second: bool, first: int = 0) -> Taylor:
    """L as one batched Taylor pass seeded on the 3m rows of ``slots``, one
    column per active cell from ``first`` on."""
    return _evaluate_cells(grid, _expand, model.L, slots, second, first=first)


def _cell_gradients(model: LagrangianModel, grid: Grid,
                    values: np.ndarray) -> np.ndarray:
    """dL/d(slot) at every active cell jet, shape (3m, ncells), from one
    batched first-order pass."""
    out = _cell_expansion(model, grid, _cell_slots(grid, values), second=False)
    return np.broadcast_to(np.asarray(out.grad, dtype=float),
                           (3 * model.m, len(grid.active_cells)))


# Hessian entries per second-order pass.  Each (3m, 3m, cells) temporary then
# holds 256 KiB; one pass over all cells makes megabyte temporaries that raise
# the process's peak memory.  Blocks of 32768 entries took the string 33x33
# Hessians from 15.6 to 9.5 ms and the harmonic 257x257 ones from 20.0 to
# 14.8 ms against 8192 (fastest of 20 and 6, 2-vCPU host), bit for bit the
# same, with the same peak memory; 65536 was slower on the string.
_HESSIAN_BLOCK = 32768


def _cell_hessians(model: LagrangianModel, grid: Grid,
                   values: np.ndarray) -> np.ndarray:
    """Per-cell Hessian of L over the 3m jet slots, shape (ncells, 3m, 3m),
    from batched second-order passes over blocks of cells."""
    k = 3 * model.m
    slots = _cell_slots(grid, values)
    ncells = slots.shape[1]
    step = max(1, _HESSIAN_BLOCK // (k * k))
    H = np.empty((ncells, k, k))
    for lo in range(0, ncells, step):
        hi = min(lo + step, ncells)
        out = _cell_expansion(model, grid, slots[:, lo:hi], True, first=lo)
        H[lo:hi] = np.moveaxis(np.broadcast_to(out.hess, (k, k, hi - lo)), -1, 0)
    return H


def discrete_action(model: LagrangianModel, f: GridField) -> float:
    """Quadrature value of the action: sum of L(cell jet) * hx * hy over
    active cells.  Raises a grid domain error naming the first inadmissible
    cell."""
    _require_model_field(model, f)
    L = _cell_values(model, f.grid, f.values)
    return float(f.grid.hx * f.grid.hy * np.sum(L))


def _corner_coefficients(grid: Grid, G: np.ndarray, m: int):
    """Per-corner nodal contributions of the per-cell slot gradient ``G``.

    Yields (node_i, node_j, contrib (ncells, m)) for each of the four cell
    corners; ``contrib`` already carries the quadrature weight hx*hy, the
    quarter weight of the cell average and the signed forward-difference
    coefficients.  Summing contributions over incident cells is exactly the
    chain rule for the discrete action.
    """
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    area = grid.hx * grid.hy
    Gq = G[:m].T
    Gv1 = G[m:2 * m].T
    Gv2 = G[2 * m:].T
    for di, dj, sx, sy in _CORNERS:
        contrib = area * (0.25 * Gq + (sx / (2.0 * grid.hx)) * Gv1
                          + (sy / (2.0 * grid.hy)) * Gv2)
        yield ci + di, cj + dj, contrib


def discrete_action_gradient(model: LagrangianModel, f: GridField) -> np.ndarray:
    """Exact gradient of ``discrete_action`` with respect to every nodal
    value, shape (nx, ny, m); rows of outside nodes are zero.

    Accumulation order is fixed (corner by corner, cells in lexicographic
    order), so repeated evaluation is bitwise reproducible.
    """
    _require_model_field(model, f)
    grid = f.grid
    G = _cell_gradients(model, grid, f.values)
    grad = np.zeros((grid.nx, grid.ny, model.m))
    for ni, nj, contrib in _corner_coefficients(grid, G, model.m):
        grad[ni, nj] += contrib
    return grad


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

    Returns ``(momenta, pairing)``: ``momenta`` holds (p1, p2) =
    (dL/dqdot1, dL/dqdot2) at every active cell jet, and ``pairing(delta)``
    evaluates the boundary-node part of <d(discrete_action), delta> for a
    nodal variation ``delta`` of shape (nx, ny, m).  The pairing re-sums the
    same per-cell corner terms the gradient accumulates (momentum flux through
    the forward differences plus the quarter-weighted dL/dq share of boundary
    corners), so

        <gradient, delta> = <interior block, delta> + pairing(delta)

    holds up to float reassociation.  For Lagrangians with no explicit q
    dependence the pairing is the pure flux of (p1, p2).
    """
    _require_model_field(model, f)
    grid = f.grid
    m = model.m
    G = _cell_gradients(model, grid, f.values)
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    nan_shape = (grid.nx - 1, grid.ny - 1, m)
    p1 = np.full(nan_shape, np.nan)
    p2 = np.full(nan_shape, np.nan)
    p1[ci, cj] = G[m:2 * m].T
    p2[ci, cj] = G[2 * m:].T
    momenta = GridMomentum(grid=grid, p1=p1, p2=p2)

    corner_terms = []
    for ni, nj, contrib in _corner_coefficients(grid, G, m):
        on_boundary = grid.mask[ni, nj] == BOUNDARY
        corner_terms.append((ni[on_boundary], nj[on_boundary],
                             contrib[on_boundary]))

    def pairing(delta: np.ndarray) -> float:
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (grid.nx, grid.ny, m):
            raise InvalidInputError(
                f"variation has shape {delta.shape}, expected "
                f"({grid.nx}, {grid.ny}, {m})")
        total = 0.0
        for ni, nj, contrib in corner_terms:
            if len(ni):
                total += float(np.sum(contrib * delta[ni, nj]))
        return total

    return momenta, pairing


def momentum_divergence(mom: GridMomentum) -> tuple[np.ndarray, np.ndarray]:
    """Discrete divergence D1 p1 + D2 p2 of per-cell momenta, one value per
    interior node whose four incident cells are all active.

    Returns ``(div, nodes)`` with ``div`` of shape (k, m) and ``nodes`` the
    (k, 2) node indices.  Cell differences are averaged over the transverse
    pair exactly as the action gradient accumulates them: for a Lagrangian
    with no explicit q dependence the Euler-Lagrange residual at such a node
    equals -hx*hy times this divergence, so the conservation form of the
    field equations reads div = 0 at a discrete stationary point.
    """
    grid = mom.grid
    cell_active = _active_cell_mask(grid.mask)
    # Node (i, j) touches cells (i-1..i, j-1..j).
    eligible = np.zeros((grid.nx, grid.ny), dtype=bool)
    eligible[1:-1, 1:-1] = ((grid.mask == INTERIOR)[1:-1, 1:-1]
                            & cell_active[:-1, :-1] & cell_active[1:, :-1]
                            & cell_active[:-1, 1:] & cell_active[1:, 1:])
    nodes = np.argwhere(eligible)
    ni, nj = nodes[:, 0], nodes[:, 1]
    p1, p2 = mom.p1, mom.p2
    d1 = ((p1[ni, nj - 1] + p1[ni, nj] - p1[ni - 1, nj - 1] - p1[ni - 1, nj])
          / (2.0 * grid.hx))
    d2 = ((p2[ni - 1, nj] + p2[ni, nj] - p2[ni - 1, nj - 1] - p2[ni, nj - 1])
          / (2.0 * grid.hy))
    return d1 + d2, nodes


def _element_blocks(model: LagrangianModel, grid: Grid,
                    values: np.ndarray) -> np.ndarray:
    """Per-cell nodal Hessian blocks of the discrete action, shape
    (ncells, 4m, 4m): T H T^t * hx*hy, with H the 3m x 3m slot Hessian and T
    the (4m x 3m) corner-coefficient matrix."""
    m = model.m
    H = _cell_hessians(model, grid, values)
    coeff = np.array([(0.25, sx / (2.0 * grid.hx), sy / (2.0 * grid.hy))
                      for _, _, sx, sy in _CORNERS])
    T = np.zeros((4 * m, 3 * m))
    for c in range(4):
        for blk in range(3):
            T[c * m:(c + 1) * m, blk * m:(blk + 1) * m] = (
                coeff[c, blk] * np.eye(m))
    return grid.hx * grid.hy * (T @ H @ T.T)


def _cell_unknowns(grid: Grid, free_dof: np.ndarray, m: int) -> np.ndarray:
    """The unknown of each active cell's 4m corner dofs, in element-block
    order, shape (ncells, 4m); -1 marks a fixed dof."""
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    corner_flat = np.stack([(ci + di) * grid.ny + (cj + dj)
                            for di, dj, _, _ in _CORNERS], axis=1)
    dofs = (corner_flat[:, :, None] * m + np.arange(m)).reshape(len(cells), 4 * m)
    return free_dof[dofs]


def _assemble_jacobian(grid: Grid, blocks: np.ndarray, free_dof: np.ndarray,
                       nfree: int):
    """Sparse Hessian of the discrete action restricted to the free dofs,
    from the element blocks of ``_element_blocks``.

    The blocks land in a COO triplet list, and duplicate entries are summed
    on conversion to CSC.  The function consumes ``blocks``: it drops its
    reference once the triplets are gathered, so a caller that passes them
    inline has them freed before the conversion.  Each solve builds its
    first Newton matrix here; ``_fill_plan`` reproduces this sum bit for bit
    for the later ones.
    """
    import scipy.sparse

    free = _cell_unknowns(grid, free_dof, blocks.shape[1] // 4)
    rows = np.broadcast_to(free[:, :, None], blocks.shape)
    cols = np.broadcast_to(free[:, None, :], blocks.shape)
    valid = (rows >= 0) & (cols >= 0)
    J = scipy.sparse.coo_matrix(
        (blocks[valid], (rows[valid], cols[valid])), shape=(nfree, nfree))
    # tocsc allocates the CSC arrays beside the triplets; on harmonic 257x257
    # the blocks (8.4 MB) kept alive through it would raise the solve's peak.
    del blocks, free, rows, cols, valid
    return J.tocsc()


def _fill_plan(grid: Grid, free_dof: np.ndarray, nfree: int, m: int):
    """How ``_assemble_jacobian`` sums the element blocks into CSC form.

    Returns ``(indptr, indices, first, later)``: the CSC structure, stored
    zeros included, and where each stored entry's summands sit in the
    flattened (ncells, 4m, 4m) block array.  ``first`` holds every entry's
    first summand; the k-th pair ``(entries, positions)`` of ``later`` holds
    the (k+1)-th summand of the entries that have one.  ``tocsc`` groups the
    triplets by column, stably, sorts each column by row with an unstable
    sort, and adds each run of equal rows left to right.  That sort compares
    rows only, so running it once on triplet positions in place of values
    gives the order in which the values are summed at every step.  The plan
    depends only on the grid and the free dofs; its arrays are int32.
    """
    import scipy.sparse

    free = _cell_unknowns(grid, free_dof, m)
    n = free.shape[1]
    # Column k of cell c's block holds the triplets of unknown free[c, k], one
    # per free row.  Ordering the (c, k) pairs by that unknown, stably, lists
    # every column's triplets by cell and row, as tocsc's grouping does.
    pairs = np.flatnonzero(free >= 0)
    pairs = pairs[np.argsort(free.reshape(-1)[pairs], kind="stable")]
    cell, k = np.divmod(pairs, n)
    rows = free[cell]
    valid = rows >= 0
    pos = ((cell * n * n + k)[:, None] + n * np.arange(n))[valid].astype(np.int32)
    cols = np.repeat(free.reshape(-1)[pairs], np.count_nonzero(valid, axis=1))
    rows = rows[valid]
    # Each temporary is freed once spent: the build then peaks at 7.6 MB
    # (traced) on the string 33x33, against 7.0 MB for one COO assembly.
    del pairs, cell, k, valid
    indptr = np.zeros(nfree + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=nfree), out=indptr[1:])
    grouped = scipy.sparse.csc_matrix((pos, rows, indptr), shape=(nfree, nfree))
    grouped.sort_indices()
    rows, pos = grouped.indices, grouped.data
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    del cols
    # counts[t] is the number of stored entries before triplet t.
    counts = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(starts, out=counts[1:])
    heads = np.flatnonzero(starts).astype(np.int32)
    del starts
    entry = counts[1:] - 1
    rank = np.arange(len(rows), dtype=np.int32) - heads[entry]
    later = []
    for summand in range(1, int(rank.max(initial=0)) + 1):
        sel = rank == summand
        later.append((entry[sel], pos[sel]))
    return counts[indptr], rows[heads], pos[heads], later


def _fill_jacobian(plan, blocks: np.ndarray):
    """The Newton matrix summed from the element blocks by a ``_fill_plan``
    plan: bit for bit the matrix ``_assemble_jacobian`` builds from them."""
    import scipy.sparse

    indptr, indices, first, later = plan
    flat = blocks.reshape(-1)
    data = flat[first]
    for entries, positions in later:
        data[entries] += flat[positions]
    n = len(indptr) - 1
    return scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))


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


def _solve_jacobian(J, rhs, fallback):
    """The Newton step ``x`` with ``J x = rhs``; returns ``(x, fallback)``.

    ``fallback`` is the solve's state: None until a step has needed partial
    pivoting, then the column order of that first fallback.  While it is
    None and every diagonal entry of ``J`` is positive (a positive definite
    matrix has a positive diagonal), ``J`` first goes to the definite trial
    of ``_definite_step``.  When the trial fails, ``J`` itself, stored zeros
    included, is factored with partial pivoting in the MMD(J^T J) column
    order, and ``fallback`` becomes its final column order
    ``argsort(lu.perm_c)``.  Every later step factors ``J[:, fallback]`` in
    its natural order with the same pivoting and solves for ``x[fallback]``.
    That is exact: ``J``'s stored pattern depends only on the grid and the
    free dofs, so MMD(J^T J) would give the same order again, and the
    factors, row pivots and step are bitwise those of a fresh ``MMD_ATA``
    factorization.  A ``RuntimeError`` from a fallback propagates.  No
    factors outlive the call.
    """
    import scipy.sparse.linalg

    if fallback is not None:
        step = np.empty(len(rhs))
        step[fallback] = scipy.sparse.linalg.splu(
            J[:, fallback], permc_spec="NATURAL").solve(rhs)
        return step, fallback
    if np.all(J.diagonal() > 0.0):
        step = _definite_step(J, rhs)
        if step is not None:
            return step, None
    lu = scipy.sparse.linalg.splu(J, permc_spec="MMD_ATA")
    return lu.solve(rhs), np.argsort(lu.perm_c)


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


def _free_dofs(grid: Grid, m: int):
    """Numbering of the unknowns: ``(inodes, free_dof)`` with ``inodes`` the
    interior nodes in nested-dissection order and ``free_dof`` mapping the
    flat dof (i*ny + j)*m + c to its unknown, -1 where the dof is fixed."""
    inodes = grid.interior_nodes[_dissection_order(grid.interior_nodes)]
    free_dof = np.full(grid.nx * grid.ny * m, -1, dtype=np.int32)
    node_flat = inodes[:, 0] * grid.ny + inodes[:, 1]
    for c in range(m):
        free_dof[node_flat * m + c] = np.arange(len(inodes)) * m + c
    return inodes, free_dof


def solve_dirichlet(model: LagrangianModel, grid: Grid,
                    boundary_values: np.ndarray, initial: GridField, *,
                    tol: float = 1e-10,
                    max_iter: int = 50) -> tuple[GridField, SolveReport]:
    """Damped Newton solve of the discrete Euler-Lagrange equations with
    Dirichlet data.

    ``boundary_values`` has shape (n_boundary, m), rows aligned with
    ``grid.boundary_nodes``; ``initial`` must carry exactly those values on
    the boundary and admissible cell jets.  Each Newton step solves the
    sparse interior Hessian system by direct factorization, and the line
    search ``legendre_invert`` shares halves the step (at most 30 lengths)
    until the trial iterate is admissible and strictly decreases the
    residual max-norm, so accepted steps never increase it.
    L's own ``DomainError`` is the one admissibility test: each trial is
    first screened by a plain evaluation of L at every cell, which rejects an
    inadmissible string 33x33 trial in 0.3 ms where the gradient pass would
    fail only after 1.4 ms, and without counting as a gradient evaluation;
    the start's one gradient pass is its own screen.

    The interior dofs are numbered in geometric nested-dissection order.
    When the Hessian's diagonal is positive, a step first factors it in that
    order with diagonal pivots and keeps the factors only if no row was
    swapped and every pivot is positive, which proves the system positive
    definite (the harmonic and sigma models: elliptic field equations).  The
    trial factors each decoupled block of the Hessian on its own: with
    hx = hy the cell term |qdot|^2 is ((u11 - u00)^2 + (u10 - u01)^2) / 2h^2,
    which couples nodes only across cell diagonals, so the harmonic system
    splits into two checkerboards per component, and the sigma system, whose
    constant target metric couples the components, into two.  Each block's
    rows of the step are solved, and its factors freed, before the next
    block is factored, so one block's factors are alive at a time: that took
    harmonic 257x257 benchmark runs from 160.5 MB peak, with all the blocks
    factored as one block-diagonal matrix, to 148.0 MB (medians of ten 40 s
    runs, 2-vCPU host), and the step is bit for bit the same.  Otherwise the
    step factors the Hessian as assembled with partial pivoting in the
    MMD(J^T J) column order (the string: indefinite, hyperbolic, with a
    negative diagonal, so no trial runs).  Later steps of the solve skip the
    trial and reuse that first fallback's column order, which is computed
    once per solve: the Hessian's stored pattern is the same at every step,
    so MMD(J^T J) would give the same order again, and the factors and the
    step are bitwise those of a fresh MMD(J^T J) factorization.  On the
    harmonic 257x257 solve L + U hold 2.57 M nonzeros, against 4.59 M with
    splu's default COLAMD order, and factoring the two checkerboards apart
    halves the factorization time; on the string 33x33, L + U hold 1.11 M
    against 1.20 M, and reusing the order takes a step's splu from 0.101 to
    0.075 s (first Newton matrix, 3,844 unknowns).

    Each Newton matrix sums the per-cell element blocks.  The solve's first
    matrix is summed as a COO triplet list on conversion to CSC, and its
    blocks are freed once the triplets are gathered, before the conversion:
    that took the harmonic 257x257 peak from 148.6 to 133.2 MB (medians of
    ten paired 40 s runs, 2-vCPU host), bit for bit the same matrix.  When the
    solve needs a second matrix it builds a fill plan, once: the CSC
    structure and, per stored entry, where its summands sit in the block
    array, in the order the conversion adds them.  Every later matrix is
    filled from the plan, bit for bit the COO sum.  The first matrix keeps
    the COO path because a plan pays off only over later steps, and a solve
    may take one step: harmonic 257x257 solves do, and a plan would cost
    them 0.11 s and 34 MB (traced) on top of the 0.05 s and 31 MB of the COO
    sum.  On the string 33x33 the plan takes 16 ms, and each later sum 2.4 ms
    against 7.7 ms.

    Returns ``(field, report)``.  Non-convergence (stalled line search or
    iteration cap) is reported through ``report.converged`` with the best
    iterate returned; a step that cannot restore admissibility at any
    length raises a grid domain error.
    """
    _require_model_field(model, initial)
    if not (initial.grid is grid or initial.grid.same_layout(grid)):
        raise InvalidInputError("initial field lives on a different grid")
    m = model.m
    bnodes = grid.boundary_nodes
    bvals = np.asarray(boundary_values, dtype=float)
    if bvals.shape != (len(bnodes), m):
        raise InvalidInputError(
            f"boundary values have shape {bvals.shape}, expected "
            f"({len(bnodes)}, {m})")
    if not np.array_equal(initial.values[bnodes[:, 0], bnodes[:, 1]], bvals):
        raise InvalidInputError("initial field does not satisfy the boundary values")

    inodes, free_dof = _free_dofs(grid, m)
    ii, jj = inodes[:, 0], inodes[:, 1]
    nfree = len(inodes) * m

    def field(x: np.ndarray) -> np.ndarray:
        u = initial.values.copy()
        u[ii, jj] = x
        return u

    def residual(x: np.ndarray) -> np.ndarray:
        u = field(x)
        _cell_values(model, grid, u)
        return discrete_action_gradient(model, GridField(grid=grid, values=u))[ii, jj]

    fallback = plan = None

    def newton_step(x: np.ndarray, F: np.ndarray, iterations: int) -> np.ndarray:
        # The field and its element blocks are passed on, not bound, so they
        # are freed before splu (binding the field put harmonic-257 peak RSS
        # at 170 MB in 7 of 10 seeded runs, 2-vCPU host, against 158-162 MB);
        # _solve_jacobian returns the step alone, so no factors reach here.
        nonlocal fallback, plan
        if iterations == 0:
            J = _assemble_jacobian(grid, _element_blocks(model, grid, field(x)),
                                   free_dof, nfree)
        else:
            if plan is None:
                plan = _fill_plan(grid, free_dof, nfree, m)
            J = _fill_jacobian(plan, _element_blocks(model, grid, field(x)))
        try:
            step, fallback = _solve_jacobian(J, -F.ravel(), fallback)
        except RuntimeError as e:
            raise SingularJacobianError(
                f"Newton system is singular at iteration {iterations}: {e}") from e
        if not np.isfinite(step).all():
            raise SingularJacobianError(
                f"Newton step is non-finite at iteration {iterations}")
        return step.reshape(len(inodes), m)

    x, res_norm, iterations, stop = _damped_newton(
        residual, newton_step, initial.values[ii, jj],
        discrete_action_gradient(model, initial)[ii, jj], tol, max_iter)
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
