"""Test-side helpers: a finite-difference gradient oracle, random bundle
points, a model pair whose Lagrangian depends on q, so the source term
dL/dq = -dH/dq of the phase equations is nonzero, the target symmetries
of the catalog models, and two reference sums of a Newton matrix."""

import numpy as np
import scipy.sparse

from fieldtriple.autodiff import ScalarField, Taylor, _point
from fieldtriple.bundles import _N, Jet, JetTangent, Phase, PhaseJet, PhaseTangent
from fieldtriple.errors import DomainError, InvalidParameterError
from fieldtriple.grid import _CORNERS
from fieldtriple.hamiltonian import HamiltonianModel
from fieldtriple.lagrangian import LagrangianModel
from fieldtriple.models import sigma_metric


def fd_grad(f: ScalarField, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, independent of the Taylor path.

    The step for coordinate i is h*max(1, |x[i]|) so the stencil stays
    well-scaled for both small and large coordinates.
    """
    if h <= 0.0:
        raise InvalidParameterError(f"finite-difference step must be positive, got {h}")
    x = _point(f, x)
    out = np.empty(f.arity)
    for i in range(f.arity):
        hi = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        fp = f(list(xp))
        fm = f(list(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DomainError(f"non-finite value on the stencil of coordinate {i}",
                              component=i)
        out[i] = (fp - fm) / (2.0 * hi)
    return out


def random_jet(rng: np.random.Generator, m: int) -> Jet:
    return Jet(q=rng.standard_normal(m), qdot=rng.standard_normal((_N, m)))


def random_phase(rng: np.random.Generator, m: int) -> Phase:
    return Phase(q=rng.standard_normal(m), p=rng.standard_normal((_N, m)))


def random_phase_jet(rng: np.random.Generator, m: int,
                     base: Phase | None = None) -> PhaseJet:
    """Direction-major draws after the base: (qdot[j], pdot[j, 0],
    pdot[j, 1]) for each direction j."""
    if base is None:
        base = random_phase(rng, m)
    x = rng.standard_normal((_N, 1 + _N, m))
    return PhaseJet(base=base, qdot=x[:, 0], pdot=x[:, 1:])


def random_jet_tangent(rng: np.random.Generator, m: int,
                       jet: Jet | None = None) -> JetTangent:
    if jet is None:
        jet = random_jet(rng, m)
    return JetTangent(jet=jet, dq=rng.standard_normal(m),
                      dqdot=rng.standard_normal((_N, m)))


def random_phase_tangent(rng: np.random.Generator,
                         phase: Phase) -> PhaseTangent:
    m = phase.m
    return PhaseTangent(phase=phase, dq=rng.standard_normal(m),
                        dp=rng.standard_normal((_N, m)))


def _require_upper(q2) -> None:
    value = q2.value if isinstance(q2, Taylor) else q2
    if not np.all(np.asarray(value) > 0.0):
        raise DomainError("q2 must be positive")


def _velocity_norm2(xs):
    """|w1|^2 + |w2|^2 over the slots (q, w1, w2) of m = 2."""
    return sum(xs[k] * xs[k] for k in range(2, 6))


def halfplane_lagrangian() -> LagrangianModel:
    """Harmonic maps into the upper half-plane with the hyperbolic metric:
    L = (|v1|^2 + |v2|^2) / (2 q2^2), defined where q2 > 0."""

    def eval_L(xs):
        _require_upper(xs[1])
        return _velocity_norm2(xs) / (2.0 * xs[1] * xs[1])

    return LagrangianModel(L=ScalarField(arity=6, eval=eval_L),
                           name="halfplane")


def halfplane_hamiltonian() -> HamiltonianModel:
    """The Legendre transform of ``halfplane_lagrangian``:
    H = q2^2 (|p1|^2 + |p2|^2) / 2, defined where q2 > 0."""

    def eval_H(xs):
        _require_upper(xs[1])
        return 0.5 * (xs[1] * xs[1]) * _velocity_norm2(xs)

    return HamiltonianModel(H=ScalarField(arity=6, eval=eval_H),
                            name="halfplane")


def sample_halfplane_q(rng: np.random.Generator) -> np.ndarray:
    """A point of the upper half-plane, q2 in [0.5, 2]."""
    return np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)])


def target_metric(name: str, m: int) -> np.ndarray:
    """The constant target metric of a catalog model: the identity for
    "harmonic", ``sigma_metric(m)`` for "sigma", and eta = diag(1, -1, -1,
    -1) for "nambu" (m = 4)."""
    if name == "harmonic":
        return np.eye(m)
    if name == "sigma":
        return sigma_metric(m)
    return np.diag([1.0, -1.0, -1.0, -1.0])


def symmetry_generators(name: str, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The affine isometries of a catalog model's target, as generators
    delta(q) = omega q + b, listed as pairs ``(omega, b)``.

    They are the m translations (omega = 0, b = e_a) and, for each a < b,
    omega = g^-1 (E_ab - E_ba), which is g-antisymmetric
    (g omega + omega^T g = 0): so(m) for "harmonic", the 6 Lorentz
    generators for "nambu".  L depends on the field only through q and the
    difference quotients, both linear in the nodal values, so each is an
    exact symmetry of the discrete action.
    """
    ginv = np.linalg.inv(target_metric(name, m))
    zero = np.zeros(m)
    out = [(np.zeros((m, m)), np.eye(m)[a]) for a in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            A = np.zeros((m, m))
            A[a, b], A[b, a] = 1.0, -1.0
            out.append((ginv @ A, zero))
    return out


def cell_unknowns(grid, free_dof: np.ndarray, m: int) -> np.ndarray:
    """The unknown of each active cell's 4m corner dofs, in element-block
    order, shape (ncells, 4m); -1 marks a fixed dof."""
    cells = grid.active_cells
    ci, cj = cells[:, 0], cells[:, 1]
    corner_flat = np.stack([(ci + di) * grid.ny + (cj + dj)
                            for di, dj, _, _ in _CORNERS], axis=1)
    dofs = (corner_flat[:, :, None] * m + np.arange(m)).reshape(len(cells), 4 * m)
    return free_dof[dofs]


def active_blocks(grid, blocks: np.ndarray) -> np.ndarray:
    """The blocks of the active cells, in ``active_cells`` order, from
    element blocks on the cell lattice (nx-1, ny-1, 4m, 4m)."""
    cells = grid.active_cells
    return blocks[cells[:, 0], cells[:, 1]]


def coo_newton_matrix(grid, blocks: np.ndarray, free_dof: np.ndarray,
                      nfree: int):
    """The Newton matrix as a COO triplet list of the active cells'
    element blocks, taken from the cell lattice (nx-1, ny-1, 4m, 4m),
    duplicates summed on conversion to CSC.  ``tocsc`` adds each entry's
    summands left to right in the order its unstable row sort leaves them:
    increasing cell order at m = 1, not in general at m >= 2."""
    blocks = active_blocks(grid, blocks)
    free = cell_unknowns(grid, free_dof, blocks.shape[1] // 4)
    rows = np.broadcast_to(free[:, :, None], blocks.shape)
    cols = np.broadcast_to(free[:, None, :], blocks.shape)
    valid = (rows >= 0) & (cols >= 0)
    return scipy.sparse.coo_matrix(
        (blocks[valid], (rows[valid], cols[valid])), shape=(nfree, nfree)).tocsc()


def cell_order_newton_matrix(grid, blocks: np.ndarray, free_dof: np.ndarray,
                             nfree: int):
    """The Newton matrix summed in plain Python, as CSC, from element blocks
    on the cell lattice (nx-1, ny-1, 4m, 4m): active cells in
    ``active_cells`` order, each entry's summands added left to right, the
    first one taken as it is."""
    blocks = active_blocks(grid, blocks)
    entries = {}
    for unknowns, block in zip(cell_unknowns(grid, free_dof, blocks.shape[1] // 4),
                               blocks):
        for r, row in enumerate(unknowns.tolist()):
            for c, col in enumerate(unknowns.tolist()):
                if row >= 0 and col >= 0:
                    value = float(block[r, c])
                    key = (row, col)
                    entries[key] = entries[key] + value if key in entries else value
    rows, cols = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    # No entry repeats, so the conversion adds nothing to any value.
    return scipy.sparse.csc_matrix((list(entries.values()), (rows, cols)),
                                   shape=(nfree, nfree))
