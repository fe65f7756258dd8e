#!/usr/bin/env python3
"""Grid-refinement study for the variational Dirichlet solver.

Solves the harmonic Dirichlet problem with the smooth boundary data
u = sin(x) sinh(y) (an exact stationary field of the continuum action) on a
sequence of square grids, reports the nodal max error against the exact
field, and estimates the observed convergence order between consecutive
levels.  A second table checks consistency of the discrete field-equation
residual against the pointwise operator for u = exp(x) cos(2y).

Usage:
    python3 scripts/convergence_study.py [--levels 17 33 65 129] [--csv out.csv]
"""

import argparse
import sys

import numpy as np

from fieldtriple.bundles import Jet
from fieldtriple.grid import Grid, GridField, discrete_el_residual, solve_dirichlet
from fieldtriple.lagrangian import SecondJet, el_residual_pointwise
from fieldtriple.models import get_lagrangian


def solve_errors(levels):
    """Nodal max errors of the Dirichlet solve at each grid level."""
    model = get_lagrangian("harmonic")
    rows = []
    for n in levels:
        grid = Grid.square(n, n)
        exact = GridField.from_function(
            grid, lambda x, y: np.array([np.sin(x) * np.sinh(y)]), 1)
        b = grid.boundary_nodes
        start = np.zeros_like(exact.values)
        start[b[:, 0], b[:, 1]] = exact.values[b[:, 0], b[:, 1]]
        sol, rep = solve_dirichlet(model, GridField(grid=grid, values=start))
        err = float(np.max(np.abs(sol.values - exact.values)))
        rows.append((n, grid.hx, err, rep.iterations, rep.final_residual))
    return rows


def residual_consistency(levels):
    """Max gap between residual / cell area and the pointwise operator."""
    model = get_lagrangian("harmonic")
    rows = []
    for n in levels:
        grid = Grid.square(n, n)
        f = GridField.from_function(
            grid, lambda x, y: np.array([np.exp(x) * np.cos(2 * y)]), 1)
        res = discrete_el_residual(model, f)
        area = grid.hx * grid.hy
        X, Y = grid.node_coords()
        worst = 0.0
        for (i, j), r in zip(grid.interior_nodes, res):
            x, y = X[i, j], Y[i, j]
            u = np.exp(x) * np.cos(2 * y)
            uy = -2 * np.exp(x) * np.sin(2 * y)
            s = SecondJet(Jet([u], [[u], [uy]]), [[[u], [uy]], [[uy], [-4 * u]]])
            want = el_residual_pointwise(model, s)
            worst = max(worst, float(np.max(np.abs(r / area - want))))
        rows.append((n, grid.hx, worst))
    return rows


def print_table(title, header, rows, order_col):
    print(f"\n{title}")
    print("  " + "  ".join(header) + "  order")
    prev = None
    for row in rows:
        order = ""
        if prev is not None and row[order_col] > 0.0:
            order = f"{np.log2(prev / row[order_col]):.3f}"
        cells = [f"{v:.6e}" if isinstance(v, float) else f"{v:6d}"
                 for v in row]
        print("  " + "  ".join(cells) + f"  {order}")
        prev = row[order_col]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[17, 33, 65, 129])
    ap.add_argument("--csv", default=None, help="write the solve table as CSV")
    args = ap.parse_args(argv)

    solve_rows = solve_errors(args.levels)
    print_table("Dirichlet solve, u = sin(x) sinh(y):",
                ("     n", "h", "max error", "  iter", "residual"),
                solve_rows, order_col=2)

    res_rows = residual_consistency(args.levels)
    print_table("residual consistency, u = exp(x) cos(2y):",
                ("     n", "h", "max gap"), res_rows, order_col=2)

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,h,max_error,iterations,final_residual\n")
            for n, h, err, it, res in solve_rows:
                fh.write(f"{n},{h:.17g},{err:.17g},{it},{res:.17g}\n")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
