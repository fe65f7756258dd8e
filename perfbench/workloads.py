"""The benchmark's workloads: seeded CLI argv for one op, and its checks.

An op is one or two CLI invocations run in-process through
``fieldtriple.cli.main(argv)``.  Each workload draws the parameters of an op
from the run's ``random.Random(seed)``, builds the argv from them, and after
the op (outside the timed region) checks the report and artifacts it left.
No check compares bytes against a stored file: a float reassociation that
moves the last digits of a result is not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from fieldtriple.grid import Grid, GridField, discrete_el_residual
from fieldtriple.models import get_lagrangian


@dataclass
class Call:
    """Outcome of one CLI invocation; ``rc`` is None when main raised."""

    argv: list
    rc: int | None
    stdout: str
    stderr: str


class CheckFailed(Exception):
    """An op's outputs did not pass the workload's correctness check."""


def run_op(argvs, main):
    """Run the CLI invocations of one op in order; returns their Calls."""
    calls = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception:
                traceback.print_exc()
                rc = None
        calls.append(Call(list(argv), rc, out.getvalue(), err.getvalue()))
    return calls


def _require(cond, why):
    if not cond:
        raise CheckFailed(why)


def _report(call, expected_rc):
    """The JSON report a call printed, after checking its exit code."""
    _require(call.rc in expected_rc,
             f"{call.argv[0]} exited {call.rc}, expected one of {expected_rc}: "
             f"{call.stderr.strip()[-300:]}")
    try:
        report = json.loads(call.stdout)
    except json.JSONDecodeError:
        raise CheckFailed(f"{call.argv[0]} printed no JSON report") from None
    _require(isinstance(report, dict) and isinstance(report.get("pass"), bool),
             f"{call.argv[0]} report has no boolean 'pass'")
    _require((call.rc == 0) == report["pass"],
             f"{call.argv[0]} exit {call.rc} disagrees with pass={report['pass']}")
    return report


def _solve_artifacts(out, report, n, m):
    """Check the sibling files of a solve and read the field CSV back.

    Returns the field values (n, n, m) parsed from the CSV.  Every value
    must print back to its own text under %.17g, and the node coordinates
    must be the grid's, in row-major order.
    """
    stem = os.path.splitext(out)[0]
    try:
        with open(stem + ".report.json", encoding="utf-8") as fh:
            _require(json.load(fh) == report, "report file differs from stdout")
        with open(stem + ".momenta.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        _require(rows == 1 + (n - 1) ** 2,
                 f"momentum CSV has {rows} lines, expected {1 + (n - 1) ** 2}")
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            _require(header == "x,y," + ",".join(f"comp{k}" for k in range(m)),
                     f"field CSV header {header!r}")
            values = np.empty((n, n, m))
            h = 1.0 / (n - 1)
            k = 0
            for line in fh:
                parts = line.rstrip("\n").split(",")
                _require(len(parts) == 2 + m, f"field CSV row {k + 2} width")
                _require(k < n * n, "field CSV has extra rows")
                i, j = divmod(k, n)
                nums = [float(p) for p in parts]
                _require(all("%.17g" % v == p for v, p in zip(nums, parts)),
                         f"field CSV row {k + 2} does not round-trip at %.17g")
                _require(nums[0] == i * h and nums[1] == j * h,
                         f"field CSV row {k + 2} has the wrong node coordinates")
                values[i, j] = nums[2:]
                k += 1
            _require(k == n * n, f"field CSV has {k} rows, expected {n * n}")
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"solve artifact unreadable: {exc}") from None
    return values


def _max_residual(model, grid, values):
    return float(np.max(np.abs(discrete_el_residual(model, GridField(grid, values)))))


def _num(rng, lo, hi):
    """A uniform draw printed with 4 significant digits, and its value."""
    text = "%.4g" % rng.uniform(lo, hi)
    return text, float(text)


class Harmonic:
    """``solve --model harmonic`` on an n x n grid, then ``action`` on its CSV.

    The boundary data a*sin(k*x)*cosh(y) + b*x^2*y is not harmonic (b is
    bounded away from 0), so every solve takes at least one Newton step.
    """

    name = "harmonic-257"
    tol = 1e-10

    def __init__(self, n=257):
        self.n = n
        self.model = get_lagrangian("harmonic")
        self.grid = Grid.square(n, n)

    def draw(self, rng):
        a, _ = _num(rng, 0.5, 1.5)
        k, _ = _num(rng, 1.5, 3.0)
        b, _ = _num(rng, 0.5, 1.5)
        return {"bc": f"{a}*sin({k}*x)*cosh(y) + {b}*x^2*y"}

    def argvs(self, params, workdir):
        out = os.path.join(workdir, "harmonic.csv")
        grid = f"{self.n}x{self.n}"
        return [
            ["solve", "--model", "harmonic", "--grid", grid,
             "--bc", params["bc"], "--out", out],
            ["action", "--model", "harmonic", "--grid", grid, "--field", out],
        ]

    def check(self, params, calls):
        """Raises CheckFailed; returns whether every report passed."""
        solve, action = calls
        report = _report(solve, (0,))
        _require(report["pass"], "harmonic solve did not pass")
        _require(report["iterations"] >= 1, "harmonic solve took no Newton step")
        values = _solve_artifacts(solve.argv[-1], report, self.n, 1)
        res = _max_residual(self.model, self.grid, values)
        _require(res <= self.tol, f"read-back residual {res:.3e} above tol")
        act = _report(action, (0,))
        _require(math.isclose(act["action"], report["action"], rel_tol=1e-12),
                 f"action verb {act['action']!r} != solve {report['action']!r}")
        return True


class String:
    """``solve --model nambu`` on an n x n grid from an off-solution start,
    capped at ``max_iter`` Newton steps."""

    name = "string-33"

    def __init__(self, n=33, max_iter=10):
        self.n = n
        self.max_iter = max_iter
        self.model = get_lagrangian("nambu")
        self.grid = Grid.square(n, n)
        self.x, self.y = self.grid.node_coords()
        bnodes = self.grid.boundary_nodes
        self.boundary = (bnodes[:, 0], bnodes[:, 1])

    def draw(self, rng):
        eps, eps_v = _num(rng, 0.05, 0.15)
        amp, amp_v = _num(rng, 0.05, 0.15)
        return {"bc": ["x", "y", f"{eps}*x*y", f"{amp}*x*(1-x)*y*(1-y)"],
                "eps": eps_v, "amp": amp_v}

    def _bc_values(self, params):
        x, y = self.x, self.y
        return np.stack([x, y, params["eps"] * x * y,
                         params["amp"] * x * (1 - x) * y * (1 - y)], axis=2)

    def argvs(self, params, workdir):
        argv = ["solve", "--model", "nambu", "--grid", f"{self.n}x{self.n}"]
        for expr in params["bc"]:
            argv += ["--bc", expr]
        argv += ["--max-iter", str(self.max_iter),
                 "--out", os.path.join(workdir, "string.csv")]
        return [argv]

    def check(self, params, calls):
        """Exit 3 is a completed op only with a report saying pass=false."""
        (solve,) = calls
        report = _report(solve, (0, 3))
        values = _solve_artifacts(solve.argv[-1], report, self.n, 4)
        start = self._bc_values(params)
        _require(np.array_equal(values[self.boundary], start[self.boundary]),
                 "boundary rows differ from the boundary data")
        final = report["final_residual"]
        _require(final <= _max_residual(self.model, self.grid, start),
                 "final residual above the start's")
        res = _max_residual(self.model, self.grid, values)
        _require(math.isclose(final, res, rel_tol=1e-9, abs_tol=1e-14),
                 f"reported residual {final!r} != recomputed {res!r}")
        return report["pass"]


class Pointwise:
    """``legendre`` and ``phase-check`` for the string model at N points."""

    name = "pointwise-nambu"

    def __init__(self, points=300):
        self.points = points

    def draw(self, rng):
        return {"seed": rng.randrange(2 ** 31)}

    def argvs(self, params, workdir):
        tail = ["--model", "nambu", "--points", str(self.points),
                "--seed", str(params["seed"])]
        return [["legendre"] + tail, ["phase-check"] + tail]

    def check(self, params, calls):
        for call in calls:
            report = _report(call, (0,))
            _require(report["pass"], f"{call.argv[0]} did not pass")
            _require(report["points"] == self.points
                     and report["seed"] == params["seed"],
                     f"{call.argv[0]} report is for other inputs")
        return True


WORKLOADS = {w.name: w for w in (Harmonic, String, Pointwise)}
