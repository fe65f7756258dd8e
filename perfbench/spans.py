"""Outside-in tracing of one benchmark op.

The program under test carries no tracing of its own, so the benchmark
records spans from outside: for the length of one traced op it rebinds the
public callables each layer exposes (module attributes looked up at call
time) to timing wrappers, and restores them afterwards.

Per span name the tracer keeps

    calls   every call, nested ones included;
    total   inclusive seconds of the outermost calls only, so a name that
            recurses into itself (``autodiff.grad`` inside a Hamiltonian
            evaluated through ``autodiff.grad``) is not counted twice;
    self    seconds inside the span not covered by a child span.

Self times partition the op: summed over every name they give the root
span's duration, up to float rounding.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ROOT = "op"

# (module, attribute, span name).  The cli rows are the layer boundaries one
# CLI verb crosses; the others catch calls made inside a layer.
PATCHES = (
    ("fieldtriple.cli", "parse_expr", "expr.parse"),
    ("fieldtriple.cli", "evaluate", "expr.evaluate"),
    ("fieldtriple.cli", "solve_dirichlet", "grid.solve_dirichlet"),
    ("fieldtriple.cli", "boundary_momentum", "grid.boundary_momentum"),
    ("fieldtriple.cli", "discrete_action", "grid.action"),
    ("fieldtriple.grid", "discrete_action", "grid.action"),
    ("fieldtriple.grid", "discrete_action_gradient", "grid.gradient"),
    ("fieldtriple.cli", "write_field_csv", "cli.write_field_csv"),
    ("fieldtriple.cli", "write_momentum_csv", "cli.write_momentum_csv"),
    ("fieldtriple.cli", "read_field_csv", "cli.read_field_csv"),
    ("fieldtriple.cli", "legendre", "lagrangian.legendre"),
    ("fieldtriple.cli", "phase_relation_residual",
     "lagrangian.phase_relation_residual"),
    ("fieldtriple.cli", "phase_dynamics_member",
     "lagrangian.phase_dynamics_member"),
    ("fieldtriple.cli", "dH", "hamiltonian.dH"),
    ("fieldtriple.cli", "ham_phase_residual", "hamiltonian.ham_phase_residual"),
    ("fieldtriple.cli", "ham_dynamics_member", "hamiltonian.ham_dynamics_member"),
    ("fieldtriple.cli", "sample_admissible_string_jet", "models.sample"),
    ("fieldtriple.cli", "sample_admissible_string_phase", "models.sample"),
    ("fieldtriple.autodiff", "grad", "autodiff.grad"),
    ("fieldtriple.bundles", "alpha", "bundles.alpha"),
    ("fieldtriple.hamiltonian", "beta", "bundles.beta"),
)


class Tracer:
    """Span bookkeeping for one op; create one per traced op."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.factorizations = []  # (nnz of the matrix, nnz of L + U) per splu
        self._stack = []  # frames [name, start, seconds covered by children]

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - children
        if all(frame[0] != name for frame in self._stack):
            self.total[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def run(self, fn, *args):
        """Call ``fn(*args)`` as the root span, with every layer patched."""
        restore = []
        for modname, attr, name in PATCHES:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                restore.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        linalg = importlib.import_module("scipy.sparse.linalg")
        restore.append((linalg, "splu", linalg.splu))
        linalg.splu = self._traced_splu(linalg.splu)
        try:
            self._enter(ROOT)
            try:
                return fn(*args)
            finally:
                self._exit()
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)
            # Counted after the op, so building L and U is not timed; the
            # factors are released rather than kept for the whole run.
            self.factorizations = [(nnz, lu.L.nnz + lu.U.nnz)
                                   for nnz, lu in self.factorizations]

    def _traced_splu(self, splu):
        timed = self.wrap("grid.splu", splu)
        tracer = self

        def traced_splu(A, *args, **kwargs):
            lu = timed(A, *args, **kwargs)
            tracer.factorizations.append((A.nnz, lu))
            return _TracedLU(lu, tracer.wrap("grid.trisolve", lu.solve))
        return traced_splu


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is timed; everything else delegates."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
