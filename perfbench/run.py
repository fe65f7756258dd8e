"""fieldtriple benchmark: one run of one workload.

    python3 perfbench/run.py --workload harmonic-257 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  The run is a closed loop of ops
(one op starts when the previous one and its checks have finished) for
``--seconds`` of wall time, at least one op.  Op inputs are drawn from
``--seed``.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (op_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, from ops run
with every layer boundary wrapped in a timing span, each paired with an
untraced op on the same inputs so the tracing overhead is measured too.
See README.md in this directory for the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# BLAS/OpenMP pools are capped at the cores this process may use, before
# numpy is first imported here or in a setup subprocess.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)


def load_package():
    """Import fieldtriple from this checkout's src/, or exit 2."""
    if not (SRC / "fieldtriple" / "cli.py").is_file():
        print(f"run.py: no fieldtriple sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fieldtriple

    if Path(fieldtriple.__file__).resolve().parent != SRC / "fieldtriple":
        print(f"run.py: imported fieldtriple from {fieldtriple.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


load_package()

import numpy  # noqa: E402
import scipy  # noqa: E402

import fieldtriple.cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, run_op  # noqa: E402

SETUP_REPS = 5


def per_layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def machine():
    """What the figures depend on besides the code."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Setup:
    """Wall seconds for a fresh interpreter to import fieldtriple.cli.

    One untimed import first fills the bytecode cache.  Samples are taken
    between ops (after every other op, at least SETUP_REPS in a run), so they
    see the machine over the whole run like the ops do.
    """

    def __init__(self):
        self.cmd = [sys.executable, "-c", "import fieldtriple.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)


class Tally:
    """Op outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.failures = []

    def check(self, wl, params, calls):
        self.attempted += 1
        try:
            self.passed += bool(wl.check(params, calls))
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))


def timed_op(wl, params, workdir):
    """Run one op; returns (seconds, calls).  Leftover artifacts are removed
    first, so a missing one shows in the check."""
    for entry in os.scandir(workdir):
        os.unlink(entry.path)
    argvs = wl.argvs(params, workdir)
    gc.collect()
    t0 = time.perf_counter()
    calls = run_op(argvs, fieldtriple.cli.main)
    return time.perf_counter() - t0, calls


def run_untraced(wl, rng, seconds, workdir, tally):
    setup = Setup()
    op_s = []
    end = time.perf_counter() + seconds
    while not op_s or time.perf_counter() < end:
        params = wl.draw(rng)
        dt, calls = timed_op(wl, params, workdir)
        op_s.append(dt)
        tally.check(wl, params, calls)
        if len(op_s) % 2:
            setup.sample()
    while len(setup.times) < SETUP_REPS:
        setup.sample()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"op_s": (statistics.median(op_s), "s"),
            "setup_s": (statistics.median(setup.times), "s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB")}


def traced_op(wl, params, workdir):
    """Run one op under a fresh Tracer; returns (tracer, calls, bytes written)."""
    for entry in os.scandir(workdir):
        os.unlink(entry.path)
    argvs = wl.argvs(params, workdir)
    tracer = Tracer()
    main = tracer.wrap("cli.main", fieldtriple.cli.main)
    gc.collect()
    calls = tracer.run(run_op, argvs, main)
    written = sum(entry.stat().st_size for entry in os.scandir(workdir))
    return tracer, calls, written


def layer_values(tracers, reports, written):
    """Per-layer metrics: per-op means over the traced ops."""
    n = len(tracers)

    def mean(fn):
        return sum(fn(t) for t in tracers) / n

    def span(name):
        return mean(lambda t: t.total.get(name, 0.0))

    def count(name):
        return mean(lambda t: t.calls.get(name, 0))

    facts = [f for t in tracers for f in t.factorizations]
    solves = sum(t.calls.get("grid.solve_dirichlet", 0) for t in tracers)
    grads = sum(t.calls.get("grid.gradient", 0) for t in tracers)
    iterations = sum(r.get("iterations", 0) for r in reports)
    v = {
        "expr.parse_s": span("expr.parse"),
        "expr.evaluate_s": span("expr.evaluate"),
        "expr.evaluate_calls": count("expr.evaluate"),
        "cli.main_self_s": mean(lambda t: t.self_s.get("cli.main", 0.0)),
        "cli.write_field_csv_s": span("cli.write_field_csv"),
        "cli.write_momentum_csv_s": span("cli.write_momentum_csv"),
        "cli.read_field_csv_s": span("cli.read_field_csv"),
        "cli.bytes_written": sum(written) / n,
        "grid.solve_dirichlet_s": span("grid.solve_dirichlet"),
        "grid.newton_self_s": mean(lambda t: t.self_s.get("grid.solve_dirichlet", 0.0)),
        "grid.newton_iterations": iterations / n,
        "grid.factorizations": count("grid.splu"),
        "grid.splu_s": span("grid.splu"),
        "grid.trisolve_s": span("grid.trisolve"),
        "grid.jacobian_nnz": sum(a for a, _ in facts) / len(facts) if facts else 0.0,
        "grid.lu_nnz": sum(b for _, b in facts) / len(facts) if facts else 0.0,
        "grid.gradient_evals": count("grid.gradient"),
        "grid.gradient_s": span("grid.gradient"),
        "grid.line_search_accept_ratio": (iterations / (grads - solves)
                                          if grads > solves else 0.0),
        "grid.boundary_momentum_s": span("grid.boundary_momentum"),
        "grid.action_s": span("grid.action"),
        "autodiff.grad_calls": count("autodiff.grad"),
        "autodiff.grad_s": span("autodiff.grad"),
        "models.sample_s": span("models.sample"),
        "bundles.alpha_s": span("bundles.alpha"),
        "bundles.beta_s": span("bundles.beta"),
        "trace.op_s": span("op"),
        "trace.op_self_s": mean(lambda t: t.self_s.get("op", 0.0)),
    }
    for name in ("lagrangian.legendre", "lagrangian.phase_relation_residual",
                 "lagrangian.phase_dynamics_member", "hamiltonian.dH",
                 "hamiltonian.ham_phase_residual", "hamiltonian.ham_dynamics_member"):
        v[name + "_s"] = span(name)
    return v


def run_traced(wl, rng, seconds, workdir, tally):
    tracers, reports, written, untraced = [], [], [], []
    end = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < end:
        params = wl.draw(rng)
        dt, calls = timed_op(wl, params, workdir)
        untraced.append(dt)
        tally.check(wl, params, calls)
        tracer, calls, nbytes = traced_op(wl, params, workdir)
        tracers.append(tracer)
        written.append(nbytes)
        tally.check(wl, params, calls)
        reports.extend(_reports(calls))
    values = layer_values(tracers, reports, written)
    values["cli.pass_frac"] = tally.passed / tally.attempted
    values["trace.overhead_s"] = values["trace.op_s"] - sum(untraced) / len(untraced)
    return {name: (values[name], unit)
            for name, unit in per_layer_units().items()}


def _reports(calls):
    """The solve reports among an op's calls (those with Newton iterations)."""
    out = []
    for call in calls:
        try:
            report = json.loads(call.stdout)
        except json.JSONDecodeError:
            continue
        if isinstance(report, dict) and "iterations" in report:
            out.append(report)
    return out


def measure(wl, seed, seconds, trace):
    """One run; returns the result object printed as the last stdout line."""
    rng = random.Random(seed)
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if trace:
            metrics = run_traced(wl, rng, seconds, workdir, tally)
        else:
            metrics = run_untraced(wl, rng, seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failures:
        print(f"{tally.failed} failed ops; first: {tally.failures[0]}",
              file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]()
    print("machine: " + json.dumps(machine(), sort_keys=True), file=sys.stderr)
    result = measure(wl, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
