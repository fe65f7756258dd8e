"""Smoke test of the benchmark itself, at reduced sizes (about 15 s).

    python3 perfbench/smoke.py

Checks that
  * a run emits exactly the end-to-end metrics of BENCHMARK.json untraced
    and exactly its per-layer metrics traced, with no failed op;
  * every layer's spans are recorded on the workload that exercises it;
  * the root span agrees with the op timed from outside the tracer, and the
    emitted per-layer metrics that partition a traced op (self times plus
    the spans that have no wrapped child) add up to the emitted op time;
  * one corrupted byte in a solve's CSV, an unexpected exit code, or an
    exit 3 without a report is counted as a failed op;
  * run.py exits non-zero without a result line in a directory that holds
    only BENCHMARK.json and this directory.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run  # imports fieldtriple from this checkout's src/

HERE = Path(__file__).resolve().parent


class SmokeFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise SmokeFailed(what)
    print(f"ok  {what}")


def small_workloads():
    from workloads import Harmonic, Pointwise, String

    return [Harmonic(n=33), String(n=17, max_iter=2), Pointwise(points=10)]


# Spans that must be recorded on each workload: a rename in the program
# would otherwise read as a layer taking no time.
EXERCISED = {
    "harmonic-257": ("cli.main", "expr.parse", "expr.evaluate",
                     "grid.solve_dirichlet", "grid.gradient", "grid.splu",
                     "grid.trisolve", "grid.action", "grid.boundary_momentum",
                     "cli.write_field_csv", "cli.write_momentum_csv",
                     "cli.read_field_csv"),
    "string-33": ("cli.main", "expr.evaluate", "grid.solve_dirichlet",
                  "grid.gradient", "grid.splu", "grid.trisolve"),
    "pointwise-nambu": ("cli.main", "autodiff.grad", "lagrangian.legendre",
                        "lagrangian.phase_relation_residual",
                        "lagrangian.phase_dynamics_member", "hamiltonian.dH",
                        "hamiltonian.ham_phase_residual",
                        "hamiltonian.ham_dynamics_member", "models.sample",
                        "bundles.alpha", "bundles.beta"),
}


# Per-layer metrics that partition a traced op: the self times of the spans
# with wrapped children plus the inclusive times of the spans inside them
# that have none.  A span missed or counted twice breaks the sum.
GRID_PARTITION = ("trace.op_self_s", "cli.main_self_s", "grid.newton_self_s",
                  "expr.parse_s", "expr.evaluate_s", "grid.gradient_s",
                  "grid.splu_s", "grid.trisolve_s", "grid.action_s",
                  "grid.boundary_momentum_s", "cli.write_field_csv_s",
                  "cli.write_momentum_csv_s", "cli.read_field_csv_s")
PARTITION = {
    "harmonic-257": GRID_PARTITION,
    "string-33": GRID_PARTITION,
    "pointwise-nambu": ("trace.op_self_s", "cli.main_self_s", "models.sample_s",
                        "lagrangian.legendre_s",
                        "lagrangian.phase_relation_residual_s",
                        "lagrangian.phase_dynamics_member_s", "hamiltonian.dH_s",
                        "hamiltonian.ham_phase_residual_s",
                        "hamiltonian.ham_dynamics_member_s"),
}


def outside_timed_op(wl, params, workdir):
    """One traced op, also timed around the tracer; returns (tracer, seconds)."""
    from fieldtriple.cli import main
    from spans import Tracer
    from workloads import run_op

    argvs = wl.argvs(params, workdir)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", main)
    t0 = time.perf_counter()
    tracer.run(run_op, argvs, traced_main)
    return tracer, time.perf_counter() - t0


def check_metrics(bench, workdir):
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    for wl in small_workloads():
        res = run.measure(wl, seed=1, seconds=0, trace=0)
        expect(set(res["metrics"]) == e2e and res["failed"] == 0 and res["correct"],
               f"{wl.name}: untraced run emits the end-to-end metrics, no failures")
        res = run.measure(wl, seed=1, seconds=0, trace=1)
        expect(set(res["metrics"]) == layers and res["failed"] == 0,
               f"{wl.name}: traced run emits the per-layer metrics, no failures")
        value = {k: m["value"] for k, m in res["metrics"].items()}
        parts = sum(value[k] for k in PARTITION[wl.name])
        expect(abs(parts - value["trace.op_s"]) <= 1e-9 * value["trace.op_s"],
               f"{wl.name}: emitted layer times add up to trace.op_s "
               f"({parts:.6f} s vs {value['trace.op_s']:.6f} s)")
        tracer, calls, _ = run.traced_op(wl, wl.draw(random.Random(2)), workdir)
        missing = [s for s in EXERCISED[wl.name] if not tracer.calls.get(s)]
        expect(not missing, f"{wl.name}: every layer it exercises has spans"
                            + (f" (none for {missing})" if missing else ""))
        tracer, outside = outside_timed_op(wl, wl.draw(random.Random(2)), workdir)
        op = tracer.total["op"]
        # The outside time also holds patching and, after the op, counting
        # the L + U nonzeros of each factorization.
        expect(0.0 < op <= outside <= op + 0.005 + 0.05 * op,
               f"{wl.name}: the op span matches the op timed from outside "
               f"({op:.6f} s vs {outside:.6f} s)")


def failed_ops(wl, params, calls):
    tally = run.Tally()
    tally.check(wl, params, calls)
    return tally.failed


def corrupt(path, row, pick):
    """Rewrite one byte of CSV line ``row``; ``pick`` maps the line to
    (byte offset, new byte)."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    pos, new = pick(lines[row])
    lines[row] = lines[row][:pos] + new + lines[row][pos + 1:]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def first_digit_of_value(line):
    """Offset of the first nonzero digit of the third column (comp0)."""
    start = line.index(b",", line.index(b",") + 1) + 1
    pos = next(i for i in range(start, len(line)) if line[i:i + 1] in b"123456789")
    return pos, (b"1" if line[pos:pos + 1] != b"1" else b"2")


def check_failures(workdir):
    from fieldtriple.cli import main
    from workloads import run_op

    harmonic, string, pointwise = small_workloads()
    rng = random.Random(3)

    params = harmonic.draw(rng)
    calls = run_op(harmonic.argvs(params, workdir), main)
    expect(failed_ops(harmonic, params, calls) == 0, "harmonic op passes its check")
    csv = calls[0].argv[-1]
    mid = 1 + (harmonic.n // 2) * harmonic.n + harmonic.n // 2
    corrupt(csv, mid, first_digit_of_value)
    expect(failed_ops(harmonic, params, calls) == 1,
           "a changed digit in the harmonic CSV is a failed op")

    calls = run_op(harmonic.argvs(params, workdir), main)
    corrupt(csv, mid, lambda line: (len(line) - 1, b"x"))
    expect(failed_ops(harmonic, params, calls) == 1,
           "a non-numeric byte in the harmonic CSV is a failed op")

    params = string.draw(rng)
    calls = run_op(string.argvs(params, workdir), main)
    expect(failed_ops(string, params, calls) == 0, "string op passes its check")
    edge = 1 + (string.n - 1) * string.n + string.n // 2  # node (n-1, n//2), x = 1
    corrupt(calls[0].argv[-1], edge, first_digit_of_value)
    expect(failed_ops(string, params, calls) == 1,
           "a changed boundary digit in the string CSV is a failed op")
    calls[0].stdout = ""
    calls[0].rc = 3
    expect(failed_ops(string, params, calls) == 1,
           "a string exit 3 without a report is a failed op")

    params = pointwise.draw(rng)
    argvs = pointwise.argvs(params, workdir)
    argvs[1][argvs[1].index("--points") + 1] = "0"
    calls = run_op(argvs, main)
    expect(calls[1].rc == 2 and failed_ops(pointwise, params, calls) == 1,
           "an unexpected exit code is a failed op")


def check_without_sources():
    """run.py in a tree holding only BENCHMARK.json and perfbench/."""
    root = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy2(HERE.parent / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "pointwise-nambu",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(root, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py without the program's sources exits non-zero, no result")


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    try:
        check_metrics(bench, workdir)
        check_failures(workdir)
        check_without_sources()
    except SmokeFailed as exc:
        print(f"FAIL  {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
