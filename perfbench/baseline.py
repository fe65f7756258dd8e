"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/baseline.py                       # every workload
    python3 perfbench/baseline.py --workload string-33
    python3 perfbench/baseline.py --write               # also rewrite BASELINE.json

Each run is ``perfbench/run.py`` in its own interpreter with the
``run_seconds`` of BENCHMARK.json, one untraced run per seed of SEEDS.  For
every end-to-end metric, ``setup_s`` included, the summary gives the median
of the per-run values, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, flagged when it is not below a third of
the metric's bound; the exit code is 1 if any is flagged.  The first
TRACE_RUNS seeds are also run traced, summarised by their per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_RUNS = 2


def one_run(workload, seed, seconds, trace):
    """Run run.py once; returns (result object, machine record)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    machine = next(json.loads(ln[len("machine: "):]) for ln in proc.stderr.splitlines()
                   if ln.startswith("machine: "))
    return json.loads(proc.stdout.strip().splitlines()[-1]), machine


def summarise(results):
    """Median, quartiles and relative spread of each metric over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true",
                        help="write the summary to perfbench/BASELINE.json")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for wl in args.workload or names:
        results = []
        for seed in SEEDS:
            result, record["machine"] = one_run(wl, seed, seconds, 0)
            results.append(result)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": summarise(results)}
        print(f"  {wl}: {entry['attempted']} ops attempted, {entry['failed']} failed")
        for name, s in entry["end_to_end"].items():
            ok = s["spread"] < bounds[name] / 3
            steady = steady and ok
            print(f"  {name}: median {s['median']:.4g} {s['unit']}, "
                  f"q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){'' if ok else '  NOT STEADY'}")
        traced = [one_run(wl, seed, seconds, 1)[0] for seed in SEEDS[:TRACE_RUNS]]
        entry["per_layer"] = {k: {"unit": s["unit"], "median": s["median"]}
                              for k, s in summarise(traced).items()}
        for k, s in entry["per_layer"].items():
            print(f"  {k}: {s['median']:.4g} {s['unit']}")
        record["workloads"][wl] = entry
    if args.write:
        path = HERE / "BASELINE.json"
        old = json.loads(path.read_text()) if path.exists() else {}
        old.setdefault("workloads", {}).update(record.pop("workloads"))
        old.update(record)
        path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
