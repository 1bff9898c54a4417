#!/usr/bin/env python3
"""Fold repeated benchmark runs into ``BENCH_<pr>.json``.

Runs a checkout's ``perfbench/run.py`` untraced and with ``--trace 1``,
``REPEATS`` times per workload that its ``BENCHMARK.json`` lists, for its
``run_seconds``, one run at a time, and writes per workload the median of
every end-to-end metric (untraced runs) and of every per-layer self-time
and counter (traced runs), each run's outcome, and the Python, NumPy and
SciPy versions the runs used:

    python3 scripts/bench.py --pr 17
    python3 scripts/bench.py --pr 16 --checkout ../parent --out BENCH_16.json

Run ``k`` (from 0) of every workload uses seed ``FIRST_SEED + k``. Each
run's standard output and its result line are kept in
``.benchmarks/BENCH_<pr>/`` of the working directory.
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy
import scipy

from naps import files

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REPEATS = 3  # runs per workload and trace mode
FIRST_SEED = 1


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int, logs: str) -> dict:
    """One ``run.py`` run; its result line: correct, attempted, failed and metrics."""
    name = f"{workload}-seed{seed}-trace{trace}"
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    os.makedirs(logs, exist_ok=True)
    with open(os.path.join(logs, name + ".out"), "w", encoding="utf-8") as fh:
        fh.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {name} exited {proc.returncode}; see {os.path.join(logs, name)}.out")
    path = os.path.join(logs, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[-1])
    return files.read_json(path, dict, "benchmark result")


def _medians(results: list[dict]) -> dict:
    """Per metric of ``results``: its median, unit, sample count and values in run order."""
    out = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        out[name] = {"median": statistics.median(values), "unit": unit, "n": len(values), "values": values}
    return out


def fold(runs: list[tuple[str, int, int, dict]], environment: dict, settings: dict) -> dict:
    """``BENCH_<pr>.json`` from ``(workload, trace, seed, result line)`` per run."""
    workloads = {}
    for workload in dict.fromkeys(w for w, _, _, _ in runs):
        mine = [(trace, seed, result) for w, trace, seed, result in runs if w == workload]
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [result for t, _, result in mine if t == trace]
            if results:
                entry[key] = _medians(results)
        entry["runs"] = [
            {"trace": t, "seed": s, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
            for t, s, r in mine
        ]
        workloads[workload] = entry
    return {"environment": environment, "settings": settings, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--checkout", default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--out", default=None, help="output path (default: BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    spec = files.read_json(os.path.join(checkout, "BENCHMARK.json"), dict, "benchmark spec")
    seconds = spec["run_seconds"]
    logs = os.path.join(".benchmarks", f"BENCH_{args.pr}")
    runs = []
    for seed in range(FIRST_SEED, FIRST_SEED + REPEATS):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                result = run_once(checkout, workload, seed, seconds, trace, logs)
                runs.append((workload, trace, seed, result))
                print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}", flush=True)
    settings = {"command": spec["command"], "seconds": seconds, "repeats": REPEATS, "first_seed": FIRST_SEED}
    out = args.out or f"BENCH_{args.pr}.json"
    # run.py runs in this interpreter, so these are the versions it measured
    environment = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    files.write_json(out, {"pr": args.pr, **fold(runs, environment, settings)})
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
