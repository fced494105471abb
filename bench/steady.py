"""Steadiness check: run each workload several times, each with another
seed, and print per end-to-end metric the quartile spread next to its bound.

    python3 bench/steady.py                        # seeds 1-10, every workload
    python3 bench/steady.py --runs 5 --workloads cli membership

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady enough when its spread stays below a third of
its bound in BENCHMARK.json.  Runs use seeds 1 to ``--runs`` and the
``run_seconds`` of BENCHMARK.json, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_steady = True
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            results.append(run_once(spec["command"], workload, k + 1, spec["run_seconds"]))
            print(f"{workload} seed {k + 1}: "
                  + ", ".join(f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items()),
                  flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct}, (failed, attempted) per run: {sorted(shares)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            all_steady = all_steady and ok and correct
            verdict = "ok" if ok else "TOO WIDE"
            print(f"  {name:<14} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound:6.0%}  {verdict}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
