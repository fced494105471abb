"""Run the benchmark of a base revision and of this checkout in alternating pairs.

    python3 tools/ab.py --base REV [--workload W] [--pairs N] [--seconds S] [--seed K]

Exports ``REV`` with ``git archive`` into a temporary directory and runs
its ``bench/run.py`` and this checkout's, one process at a time, ``N``
pairs per workload: the base first in odd pairs, this checkout first in
even pairs.  Every run is ``bench/run.py --workload W --seed K --seconds S
--trace 0`` in its own tree, so each side imports its own ``src/`` and the
benchmark code is each side's own.  ``W`` defaults to every workload of
``BENCHMARK.json`` and ``S`` to its ``run_seconds``; ``N`` defaults to 10
and ``K`` to 1.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
both sides' medians, the change in percent, the pairs this checkout won
(ties count for neither side) and the interquartile range of the base's
runs.  ``gain`` marks a metric, over at least 10 pairs, whose wins are at
least nine tenths of the pairs and whose medians differ, in its better
direction, by more than that range; ``over bound`` marks one whose median
is worse than the base's by more than the metric's bound.  The last line of standard output is one
JSON object whose ``workloads`` entries have the shape of a
``BENCH_*.json`` file's ``end_to_end`` workloads (``parent`` is the base):

    python3 tools/ab.py --base HEAD~1 --workload boundary --seed 6 --seconds 20
    python3 tools/ab.py --base HEAD --workload boundary --seed 6   # noise floor

Standard library only; nothing under ``bench/`` is changed.  Exits 1 when
a run is not ``correct`` or has failed operations, after printing
everything.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = SPEC["end_to_end"]
#: Fewest pairs on which a gain may be marked.
CLAIM_PAIRS = 10


def git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"ab: git {args[0]} failed: {proc.stderr.decode().strip()}")
    return proc.stdout


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python before 3.10.12 / 3.11.4: the archive is git's own
            tar.extractall(dest)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its last stdout line."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ab: {workload} in {tree} exited {proc.returncode}")
    out = json.loads(lines[-1])
    run = {name: m["value"] for name, m in out["metrics"].items()}
    run.update(correct=out["correct"], attempted=out["attempted"], failed=out["failed"])
    return run


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(runs: dict) -> dict:
    """Medians, wins and the base's IQR per end-to-end metric of two
    equally long lists of runs, ``runs["parent"]`` and ``runs["change"]``."""
    pairs = len(runs["parent"])
    entry = {
        "pairs": pairs,
        "all_correct_and_no_failures": all(
            r["correct"] and r["failed"] == 0 for side in runs.values() for r in side
        ),
        "wins_of_pairs": {},
        "median": {"parent": {}, "change": {}},
        "parent_iqr": {},
        "gain": [],
        "over_bound": [],
    }
    for m in METRICS:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        base = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(base, new))
        med_base, med_new = statistics.median(base), statistics.median(new)
        q1, q3 = quartiles(base)
        entry["wins_of_pairs"][name] = f"{wins}/{pairs}"
        entry["median"]["parent"][name] = med_base
        entry["median"]["change"][name] = med_new
        entry["parent_iqr"][name] = q3 - q1
        won = pairs >= CLAIM_PAIRS and wins * 10 >= 9 * pairs
        if won and sign * (med_new - med_base) > q3 - q1:
            entry["gain"].append(name)
        if -sign * (med_new - med_base) > m["bound"] * abs(med_base):
            entry["over_bound"].append(name)
    entry["runs"] = runs
    return entry


def report(label: str, entry: dict) -> None:
    ok = "all runs correct, no failed operations" if entry["all_correct_and_no_failures"] else (
        "SOME RUNS INCORRECT OR WITH FAILED OPERATIONS"
    )
    print(f"{label}: {entry['pairs']} pairs; {ok}")
    print(f"  {'metric':<12} {'base':>12} {'change':>12} {'delta':>8} {'wins':>6} {'base IQR':>10}")
    for m in METRICS:
        name = m["name"]
        base, new = entry["median"]["parent"][name], entry["median"]["change"][name]
        delta = f"{100.0 * (new - base) / base:+.1f}%" if base else "n/a"
        notes = [tag for tag, key in (("gain", "gain"), ("over bound", "over_bound"))
                 if name in entry[key]]
        wins, iqr = entry["wins_of_pairs"][name], entry["parent_iqr"][name]
        print(f"  {name:<12} {base:12.5g} {new:12.5g} {delta:>8} {wins:>6} {iqr:10.3g}  "
              + " ".join(notes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]

    result = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "tools/ab.py: alternating pairs of the base tree (git archive) and the "
                  "checkout, run one at a time, base first in odd pairs; medians over each "
                  "side's runs; wins count pairs the change won, ties for neither",
        "parent_commit": None,
        "change_commit": git("rev-parse", "HEAD").decode().strip(),
        "change_tree_clean": not git("status", "--porcelain", "--untracked-files=no").strip(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        result["parent_commit"] = export(args.base, base_tree)
        for name in names:
            runs = {"parent": [], "change": []}
            for k in range(1, args.pairs + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for side in order:
                    tree = base_tree if side == "parent" else ROOT
                    print(f"ab: {name} pair {k}/{args.pairs}: {side}", file=sys.stderr)
                    runs[side].append(bench(tree, name, args.seed, args.seconds))
            label = f"{name}_seed{args.seed}"
            result["workloads"][label] = compare(runs)
            report(label, result["workloads"][label])
    print(json.dumps(result))
    correct = all(e["all_correct_and_no_failures"] for e in result["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
