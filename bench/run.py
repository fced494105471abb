"""Benchmark for schurvar: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload boundary --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload is one closed loop with one client:
the next operation starts when the previous one has returned.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  End-to-end times are given at a reference
host speed (``hostspeed.py``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads
from workloads import metric

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Every end-to-end run times at least this many operations, so that ten
#: of them lie beyond the 90th percentile.
MIN_OPS = 100
#: Set-up is measured this many times per run, each in a fresh process
#: that then takes this many samples of the reference kernel.
SETUP_REPEATS = 9
SETUP_KERNELS = 3
SETUP_TIMEOUT_S = 120.0

#: Per-layer metrics read off the tracer, per operation of the workload
#: they are meant to move: ``(workload, tracer field, key)``.  ``total``
#: and ``self_time`` are span times (reported in ms), ``calls`` and
#: ``counts`` are counts.
SPAN_METRICS = {
    "schur.classify_ms": ("classify", "total", "schur.classify"),
    "schur.peel_steps": ("classify", "calls", "schur.peel_step"),
    "polynomials.build_ms": ("classify", "total", "polynomials.build"),
    "polynomials.residuals_ms": ("classify", "total", "polynomials.residuals"),
    "polynomials.eval_ms": ("boundary", "total", "polynomials.eval"),
    "polynomials.eval_points": ("boundary", "counts", "polynomials.eval_points"),
    "domains.map_ms": ("boundary", "total", "domains.map"),
    "domains.map_points": ("boundary", "counts", "domains.map_points"),
    "quadrature.ms": ("boundary", "total", "quadrature.integrate"),
    "quadrature.panels": ("boundary", "counts", "quadrature.panels"),
    "quadrature.points": ("boundary", "counts", "quadrature.points"),
    "regions.boundary_curve_ms": ("boundary", "total", "regions.boundary_curve"),
    "regions.region_self_ms": ("boundary", "self_time", "regions.region"),
    "regions.oracle_ms": ("membership", "total", "regions.oracle"),
    "regions.containment_ms": ("membership", "total", "regions.containment"),
    "regions.containment_pairs": ("membership", "counts", "regions.containment_pairs"),
}


def _import_package():
    if not (SRC / "schurvar" / "__init__.py").is_file():
        sys.exit(f"bench: no schurvar sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import schurvar
    import schurvar.cli

    if Path(schurvar.__file__).resolve().parent != SRC / "schurvar":
        sys.exit(f"bench: imported schurvar from {schurvar.__file__}, not from {SRC}")
    return schurvar


@dataclasses.dataclass
class Loop:
    """What one closed loop did."""

    times: list  # seconds per completed operation
    starts: list  # perf_counter() at the start of each completed operation
    inputs: list  # the input index of each completed operation
    wall: float
    attempted: int
    failed: int

    def add(self, other: "Loop") -> None:
        self.times += other.times
        self.starts += other.starts
        self.inputs += other.inputs
        self.wall += other.wall
        self.attempted += other.attempted
        self.failed += other.failed


def timed_loop(op, digest, indices, seconds: float, min_ops: int, first: list, errors: list,
               host=None) -> Loop:
    """Run whole rounds of ``op(i)`` for ``i`` in ``indices`` until
    ``seconds`` have passed and ``min_ops`` operations were attempted.

    ``first[i]`` keeps the first output of input ``i`` (the checks look at
    it); every later output must have the same ``digest``.  ``host`` (a
    HostSpeed) samples the reference kernel between operations; that time
    is left out of the loop's wall time.
    """
    times = []
    starts = []
    done = []
    attempted = failed = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        for i in indices:
            if host is not None:
                paused += host.sample_due()
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op(i)
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            starts.append(t0)
            done.append(i)
            if first[i] is None:
                first[i] = (out, digest(out))
            elif digest(out) != first[i][1]:
                errors.append(f"input {i}: output changed between rounds")
        if time.perf_counter() - start - paused >= seconds and attempted >= min_ops:
            break
    return Loop(times, starts, done, time.perf_counter() - start - paused, attempted, failed)


def quantile_ms(times, q: int) -> float:
    """The ``q``-th percentile (q in 10, 20, ..., 90) of ``times`` (s), in ms."""
    return statistics.quantiles(times, n=10)[q // 10 - 1] * 1e3


def _check(wl, first: list) -> list:
    return wl.check([None if f is None else f[0] for f in first])


def _setup_seconds(args) -> tuple[float, float]:
    """Median time from spawning a fresh benchmark process to its first
    timed operation (imports, input generation, one warm-up operation), at
    the reference host speed and in wall time.

    Each set-up process times the reference kernel after it has printed
    ``ready`` and reports the median, so every set-up time is scaled by
    the speed of the process and the moment it ran in, not by that of the
    timed loop.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                kernel_s = proc.communicate(timeout=SETUP_TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        wall.append(elapsed)
        scaled.append(elapsed * hostspeed.KERNEL_REF_S / float(kernel_s))
    return statistics.median(scaled), statistics.median(wall)


def histogram(times: list, marks: dict, bins: int = 12) -> list[str]:
    """Text histogram of operation times (s) on log-spaced bins, with each
    of ``marks`` (label -> ms) shown on the bin that holds it."""
    ms = np.array(times) * 1e3
    edges = np.geomspace(ms.min(), ms.max() * (1 + 1e-9), bins + 1)
    counts = np.histogram(ms, edges)[0]
    lines = []
    for k, count in enumerate(counts):
        held = [label for label, v in marks.items() if edges[k] <= v < edges[k + 1]]
        bar = "#" * int(np.ceil(40 * count / counts.max()))
        lines.append(f"  {edges[k]:9.4g} - {edges[k + 1]:<9.4g} ms {count:6d} {bar:<40} {' '.join(held)}")
    return lines


def end_to_end(args, sv, workdir: str) -> dict:
    wl = workloads.WORKLOADS[args.workload](sv, args.seed, workdir)
    wl.op(0)  # warm-up, untimed
    if args.setup_only:
        print("ready", flush=True)
        print(statistics.median(hostspeed.kernel() for _ in range(SETUP_KERNELS)))
        return {}
    setup_s, setup_wall_s = _setup_seconds(args)
    first = [None] * len(wl.cases)
    errors: list = []
    host = hostspeed.HostSpeed(children=args.workload == "cli")
    loop = timed_loop(wl.op, wl.digest, range(len(wl.cases)), args.seconds, MIN_OPS, first, errors, host)
    # every operation's time at the reference host speed: its wall time
    # divided by the host factor at its start
    scaled = list(np.array(loop.times) / host.factors(loop.starts))
    factor = sum(loop.times) / sum(scaled)
    if args.workload == "cli":
        peak_rss = wl.peak_rss
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    errors += _check(wl, first)
    wall = {
        "setup_s": setup_wall_s,
        "ops_per_s": len(loop.times) / loop.wall,
        "op_ms_p50": quantile_ms(loop.times, 50),
        "op_ms_p90": quantile_ms(loop.times, 90),
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(wall["ops_per_s"] * factor, "ops/s"),
        "op_ms_p50": metric(quantile_ms(scaled, 50), "ms"),
        "op_ms_p90": metric(quantile_ms(scaled, 90), "ms"),
        "peak_rss_mb": metric(peak_rss / 2**20, "MB"),
    }
    print(f"workload {args.workload}: {len(loop.times)} operations in {loop.wall:.2f} s, "
          f"{len(wl.cases)} inputs per round; host {factor:.3f}x slower than the reference "
          f"speed on average ({len(host.samples)} kernel samples); wall: "
          + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print("wall time per operation:")
    for line in histogram(loop.times, {"<- p50": wall["op_ms_p50"], "<- p90": wall["op_ms_p90"]}):
        print(line)
    return {"errors": errors, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}


def alternating(wl, sv, tracer, seconds: float, first: list, errors: list) -> tuple[Loop, Loop]:
    """Run each of ``wl``'s inputs untraced and then traced, round after
    round, until both sides together have run ``seconds`` (at least one
    round).  The two runs of an input see the same host speed, so the
    difference between the sides is the tracer's cost."""
    plain_op = wl.in_process_op()
    traced_op = tracer.operation("op", wl.in_process_op(tracer))
    plain, traced = Loop([], [], [], 0.0, 0, 0), Loop([], [], [], 0.0, 0, 0)
    while not plain.attempted or plain.wall + traced.wall < seconds:
        for i in range(len(wl.cases)):
            plain.add(timed_loop(plain_op, wl.digest, [i], 0.0, 1, first, errors))
            with tracing.installed(tracer, sv):
                traced.add(timed_loop(traced_op, wl.digest, [i], 0.0, 1, first, errors))
    return plain, traced


def traced(args, sv, workdir: str) -> dict:
    """Per-layer figures: every workload's mix, untraced and traced rounds in turn."""
    phase_s = args.seconds / len(workloads.WORKLOADS)
    errors: list = []
    attempted = failed = 0
    per_layer: dict = {}
    dump: dict = {}

    for name, workload in workloads.WORKLOADS.items():
        wl = workload(sv, args.seed, workdir)
        wl.in_process_op()(0)
        first = [None] * len(wl.cases)
        tracer = tracing.Tracer(keep_ops=len(wl.cases))
        plain, loop = alternating(wl, sv, tracer, phase_s, first, errors)
        errors += _check(wl, first)
        attempted += plain.attempted + loop.attempted
        failed += plain.failed + loop.failed
        n = len(loop.times)
        overhead = quantile_ms(loop.times, 50) - quantile_ms(plain.times, 50)
        per_layer[f"trace.overhead_ms.{name}"] = metric(overhead, "ms")
        dump[name] = {
            "ops": n,
            "total_s": dict(tracer.total),
            "self_s": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }
        for layer, (workload_name, field, key) in SPAN_METRICS.items():
            if workload_name == name:
                value = getattr(tracer, field)[key] / n
                is_time = field in ("total", "self_time")
                per_layer[layer] = metric(value * 1e3, "ms") if is_time else metric(value, "count")
        per_layer.update(wl.layer_metrics(plain))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-seed{args.seed}-{os.getpid()}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "phase_s": phase_s, "workloads": dump}, fh)
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sv = _import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            result = traced(args, sv, workdir)
        else:
            result = end_to_end(args, sv, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_only:
        return 0
    for message in result["errors"][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
