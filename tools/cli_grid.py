"""Run a fixed grid of ``schurvar`` commands and record everything they print.

    python3 tools/cli_grid.py OUTDIR [--src DIR]

Each command runs as its own ``python -m schurvar`` child, with ``DIR``
(default: the ``src/`` of this checkout) first on ``PYTHONPATH`` and its
own directory under ``OUTDIR`` as the working directory.  That directory
receives the command's ``argv`` (JSON), ``exit_code``, ``stdout``,
``stderr`` and the files the command writes.  Every path on a command line
is relative, so two runs give the same bytes wherever they are made:

    python3 tools/cli_grid.py /tmp/old --src ../old-checkout/src
    python3 tools/cli_grid.py /tmp/new
    diff -r /tmp/old /tmp/new

The grid is ``boundary`` and ``sample --count 300 --seed 7`` for two
inputs (order-3 data on the half-plane, (0, 0.5) on the strip) at every
j in {-1, 0, 2} and z0 in {0.5, 0.3+0.4i, 0.85}; ``classify`` on both
inputs; ``verify --seed 3 --draws 50``; one ``plot``;
``sample --count 10000 --seed 3 --j 0`` on the half-plane input at z0 0.9
and 0.95; and the sizes the rest never asks for: ``boundary --samples
1000`` on the half-plane input at z0 0.93, j 0, and on the strip input at
z0 0.95, j -1 (a count that is not a power of two, resampled from the
first batch), ``boundary --samples 8`` (a count no larger than the first
batch) and ``sample --count 0``, both on the half-plane input at z0 0.5,
j 0.  Four ``boundary`` commands on the half-plane data (0.5,) and
(0.993,) reach the paths of a first batch that does not resolve:

* (0.5,) at z0 0.9, j 0: 256 epsilons, then 256 in between, giving the
  512 samples exactly;
* (0.5,) at z0 0.3, j 0, ``--samples 4096``: 32, then 32 in between, then
  the 64 resampled up;
* (0.5,) at z0 0.93, j 0, ``--samples 1000``: 512, then 512 in between,
  then the 1024 folded down to 1000;
* (0.993,) at z0 0.914, j -1, ``--samples 768``: 512, then an in-between
  batch that does not converge, so the 768 are integrated directly.

Nine refusals follow, for their exit codes and stderr: ``classify`` on an
input whose ``domain`` is the number 5 (exit 2), ``boundary`` on
boundary-class data (1, 0) (exit 3), ``plot`` of a CSV whose row has two
fields (exit 2), ``boundary --domain disk:0,0,inf`` on the half-plane
input at z0 0.5 (exit 2), ``verify --draws 0`` (exit 2), the last
``boundary`` above at ``--samples 1024``, whose in-between batch holds
epsilons of a direct batch and fails on them (exit 4), and three regions
below the float range at z0 0.5 on the half-plane (exit 4): the data of
gamma = (0.3, 0.2i) at j 1000 and at j 2000 (whose witness underflows to
0) with 16 samples, and order-1000 zero data at j 0 with 64 samples.  The
script exits 1 if any command exits with another code than the grid
expects of it (0 for all the rest), or prints a Python warning line
(``file:line: ...Warning: ...``) on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The inputs, written into OUTDIR.  The half-plane coefficients are those
#: that gamma = (0.3+0.2i, -0.4i, 0.5, 0.1-0.3i) realizes.
INPUTS = {
    "half-plane": {
        "coefficients": [
            [0.3, 0.2],
            [0.0, -0.34800000000000003],
            [0.40715999999999997, -0.027840000000000007],
            [0.11995560000000002, -0.14703],
        ],
        "domain": "half-plane",
    },
    "strip": {"coefficients": [[0.0, 0.0], [0.5, 0.0]], "domain": "strip"},
    "half-plane-0.5": {"coefficients": [[0.5, 0.0]], "domain": "half-plane"},
    "half-plane-0.993": {"coefficients": [[0.993, 0.0]], "domain": "half-plane"},
}
#: The inputs of the grid's ``boundary``, ``sample`` and ``classify`` loops.
LOOPED = ("half-plane", "strip")
#: ``(input, z0, j, samples)`` of each ``boundary`` command whose first batch
#: does not resolve the requested samples.
UNRESOLVED_FIRST = [
    ("half-plane-0.5", "0.9", "0", "512"),
    ("half-plane-0.5", "0.3", "0", "4096"),
    ("half-plane-0.5", "0.93", "0", "1000"),
    ("half-plane-0.993", "0.914", "-1", "768"),
]
WEIGHTS = ("-1", "0", "2")
ENDPOINTS = ("0.5", "0.3+0.4i", "0.85")
#: The boundary that ``plot`` renders.
PLOTTED = "boundary-half-plane-j0-z0.5"
#: The files that the refusals read, written into OUTDIR as they stand.
REFUSED_FILES = {
    "label-5.json": json.dumps({"coefficients": [[0.0, 0.0], [0.5, 0.0]], "domain": 5}),
    "boundary-class.json": json.dumps({"coefficients": [[1.0, 0.0], [0.0, 0.0]]}),
    "malformed.csv": "theta,re,im\n0.0,1.0\n",
    "order-1.json": json.dumps(
        {"coefficients": [[0.3, 0.0], [0.0, 0.18200000000000002]], "domain": "half-plane"}
    ),
    "zeros-1001.json": json.dumps({"coefficients": [[0.0, 0.0]] * 1001, "domain": "half-plane"}),
}
#: ``(name, argv, exit code)`` of each command that must be refused.
REFUSALS = [
    ("classify-label-5", ["classify", "--input", "../label-5.json"], 2),
    ("boundary-boundary-class", ["boundary", "--input", "../boundary-class.json", "--z0=0.5"], 3),
    ("plot-malformed", ["plot", "--input", "../malformed.csv", "--output", "curve.svg"], 2),
    (
        "boundary-infinite-disk",
        ["boundary", "--input", "../half-plane.json", "--z0=0.5", "--domain", "disk:0,0,inf"],
        2,
    ),
    ("verify-zero-draws", ["verify", "--draws", "0"], 2),
    (
        "boundary-half-plane-0.993-j-1-z0.914-1024",
        [
            "boundary", "--input", "../half-plane-0.993.json", "--z0=0.914", "--j", "-1",
            "--samples", "1024", "--output", "curve.csv",
        ],
        4,
    ),
    (
        "boundary-order-1-j1000-16",
        [
            "boundary", "--input", "../order-1.json", "--z0=0.5", "--j", "1000",
            "--samples", "16", "--output", "curve.csv",
        ],
        4,
    ),
    (
        "boundary-order-1-j2000-16",
        [
            "boundary", "--input", "../order-1.json", "--z0=0.5", "--j", "2000",
            "--samples", "16", "--output", "curve.csv",
        ],
        4,
    ),
    (
        "boundary-zeros-1001-j0-64",
        [
            "boundary", "--input", "../zeros-1001.json", "--z0=0.5", "--j", "0",
            "--samples", "64", "--output", "curve.csv",
        ],
        4,
    ),
]
#: A line that the ``warnings`` module prints: ``file:line: CategoryWarning: text``.
WARNING_LINE = re.compile(rb"^\S.*:\d+: \w*Warning: ", re.MULTILINE)


def grid() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` per command, in run order; ``plot`` reads the CSV
    that an earlier ``boundary`` wrote."""
    commands = [
        (f"classify-{label}", ["classify", "--input", f"../{label}.json"]) for label in LOOPED
    ]
    for label in LOOPED:
        for j in WEIGHTS:
            for z0 in ENDPOINTS:
                region = ["--input", f"../{label}.json", f"--z0={z0}", "--j", j]
                name = f"{label}-j{j}-z{z0}"
                commands.append(
                    (f"boundary-{name}", ["boundary", *region, "--output", "curve.csv"])
                )
                commands.append(
                    (f"sample-{name}", ["sample", *region, "--count", "300", "--seed", "7"])
                )
    commands.append(("verify", ["verify", "--seed", "3", "--draws", "50"]))
    commands.append(
        ("plot", ["plot", "--input", f"../{PLOTTED}/curve.csv", "--output", "curve.svg"])
    )
    for z0 in ("0.9", "0.95"):
        region = ["--input", "../half-plane.json", f"--z0={z0}", "--j", "0"]
        argv = ["sample", *region, "--count", "10000", "--seed", "3"]
        commands.append((f"sample-half-plane-j0-z{z0}-10000", argv))
    for label, z0, j in (("half-plane", "0.93", "0"), ("strip", "0.95", "-1")):
        region = ["--input", f"../{label}.json", f"--z0={z0}", "--j", j]
        argv = ["boundary", *region, "--samples", "1000", "--output", "curve.csv"]
        commands.append((f"boundary-{label}-j{j}-z{z0}-1000", argv))
    region = ["--input", "../half-plane.json", "--z0=0.5", "--j", "0"]
    argv = ["boundary", *region, "--samples", "8", "--output", "curve.csv"]
    commands.append(("boundary-half-plane-j0-z0.5-8", argv))
    commands.append(("sample-half-plane-j0-z0.5-0", ["sample", *region, "--count", "0"]))
    for label, z0, j, samples in UNRESOLVED_FIRST:
        region = ["--input", f"../{label}.json", f"--z0={z0}", "--j", j]
        argv = ["boundary", *region, "--samples", samples, "--output", "curve.csv"]
        commands.append((f"boundary-{label}-j{j}-z{z0}-{samples}", argv))
    return commands


def run(outdir: Path, src: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for label, payload in INPUTS.items():
        (outdir / f"{label}.json").write_text(json.dumps(payload) + "\n")
    for name, text in REFUSED_FILES.items():
        (outdir / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = []
    for name, argv, expected in [(name, argv, 0) for name, argv in grid()] + REFUSALS:
        workdir = outdir / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "schurvar", *argv], cwd=workdir, env=env, capture_output=True
        )
        (workdir / "argv").write_text(json.dumps(argv) + "\n")
        (workdir / "exit_code").write_text(f"{proc.returncode}\n")
        (workdir / "stdout").write_bytes(proc.stdout)
        (workdir / "stderr").write_bytes(proc.stderr)
        if proc.returncode != expected:
            failed.append(f"{name}: exit {proc.returncode}, expected {expected}")
        if WARNING_LINE.search(proc.stderr):
            failed.append(f"{name}: a Python warning on stderr")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory to write the records into")
    parser.add_argument(
        "--src",
        type=Path,
        default=SRC,
        help="directory that holds the schurvar package (default: this checkout's src/)",
    )
    args = parser.parse_args()
    return run(args.outdir.resolve(), args.src.resolve())


if __name__ == "__main__":
    sys.exit(main())
