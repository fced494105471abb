"""Print SHA-256 digests of the benchmark's operation outputs.

    python3 tools/digests.py [--src DIR]

Runs one round of the ``boundary``, ``classify`` and ``membership``
workloads of ``bench/workloads.py`` for each of the seeds 1, 2 and 6, with
``DIR`` (default: the ``src/`` of this checkout) as the package, and hashes
the ``repr`` of each operation's digest (the bytes the benchmark compares
from round to round) in input order.  The benchmark's digests leave out the
regions' angles, so a third line hashes the ``eps_angles`` bytes of the
region of each ``boundary`` and ``membership`` operation: a ``Jordan``
derives them from its sample count, and the line checks that they keep
their bytes.  The benchmark's ``membership`` digest holds the depths of the
oracle's values but not the draws, so a fourth line calls
``oracle_samples`` on each ``membership`` input, as the operation does, and
hashes the bytes of every draw's zeros, front factor and value.  It prints:

    boundary+classify <sha256>
    membership <sha256>
    eps_angles <sha256>
    oracle <sha256>

Equal lines for two trees mean that those operations gave the same bits:

    python3 tools/digests.py --src ../old-checkout/src
    python3 tools/digests.py

The benchmark's modules are imported as they stand and left unchanged; no
bytecode is written next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 6)
#: Each printed line and the workloads it hashes, in order.
GROUPS = (("boundary+classify", ("boundary", "classify")), ("membership", ("membership",)))
#: The workloads whose ``eps_angles`` the last line hashes, and the region
#: in the output of one of their operations.
REGION_OF = {"boundary": lambda out: out, "membership": lambda out: out[0]}


def oracle_draws(sv, wl, h) -> None:
    """Feed ``h`` the bytes of every draw of ``oracle_samples`` on each input
    of the ``membership`` workload ``wl``: zeros, then front and value."""
    for req in wl.requests:
        gamma = sv.schur_parameters(req.data, req.tol).gamma
        draws = sv.oracle_samples(
            gamma, req.domain, req.j, req.z0, wl.oracle_seed, wl.DRAWS, req.tol.quad_tol
        )
        for s in draws:
            h.update(np.array(s.zeros, dtype=np.complex128).tobytes())
            h.update(np.array([s.unimodular_factor, s.value]).tobytes())


def digests(src: Path) -> list[tuple[str, str]]:
    """``(label, hex digest)`` per line of :data:`GROUPS`, then the
    ``eps_angles`` and ``oracle`` lines."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import schurvar as sv
    import workloads

    if Path(sv.__file__).resolve().parent != src.resolve() / "schurvar":
        sys.exit(f"digests: imported schurvar from {sv.__file__}, not from {src}")
    out = []
    angles, oracle = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for label, names in GROUPS:
            h = hashlib.sha256()
            for seed in SEEDS:
                for name in names:
                    wl = workloads.WORKLOADS[name](sv, seed, workdir)
                    for i in range(len(wl.cases)):
                        result = wl.op(i)
                        h.update(repr(wl.digest(result)).encode())
                        if name in REGION_OF:
                            angles.update(REGION_OF[name](result).eps_angles.tobytes())
                    if name == "membership":
                        oracle_draws(sv, wl, oracle)
            out.append((label, h.hexdigest()))
    out.append(("eps_angles", angles.hexdigest()))
    out.append(("oracle", oracle.hexdigest()))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources")
    args = parser.parse_args()
    for label, hexdigest in digests(args.src):
        print(label, hexdigest)


if __name__ == "__main__":
    main()
