"""The package names the benchmark reads still resolve.

``bench/*.py`` holds the package as ``sv`` (or ``self.sv``) and reads
``sv.<name>`` and ``sv.<module>.<name>``; the tracer also wraps functions
by module attribute.  A rename in the package would otherwise surface only
when the benchmark runs.
"""

import ast
from pathlib import Path

import schurvar
import schurvar.cli  # noqa: F401  (the benchmark imports it too)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_chain(node: ast.Attribute) -> list[str] | None:
    """``["schur", "schur_step"]`` for ``sv.schur.schur_step`` or
    ``self.sv.schur.schur_step``; None for other attribute chains."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.reverse()
    if isinstance(node, ast.Name) and node.id == "sv":
        return names
    if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["sv"]:
        return names[1:] or None
    return None


def _bench_reads() -> set[tuple[str, ...]]:
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                chain = _package_chain(node)
                if chain:
                    reads.add(tuple(chain))
    return reads


def test_bench_reads_are_found():
    reads = _bench_reads()
    # the tracer's wrap targets and a workload read, as a check of the scan
    assert ("schur", "schur_step") in reads
    assert ("regions", "containment_depths") in reads
    assert ("cli", "main") in reads


def test_every_name_the_bench_reads_resolves():
    missing = []
    for chain in sorted(_bench_reads()):
        obj = schurvar
        for name in chain:
            if not hasattr(obj, name):
                missing.append("sv." + ".".join(chain))
                break
            obj = getattr(obj, name)
    assert not missing, missing
