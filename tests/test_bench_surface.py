"""The package names and keywords the benchmark uses still resolve.

``bench/*.py`` holds the package as ``sv`` (or ``self.sv``) and reads
``sv.<name>`` and ``sv.<module>.<name>``; the tracer also wraps functions
by module attribute and rebuilds ``DomainMap`` objects by keyword.  A
rename in the package would otherwise surface only when the benchmark
runs.
"""

import ast
import inspect
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


def _bench_nodes():
    for path in sorted(BENCH.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _bench_reads() -> set[tuple[str, ...]]:
    reads = set()
    for node in _bench_nodes():
        if isinstance(node, ast.Attribute):
            chain = _package_chain(node)
            if chain:
                reads.add(tuple(chain))
    return reads


def _bench_calls() -> set[tuple[tuple[str, ...], int, tuple[str, ...]]]:
    """``(chain, positional count, keyword names)`` of every call the
    benchmark makes to an ``sv.*`` callable without ``*`` or ``**`` unpacking."""
    calls = set()
    for node in _bench_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = _package_chain(node.func)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            if chain and not unpacked:
                calls.add((tuple(chain), len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


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


def test_every_bench_call_fits_its_signature():
    calls = _bench_calls()
    # the tracer's rebuilt domain, as a check of the scan
    assert (("DomainMap",), 0, ("label", "map", "derivative", "inverse")) in calls
    misfits = []
    for chain, positional, keywords in sorted(calls):
        obj = schurvar
        for name in chain:
            obj = getattr(obj, name, None)
        try:
            inspect.signature(obj).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            misfits.append(f"sv.{'.'.join(chain)}: {exc}")
    assert not misfits, misfits
