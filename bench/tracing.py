"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces public functions of ``schur``, ``polynomials``,
``quadrature`` and ``regions`` at their module attributes (every module
that imported the name gets the wrapper) and wraps the callables of
``DomainMap`` objects.  Nothing in the package changes; the originals are
put back when the ``installed`` block ends.

A span is ``(id, parent_id, name, start, end, op)``.  Totals and self
times (a span's duration minus the time its child spans cover) are kept
for every span; raw spans only for the first ``keep_ops`` operations, so a
trace stays small enough to write out.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self, keep_ops: int):
        self.keep_ops = keep_ops
        self.op = -1
        self.spans: list[tuple] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count = (counter, f(*args) -> int)``."""

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if self.op < self.keep_ops:
                    self.spans.append((span_id, parent, name, start, end, self.op))

        return traced

    def operation(self, name: str, op):
        """``op(i)`` as the root span of operation number ``self.op``."""
        traced = self.wrap(name, op)

        def run(i: int):
            self.op += 1
            return traced(i)

        return run

    def domain(self, sv, dm):
        """A DomainMap whose three callables are traced."""
        points = lambda z: int(np.size(z))
        return sv.DomainMap(
            label=dm.label,
            map=self.wrap("domains.map", dm.map, ("domains.map_points", points)),
            derivative=self.wrap("domains.derivative", dm.derivative),
            inverse=self.wrap("domains.inverse", dm.inverse),
        )


def _modules(sv):
    return (sv, sv.schur, sv.polynomials, sv.domains, sv.quadrature, sv.regions, sv.cli)


@contextlib.contextmanager
def _patched(targets, sv):
    """Replace, in every package module, each attribute that *is* one of
    the originals in ``targets`` (a list of ``(original, replacement,
    modules-or-None)``)."""
    saved = []
    try:
        for original, replacement, where in targets:
            for module in where or _modules(sv):
                for attr in [a for a, v in vars(module).items() if v is original]:
                    saved.append((module, attr, original))
                    setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def installed(tracer: Tracer, sv):
    """Context manager that routes the package's layer calls through ``tracer``."""
    integrate = sv.quadrature.integrate_segment

    def counted_integrate(f, z0, tol, *args, **kwargs):
        def integrand(zeta):
            out = f(zeta)
            tracer.counts["quadrature.panels"] += 1
            tracer.counts["quadrature.points"] += int(np.size(out))
            return out

        return integrate(integrand, z0, tol, *args, **kwargs)

    def pairs(result, points):
        vertices = result.boundary if isinstance(result, sv.Jordan) else result
        return int(np.size(points)) * len(vertices)

    w = tracer.wrap
    targets = [
        (sv.schur.schur_parameters, w("schur.classify", sv.schur.schur_parameters), None),
        (sv.schur.schur_step, w("schur.peel_step", sv.schur.schur_step), None),
        (sv.polynomials.build_polynomials, w("polynomials.build", sv.polynomials.build_polynomials), None),
        (sv.polynomials.identity_residuals,
         w("polynomials.residuals", sv.polynomials.identity_residuals), None),
        # eval_poly as seen from regions: the integrand's and the oracle's lifts
        (sv.polynomials.eval_poly,
         w("polynomials.eval", sv.polynomials.eval_poly,
           ("polynomials.eval_points", lambda p, z: int(np.size(z)))),
         (sv.regions,)),
        (integrate, w("quadrature.integrate", counted_integrate), None),
        (sv.regions.region, w("regions.region", sv.regions.region), None),
        (sv.regions.boundary_curve, w("regions.boundary_curve", sv.regions.boundary_curve), None),
        (sv.regions.q_value, w("regions.q_value", sv.regions.q_value), None),
        (sv.regions.oracle_samples, w("regions.oracle", sv.regions.oracle_samples), None),
        (sv.regions.containment_depths,
         w("regions.containment", sv.regions.containment_depths, ("regions.containment_pairs", pairs)),
         None),
    ]
    return _patched(targets, sv)


@contextlib.contextmanager
def allocation_probe(sv, peaks: list):
    """Append the tracemalloc peak (bytes) of every oracle and containment
    call to ``peaks``.  Kept apart from the timed spans: tracemalloc slows
    every Python allocation."""

    def measured(fn):
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return run

    targets = [
        (sv.regions.oracle_samples, measured(sv.regions.oracle_samples), None),
        (sv.regions.containment_depths, measured(sv.regions.containment_depths), None),
    ]
    with _patched(targets, sv):
        yield
