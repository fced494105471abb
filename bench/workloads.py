"""The four workloads: seeded inputs, one operation, and the output checks.

Each workload holds a fixed list of inputs (one *round*).  Its structure
(domains, weights, endpoint radii, orders, classes) is the same for every
seed; the seed only draws the parameter values and phases inside each
stratum, and several draws per stratum keep the cost of a round nearly the
same from seed to seed.  The timed loop runs whole rounds; the checks look
at the first round's outputs and the loop compares every later output with
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace

import numpy as np

import reference as ref
import tracing

#: The CLI's default boundary sampling and the containment tolerance.
SAMPLES = 512
GEOM_TOL = 1e-6

#: Value checks against the reference: the program integrates to an
#: absolute 1e-10, the reference is accurate to rounding.
VALUE_TOL = 1e-8


class Workload:
    """One round of seeded inputs, the operation run on each, and the checks.

    ``op(i)`` is the operation the end-to-end loop times.  The traced run
    times ``in_process_op()`` and ``in_process_op(tracer)`` instead, each
    input untraced and then traced, and adds ``layer_metrics(plain)``, the
    workload's own per-layer figures, from the untraced runs ``plain``.
    """

    def in_process_op(self, tracer=None):
        return self.op

    def layer_metrics(self, plain) -> dict:
        return {}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _draw_gamma(rng: np.random.Generator, order: int, radius: float) -> tuple:
    """Area-uniform parameters in the disk of ``radius``."""
    moduli = radius * np.sqrt(rng.random(order + 1))
    phases = 2.0 * np.pi * rng.random(order + 1)
    return tuple(complex(x) for x in moduli * np.exp(1j * phases))


def _completed(cases, outs):
    """``(case, out)`` for every input whose operation completed."""
    return [(c, o) for c, o in zip(cases, outs) if o is not None]


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent stream per purpose; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


@dataclass(frozen=True)
class Target:
    """A target domain as both the program and the reference see it."""

    kind: str
    center: complex = 0.0
    radius: float = 1.0

    def domain(self, sv):
        if self.kind == "half-plane":
            return sv.half_plane()
        if self.kind == "strip":
            return sv.strip()
        return sv.disk(self.center, self.radius)

    def reference_map(self):
        return ref.domain_map(self.kind, self.center, self.radius)


DOMAINS = ("half-plane", "disk", "strip")


def _target(rng: np.random.Generator, kind: str) -> Target:
    """A target domain of ``kind``; a disk gets its own seeded centre and radius."""
    if kind != "disk":
        return Target(kind)
    center = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Target(kind, center, float(rng.uniform(0.5, 2.0)))


# --------------------------------------------------------------------------
# boundary: region() on interior data at the CLI default sampling


@dataclass(frozen=True)
class RegionCase:
    gamma: tuple
    target: Target
    j: int
    z0: complex


def _region_cases(rng, radii, orders, weights, draws: int, gamma_radius: float) -> list:
    """``draws`` parameter vectors for every domain, |z0|, order and weight.

    The strip map's cost per point depends on where its values fall (one
    input costs 1.7 ms, another 8.6 ms, at equal panel counts), so each
    stratum gets several draws to keep the upper quantiles of a round from
    hanging on a few of them.  Every disk input has a disk of its own: the
    quadrature tolerance is absolute, so a disk's size sets how much a
    third of the round costs, and one disk per seed moved p90 with the seed.
    """
    return [
        RegionCase(_draw_gamma(rng, order, gamma_radius), _target(rng, kind), j, radius * _phase(rng))
        for kind in DOMAINS
        for radius in radii
        for order in orders
        for j in weights
        for _ in range(draws)
    ]


def _traced_requests(sv, requests: list, tracer) -> list:
    """The same requests with domain maps that report to ``tracer``."""
    return [replace(r, domain=tracer.domain(sv, r.domain)) for r in requests]


def _region_requests(sv, cases: list, samples: int) -> list:
    return [
        sv.RegionRequest(
            data=sv.CaratheodoryData(ref.composed_coefficients(c.gamma, (), len(c.gamma) - 1)),
            j=c.j,
            z0=c.z0,
            domain=c.target.domain(sv),
            samples=samples,
        )
        for c in cases
    ]


class BoundaryWorkload(Workload):
    WEIGHTS = (-1, 0, 2)
    RADII = (0.3, 0.55, 0.7, 0.85)
    ORDERS = (2, 4, 6, 8)
    #: 2304 inputs a round: p90 falls in the strip class's thin tail.
    DRAWS = 16
    GAMMA_RADIUS = 0.6

    def __init__(self, sv, seed: int, _workdir: str):
        self.sv = sv
        rng = _rng(seed, 1)
        self.cases = _region_cases(rng, self.RADII, self.ORDERS, self.WEIGHTS, self.DRAWS, self.GAMMA_RADIUS)
        self.requests = _region_requests(sv, self.cases, SAMPLES)
        self.flat_z0 = [r * _phase(rng) for r in self.RADII]
        self.check_rng = _rng(seed, 11)

    def op(self, i: int):
        return self.sv.region(self.requests[i])

    def in_process_op(self, tracer=None):
        if tracer is None:
            return self.op
        requests = _traced_requests(self.sv, self.requests, tracer)
        return lambda i: self.sv.region(requests[i])

    @staticmethod
    def digest(out):
        return out.boundary.tobytes(), out.interior_witness

    def check(self, outs: list) -> list[str]:
        errors = []
        for case, out in _completed(self.cases, outs):
            errors += _check_jordan(self.sv, case, out, SAMPLES, self.check_rng)
        errors += self._check_flat()
        return errors

    def _check_flat(self) -> list[str]:
        """Flat data (0, 0), half-plane, j = -1: the region is bounded by
        ``-log(1 - eps z0^2)``."""
        sv = self.sv
        errors = []
        for z0 in self.flat_z0:
            out = sv.region(
                sv.RegionRequest(
                    data=(0.0, 0.0), j=-1, z0=z0, domain=sv.half_plane(), samples=SAMPLES
                )
            )
            eps = np.exp(2j * np.pi * np.arange(SAMPLES) / SAMPLES)
            gap = float(np.max(np.abs(out.boundary - (-np.log(1.0 - eps * z0 * z0)))))
            if not gap < 1e-9:
                errors.append(f"flat data at z0={z0:.3f}: closed-form gap {gap:.2e}")
        return errors


def _check_jordan(sv, case: RegionCase, out, samples: int, rng) -> list[str]:
    where = f"{case.target.kind} j={case.j} |z0|={abs(case.z0):.2f} n={len(case.gamma) - 1}"
    if not isinstance(out, sv.Jordan) or len(out.boundary) != samples:
        return [f"{where}: expected a Jordan region of {samples} samples, got {out!r:.80}"]
    errors = []
    p_map = case.target.reference_map()
    scale = max(1.0, float(np.max(np.abs(out.boundary))))
    picks = [0] + sorted(int(k) for k in rng.choice(samples, size=3, replace=False))
    for k in picks:
        eps = complex(np.exp(2j * np.pi * k / samples))
        want = ref.boundary_value(case.gamma, p_map, case.j, case.z0, eps)
        if not abs(out.boundary[k] - want) <= VALUE_TOL * scale:
            errors.append(f"{where}: sample {k} off by {abs(out.boundary[k] - want):.2e}")
    want = ref.boundary_value(case.gamma, p_map, case.j, case.z0, 0.0)
    if not abs(out.interior_witness - want) <= VALUE_TOL * scale:
        errors.append(f"{where}: witness off by {abs(out.interior_witness - want):.2e}")
    worst_turn, winding = ref.convex_loop_defects(out.boundary, out.interior_witness)
    if not worst_turn >= -GEOM_TOL:
        errors.append(f"{where}: reflex turn {worst_turn:.2e}")
    if not abs(abs(winding) - 1.0) < 1e-6:
        errors.append(f"{where}: winds {winding:.6f} times around its witness")
    return errors


# --------------------------------------------------------------------------
# membership: the `sample` pipeline in the library


class MembershipWorkload(Workload):
    WEIGHTS = (-1, 0, 2)
    RADII = (0.3, 0.5)
    ORDER = 4
    GAMMA_RADIUS = 0.4
    #: Five parameter vectors per configuration, as acceptance criterion 6.
    DRAWS_PER_CASE = 5
    SAMPLES = 4096
    DRAWS = 1000
    RECHECKED_DRAWS = 3

    def __init__(self, sv, seed: int, _workdir: str):
        self.sv = sv
        rng = _rng(seed, 2)
        self.cases = _region_cases(rng, self.RADII, (self.ORDER,), self.WEIGHTS, self.DRAWS_PER_CASE,
                                   self.GAMMA_RADIUS)
        self.requests = _region_requests(sv, self.cases, self.SAMPLES)
        self.oracle_seed = int(rng.integers(0, 2**31))
        self.check_rng = _rng(seed, 12)
        self.rechecked = [
            self.check_rng.choice(self.DRAWS, size=self.RECHECKED_DRAWS, replace=False) for _ in self.cases
        ]

    def op(self, i: int):
        return self._pipeline(self.requests, i)

    def in_process_op(self, tracer=None):
        if tracer is None:
            return self.op
        requests = _traced_requests(self.sv, self.requests, tracer)
        return lambda i: self._pipeline(requests, i)

    def _pipeline(self, requests: list, i: int):
        """The pipeline; returns the region, every draw's value, the depths
        and the few draws the checks recompute (the rest are let go)."""
        sv = self.sv
        req = requests[i]
        cls = sv.schur_parameters(req.data, req.tol)
        jordan = sv.region(req)
        draws = sv.oracle_samples(
            cls.gamma, req.domain, req.j, req.z0, self.oracle_seed, self.DRAWS, req.tol.quad_tol
        )
        values = [s.value for s in draws]
        depths = sv.containment_depths(jordan, values)
        return jordan, np.array(values), depths, [draws[k] for k in self.rechecked[i]]

    @staticmethod
    def digest(out):
        jordan, _, depths, _ = out
        return jordan.boundary.tobytes(), depths.tobytes()

    def layer_metrics(self, plain) -> dict:
        """``regions.peak_alloc_mb``: the tracemalloc peak of the oracle
        and containment calls on one input per target domain."""
        peaks: list = []
        with tracing.allocation_probe(self.sv, peaks):
            for i in range(0, len(self.cases), len(self.cases) // 3):
                self.op(i)
        return {"regions.peak_alloc_mb": metric(max(peaks) / 2**20, "MB")}

    def check(self, outs: list) -> list[str]:
        errors = []
        for case, (jordan, values, depths, picked) in _completed(self.cases, outs):
            where = f"{case.target.kind} j={case.j} |z0|={abs(case.z0):.2f}"
            errors += _check_jordan(self.sv, case, jordan, self.SAMPLES, self.check_rng)
            if len(values) != self.DRAWS or not np.all(depths <= GEOM_TOL):
                errors.append(f"{where}: {int(np.sum(depths > GEOM_TOL))} draws reported outside")
            own = ref.outside_depths(jordan.boundary, jordan.interior_witness, values)
            if not np.all(own <= GEOM_TOL):
                errors.append(f"{where}: draw outside by {float(np.max(own)):.2e}")
            p_map = case.target.reference_map()
            for s in picked:
                want = ref.member_value(
                    case.gamma, p_map, case.j, case.z0, s.zeros, s.unimodular_factor
                )
                if not abs(s.value - want) <= VALUE_TOL * max(1.0, abs(want)):
                    errors.append(f"{where}: a draw is off by {abs(s.value - want):.2e}")
        return errors


# --------------------------------------------------------------------------
# classify: peeling, plus the per-draw work of `verify` on interior data


@dataclass(frozen=True)
class ClassifyCase:
    kind: str  # "interior", "boundary", "exterior-modulus", "exterior-tail"
    order: int
    index: int  # unimodular index or exterior witness; order + 1 for interior
    gamma: tuple  # the parameters known by construction (the prefix for others)


class ClassifyWorkload(Workload):
    ORDERS = range(0, 21)
    GAMMA_RADIUS = 0.7
    #: Round trips of interior parameters; at order 20 they reach 2e-11.
    ROUND_TRIP_TOL = 1e-8
    RESIDUAL_TOL = 1e-10

    def __init__(self, sv, seed: int, _workdir: str):
        self.sv = sv
        rng = _rng(seed, 3)
        self.cases = []
        self.data = []
        for n in self.ORDERS:
            kinds = ["interior", "interior", "boundary", "exterior-modulus"]
            kinds.append("exterior-tail" if n >= 1 else "interior")
            for kind in kinds:
                case, coeffs = self._make(rng, kind, n)
                self.cases.append(case)
                self.data.append(sv.CaratheodoryData(coeffs))

    def _make(self, rng, kind: str, n: int):
        r = self.GAMMA_RADIUS
        if kind == "interior":
            gamma = _draw_gamma(rng, n, r)
            return ClassifyCase(kind, n, n + 1, gamma), ref.composed_coefficients(gamma, (), n)
        if kind == "boundary":
            # the unique interpolant is a Blaschke product of degree i
            i = n % 7
            prefix = _draw_gamma(rng, i, r)[:i]
            inner = (_phase(rng),)
        elif kind == "exterior-modulus":
            i = n % 5
            prefix = _draw_gamma(rng, i, r)[:i]
            inner = (rng.uniform(1.2, 2.0) * _phase(rng),) + _draw_gamma(rng, n - i, 0.5)[1:]
        else:
            i = (n - 1) % 6
            prefix = _draw_gamma(rng, i, r)[:i]
            tail = _draw_gamma(rng, n - i, 0.5)[1:]
            inner = (_phase(rng), rng.uniform(0.1, 0.5) * _phase(rng)) + tail[1:]
        return ClassifyCase(kind, n, i, prefix + inner[:1]), ref.composed_coefficients(prefix, inner, n)

    def op(self, i: int):
        sv = self.sv
        cls = sv.schur_parameters(self.data[i])
        if not isinstance(cls, sv.Interior):
            return cls, None, None
        polys = sv.build_polynomials(cls.gamma)
        return cls, polys.contraction_product, sv.identity_residuals(cls.gamma)

    @staticmethod
    def digest(out):
        cls, product, residuals = out
        return cls, product, residuals and tuple(residuals.values())

    def check(self, outs: list) -> list[str]:
        sv = self.sv
        errors = []
        for case, (cls, product, residuals) in _completed(self.cases, outs):
            where = f"{case.kind} n={case.order} i={case.index}"
            if case.kind == "interior":
                if not isinstance(cls, sv.Interior) or len(cls.gamma) != case.order + 1:
                    errors.append(f"{where}: classified {cls!r:.80}")
                    continue
                gap = max(abs(a - b) for a, b in zip(cls.gamma, case.gamma))
                if not gap <= self.ROUND_TRIP_TOL:
                    errors.append(f"{where}: round trip off by {gap:.2e}")
                want = math.prod(1.0 - abs(g) ** 2 for g in case.gamma)
                if not abs(product - want) <= 1e-8 * want:
                    errors.append(f"{where}: contraction product {product!r} != {want!r}")
                worst = max(residuals.values())
                if not worst < self.RESIDUAL_TOL:
                    errors.append(f"{where}: polynomial law residual {worst:.2e}")
            elif case.kind == "boundary":
                if not isinstance(cls, sv.Boundary) or cls.unimodular_index != case.index:
                    errors.append(f"{where}: classified {cls!r:.80}")
                    continue
                gap = max(abs(a - b) for a, b in zip(cls.gamma_prefix, case.gamma))
                if not gap <= self.ROUND_TRIP_TOL:
                    errors.append(f"{where}: prefix off by {gap:.2e}")
            else:
                reason = (
                    sv.ExteriorReason.MODULUS_EXCEEDS_ONE
                    if case.kind == "exterior-modulus"
                    else sv.ExteriorReason.UNIMODULAR_WITH_NONZERO_TAIL
                )
                if not (
                    isinstance(cls, sv.Exterior)
                    and cls.witness_index == case.index
                    and cls.reason is reason
                ):
                    errors.append(f"{where}: classified {cls!r:.80}")
        return errors


# --------------------------------------------------------------------------
# cli: one `python -m schurvar ...` child per operation


class CliWorkload(Workload):
    ORDER = 4
    GAMMA_RADIUS = 0.4
    Z0_RADIUS = 0.5
    J = 0
    SAMPLE_COUNT = 200
    VERIFY_DRAWS = 100
    #: A child that runs this long has hung; it is killed and counted failed.
    CHILD_TIMEOUT_S = 60.0

    def __init__(self, sv, seed: int, workdir: str):
        self.sv = sv
        self.workdir = workdir
        rng = _rng(seed, 4)
        self.gamma = _draw_gamma(rng, self.ORDER, self.GAMMA_RADIUS)
        self.coeffs = ref.composed_coefficients(self.gamma, (), self.ORDER)
        self.z0 = self.Z0_RADIUS * _phase(rng)
        self.cli_seed = int(rng.integers(0, 2**31))
        with open(self.path("data.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"coefficients": [[c.real, c.imag] for c in self.coeffs], "domain": "half-plane"},
                fh,
            )
        z0_text = f"{self.z0.real!r}{'+' if self.z0.imag >= 0 else '-'}{abs(self.z0.imag)!r}i"
        region_args = ["--input", self.path("data.json"), f"--z0={z0_text}", "--j", str(self.J)]
        self.commands = [
            ("classify", ["classify", "--input", self.path("data.json")]),
            ("boundary", ["boundary", *region_args, "--output", self.path("curve.csv")]),
            ("sample", ["sample", *region_args, "--count", str(self.SAMPLE_COUNT),
                        "--seed", str(self.cli_seed)]),
            ("verify", ["verify", "--seed", str(self.cli_seed), "--draws", str(self.VERIFY_DRAWS)]),
            ("plot", ["plot", "--input", self.path("curve.csv"), "--output", self.path("curve.svg")]),
        ]
        self.cases = [name for name, _ in self.commands]
        src = os.path.dirname(os.path.dirname(os.path.abspath(sv.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        #: Peak resident set of the largest child so far, in bytes.
        self.peak_rss = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _files(self, name: str) -> bytes:
        produced = {"boundary": "curve.csv", "plot": "curve.svg"}.get(name)
        if produced is None:
            return b""
        with open(self.path(produced), "rb") as fh:
            return fh.read()

    def op(self, i: int):
        """Run one child; the result is its exit code, stdout and output file."""
        name, argv = self.commands[i]
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurvar", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=self.workdir,
        )
        watchdog = threading.Timer(self.CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss = max(self.peak_rss, usage.ru_maxrss * 1024)
        if proc.returncode != 0:
            raise RuntimeError(f"`schurvar {name}` exited with code {proc.returncode}")
        return proc.returncode, out, self._files(name)

    def in_process_op(self, tracer=None):
        """The children cannot be traced from outside the package, so the
        traced run times ``schurvar.cli.main(argv)`` in this process."""
        return self._main

    def _main(self, i: int):
        """``schurvar.cli.main(argv)`` in this process, stdout captured."""
        name, argv = self.commands[i]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sv.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"`schurvar {name}` returned {code}")
        return code, buf.getvalue().encode(), self._files(name)

    @staticmethod
    def digest(out):
        return out

    def layer_metrics(self, plain) -> dict:
        """``cli.main_ms.<command>``: the median of each command's untraced
        in-process runs; ``cli.import_ms``: the median of five children
        that only import the package."""
        metrics = {}
        for i, name in enumerate(self.cases):
            times = [t for t, k in zip(plain.times, plain.inputs) if k == i]
            metrics[f"cli.main_ms.{name}"] = metric(statistics.median(times) * 1e3, "ms")
        imports = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import schurvar"], env=self.env, check=True)
            imports.append(time.perf_counter() - t0)
        metrics["cli.import_ms"] = metric(statistics.median(imports) * 1e3, "ms")
        return metrics

    def check(self, outs: list) -> list[str]:
        errors = []
        for name, (code, stdout, produced) in _completed(self.cases, outs):
            try:
                errors += getattr(self, f"_check_{name}")(stdout.decode(), produced.decode())
            except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
                errors.append(f"{name}: output does not parse: {exc!r}")
        return errors

    def _check_classify(self, stdout: str, _produced: str) -> list[str]:
        payload = json.loads(stdout)
        gap = max(abs(complex(re, im) - g) for (re, im), g in zip(payload["gamma"], self.gamma))
        if payload["class"] != "interior" or len(payload["gamma"]) != self.ORDER + 1 or gap > 1e-12:
            return [f"classify: unexpected payload {stdout.strip()[:120]}"]
        return []

    def _check_boundary(self, _stdout: str, produced: str) -> list[str]:
        lines = produced.splitlines()
        if lines[0] != "theta,re,im" or not lines[-1].startswith("# "):
            return ["boundary: CSV lacks its header or sidecar"]
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:-1]]
        sidecar = json.loads(lines[-1][2:])
        sv = self.sv
        want = sv.region(
            sv.RegionRequest(
                data=sv.CaratheodoryData(self.coeffs), j=self.J, z0=self.z0,
                domain=sv.half_plane(), samples=SAMPLES,
            )
        )
        got = np.array([complex(re, im) for _, re, im in rows])
        thetas = np.array([t for t, _, _ in rows])
        if not (
            len(rows) == SAMPLES
            and np.array_equal(got, want.boundary)
            and np.array_equal(thetas, want.eps_angles)
            and complex(*sidecar["interior_witness"]) == want.interior_witness
        ):
            return ["boundary: CSV differs from the library region for the same request"]
        return []

    def _check_sample(self, stdout: str, _produced: str) -> list[str]:
        payload = json.loads(stdout)
        if payload["count"] != self.SAMPLE_COUNT or payload["inside"] != payload["count"]:
            return [f"sample: {stdout.strip()[:120]}"]
        return []

    def _check_verify(self, stdout: str, _produced: str) -> list[str]:
        rows = stdout.splitlines()[1:]
        laws = {row.split()[0]: row.split()[-1] for row in rows}
        if sorted(laws) != sorted(("mirror", "determinant", "coercivity", "domination")) or set(
            laws.values()
        ) != {"PASS"}:
            return [f"verify: {stdout.strip()[:200]}"]
        return []

    def _check_plot(self, _stdout: str, produced: str) -> list[str]:
        root = ET.fromstring(produced)
        paths = [el for el in root.iter() if el.tag.endswith("path") and el.get("class") == "curve"]
        if not paths or paths[0].get("d", "").count(" L ") != SAMPLES:
            return ["plot: SVG lacks the closed boundary path"]
        return []


#: The workloads by name, in the order the traced run measures them.
WORKLOADS = {
    "boundary": BoundaryWorkload,
    "membership": MembershipWorkload,
    "classify": ClassifyWorkload,
    "cli": CliWorkload,
}
