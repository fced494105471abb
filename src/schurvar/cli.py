"""Command-line surface: classify data, emit boundaries, sample, verify, plot.

Commands

* ``classify`` -- run the peeling algorithm on coefficient data and report
  the classification as JSON.
* ``boundary`` -- compute the sampled region boundary and emit CSV
  (``theta,re,im`` rows plus a trailing ``#`` JSON sidecar with the
  interior witness and the measured convexity defect).
* ``sample``   -- draw seeded random members of the region and report how
  many land inside the sampled boundary polygon.
* ``verify``   -- run the four polynomial-law residual suites over seeded
  random parameters and print a pass/fail table.
* ``plot``     -- render a boundary CSV as a standalone SVG.

``classify``, ``plot`` and ``--help`` do not import numpy: the commands
that compute (``boundary``, ``sample``, ``verify``) import the numeric
modules when they run, so the other three start without that cost.

Exit codes: 0 success, 1 property failure (verify), 2 malformed input,
3 classification mismatch (region commands on non-interior data),
4 numerical failure (quadrature or geometry).  ``--samples`` is capped
at ``MAX_SAMPLES`` and ``--count`` at ``MAX_COUNT``, so that no request can
exhaust memory; larger values, and a negative ``--count`` or ``--draws``,
exit 2 before anything is computed.  All output is
deterministic for fixed input bytes, flags, and seed.

Complex values serialize as two-element ``[re, im]`` arrays in JSON and
two CSV columns; ``--z0`` accepts ``a+bi`` notation, as ``--z0=-0.3+0.4i``
when the real part is negative.  Input JSON schema:
``{"coefficients": [[re, im], ...], "domain": "half-plane" | "strip" |
"disk:<re>,<im>,<r>"}``.  ``--quad-tol`` sets the quadrature tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .domains import DomainMap, parse_domain
from .errors import (
    ContractViolation,
    DegenerateDenominator,
    GeometryDegenerate,
    QuadratureNonConvergence,
)
from .schur import (
    Boundary,
    CaratheodoryData,
    Exterior,
    Interior,
    ToleranceConfig,
    schur_parameters,
)

if TYPE_CHECKING:
    from .regions import RegionRequest

__all__ = ["main"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CLASSIFICATION_MISMATCH = 3
EXIT_NUMERICAL_FAILURE = 4

#: Largest ``--samples``.  A boundary integrates a few hundred epsilons and
#: FFT-resamples them, so ``boundary`` peaks near 49 MB here (peak RSS of
#: the process, order-3 half-plane data at |z0| 0.5 and 0.9).  A count
#: whose spectral tries fail is integrated directly as (samples x 15)
#: arrays: order-0 data 0.99 at |z0| = 0.95 peaks near 150 MB.
MAX_SAMPLES = 65536
#: Largest ``--count``.  The oracle builds (count x nodes) complex arrays
#: one Blaschke zero column at a time, with up to 48 nodes per rule pair:
#: ``sample`` peaks near 59 MB here at |z0| = 0.5 and 91 MB at 0.9, where
#: the pair is largest (same data).
MAX_COUNT = 10000
_VERIFY_LAWS = ("mirror", "determinant", "coercivity", "domination")
_VERIFY_BOUND = 1e-10
_NUMERICAL_ERRORS = (QuadratureNonConvergence, DegenerateDenominator, GeometryDegenerate)


def _parse_complex(text: str) -> complex:
    """Parse ``a+bi`` (or plain ``a``) into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _number(value, what: str = "coefficients") -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be JSON numbers, got {type(value).__name__}")
    return float(value)


def _load_input(path: str, domain_override: str | None) -> tuple[CaratheodoryData, DomainMap]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "coefficients" not in payload:
        raise ValueError("input JSON must be an object with a 'coefficients' key")
    try:
        coeffs = [complex(_number(re), _number(im)) for re, im in payload["coefficients"]]
    except OverflowError:  # an integer too large for a float: JSON reads it exactly
        raise ValueError("coefficient too large for a float") from None
    data = CaratheodoryData(tuple(coeffs))
    return data, parse_domain(domain_override or payload.get("domain", "half-plane"))


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    data, _ = _load_input(args.input, None)
    cls = schur_parameters(data, ToleranceConfig())
    if isinstance(cls, Interior):
        payload = {"class": "interior", "gamma": [_pair(g) for g in cls.gamma]}
    elif isinstance(cls, Boundary):
        payload = {
            "class": "boundary",
            "gamma": [_pair(g) for g in cls.gamma_prefix],
            "witness_index": cls.unimodular_index,
        }
    else:
        assert isinstance(cls, Exterior)
        payload = {
            "class": "exterior",
            "witness_index": cls.witness_index,
            "reason": cls.reason.value,
        }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def _check_size(flag: str, value: int, cap: float = math.inf, least: float = 0) -> None:
    """Refuse a size flag outside [least, cap] before anything is computed
    (``--samples`` has no least here: RegionRequest needs 4 and says so)."""
    if value < least:
        raise ValueError(f"{flag} must be non-negative, got {value}")
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _interior_request(args) -> tuple[RegionRequest, Interior]:
    from .regions import RegionRequest

    _check_size("--samples", args.samples, MAX_SAMPLES, least=-math.inf)
    data, domain = _load_input(args.input, args.domain)
    tol = ToleranceConfig(quad_tol=args.quad_tol)
    cls = schur_parameters(data, tol)
    if not isinstance(cls, Interior):
        kind = "boundary" if isinstance(cls, Boundary) else "exterior"
        raise _NotInterior(
            f"data classifies as {kind}, not interior; "
            "run 'classify' to inspect it"
        )
    request = RegionRequest(
        data=data,
        j=args.j,
        z0=_parse_complex(args.z0),
        domain=domain,
        samples=args.samples,
        tol=tol,
    )
    return request, cls


class _NotInterior(Exception):
    pass


def cmd_boundary(args) -> int:
    from .regions import Jordan, convexity_defect, region

    request, _ = _interior_request(args)
    result = region(request)
    assert isinstance(result, Jordan)
    lines = ["theta,re,im"]
    for theta, w in zip(result.eps_angles, result.boundary):
        w = complex(w)
        lines.append(f"{float(theta)!r},{w.real!r},{w.imag!r}")
    sidecar = {
        "convexity_defect": float(convexity_defect(result.boundary)),
        "interior_witness": _pair(result.interior_witness),
    }
    lines.append("# " + json.dumps(sidecar, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    from .regions import containment_depths, oracle_samples, region

    _check_size("--count", args.count, MAX_COUNT)
    request, cls = _interior_request(args)
    payload: dict[str, object]
    if args.count == 0:
        payload = {"count": 0, "inside": 0, "max_signed_distance": None}
    else:
        result = region(request)
        draws = oracle_samples(
            cls.gamma,
            request.domain,
            request.j,
            request.z0,
            args.seed,
            args.count,
            request.tol.quad_tol,
        )
        depths = containment_depths(result, [s.value for s in draws])
        inside = int((depths <= request.tol.geom_tol).sum())
        payload = {
            "count": args.count,
            "inside": inside,
            "max_signed_distance": float(depths.max()),
        }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def _random_parameters(rng, max_order: int, radius: float):
    import numpy as np

    n = int(rng.integers(0, max_order + 1))
    moduli = radius * np.sqrt(rng.random(n + 1))
    phases = 2.0 * np.pi * rng.random(n + 1)
    return tuple(moduli * np.exp(1j * phases))


def cmd_verify(args) -> int:
    import numpy as np

    from .polynomials import identity_residuals

    _check_size("--draws", args.draws)
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(_VERIFY_LAWS, 0.0)
    for _ in range(args.draws):
        gamma = _random_parameters(rng, max_order=8, radius=0.9)
        residuals = identity_residuals(gamma)
        for law in _VERIFY_LAWS:
            worst[law] = max(worst[law], residuals[law])
    failed = False
    print(f"polynomial law residuals over {args.draws} draws (seed {args.seed})")
    for law in _VERIFY_LAWS:
        ok = worst[law] < _VERIFY_BOUND
        failed = failed or not ok
        print(f"  {law:<12} {worst[law]:12.3e}  {'PASS' if ok else 'FAIL'}")
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def _parse_curve_csv(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "theta,re,im":
        raise ValueError("expected a CSV starting with the header 'theta,re,im'")
    points: list[complex] = []
    witness: complex | None = None
    for line in lines[1:]:
        if line.startswith("#"):
            sidecar = json.loads(line[1:], parse_int=float)  # a huge integer is inf
            if not isinstance(sidecar, dict):
                raise ValueError(f"CSV comment is not a JSON object: {line!r}")
            if "interior_witness" in sidecar:
                parts = sidecar["interior_witness"]
                re, im = (_number(x, "interior_witness parts") for x in parts)
                witness = _finite_point(re, im, line)
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"malformed CSV row: {line!r}")
        _, re, im = (float(f) for f in fields)
        points.append(_finite_point(re, im, line))
    if not points:
        raise ValueError("CSV contains no data rows")
    return points, witness


def _finite_point(re: float, im: float, line: str) -> complex:
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"non-finite coordinate in CSV line: {line!r}")
    return complex(re, im)


def _tick_positions(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * step) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        # rounding in ceil(lo / step) * step or in t += step can put a
        # tick a few ulps outside [lo, hi]: clamp it onto the axis
        tick = 0.0 if abs(t) < 1e-9 * span else t
        ticks.append(min(max(tick, lo), hi))
        if t + step == t:  # step below the float spacing at t: t stays put
            break
        t += step
    return ticks


def _render_svg(points: list[complex], witness: complex | None) -> str:
    width, height = 640.0, 480.0
    m_left, m_right, m_top, m_bottom = 62.0, 18.0, 18.0, 42.0
    everything = points + ([witness] if witness is not None else [])
    xs = [p.real for p in everything]
    ys = [p.imag for p in everything]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.08 * (x_hi - x_lo) or 0.5
    y_pad = 0.08 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    if not (0.0 < x_hi - x_lo < math.inf and 0.0 < y_hi - y_lo < math.inf):
        raise ValueError("the CSV's extent is zero or overflows at its magnitude")

    def px(x: float) -> float:
        return m_left + (x - x_lo) / (x_hi - x_lo) * (width - m_left - m_right)

    def py(y: float) -> float:
        return height - m_bottom - (y - y_lo) / (y_hi - y_lo) * (height - m_top - m_bottom)

    def pt(p: complex) -> str:
        return f"{px(p.real):.2f} {py(p.imag):.2f}"

    path = "M " + " L ".join(pt(p) for p in points) + f" L {pt(points[0])} Z"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        "<style>text{font:11px sans-serif;fill:#333}"
        ".curve{fill:#dbeafe;stroke:#1d4ed8;stroke-width:1.5}"
        ".axis{stroke:#444;stroke-width:1}"
        ".tick{stroke:#444;stroke-width:1}"
        ".witness{fill:#b91c1c}</style>",
        f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<path class="curve" d="{path}"/>',
    ]
    axis_y = height - m_bottom
    parts.append(
        f'<line class="axis" x1="{m_left:.2f}" y1="{axis_y:.2f}" '
        f'x2="{width - m_right:.2f}" y2="{axis_y:.2f}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{m_left:.2f}" y1="{m_top:.2f}" '
        f'x2="{m_left:.2f}" y2="{axis_y:.2f}"/>'
    )
    for t in _tick_positions(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line class="tick" x1="{x:.2f}" y1="{axis_y:.2f}" '
            f'x2="{x:.2f}" y2="{axis_y + 5:.2f}"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 17:.2f}" text-anchor="middle">{t:g}</text>'
        )
    for t in _tick_positions(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line class="tick" x1="{m_left - 5:.2f}" y1="{y:.2f}" '
            f'x2="{m_left:.2f}" y2="{y:.2f}"/>'
        )
        parts.append(
            f'<text x="{m_left - 8:.2f}" y="{y + 3.5:.2f}" text-anchor="end">{t:g}</text>'
        )
    if witness is not None:
        parts.append(
            f'<circle class="witness" cx="{px(witness.real):.2f}" '
            f'cy="{py(witness.imag):.2f}" r="3.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    points, witness = _parse_curve_csv(text)
    _emit(_render_svg(points, witness), args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurvar",
        description="Classify coefficient data and compute variability regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify coefficient data")
    p_classify.add_argument("--input", required=True, help="input JSON file")
    p_classify.add_argument("--output", help="output JSON file (default stdout)")
    p_classify.set_defaults(handler=cmd_classify)

    def region_flags(p):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument(
            "--z0",
            required=True,
            help="integration endpoint, a+bi form; a negative real part as --z0=-0.3+0.4i",
        )
        p.add_argument("--j", type=int, default=0, help="weight power (>= -1)")
        p.add_argument("--domain", help="override the input file's domain label")
        p.add_argument(
            "--samples", type=int, default=512, help="boundary sample count"
        )
        p.add_argument(
            "--quad-tol",
            type=float,
            default=ToleranceConfig.quad_tol,
            help="quadrature tolerance (default %(default)g)",
        )
        p.add_argument("--output", help="output file (default stdout)")

    p_boundary = sub.add_parser("boundary", help="emit the region boundary as CSV")
    region_flags(p_boundary)
    p_boundary.set_defaults(handler=cmd_boundary)

    p_sample = sub.add_parser("sample", help="containment check on random members")
    region_flags(p_sample)
    p_sample.add_argument("--count", type=int, default=100, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=42, help="RNG seed")
    # 4096 vertices, tighter than a plot needs, still miss members near the
    # circle: --count 10000 --seed 3 --j 0, gamma (0.3+0.2i, -0.4i, 0.5, 0.1-0.3i),
    # half-plane: 9982 and 9872 inside at z0 0.9, 0.95 (ROADMAP: supporting lines)
    p_sample.set_defaults(handler=cmd_sample, samples=4096)

    p_verify = sub.add_parser("verify", help="run the polynomial-law suites")
    p_verify.add_argument("--seed", type=int, default=42, help="RNG seed")
    p_verify.add_argument(
        "--draws", type=int, default=100, help="number of random parameter draws"
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_plot = sub.add_parser("plot", help="render a boundary CSV as SVG")
    p_plot.add_argument("--input", required=True, help="CSV file from 'boundary'")
    p_plot.add_argument("--output", required=True, help="output SVG file")
    p_plot.set_defaults(handler=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _NotInterior as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASSIFICATION_MISMATCH
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (
        ContractViolation,
        ValueError,
        TypeError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
