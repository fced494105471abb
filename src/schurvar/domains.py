"""Built-in convex image domains, each given by its disk uniformization.

A :class:`DomainMap` packages a conformal bijection ``P`` from the open
unit disk onto a convex domain, its inverse, and as ``derivative(w, w0=w)``
the divided difference ``(P(w) - P(w0)) / (w - w0)``, formed without that
subtraction (``P'(w)`` for one argument).  All callables accept complex
scalars or numpy arrays and return the broadcast shape (scalars come back
as ``complex``).  numpy is imported when a map is first evaluated, not
when a domain is built, so :func:`parse_domain` can check a label without
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ContractViolation, DegenerateDenominator
from .schur import _as_finite_complex, _as_number

__all__ = ["DomainMap", "half_plane", "disk", "strip", "parse_domain"]

_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class DomainMap:
    """A labelled conformal map of the unit disk onto a convex domain.

    ``derivative(w, w0=w)`` is the divided difference ``P[w, w0]``.
    """

    label: str
    map: Callable
    derivative: Callable
    inverse: Callable


def _domain(label: str, fwd: Callable, slope: Callable, inv: Callable) -> DomainMap:
    """The :class:`DomainMap` of ``fwd(z)``, its divided difference
    ``slope(w, w0)`` and its inverse ``inv(w)``, each written for complex
    arrays.  The callables take scalars or arrays, ``derivative`` takes
    ``w0 = w`` when it is not given, and a 0-d result comes back as
    ``complex``."""

    def vectorized(fn: Callable) -> Callable:
        def call(z):
            import numpy as np

            out = fn(np.asarray(z, dtype=np.complex128))
            return complex(out) if np.ndim(out) == 0 else out

        return call

    def derivative(w, w0=None):
        import numpy as np

        w = np.asarray(w, dtype=np.complex128)
        out = slope(w, w if w0 is None else np.asarray(w0, dtype=np.complex128))
        return complex(out) if np.ndim(out) == 0 else out

    return DomainMap(label, vectorized(fwd), derivative, vectorized(inv))


def _check_denominator(values, what: str) -> None:
    if abs(values).min() < _DENOM_FLOOR:
        raise DegenerateDenominator(what)


def half_plane() -> DomainMap:
    """Right half-plane: ``P(z) = (1 + z) / (1 - z)``, ``P(0) = 1``."""

    def fwd(z):
        den = 1.0 - z
        _check_denominator(den, "half-plane map at z = 1")
        return (1.0 + z) / den

    def slope(w, w0):
        den = (1.0 - w) * (1.0 - w0)
        _check_denominator(den, "half-plane derivative at z = 1")
        return 2.0 / den

    def inv(w):
        den = w + 1.0
        _check_denominator(den, "half-plane inverse at w = -1")
        return (w - 1.0) / den

    return _domain("half-plane", fwd, slope, inv)


def disk(center: complex = 0.0, radius: float = 1.0) -> DomainMap:
    """Affine disk target: ``P(z) = center + radius * z``."""
    c = _as_finite_complex(center, "disk centre")
    r = _as_number(radius, "disk radius", float)
    if not (0.0 < r < math.inf):
        raise ContractViolation("disk radius must be positive and finite")

    def slope(w, w0):
        import numpy as np

        return np.full(np.broadcast(w, w0).shape, complex(r))

    label = f"disk:{c.real:g},{c.imag:g},{r:g}"
    return _domain(label, lambda z: c + r * z, slope, lambda w: (w - c) / r)


def strip() -> DomainMap:
    """Horizontal strip ``|Im w| < pi/2``: ``P(z) = log((1 + z)/(1 - z))``.

    The ratio has positive real part on the disk, so the principal branch
    is the right one; the inverse is ``tanh(w / 2)``.  The divided
    difference is ``2 L / ((1 - w)(1 + w0))`` with ``L = log(1 + x) / x``,
    ``L = 1`` at ``x = 0``, and ``x = 2 (w - w0) / ((1 - w)(1 + w0))``.
    ``log u = log(1 + x)`` is ``log1p(|u|^2 - 1) / 2 + i atan2``: numpy's
    complex ``log1p`` errs up to 1e-4 relative near 0, and its ``log`` is
    slow near ``|u| = 1``.
    """

    def fwd(z):
        import numpy as np

        den = 1.0 - z
        _check_denominator(den, "strip map at z = 1")
        return np.log((1.0 + z) / den)

    def slope(w, w0):
        import numpy as np

        den = (1.0 - w) * (1.0 + w0)
        _check_denominator(den, "strip derivative at z = +/-1")
        x = 2.0 * (w - w0) / den
        xr, xi = x.real, x.imag
        log_u = np.empty_like(x)
        np.multiply(0.5, np.log1p(xr * (xr + 2.0) + xi * xi), out=log_u.real)
        np.arctan2(xi, 1.0 + xr, out=log_u.imag)
        log_u.imag += 0.0  # -0.0 reads +0.0, as in the complex sum re + 1j * im
        with np.errstate(invalid="ignore", divide="ignore"):  # 0 / 0 where x = 0: L = 1
            out = np.divide(log_u, x, out=log_u)
        out[x == 0] = 1.0
        np.multiply(2.0, out, out=out)
        return np.divide(out, den, out=out)

    def inv(w):
        import numpy as np

        return np.tanh(w / 2.0)

    return _domain("strip", fwd, slope, inv)


def parse_domain(label: str) -> DomainMap:
    """Build a domain from its label: ``half-plane``, ``strip``, ``disk:re,im,r``."""
    if not isinstance(label, str):
        raise ValueError(f"domain label must be a string, got {label!r}")
    text = label.strip()
    if text == "half-plane":
        return half_plane()
    if text == "strip":
        return strip()
    if text.startswith("disk:"):
        parts = text[len("disk:") :].split(",")
        if len(parts) != 3:
            raise ValueError(f"disk label needs three fields, got {label!r}")
        try:
            re, im, r = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed disk label {label!r}") from exc
        return disk(complex(re, im), r)
    raise ValueError(f"unknown domain label {label!r}")
