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

from dataclasses import dataclass
from typing import Callable

from .errors import ContractViolation, DegenerateDenominator

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


def _vectorized(fn: Callable) -> Callable:
    def call(*points):
        import numpy as np

        out = fn(*(np.asarray(p, dtype=np.complex128) for p in points))
        if np.ndim(out) == 0:
            return complex(out)
        return out

    return call


def _divided_difference(fn: Callable) -> Callable:
    """``fn(w, w0)`` vectorized as ``derivative(w, w0=w)``."""
    vectorized = _vectorized(fn)
    return lambda w, w0=None: vectorized(w, w if w0 is None else w0)


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

    return DomainMap(
        label="half-plane",
        map=_vectorized(fwd),
        derivative=_divided_difference(slope),
        inverse=_vectorized(inv),
    )


def disk(center: complex = 0.0, radius: float = 1.0) -> DomainMap:
    """Affine disk target: ``P(z) = center + radius * z``."""
    c = complex(center)
    r = float(radius)
    if not (r > 0.0):
        raise ContractViolation("disk radius must be positive")
    label = f"disk:{c.real:g},{c.imag:g},{r:g}"

    def slope(w, w0):
        import numpy as np

        return np.full(np.broadcast(w, w0).shape, complex(r))

    return DomainMap(
        label=label,
        map=_vectorized(lambda z: c + r * z),
        derivative=_divided_difference(slope),
        inverse=_vectorized(lambda w: (w - c) / r),
    )


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
        log_u = 0.5 * np.log1p(xr * (xr + 2.0) + xi * xi) + 1j * np.arctan2(xi, 1.0 + xr)
        same = x == 0
        return 2.0 * np.where(same, 1.0, log_u / np.where(same, 1.0, x)) / den

    def inv(w):
        import numpy as np

        return np.tanh(w / 2.0)

    return DomainMap(
        label="strip",
        map=_vectorized(fwd),
        derivative=_divided_difference(slope),
        inverse=_vectorized(inv),
    )


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
