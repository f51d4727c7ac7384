"""Fixed-panel Gauss-Legendre quadrature and the package's shared error types.

``integrate`` splits [a, b] into equal panels, applies one 15-point
Gauss-Legendre rule on each and adds the panel sums in order.  The caller
chooses the number of panels; there is no tolerance and no adaptivity.  For
an integrand analytic on a Bernstein ellipse about each panel the rule's
error has an explicit bound (Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3).  No randomness, no parallelism: identical
inputs give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget.

    The zero scan's current estimates are attached as ``partial``.
    """

    def __init__(self, message: str, partial: np.ndarray):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    evaluations: int


_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)


def _eval(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of abscissae, tolerating scalar-only handles."""
    try:
        y = np.asarray(f(x), dtype=complex)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(float(t))) for t in x])


def integrate(f: Callable, a: float, b: float, panels: int = 1) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by ``panels`` equal 15-point Gauss-Legendre panels.

    ``f`` may return real or complex values and may be vectorized over numpy
    arrays; it is called on one panel's 15 abscissae at a time.  Raises
    DomainError unless a and b are finite, a <= b and panels >= 1.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"invalid interval [{a}, {b}]")
    if panels < 1:
        raise DomainError("at least one panel is needed")
    if a == b:
        return QuadratureResult(0j, 0)
    # Python scalars throughout, so that the panel sums and the value are
    # Python complex whatever numeric types the caller passes
    a, b = float(a), float(b)
    width = (b - a) / panels
    # the exact additive identity, signed zeros included: one panel's sum
    # comes back bit for bit
    value = complex(-0.0, -0.0)
    for k in range(panels):
        lo = a + k * width
        hi = b if k == panels - 1 else a + (k + 1) * width
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        value += half * complex(np.dot(_WEIGHTS15, _eval(f, mid + half * _NODES15)))
    return QuadratureResult(value, 15 * panels)
