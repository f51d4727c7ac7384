"""Fixed-panel Gauss-Legendre quadrature and the package's shared error types.

``integrate`` splits [a, b] into equal panels, applies one 15-point
Gauss-Legendre rule on each and adds the panel sums in order.  The caller
chooses the number of panels; there is no tolerance and no adaptivity.  For
an integrand analytic on a Bernstein ellipse about each panel the rule's
error has an explicit bound (Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3).  The module is plain Python, without
numpy: the integrand sees one float abscissa per call, and every sum runs in
a fixed order, so identical inputs give identical outputs on any CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    evaluations: int


# numpy.polynomial.legendre.leggauss(15), bit for bit
_NODES15 = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_WEIGHTS15 = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)


def integrate(f: Callable, a: float, b: float, panels: int = 1) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by ``panels`` equal 15-point Gauss-Legendre panels.

    ``f`` takes one Python float and may return a real or complex number;
    it is called once per abscissa, panel by panel and in node order.
    Raises DomainError unless a and b are finite, a <= b and panels >= 1.
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
        panel = complex(-0.0, -0.0)
        for x, w in zip(_NODES15, _WEIGHTS15):
            panel += w * complex(f(mid + half * x))
        value += half * panel
    return QuadratureResult(value, 15 * panels)
