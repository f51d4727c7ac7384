"""One-panel quadrature, the error and verdict types, the record base, the file writer, read_only.

``integrate`` applies one 15-point Gauss-Legendre rule to [a, b]; a caller
that needs panels splits the interval itself.  There is no tolerance and no
adaptivity.  For an integrand analytic on a Bernstein ellipse about [a, b]
the rule's error has an explicit bound (Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3).  The module is plain Python, without
numpy: the integrand sees one float abscissa per call, and every sum runs in
a fixed order, so identical inputs give identical outputs on any CPU.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget."""


class Validated:
    """First base of a validating namedtuple: ``_make``, and so ``_replace``, call the class."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


QuadratureResult = namedtuple("QuadratureResult", "value evaluations")


# one checked claim of any command: a computed value against its stated
# comparison, whose claim_kind is equals, less_than, greater_than,
# abs_less_than or at_most
VerificationRecord = namedtuple(
    "VerificationRecord", "name computed claim_kind claimed tolerance passed"
)


def verdict(
    name: str, computed: complex, kind: str, claimed: complex, tolerance: float = 0.0
) -> VerificationRecord:
    """The record of one claim, with the one rule that decides whether it passed."""
    computed, claimed = complex(computed), complex(claimed)
    if kind == "equals":
        gap = computed - claimed  # componentwise, so each part is one rounding
        ok = abs(gap.real) <= tolerance and abs(gap.imag) <= tolerance
    elif kind == "less_than":
        ok = computed.real < claimed.real - tolerance
    elif kind == "greater_than":
        ok = computed.real > claimed.real + tolerance
    elif kind == "abs_less_than":
        ok = abs(computed) < claimed.real - tolerance
    elif kind == "at_most":
        ok = computed.real <= claimed.real + tolerance
    else:
        raise DomainError(f"unknown claim kind {kind!r}")
    return VerificationRecord(name, computed, kind, claimed, tolerance, ok)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` with no newline translation; an OSError from
    the write or close names no file, so each OSError here is given ``path``."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def read_only(*arrays):
    """Mark each numpy array of ``arrays`` read-only and return them as a tuple."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


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


def integrate(f: Callable, a: float, b: float) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by one 15-point Gauss-Legendre panel.

    ``f`` takes one Python float and may return a real or complex number;
    it is called once per abscissa, in node order.
    Raises DomainError unless a and b are finite and a <= b.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"invalid interval [{a}, {b}]")
    if a == b:
        return QuadratureResult(0j, 0)
    # Python scalars throughout, so that the sum and the value are Python
    # complex whatever numeric types the caller passes
    a, b = float(a), float(b)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    # the exact additive identity, signed zeros included
    value = complex(-0.0, -0.0)
    for x, w in zip(_NODES15, _WEIGHTS15):
        value += w * complex(f(mid + half * x))
    return QuadratureResult(half * value, 15)
