"""Gauss-Legendre quadrature and the package's shared error types.

``gauss_legendre`` is one 15-point panel; the constant pipeline integrates
each of its exponential-polynomial integrands with it.  ``integrate`` runs
such panels with a 7-point companion rule, bisecting the worst panel until
the summed |G15 - G7| disagreement meets the tolerance; the window
transforms use it.  That disagreement is an error estimate, not a bound.  No
randomness, no parallelism: identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget.

    The best available result is attached as ``partial``: the quadrature's
    ``QuadratureResult``, or the zero scan's current estimates.
    """

    def __init__(self, message: str, partial: Union["QuadratureResult", np.ndarray]):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)


def _eval(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of abscissae, tolerating scalar-only handles."""
    try:
        y = np.asarray(f(x), dtype=complex)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(float(t))) for t in x])


def gauss_legendre(f: Callable, a: float, b: float) -> complex:
    """One 15-point Gauss-Legendre panel over [a, b]."""
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * complex(np.dot(_WEIGHTS15, _eval(f, mid + half * _NODES15)))


def _panel(f: Callable, a: float, b: float) -> tuple[complex, float]:
    v15 = gauss_legendre(f, a, b)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    v7 = half * complex(np.dot(_WEIGHTS7, _eval(f, mid + half * _NODES7)))
    return v15, abs(v15 - v7)


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` may return real or complex values and may be vectorized over numpy
    arrays.  Raises ConvergenceError (carrying the partial result) if the
    panel budget is exhausted before the summed disagreement estimate drops
    below ``tol``.
    """
    if not (a <= b):
        raise DomainError(f"invalid interval [{a}, {b}]")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if a == b:
        return QuadratureResult(0j, 0.0, 0)

    min_width = 1e-14 * (b - a)
    value, err = _panel(f, a, b)
    evals = 22
    # heap orders splittable panels worst-first; the counter breaks ties
    # deterministically.  Panels too narrow to split are parked in `frozen`.
    heap = [(-err, 0, a, b, value, err)]
    counter = 1
    frozen: list[tuple[float, float, complex, float]] = []
    total_err = err
    while total_err > tol and heap and len(heap) + len(frozen) < max_panels:
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        if pb - pa < min_width:
            frozen.append((pa, pb, pv, pe))
            continue
        pm = (pa + pb) / 2.0
        lv, le = _panel(f, pa, pm)
        rv, re_ = _panel(f, pm, pb)
        evals += 44
        total_err += le + re_ - pe
        heapq.heappush(heap, (-le, counter, pa, pm, lv, le))
        heapq.heappush(heap, (-re_, counter + 1, pm, pb, rv, re_))
        counter += 2

    # re-sum panel contributions in positional order: no accumulation drift
    pieces = frozen + [(pa, pb, pv, pe) for (_, _, pa, pb, pv, pe) in heap]
    pieces.sort(key=lambda t: t[0])
    value = complex(sum(p[2] for p in pieces))
    total_err = float(sum(p[3] for p in pieces))

    result = QuadratureResult(value, total_err, evals)
    if total_err > tol:
        raise ConvergenceError(
            f"needed more than {max_panels} panels for tol={tol:g} "
            f"(reached {total_err:g})",
            result,
        )
    return result
