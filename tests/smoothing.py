"""The criterion-13 smoothing weights at desk scale, as test references.

The error-function step, the Gaussian window, the window's oscillatory
transform and its Mellin integral, at stand-in parameters (``WeightParams``)
far below the paper's scale.  No command runs them: ``constants`` runs
without numpy, and one ``delta_mellin`` call at the desk parameters
evaluates about 1.5 million nodes.  So they live beside the tests that
check them, and ``integrate_panels`` lays ``numerics.integrate``'s
single 15-point panels end to end for the Mellin integral.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

import numpy as np

from lfverify.numerics import (
    _NODES15, _WEIGHTS15, DomainError, QuadratureResult, Validated, integrate, read_only,
)

_TWO_PI = 2.0 * math.pi


def integrate_panels(f, a: float, b: float, panels: int) -> QuadratureResult:
    """``integrate`` on ``panels`` equal pieces of [a, b], added in order from -0.

    The pieces' edges are a + k (b - a) / panels, the last one b itself.
    """
    width = (b - a) / panels
    value, evaluations = complex(-0.0, -0.0), 0
    for k in range(panels):
        piece = integrate(f, a + k * width, b if k == panels - 1 else a + (k + 1) * width)
        value += piece.value
        evaluations += piece.evaluations
    return QuadratureResult(value, evaluations)



class WeightParams(Validated, namedtuple("WeightParams", "S L2 t0")):
    """Desk-scale stand-ins for the smoothing parameters.

    t0 of at least 10 * L2 keeps the window comfortably oscillatory; the
    narrow-window accuracy of the transform, by contrast, improves only as
    t0 / L2^2 shrinks.
    """

    __slots__ = ()

    def __new__(cls, S: float = 10.0, L2: float = 50.0, t0: float = 2000.0):
        if not all(math.isfinite(v) and v > 0 for v in (S, L2, t0)):
            raise DomainError("all weight parameters must be positive and finite")
        return super().__new__(cls, S, L2, t0)

    @property
    def s0(self) -> complex:
        return 0.5 + _TWO_PI * 1j * self.t0


def g_weight(x: float, p: WeightParams) -> float:
    """Smooth step (1 + erf(S log x)) / 2, S = p.S; complements to 1 under x -> 1/x."""
    if x <= 0:
        raise DomainError("x must be positive")
    return 0.5 * (1.0 + math.erf(p.S * math.log(x)))


def omega_weight(s: complex, p: WeightParams) -> complex:
    """Gaussian window sqrt(pi)/L2 * exp((s - s0)^2 / (4 L2^2))."""
    d = complex(s) - p.s0
    return math.sqrt(math.pi) / p.L2 * cmath.exp(d * d / (4.0 * p.L2 * p.L2))


# just past this U, delta_mellin's e^(1.042 U) and then delta_fn's cosh U overflow;
# the panel counts, growing as e^U, are far past ``_MAX_PANELS`` at any desk t0
_U_MAX = 680.0


def _u_cut(p: WeightParams) -> float:
    """U where the Gaussian factor drops below 1e-16; DomainError past ``_U_MAX``."""
    u = math.sqrt(16.0 * math.log(10.0)) / p.L2
    if u > _U_MAX:
        raise DomainError(
            f"L2 = {p.L2:.3g} puts U at {u:.4g}, past {_U_MAX:g}, where the "
            "transform's panel count nears float range"
        )
    return u


# the transforms' panels grow as e^U, U = ``_u_cut(p)``: L2 = 2 at t0 = 60 needs 14,668
_MAX_PANELS = 10_000


def _panel_count(radians: float) -> int:
    """One panel per 12 radians of phase and at least 8; DomainError past ``_MAX_PANELS``."""
    if not radians / 12.0 < _MAX_PANELS:
        raise DomainError(f"the transform needs {radians / 12.0:.3g} panels, above {_MAX_PANELS}")
    return max(8, int(radians / 12.0) + 1)


def delta_fn(x: float, p: WeightParams) -> complex:
    """Oscillatory transform of the window at frequency x.

    The integral of exp(s0 u - L2^2 u^2 - 2 pi i x (e^u - 1)) over
    [-U, U], U = ``_u_cut(p)``, by one fixed 15-point Gauss-Legendre rule.
    Its equal panels are sized by the phase 2 pi (t0 u - x (e^u - 1)),
    whose total variation over [-U, U] is 2 pi V(x) with
    V(x) = 2 t0 u* + x (2 cosh U - 2 e^u*), u* = clip(log(t0 / x), -U, U):
    one panel per 12 radians and at least 8.  More than ``_MAX_PANELS``
    panels raise DomainError.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError("x must be positive and finite")
    umax = _u_cut(p)
    u_star = min(max(math.log(p.t0 / x), -umax), umax)
    variation = 2.0 * p.t0 * u_star + x * (2.0 * math.cosh(umax) - 2.0 * math.exp(u_star))
    growth, base = _panel_layout(_panel_count(_TWO_PI * variation), p)
    return complex(base @ np.exp(-_TWO_PI * 1j * (growth * x)))


# one layout: delta_mellin's abscissae rise in order, so its calls take each
# panel count in a run (135 layouts for 2,085 calls at WeightParams(10, 6, 60))
# and one layout of at most _MAX_PANELS panels, 3.6 MB, stays held
@functools.lru_cache(maxsize=1)
def _panel_layout(n_panels: int, p: WeightParams) -> tuple[np.ndarray, np.ndarray]:
    """e^u - 1 and the weighted window exp(s0 u - L2^2 u^2) at the nodes u of
    ``n_panels`` equal 15-point panels on [-U, U]; read-only."""
    umax = _u_cut(p)
    edges = np.linspace(-umax, umax, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * np.asarray(_NODES15)[None, :]).ravel()
    weights = (half * np.broadcast_to(np.asarray(_WEIGHTS15), (n_panels, 15))).ravel()
    base = np.exp(p.s0 * nodes - (p.L2 * nodes) ** 2) * weights
    growth = np.exp(nodes) - 1.0
    return read_only(growth, base)


def delta_mellin(s: complex, p: WeightParams) -> complex:
    """Mellin integral of delta_fn(x) x^(s-1) over the transform's effective support.

    The transform lives where log(x / t0) is within a few 1/L2 (narrow
    window, large t0) or where x - t0 is within a few L2 (wide window,
    decoherence of the slowly-turning phase); the x-range is the union of
    both, cut where the induced Gaussian drops below 1e-16.  The integral
    is taken by ``integrate_panels``'s equal 15-point Gauss-Legendre panels,
    one delta_fn call per abscissa.  They are sized by the phase: delta_fn(x)
    turns at most 2 pi (e^U - 1) per unit of x, U = ``_u_cut(p)``, and
    x^(s-1) adds |Im s| log(x_hi / x_lo) over the range; one panel per 12
    radians of the sum, and at least 8.  More than ``_MAX_PANELS`` panels
    raise DomainError before any evaluation, with a finite count even
    where the count is past float range.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    umax = _u_cut(p)
    c = math.sqrt(40.0) / p.L2
    w_add = math.sqrt(40.0) * p.L2 / math.pi
    x_lo = max(1e-12, min(p.t0 * math.exp(-c), p.t0 - w_add))
    turn = _TWO_PI * math.expm1(umax)
    # the phase term's panels, turn * (x_hi - x_lo) / 12, in logs: at small
    # L2 both factors near float range and their product overflows
    log_hi = max(math.log(p.t0) + c, math.log(p.t0 + w_add))
    log_n = math.log(turn / 12.0) + log_hi + math.log1p(-x_lo * math.exp(-log_hi))
    if log_n >= math.log(_MAX_PANELS):
        exp10, frac = divmod(log_n / math.log(10.0), 1.0)
        raise DomainError(
            f"the transform needs at least {10.0 ** frac:.3g}e{int(exp10):+03d} panels, "
            f"above {_MAX_PANELS}"
        )
    x_hi = max(p.t0 * math.exp(c), p.t0 + w_add)
    variation = turn * (x_hi - x_lo) + abs(s.imag) * math.log(x_hi / x_lo)
    n_panels = _panel_count(variation)

    def f(x):
        return delta_fn(x, p) * np.exp((s - 1.0) * np.log(x))

    return integrate_panels(f, x_lo, x_hi, n_panels).value
