"""Closed-form limit kernels for the oscillatory prime-sum integrals.

Everything here lives in the scaled limit: the decay rates enter only
through their limiting products with the log of the common prime scale, the
fixed imaginary multiples of pi in ``BETA``, and all vanishing correction
factors are dropped.  The kernel pair (f, g) is indexed by a channel j in {1,2,3} and a
rate index mu in {6,7}; the quadratic drift terms (y) and the short-window
factors (w) use the same parameter record.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Union

from .numerics import DomainError

_PI = 3.141592653589793


# the scaled rates beta_k by index; indices 4 and 5 wrap to 1 and 2 (``_wrap``)
BETA = {1: _PI * 1j, 2: _PI * 1j * 2, 3: _PI * 1j * 3, 6: 1.5j * _PI, 7: 2.5j * _PI}


@dataclass(frozen=True)
class LimitModel:
    """Shared parameter record for all limit kernels."""

    z1: float = 0.504
    z2: float = 0.5
    z3: float = 0.498
    shift_a: float = 0.004
    shift_b: float = 0.002
    residue_weights: tuple[float, float, float] = (0.5, 2.0, 1.5)
    iota2: complex = 0.94977 - 1.38995j
    iota3: complex = -1.00635 - 0.22789j
    iota4: complex = -0.68738 + 1.60688j
    tilde_f_slope: float = 500.0


@dataclass(frozen=True)
class KernelId:
    j: int
    mu: int

    def __post_init__(self):
        if self.j not in (1, 2, 3) or self.mu not in (6, 7):
            raise DomainError(f"invalid kernel id ({self.j},{self.mu})")


IdLike = Union[KernelId, tuple]


def _wrap(k: int) -> int:
    return k - 3 if k > 3 else k


def _as_id(kid: IdLike) -> KernelId:
    if isinstance(kid, KernelId):
        return kid
    return KernelId(*kid)


_DEFAULT = LimitModel()


def default_model() -> LimitModel:
    return _DEFAULT


def _exp(z):
    # cmath for scalars, numpy broadcasting otherwise
    if isinstance(z, complex):
        return cmath.exp(z)
    import numpy as np

    return np.exp(z)


def eval_f(kid: IdLike, z):
    """Oscillatory kernel f_{j,mu}(z) = (1 + (b_mu - b_j) z) e^{b_mu z}."""
    kid = _as_id(kid)
    bm = BETA[kid.mu]
    return (1.0 + (bm - BETA[kid.j]) * z) * _exp(bm * z)


def eval_g(kid: IdLike, z):
    """Companion kernel g_{j,mu}: constant plus damped linear oscillation.

    g = R + (1 - R - c z) e^{-b_mu z}, with R = b_{j+1} b_{j+2} / b_mu^2 and
    c = (b_{j+1} - b_mu)(b_{j+2} - b_mu)/b_mu (wrapped indices), so g(0) = 1.
    """
    kid = _as_id(kid)
    b1, b2, bm = BETA[_wrap(kid.j + 1)], BETA[_wrap(kid.j + 2)], BETA[kid.mu]
    r = b1 * b2 / (bm * bm)
    c = (b1 - bm) * (b2 - bm) / bm
    return r + (1.0 - r - c * z) * _exp(-bm * z)


def eval_y(variant: int, j: int, z, model: LimitModel = _DEFAULT):
    """Quadratic drift terms for the two tail-window integrals.

    Variant 1 lives on [z2, z1], variant 2 on the same window measured from
    the top end; both vanish at their anchor point.
    """
    if variant not in (1, 2) or j not in (1, 2, 3):
        raise DomainError(f"invalid drift id ({variant},{j})")
    b1, b2 = BETA[_wrap(j + 1)], BETA[_wrap(j + 2)]
    lin, quad = b1 + b2, b1 * b2 / 2.0
    if variant == 1:
        mid = model.z2 + model.shift_b
        return lin * (z - model.z2) + quad * ((model.z1 - z) ** 2 - 2.0 * (mid - z) ** 2)
    return lin * (model.z1 - z) + quad * (model.z1 - z) ** 2


def eval_w(variant: str, j: int, z, model: LimitModel = _DEFAULT):
    """Short-window linear factors; window is [z2 - shift_a, z2].

    plain: -1 + (b_{j+1} + b_{j+2} - 2 b_6)(z - w0)
    star:  -1 + (2 b_6 - b_j)(z - w0)
    """
    if variant not in ("plain", "star") or j not in (1, 2, 3):
        raise DomainError(f"invalid window id ({variant},{j})")
    w0 = model.z2 - model.shift_a
    if variant == "plain":
        slope = BETA[_wrap(j + 1)] + BETA[_wrap(j + 2)] - 2 * BETA[6]
    else:
        slope = 2 * BETA[6] - BETA[j]
    return -1.0 + slope * (z - w0)
