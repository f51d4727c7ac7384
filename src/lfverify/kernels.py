"""Closed-form limit kernels for the oscillatory prime-sum integrals.

Everything here lives in the scaled limit: the decay rates enter only
through their limiting products with the log of the common prime scale, the
fixed imaginary multiples of pi in ``BETA``, and all vanishing correction
factors are dropped.  The kernel pair (f, g) is indexed by a tuple (j, mu)
of a channel j in {1,2,3} and a rate index mu in {6,7}; the quadratic drift
terms (y) and the short-window factor (w) read the windows and gaps below,
the one choice for which the paper states its constants.  Every kernel
takes one abscissa z per call and evaluates it with ``cmath``; nothing here
imports numpy.
"""

from __future__ import annotations

import cmath

from .numerics import DomainError

_PI = cmath.pi


# the scaled rates beta_k by index; indices 4 and 5 wrap to 1 and 2 (``_wrap``)
BETA = {1: _PI * 1j, 2: _PI * 1j * 2, 3: _PI * 1j * 3, 6: 1.5j * _PI, 7: 2.5j * _PI}


# the windows z1 > z2 > z3, the short gaps, the residue weights of channels
# 1-3, the mixing weights iota_2..4 and the slope of the ramp tilde f
Z1, Z2, Z3 = 0.504, 0.5, 0.498
SHIFT_A, SHIFT_B = 0.004, 0.002
# the short window [W0, Z2] of the linear factor w
W0 = Z2 - SHIFT_A
RESIDUE_WEIGHTS = (0.5, 2.0, 1.5)
IOTA2 = 0.94977 - 1.38995j
IOTA3 = -1.00635 - 0.22789j
IOTA4 = -0.68738 + 1.60688j
TILDE_F_SLOPE = 500.0


def _wrap(k: int) -> int:
    return k - 3 if k > 3 else k


def _checked_id(kid: tuple[int, int]) -> tuple[int, int]:
    j, mu = kid
    if j not in (1, 2, 3) or mu not in (6, 7):
        raise DomainError(f"invalid kernel id ({j},{mu})")
    return j, mu


def eval_f(kid: tuple[int, int], z: float) -> complex:
    """Oscillatory kernel f_{j,mu}(z) = (1 + (b_mu - b_j) z) e^{b_mu z}."""
    j, mu = _checked_id(kid)
    bm = BETA[mu]
    return (1.0 + (bm - BETA[j]) * z) * cmath.exp(bm * z)


def eval_g(kid: tuple[int, int], z: float) -> complex:
    """Companion kernel g_{j,mu}: constant plus damped linear oscillation.

    g = R + (1 - R - c z) e^{-b_mu z}, with R = b_{j+1} b_{j+2} / b_mu^2 and
    c = (b_{j+1} - b_mu)(b_{j+2} - b_mu)/b_mu (wrapped indices), so g(0) = 1.
    """
    j, mu = _checked_id(kid)
    b1, b2, bm = BETA[_wrap(j + 1)], BETA[_wrap(j + 2)], BETA[mu]
    r = b1 * b2 / (bm * bm)
    c = (b1 - bm) * (b2 - bm) / bm
    return r + (1.0 - r - c * z) * cmath.exp(-bm * z)


def eval_y(variant: int, j: int, z):
    """Quadratic drift terms for the two tail-window integrals.

    Variant 1 lives on [z2, z1], variant 2 on the same window measured from
    the top end; both vanish at their anchor point.
    """
    if variant not in (1, 2) or j not in (1, 2, 3):
        raise DomainError(f"invalid drift id ({variant},{j})")
    b1, b2 = BETA[_wrap(j + 1)], BETA[_wrap(j + 2)]
    lin, quad = b1 + b2, b1 * b2 / 2.0
    if variant == 1:
        return lin * (z - Z2) + quad * ((Z1 - z) ** 2 - 2.0 * (Z2 + SHIFT_B - z) ** 2)
    return lin * (Z1 - z) + quad * (Z1 - z) ** 2


def eval_w(j: int, z):
    """Short-window linear factor -1 + (b_{j+1} + b_{j+2} - 2 b_6)(z - W0) on [W0, Z2]."""
    if j not in (1, 2, 3):
        raise DomainError(f"invalid window channel {j}")
    slope = BETA[_wrap(j + 1)] + BETA[_wrap(j + 2)] - 2 * BETA[6]
    return -1.0 + slope * (z - W0)
