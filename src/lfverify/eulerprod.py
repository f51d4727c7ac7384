"""Per-prime convolution algebra and its exactly-checkable identities.

At a prime q = 1/u with shifts beta_1..beta_3 and v = chi(q) in {-1, 0, 1},
the coefficients c_r are those of (1 - x) / prod_{j<=k} (1 - q^{-beta_j} x)
for k = 3, 2 or 1 factors.  Each identity case is a bracket
1 + lam * sum_{r>=1} w^r xi_r, where xi_r is the open tail
T_r = sum_{eta>=0} c_{r+eta} wt^eta or just c_r, less the Mobius term
mob * c_{r-1} if the case has one.  The weights depend only on k.  The
three-factor family is evaluated at s = 1 - beta_1 and chi-weighted:
wt = u^{1-beta_1}, mob = u^{beta_1} / (1 - u), w = v u.  For k < 3 the
character sits in the tail: wt = v u, mob = v / (1 - u), w = u.
Summed by coefficient, the bracket is one dot product
1 + lam * sum_m (g_m - mob w^{m+1}) c_m over the first ``_SERIES_LEN``
coefficients, where g_m = sum_{1<=r<=m} w^r wt^{m-r} is the convolution
of (0, w, w^2, ...) with (1, wt, wt^2, ...), and g_m = w^m with no open
tail.

The coefficients are cached on the ratios q^{-beta_j}, so at zero shifts,
where each ratio is exactly 1, every prime shares the same three series;
the weights are cached on (w, wt).  Both caches are bounded and their
arrays read-only.

``_CASES`` is the one table of the cases.  With all shifts zero the two
sides of each case agree to rounding; with small nonzero shifts the gap
obeys an explicit decay envelope in the prime.  The module also holds the
rational product Pi(d, r) of the divisor-pair identity.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from .characters import DirichletCharacter, factorize
from .numerics import DomainError, Validated, read_only

# enough series terms for |weight| <= 0.72 to reach 1e-17 tails
_SERIES_LEN = 260


def _one(u: float, v: int, b: Sequence[complex]) -> float:
    return 1.0


def _ratio(u: float, v: int, shifts: Sequence[complex]) -> complex:
    """prod over the shifts of (1 - v u^{1+beta}), divided by 1 - v u."""
    return math.prod(1.0 - v * u ** (1.0 + bj) for bj in shifts) / (1.0 - v * u)


def _value_a6(u: float, v: int) -> float:
    return 1.0 / (1.0 - u) - u * v * (1.0 - v * u) / (1.0 - u) ** 2


# case: (k, open tail, Mobius term, prefactor(u, v, b), lam(u, v, b), value(u, v)).
# A1-A3 fix the channel j = 1, so their prefactor takes the other two shifts;
# A1's lam is prod_j (1 - u^{s+beta_j}) / (1 - u^s) at s = 1 - beta_1.
# L162's left side is the ratio of its bracket to the same bracket with the
# Mobius term, so it has no prefactor.
_CASES = {
    "A1": (3, True, True, lambda u, v, b: _ratio(u, v, b[1:]),
           lambda u, v, b: math.prod(1.0 - u ** (1.0 - b[0] + bj) for bj in b)
           / (1.0 - u ** (1.0 - b[0])),
           lambda u, v: 1.0),
    "A2": (3, False, False, lambda u, v, b: _ratio(u, v, b[1:]), _one,
           lambda u, v: 1.0 / (1.0 - v * u)),
    "A3": (3, False, True, lambda u, v, b: _ratio(u, v, b[1:]), _one,
           lambda u, v: (1.0 - u - v * u) / ((1.0 - v * u) * (1.0 - u))),
    "A6": (2, True, True, _one, lambda u, v, b: _ratio(u, v, b[:2]), _value_a6),
    "A7": (2, True, True, _one, lambda u, v, b: _ratio(u, v, b[:2]), _value_a6),
    "L152": (2, True, True,
             lambda u, v, b: (1.0 - u ** (1.0 + b[0])) * (1.0 - u ** (1.0 + b[1]))
             / ((1.0 - u) * (1.0 - v * u)),
             lambda u, v, b: _ratio(u, v, b[:2]),
             lambda u, v: 1.0 if v == 0 else (1.0 - v * u * u) / (1.0 - u * u)),
    "L161": (1, True, True,
             lambda u, v, b: (1.0 - u ** (1.0 + b[0])) / ((1.0 - u) * (1.0 - v * u)),
             lambda u, v, b: _ratio(u, v, b[:1]),
             lambda u, v: (1.0 - v * u / (1.0 - u)) / (1.0 - v * u)),
    "L162": (1, True, False, None, lambda u, v, b: _ratio(u, v, b[:1]),
             lambda u, v: 1.0 / (1.0 - v * u / (1.0 - u))),
}
# public: the named identity cases accepted by check_local_identity
IDENTITY_CASES = tuple(_CASES)


class LocalFactorParams(Validated, namedtuple("LocalFactorParams", "u v betas")):
    __slots__ = ()

    def __new__(cls, u: float, v: int, betas: tuple[complex, complex, complex]):
        if not 0.0 < u < 1.0:
            raise DomainError("u must lie in (0,1)")
        q = round(1.0 / u)
        if q < 2 or abs(q * u - 1.0) > 1e-9:
            raise DomainError("u must be the reciprocal of an integer >= 2")
        if v not in (-1, 0, 1):
            raise DomainError("v must be -1, 0 or 1")
        if len(betas) != 3:
            raise DomainError("betas must hold exactly three shifts")
        return super().__new__(cls, u, v, betas)


def _coeffs(k: int, betas: Sequence[complex], q: float) -> np.ndarray:
    """c_0 .. c_{_SERIES_LEN - 1} of (1 - x) / prod_{j<=k} (1 - q^{-beta_j} x), read-only."""
    return _series(*(q ** -b for b in betas[:k]))


# typed: a float ratio or weight and an equal complex one give different
# arrays, so they are kept apart; 64 entries hold every series and weight
# pair of an ``identities`` run's zero-shift cases
@functools.lru_cache(maxsize=64, typed=True)
def _series(*ratios: complex) -> np.ndarray:
    """(1, -1) convolved in turn with the truncated geometric series of each
    ratio; each prefix of ``ratios`` is a cached series of its own."""
    c = np.array([1.0, -1.0], dtype=complex)
    if ratios:
        c = np.convolve(_series(*ratios[:-1]), ratios[-1] ** np.arange(_SERIES_LEN))[:_SERIES_LEN]
    return read_only(c)[0]


@functools.lru_cache(maxsize=64, typed=True)
def _weights(w: complex, wt: complex) -> tuple[np.ndarray, np.ndarray]:
    """w^1 .. w^_SERIES_LEN and g_0 .. g_{_SERIES_LEN - 1}, read-only."""
    powers = np.arange(_SERIES_LEN + 1)
    w_pow = w**powers
    w_pow[0] = 0.0  # both sums start at w^1
    g = np.convolve(w_pow[:-1], wt ** powers[:-1])[:_SERIES_LEN]
    read_only(w_pow, g)
    return w_pow[1:], g


def check_local_identity(
    case: str, params: LocalFactorParams
) -> tuple[complex, complex, float]:
    """Evaluate (lhs, rhs, |lhs-rhs|) for a named per-prime identity.

    The rhs is the exact rational value of the limit with all shifts zero;
    the lhs is the series evaluation at the given shifts.
    """
    if case not in _CASES:
        raise DomainError(f"unknown identity case {case!r}")
    u, v, b = params.u, params.v, params.betas
    if case == "A6" and v == 0:
        raise DomainError("A6 needs v = +-1; use A7 for v = 0")
    if case == "L162" and v == 1 and abs(u - 0.5) < 1e-12:
        raise DomainError("L162 is singular at u=1/2, v=1")
    k, open_tail, mobius, prefactor, lam, value = _CASES[case]
    c = _coeffs(k, b, 1.0 / u)
    if k == 3:
        wt, mob, w = u ** (1.0 - b[0]), u ** b[0] / (1.0 - u), v * u
    else:
        wt, mob, w = v * u, v / (1.0 - u), u
    w_pow, g = _weights(w, wt if open_tail else 0.0)
    lam_b = lam(u, v, b)

    def bracket(mob_r: complex) -> complex:
        # summed in index order: a BLAS dot's order, and so its rounding, varies by CPU
        return 1.0 + lam_b * sum(((g - mob_r * w_pow) * c).tolist())

    if prefactor is None:  # L162
        lhs = bracket(0.0) / bracket(mob)
    else:
        lhs = prefactor(u, v, b) * bracket(mob if mobius else 0.0)
    rhs = value(u, v)
    return complex(lhs), complex(rhs), float(abs(lhs - rhs))


def cap_pi(d: int, r: int, chi: DirichletCharacter) -> float:
    """Rational product Pi(d, r) over the primes of d, r >= 1; a prime of the modulus adds 1.

    The primes are multiplied in ascending order, not in the order their set
    iterates, so the product's rounding is fixed, and
    ``characters.identity_810_gaps`` repeats the same float operations.
    """
    if d < 1 or r < 1:
        raise DomainError("d and r must be positive")
    d_primes, r_primes = factorize(d), factorize(r)
    out = 1.0
    for q in sorted(d_primes.keys() | r_primes.keys()):
        c = chi(q).real
        out /= 1.0 - c / q
        if q in d_primes and q not in r_primes:
            out *= (1.0 - 1.0 / q - c / q) / (1.0 - 1.0 / q)
    return out
