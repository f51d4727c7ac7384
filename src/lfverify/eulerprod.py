"""Per-prime convolution algebra and its exactly-checkable identities.

Three families of multiplicative coefficients (three-, two-, and one-factor
quotients of shifted zeta local factors), their tilted partial sums over the
set of integers supported on a fixed prime, and the rational product
Pi(d, r).  The identity checker evaluates both sides of each named local
identity: with all shifts zero the two sides agree to rounding; with small
nonzero shifts the gap obeys an explicit decay envelope in the prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .characters import DirichletCharacter, factorize
from .numerics import DomainError

_CASES = ("A1", "A2", "A3", "A6", "A7", "L152", "L161", "L162")
# public alias: the named identity cases accepted by check_local_identity
IDENTITY_CASES = _CASES

# enough series terms for |weight| <= 0.72 to reach 1e-17 tails
_SERIES_LEN = 260


@dataclass(frozen=True)
class LocalFactorParams:
    u: float
    v: int
    betas: tuple[complex, complex, complex]

    def __post_init__(self):
        if not 0.0 < self.u < 1.0:
            raise DomainError("u must lie in (0,1)")
        q = round(1.0 / self.u)
        if q < 2 or abs(q * self.u - 1.0) > 1e-9:
            raise DomainError("u must be the reciprocal of an integer >= 2")
        if self.v not in (-1, 0, 1):
            raise DomainError("v must be -1, 0 or 1")


def _num_denom(variant: str, a: Sequence[complex]) -> tuple[list[complex], list[complex]]:
    if variant == "kappa":
        factors = a[:3]
    elif variant == "kappa1":
        factors = a[:2]
    elif variant == "kappa2":
        factors = a[:1]
    else:
        raise DomainError(f"unknown coefficient variant {variant!r}")
    denom = [1 + 0j]
    for c in factors:
        denom = [x - (c * denom[i - 1] if i else 0) for i, x in enumerate(denom + [0j])]
    # denom now expands prod (1 - a_j x); numerator is (1 - x)
    return [1 + 0j, -1 + 0j], denom


def _series_div(num: list[complex], denom: list[complex], length: int) -> list[complex]:
    out = [0j] * length
    for r in range(length):
        acc = num[r] if r < len(num) else 0j
        for k in range(1, min(r, len(denom) - 1) + 1):
            acc -= denom[k] * out[r - k]
        out[r] = acc  # denom[0] == 1
    return out


def _coeffs(variant: str, betas: Sequence[complex], q: float, length: int) -> list[complex]:
    a = [q ** (-b) for b in betas]
    num, denom = _num_denom(variant, a)
    return _series_div(num, denom, length)


def _kappa_tilde_prime(
    coeffs: Sequence[complex], r: int, weight: complex, blocked: bool
) -> complex:
    """Sum over q-power tails: sum_eta coeffs[r+eta] * weight^eta."""
    if blocked or weight == 0:
        return coeffs[r]
    total: complex = 0.0
    w: complex = 1.0
    small_run = 0
    for eta in range(len(coeffs) - r):
        term = coeffs[r + eta] * w
        total += term
        # a single term can vanish by accident; stop on two tiny in a row
        small_run = small_run + 1 if abs(term) < 1e-18 * max(1.0, abs(total)) else 0
        if eta > 4 and small_run >= 2:
            break
        w *= weight
    return total


def cap_pi(d: int, r: int, chi: DirichletCharacter, strict: bool = True) -> float:
    """Rational product Pi(d, r) over the primes of d and r."""
    if d < 1 or r < 1:
        raise DomainError("d and r must be positive")
    if strict and math.gcd(d * r, chi.modulus) > 1:
        raise DomainError("arguments must be coprime to the character modulus")
    return _pi_over_primes(set(factorize(d)), set(factorize(r)), chi)


def _pi_over_primes(d_primes: set[int], r_primes: set[int], chi: DirichletCharacter) -> float:
    """Pi(d, r) from the prime sets of d and r, multiplied in ascending prime order.

    The order is fixed, so the product's rounding does not depend on how the
    caller built its sets, and ``characters.identity_810_gaps`` repeats the
    same float operations.
    """
    out = 1.0
    for q in sorted(d_primes | r_primes):
        c = chi(q).real
        out /= 1.0 - c / q
        if q in d_primes and q not in r_primes:
            out *= (1.0 - 1.0 / q - c / q) / (1.0 - 1.0 / q)
    return out


# ---------------------------------------------------------------------------
# local identity checker


def _bare_xi_sum(
    variant: str,
    coeffs: Sequence[complex],
    u: float,
    v: int,
    betas: Sequence[complex],
    case: str,
) -> complex:
    """sum over r >= 1 of (series weight)^r * xi(q^r; ...) for the named case."""
    q = 1.0 / u
    if variant == "kappa":
        # three-factor family at evaluation point 1 - beta_1, chi-weighted sum
        tilde_w = u ** (1.0 - betas[0])       # q^{-(1-beta_1)}
        mob = u**betas[0] / (1.0 - u)          # q^{1-beta_1}/phi(q) * q^{-1}... see below
        sum_w = v * u                           # chi(q^r)/q^r at s=1
    else:
        tilde_w = v * u                          # chi(q)/q at s=1
        mob = v / (1.0 - u)                      # chi(q) q/phi(q) * q^{-1}... see below
        sum_w = u                                # plain 1/q^r at s=1
    # the Mobius term of xi(q^r) is -mob * coeffs[r-1] after pulling one q^{-s}
    # out of the summation weight: q^{1-b}/phi(q) * q^{-rs} = mob * q^{-(r-1)s}
    total: complex = 0.0
    w: complex = 1.0
    small_run = 0
    for r in range(1, len(coeffs) - 1):
        w *= sum_w
        if case == "A2":
            xi_r = coeffs[r]                                   # blocked, no Mobius term
        elif case == "A3":
            xi_r = coeffs[r] - mob * coeffs[r - 1]             # blocked tail
        elif case == "L162":
            xi_r = _kappa_tilde_prime(coeffs, r, tilde_w, False)   # no Mobius term
        else:  # A1, A6, A7, L152, L161: open tail plus Mobius term
            xi_r = _kappa_tilde_prime(coeffs, r, tilde_w, False) - mob * coeffs[r - 1]
        term = w * xi_r
        total += term
        small_run = small_run + 1 if abs(term) < 1e-18 * max(1.0, abs(total)) else 0
        if r > 4 and small_run >= 2:
            break
    return total


def check_local_identity(
    case: str, params: LocalFactorParams
) -> tuple[complex, complex, float]:
    """Evaluate (lhs, rhs, |lhs-rhs|) for a named per-prime identity.

    The rhs is the exact rational value of the limit with all shifts zero;
    the lhs is the series evaluation at the given shifts.  A1-A3 fix the
    channel j=1 (prefactor built from the second and third shifts).
    """
    if case not in _CASES:
        raise DomainError(f"unknown identity case {case!r}")
    u, v, betas = params.u, params.v, params.betas
    q = 1.0 / u

    if case in ("A1", "A2", "A3"):
        coeffs = _coeffs("kappa", betas, q, _SERIES_LEN)
        s_eval = 1.0 - betas[0]
        pref = (1.0 - v * u ** (1.0 + betas[1])) * (1.0 - v * u ** (1.0 + betas[2])) / (
            1.0 - v * u
        )
        if case == "A1":
            lam: complex = 1.0
            for b in betas:
                lam *= 1.0 - u ** (s_eval + b)
            lam /= 1.0 - u**s_eval
        else:
            lam = 1.0
        bracket = 1.0 + lam * _bare_xi_sum("kappa", coeffs, u, v, betas, case)
        lhs = pref * bracket
        rhs = {
            "A1": 1.0,
            "A2": 1.0 / (1.0 - v * u),
            "A3": (1.0 - u - v * u) / ((1.0 - v * u) * (1.0 - u)),
        }[case]
        return complex(lhs), complex(rhs), abs(lhs - rhs)

    if case in ("A6", "A7", "L152"):
        if case == "A6" and v == 0:
            raise DomainError("A6 needs v = +-1; use A7 for v = 0")
        coeffs = _coeffs("kappa1", betas, q, _SERIES_LEN)
        lam = (1.0 - v * u ** (1.0 + betas[0])) * (1.0 - v * u ** (1.0 + betas[1])) / (
            1.0 - v * u
        )
        bracket = 1.0 + lam * _bare_xi_sum("kappa1", coeffs, u, v, betas, case)
        if case in ("A6", "A7"):
            lhs: complex = bracket
            rhs = 1.0 / (1.0 - u) - u * v * (1.0 - v * u) / (1.0 - u) ** 2
        else:
            pref = (1.0 - u ** (1.0 + betas[0])) * (1.0 - u ** (1.0 + betas[1])) / (
                (1.0 - u) * (1.0 - v * u)
            )
            lhs = pref * bracket
            rhs = 1.0 if v == 0 else (1.0 - v * u * u) / (1.0 - u * u)
        return complex(lhs), complex(rhs), abs(lhs - rhs)

    # L161 / L162
    if case == "L162" and v == 1 and abs(u - 0.5) < 1e-12:
        raise DomainError("L162 is singular at u=1/2, v=1")
    coeffs = _coeffs("kappa2", betas, q, _SERIES_LEN)
    lam = (1.0 - v * u ** (1.0 + betas[0])) / (1.0 - v * u)
    open_bracket = 1.0 + lam * _bare_xi_sum("kappa2", coeffs, u, v, betas, "L161")
    if case == "L161":
        pref = (1.0 - u ** (1.0 + betas[0])) / ((1.0 - u) * (1.0 - v * u))
        lhs = pref * open_bracket
        rhs = (1.0 - v * u / (1.0 - u)) / (1.0 - v * u)
    else:
        blocked_bracket = 1.0 + lam * _bare_xi_sum("kappa2", coeffs, u, v, betas, "L162")
        lhs = blocked_bracket / open_bracket
        rhs = 1.0 / (1.0 - v * u / (1.0 - u))
    return complex(lhs), complex(rhs), abs(lhs - rhs)
