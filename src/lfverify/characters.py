"""Dirichlet characters at small moduli and the arithmetic coefficient layer.

Real primitive characters come from the quadratic (Kronecker) symbol; full
character groups for small composite moduli are assembled from primitive
roots of the odd prime-power factors and the two-generator structure at
powers of 2.  On top of the tables sit the multiplicative coefficients used
by the verification (divisor-sum transforms of a character and their
Dirichlet inverses) and brute-force checks of the identities they satisfy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct

from .numerics import DomainError

# ---------------------------------------------------------------------------
# elementary arithmetic helpers

_SPF: list[int] = [0, 1]


def _ensure_sieve(n: int) -> None:
    global _SPF
    if n < len(_SPF):
        return
    limit = max(n + 1, 2 * len(_SPF), 1 << 10)
    spf = list(range(limit))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    _SPF = spf


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out: dict[int, int] = {}
    if n < 10**7:
        _ensure_sieve(n)
        while n > 1:
            p = _SPF[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def tau_k(n: int, k: int = 2) -> int:
    """Number of ordered factorizations of n into k parts."""
    if k < 1:
        raise DomainError("k must be positive")
    out = 1
    for e in factorize(n).values():
        out *= math.comb(e + k - 1, k - 1)
    return out


def primes_up_to(n: int) -> list[int]:
    _ensure_sieve(n)
    return [p for p in range(2, n + 1) if _SPF[p] == p]


# ---------------------------------------------------------------------------
# quadratic symbol

def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n), fully general."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if d % 2 == 0:
            return 0
        if twos % 2 == 1 and abs(d) % 8 in (3, 5):
            result = -result
    return result * _jacobi(d, n)


def _is_fundamental(d: int) -> bool:
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return all(e == 1 for e in factorize(abs(d)).values())
    if d % 4 == 0:
        m = d // 4
        if m % 4 in (2, 3):
            return all(e == 1 for e in factorize(abs(m)).values())
    return False


# ---------------------------------------------------------------------------
# character type and constructors

def _snap(z: complex) -> complex:
    re, im = z.real, z.imag
    for target in (-1.0, 0.0, 1.0):
        if abs(re - target) < 1e-14:
            re = target
        if abs(im - target) < 1e-14:
            im = target
    return complex(re, im)


@dataclass(frozen=True)
class DirichletCharacter:
    """Value table of a character mod q; index n % q."""

    modulus: int
    values: tuple[complex, ...]
    parity: int          # chi(-1): +1 even, -1 odd
    primitive: bool
    real: bool
    conductor: int

    def __post_init__(self):
        if self.modulus < 1 or len(self.values) != self.modulus:
            raise DomainError("value table does not match modulus")

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return self.conductor == 1

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus,
            tuple(_snap(v.conjugate()) for v in self.values),
            self.parity,
            self.primitive,
            self.real,
            self.conductor,
        )

    def validate(self) -> None:
        """Assert the table really is a character (sampled multiplicativity)."""
        q = self.modulus
        for m in range(1, min(q, 30)):
            for n in range(1, min(q, 30)):
                lhs = self(m * n)
                rhs = self(m) * self(n)
                if abs(lhs - rhs) > 1e-12:
                    raise AssertionError(f"not multiplicative at ({m},{n}) mod {q}")
        for n in range(q):
            coprime = math.gcd(n, q) == 1
            if coprime != (abs(self(n)) > 0.5):
                raise AssertionError(f"support wrong at {n} mod {q}")


def _finish(modulus: int, values: list[complex]) -> DirichletCharacter:
    vals = tuple(_snap(v) for v in values)
    parity = int(round(vals[(modulus - 1) % modulus].real)) if modulus > 1 else 1
    real = all(abs(v.imag) < 1e-13 for v in vals)
    conductor = modulus
    for f in divisors(modulus):
        ok = True
        for a in range(1, modulus, f) if f < modulus else [1]:
            if math.gcd(a, modulus) == 1 and abs(vals[a % modulus] - 1.0) > 1e-9:
                ok = False
                break
        if ok:
            conductor = f
            break
    return DirichletCharacter(
        modulus, vals, parity, conductor == modulus, real, conductor
    )


def real_primitive_character(big_d: int) -> DirichletCharacter:
    """The real primitive character mod D, when one exists.

    Prefers the even character when both signs give a fundamental
    discriminant of absolute value D (which happens only at D=8).
    """
    if big_d < 3:
        raise DomainError(f"no real primitive character mod {big_d}")
    if _is_fundamental(big_d):
        d = big_d
    elif _is_fundamental(-big_d):
        d = -big_d
    else:
        raise DomainError(f"no real primitive character mod {big_d}")
    values = [complex(kronecker_symbol(d, n)) for n in range(big_d)]
    chi = _finish(big_d, values)
    assert chi.primitive and chi.real
    return chi


def _primitive_root(p: int, e: int) -> int:
    # smallest primitive root mod p, adjusted to stay primitive mod p^e
    order_factors = list(factorize(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // f, p) != 1 for f in order_factors):
            break
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (element, order) of the unit group mod p^e."""
    pe = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(pe - 1, 2), (5, pe // 4)]
    return [(_primitive_root(p, e), pe // p * (p - 1))]


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, deterministic order."""
    if q < 1:
        raise DomainError("modulus must be positive")
    if q == 1:
        return [DirichletCharacter(1, (1 + 0j,), 1, True, True, 1)]
    fact = factorize(q)
    locals_: list[tuple[int, list[tuple[int, int]], dict[int, tuple[int, ...]]]] = []
    for p, e in fact.items():
        pe = p**e
        gens = _local_generators(p, e)
        dlog: dict[int, tuple[int, ...]] = {}
        ranges = [range(order) for _, order in gens]
        for exps in _iproduct(*ranges) if gens else [()]:
            n = 1
            for (g, _), k in zip(gens, exps):
                n = n * pow(g, k, pe) % pe
            dlog[n] = exps
        locals_.append((pe, gens, dlog))

    chars = []
    all_orders = [order for _, gens, _ in locals_ for _, order in gens]
    for choice in _iproduct(*[range(o) for o in all_orders]):
        values: list[complex] = []
        for n in range(q):
            if math.gcd(n, q) > 1:
                values.append(0j)
                continue
            rot = Fraction(0)
            idx = 0
            for pe, gens, dlog in locals_:
                exps = dlog[n % pe]
                for (_, order), k in zip(gens, exps):
                    rot += Fraction(choice[idx] * k, order)
                    idx += 1
            rot %= 1
            values.append(cmath.exp(2j * cmath.pi * float(rot)))
        chars.append(_finish(q, values))
    return chars


def primitive_characters(q: int) -> list[DirichletCharacter]:
    return [c for c in character_group(q) if c.primitive]


def principal_character(q: int) -> DirichletCharacter:
    values = [complex(1 if math.gcd(n, q) == 1 else 0) for n in range(q)] if q > 1 else [1 + 0j]
    return _finish(q, values)


def gauss_sum(theta: DirichletCharacter) -> complex:
    """tau(theta) by direct summation over residues."""
    q = theta.modulus
    return sum(
        theta.values[a] * cmath.exp(2j * cmath.pi * a / q)
        for a in range(q)
        if theta.values[a] != 0
    )


# ---------------------------------------------------------------------------
# coefficient layer

@lru_cache(maxsize=None)
def nu(n: int, chi: DirichletCharacter) -> complex:
    """Divisor transform (1 * chi)(n)."""
    total: complex = 0
    for d in divisors(n):
        total += chi(d)
    if chi.real:
        return complex(round(total.real))
    return total


@lru_cache(maxsize=None)
def upsilon(n: int, chi: DirichletCharacter) -> complex:
    """Dirichlet inverse of nu: upsilon(1)=1, sum_{d|n} nu(d) upsilon(n/d) = 0."""
    if n == 1:
        return 1 + 0j
    total: complex = 0
    for d in divisors(n):
        if d > 1:
            total += nu(d, chi) * upsilon(n // d, chi)
    if chi.real:
        return complex(round((-total).real))
    return -total


def varsigma(n: int, chi: DirichletCharacter) -> complex:
    """Truncated convolution of nu and upsilon with both factors <= D^4."""
    cap = chi.modulus**4
    total: complex = 0
    for l in divisors(n):
        m = n // l
        if l <= cap and m <= cap:
            total += nu(l, chi) * upsilon(m, chi)
    return total


def rho_j(n: int, beta: complex) -> complex:
    """sum_{d|n} mu(d) d^beta; depends only on the radical of n."""
    total: complex = 0
    for d in divisors(n):
        m = mobius(d)
        if m:
            total += m * complex(d) ** beta
    return total


def rho_star_j(n: int, beta: complex, chi: DirichletCharacter) -> complex:
    """sum_{d|n} chi(d) d^beta."""
    total: complex = 0
    for d in divisors(n):
        c = chi(d)
        if c != 0:
            total += c * complex(d) ** beta
    return total


# ---------------------------------------------------------------------------
# derived constant and identity checks

def frak_a(chi: DirichletCharacter, prime_cutoff: int = 1000) -> float:
    """Quadratic-weight normalizer: (6/pi^2) L'(1,chi)^2 prod_{q|D} q/(q+1)."""
    if not (chi.real and chi.primitive):
        raise DomainError("frak_a needs a real primitive character")
    if prime_cutoff < 1000:
        raise DomainError("prime cutoff too small")
    from . import lfunc

    lp = lfunc.l_function_ds(1.0, chi).real
    out = 6.0 / math.pi**2 * lp * lp
    for p in factorize(chi.modulus):
        out *= p / (p + 1)
    return out


def identity_810_gap(n: int, chi: DirichletCharacter) -> float:
    """Relative gap in the divisor-pair identity
    sum over n=dr of |mu(r)|/phi(r) * Pi(d,r) = n/phi(n)."""
    from .eulerprod import cap_pi

    lhs = 0.0
    for r in divisors(n):
        if mobius(r) == 0:
            continue
        lhs += cap_pi(n // r, r, chi, strict=False) / euler_phi(r)
    rhs = n / euler_phi(n)
    return abs(lhs - rhs) / abs(rhs)


def check_identity_810(n: int, chi: DirichletCharacter) -> bool:
    return identity_810_gap(n, chi) <= 1e-12


def check_lemma_171(
    chi: DirichletCharacter,
    s: float = 2.0,
    series_cutoff: int = 100_000,
    prime_cutoff: int = 1000,
) -> tuple[float, float, float]:
    """Truncated Dirichlet series of nu^2 against its Euler-product value."""
    if s < 1.5:
        raise DomainError("need s >= 1.5 for a convergent truncation")
    import numpy as np

    from . import lfunc

    q = chi.modulus
    table = np.array([chi.values[r].real for r in range(q)])
    nu_arr = np.zeros(series_cutoff + 1)
    for d in range(1, series_cutoff + 1):
        c = table[d % q]
        if c:
            nu_arr[d::d] += c
    n_vals = np.arange(1, series_cutoff + 1, dtype=float)
    lhs = float(np.sum(nu_arr[1:] ** 2 / n_vals**s))

    zeta_s = lfunc.hurwitz_zeta(s, 1.0).real
    l_s = lfunc.l_function(s, chi).real
    rhs = zeta_s**2 * l_s**2
    for p in primes_up_to(prime_cutoff):
        if q % p == 0:
            rhs *= 1.0 - p ** (-s)
        else:
            rhs *= 1.0 - p ** (-2 * s)
    return lhs, rhs, abs(lhs - rhs)


def coefficient_bound_margin(n_max: int, chi: DirichletCharacter) -> float:
    """Worst violation of |upsilon| <= nu <= tau_2 and |varsigma| <= nu tau_2
    up to n_max; nonpositive means every bound holds with slack."""
    worst = -math.inf
    for n in range(1, n_max + 1):
        nv = nu(n, chi).real
        uv = abs(upsilon(n, chi))
        t2 = tau_k(n, 2)
        worst = max(worst, uv - nv, nv - t2, abs(varsigma(n, chi)) - nv * t2)
    return worst


def check_coefficient_bounds(n_max: int, chi: DirichletCharacter) -> bool:
    """|upsilon| <= nu <= tau_2 and |varsigma(n)| <= nu(n) tau_2(n) up to n_max."""
    return coefficient_bound_margin(n_max, chi) <= 1e-9
