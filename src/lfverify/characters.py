"""Dirichlet characters at small moduli and the arithmetic coefficient layer.

Every character is built from its exponent vector on the unit-group
generators: a primitive root for each odd prime-power factor, and -1 and 5
at powers of 2.  The vector gives each character's values from one table of
roots of unity at exact integer phases, and its conductor, parity and
realness exactly.  The full group takes every vector; the real primitive
character takes only the real ones, whose exponents are 0 or half the
generator's order, and keeps the primitive one.  On top of the tables sit
the multiplicative coefficients used by the verification (divisor-sum
transforms of a character and their Dirichlet inverses) and brute-force
checks of the identities they satisfy.
The divisor-pair identity is checked for a whole array of n in one numpy
pass, in blocks of a fixed number of divisor pairs, with the float
operations of the term-by-term composition in ascending prime order.

Work free of the character is done once: each block's primes, phi(n) and
divisor pairs serve every character passed to ``identity_810_gaps``
together, and 1, mu and tau_2 are kept, read-only, for the last n_max of
``_coefficient_table``.  No value changes from its character's own run.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

import numpy as np

from .numerics import DomainError

# ---------------------------------------------------------------------------
# elementary arithmetic helpers

_SPF = np.arange(2, dtype=np.int32)  # smallest prime factor of each index
# factorize and identity_810_gaps take n below this, from the sieve
_SIEVE_LIMIT = 10**7
# pairs (n, r) per identity_810_gaps block: 512 KB per int64 or float array
_PAIR_ELEMENTS = 1 << 16


def _ensure_sieve(n: int) -> None:
    global _SPF
    if n < len(_SPF):
        return
    limit = max(n + 1, 2 * len(_SPF), 1 << 10)
    spf = np.arange(limit, dtype=np.int32)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if spf[p] == p:
            # unmarked multiples still hold their own index, which exceeds p
            tail = spf[p * p :: p]
            np.minimum(tail, p, out=tail)
    _SPF = spf


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of 1 <= n < _SIEVE_LIMIT."""
    if not 1 <= n < _SIEVE_LIMIT:
        raise DomainError(f"factorize takes 1 <= n < {_SIEVE_LIMIT}, not {n}")
    _ensure_sieve(n)
    out: dict[int, int] = {}
    while n > 1:
        p = _SPF.item(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
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


def primes_up_to(n: int) -> list[int]:
    _ensure_sieve(n)
    return np.flatnonzero(_SPF[: n + 1] == np.arange(n + 1, dtype=np.int32))[2:].tolist()


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
    real: bool
    conductor: int

    def __post_init__(self):
        if self.modulus < 1 or len(self.values) != self.modulus:
            raise DomainError("value table does not match modulus")

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def is_principal(self) -> bool:
        return self.conductor == 1

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus,
            tuple(_snap(v.conjugate()) for v in self.values),
            self.parity,
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


def _local_conductor(p: int, e: int, exps: list[int]) -> int:
    """Conductor of the character mod p^e with these generator exponents."""
    if not any(exps):
        return 1
    if p == 2 and (e == 2 or exps[1] == 0):
        return 4
    # the exponent on the primitive root, or on 5 mod 2^e: the character
    # is trivial on the units = 1 mod p^f exactly when p^(e-f) divides it
    k, v = exps[-1], 0
    while v < e - 1 and k % p == 0:
        k //= p
        v += 1
    return p ** (e - v)


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, deterministic order, the principal one first.

    A character is its vector of exponents k_i on the unit-group generators,
    chi(g_i) = e(k_i / order_i), and every fact about it is exact: the
    conductor is the product of the local conductors, the parity is the
    value at q - 1, and the character is real when each 2 k_i = 0 mod order_i.
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    return _characters(q, real_only=False)


def _characters(q: int, real_only: bool) -> list[DirichletCharacter]:
    """The characters mod q >= 1 of every exponent vector, or of the real
    ones alone, whose exponents are 0 or half the generator's order."""
    residues = np.arange(q)
    orders: list[int] = []
    logs: list[np.ndarray] = []  # discrete log of each residue, per generator
    pieces = []  # (p, e, slice of the exponent vector)
    for p, e in factorize(q).items():
        pe = p**e
        gens = _local_generators(p, e)
        dlog = np.zeros((len(gens), pe), dtype=np.int64)
        for exps in _iproduct(*[range(order) for _, order in gens]):
            n = 1
            for (g, _), k in zip(gens, exps):
                n = n * pow(g, k, pe) % pe
            dlog[:, n] = exps
        pieces.append((p, e, slice(len(orders), len(orders) + len(gens))))
        orders += [order for _, order in gens]
        logs += list(dlog[:, residues % pe])

    # phases in units of 1/lcm of the orders: exact integers, and the true
    # division k / lcm rounds the rational phase correctly; the extra phase
    # lcm marks the non-units, whose value is 0j
    lcm = math.lcm(*orders)
    roots = [_snap(cmath.exp(2j * cmath.pi * (k / lcm))) for k in range(lcm)]
    roots = np.array(roots + [0j], dtype=object)
    options = [(0, order // 2) if real_only else range(order) for order in orders]
    choices = np.array(list(_iproduct(*options)), dtype=np.int64)
    scale = lcm // np.array(orders, dtype=np.int64)
    phases = (choices * scale) @ np.array(logs, dtype=np.int64).reshape(len(orders), q)
    phases %= lcm
    phases[:, np.gcd(residues, q) > 1] = lcm
    chars = []
    for choice, phase in zip(choices.tolist(), phases):
        conductor = math.prod(_local_conductor(p, e, choice[s]) for p, e, s in pieces)
        real = all(2 * k % order == 0 for k, order in zip(choice, orders))
        parity = 1 if phase[q - 1] == 0 else -1
        values = tuple(roots[phase].tolist())
        chars.append(DirichletCharacter(q, values, parity, real, conductor))
    return chars


def primitive_characters(q: int) -> list[DirichletCharacter]:
    return [c for c in character_group(q) if c.primitive]


def real_primitive_character(big_d: int) -> DirichletCharacter:
    """The real primitive character mod D, when one exists.

    Only the 2^g real characters are built, g the number of generators.
    Prefers the even character when two are primitive (only at D=8).
    """
    if big_d >= 3:
        found = [c for c in _characters(big_d, real_only=True) if c.primitive]
        if found:
            return max(found, key=lambda c: c.parity)
    raise DomainError(f"no real primitive character mod {big_d}")


def gauss_sum(theta: DirichletCharacter) -> complex:
    """tau(theta) by direct summation over residues."""
    q = theta.modulus
    return sum(
        theta.values[a] * cmath.exp(2j * cmath.pi * a / q)
        for a in range(q)
        if theta.values[a] != 0
    )


# ---------------------------------------------------------------------------
# coefficient layer: arrays over 0..N whose index 0 is unused

def _dirichlet(a: np.ndarray, b: np.ndarray, cap: int | None = None) -> np.ndarray:
    """(a * b)(n) for 1 <= n < len(a); with ``cap``, only factors <= cap count.

    Hyperbola split: the pairs d m = n with d <= sqrt(N) take one slice-add
    per d, and the rest, which all have m <= sqrt(N), one slice-add per m.
    With ``cap`` every slice ends at the cap.
    """
    n_max = len(a) - 1
    cap = n_max if cap is None else cap
    root = math.isqrt(n_max)
    out = np.zeros(n_max + 1, dtype=np.result_type(a, b))
    for d in range(1, min(root, cap) + 1):
        top = min(cap, n_max // d)
        out[d : d * top + 1 : d] += a[d] * b[1 : top + 1]
    for m in range(1, min(root, cap) + 1):
        top = min(cap, n_max // m)
        out[(root + 1) * m : m * top + 1 : m] += b[m] * a[root + 1 : top + 1]
    return out


def _chi_array(n_max: int, chi: DirichletCharacter) -> np.ndarray:
    values = [v.real for v in chi.values] if chi.real else list(chi.values)
    return np.tile(values, n_max // chi.modulus + 1)[: n_max + 1]


@functools.lru_cache(maxsize=1)
def _chi_free_tables(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1, mu and tau_2 = 1 * 1 over 0..n_max, read-only; kept for the last n_max."""
    one = np.ones(n_max + 1)
    mu = np.ones(n_max + 1)
    for p in primes_up_to(n_max):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    tables = one, mu, _dirichlet(one, one)
    for table in tables:
        table.setflags(write=False)
    return tables


def _coefficient_table(n_max: int, chi: DirichletCharacter) -> tuple[np.ndarray, ...]:
    """nu, upsilon, varsigma and tau_2 over 0..n_max.

    nu = 1 * chi, upsilon = mu * (mu chi), varsigma = nu * upsilon with both
    factors <= D^4, tau_2 = 1 * 1.  For a real chi every entry is an integer
    far below 2^53, so the float sums are exact.  tau_2 is shared and read-only.
    """
    if n_max < 1:
        raise DomainError(f"coefficients start at n = 1, not {n_max}")
    one, mu, tau2 = _chi_free_tables(n_max)
    chi_arr = _chi_array(n_max, chi)
    nu_arr = _dirichlet(one, chi_arr)
    ups = _dirichlet(mu, mu * chi_arr)
    return nu_arr, ups, _dirichlet(nu_arr, ups, cap=chi.modulus**4), tau2


def nu(n: int, chi: DirichletCharacter) -> complex:
    """Divisor transform (1 * chi)(n)."""
    return complex(_coefficient_table(n, chi)[0][n])


def upsilon(n: int, chi: DirichletCharacter) -> complex:
    """Dirichlet inverse of nu: upsilon(1)=1, sum_{d|n} nu(d) upsilon(n/d) = 0."""
    return complex(_coefficient_table(n, chi)[1][n])


# ---------------------------------------------------------------------------
# derived constant and identity checks

def frak_a(chi: DirichletCharacter) -> float:
    """Quadratic-weight normalizer: (6/pi^2) L'(1,chi)^2 prod_{q|D} q/(q+1)."""
    if not (chi.real and chi.primitive):
        raise DomainError("frak_a needs a real primitive character")
    from . import lfunc

    lp = lfunc.l_function_ds(1.0, chi).real
    out = 6.0 / math.pi**2 * lp * lp
    for p in factorize(chi.modulus):
        out *= p / (p + 1)
    return out


def identity_810_gap(n: int, chi: DirichletCharacter) -> float:
    """Relative gap in the divisor-pair identity
    sum over n=dr of |mu(r)|/phi(r) * Pi(d,r) = n/phi(n).

    The scalar entry point: one n and one character through ``identity_810_gaps``.
    """
    return float(identity_810_gaps([n], [chi])[0, 0])


def identity_810_gaps(ns, chis: Sequence[DirichletCharacter]) -> np.ndarray:
    """``identity_810_gap`` at every n of ``ns`` for every character of
    ``chis`` in one numpy pass: a (characters x n) array, each row equal to
    that character's gaps on its own.

    Each n's distinct primes come from the sieve in ascending order, as
    rows padded with 1, and give phi(n).  Subset doubling over the rows
    makes every squarefree divisor r with phi(r).  Per pair, Pi(d, r) takes
    the float operations of ``eulerprod.cap_pi`` in ascending prime order,
    the padding dividing and multiplying by an exact 1.0, and the terms
    Pi / phi(r) are added in ascending r from 0.0 by ``np.bincount``, which
    accumulates in sequence.  So each gap matches the term-by-term
    composition of ``divisors``, ``mobius``, ``cap_pi`` and ``euler_phi`` to
    the last bit.

    The n are factored _PAIR_ELEMENTS // 8 at a time, so their prime rows
    (at most 8 primes below 10^7) fit the budget, and split into blocks of
    at most _PAIR_ELEMENTS pairs (n, r), and at least one n, so the pair
    arrays stay near 512 KB each whatever the length of ``ns``.  Every
    character reuses a block's primes and pairs.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size:
        if not 1 <= ns.min() <= ns.max() < _SIEVE_LIMIT:
            raise DomainError(f"the identity is checked at 1 <= n < {_SIEVE_LIMIT}")
        _ensure_sieve(int(ns.max()))
    gaps = np.empty((len(chis), len(ns)))
    step = _PAIR_ELEMENTS // 8
    for lo in range(0, len(ns), step):
        chunk = ns[lo : lo + step]
        primes = _prime_rows(chunk)
        ends = np.cumsum(1 << (primes > 1).sum(axis=0))  # pairs up to each n
        i = 0
        while i < len(chunk):
            base = ends[i - 1] if i else 0
            j = max(i + 1, int(np.searchsorted(ends, base + _PAIR_ELEMENTS, side="right")))
            gaps[:, lo + i : lo + j] = _gap_block(chunk[i:j], primes[:, i:j], chis)
            i = j
    return gaps


def _prime_rows(ns: np.ndarray) -> np.ndarray:
    """Distinct primes of each n down a column, ascending, padded with 1."""
    rest, rows = ns.copy(), []
    while True:
        p = _SPF[rest].astype(np.int64)  # the sieve maps 1 to 1
        live = np.flatnonzero(p > 1)
        if not live.size:
            return np.array(rows, dtype=np.int64).reshape(len(rows), len(ns))
        rows.append(p)
        while live.size:
            rest[live] //= p[live]
            live = live[rest[live] % p[live] == 0]


def _gap_block(ns: np.ndarray, primes: np.ndarray, chis: Sequence[DirichletCharacter]) -> np.ndarray:
    """Gaps at ns, whose distinct primes are the columns of ``primes``, one row per character."""
    phi_n = ns.copy()
    for p in primes:
        phi_n = phi_n // p * np.maximum(p - 1, 1)
    pad = primes == 1
    inv = 1.0 / primes

    # pair s of n takes the primes at the set bits of s, and doubles the
    # pair without its top bit; then the pairs go in ascending r per n
    counts = 1 << (~pad).sum(axis=0)
    idx = np.repeat(np.arange(len(ns)), counts)
    bits = np.arange(len(idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    r, phi_r = np.ones_like(idx), np.ones_like(idx)
    for k, p in enumerate(primes):
        top = np.flatnonzero(bits >> k == 1)
        pk = p[idx[top]]
        r[top] = r[top - (1 << k)] * pk
        phi_r[top] = phi_r[top - (1 << k)] * (pk - 1)
    order = np.argsort(idx * _SIEVE_LIMIT + r, kind="stable")  # r <= n < _SIEVE_LIMIT
    bits, phi_r = bits[order], phi_r[order]  # idx is already in order
    in_r = [(bits >> k & 1).astype(bool) for k in range(len(primes))]
    rhs = ns / phi_n

    gaps = np.empty((len(chis), len(ns)))
    for row, chi in zip(gaps, chis):
        # Pi's factors per prime, exactly 1.0 at the padding
        c_over_p = np.array([v.real for v in chi.values])[primes % chi.modulus] / primes
        local = np.where(pad, 1.0, 1.0 - c_over_p)
        unramified = np.divide(1.0 - inv - c_over_p, 1.0 - inv, out=np.ones_like(inv), where=~pad)
        pi = np.ones(len(idx))
        for k, mask in enumerate(in_r):
            pi /= local[k, idx]
            pi *= np.where(mask, 1.0, unramified[k, idx])
        lhs = np.bincount(idx, weights=pi / phi_r, minlength=len(ns))
        row[:] = np.abs(lhs - rhs) / np.abs(rhs)
    return gaps


# the point s and the two truncations of ``check_lemma_171``
LEMMA_171_S = 2.0
LEMMA_171_SERIES_CUTOFF = 100_000
LEMMA_171_PRIME_CUTOFF = 1000


def check_lemma_171(chi: DirichletCharacter) -> tuple[float, float, float]:
    """Truncated Dirichlet series of nu^2 against its Euler-product value at ``LEMMA_171_S``."""
    from . import lfunc

    s, cutoff, q = LEMMA_171_S, LEMMA_171_SERIES_CUTOFF, chi.modulus
    nu_arr = _dirichlet(np.ones(cutoff + 1), _chi_array(cutoff, chi)).real
    n_vals = np.arange(1, cutoff + 1, dtype=float)
    lhs = float(np.sum(nu_arr[1:] ** 2 / n_vals**s))

    zeta_s = lfunc.hurwitz_zeta(s, 1.0).real
    l_s = lfunc.l_function(s, chi).real
    rhs = zeta_s**2 * l_s**2
    for p in primes_up_to(LEMMA_171_PRIME_CUTOFF):
        if q % p == 0:
            rhs *= 1.0 - p ** (-s)
        else:
            rhs *= 1.0 - p ** (-2 * s)
    return lhs, rhs, abs(lhs - rhs)


def coefficient_bound_margin(n_max: int, chi: DirichletCharacter) -> float:
    """Worst violation of |upsilon| <= nu <= tau_2 and |varsigma| <= nu tau_2
    up to n_max; nonpositive means every bound holds with slack."""
    nu_arr, ups, vs, tau2 = (t[1:] for t in _coefficient_table(n_max, chi))
    nv = nu_arr.real
    return float(max(np.max(np.abs(ups) - nv), np.max(nv - tau2), np.max(np.abs(vs) - nv * tau2)))
