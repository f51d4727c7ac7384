"""Character tables, arithmetic transforms, and the divisor-pair identity."""

import math
import random

import numpy as np
import pytest

from lfverify import characters, eulerprod
from lfverify.characters import (
    DirichletCharacter,
    _coefficient_table,
    character_group,
    check_lemma_171,
    coefficient_bound_margin,
    divisors,
    euler_phi,
    factorize,
    frak_a,
    gauss_sum,
    identity_810_gap,
    identity_810_gaps,
    mobius,
    nu,
    primes_up_to,
    primitive_characters,
    real_primitive_character,
    upsilon,
)
from lfverify.eulerprod import cap_pi
from lfverify.numerics import DomainError


def test_factorize_and_divisors():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert factorize(1) == {}
    assert divisors(1) == [1]
    with pytest.raises(DomainError):
        factorize(characters._SIEVE_LIMIT)


def test_mobius_phi_tau():
    assert [mobius(n) for n in (1, 2, 4, 6, 30, 12)] == [1, -1, 0, 1, -1, 0]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96


def test_primes_up_to():
    ps = primes_up_to(30)
    assert ps == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_real_primitive_character_hand_values():
    # chi_{-4}: 1, 0, -1, 0 pattern
    chi4 = real_primitive_character(4)
    assert [chi4(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    # chi_5 is the Legendre symbol mod 5
    assert [real_primitive_character(5)(n) for n in range(1, 6)] == [1, -1, -1, 1, 0]
    # chi_8, the even one of the two mod 8
    chi8 = real_primitive_character(8)
    assert chi8(3) == -1
    assert chi8(7) == 1


def test_primitive_root_lifts_to_p_squared():
    # 5 is the least primitive root mod 40487, but 5^40486 = 1 mod 40487^2, so
    # it generates no group mod p^e, e >= 2, and the lift takes 5 + p
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    assert characters._primitive_root(p, 1) == 5
    assert characters._primitive_root(p, 2) == p + 5
    assert pow(p + 5, p - 1, p * p) != 1


def test_group_sizes():
    for q in (3, 4, 5, 7, 8, 9, 12):
        assert len(character_group(q)) == euler_phi(q)


def test_primitive_counts():
    expected = {3: 1, 4: 1, 5: 3, 7: 5, 8: 2, 9: 4, 11: 9, 12: 1, 15: 3}
    for q, n in expected.items():
        chars = primitive_characters(q)
        assert len(chars) == n
        for chi in chars:
            assert chi.primitive and chi.conductor == q


def test_character_multiplicativity_and_support():
    for q in (5, 8, 9, 12):
        for chi in character_group(q):
            chi.validate()


def test_orthogonality():
    for q in (5, 7, 9):
        group = character_group(q)
        # column sums: only n=1 survives summing over the group
        for n in range(2, q):
            if math.gcd(n, q) != 1:
                continue
            total = sum(chi(n) for chi in group)
            assert abs(total) < 1e-12
        assert abs(sum(chi(1) for chi in group) - len(group)) < 1e-12
        # row sums: nonprincipal characters sum to zero over residues
        for chi in group:
            if not chi.is_principal:
                assert abs(sum(chi(n) for n in range(q))) < 1e-12


def test_principal_character():
    chi = character_group(6)[0]
    assert chi.is_principal
    assert not chi.primitive
    assert chi(5) == 1 and chi(3) == 0


def test_real_primitive_characters():
    parities = {3: -1, 4: -1, 5: 1, 8: 1}
    for d, parity in parities.items():
        chi = real_primitive_character(d)
        assert chi.real and chi.primitive and chi.modulus == d
        assert chi.parity == parity
    with pytest.raises(DomainError):
        real_primitive_character(9)
    with pytest.raises(DomainError):
        real_primitive_character(2)


def test_conjugate_character():
    chi = primitive_characters(5)[0]
    conj = chi.conjugate()
    for n in range(5):
        assert conj(n) == complex(chi(n)).conjugate()


def test_gauss_sum_magnitude_and_phase():
    for q in (3, 4, 5, 7, 8, 9, 11):
        for chi in primitive_characters(q):
            tau = gauss_sum(chi)
            assert abs(abs(tau) - math.sqrt(q)) < 1e-12
    # real even character: tau = sqrt(q); real odd: tau = i sqrt(q)
    assert abs(gauss_sum(real_primitive_character(5)) - math.sqrt(5)) < 1e-12
    assert abs(gauss_sum(real_primitive_character(3)) - 1j * math.sqrt(3)) < 1e-12


def test_value_table_guard():
    with pytest.raises(DomainError):
        DirichletCharacter(3, (1 + 0j,), 1, True, 1)


def test_validate_refuses_a_table_that_is_no_character():
    # chi mod 5 with chi(4) negated is no longer multiplicative at (2, 2); the
    # all-ones table is multiplicative but takes a value at 0, which is no unit
    chi = real_primitive_character(5)
    facts = (chi.parity, chi.real, chi.conductor)
    for values, message in (
        ((0j, 1 + 0j, -1 + 0j, -1 + 0j, -1 + 0j), r"not multiplicative at \(2,2\) mod 5"),
        ((1 + 0j,) * 5, "support wrong at 0 mod 5"),
    ):
        with pytest.raises(AssertionError, match=message):
            DirichletCharacter(5, values, *facts).validate()
    chi.validate()


def test_character_group_and_coefficient_table_refuse_an_empty_range():
    for q in (0, -3):
        with pytest.raises(DomainError, match="modulus must be positive"):
            character_group(q)
    with pytest.raises(DomainError, match="coefficients start at n = 1, not 0"):
        coefficient_bound_margin(0, real_primitive_character(5))


def _brute_force_facts(chi):
    """Parity, primitivity, realness and conductor re-derived from the float
    table: chi(q - 1), |imag| < 1e-13, and a scan of the divisors f of q for
    the first that chi sees only through n mod f."""
    q, vals = chi.modulus, chi.values
    parity = int(round(vals[q - 1].real))
    real = all(abs(v.imag) < 1e-13 for v in vals)
    conductor = next(
        f
        for f in divisors(q)
        if all(
            math.gcd(a, q) > 1 or abs(vals[a % q] - 1.0) <= 1e-9
            for a in (range(1, q, f) if f < q else [1])
        )
    )
    return parity, conductor == q, real, conductor


def test_exact_facts_match_brute_force():
    for q in [*range(1, 131), 243, 256, 720]:
        group = character_group(q)
        for chi in group:
            assert (chi.parity, chi.primitive, chi.real, chi.conductor) == _brute_force_facts(chi)
        # the principal character comes first
        assert group[0].values == tuple(complex(math.gcd(n, q) == 1) for n in range(q)), q


def _fundamental(d):
    if d % 4 == 1:
        return mobius(abs(d)) != 0
    return d % 16 in (8, 12) and mobius(abs(d) // 4) != 0


def test_real_primitive_character_is_the_group_member():
    checked = 0
    for big_d in range(3, 201):
        signs = [s for s in (1, -1) if _fundamental(s * big_d)]
        if not signs:
            with pytest.raises(DomainError):
                real_primitive_character(big_d)
            continue
        chi = real_primitive_character(big_d)
        assert chi.real and chi.primitive and chi.conductor == big_d
        # the even character when both signs are fundamental (D = 8m, m odd, squarefree)
        assert chi.parity == signs[0]
        (member,) = [
            c for c in primitive_characters(big_d) if c.real and c.parity == chi.parity
        ]
        assert member.values == chi.values, big_d
        checked += 1
    assert checked == 111


def test_real_primitive_characters_up_to_the_cli_cap():
    checked = 0
    for big_d in range(3, 1001):
        signs = [s for s in (1, -1) if _fundamental(s * big_d)]
        if not signs:
            with pytest.raises(DomainError):
                real_primitive_character(big_d)
            continue
        chi = real_primitive_character(big_d)
        assert _brute_force_facts(chi) == (signs[0], True, True, big_d), big_d
        chi.validate()
        checked += 1
    assert checked == 556


def test_nu_upsilon_varsigma_small_values():
    chi = real_primitive_character(4)
    # nu(n) counts divisors weighted by chi; hand values for small n
    assert nu(1, chi) == 1
    assert nu(2, chi) == 1
    assert nu(5, chi) == 2
    assert nu(3, chi) == 0
    assert nu(9, chi) == 1
    assert upsilon(1, chi) == 1
    # Dirichlet inverse property: sum_{d|n} nu(d) upsilon(n/d) = 0 for n > 1
    for n in range(2, 200):
        total = sum(nu(d, chi) * upsilon(n // d, chi) for d in divisors(n))
        assert abs(total) < 1e-12
    # with both factors far below the cap, varsigma is the full convolution
    vs = _coefficient_table(50, chi)[2]
    for n in range(1, 50):
        assert abs(vs[n] - (1 if n == 1 else 0)) < 1e-12


def _trial_divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _trial_mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@pytest.mark.parametrize("modulus", [3, 4, 5, 8, "5 complex"])
def test_coefficient_table_matches_trial_division(modulus):
    if modulus == "5 complex":
        chi = next(c for c in primitive_characters(5) if not c.real)
    else:
        chi = real_primitive_character(modulus)
    n_max, cap = 3000, chi.modulus**4
    ref_nu = [0] + [sum(chi(d) for d in _trial_divisors(n)) for n in range(1, n_max + 1)]
    ref_ups = [0] + [
        sum(_trial_mobius(d) * _trial_mobius(n // d) * chi(n // d) for d in _trial_divisors(n))
        for n in range(1, n_max + 1)
    ]
    nu_arr, ups, vs, tau2 = _coefficient_table(n_max, chi)
    # these characters take Gaussian-integer values, so every sum is exact
    for n in range(1, n_max + 1):
        ref_vs = sum(
            ref_nu[l] * ref_ups[n // l] for l in _trial_divisors(n) if l <= cap and n // l <= cap
        )
        assert (nu_arr[n], ups[n], vs[n]) == (ref_nu[n], ref_ups[n], ref_vs)
        assert tau2[n] == len(_trial_divisors(n))
    for n in (1, 81, 82, 256, 257, n_max):
        assert (nu(n, chi), upsilon(n, chi)) == (nu_arr[n], ups[n])


@pytest.mark.parametrize("n_max", [960, 961])
def test_capped_product_matches_brute_force(n_max):
    # integer factors, so the sums are exact; caps on both sides of sqrt(N) = 30 or 31
    a, b = np.random.default_rng(n_max).integers(-9, 10, size=(2, n_max + 1))
    root = math.isqrt(n_max)
    for cap in (1, root - 1, root, root + 1, n_max, 10 * n_max, None):
        top = n_max if cap is None else min(cap, n_max)
        ref = np.zeros(n_max + 1, dtype=np.int64)
        for d in range(1, top + 1):
            for m in range(1, min(top, n_max // d) + 1):
                ref[d * m] += a[d] * b[m]
        out = characters._dirichlet(a, b, cap)
        assert out.dtype == np.int64 and np.array_equal(out, ref), cap


def test_ones_first_factor_is_the_array_of_ones_bit_for_bit():
    # None stands for the first factor 1, whose products by 1.0 the sums skip
    rng = np.random.default_rng(5)
    n_max = 961
    unit = np.exp(2j * np.pi * rng.random(n_max + 1))
    for b in (rng.integers(-9, 10, n_max + 1), rng.standard_normal(n_max + 1), unit):
        for cap in (1, 30, 31, None):
            want = characters._dirichlet(np.ones(n_max + 1), b, cap)
            got = characters._dirichlet(None, b, cap)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (b.dtype, cap)


def test_coefficient_bounds_hold_with_exact_margin():
    for d in (3, 4, 5, 8):
        chi = real_primitive_character(d)
        assert coefficient_bound_margin(2000, chi) <= 1e-9


def test_coefficient_tables_do_not_depend_on_the_last_length_asked():
    # the character-free tables are kept for one n_max at a time
    chis = [real_primitive_character(q) for q in (3, 4, 5, 8)]
    alone = {}
    for n_max in (2000, 10_000):
        for chi in chis:
            characters._chi_free_tables.cache_clear()
            alone[n_max, chi.modulus] = (
                coefficient_bound_margin(n_max, chi),
                _coefficient_table(n_max, chi),
            )
    for n_max in (2000, 10_000, 2000):
        for chi in chis:
            margin, tables = alone[n_max, chi.modulus]
            assert coefficient_bound_margin(n_max, chi) == margin
            for got, want in zip(_coefficient_table(n_max, chi), tables):
                assert np.array_equal(got, want)


def test_shared_coefficient_tables_are_read_only():
    chi = real_primitive_character(5)
    shared = [*characters._chi_free_tables(300), _coefficient_table(300, chi)[3]]
    for table in shared:
        with pytest.raises(ValueError):
            table[7] = 2.0


def test_scalar_coefficients_build_no_table(monkeypatch):
    # one n is a sum over its divisors, not a table up to n
    def no_table(n_max, chi):
        raise AssertionError(f"built a table to {n_max}")

    monkeypatch.setattr(characters, "_coefficient_table", no_table)
    chi = real_primitive_character(5)
    # 9999 = 3^2 11 101 and chi(3) = -1, chi(11) = chi(101) = 1
    assert (nu(9999, chi), upsilon(9999, chi)) == (4, -4)
    for n in (0, 10**7):
        with pytest.raises(DomainError):
            nu(n, chi)
        with pytest.raises(DomainError):
            upsilon(n, chi)


def test_identity_810_spot_values():
    chi = real_primitive_character(3)
    for n in (1, 2, 7, 12, 36, 97, 360, 1024, 9973):
        assert identity_810_gap(n, chi) <= 1e-12


def test_identity_810_complex_character():
    # the identity is character-independent; exercise a quartic character too
    chi = next(c for c in primitive_characters(5) if not c.real)
    for n in (6, 30, 128, 243):
        assert identity_810_gap(n, chi) <= 1e-12


@pytest.mark.parametrize("modulus", [3, 4, 5, 8, "5 complex"])
def test_identity_810_bit_identical_to_composition(modulus):
    if modulus == "5 complex":
        chi = next(c for c in primitive_characters(5) if not c.real)
    else:
        chi = real_primitive_character(modulus)
    ns = [*range(1, 3001), 7770, 14910, 21210, 34170]
    for n, gap in zip(ns, identity_810_gaps(ns, [chi])[0].tolist()):
        lhs = 0.0
        for r in divisors(n):
            if mobius(r) != 0:
                lhs += cap_pi(n // r, r, chi) / euler_phi(r)
        rhs = n / euler_phi(n)
        assert gap.hex() == (abs(lhs - rhs) / abs(rhs)).hex(), n


def test_identity_810_blocks_keep_to_the_budget(monkeypatch):
    chi = real_primitive_character(4)
    ns = np.arange(1, 3001)
    whole = identity_810_gaps(ns, [chi])[0]
    budget = 64  # n <= 3000 has at most 2^5 squarefree divisors
    blocks = []
    gap_block = characters._gap_block

    def spy(block, primes, chis):
        blocks.append(block.tolist())
        return gap_block(block, primes, chis)

    monkeypatch.setattr(characters, "_PAIR_ELEMENTS", budget)
    monkeypatch.setattr(characters, "_gap_block", spy)
    blocked = identity_810_gaps(ns, [chi])[0]
    assert [g.hex() for g in blocked.tolist()] == [g.hex() for g in whole.tolist()]
    assert len(blocks) > 100
    assert sum(blocks, []) == ns.tolist()
    for block in blocks:
        pairs = sum(2 ** len(factorize(n)) for n in block)
        assert pairs <= budget, (block, pairs)


def test_identity_810_characters_together_match_each_alone(monkeypatch):
    # the characters share each block's primes and pairs, over several blocks
    chis = [real_primitive_character(q) for q in (3, 4, 5, 8)]
    chis.append(next(c for c in primitive_characters(5) if not c.real))
    ns = np.arange(1, 40_001)
    blocks = []
    gap_block = characters._gap_block

    def spy(block, primes, chis):
        blocks.append(len(block))
        return gap_block(block, primes, chis)

    monkeypatch.setattr(characters, "_gap_block", spy)
    together = identity_810_gaps(ns, chis)
    assert together.shape == (len(chis), len(ns)) and len(blocks) >= 2
    for row, chi in zip(together, chis):
        assert np.array_equal(row, identity_810_gaps(ns, [chi])[0])


def test_identity_810_scalar_matches_array():
    chi = next(c for c in primitive_characters(5) if not c.real)
    ns = random.Random(810).sample(range(1, 200_000), 50)
    gaps = identity_810_gaps(ns, [chi])[0].tolist()
    assert [identity_810_gap(n, chi).hex() for n in ns] == [g.hex() for g in gaps]


def test_identity_810_domain():
    chi = real_primitive_character(3)
    assert identity_810_gap(1, chi) == 0.0
    assert identity_810_gaps([1, 1], [chi]).tolist() == [[0.0, 0.0]]
    assert identity_810_gaps([], [chi]).shape == (1, 0)
    for bad in (0, -6):
        with pytest.raises(DomainError):
            identity_810_gap(bad, chi)
        with pytest.raises(DomainError):
            identity_810_gaps([5, bad, 7], [chi])


def test_identity_810_factors_each_n_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(characters, "factorize", counting)
    monkeypatch.setattr(eulerprod, "factorize", counting)
    chi = real_primitive_character(5)
    for n in range(1, 2001):
        calls.clear()
        identity_810_gap(n, chi)
        assert len(calls) <= 1, (n, calls)


def test_factorize_returns_plain_ints():
    for n in (1, 2, 360, 9973, 2**20, 999_983 * 2):
        fact = factorize(n)
        assert all(type(p) is int and type(e) is int for p, e in fact.items())
        assert math.prod(p**e for p, e in fact.items()) == n


def test_smallest_prime_factor_table_matches_trial_division():
    n_max = 10_000
    primes_up_to(n_max)
    spf = characters._SPF
    for n in range(2, n_max + 1):
        assert spf[n] == next(p for p in range(2, n + 1) if n % p == 0), n


def test_primes_up_to_a_million():
    ps = primes_up_to(10**6)
    assert len(ps) == 78498
    assert ps[-1] == 999_983 and all(type(p) is int for p in ps[:10] + ps[-10:])


def test_lemma_171_truncation_gap():
    chi = real_primitive_character(3)
    lhs, rhs, gap = check_lemma_171(chi)
    assert lhs > 0 and rhs > 0
    assert gap < 1e-4


def test_frak_a_positive_and_guarded():
    for d in (3, 4, 5, 8):
        assert frak_a(real_primitive_character(d)) > 0
    with pytest.raises(DomainError):
        frak_a(next(c for c in primitive_characters(5) if not c.real))
