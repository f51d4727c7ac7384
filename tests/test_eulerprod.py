"""Per-prime factor identities: exactness at zero shift, drift under small shifts."""

import math

import numpy as np
import pytest

from lfverify import eulerprod
from lfverify.characters import primes_up_to, real_primitive_character
from lfverify.eulerprod import (
    IDENTITY_CASES,
    LocalFactorParams,
    cap_pi,
    check_local_identity,
)
from lfverify.numerics import DomainError

ZERO = (0j, 0j, 0j)


def test_case_catalogue():
    assert IDENTITY_CASES == ("A1", "A2", "A3", "A6", "A7", "L152", "L161", "L162")


def test_params_validation():
    with pytest.raises(DomainError):
        LocalFactorParams(u=1.5, v=0, betas=ZERO)
    with pytest.raises(DomainError):
        LocalFactorParams(u=0.4, v=0, betas=ZERO)  # not 1/integer
    with pytest.raises(DomainError):
        LocalFactorParams(u=0.2, v=2, betas=ZERO)
    with pytest.raises(DomainError):
        check_local_identity("B9", LocalFactorParams(u=0.2, v=0, betas=ZERO))
    with pytest.raises(DomainError, match="three shifts"):
        LocalFactorParams(u=0.2, v=1, betas=(0j,))
    with pytest.raises(DomainError, match="three shifts"):
        LocalFactorParams(u=0.2, v=1, betas=ZERO + (0j,))


@pytest.mark.parametrize("case", IDENTITY_CASES)
@pytest.mark.parametrize("v", (-1, 0, 1))
def test_exact_at_zero_shift(case, v):
    if case == "A6" and v == 0:
        pytest.skip("A6 is defined only for v = +-1")
    for p in primes_up_to(73):
        if case == "L162" and v == 1 and p == 2:
            continue  # singular point u = 1/2
        lhs, rhs, gap = check_local_identity(
            case, LocalFactorParams(u=1.0 / p, v=v, betas=ZERO)
        )
        assert gap <= 1e-12, f"{case} v={v} p={p}: gap {gap:.3e}"


def test_a6_rejects_v_zero():
    with pytest.raises(DomainError):
        check_local_identity("A6", LocalFactorParams(u=0.2, v=0, betas=ZERO))


def test_l162_singular_guard():
    with pytest.raises(DomainError):
        check_local_identity("L162", LocalFactorParams(u=0.5, v=1, betas=ZERO))
    # away from the singular point the case is fine
    _, _, gap = check_local_identity("L162", LocalFactorParams(u=0.2, v=1, betas=ZERO))
    assert gap <= 1e-12


def test_small_shift_drift_is_linear():
    # gap scales like the shift size for small imaginary shifts
    p = 101
    gaps = []
    for eps in (1e-4, 1e-5, 1e-6):
        betas = (1j * math.pi * eps, 2j * math.pi * eps, 3j * math.pi * eps)
        _, _, gap = check_local_identity(
            "A2", LocalFactorParams(u=1.0 / p, v=1, betas=betas)
        )
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.3)


def test_large_prime_envelope():
    # |lhs - rhs| <= 10 |beta| log(q) / q for primes in the stated range
    shift = 1e-3
    betas = (1j * math.pi * shift, 2j * math.pi * shift, 3j * math.pi * shift)
    beta_max = max(abs(b) for b in betas)
    for p in (1009, 2003, 4001, 7919, 9973):
        bound = 10.0 * beta_max * math.log(p) / p
        for case in ("A1", "A3", "A6", "L152", "L161"):
            for v in (-1, 1):
                _, _, gap = check_local_identity(
                    case, LocalFactorParams(u=1.0 / p, v=v, betas=betas)
                )
                assert gap <= bound, f"{case} v={v} p={p}: {gap:.3e} > {bound:.3e}"


# frozen (lhs, rhs) at p = 101 and betas = i pi 1e-3 (1, 2, 3): at zero shift
# the factors collapse, so a swapped shift index shows only at nonzero shifts
_SHIFTED_AT_101 = {
    ("A1", -1): ((0.9999998763865714+2.670868552907303e-09j), (1+0j)),
    ("A1", 0): ((1+0j), (1+0j)),
    ("A1", 1): ((1.0000001260856972-2.7242859236943986e-09j), (1+0j)),
    ("A2", -1): ((0.9901970787767725+0.00014074715326265592j), (0.9901960784313726+0j)),
    ("A2", 0): ((1+0j), (1+0j)),
    ("A2", 1): ((1.0099989171984765-0.00014643272853000894j), (1.01+0j)),
    ("A3", -1): ((1.0000980292122323-1.4074715326265657e-06j), (1.0000980392156862+0j)),
    ("A3", 0): ((1+0j), (1+0j)),
    ("A3", 1): ((0.9999000108280153+1.4643272853000558e-06j), (0.9999+0j)),
    ("A6", -1): ((1.020194392221301-0.00044804894680316207j), (1.0202+0j)),
    ("A6", 1): ((0.999994586247585-0.000439265538577157j), (1+0j)),
    ("A7", -1): ((1.020194392221301-0.00044804894680316207j), (1.0202+0j)),
    ("A7", 0): ((1.0099945437964781-0.00043926459672293043j), (1.01+0j)),
    ("A7", 1): ((0.999994586247585-0.000439265538577157j), (1+0j)),
    ("L152", -1): ((1.0001959857036258-4.263016857117274e-06j), (1.0001960784313724+0j)),
    ("L152", 0): ((1-1.0842021724855044e-19j), (1+0j)),
    ("L152", 1): ((0.9999999903211735-4.35012398685721e-06j), (1+0j)),
    ("L161", -1): ((1.0000980392156862+2.710505431213761e-20j), (1.0000980392156862+0j)),
    ("L161", 0): ((0.9999999999999999+2.710505431213761e-20j), (1+0j)),
    ("L161", 1): ((0.9998999787685525-2.9286607885577653e-06j), (0.9999+0j)),
    ("L162", -1): ((0.9900990201034919+1.4073306868020025e-06j), (0.9900990099009901+0j)),
    ("L162", 0): ((1+0j), (1+0j)),
    ("L162", 1): ((1.0101010209279002+1.4940622961455269e-06j), (1.0101010101010102+0j)),
}


@pytest.mark.parametrize("case_v", tuple(_SHIFTED_AT_101), ids=lambda cv: f"{cv[0]}-v{cv[1]}")
def test_shifted_values_are_frozen(case_v):
    betas = tuple(1j * math.pi * k * 1e-3 for k in (1, 2, 3))
    case, v = case_v
    lhs, rhs, gap = check_local_identity(case, LocalFactorParams(u=1.0 / 101, v=v, betas=betas))
    ref_lhs, ref_rhs = _SHIFTED_AT_101[case_v]
    assert abs(lhs - ref_lhs) <= 1e-13 * abs(ref_lhs)
    assert abs(rhs - ref_rhs) <= 1e-13 * abs(ref_rhs)
    assert gap == abs(lhs - rhs)


def _double_loop_lhs(case, p, v, betas):
    """The case's left side from its bracket summed term by term over the whole series."""
    k, open_tail, mobius, prefactor, lam, _ = eulerprod._CASES[case]
    n, u = eulerprod._SERIES_LEN, 1.0 / p
    # (1 - x) prod_j sum_r (p^-beta_j x)^r, truncated to n terms
    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    for bj in betas[:k]:
        c = np.convolve(c, (p ** -bj) ** np.arange(n))[:n]
    c = (c - np.concatenate(([0j], c[:-1]))).tolist()
    if k == 3:
        wt, mob, w = u ** (1.0 - betas[0]), u ** betas[0] / (1.0 - u), v * u
    else:
        wt, mob, w = v * u, v / (1.0 - u), u

    def bracket(with_mobius):
        total = 0j
        for i in range(1, n):
            x = sum(c[i + e] * wt**e for e in range(n - i)) if open_tail else c[i]
            if with_mobius:
                x -= mob * c[i - 1]
            total += w**i * x
        return 1.0 + lam(u, v, betas) * total

    if prefactor is None:  # L162
        return bracket(False) / bracket(True)
    return prefactor(u, v, betas) * bracket(mobius)


_SHIFT_SETS = (
    (0.01 + 0.02j, -0.015 + 0.003j, 0.007 - 0.011j),
    tuple(1j * math.pi * k * 1e-3 for k in (1, 2, 3)),
)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_coeffs_invert_the_denominator(k):
    # c * prod_{j<=k} (1 - p^{-beta_j} x) = 1 - x, to rounding on the scale of c
    for p in (2, 3, 1009):
        for betas in (ZERO,) + _SHIFT_SETS:
            c = eulerprod._coeffs(k, betas, float(p))
            denom = np.ones(1)
            for b in betas[:k]:
                denom = np.convolve(denom, [1.0, -(p ** -b)])
            out = np.convolve(c, denom)[: eulerprod._SERIES_LEN]
            out[:2] -= (1.0, -1.0)
            assert np.abs(out).max() <= 1e-14 * np.abs(c).max(), (k, p, betas)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_coeffs_at_zero_shift_are_binomials(k):
    # (1 - x) / (1 - x)^k = (1 - x)^{1-k}: c_m = C(m + k - 2, k - 2), and 0^m for k = 1
    ms = range(eulerprod._SERIES_LEN)
    expect = [math.comb(m + k - 2, k - 2) if k > 1 else int(m == 0) for m in ms]
    assert eulerprod._coeffs(k, ZERO, 7.0).tolist() == expect


@pytest.mark.parametrize("case", IDENTITY_CASES)
def test_bracket_matches_the_double_loop(case):
    # p = 2 is the slowest-decaying series
    for p in (2, 3):
        for v in (-1, 0, 1):
            for betas in _SHIFT_SETS:
                params = LocalFactorParams(u=1.0 / p, v=v, betas=betas)
                if (case, v) == ("A6", 0) or (case, v, p) == ("L162", 1, 2):
                    with pytest.raises(DomainError):
                        check_local_identity(case, params)
                    continue
                lhs = check_local_identity(case, params)[0]
                ref = _double_loop_lhs(case, p, v, betas)
                # an absolute floor where a v = 1 bracket cancels to |lhs| < 1:
                # 0.0044 for A3 at p = 2, where both sides are 1e-16 from exact
                assert abs(lhs - ref) <= 1e-14 * max(abs(ref), 1.0), (case, p, v, betas, lhs, ref)


def test_cached_series_keep_shifts_apart():
    # one u, two shift sets: the cached series and weights give each its own value
    u, p = 1.0 / 101, 101
    for case in ("A1", "A3", "L152", "L161"):
        values = {}
        for betas in _SHIFT_SETS + _SHIFT_SETS[:1]:
            lhs = check_local_identity(case, LocalFactorParams(u=u, v=1, betas=betas))[0]
            ref = _double_loop_lhs(case, p, 1, betas)
            assert abs(lhs - ref) <= 1e-14 * abs(ref), (case, betas)
            assert values.setdefault(betas, lhs) == lhs
        assert values[_SHIFT_SETS[0]] != values[_SHIFT_SETS[1]], case


def test_local_identities_do_not_depend_on_call_order():
    # an equal float and complex weight, or an equal ratio from another prime,
    # must not hand one call's cached arrays to another with different bits
    calls = [
        (case, LocalFactorParams(1.0 / p, v, betas))
        for betas in (ZERO,) + _SHIFT_SETS
        for case in IDENTITY_CASES
        for p in (2, 3, 5, 7, 1009)
        for v in (-1, 0, 1)
        if (case, v) != ("A6", 0) and (case, v, p) != ("L162", 1, 2)
    ]

    def bits(result):
        return [x.hex() for z in result[:2] for x in (z.real, z.imag)] + [result[2].hex()]

    alone = []
    for call in calls:
        eulerprod._series.cache_clear()
        eulerprod._weights.cache_clear()
        alone.append(bits(check_local_identity(*call)))
    assert [bits(check_local_identity(*call)) for call in calls] == alone
    assert [bits(check_local_identity(*call)) for call in calls[::-1]] == alone[::-1]


def test_cached_series_and_weights_are_read_only():
    for arr in (eulerprod._coeffs(3, _SHIFT_SETS[0], 7.0), *eulerprod._weights(0.5, 0.25 + 0j)):
        with pytest.raises(ValueError):
            arr[3] = 1.0


def test_cap_pi_basics():
    chi = real_primitive_character(3)
    assert cap_pi(1, 1, chi) == 1.0
    # multiplicative over disjoint prime supports
    a = cap_pi(2, 1, chi) * cap_pi(5, 1, chi)
    assert abs(cap_pi(10, 1, chi) - a) < 1e-14
    with pytest.raises(DomainError):
        cap_pi(0, 1, chi)
    assert cap_pi(3, 1, chi) > 0
