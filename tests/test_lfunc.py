"""Line values, the completed-equation rotation, zero scanning, and weights."""

import cmath
import csv
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import smoothing
from conftest import ORACLE_DIR, scan_alpha_hat
from lfverify import lfunc
from lfverify.characters import (
    DirichletCharacter,
    character_group,
    frak_a,
    primitive_characters,
    real_primitive_character,
)
from lfverify.lfunc import (
    BranchError,
    CriticalZero,
    ScanResult,
    _log_gamma,
    c_star,
    export_zeros_csv,
    find_zeros,
    gauss_sum,
    hurwitz_zeta,
    l_function,
    l_function_ds,
    m_function,
    vartheta,
    z_factor,
)
from lfverify.numerics import ConvergenceError, DomainError
from smoothing import WeightParams, delta_fn, delta_mellin, g_weight, omega_weight

CATALAN = 0.915965594177219015054603514932384110774


def test_hurwitz_classical_values():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0) < 1e-12
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    s = 2.5 + 1.3j
    lhs = hurwitz_zeta(s, 0.5)
    rhs = (2.0**s - 1.0) * hurwitz_zeta(s, 1.0)
    assert abs(lhs - rhs) < 1e-11


def test_l_function_classical_values():
    chi4 = real_primitive_character(4)
    chi3 = real_primitive_character(3)
    assert abs(l_function(2.0, chi4) - CATALAN) < 1e-12
    assert abs(l_function(1.0, chi4) - math.pi / 4.0) < 1e-12
    assert abs(l_function(1.0, chi3) - math.pi / (3.0 * math.sqrt(3.0))) < 1e-12


def test_l_function_derivative_matches_difference_quotient():
    chi = real_primitive_character(3)
    s = 1.0
    h = 1e-6
    numeric = (l_function(s + h, chi) - l_function(s - h, chi)) / (2.0 * h)
    assert abs(l_function_ds(s, chi) - numeric) < 1e-8


def test_bernoulli_tables_are_exact():
    # B_0 .. B_80 from sum_{j<=m} C(m+1, j) B_j = 0, in exact fractions
    b = [Fraction(1)]
    for m in range(1, 81):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    exact = [b[2 * k] for k in range(1, 41)]
    assert [Fraction(n, d) for n, d in lfunc._BERNOULLI] == exact
    # each tail coefficient is B_2k / (2k)! correctly rounded
    coeffs = [float(v / math.factorial(2 * k)) for k, v in enumerate(exact, 1)]
    assert list(lfunc._EM_COEFFS) == coeffs
    # the Stirling and digamma series keep their rounding from B_2k as doubles
    low = [float(v) for v in exact[:8]]
    assert lfunc._STIRLING == tuple(v / ((2 * k + 2) * (2 * k + 1)) for k, v in enumerate(low))
    assert lfunc._DIGAMMA == tuple(v / (2 * k + 2) for k, v in enumerate(low))


def _em_bound(s_abs, sigma, n, m):
    """Johansson's remainder bound after m tail terms at w = n, for |s| <= s_abs, in mpmath."""
    e = sigma + 2 * m - 1
    poch = mpmath.rf(s_abs, 2 * m)
    return 4 * poch * mpmath.mpf(n) ** (1 - sigma - 2 * m) / ((2 * mpmath.pi) ** (2 * m) * e)


@pytest.mark.parametrize("sigma", (-1.0, -0.8, 0.0, 0.3, 0.5, 1.0, 3.7))
def test_em_shift_is_the_least_that_meets_the_target(sigma):
    with mpmath.workdps(30):
        for t in np.append(np.linspace(0.0, 1000.0, 41), (0.02, 999.9)):
            # the kernel passes the largest |s| rounded up, at least 1
            s_abs = max(1, math.ceil(abs(complex(sigma, t))))
            n, m, *_ = lfunc._em_shift(s_abs, sigma)
            orders = [k for k in range(1, 41) if sigma + 2 * k - 1 > 0]
            assert n >= 10 and m in orders
            assert _em_bound(s_abs, sigma, n, m) <= lfunc._EM_TARGET, (t, n, m)
            assert all(_em_bound(s_abs, sigma, n, k) > lfunc._EM_TARGET for k in orders if k < m)
            if n > 10:
                assert all(_em_bound(s_abs, sigma, n - 1, k) > lfunc._EM_TARGET for k in orders)


@pytest.mark.parametrize("q", (5, 7, 11))
def test_line_values_match_mpmath_high_on_the_line(q):
    # high on the line the shift is the smallest fraction of t (0.27 at
    # t = 1000); the frozen special-value oracle stops at t = 99.5 and has
    # no L' on the line
    chi = primitive_characters(q)[0]
    table = [chi(n) for n in range(q)]
    for t in (250.0, 500.0, 999.9):
        s = complex(0.5, t)
        with mpmath.workdps(20):
            ref = [complex(mpmath.dirichlet(mpmath.mpc(0.5, t), table, k)) for k in (0, 1)]
        for fn, r in zip((l_function, l_function_ds), ref):
            assert abs(fn(s, chi) - r) <= 1e-11 * abs(r), (t, fn.__name__)


def test_hurwitz_domain_and_poles():
    for a in (0.0, 1.5):
        with pytest.raises(DomainError, match="a must"):
            hurwitz_zeta(2.0, a)
    with pytest.raises(DomainError, match="pole"):
        hurwitz_zeta(1.0, 0.5)
    for fn in (l_function, l_function_ds):
        with pytest.raises(DomainError, match="pole"):
            fn(1.0, character_group(4)[0])


# value tables of the characters in tests/oracles/special_values.py, index n mod q
_ORACLE_TABLES = {
    "chi3": (0, 1, -1),
    "chi4": (0, 1, 0, -1),
    "chi5": (0, 1, -1, -1, 1),
    "chi8": (0, 1, 0, -1, 0, -1, 0, 1),
    "chi5c": (0, 1, 1j, -1j, -1),
}


def _oracle_chi(name):
    table = _ORACLE_TABLES[name]
    (chi,) = [
        c
        for c in primitive_characters(len(table))
        if all(abs(c(n) - v) < 1e-12 for n, v in enumerate(table))
    ]
    return chi


_SPECIAL_VALUES = {
    "zeta(2,1)": lambda: hurwitz_zeta(2.0, 1.0),
    "zeta(2,0.5)": lambda: hurwitz_zeta(2.0, 0.5),
    "zeta((0.5 + 3.0j),0.33333333)": lambda: hurwitz_zeta(0.5 + 3j, 1.0 / 3.0),
    "zeta((-1.0 + 7.0j),0.25)": lambda: hurwitz_zeta(-1.0 + 7j, 0.25),
    "zeta(3.7,0.9)": lambda: hurwitz_zeta(3.7, 0.9),
    "zeta((0.5 + 100.0j),0.3)": lambda: hurwitz_zeta(0.5 + 100j, 0.3),
    "zeta((0.5 + 1000.0j),1.0)": lambda: hurwitz_zeta(0.5 + 1000j, 1.0),
    "zeta((-0.8 + 41.5j),0.6)": lambda: hurwitz_zeta(-0.8 + 41.5j, 0.6),
    "L(2,chi4)": lambda: l_function(2.0, _oracle_chi("chi4")),
    "L(1,chi3)": lambda: l_function(1.0, _oracle_chi("chi3")),
    "L(1,chi4)": lambda: l_function(1.0, _oracle_chi("chi4")),
    "L(3,chi4)": lambda: l_function(3.0, _oracle_chi("chi4")),
    "L(1,chi5)": lambda: l_function(1.0, _oracle_chi("chi5")),
    "L(1,chi8)": lambda: l_function(1.0, _oracle_chi("chi8")),
    "L(0.5,chi5)": lambda: l_function(0.5, _oracle_chi("chi5")),
    "L(0.3+2i,chi5c)": lambda: l_function(0.3 + 2j, _oracle_chi("chi5c")),
    "L(0.5+10i,chi3)": lambda: l_function(0.5 + 10j, _oracle_chi("chi3")),
    "L(0.5+50i,chi4)": lambda: l_function(0.5 + 50j, _oracle_chi("chi4")),
    "L(0.5+99.5i,chi5)": lambda: l_function(0.5 + 99.5j, _oracle_chi("chi5")),
    "L(-1+20i,chi3)": lambda: l_function(-1.0 + 20j, _oracle_chi("chi3")),
    "L(2,chi5c)": lambda: l_function(2.0, _oracle_chi("chi5c")),
    "L'(1,chi3)": lambda: l_function_ds(1.0, _oracle_chi("chi3")),
    "L'(1,chi4)": lambda: l_function_ds(1.0, _oracle_chi("chi4")),
    "L'(1,chi5)": lambda: l_function_ds(1.0, _oracle_chi("chi5")),
    "L'(1,chi8)": lambda: l_function_ds(1.0, _oracle_chi("chi8")),
    "L'(0.5,chi3)": lambda: l_function_ds(0.5, _oracle_chi("chi3")),
    "weight_const(chi3)": lambda: frak_a(_oracle_chi("chi3")),
    "weight_const(chi4)": lambda: frak_a(_oracle_chi("chi4")),
    "weight_const(chi5)": lambda: frak_a(_oracle_chi("chi5")),
    "weight_const(chi8)": lambda: frak_a(_oracle_chi("chi8")),
    "loggamma((0.5 + 3.0j))": lambda: complex(_log_gamma(0.5 + 3j)[0]),
    "loggamma((10.0 - 5.0j))": lambda: complex(_log_gamma(10.0 - 5j)[0]),
    "loggamma(0.1)": lambda: complex(_log_gamma(0.1)[0]),
    "loggamma((-5.5 + 0.0j))": lambda: complex(_log_gamma(-5.5 + 0j)[0]),
    "loggamma((40.0 + 1000.0j))": lambda: complex(_log_gamma(40.0 + 1000j)[0]),
    "loggamma((2.5 - 700.0j))": lambda: complex(_log_gamma(2.5 - 700j)[0]),
    "vartheta((0.3 + 2.0j))": lambda: vartheta(0.3 + 2j),
    "vartheta((0.5 + 3.0j))": lambda: vartheta(0.5 + 3j),
    "vartheta((-0.7 + 11.0j))": lambda: vartheta(-0.7 + 11j),
}


@pytest.fixture(scope="module")
def special_values():
    """The frozen mpmath values of tests/oracles/special_values.out by label."""
    out = {}
    for line in (ORACLE_DIR / "special_values.out").read_text().splitlines():
        if " = " in line:
            label, value = line.split(" = ")
            out[label] = complex(value.replace(" ", ""))
    return out


@pytest.mark.parametrize("label", tuple(_SPECIAL_VALUES))
def test_special_values_oracle(label, special_values):
    ref = special_values[label]
    assert abs(_SPECIAL_VALUES[label]() - ref) <= 1e-12 * abs(ref)


_LINE_TS = (0.02, 1.0, 19.9, 20.1, 100.0, 999.9)


@pytest.mark.parametrize("h", (0.25, 0.75))
def test_log_gamma_phase_on_the_line(h):
    # |h + it/2| crosses 10 between t = 19.9 and 20.1, where a value stops
    # being shifted, alone or in an array
    with mpmath.workdps(30):
        ref = [float(mpmath.loggamma(mpmath.mpc(h, t / 2)).imag) for t in _LINE_TS]
    alone = [float(_log_gamma(h + 0.5j * t)[0].imag) for t in _LINE_TS]
    together = _log_gamma(h + 0.5j * np.array(_LINE_TS))[0].imag
    assert np.max(np.abs(np.array(alone) - ref)) <= 1e-12
    assert np.max(np.abs(together - ref)) <= 1e-12


@pytest.mark.parametrize("h", (0.25, 0.75))
def test_log_gamma_shifts_only_the_small_elements(h):
    # the line from t = 0 to 100 mixes shifted (|z| < 10) and unshifted
    # elements; each part must come out as if evaluated apart, bit for bit
    z = h + 0.5j * np.linspace(0.0, 100.0, 4001)
    small = np.abs(z) < 10.0
    assert 0 < small.sum() < len(z)
    got = _log_gamma(z)[0]
    assert np.array_equal(got[small], _log_gamma(z[small])[0])
    assert np.array_equal(got[~small], _log_gamma(z[~small])[0])
    assert _log_gamma(h + 3j).shape == (1,)


@pytest.mark.parametrize("ds", (False, True))
def test_log_gamma_skips_the_mask_only_where_nothing_shifts(ds):
    # re z >= 0 and |im z| >= 10 leave the mask of shifted elements empty; the
    # appended 0.75 + 1j shifts the batch, which must change none of their bits
    t = np.linspace(20.0, 1000.0, 2001)
    edges = np.array([10j, -10j, 50j, -50j, 7.0 + 10j, 7.0 - 10j, 0.25 + 10j, 0.75 - 10j])
    for z in ((0.5 + 0.0) / 2 + 0.5j * t, (0.5 + 1.0) / 2 + 0.5j * t, edges):
        assert z.real.min() >= 0.0 and np.abs(z.imag).min() >= 10.0
        masked = _log_gamma(np.append(z, 0.75 + 1j), ds)[:, :-1]
        assert _log_gamma(z, ds).tobytes() == masked.tobytes()


# small |z| (shifted), the Stirling region just past |z| = 10 unshifted, and
# re z < 0 with |z| >= 10, which must be shifted off the cut; then |im z| >= 10:
# re z >= 0 on the edge |z| = |im z| = 10 and beyond (unshifted), and re z < 0
# (shifted, by as much as 50 at -40 - 15j)
_LOG_GAMMA_POINTS = (
    (0.3 + 0.2j, 10.5, 0.25 + 10.1j, -10.5 + 3j, -0.3 - 12j, -30.2 - 0.5j)
    + (10j, -10j, 50j, -50j, 7 + 10j, 7 - 10j, 0.25 + 10j, 0.75 - 10j)
    + (-0.3 + 12j, -5 + 20j, -40 - 15j, -0.5 + 1000j, -2.5 - 700j)
)


def test_log_gamma_matches_mpmath():
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(z)) for z in _LOG_GAMMA_POINTS])
    alone = np.array([complex(_log_gamma(z)[0]) for z in _LOG_GAMMA_POINTS])
    together = _log_gamma(np.array(_LOG_GAMMA_POINTS))[0]
    assert np.max(np.abs(alone - ref) / np.abs(ref)) <= 1e-14
    assert np.max(np.abs(together - ref) / np.abs(ref)) <= 1e-14


def test_digamma_matches_mpmath():
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.digamma(z)) for z in _LOG_GAMMA_POINTS])
    alone = np.array([complex(_log_gamma(z, ds=True)[1]) for z in _LOG_GAMMA_POINTS])
    together = _log_gamma(np.array(_LOG_GAMMA_POINTS), ds=True)[1]
    assert np.max(np.abs(alone - ref) / np.abs(ref)) <= 1e-14
    assert np.max(np.abs(together - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("h", (0.25, 0.75))
def test_digamma_shifts_only_the_small_elements(h):
    # as for log Gamma: each part of a mixed array comes out as if alone
    z = h + 0.5j * np.linspace(0.0, 100.0, 4001)
    small = np.abs(z) < 10.0
    got = _log_gamma(z, ds=True)[1]
    assert np.array_equal(got[small], _log_gamma(z[small], ds=True)[1])
    assert np.array_equal(got[~small], _log_gamma(z[~small], ds=True)[1])
    assert _log_gamma(h + 3j, ds=True).shape == (2,)


def _mp_m_prime(chi, t):
    """-i dM/dt of the rotated line value by mpmath's numerical derivative."""
    q = chi.modulus
    table = [chi(n) for n in range(q)]
    eps, a = lfunc._root_number(chi)
    h = (0.5 + a) / 2
    with mpmath.workdps(30):

        def m(x):
            theta = (
                cmath.phase(eps)
                + x * mpmath.log(mpmath.pi / q)
                - 2 * mpmath.loggamma(mpmath.mpc(h, x / 2)).imag
            )
            return mpmath.exp(-0.5j * theta) * mpmath.dirichlet(mpmath.mpc(0.5, x), table)

        return complex(-1j * mpmath.diff(m, mpmath.mpf(t)))


# (q, index in primitive_characters(q), a zero); the last is where a central
# difference quotient of M left a triple-product residue above 1e-6
_M_PRIME_ZEROS = ((4, 0, 6.020948904157), (5, 1, 14.0), (5, 0, 454.66907476856))


@pytest.mark.parametrize("q, index, gamma", _M_PRIME_ZEROS)
def test_m_prime_matches_mpmath_derivative(q, index, gamma):
    chi = primitive_characters(q)[index]
    ref = _mp_m_prime(chi, gamma)
    got = complex(lfunc._m_line(chi, np.array([gamma]), ds=True)[1][0])
    assert abs(got - ref) <= 1e-11 * abs(ref)


def test_c_star_at_a_high_zero():
    # alpha_hat is the reference gap of `zeros --modulus 5 --t-max 1000`
    chi = primitive_characters(5)[0]
    val = c_star(chi, np.array([454.66907476856]), 0.5502503708976213)[0][0]
    assert abs(val - 53.5582) < 1e-4


_NEAR_ONE = (0.999, 1.0011, 1.005, 0.9905, 0.995 + 0.003j, 1.0 + 0.0099j, 0.9899, 1.0101, 1.02)


@pytest.mark.parametrize("name", ("chi3", "chi4", "chi5", "chi8", "chi5c"))
def test_l_function_near_s_one(name):
    # the mpmath side sums the exact integer table, so its poles cancel
    chi, table = _oracle_chi(name), _ORACLE_TABLES[name]
    with mpmath.workdps(30):
        for s in _NEAR_ONE:
            for fn, order in ((l_function, 0), (l_function_ds, 1)):
                ref = complex(mpmath.dirichlet(mpmath.mpmathify(s), table, order))
                assert abs(fn(s, chi) - ref) <= 1e-12 * abs(ref), (s, order)


@pytest.mark.parametrize("q", (4, 5))
def test_l_prime_at_non_positive_integers(q):
    # the kernel's Pochhammer rows vanish at s = 0, -1, -2; q = 4 is odd and
    # q = 5 even; 1e-9 is the hurwitz_zeta error on the negative axis
    chi = real_primitive_character(q)
    table = [chi(n) for n in range(q)]
    for s in (0, -1, -2):
        got = l_function_ds(s, chi)
        with mpmath.workdps(30):
            ref = complex(mpmath.diff(lambda z: mpmath.dirichlet(z, table), s))
        assert cmath.isfinite(got) and abs(got - ref) <= 1e-9 * abs(ref), (s, got, ref)


def test_vartheta_reflects_zeta():
    s = 0.4 + 2.0j
    lhs = hurwitz_zeta(s, 1.0)
    rhs = vartheta(s) * hurwitz_zeta(1.0 - s, 1.0)
    assert abs(lhs - rhs) < 1e-10
    with pytest.raises(DomainError):
        vartheta(2.0)


def test_gauss_sum_reexport():
    chi = real_primitive_character(5)
    from lfverify import characters

    assert gauss_sum(chi) == characters.gauss_sum(chi)


def test_z_factor_reflects_l_values():
    for q in (3, 5, 7):
        for chi in primitive_characters(q):
            s = 0.3 + 1.7j
            lhs = l_function(s, chi)
            rhs = z_factor(s, chi) * l_function(1.0 - s, chi.conjugate())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_z_factor_unimodular_on_line():
    for q in (3, 4, 5, 8):
        for chi in primitive_characters(q):
            for t in (0.5, 2.0, 9.25):
                assert abs(abs(z_factor(0.5 + 1j * t, chi)) - 1.0) < 1e-12


def test_z_factor_guards():
    with pytest.raises(DomainError):
        z_factor(0.5, character_group(6)[0])


def test_m_function_real_and_modulus_preserving():
    chi = real_primitive_character(4)
    for t in (0.7, 3.1, 14.2):
        m = m_function(t, chi)
        assert isinstance(m, float)
        assert abs(abs(m) - abs(l_function(0.5 + 1j * t, chi))) < 1e-10
    with pytest.raises(DomainError):
        m_function(-1.0, chi)
    with pytest.raises(DomainError):
        m_function(0.0, chi)


def test_m_function_needs_primitive():
    with pytest.raises(DomainError):
        m_function(1.0, character_group(4)[0])


def test_critical_zero_validation():
    CriticalZero(10.0, 1e-9)
    with pytest.raises(DomainError):
        CriticalZero(10.0, 1e-6)
    with pytest.raises(DomainError):
        CriticalZero(-1.0, 1e-9)


def test_scan_result_is_a_sequence():
    zs = (CriticalZero(1.0, 1e-9), CriticalZero(2.0, 1e-9))
    scan = ScanResult(zs)
    assert len(scan) == 2
    assert scan[1].gamma == 2.0
    assert [z.gamma for z in scan] == [1.0, 2.0]
    assert scan.flagged == ()


def test_find_zeros_mod4_segment():
    chi = real_primitive_character(4)
    scan = find_zeros(chi, 5.0, 14.0)
    assert len(scan) == 3
    expected = (6.020948904157, 10.243770304322, 12.988098012805)
    for z, e in zip(scan, expected):
        assert abs(z.gamma - e) < 2e-9
        assert z.radius < 1e-8
    assert scan.flagged == ()


@pytest.mark.parametrize("q", (5, 7))
def test_find_zeros_brackets_a_sign_change_wherever_the_scan_starts(q):
    # starts of both anchor signs, plus a window longer than one panel so a
    # stitch is crossed; each zero must straddle a sign change of m_function
    for chi in primitive_characters(q):
        for t_min, t_max in ((7.0, 22.0), (13.0, 28.0), (31.0, 46.0), (7.0, 100.0)):
            scan = find_zeros(chi, t_min, t_max)
            assert scan.panels == (2 if t_max - t_min > 80 else 1)
            for z in scan:
                lo = m_function(z.gamma - z.radius, chi)
                hi = m_function(z.gamma + z.radius, chi)
                assert lo * hi <= 0, (q, t_min, z.gamma)


@pytest.mark.parametrize("q", (5, 7))
def test_find_zeros_window_agrees_with_scan_from_origin(q):
    for chi in primitive_characters(q):
        window = [z.gamma for z in find_zeros(chi, 7.0, 22.0)]
        whole = [z.gamma for z in find_zeros(chi, 0.02, 22.0) if z.gamma >= 7.0]
        assert len(window) == len(whole) > 0
        for g, h in zip(window, whole):
            assert abs(g - h) < 2e-9


def test_find_zeros_unchanged_by_many_panel_seams(monkeypatch):
    # 37-point panels put 83 seams on [0.02, 60]; the zeros, their count and
    # the flags must not depend on where the seams fall
    for q in (5, 7, 11):
        for chi in primitive_characters(q)[:2]:
            coarse = find_zeros(chi, 0.02, 60.0)
            with monkeypatch.context() as m:
                m.setattr(lfunc, "_PANEL_POINTS", 37)
                fine = find_zeros(chi, 0.02, 60.0)
            assert (coarse.panels, fine.panels) == (1, 84)
            assert len(fine) == len(coarse) > 0
            assert fine.flagged == coarse.flagged
            for z, w in zip(fine, coarse):
                assert abs(z.gamma - w.gamma) < 2e-9


def test_find_zeros_brackets_are_certified(full_scans):
    # both ends of every bracket, evaluated afresh, carry opposite signs at
    # magnitudes well above the rounding noise of the line values
    for q, chi, scan in full_scans:
        # the scan's grid, whose median |value| sets the floor
        grid = np.append(0.01 + 0.02 * np.arange(5000), 100.0)
        scale = float(np.median(np.abs(lfunc._m_raw_line(chi, grid))))
        gammas = np.array([z.gamma for z in scan])
        radii = np.array([z.radius for z in scan])
        assert (radii < 1e-9).all()
        lo = lfunc._m_raw_line(chi, gammas - radii)
        hi = lfunc._m_raw_line(chi, gammas + radii)
        assert (np.sign(lo) == -np.sign(hi)).all(), q
        assert min(np.abs(lo).min(), np.abs(hi).min()) >= 1e-12 * scale, q


def _refinement_calls_per_panel(monkeypatch, chi, t_max):
    """(scan, refinement line calls per panel) of ``find_zeros(chi, 0.02, t_max)``."""
    steps = []
    line = lfunc._m_raw_line

    def counted(psi, t, step=None):
        if step is None:
            steps.append(float(np.median(t)))
        return line(psi, t, step)

    monkeypatch.setattr(lfunc, "_m_raw_line", counted)
    scan = find_zeros(chi, 0.02, t_max)
    width = (lfunc._PANEL_POINTS - 1) * 0.02
    # each batched step evaluates the brackets of one panel
    return scan, np.bincount(((np.array(steps) - 0.02) // width).astype(int))


def test_refinement_closes_in_few_steps_per_panel(monkeypatch):
    # each start, the root of the 10-point grid interpolant, lies within the
    # closing radius of its zero, so every panel of a character and of its
    # conjugate closes in one line call
    for index in (0, 2):
        with monkeypatch.context() as m:
            scan, per_panel = _refinement_calls_per_panel(m, primitive_characters(5)[index], 200.0)
        assert scan.panels == len(per_panel) == 3
        assert (per_panel == 1).all(), index


def test_refinement_closes_in_few_steps_per_panel_to_t_1000(monkeypatch):
    for index in (0, 2):
        with monkeypatch.context() as m:
            scan, per_panel = _refinement_calls_per_panel(m, primitive_characters(5)[index], 1000.0)
        assert scan.panels == len(per_panel) == 13
        assert (per_panel == 1).all(), index


def test_refinement_takes_one_call_on_sampled_wide_windows(monkeypatch):
    # one 10-unit window of (0, 100] per primitive character of modulus 3..12,
    # the windows taken in turn: a window with zeros refines them in one call
    edges = (0.02,) + tuple(10.0 * k for k in range(1, 11))
    chars = [chi for q in (3, 4, 5, 7, 8, 9, 11, 12) for chi in primitive_characters(q)]
    calls = []
    line = lfunc._m_raw_line
    monkeypatch.setattr(
        lfunc, "_m_raw_line", lambda psi, t, step=None: calls.append(step) or line(psi, t, step)
    )
    for k, chi in enumerate(chars):
        calls.clear()
        scan = find_zeros(chi, edges[k % 10], edges[k % 10 + 1])
        assert len(scan) > 0
        assert calls.count(None) == 1, (chi.modulus, k)


def test_find_zeros_on_a_window_without_zeros():
    # no bracket reaches the refinement, which must evaluate nothing
    scan = find_zeros(real_primitive_character(4), 1.0, 5.0)
    assert len(scan) == 0
    assert (scan.flagged, scan.panels) == ((), 1)


def test_refinement_falls_back_when_the_cubic_start_misses(monkeypatch):
    # the polynomial through the 10 grid values around this steep step misses
    # its zero by about 1.1e-4, far beyond the probe radius, so the first pair
    # falls on one side and the bracket must close by further pairs around
    # cubic roots
    def line(psi, t, step=None):
        if step is None:
            calls.append(len(t))
        return np.tanh(40.0 * (t - 5.005)) * (1 + t)

    calls = []
    monkeypatch.setattr(lfunc, "_m_raw_line", line)
    # the scan's grid points 46..55 on [4, 6], around the bracket [5.0, 5.02]
    grid = (4.0 + 0.02 * np.arange(46, 56))[None]
    lo, hi = grid[:, 4], grid[:, 5]
    start = lfunc._cubic_root(grid, line(None, grid), lo, hi, line(None, lo), line(None, hi))
    assert abs(start[0] - 5.005) > 10 * lfunc._PROBE_RADIUS
    calls.clear()
    (zero,) = find_zeros(real_primitive_character(4), 4.0, 6.0)
    assert len(calls) > 2
    assert abs(zero.gamma - 5.005) < 1e-12


# (shape, steepness, zero) of synthetic line values whose cubic start misses
# the zero by far more than the probe radius
_STEEP_STEPS = [
    (shape, k, c)
    for shape, k in (("tanh", 5e3), ("tanh", 5e4), ("expm1", 1e3))
    for c in (5.0013, 5.005, 5.0187)
] + [("expm1", 5e3, 5.0187)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape, k, c", _STEEP_STEPS)
def test_refinement_closes_steep_steps(monkeypatch, shape, k, c):
    # a pair that misses doubles its radius until one straddles the zero, so
    # the refinement does not stall one-sided against the step; c >= 5 keeps
    # most of [4.95, 5.05] below the step, so the floor of 1e-12 times the
    # grid's median |value| stays reachable
    def line(psi, t, step=None):
        return np.tanh(k * (t - c)) * (1 + t) if shape == "tanh" else np.expm1(k * (t - c))

    monkeypatch.setattr(lfunc, "_m_raw_line", line)
    (zero,) = find_zeros(real_primitive_character(4), 4.95, 5.05)
    assert abs(zero.gamma - c) <= 5e-10


def _fallback_rows():
    # coincident nodes, a constant interpolant and a root outside the bracket
    t = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]])
    f = np.array([[-1.0, -1.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 4.0, 9.0]])
    lo, hi = np.array([0.0, 0.0, 1.5]), np.array([1.0, 1.0, 2.0])
    return t, f, lo, hi, np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 3.0])


def test_cubic_root_falls_back_to_regula_falsi_without_warnings():
    # each fallback row takes the regula falsi point, and nothing warns
    rows = _fallback_rows()
    lo, hi, flo, fhi = rows[2:]
    assert np.array_equal(lfunc._cubic_root(*rows), (lo * fhi - hi * flo) / (fhi - flo))


@pytest.fixture(scope="module")
def scan_start_rows():
    """The (t, f, lo, hi, flo, fhi) rows of the 130 brackets of the T = 200 scan's start."""
    calls = []
    cubic_root = lfunc._cubic_root

    def spy(*rows):
        calls.append(rows)
        return cubic_root(*rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lfunc, "_cubic_root", spy)
        find_zeros(primitive_characters(5)[0], 0.02, 200)
    return calls[0]


def _random_start_rows(points, n_rows):
    # sorted nodes around a smooth sign change, each bracket between two
    # middle nodes, so some rows converge and some take the regula falsi point
    rng = np.random.default_rng(points)
    t = np.sort(rng.uniform(0.0, 1.0, (n_rows, points)), axis=1)
    k = points // 2 - 1
    root = rng.uniform(t[:, k], t[:, k + 1])[:, None]
    f = np.sin(rng.uniform(1.0, 20.0, (n_rows, 1)) * (t - root)) + rng.normal(0.0, 1e-3, t.shape)
    return t, f, t[:, k], t[:, k + 1], f[:, k], f[:, k + 1]


def _start_cases(kind, scan):
    """Row sets for the root start: the scan's, whole and sliced, random ones, fallbacks."""
    if kind == "scan":
        return [scan]
    if kind == "scan slices":
        # 16-row windows off the 16-row grid, then every 7th row alone
        cases = [tuple(v[i : i + 16] for v in scan) for i in range(3, len(scan[0]), 16)]
        return cases + [tuple(v[i : i + 1] for v in scan) for i in range(0, len(scan[0]), 7)]
    if kind == "fallbacks":
        return [_fallback_rows()]
    points = {"random 10-point": 10, "random 4-point": 4}[kind]
    return [_random_start_rows(points, n) for n in (1, 9, 40)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind", ["scan", "scan slices", "random 10-point", "random 4-point", "fallbacks"]
)
def test_cubic_root_forms_agree_bit_for_bit(scan_start_rows, kind):
    # a scan's starts do not depend on how many brackets its window holds, or
    # in what order: the rows give the same bits whole, in slices of 16, one at
    # a time and reversed
    cases = _start_cases(kind, scan_start_rows)
    for case in cases:
        whole = lfunc._cubic_root(*case)
        for size in (16, 1):
            parts = [
                lfunc._cubic_root(*(v[i : i + size] for v in case))
                for i in range(0, len(whole), size)
            ]
            assert np.concatenate(parts).tobytes() == whole.tobytes()
        reverse = lfunc._cubic_root(*(v[::-1] for v in case))
        assert reverse[::-1].tobytes() == whole.tobytes()
    if kind == "scan":
        assert len(scan_start_rows[0]) == 130
    if kind == "scan slices":
        # each window gives its rows the bits of the scan's 130-row start
        full = lfunc._cubic_root(*scan_start_rows)
        got = [lfunc._cubic_root(*c) for c in cases]
        n = len(cases) - len(full[::7])
        assert np.concatenate(got[:n]).tobytes() == full[3:].tobytes()
        assert np.concatenate(got[n:]).tobytes() == full[::7].tobytes()
    if kind == "fallbacks":
        lo, hi, flo, fhi = cases[0][2:]
        assert np.array_equal(whole, (lo * fhi - hi * flo) / (fhi - flo))


def test_find_zeros_gammas_match_a_fine_secant(full_scans):
    # the secant on [gamma -+ 2e-9] is exact to about 1e-17 for a simple
    # zero, so it measures how far the refined centre is from the zero
    for q, chi, scan in full_scans:
        g = np.array([z.gamma for z in scan])
        a, b = g - 2e-9, g + 2e-9
        fa, fb = lfunc._m_raw_line(chi, a), lfunc._m_raw_line(chi, b)
        assert np.abs((a * fb - b * fa) / (fb - fa) - g).max() < 1e-12, q


def test_refinement_gives_up_after_its_step_cap(monkeypatch):
    chi = real_primitive_character(4)
    with monkeypatch.context() as m:
        # the first pair counts against the cap, and around the steep step's
        # start, 1.1e-4 from its zero, it closes no bracket
        m.setattr(lfunc, "_REFINE_STEPS", 1)
        m.setattr(lfunc, "_m_raw_line", lambda psi, t, step=None: np.tanh(40.0 * (t - 5.005)))
        with pytest.raises(ConvergenceError, match="1 zero bracket"):
            find_zeros(chi, 4.0, 6.0)
    # a triple zero is below the certification floor at every radius the
    # refinement can reach, so it must end at the cap rather than loop
    monkeypatch.setattr(lfunc, "_m_raw_line", lambda psi, t, step=None: (t - 5.01) ** 3)
    with pytest.raises(ConvergenceError, match="1 zero bracket"):
        find_zeros(chi, 4.0, 6.0)


def test_refinement_closes_on_an_exact_grid_zero(monkeypatch):
    # the grid point 4 + 50 * 0.02 is exactly 5.0, where the value is 0.0:
    # the bracket starts there and closes around it without clipping
    monkeypatch.setattr(lfunc, "_m_raw_line", lambda psi, t, step=None: np.tanh(t - 5.0) * (1 + t))
    (zero,) = find_zeros(real_primitive_character(4), 4.0, 6.0)
    assert abs(zero.gamma - 5.0) < 1e-12
    assert zero.radius == 5e-10


def _sign_changes_loop(vals, scale):
    """The per-point scan loop that ``lfunc._sign_changes`` replaced."""
    starts, flos, dips = [], [], []
    for i in range(len(vals) - 1):
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            prev = float(vals[i - 1]) if i > 0 else -fb
            fa = math.copysign(1e-300, prev)
        if fa * fb < 0:
            starts.append(i)
            flos.append(fa)
        elif 0 < i and abs(vals[i]) < 1e-7 * scale and fa * float(vals[i - 1]) > 0:
            dips.append(i)
    return starts, flos, dips


_SIGN_ARRAYS = (
    [],
    [1.0],
    [0.0, 1.0],
    [0.0, -1.0, 2.0],
    [0.0, 0.0, 1.0, -1.0],
    [-0.0, 0.0, -3.0],
    [1.0, 0.0, 0.0, -2.0, 0.0],
    [2.0, 1e-9, 3.0, -1.0, -1e-9, -2.0, 0.0, 4.0],
    [1.0, 1e-9, 0.0, 1e-9, 5.0, -1e-30, 1e-30, 0.0],
    [3.0, -2.0, 1e-8, 1e-8, 0.0, 0.0, -1.0, 0.0],
)


def test_sign_changes_match_the_scan_loop():
    rng = np.random.default_rng(7)
    arrays = [np.array(a, dtype=np.float64) for a in _SIGN_ARRAYS]
    for _ in range(200):
        # runs of exact zeros, dips and sign changes in random mixtures
        a = rng.choice([0.0, -0.0, 1e-9, -1e-9, 1e-310, 2.0, -3.0], size=rng.integers(1, 30))
        arrays.append(a * rng.uniform(0.5, 2.0, size=len(a)))
    for vals in arrays:
        scale = 1.0
        starts, flos, dips = lfunc._sign_changes(vals, scale)
        ref_starts, ref_flos, ref_dips = _sign_changes_loop(vals, scale)
        assert starts.tolist() == ref_starts, vals
        assert flos.tolist() == ref_flos, vals
        assert dips.tolist() == ref_dips, vals


# (start, points) on the scan step 0.02, plus grids that append an off-step
# t_max as find_zeros does: the grid must evaluate that endpoint apart
_GRID_PANELS = tuple(
    0.02 * np.arange(n) + t0 for t0 in (0.02, 7.0, 480.0) for n in (1, 2, 4000, 4001)
) + (
    np.append(0.37 + 0.02 * np.arange(2482), 50.005),
    np.array([7.0, 7.013]),
)


@pytest.mark.parametrize("q", (5, 11))
def test_grid_line_values_match_pointwise(monkeypatch, q):
    chi = primitive_characters(q)[-1]
    # the complex M rows of the grid path's calls: the giant-by-baby call, cut
    # to the grid, and the off-step point's call if there is one
    line, rows = lfunc._m_line, []
    monkeypatch.setattr(lfunc, "_m_line", lambda *args: rows.append(line(*args)) or rows[-1])
    for t in _GRID_PANELS:
        rows.clear()
        real = lfunc._m_raw_line(chi, t, 0.02)
        grid = np.concatenate([rows[0][0, : len(t) + 1 - len(rows)]] + [r[0] for r in rows[1:]])
        assert np.array_equal(grid.real, real)
        pointwise = line(chi, t)[0]
        err = np.abs(grid - pointwise) / np.abs(pointwise).max()
        assert err.max() <= 1e-11, (t[0], len(t), float(err.max()))


# the residues a/q of q = 11, as an L-value mod 11 passes them to the kernel
_RESIDUES = np.arange(1, 12) / 11


# one complex unit weight per residue, as a character mod 11 gives them
_WEIGHTS = np.exp(0.2j * np.pi * np.arange(11))


def _assert_weighted_call_is_one_residue_sum(s, cols=np.zeros(1), **kw):
    """One weighted residue-axis kernel call equals the in-order sum of one-residue calls.

    The sum is built as ``ref += c * one`` over the residues in order, bit for bit.
    """
    total = lfunc._euler_maclaurin(s, cols, _RESIDUES, _WEIGHTS, **kw)
    assert total.shape == (1 + kw.get("ds", False), len(s) * len(cols))
    ref = np.zeros_like(total)
    for a, c in zip(_RESIDUES, _WEIGHTS):
        ref += c * lfunc._euler_maclaurin(s, cols, a, np.ones(1), **kw)
    assert total.tobytes() == ref.tobytes(), (len(s), kw)


@pytest.mark.parametrize("ds", (False, True))
@pytest.mark.parametrize("t", ([900.0], [3.0, 41.5, 899.9], np.linspace(0.5, 900.0, 40)))
def test_residue_axis_rows_match_one_residue_calls(t, ds):
    # at 40 points up to t = 900 the residues span two budget blocks
    _assert_weighted_call_is_one_residue_sum(0.5 + 1j * np.asarray(t), ds=ds)


@pytest.mark.parametrize("t0", (0.02, 480.0))
def test_residue_axis_grid_rows_match_one_residue_calls(t0):
    # a scan panel's giant steps (rows) by its baby steps (columns)
    for n in (501, 4000):
        b = math.isqrt(n - 1) + 1
        t = t0 + b * 0.02 * np.arange(-(-n // b))
        _assert_weighted_call_is_one_residue_sum(0.5 + 1j * t, 0.02 * np.arange(b))
    # 4001 points: the 4000-point giant steps and an off-step row
    t = np.append(t, t[-1] + 0.013)
    _assert_weighted_call_is_one_residue_sum(0.5 + 1j * t, 0.02 * np.arange(b))


@pytest.mark.parametrize("ds", (False, True))
def test_residue_axis_pole_free_rows_match_one_residue_calls(ds):
    for s in ([1.0 - 1e-3], [1.0 + 1e-3], [1.0 - 1e-3, 1.0, 1.0 + 1e-3 + 2e-4j]):
        _assert_weighted_call_is_one_residue_sum(np.array(s, dtype=complex), ds=ds, pole_free=True)


def test_residue_block_budget_leaves_every_bit(monkeypatch):
    chi = primitive_characters(11)[3]
    t = np.linspace(0.5, 900.0, 40)
    # a 4000-point scan panel: 63 giant steps by 64 baby steps
    giant, baby = 480.0 + 1.28 * np.arange(63), 0.02 * np.arange(64)

    def values():
        out = [lfunc._l_values(chi, 0.5 + 1j * t), lfunc._l_values(chi, 0.5 + 1j * t[:1])]
        out += [lfunc._l_values(chi, 0.5 + 1j * giant, baby)]
        out += [lfunc._m_line(chi, t, ds=True), lfunc._m_line(chi, t[-1:], ds=True)]
        out += [lfunc._m_line(chi, t, 0.3 * np.arange(4), ds=True)]
        out += [np.array([l_function(s, chi) for s in (1.0, 1.0005, 0.5 + 10j, 0.3 + 899j)])]
        return [np.asarray(v).tobytes() for v in out]

    default = values()
    # one residue per block, whatever N and K
    monkeypatch.setattr(lfunc, "_BLOCK_ELEMENTS", 1)
    assert values() == default


def test_residue_blocks_keep_to_the_budget(monkeypatch):
    blocks = []
    em_block = lfunc._em_block

    def spy(s, rows, cols, a, n_shift, tail, ds, *args):
        blocks.append((len(a), n_shift, len(rows), len(cols), ds))
        return em_block(s, rows, cols, a, n_shift, tail, ds, *args)

    monkeypatch.setattr(lfunc, "_em_block", spy)
    chi = primitive_characters(101)[5]
    # a refinement-sized call, audit-sized calls and a whole scan panel of 63 x 64
    panel = 0.5 + 1j * (0.02 + 1.28 * np.arange(63)), 0.02 * np.arange(64)
    for call in (
        lambda: lfunc._m_line(chi, np.linspace(500.0, 501.0, 20), ds=True),
        lambda: lfunc._m_line(chi, np.linspace(0.5, 80.0, 400), ds=True),
        lambda: lfunc._m_line(chi, np.linspace(0.5, 80.0, 100), 0.3 * np.arange(4), ds=True),
        lambda: lfunc._l_values(chi, *panel),
    ):
        blocks.clear()
        call()
        assert sum(r for r, *_ in blocks) == 100 and len(blocks) > 1, blocks
        for r, n, i, j, ds in blocks:
            per_residue = n * (i + j) * (1 + ds) + lfunc._BLOCK_ROWS * i * j
            assert r == 1 or r * per_residue <= lfunc._BLOCK_ELEMENTS, (r, n, i, j, ds)


def _assert_call_matches_one_point_calls(chi, rows, cols):
    """An I x J call equals its I J one-point calls within 1e-11 of the largest |value|."""
    got = lfunc._l_values(chi, 0.5 + 1j * rows, cols, ds=True)
    s = (0.5 + 1j * rows[:, None] + 1j * cols).ravel()
    assert got.shape == (2, len(s))
    ref = np.stack([lfunc._l_values(chi, np.array([p]), ds=True)[:, 0] for p in s], axis=1)
    for k in (0, 1):
        err = np.abs(got[k] - ref[k]) / np.abs(ref[k]).max()
        assert err.max() <= 1e-11, (chi.modulus, k, float(err.max()))


@pytest.mark.parametrize(
    "q, t_lo, t_hi, alpha_hat", ((5, 990.0, 999.0, 0.55), (997, 57.0, 59.0, 0.38))
)
def test_audit_shaped_call_matches_one_point_calls(q, t_lo, t_hi, alpha_hat):
    # the audit's shape: a window's zeros by the 4 shifts j alpha_hat
    chi = primitive_characters(q)[-1]
    gammas = np.array([z.gamma for z in find_zeros(chi, t_lo, t_hi)])
    assert len(gammas) >= 2
    _assert_call_matches_one_point_calls(chi, gammas, alpha_hat * np.arange(4))


@pytest.mark.parametrize("q, t", ((5, (3.0, 499.99, 500.01, 999.0)), (997, (59.5,))))
def test_rows_alone_call_matches_one_point_calls(q, t):
    # rows with one zero column, as the refinement and a single point call
    _assert_call_matches_one_point_calls(primitive_characters(q)[-1], np.array(t), np.zeros(1))


def test_audit_sized_call_keeps_to_the_block_budget():
    # 996 residues in blocks, each holding its exponents and its rows of K;
    # 5 MB is 1.25 times the 4 MB budget
    chi = primitive_characters(997)[7]
    s = 0.5 + 1j * np.linspace(20.0, 100.0, 320)
    tracemalloc.start()
    try:
        lfunc._l_values(chi, s, ds=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, peak


def test_find_zeros_validation():
    chi = real_primitive_character(4)
    with pytest.raises(DomainError):
        find_zeros(chi, -1.0, 10.0)
    with pytest.raises(DomainError):
        find_zeros(chi, 5.0, 4.0)
    with pytest.raises(DomainError):
        find_zeros(chi, 1.0, 10.0, step=0.2)
    with pytest.raises(DomainError):
        find_zeros(character_group(4)[0], 1.0, 10.0)


def _no_line(psi, t, step=None):
    raise AssertionError("a refused scan evaluated the line")


@pytest.mark.parametrize("step", (1e-300, 5e-324, 1e-9, 9.99e-6))
def test_find_zeros_refuses_a_grid_past_its_cap(monkeypatch, step):
    # 1e-300 overflowed np.arange and 5e-324 int() of the step count; 1e-9
    # asks for 10^10 points (80 GB) on [1, 11], and 9.99e-6 for 1,001,002:
    # each is refused before a grid is built or a line value taken
    monkeypatch.setattr(lfunc, "_m_raw_line", _no_line)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="more than 1,000,000 steps"):
            find_zeros(real_primitive_character(4), 1.0, 11.0, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_find_zeros_takes_a_grid_at_its_cap(monkeypatch):
    # exactly 10^6 steps of 2^-7; line values of 1 leave no bracket to refine
    monkeypatch.setattr(lfunc, "_m_raw_line", lambda psi, t, step=None: np.ones(len(t)))
    scan = find_zeros(real_primitive_character(4), 1.0, 1.0 + 10**6 * 2**-7, 2**-7)
    assert (len(scan), scan.panels) == (0, 251)


def test_c_star_real_and_guarded(tmp_path):
    chi = real_primitive_character(4)
    scan = find_zeros(chi, 5.0, 14.0)
    alpha = scan_alpha_hat(scan)
    first = np.array([scan[0].gamma])
    val = c_star(chi, first, alpha)[0]
    assert val.dtype == np.float64 and np.isfinite(val).all()
    # nan passed a bare positivity test; inf and 1e300 overflowed the
    # kernel's shift after a RuntimeWarning
    for alpha_hat in (0.0, math.nan, math.inf, 1e300, 1001.0):
        with pytest.raises(DomainError, match="alpha_hat"):
            c_star(chi, first, alpha_hat)
        with pytest.raises(DomainError, match="alpha_hat"):
            export_zeros_csv(str(tmp_path / "zeros.csv"), scan, chi, alpha_hat)


def test_c_star_is_nan_exactly_where_its_one_rule_says(monkeypatch):
    # c* is NaN where |M'| < 1e-10 or where the triple product over M' keeps
    # an imaginary residue above 1e-6, and only there
    chi = primitive_characters(5)[0]
    gammas = np.array([z.gamma for z in find_zeros(chi, 0.02, 60)])
    alpha = 0.5
    honest = c_star(chi, gammas, alpha)[0]
    assert np.isfinite(honest).all()
    line = lfunc._m_line

    def spied(spoil):
        def m_line(theta, t, cols=lfunc._ZERO_COL, ds=False):
            out = line(theta, t, cols, ds)
            spoil(out)
            return out

        return m_line

    # the audit's points are zeros by the 4 shifts: point 4 k is zero k itself;
    # M' and one factor shrunk alike to |M'| = 1e-11 leave the quotient real
    def flat_derivative(out):
        shrink = 1e-11 / abs(out[1, 4 * 5])
        out[1, 4 * 5] *= shrink
        out[0, 4 * 5 + 1] *= shrink

    def turned_factor(out):
        out[0, 4 * 7 + 2] *= cmath.exp(1e-3j)

    for spoil, k in ((flat_derivative, 5), (turned_factor, 7)):
        monkeypatch.setattr(lfunc, "_m_line", spied(spoil))
        ratio, m_abs, residue = c_star(chi, gammas, alpha)
        assert np.isnan(ratio[k])
        assert (np.delete(ratio, k) == np.delete(honest, k)).all()
        flat = spoil is flat_derivative
        assert (m_abs[k] < 1e-10, residue[k] > 1e-6) == (flat, not flat)


def test_find_zeros_rotation_gate_fires():
    # chi(2) scaled by 1 + 1e-6 is no longer a character, so the rotated line
    # value keeps an imaginary part above the gate's 1e-8; at 1 + 1e-9 the
    # residue stays under the gate and the scan finds all 27 zeros: a
    # relative error of 1e-9 in one value passes the gate unseen, so the gate
    # is no error bound on the line values
    chi = primitive_characters(5)[0]

    def scaled(factor):
        values = list(chi.values)
        values[2] *= factor
        return chi._replace(values=tuple(values))

    with pytest.raises(BranchError, match="rotation left imaginary residue 1.8"):
        find_zeros(scaled(1 + 1e-6), 0.02, 60)
    assert len(find_zeros(scaled(1 + 1e-9), 0.02, 60)) == 27


def test_find_zeros_panel_stitch_gate_fires(monkeypatch):
    # 0.02..100 at step 0.02 is two panels sharing one ordinate; moving the
    # second panel's values by 1e-3 must break the stitch
    chi = primitive_characters(5)[0]
    raw = lfunc._m_raw_line
    panels = []

    def second_moved(psi, t, step=None):
        vals = raw(psi, t, step)
        if step is not None:
            panels.append(t[0])
            if len(panels) == 2:
                vals = vals + 1e-3
        return vals

    assert find_zeros(chi, 0.02, 100).panels == 2
    monkeypatch.setattr(lfunc, "_m_raw_line", second_moved)
    with pytest.raises(BranchError, match="panel stitch mismatch"):
        find_zeros(chi, 0.02, 100)
    assert len(panels) == 2


def test_z_factor_refuses_the_gamma_poles():
    # L(s) / L(1 - s) has Gamma((1 - s + a) / 2) / Gamma((s + a) / 2): for the
    # even character mod 5 (a = 0) poles at s = 0 and s = 1, 3, and for the odd
    # one mod 3 (a = 1) at s = 2, 4; s = 2.5 is no pole
    even, odd = real_primitive_character(5), real_primitive_character(3)
    assert (even.parity, odd.parity) == (1, -1)
    for chi, poles in ((even, (0, 1, 3)), (odd, (2, 4))):
        for s in poles:
            with pytest.raises(DomainError, match="Gamma pole"):
                z_factor(s, chi)
    assert cmath.isfinite(z_factor(2.5, even))


def test_log_gamma_refuses_the_poles_and_keeps_its_bits_between_them():
    # Gamma's poles at 0, -1, -2, ... are refused where the shift meets them,
    # alone or in an array; -7.5 between two of them keeps its values bit for bit
    for z in (0.0, -1.0, -7.0, np.array([0.5 + 3j, -7.0]), np.array([[-2.5, -3.0]])):
        for ds in (False, True):
            with pytest.raises(DomainError, match="Gamma pole"):
                _log_gamma(z, ds)
    lg, psi = _log_gamma(-7.5, ds=True)
    assert (lg.real.hex(), lg.imag.hex()) == ("-0x1.0cf1f85b8c9f1p+3", "-0x1.921fb54442d18p+4")
    assert (psi.real.hex(), psi.imag.hex()) == ("0x1.0a406a791b546p+1", "0x0.0p+0")


def test_log_gamma_refuses_a_shift_past_its_limit_before_building_it():
    # at 1e6 + 0.5 the shift N ~ 1e6 took 38 ms and 32 MB in a (points x N) array;
    # every RuntimeWarning is an error here; the largest accepted shift, at
    # -989.5 + i, still matches mpmath, and a pole is still refused as a pole
    chi = primitive_characters(5)[0]
    for fn in (vartheta, lambda s: z_factor(s, chi)):
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="log Gamma shifts at most 1000 steps"):
                fn(1e6 + 0.5)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 1e-3
    z = -989.5 + 1j
    with mpmath.workdps(30):
        ref = complex(mpmath.loggamma(z))
    assert abs(complex(_log_gamma(z)[0]) - ref) <= 1e-14 * abs(ref)
    with pytest.raises(DomainError, match="Gamma pole"):
        vartheta(2.0)


def test_the_kernel_refuses_an_s_it_cannot_sum():
    # at -60 the largest term (N + 1)^(1 - sigma), N = 721,797, overflowed with
    # a RuntimeWarning; at -78 N passed any array size (ValueError), and at -80
    # no order M <= 40 exists (IndexError); on the real axis the last accepted
    # shift is N = 170,897 at -57.88
    chi = real_primitive_character(5)
    for sigma in (-60.0, -78.0, -80.0):
        for s in (sigma, complex(sigma, 3.0)):
            with pytest.raises(DomainError, match="reach"):
                hurwitz_zeta(s, 0.235)
            with pytest.raises(DomainError, match="reach"):
                l_function(s, chi)
    assert lfunc._em_shift(58, -57.88)[:2] == (170897, 40)
    with pytest.raises(DomainError, match="reach"):
        lfunc._em_shift(58, -57.89)
    assert cmath.isfinite(hurwitz_zeta(-57.0, 0.235))


def test_m_line_computes_the_root_number_once(monkeypatch):
    chi = primitive_characters(7)[1]
    calls = []
    root_number = lfunc._root_number
    monkeypatch.setattr(lfunc, "_root_number", lambda theta: calls.append(1) or root_number(theta))
    t = np.array([3.0, 14.5])
    lfunc._m_line(chi, t)
    lfunc._m_line(chi, t, ds=True)
    assert len(calls) == 2


# every by-value table of the line path
_LINE_CACHES = (lfunc._character_table, lfunc._em_shift, lfunc._block_table)


def _line_bytes(chi, t):
    # an L row, M with its derivative, and the scan's grid values, which cross t = 20,
    # where |z| passes 10 in _log_gamma and it stops shifting
    out = (lfunc._l_values(chi, 0.5 + 1j * t), lfunc._m_line(chi, t, ds=True))
    return [v.tobytes() for v in out + (lfunc._m_raw_line(chi, t, 0.02),)]


@pytest.mark.parametrize("q", (5, 7, 11))
def test_line_caches_key_by_value_and_change_no_bit(q):
    t = 18.5 + 0.02 * np.arange(151)
    chis = []
    for chi in primitive_characters(q):
        chis += [chi, chi.conjugate(), DirichletCharacter(**chi._asdict())]
    cold = []
    for chi in chis:
        for cache in _LINE_CACHES:
            cache.cache_clear()
        cold.append(_line_bytes(chi, t))
    # warm: each character, then a copy rebuilt in the loop, so that a freed
    # copy's id comes back for the next, which a cache keyed by identity misses
    for cache in _LINE_CACHES:
        cache.cache_clear()
    for chi, want in zip(chis, cold):
        assert _line_bytes(chi, t) == want
        assert _line_bytes(DirichletCharacter(**chi._asdict()), t) == want
    n_shift, n_terms, *columns = lfunc._em_shift(30, 0.5)
    a, c, _, _ = lfunc._character_table(chis[0])
    cached = [
        a,
        c,
        *columns,
        *(v for v in lfunc._block_table(a.tobytes(), n_shift, n_terms) if isinstance(v, np.ndarray)),
    ]
    for arr in cached:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    for cache in _LINE_CACHES:
        assert 0 < cache.cache_info().maxsize <= lfunc._TABLES


@pytest.mark.parametrize(
    "q, t, step, tables",
    (
        (5, 30.0 + 1e-6 * np.array([-1.0, 1.0]), None, 1),
        (5, 30.0 + 0.02 * np.arange(500), 0.02, 1),
        # one block of 996 residues, over _TABLE_ELEMENTS floats, and then many blocks
        (997, 30.0 + 1e-6 * np.array([-1.0, 1.0]), None, 0),
        (997, 30.0 + 0.02 * np.arange(500), 0.02, 0),
    ),
)
def test_block_tables_are_kept_only_for_a_small_single_block_call(q, t, step, tables):
    chi = real_primitive_character(q)
    lfunc._block_table.cache_clear()
    lfunc._m_raw_line(chi, t, step)
    assert lfunc._block_table.cache_info().currsize == tables


def test_the_rotated_line_refuses_an_imprimitive_character_in_one_place(tmp_path, monkeypatch):
    # the conductor-5 character mod 15 has no root number: c_star rotated its
    # line by one anyway, into c* = NaN, and the table got a blank c*
    chi = next(c for c in character_group(15) if c.conductor == 5)
    assert lfunc._character_table(chi)[3] is None
    gammas = (5.0, 10.0)
    scan = ScanResult(tuple(CriticalZero(g, 1e-9) for g in gammas))
    calls = []
    root_number = lfunc._root_number
    monkeypatch.setattr(lfunc, "_root_number", lambda theta: calls.append(1) or root_number(theta))
    for run in (
        lambda: c_star(chi, np.array(gammas), 0.3),
        lambda: export_zeros_csv(str(tmp_path / "z.csv"), scan, chi, 0.3),
        lambda: m_function(3.0, chi),
        lambda: find_zeros(chi, 1.0, 10.0),
        lambda: z_factor(0.3, chi),
    ):
        with pytest.raises(DomainError, match="primitive"):
            run()
    assert len(calls) == 5 and not (tmp_path / "z.csv").exists()
    # L alone needs no functional equation
    assert cmath.isfinite(l_function(2.0, chi))


def test_a_non_finite_argument_is_refused_before_any_arithmetic():
    # the kernel's shift raised ValueError at nan and OverflowError at inf, and
    # m_function(nan) warned first; vartheta's and z_factor's pole guards raised
    # OverflowError in int() at inf, and elsewhere both returned nan after a
    # RuntimeWarning, where _log_gamma refuses; every RuntimeWarning is an error here
    chi = primitive_characters(5)[0]
    real = (math.nan, math.inf, -math.inf)
    points = (
        *real,
        complex(math.inf, 0.0),
        complex(0.5, math.inf),
        complex(-math.inf, math.inf),
        complex(math.nan, 1.0),
        complex(0.5, math.nan),
    )
    for s in points:
        for fn in (l_function, l_function_ds):
            with pytest.raises(DomainError, match="s must be finite"):
                fn(s, chi)
        with pytest.raises(DomainError, match="s must be finite"):
            hurwitz_zeta(s, 0.5)
        for fn in (vartheta, lambda s: z_factor(s, chi), _log_gamma):
            with pytest.raises(DomainError, match="finite z"):
                fn(s)
    for t in real:
        with pytest.raises(DomainError, match="t must be (finite|positive)"):
            m_function(t, chi)
        for gammas in ([t], [5.0, t]):
            with pytest.raises(DomainError, match="t must be finite"):
                c_star(chi, np.array(gammas), 0.3)


def test_export_zeros_csv(tmp_path):
    chi = real_primitive_character(4)
    scan = find_zeros(chi, 5.0, 14.0)
    path = tmp_path / "zeros.csv"
    written = export_zeros_csv(str(path), scan, chi, scan_alpha_hat(scan))
    assert len(written) == 3
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the returned rows are the strings of the table, field for field
    assert [tuple(r.values()) for r in rows] == written
    assert [r["gamma"][:7] for r in rows] == ["6.02094", "10.2437", "12.9880"]
    assert rows[-1]["forward_gap"] == ""
    for row in rows[:-1]:
        assert float(row["forward_gap"]) > 0
    for row in rows:
        assert float(row["radius"]) < 1e-8
        assert row["c_star"] != ""


def test_weight_params():
    p = WeightParams()
    assert p.s0 == 0.5 + 2j * math.pi * 2000.0
    with pytest.raises(DomainError):
        WeightParams(S=-1.0)
    with pytest.raises(DomainError):
        WeightParams(L2=0.0)


@pytest.mark.parametrize(
    "field, value", [("S", math.nan), ("L2", math.inf), ("t0", math.nan), ("t0", math.inf)]
)
def test_weight_params_refuse_non_finite(field, value):
    with pytest.raises(DomainError):
        WeightParams(**{field: value})


def test_g_weight_complement_and_guards():
    p = WeightParams()
    for x in (0.1, 0.5, 1.0, 3.7, 42.0):
        assert abs(g_weight(x, p) + g_weight(1.0 / x, p) - 1.0) < 1e-12
    assert g_weight(1.0, p) == 0.5
    assert g_weight(2.0, p) > 0.999
    with pytest.raises(DomainError):
        g_weight(0.0, p)
    with pytest.raises(DomainError):
        g_weight(1.0, WeightParams(S=-2.0))


def test_g_weight_follows_the_smoothing_of_its_params():
    # S has one home, WeightParams, which alone refuses S <= 0
    for s in (0.5, 10.0, 20.0):
        p = WeightParams(S=s)
        for x in (0.3, 0.9, 1.1, 7.0):
            assert g_weight(x, p) == 0.5 * (1.0 + math.erf(s * math.log(x)))
            assert abs(g_weight(x, p) + g_weight(1.0 / x, p) - 1.0) < 1e-12
    # a larger S steepens the step: g(1.1) moves further from 1/2
    assert 0.5 < g_weight(1.1, WeightParams(S=10.0)) < g_weight(1.1, WeightParams(S=20.0)) < 1.0
    for s in (0.0, -1.0):
        with pytest.raises(DomainError):
            WeightParams(S=s)
        with pytest.raises(DomainError):
            WeightParams()._replace(S=s)


def test_omega_weight_peak_and_decay():
    p = WeightParams(10.0, 50.0, 60.0)
    peak = omega_weight(p.s0, p)
    assert abs(peak - math.sqrt(math.pi) / 50.0) < 1e-15
    off = omega_weight(0.5 + 2j * math.pi * (60.0 + 200.0), p)
    assert abs(off) < abs(peak) * 1e-30


def test_delta_fn_guards():
    p = WeightParams(10.0, 50.0, 60.0)
    with pytest.raises(DomainError):
        delta_fn(0.0, p)
    with pytest.raises(DomainError):
        delta_fn(-2.0, p)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_delta_fn_refuses_non_finite_x(x):
    with pytest.raises(DomainError):
        delta_fn(x, WeightParams(10.0, 50.0, 60.0))


def test_delta_fn_matches_frozen_oracle(special_values):
    # the desk parameters; at x = 1, far from the window, the panels must be
    # sized by the phase of t0, not of x
    p = WeightParams()
    for x in (2000.0, 2020.0, 2130.0):
        assert abs(delta_fn(x, p) - special_values[f"delta_fn({x})"]) < 1e-13
    assert abs(delta_fn(1.0, p)) < 1e-12


def test_delta_transform_concentrates_near_t0():
    # at the window center the transform approaches the Gaussian peak value;
    # far outside the window it is negligible
    p = WeightParams(10.0, 50.0, 60.0)
    center = delta_fn(60.0, p)
    scale = math.sqrt(math.pi) / p.L2
    assert abs(center - scale) < 0.05 * scale
    far = delta_fn(60.0 + 40.0 * p.L2 / math.pi, p)
    assert abs(far) < 1e-6 * scale


def test_delta_mellin_normalization_small_t0():
    # integral of the transform recovers 1 in the regime t0 << L2^2
    for l2, t0 in ((50.0, 60.0), (100.0, 120.0)):
        p = WeightParams(10.0, l2, t0)
        assert abs(delta_mellin(1.0, p) - 1.0) < 1e-6


@pytest.mark.parametrize("s", [complex(1.0, math.inf), math.nan])
def test_delta_mellin_refuses_non_finite_s(s):
    with pytest.raises(DomainError):
        delta_mellin(s, WeightParams(10.0, 50.0, 60.0))


def test_delta_mellin_panels_resolve_a_wide_fast_window():
    # at L2 = 6 the transform turns 11 radians per unit of x over a range of
    # 151, where 15-point panels sized by the phase recover 1 to rounding;
    # delta_fn takes one abscissa per call, so the temporaries stay small
    tracemalloc.start()
    try:
        err = abs(delta_mellin(1.0, WeightParams(10.0, 6.0, 60.0)) - 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= 1e-13
    assert peak < 2e6


def test_delta_fn_panel_layout_is_read_only():
    # the layout is kept between calls with the same panel count
    for arr in smoothing._panel_layout(8, WeightParams(10.0, 6.0, 60.0)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_a_deprecation_in_the_weights_module_is_an_error(category):
    # pyproject.toml gives the test-side weights lfverify's warning policy
    with pytest.raises(category):
        warnings.warn_explicit("old", category, smoothing.__file__, 1, module="smoothing")


def test_delta_fn_refuses_too_many_panels():
    # L2 = 0.1 puts the u-cut at 60.7, where the phase turns e^60 radians
    with pytest.raises(DomainError, match="panels"):
        delta_fn(60.0, WeightParams(10.0, 0.1, 60.0))


@pytest.mark.parametrize("l2", (2.0, 1.0))
def test_delta_mellin_refuses_too_many_panels(l2):
    # 14,668 and 7,566,651 panels: refused before any evaluation
    with pytest.raises(DomainError, match="panels"):
        delta_mellin(1.0, WeightParams(10.0, l2, 60.0))


@pytest.mark.parametrize("l2, count", ((0.009, "3.82e+599"), (0.01, "5.93e+539")))
def test_delta_mellin_names_a_finite_count_past_float_range(l2, count):
    # U = 674 and 607 pass the u-cut, but the phase term's e^U (x_hi - x_lo)
    # overflows a float, so the count is formed in logs
    with pytest.raises(DomainError, match=rf"needs at least {re.escape(count)} panels"):
        delta_mellin(1.0, WeightParams(10.0, l2, 60.0))


@pytest.mark.parametrize("l2", (0.001, 0.0087))
def test_transforms_refuse_a_window_past_float_range(l2):
    # U = 6.07 / L2 is 6070 and 698: cosh U, e^U or the x-range's e^(1.04 U) overflow
    p = WeightParams(10.0, l2, 60.0)
    with pytest.raises(DomainError, match="panel"):
        delta_fn(60.0, p)
    with pytest.raises(DomainError, match="panel"):
        delta_mellin(1.0, p)


def test_branch_error_type():
    assert issubclass(BranchError, RuntimeError)
