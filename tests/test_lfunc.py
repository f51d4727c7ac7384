"""Line values, the completed-equation rotation, zero scanning, and weights."""

import cmath
import csv
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import ORACLE_DIR, scan_alpha_hat
from lfverify import lfunc
from lfverify.characters import (
    character_group,
    frak_a,
    primitive_characters,
    real_primitive_character,
)
from lfverify.lfunc import (
    BranchError,
    CriticalZero,
    ScanResult,
    WeightParams,
    _log_gamma,
    c_star,
    delta_fn,
    delta_mellin,
    export_zeros_csv,
    find_zeros,
    g_weight,
    gauss_sum,
    hurwitz_zeta,
    l_function,
    l_function_ds,
    m_function,
    omega_weight,
    vartheta,
    z_factor,
)
from lfverify.numerics import ConvergenceError, DomainError

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
            n, m = lfunc._em_shift(s_abs, sigma)
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


# small |z| (shifted), the Stirling region just past |z| = 10 unshifted, and
# re z < 0 with |z| >= 10, which must be shifted off the cut
_LOG_GAMMA_POINTS = (0.3 + 0.2j, 10.5, 0.25 + 10.1j, -10.5 + 3j, -0.3 - 12j, -30.2 - 0.5j)


def test_log_gamma_matches_mpmath():
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(z)) for z in _LOG_GAMMA_POINTS])
    got = np.array([complex(_log_gamma(z)[0]) for z in _LOG_GAMMA_POINTS])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


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
    val = c_star(CriticalZero(454.66907476856, 5e-10), chi, 0.5502503708976213)
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


def test_cubic_root_falls_back_to_regula_falsi_without_warnings():
    # coincident nodes, a constant interpolant and a root outside the bracket:
    # each row takes the regula falsi point, and nothing warns
    t = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]])
    f = np.array([[-1.0, -1.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 4.0, 9.0]])
    lo, hi = np.array([0.0, 0.0, 1.5]), np.array([1.0, 1.0, 2.0])
    flo, fhi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 3.0])
    got = lfunc._cubic_root(t, f, lo, hi, flo, fhi)
    assert np.array_equal(got, (lo * fhi - hi * flo) / (fhi - flo))


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
    val = c_star(scan[0], chi, alpha)
    assert isinstance(val, float)
    # nan passed a bare positivity test; inf and 1e300 overflowed the
    # kernel's shift after a RuntimeWarning
    for alpha_hat in (0.0, math.nan, math.inf, 1e300, 1001.0):
        with pytest.raises(DomainError, match="alpha_hat"):
            c_star(scan[0], chi, alpha_hat)
        with pytest.raises(DomainError, match="alpha_hat"):
            export_zeros_csv(str(tmp_path / "zeros.csv"), scan, chi, alpha_hat)


def test_m_line_computes_the_root_number_once(monkeypatch):
    chi = primitive_characters(7)[1]
    calls = []
    root_number = lfunc._root_number
    monkeypatch.setattr(lfunc, "_root_number", lambda theta: calls.append(1) or root_number(theta))
    t = np.array([3.0, 14.5])
    lfunc._m_line(chi, t)
    lfunc._m_line(chi, t, ds=True)
    assert len(calls) == 2


def test_export_zeros_csv(tmp_path):
    chi = real_primitive_character(4)
    scan = find_zeros(chi, 5.0, 14.0)
    path = tmp_path / "zeros.csv"
    n = export_zeros_csv(str(path), scan, chi, scan_alpha_hat(scan))
    assert n == 3
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    for x in (0.1, 0.5, 1.0, 3.7, 42.0):
        assert abs(g_weight(x, 10.0) + g_weight(1.0 / x, 10.0) - 1.0) < 1e-12
    assert g_weight(1.0, 10.0) == 0.5
    assert g_weight(2.0, 10.0) > 0.999
    with pytest.raises(DomainError):
        g_weight(0.0, 10.0)
    with pytest.raises(DomainError):
        g_weight(1.0, -2.0)


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
    for arr in lfunc._panel_layout(8, WeightParams(10.0, 6.0, 60.0)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
