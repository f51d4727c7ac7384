"""Fixed-panel Gauss-Legendre quadrature: accuracy, panel layout, refusals."""

import math

import numpy as np
import pytest

from lfverify.numerics import _NODES15, _WEIGHTS15, DomainError, integrate


def test_polynomial_exact():
    # 15 nodes integrate every polynomial of degree <= 29 exactly
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert abs(res.value - 0.25) < 1e-15
    assert res.evaluations == 15
    assert abs(integrate(lambda x: x**29, 0.0, 1.0).value - 1.0 / 30.0) < 1e-15


def test_oscillatory_complex_closed_form():
    # int_0^1 e^{i pi x} dx = (e^{i pi} - 1)/(i pi) = 2i/pi
    res = integrate(lambda x: np.exp(1j * math.pi * x), 0.0, 1.0)
    assert abs(res.value - 2j / math.pi) < 1e-15


def test_high_frequency_needs_panels():
    true = math.sin(200.0) / 200.0
    assert abs(integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0).value - true) > 1e-3
    res = integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0, panels=40)
    assert abs(res.value - true) < 1e-13
    assert res.evaluations == 600


def test_panels_are_evaluated_one_at_a_time_and_summed_in_order():
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(3.0 * x)

    res = integrate(f, 0.0, 3.0, panels=3)
    assert len(calls) == 45
    assert all(type(x) is float for x in calls)
    # panel by panel, and within a panel in node order
    expected = [lo + 0.5 + 0.5 * t for lo in (0.0, 1.0, 2.0) for t in _NODES15]
    assert calls == expected
    pieces = [integrate(f, lo, lo + 1.0).value for lo in (0.0, 1.0, 2.0)]
    assert res.value == (pieces[0] + pieces[1]) + pieces[2]


def test_nodes_and_weights_are_leggauss_15_bit_for_bit():
    # hex strings, so that a signed zero must match too
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert [t.hex() for t in _NODES15] == [float(t).hex() for t in nodes]
    assert [w.hex() for w in _WEIGHTS15] == [float(w).hex() for w in weights]


def test_scalar_only_integrand_is_tolerated():
    res = integrate(lambda x: math.sqrt(x), 1.0, 4.0)
    assert abs(res.value - 14.0 / 3.0) < 1e-13


def test_zero_width_interval():
    res = integrate(lambda x: x, 2.0, 2.0)
    assert res.value == 0j
    assert res.evaluations == 0


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize(
    "a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)]
)
def test_non_finite_bounds_rejected(a, b):
    with pytest.raises(DomainError):
        integrate(lambda x: x, a, b)


@pytest.mark.parametrize("panels", [0, -1])
def test_fewer_than_one_panel_rejected(panels):
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, 1.0, panels=panels)


def test_deterministic_repeatability():
    f = lambda x: np.sin(37.0 * x) * np.exp(-x)
    a = integrate(f, 0.0, 3.0, panels=12)
    b = integrate(f, 0.0, 3.0, panels=12)
    assert a.value == b.value
    assert a.evaluations == b.evaluations
