"""One-panel Gauss-Legendre quadrature and its test-side panel loop: accuracy, order, refusals."""

import inspect
import math

import numpy as np
import pytest

from lfverify.numerics import _NODES15, _WEIGHTS15, DomainError, integrate, verdict
from smoothing import integrate_panels


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
    res = integrate_panels(lambda x: np.cos(200.0 * x), 0.0, 1.0, 40)
    assert abs(res.value - true) < 1e-13
    assert res.evaluations == 600


def test_panels_are_evaluated_one_at_a_time_and_summed_in_order():
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(3.0 * x)

    res = integrate_panels(f, 0.0, 3.0, 3)
    assert len(calls) == 45
    assert all(type(x) is float for x in calls)
    # panel by panel, and within a panel in node order
    expected = [lo + 0.5 + 0.5 * t for lo in (0.0, 1.0, 2.0) for t in _NODES15]
    assert calls == expected
    pieces = [integrate(f, lo, lo + 1.0).value for lo in (0.0, 1.0, 2.0)]
    assert res.value == (pieces[0] + pieces[1]) + pieces[2]


def test_one_panel_takes_the_nodes_in_order():
    # integrate has no panel count: one 15-point rule on [a, b], its
    # abscissae mid + half * node in node order, and 15 evaluations
    assert list(inspect.signature(integrate).parameters) == ["f", "a", "b"]
    calls = []

    def f(x):
        calls.append(x)
        return x * x

    res = integrate(f, 1.0, 4.0)
    assert calls == [2.5 + 1.5 * t for t in _NODES15]
    assert res.evaluations == 15
    assert abs(res.value - 21.0) < 1e-13


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


def test_deterministic_repeatability():
    f = lambda x: np.sin(37.0 * x) * np.exp(-x)
    a = integrate_panels(f, 0.0, 3.0, 12)
    b = integrate_panels(f, 0.0, 3.0, 12)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


@pytest.mark.parametrize(
    "kind, computed, claimed, tolerance, passed",
    [
        ("equals", 1.5 + 0.5j, 1.0 + 1.0j, 0.5, True),
        ("equals", 1.5 + 0.5j, 1.0 + 1.0j, 0.25, False),
        ("less_than", 1.0, 2.0, 1.0, False),
        ("less_than", 0.5, 2.0, 1.0, True),
        ("greater_than", 3.0, 2.0, 1.0, False),
        ("greater_than", 3.5, 2.0, 1.0, True),
        ("abs_less_than", -3j, 4.0, 1.0, False),
        ("abs_less_than", -2.5j, 4.0, 1.0, True),
        ("at_most", 1e-12, 1e-12, 0.0, True),
        ("at_most", 2.0, 1.0, 1.0, True),
        ("at_most", 1.0, 0.0, 0.0, False),
        ("at_most", math.nan, 1.0, 0.0, False),
    ],
)
def test_verdict_decides_each_kind_at_its_bound(kind, computed, claimed, tolerance, passed):
    # strict kinds fail at their bound, equals and at_most pass there
    record = verdict("row", computed, kind, claimed, tolerance)
    assert record.passed is passed
    assert isinstance(record.computed, complex) and record.claimed == complex(claimed)
    assert (record.name, record.claim_kind, record.tolerance) == ("row", kind, tolerance)


def test_verdict_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="unknown claim kind"):
        verdict("row", 1.0, "roughly", 1.0)
