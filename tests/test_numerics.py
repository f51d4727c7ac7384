"""Adaptive quadrature behavior: accuracy, error reporting, failure modes."""

import cmath
import math

import numpy as np
import pytest

from lfverify.numerics import (
    ConvergenceError,
    DomainError,
    QuadratureResult,
    integrate,
)


def test_polynomial_exact():
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert abs(res.value - 0.25) < 1e-13
    assert res.error_estimate <= 1e-10
    assert res.evaluations >= 22


def test_oscillatory_complex_closed_form():
    # int_0^1 e^{i pi x} dx = (e^{i pi} - 1)/(i pi) = 2i/pi
    res = integrate(lambda x: np.exp(1j * math.pi * x), 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 2j / math.pi) < 1e-12


def test_high_frequency_needs_panels():
    res = integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0, tol=1e-11)
    assert abs(res.value - math.sin(200.0) / 200.0) < 1e-10
    assert res.evaluations > 22


def test_error_estimate_bounds_true_error():
    true = (cmath.exp(2.5j) - 1.0) / 2.5j
    res = integrate(lambda x: np.exp(2.5j * x), 0.0, 1.0, tol=1e-10)
    assert abs(res.value - true) <= max(res.error_estimate, 1e-14)


def test_scalar_only_integrand_is_tolerated():
    res = integrate(lambda x: math.sqrt(x), 1.0, 4.0, tol=1e-10)
    assert abs(res.value - 14.0 / 3.0) < 1e-9


def test_zero_width_interval():
    res = integrate(lambda x: x, 2.0, 2.0)
    assert res.value == 0j
    assert res.evaluations == 0


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


def test_nonpositive_tolerance_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, 1.0, tol=0.0)


def test_convergence_failure_carries_partial():
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda x: np.cos(5000.0 * x), 0.0, 1.0, tol=1e-14, max_panels=4)
    partial = exc.value.partial
    assert isinstance(partial, QuadratureResult)
    assert partial.error_estimate > 1e-14


def test_deterministic_repeatability():
    f = lambda x: np.sin(37.0 * x) * np.exp(-x)
    a = integrate(f, 0.0, 3.0, tol=1e-12)
    b = integrate(f, 0.0, 3.0, tol=1e-12)
    assert a.value == b.value
    assert a.evaluations == b.evaluations

