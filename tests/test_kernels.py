"""Limit-kernel identities and id validation."""

import cmath
import math

import numpy as np
import pytest

from lfverify.kernels import (
    BETA,
    RESIDUE_WEIGHTS,
    SHIFT_A,
    SHIFT_B,
    Z1,
    Z2,
    eval_f,
    eval_g,
    eval_w,
    eval_y,
)
from lfverify.numerics import DomainError

ALL_IDS = [(j, mu) for j in (1, 2, 3) for mu in (6, 7)]


def test_default_model_rates():
    assert BETA[1] == math.pi * 1j
    assert BETA[6] == 1.5j * math.pi
    assert BETA[7] == 2.5j * math.pi
    assert RESIDUE_WEIGHTS == (0.5, 2.0, 1.5)


def test_rates_satisfy_the_limit_identities():
    b = BETA
    assert abs(b[3] - (b[1] + b[2])) <= 1e-14
    assert abs(4 * b[6] - (b[1] + b[2] + b[3])) <= 1e-14
    assert abs(2 * (b[6] + b[7]) - (b[1] + b[2] + b[3] + 2j * math.pi)) <= 1e-14


@pytest.mark.parametrize("j,mu", ALL_IDS)
def test_f_and_g_normalized_at_origin(j, mu):
    assert abs(eval_f((j, mu), 0.0) - 1.0) < 1e-15
    assert abs(eval_g((j, mu), 0.0) - 1.0) < 1e-15


@pytest.mark.parametrize("j,mu", ALL_IDS)
def test_f_closed_form(j, mu):
    b = BETA
    z = 0.3173
    expect = (1.0 + (b[mu] - b[j]) * z) * cmath.exp(b[mu] * z)
    assert abs(eval_f((j, mu), z) - expect) < 1e-15


def test_g_constant_term_uses_wrapped_indices():
    # for j=3 the companion rates wrap to 1 and 2
    b = BETA
    z = 0.21
    r = b[1] * b[2] / (b[6] * b[6])
    c = (b[1] - b[6]) * (b[2] - b[6]) / b[6]
    expect = r + (1.0 - r - c * z) * cmath.exp(-b[6] * z)
    assert abs(eval_g((3, 6), z) - expect) < 1e-14


def test_g_large_z_approaches_constant():
    # the oscillating part of g is bounded; its mean over a full period
    # of e^{-b z} on the imaginary axis recovers the constant term
    b = BETA
    r = b[2] * b[3] / (b[7] * b[7])
    period = 2.0 * math.pi / abs(b[7].imag)
    zs = np.linspace(10.0, 10.0 + period, 20001)[:-1].tolist()
    mean = sum(eval_g((1, 7), z) for z in zs) / len(zs)
    # linear-in-z part averages to a bounded residue / period correction
    assert abs(mean - r) < 0.25


def test_kernel_id_validation():
    for kid in [(4, 6), (1, 5), (0, 6), (3, 8)]:
        for kernel in (eval_f, eval_g):
            with pytest.raises(DomainError):
                kernel(kid, 0.1)


def test_drift_variant2_vanishes_at_top():
    for j in (1, 2, 3):
        assert abs(eval_y(2, j, Z1)) < 1e-15


def test_drift_closed_forms():
    b = BETA
    z = 0.502
    lin, quad = b[2] + b[3], b[2] * b[3] / 2.0
    mid = Z2 + SHIFT_B
    y1 = lin * (z - Z2) + quad * ((Z1 - z) ** 2 - 2.0 * (mid - z) ** 2)
    y2 = lin * (Z1 - z) + quad * (Z1 - z) ** 2
    assert abs(eval_y(1, 1, z) - y1) < 1e-15
    assert abs(eval_y(2, 1, z) - y2) < 1e-15


def test_drift_validation():
    with pytest.raises(DomainError):
        eval_y(3, 1, 0.5)
    with pytest.raises(DomainError):
        eval_y(1, 4, 0.5)


def test_window_values_at_anchor():
    w0 = Z2 - SHIFT_A
    for j in (1, 2, 3):
        assert abs(eval_w(j, w0) + 1.0) < 1e-15


def test_window_slopes():
    b = BETA
    w0 = Z2 - SHIFT_A
    dz = 1e-3
    plain = (eval_w(2, w0 + dz) - eval_w(2, w0)) / dz
    assert abs(plain - (b[3] + b[1] - 2 * b[6])) < 1e-12


def test_window_validation():
    with pytest.raises(DomainError):
        eval_w(0, 0.5)
