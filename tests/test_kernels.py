"""Limit-kernel identities and parameter-record validation."""

import cmath
import math

import numpy as np
import pytest

from lfverify.kernels import (
    BETA,
    KernelId,
    default_model,
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
    assert default_model().residue_weights == (0.5, 2.0, 1.5)


def test_rates_satisfy_the_limit_identities():
    b = BETA
    assert abs(b[3] - (b[1] + b[2])) <= 1e-14
    assert abs(4 * b[6] - (b[1] + b[2] + b[3])) <= 1e-14
    assert abs(2 * (b[6] + b[7]) - (b[1] + b[2] + b[3] + 2j * math.pi)) <= 1e-14


def test_model_is_frozen():
    m = default_model()
    with pytest.raises(AttributeError):
        m.z1 = 0.7


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
    zs = np.linspace(10.0, 10.0 + period, 20001)[:-1]
    mean = np.mean(eval_g((1, 7), zs))
    # linear-in-z part averages to a bounded residue / period correction
    assert abs(mean - r) < 0.25


def test_kernel_id_validation():
    with pytest.raises(DomainError):
        KernelId(4, 6)
    with pytest.raises(DomainError):
        KernelId(1, 5)
    with pytest.raises(DomainError):
        eval_f((0, 6), 0.1)


def test_tuple_and_kernel_id_agree():
    z = 0.123
    assert eval_f(KernelId(2, 7), z) == eval_f((2, 7), z)
    assert eval_g(KernelId(2, 7), z) == eval_g((2, 7), z)


def test_vectorized_matches_scalar():
    zs = np.linspace(0.0, 0.5, 11)
    vec = eval_f((1, 6), zs)
    assert vec.shape == zs.shape
    for z, v in zip(zs, vec):
        assert abs(v - eval_f((1, 6), complex(z))) < 1e-15


def test_drift_variant2_vanishes_at_top():
    m = default_model()
    for j in (1, 2, 3):
        assert abs(eval_y(2, j, m.z1)) < 1e-15


def test_drift_closed_forms():
    m = default_model()
    b = BETA
    z = 0.502
    lin, quad = b[2] + b[3], b[2] * b[3] / 2.0
    mid = m.z2 + m.shift_b
    y1 = lin * (z - m.z2) + quad * ((m.z1 - z) ** 2 - 2.0 * (mid - z) ** 2)
    y2 = lin * (m.z1 - z) + quad * (m.z1 - z) ** 2
    assert abs(eval_y(1, 1, z) - y1) < 1e-15
    assert abs(eval_y(2, 1, z) - y2) < 1e-15


def test_drift_validation():
    with pytest.raises(DomainError):
        eval_y(3, 1, 0.5)
    with pytest.raises(DomainError):
        eval_y(1, 4, 0.5)


def test_window_values_at_anchor():
    m = default_model()
    w0 = m.z2 - m.shift_a
    for j in (1, 2, 3):
        assert abs(eval_w("plain", j, w0) + 1.0) < 1e-15
        assert abs(eval_w("star", j, w0) + 1.0) < 1e-15


def test_window_slopes():
    m = default_model()
    b = BETA
    w0 = m.z2 - m.shift_a
    dz = 1e-3
    plain = (eval_w("plain", 2, w0 + dz) - eval_w("plain", 2, w0)) / dz
    star = (eval_w("star", 2, w0 + dz) - eval_w("star", 2, w0)) / dz
    assert abs(plain - (b[3] + b[1] - 2 * b[6])) < 1e-12
    assert abs(star - (2 * b[6] - b[2])) < 1e-12


def test_window_validation():
    with pytest.raises(DomainError):
        eval_w("fancy", 1, 0.5)
    with pytest.raises(DomainError):
        eval_w("plain", 0, 0.5)
