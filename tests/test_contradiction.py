"""Constant pipeline against the independently computed Simpson-grid values."""

import math

import mpmath
import pytest

from conftest import assert_close
from lfverify import contradiction
from lfverify.contradiction import (
    MissingConstantError,
    compute_b_matrix,
    compute_c1_c2,
    compute_c3,
    compute_c_matrix,
    compute_cancellation,
    compute_d_constants,
    compute_e_constants,
    compute_j1_bound,
    run_verification,
    short_window_checks,
)
from lfverify.kernels import LimitModel, default_model
from lfverify.numerics import integrate

CROSS_TOL = 1e-12  # one Gauss-Legendre panel vs frozen Simpson grid, both near machine precision


@pytest.fixture(scope="module")
def b_table():
    return compute_b_matrix()


@pytest.fixture(scope="module")
def c_table(b_table):
    return compute_c_matrix(b_table)


@pytest.fixture(scope="module")
def d_table():
    return compute_d_constants()


@pytest.fixture(scope="module")
def e_table():
    return compute_e_constants()


def test_b_matrix_matches_independent_grid(b_table, frozen_constants):
    for name in b_table.names():
        assert_close(b_table.value(name), frozen_constants[name], CROSS_TOL, name)


def test_b44_equals_b22(b_table):
    assert b_table.value("b44") == b_table.value("b22")


def test_c_matrix_matches_independent_grid(c_table, frozen_constants):
    for name in c_table.names():
        assert_close(c_table.value(name), frozen_constants[name], CROSS_TOL, name)


def test_c_matrix_hermitian_pairing(c_table):
    assert c_table.value("c21") == c_table.value("c12").conjugate()
    assert c_table.value("c43") == c_table.value("c34").conjugate()
    assert abs(c_table.value("c11").imag) == 0.0
    assert abs(c_table.value("c33").imag) == 0.0


def test_quadratic_forms_match_grid(c_table, frozen_constants):
    q1, q2 = compute_c1_c2(default_model(), c_table)
    assert_close(q1, frozen_constants["frak_c1"], 1e-10, "frak_c1")
    assert_close(q2, frozen_constants["frak_c2"], 1e-10, "frak_c2")
    # exact cancellation of conjugate pairs, not merely small
    assert q1.imag == 0.0
    assert q2.imag == 0.0


def test_d_constants_match_grid(d_table, frozen_constants):
    for name in d_table.names():
        assert_close(d_table.value(name), frozen_constants[name], CROSS_TOL, name)


def test_drift_inequalities(d_table):
    dp = d_table.value("frak_d_prime")
    dd = d_table.value("frak_d")
    assert dp.real > 5.1
    assert 0.0 < dd.real < 0.1
    assert (dp + dd).real > 5.0


def test_every_panel_matches_mpmath_quad(monkeypatch):
    # each integrand is compared when it is integrated: the closures read the
    # loop variables of the compute_* function that builds them
    panel = contradiction._quad
    gaps = []

    def recording_quad(f, a, b):
        value = panel(f, a, b)
        reference = complex(mpmath.quad(lambda x: complex(f(float(x))), [a, b]))
        gaps.append(abs(value - reference) / max(1.0, abs(reference)))
        return value

    monkeypatch.setattr(contradiction, "_quad", recording_quad)
    run_verification()
    assert len(gaps) == 80
    assert max(gaps) <= 1e-14


def test_every_panel_goes_through_integrate(monkeypatch):
    # the trace counts quadrature work by wrapping the module's integrate, so
    # the pipeline must look it up at call time
    results = []

    def recording_integrate(f, a, b, panels=1):
        res = integrate(f, a, b, panels)
        results.append(res)
        return res

    monkeypatch.setattr(contradiction, "integrate", recording_integrate)
    run_verification()
    assert len(results) == 80
    assert sum(r.evaluations for r in results) == 1200


def test_e_constants_match_grid(e_table, frozen_constants):
    for name in e_table.names():
        assert_close(e_table.value(name), frozen_constants[name], CROSS_TOL, name)


def test_c3_and_cancellation_match_grid(e_table, frozen_constants):
    c3 = compute_c3(e_table)
    cancel = compute_cancellation(e_table)
    assert_close(c3, frozen_constants["frak_c3"], 1e-9, "frak_c3")
    assert_close(cancel, frozen_constants["cancellation"], 1e-9, "cancellation")
    assert abs(cancel) < 1e-4


def test_chain_total_matches_grid(c_table, e_table, frozen_constants):
    q1, q2 = compute_c1_c2(default_model(), c_table)
    c3 = compute_c3(e_table)
    chain = q1.real + q2.real + 2.0 * c3.real
    assert abs(chain - frozen_constants["chain"].real) < 1e-9
    assert chain < 1e-3


def test_window_checks_match_grid(frozen_constants):
    w = short_window_checks()
    for j in (1, 2, 3):
        assert_close(
            w.value(f"window6_{j}"), frozen_constants[f"w6_{j}"], CROSS_TOL, f"w6_{j}"
        )
        assert_close(
            w.value(f"window7_{j}"), frozen_constants[f"w7_{j}"], CROSS_TOL, f"w7_{j}"
        )
        assert abs(w.value(f"window6_{j}") - (-0.002)) < 1e-4
        target7 = -0.004 - 1j * math.pi / 250.0**2
        assert abs(w.value(f"window7_{j}") - target7) < 1e-4


def test_j1_bound_matches_grid(frozen_constants):
    j1 = compute_j1_bound()
    assert abs(j1 - frozen_constants["j1_limit"].real) < 1e-9
    assert 0.0 < j1 < 4400.0 / math.pi


def test_constant_table_api(b_table):
    with pytest.raises(MissingConstantError):
        b_table.value("b99")
    assert "b11" in b_table
    assert "b99" not in b_table


def test_report_shape(report, records):
    assert len(report.records) == 27
    assert len(set(records)) == 27
    assert report.notes


def test_exactly_one_record_fails(report):
    failed = report.failed_records()
    assert [r.name for r in failed] == ["c3_real"]
    assert not report.passed


def test_c3_shortfall_is_genuine(records, frozen_constants):
    # the computed value really does land above the claimed bound, and the
    # gap is far larger than any quadrature uncertainty in this pipeline
    rec = records["c3_real"]
    assert rec.claim_kind == "less_than"
    assert rec.claimed.real == -6.9951
    assert abs(rec.computed.real - frozen_constants["frak_c3"].real) < 1e-9
    assert 4.0e-3 < rec.computed.real - rec.claimed.real < 4.4e-3


def test_record_kinds_cover_all_comparisons(records):
    kinds = {r.claim_kind for r in records.values()}
    assert kinds == {"equals", "less_than", "greater_than", "abs_less_than"}


def test_notes_at_the_default_model(report):
    assert report.notes == (
        "the j->0 limit constant takes the fourth product-factor family equal "
        "to the second, the only reading consistent with the mixing weights; "
        "its factor values are exp(0.756*pi*i), exp(1.25*pi*i), exp(0.747*pi*i)",
        "cross entries of the second block are normalized by the product of "
        "the two distinct window lengths, and the fast-slow cross entry "
        "carries the short-gap phase advance exp(0.005*pi*i)",
        "the final negative constant computes to -6.99093, short of the "
        "claimed bound -6.9951 by 4.2e-3; the shortfall is recorded as a "
        "failing record on purpose",
    )


def test_notes_follow_the_model():
    factors, gap, final = run_verification(LimitModel(z3=0.49, shift_b=0.004)).notes
    assert factors.endswith("exp(0.756*pi*i), exp(1.25*pi*i), exp(0.735*pi*i)")
    assert gap.endswith("exp(0.01*pi*i)")
    assert final.startswith("the final negative constant computes to -6.98217, short of the ")
    # a c3 that clears its bound is reported as such
    rep = run_verification(LimitModel(z1=0.51))
    assert rep.notes[0].endswith("exp(0.765*pi*i), exp(1.25*pi*i), exp(0.747*pi*i)")
    assert "c3_real" not in [r.name for r in rep.failed_records()]
    assert rep.notes[2] == (
        "the final negative constant computes to -7.01076, "
        "below the claimed bound -6.9951 by 1.6e-2"
    )
