"""Constant pipeline against the independently computed Simpson-grid values."""

import math

import mpmath
import pytest

from conftest import assert_close
from lfverify import contradiction
from lfverify.contradiction import (
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
    for name in b_table:
        assert_close(b_table[name], frozen_constants[name], CROSS_TOL, name)


def test_b44_equals_b22(b_table):
    assert b_table["b44"] == b_table["b22"]


def test_c_matrix_matches_independent_grid(c_table, frozen_constants):
    for name in c_table:
        assert_close(c_table[name], frozen_constants[name], CROSS_TOL, name)


def test_c_matrix_hermitian_pairing(c_table):
    assert c_table["c21"] == c_table["c12"].conjugate()
    assert c_table["c43"] == c_table["c34"].conjugate()
    assert abs(c_table["c11"].imag) == 0.0
    assert abs(c_table["c33"].imag) == 0.0


def test_quadratic_forms_match_grid(c_table, frozen_constants):
    q1, q2 = compute_c1_c2(c_table)
    assert_close(q1, frozen_constants["frak_c1"], 1e-10, "frak_c1")
    assert_close(q2, frozen_constants["frak_c2"], 1e-10, "frak_c2")
    # exact cancellation of conjugate pairs, not merely small
    assert q1.imag == 0.0
    assert q2.imag == 0.0


def test_d_constants_match_grid(d_table, frozen_constants):
    for name in d_table:
        assert_close(d_table[name], frozen_constants[name], CROSS_TOL, name)


def test_drift_inequalities(d_table):
    dp = d_table["frak_d_prime"]
    dd = d_table["frak_d"]
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
    for name in e_table:
        assert_close(e_table[name], frozen_constants[name], CROSS_TOL, name)


def test_c3_and_cancellation_match_grid(e_table, frozen_constants):
    c3 = compute_c3(e_table)
    cancel = compute_cancellation(e_table)
    assert_close(c3, frozen_constants["frak_c3"], 1e-9, "frak_c3")
    assert_close(cancel, frozen_constants["cancellation"], 1e-9, "cancellation")
    assert abs(cancel) < 1e-4


def test_chain_total_matches_grid(c_table, e_table, frozen_constants):
    q1, q2 = compute_c1_c2(c_table)
    c3 = compute_c3(e_table)
    chain = q1.real + q2.real + 2.0 * c3.real
    assert abs(chain - frozen_constants["chain"].real) < 1e-9
    assert chain < 1e-3


def test_window_checks_match_grid(frozen_constants):
    w = short_window_checks()
    for j in (1, 2, 3):
        assert_close(
            w[f"window6_{j}"], frozen_constants[f"w6_{j}"], CROSS_TOL, f"w6_{j}"
        )
        assert_close(
            w[f"window7_{j}"], frozen_constants[f"w7_{j}"], CROSS_TOL, f"w7_{j}"
        )
        assert abs(w[f"window6_{j}"] - (-0.002)) < 1e-4
        target7 = -0.004 - 1j * math.pi / 250.0**2
        assert abs(w[f"window7_{j}"] - target7) < 1e-4


def test_j1_bound_matches_grid(frozen_constants):
    j1 = compute_j1_bound()
    assert abs(j1 - frozen_constants["j1_limit"].real) < 1e-9
    assert 0.0 < j1 < 4400.0 / math.pi


DRIFT_ROWS = ["drift_prime_real", "drift_real_small", "drift_real_positive", "drift_sum_real"]
RESIDUE_ROWS = ["c3_real", "cancellation", "chain_total"]


def _nan_rows(report):
    rows = [r for r in report.records if math.isnan(r.computed.real)]
    assert not any(r.passed for r in rows)
    return [r.name for r in rows]


def test_a_raising_stage_gives_nan_failing_rows(monkeypatch):
    # an integral over a reversed interval raises DomainError in the drift and residue stages
    def reversed_interval():
        return integrate(lambda z: z, 1.0, 0.0)

    monkeypatch.setattr(contradiction, "compute_d_constants", reversed_interval)
    monkeypatch.setattr(contradiction, "compute_e_constants", reversed_interval)
    report = run_verification()
    assert len(report.records) == 27
    assert _nan_rows(report) == DRIFT_ROWS + RESIDUE_ROWS


def test_a_stage_reading_a_missing_name_gives_nan_rows(monkeypatch):
    compute = contradiction.compute_e_constants

    def without_frak_ep_1():
        e = compute()
        del e["frak_ep_1"]
        return e

    monkeypatch.setattr(contradiction, "compute_e_constants", without_frak_ep_1)
    report = run_verification()
    assert len(report.records) == 27
    assert _nan_rows(report) == RESIDUE_ROWS


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


def test_notes_report_a_c3_that_clears_its_bound(monkeypatch):
    compute = contradiction.compute_c3
    monkeypatch.setattr(contradiction, "compute_c3", lambda e: compute(e) - 0.02)
    rep = run_verification()
    assert "c3_real" not in [r.name for r in rep.failed_records()]
    assert rep.notes[2] == (
        "the final negative constant computes to -7.01093, "
        "below the claimed bound -6.9951 by 1.6e-2"
    )


def _claim_past(record):
    """A claimed value two tolerances past the computed one, on the side that flips the verdict."""
    c, tol = record.computed, record.tolerance
    if record.claim_kind == "equals":
        return c + 2.0 * tol if record.passed else c
    at = abs(c) if record.claim_kind == "abs_less_than" else c.real
    side = -1.0 if record.claim_kind == "greater_than" else 1.0
    return at + (-side if record.passed else side) * 2.0 * tol


def _margin(record):
    """The least move of the claim that flips the verdict, signed: positive where the record passes."""
    c, claimed, tol = record.computed, record.claimed, record.tolerance
    if record.claim_kind == "equals":
        return tol - max(abs(c.real - claimed.real), abs(c.imag - claimed.imag))
    if record.claim_kind == "greater_than":
        return c.real - (claimed.real + tol)
    at = abs(c) if record.claim_kind == "abs_less_than" else c.real
    return claimed.real - tol - at


def _moved_claims(records, names):
    """``_CLAIMS`` with the claims of ``names`` moved by ``_claim_past``."""
    return tuple(
        (stage, tuple(
            (name, kind, _claim_past(records[name]) if name in names else claimed, tol)
            for name, kind, claimed, tol in rows
        ))
        for stage, rows in contradiction._CLAIMS
    )


def test_every_claim_moved_past_its_computed_value_flips(monkeypatch, records):
    # each row's claim goes 2 tolerances past its computed value: every pass
    # becomes a fail and c3_real's fail a pass; the margin printed is the
    # least move of the claim that flips its row, so a loose gate shows
    monkeypatch.setattr(contradiction, "_CLAIMS", _moved_claims(records, records))
    flipped = {r.name: r for r in run_verification().records}
    assert flipped.keys() == records.keys()
    print()
    for name, rec in records.items():
        assert flipped[name].passed is not rec.passed, name
        assert (_margin(rec) > 0) is rec.passed and (_margin(flipped[name]) > 0) is not rec.passed
        print(f"{name}: {rec.claim_kind}, flips at a move of {abs(_margin(rec)):.3g}")
    assert flipped["c3_real"].passed


def test_c3_claim_moved_past_its_computed_value_clears_the_report(monkeypatch, records):
    # c3_real alone past its computed value: the one failing record passes, and so does the report
    monkeypatch.setattr(contradiction, "_CLAIMS", _moved_claims(records, {"c3_real"}))
    assert run_verification().passed
