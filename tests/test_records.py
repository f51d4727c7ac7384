"""The record types: construction, validation, immutability, equality, hashing, pickling."""

import math
import pickle

import pytest

import smoothing
from lfverify.characters import DirichletCharacter, real_primitive_character
from lfverify.contradiction import VerificationRecord, VerificationReport
from lfverify.eulerprod import LocalFactorParams
from lfverify.lfunc import CriticalZero, ScanResult
from lfverify.numerics import DomainError, QuadratureResult, integrate
from smoothing import WeightParams, integrate_panels

ZERO = (0j, 0j, 0j)
_ZEROS = (CriticalZero(1.0, 1e-9), CriticalZero(2.0, 1e-9))
_RECORD = ("c11", 1 + 0j, "equals", 1 + 0j, 1e-6, True)
# each record type: a builder of one value, and its field names
RECORDS = {
    "QuadratureResult": (lambda: QuadratureResult(1j, 15), "value evaluations"),
    "VerificationRecord": (
        lambda: VerificationRecord(*_RECORD),
        "name computed claim_kind claimed tolerance passed",
    ),
    "VerificationReport": (
        lambda: VerificationReport((VerificationRecord(*_RECORD),), ("a note",)),
        "records notes",
    ),
    "DirichletCharacter": (
        lambda: DirichletCharacter(3, (0j, 1 + 0j, -1 + 0j), -1, True, 3),
        "modulus values parity real conductor",
    ),
    "LocalFactorParams": (lambda: LocalFactorParams(u=0.2, v=1, betas=ZERO), "u v betas"),
    "CriticalZero": (lambda: CriticalZero(10.0, 1e-9), "gamma radius"),
    "ScanResult": (lambda: ScanResult(_ZEROS, ((3.0, 3.5),), 2), "zeros flagged panels"),
    "WeightParams": (lambda: WeightParams(10.0, 6.0, 60.0), "S L2 t0"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    build, fields = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == b
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a


def test_keyword_construction_and_defaults():
    params = LocalFactorParams(u=0.2, v=-1, betas=ZERO)
    assert (params.u, params.v, params.betas) == (0.2, -1, ZERO)
    assert LocalFactorParams(0.2, -1, ZERO) == params
    p = WeightParams()
    assert (p.S, p.L2, p.t0) == (10.0, 50.0, 2000.0)
    for field, value in (("S", 3.0), ("L2", 6.0), ("t0", 60.0)):
        q = WeightParams(**{field: value})
        assert getattr(q, field) == value
        assert all(getattr(q, f) == getattr(p, f) for f in ("S", "L2", "t0") if f != field)
    assert CriticalZero(gamma=5.0, radius=1e-9) == CriticalZero(5.0, 1e-9)
    chi = real_primitive_character(5)
    fields = ("modulus", "values", "parity", "real", "conductor")
    assert DirichletCharacter(**{f: getattr(chi, f) for f in fields}) == chi
    assert chi(7) == chi.values[2] and chi.primitive and not chi.is_principal
    assert chi.conjugate() == chi


@pytest.mark.parametrize(
    "build",
    [
        lambda: DirichletCharacter(3, (1 + 0j,), 1, True, 1),
        lambda: DirichletCharacter(0, (), 1, True, 1),
        lambda: LocalFactorParams(u=0.0, v=0, betas=ZERO),
        lambda: LocalFactorParams(u=1.5, v=0, betas=ZERO),
        lambda: LocalFactorParams(u=0.4, v=0, betas=ZERO),
        lambda: LocalFactorParams(u=1.0, v=0, betas=ZERO),
        lambda: LocalFactorParams(u=0.2, v=2, betas=ZERO),
        lambda: LocalFactorParams(u=0.2, v=0, betas=(0j,)),
        lambda: LocalFactorParams(u=0.2, v=0, betas=ZERO + (0j,)),
        lambda: CriticalZero(10.0, 1e-8),
        lambda: CriticalZero(10.0, math.nan),
        lambda: CriticalZero(0.0, 1e-9),
        lambda: CriticalZero(-1.0, 1e-9),
        lambda: WeightParams(S=0.0),
        lambda: WeightParams(L2=-1.0),
        lambda: WeightParams(t0=math.nan),
        lambda: WeightParams(10.0, math.inf, 60.0),
    ],
)
def test_invalid_values_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_weight_params_key_the_panel_layout_cache():
    smoothing._panel_layout.cache_clear()
    first = smoothing._panel_layout(8, WeightParams(10.0, 6.0, 60.0))
    again = smoothing._panel_layout(8, WeightParams(10.0, 6.0, 60.0))
    assert again is first
    assert smoothing._panel_layout.cache_info().hits == 1
    assert smoothing._panel_layout(8, WeightParams(10.0, 6.0, 61.0)) is not first


def test_scan_result_is_a_sequence_of_its_zeros():
    zs = (CriticalZero(1.0, 1e-9), CriticalZero(2.0, 1e-9), CriticalZero(3.0, 1e-9))
    scan = ScanResult(zs, ((4.0, 4.5),), 2)
    assert len(scan) == 3
    assert scan[0] == zs[0] and scan[-1] == zs[2] and scan[1:] == zs[1:]
    assert list(scan) == list(zs) and list(reversed(scan)) == list(zs[::-1])
    assert zs[1] in scan and scan.index(zs[2]) == 2
    assert (scan.flagged, scan.panels) == (((4.0, 4.5),), 2)
    empty = ScanResult(())
    assert len(empty) == 0 and list(empty) == []
    assert (empty.flagged, empty.panels) == ((), 1)


def test_integrate_returns_a_quadrature_result():
    res = integrate(lambda x: 1.0, 0.0, 2.0)
    assert isinstance(res, QuadratureResult)
    assert res.evaluations == 15 and abs(res.value - 2.0) < 1e-15
    res = integrate_panels(lambda x: 1.0, 0.0, 2.0, 3)
    assert isinstance(res, QuadratureResult)
    assert res.evaluations == 45 and abs(res.value - 2.0) < 1e-15


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightParams()._replace(L2=-1.0),
        lambda: CriticalZero._make((-5.0, 1.0)),
        lambda: LocalFactorParams._make((0.3, 5, ())),
        lambda: real_primitive_character(5)._replace(modulus=7),
    ],
)
def test_make_and_replace_validate(build):
    # the namedtuple helpers build through the validating constructor
    with pytest.raises(DomainError):
        build()


def test_valid_replace_keeps_type_and_value():
    p = WeightParams()._replace(L2=6.0)
    assert type(p) is WeightParams and p == WeightParams(10.0, 6.0, 2000.0)
    z = CriticalZero._make((5.0, 1e-9))
    assert type(z) is CriticalZero and z == CriticalZero(5.0, 1e-9)
    params = LocalFactorParams(0.2, 1, ZERO)._replace(v=-1)
    assert type(params) is LocalFactorParams and params == LocalFactorParams(0.2, -1, ZERO)
    chi = real_primitive_character(5)
    assert chi._replace() == chi and type(chi._replace()) is DirichletCharacter
