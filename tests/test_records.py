"""The contract of the package's records, pinned as the frozen dataclasses
they replaced behaved: construction by position and by keyword, the
validation of KVector, Point, Sphere and Plane, repr, hash,
FrozenInstanceError on assigning or deleting a field, vars() in field
order, and copy, deepcopy and pickle round trips.  Two changes from the
dataclasses: == compares array fields by value (a dataclass compared field
tuples, which raised ValueError on two equal arrays), and SuiteResult is
frozen like the others.  The records are plain classes, so
dataclasses.fields, asdict, replace and is_dataclass no longer apply to
them.
"""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spin42 import (
    AntilinearOp,
    CheckReport,
    ConformalMatrix6,
    Infinity,
    InfinityReport,
    IsotropicPlaneE,
    KVector,
    LinearOp,
    Plane,
    Point,
    ProjectiveNullLine,
    Sphere,
    SpinElement,
    SpinorLine,
    SpinorPlane,
)
from spin42.errors import InvalidEntity
from spin42.suites import SuiteResult

# (type, its fields in order with the values passed, the repr of the record
# built from them): every record type of the package
RECORDS = [
    (AntilinearOp, {"m": np.array([1j, 0.0])}, "AntilinearOp(m=array([0.+1.j, 0.+0.j]))"),
    (LinearOp, {"m": np.array([[1.0, 2.0]])}, "LinearOp(m=array([[1., 2.]]))"),
    (CheckReport, {"checks_run": 36, "max_deviation": 0.0, "passed": True},
     "CheckReport(checks_run=36, max_deviation=0.0, passed=True)"),
    (KVector, {"k": 1, "coeffs": [1, 2j, 0, -1]},
     "KVector(k=1, coeffs=array([ 1.+0.j,  0.+2.j,  0.+0.j, -1.+0.j]))"),
    (ProjectiveNullLine, {"rep": np.array([1.0, 0, 0, 1, 0, 0])},
     "ProjectiveNullLine(rep=array([1., 0., 0., 1., 0., 0.]))"),
    (SpinorPlane, {"b1": np.array([1, 0, 0, 1j]), "b2": np.array([0, 1.0, 1, 0])},
     "SpinorPlane(b1=array([1.+0.j, 0.+0.j, 0.+0.j, 0.+1.j]), b2=array([0., 1., 1., 0.]))"),
    (SpinorLine, {"rep": np.array([1, 0, 1, 0j])},
     "SpinorLine(rep=array([1.+0.j, 0.+0.j, 1.+0.j, 0.+0.j]))"),
    (IsotropicPlaneE, {"x1": np.array([1.0, 0, 0, 1, 0, 0]), "x2": np.array([0, 1.0, 0, 0, 0, 1])},
     "IsotropicPlaneE(x1=array([1., 0., 0., 1., 0., 0.]), x2=array([0., 1., 0., 0., 0., 1.]))"),
    (Point, {"p": [1, 2, 3]}, "Point(p=array([1., 2., 3.]))"),
    (Infinity, {}, "Infinity()"),
    (Sphere, {"center": [1, 0, 0], "signed_radius": 2},
     "Sphere(center=array([1., 0., 0.]), signed_radius=2.0)"),
    (Plane, {"normal": (0, 0, 1), "offset": -2}, "Plane(normal=array([0., 0., 1.]), offset=-2.0)"),
    (InfinityReport, {"sample_count": 10, "fixed_sphere_max_drift": 0.0, "missing_confirmed": True,
                      "min_matching_residual": 0.5, "lightcone_image_class": "none"},
     "InfinityReport(sample_count=10, fixed_sphere_max_drift=0.0, missing_confirmed=True,"
     " min_matching_residual=0.5, lightcone_image_class='none')"),
    (SpinElement, {"m": np.array([[1j, 0], [0, 1j]])},
     "SpinElement(m=array([[0.+1.j, 0.+0.j],\n       [0.+0.j, 0.+1.j]]))"),
    (ConformalMatrix6, {"l": np.array([[1.0, 0.0], [0.0, 1.0]])},
     "ConformalMatrix6(l=array([[1., 0.],\n       [0., 1.]]))"),
    (SuiteResult, {"suite_name": "clifford", "checks_run": 74, "max_deviation": 0.0, "passed": True,
                   "errata_notes": ["note"]},
     "SuiteResult(suite_name='clifford', checks_run=74, max_deviation=0.0, passed=True,"
     " errata_notes=['note'])"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# the records whose every field is hashable, the one with its own ==, and
# the ones holding an array
HASHABLE = (CheckReport, Infinity, InfinityReport)
OWN_EQ = (ProjectiveNullLine,)
ARRAYS = [case for case in RECORDS
          if any(isinstance(v, np.ndarray) for v in vars(case[0](**case[1])).values())]


def _same_fields(a, b) -> bool:
    """Whether a and b hold fields of the same names, order, types and
    values."""
    va, vb = vars(a), vars(b)
    return list(va) == list(vb) and all(
        type(va[k]) is type(vb[k]) and np.array_equal(va[k], vb[k]) for k in va)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert _same_fields(by_position, by_keyword)
    assert list(vars(by_position)) == list(fields) == list(cls.__match_args__)
    assert repr(by_position) == repr(by_keyword) == text


def test_construction_converts_and_defaults():
    assert vars(KVector(1, [1, 2j, 0, -1]))["coeffs"].dtype == complex
    assert vars(Point([1, 2, 3]))["p"].dtype == float
    sphere = Sphere([0, 0, 0], 1)
    assert type(sphere.signed_radius) is float and type(Plane([0, 0, 1], 2).offset) is float
    a, b = SuiteResult("spin", 1, 0.0, True), SuiteResult("spin", 1, 0.0, True)
    assert a.errata_notes == [] and a.errata_notes is not b.errata_notes
    assert repr(a) == ("SuiteResult(suite_name='spin', checks_run=1, max_deviation=0.0,"
                       " passed=True, errata_notes=[])")
    notes = ["note"]
    assert SuiteResult("spin", 1, 0.0, True, notes).errata_notes is notes


@pytest.mark.parametrize("build, error, message", [
    (lambda: KVector(5, [1]), ValueError, "grade 5 outside 0..4"),
    (lambda: KVector(-1, [1]), ValueError, "grade -1 outside 0..4"),
    (lambda: KVector(1, [1, 2]), ValueError, "grade-1 coefficients of shape (2,), not (4,)"),
    (lambda: Point([1, 2]), InvalidEntity, "expected a 3-vector, got shape (2,)"),
    (lambda: Point([np.nan, 0, 0]), InvalidEntity, "non-finite components in 3-vector"),
    (lambda: Sphere([1, 2], 1), InvalidEntity, "expected a 3-vector, got shape (2,)"),
    (lambda: Sphere([0, 0, 0], "x"), ValueError, "could not convert string to float: 'x'"),
    (lambda: Plane([0, 0], 1), InvalidEntity, "expected a 3-vector, got shape (2,)"),
    (lambda: Plane([0, 0, 1], None), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_records_validate_only_what_they_validated_before():
    # the records check shape and finiteness; the lie_embed gates judge the rest
    assert repr(Point([1e200, 0, 0])) == "Point(p=array([1.e+200, 0.e+000, 0.e+000]))"
    assert Sphere([0, 0, 0], np.inf).signed_radius == np.inf
    assert np.array_equal(Plane([0, 0, 0], 1).normal, [0, 0, 0])


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields, text):
    a = cls(*fields.values())
    assert a == a and a == copy.copy(a)
    assert a != object() and not a == 0
    if cls in HASHABLE:
        assert a == cls(*fields.values())
        assert hash(a) == hash(cls(*fields.values())) == hash(tuple(fields.values()))
        return
    with pytest.raises(TypeError, match="unhashable type"):
        hash(a)


def test_equality_cases():
    assert hash(Infinity()) == hash(()) and Infinity() == Infinity()
    assert CheckReport(36, 0.0, True) == CheckReport(36, 0.0, True)
    assert CheckReport(36, 0.0, True) != CheckReport(36, 0.0, False)
    assert {CheckReport(1, 0.0, True): 1}[CheckReport(1, 0.0, True)] == 1
    # KVector: exact grade and coefficients; ProjectiveNullLine: the same class
    assert KVector(1, [1, 0, 0, 0]) == KVector(1, [1.0, 0, 0, 0])
    assert KVector(1, [1, 0, 0, 0]) != KVector(1, [1, 1e-15, 0, 0])
    assert KVector(0, [1]) != KVector(4, [1])
    line = ProjectiveNullLine(np.array([1.0, 0, 0, 1, 0, 0]))
    assert line == ProjectiveNullLine(np.array([1.0, 0, 0, 1, 0, 1e-12]))
    assert line != ProjectiveNullLine(np.array([1.0, 0, 0, -1, 0, 0]))
    for cls in OWN_EQ:
        assert cls.__hash__ is None
    assert Point([1, 2, 3]) != Infinity() and Infinity() != Point([1, 2, 3])
    assert Point([1, 2, 3]) == Point([1.0, 2.0, 3.0])
    assert SuiteResult("a", 1, 0.0, True) == SuiteResult("a", 1, 0.0, True)
    assert SuiteResult("a", 1, 0.0, True) != SuiteResult("b", 1, 0.0, True)
    # fields are compared by identity first, as in a tuple, so a record
    # holding a NaN equals itself and its copies
    worst = SuiteResult("a", 1, float("nan"), False)
    assert worst == worst == copy.copy(worst)


@pytest.mark.parametrize("cls, fields, text", ARRAYS, ids=[case[0].__name__ for case in ARRAYS])
def test_array_records_compare_by_value(cls, fields, text):
    record = cls(**fields)
    assert record == copy.deepcopy(record)
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            changed = value.copy()
            changed.flat[0] += 1
            assert record != cls(**{**vars(record), name: changed}), name


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, text):
    record = cls(*fields.values())
    before = repr(record)
    for name in [*fields, "other"]:
        with pytest.raises(FrozenInstanceError) as info:
            setattr(record, name, 0)
        assert str(info.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FrozenInstanceError) as info:
            delattr(record, name)
        assert str(info.value) == f"cannot delete field {name!r}"
    assert repr(record) == before


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_keep_every_field(cls, fields, text):
    record = cls(*fields.values())
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    pickled = pickle.loads(pickle.dumps(record))
    for other in (shallow, deep, pickled):
        assert type(other) is cls and _same_fields(other, record)
        assert repr(other) == text
    assert all(vars(shallow)[k] is v for k, v in vars(record).items())
    for k, v in vars(record).items():
        if isinstance(v, (np.ndarray, list)):
            assert vars(deep)[k] is not v and vars(pickled)[k] is not v


def test_importing_the_cli_loads_no_dataclasses_and_every_layer():
    # the benchmark's tracer imports spin42.cli to reach every layer module;
    # a layer registered lazily runs on its first attribute access, so every
    # one is run before dataclasses is looked for
    layers = ("suites", "exterior", "spin", "clifford", "isotropic", "liesphere", "forms",
              "sampling", "errata", "errors", "cli")
    code = ("import sys, types, spin42.cli\n"
            "print(*sys.modules)\n"
            f"for name in {layers!r}:\n"
            "    module = sys.modules[f'spin42.{name}']\n"
            "    module.__name__\n"
            "    assert type(module) is types.ModuleType, name\n"
            "print(*sys.modules)\n")
    registered, loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                        text=True, check=True).stdout.splitlines()
    assert "dataclasses" not in loaded.split()
    for name in layers:
        assert f"spin42.{name}" in registered.split()
