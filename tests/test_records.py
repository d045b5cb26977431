"""The record classes: field-wise equality (same class only), hashing and
repr, read-only fields, and constructors that take their fields by position
or by keyword.  VerifySummary alone stays mutable."""

import copy
import pickle
from fractions import Fraction

import pytest

from akzeta.combinatorics import Composition
from akzeta.errors import Record
from akzeta.identities import IdentityCase, IdentityReport, VerifySummary
from akzeta.numerics import Evaluation, PrecisionContext


def _recipe(params, ctx):
    return 1.0, 1.0, 0.0, 0.0, "exact"


_REPORT = dict(id="ID", params={"m": 1}, lhs=1.0, rhs=1.0, abs_diff=0.0, bound=0.1,
               bound_kind="rigorous", passed=True)

# per class: an instance built by position, the same one built by keyword,
# and one that differs from it in a single field
CASES = [
    (Composition((1, 2)), Composition(parts=[1, 2]), Composition((2, 1))),
    (PrecisionContext(30, 500), PrecisionContext(default_cutoff=500, digits=30),
     PrecisionContext(30)),
    (Evaluation(Fraction(3, 2), 0.25, "rigorous", "dp", 64),
     Evaluation(value=Fraction(3, 2), bound=0.25, bound_kind="rigorous", method="dp",
                cutoff_used=64),
     Evaluation(Fraction(3, 2), 0.25, "estimated", "dp", 64)),
    (IdentityCase("ID", "an identity", _recipe, ({},)),
     IdentityCase(id="ID", description="an identity", recipe=_recipe, grid=({},)),
     IdentityCase("ID", "an identity", _recipe, ({"m": 1},))),
    (IdentityReport(*_REPORT.values()), IdentityReport(**_REPORT, seconds=0.0),
     IdentityReport(**_REPORT, seconds=2.0)),
    (VerifySummary(), VerifySummary(reports=[]), VerifySummary([IdentityReport(**_REPORT)])),
]
IDS = [type(a).__name__ for a, _, _ in CASES]
FROZEN = CASES[:-1]


@pytest.mark.parametrize("a, b, other", CASES, ids=IDS)
def test_equality_by_value_and_class(a, b, other):
    assert a == b and not a != b
    assert a != other
    # a record of another class with the same fields is not equal
    twin = type("Twin", (Record,), {"__slots__": type(a).__slots__})()
    twin._set(*a._fields())
    assert twin._fields() == a._fields() and a != twin and twin != a
    assert a != a._fields()


@pytest.mark.parametrize("a, b, other", CASES, ids=IDS)
def test_repr_names_the_fields(a, b, other):
    text = repr(a)
    assert text.startswith(type(a).__name__ + "(")
    for name in type(a).__slots__:
        assert f"{name}={getattr(a, name)!r}" in text


@pytest.mark.parametrize("a, b, other", FROZEN, ids=IDS[:-1])
def test_fields_are_read_only(a, b, other):
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("a, b, other", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(a, b, other):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a


def test_value_records_are_dict_keys():
    for a, b, other in CASES[:2]:
        assert hash(a) == hash(b)
        table = {a: "a", other: "other"}
        assert table[b] == "a" and len(table) == 2
    assert len({Composition.of(1, 2), Composition.parse("1,2"), Composition.of(3)}) == 2


def test_defaults_and_with_cutoff():
    assert PrecisionContext() == PrecisionContext(50, 100_000)
    assert Composition([1, 2]).parts == (1, 2)  # any sequence, kept as a tuple
    assert IdentityReport(**_REPORT).seconds == 0.0
    ctx = PrecisionContext(20)
    assert ctx.with_cutoff(64) == PrecisionContext(20, 64)
    assert ctx.default_cutoff == 100_000


def test_verify_summary_stays_mutable():
    s = VerifySummary()
    assert s.reports == [] and s.reports is not VerifySummary().reports
    s.reports.append(IdentityReport(**_REPORT))
    s.reports = s.reports[:1]
    assert s.n_pass == 1 and s.all_passed
    with pytest.raises(TypeError):
        hash(s)
