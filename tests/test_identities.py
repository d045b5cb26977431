import json

import pytest

from akzeta.combinatorics import Composition
from akzeta.errors import DomainError
from akzeta.identities import catalog, verify, verify_all
from akzeta.numerics import PrecisionContext

CTX = PrecisionContext(default_cutoff=20000)

EXPECTED_IDS = {
    "DUAL", "THM3", "EQ13_X0", "XI_Q", "EQ53", "COR2", "APERY",
    "COR3_M0", "COR3_M1", "COR3_M2", "COR4_M0", "COR4_M1",
    "EQ62", "EQ63", "ARCSIN", "CLAUSEN_M1", "BETARATIO", "PROP7",
    "PROP2", "GENFUN_B", "BERN_CLASSIC", "TRELATION",
}


def test_catalog_ids_complete_and_unique():
    ids = [c.id for c in catalog()]
    assert set(ids) == EXPECTED_IDS
    assert len(ids) == len(set(ids))


def test_catalog_case_counts():
    counts = {c.id: len(c.grid) for c in catalog()}
    expected = dict.fromkeys(EXPECTED_IDS, 1)
    expected.update(THM3=63, EQ13_X0=45, DUAL=31, EQ53=21, EQ62=18,
                    TRELATION=15, XI_Q=9, EQ63=6, COR2=5, ARCSIN=5,
                    COR4_M0=3, PROP2=3, COR4_M1=2)
    assert counts == expected
    assert sum(counts.values()) == 235


def test_catalog_classes():
    classes = {c.id: c.tolerance_class for c in catalog()}
    assert classes["BETARATIO"] == "exact"
    assert classes["BERN_CLASSIC"] == "exact"
    assert classes["APERY"] == "estimated"
    assert classes["DUAL"] == "rigorous"


def test_verify_unknown_id():
    with pytest.raises(DomainError):
        verify("BOGUS", None, CTX)


def test_verify_apery():
    r = verify("APERY", None, CTX)
    assert r.passed
    assert abs(r.rhs - 8.414398322117961) < 1e-9  # 7 zeta(3)
    assert r.abs_diff <= 1e-6


def test_verify_arcsin_rows():
    import math
    for p, denom in [(4.0, 36), (2.0, 16)]:
        r = verify("ARCSIN", {"p": p, "denom": denom}, CTX)
        assert r.passed
        assert abs(r.rhs - math.pi**2 / denom) < 1e-14


def test_verify_dual_params():
    r = verify("DUAL", {"alpha": Composition.of(1, 2)}, CTX)
    assert r.passed and r.abs_diff < 1e-10


def test_verify_accepts_plain_tuples():
    r = verify("DUAL", {"alpha": (1, 2)}, CTX)
    assert r.passed


def test_report_json_fields():
    r = verify("APERY", None, CTX)
    rec = json.loads(r.to_json())
    assert set(rec) == {"id", "params", "lhs", "rhs", "abs_diff", "bound",
                        "bound_kind", "pass"}
    assert rec["pass"] is True
    assert rec["id"] == "APERY"


@pytest.mark.parametrize("cap", [PrecisionContext().default_cutoff, 64])
def test_verify_all_rigorous_bounds_hold(cap):
    # the default cap, and a small one where uncounted float roundings show
    s = verify_all(ctx=PrecisionContext(default_cutoff=cap))
    assert len(s.reports) == 235 and s.all_passed
    for r in s.reports:
        if r.bound_kind == "rigorous":
            assert r.abs_diff <= r.bound, (r.id, r.params)


def test_verify_all_filter():
    s = verify_all(filter_prefix="COR4", ctx=CTX)
    assert {r.id for r in s.reports} == {"COR4_M0", "COR4_M1"}
    assert len(s.reports) == 5  # q in {1,2,3} at m=0 plus q in {1,2} at m=1
    assert s.all_passed


def test_verify_all_tolerance_class_filter():
    s = verify_all(tolerance_class="exact", ctx=CTX)
    assert {r.id for r in s.reports} == {"BETARATIO", "PROP7", "GENFUN_B",
                                         "BERN_CLASSIC"}
    assert s.all_passed


def test_verify_exact_cases():
    for id_ in ("BETARATIO", "PROP7", "BERN_CLASSIC"):
        r = verify(id_, None, CTX)
        assert r.passed
        assert r.bound == 0.0
        assert r.bound_kind == "exact"


def test_verify_thm3_instance():
    r = verify("THM3", {"alpha": Composition.of(1, 3), "m": 1, "x": -0.5}, CTX)
    assert r.passed
    assert r.abs_diff <= max(r.bound, 1e-6)


def test_verify_clausen_kind_follows_parts():
    # the Clausen values carry estimated bounds, so the combination does too
    r = verify("CLAUSEN_M1", None, CTX)
    assert r.passed
    assert r.bound_kind == "estimated"


@pytest.mark.parametrize("v", [(2, 2), (1, 1, 2), (3, 1, 2)])
def test_genfun_b_oracle_sums_any_index(v):
    # the direct Li_v sum of the oracle must nest over every part of v
    r = verify("GENFUN_B", {"v": Composition(v)})
    assert r.passed, r
