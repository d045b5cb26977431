import json
import math
from fractions import Fraction

import pytest

from akzeta.combinatorics import Composition
from akzeta.errors import DomainError
from akzeta.evaluator import eval_ak_lhs
from akzeta import cli, identities
from akzeta.identities import IdentityCase, catalog, verify, verify_all
from akzeta.numerics import RIGOROUS, Evaluation, PrecisionContext

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


def test_verify_unknown_id():
    with pytest.raises(DomainError):
        verify("BOGUS", None, CTX)
    with pytest.raises(DomainError):
        verify_all("BOGUS", CTX)
    with pytest.raises(DomainError):  # an id, not a prefix
        verify_all("COR4", CTX)


def test_verify_apery():
    r = verify("APERY", None, CTX)
    assert r.passed
    assert abs(r.rhs - 1.2020569031595942) < 1e-15  # zeta(3)
    assert r.abs_diff <= 1e-6


def test_derived_families_run_their_general_identity():
    # each corollary family is its theorem at fixed parameters, and reports
    # exactly what the theorem's family reports there
    general = {"XI_Q": "THM3", "COR3_M0": "COR2", "COR3_M1": "COR2",
               "COR3_M2": "COR2", "APERY": "COR2", "COR4_M0": "EQ53",
               "COR4_M1": "EQ53", "EQ63": "EQ62"}
    fields = ("lhs", "rhs", "abs_diff", "bound", "bound_kind")
    for case in catalog():
        for params in case.grid if case.id in general else ():
            derived = verify(case.id, params)
            theorem = verify(general[case.id], params)
            assert derived.passed, (case.id, params)
            assert ([getattr(derived, f) for f in fields]
                    == [getattr(theorem, f) for f in fields]), (case.id, params)


def test_verify_names_missing_parameters():
    with pytest.raises(DomainError, match="alpha, m, x; missing m, x"):
        verify("THM3", {"alpha": (2,)}, CTX)
    with pytest.raises(DomainError, match="missing alpha"):
        verify("XI_Q", {"q": 1, "m": 0}, CTX)
    with pytest.raises(DomainError, match="missing p"):
        verify("CLAUSEN_M1", {"m": 1}, CTX)


def test_verify_rejects_unknown_parameters():
    # a misspelt m_terms must not run silently with some default
    with pytest.raises(DomainError, match="alpha, x, z, m_terms; missing m_terms, unknown m_term$"):
        verify("PROP2", {"alpha": (2,), "x": 0.5, "z": 0.25, "m_term": 3}, CTX)
    # EQ62 is the p-only family: an alpha would be reported but never summed
    with pytest.raises(DomainError, match="unknown alpha"):
        verify("EQ62", {"p": 2.0, "m": 0, "x": 0.0, "alpha": (5,)}, CTX)


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
    r = verify("GENFUN_B", {"v": (1, 2)}, CTX)
    assert r.passed and r.params["v"] == Composition.of(1, 2)


def test_cor_scales_round_once():
    # COR2 and COR3 scale the lhs by factors that no float holds: the
    # reported lhs is the exact product rounded once, which the half ulp
    # that the bound counts for it covers
    cases = [("COR2", {"r": 1, "m": 0}, (1,), 0, Fraction(1, 3)),
             ("COR2", {"r": 1, "m": 1}, (1,), 1, Fraction(1, 14)),
             ("COR2", {"r": 1, "m": 2}, (1,), 2, Fraction(1, 45)),
             ("COR2", {"r": 2, "m": 1}, (1, 1), 1, Fraction(1, 45)),
             ("COR2", {"r": 3, "m": 0}, (1, 1, 1), 0, Fraction(1, 15)),
             ("COR3_M0", {"r": 2, "m": 0}, (1, 1), 0, Fraction(1, 7)),
             ("COR3_M1", {"r": 2, "m": 1}, (1, 1), 1, Fraction(1, 45)),
             ("COR3_M2", {"r": 2, "m": 2}, (1, 1), 2, Fraction(1, 186))]
    for id_, params, a, m, scale in cases:
        ev = eval_ak_lhs(a, 1.0, m, -0.5, CTX)
        r = verify(id_, params, CTX)
        assert r.lhs == float(Fraction(ev.value) * scale), (id_, params)
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
        assert r.abs_diff <= r.bound, (r.id, r.params)


@pytest.mark.parametrize("digits", [15, 30])
def test_verify_all_within_bounds_at_other_precisions(digits):
    s = verify_all(ctx=PrecisionContext(digits=digits))
    assert s.n_pass == len(s.reports) == 235
    for r in s.reports:
        assert r.abs_diff <= r.bound, (r.id, r.params)


def test_verify_fails_a_residual_above_its_bound(monkeypatch):
    # a residual within any loose tolerance but 1000 times its bound
    stub = IdentityCase("STUB", "residual above its bound",
                        lambda params, ctx: (1.0, 1.0 + 1e-9, 1e-9, 1e-12, "estimated"),
                        ({},))
    monkeypatch.setitem(identities._CASES, "STUB", stub)
    assert not verify("STUB").passed
    s = verify_all("STUB")
    assert s.n_fail == 1 and not s.all_passed
    assert cli.main(["verify", "STUB"]) == 1


def test_verify_fails_a_residual_just_above_its_float_bound(monkeypatch):
    # the residual 1/3 lies above its nearest float: a bound at that float fails,
    # one ulp more passes, and the reported residual is within the bound just then
    third = Fraction(1, 3)
    for bound, passes in ((float(third), False), (math.nextafter(float(third), 1.0), True)):
        lhs = Evaluation(value=third, bound=0.0, bound_kind=RIGOROUS, method="t", cutoff_used=0)
        rhs = Evaluation(value=Fraction(0), bound=bound, bound_kind=RIGOROUS, method="t",
                         cutoff_used=0)
        stub = IdentityCase("STUB", "residual at its bound",
                            lambda params, ctx: identities._compare(lhs, rhs), ({},))
        monkeypatch.setitem(identities._CASES, "STUB", stub)
        r = verify("STUB")
        assert r.bound == bound and r.passed is passes and (r.abs_diff <= r.bound) is passes


def test_verify_all_filter():
    s = verify_all("COR4_M0", CTX)
    assert {r.id for r in s.reports} == {"COR4_M0"}
    assert len(s.reports) == 3  # q in {1,2,3} at m=0
    assert s.all_passed


def test_verify_exact_cases():
    for id_ in ("BETARATIO", "PROP7", "BERN_CLASSIC"):
        r = verify(id_, None, CTX)
        assert r.passed
        assert r.bound == 0.0
        assert r.bound_kind == "exact"


def _last_plus_one(fn):
    """fn with 1 added to its last coefficient, or to its value."""
    def wrong(*args):
        out = fn(*args)
        return [*out[:-1], out[-1] + 1] if isinstance(out, list) else out + 1
    return wrong


@pytest.mark.parametrize("name, ids", [("bell_modified", ("BETARATIO", "PROP7")),
                                       ("d_operator", ("PROP7",))])
def test_exact_families_fail_on_a_wrong_side(monkeypatch, name, ids):
    # both exact checks compare every coefficient they build
    monkeypatch.setattr(identities, name, _last_plus_one(getattr(identities, name)))
    for id_ in ids:
        r = verify(id_)
        assert not r.passed
        assert math.isnan(r.abs_diff)


def test_verify_thm3_instance():
    r = verify("THM3", {"alpha": Composition.of(1, 3), "m": 1, "x": -0.5}, CTX)
    assert r.passed
    assert r.abs_diff <= r.bound


def test_verify_clausen_kind_follows_parts():
    # the Clausen values, zeta(3) and the angles' error all carry proven
    # bounds, so the combination does too
    r = verify("CLAUSEN_M1", None, CTX)
    assert r.passed
    assert r.bound_kind == "rigorous"
    # the angles are formed at the working precision: a float angle put the
    # value one ulp off, past the bound
    assert r.abs_diff <= r.bound


@pytest.mark.parametrize("v", [(2, 2), (1, 1, 2), (3, 1, 2)])
def test_genfun_b_oracle_sums_any_index(v):
    # the direct Li_v sum of the oracle must nest over every part of v
    r = verify("GENFUN_B", {"v": Composition(v)})
    assert r.passed, r
