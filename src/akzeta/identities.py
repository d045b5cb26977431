"""Catalog of nested-sum identities and a numerical verification engine.

Each catalog entry names an identity and its default parameter grid.
``verify`` computes both sides through the evaluator (or in exact rational
arithmetic) and reports the residual against the combined error bound;
``verify_all`` sweeps the catalog.

A case passes when |lhs - rhs| <= combined bound, whatever its bound kind.
"""

from __future__ import annotations

import json
import math
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable

from .combinatorics import Composition, dual, binomial, admissible_compositions
from .errors import DomainError, Record
from .evaluator import (eval_hurwitz_mzv, eval_t, eval_ak_lhs, eval_ak_rhs,
                        eval_euler_transform, eval_prop2_series,
                        zeta_combination)
from .harmonic_bell import harmonic_table, bell_modified, d_operator
from .numerics import (PrecisionContext, DEFAULT_CTX, Evaluation, RIGOROUS,
                       ESTIMATED, zeta_em, clausen, beta_factor_exact, combination,
                       exact_sum, round_up, atan_series, machin_pi, cl2_modulus, decimal_unit)
from .powerseries import (series_inverse, ak_bernoulli_polys, classical_bernoulli_polynomial,
                          li_series)

__all__ = ["IdentityCase", "IdentityReport", "catalog", "verify",
           "verify_all", "VerifySummary"]

EXACT = "exact"


class IdentityCase(Record):
    """One identity: its id, recipe and default parameter grid.

    ``recipe(params, ctx)`` computes both sides and returns the report fields
    (lhs, rhs, abs_diff, bound, bound_kind).  The grid is never empty, and
    the keys of its first case are the parameters every case must give.
    """

    __slots__ = ("id", "description", "recipe", "grid")

    def __init__(self, id: str, description: str,
                 recipe: Callable[[dict, PrecisionContext], tuple], grid: tuple):
        self._set(id, description, recipe, grid)


class IdentityReport(Record):
    __slots__ = ("id", "params", "lhs", "rhs", "abs_diff", "bound", "bound_kind",
                 "passed", "seconds")

    def __init__(self, id: str, params: dict, lhs: float, rhs: float, abs_diff: float,
                 bound: float, bound_kind: str, passed: bool, seconds: float = 0.0):
        self._set(id, params, lhs, rhs, abs_diff, bound, bound_kind, passed, seconds)

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id,
            "params": {k: str(v) for k, v in self.params.items()},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_diff": self.abs_diff,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "pass": self.passed,
        })


class VerifySummary(Record):
    """The reports of a sweep; mutable, as :func:`verify_all` appends to them."""

    __slots__ = ("reports",)
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, reports: list | None = None):
        self.reports = [] if reports is None else reports

    @property
    def n_pass(self) -> int:
        return sum(r.passed for r in self.reports)

    @property
    def n_fail(self) -> int:
        return len(self.reports) - self.n_pass

    @property
    def worst(self) -> float:
        return max((r.abs_diff for r in self.reports), default=0.0)

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0


def _exact(equal: bool, value: float) -> tuple:
    return value, value, 0.0 if equal else math.nan, 0.0, EXACT


def _compare(lhs: Evaluation, rhs: Evaluation,
             scale: float | Fraction = 1.0) -> tuple:
    """Report fields for scale * lhs against rhs from their
    :func:`~akzeta.numerics.combination` scale * lhs - rhs: its exact
    |value| rounded up to a float, and its bound |scale| b_L + b_R, so that
    the residual is within the bound exactly when its float is.  A scale
    that no float holds is passed as a Fraction; the reported sides are
    each rounded to float once, from their integer ratios.
    """
    (sn, sd), (ln, ld) = scale.as_integer_ratio(), lhs.value.as_integer_ratio()
    d = combination(((scale, lhs), (-1, rhs)), "residual")
    return sn * ln / (sd * ld), float(rhs.value), round_up(abs(d.value)), d.bound, d.bound_kind


# ---------------------------------------------------------------- recipes

def _do_dual(params, ctx):
    c = params["alpha"]
    lhs = eval_hurwitz_mzv(c, 0.0, ctx)
    rhs = eval_hurwitz_mzv(dual(c), 0.0, ctx)
    return _compare(lhs, rhs)


def _do_thm3(params, ctx):
    c = params["alpha"]
    m, x = params["m"], params["x"]
    beta = dual(c).alpha()
    lhs = eval_ak_lhs(beta, 1.0, m, x, ctx)
    rhs = eval_ak_rhs(c.alpha(), m, x, ctx)
    return _compare(lhs, rhs)


def _do_eq53(params, ctx):
    c = params["alpha"]
    m = params["m"]
    a = c.alpha()
    lhs = eval_ak_lhs(dual(c).alpha(), 1.0, m, -0.5, ctx)
    rhs = zeta_combination(a, m, lambda k: eval_t(k, ctx))
    return _compare(lhs, rhs, 2.0 ** -(sum(a) + 1 + m))


def _do_cor2(params, ctx):
    r, m = params["r"], params["m"]
    lhs = eval_ak_lhs((1,) * r, 1.0, m, -0.5, ctx)
    scale = Fraction(1, binomial(r + m, m) * (2 ** (r + m + 1) - 1))
    oracle = zeta_em(r + m + 1, 0.0, ctx)
    return _compare(lhs, oracle, scale)


def _do_eq62(params, ctx):
    p, m, x = params["p"], params["m"], params["x"]
    lhs = eval_ak_lhs((1,), p, m, x, ctx)
    rhs = eval_euler_transform(p, m + 1, x, ctx)
    return _compare(lhs, rhs)


_ARCSIN_TABLE = [
    (4.0, 36),
    (2.0, 16),
    (8.0 + 4.0 * math.sqrt(3.0), 144),
    (6.0 + 2.0 * math.sqrt(5.0), 100),
    (2.0 * (5.0 + math.sqrt(5.0)) / 5.0, 25),
]


def _do_arcsin(params, ctx):
    p, denom = params["p"], params["denom"]
    lhs = eval_euler_transform(p, 1, -0.5, ctx)
    oracle = Fraction(math.pi**2 / denom)
    ev = Evaluation(value=oracle, bound=1e-15, bound_kind=RIGOROUS,
                    method="closed-form", cutoff_used=0)
    return _compare(lhs, ev, 0.5)


def _clausen_angles(p, digits: int) -> tuple:
    """theta = 2 asin(p^-1/2) and phi = pi - theta, as exact rationals formed
    in decimal at digits + 10, and bounds on their errors.  The quarter
    angle has tan(theta/4) = y = 1/(sqrt p + sqrt(p - 1)) in (0, 1]: theta
    is 4 atan(y) for y <= 1/2, and phi is 4 atan((1 - y)/(1 + y)) above."""
    with localcontext(Context(prec=digits + 10)):
        pi, d_pi = machin_pi()
        pd = Decimal(float(p))  # the p of the sum, which takes it as a float
        # p - 1 and the two roots round once each: y is within u y
        y = 1 / (Fraction(pd.sqrt()) + Fraction((pd - 1).sqrt()))
        d_y = decimal_unit() * y
        if y <= Fraction(1, 2):
            a, d_a = atan_series(y)
            theta, d_theta = 4 * a, 4 * (d_a + d_y)
            return theta, pi - theta, d_theta, d_pi + d_theta
        a, d_a = atan_series((1 - y) / (1 + y))  # its argument moves by at most 2 d_y
        phi, d_phi = 4 * a, 4 * (d_a + 2 * d_y)
        return pi - phi, phi, d_pi + d_phi, d_phi


def _do_clausen_m1(params, ctx):
    p = params["p"]
    lhs = eval_ak_lhs((1,), p, 1, -0.5, ctx)
    theta, phi, d_theta, d_phi = _clausen_angles(p, ctx.digits)
    parts = ((-2, clausen(3, theta, ctx)), (2, clausen(3, phi, ctx)),
             (-theta, clausen(2, phi, ctx)), (-theta, clausen(2, theta, ctx)),
             (Fraction(7, 2), zeta_em(3, 0.0, ctx)))
    value = exact_sum((w, e.value) for w, e in parts)
    # the angles' errors move -2 Cl_3(theta) + 2 Cl_3(phi) - theta (Cl_2(phi)
    # + Cl_2(theta)) by at most 5 (d_theta + d_phi) plus 4 times Cl_2's shift
    # at each angle: Cl_3' = -Cl_2, |Cl_2| <= 1.015 and theta < 4
    shift = 5 * (d_theta + d_phi) + 4 * (cl2_modulus(theta, d_theta) + cl2_modulus(phi, d_phi))
    bound = round_up(exact_sum((abs(w), e.bound) for w, e in parts) + shift)
    rhs = Evaluation(value=value, bound=bound, bound_kind=RIGOROUS,
                     method="clausen-combination", cutoff_used=0)
    return _compare(lhs, rhs, 0.5)


def _do_prop2(params, ctx):
    c = params["alpha"]
    x, z = params["x"], params["z"]
    lhs = eval_hurwitz_mzv(c, x - z, ctx)
    rhs = eval_prop2_series(c, x, z, params["m_terms"], ctx)
    return _compare(lhs, rhs)


def _do_trelation(params, ctx):
    k = params["k"]
    return _compare(eval_t((k,), ctx), zeta_em(k, 0.0, ctx), Fraction(2**k, 2**k - 1))


def _betaratio_exact(n_max: int, m: int, x: Fraction) -> bool:
    """Taylor coefficients of B(n,1+x-z)/B(n,1+x) = 1/prod_{j<=n}(1 - z/(j+x)) vs
    the modified Bell values, for n = 1..n_max, one linear factor at a time."""
    rows = harmonic_table(n_max, m, x)
    denom = [Fraction(1)] + [Fraction(0)] * m
    for n in range(1, n_max + 1):
        c = 1 / (n + x)
        for k in range(m, 0, -1):
            denom[k] -= c * denom[k - 1]
        if series_inverse(denom) != bell_modified(rows[n]):
            return False
    return True


# the exact checks of BETARATIO and PROP7 run over n = 1..12 at these x
_EXACT_N_MAX = 12
_EXACT_XS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3))


def _do_betaratio(params, ctx):
    ok = all(_betaratio_exact(_EXACT_N_MAX, 6, x) for x in _EXACT_XS)
    return _exact(ok, float(_EXACT_N_MAX))


def _do_prop7(params, ctx):
    m_max = 4
    ok = True
    for x in _EXACT_XS:
        rows = harmonic_table(_EXACT_N_MAX, m_max, x)
        for n in range(1, _EXACT_N_MAX + 1):
            B = beta_factor_exact(n, x)
            P = bell_modified(rows[n])
            ok &= all(d_operator(n, m + 1, x) == B * P[m] for m in range(m_max + 1))
    return _exact(ok, float(_EXACT_N_MAX))


def _do_bern_classic(params, ctx):
    m_max = 10
    polys = ak_bernoulli_polys(Composition.of(1), 1, m_max)
    ok = all(polys[m] == classical_bernoulli_polynomial(m)
             for m in range(m_max + 1))
    return _exact(ok, float(m_max))


def _do_genfun_b(params, ctx):
    # B^v_{2,m}(1/3) for m = 0..30 against the generating function at t = 1/10
    v = params["v"]
    p, x, m_max = 2, Fraction(1, 3), 30
    polys = ak_bernoulli_polys(v, p, m_max)
    with localcontext(Context(prec=60)):  # whatever the working precision
        t = Decimal(1) / 10
        xm = Decimal(x.numerator) / x.denominator
        lhs = Decimal(0)
        for m in range(m_max + 1):
            c = polys[m](x)
            lhs += Decimal(c.numerator) / c.denominator * t**m / math.factorial(m)
        w = (1 - (-t).exp()) / p
        # the polylogarithm at small argument from its exact coefficients
        rhs_li = sum(Decimal(c.numerator) / c.denominator * w**n
                     for n, c in enumerate(li_series(v, 79)))
        rhs = (xm * t).exp() / (t.exp() - 1) * rhs_li
        return float(lhs), float(rhs), float(abs(lhs - rhs)), 1e-25, ESTIMATED


# ---------------------------------------------------------------- catalog

def catalog() -> list[IdentityCase]:
    """The identity families.  A corollary of a theorem runs the theorem's
    recipe, with the corollary's fixed parameters written in its grid."""
    comps = {w: list(admissible_compositions(w)) for w in (4, 5, 6)}
    return [
        IdentityCase("DUAL", "equality of a nested zeta value and its dual",
                     _do_dual, tuple({"alpha": c} for c in comps[6])),
        IdentityCase("THM3", "Bell-weighted beta sum vs shifted zeta combination",
                     _do_thm3,
                     tuple({"alpha": c, "m": m, "x": x} for c in comps[4]
                           for m in (0, 1, 2) for x in (0.0, 0.5, -0.5))),
        IdentityCase("EQ13_X0", "x = 0 specialization of THM3",
                     _do_thm3,
                     tuple({"alpha": c, "m": m, "x": 0.0}
                           for c in comps[5] for m in (0, 1, 2))),
        IdentityCase("XI_Q", "single-index Bell-weighted sum vs zeta combination",
                     _do_thm3,
                     tuple({"alpha": dual(Composition.of(q + 1)), "m": m, "x": 0.0}
                           for q in (1, 2, 3) for m in (0, 1, 2))),
        IdentityCase("EQ53", "inverse-binomial sum vs odd-zeta combination",
                     _do_eq53,
                     tuple({"alpha": c, "m": m} for c in comps[4] for m in (0, 1, 2))),
        IdentityCase("COR2", "zeta(r+m+1) from an inverse-binomial sum",
                     _do_cor2,
                     tuple({"r": r, "m": m}
                           for (r, m) in ((1, 0), (1, 1), (1, 2), (2, 1), (3, 0)))),
        IdentityCase("APERY", "classical inverse-binomial series for zeta(3)",
                     _do_cor2, ({"r": 1, "m": 1},)),
        IdentityCase("COR3_M0", "7 zeta(3) from a harmonic-weighted binomial sum",
                     _do_cor2, ({"r": 2, "m": 0},)),
        IdentityCase("COR3_M1", "45 zeta(4) from a harmonic-weighted binomial sum",
                     _do_cor2, ({"r": 2, "m": 1},)),
        IdentityCase("COR3_M2", "93 zeta(5) from a harmonic-weighted binomial sum",
                     _do_cor2, ({"r": 2, "m": 2},)),
        IdentityCase("COR4_M0", "odd-zeta values from central-binomial sums, m = 0",
                     _do_eq53,
                     tuple({"alpha": Composition.from_alpha((1,) * q), "m": 0} for q in (1, 2, 3))),
        IdentityCase("COR4_M1", "odd-zeta values from central-binomial sums, m = 1",
                     _do_eq53,
                     tuple({"alpha": Composition.from_alpha((1,) * q), "m": 1} for q in (1, 2))),
        IdentityCase("EQ62", "geometric Bell sum vs alternating harmonic sum",
                     _do_eq62,
                     tuple({"p": p, "m": m, "x": x}
                           for p in (2.0, 3.0, 4.0) for m in (0, 1, 2)
                           for x in (0.0, -0.5))),
        IdentityCase("EQ63", "x = -1/2 variant of the transform identity",
                     _do_eq62,
                     tuple({"p": p, "m": m, "x": -0.5}
                           for p in (2.0, 3.0, 4.0) for m in (0, 1))),
        IdentityCase("ARCSIN", "alternating odd-harmonic sums equal to pi^2/k",
                     _do_arcsin,
                     tuple({"p": p, "denom": d} for (p, d) in _ARCSIN_TABLE)),
        IdentityCase("CLAUSEN_M1", "m = 1 inverse-binomial sum via Clausen values",
                     _do_clausen_m1, ({"p": 4.0},)),
        IdentityCase("BETARATIO", "exact beta-ratio Taylor coefficients",
                     _do_betaratio, ({},)),
        IdentityCase("PROP7", "exact alternating-binomial kernel factorization",
                     _do_prop7, ({},)),
        IdentityCase("PROP2", "power-series expansion of the shifted zeta value",
                     _do_prop2,
                     ({"alpha": Composition.of(2), "x": 0.5, "z": 0.25, "m_terms": 24},
                      {"alpha": Composition.of(1, 2), "x": 0.5, "z": 0.25, "m_terms": 24},
                      {"alpha": Composition.of(3), "x": 0.25, "z": -0.25, "m_terms": 24})),
        IdentityCase("GENFUN_B", "numeric generating-function consistency",
                     _do_genfun_b, ({"v": Composition.of(1, 2)},)),
        IdentityCase("BERN_CLASSIC", "collapse to classical Bernoulli polynomials",
                     _do_bern_classic, ({},)),
        IdentityCase("TRELATION", "depth-1 odd sums t(k) = (1 - 2^-k) zeta(k), "
                     "against Euler-Maclaurin",
                     _do_trelation, tuple({"k": k} for k in range(2, 17))),
    ]


_CASES = {c.id: c for c in catalog()}


def _case(id_: str) -> IdentityCase:
    case = _CASES.get(id_)
    if case is None:
        raise DomainError(f"unknown identity id {id_!r}")
    return case


def verify(id_: str, params: dict | None = None,
           ctx: PrecisionContext = DEFAULT_CTX) -> IdentityReport:
    case = _case(id_)
    params = dict(params) if params else dict(case.grid[0])
    missing = sorted(case.grid[0].keys() - params.keys())
    unknown = sorted(params.keys() - case.grid[0].keys())
    if missing or unknown:
        raise DomainError(f"{id_} takes parameters {', '.join(case.grid[0]) or 'none'}; "
                          f"missing {', '.join(missing) or 'none'}, "
                          f"unknown {', '.join(unknown) or 'none'}")
    for key in ("alpha", "v"):  # the exponent-tuple parameters
        if key in params:
            params[key] = Composition.coerce(params[key])
    t0 = time.perf_counter()
    lhs, rhs, diff, bound, kind = case.recipe(params, ctx)
    return IdentityReport(id=id_, params=params, lhs=lhs, rhs=rhs, abs_diff=diff,
                          bound=bound, bound_kind=kind, passed=diff <= bound,
                          seconds=time.perf_counter() - t0)


def verify_all(id_: str | None = None,
               ctx: PrecisionContext = DEFAULT_CTX) -> VerifySummary:
    """Every grid case of the family ``id_``, or of the whole catalog."""
    summary = VerifySummary()
    for case in (_CASES.values() if id_ is None else (_case(id_),)):
        for params in case.grid:
            summary.reports.append(verify(case.id, dict(params), ctx))
    return summary
