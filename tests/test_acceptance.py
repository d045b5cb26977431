"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from akzeta.combinatorics import Composition, dual, admissible_compositions
from akzeta.evaluator import (eval_hurwitz_mzv, eval_t, eval_li, eval_ak_lhs,
                              eval_ak_rhs, eval_euler_transform, _nested)
from akzeta.harmonic_bell import harmonic_table, bell_modified, d_operator
from akzeta.identities import verify, _betaratio_exact
from akzeta.numerics import PrecisionContext, zeta_em, beta_factor_exact, RIGOROUS
from akzeta.powerseries import ak_bernoulli_polys, classical_bernoulli_polynomial
from test_evaluator import _t_at_fixed

CTX = PrecisionContext(default_cutoff=60000)


def report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_duality_involution():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for c in admissible_compositions(12):
        d = dual(c)
        ok &= dual(d) == c
        ok &= d.weight == c.weight
        ok &= c.depth + d.depth == c.weight
        count += 1
    elapsed = time.perf_counter() - t0
    ok &= count == 2047  # 2^{w-2} tuples per weight w, summed for w = 2..12
    ok &= elapsed < 1.0
    report(1, "duality involution, weight <= 12", ok)


def test_criterion_02_numeric_duality():
    ok = True
    for c in admissible_compositions(7):
        a = eval_hurwitz_mzv(c, 0.0, CTX)
        b = eval_hurwitz_mzv(dual(c), 0.0, CTX)
        ok &= abs(a.value - b.value) <= a.bound + b.bound
        ok &= a.bound <= 1e-8 and b.bound <= 1e-8
    report(2, "numeric duality, weight <= 7", ok)


def test_criterion_03_beta_ratio_exact():
    ok = True
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)):
        ok &= _betaratio_exact(20, 8, x)
    report(3, "exact beta-ratio coefficients, n <= 20, m <= 8", ok)


def test_criterion_04_kernel_factorization_exact():
    ok = True
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
              Fraction(-2, 5)):
        for n in range(1, 21):
            tab = harmonic_table(n, 6, x)
            B = beta_factor_exact(n, x)
            P = bell_modified(tab[n])
            for m in range(7):
                ok &= d_operator(n, m + 1, x) == B * P[m]
    report(4, "exact kernel factorization, n <= 20, m <= 6", ok)


def test_criterion_05_apery():
    t0 = time.perf_counter()
    lhs = 0.5 * eval_ak_lhs((1,), 1.0, 1, -0.5, CTX).value
    ref = 7.0 * float(zeta_em(3, 0.0, CTX).value)
    ok = abs(lhs - ref) <= 1e-6 and (time.perf_counter() - t0) < 60.0
    report(5, "inverse-binomial series for 7 zeta(3)", ok)


def test_criterion_06_cor3_family():
    ok = True
    for m, factor in ((0, 7.0), (1, 45.0), (2, 93.0)):
        lhs = 2.0 ** (-m) * eval_ak_lhs((1, 1), 1.0, m, -0.5, CTX).value
        scale = 2.0 ** (m + 1) / ((m + 1) * (m + 2) * (2.0 ** (m + 3) - 1))
        ref = float(zeta_em(m + 3, 0.0, CTX).value)
        ok &= abs(scale * lhs - ref) <= 1e-6
        # cross-check the stated prefactors: 7, 45, 93
        ok &= abs(lhs / ref - factor / (scale * factor)) <= 1e-6 * factor
    report(6, "harmonic-weighted sums for 7z(3), 45z(4), 93z(5)", ok)


def test_criterion_07_cor4():
    from akzeta.combinatorics import weak_compositions
    ok = True
    for q, m in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1)]:
        lhs = 2.0 ** (-(q + 1) - m) * eval_ak_lhs((q,), 1.0, m, -0.5, CTX).value
        rhs = 0.0
        for d in weak_compositions(m, q):
            parts = tuple(di + 1 for di in d[:-1]) + (d[-1] + 2,)
            rhs += (d[-1] + 1) * eval_t(parts, CTX).value
        ok &= abs(lhs - rhs) <= 1e-6
        if q == 1 and m == 0:
            ok &= abs(lhs - math.pi**2 / 8) <= 1e-6
    report(7, "central-binomial sums vs odd-index values", ok)


def test_criterion_08_arcsin_table():
    rows = [(4.0, 36, 1e-10), (2.0, 16, 1e-8),
            (8.0 + 4.0 * math.sqrt(3.0), 144, 1e-10)]
    ok = True
    for p, denom, tol in rows:
        v = 0.5 * float(eval_euler_transform(p, 1, -0.5, CTX).value)
        ok &= abs(v - math.pi**2 / denom) <= tol
    report(8, "alternating odd-harmonic table rows", ok)


def test_criterion_09_bell_weighted_grid():
    ok = True
    for c in admissible_compositions(5):
        for m in (0, 1, 2):
            for x in (0.0, 0.5, -0.5):
                lhs = eval_ak_lhs(dual(c).alpha(), 1.0, m, x, CTX)
                rhs = eval_ak_rhs(c.alpha(), m, x, CTX)
                bound = lhs.bound + rhs.bound
                ok &= abs(lhs.value - rhs.value) <= bound
                ok &= bound <= 1e-6
    report(9, "Bell-weighted grid, weight <= 5, m <= 2", ok)


def test_criterion_10_transform_p3():
    ok = True
    for m in (0, 1, 2):
        for x in (0.0, -0.5):
            a = eval_ak_lhs((1,), 3.0, m, x, CTX).value
            b = float(eval_euler_transform(3.0, m + 1, x, CTX).value)
            ok &= abs(a - b) <= 1e-8
    report(10, "geometric vs alternating transform at p = 3", ok)


def test_criterion_11_clausen():
    from akzeta.numerics import clausen
    theta = math.pi / 3
    for order in (2, 3):
        for t in (theta, math.pi - theta):
            assert clausen(order, t, CTX).bound <= 1e-8
    r = verify("CLAUSEN_M1", {"p": 4.0}, CTX)
    report(11, "Clausen closed form at p = 4", r.passed and r.abs_diff <= 1e-6)


def test_criterion_12_bernoulli_polynomials():
    polys = ak_bernoulli_polys(Composition.of(1), 1, 10)
    ok = all(polys[m] == classical_bernoulli_polynomial(m) for m in range(11))
    r = verify("GENFUN_B", None, CTX)
    ok &= r.passed and r.abs_diff <= 1e-25
    report(12, "Bernoulli-type polynomials: exact and generating function", ok)


def _mpf(value):
    """A float or Fraction value as an mpf at the current precision."""
    num, den = value.as_integer_ratio()
    return mp.mpf(num) / den


def _euler_direct(p, s, x):
    """sum_{n >= 1} (-1)^{n+1} H_n^{(s)}(x) / (n (p-1)^n) summed directly in
    mpmath; with p - 1 >= 2 the terms past n = 400 are below 2^-400."""
    q, xm = mp.mpf(p) - 1, mp.mpf(x)
    h = total = mp.mpf(0)
    for n in range(1, 400):
        h += (n + xm) ** -s
        total += (-1) ** (n + 1) * h / (n * q**n)
    return total


def test_criterion_13_bound_honesty():
    small = PrecisionContext(default_cutoff=8000)
    big = PrecisionContext(default_cutoff=32000)
    # each call with the same sum at one fixed cutoff, and mpmath's value
    # where mpmath has it (zeta(s, 1+x), polylog, COR2 closed forms)
    fixed = (20000,)
    with mp.workdps(70):
        z = mp.zeta
        calls = [
            (lambda c: eval_hurwitz_mzv((2,), 0.0, c),
             lambda: _nested((2,), 0.0, None, None, fixed), z(2)),
            (lambda c: eval_hurwitz_mzv((1, 2), 0.0, c),
             lambda: _nested((1, 2), 0.0, None, None, fixed), z(3)),
            (lambda c: eval_hurwitz_mzv((1, 1, 2), 0.5, c),
             lambda: _nested((1, 1, 2), 0.5, None, None, fixed), None),
            (lambda c: eval_hurwitz_mzv((2, 5), 0.0, c),
             lambda: _nested((2, 5), 0.0, None, None, fixed), None),
            (lambda c: eval_hurwitz_mzv((3, 4), -0.5, c),
             lambda: _nested((3, 4), -0.5, None, None, fixed), None),
            (lambda c: eval_hurwitz_mzv((1, 1, 1, 4), 0.0, c),
             lambda: _nested((1, 1, 1, 4), 0.0, None, None, fixed), None),
            (lambda c: eval_t((2,), c),
             lambda: _t_at_fixed((2,), fixed), z(2, 0.5) / 4),
            (lambda c: eval_t((1, 3), c),
             lambda: _t_at_fixed((1, 3), fixed), None),
            (lambda c: eval_t((1, 1, 2), c),
             lambda: _t_at_fixed((1, 1, 2), fixed), None),
            (lambda c: eval_li((1,), 0.5, c),
             lambda: _nested((1,), 0.0, None, Fraction(0.5), fixed), mp.polylog(1, 0.5)),
            (lambda c: eval_li((2,), -0.75, c),
             lambda: _nested((2,), 0.0, None, Fraction(-0.75), fixed), mp.polylog(2, -0.75)),
            (lambda c: eval_li((1, 1), 0.9, c),
             lambda: _nested((1, 1), 0.0, None, Fraction(0.9), fixed),
             mp.log(1 - mp.mpf(0.9)) ** 2 / 2),
            (lambda c: eval_ak_lhs((1,), 1.0, 0, 0.0, c),
             lambda: _nested((1,), 0.0, (0, 0.0), None, fixed), z(2)),
            (lambda c: eval_ak_lhs((1,), 1.0, 1, -0.5, c),
             lambda: _nested((1,), 0.0, (1, -0.5), None, fixed), 14 * z(3)),
            (lambda c: eval_ak_lhs((1, 1), 1.0, 2, 0.5, c),
             lambda: _nested((1, 1), 0.0, (2, 0.5), None, fixed), None),
            (lambda c: eval_ak_lhs((2,), 1.0, 1, 0.25, c),
             lambda: _nested((2,), 0.0, (1, 0.25), None, fixed), None),
            (lambda c: eval_ak_lhs((1,), 4.0, 1, -0.5, c),
             lambda: _nested((1,), 0.0, (1, -0.5), 1 / Fraction(4.0), fixed), None),
            (lambda c: eval_ak_lhs((1, 2), 3.0, 0, 0.0, c),
             lambda: _nested((1, 2), 0.0, (0, 0.0), 1 / Fraction(3.0), fixed), None),
            # the transform's own series, summed directly in mpmath
            (lambda c: eval_euler_transform(3.0, 2, 0.0, c),
             None, _euler_direct(3.0, 2, 0.0)),
            (lambda c: eval_euler_transform(5.0, 1, -0.5, c),
             None, _euler_direct(5.0, 1, -0.5)),
        ]
        ok = True
        for f, at_fixed, exact in calls:
            a, b = f(small), f(big)
            assert a.bound_kind == RIGOROUS
            ok &= abs(float(a.value) - float(b.value)) <= a.bound
            ref = at_fixed() if at_fixed else None
            for ev in (a, b):
                if ref is not None:
                    ok &= abs(ev.value - ref.value) <= ev.bound + ref.bound
                if exact is not None:
                    ok &= abs(_mpf(ev.value) - exact) <= ev.bound
        ok &= len(calls) == 20
    report(13, "bound honesty: fixed cutoff 20000 and mpmath, 20 sampled calls", ok)
