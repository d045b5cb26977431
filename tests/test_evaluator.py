import decimal
import importlib
import math
import pkgutil
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import akzeta
from akzeta.combinatorics import Composition, dual, admissible_compositions
from akzeta.errors import DomainError, DivergenceError
from akzeta import evaluator
from akzeta.evaluator import (eval_hurwitz_mzv, eval_t, eval_li, eval_ak_lhs,
                              eval_ak_rhs, eval_euler_transform,
                              eval_prop2_series, clear_caches, _nested, _rungs,
                              _F, _below, _dp_nested, _dp_prefix, _geometric, _outer_arrays,
                              _power_weights, _product, _roundoff, _choose_cutoff,
                              _geom_row_bound)
from akzeta.identities import catalog, verify, verify_all
from akzeta.logasym import nested_tail_sum, tail_values
from akzeta.harmonic_bell import harmonic_table, bell_modified, d_operator
from akzeta.numerics import (PrecisionContext, DEFAULT_CTX, RIGOROUS, Evaluation, clausen,
                             combination, round_up, zeta_em)

CTX = PrecisionContext(default_cutoff=20000)


def _mpf(value):
    """A float or Fraction value as an mpf at the current precision."""
    num, den = value.as_integer_ratio()
    return mp.mpf(num) / den


@lru_cache(maxsize=4)
def _beta_bell_numerators(m: int, x: Fraction, N: int) -> tuple[list[int], int]:
    """B(n, 1+x) P_m(H-row(n)) for n = 1..N as integer numerators over one
    common denominator, returned with it.

    With x = xn/xd and Pi = prod_{j<=N} (j xd + xn), Pi B(n, 1+x) and
    Pi^k H_n^(k)(x) are integers, and so is Q_m = m! Pi^m P_m from the Bell
    recurrence m P_m = sum_k H^(k) P_(m-k); the denominator is
    m! Pi^(m+1).  Nothing here divides except exactly, so no gcd is taken.
    """
    xn, xd = x.numerator, x.denominator
    Pi = math.prod(j * xd + xn for j in range(1, N + 1))
    H = [0] * (m + 1)  # H[k] = Pi^k H_n^(k)(x)
    B = Pi * xd // (xd + xn)  # Pi B(1, 1+x); B(n+1, 1+x) = B(n, 1+x) n/(n+1+x)
    out = []
    for n in range(1, N + 1):
        for k in range(1, m + 1):
            H[k] += (Pi * xd // (n * xd + xn)) ** k
        Q = [1]  # Q[j] = j! Pi^j P_j
        for j in range(1, m + 1):
            Q.append(sum(math.perm(j - 1, k - 1) * H[k] * Q[j - k] for k in range(1, j + 1)))
        out.append(B * Q[m])
        B = B * n * xd // ((n + 1) * xd + xn)
    return out, math.factorial(m) * Pi ** (m + 1)


def ak_lhs_partial_exact(alpha, p: int, m: int, x, N: int) -> Fraction:
    """Exact rational truncation at N of the beta-weighted nested sum

        sum_{n_1 < ... < n_r <= N} B(n_r,1+x) P_m(H-row(n_r)) p^{-n_r}
                                   / (n_1^{a_1} ... n_r^{a_r}),

    summed in integers over one common denominator, the power weights' over
    L^(a_1+..+a_r) with L = lcm(1..N), so that only the Fraction at the end
    takes a gcd.  P_m comes from the Bell recurrence, not from the complete
    homogeneous form of the engine's _outer_arrays.
    """
    x = Fraction(x)
    assert x > -1
    L = math.lcm(*range(1, N + 1))
    S = [1] * (N + 2)  # S_0(n) = 1, then L^(a_1+..) S_level(n)
    for a in alpha[:-1]:
        nxt = [0] * (N + 2)
        acc = 0
        for n in range(1, N + 2):
            nxt[n] = acc
            if n <= N:
                acc += S[n] * (L // n) ** a
        S = nxt
        S[0] = 0
    weights, den = _beta_bell_numerators(m, x, N)
    total = sum(S[n] * (L // n) ** alpha[-1] * p ** (N - n) * w
                for n, w in enumerate(weights, 1))
    return Fraction(total, den * L ** sum(alpha) * p**N)


def test_hurwitz_single_index():
    ev = eval_hurwitz_mzv((2,), 0.0, CTX)
    assert abs(ev.value - math.pi**2 / 6) <= ev.bound
    ev = eval_hurwitz_mzv((2,), 0.5, CTX)
    assert abs(ev.value - float(mp.zeta(2, 1.5))) <= ev.bound


def test_hurwitz_depth_two_euler():
    ev = eval_hurwitz_mzv((1, 2), 0.0, CTX)
    assert abs(ev.value - float(mp.zeta(3))) <= ev.bound
    assert ev.bound < 1e-10
    assert ev.bound_kind == RIGOROUS


def test_hurwitz_guards():
    with pytest.raises(DivergenceError):
        eval_hurwitz_mzv((2, 1), 0.0, CTX)
    with pytest.raises(DomainError):
        eval_hurwitz_mzv((2,), -1.5, CTX)
    # fractional or missing exponents are rejected, not truncated
    for bad in ((2.5,), (1, 2.5), ()):
        with pytest.raises(DomainError):
            eval_hurwitz_mzv(bad, 0.0, CTX)
        with pytest.raises(DomainError):
            eval_t(bad, CTX)
    # a non-finite shift fails fast instead of returning a NaN value
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            eval_hurwitz_mzv((2,), x, CTX)
        with pytest.raises(DomainError):
            eval_ak_lhs((1,), 1.0, 0, x, CTX)
        with pytest.raises(DomainError):
            eval_euler_transform(3.0, 1, x, CTX)


def test_exponents_must_be_positive_integers():
    # the library takes the exponent rule of Composition, as the CLI does
    for call in (lambda: eval_li((-2,), 0.5, CTX),
                 lambda: eval_ak_lhs((-1,), 2, 0, 0, CTX),
                 lambda: eval_hurwitz_mzv((0, 2), 0.0, CTX),
                 lambda: eval_hurwitz_mzv(2),
                 lambda: eval_li(None, 0.5),
                 lambda: eval_ak_lhs(3, 2, 0, 0)):
        with pytest.raises(DomainError, match="positive integers"):
            call()


def test_t_values():
    # t(k) = (1 - 2^-k) zeta(k), and Hoffman's t({2}^n) = pi^(2n) / (4^n (2n)!),
    # at small caps and the default
    with mp.workdps(40):
        cases = [((k,), (1 - mp.mpf(2) ** -k) * mp.zeta(k)) for k in range(2, 12)]
        cases += [((2,) * n, mp.pi ** (2 * n) / (4**n * mp.factorial(2 * n)))
                  for n in range(1, 5)]
        for cap in (32, 64, DEFAULT_CTX.default_cutoff, CTX.default_cutoff):
            ctx = PrecisionContext(default_cutoff=cap)
            for e, exact in cases:
                ev = eval_t(e, ctx)
                assert ev.bound_kind == RIGOROUS and ev.cutoff_used <= cap
                assert abs(_mpf(ev.value) - exact) <= ev.bound, (cap, e)


def test_eval_t_is_the_exact_scaling_of_the_half_shift_sum():
    # t(e) = 2^-|e| zeta(e; -1/2): the value exactly, the bound to the last
    # bit (a power-of-two scaling of a normal float is exact)
    for c in admissible_compositions(6):
        t, z = eval_t(c.parts, CTX), eval_hurwitz_mzv(c, -0.5, CTX)
        assert t.value == z.value / 2**c.weight, c
        assert t.bound == math.ldexp(z.bound, -c.weight), c
        assert (t.bound_kind, t.method, t.cutoff_used) == \
            (z.bound_kind, z.method, z.cutoff_used), c


def test_eval_t_at_the_float_range():
    # the innermost prefix sum at x = -1/2 is at least 2^(e_1): an innermost
    # exponent past 1023 leaves the float range there, and is refused
    with pytest.raises(DomainError, match="float range"):
        eval_t((1030,), CTX)
    # a t-value far below the smallest float keeps a positive bound
    assert eval_t((1, 1100), CTX).bound > 0


def test_half_shift_sums_whose_inner_prefix_sums_outgrow_the_value():
    # at x = -1/2 the inner prefix sums reach 2^(e_1), far above the value
    # when the outer exponent is large, and every outer weight's rounding is
    # multiplied by them; against the exact sum over odd n_1 < .. < n_q <= K
    # plus a majorant of the rest: the inner sums over odd n of n^-e with
    # e >= 2 multiply to at most (pi^2/8)^2 < 2, and the sum over odd
    # n > K of n^-e_q is below (K+2)^-e_q (1 + (K+2) / (2 (e_q - 1)))
    K = 41
    for e in ((60, 100), (100, 100), (40, 80), (200, 20), (60, 2, 40), (40, 2, 30)):
        S = [Fraction(1)] + [Fraction(0)] * len(e)
        for n in range(1, K + 1, 2):
            for i in reversed(range(len(e))):
                S[i + 1] += S[i] / n ** e[i]
        a = K + 2
        rest = 2 * Fraction(1, a ** e[-1]) * (1 + Fraction(a, 2 * (e[-1] - 1)))
        t, z = eval_t(e, CTX), eval_hurwitz_mzv(e, -0.5, CTX)
        assert abs(t.value - S[-1]) <= t.bound + rest, e
        assert abs(z.value - 2**sum(e) * S[-1]) <= z.bound + 2**sum(e) * rest, e
        assert t.bound < 1e-8 * S[-1], e


def test_li_values():
    ev = eval_li((1,), 0.5, CTX)
    assert abs(ev.value - math.log(2)) <= ev.bound
    ev = eval_li((1, 1), 0.5, CTX)
    assert abs(ev.value - math.log(2) ** 2 / 2) <= ev.bound
    ev = eval_li((2,), 1.0, CTX)  # routes to the nested zeta path
    assert abs(ev.value - math.pi**2 / 6) <= ev.bound


def test_li_guards():
    with pytest.raises(DivergenceError):
        eval_li((2,), 1.5, CTX)
    with pytest.raises(DivergenceError):
        eval_li((1,), 1.0, CTX)
    with pytest.raises(DivergenceError):
        eval_li((1,), math.nan, CTX)


def test_ak_lhs_collapse_to_zeta():
    # B(n, 1) = 1/n, so the m = 0, x = 0, single-index sum telescopes
    ev = eval_ak_lhs((1,), 1.0, 0, 0.0, CTX)
    assert abs(ev.value - math.pi**2 / 6) <= ev.bound


@pytest.mark.parametrize("x", [1 / 3, -1 / 7, 2 / 3, 1e-10, 2.5, -0.9, -0.95])
def test_ak_lhs_single_index_at_non_dyadic_shifts(x):
    # the beta-weighted sum over one index is (m+1) zeta(m+2, 1+x) at every
    # real x > -1; near x = -1 the tail is most of the value, and small caps
    # stop the ladder where it is largest
    for cap in (64, 128, DEFAULT_CTX.default_cutoff):
        for m in range(5):
            ev = eval_ak_lhs((1,), 1.0, m, x, PrecisionContext(default_cutoff=cap))
            with mp.workdps(30):
                exact = (m + 1) * mp.zeta(m + 2, 1 + mp.mpf(x))
                assert abs(_mpf(ev.value) - exact) <= ev.bound, (cap, m)


def test_ak_lhs_geometric_case():
    # p = 4, m = 0, x = -1/2 gives (2 arcsin(1/2))^2 / 2
    ev = eval_ak_lhs((1,), 4.0, 0, -0.5, CTX)
    assert abs(ev.value - math.pi**2 / 18) <= ev.bound
    assert ev.bound < 1e-12


def test_ak_lhs_geometric_majorant_overflow_is_refused():
    # the tail majorant (g^(m-1) + m)^m / m! of P_m, g = max(2, 1/(1+x)),
    # passes the float range from m = 33 at x = 0 and from m = 19 at
    # x = -0.9: the sum must refuse, naming m and x, not raise OverflowError
    for m, x in ((33, 0.0), (33, 2.0), (19, -0.9), (200, -0.5)):
        with pytest.raises(DomainError, match=re.escape(f"m = {m}, x = {x}")):
            eval_ak_lhs((1,), 2, m, x)
    # the catalog's orders keep their majorant
    assert eval_ak_lhs((1,), 2, 2, -0.9).bound < 1e-12


def test_ak_lhs_geometric_majorant_past_the_float_range():
    # at m = 18, x = -0.9 the constant of the tail majorant overflows a float
    # where p^-N underflows: the bound comes from logs, and holds against a
    # direct sum (its terms shrink like 2^-n)
    ev = eval_ak_lhs((1,), 2, 18, -0.9)
    assert math.isfinite(ev.bound) and ev.bound < 1e-13 * ev.value
    with mp.workdps(40):
        x, m = mp.mpf(-0.9), 18
        H = [mp.mpf(0)] * (m + 1)  # H[k] = H_n^(k)(x)
        direct = mp.mpf(0)
        for n in range(1, 301):
            for k in range(1, m + 1):
                H[k] += (n + x) ** -k
            P = [mp.mpf(1)]  # the Bell recurrence j P_j = sum_k H^(k) P_(j-k)
            for j in range(1, m + 1):
                P.append(mp.fsum(H[k] * P[j - k] for k in range(1, j + 1)) / j)
            direct += mp.beta(n, 1 + x) * P[m] / (n * mp.mpf(2) ** n)
        assert abs(direct - ev.value) <= ev.bound


def test_ak_lhs_guards():
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            eval_ak_lhs((1,), p, 0, 0.0, CTX)
    with pytest.raises(DomainError):
        eval_ak_lhs((1,), 1.0, -1, 0.0, CTX)
    with pytest.raises(DomainError):
        eval_ak_lhs((1,), 1.0, 0, -1.0, CTX)
    with pytest.raises(DomainError):
        eval_ak_lhs((1,), 1.0, 1.5, 0.0, CTX)
    with pytest.raises(DomainError):
        eval_ak_rhs((1,), 1.5, 0.0, CTX)
    for m_terms in (0, -1):
        with pytest.raises(DomainError):
            eval_prop2_series(Composition.of(2), 0.5, 0.25, m_terms, CTX)


def test_ak_rhs_examples():
    ev = eval_ak_rhs((1,), 0, 0.0, CTX)
    assert abs(ev.value - math.pi**2 / 6) <= ev.bound
    ev = eval_ak_rhs((1,), 1, 0.0, CTX)
    assert abs(ev.value - 2.0 * float(mp.zeta(3))) <= ev.bound


def test_thm_consistency_lhs_rhs():
    for c in [Composition.of(3), Composition.of(1, 2), Composition.of(2, 2)]:
        for m in (0, 1):
            for x in (0.0, -0.5):
                lhs = eval_ak_lhs(dual(c).alpha(), 1.0, m, x, CTX)
                rhs = eval_ak_rhs(c.alpha(), m, x, CTX)
                assert abs(lhs.value - rhs.value) <= lhs.bound + rhs.bound + 1e-12


def test_euler_transform_values():
    ev = eval_euler_transform(4.0, 1, -0.5, CTX)
    # the value is an exact Fraction, so the reference is at 70 digits
    with mp.workdps(70):
        assert abs(_mpf(ev.value) / 2 - mp.pi**2 / 36) <= ev.bound
    ev = eval_euler_transform(2.0, 1, -0.5, CTX)
    assert abs(float(ev.value) / 2.0 - math.pi**2 / 16) <= max(ev.bound, 1e-12)


def test_euler_transform_p2_working_precision():
    # the accelerated p = 2 terms are summed, and their count is sized, at the
    # working precision: the bound delivers the requested digits and holds
    for digits in (30, 50):
        ev = eval_euler_transform(2.0, 1, -0.5, PrecisionContext(digits=digits))
        assert ev.bound <= 10.0 ** -(digits - 2)
        with mp.workdps(digits + 20):
            assert abs(_mpf(ev.value) - mp.pi**2 / 8) <= ev.bound


def test_euler_transform_guard():
    with pytest.raises(DivergenceError):
        eval_euler_transform(1.5, 1, 0.0, CTX)
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError):
            eval_euler_transform(p, 1, 0.0, CTX)
    # the bound's majorant of H_n^(s) holds only for the paper's s = m + 1 >= 1
    for s in (0, -1, 1.5):
        with pytest.raises(DomainError):
            eval_euler_transform(3.0, s, 0.0, CTX)


def test_euler_transform_past_the_float_range():
    # b_1 = 10^s / 2 at x = -0.9, p = 3: at s = 331 the value leaves the float
    # range while its bound, about b_1 / d_n, does not; at s = 400 both do
    for s in (331, 400):
        with pytest.raises(DomainError, match="float range"):
            eval_euler_transform(3.0, s, -0.9, CTX)


def _transform_reference(p, s, x, digits=80):
    """sum_{n>=1} (-1)^(n+1) H_n^(s)(x) / (n (p-1)^n) at ``digits`` digits, by
    mpmath alone: summed directly for p >= 2.5, where digits + 10 digits'
    worth of terms leave a remainder below the last one, and by mp.nsum at
    p = 2."""
    with mp.workdps(digits):
        xm, q = mp.mpf(x), mp.mpf(p) - 1
        h = [mp.mpf(0)]

        def term(n):
            n = int(n)
            while len(h) <= n:
                h.append(h[-1] + (len(h) + xm) ** -s)
            return (-1) ** (n + 1) * h[n] / (n * q**n)

        if p >= 2.5:
            count = int((digits + 10) * math.log(10) / math.log(p - 1)) + 10
            return mp.fsum(term(n) for n in range(1, count))
        return mp.nsum(term, [1, mp.inf], method="shanks")


@pytest.mark.parametrize("p", [2.0, 3.0, 2.894, 14.93])
def test_euler_transform_within_bound_against_mpmath(p):
    # one accelerated path with a proven bound at every p >= 2, at two
    # precisions and three caps; p = 3, s = 3, x = -0.999999 broke the old
    # direct p > 2 sum's bound, whose round-off part did not scale with b_1
    for s in (1, 3):
        for x in (-0.999999, -0.5, 0.0, 5.0):
            ref = _transform_reference(p, s, x)
            for digits in (15, 50):
                for cap in (12, 20, DEFAULT_CTX.default_cutoff):
                    ev = eval_euler_transform(p, s, x, PrecisionContext(digits, cap))
                    assert ev.bound_kind == RIGOROUS
                    with mp.workdps(80):
                        assert abs(_mpf(ev.value) - ref) <= ev.bound, (s, x, digits, cap)


@pytest.mark.parametrize("p", [4.0, 14.93])
def test_euler_transform_terms_and_bound(p):
    # the term count is ceil(ln(2/eps) / ln(3 + sqrt 8)) at the eps of
    # mpmath at bits(), capped; the bound is at most b_1 (2 (3 + sqrt 8)^-n +
    # 5 n^2 eps) plus the ulp of its rounding up, below that at the default
    # cap, and it holds against a direct sum at 340 digits
    for s, x in ((1, -0.5), (3, 0.25)):
        ref = _transform_reference(p, s, x, 340)
        for digits in (15, 50, 100, 300):
            with mp.workprec(PrecisionContext(digits=digits).bits()):
                r = 3 + mp.sqrt(8)
                uncapped = int(mp.ceil(mp.log(2 / mp.eps) / mp.log(r)))
                b1 = (1 + mp.mpf(x)) ** -s / (mp.mpf(p) - 1)
                for cap in (12, 20, DEFAULT_CTX.default_cutoff):
                    ev = eval_euler_transform(p, s, x, PrecisionContext(digits, cap))
                    n = min(cap, uncapped)
                    assert ev.cutoff_used == n, (s, x, digits, cap)
                    old = float(b1 * (2 / r**n + 5 * n**2 * mp.eps))
                    assert ev.bound <= old + math.ulp(old), (s, x, digits, cap)
                    if cap == DEFAULT_CTX.default_cutoff:
                        assert ev.bound < old
                    with mp.workdps(340):
                        assert abs(_mpf(ev.value) - ref) <= ev.bound, (s, x, digits, cap)


def test_euler_vs_ak_transform():
    for p in (3.0, 5.0):
        for m in (0, 1, 2):
            a = eval_ak_lhs((1,), p, m, 0.0, CTX)
            b = eval_euler_transform(p, m + 1, 0.0, CTX)
            assert abs(a.value - float(b.value)) <= a.bound + b.bound


def test_p1_sums_reject_shifts_at_the_cap():
    # the tail model of B(n, 1+x) expands in powers of x/n and diverges at
    # every rung N <= x: below the cap the bound stays honest, at it the
    # call fails, and so does the PROP2 series of such sums
    cap = PrecisionContext(default_cutoff=128)
    ev = eval_ak_lhs((1,), 1, 0, 100.0, cap)
    with mp.workdps(30):
        assert abs(_mpf(ev.value) - mp.zeta(2, 101)) <= ev.bound
    for x, ctx in ((128.0, cap), (1e6, DEFAULT_CTX), (1e300, DEFAULT_CTX)):
        with pytest.raises(DomainError, match="cutoff cap"):
            eval_ak_lhs((2,), 1.0, 1, x, ctx)
    with pytest.raises(DomainError, match="cutoff cap"):
        eval_prop2_series(Composition.of(2), 128.0, 0.25, 4, cap)


@pytest.mark.parametrize("x", [33, 63.9, 1000, 40_000, 60_000, 99_999.5, 1e6, 1e300])
def test_hurwitz_zeta_at_any_shift_stops_early_within_its_bound(x):
    # the tail past N is the unshifted tail at N + x, so a large shift
    # neither climbs the ladder nor meets the cap of 100 000
    ev = eval_hurwitz_mzv((2,), x)
    assert ev.cutoff_used <= 64
    with mp.workdps(40):
        assert abs(_mpf(ev.value) - mp.zeta(2, 1 + mp.mpf(x))) <= ev.bound


@pytest.mark.parametrize("x", [2.5, 40.0, 127.5])
def test_thm3_at_m0_without_a_shared_tail_chain(x):
    # THM3 at m = 0: zeta(c; x) is the p = 1 Bell sum of the dual at order 0,
    # whose tail models B(n, 1+x) and not (n + x)^-e, so the two sides share
    # no tail chain, and both stop by N = 128
    for c in admissible_compositions(4):
        zeta = eval_hurwitz_mzv(c, x)
        lhs = eval_ak_lhs(dual(c).alpha(), 1, 0, x)
        assert abs(zeta.value - lhs.value) <= zeta.bound + lhs.bound, c
        assert max(zeta.cutoff_used, lhs.cutoff_used) <= 128, c


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("x", [146, 150, 170, 200])
def test_p1_sums_at_large_shifts_are_bounded_or_refused(x, m):
    # below the cap, but the tail model of B(n, 1+x) carries Gamma(1+x) and
    # coefficients that grow like x^2k: where they overflow a float the sum
    # must refuse, naming the shift, and otherwise stay within its bound.
    # A refusal other than Gamma(1+x)'s comes at the first rung above x, 256:
    # an overflowed model must not send the ladder to the cap
    try:
        ev = eval_ak_lhs((1,), 1, m, x)
    except DomainError as exc:
        assert f"x = {float(x)}" in str(exc)
        assert str(exc).startswith("Gamma(1 + x) overflows") or "at cutoff 256" in str(exc)
        return
    with mp.workdps(30):
        exact = (m + 1) * mp.zeta(m + 2, 1 + x)
        assert abs(_mpf(ev.value) - exact) <= ev.bound


def test_p1_sum_whose_tail_series_passes_the_float_range():
    # the tail series of order m = 64 is built to order 127, and at x = -0.999
    # zeta(j, 1+x) ~ 1000^j passes the float range from j = 103: the orders
    # above m must not stop the sum, which THM3 ties to the zeta combination
    c = Composition.of(2)
    lhs = eval_ak_lhs(dual(c).alpha(), 1, 64, -0.999)
    rhs = eval_ak_rhs(c.alpha(), 64, -0.999)
    assert abs(lhs.value - rhs.value) <= lhs.bound + rhs.bound


def test_p1_ladder_starts_above_the_shift():
    # the tail model of B(n, 1+x) expands in x/n and diverges at n <= x,
    # where its truncation estimate can read 0: the ladder must not stop at
    # N = 128
    ev = eval_ak_lhs((1,), 1, 0, 145)
    assert ev.cutoff_used > 145
    with mp.workdps(30):
        exact = mp.zeta(2, 146)
        assert abs(_mpf(ev.value) - exact) <= ev.bound


@pytest.mark.parametrize("call, name", [
    (lambda: eval_hurwitz_mzv((400,), -0.9), "the nested sum (400,) at x = -0.9"),
    (lambda: eval_ak_lhs((2,), 1, 300, -0.9), "the Bell-weighted sum (2,) at m = 300, x = -0.9"),
], ids=["zeta", "ak"])
def test_p1_sum_past_the_float_range_is_refused(call, name):
    # (n - 0.9)^-400 is 10^400 at n = 1, and the order-300 Bell weights at
    # x = -0.9 pass the float range too: the sum must refuse, naming itself,
    # not raise OverflowError
    with pytest.raises(DomainError, match=re.escape(name) + ".* leaves the float range"):
        call()


def test_prop2_series_reproduces_shift():
    lhs = eval_hurwitz_mzv((2,), 0.25, CTX)
    rhs = eval_prop2_series(Composition.of(2), 0.5, 0.25, 16, CTX)
    assert abs(lhs.value - rhs.value) <= lhs.bound + rhs.bound + 1e-6
    with pytest.raises(DomainError):
        eval_prop2_series(Composition.of(2), 0.0, 1.5, 8, CTX)


def test_prop2_series_bound_covers_the_exact_coefficient_bounds():
    # the coefficient bounds sum exactly before one rounding up, and the
    # truncation estimate adds to that: a float sum of |z|^m b_m came out
    # below the exact sum here, which moved the whole bound down an ulp
    x, z = 0.5, 0.25
    beta = dual(Composition.of(2)).alpha()
    coeffs = [eval_ak_lhs(beta, 1, m, x) for m in range(24)]
    exact = sum(Fraction(z)**m * Fraction(ev.bound) for m, ev in enumerate(coeffs))
    ratio = z / (1 + x)
    trunc = 3.0 * float(abs(Fraction(z)**23 * coeffs[-1].value)) * ratio / (1.0 - ratio)
    assert eval_prop2_series((2,), x, z).bound >= round_up(exact) + trunc


def test_prop2_series_sums_the_p1_coefficients():
    # the z^m coefficient is the public p = 1 sum at order m, summed in the
    # same order
    params = next(case.grid for case in catalog() if case.id == "PROP2")[1]
    c, x, z = params["alpha"], params["x"], params["z"]
    beta = dual(c).alpha()
    total = Fraction(0)
    for m in range(12):
        total += Fraction(z)**m * eval_ak_lhs(beta, 1, m, x, CTX).value
    assert eval_prop2_series(c, x, z, 12, CTX).value == total


@pytest.mark.parametrize("m_terms", [12, 24, 33])
def test_prop2_coefficients_are_the_p1_sums_bit_for_bit(monkeypatch, m_terms):
    # the series reads every order from the one tail chain that covers its
    # largest, eval_ak_lhs order m from the chain of size 1 << m.bit_length():
    # each coefficient is that sum, value, bound, kind and cutoff, built
    # again from cleared memos
    for params in next(case.grid for case in catalog() if case.id == "PROP2"):
        c, x, z = params["alpha"], params["x"], params["z"]
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "combination",
                          lambda terms, method: seen.extend(terms) or combination(terms, method))
            clear_caches()
            eval_prop2_series(c, x, z, m_terms)
        assert [w for w, _ in seen] == [Fraction(z)**m for m in range(m_terms)]
        clear_caches()
        beta = dual(c).alpha()
        for m, (_, ev) in enumerate(seen):
            want = eval_ak_lhs(beta, 1, m, x)
            assert ((ev.value, ev.bound, ev.bound_kind, ev.cutoff_used)
                    == (want.value, want.bound, want.bound_kind, want.cutoff_used)), (c, m)
    clear_caches()


# (alpha, m_terms) -> (rhs, bound) of the PROP2 reports, measured when the
# Bell tail models were built order by order from products of harmonic
# models; the series built from one generating function must not move a
# value by more than 2 ulps nor loosen a bound
_PROP2_PINS = {
    ("2", 12): (1.1973291512706277, 8.832029889973284e-09),
    ("1,2", 12): (0.9360101720882985, 1.803430499530223e-09),
    ("3", 12): (0.41439816708720795, 6.135815944170217e-07),
    ("2", 24): (1.1973291545071105, 5.289822665946297e-16),
    ("1,2", 24): (0.9360101726907627, 6.67337378795765e-16),
    ("3", 24): (0.4143983221171577, 1.0381121470670577e-14),
}


@pytest.mark.parametrize("m_terms", [12, 24])
def test_prop2_reports_are_pinned(m_terms):
    for params in next(case.grid for case in catalog() if case.id == "PROP2"):
        report = verify("PROP2", dict(params, m_terms=m_terms))
        rhs, bound = _PROP2_PINS[str(params["alpha"]), m_terms]
        assert report.passed
        assert abs(report.rhs - rhs) <= 2 * math.ulp(rhs), params
        assert report.bound <= bound, params


@pytest.mark.parametrize("library", ["mpmath", "decimal"])
def test_ak_lhs_ignores_mpmath_global_precision(library):
    # the tail models' psi and zeta constants use their own mpmath and
    # decimal contexts, not the global ones
    ref = eval_ak_lhs((1, 2), 1, 2, 0.5)
    clear_caches()
    glob, attr = (mp.mp, "dps") if library == "mpmath" else (decimal.getcontext(), "prec")
    saved = getattr(glob, attr)
    setattr(glob, attr, 5)
    try:
        low = eval_ak_lhs((1, 2), 1, 2, 0.5)
    finally:
        setattr(glob, attr, saved)
    assert low == ref


def test_exact_truncation_matches_kernel_series():
    # nested beta-weighted truncation vs the alternating-binomial kernel sum
    alpha = (1, 2)
    p, m = 2, 1
    x = Fraction(1, 3)
    N = 30
    exact = ak_lhs_partial_exact(alpha, p, m, x, N)
    # independent form: sum_n S(n) D(n) / (p^n n^{a_r}) with exact D values
    S = [Fraction(0)] * (N + 1)
    acc = Fraction(0)
    ref = Fraction(0)
    for n in range(1, N + 1):
        S[n] = acc
        acc += Fraction(1, n ** alpha[0])
        ref += S[n] * d_operator(n, m + 1, x) / (Fraction(p) ** n * n ** alpha[-1])
    assert exact == ref


@pytest.mark.parametrize("x", [0.0, 1 / 3, -0.9, 2.5])
def test_fixed_point_partial_sums_match_exact(x):
    # the fixed-point DP against the exact rational truncation at the float
    # x, within the documented fixed-point error N (q + 1) 2^-F L, which is
    # far below the cutoff rule's stopping tolerance; the power and
    # geometric weights are at most 1.  The partial sum is the exact outer
    # level sum of the engine's prefix entry, which continues the entries
    # at the rungs below N; L takes B(1, 1+x) and P_m(N) from a fresh build
    for N in (32, 256):
        for m in (0, 3):
            B, P = _scratch_outer_arrays(N, m, x)
            for a in ((1,), (1, 2), (2, 1, 1)):
                for p in (1, 3):
                    r = Fraction(1, p) if p > 1 else None
                    *S, partial = _dp_prefix(a, 0.0, N, (m, x), r)[1]
                    exact = ak_lhs_partial_exact(a, p, m, Fraction(x), N)
                    q = len(a) + m + 1
                    S_max = max((1.0, *(s / (1 << _F) for s in S)))
                    L = (1 + B[0] / (1 << _F)) * (1 + P[-1] / (1 << _F)) * (1 + S_max)
                    tol = N * (q + 1) * 2.0**-_F * L
                    assert abs(float(Fraction(partial, 1 << _F) - exact)) <= tol
                    assert tol < 2.0**-20 * _roundoff(N, q, float(exact), L)


def test_exact_truncation_approaches_float_value():
    v = ak_lhs_partial_exact((1,), 2, 1, Fraction(-1, 2), 60)
    ev = eval_ak_lhs((1,), 2.0, 1, -0.5, CTX)
    assert abs(float(v) - ev.value) < 1e-15


def _t_at_fixed(e, fixed):
    """t(e) at the cutoffs ``fixed``: 2^-|e| times the x = -1/2 nested sum."""
    ev = _nested(e, -0.5, None, None, fixed)
    scale = 2 ** sum(e)
    return Evaluation(value=ev.value / scale, bound=ev.bound / scale,
                      bound_kind=ev.bound_kind, method=ev.method, cutoff_used=ev.cutoff_used)


def test_bound_honesty_at_larger_cutoff():
    small = PrecisionContext(default_cutoff=5000)
    big = PrecisionContext(default_cutoff=20000)
    # each call with the same sum at one fixed cutoff
    fixed = (20000,)
    cases = [
        (lambda c: eval_hurwitz_mzv((1, 1, 3), 0.0, c),
         lambda: _nested((1, 1, 3), 0.0, None, None, fixed)),
        (lambda c: eval_hurwitz_mzv((2, 3), -0.5, c),
         lambda: _nested((2, 3), -0.5, None, None, fixed)),
        (lambda c: eval_t((1, 3), c),
         lambda: _t_at_fixed((1, 3), fixed)),
        (lambda c: eval_ak_lhs((1, 1), 1.0, 1, 0.5, c),
         lambda: _nested((1, 1), 0.0, (1, 0.5, 2), None, fixed)),
    ]
    for f, at_fixed in cases:
        a, b = f(small), f(big)
        assert abs(a.value - b.value) <= a.bound
        ref = at_fixed()
        assert ref.cutoff_used == 20000
        for ev in (a, b):
            assert abs(ev.value - ref.value) <= ev.bound + ref.bound


def test_combination_counts_float_rounding():
    # at a small cap the parts' round-off is a visible share of the error:
    # 10 zeta(6; -1/2) ~ 641, summed exactly from the parts' exact values
    ev = eval_ak_rhs((3,), 2, -0.5, PrecisionContext(default_cutoff=50))
    with mp.workdps(30):
        assert abs(_mpf(ev.value) - 10 * mp.zeta(6, 0.5)) <= ev.bound


def test_ak_lhs_closed_form_at_small_caps():
    # COR2: the x = -1/2 sum with alpha = (1,)^r is C(r+m, m)(2^{r+m+1} - 1) zeta(r+m+1)
    for cap in (32, 64, 128, DEFAULT_CTX.default_cutoff):
        for r in (1, 2, 3):
            with mp.workdps(30):
                for m in range(24):
                    ev = _nested((1,) * r, 0.0, (m, -0.5, 1 << m.bit_length()), None, _rungs(cap))
                    exact = math.comb(r + m, m) * (2 ** (r + m + 1) - 1) * mp.zeta(r + m + 1)
                    assert ev.cutoff_used <= cap
                    assert abs(_mpf(ev.value) - exact) <= ev.bound, (cap, r, m)


def test_roundoff_is_the_old_tolerance():
    # the tolerance stated in _F is the float of the long-double-era
    # 4 * 2^-63 N (q + 1) max(1 + |scale|, 2^(62 - 96) L) on every rung
    for N in _rungs(100_000):
        for q in range(31):
            for scale in (0.0, 1e-300, -1e-300, 1.0, -1.0, 641.0, -641.0, 1e300, -1e300):
                for size in (1.0, 1.5, 2.0**34, 1e17, 1e100, 1e300):
                    old = 4.0 * 2.0**-63 * N * (q + 1) * max(1 + abs(scale), 2.0**(62 - 96) * size)
                    assert _roundoff(N, q, scale, size) == old


def test_rungs_cap_the_cutoff():
    assert _rungs(20) == (20,)
    assert _rungs(100) == (32, 100)
    assert _rungs(128) == (32, 64, 128)
    assert _rungs(100_000)[-2:] == (32768, 100_000)


def test_euler_transform_p_above_2_reads_cap():
    ev = eval_euler_transform(4.0, 1, -0.5, PrecisionContext(default_cutoff=20))
    assert ev.cutoff_used <= 20
    with mp.workdps(30):
        assert abs(_mpf(ev.value) - mp.pi**2 / 18) <= ev.bound


@pytest.mark.parametrize("call", [
    lambda: eval_hurwitz_mzv((1, 2), 0.0, CTX),
    lambda: eval_li((1, 1), 0.5, CTX),
    lambda: eval_ak_lhs((1,), 4.0, 1, -0.5, CTX),
    lambda: eval_ak_lhs((1, 1), 1, 2, 0.5, CTX),
], ids=["mzv", "li", "ak-geometric", "ak-p1"])
def test_mzv_cache_consistency(call):
    # every nested sum goes through the one memoized core
    clear_caches()
    a = call()
    b = call()
    assert a is b
    clear_caches()
    c = call()
    assert c is not a
    assert c.value == a.value


def test_eval_t_cache():
    # t(e) scales the memoized x = -1/2 sum: a second call, and the shifted
    # zeta value itself, are hits on that one entry
    clear_caches()
    a = eval_t((1, 3), CTX)
    info = _nested.cache_info()
    b = eval_t((1, 3), CTX)
    eval_hurwitz_mzv((1, 3), -0.5, CTX)
    assert _nested.cache_info().hits == info.hits + 2
    assert _nested.cache_info().misses == info.misses
    assert (b.value, b.bound) == (a.value, a.bound)
    clear_caches()
    c = eval_t((1, 3), CTX)
    assert (c.value, c.bound) == (a.value, a.bound)


def test_clear_caches_clears_zeta_em():
    a = zeta_em(3, 0.0)
    assert zeta_em(3, 0.0) is a
    clear_caches()
    assert zeta_em(3, 0.0) is not a


@pytest.mark.parametrize("N", [32, 64])
def test_outer_arrays_memo_matches_a_fresh_build(N):
    # each order is one product and one prefix sum on the memoized order
    # below it: the same integers as the whole recurrence run from scratch
    x = 0.25
    xn, xd = x.as_integer_ratio()
    B = [(xd << _F) // (xd + xn)]
    for n in range(1, N):
        B.append(B[-1] * n * xd // ((n + 1) * xd + xn))
    y = _power_weights(N, 1, x)
    P = [1 << _F] * N
    M = _below(N)  # an entry holds the segment n = M+1..N
    clear_caches()
    for m in (3, 6, 0, 1, 2, 4, 5):  # cold, then each order again from the memo
        fresh = P
        for _ in range(m):
            fresh = list(accumulate([(a * b) >> _F for a, b in zip(y, fresh)]))
        assert _outer_arrays(N, m, x) == (B[M:], fresh[M:]), m


# The from-scratch builders of every rung, as the core ran before each rung
# continued the one below: oracles for the extended ladder, which must form
# the same integers and floats by the same operations.

def _scratch_power_weights(N, e, x):
    xn, xd = x.as_integer_ratio()
    num = xd**e << _F
    return [num // (n * xd + xn) ** e for n in range(1, N + 1)]


def _scratch_geometric(N, r):
    num, den = r.as_integer_ratio()
    out, t = [], 1 << _F
    for _ in range(N):
        t = t * num // den
        out.append(t)
    return out


def _scratch_dp_nested(weights):
    """Every level's terms of the DP of ``weights``, from n = 1."""
    levels = [weights[0]]
    for w in weights[1:]:
        levels.append([0] + [(s * wn) >> _F for s, wn in zip(accumulate(levels[-1]), w[1:])])
    return levels


def _scratch_dp_prefix(e, x, N, *outer):
    """A prefix entry from n = 1: the last level's terms, its weights times
    the factor arrays ``outer``, and every level's exact sum."""
    weights = [_scratch_power_weights(N, ei, x) for ei in e]
    if outer:
        weights[-1] = _product(weights[-1], *outer)
    levels = _scratch_dp_nested(weights)
    return levels[-1], tuple(map(sum, levels))


def _scratch_outer_arrays(N, m, x):
    xn, xd = x.as_integer_ratio()
    B = [(xd << _F) // (xd + xn)]
    for n in range(1, N):
        B.append(B[-1] * n * xd // ((n + 1) * xd + xn))
    y = _scratch_power_weights(N, 1, x)
    P = [1 << _F] * N
    for _ in range(m):
        P = list(accumulate([(a * b) >> _F for a, b in zip(y, P)]))
    return B, P


def _scratch_rung(e, x, bell, r):
    """rung(N) of `_nested`, every array built again from n = 1 at each N."""
    one = 1 << _F
    m, y, _ = bell or (0, 0.0, 1)
    if r is not None:
        h = max(1.0, 1.0 / (1.0 + y))
        g = max(2.0, 1.0 / (1.0 + y))
        D = (g ** max(m - 1, 0) + m) ** m / math.factorial(m)
        p = float(1 / abs(r)) if r else math.inf

    def rung(N):
        outer = [*_scratch_outer_arrays(N, m, y)] if bell else []
        if r is not None:
            outer.append(_scratch_geometric(N, r))
        *S, partial = _scratch_dp_prefix(e, x, N, *outer)[1]
        S_at = [1.0, *(s / one for s in S)]
        if r is None:
            tail, terr = nested_tail_sum(S_at, tail_values(e, bell, N + x))
            partial += int(tail * one)
        scale = partial / one
        size = 1.0 + max(S_at)
        if bell:
            size *= (1.0 + outer[0][0] / one) * (1.0 + outer[1][-1] / one)
        if r is None:
            return partial, scale, terr, size
        K = outer[0][-1] / one * N ** (-float(e[-1])) * D if bell else 1.0
        return partial, scale, _geom_row_bound(N, p, m + len(e) - 1, K, h), size
    return rung


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.integers(1, 80),
       st.integers(0, 80), st.sampled_from([0.0, 0.5, -0.5]))
def test_dp_nested_continues_at_any_split(e, N, M, x):
    # each level of the DP of n <= N is one step on the level below it, on
    # the segment past any split M, not only at the ladder's rungs, started
    # from the exact sum of the inner terms over n <= M
    M = min(M, N)
    weights = [_scratch_power_weights(N, ei, x) for ei in e]
    levels = _scratch_dp_nested(weights)
    for inner, w, outer in zip(levels, weights[1:], levels[1:]):
        inner_seg, w_seg = inner[M:], w[M:]
        assert _dp_nested([inner_seg, w_seg], sum(inner[:M])) == outer[M:]
        assert (inner_seg, w_seg) == (inner[M:], w[M:])  # nothing mutated


_LADDER_CASES = (
    [((2,), x, None, None) for x in (0.0, 0.5, -0.5, 0.1)]
    + [((1, 2), x, None, None) for x in (0.0, 0.5, -0.5, 0.1)]
    + [((2, 1, 3), x, None, None) for x in (0.0, -0.5)]
    + [((1, 1, 1, 2), 0.1, None, None)]
    + [(a, 0.0, (m, y, 1 << m.bit_length()), None)
       for a in ((1,), (1, 2)) for m in (0, 2) for y in (0.0, 0.5, -0.5, 0.1)]
    + [((1, 1, 2), 0.0, (1, 0.5, 2), None)]
    # a Bell tail read from a larger chain, as a power series reads it
    + [((1, 2), 0.0, (2, y, 32), None) for y in (0.0, 0.5)]
    + [(a, 0.0, None, r) for a in ((1,), (2, 1)) for r in (Fraction(1, 2), Fraction(-3, 4))]
    + [((1, 2), 0.0, (m, y, 1 << m.bit_length()), 1 / Fraction(1.5))
       for m in (0, 2) for y in (0.0, -0.5)]
    + [((1,), 0.0, (1, 0.1, 2), Fraction(1, 4))]
    + [((2,), 40.0, None, None), ((1, 2), 40.0, None, None)]
    # a shifted ladder: its first rung, 64, continues an entry at 32 that no
    # rung of it asks for
    + [((1,), 0.0, (2, 40.0, 4), None)]
)


def _ladder(cap, bell, r):
    """The ladder a case's entry point climbs: a p = 1 Bell sum's starts
    above its shift y, every other sum's is the cap's."""
    return _rungs(cap, bell[1] if bell and r is None else 0.0)


@pytest.mark.parametrize("cap", [48, 100, 300])
@pytest.mark.parametrize("clear", [False, True], ids=["warm", "cleared"])
def test_ladder_rungs_match_a_fresh_build(monkeypatch, cap, clear):
    # every rung of _nested's ladder, climbed to the cap, against the rung
    # rebuilt from n = 1: the same partial sum, float, truncation and size;
    # with ``clear`` every memo is emptied before each rung, so each rung
    # extends a lower entry built again rather than found
    seen = []

    def climb(rungs, rung, q, method):
        for N in rungs:
            if clear:
                clear_caches()
            seen.append((N, rung(N)))

    for e, x, bell, r in _LADDER_CASES:
        rungs = _ladder(cap, bell, r)
        ev = _nested(e, x, bell, r, rungs)
        oracle = _scratch_rung(e, x, bell, r)
        q = len(e) + (bell[0] + 1 if bell else 0)
        want = _choose_cutoff(rungs, oracle, q, ev.method)
        assert (ev.value, ev.bound, ev.cutoff_used) == (want.value, want.bound, want.cutoff_used)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_choose_cutoff", climb)
            _nested.__wrapped__(e, x, bell, r, rungs)
        assert repr(seen) == repr([(N, oracle(N)) for N in rungs]), (e, x, bell, r)


@pytest.mark.parametrize("clear", [False, True], ids=["warm", "cleared"])
def test_ladder_rungs_in_any_order(monkeypatch, clear):
    # a rung's result depends on N alone: called in reverse or shuffled
    # order, every rung of the ladder to 1000 gives the fresh build's tuple,
    # whether the entries below it were built by a higher rung, are still
    # there from a lower one, or (``clear``) were all dropped before it
    shuffle = random.Random(5)
    seen = []

    def climb(rungs, rung, q, method):
        for N in order:
            if clear:
                clear_caches()
            seen.append((N, rung(N)))

    for e, x, bell, r in _LADDER_CASES:
        rungs = _ladder(1000, bell, r)
        oracle = _scratch_rung(e, x, bell, r)
        want = {N: repr(oracle(N)) for N in rungs}
        for order in (rungs[::-1], shuffle.sample(rungs, len(rungs))):
            clear_caches()
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(evaluator, "_choose_cutoff", climb)
                _nested.__wrapped__(e, x, bell, r, rungs)
            assert [N for N, _ in seen] == list(order)
            for N, got in seen:
                assert repr(got) == want[N], (e, x, bell, r, order, N)


@pytest.mark.parametrize("x", [0.0, 0.5, 40.0])
def test_nested_reads_the_inner_prefix_entry(x):
    # the entry a sum reads at its cutoff is the plain prefix entry of its
    # levels, the one a longer sum reads as its inner prefix: asking for it
    # again is a hit that adds no entry
    clear_caches()
    N = eval_hurwitz_mzv((1, 2), x, CTX).cutoff_used
    before = _dp_prefix.cache_info()
    _dp_prefix((1, 2), x, N, None, None)
    after = _dp_prefix.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)


@pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 0.1])
def test_ladder_entries_match_a_fresh_build(x):
    # each memoized entry continues the one at the rung below: the segment
    # n = M+1..N of a fresh build's last-level terms and its exact level
    # sums, warm and with the entry below dropped, which the rung above
    # builds again first; an entry with outer factors keeps no terms
    for cap in (48, 100, 300):
        clear_caches()
        for i, N in enumerate((*_rungs(cap), 20, 1000)):
            if i % 2:
                clear_caches()
            M = _below(N)
            for e in ((2,), (1, 2), (2, 1, 3)):
                terms, sums = _scratch_dp_prefix(e, x, N)
                assert _dp_prefix(e, x, N, None, None) == (terms[M:], sums), (e, N)
            for m in (2, 0, 1, 3):
                B, P = _scratch_outer_arrays(N, m, x)
                assert _outer_arrays(N, m, x) == (B[M:], P[M:]), (m, N)
            for r in (Fraction(1, 2), Fraction(-3, 4)):
                geo = _scratch_geometric(N, r)
                assert _geometric(N, r) == geo[M:], (r, N)
                outer = (*_scratch_outer_arrays(N, 2, x), geo)
                sums = _scratch_dp_prefix((1, 2), 0.0, N, *outer)[1]
                assert _dp_prefix((1, 2), 0.0, N, (2, x), r) == ([], sums), (r, N)


def test_ladders_are_the_filtered_powers():
    # the ladder of a cap, and of a shift below it, against the loop that
    # doubles from the first rung
    def loop(cap, x=-1.0):
        rungs, N = [], 32
        while 2 * N <= cap:
            rungs.append(N)
            N *= 2
        return tuple(N for N in (*rungs, cap) if N > x)

    for cap in (10, 31, 32, 63, 64, 65, 100, 127, 128, 129, 20000, 100_000, 2**40 + 3):
        assert _rungs(cap) == loop(cap), cap
        for x in (-0.999, -0.5, 0.0, 0.5, 31.0, 31.5, 32.0, 33.0, 64.0, 145.0, 4096.5,
                  cap - 1.0, cap - 0.5):
            if x < cap:
                assert _rungs(cap, x) == loop(cap, x), (cap, x)
        for x in (float(cap), cap + 0.5):
            with pytest.raises(DomainError):
                _rungs(cap, x)


def _package_caches() -> dict[str, object]:
    """Every memoized function bound in an akzeta module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(akzeta.__path__):
        module = importlib.import_module(f"akzeta.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_one_cache_policy():
    # every cache keeps 4096 results and clear_caches empties all of them
    verify_all("THM3")
    eval_t((1, 3), CTX)
    zeta_em(3, 0.0, CTX)
    caches = _package_caches()
    assert {"evaluator._nested", "evaluator._outer_arrays", "evaluator._dp_prefix",
            "logasym._beta_series", "logasym.tail_chain", "logasym.tail_values",
            "numerics._zeta_em_cached"} <= caches.keys()
    assert {name for name in caches if name.startswith("evaluator.")} == {
        "evaluator._nested", "evaluator._outer_arrays", "evaluator._dp_prefix",
        "evaluator._geometric"}
    assert all(c.cache_info().currsize > 0 for c in caches.values())
    akzeta.clear_caches()
    for name, cache in caches.items():
        assert cache.cache_info().maxsize == 4096, name
        assert cache.cache_info().currsize == 0, name


def test_catalog_reports_do_not_depend_on_the_caches():
    clear_caches()
    cold = [r.to_json() for r in verify_all("THM3").reports]
    warm = [r.to_json() for r in verify_all("THM3").reports]
    clear_caches()
    again = [r.to_json() for r in verify_all("THM3").reports]
    assert cold == warm == again


def test_catalog_reports_do_not_depend_on_the_order():
    # sums share DP prefix and tail-chain entries: a key that missed
    # something the entry depends on would make a report depend on which
    # case filled the entry first
    cases = [(case.id, params) for case in catalog() if case.id != "PROP2"
             for params in case.grid or ({},)]
    runs = []
    for seed in (1, 2):
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        clear_caches()
        runs.append({i: verify(*cases[i]).to_json() for i in order})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("target, fillers", [
    (lambda: eval_hurwitz_mzv((1, 1, 3), 0.5, CTX),
     [lambda: eval_hurwitz_mzv((1, 1, 2), -0.5, CTX)]  # the same prefix at another x
     + [lambda e=e: eval_hurwitz_mzv(e, 0.5, CTX) for e in ((1, 3), (1, 1, 2), (3,))]),
    (lambda: eval_ak_lhs((1, 2), 1, 2, -0.5, CTX),
     [lambda: eval_ak_lhs((2,), 1, 2, -0.5, CTX), lambda: eval_ak_lhs((1, 3), 1, 2, -0.5, CTX),
      lambda: eval_ak_lhs((1, 2), 1, 1, -0.5, CTX), lambda: eval_hurwitz_mzv((1, 2), 0.0, CTX)]),
    (lambda: eval_li((1, 2), 0.5, CTX),
     [lambda: eval_li((1, 3), 0.5, CTX), lambda: eval_li((2,), 0.5, CTX),
      lambda: eval_hurwitz_mzv((1, 2), 0.0, CTX)]),
], ids=["mzv", "ak_lhs", "li"])
def test_a_sum_is_the_same_cold_and_after_its_shared_entries(target, fillers):
    # the fillers share the target's inner-level prefix or outer-level suffix
    clear_caches()
    cold = target()
    clear_caches()
    for fill in fillers:
        fill()
    warm = target()
    assert warm == cold  # value, bound, kind, method and cutoff


def test_every_evaluation_value_is_exact():
    evaluations = [
        eval_hurwitz_mzv((1, 2), 0.5, CTX),
        eval_t((1, 3), CTX),
        eval_li((1, 1), 0.5, CTX),
        eval_ak_lhs((1, 2), 1, 2, -0.5, CTX),
        eval_ak_lhs((1,), 4, 1, -0.5, CTX),
        eval_ak_rhs((1, 2), 2, 0.5, CTX),
        eval_euler_transform(3, 2, -0.5, CTX),
        eval_prop2_series(Composition.of(2), 0.5, 0.25, 4, CTX),
        zeta_em(3, 0.25, CTX),
        clausen(2, math.pi / 3, CTX),
    ]
    for ev in evaluations:
        assert type(ev.value) is Fraction, ev
    # the type holds the invariant: a float, an mpf or a NaN is refused
    for value in (1.5, mp.mpf(1) / 3, math.nan):
        with pytest.raises(DomainError):
            Evaluation(value, 0.0, RIGOROUS, "test", 0)
