import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from akzeta.errors import DomainError
from akzeta.evaluator import eval_euler_transform
from akzeta.numerics import (PrecisionContext, DEFAULT_CTX, RIGOROUS, ESTIMATED,
                             Evaluation, beta_factor_exact, combination, digamma,
                             zeta_em, clausen, accelerate_alternating, exact_sum,
                             round_up)


def test_precision_context_defaults_and_cutoff():
    ctx = PrecisionContext()
    assert ctx.digits == 50
    ctx2 = ctx.with_cutoff(1234)
    assert ctx2.default_cutoff == 1234
    assert ctx.default_cutoff != 1234  # frozen original untouched


def test_precision_context_caps_digits_where_float_bounds_hold():
    # bounds are floats: past 300 digits those sized from 10^-digits turn
    # subnormal, and then 0
    for digits in (14, 301, 400):
        with pytest.raises(DomainError):
            PrecisionContext(digits=digits)
    ctx = PrecisionContext(digits=300)
    assert zeta_em(2, 0, ctx).bound > 0
    assert eval_euler_transform(2, 1, -0.5, ctx).bound > 0


def test_precision_context_requires_integer_settings():
    # an infinite cap would never end the cutoff ladder; fractional settings
    # break the term counts and the fixed-point DP
    for bad in (math.inf, math.nan, 50.5):
        with pytest.raises(DomainError, match="integer"):
            PrecisionContext(digits=bad)
    for bad in (math.inf, math.nan, 64.5):
        with pytest.raises(DomainError, match="integer"):
            PrecisionContext(default_cutoff=bad)
        with pytest.raises(DomainError, match="integer"):
            DEFAULT_CTX.with_cutoff(bad)


def test_bits_is_mpmath_precision():
    # bits() is the binary precision mpmath sets for digits + 10 decimal digits
    for digits in range(15, 301):
        ctx = PrecisionContext(digits=digits)
        with mp.workdps(digits + 10):
            assert mp.mp.prec == ctx.bits(), digits


def test_beta_factor_exact_and_float():
    # B(n, 1+x) by the recurrence against the Gamma definition
    for n in (1, 2, 7, 40):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)):
            exact = beta_factor_exact(n, x)
            ref = mp.beta(n, 1 + mp.mpf(x.numerator) / x.denominator)
            assert abs(float(exact) - float(ref)) < 1e-14


def test_beta_factor_exact_is_the_product_loop():
    # one Fraction from (n-1)! b^n / prod (a + j b): the same value as the
    # loop 1/(1+x) prod_{j<n} j/(j+1+x) it replaced
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3),
              Fraction(5, 2), 3):
        for n in range(1, 41):
            ref = 1 / (1 + Fraction(x))
            for j in range(1, n):
                ref *= Fraction(j) / (j + 1 + x)
            assert beta_factor_exact(n, x) == ref


def test_beta_factor_central_binomial():
    # 4^n / C(2n, n) = n * B(n, 1/2)
    for n in (1, 3, 10):
        assert n * beta_factor_exact(n, Fraction(-1, 2)) == \
            Fraction(4**n, math.comb(2 * n, n))


def test_zeta_em_against_mpmath():
    ctx = PrecisionContext(default_cutoff=20000)
    for s, x in [(2, 0.0), (3, 0.0), (2, -0.5), (1.5, 0.25), (7, 0.0),
                 (2.5, -0.5)]:
        ev = zeta_em(s, x, ctx)
        ref = float(mp.zeta(s, 1 + x))
        assert abs(float(ev.value) - ref) <= max(ev.bound, 1e-14)
        assert ev.bound_kind == RIGOROUS


def test_zeta_em_domain():
    with pytest.raises(DomainError):
        zeta_em(1.0, 0.0)
    with pytest.raises(DomainError):
        zeta_em(2.0, -1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            zeta_em(bad, 0.0)


def test_zeta_em_within_bound_at_high_precision():
    # the bound must majorize the error at the working precision, so the
    # Euler-Maclaurin coefficients have to be exact there
    for digits in (15, 30, 50, 300):
        ctx = PrecisionContext(digits=digits)
        for s, x in [(3, 0.0), (2, 0.5), (5, -0.5), (4, 0.25), (2, 0.0),
                     (1.5, 0.25), (2, -0.9), (2.5, 0.0), (2.5, -0.5)]:
            ev = zeta_em(s, x, ctx)
            assert ev.bound < 10.0 ** -digits
            with mp.workdps(digits + 10):
                err = abs(_mpf(ev.value) - mp.zeta(s, 1 + mp.mpf(x)))
            assert err <= ev.bound, (digits, s, x)


def test_zeta_em_within_bound_near_minus_one():
    # (1 + x)^-s dominates the sum: the round-off scales with the value, and
    # an absolute 10^-(digits + 4) fell short of it
    for digits in (15, 30, 50):
        ctx = PrecisionContext(digits=digits)
        for s, x in [(7, -0.999), (3, -0.9999999), (5, -0.99), (2.5, -0.999)]:
            ev = zeta_em(s, x, ctx)
            assert ev.bound_kind == RIGOROUS
            with mp.workdps(digits + 60):
                err = abs(_mpf(ev.value) - mp.zeta(s, 1 + mp.mpf(x)))
            assert err <= ev.bound, (digits, s, x)


def test_digamma_within_bound():
    # psi(1 + x) is minus zeta_em's constant term at s = 1: near the pole
    # at x = -1, where 1/(1 + x) dominates, and past x = 40, where the
    # Euler-Maclaurin base N + x is large
    xs = [0.0, 0.5, -0.5, 1 / 3, 0.1, -0.9, -0.999, -1 + 1e-12, 0.4616321449683623,
          41.5, 145.5, 1e3]
    for digits in (15, 50, 300):
        ctx = PrecisionContext(digits=digits)
        for x in xs:
            ev = digamma(x, ctx)
            assert ev.bound_kind == RIGOROUS
            assert ev.bound < 10.0 ** -digits * (1 + abs(float(ev.value)))
            with mp.workdps(digits + 40):
                err = abs(_mpf(ev.value) - mp.digamma(1 + mp.mpf(x)))
            assert err <= ev.bound, (digits, x)
    for bad in (-1.0, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            digamma(bad)


def test_zeta_em_sums_few_terms_at_high_precision():
    # the Euler-Maclaurin corrections, not the partial sum, carry the precision
    ev = zeta_em(2, 0.0, PrecisionContext(digits=50))
    assert ev.cutoff_used <= 100
    assert ev.bound < 1e-50


def test_clausen_values():
    ctx = DEFAULT_CTX
    # theta is a double: allow |Cl'| <= 1.1 times its rounding from the exact angle
    slack = 2.5e-16
    with mp.workdps(ctx.digits + 10):
        cases = [
            (2, 0.0, mp.mpf(0), 0.0),
            (3, 0.0, mp.zeta(3), 0.0),
            (3, math.pi / 3, mp.zeta(3) / 3, slack),
            (2, math.pi / 2, mp.catalan, slack),
            # a Decimal angle is taken exactly, not rounded to a double
            (3, Decimal(str(mp.pi / 3)), mp.zeta(3) / 3, 0.0),
            (2, Decimal(str(mp.pi / 2)), mp.catalan, 0.0),
        ]
        for order, th, ref, tol in cases:
            ev = clausen(order, th, ctx)
            assert ev.bound_kind == RIGOROUS
            assert abs(_mpf(ev.value) - ref) <= ev.bound + tol, (order, th)
        # odd symmetry of the order-2 function
        th = math.pi / 3
        assert abs(clausen(2, -th, ctx).value + clausen(2, th, ctx).value) \
            <= 2 * clausen(2, th, ctx).bound
        # near 0, Cl_2(t) = t - t ln t + t^3/72 + O(t^5); a direct
        # series would need ~1e10 terms here
        t = mp.mpf(1e-9)
        ev = clausen(2, 1e-9, ctx)
        assert abs(_mpf(ev.value) - (t - t * mp.log(t) + t**3 / 72)) <= ev.bound + t**5


@pytest.mark.parametrize("digits", [15, 50, 300])
def test_clausen_against_mpmath_oracle(digits):
    # the rigorous bound majorizes the error at the exact rational of the
    # angle, given as a float or as a Fraction, within [0, pi] or outside it
    ctx = PrecisionContext(digits=digits)
    for th in (0.0, 1e-9, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 3.0, -1.0, 7.0):
        with mp.workdps(digits + 60):
            exact = _mpf(th)
            refs = {2: mp.clsin(2, exact), 3: mp.clcos(3, exact)}
        for angle in (th, Fraction(th)):
            for order, ref in refs.items():
                ev = clausen(order, angle, ctx)
                assert ev.bound_kind == RIGOROUS and ev.bound < 10.0 ** -digits
                with mp.workdps(digits + 60):
                    assert abs(_mpf(ev.value) - ref) <= ev.bound, (digits, order, angle)


def test_clausen_rejects_bad_order():
    with pytest.raises(DomainError):
        clausen(4, 1.0, DEFAULT_CTX)
    for theta in (math.nan, math.inf, mp.mpf("-inf")):
        with pytest.raises(DomainError):
            clausen(2, theta, DEFAULT_CTX)


def _mpf(value):
    """A float or Fraction value as an mpf at the current precision."""
    num, den = value.as_integer_ratio()
    return mp.mpf(num) / den


def _alternating_within_bound(power, exact):
    # magnitudes 1/n^power in fixed point, rounded down: a moment sequence
    for digits in (15, 50):
        ctx = PrecisionContext(digits=digits)
        F = ctx.bits() + 16
        ev = accelerate_alternating(lambda n: (1 << F) // n**power, F, ctx)
        assert ev.bound_kind == RIGOROUS
        assert ev.bound < 10.0 ** -digits
        with mp.workdps(digits + 20):
            assert abs(_mpf(ev.value) - exact()) <= ev.bound, digits


def test_accelerate_alternating_log2():
    _alternating_within_bound(1, lambda: mp.log(2))


def test_accelerate_alternating_eta2():
    _alternating_within_bound(2, lambda: mp.pi**2 / 12)


def test_accelerate_rejects_non_alternating():
    # the terms are given as magnitudes; a negative one would not alternate
    with pytest.raises(DomainError):
        accelerate_alternating(lambda n: (1 << 60) // n if n < 3 else -((1 << 60) // n), 60)


def test_evaluation_rejects_bad_bound():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="error bound"):
            Evaluation(value=Fraction(1), bound=bad, bound_kind=RIGOROUS,
                       method="test", cutoff_used=0)


def test_round_up_is_exact():
    # round_up is the least float >= q
    for q in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 10**320), Fraction(10**300, 7)):
        f = round_up(q)
        assert f >= q and math.nextafter(f, -math.inf) < q
    assert round_up(Fraction(1, 2)) == 0.5


def test_exact_sum_is_the_fraction_sum():
    # ints, floats and Fractions as weights and terms, over unlike denominators
    terms = [(3, Fraction(1, 3)), (-2, 0.1), (Fraction(1, 7), Fraction(5, 2**96)),
             (0.5, 2**-1000), (7, 4)]
    expect = sum(Fraction(w) * Fraction(q) for w, q in terms)
    got = exact_sum(terms)
    assert type(got) is Fraction and got == expect
    assert exact_sum([]) == 0
    # denominators that the running one already divides, and ones that widen it
    terms = [(1, Fraction(1, 12)), (1, Fraction(1, 4)), (5, Fraction(1, 6)), (1, Fraction(1, 10))]
    assert exact_sum(terms) == sum(Fraction(w) * q for w, q in terms) == Fraction(19, 15)


def test_combination_sums_exactly_and_rounds_the_bound_up_once():
    parts = [(Fraction(-1, 3), Evaluation(Fraction(1, 7), 0.1, RIGOROUS, "a", 40)),
             (2, Evaluation(Fraction(2, 5), 0.2, RIGOROUS, "b", 64)),
             (-0.5, Evaluation(Fraction(-3), 1e-17, RIGOROUS, "c", 32))]
    ev = combination(parts, "sum")
    assert ev.value == Fraction(-1, 21) + Fraction(4, 5) + Fraction(3, 2)
    # |w| b summed exactly, negative weights counted by their size
    exact = Fraction(1, 3) * Fraction(0.1) + 2 * Fraction(0.2) + Fraction(1, 2) * Fraction(1e-17)
    assert ev.bound == round_up(exact) and ev.bound >= exact
    assert (ev.bound_kind, ev.method, ev.cutoff_used) == (RIGOROUS, "sum", 64)
    # one estimated part makes the whole estimated
    parts.append((1, Evaluation(Fraction(0), 0.0, ESTIMATED, "d", 8)))
    assert combination(parts, "sum").bound_kind == ESTIMATED
