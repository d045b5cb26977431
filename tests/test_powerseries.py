import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from akzeta.combinatorics import Composition
from akzeta.errors import DomainError
from akzeta.harmonic_bell import d_operator
from akzeta.powerseries import (PolyRat, series_inverse, bernoulli_numbers,
                                bernoulli_over_factorial, classical_bernoulli_polynomial,
                                li_series, ak_bernoulli_polys)


def test_polyrat_arithmetic_and_eval():
    p = PolyRat([-1, Fraction(3, 2), 1])  # (x - 1/2)(x + 2)
    assert p(Fraction(1, 2)) == 0
    assert p(0) == -1
    assert p.degree == 2
    assert PolyRat([0, 0]) == PolyRat()
    assert PolyRat([0, 2, 0]) == PolyRat([0, Fraction(4, 2)])
    assert hash(PolyRat([1, 0])) == hash(PolyRat([Fraction(1)]))
    with pytest.raises(AttributeError):  # a polynomial is an immutable value
        p.coeffs = (1,)
    assert p.coeffs == (-1, Fraction(3, 2), 1)


def test_polyrat_str_canonical():
    assert str(PolyRat([Fraction(-1, 2), 1])) == "x - 1/2"
    assert str(PolyRat([1])) == "1"
    assert str(PolyRat()) == "0"
    assert str(PolyRat([0, 0, 1])) == "x^2"
    assert str(PolyRat([Fraction(1, 2), -3])) == "-3*x + 1/2"


def test_truncseries_mul_and_inverse():
    # 1/(1 + t) = 1 - t + t^2 - ... to the order of the coefficient list
    assert series_inverse([1, 1, 0, 0, 0, 0, 0]) == [(-1) ** k for k in range(7)]
    assert series_inverse([Fraction(2)]) == [Fraction(1, 2)]
    for f in ([0, 1, 0, 0, 0], []):
        with pytest.raises(DomainError):
            series_inverse(f)


SMALL_FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=24)


@settings(max_examples=100, deadline=None)
@given(st.lists(SMALL_FRACTIONS, min_size=1, max_size=10))
def test_series_inverse_is_the_fraction_loop(f):
    if f[0] == 0:
        f[0] = Fraction(1, 3)
    # the Fraction loop that the integer recurrence replaced
    inv0 = 1 / Fraction(f[0])
    ref = [inv0]
    for n in range(1, len(f)):
        ref.append(-sum(f[k] * ref[n - k] for k in range(1, n + 1)) * inv0)
    got = series_inverse(f)
    assert got == ref and all(type(c) is Fraction for c in got)


@settings(max_examples=100, deadline=None)
@given(st.lists(SMALL_FRACTIONS, max_size=10), SMALL_FRACTIONS)
def test_polyrat_call_is_fractional_horner(coeffs, x):
    p = PolyRat(coeffs)
    ref = Fraction(0)
    for c in reversed(p.coeffs):
        ref = ref * x + c
    got = p(x)
    assert got == ref and type(got) is Fraction
    assert p(x.numerator) == p(Fraction(x.numerator))


def test_bernoulli_numbers():
    B = bernoulli_numbers(8)
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[3] == 0
    assert B[4] == Fraction(-1, 30)
    assert B[8] == Fraction(-1, 30)


def test_bernoulli_over_factorial_matches_the_convolution_recurrence():
    # the tangent-number values equal those of t/(e^t - 1) (e^t - 1)/t = 1,
    # sum_{i<=k} B_i/i! / (k-i+1)! = 0, whatever order the table grew in
    ref = [Fraction(1)]
    for k in range(1, 201):
        ref.append(Fraction(0) if k > 1 and k % 2 else
                   -sum(b / math.factorial(k - i + 1) for i, b in enumerate(ref) if b))
    for k in (200, *range(200)):
        assert bernoulli_over_factorial(k) == ref[k], k
    B100 = ref[100] * math.factorial(100)
    assert mp.bernoulli(100) == mp.mpf(B100.numerator) / B100.denominator


def test_classical_bernoulli_polynomials():
    assert str(classical_bernoulli_polynomial(1)) == "x - 1/2"
    b2 = classical_bernoulli_polynomial(2)
    assert b2(0) == Fraction(1, 6)
    assert b2(1) == Fraction(1, 6)
    # symmetry B_m(1-x) = (-1)^m B_m(x) at a sample point
    b5 = classical_bernoulli_polynomial(5)
    assert b5(Fraction(2, 7)) == -b5(Fraction(5, 7))


def test_li_series_coefficients():
    s = li_series(Composition.of(2), 6)
    assert s[3] == Fraction(1, 9)
    # depth 2: coefficient of w^n is H_{n-1}/n^2 for index (1,2)
    s = li_series(Composition.of(1, 2), 6)
    assert s[1] == 0
    assert s[3] == (Fraction(1) + Fraction(1, 2)) / 9
    with pytest.raises(DomainError):
        li_series(Composition.of(1, 2), 1)


def _li_series_fraction_loop(v, M):
    """Li_v's coefficients by the plain Fraction prefix-sum loop, the oracle."""
    S = [Fraction(1)] * (M + 1)
    for e in v[:-1]:
        prefix, run = [Fraction(0)] * (M + 1), Fraction(0)
        for n in range(1, M + 1):
            prefix[n] = run  # sum over j < n
            run += S[n] / Fraction(n**e)
        S = prefix
    return [Fraction(0)] + [S[n] / Fraction(n ** v[-1]) for n in range(1, M + 1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
    lambda v: st.tuples(st.just(tuple(v)), st.integers(len(v), 80))))
def test_li_series_is_the_fraction_loop(case):
    v, M = case
    c = li_series(Composition(v), M)
    assert all(type(cn) is Fraction for cn in c)
    assert c[0] == 0
    assert c == _li_series_fraction_loop(v, M)


def test_li_series_numeric_vs_mpmath():
    # Li_2(w) at w = 1/3 against the classical dilogarithm
    s = li_series(Composition.of(2), 60)
    w = Fraction(1, 3)
    val = sum(c * w**n for n, c in enumerate(s))
    with mp.workdps(40):
        ref = mp.polylog(2, mp.mpf(1) / 3)
        diff = abs(mp.mpf(val.numerator) / val.denominator - ref)
        assert diff < mp.mpf("1e-25")


def test_ak_bernoulli_collapse_to_classical():
    polys = ak_bernoulli_polys(Composition.of(1), 1, 6)
    for m in range(7):
        assert polys[m] == classical_bernoulli_polynomial(m)


@pytest.mark.parametrize("v", [(1,), (1, 2), (2, 1, 3)])
@pytest.mark.parametrize("p", [1, 2, Fraction(5, 2)])
def test_ak_bernoulli_polys_are_the_kernel_sums(v, p):
    # the Stirling table and the integer at-zero sums against the sums of
    # d_operator(n, -i, 0) in Fractions, and the Appell sums of those
    m_max = 40
    c = li_series(Composition(v), max(m_max + 1, len(v)))
    at_zero = [(-1) ** i * sum(c[n] / Fraction(p) ** n * d_operator(n, -i, 0)
                               for n in range(1, i + 2)) for i in range(m_max + 1)]
    polys = ak_bernoulli_polys(v, p, m_max)
    assert len(polys) == m_max + 1
    for m, poly in enumerate(polys):
        assert poly == PolyRat([math.comb(m, m - j) * at_zero[m - j] for j in range(m + 1)]), m


def test_ak_bernoulli_basic_shapes():
    polys = ak_bernoulli_polys(Composition.of(2), 1, 3)
    assert polys[0] == PolyRat([1])
    assert all(polys[m].degree <= m for m in range(4))
    # Li_v(w) starts at w^depth, so the generating function starts at
    # t^(depth - 1), and B_m = 0 for every m < depth - 1
    assert ak_bernoulli_polys(Composition.of(1, 1, 3), 2, 1) == [PolyRat(), PolyRat()]
    with pytest.raises(DomainError):
        ak_bernoulli_polys(Composition.of(1), 0, 2)
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite rational"):
            ak_bernoulli_polys(Composition.of(1), p, 2)
    with pytest.raises(DomainError, match="m_max"):
        ak_bernoulli_polys(Composition.of(1), 2, 2.5)
    # a plain tuple is taken as a Composition, a bad one refused
    assert ak_bernoulli_polys((1, 2), 2, 3) == ak_bernoulli_polys(Composition.of(1, 2), 2, 3)
    for v in ((1, 0), (), 2):
        with pytest.raises(DomainError):
            ak_bernoulli_polys(v, 2, 3)


def test_ak_bernoulli_at_one_is_kaneko_poly_bernoulli():
    # At x = 1 the generating function is Li_k((1-e^{-t})/p)/(1-e^{-t}).  At
    # p = 1 its coefficients are Kaneko's poly-Bernoulli numbers
    # B_n^(k) = (-1)^n sum_m (-1)^m m! S(n,m) / (m+1)^k
    # (J. Theor. Nombres Bordeaux 9 (1997)), S the Stirling numbers of the
    # second kind; the power (1-e^{-t})^m/p^(m+1) adds the factor p^-(m+1).
    n_max = 8
    S = [[1] + [0] * n_max]
    for n in range(1, n_max + 1):
        S.append([0] + [m * S[n - 1][m] + S[n - 1][m - 1] for m in range(1, n_max + 1)])
    for p in (1, 2, Fraction(5, 2)):
        for k in range(1, 5):
            polys = ak_bernoulli_polys(Composition.of(k), p, n_max)
            for n in range(n_max + 1):
                kaneko = (-1) ** n * sum(Fraction((-1) ** m * math.factorial(m) * S[n][m],
                                                  (m + 1) ** k) / p ** (m + 1)
                                         for m in range(n + 1))
                assert polys[n](1) == kaneko
