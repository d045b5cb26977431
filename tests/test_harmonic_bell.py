import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from akzeta.errors import DomainError
from akzeta.evaluator import _F, _outer_arrays
from akzeta.harmonic_bell import harmonic_table, bell_modified, d_operator
from akzeta.numerics import beta_factor_exact


def test_harmonic_table_exact_values():
    tab = harmonic_table(4, 2, Fraction(0))
    assert tab[3][0] == Fraction(11, 6)
    assert tab[4][1] == 1 + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)
    assert tab[0] == (0, 0)
    # row n of a longer table is row n of the table that stops at n
    for x in (Fraction(0), Fraction(-1, 2), Fraction(1, 3)):
        tab = harmonic_table(6, 3, x)
        assert len(tab) == 7 and tab[0] == (0, 0, 0)
        assert all(tab[n] == harmonic_table(n, 3, x)[n] for n in range(7))


def test_harmonic_table_shifted():
    tab = harmonic_table(3, 1, Fraction(-1, 2))
    # sum of 1/(j - 1/2) = 2/(2j-1)
    assert tab[2][0] == Fraction(2, 1) + Fraction(2, 3)


def test_harmonic_table_float_matches_exact():
    # the exact B(n,1+x) and P_0..P_m(H-row(n)) against the fixed-point
    # arrays that the summation engine uses, one build per m; x is the float
    # 1/3, which the engine takes as its exact dyadic value
    x = 1 / 3
    N = 50
    tab = harmonic_table(N, 3, Fraction(x))
    # within N (m + 2) units of 2^-F times 1 + the size, as `_roundoff` documents
    tol = N * 5 * Fraction(1, 1 << _F)
    for m in range(4):
        B, P = _outer_arrays(N, m, x)
        assert len(B) == len(P) == N
        for n in (1, 7, 50):
            beta = beta_factor_exact(n, Fraction(x))
            exact = bell_modified(tab[n])[m]
            assert abs(Fraction(B[n - 1], 1 << _F) - beta) <= tol * (1 + beta)
            assert abs(Fraction(P[n - 1], 1 << _F) - exact) <= tol * (1 + exact)
            assert (abs(Fraction(B[n - 1] * P[n - 1], 1 << 2 * _F) - beta * exact)
                    <= tol * (1 + exact))


def test_harmonic_table_validation():
    with pytest.raises(DomainError):
        harmonic_table(5, 1, Fraction(-3, 2))
    with pytest.raises(DomainError):
        harmonic_table(5, 0, 0)


def test_odd_harmonic_values():
    # O_n^(k) = sum_{j<=n} (2j-1)^{-k} = 2^{-k} H_n^(k)(-1/2)
    row = harmonic_table(3, 2, Fraction(-1, 2))[2]
    # O_2 = 1 + 1/3; O_2^(2) = 1 + 1/9
    assert row[0] / 2 == Fraction(4, 3)
    assert row[1] / 4 == Fraction(10, 9)


def _harmonic_table_loop(N, m, x):
    """The Fraction loop that harmonic_table replaced: one gcd per operation."""
    rows = [(Fraction(0),) * m]
    for n in range(1, N + 1):
        rows.append(tuple(h + 1 / (n + x) ** k for k, h in enumerate(rows[-1], 1)))
    return rows


def _bell_modified_loop(x_values):
    """The Fraction loop that bell_modified replaced."""
    P = [Fraction(1)]
    for j in range(1, len(x_values) + 1):
        s = x_values[0] * P[j - 1]
        for k in range(2, j + 1):
            s += x_values[k - 1] * P[j - k]
        P.append(s / j)
    return P


def test_harmonic_table_is_the_fraction_loop():
    # the integer rows over L^k, L widened base by base, are the Fraction
    # loop's rows, and so are the Bell values formed from them
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 2),
              Fraction(-2, 3)):
        for N, m in ((0, 1), (1, 8), (12, 6), (40, 8)):
            rows = harmonic_table(N, m, x)
            assert rows == _harmonic_table_loop(N, m, x)
            assert all(type(h) is Fraction for row in rows for h in row)
            for row in rows[:: max(N // 4, 1)]:
                assert bell_modified(row) == _bell_modified_loop(row)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=8))
def test_bell_modified_is_the_fraction_loop(xs):
    P = bell_modified(xs)
    assert P == _bell_modified_loop(xs)
    assert all(type(v) is Fraction for v in P)


def test_bell_modified_low_orders():
    x1, x2, x3 = Fraction(2), Fraction(3), Fraction(5)
    P = bell_modified([x1, x2, x3])
    assert P[0] == 1
    assert P[1] == x1
    assert P[2] == x1**2 / 2 + x2 / 2
    assert P[3] == x1**3 / 6 + x1 * x2 / 2 + x3 / 3


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_bell_homogeneity(xs, a):
    # P_m(a x_1, a^2 x_2, ...) = a^m P_m(x_1, x_2, ...)
    P = bell_modified(xs)
    scaled = bell_modified([a ** (k + 1) * x for k, x in enumerate(xs)])
    for m in range(len(xs) + 1):
        assert scaled[m] == a**m * P[m]


def test_d_operator_exact_matches_kernel_factorization():
    for n in (1, 2, 5, 8):
        for m in (0, 1, 2, 3):
            for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
                tab = harmonic_table(n, max(m, 1), x)
                lhs = d_operator(n, m + 1, x)
                rhs = beta_factor_exact(n, x) * bell_modified(tab[n])[m]
                assert lhs == rhs


def test_d_operator_at_non_positive_s():
    # s = -i <= 0 sums integers; at x = 0 it is (-1)^(n-1) (n-1)! S(i+1, n),
    # with S the Stirling numbers of the second kind
    S = [[1] + [0] * 25]  # S[j][n] = n S[j-1][n] + S[j-1][n-1]
    for _ in range(25):
        S.append([0] + [n * S[-1][n] + S[-1][n - 1] for n in range(1, 26)])
    for n in range(1, 20):
        for i in range(25):
            assert d_operator(n, -i, 0) == (-1) ** (n - 1) * math.factorial(n - 1) * S[i + 1][n]
    for x in (Fraction(1, 3), Fraction(-1, 2), Fraction(5, 2)):
        for n in range(1, 10):
            for i in range(10):
                assert d_operator(n, -i, x) == sum((-1) ** k * math.comb(n - 1, k) * (x + k + 1) ** i
                                                   for k in range(n))


def test_d_operator_at_positive_s_is_the_fraction_loop():
    # s > 0 sums integers over one common denominator: the same Fraction as
    # the term-by-term rational loop
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)):
        for n in range(1, 13):
            for s in range(1, 7):
                ref = Fraction(0)
                for k in range(n):
                    ref += (-1) ** k * math.comb(n - 1, k) / (x + k + 1) ** s
                assert d_operator(n, s, x) == ref


def test_d_operator_float_and_validation():
    # the operator is exact-only: a fractional s or a float x is rejected
    with pytest.raises(DomainError):
        d_operator(4, 2.5, Fraction(1, 4))
    with pytest.raises(DomainError):
        d_operator(4, 2, 0.25)
    with pytest.raises(DomainError):
        d_operator(0, 2, 0)
    with pytest.raises(DomainError):
        d_operator(3, 2, Fraction(-2))
