"""Shifted harmonic-number rows, modified Bell polynomials, and the
alternating-binomial integral-transform kernel.

Everything here is exact rational: the reference the float engine is checked
against, so every shift x and every Bell argument is an int or a Fraction,
and a float is refused.  The loops run in Python integers over one common
denominator or scale, and reduce each returned value to a Fraction once.  At
x = a/b, 1/(j + x) = b/(a + j b), so row n of a harmonic table is a list of
integers over the powers of L, the lcm of the bases a + j b, j <= n; the Bell
recurrence runs on the integers j! T^j P_j.  A harmonic table is the plain
list of its rows, one tuple of Fractions per n, and the Bell values are a
plain list.  The engine builds the same Bell polynomials twice over, neither
by the recurrence of :func:`bell_modified`: as complete homogeneous
symmetric polynomials of the harmonic rows in fixed point
(``evaluator._outer_arrays``), and, times B(n, 1+x), as the z-power
coefficients of the asymptotic series of B(n, 1+x-z)
(``logasym._beta_series``, which ``logasym.tail_chain`` reads).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import integer, rational

__all__ = ["harmonic_table", "bell_modified", "d_operator"]


def harmonic_table(N: int, m: int, x) -> list[tuple[Fraction, ...]]:
    """The rows n = 0..N of H_n^(k)(x) = sum_{j<=n} (j+x)^{-k}, exactly.

    Row n is (H_n^(1)(x), ..., H_n^(m)(x)), the arguments of the Bell
    polynomials; row 0 is all zeros.  x is an int or a Fraction.
    """
    N, m, x = integer(N, 0, "N"), integer(m, 1, "m"), rational(x, "x", above=-1)
    a, b = x.numerator, x.denominator
    # 1/(j + x) = b/(a + j b) = u_j/L, L the lcm of the bases a + j b >= a + b > 0
    # so far; H^(k) is held as an integer over L^k, and L widens by the factor
    # f a new base needs, each H^(k) with it by f^k
    L, acc, powers = 1, [0] * m, [1] * m
    rows = [(Fraction(0),) * m]
    for c in (a + j * b for j in range(1, N + 1)):
        if L % c:
            f = c // math.gcd(L, c)
            L *= f
            fk = 1
            for k in range(m):
                fk *= f
                acc[k] *= fk
                powers[k] *= fk
        u = b * (L // c)
        uk = 1
        for k in range(m):
            uk *= u
            acc[k] += uk
        rows.append(tuple(map(Fraction, acc, powers)))
    return rows


def bell_modified(x_values: Sequence[Fraction]) -> list[Fraction]:
    """P_0..P_m for the generating identity exp(sum x_k z^k / k) = sum P_m z^m.

    Uses the recurrence m*P_m = sum_{k=1}^{m} x_k P_{m-k}, exactly, on the
    integers Q_j = j! T^j P_j, with T a scale that makes every X_k = x_k T^k
    an integer: Q_j = sum_k (j-1)!/(j-k)! X_k Q_{j-k}.  The x_k are ints or
    Fractions.
    """
    xs = [rational(v, "Bell argument") for v in x_values]
    # widen T only by what d_k still lacks: for harmonic rows, whose d_k
    # divides L^k, T stays near L rather than the lcm of all the d_k
    T = 1
    for k, v in enumerate(xs, 1):
        d = v.denominator
        g = math.gcd(T**k, d)
        if g != d:
            T *= d // g
    X = [v.numerator * (T**k // v.denominator) for k, v in enumerate(xs, 1)]
    Q, P, scale = [1], [Fraction(1)], 1
    for j in range(1, len(X) + 1):
        s, falling = 0, 1  # falling = (j-1)!/(j-k)!
        for k in range(1, j + 1):
            s += falling * X[k - 1] * Q[j - k]
            falling *= j - k
        Q.append(s)
        scale *= j * T
        P.append(Fraction(s, scale))
    return P


def d_operator(n: int, s: int, x) -> Fraction:
    """D(n, s, x) = sum_{k=0}^{n-1} (-1)^k C(n-1,k) (x+k+1)^{-s}, exactly.

    The kernel of Z(s; x) = sum_n c_n p^{-n} D(n, s, x).  At s = m + 1 it is
    B(n, 1+x) P_m of the harmonic row; at s = -m <= 0 it is (-1)^(n-1)
    times the (n-1)-th forward difference of (x+1)^m in x, a polynomial of
    degree m - n + 1 and zero for n > m + 1.  At x = 0 that difference is
    (n-1)! S(m+1, n), S the Stirling numbers of the second kind, the form in
    which :func:`~akzeta.powerseries.ak_bernoulli_polys` takes the kernel.
    ``s`` may be any integer; ``x`` is an int or a Fraction.
    """
    n, s, x = integer(n, 1, "n"), integer(s, None, "s"), rational(x, "x", above=-1)
    a, b = x.numerator, x.denominator
    if s <= 0:  # x = a/b: sum the integers (a + (k+1) b)^-s, divide once by b^-s
        return Fraction(sum((-1) ** k * math.comb(n - 1, k) * (a + (k + 1) * b) ** -s
                            for k in range(n)), b ** -s)
    # (x + k + 1)^-s = b^s / (a + (k+1) b)^s with a + (k+1) b >= a + b > 0:
    # sum over the common denominator L^s, L the lcm of the bases, reduce once
    bases = [a + (k + 1) * b for k in range(n)]
    L = math.lcm(*bases)
    return Fraction(b**s * sum((-1) ** k * math.comb(n - 1, k) * (L // c) ** s
                               for k, c in enumerate(bases)), L**s)
