"""Shifted harmonic-number rows, modified Bell polynomials, and the
alternating-binomial integral-transform kernel.

Everything here is exact rational: the reference the float engine is checked
against, so every shift x is an int or a Fraction.  A harmonic table is the
plain list of its rows, one tuple of Fractions per n, and the Bell values
are a plain list.  The engine builds the same Bell polynomials twice over,
neither by the recurrence of :func:`bell_modified`: as complete homogeneous
symmetric polynomials of the harmonic rows in fixed point
(``evaluator._outer_arrays``), and, times B(n, 1+x), as the z-power
coefficients of the asymptotic series of B(n, 1+x-z)
(``logasym.bell_p_models``).
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
    rows = [(Fraction(0),) * m]
    for n in range(1, N + 1):
        rows.append(tuple(h + 1 / (n + x) ** k for k, h in enumerate(rows[-1], 1)))
    return rows


def bell_modified(x_values: Sequence[Fraction]) -> list[Fraction]:
    """P_0..P_m for the generating identity exp(sum x_k z^k / k) = sum P_m z^m.

    Uses the recurrence m*P_m = sum_{k=1}^{m} x_k P_{m-k}, exactly.
    """
    P = [Fraction(1)]
    for j in range(1, len(x_values) + 1):
        s = x_values[0] * P[j - 1]
        for k in range(2, j + 1):
            s += x_values[k - 1] * P[j - k]
        P.append(s / j)
    return P


def d_operator(n: int, s: int, x) -> Fraction:
    """D(n, s, x) = sum_{k=0}^{n-1} (-1)^k C(n-1,k) (x+k+1)^{-s}, exactly.

    The kernel of Z(s; x) = sum_n c_n p^{-n} D(n, s, x).  At s = m + 1 it is
    B(n, 1+x) P_m of the harmonic row; at s = -m <= 0 it is (-1)^(n-1)
    times the (n-1)-th forward difference of (x+1)^m in x, a polynomial of
    degree m - n + 1 and zero for n > m + 1, from which
    :func:`~akzeta.powerseries.ak_bernoulli_polys` builds the polynomials.
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
