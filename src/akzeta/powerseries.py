"""Exact truncated power series over the rationals, and the Bernoulli-type
polynomials of the generalized Arakawa-Kaneko zeta function.

A truncated series is the plain list of its coefficients c_0..c_M, lowest
order first; a polynomial in x is a :class:`PolyRat`.  Coefficients and
arguments are ints or Fractions, and a float is refused.  The loops of
:func:`series_inverse`, :meth:`PolyRat.__call__`, :func:`li_series` and
:func:`ak_bernoulli_polys` run in Python integers over one common
denominator (:func:`over_one_denominator`, which
:func:`~akzeta.numerics.exact_sum` shares) and reduce each returned value
to a Fraction once, in place of one gcd per Fraction operation.

With c_n the w^n coefficient of Li_v(w), that function expands as
Z(s; x) = sum_n c_n p^{-n} D(n, s, x) over the kernel D of
:func:`~akzeta.harmonic_bell.d_operator`, since
(1 - e^{-t})^n/(e^t - 1) = e^{-t} (1 - e^{-t})^{n-1}.  At s = -m the kernel
is an (n-1)-th finite difference of a degree-m polynomial, so the sum stops
at n = m + 1, and Z(-m; x) = sum_{n<=m+1} c_n p^{-n} D(n, -m, x) is
(-1)^m B^v_{p,m}(-x).  At x = 0 the kernel is a Stirling number of the
second kind, D(n, -m, 0) = (-1)^(n-1) (n-1)! S(m+1, n), so one table of
those replaces the kernel sums.  The polynomials come from the exact values
at x = 0 by the binomial formula: x enters their generating function
e^{xt}/(e^t - 1) Li_v((1 - e^{-t})/p) only through e^{xt}, so they form an
Appell sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

from .combinatorics import Composition
from .errors import DomainError, Record, integer, rational

__all__ = [
    "PolyRat",
    "series_inverse",
    "bernoulli_over_factorial",
    "bernoulli_numbers",
    "classical_bernoulli_polynomial",
    "li_series",
    "ak_bernoulli_polys",
]

Scalar = Union[int, Fraction]


class PolyRat(Record):
    """A polynomial in one variable x with exact rational coefficients,
    lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [rational(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Scalar) -> Fraction:
        x = rational(x, "x")
        p, q = x.numerator, x.denominator
        C, D = over_one_denominator([(c.numerator, c.denominator) for c in self.coeffs])
        # Horner's rule on sum_i C_i p^i q^(deg-i); at the end qk = q^(deg+1)
        acc, qk = 0, 1
        for c in reversed(C):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc * q, D * qk)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for deg in range(self.degree, -1, -1):
            c = self.coeffs[deg]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if deg == 0:
                body = f"{mag}"
            else:
                var = "x" if deg == 1 else f"x^{deg}"
                body = var if mag == 1 else f"{mag}*{var}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"PolyRat({self})"


def over_one_denominator(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The pairs (n_i, d_i), d_i > 0, as integers N_i over one common
    denominator D, so that n_i/d_i = N_i/D.  D grows only by what a d_i
    still lacks: a d_i that divides it costs one remainder, not a gcd."""
    den = 1
    for _, d in ratios:
        if den % d:
            den *= d // math.gcd(den, d)
    return [n * (den // d) for n, d in ratios], den


def series_inverse(f: Sequence[Scalar]) -> list[Fraction]:
    """The coefficients of 1/f to the order of f, from the coefficient list
    of f (ints or Fractions); requires an invertible constant term.

    With f = F/D over one denominator, 1/f = D sum_n W_n z^n / F_0^(n+1),
    where W_0 = 1 and W_n = -sum_k F_k F_0^(k-1) W_(n-k) are integers."""
    f = [rational(c, "coefficient") for c in f]
    if not f or f[0] == 0:
        raise DomainError("series with zero constant term has no inverse")
    F, D = over_one_denominator([(c.numerator, c.denominator) for c in f])
    G, F0k = [0], 1  # G_k = F_k F_0^(k-1)
    for Fk in F[1:]:
        G.append(Fk * F0k)
        F0k *= F[0]
    W, den, out = [1], F[0], [Fraction(D, F[0])]
    for n in range(1, len(F)):
        W.append(-sum(G[k] * W[n - k] for k in range(1, n + 1)))
        den *= F[0]
        out.append(Fraction(D * W[n], den))
    return out


# B_2j/(2j)!, j = 0, 1, ...: the even Taylor coefficients of t/(e^t - 1),
# exact; empty until a caller needs them, then rebuilt at 1.5 times the length
_EVEN_BERNOULLI = []


def _even_bernoulli(n: int) -> list[Fraction]:
    """B_2j/(2j)! for j = 0..n, from the tangent numbers T_1..T_n:
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), with T_j formed in integers
    by the in-place recurrence of Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers" (2011), Algorithm TangentNumbers."""
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    out, fact = [Fraction(1)], 1
    for j in range(1, n + 1):
        fact *= 2 * j - 1  # (2j - 1)!
        out.append(Fraction((-1) ** (j - 1) * T[j], 4**j * (4**j - 1) * fact))
        fact *= 2 * j
    return out


def bernoulli_over_factorial(k: int) -> Fraction:
    """B_k/k!, the t^k coefficient of t/(e^t - 1): B_1 = -1/2, and B_k = 0
    at odd k > 1."""
    k = integer(k, 0, "k")
    if k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(0)
    if k // 2 >= len(_EVEN_BERNOULLI):
        _EVEN_BERNOULLI[:] = _even_bernoulli(max(k // 2, 3 * len(_EVEN_BERNOULLI) // 2))
    return _EVEN_BERNOULLI[k // 2]


def bernoulli_numbers(M: int) -> list[Fraction]:
    """B_0..B_M for t/(e^t - 1), so B_1 = -1/2."""
    M = integer(M, 0, "M")
    return [bernoulli_over_factorial(k) * math.factorial(k) for k in range(M + 1)]


def _appell(numbers: Sequence[Fraction], m: int) -> PolyRat:
    """sum_k C(m,k) numbers[k] x^{m-k}: the m-th member of the Appell
    sequence whose values at x = 0 are ``numbers``.  Each coefficient is
    one Fraction of the integer C(m,k) times the reduced numerator, over
    the reduced denominator: one gcd, and no int * Fraction product."""
    return PolyRat([Fraction(math.comb(m, j) * q.numerator, q.denominator)
                    for j, q in enumerate(reversed(numbers[:m + 1]))])


def classical_bernoulli_polynomial(m: int) -> PolyRat:
    """B_m(x) = sum_k C(m,k) B_k x^{m-k}."""
    m = integer(m, 0, "m")
    return _appell(bernoulli_numbers(m), m)


def li_series(v: Composition, M: int) -> list[Fraction]:
    """Multiple polylogarithm Li_v(w) as an exact series in w to order M:
    the list c_0..c_M, with c_0 = 0.

    Coefficient of w^n is the nested sum over n_1 < ... < n_k = n of
    prod n_i^{-v_i}; computed by prefix-sum dynamic programming on integers
    A_n over one denominator D: each level puts A_j / (D j^e) over one
    denominator and takes the prefix sums over j < n.
    """
    v = Composition.coerce(v)
    M = integer(M, v.depth, "truncation order M")
    A, D = [1] * (M + 1), 1  # level 0, the empty product, for n = 0..M (n = 0 unused)
    for e in v.parts[:-1]:
        B, D = over_one_denominator([(A[j], D * j**e) for j in range(1, M + 1)])
        A = [0, 0, *accumulate(B[:-1])]  # A_n = sum_{j<n} B_j
    e_last = v.parts[-1]
    return [Fraction(0)] + [Fraction(A[n], D * n**e_last) for n in range(1, M + 1)]


def ak_bernoulli_polys(v, p, m_max: int) -> list[PolyRat]:
    """Polynomials B^v_{p,m}(x) for m = 0..m_max, exact in x.

    Their values at x = 0 are
    B_i(0) = (-1)^i sum_{n=1}^{i+1} c_n p^{-n} D(n, -i, 0), with c_n the
    coefficients of :func:`li_series`; each polynomial is the Appell sum of
    those.  The kernel at x = 0 is D(n, -i, 0) = (-1)^(n-1) (n-1)! S(i+1, n),
    S the Stirling numbers of the second kind (Graham, Knuth and Patashnik,
    Concrete Mathematics, 2nd ed., section 6.1), so one table row per i
    replaces the kernel sums, and the weights (-1)^(n-1) (n-1)! c_n p^-n,
    which do not depend on i, are put over one denominator once.
    """
    v, p, m_max = Composition.coerce(v), rational(p, "p"), integer(m_max, 0, "m_max")
    if p < 1:
        raise DomainError("p must be >= 1")
    c = li_series(v, max(m_max + 1, v.depth))
    a, b = p.numerator, p.denominator
    E, den = over_one_denominator(
        [((-1) ** (n - 1) * math.factorial(n - 1) * c[n].numerator * b**n, c[n].denominator * a**n)
         for n in range(1, m_max + 2)])
    at_zero, S = [], [0, 1]  # S[n] = S(i+1, n), n = 0..i+1
    for i in range(m_max + 1):
        at_zero.append(Fraction((-1) ** i * sum(e * s for e, s in zip(E, S[1:])), den))
        S.append(0)
        S = [0] + [n * S[n] + S[n - 1] for n in range(1, len(S))]
    return [_appell(at_zero, m) for m in range(m_max + 1)]
