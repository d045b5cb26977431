"""Exact truncated power series over rationals and polynomials in x.

Used to build the Bernoulli-type polynomials attached to a multi-index v and
a rational parameter p >= 1 from the generating function
e^{xt}/(e^t - 1) * Li_v((1 - e^{-t})/p).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .combinatorics import Composition
from .errors import DomainError

__all__ = [
    "PolyRat",
    "TruncSeries",
    "series_inverse",
    "series_compose",
    "bernoulli_numbers",
    "classical_bernoulli_polynomial",
    "li_series",
    "ak_bernoulli_polys",
]

Scalar = Union[int, Fraction]


class PolyRat:
    """A polynomial in one variable x with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: Scalar) -> "PolyRat":
        return cls([Fraction(c)])

    @classmethod
    def x(cls) -> "PolyRat":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyRat.const(other)
        return isinstance(other, PolyRat) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "PolyRat":
        other = other if isinstance(other, PolyRat) else PolyRat.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return PolyRat(a)

    __radd__ = __add__

    def __neg__(self) -> "PolyRat":
        return PolyRat([-c for c in self.coeffs])

    def __sub__(self, other) -> "PolyRat":
        other = other if isinstance(other, PolyRat) else PolyRat.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "PolyRat":
        return PolyRat.const(other) - self

    def __mul__(self, other) -> "PolyRat":
        if isinstance(other, (int, Fraction)):
            return PolyRat([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyRat(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "PolyRat":
        return PolyRat([c / Fraction(scalar) for c in self.coeffs])

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


class TruncSeries:
    """A formal power series truncated at order M, with exact coefficients.

    Coefficients may be Fractions or PolyRat values; arithmetic is closed at
    the truncation order.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int):
        if order < 0:
            raise DomainError("truncation order must be non-negative")
        cs = list(coeffs)[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([Fraction(1)], order)

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        return cls([Fraction(0), Fraction(1)], order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return TruncSeries(cs, self.order)
        order = min(self.order, other.order)
        return TruncSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], order
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other if isinstance(other, TruncSeries) else -1 * other)

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return TruncSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(out, order)

    __rmul__ = __mul__

    def scale(self, scalar) -> "TruncSeries":
        return TruncSeries([c * scalar for c in self.coeffs], self.order)

    def shift_down(self) -> "TruncSeries":
        """Divide by t; requires zero constant term.  Loses one order."""
        if self.coeffs[0] != 0:
            raise DomainError("cannot divide by t: nonzero constant term")
        return TruncSeries(self.coeffs[1:], self.order - 1)

    def __repr__(self) -> str:
        return f"TruncSeries({self.coeffs}, order={self.order})"


def series_inverse(f: TruncSeries) -> TruncSeries:
    """Multiplicative inverse; requires an invertible constant term."""
    c0 = f.coeffs[0]
    if c0 == 0:
        raise DomainError("series with zero constant term has no inverse")
    if isinstance(c0, PolyRat):
        if c0.degree != 0:
            raise DomainError("cannot invert a non-constant leading coefficient")
        c0 = c0.coeffs[0]
    inv0 = Fraction(1) / c0
    out = [inv0] + [Fraction(0)] * f.order
    for n in range(1, f.order + 1):
        s = 0
        for k in range(1, n + 1):
            s = s + f.coeffs[k] * out[n - k]
        out[n] = -1 * s * inv0
    return TruncSeries(out, f.order)


def series_compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(t)) for an inner series g with zero constant term."""
    if g.coeffs[0] != 0:
        raise DomainError("series_compose requires zero inner constant term")
    order = min(f.order, g.order)
    acc = TruncSeries([f.coeffs[order]], order)
    for n in range(order - 1, -1, -1):  # Horner in g
        acc = acc * g + f.coeffs[n]
    return acc


def exp_t(order: int) -> TruncSeries:
    """exp(t) to the given order."""
    c = Fraction(1)
    coeffs = [c]
    for n in range(1, order + 1):
        c /= n
        coeffs.append(c)
    return TruncSeries(coeffs, order)


def bernoulli_numbers(M: int) -> list[Fraction]:
    """B_0..B_M for t/(e^t - 1), so B_1 = -1/2."""
    if M < 0:
        raise DomainError("M must be non-negative")
    B: list[Fraction] = []
    for m in range(M + 1):
        if m == 0:
            B.append(Fraction(1))
            continue
        s = Fraction(0)
        for j in range(m):
            s += Fraction(math.comb(m + 1, j)) * B[j]
        B.append(-s / (m + 1))
    return B


def classical_bernoulli_polynomial(m: int) -> PolyRat:
    """B_m(x) = sum_k C(m,k) B_k x^{m-k}."""
    B = bernoulli_numbers(m)
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        coeffs[m - k] += Fraction(math.comb(m, k)) * B[k]
    return PolyRat(coeffs)


def li_series(v: Composition, M: int) -> TruncSeries:
    """Multiple polylogarithm Li_v(w) as an exact series in w to order M.

    Coefficient of w^n is the nested sum over n_1 < ... < n_k = n of
    prod n_i^{-v_i}; computed by prefix-sum dynamic programming.
    """
    if M < v.depth:
        raise DomainError("truncation order below the depth of v")
    k = v.depth
    # S[n] for the current level; level 0 is the empty product = 1 for all n.
    S = [Fraction(1)] * (M + 1)  # index by n = 0..M (n=0 unused)
    for level in range(k - 1):
        e = v.parts[level]
        prefix = [Fraction(0)] * (M + 1)
        run = Fraction(0)
        for n in range(1, M + 1):
            prefix[n] = run  # sum over j < n
            run += S[n] / Fraction(n**e)
        S = prefix
    e_last = v.parts[-1]
    coeffs = [Fraction(0)] * (M + 1)
    for n in range(1, M + 1):
        coeffs[n] = S[n] / Fraction(n**e_last)
    return TruncSeries(coeffs, M)


def ak_bernoulli_polys(v: Composition, p, m_max: int) -> list[PolyRat]:
    """Polynomials B^v_{p,m}(x) for m = 0..m_max, exact in x.

    Expands e^{xt}/(e^t-1) * Li_v((1-e^{-t})/p) as a t-series; the m-th
    polynomial is m! times the coefficient of t^m.
    """
    p = Fraction(p)
    if p < 1:
        raise DomainError("p must be >= 1")
    if m_max < 0:
        raise DomainError("m_max must be non-negative")
    M = m_max + v.depth + 5  # guard terms: composition consumes low orders
    et = exp_t(M)
    # w(t) = (1 - e^{-t})/p
    e_neg = TruncSeries([(-1) ** n * c for n, c in enumerate(et.coeffs)], M)
    w_t = (TruncSeries.one(M) - e_neg).scale(Fraction(1) / p)
    li = li_series(v, M)
    G = series_compose(li, w_t)  # vanishes to order depth(v) >= 1
    G_over_t = G.shift_down()
    t_over_expm1 = series_inverse((et - TruncSeries.one(M)).shift_down())
    base = G_over_t * t_over_expm1  # rational coefficients, order M-1
    x = PolyRat.x()
    exp_xt_coeffs = []
    c = PolyRat.const(1)
    for n in range(base.order + 1):
        if n > 0:
            c = c * x * Fraction(1, n)
        exp_xt_coeffs.append(c)
    exp_xt = TruncSeries(exp_xt_coeffs, base.order)
    base_poly = TruncSeries([PolyRat.const(cf) for cf in base.coeffs], base.order)
    total = exp_xt * base_poly
    out = []
    fact = Fraction(1)
    for m in range(m_max + 1):
        if m > 0:
            fact *= m
        cm = total.coeffs[m]
        if not isinstance(cm, PolyRat):
            cm = PolyRat.const(cm)
        out.append(cm * fact)
    return out
