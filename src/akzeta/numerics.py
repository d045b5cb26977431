"""Numeric kernels: precision management, beta factors, zeta series with
explicit truncation bounds, Clausen functions, and alternating-series
acceleration.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from typing import Callable

from .errors import DomainError, DivergenceError, Record, integer, rational, real
from .powerseries import bernoulli_over_factorial

__all__ = [
    "PrecisionContext",
    "Evaluation",
    "beta_factor_exact",
    "zeta_em",
    "clausen",
    "accelerate_alternating",
]

RIGOROUS = "rigorous"
ESTIMATED = "estimated"

_CACHES = []


def memoized(fn):
    """The one cache policy: keep the last 4096 results of ``fn``, a pure
    function of normalized arguments, until :func:`clear_caches`."""
    _CACHES.append(lru_cache(maxsize=4096)(fn))
    return _CACHES[-1]


def clear_caches():
    """Empty every :func:`memoized` cache: sums, tail models, zeta values, contexts."""
    for cached in _CACHES:
        cached.cache_clear()


class PrecisionContext(Record):
    """Working precision and the cap on summation cutoffs.

    ``digits`` sets the mpmath precision, the term counts of :func:`zeta_em`,
    and the term count and fixed-point width of the alternating transforms,
    which work in Python integers at :meth:`bits`.  Values are exact
    Fractions at any precision: their bounds say how many digits hold.  It
    is at most 300: the bounds are floats, and past that the ones sized from
    the precision turn subnormal and then 0.  ``default_cutoff`` is
    the largest cutoff any series may use: the prefix-sum DP paths pick their
    own, smaller cutoff from their error model and stop at it at the latest.
    """

    __slots__ = ("digits", "default_cutoff")

    def __init__(self, digits: int = 50, default_cutoff: int = 100_000):
        self._set(integer(digits, 15, "precision"), integer(default_cutoff, 10, "cutoff"))
        if self.digits > 300:
            raise DomainError(f"require a precision <= 300, got {self.digits}")

    def with_cutoff(self, N: int) -> "PrecisionContext":
        return PrecisionContext(self.digits, N)

    def bits(self) -> int:
        """The binary precision of digits + 10 decimal digits, as mpmath's
        ``dps`` sets it: the precision of :meth:`mp_ctx`, whose rounding
        unit eps = 2^(1 - bits) sizes the alternating transforms."""
        return round((self.digits + 11) * 3.3219280948873626)

    def mp_ctx(self):
        """The mpmath context at digits + 10, one shared per ``digits``:
        callers must not change its precision.  The first call imports
        mpmath, so a float-only evaluation never loads it."""
        return _mp_context(self.digits + 10)


@memoized
def _mp_context(dps: int):
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


DEFAULT_CTX = PrecisionContext()


class Evaluation(Record):
    """A numeric result with an explicit truncation-error bound."""

    __slots__ = ("value", "bound", "bound_kind", "method", "cutoff_used")

    def __init__(self, value, bound: float, bound_kind: str, method: str, cutoff_used: int):
        """``value`` is held as an exact Fraction: a float or an mpf raises
        ``DomainError``.  ``bound`` bounds its distance from the true value,
        and ``bound_kind`` is "rigorous" or "estimated"."""
        value = rational(value, "value")
        if not (math.isfinite(bound) and bound >= 0):
            raise DomainError(f"error bound must be finite and >= 0, got {bound}")
        if bound_kind not in (RIGOROUS, ESTIMATED):
            raise DomainError(f"unknown bound kind {bound_kind!r}")
        self._set(value, bound, bound_kind, method, cutoff_used)

    def __float__(self) -> float:
        return float(self.value)


def round_up(q: Fraction) -> float:
    """The least float >= the rational ``q``; past the float range raises
    ``OverflowError``."""
    n, d = q.as_integer_ratio()
    f = n / d  # correctly rounded; compared below in integers, without a Fraction
    fn, fd = f.as_integer_ratio()
    return f if fn * d >= n * fd else math.nextafter(f, math.inf)


def exact_sum(terms) -> Fraction:
    """The exact sum of w * q over pairs (w, q) of rationals (ints, floats
    or Fractions), formed in integers over one common denominator and
    reduced once, in place of one gcd per Fraction operation."""
    ratios = [(w.as_integer_ratio(), q.as_integer_ratio()) for w, q in terms]
    den = math.lcm(*(wd * qd for (_, wd), (_, qd) in ratios))
    return Fraction(sum(wn * qn * (den // (wd * qd)) for (wn, wd), (qn, qd) in ratios), den)


def mpf_fraction(v) -> Fraction:
    """The exact Fraction of an mpf, from its ``man_exp``, which leaves out
    the sign; NaN, or a value past the float range, raises ``DomainError``."""
    real(v, "value")
    man, exp = v.man_exp
    return (-man if v < 0 else man) * Fraction(2) ** exp


def beta_factor_exact(n: int, x) -> Fraction:
    """B(n, 1+x) as an exact rational, for x an int or a Fraction."""
    n, x = integer(n, 1, "n"), rational(x, "x", above=-1)
    out = 1 / (1 + x)
    for j in range(1, n):
        out *= Fraction(j) / (j + 1 + x)
    return out


def zeta_em(s, x=0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n>=1} (n+x)^{-s} via partial sum plus Euler-Maclaurin tail.

    The bound is twice the first omitted correction term, a majorant of the
    remainder for this completely monotone integrand, plus the round-off.
    The value is the exact Fraction of the mpf sum.
    """
    return _zeta_em_cached(real(s, "s"), real(x, "x", above=-1), ctx.digits, ctx.default_cutoff)


@memoized
def _zeta_em_cached(sf: float, xf: float, digits: int, cutoff: int) -> Evaluation:
    if sf <= 1:
        raise DivergenceError("series diverges for s <= 1")
    wp = PrecisionContext(digits=digits, default_cutoff=cutoff).mp_ctx()
    # from N ~ digits on, the corrections shrink past the target within a
    # few dozen terms; the configured cutoff caps N
    N = min(max(10, digits), cutoff)
    s, x = wp.mpf(sf), wp.mpf(xf)
    base = N + x
    value = (wp.fsum((n + x) ** (-s) for n in range(1, N))
             + base ** (1 - s) / (s - 1) + base ** (-s) / 2)
    # add the corrections B_2k/(2k)! (s)_{2k-1} base^{1-s-2k} until one
    # clears the target or stops shrinking: that one is the first omitted
    target = 10.0 ** (-(digits + 2))
    poch = s  # (s)_{2k-1}
    last = math.inf
    k = 1
    while True:
        c = bernoulli_over_factorial(2 * k)
        term = c.numerator * poch * base ** (1 - s - 2 * k) / c.denominator
        omitted = float(abs(term))
        if omitted <= target or omitted >= last:
            break
        value += term
        last = omitted
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        k += 1
    return Evaluation(
        value=mpf_fraction(value),
        bound=2.0 * omitted + 10.0 ** (-(digits + 4)),
        bound_kind=RIGOROUS,
        method="euler_maclaurin",
        cutoff_used=N,
    )


def clausen(order: int, theta, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Clausen function Cl_2 (sine series) or Cl_3 (cosine series).

    Evaluated by mpmath's ``clsin``/``clcos`` at the working precision, at
    the angle as given (a float, or an mpf rounded to the working
    precision); the bound is that precision's last digits, not a proven
    majorant, and does not cover an error in the angle itself.
    """
    order = integer(order, 2, "order")
    if order > 3:
        raise DomainError("order must be 2 or 3")
    real(theta, "theta")  # its float only checks the angle: an mpf keeps its precision
    wp = ctx.mp_ctx()
    th = wp.mpf(theta)
    fn = wp.clsin if order == 2 else wp.clcos
    return Evaluation(
        value=mpf_fraction(fn(order, th)),
        bound=10.0 ** (-(ctx.digits + 2)),
        bound_kind=ESTIMATED,
        method="mpmath_clausen",
        cutoff_used=0,
    )


def accelerate_alternating(b: Callable[[int], int], F: int,
                           ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{k>=1} (-1)^(k+1) b_k from fixed-point magnitudes b(k): integers
    with 2^F b_k - 2 < b(k) <= 2^F b_k, for magnitudes b_k >= 0.

    One order n of Algorithm 1 of Cohen, Rodriguez Villegas and Zagier,
    "Convergence acceleration of alternating series", Exp. Math. 9 (2000),
    with n = ceil(ln(2/eps) / ln(3 + sqrt 8)) terms for the working
    context's eps = 2^(1 - ``ctx.bits()``), capped by ``ctx.default_cutoff``.
    Its weights are exact integers: d_n = T_n(3) by d_(k+1) = 6 d_k - d_(k-1),
    the Chebyshev coefficients w_(k+1) = w_k 2 (k+n)(k-n) / ((2k+1)(k+1)),
    a division without remainder, and c_k = w_k - c_(k-1), c_(-1) = -d_n.
    When b is a Hausdorff moment sequence, b_k = int_0^1 t^(k-1) dmu(t)
    for a measure mu >= 0, their Proposition 1 bounds the acceleration
    error by S/d_n, and the sum S is at most b_1 (so this is at most
    2 b_1 (3 + sqrt 8)^-n).  A magnitude that is not an integer >= 0 raises
    ``DomainError``; the moment property itself is the caller's to prove.

    Round-off: sum_k c_k b(k+1) is an exact integer, each b(k) is below
    2^F b_k by less than 2 units, and |c_k| <= d_n = sum_j |w_j|, so it
    differs from 2^F sum_k c_k b_(k+1) by less than 2 n d_n.  The value,
    the exact rational sum_k c_k b(k+1) / (d_n 2^F), is thus within
    2 n 2^-F of the accelerated sum, and the bound, the rational

        (b(1) + 2) / (d_n 2^F) + 2 n 2^-F

    rounded up to a float, is ``rigorous``.  A value or bound past the float
    range raises ``DomainError``.
    """
    F = integer(F, 0, "F")
    # n is the first order with (3 + sqrt 8)^n >= 2/eps = 2^bits, that is
    # with 2 d_n > 2^bits, as (3 + sqrt 8)^n = 2 d_n - (3 + sqrt 8)^-n
    top = 1 << (ctx.bits() - 1)
    d_prev, d, n = 1, 3, 1
    while d <= top and n < ctx.default_cutoff:
        d_prev, d, n = d, 6 * d - d_prev, n + 1
    mags = [integer(b(k), 0, "magnitude b(k)") for k in range(1, n + 1)]
    w, c, s = -1, -d, 0
    for k, bk in enumerate(mags):
        c = w - c
        s += c * bk
        w = w * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    value = Fraction(s, d << F)
    bound = Fraction(mags[0] + 2 + 2 * n * d, d << F)
    try:
        float(value)
        bound_up = round_up(bound)
    except OverflowError:
        raise DomainError("the alternating sum leaves the float range: b(1) is about "
                          f"2^{mags[0].bit_length() - F}") from None
    return Evaluation(
        value=value,
        bound=bound_up,
        bound_kind=RIGOROUS,
        method="chebyshev_alternating",
        cutoff_used=n,
    )
