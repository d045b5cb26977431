"""Numeric kernels: precision management, beta factors, one weighted-sum
rule (exact sums in integers over the common denominator of
:func:`~akzeta.powerseries.over_one_denominator`), zeta and digamma series
with explicit truncation bounds, Clausen functions, and alternating-series
acceleration.

The transcendental kernels work in :mod:`decimal`, in a local context of
digits + 10 digits, and return the exact Fraction of their Decimal terms'
sum.  Their round-off bound counts the correctly rounded operations behind
each term, one unit in the last place apiece, times the term.
"""

from __future__ import annotations

import math
from decimal import MAX_PREC, Context, Decimal, getcontext, localcontext
from functools import lru_cache
from fractions import Fraction
from typing import Callable

from .errors import DomainError, DivergenceError, Record, integer, rational, real
from .powerseries import bernoulli_over_factorial, over_one_denominator

__all__ = [
    "PrecisionContext",
    "Evaluation",
    "beta_factor_exact",
    "zeta_em",
    "digamma",
    "combination",
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

    ``digits`` sets the term counts and the decimal context (digits + 10
    digits) of :func:`zeta_em` and :func:`clausen`, and the term count and
    fixed-point width of the alternating transforms, which work in Python
    integers at :meth:`bits`.  Values are exact Fractions at any precision:
    their bounds say how many digits hold.  It is at most 300: the bounds
    are floats, and past that the ones sized from the precision turn
    subnormal and then 0.  ``default_cutoff`` is the largest cutoff any
    series may use: the prefix-sum DP paths pick their own, smaller cutoff
    from their error model and stop at it at the latest.
    """

    __slots__ = ("digits", "default_cutoff")

    def __init__(self, digits: int = 50, default_cutoff: int = 100_000):
        self._set(integer(digits, 15, "precision"), integer(default_cutoff, 10, "cutoff"))
        if self.digits > 300:
            raise DomainError(f"require a precision <= 300, got {self.digits}")

    def with_cutoff(self, N: int) -> "PrecisionContext":
        return PrecisionContext(self.digits, N)

    def bits(self) -> int:
        """The binary precision of digits + 10 decimal digits,
        round((digits + 11) log2 10); its rounding unit eps = 2^(1 - bits)
        sizes the alternating transforms."""
        return round((self.digits + 11) * 3.3219280948873626)


DEFAULT_CTX = PrecisionContext()


class Evaluation(Record):
    """A numeric result with an explicit truncation-error bound."""

    __slots__ = ("value", "bound", "bound_kind", "method", "cutoff_used")

    def __init__(self, value, bound: float, bound_kind: str, method: str, cutoff_used: int):
        """``value`` is held as an exact Fraction: a float raises
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
    or Fractions): the products wn qn / (wd qd) over one common denominator,
    summed in integers and reduced once, not one gcd per Fraction operation."""
    products = []
    for w, q in terms:
        (wn, wd), (qn, qd) = w.as_integer_ratio(), q.as_integer_ratio()
        products.append((wn * qn, wd * qd))
    nums, den = over_one_denominator(products)
    return Fraction(sum(nums), den)


def combination(terms, method: str) -> Evaluation:
    """sum w * ev over pairs (w, ev) of a rational w and an Evaluation: the
    exact sum of w * value, and the exact sum of |w| * bound rounded up
    once; ``estimated`` if any part is, at the parts' largest cutoff."""
    terms = tuple(terms)
    kind = ESTIMATED if any(ev.bound_kind == ESTIMATED for _, ev in terms) else RIGOROUS
    return Evaluation(exact_sum((w, ev.value) for w, ev in terms),
                      round_up(exact_sum((abs(w), ev.bound) for w, ev in terms)), kind,
                      method, max(ev.cutoff_used for _, ev in terms))


def beta_factor_exact(n: int, x) -> Fraction:
    """B(n, 1+x) = (n-1)! / prod_{j<=n} (j + x) as an exact rational, for x
    an int or a Fraction: at x = a/b, (n-1)! b^n / prod_{j<=n} (a + j b)."""
    n, x = integer(n, 1, "n"), rational(x, "x", above=-1)
    a, b = x.numerator, x.denominator
    return Fraction(math.factorial(n - 1) * b**n, math.prod(a + j * b for j in range(1, n + 1)))


def decimal_unit() -> Fraction:
    """u = 10^(1 - prec) of the current decimal context: a correctly rounded
    operation is within u/2 of its exact result, relatively, so that c of
    them, each counted as u, put a result within c u of the exact one."""
    return Fraction(1, 10 ** (getcontext().prec - 1))


def _decimal_sum(pieces) -> tuple[Fraction, Fraction]:
    """The exact sum of the Decimals t of the pairs (t, c), as a Fraction,
    and u * sum c |t|, which bounds its distance from the sum of the exact
    terms when c operations, counted in units of u, formed each t."""
    u = decimal_unit()
    with localcontext(Context(prec=MAX_PREC)):  # exact
        return Fraction(sum(t for t, _ in pieces)), u * Fraction(
            sum(Decimal(c) * abs(t) for t, c in pieces))


def zeta_em(s, x=0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n>=1} (n+x)^{-s} for real s > 1, x > -1, via a partial sum to
    N = max(10, digits) plus Euler-Maclaurin tail, in decimal at digits + 10.

    The bound is twice the first omitted correction term, a majorant of the
    remainder for this completely monotone integrand, plus the round-off:
    u = 10^-(digits + 9) times, summed over the terms, the operations
    behind each term times the term (see :func:`decimal_unit`).  The value
    is the exact Fraction of the sum of the Decimal terms.
    """
    sf, xf = real(s, "s"), real(x, "x", above=-1)
    if sf <= 1:
        raise DivergenceError("series diverges for s <= 1")
    return _zeta_em_cached(sf, xf, ctx.digits, ctx.default_cutoff)


def digamma(x, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """psi(1 + x) for real x > -1: as zeta(s, 1 + x) = 1/(s - 1) - psi(1 + x)
    + O(s - 1) (DLMF 25.11), minus the sum of :func:`zeta_em` at s = 1 with
    its integral term replaced by -ln(N + x), with the same bound (DLMF
    5.11(ii) bounds psi's asymptotic remainder by the first omitted term)."""
    ev = _zeta_em_cached(1.0, real(x, "x", above=-1), ctx.digits, ctx.default_cutoff)
    return Evaluation(-ev.value, ev.bound, ev.bound_kind, ev.method, ev.cutoff_used)


@memoized
def _zeta_em_cached(sf: float, xf: float, digits: int, cutoff: int) -> Evaluation:
    """zeta(s, 1 + x) for s > 1, and at s = 1 its constant term -psi(1 + x)."""
    # from N ~ digits on, the corrections shrink past the target within a
    # few dozen terms; the configured cutoff caps N
    N = min(max(10, digits), cutoff)
    target = 10.0 ** (-(digits + 2))
    with localcontext(Context(prec=digits + 10)):
        s, x = Decimal(sf), Decimal(xf)  # exact
        minus_s = s.copy_negate()  # exact: an exponent rounded would move every power
        # n + x rounds once, which the power raises s-fold, and a power
        # counts 2: Decimal's is "almost always correctly rounded"
        pieces = [((n + x) ** minus_s, sf + 2) for n in range(1, N)]
        base = N + x
        power = base ** minus_s
        # the integral, at s = 1 its constant term -ln(base): base > 9 rounds
        # once, moving ln(base) > 2 by under a unit of it; ln rounds correctly
        integral = (power * base / (s - 1), sf + 6) if sf > 1 else (-base.ln(), 2)
        pieces += [integral, (power / 2, sf + 3)]
        # add the corrections B_2k/(2k)! (s)_{2k-1} base^{1-s-2k} until one
        # clears the target or stops shrinking: that one is the first
        # omitted.  With base^2 formed once, base^{1-s-2k} takes s + 4 + 4k
        # operations, (s)_{2k-1} 4k - 4, and the term 3 more.
        w, base2, poch = power * base, base * base, s
        last = math.inf
        k = 1
        while True:
            c = bernoulli_over_factorial(2 * k)
            w /= base2
            term = c.numerator * poch * w / c.denominator
            size = float(abs(term))
            if size <= target or size >= last:
                break
            pieces.append((term, sf + 8 * k + 3))
            last = size
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            k += 1
        value, roundoff = _decimal_sum(pieces)
        omitted = abs(Fraction(term)) * (1 + Fraction(sf + 8 * k + 3) * decimal_unit())
    try:
        bound = round_up(roundoff + 2 * omitted)
    except OverflowError:
        raise DomainError(f"zeta({sf}, 1 + {xf}) leaves the float range") from None
    return Evaluation(
        value=value,
        bound=bound,
        bound_kind=RIGOROUS,
        method="euler_maclaurin",
        cutoff_used=N,
    )


def atan_series(z: Fraction) -> tuple[Fraction, Fraction]:
    """atan(z) for |z| <= 1/2 by z - z^3/3 + z^5/5 - ... in the current
    decimal context, as a Fraction, and a bound on its error: the
    round-off, twice the first omitted term, which the alternating,
    shrinking terms majorize the rest by, and the rounding of z, which
    atan' <= 1 passes on."""
    zd = Decimal(z.numerator) / z.denominator
    z2, power, eps = zd * zd, zd, Decimal(10) ** -getcontext().prec
    pieces, j = [], 0
    while abs(term := power / (2 * j + 1)) > eps:
        pieces.append((-term if j % 2 else term, 2 * j + 1))  # z^(2j+1): 2j operations
        power *= z2
        j += 1
    value, roundoff = _decimal_sum(pieces)
    return value, roundoff + 2 * abs(Fraction(term)) + decimal_unit() * abs(z)


def machin_pi() -> tuple[Fraction, Fraction]:
    """pi by Machin's formula 16 atan(1/5) - 4 atan(1/239) in the current
    decimal context, as a Fraction, and a bound on its error."""
    a, da = atan_series(Fraction(1, 5))
    b, db = atan_series(Fraction(1, 239))
    return 16 * a - 4 * b, 16 * da + 4 * db


def cl2_modulus(t: Fraction, delta: Fraction) -> Fraction:
    """A bound on |Cl_2(a) - Cl_2(b)| for |a| = t <= pi + delta and b within
    delta of a.  On [t - delta, t + delta] within [t/2, pi + delta],
    |Cl_2'| = |ln(2 sin(a/2))| <= max(ln 2, ln(pi/t)) <= 2 + |ln t|, as
    sin(a/2) >= a/pi.  Where t <= 2 delta, both angles lie within
    h = 3 delta of 0, where |Cl_2| <= h (2 + |ln h|)."""
    if not delta:
        return Fraction(0)
    a, factor = (t, delta) if t > 2 * delta else (3 * delta, 6 * delta)
    with localcontext(Context(prec=20)):  # 2 in place of ln(pi) ~ 1.14 absorbs its rounding
        return factor * (2 + abs(Fraction((Decimal(a.numerator) / a.denominator).ln())))


def _exact_angle(theta) -> Fraction:
    """theta, an int, a float, a Fraction or a finite Decimal, as its exact
    rational."""
    if not isinstance(theta, Decimal):
        real(theta, "theta")
    try:
        return Fraction(theta)
    except (TypeError, ValueError, OverflowError):  # another type, or a Decimal NaN or inf
        raise DomainError("require a finite angle theta (an int, a float, a Fraction or "
                          f"a Decimal), got {theta!r}") from None


def clausen(order: int, theta, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Clausen function Cl_2 (sine series) or Cl_3 (cosine series) at the
    exact rational of ``theta`` (an int, a float, a Fraction or a Decimal).

    Reduced by the period 2 pi to t = |theta - 2 pi m| <= pi (Cl_2 is odd,
    Cl_3 even), then summed in decimal at digits + 10 by the Bernoulli
    series (Lewin, *Polylogarithms and Associated Functions*, 1981, ch. 4)

        Cl_2(t) = t - t ln t + sum_k |B_2k|/(2k)! t^(2k+1) / (2k (2k+1)),
        Cl_3(t) = zeta(3) - 3 t^2/4 + (t^2/2) ln t
                  - sum_k |B_2k|/(2k)! t^(2k+2) / (2k (2k+1) (2k+2)).

    As |B_2k|/(2k)! = 2 zeta(2k)/(2 pi)^(2k) <= 4/(2 pi)^(2k), the terms
    from k on sum to at most 4 t^(order-1) q^k / ((1 - q) den_k), with
    q = (t/2 pi)^2 <= 1/4 and den_k the term's integer denominator; the sum
    stops where that is below 10^-(digits + 2).  The ``rigorous`` bound adds
    that remainder, the round-off, the error of the reduced angle (pi from
    :func:`machin_pi`, t rounded to the context) times the function's
    slope, and for Cl_3 the bound of :func:`zeta_em` (3).
    """
    order = integer(order, 2, "order")
    if order > 3:
        raise DomainError("order must be 2 or 3")
    theta = _exact_angle(theta)
    with localcontext(Context(prec=ctx.digits + 10)):
        pi, d_pi = machin_pi()
        m = round(theta / (2 * pi))
        r = theta - 2 * m * pi
        t = abs(Decimal(r.numerator) / r.denominator)
        delta = 2 * abs(m) * d_pi + decimal_unit() * abs(r)  # t against |reduced theta|
        pieces = []
        if t:
            log = t.ln()
            pieces += ([(t, 0), (-t * log, 2)] if order == 2
                       else [(-3 * t * t / 4, 3), (t * t / 2 * log, 4)])
        # t^(2k+order-1) = power t2^k takes 2k + 1 operations, the term 2 more;
        # 6.28 < 2 pi leaves room for the roundings of the majorant itself
        t2, q = t * t, (t / Decimal("6.28")) ** 2
        power = t if order == 2 else t2
        tail = 4 * power / (1 - q)
        target = Decimal(10) ** -(ctx.digits + 2)
        k = 0
        while True:
            k += 1
            den = 2 * k * (2 * k + 1) * (2 * k + 2 if order == 3 else 1)
            tail *= q
            if tail / den <= target:
                break
            power *= t2
            c = bernoulli_over_factorial(2 * k)
            term = abs(c.numerator) * power / (c.denominator * den)
            pieces.append((term if order == 2 else -term, 2 * k + 4))
        value, roundoff = _decimal_sum(pieces)
        bound = roundoff + Fraction(tail / den)
    if order == 2:
        value = -value if r < 0 else value
        bound += cl2_modulus(Fraction(t), delta)
    else:  # |Cl_3'| = |Cl_2| <= Cl_2(pi/3) < 1.015
        z3 = zeta_em(3, 0, ctx)
        value += z3.value
        bound += Fraction(z3.bound) + Fraction(203, 200) * delta
    return Evaluation(
        value=value,
        bound=round_up(bound),
        bound_kind=RIGOROUS,
        method="bernoulli_series",
        cutoff_used=k - 1,
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
