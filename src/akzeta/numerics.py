"""Numeric kernels: precision management, beta factors, zeta series with
explicit truncation bounds, Clausen functions, and alternating-series
acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Callable

import mpmath as mp

from .errors import DomainError, DivergenceError, NonAlternatingError
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


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and the cap on summation cutoffs.

    ``digits`` sets the mpmath precision and the term counts of
    :func:`zeta_em` and the alternating transforms.  ``default_cutoff`` is
    the largest cutoff any series may use: the prefix-sum DP paths pick their
    own, smaller cutoff from their error model and stop at it at the latest.
    """

    digits: int = 50
    default_cutoff: int = 100_000

    def __post_init__(self):
        if self.digits < 15:
            raise DomainError("working precision below 15 digits")
        if self.default_cutoff < 10:
            raise DomainError("cutoff below 10")

    def with_cutoff(self, N: int) -> "PrecisionContext":
        return replace(self, default_cutoff=N)

    def mp_ctx(self):
        ctx = mp.mp.clone()
        ctx.dps = self.digits + 10
        return ctx


DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class Evaluation:
    """A numeric result with an explicit truncation-error bound."""

    value: object  # mpf or float
    bound: float
    bound_kind: str  # "rigorous" | "estimated"
    method: str
    cutoff_used: int

    def __post_init__(self):
        if not (math.isfinite(self.bound) and self.bound >= 0):
            raise DomainError(f"error bound must be finite and >= 0, got {self.bound}")
        if self.bound_kind not in (RIGOROUS, ESTIMATED):
            raise DomainError(f"unknown bound kind {self.bound_kind!r}")

    def __float__(self) -> float:
        return float(self.value)


def real_shift(x) -> float:
    """The shift x of (n + x)^{-s} as a float, checked to be finite and > -1."""
    xf = float(x)
    if not (math.isfinite(xf) and xf > -1):
        raise DomainError(f"require a finite x > -1, got {xf}")
    return xf


def beta_factor_exact(n: int, x) -> Fraction:
    """B(n, 1+x) as an exact rational, for rational x."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x = Fraction(x)
    if x <= -1:
        raise DomainError("require x > -1")
    out = 1 / (1 + x)
    for j in range(1, n):
        out *= Fraction(j) / (j + 1 + x)
    return out


def zeta_em(s, x=0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n>=1} (n+x)^{-s} via partial sum plus Euler-Maclaurin tail.

    The bound is twice the first omitted correction term, a majorant of the
    remainder for this completely monotone integrand, plus the round-off.
    """
    sf = float(s)
    if not math.isfinite(sf):
        raise DomainError(f"require a finite s, got {sf}")
    return _zeta_em_cached(sf, real_shift(x), ctx.digits, ctx.default_cutoff)


@lru_cache(maxsize=4096)
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
        value=value,
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
    if order not in (2, 3):
        raise DomainError("order must be 2 or 3")
    wp = ctx.mp_ctx()
    th = wp.mpf(theta)
    if not wp.isfinite(th):
        raise DomainError("theta must be finite")
    fn = wp.clsin if order == 2 else wp.clcos
    return Evaluation(
        value=fn(order, th),
        bound=10.0 ** (-(ctx.digits + 2)),
        bound_kind=ESTIMATED,
        method="mpmath_clausen",
        cutoff_used=0,
    )


def _cvz_alternating(b, wp):
    """Chebyshev-weighted acceleration of sum_k (-1)^k b_k (b_k >= 0)."""
    n = len(b)
    d = (3 + wp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    bb = wp.mpf(-1)
    c = -d
    s = wp.mpf(0)
    for k in range(n):
        c = bb - c
        s += c * b[k]
        bb = bb * (2 * (k + n) * (k - n)) / ((2 * k + 1) * (k + 1))
    return s / d


def accelerate_alternating(term_fn: Callable[[int], object],
                           ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Accelerated value of sum_{n>=1} term_fn(n) for alternating terms.

    term_fn returns the signed n-th term.  The term count is sized so that
    the (3 + sqrt 8)^-n convergence of the acceleration reaches the working
    precision.  The estimate compares two acceleration orders, so the bound
    is an estimate, not a majorant.
    """
    wp = ctx.mp_ctx()
    n_terms = int(math.ceil((ctx.digits + 2) * math.log(10) / math.log(3 + math.sqrt(8)))) + 8
    terms = [wp.mpf(term_fn(n)) for n in range(1, n_terms + 7)]
    sign0 = 1 if terms[0] >= 0 else -1
    for i, t in enumerate(terms[: min(16, len(terms))]):
        expect = sign0 * (-1) ** i
        if t != 0 and (1 if t > 0 else -1) != expect:
            raise NonAlternatingError(f"terms do not alternate at n={i + 1}")
    b = [abs(t) for t in terms]
    v1 = _cvz_alternating(b[:n_terms], wp)
    v2 = _cvz_alternating(b[: n_terms + 6], wp)
    value = sign0 * v2
    bound = float(abs(v2 - v1)) * 8 + 10.0 ** (-(ctx.digits + 2))
    return Evaluation(
        value=value,
        bound=bound,
        bound_kind=ESTIMATED,
        method="chebyshev_alternating",
        cutoff_used=n_terms + 6,
    )
