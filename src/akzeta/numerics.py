"""Numeric kernels: precision management, beta factors, zeta and Clausen
series with explicit truncation bounds, and alternating-series acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np

from .errors import DomainError, DivergenceError, NonAlternatingError
from .powerseries import bernoulli_numbers

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

# truncation target of the Clausen series and the alternating accelerator
SERIES_TOLERANCE = 1e-12

# B_2, B_4, ... as floats, for Euler-Maclaurin corrections.
_B = [float(b) for b in bernoulli_numbers(12)]
_B2K = [_B[2], _B[4], _B[6], _B[8], _B[10]]


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and cutoff policy for series evaluation."""

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


def _em_tail_terms(s: float, base: float, n_corrections: int = 4):
    """Euler-Maclaurin tail sum_{n>=N}(n+x)^{-s} written at base = N+x.

    Returns (tail, first_omitted) where first_omitted majorizes the remainder.
    """
    tail = base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
    poch = s  # (s)_1
    for k in range(1, n_corrections + 1):
        # term  B_{2k}/(2k)! * (s)_{2k-1} * base^{-s-2k+1}
        if k > 1:
            poch *= (s + 2 * k - 3) * (s + 2 * k - 2)
        term = _B2K[k - 1] / math.factorial(2 * k) * poch * base ** (-s - 2 * k + 1)
        tail += term
    poch *= (s + 2 * n_corrections - 1) * (s + 2 * n_corrections)
    k = n_corrections + 1
    omitted = abs(_B2K[k - 1] / math.factorial(2 * k) * poch * base ** (-s - 2 * k + 1))
    return tail, omitted


def zeta_em(s, x=0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n>=1} (n+x)^{-s} via partial sum plus Euler-Maclaurin tail.

    The bound is the first omitted correction term, a valid majorant of the
    remainder for this completely monotone integrand.
    """
    return _zeta_em_cached(float(s), real_shift(x), ctx.digits, ctx.default_cutoff)


@lru_cache(maxsize=4096)
def _zeta_em_cached(sf: float, xf: float, digits: int, cutoff: int) -> Evaluation:
    if sf <= 1:
        raise DivergenceError("series diverges for s <= 1")
    ctx = PrecisionContext(digits=digits, default_cutoff=cutoff)
    wp = ctx.mp_ctx()
    # grow N until the first omitted correction clears the target precision,
    # but never past the configured cutoff
    target = 10.0 ** (-(digits + 2))
    N = 10
    while N < cutoff:
        _, omitted = _em_tail_terms(sf, N + xf)
        if omitted <= target:
            break
        N = min(2 * N, cutoff)
    s_mp = wp.mpf(sf)
    x_mp = wp.mpf(xf)
    partial = wp.fsum((n + x_mp) ** (-s_mp) for n in range(1, N))
    base = N + x_mp
    tail = base ** (1 - s_mp) / (s_mp - 1) + base ** (-s_mp) / 2
    poch = s_mp
    for k in range(1, 5):
        if k > 1:
            poch *= (s_mp + 2 * k - 3) * (s_mp + 2 * k - 2)
        tail += wp.mpf(_B2K[k - 1]) / math.factorial(2 * k) * poch * base ** (-s_mp - 2 * k + 1)
    _, omitted = _em_tail_terms(sf, float(base))
    return Evaluation(
        value=partial + tail,
        bound=2.0 * omitted + 10.0 ** (-(digits + 4)),
        bound_kind=RIGOROUS,
        method="euler_maclaurin",
        cutoff_used=N,
    )


def _clausen_cutoff(order: int, theta: float, tol: float) -> tuple[int, float]:
    """Pick N and a rigorous tail bound for the Clausen series at theta."""
    sin_half = abs(math.sin(theta / 2.0))
    best = None
    # crude monotone majorant  sum_{n>N} n^{-order} <= N^{1-order}/(order-1)
    n_crude = int(math.ceil((tol * (order - 1)) ** (1.0 / (1 - order))))
    best = (n_crude, "crude")
    if sin_half > 0:
        # Dirichlet-test bound: bounded partial sums of the oscillating factor
        n_dir = int(math.ceil((1.0 / (tol * sin_half)) ** (1.0 / order)))
        if n_dir < best[0]:
            best = (n_dir, "dirichlet")
    N = max(best[0], 64)
    crude = N ** (1 - order) / (order - 1)
    bound = crude
    if sin_half > 0:
        bound = min(bound, 1.0 / (sin_half * (N + 1) ** order))
    return N, bound


def clausen(order: int, theta, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Clausen function Cl_2 (sine series) or Cl_3 (cosine series)."""
    if order not in (2, 3):
        raise DomainError("order must be 2 or 3")
    th = float(theta)
    if not math.isfinite(th):
        raise DomainError("theta must be finite")
    N, bound = _clausen_cutoff(order, th, SERIES_TOLERANCE)
    if N <= 50_000:
        wp = ctx.mp_ctx()
        th_mp = wp.mpf(th)
        fn = wp.sin if order == 2 else wp.cos
        value = wp.fsum(fn(n * th_mp) / wp.mpf(n) ** order for n in range(1, N + 1))
        round_err = 0.0
    else:
        total = 0.0
        chunk = 1_000_000
        for lo in range(1, N + 1, chunk):
            hi = min(lo + chunk - 1, N)
            n = np.arange(lo, hi + 1, dtype=np.float64)
            vals = (np.sin(n * th) if order == 2 else np.cos(n * th)) / n**order
            total += float(np.sum(vals))
        value = total
        round_err = 1e-15 * math.log2(max(N, 2))
    return Evaluation(
        value=value,
        bound=bound + round_err,
        bound_kind=RIGOROUS,
        method="direct_series",
        cutoff_used=N,
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
        bb = (k + n) * (k - n) * bb / ((k + wp.mpf("0.5")) * (k + 1))
    return s / d


def accelerate_alternating(term_fn: Callable[[int], object],
                           ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Accelerated value of sum_{n>=1} term_fn(n) for alternating terms.

    term_fn returns the signed n-th term.  The estimate compares two
    acceleration orders, so the bound is an estimate, not a majorant.
    """
    wp = ctx.mp_ctx()
    n_terms = max(24, int(math.ceil(-math.log(SERIES_TOLERANCE) / math.log(3 + math.sqrt(8)))) + 8)
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
