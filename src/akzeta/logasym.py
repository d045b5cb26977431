"""Asymptotic log-Laurent series and exact Euler-Maclaurin tails for nested
prefix sums.

A series here is a finite sum of terms  c * ln(n)^j * n^(-s)  stored as a
mapping (j, s) -> c.  Weight functions of the summation engine (shifted power
weights, beta factors, harmonic numbers, Bell polynomials thereof) all admit
asymptotic expansions in this ring, which lets the tail of a nested sum

    sum_{n > M} S_{q-1}(n) g_q(n),   S_i(n) = sum_{j < n} S_{i-1}(j) g_i(j)

be peeled level by level:

    T_i(M) = S_{i-1}(M+1) * Z_i(M) + T_{i-1}(M),

where Z_i = tail-sum of the current weight and the next level's weight picks
up the symbolic factor Z_i.  Every tail-sum of a single term is done with
Euler-Maclaurin corrections, so the result is exact up to the (tiny) EM and
truncation remainders, which are tracked and reported as the error estimate.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

import mpmath as mp

from .errors import DomainError
from .harmonic_bell import bell_modified
from .numerics import PrecisionContext, zeta_em, _em_coeff
from .powerseries import PolyRat, classical_bernoulli_polynomial

__all__ = ["LogSeries", "pow_shift", "ztail", "nested_tail_series",
           "nested_tail_sum", "beta_model", "harmonic_model", "bell_p_models"]

ORDER = 10  # kept Laurent depth beyond the leading exponent
# the models are float series, so their zeta constants need float precision only
_FLOAT_CTX = PrecisionContext(digits=17)
# B_2k/(2k)!, k = 1..5: the Euler-Maclaurin correction coefficients of ztail
_EM_COEFF = [float(_em_coeff(k)) for k in range(1, 6)]


class LogSeries:
    """Finite sum of terms c * ln(n)^j * n^(-s)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, float], float] = dict(terms or {})

    @classmethod
    def const(cls, c: float) -> "LogSeries":
        return cls({(0, 0.0): float(c)})

    def copy(self) -> "LogSeries":
        return LogSeries(self.terms)

    @property
    def lead(self) -> float:
        if not self.terms:
            return math.inf
        return min(s for (_, s) in self.terms)

    def add_term(self, j: int, s: float, c: float):
        if c == 0.0:
            return
        key = (j, s)
        self.terms[key] = self.terms.get(key, 0.0) + c
        if self.terms[key] == 0.0:
            del self.terms[key]

    def __add__(self, other: "LogSeries") -> "LogSeries":
        out = self.copy()
        for (j, s), c in other.terms.items():
            out.add_term(j, s, c)
        return out

    def scaled(self, factor: float) -> "LogSeries":
        return LogSeries({k: c * factor for k, c in self.terms.items()})

    def __truediv__(self, d: float) -> "LogSeries":
        return self.scaled(1.0 / d)

    def __mul__(self, other: "LogSeries") -> "LogSeries":
        cap = self.lead + other.lead + ORDER
        out = LogSeries()
        for (j1, s1), c1 in self.terms.items():
            for (j2, s2), c2 in other.terms.items():
                s = s1 + s2
                if s > cap:
                    continue
                out.add_term(j1 + j2, s, c1 * c2)
        return out

    def truncate(self, cap: float) -> "LogSeries":
        return LogSeries({(j, s): c for (j, s), c in self.terms.items() if s <= cap})

    def deriv(self) -> "LogSeries":
        out = LogSeries()
        for (j, s), c in self.terms.items():
            out.add_term(j, s + 1, -c * s)
            if j > 0:
                out.add_term(j - 1, s + 1, c * j)
        return out

    def __call__(self, M: float) -> float:
        return self.at(M)[0]

    def at(self, M: float) -> tuple[float, float]:
        """The float value at M and the sum of its |terms|, which scales the
        round-off of that evaluation."""
        logM = math.log(M)
        total = 0.0
        size = 0.0
        for (j, s), c in self.terms.items():
            term = c * logM**j * M ** (-s)
            total += term
            size += abs(term)
        return total, size

    def band_magnitude(self, M: float) -> float:
        """Sum of |term| values at M in the deepest kept exponent band, the
        unit-width band below the largest exponent."""
        if not self.terms:
            return 0.0
        smax = max(s for (_, s) in self.terms)
        logM = math.log(M)
        return sum(
            abs(c) * logM**j * M ** (-s)
            for (j, s), c in self.terms.items()
            if s >= smax - 1.0
        )

    def __repr__(self) -> str:
        parts = sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        body = " + ".join(f"{c:.6g}*ln^{j}*n^-{s:g}" for (j, s), c in parts)
        return f"LogSeries({body or '0'})"


def pow_shift(s: float, a: float) -> LogSeries:
    """(n+a)^(-s) expanded around n = infinity."""
    out = LogSeries()
    coef = 1.0
    for k in range(ORDER + 3):
        if k > 0:
            coef *= (-s - k + 1) / k * a
        out.add_term(0, s + k, coef)
    return out


def ztail(series: LogSeries) -> tuple[LogSeries, LogSeries]:
    """Symbolic sum_{n > M} series(n) as a LogSeries in M.

    Returns (tail, err) where err collects the magnitude of the first omitted
    Euler-Maclaurin correction of every term.
    """
    lead = series.lead
    if lead <= 1.0:
        raise DomainError(f"tail sum requires decay exponent > 1, got {lead}")
    cap = lead - 1 + ORDER
    tail = LogSeries()
    err = LogSeries()
    for (j, s), c in series.terms.items():
        if s - 1 > cap:
            continue
        # integral_M^inf: downward recurrence over the log power
        coef = c / (s - 1.0)
        for i in range(j, -1, -1):
            tail.add_term(i, s - 1.0, coef * _falling(j, j - i) / (s - 1.0) ** (j - i))
        # -f(M)/2
        tail.add_term(j, s, -0.5 * c)
        # - sum_k B_2k/(2k)! f^(2k-1)(M)
        d = LogSeries({(j, s): c})
        for k in range(1, 5):
            d = d.deriv()
            for (jj, ss), cc in d.terms.items():
                if ss <= cap:
                    tail.add_term(jj, ss, -_EM_COEFF[k - 1] * cc)
            d = d.deriv()
        # first omitted correction (k = 5)
        d = d.deriv()
        for (jj, ss), cc in d.terms.items():
            err.add_term(jj, ss, abs(_EM_COEFF[4] * cc))
    return tail, err


def _falling(j: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= j - i
    return out


def exp_series(series: LogSeries) -> LogSeries:
    """exp of a log-free series with strictly positive decay exponents."""
    if any(j != 0 or s <= 0 for (j, s) in series.terms):
        raise DomainError("exp_series needs a log-free, decaying argument")
    out = LogSeries.const(1.0)
    power = LogSeries.const(1.0)
    fact = 1.0
    lead = series.lead
    nmax = int(math.ceil((ORDER + 1) / lead))
    for m in range(1, nmax + 1):
        power = power * series
        power = power.truncate(ORDER + 1.0)
        fact *= m
        out = out + power.scaled(1.0 / fact)
    return out.truncate(ORDER + 1.0)


@cache
def _bernoulli_polys() -> list[PolyRat]:
    """B_0(x)..B_{ORDER+2}(x), exact: the coefficients of the Gamma-type
    models, built on first use to keep them out of the import."""
    return [classical_bernoulli_polynomial(k) for k in range(ORDER + 3)]


def _bernoulli_at(a: float) -> list[Fraction]:
    """B_k(a) for k = 0..ORDER+2, exact at the float a."""
    return [P(Fraction(a)) for P in _bernoulli_polys()]


def beta_model(x: float) -> LogSeries:
    """Asymptotics of B(n, a) = Gamma(a) Gamma(n) / Gamma(n+a), a = 1+x.

    By DLMF 5.11.8, ln Gamma(n) - ln Gamma(n+a) is -a ln(n) plus
    sum_{k>=2} (-1)^(k+1) (B_k(a) - B_k) / (k(k-1)) n^(1-k).
    """
    if x <= -1:
        raise DomainError("require x > -1")
    a = 1.0 + x
    Ba = _bernoulli_at(a)
    expo = LogSeries()
    for k in range(2, ORDER + 3):
        expo.add_term(0, k - 1.0, float((-1) ** (k + 1) * (Ba[k] - _bernoulli_polys()[k](0)) / (k * (k - 1))))
    amp = math.gamma(a)
    return LogSeries({(j, s + a): amp * c for (j, s), c in exp_series(expo).terms.items()})


def harmonic_model(k: int, x: float) -> LogSeries:
    """Asymptotics of H_n^(k)(x) = sum_{j<=n} (j+x)^{-k}."""
    if x <= -1:
        raise DomainError("require x > -1")
    if k == 1:
        # psi(n+a) - psi(a), a = 1+x, where the n-derivative of DLMF 5.11.8 gives
        # psi(n+a) = ln(n) + sum_{i>=1} (-1)^(i+1) B_i(a)/i n^(-i)
        a = 1.0 + x
        Ba = _bernoulli_at(a)
        out = LogSeries({(1, 0.0): 1.0})
        out.add_term(0, 0.0, -float(mp.digamma(a)))
        for i in range(1, ORDER + 2):
            out.add_term(0, float(i), float((-1) ** (i + 1) * Ba[i] / i))
        return out
    # H_n^(k)(x) = zeta(k, 1+x) - sum_{m > n} (m+x)^{-k}
    const = float(zeta_em(k, x, _FLOAT_CTX).value)
    tail, _ = ztail(pow_shift(float(k), x))
    out = tail.scaled(-1.0)
    out.add_term(0, 0.0, const)
    return out.truncate(float(ORDER + 1))


def bell_p_models(m: int, x: float) -> list[LogSeries]:
    """Asymptotic models of P_0..P_m evaluated on (H_n^(1)(x),..,H_n^(m)(x))."""
    hs = [harmonic_model(k, x) for k in range(1, m + 1)]
    return bell_modified(hs, one=LogSeries.const(1.0))


def nested_tail_series(models: Sequence[LogSeries]) -> list[tuple[LogSeries, LogSeries]]:
    """The symbolic tails (Z_i, EM error of Z_i) of :func:`nested_tail_sum`.

    models[i] is the asymptotic expansion of the level-(i+1) weight; entry i
    of the result is the tail that multiplies S_i(M+1).  The series do not
    depend on M, so one call serves every cutoff.
    """
    tails = []
    G = models[-1]
    for i in range(len(models) - 1, 0, -1):
        Z, zerr = ztail(G)
        tails.append((Z, zerr))
        G = models[i - 1] * Z
    tails.append(ztail(G))
    return tails[::-1]


def nested_tail_sum(S_vals: Sequence[float], tails: Sequence[tuple[LogSeries, LogSeries]],
                    M: int) -> tuple[float, float]:
    """Tail sum_{n > M} S_{q-1}(n) g_q(n) of a nested prefix sum.

    S_vals[i] must be the exact S_i(M+1) (S_0 = 1); ``tails`` the
    :func:`nested_tail_series` of the level weights.  Returns (tail,
    error_estimate); the estimate includes the float64 round-off of
    evaluating each level, eps times the sum of its |terms|.
    """
    if len(S_vals) != len(tails):
        raise DomainError("need S_0..S_{q-1} at the cutoff")
    Mf = float(M)
    total = 0.0
    err = 0.0
    for S, (Z, zerr) in zip(reversed(S_vals), reversed(tails)):
        z, size = Z.at(Mf)
        total += S * z
        err += abs(S) * (zerr(Mf) + Z.band_magnitude(Mf) + sys.float_info.epsilon * size)
    return total, err
