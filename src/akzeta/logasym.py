"""Asymptotic log-Laurent series and exact Euler-Maclaurin tails for nested
prefix sums.

A series here is a finite sum of terms  c * ln(n)^j * n^-(k + shift)  stored
as a mapping of integer pairs (j, k) -> c, with one fractional shift in
[0, 1) held by the whole series.  The shift is non-zero only for the beta
factor's exponent a = 1 + x and the products and tails built from it; a
product adds the shifts and carries their integer part into k, so an
exponent near the pole s = 1 keeps every bit of a.  Weight functions of the
summation engine (shifted power weights, beta factors, harmonic numbers,
Bell polynomials thereof) all admit asymptotic expansions in this ring, and
the models of the beta factor and the harmonic numbers are closed forms
(DLMF 5.11.17 and 25.11.43).  This lets the tail of a nested sum

    sum_{n > M} S_{q-1}(n) g_q(n),   S_i(n) = sum_{j < n} S_{i-1}(j) g_i(j)

be peeled level by level:

    T_i(M) = S_{i-1}(M+1) * Z_i(M) + T_{i-1}(M),

where Z_i = tail-sum of the current weight and the next level's weight picks
up the symbolic factor Z_i.  Every tail-sum of a single term is a closed-form
Euler-Maclaurin sum, so the result is exact up to the (tiny) EM and
truncation remainders, which are tracked and reported as the error estimate.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .numerics import PrecisionContext, memoized, zeta_em
from .powerseries import bernoulli_over_factorial

__all__ = ["LogSeries", "pow_shift", "ztail", "nested_tail_series",
           "nested_tail_sum", "beta_model", "harmonic_model", "bell_p_models"]

ORDER = 10  # kept Laurent depth beyond the leading exponent
# the models are float series: their zeta and psi constants need float precision
_FLOAT_CTX = PrecisionContext(digits=17)
# B_i/i!, i = 0..ORDER: the Taylor coefficients of t/(e^t - 1), exact
_BERNOULLI = tuple(bernoulli_over_factorial(i) for i in range(ORDER + 1))
# B_2k/(2k)!, k = 1..5: the Euler-Maclaurin correction coefficients of ztail
_EM_COEFF = [float(_BERNOULLI[2 * k]) for k in range(1, 6)]


class LogSeries:
    """Finite sum of terms c * ln(n)^j * n^-(k + shift): integer keys (j, k)
    and one fractional shift in [0, 1) shared by the whole series.  The
    models are memoized and share what they return: never mutate a series."""

    __slots__ = ("terms", "shift")

    def __init__(self, terms=None, shift: float = 0.0):
        self.terms: dict[tuple[int, int], float] = dict(terms or {})
        self.shift = shift

    @classmethod
    def const(cls, c: float) -> "LogSeries":
        return cls({(0, 0): float(c)})

    def _kmin(self):
        return min((k for _, k in self.terms), default=math.inf)

    @property
    def lead(self) -> float:
        return self._kmin() + self.shift

    def add_term(self, j: int, k: int, c: float):
        if c == 0.0:
            return
        key = (j, k)
        self.terms[key] = self.terms.get(key, 0.0) + c
        if self.terms[key] == 0.0:
            del self.terms[key]

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if other.shift != self.shift:
            raise DomainError("cannot add series with different shifts")
        out = LogSeries(self.terms, self.shift)
        for (j, k), c in other.terms.items():
            out.add_term(j, k, c)
        return out

    def scaled(self, factor: float) -> "LogSeries":
        return LogSeries({key: c * factor for key, c in self.terms.items()}, self.shift)

    def __mul__(self, other: "LogSeries") -> "LogSeries":
        cap = self._kmin() + other._kmin() + ORDER
        shift = self.shift + other.shift
        carry = int(shift >= 1.0)
        out = LogSeries(shift=shift - carry)
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                if k1 + k2 <= cap:
                    out.add_term(j1 + j2, k1 + k2 + carry, c1 * c2)
        return out

    def __call__(self, M: float) -> float:
        return self.at(M)[0]

    def at(self, M: float) -> tuple[float, float, float]:
        """The float value at M, the sum of its |terms|, which scales the
        round-off of that evaluation, and the sum of the |terms| in the
        deepest kept exponent band, the unit-width band below the largest
        exponent, which estimates the truncation."""
        logM = math.log(M)
        Ms = M ** -self.shift
        kmax = max((k for _, k in self.terms), default=0)
        total = size = band = 0.0
        for (j, k), c in self.terms.items():
            term = c * logM**j * M ** -k * Ms
            total += term
            size += abs(term)
            if k >= kmax - 1:
                band += abs(term)
        return total, size, band

    def __repr__(self) -> str:
        parts = sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        body = " + ".join(f"{c:.6g}*ln^{j}*n^-{k + self.shift:g}" for (j, k), c in parts)
        return f"LogSeries({body or '0'})"


def pow_shift(s: float, a: float) -> LogSeries:
    """(n+a)^(-s) expanded around n = infinity."""
    base = math.floor(s)
    out = LogSeries(shift=s - base)
    coef = 1.0
    for k in range(ORDER + 1):
        if k > 0:
            coef *= (-s - k + 1) / k * a
        out.add_term(0, base + k, coef)
    return out


def ztail(series: LogSeries) -> tuple[LogSeries, LogSeries]:
    """Symbolic sum_{n > M} series(n) as a LogSeries in M.

    Each term f(n) = c ln(n)^j n^-s sums by Euler-Maclaurin in closed form:
    the integral sum_i c j!/i! ln(M)^i M^(1-s) / (s-1)^(j-i+1), then -f(M)/2
    and -B_2r/(2r)! f^(2r-1)(M) for r = 1..4, where f^(r)(M) is
    M^(-s-r) sum_i d_i ln(M)^i and each derivative maps d_i to
    (i+1) d_(i+1) - (s+r-1) d_i.  s - 1 is (k - 1) + shift, exact near the
    pole s = 1.  Returns (tail, err) where err collects the magnitude of the
    first omitted correction of every term.
    """
    shift = series.shift
    if series.lead <= 1.0:
        raise DomainError(f"tail sum requires decay exponent > 1, got {series.lead}")
    cap = series._kmin() - 1 + ORDER
    tail = LogSeries(shift=shift)
    err = LogSeries(shift=shift)
    for (j, k), c in series.terms.items():
        if k - 1 > cap:
            continue
        sm1 = k - 1 + shift
        coef = c / sm1
        for i in range(j, -1, -1):
            tail.add_term(i, k - 1, coef * math.perm(j, j - i) / sm1 ** (j - i))
        tail.add_term(j, k, -0.5 * c)
        d = [0.0] * j + [c]
        for r in range(1, 10):
            sr = k + r - 1 + shift
            d = [(i + 1) * d[i + 1] - sr * d[i] for i in range(j)] + [-sr * d[j]]
            if r == 9:  # the first omitted correction
                for i in range(j, -1, -1):
                    err.add_term(i, k + r, abs(_EM_COEFF[4] * d[i]))
            elif r % 2 and k + r <= cap:
                for i in range(j, -1, -1):
                    tail.add_term(i, k + r, -_EM_COEFF[r // 2] * d[i])
    return tail, err


@memoized
def _bernoulli_at(a: float) -> tuple[Fraction, ...]:
    """B_i(a)/i! for i = 0..ORDER, exact at the float a: the Taylor
    coefficients of e^(at) t/(e^t - 1).  One row per a serves every
    :func:`harmonic_model` order k."""
    f = _BERNOULLI
    A = Fraction(a)
    e = [Fraction(1)]  # a^i/i!
    for i in range(1, len(f)):
        e.append(e[-1] * A / i)
    return tuple(sum(f[k] * e[i - k] for k in range(i + 1)) for i in range(len(f)))


@memoized
def beta_model(x: float) -> LogSeries:
    """Asymptotics of B(n, a) = Gamma(a) Gamma(n) / Gamma(n+a), a = 1+x.

    By DLMF 5.11.17, Gamma(n)/Gamma(n+a) ~ n^(-a) sum_k C(-a, k) B_k^(1-a) n^(-k),
    where B_k^(1-a)/k! is the t^k coefficient of (t/(e^t - 1))^(1-a), from
    J. C. P. Miller's recurrence for a power of a power series.  Each
    coefficient is exact until it is rounded once.
    """
    if x <= -1:
        raise DomainError("require x > -1")
    a = 1.0 + x
    A = Fraction(a)
    f = _BERNOULLI
    g = [Fraction(1)]  # B_k^(1-a)/k!
    for k in range(1, len(f)):
        g.append(sum(((2 - A) * i - k) * f[i] * g[k - i] for i in range(1, k + 1)) / k)
    amp = math.gamma(a)
    base = math.floor(a)
    out = LogSeries(shift=a - base)
    binom = Fraction(1)  # C(-a, k) k!
    for k, gk in enumerate(g):
        out.add_term(0, base + k, amp * float(binom * gk))
        binom *= -A - k
    return out


@memoized
def harmonic_model(k: int, x: float) -> LogSeries:
    """Asymptotics of H_n^(k)(x) = sum_{j<=n} (j+x)^{-k}.

    With a = 1+x this is zeta(k, a) - zeta(k, n+a) (psi(n+a) - psi(a) at
    k = 1), and by DLMF 25.11.43 zeta(k, n+a) is
    sum_i (-1)^i B_i(a) (k)_(i-1)/i! n^(1-k-i), with the rising factorial
    (k)_(i-1) = (k+i-2)!/(k-1)!; at k = 1 the i = 0 term is ln(n) instead.
    """
    if x <= -1:
        raise DomainError("require x > -1")
    a = 1.0 + x
    Ba = _bernoulli_at(a)
    if k == 1:
        out = LogSeries({(1, 0): 1.0, (0, 0): -float(_FLOAT_CTX.mp_ctx().digamma(a))})
    else:
        out = LogSeries.const(float(zeta_em(k, x, _FLOAT_CTX).value))
    for i in range(1 if k == 1 else 0, ORDER + 2 - k):
        rising = Fraction(math.factorial(k + i - 2), math.factorial(k - 1))
        out.add_term(0, k - 1 + i, float((-1) ** (i + 1) * Ba[i] * rising))
    return out


@memoized
def bell_p_models(m: int, x: float) -> tuple[LogSeries, ...]:
    """Asymptotic models of P_0..P_m evaluated on (H_n^(1)(x),..,H_n^(m)(x)).

    P_m comes from m P_m = sum_k H^(k) P_(m-k) over the memoized models of
    the orders below m, which the loop asks for from the bottom up, so no
    call recurses deeper than one level.
    """
    if m == 0:
        return (LogSeries.const(1.0),)
    for j in range(m):
        lower = bell_p_models(j, x)
    s = harmonic_model(1, x) * lower[m - 1]
    for k in range(2, m + 1):
        s += harmonic_model(k, x) * lower[m - k]
    return (*lower, s.scaled(1.0 / m))


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
        z, size, band = Z.at(Mf)
        total += S * z
        err += abs(S) * (zerr(Mf) + band + sys.float_info.epsilon * size)
    return total, err
