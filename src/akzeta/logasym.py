"""Asymptotic series in powers of z and exact Euler-Maclaurin tails for
nested prefix sums.

A series here is a finite sum of terms  c * z^j * n^-(k + shift - z)  held
as bands of z-coefficients, bands[k][j] = c, with one fractional shift in
[0, 1) held by the whole series.  Its order m is the z^m coefficient: by
n^z = sum_l ln(n)^l z^l/l!, the log-power sum of c_j ln(n)^(m-j)/(m-j)!
n^-(k + shift) over j <= m, and a series of z^0 terms read at order 0 is a
plain sum of powers.  The shift is non-zero only for the beta factor's
exponent a = 1 + x and what is built from it; a product carries the
integer part of its shifts into k, so an exponent near the pole s = 1
keeps every bit of a.  The weights of the summation engine are in this
ring: a shifted power (n+x)^-s is the pure power u^-s on the lattice
u = n + x, where Euler-Maclaurin holds as on the integers, and the beta
factors times Bell polynomials of harmonic numbers, B(n, 1+x) P_j, are
the z^j coefficients of one series, B(n, 1+x-z) (DLMF 5.11.17).
This lets the tail of a nested sum

    sum_{n > M} S_{q-1}(n) g_q(n),   S_i(n) = sum_{j < n} S_{i-1}(j) g_i(j)

be peeled level by level:

    T_i(M) = S_{i-1}(M+1) * Z_i(M) + T_{i-1}(M),

where Z_i = tail-sum of the current weight and the next level's weight picks
up the symbolic factor Z_i.  The tail-sum of a band is one closed-form
Euler-Maclaurin map of its coefficients, so the result is exact up to the
(tiny) EM and truncation remainders, which are tracked and reported, times
a safety factor, as the error estimate.  The maps are linear and keep z,
so the tail of B(n, 1+x-z) times a power is at once the tail of every
order.  Z_i depends only on the levels from i outward, so
:func:`tail_chain` memoizes the chain per outer suffix, one for every
shift and every Bell order below its size, and :func:`tail_values` its
values per suffix, order and lattice point M + x.

The module is a leaf: psi(1+x) and zeta(j, 1+x), the constants of its
models, come from one Euler-Maclaurin kernel, :func:`~akzeta.numerics.digamma`
and :func:`~akzeta.numerics.zeta_em`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .numerics import PrecisionContext, digamma, memoized, zeta_em
from .powerseries import bernoulli_over_factorial, classical_bernoulli_polynomial

__all__ = ["LogSeries", "ztail", "tail_chain", "tail_values",
           "nested_tail_sum", "beta_model", "harmonic_model", "bell_p_models"]

# kept Laurent depth beyond the leading exponent; even, as ztail's first
# omitted EM correction, derivative ORDER - 1 at the cap band, must be odd
ORDER = 10
# the models are float series: the psi and zeta constants they take
# need float precision only, whatever the caller's
_FLOAT_CTX = PrecisionContext(digits=17)
# B_i/i!, i = 0..ORDER: the Taylor coefficients of t/(e^t - 1), rounded once
_BERNOULLI = [float(bernoulli_over_factorial(i)) for i in range(ORDER + 1)]


class LogSeries:
    """Finite sum of terms c * z^j * n^-(k + shift - z), held as bands of
    z-coefficients ``bands[k][j] = c`` with no all-zero band, and one
    fractional shift in [0, 1) shared by the whole series.  The models are
    memoized and share what they return: never mutate a series."""

    __slots__ = ("bands", "shift")

    def __init__(self, bands: dict[int, list[float]], shift: float = 0.0):
        self.bands = {k: b for k, b in bands.items() if any(b)}
        self.shift = shift

    @property
    def lead(self) -> float:
        return min(self.bands, default=math.inf) + self.shift

    def __mul__(self, other: "LogSeries") -> "LogSeries":
        """Band convolution, up to the sum of the two leading bands + ORDER.

        The product keeps one factor n^z, so it is the product of the
        series when the left one is a plain power, of z^0 terms, as in
        every chain.  Keep it on the left: a left z^j coefficient pads the
        right list with j zeros, and 0 times an inf order is NaN."""
        cap = min(self.bands, default=math.inf) + min(other.bands, default=math.inf) + ORDER
        shift = self.shift + other.shift
        carry = int(shift >= 1.0)
        out = {}
        for k1, b1 in self.bands.items():
            for k2, b2 in other.bands.items():
                if k1 + k2 > cap:
                    continue
                for j1, c1 in enumerate(b1):  # c1 z^j1 raises b2's orders by j1
                    _accumulate(out, k1 + k2 + carry, [0.0] * j1 + b2 if j1 else b2, c1)
        return LogSeries(out, shift - carry)

    def __call__(self, M: float) -> float:
        return self.at(M)[0]

    def at(self, M: float, m: int = 0) -> tuple[float, float, float]:
        """Order m at M: the float value, the sum over j <= m of the terms
        c_j ln(M)^(m-j)/(m-j)! M^-(k + shift); the sum of their |terms|,
        which scales the round-off of that evaluation; and the sum of the
        |terms| in the deepest kept exponent band, the unit-width band below
        the largest exponent, which estimates the truncation.  The orders
        above m, which may be inf, are not read."""
        logM = math.log(M)
        Ms = M ** -self.shift
        L = [1.0]  # ln(M)^l/l!
        for l in range(1, m + 1):
            L.append(L[-1] * logM / l)
        kmax = max(self.bands, default=0)
        total = size = deep = 0.0
        for k, b in self.bands.items():
            Mk = M ** -k
            for j in range(min(m + 1, len(b))) if m else (0,):  # top log power first
                term = b[j] * L[m - j] * Mk * Ms
                total += term
                size += abs(term)
                if k >= kmax - 1:
                    deep += abs(term)
        return total, size, deep


def _accumulate(bands: dict[int, list[float]], k: int, b: list[float], scale: float = 1.0):
    """bands[k] += scale * b, padding with zeros; bands[k] must be a list
    made for the series under construction."""
    band = bands.get(k)
    if band is None:
        bands[k] = [scale * b[0]] if len(b) == 1 else [scale * c for c in b]
    elif len(b) == 1:  # the usual band of one term, without the loop
        band[0] += scale * b[0]
    else:
        band.extend([0.0] * (len(b) - len(band)))
        for j, c in enumerate(b):
            band[j] += scale * c


def _add(bands: dict[int, list[float]], k: int, c: float):
    """:func:`_accumulate` of the one-term band [c] at scale 1."""
    band = bands.get(k)
    if band is None:
        bands[k] = [c]
    else:
        band[0] += c


def ztail(series: LogSeries) -> tuple[LogSeries, LogSeries]:
    """Symbolic sum_{n > M} series(n) as a LogSeries in M, at every order.

    Each band f(n) = c(z) n^-(s-z) sums by Euler-Maclaurin as one linear
    map of its z-coefficients c: the integral M^(1-s+z) c(z)/(s-1-z), whose
    coefficients are t_j = (c_j + t_(j-1)) / (s-1), then -f(M)/2 as -c/2,
    and -B_2r/(2r)! f^(2r-1)(M) for r = 1..ORDER/2 - 1, where f^(r)(M) is
    M^-(s+r-z) d(z) and each derivative multiplies d(z) by -(s+r-1-z):
    d_j <- d_(j-1) - (s+r-1) d_j.  s - 1 is (k - 1) + shift, exact near the
    pole s = 1.  Returns (tail, err), where err sums over the terms the
    magnitude of the first omitted correction: one term's derivatives never
    cancel, so that is the map e_j <- e_(j-1) + (s+r-1) e_j on |c|.  At
    order m these are the maps of the log-power coefficients
    b_l = c_(m-l)/l! of ln(n)^l.  Each map is triangular, an order taking
    only the orders below it, so an inf order leaves the lower ones alone.
    The derivatives stop at the last correction the band keeps (none past
    r = ORDER - 3, nor past the cap), and a band of one term, as every band
    of a plain chain is, runs the same maps on floats rather than lists.
    """
    shift = series.shift
    if series.lead <= 1.0:
        raise DomainError(f"tail sum requires decay exponent > 1, got {series.lead}")
    cap = min(series.bands, default=0) - 1 + ORDER
    tail, err = {}, {}
    for k, b in series.bands.items():
        if k - 1 > cap:
            continue
        sm1 = k - 1 + shift
        last = min(ORDER - 3, cap - k)  # the last derivative a kept correction takes
        if len(b) == 1:  # the same maps on one term, which is not 0
            d = b[0]
            _add(tail, k - 1, d / sm1)
            _add(tail, k, -0.5 * d)
            e = abs(d)
            for r in range(1, ORDER):
                sr = k + r - 1 + shift
                e *= sr
                if r <= last:
                    d *= -sr
                    if r % 2:
                        _add(tail, k + r, -_BERNOULLI[r + 1] * d)
            _add(err, k + ORDER - 1, _BERNOULLI[ORDER] * e)
            continue
        t, acc = [], 0.0
        for c in b:  # t_j from order 0 up
            acc = (c + acc) / sm1
            t.append(acc)
        _accumulate(tail, k - 1, t)
        _accumulate(tail, k, b, -0.5)
        n = len(b)
        d, e = list(b), list(map(abs, b))  # f^(r) and its magnitude, in place
        for r in range(1, ORDER):
            sr = k + r - 1 + shift
            for j in range(n - 1, 0, -1):  # from the top order down
                e[j] = e[j - 1] + sr * e[j]
            e[0] *= sr
            if r <= last:
                for j in range(n - 1, 0, -1):
                    d[j] = d[j - 1] - sr * d[j]
                d[0] *= -sr
                if r % 2:
                    _accumulate(tail, k + r, d, -_BERNOULLI[r + 1])
        _accumulate(err, k + ORDER - 1, e, _BERNOULLI[ORDER])
    return LogSeries(tail, shift), LogSeries(err, shift)


def _bernoulli_at(a: float) -> tuple[Fraction, ...]:
    """B_i(a)/i! for i = 0..ORDER, exact at the float a: the Taylor
    coefficients of e^(at) t/(e^t - 1), for :func:`harmonic_model`."""
    A = Fraction(a)
    return tuple(classical_bernoulli_polynomial(i)(A) / math.factorial(i)
                 for i in range(ORDER + 1))


def beta_model(x: float) -> LogSeries:
    """Asymptotics of B(n, a) = Gamma(a) Gamma(n) / Gamma(n+a), a = 1+x: the
    order 0 of :func:`bell_p_models`, a series of z^0 terms."""
    return bell_p_models(0, x)


def harmonic_model(k: int, x: float) -> LogSeries:
    """Asymptotics of H_n^(k)(x) = sum_{j<=n} (j+x)^{-k}, as the order 1 of
    the series it returns, ``harmonic_model(k, x).at(n, 1)``.

    With a = 1+x this is zeta(k, a) - zeta(k, n+a) (psi(n+a) - psi(a) at
    k = 1), and by DLMF 25.11.43 zeta(k, n+a) is
    sum_i (-1)^i B_i(a) (k)_(i-1)/i! n^(1-k-i), with the rising factorial
    (k)_(i-1) = (k+i-2)!/(k-1)!; at k = 1 the i = 0 term is ln(n) instead.
    ln(n) is the z^1 coefficient of n^z, so at order 1 it is the band
    [1, 0] of n^0, and a constant c of n^-j is the band [0, c].
    The summation engine does not use it (:func:`bell_p_models` takes the
    harmonic numbers' constants into one series); ``bench/spans.py`` traces
    it by name.
    """
    if x <= -1:
        raise DomainError("require x > -1")
    a = 1.0 + x
    Ba = _bernoulli_at(a)
    if k == 1:
        bands = {0: [1.0, -float(digamma(x, _FLOAT_CTX).value)]}
    else:
        bands = {0: [0.0, float(zeta_em(k, x, _FLOAT_CTX).value)]}
    for i in range(1 if k == 1 else 0, ORDER + 2 - k):
        rising = Fraction(math.factorial(k + i - 2), math.factorial(k - 1))
        bands[k - 1 + i] = [0.0, float((-1) ** (i + 1) * Ba[i] * rising)]
    return LogSeries(bands)


def bell_p_models(m: int, x: float) -> LogSeries:
    """Asymptotic models of B(n, 1+x) P_j(H_n^(1)(x),..,H_n^(j)(x)) for
    j = 0..m, as the orders j of one series: the memoized
    :func:`_beta_series` at the next size 2^k > m, whose orders are the
    same floats at every size."""
    return _beta_series(1 << m.bit_length(), x)


def _truncated_product(p: list[float], q: list[float], size: int) -> list[float]:
    """The coefficients of z^0..z^(size-1) in the product of the polynomials
    p and q; coefficient j sums its products in the same order at any size."""
    return [sum(p[i] * q[j - i] for i in range(max(0, j + 1 - len(q)), min(j + 1, len(p))))
            for j in range(min(size, len(p) + len(q) - 1))]


@memoized
def _beta_series(size: int, x: float) -> LogSeries:
    """The asymptotics of B(n, a - z), a = 1+x, to order size - 1: by
    B(n, a - z) = B(n, a) sum_j P_j(H_n(x)) z^j, its order j is the model
    of B(n, a) P_j.  Each band is a polynomial in z with float coefficients
    truncated below z^size, whose coefficients are the same floats at every
    size.

    B(n, a - z) is the product of three series in z:

    - Gamma(n)/Gamma(n+A) ~ n^(-A) sum_k C(-A, k) B_k^(1-A) n^(-k) at
      A = a - z (DLMF 5.11.17), where B_k^(1-A)/k! is the t^k coefficient of
      (t/(e^t - 1))^(1-A), from J. C. P. Miller's recurrence for a power of
      a power series;
    - n^z, which every band of the series holds;
    - Gamma(a - z) = Gamma(a) exp(-psi(a) z + sum_(j>=2) zeta(j, a) z^j/j),
      whose coefficients e_j follow from j e_j = sum_i c_i e_(j-i) with
      c_1 = -psi(a) and c_i = zeta(i, a), the Bell recurrence of P_j.

    psi(a) and zeta(j, a) come from :func:`~akzeta.numerics.digamma` and
    :func:`~akzeta.numerics.zeta_em` at 17 digits and the exact 1 + x.  At
    a < 1, zeta(i, a) > a^-i grows with i, so once one order's float
    overflows every later one does too: the orders from it are inf,
    unasked for.
    """
    if x <= -1:
        raise DomainError("require x > -1")
    a = 1.0 + x
    try:
        amp = math.gamma(a)
    except OverflowError:
        raise DomainError(f"Gamma(1 + x) overflows a float at x = {x}") from None
    gam = [amp]  # Gamma(a - z)
    if size > 1:
        c = [0.0, -float(digamma(x, _FLOAT_CTX).value)]
        for i in range(2, size):
            try:
                c.append(float(zeta_em(i, x, _FLOAT_CTX).value))
            except (DomainError, OverflowError):  # past the float range: so is every later order
                c.extend([math.inf] * (size - i))
                break
        for j in range(1, size):
            gam.append(sum(c[i] * gam[j - i] for i in range(1, j + 1)) / j)
    f = _BERNOULLI
    g = [[1.0]]  # B_k^(1-A)/k!, polynomials in z
    for k in range(1, ORDER + 1):
        acc = [0.0] * min(k + 1, size)
        for i in range(1, k + 1):  # ((2 - A) i - k) f_i g_(k-i) with A = a - z
            lin = [((2.0 - a) * i - k) * f[i], i * f[i]]
            for d, t in enumerate(_truncated_product(lin, g[k - i], size)):
                acc[d] += t
        g.append([t / k for t in acc])
    base = math.floor(a)
    coef = []  # coef[k]: Gamma(A) C(-A, k) B_k^(1-A), the factor of n^(-A-k)
    binom = [1.0]  # C(-A, k) k!
    for k, gk in enumerate(g):
        coef.append(_truncated_product(_truncated_product(binom, gk, size), gam, size))
        binom = _truncated_product(binom, [-a - k, 1.0], size)
    return LogSeries({base + k: ck for k, ck in enumerate(coef)}, a - base)


@memoized
def tail_chain(e: tuple[int, ...],
               bell: tuple[int, float] | None) -> tuple[tuple[LogSeries, LogSeries], ...]:
    """The symbolic tails (Z_i, EM error of Z_i) of :func:`nested_tail_sum`
    for the levels u^-e_i, the outer one also times B(u, 1+y-z) to order
    size - 1 when ``bell`` = (size, y), so that order m of each entry is
    the tail of the sum whose outer factor is B(u, 1+y) P_m, for every
    m < size.

    A sum of the levels (n + x)^-e_i sums u^-e_i over the lattice u = n + x,
    so its tail past n = N is this chain's past U = N + x, and every shift
    of e shares one chain.  The Bell model expands in n, so a Bell sum keeps
    its power levels at x = 0, where u = n.  Entry i is the tail that
    multiplies S_i(N+1).  It depends only on the outer suffix e[i:], so the
    chain of e is the memoized chain of e[1:] with one more :func:`ztail`
    in front, and each suffix is built once.  The series do not depend on
    U, so one chain serves every cutoff, and the maps keep z, so one chain
    serves every Bell order below its size.
    """
    model = LogSeries({e[0]: [1.0]})
    if len(e) == 1:
        if bell:
            model = model * _beta_series(*bell)
        return (ztail(model),)
    rest = tail_chain(e[1:], bell)
    return (ztail(model * rest[0][0]),) + rest


@memoized
def tail_values(e: tuple[int, ...], bell: tuple[int, float] | None,
                U: float) -> tuple[tuple[float, float], ...]:
    """The entries of :func:`tail_chain` evaluated at U, the lattice point
    N + x of cutoff N, at order m when ``bell`` = (m, y), read from the
    chain at the next size 2^k > m: (Z_i(U), the error weight of level i),
    the weight being the first omitted EM correction, the deepest kept band
    and the float64 round-off eps * sum |terms| of Z_i(U).  The deepest band
    estimates the truncation of a model, so the tail of a plain power u^-e,
    whose model is exact and whose deepest band is a kept EM correction,
    leaves it out.  Memoized per suffix, like the chain."""
    m = bell[0] if bell else 0
    Z, zerr = tail_chain(e, bell and (1 << m.bit_length(), bell[1]))[0]
    z, size, band = Z.at(U, m)
    if len(e) == 1 and not bell:
        band = 0.0
    head = ((z, zerr.at(U, m)[0] + band + sys.float_info.epsilon * size),)
    return head + tail_values(e[1:], bell, U) if len(e) > 1 else head


def nested_tail_sum(S_vals: Sequence[float], values: Sequence[tuple[float, float]]
                    ) -> tuple[float, float]:
    """Tail sum_{n > M} S_{q-1}(n) g_q(n) of a nested prefix sum.

    S_vals[i] must be the exact S_i(M+1) (S_0 = 1); ``values`` the
    :func:`tail_values` of the levels at cutoff M.  Returns (tail,
    error_estimate): 10 times the sum over the levels of |S| times the
    level's error weight.  The 10 is a safety factor, not a proof: the
    omitted correction majorizes only completely monotone summands, and
    the band estimates the truncation without bounding it.  A model that
    overflowed a float makes the estimate inf or NaN.
    """
    if len(S_vals) != len(values):
        raise DomainError("need S_0..S_{q-1} at the cutoff")
    total = err = 0.0
    for S, (z, weight) in zip(reversed(S_vals), reversed(values)):
        total += S * z
        err += abs(S) * weight
    return total, 10.0 * err
