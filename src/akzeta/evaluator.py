"""High-precision evaluation of nested Euler-type sums.

Every public entry point returns a :class:`~akzeta.numerics.Evaluation`
carrying the value, an error bound, and how the bound was obtained.  The
workhorse is one memoized nested-sum core, :func:`_nested`, behind
``eval_hurwitz_mzv``, ``eval_li`` and ``eval_ak_lhs``; ``eval_t`` is the
exact 2^-|e| multiple of ``eval_hurwitz_mzv`` at x = -1/2.  The core is a
prefix-sum dynamic program over Python integers scaled by 2^_F (fixed
point), combined with symbolic Euler-Maclaurin tails from :mod:`.logasym`
or, for a geometric outer factor, a majorant of the rest.  That makes even
deep, slowly-converging sums exact to near machine precision at modest
cutoffs.  The core chooses its cutoff by one rule, :func:`_choose_cutoff`;
``ctx.default_cutoff`` is only its cap.

Sums of one catalog pass overlap: they share inner levels, and the sums
of one combination differ mostly in their outer exponents.  So each piece
of a sum is memoized by the smallest key that determines it, under the
one :func:`~akzeta.numerics.memoized` policy.  The DP of a sum is
:func:`_dp_prefix`, keyed by its levels e, x, N and its outer factors: the
plain entry of e[:-1] at N and one :func:`_dp_nested` step, so a sum's
inner levels are the entry of a shorter sum.  The outer factors are the
memoized :func:`_outer_arrays` and :func:`_geometric`.  The tail chain of
each outer suffix e[i:], one for every shift x and every Bell order below
its size, and its values at N + x are :func:`~akzeta.logasym.tail_chain`
and :func:`~akzeta.logasym.tail_values`.
A ladder is continued by one rule: the entry of each memoized array at N
holds only its segment n = M+1..N past the rung M = :func:`_below` (N),
and starts from the last values, or the exact sums, that the entry at M
keeps.  The core rounds to float only in :func:`_nested`, so every float
is formed by the same operations in the same order as without the
sharing and the continuation, and no result depends on which sum filled
an entry, nor on which entries were dropped.  Entries are shared: never
mutate a list or tuple they return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .combinatorics import Composition, dual, weak_compositions, m_coeff, binomial
from .errors import DomainError, DivergenceError, integer, real
from .logasym import tail_values, nested_tail_sum
from .numerics import (PrecisionContext, DEFAULT_CTX, Evaluation, RIGOROUS, ESTIMATED,
                       accelerate_alternating, clear_caches, combination, memoized)

__all__ = [
    "eval_hurwitz_mzv",
    "eval_t",
    "eval_li",
    "eval_ak_lhs",
    "eval_ak_rhs",
    "zeta_combination",
    "eval_euler_transform",
    "eval_prop2_series",
    "clear_caches",
]

_F = 96                       # fractional bits of the fixed-point DP
_ONE = 1 << _F
_FIRST_RUNG = 32
# the power rungs of every ladder, for caps below 2^70
_POWER_RUNGS = tuple(_FIRST_RUNG << k for k in range(64))


def _power_weights(N: int, e: int, x: float = 0.0, M: int = 0) -> list[int]:
    """(n + x)^-e for n = M+1..N in fixed point, x taken as the exact dyadic
    rational of its float; each weight is rounded down once."""
    xn, xd = x.as_integer_ratio()
    num = xd**e << _F
    return [num // (n * xd + xn) ** e for n in range(M + 1, N + 1)]


@memoized
def _geometric(N: int, r: Fraction) -> list[int]:
    """r^n for n = M+1..N, M = :func:`_below` (N), in fixed point: the
    floored recurrence t <- t r from t = 1, continued from the last value of
    the entry at M."""
    M = _below(N)
    t = _geometric(M, r)[-1] if M else _ONE
    num, den = r.as_integer_ratio()
    out = []
    for _ in range(M, N):
        t = t * num // den
        out.append(t)
    return out


def _product(*vectors: list[int]) -> list[int]:
    """The elementwise product of fixed-point vectors, rounded down once."""
    shift = _F * (len(vectors) - 1)
    return [math.prod(t) >> shift for t in zip(*vectors)]


def _dp_nested(weights: list[list[int]], start: int) -> list[int]:
    """The one step of the prefix-sum DP: the terms S(n) w(n) of an outer
    level on the segment M < n <= N of a ladder, S(n) being the exact sum
    of the inner level's terms over n' < n.

    ``weights`` is [inner terms, outer weights] for n = M+1..N, fixed-point
    integers (value * 2^_F), and ``start`` the exact sum of the inner terms
    over n <= M.  The prefix sums are exact and stream; each product
    rounds down once.  It mutates nothing, as the inner terms it is given
    are a shared prefix entry's.
    """
    inner, w = weights
    return [(s * wn) >> _F for wn, s in zip(w, accumulate(inner, initial=start))]


def _below(N: int) -> int:
    """The rung below cutoff N on every ladder of :func:`_rungs`: the largest
    _FIRST_RUNG * 2^k <= N/2, or 0 below 2 * _FIRST_RUNG."""
    return 1 << ((N >> 1).bit_length() - 1) if N >= 2 * _FIRST_RUNG else 0


@memoized
def _dp_prefix(e: tuple[int, ...], x: float, N: int, bell: tuple[int, float] | None,
               r: Fraction | None) -> tuple[list[int], tuple[int, ...]]:
    """The fixed-point DP of the levels (n + x)^-e_i at cutoff N, the last
    level's weights also multiplied by B(n, 1+y) P_m when ``bell`` = (m, y)
    and by r^n when ``r`` is a Fraction, in one product rounded down once.

    The entry holds the last level's terms for n = M+1..N, M = :func:`_below`
    (N), and the exact sum of every level's terms through N; a level with an
    extra factor keeps no terms, as no sum reads it as an inner level.  It
    continues the entry at M: below depth 1 its segment is one
    :func:`_dp_nested` step on the plain entry of e[:-1] at N (a segment
    past the same M), started from the inner level's sum through M that
    the entry at M keeps.
    """
    M = _below(N)
    sums = _dp_prefix(e, x, M, bell, r)[1] if M else (0,) * len(e)
    terms = _power_weights(N, e[-1], x, M)
    factors = [*_outer_arrays(N, *bell)] if bell else []
    if r is not None:
        factors.append(_geometric(N, r))
    if factors:
        terms = _product(terms, *factors)
    inner_sums = ()
    if len(e) > 1:
        inner, inner_sums = _dp_prefix(e[:-1], x, N, None, None)
        terms = _dp_nested([inner, terms], sums[-2])
    return [] if factors else terms, inner_sums + (sums[-1] + sum(terms),)


def _roundoff(N: int, q: int, scale: float, size: float) -> float:
    """The stopping tolerance of :func:`_choose_cutoff` at cutoff N for a
    depth-q sum of size ``scale``; it also bounds the fixed-point rounding.

    Every weight, geometric or beta factor and product is rounded down to a
    multiple of 2^-_F (the outer level's weight and all its factors make one
    product, rounded once), and a floored recurrence t_n = floor(t_(n-1) r)
    with |r| <= 1 is off by at most n units.  Prefix sums add no rounding.
    ``size`` is L, the product of 1 + the largest value of each factor of a
    term that can exceed 1: the prefix sum S_i(N) and, in a Bell sum,
    B(1, 1+x) and P_m.  For power weights at any x > -1 the partial sum is
    off by less than 2 N (q + 1) 2^-_F L: a rounding at level i is under
    2^-_F (1 + S_(i-1)(N)), and the later levels multiply it by at most a
    nested sum of (n + x)^-e over n >= 2, below zeta(e_(i+1), .., e_q) <=
    zeta(2) < 2 because n + x > n - 1.  The Bell and geometric factors, off
    by at most n (m + 2) units times 1 + their size, multiply inner levels
    at x = 0, whose prefix sums stay small, and the margin below covers them.
    The tolerance is the larger of 2^-61 N (q + 1) (1 + |scale|), the
    stopping target the cutoffs were sized with, and 2 N (q + 1) 2^-_F L,
    that proven rounding bound; while L <= 1 + |scale| the target is
    2^(_F - 62) times the bound.  At x < 0 the inner prefix sums reach
    (1 + x)^-e_1, far above the value when the outer weights are small, and
    then L sets the tolerance.
    """
    return N * (q + 1) * max(2.0 ** -61 * (1.0 + abs(scale)), 2.0 ** (1 - _F) * size)


def _rungs(cap: int, x: float = 0.0) -> tuple[int, ...]:
    """The cutoff ladder 32, 64, ... while twice the rung fits under ``cap``,
    then ``cap`` itself, keeping the rungs N > x: of the powers 32 * 2^k,
    the first bitlen(cap // 64) less the first bitlen(int(x) // 32), as int
    truncates every x in (-1, 0) to 0.  Only a p = 1 Bell sum passes its
    shift: its model of B(n, 1+x) expands in powers of x/n and diverges at
    every rung N <= x, so x must lie below the cap, then the last rung."""
    if x >= cap:
        raise DomainError(f"shift x = {x} must be below the cutoff cap {cap}")
    return (_POWER_RUNGS[(int(x) // _FIRST_RUNG).bit_length():
                         (cap // (2 * _FIRST_RUNG)).bit_length()] + (cap,))


def _choose_cutoff(rungs: tuple[int, ...], rung: Callable, q: int, method: str) -> Evaluation:
    """The one cutoff rule of the DP paths, for a sum of depth q.

    ``rung(N)`` sums to cutoff N and returns (partial, scale, trunc, size):
    the exact value in units of 2^-_F, its float, the part of its bound
    that shrinks as N grows (truncation, and the float evaluation of a
    symbolic tail; infinite when no majorant exists at N), and the size of
    the outer term's factors.  Its result depends on N alone, whatever
    rungs were asked for before.  The stopping tolerance :func:`_roundoff`,
    sized by the float and the factors, grows linearly in N; it also covers
    int(tail * 2^_F), which truncates by less than 2^-_F.  The sum keeps
    the first rung where trunc <= roundoff, else the last: its bound, at
    most 2 * roundoff, is then no larger than at any rung >= 2N.
    """
    for N in rungs:
        partial, scale, trunc, size = rung(N)
        roundoff = _roundoff(N, q, scale, size)
        if trunc <= roundoff or N == rungs[-1]:
            break
    if math.isinf(trunc):
        raise DomainError(f"cutoff {N} too small for a geometric majorant")
    return Evaluation(value=Fraction(partial, _ONE), bound=trunc + roundoff,
                      bound_kind=RIGOROUS, method=method, cutoff_used=N)


def eval_hurwitz_mzv(parts, x: float = 0.0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Shifted multiple zeta value over n_1 < ... < n_q of prod (n_i+x)^{-e_i}.

    ``parts`` is the exponent tuple, innermost first; the last exponent must
    be at least 2 for convergence.  Every x > -1 climbs the same ladder.
    """
    e = Composition.coerce(parts).parts
    if e[-1] < 2:
        raise DivergenceError(f"outer exponent must exceed 1: {e}")
    xf = real(x, "x", above=-1)
    return _nested(e, xf, None, None, _rungs(ctx.default_cutoff))


def eval_t(parts, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Odd-denominator analogue: sum over n_1 < ... < n_q of prod (2 n_i - 1)^{-e_i},
    which is 2^-w zeta(e; -1/2) at weight w = |e|, scaled exactly from that
    memoized sum.  Its innermost prefix sum is at least 2^(e_1), so a tuple
    whose innermost exponent is near 1024 or more leaves the float range."""
    e = Composition.coerce(parts)
    ev = eval_hurwitz_mzv(e, -0.5, ctx)
    return combination(((Fraction(1, 2**e.weight), ev),), ev.method)


def _geom_row_bound(N: int, p: float, A: float, K: float, c: float) -> float:
    """Rigorous bound for sum_{n > N} K (c + ln n)^A p^{-n}.

    Uses (c + ln n) <= (c + ln N)(n/N) for n >= N when c + ln N >= 1, then
    (1 + j/N)^A <= exp(A j / N).  Infinite when N is too small for either.
    Where K (c + ln N)^A overflows and p^-N underflows, the same product is
    taken in log space, raised by 1e-14 times the size of its logs: more
    than the roundings of the logs, their products, their sum and exp.
    """
    cl = c + math.log(N)
    rho = math.exp(A / N) / p
    if cl < 1.0 or rho >= 1.0:
        return math.inf
    bound = K * cl**A * p ** (-N) * rho / (1.0 - rho)
    if math.isfinite(bound):
        return bound
    logs = (math.log(K), A * math.log(cl), -N * math.log(p), math.log(rho / (1.0 - rho)))
    log_bound = sum(logs) + 1e-14 * sum(map(abs, logs))
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def eval_li(parts, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Multiple polylogarithm: sum over n_1 < ... < n_q of z^{n_q} / prod n_i^{e_i}."""
    e = Composition.coerce(parts).parts
    try:
        zf = real(z, "z")
    except DomainError as exc:  # NaN and inf lie outside the disc of convergence too
        raise DivergenceError(str(exc)) from None
    if zf == 1.0:
        return eval_hurwitz_mzv(e, 0.0, ctx)
    if not abs(zf) < 1.0:
        raise DivergenceError(f"need |z| < 1 or z = 1, got {z}")
    return _nested(e, 0.0, None, Fraction(zf), _rungs(ctx.default_cutoff))


@memoized
def _outer_arrays(N: int, m: int, x: float) -> tuple[list[int], list[int]]:
    """B(n,1+x) and P_m of (H_n^(1)(x),..,H_n^(m)(x)) for n = M+1..N,
    M = :func:`_below` (N), in fixed point: the entry at M continued from
    its last values.

    P_j of the harmonic numbers is the complete homogeneous symmetric
    polynomial h_j(y_1, .., y_n) of y_i = 1/(i+x), so
    P_j(n) = sum_{i<=n} y_i P_(j-1)(i): one product and one prefix sum on
    the memoized segments of order j - 1, where the Bell recurrence takes j
    of each.  The orders below m are asked for from the bottom up, so a call
    recurses one order deep, and down the rungs below N only where their
    entries were dropped.
    """
    M = _below(N)
    if m:
        for j in range(m):
            B, P = _outer_arrays(N, j, x)
        # P_m(n) for n > M: P_m(M) plus the products from M+1 through n
        P_m = accumulate([(a * b) >> _F for a, b in zip(_power_weights(N, 1, x, M), P)],
                         initial=_outer_arrays(M, m, x)[1][-1] if M else 0)
        next(P_m)
        return B, list(P_m)
    xn, xd = x.as_integer_ratio()
    # B(1,1+x) = 1/(1+x), B(n+1,1+x) = B(n,1+x) * n/(n+1+x), from B(M,1+x)
    B = _outer_arrays(M, 0, x)[0][-1:] if M else [(xd << _F) // (xd + xn)]
    for n in range(M or 1, N):
        B.append(B[-1] * n * xd // ((n + 1) * xd + xn))
    return B[1:] if M else B, [_ONE] * (N - M)


@memoized
def _nested(e: tuple[int, ...], x: float, bell: tuple[int, float, int] | None,
            r: Fraction | None, rungs: tuple[int, ...]) -> Evaluation:
    """The one nested sum of the DP paths, to a cutoff N from ``rungs``:

        sum over n_1 < ... < n_q of prod_i (n_i + x)^{-e_i},

    its outer term also multiplied by B(n, 1+y) P_m(H_n(y)) when
    ``bell`` = (m, y, size), and by r^n when ``r`` is a Fraction.  A Bell
    tail reads order m from the tail chain of that size > m, which gives
    the same floats at every size; the DP keys on (m, y) alone.

    At each rung N the sum up to N is the exact outer level sum S_q(N+1)
    of the memoized :func:`_dp_prefix` entry of the whole sum, whose inner
    level sums S_1..S_(q-1) at N+1 become floats here and nowhere else in
    the core.  The entry continues the entries at the rung below, so a rung
    sums only the segment past it.
    Without r the rest of the sum is the symbolic Euler-Maclaurin tail of
    the levels' asymptotic models: :func:`~akzeta.logasym.nested_tail_sum`
    combines the S values with the shared tail values of the outer
    suffixes of e at the lattice point N + x.  With r it is the majorant
    :func:`_geom_row_bound`, which holds only if the inner levels are powers
    n^-e at x = 0 and e >= 1, as for every caller: then
    S_(q-1)(n) <= (1 + ln n)^(q-1), and B(n, 1+y) <= B(N, 1+y) for n >= N.
    """
    m, y, _ = bell or (0, 0.0, 1)
    dp_bell = bell and (m, y)
    what = (f"the Bell-weighted sum {e} at m = {m}, x = {y}" if bell
            else f"the nested sum {e} at x = {x}")
    if bell:  # the largest B(n, 1+y), at n = 1, where the entry at 32 starts
        B_1 = _outer_arrays(_FIRST_RUNG, 0, y)[0][0]
    if r is not None:
        # majorant constants: H_n^(k)(y) <= g^{k-1} H_n^(1)(y), H_n^(1)(y) <= h + ln n,
        # P_m on arguments <= X is at most (X+m)^m / m!
        h = max(1.0, 1.0 / (1.0 + y))
        g = max(2.0, 1.0 / (1.0 + y))
        try:
            D = (g ** max(m - 1, 0) + m) ** m / math.factorial(m)
        except OverflowError:
            raise DomainError(f"the majorant of P_m overflows a float at m = {m}, x = {y}") from None
        p = float(1 / abs(r)) if r else math.inf

    def rung(N):
        S = _dp_prefix(e, x, N, dp_bell, r)[1]
        # outside the try: a model the tail chain refuses keeps its own DomainError
        values = tail_values(e, bell, N + x) if r is None else None
        try:
            total = S[-1]
            S_at = [1.0, *(s / _ONE for s in S[:-1])]
            if r is None:
                tail, terr = nested_tail_sum(S_at, values)
                if not math.isfinite(terr):  # a tail model that overflowed a float
                    raise OverflowError
                total += int(tail * _ONE)
            scale = total / _ONE
            size = 1.0 + max(S_at)
            if bell:
                B, P = _outer_arrays(N, m, y)
                size *= (1.0 + B_1 / _ONE) * (1.0 + P[-1] / _ONE)
        except (OverflowError, ValueError):  # a value or tail past the float range, or NaN
            raise DomainError(f"{what} leaves the float range at cutoff {N}") from None
        if r is None:
            return total, scale, terr, size
        K = B[-1] / _ONE * N ** (-float(e[-1])) * D if bell else 1.0
        return total, scale, _geom_row_bound(N, p, m + len(e) - 1, K, h), size

    q = len(e) + (m + 1 if bell else 0)
    return _choose_cutoff(rungs, rung, q, "dp+em-tail" if r is None else "dp+geom-tail")


def eval_ak_lhs(alpha, p: float, m: int, x: float,
                ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Nested beta-weighted sum

        sum_{n_1 < ... < n_r} B(n_r,1+x) P_m(H-row(n_r)) p^{-n_r}
                              / (n_1^{a_1} ... n_r^{a_r}).
    """
    a = Composition.coerce(alpha).parts
    xf, pf, m = real(x, "x", above=-1), real(p, "p"), integer(m, 0, "m")
    if pf < 1:
        raise DomainError(f"require p >= 1, got {pf}")
    bell = (m, xf, 1 << m.bit_length())
    if pf == 1.0:
        return _nested(a, 0.0, bell, None, _rungs(ctx.default_cutoff, xf))
    return _nested(a, 0.0, bell, 1 / Fraction(pf), _rungs(ctx.default_cutoff))


def eval_ak_rhs(alpha, m: int, x: float,
                ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Linear combination of shifted multiple zeta values equal to the
    beta-weighted nested sum at p = 1:

        sum_{|d| = m} M(a_1..a_{q-1}, d_1..d_{q-1}) C(a_q + d_q, d_q)
                      * zeta(a_1+d_1, ..., a_q+d_q+1; x).
    """
    return zeta_combination(alpha, m, lambda c: eval_hurwitz_mzv(c, x, ctx))


def zeta_combination(alpha, m: int,
                     zeta: Callable[[Composition], Evaluation]) -> Evaluation:
    """The weighted sum of :func:`eval_ak_rhs` with ``zeta(c)`` evaluating
    each index c = (a_1+d_1, ..., a_q+d_q+1), weighted by integers and
    summed by :func:`~akzeta.numerics.combination`."""
    a = Composition.coerce(alpha).parts
    m = integer(m, 0, "m")
    return combination(
        ((m_coeff(a[:-1], d[:-1]) * binomial(a[-1] + d[-1], d[-1]),
          zeta(Composition.from_alpha(tuple(ai + di for ai, di in zip(a, d)))))
         for d in weak_compositions(m, len(a))), "mzv-combination")


def eval_euler_transform(p: float, s: int, x: float,
                         ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n >= 1} (-1)^{n+1} H_n^{(s)}(x) / (n (p-1)^n), valid for p >= 2
    and an integer s >= 1, summed by :func:`accelerate_alternating`.

    Its magnitudes b_n = H_n^{(s)}(x) / (n (p-1)^n) are a Hausdorff moment
    sequence: with (j+x)^-s = Gamma(s)^-1 int_0^1 v^(j+x-1) (-ln v)^(s-1) dv
    and (1 - v^n)/n = int_v^1 u^(n-1) du, b_n = int_0^1 u^(n-1) w(u) du with
    w >= 0 at p = 2, and u = (p-1) t turns that into moments of a measure on
    [0, 1/(p-1)].  So the accelerator's bound is proven at every p >= 2.
    Each b_n is formed in fixed point at the exact rationals of the float p
    and x: a running sum of the terms 2^F (j+x)^-s, each rounded down, is
    below 2^F H_n^{(s)}(x) by less than n units, which n (p-1)^n >= n
    shrinks to one; the product by (p-1)^-n / n, rounded down once, adds
    the other, so b_n is within the 2 units the accelerator asks for.  F is
    sized from the working precision and b_1 so that the round-off part of
    the bound, 2 n 2^-F, is at most eps b_1.  The value is an exact Fraction.
    """
    pf, s, xf = real(p, "p"), integer(s, 1, "s"), real(x, "x", above=-1)
    if pf < 2:
        raise DivergenceError("alternating transform needs p >= 2")
    xn, xd = xf.as_integer_ratio()
    qn, qd = (Fraction(pf) - 1).as_integer_ratio()
    b1 = Fraction(xd, xd + xn) ** s * Fraction(qd, qn)
    # 2 n 2^-F <= eps b_1 = 2^(1 - bits) b_1, as the term count n is below
    # bits < 2^len(bits) and b_1 > 2^(len(num) - 1 - len(den)), len the bit length
    bits = ctx.bits()
    F = max(0, bits + b1.denominator.bit_length() - b1.numerator.bit_length()
            + 1 + bits.bit_length())
    num = xd**s << F
    t = qd.bit_length() - 1  # p - 1 = qn / 2^t, as for every float p
    h = [0]  # h[n] = 2^F H_n^{(s)}(x), extended as a running sum
    g = [1]  # g[n] = qn^n

    def b(n: int) -> int:
        while len(h) <= n:
            h.append(h[-1] + num // (len(h) * xd + xn) ** s)
            g.append(g[-1] * qn)
        return (h[n] << t * n) // (n * g[n])

    return accelerate_alternating(b, F, ctx)


def eval_prop2_series(alpha, x: float, z: float, m_terms: int = 24,
                      ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Power-series evaluation of the shifted value zeta(alpha; x - z).

    ``alpha`` is the displayed admissible exponent tuple; the coefficient of
    z^m is :func:`eval_ak_lhs` at p = 1 and order m, indexed by the dual
    tuple, with the same floats: every order reads its tail from the one
    Bell tail chain of the next size 2^k >= m_terms, which holds them all.
    Valid for |z| < 1 + x; the truncation remainder is a geometric estimate.
    The terms sum by :func:`~akzeta.numerics.combination`, with z as the
    Fraction of its float, and the estimate adds to their bound.
    """
    c = Composition.coerce(alpha)
    xf, zf, m_terms = real(x, "x", above=-1), real(z, "z"), integer(m_terms, 1, "m_terms")
    if not abs(zf) < 1.0 + xf:
        raise DomainError(f"need |z| < 1 + x, got |{zf}| vs {1.0 + xf}")
    beta = dual(c).alpha()
    rungs = _rungs(ctx.default_cutoff, xf)
    size = 1 << (m_terms - 1).bit_length()
    zq = Fraction(zf)
    terms = [(zq**m, _nested(beta, 0.0, (m, xf, size), None, rungs)) for m in range(m_terms)]
    series = combination(terms, "z-power-series")
    w, last = terms[-1]
    ratio = abs(zf) / (1.0 + xf)
    trunc = 3.0 * float(abs(w * last.value)) * ratio / (1.0 - ratio) if ratio > 0 else 0.0
    return Evaluation(value=series.value, bound=series.bound + trunc, bound_kind=ESTIMATED,
                      method=series.method, cutoff_used=series.cutoff_used)
