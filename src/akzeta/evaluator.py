"""High-precision evaluation of nested Euler-type sums.

Every public entry point returns a :class:`~akzeta.numerics.Evaluation`
carrying the value, an error bound, and how the bound was obtained.  The
workhorse is a prefix-sum dynamic program over numpy extended-precision
arrays combined with symbolic Euler-Maclaurin tails from :mod:`.logasym`,
which makes even deep, slowly-converging sums exact to near machine
precision at modest cutoffs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .combinatorics import Composition, weak_compositions, m_coeff, binomial
from .errors import DomainError, DivergenceError
from .harmonic_bell import harmonic_table, bell_modified
from .logasym import (LogSeries, pow_shift, nested_tail_sum, beta_model,
                      bell_p_models)
from .numerics import (PrecisionContext, DEFAULT_CTX, Evaluation, RIGOROUS,
                       ESTIMATED, beta_factor_exact, accelerate_alternating,
                       real_shift)

__all__ = [
    "eval_hurwitz_mzv",
    "eval_t",
    "eval_li",
    "eval_ak_lhs",
    "eval_ak_rhs",
    "zeta_combination",
    "eval_euler_transform",
    "eval_prop2_series",
    "ak_lhs_partial_exact",
    "clear_caches",
]

_LD = np.longdouble
_LD_EPS = float(np.finfo(_LD).eps)


def clear_caches():
    _mzv_cached.cache_clear()


def _as_parts(c) -> tuple[int, ...]:
    """The exponent tuple of ``c``; empty or non-integer tuples are rejected."""
    if isinstance(c, Composition):
        return c.parts
    parts = tuple(c)
    try:
        ints = tuple(int(p) for p in parts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"exponents must be integers: {parts}") from exc
    if not ints or ints != parts:
        raise DomainError(f"need a non-empty tuple of integer exponents: {parts}")
    return ints


def _dp_nested(weights: list[np.ndarray]) -> tuple[float, list[float]]:
    """Prefix-sum DP for sum over n_1 < ... < n_q of prod_i w_i[n_i].

    Returns the partial sum over n_q <= N together with the exact
    S_i(N+1) values needed by the symbolic tail recursion.
    """
    N = len(weights[0])
    S = np.ones(N, dtype=_LD)
    S_at = [1.0]
    for w in weights[:-1]:
        prod = S * w
        cs = np.cumsum(prod)
        S = np.concatenate((np.zeros(1, dtype=_LD), cs[:-1]))
        S_at.append(float(cs[-1]))
    partial = float(np.sum(S * weights[-1]))
    return partial, S_at


def _roundoff(N: int, q: int, scale: float) -> float:
    # accumulated extended-precision cumsum error, with margin
    return 4.0 * _LD_EPS * N * (q + 1) * (1.0 + abs(scale))


def _dp_em_tail(weights: list[np.ndarray], models: list[LogSeries], q: int) -> Evaluation:
    """Nested sum of ``weights`` by the prefix-sum DP, plus the symbolic
    Euler-Maclaurin tail of ``models``; ``q`` sizes the round-off term."""
    N = len(weights[0])
    partial, S_at = _dp_nested(weights)
    tail, terr = nested_tail_sum(S_at, models, N)
    value = partial + tail
    bound = 10.0 * terr + _roundoff(N, q, value)
    return Evaluation(value=value, bound=bound, bound_kind=RIGOROUS,
                      method="dp+em-tail", cutoff_used=N)


def _convergent_parts(parts) -> tuple[int, ...]:
    """The exponent tuple of ``parts``, whose outer sum must converge."""
    e = _as_parts(parts)
    if e[-1] < 2:
        raise DivergenceError(f"outer exponent must exceed 1: {e}")
    return e


def eval_hurwitz_mzv(parts, x: float = 0.0, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Shifted multiple zeta value over n_1 < ... < n_q of prod (n_i+x)^{-e_i}.

    ``parts`` is the exponent tuple, innermost first; the last exponent must
    be at least 2 for convergence.
    """
    return _mzv_cached(_convergent_parts(parts), real_shift(x), ctx.default_cutoff)


def eval_t(parts, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Odd-denominator analogue: sum over n_1 < ... < n_q of prod (2 n_i - 1)^{-e_i}."""
    return _mzv_cached(_convergent_parts(parts), -0.5, ctx.default_cutoff, 2)


@lru_cache(maxsize=4096)
def _mzv_cached(e: tuple[int, ...], xf: float, N: int, c: int = 1) -> Evaluation:
    """sum over n_1 < ... < n_q <= N of prod (c (n_i + x))^{-e_i}, plus its tail.

    For c = 2, x = -1/2 the longdouble product c (n + x) is 2n - 1 exactly.
    """
    cn = _LD(c) * (np.arange(1, N + 1, dtype=_LD) + _LD(xf))
    weights = [cn ** _LD(-ei) for ei in e]
    models = [pow_shift(float(ei), xf).scaled(float(c) ** -ei) for ei in e]
    return _dp_em_tail(weights, models, len(e))


def _geom_row_bound(N: int, p: float, A: float, K: float, c: float) -> float:
    """Rigorous bound for sum_{n > N} K (c + ln n)^A p^{-n}.

    Uses (c + ln n) <= (c + ln N)(n/N) for n >= N when c + ln N >= 1, then
    (1 + j/N)^A <= exp(A j / N).
    """
    cl = c + math.log(N)
    if cl < 1.0:
        raise DomainError("cutoff too small for the logarithmic majorant")
    rho = math.exp(A / N) / p
    if rho >= 1.0:
        raise DomainError("cutoff too small for a geometric majorant")
    return K * cl**A * p ** (-N) * rho / (1.0 - rho)


def eval_li(parts, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Multiple polylogarithm: sum over n_1 < ... < n_q of z^{n_q} / prod n_i^{e_i}."""
    e = _as_parts(parts)
    zf = float(z)
    if zf == 1.0:
        return eval_hurwitz_mzv(e, 0.0, ctx)
    if not abs(zf) < 1.0:
        raise DivergenceError(f"need |z| < 1 or z = 1, got {z}")
    digits_goal = 10.0 ** (-(ctx.digits + 6))
    N = min(ctx.default_cutoff,
            max(64, int(math.ceil((ctx.digits + 10) * math.log(10) / -math.log(abs(zf)))) + 32))
    n = np.arange(1, N + 1, dtype=_LD)
    weights = [n ** _LD(-ei) for ei in e]
    weights[-1] = weights[-1] * _LD(zf) ** n
    partial, _ = _dp_nested(weights)
    # tail: |S_{q-1}(n)| <= (1 + ln n)^{q-1}, n^{-e_q} <= 1
    tail_bd = _geom_row_bound(N, 1.0 / abs(zf), len(e) - 1, 1.0, 1.0)
    bound = tail_bd + _roundoff(N, len(e), partial) + digits_goal
    return Evaluation(value=partial, bound=bound, bound_kind=RIGOROUS,
                      method="dp+geom-tail", cutoff_used=N)


def _outer_arrays(N: int, m: int, x: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """B(n,1+x) and P_0..P_m of (H_n^(1)(x),..,H_n^(m)(x)) for n = 1..N,
    extended precision."""
    xl = _LD(x)
    n = np.arange(1, N + 1, dtype=_LD)
    # B(1,1+x) = 1/(1+x), B(n+1,1+x) = B(n,1+x) * n/(n+1+x)
    B = np.empty(N, dtype=_LD)
    B[0] = 1 / (1 + xl)
    np.multiply.accumulate(n[:-1] / (n[1:] + xl), out=B[1:])
    B[1:] *= B[0]
    H = [np.cumsum((n + xl) ** _LD(-k)) for k in range(1, m + 1)]
    return B, bell_modified(H, one=np.ones(N, dtype=_LD))


def _ak_lhs_p1(a: tuple[int, ...], ms, x: float,
               ctx: PrecisionContext) -> list[Evaluation]:
    """:func:`eval_ak_lhs` at p = 1 for each m in ``ms``.

    The outer arrays and the Bell tail models are built once, for the
    largest m; P_m depends only on H^(1)..H^(m), so every value equals that
    of a single call.
    """
    if x + a[-1] <= 0:
        raise DivergenceError(f"needs x + a_r > 0 at p = 1, got {x + a[-1]}")
    N = ctx.default_cutoff
    n = np.arange(1, N + 1, dtype=_LD)
    m_max = max(ms, default=0)
    B, P = _outer_arrays(N, m_max, x)
    P_models = bell_p_models(m_max, x)
    inner = [n ** _LD(-ai) for ai in a[:-1]]
    inner_models = [pow_shift(float(ai), 0.0) for ai in a[:-1]]
    last = n ** _LD(-a[-1])
    last_model = pow_shift(float(a[-1]), 0.0)
    beta = beta_model(x)
    return [_dp_em_tail(inner + [B * P[m] * last],
                        inner_models + [beta * P_models[m] * last_model],
                        len(a) + m + 1)
            for m in ms]


def eval_ak_lhs(alpha, p: float, m: int, x: float,
                ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Nested beta-weighted sum

        sum_{n_1 < ... < n_r} B(n_r,1+x) P_m(H-row(n_r)) p^{-n_r}
                              / (n_1^{a_1} ... n_r^{a_r}).
    """
    a = _as_parts(alpha)
    xf = real_shift(x)
    pf = float(p)
    if m < 0:
        raise DomainError("require m >= 0")
    if pf < 1:
        raise DomainError("require p >= 1")
    if pf == 1.0:
        return _ak_lhs_p1(a, (m,), xf, ctx)[0]
    # p > 1: plain geometric convergence
    r = len(a)
    N = min(ctx.default_cutoff,
            max(80, int(math.ceil((ctx.digits + 12) * math.log(10) / math.log(pf))) + 40))
    n = np.arange(1, N + 1, dtype=_LD)
    B, P = _outer_arrays(N, m, xf)
    weights = [n ** _LD(-ai) for ai in a[:-1]]
    weights.append(B * P[m] * n ** _LD(-a[-1]) * _LD(pf) ** (-n))
    partial, _ = _dp_nested(weights)
    # majorant constants: H_n^(k)(x) <= g^{k-1} H_n^(1)(x), H_n^(1)(x) <= c + ln n,
    # P_m on arguments <= X is at most (X+m)^m / m!
    c = max(1.0, 1.0 / (1.0 + xf))
    g = max(2.0, 1.0 / (1.0 + xf))
    D = (g ** max(m - 1, 0) + m) ** m / math.factorial(m)
    BN = float(B[-1])
    K = BN * N ** (-float(a[-1])) * D
    A = float(m + r - 1)
    tail_bd = _geom_row_bound(N, pf, A, K, c)
    bound = tail_bd + _roundoff(N, r + m + 1, partial)
    return Evaluation(value=partial, bound=bound, bound_kind=RIGOROUS,
                      method="dp+geom-tail", cutoff_used=N)


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
    each index c = (a_1+d_1, ..., a_q+d_q+1); the bound is the weighted sum
    of the parts' bounds."""
    a = _as_parts(alpha)
    total = 0.0
    bound = 0.0
    cutoff = 0
    for d in weak_compositions(m, len(a)):
        coef = m_coeff(a[:-1], d[:-1]) * binomial(a[-1] + d[-1], d[-1])
        ev = zeta(Composition.from_alpha(tuple(ai + di for ai, di in zip(a, d))))
        total += coef * ev.value
        bound += coef * ev.bound
        cutoff = max(cutoff, ev.cutoff_used)
    return Evaluation(value=total, bound=bound, bound_kind=RIGOROUS,
                      method="mzv-combination", cutoff_used=cutoff)


def eval_euler_transform(p: float, s: int, x: float,
                         ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """sum_{n >= 1} (-1)^{n+1} H_n^{(s)}(x) / (n (p-1)^n), valid for p >= 2."""
    pf = float(p)
    xf = real_shift(x)
    if pf < 2:
        raise DivergenceError("alternating transform needs p >= 2")
    q = pf - 1.0
    wp = ctx.mp_ctx()
    xm, qm = wp.mpf(xf), wp.mpf(q)
    h = [wp.mpf(0)]  # h[n] = H_n^{(s)}(x), extended as a running sum

    def term(n: int):
        while len(h) <= n:
            h.append(h[-1] + (len(h) + xm) ** (-s))
        return (-1) ** (n + 1) * h[n] / (n * qm**n)

    if pf == 2.0:
        return accelerate_alternating(term, ctx)
    N = max(60, int(math.ceil((ctx.digits + 12) * math.log(10) / math.log(q))) + 40)
    value = float(sum(term(n) for n in range(1, N + 1)))
    c = max(1.0, 1.0 / (1.0 + xf))
    # H_n^{(s)}(x) <= g^{s-1}(c + ln n) with g as in eval_ak_lhs
    g = max(2.0, 1.0 / (1.0 + xf))
    K = g ** (s - 1) / N
    tail_bd = _geom_row_bound(N, q, 1.0, K, c)
    bound = tail_bd + 10.0 ** (-(ctx.digits + 2))
    return Evaluation(value=value, bound=bound, bound_kind=RIGOROUS,
                      method="direct+geom-tail", cutoff_used=N)


def eval_prop2_series(alpha, x: float, z: float, m_terms: int = 24,
                      ctx: PrecisionContext = DEFAULT_CTX) -> Evaluation:
    """Power-series evaluation of the shifted value zeta(alpha; x - z).

    ``alpha`` is the displayed admissible exponent tuple; the coefficient of
    z^m is the beta-weighted nested sum at p = 1 indexed by the dual tuple.
    Valid for |z| < 1 + x; the truncation remainder is a geometric estimate.
    """
    from .combinatorics import dual
    c = alpha if isinstance(alpha, Composition) else Composition(_as_parts(alpha))
    xf, zf = real_shift(x), float(z)
    if not abs(zf) < 1.0 + xf:
        raise DomainError(f"need |z| < 1 + x, got |{zf}| vs {1.0 + xf}")
    beta = dual(c).alpha()
    total = 0.0
    bound = 0.0
    last = 0.0
    cutoff = 0
    for m, ev in enumerate(_ak_lhs_p1(beta, range(m_terms), xf, ctx)):
        term = zf**m * ev.value
        total += term
        bound += abs(zf) ** m * ev.bound
        last = abs(term)
        cutoff = max(cutoff, ev.cutoff_used)
    ratio = abs(zf) / (1.0 + xf)
    trunc = 3.0 * last * ratio / (1.0 - ratio) if ratio > 0 else 0.0
    return Evaluation(value=total, bound=bound + trunc, bound_kind=ESTIMATED,
                      method="z-power-series", cutoff_used=cutoff)


def ak_lhs_partial_exact(alpha, p: int, m: int, x, N: int) -> Fraction:
    """Exact rational truncation of the beta-weighted nested sum.

    Test-oriented: O(N^2)-ish with exact arithmetic, keep N small.
    """
    a = _as_parts(alpha)
    x = Fraction(x)
    if x <= -1:
        raise DomainError("require x > -1")
    tab = harmonic_table(N, max(m, 1), x) if m > 0 else None
    r = len(a)
    S = [Fraction(1)] * (N + 2)  # S_0(n) = 1
    for level in range(r - 1):
        nxt = [Fraction(0)] * (N + 2)
        acc = Fraction(0)
        for n in range(1, N + 2):
            nxt[n] = acc
            if n <= N:
                acc += S[n] * Fraction(1, n ** a[level])
        S = nxt
        S[0] = Fraction(0)
    total = Fraction(0)
    for n in range(1, N + 1):
        B = beta_factor_exact(n, x)
        P = bell_modified(tab.row(n))[m] if m > 0 else Fraction(1)
        total += S[n] * B * P / (Fraction(p) ** n * n ** a[-1])
    return total
