import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from akzeta import logasym
from akzeta.errors import DomainError
from akzeta.harmonic_bell import bell_modified, harmonic_table
from akzeta.logasym import (LogSeries, ORDER, ztail,
                            beta_model, harmonic_model, bell_p_models, _beta_series,
                            tail_chain, tail_values, nested_tail_sum)
from akzeta.numerics import beta_factor_exact, clear_caches, digamma


def test_logseries_ring_basics():
    a = LogSeries({2: [1.0]})
    b = LogSeries({1: [0.0, 2.0]})
    prod = a * b  # n^-2 times 2z n^-(1-z)
    assert prod.bands == {3: [0.0, 2.0]}
    # order m reads c_j ln(n)^(m-j)/(m-j)! n^-k over j <= m
    c = LogSeries({1: [3.0, 2.0, 5.0]})
    n = 10.0
    assert c.at(n, 0)[0] == pytest.approx(3.0 / n, rel=1e-15)
    assert c.at(n, 1)[0] == pytest.approx((3.0 * math.log(n) + 2.0) / n, rel=1e-15)
    assert c.at(n, 2)[0] == pytest.approx((1.5 * math.log(n) ** 2 + 2.0 * math.log(n) + 5.0) / n,
                                          rel=1e-15)
    assert LogSeries({2: [0.0]}).bands == {}  # an all-zero band is dropped
    assert a.lead == 2.0
    # shifts add, and their integer part moves into the integer exponents
    c = LogSeries({1: [3.0]}, shift=0.5) * LogSeries({1: [2.0]}, shift=0.75)
    assert (c.bands, c.shift) == ({3: [6.0]}, 0.25)


def test_ztail_simple_power():
    t, err = ztail(LogSeries({2: [1.0]}))
    M = 50
    partial = sum(k**-2.0 for k in range(1, M + 1))
    exact = math.pi**2 / 6 - partial
    assert abs(t(M) - exact) < 1e-14
    assert err(M) < 1e-18


def test_ztail_with_logs():
    # sum_{n > M} ln(n)/n^2, the order 1 of sum_{n > M} n^-(2-z), against a
    # high-precision reference
    t, _ = ztail(LogSeries({2: [1.0, 0.0]}))
    M = 80
    with mp.workdps(40):
        full = -mp.diff(lambda s: mp.zeta(s), 2)
        partial = mp.fsum(mp.log(n) / n**2 for n in range(1, M + 1))
        exact = float(full - partial)
    assert abs(t.at(M, 1)[0] - exact) < 1e-15


def test_ztail_near_the_pole():
    # order j of sum_{n > M} n^-(1+a-z) with a = 0.1 is sum_{n > M}
    # ln(n)^j/j! n^-(1+a) = (-1)^j/j! d^j/ds^j zeta(s, M+1) at s = 1 + a;
    # the tail's 1/a^(j+1) must not amplify a rounded exponent
    a, M = 0.1, 100
    t, _ = ztail(LogSeries({1: [1.0] + [0.0] * 4}, shift=a))
    for j in range(5):
        with mp.workdps(30):
            ref = (-1) ** j * mp.zeta(1 + mp.mpf(a), M + 1, derivative=j) / mp.factorial(j)
        assert abs(t.at(M, j)[0] - ref) <= 2e-15 * abs(ref), j


def test_ztail_of_a_band_is_the_sum_over_its_terms():
    # bands of several z-coefficients, mixed signs and a shift sum term by
    # term at every order; err is the sum over the terms of each one's
    # omitted correction, each within a few roundings of its sum of |terms|.
    # Every list has the same length, 4: the series and its tail hold the
    # orders 0..3
    shift = 0.3
    series = LogSeries({2: [0.7, -1.3, 0.0, 0.0], 3: [0.0, 2.1, -0.4, 0.9]}, shift=shift)
    single = [ztail(LogSeries({k: [0.0] * j + [c] + [0.0] * (3 - j)}, shift=shift))
              for k, b in series.bands.items() for j, c in enumerate(b) if c]
    tail, err = ztail(series)
    for M in (20.0, 64.0, 1000.0):
        for m in range(4):
            ref = math.fsum(t.at(M, m)[0] for t, _ in single)
            value, size, _ = tail.at(M, m)
            assert abs(value - ref) <= 1e-15 * size
            ref_err = math.fsum(e.at(M, m)[0] for _, e in single)
            assert abs(err.at(M, m)[0] - ref_err) <= 1e-15 * ref_err


@pytest.mark.parametrize("M", [32, 100])
def test_ztail_deepest_band_is_its_last_em_correction(M):
    # sum_{n > M} n^-2 keeps EM corrections up to B_8/8! f^(7)(M) = M^-9/30,
    # and no zero band is stored past it, so that is the deepest band
    deep = ztail(LogSeries({2: [1.0]}))[0].at(M)[2]
    assert deep == pytest.approx(M**-9 / 30, rel=1e-15)


def test_ztail_requires_convergence():
    with pytest.raises(DomainError):
        ztail(LogSeries({1: [1.0]}))


def _full_ztail(series):
    """ztail as it ran every derivative to ORDER - 1 on every band, one-term
    bands included, with the z-maps in place from the top order down: the
    oracle of the kernel that stops at its last kept correction."""
    shift = series.shift
    cap = min(series.bands, default=0) - 1 + ORDER
    tail, err = {}, {}
    for k, b in series.bands.items():
        if k - 1 > cap:
            continue
        n = len(b)
        sm1 = k - 1 + shift
        t, acc = [0.0] * n, 0.0
        for j in range(n):
            t[j] = acc = (b[j] + acc) / sm1
        logasym._accumulate(tail, k - 1, t)
        logasym._accumulate(tail, k, b, -0.5)
        d, e = list(b), list(map(abs, b))
        for r in range(1, ORDER):
            sr = k + r - 1 + shift
            for j in range(n - 1, 0, -1):
                d[j] = d[j - 1] - sr * d[j]
                e[j] = e[j - 1] + sr * e[j]
            d[0] *= -sr
            e[0] *= sr
            if r % 2 and r < ORDER - 1 and k + r <= cap:
                logasym._accumulate(tail, k + r, d, -logasym._BERNOULLI[r + 1])
        logasym._accumulate(err, k + ORDER - 1, e, logasym._BERNOULLI[ORDER])
    return LogSeries(tail, shift), LogSeries(err, shift)


def _bits(series):
    """The bands and shift of a series, each float by its hex, so -0.0 and
    0.0 differ."""
    return (sorted((k, [c.hex() for c in b]) for k, b in series.bands.items()),
            series.shift.hex())


def _head(series, size):
    """The series truncated below z^size: each band's first size
    coefficients, with a band that is zero there dropped."""
    return LogSeries({k: b[:size] for k, b in series.bands.items()}, series.shift)


_COEF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def _series(draw):
    shift = draw(st.floats(0.0, 1.0, exclude_max=True))
    lead = draw(st.integers(1 if 1.0 + shift > 1.0 else 2, 4))
    # offsets past ORDER + 1 put bands past the kernel's cap
    bands = draw(st.dictionaries(st.integers(0, ORDER + 3),
                                 st.lists(_COEF, min_size=1, max_size=12),
                                 min_size=1, max_size=8))
    return LogSeries({lead + i: b for i, b in bands.items()}, shift)


@settings(max_examples=300, deadline=None)
@given(_series(), st.sampled_from([20.0, 32.0, 100.0, 1000.0, 65536.0]))
def test_ztail_and_values_are_the_full_kernel(series, M):
    # every band and derivative float for float as the kernel that did all
    # the work it now skips; the value alone is the value of at()
    got, want = ztail(series), _full_ztail(series)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)
    for s in (*got, series):
        assert s(M).hex() == s.at(M)[0].hex()


@pytest.mark.parametrize("e, x, bell", [((3,), 0.0, None), ((1, 2), -0.5, None),
                                        ((1, 1), 0.0, (4, 0.5)), ((2,), 0.0, (8, -0.5))])
def test_ztail_of_the_models_is_the_full_kernel(e, x, bell):
    # the kernel on the series the engine takes its tails of, which are the
    # same at every shift x, and their values at every order where a sum at
    # x reads them, at the lattice point 64 + x
    model = LogSeries({e[0]: [1.0]})
    if len(e) > 1:
        model = model * tail_chain(e[1:], bell)[0][0]
    elif bell:
        model = model * _beta_series(*bell)
    U = 64 + x
    for got, want in zip(ztail(model), _full_ztail(model)):
        assert _bits(got) == _bits(want)
        for m in range(bell[0] if bell else 1):
            assert got.at(U, m)[0].hex() == want.at(U, m)[0].hex()


@pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 0.25, 1 / 3, -1 / 7, 1e-10, -0.9, 2.5])
def test_beta_model_matches_gamma(x):
    bm = beta_model(x)
    for n in (200, 2000):
        ref = float(mp.beta(n, 1 + x))
        assert abs(bm(n) - ref) < 1e-14 * abs(ref) + 1e-300


def test_harmonic_models():
    # H_n^(k)(x) = psi(n+a) - psi(a) at k = 1, zeta(k, a) - zeta(k, n+a) above
    n = 500
    for k in (1, 2, 3, 5):
        for x in (1 / 3, -0.9, 2.5):
            with mp.workdps(30):
                a = 1 + mp.mpf(x)
                if k == 1:
                    ref = mp.digamma(n + a) - mp.digamma(a)
                else:
                    ref = mp.zeta(k, a) - mp.zeta(k, n + a)
            assert abs(harmonic_model(k, x).at(n, 1)[0] - ref) <= 2e-15 * abs(ref), (k, x)


def test_digamma_matches_mpmath_float_for_float():
    # the psi(1 + x) of the models, at 17 digits and the exact 1 + x, rounds
    # to the same float as mpmath's 40-digit value, near the pole at x = -1
    # and past the Euler-Maclaurin base N + x at N = 17
    rng = random.Random(2017)
    xs = [0.0, 0.5, -0.5, 0.25, 1 / 3, -0.9, -0.99, -0.999, -1 + 1e-12, 2.5, 145.5]
    xs += [rng.uniform(-1.0, 150.0) for _ in range(2000)]
    with mp.workdps(40):
        for x in xs:
            got = float(digamma(x, logasym._FLOAT_CTX).value)
            assert got == float(mp.digamma(1 + mp.mpf(x))), x


def test_harmonic_constant_matches_mpmath_zeta():
    # the constant term of H_n^(k)(x) is zeta(k, 1+x), rounded to float,
    # the z^1 coefficient of the band of n^0
    for k in range(2, 13):
        for x in (0.5, 0.25, -0.5):
            with mp.workdps(30):
                ref = float(mp.zeta(k, 1 + x))
            assert harmonic_model(k, x).bands[0] == [0.0, ref]


@pytest.mark.parametrize("x", [0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4)], ids=str)
def test_bell_p_models_match_exact_beta_bell_rows(x):
    # the z^j coefficient of B(n, 1+x-z) is B(n, 1+x) P_j of the harmonic
    # row; B(n, 1+x) is small at n = 400, so the tolerance is relative
    n = 400
    models = bell_p_models(6, float(x))
    beta = beta_factor_exact(n, x)
    exact = [float(beta * p) for p in bell_modified(harmonic_table(n, 6, x)[n])]
    for j in range(7):
        assert abs(models.at(n, j)[0] - exact[j]) < 1e-11 * abs(exact[j]), j


def test_beta_series_is_the_same_floats_at_every_size():
    # a truncated polynomial product sums each coefficient in the same order
    # at any size, so a larger build extends a smaller one float for float
    small, large = _beta_series(8, 0.25), _beta_series(16, 0.25)
    assert _bits(small) == _bits(_head(large, 8))
    assert bell_p_models(7, 0.25) is small and bell_p_models(8, 0.25) is large


def test_beta_series_stops_at_the_first_refused_order(monkeypatch):
    # zeta(i, 0.1) > 10^i: once one order leaves the float range every later
    # one does too, so a fresh series asks for no order past the first refused
    zeta, calls = logasym.zeta_em, []

    def counting(s, x, ctx):
        ev = zeta(s, x, ctx)
        calls.append((s, ev.value))
        return ev

    monkeypatch.setattr(logasym, "zeta_em", counting)
    clear_caches()
    try:
        series = _beta_series(512, -0.9)
        first = calls[-1][0]
        assert [s for s, _ in calls] == list(range(2, first + 1)) and 2 < first < 512
        # float overflows on the value before the bound of zeta_em leaves the range
        with pytest.raises(OverflowError):
            float(calls[-1][1])
        assert all(math.isfinite(float(v)) for _, v in calls[:-1])
        # the low orders are the floats of a small build, where no order is refused
        small = _beta_series(16, -0.9)
    finally:
        clear_caches()
    assert max(map(len, series.bands.values())) == 512
    assert _bits(_head(series, 16)) == _bits(small)


def test_nested_tail_sum_depth2():
    # zeta(1,2) = zeta(3) through the symbolic tail recursion
    M = 500
    S1 = Fraction(0)  # H_(n-1)
    partial = Fraction(0)
    for n in range(1, M + 1):
        partial += S1 / n**2
        S1 += Fraction(1, n)
    tail, err = nested_tail_sum([1.0, float(S1)], tail_values((1, 2), None, float(M)))
    partial = float(partial)
    z3 = float(mp.zeta(3))
    assert abs(partial + tail - z3) < 1e-15
    assert err < 1e-12


def test_nested_tail_sum_validates_lengths():
    with pytest.raises(DomainError):
        nested_tail_sum([1.0], tail_values((1, 2), None, 100.0))


def test_nested_tail_error_estimate_honest():
    # coarse cutoff: the reported estimate must cover the true remainder error
    for M in (30, 100):
        tail, err = nested_tail_sum([1.0], tail_values((2,), None, float(M)))
        partial = sum(k**-2.0 for k in range(1, M + 1))
        true_err = abs(partial + tail - math.pi**2 / 6)
        assert true_err <= err + 5e-15


@pytest.mark.parametrize("x", [-0.9, -0.5, 0.5, 40.0, 1000.5, 1e6])
def test_shifted_tail_is_the_tail_at_the_lattice_point(x):
    # sum_{n > M} (n + x)^-e is sum_{u > M + x} u^-e on the lattice u = n + x:
    # the unshifted chain at M + x, within its estimate, at any shift
    for M in (30, 100):
        for e in (2, 3):
            tail, err = nested_tail_sum([1.0], tail_values((e,), None, M + x))
            with mp.workdps(30):
                ref = mp.zeta(e, M + 1 + mp.mpf(x))
            assert abs(tail - ref) <= err + 4 * sys.float_info.epsilon * ref, (M, e)


@pytest.mark.parametrize("e, x, bell", [((1, 1, 3), 0.5, None), ((2, 1, 2), -0.5, None),
                                        ((1, 2), 0.0, (2, 0.5)), ((3,), 0.0, (1, -0.5)),
                                        ((1, 2), 0.0, (5, 0.25))])
def test_tail_chain_is_the_level_by_level_recursion(e, x, bell):
    # the memoized chain gives the floats of the plain recursion over the
    # level models, Z_q = ztail(g_q) and Z_i = ztail(g_i * Z_(i+1)), shares
    # each suffix's entries, and a sum at shift x reads it at M + x; a Bell
    # sum of order m reads order m of the chain at the next size 2^k > m
    clear_caches()
    m, key, read = 0, None, None
    models = [LogSeries({ei: [1.0]}) for ei in e]
    if bell:
        m, y = bell
        key = (1 << m.bit_length(), y)
        read = (m, y, key[0])
        models[-1] = models[-1] * bell_p_models(m, y)
    tails = [ztail(models[-1])]
    for g in reversed(models[:-1]):
        tails.append(ztail(g * tails[-1][0]))
    chain = tail_chain(e, key)
    assert len(chain) == len(e)
    for (Z, zerr), (Zr, zerr_r) in zip(chain, tails[::-1]):
        assert (Z.bands, Z.shift, zerr.bands, zerr.shift) == (Zr.bands, Zr.shift,
                                                              zerr_r.bands, zerr_r.shift)
    assert len(e) == 1 or chain[1:] == tail_chain(e[1:], key)
    # the tail of a plain power u^-e is exact: its deepest band is a kept
    # EM correction, not a truncation estimate
    U = 64 + x
    exact = [i == len(e) - 1 and not bell for i in range(len(e))]
    assert tail_values(e, read, U) == tuple(
        (Z.at(U, m)[0], zerr.at(U, m)[0] + (0.0 if plain else Z.at(U, m)[2])
         + sys.float_info.epsilon * Z.at(U, m)[1]) for (Z, zerr), plain in zip(chain, exact))


def _log_ztail(bands, shift):
    """The per-order kernel in the log-power basis, bands[k][l] the
    coefficient of ln(n)^l n^-(k + shift): the integral by
    t_l = (b_l + (l+1) t_(l+1))/(s-1), -f/2, and each derivative by
    d_l <- (l+1) d_(l+1) - (s+r-1) d_l, with the same caps as ztail."""
    cap = min(bands) - 1 + ORDER
    tail, err = {}, {}

    def add(out, k, b, scale=1.0):
        band = out.setdefault(k, [])
        band.extend([0.0] * (len(b) - len(band)))
        for j, c in enumerate(b):
            band[j] += scale * c

    for k, b in bands.items():
        if k - 1 > cap:
            continue
        n, sm1 = len(b), k - 1 + shift
        t, acc = [0.0] * n, 0.0
        for j in range(n - 1, -1, -1):
            t[j] = acc = (b[j] + (j + 1) * acc) / sm1
        add(tail, k - 1, t)
        add(tail, k, b, -0.5)
        d, e = list(b), list(map(abs, b))
        for r in range(1, ORDER):
            sr = k + r - 1 + shift
            for j in range(n - 1):
                d[j] = (j + 1) * d[j + 1] - sr * d[j]
                e[j] = (j + 1) * e[j + 1] + sr * e[j]
            d[-1] *= -sr
            e[-1] *= sr
            if r % 2 and r < ORDER - 1 and k + r <= cap:
                add(tail, k + r, d, -logasym._BERNOULLI[r + 1])
        add(err, k + ORDER - 1, e, logasym._BERNOULLI[ORDER])
    return ({k: b for k, b in tail.items() if any(b)},
            {k: b for k, b in err.items() if any(b)})


def _log_at(bands, shift, M):
    """(value, sum |terms|, sum |terms| of the deepest unit-width band) of
    a log-power series at M."""
    kmax = max(bands)
    total = size = deep = 0.0
    for k, b in bands.items():
        for j, c in enumerate(b):
            term = c * math.log(M) ** j * M ** -k * M ** -shift
            total += term
            size += abs(term)
            deep += abs(term) if k >= kmax - 1 else 0.0
    return total, size, deep


def _log_chain_values(e, m, y, U):
    """The old per-order chain: the order-m model in the log-power basis,
    b_l = c_(m-l)/l! from the z-coefficients c of B(n, 1+y-z), its tails
    level by level, and (value, error weight) of each level at U."""
    bell = _beta_series(1 << m.bit_length(), y)
    model = {e[-1] + k: [b[m - l] / math.factorial(l) for l in range(m + 1)]
             for k, b in bell.bands.items()}
    shift = bell.shift
    out = []
    for i in range(len(e) - 1, -1, -1):
        if i < len(e) - 1:
            model = {e[i] + k: b for k, b in tail.items() if k <= min(tail) + ORDER}
        tail, err = _log_ztail({k: b for k, b in model.items() if any(b)}, shift)
        z, size, deep = _log_at(tail, shift, U)
        out.append((z, _log_at(err, shift, U)[0] + deep + sys.float_info.epsilon * size))
    return out[::-1]


@pytest.mark.parametrize("y", [0.0, 0.5, -0.5, 0.25])
def test_bell_tail_orders_are_the_per_order_log_chains(y):
    # one z-form chain serves every order below its size: order m of its
    # values and error weights is the chain of the order-m model alone,
    # built in the log-power basis, within a few rounding errors
    for e in ((2,), (1, 2), (1, 1, 2)):
        for m in range(12):
            for U in (32.0, 64.0):
                got = tail_values(e, (m, y, 1 << m.bit_length()), U)
                for (z, w), (z_ref, w_ref) in zip(got, _log_chain_values(e, m, y, U)):
                    assert abs(z - z_ref) <= 1e-15 * abs(z_ref), (e, m, U)
                    assert abs(w - w_ref) <= 1e-15 * w_ref, (e, m, U)


def test_tail_chain_orders_do_not_depend_on_its_size():
    # a chain of size 8 is float for float the first 8 orders of the chain
    # of size 16, so no value depends on which size filled an entry
    for y in (0.25, 0.0):
        for e in ((2,), (1, 2), (2, 1, 1)):
            small, large = tail_chain(e, (8, y)), tail_chain(e, (16, y))
            for entry, bigger in zip(small, large):
                for series, wider in zip(entry, bigger):
                    assert _bits(series) == _bits(_head(wider, 8)), (e, y)


@pytest.mark.parametrize("y", [0.0, 0.5, -0.5, 0.25, -0.9])
def test_tail_chain_order_reads_the_same_floats_at_every_size(y):
    # order m of every entry of a Bell chain, read at U, is the same value,
    # size and deepest-band sum from every chain of size 2^k > m: the
    # deepest band is the last one with a non-zero order <= m, not the last
    # one the larger chain holds (at y = 0 the chain of (2,) at size 1 ends
    # at band 10 and at size 16 at band 13, whose orders 0..2 are zero)
    sizes = [1 << k for k in range(7)]
    for e in ((2,), (1, 2), (1, 1, 2)):
        chains = {size: tail_chain(e, (size, y)) for size in sizes}
        for U in (32.0, 32.5, 64.0):
            for m in range(sizes[-1]):
                reads = {size: [[series.at(U, m) for series in entry] for entry in chains[size]]
                         for size in sizes if size > m}
                want = repr(reads[min(reads)])
                for size, got in reads.items():
                    assert repr(got) == want, (e, U, m, size)


def test_prop2_holds_one_tail_chain_per_suffix_and_size():
    # the three PROP2 cases at 24 terms, m = 0..23, read every order from
    # the chain of size 32 of each outer suffix: 7 chains in all, from the
    # one Bell series of each of the two shifts, where the chains of sizes
    # 1, 2, .., 32 would be 27 and one chain per order and suffix 99
    from akzeta.identities import verify_all
    clear_caches()
    try:
        verify_all("PROP2")
        assert tail_chain.cache_info().currsize == 7
        assert _beta_series.cache_info().currsize == 2
    finally:
        clear_caches()
