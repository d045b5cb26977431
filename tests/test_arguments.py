"""Every public function takes its numbers through ``errors.integer``,
``errors.real`` or ``errors.rational``, so a bad one fails with DomainError."""

import importlib
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import akzeta
from akzeta.combinatorics import (Composition, admissible_compositions, binomial,
                                  weak_compositions)
from akzeta.errors import DomainError, integer, rational, real
from akzeta.evaluator import (eval_ak_lhs, eval_ak_rhs, eval_euler_transform, eval_hurwitz_mzv,
                              eval_li, eval_prop2_series, zeta_combination)
from akzeta.harmonic_bell import bell_modified, d_operator, harmonic_table
from akzeta.numerics import (PrecisionContext, accelerate_alternating, beta_factor_exact,
                             clausen, zeta_em)
from akzeta.powerseries import (PolyRat, ak_bernoulli_polys, bernoulli_numbers,
                                bernoulli_over_factorial, classical_bernoulli_polynomial,
                                li_series, series_inverse)

INTEGER = (2.5, True)
REAL = (math.nan, math.inf, "0.5", 0.5 + 1j)
RATIONAL = (0.5, math.nan)
V = Composition.of(1, 2)

# (callable, parameter, its bad values, the call with that parameter set to v)
ARGUMENTS = [
    (Composition, "parts", INTEGER, lambda v: Composition((v, 2))),
    (binomial, "n", INTEGER, lambda v: binomial(v, 1)),
    (binomial, "k", INTEGER, lambda v: binomial(4, v)),
    (weak_compositions, "m", INTEGER, lambda v: list(weak_compositions(v, 2))),
    (weak_compositions, "k", INTEGER, lambda v: list(weak_compositions(3, v))),
    (admissible_compositions, "max_weight", INTEGER, lambda v: list(admissible_compositions(v))),
    (harmonic_table, "N", INTEGER, lambda v: harmonic_table(v, 1, 0)),
    (harmonic_table, "m", INTEGER, lambda v: harmonic_table(3, v, 0)),
    (harmonic_table, "x", RATIONAL, lambda v: harmonic_table(3, 1, v)),
    (d_operator, "n", INTEGER, lambda v: d_operator(v, 1, 0)),
    (d_operator, "s", INTEGER, lambda v: d_operator(3, v, 0)),
    (d_operator, "x", RATIONAL, lambda v: d_operator(3, 2, v)),
    (bell_modified, "x_values", RATIONAL, lambda v: bell_modified([v, Fraction(1, 4)])),
    (PolyRat, "coeffs", RATIONAL, lambda v: PolyRat([1, v])),
    (PolyRat.__call__, "x", RATIONAL, lambda v: PolyRat([1, 2])(v)),
    (series_inverse, "f", RATIONAL, lambda v: series_inverse([v, 1])),
    (bernoulli_over_factorial, "k", INTEGER, bernoulli_over_factorial),
    (bernoulli_numbers, "M", INTEGER, bernoulli_numbers),
    (classical_bernoulli_polynomial, "m", INTEGER, classical_bernoulli_polynomial),
    (li_series, "M", INTEGER, lambda v: li_series(V, v)),
    (ak_bernoulli_polys, "p", RATIONAL, lambda v: ak_bernoulli_polys(V, v, 2)),
    (ak_bernoulli_polys, "m_max", INTEGER, lambda v: ak_bernoulli_polys(V, 1, v)),
    (PrecisionContext, "digits", INTEGER, lambda v: PrecisionContext(digits=v)),
    (PrecisionContext, "default_cutoff", INTEGER, lambda v: PrecisionContext(default_cutoff=v)),
    (beta_factor_exact, "n", INTEGER, lambda v: beta_factor_exact(v, 0)),
    (beta_factor_exact, "x", RATIONAL, lambda v: beta_factor_exact(3, v)),
    (zeta_em, "s", REAL, lambda v: zeta_em(v)),
    (zeta_em, "x", REAL, lambda v: zeta_em(2, v)),
    (clausen, "order", INTEGER, lambda v: clausen(v, 1.0)),
    (clausen, "theta", REAL, lambda v: clausen(2, v)),
    (accelerate_alternating, "F", INTEGER, lambda v: accelerate_alternating(lambda k: 1, v)),
    (eval_hurwitz_mzv, "x", REAL, lambda v: eval_hurwitz_mzv((2,), v)),
    (eval_li, "z", REAL, lambda v: eval_li((2,), v)),
    (eval_ak_lhs, "p", REAL, lambda v: eval_ak_lhs((1,), v, 0, 0)),
    (eval_ak_lhs, "m", INTEGER, lambda v: eval_ak_lhs((1,), 2, v, 0)),
    (eval_ak_lhs, "x", REAL, lambda v: eval_ak_lhs((1,), 2, 0, v)),
    (eval_ak_rhs, "m", INTEGER, lambda v: eval_ak_rhs((1,), v, 0)),
    (eval_ak_rhs, "x", REAL, lambda v: eval_ak_rhs((1,), 1, v)),
    (zeta_combination, "m", INTEGER, lambda v: zeta_combination((1,), v, eval_hurwitz_mzv)),
    (eval_euler_transform, "p", REAL, lambda v: eval_euler_transform(v, 1, 0)),
    (eval_euler_transform, "s", INTEGER, lambda v: eval_euler_transform(3, v, 0)),
    (eval_euler_transform, "x", REAL, lambda v: eval_euler_transform(3, 1, v)),
    (eval_prop2_series, "x", REAL, lambda v: eval_prop2_series((2,), v, 0.25, 4)),
    (eval_prop2_series, "z", REAL, lambda v: eval_prop2_series((2,), 0.5, v, 4)),
    (eval_prop2_series, "m_terms", INTEGER, lambda v: eval_prop2_series((2,), 0.5, 0.25, v)),
]


@pytest.mark.parametrize("call, v", [
    pytest.param(call, v, id=f"{fn.__name__}-{param}-{v!r}")
    for fn, param, bad, call in ARGUMENTS for v in bad])
def test_bad_argument_raises_domain_error(call, v):
    with pytest.raises(DomainError):
        call(v)


def test_every_public_number_parameter_has_a_row():
    # a new public function that takes an int or a float needs a row above,
    # which fails unless it checks that argument through errors
    covered = {(fn, param) for fn, param, _, _ in ARGUMENTS}
    numeric = set()
    for name, module in akzeta._EXPORTS.items():
        fn = getattr(importlib.import_module(f"akzeta.{module}"), name)
        if inspect.isfunction(fn):
            numeric.update((fn, p.name) for p in inspect.signature(fn).parameters.values()
                           if p.annotation in ("int", "float"))
    assert (eval_ak_lhs, "m") in numeric
    missing = sorted(f"{fn.__name__}({param})" for fn, param in numeric - covered)
    assert not missing, f"public number parameters with no bad-input row: {missing}"


def test_each_check_normalizes_what_it_accepts():
    for v in (3, 3.0, np.int64(3), Fraction(3)):
        assert type(integer(v, 1, "n")) is int and integer(v, 1, "n") == 3
    assert integer(-4, None, "s") == -4
    assert Composition((2.0, np.int64(3))).parts == (2, 3)
    assert PrecisionContext(digits=30.0) == PrecisionContext(digits=30)
    assert ak_bernoulli_polys(V, 2, 3.0) == ak_bernoulli_polys(V, 2, 3)
    for v in (0.25, Fraction(1, 4), np.float64(0.25)):
        assert type(real(v, "x")) is float and real(v, "x", above=-1) == 0.25
    assert rational(2, "x") == Fraction(2) and rational(Fraction(1, 3), "x") == Fraction(1, 3)
    assert type(rational(2, "x")) is Fraction and type(rational(Fraction(2), "x")) is Fraction
    # the bounds are strict, and an int past the float range is no finite real
    for call in (lambda: integer(0, 1, "n"), lambda: real(-1, "x", above=-1),
                 lambda: rational(-1, "x", above=-1), lambda: real(10**400, "x")):
        with pytest.raises(DomainError):
            call()
