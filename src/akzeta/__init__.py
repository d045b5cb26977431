"""High-precision evaluation of nested Euler-type sums, odd-index variants,
beta-weighted binomial series, and their Bernoulli-type polynomials, with an
identity verification catalog and a command-line interface."""

from .combinatorics import (Composition, dual, weak_compositions, m_coeff,
                            admissible_compositions)
from .errors import DomainError, DivergenceError
from .evaluator import (eval_hurwitz_mzv, eval_t, eval_li, eval_ak_lhs,
                        eval_ak_rhs, eval_euler_transform, eval_prop2_series,
                        clear_caches)
from .harmonic_bell import (HarmonicTable, harmonic_table, bell_modified,
                            d_operator)
from .identities import (IdentityCase, IdentityReport, catalog, verify,
                         verify_all)
from .numerics import (PrecisionContext, DEFAULT_CTX, Evaluation, zeta_em,
                       clausen, accelerate_alternating)
from .powerseries import (PolyRat, TruncSeries, bernoulli_numbers,
                          classical_bernoulli_polynomial, li_series,
                          ak_bernoulli_polys)

__version__ = "0.1.0"

__all__ = [
    "Composition", "dual", "weak_compositions", "m_coeff",
    "admissible_compositions",
    "DomainError", "DivergenceError",
    "eval_hurwitz_mzv", "eval_t", "eval_li", "eval_ak_lhs", "eval_ak_rhs",
    "eval_euler_transform", "eval_prop2_series", "clear_caches",
    "HarmonicTable", "harmonic_table", "bell_modified", "d_operator",
    "IdentityCase", "IdentityReport", "catalog", "verify", "verify_all",
    "PrecisionContext", "DEFAULT_CTX", "Evaluation", "zeta_em", "clausen",
    "accelerate_alternating",
    "PolyRat", "TruncSeries", "bernoulli_numbers",
    "classical_bernoulli_polynomial", "li_series", "ak_bernoulli_polys",
    "__version__",
]
