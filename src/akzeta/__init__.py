"""High-precision evaluation of nested Euler-type sums, odd-index variants,
beta-weighted binomial series, and their Bernoulli-type polynomials, with an
identity verification catalog and a command-line interface.

The public names load lazily (PEP 562): ``import akzeta`` imports no
submodule, and each name imports its submodule on first access, so a
one-off CLI call pays only for the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "combinatorics": ("Composition", "dual", "weak_compositions", "m_coeff",
                          "admissible_compositions"),
        "errors": ("DomainError", "DivergenceError"),
        "evaluator": ("eval_hurwitz_mzv", "eval_t", "eval_li", "eval_ak_lhs",
                      "eval_ak_rhs", "eval_euler_transform", "eval_prop2_series",
                      "clear_caches"),
        "harmonic_bell": ("harmonic_table", "bell_modified", "d_operator"),
        "identities": ("IdentityCase", "IdentityReport", "catalog", "verify",
                       "verify_all"),
        "numerics": ("PrecisionContext", "DEFAULT_CTX", "Evaluation", "zeta_em",
                     "clausen", "accelerate_alternating"),
        "powerseries": ("PolyRat", "bernoulli_numbers", "classical_bernoulli_polynomial",
                        "li_series", "ak_bernoulli_polys"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
