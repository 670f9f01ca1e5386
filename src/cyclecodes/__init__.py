"""Vanishing ideals, Hilbert functions and evaluation codes of point
sets parameterized by disjoint unions of odd cycles over small finite
fields, with every closed form cross-checked against brute force.

The names in ``_LAZY`` are loaded on first access, each with its
module: those of codes (numpy) and of ideal and poly (the polynomials).
So importing the package, or a command that counts without polynomials
or arrays, loads none of those modules.
"""

from .cyclegraph import (
    CycleFamilySpec,
    ToricSet,
    cardinality_formula,
    enumerate_toric_set,
    enumerated_cardinality,
    gamma_of,
    parse_spec_string,
)
from .errors import (
    BudgetExceeded,
    CheckFailure,
    CycleCodesError,
    DimensionMismatch,
    DivisionByZero,
    OddityError,
    ParseError,
    UnsupportedField,
    UnsupportedSpec,
    ZeroDivisor,
    ZeroPolynomial,
)
from .gf import Field, field_new
from .hilbert import (
    BetaDecomposition,
    count_box_degree,
    degenerate_torus_at,
    footprint_at,
    regularity_bruteforce,
    regularity_formula,
    solve_betas,
    union_at,
)

__version__ = "0.1.0"

# name -> the module that defines it; a module's own name is the module
_LAZY = {
    **dict.fromkeys(("codes", "CodeParams", "EvaluationMatrix",
                     "build_evaluation_matrix", "character_at", "code_params",
                     "monomial_basis", "rank_at", "singleton_check"),
                    "codes"),
    **dict.fromkeys(("ideal", "GeneratorSet", "build_generators"), "ideal"),
    **dict.fromkeys(("poly", "DivisorSet", "Monomial", "Polynomial",
                     "buchberger_is_groebner", "grlex_key",
                     "multivariate_divide"), "poly"),
}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)
