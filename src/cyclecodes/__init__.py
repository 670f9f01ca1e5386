"""Vanishing ideals, Hilbert functions and evaluation codes of point
sets parameterized by disjoint unions of odd cycles over small finite
fields, with every closed form cross-checked against brute force.

The names of the codes module are loaded on first access, so importing
the package, or a command that builds no array, does not import numpy.
``DivisorSet`` is loaded on first access too, with module ``_packed``,
which only division needs.
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
from .ideal import GeneratorSet, build_generators
from .poly import (
    Monomial,
    Polynomial,
    buchberger_is_groebner,
    grlex_key,
    multivariate_divide,
)

__version__ = "0.1.0"

_CODES_NAMES = frozenset({
    "CodeParams",
    "EvaluationMatrix",
    "build_evaluation_matrix",
    "character_at",
    "code_params",
    "monomial_basis",
    "rank_at",
    "singleton_check",
})

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["codes", "DivisorSet", *_CODES_NAMES])


def __getattr__(name):
    if name in _CODES_NAMES:
        from . import codes

        return getattr(codes, name)
    if name == "DivisorSet":
        from ._packed import DivisorSet

        return DivisorSet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
