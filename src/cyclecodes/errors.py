"""Exception types shared across the package."""


class CycleCodesError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedField(CycleCodesError):
    """Requested field cardinality is not a supported prime power."""


class DivisionByZero(CycleCodesError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(CycleCodesError):
    """Operands disagree on variable count or coordinate length."""


class ZeroCoordinate(CycleCodesError):
    """A coordinate that must be a unit is zero."""


class ZeroPolynomial(CycleCodesError):
    """Operation requires a nonzero polynomial."""


class ZeroDivisor(CycleCodesError):
    """A divisor in multivariate division is the zero polynomial."""


class SupportsNotDisjoint(CycleCodesError):
    """Binomial operation requires monomials with disjoint supports."""


class BudgetExceeded(CycleCodesError):
    """An enumeration or memory budget would be exceeded."""


class UnsupportedSpec(CycleCodesError):
    """Operation does not apply to this cycle family / field combination."""


class SingularSystem(CycleCodesError):
    """Linear system for the beta coefficients stayed singular."""


class NonIntegerBeta(CycleCodesError):
    """Beta coefficients came out non-integer; decomposition violated."""


class ParseError(CycleCodesError):
    """Malformed textual input (polynomial or cycle spec grammar)."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class OddityError(ParseError):
    """Cycle length must be odd (even cycles are out of scope)."""


class CheckFailure(CycleCodesError):
    """An internal cross-check between independent routes disagreed."""
