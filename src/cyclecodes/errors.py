"""Exception types shared across the package."""


class CycleCodesError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedField(CycleCodesError):
    """Requested field cardinality is not a supported prime power."""


class DivisionByZero(CycleCodesError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(CycleCodesError):
    """Operands disagree on field or variable count."""


class ZeroPolynomial(CycleCodesError):
    """Operation requires a nonzero polynomial."""


class ZeroDivisor(CycleCodesError):
    """A divisor in multivariate division is the zero polynomial."""


class BudgetExceeded(CycleCodesError):
    """An enumeration or memory budget would be exceeded."""


class UnsupportedSpec(CycleCodesError):
    """Operation does not apply to this cycle family / field combination."""


class SingularSystem(CycleCodesError):
    """Linear system for the beta coefficients stayed singular."""


class NonIntegerBeta(CycleCodesError):
    """Beta coefficients came out non-integer; decomposition violated."""


class ParseError(CycleCodesError):
    """Malformed cycle spec text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class OddityError(ParseError):
    """Cycle length must be odd (even cycles are out of scope)."""


class CheckFailure(CycleCodesError):
    """An internal cross-check between independent routes disagreed."""
