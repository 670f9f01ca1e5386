"""Exception types shared across the package, the budget check, and
the decimal text of an exact count."""

import sys
from functools import cache
from math import prod


class CycleCodesError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedField(CycleCodesError):
    """Requested field cardinality is not a supported prime power."""


class DimensionMismatch(CycleCodesError):
    """Operands disagree on variable count."""


def decimal_text(n: int) -> str:
    """str(n) in subquadratic time, with no limit on its digits: n is
    split into binary halves, n = lo + hi * 2^half, and joined by the
    stdlib decimal module's fast products, as CPython 3.12's _pylong
    does.  A small n is str(n), well below the digits that int -> str
    allows by default."""
    if n.bit_length() <= 8192:
        return str(n)
    import decimal

    @cache
    def power(w):  # 2^w
        return (decimal.Decimal(2) ** w if w <= 1024
                else power(w >> 1) * power(w - (w >> 1)))

    def convert(n, w):  # n of about w bits
        if w <= 1024:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) \
            + convert(hi, w - half) * power(half)

    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC,
                                              Emax=decimal.MAX_EMAX)):
        return str(convert(n, n.bit_length()))


class BudgetExceeded(CycleCodesError):
    """A stage would need ``needed`` units of ``unit``, more than it is
    ``allowed``: the budget, sys.maxsize past what one array can index,
    or the text 2^_EXACT_BITS past any count that is formed.  ``needed``
    is a count or the text of a lower bound (refuse_past_bits,
    refuse_beyond).  Its text is made when read, by decimal_text, so any
    count reads in subquadratic time and still raises BudgetExceeded."""

    def __init__(self, stage: str, needed: int, unit: str, allowed: int):
        super().__init__(stage, needed, unit, allowed)
        self.stage, self.needed, self.unit, self.allowed = self.args

    def __str__(self) -> str:
        limit = ("more than one array can index" if self.allowed == sys.maxsize
                 else f"budget is {self.allowed}"
                 if isinstance(self.allowed, int)
                 else f"limit is {self.allowed}")
        needed = (self.needed if isinstance(self.needed, str)
                  else decimal_text(self.needed))
        return f"{self.stage} needs {needed} {self.unit}, {limit}"


def check_budget(stage: str, needed: int, unit: str, budget: int) -> None:
    """Raise BudgetExceeded, before ``stage`` does its work, when it
    needs more than ``budget`` units or more than one array can index."""
    if needed > budget:
        raise BudgetExceeded(stage, needed, unit, budget)
    if needed > sys.maxsize:
        raise BudgetExceeded(stage, needed, unit, sys.maxsize)


# Most bits of a lower bound for which check_product_budget forms the
# product: about 2.5 million digits, which decimal_text writes in seconds.
_EXACT_BITS = 1 << 23


def refuse_past_bits(stage: str, factors, unit: str) -> int:
    """Raise BudgetExceeded when the product of c^m over the pairs (c, m)
    of factors, every c >= 1, is at least 2^N with N past _EXACT_BITS,
    N the sum of m * (bit_length(c) - 1): read off the bit lengths, no
    power formed.  No budget lifts that limit, so the refusal names it,
    2^_EXACT_BITS, and the bound; returns N."""
    low = sum(m * (c.bit_length() - 1) for c, m in factors)
    if low > _EXACT_BITS:
        raise BudgetExceeded(stage, f"at least 2^{low}", unit,
                             f"2^{_EXACT_BITS}")
    return low


def refuse_beyond(stage: str, bits: int, unit: str, budget: int) -> None:
    """Raise BudgetExceeded, naming the budget, when work of at least
    2^bits units passes it by 64 bits or more: it is not counted."""
    if bits >= budget.bit_length() + 64:
        raise BudgetExceeded(stage, f"at least 2^{bits}", unit, budget)


def check_product_budget(stage: str, factors, unit: str, budget: int) -> int:
    """The product of c^m over the pairs (c, m) of factors, after
    refuse_past_bits, refuse_beyond and then check_budget."""
    refuse_beyond(stage, refuse_past_bits(stage, factors, unit), unit, budget)
    total = prod(c ** m for c, m in factors)
    check_budget(stage, total, unit, budget)
    return total


class UnsupportedSpec(CycleCodesError):
    """Operation does not apply to this cycle family / field combination."""


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
