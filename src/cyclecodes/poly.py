"""Multivariate polynomials over a small finite field.

Monomials are exponent tuples; a polynomial stores its nonzero terms
sorted in decreasing graded lexicographic order with
``t1 > t2 > ... > tn``.

Division and the Groebner check run on packed monomials instead, one
int per monomial (module ``_packed``): the total degree in the top
field and the exponents of t1, ..., tn below it, every field 8 * b bits
wide where b = B.bit_length() // 8 + 1 for a degree bound B, so the top
bit of each field, its guard bit, stays clear.  Int order is then the
graded lexicographic order, ``+`` and ``-`` multiply and divide, and
the lcm is a field-wise max.  The Groebner check takes the set it is
given as a whole.

Polynomial text form: terms in decreasing order joined by `` + `` /
`` - ``, e.g. ``t1^3*t2 - t3^2 + 1``.  In odd characteristic a bare
``-`` stands for coefficient ``q-1``; any other non-unit coefficient is
written ``c*...``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add, and_, getitem, or_

from .errors import DimensionMismatch, ZeroDivisor, ZeroPolynomial
from .gf import Field

Monomial = tuple[int, ...]


# -- monomial helpers -----------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def grlex_key(m: Monomial):
    """Sort key: ascending under graded lex with t1 highest."""
    return (sum(m), m)


# -- polynomials ----------------------------------------------------------

class Polynomial:
    """Immutable polynomial; terms kept sorted in decreasing order."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int,
                 terms: "iter[tuple[Monomial, int]]"):
        merged: dict[Monomial, int] = {}
        for mono, coeff in terms:
            if len(mono) != nvars:
                raise DimensionMismatch(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}")
            if field.e == 1:
                coeff %= field.q
            elif not 0 <= coeff < field.q:
                raise ValueError(
                    f"coefficient {coeff} is not an element of F_{field.q}")
            c = field.add(merged.get(mono, 0), coeff)
            if c:
                merged[mono] = c
            else:
                merged.pop(mono, None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(
            self, "terms",
            tuple(sorted(merged.items(), key=lambda t: grlex_key(t[0]),
                         reverse=True)))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # constructors
    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, [])

    @classmethod
    def constant(cls, field: Field, nvars: int, c: int) -> "Polynomial":
        return cls(field, nvars, [((0,) * nvars, c)])

    @classmethod
    def binomial(cls, field: Field, plus: Monomial,
                 minus: Monomial) -> "Polynomial":
        """The difference of two monomials, t^plus - t^minus."""
        return cls(field, len(plus), [(plus, 1), (minus, field.neg(1))])

    # inspection
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def leading_term(self) -> tuple[Monomial, int]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise DimensionMismatch(
                "polynomials disagree on field or variable count")

    # arithmetic
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.field, self.nvars,
                          list(self.terms) + list(other.terms))

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, self.nvars,
                          [(m, f.neg(c)) for m, c in self.terms])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        f = self.field
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = mono_mul(ma, mb)
                out[m] = f.add(out.get(m, 0), f.mul(ca, cb))
        return Polynomial(f, self.nvars, out.items())

    # text form
    def _mono_text(self, mono: Monomial) -> str:
        names = []
        for i, e in enumerate(mono):
            if e == 0:
                continue
            name = f"t{i + 1}"
            names.append(name if e == 1 else f"{name}^{e}")
        return "*".join(names) if names else "1"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        q = self.field.q
        parts = []
        for idx, (mono, coeff) in enumerate(self.terms):
            is_const = not any(mono)
            negative = q % 2 == 1 and coeff == q - 1
            if negative and is_const:
                body = "1"
            elif negative or coeff == 1:
                body = self._mono_text(mono)
            elif is_const:
                body = str(coeff)
            else:
                body = f"{coeff}*{self._mono_text(mono)}"
            if idx == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(F{self.field.q}, {self.to_text()!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial)
                and self.field == other.field
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.field.q, self.nvars, self.terms))


# -- division and Groebner machinery --------------------------------------

class DivisorSet:
    """An ordered list of nonzero divisors with an index of their
    leading monomials, built once and shared by many divisions.

    Construction checks what ``multivariate_divide`` needs: a nonempty
    list, no zero polynomial (``ZeroDivisor``), one field and variable
    count (``DimensionMismatch``).  The index holds, for each variable
    v, the sorted distinct leading exponents at v (``exponents[v]``)
    and, in ``masks[v][i + 1]``, the bitset of the divisors whose
    leading exponent at v is at most ``exponents[v][i]``; ``masks[v][0]``
    is the empty set.  A leading monomial divides m exactly when its
    exponent at every v is at most m[v], so ``dividing(m)`` is one
    bisect and one AND per variable.  Only exponents that occur are
    indexed, so the index stays small however large q is.

    The set also packs its divisors once, each monomial one int, at
    the field width for twice the largest leading degree: every lcm of
    two leading monomials fits, and so does every term of an
    S-polynomial.
    """

    __slots__ = ("field", "nvars", "polys", "exponents", "masks", "_all",
                 "_packed")

    def __init__(self, divisors):
        polys = tuple(divisors)
        if not polys:
            raise ZeroDivisor("need at least one divisor")
        first = polys[0]
        for g in polys:
            if g.field is not first.field or g.nvars != first.nvars:
                first._check_compatible(g)
            if not g.terms:
                raise ZeroDivisor("zero polynomial among the divisors")
        self.field, self.nvars, self.polys = first.field, first.nvars, polys
        exponents, masks = [], []
        for column in zip(*(g.terms[0][0] for g in polys)):
            at: dict[int, int] = {}  # exponent -> divisors with it
            for k, e in enumerate(column):
                at[e] = at.get(e, 0) | 1 << k
            row = sorted(at)
            exponents.append(tuple(row))
            masks.append(tuple(accumulate((at[e] for e in row), or_,
                                          initial=0)))
        self.exponents, self.masks = tuple(exponents), tuple(masks)
        self._all = (1 << len(polys)) - 1
        from ._packed import PackedDivisors
        self._packed = PackedDivisors(
            self.field, self.nvars, polys, (self.exponents, self.masks,
                                            self._all),
            2 * max(sum(g.terms[0][0]) for g in polys))

    def dividing(self, mono: Monomial) -> int:
        """Bitset of the divisors whose leading monomial divides mono;
        its lowest set bit is the first such divisor in list order."""
        return _dividing(self.exponents, self.masks, self._all, mono)


def _dividing(exponents, masks, every: int, mono) -> int:
    """The lead index lookup of ``DivisorSet.dividing``."""
    return reduce(and_, map(getitem, masks, map(bisect_right, exponents,
                                                mono)), every)


def multivariate_divide(f: Polynomial, divisors) -> tuple[list[Polynomial],
                                                          Polynomial]:
    """Divide f by an ordered list of polynomials, given as a sequence
    or as a prepared ``DivisorSet``.

    Returns (quotients, remainder) with
    ``f = sum(q_i * g_i) + r`` and no term of r divisible by any
    leading monomial of the divisors.  Each step divides the largest
    remaining term by the first divisor in list order whose leading
    monomial divides it, found through the set's lead index.  Divisors
    that receive no quotient term share one zero quotient.

    The division runs on the set's packed divisors; a dividend of
    degree above the set's bound is packed, with the divisors for this
    call only, at the wider width its degree needs.  The results keep
    their terms packed until ``terms`` is read.
    """
    dset = divisors if isinstance(divisors, DivisorSet) else \
        DivisorSet(divisors)
    if f.field is not dset.field or f.nvars != dset.nvars:
        f._check_compatible(dset.polys[0])
    return dset._packed.divide(f)


def buchberger_is_groebner(gens) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero.

    Only the S-pairs that the coprime and chain criteria leave are
    reduced; module ``_packed`` holds the check and the reasons it
    gives the all-pairs answer.
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial among the generators")
    if not gens:
        return True
    first = gens[0]
    for g in gens:
        if g.field is not first.field or g.nvars != first.nvars:
            first._check_compatible(g)
    from ._packed import is_groebner
    return is_groebner(gens)
