"""Multivariate polynomials over a small finite field and the Groebner
check, whose S-pairs are reduced by a prepared divisor set.

Monomials are exponent tuples; a polynomial stores its nonzero terms
sorted in decreasing graded lexicographic order with
``t1 > t2 > ... > tn``.

The Groebner check runs on packed monomials instead, one int per
monomial, against a ``DivisorSet`` that checks and prepares the
generators once.  A monomial on n variables of total degree at most B is
one int: the total degree in the top field, then the exponents of t1,
..., tn, t1 the most significant, every field 8 * b bits wide with
b = B.bit_length() // 8 + 1.  A value up to B leaves the top bit of
its field, the guard bit, clear, so int order is the graded
lexicographic order of ``grlex_key``, ``+`` multiplies and ``-``
divides (as long as the result stays within B), and the lcm is a
field-wise max (Monagan and Pearce, Polynomial division using dynamic
arrays, heaps, and packed exponent vectors, CASC 2007).

The Groebner check takes the set it is given as a whole; groebner-check
hands it one cycle of each length (module ``ideal``).

Polynomial text form: terms in decreasing order joined by `` + `` /
`` - ``, e.g. ``t1^3*t2 - t3^2 + 1``.  A bare ``-`` stands for the
element -1, so it never appears in characteristic 2, where -1 = 1; any
other coefficient but 1 is written ``c*...``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import and_, getitem, or_

from .errors import DimensionMismatch, ZeroDivisor, ZeroPolynomial
from .gf import Field

Monomial = tuple[int, ...]


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
            c = field.add(0, coeff)  # mod p; a binary element stays
            if not 0 <= c < field.q:
                raise ValueError(
                    f"coefficient {coeff} is not an element of F_{field.q}")
            c = field.add(merged.get(mono, 0), c)
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

    @classmethod
    def binomial(cls, field: Field, plus: Monomial,
                 minus: Monomial) -> "Polynomial":
        """The difference of two monomials, t^plus - t^minus."""
        return cls(field, len(plus), [(plus, 1), (minus, field.neg(1))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise DimensionMismatch(
                "polynomials disagree on field or variable count")

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
        minus_one = self.field.neg(1)
        parts = []
        for idx, (mono, coeff) in enumerate(self.terms):
            is_const = not any(mono)
            negative = coeff == minus_one != 1
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


# -- packed monomials -----------------------------------------------------

class Packing:
    """Monomials on ``nvars`` variables of total degree at most
    ``bound``, each packed into one int; ``width`` = 8 * nbytes bits a
    field, ``guard`` the guard bits of the exponent fields."""

    __slots__ = ("nvars", "bound", "nbytes", "width", "guard", "exps",
                 "low", "top")

    def __init__(self, nvars: int, bound: int):
        b = bound.bit_length() // 8 + 1
        w = 8 * b
        self.nvars, self.bound, self.nbytes, self.width = nvars, bound, b, w
        self.low = sum(1 << k * w for k in range(nvars))
        self.exps = (1 << nvars * w) - 1
        self.guard = self.low << w - 1
        self.top = (1 << w) - 1 << max(nvars - 1, 0) * w

    def pack(self, m) -> int:
        b = self.nbytes
        return int.from_bytes(
            b"".join(e.to_bytes(b, "big") for e in (sum(m), *m)), "big")

    def unpack(self, x: int) -> tuple[int, ...]:
        b = self.nbytes
        data = x.to_bytes((self.nvars + 1) * b, "big")
        fields = data[b::b]  # the high byte of each exponent field
        for k in range(b + 1, 2 * b):
            fields = [hi << 8 | lo for hi, lo in zip(fields, data[k::b])]
        return tuple(fields)

    def lcm(self, a: int, c: int) -> int:
        """The packed lcm: a field-wise max of the exponents (a field of
        a | guard minus the same field of c keeps its guard bit exactly
        when a's exponent is the larger), then the degree field is the
        sum of the exponent fields, which one multiply gathers in the
        highest exponent field."""
        exps, guard = self.exps, self.guard
        a &= exps
        c &= exps
        ge = ((a | guard) - c) & guard
        m = c ^ (a ^ c) & ge - (ge >> self.width - 1)
        return m | (m * self.low & self.top) << self.width


# -- the Groebner check ---------------------------------------------------

class DivisorSet:
    """The nonzero generators of one Groebner check, checked and
    prepared once for all of its reductions.

    Construction checks the generators: a nonempty list, no zero
    polynomial (``ZeroDivisor``), one field and variable count
    (``DimensionMismatch``).  It indexes the leading monomials: for
    each variable v, ``exponents[v]`` holds the sorted distinct leading
    exponents at v and ``masks[v][i + 1]`` the bitset of the divisors
    whose leading exponent at v is at most ``exponents[v][i]``
    (``masks[v][0]`` is empty).  So ``dividing(m)`` is one bisect and
    one AND per variable, and the index stays small however large q
    is.  It packs, for degrees up to twice the largest leading degree,
    where every lcm of two leading monomials and every term of an
    S-polynomial fit, the leading monomials ``leads`` and each tail
    scaled by -1/lc, ``negtails``; so a reduction step inverts nothing.
    ``memo`` caches the index answers for packed monomials for the
    life of the set, that is of the check.
    """

    __slots__ = ("field", "exponents", "masks", "_all", "packing", "leads",
                 "negtails", "memo")

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
        field = self.field = first.field
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
        self.packing = Packing(first.nvars,
                               2 * max(sum(g.terms[0][0]) for g in polys))
        pack = self.packing.pack
        self.leads, self.negtails = [], []
        for g in polys:
            (lm, lc), *tail = g.terms
            neg = field.neg(field.inv(lc))
            self.leads.append(pack(lm))
            self.negtails.append([(pack(m), field.mul(c, neg))
                                  for m, c in tail])
        self.memo = {}

    def dividing(self, mono) -> int:
        """Bitset of the divisors whose leading monomial divides mono;
        its lowest set bit is the first such divisor in list order."""
        return reduce(and_, map(getitem, self.masks,
                                map(bisect_right, self.exponents, mono)),
                      self._all)

    def _lookup(self, x: int) -> int:
        """``dividing`` of the packed monomial x, through the memo."""
        hits = self.memo.get(x)
        if hits is None:
            hits = self.memo[x] = self.dividing(self.packing.unpack(x))
        return hits

    def s_pair(self, i: int, j: int, l: int) -> dict[int, int]:
        """The S-polynomial (l / LT g_i) g_i - (l / LT g_j) g_j as packed
        terms {monomial: coefficient}, l the packed lcm of their leading
        monomials: with a = l / LM g_i and b = l / LM g_j it is b times
        the scaled tail of g_j minus a times that of g_i."""
        sub = self.field.sub
        a, b = l - self.leads[i], l - self.leads[j]
        work = {m + b: c for m, c in self.negtails[j]}
        for m, c in self.negtails[i]:
            m += a
            c = sub(work.get(m, 0), c)
            if c:
                work[m] = c
            else:
                del work[m]
        return work


def multivariate_divide(work: dict[int, int],
                        dset: DivisorSet) -> dict[int, int]:
    """The remainder of work, packed terms {monomial: coefficient} of
    degree at most the set's packing bound, on division by the set's
    divisors in list order, as packed terms; work is used up.

    Each step takes the largest remaining term and, if some leading
    monomial divides it, the first such divisor, found through the
    set's lead index, and adds the term's multiple of that divisor's
    scaled tail; no term of the remainder is divisible by any leading
    monomial.  No step raises a degree, so every term stays within
    the bound.
    """
    add, mul = dset.field.add, dset.field.mul
    leads, negtails, dividing = dset.leads, dset.negtails, dset._lookup
    rem = {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        hits = dividing(mono)
        if not hits:
            rem[mono] = coeff
            continue
        i = (hits & -hits).bit_length() - 1
        qm = mono - leads[i]
        for gm, gc in negtails[i]:
            gm += qm
            c = add(work.get(gm, 0), mul(gc, coeff))
            if c:
                work[gm] = c
            else:
                del work[gm]
    return rem


def buchberger_is_groebner(gens) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero.  The
    generators must be nonzero (``ZeroPolynomial``); their
    ``DivisorSet`` checks that they share one field and variable count.

    The pairs {i, j} whose leading monomials share a variable are
    visited by increasing graded-lex lcm(LM g_i, LM g_j), ties by
    (i, j), as Gebauer and Moeller do: the pairs a chain can pass
    through have lcms dividing this one, so they come first.  A pair is
    skipped, without forming its S-polynomial, by either of
    Buchberger's two criteria:

    * its leading monomials are coprime (then S(g_i, g_j) always
      reduces to zero modulo {g_i, g_j}); these pairs count as settled
      from the start;
    * the chain criterion: some k has LM(g_k) dividing
      lcm(LM g_i, LM g_j), and both {i, k} and {j, k} are settled, that
      is coprime or visited earlier, for any such k.  A bitset per
      generator records whom it is settled with, so this is one AND of
      two such bitsets with the lead index of the lcm.

    Skipping is sound (Cox-Little-O'Shea, Ch. 2 Sec. 10): every settled
    pair is coprime, reduced to zero or skipped by a chain through
    pairs settled before it, so its S-polynomial has a representation
    whose terms all lie below the pair's lcm; since
    lcm(LM g_i, LM g_k) and lcm(LM g_j, LM g_k) divide
    lcm(LM g_i, LM g_j), S(g_i, g_j) is a monomial combination of
    S(g_i, g_k) and S(g_j, g_k) and inherits one below its own lcm.  If
    every pair has such a representation the generators form a
    Groebner basis, so the answer is the one the all-pairs check gives.

    The check runs on the packed monomials of one ``DivisorSet`` of the
    generators, whose width holds every lcm of two leading monomials.
    Each pair is one int, its packed lcm above i above j, so sorting
    the ints sorts the pairs by graded-lex lcm, ties by (i, j).  Every
    other pair's S-polynomial is built as packed terms straight from
    the set's scaled tails and reduced by ``multivariate_divide``; the
    check fails on the first nonzero remainder.  The set memoizes its
    lead index lookups for the life of the check.
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial among the generators")
    if not gens:
        return True
    dset = DivisorSet(gens)
    lcm, leads = dset.packing.lcm, dset.leads
    support = [sum(1 << v for v, e in enumerate(g.terms[0][0]) if e)
               for g in gens]
    settled = [0] * len(gens)
    k = len(gens).bit_length()
    low = (1 << k) - 1
    pairs = []
    for i, (si, lmi) in enumerate(zip(support, leads)):
        for j in range(i + 1, len(gens)):
            if si & support[j]:
                pairs.append((lcm(lmi, leads[j]) << k | i) << k | j)
            else:
                settled[i] |= 1 << j
                settled[j] |= 1 << i
    pairs.sort()
    dividing, s_pair = dset._lookup, dset.s_pair
    for key in pairs:
        l, i, j = key >> 2 * k, key >> k & low, key & low
        common = settled[i] & settled[j]
        if not (common and common & dividing(l)):
            if multivariate_divide(s_pair(i, j, l), dset):
                return False
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return True
