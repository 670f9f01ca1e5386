"""Pure-difference binomials and the Groebner check of a set of them,
whose S-pairs are reduced by a prepared divisor set.

Monomials are exponent tuples, ordered by graded lexicographic order
with ``t1 > t2 > ... > tn`` (``grlex_key``).  A ``Binomial`` is
t^lead - t^tail with lead above tail.  Every generator of the vanishing
ideal is one (module ``ideal``), and Buchberger's algorithm on such
binomials only ever forms such binomials (Eisenbud and Sturmfels,
Binomial ideals, Duke Math. J. 84, 1996): an S-pair is the difference
of two monomials, and a reduction step rewrites one monomial into
another.  So the check carries no coefficients and needs no field.

The Groebner check runs on packed monomials, one int per monomial,
against a ``DivisorSet`` that checks and prepares the generators once.
A monomial on n variables of total degree at most B is one int: the
total degree in the top field, then the exponents of t1, ..., tn, t1
the most significant, every field 8 * b bits wide with
b = B.bit_length() // 8 + 1.  A value up to B leaves the top bit of
its field, the guard bit, clear, so int order is the graded
lexicographic order of ``grlex_key``, ``+`` multiplies and ``-``
divides (as long as the result stays within B), and the lcm is a
field-wise max (Monagan and Pearce, Polynomial division using dynamic
arrays, heaps, and packed exponent vectors, CASC 2007).

The Groebner check takes the set it is given as a whole; groebner-check
hands it one cycle of each length (module ``ideal``).

Binomial text form: ``lead - tail``, each monomial its ``*``-joined
factors ``ti`` or ``ti^e``, a constant ``1``, e.g. ``t1^2*t2^2 - t3^2``
or ``t1^4 - 1``; over a field of characteristic 2, where -1 = 1,
``lead + tail``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import reduce
from itertools import accumulate
from operator import and_, getitem, or_

from .errors import DimensionMismatch

Monomial = tuple[int, ...]


def grlex_key(m: Monomial):
    """Sort key: ascending under graded lex with t1 highest."""
    return (sum(m), m)


def _mono_text(mono: Monomial, offset: int) -> str:
    names = [f"t{i}" if e == 1 else f"t{i}^{e}"
             for i, e in enumerate(mono, offset + 1) if e]
    return "*".join(names) or "1"


class Binomial(namedtuple("Binomial", "lead tail")):
    """The binomial t^lead - t^tail: two exponent tuples of one length,
    lead above tail in graded lex (``DimensionMismatch``, or
    ``ValueError`` for a pair in the wrong order or equal, which would
    be the zero polynomial)."""

    __slots__ = ()

    def __new__(cls, lead: Monomial, tail: Monomial) -> Binomial:
        lead, tail = tuple(lead), tuple(tail)
        if len(lead) != len(tail):
            raise DimensionMismatch(
                f"monomials {lead} and {tail} differ in variable count")
        if grlex_key(lead) <= grlex_key(tail):
            raise ValueError(
                f"leading monomial {lead} is not above {tail} in grlex")
        return super().__new__(cls, lead, tail)

    def to_text(self, q: int, offset: int = 0) -> str:
        """The text form over F_q: ``lead - tail``, or ``lead + tail``
        for even q, with each variable ti written t(i + offset)."""
        lead, tail = (_mono_text(m, offset) for m in self)
        return f"{lead} {'+' if q % 2 == 0 else '-'} {tail}"


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
    """The binomials of one Groebner check, checked and prepared once
    for all of its reductions.

    Construction checks the binomials: a nonempty list (``ValueError``)
    of one variable count (``DimensionMismatch``).  It indexes the
    leading monomials: for each variable v, ``exponents[v]`` holds the
    sorted distinct leading exponents at v and ``masks[v][i + 1]`` the
    bitset of the divisors whose leading exponent at v is at most
    ``exponents[v][i]`` (``masks[v][0]`` is empty).  So ``dividing(m)``
    is one bisect and one AND per variable, and the index stays small
    however large q is.  It packs, for degrees up to twice the largest
    leading degree, where every lcm of two leading monomials and every
    monomial of an S-pair fit, the leading monomials ``leads`` and the
    trailing ones ``tails``.  ``memo`` caches the index answers for
    packed monomials for the life of the set, that is of the check.
    """

    __slots__ = ("exponents", "masks", "_all", "packing", "leads", "tails",
                 "memo")

    def __init__(self, divisors):
        gens = tuple(divisors)
        if not gens:
            raise ValueError("need at least one divisor")
        nvars = len(gens[0].lead)
        if any(len(g.lead) != nvars for g in gens):
            raise DimensionMismatch("binomials disagree on variable count")
        exponents, masks = [], []
        for column in zip(*(g.lead for g in gens)):
            at: dict[int, int] = {}  # exponent -> divisors with it
            for k, e in enumerate(column):
                at[e] = at.get(e, 0) | 1 << k
            row = sorted(at)
            exponents.append(tuple(row))
            masks.append(tuple(accumulate((at[e] for e in row), or_,
                                          initial=0)))
        self.exponents, self.masks = tuple(exponents), tuple(masks)
        self._all = (1 << len(gens)) - 1
        self.packing = Packing(nvars, 2 * max(sum(g.lead) for g in gens))
        pack = self.packing.pack
        self.leads = [pack(g.lead) for g in gens]
        self.tails = [pack(g.tail) for g in gens]
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


def multivariate_divide(work: tuple[int, int],
                        dset: DivisorSet) -> tuple[int, ...]:
    """The remainder of the binomial t^x - t^y, work = (x, y) two packed
    monomials of degree at most the set's packing bound, on division by
    the set's divisors in list order: () when it is zero, else its two
    packed monomials, the larger first.

    Division takes the larger monomial and, if some leading monomial
    divides it, rewrites it by the first such divisor, found through
    the set's lead index, x += tails[i] - leads[i]; the coefficients
    stay 1 and -1.  Each monomial so walks its own chain, which depends
    on the monomial alone, and the two cancel exactly when their chains
    meet; past the first monomial that no leading monomial divides they
    never do, and the other one is reduced on.  No step raises a
    degree, so every monomial stays within the bound.
    """
    leads, tails, dividing = dset.leads, dset.tails, dset._lookup
    x, y = work
    while x != y:
        if x < y:
            x, y = y, x
        hits = dividing(x)
        if not hits:
            while hits := dividing(y):
                i = (hits & -hits).bit_length() - 1
                y += tails[i] - leads[i]
            return x, y
        i = (hits & -hits).bit_length() - 1
        x += tails[i] - leads[i]
    return ()


def buchberger_is_groebner(gens) -> bool:
    """Buchberger's criterion: every S-pair of the binomials reduces to
    zero.  Their ``DivisorSet`` checks that they share one variable
    count.

    The pairs {i, j} whose leading monomials share a variable are
    visited by increasing graded-lex lcm(LM g_i, LM g_j), ties by
    (i, j), as Gebauer and Moeller do: the pairs a chain can pass
    through have lcms dividing this one, so they come first.  A pair is
    skipped, without forming its S-pair, by either of Buchberger's two
    criteria:

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
    generators, whose width holds every lcm l of two leading monomials.
    Each pair is one int, its packed lcm above i above j, so sorting
    the ints sorts the pairs by graded-lex lcm, ties by (i, j).  The
    S-pair (l / LM g_i) g_i - (l / LM g_j) g_j is the binomial of the
    packed monomials l - lead_j + tail_j and l - lead_i + tail_i, and
    ``multivariate_divide`` reduces it; the check fails on the first
    nonzero remainder.  The set memoizes its lead index lookups for the
    life of the check.
    """
    gens = list(gens)
    if not gens:
        return True
    dset = DivisorSet(gens)
    lcm, leads, tails = dset.packing.lcm, dset.leads, dset.tails
    support = [sum(1 << v for v, e in enumerate(g.lead) if e) for g in gens]
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
    dividing = dset._lookup
    for key in pairs:
        l, i, j = key >> 2 * k, key >> k & low, key & low
        common = settled[i] & settled[j]
        if not (common and common & dividing(l)):
            if multivariate_divide((l - leads[j] + tails[j],
                                    l - leads[i] + tails[i]), dset):
                return False
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return True
