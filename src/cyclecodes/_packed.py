"""Packed monomials, the one division loop behind
``poly.multivariate_divide``, and the Groebner check behind
``poly.buchberger_is_groebner``.

A monomial on n variables of total degree at most B is one int: the
total degree in the top field, then the exponents of t1, ..., tn, t1
the most significant, every field 8 * b bits wide with
b = B.bit_length() // 8 + 1.  A value up to B leaves the top bit of
its field, the guard bit, clear, so int order is the graded
lexicographic order of ``poly.grlex_key``, ``+`` multiplies and ``-``
divides (as long as the result stays within B), and the lcm is a
field-wise max (Monagan and Pearce, Polynomial division using dynamic
arrays, heaps, and packed exponent vectors, CASC 2007).

The check takes the set it is given as a whole; groebner-check hands
it one cycle of each length (module ``ideal``).

``poly`` imports this module when it first builds a ``DivisorSet``
or checks a Groebner basis, so commands that do neither do not load
it.
"""

from __future__ import annotations

from . import poly
from .poly import Polynomial, _dividing


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


class PackedPolynomial(Polynomial):
    """A polynomial held as a dict of packed terms, ``packed``; its
    ``terms`` are unpacked, in decreasing order, when first read."""

    __slots__ = ("packing", "packed", "_unpacked")

    def __init__(self, field, nvars: int, packing: Packing,
                 packed: dict[int, int]):
        init = object.__setattr__  # Polynomial refuses plain assignment
        init(self, "field", field)
        init(self, "nvars", nvars)
        init(self, "packing", packing)
        init(self, "packed", packed)
        init(self, "_unpacked", None)

    @property
    def terms(self):
        if self._unpacked is None:
            unpack = self.packing.unpack
            object.__setattr__(self, "_unpacked", tuple(
                (unpack(m), c)
                for m, c in sorted(self.packed.items(), reverse=True)))
        return self._unpacked


class PackedDivisors:
    """The divisors of a ``poly.DivisorSet`` packed once for degrees up
    to ``bound``: leading monomials, leading coefficients lc, and each
    tail scaled by -1/lc.  ``index`` is the set's lead index
    (exponents, masks, every divisor), which answers a packed monomial
    once it is unpacked.  Holding the index and the divisors, not the
    set, keeps the set and its packed divisors free of a reference
    cycle, so reference counting frees them when a check ends.

    ``memo``, if not None, caches those answers.  Only the set that one
    Groebner check builds for itself keeps a memo, so it is freed with
    the check.  A plain division would gain nothing from one: each step
    adds only terms below its pivot, so no monomial is looked up twice.
    """

    __slots__ = ("field", "nvars", "polys", "index", "packing", "leads",
                 "lcs", "negtails", "zero", "memo")

    def __init__(self, field, nvars: int, polys, index, bound: int):
        self.field, self.nvars, self.polys, self.index = (field, nvars,
                                                          polys, index)
        self.packing = Packing(nvars, bound)
        pack = self.packing.pack
        self.leads, self.lcs, self.negtails = [], [], []
        for g in polys:
            (lm, lc), *tail = g.terms
            neg = field.neg(field.inv(lc))
            self.leads.append(pack(lm))
            self.lcs.append(lc)
            self.negtails.append([(pack(m), field.mul(c, neg))
                                  for m, c in tail])
        self.zero = PackedPolynomial(field, nvars, self.packing, {})
        self.memo = None

    def dividing(self, x: int) -> int:
        """``DivisorSet.dividing`` of the packed monomial x."""
        memo = self.memo
        hits = None if memo is None else memo.get(x)
        if hits is None:
            hits = _dividing(*self.index, self.packing.unpack(x))
            if memo is not None:
                memo[x] = hits
        return hits

    def s_pair(self, i: int, j: int, l: int) -> PackedPolynomial:
        """The S-polynomial (l / LT g_i) g_i - (l / LT g_j) g_j, l the
        packed lcm of their leading monomials: with a = l / LM g_i and
        b = l / LM g_j it is b times the scaled tail of g_j minus a
        times that of g_i."""
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
        return PackedPolynomial(self.field, self.nvars, self.packing, work)

    def divide(self, f: Polynomial):
        """The quotients and remainder of ``poly.multivariate_divide``,
        for f of the divisors' field and variable count.  A dividend
        already packed at this width, as the check's S-pairs are, is
        divided as it is.  Any other is packed, at a wider width if its
        degree exceeds the bound; no term of the division has a degree
        above f's."""
        packed = self
        if isinstance(f, PackedPolynomial) and f.packing is self.packing:
            work = dict(f.packed)
        else:
            if f.degree() > self.packing.bound:
                packed = PackedDivisors(self.field, self.nvars, self.polys,
                                        self.index, f.degree())
            pack = packed.packing.pack
            work = {pack(m): c for m, c in f.terms}
        field, nvars, packing, zero = (self.field, self.nvars,
                                       packed.packing, packed.zero)
        add, mul, div = field.add, field.mul, field.div
        leads, lcs, negtails = packed.leads, packed.lcs, packed.negtails
        dividing = packed.dividing
        quotients: dict[int, dict[int, int]] = {}
        rem = {}
        # divide the largest term by the first divisor whose leading
        # monomial divides it and add the quotient term times that
        # divisor's scaled tail
        while work:
            mono = max(work)
            coeff = work.pop(mono)
            hits = dividing(mono)
            if not hits:
                rem[mono] = coeff
                continue
            i = (hits & -hits).bit_length() - 1
            qm = mono - leads[i]
            quotients.setdefault(i, {})[qm] = div(coeff, lcs[i])
            for gm, gc in negtails[i]:
                gm += qm
                c = add(work.get(gm, 0), mul(gc, coeff))
                if c:
                    work[gm] = c
                else:
                    del work[gm]
        qs = [zero] * len(self.polys)
        for i, terms in quotients.items():
            qs[i] = PackedPolynomial(field, nvars, packing, terms)
        return qs, PackedPolynomial(field, nvars, packing, rem) if rem \
            else zero


def is_groebner(gens: list[Polynomial]) -> bool:
    """Buchberger's criterion on nonzero generators of one field and
    variable count.

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
    the set's scaled tails and divided by ``poly.multivariate_divide``,
    which takes it packed as it is.  The set memoizes its lead index
    lookups for the life of the check.
    """
    dset = poly.DivisorSet(gens)
    packed = dset._packed
    packed.memo = {}
    lcm, leads = packed.packing.lcm, packed.leads
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
    dividing, s_pair = packed.dividing, packed.s_pair
    for key in pairs:
        l, i, j = key >> 2 * k, key >> k & low, key & low
        common = settled[i] & settled[j]
        if not (common and common & dividing(l)):
            if not poly.multivariate_divide(s_pair(i, j, l),
                                            dset)[1].is_zero:
                return False
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return True
