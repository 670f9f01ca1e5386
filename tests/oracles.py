"""Slow, plainly correct counterparts of the library's routes, kept for
the tests to compare against.

Field elements are added, negated and inverted by scalar functions
here; the library's field has only its product, its log tables and an
array sum.  Ranks come from one row at a time reduced against every
pivot so far, in the field's addition and multiplication tables; the
library eliminates one pivot column from all remaining rows at once,
in logs.

The box counts and the footprint are built degree by degree as dense
vectors, whose length grows linearly in q; the library reads the same
counts from Hilbert-series numerators instead.  Points of X* come from
the edge-product map and vanishing is checked by evaluation at every
point; the library never evaluates a polynomial.  JSON reports are
encoded by json.dumps with indent=2; the command line writes that
layout directly.  The library's polynomials are binomials with no
field; here a polynomial has coefficients in a field, and the ring
operations on it are plain functions; S-polynomials are built from
them, division with quotients scans the divisors in order on
unpacked monomials, and polynomial fixtures are read from their text
form.  Distinct characters of one cycle copy are found by a
breadth-first search over the states Z_(q-1)^k, one array pass per
degree; the library enumerates the exponent box once instead.  A
Hilbert numerator is multiplied out one copy at a time; the library
raises each factor to its power by one recurrence.  The union weights
are two binomials each; the library steps from one to the next by
their ratio.  The generator set of a union is held whole, every
binomial over all the variables; the library builds one cycle per
length and writes each copy by shifting the variable indices.  The
characters of monomials come from the incidence matrix of an edge list,
and the basis of a code from the distinct rows of its whole evaluation
matrix; the library gathers each vertex's previous edge instead, and
reads the basis off the distinct characters, with no matrix.
"""

import functools
import itertools
import json
import operator
import re
from math import comb

import numpy as np

from cyclecodes import (
    Binomial,
    DimensionMismatch,
    ToricSet,
    build_generators,
    codes,
    field_new,
    gamma_of,
    grlex_key,
    hilbert,
)


# -- field elements ------------------------------------------------------------


def elements(field) -> list[int]:
    """Every element of the field, in order."""
    return list(range(field.q))


def add(field, a, b):
    """a + b: XOR in characteristic two, else the sum mod p."""
    return a ^ b if field.p == 2 else (a + b) % field.q


def neg(field, a):
    """-a: a itself in characteristic two, else p - a mod p."""
    return a if field.p == 2 else (-a) % field.q


def inv(field, a) -> int:
    """1/a = a^(q-2) by square and multiply under mul alone, so that
    it checks the log tables without reading them."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return power(field, a, field.q - 2)


def power(field, a, n) -> int:
    """a^n by square and multiply; a^0 = 1 and negative n inverts."""
    if n < 0:
        return power(field, inv(field, a), -n)
    acc = 1
    while n:
        if n & 1:
            acc = field.mul(acc, a)
        a = field.mul(a, a)
        n >>= 1
    return acc


def squares(field) -> list[int]:
    """The subgroup {a^2 : a nonzero}, sorted: (q-1)/2 elements for odd
    q, all q-1 units in characteristic two."""
    return sorted({field.mul(a, a) for a in range(1, field.q)})


@functools.cache
def field_tables(q):
    """The addition and multiplication tables of F_q, q x q int64
    arrays made from the scalar operations."""
    field = field_new(q)
    return (np.array([[add(field, a, b) for b in range(q)] for a in range(q)]),
            np.array([[field.mul(a, b) for b in range(q)] for a in range(q)]))


def row_reduce(rows, field):
    """Incremental row reduction of the rows of values, in the tabled
    scalar operations: each row is reduced against the basis so far
    and, when something is left, scaled to lead with 1 and appended.
    Returns the basis and the rank after each row."""
    plus, times = field_tables(field.q)
    basis, pivots, ranks = [], [], []
    for row in np.asarray(rows, dtype=np.int64):
        for c, b in zip(pivots, basis):
            if row[c]:
                row = plus[row, times[neg(field, int(row[c])), b]]
        nonzero = np.flatnonzero(row)
        if nonzero.size:
            c = int(nonzero[0])
            basis.append(times[inv(field, int(row[c])), row])
            pivots.append(c)
        ranks.append(len(basis))
    return basis, ranks


def rank_by_rows(X, degrees):
    """H(d) at each d of degrees as the rank of the values of the
    degree-d evaluation matrix, each by row_reduce; 0 below 0."""
    return [len(row_reduce(X.field.exp[codes.build_evaluation_matrix(
        X, d).logs], X.field)[0]) if d >= 0 else 0 for d in degrees]


# -- polynomials over a field ------------------------------------------------

class Polynomial:
    """Immutable polynomial over a field; terms kept sorted in
    decreasing graded lex order.

    Text form: terms in decreasing order joined by `` + `` / `` - ``,
    e.g. ``t1^3*t2 - t3^2 + 1``.  A bare ``-`` stands for the element
    -1, so it never appears in characteristic 2, where -1 = 1; any other
    coefficient but 1 is written ``c*...``."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        merged = {}
        for mono, coeff in terms:
            if len(mono) != nvars:
                raise DimensionMismatch(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}")
            c = add(field, 0, coeff)  # mod p; a binary element stays
            if not 0 <= c < field.q:
                raise ValueError(
                    f"coefficient {coeff} is not an element of F_{field.q}")
            c = add(field, merged.get(mono, 0), c)
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
    def binomial(cls, field, plus, minus):
        """The difference of two monomials, t^plus - t^minus."""
        return cls(field, len(plus), [(plus, 1), (minus, neg(field, 1))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other) -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise DimensionMismatch(
                "polynomials disagree on field or variable count")

    # text form
    def _mono_text(self, mono) -> str:
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
        minus_one = neg(self.field, 1)
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


def as_polynomial(b, field):
    """The library's ``Binomial`` b, t^lead - t^tail, as a polynomial
    over field."""
    return Polynomial.binomial(field, b.lead, b.tail)


# -- monomials and polynomials ----------------------------------------------


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_divides(a, b) -> bool:
    """True if monomial a divides monomial b."""
    return all(map(operator.le, a, b))


def mono_div(a, b):
    """Quotient a / b; b must divide a."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def zero(field, nvars):
    return Polynomial(field, nvars, [])


def constant(field, nvars, c):
    return Polynomial(field, nvars, [((0,) * nvars, c)])


def leading_term(f):
    """The first term (monomial, coefficient) of a nonzero f."""
    if f.is_zero:
        raise ValueError("zero polynomial has no leading term")
    return f.terms[0]


def leading_monomial(f):
    return leading_term(f)[0]


def degree(f) -> int:
    """Total degree; -1 for the zero polynomial."""
    if not f.terms:
        return -1
    return max(sum(m) for m, _ in f.terms)


def poly_add(f, g):
    f._check_compatible(g)
    return Polynomial(f.field, f.nvars, f.terms + g.terms)


def poly_sub(f, g):
    return poly_add(f, Polynomial(g.field, g.nvars,
                                  [(m, neg(g.field, c)) for m, c in g.terms]))


def poly_mul(f, g):
    """The product, every pair of terms multiplied out."""
    f._check_compatible(g)
    field = f.field
    out = {}
    for ma, ca in f.terms:
        for mb, cb in g.terms:
            m = mono_mul(ma, mb)
            out[m] = add(field, out.get(m, 0), field.mul(ca, cb))
    return Polynomial(field, f.nvars, out.items())


def s_polynomial(f, g):
    """(L / LT f) f - (L / LT g) g, L the lcm of the two leading
    monomials, each step a product or difference of polynomials."""
    lmf, lcf = leading_term(f)
    lmg, lcg = leading_term(g)
    lcm = mono_lcm(lmf, lmg)
    field = f.field
    a = Polynomial(field, f.nvars, [(mono_div(lcm, lmf), inv(field, lcf))])
    b = Polynomial(field, g.nvars, [(mono_div(lcm, lmg), inv(field, lcg))])
    return poly_sub(poly_mul(a, f), poly_mul(b, g))


def ordered_scan_divide(f, divisors):
    """Division that scans the divisors in order at every step and
    divides by the first whose leading monomial divides the term."""
    field, nvars = f.field, f.nvars
    quot = [[] for _ in divisors]
    rem = []
    work = dict(f.terms)
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        for i, g in enumerate(divisors):
            lm, lc = leading_term(g)
            if mono_divides(lm, mono):
                qm = mono_div(mono, lm)
                qc = field.mul(coeff, inv(field, lc))
                quot[i].append((qm, qc))
                for gm, gc in g.terms[1:]:
                    m2 = mono_mul(gm, qm)
                    c2 = add(field, work.get(m2, 0),
                             neg(field, field.mul(gc, qc)))
                    if c2:
                        work[m2] = c2
                    else:
                        work.pop(m2, None)
                break
        else:
            rem.append((mono, coeff))
    return ([Polynomial(field, nvars, ts) for ts in quot],
            Polynomial(field, nvars, rem))


def parse_polynomial(text, field, nvars):
    """The polynomial that ``Polynomial.to_text`` writes as text: signed
    terms of ``*``-joined factors, each an integer coefficient (taken
    mod q) or a variable ``ti`` with an optional ``^e``.  The text must
    be well formed."""
    terms = []
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text):
        coeff = neg(field, 1) if sign == "-" else 1
        exps = [0] * nvars
        for factor in body.split("*"):
            name, _, exp = factor.strip().partition("^")
            if name.startswith("t"):
                exps[int(name[1:]) - 1] += int(exp or 1)
            else:
                coeff = field.mul(coeff, int(name) % field.q)
        terms.append((tuple(exps), coeff))
    return Polynomial(field, nvars, terms)


def evaluate(f, point) -> int:
    """f at a point, term by term."""
    if len(point) != f.nvars:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates, expected {f.nvars}")
    field = f.field
    total = 0
    for mono, coeff in f.terms:
        v = coeff
        for x, e in zip(point, mono):
            if e:
                v = field.mul(v, power(field, x, e))
        total = add(field, total, v)
    return total


# -- the point set and its vanishing ideal ------------------------------------


def edges(spec) -> list[tuple[int, int]]:
    """The edges of every cycle copy, in the layout of the cyclegraph
    docstring: edge off+j joins vertices off+j and off+(j+1) mod k."""
    return [(off + j, off + (j + 1) % k)
            for k, off in spec.blocks() for j in range(k)]


def theta_map(spec, field, x):
    """The edge-product map: one coordinate x_j * x_k per edge (j, k)
    of ``edges(spec)``."""
    return tuple(field.mul(x[a], x[b]) for a, b in edges(spec))


def characters_by_incidence(spec, monomials, q) -> np.ndarray:
    """The character of each row t^a of monomials on X*, B^T a mod q-1,
    B the edge-vertex incidence matrix of ``edges(spec)``, as one
    matrix product."""
    incidence = np.zeros((spec.nvars, spec.nvars), dtype=np.int64)
    for e, (u, v) in enumerate(edges(spec)):
        incidence[e, u] = incidence[e, v] = 1
    return np.asarray(monomials, dtype=np.int64) @ incidence % (q - 1)


def distinct_rows(logs) -> np.ndarray:
    """The index of the first of each distinct row of logs, in order,
    rows told apart by their bytes: the basis of an evaluation code
    read off its whole matrix."""
    logs = np.ascontiguousarray(logs)
    row_bytes = logs.view(np.dtype((np.void, logs[0].nbytes)))
    _, first = np.unique(row_bytes.ravel(), return_index=True)
    return np.sort(first)


def coordinates(X) -> np.ndarray:
    """The coordinates of the points of X, the antilogs of X.logs, a row
    per point in the order of X.logs (not sorted)."""
    return X.field.exp[X.logs]


def toric_set_at(spec, field, points) -> ToricSet:
    """The ToricSet of the given coordinate rows, in their order."""
    logs = field.log[np.asarray(points, dtype=np.int64)]
    return ToricSet(spec, field, logs.astype(np.min_scalar_type(field.q - 2)))


def point_tuples(X) -> list[tuple[int, ...]]:
    """The coordinates of X as tuples of Python ints, in X's order."""
    return list(map(tuple, coordinates(X).tolist()))


def vanishing_membership(f, X) -> bool:
    """True iff f evaluates to zero at every point of X."""
    return all(evaluate(f, p) == 0 for p in coordinates(X).tolist())


def placed_generators(spec, q):
    """The whole generator set of ``spec`` over F_q as n-wide binomials
    on its nvars variables: ``build_generators(k, q)`` placed at each
    block offset, every copy's torus binomials first, then every
    copy's cycle binomials, copies in block order."""
    n = spec.nvars
    torus, cycles = [], []
    for k, off in spec.blocks():
        pad = (0,) * (n - off - k)
        placed = [Binomial((0,) * off + g.lead + pad,
                           (0,) * off + g.tail + pad)
                  for g in build_generators(k, q)]
        torus += placed[:k]
        cycles += placed[k:]
    return tuple(torus + cycles)


def iter_disjoint_binomials(nvars, q):
    """The exponent pairs (a, b) of all binomials t^a - t^b with
    disjoint supports and exponents at most q-2, each unordered {a, b}
    once, a != b.

    Per variable the exponent pair is (0,0), (e,0) or (0,e) with
    1 <= e <= q-2; the all-zero pair a = b = 0 is skipped.
    """
    choices = [(0, 0)]
    choices += [(e, 0) for e in range(1, q - 1)]
    choices += [(0, e) for e in range(1, q - 1)]
    for combo in itertools.product(choices, repeat=nvars):
        a = tuple(c[0] for c in combo)
        b = tuple(c[1] for c in combo)
        if a > b:  # one orientation of each pair; a == b only at zero
            yield a, b


# -- counting -----------------------------------------------------------------


def union_coefficients_by_binomials(k) -> list[int]:
    """c_j = (-1)^(gamma-j) C(k, j) C(k-j-1, gamma-j), j = 0..gamma,
    two fresh binomials per weight."""
    gamma = gamma_of(k)
    return [(-1) ** (gamma - j) * comb(k, j) * comb(k - j - 1, gamma - j)
            for j in range(gamma + 1)]


def count_box_by_degree(bounds, cap=None) -> list[int]:
    """Exact-degree counts of {a : 0 <= a_i <= b_i}: the coefficients
    of the product of (1 + x + ... + x^{b_i}), truncated at degree cap,
    each factor applied as a running sum over a window of b_i + 1."""
    vec = [1]
    for b in bounds:
        n = len(vec) + b
        if cap is not None:
            n = min(n, cap + 1)
        out, acc = [], 0
        for i in range(n):
            if i < len(vec):
                acc += vec[i]
            if i > b:
                acc -= vec[i - b - 1]
            out.append(acc)
        vec = out
    return vec


def footprint_by_degree(spec, q, cap=None) -> list[int]:
    """Exact-degree standard-monomial counts, truncated at degree cap:
    every low box factor, then each block's sparse mask
    sum_{v<=gamma} C(k, v) x^{v(q-1)/2} as gamma+1 shifted adds.  For
    even q the plain box with every bound q-2."""
    if (q - 1) % 2 != 0:
        return count_box_by_degree([q - 2] * spec.nvars, cap)
    half = (q - 1) // 2
    vec = count_box_by_degree([half - 1] * spec.nvars, cap)
    for k, m in spec.components:
        gamma = gamma_of(k)
        for _ in range(m):
            n = len(vec) + gamma * half
            if cap is not None:
                n = min(n, cap + 1)
            out = [0] * n
            for v in range(gamma + 1):
                c, shift = comb(k, v), v * half
                for i, x in enumerate(vec[:max(n - shift, 0)]):
                    out[shift + i] += c * x
            vec = out
    return vec


def character_degrees_by_search(k, r, dmax) -> list[int]:
    """How many distinct characters of one k-cycle copy first appear in
    each degree through dmax, exponents mod r = q-1, as a breadth-first
    search.  A state is a vertex exponent vector in Z_r^k, packed as a
    base-r integer; the monomial t_j moves a state by +1 at vertices j
    and j+1 mod k, so the search from 0 reaches each character first at
    the least degree of a monomial restricting to it."""
    radix = r ** np.arange(k, dtype=np.int64)
    seen = np.zeros(r ** k, dtype=bool)
    seen[0] = True
    new = np.zeros_like(seen)
    frontier = np.zeros(1, dtype=np.int64)
    counts = []
    while frontier.size:
        counts.append(int(frontier.size))
        if len(counts) > dmax:
            break
        digits = frontier[:, None] // radix % r
        # +1 at one vertex, wrapping r-1 back to 0
        step = np.where(digits == r - 1, (1 - r) * radix, radix)
        reached = (frontier[:, None] + step
                   + np.roll(step, -1, axis=1)).ravel()
        new[reached[~seen[reached]]] = True
        frontier = np.flatnonzero(new)
        new[frontier] = False
        seen[frontier] = True
    return counts


def numerator_by_copies(step, factors, n, degrees):
    """The series prod p^m / (1-x)^n in x^step over the (p, deg, m) of
    factors, p a list of deg + 1 coefficients, built whole: a factor
    1 - x^e by its binomial expansion, any other one _conv per copy.
    Past the last coefficient that Series.at(degrees) reads it is set
    to zeros, as the library's builder leaves it."""
    num = [1]
    for p, deg, m in factors:
        if deg and p == [1] + [0] * (deg - 1) + [-1]:
            power = [0] * (m * deg + 1)
            power[::deg] = [(-1) ** t * comb(m, t) for t in range(m + 1)]
            num = hilbert._conv(power, num)
        else:
            for _ in range(m):
                num = hilbert._conv(p, num)
    if degrees is not None:  # Series.at reads through min(max d, top)
        top = (len(num) - 1) * step - n
        last = max(min(max(degrees, default=-1), top), 0) // step
        num = num[:last + 1] + [0] * (len(num) - last - 1)
    return hilbert.Series(step, num, n)


def prefix_at(prefix, d):
    """A cumulative vector read at d: 0 below 0, the last value past
    its end."""
    return prefix[min(d, len(prefix) - 1)] if d >= 0 else 0


def cumulative(vec):
    return list(itertools.accumulate(vec))


def torus_prefix(i, k, q):
    """H(0), H(1), ... of the i-th degenerate torus: i bounds q-2 and
    k-i bounds (q-1)/2 - 1."""
    half = (q - 1) // 2
    return cumulative(count_box_by_degree([q - 2] * i + [half - 1] * (k - i)))


def regularity_by_scan(spec, q):
    """Least d with H(d) = H(last degree), scanning the footprint."""
    prefix = cumulative(footprint_by_degree(spec, q))
    return prefix.index(prefix[-1])


# -- reports ------------------------------------------------------------------


def hilbert_report_json(q, spec, degrees, with_rank=False) -> str:
    """``hilbert --format json`` as json.dumps(payload, indent=2) of one
    dict per row: the footprint, the union (null unless spec is one
    cycle and q is odd) and the rank (null without with_rank) at each
    degree, and whether every column present equals the footprint.
    Run it with no limit on int -> str digits, as the command line
    does."""
    footprints = hilbert.footprint_at(spec, q, degrees)
    unions = ranks = [None] * len(degrees)
    if q % 2 and len(spec.components) == 1 and spec.components[0][1] == 1:
        unions = hilbert.union_at(spec.components[0][0], q, degrees)
    if with_rank:
        ranks = codes.character_at(spec, q, degrees)
    rows = [{"d": d, "footprint": fp, "union": u, "rank": r}
            for d, fp, u, r in zip(degrees, footprints, unions, ranks)]
    agree = all(row[col] in (None, row["footprint"])
                for row in rows for col in ("union", "rank"))
    return json.dumps({"q": q, "spec": spec.to_string(), "rows": rows,
                       "agree": agree}, indent=2)


def enumerate_report(q, spec, fmt) -> str:
    """``enumerate`` in format fmt, the points of X* taken as the sorted
    image of the edge-product map over all unit vertex weights: one
    point per line, or json.dumps(payload, indent=2)."""
    field = field_new(q)
    points = sorted({theta_map(spec, field, x) for x in
                     itertools.product(range(1, q), repeat=spec.nvars)})
    if fmt == "plain":
        return "\n".join(" ".join(map(str, p)) for p in points)
    return json.dumps({"q": q, "spec": spec.to_string(),
                       "cardinality": len(points),
                       "points": [list(p) for p in points]}, indent=2)
