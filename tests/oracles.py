"""Slow, plainly correct counterparts of the library's routes, kept for
the tests to compare against.

The box counts and the footprint are built degree by degree as dense
vectors, whose length grows linearly in q; the library reads the same
counts from Hilbert-series numerators instead.  Points of X* come from
the edge-product map and vanishing is checked by evaluation at every
point; the library never evaluates a polynomial.  JSON reports are
encoded by json.dumps with indent=2; the command line writes that
layout directly.  The ring operations on polynomials, which the library
never needs, are plain functions here; S-polynomials are built from
them, and polynomial fixtures are read from their text form.
"""

import itertools
import json
import re
from math import comb
from operator import add, le, sub

from cyclecodes import (
    DimensionMismatch,
    Polynomial,
    ZeroPolynomial,
    codes,
    field_new,
    gamma_of,
    hilbert,
)


# -- field elements ------------------------------------------------------------


def elements(field) -> list[int]:
    """Every element of the field, in order."""
    return list(range(field.q))


def power(field, a, n) -> int:
    """a^n by square and multiply; a^0 = 1 and negative n inverts."""
    if n < 0:
        return power(field, field.inv(a), -n)
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


# -- monomials and polynomials ----------------------------------------------


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b) -> bool:
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Quotient a / b; b must divide a."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def zero(field, nvars):
    return Polynomial(field, nvars, [])


def constant(field, nvars, c):
    return Polynomial(field, nvars, [((0,) * nvars, c)])


def leading_term(f):
    """The first term (monomial, coefficient) of a nonzero f."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no leading term")
    return f.terms[0]


def leading_monomial(f):
    return leading_term(f)[0]


def poly_add(f, g):
    f._check_compatible(g)
    return Polynomial(f.field, f.nvars, f.terms + g.terms)


def poly_sub(f, g):
    neg = g.field.neg
    return poly_add(f, Polynomial(g.field, g.nvars,
                                  [(m, neg(c)) for m, c in g.terms]))


def poly_mul(f, g):
    """The product, every pair of terms multiplied out."""
    f._check_compatible(g)
    field = f.field
    out = {}
    for ma, ca in f.terms:
        for mb, cb in g.terms:
            m = mono_mul(ma, mb)
            out[m] = field.add(out.get(m, 0), field.mul(ca, cb))
    return Polynomial(field, f.nvars, out.items())


def s_polynomial(f, g):
    """(L / LT f) f - (L / LT g) g, L the lcm of the two leading
    monomials, each step a product or difference of polynomials."""
    lmf, lcf = leading_term(f)
    lmg, lcg = leading_term(g)
    lcm = mono_lcm(lmf, lmg)
    inv = f.field.inv
    a = Polynomial(f.field, f.nvars, [(mono_div(lcm, lmf), inv(lcf))])
    b = Polynomial(g.field, g.nvars, [(mono_div(lcm, lmg), inv(lcg))])
    return poly_sub(poly_mul(a, f), poly_mul(b, g))


def parse_polynomial(text, field, nvars):
    """The polynomial that ``Polynomial.to_text`` writes as text: signed
    terms of ``*``-joined factors, each an integer coefficient (taken
    mod q) or a variable ``ti`` with an optional ``^e``.  The text must
    be well formed."""
    terms = []
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text):
        coeff = field.neg(1) if sign == "-" else 1
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
        total = field.add(total, v)
    return total


# -- the point set and its vanishing ideal ------------------------------------


def theta_map(spec, field, x):
    """The edge-product map: one coordinate x_j * x_k per edge (j, k)
    of ``spec.edges()``."""
    return tuple(field.mul(x[a], x[b]) for a, b in spec.edges())


def point_tuples(X) -> list[tuple[int, ...]]:
    """The rows of X.points as tuples of Python ints, in order."""
    return list(map(tuple, X.points.tolist()))


def vanishing_membership(f, X) -> bool:
    """True iff f evaluates to zero at every point of X."""
    return all(evaluate(f, p) == 0 for p in X.points.tolist())


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
    field = field_new(q)
    footprints = hilbert.footprint_at(spec, field, degrees)
    unions = ranks = [None] * len(degrees)
    if q % 2 and len(spec.components) == 1 and spec.components[0][1] == 1:
        unions = hilbert.union_at(spec.components[0][0], field, degrees)
    if with_rank:
        ranks = codes.character_at(spec, field, degrees)
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
