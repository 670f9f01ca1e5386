"""Evaluation codes on X* and the rank route for Hilbert functions.

The degree-d code is the image of all polynomials of total degree <= d
under evaluation at every point of X*.  Its generator matrix has one
row per basis monomial (exponents capped at q-2, since x^(q-1) = 1 on
units makes higher powers pointwise redundant) and one column per
point.  The rank of that matrix is the code dimension and equals the
Hilbert function H(d), which makes it the independent numeric oracle
for the counting routes in the hilbert module.

The same rank is also counted without X* (character_at): every
monomial restricts on X* to a character of the group X*, and distinct
characters are linearly independent, so the rank is the number of
distinct characters, read as a Hilbert series.  Row reduction
(rank_at) stays as the linear-algebra reference for that count.

For the same reason the distinct rows of the evaluation matrix are a
basis of the code (code_params), so the code parameters need no row
reduction.  The minimum distance is searched over orbits (_min_weight):
X* is a group, translating a codeword by an element of X* permutes its
coordinates and scales the coefficient of each basis row by that row's
character, and scaling by F_q^* keeps the support, so the weight is
constant on the orbits of G = F_q^* x X* on messages.  A depth-first
walk over the basis rows that carries a stabilizer chain of G visits
exactly one message per orbit.

One arithmetic path serves both kinds of field.  Every point of X* is
a unit, so the matrix is built in exponent space from the field's
discrete-log tables: the value of t^a at x is exp[(a . log x) mod
(q-1)].  The row reduction and the minimum-distance search use the
field's own array arithmetic (Field.add, neg and scale).
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd
from typing import NamedTuple

import numpy as np

from .cyclegraph import (
    DEFAULT_DIST_BUDGET,
    DEFAULT_ENUM_BUDGET,
    CycleFamilySpec,
    ToricSet,
)
from .errors import check_budget
from .gf import Field
from .hilbert import Series, _conv, count_box_degree

Monomial = tuple[int, ...]

# Most codeword cells in one block of the distance search, unless one
# word's extensions by one row are more; it bounds the memory of the
# search's blocks whatever the code's size.
_TABLE_CELLS = 1 << 20


def monomial_basis(nvars: int, q: int, d: int) -> list[Monomial]:
    """Monomials with exponents <= q-2 and total degree <= d, sorted
    in decreasing graded-lex order."""
    cap = min(q - 2, d)
    monos = [()]
    for _ in range(nvars):  # extend only the prefixes of degree <= d
        monos = [m + (e,) for m in monos
                 for e in range(min(cap, d - sum(m)) + 1)]
    monos.sort(key=lambda m: (sum(m), m), reverse=True)  # graded lex
    return monos


class EvaluationMatrix(NamedTuple):
    """Rows = basis monomials (decreasing graded-lex), columns = the
    rows of X.points in order, entries = monomial values."""

    field: Field
    monomials: tuple[Monomial, ...]
    entries: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def check_matrix_budget(nvars: int, q: int, npoints: int, d: int,
                        max_entries: int) -> None:
    """Raise BudgetExceeded when the degree-d evaluation matrix on
    npoints points would have more than max_entries entries; the basis
    is counted, not listed."""
    nentries = count_box_degree([min(q - 2, d)] * nvars, d) * npoints
    check_budget("evaluation matrix", nentries, "entries", max_entries)


def build_evaluation_matrix(X: ToricSet, d: int,
                            max_entries: int = DEFAULT_ENUM_BUDGET
                            ) -> EvaluationMatrix:
    """The degree-d evaluation matrix, as one integer matmul of the
    basis exponents with the points' discrete logs followed by one
    antilog gather."""
    field = X.field
    check_matrix_budget(X.nvars, field.q, len(X), d, max_entries)
    monos = monomial_basis(X.nvars, field.q, d)
    exponents = np.array(monos, dtype=np.int64).reshape(len(monos), X.nvars)
    power_logs = exponents @ field.log[X.points].T
    power_logs %= field.q - 1
    return EvaluationMatrix(field, tuple(monos), field.exp[power_logs])


# -- row reduction -----------------------------------------------------------

def _row_reduce(rows, field: Field) -> tuple[list[np.ndarray], list[int]]:
    """Incremental row reduction: each row is reduced against the basis
    so far and, when something is left, scaled to lead with 1 and
    appended.  Returns the basis and the rank after each row."""
    scale, add = field.scale, field.add
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    ranks = []
    for row in rows:
        for c, b in zip(pivots, basis):
            if row[c]:
                row = add(row, scale(field.neg(int(row[c])), b))
        nonzero = np.flatnonzero(row)
        if nonzero.size:
            c = int(nonzero[0])
            basis.append(scale(field.inv(int(row[c])), row))
            pivots.append(c)
        ranks.append(len(basis))
    return basis, ranks


def rank_at(X: ToricSet, degrees) -> list[int]:
    """H(d) at each d of degrees as the dimension of the degree-d
    evaluation code, the rank oracle.  One matrix is built through the
    largest d: its basis comes in decreasing graded-lex order, so its
    rows taken in reverse go by increasing degree, and one incremental
    reduction yields every prefix rank."""
    M = build_evaluation_matrix(X, max(max(degrees, default=0), 0))
    _, ranks = _row_reduce(M.entries[::-1], X.field)
    row_degrees = [sum(m) for m in reversed(M.monomials)]
    return [ranks[bisect_right(row_degrees, d) - 1] if d >= 0 else 0
            for d in degrees]


# -- distinct characters ----------------------------------------------------

def _cycle_character_degrees(k: int, r: int, dmax: int) -> list[int]:
    """How many distinct characters of one k-cycle copy first appear in
    each degree through dmax, with exponents taken mod r = q-1.

    A state is a vertex exponent vector in Z_r^k, packed as a base-r
    integer.  The monomial t_j moves a state by +1 at vertices j and
    j+1 mod k, so a breadth-first search from 0 reaches each character
    first at the least degree of a monomial restricting to it, and
    stops once degree dmax is counted."""
    radix = r ** np.arange(k, dtype=np.int64)
    seen = np.zeros(r ** k, dtype=bool)
    seen[0] = True
    # a mask drops repeats without sorting the reached states; it is
    # cleared at the frontier after each degree and so made only once
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


def character_at(spec: CycleFamilySpec, field: Field, degrees,
                 budget: int = DEFAULT_ENUM_BUDGET) -> list[int]:
    """H(d) at each d of degrees as counts of distinct characters,
    read as the series N(x)/(1-x)^0 with N the counts by least degree
    cut at the largest d; needs neither X* nor field arithmetic.

    X* is the image of the edge-product map, a group homomorphism, so
    the monomial t^a restricts on X* to the character x -> x^(B^T a)
    of the vertex torus, B the edge-vertex incidence matrix and the
    exponents taken mod q-1.  Distinct characters are linearly
    independent (Artin), so H(d) counts the distinct classes B^T a mod
    q-1 over |a| <= d.  Cycle copies act on disjoint vertices, so the
    per-copy counts by least degree multiply as polynomials.  Each
    distinct cycle length k searches (q-1)^k states; all of them are
    checked against ``budget``, and against what one array can index,
    before any search starts."""
    r = field.q - 1
    lengths = sorted(spec.lengths)
    for k in lengths:
        check_budget(f"counting the characters of one {k}-cycle copy "
                     f"over F_{field.q}", r ** k, "states", budget)
    dmax = max(max(degrees, default=0), 0)
    per_k = {k: _cycle_character_degrees(k, r, dmax) for k in lengths}
    vec = [1]
    for k, m in spec.components:
        for _ in range(m):
            vec = _conv(vec, per_k[k], dmax)
    return Series(1, vec, 0).at(degrees)


# -- code parameters ----------------------------------------------------------

class CodeParams(NamedTuple):
    """Parameters of one degree-d evaluation code.  Exactly one of
    min_distance / min_distance_bracket is set; singleton_slack
    (n - dimension + 1 - distance) accompanies an exact distance."""

    q: int
    d: int
    n: int
    dimension: int
    min_distance: int | None
    min_distance_bracket: tuple[int, int] | None
    singleton_slack: int | None


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        k, rem = divmod(a, b)
        a, b, s, s1, t, t1 = b, rem, s1, s - k * s1, t1, t - k * t1
    return a, s, t


def _stabilizer(gens: list[tuple[int, ...]], j: int, h: int,
                r: int) -> list[tuple[int, ...]]:
    """The subgroup of the group that gens generates in Z_r^width whose
    elements are 0 at column j, h = gcd(r, column j), given by
    generators on the columns after j, none of them zero.

    Extended gcd on column j alone gives a pivot, a combination of the
    generators whose column-j entry is h.  Subtracting multiples of it
    clears column j from every generator, and (r/h) times the pivot is
    the rest of the kernel.  The generators are few and short, so plain
    integers beat arrays here."""
    if h == r:  # column j is 0 in every generator
        return [row[j + 1:] for row in gens if any(row[j + 1:])]
    g, pivot = r, [0] * (len(gens[0]) - j - 1)
    for row in gens:
        if row[j] % g:
            g, s, t = _egcd(g, row[j])
            pivot = [(s * a + t * b) % r for a, b in zip(pivot, row[j + 1:])]
    kernel = [tuple((a - row[j] // h * b) % r
                    for a, b in zip(row[j + 1:], pivot)) for row in gens]
    kernel.append(tuple(b * (r // h) % r for b in pivot))
    return [row for row in dict.fromkeys(kernel) if any(row)]


def _orbit_generators(spec: CycleFamilySpec, monomials: np.ndarray,
                      q: int) -> np.ndarray:
    """Log generators of G = F_q^* x X* on the coefficients of the rows
    t^a, a the rows of monomials: the all-ones vector (the scalars),
    and per vertex v the exponent of that vertex in each row's
    character, (B^T a)_v mod q-1, B the edge-vertex incidence matrix
    (X* is the edge-product image of the vertex torus)."""
    incidence = np.zeros((spec.nvars, spec.nvars), dtype=np.int64)
    for e, (u, v) in enumerate(spec.edges()):
        incidence[e, u] = incidence[e, v] = 1
    return np.vstack([np.ones(len(monomials), dtype=np.int64),
                      (monomials @ incidence).T]) % (q - 1)


def _orbit_blocks(basis: np.ndarray, gens: np.ndarray, field: Field):
    """Yield blocks of codewords whose messages are, all blocks together,
    exactly one representative of each orbit of G on nonzero messages;
    gens holds G's log generators on the coefficients of the basis rows
    (see _orbit_generators).

    The walk goes depth first over the rows.  At each row the message
    is zero, which leaves the generators as they are, or omega^x with
    x in [0, h), h = gcd(q-1, that column of the generators of the
    current stabilizer), and the stabilizer of the choice comes next.
    A support S thus gets (q-1)^|S| / |L_S| representatives, L_S the
    image of G on S, and the first nonzero coefficient is 1 (h = 1,
    since scaling is in G).  A block extends every word of its parent
    block by every value of one more row, in slices of parent words so
    that a block holds at most _TABLE_CELLS cells, or one word's h
    extensions when those alone are more.  A row's multiples
    omega^x * row, x in [0, h), are built when the walk first reads h
    of them and kept: n bytes each (2n for q > 128), not q-1 per row."""
    r = field.q - 1
    dim, n = basis.shape
    dtype = np.min_scalar_type(2 * r)
    exp, log = field.exp.astype(dtype), field.log.astype(dtype)
    x = np.arange(r, dtype=dtype)[:, None]
    multiples = {}  # row -> its first multiples, as many as were read
    gens = [tuple(row) for row in gens.tolist()]

    def walk(start, words, gens):
        for j in range(dim - start):
            c = start + j
            h = gcd(r, *(row[j] for row in gens))
            last = c + 1 == dim
            child = [] if last else _stabilizer(gens, j, h, r)
            if len(multiples.get(c, ())) < h:
                multiples[c] = exp[(x[:h] + log[basis[c]]) % r]
            step = max(1, _TABLE_CELLS // (h * n))
            for i in range(0, len(words), step):
                block = field.add(words[i:i + step, None],
                                  multiples[c][:h]).reshape(-1, n)
                yield block
                if not last:
                    yield from walk(c + 1, block, child)

    yield from walk(0, np.zeros((1, n), dtype=dtype), gens)


def _min_weight(basis: np.ndarray, gens: np.ndarray, field: Field) -> int:
    """Least Hamming weight of a nonzero codeword of the row space.

    The rows are characters of X*, so G = F_q^* x X* acts on messages:
    translating a codeword by g in X* permutes its coordinates and
    scales the coefficient of row a by chi_a(g), and scaling by lambda
    keeps the support.  The weight is constant on each orbit, so only
    the orbit representatives of _orbit_blocks are scored, a block at
    a time; the walk stops at weight 1."""
    best = len(basis[0])
    for block in _orbit_blocks(basis, gens, field):
        best = min(best, int(np.add.reduce(block != 0, 1).min()))
        if best == 1:
            break
    return best


def code_params(X: ToricSet, d: int,
                dist_budget: int = DEFAULT_DIST_BUDGET,
                max_entries: int = DEFAULT_ENUM_BUDGET) -> CodeParams:
    """Length, dimension and (budget permitting) exact min distance.

    Every row of the evaluation matrix is a character of the group X*,
    equal monomial characters give equal rows and distinct characters
    are linearly independent (Artin), so the distinct rows are a basis
    of the code and their number is its dimension: no row reduction.
    Rows are told apart by their bytes, which costs the same for any
    row length, and kept in matrix order; the distance does not depend
    on their order.  The exact distance is searched when q^dimension
    fits dist_budget."""
    M = build_evaluation_matrix(X, d, max_entries)
    entries = np.ascontiguousarray(M.entries)
    row_bytes = entries.view(np.dtype((np.void, entries[0].nbytes)))
    _, first = np.unique(row_bytes.ravel(), return_index=True)
    kept = np.sort(first)
    basis = entries[kept]
    dim = len(basis)
    n = len(X)
    if X.field.q ** dim > dist_budget:
        return CodeParams(X.field.q, d, n, dim, None, (1, n - dim + 1), None)
    monomials = np.array(M.monomials, dtype=np.int64)[kept]
    gens = _orbit_generators(X.spec, monomials, X.field.q)
    dist = _min_weight(basis, gens, X.field)
    return CodeParams(X.field.q, d, n, dim, dist, None, n - dim + 1 - dist)


def singleton_check(params: CodeParams) -> bool:
    """distance <= n - dimension + 1; requires an exact distance."""
    if params.min_distance is None:
        raise ValueError("singleton check needs an exact minimum distance")
    return params.min_distance <= params.n - params.dimension + 1
