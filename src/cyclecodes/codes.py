"""Evaluation codes on X* and the rank route for Hilbert functions.

The degree-d code is the image of all polynomials of total degree <= d
under evaluation at every point of X*.  Its generator matrix has one
row per basis monomial (exponents capped at q-2, since x^(q-1) = 1 on
units makes higher powers pointwise redundant) and one column per
point.  The rank of that matrix is the code dimension and equals the
Hilbert function H(d), which makes it the independent numeric oracle
for the counting routes in the hilbert module.

The same rank is also counted without X* (character_table): every
monomial restricts on X* to a character of the group X*, and distinct
characters are linearly independent, so the rank is the number of
distinct characters.  Row reduction (rank_table, code_dimension) stays
as the linear-algebra reference for that count.

For the same reason the distinct rows of the evaluation matrix are a
basis of the code (code_params), so the code parameters need no row
reduction.

One arithmetic path serves both kinds of field.  Every point of X* is
a unit, so the matrix is built in exponent space from the field's
discrete-log tables: the value of t^a at x is exp[(a . log x) mod
(q-1)].  The row reduction and the minimum-distance search use the
array (scale, add) of _field_arithmetic, which alone knows the field
kind: residues mod q for prime fields, a product table and XOR for
binary fields.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cyclegraph import (
    DEFAULT_DIST_BUDGET,
    DEFAULT_ENUM_BUDGET,
    CycleFamilySpec,
    ToricSet,
    check_search_budget,
)
from .errors import BudgetExceeded
from .gf import Field
from .hilbert import HilbertTable, _conv, count_box_degree
from .poly import Monomial, grlex_key

DEFAULT_MATRIX_BUDGET = 1 << 26
# Largest table of tail-row combinations the distance search builds, in
# cells; it bounds the search's memory whatever the code's size.
_TABLE_CELLS = 1 << 20


def monomial_basis(nvars: int, q: int, d: int,
                   max_exponent: int | None = None) -> list[Monomial]:
    """Monomials with exponents <= q-2 and total degree <= d, sorted
    in decreasing graded-lex order."""
    cap = q - 2 if max_exponent is None else max_exponent
    cap = min(cap, d)
    monos = [m for m in itertools.product(range(cap + 1), repeat=nvars)
             if sum(m) <= d]
    monos.sort(key=grlex_key, reverse=True)
    return monos


@dataclass
class EvaluationMatrix:
    """Rows = basis monomials (decreasing graded-lex), columns = points
    of X* in canonical order, entries = monomial values."""

    field: Field
    monomials: tuple[Monomial, ...]
    points: tuple[tuple[int, ...], ...]
    entries: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.monomials), len(self.points)


def check_matrix_budget(nvars: int, q: int, npoints: int, d: int,
                        max_entries: int,
                        max_exponent: int | None = None) -> None:
    """Raise BudgetExceeded when the degree-d evaluation matrix on
    npoints points would have more than max_entries entries; the basis
    is counted, not listed."""
    cap = min(q - 2 if max_exponent is None else max_exponent, d)
    nentries = count_box_degree([cap] * nvars, d) * npoints
    if nentries > max_entries:
        raise BudgetExceeded(
            f"evaluation matrix needs {nentries} entries, "
            f"budget is {max_entries}")


def build_evaluation_matrix(X: ToricSet, d: int,
                            max_entries: int = DEFAULT_MATRIX_BUDGET,
                            max_exponent: int | None = None
                            ) -> EvaluationMatrix:
    """The degree-d evaluation matrix, as one integer matmul of the
    basis exponents with the points' discrete logs followed by one
    antilog gather."""
    field = X.field
    check_matrix_budget(X.nvars, field.q, len(X), d, max_entries,
                        max_exponent)
    monos = monomial_basis(X.nvars, field.q, d, max_exponent)
    exponents = np.array(monos, dtype=np.int64).reshape(len(monos), X.nvars)
    logs = field.log[np.array(X.points).reshape(len(X), X.nvars)]
    power_logs = exponents @ logs.T
    power_logs %= field.q - 1
    return EvaluationMatrix(field, tuple(monos), X.points,
                            field.exp[power_logs])


# -- row reduction -----------------------------------------------------------

def _field_arithmetic(field: Field):
    """(scale, add) on int64 arrays of field elements: residues mod q
    for prime fields, the log/exp tables and XOR for binary fields."""
    q = field.q
    if field.p != 2:
        return (lambda c, a: c * a % q), (lambda a, b: (a + b) % q)
    log = field.log
    mul = field.exp[(log[:, None] + log) % (q - 1)]
    mul[0] = 0
    mul[:, 0] = 0
    return (lambda c, a: mul[c][a]), np.bitwise_xor


def _row_reduce(rows, field: Field) -> tuple[list[np.ndarray], list[int]]:
    """Incremental row reduction: each row is reduced against the basis
    so far and, when something is left, scaled to lead with 1 and
    appended.  Returns the basis and the rank after each row."""
    scale, add = _field_arithmetic(field)
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


def code_dimension(X: ToricSet, d: int,
                   max_entries: int = DEFAULT_MATRIX_BUDGET) -> int:
    """dim of the degree-d evaluation code = H(d), the rank oracle."""
    M = build_evaluation_matrix(X, d, max_entries)
    return len(_row_reduce(M.entries, X.field)[0])


def rank_table(X: ToricSet, dmax: int,
               max_entries: int = DEFAULT_MATRIX_BUDGET) -> HilbertTable:
    """H(0)..H(dmax) by incremental rank: the basis comes in decreasing
    graded-lex order, so its rows taken in reverse go by increasing
    degree, and one reduction yields every prefix rank."""
    M = build_evaluation_matrix(X, dmax, max_entries)
    _, ranks = _row_reduce(M.entries[::-1], X.field)
    degrees = [sum(m) for m in reversed(M.monomials)]
    return HilbertTable(
        tuple(ranks[bisect_right(degrees, d) - 1] for d in range(dmax + 1)),
        "rank_oracle")


# -- distinct characters ----------------------------------------------------

def _cycle_character_degrees(k: int, r: int) -> list[int]:
    """How many distinct characters of one k-cycle copy first appear in
    each degree, with exponents taken mod r = q-1.

    A state is a vertex exponent vector in Z_r^k, packed as a base-r
    integer.  The monomial t_j moves a state by +1 at vertices j and
    j+1 mod k, so a breadth-first search from 0 reaches each character
    first at the least degree of a monomial restricting to it."""
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


def character_prefix(spec: CycleFamilySpec, field: Field, dmax: int,
                     budget: int = DEFAULT_ENUM_BUDGET) -> list[int]:
    """H(0), H(1), ... as counts of distinct characters, through dmax
    or, sooner, through the last degree at which a new character
    appears; needs neither X* nor field arithmetic.

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
    lengths = sorted({k for k, _m in spec.components})
    for k in lengths:
        check_search_budget(
            f"counting the characters of one {k}-cycle copy over "
            f"F_{field.q} needs {r ** k} states", r ** k, budget)
    per_k = {k: _cycle_character_degrees(k, r) for k in lengths}
    vec = [1]
    for k, m in spec.components:
        for _ in range(m):
            vec = _conv(vec, per_k[k], dmax)
    return list(itertools.accumulate(vec[:dmax + 1]))


def character_table(spec: CycleFamilySpec, field: Field, dmax: int,
                    budget: int = DEFAULT_ENUM_BUDGET) -> HilbertTable:
    """H(0)..H(dmax) as counts of distinct characters (see
    character_prefix)."""
    return HilbertTable.from_prefix(
        character_prefix(spec, field, dmax, budget), dmax, "characters")


# -- code parameters ----------------------------------------------------------

@dataclass(frozen=True)
class CodeParams:
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


def _min_weight(basis: np.ndarray, field: Field) -> int:
    """Least Hamming weight of a nonzero codeword of the row space.

    Weight is invariant under scaling, so only messages whose first
    nonzero coefficient is 1 are searched.  The last s rows are tabled
    once (all q^s combinations, at most _TABLE_CELLS cells); each
    normalized combination w of the other rows is then met with the
    whole table at once.  t - w is zero exactly where t equals w, and
    the table is closed under negation, so one comparison gives the
    weight of every codeword w + t."""
    q = field.q
    dim, n = basis.shape
    s = 0
    while s < dim and q ** (s + 1) * n <= _TABLE_CELLS:
        s += 1
    scale, add = _field_arithmetic(field)
    head = basis[:dim - s]
    table = np.zeros((1, n), dtype=np.int64)
    for row in basis[dim - s:]:
        table = np.concatenate(
            [table] + [add(table, scale(c, row)) for c in range(1, q)])
    table = table.astype(np.min_scalar_type(q - 1))
    best = n
    if s:
        best = int(np.count_nonzero(table[1:], axis=1).min())
    for lead in range(len(head)):
        for coeffs in itertools.product(range(q), repeat=len(head) - lead - 1):
            if best == 1:
                return best
            word = head[lead]
            for c, row in zip(coeffs, head[lead + 1:]):
                if c:
                    word = add(word, scale(c, row))
            best = min(best, int(np.count_nonzero(
                table != word.astype(table.dtype), axis=1).min()))
    return best


def min_distance(X: ToricSet, d: int,
                 budget: int = DEFAULT_DIST_BUDGET,
                 max_entries: int = DEFAULT_MATRIX_BUDGET) -> int | None:
    """Exact minimum Hamming weight over all nonzero codewords, or
    None when q^dimension exceeds the enumeration budget."""
    return code_params(X, d, budget, max_entries).min_distance


def code_params(X: ToricSet, d: int,
                dist_budget: int = DEFAULT_DIST_BUDGET,
                max_entries: int = DEFAULT_MATRIX_BUDGET) -> CodeParams:
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
    basis = entries[np.sort(first)]
    dim = len(basis)
    n = len(X)
    if X.field.q ** dim > dist_budget:
        return CodeParams(X.field.q, d, n, dim, None, (1, n - dim + 1), None)
    dist = _min_weight(basis, X.field)
    return CodeParams(X.field.q, d, n, dim, dist, None, n - dim + 1 - dist)


def singleton_check(params: CodeParams) -> bool:
    """distance <= n - dimension + 1; requires an exact distance."""
    if params.min_distance is None:
        raise ValueError("singleton check needs an exact minimum distance")
    return params.min_distance <= params.n - params.dimension + 1
