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
distinct characters, read as a Hilbert series.  The characters of
one k-cycle come from one pass over its exponent box [0, q-2]^k, which
keeps the least degree of each of the (q-1)^k possible characters in
one array.  Elimination (rank_at) stays as the linear-algebra
reference for that count.

For the same reason the code's basis, dimension and orbit group come
from one array of the monomials' characters (code_params), with no
row reduction and no matrix.  The minimum distance is searched over
orbits (_min_weight): X* is a group, translating a codeword by an
element of X* permutes its coordinates and scales the coefficient of
each basis row by that row's character, and scaling by F_q^* keeps the
support, so the weight is constant on the orbits of G = F_q^* x X* on
messages.  The search has two phases.  A depth-first walk over the
basis rows that carries a
stabilizer chain of G picks exactly one message per orbit; it runs in
integers alone (_orbit_tree), works out each stabilizer once per set of
generators, and keeps the resulting tree with each repeated subtree
once, counting the representatives that the search's budget reads.
The codewords of those messages are then built in numpy
(_orbit_blocks), a node's from its parent's plus a multiple of one
basis row, one row at a time for all nodes of a pass, and scored one
pass at a time.

One arithmetic path serves both kinds of field.  Every entry of the
matrix is a unit, held as its discrete log: the log of t^a at the
point of logs l (a row of X.logs) is (a . l) mod (q-1).  The distance
search gets its basis as logs; products are antilogs of sums of logs
(Field.exp), and sums are Field.iadd.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import groupby
from math import gcd
from typing import NamedTuple

import numpy as np

from .cyclegraph import DEFAULT_ENUM_BUDGET, CycleFamilySpec, ToricSet
from .errors import (
    check_budget,
    check_product_budget,
    decimal_text,
    refuse_past_bits,
)
from .gf import Field
from .hilbert import _numerator, count_box_degree

Monomial = tuple[int, ...]

# Most codeword cells in one pass of the distance search, besides its
# parent block, unless one word's extensions by one row are more; it
# bounds the memory of the search whatever the code's size.  A pass
# also holds a gather of parent words and the scoring's mask, so 2^17
# cells keep a pass to a few hundred KB.
_TABLE_CELLS = 1 << 17

# Most cells in one slice of the character count; it keeps the slices'
# arrays to a few MB, small next to the count's r^k array.
_SLICE_CELLS = 1 << 18


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
    rows of X.logs in order, logs = the discrete logs of the monomial
    values, each a unit, in the smallest unsigned dtype that holds
    q-2."""

    monomials: tuple[Monomial, ...]
    logs: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.logs.shape


def check_matrix_budget(nvars: int, q: int, points, d: int,
                        max_entries: int) -> None:
    """Raise BudgetExceeded when the degree-d evaluation matrix on the
    points would have more than max_entries entries; points is |X*| as
    (count, m) pairs whose count^m multiply to it, as from
    cardinality_factors.  The basis is counted, not listed; there is at
    least one row, so points whose count is past bounds by its bit
    lengths alone are refused before the rows are counted."""
    refuse_past_bits("evaluation matrix", points, "entries")
    rows = count_box_degree({min(q - 2, d): nvars}, d)
    check_product_budget("evaluation matrix", [(rows, 1), *points],
                         "entries", max_entries)


def build_evaluation_matrix(X: ToricSet, d: int,
                            max_entries: int = DEFAULT_ENUM_BUDGET
                            ) -> EvaluationMatrix:
    """The degree-d evaluation matrix as logs: one integer matmul of the
    basis exponents with X.logs, both in the narrowest dtype that holds
    q-1 and a degree times the largest log, reduced mod q-1 in place."""
    q = X.field.q
    check_matrix_budget(X.nvars, q, [(len(X), 1)], d, max_entries)
    monos = monomial_basis(X.nvars, q, d)
    dtype = np.min_scalar_type(max(min(d, X.nvars * (q - 2)) * (q - 2), q - 1))
    exponents = np.array(monos, dtype=dtype).reshape(len(monos), X.nvars)
    logs = exponents @ X.logs.T.astype(dtype, copy=False)
    logs %= q - 1
    return EvaluationMatrix(tuple(monos), logs.astype(
        np.min_scalar_type(q - 2), copy=False))


# -- elimination -------------------------------------------------------------

def rank_at(X: ToricSet, degrees) -> list[int]:
    """H(d) at each d of degrees as the dimension of the degree-d
    evaluation code, the rank oracle.  One matrix is built through the
    largest d; its rows taken in reverse go by increasing degree, and
    they are the columns of the transpose A, one row per point.  A
    column raises the rank exactly when a row not yet a pivot is
    nonzero there; that row becomes its pivot, and one array step
    clears the column from every remaining row: a row whose entry there
    is a gains -(a/b) times the pivot row, whose entry there is b, on
    the columns where the pivot row is nonzero.  Products are antilogs
    of sums of logs, log(-1) being (q-1)/2 for odd q and 0 for even q,
    and sums are Field.iadd, in the narrowest unsigned dtype that holds
    2q-2."""
    field = X.field
    r = field.q - 1
    M = build_evaluation_matrix(X, max(max(degrees, default=0), 0))
    dtype = np.min_scalar_type(2 * r)
    # antilogs of 0..2r-1, so a sum of two logs needs no reduction mod r
    exp, log = np.tile(field.exp, 2).astype(dtype), field.log.astype(dtype)
    minus_one = r // 2 if field.q % 2 else 0
    A = exp[M.logs[::-1].T]
    top, ranks = 0, []  # rows above top are the pivots so far
    for j in range(A.shape[1]):
        rows = top + np.flatnonzero(A[top:, j])
        if rows.size:
            # the first such row is the pivot; the row it swaps with is
            # 0 here, so the rest are the rows to clear
            A[[top, rows[0]]] = A[[rows[0], top]]
            rows, cols = rows[1:], j + 1 + np.flatnonzero(A[top, j + 1:])
            shift = (minus_one - int(log[A[top, j]])) % r  # log of -1/b
            factor = (log[A[rows, j]] + shift) % r
            products = exp[factor[:, None] + log[A[top, cols]]]
            cells = np.ix_(rows, cols)
            A[cells] = field.iadd(A[cells], products)
            top += 1
        ranks.append(top)
    row_degrees = [sum(m) for m in reversed(M.monomials)]
    return [ranks[bisect_right(row_degrees, d) - 1] if d >= 0 else 0
            for d in degrees]


# -- distinct characters ----------------------------------------------------

def _cycle_character_degrees(k: int, r: int, dmax: int) -> list[int]:
    """How many distinct characters of one k-cycle copy first appear in
    each degree through dmax, with exponents taken mod r = q-1.

    The monomial t^a, a in [0, r-1]^k (t^(q-1) = 1 on units, the cap of
    monomial_basis), restricts to the character coded as the base-r
    integer sum_v ((a_v + a_(v-1)) mod r) r^v, vertex v lying on edges
    v-1 and v.  The vectors of degree <= D = min(dmax, k(r-1)) are
    built by extending prefixes one exponent at a time, a prefix whose
    degree passes D dropped, and one scatter keeps the least degree of
    each code in an r^k array.  Each character has one or two vectors
    in the box (the kernel of a -> B^T a mod r is {0}, or {0,
    (r/2)(1,...,1)} when r is even), so the work is at most twice the
    characters counted.  Prefixes are extended in slices of at most
    _SLICE_CELLS cells, and the array is counted by least degree in
    slices of the same size."""
    top = min(dmax, k * (r - 1))
    itype = np.int32 if r ** k <= 2 ** 31 else np.int64  # holds every code
    e = np.arange(min(r - 1, top) + 1, dtype=itype)
    digit = (np.arange(r, dtype=itype)[:, None] + e) % r  # (a + b) mod r
    close = digit - digit[:, :1]  # (a + b) mod r - a
    dtype = np.min_scalar_type(top + 1)
    # top + 1 - the least degree of each code, 0 where none is reached,
    # so the pages of codes never reached are never mapped
    least = np.zeros(r ** k, dtype=dtype)
    step = max(1, _SLICE_CELLS // len(e))
    # slices of prefixes a_0..a_(v-1): their degree, code and a_(v-1),
    # the code holding a_0 in place of vertex 0's digit until a_(k-1);
    # a stack, not recursion, so k is not bound by the recursion limit
    stack = [(1, e, e, e)]
    while stack:
        v, deg, code, prev = stack.pop()
        deg2 = deg[:, None] + e
        keep = deg2 <= top
        cells = digit[prev] * r ** v
        cells += code[:, None]
        if v < k - 1:
            deg, code, prev = deg2[keep], cells[keep], np.nonzero(keep)[1]
            stack += [(v + 1, deg[i:i + step], code[i:i + step],
                       prev[i:i + step]) for i in range(0, len(deg), step)]
            continue
        cells += close[code % r]
        np.maximum.at(least, cells[keep],
                      (top + 1 - deg2[keep]).astype(dtype))
    counts = np.zeros(top + 2, dtype=np.int64)
    for i in range(0, len(least), _SLICE_CELLS):
        part = least[i:i + _SLICE_CELLS]
        if part.any():
            counts += np.bincount(part, minlength=top + 2)
    counts = counts[:0:-1].tolist()  # by least degree, 0..top
    while not counts[-1]:
        counts.pop()
    return counts


def character_at(spec: CycleFamilySpec, q: int, degrees,
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
    per-copy counts by least degree multiply as polynomials: N is the
    product over the families of their counts to the power m, built by
    hilbert._numerator in one recurrence, not one product per copy.
    Each distinct cycle length k enumerates its exponent box [0,
    q-2]^k up to the largest d and keeps the least degree of each
    character in one array of (q-1)^k states
    (_cycle_character_degrees).  Those states, and then the cells of
    one product per copy, an upper bound on the product's work, are
    checked against ``budget``, and against what one array can index,
    before any count starts."""
    r = q - 1
    lengths = sorted(spec.lengths)
    for k in lengths:
        check_product_budget(f"counting the characters of one {k}-cycle "
                             f"copy over F_{q}", [(r, k)], "states", budget)
    dmax = max(max(degrees, default=0), 0)
    # the cells of one product per copy, of that copy's counts and of
    # a product no longer than the counts of all copies: an upper bound
    # on the builder's work, which takes a few products per coefficient
    width = min(dmax, spec.nvars * (r - 1)) + 1
    cells = width * sum(m * (min(dmax, k * (r - 1)) + 1)
                        for k, m in spec.components)
    copies = sum(m for _, m in spec.components)
    check_budget(f"multiplying the character counts of "
                 f"{decimal_text(copies)} cycle copies over F_{q}", cells,
                 "cells", budget)
    per_k = {k: _cycle_character_degrees(k, r, dmax) for k in lengths}
    return _numerator(1, [(per_k[k], len(per_k[k]) - 1, m)
                          for k, m in spec.components], 0, degrees).at(degrees)


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
    kernel = [tuple([(a - row[j] // h * b) % r
                     for a, b in zip(row[j + 1:], pivot)]) if row[j]
              else row[j + 1:] for row in gens]
    kernel.append(tuple([b * (r // h) % r for b in pivot]))
    return [row for row in dict.fromkeys(kernel) if any(row)]


def _characters(spec: CycleFamilySpec, a: np.ndarray, q: int) -> np.ndarray:
    """The characters B^T a mod q-1 on X*, the edge-product image of the
    vertex torus, of the rows t^a of a, B the edge-vertex incidence
    matrix: a_v + a_prev(v) at vertex v, on edges prev(v) and v."""
    prev = [off + (j - 1) % k for k, off in spec.blocks() for j in range(k)]
    return (a + a[:, prev]) % (q - 1)


class _OrbitTree(NamedTuple):
    """The orbit walk's tree, each subtree kept once: below a node whose
    stabilizer is number k, the next nonzero coefficient is the j-th
    row after the node's own, omega^x with x in [0, h), for (h, child)
    = choices[k][j], and child numbers the stabilizer of that choice;
    below[k] representatives lie below such a node, per representative
    of it.  The root, the zero message, is the last number."""

    choices: list[list[tuple[int, int]]]
    below: list[int]


def _orbit_tree(gens: np.ndarray, r: int) -> _OrbitTree:
    """The walk that visits one message per orbit of G on nonzero
    messages, in integers alone; gens holds G's log generators on the
    coefficients of the basis rows (see code_params).

    The walk goes depth first over the rows.  At each row the message
    is zero, which leaves the generators as they are, or omega^x with
    x in [0, h), h = gcd(q-1, that column of the generators of the
    current stabilizer), and the stabilizer of the choice comes next.
    A support S thus gets (q-1)^|S| / |L_S| representatives, L_S the
    image of G on S, and the first nonzero coefficient is 1 (h = 1,
    since scaling is in G).  The stabilizer does not depend on x, and
    the walk meets the same generators again and again, so h and the
    stabilizer of each column are worked out once per generators.  The
    count of representatives is checked against what one array can
    index before any word is built."""
    number = {}  # (generators, width) -> their number
    tree = _OrbitTree([], [])

    def index(gens, width):
        k = number.get((gens, width))
        if k is None:
            column = []
            for j in range(width):
                h = gcd(r, *[g[j] for g in gens])
                child = tuple(_stabilizer(gens, j, h, r)) \
                    if j + 1 < width else ()
                column.append((h, index(child, width - j - 1)))
            k = number[gens, width] = len(tree.choices)
            tree.choices.append(column)
            tree.below.append(sum(h * (1 + tree.below[c]) for h, c in column))
        return k

    index(tuple(map(tuple, gens.tolist())), gens.shape[1])
    check_budget("searching the minimum distance", tree.below[-1],
                 "orbit representatives", sys.maxsize)
    return tree


def _orbit_blocks(basis: np.ndarray, tree: _OrbitTree, field: Field):
    """Yield blocks of codewords whose messages are, all blocks together,
    exactly the representatives of tree, from _orbit_tree.

    A node's words are its parent's words, each plus omega^x * row for
    x in [0, h).  A pass lays out some nodes below one node in
    integers (parent, row, h, and representatives per word of that
    node), then builds their words from that node's words, the parent
    block, one basis row at a time: the nodes of one row and h whose
    parents' words lie in one array (the parent block or the pass's
    own) are one gather of those words and one Field.iadd into the
    pass's block.  Sibling subtrees that fit _TABLE_CELLS cells
    together, given the size of the parent block, share one pass; a
    node whose subtree does not fit is a pass of its own, over slices
    of the parent block that fit (or one word, when its h extensions
    alone are more), and its block is the parent block of its
    children.  So a block holds at most _TABLE_CELLS cells, besides
    its parent block, and only one pass's nodes are laid out at a
    time.  basis holds the logs of the basis rows, so a row's multiples
    omega^x * row, x in [0, h), are the antilogs of x plus its logs;
    they are built when a pass first reads h of them and kept: n bytes
    each (2n for q > 128), not q-1 per row."""
    r = field.q - 1
    n = basis.shape[1]
    dtype = np.min_scalar_type(2 * r)
    # antilogs of 0..2r-1, so a sum of two logs needs no reduction mod r
    exp = np.tile(field.exp, 2).astype(dtype)
    x = np.arange(r, dtype=dtype)[:, None]
    multiples = {}  # row -> its first multiples, as many as were read
    choices, below = tree

    def lay_out(nodes, p, c, h, k, m):
        # append, in preorder, the node of row c, h and stabilizer k
        # below node p of nodes (-1: the parent block's node), which
        # stands for m representatives per word of the parent block,
        # and the nodes below it
        i = len(nodes)
        nodes.append((c, h, p, m * h))
        for j, (h2, k2) in enumerate(choices[k]):
            lay_out(nodes, i, c + 1 + j, h2, k2, m * h)

    def build(nodes, block):
        # the words of nodes from block, in one buffer where the nodes of
        # one group (row, h, and whether the parent's words are in block
        # or in the buffer) are consecutive and rows increase, so every
        # node's parent words are built before its own; a node's words
        # are its parent's words in order, each plus omega^x, x in [0, h)
        group = [(c, h, p >= 0) for c, h, p, _ in nodes]
        order = sorted(range(len(nodes)), key=group.__getitem__)
        first, size = [0] * len(nodes), 0
        for i in order:
            first[i] = size
            size += len(block) * nodes[i][3]
        out = np.empty((size, n), dtype=dtype)
        for (c, h, inner), run in groupby(order, key=group.__getitem__):
            run = list(run)
            src = out if inner else block
            starts = [first[nodes[i][2]] if inner else 0 for i in run]
            runs = [len(block) * nodes[i][3] // h for i in run]
            if len(run) == 1:  # one run of parent words: a slice
                parent_words = src[starts[0]:starts[0] + runs[0]]
            else:
                ends = np.cumsum(runs)
                parent_words = src[np.arange(ends[-1]) + np.repeat(
                    np.array(starts) - ends + runs, runs)]
            if len(multiples.get(c, ())) < h:
                multiples[c] = exp[x[:h] + basis[c]]
            lo = first[run[0]]
            words = out[lo:lo + h * sum(runs)].reshape(-1, h, n)
            words[...] = parent_words[:, None]
            field.iadd(words, multiples[c][:h])
        return out

    def walk(k, start, block):
        # the words below a node of stabilizer k whose words are block
        nodes, cells = [], 0  # laid out, waiting for a pass
        for j, (h, child) in enumerate(choices[k]):
            size = len(block) * h * (1 + below[child]) * n
            if cells + size > _TABLE_CELLS and cells:
                yield build(nodes, block)
                nodes, cells = [], 0
            if size > _TABLE_CELLS:
                step = max(1, _TABLE_CELLS // (h * n))
                for i in range(0, len(block), step):
                    own = build([(start + j, h, -1, h)], block[i:i + step])
                    yield own
                    yield from walk(child, start + j + 1, own)
            else:
                lay_out(nodes, -1, start + j, h, child, 1)
                cells += size
        if cells:
            yield build(nodes, block)

    yield from walk(len(choices) - 1, 0, np.zeros((1, n), dtype=dtype))


def _min_weight(basis: np.ndarray, tree: _OrbitTree, field: Field) -> int:
    """Least Hamming weight of a nonzero codeword of the row space of
    the rows whose logs are basis.

    The rows are characters of X*, so G = F_q^* x X* acts on messages:
    translating a codeword by g in X* permutes its coordinates and
    scales the coefficient of row a by chi_a(g), and scaling by lambda
    keeps the support.  The weight is constant on each orbit, so only
    the orbit representatives of tree are scored, one count
    per block, summed in the narrowest dtype that holds n, which is
    faster than count_nonzero's intp; the search stops at weight 1."""
    best = len(basis[0])
    weight = np.min_scalar_type(best)
    for block in _orbit_blocks(basis, tree, field):
        best = min(best, int(np.add.reduce(block != 0, 1, weight).min()))
        if best == 1:
            break
    return best


def code_params(X: ToricSet, d: int,
                max_entries: int = DEFAULT_ENUM_BUDGET) -> CodeParams:
    """Length, dimension and (budget permitting) exact min distance.

    Rows of the evaluation matrix are characters of the group X*, equal
    for equal monomial characters, independent when distinct (Artin):
    the first monomial of each distinct character (told apart by its
    bytes) is a basis in matrix order, whose size is the dimension.
    Dimension n is all of F_q^n, distance 1.  Else the distance is
    searched in the group G generated by the all-ones vector (scalars)
    and the characters' columns (X*), on the basis rows' logs (the
    matrix's one use), when its cells, orbit representatives x n, fit
    max_entries, else bracketed.  |G| = (q-1)n, so the normalized
    messages (q^dim - 1)/(q - 1) bound those cells below, before any
    tree is built."""
    q, n = X.field.q, len(X)
    check_matrix_budget(X.nvars, q, [(n, 1)], d, max_entries)
    chars = _characters(X.spec, np.array(monomial_basis(X.nvars, q, d),
                        dtype=np.min_scalar_type(2 * (q - 2))), q)
    row_bytes = chars.view(np.dtype((np.void, chars[0].nbytes)))
    kept = np.sort(np.unique(row_bytes.ravel(), return_index=True)[1])
    dim = len(kept)
    if dim == n:
        return CodeParams(q, d, n, dim, 1, None, 0)
    if (q ** dim - 1) // (q - 1) <= max_entries:
        tree = _orbit_tree(np.vstack([np.ones(dim, dtype=chars.dtype),
                                      chars[kept].T]), q - 1)
        if tree.below[-1] * n <= max_entries:
            dist = _min_weight(build_evaluation_matrix(X, d, max_entries)
                               .logs[kept], tree, X.field)
            return CodeParams(q, d, n, dim, dist, None, n - dim + 1 - dist)
    return CodeParams(q, d, n, dim, None, (1, n - dim + 1), None)


def singleton_check(params: CodeParams) -> bool:
    """distance <= n - dimension + 1; requires an exact distance."""
    if params.min_distance is None:
        raise ValueError("singleton check needs an exact minimum distance")
    return params.min_distance <= params.n - params.dimension + 1
