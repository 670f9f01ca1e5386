"""Hilbert functions, regularity and the beta decomposition.

The central object is the affine Hilbert function H(d): the number of
standard monomials of total degree <= d, i.e. monomials divisible by no
leading term of the ideal's generator set.  Three independent routes
compute it:

* footprint counting (this module): the leading terms confine each
  cycle block's exponents to a product structure that is counted by
  polynomial multiplication — per block, exponents split into a "low"
  range 0..(q-3)/2 and a "high" range (q-1)/2..q-2, and a standard
  monomial has at most gamma high exponents in each block;
* the union formula (this module): H(d) for a single cycle equals the
  size of a union of C(k, gamma) explicit boxes.  Inclusion-exclusion
  over them collapses, by Möbius inversion over the subset lattice, to
  gamma+1 box counts with the closed-form coefficients
  c_j = (-1)^(gamma-j) C(k, j) C(k-j-1, gamma-j), so the route is
  available for every odd k;
* evaluation-matrix rank (codes module): H(d) equals the dimension of
  the degree-d evaluation code, found by row reduction or by counting
  the distinct characters that monomials restrict to on X*.

Each counting route builds its degree vector once per command
(footprint_table, union_table, and the torus vectors inside
solve_betas), truncated at the largest degree the command reads when
that is known, and reads every degree from it.  A box factor
(1 + x + ... + x^b) is applied as a running window sum and a block's
sparse mask as gamma+1 shifted adds, so a vector costs time linear in
its length, which grows linearly in q.

All counting is exact integer arithmetic; the beta linear system is
solved by fraction-free Bareiss elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .cyclegraph import CycleFamilySpec, cardinality_formula, gamma_of
from .errors import (
    BudgetExceeded,
    CheckFailure,
    NonIntegerBeta,
    SingularSystem,
    UnsupportedSpec,
)
from .gf import Field

DEFAULT_UNION_BUDGET = 1 << 20


# -- box counting ----------------------------------------------------------

def _conv(a: list[int], b: list[int], cap: int | None = None) -> list[int]:
    """Coefficient convolution, optionally truncated at degree cap."""
    n = len(a) + len(b) - 1
    if cap is not None:
        n = min(n, cap + 1)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def count_box_by_degree(bounds, cap: int | None = None) -> list[int]:
    """Exact-degree counts of {a : 0 <= a_i <= b_i}: the coefficients
    of the product of (1 + x + ... + x^{b_i}), truncated at degree cap.

    Multiplying by one factor is a running sum over a window of b_i + 1
    coefficients, so each factor costs time linear in the vector."""
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


def count_box_degree(bounds, d: int) -> int:
    """#{a : 0 <= a_i <= b_i, sum(a) <= d}."""
    if d < 0:
        return 0
    return sum(count_box_by_degree(bounds, d))


def prefix_at(prefix: list[int], d: int) -> int:
    """A cumulative count at degree d: 0 below degree 0, and past the
    end of the vector the last value, which the count keeps from there
    on."""
    return prefix[min(d, len(prefix) - 1)] if d >= 0 else 0


# -- footprint route -------------------------------------------------------

def footprint_by_degree(spec: CycleFamilySpec, field: Field,
                        cap: int | None = None) -> list[int]:
    """Exact-degree standard-monomial counts for the whole graph,
    truncated at degree cap.

    When q-1 is even a block's leading terms are t_i^(q-1) and all
    (gamma+1)-fold products of (q-1)/2-th powers, so a block exponent
    vector is standard iff every exponent is <= q-2 and at most gamma
    of them are >= (q-1)/2.  Splitting each exponent into a low range
    (0..(q-1)/2-1) and an equally long high range gives the block's
    generating polynomial  low_box^k * sum_{v<=gamma} C(k,v) x^{v(q-1)/2}.
    The whole graph's vector is the product over blocks: every low box
    factor, then each block's sparse mask as gamma+1 shifted adds, each
    product truncated at the cap.

    When q-1 is odd there is no cycle part and every block is the
    plain box with every bound q-2.
    """
    q = field.q
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


def hilbert_footprint(spec: CycleFamilySpec, field: Field, d: int) -> int:
    """H(d) = number of standard monomials of degree <= d."""
    if d < 0:
        return 0
    return sum(footprint_by_degree(spec, field)[:d + 1])


# -- union-of-boxes route ---------------------------------------------------

def union_coefficients(k: int) -> list[int]:
    """c_0..c_gamma: the coefficient of the j-box count in the union
    of boxes of a k-cycle, derived in union_prefix."""
    gamma = gamma_of(k)
    return [(-1) ** (gamma - j) * comb(k, j) * comb(k - j - 1, gamma - j)
            for j in range(gamma + 1)]


def union_prefix(k: int, field: Field, dmax: int,
                 budget: int = DEFAULT_UNION_BUDGET) -> list[int]:
    """H(0), H(1), ... for a single k-cycle as the size of a union of
    boxes, through dmax or, sooner, through the degree past which the
    count stays constant.

    One box per gamma-subset H of the k variables: exponents bounded by
    q-2 inside H and by (q-1)/2 - 1 outside.  Inclusion-exclusion over
    the C(k, gamma) boxes; an intersection's bound is q-2 only at
    variables common to every participating H, so each term is a box
    count depending only on the common-intersection size j, and
    H = sum_j c_j * (j-box count), j = 0..gamma.

    c_j sums the signs (-1)^(|F|+1) over the nonempty families F of
    gamma-subsets whose common intersection is exactly a j-set J, over
    the C(k, j) choices of J.  Summed instead over the families whose
    intersection contains J, the signs are those of all nonempty
    subsets of the gamma-subsets containing J, which total 1 for every
    |J| <= gamma.  Möbius inversion over the subset lattice then gives
    the exact-intersection sum  sum_{i=0}^{gamma-j} (-1)^i C(k-j, i),
    an alternating partial sum equal to (-1)^(gamma-j) C(k-j-1, gamma-j).
    So c_j = (-1)^(gamma-j) C(k, j) C(k-j-1, gamma-j) (union_coefficients),
    and the union costs gamma+1 box vectors for every odd k; the budget
    bounds their cells.
    """
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec(
            "the union formula needs q-1 even; for q even X* is the full "
            "torus and the footprint box applies")
    gamma = gamma_of(k)
    half = (q - 1) // 2
    cells = (gamma + 1) * (min(dmax, k * (q - 2)) + 1)
    if cells > budget:
        raise BudgetExceeded(
            f"union formula: {gamma + 1} box vectors need {cells} cells, "
            f"budget is {budget}")
    terms = [(c, list(itertools.accumulate(count_box_by_degree(
        [q - 2] * j + [half - 1] * (k - j), dmax))))
        for j, c in enumerate(union_coefficients(k))]
    top = min(dmax, max(len(prefix) for _, prefix in terms) - 1)
    return [sum(c * prefix_at(prefix, d) for c, prefix in terms)
            for d in range(top + 1)]


def union_table(k: int, field: Field, dmax: int,
                budget: int = DEFAULT_UNION_BUDGET) -> "HilbertTable":
    """H(0)..H(dmax) for a single k-cycle by the union of boxes (see
    union_prefix)."""
    return HilbertTable.from_prefix(union_prefix(k, field, dmax, budget),
                                    dmax, "union_formula")


def hilbert_union_formula(k: int, field: Field, d: int,
                          budget: int = DEFAULT_UNION_BUDGET) -> int:
    """H(d) for a single k-cycle by the union of boxes (see
    union_prefix)."""
    return prefix_at(union_prefix(k, field, max(d, 0), budget), d)


def degenerate_torus_hilbert(i: int, k: int, field: Field, d: int) -> int:
    """Hilbert function of the i-th degenerate torus: i unit factors
    and k-i squares factors, i.e. the box with i bounds q-2 and k-i
    bounds (q-1)/2 - 1."""
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec("degenerate tori need q-1 even")
    gamma = gamma_of(k)
    if not 0 <= i <= gamma:
        raise ValueError(f"index {i} outside 0..{gamma}")
    half = (q - 1) // 2
    return count_box_degree([q - 2] * i + [half - 1] * (k - i), d)


# -- regularity -------------------------------------------------------------

def regularity_formula(spec: CycleFamilySpec, field: Field) -> int:
    """Closed-form stabilization degree of the Hilbert function.

    For q-1 even: sum over families of m(k+gamma)(q-1)/2 - km.  For
    q-1 odd X* is the full torus and the footprint is the plain box
    with all bounds q-2, which saturates at degree s(q-2).
    """
    q = field.q
    if (q - 1) % 2 == 0:
        half = (q - 1) // 2
        return sum(m * (k + gamma_of(k)) * half - k * m
                   for k, m in spec.components)
    return spec.nvars * (q - 2)


def regularity_bruteforce(spec: CycleFamilySpec, field: Field) -> int:
    """Least d with H(d) = |X*|, by scanning the footprint counts."""
    target = cardinality_formula(spec, field.q)
    acc = 0
    for d, c in enumerate(footprint_by_degree(spec, field)):
        acc += c
        if acc == target:
            return d
    raise CheckFailure(
        f"footprint total {acc} never reached |X*| = {target}; "
        "the two routes disagree")


# -- tables -----------------------------------------------------------------

@dataclass(frozen=True)
class HilbertTable:
    """H(0)..H(dmax) plus the route that produced the values."""

    values: tuple[int, ...]
    # "footprint" | "union_formula" | "rank_oracle" | "characters"
    source: str

    def __getitem__(self, d: int) -> int:
        return self.values[d]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dmax(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_prefix(cls, prefix: list[int], dmax: int,
                    source: str) -> "HilbertTable":
        """The table through dmax of a cumulative vector read by
        prefix_at."""
        return cls(tuple(prefix_at(prefix, d) for d in range(dmax + 1)),
                   source)


def footprint_prefix(spec: CycleFamilySpec, field: Field,
                     cap: int | None = None) -> list[int]:
    """H(0)..H(e) by the footprint, e the largest degree of a standard
    monomial, past which H stays constant; truncated at degree cap, so
    a capped vector is read only through the cap."""
    return list(itertools.accumulate(footprint_by_degree(spec, field,
                                                         cap)))


def footprint_table(spec: CycleFamilySpec, field: Field,
                    dmax: int) -> HilbertTable:
    return HilbertTable.from_prefix(footprint_prefix(spec, field, dmax),
                                    dmax, "footprint")


# -- beta decomposition ------------------------------------------------------

@dataclass(frozen=True)
class BetaDecomposition:
    """Integer coefficients with H(d) = sum of beta_i * H_i(d), where
    H_i is the i-th degenerate-torus Hilbert function."""

    betas: tuple[int, ...]
    sample_degrees: tuple[int, ...]
    verified_through: int


def _bareiss_forward(mat: list[list[int]]) -> tuple[int, int, list[list[int]]]:
    """Fraction-free forward elimination on an integer matrix.

    Returns (rank, row-swap sign, echelon form).  All divisions are
    exact by the Bareiss identity, so everything stays integral.
    """
    m = [[int(v) for v in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev = 1
    r = 0
    sign = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r, sign, m


def bareiss_rank(mat) -> int:
    if not mat:
        return 0
    rank, _, _ = _bareiss_forward(mat)
    return rank


def bareiss_det(mat) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    rank, sign, m = _bareiss_forward(mat)
    if rank < n:
        return 0
    return sign * m[n - 1][n - 1]


def solve_betas(k: int, field: Field,
                sample_degrees=None) -> BetaDecomposition:
    """Solve for the beta coefficients of a single k-cycle.

    Builds one equation per sample degree (default degrees 1..gamma+1)
    and solves the square system exactly.  If the chosen degrees give a
    singular system, the degrees 0..regularity not yet tried follow in
    increasing order, and a maximal independent subset is used: each
    degree is tested once, against the rows already chosen.  Degree 0
    matters at q = 3, where the boxes' bounds are 1 and 0, H_i(d) is
    sum_{e<=d} C(i, e), and only degrees 0..gamma are independent.
    The solved identity is then re-verified at every degree through
    regularity + 1.
    """
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec("beta decomposition needs q-1 even")
    gamma = gamma_of(k)
    size = gamma + 1
    spec = CycleFamilySpec.single(k)
    reg = regularity_formula(spec, field)
    target = footprint_prefix(spec, field)
    half = (q - 1) // 2
    tori = [list(itertools.accumulate(count_box_by_degree(
        [q - 2] * i + [half - 1] * (k - i)))) for i in range(size)]

    pool = list(sample_degrees) if sample_degrees is not None \
        else list(range(1, size + 1))
    chosen_rows: list[list[int]] = []
    chosen_degrees: list[int] = []
    for d in itertools.chain(pool, (e for e in range(reg + 1)
                                    if e not in pool)):
        row = [prefix_at(tori[i], d) for i in range(size)]
        if bareiss_rank([r[:size] for r in chosen_rows] + [row]) \
                > len(chosen_rows):
            chosen_rows.append(row + [prefix_at(target, d)])
            chosen_degrees.append(d)
            if len(chosen_rows) == size:
                break
    else:
        raise SingularSystem(
            f"no {size} independent sample degrees up to "
            f"regularity {reg} for k={k}, q={q}")

    a = [row[:size] for row in chosen_rows]
    b = [row[size] for row in chosen_rows]
    det = bareiss_det(a)
    betas = []
    for i in range(size):
        ai = [row[:i] + [b[r]] + row[i + 1:size]
              for r, row in enumerate(a)]
        di = bareiss_det(ai)
        if di % det != 0:
            raise NonIntegerBeta(
                f"beta_{i} = {di}/{det} is not an integer for k={k}, q={q}")
        betas.append(di // det)

    for d in range(reg + 2):
        lhs = sum(betas[i] * prefix_at(tori[i], d) for i in range(size))
        if lhs != prefix_at(target, d):
            raise CheckFailure(
                f"beta identity fails at degree {d}: "
                f"{lhs} != {prefix_at(target, d)}")
    return BetaDecomposition(tuple(betas), tuple(sorted(chosen_degrees)),
                             reg + 1)
