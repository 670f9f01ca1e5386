"""Hilbert functions, regularity and the beta decomposition.

The central object is the affine Hilbert function H(d): the number of
standard monomials of total degree <= d, i.e. monomials divisible by no
leading term of the ideal's generator set.  Three independent routes
compute it:

* footprint counting (footprint_at): the leading terms confine each
  cycle block's exponents to a product structure — per block, exponents
  split into a "low" range 0..(q-3)/2 and a "high" range (q-1)/2..q-2,
  and a standard monomial has at most gamma high exponents in each
  block;
* the union formula (union_at): H(d) for a single cycle equals the
  size of a union of C(k, gamma) explicit boxes.  Inclusion-exclusion
  over them collapses, by Möbius inversion over the subset lattice, to
  gamma+1 box counts with the closed-form coefficients
  c_j = (-1)^(gamma-j) C(k, j) C(k-j-1, gamma-j), so the route is
  available for every odd k;
* evaluation-matrix rank (codes.rank_at): H(d) equals the dimension
  of the degree-d evaluation code, found by row reduction, or by
  counting the distinct characters that monomials restrict to on X*
  (codes.character_at).

Each route is one function with one contract: H(d) at each d of a list
of degrees, as a list, 0 below degree 0 and constant past the last
degree at which the count grows.  degenerate_torus_at reads the
degenerate tori's Hilbert functions the same way.

Each counting route builds the numerator N of its Hilbert series
N(x)/(1-x)^n (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms,
Ch. 9 §3).  A box {0 <= a_i <= b_i} has N = prod (1 - x^(b_i+1)), and
with y = x^((q-1)/2) every route's N is a short polynomial in y.  The
routes read H(d) = sum_e N_e C(d - e + n, n) at the degrees they need
(series_at): deg N + 1 binomials per degree whatever q is, or n + 1
running sums for a whole table.

All counting is exact integer arithmetic.  The betas need no linear
solve: they are the coordinates of the footprint numerator's cycle
factor in the basis of the tori's numerators (solve_betas).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb, gcd

from .cyclegraph import CycleFamilySpec, cardinality_formula, gamma_of
from .errors import BudgetExceeded, CheckFailure, UnsupportedSpec
from .gf import Field

# union numerator terms x degrees read; a union numerator has under
# 3(gamma+1) terms, three times the gamma+1 box counts it combines
DEFAULT_UNION_BUDGET = 3 << 20


# -- Hilbert-series numerators ---------------------------------------------

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


def series_at(num: tuple[int, list[int]], n: int, degrees) -> list[int]:
    """H(d) = sum_{t*step <= d} N_t C(d - t*step + n, n) at each d of
    degrees: the series N(x)/(1-x)^n, num = (step, [N_0, N_1, ...]).

    The exact-degree counts N(x)/(1-x)^n are a polynomial of degree
    deg N - n, so H is constant from there on.  The run of degrees
    0..D is read as n + 1 running sums of N through D; other degrees
    as deg N + 1 binomials each."""
    step, coeffs = num
    top = (len(coeffs) - 1) * step - n
    rows = sorted({min(d, top) for d in degrees if d >= 0})
    if rows and rows[-1] == len(rows) - 1:
        values = [0] * len(rows)
        for t, c in enumerate(coeffs[:rows[-1] // step + 1]):
            values[t * step] = c
        for _ in range(n + 1):
            values = list(accumulate(values))
    else:
        values = {d: sum(c * comb(d - t * step + n, n)
                         for t, c in enumerate(coeffs[:d // step + 1]))
                  for d in rows}
    return [values[min(d, top)] if d >= 0 else 0 for d in degrees]


def box_numerator(bounds) -> tuple[int, list[int]]:
    """N = prod (1 - x^(b+1)) of the box {0 <= a_i <= b_i}, as
    (step, coefficients) in x^step, step the gcd of the b + 1."""
    step = gcd(*(b + 1 for b in bounds)) or 1
    num = [1]
    for b in bounds:
        num = _conv([1] + [0] * ((b + 1) // step - 1) + [-1], num)
    return step, num


def count_box_degree(bounds, d: int) -> int:
    """#{a : 0 <= a_i <= b_i, sum(a) <= d}."""
    return series_at(box_numerator(bounds), len(bounds), [d])[0]


# -- footprint route -------------------------------------------------------

def footprint_numerator(spec: CycleFamilySpec,
                        field: Field) -> tuple[int, list[int]]:
    """The footprint's numerator over (1-x)^nvars.

    When q-1 is even a block's leading terms are t_i^(q-1) and all
    (gamma+1)-fold products of (q-1)/2-th powers, so a block exponent
    vector is standard iff every exponent is <= q-2 and at most gamma
    of them are >= (q-1)/2.  Splitting each exponent into a low range
    (0..(q-1)/2-1) and an equally long high range gives the block's
    series ((1-y)/(1-x))^k * S_k(y), S_k(y) = sum_{v<=gamma} C(k,v) y^v
    and y = x^((q-1)/2); the graph's N is (1-y)^nvars times every
    block's S_k.

    When q-1 is odd there is no cycle part and every exponent is at
    most q-2: N = (1-y)^nvars with y = x^(q-1).
    """
    q, n = field.q, spec.nvars
    num = [(-1) ** t * comb(n, t) for t in range(n + 1)]
    if (q - 1) % 2 != 0:
        return q - 1, num
    for k, m in spec.components:
        mask = [comb(k, v) for v in range(gamma_of(k) + 1)]
        for _ in range(m):
            num = _conv(mask, num)
    return (q - 1) // 2, num


def footprint_at(spec: CycleFamilySpec, field: Field, degrees) -> list[int]:
    """H(d) at each d of degrees by the footprint."""
    return series_at(footprint_numerator(spec, field), spec.nvars, degrees)


# -- union-of-boxes route ---------------------------------------------------

def union_coefficients(k: int) -> list[int]:
    """c_0..c_gamma: the coefficient of the j-box count in the union
    of boxes of a k-cycle, derived in union_at."""
    gamma = gamma_of(k)
    return [(-1) ** (gamma - j) * comb(k, j) * comb(k - j - 1, gamma - j)
            for j in range(gamma + 1)]


def union_at(k: int, field: Field, degrees) -> list[int]:
    """H(d) at each d of degrees for a single k-cycle as the size of a
    union of boxes.

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
    So c_j = (-1)^(gamma-j) C(k, j) C(k-j-1, gamma-j) (union_coefficients).
    Its numerator is the c_j-sum of the j-boxes' numerators (_tori_sum),
    k + gamma + 1 terms in y = x^((q-1)/2); DEFAULT_UNION_BUDGET bounds
    the terms times the degrees read before the numerator is built.
    """
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec(
            "the union formula needs q-1 even; for q even X* is the full "
            "torus and the footprint box applies")
    half = (q - 1) // 2
    terms = k + gamma_of(k) + 1
    rows = len({min(d, (terms - 1) * half - k) for d in degrees if d >= 0})
    if terms * rows > DEFAULT_UNION_BUDGET:
        raise BudgetExceeded(
            f"union formula: {terms} numerator terms at {rows} degrees "
            f"need {terms * rows} cells, budget is {DEFAULT_UNION_BUDGET}")
    return series_at((half, _tori_sum(union_coefficients(k), k)), k,
                     degrees)


def _tori_sum(weights: list[int], k: int) -> list[int]:
    """sum_i weights[i] (1-y)^k (1+y)^i in y = x^((q-1)/2): the i-th
    torus's box has i bounds q-2 and k-i bounds (q-1)/2 - 1, so its
    numerator is (1-y^2)^i (1-y)^(k-i)."""
    return _conv([(-1) ** t * comb(k, t) for t in range(k + 1)],
                 [sum(w * comb(i, v) for i, w in enumerate(weights))
                  for v in range(len(weights))])


def degenerate_torus_at(i: int, k: int, field: Field, degrees) -> list[int]:
    """H(d) at each d of degrees for the i-th degenerate torus: i unit
    factors and k-i squares factors, i.e. the box with i bounds q-2 and
    k-i bounds (q-1)/2 - 1."""
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec("degenerate tori need q-1 even")
    gamma = gamma_of(k)
    if not 0 <= i <= gamma:
        raise ValueError(f"index {i} outside 0..{gamma}")
    half = (q - 1) // 2
    bounds = [q - 2] * i + [half - 1] * (k - i)
    return series_at(box_numerator(bounds), k, degrees)


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
    """Least d with H(d) = |X*|, by bisecting the monotone footprint
    count over the degrees 0..nvars(q-2) of exponents <= q-2."""
    target = cardinality_formula(spec, field.q)
    num = footprint_numerator(spec, field)
    top = spec.nvars * (field.q - 2)

    def h(d):
        return series_at(num, spec.nvars, [d])[0]

    d = bisect_left(range(top + 1), target, key=h)
    if d > top or h(d) != target:
        raise CheckFailure(
            f"footprint total {h(top)} never reached |X*| = {target}; "
            "the two routes disagree")
    return d


# -- beta decomposition ------------------------------------------------------

@dataclass(frozen=True)
class BetaDecomposition:
    """Integer coefficients with H(d) = sum of beta_i * H_i(d), where
    H_i is the i-th degenerate-torus Hilbert function."""

    betas: tuple[int, ...]
    verified_through: int


def solve_betas(k: int, field: Field) -> BetaDecomposition:
    """The beta coefficients of a single k-cycle, read off its
    footprint numerator.

    In y = x^((q-1)/2) the i-th torus has numerator (1-y)^k (1+y)^i
    (_tori_sum) and the footprint (1-y)^k S_k(y), so the betas are the
    coordinates of S_k in the basis (1+y)^i, i <= gamma.  Its
    coefficients s_0..s_gamma are those of N/(1-y)^k, k running sums
    of N's first gamma+1; with y = z - 1 they give
    beta_i = sum_{v=i..gamma} s_v C(v, i) (-1)^(v-i).
    The one check, sum beta_i N_i = N, catches a division that is not
    exact and a quotient of degree above gamma.  It compares numerators
    over (1-x)^k, so the identity holds at every degree, reported as
    through regularity + 1.
    """
    if (field.q - 1) % 2 != 0:
        raise UnsupportedSpec("beta decomposition needs q-1 even")
    gamma = gamma_of(k)
    spec = CycleFamilySpec.single(k)
    target = footprint_numerator(spec, field)[1]
    s = target[:gamma + 1]
    for _ in range(k):
        s = list(accumulate(s))
    betas = [sum(s[v] * comb(v, i) * (-1) ** (v - i)
                 for v in range(i, gamma + 1))
             for i in range(gamma + 1)]
    if _tori_sum(betas, k) != target:
        raise CheckFailure("beta identity fails: sum beta_i N_i is not "
                           "the footprint numerator")
    return BetaDecomposition(tuple(betas),
                             regularity_formula(spec, field) + 1)
