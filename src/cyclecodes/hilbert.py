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

Each route is one function that returns H(d) at each d of a list of
degrees, 0 below degree 0.  The counting routes and degenerate_torus_at
build their Hilbert series N(x)/(1-x)^n as one Series value and read
it with Series.at (Cox, Little, O'Shea, Ideals, Varieties, and
Algorithms, Ch. 9 §3).  A box {0 <= a_i <= b_i} has N = prod (1 -
x^(b_i+1)), and with y = x^((q-1)/2) every route's N is short in y.

All counting is exact integer arithmetic.  The betas need no linear
solve: they are the coordinates of the footprint numerator's cycle
factor in the basis of the tori's numerators (solve_betas).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, repeat
from math import comb, gcd
from typing import NamedTuple

from .cyclegraph import CycleFamilySpec, cardinality_formula, gamma_of
from .errors import CheckFailure, UnsupportedSpec, check_budget
from .gf import Field

# union numerator terms x degrees read; a union numerator has under
# 3(gamma+1) terms, three times the gamma+1 box counts it combines
DEFAULT_UNION_BUDGET = 3 << 20


# -- Hilbert series ---------------------------------------------------------

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


def _is_table(degrees) -> bool:
    """Whether degrees is a table range(D + 1), D >= 0."""
    return (isinstance(degrees, range) and len(degrees) > 0
            and degrees == range(len(degrees)))


class Series(NamedTuple):
    """The Hilbert series N(x)/(1-x)^n, N = sum_t coeffs[t] x^(t*step).
    Its exact-degree counts N(x)/(1-x)^n are a polynomial of degree
    deg N - n, so H is constant from top = deg N - n on."""

    step: int
    coeffs: list[int]
    n: int

    @property
    def top(self) -> int:
        return (len(self.coeffs) - 1) * self.step - self.n

    def at(self, degrees) -> list[int]:
        """H(d) = sum_{t*step <= d} N_t C(d - t*step + n, n) at each d
        of degrees: a table range(D + 1) takes n + 1 running sums of N
        through min(D, top), other degrees deg N + 1 binomials each."""
        step, coeffs, n, top = self.step, self.coeffs, self.n, self.top
        if _is_table(degrees):
            values = [0] * min(len(degrees), top + 1)
            values[::step] = coeffs[:(len(values) + step - 1) // step]
            for _ in range(n + 1):
                values = list(accumulate(values))
            values.extend(repeat(values[-1], len(degrees) - len(values)))
            return values
        values = {d: sum(c * comb(d - t * step + n, n)
                         for t, c in enumerate(coeffs[:d // step + 1]))
                  for d in {min(d, top) for d in degrees if d >= 0}}
        return [values[min(d, top)] if d >= 0 else 0 for d in degrees]


def _last_read(degrees, size: int, step: int, n: int) -> int:
    """The last coefficient index that ``Series.at(degrees)`` reads of a
    numerator of size coefficients in x^step over (1-x)^n: through
    min(max degree, top) // step, all of them when degrees is None."""
    if degrees is None:
        return size - 1
    last = (len(degrees) - 1 if _is_table(degrees)
            else max(degrees, default=-1))
    return max(min(last, (size - 1) * step - n), 0) // step


def _padded(step: int, num: list[int], size: int, n: int) -> Series:
    """The series of num, padded with zeros to size coefficients: a
    numerator cut at the last index read keeps its length and top."""
    return Series(step, num + [0] * (size - len(num)), n)


def box_numerator(bounds, degrees) -> Series:
    """The series of the box {0 <= a_i <= b_i}: N = prod (1 - x^(b+1))
    in x^step, step the gcd of the b + 1, one binomial factor
    (1 - x^(b+1))^m per bound b that m of the b_i equal.  Only the
    coefficients that ``Series.at(degrees)`` reads are built
    (_last_read)."""
    step = gcd(*(b + 1 for b in bounds)) or 1
    size = 1 + sum((b + 1) // step for b in bounds)
    cap = _last_read(degrees, size, step, len(bounds))
    num = [1]
    for b, m in Counter(bounds).items():
        e = (b + 1) // step
        factor = [0] * (min(m * e, cap) + 1)
        for t in range(min(m, cap // e) + 1):
            factor[t * e] = (-1) ** t * comb(m, t)
        num = _conv(factor, num, cap)
    return _padded(step, num, size, len(bounds))


def count_box_degree(bounds, d: int) -> int:
    """#{a : 0 <= a_i <= b_i, sum(a) <= d}."""
    return box_numerator(bounds, [d]).at([d])[0]


# -- footprint route -------------------------------------------------------

def footprint_numerator(spec: CycleFamilySpec, field: Field,
                        degrees=None) -> Series:
    """The footprint's series, its numerator over (1-x)^nvars.

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

    Given degrees, only the coefficients that ``Series.at(degrees)``
    reads are built (_last_read).
    """
    q, n = field.q, spec.nvars
    step, masks = q - 1, []
    if (q - 1) % 2 == 0:
        step = (q - 1) // 2
        for k, m in spec.components:
            masks += [[comb(k, v) for v in range(gamma_of(k) + 1)]] * m
    size = n + 1 + sum(len(mask) - 1 for mask in masks)
    cap = _last_read(degrees, size, step, n)
    num = [(-1) ** t * comb(n, t) for t in range(min(n, cap) + 1)]
    for mask in masks:
        num = _conv(mask, num, cap)
    return _padded(step, num, size, n)


def footprint_at(spec: CycleFamilySpec, field: Field, degrees) -> list[int]:
    """H(d) at each d of degrees by the footprint."""
    return footprint_numerator(spec, field, degrees).at(degrees)


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
    Its series is the c_j-sum of the j-boxes' (_tori_sum), k + gamma + 1
    numerator terms in y = x^((q-1)/2), of which only those that the
    degrees read are built; DEFAULT_UNION_BUDGET bounds the terms times
    the rows read before the numerator is built.
    """
    q = field.q
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec(
            "the union formula needs q-1 even; for q even X* is the full "
            "torus and the footprint box applies")
    terms = k + gamma_of(k) + 1
    top = (terms - 1) * ((q - 1) // 2) - k  # the top of _tori_sum's value
    rows = (min(len(degrees), top + 1) if _is_table(degrees)
            else len({min(d, top) for d in degrees if d >= 0}))
    check_budget(f"union formula of {terms} numerator terms at {rows} "
                 "degrees", terms * rows, "cells", DEFAULT_UNION_BUDGET)
    return _tori_sum(union_coefficients(k), k, field, degrees).at(degrees)


def _tori_sum(weights: list[int], k: int, field: Field, degrees) -> Series:
    """The series of sum_i weights[i] H_i, H_i the i-th torus's: its
    box has i bounds q-2 and k-i bounds (q-1)/2 - 1, so its numerator
    is (1-y^2)^i (1-y)^(k-i) = (1-y)^k (1+y)^i in y = x^((q-1)/2).
    Only the coefficients that ``Series.at(degrees)`` reads are built
    (_last_read)."""
    step, size = (field.q - 1) // 2, k + len(weights)
    cap = _last_read(degrees, size, step, k)
    return _padded(step, _conv(
        [(-1) ** t * comb(k, t) for t in range(min(k, cap) + 1)],
        [sum(w * comb(i, v) for i, w in enumerate(weights))
         for v in range(min(len(weights) - 1, cap) + 1)], cap), size, k)


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
    bounds = [q - 2] * i + [(q - 1) // 2 - 1] * (k - i)
    return box_numerator(bounds, degrees).at(degrees)


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
    series = footprint_numerator(spec, field)
    top = spec.nvars * (field.q - 2)

    def h(d):
        return series.at([d])[0]

    d = bisect_left(range(top + 1), target, key=h)
    if d > top or h(d) != target:
        raise CheckFailure(
            f"footprint total {h(top)} never reached |X*| = {target}; "
            "the two routes disagree")
    return d


# -- beta decomposition ------------------------------------------------------

class BetaDecomposition(NamedTuple):
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
    coefficients s_0..s_gamma are those of N/(1-y)^k, the series
    N(y)/(1-y)^(k-1) read at 0..gamma; with y = z - 1 they give
    beta_i = sum_{v=i..gamma} s_v C(v, i) (-1)^(v-i).
    The one check, sum beta_i N_i = N, catches a division that is not
    exact and a quotient of degree above gamma.  It compares the two
    series, so the identity holds at every degree, reported as
    through regularity + 1.
    """
    if (field.q - 1) % 2 != 0:
        raise UnsupportedSpec("beta decomposition needs q-1 even")
    gamma = gamma_of(k)
    spec = CycleFamilySpec.single(k)
    target = footprint_numerator(spec, field)
    s = Series(1, target.coeffs, k - 1).at(range(gamma + 1))
    betas = [sum(s[v] * comb(v, i) * (-1) ** (v - i)
                 for v in range(i, gamma + 1))
             for i in range(gamma + 1)]
    if _tori_sum(betas, k, field, None) != target:
        raise CheckFailure("beta identity fails: sum beta_i N_i is not "
                           "the footprint numerator")
    return BetaDecomposition(tuple(betas),
                             regularity_formula(spec, field) + 1)
