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
Algorithms, Ch. 9 §3).  Every N is a product of powers of short
polynomials: a box {0 <= a_i <= b_i} has N = prod (1 - x^(b_i+1)), and
with y = x^((q-1)/2) the footprint has N = (1-y)^nvars prod S_k(y)^m
over its families of m copies.  One builder, _numerator, makes every
N: it raises each factor to its power by J.C.P. Miller's recurrence,
a few products per coefficient whatever the number of copies, and
builds only the coefficients that the degrees read.

All counting is exact integer arithmetic on q = |K| alone: no route
uses field arithmetic, so each holds over any finite field K, as the
paper's counts do, and takes q as an int.  Its caller validates q (the
command line, through gf.field_new).  The betas need no linear
solve: they are the coordinates of the footprint numerator's cycle
factor in the basis of the tori's numerators (solve_betas).
"""

from __future__ import annotations

import sys
from itertools import accumulate, count, islice, repeat
from math import comb, gcd
from operator import add, mul
from typing import NamedTuple

from .cyclegraph import CycleFamilySpec, cardinality_formula, gamma_of
from .errors import CheckFailure, UnsupportedSpec, check_budget

# union numerator terms x degrees read; a union numerator has under
# 3(gamma+1) terms, three times the gamma+1 box counts it combines
DEFAULT_UNION_BUDGET = 3 << 20


# -- Hilbert series ---------------------------------------------------------

def _conv(a: list[int], b: list[int], cap: int | None = None) -> list[int]:
    """Coefficient convolution, optionally truncated at degree cap; the
    shorter list is the outer loop."""
    if len(a) > len(b):
        a, b = b, a
    n = len(a) + len(b) - 1
    if cap is not None:
        n = min(n, cap + 1)
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[:n - i], i):
            out[j] += ai * bj
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


def _numerator(step: int, factors, n: int, degrees,
               name: str = "Hilbert") -> Series:
    """The series prod p^m / (1-x)^n in x^step over the (p, deg, m) of
    factors, p an iterable of the coefficients of a factor of degree
    deg.  Only the coefficients that ``Series.at(degrees)`` reads are
    built, through min(max degree, top) // step, and only as many are
    taken from each p, so a factor may be a lazy map; the value keeps
    the full product's length and top, padded with zeros.  A length
    past what one list can index is refused first, as the ``name``
    numerator.

    Factors with m = 1 are multiplied in by _conv, so they may have any
    constant term.  The others start with 1, and their product P is
    built by J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2,
    §4.7): with D = prod p and A = sum (m+1) x p' D/p, x D P' = (A -
    x D') P, so j P_j = sum_(i>=1) (a_i - j d_i) P_(j-i), deg D
    products per coefficient whatever the m."""
    size = 1 + sum(deg * m for _, deg, m in factors)
    check_budget(f"{name} numerator", size, "coefficients", sys.maxsize)
    cap = size - 1  # the last coefficient read
    if degrees is not None:
        read = (len(degrees) - 1 if _is_table(degrees)
                else max(degrees, default=-1))
        cap = max(min(read, cap * step - n), 0) // step
    d, a, last, single = [1], [0], 0, []
    for p, deg, m in factors:
        p = list(islice(p, min(deg, cap) + 1))
        if m == 1:
            single.append(p)
        elif len(p) > 1:  # D p and A p + (m+1) x p' D, through the cap
            xdp = list(map(mul, count(0, m + 1), p))
            if last:
                xdp = list(map(add, _conv(p, a, cap), _conv(xdp, d, cap)))
                p = _conv(p, d, cap)
            d, a, last = p, xdp, last + m * min(deg, cap)
    num = [1]
    for j in range(1, min(cap, last) + 1):
        # j P_j, in one product when D = 1 + d_1 x, the usual case
        acc = (a[1] - j * d[1]) * num[-1] if len(d) == 2 else 0
        if len(d) > 2:
            for u, v, x in zip(a[1:], d[1:], reversed(num)):
                acc += (u - j * v) * x
        num.append(acc // j)
    for p in single:
        num = _conv(p, num, cap) if num != [1] else p
    return Series(step, num + [0] * (size - len(num)), n)


def box_numerator(box, degrees) -> Series:
    """The series of the box {0 <= a_i <= b_i}, given as a mapping
    {bound b: the number m of the b_i equal to b}: N = prod (1 -
    x^(b+1))^m in x^step, one factor per bound b > 0 of nonzero m (a
    bound 0 cancels its 1-x), step the gcd of their b + 1 (_numerator)."""
    counts = {b + 1: m for b, m in box.items() if m and b}
    step = gcd(*counts) or 1
    return _numerator(step, [((1,) + (0,) * (e // step - 1) + (-1,),
                              e // step, m) for e, m in counts.items()],
                      sum(counts.values()), degrees)


def count_box_degree(box, d: int) -> int:
    """#{a : 0 <= a_i <= b_i, sum(a) <= d}, the box given as
    box_numerator takes it."""
    return box_numerator(box, [d]).at([d])[0]


# -- footprint route -------------------------------------------------------

def footprint_numerator(spec: CycleFamilySpec, q: int,
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
    reads are built (_numerator).  A numerator longer than one list
    can index is refused before any list is built.
    """
    n = spec.nvars
    step, blocks = ((q - 1) // 2, spec.components) if q % 2 else (q - 1, ())
    return _numerator(step, [((1, -1), 1, n)]
                      + [(map(comb, repeat(k), count()), gamma_of(k), m)
                         for k, m in blocks], n, degrees, "footprint")


def footprint_at(spec: CycleFamilySpec, q: int, degrees) -> list[int]:
    """H(d) at each d of degrees by the footprint."""
    return footprint_numerator(spec, q, degrees).at(degrees)


# -- union-of-boxes route ---------------------------------------------------

def union_coefficients(k: int) -> list[int]:
    """c_0..c_gamma: the coefficient of the j-box count in the union
    of boxes of a k-cycle, c_j = (-1)^(gamma-j) C(k, j) C(k-j-1,
    gamma-j) as derived in union_at.  Each comes from the one before by
    the exact ratio c_(j+1) = -c_j (k-j)(gamma-j) / ((j+1)(k-j-1)), from
    c_0 = (-1)^gamma C(k-1, gamma): a small product per weight, not two
    binomials of about k bits."""
    gamma = gamma_of(k)
    c = [(-1) ** gamma * comb(k - 1, gamma)]
    for j in range(gamma):
        c.append(-c[j] * (k - j) * (gamma - j) // ((j + 1) * (k - j - 1)))
    return c


def union_at(k: int, q: int, degrees) -> list[int]:
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
    return _tori_sum(union_coefficients(k), k, q, degrees).at(degrees)


def _tori_sum(weights: list[int], k: int, q: int, degrees) -> Series:
    """The series of sum_i weights[i] H_i, H_i the i-th torus's: its
    box has i bounds q-2 and k-i bounds (q-1)/2 - 1, so its numerator
    is (1-y^2)^i (1-y)^(k-i) = (1-y)^k (1+y)^i in y = x^((q-1)/2).
    Only the coefficients that ``Series.at(degrees)`` reads are built
    (_numerator)."""
    return _numerator((q - 1) // 2, [((1, -1), 1, k), (
        (sum(map(mul, weights, map(comb, count(), repeat(v))))
         for v in count()), len(weights) - 1, 1)], k, degrees)


def degenerate_torus_at(i: int, k: int, q: int, degrees) -> list[int]:
    """H(d) at each d of degrees for the i-th degenerate torus: i unit
    factors and k-i squares factors, i.e. the box with i bounds q-2 and
    k-i bounds (q-1)/2 - 1."""
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec("degenerate tori need q-1 even")
    gamma = gamma_of(k)
    if not 0 <= i <= gamma:
        raise ValueError(f"index {i} outside 0..{gamma}")
    box = {q - 2: i, (q - 1) // 2 - 1: k - i}
    return box_numerator(box, degrees).at(degrees)


# -- regularity -------------------------------------------------------------

def regularity_formula(spec: CycleFamilySpec, q: int) -> int:
    """Closed-form stabilization degree of the Hilbert function.

    For q-1 even: sum over families of m(k+gamma)(q-1)/2 - km.  For
    q-1 odd X* is the full torus and the footprint is the plain box
    with all bounds q-2, which saturates at degree s(q-2).
    """
    if (q - 1) % 2 == 0:
        half = (q - 1) // 2
        return sum(m * (k + gamma_of(k)) * half - k * m
                   for k, m in spec.components)
    return spec.nvars * (q - 2)


def regularity_bruteforce(spec: CycleFamilySpec, q: int) -> int:
    """Least d with H(d) = |X*|, by bisecting the monotone footprint
    count over the degrees 0..nvars(q-2) of exponents <= q-2, on plain
    ints, so top may pass what a range can index."""
    target = cardinality_formula(spec, q)
    series = footprint_numerator(spec, q)
    top = spec.nvars * (q - 2)

    def h(d):
        return series.at([d])[0]

    lo, hi = 0, top + 1  # the least d with h(d) >= target, or top + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if h(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    if lo > top or h(lo) != target:
        raise CheckFailure(
            f"footprint total {h(top)} never reached |X*| = {target}; "
            "the two routes disagree")
    return lo


# -- beta decomposition ------------------------------------------------------

class BetaDecomposition(NamedTuple):
    """Integer coefficients with H(d) = sum of beta_i * H_i(d), where
    H_i is the i-th degenerate-torus Hilbert function."""

    betas: tuple[int, ...]
    verified_through: int


def solve_betas(k: int, q: int) -> BetaDecomposition:
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
    if (q - 1) % 2 != 0:
        raise UnsupportedSpec("beta decomposition needs q-1 even")
    gamma = gamma_of(k)
    spec = CycleFamilySpec.single(k)
    target = footprint_numerator(spec, q)
    s = Series(1, target.coeffs, k - 1).at(range(gamma + 1))
    betas = [sum(s[v] * comb(v, i) * (-1) ** (v - i)
                 for v in range(i, gamma + 1))
             for i in range(gamma + 1)]
    if _tori_sum(betas, k, q, None) != target:
        raise CheckFailure("beta identity fails: sum beta_i N_i is not "
                           "the footprint numerator")
    return BetaDecomposition(tuple(betas),
                             regularity_formula(spec, q) + 1)
