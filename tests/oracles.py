"""Slow, plainly correct counterparts of the library's counting routes,
kept for the tests to compare against.

The box counts and the footprint are built degree by degree as dense
vectors, whose length grows linearly in q; the library reads the same
counts from Hilbert-series numerators instead.
"""

import itertools
from math import comb
from operator import le

from cyclecodes import CycleFamilySpec, gamma_of
from cyclecodes.hilbert import bareiss_rank, regularity_formula


def mono_divides(a, b) -> bool:
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


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


def sample_degrees_by_scan(k, field):
    """The sample degrees solve_betas chooses, by testing the pool
    1..gamma+1 and then every degree 0..regularity in turn against the
    rows chosen so far; None when no gamma+1 of them are independent."""
    q = field.q
    size = gamma_of(k) + 1
    reg = regularity_formula(CycleFamilySpec.single(k), field)
    tori = [torus_prefix(i, k, q) for i in range(size)]
    pool = range(1, size + 1)
    rows, chosen = [], []
    for d in itertools.chain(pool, (e for e in range(reg + 1)
                                    if e not in pool)):
        row = [prefix_at(t, d) for t in tori]
        if bareiss_rank(rows + [row]) > len(rows):
            rows.append(row)
            chosen.append(d)
            if len(rows) == size:
                return tuple(sorted(chosen))
    return None
