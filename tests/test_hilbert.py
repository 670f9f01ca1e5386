"""Tests for Hilbert-function counting, regularity, and the betas."""

import itertools
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import (
    BudgetExceeded,
    CheckFailure,
    CycleFamilySpec,
    UnsupportedSpec,
    cardinality_formula,
    character_at,
    count_box_degree,
    degenerate_torus_at,
    enumerate_toric_set,
    field_new,
    footprint_at,
    gamma_of,
    parse_spec_string,
    regularity_bruteforce,
    regularity_formula,
    solve_betas,
    union_at,
)
from cyclecodes import hilbert
from cyclecodes.hilbert import _conv, union_coefficients
from cyclecodes.ideal import build_generators
from oracles import (
    count_box_by_degree,
    cumulative,
    footprint_by_degree,
    leading_monomial,
    mono_divides,
    prefix_at,
    regularity_by_scan,
    squares,
    torus_prefix,
)


# -- box counting -------------------------------------------------------------


def test_count_box_degree_fixtures():
    assert count_box_degree((3, 3, 1, 1, 1), 2) == 18
    assert count_box_degree((1, 1, 1, 1, 1), 2) == 16
    assert count_box_degree((3, 3, 1, 1, 1), 9) == 128
    assert count_box_degree((3, 1, 1), 2) == 8
    assert count_box_degree((), 0) == 1
    assert count_box_degree((2, 2), -1) == 0


def test_count_box_degree_saturates():
    bounds = (3, 2, 1)
    full = (3 + 1) * (2 + 1) * (1 + 1)
    assert count_box_degree(bounds, sum(bounds)) == full
    assert count_box_degree(bounds, sum(bounds) + 5) == full


def test_count_box_by_degree_is_symmetric_in_bounds():
    a = count_box_by_degree([3, 1, 2])
    b = count_box_by_degree([2, 3, 1])
    assert a == b
    assert sum(a) == 4 * 2 * 3


def test_count_box_by_degree_cap():
    assert count_box_by_degree([3, 3], cap=2) == [1, 2, 3]


def test_count_box_matches_direct_walk():
    rng = random.Random(53)
    for _ in range(10):
        bounds = tuple(rng.randrange(4) for _ in range(3))
        d = rng.randrange(8)
        direct = sum(
            1 for v in itertools.product(*(range(b + 1) for b in bounds))
            if sum(v) <= d)
        assert count_box_degree(bounds, d) == direct


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data(),
       bounds=st.lists(st.integers(0, 12), max_size=5))
def test_count_box_by_degree_matches_walk_and_naive_product(data, bounds):
    cap = data.draw(st.one_of(st.none(), st.integers(0, sum(bounds))))
    naive = [1]
    for b in bounds:
        naive = _conv(naive, [1] * (b + 1), cap)
    top = sum(bounds) if cap is None else cap
    walk = [0] * (top + 1)
    for v in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(v) <= top:
            walk[sum(v)] += 1
    got = count_box_by_degree(bounds, cap)
    assert got == naive == walk
    prefix = cumulative(walk)
    assert [count_box_degree(bounds, d) for d in range(top + 1)] == prefix


# -- footprint counting ---------------------------------------------------------


def test_footprint_fixtures_flagship():
    f5 = field_new(5)
    spec = CycleFamilySpec.single(5)
    values = footprint_at(spec, f5, range(10))
    assert values == [1, 6, 21, 56, 121, 222, 347, 452, 502, 512]
    assert footprint_at(spec, f5, [15]) == [512]


def test_footprint_fixtures_small():
    f5 = field_new(5)
    spec3 = CycleFamilySpec.single(3)
    assert footprint_at(spec3, f5, range(7)) == [1, 4, 10, 20, 29, 32, 32]
    f7 = field_new(7)
    assert footprint_at(spec3, f7, range(10)) == \
        [1, 4, 10, 20, 35, 56, 78, 96, 105, 108]


def test_footprint_negative_degree():
    assert footprint_at(CycleFamilySpec.single(3), field_new(5), [-1]) == [0]


def hilbert_footprint_slow(spec, field, d):
    """Lattice-walk oracle: enumerate every monomial of degree <= d and
    test divisibility against each leading term.  Tiny instances only."""
    leads = [leading_monomial(g) for g in build_generators(spec, field)]
    count = 0
    for mono in itertools.product(range(d + 1), repeat=spec.nvars):
        if sum(mono) > d:
            continue
        if not any(mono_divides(lt, mono) for lt in leads):
            count += 1
    return count


@pytest.mark.parametrize("q,spec_text,dmax", [
    (3, "3", 4),
    (5, "3", 7),
    (7, "3", 5),
    (4, "3", 5),   # torus case, no cycle part
    (5, "3x2", 4),
    (3, "3,5", 4),
])
def test_footprint_matches_lattice_walk(q, spec_text, dmax):
    field = field_new(q)
    spec = parse_spec_string(spec_text)
    assert footprint_at(spec, field, range(dmax + 1)) == [
        hilbert_footprint_slow(spec, field, d) for d in range(dmax + 1)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(),
       q=st.sampled_from([2, 3, 4, 5, 7, 8]),
       families=st.lists(st.tuples(st.sampled_from([3, 5]),
                                   st.integers(1, 2)),
                         min_size=1, max_size=2))
def test_footprint_by_degree_matches_lattice_walk(data, q, families):
    spec = CycleFamilySpec(tuple(families))
    field = field_new(q)
    n = spec.nvars
    # the walk visits (d+1)^n monomials
    top = max(d for d in range(12) if (d + 1) ** n <= 20000)
    d = data.draw(st.integers(0, top))
    vec = footprint_by_degree(spec, q)
    assert sum(vec) == cardinality_formula(spec, q)
    assert sum(vec[:d + 1]) == hilbert_footprint_slow(spec, field, d)
    assert footprint_at(spec, field, [d]) == [sum(vec[:d + 1])]


@pytest.mark.parametrize("q, spec_text", [
    (2, "3"), (3, "5,3"), (4, "3x2"), (5, "5"), (7, "3x2,5"), (11, "7"),
])
def test_capped_footprint_is_a_prefix_of_the_full_vector(q, spec_text):
    field = field_new(q)
    spec = parse_spec_string(spec_text)
    full = footprint_by_degree(spec, q)
    prefix = cumulative(full)
    for cap in range(len(full) + 2):
        assert footprint_by_degree(spec, q, cap) == full[:cap + 1]
        assert (footprint_at(spec, field, range(cap + 1))
                == [prefix_at(prefix, d) for d in range(cap + 1)])


@pytest.mark.parametrize("q", [3, 5, 4])
@pytest.mark.parametrize("spec_text",
                         ["3x200", "3,5", "7x3", "3x2,5", "3", "5", "9"])
def test_cut_footprint_reads_as_the_full_numerator(q, spec_text):
    # footprint_at, and union_at of a single cycle over a field with q-1
    # even, build only the numerator coefficients that their degrees
    # read; the value keeps the full numerator's length and top
    field = field_new(q)
    spec = parse_spec_string(spec_text)
    routes = [(partial(hilbert.footprint_numerator, spec, field),
               partial(footprint_at, spec, field))]
    if q % 2 and spec.components == ((spec.nvars, 1),):
        k = spec.nvars
        weights = union_coefficients(k)
        routes.append((partial(hilbert._tori_sum, weights, k, field),
                       partial(union_at, k, field)))
    for numerator, at in routes:
        full = numerator(None)
        top = full.top
        for d in (0, 1, top - 1, top, top + 1):
            assert len(numerator([d]).coeffs) == len(full.coeffs)
            assert at([d]) == full.at([d])
        table = range(top + 2)
        assert at(table) == full.at(table)


@pytest.mark.parametrize("q", [3, 5, 4])
def test_cut_footprint_of_2000_triangles_at_low_degrees(q):
    # The full numerator of 3x2000 takes tens of seconds to build, degrees
    # 0..2 read at most three of its coefficients.  Every monomial of
    # degree <= 2 is standard for q = 4, 5; for q = 3 exponents are <= 1
    # and each triangle holds at most gamma = 1 of them.
    field = field_new(q)
    spec = parse_spec_string("3x2000")
    n = spec.nvars
    two = (1 + n + 9 * math.comb(2000, 2) if q == 3
           else math.comb(n + 2, 2))
    assert footprint_at(spec, field, [0, 1, 2]) == [1, 1 + n, two]
    assert (hilbert.footprint_numerator(spec, field, [2]).top
            == regularity_formula(spec, field))


# -- Hilbert-series numerators against the window-sum oracles --------------------

_ODD_PRIMES = [p for p in range(3, 258, 2)
               if all(p % f for f in range(3, p, 2))]
_FIELDS = _ODD_PRIMES + [2, 4, 8, 16, 32, 64, 128, 256]
_FAMILIES = st.lists(st.tuples(st.sampled_from([3, 5, 7]), st.integers(1, 2)),
                     min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), q=st.sampled_from(_FIELDS), families=_FAMILIES)
def test_numerator_footprint_matches_window_sum_oracle(data, q, families):
    spec = CycleFamilySpec(tuple(families))
    field = field_new(q)
    prefix = cumulative(footprint_by_degree(spec, q))
    top = spec.nvars * (q - 2) + 2
    cap = data.draw(st.integers(0, top))
    assert (footprint_at(spec, field, range(cap + 1))
            == [prefix_at(prefix, d) for d in range(cap + 1)])
    d = data.draw(st.integers(-2, 2 * top))
    assert footprint_at(spec, field, [d]) == [prefix_at(prefix, d)]
    # any order, repeats, runs and gaps, past the constant tail
    degrees = data.draw(st.lists(st.integers(-2, 2 * top), max_size=12))
    assert (footprint_at(spec, field, degrees)
            == [prefix_at(prefix, e) for e in degrees])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), q=st.sampled_from(_ODD_PRIMES),
       k=st.sampled_from([3, 5, 7, 9]))
def test_numerator_union_and_tori_match_window_sum_oracle(data, q, k):
    field = field_new(q)
    spec = CycleFamilySpec.single(k)
    prefix = cumulative(footprint_by_degree(spec, q))
    top = k * (q - 2) + 2
    cap = data.draw(st.integers(0, top))
    assert (union_at(k, field, range(cap + 1))
            == [prefix_at(prefix, d) for d in range(cap + 1)])
    d = data.draw(st.integers(-2, 2 * top))
    assert union_at(k, field, [d]) == [prefix_at(prefix, d)]
    i = data.draw(st.integers(0, gamma_of(k)))
    degrees = data.draw(st.lists(st.integers(-2, 2 * top), max_size=6))
    assert (degenerate_torus_at(i, k, field, [d, *degrees])
            == [prefix_at(torus_prefix(i, k, q), e) for e in [d, *degrees]])


# -- union-of-boxes route ---------------------------------------------------------


def _union_by_degree(k, q):
    """Directly materialize the union of boxes and count it by degree."""
    gamma = gamma_of(k)
    half = (q - 1) // 2
    boxes = []
    for H in itertools.combinations(range(k), gamma):
        boxes.append(tuple(q - 2 if i in H else half - 1 for i in range(k)))
    counts = [0] * (k * (q - 2) + 1)
    for v in itertools.product(range(q - 1), repeat=k):
        if any(all(x <= b for x, b in zip(v, box)) for box in boxes):
            counts[sum(v)] += 1
    return counts


def _union_points(k, q, d):
    return sum(_union_by_degree(k, q)[:d + 1])


@pytest.mark.parametrize("q,k,dmax", [(5, 3, 6), (3, 3, 2), (7, 3, 5), (3, 5, 3)])
def test_union_formula_matches_direct_materialization(q, k, dmax):
    field = field_new(q)
    assert union_at(k, field, range(dmax + 1)) == [
        _union_points(k, q, d) for d in range(dmax + 1)]


def test_union_formula_matches_footprint():
    for q, k in ((3, 3), (5, 3), (7, 3), (5, 5), (3, 5), (13, 3)):
        field = field_new(q)
        spec = CycleFamilySpec.single(k)
        reg = regularity_formula(spec, field)
        for d in range(reg + 2):
            assert union_at(k, field, [d]) == footprint_at(spec, field, [d])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data(),
       kq=st.sampled_from([(3, 3), (3, 5), (3, 7), (3, 11), (3, 13),
                           (5, 3), (5, 5), (5, 7)]))
def test_union_table_matches_materialization_and_footprint(data, kq):
    k, q = kq
    field = field_new(q)
    spec = CycleFamilySpec.single(k)
    top = regularity_formula(spec, field) + 1
    direct = list(itertools.accumulate(_union_by_degree(k, q)))
    direct += [direct[-1]] * (top + 1 - len(direct))
    table = union_at(k, field, range(top + 1))
    assert table == direct[:top + 1]
    assert table == footprint_at(spec, field, range(top + 1))
    dmax = data.draw(st.integers(0, top))
    assert union_at(k, field, range(dmax + 1)) == table[:dmax + 1]
    assert union_at(k, field, [dmax]) == [table[dmax]]


def test_union_formula_rejects_torus_fields():
    with pytest.raises(UnsupportedSpec):
        union_at(3, field_new(4), [2])


def test_union_formula_k7_matches_footprint():
    # C(7,3) = 35 boxes; the closed-form coefficients need 4 box numerators.
    for q in (3, 5):
        field = field_new(q)
        spec = CycleFamilySpec.single(7)
        top = regularity_formula(spec, field) + 1
        assert (union_at(7, field, range(top + 1))
                == footprint_at(spec, field, range(top + 1)))


def test_union_formula_budget(monkeypatch):
    # k = 7 at q = 5: the numerator has 7 + 3 + 1 = 11 terms in
    # y = x^2; the union is constant from degree 3*3 + 4*1 = 13 on, so
    # the degrees 0..100 read 14 distinct rows.
    def built(*args, **kwargs):
        raise AssertionError("numerator built before the budget check")

    field = field_new(5)
    monkeypatch.setattr(hilbert, "DEFAULT_UNION_BUDGET", 154)
    values = union_at(7, field, range(101))
    assert values[12] < values[13] == values[100] == 2 ** 13
    monkeypatch.setattr(hilbert, "_tori_sum", built)
    monkeypatch.setattr(hilbert, "DEFAULT_UNION_BUDGET", 153)
    with pytest.raises(BudgetExceeded) as exc:
        union_at(7, field, range(101))
    assert str(exc.value) == (
        "union formula of 11 numerator terms at 14 degrees needs 154 "
        "cells, budget is 153")
    monkeypatch.setattr(hilbert, "DEFAULT_UNION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        union_at(7, field, [1])


def _union_coefficients_by_sign_loop(k):
    """Inclusion-exclusion term by term: the sign of every nonempty
    family of the C(k, gamma) boxes, tallied by the size of the family's
    common intersection.  2^C(k, gamma) terms, so k <= 5 only."""
    gamma = gamma_of(k)
    masks = [sum(1 << v for v in H)
             for H in itertools.combinations(range(k), gamma)]
    by_common_size = [0] * (gamma + 1)
    for t in range(1, 1 << len(masks)):
        common = (1 << k) - 1
        for i, mask in enumerate(masks):
            if t >> i & 1:
                common &= mask
        by_common_size[common.bit_count()] += 1 if t.bit_count() % 2 else -1
    return by_common_size


def test_union_coefficients_match_sign_loop_and_betas():
    for k in (3, 5):
        assert union_coefficients(k) == _union_coefficients_by_sign_loop(k)
    assert union_coefficients(5) == [6, -15, 10]
    for q in (5, 7, 11, 13):
        field = field_new(q)
        for k in (3, 5, 7, 9, 11):
            assert union_coefficients(k) == list(solve_betas(k, field).betas)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(q=st.sampled_from([p for p in range(3, 61, 2)
                          if all(p % f for f in range(3, p, 2))]),
       k=st.integers(1, 7).map(lambda i: 2 * i + 1))
def test_union_prefix_matches_footprint_prefix(q, k):
    field = field_new(q)
    spec = CycleFamilySpec.single(k)
    top = regularity_formula(spec, field) + 1
    footprint = cumulative(footprint_by_degree(spec, q))
    assert (union_at(k, field, range(top + 1))
            == [prefix_at(footprint, d) for d in range(top + 1)])
    # A huge degree reads the constant tail, |X*|.
    assert union_at(k, field, [10 ** 12]) == [cardinality_formula(spec, q)]


# -- degenerate tori ---------------------------------------------------------------


def test_degenerate_torus_fixtures():
    f5 = field_new(5)
    # k = 5: gamma = 2, boxes with i bounds 3 and 5-i bounds 1.
    assert degenerate_torus_at(2, 5, f5, [1, 2, 9]) == [6, 18, 128]
    assert degenerate_torus_at(1, 5, f5, [2, 9]) == [17, 64]
    assert degenerate_torus_at(0, 5, f5, [2, 9]) == [16, 32]
    assert degenerate_torus_at(0, 5, f5, [-1, 100]) == [0, 32]


def test_degenerate_torus_is_rank_of_product_points():
    # The i-th degenerate torus is a product of i unit-group factors and
    # k-i squares factors; its Hilbert function must match the rank
    # route on that point set.
    from cyclecodes import ToricSet, rank_at

    f5 = field_new(5)
    spec = CycleFamilySpec.single(3)
    pts = itertools.product(range(1, 5), squares(f5), squares(f5))
    X = ToricSet(spec, f5, np.array(list(pts), dtype=np.uint8))
    table = rank_at(X, range(6))
    assert table == degenerate_torus_at(1, 3, f5, range(6))
    assert table == [1, 4, 8, 12, 15, 16]


def test_degenerate_torus_index_range():
    f5 = field_new(5)
    with pytest.raises(ValueError):
        degenerate_torus_at(3, 5, f5, [2])
    with pytest.raises(ValueError):
        degenerate_torus_at(-1, 5, f5, [2])
    with pytest.raises(UnsupportedSpec):
        degenerate_torus_at(0, 3, field_new(4), [2])


# -- regularity ---------------------------------------------------------------------


def test_regularity_formula_fixtures():
    assert regularity_formula(CycleFamilySpec.single(5), field_new(5)) == 9
    assert regularity_formula(CycleFamilySpec.single(3), field_new(5)) == 5
    assert regularity_formula(CycleFamilySpec.single(3), field_new(3)) == 1
    assert regularity_formula(CycleFamilySpec.single(5), field_new(13)) == 37
    assert regularity_formula(parse_spec_string("3,5"), field_new(5)) == 14
    assert regularity_formula(CycleFamilySpec.single(3), field_new(4)) == 6
    assert regularity_formula(CycleFamilySpec.single(3), field_new(8)) == 18


def test_regularity_is_additive_over_components():
    f5 = field_new(5)
    r3 = regularity_formula(CycleFamilySpec.single(3), f5)
    r5 = regularity_formula(CycleFamilySpec.single(5), f5)
    assert regularity_formula(parse_spec_string("3,5"), f5) == r3 + r5
    assert regularity_formula(CycleFamilySpec.single(3, 2), f5) == 2 * r3


@pytest.mark.parametrize("q", [3, 5, 7, 4, 8])
@pytest.mark.parametrize("spec_text", ["3", "5", "3x2", "3,5"])
def test_regularity_bruteforce_matches_formula(q, spec_text):
    field = field_new(q)
    spec = parse_spec_string(spec_text)
    assert regularity_bruteforce(spec, field) == regularity_formula(spec, field)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(q=st.sampled_from(_FIELDS), families=_FAMILIES)
def test_regularity_bisection_matches_linear_scan(q, families):
    spec = CycleFamilySpec(tuple(families))
    field = field_new(q)
    assert regularity_bruteforce(spec, field) == regularity_by_scan(spec, q)


def test_hilbert_stabilizes_exactly_at_regularity():
    for q, k in ((3, 3), (5, 3), (5, 5), (7, 3)):
        field = field_new(q)
        spec = CycleFamilySpec.single(k)
        reg = regularity_formula(spec, field)
        size = cardinality_formula(spec, q)
        below, at = footprint_at(spec, field, [reg - 1, reg])
        assert at == size
        assert below < size


# -- tables --------------------------------------------------------------------------


def test_footprint_table():
    t = footprint_at(CycleFamilySpec.single(5), field_new(5), range(12))
    assert len(t) == 12
    assert t[0] == 1 and t[1] == 6 and t[9] == 512 and t[11] == 512
    assert t[8] == 502
    assert all(a <= b for a, b in zip(t, t[1:]))


def test_union_table_matches_footprint_table():
    f5 = field_new(5)
    ft = footprint_at(CycleFamilySpec.single(5), f5, range(11))
    assert union_at(5, f5, range(11)) == ft


@pytest.mark.parametrize("q,spec_text",
                         [(3, "5"), (5, "3"), (7, "3x2,5"), (8, "3"),
                          (11, "5")])
def test_series_table_reads_as_degree_list_and_is_constant_past_top(
        q, spec_text):
    # Each value is read as a table range(D + 1), by running sums, and as
    # the same degrees in a list, by binomials; from top on every row is
    # the value's final count.
    field = field_new(q)
    spec = parse_spec_string(spec_text)
    size = cardinality_formula(spec, q)
    footprint = hilbert.footprint_numerator(spec, field)
    assert footprint.top == regularity_formula(spec, field)
    bounds = [q - 2, 0, 3, 1]
    box = hilbert.box_numerator(bounds, None)
    assert box.top == sum(bounds)
    readers = [(footprint.at, footprint.top, size),
               (box.at, box.top, math.prod(b + 1 for b in bounds)),
               (lambda degrees: character_at(spec, field, degrees),
                footprint.top, size)]
    if q % 2 and spec.components == ((spec.nvars, 1),):
        k = spec.nvars
        union = hilbert._tori_sum(union_coefficients(k), k, field, None)
        assert union.top == footprint.top
        readers.append((union.at, union.top, size))
        for i in range(gamma_of(k) + 1):
            torus = [q - 2] * i + [(q - 1) // 2 - 1] * (k - i)
            readers.append((lambda degrees, i=i: degenerate_torus_at(
                i, k, field, degrees), sum(torus),
                (q - 1) ** i * ((q - 1) // 2) ** (k - i)))
    for at, top, final in readers:
        for dmax in (0, top - 1, top, top + 1, 10 ** 5):
            table = at(range(dmax + 1))
            assert len(table) == dmax + 1
            assert table == at(list(range(dmax + 1)))
            assert table[top:] == [final] * (dmax + 1 - top)


# -- beta decomposition ------------------------------------------------------------------


def test_betas_flagship():
    b = solve_betas(5, field_new(5))
    assert b.betas == (6, -15, 10)
    assert b.verified_through == 10


def test_betas_triangle():
    b = solve_betas(3, field_new(5))
    assert b.betas == (-2, 3)
    assert b.verified_through == 6


def test_betas_do_not_depend_on_field():
    assert solve_betas(3, field_new(13)).betas == (-2, 3)
    assert solve_betas(5, field_new(13)).betas == (6, -15, 10)
    assert solve_betas(3, field_new(7)).betas == (-2, 3)
    assert solve_betas(5, field_new(7)).betas == (6, -15, 10)


def test_betas_identity_holds_at_every_degree():
    f5 = field_new(5)
    k = 5
    b = solve_betas(k, f5)
    spec = CycleFamilySpec.single(k)
    for d in range(b.verified_through + 1):
        lhs = sum(beta * degenerate_torus_at(i, k, f5, [d])[0]
                  for i, beta in enumerate(b.betas))
        assert [lhs] == footprint_at(spec, f5, [d])


def test_betas_sum_is_one():
    # At d = regularity every degenerate torus is saturated and H equals
    # |X*|; the identity then forces a fixed weighted sum. At d large the
    # sum telescopes so that sum(beta_i * |X_i|) = |X*|.
    f5 = field_new(5)
    b = solve_betas(5, f5)
    sizes = [degenerate_torus_at(i, 5, f5, [100])[0] for i in range(3)]
    assert sum(beta * s for beta, s in zip(b.betas, sizes)) == 512


def test_betas_large_field_sample_degrees():
    # At q = 13 a sampled solve had to reach degree 12; the numerator
    # route reads the same betas and still verifies through regularity+1.
    b = solve_betas(5, field_new(13))
    assert b.betas == (6, -15, 10)
    assert b.verified_through == 38


def test_betas_at_q3_sample_degree_zero():
    # At q = 3 the boxes' bounds are 1 and 0 and y = x, so the identity
    # must already hold from degree 0.
    f3 = field_new(3)
    b = solve_betas(3, f3)
    assert b.betas == (-2, 3)
    b = solve_betas(5, f3)
    assert b.betas == (6, -15, 10)
    assert b.verified_through == 3
    for k in (7, 9, 11):
        assert list(solve_betas(k, f3).betas) == union_coefficients(k)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(q=st.sampled_from(_ODD_PRIMES),
       k=st.integers(1, 20).map(lambda i: 2 * i + 1),
       d=st.integers(0, 10 ** 9))
def test_betas_sample_degrees_match_full_scan(q, k, d):
    # The betas agree with the union formula's closed form, and the
    # identity holds at the ends of the table and at a drawn degree.
    field = field_new(q)
    b = solve_betas(k, field)
    assert list(b.betas) == union_coefficients(k)
    reg = regularity_formula(CycleFamilySpec.single(k), field)
    degrees = [0, 1, reg, reg + 1, d]
    tori = [degenerate_torus_at(i, k, field, degrees)
            for i in range(len(b.betas))]
    assert [sum(beta * h[j] for beta, h in zip(b.betas, tori))
            for j in range(len(degrees))] \
        == footprint_at(CycleFamilySpec.single(k), field, degrees)


def test_betas_sample_degrees_match_full_scan_at_q3_and_singular_pools():
    # At q = 3 only degrees 0..gamma differ, so the identity is checked
    # at every degree through regularity + 1.
    f3 = field_new(3)
    for k in (3, 5, 7, 9, 11):
        b = solve_betas(k, f3)
        assert list(b.betas) == union_coefficients(k)
        degrees = list(range(b.verified_through + 1))
        assert degrees == list(range(gamma_of(k) + 2))
        tori = [degenerate_torus_at(i, k, f3, degrees)
                for i in range(len(b.betas))]
        assert [sum(beta * h[d] for beta, h in zip(b.betas, tori))
                for d in degrees] \
            == footprint_at(CycleFamilySpec.single(k), f3, degrees)


def test_betas_rejects_torus_fields():
    with pytest.raises(UnsupportedSpec):
        solve_betas(3, field_new(4))
