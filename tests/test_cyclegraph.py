"""Tests for cycle layouts, the edge-product map, and point enumeration."""

import itertools
import random

import numpy as np
import pytest

from cyclecodes import (
    BudgetExceeded,
    CycleFamilySpec,
    OddityError,
    ParseError,
    cardinality_formula,
    cyclegraph,
    enumerate_toric_set,
    enumerated_cardinality,
    field_new,
    gamma_of,
    parse_spec_string,
)
from oracles import coordinates, edges, inv, neg, point_tuples, theta_map


# -- spec validation and layout ----------------------------------------------


def test_gamma_of():
    assert gamma_of(3) == 1
    assert gamma_of(5) == 2
    assert gamma_of(7) == 3


def test_spec_rejects_even_cycle():
    with pytest.raises(OddityError):
        CycleFamilySpec.single(4)
    with pytest.raises(OddityError):
        CycleFamilySpec(((3, 1), (6, 2)))


def test_spec_rejects_bad_sizes():
    with pytest.raises(ValueError):
        CycleFamilySpec.single(1)
    with pytest.raises(ValueError):
        CycleFamilySpec.single(3, 0)
    with pytest.raises(ValueError):
        CycleFamilySpec(())


def test_nvars():
    assert CycleFamilySpec.single(5).nvars == 5
    assert CycleFamilySpec(((3, 2), (5, 1))).nvars == 11


def test_blocks_and_edges_pinned_layout():
    spec = CycleFamilySpec(((3, 2), (5, 1)))
    assert list(spec.blocks()) == [(3, 0), (3, 3), (5, 6)]
    # the copies are walked one at a time, never listed
    assert next(CycleFamilySpec.single(3, 10 ** 20).blocks()) == (3, 0)
    assert edges(spec) == [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
    ]


def test_to_string():
    assert CycleFamilySpec.single(5).to_string() == "5"
    assert CycleFamilySpec(((3, 2), (5, 1))).to_string() == "3x2,5"
    assert str(CycleFamilySpec(((3, 1), (5, 2)))) == "3,5x2"


def test_parse_spec_string():
    assert parse_spec_string("5") == CycleFamilySpec.single(5)
    assert parse_spec_string("3x2,5") == CycleFamilySpec(((3, 2), (5, 1)))
    assert parse_spec_string(" 3 x 2 , 5 ") == CycleFamilySpec(((3, 2), (5, 1)))
    assert parse_spec_string("7x3") == CycleFamilySpec.single(7, 3)


def test_parse_spec_round_trip():
    for text in ("3", "5x2", "3,5", "3x2,5x3,7"):
        assert parse_spec_string(text).to_string() == text


def test_parse_spec_errors():
    with pytest.raises(OddityError):
        parse_spec_string("4")
    with pytest.raises(ParseError):
        parse_spec_string("")
    with pytest.raises(ParseError):
        parse_spec_string("3x")
    with pytest.raises(ParseError):
        parse_spec_string("x2")
    with pytest.raises(ParseError):
        parse_spec_string("3,,5")
    with pytest.raises(ParseError):
        parse_spec_string("1")
    with pytest.raises(ParseError):
        parse_spec_string("3x0")


def test_parse_spec_error_position():
    try:
        parse_spec_string("3x2,4")
    except OddityError as exc:
        assert exc.position == 4
    else:
        pytest.fail("expected OddityError")


# -- the edge-product map ------------------------------------------------------


def test_theta_map_triangle():
    f5 = field_new(5)
    spec = CycleFamilySpec.single(3)
    assert theta_map(spec, f5, (2, 3, 4)) == (1, 2, 3)
    assert theta_map(spec, f5, (1, 1, 1)) == (1, 1, 1)


def test_theta_map_mixed_spec_blocks():
    f5 = field_new(5)
    spec = CycleFamilySpec(((3, 2),))
    # Blocks map independently side by side.
    a = theta_map(spec, f5, (2, 3, 4, 1, 1, 1))
    assert a == (1, 2, 3, 1, 1, 1)


def test_theta_map_scaling_by_sign():
    # Negating every vertex of one copy leaves the image unchanged.
    f5 = field_new(5)
    spec = CycleFamilySpec.single(3)
    rng = random.Random(31)
    for _ in range(20):
        x = tuple(rng.choice(range(1, 5)) for _ in range(3))
        y = tuple(neg(f5, v) for v in x)
        assert theta_map(spec, f5, x) == theta_map(spec, f5, y)


def test_theta_map_scaling_by_square():
    # Scaling every vertex by c multiplies each coordinate by c^2.
    f7 = field_new(7)
    spec = CycleFamilySpec.single(5)
    rng = random.Random(37)
    for _ in range(20):
        x = tuple(rng.choice(range(1, 7)) for _ in range(5))
        c = rng.choice(range(1, 7))
        y = tuple(f7.mul(c, v) for v in x)
        c2 = f7.mul(c, c)
        assert theta_map(spec, f7, y) == tuple(
            f7.mul(c2, w) for w in theta_map(spec, f7, x))


# -- enumeration ----------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_toric_set(CycleFamilySpec.single(5), field_new(5))) == 512
    assert len(enumerate_toric_set(CycleFamilySpec.single(3), field_new(5))) == 32
    assert len(enumerate_toric_set(CycleFamilySpec.single(3), field_new(4))) == 27
    assert len(enumerate_toric_set(CycleFamilySpec.single(3), field_new(3))) == 4


def test_enumerate_q2_single_point():
    x = enumerate_toric_set(CycleFamilySpec.single(3), field_new(2))
    assert coordinates(x).tolist() == [[1, 1, 1]]


def test_enumerate_contains_image_points():
    f5 = field_new(5)
    spec = CycleFamilySpec.single(5)
    pts = set(point_tuples(enumerate_toric_set(spec, f5)))
    assert (1, 1, 1, 1, 1) in pts
    rng = random.Random(41)
    for _ in range(25):
        v = tuple(rng.choice(range(1, 5)) for _ in range(5))
        assert theta_map(spec, f5, v) in pts


def test_enumerate_points_sorted_unique():
    x = enumerate_toric_set(CycleFamilySpec.single(3), field_new(7))
    logs = list(map(tuple, x.logs.tolist()))
    assert logs == sorted(set(logs))
    assert len(set(point_tuples(x))) == len(x)
    assert x.nvars == 3


def test_group_closure_and_inverses():
    # X* is a subgroup of the torus: closed under coordinatewise
    # product and inverse.
    f5 = field_new(5)
    spec = CycleFamilySpec.single(5)
    pts = point_tuples(enumerate_toric_set(spec, f5))
    members = set(pts)
    rng = random.Random(43)
    for _ in range(30):
        a = rng.choice(pts)
        b = rng.choice(pts)
        assert tuple(f5.mul(u, v) for u, v in zip(a, b)) in members
        assert tuple(inv(f5, u) for u in a) in members


def test_enumerate_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_toric_set(CycleFamilySpec.single(5), field_new(5), budget=100)
    # Per-copy work fits but the materialized product does not.
    with pytest.raises(BudgetExceeded):
        enumerate_toric_set(CycleFamilySpec.single(3, 2), field_new(7),
                            budget=5000)


def test_enumerated_cardinality_matches_materialization():
    for q, spec_text in ((3, "3"), (5, "3"), (5, "3x2"), (4, "3"), (7, "3")):
        spec = parse_spec_string(spec_text)
        f = field_new(q)
        assert enumerated_cardinality(spec, f) == len(enumerate_toric_set(spec, f))


def _image_points_by_assignment(k, field):
    """Every assignment of units to the k vertices, mapped one by one."""
    seen = set()
    for x in itertools.product(range(1, field.q), repeat=k):
        seen.add(tuple(field.mul(x[j], x[(j + 1) % k]) for j in range(k)))
    return sorted(seen)


@pytest.mark.parametrize("q, k", [(2, 3), (3, 5), (4, 3), (4, 7), (5, 7),
                                  (7, 3), (8, 5), (11, 3), (16, 3)])
def test_single_cycle_points_match_the_assignment_walk(q, k):
    f = field_new(q)
    want = _image_points_by_assignment(k, f)
    got = enumerate_toric_set(CycleFamilySpec.single(k), f, 10**6)
    assert sorted(point_tuples(got)) == want
    mask = cyclegraph._single_cycle_mask(k, f, 10**6)
    assert np.count_nonzero(mask) == len(want)
    assert enumerated_cardinality(CycleFamilySpec.single(k), f) == len(want)


def test_single_cycle_budget_is_checked_first(monkeypatch):
    monkeypatch.setattr(np, "zeros", None)  # no work at all
    with pytest.raises(BudgetExceeded,
                       match="one 5-cycle copy over F_7 needs 7776 "
                             "assignments, budget is 7775"):
        cyclegraph._single_cycle_mask(5, field_new(7), 7775)


@pytest.mark.parametrize("k, dtype", [(30, "int32"), (31, "int64")])
def test_single_cycle_digits_are_int32_below_2_to_the_31(monkeypatch, k,
                                                         dtype):
    # (q-1)^k = 2^30 fits int32, 2^31 does not; nothing is allocated
    seen = []

    def arange(n, dtype):
        seen.append(np.dtype(dtype).name)
        raise MemoryError

    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(MemoryError):
        cyclegraph._single_cycle_mask(k, field_new(3), 1 << 40)
    assert seen == [dtype]


def test_enumerated_cardinality_never_decodes_points(monkeypatch):
    # the marks are counted: no code is listed, let alone decoded
    monkeypatch.setattr(np, "flatnonzero", None)
    spec = parse_spec_string("5,3x2")
    assert enumerated_cardinality(spec, field_new(11)) \
        == cardinality_formula(spec, 11)


def test_enumerated_cardinality_beyond_materialization_budget():
    # Counting goes through per-copy totals, so no product is built.
    spec = parse_spec_string("5x2")
    f7 = field_new(7)
    n = enumerated_cardinality(spec, f7, budget=10**5)
    assert n == 15116544
    assert n == cardinality_formula(spec, 7)


def test_cardinality_formula_fixtures():
    assert cardinality_formula(CycleFamilySpec.single(5), 5) == 512
    assert cardinality_formula(CycleFamilySpec.single(3, 2), 4) == 729
    assert cardinality_formula(parse_spec_string("3,5"), 5) == 16384
    assert cardinality_formula(CycleFamilySpec.single(3), 3) == 4
    assert cardinality_formula(CycleFamilySpec.single(3), 2) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_cardinality_formula_is_the_torus_power_halved_per_copy(q):
    def family(k, m):
        n = (q - 1) ** (k * m)
        return n // 2 ** m if (q - 1) % 2 == 0 else n

    for k in (3, 5, 7):
        for m in (1, 2, 3, 5):
            assert cardinality_formula(CycleFamilySpec.single(k, m), q) \
                == family(k, m)
    assert cardinality_formula(parse_spec_string("3x2,5x3"), q) \
        == family(3, 2) * family(5, 3)
    assert cardinality_formula(CycleFamilySpec.single(3, 3000), q) \
        == family(3, 3000)


def test_torus_case_fills_whole_torus():
    # When q-1 is odd every unit tuple is hit.
    f4 = field_new(4)
    x = enumerate_toric_set(CycleFamilySpec.single(3), f4)
    assert set(point_tuples(x)) \
        == set(itertools.product(range(1, 4), repeat=3))


def test_component_product_matches_monolithic_enumeration():
    # Walking all vertex assignments of the whole graph at once gives
    # the same image as the per-copy product.
    q = 3
    f = field_new(q)
    spec = CycleFamilySpec.single(3, 2)
    expected = {
        theta_map(spec, f, x)
        for x in itertools.product(range(1, f.q), repeat=spec.nvars)
    }
    got = set(point_tuples(enumerate_toric_set(spec, f)))
    assert got == expected


def test_enumerate_points_golden():
    x = enumerate_toric_set(CycleFamilySpec.single(3), field_new(3))
    assert x.logs.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert coordinates(x).tolist() \
        == [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_points_are_one_sorted_read_only_unsigned_array(q):
    # Copies of different lengths, one of them repeated: the product of
    # the sorted copies fills |X*| distinct rows in increasing order.
    spec = parse_spec_string("3x2,5")
    pts = enumerate_toric_set(spec, field_new(q)).logs
    assert pts.shape == (cardinality_formula(spec, q), spec.nvars)
    assert pts.dtype == np.uint8
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1
    # the first column where consecutive rows differ goes up
    step = np.diff(pts.astype(np.int64), axis=0)
    first = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    assert (first > 0).all()
