"""Tests for evaluation matrices, the rank route, and code parameters."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import (
    BudgetExceeded,
    CycleFamilySpec,
    EvaluationMatrix,
    ToricSet,
    build_evaluation_matrix,
    cardinality_formula,
    character_at,
    code_params,
    enumerate_toric_set,
    field_new,
    footprint_at,
    monomial_basis,
    parse_spec_string,
    rank_at,
    regularity_formula,
    singleton_check,
)
from cyclecodes import codes
from cyclecodes.hilbert import count_box_degree
from cyclecodes.poly import grlex_key
from oracles import theta_map


def _X(q, spec_text):
    return enumerate_toric_set(parse_spec_string(spec_text), field_new(q))


# -- the monomial basis ---------------------------------------------------------


def test_monomial_basis_degree_zero():
    assert monomial_basis(3, 5, 0) == [(0, 0, 0)]


def test_monomial_basis_degree_one():
    basis = monomial_basis(3, 5, 1)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]


def test_monomial_basis_exponent_cap():
    # Exponents are capped at q-2 (torus reduction) and at d.
    basis = monomial_basis(2, 3, 5)
    assert all(e <= 1 for m in basis for e in m)
    basis = monomial_basis(2, 7, 2)
    assert all(e <= 2 for m in basis for e in m)
    assert all(sum(m) <= 2 for m in basis)


def test_monomial_basis_sorted_descending():
    basis = monomial_basis(3, 5, 4)
    keys = [grlex_key(m) for m in basis]
    assert keys == sorted(keys, reverse=True)
    assert len(basis) == len(set(basis))


# -- evaluation matrices -----------------------------------------------------------


def test_matrix_shape_flagship():
    M = build_evaluation_matrix(_X(5, "5"), 1)
    assert M.shape == (6, 512)


def test_matrix_rows_are_evaluations():
    X = _X(5, "3")
    M = build_evaluation_matrix(X, 1)
    pts = list(X)
    # Row for t_i carries coordinate i of every point; the constant row
    # is all ones.
    rows = {mono: [int(v) for v in row] for mono, row in zip(M.monomials,
                                                             M.entries)}
    assert rows[(0, 0, 0)] == [1] * len(X)
    assert rows[(1, 0, 0)] == [p[0] for p in pts]
    assert rows[(0, 0, 1)] == [p[2] for p in pts]
    M2 = build_evaluation_matrix(X, 2)
    rows2 = {mono: [int(v) for v in row] for mono, row in zip(M2.monomials,
                                                              M2.entries)}
    assert rows2[(1, 1, 0)] == [X.field.mul(p[0], p[1]) for p in pts]


def test_matrix_rows_generic_binary_field():
    X = _X(4, "3")
    M = build_evaluation_matrix(X, 2)
    pts = list(X)
    rows = dict(zip(M.monomials, M.entries))
    f = X.field
    assert list(rows[(2, 0, 0)]) == [f.mul(p[0], p[0]) for p in pts]


def _uncapped_basis(nvars, d):
    """Every monomial of total degree <= d, exponents not capped at
    q-2."""
    return [m for m in itertools.product(range(d + 1), repeat=nvars)
            if sum(m) <= d]


def _entry_by_entry(X, monomials):
    """The evaluation matrix from the field's scalar operations, one
    entry at a time: the reference for the log-table build."""
    f = X.field
    rows = []
    for mono in monomials:
        row = []
        for pt in X.points:
            val = 1
            for x, e in zip(pt, mono):
                if e:
                    val = f.mul(val, f.pow(x, e))
            row.append(val)
        rows.append(row)
    return rows


_MATRIX_INSTANCES = [
    (q, spec) for q in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17)
    for spec in ("3", "5", "3x2")
    if cardinality_formula(parse_spec_string(spec), q) <= 30_000]

# Most entries compared per degree; larger matrices are compared on a
# drawn subset of their columns.
_MATRIX_CHECK_CAP = 10_000


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instance=st.sampled_from(_MATRIX_INSTANCES),
       seed=st.integers(0, 2**32))
def test_matrix_matches_entry_by_entry_evaluation(instance, seed):
    q, spec_text = instance
    X = _X(q, spec_text)
    rng = random.Random(seed)
    for d in range(4):
        M = build_evaluation_matrix(X, d)
        assert M.monomials == tuple(monomial_basis(X.nvars, q, d))
        columns = list(range(len(X)))
        if len(M.monomials) * len(X) > _MATRIX_CHECK_CAP:
            columns = sorted(rng.sample(
                columns, _MATRIX_CHECK_CAP // len(M.monomials)))
        sub = ToricSet(X.spec, X.field, [X.points[j] for j in columns])
        assert M.entries[:, columns].tolist() \
            == _entry_by_entry(sub, M.monomials)


@pytest.mark.parametrize("q, spec_text, d", [
    (2, "3", 3), (3, "3", 5), (4, "3", 6), (5, "3", 7), (8, "3", 9)])
def test_matrix_entries_with_exponents_beyond_the_unit_order(q, spec_text, d):
    # Exponents up to d exceed q-2, some even q-1; on units t^a equals
    # t^(a mod q-1), so every uncapped row is a row of the capped matrix.
    X = _X(q, spec_text)
    M = build_evaluation_matrix(X, d)
    rows = dict(zip(M.monomials, M.entries.tolist()))
    loose = _uncapped_basis(X.nvars, d)
    assert max(map(max, loose)) == d
    for mono, row in zip(loose, _entry_by_entry(X, loose)):
        assert row == rows[tuple(e % (q - 1) for e in mono)]


def test_matrix_budget():
    with pytest.raises(BudgetExceeded):
        build_evaluation_matrix(_X(5, "5"), 2, max_entries=100)


# -- rank as a Hilbert-function oracle ------------------------------------------------


def _rank(M):
    """Rank of an evaluation matrix by the package's row reduction."""
    return len(codes._row_reduce(M.entries, M.field)[0])


def _uncapped_rank(X, d):
    """Rank of the degree-d evaluation matrix with exponents not capped
    at q-2, evaluated entry by entry."""
    rows = np.array(_entry_by_entry(X, _uncapped_basis(X.nvars, d)))
    return len(codes._row_reduce(rows, X.field)[0])


def test_rank_fixtures():
    assert _rank(build_evaluation_matrix(_X(5, "5"), 2)) == 21
    assert _rank(build_evaluation_matrix(_X(5, "5"), 9)) == 512
    assert _rank(build_evaluation_matrix(_X(5, "3"), 2)) == 10


def test_code_dimension_matches_footprint():
    for q, spec_text, dmax in ((5, "3", 6), (3, "3", 3), (7, "3", 10),
                               (4, "3", 7), (5, "3x2", 4), (2, "3", 2)):
        X = _X(q, spec_text)
        spec = parse_spec_string(spec_text)
        field = field_new(q)
        for d in range(dmax + 1):
            assert rank_at(X, [d]) == footprint_at(spec, field, [d])
            assert rank_at(X, [d]) == [_rank(build_evaluation_matrix(X, d))]


def test_rank_table_matches_per_degree_ranks():
    X = _X(5, "3")
    table = rank_at(X, range(7))
    assert table == [rank_at(X, [d])[0] for d in range(7)]
    assert table == [1, 4, 10, 20, 29, 32, 32]
    # any order, repeats and negative degrees, read from one matrix
    assert rank_at(X, [6, -1, 2, 2, 0, -5]) == [32, 0, 10, 10, 1, 0]
    assert rank_at(X, [-1]) == [0]
    assert rank_at(X, []) == []


def test_rank_table_generic_binary_field():
    X = _X(4, "3")
    assert rank_at(X, range(8)) \
        == footprint_at(parse_spec_string("3"), field_new(4), range(8))


def test_rank_reaches_cardinality_at_regularity():
    for q, spec_text in ((5, "3"), (3, "3"), (7, "3")):
        X = _X(q, spec_text)
        reg = regularity_formula(parse_spec_string(spec_text), field_new(q))
        below, at = rank_at(X, [reg - 1, reg])
        assert at == len(X)
        assert below < len(X)


def test_exponent_cap_does_not_change_rank():
    # Allowing exponents above q-2 only adds linearly dependent rows.
    X = _X(5, "3")
    for d in (4, 6):
        capped = _rank(build_evaluation_matrix(X, d))
        assert capped == _uncapped_rank(X, d)


def test_rank_invariant_under_column_permutation():
    X = _X(5, "3")
    M = build_evaluation_matrix(X, 2)
    rng = random.Random(61)
    perm = list(range(len(X)))
    rng.shuffle(perm)
    entries = M.entries[:, perm]
    shuffled = EvaluationMatrix(M.field, M.monomials,
                                [M.points[i] for i in perm], entries)
    assert _rank(shuffled) == _rank(M)


# -- distinct characters -------------------------------------------------------------


def test_character_table_fixtures():
    table = character_at(parse_spec_string("3"), field_new(5), range(7))
    assert table == [1, 4, 10, 20, 29, 32, 32]
    assert character_at(parse_spec_string("5"), field_new(5), [9]) == [512]
    assert character_at(parse_spec_string("3"), field_new(2), range(4)) \
        == [1, 1, 1, 1]
    assert character_at(parse_spec_string("3"), field_new(5), [-1]) == [0]


# Largest elimination the reference is run on, in field operations:
# rows * columns * min(rows, columns).
_RANK_WORK_CAP = 400_000


def _rank_dmax(spec, q, dmax):
    """Highest degree <= dmax whose evaluation matrix fits the cap."""
    npoints = cardinality_formula(spec, q)
    for d in range(dmax, 0, -1):
        rows = count_box_degree([min(q - 2, d)] * spec.nvars, d)
        if rows * npoints * min(rows, npoints) <= _RANK_WORK_CAP:
            return d
    return 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=st.sampled_from([3, 4, 5, 7, 8, 11, 13]),
       families=st.lists(st.tuples(st.sampled_from([3, 5]),
                                   st.integers(1, 2)),
                         min_size=1, max_size=2))
def test_character_table_matches_footprint_and_rank(q, families):
    spec = CycleFamilySpec(tuple(families))
    field = field_new(q)
    dmax = regularity_formula(spec, field) + 1
    chars = character_at(spec, field, range(dmax + 1))
    assert chars == footprint_at(spec, field, range(dmax + 1))
    assert chars[dmax] == cardinality_formula(spec, q)

    d = _rank_dmax(spec, q, dmax)
    if d:
        X = enumerate_toric_set(spec, field)
        assert rank_at(X, range(d + 1)) == chars[:d + 1]


# -- code parameters --------------------------------------------------------------------


def test_code_params_repetition_code():
    # d = 0: the n-fold repetition code [n, 1, n], zero Singleton slack.
    p = code_params(_X(5, "3"), 0)
    assert (p.n, p.dimension, p.min_distance) == (32, 1, 32)
    assert p.singleton_slack == 0
    assert p.min_distance_bracket is None
    assert singleton_check(p)


def test_code_params_degree_one():
    p = code_params(_X(5, "3"), 1)
    assert (p.q, p.d, p.n, p.dimension) == (5, 1, 32, 4)
    assert p.min_distance == 23
    assert p.singleton_slack == 6
    assert singleton_check(p)


def test_code_params_tiny_field():
    X = _X(3, "3")
    p0 = code_params(X, 0)
    assert (p0.n, p0.dimension, p0.min_distance, p0.singleton_slack) == (4, 1, 4, 0)
    p1 = code_params(X, 1)
    assert (p1.n, p1.dimension, p1.min_distance) == (4, 4, 1)
    assert p1.singleton_slack == 0
    p2 = code_params(X, 2)
    assert (p2.dimension, p2.min_distance) == (4, 1)


def test_code_params_binary_field_exact():
    # Exercises the generic (table-driven) matrix and distance paths.
    X = _X(4, "3")
    p0 = code_params(X, 0)
    assert (p0.n, p0.dimension, p0.min_distance, p0.singleton_slack) == (27, 1, 27, 0)
    p1 = code_params(X, 1)
    assert (p1.n, p1.dimension) == (27, 4)
    assert p1.min_distance == 18
    assert p1.singleton_slack == 6


def test_min_distance_weight_vs_direct_search():
    # Cross-check the chunked enumeration against a plain walk over all
    # messages for a small code.
    X = _X(3, "3")
    f = X.field
    M = build_evaluation_matrix(X, 1)
    import itertools

    rows = [[int(v) for v in row] for row in M.entries]
    best = None
    for msg in itertools.product(range(3), repeat=len(rows)):
        if not any(msg):
            continue
        word = [0] * len(X)
        for c, row in zip(msg, rows):
            if c:
                word = [f.add(w, f.mul(c, r)) for w, r in zip(word, row)]
        w = sum(1 for v in word if v)
        best = w if best is None else min(best, w)
    assert code_params(X, 1).min_distance == best


def test_min_distance_budget_fallback():
    X = _X(5, "3")
    assert code_params(X, 1, dist_budget=1).min_distance is None
    p = code_params(X, 2, dist_budget=1)
    assert p.min_distance is None
    assert p.min_distance_bracket == (1, len(X) - p.dimension + 1)
    assert p.singleton_slack is None


def test_code_params_default_budget_brackets_large_dimension():
    # 5^10 messages exceed the default budget, so only a bracket comes back.
    X = _X(5, "3")
    p = code_params(X, 2)
    assert p.dimension == 10
    assert p.min_distance is None
    assert p.min_distance_bracket == (1, 23)


def test_singleton_check_needs_exact_distance():
    p = code_params(_X(5, "3"), 2)
    with pytest.raises(ValueError):
        singleton_check(p)


def test_distance_non_increasing_as_dimension_grows():
    for q, spec_text, dmax in ((3, "3", 2), (4, "3", 1)):
        X = _X(q, spec_text)
        dists = [code_params(X, d).min_distance for d in range(dmax + 1)]
        dims = [code_params(X, d).dimension for d in range(dmax + 1)]
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_full_space_code_has_distance_one():
    # At d >= regularity the code is all of F_q^n.
    X = _X(3, "3")
    reg = regularity_formula(parse_spec_string("3"), field_new(3))
    p = code_params(X, reg)
    assert p.dimension == len(X)
    assert p.min_distance == 1


# -- the distance search against brute force ------------------------------------------


def _field_tables(field):
    """The field's addition and multiplication tabled from its scalar
    operations."""
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul


def _brute_force_distance(basis, field):
    """Least weight over every nonzero message times an elimination
    basis, in the field's tabled arithmetic."""
    q = field.q
    add, mul = _field_tables(field)
    rows = np.asarray(basis, dtype=np.int64)
    messages = np.array(
        list(itertools.product(range(q), repeat=len(rows)))[1:])
    words = np.zeros((len(messages), rows.shape[1]), dtype=np.int64)
    for coeffs, row in zip(messages.T, rows):
        words = add[words, mul[coeffs[:, None], row]]
    return int(np.count_nonzero(words, axis=1).min())


# Largest brute-force search, in codeword entries: q^dimension * n.
_DISTANCE_WORK_CAP = 2_000_000

_DISTANCE_INSTANCES = [
    (q, spec) for q in (2, 3, 4, 5, 7, 8)
    for spec in ("3", "5", "3x2", "3,5", "5x2", "3x2,5")
    if cardinality_formula(parse_spec_string(spec), q) <= 2_000]


def _check_distance(X, d):
    M = build_evaluation_matrix(X, d)
    basis, _ = codes._row_reduce(M.entries, X.field)
    dim = len(basis)
    p = code_params(X, d)
    assert p.dimension == dim
    assert p.min_distance == _brute_force_distance(basis, X.field)
    assert p.singleton_slack == len(X) - dim + 1 - p.min_distance


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instance=st.sampled_from(_DISTANCE_INSTANCES),
       d=st.integers(0, 2))
def test_code_params_matches_rank_and_brute_force(instance, d):
    q, spec_text = instance
    spec = parse_spec_string(spec_text)
    field = field_new(q)
    npoints = cardinality_formula(spec, q)
    while d and q ** footprint_at(spec, field, [d])[0] * npoints \
            > _DISTANCE_WORK_CAP:
        d -= 1
    _check_distance(enumerate_toric_set(spec, field), d)


@pytest.mark.parametrize("q, spec_text, d", [
    (4, "3", 1), (8, "3", 1), (2, "3x2", 2), (5, "3", 1), (3, "3x2", 1),
    (7, "3", 1)])
@pytest.mark.parametrize("cells", [0, 200])
def test_code_params_with_a_small_table(monkeypatch, q, spec_text, d, cells):
    # A small cap splits the basis into searched head rows and a tabled
    # tail (cap 0 tables nothing), on binary and prime fields alike.
    monkeypatch.setattr(codes, "_TABLE_CELLS", cells)
    _check_distance(_X(q, spec_text), d)


# -- the orbit search ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cached_X(q, spec_text):
    return _X(q, spec_text)


def _distinct_rows(X, d):
    """The distinct rows of the degree-d evaluation matrix, first
    occurrences in matrix order, with their monomials."""
    M = build_evaluation_matrix(X, d)
    _, first = np.unique(M.entries, axis=0, return_index=True)
    kept = np.sort(first)
    return M.entries[kept], np.array(M.monomials, dtype=np.int64)[kept]


def _weight(field, coeffs, rows):
    """Hamming weight of sum_a coeffs[a] * rows[a], in the field's
    tabled arithmetic."""
    add, mul = _field_tables(field)
    word = np.zeros(rows.shape[1], dtype=np.int64)
    for c, row in zip(coeffs, rows):
        word = add[word, mul[c, row]]
    return int(np.count_nonzero(word))


_ORBIT_INSTANCES = [(q, spec) for q in (3, 4, 5, 7, 8)
                    for spec in ("3", "5", "3x2")]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instance=st.sampled_from(_ORBIT_INSTANCES), d=st.integers(1, 2),
       data=st.data())
def test_weight_is_constant_on_orbits_of_scalars_and_translations(
        instance, d, data):
    # For g in X* and lambda in F_q^*, the message (lambda chi_a(g) m_a)_a
    # gives the codeword f(g .) scaled by lambda, a permutation of the
    # coordinates of f times a unit, so its weight is that of m.  The
    # log generators of the search give chi_a(g) for g the edge products
    # of omega^s at the vertices.
    q, spec_text = instance
    X = _cached_X(q, spec_text)
    field, r = X.field, q - 1
    basis, monomials = _distinct_rows(X, d)
    gens = codes._orbit_generators(X.spec, monomials, q)
    ints = st.integers(0, r - 1)
    message = data.draw(st.lists(st.integers(0, q - 1), min_size=len(basis),
                                 max_size=len(basis)))
    s = data.draw(st.lists(ints, min_size=X.nvars, max_size=X.nvars))
    lam = int(field.exp[data.draw(ints)])
    g = theta_map(X.spec, field, [int(field.exp[v]) for v in s])
    chi = basis[:, X.points.index(g)]
    assert not np.any((field.log[chi] - np.array(s) @ gens[1:]) % r)
    moved = [field.mul(lam, field.mul(int(c), m))
             for c, m in zip(chi, message)]
    assert _weight(field, moved, basis) == _weight(field, message, basis)


def _subgroup(gens, r):
    """The subgroup of Z_r^k that the rows of gens (k columns) generate,
    as a mask over its elements packed as base-r integers, by
    breadth-first search."""
    radix = r ** np.arange(gens.shape[1], dtype=np.int64)
    seen = np.zeros(r ** gens.shape[1], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        digits = frontier[:, None] // radix % r
        reached = np.unique((digits[:, None] + gens) % r @ radix)
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return seen


@settings(derandomize=True, deadline=None, max_examples=80)
@given(r=st.sampled_from([2, 3, 4, 6, 7, 12, 15]), k=st.integers(1, 4),
       data=st.data())
def test_stabilizer_is_the_kernel_of_one_column(r, k, data):
    # The generators _stabilizer returns span exactly the elements of
    # the group that are 0 at column j, cut to the columns after j.
    rows = data.draw(st.lists(
        st.lists(st.integers(0, r - 1), min_size=k, max_size=k),
        max_size=3))
    gens = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    j = data.draw(st.integers(0, k - 1))
    h = math.gcd(r, *gens[:, j].tolist())
    got = codes._stabilizer([tuple(row) for row in rows], j, h, r)
    got = np.array(got, dtype=np.int64).reshape(len(got), k - j - 1)
    radix = r ** np.arange(k, dtype=np.int64)
    digits = np.flatnonzero(_subgroup(gens, r))[:, None] // radix % r
    want = np.zeros(r ** (k - j - 1), dtype=bool)
    want[digits[digits[:, j] == 0, j + 1:] @ radix[:k - j - 1]] = True
    assert np.array_equal(_subgroup(got, r), want)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
@pytest.mark.parametrize("spec_text", ["3", "5", "3x2"])
def test_orbit_walk_visits_one_message_per_orbit(q, spec_text):
    # Orbits of G = F_q^* x X* on messages of support S are the cosets of
    # L_S, the image of G in Z_(q-1)^S, so there are
    # sum_S (q-1)^|S| / |L_S| of them.  Here L_S is generated by the
    # all-ones vector and, per vertex v, the logs of every basis row at
    # the edge products of omega at v and 1 elsewhere.
    X = _cached_X(q, spec_text)
    field, r = X.field, q - 1
    basis, monomials = _distinct_rows(X, 1)
    dim = len(basis)
    columns = []
    for v in range(X.nvars):
        g = theta_map(X.spec, field,
                      [int(field.exp[int(u == v)]) for u in range(X.nvars)])
        columns.append(field.log[basis[:, X.points.index(g)]])
    group = np.array([[1] * dim] + columns, dtype=np.int64) % r
    orbits = 0
    for size in range(1, dim + 1):
        for S in itertools.combinations(range(dim), size):
            orbits += r ** size // int(_subgroup(group[:, S], r).sum())
    gens = codes._orbit_generators(X.spec, monomials, q)
    visited = sum(len(block)
                  for block in codes._orbit_blocks(basis, gens, field))
    assert visited == orbits


@pytest.mark.parametrize("q, spec_text, distance", [
    (8, "3x2", 100842), (5, "3,5", 11776), (4, "3,5", 4374)])
def test_code_params_exact_distance_pins(q, spec_text, distance):
    # Each pin agrees with the plain search over all messages.  For even
    # q, X* is the whole torus, and 100842 = (q-2)(q-1)^5 is the
    # affine-cartesian closed form at d = 1.
    p = code_params(_X(q, spec_text), 1)
    assert p.min_distance == distance
    if q == 8:
        assert distance == (q - 2) * (q - 1) ** 5
