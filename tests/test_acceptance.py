"""Acceptance suite: eight end-to-end criteria, one test each.

Each test is self-contained and asserts exact integer equality against
frozen expectations; the slower ones also assert their wall-clock
budget.  The terminal summary (see conftest) prints one PASS/FAIL line
per criterion.
"""

import time

from cyclecodes import (
    CycleFamilySpec,
    buchberger_is_groebner,
    build_generators,
    cardinality_formula,
    code_params,
    degenerate_torus_at,
    enumerate_toric_set,
    enumerated_cardinality,
    field_new,
    footprint_at,
    parse_spec_string,
    rank_at,
    union_at,
    regularity_bruteforce,
    regularity_formula,
    singleton_check,
    solve_betas,
)
from oracles import (
    Polynomial,
    as_polynomial,
    iter_disjoint_binomials,
    ordered_scan_divide,
    placed_generators,
    vanishing_membership,
)


def test_criterion_1_flagship_instance_golden_values():
    # q = 5, one 5-cycle: every published number of the flagship example.
    t0 = time.perf_counter()
    q, k = 5, 5
    field = field_new(q)
    spec = CycleFamilySpec.single(k)

    X = enumerate_toric_set(spec, field)
    assert len(X) == 512
    assert cardinality_formula(spec, q) == 512

    probe = (1, 2, 9)
    expected = [6, 21, 512]
    assert footprint_at(spec, q, probe) == expected
    assert union_at(k, q, probe) == expected
    assert rank_at(X, probe) == expected

    for i, expected in ((2, [6, 18, 128]), (1, [6, 17, 64]), (0, [6, 16, 32])):
        assert degenerate_torus_at(i, k, q, probe) == expected

    assert regularity_formula(spec, q) == 9
    assert regularity_bruteforce(spec, q) == 9

    assert solve_betas(k, q).betas == (6, -15, 10)

    gens = build_generators(k, q)
    assert len(gens) == 15
    assert buchberger_is_groebner(gens)

    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_generators_form_groebner_basis():
    t0 = time.perf_counter()
    for q, k, m in ((3, 3, 1), (5, 3, 1), (5, 5, 1), (7, 3, 1), (5, 3, 2)):
        gens = placed_generators(CycleFamilySpec.single(k, m), q)
        assert buchberger_is_groebner(gens), (q, k, m)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_three_hilbert_routes_agree():
    # Footprint count = union-of-boxes count = evaluation-matrix rank
    # for every degree through regularity + 1.
    t0 = time.perf_counter()
    for q, k in ((3, 3), (5, 3), (5, 5), (7, 3)):
        field = field_new(q)
        spec = CycleFamilySpec.single(k)
        reg = regularity_formula(spec, q)
        X = enumerate_toric_set(spec, field)
        degrees = range(reg + 2)
        fp = footprint_at(spec, q, degrees)
        un = union_at(k, q, degrees)
        assert fp == un == rank_at(X, degrees), (q, k)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_4_cardinality_enumeration_matches_formula():
    for q in (3, 5, 7):
        for k in (3, 5):
            for m in (1, 2):
                spec = CycleFamilySpec.single(k, m)
                field = field_new(q)
                assert (enumerated_cardinality(spec, field)
                        == cardinality_formula(spec, q)), (q, k, m)
    # Torus branch: q - 1 odd, X* is the whole torus.
    for q in (4, 8):
        spec = CycleFamilySpec.single(3)
        field = field_new(q)
        n = enumerated_cardinality(spec, field)
        assert n == cardinality_formula(spec, q) == (q - 1) ** 3
        assert len(enumerate_toric_set(spec, field)) == n


def test_criterion_5_regularity_additive_over_components():
    spec = parse_spec_string("3,5")
    r3 = regularity_formula(CycleFamilySpec.single(3), 5)
    r5 = regularity_formula(CycleFamilySpec.single(5), 5)
    assert (r3, r5) == (5, 9)
    assert regularity_formula(spec, 5) == 14
    assert regularity_bruteforce(spec, 5) == 14


def test_criterion_6_beta_coefficients_field_independent():
    assert solve_betas(3, 5).betas == (-2, 3)
    assert solve_betas(3, 13).betas == (-2, 3)
    assert solve_betas(5, 5).betas == (6, -15, 10)
    assert solve_betas(5, 13).betas == (6, -15, 10)


def test_criterion_7_ideal_membership_complete_at_small_scale():
    # Exhaustively: a support-disjoint binomial with exponents <= q-2
    # vanishes on X* exactly when it divides to zero remainder.
    t0 = time.perf_counter()
    for q, k in ((3, 3), (5, 3)):
        field = field_new(q)
        spec = CycleFamilySpec.single(k)
        X = enumerate_toric_set(spec, field)
        gens = [as_polynomial(g, field)
                for g in build_generators(k, q)]
        vanishing = 0
        for a, b in iter_disjoint_binomials(k, q):
            f = Polynomial.binomial(field, a, b)
            vanishes = vanishing_membership(f, X)
            _, r = ordered_scan_divide(f, gens)
            assert vanishes == r.is_zero, (q, k, a, b)
            vanishing += vanishes
        assert vanishing > 0, (q, k)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_8_code_parameters_sane():
    X = enumerate_toric_set(CycleFamilySpec.single(3), field_new(3))
    reg = regularity_formula(CycleFamilySpec.single(3), 3)
    assert reg == 1

    p0 = code_params(X, 0)
    assert (p0.n, p0.dimension, p0.min_distance) == (4, 1, 4)
    assert p0.singleton_slack == 0
    assert singleton_check(p0)

    p1 = code_params(X, 1)
    assert p1.min_distance == 1
    assert singleton_check(p1)

    # From regularity on, the code is the whole space: distance exactly 1.
    for d in (reg, reg + 1):
        p = code_params(X, d)
        assert [p.dimension] == [len(X)] == rank_at(X, [d])
        assert p.min_distance == 1
