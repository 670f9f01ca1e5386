"""Tests for the binomial generator sets of the vanishing ideal."""

import pytest

from cyclecodes import (
    BudgetExceeded,
    CycleFamilySpec,
    Polynomial,
    buchberger_is_groebner,
    build_generators,
    enumerate_toric_set,
    field_new,
    gamma_of,
    parse_spec_string,
)
from cyclecodes import cli, poly
from cyclecodes.cyclegraph import DEFAULT_ENUM_BUDGET
from cyclecodes.ideal import check_groebner_budget, generator_count
from oracles import (
    constant,
    iter_disjoint_binomials,
    leading_monomial,
    parse_polynomial,
    vanishing_membership,
    zero,
)


# -- construction ---------------------------------------------------------------


def test_generator_count_flagship():
    # 5 torus relations + C(5,2) = 10 cycle binomials.
    gens = build_generators(CycleFamilySpec.single(5), field_new(5))
    assert len(gens.torus_part) == 5
    assert len(gens.cycle_parts) == 1
    assert len(gens.cycle_parts[0]) == 10
    assert len(gens) == 15
    assert len(gens.all_generators()) == 15


def test_generator_count_torus_field():
    # q - 1 odd: no cycle part at all.
    gens = build_generators(CycleFamilySpec.single(3), field_new(4))
    assert len(gens.torus_part) == 3
    assert gens.cycle_parts == ()
    assert len(gens) == 3


def test_generator_count_two_copies():
    gens = build_generators(CycleFamilySpec.single(3, 2), field_new(5))
    # 6 torus + C(3,1) = 3 per copy.
    assert len(gens.torus_part) == 6
    assert [len(p) for p in gens.cycle_parts] == [3, 3]
    assert len(gens) == 12


@pytest.mark.parametrize("spec_text", ["3", "5", "7", "3x2", "5,3", "3,5x2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_generator_count_without_building(spec_text, q):
    spec = parse_spec_string(spec_text)
    assert generator_count(spec, q) == len(build_generators(spec, field_new(q)))


def test_groebner_budget_counts_lead_tests():
    spec = parse_spec_string("13")  # 13 + C(13, 6) = 1729 generators
    tests = 1729 * (1729 * 1728 // 2)
    check_groebner_budget(spec, 3, tests)
    with pytest.raises(BudgetExceeded,
                       match=f"Groebner check of 1729 generators needs "
                             f"{tests} lead tests, budget is {tests - 1}"):
        check_groebner_budget(spec, 3, tests - 1)
    # the default budget admits every single cycle up to k = 11 and 7x3
    for text in ("11", "9", "7x3"):
        check_groebner_budget(parse_spec_string(text), 3, DEFAULT_ENUM_BUDGET)
    with pytest.raises(BudgetExceeded):
        check_groebner_budget(spec, 3, DEFAULT_ENUM_BUDGET)


def test_groebner_budget_counts_the_generator_cells_first():
    # 9001 over F_4: 9001 torus binomials on 9001 variables, whose
    # leading monomials are pairwise coprime, so no lead tests
    spec = parse_spec_string("9001")
    cells = 9001 * 9001
    with pytest.raises(BudgetExceeded,
                       match=f"^generator build of 9001 generators needs "
                             f"{cells} exponent cells, budget is "
                             f"{DEFAULT_ENUM_BUDGET}$"):
        check_groebner_budget(spec, 4, DEFAULT_ENUM_BUDGET)
    check_groebner_budget(spec, 4, cells)
    # even q: one cycle of each length, 3 * 3 + 5 * 5 cells
    spec = parse_spec_string("3x100,5")
    check_groebner_budget(spec, 8, 34)
    with pytest.raises(BudgetExceeded, match="exponent cells"):
        check_groebner_budget(spec, 8, 33)


def test_groebner_budget_counts_lead_tests_over_distinct_components():
    # 7x40 over F_5: one 7-cycle of 7 + 35 generators stands for all 40
    # copies, and 3x30000 one 3-cycle for its 30000
    spec = parse_spec_string("7x40")
    tests = 42 * (42 * 41 // 2)
    check_groebner_budget(spec, 5, tests)
    with pytest.raises(BudgetExceeded, match="needs 36162 lead tests"):
        check_groebner_budget(spec, 5, tests - 1)
    check_groebner_budget(parse_spec_string("3x30000"), 5, 6 * 15)
    # 3x2,5 over F_5: a 3-cycle of 3 + 3 and a 5-cycle of 5 + 10
    # generators
    spec = parse_spec_string("3x2,5")
    tests = 6 * 15 + 15 * 105
    check_groebner_budget(spec, 5, tests)
    with pytest.raises(BudgetExceeded,
                       match=f"^Groebner check of 21 generators needs "
                             f"{tests} lead tests, budget is {tests - 1}$"):
        check_groebner_budget(spec, 5, tests - 1)


@pytest.mark.parametrize("spec_text", ["3", "5", "3x2", "3x2,5", "5,3,5",
                                       "7x3", "3,5x2,3"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_budget_counts_the_components_the_check_runs(monkeypatch, capsys,
                                                     spec_text, q):
    # groebner-check checks one cycle of each distinct length, and the
    # budget counts exactly the lists it checks
    spec = parse_spec_string(spec_text)
    checked = []
    check = poly.buchberger_is_groebner

    def counted(gens):
        checked.append(gens)
        return check(gens)

    monkeypatch.setattr(poly, "buchberger_is_groebner", counted)
    assert cli.main(["groebner-check", "--q", str(q),
                     "--spec", spec_text]) == 0
    assert capsys.readouterr().out == "groebner basis check: pass\n"
    field = field_new(q)
    assert checked == [
        build_generators(CycleFamilySpec.single(k), field).all_generators()
        for k in spec.lengths]
    sizes = [len(gens) for gens in checked]
    cells = sum(g * gens[0].nvars for g, gens in zip(sizes, checked))
    tests = 0 if q % 2 == 0 else sum(g * (g * (g - 1) // 2) for g in sizes)
    need = max(cells, tests)
    check_groebner_budget(spec, q, need)
    with pytest.raises(BudgetExceeded):
        check_groebner_budget(spec, q, need - 1)


def _placed(g, off, nvars):
    """g, a polynomial of one cycle, moved to the variables
    off..off+k-1 of nvars."""
    pad = nvars - off - g.nvars
    return Polynomial(g.field, nvars, [((0,) * off + m + (0,) * pad, c)
                                       for m, c in g.terms])


@pytest.mark.parametrize("spec_text", ["3x2", "3x2,5", "5,3,5", "7x3",
                                       "3,5x2,3"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_generators_are_the_single_cycle_lists_at_the_block_offsets(
        spec_text, q):
    # the check of one cycle per length stands for the whole set
    # because the whole set is made of exactly those lists
    spec = parse_spec_string(spec_text)
    field = field_new(q)
    gens = build_generators(spec, field)
    torus, cycle_parts = [], []
    for k, off in spec.blocks():
        one = build_generators(CycleFamilySpec.single(k), field)
        torus += [_placed(g, off, spec.nvars) for g in one.torus_part]
        cycle_parts += [tuple(_placed(g, off, spec.nvars) for g in part)
                        for part in one.cycle_parts]
    assert gens.torus_part == tuple(torus)
    assert gens.cycle_parts == tuple(cycle_parts)


def test_torus_generator_shape():
    gens = build_generators(CycleFamilySpec.single(3), field_new(5))
    f5 = field_new(5)
    assert gens.torus_part[0] == Polynomial.binomial(f5, (4, 0, 0), (0, 0, 0))
    assert gens.torus_part[2] == Polynomial.binomial(f5, (0, 0, 4), (0, 0, 0))


def test_cycle_generator_shape():
    gens = build_generators(CycleFamilySpec.single(3), field_new(5))
    texts = sorted(g.to_text() for g in gens.cycle_parts[0])
    assert texts == [
        "t1^2*t2^2 - t3^2",
        "t1^2*t3^2 - t2^2",
        "t2^2*t3^2 - t1^2",
    ]


def test_cycle_generators_supports_disjoint_and_leading_longer():
    for q, k in ((5, 5), (7, 3), (13, 3)):
        field = field_new(q)
        gens = build_generators(CycleFamilySpec.single(k), field)
        gamma = gamma_of(k)
        half = (q - 1) // 2
        for g in gens.cycle_parts[0]:
            (plus, one), (minus, minus_one) = g.terms
            assert (one, minus_one) == (1, field.neg(1))
            assert not any(map(min, plus, minus))
            # Leading monomial is the longer (gamma+1)-variable product.
            assert sum(leading_monomial(g)) == (gamma + 1) * half


def test_second_block_generators_use_second_block_vars():
    gens = build_generators(CycleFamilySpec.single(3, 2), field_new(5))
    for g in gens.cycle_parts[1]:
        for mono, _ in g.terms:
            assert all(e == 0 for e in mono[:3])
            assert any(e for e in mono[3:])


# -- vanishing -------------------------------------------------------------------


def test_generators_vanish_on_point_set():
    for q, spec_text in ((5, "3"), (5, "5"), (3, "3"), (7, "3"), (5, "3x2")):
        field = field_new(q)
        spec = parse_spec_string(spec_text)
        gens = build_generators(spec, field)
        X = enumerate_toric_set(spec, field)
        assert all(vanishing_membership(g, X) for g in gens)


def test_perturbed_generator_does_not_vanish():
    field = field_new(5)
    spec = CycleFamilySpec.single(5)
    gens = build_generators(spec, field)
    X = enumerate_toric_set(spec, field)
    g = gens.cycle_parts[0][0]
    (mp, cp), (mm, cm) = g.terms
    bumped = list(mp)
    bumped[next(i for i, e in enumerate(mp) if e)] += 1
    perturbed = Polynomial(field, g.nvars, [(tuple(bumped), cp), (mm, cm)])
    assert not vanishing_membership(perturbed, X)


def test_torus_part_vanishes_on_any_unit_tuples():
    field = field_new(7)
    spec = CycleFamilySpec.single(3)
    gens = build_generators(spec, field)
    X = enumerate_toric_set(spec, field)
    for g in gens.torus_part:
        assert vanishing_membership(g, X)


def test_vanishing_membership_basics():
    field = field_new(5)
    spec = CycleFamilySpec.single(3)
    X = enumerate_toric_set(spec, field)
    assert vanishing_membership(zero(field, 3), X)
    assert not vanishing_membership(constant(field, 3, 1), X)
    f = parse_polynomial("t1^2*t2^2*t3^2 - 1", field, 3)
    assert vanishing_membership(f, X)


def test_groebner_property_small():
    field = field_new(5)
    gens = build_generators(CycleFamilySpec.single(3), field)
    assert buchberger_is_groebner(gens.all_generators())


# -- the space of candidate binomials ----------------------------------------------


def test_iter_disjoint_binomials_small():
    got = set(iter_disjoint_binomials(2, 3))
    # Unordered pairs {a,b}, a != b, per-variable exponents in {0,1}
    # on at most one side.
    assert len(got) == 4
    as_polys = {
        Polynomial.binomial(field_new(3), p, m).to_text() for p, m in got
    }
    assert as_polys == {"t1 - 1", "t2 - 1", "t1 - t2", "t1*t2 - 1"}


def test_iter_disjoint_binomials_count():
    # Per variable: 1 + 2*(q-2) exponent placements; drop a == b == 0,
    # halve for unordered pairs.
    n, q = 3, 5
    per_var = 1 + 2 * (q - 2)
    expected = (per_var ** n - 1) // 2
    assert sum(1 for _ in iter_disjoint_binomials(n, q)) == expected


def test_iter_disjoint_binomials_properties():
    for a, b in iter_disjoint_binomials(3, 4):
        assert not any(map(min, a, b))
        assert all(e <= 2 for e in a + b)
        assert a != b

