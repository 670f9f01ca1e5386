"""Tests for the binomial generator sets of the vanishing ideal."""

import json
import re

import pytest

from cyclecodes import (
    Binomial,
    BudgetExceeded,
    CycleFamilySpec,
    buchberger_is_groebner,
    build_generators,
    enumerate_toric_set,
    field_new,
    gamma_of,
    parse_spec_string,
)
from cyclecodes import cli, poly
from cyclecodes.cyclegraph import DEFAULT_ENUM_BUDGET
from cyclecodes.ideal import (
    check_build_budget,
    check_groebner_budget,
    generator_count,
    generator_lines,
)
from oracles import (
    Polynomial,
    as_polynomial,
    constant,
    iter_disjoint_binomials,
    parse_polynomial,
    placed_generators,
    vanishing_membership,
    zero,
)


# -- construction ---------------------------------------------------------------


def _torus(q, n):
    """The torus binomials t_i^(q-1) - 1 in variable order, which
    ``build_generators`` puts first."""
    return tuple(Binomial(tuple((q - 1) * (j == i) for j in range(n)),
                          (0,) * n) for i in range(n))


def _cycle_binomial(g, half):
    """Whether g is a difference of two monomials in (q-1)/2-th powers,
    as every cycle binomial is."""
    return type(g) is Binomial and {e for m in g for e in m} == {0, half}


def _read_binomial(line, n):
    """The Binomial on n variables that ``ideal`` writes as ``line``."""
    def mono(text):
        exps = [0] * n
        for name, exp in re.findall(r"t(\d+)(?:\^(\d+))?", text):
            exps[int(name) - 1] += int(exp or 1)
        return tuple(exps)
    return Binomial(*map(mono, re.split(r" [-+] ", line)))


def test_generator_count_flagship():
    # 5 torus relations, then C(5,2) = 10 cycle binomials.
    gens = build_generators(5, 5)
    assert type(gens) is tuple
    assert len(gens) == 15
    assert gens[:5] == _torus(5, 5)
    assert all(_cycle_binomial(g, 2) for g in gens[5:])


def test_generator_count_torus_field():
    # q - 1 odd: no cycle part at all.
    gens = build_generators(3, 4)
    assert gens == _torus(4, 3)
    assert len(gens) == 3


def test_generator_count_two_copies():
    gens = [_read_binomial(line, 6) for line in
            generator_lines(CycleFamilySpec.single(3, 2), 5)]
    # 6 torus + C(3,1) = 3 per copy, the copies in block order.
    assert tuple(gens[:6]) == _torus(5, 6)
    assert all(_cycle_binomial(g, 2) for g in gens[6:])
    assert not any(any(m[3:]) for g in gens[6:9] for m in g)
    assert not any(any(m[:3]) for g in gens[9:] for m in g)
    assert len(gens) == 12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_build_generators_refuses_a_length_of_no_odd_cycle(k):
    with pytest.raises(ValueError, match=f"odd and >= 3, got {k}"):
        build_generators(k, 5)


@pytest.mark.parametrize("spec_text", ["3", "5", "7", "3x2", "5,3", "3,5x2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_generator_count_without_building(spec_text, q):
    spec = parse_spec_string(spec_text)
    for k in spec.lengths:
        assert generator_count(k, q) == len(build_generators(k, q))
    assert sum(m * generator_count(k, q) for k, m in spec.components) \
        == len(placed_generators(spec, q))


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
    assert checked == [build_generators(k, q) for k in spec.lengths]
    sizes = [len(gens) for gens in checked]
    cells = sum(g * len(gens[0].lead) for g, gens in zip(sizes, checked))
    tests = 0 if q % 2 == 0 else sum(g * (g * (g - 1) // 2) for g in sizes)
    need = max(cells, tests)
    check_groebner_budget(spec, q, need)
    with pytest.raises(BudgetExceeded):
        check_groebner_budget(spec, q, need - 1)


@pytest.mark.parametrize("spec_text", ["3x2", "3x2,5", "5,3,5", "7x3",
                                       "3,5x2,3", "5,3x4,7"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 65521])
def test_generators_are_the_single_cycle_lists_at_the_block_offsets(
        capsys, spec_text, q):
    # ideal writes each copy from one cycle's list by shifting its
    # variables; the oracle places the same lists, n wide, at the block
    # offsets, and both texts must match byte for byte
    lines = [g.to_text(q) for g in placed_generators(
        parse_spec_string(spec_text), q)]
    argv = ["ideal", "--q", str(q), "--spec", spec_text]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
    assert cli.main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr() == (json.dumps(
        {"q": q, "spec": spec_text, "generators": lines}, indent=2) + "\n",
        "")


def test_the_build_budget_counts_each_copy_on_its_own_variables():
    # 3x4000000 over F_5: 6 generators on 3 variables a copy; 3,5 over
    # F_4: 3 and 5 torus binomials on 3 and 5 variables
    check_build_budget([(3, 4000000)], 5, 72000000)
    with pytest.raises(BudgetExceeded,
                       match="^generator build of 24000000 generators needs "
                             "72000000 exponent cells, budget is 71999999$"):
        check_build_budget([(3, 4000000)], 5, 72000000 - 1)
    check_build_budget([(3, 1), (5, 1)], 4, 34)
    with pytest.raises(BudgetExceeded, match="of 8 generators needs 34 "):
        check_build_budget([(3, 1), (5, 1)], 4, 33)


def test_torus_generator_shape():
    gens = build_generators(3, 5)
    assert gens[0] == Binomial((4, 0, 0), (0, 0, 0))
    assert gens[2] == Binomial((0, 0, 4), (0, 0, 0))


def test_cycle_generator_shape():
    gens = build_generators(3, 5)
    texts = sorted(g.to_text(5) for g in gens[3:])
    assert texts == [
        "t1^2*t2^2 - t3^2",
        "t1^2*t3^2 - t2^2",
        "t2^2*t3^2 - t1^2",
    ]


def test_cycle_generators_supports_disjoint_and_leading_longer():
    for q, k in ((5, 5), (7, 3), (13, 3)):
        gens = build_generators(k, q)
        gamma = gamma_of(k)
        half = (q - 1) // 2
        for g in gens[k:]:
            assert not any(map(min, g.lead, g.tail))
            # Leading monomial is the longer (gamma+1)-variable product.
            assert sum(g.lead) == (gamma + 1) * half
            assert sum(g.tail) == gamma * half


def test_second_block_generators_use_second_block_vars():
    lines = list(generator_lines(CycleFamilySpec.single(3, 2), 5))
    for line in lines[9:]:  # after 6 torus and 3 first-copy binomials
        for mono in _read_binomial(line, 6):
            assert all(e == 0 for e in mono[:3])
            assert any(e for e in mono[3:])


# -- vanishing -------------------------------------------------------------------


def test_generators_vanish_on_point_set():
    for q, spec_text in ((5, "3"), (5, "5"), (3, "3"), (7, "3"), (5, "3x2")):
        field = field_new(q)
        spec = parse_spec_string(spec_text)
        gens = placed_generators(spec, q)
        X = enumerate_toric_set(spec, field)
        assert all(vanishing_membership(as_polynomial(g, field), X)
                   for g in gens)


def test_perturbed_generator_does_not_vanish():
    field = field_new(5)
    spec = CycleFamilySpec.single(5)
    gens = build_generators(5, 5)
    X = enumerate_toric_set(spec, field)
    g = gens[5]  # the first cycle binomial, after 5 torus binomials
    bumped = list(g.lead)
    bumped[next(i for i, e in enumerate(g.lead) if e)] += 1
    perturbed = as_polynomial(Binomial(bumped, g.tail), field)
    assert not vanishing_membership(perturbed, X)


def test_torus_part_vanishes_on_any_unit_tuples():
    field = field_new(7)
    spec = CycleFamilySpec.single(3)
    gens = build_generators(3, 7)
    X = enumerate_toric_set(spec, field)
    for g in gens[:3]:
        assert vanishing_membership(as_polynomial(g, field), X)


def test_vanishing_membership_basics():
    field = field_new(5)
    spec = CycleFamilySpec.single(3)
    X = enumerate_toric_set(spec, field)
    assert vanishing_membership(zero(field, 3), X)
    assert not vanishing_membership(constant(field, 3, 1), X)
    f = parse_polynomial("t1^2*t2^2*t3^2 - 1", field, 3)
    assert vanishing_membership(f, X)


def test_groebner_property_small():
    gens = build_generators(3, 5)
    assert buchberger_is_groebner(gens)


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

