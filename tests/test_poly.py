"""Tests for sparse multivariate polynomials, orders, division and text."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import (
    DimensionMismatch,
    DivisorSet,
    Polynomial,
    ZeroDivisor,
    ZeroPolynomial,
    buchberger_is_groebner,
    build_generators,
    field_new,
    grlex_key,
    multivariate_divide,
    parse_spec_string,
    poly,
)
from cyclecodes import cli
from oracles import (
    constant,
    evaluate,
    leading_monomial,
    leading_term,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
    poly_add,
    poly_mul,
    poly_sub,
    s_polynomial,
    zero,
)

F5 = field_new(5)


def P(text, nvars=3, field=F5):
    return parse_polynomial(text, field, nvars)


# -- monomial helpers -------------------------------------------------------


def test_mono_helpers():
    assert mono_mul((1, 2, 0), (0, 1, 3)) == (1, 3, 3)
    assert mono_divides((1, 0, 0), (2, 1, 0))
    assert not mono_divides((1, 0, 1), (2, 1, 0))
    assert mono_div((2, 1, 0), (1, 0, 0)) == (1, 1, 0)
    assert mono_lcm((2, 0, 1), (1, 3, 0)) == (2, 3, 1)


def _coprime(a, b):
    return not any(map(min, a, b))


# -- packed monomials ---------------------------------------------------------

# Degree bounds on both sides of each field-width step (one, two and
# three bytes a field), and the largest leading degree of the
# generators at q = 65521 with its double, the bound of their divisor set.
_BOUNDS = [0, 1, 127, 128, 255, 256, 32767, 32768, 98280, 196560]


@st.composite
def _monomial(draw, nvars, degree):
    """A monomial on nvars variables of total degree exactly degree."""
    cuts = sorted(draw(st.lists(st.integers(0, degree),
                                min_size=nvars - 1, max_size=nvars - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def _packing_case(draw):
    """(nvars, bound, a, c) with deg a + deg c <= bound."""
    nvars = draw(st.integers(1, 24))
    bound = draw(st.sampled_from(_BOUNDS))
    da = draw(st.sampled_from([0, bound]) | st.integers(0, bound))
    dc = draw(st.sampled_from([0, bound - da]) | st.integers(0, bound - da))
    return (nvars, bound, draw(_monomial(nvars, da)),
            draw(_monomial(nvars, dc)))


def test_packing_matches_the_tuple_helpers():
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(case=_packing_case())
    def check(case):
        nvars, bound, a, c = case
        packing = poly.Packing(nvars, bound)
        assert packing.nbytes == bound.bit_length() // 8 + 1
        pack = packing.pack
        pa, pc = pack(a), pack(c)
        assert packing.unpack(pa) == a and packing.unpack(pc) == c
        assert (pa < pc) == (grlex_key(a) < grlex_key(c))
        assert (pa == pc) == (a == c)
        ac = mono_mul(a, c)
        assert pa + pc == pack(ac)
        assert pack(ac) - pc == pa == pack(mono_div(ac, c))
        l = mono_lcm(a, c)
        assert packing.lcm(pa, pc) == packing.lcm(pc, pa) == pack(l)

    check()


# -- monomial orders --------------------------------------------------------


def test_grlex_examples():
    assert grlex_key((1, 0, 0)) > grlex_key((0, 1, 0))
    assert grlex_key((0, 2, 0)) > grlex_key((1, 0, 0))  # degree wins first
    assert grlex_key((1, 0, 1)) > grlex_key((0, 2, 0))  # t1 highest
    assert grlex_key((2, 1, 0)) == grlex_key((2, 1, 0))
    assert grlex_key((0, 0, 1)) < grlex_key((0, 1, 0))


def test_grlex_respects_multiplication():
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randrange(6) for _ in range(4))
        b = tuple(rng.randrange(6) for _ in range(4))
        c = tuple(rng.randrange(6) for _ in range(4))
        if grlex_key(a) > grlex_key(b):
            assert grlex_key(mono_mul(a, c)) > grlex_key(mono_mul(b, c))


def test_order_keys_sort_consistently():
    # ascending by degree, then by t1, t2, ...; a polynomial keeps its
    # terms in the reverse of this order
    monos = [(0, 2), (1, 1), (0, 0), (2, 0), (0, 1), (1, 0)]
    assert sorted(monos, key=grlex_key) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    f = Polynomial(F5, 2, [(m, 1) for m in monos])
    assert [m for m, _ in f.terms] == sorted(monos, key=grlex_key,
                                             reverse=True)


# -- construction and leading terms ----------------------------------------


def test_leading_term_examples():
    f = P("t3^2 - t1*t2")
    assert leading_monomial(f) == (1, 1, 0)
    assert leading_term(f) == ((1, 1, 0), F5.neg(1))
    g = P("t1^2*t2^2*t3^2 - t4^2*t5^2", nvars=5)
    assert leading_monomial(g) == (2, 2, 2, 0, 0)
    assert leading_term(P("3")) == ((0, 0, 0), 3)


def test_leading_term_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        leading_term(zero(F5, 3))
    with pytest.raises(ZeroPolynomial):
        leading_monomial(zero(F5, 3))


def test_terms_sorted_descending_and_merged():
    f = Polynomial(F5, 2, [((0, 1), 2), ((1, 0), 3), ((0, 1), 4), ((0, 0), 5)])
    # (0,1) coefficients merge to 6 = 1; constant 5 = 0 drops out.
    assert f.terms == (((1, 0), 3), ((0, 1), 1))


def test_coefficients_reduced_mod_q():
    f = Polynomial(F5, 1, [((2,), 7), ((0,), -1)])
    assert f.terms == (((2,), 2), ((0,), 4))


def test_binary_coefficients_range_checked():
    f8 = field_new(8)
    p = Polynomial(f8, 1, [((1,), 5)])
    assert p.terms == (((1,), 5),)
    with pytest.raises(ValueError):
        Polynomial(f8, 1, [((1,), 9)])
    with pytest.raises(ValueError):
        Polynomial(f8, 1, [((1,), -1)])


def test_immutable():
    f = P("t1 + 1")
    with pytest.raises(AttributeError):
        f.nvars = 7


def test_arithmetic_ring_identities():
    rng = random.Random(11)
    f7 = field_new(7)

    def rand_poly():
        terms = [(tuple(rng.randrange(4) for _ in range(3)), rng.randrange(1, 7))
                 for _ in range(rng.randrange(1, 5))]
        return Polynomial(f7, 3, terms)

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b),
                                                       poly_mul(a, c))
        assert poly_sub(a, a) == zero(f7, 3)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_degree_and_monic():
    f = P("2*t1^3 + t2")
    assert f.degree() == 3
    monic = poly_mul(f, constant(F5, 3, F5.inv(2)))
    assert leading_term(monic) == ((3, 0, 0), 1)
    assert poly_mul(monic, constant(F5, 3, 2)) == f
    assert zero(F5, 3).degree() == -1


def test_mixed_field_or_order_rejected():
    with pytest.raises(DimensionMismatch):
        poly_add(P("t1"), P("t1", nvars=2))
    with pytest.raises(DimensionMismatch):
        poly_add(P("t1"), parse_polynomial("t1", field_new(7), 3))


# -- evaluation --------------------------------------------------------------


def test_evaluate_fermat():
    f = P("t1^4 - 1", nvars=1)
    for a in range(1, 5):
        assert evaluate(f, (a,)) == 0
    assert evaluate(f, (0,)) == 4


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(13)
    f7 = field_new(7)
    for _ in range(20):
        terms_a = [(tuple(rng.randrange(5) for _ in range(2)), rng.randrange(1, 7))]
        terms_b = [(tuple(rng.randrange(5) for _ in range(2)), rng.randrange(1, 7))]
        a = Polynomial(f7, 2, terms_a)
        b = Polynomial(f7, 2, terms_b)
        x = tuple(rng.randrange(7) for _ in range(2))
        assert evaluate(poly_add(a, b), x) == f7.add(evaluate(a, x),
                                                     evaluate(b, x))
        assert evaluate(poly_mul(a, b), x) == f7.mul(evaluate(a, x),
                                                     evaluate(b, x))


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(P("t1"), (1, 2))


# -- division ----------------------------------------------------------------


def test_divide_exact():
    f = P("t1^4 - 1", nvars=1)
    qs, r = multivariate_divide(f, [f])
    assert qs == [constant(F5, 1, 1)]
    assert r.is_zero


def test_divide_with_remainder():
    f = P("t1^5", nvars=1)
    g = P("t1^4 - 1", nvars=1)
    qs, r = multivariate_divide(f, [g])
    assert qs == [P("t1", nvars=1)]
    assert r == P("t1", nvars=1)


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroDivisor):
        multivariate_divide(P("t1"), [zero(F5, 3)])


def test_divide_invariants_random():
    rng = random.Random(23)
    f7 = field_new(7)
    torus = [parse_polynomial(f"t{i}^6 - 1", f7, 3) for i in (1, 2, 3)]
    for _ in range(30):
        terms = [(tuple(rng.randrange(8) for _ in range(3)), rng.randrange(1, 7))
                 for _ in range(rng.randrange(1, 6))]
        f = Polynomial(f7, 3, terms)
        qs, r = multivariate_divide(f, torus)
        # Exact polynomial identity f = sum q_i g_i + r.
        total = r
        for q, g in zip(qs, torus):
            total = poly_add(total, poly_mul(q, g))
        assert total == f
        # No remainder term is divisible by any divisor leading monomial.
        for mono, _ in r.terms:
            assert not any(mono_divides(leading_monomial(g), mono)
                           for g in torus)
        # Division never raises the leading monomial.
        fkey = grlex_key(leading_monomial(f)) if not f.is_zero else None
        for q, g in zip(qs, torus):
            if not q.is_zero:
                prod = poly_mul(q, g)
                assert grlex_key(leading_monomial(prod)) <= fkey


def test_divide_checks_every_divisor():
    f = P("t1^2 + t2")
    # an equal field built separately is compatible
    qs, r = multivariate_divide(f, [P("t1"), P("t2", field=field_new(5))])
    assert r.is_zero
    assert qs == [P("t1"), P("1")]
    for bad in (P("t1", nvars=2), P("t1", field=field_new(7))):
        with pytest.raises(DimensionMismatch):
            multivariate_divide(f, [P("t3"), bad])
    with pytest.raises(ZeroDivisor):
        multivariate_divide(f, [P("t3"), zero(F5, 3)])
    with pytest.raises(ZeroDivisor):
        multivariate_divide(f, [])


def test_divide_leaves_unused_divisors_a_zero_quotient():
    qs, r = multivariate_divide(P("t1^3 + t2"), [P("t3"), P("t1^2 - 1"),
                                                  P("t2^2")])
    assert [q.is_zero for q in qs] == [True, False, True]
    assert qs[1] == P("t1")
    assert r == P("t1 + t2")


def test_divide_remainder_exponents_reduced():
    # Dividing by the torus relations reduces all exponents below q-1.
    f = P("t1^9*t2^5 + 3*t3^4")
    gens = [P(f"t{i}^4 - 1") for i in (1, 2, 3)]
    _, r = multivariate_divide(f, gens)
    assert all(all(e < 4 for e in mono) for mono, _ in r.terms)
    assert r == P("t1*t2 + 3")


# -- S-polynomials and the Buchberger check ----------------------------------


def test_s_polynomial_examples():
    f = P("t1^4 - 1", nvars=2)
    g = P("t2^4 - 1", nvars=2)
    s = s_polynomial(f, g)
    assert s == P("t1^4 - t2^4", nvars=2)
    assert s_polynomial(f, f).is_zero


def test_s_polynomial_zero_input():
    with pytest.raises(ZeroPolynomial):
        s_polynomial(P("t1"), zero(F5, 3))


@pytest.mark.parametrize("q", [3, 4, 5, 8])
@pytest.mark.parametrize("s", [2, 4, 6])
def test_torus_relations_are_groebner(q, s):
    f = field_new(q)
    gens = [Polynomial.binomial(f, tuple(q - 1 if j == i else 0 for j in range(s)),
                                (0,) * s) for i in range(s)]
    assert buchberger_is_groebner(gens)


def test_non_groebner_detected():
    gens = [P("t1^2 - t2"), P("t1^3 - t3")]
    assert not buchberger_is_groebner(gens)


def _all_pairs_is_groebner(gens):
    """The check without the chain criterion: every pair whose leading
    monomials are not coprime is reduced."""
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _coprime(leading_monomial(gens[i]),
                        leading_monomial(gens[j])):
                continue
            _, r = multivariate_divide(s_polynomial(gens[i], gens[j]), gens)
            if not r.is_zero:
                return False
    return True


_FIELDS = [field_new(q) for q in (2, 3, 4, 5, 7, 8)]


@st.composite
def _polynomial(draw, field, nvars, max_terms, max_exp=3):
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_exp)] * nvars),
                  st.integers(1, field.q - 1)),
        min_size=1, max_size=max_terms))
    f = Polynomial(field, nvars, terms)
    return f if not f.is_zero else constant(field, nvars, 1)


@st.composite
def _generator_sets(draw):
    """(generators, dividend): random binomials, random polynomials, or
    a generator set of the vanishing ideal with one generator dropped or
    one exponent raised."""
    field = draw(st.sampled_from(_FIELDS))
    kind = draw(st.sampled_from(["binomials", "polynomials", "ideal"]))
    if kind == "ideal":
        spec = parse_spec_string(draw(st.sampled_from(["3", "5", "3x2"])))
        gens = build_generators(spec, field).all_generators()
        nvars = spec.nvars
        i = draw(st.integers(0, len(gens) - 1))
        if draw(st.booleans()):
            del gens[i]
        else:
            terms = list(gens[i].terms)
            t = draw(st.integers(0, len(terms) - 1))
            v = draw(st.integers(0, nvars - 1))
            mono = list(terms[t][0])
            mono[v] += 1
            terms[t] = (tuple(mono), terms[t][1])
            gens[i] = Polynomial(field, nvars, terms)  # may merge to 0
    else:
        nvars = draw(st.integers(2, 3))
        max_terms = 2 if kind == "binomials" else 3
        gens = draw(st.lists(_polynomial(field, nvars, max_terms),
                             min_size=1, max_size=4))
        if kind == "binomials":
            gens = [Polynomial(field, nvars, [(g.terms[0][0], 1),
                                              ((0,) * nvars, field.neg(1))])
                    if len(g.terms) == 1 else g for g in gens]
    gens = [g for g in gens if not g.is_zero] or [constant(field, nvars, 1)]
    f = draw(_polynomial(field, nvars, 5, max_exp=4))
    return gens, f


def test_chain_criterion_agrees_with_the_all_pairs_check():
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets())
    def check(draw):
        gens, f = draw
        got = buchberger_is_groebner(gens)
        assert got == _all_pairs_is_groebner(gens)
        outcomes.add(got)
        qs, r = multivariate_divide(f, gens)
        total = r
        for q, g in zip(qs, gens):
            total = poly_add(total, poly_mul(q, g))
        assert total == f
        for mono, _ in r.terms:
            assert not any(mono_divides(leading_monomial(g), mono)
                           for g in gens)

    check()
    assert outcomes == {True, False}


def _moved(g, places, nvars):
    """g with its variable i moved to variable places[i] of nvars."""
    terms = []
    for mono, c in g.terms:
        m = [0] * nvars
        for v, e in zip(places, mono):
            m[v] = e
        terms.append((tuple(m), c))
    return Polynomial(g.field, nvars, terms)


@st.composite
def _copied_sets(draw):
    """Copies of one small generator set, each on its own interleaved
    variables: copy c of a set on w variables takes variables
    c, c + copies, ..., shifted past an unused t1 if drawn.  The last
    copy may be renamed out of order or have one generator perturbed,
    a generator may link two copies through its tail only, a constant
    may be added, and the generators are listed copy by copy, round
    robin or shuffled."""
    field = draw(st.sampled_from(_FIELDS))
    if draw(st.booleans()):
        base = build_generators(parse_spec_string("3"),
                                field).all_generators()
    else:
        base = draw(st.lists(_polynomial(field, draw(st.integers(1, 2)), 2),
                             min_size=1, max_size=3))
    width, copies = base[0].nvars, draw(st.integers(2, 3))
    shift = draw(st.integers(0, 1))
    nvars = shift + copies * width
    places = [[shift + c + copies * i for i in range(width)]
              for c in range(copies)]
    if draw(st.booleans()):
        places[-1] = draw(st.permutations(places[-1]))
    parts = [[_moved(g, at, nvars) for g in base] for at in places]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(base) - 1))
        terms = list(parts[-1][i].terms)
        t = draw(st.integers(0, len(terms) - 1))
        mono = list(terms[t][0])
        mono[draw(st.sampled_from(places[-1]))] += 1
        terms[t] = (tuple(mono), terms[t][1])
        parts[-1][i] = Polynomial(field, nvars, terms)
    gens = draw(st.sampled_from([
        [g for part in parts for g in part],
        [g for row in zip(*parts) for g in row]]))
    if draw(st.booleans()):  # t_a^2 - t_b links the first two copies
        a, b = places[0][0], places[1][0]
        gens.append(Polynomial(field, nvars, [
            (tuple(2 * (v == a) for v in range(nvars)), 1),
            (tuple(int(v == b) for v in range(nvars)), field.neg(1))]))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), constant(
            field, nvars, draw(st.integers(1, field.q - 1))))
    if draw(st.booleans()):
        gens = draw(st.permutations(gens))
    return [g for g in gens if not g.is_zero]


def test_split_check_agrees_with_the_all_pairs_check():
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(gens=_copied_sets())
    def check(gens):
        got = buchberger_is_groebner(gens)
        assert got == _all_pairs_is_groebner(gens)
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_one_failing_copy_fails_the_split_check():
    # three copies of the basis of 3 over F_5, the last with one cycle
    # binomial dropped: only that copy fails, and the check finds it
    gens = build_generators(parse_spec_string("3x3"), F5).all_generators()
    assert buchberger_is_groebner(gens)
    broken = gens[:-1]
    assert not _all_pairs_is_groebner(broken)
    assert not buchberger_is_groebner(broken)


def _counted_divisions(monkeypatch):
    """A list that gains one entry per call of ``multivariate_divide``:
    each S-pair the check reduces."""
    calls = []
    divide = poly.multivariate_divide

    def counted(f, divisors):
        calls.append(1)
        return divide(f, divisors)

    monkeypatch.setattr(poly, "multivariate_divide", counted)
    return calls


def _reductions(monkeypatch, gens):
    """Run the check on gens, which must pass, and count the S-pairs it
    reduces."""
    calls = _counted_divisions(monkeypatch)
    assert buchberger_is_groebner(gens)
    return len(calls)


def test_chain_criterion_cuts_the_reductions(monkeypatch):
    # build_generators(7x3) over F_5: 126 generators, 2205 pairs whose
    # leading monomials share a variable.
    gens = build_generators(parse_spec_string("7x3"), F5).all_generators()
    pairs = sum(not _coprime(leading_monomial(a), leading_monomial(b))
                for i, a in enumerate(gens) for b in gens[i + 1:])
    assert pairs == 2205
    assert 0 < _reductions(monkeypatch, gens) < pairs


def test_chain_criterion_reduces_at_most_672_pairs_on_7x3(monkeypatch):
    # Visiting the pairs by increasing lcm lets the chain criterion use
    # every pair settled so far: 672 of the 2205 pairs are reduced when
    # all three copies are checked, 224 when one copy stands for all.
    gens = build_generators(parse_spec_string("7x3"), F5).all_generators()
    assert 0 < _reductions(monkeypatch, gens) <= 672


@pytest.mark.parametrize("q, spec, reduced", [
    (5, "7x3", 672), (5, "9", 1050), (3, "11", 4752), (65521, "3x2,5", 61),
    (8, "3x2", 0),  # every pair of leading monomials is coprime
])
def test_reduced_pair_counts_do_not_move(monkeypatch, q, spec, reduced):
    # The pairs are visited in (degree, lcm, i, j) order, so the chain
    # criterion skips the same pairs whatever the monomial encoding.
    # Counted on the whole set, every copy included.
    gens = build_generators(parse_spec_string(spec),
                            field_new(q)).all_generators()
    assert _reductions(monkeypatch, gens) == reduced


@pytest.mark.parametrize("q, spec, reduced", [
    (5, "7x3", 224), (5, "9", 1050), (3, "11", 4752), (65521, "3x2,5", 53),
    (8, "3x2", 0),
])
def test_reduced_pair_counts_per_distinct_component_do_not_move(
        monkeypatch, capsys, q, spec, reduced):
    # groebner-check checks one cycle of each distinct length: the three
    # copies of 7x3 cost what 7 alone does, and 3x2,5 what 3,5 does.
    calls = _counted_divisions(monkeypatch)
    assert cli.main(["groebner-check", "--q", str(q), "--spec", spec]) == 0
    assert capsys.readouterr().out == "groebner basis check: pass\n"
    assert len(calls) == reduced


def test_the_check_and_division_leave_no_reference_cycles():
    # a divisor set, its packed divisors and the division results are
    # freed by reference counting, so the memo and the pair list go
    # when the check returns
    gens = build_generators(parse_spec_string("5"), F5).all_generators()
    gc.collect()
    gc.disable()
    try:
        assert buchberger_is_groebner(gens)
        multivariate_divide(poly_mul(gens[0], gens[1]), gens)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_empty_generator_set_is_groebner():
    assert buchberger_is_groebner([])


@pytest.mark.parametrize("gens, error", [
    # a zero generator is reported also when a mismatched one is present
    ([P("t1"), P("t2", nvars=2), zero(F5, 3)], ZeroPolynomial),
    ([P("t1"), P("t2", field=field_new(7))], DimensionMismatch),
    ([P("t1"), P("t2", nvars=2)], DimensionMismatch),
], ids=["zero", "fields", "nvars"])
def test_the_groebner_check_refuses_a_bad_generator_set(gens, error):
    with pytest.raises(error):
        buchberger_is_groebner(gens)


def test_groebner_check_over_a_large_prime_indexes_only_the_lead_exponents():
    gens = build_generators(parse_spec_string("3x2,5"),
                            field_new(65521)).all_generators()
    assert buchberger_is_groebner(gens)
    dset = DivisorSet(gens)
    for v, (row, masks) in enumerate(zip(dset.exponents, dset.masks)):
        distinct = {leading_monomial(g)[v] for g in gens}
        assert list(row) == sorted(distinct)
        assert len(masks) == len(row) + 1


# -- the prepared divisor set --------------------------------------------------


def _ordered_scan_divide(f, divisors):
    """Division that scans the divisors in order at every step and
    divides by the first whose leading monomial divides the term."""
    field, nvars = f.field, f.nvars
    quot = [[] for _ in divisors]
    rem = []
    work = dict(f.terms)
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        for i, g in enumerate(divisors):
            lm, lc = leading_term(g)
            if mono_divides(lm, mono):
                qm = mono_div(mono, lm)
                qc = field.mul(coeff, field.inv(lc))
                quot[i].append((qm, qc))
                for gm, gc in g.terms[1:]:
                    m2 = mono_mul(gm, qm)
                    c2 = field.sub(work.get(m2, 0), field.mul(gc, qc))
                    if c2:
                        work[m2] = c2
                    else:
                        work.pop(m2, None)
                break
        else:
            rem.append((mono, coeff))
    return ([Polynomial(field, nvars, ts) for ts in quot],
            Polynomial(field, nvars, rem))


def _dividing_by_scan(gens, mono):
    return sum(1 << k for k, g in enumerate(gens)
               if mono_divides(leading_monomial(g), mono))


def test_divisor_set_matches_the_ordered_scan():
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets(), extra=st.integers(0, 3))
    def check(draw, extra):
        gens, f = draw
        want = _ordered_scan_divide(f, gens)
        dset = DivisorSet(gens)
        assert multivariate_divide(f, gens) == want
        assert multivariate_divide(f, dset) == want
        leads = [leading_monomial(g) for g in gens]
        above = tuple(max(c) + 1 for c in zip(*leads))
        probes = [m for m, _ in f.terms] + leads + [
            above, (0,) * f.nvars, mono_lcm(leads[0], leads[-1])]
        for mono in probes:
            assert dset.dividing(mono) == _dividing_by_scan(gens, mono)
        # one more variable that no leading monomial uses: a zero column
        wider = [Polynomial(g.field, g.nvars + 1,
                            [(m + (0,), c) for m, c in g.terms]) for g in gens]
        wide_set = DivisorSet(wider)
        for mono in probes:
            assert wide_set.dividing(mono + (extra,)) \
                == _dividing_by_scan(gens, mono)

    check()


def test_packed_s_pairs_equal_s_polynomial():
    def same(gens):
        packed = DivisorSet(gens)
        lcm, leads = packed.packing.lcm, packed.leads
        for i, f in enumerate(gens):
            for j, g in enumerate(gens):
                if i != j:
                    s = packed.s_pair(i, j, lcm(leads[i], leads[j]))
                    assert s == s_polynomial(f, g)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets())
    def check(draw):
        same(draw[0])

    check()
    for q, spec in [(5, "3x2"), (8, "3x2"), (65521, "3x2,5")]:
        same(build_generators(parse_spec_string(spec),
                              field_new(q)).all_generators())


def test_a_dividend_above_the_set_bound_is_packed_wider():
    # leading degree at most 4, so the set packs one byte a field for
    # degrees up to 8; the dividends need one, two and three bytes
    gens = [P("t1^4 - 1"), P("t2^4 - 1"), P("t3^4 - 1"),
            P("t1^2*t2 - 2*t3^2 + t1")]
    dset = DivisorSet(gens)
    assert (dset.packing.bound, dset.packing.nbytes) == (8, 1)
    for text in ["t1^3*t2^3*t3^2 + t2", "t1^50*t2^40*t3^30 - 3*t1^7*t2",
                 "t1^130*t2^170 + 2*t3^255 - t1*t2*t3",
                 "t1^40000*t2^3 + t2^33000*t3 + 4*t1^2*t2"]:
        f = P(text)
        want = _ordered_scan_divide(f, gens)
        assert multivariate_divide(f, dset) == want
        assert multivariate_divide(f, gens) == want
        # a result packed at the wider width is divided as a plain dividend
        q = multivariate_divide(f, dset)[0][0]
        assert multivariate_divide(q, dset) == _ordered_scan_divide(q, gens)
    assert dset.packing.bound == 8


def test_division_results_behave_as_polynomials():
    gens = [P("t1^2 - t2"), P("t2*t3 - 1")]
    qs, r = multivariate_divide(P("t1^2*t3 + 3*t1 + t3"), gens)
    assert isinstance(r, Polynomial)
    want = P("3*t1 + t3 + 1")
    assert r == want and want == r and hash(r) == hash(want)
    assert r.terms == want.terms and repr(r) == repr(want)
    assert leading_term(r) == leading_term(want) and not r.is_zero
    assert poly_sub(r, want).is_zero and qs[1].is_zero is False
    with pytest.raises(AttributeError):
        r.terms = ()
    # a result divided again by the same set takes the packed path
    assert multivariate_divide(r, gens)[1] == want


def test_a_public_divisor_set_keeps_no_memo():
    gens = build_generators(parse_spec_string("5"), F5).all_generators()
    dset = DivisorSet(gens)
    for f in (poly_mul(gens[0], gens[1]),
              poly_add(poly_mul(gens[2], gens[3]), gens[4])):
        r = multivariate_divide(f, dset)[1]
        multivariate_divide(r, dset)
    assert dset.memo is None


def test_divisor_set_checks_the_divisors_and_the_dividend():
    with pytest.raises(ZeroDivisor):
        DivisorSet([])
    with pytest.raises(ZeroDivisor):
        DivisorSet([P("t3"), zero(F5, 3)])
    for bad in (P("t1", nvars=2), P("t1", field=field_new(7))):
        with pytest.raises(DimensionMismatch):
            DivisorSet([P("t3"), bad])
    # an equal field built separately is compatible
    dset = DivisorSet([P("t1"), P("t2", field=field_new(5))])
    assert len(dset.polys) == 2
    assert multivariate_divide(P("t1^2 + t2"), dset)[1].is_zero
    for dividend in (P("t1", nvars=2), P("t1", field=field_new(7))):
        with pytest.raises(DimensionMismatch):
            multivariate_divide(dividend, dset)


# -- text form -----------------------------------------------


def test_to_text_examples():
    assert P("t1^4 - 1", nvars=1).to_text() == "t1^4 - 1"
    assert P("2*t1^3 + 3*t2 - 1").to_text() == "2*t1^3 + 3*t2 - 1"
    assert P("-t1 + 2").to_text() == "-t1 + 2"
    assert zero(F5, 3).to_text() == "0"


def test_to_text_negative_constant():
    assert constant(F5, 1, 4).to_text() == "-1"


def test_to_text_binary_field_never_minus():
    f2 = field_new(2)
    p = Polynomial(f2, 2, [((1, 0), 1), ((0, 0), 1)])
    assert p.to_text() == "t1 + 1"
    # over F_4 the element 3 = q-1 is not -1, which is 1 there
    p = Polynomial(field_new(4), 2, [((1, 0), 1), ((0, 1), 3)])
    assert p.to_text() == "t1 + 3*t2"


def test_text_round_trips():
    rng = random.Random(29)
    for field in (F5, field_new(4), field_new(8)):
        q = field.q
        for _ in range(30):
            terms = [(tuple(rng.randrange(5) for _ in range(3)),
                      rng.randrange(1, q))
                     for _ in range(rng.randrange(1, 5))]
            f = Polynomial(field, 3, terms)
            assert P(f.to_text(), field=field) == f


def test_parse_coefficients_mod_q():
    assert P("7*t1") == P("2*t1")
    assert P("5*t1").is_zero
