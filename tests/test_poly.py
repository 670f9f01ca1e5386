"""Tests for the binomials, the monomial order, the packed monomials,
division and the Groebner check, each against the oracles' polynomials
over a field, and for those oracles themselves."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import (
    Binomial,
    DimensionMismatch,
    DivisorSet,
    buchberger_is_groebner,
    build_generators,
    field_new,
    grlex_key,
    parse_spec_string,
    poly,
)
from cyclecodes import cli
from oracles import (
    Polynomial,
    add,
    as_polynomial,
    constant,
    degree,
    evaluate,
    inv,
    leading_monomial,
    leading_term,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    neg,
    ordered_scan_divide,
    parse_polynomial,
    placed_generators,
    poly_add,
    poly_mul,
    poly_sub,
    s_polynomial,
    zero,
)

F5 = field_new(5)


def P(text, nvars=3, field=F5):
    return parse_polynomial(text, field, nvars)


def B(text, nvars=3):
    """The binomial written ``lead - tail``."""
    lead, tail = (P(side, nvars).terms[0][0] for side in text.split(" - "))
    return Binomial(lead, tail)


def _oriented(a, b):
    """The binomial of the monomials a != b, the larger one leading."""
    return Binomial(*sorted((a, b), key=grlex_key, reverse=True))


def _monomials(dset, packed):
    """Packed monomials unpacked at the divisor set's width."""
    return [dset.packing.unpack(x) for x in packed]


def _remainder(b, dset):
    """The monomials of the remainder of the binomial b by the divisor
    set, larger first: b packed at the set's width and reduced by
    ``poly.multivariate_divide``."""
    pack = dset.packing.pack
    assert sum(b.lead) <= dset.packing.bound
    return _monomials(dset, poly.multivariate_divide(
        (pack(b.lead), pack(b.tail)), dset))


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
    assert leading_term(f) == ((1, 1, 0), neg(F5, 1))
    g = P("t1^2*t2^2*t3^2 - t4^2*t5^2", nvars=5)
    assert leading_monomial(g) == (2, 2, 2, 0, 0)
    assert leading_term(P("3")) == ((0, 0, 0), 3)


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        leading_term(zero(F5, 3))
    with pytest.raises(ValueError):
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
    b = B("t1 - 1")
    with pytest.raises(AttributeError):
        b.lead = (2, 0, 0)
    with pytest.raises(AttributeError):
        b.degree = 1


def test_binomial_checks_its_monomials():
    assert B("t2*t3 - t1") == Binomial((0, 1, 1), (1, 0, 0))
    # the lead must be the larger monomial in graded lex
    with pytest.raises(ValueError):
        Binomial((1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        Binomial((0, 1), (1, 0))
    with pytest.raises(DimensionMismatch):
        Binomial((2, 0), (0, 0, 0))


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
    assert degree(f) == 3
    monic = poly_mul(f, constant(F5, 3, inv(F5, 2)))
    assert leading_term(monic) == ((3, 0, 0), 1)
    assert poly_mul(monic, constant(F5, 3, 2)) == f
    assert degree(zero(F5, 3)) == -1


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
        assert evaluate(poly_add(a, b), x) == add(f7, evaluate(a, x),
                                                  evaluate(b, x))
        assert evaluate(poly_mul(a, b), x) == f7.mul(evaluate(a, x),
                                                     evaluate(b, x))


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(P("t1"), (1, 2))


# -- division ----------------------------------------------------------------
#
# The library reduces only the check's own S-pairs; division with
# quotients of any dividend is the oracle's, checked here for the
# identity the S-pair remainders are compared against.


def test_divide_exact():
    f = P("t1^4 - 1", nvars=1)
    qs, r = ordered_scan_divide(f, [f])
    assert qs == [constant(F5, 1, 1)]
    assert r.is_zero
    g = B("t1^4 - 1", nvars=1)
    assert _remainder(g, DivisorSet([g])) == []


def test_divide_with_remainder():
    f = P("t1^5", nvars=1)
    g = P("t1^4 - 1", nvars=1)
    qs, r = ordered_scan_divide(f, [g])
    assert qs == [P("t1", nvars=1)]
    assert r == P("t1", nvars=1)
    # t1^5 - 1 leaves t1 - 1
    assert _remainder(B("t1^5 - 1", nvars=1),
                      DivisorSet([B("t1^4 - 1", nvars=1)])) == [(1,), (0,)]


def test_divide_by_zero_polynomial():
    # a binomial of two equal monomials would be zero: none is made
    with pytest.raises(ValueError):
        Binomial((1, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        B("t1 - t1")


def test_divide_invariants_random():
    rng = random.Random(23)
    f7 = field_new(7)
    torus = [parse_polynomial(f"t{i}^6 - 1", f7, 3) for i in (1, 2, 3)]
    for _ in range(30):
        terms = [(tuple(rng.randrange(8) for _ in range(3)), rng.randrange(1, 7))
                 for _ in range(rng.randrange(1, 6))]
        f = Polynomial(f7, 3, terms)
        qs, r = ordered_scan_divide(f, torus)
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
    # a divisor on other variables is refused wherever it stands
    gens = [B("t1 - 1"), B("t2 - 1"), B("t3 - 1")]
    bad = B("t1 - 1", nvars=2)
    for k in range(len(gens) + 1):
        with pytest.raises(DimensionMismatch):
            DivisorSet(gens[:k] + [bad] + gens[k:])


def test_divide_leaves_unused_divisors_a_zero_quotient():
    gens = [P("t3"), P("t1^2 - 1"), P("t2^2")]
    qs, r = ordered_scan_divide(P("t1^3 + t2"), gens)
    assert [q.is_zero for q in qs] == [True, False, True]
    assert qs[1] == P("t1")
    assert r == P("t1 + t2")
    # the same divisors as binomials: t1^3 - t2 leaves t1 - t2
    gens = [B("t3 - 1"), B("t1^2 - 1"), B("t2^2 - 1")]
    assert _remainder(B("t1^3 - t2"), DivisorSet(gens)) == [(1, 0, 0),
                                                            (0, 1, 0)]


def test_divide_remainder_exponents_reduced():
    # Dividing by the torus relations reduces all exponents below q-1.
    f = P("t1^9*t2^5 + 3*t3^4")
    gens = [P(f"t{i}^4 - 1") for i in (1, 2, 3)]
    _, r = ordered_scan_divide(f, gens)
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
    with pytest.raises(ValueError):
        s_polynomial(P("t1"), zero(F5, 3))


@pytest.mark.parametrize("q", [3, 4, 5, 8])
@pytest.mark.parametrize("s", [2, 4, 6])
def test_torus_relations_are_groebner(q, s):
    gens = [Binomial(tuple(q - 1 if j == i else 0 for j in range(s)),
                     (0,) * s) for i in range(s)]
    assert buchberger_is_groebner(gens)


def test_non_groebner_detected():
    gens = [B("t1^2 - t2"), B("t1^3 - t3")]
    assert not buchberger_is_groebner(gens)
    assert not _all_pairs_is_groebner(gens, F5)


def _all_pairs_is_groebner(binomials, field):
    """The check without the chain criterion, on the binomials as
    polynomials over field: every pair whose leading monomials are not
    coprime is reduced by the oracle's division."""
    gens = [as_polynomial(b, field) for b in binomials]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _coprime(leading_monomial(gens[i]),
                        leading_monomial(gens[j])):
                continue
            _, r = ordered_scan_divide(s_polynomial(gens[i], gens[j]), gens)
            if not r.is_zero:
                return False
    return True


# the fields the oracle checks the binomials over
_QS = (2, 3, 4, 5, 7, 8)


@st.composite
def _binomial(draw, nvars, max_exp=3):
    """t^a - t^b, both monomials drawn, the larger one leading."""
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    a, b = draw(st.tuples(exps, exps).filter(lambda ab: ab[0] != ab[1]))
    return _oriented(a, b)


def _bumped(b, v, lead):
    """b with the exponent of variable v raised by one in its leading
    monomial, or in its trailing one when lead is false; None when the
    two monomials become equal."""
    a, c = list(b.lead), list(b.tail)
    (a if lead else c)[v] += 1
    return _oriented(tuple(a), tuple(c)) if a != c else None


@st.composite
def _generator_sets(draw):
    """(binomials, q, dividend): random binomials on 2 or 3 variables,
    or the generators of the vanishing ideal over F_q with one generator
    dropped or one exponent raised, a field size q for the oracle, and
    a binomial dividend of degree within the binomials' packing bound."""
    q = draw(st.sampled_from(_QS))
    if draw(st.booleans()):
        spec = parse_spec_string(draw(st.sampled_from(["3", "5", "3x2"])))
        gens = list(placed_generators(spec, q))
        nvars = spec.nvars
        i = draw(st.integers(0, len(gens) - 1))
        if draw(st.booleans()):
            del gens[i]
        else:
            gens[i] = _bumped(gens[i], draw(st.integers(0, nvars - 1)),
                              draw(st.booleans()))
    else:
        nvars = draw(st.integers(2, 3))
        gens = draw(st.lists(_binomial(nvars), min_size=1, max_size=4))
    gens = [g for g in gens if g is not None] or [
        Binomial((1,) + (0,) * (nvars - 1), (0,) * nvars)]
    bound = 2 * max(sum(g.lead) for g in gens)
    a, b = (draw(_monomial(nvars, draw(st.integers(0, bound))))
            for _ in range(2))
    return gens, q, _oriented(a, b) if a != b else None


def test_chain_criterion_agrees_with_the_all_pairs_check():
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets())
    def check(draw):
        gens, q, _ = draw
        got = buchberger_is_groebner(gens)
        assert got == _all_pairs_is_groebner(gens, field_new(q))
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_divide_agrees_with_the_ordered_scan():
    # the remainder of a binomial is empty exactly when the oracle's
    # division over F_q leaves 0, and otherwise has the oracle's two
    # monomials; the oracle's quotients and remainder satisfy the
    # division identity
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets())
    def check(draw):
        gens, q, b = draw
        if b is None:
            return
        field = field_new(q)
        divisors = [as_polynomial(g, field) for g in gens]
        f = as_polynomial(b, field)
        qs, r = ordered_scan_divide(f, divisors)
        got = _remainder(b, DivisorSet(gens))
        assert got == [m for m, _ in r.terms]
        outcomes.add(not got)
        total = r
        for quot, g in zip(qs, divisors):
            total = poly_add(total, poly_mul(quot, g))
        assert total == f
        for mono, _ in r.terms:
            assert not any(mono_divides(g.lead, mono) for g in gens)

    check()
    assert outcomes == {True, False}


def _moved(g, places, nvars):
    """g with its variable i moved to variable places[i] of nvars; the
    renaming may swap which monomial leads."""
    def move(mono):
        m = [0] * nvars
        for v, e in zip(places, mono):
            m[v] = e
        return tuple(m)

    return _oriented(move(g.lead), move(g.tail))


@st.composite
def _copied_sets(draw):
    """(binomials, q): copies of one small binomial set, each on its own
    interleaved variables: copy c of a set on w variables takes
    variables c, c + copies, ..., shifted past an unused t1 if drawn.
    The last copy may be renamed out of order or have one exponent of
    one binomial raised, a binomial may link two copies through its
    tail only, and the binomials are listed copy by copy, round robin
    or shuffled; q is a field size, of the generators of one 3-cycle
    when they are the set, for the oracle."""
    q = draw(st.sampled_from(_QS))
    if draw(st.booleans()):
        base = build_generators(3, q)
    else:
        base = draw(st.lists(_binomial(draw(st.integers(1, 2)), 2),
                             min_size=1, max_size=3))
    width, copies = len(base[0].lead), draw(st.integers(2, 3))
    shift = draw(st.integers(0, 1))
    nvars = shift + copies * width
    places = [[shift + c + copies * i for i in range(width)]
              for c in range(copies)]
    if draw(st.booleans()):
        places[-1] = draw(st.permutations(places[-1]))
    parts = [[_moved(g, at, nvars) for g in base] for at in places]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(base) - 1))
        parts[-1][i] = _bumped(parts[-1][i],
                               draw(st.sampled_from(places[-1])),
                               draw(st.booleans()))
    gens = draw(st.sampled_from([
        [g for part in parts for g in part],
        [g for row in zip(*parts) for g in row]]))
    if draw(st.booleans()):  # t_a^2 - t_b links the first two copies
        a, b = places[0][0], places[1][0]
        gens.append(Binomial(tuple(2 * (v == a) for v in range(nvars)),
                             tuple(int(v == b) for v in range(nvars))))
    if draw(st.booleans()):
        gens = draw(st.permutations(gens))
    return [g for g in gens if g is not None], q


def test_split_check_agrees_with_the_all_pairs_check():
    outcomes = set()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(draw=_copied_sets())
    def check(draw):
        gens, q = draw
        got = buchberger_is_groebner(gens)
        assert got == _all_pairs_is_groebner(gens, field_new(q))
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


def test_one_failing_copy_fails_the_split_check():
    # three copies of the basis of 3 over F_5, the last with one cycle
    # binomial dropped: only that copy fails, and the check finds it
    gens = placed_generators(parse_spec_string("3x3"), 5)
    assert buchberger_is_groebner(gens)
    broken = gens[:-1]
    assert not _all_pairs_is_groebner(broken, F5)
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
    # the whole set of 7x3 over F_5: 126 generators, 2205 pairs whose
    # leading monomials share a variable.
    gens = placed_generators(parse_spec_string("7x3"), 5)
    pairs = sum(not _coprime(a.lead, b.lead)
                for i, a in enumerate(gens) for b in gens[i + 1:])
    assert pairs == 2205
    assert 0 < _reductions(monkeypatch, gens) < pairs


def test_chain_criterion_reduces_at_most_672_pairs_on_7x3(monkeypatch):
    # Visiting the pairs by increasing lcm lets the chain criterion use
    # every pair settled so far: 672 of the 2205 pairs are reduced when
    # all three copies are checked, 224 when one copy stands for all.
    gens = placed_generators(parse_spec_string("7x3"), 5)
    assert 0 < _reductions(monkeypatch, gens) <= 672


@pytest.mark.parametrize("q, spec, reduced", [
    (5, "7x3", 672), (5, "9", 1050), (3, "11", 4752), (65521, "3x2,5", 61),
    (8, "3x2", 0),  # every pair of leading monomials is coprime
])
def test_reduced_pair_counts_do_not_move(monkeypatch, q, spec, reduced):
    # The pairs are visited in (degree, lcm, i, j) order, so the chain
    # criterion skips the same pairs whatever the monomial encoding.
    # Counted on the whole set, every copy included.
    gens = placed_generators(parse_spec_string(spec), q)
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
    # a divisor set, its packed divisors and the remainders are freed
    # by reference counting, so the memo and the pair list go when the
    # check returns
    gens = build_generators(5, 5)
    gc.collect()
    gc.disable()
    try:
        assert buchberger_is_groebner(gens)
        _remainder(Binomial(mono_mul(gens[0].lead, gens[1].lead),
                            gens[0].tail), DivisorSet(gens))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_empty_generator_set_is_groebner():
    assert buchberger_is_groebner([])


@pytest.mark.parametrize("gens, error", [
    ([B("t1 - 1"), B("t2 - 1", nvars=2)], DimensionMismatch),
], ids=["nvars"])
def test_the_groebner_check_refuses_a_bad_generator_set(gens, error):
    with pytest.raises(error):
        buchberger_is_groebner(gens)


def test_groebner_check_over_a_large_prime_indexes_only_the_lead_exponents():
    gens = placed_generators(parse_spec_string("3x2,5"), 65521)
    assert buchberger_is_groebner(gens)
    dset = DivisorSet(gens)
    for v, (row, masks) in enumerate(zip(dset.exponents, dset.masks)):
        distinct = {g.lead[v] for g in gens}
        assert list(row) == sorted(distinct)
        assert len(masks) == len(row) + 1


# -- the prepared divisor set --------------------------------------------------


def _dividing_by_scan(gens, mono):
    return sum(1 << k for k, g in enumerate(gens)
               if mono_divides(g.lead, mono))


def test_divisor_set_checks_the_divisors_and_the_dividend():
    with pytest.raises(ValueError):
        DivisorSet([])
    with pytest.raises(DimensionMismatch):
        DivisorSet([B("t3 - 1"), B("t1 - 1", nvars=2)])
    dset = DivisorSet([B("t1 - 1"), B("t2 - 1")])
    assert len(dset.leads) == len(dset.tails) == 2
    assert _remainder(B("t1^2 - t2"), dset) == []
    # the reduction's dividends are the set's own S-pairs: every
    # monomial fits the set's packing and carries its degree in the
    # degree field
    dset, pairs = _every_s_pair(
        placed_generators(parse_spec_string("3x2"), 5), F5)
    packing = dset.packing
    for packed, _ in pairs:
        for m in packed:
            exps = packing.unpack(m)
            assert len(exps) == packing.nvars
            assert sum(exps) == m >> packing.nvars * packing.width
            assert sum(exps) <= packing.bound


def test_divisor_set_matches_the_ordered_scan():
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets(), extra=st.integers(0, 3))
    def check(draw, extra):
        gens, _, b = draw
        dset = DivisorSet(gens)
        leads = [g.lead for g in gens]
        above = tuple(max(c) + 1 for c in zip(*leads))
        probes = list(b or ()) + leads + [
            above, (0,) * len(above), mono_lcm(leads[0], leads[-1])]
        for mono in probes:
            assert dset.dividing(mono) == _dividing_by_scan(gens, mono)
        # one more variable that no leading monomial uses: a zero column
        wider = [Binomial(g.lead + (0,), g.tail + (0,)) for g in gens]
        wide_set = DivisorSet(wider)
        for mono in probes:
            assert wide_set.dividing(mono + (extra,)) \
                == _dividing_by_scan(gens, mono)

    check()


def _every_s_pair(gens, field):
    """The divisor set of the binomials gens and, for every ordered pair
    i != j, its S-pair as ``buchberger_is_groebner`` builds it, the
    packed monomials (l - lead_j + tail_j, l - lead_i + tail_i) for l
    the packed lcm of the leads, and the oracle's S-polynomial over
    field."""
    dset = DivisorSet(gens)
    lcm, leads, tails = dset.packing.lcm, dset.leads, dset.tails
    polys = [as_polynomial(g, field) for g in gens]
    pairs = []
    for i, f in enumerate(polys):
        for j, g in enumerate(polys):
            if i != j:
                l = lcm(leads[i], leads[j])
                pairs.append(((l - leads[j] + tails[j],
                               l - leads[i] + tails[i]), s_polynomial(f, g)))
    return dset, pairs


def _drawn_and_built_sets(check):
    """Run check on the binomials and field of 200 ``_generator_sets``
    draws, then on the whole generator sets of 3x2 over F_5 and F_8 and
    3x2,5 over F_65521."""
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(draw=_generator_sets())
    def drawn(draw):
        check(draw[0], field_new(draw[1]))

    drawn()
    for q, spec in [(5, "3x2"), (8, "3x2"), (65521, "3x2,5")]:
        check(placed_generators(parse_spec_string(spec), q), field_new(q))


def test_packed_s_pairs_equal_s_polynomial():
    # S(g_i, g_j) is the binomial of the two packed monomials
    def same(gens, field):
        dset, pairs = _every_s_pair(gens, field)
        for (x, y), s in pairs:
            plus, minus = _monomials(dset, (x, y))
            assert Polynomial(field, len(plus), [
                (plus, 1), (minus, neg(field, 1))]) == s

    _drawn_and_built_sets(same)


def test_s_pair_remainders_equal_the_ordered_scan():
    # the check's reduction of every ordered pair against the oracle's
    # division of the oracle's S-polynomial by the same list
    def same(gens, field):
        dset, pairs = _every_s_pair(gens, field)
        polys = [as_polynomial(g, field) for g in gens]
        for packed, s in pairs:
            got = _monomials(dset, poly.multivariate_divide(packed, dset))
            r = ordered_scan_divide(s, polys)[1]
            assert got == [m for m, _ in r.terms]

    _drawn_and_built_sets(same)


# -- text form -----------------------------------------------


def test_to_text_examples():
    assert B("t1^4 - 1", nvars=1).to_text(5) == "t1^4 - 1"
    assert B("t2*t3 - t1").to_text(3) == "t2*t3 - t1"
    assert B("t1^2*t2^2 - t3^2").to_text(65521) == "t1^2*t2^2 - t3^2"
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
    assert B("t1 - 1", nvars=2).to_text(2) == "t1 + 1"
    assert B("t3^3 - 1").to_text(4) == "t3^3 + 1"
    assert B("t2*t3 - t1").to_text(8) == "t2*t3 + t1"
    # over F_4 the element 3 = q-1 is not -1, which is 1 there
    p = Polynomial(field_new(4), 2, [((1, 0), 1), ((0, 1), 3)])
    assert p.to_text() == "t1 + 3*t2"


def test_binomial_text_is_the_polynomial_text():
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(q=st.sampled_from(_QS + (65521,)), nvars=st.integers(1, 4),
           data=st.data())
    def check(q, nvars, data):
        b = data.draw(_binomial(nvars, max_exp=12))
        text = b.to_text(q)
        field = field_new(q)
        assert text == as_polynomial(b, field).to_text()
        assert P(text, nvars, field) == as_polynomial(b, field)

    check()


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
