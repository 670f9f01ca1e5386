"""Tests for finite-field arithmetic (odd primes and binary extensions)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import Field, UnsupportedField, field_new, gf
from oracles import add, elements, inv, neg, power, squares


def test_prime_field_shape():
    f = field_new(5)
    assert (f.q, f.p, f.e) == (5, 5, 1)


def test_binary_field_shape():
    f = field_new(8)
    assert (f.q, f.p, f.e) == (8, 2, 3)


def test_largest_supported_prime():
    f = field_new(65521)
    assert f.q == 65521
    assert f.mul(2, inv(f, 2)) == 1


def test_largest_supported_binary():
    f = field_new(256)
    assert (f.p, f.e) == (2, 8)
    for a in (1, 2, 7, 255):
        assert power(f, a, 255) == 1


@pytest.mark.parametrize("q", [0, 1, -5, 6, 9, 12, 25, 27, 512, 1024, 65537, 2**20,
                               2**61 - 1])
def test_unsupported_sizes_rejected(q):
    with pytest.raises(UnsupportedField):
        field_new(q)


def test_size_limit_comes_before_the_primality_test(monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(gf, "_is_prime", no_trial_division)
    for q in (65537, 65539, 2**61 - 1, 3**40):
        with pytest.raises(UnsupportedField, match="exceeds"):
            field_new(q)


def test_f5_arithmetic_examples():
    f = field_new(5)
    assert f.mul(2, 3) == 1
    assert power(f, 3, 4) == 1
    assert add(f, 4, 3) == 2
    assert neg(f, 2) == 3
    assert inv(f, 2) == 3
    assert f.mul(1, inv(f, 2)) == 3


def test_inverse_of_zero_raises():
    for q in (5, 8):
        f = field_new(q)
        with pytest.raises(ZeroDivisionError):
            inv(f, 0)
        with pytest.raises(ZeroDivisionError):
            f.mul(1, inv(f, 0))


def test_binary_multiplication_examples():
    f4 = field_new(4)
    # x * x = x + 1 and x * (x + 1) = 1 in F_4 = F_2[x]/(x^2 + x + 1).
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    f8 = field_new(8)
    assert f8.mul(2, 2) == 4
    assert f8.mul(2, 4) == 3  # x^3 = x + 1
    assert power(f8, 2, 7) == 1


def test_unit_group_order_f8():
    f = field_new(8)
    for a in range(1, 8):
        assert power(f, a, 7) == 1


def test_units_lists():
    # the units are 1..q-1, each once in the unit group's antilogs
    assert sorted(field_new(5).exp.tolist()) == [1, 2, 3, 4]
    assert field_new(2).exp.tolist() == [1]
    assert sorted(field_new(8).exp.tolist()) == list(range(1, 8))


def test_squares_examples():
    assert squares(field_new(5)) == [1, 4]
    assert squares(field_new(8)) == list(range(1, 8))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_square_subgroup_size_odd_q(q):
    f = field_new(q)
    sq = squares(f)
    assert len(sq) == (q - 1) // 2
    # Closed under multiplication.
    for a in sq:
        for b in sq:
            assert f.mul(a, b) in sq


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    elems = elements(f)
    for a in elems:
        assert add(f, a, 0) == a
        assert f.mul(a, 1) == a
        assert add(f, a, neg(f, a)) == 0
        if a != 0:
            assert f.mul(a, inv(f, a)) == 1
        for b in elems:
            assert add(f, a, b) == add(f, b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert add(f, add(f, a, b), c) == add(f, a, add(f, b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, add(f, b, c)) \
                    == add(f, f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [101, 257, 65521, 32, 64, 128, 256])
def test_field_axioms_random_triples(q):
    f = field_new(q)
    rng = random.Random(20240 + q)
    for _ in range(60):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))
        assert add(f, a, neg(f, a)) == 0
        if b != 0:
            assert f.mul(f.mul(a, inv(f, b)), b) == a
        assert power(f, a, 3) == f.mul(a, f.mul(a, a))


def test_pow_conventions():
    f = field_new(7)
    assert power(f, 3, 0) == 1
    assert power(f, 0, 0) == 1
    assert power(f, 0, 5) == 0
    assert power(f, 3, -1) == inv(f, 3)
    assert power(f, 3, -2) == inv(f, f.mul(3, 3))


def test_field_equality_and_hash():
    assert field_new(5) == field_new(5)
    assert hash(field_new(5)) == hash(field_new(5))
    assert field_new(5) != field_new(7)
    assert field_new(4) != field_new(5)
    assert isinstance(field_new(5), Field)


def test_elements_order():
    assert elements(field_new(5)) == [0, 1, 2, 3, 4]
    assert elements(field_new(4)) == [0, 1, 2, 3]
    # the elements are exactly 0..q-1: adding 1 permutes them
    for q in (4, 5):
        f = field_new(q)
        assert sorted(add(f, a, 1) for a in elements(f)) == elements(f)


_SUPPORTED_UP_TO_256 = [q for q in range(2, 257)
                        if q & (q - 1) == 0
                        or all(q % f for f in range(2, q))]
_SUPPORTED_UP_TO_64 = [q for q in _SUPPORTED_UP_TO_256 if q <= 64]


@pytest.mark.parametrize("q", _SUPPORTED_UP_TO_64)
def test_log_tables_multiply_every_pair_of_units(q):
    f = field_new(q)
    r, units = q - 1, list(range(1, q))
    assert sorted(f.exp.tolist()) == units
    assert [f.exp[f.log[a]] for a in units] == units
    logs = f.log[1:]
    products = f.exp[(logs[:, None] + logs) % r]
    assert products.tolist() == [[f.mul(a, b) for b in units]
                                 for a in units]


def test_log_tables_at_the_largest_prime():
    f = field_new(65521)
    assert len(set(f.exp.tolist())) == 65520
    assert f.exp.min() == 1 and f.exp.max() == 65520
    rng = random.Random(65521)
    for _ in range(200):
        a, b = rng.randrange(1, 65521), rng.randrange(1, 65521)
        assert f.exp[(f.log[a] + f.log[b]) % 65520] == f.mul(a, b)
        assert f.exp[f.log[a] * 7 % 65520] == power(f, a, 7)


def test_log_tables_are_read_only():
    f = field_new(5)
    with pytest.raises(ValueError):
        f.exp[0] = 2
    with pytest.raises(ValueError):
        f.log[1] = 2


# The generator of each field's unit group, exp[1] (exp[0] for q = 2):
# the least element of order q-1, pinned so that every table read
# through exp and log keeps its values.
_GENERATORS = {2: 1, 4: 2, 8: 2, 16: 2, 32: 2, 64: 2, 128: 2, 256: 3,
               3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 31: 3, 41: 6, 97: 5,
               101: 2, 257: 3, 2027: 2, 4099: 2, 65521: 17}


@pytest.mark.parametrize("q", sorted(_GENERATORS))
def test_generator_is_pinned(q):
    exp = field_new(q).exp
    assert exp[min(1, q - 2)] == _GENERATORS[q]


def _polynomial_product(a, b, e):
    """a * b in GF(2)[x] / (_BINARY_IRREDUCIBLE[e]): the full carry-less
    product, then the remainder by long division from the top bit."""
    full = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            full ^= a << i
    modulus = gf._BINARY_IRREDUCIBLE[e]
    for top in range(full.bit_length() - 1, e - 1, -1):
        if full >> top & 1:
            full ^= modulus << top - e
    return full


@pytest.mark.parametrize("q", [1 << e for e in range(1, 9)])
def test_binary_products_match_the_carryless_product(q):
    # mul against the table product exp[(log a + log b) % (q-1)] (0 when
    # a factor is 0) and against long division in GF(2)[x], for every pair
    f = field_new(q)
    exp, log = f.exp.tolist(), f.log.tolist()
    for a in range(q):
        for b in range(q):
            table = exp[(log[a] + log[b]) % (q - 1)] if a and b else 0
            assert f.mul(a, b) == table == _polynomial_product(a, b, f.e)


@pytest.mark.parametrize("q", _SUPPORTED_UP_TO_256 + [65521])
def test_inverses_match_the_log_tables(q):
    f = field_new(q)
    exp, log = f.exp.tolist(), f.log.tolist()
    units = (range(1, q) if q <= 256
             else random.Random(q).sample(range(1, q), 2000))
    for a in units:
        assert f.mul(a, inv(f, a)) == 1
        assert inv(f, a) == exp[-log[a] % (q - 1)]


@pytest.mark.parametrize("q", _SUPPORTED_UP_TO_64 + [128, 256, 65521])
def test_array_ops_match_scalar_ops(q):
    # iadd against the oracle's sum, and the log-space product that the
    # elimination and the distance search form, the antilog of the sum
    # of the logs with a zero factor masked, against mul
    f = field_new(q)
    if q <= 256:  # every pair
        a, b = np.divmod(np.arange(q * q), q)
    else:
        rng = random.Random(q)
        a, b = (np.array([0, 1, q - 1] + [rng.randrange(q)
                                          for _ in range(2000)])
                for _ in "ab")
    into = a.copy()
    assert f.iadd(into, b) is into
    assert into.tolist() == list(map(add, [f] * len(a), a.tolist(),
                                     b.tolist()))
    product = np.where((a == 0) | (b == 0), 0,
                       f.exp[(f.log[a] + f.log[b]) % (q - 1)])
    assert product.tolist() == list(map(f.mul, a.tolist(), b.tolist()))


@st.composite
def _sums(draw):
    """p, then two arrays of elements of F_p in an unsigned dtype that
    holds 2p - 2, as codes._orbit_blocks makes them."""
    p = draw(st.sampled_from([3, 5, 127, 251, 65521]))
    dtype = draw(st.sampled_from([d for d in (np.uint8, np.uint16, np.uint32)
                                  if np.iinfo(d).max >= 2 * p - 2]))
    size = draw(st.integers(0, 64))
    a, b = (draw(st.lists(st.integers(0, p - 1), min_size=size,
                          max_size=size)) for _ in "ab")
    return p, np.array(a, dtype=dtype), np.array(b, dtype=dtype)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_sums())
def test_prime_iadd_is_the_sum_mod_p(case):
    p, a, b = case
    want = (a.astype(np.int64) + b) % p
    into = a.copy()
    assert field_new(p).iadd(into, b) is into
    assert into.dtype == a.dtype and into.tolist() == want.tolist()
