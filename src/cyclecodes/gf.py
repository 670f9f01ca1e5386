"""Small finite fields.

Two kinds of field are supported, which together cover every case the
rest of the package needs:

* prime fields ``F_p`` for odd primes ``p <= 2**16`` — elements are the
  residues ``0..p-1`` with ordinary modular arithmetic;
* binary fields ``F_{2^e}`` for ``1 <= e <= 8`` — elements are integers
  ``0..2^e-1`` read as bit-vectors of polynomial coefficients, whose
  product is the carry-less product modulo a fixed irreducible
  polynomial.

This module alone knows the kind: ``Field(q)`` returns the subclass for
q's kind, which binds the kind's operations once.  Both kinds build
their unit group the same way, from the least element of order q-1
under the field's own product (the order test over the prime factors
of q-1) and the list of its powers, made on first use.  That list gives
the discrete-log and antilog tables ``Field.log`` and ``Field.exp``
(numpy arrays, with which array code multiplies units of either kind
by adding logs mod q-1) and the scalar products of binary fields, so
scalar work on prime fields never builds it.  ``add``, ``neg`` and
``scale`` also work on int arrays of elements.

Odd prime-power fields (9, 25, 27, ...) are rejected: nothing downstream
requires them, and supporting them would mean carrying general extension
field arithmetic for no benefit.

Elements are plain Python ints throughout.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DivisionByZero, UnsupportedField

_PRIME_LIMIT = 1 << 16

# Irreducible polynomial for each supported binary extension degree,
# encoded as a bitmask (bit i = coefficient of x^i).  E.g. 19 = 0b10011
# is x^4 + x + 1.
_BINARY_IRREDUCIBLE = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _carryless_mul_mod(a: int, b: int, mask: int, e: int) -> int:
    """Multiply two GF(2)[x] residues and reduce by the field polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> e:
            a ^= mask
    return acc


class Field:
    """Arithmetic for F_q, q an odd prime or a power of two.

    ``add``, ``sub``, ``neg``, ``mul``, ``inv`` and ``div`` take
    elements; ``add`` and ``neg`` also take int arrays of elements, and
    ``scale(c, a)`` multiplies an int64 array a by the element c.

    Attributes:
        q: field cardinality.
        p: characteristic.
        e: extension degree (1 for prime fields).
    """

    def __new__(cls, q: int) -> Field:
        if not isinstance(q, int) or q < 2:
            raise UnsupportedField(f"field size must be an integer >= 2, got {q!r}")
        if q & (q - 1) == 0:  # power of two
            if q.bit_length() - 1 not in _BINARY_IRREDUCIBLE:
                raise UnsupportedField(
                    f"binary field size {q} out of range (supported: 2..256)")
            return super().__new__(_BinaryField)
        if q > _PRIME_LIMIT:
            # before the primality test, whose trial division runs to sqrt(q)
            raise UnsupportedField(
                f"field size {q} exceeds the prime limit {_PRIME_LIMIT}")
        if not _is_prime(q):
            raise UnsupportedField(
                f"{q} is not an odd prime or a power of two; "
                "odd prime-power fields are not supported")
        return super().__new__(_PrimeField)

    # -- the unit group ---------------------------------------------------

    @cached_property
    def _powers(self) -> list[int]:
        """g^0, g^1, ..., g^(q-2) for the least g of order q-1 under the
        field's own product: g has that order iff g^((q-1)/f) != 1 for
        every prime factor f of q-1."""
        r, product = self.q - 1, self._product
        factors, m, f = set(), r, 2
        while f * f <= m:
            while m % f == 0:
                factors.add(f)
                m //= f
            f += 1
        if m > 1:
            factors.add(m)

        def power(a: int, n: int) -> int:
            acc = 1
            while n:
                if n & 1:
                    acc = product(acc, a)
                a = product(a, a)
                n >>= 1
            return acc

        g = next(g for g in range(1, self.q)
                 if all(power(g, r // f) != 1 for f in factors))
        powers = [1] * r
        for i in range(1, r):
            powers[i] = product(powers[i - 1], g)
        return powers

    @cached_property
    def exp(self) -> np.ndarray:
        """Antilogs: exp[i] = g^i for i = 0..q-2, g the least generator
        of the unit group.  Read-only."""
        import numpy as np

        exp = np.array(self._powers, dtype=np.int64)
        exp.flags.writeable = False
        return exp

    @cached_property
    def log(self) -> np.ndarray:
        """Discrete logs: log[a] = i with exp[i] = a for every unit a;
        log[0] = 0 is a placeholder.  Read-only."""
        import numpy as np

        log = np.zeros(self.q, dtype=np.int64)
        log[self.exp] = np.arange(self.q - 1)
        log.flags.writeable = False
        return log

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __repr__(self) -> str:
        return f"Field({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))


class _PrimeField(Field):
    """F_p: residues mod p."""

    def __init__(self, q: int):
        self.q = self.p = q
        self.e = 1

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    _product = mul

    def scale(self, c: int, a):
        return c * a % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)


class _BinaryField(Field):
    """F_{2^e}: bit-vectors of GF(2)[x] residues; scalar products go
    through the log tables of the unit group, array products through a
    q x q table."""

    def __init__(self, q: int):
        self.q, self.p, self.e = q, 2, q.bit_length() - 1

    def _product(self, a: int, b: int) -> int:
        return _carryless_mul_mod(a, b, _BINARY_IRREDUCIBLE[self.e], self.e)

    @cached_property
    def _logs(self) -> list[int]:
        logs = [0] * self.q
        for i, a in enumerate(self._powers):
            logs[a] = i
        return logs

    @cached_property
    def _times(self) -> np.ndarray:
        log = self.log
        times = self.exp[(log[:, None] + log) % (self.q - 1)]
        times[0] = 0
        times[:, 0] = 0
        return times

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._powers[(self._logs[a] + self._logs[b]) % (self.q - 1)]

    def scale(self, c: int, a):
        return self._times[c][a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._powers[-self._logs[a] % (self.q - 1)]


def field_new(q: int) -> Field:
    """Construct the field with q elements, validating q."""
    return Field(q)
