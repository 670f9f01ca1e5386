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
q's kind, which defines the kind's product ``mul`` of two int elements
once.  ``Field`` derives the unit group from it: one square-and-multiply
power finds its generator, the least element of order q-1 (the order
test over the prime factors of q-1).  Its powers, made on first use,
are the antilog table ``Field.exp``, and ``Field.log`` inverts it.
These numpy tables are the whole of the array arithmetic for products:
array code of either kind multiplies units by adding their logs mod
q-1.  The one array operation that differs by kind is the sum,
``iadd``, which adds into an array of elements in place.

Odd prime-power fields (9, 25, 27, ...) are rejected: nothing downstream
requires them, and supporting them would mean carrying general extension
field arithmetic for no benefit.
"""

from __future__ import annotations

from functools import cached_property

from .errors import UnsupportedField

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


class Field:
    """Arithmetic for F_q, q an odd prime or a power of two.

    ``mul`` takes two elements; ``iadd(a, b)`` adds the array b to the
    int array a in place (its dtype must hold the sum of two elements,
    2q - 2, which an unsigned dtype does in the fewest bytes) and
    returns a.  A subclass defines both; the unit group and its tables
    ``exp`` and ``log`` come from ``mul``.

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

    # -- powers and the unit group -----------------------------------------

    def _power(self, a: int, n: int) -> int:
        """a^n for n >= 0, by square-and-multiply under ``mul``."""
        mul, acc = self.mul, 1
        while n:
            if n & 1:
                acc = mul(acc, a)
            a = mul(a, a)
            n >>= 1
        return acc

    @cached_property
    def exp(self) -> np.ndarray:
        """Antilogs: exp[i] = g^i for i = 0..q-2, g the least element of
        order q-1: g has that order iff g^((q-1)/f) != 1 for every prime
        factor f of q-1.  Read-only."""
        import numpy as np

        r, mul = self.q - 1, self.mul
        factors, m, f = set(), r, 2
        while f * f <= m:
            while m % f == 0:
                factors.add(f)
                m //= f
            f += 1
        if m > 1:
            factors.add(m)
        g = next(g for g in range(1, self.q)
                 if all(self._power(g, r // f) != 1 for f in factors))
        powers = [1] * r
        for i in range(1, r):
            powers[i] = mul(powers[i - 1], g)
        exp = np.array(powers, dtype=np.int64)
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

    def iadd(self, a, b):
        """a + b mod p into a, without a division: the sum s is below
        2p, and in the unsigned view of a, s - p wraps past s exactly
        when s < p, so the least of s and s - p is s mod p."""
        import numpy as np

        a += b
        u = a.view(f"u{a.itemsize}")
        np.minimum(u, u - self.q, out=u)
        return a

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q


class _BinaryField(Field):
    """F_{2^e}: bit-vectors of GF(2)[x] residues, added by XOR."""

    def __init__(self, q: int):
        self.q, self.p, self.e = q, 2, q.bit_length() - 1

    def iadd(self, a, b):
        a ^= b
        return a

    def mul(self, a: int, b: int) -> int:
        """The carry-less product of a and b modulo the field
        polynomial ``_BINARY_IRREDUCIBLE[e]``."""
        mask, e, acc = _BINARY_IRREDUCIBLE[self.e], self.e, 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> e:
                a ^= mask
        return acc


def field_new(q: int) -> Field:
    """Construct the field with q elements, validating q."""
    return Field(q)
