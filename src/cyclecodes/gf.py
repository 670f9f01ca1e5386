"""Small finite fields.

Two kinds of field are supported, which together cover every case the
rest of the package needs:

* prime fields ``F_p`` for odd primes ``p <= 2**16`` — elements are the
  residues ``0..p-1`` with ordinary modular arithmetic;
* binary fields ``F_{2^e}`` for ``1 <= e <= 8`` — elements are integers
  ``0..2^e-1`` read as bit-vectors of polynomial coefficients, with
  multiplication done through log/antilog tables built once per field.

Both kinds expose the discrete-log and antilog tables of their unit
group as numpy arrays (``Field.log``, ``Field.exp``), so array code
multiplies units of either kind by adding logs mod q-1.  They are
built, and numpy imported, on first use, so scalar work never pays for
them.

Odd prime-power fields (9, 25, 27, ...) are rejected: nothing downstream
requires them, and supporting them would mean carrying general extension
field arithmetic for no benefit.

Elements are plain Python ints throughout; a :class:`Field` instance
holds the arithmetic.
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


def _prime_generator_powers(p: int) -> list[int]:
    """g^0, g^1, ..., g^(p-2) for the least generator g of F_p*: g
    generates iff g^((p-1)/f) != 1 for every prime factor f of p-1."""
    r = p - 1
    factors, m, f = set(), r, 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    g = next(g for g in range(2, p)
             if all(pow(g, r // f, p) != 1 for f in factors))
    powers = [1] * r
    for i in range(1, r):
        powers[i] = powers[i - 1] * g % p
    return powers


class Field:
    """Arithmetic for F_q, q an odd prime or a power of two.

    Attributes:
        q: field cardinality.
        p: characteristic.
        e: extension degree (1 for prime fields).
    """

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise UnsupportedField(f"field size must be an integer >= 2, got {q!r}")
        if q & (q - 1) == 0:  # power of two
            e = q.bit_length() - 1
            if e not in _BINARY_IRREDUCIBLE:
                raise UnsupportedField(
                    f"binary field size {q} out of range (supported: 2..256)")
            self.q = q
            self.p = 2
            self.e = e
            self._build_binary_tables(e)
        elif q > _PRIME_LIMIT:
            # before the primality test, whose trial division runs to sqrt(q)
            raise UnsupportedField(
                f"field size {q} exceeds the prime limit {_PRIME_LIMIT}")
        elif _is_prime(q):
            self.q = q
            self.p = q
            self.e = 1
        else:
            raise UnsupportedField(
                f"{q} is not an odd prime or a power of two; "
                "odd prime-power fields are not supported")

    def _build_binary_tables(self, e: int) -> None:
        mask = _BINARY_IRREDUCIBLE[e]
        q = self.q
        # Find a multiplicative generator; x itself is not primitive for
        # every irreducible above (e.g. degree 8), so search from the
        # smallest candidate.  The group has q-1 elements, so a candidate
        # works iff its powers enumerate all of them.
        if q == 2:
            self._exp = [1]
            self._log = [0, 0]
            return
        for g in range(2, q):
            exp = [0] * (q - 1)
            log = [0] * q
            val = 1
            for i in range(q - 1):
                exp[i] = val
                log[val] = i
                val = _carryless_mul_mod(val, g, mask, e)
            if val == 1 and len(set(exp)) == q - 1:
                self._exp = exp
                self._log = log
                return
        raise UnsupportedField(f"internal error: no generator found for F_{q}")

    # -- discrete logs ----------------------------------------------------

    @cached_property
    def exp(self) -> np.ndarray:
        """Antilogs: exp[i] = g^i for i = 0..q-2, g a fixed generator of
        the unit group.  Read-only."""
        import numpy as np

        exp = np.array(self._exp if self.p == 2
                       else _prime_generator_powers(self.q), dtype=np.int64)
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

    # -- basic arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.p == 2:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return pow(a, self.q - 2, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        if self.p == 2:
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        return pow(a, n, self.q)

    # -- group structure --------------------------------------------------

    def units(self) -> list[int]:
        """All nonzero elements."""
        return [a for a in range(1, self.q)]

    def squares(self) -> list[int]:
        """The subgroup {a^2 : a nonzero}, sorted.

        Has (q-1)/2 elements when q is odd, q-1 elements in
        characteristic two (squaring is a bijection there).
        """
        return sorted({self.mul(a, a) for a in self.units()})

    def elements(self) -> list[int]:
        return list(range(self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))


def field_new(q: int) -> Field:
    """Construct the field with q elements, validating q."""
    return Field(q)
