"""Odd-cycle graphs and the point sets they parameterize.

A graph here is a disjoint union of odd cycles, given as an ordered
list of (k, m) families: m copies of the k-cycle.  Vertices are laid
out in consecutive blocks, one block of k per copy, families in the
given order.  Within one block at offset b the edges are

    (b, b+1), (b+1, b+2), ..., (b+k-2, b+k-1), (b+k-1, b)

so the i-th edge coordinate aligns with the i-th vertex of the block
and the total edge count equals the total vertex count.

The parameterized set X* is the image of the map sending a tuple of
nonzero field elements (one per vertex) to the tuple of edge products
x_j * x_k.  It is enumerated per cycle copy and combined by Cartesian
product, which is valid because the map acts independently on each
copy's block.  X* is one read-only numpy array of the discrete logs of
its coordinates, a row per point, rows in lexicographic order.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from math import prod

from .errors import (
    OddityError,
    ParseError,
    check_budget,
    check_product_budget,
    refuse_past_bits,
)
from .gf import Field

DEFAULT_ENUM_BUDGET = 1 << 26


def gamma_of(k: int) -> int:
    """The gamma parameter of an odd cycle: k = 2*gamma + 1."""
    return (k - 1) // 2


class CycleFamilySpec:
    """An ordered list of (cycle length k, multiplicity m) families.
    Immutable; two specs are equal when their components are."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[int, int], ...]):
        if not components:
            raise ValueError("need at least one cycle family")
        for k, m in components:
            if k % 2 == 0:
                raise OddityError(f"cycle length {k} is even; only odd "
                                  "cycles are supported")
            if k < 3:
                raise ValueError(f"cycle length must be >= 3, got {k}")
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m}")
        object.__setattr__(self, "components", tuple(
            (int(k), int(m)) for k, m in components))

    def __setattr__(self, *_):
        raise AttributeError("CycleFamilySpec is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    @classmethod
    def single(cls, k: int, m: int = 1) -> "CycleFamilySpec":
        return cls(((k, m),))

    @property
    def nvars(self) -> int:
        """Total edge count = total vertex count."""
        return sum(k * m for k, m in self.components)

    @property
    def lengths(self) -> tuple[int, ...]:
        """The distinct cycle lengths, in order of first appearance."""
        return tuple(dict.fromkeys(k for k, _ in self.components))

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(k, offset) for every cycle copy, in layout order, one copy at
        a time: no list of the copies is held."""
        off = 0
        for k, m in self.components:
            for _ in range(m):
                yield k, off
                off += k

    def to_string(self) -> str:
        return ",".join(f"{k}x{m}" if m > 1 else str(k)
                        for k, m in self.components)

    def __str__(self) -> str:
        return self.to_string()


_SPEC_ITEM = re.compile(r"\s*(\d+)\s*(?:x\s*(\d+)\s*)?$")


def parse_spec_string(text: str) -> CycleFamilySpec:
    """Parse the CLI grammar: comma-separated ``k`` or ``kxm`` items.

    Examples: ``"5"`` is one 5-cycle; ``"3x2,5"`` is two 3-cycles plus
    one 5-cycle.
    """
    if not text or not text.strip():
        raise ParseError("empty cycle spec")
    components = []
    pos = 0
    for item in text.split(","):
        m = _SPEC_ITEM.match(item)
        if not m:
            raise ParseError(f"bad spec item {item.strip()!r}; "
                             "expected 'k' or 'kxm'", position=pos)
        k = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) else 1
        try:
            CycleFamilySpec.single(k, mult)
        except OddityError:
            raise OddityError(f"cycle length {k} is even; only odd cycles "
                              "are supported", position=pos) from None
        except ValueError as exc:
            raise ParseError(str(exc), position=pos) from None
        components.append((k, mult))
        pos += len(item) + 1
    return CycleFamilySpec(tuple(components))


# -- the image of the parameterization map --------------------------------

def _single_cycle_mask(k: int, field: Field, budget: int) -> np.ndarray:
    """The image of one k-cycle copy as a (q-1)^k-byte mask, True at the
    code of each image point: the base-(q-1) integer whose digits are
    the discrete logs of its coordinates (every coordinate is a unit),
    the first coordinate most significant.

    In logs the edge-product map is linear: edge j carries
    (l_j + l_{j+1}) mod q-1 for vertex logs l.  The loop runs over the
    first vertex's log; the other k-1 vertices are one array of
    (q-1)^(k-1) assignments.  The mask deduplicates the codes and keeps
    them in order.  The digit arrays are int32 whenever every code
    fits, which cuts their memory by half."""
    import numpy as np

    r = field.q - 1
    check_product_budget(f"enumerating one {k}-cycle copy over F_{field.q}",
                         [(r, k)], "assignments", budget)
    dtype = np.int32 if r ** k < 1 << 31 else np.int64
    rest = np.arange(r ** (k - 1), dtype=dtype)
    first = last = rest // r ** (k - 2)  # vertex 1's log
    inner = np.zeros_like(rest)  # the edges that avoid vertex 0
    for j in range(2, k):
        x = rest // r ** (k - 1 - j) % r  # vertex j's log
        inner += (last + x) % r * r ** (k - j)
        last = x
    seen = np.zeros(r ** k, dtype=bool)
    for x0 in range(r):
        seen[(x0 + first) % r * r ** (k - 1) + inner + (last + x0) % r] = True
    return seen


class ToricSet:
    """X* as a read-only (|X*|, nvars) array of the discrete logs of its
    coordinates, its rows distinct and in increasing lexicographic order."""

    __slots__ = ("spec", "field", "logs")

    def __init__(self, spec: CycleFamilySpec, field: Field, logs: np.ndarray):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "logs", logs)

    def __setattr__(self, *_):
        raise AttributeError("ToricSet is immutable")

    def __len__(self) -> int:
        return len(self.logs)

    @property
    def nvars(self) -> int:
        return self.spec.nvars


def enumerate_toric_set(spec: CycleFamilySpec, field: Field,
                        budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """Materialize X* by per-copy enumeration and Cartesian product.
    Its points, counted from the marks, and its points x nvars cells
    (over F_2 every copy has one point) are checked before any code is
    decoded, in place, into log columns of the smallest unsigned dtype.
    Copies take consecutive coordinates and the first varies slowest, so
    the product of copies in code order is sorted and distinct."""
    import numpy as np

    r = field.q - 1
    masks = {k: _single_cycle_mask(k, field, budget) for k in spec.lengths}
    total = check_product_budget("materializing X*", [
        (int(masks[k].sum()), m) for k, m in spec.components],
        "points", budget)
    check_budget("materializing X*", total * spec.nvars, "cells",
                 sys.maxsize)
    dtype = np.min_scalar_type(r - 1)
    per_k = {}
    for k in spec.lengths:
        codes = np.flatnonzero(masks.pop(k))
        per_k[k] = digits = np.empty((len(codes), k), dtype=dtype)
        for j in reversed(range(k)):  # the last digit first, in place
            np.divmod(codes, r, out=(codes, digits[:, j]), casting="unsafe")
    logs = np.empty((total, spec.nvars), dtype=dtype)
    outer = 1
    for k, off in spec.blocks():
        # a run of rows per row of the copy, once per earlier row
        logs.reshape(outer, len(per_k[k]), -1, spec.nvars)[
            ..., off:off + k] = per_k[k][:, None]
        outer *= len(per_k[k])
    logs.flags.writeable = False
    return ToricSet(spec, field, logs)


def enumerated_cardinality(spec: CycleFamilySpec, field: Field,
                           budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """|X*| by per-copy enumeration, without materializing the product.

    Each distinct cycle length is enumerated once, as a mask whose
    marks are counted, never listed or decoded; the total is the
    product of per-copy counts, so specs whose full point set would
    exceed the budget can still be counted exactly.  A count whose bit
    lengths alone put it past errors.refuse_past_bits' limit is refused
    before the power is formed.
    """
    per_k = {k: int(_single_cycle_mask(k, field, budget).sum())
             for k in spec.lengths}
    factors = [(per_k[k], m) for k, m in spec.components]
    refuse_past_bits("counting X*", factors, "points")
    return prod(c ** m for c, m in factors)


def cardinality_factors(spec: CycleFamilySpec,
                        q: int) -> list[tuple[int, int]]:
    """|X*| as (count, m) pairs whose count^m multiply to it, no power
    formed: a k-cycle copy has (q-1)^k / h points, h = 2 when q-1 is even
    (opposite vertex assignments collide pairwise) and 1 otherwise, so
    m copies give ((q-1)/h, m) and (q-1, (k-1)m)."""
    h = 2 if (q - 1) % 2 == 0 else 1
    return [pair for k, m in spec.components
            for pair in (((q - 1) // h, m), (q - 1, (k - 1) * m))]


def cardinality_formula(spec: CycleFamilySpec, q: int) -> int:
    """Closed-form |X*|: one power per pair of cardinality_factors, no
    long division, refused first when its bit lengths alone put it past
    errors.refuse_past_bits' limit."""
    factors = cardinality_factors(spec, q)
    refuse_past_bits("closed-form |X*|", factors, "points")
    return prod(c ** m for c, m in factors)

