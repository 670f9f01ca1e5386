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
copy's block.  X* is one read-only numpy array of coordinates, a row
per point, rows in lexicographic order.
"""

from __future__ import annotations

import re
from math import prod

from .errors import OddityError, ParseError, check_budget
from .gf import Field

DEFAULT_ENUM_BUDGET = 1 << 26
DEFAULT_DIST_BUDGET = 1 << 22


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

    def blocks(self) -> list[tuple[int, int]]:
        """(k, offset) for every cycle copy, in layout order."""
        out = []
        off = 0
        for k, m in self.components:
            for _ in range(m):
                out.append((k, off))
                off += k
        return out

    def edges(self) -> list[tuple[int, int]]:
        """Global edge list in the pinned order."""
        out = []
        for k, off in self.blocks():
            for j in range(k - 1):
                out.append((off + j, off + j + 1))
            out.append((off + k - 1, off))
        return out

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

def _single_cycle_codes(k: int, field: Field, budget: int) -> np.ndarray:
    """Sorted distinct image points of one k-cycle copy, each packed as
    a base-(q-1) integer from the discrete logs of its coordinates (every
    coordinate is a unit), the first coordinate most significant.

    In logs the edge-product map is linear: edge j carries
    (l_j + l_{j+1}) mod q-1 for vertex logs l.  The loop runs over the
    first vertex's log; the other k-1 vertices are one array of
    (q-1)^(k-1) assignments.  Codes are marked in one (q-1)^k-byte
    mask, so sorting and deduplication come for free.  The digit
    arrays are int32 whenever every code fits, which cuts their memory
    by half."""
    import numpy as np

    r = field.q - 1
    check_budget(f"enumerating one {k}-cycle copy over F_{field.q}",
                 r ** k, "assignments", budget)
    dtype = np.int32 if r ** k < 1 << 31 else np.int64
    rest = np.arange(r ** (k - 1), dtype=dtype)

    def vertex(j):  # log at vertex j >= 1, over all assignments
        return rest // r ** (k - 1 - j) % r

    first = last = vertex(1)
    inner = np.zeros_like(rest)  # the edges that avoid vertex 0
    for j in range(2, k):
        x = vertex(j)
        inner += (last + x) % r * r ** (k - j)
        last = x
    seen = np.zeros(r ** k, dtype=bool)
    for x0 in range(r):
        seen[(x0 + first) % r * r ** (k - 1) + inner + (last + x0) % r] = True
    return np.flatnonzero(seen)


def _single_cycle_points(k: int, field: Field, budget: int) -> np.ndarray:
    """Sorted distinct image points of one k-cycle copy, a row each, in
    the smallest unsigned dtype that holds q-1.  Antilogs do not keep
    the order of the codes, so the rows are sorted once."""
    import numpy as np

    r = field.q - 1
    codes = _single_cycle_codes(k, field, budget)
    exp = field.exp.astype(np.min_scalar_type(r))
    points = np.stack([exp[codes // r ** (k - 1 - j) % r]
                       for j in range(k)], axis=1)
    return points[np.lexsort(points.T[::-1])]


class ToricSet:
    """The point set X* as a read-only (|X*|, nvars) coordinate array,
    its rows distinct and in increasing lexicographic order."""

    __slots__ = ("spec", "field", "points")

    def __init__(self, spec: CycleFamilySpec, field: Field,
                 points: np.ndarray):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "points", points)

    def __setattr__(self, *_):
        raise AttributeError("ToricSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def nvars(self) -> int:
        return self.spec.nvars


def enumerate_toric_set(spec: CycleFamilySpec, field: Field,
                        budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """Materialize X* by per-copy enumeration and Cartesian product.
    Copies take consecutive coordinates and the first varies slowest,
    so the product of sorted copies is sorted and distinct."""
    import numpy as np

    per_k = {k: _single_cycle_points(k, field, budget) for k in spec.lengths}
    total = prod(len(per_k[k]) ** m for k, m in spec.components)
    check_budget("materializing X*", total, "points", budget)
    points = np.empty((total, spec.nvars),
                      dtype=np.min_scalar_type(field.q - 1))
    outer = 1
    for k, off in spec.blocks():
        # a run of rows per row of the copy, once per earlier row
        points.reshape(outer, len(per_k[k]), -1, spec.nvars)[
            ..., off:off + k] = per_k[k][:, None]
        outer *= len(per_k[k])
    points.flags.writeable = False
    return ToricSet(spec, field, points)


def enumerated_cardinality(spec: CycleFamilySpec, field: Field,
                           budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """|X*| by per-copy enumeration, without materializing the product.

    Each distinct cycle length is enumerated once, as packed codes that
    are counted and never decoded; the total is the product of per-copy
    counts, so specs whose full point set would exceed the budget can
    still be counted exactly.
    """
    per_k = {k: len(_single_cycle_codes(k, field, budget))
             for k in spec.lengths}
    return prod(per_k[k] ** m for k, m in spec.components)


def cardinality_formula(spec: CycleFamilySpec, q: int) -> int:
    """Closed-form |X*|: per family (q-1)^(km), halved per copy when
    q-1 is even (opposite vertex assignments collide pairwise), so one
    power ((q-1)^k / h)^m with h = 2 or 1 and no long division."""
    h = 2 if (q - 1) % 2 == 0 else 1
    total = 1
    for k, m in spec.components:
        total *= ((q - 1) ** k // h) ** m
    return total

