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
copy's block.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass

from .errors import BudgetExceeded, OddityError, ParseError
from .gf import Field

DEFAULT_ENUM_BUDGET = 1 << 26
DEFAULT_DIST_BUDGET = 1 << 22


def gamma_of(k: int) -> int:
    """The gamma parameter of an odd cycle: k = 2*gamma + 1."""
    return (k - 1) // 2


@dataclass(frozen=True)
class CycleFamilySpec:
    """An ordered list of (cycle length k, multiplicity m) families."""

    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one cycle family")
        for k, m in self.components:
            if k % 2 == 0:
                raise OddityError(f"cycle length {k} is even; only odd "
                                  "cycles are supported")
            if k < 3:
                raise ValueError(f"cycle length must be >= 3, got {k}")
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m}")
        object.__setattr__(self, "components", tuple(
            (int(k), int(m)) for k, m in self.components))

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

def check_search_budget(needs: str, work: int, budget: int) -> None:
    """Raise BudgetExceeded, before anything is allocated, when a search
    over ``work`` states exceeds ``budget`` or needs more states than
    one numpy array can index.  ``needs`` says what needs the work."""
    if work > budget:
        raise BudgetExceeded(f"{needs}, budget is {budget}")
    if work > sys.maxsize:
        raise BudgetExceeded(f"{needs}, more than one array can index")


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
    check_search_budget(
        f"enumerating one {k}-cycle copy over F_{field.q} needs "
        f"{r ** k} assignments", r ** k, budget)
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


def _single_cycle_points(k: int, field: Field,
                         budget: int) -> list[tuple[int, ...]]:
    """Sorted distinct image points of one k-cycle copy."""
    import numpy as np

    r = field.q - 1
    codes = _single_cycle_codes(k, field, budget)
    logs = codes[:, None] // r ** np.arange(k - 1, -1, -1) % r
    return sorted(map(tuple, field.exp[logs].tolist()))


class ToricSet:
    """The enumerated point set X*, sorted and deduplicated."""

    def __init__(self, spec: CycleFamilySpec, field: Field, points):
        self.spec = spec
        self.field = field
        # dict.fromkeys keeps the input order, and a product of sorted
        # copies is already sorted, which Timsort checks in linear time.
        self._point_set = dict.fromkeys(points)
        self.points = tuple(sorted(self._point_set))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return tuple(point) in self._point_set

    @property
    def nvars(self) -> int:
        return self.spec.nvars

    def serialize(self) -> str:
        """One point per line, coordinates space-separated."""
        return "\n".join(" ".join(str(c) for c in p) for p in self.points)

    def __repr__(self) -> str:
        return (f"ToricSet(spec={self.spec.to_string()!r}, "
                f"q={self.field.q}, points={len(self.points)})")


def enumerate_toric_set(spec: CycleFamilySpec, field: Field,
                        budget: int = DEFAULT_ENUM_BUDGET) -> ToricSet:
    """Materialize X* by per-copy enumeration and Cartesian product."""
    per_k = {k: _single_cycle_points(k, field, budget) for k in spec.lengths}
    total = 1
    for k, m in spec.components:
        total *= len(per_k[k]) ** m
    if total > budget:
        raise BudgetExceeded(
            f"X* has {total} points, materialization budget is {budget}")
    copy_sets = [per_k[k] for k, _off in spec.blocks()]
    points = [sum(parts, ()) for parts in itertools.product(*copy_sets)]
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
    total = 1
    for k, m in spec.components:
        total *= per_k[k] ** m
    return total


def cardinality_formula(spec: CycleFamilySpec, q: int) -> int:
    """Closed-form |X*|: per family (q-1)^(km), halved per copy when
    q-1 is even (opposite vertex assignments collide pairwise)."""
    total = 1
    for k, m in spec.components:
        if (q - 1) % 2 == 0:
            total *= (q - 1) ** (k * m) // 2 ** m
        else:
            total *= (q - 1) ** (k * m)
    return total

