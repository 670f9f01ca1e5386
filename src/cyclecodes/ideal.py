"""Generators of the vanishing ideal of X*, one cycle at a time, their
text, and the budgets of their build and their Groebner check.

For a disjoint union of odd cycles over F_q the vanishing ideal of the
parameterized set X* is generated by binomials:

* the torus part t_i^(q-1) - 1, one per variable (these cut out unit
  tuples), and
* when q-1 is even, a cycle part per cycle copy: for every choice of
  gamma variables {a_1..a_gamma} out of the copy's k = 2*gamma+1
  variables, with complement {w_1..w_{gamma+1}}, the binomial

      t_{w_1}^((q-1)/2) ... t_{w_{gamma+1}}^((q-1)/2)
        - t_{a_1}^((q-1)/2) ... t_{a_gamma}^((q-1)/2).

When q-1 is odd (q a power of two) X* is the full torus and the torus
part alone generates.

Every copy of a k-cycle has the same binomials in its own variables.
``build_generators(k, q)`` takes q as an int and returns those of one
k-cycle on t1..tk, a tuple of ``poly.Binomial``: the torus part in
variable order, then the cycle part in the lexicographic order of the
gamma-subsets.  None needs a field; the longer monomial of each cycle
binomial is its leading one under graded lex.  ``generator_lines``
writes the whole set by shifting each copy's variable indices: every
copy's torus part, then each copy's cycle part, copies in block order.

Groebner bases of ideals in disjoint variables unite to a Groebner
basis (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
Sec. 9).  So the set is a Groebner basis exactly when the set of one
k-cycle is, for each distinct length k: groebner-check builds and
checks those sets only, and ``check_groebner_budget`` counts them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import comb

from .cyclegraph import DEFAULT_ENUM_BUDGET, CycleFamilySpec, gamma_of
from .errors import check_budget, refuse_beyond
from .poly import Binomial


def generator_count(k: int, q: int) -> int:
    """How many generators ``build_generators(k, q)`` returns, counted
    without building them: k torus binomials, plus C(k, gamma) cycle
    binomials when q-1 is even."""
    return k + (comb(k, gamma_of(k)) if (q - 1) % 2 == 0 else 0)


def check_build_budget(copies, q: int, budget: int) -> None:
    """Raise BudgetExceeded, building nothing, when the generators of
    ``copies``, pairs (k, m) of m copies of the k-cycle, would take more
    than ``budget`` exponent cells, one per variable of its cycle in
    each generator: the sum of m * G_k * k, G_k = generator_count(k, q)."""
    if (q - 1) % 2 == 0:  # G_k >= C(k, gamma) >= 2^gamma, before forming it
        refuse_beyond("generator build", max(gamma_of(k) for k, _ in copies),
                      "exponent cells", budget)
    sizes = [(m * generator_count(k, q), k) for k, m in copies]
    n = sum(g for g, _ in sizes)
    check_budget(f"generator build of {n} generators",
                 sum(g * k for g, k in sizes), "exponent cells", budget)


def check_groebner_budget(spec: CycleFamilySpec, q: int, budget: int) -> None:
    """Raise BudgetExceeded when the Groebner check of ``spec`` over F_q
    would exceed ``budget``, before any generator is built.  The check
    takes the generators of one k-cycle for each distinct length k of
    ``spec.lengths``, G_k = ``generator_count(k, q)``, and two stages
    are counted, each against the budget:

    * the generator build, ``check_build_budget`` of one copy of each
      length, the sum of G_k * k cells;
    * the check tests each pair of G_k generators against their G_k
      leading monomials, the sum of G_k * G_k(G_k-1)/2 lead tests.
      This count is 0 for even q, where the leading monomials, the
      torus binomials' t_i^(q-1), are pairwise coprime."""
    check_build_budget([(k, 1) for k in spec.lengths], q, budget)
    sizes = [generator_count(k, q) for k in spec.lengths]
    tests = 0 if (q - 1) % 2 else sum(g * (g * (g - 1) // 2) for g in sizes)
    check_budget(f"Groebner check of {sum(sizes)} generators", tests,
                 "lead tests", budget)


def build_generators(k: int, q: int) -> tuple[Binomial, ...]:
    """The generators of one k-cycle, k odd and at least 3, on the
    variables t1..tk, in the order the module docstring gives."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"cycle length must be odd and >= 3, got {k}")
    gens = [Binomial(tuple(q - 1 if v == i else 0 for v in range(k)),
                     (0,) * k) for i in range(k)]
    if (q - 1) % 2 == 0:
        half = (q - 1) // 2
        for alpha in itertools.combinations(range(k), gamma_of(k)):
            tail = [half if v in alpha else 0 for v in range(k)]
            gens.append(Binomial([half - e for e in tail], tail))
    return tuple(gens)


def generator_lines(spec: CycleFamilySpec, q: int) -> Iterator[str]:
    """The text over F_q of every generator of ``spec``, in the order
    of the module docstring.  The copies' budget, against the fixed
    default, and the build of one cycle per length run at the call,
    before any line; each line is shifted and formatted as it is read."""
    check_build_budget(spec.components, q, DEFAULT_ENUM_BUDGET)
    one = {k: build_generators(k, q) for k in spec.lengths}
    torus = (g.to_text(q, off) for k, off in spec.blocks() for g in one[k][:k])
    cycles = (g.to_text(q, off) for k, off in spec.blocks()
              for g in one[k][k:])
    return itertools.chain(torus, cycles)
