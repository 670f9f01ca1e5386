"""Generators of the vanishing ideal of X* and the budgets of their
build and their Groebner check.

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

``build_generators`` takes q as an int and returns one tuple of
``poly.Binomial``: the torus part in variable order, then each copy's
cycle part in block order, a copy's binomials in the lexicographic
order of their gamma-subsets.  Every generator is a difference of two
monomials, so none needs a field; the longer monomial of each cycle
binomial is its leading one under graded lex.

Each copy's generators lie in the copy's own variables, and Groebner
bases of ideals in disjoint variables unite to a Groebner basis (Cox,
Little, O'Shea, Ideals, Varieties, and Algorithms, Ch. 2 Sec. 9).  So
the set is a Groebner basis exactly when the set of one k-cycle is,
for each distinct length k: groebner-check builds and checks those
sets only, and ``check_groebner_budget`` counts them.
"""

from __future__ import annotations

import itertools
from math import comb

from .cyclegraph import CycleFamilySpec, gamma_of
from .errors import check_budget
from .poly import Binomial


def generator_count(spec: CycleFamilySpec, q: int) -> int:
    """How many generators ``build_generators`` returns, counted without
    building them: one torus binomial per variable, plus C(k, gamma)
    cycle binomials per k-cycle copy when q-1 is even."""
    n = spec.nvars
    if (q - 1) % 2 == 0:
        n += sum(m * comb(k, gamma_of(k)) for k, m in spec.components)
    return n


def check_build_budget(spec: CycleFamilySpec, q: int, budget: int) -> None:
    """Raise BudgetExceeded when ``build_generators(spec, q)`` would
    allocate more than ``budget`` exponent cells, one per variable in
    each generator, before any generator is built."""
    n = generator_count(spec, q)
    check_budget(f"generator build of {n} generators", n * spec.nvars,
                 "exponent cells", budget)


def check_groebner_budget(spec: CycleFamilySpec, q: int, budget: int) -> None:
    """Raise BudgetExceeded when the Groebner check of ``spec`` over F_q
    would exceed ``budget``, before any generator is built.  The check
    takes the generators of one k-cycle for each distinct length k of
    ``spec.lengths``, G_k = ``generator_count`` of that cycle, and two
    stages are counted, each against the budget:

    * the generator build allocates one exponent cell per variable in
      each generator, the sum of G_k * k cells;
    * the check tests each pair of G_k generators against their G_k
      leading monomials, the sum of G_k * G_k(G_k-1)/2 lead tests.
      This count is 0 for even q, where the leading monomials, the
      torus binomials' t_i^(q-1), are pairwise coprime."""
    sizes = [(generator_count(CycleFamilySpec.single(k), q), k)
             for k in spec.lengths]
    n = sum(g for g, _ in sizes)
    check_budget(f"generator build of {n} generators",
                 sum(g * k for g, k in sizes), "exponent cells", budget)
    tests = 0 if (q - 1) % 2 else \
        sum(g * (g * (g - 1) // 2) for g, _ in sizes)
    check_budget(f"Groebner check of {n} generators", tests, "lead tests",
                 budget)


def _unit_vector(n: int, i: int, value: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] = value
    return tuple(e)


def build_generators(spec: CycleFamilySpec,
                     q: int) -> tuple[Binomial, ...]:
    """The generators described in the module docstring, in its order."""
    n = spec.nvars
    gens = [Binomial(_unit_vector(n, i, q - 1), (0,) * n) for i in range(n)]
    if (q - 1) % 2 == 0:
        half = (q - 1) // 2
        for k, off in spec.blocks():
            block_vars = list(range(off, off + k))
            for alpha in itertools.combinations(block_vars, gamma_of(k)):
                w = [v for v in block_vars if v not in alpha]
                plus = [0] * n
                minus = [0] * n
                for v in w:
                    plus[v] = half
                for v in alpha:
                    minus[v] = half
                gens.append(Binomial(plus, minus))
    return tuple(gens)
