"""Every stage that can refuse work refuses it through errors.check_budget
(or, for a product too large to form, errors.refuse_past_bits), before
any of the work is done."""

import math
import random
import shlex
import sys
import time

import numpy as np
import pytest

from cyclecodes import BudgetExceeded, cli, codes, hilbert, ideal, poly
from cyclecodes.errors import (
    _EXACT_BITS,
    check_budget,
    check_product_budget,
    decimal_text,
)


def _command_args(argv):
    """What the command line hands a command: the parsed arguments, the
    field of --q and the parsed --spec."""
    args = cli.parse_args(shlex.split(argv))
    return args, cli.field_new(args.q), cli.parse_spec_string(args.spec)


def _refused(*args, **kwargs):
    raise AssertionError("work ran before the budget check")


# argv, the work that must not start (module, name), and the refusal text
REFUSALS = [
    ("card --q 7 --spec 5 --enum-budget 1000",
     [(np, "zeros"), (np, "arange")],
     "enumerating one 5-cycle copy over F_7 needs 7776 assignments, "
     "budget is 1000"),
    ("enumerate --q 7 --spec 3x3 --enum-budget 1000",
     [(np, "empty")],
     "materializing X* needs 1259712 points, budget is 1000"),
    ("code --q 5 --spec 3 --d 2 --enum-budget 100",
     [(cli, "enumerate_toric_set"), (codes, "monomial_basis")],
     "evaluation matrix needs 320 entries, budget is 100"),
    ("hilbert --q 7 --spec 3,5 --dmax 2 --with-rank --enum-budget 1000",
     [(codes, "_cycle_character_degrees"), (hilbert, "footprint_at")],
     "counting the characters of one 5-cycle copy over F_7 needs 7776 "
     "states, budget is 1000"),
    ("hilbert --q 7 --spec 3x1000,5 --dmax 2 --with-rank "
     "--enum-budget 8000",
     [(codes, "_cycle_character_degrees"), (codes, "_numerator"),
      (hilbert, "footprint_at")],
     "multiplying the character counts of 1001 cycle copies over F_7 "
     "needs 9009 cells, budget is 8000"),
    ("hilbert --q 4099 --spec 41 --dmax 100000",
     [(hilbert, "_tori_sum"), (hilbert, "footprint_at")],
     "union formula of 62 numerator terms at 100001 degrees needs "
     "6200062 cells, budget is 3145728"),
    ("ideal --q 5 --spec 3x4000000",
     [(ideal, "build_generators")],
     "generator build of 24000000 generators needs 72000000 exponent "
     "cells, budget is 67108864"),
    ("groebner-check --q 4 --spec 9001",
     [(ideal, "build_generators"), (poly, "buchberger_is_groebner")],
     "generator build of 9001 generators needs 81018001 exponent "
     "cells, budget is 67108864"),
    ("groebner-check --q 3 --spec 13 --enum-budget 1000000",
     [(ideal, "build_generators"), (poly, "buchberger_is_groebner")],
     f"Groebner check of 1729 generators needs {1729 * math.comb(1729, 2)} "
     "lead tests, budget is 1000000"),
    ("hilbert --q 5 --spec 3 --dmax 100000000 --enum-budget 1000000000",
     [(cli, "_hilbert_columns")],
     "hilbert table of 100000001 rows needs 400000004 cells, "
     "budget is 67108864"),
    # within --enum-budget, but past what one array can index
    (f"code --q 65521 --spec 3x2 --d 3 --enum-budget {10 ** 40}",
     [(cli, "enumerate_toric_set"), (codes, "monomial_basis")],
     f"evaluation matrix needs {84 * 65520 ** 6 // 4} entries, "
     "more than one array can index"),
]


@pytest.mark.parametrize("argv, work, text", REFUSALS,
                         ids=[argv for argv, _, _ in REFUSALS])
def test_each_stage_refuses_before_its_work(monkeypatch, capsys, argv,
                                            work, text):
    args = _command_args(argv)
    for module, name in work:
        monkeypatch.setattr(module, name, _refused)
    with pytest.raises(BudgetExceeded) as exc:
        cli._COMMANDS[args[0].command](*args)
    exc = exc.value
    assert exc.needed > exc.allowed
    assert str(exc) == f"{exc.stage} needs {exc.needed} {exc.unit}, " + (
        "more than one array can index" if exc.allowed == sys.maxsize
        else f"budget is {exc.allowed}")
    assert str(exc) == text
    assert cli.main(shlex.split(argv)) == 3
    assert capsys.readouterr().err == f"error: {text}\n"


def test_check_budget_passes_what_fits():
    check_budget("a stage", 10, "cells", 10)
    check_budget("a stage", sys.maxsize, "cells", 10 ** 30)
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("a stage", 11, "cells", 10)
    assert (exc.value.stage, exc.value.needed, exc.value.unit,
            exc.value.allowed) == ("a stage", 11, "cells", 10)
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("a stage", sys.maxsize + 1, "cells", 10 ** 30)
    assert exc.value.allowed == sys.maxsize
    assert str(exc.value) == (f"a stage needs {sys.maxsize + 1} cells, "
                              "more than one array can index")



def test_check_product_budget_forms_only_what_it_may_print():
    assert check_product_budget("a stage", [(4, 3), (1, 10 ** 30)],
                                "points", 64) == 64
    with pytest.raises(BudgetExceeded) as exc:
        check_product_budget("a stage", [(4, 3), (3, 2)], "points", 64)
    assert exc.value.needed == 576
    # 2^N with N past _EXACT_BITS: refused from the bit lengths, the
    # power never formed, and the refusal names that limit, whatever
    # the budget
    copies = 10 ** 20
    for budget in (10, 10 ** 40):
        with pytest.raises(BudgetExceeded) as exc:
            check_product_budget("a stage", [(5, 1), (32, copies)], "points",
                                 budget)
        assert exc.value.allowed == f"2^{_EXACT_BITS}"
        assert str(exc.value) == (f"a stage needs at least 2^{2 + 5 * copies} "
                                  f"points, limit is 2^{_EXACT_BITS}")
    # at the cut, within 64 bits of the budget, the product is formed and
    # printed exactly, one bit past the cut only the bound
    budget = 2 ** (_EXACT_BITS - 1)
    with pytest.raises(BudgetExceeded) as exc:
        check_product_budget("a stage", [(2, _EXACT_BITS)], "points", budget)
    assert exc.value.needed == 2 ** _EXACT_BITS
    with pytest.raises(BudgetExceeded) as exc:
        check_product_budget("a stage", [(2, _EXACT_BITS + 1)], "points",
                             budget)
    assert exc.value.needed == f"at least 2^{_EXACT_BITS + 1}"
    # a bound 2^N, N 64 past the budget's bit length, is refused from the
    # bit lengths, naming the budget; one bit less is formed
    bits = 10 .bit_length() + 64  # 3 * 2^(bits-1) >= 2^bits
    with pytest.raises(BudgetExceeded) as exc:
        check_product_budget("a stage", [(3, 1), (2, bits - 1)], "points", 10)
    assert (exc.value.needed, exc.value.allowed) == (f"at least 2^{bits}", 10)
    assert str(exc.value) == f"a stage needs at least 2^{bits} points, " \
                             "budget is 10"
    with pytest.raises(BudgetExceeded) as exc:
        check_product_budget("a stage", [(3, 1), (2, bits - 2)], "points", 10)
    assert exc.value.needed == 3 * 2 ** (bits - 2)


def test_build_budget_refuses_a_long_cycle_before_its_binomial(monkeypatch):
    # C(k, gamma) >= 2^gamma: a gamma 64 past the budget's bit length is
    # refused before C(k, gamma) is formed, one less is counted exactly,
    # and with no cycle binomials (q even) there is no bound
    gamma = 10 .bit_length() + 64
    with monkeypatch.context() as patch:
        patch.setattr(ideal, "comb", _refused)
        with pytest.raises(BudgetExceeded) as exc:
            ideal.check_build_budget([(3, 2), (2 * gamma + 1, 1)], 5, 10)
    assert str(exc.value) == (f"generator build needs at least 2^{gamma} "
                              "exponent cells, budget is 10")
    k = 2 * gamma - 1
    with pytest.raises(BudgetExceeded) as exc:
        ideal.check_build_budget([(k, 1)], 5, 10)
    assert exc.value.needed == (k + math.comb(k, gamma - 1)) * k
    k = 2 * gamma + 1
    ideal.check_build_budget([(k, 1)], 4, k * k)


def test_a_refusal_past_the_digit_limit_is_still_a_refusal():
    # a count of more digits than int -> str allows by default raises
    # BudgetExceeded, not ValueError, and keeps its attributes
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("materializing X*", 10 ** 5000, "points", 10)
    assert (exc.value.needed, exc.value.allowed) == (10 ** 5000, 10)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int -> str digits")
def test_decimal_text_is_str_of_any_size():
    # around the cut to the decimal module and its 1024-bit leaves, far
    # past the digits that int -> str allows by default, and negative
    rng = random.Random(7)
    numbers = [0, 1, 10 ** 5000, 10 ** 30000 - 1, 10 ** 30000, 2 ** 8192,
               2 ** 8193 - 1, 2 ** 8193]
    numbers += [rng.getrandbits(b) for b in (63, 1025, 8193, 8194, 20000,
                                             100003)]
    numbers += [-n for n in numbers]
    texts = [decimal_text(n) for n in numbers]
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(digits)


def test_a_refusal_of_a_huge_count_reads_fast():
    # the entry count of a million triangles over F_3 is |X*| = 4^1000000,
    # 602,060 digits, far past the budget: it is refused from its bit
    # lengths, the power never formed nor printed
    argv = "code --q 3 --spec 3x1000000 --d 0"
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        cli._COMMANDS["code"](*_command_args(argv))
    assert str(exc.value) == ("evaluation matrix needs at least 2^2000000 "
                              "entries, budget is 67108864")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, text", [
    # over F_2 every copy has one point: the matrix has one row, and the
    # point array is past any array, whatever the point count
    ("code --q 2 --spec 3x99999999999999999999 --d 0",
     "materializing X* needs 299999999999999999997 cells, more than one "
     "array can index"),
    ("enumerate --q 2 --spec 3x99999999999999999999",
     "materializing X* needs 299999999999999999997 cells, more than one "
     "array can index"),
    # 32^(10^20 - 1) points, read off the bit lengths, never formed: past
    # the most bits an exact count takes, whatever the budget
    ("card --q 5 --spec 3x99999999999999999999",
     "counting X* needs at least 2^499999999999999999995 points, limit "
     "is 2^8388608"),
    ("card --q 5 --spec 3x99999999999999999999 --enum-budget 10" + "0" * 24,
     "counting X* needs at least 2^499999999999999999995 points, limit "
     "is 2^8388608"),
    ("regularity --q 5 --spec 3x99999999999999999999",
     "closed-form |X*| needs at least 2^499999999999999999995 points, "
     "limit is 2^8388608"),
    # 6 generators on 3 variables a copy, counted, not built
    ("ideal --q 5 --spec 3x99999999999999999999",
     "generator build of 599999999999999999994 generators needs "
     "1799999999999999999982 exponent cells, budget is 67108864"),
    # one long cycle: (q-1)^k read off its bit lengths, past the exact
    # limit or far past the budget, and C(k, gamma) >= 2^gamma, none of
    # them formed
    ("card --q 65521 --spec 1000001",
     "enumerating one 1000001-cycle copy over F_65521 needs at least "
     "2^15000015 assignments, limit is 2^8388608"),
    ("enumerate --q 256 --spec 1000001",
     "enumerating one 1000001-cycle copy over F_256 needs at least "
     "2^7000007 assignments, budget is 67108864"),
    ("code --q 256 --spec 1000001 --d 0",
     "evaluation matrix needs at least 2^7000007 entries, budget is "
     "67108864"),
    ("hilbert --q 256 --spec 1000001 --d 0 --with-rank",
     "counting the characters of one 1000001-cycle copy over F_256 needs "
     "at least 2^7000007 states, budget is 67108864"),
    ("ideal --q 5 --spec 1000001",
     "generator build needs at least 2^500000 exponent cells, budget is "
     "67108864"),
    ("groebner-check --q 5 --spec 1000001",
     "generator build needs at least 2^500000 exponent cells, budget is "
     "67108864"),
], ids=["code", "enumerate", "card", "card-budget", "regularity", "ideal",
        "card-long", "enumerate-long", "code-long", "hilbert-long",
        "ideal-long", "groebner-long"])
def test_copies_past_any_count_exit_3_at_once(capsys, argv, text):
    start = time.perf_counter()
    assert cli.main(shlex.split(argv)) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {text}\n")
