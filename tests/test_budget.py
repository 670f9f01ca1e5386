"""Every stage that can refuse work refuses it through errors.check_budget,
before any of the work is done."""

import math
import shlex
import sys

import numpy as np
import pytest

from cyclecodes import BudgetExceeded, cli, codes, hilbert, ideal, poly
from cyclecodes.errors import check_budget


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
    ("hilbert --q 4099 --spec 41 --dmax 100000",
     [(hilbert, "_tori_sum"), (hilbert, "footprint_at")],
     "union formula of 62 numerator terms at 100001 degrees needs "
     "6200062 cells, budget is 3145728"),
    ("ideal --q 5 --spec 3x2000",
     [(ideal, "build_generators")],
     "generator build of 12000 generators needs 72000000 exponent "
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
    args = cli.build_parser().parse_args(shlex.split(argv))
    for module, name in work:
        monkeypatch.setattr(module, name, _refused)
    with pytest.raises(BudgetExceeded) as exc:
        cli._COMMANDS[args.command](args)
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



def test_a_refusal_past_the_digit_limit_is_still_a_refusal():
    # a count of more digits than int -> str allows by default raises
    # BudgetExceeded, not ValueError, and keeps its attributes
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("materializing X*", 10 ** 5000, "points", 10)
    assert (exc.value.needed, exc.value.allowed) == (10 ** 5000, 10)
