"""End-to-end tests of the command-line interface via subprocess."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cyclecodes import (
    CycleFamilySpec,
    cardinality_formula,
    cli,
    codes,
    enumerate_toric_set,
    field_new,
    hilbert,
    ideal,
    parse_spec_string,
    poly,
)
from cyclecodes.errors import CheckFailure, decimal_text
from oracles import point_tuples

CLI = [sys.executable, "-m", "cyclecodes.cli"]


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=timeout)


# -- selftest ---------------------------------------------------------------


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "selftest: 13/13 checks passed"
    assert len(lines) == 14
    assert all(line.startswith("PASS") for line in lines[:-1])


# -- hilbert ------------------------------------------------------------------


def test_hilbert_csv_golden():
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--dmax", "6",
                "--with-rank", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == (
        "d,footprint,union,rank\n"
        "0,1,1,1\n"
        "1,4,4,4\n"
        "2,10,10,10\n"
        "3,20,20,20\n"
        "4,29,29,29\n"
        "5,32,32,32\n"
        "6,32,32,32\n"
    )


def test_hilbert_csv_multi_copy_leaves_union_empty():
    # The union column only applies to a single cycle.
    r = run_cli("hilbert", "--q", "5", "--spec", "3x2", "--dmax", "2",
                "--with-rank", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == (
        "d,footprint,union,rank\n"
        "0,1,,1\n"
        "1,7,,7\n"
        "2,28,,28\n"
    )


def test_hilbert_single_degree_no_rank():
    r = run_cli("hilbert", "--q", "5", "--spec", "5", "--d", "9",
                "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == "d,footprint,union,rank\n9,512,512,\n"


def test_hilbert_default_dmax_is_regularity_plus_one():
    r = run_cli("hilbert", "--q", "3", "--spec", "3", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == "d,footprint,union,rank\n0,1,1,\n1,4,4,\n2,4,4,\n"


def test_hilbert_json_shape():
    r = run_cli("hilbert", "--q", "3", "--spec", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["q"] == 3 and doc["spec"] == "3"
    assert doc["agree"] is True
    assert [row["d"] for row in doc["rows"]] == [0, 1, 2]
    assert [row["footprint"] for row in doc["rows"]] == [1, 4, 4]
    assert [row["union"] for row in doc["rows"]] == [1, 4, 4]
    assert all(row["rank"] is None for row in doc["rows"])


def test_hilbert_rank_column_beyond_the_enumeration_budget():
    # |X*| = 3888^3 is far above --enum-budget; the rank column never
    # enumerates X*.
    r = run_cli("hilbert", "--q", "7", "--spec", "5x3", "--with-rank",
                "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 51
    assert lines[-1] == "49,58773123072,,58773123072"


def test_hilbert_default_table_at_a_large_field():
    # q = 4099: regularity 8193, so 8195 rows, each read from one
    # footprint and one union vector built per command.
    r = run_cli("hilbert", "--q", "4099", "--spec", "3", "--format", "csv",
                timeout=60)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "d,footprint,union,rank"
    assert len(lines) - 1 == 8193 + 2
    size = cardinality_formula(CycleFamilySpec.single(3), 4099)
    assert lines[-1] == f"8194,{size},{size},"


def test_hilbert_rank_searches_only_the_degrees_read():
    # 7^9 states fit the default budget; the search stops at degree 0
    r = run_cli("hilbert", "--q", "8", "--spec", "9", "--with-rank",
                "--d", "0", timeout=10)
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "0\t1\t-\t1"


def test_hilbert_rank_over_budget_exits_3_before_the_search(monkeypatch,
                                                           capsys):
    def searched(*args, **kwargs):
        raise AssertionError("search ran before the budget check")

    monkeypatch.setattr(codes, "_cycle_character_degrees", searched)
    rc = cli.main(["hilbert", "--q", "7", "--spec", "3,5", "--dmax", "2",
                   "--with-rank", "--enum-budget", "1000"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: counting the characters of one 5-cycle copy over F_7 "
        "needs 7776 states, budget is 1000\n")


def test_hilbert_union_over_budget_exits_3_before_the_footprint(monkeypatch,
                                                                capsys):
    def footprint(*args, **kwargs):
        raise AssertionError("footprint built before the union budget check")

    monkeypatch.setattr(hilbert, "footprint_at", footprint)
    rc = cli.main(["hilbert", "--q", "4099", "--spec", "41",
                   "--dmax", "100000"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: union formula of 62 numerator terms at 100001 degrees "
        "needs 6200062 cells, budget is 3145728\n")


def test_hilbert_table_over_budget_exits_3_at_once():
    # 100000001 rows of 4 cells each pass the fixed budget of 2^26 cells
    # whatever --enum-budget says; no degree list is built
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--dmax", "100000000",
                "--enum-budget", "1000000000", timeout=10)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == ("error: hilbert table of 100000001 rows needs "
                        "400000004 cells, budget is 67108864\n")


@pytest.mark.parametrize(
    "q, degrees", [(q, degrees) for q in ("5", "4")
                   for degrees in (["--d", "0"], ["--dmax", "3"])],
    ids=["degrees0", "degrees1", "q4-degrees0", "q4-degrees1"])
def test_hilbert_numerator_past_one_list_exits_3(q, degrees):
    # 10^20 - 1 copies of a triangle: the footprint numerator's length
    # is refused before any list of the copies or coefficients is built,
    # with a cycle factor per copy (q - 1 even) and without (q - 1 odd)
    size = {"5": 399999999999999999997, "4": 299999999999999999998}[q]
    r = run_cli("hilbert", "--q", q, "--spec", "3x99999999999999999999",
                *degrees, timeout=10)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == (f"error: footprint numerator needs {size} "
                        "coefficients, more than one array can index\n")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, needs", [
    (["enumerate"], "materializing X* needs at least 2^499999999999999999995 "
                    "points"),
    (["code", "--d", "0"], "evaluation matrix needs at least "
                           "2^499999999999999999995 entries")],
    ids=["enumerate", "code"])
def test_copies_past_any_count_exit_3(argv, needs):
    # 10^20 - 1 triangles over F_5 are 32 points each: the count is at
    # least 2^(5 (10^20 - 1)), read off the bit lengths without forming
    # the power, and the matrix has at least one row
    r = run_cli(argv[0], "--q", "5", "--spec", "3x99999999999999999999",
                *argv[1:], timeout=10)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == f"error: {needs}, limit is 2^8388608\n"


@pytest.mark.parametrize("degrees, cells", [(["--d", "0"], 10 ** 20 - 1),
                                            (["--dmax", "3"],
                                             16 * (10 ** 20 - 1))])
def test_hilbert_rank_of_many_copies_exits_3(degrees, cells):
    # the products over 10^20 - 1 copies are refused before any search
    # or product starts, and before the footprint's length check
    r = run_cli("hilbert", "--q", "5", "--spec", "3x99999999999999999999",
                "--with-rank", *degrees, timeout=10)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == ("error: multiplying the character counts of "
                        "99999999999999999999 cycle copies over F_5 needs "
                        f"{cells} cells, budget is 67108864\n")


def test_hilbert_negative_dmax_is_usage_error():
    for extra in ((), ("--with-rank",)):
        r = run_cli("hilbert", "--q", "5", "--spec", "3", "--dmax", "-1",
                    *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--dmax: must be >= 0" in r.stderr
        assert "Traceback" not in r.stderr


def test_hilbert_negative_single_degree_is_zero():
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--d", "-1",
                "--with-rank", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == "d,footprint,union,rank\n-1,0,0,0\n"


def test_hilbert_huge_single_degree_reads_the_constant_tail():
    # Each route stops where its count stops growing, so a degree far
    # past the regularity costs no more than the regularity itself.
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--d", "99999999999",
                timeout=60)
    assert r.returncode == 0
    assert r.stdout == "d\tfootprint\tunion\trank\n99999999999\t32\t32\t-\n"
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--d", "99999999999",
                "--with-rank", "--format", "csv", timeout=60)
    assert r.returncode == 0
    assert r.stdout == "d,footprint,union,rank\n99999999999,32,32,32\n"


def test_hilbert_d_and_dmax_conflict():
    r = run_cli("hilbert", "--q", "5", "--spec", "3", "--d", "2",
                "--dmax", "4")
    assert r.returncode == 2


# -- regularity / betas ----------------------------------------------------------


def test_regularity_plain_golden():
    r = run_cli("regularity", "--q", "5", "--spec", "3,5")
    assert r.returncode == 0
    assert r.stdout == (
        "regularity formula = 14\n"
        "regularity brute force = 14\n"
        "agree = true\n"
    )


def test_betas_json_golden():
    r = run_cli("betas", "--q", "5", "--spec", "5", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "k": 5,
        "q": 5,
        "betas": [6, -15, 10],
        "verified_through": 10,
    }


def test_betas_plain_golden():
    r = run_cli("betas", "--q", "5", "--spec", "5")
    assert r.returncode == 0
    assert r.stdout == (
        "betas = 6 -15 10\n"
        "identity verified through d = 10\n"
    )


def test_betas_deterministic():
    a = run_cli("betas", "--q", "13", "--spec", "5", "--format", "json")
    b = run_cli("betas", "--q", "13", "--spec", "5", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout.splitlines() == b.stdout.splitlines()
    doc = json.loads(a.stdout)
    assert doc["betas"] == [6, -15, 10]
    assert doc["verified_through"] == 38


def test_betas_requires_single_cycle():
    r = run_cli("betas", "--q", "5", "--spec", "3x2")
    assert r.returncode == 2
    assert "single-cycle" in r.stderr


def test_betas_tiny_field_samples_degree_zero():
    r = run_cli("betas", "--q", "3", "--spec", "5")
    assert r.returncode == 0
    assert r.stdout == (
        "betas = 6 -15 10\n"
        "identity verified through d = 3\n"
    )


def test_betas_singular_system_is_check_failure(monkeypatch, capsys):
    # With its last coefficient changed the footprint numerator is no
    # longer (1-y)^k times a polynomial of degree <= gamma.
    numerator = hilbert.footprint_numerator

    def changed(spec, field):
        series = numerator(spec, field)
        return series._replace(
            coeffs=series.coeffs[:-1] + [series.coeffs[-1] + 1])

    monkeypatch.setattr(hilbert, "footprint_numerator", changed)
    rc = cli.main(["betas", "--q", "5", "--spec", "3"])
    assert rc == 1
    assert "beta identity" in capsys.readouterr().err


# -- code --------------------------------------------------------------------------


def test_code_json_golden():
    r = run_cli("code", "--q", "3", "--spec", "3", "--d", "1",
                "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "q": 3,
        "spec": "3",
        "d": 1,
        "n": 4,
        "dimension": 4,
        "min_distance": 1,
        "singleton_ok": True,
    }


def test_code_plain_golden():
    r = run_cli("code", "--q", "3", "--spec", "3", "--d", "1")
    assert r.returncode == 0
    assert r.stdout == (
        "n = 4\n"
        "dimension = 4\n"
        "min distance = 1\n"
        "singleton ok = true\n"
    )


def test_code_bracket_when_budget_exceeded():
    # 1000 admits the 320-entry matrix, not the search's 2,535,680 cells
    r = run_cli("code", "--q", "5", "--spec", "3", "--d", "2",
                "--enum-budget", "1000", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["dimension"] == 10
    assert doc["min_distance_bracket"] == [1, 23]
    assert doc["singleton_ok"] is None
    assert "min_distance" not in doc


def _no_matrix(*args, **kwargs):
    raise AssertionError("an evaluation row was built")


def _no_tree(*args, **kwargs):
    raise AssertionError("the orbit tree was built")


_BRACKET = "(not computed: the orbit search exceeds --enum-budget)"


@pytest.mark.parametrize("argv, n, dimension, singleton", [
    ("code --q 11 --spec 3 --d 2", 500, 10, 491),
    ("code --q 3 --spec 3x9 --d 1", 262144, 28, 262117)])
def test_code_bracket_builds_no_evaluation_row(monkeypatch, capsys, argv, n,
                                               dimension, singleton):
    # (q^dimension - 1)/(q - 1) normalized messages are past the default
    # budget, so neither the orbit tree nor a row is built
    monkeypatch.setattr(codes, "build_evaluation_matrix", _no_matrix)
    monkeypatch.setattr(codes, "_orbit_tree", _no_tree)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (
        f"n = {n}\ndimension = {dimension}\nmin distance in [1, {singleton}] "
        f"{_BRACKET}\n")
    assert cli.main([*argv.split(), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps({
        "q": int(argv.split()[2]), "spec": argv.split()[4], "d": int(argv[-1]),
        "n": n, "dimension": dimension,
        "min_distance_bracket": [1, singleton], "singleton_ok": None},
        indent=2) + "\n"


# code --q 5 --spec 3 --d 2 searches 79,240 orbit representatives of n =
# 32 cells each, 2,535,680 cells; its (5^10 - 1)/4 = 2,441,406 normalized
# messages bound them below
@pytest.mark.parametrize("budget, line", [
    (2535680, "min distance = 8"),
    (2535679, f"min distance in [1, 23] {_BRACKET}"),
    (2441405, f"min distance in [1, 23] {_BRACKET}")])
def test_code_search_fits_enum_budget_by_its_cells(monkeypatch, capsys,
                                                   budget, line):
    if budget < 2441406:
        monkeypatch.setattr(codes, "_orbit_tree", _no_tree)
    argv = ["code", "--q", "5", "--spec", "3", "--d", "2",
            "--enum-budget", str(budget)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == line


def test_code_of_the_whole_space_prints_distance_one(monkeypatch, capsys):
    # dimension = n: the code is all of F_q^n, so its bracket [1, 1] is
    # the distance, found without a search or an evaluation row
    monkeypatch.setattr(codes, "build_evaluation_matrix", _no_matrix)
    argv = ["code", "--q", "4", "--spec", "3", "--d", "100"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "n = 27\ndimension = 27\nmin distance = 1\nsingleton ok = true\n")
    assert cli.main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "q": 4, "spec": "3", "d": 100, "n": 27, "dimension": 27,
        "min_distance": 1, "singleton_ok": True}


def test_code_negative_degree_is_usage_error():
    r = run_cli("code", "--q", "5", "--spec", "3", "--d", "-1")
    assert r.returncode == 2
    assert "--d: must be >= 0" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, n, dimension", [
    (["--q", "257", "--spec", "3", "--d", "1"], 8388608, 4),
    (["--q", "263", "--spec", "3", "--d", "0"], 8992364, 1)])
def test_code_over_fields_past_256_elements(argv, n, dimension):
    # the matrix logs are reduced mod q-1 in a dtype that must hold q-1,
    # which a degree times the largest log does not bound: 255 and 0
    # fit a byte, 256 and 262 do not
    r = run_cli("code", *argv, timeout=60)
    assert r.returncode == 0
    assert "Traceback" not in r.stderr
    assert r.stdout.splitlines()[:2] == [f"n = {n}",
                                         f"dimension = {dimension}"]


def _off_by_one(route):
    """A patch target and its replacement that reads one more than the
    route does: code_params' n or dimension, the closed-form |X*| or
    the footprint."""
    if route == "cardinality_formula":
        return cli, route, lambda spec, q: cardinality_formula(spec, q) + 1
    if route == "footprint_at":
        real = hilbert.footprint_at
        return hilbert, route, lambda *args: [h + 1 for h in real(*args)]
    real = codes.code_params

    def params(*args):
        p = real(*args)
        return p._replace(**{route: getattr(p, route) + 1})
    return codes, "code_params", params


@pytest.mark.parametrize("route, name", [
    ("n", "length"), ("cardinality_formula", "length"),
    ("dimension", "dimension"), ("footprint_at", "dimension")])
def test_code_exits_1_when_a_second_route_disagrees(monkeypatch, capsys,
                                                     route, name):
    # code checks its length against the closed-form |X*| and its
    # dimension against the footprint, and prints nothing on a mismatch
    monkeypatch.setattr(*_off_by_one(route))
    rc = cli.main(["code", "--q", "5", "--spec", "3", "--d", "1"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: code {name} ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["card", "--q", "5", "--spec", "3", "--enum-budget", "-1"],
    ["code", "--q", "5", "--spec", "3", "--d", "1", "--enum-budget", "-5"],
])
def test_negative_budget_is_usage_error(argv):
    r = run_cli(*argv)
    assert (r.returncode, r.stdout) == (2, "")
    flag, value = argv[-2:]
    assert r.stderr.endswith(f"error: argument {flag}: must be >= 0, "
                             f"got {value}\n")
    assert "Traceback" not in r.stderr


def test_code_matrix_over_budget_exits_3_before_listing_the_basis(
        monkeypatch, capsys):
    def listed(*args, **kwargs):
        raise AssertionError("basis listed before the budget check")

    monkeypatch.setattr(codes, "monomial_basis", listed)
    rc = cli.main(["code", "--q", "5", "--spec", "3", "--d", "3",
                   "--enum-budget", "100"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: evaluation matrix needs 640 entries, budget is 100\n")


def test_code_matrix_over_budget_exits_3_before_enumerating(monkeypatch,
                                                            capsys):
    # 455 basis monomials times |X*| = 32^4 points; X* is never built.
    def enumerated(*args, **kwargs):
        raise AssertionError("X* enumerated before the budget check")

    monkeypatch.setattr(cli, "enumerate_toric_set", enumerated)
    rc = cli.main(["code", "--q", "5", "--spec", "3x4", "--d", "3"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: evaluation matrix needs 477102080 entries, "
        "budget is 67108864\n")
    # one basis monomial on 300000 variables times |X*| = 4^100000
    # points: the basis count reads the box numerator at degree 0 only,
    # and a count so far past the budget is refused from its bit lengths
    r = run_cli("code", "--q", "3", "--spec", "3x100000", "--d", "0",
                timeout=10)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == ("error: evaluation matrix needs at least 2^200000 "
                        "entries, budget is 67108864\n")


# -- ideal / groebner-check / enumerate / card ------------------------------------------


def test_ideal_golden():
    r = run_cli("ideal", "--q", "5", "--spec", "3")
    assert r.returncode == 0
    assert r.stdout == (
        "t1^4 - 1\n"
        "t2^4 - 1\n"
        "t3^4 - 1\n"
        "t2^2*t3^2 - t1^2\n"
        "t1^2*t3^2 - t2^2\n"
        "t1^2*t2^2 - t3^2\n"
    )


def test_ideal_over_budget_exits_3_before_building(monkeypatch, capsys):
    # 3x4000000 over F_5: 4000000 copies of 3 torus and 3 cycle
    # binomials, each on its copy's 3 variables; nothing may be built
    build = ideal.build_generators
    monkeypatch.setattr(ideal, "build_generators", None)
    assert cli.main(["ideal", "--q", "5", "--spec", "3x4000000"]) == 3
    assert capsys.readouterr().err == (
        "error: generator build of 24000000 generators needs 72000000 "
        "exponent cells, budget is 67108864\n")
    # 3x1000,5x2 needs 18000 + 2 * 75 cells: one cycle of each length
    # is built
    built = []
    monkeypatch.setattr(ideal, "build_generators",
                        lambda k, q: built.append(k) or build(k, q))
    assert cli.main(["ideal", "--q", "5", "--spec", "3x1000,5x2"]) == 0
    assert built == [3, 5]
    assert capsys.readouterr().out.count("\n") == 6000 + 2 * 15


@pytest.mark.parametrize("error, code", [(MemoryError, 3),
                                         (CheckFailure("broken"), 1)])
def test_ideal_build_errors_exit_before_any_line(monkeypatch, capsys, error,
                                                 code):
    # the build runs before the command returns, inside the error
    # handling, so its failure is an exit code and no traceback
    def failing(k, q):
        raise error

    monkeypatch.setattr(ideal, "build_generators", failing)
    for fmt in ("plain", "json"):
        argv = ["ideal", "--q", "5", "--spec", "3x2,5", "--format", fmt]
        assert cli.main(argv) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ")


def test_groebner_check_passes():
    r = run_cli("groebner-check", "--q", "5", "--spec", "3")
    assert r.returncode == 0
    assert r.stdout == "groebner basis check: pass\n"


def test_groebner_check_over_budget_exits_3_before_building(monkeypatch,
                                                             capsys):
    # 13 + C(13, 6) = 1729 generators; nothing may be built
    monkeypatch.setattr(ideal, "build_generators", None)
    argv = ["groebner-check", "--q", "3", "--spec", "13"]
    assert cli.main(argv + ["--enum-budget", "1000000"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: Groebner check of 1729 generators needs "
                   "2582877024 lead tests, budget is 1000000\n")
    assert cli.main(argv) == 3  # also over the default budget


def test_groebner_check_budget_counts_distinct_components(monkeypatch,
                                                          capsys):
    # 7x40 and 3x30000: one cycle stands for all copies, so only its
    # 7 + 35 or 3 + 3 generators are built and checked
    for spec in ("7x40", "3x30000"):
        argv = ["groebner-check", "--q", "5", "--spec", spec]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "groebner basis check: pass\n"
    # 9001 over F_4: 9001 generators on 9001 variables; nothing may be
    # built
    monkeypatch.setattr(ideal, "build_generators", None)
    assert cli.main(["groebner-check", "--q", "4", "--spec", "9001"]) == 3
    assert capsys.readouterr().err == (
        "error: generator build of 9001 generators needs 81018001 "
        "exponent cells, budget is 67108864\n")


def test_enumerate_golden():
    r = run_cli("enumerate", "--q", "3", "--spec", "3")
    assert r.returncode == 0
    assert r.stdout == "1 1 1\n1 2 2\n2 1 2\n2 2 1\n"


@pytest.mark.parametrize("q, text", [(5, "3,5"), (7, "3x2"), (8, "3,3"),
                                     (4, "5,3x2")])
def test_enumerate_prints_the_sorted_antilogs_of_the_logs(q, text):
    # X* is held in logs, in their order; the report is the antilogs of
    # every row of X.logs, in lexicographic order, over prime and binary
    # fields alike
    X = enumerate_toric_set(parse_spec_string(text), field_new(q))
    r = run_cli("enumerate", "--q", str(q), "--spec", text)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [" ".join(map(str, point))
                                     for point in sorted(point_tuples(X))]


def test_enumerate_json():
    r = run_cli("enumerate", "--q", "3", "--spec", "3", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["cardinality"] == 4
    assert doc["points"] == [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]]


def test_card_plain_golden():
    r = run_cli("card", "--q", "7", "--spec", "5x2")
    assert r.returncode == 0
    assert r.stdout == (
        "enumerated |X*| = 15116544\n"
        "closed-form |X*| = 15116544\n"
        "agree = true\n"
    )


def test_card_json_golden():
    r = run_cli("card", "--q", "5", "--spec", "5", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "q": 5,
        "spec": "5",
        "enumerated": 512,
        "formula": 512,
        "agree": True,
    }


# -- error paths and exit codes -----------------------------------------------------------


def test_unsupported_field_exits_2():
    r = run_cli("card", "--q", "12", "--spec", "3")
    assert r.returncode == 2
    assert "error:" in r.stderr


@pytest.mark.parametrize("command", ["hilbert", "regularity", "betas"])
def test_counting_commands_refuse_odd_prime_powers(capsys, command):
    # the counting routes would run over F_9, but the command line still
    # checks q as the arithmetic commands do
    assert cli.main([command, "--q", "9", "--spec", "3"]) == 2
    assert capsys.readouterr() == ("", (
        "error: 9 is not an odd prime or a power of two; odd prime-power "
        "fields are not supported\n"))


def test_large_prime_field_exits_2_at_once():
    # 2^61 - 1 is prime: trial division to its square root would run for
    # minutes, so the size limit must be checked first
    r = run_cli("card", "--q", str(2 ** 61 - 1), "--spec", "3", timeout=10)
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_even_cycle_exits_2():
    r = run_cli("card", "--q", "5", "--spec", "4")
    assert r.returncode == 2
    assert "even" in r.stderr


def test_malformed_spec_exits_2():
    r = run_cli("card", "--q", "5", "--spec", "abc")
    assert r.returncode == 2


def test_missing_required_argument_exits_2():
    r = run_cli("card", "--spec", "3")
    assert r.returncode == 2


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_budget_exceeded_exits_3():
    r = run_cli("enumerate", "--q", "7", "--spec", "5x2",
                "--enum-budget", "1000")
    assert r.returncode == 3
    assert "budget" in r.stderr


def test_budget_beyond_array_size_exits_3_before_allocating(monkeypatch,
                                                           capsys):
    # 65520^5 states fit the budget but no numpy array: the searches
    # must refuse them before anything is allocated.
    def searched(*args, **kwargs):
        raise AssertionError("search ran before the size check")

    monkeypatch.setattr(codes, "_cycle_character_degrees", searched)
    huge = str(10 ** 30)
    rc = cli.main(["hilbert", "--q", "65521", "--spec", "5", "--d", "2",
                   "--with-rank", "--enum-budget", huge])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: counting the characters of one 5-cycle copy over F_65521 "
        f"needs {65520 ** 5} states, more than one array can index\n")
    monkeypatch.setattr(np, "zeros", None)
    monkeypatch.setattr(np, "arange", None)
    rc = cli.main(["card", "--q", "65521", "--spec", "5",
                   "--enum-budget", huge])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: enumerating one 5-cycle copy over F_65521 "
        f"needs {65520 ** 5} assignments, more than one array can index\n")


def test_out_of_memory_exits_3(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerated_cardinality", exhausted)
    assert cli.main(["card", "--q", "5", "--spec", "3"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--enum-budget" in out.err


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    out = tmp_path / "card.txt"
    r = run_cli("card", "--q", "5", "--spec", "3", "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert out.read_text() == (
        "enumerated |X*| = 32\n"
        "closed-form |X*| = 32\n"
        "agree = true\n"
    )


def test_out_json(tmp_path):
    out = tmp_path / "betas.json"
    r = run_cli("betas", "--q", "5", "--spec", "3", "--format", "json",
                "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["betas"] == [-2, 3]


@pytest.mark.parametrize("argv", [
    ["card", "--q", "5", "--spec", "3"],
    ["selftest"],
])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing" / "x"
    assert cli.main(argv + ["--out", str(missing)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: cannot write {missing}: "
                       "No such file or directory\n")
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_reader_that_closes_the_pipe_early_gets_exit_0():
    # about 230 kB of csv, more than the pipe holds: the command is
    # still writing when the reader closes its end after one line
    with subprocess.Popen(
            CLI + ["hilbert", "--q", "4099", "--spec", "3", "--format",
                   "csv"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"d,footprint,union,rank\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.mark.parametrize("argv, code", [
    (["card", "--q", "6", "--spec", "3"], 2),
    (["card", "--q", "5", "--spec", "3", "--enum-budget", "1"], 3),
    (["card", "--q", "5", "--spec", "3", "--out", "/nonexistent/dir/x"], 2),
])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # the reader of stderr is gone before the error is written, as with
    # `2>&1 >/dev/null | head -c0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(CLI + argv, stdout=subprocess.DEVNULL,
                           stderr=write_end, timeout=60)
    finally:
        os.close(write_end)
    assert r.returncode == code


_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                  reason="no limit on int -> str digits")


@pytest.fixture
def long_int_text():
    """Lift the limit on int -> str digits in this process, where
    the test reads the CLI's numbers back."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(digits)


@_digit_limit
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_card_prints_counts_past_4300_digits(long_int_text, fmt):
    r = run_cli("card", "--q", "5", "--spec", "3x3000", "--format", fmt)
    assert (r.returncode, r.stderr) == (0, "")
    size = cardinality_formula(CycleFamilySpec.single(3, 3000), 5)
    assert len(str(size)) > 4300
    if fmt == "json":
        doc = json.loads(r.stdout)
        assert (doc["enumerated"], doc["formula"]) == (size, size)
    else:
        assert r.stdout == (f"enumerated |X*| = {size}\n"
                            f"closed-form |X*| = {size}\n"
                            "agree = true\n")


def test_card_prints_a_million_copies_in_seconds():
    # |X*| = 4^1000000 has 602,060 digits: int -> str, quadratic in
    # Python 3.11, would take many seconds for each of the two counts
    r = run_cli("card", "--q", "3", "--spec", "3x1000000", timeout=10)
    assert (r.returncode, r.stderr) == (0, "")
    size = decimal_text(4 ** 1000000)
    assert len(size) == 602060
    assert r.stdout == (f"enumerated |X*| = {size}\n"
                        f"closed-form |X*| = {size}\n"
                        "agree = true\n")


@_digit_limit
def test_enumerate_budget_message_past_4300_digits():
    # 32^2865 points, 4313 digits, pass a budget of 4300 digits by
    # fewer bits than a refusal from the bit lengths needs: the count
    # is printed exactly
    budget = "1" + "0" * 4299
    r = run_cli("enumerate", "--q", "5", "--spec", "3x2865",
                "--enum-budget", budget)
    assert r.returncode == 3
    head = "error: materializing X* needs "
    assert r.stderr.startswith(head)
    assert r.stderr.endswith(f" points, budget is {budget}\n")
    assert len(r.stderr[len(head):].split(" ")[0]) == 4313


@_digit_limit
def test_main_restores_the_digit_limit():
    digits = sys.get_int_max_str_digits()
    assert cli.main(["card", "--q", "5", "--spec", "3",
                     "--out", os.devnull]) == 0
    assert sys.get_int_max_str_digits() == digits


def test_repeated_runs_byte_identical():
    for args in (("ideal", "--q", "5", "--spec", "3"),
                 ("hilbert", "--q", "5", "--spec", "3", "--format", "csv")):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout.splitlines() == b.stdout.splitlines()
        assert a.returncode == b.returncode == 0


# -- numpy is imported only by the commands that build arrays -----------------


@pytest.mark.parametrize("argv, loads_numpy", [
    (["hilbert", "--q", "5", "--spec", "3"], False),
    (["regularity", "--q", "7", "--spec", "3x2,5"], False),
    (["betas", "--q", "31", "--spec", "5"], False),
    (["ideal", "--q", "5", "--spec", "3"], False),
    (["groebner-check", "--q", "5", "--spec", "5"], False),
    (["code", "--q", "4", "--spec", "3", "--d", "1"], True),
    (["card", "--q", "5", "--spec", "3"], True),
    (["hilbert", "--q", "5", "--spec", "3", "--with-rank"], True),
])
def test_only_array_commands_import_numpy(argv, loads_numpy):
    # ideal, and poly with it, load only for the commands that build
    # generators; codes orders its monomials without poly
    loads_ideal = loads_poly = argv[0] in ("ideal", "groebner-check")
    code = ("import sys; from cyclecodes import cli; "
            f"rc = cli.main({argv!r}); "
            "print(rc, *(m in sys.modules for m in ('numpy', "
            "'cyclecodes.ideal', 'cyclecodes.poly')), file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.stderr == f"0 {loads_numpy} {loads_ideal} {loads_poly}\n"


def test_cli_import_loads_no_array_module():
    # nor the polynomial modules, nor dataclasses with its inspect, nor
    # argparse
    code = ("import sys, cyclecodes.cli; "
            "print(sorted(m for m in ('cyclecodes.codes', 'numpy', "
            "'dataclasses', 'inspect', 'cyclecodes.ideal', "
            "'cyclecodes.poly', 'argparse') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_package_names_resolve_lazily():
    import cyclecodes

    for name in cyclecodes.__all__:
        getattr(cyclecodes, name)
    for name, module_name in cyclecodes._LAZY.items():
        module = importlib.import_module(f"cyclecodes.{module_name}")
        want = module if name == module_name else getattr(module, name)
        assert getattr(cyclecodes, name) is want
    assert cyclecodes.DivisorSet is poly.DivisorSet
    with pytest.raises(AttributeError):
        cyclecodes.no_such_name
    namespace = {}
    exec("from cyclecodes import *", namespace)
    assert namespace["code_params"] is codes.code_params
    assert namespace["rank_at"] is codes.rank_at
