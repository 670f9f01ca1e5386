"""Command-line interface.

Subcommands: enumerate, card, ideal, groebner-check, hilbert,
regularity, betas, code, selftest.  Exit codes: 0 success, 1 a
cross-check failed, 2 usage error or an --out file that cannot be
written, 3 budget exceeded, also when stderr is a closed pipe.  Output
is deterministic for a given invocation.  The hilbert and enumerate
formats share one row loop, which writes a report a few thousand rows
at a time; their json is the json.dumps(..., indent=2) layout, written
directly.  Only enumerate, card, code, selftest and hilbert --with-rank
import numpy; the counting commands run on integers alone.  Only ideal,
groebner-check and selftest import the ideal module and with it poly,
which holds the polynomials, their division and the Groebner check.
Importing cli loads neither module, nor dataclasses.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterator

from . import hilbert
from .cyclegraph import (
    DEFAULT_DIST_BUDGET,
    DEFAULT_ENUM_BUDGET,
    CycleFamilySpec,
    cardinality_formula,
    enumerate_toric_set,
    enumerated_cardinality,
    parse_spec_string,
)
from .errors import (
    BudgetExceeded,
    CycleCodesError,
    OddityError,
    ParseError,
    UnsupportedField,
    UnsupportedSpec,
    check_budget,
)
from .gf import field_new

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# The commands reach ideal and poly through these two names, which load
# the module at the call: importing cli loads neither.  A caller that
# wraps the layers, as perfbench/tracing.py does, replaces these names.
def build_generators(spec: CycleFamilySpec, field):
    from . import ideal

    return ideal.build_generators(spec, field)


def buchberger_is_groebner(gens) -> bool:
    from . import poly

    return poly.buchberger_is_groebner(gens)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(sp, *, spec=True, formats=("plain", "json"),
                enum_budget=False, dist_budget=False):
    sp.add_argument("--q", type=int, required=True,
                    help="field size (odd prime or power of two)")
    if spec:
        sp.add_argument("--spec", required=True,
                        help="cycle spec: comma-separated k or kxm, "
                             "e.g. '5' or '3x2,5'")
    sp.add_argument("--format", choices=list(formats), default="plain",
                    help="output format")
    sp.add_argument("--out", help="write the report to this file "
                                  "instead of stdout")
    if enum_budget:
        sp.add_argument("--enum-budget", type=_nonnegative_int,
                        default=DEFAULT_ENUM_BUDGET,
                        help="max enumeration / matrix work; for "
                             "groebner-check, which checks one cycle of "
                             "each distinct length, both their "
                             "generators' exponent cells and their lead "
                             "tests, each checked before any generator "
                             "is built "
                             f"(default {DEFAULT_ENUM_BUDGET})")
    if dist_budget:
        sp.add_argument("--dist-budget", type=_nonnegative_int,
                        default=DEFAULT_DIST_BUDGET,
                        help="exact min distance only when q^dimension "
                             "is at most this budget, else a bracket; "
                             "the search itself visits one message per "
                             "orbit of the scalars times the translations "
                             "by X*, which keep the weight "
                             f"(default {DEFAULT_DIST_BUDGET})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and building it costs more than a parse."""
    p = argparse.ArgumentParser(
        prog="cyclecodes",
        description="Vanishing ideals, Hilbert functions and evaluation "
                    "codes of point sets parameterized by odd cycles over "
                    "small finite fields.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list the points of X*")
    _add_common(sp, enum_budget=True)

    sp = sub.add_parser("card", help="enumerated vs closed-form |X*|")
    _add_common(sp, formats=("plain", "csv", "json"), enum_budget=True)

    sp = sub.add_parser("ideal", help="dump the generator set")
    _add_common(sp)

    sp = sub.add_parser("groebner-check",
                        help="verify the generators form a Groebner basis")
    _add_common(sp, enum_budget=True)

    sp = sub.add_parser("hilbert", help="Hilbert function table")
    _add_common(sp, formats=("plain", "csv", "json"), enum_budget=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--d", type=int, help="single degree")
    g.add_argument("--dmax", type=_nonnegative_int,
                   help="table for d = 0..dmax (default regularity+1)")
    sp.add_argument("--with-rank", action="store_true",
                    help="also compute the evaluation-matrix rank column "
                         "by counting the distinct characters that the "
                         "monomials of degree <= d restrict to on X*: "
                         "searches (q-1)^k exponent vectors per cycle "
                         "length k within --enum-budget, without "
                         "enumerating X*")

    sp = sub.add_parser("regularity",
                        help="regularity by formula and by brute force")
    _add_common(sp)

    sp = sub.add_parser("betas",
                        help="beta decomposition of a single-cycle "
                             "Hilbert function")
    _add_common(sp)

    sp = sub.add_parser("code", help="evaluation code parameters")
    _add_common(sp, enum_budget=True, dist_budget=True)
    sp.add_argument("--d", type=_nonnegative_int, required=True,
                    help="code degree")

    sp = sub.add_parser("selftest",
                        help="run the built-in reference checks "
                             "(q=5, one 5-cycle)")
    sp.add_argument("--out", help="write the report to this file")

    return p


# -- individual commands -----------------------------------------------------

def _chunks(head: str, rows, sep: str, foot: str) -> Iterator[str]:
    """head, the rows joined by sep 4,096 at a time, then foot: a long
    report is never held as one string."""
    rows = iter(rows)
    yield head + sep.join(itertools.islice(rows, 4096))
    for block in iter(lambda: sep.join(itertools.islice(rows, 4096)), ""):
        yield sep + block
    yield foot


def _cmd_enumerate(args) -> tuple[Iterator[str], bool]:
    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    X = enumerate_toric_set(spec, field, args.enum_budget)
    head, row, sep, foot = {
        "plain": ("", " ".join(["{}"] * spec.nvars), "\n", ""),
        "json": (f'{{\n  "q": {args.q},\n  "spec": "{spec}",\n'
                 f'  "cardinality": {len(X)},\n  "points": [\n',
                 "    [\n" + ",\n".join(["      {}"] * spec.nvars) + "\n    ]",
                 ",\n", "\n  ]\n}"),
    }[args.format]
    points = itertools.chain.from_iterable(
        X.points[i:i + 4096].tolist() for i in range(0, len(X), 4096))
    return _chunks(head, itertools.starmap(row.format, points), sep,
                   foot), True


def _cmd_card(args) -> tuple[str, bool]:
    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    enumerated = enumerated_cardinality(spec, field, args.enum_budget)
    formula = cardinality_formula(spec, args.q)
    agree = enumerated == formula
    if args.format == "json":
        out = json.dumps({"q": args.q, "spec": spec.to_string(),
                          "enumerated": enumerated, "formula": formula,
                          "agree": agree}, indent=2)
    elif args.format == "csv":
        out = "enumerated,formula,agree\n" \
              f"{enumerated},{formula},{str(agree).lower()}"
    else:
        out = (f"enumerated |X*| = {enumerated}\n"
               f"closed-form |X*| = {formula}\n"
               f"agree = {str(agree).lower()}")
    return out, agree


def _generator_lines(spec: CycleFamilySpec, field) -> list[str]:
    gens = build_generators(spec, field)
    return [g.to_text() for g in gens]


def _cmd_ideal(args) -> tuple[str, bool]:
    from .ideal import check_build_budget

    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    check_build_budget(spec, args.q, DEFAULT_ENUM_BUDGET)
    lines = _generator_lines(spec, field)
    if args.format == "json":
        out = json.dumps({"q": args.q, "spec": spec.to_string(),
                          "generators": lines}, indent=2)
    else:
        out = "\n".join(lines)
    return out, True


def _cmd_groebner(args) -> tuple[str, bool]:
    from .ideal import check_groebner_budget

    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    check_groebner_budget(spec, args.q, args.enum_budget)
    # one cycle per distinct length decides, see the ``ideal`` docstring
    ok = all(buchberger_is_groebner(build_generators(
        CycleFamilySpec.single(k), field).all_generators())
        for k in spec.lengths)
    if args.format == "json":
        out = json.dumps({"q": args.q, "spec": spec.to_string(),
                          "groebner": ok}, indent=2)
    else:
        out = f"groebner basis check: {'pass' if ok else 'FAIL'}"
    return out, ok


def _hilbert_columns(args, spec, field, degrees):
    """The footprint, union and rank columns, None where one does not
    apply.  The columns that check a budget (union, then rank) come
    first, so a refused budget costs no footprint work."""
    try:
        unions = hilbert.union_at(_single_cycle_k(spec), field, degrees)
    except UnsupportedSpec:
        unions = None
    ranks = None
    if args.with_rank:
        from . import codes

        ranks = codes.character_at(spec, field, degrees, args.enum_budget)
    return hilbert.footprint_at(spec, field, degrees), unions, ranks


def _cmd_hilbert(args) -> tuple[Iterator[str], bool]:
    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    if args.d is not None:
        degrees = [args.d]
    else:
        dmax = args.dmax if args.dmax is not None \
            else hilbert.regularity_formula(spec, field) + 1
        # the fixed budget, not --enum-budget, so that a table whose
        # columns fit a small budget still prints
        check_budget(f"hilbert table of {dmax + 1} rows", 4 * (dmax + 1),
                     "cells", DEFAULT_ENUM_BUDGET)
        degrees = range(dmax + 1)
    footprints, unions, ranks = _hilbert_columns(args, spec, field, degrees)
    ok = unions in (None, footprints) and ranks in (None, footprints)
    # each format: a header, a row template, the token for a column
    # that does not apply, a row separator and a footer
    head, row, missing, sep, foot = {
        "csv": ("d,footprint,union,rank\n", "{},{},{},{}", "", "\n", ""),
        "plain": ("d\tfootprint\tunion\trank\n", "{}\t{}\t{}\t{}", "-", "\n",
                  "" if ok else "\nWARNING: the routes disagree"),
        "json": (f'{{\n  "q": {args.q},\n  "spec": "{spec}",\n  "rows": [\n',
                 '    {{\n      "d": {},\n      "footprint": {},\n'
                 '      "union": {},\n      "rank": {}\n    }}', "null",
                 ",\n", f'\n  ],\n  "agree": {str(ok).lower()}\n}}'),
    }[args.format]
    absent = itertools.repeat(missing)
    rows = itertools.starmap(row.format, zip(
        degrees, footprints, unions or absent, ranks or absent))
    return _chunks(head, rows, sep, foot), ok


def _cmd_regularity(args) -> tuple[str, bool]:
    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    formula = hilbert.regularity_formula(spec, field)
    brute = hilbert.regularity_bruteforce(spec, field)
    agree = formula == brute
    if args.format == "json":
        out = json.dumps({"q": args.q, "spec": spec.to_string(),
                          "formula": formula, "bruteforce": brute,
                          "agree": agree}, indent=2)
    else:
        out = (f"regularity formula = {formula}\n"
               f"regularity brute force = {brute}\n"
               f"agree = {str(agree).lower()}")
    return out, agree


def _single_cycle_k(spec: CycleFamilySpec) -> int:
    if len(spec.components) != 1 or spec.components[0][1] != 1:
        raise UnsupportedSpec(
            "this command needs a single-cycle spec such as '5'")
    return spec.components[0][0]


def _cmd_betas(args) -> tuple[str, bool]:
    field = field_new(args.q)
    k = _single_cycle_k(parse_spec_string(args.spec))
    deco = hilbert.solve_betas(k, field)
    if args.format == "json":
        out = json.dumps({"k": k, "q": args.q, "betas": list(deco.betas),
                          "verified_through": deco.verified_through},
                         indent=2)
    else:
        out = (f"betas = {' '.join(str(b) for b in deco.betas)}\n"
               f"identity verified through d = {deco.verified_through}")
    return out, True


def _cmd_code(args) -> tuple[str, bool]:
    from . import codes

    field = field_new(args.q)
    spec = parse_spec_string(args.spec)
    codes.check_matrix_budget(spec.nvars, args.q,
                              cardinality_formula(spec, args.q), args.d,
                              args.enum_budget)
    X = enumerate_toric_set(spec, field, args.enum_budget)
    params = codes.code_params(X, args.d, args.dist_budget, args.enum_budget)
    if params.min_distance is not None:
        ok = codes.singleton_check(params)
        singleton_ok: bool | None = ok
    else:
        ok, singleton_ok = True, None
    if args.format == "json":
        payload: dict = {"q": args.q, "spec": spec.to_string(), "d": args.d,
                         "n": params.n, "dimension": params.dimension}
        if params.min_distance is not None:
            payload["min_distance"] = params.min_distance
        else:
            payload["min_distance_bracket"] = list(
                params.min_distance_bracket)
        payload["singleton_ok"] = singleton_ok
        out = json.dumps(payload, indent=2)
    else:
        lines = [f"n = {params.n}", f"dimension = {params.dimension}"]
        if params.min_distance is not None:
            lines.append(f"min distance = {params.min_distance}")
            lines.append(f"singleton ok = {str(singleton_ok).lower()}")
        else:
            lo, hi = params.min_distance_bracket
            lines.append(f"min distance in [{lo}, {hi}] (not computed: "
                         "message count exceeds --dist-budget)")
        out = "\n".join(lines)
    return out, ok


def _cmd_selftest(args) -> tuple[str, bool]:
    from . import codes

    field = field_new(5)
    spec = CycleFamilySpec.single(5)
    lines = []
    ok = True

    def check(label, got, want):
        nonlocal ok
        if got == want:
            lines.append(f"PASS {label}: {got}")
        else:
            lines.append(f"FAIL {label}: expected {want}, got {got}")
            ok = False

    X = enumerate_toric_set(spec, field)
    check("|X*| enumerated", len(X), 512)
    check("|X*| closed form", cardinality_formula(spec, 5), 512)
    probe = (1, 2, 9)
    check("H footprint at d=1,2,9",
          tuple(hilbert.footprint_at(spec, field, probe)), (6, 21, 512))
    check("H union formula at d=1,2,9",
          tuple(hilbert.union_at(5, field, probe)), (6, 21, 512))
    check("H rank oracle at d=1,2,9",
          tuple(codes.rank_at(X, probe)), (6, 21, 512))
    for i, want in ((2, (6, 18, 128)), (1, (6, 17, 64)), (0, (6, 16, 32))):
        check(f"degenerate torus i={i} at d=1,2,9",
              tuple(hilbert.degenerate_torus_at(i, 5, field, probe)), want)
    check("regularity formula", hilbert.regularity_formula(spec, field), 9)
    check("regularity brute force",
          hilbert.regularity_bruteforce(spec, field), 9)
    check("betas", hilbert.solve_betas(5, field).betas, (6, -15, 10))
    gens = build_generators(spec, field)
    check("generator count", len(gens), 15)
    check("groebner basis check",
          buchberger_is_groebner(gens.all_generators()), True)
    passed = sum(1 for line in lines if line.startswith("PASS"))
    lines.append(f"selftest: {passed}/{len(lines)} checks passed")
    return "\n".join(lines), ok


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "card": _cmd_card,
    "ideal": _cmd_ideal,
    "groebner-check": _cmd_groebner,
    "hilbert": _cmd_hilbert,
    "regularity": _cmd_regularity,
    "betas": _cmd_betas,
    "code": _cmd_code,
    "selftest": _cmd_selftest,
}


def _error(message: str, code: int) -> int:
    """Report message on stderr and return code.  A closed stderr, as
    with `2>&1 >/dev/null | head -c0`, loses the message but not the
    code: stderr then goes to devnull, so the flush at exit stays
    quiet."""
    try:
        print(f"error: {message}", file=sys.stderr)
        sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts such as |X*| can pass the 4300 digits that int -> str
    # allows by default
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(args) -> int:
    try:
        out, ok = _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        return _error(str(exc), EXIT_BUDGET)
    except MemoryError:
        return _error("out of memory; a smaller --enum-budget stops such "
                      "work before it starts", EXIT_BUDGET)
    except (ParseError, OddityError, UnsupportedField,
            UnsupportedSpec) as exc:
        return _error(str(exc), EXIT_USAGE)
    except CycleCodesError as exc:
        return _error(str(exc), EXIT_CHECK_FAILED)
    pieces = itertools.chain([out] if isinstance(out, str) else out, ["\n"])
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            return _error(f"cannot write {args.out}: {exc.strerror or exc}",
                          EXIT_USAGE)
    else:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone, as with `| head`: the rest of the
            # output goes to devnull, so the flush at exit stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
