"""Command-line interface.

Subcommands: enumerate, card, ideal, groebner-check, hilbert,
regularity, betas, code, selftest.  Exit codes: 0 success, 1 a
cross-check failed, 2 usage error or an --out file that cannot be
written, 3 budget exceeded, also when stderr is a closed pipe.  Output
is deterministic for a given invocation.  One table, _COMMANDS, gives
each command's handler, one-line help and options (flag, converter or
choices, default, whether required, help); parse_args reads argv by it
as argparse read it, a usage error prints the command's usage line
and the error on stderr and main returns 2, and -h or --help prints
help made from the same table.  Every command but selftest
has --q checked (gf.field_new) and then --spec parsed once, in _run,
before its own budgets; the counting commands then take q alone.  The
hilbert, enumerate and ideal formats share one row loop, which writes
a report a few thousand rows at a time; their json, and card's, is the
json.dumps(..., indent=2) layout, written directly, and card writes
its counts through errors.decimal_text.  ideal builds one cycle per
length before it returns, then shifts each copy's lines as they are
written.  code checks the length and
dimension it prints against the closed-form |X*| and the footprint;
a mismatch is a failed check.  Only enumerate, card, code,
selftest and hilbert --with-rank import numpy; the counting commands
run on integers alone.  Only ideal, groebner-check and selftest import
the ideal module and with it poly, which holds the binomials, their
division and the Groebner check; both take q as an int, and neither
needs a field.  Importing cli loads neither module, nor dataclasses,
argparse or json.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from collections.abc import Callable, Iterator
from types import SimpleNamespace

from . import hilbert
from .cyclegraph import (
    DEFAULT_ENUM_BUDGET,
    CycleFamilySpec,
    cardinality_factors,
    cardinality_formula,
    enumerate_toric_set,
    enumerated_cardinality,
    parse_spec_string,
)
from .errors import (
    BudgetExceeded,
    CheckFailure,
    CycleCodesError,
    OddityError,
    ParseError,
    UnsupportedField,
    UnsupportedSpec,
    check_budget,
    decimal_text,
)
from .gf import field_new

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# groebner-check and selftest reach ideal and poly through these names,
# each loading its module at the call, so importing cli loads neither;
# perfbench/tracing.py wraps the layers by replacing them.
def build_generators(k: int, q: int):
    from . import ideal

    return ideal.build_generators(k, q)


def buchberger_is_groebner(gens) -> bool:
    from . import poly

    return poly.buchberger_is_groebner(gens)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# -- individual commands -----------------------------------------------------

def _json(report: dict) -> str:
    """json.dumps(report, indent=2); json loads at the first report, so
    importing cli does not load it."""
    import json

    return json.dumps(report, indent=2)


def _chunks(head: str, rows, sep: str, foot: str) -> Iterator[str]:
    """head, the rows joined by sep 4,096 at a time, then foot: a long
    report is never held as one string."""
    rows = iter(rows)
    yield head + sep.join(itertools.islice(rows, 4096))
    for block in iter(lambda: sep.join(itertools.islice(rows, 4096)), ""):
        yield sep + block
    yield foot


def _cmd_enumerate(args, field, spec) -> tuple[Iterator[str], bool]:
    import numpy as np

    X = enumerate_toric_set(spec, field, args.enum_budget)
    # antilogs do not keep the order of the logs, so each copy's points
    # are sorted in place: in the first `run` rows, whose earlier copies'
    # logs are 0, they recur every `step` rows, the first nonzero there
    points = field.exp.astype(np.min_scalar_type(field.q - 1))[X.logs]
    run = len(X)  # 1 only over F_2, where every copy is one point
    for k, off in spec.blocks() if run > 1 else ():
        step = int(X.logs[:run, off:off + k].any(1).argmax())
        copy = points[:run:step, off:off + k]
        points.reshape(-1, run // step, step, spec.nvars)[..., off:off + k] \
            = copy[np.lexsort(copy.T[::-1]), None]
        run = step
    head, row, sep, foot = {
        "plain": ("", " ".join(["{}"] * spec.nvars), "\n", ""),
        "json": (f'{{\n  "q": {args.q},\n  "spec": "{spec}",\n'
                 f'  "cardinality": {len(X)},\n  "points": [\n',
                 "    [\n" + ",\n".join(["      {}"] * spec.nvars) + "\n    ]",
                 ",\n", "\n  ]\n}"),
    }[args.format]
    rows = itertools.chain.from_iterable(
        points[i:i + 4096].tolist() for i in range(0, len(X), 4096))
    return _chunks(head, itertools.starmap(row.format, rows), sep,
                   foot), True


def _cmd_card(args, field, spec) -> tuple[str, bool]:
    enumerated = enumerated_cardinality(spec, field, args.enum_budget)
    formula = cardinality_formula(spec, args.q)
    agree = enumerated == formula
    # the json.dumps(..., indent=2) layout, written directly: json.dumps
    # would turn the counts into text by the quadratic int -> str
    template = {
        "json": '{{\n  "q": {q},\n  "spec": "{spec}",\n  "enumerated": {0},'
                '\n  "formula": {1},\n  "agree": {2}\n}}',
        "csv": "enumerated,formula,agree\n{0},{1},{2}",
        "plain": "enumerated |X*| = {0}\nclosed-form |X*| = {1}\n"
                 "agree = {2}",
    }[args.format]
    return template.format(decimal_text(enumerated), decimal_text(formula),
                           str(agree).lower(), q=args.q, spec=spec), agree


def _cmd_ideal(args, field, spec) -> tuple[Iterator[str], bool]:
    from .ideal import generator_lines

    head, row, sep, foot = {
        "plain": ("", "{}", "\n", ""),
        "json": (f'{{\n  "q": {args.q},\n  "spec": "{spec}",\n'
                 '  "generators": [\n', '    "{}"', ",\n", "\n  ]\n}"),
    }[args.format]
    lines = map(row.format, generator_lines(spec, args.q))
    return _chunks(head, lines, sep, foot), True


def _cmd_groebner(args, field, spec) -> tuple[str, bool]:
    from .ideal import check_groebner_budget

    check_groebner_budget(spec, args.q, args.enum_budget)
    # one cycle per distinct length decides, see the ``ideal`` docstring
    ok = all(buchberger_is_groebner(build_generators(k, args.q))
             for k in spec.lengths)
    if args.format == "json":
        out = _json({"q": args.q, "spec": spec.to_string(), "groebner": ok})
    else:
        out = f"groebner basis check: {'pass' if ok else 'FAIL'}"
    return out, ok


def _hilbert_columns(args, spec, degrees):
    """The footprint, union and rank columns, None where one does not
    apply.  The columns that check a budget (union, then rank) come
    first, so a refused budget costs no footprint work."""
    try:
        unions = hilbert.union_at(_single_cycle_k(spec), args.q, degrees)
    except UnsupportedSpec:
        unions = None
    ranks = None
    if args.with_rank:
        from . import codes

        ranks = codes.character_at(spec, args.q, degrees, args.enum_budget)
    return hilbert.footprint_at(spec, args.q, degrees), unions, ranks


def _cmd_hilbert(args, field, spec) -> tuple[Iterator[str], bool]:
    if args.d is not None:
        degrees = [args.d]
    else:
        dmax = args.dmax if args.dmax is not None \
            else hilbert.regularity_formula(spec, args.q) + 1
        # the fixed budget, not --enum-budget, so that a table whose
        # columns fit a small budget still prints
        check_budget(f"hilbert table of {dmax + 1} rows", 4 * (dmax + 1),
                     "cells", DEFAULT_ENUM_BUDGET)
        degrees = range(dmax + 1)
    footprints, unions, ranks = _hilbert_columns(args, spec, degrees)
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


def _cmd_regularity(args, field, spec) -> tuple[str, bool]:
    formula = hilbert.regularity_formula(spec, args.q)
    brute = hilbert.regularity_bruteforce(spec, args.q)
    agree = formula == brute
    if args.format == "json":
        out = _json({"q": args.q, "spec": spec.to_string(),
                     "formula": formula, "bruteforce": brute,
                     "agree": agree})
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


def _cmd_betas(args, field, spec) -> tuple[str, bool]:
    k = _single_cycle_k(spec)
    deco = hilbert.solve_betas(k, args.q)
    if args.format == "json":
        out = _json({"k": k, "q": args.q, "betas": list(deco.betas),
                     "verified_through": deco.verified_through})
    else:
        out = (f"betas = {' '.join(str(b) for b in deco.betas)}\n"
               f"identity verified through d = {deco.verified_through}")
    return out, True


def _cmd_code(args, field, spec) -> tuple[str, bool]:
    from . import codes

    codes.check_matrix_budget(spec.nvars, args.q,
                              cardinality_factors(spec, args.q), args.d,
                              args.enum_budget)
    X = enumerate_toric_set(spec, field, args.enum_budget)
    params = codes.code_params(X, args.d, args.enum_budget)
    for name, got, route, want in (
            ("length", params.n, "closed-form |X*|",
             cardinality_formula(spec, args.q)),
            ("dimension", params.dimension, "footprint",
             hilbert.footprint_at(spec, args.q, [args.d])[0])):
        if got != want:
            raise CheckFailure(f"code {name} {got} differs from the "
                               f"{route} {want}")
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
        out = _json(payload)
    else:
        lines = [f"n = {params.n}", f"dimension = {params.dimension}"]
        if params.min_distance is not None:
            lines.append(f"min distance = {params.min_distance}")
            lines.append(f"singleton ok = {str(singleton_ok).lower()}")
        else:
            lo, hi = params.min_distance_bracket
            lines.append(f"min distance in [{lo}, {hi}] (not computed: "
                         "the orbit search exceeds --enum-budget)")
        out = "\n".join(lines)
    return out, ok


def _cmd_selftest() -> tuple[str, bool]:
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
          tuple(hilbert.footprint_at(spec, 5, probe)), (6, 21, 512))
    check("H union formula at d=1,2,9",
          tuple(hilbert.union_at(5, 5, probe)), (6, 21, 512))
    check("H rank oracle at d=1,2,9",
          tuple(codes.rank_at(X, probe)), (6, 21, 512))
    for i, want in ((2, (6, 18, 128)), (1, (6, 17, 64)), (0, (6, 16, 32))):
        check(f"degenerate torus i={i} at d=1,2,9",
              tuple(hilbert.degenerate_torus_at(i, 5, 5, probe)), want)
    check("regularity formula", hilbert.regularity_formula(spec, 5), 9)
    check("regularity brute force",
          hilbert.regularity_bruteforce(spec, 5), 9)
    check("betas", hilbert.solve_betas(5, 5).betas, (6, -15, 10))
    gens = build_generators(5, 5)
    check("generator count", len(gens), 15)
    check("groebner basis check", buchberger_is_groebner(gens), True)
    passed = sum(1 for line in lines if line.startswith("PASS"))
    lines.append(f"selftest: {passed}/{len(lines)} checks passed")
    return "\n".join(lines), ok


# -- the command line ----------------------------------------------------------

class UsageError(Exception):
    """A command line that the option table cannot read: exit 2."""


class Option:
    """One option of a command: its flag, how its value is read (a
    converter, which raises ValueError with the message, a tuple of the
    choices, or None for a switch), its default, whether it is
    required, and its help."""

    __slots__ = ("flag", "kind", "default", "required", "help")

    def __init__(self, flag: str, kind, default=None, required=False,
                 help=""):
        self.flag, self.kind, self.default = flag, kind, default
        self.required, self.help = required, help

    @property
    def dest(self) -> str:
        """The name of its value in the namespace."""
        return self.flag[2:].replace("-", "_")

    @property
    def synopsis(self) -> str:
        """The flag with the form of its value, as usage shows it."""
        if self.kind is None:
            return self.flag
        if isinstance(self.kind, tuple):
            return f"{self.flag} {{{','.join(self.kind)}}}"
        return f"{self.flag} {self.dest.upper()}"


_HELP = Option("--help", None, help="show this help message and exit")
_TOP = {"-h": _HELP, "--help": _HELP}


class Command:
    """One command: its handler, called as the command is, with (args,
    field, spec), or with nothing for selftest; its one-line help; its
    options; and the flags of which at most one may be given.  It keeps
    its options by flag, -h and --help among them, and their defaults
    by name, for parse_args."""

    def __init__(self, run: Callable, help: str,
                 options: tuple[Option, ...], exclusive: tuple[str, ...] = ()):
        self.run, self.help, self.options = run, help, options
        self.exclusive = exclusive
        self.flags = {**_TOP, **{o.flag: o for o in options}}
        self.defaults = {o.dest: o.default for o in options}

    def __call__(self, *args):
        return self.run(*args)

_ENUM_BUDGET = Option(
    "--enum-budget", _nonnegative_int, DEFAULT_ENUM_BUDGET,
    help="max enumeration / matrix work, and for code the cells of the "
         "exact min-distance search, n per orbit representative, past "
         "which it prints a bracket; for groebner-check, which checks "
         "one cycle of each distinct length, both their generators' "
         "exponent cells and their lead tests, each checked before any "
         f"generator is built (default {DEFAULT_ENUM_BUDGET})")


def _common(formats=("plain", "json"), *more: Option) -> tuple[Option, ...]:
    """--q, --spec, --format of the given formats and --out, then more."""
    return (Option("--q", _int, required=True,
                   help="field size (odd prime or power of two)"),
            Option("--spec", str, required=True,
                   help="cycle spec: comma-separated k or kxm, e.g. '5' "
                        "or '3x2,5'"),
            Option("--format", formats, "plain", help="output format"),
            Option("--out", str, help="write the report to this file "
                                      "instead of stdout"),
            *more)


_TABLE_FORMATS = ("plain", "csv", "json")
_COMMANDS = {
    "enumerate": Command(_cmd_enumerate, "list the points of X*",
                         _common(("plain", "json"), _ENUM_BUDGET)),
    "card": Command(_cmd_card, "enumerated vs closed-form |X*|",
                    _common(_TABLE_FORMATS, _ENUM_BUDGET)),
    "ideal": Command(_cmd_ideal, "dump the generator set", _common()),
    "groebner-check": Command(
        _cmd_groebner, "verify the generators form a Groebner basis",
        _common(("plain", "json"), _ENUM_BUDGET)),
    "hilbert": Command(_cmd_hilbert, "Hilbert function table", _common(
        _TABLE_FORMATS, _ENUM_BUDGET,
        Option("--d", _int, help="single degree"),
        Option("--dmax", _nonnegative_int,
               help="table for d = 0..dmax (default regularity+1)"),
        Option("--with-rank", None, False,
               help="also compute the evaluation-matrix rank column by "
                    "counting the distinct characters that the monomials "
                    "of degree <= d restrict to on X*: searches (q-1)^k "
                    "exponent vectors per cycle length k within "
                    "--enum-budget, without enumerating X*")),
        exclusive=("--d", "--dmax")),
    "regularity": Command(_cmd_regularity,
                          "regularity by formula and by brute force",
                          _common()),
    "betas": Command(_cmd_betas, "beta decomposition of a single-cycle "
                                 "Hilbert function", _common()),
    "code": Command(_cmd_code, "evaluation code parameters", _common(
        ("plain", "json"), _ENUM_BUDGET,
        Option("--d", _nonnegative_int, required=True, help="code degree"))),
    "selftest": Command(_cmd_selftest, "run the built-in reference checks "
                                       "(q=5, one 5-cycle)",
                        (Option("--out", str,
                                help="write the report to this file"),)),
}


def _lookup(flag: str, options: dict) -> Option | None:
    """The option that flag names: its own flag, or for a --flag the
    one flag that it is a prefix of; None when it names none."""
    if flag in options:
        return options[flag]
    if flag[:2] != "--":
        return None
    matches = [f for f in options if f.startswith(flag)]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {flag} could match "
                         f"{', '.join(matches)}")
    return options[matches[0]] if matches else None


def _is_flag(token: str, options: dict) -> bool:
    """Whether token reads as a flag rather than as a value: a token
    that starts with '-' and names a flag, or that is neither '-', a
    negative number nor a token with a space."""
    if token[:1] != "-" or token == "-":
        return False
    if token == "--" or _lookup(token.partition("=")[0], options):
        return True
    return " " not in token and not re.match(r"-\d+$|-\d*\.\d+$", token)


def _option_of(token: str, options: dict) -> Option | None:
    """The option that token names, None for a token that names none;
    a switch, --help among them, refuses a value given with '='."""
    flag, eq, value = token.partition("=")
    option = None if token == "--" else _lookup(flag, options)
    if eq and option is not None and option.kind is None:
        raise UsageError(f"argument {option.flag}: ignored explicit "
                         f"argument {value!r}")
    return option


def parse_args(argv) -> SimpleNamespace:
    """The command of argv, with a value for each of its options, read
    by the table as argparse read it: ``--flag value`` or
    ``--flag=value``, a --flag abbreviated to a unique prefix, the last
    of a repeated flag winning, and every token after ``--`` left
    unread.  -h or --help, before or after the command, gives a
    namespace with help=True and no other value.  Raises UsageError for
    an ambiguous prefix, then for the first token that cannot be read,
    then for a missing required flag, then for tokens that name
    nothing."""
    extras = []  # tokens that name nothing, in order
    for i, name in enumerate(argv):
        if name == "--" or not _is_flag(name, _TOP):
            break
        if _option_of(name, _TOP) is _HELP:
            return SimpleNamespace(command=None, help=True)
        extras.append(name)
    else:
        raise UsageError("the following arguments are required: command")
    command = _COMMANDS.get(name)
    if command is None:
        raise UsageError(f"argument command: invalid choice: {name!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})")
    options = command.flags
    rest = argv[i + 1:]
    end = rest.index("--") if "--" in rest else len(rest)
    for token in rest[:end]:  # argparse names every flag before it reads one
        flag = token.partition("=")[0]
        if flag[:2] == "--" and flag not in options:
            _lookup(flag, options)
    values = dict(command.defaults)
    given = []
    tokens = iter(rest[:end])
    for token in tokens:
        option = _option_of(token, options)
        if option is None:
            extras.append(token)
            continue
        if option is _HELP:
            return SimpleNamespace(command=name, help=True)
        if option.kind is None:
            value = True
        else:
            _, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value, options):
                    raise UsageError(f"argument {option.flag}: expected "
                                     "one argument")
            if isinstance(option.kind, tuple):
                if value not in option.kind:
                    raise UsageError(
                        f"argument {option.flag}: invalid choice: "
                        f"{value!r} (choose from "
                        f"{', '.join(map(repr, option.kind))})")
            else:
                try:
                    value = option.kind(value)
                except ValueError as exc:
                    raise UsageError(f"argument {option.flag}: {exc}") \
                        from None
        if option.flag in command.exclusive:
            for other in command.exclusive:
                if other != option.flag and other in given:
                    raise UsageError(f"argument {option.flag}: not allowed "
                                     f"with argument {other}")
        given.append(option.flag)
        values[option.dest] = value
    missing = [o.flag for o in command.options
               if o.required and o.flag not in given]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    extras += rest[end:]
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, help=False, **values)


def _usage(name: str | None) -> str:
    """The usage line of a command, or of cyclecodes when name is None."""
    import textwrap

    if name is None:
        return "usage: cyclecodes [-h] <command> [options]"
    command = _COMMANDS[name]
    words, group = ["usage: cyclecodes", name, "[-h]"], []
    for o in command.options:
        word = o.synopsis
        if o.flag in command.exclusive:
            group.append(word)
            if len(group) == len(command.exclusive):
                words.append(f"[{' | '.join(group)}]")
        else:
            words.append(word if o.required else f"[{word}]")
    return textwrap.fill(" ".join(words), 79, break_long_words=False,
                         break_on_hyphens=False,
                         subsequent_indent=" " * (len(name) + 19))


def _help(name: str | None) -> str:
    """The help of a command, or of cyclecodes when name is None, from
    the table."""
    import textwrap

    if name is None:
        title, foot = "commands:", ("\n\nRun 'cyclecodes <command> --help' "
                                    "for the options of a command.")
        about = ("Vanishing ideals, Hilbert functions and evaluation codes "
                 "of point sets parameterized by odd cycles over small "
                 "finite fields.")
        rows = [(n, c.help) for n, c in _COMMANDS.items()]
    else:
        title, foot, about = "options:", "", _COMMANDS[name].help
        rows = [("-h, --help", _HELP.help)] + [
            (o.synopsis, o.help) for o in _COMMANDS[name].options]
    lines = [_usage(name), "", textwrap.fill(about, 79), "", title]
    for left, text in rows:
        first = f"  {left}"
        if len(first) > 22:
            lines.append(first)
            first = ""
        lines.append(textwrap.fill(text, 79, initial_indent=first.ljust(24),
                                   subsequent_indent=" " * 24,
                                   break_on_hyphens=False))
    return "\n".join(lines) + foot


def _error(message: str, code: int, head: str = "") -> int:
    """Report message on stderr, after head, and return code.  A closed
    stderr, as with `2>&1 >/dev/null | head -c0`, loses the message but
    not the code: stderr then goes to devnull, so the flush at exit
    stays quiet."""
    try:
        print(f"{head}error: {message}", file=sys.stderr)
        sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except UsageError as exc:
        name = argv[0] if argv and argv[0] in _COMMANDS else None
        return _error(str(exc), EXIT_USAGE, _usage(name) + "\n")
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
        if args.help:
            out, ok = _help(args.command), True
        elif args.command == "selftest":
            out, ok = _COMMANDS["selftest"]()
        else:
            # q is checked where it enters, then the spec, then each
            # command's budgets
            field = field_new(args.q)
            spec = parse_spec_string(args.spec)
            out, ok = _COMMANDS[args.command](args, field, spec)
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
