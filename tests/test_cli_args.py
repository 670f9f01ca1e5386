"""The command line's option table: cli.parse_args reads an argv as
argparse read it, main reports a usage error on stderr with exit 2, and
--help prints help made from the table."""

import argparse
import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecodes import cli
from cyclecodes.cyclegraph import DEFAULT_ENUM_BUDGET

_COMMON = {"format": "plain", "out": None}
_BUDGETS = {"enum_budget": DEFAULT_ENUM_BUDGET}

# argv, and every field of the namespace it reads as
PARSED = [
    (["card", "--q", "5", "--spec", "3"],
     dict(command="card", q=5, spec="3", **_COMMON, **_BUDGETS)),
    (["ideal", "--spec", "3x2", "--q", "7", "--format", "json"],
     dict(command="ideal", q=7, spec="3x2", format="json", out=None)),
    # = and prefixes
    (["hilbert", "--q=7", "--spe", "3x2", "--dm", "4", "--w", "--f=csv"],
     dict(command="hilbert", q=7, spec="3x2", format="csv", out=None,
          **_BUDGETS, d=None, dmax=4, with_rank=True)),
    # a negative degree, and a value that is a negative number
    (["hilbert", "--q", "5", "--spec", "-3", "--d", "-1"],
     dict(command="hilbert", q=5, spec="-3", **_COMMON, **_BUDGETS, d=-1,
          dmax=None, with_rank=False)),
    # the last of a repeated flag wins, also within --d | --dmax
    (["code", "--q", "5", "--q", "7", "--spec", "3", "--d", "1", "--d=2",
      "--e", "10", "--e=20", "--o", "x"],
     dict(command="code", q=7, spec="3", format="plain", out="x",
          enum_budget=20, d=2)),
    (["hilbert", "--q", "5", "--spec", "3", "--dmax", "2", "--dmax", "3"],
     dict(command="hilbert", q=5, spec="3", **_COMMON, **_BUDGETS, d=None,
          dmax=3, with_rank=False)),
    # values as int() reads them, and an empty value after =
    (["regularity", "--q", " 5 ", "--spec="],
     dict(command="regularity", q=5, spec="", **_COMMON)),
    (["code", "--q", "5", "--spec", "3", "--d", "1_0",
      "--enum-budget", "0"],
     dict(command="code", q=5, spec="3", **_COMMON, enum_budget=0, d=10)),
    (["code", "--q", "5", "--spec", "3", "--d", "1"],
     dict(command="code", q=5, spec="3", **_COMMON, **_BUDGETS, d=1)),
    (["selftest"], dict(command="selftest", out=None)),
    (["selftest", "--out=r.txt"], dict(command="selftest", out="r.txt")),
]


@pytest.mark.parametrize("argv, fields", PARSED,
                         ids=[" ".join(argv) for argv, _ in PARSED])
def test_parse_args_reads_the_table(argv, fields):
    assert vars(cli.parse_args(argv)) == {**fields, "help": False}


_CARD = ["card", "--q", "5", "--spec", "3"]
_HILBERT = ["hilbert", "--q", "5", "--spec", "3"]

# argv, and the error line it ends with
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                     "(choose from 'enumerate', 'card', 'ideal', "
                     "'groebner-check', 'hilbert', 'regularity', 'betas', "
                     "'code', 'selftest')"),
    (["--", "card"], "argument command: invalid choice: '--'"),
    (["card", "--spec", "3"], "the following arguments are required: --q"),
    (["code", "--q", "5", "--spec", "3"],
     "the following arguments are required: --d"),
    (["card"], "the following arguments are required: --q, --spec"),
    (["card", "--q", "x", "--spec", "3"],
     "argument --q: invalid int value: 'x'"),
    (["card", "--q", "1.5", "--spec", "3"],
     "argument --q: invalid int value: '1.5'"),
    (_HILBERT + ["--dmax=-1"], "argument --dmax: must be >= 0, got -1"),
    (_HILBERT + ["--dmax", "-1", "--with-rank"],
     "argument --dmax: must be >= 0, got -1"),
    (["code", "--q", "5", "--spec", "3", "--d", "-1"],
     "argument --d: must be >= 0, got -1"),
    (_CARD + ["--enum-budget", "-1"],
     "argument --enum-budget: must be >= 0, got -1"),
    (_CARD + ["--enum-budget", "x"],
     "argument --enum-budget: invalid int value: 'x'"),
    (_HILBERT + ["--d", "1", "--dmax", "2"],
     "argument --dmax: not allowed with argument --d"),
    (_HILBERT + ["--dmax", "2", "--d", "1"],
     "argument --d: not allowed with argument --dmax"),
    (_HILBERT + ["--format", "xml"], "argument --format: invalid choice: "
                                     "'xml' (choose from 'plain', 'csv', "
                                     "'json')"),
    (["enumerate", "--q", "5", "--spec", "3", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'plain', "
     "'json')"),
    (_HILBERT + ["--with-rank=yes"],
     "argument --with-rank: ignored explicit argument 'yes'"),
    (["card", "--q", "5", "--spec"], "argument --spec: expected one argument"),
    (["card", "--q", "5", "--spec", "--out", "x"],
     "argument --spec: expected one argument"),
    (["card", "--q", "5", "--spec", "-x"],
     "argument --spec: expected one argument"),
    (_CARD + ["extra"], "unrecognized arguments: extra"),
    (_CARD + ["--d", "1"], "unrecognized arguments: --d 1"),
    (_CARD + ["--", "--out", "x"], "unrecognized arguments: -- --out x"),
    (["--frobnicate", "card", "--q", "5", "--spec", "3"],
     "unrecognized arguments: --frobnicate"),
    (["card", "--=5", "--help"], "ambiguous option: -- could match --help, "
                                 "--q, --spec, --format, --out, "
                                 "--enum-budget"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS,
                         ids=[" ".join(argv) or "(empty)"
                              for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_2_with_the_usage_line(capsys, argv, error):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    name = argv[0] if argv and argv[0] in cli._COMMANDS else "[-h] <command>"
    assert out == ""
    assert err.startswith(f"usage: cyclecodes {name} ")
    assert err.endswith("\n") and err.splitlines()[-1].startswith(
        f"error: {error}")
    with pytest.raises(cli.UsageError):
        cli.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["--he"], ["--frobnicate", "-h"]] + [
    [name, flag] for name in cli._COMMANDS for flag in ("--help", "-h")] + [
    _CARD + ["--h"], ["card", "--help", "--q", "x"], ["code", "-h", "--d"]])
def test_help_exits_0_with_the_table_on_stdout(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    name = argv[0] if argv[0] in cli._COMMANDS else None
    assert out.startswith(f"usage: cyclecodes {name or '[-h]'} ")
    if name is None:
        assert all(f"\n  {n} " in out and c.help[:20] in out
                   for n, c in cli._COMMANDS.items())
    else:
        assert cli._COMMANDS[name].help in out
        assert all(f"\n  {o.synopsis}" in out
                   for o in cli._COMMANDS[name].options)


def test_help_comes_in_the_order_of_the_tokens(capsys):
    # a value that cannot be read before --help is the error
    assert cli.main(["card", "--q", "x", "--help"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --q: invalid int value: 'x'\n")


# -- argparse, built from the same table, as the oracle ----------------------

def _argparse_oracle() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclecodes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        sp = sub.add_parser(name)
        group = sp.add_mutually_exclusive_group() if command.exclusive else sp
        for o in command.options:
            into = group if o.flag in command.exclusive else sp
            if o.kind is None:
                into.add_argument(o.flag, action="store_true")
            elif isinstance(o.kind, tuple):
                into.add_argument(o.flag, choices=o.kind, default=o.default,
                                  required=o.required)
            else:
                into.add_argument(o.flag, type=o.kind, default=o.default,
                                  required=o.required)
    return parser


_ORACLE = _argparse_oracle()


def _argparse_reads(argv):
    """argparse's reading of argv: the fields, or the exit code."""
    quiet = io.StringIO()
    try:
        with contextlib.redirect_stdout(quiet), \
                contextlib.redirect_stderr(quiet):
            return vars(_ORACLE.parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _table_reads(argv):
    try:
        fields = vars(cli.parse_args(argv))
    except cli.UsageError:
        return 2
    return 0 if fields.pop("help") else fields


_TOKENS = st.sampled_from(
    list(cli._COMMANDS) + [
        "--q", "--spec", "--format", "--out", "--enum-budget", "--d",
        "--dmax", "--with-rank", "--spe", "--s", "--f", "--o", "--e", "--en",
        "--dm", "--w", "-h", "--help", "--he",
        "--h", "-q", "-x", "--x", "--", "-", "-1", "-1.5", "-.5", "-3x2",
        "5", "3", "3x2", "0", "x", "", " 5", "-5 x", "plain", "json", "csv",
        "xml", "--q=5", "--spec=3", "--d=1", "--dmax=-1", "--dmax=3",
        "--with-rank=1", "--with-rank=", "--q=", "--spe=3", "--=5",
        "--help=x", "-h=x", "--foo=bar", "5_0"])


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(argv=st.one_of(
    st.lists(_TOKENS, max_size=9),
    st.tuples(st.sampled_from(list(cli._COMMANDS)),
              st.lists(_TOKENS, max_size=9)).map(
        lambda t: [t[0], *t[1]])))
@example(argv=["code", "--q=5", "--spe", "3", "--d", "1", "--en", "8",
               "--format", "json", "--out", "f", "--q", "7"])
@example(argv=["hilbert", "--q", "5", "--spec", "3", "--with-rank",
               "--dmax", "2", "--d", "1"])
@example(argv=["card", "--q", "5", "--spec", "3", "--", "--out"])
@example(argv=["--x", "-h"])
def test_the_table_reads_argv_as_argparse(argv):
    assert _table_reads(argv) == _argparse_reads(argv)


def test_cli_import_defers_json():
    # json loads with the first report that needs json.dumps, so a fresh
    # process that prints plain text never loads it
    code = ("import sys, cyclecodes.cli as cli; a = 'json' in sys.modules; "
            "cli.main(['regularity', '--q', '5', '--spec', '3', "
            "'--format', 'json']); print(a, 'json' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert (r.returncode, r.stdout.splitlines()[-1], r.stderr) == (
        0, "False True", "")
