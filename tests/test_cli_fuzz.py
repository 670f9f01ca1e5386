"""Fuzzing the command line: every argv ends in an exit code of the
contract (0 ok, 1 check failed, 2 usage, 3 budget), never a traceback."""

import contextlib
import io
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecodes import cli

# Each command with the formats it accepts.
_FORMATS = {
    "enumerate": ["plain", "json"],
    "card": ["plain", "csv", "json"],
    "ideal": ["plain", "json"],
    "groebner-check": ["plain", "json"],
    "hilbert": ["plain", "csv", "json"],
    "regularity": ["plain", "json"],
    "betas": ["plain", "json"],
    "code": ["plain", "json"],
}

# Valid field sizes and specs stay small enough that every command
# finishes in well under a second; the others are malformed or
# unsupported on purpose.
_Q = ["2", "3", "4", "5"]
_BAD_Q = ["0", "1", "-3", "6", "9", "65537", str(2 ** 40), str(2 ** 61 - 1),
          "x", ""]
_SPEC = ["3", "5", "3x2"]
_BAD_SPEC = ["", "1", "4", "0", "-3", "3x0", "3x-1", "3,,5", "3x2x2", "x",
             " 3 "]
_D = ["0", "1", "2", "-1", "99999999999"]
_BAD_D = ["-7", "1.5", "x"]
_DMAX = ["0", "3", "10000", "100000000000000000000"]
_BAD_DMAX = ["-1", "x"]
_BUDGET = ["0", "-1", "1000"]
# Either side of the distance search's cells, orbit representatives x n:
# 512 for code --q 5 --spec 3 --d 1 (at least 156 normalized messages),
# 1024 for --q 3 --spec 5 --d 1.
_SEARCH_BUDGET = ["155", "511", "512", "1023", "1024"]
# An existing directory: --out can never write there.
_OUT_DIR = os.path.dirname(os.path.abspath(__file__))


def _mostly(valid, malformed):
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(malformed))


@st.composite
def _command_line(draw):
    """A command with its own options, most values well formed."""
    command = draw(st.sampled_from(sorted(_FORMATS)))
    argv = [command, "--q", draw(_mostly(_Q, _BAD_Q)),
            "--spec", draw(_mostly(_SPEC, _BAD_SPEC)),
            "--format", draw(st.sampled_from(_FORMATS[command]))]
    if command == "hilbert":
        argv += draw(st.sampled_from([
            [], ["--d", draw(_mostly(_D, _BAD_D))],
            ["--dmax", draw(_mostly(_DMAX, _BAD_DMAX))]]))
        if draw(st.booleans()):
            argv.append("--with-rank")
    if command == "code":
        argv += ["--d", draw(_mostly(_D, _BAD_D))]
    if command in ("enumerate", "card", "groebner-check", "hilbert", "code") \
            and draw(st.booleans()):
        budgets = _BUDGET + _SEARCH_BUDGET if command == "code" else _BUDGET
        argv += ["--enum-budget", draw(st.sampled_from(budgets))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--out", _OUT_DIR]
    return argv


_ANY_TOKEN = st.sampled_from(
    sorted(_FORMATS) + ["nonsense", "--q", "--spec", "--d", "--dmax",
                        "--format", "--enum-budget", "--with-rank", "xml"]
    + _Q + _BAD_Q + _SPEC + _BAD_SPEC + _D + _BAD_D + _DMAX + _BUDGET)

_ARGV = st.one_of(_command_line(), st.lists(_ANY_TOKEN, max_size=8))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_ARGV)
@example(argv=["hilbert", "--q", "5", "--spec", "3", "--d", "99999999999"])
@example(argv=["hilbert", "--q", "5", "--spec", "3", "--d", "99999999999",
               "--with-rank"])
@example(argv=["code", "--q", "5", "--spec", "3", "--d", "99999999999"])
@example(argv=["hilbert", "--q", "5", "--spec", "3", "--dmax", "-1"])
@example(argv=["code", "--q", "5", "--spec", "3", "--d", "1",
               "--enum-budget", "-1"])
@example(argv=["groebner-check", "--q", "3", "--spec", "13",
               "--enum-budget", "1000000"])
@example(argv=["card", "--q", "5", "--spec", "3", "--out", _OUT_DIR])
@example(argv=["code", "--q", "2", "--spec", "3x99999999999999999999",
               "--d", "0"])
@example(argv=["enumerate", "--q", "2", "--spec", "3x99999999999999999999"])
@example(argv=["card", "--q", "5", "--spec", "3x99999999999999999999"])
@example(argv=["regularity", "--q", "5", "--spec",
               "3x99999999999999999999"])
def test_any_argv_keeps_the_exit_code_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
