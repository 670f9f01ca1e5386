"""The JSON reports byte for byte: ``hilbert``, ``enumerate`` and
``card`` write the layout of json.dumps(payload, indent=2) directly, so each is
compared with that encoding of the payload rebuilt from the library's
routes (tests/oracles.py).  Plain ``enumerate`` output is compared with
the same oracle's points."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecodes import cardinality_formula, cli, hilbert, parse_spec_string
from oracles import enumerate_report, hilbert_report_json


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def no_digit_limit():
    """Lift the limit on int -> str digits for the oracle, as cli.main
    does for the command."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    yield
    if digits is not None:
        sys.set_int_max_str_digits(digits)


_Q = [2, 3, 4, 5, 7, 8, 11, 31, 65521]
_SPECS = ["3", "5", "7", "3x2", "3x2,5", "5,3x2"]


@st.composite
def _hilbert_cases(draw):
    q = draw(st.sampled_from(_Q))
    text = draw(st.sampled_from(_SPECS))
    spec = parse_spec_string(text)
    # the default table runs to the regularity, about nvars * q / 2
    kind = draw(st.sampled_from(["d", "dmax"] + ["default"] * (q <= 31)))
    if kind == "d":
        d = draw(st.sampled_from([-5, -1, 0, 1, 2, 10**6, 10**12]))
        degrees, flags = [d], ["--d", str(d)]
    elif kind == "dmax":
        dmax = draw(st.integers(0, 12))
        degrees, flags = list(range(dmax + 1)), ["--dmax", str(dmax)]
    else:
        reg = hilbert.regularity_formula(spec, q)
        degrees, flags = list(range(reg + 2)), []
    # the rank column searches (q-1)^k states per cycle length k
    with_rank = q <= 8 and draw(st.booleans())
    if with_rank:
        flags.append("--with-rank")
    return q, spec, degrees, with_rank, flags


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=_hilbert_cases())
def test_hilbert_json_is_the_indent_2_encoding(case):
    q, spec, degrees, with_rank, flags = case
    code, out, err = run_main(["hilbert", "--q", str(q), "--spec",
                               spec.to_string(), "--format", "json", *flags])
    assert (code, err) == (0, "")
    assert out.splitlines() == hilbert_report_json(
        q, spec, degrees, with_rank).splitlines()
    assert out.endswith("}\n")


@pytest.mark.parametrize("with_rank", [False, True])
def test_hilbert_json_when_the_routes_disagree(monkeypatch, with_rank):
    union_at = hilbert.union_at
    monkeypatch.setattr(hilbert, "union_at",
                        lambda k, q, degrees: [h + 1 for h in union_at(
                            k, q, degrees)])
    spec = parse_spec_string("5")
    flags = ["--with-rank"] * with_rank
    code, out, err = run_main(["hilbert", "--q", "5", "--spec", "5",
                               "--dmax", "4", "--format", "json", *flags])
    assert (code, err) == (1, "")
    want = hilbert_report_json(5, spec, list(range(5)), with_rank)
    assert '"agree": false' in want
    assert out.splitlines() == want.splitlines()
    assert out.endswith("}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int -> str digits")
def test_hilbert_json_past_4300_digits(no_digit_limit):
    spec = parse_spec_string("3x310")
    code, out, err = run_main(["hilbert", "--q", "65521", "--spec", "3x310",
                               "--d", "100000000", "--format", "json"])
    assert (code, err) == (0, "")
    want = hilbert_report_json(65521, spec, [100000000])
    assert max(len(word) for word in want.split()) > 4300
    assert out.splitlines() == want.splitlines()
    assert out.endswith("}\n")


def test_hilbert_json_across_row_blocks_to_stdout_and_file(tmp_path):
    # the table is written in blocks of a few thousand rows
    argv = ["hilbert", "--q", "7", "--spec", "3", "--dmax", "10000",
            "--format", "json"]
    want = hilbert_report_json(7, parse_spec_string("3"),
                               list(range(10001))).splitlines()
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == want and out.endswith("}\n")
    path = tmp_path / "table.json"
    assert run_main(argv + ["--out", str(path)]) == (0, "", "")
    text = path.read_text()
    assert text.splitlines() == want and text.endswith("}\n")


# mixed lengths in both orders, a repeated copy beside another length,
# and binary fields; the oracle walks at most about 10^5 assignments
_ENUMERATE_CASES = (
    [(text, q) for text in ("3", "5", "3x2") for q in (3, 4, 5, 7)]
    + [(text, q) for text in ("3,5", "5,3") for q in (3, 4, 5)]
    + [("3x2,5", 3), ("3x2", 8)])


@pytest.mark.parametrize("text, q", _ENUMERATE_CASES)
def test_enumerate_json_is_the_indent_2_encoding(text, q):
    spec = parse_spec_string(text)
    for fmt in ("json", "plain"):
        code, out, err = run_main(["enumerate", "--q", str(q), "--spec",
                                   text, "--format", fmt])
        assert (code, err) == (0, "")
        assert out.splitlines() == enumerate_report(q, spec, fmt).splitlines()
        assert out.endswith("\n") and not out.endswith("\n\n")


@pytest.mark.parametrize("q, text", [(5, "5"), (3, "3x2,5"), (4, "3"),
                                     (5, "3x3000"), (7, "5x2")])
def test_card_json_is_the_indent_2_encoding(no_digit_limit, q, text):
    # the counts agree, so the closed form stands for both
    size = cardinality_formula(parse_spec_string(text), q)
    code, out, err = run_main(["card", "--q", str(q), "--spec", text,
                               "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps({"q": q, "spec": text, "enumerated": size,
                              "formula": size, "agree": True},
                             indent=2) + "\n"
    code, out, err = run_main(["card", "--q", str(q), "--spec", text,
                               "--format", "csv"])
    assert (code, out, err) == (
        0, f"enumerated,formula,agree\n{size},{size},true\n", "")
