"""Fuzz of cli.main over argument lists and expression text.

Whatever the input, main returns exit code 0, 1 or 2 without raising, and
each example finishes within the deadline.  An exit 2 prints nothing on
stdout, or exactly its one JSON error object, which repeats the error line
on stderr.  The expressions mix random text with the shapes that once
overflowed the stack: deep nests, long '+', '-' and '*' chains, runs of
unary minuses and long exponent chains.  Numbers stay small so that a legal
command does little work; the bounds on n and m are exercised just past
their limits.  The run is derandomized, so every run tries the same
examples.  The same expressions check that leading whitespace moves nothing
but the offset of a parse error, and that "--expr V" and "--expr=V" give the
same output, also for a V that starts with '-' and for the abbreviations
--e, --ex and --exp.
"""

from __future__ import annotations

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from polysum.cli import main
from polysum.expr_parser import ParseError, parse

# small sizes, and sizes at, around and far past the nesting bound of 100
sizes = st.one_of(st.integers(0, 30), st.sampled_from([99, 100, 101, 300, 1000, 5000, 20000]))
shapes = st.one_of(
    sizes.map(lambda k: "(" * k + "x" + ")" * k),
    sizes.map(lambda k: "-" * k + "x"),
    sizes.map(lambda k: "2(" * k + "x" + ")" * k),
    st.tuples(st.sampled_from("+-*"), sizes).map(lambda t: t[0].join("x" * (t[1] + 1))),
    sizes.map(lambda k: "x" + "^1" * k),
)
expressions = st.one_of(
    st.text(alphabet="x0123456789+-*^()/ ", max_size=30),
    st.text(max_size=10),
    shapes,
    st.tuples(shapes, st.sampled_from(["+", "*", "^", ")", "("]), shapes).map("".join),
)
numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["1000", "1001", "100000", "100001", "1,2", "", "x", "-0"]),
    st.text(max_size=5),
)
flags = {
    "--n": numbers,
    "--factored": None,
    "--expr": expressions,
    "--lo": numbers,
    "--hi": numbers,
    "--suite": st.sampled_from(["identities", "oracle", "divisibility", "all", "none"]),
    "--max-n": numbers,
    "--max-m": numbers,
    "--m": numbers,
    "--reps": st.sampled_from(["1", "2", "0", "-1"]),
    "--csv": st.just("-"),  # stdout only: the fuzz writes no files
    "--json": None,
    "--help": None,
}


@st.composite
def flag_lists(draw):
    """Any command word, then any flags in any order, with or without values."""
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["closed-form", "sum", "verify", "bench", "frobnicate", None]))
    if command:
        argv.append(command)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        values = flags[flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            # "--flag=value" keeps a value that starts with '-' attached to its flag
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append(draw(st.text(max_size=8)))
    return argv


@st.composite
def sum_commands(draw):
    """A well-formed sum command, so that every expression reaches the parser."""
    argv = ["--json"] if draw(st.booleans()) else []
    argv += ["sum", f"--expr={draw(expressions)}"]
    if draw(st.booleans()):
        argv += [f"--lo={draw(numbers)}", f"--hi={draw(numbers)}"]
    return argv


def run_main(argv):
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(flag_lists(), sum_commands()))
def test_main_exits_cleanly_on_any_input(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    if code == 2 and out:  # argparse's own errors leave stdout empty
        error = json.loads(out)  # one JSON value, and nothing after it
        assert isinstance(error, dict) and "error" in error
        assert set(error) <= {"error", "offset"}
        assert err == f"error: {error['error']}\n"


def parsed(src: str):
    """The tree of src, or its ParseError's message without the offset and
    the offset."""
    try:
        return parse(src)
    except ParseError as e:
        return str(e).rsplit(" (byte ", 1)[0], e.offset


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(expressions, st.integers(0, 5))
def test_leading_whitespace_shifts_only_the_offset(src, r):
    # U+3000 IDEOGRAPHIC SPACE is 3 UTF-8 bytes
    plain, shifted = parsed(src), parsed("\u3000" * r + src)
    if isinstance(plain, tuple):
        assert shifted == (plain[0], plain[1] + 3 * r)
    else:
        assert shifted == plain


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(expressions, st.booleans(), st.sampled_from(["--expr", "--exp", "--ex", "--e"]))
def test_bare_expr_takes_the_next_argument(src, ranged, spelling):
    # argparse reads each abbreviation of --expr as --expr
    tail = ["--lo", "1", "--hi", "3"] if ranged else []
    for mode in ([], ["--json"]):
        attached = run_main([*mode, "sum", f"--expr={src}", *tail])
        assert run_main([*mode, "sum", spelling, src, *tail]) == attached
