"""CLI behaviour at Python's int-string digit limit (sys.get_int_max_str_digits,
4300 by default): an over-long literal or exact result is a usage error
(exit 2, one "error:" line), never a traceback, and a failed self-check that
quotes an over-long value stays a failed self-check (exit 1).  The limit is
not changed."""

from __future__ import annotations

import json
import sys

import pytest

from conftest import run_cli
from polysum.poly import Polynomial

LIMIT = sys.get_int_max_str_digits()

pytestmark = pytest.mark.skipif(LIMIT == 0, reason="int-string limit disabled")


def test_overlong_literal_is_parse_error(capsys):
    code, out, err = run_cli(capsys, "sum", "--expr", "1" * (LIMIT + 1) + "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse --expr")
    assert "(byte 0)" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_overlong_value_is_usage_error(capsys, json_flag):
    # the sum of x^3 up to hi has about 4 times as many digits as hi
    hi = "1" + "0" * (LIMIT // 4 + 10)
    code, out, err = run_cli(capsys, *json_flag, "sum", "--expr", "x^3", "--lo", "1", "--hi", hi)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    if json_flag:
        assert json.loads(out) == {"error": err[len("error: "):].rstrip("\n")}
    else:
        assert out == ""
    assert str(LIMIT) in err
    assert "PYTHONINTMAXSTRDIGITS" in err


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param([], [], id="text"),
        pytest.param(["--json"], [], id="json-before"),
        pytest.param([], ["--json"], id="json-after"),
    ],
)
def test_overlong_symbolic_coefficient_is_usage_error(capsys, before, after):
    # the literal fits the limit, its cube does not
    expr = f"({'9' * (LIMIT // 3 + 10)}x)^3"
    code, out, err = run_cli(capsys, *before, "sum", *after, "--expr", expr)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    if before or after:
        assert out == json.dumps({"error": err[len("error: "):].rstrip("\n")}) + "\n"
    else:
        assert out == ""
    assert "PYTHONINTMAXSTRDIGITS" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_failed_self_check_on_a_huge_form_exits_one(capsys, monkeypatch, json_flag):
    # the assembly adds m, so g(1) = f(1) fails; f(1) = (10^40 + 1)^120 is past the
    # limit, so the message quotes sizes and the failure stays a failed self-check
    import polysum.summation as summation_module

    real = summation_module.from_rising_row
    x = Polynomial((0, 1))
    monkeypatch.setattr(summation_module, "from_rising_row", lambda row, den: real(row, den) + x)
    code, out, err = run_cli(capsys, *json_flag, "sum", "--expr", f"({10**40}x+1)^120")
    message = "the closed form at m=1 is <a 15946-bit number>, not f(1) = <a 15946-bit number>"
    assert (code, err) == (1, f"error: {message}\n")
    assert out == (json.dumps({"error": message}) + "\n" if json_flag else "")


def test_value_just_inside_the_limit_is_printed(capsys):
    hi = "1" + "0" * (LIMIT // 4 - 10)
    code, out, _ = run_cli(capsys, "--json", "sum", "--expr", "x^3", "--lo", "1", "--hi", hi)
    assert code == 0
    m = int(hi)
    assert json.loads(out)["value"] == str((m * (m + 1) // 2) ** 2)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_overlong_integer_flag_is_argparse_error(capsys, json_flag):
    # ASCII digits past the limit fail int(); argparse reports them as it reports "abc"
    n = "9" * (LIMIT + 1)
    code, out, err = run_cli(capsys, *json_flag, "closed-form", "--n", n)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --n: invalid int value: {n!r}\n")
