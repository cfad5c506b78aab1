from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import polysum.basis
import polysum.cli as cli_module
import polysum.powersum
import polysum.summation
from conftest import run_cli
from polysum.cli import MAX_M, MAX_VERIFY_N
from polysum.poly import Polynomial
from polysum.powersum import coefficients, power_sum_closed_form
from polysum.summation import MAX_SUM_BITS

EXACT_DECIMAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def test_closed_form_expanded(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--n", "2")
    assert code == 0
    assert out == "1/3*m^3 + 1/2*m^2 + 1/6*m\n"


def test_closed_form_triangular(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--n", "1")
    assert code == 0
    assert out == "1/2*m^2 + 1/2*m\n"


def test_closed_form_factored(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--n", "3", "--factored")
    assert code == 0
    assert out == "-m*(m+1)*(-1/2 + (m+2) - 1/4*(m+2)*(m+3))\n"


def test_closed_form_json(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "closed_form"
    assert payload["format"] == "expanded"
    assert payload["polynomial"] == "1/3*m^3 + 1/2*m^2 + 1/6*m"


def test_closed_form_factored_json(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--n", "4", "--factored", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "factored"
    assert payload["sign"] == 1
    assert payload["inner_constant"] == "-1/2"
    for term in payload["inner_terms"]:
        assert EXACT_DECIMAL.match(term["coefficient"])


def test_text_mode_formats_only_what_it_prints(capsys, monkeypatch):
    # text mode prints the rendering alone, so the JSON-only prefactor stays unformatted
    calls = []
    render = Polynomial.render

    def counting_render(self, *args, **kwargs):
        calls.append(self)
        return render(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "render", counting_render)
    rendering = (
        "-m*(m+1)*(-1/2 + 5*(m+2) - 25/4*(m+2)*(m+3) + 2*(m+2)*(m+3)*(m+4)"
        " - 1/6*(m+2)*(m+3)*(m+4)*(m+5))"
    )
    code, out, _ = run_cli(capsys, "closed-form", "--n", "5", "--factored")
    assert (code, out, calls) == (0, rendering + "\n", [])
    code, out, _ = run_cli(capsys, "--json", "closed-form", "--n", "5", "--factored")
    assert code == 0
    assert json.loads(out) == {
        "mode": "closed_form",
        "n": 5,
        "format": "factored",
        "variable": "m",
        "rendering": rendering,
        "sign": -1,
        "prefactor": "m^2 + m",
        "inner_constant": "-1/2",
        "inner_terms": [
            {"length": 2, "coefficient": "5"},
            {"length": 3, "coefficient": "-25/4"},
            {"length": 4, "coefficient": "2"},
            {"length": 5, "coefficient": "-1/6"},
        ],
    }


def test_json_flag_position_is_flexible(capsys):
    _, before, _ = run_cli(capsys, "--json", "closed-form", "--n", "2")
    _, after, _ = run_cli(capsys, "closed-form", "--n", "2", "--json")
    assert before == after
    assert json.loads(before)["mode"] == "closed_form"


def test_closed_form_rejects_zero_with_hint(capsys):
    code, _, err = run_cli(capsys, "closed-form", "--n", "0")
    assert code == 2
    assert "sum --expr 1" in err


def test_closed_form_factored_needs_three(capsys):
    code, _, err = run_cli(capsys, "closed-form", "--n", "2", "--factored")
    assert code == 2
    assert "n >= 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--n", "1001"],
        ["closed-form", "--n", "1001", "--factored"],
        ["verify", "--suite", "divisibility", "--max-n", "1001"],
        ["verify", "--suite", "identities", "--max-n", "1001"],
    ],
)
def test_n_past_the_degree_bound_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    # verify --max-n has its own, smaller bound
    bound = MAX_VERIFY_N if argv[0] == "verify" else 1000
    assert err.startswith("error:") and f"<= {bound}" in err


@pytest.mark.parametrize("expr", ["x^2^2^2^2", "x^9^9^9"])
def test_exponent_tower_is_usage_error(capsys, expr):
    code, out, err = run_cli(capsys, "sum", "--expr", expr)
    assert code == 2
    assert out == ""
    assert "maximum degree 1000" in err


def test_sum_of_a_400th_power(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "(x+1)^400", "--lo", "1", "--hi", "2")
    assert code == 0
    assert out == f"{2**400 + 3**400}\n"


def test_degree_past_the_bound_exits_at_once():
    # lowering would expand a degree-10,000 polynomial; the parser stops first
    result = subprocess.run(
        [sys.executable, "-m", "polysum", "--json", "sum", "--expr", "(x^100)^100",
         "--lo", "1", "--hi", "2"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2
    assert "maximum degree 1000" in result.stderr
    assert json.loads(result.stdout)["offset"] == 8


def test_closed_stdout_exits_cleanly():
    # about 500 KB of output, far past a pipe buffer, so the write itself fails
    with subprocess.Popen(
        [sys.executable, "-m", "polysum", "closed-form", "--n", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 2
    assert err == b""  # no traceback, no "Exception ignored" line


def test_json_parse_error_carries_the_offset(capsys):
    code, out, err = run_cli(capsys, "--json", "sum", "--expr", "x^2 +* 1")
    assert code == 2
    assert err.startswith("error: cannot parse --expr") and err.count("\n") == 1
    assert json.loads(out) == {"error": err[len("error: "):].rstrip("\n"), "offset": 5}


def test_unclosed_parenthesis_is_usage_error(capsys):
    message = "cannot parse --expr: expected ')', found end of input (byte 4)"
    code, out, err = run_cli(capsys, "--json", "sum", "--expr", "(x+1")
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads(out) == {"error": message, "offset": 4}


def test_undecodable_argv_byte_is_usage_error(capsys):
    # os.fsdecode turns the argv byte 0xff into the lone surrogate U+DCFF
    message = "cannot parse --expr: unexpected character '\\udcff' (byte 5)"
    code, out, err = run_cli(capsys, "--json", "sum", "--expr", "é + \udcff")
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads(out) == {"error": message, "offset": 5}


@pytest.mark.skipif(sys.platform == "win32", reason="argv is passed as bytes on POSIX only")
def test_undecodable_argv_byte_in_a_fresh_process():
    result = subprocess.run(
        [sys.executable, "-m", "polysum", "--json", "sum", "--expr", "é + ".encode() + b"\xff"],
        capture_output=True,
        timeout=30,
    )
    assert result.returncode == 2
    assert json.loads(result.stdout)["offset"] == 5


def test_json_usage_error_without_parse_has_no_offset(capsys):
    code, out, err = run_cli(capsys, "sum", "--expr", "x", "--lo", "1", "--json")
    assert code == 2
    assert err == "error: --lo and --hi must be given together\n"
    assert json.loads(out) == {"error": "--lo and --hi must be given together"}


def test_json_argparse_errors_stay_plain_text(capsys):
    code, out, err = run_cli(capsys, "--json", "closed-form")
    assert code == 2
    assert out == ""
    assert "--n" in err


@pytest.mark.parametrize(
    ("expr", "offset"),
    [("(" * 300 + "x" + ")" * 300, 100), ("-" * 5000 + "x", 100), ("x - " + "-" * 101 + "x", 104)],
)
def test_deep_nesting_is_usage_error(capsys, expr, offset):
    code, out, err = run_cli(capsys, "--json", "sum", f"--expr={expr}", "--lo", "1", "--hi", "2")
    assert code == 2
    assert err.startswith("error: cannot parse --expr") and "maximum of 100" in err
    assert json.loads(out)["offset"] == offset


def test_long_flat_sum_gives_its_answer(capsys):
    expr = "+".join(["x"] * 20000)
    code, out, _ = run_cli(capsys, "--json", "sum", "--expr", expr, "--lo", "1", "--hi", "2")
    assert code == 0
    assert json.loads(out)["value"] == "60000"


def test_sum_with_bounds(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "x^2", "--lo", "1", "--hi", "3")
    assert code == 0
    assert out == "14\n"


def test_sum_constant_expression(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "2", "--lo", "1", "--hi", "10")
    assert code == 0
    assert out == "20\n"


def test_sum_rational_value(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "1/2*x", "--lo", "1", "--hi", "2")
    assert code == 0
    assert out == "3/2\n"


def test_sum_symbolic(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "x^3 - x")
    assert code == 0
    assert out == "1/4*m^4 + 1/2*m^3 - 1/4*m^2 - 1/2*m\n"
    # zero constant term: no bare constant appears
    assert not re.search(r"(^|\s)[0-9]+(/[0-9]+)?$", out.strip())


def test_sum_json_value_is_decimal_string(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "x^2", "--lo", "1", "--hi", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "value"
    assert payload["value"] == "14"
    assert EXACT_DECIMAL.match(payload["value"])


def test_sum_symbolic_json(capsys):
    code, out, _ = run_cli(capsys, "sum", "--expr", "x^2", "--json")
    payload = json.loads(out)
    assert payload["mode"] == "closed_form"
    assert payload["polynomial"] == "1/3*m^3 + 1/2*m^2 + 1/6*m"
    assert payload["source_degree"] == 2


def test_sum_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "sum", "--expr", "x +* 2")
    assert code == 2
    assert "byte 3" in err


def test_sum_rejects_non_ascii_digits(capsys):
    code, out, err = run_cli(capsys, "sum", "--expr", "2²")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse --expr")
    assert "byte 1" in err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    ("argv", "flag", "value"),
    [
        # U+0663 is ARABIC-INDIC DIGIT THREE, which int() reads as 3
        (["closed-form"], "--n", "\u0663"),
        (["sum", "--expr", "x", "--hi", "12"], "--lo", "1_0"),
        (["sum", "--expr", "x", "--lo", "1"], "--hi", " 12 "),
        (["verify", "--suite", "identities"], "--max-n", "\u0663"),
        # malformed ASCII keeps argparse's own message for type=int
        (["closed-form"], "--n", "abc"),
    ],
    ids=["n", "lo", "hi", "max-n", "ascii"],
)
def test_integer_flags_take_only_ascii_digits(capsys, argv, flag, value, as_json):
    # as --expr does: int() alone would also take non-ASCII digits, "_" and spaces
    code, out, err = run_cli(capsys, *(["--json"] if as_json else []), *argv, flag, value)
    assert (code, out) == (2, "")
    assert err.endswith(f" error: argument {flag}: invalid int value: {value!r}\n")


def test_integer_flags_take_a_plus_sign(capsys):
    assert run_cli(capsys, "closed-form", "--n", "+3") == (0, "1/4*m^4 + 1/2*m^3 + 1/4*m^2\n", "")


def test_sum_bounds_must_come_together(capsys):
    code, _, err = run_cli(capsys, "sum", "--expr", "x", "--lo", "1")
    assert code == 2
    assert "together" in err


def test_sum_rejects_reversed_bounds(capsys):
    code, _, err = run_cli(capsys, "sum", "--expr", "x", "--lo", "5", "--hi", "4")
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--lo", "1"], "--lo and --hi must be given together"),
        (["--hi", "3"], "--lo and --hi must be given together"),
        (["--lo", "5", "--hi", "1"], "--lo 5 exceeds --hi 1"),
    ],
    ids=["lo-alone", "hi-alone", "reversed"],
)
def test_sum_checks_its_flags_before_parsing(capsys, monkeypatch, bounds, message, as_json):
    def no_parse(src):
        raise AssertionError("--expr was parsed before the flags were checked")

    monkeypatch.setattr(cli_module, "parse_polynomial", no_parse)
    argv = [*(["--json"] if as_json else []), "sum", "--expr", "x", *bounds]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == (json.dumps({"error": message}) + "\n" if as_json else "")


def test_sum_past_the_size_bound_is_usage_error(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the bound was checked")

    # sum_range owns the bound, so it must raise before it calls sum_polynomial
    monkeypatch.setattr(polysum.summation, "sum_polynomial", no_work)
    hi = "9" * 4000  # 13,288 bits, times degree + 1 = 1001
    code, out, err = run_cli(capsys, "--json", "sum", "--expr", "x^1000", "--lo", "1", "--hi", hi)
    assert code == 2
    assert err == (
        "error: (degree + 1) * bit length of max(|lo - 1|, |hi|) at degree 1000 "
        f"must be <= {MAX_SUM_BITS} (got {1001 * 13288})\n"
    )
    assert json.loads(out) == {"error": err[len("error: "):].rstrip("\n")}


def test_sum_that_cancels_gets_its_answer(capsys):
    # a 1,100-digit bound is inside the size bound; the value itself is 0
    hi = 10**1100 + 7
    code, out, _ = run_cli(capsys, "sum", "--expr", "x^3", "--lo", str(-hi), "--hi", str(hi))
    assert code == 0
    assert out == "0\n"


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "6", "--max-m", "20")
    assert code == 0
    assert "identities: 6/6 passed" in out
    assert "oracle: 120/120 passed" in out
    assert "divisibility: 12/12 passed" in out
    assert "all checks passed" in out


def test_verify_all_builds_each_closed_form_once(capsys):
    # every suite checks n before the pass moves on, so the divisibility check
    # finds the S_n that the oracle check just built, whatever the cache size
    power_sum_closed_form.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "130", "--max-m", "1")
    assert code == 0
    assert power_sum_closed_form.cache_info().misses == 130


def test_verify_all_reports_each_suite_in_n_m_order(capsys, monkeypatch):
    # the oracle is off by one at five (n, m) and S_3, S_5 and S_6 break the
    # divisibility checks; each suite counts every failure and keeps its first three
    wrong_values = {(2, 3), (2, 5), (4, 1), (5, 2), (6, 5)}
    real_value = cli_module.power_sum_value
    monkeypatch.setattr(
        cli_module, "power_sum_value", lambda n, m: real_value(n, m) + ((n, m) in wrong_values)
    )
    extra = {3: Polynomial((0, 1)), 5: Polynomial((2,)), 6: Polynomial((0, 0, 1))}
    monkeypatch.setattr(
        cli_module,
        "power_sum_closed_form",
        lambda n: power_sum_closed_form(n) + extra.get(n, Polynomial(())),
    )
    code, out, err = run_cli(
        capsys, "--json", "verify", "--suite", "all", "--max-n", "6", "--max-m", "5"
    )
    assert (code, err) == (1, "")

    def oracle(n, m, literal):
        return {"check": "power-sum-oracle", "n": n, "m": m, "expected": str(literal),
                "got": str(literal + 1)}

    def divisibility(check, n, got):
        return {"check": check, "n": n, "expected": "0", "got": got}

    assert json.loads(out) == {
        "mode": "verify",
        "suites": [
            {"name": "identities", "passed": 6, "total": 6, "failures": []},
            {
                "name": "oracle", "passed": 25, "total": 30,
                "failures": [oracle(2, 3, 14), oracle(2, 5, 55), oracle(4, 1, 1)],
            },
            {
                "name": "divisibility", "passed": 8, "total": 12,
                "failures": [
                    divisibility("divisible-by-m(m+1)", 3, "m"),
                    divisibility("divisible-by-m(m+1)", 5, "2"),
                    divisibility("zero-constant-term", 5, "2"),
                ],
            },
        ],
        "ok": False,
    }


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--max-n", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "verify"
    assert payload["ok"] is True
    (suite,) = payload["suites"]
    assert suite["name"] == "identities"
    assert suite["passed"] == suite["total"] == 10
    assert suite["failures"] == []


def test_verify_rejects_bad_bounds(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")
    assert code == 2
    assert "--max-n" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ["closed-form", "--n", "0"],
            "n must be >= 1; the n = 0 sum is m itself: polysum sum --expr 1",
        ),
        (["closed-form", "--n", "-3"], "n must be >= 1 (got -3)"),
        (["closed-form", "--n", "1001"], "n must be <= 1000 (got 1001)"),
        # --max-n is checked before --max-m, each lower bound before its upper
        (
            ["verify", "--suite", "all", "--max-n", "0", "--max-m", "0"],
            "--max-n must be >= 1 (got 0)",
        ),
        (
            ["verify", "--suite", "all", "--max-n", "301", "--max-m", "0"],
            "--max-n must be <= 300 (got 301)",
        ),
        (
            ["verify", "--suite", "oracle", "--max-n", "1", "--max-m", "0"],
            "--max-m must be >= 1 (got 0)",
        ),
        (
            ["verify", "--suite", "oracle", "--max-n", "1", "--max-m", "100001"],
            "--max-m must be <= 100000 (got 100001)",
        ),
        # n >= 1 is checked before the factored form's n >= 3
        (["closed-form", "--n", "-3", "--factored"], "n must be >= 1 (got -3)"),
    ],
)
def test_range_errors_are_verbatim(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert (code, json.loads(out)) == (2, {"error": message})


def test_brute_force_m_at_the_bound_runs(capsys):
    assert MAX_M == 10**5
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--max-n", "1", "--max-m", str(MAX_M)
    )
    assert code == 0
    assert out.startswith(f"oracle: {MAX_M}/{MAX_M} passed")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "oracle", "--max-n", "1", "--max-m", str(MAX_M + 1)],
        ["verify", "--suite", "identities", "--max-n", "1", "--max-m", str(MAX_M + 1)],
        # the oracle suite's work, --max-m * --max-n, has the same bound
        ["verify", "--suite", "oracle", "--max-n", "101", "--max-m", "1000"],
        ["verify", "--suite", "all", "--max-n", "101", "--max-m", "1000"],
    ],
)
def test_brute_force_m_past_the_bound_is_usage_error(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work started before the bound was checked")

    for name in ("_weights", "power_sum_value", "power_sum_closed_form"):
        monkeypatch.setattr(cli_module, name, no_work)
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert err.startswith("error: --max-m") and f"<= {MAX_M}" in err
    assert json.loads(out) == {"error": err[len("error: "):].rstrip("\n")}


@pytest.mark.parametrize("suite", ["identities", "oracle", "divisibility", "all"])
def test_verify_n_past_the_bound_is_usage_error(capsys, monkeypatch, suite):
    def no_work(*args):
        raise AssertionError("work started before the bound was checked")

    for name in ("_weights", "power_sum_value", "power_sum_closed_form"):
        monkeypatch.setattr(cli_module, name, no_work)
    argv = ["verify", "--suite", suite, "--max-n", str(MAX_VERIFY_N + 1), "--max-m", "1"]
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert err == f"error: --max-n must be <= {MAX_VERIFY_N} (got {MAX_VERIFY_N + 1})\n"
    assert json.loads(out) == {"error": err[len("error: "):].rstrip("\n")}


def test_verify_n_at_the_bound_runs(capsys):
    assert MAX_VERIFY_N == 300
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "300")
    assert code == 0
    assert out.startswith("identities: 300/300 passed")


def test_divisibility_failure_reports_the_remainder(capsys, monkeypatch):
    # S_n plus a polynomial that m(m+1) does not divide, with a nonzero constant term
    extra = Polynomial((Fraction(1, 3), -2, Fraction(5, 7), 4))
    monkeypatch.setattr(
        cli_module, "power_sum_closed_form", lambda n: power_sum_closed_form(n) + extra
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "divisibility", "--max-n", "3", "--json")
    assert code == 1
    (suite,) = json.loads(out)["suites"]
    assert suite["passed"] == 0 and suite["total"] == 6
    # S_1 + extra = 1/3 - 3/2*m + 17/14*m^2 + 4*m^3, and mod m(m+1) m^2 = -m and
    # m^3 = m: 1/3 + (-3/2 - 17/14 + 4)*m
    assert suite["failures"][0] == {
        "check": "divisible-by-m(m+1)", "n": 1, "expected": "0", "got": "9/7*m + 1/3"
    }
    assert suite["failures"][1]["got"] == "1/3"


@pytest.mark.parametrize("argv", [["--help"], ["closed-form", "--help"]], ids=" ".join)
def test_help_exits_zero_with_usage_on_stdout(capsys, argv):
    # main returns argparse's own exit code, which is 0 after --help
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


@pytest.mark.parametrize(
    "argv", [["frobnicate"], ["bench", "--n", "2", "--m", "10"]], ids=lambda argv: argv[0]
)
def test_usage_error_on_unknown_subcommand(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "invalid choice" in err


# A failed self-check of the exact arithmetic ends every command the same
# way: exit 1, one "error:" line on stderr, and under --json the error object.
A3_MESSAGE = "a_n disagrees with (-1)^n/(n+1) for n=3: 0/1"


def tamper_with_weights(monkeypatch):
    """Zero alternating_sums on the values (-k)^3, in powersum's binding only."""
    real = polysum.powersum.alternating_sums

    def tampered(values):
        return [0] * len(values) if list(values) == [0, -1, -8, -27] else real(values)

    monkeypatch.setattr(polysum.powersum, "alternating_sums", tampered)
    # a cached S_3 would skip the weights; a build that raises is not cached
    power_sum_closed_form.cache_clear()


def assert_failed_self_check(capsys, argv, as_json, message):
    code, out, err = run_cli(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 1
    assert err == f"error: {message}\n" and "Traceback" not in err
    assert out == (json.dumps({"error": message}) + "\n" if as_json else "")


def test_verify_failure_exits_one_with_counterexample(capsys, monkeypatch):
    # _weights calls alternating_sums on the n + 1 values (-k)^n; move a middle
    # sum for n = 3 by -1: a_3 still holds, S_3(1) = 1 does not
    real = polysum.powersum.alternating_sums

    def tampered(values):
        sums = real(values)
        if len(values) == 4:
            sums[2] -= 1
        return sums

    monkeypatch.setattr(polysum.powersum, "alternating_sums", tampered)
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "5")
    assert (code, out) == (1, "")
    assert err == "error: the a_i give S_n(1) = 0, not 1, for n=3\n"


def test_identities_suite_sees_a_defect_in_the_production_kernel(capsys, monkeypatch):
    # the suite runs the power-sum weights; zero the kernel's sums for the values
    # (-k)^3, in powersum's binding only: the suite must fail where
    # powersum.coefficients(3) fails
    tamper_with_weights(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(A3_MESSAGE)):
        coefficients(3)
    # the expanded closed form is built from the same a_i, so it fails too
    with pytest.raises(ArithmeticError, match=re.escape(A3_MESSAGE)):
        power_sum_closed_form(3)
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "5")
    assert (code, out) == (1, "")
    assert err == f"error: {A3_MESSAGE}\n"


def test_verify_failure_json_reports_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(polysum.powersum, "alternating_sums", lambda v: [0] * len(v))
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "4", "--json")
    assert code == 1
    message = "a_n disagrees with (-1)^n/(n+1) for n=1: 0/1"
    assert err == f"error: {message}\n"
    assert json.loads(out) == {"error": message}


def test_oracle_failure_reports_the_counterexample_as_text(capsys, monkeypatch):
    # a suite that finds a counterexample prints its report, not an error line
    monkeypatch.setattr(
        cli_module, "power_sum_value", lambda n, m: m * (m + 1) // 2 + (m == 2)
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "1", "--max-m", "3")
    assert (code, err) == (1, "")
    assert out == (
        "oracle: 2/3 passed\n"
        "  FAIL power-sum-oracle at n=1, m=2: expected 3, got 4\n"
        "verification FAILED\n"
    )


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "oracle", "--max-n", "5"],
        ["verify", "--suite", "divisibility", "--max-n", "5"],
        ["verify", "--suite", "all", "--max-n", "5"],
        ["closed-form", "--n", "3"],
        ["closed-form", "--n", "3", "--factored"],
    ],
    ids=" ".join,
)
def test_failed_weights_check_is_one_error_line(capsys, monkeypatch, argv, as_json):
    tamper_with_weights(monkeypatch)
    assert_failed_self_check(capsys, argv, as_json, A3_MESSAGE)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("bounds", [[], ["--lo", "1", "--hi", "3"]], ids=["symbolic", "ranged"])
def test_failed_assembly_check_is_one_error_line(capsys, monkeypatch, bounds, as_json):
    # one more at every m, as tests/test_summation.py tampers with the assembly
    import polysum.summation as summation_module

    real = summation_module.from_rising_row
    monkeypatch.setattr(
        summation_module, "from_rising_row", lambda row, den: real(row, den) + Polynomial((1,))
    )
    argv = ["sum", "--expr", "x^3 - x", *bounds]
    assert_failed_self_check(capsys, argv, as_json, "the closed form at m=1 is 1, not f(1) = 0")


def test_non_bench_output_is_deterministic(capsys):
    invocations = [
        ["closed-form", "--n", "7"],
        ["closed-form", "--n", "5", "--factored", "--json"],
        ["sum", "--expr", "x^4 - 2x", "--lo", "-3", "--hi", "17"],
        ["verify", "--suite", "all", "--max-n", "5", "--json"],
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "polysum", "closed-form", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1/3*m^3 + 1/2*m^2 + 1/6*m"
