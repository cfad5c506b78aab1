"""Command-line interface: closed forms, exact sums and verification suites.

All numeric output is exact decimal text; nothing is ever rendered through
floating point.  Commands hand their exact values to main, which turns them
into text once; a number past Python's int-string digit limit is a usage
error there, as is every ValueError: the library call that does the work
checks its own bounds, once, and the CLI only reports them.  Library and CLI
word an int bound alike, through poly.check_int: "--max-n must be <= 300
(got 301)".  With --json,
each command emits a single JSON object whose exact-arithmetic values are
decimal strings; a usage error or a failed self-check (an ArithmeticError)
also prints {"error": message} on stdout, with the byte "offset" when
--expr failed to parse.  Exit codes: 0 success, 1 verification failure or
failed self-check, 2 usage or parse error.  The
integer flags take an optional sign and ASCII digits, and a bare --expr,
or an abbreviation of it that argparse accepts, takes the next argument as
its value, even one that starts with '-'.
verify makes one pass over n, and each selected suite checks each n; the
identities suite is powersum's weights, which check a_n and S_n(1).  A
one-shot process imports json only to write JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

from .expr_parser import ParseError, parse_polynomial
from .poly import Polynomial, check_int
from .powersum import _weights, power_sum_closed_form, power_sum_factored_form, power_sum_value
from .summation import sum_polynomial, sum_range

__all__ = ["main"]

# Largest verify --max-m, and largest --max-n * --max-m for the oracle suite:
# its literal sums cost one exact addition and one closed-form value per term.
MAX_M = 10**5
# Largest verify --max-n; the divisibility suite builds S_1 .. S_max-n.
MAX_VERIFY_N = 300


def _int(text: str) -> int:
    """argparse type of the integer flags: an optional sign, then ASCII digits."""
    if text.isascii() and text.lstrip("+-").isdigit():
        try:
            return int(text)
        except ValueError:  # a second sign, or past Python's int-string digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# ---------------------------------------------------------------------------
# closed-form


def _cmd_closed_form(args: argparse.Namespace) -> tuple[int, dict, object]:
    n = args.n
    if n == 0:
        raise ValueError("n must be >= 1; the n = 0 sum is m itself: polysum sum --expr 1")
    payload = {
        "mode": "closed_form",
        "n": n,
        "format": "factored" if args.factored else "expanded",
        "variable": "m",
    }
    if not args.factored:
        text = payload["polynomial"] = power_sum_closed_form(n)
        return 0, payload, text
    form = power_sum_factored_form(n)
    a_1, *rest = form.coeffs
    text = payload["rendering"] = form.render()
    payload["sign"] = (-1) ** n
    payload["prefactor"] = Polynomial((0, 1, 1))  # m*(m+1)
    payload["inner_constant"] = a_1
    payload["inner_terms"] = [{"length": i, "coefficient": c} for i, c in enumerate(rest, 2)]
    return 0, payload, text


# ---------------------------------------------------------------------------
# sum


def _cmd_sum(args: argparse.Namespace) -> tuple[int, dict, object]:
    # the flags are checked before --expr is parsed and lowered, which can take seconds
    ranged = args.lo is not None
    if ranged != (args.hi is not None):
        raise ValueError("--lo and --hi must be given together")
    if ranged and args.lo > args.hi:
        raise ValueError(f"--lo {args.lo} exceeds --hi {args.hi}")
    try:
        f = parse_polynomial(args.expr)
    except ParseError as e:
        raise ValueError(f"cannot parse --expr: {e}") from e
    if not ranged:
        closed = sum_polynomial(f)
        payload = {
            "mode": "closed_form",
            "expr": args.expr,
            "variable": "m",
            "polynomial": closed.poly,
            "source_degree": closed.source_degree,
        }
        return 0, payload, closed.poly
    value = sum_range(f, args.lo, args.hi)
    payload = {
        "mode": "value",
        "expr": args.expr,
        "lo": args.lo,
        "hi": args.hi,
        "value": value,
    }
    return 0, payload, value


# ---------------------------------------------------------------------------
# verify


def _failure(check: str, n: int, expected, got, **where) -> dict:
    return {"check": check, "n": n, **where, "expected": str(expected), "got": str(got)}


def _identities(n: int, max_m: int) -> tuple[int, list[dict]]:
    _weights(n)  # ArithmeticError unless S_n's weights give w_n = 1/(n+1) and S_n(1) = 1
    return 1, []


def _oracle(n: int, max_m: int) -> tuple[int, list[dict]]:
    failures = []
    literal = 0
    for m in range(1, max_m + 1):
        literal += m**n
        got = power_sum_value(n, m)
        if got != literal:
            failures.append(_failure("power-sum-oracle", n, literal, got, m=m))
    return max_m, failures


def _divisibility(n: int, max_m: int) -> tuple[int, list[dict]]:
    failures = []
    closed = power_sum_closed_form(n)
    # g mod m(m+1) is the line through (0, g(0)) and (-1, g(-1))
    at_zero = closed(0)
    remainder = Polynomial((at_zero, at_zero - closed(-1)))
    if remainder:
        failures.append(_failure("divisible-by-m(m+1)", n, 0, remainder.render()))
    if at_zero != 0:
        failures.append(_failure("zero-constant-term", n, 0, at_zero))
    return 2, failures


# verify's suites by name, each checking one n and returning (checks run, failures)
_SUITES = {"identities": _identities, "oracle": _oracle, "divisibility": _divisibility}


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict, object]:
    check_int("--max-n", args.max_n, 1, MAX_VERIFY_N)
    check_int("--max-m", args.max_m, 1, MAX_M)
    if args.suite in ("oracle", "all"):
        check_int("--max-m * --max-n for the oracle suite", args.max_m * args.max_n, hi=MAX_M)
    names = _SUITES if args.suite == "all" else [args.suite]
    results = [{"name": name, "passed": 0, "total": 0, "failures": []} for name in names]
    # one pass over n, so each S_n is built once however many suites run
    for n in range(1, args.max_n + 1):
        for r in results:
            total, failures = _SUITES[r["name"]](n, args.max_m)
            # counts cover every check; the report keeps the smallest counterexamples
            r["passed"] += total - len(failures)
            r["total"] += total
            r["failures"] += failures[: 3 - len(r["failures"])]
    ok = all(r["passed"] == r["total"] for r in results)
    payload = {"mode": "verify", "suites": results, "ok": ok}
    lines = []
    for r in results:
        lines.append(f"{r['name']}: {r['passed']}/{r['total']} passed")
        for f in r["failures"]:
            where = f"n={f['n']}" + (f", m={f['m']}" if "m" in f else "")
            lines.append(
                f"  FAIL {f['check']} at {where}: expected {f['expected']}, got {f['got']}"
            )
    lines.append("all checks passed" if ok else "verification FAILED")
    return 0 if ok else 1, payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysum",
        description="Exact closed-form sums of polynomial values over integer ranges.",
    )
    parser.add_argument("--json", action="store_true", help="emit structured JSON output")
    # subcommands accept --json too; SUPPRESS keeps a pre-subcommand --json
    # from being overwritten by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit structured JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_closed = sub.add_parser(
        "closed-form", parents=[common],
        help="closed form of the power sum 1^n + 2^n + ... + m^n",
    )
    p_closed.add_argument("--n", type=_int, required=True, help="the exponent (n >= 1)")
    p_closed.add_argument(
        "--factored", action="store_true",
        help="factored form pulling out m*(m+1) (requires n >= 3)",
    )
    p_closed.set_defaults(func=_cmd_closed_form)

    p_sum = sub.add_parser(
        "sum", parents=[common],
        help="sum a polynomial expression over an integer range, or symbolically",
    )
    p_sum.add_argument("--expr", required=True, help='polynomial expression, e.g. "x^3 - x"')
    p_sum.add_argument("--lo", type=_int, help="lower bound (inclusive)")
    p_sum.add_argument("--hi", type=_int, help="upper bound (inclusive)")
    p_sum.set_defaults(func=_cmd_sum)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run exactness and divisibility check suites",
    )
    p_verify.add_argument("--suite", required=True, choices=[*_SUITES, "all"])
    p_verify.add_argument("--max-n", type=_int, required=True, help="largest exponent checked")
    p_verify.add_argument("--max-m", type=_int, default=100, help="largest m for the oracle suite")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    i = 0  # "--expr V" as "--expr=V", so a V like "-x^2" is no option; also --e, --ex, --exp
    while i < len(argv) - 1:
        if len(argv[i]) > 2 and "--expr".startswith(argv[i]):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    if args.json:
        import json
    try:
        try:
            code, payload, text = args.func(args)
            try:  # exact values become text here, and only what is printed
                out = json.dumps(payload, default=str) if args.json else str(text)
            except ValueError as e:
                raise ValueError(
                    f"the exact result has a number longer than {sys.get_int_max_str_digits()} "
                    "digits, Python's int-to-string limit; set PYTHONINTMAXSTRDIGITS to allow it"
                ) from e
        except (ValueError, ArithmeticError) as e:  # ArithmeticError: a failed self-check
            print(f"error: {e}", file=sys.stderr)
            error = {"error": str(e)}
            if isinstance(e.__cause__, ParseError):
                error["offset"] = e.__cause__.offset
            code = 2 if isinstance(e, ValueError) else 1
            out = json.dumps(error) if args.json else None
        if out is not None:
            print(out)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away.  Send the interpreter's final flush to devnull
        # so it stays quiet (the SIGPIPE note in the signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
