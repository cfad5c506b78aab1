"""Write the equivalence corpus, tests/corpus/cli.jsonl and rows.jsonl, from
the code as it stands; tests/test_corpus.py replays both files.

    PYTHONPATH=src python tests/make_corpus.py

cli.jsonl maps argument lists to cli.main's exit code, stdout and stderr, run
in process.  They are the README's commands, closed forms at n = 1..40 in
each format, sum on the SUMMANDS below (symbolic and ranged, as text and
JSON) and on the WIDE_SUMMANDS over ranges with a 60-digit bound, each
verify suite at small bounds, and every argument list written out in
tests/test_cli.py, its error commands among them.  rows.jsonl maps
texts to their lowered (numerators, denominator), or to the ParseError
message and offset: the SUMMANDS, every string constant in tests/ but the
docstrings, and the benchmark's three summand shapes at a few degrees.

An output whose JSON text is over 4 kB is stored as its SHA-256 and length.
argparse's own errors keep only the exit code and stdout, since argparse's
wording differs across Python versions; --help is left out for that reason.
A change that means to alter an output regenerates the corpus, and the diff
shows each changed case.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import random
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

from polysum.cli import main
from polysum.expr_parser import ParseError, parse_polynomial

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "corpus"
STORED_LIMIT = 4096

SUMMANDS = [
    # binomials
    "(x+1)^5", "(2x-3)^7", "(x+1/2)^9", "(x-1)^20", "(3x+2)^40",
    # products
    "(x+1)*(x+2)*(x+3)", "(2x-3)^3*(x+1/2)^4", "x^2*(x+1)", "2(x+1/2)", "(x^2+x+1)^3*(x-1)",
    # dense sums
    "3*x^4 - 2*x + 7", "1/2*x^5 - 2/3*x^3 + 5/7*x - 11/13", "-x^6 + 9/4*x^2 - 1",
    # lone monomials
    "x", "-x", "7/3", "x^12", "-3/4*x^2", "2x^5", "-5",
    # cancelling terms
    "x^3 - x^3", "x^5 + 2x - x^5", "1/2*x + 1/2*x", "(x+1)^2 - (x^2+2x+1)", "x - x + 0",
    # sums mixing monomials with other terms, and nested sums
    "x^3 + (x+1)^2 - (x-1)^5", "((x+1)+(x+2))+((x+3)+(x+4))", "-(x+1)^2 + 3x",
    "x - (x - (x - 1))", "(1/2*x + 1/3) + (1/6 - x^2)", "--x + -(-x^2)",
]

# Summed over wide ranges: at a 60-digit bound a closed form of 41 or more
# terms evaluates in two chunks, by dot products for x^40 + 1's narrow
# numerators and by Horner passes for the wider ones of (x+1)^50 and
# x^60 - x^3, and the sparse summands leave runs of zero numerators in it.
# Each value stays under Python's 4,300-digit limit.
WIDE_SUMMANDS = ["x^40 + 1", "x^7 - x", "x^12", "(x+1)^20", "(x+1)^50", "x^60 - x^3"]
WIDE_BOUND = str(10**59 + 123456789)


def stored(value):
    """value, or its SHA-256 and length when its JSON text is over STORED_LIMIT."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a row's numerators may pass Python's limit
    try:
        text = json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)
    if len(text) <= STORED_LIMIT:
        return value
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text)}


def cli_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    case = {"argv": argv, "exit": code, "stdout": stored(out.getvalue())}
    if not err.getvalue().startswith("usage:"):  # argparse's own errors start so
        case["stderr"] = stored(err.getvalue())
    return case


def row_case(text: str) -> dict:
    try:
        p = parse_polynomial(text)
    except ParseError as e:
        return {"text": text, "error": str(e), "offset": e.offset}
    return {"text": text, "row": stored([list(p.numerators), p.denominator])}


def readme_commands() -> list[list[str]]:
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in re.findall(r"^\$ (polysum .*)$", readme, re.M)]


def cli_test_argvs() -> list[list[str]]:
    """Each argument list written out in tests/test_cli.py as string literals:
    a run_cli call's arguments, or a list or tuple that starts with a command
    or --json, a leading list of strings joined to the strings after it.  A
    row of a parametrize table with a message column is not joined: its
    strings after the list are what the command prints, and the list is
    walked on its own.  verify past n = 20 is left out: it builds hundreds of
    closed forms."""
    tree = ast.parse((TESTS / "test_cli.py").read_text(encoding="utf-8"))
    messages = set()  # the rows of tables with a message column
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "parametrize":
            if "message" in ast.literal_eval(node.args[0]):
                messages.update(id(row) for row in node.args[1].elts)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            elts = node.args[1:]
        elif isinstance(node, (ast.List, ast.Tuple)) and id(node) not in messages:
            elts = node.elts
            if elts and isinstance(elts[0], ast.List):
                elts = [*elts[0].elts, *elts[1:]]
        else:
            continue
        if elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
            argv = [e.value for e in elts]
            if isinstance(node, ast.Call) or argv[0] in ("closed-form", "sum", "verify", "--json"):
                found.append(argv)
    slow = [str(n) for n in range(21, 301)]
    return [argv for argv in found if dict(zip(argv, argv[1:])).get("--max-n") not in slow]


def commands() -> list[list[str]]:
    argvs = readme_commands() + cli_test_argvs()
    for n in range(1, 41):
        n = str(n)
        argvs += [["closed-form", "--n", n], ["--json", "closed-form", "--n", n],
                  ["closed-form", "--n", n, "--factored"]]
    for expr in SUMMANDS:
        for extra in ([], ["--lo", "-7", "--hi", "5"]):
            argvs += [["sum", "--expr", expr, *extra], ["--json", "sum", "--expr", expr, *extra]]
    for expr in WIDE_SUMMANDS:
        for bounds in (["--lo", "-3", "--hi", WIDE_BOUND], ["--lo", f"-{WIDE_BOUND}", "--hi", "5"]):
            argvs += [["sum", "--expr", expr, *bounds], ["--json", "sum", "--expr", expr, *bounds]]
    for suite in ("identities", "oracle", "divisibility", "all"):
        for fmt in ([], ["--json"]):
            argvs.append([*fmt, "verify", "--suite", suite, "--max-n", "8", "--max-m", "12"])
    unique = []
    for argv in argvs:
        if argv not in unique and "--help" not in argv and "-h" not in argv:
            unique.append(argv)
    return unique


def summand_shapes() -> list[str]:
    """The benchmark's summand shapes: dense sums of c/d*x^k, binomial powers
    and products of two linear powers."""
    rng = random.Random(12)
    texts = []
    for d in (10, 60, 200):
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(d + 1)]
        signs = ["-" if c < 0 else "+" for c in coeffs]
        bodies = [f"{abs(c)}*x^{k}" if k else str(abs(c)) for k, c in enumerate(coeffs)]
        text = "".join(f" {sign} {body}" for sign, body in zip(signs[::-1], bodies[::-1]))
        texts.append(text.replace(" ", "", 2).removeprefix("+"))
        a = rng.randint(1, d - 1)
        texts += [f"(x+{rng.randint(1, 4)})^{d}", f"(2x-3)^{a}*(x+1/2)^{d - a}"]
    return texts


def texts() -> list[str]:
    """The SUMMANDS, the summand shapes and every string constant in tests/
    other than a docstring, so rewording one changes no row."""
    constants = set(SUMMANDS + summand_shapes())
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(TESTS.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        docstrings = {id(node.body[0].value) for node in nodes
                      if isinstance(node, scopes) and ast.get_docstring(node) is not None}
        for node in nodes:
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    constants.add(node.value)
    return sorted(constants)


def write(path: Path, cases) -> None:
    path.write_text("".join(json.dumps(case) + "\n" for case in cases), encoding="ascii")


if __name__ == "__main__":
    CORPUS.mkdir(exist_ok=True)
    write(CORPUS / "cli.jsonl", map(cli_case, commands()))
    write(CORPUS / "rows.jsonl", map(row_case, texts()))
