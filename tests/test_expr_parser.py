from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial, random_rational
from polysum import expr_parser, poly
from polysum.expr_parser import (
    MAX_DEGREE,
    MAX_NESTING,
    Add,
    Lit,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    lower,
    parse,
    parse_polynomial,
)
from polysum.poly import Polynomial
from reference import evaluate

X = Polynomial((0, 1))


def test_parse_simple_power():
    assert parse("x^2") == Pow(Var("x"), 2)


def test_parse_respects_precedence():
    tree = parse("2+3*x")
    assert tree == Add((Lit(Fraction(2)), Mul((Lit(Fraction(3)), Var("x")))))
    assert parse_polynomial("2+3*x") == Polynomial((2, 3))


def test_parse_full_polynomial():
    assert parse_polynomial("3*x^4 - 2*x + 7") == Polynomial((7, -2, 0, 0, 3))


def test_parse_product_difference():
    assert parse_polynomial("(x+1)*(x+2) - x^2") == Polynomial((2, 3))


def test_lower_rational_coefficients():
    assert parse_polynomial("1/2*x + 1/3").coeffs == (Fraction(1, 3), Fraction(1, 2))


def test_lower_negated_square():
    assert parse_polynomial("-(x-1)^2") == Polynomial((-1, 2, -1))


def test_lower_trims_zero_terms():
    p = parse_polynomial("0*x^5 + x")
    assert p == X
    assert p.degree == 1


def test_implicit_multiplication():
    assert parse_polynomial("3x") == Polynomial((0, 3))
    assert parse_polynomial("3x^2") == Polynomial((0, 0, 3))  # means 3*(x^2)
    assert parse_polynomial("2(x+1)") == Polynomial((2, 2))
    assert parse_polynomial("1/2x") == Polynomial((0, Fraction(1, 2)))
    assert parse_polynomial("3 x") == Polynomial((0, 3))  # whitespace insignificant


def test_unary_minus_binds_looser_than_power():
    assert parse_polynomial("-x^2") == Polynomial((0, 0, -1))
    assert parse_polynomial("(-x)^2") == Polynomial((0, 0, 1))
    assert parse_polynomial("--x") == X


def test_power_is_right_associative():
    assert parse_polynomial("x^2^3") == Polynomial.monomial(1, 8)
    assert parse("x^2^3") == Pow(Var("x"), 8)


def test_power_of_parenthesized_expression():
    assert parse_polynomial("(x+1)^3") == Polynomial((1, 3, 3, 1))


def test_literal_power():
    assert parse_polynomial("2^3") == Polynomial((8,))


def test_subtraction_chains_left():
    assert parse("x - 1 - 2") == Add((Var("x"), Neg(Lit(Fraction(1))), Neg(Lit(Fraction(2)))))
    assert parse_polynomial("x - 1 - 2") == Polynomial((-3, 1))


def test_any_identifier_can_be_the_variable():
    assert parse_polynomial("m^2 + m") == Polynomial((0, 1, 1))
    assert parse_polynomial("foo + 1") == Polynomial((1, 1))


def test_second_variable_rejected_naming_both():
    with pytest.raises(ParseError) as excinfo:
        parse("x + y")
    assert "'y'" in str(excinfo.value)
    assert "'x'" in str(excinfo.value)


def test_syntax_error_reports_byte_offset():
    with pytest.raises(ParseError) as excinfo:
        parse("x +* 2")
    assert excinfo.value.offset == 3
    assert "expected" in str(excinfo.value)
    assert "byte 3" in str(excinfo.value)


def test_byte_offset_counts_utf8_bytes():
    # the variable is two UTF-8 bytes, so the bad token sits at byte 5
    with pytest.raises(ParseError) as excinfo:
        parse("α + β")
    assert excinfo.value.offset == 5


def test_unexpected_character():
    with pytest.raises(ParseError) as excinfo:
        parse("x % 2")
    assert excinfo.value.offset == 2


@pytest.mark.parametrize(
    ("src", "offset"),
    [
        ("2²", 1),
        ("x^²", 2),
        ("x^٣", 2),
        ("٣x", 0),
        ("1/٣", 1),
        ("x²", 1),  # a superscript digit ends a letter run
        # '/' belongs to a literal only directly between two ASCII digits
        ("1/x", 1),
        ("1 /2", 2),
        # whitespace counts its UTF-8 bytes: 2 for U+00A0, 3 for U+3000
        ("x\u00a0%", 3),
        ("\u30001/", 4),
    ],
)
def test_only_ascii_digits_are_digits(src, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset


# one digit more than Python's int-string limit (4300 by default); 0 means no limit
TOO_MANY_DIGITS = "1" * (sys.get_int_max_str_digits() + 1)
NBSP, IDEOGRAPHIC_SPACE = "\u00a0", "\u3000"  # whitespace of 2 and 3 UTF-8 bytes


# One case per place that raises a ParseError, each behind a multibyte prefix
# ("é" is a two-byte variable name), so that an offset counted in characters,
# or taken from the wrong token, shows.
@pytest.mark.parametrize(
    ("src", "offset", "message"),
    [
        pytest.param(IDEOGRAPHIC_SPACE + "x % 2", 5, "unexpected character '%'", id="character"),
        # argv decoding turns the byte 0xff into a lone surrogate, which has no
        # UTF-8 encoding: no offset may be counted past it
        pytest.param("é + \udcff", 5, "unexpected character '\\udcff'", id="undecodable"),
        pytest.param(NBSP + "(x+1 2", 7, "expected ')', found '2'", id="missing-paren"),
        pytest.param("é +", 4, "found end of input", id="end-of-input"),
        pytest.param(IDEOGRAPHIC_SPACE + "x)", 4, "expected end of input, found ')'", id="leftover"),
        pytest.param(NBSP + "x + é", 6, "second variable 'é' after 'x'", id="second-variable"),
        pytest.param("é*" + "(" * 101 + "é" + ")" * 101, 103, "maximum of 100", id="nesting"),
        pytest.param(IDEOGRAPHIC_SPACE + "x^-2", 5, "negative exponent", id="negative-exponent"),
        pytest.param("é ^ 1/2", 5, "got rational '1/2'", id="rational-exponent"),
        pytest.param(IDEOGRAPHIC_SPACE + "x^1001", 5, "exponent exceeds", id="exponent-literal"),
        pytest.param("é ^ 9 ^ 9 ^ 9", 9, "exponent exceeds", id="exponent-fold"),
        pytest.param(IDEOGRAPHIC_SPACE + "x^600 * x^600", 9, "degree bound 1200", id="degree-at-mul"),
        pytest.param(NBSP + "(x^100)^100", 10, "degree bound 10000", id="degree-at-pow"),
        pytest.param("é + 3/0", 5, "zero denominator in rational literal '3/0'", id="zero-den"),
    ],
)
def test_every_raise_site_reports_the_byte_offset(src, offset, message):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset
    assert message in str(excinfo.value)
    assert str(excinfo.value).endswith(f"(byte {offset})")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int-string limit disabled")
@pytest.mark.parametrize(
    ("src", "offset"),
    [
        (TOO_MANY_DIGITS + "x", 0),
        ("x^" + TOO_MANY_DIGITS, 2),
        ("x + 1/" + TOO_MANY_DIGITS, 4),
        # behind multibyte prefixes: an int, a numerator and a denominator
        (IDEOGRAPHIC_SPACE + TOO_MANY_DIGITS + "x", 3),
        ("é + " + TOO_MANY_DIGITS + "/2", 5),
        (NBSP + "é + 1/" + TOO_MANY_DIGITS, 7),
    ],
)
def test_overlong_integer_literal_is_parse_error(src, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset
    assert str(sys.get_int_max_str_digits()) in str(excinfo.value)


@pytest.mark.parametrize(
    ("src", "offset"),
    [
        ("x^1001", 2),
        ("x^2^2^2^2", 2),  # 2^16 = 65536 is the first fold past the bound
        ("x^9^9^9", 4),  # 9^9 stops the chain before 9^(9^9)
        ("(x+1)^2^2000", 8),  # a literal past the bound is not folded
        ("1^1000^1000", 2),
    ],
)
def test_exponent_chain_is_bounded(src, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset
    assert f"maximum degree {MAX_DEGREE}" in str(excinfo.value)


def test_exponent_at_the_bound_is_accepted():
    assert MAX_DEGREE == 1000
    assert parse("x^1000") == Pow(Var("x"), 1000)
    assert parse("x^10^3") == Pow(Var("x"), 1000)
    assert parse("x^1000^1") == Pow(Var("x"), 1000)
    assert parse("x^1^1000") == Pow(Var("x"), 1)


@pytest.mark.parametrize(
    ("src", "offset"),
    [
        ("(" * 101 + "x" + ")" * 101, 100),
        ("(" * 300 + "x" + ")" * 300, 100),
        ("-" * 101 + "x", 100),
        ("-" * 5000 + "x", 100),
        ("-(" * 50 + "-x" + ")" * 50, 100),  # '(' and unary '-' count alike
        ("x + " + "(" * 100 + "(x" + ")" * 101, 104),
    ],
)
def test_nesting_is_bounded(src, offset):
    assert MAX_NESTING == 100
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset
    assert f"maximum of {MAX_NESTING}" in str(excinfo.value)


def tree_depth(tree) -> int:
    """Levels on the longest root-to-leaf path, counted level by level."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        below = []
        for node in level:
            if isinstance(node, Neg):
                below.append(node.operand)
            elif isinstance(node, Pow):
                below.append(node.base)
            elif isinstance(node, Add):
                below += node.terms
            elif isinstance(node, Mul):
                below += node.factors
        level = below
    return depth


def assert_lower_agrees_with_evaluate(tree, expected):
    lowered = lower(tree)
    assert lowered == expected
    for t in (Fraction(-7, 3), 2):
        assert evaluate(tree, t) == lowered(t)


def test_nesting_at_the_bound_is_accepted():
    for src, expected in [
        ("(" * 100 + "x" + ")" * 100, X),
        ("-" * 100 + "x", X),
        ("2(" * 100 + "x" + ")" * 100, X.scale(2**100)),
        # levels close again: a hundred at a time, many times over
        (" + ".join(["(" * 100 + "x" + ")" * 100] * 50), X.scale(50)),
    ]:
        assert_lower_agrees_with_evaluate(parse(src), expected)
    # each '(' adds Pow, Add, Mul and an implicit Mul: 4 * MAX_NESTING + 1 levels
    tree = parse("(1+x*2" * 100 + "x" + ")^1" * 100)
    assert tree_depth(tree) == 4 * MAX_NESTING + 1
    assert_lower_agrees_with_evaluate(tree, parse_polynomial("(1+x*2" * 100 + "x" + ")" * 100))
    # the deepest shape: a subtraction adds a Neg per '(', and the innermost
    # level ends in Add, Neg, Mul, implicit Mul, Pow and the variable
    src = "1-x*2(" * 100 + "1-x*2x^2" + ")^1" * 100
    tree = parse(src)
    assert tree_depth(tree) == 5 * MAX_NESTING + 6
    assert_lower_agrees_with_evaluate(tree, parse_polynomial(src.replace("^1", "")))


def test_long_chains_lower_without_recursion():
    assert parse("x^2" + "^1" * 5000) == Pow(Var("x"), 2)
    for src, expected in [
        ("+".join(["x"] * 20000), X.scale(20000)),
        ("-".join(["x"] * 20001), X.scale(-19999)),
        ("*".join(["1"] * 20000) + "*x", X),
        ("x" + "^1" * 5000, X),
    ]:
        tree = parse(src)
        assert tree_depth(tree) <= 3  # Add or Mul, Neg, leaf
        assert_lower_agrees_with_evaluate(tree, expected)


@pytest.mark.parametrize(
    ("src", "offset"),
    [
        ("(x^100)^100", 8),  # the exponent token that crosses the bound
        ("(x^999)^999", 8),  # would lower to degree 998,001
        ("x^600*x^600", 5),  # the '*' token
        ("3x^600*x^600", 6),
        ("((x^10)^10)^11", 12),
    ],
)
def test_degree_bound_is_checked_before_lowering(src, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert excinfo.value.offset == offset
    assert f"maximum degree {MAX_DEGREE}" in str(excinfo.value)


@pytest.mark.parametrize("src", ["(x+1)^1000", "x^500*x^500", "2^1000*x", "-(x^10)^100"])
def test_degree_at_the_bound_is_accepted(src):
    assert lower(parse(src)).degree <= MAX_DEGREE


def test_unexpected_end_of_input():
    with pytest.raises(ParseError) as excinfo:
        parse("x +")
    assert "end of input" in str(excinfo.value)


def test_leftover_tokens_rejected():
    with pytest.raises(ParseError):
        parse("x 2")
    with pytest.raises(ParseError):
        parse("x)")


def test_negative_exponent_unsupported():
    with pytest.raises(ParseError) as excinfo:
        parse("x^-2")
    assert "negative exponent" in str(excinfo.value)


def test_non_literal_exponent_unsupported():
    with pytest.raises(ParseError):
        parse("x^(2)")
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError) as excinfo:
        parse("x^1/2")
    assert "rational" in str(excinfo.value)


def test_zero_denominator_literal_rejected():
    with pytest.raises(ParseError):
        parse("1/0")


def test_division_is_not_an_operator():
    with pytest.raises(ParseError):
        parse("x/2")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


def test_lower_takes_only_expression_nodes():
    with pytest.raises(TypeError, match="not a PolyExpr node: 42"):
        lower(42)


def test_render_reparse_roundtrip():
    rng = random.Random(20240830)
    for _ in range(150):
        p = random_polynomial(rng, max_degree=9, max_num=30, max_den=30)
        assert parse_polynomial(p.render()) == p
        assert parse_polynomial(p.render("x")) == p


def test_lowering_agrees_with_direct_interpretation():
    rng = random.Random(20240831)
    sources = [
        "3*x^4 - 2*x + 7",
        "(x+1)*(x+2) - x^2",
        "-(x-1)^2",
        "1/2*x + 1/3",
        "x^2^3 - 4x",
        "2(x+1)^2 - 3x",
    ]
    for _ in range(30):
        sources.append(random_polynomial(rng, max_degree=7).render("x"))
    for src in sources:
        tree = parse(src)
        lowered = lower(tree)
        for _ in range(5):
            t = random_rational(rng, 12, 12)
            assert lowered(t) == evaluate(tree, t)


# Terms of a sum as (text, degree bound).  The monomial shapes, which lower
# reads as triples, are a literal, x, x^0, x^1, x^k, c*x^k and the implicit
# c x^k; the others lower by their kind.  A parenthesised sub-sum added to
# the sum joins its terms; one subtracted lowers through its Neg.
literals = st.one_of(
    st.integers(0, 9).map(Fraction),
    st.builds(Fraction, st.integers(0, 10**25), st.integers(1, 10**25)),
)
powers = st.integers(0, 6)
monomial_terms = st.one_of(
    literals.map(lambda c: (str(c), 0)),
    st.sampled_from([("x", 1), ("x^0", 0), ("x^1", 1)]),
    powers.map(lambda k: (f"x^{k}", k)),
    st.tuples(literals, powers).map(lambda t: (f"{t[0]}*x^{t[1]}", t[1])),
    st.tuples(literals, powers).map(lambda t: (f"{t[0]}x^{t[1]}", t[1])),
)
other_terms = st.sampled_from(
    [("(x+1)^3", 3), ("2*x*x", 2), ("(x-1/2)*(x+3)", 2), ("--x", 1), ("(x^2)^2", 4), ("x*3", 1),
     ("-(x+1)^2", 2)]
)
sub_sums = st.tuples(
    st.lists(st.one_of(monomial_terms, other_terms), min_size=2, max_size=3),
    st.sampled_from([" + ", " - "]),
).map(lambda t: (f"({t[1].join(text for text, _ in t[0])})", max(d for _, d in t[0])))


@st.composite
def sums(draw):
    """A sum of two or more terms or sub-sums, each after the first added or
    subtracted, perhaps a leading '-', and perhaps some terms again with the
    other sign."""
    terms = draw(st.lists(st.one_of(monomial_terms, other_terms, sub_sums), min_size=2, max_size=8))
    signs = [draw(st.sampled_from(["-", ""]))] + draw(
        st.lists(st.sampled_from(["+", "-"]), min_size=len(terms) - 1, max_size=len(terms) - 1)
    )
    for i in draw(st.lists(st.integers(0, len(terms) - 1), max_size=3)):
        terms.append(terms[i])
        signs.append("+" if signs[i] == "-" else "-")
    src = "".join(f" {sign} {text}" for sign, (text, _) in zip(signs, terms))
    return src.replace(" ", "", 2), max(degree for _, degree in terms)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sums())
def test_sums_of_monomials_lower_exactly(case):
    src, degree = case
    tree = parse(src)
    assert isinstance(tree, Add)
    lowered = lower(tree)
    assert Polynomial.from_numerators(lowered.numerators, lowered.denominator) == lowered
    for t in range(-1, degree + 1):  # degree + 2 points fix a polynomial of that degree
        assert lowered(t) == evaluate(tree, t)


# monomials written alone, outside any sum, with their rows
LONE_MONOMIALS = [
    ("x^1000", (0,) * 1000 + (1,), 1),
    ("-3/4*x^2", (0, 0, -3), 4),  # Mul((Neg(Lit), Pow))
    ("2x^5", (0, 0, 0, 0, 0, 2), 1),  # implicit Mul
    ("-x", (0, -1), 1),
    ("7/3", (7,), 3),
]


@pytest.mark.parametrize(
    ("src", "numerators", "denominator"),
    [
        ("x^3 - x^3", (), 1),
        ("x^5 + 2x - x^5", (0, 2), 1),  # the top power cancels
        ("-3/4*x^2 + x - 1", (-4, 4, -3), 4),  # Mul((Neg(Lit), Pow)) leads
        (f"-x^2 - 3x + x^0 - x^1 + 1/{10**25}", (10**25 + 1, -4 * 10**25, -(10**25)), 10**25),
        *LONE_MONOMIALS,
    ],
)
def test_sum_of_monomials_is_canonical(src, numerators, denominator):
    lowered = lower(parse(src))
    assert (lowered.numerators, lowered.denominator) == (numerators, denominator)


@pytest.fixture
def no_power_or_product(monkeypatch):
    """Make Polynomial.__pow__ and poly._product raise."""

    def refuse(*args):
        raise AssertionError("a monomial lowered through a power or a product")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    monkeypatch.setattr(poly, "_product", refuse)


def test_sum_of_monomials_takes_no_power_or_product(no_power_or_product):
    rng = random.Random(26)
    coeffs = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(1001)]
    coeffs[-1] = -abs(coeffs[-1])  # the leading term is "-c*x^1000"
    signs = ["-" if c < 0 else "+" for c in coeffs]
    bodies = [f"{abs(c)}*x^{k}" if k else str(abs(c)) for k, c in enumerate(coeffs)]
    text = "".join(f" {sign} {body}" for sign, body in zip(signs[::-1], bodies[::-1]))
    tree = parse(text.replace(" ", "", 2))
    assert lower(tree) == Polynomial(coeffs)


@pytest.mark.parametrize(("src", "numerators", "denominator"), LONE_MONOMIALS)
def test_monomial_alone_takes_no_power_or_product(
    no_power_or_product, src, numerators, denominator
):
    lowered = lower(parse(src))
    assert (lowered.numerators, lowered.denominator) == (numerators, denominator)


def test_each_term_is_read_once_and_a_sum_canonicalised_once(monkeypatch, canonical_rows):
    trees = [parse("x^3 + (x+1)^2 - (x-1)^5"), parse("((x+1)+(x+2))+((x+3)+(x+4))")]
    expected = [lower(tree) for tree in trees]
    seen, monomial = [], expr_parser._monomial

    def counted_monomial(e):
        seen.append(id(e))
        return monomial(e)

    monkeypatch.setattr(expr_parser, "_monomial", counted_monomial)
    for tree, want in zip(trees, expected):
        seen.clear()
        canonical_rows.clear()
        assert lower(tree) == want
        assert len(seen) == len(set(seen)), "a node was passed to _monomial twice"
    assert len(canonical_rows) == 1  # the nested sum: one row, reduced once


@pytest.mark.parametrize(
    ("src", "passes"),
    [
        ("x - (x+1)^2", 3),  # x+1, its square, and the sum with the square negated
        ("x^3 - (x-1)^5 - (2x+1)^4", 5),
        ("x - (x+1)*(x-1)", 4),  # the two factors, their product, the sum
        ("-(x+1)^2", 3),  # a lone negated part is its own one-part sum
        ("(x+1)^2", 2),  # a lone part is returned as it is
    ],
)
def test_a_signed_sum_is_one_pass(canonical_rows, src, passes):
    """A negated term joins its sum as the part (-1, row): no row of its own."""
    tree = parse(src)
    lowered = lower(tree)
    assert len(canonical_rows) == passes
    # degree 5 at most, so seven points fix the polynomial
    assert all(lowered(t) == evaluate(tree, t) for t in range(-3, 4))
