"""Recursive-descent parser for univariate polynomial expressions.

Grammar (precedence low to high):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('-')* atom
    atom   := literal | variable | '(' expr ')' | atom '^' uint

Literals are integers or rationals written "p/q" (a single token; there is
no division operator).  Exponents are literal nonnegative integers, bind
tighter than unary minus ("-x^2" is -(x^2)) and are right-associative
(x^2^3 = x^8); every exponent literal and every folded value must be at
most MAX_DEGREE.  So must the degree bound of every subexpression, taken
before anything is lowered: 0 for a literal, 1 for the variable, the max of
the operands for '+' and '-', their sum for '*' and e times the base for
'^e'.  Each '(' and each unary '-' opens one level of nesting, and at
most MAX_NESTING levels may be open at once.  A chain of terms parses as
one n-ary Add (a - b - c as Add((a, Neg(b), Neg(c)))) and a chain of
factors as one Mul.  Implicit multiplication is accepted between a literal
and a variable or parenthesis ("3x", "2(x+1)").  Whitespace is insignificant.
Exactly one variable may appear; the first identifier fixes its name.

Syntax errors raise ParseError carrying the byte offset into the UTF-8
encoding of the source.  Parsed trees are shallow (see MAX_NESTING), so
lower and evaluate in tests/reference.py (not shipped) recurse once per level.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

from .poly import Polynomial, Record, add_all

__all__ = [
    "MAX_DEGREE",
    "MAX_NESTING",
    "ParseError",
    "PolyExpr",
    "Lit",
    "Var",
    "Neg",
    "Add",
    "Mul",
    "Pow",
    "parse",
    "lower",
    "parse_polynomial",
]


# Largest exponent and degree bound the parser accepts, and the largest n the
# CLI builds a power-sum closed form for.
MAX_DEGREE = 1000

# Most '(' and unary '-' the parser lets stand open at once.  A '(' costs the
# recursive descent at most five stack frames, and a root-to-leaf path in the
# tree five levels (Pow, Add, the Neg of a '-', Mul, implicit Mul); a unary '-'
# costs one Neg.  With six more at the innermost level, a parsed tree is at
# most 506 levels deep: inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or unsupported-construct error, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST


class Lit(Record):
    __slots__ = ("value",)  # a Fraction


class Var(Record):
    __slots__ = ("name",)


class Neg(Record):
    __slots__ = ("operand",)


class Add(Record):
    __slots__ = ("terms",)  # a tuple of two or more PolyExpr


class Mul(Record):
    __slots__ = ("factors",)  # a tuple of two or more PolyExpr


class Pow(Record):
    __slots__ = ("base", "exponent")  # exponent: an int, literal and >= 0


PolyExpr = Lit | Var | Neg | Add | Mul | Pow


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = {"+", "-", "*", "^", "(", ")"}
# str.isdigit also accepts superscripts and other scripts' digits, which
# int() then rejects or silently reads as ASCII digits.
_DIGITS = frozenset("0123456789")


# kind: "int", "rational", "ident", one of _PUNCT, or "eof";
# offset: the byte offset into the UTF-8 source
_Token = namedtuple("_Token", ("kind", "text", "offset"))


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    byte_pos = 0
    n = len(src)
    while i < n:
        ch = src[i]
        j = i + 1
        kind = ch  # punctuation is its own kind; whitespace makes no token
        if ch in _DIGITS:
            while j < n and src[j] in _DIGITS:
                j += 1
            kind = "int"
            # "p/q" is one rational token; '/' exists only inside literals
            if j + 1 < n and src[j] == "/" and src[j + 1] in _DIGITS:
                j += 2
                while j < n and src[j] in _DIGITS:
                    j += 1
                kind = "rational"
        elif ch.isalpha():
            while j < n and src[j].isalpha():
                j += 1
            kind = "ident"
        elif ch not in _PUNCT and not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", byte_pos)
        text = src[i:j]
        if not ch.isspace():
            tokens.append(_Token(kind, text, byte_pos))
        byte_pos += len(text.encode())  # UTF-8
        i = j
    tokens.append(_Token("eof", "", byte_pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0
        self._var_name: str | None = None
        self._depth = 0  # '(' and unary '-' open at the current token

    @property
    def _token(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        tok = self._token
        self._index += 1
        return tok

    def _error(self, expected: str) -> ParseError:
        tok = self._token
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(f"expected {expected}, found {found}", tok.offset)

    def parse(self) -> PolyExpr:
        result, _ = self._expr()
        if self._token.kind != "eof":
            raise self._error("end of input")
        return result

    # Each production returns its node and the node's degree bound.

    def _expr(self) -> tuple[PolyExpr, int]:
        node, degree = self._term()
        terms = [node]
        while self._token.kind in ("+", "-"):
            op = self._advance().kind
            rhs, rhs_degree = self._term()
            terms.append(rhs if op == "+" else Neg(rhs))
            degree = max(degree, rhs_degree)
        return (Add(tuple(terms)) if len(terms) > 1 else node), degree

    def _term(self) -> tuple[PolyExpr, int]:
        node, degree = self._factor()
        factors = [node]
        while self._token.kind == "*":
            tok = self._advance()
            rhs, rhs_degree = self._factor()
            factors.append(rhs)
            degree = _bounded(degree + rhs_degree, tok)
        return (Mul(tuple(factors)) if len(factors) > 1 else node), degree

    def _factor(self) -> tuple[PolyExpr, int]:
        negations = 0
        while self._token.kind == "-":
            self._nest(self._advance())
            negations += 1
        node, degree = self._atom()
        self._depth -= negations
        for _ in range(negations):
            node = Neg(node)
        return node, degree

    def _atom(self) -> tuple[PolyExpr, int]:
        tok = self._token
        if tok.kind in ("int", "rational"):
            self._advance()
            node: PolyExpr = Lit(self._literal_value(tok))
            # implicit multiplication: literal directly before a variable
            # or parenthesis, as in "3x" or "2(x+1)"; a literal adds no degree
            if self._token.kind in ("ident", "("):
                rhs, degree = self._atom()
                return Mul((node, rhs)), degree
            return self._power_suffix(node, 0)
        if tok.kind == "ident":
            self._advance()
            if self._var_name is None:
                self._var_name = tok.text
            elif tok.text != self._var_name:
                raise ParseError(
                    f"second variable {tok.text!r} after {self._var_name!r}; "
                    "only one variable is allowed",
                    tok.offset,
                )
            return self._power_suffix(Var(tok.text), 1)
        if tok.kind == "(":
            self._nest(self._advance())
            node, degree = self._expr()
            if self._token.kind != ")":
                raise self._error("')'")
            self._advance()
            self._depth -= 1
            return self._power_suffix(node, degree)
        raise self._error("a number, a variable, or '('")

    def _nest(self, tok: _Token) -> None:
        """Open one more level of nesting at tok, a '(' or a unary '-'."""
        if self._depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than the maximum of {MAX_NESTING}", tok.offset)
        self._depth += 1

    def _power_suffix(self, base: PolyExpr, degree: int) -> tuple[PolyExpr, int]:
        if self._token.kind != "^":
            return base, degree
        self._advance()
        tok = self._token
        exponent = self._exponent_chain()
        return Pow(base, exponent), _bounded(degree * exponent, tok)

    def _exponent_chain(self) -> int:
        """One or more '^'-separated integer literals, read in a loop and folded
        right to left (x^2^3 = x^(2^3)).  A literal or fold past MAX_DEGREE is
        an error at its token, so no fold exceeds MAX_DEGREE ** MAX_DEGREE."""
        chain: list[tuple[int, _Token]] = []
        while True:
            tok = self._token
            if tok.kind == "-":
                raise ParseError("negative exponents are not supported", tok.offset)
            if tok.kind == "rational":
                raise ParseError(
                    f"exponent must be a literal nonnegative integer, got rational {tok.text!r}",
                    tok.offset,
                )
            if tok.kind != "int":
                raise self._error("a literal nonnegative integer exponent")
            self._advance()
            value = _int(tok.text, tok.offset)
            if value > MAX_DEGREE:
                raise ParseError(f"exponent exceeds the maximum degree {MAX_DEGREE}", tok.offset)
            chain.append((value, tok))
            if self._token.kind != "^":
                break
            self._advance()
        value = chain.pop()[0]
        for base, tok in reversed(chain):
            value = base**value
            if value > MAX_DEGREE:
                raise ParseError(f"exponent exceeds the maximum degree {MAX_DEGREE}", tok.offset)
        return value

    @staticmethod
    def _literal_value(tok: _Token) -> Fraction:
        if tok.kind == "int":
            return Fraction(_int(tok.text, tok.offset))
        num, den = (_int(part, tok.offset) for part in tok.text.split("/"))
        if den == 0:
            raise ParseError(f"zero denominator in rational literal {tok.text!r}", tok.offset)
        return Fraction(num, den)


def _bounded(degree: int, tok: _Token) -> int:
    """degree, or a ParseError at tok if it exceeds MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ParseError(
            f"degree bound {degree} exceeds the maximum degree {MAX_DEGREE}", tok.offset
        )
    return degree


def _int(digits: str, offset: int) -> int:
    """int() of a digit token; past Python's int-string limit, a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds Python's limit of "
            f"{sys.get_int_max_str_digits()} digits",
            offset,
        ) from None


def parse(src: str) -> PolyExpr:
    """Parse source text into an expression tree."""
    return _Parser(_tokenize(src)).parse()


_X = Polynomial.from_numerators((0, 1))


def lower(e: PolyExpr) -> Polynomial:
    """Evaluate an expression tree into a Polynomial, one call per tree level."""
    if isinstance(e, Lit):
        return Polynomial.from_numerators((e.value.numerator,), e.value.denominator)
    if isinstance(e, Var):
        return _X
    if isinstance(e, Neg):
        return -lower(e.operand)
    if isinstance(e, Pow):
        return lower(e.base) ** e.exponent
    if isinstance(e, Add):
        return add_all([lower(term) for term in e.terms])
    if isinstance(e, Mul):
        product = lower(e.factors[0])
        for factor in e.factors[1:]:
            product = product * lower(factor)
        return product
    raise TypeError(f"not a PolyExpr node: {e!r}")


def parse_polynomial(src: str) -> Polynomial:
    """Parse and lower in one step."""
    return lower(parse(src))
