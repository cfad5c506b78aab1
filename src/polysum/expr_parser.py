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

Syntax errors raise ParseError with the byte offset into the UTF-8 encoding
of the source, counted only when raised.  Trees are shallow (see MAX_NESTING),
so lower and evaluate in tests/reference.py (not shipped) recurse once a level.
lower reads every node as a sum of terms, an Add's or the node alone, and
each monomial term (c, x, x^k, c*x^k and their negations) as an int triple,
with no power or product taken; poly.add_all puts the triples and the other
terms' polynomials, a negated one as the part (-1, p), in one row, so a
dense sum of c/d*x^k terms of degree n lowers in O(n) ints.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import prod

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


# Largest exponent and degree bound the parser accepts, and the largest n that
# powersum builds S_n for; each is checked by the library call that does the work.
MAX_DEGREE = 1000

# Most '(' and unary '-' the parser lets stand open at once.  In the recursive
# descent a '(' costs at most four stack frames (_expr, _term, and a _factor for
# the '(' and for a literal before it, as in "2("), and a unary '-' one _factor.
# In the tree a '(' costs five levels (Pow, Add, the Neg of a '-', Mul, implicit
# Mul) and a unary '-' one Neg; with six more at the innermost level, a tree is
# at most 506 levels deep: inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or unsupported-construct error, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST
#
# The parser builds every node of a tree, a few hundred for a dense summand of
# degree 60, so none defines __init__: the one Record makes from its __slots__
# sets each field with one object.__setattr__ and packs no arguments.


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


def _tokenize(src: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of src as three parallel lists: kinds ("int", "rational",
    "ident" or one of _PUNCT), texts and character start indices, closed by
    an "eof" token at len(src).  Whitespace makes no token."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        j = i + 1
        if ch in _PUNCT:  # its own kind
            kind = ch
        elif ch in _DIGITS:
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
        elif ch.isspace():
            i = j
            continue
        else:  # src[:i] is readable: its characters all made tokens or whitespace
            raise ParseError(f"unexpected character {ch!r}", len(src[:i].encode()))
        kinds.append(kind)
        texts.append(src[i:j])
        starts.append(i)
        i = j
    kinds.append("eof")
    texts.append("")
    starts.append(n)
    return kinds, texts, starts


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, src: str):
        self._src = src
        self._kinds, self._texts, self._starts = _tokenize(src)
        self._tokens = enumerate(self._kinds)  # next() gives the next index and kind
        self._index, self._kind = next(self._tokens)  # the current token
        self._var_name: str | None = None
        self._depth = 0  # '(' and unary '-' open at the current token

    def _error(self, message: str, at: int) -> ParseError:
        """A ParseError at token index at, its byte offset counted only now."""
        return ParseError(message, len(self._src[: self._starts[at]].encode()))

    def _expected(self, expected: str) -> ParseError:
        found = "end of input" if self._kind == "eof" else repr(self._texts[self._index])
        return self._error(f"expected {expected}, found {found}", self._index)

    # Each production returns its node and the node's degree bound.

    def _expr(self) -> tuple[PolyExpr, int]:
        node, degree = self._term()
        terms = [node]
        while self._kind in ("+", "-"):
            op = self._kind
            self._index, self._kind = next(self._tokens)
            rhs, rhs_degree = self._term()
            terms.append(rhs if op == "+" else Neg(rhs))
            degree = max(degree, rhs_degree)
        return (Add(tuple(terms)) if len(terms) > 1 else node), degree

    def _term(self) -> tuple[PolyExpr, int]:
        node, degree = self._factor()
        factors = [node]
        while self._kind == "*":
            at = self._index
            self._index, self._kind = next(self._tokens)
            rhs, rhs_degree = self._factor()
            factors.append(rhs)
            degree = self._bounded(degree + rhs_degree, at)
        return (Mul(tuple(factors)) if len(factors) > 1 else node), degree

    def _factor(self) -> tuple[PolyExpr, int]:
        kind = self._kind
        at = self._index
        if kind == "-":  # binds looser than '^': -x^2 is -(x^2)
            self._nest()
            node, degree = self._factor()
            self._depth -= 1
            return Neg(node), degree
        if kind == "int" or kind == "rational":
            self._index, self._kind = next(self._tokens)
            node: PolyExpr = Lit(self._literal_value(at))
            # implicit multiplication: literal directly before a variable
            # or parenthesis, as in "3x" or "2(x+1)"; a literal adds no degree
            if self._kind in ("ident", "("):
                rhs, degree = self._factor()
                return Mul((node, rhs)), degree
            degree = 0
        elif kind == "ident":
            self._index, self._kind = next(self._tokens)
            name = self._texts[at]
            if self._var_name is None:
                self._var_name = name
            elif name != self._var_name:
                raise self._error(
                    f"second variable {name!r} after {self._var_name!r}; "
                    "only one variable is allowed",
                    at,
                )
            node, degree = Var(name), 1
        elif kind == "(":
            self._nest()
            node, degree = self._expr()
            if self._kind != ")":
                raise self._expected("')'")
            self._index, self._kind = next(self._tokens)
            self._depth -= 1
        else:
            raise self._expected("a number, a variable, or '('")
        if self._kind != "^":
            return node, degree
        self._index, self._kind = next(self._tokens)
        at = self._index
        exponent = self._exponent_chain()
        return Pow(node, exponent), self._bounded(degree * exponent, at)

    def _nest(self) -> None:
        """Open one more level of nesting at a '(' or unary '-', and step past it."""
        if self._depth == MAX_NESTING:
            raise self._error(f"nesting deeper than the maximum of {MAX_NESTING}", self._index)
        self._depth += 1
        self._index, self._kind = next(self._tokens)

    def _exponent_chain(self) -> int:
        """One or more '^'-separated integer literals, read in a loop and folded
        right to left (x^2^3 = x^(2^3)).  A literal or fold past MAX_DEGREE is
        an error at its token, so no fold exceeds MAX_DEGREE ** MAX_DEGREE."""
        chain: list[tuple[int, int]] = []  # each literal's value and token index
        while True:
            at = self._index
            text = self._texts[at]
            if self._kind == "-":
                raise self._error("negative exponents are not supported", at)
            if self._kind == "rational":
                raise self._error(
                    f"exponent must be a literal nonnegative integer, got rational {text!r}", at
                )
            if self._kind != "int":
                raise self._expected("a literal nonnegative integer exponent")
            self._index, self._kind = next(self._tokens)
            chain.append((self._bounded(self._int(text, at), at, "exponent"), at))
            if self._kind != "^":
                break
            self._index, self._kind = next(self._tokens)
        value, _ = chain.pop()
        while chain:  # a fold is an error at its base's token
            base, at = chain.pop()
            value = self._bounded(base**value, at, "exponent")
        return value

    def _literal_value(self, at: int) -> Fraction:
        text = self._texts[at]
        if self._kinds[at] == "int":
            return Fraction(self._int(text, at))
        num, den = text.split("/")
        num, den = self._int(num, at), self._int(den, at)
        if den == 0:
            raise self._error(f"zero denominator in rational literal {text!r}", at)
        return Fraction(num, den)

    def _bounded(self, value: int, at: int, what: str = "degree bound {}") -> int:
        """value, or a ParseError at token index at if it exceeds MAX_DEGREE;
        the message names what, whose "{}" takes the value."""
        if value > MAX_DEGREE:
            raise self._error(f"{what.format(value)} exceeds the maximum degree {MAX_DEGREE}", at)
        return value

    def _int(self, digits: str, at: int) -> int:
        """int() of the digits of token at; past Python's int-string limit, a ParseError."""
        try:
            return int(digits)
        except ValueError:
            raise self._error(
                f"integer literal of {len(digits)} digits exceeds Python's limit of "
                f"{sys.get_int_max_str_digits()} digits",
                at,
            ) from None


def parse(src: str) -> PolyExpr:
    """Parse source text into an expression tree."""
    parser = _Parser(src)
    result, _ = parser._expr()
    if parser._kind != "eof":
        raise parser._expected("end of input")
    return result


def _monomial(e: PolyExpr) -> tuple[int, int, int] | None:
    """(k, a, d) if e is a/d*x^k in one of the shapes c, x, x^k, c*x^k (c a
    literal or the Neg of one, as a leading "-3*x^2" parses) or the Neg of
    one of these; else None."""
    sign, a, d = 1, 1, 1
    if isinstance(e, Neg):
        sign, e = -1, e.operand
    if isinstance(e, Lit):
        return 0, sign * e.value.numerator, e.value.denominator
    if isinstance(e, Mul) and len(e.factors) == 2:
        c, e = e.factors
        if isinstance(c, Neg):
            sign, c = -sign, c.operand
        if not isinstance(c, Lit):
            return None
        a, d = c.value.numerator, c.value.denominator
    if isinstance(e, Pow) and isinstance(e.base, Var):
        return e.exponent, sign * a, d
    return (1, sign * a, d) if isinstance(e, Var) else None


def lower(e: PolyExpr) -> Polynomial:
    """Evaluate an expression tree into a Polynomial, one call per tree level.

    e is read as a sum of terms: an Add's terms, or else e alone, and the
    terms of a nested Add join the same loop.  Each term goes to _monomial
    once; a monomial becomes its triple (k, a, d), with no power or product
    taken, and anything else lowers by its kind to a part (c, p), c = -1 for
    a Neg, else 1.  One add_all sums the parts and triples, so a sum of
    monomials of degree n costs O(n) ints; a lone part (1, p) is p itself."""
    terms, parts, monomials = [e], [], []
    for term in terms:  # a nested Add extends the list it is read from
        m = _monomial(term)
        if m is not None:
            monomials.append(m)
        elif isinstance(term, Add):
            terms += term.terms
        elif isinstance(term, Neg):
            parts.append((-1, lower(term.operand)))
        elif isinstance(term, Pow):
            parts.append((1, lower(term.base) ** term.exponent))
        elif isinstance(term, Mul):  # lowered and multiplied left to right
            parts.append((1, prod(map(lower, term.factors[1:]), start=lower(term.factors[0]))))
        else:
            raise TypeError(f"not a PolyExpr node: {term!r}")
    if len(parts) == 1 and parts[0][0] == 1 and not monomials:
        return parts[0][1]
    return add_all(parts, monomials)


def parse_polynomial(src: str) -> Polynomial:
    """Parse and lower in one step."""
    return lower(parse(src))
