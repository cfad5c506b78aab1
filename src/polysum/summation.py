"""Closed-form summation of polynomial values over 1..m.

For a polynomial f of degree n, the sum g(m) = f(1) + f(2) + ... + f(m) is
itself a polynomial of degree n+1.  The telescoping identity

    sum_{x=1..m} x(x+1)...(x+i-1) = m(m+1)...(m+i) / (i+1),

which holds for i = 0 too (the length-0 product is 1), shifts the
rising-factorial weights (w_0, ..., w_n) of f one product up: g has the
weights (0, w_0/1, w_1/2, ..., w_n/(n+1)).  sum_polynomial takes the weights
of f from basis.to_rising_row as ints W_i over f's denominator D and reduces
the pairs (W_i, D(i+1)) with poly.lowest_terms.  powersum reaches the same
weights for f = m^n from the paper's sums, over (i+1)!, in one step.

Both routes end in close, the one step that assembles a closed form, by
basis.from_rising_row, and checks it on the int rows: g(1) = f(1) and the
leading term lc(f)/(n+1) m^(n+1).  Every closed form has zero constant term
(g is divisible by m).  The tests check the closed forms against
brute_force_sum in tests/reference.py, which does not ship in the package.

value_at's m and sum_range's bounds go through poly.check_int before any
work: a non-int is a TypeError, and a bound past its limit a ValueError named
by the parameters, e.g. "m must be >= 0 (got -1)".
"""

from __future__ import annotations

from fractions import Fraction

from .basis import from_rising_row, to_rising_row
from .poly import Polynomial, Record, check_int, lowest_terms, shown

__all__ = [
    "ClosedFormSum",
    "sum_polynomial",
    "sum_range",
]

# Largest (degree + 1) * bit length of max(|lo - 1|, |hi|) that sum_range
# accepts: about the size of g(hi) - g(lo - 1), which sets the evaluation cost.
MAX_SUM_BITS = 2**20


class ClosedFormSum(Record):
    """The polynomial g with g(m) = sum of the summand at x = 1..m.

    poly has zero constant term and degree source_degree + 1 for a nonzero
    summand; source_degree is 0 by convention when the summand is zero.
    """

    __slots__ = ("poly", "source_degree")

    def value_at(self, m: int) -> Fraction:
        """Exact value of the sum for an int m >= 1; m = 0 gives the empty
        sum 0.

        Negative or non-integer m has no summation meaning and raises, as in
        power_sum_value; self.poly(m) evaluates the polynomial there anyway.
        """
        return self.poly(check_int("m", m, 0))


def sum_polynomial(f: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{x=1..m} f(x), for arbitrary polynomial f;
    ArithmeticError from close if the closed form fails its checks."""
    row, d = to_rising_row(f), f.denominator
    shifted, den = lowest_terms(row, [d * i for i in range(1, len(row) + 1)])
    return ClosedFormSum(close(f, shifted, den), max(f.degree, 0))


def close(f: Polynomial, shifted: list[int], den: int) -> Polynomial:
    """g with g(m) = f(1) + ... + f(m) from its weights shifted[i]/den on
    m(m+1)...(m+i); ArithmeticError unless g(1) = f(1) and, for f of degree
    n >= 0, g has degree n+1 and leading coefficient lc(f)/(n+1)."""
    g = from_rising_row([0, *shifted], den)
    fn, gn, n = f.numerators, g.numerators, f.degree
    if sum(gn) * f.denominator != sum(fn) * g.denominator:
        raise ArithmeticError(f"the closed form at m=1 is {shown(g(1))}, not f(1) = {shown(f(1))}")
    if fn and (g.degree != n + 1 or gn[-1] * (n + 1) * f.denominator != fn[-1] * g.denominator):
        raise ArithmeticError(
            f"the closed form's leading term {shown(g.leading_coefficient)}*m^{g.degree} "
            f"is not lc(f)/(n+1) * m^(n+1) for n={n}"
        )
    return g


def sum_range(f: Polynomial, lo: int, hi: int) -> Fraction:
    """Exact value of sum_{x=lo..hi} f(x), computed as g(hi) - g(lo-1).

    For lo >= 1 this is the plain closed-form difference; bounds at or
    below zero are evaluated by polynomial extension of g, an extension of
    the 1..m semantics.  TypeError unless both bounds are ints; ValueError,
    before any work, if lo > hi or the size bound MAX_SUM_BITS is passed.
    """
    if check_int("lo", lo) > check_int("hi", hi):
        raise ValueError(f"empty range: lo={shown(lo)} > hi={shown(hi)}")
    bits = (f.degree + 1) * max(abs(lo - 1), abs(hi)).bit_length()
    name = f"(degree + 1) * bit length of max(|lo - 1|, |hi|) at degree {f.degree}"
    check_int(name, bits, hi=MAX_SUM_BITS)
    g = sum_polynomial(f).poly
    return g(hi) - g(lo - 1)
