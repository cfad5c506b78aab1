"""Exact closed-form summation of polynomial values over integer ranges.

Everything is computed in exact rational arithmetic.  A polynomial f is
expanded over the rising-factorial basis x(x+1)...(x+i-1); summing each
basis product telescopes, which turns sum_{x=1..m} f(x) into a polynomial
in m.  Power sums 1^n + ... + m^n get a specialized expansion that needs no
Bernoulli numbers, plus a factored form pulling out m(m+1) for n >= 3.
The independent oracles that check these routes (literal sums, the
Bernoulli formula and others) are in tests/reference.py, which is not shipped.

Quick start::

    >>> from polysum import parse_polynomial, sum_polynomial
    >>> g = sum_polynomial(parse_polynomial("x^2"))
    >>> g.poly.render()
    '1/3*m^3 + 1/2*m^2 + 1/6*m'
    >>> g.value_at(4)
    Fraction(30, 1)
"""

from __future__ import annotations

from .basis import from_rising_basis, to_rising_basis
from .expr_parser import ParseError, lower, parse, parse_polynomial
from .poly import Polynomial
from .powersum import (
    PowerSumCoefficients,
    coefficients,
    power_sum_closed_form,
    power_sum_factored_form,
    power_sum_value,
)
from .summation import ClosedFormSum, sum_polynomial, sum_range

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "to_rising_basis",
    "from_rising_basis",
    "ClosedFormSum",
    "sum_polynomial",
    "sum_range",
    "PowerSumCoefficients",
    "coefficients",
    "power_sum_closed_form",
    "power_sum_factored_form",
    "power_sum_value",
    "ParseError",
    "parse",
    "lower",
    "parse_polynomial",
    "__version__",
]
