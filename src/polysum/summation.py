"""Closed-form summation of polynomial values over 1..m.

For a polynomial f of degree n, the sum g(m) = f(1) + f(2) + ... + f(m) is
itself a polynomial of degree n+1.  The telescoping identity

    sum_{x=1..m} x(x+1)...(x+i-1) = m(m+1)...(m+i) / (i+1)

shifts the rising-factorial weights c_i of f one product up: g has constant
0, weight f(0) on m and weight c_i/(i+1) on m(m+1)...(m+i).  Both basis
kernels run as int arithmetic over one common denominator: the c_i come from
forward differences of D*f(-k), and the assembly multiplies int rows by
(m + i), the first-kind Stirling recurrence.

Every closed form has zero constant term (g is divisible by m).  The
literal term-by-term reference the closed forms are tested against is
oracles.brute_force_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basis import RisingFactorialPoly, from_rising_basis, to_rising_basis
from .poly import Polynomial

__all__ = [
    "ClosedFormSum",
    "sum_polynomial",
    "sum_range",
]


@dataclass(frozen=True)
class ClosedFormSum:
    """The polynomial g with g(m) = sum of the summand at x = 1..m.

    poly has zero constant term and degree source_degree + 1 for a nonzero
    summand; source_degree is 0 by convention when the summand is zero.
    """

    poly: Polynomial
    source_degree: int

    def value_at(self, m: int, *, extend: bool = False) -> Fraction:
        """Exact value of the sum for m >= 1; m = 0 gives the empty sum 0.

        Negative m has no summation meaning; pass extend=True to evaluate
        the polynomial there anyway.
        """
        if m < 0 and not extend:
            raise ValueError(
                f"m must be >= 0 (got {m}); use extend=True for polynomial extension"
            )
        return self.poly(m)


def sum_polynomial(f: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{x=1..m} f(x), for arbitrary polynomial f."""
    expansion = to_rising_basis(f)
    weights = (expansion.constant, *[c / i for i, c in enumerate(expansion.coeffs, start=2)])
    g = from_rising_basis(RisingFactorialPoly(Fraction(0), weights))
    degree = int(f.degree) if f else 0
    return ClosedFormSum(g, degree)


def sum_range(f: Polynomial, lo: int, hi: int) -> Fraction:
    """Exact value of sum_{x=lo..hi} f(x), computed as g(hi) - g(lo-1).

    For lo >= 1 this is the plain closed-form difference; bounds at or
    below zero are evaluated by polynomial extension of g, an extension of
    the 1..m semantics.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    g = sum_polynomial(f).poly
    return g(hi) - g(lo - 1)
