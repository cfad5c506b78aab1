"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = f(0) + sum_{i=1..n} c_i * x(x+1)(x+2)...(x+i-1),

because the rising-factorial products are triangular in degree.  The
coefficients come in closed form from the values v_k = f(-k):

    c_i = 1/i! * sum_{k=0..i} (-1)^k * C(i,k) * v_k

rising_weights is the one kernel for this alternating sum.  Fed the ints
v_k = k^n (the values of (-x)^n), it gives the paper's power-sum weights
sum_{k=0..i} (-1)^k k^n / (k!(i-k)!) (see powersum).

from_rising_basis is the one kernel that assembles weights on these products
into monomials.  Summation is a shift of the weights: by the telescoping
identity sum_{x=1..m} x(x+1)...(x+i-1) = m(m+1)...(m+i)/(i+1), weight c_i
moves one product up as c_i/(i+1), and f(0) becomes the weight on m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .poly import ONE, Polynomial

__all__ = [
    "RisingFactorialPoly",
    "rising_weights",
    "to_rising_basis",
    "from_rising_basis",
]


@dataclass(frozen=True)
class RisingFactorialPoly:
    """A polynomial expressed as constant + sum of rising-factorial terms.

    coeffs[i-1] multiplies the length-i product x(x+1)...(x+i-1); the
    constant equals the value at 0.  A zero polynomial has empty coeffs.
    """

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of the length-i product, 1-based; 0 beyond the bound."""
        if i < 1:
            raise ValueError(f"rising-factorial index must be >= 1 (got {i})")
        if i <= len(self.coeffs):
            return self.coeffs[i - 1]
        return Fraction(0)


def rising_weights(values: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) values[k] for i = 1..len(values)-1.

    The values may be ints; the single division per weight keeps them exact.
    """
    weights = []
    for i in range(1, len(values)):
        total = 0
        for k in range(i + 1):
            term = comb(i, k) * values[k]
            total += -term if k % 2 else term
        weights.append(Fraction(total, factorial(i)))
    return tuple(weights)


def to_rising_basis(f: Polynomial) -> RisingFactorialPoly:
    """Expand f over the rising-factorial basis via the closed form.

    The bound n is taken as deg(f) exactly, so no forced-zero trailing
    coefficients are stored; the zero polynomial maps to constant 0 with
    empty coefficients.
    """
    if not f:
        return RisingFactorialPoly(Fraction(0), ())
    n = int(f.degree)
    values = [f(-k) for k in range(n + 1)]
    return RisingFactorialPoly(values[0], rising_weights(values))


def from_rising_basis(r: RisingFactorialPoly) -> Polynomial:
    """Expand constant + sum of weighted rising-factorial products back into
    the monomial basis, extending each product from the previous one."""
    result = Polynomial.constant(r.constant)
    product = ONE
    for i, c in enumerate(r.coeffs):
        product = product * Polynomial((i, 1))  # x(x+1)...(x+i)
        result = result + product.scale(c)
    return result
