"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = f(0) + sum_{i=1..n} c_i * x(x+1)(x+2)...(x+i-1),

because the rising-factorial products are triangular in degree.  The
coefficients come in closed form from the values of f at 0, -1, ..., -n:

    c_i = sum_{k=0..i} (-1)^k * f(-k) / (k! * (i-k)!)

from_rising_basis is the one kernel that assembles weights on these products
into monomials.  Summation is a shift of the weights: by the telescoping
identity sum_{x=1..m} x(x+1)...(x+i-1) = m(m+1)...(m+i)/(i+1), weight c_i
moves one product up as c_i/(i+1), and f(0) becomes the weight on m.

solve_interpolation_system recovers the same coefficients by forward
substitution on the defining linear system instead; it exists as an
independent oracle for the closed form and is used only by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import factorial
from .poly import ONE, Polynomial

__all__ = [
    "RisingFactorialPoly",
    "to_rising_basis",
    "from_rising_basis",
    "solve_interpolation_system",
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
    coeffs = []
    for i in range(1, n + 1):
        total = Fraction(0)
        for k in range(i + 1):
            term = values[k] / (factorial(k) * factorial(i - k))
            total += -term if k % 2 else term
        coeffs.append(total)
    return RisingFactorialPoly(values[0], tuple(coeffs))


def from_rising_basis(r: RisingFactorialPoly) -> Polynomial:
    """Expand constant + sum of weighted rising-factorial products back into
    the monomial basis, extending each product from the previous one."""
    result = Polynomial.constant(r.constant)
    product = ONE
    for i, c in enumerate(r.coeffs):
        product = product * Polynomial((i, 1))  # x(x+1)...(x+i)
        result = result + product.scale(c)
    return result


def solve_interpolation_system(f: Polynomial) -> RisingFactorialPoly:
    """Recover the rising-factorial coefficients by forward substitution.

    Matching f and its expansion at the points 0, -1, ..., -n gives a
    lower-triangular system: the length-i product evaluated at -j is
    (-1)^i * j(j-1)...(j-i+1) for i <= j and 0 for i > j.  Solving row by
    row yields the coefficients without using the closed form, which makes
    this an independent cross-check for to_rising_basis.
    """
    if not f:
        return RisingFactorialPoly(Fraction(0), ())
    n = int(f.degree)
    l0 = f(0)
    coeffs: list[Fraction] = []
    for j in range(1, n + 1):
        acc = l0
        falling = 1  # j(j-1)...(j-i+1), built incrementally over i
        for i in range(1, j):
            falling *= j - i + 1
            term = coeffs[i - 1] * falling
            acc += -term if i % 2 else term
        diagonal = Fraction(factorial(j))  # the i=j product is j!
        if j % 2:
            diagonal = -diagonal
        coeffs.append((f(-j) - acc) / diagonal)
    return RisingFactorialPoly(l0, tuple(coeffs))
