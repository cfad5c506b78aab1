"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = f(0) + sum_{i=1..n} c_i * x(x+1)(x+2)...(x+i-1),

because the rising-factorial products are triangular in degree.  The
coefficients come in closed form from the values v_k = f(-k):

    c_i = 1/i! * sum_{k=0..i} (-1)^k * C(i,k) * v_k

Equivalently c_i = (-1)^i Delta^i v_0 / i!, an i-th forward difference.
rising_weights is the one kernel for it.  Fed the ints v_k = k^n (the values
of (-x)^n), it gives the paper's power-sum weights
sum_{k=0..i} (-1)^k k^n / (k!(i-k)!) = (-1)^i S(n,i) (see powersum).

from_rising_basis is the one kernel that assembles weights on these products
into monomials; multiplying by (x + i) is the recurrence of the unsigned
Stirling numbers of the first kind, the coefficients of x(x+1)...(x+i).  Both
kernels are int work over one common denominator, with one Fraction per
output coefficient.  Summation is a shift of the weights: by the telescoping
identity sum_{x=1..m} x(x+1)...(x+i-1) = m(m+1)...(m+i)/(i+1), weight c_i
moves one product up as c_i/(i+1), and f(0) becomes the weight on m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .poly import Polynomial

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


def _over_common_denominator(xs: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of xs, and the ints D*x."""
    den = lcm(*[x.denominator for x in xs])
    return den, [x.numerator * (den // x.denominator) for x in xs]


def rising_weights(values: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) values[k] for i = 1..len(values)-1.

    The sum is (-1)^i Delta^i v_0, so the values V_k = D*v_k are differenced
    as ints and each weight is one Fraction, (-1)^i Delta^i V_0 / (i! * D).
    """
    scale, row = _over_common_denominator(values)
    weights = []
    for i in range(1, len(values)):
        row = [b - a for a, b in zip(row, row[1:])]  # Delta^i V_k
        scale *= i
        weights.append(Fraction(-row[0] if i % 2 else row[0], scale))
    return tuple(weights)


def to_rising_basis(f: Polynomial) -> RisingFactorialPoly:
    """Expand f over the rising-factorial basis via the closed form.

    The values D*f(-k) come from integer Horner on D*f.  The bound n is
    taken as deg(f) exactly, so no forced-zero trailing coefficients are
    stored; the zero polynomial maps to constant 0 with empty coefficients.
    """
    if not f:
        return RisingFactorialPoly(Fraction(0), ())
    den, scaled = _over_common_denominator(f.coeffs)
    values = []
    for k in range(len(scaled)):
        acc = 0
        for c in reversed(scaled):
            acc = acc * -k + c
        values.append(acc)
    weights = rising_weights(values)
    return RisingFactorialPoly(f.coeffs[0], tuple([w / den for w in weights]))


def from_rising_basis(r: RisingFactorialPoly) -> Polynomial:
    """Expand constant + sum of weighted rising-factorial products back into
    the monomial basis.

    With W_i = D*coeffs[i], the weight on x(x+1)...(x+i) over the common
    denominator D, the sum is taken in nested form as one int row,

        acc <- (acc + W_i) * (x + i)    for i = n-1, ..., 0,

    each step the first-kind Stirling recurrence new[j] = old[j-1] + i*old[j],
    and divided by D once per monomial coefficient.
    """
    den, (constant, *weights) = _over_common_denominator([r.constant, *r.coeffs])
    acc = [0]
    for i in range(len(weights) - 1, -1, -1):
        acc[0] += weights[i]
        acc = [a + i * b for a, b in zip([0, *acc], [*acc, 0])]
    acc[0] += constant
    return Polynomial([Fraction(a, den) for a in acc])
