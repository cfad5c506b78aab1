"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = sum_{i=0..n} w_i * x(x+1)(x+2)...(x+i-1),

because the rising-factorial products are triangular in degree.  The
length-0 product is 1, so w_0 = f(0).  A polynomial in this basis is the
plain tuple (w_0, ..., w_n); the zero polynomial is ().  The weights come in
closed form from the values v_k = f(-k):

    w_i = 1/i! * sum_{k=0..i} (-1)^k * C(i,k) * v_k

Equivalently w_i = (-1)^i Delta^i v_0 / i!, an i-th forward difference.
rising_weights is the one kernel for it.  Fed the ints v_k = k^n (the values
of (-x)^n), it gives the paper's power-sum weights
sum_{k=0..i} (-1)^k k^n / (k!(i-k)!) = (-1)^i S(n,i) (see powersum).

from_rising_basis is the one kernel that assembles weights on these products
into monomials; multiplying by (x + i) is the recurrence of the unsigned
Stirling numbers of the first kind, the coefficients of x(x+1)...(x+i).  Both
kernels are int work over one common denominator.  to_rising_basis reads
f's int numerators and denominator directly, and the weights kernel makes
one Fraction per weight; from_rising_basis hands its int row and denominator
to Polynomial as they are, with no Fraction per coefficient.  Summation is
one shift of the weights (see summation).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .poly import Polynomial, over_common_denominator

__all__ = [
    "rising_weights",
    "to_rising_basis",
    "from_rising_basis",
]


def rising_weights(values: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) values[k] for i = 0..len(values)-1."""
    return _differences(*over_common_denominator(values))


def _differences(row: list[int], scale: int) -> tuple[Fraction, ...]:
    """The weights of the values row[k] / scale.

    Their alternating sum is (-1)^i Delta^i v_0, so the ints are differenced
    and each weight is one Fraction, (-1)^i Delta^i row[0] / (i! * scale).
    """
    weights = []
    for i in range(len(row)):
        weights.append(Fraction(-row[0] if i % 2 else row[0], scale))
        row = [b - a for a, b in zip(row, row[1:])]  # Delta^(i+1) row[k]
        scale *= i + 1
    return tuple(weights)


def to_rising_basis(f: Polynomial) -> tuple[Fraction, ...]:
    """The weights (w_0, ..., w_n) of f via the closed form.

    n = deg(f) exactly, so no forced-zero trailing weights are stored; the
    zero polynomial maps to ().  The values D*f(-k) come from integer Horner
    on f's int numerators, D being its denominator.
    """
    nums = f.numerators
    values = []
    for k in range(len(nums)):
        acc = 0
        for c in reversed(nums):
            acc = acc * -k + c
        values.append(acc)
    return _differences(values, f.denominator)


def from_rising_basis(weights: Sequence[Fraction | int]) -> Polynomial:
    """Expand sum_i weights[i] * x(x+1)...(x+i-1) into the monomial basis.

    With W_i = D*weights[i] over the common denominator D, the sum is taken
    in nested form as one int row,

        acc <- acc * (x + i) + W_i    for i = n, ..., 0,

    each product the first-kind Stirling recurrence new[j] = old[j-1] + i*old[j];
    that row over D is the result.
    """
    scaled, den = over_common_denominator(weights)
    acc: list[int] = []
    for i in range(len(scaled) - 1, -1, -1):
        acc = [a + i * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += scaled[i]
    return Polynomial.from_numerators(acc, den)
