"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = sum_{i=0..n} w_i * x(x+1)(x+2)...(x+i-1)
         = w_0 + x(w_1 + (x+1)(w_2 + ... + (x+n-1)w_n)),

because the rising-factorial products are triangular in degree; they are the
Newton basis on the nodes 0, -1, -2, ....  A polynomial in this basis is the
plain tuple (w_0, ..., w_n), so w_0 = f(0); the zero polynomial is ().

The two conversions are one algorithm run in two directions on the nested
form, both int work over one common denominator.  from_rising_basis builds f
from the inside out, multiplying by (x + i) and adding w_i (the recurrence
of the unsigned Stirling numbers of the first kind).  to_rising_basis takes
f apart from the outside in, by synthetic division by x, x+1, x+2, ..., and
keeps each remainder as w_i.

The weights also have a closed form in the values v_k = f(-k),
w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) v_k = (-1)^i Delta^i v_0 / i!.
Fed v_k = k^n (the values of (-x)^n), rising_weights gives the paper's sums
sum_{k=0..i} (-1)^k k^n / (k!(i-k)!) = (-1)^i S(n,i); powersum turns them
into the weights a_i of S_n, and the CLI's identities suite checks the last
of them.  Summation is one shift of the weights (see summation).
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
    """w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) values[k] for i = 0..len(values)-1.

    The values over their common denominator D are ints, so each weight is one
    Fraction, (-1)^i Delta^i row[0] / (i! * D), of int forward differences.
    """
    row, scale = over_common_denominator(values)
    weights = []
    for i in range(len(row)):
        weights.append(Fraction(-row[0] if i % 2 else row[0], scale))
        row = [b - a for a, b in zip(row, row[1:])]  # Delta^(i+1) row[k]
        scale *= i + 1
    return tuple(weights)


def to_rising_basis(f: Polynomial) -> tuple[Fraction, ...]:
    """The weights (w_0, ..., w_n) of f, n = deg(f) exactly, so the zero
    polynomial maps to ().  f's int numerators are divided in place by x,
    x+1, x+2, ...; the remainder of the division by (x + i) is row[i], so
    w_i = row[i] / D, D being f's denominator.

    >>> w = to_rising_basis(Polynomial((0, 0, 1)))  # x^2 = -x + x(x+1)
    >>> w
    (Fraction(0, 1), Fraction(-1, 1), Fraction(1, 1))
    >>> from_rising_basis(w).render("x")
    'x^2'
    """
    row = list(f.numerators)
    n = len(row) - 1
    weights = []
    for i in range(n + 1):
        for j in range(n - 1, i - 1, -1):  # divide row[i:] by (x + i)
            row[j] -= i * row[j + 1]
        weights.append(Fraction(row[i], f.denominator))
    return tuple(weights)


def from_rising_basis(weights: Sequence[Fraction | int]) -> Polynomial:
    """Expand sum_i weights[i] * x(x+1)...(x+i-1) into the monomial basis.

    With W_i = D*weights[i] over the common denominator D, the sum is taken
    in nested form as one int row,

        acc <- acc * (x + i) + W_i    for i = n, ..., 0,

    each product the first-kind Stirling recurrence new[j] = old[j-1] + i*old[j];
    that row over D is the result.  to_rising_basis undoes it step by step.
    """
    scaled, den = over_common_denominator(weights)
    acc: list[int] = []
    for i in range(len(scaled) - 1, -1, -1):
        acc = [a + i * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += scaled[i]
    return Polynomial.from_numerators(acc, den)
