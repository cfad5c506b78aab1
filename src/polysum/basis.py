"""Conversion between the monomial basis and the rising-factorial basis.

Any polynomial f of degree n has a unique expansion

    f(x) = sum_{i=0..n} w_i * x(x+1)(x+2)...(x+i-1)
         = w_0 + x(w_1 + (x+1)(w_2 + ... + (x+n-1)w_n)),

because the rising-factorial products are triangular in degree; they are the
Newton basis on the nodes 0, -1, -2, ....  A polynomial in this basis is the
plain tuple (w_0, ..., w_n), so w_0 = f(0); the zero polynomial is ().

The two conversions are one algorithm run in two directions on the nested
form, on the weights as one int row over one denominator D, w_i = row[i]/D.
from_rising_row builds f from the inside out, multiplying by (x + i) and
adding row[i] (the recurrence of the unsigned Stirling numbers of the first
kind).  to_rising_row takes f apart from the outside in, by synthetic
division by x, x+1, x+2, ..., and keeps each remainder as row[i].
to_rising_basis and from_rising_basis are the same kernels on Fractions.

The weights also have a closed form in the values v_k = f(-k),
w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) v_k = (-1)^i Delta^i v_0 / i!;
alternating_sums gives its int sums.  Fed v_k = k^n, they are i! times the
paper's sums sum_{k=0..i} (-1)^k k^n / (k!(i-k)!) = (-1)^i S(n,i); powersum
turns them into the weights a_i of S_n and checks a_n and S_n(1) on every
build, which is what the CLI's identities suite runs.  Summation is one
shift of the weights; its closing step, summation.close, calls
from_rising_row for every closed form.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import sub

from .poly import Polynomial, over_common_denominator

__all__ = [
    "alternating_sums",
    "to_rising_row",
    "from_rising_row",
    "to_rising_basis",
    "from_rising_basis",
]


def alternating_sums(values: Sequence[int]) -> list[int]:
    """sum_{k=0..i} (-1)^k C(i,k) values[k] = (-1)^i Delta^i values[0] for
    i = 0..len(values)-1: the heads of the int row as each pass maps v_k to
    v_k - v_(k+1)."""
    row, sums = list(values), []
    while row:
        sums.append(row[0])
        row = list(map(sub, row, row[1:]))
    return sums


def to_rising_row(f: Polynomial) -> list[int]:
    """The weights (w_0, ..., w_n) of f as ints over f.denominator, n = deg(f).
    f's numerators are divided in place by x, x+1, x+2, ...; the remainder
    of the division by (x + i) is row[i], and division by x is no work."""
    row = list(f.numerators)
    for i in range(1, len(row)):
        for j in range(len(row) - 2, i - 1, -1):  # divide row[i:] by (x + i)
            row[j] -= i * row[j + 1]
    return row


def from_rising_row(row: Sequence[int], den: int) -> Polynomial:
    """Expand sum_i row[i]/den * x(x+1)...(x+i-1) into the monomial basis.

    The sum is taken in nested form as one int row,

        acc <- acc * (x + i) + row[i]    for i = n, ..., 0,

    each product the first-kind Stirling recurrence new[j] = old[j-1] + i*old[j];
    that row over den is the result.  to_rising_row undoes it step by step.
    """
    acc: list[int] = []
    for i in range(len(row) - 1, -1, -1):
        acc = [a + i * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += row[i]
    return Polynomial.from_numerators(acc, den)


def to_rising_basis(f: Polynomial) -> tuple[Fraction, ...]:
    """to_rising_row as Fractions, so the zero polynomial maps to ().

    >>> w = to_rising_basis(Polynomial((0, 0, 1)))  # x^2 = -x + x(x+1)
    >>> w
    (Fraction(0, 1), Fraction(-1, 1), Fraction(1, 1))
    >>> from_rising_basis(w).render("x")
    'x^2'
    """
    return tuple([Fraction(w, f.denominator) for w in to_rising_row(f)])


def from_rising_basis(weights: Sequence[Fraction | int]) -> Polynomial:
    """Expand sum_i weights[i] * x(x+1)...(x+i-1) into the monomial basis:
    from_rising_row of the weights over their common denominator."""
    return from_rising_row(*over_common_denominator(weights))
