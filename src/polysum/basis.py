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
division by x, x+1, x+2, ..., and keeps each remainder as row[i].  Both
take two factors per pass, a quadratic (x + i)(x + i - 1) = x^2 + (2i-1)x +
i(i-1) on the way in and (x + i)(x + i + 1) = x^2 + (2i+1)x + i(i+1) on the
way out, which halves the interpreter's steps over the row and leaves the
arithmetic as it was; when the count of factors is odd, one single step is
left over.
to_rising_basis and from_rising_basis are the same kernels on Fractions.

The weights also have a closed form in the values v_k = f(-k),
w_i = 1/i! * sum_{k=0..i} (-1)^k C(i,k) v_k = (-1)^i Delta^i v_0 / i!;
alternating_sums gives its int sums.  Fed v_k = (-k)^n, the values of m^n,
they are i! (-1)^n times the paper's sums sum_{k=0..i} (-1)^k k^n /
(k!(i-k)!) = (-1)^i S(n,i); powersum puts them over (i+1)! as the weights of
S_n and checks them on every build, which is what the CLI's identities suite
runs.  Summation is one shift of the weights; its closing step,
summation.close, calls from_rising_row for every closed form.
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

    Division by x is no work: row[0] is w_0.  Then f's numerators are
    divided in place by two factors per pass, (x + i)(x + i + 1) =
    x^2 + (2i+1)x + i(i+1) for i = 1, 3, 5, ..., by synthetic division of
    row[i:], carrying the two quotient terms above.  The remainder r0 + r1*x
    is w_i + (x + i)w_(i+1), so w_(i+1) = r1 and w_i = r0 - i*r1.  When the
    count of factors is odd, the last pass meets a linear row[i:] and is the
    one single division, by (x + i).  from_rising_row undoes it.
    """
    row = list(f.numerators)
    for i in range(1, len(row) - 1, 2):
        b, c = 2 * i + 1, i * (i + 1)
        q1, q2 = row[-1], 0  # row[j+1] and row[j+2], the quotient so far
        for j in range(len(row) - 2, i, -1):
            q1, q2 = row[j] - b * q1 - c * q2, q1
            row[j] = q1
        row[i] -= c * q2 + i * q1
    return row


def from_rising_row(row: Sequence[int], den: int) -> Polynomial:
    """Expand sum_i row[i]/den * x(x+1)...(x+i-1) into the monomial basis.

    The sum is taken in nested form as one int row, acc <- acc * (x + i) +
    row[i] for i = n, ..., 0 (the first-kind Stirling recurrence), two
    factors per pass:

        acc <- acc * (x + i)(x + i - 1) + row[i] * (x + i - 1) + row[i-1],

    with (x + i)(x + i - 1) = x^2 + (2i-1)x + i(i-1), one comprehension over
    three shifted copies of acc.  When the count of factors is odd, the
    step left over is i = 0, which prepends row[0].  That row over den is
    the result.
    """
    acc: list[int] = []
    for i in range(len(row) - 1, 0, -2):
        b, c = 2 * i - 1, i * (i - 1)
        acc = [u + b * v + c * w for u, v, w in zip([0, 0, *acc], [0, *acc, 0], [*acc, 0, 0])]
        acc[0] += row[i] * (i - 1) + row[i - 1]
        acc[1] += row[i]
    if len(row) % 2:
        acc = [row[0], *acc]
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
