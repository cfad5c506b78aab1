"""Independent oracles that check the production routes.  This module lives
in tests/ and does not ship in the polysum package; only the tests import it.

Each one reaches its answer by a different road from the code it checks:

- brute_force_sum adds f(1) + ... + f(m) term by term (summation).
- rising_factorial_basis_poly expands one product x(x+1)...(x+i-1) from
  scratch, and sum_rising_factorial applies the telescoping identity to it
  (basis.from_rising_basis builds the products incrementally).
- solve_interpolation_system solves the triangular system by forward
  substitution (basis.to_rising_basis uses synthetic division).
- to_rising_row_stepwise and from_rising_row_stepwise are the basis kernels
  one linear factor per step (basis takes two per pass).
- coefficient_from_sum is the paper's literal sum for a_i, double_sum_closed_form
  assembles S_n from the binomial double sum, and faulhaber_bernoulli_oracle
  uses the classical Bernoulli-number formula (powersum).
- alternating_binomial_power_sum is the identity
  sum_k (-1)^k C(n,k) k^n = (-1)^n n! behind the a_n closing value (basis).
- evaluate interprets an expression tree at a point (expr_parser.lower).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from polysum.expr_parser import Add, Lit, Mul, Neg, Pow, PolyExpr, Var
from polysum.poly import Polynomial

__all__ = [
    "brute_force_sum",
    "rising_factorial_basis_poly",
    "sum_rising_factorial",
    "solve_interpolation_system",
    "to_rising_row_stepwise",
    "from_rising_row_stepwise",
    "coefficient_from_sum",
    "double_sum_closed_form",
    "bernoulli_numbers",
    "faulhaber_bernoulli_oracle",
    "alternating_binomial_power_sum",
    "evaluate",
]


def brute_force_sum(f: Polynomial, m: int) -> Fraction:
    """Literal f(1) + f(2) + ... + f(m); the reference every closed form is
    tested against."""
    if m < 1:
        raise ValueError(f"brute-force sum requires m >= 1 (got {m})")
    total = Fraction(0)
    for x in range(1, m + 1):
        total += f(x)
    return total


def rising_factorial_basis_poly(i: int) -> Polynomial:
    """Expand the length-i rising factorial x(x+1)...(x+i-1) from scratch; the
    reference for the incremental products of basis.from_rising_basis."""
    if i < 1:
        raise ValueError(f"rising factorial length must be >= 1 (got {i})")
    product = Polynomial((1,))
    for offset in range(i):
        product = product * Polynomial((offset, 1))
    return product


def sum_rising_factorial(i: int) -> Polynomial:
    """Closed form of sum_{x=1..m} x(x+1)...(x+i-1), expanded in m.

    Equals m(m+1)...(m+i)/(i+1): the length-(i+1) rising factorial starting
    at m, scaled by 1/(i+1).
    """
    if i < 1:
        raise ValueError(f"rising factorial length must be >= 1 (got {i})")
    return rising_factorial_basis_poly(i + 1).scale(Fraction(1, i + 1))


def solve_interpolation_system(f: Polynomial) -> tuple[Fraction, ...]:
    """Recover the rising-factorial weights (w_0, ..., w_n) by forward
    substitution.

    Matching f and its expansion at the points 0, -1, ..., -n gives a
    lower-triangular system: the length-i product evaluated at -j is
    (-1)^i * j(j-1)...(j-i+1) for i <= j and 0 for i > j.  Solving row by
    row yields the weights without synthetic division, which makes
    this an independent cross-check for to_rising_basis.
    """
    weights = [f(0)] if f else []
    for j in range(1, f.degree + 1):
        acc = weights[0]
        falling = 1  # j(j-1)...(j-i+1), built incrementally over i
        for i in range(1, j):
            falling *= j - i + 1
            term = weights[i] * falling
            acc += -term if i % 2 else term
        diagonal = Fraction(factorial(j))  # the i=j product is j!
        if j % 2:
            diagonal = -diagonal
        weights.append((f(-j) - acc) / diagonal)
    return tuple(weights)


def to_rising_row_stepwise(f: Polynomial) -> list[int]:
    """basis.to_rising_row by synthetic division of f's numerators in place,
    one factor (x + i) at a time; the remainder of each is row[i]."""
    row = list(f.numerators)
    for i in range(1, len(row)):
        for j in range(len(row) - 2, i - 1, -1):  # divide row[i:] by (x + i)
            row[j] -= i * row[j + 1]
    return row


def from_rising_row_stepwise(row: list[int], den: int) -> Polynomial:
    """basis.from_rising_row one factor at a time, acc <- acc * (x + i) + row[i]
    for i = n, ..., 0: the Stirling recurrence new[j] = old[j-1] + i*old[j]."""
    acc: list[int] = []
    for i in range(len(row) - 1, -1, -1):
        acc = [a + i * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += row[i]
    return Polynomial.from_numerators(acc, den)


def coefficient_from_sum(n: int, i: int) -> Fraction:
    """a_i by the paper's literal sum, the reference for powersum.coefficients:
    1/(i+1) * sum_{k=1..i} (-1)^k k^n / (k!(i-k)!)."""
    if n < 1:
        raise ValueError(f"exponent must be >= 1 (got {n})")
    if not 1 <= i <= n:
        raise ValueError(f"coefficient index must be in 1..{n} (got {i})")
    total = Fraction(0)
    for k in range(1, i + 1):
        term = Fraction(k**n, factorial(k) * factorial(i - k))
        total += -term if k % 2 else term
    return total / (i + 1)


def double_sum_closed_form(n: int) -> Polynomial:
    """S_n(m) assembled literally from the binomial double sum

        sum_{i=1..n} sum_{k=1..i} (-1)^(k+n) k^n C(i,k) / (i+1)!
                                  * m(m+1)...(m+i).

    An alternative route to the same polynomial, kept for equivalence
    testing against power_sum_closed_form.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1 (got {n})")
    total = Polynomial()
    for i in range(1, n + 1):
        base = rising_factorial_basis_poly(i + 1)
        for k in range(1, i + 1):
            coef = Fraction(k**n * comb(i, k), factorial(i + 1))
            if (k + n) % 2:
                coef = -coef
            total = total + base.scale(coef)
    return total


def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """B_0..B_count, with the B_1 = -1/2 convention, from the recurrence
    sum_{j=0..k} C(k+1, j) B_j = 0."""
    if count < 0:
        raise ValueError(f"count must be >= 0 (got {count})")
    table: list[Fraction] = [Fraction(1)]
    for k in range(1, count + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += comb(k + 1, j) * table[j]
        table.append(-acc / (k + 1))
    return tuple(table)


def faulhaber_bernoulli_oracle(n: int) -> Polynomial:
    """S_n(m) by the classical Bernoulli-number formula

        S_n(m) = 1/(n+1) * sum_{j=0..n} (-1)^j C(n+1, j) B_j m^(n+1-j).

    Independent of the rising-factorial route; used only to cross-check it.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1 (got {n})")
    bern = bernoulli_numbers(n)
    coeffs = [Fraction(0)] * (n + 2)
    for j in range(n + 1):
        c = comb(n + 1, j) * bern[j]
        coeffs[n + 1 - j] = -c if j % 2 else c
    return Polynomial(coeffs).scale(Fraction(1, n + 1))


def alternating_binomial_power_sum(n: int) -> int:
    """sum_{k=1..n} (-1)^k C(n,k) k^n, which always equals (-1)^n n!."""
    if n < 1:
        raise ValueError(f"exponent must be >= 1 (got {n})")
    total = 0
    for k in range(1, n + 1):
        term = comb(n, k) * k**n
        total += -term if k % 2 else term
    return total


def evaluate(e: PolyExpr, t: Fraction | int) -> Fraction:
    """Interpret the tree directly at a point, without building a Polynomial.

    Kept separate from lower() so the two routes can check each other.
    """
    t = Fraction(t)
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -evaluate(e.operand, t)
    if isinstance(e, Add):
        total = Fraction(0)
        for term in e.terms:
            total += evaluate(term, t)
        return total
    if isinstance(e, Mul):
        product = Fraction(1)
        for factor in e.factors:
            product *= evaluate(factor, t)
        return product
    if isinstance(e, Pow):
        return evaluate(e.base, t) ** e.exponent
    raise TypeError(f"not a PolyExpr node: {e!r}")
