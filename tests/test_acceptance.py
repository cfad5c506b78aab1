"""Acceptance suite: every criterion is exact (zero tolerance), since all
arithmetic is exact rational arithmetic.  Each test is one criterion; the
terminal summary prints one PASS/FAIL line per criterion.

Brute-force expectations are computed by literal term-by-term accumulation,
kept independent of the closed-form code paths they check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from conftest import random_polynomial
from polysum.basis import from_rising_basis, to_rising_basis
from polysum.expr_parser import parse_polynomial
from polysum.poly import Polynomial
from polysum.powersum import (
    coefficients,
    power_sum_closed_form,
    power_sum_factored_form,
    power_sum_value,
)
from polysum.summation import sum_polynomial
from reference import (
    alternating_binomial_power_sum,
    brute_force_sum,
    coefficient_from_sum,
    double_sum_closed_form,
    faulhaber_bernoulli_oracle,
    solve_interpolation_system,
)

GENERAL_SUM_SEED = 74123  # criteria 2 and 6 must draw the same polynomials


def test_c01_power_sum_values_match_literal_sums():
    """power_sum_value(n, m) equals 1^n + ... + m^n for n in 1..20, m in 0..200."""
    for n in range(1, 21):
        literal = 0
        assert power_sum_value(n, 0) == 0
        for m in range(1, 201):
            literal += m**n
            assert power_sum_value(n, m) == literal, (n, m)


def test_c02_general_closed_forms_match_brute_force():
    """For 500 random polynomials (degree <= 8, |num|, den <= 50), the closed
    form agrees with literal summation at every m in 1..100."""
    rng = random.Random(GENERAL_SUM_SEED)
    for _ in range(500):
        f = random_polynomial(rng, max_degree=8, max_num=50, max_den=50)
        g = sum_polynomial(f).poly
        literal = Fraction(0)
        for m in range(1, 101):
            literal += f(m)
            assert g(m) == literal, (f, m)
        if f:
            assert brute_force_sum(f, 100) == literal


def test_c03_rising_basis_roundtrip_and_system_agreement():
    """For 500 random polynomials of degree <= 12: converting to the
    rising-factorial basis and back is the identity, and the closed-form
    coefficients equal the forward-substitution solution."""
    rng = random.Random(74124)
    for _ in range(500):
        f = random_polynomial(rng, max_degree=12)
        expansion = to_rising_basis(f)
        assert from_rising_basis(expansion) == f
        assert expansion == solve_interpolation_system(f)


def test_c04_coefficient_structure():
    """For n in 1..30: a_1 = -1/2, and the defining sum at i = n equals the
    shortcut (-1)^n/(n+1)."""
    for n in range(1, 31):
        a = coefficients(n)
        assert a.coefficient(1) == Fraction(-1, 2)
        # recompute the defining sum here, independently of the library
        total = Fraction(0)
        for k in range(1, n + 1):
            total += Fraction((-1) ** k * k**n, math.factorial(k) * math.factorial(n - k))
        assert total / (n + 1) == Fraction((-1) ** n, n + 1)
        assert coefficient_from_sum(n, n) == Fraction((-1) ** n, n + 1)


def test_c05_alternating_identity():
    """sum_{k=1..n} (-1)^k C(n,k) k^n = (-1)^n n! for n in 1..30."""
    for n in range(1, 31):
        expected = (-1) ** n * math.factorial(n)
        direct = sum((-1) ** k * math.comb(n, k) * k**n for k in range(1, n + 1))
        assert direct == expected
        assert alternating_binomial_power_sum(n) == expected


def test_c06_divisibility_claims():
    """S_n(m) is divisible by m^2 + m for n in 1..20, and every random
    closed-form sum from criterion 2 has zero constant term.  m and m + 1 are
    coprime linear factors, so m(m+1) divides S_n exactly when S_n(0) and
    S_n(-1) are both 0."""
    for n in range(1, 21):
        closed = power_sum_closed_form(n)
        assert closed(0) == closed(-1) == 0, n
    rng = random.Random(GENERAL_SUM_SEED)
    for _ in range(500):
        f = random_polynomial(rng, max_degree=8, max_num=50, max_den=50)
        assert sum_polynomial(f).poly.coefficient(0) == 0, f


def test_c07_principal_term():
    """S_n(m) has degree n+1 and leading coefficient 1/(n+1) for n in 1..20."""
    for n in range(1, 21):
        closed = power_sum_closed_form(n)
        assert closed.degree == n + 1
        assert closed.leading_coefficient == Fraction(1, n + 1)


def test_c08_formula_cross_equivalence():
    """The expanded form, the factored form (n in 3..15), the double-sum form
    (n in 1..15) and the Bernoulli-number oracle (n in 1..15) are the same
    polynomial, exactly.  The factored form is checked as polysum prints it:
    its text parses back, multiplied out by the parser's own products, not by
    the kernel that assembled the closed form."""
    for n in range(3, 16):
        printed = power_sum_factored_form(n).render()
        assert parse_polynomial(printed) == power_sum_closed_form(n), n
    for n in range(1, 16):
        assert double_sum_closed_form(n) == power_sum_closed_form(n), n
        assert faulhaber_bernoulli_oracle(n) == power_sum_closed_form(n), n


# Frozen goldens, derived beforehand by fitting a degree-(n+1) polynomial
# through literal sums with exact Gaussian elimination, then cross-checked
# against brute force at 40 points.
CLASSICAL_RENDERINGS = {
    1: "1/2*m^2 + 1/2*m",
    2: "1/3*m^3 + 1/2*m^2 + 1/6*m",
    3: "1/4*m^4 + 1/2*m^3 + 1/4*m^2",
    4: "1/5*m^5 + 1/2*m^4 + 1/3*m^3 - 1/30*m",
    5: "1/6*m^6 + 1/2*m^5 + 5/12*m^4 - 1/12*m^2",
    6: "1/7*m^7 + 1/2*m^6 + 1/2*m^5 - 1/6*m^3 + 1/42*m",
    7: "1/8*m^8 + 1/2*m^7 + 7/12*m^6 - 7/24*m^4 + 1/12*m^2",
}


def test_c09_golden_closed_forms():
    """Expanded renderings for n = 1..7 match the classical formulas."""
    for n, expected in CLASSICAL_RENDERINGS.items():
        assert power_sum_closed_form(n).render() == expected, n


def test_c10_parser_precedence_and_roundtrip():
    """Operator precedence and associativity come out right, and rendering
    then reparsing 500 random polynomials is the identity."""
    assert parse_polynomial("2+3*x") == Polynomial((2, 3))
    assert parse_polynomial("2*3+x") == Polynomial((6, 1))
    assert parse_polynomial("-x^2") == Polynomial((0, 0, -1))
    assert parse_polynomial("(-x)^2") == Polynomial((0, 0, 1))
    assert parse_polynomial("x^2^3") == Polynomial.monomial(1, 8)
    assert parse_polynomial("x - 1 - 2") == Polynomial((-3, 1))
    assert parse_polynomial("3x^2") == Polynomial((0, 0, 3))
    assert parse_polynomial("2(x+1)") == Polynomial((2, 2))
    rng = random.Random(74125)
    for _ in range(500):
        p = random_polynomial(rng, max_degree=10, max_num=50, max_den=50)
        assert parse_polynomial(p.render()) == p
