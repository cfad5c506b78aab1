from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

# The rational type is fractions.Fraction; these tests pin the canonical-form
# invariants and check the operator suite against an independent
# numerator/denominator model.

nums = st.integers(min_value=-50, max_value=50)
dens = st.integers(min_value=1, max_value=50)


def reduced(num: int, den: int) -> tuple[int, int]:
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g == 0:
        return 0, 1
    return num // g, den // g


@given(nums, dens)
def test_rational_canonical_form(a, b):
    q = Fraction(a, b)
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    assert (q.numerator, q.denominator) == reduced(a, b)
    if a == 0:
        assert (q.numerator, q.denominator) == (0, 1)


@given(nums, dens, nums, dens)
def test_rational_arithmetic_matches_model(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (x + y) == Fraction(a * d + c * b, b * d)
    assert (x - y) == Fraction(a * d - c * b, b * d)
    assert (x * y) == Fraction(a * c, b * d)
    assert (-x) == Fraction(-a, b)
    if c != 0:
        assert (x / y) == Fraction(a * d, b * c)
    assert (x < y) == (a * d < c * b)
    assert (x == y) == (a * d == c * b)
    assert (x == 0) == (a == 0)


@given(nums, dens, st.integers(min_value=0, max_value=6))
def test_rational_pow_matches_model(a, b, e):
    assert Fraction(a, b) ** e == Fraction(a**e, b**e)


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)
