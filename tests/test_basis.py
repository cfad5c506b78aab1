from __future__ import annotations

import random
from fractions import Fraction
from math import comb as binomial
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial, random_rational
from polysum.basis import (
    alternating_sums,
    from_rising_basis,
    from_rising_row,
    to_rising_basis,
    to_rising_row,
)
from polysum.poly import Polynomial, over_common_denominator
from reference import (
    from_rising_row_stepwise,
    rising_factorial_basis_poly,
    solve_interpolation_system,
    to_rising_row_stepwise,
)

X_SQUARED = Polynomial((0, 0, 1))


def test_to_rising_basis_x_squared():
    # by hand: w0 = f(0) = 0; w1 = f(0) - f(-1) = -1; w2 = f(0)/2 - f(-1) + f(-2)/2 = 0 - 1 + 2 = 1
    assert to_rising_basis(X_SQUARED) == (Fraction(0), Fraction(-1), Fraction(1))


def test_to_rising_basis_constant():
    assert to_rising_basis(Polynomial.constant(Fraction(7, 3))) == (Fraction(7, 3),)


def test_to_rising_basis_identity_poly():
    assert to_rising_basis(Polynomial((0, 1))) == (Fraction(0), Fraction(1))


def test_to_rising_basis_zero():
    assert to_rising_basis(Polynomial()) == ()


def test_basis_products_are_fixed_points():
    for i in range(1, 8):
        assert to_rising_basis(rising_factorial_basis_poly(i)) == (Fraction(0),) * i + (Fraction(1),)


def literal_weights(values):
    """The alternating binomial sum, term by term: the reference for the
    forward-difference kernel and for synthetic division."""
    return tuple(
        Fraction(sum((-1) ** k * binomial(i, k) * values[k] for k in range(i + 1)), factorial(i))
        for i in range(len(values))
    )


def weights_from_alternating_sums(values):
    """w_i = alternating_sums[i] / (i! * D) of the values over their common denominator D."""
    row, den = over_common_denominator(values)
    return tuple(Fraction(s, factorial(i) * den) for i, s in enumerate(alternating_sums(row)))


def test_alternating_sums_match_the_literal_sum():
    rng = random.Random(20261018)
    kinds = {
        "int": lambda: rng.randint(-(10**30), 10**30),
        "fraction": lambda: Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25)),
    }
    kinds["mixed"] = lambda: kinds[rng.choice(["int", "fraction"])]()
    for kind, draw in kinds.items():
        for length in range(1, 42):
            values = [draw() for _ in range(length)]
            assert weights_from_alternating_sums(values) == literal_weights(values), (kind, length)
    assert alternating_sums([]) == []
    assert alternating_sums([7]) == [7]
    # the paper's sums for n = 3: (-1)^i i! S(3, i)
    assert alternating_sums([k**3 for k in range(4)]) == [0, -1, 6, -6]


def test_to_rising_basis_of_an_integer_polynomial():
    rng = random.Random(20261019)

    def nonzero(num: int, den: int) -> Fraction:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, num), rng.randint(1, den))

    cases = []
    for degree in (1, 5, 20, 40):
        coeffs = [rng.randint(-(10**12), 10**12) for _ in range(degree)]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 10**12))  # nonzero leading term
        cases.append(Polynomial(coeffs))
    for degree in (1, 5, 20, 40):  # rational, denominators up to 10^12
        cases.append(Polynomial([nonzero(10**12, 10**12) for _ in range(degree + 1)]))
    # the benchmark's general_sum shapes at its top degree 60, and one product at 200
    cases.append(Polynomial([nonzero(9, 9) for _ in range(61)]))
    cases.append(Polynomial((rng.randint(1, 4), 1)) ** 60)
    half = Polynomial((Fraction(1, 2), 1))
    for degree in (60, 200):
        a = rng.randint(1, degree - 1)
        cases.append(Polynomial((-3, 2)) ** a * half ** (degree - a))
    for f in cases:
        r = to_rising_basis(f)
        assert len(r) == f.degree + 1 and r[0] == f(0)
        assert r == literal_weights([f(-k) for k in range(f.degree + 1)]), f.degree
        assert from_rising_basis(r) == f
        if f.degree <= 40:
            assert r == solve_interpolation_system(f)


@pytest.mark.parametrize("length", range(31))
@settings(derandomize=True, database=None, max_examples=20)
@given(st.data())
def test_two_factor_kernels_match_the_one_factor_reference(length, data):
    # every length, so both parities of the count of factors, and ints up to 2^200
    entry = st.integers(-(2**200), 2**200)
    row = data.draw(st.lists(entry, min_size=length, max_size=length))
    den = data.draw(st.integers(1, 10**6))
    assert from_rising_row(row, den) == from_rising_row_stepwise(row, den)
    if row:
        row[-1] = row[-1] or 1  # a nonzero top keeps the length through Polynomial
    f = Polynomial.from_numerators(row, den)
    assert to_rising_row(f) == to_rising_row_stepwise(f)
    assert to_rising_row(from_rising_row(row, 1)) == row


@pytest.mark.parametrize(
    "row, numerators",
    [
        ([], ()),
        ([7], (7,)),
        ([7, 5], (7, 5)),  # 7 + 5x
        ([7, 5, 3], (7, 8, 3)),  # 7 + x(5 + 3(x + 1))
    ],
)
def test_short_rows_through_both_kernels(row, numerators):
    assert from_rising_row(row, 1).numerators == numerators
    assert to_rising_row(Polynomial.from_numerators(numerators)) == row


def test_from_rising_basis_examples():
    assert from_rising_basis((Fraction(0), Fraction(-1), Fraction(1))) == X_SQUARED
    assert from_rising_basis((Fraction(5),)) == Polynomial((5,))
    assert from_rising_basis((0, 0, 0, 1)) == Polynomial((0, 2, 3, 1))
    assert from_rising_basis(()) == Polynomial()


def test_from_rising_basis_matches_from_scratch_products():
    rng = random.Random(20240813)
    saw_interior_zero = saw_trailing_zero = False
    for _ in range(40):
        degree = rng.randint(0, 40)
        weights = (random_rational(rng, 50, 50),) + tuple(
            random_rational(rng, 50, 50) if rng.random() < 0.5 else Fraction(0)
            for _ in range(degree)
        )
        reference = Polynomial.constant(weights[0])
        for i, c in enumerate(weights[1:], start=1):
            reference = reference + rising_factorial_basis_poly(i).scale(c)
        assert from_rising_basis(weights) == reference
        saw_interior_zero |= Fraction(0) in weights[1:-1]
        saw_trailing_zero |= degree > 0 and weights[-1] == 0
    assert saw_interior_zero and saw_trailing_zero


def test_solve_interpolation_system_examples():
    assert solve_interpolation_system(X_SQUARED) == to_rising_basis(X_SQUARED)
    assert solve_interpolation_system(Polynomial()) == ()
    expanded = rising_factorial_basis_poly(3)
    assert solve_interpolation_system(expanded) == (Fraction(0),) * 3 + (Fraction(1),)


def test_roundtrip_random_polynomials():
    rng = random.Random(20240810)
    for _ in range(100):
        f = random_polynomial(rng, max_degree=12)
        assert from_rising_basis(to_rising_basis(f)) == f


def test_closed_form_agrees_with_interpolation_system():
    rng = random.Random(20240811)
    for _ in range(100):
        f = random_polynomial(rng, max_degree=12)
        assert to_rising_basis(f) == solve_interpolation_system(f)


def test_pointwise_agreement_at_interpolation_points_and_beyond():
    rng = random.Random(20240812)
    for _ in range(30):
        f = random_polynomial(rng, max_degree=10)
        g = from_rising_basis(to_rising_basis(f))
        n = max(f.degree, 0)
        for x in range(-n, n + 1):
            assert f(x) == g(x)


def test_alternating_binomial_sum_vanishes():
    # the cancellation that makes the triangular system solvable
    for k in range(1, 31):
        total = sum((-1) ** j * binomial(k, j) for j in range(k + 1))
        assert total == 0
