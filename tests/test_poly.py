from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial, random_rational
from polysum.expr_parser import MAX_DEGREE, ParseError, parse_polynomial
from polysum.poly import Polynomial
from reference import rising_factorial_basis_poly

X = Polynomial((0, 1))


def test_trailing_zeros_trimmed():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial((0,)).coeffs == ()
    assert Polynomial(()).coeffs == ()


@pytest.mark.parametrize(
    "p", [Polynomial(), Polynomial((3, 0, -2)), Polynomial((Fraction(1, 2), 0, Fraction(-2, 3)))]
)
def test_repr_evaluates_back_to_the_polynomial(p):
    assert eval(repr(p)) == p


def test_string_and_float_coefficients_are_read_as_fractions():
    assert Polynomial(["1/2", 0.25]) == Polynomial((Fraction(1, 2), Fraction(1, 4)))


def test_zero_polynomial_degree_marker():
    zero = Polynomial()
    assert not zero
    assert zero.degree == -1
    for d in range(0, 40):
        assert zero.degree < d


def test_add_cancellation():
    assert (X + Polynomial((1,))) + (X - Polynomial((1,))) == Polynomial((0, 2))


def test_mul_distributes():
    assert X * (X + Polynomial((1,))) == Polynomial((0, 1, 1))


def test_scale():
    assert Polynomial((4, 2)).scale(Fraction(1, 2)) == Polynomial((2, 1))
    assert Polynomial((4, 2)).scale(0) == Polynomial()
    assert 2 * Polynomial((1, 1)) == Polynomial((2, 2))
    assert Fraction(1, 3) * Polynomial((3, 6)) == Polynomial((1, 2))


def test_eval_examples():
    assert Polynomial((0, 0, 1))(-2) == 4
    assert Polynomial((0, -1, 0, 1))(0) == 0
    assert Polynomial((5, 3, 2))(7) == 124  # 2*49 + 3*7 + 5, term-by-term


@pytest.mark.parametrize("t", [0.5, "1/2"])
def test_eval_takes_any_fraction_argument(t):
    assert Polynomial((1, 2))(t) == 2


@pytest.mark.parametrize(
    "operation",
    [
        lambda p: p + 1,
        lambda p: p - 1,
        lambda p: p * None,
        lambda p: None * p,
        lambda p: "a" * p,
    ],
)
def test_operations_with_a_non_polynomial_are_type_errors(operation):
    with pytest.raises(TypeError):
        operation(Polynomial((1, 2)))


def test_rising_factorial_basis_poly():
    assert rising_factorial_basis_poly(2) == Polynomial((0, 1, 1))
    assert rising_factorial_basis_poly(3) == Polynomial((0, 2, 3, 1))  # x(x+1)(x+2)
    assert rising_factorial_basis_poly(1) == X
    with pytest.raises(ValueError):
        rising_factorial_basis_poly(0)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20240801)
    for _ in range(60):
        p = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        q = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        r = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_eval_is_ring_homomorphism():
    rng = random.Random(20240802)
    for _ in range(60):
        p = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        q = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        t = random_rational(rng, 20, 20)
        assert (p * q)(t) == p(t) * q(t)
        assert (p + q)(t) == p(t) + q(t)


def test_degree_of_product_adds():
    rng = random.Random(20240804)
    checked = 0
    while checked < 40:
        p = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        q = random_polynomial(rng, max_degree=8, max_num=20, max_den=20)
        if not p or not q:
            continue
        assert (p * q).degree == p.degree + q.degree
        checked += 1


def test_pow():
    assert X**0 == Polynomial((1,))
    assert (X + Polynomial((1,))) ** 2 == Polynomial((1, 2, 1))
    assert X**5 == Polynomial.monomial(1, 5)
    with pytest.raises(ValueError):
        X ** (-1)


def test_render_golden_format():
    s2 = Polynomial((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    assert s2.render() == "1/3*m^3 + 1/2*m^2 + 1/6*m"
    assert Polynomial().render() == "0"
    assert Polynomial((5,)).render() == "5"
    assert Polynomial((Fraction(-1, 2),)).render() == "-1/2"
    assert Polynomial((0, 1)).render() == "m"
    assert Polynomial((0, -1)).render() == "-m"
    assert Polynomial((-1, 2, -1)).render("x") == "-x^2 + 2*x - 1"
    assert Polynomial((2, -2, 0, 3)).render("x") == "3*x^3 - 2*x + 2"
    assert str(s2) == s2.render()


def test_render_parses_back_up_to_the_degree_bound():
    at_bound = Polynomial.monomial(1, MAX_DEGREE)
    assert parse_polynomial(at_bound.render()) == at_bound
    with pytest.raises(ParseError) as e:  # "m^1001": the exponent at byte 2
        parse_polynomial(Polynomial.monomial(1, MAX_DEGREE + 1).render())
    assert e.value.offset == 2


def test_coefficient_accessor():
    p = Polynomial((1, 0, 3))
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 3
    assert p.coefficient(9) == 0
    assert p.leading_coefficient == 3
    assert Polynomial().leading_coefficient == 0


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert hash(p) == hash(Polynomial((1, 2)))


def test_constant_and_monomial_constructors():
    assert Polynomial.constant(Fraction(1, 3)) == Polynomial((Fraction(1, 3),))
    assert Polynomial.constant(0) == Polynomial()
    assert Polynomial.monomial(2, 3) == Polynomial((0, 0, 0, 2))
    with pytest.raises(ValueError):
        Polynomial.monomial(1, -1)


@pytest.mark.parametrize("power", [0, 1, 1000])
@pytest.mark.parametrize(
    ("coeff", "numerator", "denominator"),
    [(-7, -7, 1), (Fraction(6, -4), -3, 2), ("1/2", 1, 2), (0, 0, 1)],
)
def test_monomial_is_the_int_row(coeff, numerator, denominator, power):
    expected = Polynomial.from_numerators([0] * power + [numerator], denominator)
    p = Polynomial.monomial(coeff, power)
    assert p == expected
    assert p == Polynomial((0,) * power + (coeff,))  # the general constructor agrees
