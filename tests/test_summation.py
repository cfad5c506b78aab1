from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from polysum import summation
from polysum.expr_parser import parse_polynomial
from polysum.poly import Polynomial
from polysum.powersum import power_sum_closed_form, power_sum_value
from polysum.summation import sum_polynomial, sum_range
from reference import brute_force_sum, rising_factorial_basis_poly, sum_rising_factorial

X = Polynomial((0, 1))
X_SQUARED = Polynomial((0, 0, 1))
X_CUBED = Polynomial((0, 0, 0, 1))


def test_sum_rising_factorial_triangular():
    assert sum_rising_factorial(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)))


def test_sum_rising_factorial_length_two():
    # sum of x(x+1) equals m(m+1)(m+2)/3; spot value 2+6+12 = 20 at m=3
    expected = rising_factorial_basis_poly(3).scale(Fraction(1, 3))
    assert sum_rising_factorial(2) == expected
    assert sum_rising_factorial(2)(3) == 20
    summand = rising_factorial_basis_poly(2)
    for m in range(1, 11):
        assert sum_rising_factorial(2)(m) == brute_force_sum(summand, m)


def test_sum_rising_factorial_brute_force_small_lengths():
    for i in range(1, 9):
        closed = sum_rising_factorial(i)
        summand = rising_factorial_basis_poly(i)
        literal = Fraction(0)
        for m in range(1, 51):
            literal += summand(m)
            assert closed(m) == literal


def test_sum_rising_factorial_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        sum_rising_factorial(0)


def test_sum_polynomial_square():
    g = sum_polynomial(X_SQUARED)
    assert g.poly.render() == "1/3*m^3 + 1/2*m^2 + 1/6*m"
    assert g.source_degree == 2
    for m in range(1, 51):
        assert g.poly(m) == brute_force_sum(X_SQUARED, m)


def test_sum_polynomial_constant():
    g = sum_polynomial(Polynomial((1,)))
    assert g.poly == X
    assert g.source_degree == 0


def test_sum_polynomial_cubic_minus_linear():
    f = Polynomial((0, -1, 0, 1))
    g = sum_polynomial(f)
    assert g.value_at(3) == 30  # (1-1) + (8-2) + (27-3)


def test_sum_polynomial_zero():
    g = sum_polynomial(Polynomial())
    assert g.poly == Polynomial()
    assert g.source_degree == 0


def test_closed_form_invariants():
    rng = random.Random(20240820)
    for _ in range(40):
        f = random_polynomial(rng, max_degree=8)
        g = sum_polynomial(f)
        assert g.poly.coefficient(0) == 0  # divisible by m
        if f:
            assert g.poly.degree == f.degree + 1


def test_value_at_zero_and_negative():
    g = sum_polynomial(X)
    assert g.value_at(0) == 0
    with pytest.raises(ValueError):
        g.value_at(-1)
    # the polynomial itself carries the extension
    assert g.poly(-1) == 0  # m(m+1)/2 at m=-1


@pytest.mark.parametrize("m", [2.5, 3.0, Fraction(5, 2), Fraction(3), "3", None])
def test_value_at_takes_only_int_m(m):
    g = sum_polynomial(X_CUBED)
    with pytest.raises(TypeError, match="m must be an int"):
        g.value_at(m)
    assert g.poly(Fraction(5, 2)) == Fraction(1225, 64)  # the extension stays on poly


@pytest.mark.parametrize("m", [2.5, "3", None, -1])
def test_value_at_and_power_sum_value_check_m_alike(m):
    # one check of the count serves both routes: same exception, same message
    raised = []
    for call in (sum_polynomial(X).value_at, lambda m: power_sum_value(3, m)):
        with pytest.raises((TypeError, ValueError)) as info:
            call(m)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_sum_range_examples():
    assert sum_range(X_SQUARED, 1, 4) == 30
    assert sum_range(X, 5, 5) == 5
    assert sum_range(Polynomial((0, 0, 0, 1)), 3, 6) == 432


def test_sum_range_rejects_empty_range():
    with pytest.raises(ValueError):
        sum_range(X, 3, 2)


@pytest.mark.parametrize(
    "lo, hi, name",
    [(1.5, 3, "lo"), (Fraction(3, 2), 3, "lo"), (1, 3.5, "hi"), (1, Fraction(7, 2), "hi"),
     (4.0, 3, "lo"), (4, Fraction(3), "hi")],
    ids=["float-lo", "fraction-lo", "float-hi", "fraction-hi", "float-lo-above-hi",
         "fraction-hi-below-lo"],
)
def test_sum_range_takes_only_int_bounds(lo, hi, name, monkeypatch):
    # at a non-int bound g(hi) - g(lo - 1) is a polynomial value, not a sum;
    # the type is checked before the empty-range check and before any work
    def no_sum(f):
        raise AssertionError("a non-int bound reached the closed form")

    monkeypatch.setattr(summation, "sum_polynomial", no_sum)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        sum_range(X_SQUARED, lo, hi)


def test_sum_range_extends_below_one():
    # documented polynomial extension: matches literal summation over lo..hi
    f = Polynomial((2, 1, 3))
    for lo in range(-5, 2):
        for hi in range(lo, 6):
            literal = sum(f(x) for x in range(lo, hi + 1))
            assert sum_range(f, lo, hi) == literal


def test_brute_force_sum_examples():
    assert brute_force_sum(X_SQUARED, 3) == 14
    assert brute_force_sum(Polynomial((1,)), 7) == 7
    assert brute_force_sum(Polynomial.monomial(1, 5), 10) == 220825


def test_brute_force_sum_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        brute_force_sum(X, 0)


def test_closed_form_matches_brute_force_on_random_polynomials():
    rng = random.Random(20240821)
    for _ in range(30):
        f = random_polynomial(rng, max_degree=8)
        g = sum_polynomial(f).poly
        literal = Fraction(0)
        for m in range(1, 31):
            literal += f(m)
            assert g(m) == literal


def test_linearity():
    rng = random.Random(20240822)
    for _ in range(25):
        f = random_polynomial(rng, max_degree=6)
        g = random_polynomial(rng, max_degree=6)
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        combined = sum_polynomial(f.scale(alpha) + g.scale(beta)).poly
        split = sum_polynomial(f).poly.scale(alpha) + sum_polynomial(g).poly.scale(beta)
        assert combined == split


def test_telescoping():
    rng = random.Random(20240823)
    for _ in range(20):
        f = random_polynomial(rng, max_degree=8)
        g = sum_polynomial(f).poly
        for m in range(2, 51):
            assert g(m) - g(m - 1) == f(m)


# Both routes close through summation.close, so the same three tampers with
# its assembly must trip its checks on each.
TAMPERS = pytest.mark.parametrize(
    ("tamper", "message"),
    [
        # one more at every m: g(1) is off, the leading term is not
        (lambda g: g + Polynomial((1,)), "m=1"),
        # the leading coefficient moves by 1 and m^1 by -1, so g(1) holds
        (lambda g: g + Polynomial.monomial(1, g.degree) - X, "leading term"),
        (lambda g: g + Polynomial.monomial(1, g.degree + 1) - X, "leading term"),
    ],
)


def tamper_with_assembly(monkeypatch, tamper):
    import polysum.summation as summation_module

    real = summation_module.from_rising_row
    monkeypatch.setattr(summation_module, "from_rising_row", lambda row, den: tamper(real(row, den)))


@TAMPERS
def test_sum_polynomial_checks_its_invariants(monkeypatch, tamper, message):
    tamper_with_assembly(monkeypatch, tamper)
    f = Polynomial((Fraction(1, 3), -2, 0, 5))
    with pytest.raises(ArithmeticError, match=message):
        sum_polynomial(f)


@pytest.mark.parametrize(
    ("tamper", "message"),
    [
        (lambda g: g + X, "m=1"),
        (lambda g: g + Polynomial.monomial(1, g.degree) - X, "leading term"),
    ],
)
def test_a_failed_check_on_a_huge_form_stays_an_arithmetic_error(monkeypatch, tamper, message):
    # f(1) = (10^40 + 1)^120 has 4,801 digits, past Python's default limit of 4,300,
    # so the message quotes g(1) and f(1), or g's leading coefficient, by its size
    tamper_with_assembly(monkeypatch, tamper)
    f = parse_polynomial(f"({10**40}x+1)^120")
    with pytest.raises(ArithmeticError, match=message):
        sum_polynomial(f)


@TAMPERS
def test_power_sum_closed_form_checks_its_invariants(monkeypatch, tamper, message):
    tamper_with_assembly(monkeypatch, tamper)
    power_sum_closed_form.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=message):
            power_sum_closed_form(4)
    finally:
        power_sum_closed_form.cache_clear()
