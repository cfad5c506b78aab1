from __future__ import annotations

import concurrent.futures
from fractions import Fraction
from math import factorial

import pytest

from polysum import powersum
from polysum.basis import from_rising_row
from polysum.expr_parser import parse_polynomial
from polysum.poly import Polynomial
from polysum.powersum import (
    PowerSumCoefficients,
    coefficients,
    power_sum_closed_form,
    power_sum_factored_form,
    power_sum_value,
)
from reference import (
    alternating_binomial_power_sum,
    bernoulli_numbers,
    brute_force_sum,
    coefficient_from_sum,
    double_sum_closed_form,
    faulhaber_bernoulli_oracle,
)


def test_coefficients_small_exponents():
    assert coefficients(1).coeffs == (Fraction(-1, 2),)
    assert coefficients(2).coeffs == (Fraction(-1, 2), Fraction(1, 3))
    assert coefficients(3).coeffs == (Fraction(-1, 2), Fraction(1), Fraction(-1, 4))


def test_coefficients_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        coefficients(0)
    with pytest.raises(ValueError):
        coefficient_from_sum(2, 3)


def test_first_and_last_coefficient_structure():
    for n in range(1, 31):
        a = coefficients(n)
        assert a.coefficient(1) == Fraction(-1, 2)
        assert a.coefficient(n) == Fraction((-1) ** n, n + 1)
        # the shortcut agrees with the defining sum
        assert coefficient_from_sum(n, n) == a.coefficient(n)


def test_coefficients_match_defining_sum():
    for n in range(1, 31):
        assert coefficients(n).coeffs == tuple(coefficient_from_sum(n, i) for i in range(1, n + 1))


def test_coefficients_match_stirling_numbers():
    # a_i = (-1)^i S(n,i)/(i+1), with S the Stirling numbers of the second
    # kind from S(n,k) = k S(n-1,k) + S(n-1,k-1)
    row = [1]  # S(0, k) for k = 0..0
    for n in range(1, 41):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, n + 1)]
        expected = tuple(Fraction((-1) ** i * row[i], i + 1) for i in range(1, n + 1))
        assert coefficients(n).coeffs == expected


def test_coefficients_check_the_closing_value(monkeypatch):
    # zero the last alternating sum: both forms are built from the same a_i, so
    # the a_n check fires in coefficients and in the cold closed-form build
    import polysum.powersum as powersum_module

    real = powersum_module.alternating_sums
    monkeypatch.setattr(powersum_module, "alternating_sums", lambda values: real(values)[:-1] + [0])
    with pytest.raises(ArithmeticError, match="a_n disagrees"):
        coefficients(4)
    power_sum_closed_form.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="a_n disagrees"):
            power_sum_closed_form(4)
    finally:
        power_sum_closed_form.cache_clear()


def test_weights_check_the_value_at_one(monkeypatch):
    # move one middle alternating sum by -1: a_n still passes, but
    # S_n(1) = sum w_i (i+1)! is off by one, so every form built from the row raises
    real = powersum.alternating_sums

    def bumped(values):
        sums = real(values)
        sums[3] -= 1
        return sums

    monkeypatch.setattr(powersum, "alternating_sums", bumped)
    with pytest.raises(ArithmeticError, match=r"S_n\(1\) = 0, not 1, for n=5"):
        coefficients(5)
    with pytest.raises(ArithmeticError, match=r"S_n\(1\)"):
        power_sum_factored_form(5)
    power_sum_closed_form.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"S_n\(1\)"):
            power_sum_closed_form(5)
    finally:
        power_sum_closed_form.cache_clear()


def test_weights_are_the_closed_forms_row():
    # _weights returns S_n's own weights on m(m+1)...(m+i), i = 0..n: no weight
    # on m alone, 1/(n+1) on the last product, and the row closes to S_n as it is
    for n in range(1, 61):
        row, den = powersum._weights(n)
        assert row[0] == 0
        assert Fraction(row[-1], den) == Fraction(1, n + 1)
        assert from_rising_row([0, *row], den) == power_sum_closed_form(n), n


def test_closed_form_checks_the_leading_coefficient(monkeypatch):
    # the weights a_i pass their own check; the assembled polynomial gains
    # m^(n+1), which moves S_n(1) too, so summation.close's m=1 check fires first
    import polysum.summation as summation_module

    real = summation_module.from_rising_row
    monkeypatch.setattr(
        summation_module,
        "from_rising_row",
        lambda row, den: real(row, den) + Polynomial.monomial(1, len(row) - 1),
    )
    power_sum_closed_form.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="m=1"):
            power_sum_closed_form(4)
    finally:
        power_sum_closed_form.cache_clear()


def test_coefficient_accessor_bounds():
    a = coefficients(3)
    with pytest.raises(ValueError):
        a.coefficient(0)
    with pytest.raises(ValueError):
        a.coefficient(4)


def test_closed_form_small_exponents():
    assert power_sum_closed_form(1).render() == "1/2*m^2 + 1/2*m"
    assert power_sum_closed_form(2).render() == "1/3*m^3 + 1/2*m^2 + 1/6*m"
    assert power_sum_closed_form(3).render() == "1/4*m^4 + 1/2*m^3 + 1/4*m^2"
    with pytest.raises(ValueError):
        power_sum_closed_form(0)


def test_closed_form_principal_term():
    for n in range(1, 21):
        closed = power_sum_closed_form(n)
        assert closed.degree == n + 1
        assert closed.leading_coefficient == Fraction(1, n + 1)


def test_closed_form_divisible_by_m_m_plus_1():
    # m and m + 1 are coprime linear factors: m(m+1) divides S_n iff both are roots
    for n in range(1, 21):
        closed = power_sum_closed_form(n)
        assert closed(0) == closed(-1) == 0, n


def test_closed_form_agrees_with_general_summation():
    from polysum.summation import sum_polynomial

    for n in range(1, 21):
        general = sum_polynomial(Polynomial.monomial(1, n)).poly
        assert power_sum_closed_form(n) == general


def test_factored_form_requires_three():
    with pytest.raises(ValueError):
        power_sum_factored_form(2)


def test_factored_render_skips_a_zero_coefficient():
    form = PowerSumCoefficients(4, (Fraction(-1, 2), Fraction(0), Fraction(1, 5), Fraction(-1, 5)))
    assert form.render() == "m*(m+1)*(-1/2 + 1/5*(m+2)*(m+3) - 1/5*(m+2)*(m+3)*(m+4))"


def test_factored_form_cubic():
    form = power_sum_factored_form(3)
    assert form == coefficients(3)
    assert form.coeffs[0] == Fraction(-1, 2)
    assert form.render() == "-m*(m+1)*(-1/2 + (m+2) - 1/4*(m+2)*(m+3))"
    printed = parse_polynomial(form.render())
    assert printed(1) == 1
    assert printed(2) == 9


def test_factored_form_quartic_value():
    assert parse_polynomial(power_sum_factored_form(4).render())(3) == 98  # 1 + 16 + 81


def test_printed_factored_form_parses_to_the_closed_form():
    for n in (1, 2):
        assert parse_polynomial(coefficients(n).render("x")) == power_sum_closed_form(n)
    for n in range(3, 61):
        assert parse_polynomial(power_sum_factored_form(n).render("x")) == power_sum_closed_form(n)


def test_power_sum_value_examples():
    assert power_sum_value(4, 0) == 0
    assert power_sum_value(2, 3) == 14
    assert power_sum_value(10, 100) == brute_force_sum(Polynomial.monomial(1, 10), 100)
    # wide points split the closed form into Horner chunks, and the zero
    # numerators of S_n fall inside and at the ends of them
    for m in (10**300 + 7, 10**600 + 7):  # S_3 at the second is two chunks
        assert power_sum_value(3, m) == (m * (m + 1) // 2) ** 2  # Nicomachus
    m = 3 * 10**299 + 12345
    for n in (63, 64):  # eight and nine chunks
        oracle = faulhaber_bernoulli_oracle(n)
        assert power_sum_value(n, m) == sum(c * m**j for j, c in enumerate(oracle.coeffs))


def test_power_sum_value_is_int():
    value = power_sum_value(7, 123)
    assert isinstance(value, int)


def test_power_sum_value_domain_errors():
    with pytest.raises(ValueError):
        power_sum_value(0, 5)
    with pytest.raises(ValueError):
        power_sum_value(3, -1)


@pytest.mark.parametrize("m", [2.5, 3.0, Fraction(5, 2), Fraction(3), "3", None])
def test_power_sum_value_takes_only_int_m(m, monkeypatch):
    def no_build(n):
        raise AssertionError("a non-int m reached the closed form")

    monkeypatch.setattr(powersum, "power_sum_closed_form", no_build)
    with pytest.raises(TypeError, match="m must be an int"):
        power_sum_value(3, m)


def test_power_sum_value_rejects_a_non_integer_value(monkeypatch):
    """A closed form that is not integer-valued at an integer m is a broken
    construction: ArithmeticError, not a rounded value."""
    half_m = Polynomial((0, Fraction(1, 2)))
    monkeypatch.setattr(powersum, "power_sum_closed_form", lambda n: half_m)
    assert power_sum_value(3, 4) == 2
    with pytest.raises(ArithmeticError, match="non-integer 3/2 at m=3"):
        power_sum_value(3, 3)
    # past Python's int-to-string digit limit the message quotes sizes, not digits
    with pytest.raises(ArithmeticError, match="non-integer .* at m="):
        power_sum_value(3, 10**5000 + 1)


def test_power_sum_value_against_literal_sums():
    for n in range(1, 9):
        literal = 0
        for m in range(0, 51):
            if m:
                literal += m**n
            assert power_sum_value(n, m) == literal


def test_double_sum_form_equals_closed_form():
    assert double_sum_closed_form(1).render() == "1/2*m^2 + 1/2*m"
    for n in range(1, 16):
        assert double_sum_closed_form(n) == power_sum_closed_form(n)
    with pytest.raises(ValueError):
        double_sum_closed_form(0)


def test_bernoulli_numbers():
    table = bernoulli_numbers(12)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[4] == Fraction(-1, 30)
    assert table[6] == Fraction(1, 42)
    assert table[12] == Fraction(-691, 2730)
    for odd in range(3, 13, 2):
        assert table[odd] == 0
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_faulhaber_oracle_small_exponents():
    assert faulhaber_bernoulli_oracle(1).render() == "1/2*m^2 + 1/2*m"
    assert faulhaber_bernoulli_oracle(2).render() == "1/3*m^3 + 1/2*m^2 + 1/6*m"


def test_faulhaber_oracle_agrees_with_closed_form():
    for n in range(1, 16):
        assert faulhaber_bernoulli_oracle(n) == power_sum_closed_form(n)
    with pytest.raises(ValueError):
        faulhaber_bernoulli_oracle(0)


@pytest.mark.parametrize("n", [60, 100, 200, 300])
def test_faulhaber_oracle_agrees_with_large_closed_forms(n):
    assert faulhaber_bernoulli_oracle(n) == power_sum_closed_form(n)


def test_alternating_binomial_power_sum():
    assert alternating_binomial_power_sum(1) == -1
    assert alternating_binomial_power_sum(2) == 2  # -2*1 + 1*4
    assert alternating_binomial_power_sum(3) == -6  # -3*1 + 3*8 - 27
    for n in range(1, 31):
        expected = factorial(n) * (-1 if n % 2 else 1)
        assert alternating_binomial_power_sum(n) == expected
    with pytest.raises(ValueError):
        alternating_binomial_power_sum(0)


def test_concurrent_use_matches_sequential():
    # the closed-form cache must be invisible to callers
    sequential = {(n, m): power_sum_value(n, m) for n in range(1, 13) for m in range(0, 30)}
    power_sum_closed_form.cache_clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = {
            (n, m): pool.submit(power_sum_value, n, m)
            for n in range(1, 13)
            for m in range(0, 30)
        }
        for key, future in futures.items():
            assert future.result() == sequential[key]


def test_closed_form_cache_is_bounded():
    assert power_sum_closed_form.cache_info().maxsize == 128
