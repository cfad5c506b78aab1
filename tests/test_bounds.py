"""Each library entry point checks its own bounds before any work, with the
text the CLI prints: a call one past a bound raises ValueError, a call at the
bound gets as far as the work, and a non-int argument raises TypeError."""

from __future__ import annotations

import sys

import pytest

import polysum.powersum
import polysum.summation
from polysum.poly import Polynomial
from polysum.powersum import (
    coefficients,
    power_sum_closed_form,
    power_sum_factored_form,
    power_sum_value,
)
from polysum.summation import ClosedFormSum, sum_range


class Reached(Exception):
    """Raised in place of the work, so a call shows that it passed its checks."""


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    def reached(*args):
        raise Reached

    monkeypatch.setattr(polysum.powersum, "alternating_sums", reached)
    monkeypatch.setattr(polysum.summation, "sum_polynomial", reached)
    power_sum_closed_form.cache_clear()  # a cached S_n would skip the work


def too_large(bits: int) -> str:
    return (
        "(degree + 1) * bit length of max(|lo - 1|, |hi|) at degree 1000 "
        f"must be <= 1048576 (got {bits})"
    )


X_1000 = Polynomial.monomial(1, 1000)
TOP = 2**1047  # 1001 * 1047 bits is inside 2^20, 1001 * 1048 is past it

POWER_SUM_CALLS = [
    (power_sum_closed_form, ()),
    (coefficients, ()),
    (power_sum_value, (5,)),
]

# (function, arguments, message past the bound, or None at it)
CASES = [
    *[
        case
        for call, extra in POWER_SUM_CALLS
        for case in [
            (call, (1, *extra), None),
            (call, (0, *extra), "n must be >= 1 (got 0)"),
            (call, (1000, *extra), None),
            (call, (1001, *extra), "n must be <= 1000 (got 1001)"),
        ]
    ],
    (power_sum_factored_form, (3,), None),
    (power_sum_factored_form, (2,), "the factored form requires n >= 3 (got 2)"),
    # n >= 1 is checked first, as the CLI orders its messages
    (power_sum_factored_form, (-3,), "n must be >= 1 (got -3)"),
    (power_sum_factored_form, (1000,), None),
    (power_sum_factored_form, (1001,), "n must be <= 1000 (got 1001)"),
    (sum_range, (X_1000, 1, TOP - 1), None),
    (sum_range, (X_1000, 1, TOP), too_large(1001 * 1048)),
    (sum_range, (X_1000, 2 - TOP, 1), None),  # |lo - 1| = TOP - 1
    (sum_range, (X_1000, 1 - TOP, 1), too_large(1001 * 1048)),
    (sum_range, (X_1000, 1, 10**4000), too_large(1001 * 13288)),
]

# (function, arguments, message): one non-int argument each, refused before any work
NON_INT_CASES = [
    (power_sum_closed_form, (2.5,), "n must be an int (got float)"),
    (coefficients, ("3",), "n must be an int (got str)"),
    (power_sum_factored_form, (2.5,), "n must be an int (got float)"),
    (power_sum_value, (2.5, 3), "n must be an int (got float)"),
    (Polynomial.monomial, (1, 2.0), "monomial power must be an int (got float)"),
    (Polynomial.from_numerators, ((1,), 2.0), "the denominator must be an int (got float)"),
    (ClosedFormSum(Polynomial((0, 1)), 0).value_at, (1.5,), "m must be an int (got float)"),
    (sum_range, (X_1000, 1.0, 2), "lo must be an int (got float)"),
    (pow, (X_1000, 2.5), "polynomial power must be an int (got float)"),
    (X_1000.coefficient, (1.5,), "power must be an int (got float)"),
]


def case_id(case) -> str:
    call, args, message = case
    shown = ", ".join(
        "x^1000" if isinstance(a, Polynomial)
        else repr(a) if not isinstance(a, int)
        else f"{'-' * (a < 0)}<{a.bit_length()} bits>" if abs(a) > 10**6 else str(a)
        for a in args
    )
    return f"{call.__name__}({shown})-{'past' if message else 'at'}"


@pytest.mark.parametrize(("call", "args", "message"), CASES, ids=[case_id(c) for c in CASES])
def test_a_call_past_a_bound_raises_before_any_work(call, args, message):
    if message is None:
        with pytest.raises(Reached):
            call(*args)
    else:
        with pytest.raises(ValueError) as info:
            call(*args)
        assert str(info.value) == message


@pytest.mark.parametrize(
    ("call", "args", "message"), NON_INT_CASES, ids=[case_id(c) for c in NON_INT_CASES]
)
def test_a_non_int_argument_raises_type_error_before_any_work(call, args, message):
    with pytest.raises(TypeError) as info:
        call(*args)
    assert str(info.value) == message


# 10^5000 is past Python's int-to-string digit limit (4300 digits by default),
# so a message quotes its size, not its digits, and keeps the bound's own words
HUGE = 10**5000
HUGE_SHOWN = "<a 16610-bit number>"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int-string limit disabled")
@pytest.mark.parametrize(
    ("call", "args", "message"),
    [
        (power_sum_value, (3, -HUGE), f"m must be >= 0 (got {HUGE_SHOWN})"),
        (sum_range, (X_1000, HUGE, 1), f"empty range: lo={HUGE_SHOWN} > hi=1"),
        (pow, (X_1000, -HUGE), f"polynomial power must be >= 0 (got {HUGE_SHOWN})"),
    ],
    ids=["power_sum_value", "sum_range", "pow"],
)
def test_a_bound_quotes_a_value_past_the_digit_limit_by_its_size(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message
