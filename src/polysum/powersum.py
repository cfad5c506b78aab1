"""Closed forms for power sums S_n(m) = 1^n + 2^n + ... + m^n.

Both forms are the paper's formula, which needs no Bernoulli numbers:

    S_n(m) = (-1)^n * sum_{i=1..n} a_i * m(m+1)(m+2)...(m+i),

    a_i = 1/(i+1) * sum_{k=0..i} (-1)^k * k^n / (k! * (i-k)!),

where the inner sum is (-1)^i S(n,i), S the Stirling numbers of the second
kind.  The sign (-1)^n goes into the values: i! times the inner sums, times
(-1)^n, are basis.alternating_sums of (-k)^n, k = 0..n.  _weights puts them
over (i+1)! as S_n's own weights w_i = (-1)^n a_i on m(m+1)...(m+i), w_0 = 0,
in one int row over one denominator, and checks, on every call,
w_n = 1/(n+1) and S_n(1) = 1, which is sum w_i (i+1)!.  power_sum_closed_form
hands the row to summation.close, the step that assembles and checks every
closed form, here with f = m^n.  coefficients(n) makes the paper's a_i, the
row times (-1)^n, as Fractions, and that record is the factored form: with
a_1 = -1/2 the common factor m(m+1) comes out, giving

    S_n(m) = (-1)^n * m(m+1) * (-1/2 + sum_{i=2..n} a_i (m+2)(m+3)...(m+i)),

which power_sum_factored_form offers for n >= 3, where there is an inner sum;
its render parses back to power_sum_closed_form(n).  n and m are checked by
poly.check_int before any work, so a non-int is a TypeError and a bound reads
"n must be <= 1000 (got 1001)".

The paper's literal sum and the Bernoulli-number formula are test oracles in
tests/reference.py, which does not ship in the package.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .basis import alternating_sums
from .expr_parser import MAX_DEGREE
from .poly import Polynomial, Record, check_int, join_terms, lowest_terms, shown
from .summation import close

__all__ = [
    "PowerSumCoefficients",
    "coefficients",
    "power_sum_closed_form",
    "power_sum_factored_form",
    "power_sum_value",
]


class PowerSumCoefficients(Record):
    """Weights a_1..a_n of the rising-factorial expansion of S_n, and with
    them S_n's factored form:

        S_n(m) = (-1)^n * m(m+1) * (a_1 + sum_{i=2..n} a_i (m+2)...(m+i)).

    coeffs[i-1] = a_i multiplies m(m+1)...(m+i).  Always a_1 = -1/2 and
    a_n = (-1)^n/(n+1).
    """

    __slots__ = ("n", "coeffs")

    def coefficient(self, i: int) -> Fraction:
        """a_i, 1-based, for 1 <= i <= n."""
        return self.coeffs[check_int("coefficient index", i, 1, self.n) - 1]

    def render(self, var: str = "m") -> str:
        """Display form keeping the factored structure, e.g. for n=3:
        -m*(m+1)*(-1/2 + (m+2) - 1/4*(m+2)*(m+3))."""
        factors = [f"({var}+{k})" for k in range(2, self.n + 1)]
        terms = [(c, "*".join(factors[:i])) for i, c in enumerate(self.coeffs)]
        sign = "-" if self.n % 2 else ""
        return f"{sign}{var}*({var}+1)*({join_terms(terms)})"


def _weights(n: int) -> tuple[list[int], int]:
    """S_n's weights w_0..w_n on m(m+1)...(m+i), w_0 = 0 and w_i = (-1)^n a_i,
    each by the defining sum, as one int row over one denominator;
    ArithmeticError unless w_n = 1/(n+1) and S_n(1) = 1.  Every entry point's
    one check of an int 1 <= n <= MAX_DEGREE, by check_int, before any work."""
    check_int("n", n, 1, MAX_DEGREE)
    sums = alternating_sums([(-k) ** n for k in range(n + 1)])
    row, den = lowest_terms(sums, list(accumulate(range(1, n + 2), mul)))  # over (i+1)!
    if row[-1] * (n + 1) != den:
        raise ArithmeticError(
            f"a_n disagrees with (-1)^n/(n+1) for n={n}: {(-1) ** n * row[-1]}/{den}"
        )
    if sum(sums) != 1:  # S_n(1) = sum w_i (i+1)!, and w_i (i+1)! is sums[i]
        raise ArithmeticError(f"the a_i give S_n(1) = {sum(sums)}, not 1, for n={n}")
    return row, den


def coefficients(n: int) -> PowerSumCoefficients:
    """All weights a_1..a_n for the exponent n, as Fractions."""
    row, den = _weights(n)
    # per-call tuples are built from lists: tuple(<generator>) over-allocates
    # and resizes, which raised peak memory by 8% over many cold builds
    return PowerSumCoefficients(n, tuple([Fraction((-1) ** n * w, den) for w in row[1:]]))


@functools.lru_cache(maxsize=128)
def power_sum_closed_form(n: int) -> Polynomial:
    """S_n(m) expanded in the monomial basis of m, from the weights of _weights(n).

    Degree n+1, divisible by m(m+1); ArithmeticError from summation.close
    unless S_n(1) = 1 and the leading coefficient is 1/(n+1).  Cached;
    results are immutable, so concurrent use is safe.
    """
    row, den = _weights(n)  # first, so the row of m^n is not alive while it runs
    return close(Polynomial.monomial(1, n), row, den)


def power_sum_factored_form(n: int) -> PowerSumCoefficients:
    """S_n's factored form, coefficients(n); requires an int n >= 3 (for
    smaller n there is no inner sum to factor).  n < 1 is left to _weights, as
    in the CLI."""
    if 1 <= check_int("n", n) < 3:
        raise ValueError(f"the factored form requires n >= 3 (got {n})")
    return coefficients(n)


def power_sum_value(n: int, m: int) -> int:
    """Exact integer S_n(m), by evaluating the expanded closed form.

    m = 0 gives the empty sum 0; TypeError unless m is an int.  The closed
    form always takes integer values at integers; a non-integer result would
    mean the construction itself is broken, so it raises rather than rounding.
    """
    check_int("m", m, 0)  # before the build, which an invalid m must not pay for
    num, den = power_sum_closed_form(n)._at(m)
    value, rest = divmod(num, den)  # one division in place of a Fraction's gcd
    if rest:
        raise ArithmeticError(
            f"closed form for n={n} gave non-integer {shown(Fraction(num, den))} at m={shown(m)}"
        )
    return value
