"""Dense univariate polynomial arithmetic over exact rationals.

A polynomial is a tuple of Fraction coefficients, index j holding the
coefficient of x^j.  Trailing zeros are trimmed at construction, so
structural equality is mathematical equality; the zero polynomial is the
empty tuple.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Polynomial"]

Scalar = Union[Fraction, int]


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c: Scalar) -> Polynomial:
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: Scalar, power: int) -> Polynomial:
        if power < 0:
            raise ValueError(f"monomial power must be >= 0 (got {power})")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x^power (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.render()

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a nonnegative int (got {exponent})")
        result = Polynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: Scalar) -> Polynomial:
        """Multiply every coefficient by the scalar c."""
        c = Fraction(c)
        if c == 0:
            return Polynomial()
        return Polynomial(a * c for a in self.coeffs)

    def __call__(self, t: Scalar) -> Fraction:
        """Evaluate at t by Horner's scheme, exactly."""
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def divide_exact(self, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Euclidean division: return (quotient, remainder).

        The remainder is exposed so callers can assert divisibility
        (remainder zero) rather than trusting it.
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError("divisor must be a Polynomial")
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        quotient = Polynomial()
        remainder = self
        dd = divisor.degree
        lead = divisor.leading_coefficient
        while remainder and remainder.degree >= dd:
            shift = remainder.degree - dd
            factor = remainder.leading_coefficient / lead
            term = Polynomial.monomial(factor, shift)
            quotient = quotient + term
            remainder = remainder - term * divisor
        return quotient, remainder

    def render(self, var: str = "m") -> str:
        """Canonical display form: terms in descending power, exact rational
        coefficients, e.g. "1/3*m^3 + 1/2*m^2 + 1/6*m".

        Unit coefficients are not printed ("m^2", "-m").  The output parses
        back to an equal polynomial through expr_parser.
        """
        if not self.coeffs:
            return "0"
        parts: list[tuple[bool, str]] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                sym = var if power == 1 else f"{var}^{power}"
                body = sym if mag == 1 else f"{mag}*{sym}"
            parts.append((c < 0, body))
        return join_signed(parts)


# Shared constant; defined after the class so construction is available.
ONE = Polynomial((1,))


def join_signed(parts: list[tuple[bool, str]]) -> str:
    """Join (negative, body) terms as "a + b - c", or "-a + b" when the first is negative."""
    text = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, body in parts[1:]:
        text += (" - " if negative else " + ") + body
    return text
