"""Independent oracles for the polysum benchmark.

Nothing here calls polysum.  Power sums come from the Bernoulli-number
formula, the factored weights from Stirling numbers of the second kind
(a_i = (-1)^i S(n, i) / (i + 1)), general sums from literal term-by-term
summation, and program output is read back from its canonical text.  The
benchmark keeps its own copies so that refactoring or moving the library's
oracle functions does not change what the benchmark checks against.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

Coeffs = tuple[Fraction, ...]  # ascending powers: coeffs[j] multiplies x^j


def horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] += p * q
    return out


def linear_power(p, q, e: int) -> list[Fraction]:
    """Coefficients of (p*x + q)^e by the binomial theorem."""
    p, q = Fraction(p), Fraction(q)
    return [math.comb(e, j) * p**j * q ** (e - j) for j in range(e + 1)]


@functools.lru_cache(maxsize=None)
def bernoulli(k: int) -> tuple[Fraction, ...]:
    """B_0..B_k with B_1 = -1/2, from sum_{j<=k} C(k+1, j) B_j = 0."""
    if k == 0:
        return (Fraction(1),)
    table = bernoulli(k - 1)
    acc = sum(math.comb(k + 1, j) * b for j, b in enumerate(table))
    return table + (-acc / (k + 1),)


@functools.lru_cache(maxsize=None)
def power_sum(n: int) -> Coeffs:
    """S_n(m) = 1^n + ... + m^n, by the Bernoulli formula; S_0(m) = m."""
    bern = bernoulli(n)
    coeffs = [Fraction(0)] * (n + 2)
    for j in range(n + 1):
        c = math.comb(n + 1, j) * bern[j] / (n + 1)
        coeffs[n + 1 - j] = -c if j % 2 else c
    return tuple(coeffs)


def general_sum(summand) -> list[Fraction]:
    """sum_{x=1..m} f(x) as sum_j c_j S_j(m), for f with coefficients c_j."""
    out = [Fraction(0)] * (len(summand) + 1)
    for j, c in enumerate(summand):
        if c:
            for k, s in enumerate(power_sum(j)):
                out[k] += c * s
    return out


def prefix_sums(summand, count: int) -> list[Fraction]:
    """g(0), g(1), ..., g(count-1) by literal summation of f(1), f(2), ..."""
    out = [Fraction(0)]
    for x in range(1, count):
        out.append(out[-1] + horner(summand, x))
    return out


def factored_weights(n: int) -> list[Fraction]:
    """a_1..a_n of S_n's rising-factorial expansion, by Stirling numbers."""
    row = [1]  # S(0, k) for k = 0
    for r in range(1, n + 1):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, r + 1)]
    return [Fraction((-1) ** i * row[i], i + 1) for i in range(1, n + 1)]


def _join(parts: list[tuple[bool, str]]) -> str:
    text = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, body in parts[1:]:
        text += (" - " if negative else " + ") + body
    return text


def render(coeffs, var: str = "m") -> str:
    """The canonical text polysum prints for a polynomial."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            sym = var if power == 1 else f"{var}^{power}"
            body = sym if mag == 1 else f"{mag}*{sym}"
        parts.append((c < 0, body))
    return _join(parts) if parts else "0"


def render_factored(n: int, var: str = "m") -> str:
    """The text of `polysum closed-form --n N --factored`, for n >= 3."""
    parts = [(True, "1/2")]
    for i, c in enumerate(factored_weights(n)[1:], start=2):
        product = "*".join(f"({var}+{off})" for off in range(2, i + 1))
        mag = abs(c)
        parts.append((c < 0, product if mag == 1 else f"{mag}*{product}"))
    sign = "-" if n % 2 else ""
    return f"{sign}{var}*({var}+1)*({_join(parts)})"


_MONOMIAL = re.compile(r"(?:(\d+(?:/\d+)?)\*)?([a-z])(?:\^(\d+))?")
_CONSTANT = re.compile(r"\d+(?:/\d+)?")


def read(text: str, var: str = "m") -> list[Fraction]:
    """Coefficients of a polynomial printed in canonical form; raises
    ValueError on text that render() could not have produced."""
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    coeffs: dict[int, Fraction] = {}
    for s, term in zip(signs, pieces[0::2]):
        mono = _MONOMIAL.fullmatch(term)
        if mono and mono[2] == var:
            c, power = Fraction(mono[1] or 1), int(mono[3] or 1)
        elif _CONSTANT.fullmatch(term):
            c, power = Fraction(term), 0
        else:
            raise ValueError(f"not a canonical term: {term!r}")
        if power in coeffs or c == 0 and text != "0":
            raise ValueError(f"repeated or zero term: {term!r}")
        coeffs[power] = s * c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return out
