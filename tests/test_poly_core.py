"""The integer core of Polynomial against a plain Fraction reference.

The reference keeps a polynomial as a list of Fraction coefficients and does
schoolbook arithmetic on it, one Fraction operation per term or term pair,
which is the representation Polynomial does not use.  The strategies lean on
the cases the integer core treats specially: the zero polynomial, one- and
two-term rows, runs of zeros at either end, large denominators, and
coefficients at the edges of the byte slots the Kronecker product packs them
into.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from polysum import poly
from polysum.expr_parser import Add, lower, parse
from polysum.poly import Polynomial
from reference import evaluate

# ---------------------------------------------------------------------------
# Reference model: ascending lists of Fractions, trailing zeros trimmed.


def ref(cs) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_eval(a, t):
    return sum((c * t**j for j, c in enumerate(a)), Fraction(0))


# ---------------------------------------------------------------------------
# Strategies

# ±(2^(8k) - 1) fills a k-byte slot, ±2^(8k) needs one more byte
slot_edges = st.builds(
    lambda k, sign, off: sign * ((1 << (8 * k)) - off),
    st.integers(1, 6),
    st.sampled_from((1, -1)),
    st.sampled_from((0, 1)),
)
rationals = st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**25))
coefficients = st.one_of(st.just(0), st.integers(-9, 9), rationals, slot_edges)
rows = st.builds(
    lambda low, body, high: [0] * low + body + [0] * high,
    st.integers(0, 4),
    st.lists(coefficients, max_size=8),
    st.integers(0, 3),
)
points = st.one_of(st.integers(-(10**6), 10**6), rationals)
# evaluation: points of thousands of bits split rows of about 40 terms into
# several Horner chunks, which then combine pairwise
wide_points = st.builds(
    lambda bits, sign, low: sign * ((1 << bits) + low),
    st.integers(1000, 6000),
    st.sampled_from((1, -1)),
    st.integers(0, 2**64),
)
eval_points = st.one_of(
    points, wide_points, st.builds(Fraction, wide_points, st.integers(1, 10**25))
)
long_rows = st.lists(coefficients, min_size=36, max_size=44)

property_settings = settings(deadline=None)


def check(p: Polynomial, expected: list[Fraction]) -> None:
    """p equals the reference, coefficient for coefficient, in canonical form."""
    assert list(p.coeffs) == expected
    assert p.denominator > 0
    assert gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0


# ---------------------------------------------------------------------------
# Properties


@property_settings
@given(rows, rows)
@example([], [1])
@example([0, 0, 3], [0, 5])
@example([2**16 - 1, 2**16 - 1], [2**16 - 1, -(2**16 - 1)])
def test_add_sub_neg_match_reference(a, b):
    p, q = Polynomial(a), Polynomial(b)
    check(p, ref(a))
    check(p + q, ref_add(ref(a), ref(b)))
    # b again as the monomial triples (k, a, d) that lower hands to add_all
    triples = [(k, c.numerator, c.denominator) for k, c in enumerate(map(Fraction, b))]
    check(poly.add_all([(1, p)], triples), ref_add(ref(a), ref(b)))
    check(p - q, ref_add(ref(a), ref_neg(ref(b))))
    check(-p, ref_neg(ref(a)))


@property_settings
@given(st.lists(st.tuples(coefficients, rows), max_size=5), rows)
@example([], [])
@example([(0, [1, 2]), (Fraction(0), [Fraction(1, 3)])], [])
@example([(Fraction(1, 2), [0, 2]), (-1, [0, 1])], [])  # cancels to 0
@example([(Fraction(1, 2), [2, 4]), (-1, [0, 1])], [0, Fraction(-1, 3)])
@example([(Fraction(3, 4), [Fraction(2, 3)]), (Fraction(-1, 6), [0, 0, 9])], [0, 0, 0, 5])
def test_add_all_of_scaled_parts_matches_reference(parts, b):
    """add_all over (c, p) parts, c an int or a Fraction, zero among them, and
    b's coefficients as monomial triples beside them."""
    expected = ref(b)
    for c, a in parts:
        expected = ref_add(expected, ref([Fraction(c) * x for x in ref(a)]))
    triples = [(k, c.numerator, c.denominator) for k, c in enumerate(map(Fraction, b))]
    check(poly.add_all([(c, Polynomial(a)) for c, a in parts], triples), expected)


@property_settings
@given(rows, rows)
@example([], [0, 1])
@example([0, 0, 0, 1], [0, 0, 5])
@example([2**8 - 1, 2**8 - 1], [2**8 - 1, 2**8 - 1])
@example([-(2**16), 2**16, -(2**16)], [2**16, 2**16])
@example([2**24 - 1] * 8, [-(2**24 - 1)] * 8)
# one term and two terms on either side, some only once their low zeros go
@example([Fraction(-5, 3)], [1, 2, 3, 4])
@example([1, -2, 0, 3], [7])
@example([0, 0, 0, 2**16], [Fraction(1, 9), 0, -4, 2])
@example([3, 1, 4, 1, 5], [0, 0, Fraction(2, 5)])
@example([2, -3], [5, 0, Fraction(-1, 7), 1])
@example([9, 8, 7, 6], [0, 0, -(2**32), 2**32 - 1])
@example([0, 4], [0, 0, Fraction(-1, 9)])
@example([0, 1, 1], [0, 0, 2, -1])
def test_product_matches_schoolbook(a, b):
    p, q = Polynomial(a), Polynomial(b)
    check(p * q, ref_mul(ref(a), ref(b)))
    check(p * p, ref_mul(ref(a), ref(a)))


@property_settings
@given(rows, st.integers(0, 24))
@example([0, 0, Fraction(-3, 7)], 5)
@example([-(2**8), 2**8 - 1], 6)
@example([], 0)
@example([], 3)
@example([Fraction(-5, 12)], 9)
@example([3, Fraction(-1, 2), 0, 7, Fraction(2, 9), 1], 2)
# two-term bases, Miller's r = 1 case: signs and denominators on a0 and a1,
# low zeros before the two terms, and the exponents 0, 1, 2 and 24
@example([Fraction(-5, 12), 3], 7)
@example([Fraction(7, 3), Fraction(-11, 4)], 24)
@example([-6, Fraction(-9, 10)], 13)
@example([0, 0, Fraction(-3, 7), 2], 9)
@example([0, 5, -(2**40)], 24)
@example([Fraction(-5, 12), 3], 0)
@example([Fraction(-5, 12), 3], 1)
@example([Fraction(-5, 12), 3], 2)
@example([-(2**8), 2**8 - 1], 24)
def test_power_matches_repeated_schoolbook(a, e):
    expected = [Fraction(1)]
    for _ in range(e):
        expected = ref_mul(expected, ref(a))
    check(Polynomial(a) ** e, expected)


def test_power_checks_the_leading_numerator(monkeypatch):
    miller = poly._miller

    def off_by_one_at_the_top(a, e):
        row = miller(a, e)
        row[-1] += 1
        return row

    monkeypatch.setattr(poly, "_miller", off_by_one_at_the_top)
    with pytest.raises(ArithmeticError, match="leading numerator"):
        Polynomial((0, 3, -2)) ** 4


@property_settings
@given(rows, coefficients)
@example([1, Fraction(-2, 3)], 0)
@example([1, Fraction(-2, 3)], Fraction(0))
@example([0, 4, 6], Fraction(-1, 2))
@example([Fraction(1, 3), 2], -3)
def test_scale_matches_reference(a, c):
    expected = ref([x * Fraction(c) for x in ref(a)])
    check(Polynomial(a).scale(c), expected)
    check(Polynomial(a) * c, expected)
    check(c * Polynomial(a), expected)


def chunked(terms: int) -> int:
    """A point just below 2^(_CHUNK_BITS / terms), where evaluation runs
    Horner chunks of about that many terms, and a row of that many is one."""
    return (1 << (poly._CHUNK_BITS // terms - 2)) + 1


# At chunked(4) the point has 2047 bits, so 8 terms are two chunks and the
# dot-product leaves take numerators below 2^1023; WIDE's keep Horner leaves.
WIDE = [10**3000 + k for k in range(12)]
WIDE_WITH_ZEROS = [0, 0, *WIDE[:6], 0, 0, 0, 0, *WIDE[6:]]


@property_settings
@given(st.one_of(rows, long_rows), eval_points)
@example([], Fraction(1, 3))
@example([0, 0, 1], Fraction(-2, 10**25))
@example([], chunked(4))  # the zero polynomial at a wide point
@example([5, -1, Fraction(2, 3), 7], chunked(4))  # exactly one chunk, a Horner pass
# dot-product leaves: narrow numerators at an int point of several chunks
@example(list(range(1, 9)), chunked(4))  # 4 + 4
@example([5, -1, Fraction(2, 3), 7, 2], chunked(4))  # 3 + 2: a short top chunk
@example(list(range(1, 13)), -chunked(4))  # three chunks: an odd level, a negative point
@example([Fraction(k, 3) for k in range(-9, 10)], chunked(4))  # 4 + 4 + 4 + 4 + 3
@example([1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 11, 12], chunked(4))  # 4 + 4 + 4, zeros across a boundary
@example([1, 2, 3, 0, 5, 6, 7, 8, 9, 10, 11, 12], -chunked(4))  # the low chunk's top is zero
@example([2**1023 - 1, *range(7)], chunked(4))  # the widest numerator under the cap
# Horner leaves at several chunks: wide numerators, or a rational point
@example([-(2**1023), *range(7)], chunked(4))  # |c| at the cap
@example(WIDE, chunked(4))  # 4 + 4 + 4
@example(WIDE_WITH_ZEROS, -chunked(4))  # zeros across a boundary, a negative point
@example([Fraction(k, 7) for k in range(-9, 10)], Fraction(chunked(4), 3 * 10**20))
@example([2**64 - k for k in range(40)], Fraction(-chunked(3), 2**70 + 1))  # 13 * 3 + 1
@example([0, 3, 0, 0, -1, 0, 5, 0, 0, 0, 2], Fraction(-chunked(4), 3**500))  # 3 chunks
# zero numerators cost a Horner pass no product: after e of them the step is p^(e+1)
@example([1, 0, 2, 0, 0, 0, 3, 0, 0, 4], chunked(10))  # one chunk: steps of p^3, p^4 and p^2
@example([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], chunked(5))  # S_3: ends owing p^2
@example([0, 0, 1, 0, 0, 0, 2, 0, -3], 0)
@example([1, 0, 0, 0, -2, 0, 3, 0, 0, 5], -1)
def test_evaluation_matches_reference(a, t):
    value = Polynomial(a)(t)
    assert isinstance(value, Fraction)
    assert value == ref_eval(ref(a), Fraction(t))


@pytest.mark.parametrize(
    "a, t, leaf, chunks",
    [
        (list(range(1, 13)), -chunked(4), "dot", 3),
        ([2**1023 - 1, *range(7)], chunked(4), "dot", 2),
        ([-(2**1023), *range(7)], chunked(4), "horner", 2),
        (WIDE_WITH_ZEROS, -chunked(4), "horner", 5),
        ([Fraction(k, 7) for k in range(-9, 10)], Fraction(chunked(4), 3 * 10**20), "horner", 5),
        ([5, -1, Fraction(2, 3), 7], chunked(4), "horner", 1),
    ],
)
def test_evaluation_takes_the_leaves_its_rule_names(monkeypatch, a, t, leaf, chunks):
    """A dot-product leaf calls poly's sum once and a Horner leaf its
    reversed once, so counting both names the leaves each case took."""
    calls = {"dot": 0, "horner": 0}

    def counted(kind, fn):
        def call(*args):
            calls[kind] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(poly, "sum", counted("dot", sum), raising=False)
    monkeypatch.setattr(poly, "reversed", counted("horner", reversed), raising=False)
    assert Polynomial(a)(t) == ref_eval(ref(a), Fraction(t))
    assert calls == {"dot": 0, "horner": 0, leaf: chunks}


# ---------------------------------------------------------------------------
# Common denominators: each pair in lowest terms, then one lcm


pairs = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(-(10**30), 10**30)),
        st.one_of(st.integers(1, 10**20), st.builds(factorial, st.integers(1, 60))),
    ),
    max_size=12,
)


@property_settings
@given(pairs)
@example([(2, 4), (1, 3)])  # 1/2 and 1/3: over 6, where the unreduced lcm is 12
@example([(0, 6), (-4, 24)])
@example([((-1) ** i * 2 ** (i + 4), factorial(i + 1)) for i in range(1, 20)])
def test_lowest_terms_matches_reduced_fractions(pairs):
    nums, dens = [a for a, _ in pairs], [d for _, d in pairs]
    expected = poly.over_common_denominator([Fraction(a, d) for a, d in pairs])
    assert poly.lowest_terms(nums, dens) == expected


# ---------------------------------------------------------------------------
# Canonical form


def test_equal_polynomials_have_one_representation():
    half = Polynomial((Fraction(1, 2), 1))
    same = [
        Polynomial((Fraction(2, 4), Fraction(3, 3))),
        Polynomial.from_numerators((1, 2), 2),
        Polynomial.from_numerators((3, 6), 6),
        Polynomial((Fraction(1, 2), 1, 0, 0)),
        # through sums and products over other common denominators
        (half + Polynomial((Fraction(1, 7),))) - Polynomial((Fraction(1, 7),)),
        half.scale(Fraction(3, 11)).scale(Fraction(11, 3)),
    ]
    for p in same:
        assert (p.numerators, p.denominator) == ((1, 2), 2)
        assert p.coeffs == (Fraction(1, 2), Fraction(1))
        assert p == half
        assert hash(p) == hash(half)


def test_from_numerators_needs_a_positive_denominator():
    with pytest.raises(ValueError):
        Polynomial.from_numerators((1, 2), -2)
    with pytest.raises(ValueError):
        Polynomial.from_numerators((1,), 0)


def test_zero_polynomial_has_one_representation():
    zeros = [
        Polynomial(),
        Polynomial((0, Fraction(0, 5))),
        Polynomial((Fraction(1, 3),)) - Polynomial((Fraction(1, 3),)),
        Polynomial((Fraction(1, 3), 2)).scale(0),
        Polynomial.from_numerators((0, 0), 9),
        Polynomial((Fraction(1, 3),)) * Polynomial(),
    ]
    for z in zeros:
        assert (z.numerators, z.denominator) == ((), 1)
        assert z == Polynomial() and hash(z) == hash(Polynomial())


def test_each_linear_combination_is_reduced_once(canonical_rows):
    """p + q, p - q, -p and p.scale(c) each build one row through add_all and
    reduce it once; p - q does not negate q first."""
    p, q = Polynomial((Fraction(1, 3), 2, 5)), Polynomial((Fraction(-1, 6), 0, 5))
    combinations = [
        (lambda: p + q, [Fraction(1, 6), 2, 10]),
        (lambda: p - q, [Fraction(1, 2), 2]),
        (lambda: -p, [Fraction(-1, 3), -2, -5]),
        (lambda: p.scale(Fraction(-3, 7)), [Fraction(-1, 7), Fraction(-6, 7), Fraction(-15, 7)]),
    ]
    for combination, expected in combinations:
        canonical_rows.clear()
        check(combination(), expected)
        assert len(canonical_rows) == 1


# ---------------------------------------------------------------------------
# Sums through the parser

summand_terms = st.one_of(
    st.builds("{}/{}x^{}".format, st.integers(0, 10**25), st.integers(1, 10**25), st.integers(0, 6)),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 99)),
    st.sampled_from(["x", "x^3", "(x+1/3)^2", "2(x-1/6)", "-x^2", "0"]),
)
signed_terms = st.lists(st.tuples(st.sampled_from("+-"), summand_terms), min_size=1, max_size=12)


@property_settings
@given(summand_terms, signed_terms)
@example("x", [("-", "x"), ("+", "1/2"), ("-", "1/2")])
@example("1/6x^2", [("+", "1/3x^2"), ("-", "1/2x^2"), ("+", "1/10"), ("+", "9/10")])
def test_lowered_sum_matches_pairwise_addition(first, rest):
    tree = parse(first + "".join(f" {op} {term}" for op, term in rest))
    assert isinstance(tree, Add) and len(tree.terms) == len(rest) + 1
    pairwise = lower(parse(first))
    expected = list(pairwise.coeffs)
    for op, term in rest:
        q = lower(parse(term))
        pairwise = pairwise + q if op == "+" else pairwise - q
        expected = ref_add(expected, list(q.coeffs) if op == "+" else ref_neg(list(q.coeffs)))
    p = lower(tree)
    assert (p.numerators, p.denominator) == (pairwise.numerators, pairwise.denominator)
    check(p, expected)


# ---------------------------------------------------------------------------
# Large products through the parser


def test_lowered_binomial_power_matches_the_binomial_theorem():
    p = lower(parse("(2x-3)^1000"))
    assert p.coeffs == tuple(
        Fraction(comb(1000, k) * 2**k * (-3) ** (1000 - k)) for k in range(1001)
    )


def test_lowered_wide_binomial_power_matches_the_binomial_theorem():
    p = lower(parse("(99999999999999999999x+1)^300"))
    c = 10**20 - 1
    assert p.numerators == tuple(comb(300, k) * c**k for k in range(301))
    assert p.denominator == 1


def test_chain_of_two_term_factors_needs_no_kronecker_product(monkeypatch):
    calls = []
    kronecker = poly._kronecker

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    monkeypatch.setattr(poly, "_kronecker", counted)
    factors = [f"({k}x{-k // 2:+d})" for k in range(1, 51)]
    p = lower(parse("*".join(factors)))
    assert calls == []
    check(p, reduce(ref_mul, [[-k // 2, k] for k in range(1, 51)]))


short_factors = st.builds(
    lambda low, body: [0] * low + body,
    st.integers(0, 2),
    st.lists(coefficients, min_size=1, max_size=3).filter(any),
)


@property_settings
@given(st.lists(short_factors, min_size=1, max_size=40))
@example([[1, 1]] * 40)
@example([[0, 0, Fraction(2, 3)], [-1, 1], [1, 0, 1], [0, 2**16 - 1, 2**16]])
def test_lowered_chain_of_short_factors_matches_schoolbook(factors):
    tree = parse("*".join(f"({Polynomial(f).render('x')})" for f in factors))
    p = lower(tree)
    check(p, reduce(ref_mul, [ref(f) for f in factors]))
    for t in (Fraction(-7, 3), 2):
        assert evaluate(tree, t) == p(t)


def test_lowered_trinomial_power_is_palindromic():
    p = lower(parse("(x^2+x+1)^400"))
    assert p.degree == 800
    assert p.denominator == 1
    assert p.numerators == p.numerators[::-1]
    assert p(1) == 3**400
    assert p(-1) == 1
