"""Dense univariate polynomial arithmetic over exact rationals, done on ints.

A polynomial is a tuple of int numerators over one positive common
denominator: numerators[j] / denominator is the coefficient of x^j.  The
form is canonical.  Trailing zero numerators are trimmed and the gcd of the
numerators and the denominator is 1, so equal polynomials have equal
(numerators, denominator) pairs; the zero polynomial is ((), 1).  coeffs
gives the coefficients as Fractions.  All values are immutable and all
operations are pure.

Every linear combination is one routine, add_all: multiples c*p, given as
pairs (c, p), and monomials a/d*x^k, the triples (k, a, d) that
expr_parser.lower reads, go over one lcm of the denominators into one int
row, with one reduction.  p + q, p - q, -p and p.scale(c) are its cases.
Evaluation at t = p/q is int work with one Fraction at the end.  The row
splits into chunks of terms, as many as keep the powers of the point near
2^_CHUNK_BITS, and the chunk values combine pairwise (Estrin's scheme), so
that at a large point the big products are balanced.  At an int point of more
than one chunk, with numerators narrower than the point, the powers of p up to
a chunk's length are built once per call and each chunk is one dot product of
its numerators with them (Paterson and Stockmeyer's baby steps), so every
product is a narrow numerator times a power.  Any other chunk is a Horner
pass, one multiply-add per nonzero numerator, so the zero numerators, nearly
half of S_n's row, cost no product.  At a rational point the powers of q are
built once per call and scale each chunk's numerators.  A power strips the
base's low-order zeros, so the base is x^k * a with a(0) != 0, computes a^e
by J. C. P. Miller's recurrence on the int numerators, one coefficient from
the ones before it by exact divisions, and shifts the result by k*e over the
denominator to the e.  Each coefficient sums one product per nonzero term of
a, so a two-term a, a binomial such as x + c, costs one bigint product and
one division a coefficient.

A product first strips each factor's run of low-order zero coefficients and
shifts the result back afterwards, so x^k and c*x^k are one-term rows.  The
shorter factor then picks the rule.  One term is a scaling.  Two terms are
one shift-and-add pass, new[j] = b[j-1]*a_1 + b[j]*a_0, so a long row times
a linear factor costs work linear in the row's size.  Anything longer is one
Kronecker substitution.  Each row is packed into one big int, coefficient j
in byte-aligned slot j, w bytes wide, where 8w - 1 >= the bit length of the
product's coefficient bound max|a| * max|b| * min(len a, len b); a signed
row packs as its positive part minus its negative part.  After one bigint
multiply, a bias of 2^(8w-1) in every slot makes each slot read back
non-negative, so the product's coefficients are slices of one to_bytes
call, less the bias.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, floordiv, mul

__all__ = ["Polynomial"]

Scalar = Fraction | int

# Polynomial._at splits a row into chunks whose powers of the point stay
# near 2^_CHUNK_BITS, then combines the chunk values pairwise.  With Horner
# leaves alone, swept over 4096, 8192 and 16384 on an in-process replay of 8
# warm_eval blocks (480 queries; Python 3.11.7, 2 vCPUs): 1.24x, 1.22x and
# 1.20x the ops/s of one Horner pass, with the median query 5%, 3% and 2.5%
# slower.  At 8192 the median queries, a few thousand bits in all, stay one
# chunk.  With dot-product leaves, 12288 and 16384 ran that replay in 0.84x
# and 0.85x the time of Horner leaves at 8192, against 0.88x at 8192, but the
# rows that keep Horner leaves lost: S_999 at a 300-digit point 1.17x at
# 12288; S_200 at a 20/20-digit rational 1.6x and a degree-200 product at a
# 20-digit point 1.3x at 16384, where they become one chunk.  So 8192 stays.
_CHUNK_BITS = 8192


class Record:
    """Base of polysum's immutable values: the fields a subclass names in
    __slots__, set by position or keyword, equality by class and fields, and
    a frozen dataclass's repr, e.g. Pow(base=Var(name='x'), exponent=2).

    A subclass without its own __new__ gets an __init__ made from its
    __slots__, a parameter and one object.__setattr__ per field, as a frozen
    dataclass's is; Python's own checks reject a missing, extra or unknown
    field."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__new__" in cls.__dict__:
            return  # Polynomial, which takes coefficients
        names = cls.__slots__  # identifiers, already checked by Python
        body = "".join([f"\n    object_setattr(self, {name!r}, {name})" for name in names])
        scope = {"object_setattr": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
        init = cls.__init__ = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # for pickle and copy, which would set the slots
        return type(self), self._values()


class Polynomial(Record):
    """Immutable dense polynomial: int numerators over one common denominator."""

    __slots__ = ("numerators", "denominator")
    numerators: tuple[int, ...]
    denominator: int

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        return _canonical(*over_common_denominator(cs))

    @classmethod
    def from_numerators(cls, numerators: Iterable[int], denominator: int = 1) -> Polynomial:
        """The polynomial sum_j numerators[j] x^j / denominator, for a positive
        int denominator."""
        return _canonical(list(numerators), check_int("the denominator", denominator, 1))

    @classmethod
    def constant(cls, c: Scalar) -> Polynomial:
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: Scalar, power: int) -> Polynomial:
        power = check_int("monomial power", power, 0)
        c = coeff if isinstance(coeff, int) else Fraction(coeff)
        return _canonical([0] * power + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index j holding the one of x^j."""
        den = self.denominator
        return tuple([Fraction(a, den) for a in self.numerators])

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for zero."""
        return len(self.numerators) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficient(len(self.numerators) - 1)

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x^power (0 beyond the stored degree)."""
        if 0 <= check_int("power", power) < len(self.numerators):
            return Fraction(self.numerators[power], self.denominator)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __reduce__(self):
        return Polynomial.from_numerators, (self.numerators, self.denominator)

    def __str__(self) -> str:
        return self.render()

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return add_all(((1, self), (1, other)))

    def __neg__(self) -> Polynomial:
        return add_all(((-1, self),))

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return add_all(((1, self), (-1, other)))

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, Polynomial):
            return _product(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        """self ** exponent by Miller's recurrence on the int numerators.

        A division in the recurrence that was not exact would floor without
        a word and carry the error up to the leading numerator, so
        ArithmeticError unless that is the base's leading numerator ** exponent.
        """
        if not check_int("polynomial power", exponent, 0):
            return _canonical([1], 1)
        nums = self.numerators
        if not nums:
            return self
        k = _low_zeros(nums)
        row = _miller(nums[k:], exponent)
        if row[-1] != nums[-1] ** exponent:
            raise ArithmeticError(
                f"Miller's recurrence gave the leading numerator {shown(row[-1])}, "
                f"not {shown(nums[-1])}^{exponent}"
            )
        return _canonical([0] * (k * exponent) + row, self.denominator**exponent)

    def scale(self, c: Scalar) -> Polynomial:
        """Multiply every coefficient by the scalar c."""
        return add_all(((Fraction(c), self),))

    def __call__(self, t: Scalar) -> Fraction:
        """Evaluate at t exactly, by _at.

        Nicomachus: 1^3 + ... + m^3 = (m(m+1)/2)^2, here at a 1001-digit m.

        >>> m = 10**1000
        >>> Polynomial((0, 0, 1, 2, 1))(m) / 4 == (m * (m + 1) // 2) ** 2
        True
        """
        return Fraction(*self._at(t))

    def _at(self, t: Scalar) -> tuple[int, int]:
        """The value at t = p/q as an int numerator over a positive int
        denominator, not reduced, by Estrin's scheme over chunks of terms
        (Knuth, TAOCP vol. 2, 4.6.4).

        For n numerators and a point of bits = max(bit lengths of p and q),
        the row splits into k = n * bits // _CHUNK_BITS + 1 chunks of
        b = ceil(n / k) terms, the top one perhaps fewer, so p^b and q^b stay
        near 2^_CHUNK_BITS.

        The leaves are dot products at an int point of k > 1 chunks whose
        numerators are all at most (k - 1) / k as wide as the point
        (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): the baby steps
        p^0..p^(b-1) are built once, each chunk's value is the C-level sum of
        c_j * p^j over its numerators, and p^b is the last step times p.  For
        numerators of C bits and a point of B, a chunk costs about C*B*b^2/2
        bit-products that way and B^2*b^2/2 by Horner, whose accumulator
        grows by B bits a step; the steps cost one Horner chunk, shared by
        the k chunks, so the test is k * C <= (k - 1) * B.  Every other row
        keeps Horner leaves: a one-chunk point, where the steps alone cost the
        Horner pass; wider numerators, where the dot products lose 2-4x; and
        a rational point, whose steps p^j * q^(b-1-j) are all full width.

        At a rational point q^0..q^(b-1) are built once, and a chunk of s
        terms scales its numerator of x^j by q^(s-1-j), so it is homogeneous
        of degree s - 1 in p and q; at an int point the numerators go in as
        they are.  A Horner leaf is a pass in p from the chunk's top
        numerator down, one multiply-add per nonzero numerator: after a run
        of e zeros the next nonzero numerator multiplies acc by p^(e+1), as
        p, p^2 (computed once) or p ** (e + 1), and the chunk's low end pays
        p^e for its low-order zeros.

        The chunk values then combine pairwise, low * q^r + high * p^s for a
        low value of s terms and a high one of r terms; the top value of an
        odd level moves up alone, and p^s and q^s are squared between levels.
        The last value is the numerator over q^(n-1) that one Horner pass over
        all n terms gives.  A point below 2^(_CHUNK_BITS / n) is one chunk,
        that one pass.  At a larger point the products of the upper levels
        are balanced, so CPython multiplies them by Karatsuba.
        """
        if not isinstance(t, (int, Fraction)):
            t = Fraction(t)
        p, q = t.numerator, t.denominator
        nums = self.numerators
        if not nums:
            return 0, 1
        n = len(nums)
        bits = (abs(p) | q).bit_length()
        k = n * bits // _CHUNK_BITS + 1  # chunks
        b = -(-n // k)  # terms per chunk, the top one perhaps fewer
        dot = False  # dot-product leaves: an int point of k > 1 chunks, narrow numerators
        if k > 1 and q == 1:
            cap = 1 << (k - 1) * bits // k  # |c| < cap: k * width <= (k - 1) * bits
            dot = -cap < min(nums) and max(nums) < cap
        if dot:
            steps = list(accumulate(repeat(p, b - 1), mul, initial=1))  # p^0..p^(b-1)
            values = [sum(map(mul, nums[lo : lo + b], steps)) for lo in range(0, n, b)]
        else:
            p2 = p * p  # the step over one zero numerator, as S_n's rows take
            if q != 1:
                qpow = list(accumulate(repeat(q, b - 1), mul, initial=1))  # q^0..q^(b-1)
            values = []
            for lo in range(0, n, b):
                terms = reversed(nums[lo : lo + b])
                if q != 1:
                    terms = map(mul, terms, qpow)  # c_j * q^(s-1-j) in a chunk of s terms
                acc, e = next(terms), 0  # e: zero numerators since the last nonzero one
                for c in terms:
                    if c:
                        acc = acc * (p if not e else p2 if e == 1 else p ** (e + 1)) + c
                        e = 0
                    else:
                        e += 1
                values.append(acc * p**e if e else acc)
        if len(values) > 1:
            span, top = b, n - (len(values) - 1) * b  # terms behind each value, and the top one
            ps, qs = steps[-1] * p if dot else p**b, q**b
            while True:
                high = values.pop()
                if len(values) % 2:  # the top value pairs with the one below it
                    high = values.pop() * q**top + high * ps
                    top += span
                values = [a * qs + c * ps for a, c in zip(values[::2], values[1::2])]
                values.append(high)
                if len(values) == 1:
                    break
                span *= 2
                ps *= ps
                qs *= qs
        return values[0], self.denominator * q ** (n - 1)

    def render(self, var: str = "m") -> str:
        """Canonical display form, the terms by join_terms from the top power
        down, e.g. "1/3*m^3 + 1/2*m^2 + 1/6*m".  Up to degree 1000,
        expr_parser's MAX_DEGREE, the output parses back to an equal polynomial."""
        powers = ["", var, *[f"{var}^{k}" for k in range(2, len(self.numerators))]]
        return join_terms(list(zip(self.coeffs, powers))[::-1])


def over_common_denominator(xs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The ints D*x and D, the lcm of the denominators of xs."""
    return lowest_terms([x.numerator for x in xs], [x.denominator for x in xs])


def lowest_terms(nums: Sequence[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """The ints D*nums[i]/dens[i] and D > 0, D the lcm of the denominators of
    the pairs in lowest terms: one gcd per pair keeps D as small as it can be."""
    gs = list(map(gcd, nums, dens))
    dens = list(map(floordiv, dens, gs))
    den = lcm(*dens)
    return [a // g * (den // d) for a, g, d in zip(nums, gs, dens)], den


def add_all(parts: Sequence[tuple], monomials: Sequence[tuple] = ()) -> Polynomial:
    """The sum of c*p for the pairs (c, p) in parts, c an int or Fraction, and
    the monomials a/d*x^k, triples (k, a, d), over one lcm of the denominators
    (c's times p's for a pair) in one int row, with one reduction."""
    den = lcm(*[c.denominator * p.denominator for c, p in parts], *[d for _, _, d in monomials])
    sizes = [len(p.numerators) for _, p in parts] + [m[0] + 1 for m in monomials]
    acc = [0] * max(sizes, default=0)
    for c, p in parts:
        n, d = len(p.numerators), c.denominator * p.denominator
        acc[:n] = map(add, acc[:n], _scaled(p.numerators, c.numerator * (den // d)))
    for k, a, d in monomials:
        acc[k] += a * (den // d)
    return _canonical(acc, den)


def _canonical(nums: list[int], den: int) -> Polynomial:
    """The polynomial of the int row nums over den > 0, trimmed and reduced:
    the one place a Polynomial is made."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [a // g for a in nums]
        den //= g
    p = object.__new__(Polynomial)
    object.__setattr__(p, "numerators", tuple(nums))
    object.__setattr__(p, "denominator", den)
    return p


def _scaled(row: Sequence[int], c: int) -> Sequence[int]:
    return row if c == 1 else [a * c for a in row]


def _product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q: strip the low-order zeros, then by the shorter factor a scale
    (one term), take one shift-and-add pass (two terms) or multiply by
    Kronecker substitution, and shift back."""
    a, b = p.numerators, q.numerators
    if not a or not b:
        return _canonical([], 1)
    ka, kb = _low_zeros(a), _low_zeros(b)
    a, b = a[ka:], b[kb:]
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        row = _scaled(b, a[0])
    elif len(a) == 2:
        row = [x * a[1] + y * a[0] for x, y in zip([0, *b], [*b, 0])]
    else:
        row = _kronecker(a, b)
    return _canonical([0] * (ka + kb) + list(row), p.denominator * q.denominator)


def _low_zeros(row: Sequence[int]) -> int:
    """Length of the run of zeros at the low end of a nonzero row."""
    return row.index(next(filter(None, row)))  # no zero before it equals it


def _miller(a: Sequence[int], e: int) -> list[int]:
    """The int row a^e for a[0] != 0, by J. C. P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7): c_0 = a_0^e and, with r = len(a) - 1,

        c_j = sum_{i=1..min(j,r)} ((e+1)i - j) a_i c_{j-i} / (j a_0),

    the coefficients of x^(j-1) on the two sides of a P' = e a' P, P = a^e.
    Each c_j is an int, so each division is exact.  The sum runs over a's
    nonzero terms in a plain loop, with no list built: for a two-term a, as
    x + c and 2x - 3 are, that is the r = 1 case, one product and one
    division per coefficient."""
    a0 = a[0]
    terms = [(i, ai) for i, ai in enumerate(a) if i and ai]
    c = [a0**e]
    for j in range(1, (len(a) - 1) * e + 1):
        total = 0
        for i, ai in terms:
            if i > j:
                break
            total += ((e + 1) * i - j) * ai * c[j - i]  # one bigint product
        c.append(total // (j * a0))
    return c


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The convolution of two int rows by one bigint multiply."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # bytes per slot: 8*width - 1 >= bits of bound
    packed_a = _pack(a, width)
    packed_b = _pack(b, width)
    n = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    buf = (packed_a * packed_b + bias).to_bytes(width * n, "little")
    return [
        int.from_bytes(buf[i : i + width], "little") - half for i in range(0, width * n, width)
    ]


def _pack(row: Sequence[int], width: int) -> int:
    """sum_j row[j] * 2^(8*width*j), as its positive part minus its negative part."""
    zero = bytes(width)
    pos = b"".join([c.to_bytes(width, "little") if c > 0 else zero for c in row])
    neg = b"".join([(-c).to_bytes(width, "little") if c < 0 else zero for c in row])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def join_terms(terms: Iterable[tuple[Scalar, str]]) -> str:
    """The (c, factor) terms as "a + b - c", or "-a + b", or "0" if none is
    left: a zero c is left out, factor "" prints c, |c| = 1 prints factor alone,
    and any other term prints c*factor."""
    parts = []
    for c, factor in terms:
        if c:
            mag = abs(c)
            parts.append(" - " if c < 0 else " + ")
            parts.append(f"{mag}*{factor}" if factor and mag != 1 else factor or str(mag))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def check_int(name: str, value: int, lo: int | None = None, hi: int | None = None) -> int:
    """value, the int argument name, checked before any work: TypeError unless
    it is an int, ValueError unless lo <= value <= hi (None is no bound), so
    every entry point words its bounds alike, e.g. "n must be <= 1000 (got 1001)",
    the value quoted by shown."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int (got {type(value).__name__})")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo} (got {shown(value)})")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi} (got {shown(value)})")
    return value


def shown(x: Scalar) -> str:
    """str(x), or x's size where Python refuses its decimal form, past
    sys.get_int_max_str_digits(): "<a 16610-bit number>", the bits of the wider
    of numerator and denominator.  So a message never fails on the number it
    quotes, e.g. "m must be >= 0 (got <a 16610-bit number>)"."""
    try:
        return str(x)
    except ValueError:
        return f"<a {max(x.numerator.bit_length(), x.denominator.bit_length())}-bit number>"
