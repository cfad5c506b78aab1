"""The value classes (the six expression-tree nodes and the two public
records) keep the semantics of frozen dataclasses: construction by position
or keyword, equality and hashing by class and fields, the dataclass repr,
and immutability."""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from polysum import (
    ClosedFormSum,
    PowerSumCoefficients,
    Polynomial,
    parse,
    power_sum_factored_form,
    sum_polynomial,
)
from polysum.expr_parser import Add, Lit, Mul, Neg, Pow, Var

X = Var("x")
ONE = Lit(Fraction(1))

# each class with two field tuples that differ in one field
CASES = [
    (Lit, (Fraction(1, 2),), (Fraction(1, 3),)),
    (Var, ("x",), ("y",)),
    (Neg, (X,), (ONE,)),
    (Add, ((X, ONE),), ((ONE, X),)),
    (Mul, ((X, ONE),), ((X, X),)),
    (Pow, (X, 2), (X, 3)),
    (PowerSumCoefficients, (2, (Fraction(-1, 2), Fraction(1, 3))), (2, (Fraction(-1, 2),))),
    (ClosedFormSum, (Polynomial((0, 1)), 0), (Polynomial((0, 2)), 0)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*other) != a
    assert len({a, b, cls(*other)}) == 2
    assert a != fields  # a value is not the tuple of its fields


def test_equality_is_by_class():
    assert Add((X, ONE)) != Mul((X, ONE))
    assert Mul((X, ONE)) != Add((X, ONE))
    assert Lit(Fraction(1)) != Var("x")
    assert Neg(ONE) != Lit(Fraction(-1))


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, other):
    value = cls(*fields)
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, other[0])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*fields)


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_keyword_and_mixed_construction(cls, fields, other):
    # one named parameter per field, in slot order, under the class's own name
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    named = dict(zip(cls.__slots__, fields))
    assert cls(**named) == cls(*fields)
    first, *rest = cls.__slots__
    assert cls(fields[0], **{k: named[k] for k in rest}) == cls(*fields)
    with pytest.raises(TypeError):
        cls(*fields[:-1])  # a field missing
    with pytest.raises(TypeError):
        cls(*fields, None)  # one field too many
    with pytest.raises(TypeError):
        cls(*fields, **{first: fields[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(**named, colour="red")


def test_public_records_keep_their_field_names():
    closed = ClosedFormSum(poly=Polynomial((0, 1)), source_degree=0)
    assert (closed.poly, closed.source_degree) == (Polynomial((0, 1)), 0)
    coeffs = PowerSumCoefficients(n=1, coeffs=(Fraction(-1, 2),))
    assert (coeffs.n, coeffs.coeffs) == (1, (Fraction(-1, 2),))


def test_repr_is_the_frozen_dataclass_repr():
    # both strings are what the frozen dataclasses printed
    assert repr(parse("2(x+1)^3 - x")) == (
        "Add(terms=(Mul(factors=(Lit(value=Fraction(2, 1)), Pow(base=Add(terms=("
        "Var(name='x'), Lit(value=Fraction(1, 1)))), exponent=3))), Neg(operand=Var(name='x'))))"
    )
    assert repr(power_sum_factored_form(3)) == (
        "PowerSumCoefficients(n=3, coeffs=(Fraction(-1, 2), Fraction(1, 1), Fraction(-1, 4)))"
    )


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, other):
    value = cls(*fields)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_polynomial_copies_and_pickles():
    p = sum_polynomial(Polynomial((Fraction(1, 3), 0, 5))).poly
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p
