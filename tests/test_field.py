import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lambda_forge.field import FieldElem, INV_SQRT2, ONE, SQRT2, ZERO, sqrt2_sign

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
elems = st.builds(FieldElem, rationals, rationals)


def test_basic_arithmetic():
    x = FieldElem(Fraction(1, 2), Fraction(3, 4))
    y = FieldElem(Fraction(-2), Fraction(1, 4))
    assert x + y == FieldElem(Fraction(-3, 2), 1)
    assert x - x == ZERO
    assert SQRT2 * SQRT2 == FieldElem(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert (x * y) / y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_signs_mixed_components():
    assert FieldElem(3, -2).sign() == 1      # 3 > 2*sqrt2 is false... check exactly
    # 3 - 2 sqrt2 = 0.172 > 0
    assert FieldElem(3, -2) > 0
    assert FieldElem(1, -1) < 0              # 1 - sqrt2 < 0
    assert FieldElem(-1, 1) > 0
    assert FieldElem(-3, 2) < 0
    assert FieldElem(0, 0).sign() == 0


def test_ordering_matches_floats():
    vals = [FieldElem(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for x in vals:
        for y in vals:
            assert (x < y) == (float(x) < float(y) and x != y)


@given(elems, elems, elems)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(elems)
def test_multiplicative_inverse(x):
    if not x.is_zero():
        assert x / x == ONE
        assert (ONE / x) * x == ONE


@given(elems, elems)
def test_sign_consistency(x, y):
    diff = x - y
    assert (diff.sign() > 0) == (x > y)
    assert (diff.sign() == 0) == (x == y)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**40))
def test_sqrt2_sign_on_integers(a, b, k):
    # |a + b sqrt2| >= 1 / (|a| + 2|b|) > 1e-7 unless a = b = 0, far above
    # the float error here, so the float sign is a safe oracle
    assert sqrt2_sign(a, b) == (a + b * math.sqrt(2) > 0) - (a + b * math.sqrt(2) < 0)
    # big integers, as in the simplex tableau: a positive scale keeps the sign
    assert sqrt2_sign(k * a, k * b) == sqrt2_sign(a, b)
    assert FieldElem(a, b).sign() == sqrt2_sign(a, b)


@given(elems)
def test_json_round_trip(x):
    assert FieldElem.from_json(x.to_json()) == x


def test_json_plain_rational():
    assert FieldElem.from_json("3/4") == FieldElem(Fraction(3, 4))
    assert FieldElem(Fraction(3, 4)).to_json() == "3/4"


def test_json_rejects_wrong_types():
    assert FieldElem.from_json(3) == FieldElem(3)
    assert FieldElem.from_json({"b": "1/2"}) == INV_SQRT2
    for bad in ([1], None, 0.5, True, {"a": [1]}, {"a": None}, {"c": "1"}, "1/0", "x"):
        with pytest.raises(ValueError):
            FieldElem.from_json(bad)
