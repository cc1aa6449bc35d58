import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge import field
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


# strings for the JSON reader: plain rationals (parsed on ints) mixed with
# the other forms Fraction reads or refuses (signs, whitespace, underscores,
# decimals, exponents, non-ASCII digits, zero and signed denominators)
_JSON_PIECES = st.sampled_from(
    ["0", "1", "7", "10", "-", "+", "/", "_", ".", "e", "E", " ", "\t", "\n",
     "\u0661", "\u0662", "\uff13", "00", "1/0", "/-2", "1_000"]
)
_JSON_STRINGS = st.one_of(
    st.lists(_JSON_PIECES, max_size=6).map("".join),
    st.builds(
        "{}{}/{}".format,
        st.sampled_from(["", "-", "+"]),
        st.integers(0, 10**30),
        st.integers(0, 10**30),
    ),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["", "1/0", "-0/0", "1/-2", "-1/2", "\u0661/\u0662",
                     " 3/4", "3/4 ", "1.5", "-2e3", "1e-2", "1_0/3", "0/7", "-0"]),
)


def _fraction_or_none(s):
    """Fraction(s), or None where Fraction refuses s (ValueError, or
    ZeroDivisionError for a zero denominator)."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


@given(_JSON_STRINGS, _JSON_STRINGS)
def test_json_strings_read_as_fraction_reads_them(s, t):
    # a rational string reads to Fraction(s) or is refused with ValueError
    # exactly where Fraction refuses it; likewise each part of an {a, b}
    for obj, want in (
        (s, _fraction_or_none(s)),
        ({"b": s}, _fraction_or_none(s)),
    ):
        if want is None:
            with pytest.raises(ValueError):
                FieldElem.from_json(obj)
        else:
            got = FieldElem.from_json(obj)
            expect = FieldElem(0, want) if isinstance(obj, dict) else FieldElem(want)
            assert (got.p, got.q, got.d) == (expect.p, expect.q, expect.d)
    a, b = _fraction_or_none(s), _fraction_or_none(t)
    if a is None or b is None:
        with pytest.raises(ValueError):
            FieldElem.from_json({"a": s, "b": t})
    else:
        got = FieldElem.from_json({"a": s, "b": t})
        want = FieldElem(a, b)
        assert (got.p, got.q, got.d) == (want.p, want.q, want.d)


def test_json_zero_denominator_message():
    for obj in ("1/0", " 1/0", {"a": "1", "b": "-3/0"}):
        with pytest.raises(ValueError, match="zero denominator"):
            FieldElem.from_json(obj)
    assert FieldElem.from_json("\u0661/\u0662") == FieldElem(Fraction(1, 2))


# -- the shared JSON value reader against the reader without a table --------


def _from_json_oracle(obj) -> FieldElem:
    """``FieldElem.from_json`` as it read values before they were shared:
    every call parses its value."""
    parts = obj if isinstance(obj, dict) else {"a": obj}
    if not set(parts) <= {"a", "b"} or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for v in parts.values()
    ):
        raise ValueError(
            f"a field element must be an int, a rational string or an "
            f"{{a, b}} object of those, got {obj!r}"
        )
    an, ad = field._json_rational(parts.get("a", 0), obj)
    bn, bd = field._json_rational(parts.get("b", 0), obj)
    d = math.lcm(ad, bd)
    return field.FieldElem._of(an * (d // ad), bn * (d // bd), d)


def _read(reader, obj):
    """("value", (p, q, d)) or ("error", message) of reader(obj)."""
    try:
        x = reader(obj)
    except ValueError as exc:
        return "error", str(exc)
    return "value", (x.p, x.q, x.d)


_GOOD_ATOMS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1/2", "3/6", "-0", "-0/5", "1/2 ", "1_0/3", "1.5", "-2e3", "6/4"]),
    _JSON_STRINGS,
)
_BAD_ATOMS = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([None, [], [1], ["1/2"], {}, {"a": 1}, "1/0", "-3/0", "x"]),
)
_ATOMS = st.one_of(_GOOD_ATOMS, _GOOD_ATOMS, _BAD_ATOMS)
_JSON_VALUES = st.one_of(
    _ATOMS,
    st.fixed_dictionaries({}, optional={"a": _ATOMS, "b": _ATOMS}),
    st.fixed_dictionaries({"c": _GOOD_ATOMS}, optional={"a": _GOOD_ATOMS, "b": _GOOD_ATOMS}),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(_JSON_VALUES, min_size=1, max_size=8))
def test_shared_value_reader_matches_the_uncached_oracle(values):
    # each value read twice, after the values before it: the second read,
    # and any later read of an equal value, comes from the shared table
    for obj in values + values:
        assert _read(FieldElem.from_json, obj) == _read(_from_json_oracle, obj)


def test_shared_value_reader_keeps_bools_and_ints_apart():
    for first, second in ((1, True), (True, 1), (0, False), (False, 0), (1, 1.0)):
        for wrap in (lambda v: v, lambda v: {"a": v}, lambda v: {"b": v}, lambda v: {"a": 2, "b": v}):
            field._parsed.cache_clear()
            for obj in (wrap(first), wrap(second), wrap(first)):
                assert _read(FieldElem.from_json, obj) == _read(_from_json_oracle, obj)
    with pytest.raises(ValueError, match="got True"):
        FieldElem.from_json(True)
    assert FieldElem.from_json(1) == ONE
    with pytest.raises(ValueError, match=r"got \{'a': True\}"):
        FieldElem.from_json({"a": True})


# -- differential test against the Fraction-pair representation -------------


def _ref_sign(a: Fraction, b: Fraction) -> int:
    if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        return (a + b > 0) - (a + b < 0)
    # opposite signs: the larger of a^2 and 2 b^2 wins
    return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)


class Ref:
    """a + b*sqrt(2) as a pair of Fractions: the oracle for FieldElem."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Ref(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Ref(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return Ref(-self.a, -self.b)

    def __mul__(self, o):
        return Ref(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        norm = o.a * o.a - 2 * o.b * o.b
        return self * Ref(o.a / norm, -o.b / norm)

    def sign(self):
        return _ref_sign(self.a, self.b)

    def __repr__(self):
        return f"FieldElem({self.a})" if self.b == 0 else f"FieldElem({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt2"

    def to_json(self):
        return str(self.a) if self.b == 0 else {"a": str(self.a), "b": str(self.b)}


wide = st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9)
pairs = st.tuples(wide, wide) | st.tuples(wide, st.just(Fraction(0))) | st.tuples(
    st.just(Fraction(0)), wide)


def _check(x: FieldElem, r: Ref):
    """x has r's value, in canonical form, and prints like r."""
    assert (x.a, x.b) == (r.a, r.b)
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert (x.p, x.q) == (r.a * x.d, r.b * x.d)
    assert (repr(x), str(x), x.to_json()) == (repr(r), str(r), r.to_json())
    assert x.sign() == r.sign()


@given(pairs, pairs)
def test_field_matches_fraction_pairs(u, v):
    x, y = FieldElem(*u), FieldElem(*v)
    r, s = Ref(*u), Ref(*v)
    _check(x, r)
    _check(x + y, r + s)
    _check(x - y, r - s)
    _check(x * y, r * s)
    _check(-x, -r)
    if v != (0, 0):
        _check(x / y, r / s)
    d = (r - s).sign()
    assert (x < y, x <= y, x > y, x >= y) == (d < 0, d <= 0, d > 0, d >= 0)
    assert (x == y) == (d == 0)


@given(pairs, st.integers(-100, 100), wide)
def test_field_mixed_with_ints_and_fractions(u, k, f):
    x, r = FieldElem(*u), Ref(*u)
    for c in (k, f):
        _check(x + c, r + Ref(c))
        _check(c + x, r + Ref(c))
        _check(c - x, Ref(c) - r)
        _check(c * x, r * Ref(c))
        if not x.is_zero():
            _check(c / x, Ref(c) / r)
        d = (r - Ref(c)).sign()
        assert (x < c, x <= c, x > c, x >= c) == (d < 0, d <= 0, d > 0, d >= 0)


@given(st.integers(-10**12, 10**12), wide)
def test_rational_elements_equal_and_hash_like_ints_and_fractions(k, f):
    for c in (k, f, Fraction(k)):
        x = FieldElem(c)
        assert x == c and c == x and hash(x) == hash(c)
        assert x != c + 1 and x + SQRT2 != c
    assert hash(FieldElem(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(FieldElem(3)) == hash(3)


@given(pairs)
def test_json_and_pickle_round_trips(u):
    x = FieldElem(*u)
    for y in (FieldElem.from_json(x.to_json()), pickle.loads(pickle.dumps(x))):
        assert y == x and (y.p, y.q, y.d) == (x.p, x.q, x.d) and hash(y) == hash(x)


@given(pairs, st.integers(-10**6, 10**6).filter(bool))
def test_equal_values_have_equal_triples(u, k):
    x = FieldElem(*u)
    via = [
        FieldElem._reduced(k * x.p, k * x.q, k * x.d),
        (x * k) / k,
        (x + SQRT2) - SQRT2,
        FieldElem(x.a) + FieldElem(0, x.b),
        x * INV_SQRT2 * SQRT2,
    ]
    for y in via:
        assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
        assert y == x and hash(y) == hash(x)


def test_division_by_negative_norm_keeps_d_positive():
    # 1 - sqrt2 has norm -1
    x = ONE / FieldElem(1, -1)
    assert (x.p, x.q, x.d) == (-1, -1, 1)
    assert x.sign() < 0 and x < 0
    y = FieldElem(Fraction(1, 3)) / FieldElem(1, 1)  # norm -1
    assert (y.p, y.q, y.d) == (-1, 1, 3) and y.sign() > 0


def test_components_are_shared_fractions():
    x, y = FieldElem(Fraction(1, 3), 2), FieldElem(Fraction(1, 3), 5)
    assert isinstance(x.a, Fraction) and x.a == Fraction(1, 3) and x.b == 2
    assert x.a is y.a
    with pytest.raises(AttributeError):
        x.p = 2
    with pytest.raises(AttributeError):
        x.a = 2


@pytest.mark.parametrize("bad", [0.5, 0.3, "1/2", "x", None, 1j, [1]])
def test_inexact_or_foreign_inputs_rejected(bad):
    with pytest.raises(ValueError):
        FieldElem(bad)
    with pytest.raises(ValueError):
        FieldElem(1, bad)
    with pytest.raises(ValueError):
        FieldElem.coerce(bad)
    with pytest.raises(ValueError):
        ONE + bad
