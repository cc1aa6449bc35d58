"""Exact arithmetic in the real quadratic field Q(sqrt(2)).

Every number that appears on the main computational paths of this package
(polytope facet values, vertex coefficients, measurement probabilities,
magic-state overlaps) lies in Q(sqrt(2)).  ``FieldElem`` stores such a
number as three integers p, q, d meaning (p + q*sqrt(2)) / d, kept
canonical (d > 0 and gcd(p, q, d) = 1), so equal values have equal
triples and each operation is integer arithmetic with one gcd.  No
tolerance is ever needed.  Only ints, Fractions and field elements enter
the field; anything else (a float, a string) is a ValueError.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def sqrt2_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for integers (or Fractions) a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a^2 against 2 b^2.  Equality cannot occur
    # for nonzero components since sqrt(2) is irrational.
    cmp = a * a - 2 * b * b
    return 1 if (a > 0) == (cmp > 0) else -1


@lru_cache(maxsize=1024)
def _fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction, shared: the few distinct components that the
    ``a``/``b`` readers ask for are built once, not once per read."""
    return Fraction(num, den)


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _json_value(p: int, q: int, d: int):
    """The JSON form of (p + q*sqrt(2)) / d, d > 0, in any terms: each
    part is written in lowest terms, so the triple need not be canonical."""
    if not q:
        return _ratio_str(p, d)
    return {"a": _ratio_str(p, d), "b": _ratio_str(q, d)}


def _rational(x):
    """(numerator, denominator) of an int or a Fraction; ValueError for
    anything else, so no float or string enters the field."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ValueError(f"field elements take ints and Fractions only, got {x!r}")


def _json_rational(v, obj) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of one component of a JSON
    field element: an int, or a string as ``Fraction`` reads it, so the
    accepted strings and the errors are its own.  Under `_parsed` this
    runs once per distinct value."""
    if isinstance(v, int):
        return v, 1
    try:
        f = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in field element {obj!r}") from None
    return f.numerator, f.denominator


def _immutable(self, name, *value):
    raise FrozenInstanceError(f"{type(self).__name__} is immutable")


_set = object.__setattr__


def value_type(**options):
    """Declare a class as an immutable value: ``dataclass(frozen=True,
    slots=True, **options)``, whose setting and deleting of any name,
    field or not, raises ``FrozenInstanceError`` (an AttributeError).

    The refusal that ``dataclass`` writes for a frozen class names the
    class before its slots copy, so on the copy it raises TypeError for a
    name that is not a field; this one refusal holds for every name.

    Every declared class gets one trusted builder, ``Cls._of(<fields in
    declaration order>)``, with the fields' defaults: it writes each field
    through its slot and runs no ``__init__`` and no ``__post_init__``, so
    its caller vouches for the values.  Validating constructors write
    their own fields with ``object.__setattr__``.  A class that declares
    a ``_hash`` field (compare=False, repr=False, default None) has its
    hash kept: its own ``__hash__``, written in the class or generated
    from the compared fields, runs on first use and is stored there."""

    def declare(cls):
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        cls.__setattr__ = cls.__delattr__ = _immutable
        cls._of = _builder(cls)
        if "_hash" in cls.__slots__:
            cls.__hash__ = _kept(cls.__hash__)
        return cls

    return declare


def _builder(cls):
    """``cls._of``, generated once per class as ``dataclass`` writes
    ``__init__``: one slot write per field, with no loop."""
    env = {"_new": object.__new__, "_cls": cls}
    params, writes = [], []
    for f in fields(cls):
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        params.append(f.name)
        if f.default is not MISSING:
            env[f"_default_{f.name}"] = f.default
            params[-1] += f"=_default_{f.name}"
        writes.append(f"    _set_{f.name}(self, {f.name})\n")
    exec(f"def _of({', '.join(params)}):\n    self = _new(_cls)\n{''.join(writes)}"
         f"    return self\n", env)
    return staticmethod(env["_of"])


def _kept(own):
    """A ``__hash__`` that runs ``own`` on first use and keeps the value
    in the ``_hash`` slot."""

    def __hash__(self):
        h = self._hash
        if h is None:
            h = own(self)
            _set(self, "_hash", h)
        return h

    return __hash__


@value_type(init=False, eq=False)
class FieldElem:
    """An element (p + q*sqrt(2)) / d with integers p, q and d > 0,
    gcd(p, q, d) = 1.

    Built as FieldElem(a, b) = a + b*sqrt(2) from ints or Fractions a, b.
    Instances are immutable; all operators return new objects.
    Comparisons are exact (sqrt(2) is irrational, so p + q*sqrt(2) = 0
    only when p = q = 0).  The rational components ``a`` and ``b`` are
    read-only Fractions served from one small bounded shared table, which
    ``QOperator.key()`` reads too, so the operator keys that the test
    oracles hash hold shared Fractions, not one fresh Fraction per read.
    """

    p: int
    q: int
    d: int

    def __init__(self, a=0, b=0):
        an, ad = _rational(a)
        bn, bd = _rational(b)
        # both components are reduced, so the triple over the lcm of their
        # denominators is already canonical
        d = lcm(ad, bd)
        _set(self, "p", an * (d // ad))
        _set(self, "q", bn * (d // bd))
        _set(self, "d", d)

    @staticmethod
    def _reduced(p: int, q: int, d: int) -> "FieldElem":
        """(p + q*sqrt(2)) / d in canonical form; d must be nonzero."""
        g = gcd(p, q, d)
        if d < 0:
            g = -g
        if g != 1:
            p //= g
            q //= g
            d //= g
        return FieldElem._of(p, q, d)

    @property
    def a(self) -> Fraction:
        """The rational part, as a Fraction."""
        return _fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The sqrt(2) part, as a Fraction."""
        return _fraction(self.q, self.d)

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(x) -> "FieldElem":
        """x as a field element: x itself, an int or a Fraction;
        ValueError for anything else."""
        if isinstance(x, FieldElem):
            return x
        n, d = _rational(x)
        return FieldElem._of(n, 0, d)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = FieldElem.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return FieldElem._reduced(self.p + other.p, self.q + other.q, d)
        return FieldElem._reduced(
            self.p * e + other.p * d, self.q * e + other.q * d, d * e
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = FieldElem.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return FieldElem._reduced(self.p - other.p, self.q - other.q, d)
        return FieldElem._reduced(
            self.p * e - other.p * d, self.q * e - other.q * d, d * e
        )

    def __rsub__(self, other):
        return FieldElem.coerce(other) - self

    def __neg__(self):
        return FieldElem._of(-self.p, -self.q, self.d)

    def __mul__(self, other):
        other = FieldElem.coerce(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        return FieldElem._reduced(p * r + 2 * q * s, p * s + q * r, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # x / y = x * d_y * (r - s*sqrt(2)) / (r^2 - 2 s^2), y = (r + s*sqrt(2)) / d_y
        other = FieldElem.coerce(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        norm = r * r - 2 * s * s
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        e = other.d
        return FieldElem._reduced(
            (p * r - 2 * q * s) * e, (q * r - p * s) * e, self.d * norm
        )

    def __rtruediv__(self, other):
        return FieldElem.coerce(other) / self

    # -- predicates and ordering -------------------------------------

    def is_zero(self) -> bool:
        return not (self.p or self.q)

    def sign(self) -> int:
        """Exact sign of the real number (p + q*sqrt(2)) / d."""
        return sqrt2_sign(self.p, self.q)

    def _cmp(self, other) -> int:
        """Sign of self - other."""
        other = FieldElem.coerce(other)
        d, e = self.d, other.d
        return sqrt2_sign(self.p * e - other.p * d, self.q * e - other.q * d)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, int):
            return self.q == 0 and self.d == 1 and self.p == other
        if isinstance(other, Fraction):
            return (
                self.q == 0
                and self.d == other.denominator
                and self.p == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.d == 1 else hash(_fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions -------------------------------------------------

    def __float__(self):
        return self.p / self.d + (self.q / self.d) * 1.4142135623730951

    def __repr__(self):
        if self.q == 0:
            return f"FieldElem({_ratio_str(self.p, self.d)})"
        return f"FieldElem({_ratio_str(self.p, self.d)}, {_ratio_str(self.q, self.d)})"

    def __str__(self):
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return _ratio_str(p, d)
        if p == 0:
            return f"{_ratio_str(q, d)}*sqrt2"
        sep = "+" if q > 0 else "-"
        return f"{_ratio_str(p, d)}{sep}{_ratio_str(abs(q), d)}*sqrt2"

    def to_json(self):
        """JSON form: a bare rational string when b = 0, else {a, b}."""
        return _json_value(self.p, self.q, self.d)

    @staticmethod
    def from_json(obj) -> "FieldElem":
        """Inverse of `to_json`: an int or a rational string, or an object
        {a, b} of those (either may be absent).  ValueError otherwise.

        The components go through `_parsed`, so each distinct value is
        read once; what it cannot take (an unhashable or malformed value)
        is read again by `_read_json`, whose errors name the whole value."""
        try:
            if not isinstance(obj, dict):
                return _parsed(obj, 0)
            if obj.keys() <= _PARTS:
                return _parsed(obj.get("a", 0), obj.get("b", 0))
        except (TypeError, ValueError):
            pass
        return _read_json(obj)


_PARTS = frozenset(("a", "b"))


def _read_json(obj) -> FieldElem:
    """`FieldElem.from_json` without the shared table."""
    parts = obj if isinstance(obj, dict) else {"a": obj}
    if not set(parts) <= _PARTS or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for v in parts.values()
    ):
        raise ValueError(
            f"a field element must be an int, a rational string or an "
            f"{{a, b}} object of those, got {obj!r}"
        )
    an, ad = _json_rational(parts.get("a", 0), obj)
    bn, bd = _json_rational(parts.get("b", 0), obj)
    # both components are in lowest terms, so over the lcm of their
    # denominators the triple is canonical
    d = lcm(ad, bd)
    return FieldElem._of(an * (d // ad), bn * (d // bd), d)


@lru_cache(maxsize=1024, typed=True)
def _parsed(a, b) -> FieldElem:
    """The field element of the JSON components a and b, shared: operator
    files repeat a few values.  Typed, so True and 1 (equal, with equal
    hashes) are separate entries, and True is refused as before."""
    return _read_json({"a": a, "b": b})

ZERO = FieldElem(0)
ONE = FieldElem(1)
HALF = FieldElem(Fraction(1, 2))
SQRT2 = FieldElem(0, 1)
INV_SQRT2 = FieldElem(0, Fraction(1, 2))
