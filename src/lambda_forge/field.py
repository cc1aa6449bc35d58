"""Exact arithmetic in the real quadratic field Q(sqrt(2)).

Every number that appears on the main computational paths of this package
(polytope facet values, vertex coefficients, measurement probabilities,
magic-state overlaps) lies in Q(sqrt(2)).  ``FieldElem`` stores such a
number as an exact pair of rationals ``a + b*sqrt(2)`` and supports the
ordered-field operations, so no tolerance is ever needed.
"""

from __future__ import annotations

from fractions import Fraction


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


class FieldElem:
    """An element a + b*sqrt(2) with Fraction components a, b.

    Instances are treated as immutable; all operators return new objects.
    Comparisons are exact (sqrt(2) is irrational, so a + b*sqrt(2) = 0
    only when a = b = 0).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __reduce__(self):
        return (FieldElem, (self.a, self.b))

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(x) -> "FieldElem":
        if isinstance(x, FieldElem):
            return x
        return FieldElem(Fraction(x))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = FieldElem.coerce(other)
        return FieldElem(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = FieldElem.coerce(other)
        return FieldElem(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return FieldElem.coerce(other) - self

    def __neg__(self):
        return FieldElem(-self.a, -self.b)

    def __mul__(self, other):
        other = FieldElem.coerce(other)
        return FieldElem(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FieldElem.coerce(other)
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return self * FieldElem(other.a / norm, -other.b / norm)

    def __rtruediv__(self, other):
        return FieldElem.coerce(other) / self

    # -- predicates and ordering -------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(2)."""
        return sqrt2_sign(self.a, self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, FieldElem):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - FieldElem.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - FieldElem.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - FieldElem.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - FieldElem.coerce(other)).sign() >= 0

    # -- conversions -------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * 1.4142135623730951

    def __repr__(self):
        if self.b == 0:
            return f"FieldElem({self.a})"
        return f"FieldElem({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{abs(self.b)}*sqrt2"

    def to_json(self):
        """JSON form: a bare rational string when b = 0, else {a, b}."""
        if self.b == 0:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b)}

    @staticmethod
    def from_json(obj) -> "FieldElem":
        """Inverse of `to_json`: an int or a rational string, or an object
        {a, b} of those (either may be absent).  ValueError otherwise."""
        parts = obj if isinstance(obj, dict) else {"a": obj}
        if not set(parts) <= {"a", "b"} or not all(
            isinstance(v, (int, str)) and not isinstance(v, bool) for v in parts.values()
        ):
            raise ValueError(
                f"a field element must be an int, a rational string or an "
                f"{{a, b}} object of those, got {obj!r}"
            )
        try:
            return FieldElem(Fraction(parts.get("a", 0)), Fraction(parts.get("b", 0)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in field element {obj!r}") from None


ZERO = FieldElem(0)
ONE = FieldElem(1)
HALF = FieldElem(Fraction(1, 2))
SQRT2 = FieldElem(0, 1)
INV_SQRT2 = FieldElem(0, Fraction(1, 2))
