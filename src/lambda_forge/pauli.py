"""Exact Hermitian-operator algebra in the n-qubit Pauli basis.

Conventions
-----------
The Pauli operator indexed by a point v = (v_Z, v_X) of E_n is

    T_v = i^{q(v)} X(v_X) Z(v_Z),      q(v) = |{qubits with both bits}|,

with the exponent of i counted as an integer (mod 4), so that

* every T_v is Hermitian with T_v^2 = 1,
* T at a (1,1) qubit equals the matrix Y (i * X Z = Y),
* T factors over disjoint qubit supports: T_{v+u} = T_v (x) T_u.

Products carry a Z_4 phase: T_v T_w = i^{phase(v, w)} T_{v+w}, and for
commuting v, w the Hermitian sign bit beta(v, w) is phase/2.

A ``QOperator`` is the exact coefficient map of a Hermitian operator

    A = (1/2^n) sum_v alpha_v T_v,

with alpha_v in Q(sqrt(2)).  Absent coefficients are zero; trace(A) is
the coefficient at v = 0.

Inside, alpha_v = (p + q*sqrt(2)) / D: one denominator D > 0 and a dict
{(v_Z << n) | v_X: (p, q)} keyed by ``PauliPoint.key()``, canonical (no
pair (0, 0), gcd(D, every p and q) = 1), so equal operators hold equal
ints.  Sums, scaling, projection, ``tensor``, ``trace_inner``, ``key``,
JSON, equality, hashing and the Clifford, lift, polytope, simplex and
family code run on them, reading form and phase off whole keys
(``gf2.key_form``, ``key_phase``).  ``QOperator(n, {PauliPoint: c})``
validates; ``coeff``, ``trace`` and ``.coeffs``, a read-only view built
on each read (no module of the package reads it; the bench, the demos
and the tests do), give FieldElems.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional

from .field import ZERO, FieldElem, _fraction, _ratio_str, value_type
from .gf2 import PauliPoint, swap_halves, symplectic_form


@value_type(repr=False)
class PhasedPauli:
    """i^phase * T_point with phase in Z_4; Hermitian iff phase is even."""

    point: PauliPoint
    phase: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase & 3)

    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a Hermitian element."""
        if not self.is_hermitian():
            raise ValueError("phase is imaginary; no real sign")
        return 1 if self.phase == 0 else -1

    def __repr__(self):
        pref = ["+", "+i", "-", "-i"][self.phase]
        return f"{pref}{self.point.label()}"

    @staticmethod
    def from_label(text: str) -> "PhasedPauli":
        text = text.strip().replace("−", "-")
        phase = 0
        if text.startswith(("+i", "-i")):
            phase = 1 if text[0] == "+" else 3
            text = text[2:]
        elif text.startswith("+"):
            text = text[1:]
        elif text.startswith("-"):
            phase = 2
            text = text[1:]
        elif text.startswith("i"):
            phase = 1
            text = text[1:]
        return PhasedPauli(PauliPoint.from_label(text), phase)


def signed_point(label, what: str) -> tuple[PauliPoint, int]:
    """(point, sign bit) of a signed Hermitian Pauli label such as "-XZ";
    ValueError, naming ``what``, for anything else."""
    if not isinstance(label, str):
        raise ValueError(f"{what} must be a Pauli label, got {label!r}")
    pp = PhasedPauli.from_label(label)
    if not pp.is_hermitian():
        raise ValueError(f"{what} must carry a real sign, got {label!r}")
    return pp.point, pp.phase >> 1


def product_phase(v: PauliPoint, w: PauliPoint) -> int:
    """Exponent k in T_v T_w = i^k T_{v+w} (mod 4)."""
    if v.n != w.n:
        raise ValueError("qubit count mismatch")
    return key_phase(v.key(), w.key(), v.n)


def key_phase(a: int, b: int, n: int) -> int:
    """``product_phase`` of the n-qubit points with keys a and b
    (``PauliPoint.key()``): q(a) + q(b) - q(a + b) + 2|a_Z & b_X| (mod 4),
    with q(k) = |(k >> n) & k| the qubits carrying both bits."""
    c = a ^ b
    return (
        ((a >> n) & a).bit_count()
        + ((b >> n) & b).bit_count()
        - ((c >> n) & c).bit_count()
        + 2 * ((a >> n) & b).bit_count()
    ) & 3


def beta(v: PauliPoint, w: PauliPoint) -> int:
    """Sign bit with T_{v+w} = (-1)^beta T_v T_w, defined for commuting pairs."""
    if symplectic_form(v, w) != 0:
        raise ValueError("beta is undefined for anticommuting points")
    return product_phase(v, w) >> 1


@value_type(init=False)
class QOperator:
    """Exact Hermitian operator A = (1/2^n) sum_v alpha_v T_v.

    ``QOperator(n, {PauliPoint: c})`` checks every point and coefficient;
    ``.coeffs`` is the read-only ``PauliPoint``-keyed view (see the module
    docstring for the integers inside).  The trusted ``QOperator._of(n,
    den, num)`` takes coefficient (p + q*sqrt(2)) / den at each key of
    num, already canonical: keys that fit n qubits, den > 0, no pair
    (0, 0), and gcd(den, every p and q) = 1.
    """

    n: int
    _den: int
    _num: dict[int, tuple[int, int]]

    def __init__(self, n: int, coeffs: Optional[Mapping[PauliPoint, FieldElem]] = None):
        elems: dict[int, FieldElem] = {}
        for point, c in (coeffs or {}).items():
            if point.n != n:
                raise ValueError("coefficient point has wrong qubit count")
            elems[point.key()] = FieldElem.coerce(c)
        den, num = _over_lcm(elems)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", num)

    @staticmethod
    def _reduced(n: int, den: int, num: dict[int, tuple[int, int]]) -> "QOperator":
        """``_of`` for any den > 0 and pairs: zero pairs are dropped, and
        den and the pairs are divided by their gcd."""
        num = {k: pq for k, pq in num.items() if pq[0] or pq[1]}
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            den, num = den // g, {k: (p // g, q // g) for k, (p, q) in num.items()}
        return QOperator._of(n, den, num)

    @property
    def coeffs(self) -> Mapping[PauliPoint, FieldElem]:
        """The coefficients keyed by ``PauliPoint``, read-only; built on
        each read."""
        n, den = self.n, self._den
        return MappingProxyType({PauliPoint.from_key(n, k): FieldElem._reduced(p, q, den)
                                 for k, (p, q) in self._num.items()})

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int) -> "QOperator":
        return QOperator(n, {})

    @staticmethod
    def identity(n: int) -> "QOperator":
        """The identity operator (trace 2^n, the multiplicative unit)."""
        return QOperator(n, {PauliPoint.zero(n): FieldElem(1 << n)})

    @staticmethod
    def from_labels(n: int, entries: Mapping[str, object]) -> "QOperator":
        return QOperator(n, {PauliPoint.from_label(lbl): val for lbl, val in entries.items()})

    # -- basic queries ---------------------------------------------------

    def coeff(self, point: PauliPoint) -> FieldElem:
        if point.n != self.n:
            raise ValueError("qubit count mismatch")
        pq = self._num.get(point.key())
        return ZERO if pq is None else FieldElem._reduced(*pq, self._den)

    def trace(self) -> FieldElem:
        pq = self._num.get(0)
        return ZERO if pq is None else FieldElem._reduced(*pq, self._den)

    def key(self):
        """Canonical hashable form (sorted coefficient items)."""
        den = self._den
        items = sorted((k, _fraction(p, den), _fraction(q, den)) for k, (p, q) in self._num.items())
        return (self.n, tuple(items))

    def is_zero(self) -> bool:
        return not self._num

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._num.items())))

    def __repr__(self):
        n, den = self.n, self._den
        body = " ".join(
            f"{FieldElem._reduced(p, q, den)!s}*{PauliPoint.from_key(n, k).label()}"
            for k, (p, q) in sorted(self._num.items())
        ) or "0"
        return f"QOperator({n}; {body})"

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "QOperator") -> "QOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        den = lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        out = {k: (p * f, q * f) for k, (p, q) in self._num.items()}
        for k, (p, q) in other._num.items():
            r, t = out.get(k, (0, 0))
            out[k] = (r + p * g, t + q * g)
        return QOperator._reduced(self.n, den, out)

    def __sub__(self, other: "QOperator") -> "QOperator":
        return self + other.scale(-1)

    def scale(self, factor) -> "QOperator":
        f = FieldElem.coerce(factor)
        r, s = f.p, f.q
        num = {k: (p * r + 2 * q * s, p * s + q * r) for k, (p, q) in self._num.items()}
        return QOperator._reduced(self.n, self._den * f.d, num)

    # -- multiplicative structure ----------------------------------------

    def tensor(self, other: "QOperator") -> "QOperator":
        """Tensor product with self's qubits first."""
        m, k = self.n, other.n
        n = m + k
        mask_m, mask_k = (1 << m) - 1, (1 << k) - 1
        out = {}
        for v, (p, q) in self._num.items():
            vz, vx = v >> m, v & mask_m
            for w, (r, s) in other._num.items():
                z = vz | ((w >> k) << m)
                x = vx | ((w & mask_k) << m)
                out[(z << n) | x] = (p * r + 2 * q * s, p * s + q * r)
        return QOperator._reduced(n, self._den * other._den, out)

    def trace_inner(self, other: "QOperator") -> FieldElem:
        """Tr(self * other), exact.  Bilinear and symmetric."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        small, large = (
            (self._num, other._num)
            if len(self._num) <= len(other._num)
            else (other._num, self._num)
        )
        pairs = [(pq, large[k]) for k, pq in small.items() if k in large]
        x = sum(p * r + 2 * q * s for (p, q), (r, s) in pairs)
        y = sum(p * s + q * r for (p, q), (r, s) in pairs)
        return FieldElem._reduced(x, y, (self._den * other._den) << self.n)

    def project(self, a: PauliPoint, s: int) -> "QOperator":
        """Pi_{a,s} self Pi_{a,s} with Pi_{a,s} = (1 + (-1)^s T_a)/2.

        Closed form, one pass over the coefficients: Pi T_v Pi = 0 when
        [v, a] = 1, and otherwise

            Pi T_v Pi = (T_v + (-1)^{s + beta(v, a)} T_{v+a}) / 2.

        Since beta(v + a, a) = beta(v, a), the output coefficients at v
        and v + a agree up to that sign, so each pair is computed once, as
        (c +- d) / 2: the numerators of c and d added or subtracted over
        twice the operator's denominator, with one gcd for the result.
        """
        if a.is_zero():
            raise ValueError("projection axis must be nonzero")
        n = self.n
        if a.n != n:
            raise ValueError("qubit count mismatch")
        ka = a.key()
        swapped = swap_halves(ka, n)  # parity(v & swapped) = [v, a]
        num = self._num
        out: dict[int, tuple[int, int]] = {}
        for v, (p, q) in num.items():
            if v in out or (v & swapped).bit_count() & 1:
                continue
            u = v ^ ka
            r, t = num.get(u, (0, 0))
            if (s + (key_phase(v, ka, n) >> 1)) & 1:
                out[v], out[u] = (p - r, q - t), (r - p, t - q)
            else:
                out[v] = out[u] = (p + r, q + t)
        return QOperator._reduced(n, 2 * self._den, out)

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> dict:
        n, den = self.n, self._den
        return {
            "n": n,
            "coeffs": {
                PauliPoint.from_key(n, k).label(): dict(a=_ratio_str(p, den), b=_ratio_str(q, den))
                for k, (p, q) in sorted(self._num.items())
            },
        }

    @staticmethod
    def from_json(obj: Mapping) -> "QOperator":
        if not isinstance(obj, Mapping):
            raise ValueError(f"an operator must be an object, got {obj!r}")
        n, coeffs = obj.get("n"), obj.get("coeffs", {})
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"operator qubit count n must be an integer, got {n!r}")
        if not isinstance(coeffs, Mapping):
            raise ValueError(f"operator coeffs must be an object, got {coeffs!r}")
        elems: dict[int, FieldElem] = {}
        for label, val in coeffs.items():
            width, key = _label_key(label)
            if width != n:
                raise ValueError("coefficient point has wrong qubit count")
            if key in elems:
                # labels are read with surrounding whitespace stripped
                first = next(k for k in coeffs if _label_key(k) == (n, key))
                raise ValueError(f"Pauli labels {first!r} and {label!r} name the same point")
            elems[key] = FieldElem.from_json(val)
        return QOperator._of(n, *_over_lcm(elems))


def _over_lcm(elems: dict[int, FieldElem]) -> tuple[int, dict[int, tuple[int, int]]]:
    """(D, numerators) of canonical field elements by key over D = lcm(d):
    no gcd is needed, as a prime's full power in D divides some d, so not
    p, q."""
    elems = {k: c for k, c in elems.items() if c.p or c.q}
    den = lcm(*(c.d for c in elems.values()))
    return den, {k: (c.p * (den // c.d), c.q * (den // c.d)) for k, c in elems.items()}


@lru_cache(maxsize=1024)
def _label_key(label: str) -> tuple[int, int]:
    """(qubit count, ``PauliPoint.key()``) of a Pauli label; shared, since
    operator files repeat the same few labels."""
    point = PauliPoint.from_label(label)
    return point.n, point.key()


def pauli_projector(a: PauliPoint, s: int) -> QOperator:
    """The rank-2^{n-1} projector (1 + (-1)^s T_a)/2 as a QOperator; a
    must be nonzero, as in `QOperator.project`."""
    if a.is_zero():
        raise ValueError("projection axis must be nonzero")
    h = 1 << (a.n - 1)
    return QOperator(a.n, {PauliPoint.zero(a.n): FieldElem(h), a: FieldElem(-h if s % 2 else h)})
