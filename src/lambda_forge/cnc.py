"""Closed noncontextual point sets and their phase-point operators.

A set Omega in E_n is closed when v, w in Omega with [v, w] = 0 implies
v + w in Omega, and noncontextual when it admits a value assignment
gamma with gamma(v+w) = gamma(v) + gamma(w) + beta(v, w) on commuting
pairs.  The associated operator

    A_Omega^gamma = (1/2^n) sum_{v in Omega} (-1)^{gamma(v)} T_v

has trace 1; for maximal such sets it is an extremal point of the
stabilizer-overlap polytope.

The cnc structure theorem (Raussendorf, Bermejo-Vega, Tyhurst, Okay and
Zurel, Phys. Rev. A 101, 012350 (2020), arXiv:1905.05374) writes every
cnc set that is not isotropic as

    Omega = I union (a_1 + I) union ... union (a_xi + I),

with I isotropic (the points of Omega that commute with all of Omega)
and a_1..a_xi, xi >= 2, pairwise anticommuting classes of I-perp / I.
Omega is maximal exactly when xi = 2(n - dim I) + 1, the largest
anticommuting set in the 2(n - dim I)-dimensional symplectic space
I-perp / I, so that |Omega| = |I| (2(n - dim I) + 2).  This gives both
``maximal_cnc_sets`` (1, 21 and 981 sets for n = 1, 2, 3) and
``is_maximal_cnc`` in closed form.

Every Pauli measurement update of a cnc operator has a closed form (the
cnc update theorem of the same paper):

* a in Omega: the outcome is deterministic, s = gamma(a), and the set
  shrinks to Omega intersect a-perp with gamma restricted.
* a not in Omega: weight 1/2 on the cnc set

      Omega x a = (Omega cap a-perp) union (a + Omega cap a-perp),
      gamma'(p) = gamma(p),  gamma'(p + a) = gamma(p) + s + beta(p, a),

  for every cnc set, isotropic or not.  The two halves are disjoint
  because a is not in the closed set Omega.

A ``CncSet`` is one dict {``PauliPoint.key()``: gamma bit}; Omega is its
keys.  Equality compares (n, dict); the hash, of the frozenset of its
items, is computed on first use and kept.  The operator, the update rules
and the one GF(2) consistency system (read by ``is_closed``,
``consistent_assignments``, ``is_cnc`` and ``CncSet``) run on the keys;
``.omega`` and ``.gamma`` are ``PauliPoint`` views.
"""

from __future__ import annotations

from dataclasses import field
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Optional

from .field import HALF, ONE, FieldElem, value_type
from .gf2 import (
    PauliPoint,
    affine_solutions,
    key_form,
    point_width,
    solve_affine,
    span,
    swap_halves,
    xor_sums,
)
from .pauli import QOperator, key_phase
from .stabilizer import Assignment, check_bit

_set = object.__setattr__


def _consistency_system(n: int, keys: Collection[int]) -> Optional[tuple[list[int], ...]]:
    """(nonzero keys ascending, rows, rhs) for gamma(u + v) = gamma(u) +
    gamma(v) + beta(u, v): per commuting pair u, v of nonzero keys the row
    bit(u) ^ bit(v) ^ bit(u ^ v), bit i for the i-th nonzero key, with rhs
    beta(u, v).  None when 0 or some such u ^ v is missing (not closed)."""
    if 0 not in keys:
        return None
    nz = sorted(keys)[1:]
    bit = {k: 1 << i for i, k in enumerate(nz)}
    rows, rhs = [], []
    for i, u in enumerate(nz):
        swapped = swap_halves(u, n)  # parity(v & swapped) = [v, u]
        for v in nz[i + 1:]:
            if not (v & swapped).bit_count() & 1:
                w = bit.get(u ^ v)
                if w is None:
                    return None
                rows.append((1 << i) ^ bit[v] ^ w)
                rhs.append(key_phase(u, v, n) >> 1)
    return nz, rows, rhs


def _keys(omega: Iterable[PauliPoint]) -> tuple[int, set[int]]:
    """(qubit count, keys) of a nonempty set of points of one width."""
    pts = set(omega)
    if not pts:
        raise ValueError("a closed set must contain 0, so it cannot be empty")
    return point_width(pts), {p.key() for p in pts}


def is_closed(omega: Iterable[PauliPoint]) -> bool:
    pts = set(omega)
    return not pts or _consistency_system(*_keys(pts)) is not None


def consistent_assignments(omega: Iterable[PauliPoint]) -> list[dict[PauliPoint, int]]:
    """All consistent value maps on a closed set (zero point value 0);
    ValueError on a set that is not closed under inference."""
    n, keys = _keys(omega)
    if 0 not in keys:
        raise ValueError("a closed set must contain 0")
    system = _consistency_system(n, keys)
    if system is None:
        raise ValueError("set is not closed under inference")
    nz, rows, rhs = system
    zero, points = PauliPoint.zero(n), [PauliPoint.from_key(n, k) for k in nz]
    return [
        {zero: 0, **{p: sol >> i & 1 for i, p in enumerate(points)}}
        for sol in affine_solutions(rows, rhs, len(nz))
    ]


def is_cnc(omega: Iterable[PauliPoint]) -> bool:
    """Closed, with a solvable consistency system; an empty set is refused."""
    system = _consistency_system(*_keys(omega))
    if system is None:
        return False
    nz, rows, rhs = system
    return solve_affine(rows, rhs, len(nz)) is not None


def is_maximal_cnc(omega: Iterable[PauliPoint]) -> bool:
    """cnc with no strict cnc superset: |Omega| = |I| (2(n - dim I) + 2)
    for the subspace I of points commuting with all of Omega (see the
    module docstring); O(|Omega|^2) pair tests."""
    pts = set(omega)
    if not is_cnc(pts):
        return False
    n, keys = _keys(pts)
    center = sum(not any(key_form(u, v, n) for v in keys) for u in keys)
    dim = center.bit_length() - 1  # the center is a subspace, as Omega is closed
    return len(keys) == center * (2 * (n - dim) + 2)


@value_type(init=False)
class CncSet:
    """A closed noncontextual set with a consistent value assignment, on int keys."""

    n: int
    _vals: dict[int, int]
    # cached on first use: memo lookups hash each state once, and a set
    # that no memo keys never pays for it
    _hash: Optional[int] = field(compare=False, repr=False)

    def __init__(self, omega: Iterable[PauliPoint], gamma: Mapping[PauliPoint, int]):
        pts = frozenset(omega)
        if not pts:
            raise ValueError("a cnc set contains 0, so Omega cannot be empty")
        n = point_width(pts)
        if gamma.keys() != pts:
            raise ValueError("gamma must give a value on exactly the points of Omega")
        vals = {p.key(): check_bit(b, "gamma values") for p, b in gamma.items()}
        if vals.get(0) != 0:
            raise ValueError("a cnc set contains 0 with value 0")
        system = _consistency_system(n, vals)
        if system is None:
            raise ValueError("set is not closed under inference")
        nz, rows, rhs = system
        bits = sum(vals[k] << i for i, k in enumerate(nz))
        if any((row & bits).bit_count() & 1 != b for row, b in zip(rows, rhs)):
            raise ValueError("value assignment is inconsistent")
        self._fill(n, vals)

    @staticmethod
    def _from_keys(n: int, vals: dict[int, int]) -> "CncSet":
        """The cnc set of gamma bits keyed by ``PauliPoint.key()`` that are
        already checked (a cnc set with its consistent assignment)."""
        return object.__new__(CncSet)._fill(n, vals)

    def _fill(self, n: int, vals: dict[int, int]) -> "CncSet":
        _set(self, "n", n)
        _set(self, "_vals", vals)
        _set(self, "_hash", None)
        return self

    @property
    def omega(self) -> frozenset[PauliPoint]:
        return frozenset(PauliPoint.from_key(self.n, k) for k in self._vals)

    @property
    def gamma(self) -> Mapping[PauliPoint, int]:
        """The value assignment keyed by ``PauliPoint``, read-only."""
        n = self.n
        return MappingProxyType({PauliPoint.from_key(n, k): b for k, b in self._vals.items()})

    @staticmethod
    def from_assignment(s: Assignment) -> "CncSet":
        """The cnc set of an isotropic subspace with its assignment."""
        return CncSet._from_keys(s.subspace.n, dict(s.key_items()))

    def operator(self) -> QOperator:
        return QOperator._of(self.n, 1, {k: (-1 if b else 1, 0) for k, b in self._vals.items()})

    def measure_update(self, a: PauliPoint, s: int) -> list[tuple[FieldElem, "CncSet"]]:
        """Closed-form update pieces for measuring T_a with outcome s.

        The cnc update theorem (see the module docstring): at most one
        piece, weight 1 when a is in Omega and the outcome matches
        gamma(a), weight 1/2 on Omega x a when a is outside Omega.
        Weights are unnormalized: they sum to the outcome probability
        and sum(w_i * piece_i.operator()) equals
        operator().project(a, s) exactly.  It runs on the keys, as ``project`` does.
        """
        if a.is_zero():
            raise ValueError("measurement axis must be nonzero")
        n = self.n
        if a.n != n:
            raise ValueError("qubit count mismatch")
        check_bit(s, "outcome")
        vals, ka = self._vals, a.key()
        outside = ka not in vals
        if not outside and s != vals[ka]:
            return []
        swapped = swap_halves(ka, n)  # parity(k & swapped) = [k, a]
        out = {}
        for k, b in vals.items():
            if not (k & swapped).bit_count() & 1:
                out[k] = b
                if outside:
                    out[k ^ ka] = b ^ s ^ (key_phase(k, ka, n) >> 1)
        return [(HALF if outside else ONE, CncSet._from_keys(n, out))]

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash(frozenset(self._vals.items())))
        return self._hash

    def __repr__(self):
        n = self.n
        body = " ".join(
            ("-" if b else "+") + PauliPoint.from_key(n, k).label()
            for k, b in sorted(self._vals.items())
            if k
        )
        return f"CncSet({body})"

    def to_json(self) -> dict:
        n = self.n
        items = [(PauliPoint.from_key(n, k).label(), b) for k, b in sorted(self._vals.items())]
        return {"omega": [lbl for lbl, _ in items], "gamma": dict(items)}

    @staticmethod
    def from_json(obj: Mapping) -> "CncSet":
        omega, gamma = obj.get("omega"), obj.get("gamma")
        if not (isinstance(omega, list) and all(isinstance(lbl, str) for lbl in omega)
                and isinstance(gamma, Mapping)):
            raise ValueError("a cnc set needs an omega list of Pauli labels and a gamma object")
        return CncSet(
            _label_points(omega),
            {p: gamma[lbl] for p, lbl in _label_points(gamma).items()},
        )


def _label_points(labels: Iterable[str]) -> dict[PauliPoint, str]:
    """Each label's point, mapped to the label; ValueError when two name one point."""
    out: dict[PauliPoint, str] = {}
    for lbl in labels:
        p = PauliPoint.from_label(lbl)
        if p in out:
            raise ValueError(f"Pauli labels {out[p]!r} and {lbl!r} name the same point")
        out[p] = lbl
    return out


def maximal_cnc_sets(n: int) -> list[frozenset[PauliPoint]]:
    """Every maximal cnc set on n qubits, largest first, then by sorted keys.

    The structure theorem (see the module docstring): for each isotropic
    I of dimension d < n, every 2(n - d) + 1 pairwise anticommuting
    classes of I-perp / I, each class given by its one key with no pivot
    bit of I set.  The isotropics of dimension d + 1 are I plus one such
    class.
    """
    if n < 1:
        raise ValueError("qubit count must be positive")

    def cliques(reps: list[int], size: int):
        if not size:
            yield ()
            return
        for i, a in enumerate(reps):
            rest = [b for b in reps[i + 1:] if key_form(a, b, n)]
            for clique in cliques(rest, size - 1):
                yield (a,) + clique

    found = []
    level = {span([], n)}
    for d in range(n):
        below, level = level, set()
        for iso in below:
            pivots = sum(1 << r.bit_length() - 1 for r in iso.rows)
            reps = [k for k in xor_sums(iso.perp().rows) if k and not k & pivots]
            inner = xor_sums(iso.rows)
            for clique in cliques(reps, 2 * (n - d) + 1):
                found.append(sorted(a ^ i for a in (0,) + clique for i in inner))
            if d + 1 < n:
                basis = iso.basis_points()
                level.update(span(basis + [PauliPoint.from_key(n, a)]) for a in reps)
    found.sort(key=lambda keys: (-len(keys), keys))
    return [frozenset(PauliPoint.from_key(n, k) for k in keys) for keys in found]


def cnc_vertices(n: int) -> list[CncSet]:
    """Every (maximal cnc set, consistent assignment) pair, in the order of
    ``maximal_cnc_sets`` and then of ``consistent_assignments``."""
    out = []
    for omega in maximal_cnc_sets(n):
        for vals in consistent_assignments(omega):
            out.append(CncSet._from_keys(n, {p.key(): b for p, b in vals.items()}))
    return out
