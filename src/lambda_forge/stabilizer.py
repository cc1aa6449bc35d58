"""Stabilizer projectors and value assignments on isotropic subspaces.

A value assignment s on an isotropic subspace J fixes the measurement
sign (-1)^{s(v)} of every T_v, v in J.  Assignments are stored on the
canonical basis rows only; the value at any other point is derived by
folding through the product signs, so consistency

    s(v + w) = s(v) + s(w) + beta(v, w)

holds by construction and inconsistent assignments cannot be built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .field import FieldElem
from .gf2 import (
    PauliPoint,
    Subspace,
    enumerate_maximal_isotropics,
    solve_affine,
    span,
)
from .pauli import PhasedPauli, QOperator, beta


class Assignment:
    """A consistent value assignment on an isotropic subspace."""

    __slots__ = ("subspace", "row_values")

    def __init__(self, subspace: Subspace, row_values: Sequence[int]):
        if len(row_values) != subspace.dim:
            raise ValueError("need one value per basis row")
        if not subspace.is_isotropic():
            raise ValueError("assignments live on isotropic subspaces")
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "row_values", tuple(v & 1 for v in row_values))

    def __setattr__(self, name, value):
        raise AttributeError("Assignment is immutable")

    def __reduce__(self):
        return (Assignment, (self.subspace, self.row_values))

    @staticmethod
    def zero(subspace: Subspace) -> "Assignment":
        return Assignment(subspace, (0,) * subspace.dim)

    @staticmethod
    def from_pairs(
        pairs: Iterable[tuple[PauliPoint, int]], n: Optional[int] = None
    ) -> "Assignment":
        """Build the consistent assignment taking the given values.

        Raises ValueError if the listed values contradict each other (a
        point whose value is forced two different ways).
        """
        pairs = list(pairs)
        sub = span([p for p, _ in pairs], n)
        # Solve for row values: each given pair yields a linear condition
        # on the row bits, with the beta fold as affine offset.
        rows = sub.basis_points()
        eqs = []
        rhs = []
        for p, val in pairs:
            coords = sub.coordinates(p)
            if coords is None:
                raise AssertionError("span member lookup failed")
            eqs.append(sum(bit << i for i, bit in enumerate(coords)))
            rhs.append((val ^ _fold_offset(rows, coords)) & 1)
        solved = solve_affine(eqs, rhs, sub.dim)
        if solved is None:
            raise ValueError("inconsistent value assignment")
        return Assignment(sub, [solved[0] >> i & 1 for i in range(sub.dim)])

    def value(self, p: PauliPoint) -> int:
        coords = self.subspace.coordinates(p)
        if coords is None:
            raise ValueError(f"{p!r} is outside the assignment domain")
        total = _fold_offset(self.subspace.basis_points(), coords)
        for bit, v in zip(coords, self.row_values):
            total ^= bit & v
        return total & 1

    def items(self) -> Iterator[tuple[PauliPoint, int]]:
        for p in self.subspace.points():
            yield p, self.value(p)

    def as_dict(self) -> dict[PauliPoint, int]:
        return dict(self.items())

    def restrict(self, sub: Subspace) -> "Assignment":
        if any(not self.subspace.contains(p) for p in sub.basis_points()):
            raise ValueError("restriction target is not contained in the domain")
        return Assignment(sub, [self.value(p) for p in sub.basis_points()])

    def __eq__(self, other):
        return (
            isinstance(other, Assignment)
            and self.subspace == other.subspace
            and self.row_values == other.row_values
        )

    def __hash__(self):
        return hash((self.subspace, self.row_values))

    def __repr__(self):
        gens = " ".join(
            ("-" if v else "+") + p.label()
            for p, v in zip(self.subspace.basis_points(), self.row_values)
        )
        return f"Assignment[{gens or '0'}]"


def _fold_offset(rows: Sequence[PauliPoint], coords: Sequence[int]) -> int:
    """Accumulated beta signs from multiplying the selected rows in order."""
    acc: Optional[PauliPoint] = None
    offset = 0
    for bit, row in zip(coords, rows):
        if not bit:
            continue
        if acc is None:
            acc = row
        else:
            offset ^= beta(acc, row)
            acc = acc ^ row
    return offset


def all_assignments(subspace: Subspace) -> Iterator[Assignment]:
    for bits in product((0, 1), repeat=subspace.dim):
        yield Assignment(subspace, bits)


def stabilizer_projector(J: Subspace, s: Assignment | Sequence[int]) -> QOperator:
    """Pi_{J,s} = (1/|J|) sum_{v in J} (-1)^{s(v)} T_v, an exact projector."""
    if not isinstance(s, Assignment):
        s = Assignment(J, s)
    if s.subspace != J:
        raise ValueError("assignment domain differs from the projector subspace")
    scale = Fraction(1 << (J.n - J.dim))
    coeffs = {}
    for p, val in s.items():
        coeffs[p] = FieldElem(scale if val == 0 else -scale)
    return QOperator(J.n, coeffs)


def enumerate_stabilizer_states(n: int) -> list[tuple[Subspace, Assignment]]:
    """Every (maximal isotropic, consistent assignment) pair; these are in
    bijection with the pure n-qubit stabilizer states (6, 60, 1080, ...)."""
    out = []
    for I in enumerate_maximal_isotropics(n):
        for s in all_assignments(I):
            out.append((I, s))
    return out


def convolve(r: Assignment, s2: Assignment) -> Assignment:
    """The joint assignment on J + I' agreeing with both inputs.

    For domains intersecting only at 0 and supported on disjoint qubits
    this is the map (u + v) -> r(u) + s2(v).  Conflicting overlaps raise.
    """
    inter = r.subspace.intersect(s2.subspace)
    for p in inter.points():
        if r.value(p) != s2.value(p):
            raise ValueError("assignments conflict on the intersection")
    pairs = [(p, r.value(p)) for p in r.subspace.points()]
    pairs += [(p, s2.value(p)) for p in s2.subspace.points()]
    return Assignment.from_pairs(pairs, r.subspace.n)


# -- JSON ---------------------------------------------------------------


def state_to_json(I: Subspace, s: Assignment) -> dict:
    return {
        "generators": [
            _signed_label(p, v) for p, v in zip(I.basis_points(), s.row_values)
        ]
    }


def _signed_label(p: PauliPoint, value: int) -> str:
    return ("-" if value else "+") + p.label()


def state_from_json(obj: Mapping) -> tuple[Subspace, Assignment]:
    pairs = []
    for text in obj["generators"]:
        pp = PhasedPauli.from_label(text)
        if pp.phase % 2:
            raise ValueError("stabilizer generators must carry real signs")
        pairs.append((pp.point, pp.phase >> 1))
    asg = Assignment.from_pairs(pairs)
    return asg.subspace, asg


def state_label(I: Subspace, s: Assignment) -> str:
    """Canonical text key for a stabilizer state, e.g. '+XZ,-ZX'."""
    return ",".join(
        _signed_label(p, v) for p, v in zip(I.basis_points(), s.row_values)
    )
