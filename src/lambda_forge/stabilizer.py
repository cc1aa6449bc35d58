"""Stabilizer projectors and value assignments on isotropic subspaces.

A value assignment s on an isotropic subspace J fixes the measurement
sign (-1)^{s(v)} of every T_v, v in J.  Assignments are stored on the
canonical basis rows only; the value at any other point is read in one
walk over the rows it selects, adding each row's value and the product
sign beta(product so far, row), so consistency

    s(v + w) = s(v) + s(w) + beta(v, w)

holds by construction and inconsistent assignments cannot be built.  A
read costs one step per row, never a table over the 2^dim points.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .field import value_type
from .gf2 import (
    PauliPoint,
    Subspace,
    enumerate_maximal_isotropics,
    solve_affine,
    span,
)
from .pauli import QOperator, key_phase, signed_point


def check_bit(value, what: str) -> int:
    """value, if it is the int 0 or 1 (a bool is refused); else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
        raise ValueError(f"{what} must be the ints 0 or 1, got {value!r}")
    return value


@value_type(repr=False)
class Assignment:
    """A consistent value assignment on an isotropic subspace."""

    subspace: Subspace
    row_values: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_values) != self.subspace.dim:
            raise ValueError("need one value per basis row")
        if not self.subspace.is_isotropic():
            raise ValueError("assignments live on isotropic subspaces")
        values = tuple(check_bit(v, "assignment values") for v in self.row_values)
        object.__setattr__(self, "row_values", values)

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
        # on the row bits, with its value under all-zero rows (the beta
        # fold of the rows it selects) as affine offset.
        zero = Assignment.zero(sub)
        eqs = [sub.row_mask(p.key()) for p, _ in pairs]
        rhs = [
            check_bit(val, "assignment values") ^ zero._key_value(p.key()) for p, val in pairs
        ]
        solved = solve_affine(eqs, rhs, sub.dim)
        if solved is None:
            raise ValueError("inconsistent value assignment")
        return Assignment(sub, [solved[0] >> i & 1 for i in range(sub.dim)])

    def value(self, p: PauliPoint) -> int:
        value = self._key_value(p.key())
        if value is None:
            raise ValueError(f"{p!r} is outside the assignment domain")
        return value

    def _key_value(self, key: int) -> Optional[int]:
        """``value`` on ``PauliPoint.key()``, or None outside the domain:
        reduce the key by the canonical rows, and for each row it selects
        add that row's value and beta(product so far, row)."""
        n = self.subspace.n
        acc = value = 0
        for r, v in zip(self.subspace.rows, self.row_values):
            if key >> (r.bit_length() - 1) & 1:
                key ^= r
                value ^= v ^ (key_phase(acc, r, n) >> 1)
                acc ^= r
        return None if key else value

    def key_items(self) -> Iterator[tuple[int, int]]:
        """(``PauliPoint.key()``, value) for every point of the domain, in
        ``Subspace.points()`` order: appending row r with value v to a
        product that sums to k with value s gives k ^ r the value
        s ^ v ^ beta(k, r)."""
        n = self.subspace.n
        items = [(0, 0)]
        for r, v in zip(self.subspace.rows, self.row_values):
            items += [(k ^ r, s ^ v ^ (key_phase(k, r, n) >> 1)) for k, s in items]
        return iter(items)

    def __repr__(self):
        gens = " ".join(
            _signed_label(p, v) for p, v in zip(self.subspace.basis_points(), self.row_values)
        )
        return f"Assignment[{gens or '0'}]"


def all_assignments(subspace: Subspace) -> Iterator[Assignment]:
    """Every assignment on ``subspace``, checked once by ``Assignment.zero``."""
    Assignment.zero(subspace)
    yield from _assignments(subspace)


def _assignments(subspace: Subspace) -> Iterator[Assignment]:
    """`all_assignments` on a subspace known to be isotropic, unchecked;
    the slots are written through their member descriptors."""
    set_subspace, set_values = Assignment.subspace.__set__, Assignment.row_values.__set__
    for bits in product((0, 1), repeat=subspace.dim):
        asg = object.__new__(Assignment)
        set_subspace(asg, subspace)
        set_values(asg, bits)
        yield asg


def stabilizer_projector(J: Subspace, s: Assignment | Sequence[int]) -> QOperator:
    """Pi_{J,s} = (1/|J|) sum_{v in J} (-1)^{s(v)} T_v, an exact projector."""
    if not isinstance(s, Assignment):
        s = Assignment(J, s)
    if s.subspace != J:
        raise ValueError("assignment domain differs from the projector subspace")
    scale = 1 << (J.n - J.dim)
    return QOperator._of(J.n, 1, {k: (-scale if v else scale, 0) for k, v in s.key_items()})


def enumerate_stabilizer_states(n: int) -> list[tuple[Subspace, Assignment]]:
    """Every (maximal isotropic, consistent assignment) pair; these are in
    bijection with the pure n-qubit stabilizer states (6, 60, 1080, ...).
    The subspaces are isotropic by construction, so they are not checked
    again."""
    return [(I, s) for I in enumerate_maximal_isotropics(n) for s in _assignments(I)]


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
    """Inverse of ``state_to_json``: an object whose "generators" is a list
    of signed Hermitian labels; ValueError otherwise."""
    gens = obj.get("generators") if isinstance(obj, Mapping) else None
    if not isinstance(gens, list):
        raise ValueError(
            f"a stabilizer state must be an object with a generator list, got {obj!r}"
        )
    asg = Assignment.from_pairs(signed_point(text, "a stabilizer generator") for text in gens)
    return asg.subspace, asg
