"""The stabilizer-overlap polytope: membership, vertex certification,
single-qubit vertex enumeration, and exact convex decomposition.

For each qubit count n the polytope consists of the trace-1 Hermitian
operators whose overlap with every pure stabilizer state is nonnegative.
Membership is decided by evaluating all overlaps exactly; vertexhood by
the rank of the active constraints (a point of a polytope is extremal
iff the active facet normals span the full traceless coefficient space).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .field import FieldElem, ONE, ZERO
from .gf2 import ENUMERATION_BOUND, PauliPoint, all_points
from .pauli import QOperator
from .simplex import eliminate, solve_feasibility
from .stabilizer import enumerate_stabilizer_states, state_label


@lru_cache(maxsize=8)
def facet_table(n: int) -> tuple:
    """Per-state evaluation data: (I, s, label, [(point, sign), ...])."""
    table = []
    for I, s in enumerate_stabilizer_states(n):
        pairs = tuple((p, -1 if v else 1) for p, v in s.items())
        table.append((I, s, state_label(I, s), pairs))
    return tuple(table)


class FacetCertificate:
    """Result of evaluating one operator against every stabilizer facet."""

    __slots__ = ("operator", "values", "active", "violation")

    def __init__(self, operator, values, active, violation):
        self.operator = operator
        self.values = values  # label -> FieldElem
        self.active = active  # labels with value exactly 0
        self.violation = violation  # first violating label, or None

    @property
    def is_member(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        return {
            "member": self.is_member,
            "violation": self.violation,
            "violation_value": (
                self.values[self.violation].to_json() if self.violation else None
            ),
            "active_facets": list(self.active),
            "facet_values": {k: v.to_json() for k, v in self.values.items()},
        }


def membership(X: QOperator) -> FacetCertificate:
    """Exact facet certificate of X; requires trace(X) = 1."""
    if X.n > ENUMERATION_BOUND:
        raise ValueError(
            f"membership is evaluated exhaustively only for n<={ENUMERATION_BOUND}"
        )
    if X.trace() != ONE:
        raise ValueError("membership requires a trace-1 operator")
    scale = Fraction(1, 1 << X.n)
    values = {}
    active = []
    violation = None
    for _, _, label, pairs in facet_table(X.n):
        total = ZERO
        for p, sgn in pairs:
            c = X.coeffs.get(p)
            if c is not None:
                total = total + (c if sgn > 0 else -c)
        total = total * scale
        values[label] = total
        sign = total.sign()
        if sign == 0:
            active.append(label)
        elif sign < 0 and violation is None:
            violation = label
    return FacetCertificate(X, values, active, violation)


def is_vertex(X: QOperator, cert: Optional[FacetCertificate] = None) -> tuple[bool, int]:
    """(extremal?, active-constraint rank).  X must be a member."""
    if cert is None:
        cert = membership(X)
    rows, nz_points = _active_rows(X.n, cert)
    rank = len(_int_rref(rows, len(nz_points))[1])
    return rank == len(nz_points), rank


def _active_rows(
    n: int, cert: FacetCertificate
) -> tuple[list[list[int]], list[PauliPoint]]:
    """Normals of the active facets over the nonzero points, and those
    points.  The certificate must be a member's."""
    if not cert.is_member:
        raise ValueError("vertex test requires a polytope member")
    nz_points = all_points(n, include_zero=False)
    index = {p: i for i, p in enumerate(nz_points)}
    rows = []
    active = set(cert.active)
    for _, _, label, pairs in facet_table(n):
        if label not in active:
            continue
        row = [0] * len(nz_points)
        for p, sgn in pairs:
            if not p.is_zero():
                row[index[p]] = sgn
        rows.append(row)
    return rows, nz_points


def _int_rref(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan reduction over the integers.

    Returns the nonzero reduced rows and their pivot columns: row i has
    a nonzero entry at pivots[i] and zeros at every other pivot column.
    The pivot step is the simplex's `eliminate`.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        eliminate(mat, r, col)
        pivots.append(col)
    return mat[: len(pivots)], pivots


def extremality_refuter(X: QOperator, cert: Optional[FacetCertificate] = None) -> Optional[QOperator]:
    """A traceless direction Y with X+Y and X-Y both members, if one exists.

    Searches the null space of the active constraints scaled small enough
    to stay inside; returns None when X is extremal.
    """
    if cert is None:
        cert = membership(X)
    rows, nz_points = _active_rows(X.n, cert)
    reduced, pivots = _int_rref(rows, len(nz_points))
    free = [c for c in range(len(nz_points)) if c not in pivots]
    if not free:
        return None  # extremal
    # the null vector with a 1 at the first free column, 0 at the others
    direction = [Fraction(0)] * len(nz_points)
    direction[free[0]] = Fraction(1)
    for row, c in zip(reduced, pivots):
        direction[c] = -Fraction(row[free[0]], row[c])
    for denom in (1, 2, 4, 8, 16, 64, 256):
        Y = QOperator(
            X.n,
            {
                p: FieldElem(Fraction(direction[i], denom))
                for i, p in enumerate(nz_points)
                if direction[i]
            },
        )
        if membership(X + Y).is_member and membership(X - Y).is_member:
            return Y
    return None


def enumerate_vertices_n1() -> list[QOperator]:
    """All extremal points for a single qubit, by exact facet intersection.

    The six facets in the chart (a_x, a_y, a_z) pairwise intersect in the
    eight points with all coordinates +-1.
    """
    pts = all_points(1, include_zero=False)
    facets = []  # (normal over 3 coords, offset): 1 + sum n_i a_i >= 0
    table = facet_table(1)
    index = {p: i for i, p in enumerate(pts)}
    for _, _, _, pairs in table:
        normal = [0, 0, 0]
        for p, sgn in pairs:
            if not p.is_zero():
                normal[index[p]] = sgn
        facets.append(normal)
    found = {}
    for trio in combinations(range(len(facets)), 3):
        reduced, pivots = _int_rref([facets[i] + [-1] for i in trio], 4)
        if pivots != [0, 1, 2]:
            continue
        sol = [Fraction(row[3], row[i]) for i, row in enumerate(reduced)]
        cand = QOperator(
            1,
            {
                PauliPoint.zero(1): ONE,
                **{pts[i]: FieldElem(sol[i]) for i in range(3) if sol[i] != 0},
            },
        )
        cert = membership(cand)
        if cert.is_member:
            found[cand.key()] = cand
    return sorted(found.values(), key=lambda
        A: tuple(sorted((p.key(), c.a) for p, c in A.coeffs.items())))


def decompose(
    rho: QOperator, pool: Sequence[QOperator]
) -> Optional[dict[int, FieldElem]]:
    """Exact weights p >= 0 with sum(p) = 1 and sum p_i pool[i] = rho.

    The pool operators must have rational coefficients (ValueError
    otherwise); rho may lie in Q(sqrt(2)), and so may the weights
    (nonnegative as real numbers).  Returns a sparse index->weight map,
    or None when rho is not in the convex hull of the pool.
    """
    n = rho.n
    points = all_points(n)
    columns = []
    for A in pool:
        if A.n != n:
            raise ValueError("pool operator qubit count mismatch")
        col = [A.coeffs.get(p, ZERO) for p in points]
        col.append(ONE)  # sum-to-one constraint
        columns.append(col)
    rhs = [rho.coeffs.get(p, ZERO) for p in points]
    rhs.append(ONE)
    sol = solve_feasibility(columns, rhs)
    if sol is None:
        return None
    return {i: w for i, w in enumerate(sol) if w.sign() != 0}
