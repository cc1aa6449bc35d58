"""Closed noncontextual point sets and their phase-point operators.

A set Omega in E_n is closed when v, w in Omega with [v, w] = 0 implies
v + w in Omega, and noncontextual when it admits a value assignment
gamma with gamma(v+w) = gamma(v) + gamma(w) + beta(v, w) on commuting
pairs.  The associated operator

    A_Omega^gamma = (1/2^n) sum_{v in Omega} (-1)^{gamma(v)} T_v

has trace 1; for maximal such sets it is an extremal point of the
stabilizer-overlap polytope.

Every Pauli measurement update of a cnc operator has a closed form (the
cnc update theorem of Raussendorf, Bermejo-Vega, Tyhurst, Okay and
Zurel, Phys. Rev. A 101, 012350 (2020), arXiv:1905.05374):

* a in Omega: the outcome is deterministic, s = gamma(a), and the set
  shrinks to Omega intersect a-perp with gamma restricted.
* a not in Omega: weight 1/2 on the cnc set

      Omega x a = (Omega cap a-perp) union (a + Omega cap a-perp),
      gamma'(p) = gamma(p),  gamma'(p + a) = gamma(p) + s + beta(p, a),

  for every cnc set, isotropic or not.  The two halves are disjoint
  because a is not in the closed set Omega.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .field import ONE
from .gf2 import (
    PauliPoint,
    all_points,
    closure_under_inference,
    solve_affine,
    span,
    symplectic_form,
    xor_sums,
)
from .pauli import QOperator, beta
from .stabilizer import Assignment


def closure_extend(values: Mapping[PauliPoint, int]) -> dict[PauliPoint, int]:
    """Extend a value map along closure under inference.

    Repeatedly assigns val(u+v) = val(u) + val(v) + beta(u, v) for
    commuting pairs; raises ValueError when two derivations disagree.
    """
    vals = {p: b & 1 for p, b in values.items()}
    if not vals:
        raise ValueError("cannot extend an empty value map")
    n = next(iter(vals)).n
    vals.setdefault(PauliPoint.zero(n), 0)
    if vals[PauliPoint.zero(n)] != 0:
        raise ValueError("the zero point must carry value 0")
    changed = True
    while changed:
        changed = False
        pts = list(vals)
        for i in range(len(pts)):
            u = pts[i]
            bu = vals[u]
            for j in range(i + 1, len(pts)):
                v = pts[j]
                if symplectic_form(u, v) != 0:
                    continue
                w = u ^ v
                val = (bu + vals[v] + beta(u, v)) & 1
                known = vals.get(w)
                if known is None:
                    vals[w] = val
                    changed = True
                elif known != val:
                    raise ValueError("conflicting inferred values during extension")
    return vals


def is_closed(omega: Iterable[PauliPoint]) -> bool:
    pts = set(omega)
    return all(
        (u ^ v) in pts
        for u in pts
        for v in pts
        if symplectic_form(u, v) == 0
    )


def consistent_assignments(omega: Iterable[PauliPoint]) -> list[dict[PauliPoint, int]]:
    """All consistent value maps on a closed set (zero point value 0)."""
    pts = sorted(set(omega), key=lambda p: p.key())
    n = pts[0].n
    zero = PauliPoint.zero(n)
    if zero not in pts:
        raise ValueError("a closed set must contain 0")
    nz = [p for p in pts if not p.is_zero()]
    index = {p: i for i, p in enumerate(nz)}
    rows, rhs = [], []
    for u, v in combinations(nz, 2):
        if symplectic_form(u, v) == 0:
            w = u ^ v
            if w.is_zero():
                continue
            rows.append((1 << index[u]) ^ (1 << index[v]) ^ (1 << index[w]))
            rhs.append(beta(u, v))
    solved = solve_affine(rows, rhs, len(nz))
    if solved is None:
        return []
    particular, null_basis = solved
    # reversed: the lowest free column changes slowest
    return [
        {zero: 0, **{p: sol >> i & 1 for i, p in enumerate(nz)}}
        for sol in (particular ^ h for h in xor_sums(null_basis[::-1]))
    ]


def is_cnc(omega: Iterable[PauliPoint]) -> bool:
    """Closed and noncontextual (admits a consistent assignment)."""
    pts = set(omega)
    return is_closed(pts) and bool(consistent_assignments(pts))


def is_maximal_cnc(omega: Iterable[PauliPoint], bound: int = 2) -> bool:
    """cnc with no strict cnc superset, by brute-force extension search."""
    pts = set(omega)
    n = next(iter(pts)).n
    if n > bound:
        raise ValueError(f"maximality search capped at n={bound}")
    if not is_cnc(pts):
        return False
    for p in all_points(n, include_zero=False):
        if p in pts:
            continue
        bigger = closure_under_inference(pts | {p})
        if is_cnc(bigger):
            return False
    return True


class CncSet:
    """A closed noncontextual set with a consistent value assignment."""

    __slots__ = ("n", "omega", "gamma")

    def __init__(
        self,
        omega: Iterable[PauliPoint],
        gamma: Mapping[PauliPoint, int],
        check: bool = True,
    ):
        pts = frozenset(omega)
        n = next(iter(pts)).n
        zero = PauliPoint.zero(n)
        vals = {p: gamma[p] & 1 for p in pts}
        if check:
            if zero not in pts or vals[zero] != 0:
                raise ValueError("a cnc set contains 0 with value 0")
            for u, v in combinations(pts, 2):
                if symplectic_form(u, v) == 0:
                    w = u ^ v
                    if w not in pts:
                        raise ValueError("set is not closed under inference")
                    if vals[w] != (vals[u] + vals[v] + beta(u, v)) & 1:
                        raise ValueError("value assignment is inconsistent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega", pts)
        object.__setattr__(self, "gamma", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CncSet is immutable")

    def __reduce__(self):
        return (CncSet, (self.omega, self.gamma, False))

    @staticmethod
    def from_assignment(s: Assignment) -> "CncSet":
        """The cnc set of an isotropic subspace with its assignment."""
        return CncSet(s.subspace.points(), s.as_dict(), check=False)

    @staticmethod
    def full_single_qubit(signs: Sequence[int]) -> "CncSet":
        """E_1 with gamma = (value at x, value at y, value at z)."""
        from .gf2 import x_point, y_point, z_point

        x, y, z = x_point(1, 1), y_point(1, 1), z_point(1, 1)
        vals = {PauliPoint.zero(1): 0, x: signs[0], y: signs[1], z: signs[2]}
        return CncSet([PauliPoint.zero(1), x, y, z], vals)

    def operator(self) -> QOperator:
        return QOperator(
            self.n,
            {p: (ONE if self.gamma[p] == 0 else -ONE) for p in self.omega},
        )

    def measure_update(self, a: PauliPoint, s: int) -> list[tuple[Fraction, "CncSet"]]:
        """Closed-form update pieces for measuring T_a with outcome s.

        The cnc update theorem (see the module docstring): at most one
        piece, weight 1 when a is in Omega and the outcome matches
        gamma(a), weight 1/2 on Omega x a when a is outside Omega.
        Weights are unnormalized: they sum to the outcome probability
        and sum(w_i * piece_i.operator()) equals
        operator().project(a, s) exactly.
        """
        if a.is_zero():
            raise ValueError("measurement axis must be nonzero")
        if a.n != self.n:
            raise ValueError("qubit count mismatch")
        s &= 1
        inside = a in self.omega
        if inside and s != self.gamma[a]:
            return []
        kept = [p for p in self.omega if symplectic_form(p, a) == 0]
        if inside:
            return [(Fraction(1), CncSet(kept, self.gamma, check=False))]
        vals = {p: self.gamma[p] for p in kept}
        for p in kept:
            vals[p ^ a] = (self.gamma[p] + s + beta(p, a)) & 1
        return [(Fraction(1, 2), CncSet(vals.keys(), vals, check=False))]

    def __eq__(self, other):
        return (
            isinstance(other, CncSet)
            and self.omega == other.omega
            and self.gamma == other.gamma
        )

    def __hash__(self):
        return hash((self.omega, tuple(sorted((p.key(), b) for p, b in self.gamma.items()))))

    def __repr__(self):
        body = " ".join(
            ("-" if self.gamma[p] else "+") + p.label()
            for p in sorted(self.omega, key=lambda q: q.key())
            if not p.is_zero()
        )
        return f"CncSet({body})"

    def to_json(self) -> dict:
        pts = sorted(self.omega, key=lambda p: p.key())
        return {
            "omega": [p.label() for p in pts],
            "gamma": {p.label(): self.gamma[p] for p in pts},
        }

    @staticmethod
    def from_json(obj: Mapping) -> "CncSet":
        pts = [PauliPoint.from_label(lbl) for lbl in obj["omega"]]
        gamma = {PauliPoint.from_label(lbl): int(v) for lbl, v in obj["gamma"].items()}
        return CncSet(pts, gamma)


def line_perp_sets(n: int = 2) -> list[frozenset[PauliPoint]]:
    """The maximal cnc sets a-perp (all points commuting with a fixed a)."""
    if n != 2:
        raise ValueError("line-perp shape is special to two qubits")
    out = []
    for a in all_points(2, include_zero=False):
        out.append(frozenset(span([a]).perp().points()))
    return sorted(set(out), key=lambda s: sorted(p.key() for p in s))


def anticommuting_sets(n: int = 2) -> list[frozenset[PauliPoint]]:
    """Maximal cnc sets built from five pairwise anticommuting points."""
    if n != 2:
        raise ValueError("pairwise-anticommuting shape enumerated for two qubits")
    pts = all_points(2, include_zero=False)
    zero = PauliPoint.zero(2)
    out = []
    for combo in combinations(pts, 5):
        if all(
            symplectic_form(u, v) == 1 for u, v in combinations(combo, 2)
        ):
            out.append(frozenset(combo) | {zero})
    return out


def maximal_cnc_sets(n: int) -> list[frozenset[PauliPoint]]:
    """All maximal cnc sets for n <= 2."""
    if n == 1:
        return [frozenset(all_points(1))]
    if n == 2:
        return line_perp_sets(2) + anticommuting_sets(2)
    raise ValueError("maximal cnc sets enumerated only for n <= 2")


def cnc_vertices(n: int) -> list[CncSet]:
    """Every (maximal cnc set, consistent assignment) pair for n <= 2."""
    out = []
    for omega in maximal_cnc_sets(n):
        for vals in consistent_assignments(omega):
            out.append(CncSet(omega, vals, check=False))
    return out
