"""Lifting extremal points to more qubits through a stabilizer tail.

The lift of an m-qubit operator X by an isotropic subspace J of dimension
n - m (in tail position) with sign assignment r is the n-qubit operator
X (x) Pi_{J,r}; conjugating by a Clifford moves the tail anywhere else.
The lift maps polytope members to members, extremal points to extremal
points injectively, and cnc-type operators to cnc-type operators; the
inverse direction recovers X exactly from a lifted operator.

``tail_overlap`` evaluates Tr(lift(X) * Pi_{I,s}) in closed form without
building the lift: the overlap equals

    delta(r, s on I cap J) * (|I cap J| |V| / 2^n) * Tr(X Pi_{V, sigma})

where V is the head projection of I cap (E_m + J) and sigma the induced
assignment sigma(v) = s(v + u) + r(u).  When I cap (E_m + J) splits as
(I cap E_m) + (I cap J) this reduces to the restriction form with
Pi_{I cap E_m, s|}; the projection form is the one that holds for every
maximal isotropic I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .field import FieldElem, ZERO
from .clifford import CliffordTableau, tableau_for_projector_pair
from .gf2 import PauliPoint, Subspace, span, x_point
from .pauli import QOperator
from .stabilizer import Assignment, stabilizer_projector


def tail_subspace(n: int, m: int) -> Subspace:
    """The reference tail <x_{m+1}, ..., x_n>."""
    return span([x_point(n, q) for q in range(m + 1, n + 1)], n)


def head_point(p: PauliPoint, m: int) -> PauliPoint:
    mask = (1 << m) - 1
    return PauliPoint(m, p.z & mask, p.x & mask)


def tail_point(p: PauliPoint, m: int) -> PauliPoint:
    return PauliPoint(p.n - m, p.z >> m, p.x >> m)


def embed_head(p: PauliPoint, n: int) -> PauliPoint:
    return PauliPoint(n, p.z, p.x)


def _head_key(key: int, n: int, m: int) -> int:
    """``head_point`` on ``PauliPoint.key()``: the m-qubit key of the head
    of the n-qubit point with this key."""
    head = (1 << m) - 1
    return (((key >> n) & head) << m) | (key & head)


def _tail_bits(n: int, m: int) -> int:
    """The bits of an n-qubit key on the tail qubits m+1..n: a key masked
    by them is the key of ``embed_tail(tail_point(p, m), n, m)``."""
    tail = ((1 << n) - 1) ^ ((1 << m) - 1)
    return (tail << n) | tail


def is_tail_supported(J: Subspace, m: int) -> bool:
    mask = (1 << m) - 1
    return all((r >> J.n) & mask == 0 and r & mask == 0 for r in J.rows)


@dataclass(frozen=True)
class LiftParams:
    """A lift destination: subspace J (dim n-m), assignment r, and a
    tableau carrying the reference tail projector onto Pi_{J,r}."""

    n: int
    m: int
    J: Subspace
    r: Assignment
    tableau: CliffordTableau

    def __post_init__(self):
        if self.J.dim != self.n - self.m:
            raise ValueError("lift subspace dimension must be n - m")
        J0 = tail_subspace(self.n, self.m)
        moved = self.tableau.conjugate(stabilizer_projector(J0, Assignment.zero(J0)))
        if moved != stabilizer_projector(self.J, self.r):
            raise ValueError("tableau does not carry the reference tail onto (J, r)")


def make_params(
    n: int, J: Subspace, r: Assignment, tableau: Optional[CliffordTableau] = None
) -> LiftParams:
    """Build lift parameters, constructing a witness tableau if needed."""
    m = n - J.dim
    if m < 1:
        raise ValueError("the lift must leave at least one head qubit")
    J0 = tail_subspace(n, m)
    if tableau is None:
        tableau = tableau_for_projector_pair(J0, Assignment.zero(J0), J, r)
    return LiftParams(n, m, J, r, tableau)


def lift_tensor(X: QOperator, J: Subspace, r: Assignment) -> QOperator:
    """X (x) Pi_{J,r} for J supported on the tail qubits.

    The coefficient at v + u (head v, tail u in J) is (-1)^{r(u)} alpha_v;
    every point outside E_m + J carries coefficient zero.
    """
    n = J.n
    m = n - J.dim
    if not is_tail_supported(J, m):
        raise ValueError("lift subspace must live on the tail qubits")
    if X.n != m:
        raise ValueError("operator qubit count must match the head size")
    mask = (1 << m) - 1
    out = {}
    for u, ru in r.key_items():
        for v, c in X._by_key.items():
            out[(v >> m) << n | (v & mask) | u] = -c if ru else c
    return QOperator._from_keys(n, out)


def lift(X: QOperator, params: LiftParams) -> QOperator:
    """The general lift: conjugated tensor form."""
    if X.n != params.m:
        raise ValueError("operator qubit count must match the head size")
    J0 = tail_subspace(params.n, params.m)
    base = lift_tensor(X, J0, Assignment.zero(J0))
    return params.tableau.conjugate(base)


def unlift(A: QOperator, params: LiftParams) -> QOperator:
    """Inverse of ``lift``: recovers X, or raises if A is not in the image."""
    base = params.tableau.invert().conjugate(A)
    n, m = params.n, params.m
    J0 = tail_subspace(n, m)
    tail_bits = _tail_bits(n, m)
    head_coeffs: dict[int, FieldElem] = {}
    for k, c in base._by_key.items():
        tail = k & tail_bits
        if J0.reduce_key(tail):
            raise ValueError("support leaks outside the lift image")
        if not tail:
            head_coeffs[_head_key(k, n, m)] = c
    X = QOperator._from_keys(m, head_coeffs)
    if lift_tensor(X, J0, Assignment.zero(J0)) != base:
        raise ValueError("coefficients violate the lift sign pattern")
    return X


def embed_tail(p: PauliPoint, n: int, m: int) -> PauliPoint:
    return PauliPoint(n, p.z << m, p.x << m)


def tail_overlap(
    X: QOperator, J: Subspace, r: Assignment, I: Subspace, s: Assignment
) -> FieldElem:
    """Closed-form Tr((X (x) Pi_{J,r}) Pi_{I,s}) for maximal isotropic I.

    Exactly equals trace_inner(lift_tensor(X, J, r), Pi_{I,s}).
    """
    n = J.n
    m = n - J.dim
    if not is_tail_supported(J, m):
        raise ValueError("closed form requires a tail-position subspace")
    # delta factor on I cap J
    IJ = I.intersect(J)
    for u in IJ.points():
        if r.value(u) != s.value(u):
            return ZERO
    # Head projection of I cap (E_m + J) with the induced assignment.
    sigma_pairs = []
    seen = {}
    for w in I.points():
        tail = tail_point(w, m)
        tail_emb = embed_tail(tail, n, m)
        if not J.contains(tail_emb):
            continue
        v = head_point(w, m)
        val = (s.value(w) + r.value(tail_emb)) & 1
        if v in seen:
            assert seen[v] == val, "delta check must force agreement"
        else:
            seen[v] = val
            sigma_pairs.append((v, val))
    V = span([v for v, _ in sigma_pairs], m)
    sigma = Assignment.from_pairs(sigma_pairs, m)
    scale = Fraction(IJ.size() * V.size(), 1 << n)
    return X.trace_inner(stabilizer_projector(V, sigma)) * scale


def averaged_head_operator(Y: QOperator, J: Subspace, r: Assignment) -> QOperator:
    """The m-qubit operator with coefficients averaged over the tail:

        beta~_v = (1/|J|) sum_{u in J} beta_{u+v} (-1)^{r(u)},

    taken over all head points v including 0 (so its trace is the
    averaged 0-coefficient, not necessarily zero).
    """
    n = J.n
    m = n - J.dim
    if not is_tail_supported(J, m):
        raise ValueError("averaging requires a tail-position subspace")
    inv = Fraction(1, J.size())
    tail_bits = _tail_bits(n, m)
    out: dict[int, FieldElem] = {}
    for u in J.points():
        ku, negate = u.key(), r.value(u)
        for k, c in Y._by_key.items():
            if k & tail_bits != ku:
                continue
            v = _head_key(k, n, m)
            term = -c if negate else c
            out[v] = out.get(v, ZERO) + term
    return QOperator._from_keys(m, {v: c * inv for v, c in out.items()})


def averaged_trace_identity(
    Y: QOperator, J: Subspace, r: Assignment, I1: Subspace, s1: Assignment
) -> tuple[FieldElem, FieldElem]:
    """Both sides of Tr(Y Pi_{J+I', r*s'}) = Tr(Y~ Pi_{I', s'}) for a
    maximal isotropic I' of the head space; they agree exactly."""
    n = J.n
    emb_pairs = [
        (embed_head(p, n), s1.value(p)) for p in I1.points()
    ]
    r_pairs = [(u, r.value(u)) for u in J.points()]
    joint = Assignment.from_pairs(emb_pairs + r_pairs, n)
    lhs = Y.trace_inner(stabilizer_projector(joint.subspace, joint))
    tilde = averaged_head_operator(Y, J, r)
    rhs = tilde.trace_inner(stabilizer_projector(I1, s1))
    return lhs, rhs
