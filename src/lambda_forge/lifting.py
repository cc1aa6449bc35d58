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
maximal isotropic I.  It is the paper's closed form for a lift's facet
values, kept as API; the package does not call it.  The test suite
checks it against the built lift, and checks ``averaged_head_operator``
(Y~) by the averaged-trace identity Tr(Y Pi_{J+I', r*s'}) =
Tr(Y~ Pi_{I', s'}) (acceptance criterion 7).

Points are packed keys (``PauliPoint.key()``) split into head and tail by
``_restrict_key`` and ``_place_key``.  An assignment moves between the
tail and n qubits by shifting its canonical rows, its row values kept:
the shift keeps the rows' pivot order and every product sign.
"""

from __future__ import annotations

from typing import Optional

from .field import FieldElem, ZERO, value_type
from .clifford import CliffordTableau, tableau_for_projector_pair
from .gf2 import Subspace, span, x_point
from .pauli import QOperator
from .stabilizer import Assignment, stabilizer_projector


def tail_subspace(n: int, m: int) -> Subspace:
    """The reference tail <x_{m+1}, ..., x_n>."""
    return span([x_point(n, q) for q in range(m + 1, n + 1)], n)


def _restrict_key(key: int, n: int, lo: int, k: int) -> int:
    """The k-qubit key of qubits lo+1..lo+k of the n-qubit point with this
    key."""
    low = (1 << k) - 1
    return (((key >> (n + lo)) & low) << k) | ((key >> lo) & low)


def _place_key(key: int, n: int, lo: int, k: int) -> int:
    """The n-qubit key of the k-qubit point with this key put on qubits
    lo+1..lo+k; the inverse of ``_restrict_key`` on keys supported there."""
    return ((key >> k) << (n + lo)) | ((key & ((1 << k) - 1)) << lo)


def _tail_bits(n: int, m: int) -> int:
    """The bits of an n-qubit key on the tail qubits m+1..n."""
    return _place_key((1 << 2 * (n - m)) - 1, n, m, n - m)


def _place_assignment(s: Assignment, n: int, lo: int) -> Assignment:
    """s moved from its k qubits onto qubits lo+1..lo+k of n, by shifting
    its canonical rows; ``_restrict_key`` on the rows moves it back."""
    k = s.subspace.n
    rows = [_place_key(r, n, lo, k) for r in s.subspace.rows]
    return Assignment(Subspace(n, rows), s.row_values)


def is_tail_supported(J: Subspace, m: int) -> bool:
    tail = _tail_bits(J.n, m)
    return all(r & tail == r for r in J.rows)


@value_type()
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
    heads = [(_place_key(v, n, 0, m), pq) for v, pq in X._num.items()]
    out = {}
    for u, ru in r.key_items():
        for v, (p, q) in heads:
            out[v | u] = (-p, -q) if ru else (p, q)
    # X's coefficients, signed, at distinct keys: still canonical over X's denominator
    return QOperator._of(n, X._den, out)


def lift(X: QOperator, params: LiftParams) -> QOperator:
    """The general lift: conjugated tensor form."""
    J0 = tail_subspace(params.n, params.m)
    base = lift_tensor(X, J0, Assignment.zero(J0))
    return params.tableau.conjugate(base)


def unlift(A: QOperator, params: LiftParams) -> QOperator:
    """Inverse of ``lift``: recovers X, or raises if A is not in the image."""
    base = params.tableau.invert().conjugate(A)
    # on the image, every tail point carries the head coefficients, so
    # their average over the reference tail is X
    J0 = tail_subspace(params.n, params.m)
    r0 = Assignment.zero(J0)
    X = averaged_head_operator(base, J0, r0)
    if lift_tensor(X, J0, r0) != base:
        raise ValueError("operator is outside the lift image")
    return X


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
    if s.subspace != I:
        raise ValueError("assignment domain differs from I")
    if X.n != m:
        raise ValueError("operator qubit count must match the head size")
    r_values, s_values = dict(r.key_items()), dict(s.key_items())
    # delta factor on I cap J
    if any(s_values.get(u, ru) != ru for u, ru in r_values.items()):
        return ZERO
    common = sum(u in s_values for u in r_values)
    # sigma on V, the head projection of I cap (E_m + J); then
    # Tr(X Pi_{V,sigma}) = (1/|V|) sum_{v in V} (-1)^{sigma(v)} alpha_v.
    tail_bits = _tail_bits(n, m)
    sigma: dict[int, int] = {}
    for w, sw in s_values.items():
        ru = r_values.get(w & tail_bits)
        if ru is not None:
            val = sigma.setdefault(_restrict_key(w, n, 0, m), sw ^ ru)
            assert val == sw ^ ru, "delta check must force agreement"
    x = sum(-p if sigma[v] else p for v, (p, _) in X._num.items() if v in sigma)
    y = sum(-q if sigma[v] else q for v, (_, q) in X._num.items() if v in sigma)
    return FieldElem._reduced(x * common, y * common, X._den << n)


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
    tail_bits = _tail_bits(n, m)
    r_values = dict(r.key_items())
    out: dict[int, tuple[int, int]] = {}
    for k, (p, q) in Y._num.items():
        negate = r_values.get(k & tail_bits)
        if negate is not None:
            v = _restrict_key(k, n, 0, m)
            x, y = out.get(v, (0, 0))
            out[v] = (x - p, y - q) if negate else (x + p, y + q)
    return QOperator._reduced(m, Y._den * J.size(), out)
