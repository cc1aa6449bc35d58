"""The two-qubit extremal family with half-integer Pauli expectations.

Each member is built from a maximal isotropic I of E_2, a value
assignment gamma on I, and a collection of maximal isotropics subject to
two covering rules; the collection determines a complement set Omega and
a pair of opposite assignments (gamma', gamma'') on it.  The operator

    A = Pi_{I,gamma} + (1/4) (A_Omega^{gamma'} - A_Omega^{gamma''})

has Pauli expectations in {0, +-1/2, +-1}: signs (-1)^gamma on I, halved
signs (-1)^{gamma'} on Omega, zero elsewhere.  Exactly 1920 distinct
extremal points arise this way, and the set coincides with the Clifford
orbit of the flagship operator ``alpha0_vertex()``.

The family is built once, by that rule and nothing else: each I admits
16 rule-satisfying collections (``enumerate_collections``), of which the
four six-member ones give |Omega| = 7, and the sign system solved by
``assignment_solutions`` has exactly eight solutions per
(I, gamma, collection), every one extremal: 15 * 4 * 4 * 8 = 1920.
``enumerate_family`` makes each member straight from these rule outputs;
``OrbitVertex.build`` validates parameters from outside with the same
rule code (the collection must be one of the six-member collections at
I, gamma' one of the sign-system solutions); ``classify_operator``
accepts members only, reading twice each coefficient (2p/D) off the
operator's integers and looking the key mask of Omega up among the
six-member collections at I.  The three make an ``OrbitVertex`` through
one builder, ``_member``, and nothing else can, so every instance is a
member.  The members share their pieces: ``enumerate_family`` keeps one
(point, bit) pair per key and bit for every gamma', and builds the
numerators on I once per (I, gamma).  The check that the family equals
the Clifford orbit of ``ALPHA0_TABLE`` compares sorted (key, coefficient
times 2) int pairs (``family_operator_keys``, ``clifford_orbit_keys``);
both sets are built per call and kept by no cache.  The test suite
checks that every candidate from the 8- and 10-member collections fails
membership or extremality and is refused by ``classify_operator`` and
``build``, and rebuilds and reclassifies every member.

The covering rule is linear over Z_2.  Every nonzero point of E_2 lies
in exactly three maximal isotropics, so a collection covers it 0, 1, 2
or 3 times, and "zero or two" is the same as "an even number".  The
collections through I are therefore the null vectors of the 15 x 15
point-by-isotropic incidence matrix with a 1 at I: the kernel has
dimension 5, and half of its 32 vectors contain I.

A Pauli measurement of T_a with outcome s maps any two-qubit polytope
member into the cube whose eight corners are the cnc sets on the
commutant a-perp with gamma(a) = s (a copy of the single-qubit polytope
Lambda_1): the three cube coordinates are the normalized coefficients
on the three cosets of <a> in a-perp, and |x| <= 1 on each is a pair
of stabilizer facets of the isotropic plane that coset spans with a.
``member_update`` writes the projected member, read off any trace-1
member's integers, as the Freudenthal (Kuhn) chain decomposition of
that cube point: at most four corners, ordered by ascending |x|, exactly
in Q(sqrt(2)); on one qubit it is the stabilizer state {0, a} alone.
``measure_update`` runs it on the operator a family member builds on
construction.  On the family the weights (before normalization) are
(1/2,1/4,1/4), (1/2,1/4), (1/4) or (1/4,1/4); the test suite's sweep
(acceptance criterion 8) checks the update against exact projection on
every member, axis and outcome, 57 600 cases.
"""

from __future__ import annotations

from dataclasses import field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from typing import ClassVar, Iterable, Mapping, Sequence

from .field import FieldElem, sqrt2_sign, value_type
from .clifford import coefficient_orbit
from .cnc import CncSet
from .gf2 import (
    PauliPoint,
    Subspace,
    affine_solutions,
    all_points,
    enumerate_maximal_isotropics,
    key_form,
    span,
    swap_halves,
    xor_sums,
)
from .pauli import QOperator, key_phase
from .stabilizer import Assignment, all_assignments, check_bit

#: Pauli expectations of the flagship vertex, row order II..YY.
ALPHA0_TABLE = {
    "II": 1,
    "IX": Fraction(-1, 2),
    "XI": Fraction(1, 2),
    "XX": 0,
    "IZ": Fraction(-1, 2),
    "IY": Fraction(-1, 2),
    "XZ": -1,
    "XY": 0,
    "ZI": Fraction(1, 2),
    "ZX": -1,
    "YI": Fraction(-1, 2),
    "YX": 0,
    "ZZ": 0,
    "ZY": 0,
    "YZ": 0,
    "YY": 1,
}


def alpha0_vertex() -> QOperator:
    return QOperator.from_labels(2, ALPHA0_TABLE)


# -- collections of maximal isotropics -----------------------------------


def enumerate_collections(I: Subspace) -> tuple[frozenset[Subspace], ...]:
    """All collections containing I in which every covered nonzero point
    lies in exactly two members: the null vectors with a 1 at I of the
    point-by-isotropic incidence system over Z_2 (see the module
    docstring)."""
    if I not in _collections_by_anchor():
        raise ValueError("collections are anchored at a maximal isotropic")
    return _collections_by_anchor()[I]


@lru_cache(maxsize=1)
def _collections_by_anchor() -> dict[Subspace, tuple[frozenset[Subspace], ...]]:
    """``enumerate_collections`` at every maximal isotropic, from one kernel."""
    isos = enumerate_maximal_isotropics(2)
    rows = [
        sum(1 << j for j, J in enumerate(isos) if J.row_mask(p) is not None) for p in range(1, 16)
    ]
    found = [
        frozenset(J for j, J in enumerate(isos) if sol >> j & 1)
        for sol in affine_solutions(rows, [0] * 15, len(isos))
    ]
    found.sort(key=lambda C: sorted(s.rows for s in C))
    return {I: tuple(C for C in found if I in C) for I in isos}


@lru_cache(maxsize=None)
def _family_collections(I: Subspace) -> dict[int, tuple[frozenset, frozenset[PauliPoint]]]:
    """The six-member collections at I and their Omega, in order, keyed by
    the mask of Omega (bit k for the point of ``PauliPoint.key()`` k)."""
    found = ((C, omega_from_collection(C)) for C in enumerate_collections(I) if len(C) == 6)
    return {sum(1 << p.key() for p in omega): (C, omega) for C, omega in found}


def omega_from_collection(collection: Iterable[Subspace]) -> frozenset[PauliPoint]:
    """Complement-of-covered-points set; always contains 0."""
    covered = {k for J in collection for k in xor_sums(J.rows) if k}
    return frozenset(PauliPoint.from_key(2, k) for k in range(16) if k not in covered)


# -- sign systems ----------------------------------------------------------


def assignment_solutions(
    I: Subspace, gamma: Assignment, omega: frozenset[PauliPoint]
) -> list[dict[PauliPoint, int]]:
    """All gamma' solving the sign system

        gamma'(0) = 0,
        gamma'(v) + gamma'(w) + beta(v, w) = gamma(v + w)
            for v, w in Omega with [v, w] = 0 and v + w in I.

    The system is linear over Z_2; for the vertex-producing collections
    it has exactly eight solutions (three constraints on six unknowns).

    Each solution lists its points in ascending key order, 0 first, and
    the solutions come in ascending lexicographic order of their bits
    read from the lowest key (``affine_solutions``).
    """
    if gamma.subspace != I:
        raise ValueError("gamma must be an assignment on I")
    keys = sorted(p.key() for p in omega if not p.is_zero())
    zero, pts = PauliPoint.zero(2), [PauliPoint.from_key(2, k) for k in keys]
    return [
        {zero: 0, **{p: sol >> i & 1 for i, p in enumerate(pts)}}
        for sol in _sign_solutions(gamma, keys)
    ]


def _sign_solutions(gamma: Assignment, keys: Sequence[int]) -> list[int]:
    """``assignment_solutions`` on the ascending nonzero ``PauliPoint.key()``
    ints of Omega, with the bit of keys[i] at bit i; I is gamma's domain."""
    rows, rhs = [], []
    for (i, v), (j, w) in combinations(enumerate(keys), 2):
        g = None if key_form(v, w, 2) else gamma._key_value(v ^ w)
        if g is not None:  # v and w commute, and v + w lies in I
            rows.append((1 << i) | (1 << j))
            rhs.append(g ^ key_phase(v, w, 2) >> 1)
    return affine_solutions(rows, rhs, len(keys))


# -- the vertices ------------------------------------------------------------


@value_type(init=False)
class OrbitVertex:
    """One member of the family, with its full parameter set.

    Its constructor refuses every call (TypeError): ``enumerate_family``,
    ``classify_operator`` and ``build`` (the validating constructor for
    parameters from outside) make it through ``_member``, so every
    instance is one of the 1920 members.  The ``gamma_p`` pairs of
    different members may be one shared object; they are immutable, so
    equality, hashes and pickles are those of unshared pairs.
    """

    I: Subspace
    gamma: Assignment
    collection: frozenset[Subspace]
    omega: frozenset[PauliPoint]
    gamma_p: tuple[tuple[PauliPoint, int], ...]
    _operator: QOperator = field(compare=False, repr=False)

    n: ClassVar[int] = 2

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "an OrbitVertex is made by enumerate_family, classify_operator or OrbitVertex.build"
        )

    @staticmethod
    def build(
        I: Subspace,
        gamma: Assignment,
        collection: Iterable[Subspace],
        gamma_p: Mapping[PauliPoint, int],
    ) -> "OrbitVertex":
        collection = frozenset(collection)
        omega = next((om for C, om in _family_collections(I).values() if C == collection), None)
        if omega is None:
            raise ValueError("collection is not one of the six-member collections at I")
        if not omega.issubset(gamma_p):
            raise ValueError("gamma' must give a bit on every point of Omega")
        gp = {p: check_bit(gamma_p[p], "gamma' values") for p in sorted(omega, key=PauliPoint.key)}
        if gp not in assignment_solutions(I, gamma, omega):
            raise ValueError("gamma' violates the sign rules")
        return _member(I, gamma, collection, omega, tuple(gp.items()), _anchor_numerators(gamma))

    def operator(self) -> QOperator:
        return self._operator

    def to_json(self) -> dict:
        return {
            "I": [p.label() for p in self.I.basis_points()],
            "gamma": {
                p.label(): self.gamma.value(p)
                for p in self.I.points()
                if not p.is_zero()
            },
            "collection": [
                [q.label() for q in J.basis_points()] for J in sorted(
                    self.collection, key=lambda s: s.rows
                )
            ],
            "omega": [p.label() for p in sorted(self.omega, key=lambda q: q.key())],
            "gamma_p": {
                p.label(): b for p, b in self.gamma_p if not p.is_zero()
            },
            "coeffs": self.operator().to_json()["coeffs"],
        }


def classify_operator(V: QOperator) -> OrbitVertex:
    """Recover the parameter set of a family member from its coefficients;
    ValueError for any other operator (see the module docstring)."""
    if V.n != 2:
        raise ValueError("the family lives on two qubits")
    if V._num.get(0) != (V._den, 0):
        raise ValueError("family members have unit trace")
    signs, gp = {}, {0: 0}
    for k, (p, q) in V._num.items():
        if not k:
            continue
        twice, rest = divmod(2 * p, V._den)
        if q or rest or abs(twice) not in (1, 2):
            raise ValueError("coefficient outside {0, +-1/2, +-1}")
        (signs if abs(twice) == 2 else gp)[k] = int(twice < 0)
    I = Subspace(2, signs)
    if len(signs) != 3 or I.dim != 2 or not I.is_isotropic():
        raise ValueError("unit coefficients must fill a maximal isotropic")
    gamma = Assignment.from_pairs([(PauliPoint.from_key(2, k), b) for k, b in signs.items()])
    found = _family_collections(I).get(sum(1 << k for k in gp))
    if found is None:
        raise ValueError("the operator is not a member of the two-qubit family")
    nz = sorted(gp)[1:]
    if sum(gp[k] << i for i, k in enumerate(nz)) not in _sign_solutions(gamma, nz):
        raise ValueError("gamma' violates the sign rules")
    gamma_p = tuple((PauliPoint.from_key(2, k), gp[k]) for k in sorted(gp))
    return _member(I, gamma, *found, gamma_p, _anchor_numerators(gamma))


def _anchor_numerators(gamma: Assignment) -> dict[int, tuple[int, int]]:
    """A member's numerators over D = 2 on I: 2 at the identity and
    (-1)^gamma 2 on the rest, the same for every member at (I, gamma)."""
    return {k: (-2, 0) if g else (2, 0) for k, g in gamma.key_items()}


def _member(I: Subspace, gamma: Assignment, collection: frozenset[Subspace],
            omega: frozenset[PauliPoint], gamma_p: tuple,
            on_I: dict[int, tuple[int, int]]) -> OrbitVertex:
    """The family member of checked rule outputs, gamma' as (point, bit)
    pairs in ascending key order and ``_anchor_numerators(gamma)``: the
    one builder of an ``OrbitVertex``."""
    # the member's operator: on_I, and (-1)^gamma' on Omega's nonzero
    # points, odd numerators and so canonical over 2
    num = dict(on_I)
    for p, b in gamma_p:
        if not p.is_zero():
            num[p.key()] = (-1, 0) if b else (1, 0)  # constant, shared pairs
    return OrbitVertex._of(I, gamma, collection, omega, gamma_p, QOperator._of(2, 2, num))


@lru_cache(maxsize=1)
def enumerate_family() -> tuple[OrbitVertex, ...]:
    """All 1920 members: every (I, gamma, six-member collection, sign
    solution), in that nesting order.  Their gamma' pairs are shared, one
    (point, bit) pair per key and bit, and the numerators on I are built
    once per (I, gamma)."""
    pairs = [((p, 0), (p, 1)) for p in (PauliPoint.from_key(2, k) for k in range(16))]
    out = []
    for I in enumerate_maximal_isotropics(2):
        for gamma in all_assignments(I):
            on_I = _anchor_numerators(gamma)
            for mask, (C, omega) in _family_collections(I).items():
                keys = [k for k in range(1, 16) if mask >> k & 1]
                for sol in _sign_solutions(gamma, keys):  # as assignment_solutions
                    gamma_p = (pairs[0][0], *(pairs[k][sol >> i & 1] for i, k in enumerate(keys)))
                    out.append(_member(I, gamma, C, omega, gamma_p, on_I))
    return tuple(out)


def family_operator_keys() -> frozenset:
    """Each member as the sorted (key, coefficient times 2) int pairs, the
    numerators of its operator over 2; equal pairs are one object."""
    shared: dict = {}
    keys = (sorted((k, p) for k, (p, _) in v.operator()._num.items()) for v in enumerate_family())
    return frozenset(tuple(shared.setdefault(kp, kp) for kp in member) for member in keys)


def clifford_orbit_keys() -> frozenset:
    """The flagship's BFS Clifford orbit, from ``ALPHA0_TABLE``, as ``family_operator_keys``."""
    twice = {PauliPoint.from_label(lbl).key(): int(2 * c) for lbl, c in ALPHA0_TABLE.items() if c}
    return coefficient_orbit(2, twice)


# -- measurement updates -----------------------------------------------------


def measure_update(
    vertex: OrbitVertex, a: PauliPoint, s: int
) -> list[tuple[FieldElem, CncSet]]:
    """Closed-form update pieces of a family member for measuring T_a
    with outcome s: ``member_update`` on its operator."""
    return member_update(vertex.operator(), a, s)


def member_update(X: QOperator, a: PauliPoint, s: int) -> list[tuple[FieldElem, CncSet]]:
    """Closed-form update pieces for measuring T_a with outcome s on a
    trace-1 member X of Lambda_2 or Lambda_1 (the membership check is the
    caller's).

    With X = (1/2^n) sum_v alpha_v T_v, the outcome has probability
    p = (1 + (-1)^s alpha_a) / 2.  On two qubits the points of a-perp
    other than 0 and a form three cosets {r, r + a}; with r the smaller
    key of each, the normalized projection has coordinates

        x_r = (alpha_r + (-1)^{s + beta(r, a)} alpha_{r+a}) / (2 p)

    in the cube whose eight corners are the cnc sets on a-perp with
    gamma(a) = s, gamma(r) = g_r, gamma(r + a) = g_r + s + beta(r, a).
    |x_r| <= 1 is a pair of stabilizer facets of <a, r>, so the point
    lies in the cube and its Freudenthal chain decomposition is exact
    with nonnegative weights: start at the corner g_r = [x_r < 0], flip
    the r one at a time in ascending order of z_r = |x_r| (ties by key),
    and weight the four corners p (1 + z_1)/2, p (z_2 - z_1)/2,
    p (z_3 - z_2)/2, p (1 - z_3)/2.  On one qubit a-perp is {0, a}: the
    chain is empty, and its one corner, the stabilizer state {0, a} with
    gamma(a) = s, has weight p.

    Weights are unnormalized: they sum to p (no pieces when p = 0), zero
    weights are dropped, and sum(w_i * piece_i.operator()) equals
    X.project(a, s) exactly.  All of it runs on X's integers: over its
    denominator D, 2 p D and the x_r times 2 p D are sums of numerator
    pairs (u, v), for u + v*sqrt(2); the z_r are ordered by the exact
    sign of their differences (``sqrt2_sign``), and the weights are the
    differences over 4 D.  The cosets and their signs are read off the
    point keys (the form against the swapped axis key, ``key_phase``),
    and each corner is built straight from the key pairs (r, r + a).
    """
    if a.is_zero():
        raise ValueError("measurement axis must be nonzero")
    n = X.n
    if a.n != n or n > 2:
        raise ValueError("qubit count mismatch")
    check_bit(s, "outcome")
    D, num = X._den, X._num
    if num.get(0) != (D, 0):
        raise ValueError("the chain update needs an operator of trace 1")
    ka = a.key()
    swapped = swap_halves(ka, n)  # parity(r & swapped) = [r, a]
    pa, qa = num.get(ka, (0, 0))
    P, Q = (D - pa, -qa) if s else (D + pa, qa)  # 2 p D
    if not (P or Q):
        return []
    chain, irrational = [], False
    for r in range(1, 1 << 2 * n):  # the nonzero keys of E_n
        u = r ^ ka
        if u < r or (r & swapped).bit_count() & 1:
            continue
        t = (s + (key_phase(r, ka, n) >> 1)) & 1
        (x, y), (x2, y2) = num.get(r, (0, 0)), num.get(u, (0, 0))
        x, y = (x - x2, y - y2) if t else (x + x2, y + y2)  # x_r times 2 p D
        irrational |= y != 0
        g = int((sqrt2_sign(x, y) if y else x) < 0)
        chain.append((-x, -y, r, t, g) if g else (x, y, r, t, g))  # (z_r, r, ...)
    # rational sizes sort as the tuples (z, 0, r, ...); others by exact sign
    chain.sort(key=_ascending if irrational else None)
    zs = [(-P, -Q), *((z, y) for z, y, *_ in chain), (P, Q)]
    gamma = {0: 0, ka: s}
    for _, _, r, t, g in chain:
        gamma[r], gamma[r ^ ka] = g, g ^ t
    out = []
    for i in range(len(chain) + 1):
        if i:  # the next corner flips the i-th coset of the chain
            r = chain[i - 1][2]
            gamma[r] ^= 1
            gamma[r ^ ka] ^= 1
        (z0, y0), (z1, y1) = zs[i], zs[i + 1]
        if z1 != z0 or y1 != y0:
            out.append((FieldElem._reduced(z1 - z0, y1 - y0, 4 * D),
                        CncSet._of(n, dict(gamma))))
    return out


#: the chain order: |x_r| = z + y*sqrt(2) ascending, exactly, ties by key r
_ascending = cmp_to_key(lambda u, v: sqrt2_sign(u[0] - v[0], u[1] - v[1]) or u[2] - v[2])


# -- the poset of isotropic subspaces -----------------------------------------


def isotropic_poset() -> dict:
    """Containment poset of the 15 one- and 15 two-dimensional isotropic
    subspaces of E_2, with the flagship collection flagged."""
    ones = [span([p]) for p in all_points(2, include_zero=False)]
    twos = enumerate_maximal_isotropics(2)
    flag = classify_operator(alpha0_vertex()).collection
    nodes = []
    node_id = {}
    for sub in ones + twos:
        nid = ",".join(p.label() for p in sub.basis_points())
        node_id[sub] = nid
        nodes.append(
            {
                "id": nid,
                "dim": sub.dim,
                "points": [p.label() for p in sub.points() if not p.is_zero()],
                "in_flagship_collection": sub in flag,
            }
        )
    edges = []
    for one in ones:
        for two in twos:
            if two.contains(one.basis_points()[0]):
                edges.append([node_id[one], node_id[two]])
    return {"nodes": nodes, "edges": edges}


def poset_dot() -> str:
    data = isotropic_poset()
    lines = ["graph isotropics {"]
    for node in data["nodes"]:
        shape = "circle" if node["dim"] == 1 else "box"
        color = ", style=filled, fillcolor=salmon" if node["in_flagship_collection"] else ""
        lines.append(f'  "{node["id"]}" [shape={shape}{color}];')
    for a, b in data["edges"]:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines)
