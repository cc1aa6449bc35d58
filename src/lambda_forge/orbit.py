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

Parameter counting (established computationally, see the test suite):
each I admits 16 rule-satisfying collections, of which the four
six-member ones give |Omega| = 7 and extremal operators; the sign
system solved by ``assignment_solutions`` then has exactly eight
solutions per (I, gamma, collection), every one extremal:
15 * 4 * 4 * 8 = 1920.

Measurement updates resolve into mixtures of at most three cnc operators
supported on the full commutant a-perp of the measured axis; the update
weights (before normalization) are (1/2,1/4,1/4), (1/2,1/4), (1/4), or
(1/4,1/4) depending on the position of the axis relative to I and Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Mapping, Optional, Sequence

from .field import FieldElem, ONE
from .clifford import operator_orbit
from .cnc import CncSet, closure_extend
from .gf2 import (
    PauliPoint,
    Subspace,
    all_points,
    enumerate_maximal_isotropics,
    solve_affine,
    span,
    symplectic_form,
    xor_sums,
)
from .pauli import QOperator, beta, pauli_projector
from .polytope import is_vertex, membership
from .stabilizer import Assignment, all_assignments

HALF = FieldElem(Fraction(1, 2))

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


@lru_cache(maxsize=None)
def enumerate_collections(I: Subspace) -> tuple[frozenset[Subspace], ...]:
    """All collections containing I in which every covered nonzero point
    lies in exactly two members (depth-first search with count pruning)."""
    isos = enumerate_maximal_isotropics(2)
    if I not in isos:
        raise ValueError("collections are anchored at a maximal isotropic")
    order = [I] + [J for J in isos if J != I]
    pts_of = [tuple(p for p in J.points() if not p.is_zero()) for J in order]
    remaining: dict[PauliPoint, int] = {}
    for pts in pts_of:
        for p in pts:
            remaining[p] = remaining.get(p, 0) + 1
    counts: dict[PauliPoint, int] = {p: 0 for p in remaining}
    chosen: list[int] = []
    found: list[frozenset[Subspace]] = []

    def feasible(p: PauliPoint) -> bool:
        # a point with one cover so far must still be completable
        c = counts[p]
        if c == 2 or c == 0:
            return True
        return remaining[p] > 0

    def dfs(i: int):
        if i == len(order):
            if all(c in (0, 2) for c in counts.values()):
                found.append(frozenset(order[j] for j in chosen))
            return
        pts = pts_of[i]
        for p in pts:
            remaining[p] -= 1
        # branch: include order[i]
        if all(counts[p] < 2 for p in pts):
            for p in pts:
                counts[p] += 1
            chosen.append(i)
            if all(feasible(p) for p in pts):
                dfs(i + 1)
            chosen.pop()
            for p in pts:
                counts[p] -= 1
        # branch: exclude (forbidden for the anchor itself)
        if i != 0 and all(feasible(p) for p in pts):
            dfs(i + 1)
        for p in pts:
            remaining[p] += 1

    dfs(0)
    return tuple(sorted(found, key=lambda C: sorted(s.rows for s in C)))


def omega_from_collection(collection: Iterable[Subspace]) -> frozenset[PauliPoint]:
    """Complement-of-covered-points set; always contains 0."""
    covered: set[PauliPoint] = set()
    for J in collection:
        for p in J.points():
            if not p.is_zero():
                covered.add(p)
    zero = PauliPoint.zero(2)
    return frozenset(
        [zero] + [p for p in all_points(2, include_zero=False) if p not in covered]
    )


def check_collection_rules(I: Subspace, collection: Iterable[Subspace]) -> bool:
    col = set(collection)
    if I not in col:
        return False
    for J in col:
        for v in J.points():
            if v.is_zero():
                continue
            others = [K for K in col if K != J and K.contains(v)]
            if len(others) != 1:
                return False
    return True


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
    """
    zero = PauliPoint.zero(2)
    pts = sorted((p for p in omega if not p.is_zero()), key=lambda p: p.key())
    index = {p: i for i, p in enumerate(pts)}
    rows, rhs = [], []
    for v, w in combinations(pts, 2):
        if symplectic_form(v, w) != 0:
            continue
        u = v ^ w
        if u.is_zero() or not I.contains(u):
            continue
        rows.append((1 << index[v]) | (1 << index[w]))
        rhs.append((gamma.value(u) + beta(v, w)) & 1)
    solved = solve_affine(rows, rhs, len(pts))
    if solved is None:
        return []
    particular, null_basis = solved
    # reversed: the lowest free column changes slowest
    return [
        {zero: 0, **{p: sol >> i & 1 for i, p in enumerate(pts)}}
        for sol in (particular ^ h for h in xor_sums(null_basis[::-1]))
    ]


def derive_assignments(
    I: Subspace, gamma: Assignment, collection: Iterable[Subspace]
) -> list[tuple[dict[PauliPoint, int], dict[PauliPoint, int]]]:
    """(gamma', gamma'') candidate pairs for a collection.

    The sign system underdetermines the pair: it has eight solutions per
    vertex-producing collection, and all eight give extremal operators
    (each is kept by ``enumerate_family``).  Pairs come in a canonical
    order; gamma'' is the off-zero flip of gamma'.
    """
    omega = omega_from_collection(collection)
    sols = assignment_solutions(I, gamma, omega)
    out = []
    for gp in sorted(sols, key=lambda m: sorted((p.key(), b) for p, b in m.items())):
        gpp = {p: (b + (0 if p.is_zero() else 1)) & 1 for p, b in gp.items()}
        out.append((gp, gpp))
    return out


# -- the vertices ------------------------------------------------------------


@dataclass(frozen=True)
class OrbitVertex:
    """One member of the family, with its full parameter set."""

    I: Subspace
    gamma: Assignment
    collection: frozenset[Subspace]
    omega: frozenset[PauliPoint]
    gamma_p: tuple[tuple[PauliPoint, int], ...]

    @staticmethod
    def build(
        I: Subspace,
        gamma: Assignment,
        collection: Iterable[Subspace],
        gamma_p: Mapping[PauliPoint, int],
    ) -> "OrbitVertex":
        collection = frozenset(collection)
        if not check_collection_rules(I, collection):
            raise ValueError("collection violates the covering rules")
        omega = omega_from_collection(collection)
        if any(I.contains(p) for p in omega if not p.is_zero()):
            raise ValueError("Omega must meet I only at 0")
        gp = {p: gamma_p[p] & 1 for p in omega}
        if gp[PauliPoint.zero(2)] != 0:
            raise ValueError("gamma' must vanish at 0")
        for v, w in combinations([p for p in omega if not p.is_zero()], 2):
            u = v ^ w
            if symplectic_form(v, w) == 0 and I.contains(u) and not u.is_zero():
                if (gp[v] + gp[w] + beta(v, w)) & 1 != gamma.value(u):
                    raise ValueError("gamma' violates the sign rules")
        return OrbitVertex(
            I, gamma, collection, omega, tuple(sorted(gp.items(), key=lambda kv: kv[0].key()))
        )

    @property
    def gamma_p_map(self) -> dict[PauliPoint, int]:
        return dict(self.gamma_p)

    @property
    def gamma_pp_map(self) -> dict[PauliPoint, int]:
        return {
            p: (b + (0 if p.is_zero() else 1)) & 1 for p, b in self.gamma_p
        }

    def operator(self) -> QOperator:
        coeffs: dict[PauliPoint, FieldElem] = {PauliPoint.zero(2): ONE}
        for p in self.I.points():
            if not p.is_zero():
                coeffs[p] = ONE if self.gamma.value(p) == 0 else -ONE
        for p, b in self.gamma_p:
            if not p.is_zero():
                coeffs[p] = HALF if b == 0 else -HALF
        return QOperator(2, coeffs)

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
    """Recover the parameter set of a family member from its coefficients."""
    if V.n != 2:
        raise ValueError("the family lives on two qubits")
    zero = PauliPoint.zero(2)
    i_pts, gam_pairs, gp = [], [], {zero: 0}
    for p, c in V.coeffs.items():
        if p.is_zero():
            if c != ONE:
                raise ValueError("family members have unit trace")
            continue
        if c == ONE or c == -ONE:
            i_pts.append(p)
            gam_pairs.append((p, 0 if c == ONE else 1))
        elif c == HALF or c == -HALF:
            gp[p] = 0 if c == HALF else 1
        else:
            raise ValueError("coefficient outside {0, +-1/2, +-1}")
    I = span(i_pts, 2)
    if I.dim != 2 or not I.is_isotropic():
        raise ValueError("unit coefficients must fill a maximal isotropic")
    gamma = Assignment.from_pairs(gam_pairs, 2)
    omega = frozenset(gp)
    collection = _collection_for_omega(I, omega)
    return OrbitVertex.build(I, gamma, collection, gp)


def _collection_for_omega(I: Subspace, omega: frozenset[PauliPoint]) -> frozenset[Subspace]:
    for C in enumerate_collections(I):
        if omega_from_collection(C) == omega:
            return C
    raise ValueError("no rule-satisfying collection produces this Omega")


@lru_cache(maxsize=1)
def enumerate_family() -> tuple[OrbitVertex, ...]:
    """All 1920 members: every (I, gamma, collection, sign solution) whose
    operator passes the exact extremality test."""
    out = []
    for I in enumerate_maximal_isotropics(2):
        collections = enumerate_collections(I)
        for gamma in all_assignments(I):
            for C in collections:
                for gp, _ in derive_assignments(I, gamma, C):
                    try:
                        vert = OrbitVertex.build(I, gamma, C, gp)
                    except ValueError:
                        continue
                    op = vert.operator()
                    cert = membership(op)
                    if cert.is_member and is_vertex(op, cert)[0]:
                        out.append(vert)
    return tuple(out)


@lru_cache(maxsize=1)
def family_operator_keys() -> frozenset:
    return frozenset(v.operator().key() for v in enumerate_family())


@lru_cache(maxsize=1)
def clifford_orbit_keys() -> frozenset:
    """Canonical keys of the BFS Clifford orbit of the flagship vertex."""
    return frozenset(operator_orbit(alpha0_vertex()))


# -- measurement updates -----------------------------------------------------


def _aperp_assignment(a: PauliPoint, pins: Mapping[PauliPoint, int]) -> CncSet:
    vals = closure_extend({PauliPoint.zero(2): 0, **pins})
    expect = frozenset(span([a]).perp().points())
    assert frozenset(vals) == expect, "pinned values must fill the commutant"
    return CncSet(vals.keys(), vals, check=False)


def measure_update(
    vertex: OrbitVertex, a: PauliPoint, s: int
) -> list[tuple[Fraction, CncSet]]:
    """Closed-form update pieces for measuring T_a with outcome s.

    Weights are unnormalized: they sum to the outcome probability, and
    sum(w_i * piece_i.operator()) equals project(operator(), a, s)
    exactly.  Every piece is a cnc set filling the commutant of a.
    """
    if a.is_zero():
        raise ValueError("measurement axis must be nonzero")
    s &= 1
    I, gamma = vertex.I, vertex.gamma
    omega = vertex.omega
    gp = vertex.gamma_p_map
    in_I = I.contains(a)
    in_omega = a in omega
    assert not (in_I and in_omega), "Omega meets I only at 0"

    om_commuting = {p: gp[p] for p in omega if symplectic_form(p, a) == 0}
    gt = closure_extend({PauliPoint.zero(2): 0, **om_commuting})
    gpp_commuting = {
        p: (b + (0 if p.is_zero() else 1)) & 1 for p, b in om_commuting.items()
    }
    gtt = closure_extend({PauliPoint.zero(2): 0, **gpp_commuting})

    if in_I:
        # Deterministic outcome; the remainder splits as a (2,1,1)/4 mixture.
        if s != gamma.value(a):
            return []
        tilde_omega = span(list(gt), 2)
        assert tilde_omega.dim == 2 and tilde_omega.contains(a)
        vt = min(
            (p for p in I.points() if not p.is_zero() and p != a),
            key=lambda p: p.key(),
        )
        wt = min(
            (p for p in gt if not p.is_zero() and not I.contains(p)),
            key=lambda p: p.key(),
        )
        sv, sw = gamma.value(vt), gt[wt]
        vw = vt ^ wt
        a0 = _aperp_assignment(a, {a: s, vt: sv, wt: sw, vw: 0})
        a1 = _aperp_assignment(a, {a: s, vt: sv, wt: sw, vw: 1})
        a2 = _aperp_assignment(a, {a: s, vt: sv, wt: (sw + 1) & 1, vw: 1})
        return [(Fraction(1, 2), a0), (Fraction(1, 4), a1), (Fraction(1, 4), a2)]

    # I x a data, shared by the remaining cases.
    vt = next(
        p for p in I.points() if not p.is_zero() and symplectic_form(p, a) == 0
    )
    i_cross_a = span([vt, a], 2)
    aperp_pts = list(span([a]).perp().points())

    if in_omega:
        assert len(gt) == 8, "the closure fills the commutant when a is in Omega"
        wt = min(
            (p for p in aperp_pts if not p.is_zero() and not i_cross_a.contains(p)),
            key=lambda p: p.key(),
        )
        vw = vt ^ wt
        if s != gt[a]:
            piece = _aperp_assignment(
                a,
                {a: s, vt: gtt[vt], wt: (gtt[wt] + 1) & 1, vw: (gtt[vw] + 1) & 1},
            )
            return [(Fraction(1, 4), piece)]
        main = CncSet(gt.keys(), gt, check=False)
        flipped = _aperp_assignment(
            a, {a: s, vt: gt[vt], wt: (gt[wt] + 1) & 1, vw: (gt[vw] + 1) & 1}
        )
        return [(Fraction(1, 2), main), (Fraction(1, 4), flipped)]

    # a outside both I and Omega: balanced two-piece mixtures.
    tilde_omega = span(list(gt), 2)
    assert tilde_omega.dim == 2 and tilde_omega.contains(a)
    sv = gamma.value(vt)
    if s != gt[a]:
        wt = min(
            (p for p in aperp_pts if not p.is_zero() and not i_cross_a.contains(p)),
            key=lambda p: p.key(),
        )
        vw = vt ^ wt
        a0 = _aperp_assignment(a, {a: s, vt: sv, wt: 0, vw: 0})
        a1 = _aperp_assignment(a, {a: s, vt: sv, wt: 1, vw: 1})
    else:
        wt = min(
            (p for p in gt if not p.is_zero() and p != a),
            key=lambda p: p.key(),
        )
        sw = gt[wt]
        vw = vt ^ wt
        a0 = _aperp_assignment(a, {a: s, vt: sv, wt: sw, vw: 0})
        a1 = _aperp_assignment(a, {a: s, vt: sv, wt: sw, vw: 1})
    return [(Fraction(1, 4), a0), (Fraction(1, 4), a1)]


def verify_update_rules(
    vertices: Optional[Sequence[OrbitVertex]] = None, jobs: int = 1
) -> dict:
    """Exhaustive oracle sweep: every vertex, axis, and outcome; compares
    the closed-form mixture against exact operator projection."""
    if vertices is None:
        vertices = enumerate_family()
    if jobs > 1:
        import multiprocessing as mp

        chunks = [list(vertices[i::jobs]) for i in range(jobs)]
        with mp.Pool(jobs) as pool:
            partials = pool.map(_sweep_chunk, chunks)
        stats = {"cases": 0, "mismatches": 0, "zero_cases": 0, "weight_profiles": {}}
        for part in partials:
            stats["cases"] += part["cases"]
            stats["mismatches"] += part["mismatches"]
            stats["zero_cases"] += part["zero_cases"]
            for k, v in part["weight_profiles"].items():
                stats["weight_profiles"][k] = stats["weight_profiles"].get(k, 0) + v
        return stats
    return _sweep_chunk(list(vertices))


def _sweep_chunk(vertices: Sequence[OrbitVertex]) -> dict:
    cases = mismatches = zero_cases = 0
    profiles: dict[tuple, int] = {}
    axes = all_points(2, include_zero=False)
    for vert in vertices:
        op = vert.operator()
        for a in axes:
            for s in (0, 1):
                cases += 1
                pieces = measure_update(vert, a, s)
                total = QOperator.zero(2)
                for w, piece in pieces:
                    total = total + piece.operator().scale(w)
                if total != op.project(a, s):
                    mismatches += 1
                if not pieces:
                    zero_cases += 1
                prof = tuple(sorted((w for w, _ in pieces), reverse=True))
                profiles[prof] = profiles.get(prof, 0) + 1
    return {
        "cases": cases,
        "mismatches": mismatches,
        "zero_cases": zero_cases,
        "weight_profiles": profiles,
    }


# -- single-qubit mixture identities ------------------------------------------


def _qubit_vertex(alpha: Mapping[PauliPoint, int]) -> QOperator:
    coeffs = {PauliPoint.zero(1): ONE}
    for p, b in alpha.items():
        if not p.is_zero():
            coeffs[p] = ONE if b == 0 else -ONE
    return QOperator(1, coeffs)


def mixture_identities_report() -> dict[str, int]:
    """Check the five exact projector/vertex mixture identities on one
    qubit for every admissible parameter choice; returns failure counts
    (all zero) keyed by identity name."""
    pts = all_points(1, include_zero=False)
    zero = PauliPoint.zero(1)
    report = {f"identity-{k}": 0 for k in range(1, 6)}
    checked = {f"identity-{k}": 0 for k in range(1, 6)}

    def vertex(vals):
        return _qubit_vertex(vals)

    for v, w in product(pts, pts):
        if v == w:
            continue
        u = v ^ w
        for sv, sw, f1, f2 in product((0, 1), repeat=4):
            proj_v = pauli_projector(v, sv)
            proj_w0 = pauli_projector(w, sw)
            proj_w1 = pauli_projector(w, (sw + 1) & 1)
            # (1) projector as an even mixture, two free bits
            a0 = {v: sv, w: f1, u: f2}
            a1 = {v: sv, w: (f1 + 1) & 1, u: (f2 + 1) & 1}
            lhs = proj_v
            rhs = (vertex(a0) + vertex(a1)).scale(Fraction(1, 2))
            checked["identity-1"] += 1
            if lhs != rhs:
                report["identity-1"] += 1
            # (2) projector plus half a projector difference, one free bit
            a0 = {v: sv, w: sw, u: f1}
            a1 = {v: sv, w: sw, u: (f1 + 1) & 1}
            lhs = proj_v + (proj_w0 - proj_w1).scale(Fraction(1, 2))
            rhs = (vertex(a0) + vertex(a1)).scale(Fraction(1, 2))
            checked["identity-2"] += 1
            if lhs != rhs:
                report["identity-2"] += 1
            # (5) the (2,1,1)/4 mixture, one free bit
            a0 = {v: sv, w: sw, u: f1}
            a1 = {v: sv, w: sw, u: (f1 + 1) & 1}
            a2 = {v: sv, w: (sw + 1) & 1, u: (f1 + 1) & 1}
            lhs = proj_v + (proj_w0 - proj_w1).scale(Fraction(1, 4))
            rhs = (
                vertex(a0).scale(2) + vertex(a1) + vertex(a2)
            ).scale(Fraction(1, 4))
            checked["identity-5"] += 1
            if lhs != rhs:
                report["identity-5"] += 1
    for v in pts:
        others = [w for w in pts if w != v]
        w = others[0]
        u = v ^ w
        for av, aw, au in product((0, 1), repeat=3):
            alpha = {v: av, w: aw, u: au}
            alpha_f = {v: av, w: (aw + 1) & 1, u: (au + 1) & 1}
            proj = pauli_projector(v, av)
            # (3) equal thirds
            lhs = (proj.scale(2) + vertex(alpha)).scale(Fraction(1, 3))
            rhs = (vertex(alpha).scale(2) + vertex(alpha_f)).scale(Fraction(1, 3))
            checked["identity-3"] += 1
            if lhs != rhs:
                report["identity-3"] += 1
            # (4) reflection through a projector
            lhs = proj.scale(2) - vertex(alpha)
            rhs = vertex(alpha_f)
            checked["identity-4"] += 1
            if lhs != rhs:
                report["identity-4"] += 1
    report["checked"] = sum(checked.values())
    return report


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
