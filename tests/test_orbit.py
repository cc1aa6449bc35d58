import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from lambda_forge.cnc import CncSet
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    enumerate_maximal_isotropics,
    span,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.orbit import (
    ALPHA0_TABLE,
    OrbitVertex,
    alpha0_vertex,
    assignment_solutions,
    classify_operator,
    clifford_orbit_keys,
    enumerate_collections,
    enumerate_family,
    family_operator_keys,
    isotropic_poset,
    measure_update,
    member_update,
    mixture_identities_report,
    omega_from_collection,
    poset_dot,
)
from lambda_forge.field import FieldElem
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import is_vertex, membership
from lambda_forge.stabilizer import all_assignments
from helpers import candidate_operator, family_measure_update

rng = random.Random(31)

I0 = span([x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)])


def check_collection_rules(I, collection):
    """The covering rules read literally, on any subspaces: I is a member,
    and each nonzero point of a member lies in exactly one other member.
    ``enumerate_collections`` is checked against it."""
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


def test_alpha0_parameters():
    V = classify_operator(alpha0_vertex())
    assert V.I == I0
    locals_ = {PauliPoint.zero(2)} | {
        f(2, q) for f in (x_point, y_point, z_point) for q in (1, 2)
    }
    assert V.omega == frozenset(locals_)
    # the six listed collection members
    listed = frozenset(
        span(g)
        for g in (
            [x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)],
            [x_point(2, 1) ^ x_point(2, 2), z_point(2, 1) ^ z_point(2, 2)],
            [x_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ z_point(2, 2)],
            [z_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ x_point(2, 2)],
            [y_point(2, 1) ^ x_point(2, 2), x_point(2, 1) ^ y_point(2, 2)],
            [z_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ z_point(2, 2)],
        )
    )
    assert len(listed) == 6
    assert V.collection == listed
    # gamma' signs: IX:-1 XI:+1 IZ:-1 IY:-1 ZI:+1 YI:-1
    gp = dict(V.gamma_p)
    assert gp[x_point(2, 2)] == 1
    assert gp[x_point(2, 1)] == 0
    assert gp[z_point(2, 2)] == 1
    assert gp[y_point(2, 2)] == 1
    assert gp[z_point(2, 1)] == 0
    assert gp[y_point(2, 1)] == 1


def test_alpha0_membership_and_extremality():
    cert = membership(alpha0_vertex())
    assert cert.is_member
    assert is_vertex(alpha0_vertex(), cert) == (True, 15)


def test_build_round_trip():
    V = classify_operator(alpha0_vertex())
    V2 = OrbitVertex.build(V.I, V.gamma, V.collection, dict(V.gamma_p))
    assert V2.operator() == alpha0_vertex()
    assert {lbl: val for lbl, val in ALPHA0_TABLE.items() if val} == {
        p.label(): c.a for p, c in alpha0_vertex().coeffs.items()
    }


def test_build_validation():
    V = classify_operator(alpha0_vertex())
    bad_gp = dict(V.gamma_p)
    bad_gp[x_point(2, 1)] ^= 1  # breaks one sign equation
    with pytest.raises(ValueError):
        OrbitVertex.build(V.I, V.gamma, V.collection, bad_gp)
    with pytest.raises(ValueError):
        OrbitVertex.build(V.I, V.gamma, frozenset(list(V.collection)[:5]), dict(V.gamma_p))
    # I plus the lines through its points meets the covering rules, but is
    # not a collection of maximal isotropics
    degenerate = [V.I] + [span([p]) for p in V.I.points() if not p.is_zero()]
    assert check_collection_rules(V.I, degenerate)
    with pytest.raises(ValueError):
        OrbitVertex.build(V.I, V.gamma, degenerate, dict(V.gamma_p))
    short_gp = dict(V.gamma_p)
    del short_gp[x_point(2, 1)]
    with pytest.raises(ValueError):
        OrbitVertex.build(V.I, V.gamma, V.collection, short_gp)
    # gamma' bits are the ints 0 or 1: 2 is not read as 2 & 1 = 0
    assert dict(V.gamma_p)[x_point(2, 1)] == 0
    for bad in (2, True):
        bad_gp = dict(V.gamma_p)
        bad_gp[x_point(2, 1)] = bad
        with pytest.raises(ValueError, match="gamma' values must be the ints 0 or 1"):
            OrbitVertex.build(V.I, V.gamma, V.collection, bad_gp)
    # the class's constructor refuses every call: with the gamma' bit of
    # YI flipped it would hold a non-member, whose law on [YI, XI] has
    # mass 5/4
    flipped = tuple((p, b ^ (p.label() == "YI")) for p, b in V.gamma_p)
    with pytest.raises(TypeError, match="made by enumerate_family, classify_operator or"):
        OrbitVertex(V.I, V.gamma, V.collection, V.omega, flipped)


def test_classify_rejects_trace_zero():
    table = {lbl: val for lbl, val in ALPHA0_TABLE.items() if lbl != "II"}
    with pytest.raises(ValueError):
        classify_operator(QOperator.from_labels(2, table))


def test_every_member_round_trips_through_build():
    for V in enumerate_family():
        assert OrbitVertex.build(V.I, V.gamma, V.collection, dict(V.gamma_p)) == V
        # the test-side rule operator agrees on every member
        assert candidate_operator(V.gamma, V.omega, dict(V.gamma_p)) == V.operator()


def test_classify_recovers_every_member_and_clifford_moves():
    family = enumerate_family()
    for V in family:
        assert classify_operator(V.operator()) == V
    from lambda_forge.clifford import CliffordTableau

    gates = [CliffordTableau.hadamard(2, 1), CliffordTableau.hadamard(2, 2),
             CliffordTableau.phase_gate(2, 1), CliffordTableau.phase_gate(2, 2),
             CliffordTableau.cnot(2, 1, 2), CliffordTableau.cnot(2, 2, 1)]
    members = set(family)
    gen = random.Random(26)
    for _ in range(40):
        u = CliffordTableau.identity(2)
        for _ in range(12):
            u = gen.choice(gates).compose(u)
        op = u.conjugate(alpha0_vertex())
        V = classify_operator(op)
        assert V in members and V.operator() == op


def test_classify_refuses_operators_outside_the_family():
    """Every candidate of an 8- or 10-member collection is refused, by
    ``classify_operator`` and ``build`` alike, and so is a member with one
    of its unit coefficients on I set to 0."""
    refused = Counter()
    for I in enumerate_maximal_isotropics(2):
        for gamma in all_assignments(I):
            for C in enumerate_collections(I):
                if len(C) == 6:
                    continue
                omega = omega_from_collection(C)
                for gp in assignment_solutions(I, gamma, omega):
                    with pytest.raises(ValueError, match="not a member of the two-qubit family"):
                        classify_operator(candidate_operator(gamma, omega, gp))
                    with pytest.raises(ValueError, match="not one of the six-member collections"):
                        OrbitVertex.build(I, gamma, C, gp)
                    refused[len(C)] += 1
    assert refused == {8: 3840, 10: 240}
    table = dict(ALPHA0_TABLE, YY=0)  # YY is the third point of I
    with pytest.raises(ValueError, match="fill a maximal isotropic"):
        classify_operator(QOperator.from_labels(2, table))


def test_collections_structure():
    cols = enumerate_collections(I0)
    assert len(cols) == 16
    sizes = sorted(len(c) for c in cols)
    assert sizes == [6, 6, 6, 6, 8, 8, 8, 8, 8, 8, 8, 8, 10, 10, 10, 10]
    for C in cols:
        assert check_collection_rules(I0, C)
    omegas = {omega_from_collection(C) for C in cols if len(C) == 6}
    assert len(omegas) == 4
    for om in omegas:
        assert len(om) == 7
        assert not any(I0.contains(p) for p in om if not p.is_zero())


def test_collections_match_brute_force():
    """Every subset of the other 14 maximal isotropics, with I0 added,
    whose cover of each nonzero point is 0 or 2 (a count, not a parity)."""
    others = [J for J in enumerate_maximal_isotropics(2) if J != I0]
    keys = {J: [p.key() for p in J.points() if not p.is_zero()] for J in others + [I0]}
    found = set()
    for mask in range(1 << len(others)):
        members = [I0] + [J for j, J in enumerate(others) if mask >> j & 1]
        cover = Counter(k for J in members for k in keys[J])
        if all(c == 2 for c in cover.values()):
            found.add(frozenset(members))
    cols = enumerate_collections(I0)
    assert len(cols) == len(found) == 16
    assert set(cols) == found


def test_sign_system_solution_count():
    gamma = next(iter(all_assignments(I0)))
    for C in enumerate_collections(I0):
        if len(C) != 6:
            continue
        om = omega_from_collection(C)
        sols = assignment_solutions(I0, gamma, om)
        assert len(sols) == 8
        for gp in sols:
            assert gp[PauliPoint.zero(2)] == 0


def test_update_weight_profiles():
    V = classify_operator(alpha0_vertex())
    a = x_point(2, 1) ^ z_point(2, 2)  # in I
    s = V.gamma.value(a)
    assert [w for w, _ in measure_update(V, a, s)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    assert measure_update(V, a, 1 ^ s) == []
    a = x_point(2, 1)  # in Omega; gamma'(x1) = 0
    pieces = measure_update(V, a, 0)
    assert [w for w, _ in pieces] == [Fraction(1, 2), Fraction(1, 4)]
    total = sum(w for w, _ in pieces)
    assert [w / total for w, _ in pieces] == [Fraction(2, 3), Fraction(1, 3)]
    assert [w for w, _ in measure_update(V, a, 1)] == [Fraction(1, 4)]
    a = x_point(2, 1) ^ x_point(2, 2)  # outside both
    for s in (0, 1):
        assert [w for w, _ in measure_update(V, a, s)] == [
            Fraction(1, 4),
            Fraction(1, 4),
        ]


def test_update_pieces_are_commutant_cnc():
    members = random.Random(4).sample(enumerate_family(), 64)
    for V in members:
        for a in all_points(2, include_zero=False):
            for s in (0, 1):
                for w, piece in measure_update(V, a, s):
                    assert isinstance(piece, CncSet)
                    assert w > 0
                    assert piece.omega == frozenset(span([a]).perp().points())
                    assert piece.gamma[a] == s
                    assert CncSet(piece.omega, piece.gamma) == piece
    for a in (PauliPoint.zero(2), x_point(3, 1)):
        with pytest.raises(ValueError):
            measure_update(members[0], a, 0)


def test_dropped_collections_give_no_vertices():
    """The family keeps only six-member collections; every candidate from
    the 8- and 10-member collections fails membership or extremality."""
    sizes = {}
    for I in enumerate_maximal_isotropics(2):
        dropped = [C for C in enumerate_collections(I) if len(C) != 6]
        for gamma in all_assignments(I):
            for C in dropped:
                for gp in assignment_solutions(I, gamma, omega_from_collection(C)):
                    sizes[len(C)] = sizes.get(len(C), 0) + 1
                    op = candidate_operator(gamma, omega_from_collection(C), gp)
                    cert = membership(op)
                    assert not (cert.is_member and is_vertex(op, cert)[0])
    assert sizes == {8: 3840, 10: 240}


def test_update_oracle_sampled():
    V = classify_operator(alpha0_vertex())
    vertices = [V]
    # a couple of Pauli conjugates stay in the family with the same parameters
    from lambda_forge.clifford import CliffordTableau

    for u in list(V.I.points())[1:]:
        vertices.append(
            classify_operator(CliffordTableau.pauli(2, u).conjugate(alpha0_vertex()))
        )
    for vert in vertices:
        op = vert.operator()
        for a in all_points(2, include_zero=False):
            for s in (0, 1):
                total = QOperator.zero(2)
                for w, piece in measure_update(vert, a, s):
                    total = total + piece.operator().scale(w)
                assert total == op.project(a, s)


def test_update_matches_projection_on_sampled_members():
    """The int-keyed closed form against operator().project on every axis
    and outcome, for members spread over the family."""
    for vert in random.Random(13).sample(enumerate_family(), 24):
        op = vert.operator()
        for a in all_points(2, include_zero=False):
            for s in (0, 1):
                projected = op.project(a, s)
                pieces = measure_update(vert, a, s)
                total = QOperator.zero(2)
                for w, piece in pieces:
                    assert w > 0 and piece.gamma[a] == s
                    total = total + piece.operator().scale(w)
                assert total == projected
                assert sum((w for w, _ in pieces), Fraction(0)) == projected.trace()


def test_chain_gives_every_family_case_the_rational_chains_pieces():
    """All 57 600 (member, axis, outcome) cases: the chain on the cached
    operator's numerators returns the pieces of the rational chain on the
    doubled coefficients, with equal weights and cnc sets in equal order."""
    axes = all_points(2, include_zero=False)
    differ = [
        (v, a, s)
        for v in enumerate_family() for a in axes for s in (0, 1)
        if measure_update(v, a, s) != family_measure_update(v, a, s)
    ]
    assert differ == []


def test_member_update_refuses_what_it_cannot_update():
    X, a = alpha0_vertex(), x_point(2, 1)
    with pytest.raises(ValueError, match="trace 1"):
        member_update(X.scale(2), a, 0)
    with pytest.raises(ValueError, match="nonzero"):
        member_update(X, PauliPoint.zero(2), 0)
    with pytest.raises(ValueError, match="qubit count"):
        member_update(X, x_point(1, 1), 0)
    with pytest.raises(ValueError, match="qubit count"):
        member_update(X.tensor(QOperator.from_labels(1, {"I": 1})), x_point(3, 1), 0)
    with pytest.raises(ValueError, match="outcome"):
        member_update(X, a, 2)


def test_cached_coefficients_leave_identity_unchanged():
    used, fresh = classify_operator(alpha0_vertex()), classify_operator(alpha0_vertex())
    blob, digest = pickle.dumps(fresh), hash(fresh)
    assert used.operator() == alpha0_vertex()
    measure_update(used, x_point(2, 1), 0)
    assert used.operator() is used.operator()
    assert used == fresh and hash(used) == hash(fresh) == digest
    assert pickle.dumps(used) == blob
    back = pickle.loads(pickle.dumps(used))
    assert back == used and hash(back) == digest and back.operator() == alpha0_vertex()


def test_pauli_conjugates_share_parameters():
    V = classify_operator(alpha0_vertex())
    from lambda_forge.clifford import CliffordTableau

    for u in V.I.points():
        if u.is_zero():
            continue
        moved = classify_operator(
            CliffordTableau.pauli(2, u).conjugate(alpha0_vertex())
        )
        assert moved.I == V.I
        assert moved.collection == V.collection
        assert moved.omega == V.omega
        assert moved.gamma == V.gamma
        assert moved.gamma_p != V.gamma_p


def test_outcome_probability_normalization():
    V = classify_operator(alpha0_vertex())
    for a in all_points(2, include_zero=False):
        total = Fraction(0)
        for s in (0, 1):
            total += sum((w for w, _ in measure_update(V, a, s)), Fraction(0))
        assert total == 1


def test_mixture_identities():
    rep = mixture_identities_report()
    assert rep["checked"] == 336
    assert all(v == 0 for k, v in rep.items() if k.startswith("identity-"))


def test_poset():
    data = isotropic_poset()
    ones = [n for n in data["nodes"] if n["dim"] == 1]
    twos = [n for n in data["nodes"] if n["dim"] == 2]
    assert len(ones) == 15 and len(twos) == 15
    assert len(data["edges"]) == 45
    from collections import Counter

    cover_counts = Counter(a for a, _ in data["edges"])
    assert set(cover_counts.values()) == {3}
    flagged = {n["id"] for n in twos if n["in_flagship_collection"]}
    assert len(flagged) == 6
    dot = poset_dot()
    assert dot.count("--") == 45 and "salmon" in dot


def test_vertex_json():
    V = classify_operator(alpha0_vertex())
    doc = V.to_json()
    assert len(doc["collection"]) == 6
    assert len(doc["omega"]) == 7
    assert QOperator.from_json({"n": 2, "coeffs": doc["coeffs"]}) == alpha0_vertex()


def test_int_keys_are_the_member_operators():
    # a member's int key halves back to its operator's coefficients
    decoded = {
        QOperator(2, {PauliPoint.from_key(2, k): FieldElem(Fraction(c, 2))
                      for k, c in member}).key()
        for member in family_operator_keys()
    }
    assert decoded == {v.operator().key() for v in enumerate_family()}
    assert family_operator_keys() == clifford_orbit_keys()


def test_orbit_keys_refuse_one_flipped_half_coefficient():
    seeded = random.Random(2801)
    orbit_keys = clifford_orbit_keys()
    for v in seeded.sample(enumerate_family(), 12):
        member = tuple(sorted((k, p) for k, (p, _) in v.operator()._num.items()))
        assert member in orbit_keys
        halves = [i for i, (_, c) in enumerate(member) if abs(c) == 1]
        i = seeded.choice(halves)
        flipped = member[:i] + ((member[i][0], -member[i][1]),) + member[i + 1 :]
        assert flipped not in orbit_keys and flipped not in family_operator_keys()
