import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lambda_forge.cnc import (
    CncSet,
    cnc_vertices,
    consistent_assignments,
    is_closed,
    is_cnc,
    is_maximal_cnc,
    maximal_cnc_sets,
)
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    key_form,
    point_width,
    span,
    symplectic_form,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.orbit import alpha0_vertex, enumerate_family, member_update
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import is_vertex, membership
from lambda_forge.stabilizer import enumerate_stabilizer_states, stabilizer_projector
from helpers import maximally_mixed

rng = random.Random(13)


# the Peres-Mermin square with 0: closed (two commuting points share a row
# or a column, which holds their sum) and contextual
PERES_MERMIN = [PauliPoint.from_label(lbl) for lbl in
                ("II", "XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY")]


def test_closure_examples():
    pts = [PauliPoint.zero(2), x_point(2, 1), z_point(2, 1), y_point(2, 1), x_point(2, 2)]
    assert not is_closed(pts)  # x1 and x2 commute but x1+x2 is missing
    assert is_closed(all_points(1))
    assert is_closed(PERES_MERMIN) and is_closed([])


def test_maximality():
    assert is_maximal_cnc(all_points(1))
    iso = span([z_point(2, 1), z_point(2, 2)])
    assert is_cnc(iso.points()) and not is_maximal_cnc(iso.points())
    assert is_maximal_cnc(span([x_point(2, 1)]).perp().points())
    assert is_maximal_cnc([PauliPoint.zero(3), x_point(3, 1)]) is False


def test_shape_counts():
    shapes = maximal_cnc_sets(2)
    assert [len(omega) for omega in shapes] == [8] * 15 + [6] * 6
    # the 15 commutants a-perp, then 0 with five pairwise anticommuting points
    perps = {frozenset(span([a]).perp().points()) for a in all_points(2, include_zero=False)}
    assert set(shapes[:15]) == perps
    zero = PauliPoint.zero(2)
    for omega in shapes[15:]:
        assert zero in omega
        assert all(symplectic_form(u, v) for u, v in combinations(omega - {zero}, 2))
        assert is_maximal_cnc(omega)
    assert len(set(shapes)) == 21
    assert maximal_cnc_sets(1) == [frozenset(all_points(1))]
    with pytest.raises(ValueError):
        maximal_cnc_sets(0)


def test_shape_counts_n3():
    shapes = maximal_cnc_sets(3)
    assert len(set(shapes)) == 981
    assert Counter(map(len, shapes)) == {8: 288, 12: 378, 16: 315}
    assert [len(omega) for omega in shapes] == sorted(map(len, shapes), reverse=True)


def test_cnc_vertex_counts():
    assert len(cnc_vertices(1)) == 8
    assert len(cnc_vertices(2)) == 15 * 16 + 6 * 32


def test_operator_examples():
    zero_set = CncSet([PauliPoint.zero(2)], {PauliPoint.zero(2): 0})
    assert zero_set.operator() == maximally_mixed(2)
    full = CncSet(all_points(1), {p: 0 for p in all_points(1)})
    assert full.operator() == QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    I, s = enumerate_stabilizer_states(2)[11]
    c = CncSet.from_assignment(s)
    assert c.operator() == stabilizer_projector(I, s)


def test_invariants_enforced():
    x1, z1 = x_point(2, 1), z_point(2, 1)
    with pytest.raises(ValueError):  # not closed
        CncSet(
            [PauliPoint.zero(2), x1, x_point(2, 2)],
            {PauliPoint.zero(2): 0, x1: 0, x_point(2, 2): 0},
        )
    iso = span([x1, x_point(2, 2)])
    vals = {p: 0 for p in iso.points()}
    vals[x1 ^ x_point(2, 2)] = 1  # breaks consistency (beta = 0 here)
    with pytest.raises(ValueError):
        CncSet(iso.points(), vals)


def test_boundary_rejects_empty_omega_and_bad_gamma():
    zero, x = PauliPoint.zero(1), x_point(1, 1)
    bad = [
        ([], {}),
        ([zero, x], {zero: 0, x: True}),
        ([zero, x], {zero: 0, x: 3}),
        ([zero, x], {zero: 0, x: "1"}),
        ([zero, x], {zero: 0}),
        ([zero], {zero: 0, x: 0}),
    ]
    for omega, gamma in bad:
        with pytest.raises(ValueError):
            CncSet(omega, gamma)


@pytest.mark.parametrize("fn", [is_maximal_cnc, consistent_assignments, is_cnc])
def test_refuses_empty_set(fn):
    with pytest.raises(ValueError, match="empty"):
        fn([])


def test_key_valued_views_and_identity():
    c = cnc_vertices(2)[100]
    twin = CncSet(c.omega, c.gamma)
    assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
    assert set(c.gamma) == c.omega and all(b in (0, 1) for b in c.gamma.values())
    with pytest.raises(TypeError):
        c.gamma[PauliPoint.zero(2)] = 1
    # X on one qubit and XI on two share the key 1, but the sets differ
    one, two = (CncSet([PauliPoint.zero(n), x_point(n, 1)],
                       {PauliPoint.zero(n): 0, x_point(n, 1): 0}) for n in (1, 2))
    assert one != two and one.operator() != two.operator()


def _twins(c: CncSet) -> list[CncSet]:
    """c rebuilt as other objects: from its views, from its keys and by pickle."""
    return [CncSet(c.omega, c.gamma), CncSet._from_keys(c.n, dict(c._vals)),
            pickle.loads(pickle.dumps(c))]


def test_equal_sets_from_every_builder_compare_and_hash_equal():
    # a cnc set is its one dict: every builder gives an equal value with an
    # equal hash, and sets that differ in a value, a point or n differ
    groups = []
    for _, s in enumerate_stabilizer_states(2)[:6]:
        c = CncSet.from_assignment(s)
        # on an isotropic set an axis of Omega with its own value keeps Omega
        a = next(p for p in c.omega if not p.is_zero())
        [(weight, kept)] = c.measure_update(a, c.gamma[a])
        assert weight == 1 and kept is not c
        groups.append([c, kept, *_twins(c)])
    for c in cnc_vertices(2)[::40]:
        groups.append([c, *_twins(c)])
    for X in (alpha0_vertex(), enumerate_family()[7].operator()):
        for a in all_points(2, include_zero=False)[::5]:
            for s in (0, 1):
                for _, corner in member_update(X, a, s):
                    groups.append([corner, *_twins(corner)])
    groups.append([CncSet([PauliPoint.zero(2)], {PauliPoint.zero(2): 0}),
                   CncSet._from_keys(2, {0: 0})])
    firsts = []
    for group in groups:
        for x in group:
            assert type(x) is CncSet and x == group[0] and hash(x) == hash(group[0])
        if group[0] not in firsts:
            firsts.append(group[0])
    assert len(firsts) > 30 and len(set(firsts)) == len(firsts)
    c = cnc_vertices(2)[100]
    flipped = CncSet._from_keys(2, {k: b ^ (k == max(c._vals)) for k, b in c._vals.items()})
    assert flipped != c and CncSet._from_keys(1, {0: 0}) != CncSet._from_keys(2, {0: 0})


def test_the_hash_is_computed_on_first_use_and_kept():
    assert [(f.name, f.compare, f.repr) for f in dataclasses.fields(CncSet)] == \
        [("n", True, True), ("_vals", True, True), ("_hash", False, False)]
    assert CncSet.__slots__ == ("n", "_vals", "_hash")
    c = cnc_vertices(2)[7]  # built fresh on every call
    twin = CncSet(c.omega, c.gamma)
    assert c._hash is None and twin._hash is None
    # comparing and pickling do not hash
    before = pickle.loads(pickle.dumps(c))
    assert c == twin and before == c and c._hash is None and before._hash is None
    h = hash(c)
    assert c._hash == h == hash(frozenset(c._vals.items())) and hash(c) == h
    after = pickle.loads(pickle.dumps(c))
    assert after._hash == h and after == c and after is not c
    assert hash(before) == hash(after) == hash(twin) == h and twin._hash == h


def test_cnc_vertices_are_polytope_vertices():
    for c in rng.sample(cnc_vertices(2), 24):
        op = c.operator()
        cert = membership(op)
        assert cert.is_member
        assert is_vertex(op, cert)[0]


def test_n3_cnc_vertices_are_polytope_vertices():
    # one seeded (maximal cnc set, consistent assignment) pair per size class
    gen, shapes = random.Random(3), maximal_cnc_sets(3)
    for size in (8, 12, 16):
        omega = gen.choice([o for o in shapes if len(o) == size])
        c = CncSet(omega, gen.choice(consistent_assignments(omega)))
        op = c.operator()
        cert = membership(op)
        assert cert.is_member
        assert is_vertex(op, cert) == (True, 63)
        for a in all_points(3, include_zero=False):
            for s in (0, 1):
                total = QOperator.zero(3)
                for w, piece in c.measure_update(a, s):
                    total = total + piece.operator().scale(w)
                assert total == op.project(a, s)


def test_update_deterministic_branch():
    I, s = enumerate_stabilizer_states(2)[3]
    c = CncSet.from_assignment(s)
    a = I.basis_points()[0]
    good = c.measure_update(a, s.value(a))
    assert len(good) == 1 and good[0][0] == 1 and good[0][1] == c
    assert c.measure_update(a, 1 ^ s.value(a)) == []


def test_update_shrinks_nonisotropic():
    # measuring inside the full single-qubit set keeps only the commutant
    # E_1 (key order I, X, Z, Y) with the sign of Y flipped
    c = CncSet(all_points(1), dict(zip(all_points(1), (0, 0, 0, 1))))
    x = x_point(1, 1)
    pieces = c.measure_update(x, 0)
    assert len(pieces) == 1
    w, piece = pieces[0]
    assert w == 1 and piece.omega == {PauliPoint.zero(1), x}
    assert piece.operator() == c.operator().project(x, 0)
    assert c.measure_update(x, 1) == []


def test_update_isotropic_extension():
    I, s = enumerate_stabilizer_states(2)[3]
    c = CncSet.from_assignment(s)
    outside = next(p for p in all_points(2, include_zero=False) if not I.contains(p))
    for out in (0, 1):
        pieces = c.measure_update(outside, out)
        assert len(pieces) == 1 and pieces[0][0] == Fraction(1, 2)
        piece = pieces[0][1]
        assert outside in piece.omega and piece.gamma[outside] == out
        got = piece.operator().scale(Fraction(1, 2))
        assert got == c.operator().project(outside, out)


def test_update_oracle_sweep_sampled():
    stabilizers3 = rng.sample(enumerate_stabilizer_states(3), 8)
    cases = rng.sample(cnc_vertices(2), 10) + cnc_vertices(1)
    cases += [CncSet.from_assignment(s) for _, s in stabilizers3]
    for c in cases:
        pts = all_points(c.n, include_zero=False)
        for a in rng.sample(pts, min(6, len(pts))):
            for s in (0, 1):
                total = QOperator.zero(c.n)
                for w, piece in c.measure_update(a, s):
                    total = total + piece.operator().scale(w)
                assert total == c.operator().project(a, s)


def test_update_weight_normalization():
    I, s = enumerate_stabilizer_states(2)[7]
    c = CncSet.from_assignment(s)
    for a in all_points(2, include_zero=False):
        total = Fraction(0)
        for out in (0, 1):
            total += sum((w for w, _ in c.measure_update(a, out)), Fraction(0))
        assert total == 1


def test_consistent_assignment_counts():
    assert len(consistent_assignments(all_points(1))) == 8
    perp = span([y_point(2, 2)]).perp()
    assert len(consistent_assignments(perp.points())) == 16
    pent = maximal_cnc_sets(2)[15]
    assert len(pent) == 6 and len(consistent_assignments(pent)) == 32
    assert consistent_assignments(PERES_MERMIN) == [] and not is_cnc(PERES_MERMIN)


def test_consistent_assignments_refuses_an_unclosed_set():
    # XI and IX commute, and their product XX is missing
    pts = [PauliPoint.from_label(lbl) for lbl in ("II", "XI", "IX")]
    with pytest.raises(ValueError, match="set is not closed under inference"):
        consistent_assignments(pts)
    assert not is_cnc(pts)


def test_json_round_trip():
    c = cnc_vertices(2)[100]
    assert CncSet.from_json(c.to_json()) == c


def test_from_json_refuses_labels_naming_one_point():
    # labels are read with surrounding whitespace stripped
    for doc, first, second in (
        ({"omega": ["I", "X"], "gamma": {"I": 0, "X": 1, " X": 0}}, "X", " X"),
        ({"omega": ["I", "X", "X "], "gamma": {"I": 0, "X": 1}}, "X", "X "),
    ):
        with pytest.raises(ValueError) as err:
            CncSet.from_json(doc)
        assert str(err.value) == f"Pauli labels {first!r} and {second!r} name the same point"


# A point-level oracle for CncSet's checks, from the one-qubit Pauli
# product table: T_v is the tensor product of I, X, Z, Y = iXZ per qubit.
_PRODUCT_PHASE = {("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1,
                  ("Y", "X"): 3, ("Z", "Y"): 3, ("X", "Z"): 3}


def _oracle_phase(v, w):
    """k with T_v T_w = i^k T_{v+w}, qubit by qubit."""
    return sum(_PRODUCT_PHASE.get(pair, 0) for pair in zip(v.label(), w.label())) % 4


def _oracle_refusal(omega, gamma):
    """The message CncSet(omega, gamma) must raise, or None to accept."""
    widths = sorted({p.n for p in omega})
    if len(widths) > 1:
        return f"qubit count mismatch: points on {' and '.join(map(str, widths))} qubits"
    if gamma.get(PauliPoint.zero(widths[0])) != 0:
        return "a cnc set contains 0 with value 0"
    refusal = None
    for u, v in combinations(omega, 2):
        k = _oracle_phase(u, v)
        if k % 2:  # anticommuting
            continue
        if u ^ v not in gamma:
            return "set is not closed under inference"
        if gamma[u ^ v] != gamma[u] ^ gamma[v] ^ k // 2:
            refusal = "value assignment is inconsistent"
    return refusal


def _mutations(c, gen):
    """One gamma bit flipped, one point dropped, and one point of another
    width added, from the cnc set c."""
    gamma = dict(c.gamma)
    p = gen.choice(sorted(gamma, key=lambda q: q.key()))
    yield {**gamma, p: gamma[p] ^ 1}
    yield {q: b for q, b in gamma.items() if q != p}
    other = PauliPoint.from_key(c.n + 1 if c.n < 3 else 1, gen.randrange(1, 4))
    yield {**gamma, other: gen.randint(0, 1)}


def test_validation_matches_a_point_level_oracle():
    gen = random.Random(26)
    cases = gen.sample(cnc_vertices(2), 40) + cnc_vertices(1)
    cases += [CncSet.from_assignment(s) for _, s in gen.sample(enumerate_stabilizer_states(3), 6)]
    outcomes = set()
    for c in cases:
        assert _oracle_refusal(list(c.gamma), c.gamma) is None
        for gamma in _mutations(c, gen):
            expected = _oracle_refusal(list(gamma), gamma)
            outcomes.add(expected and expected.split(":")[0])
            if expected is None:
                assert CncSet(gamma, gamma).gamma == gamma
            else:
                with pytest.raises(ValueError) as err:
                    CncSet(gamma, gamma)
                assert str(err.value) == expected
    assert len(outcomes) == 5  # accepted, and each of the four refusals


def test_mixed_widths_refused_with_one_message():
    """The CLI descriptor omega ["II", "Z"]: whichever point a frozenset
    yields first, the diagnostic names the two widths."""
    ii, z = PauliPoint.from_label("II"), PauliPoint.from_label("Z")
    for omega in ([ii, z], [z, ii]):
        for fn in (lambda: CncSet(omega, {ii: 0, z: 0}), lambda: is_closed(omega),
                   lambda: consistent_assignments(omega), lambda: is_maximal_cnc(omega)):
            with pytest.raises(ValueError, match=r"^qubit count mismatch: points on 1 and 2 qubits$"):
                fn()


# -- brute-force oracle for maximality ----------------------------------------


def closure_under_inference(points):
    """Smallest superset closed under v, w commuting -> v + w, with 0 added.

    This is a closure operator: monotone, extensive, idempotent.
    """
    pts = set(points)
    if not pts:
        raise ValueError("closure of an empty set is undefined")
    n = point_width(pts)
    keys = {p.key() for p in pts} | {0}
    frontier = list(keys)
    while frontier:
        v = frontier.pop()
        new = [v ^ w for w in keys if not key_form(v, w, n) and v ^ w not in keys]
        keys.update(new)
        frontier += new
    return frozenset(PauliPoint.from_key(n, k) for k in keys)


def _extension_search_maximal(omega):
    """cnc with no strict cnc superset: no point outside has a cnc closure
    with omega."""
    pts = set(omega)
    if not is_cnc(pts):
        return False
    return not any(
        is_cnc(closure_under_inference(pts | {p}))
        for p in all_points(point_width(pts), include_zero=False)
        if p not in pts
    )


def test_closure_under_inference_examples():
    zero = PauliPoint.zero(1)
    x, z = x_point(1, 1), z_point(1, 1)
    assert closure_under_inference({zero, x}) == {zero, x}
    assert closure_under_inference({zero, x, z}) == {zero, x, z}
    omega = {PauliPoint.zero(2)} | {
        f(2, q) for f in (x_point, y_point, z_point) for q in (1, 2)
    }
    a = x_point(2, 1) ^ x_point(2, 2)
    commuting = {v for v in omega if symplectic_form(v, a) == 0}
    assert a in closure_under_inference(commuting)


@given(st.sets(st.builds(lambda k: PauliPoint.from_key(2, k), st.integers(0, 15)),
               min_size=1, max_size=5))
def test_closure_operator_laws(pts):
    closed = closure_under_inference(pts)
    assert pts <= closed  # extensive
    assert closure_under_inference(closed) == closed  # idempotent
    bigger = closure_under_inference(pts | {PauliPoint.zero(2)})
    assert bigger == closed
    # monotone
    sub = set(list(pts)[:2])
    if sub:
        assert closure_under_inference(sub) <= closed


def test_maximality_matches_extension_search_n_le_2():
    for n in (1, 2):
        for omega in maximal_cnc_sets(n):
            assert is_maximal_cnc(omega) and _extension_search_maximal(omega)
    gen = random.Random(5)
    seen = Counter()
    for _ in range(120):
        n = gen.choice((1, 2))
        pts = gen.sample(all_points(n, include_zero=False), gen.randint(1, 4 * n - 1))
        omega = closure_under_inference(pts)
        want = _extension_search_maximal(omega)
        assert is_maximal_cnc(omega) == want
        assert is_cnc(omega) == bool(consistent_assignments(omega))
        seen[is_cnc(omega), want] += 1
    # maximal, non-maximal cnc and contextual closures all occur
    assert min(seen[True, True], seen[True, False], seen[False, False]) > 5


def test_maximality_matches_extension_search_n3():
    gen = random.Random(7)
    shapes = maximal_cnc_sets(3)
    for size in (8, 12, 16):
        for omega in gen.sample([o for o in shapes if len(o) == size], 2):
            assert is_maximal_cnc(omega) and _extension_search_maximal(omega)
    for I, _ in gen.sample(enumerate_stabilizer_states(3), 2):
        pts = list(I.points())
        assert not is_maximal_cnc(pts) and not _extension_search_maximal(pts)
