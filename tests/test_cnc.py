import random
from fractions import Fraction
from itertools import combinations

import pytest

from lambda_forge.cnc import (
    CncSet,
    anticommuting_sets,
    cnc_vertices,
    consistent_assignments,
    is_closed,
    is_cnc,
    is_maximal_cnc,
    line_perp_sets,
    maximal_cnc_sets,
)
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    span,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import is_vertex, membership
from lambda_forge.stabilizer import enumerate_stabilizer_states, stabilizer_projector

rng = random.Random(13)


def test_closure_examples():
    pts = [PauliPoint.zero(2), x_point(2, 1), z_point(2, 1), y_point(2, 1), x_point(2, 2)]
    assert not is_closed(pts)  # x1 and x2 commute but x1+x2 is missing
    assert is_closed(all_points(1))


def test_maximality():
    assert is_maximal_cnc(all_points(1))
    iso = span([z_point(2, 1), z_point(2, 2)])
    assert is_cnc(iso.points()) and not is_maximal_cnc(iso.points())
    assert is_maximal_cnc(span([x_point(2, 1)]).perp().points())
    with pytest.raises(ValueError):
        is_maximal_cnc([PauliPoint.zero(3), x_point(3, 1)])


def test_shape_counts():
    assert len(line_perp_sets()) == 15
    assert len(anticommuting_sets()) == 6
    assert len(maximal_cnc_sets(2)) == 21
    assert len(maximal_cnc_sets(1)) == 1
    for omega in anticommuting_sets():
        assert is_maximal_cnc(omega)


def test_cnc_vertex_counts():
    assert len(cnc_vertices(1)) == 8
    assert len(cnc_vertices(2)) == 15 * 16 + 6 * 32


def test_operator_examples():
    zero_set = CncSet([PauliPoint.zero(2)], {PauliPoint.zero(2): 0})
    assert zero_set.operator() == QOperator.maximally_mixed(2)
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


def test_cnc_vertices_are_polytope_vertices():
    for c in rng.sample(cnc_vertices(2), 24):
        op = c.operator()
        cert = membership(op)
        assert cert.is_member
        assert is_vertex(op, cert)[0]


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
    pent = anticommuting_sets()[0]
    assert len(consistent_assignments(pent)) == 32


def test_consistent_assignments_refuses_an_unclosed_set():
    # XI and IX commute, and their product XX is missing
    pts = [PauliPoint.from_label(lbl) for lbl in ("II", "XI", "IX")]
    with pytest.raises(ValueError, match="set is not closed under inference"):
        consistent_assignments(pts)
    assert not is_cnc(pts)


def test_json_round_trip():
    c = cnc_vertices(2)[100]
    assert CncSet.from_json(c.to_json()) == c


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
