import random
from fractions import Fraction

import pytest

from lambda_forge.cnc import is_cnc
from lambda_forge.field import FieldElem, ONE, ZERO
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    enumerate_maximal_isotropics,
    span,
    x_point,
    z_point,
)
from lambda_forge.lifting import (
    LiftParams,
    averaged_head_operator,
    lift,
    lift_tensor,
    make_params,
    tail_overlap,
    tail_subspace,
    unlift,
)
from lambda_forge.orbit import enumerate_family
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import enumerate_vertices_n1, is_vertex, membership
from lambda_forge.reduction import embed_tail_assignment
from lambda_forge.stabilizer import (
    Assignment,
    all_assignments,
    enumerate_stabilizer_states,
    stabilizer_projector,
)
from helpers import averaged_trace_identity, maximally_mixed, support

rng = random.Random(21)

A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
J_TAIL = tail_subspace(2, 1)


def rand_herm1(m=1):
    coeffs = {PauliPoint.zero(m): ONE}
    for p in all_points(m, include_zero=False):
        coeffs[p] = FieldElem(Fraction(rng.randint(-8, 8), 4))
    return QOperator(m, coeffs)


def test_tensor_lift_example():
    L = lift_tensor(A0, J_TAIL, Assignment.zero(J_TAIL))
    want = QOperator.from_labels(
        2, {"II": 1, "XI": 1, "YI": 1, "ZI": 1, "IX": 1, "XX": 1, "YX": 1, "ZX": 1}
    )
    assert L == want
    # support stays inside head + tail span
    for p in L.coeffs:
        assert J_TAIL.contains(PauliPoint(2, p.z & 0b10, p.x & 0b10))


def test_tensor_lift_is_tensor():
    r = Assignment(J_TAIL, [1])
    L = lift_tensor(A0, J_TAIL, r)
    assert L == A0.tensor(stabilizer_projector(span([x_point(1, 1)]), [1]))
    mixed = lift_tensor(maximally_mixed(1), J_TAIL, r)
    assert mixed == maximally_mixed(1).tensor(
        stabilizer_projector(span([x_point(1, 1)]), [1])
    )


def test_tail_position_required():
    head = span([x_point(2, 1)])
    with pytest.raises(ValueError):
        lift_tensor(A0, head, Assignment.zero(head))


def test_closed_form_overlap_exhaustive():
    states = enumerate_stabilizer_states(2)
    for _ in range(5):
        X = rand_herm1()
        for rbit in (0, 1):
            r = Assignment(J_TAIL, [rbit])
            L = lift_tensor(X, J_TAIL, r)
            for I, s in states:
                assert tail_overlap(X, J_TAIL, r, I, s) == L.trace_inner(
                    stabilizer_projector(I, s)
                )


def test_closed_form_overlap_three_qubits():
    states3 = enumerate_stabilizer_states(3)
    for m in (1, 2):
        tails = enumerate_stabilizer_states(3 - m)
        for _ in range(2):
            X = rand_herm1(m)
            r = embed_tail_assignment(rng.choice(tails)[1], 3, m)
            J = r.subspace
            L = lift_tensor(X, J, r)
            for I, s in states3:
                assert tail_overlap(X, J, r, I, s) == L.trace_inner(stabilizer_projector(I, s))
        I, s = states3[0]
        with pytest.raises(ValueError):
            tail_overlap(rand_herm1(3 - m), J, r, I, s)
        with pytest.raises(ValueError):
            tail_overlap(X, J, r, states3[-1][0], s)


def test_closed_form_delta_factor():
    X = rand_herm1()
    r = Assignment(J_TAIL, [0])
    # choose I containing the tail generator with conflicting sign
    x2 = x_point(2, 2)
    I = span([x2, x_point(2, 1)])
    s = Assignment.from_pairs([(x2, 1), (x_point(2, 1), 0)])
    assert tail_overlap(X, J_TAIL, r, I, s) == ZERO


def test_closed_form_aligned_case():
    for Ip in enumerate_maximal_isotropics(1):
        for sp in all_assignments(Ip):
            for rbit in (0, 1):
                r = Assignment(J_TAIL, [rbit])
                pairs = [(PauliPoint(2, p.z, p.x), sp.value(p)) for p in Ip.points()]
                pairs += [(u, r.value(u)) for u in J_TAIL.points()]
                joint = Assignment.from_pairs(pairs, 2)
                X = rand_herm1()
                assert tail_overlap(X, J_TAIL, r, joint.subspace, joint) == X.trace_inner(
                    stabilizer_projector(Ip, sp)
                )


def test_membership_preserved():
    r = Assignment(J_TAIL, [0])
    for X in enumerate_vertices_n1():
        assert membership(lift_tensor(X, J_TAIL, r)).is_member


def test_averaged_trace_identity():
    for _ in range(10):
        coeffs = {
            p: FieldElem(Fraction(rng.randint(-8, 8), 4))
            for p in all_points(2, include_zero=False)
        }
        Y = QOperator(2, coeffs)
        for rbit in (0, 1):
            r = Assignment(J_TAIL, [rbit])
            for Ip in enumerate_maximal_isotropics(1):
                for sp in all_assignments(Ip):
                    lhs, rhs = averaged_trace_identity(Y, J_TAIL, r, Ip, sp)
                    assert lhs == rhs


def test_averaged_identity_single_tail_point():
    # Y supported on the tail subspace itself exercises the averaged
    # 0-coefficient; both sides equal +-1/4 here.
    Y = QOperator(2, {x_point(2, 2): ONE})
    r = Assignment(J_TAIL, [1])
    tilde = averaged_head_operator(Y, J_TAIL, r)
    assert tilde.trace() == FieldElem(Fraction(-1, 2))
    Ip = span([z_point(1, 1)])
    lhs, rhs = averaged_trace_identity(Y, J_TAIL, r, Ip, Assignment.zero(Ip))
    assert lhs == rhs == FieldElem(Fraction(-1, 4))


def test_averaged_zero_operator():
    r = Assignment(J_TAIL, [0])
    lhs, rhs = averaged_trace_identity(
        QOperator.zero(2), J_TAIL, r, span([z_point(1, 1)]), Assignment.zero(span([z_point(1, 1)]))
    )
    assert lhs == rhs == ZERO


def test_general_lift_round_trip():
    J = span([z_point(2, 2) ^ x_point(2, 1)])
    r = Assignment(J, [1])
    params = make_params(2, J, r)
    for X in enumerate_vertices_n1():
        L = lift(X, params)
        assert unlift(L, params) == X
        cert = membership(L)
        assert cert.is_member and is_vertex(L, cert)[0]
        assert is_cnc(support(L))
    assert unlift(lift(maximally_mixed(1), params), params) == maximally_mixed(1)


def test_lifted_family_members_stay_vertices_at_n4():
    # paper result (i) at n = 4, m = 2: a seeded tail J (two rows of a
    # maximal isotropic) with seeded signs r; the GF(3) pass certifies
    # the full rank 4^4 - 1 = 255
    rng = random.Random(4)
    isotropics = enumerate_maximal_isotropics(4)
    for v in rng.sample(enumerate_family(), 3):
        X = v.operator()
        J = span(rng.choice(isotropics).basis_points()[:2])
        params = make_params(4, J, Assignment(J, [rng.randint(0, 1) for _ in range(2)]))
        L = lift(X, params)
        cert = membership(L)
        assert cert.is_member
        assert is_vertex(L, cert) == (True, 255)
        assert unlift(L, params) == X


def test_lift_identity_tableau_reduces_to_tensor():
    from lambda_forge.clifford import CliffordTableau

    params = LiftParams(2, 1, J_TAIL, Assignment.zero(J_TAIL), CliffordTableau.identity(2))
    X = enumerate_vertices_n1()[2]
    assert lift(X, params) == lift_tensor(X, J_TAIL, Assignment.zero(J_TAIL))


def test_lift_params_validation():
    from lambda_forge.clifford import CliffordTableau

    with pytest.raises(ValueError):
        LiftParams(2, 1, span([z_point(2, 2)]), Assignment.from_pairs([(z_point(2, 2), 1)]),
                   CliffordTableau.identity(2))


def test_unlift_rejects_outsiders():
    J = span([x_point(2, 2)])
    params = make_params(2, J, Assignment.zero(J))
    with pytest.raises(ValueError):
        unlift(QOperator.from_labels(2, {"II": 1, "ZZ": Fraction(1, 2)}), params)


def test_cnc_biconditional():
    # cnc input -> cnc image with the convolved assignment; non-cnc
    # support cannot appear in the image of a cnc operator
    r = Assignment(J_TAIL, [0])
    X = A0
    L = lift_tensor(X, J_TAIL, r)
    assert is_cnc(support(L))
    back = {p for p in support(L) if PauliPoint(1, p.z >> 1, p.x >> 1).is_zero()}
    assert {PauliPoint(1, p.z & 1, p.x & 1) for p in back} == set(all_points(1))


def test_tensor_without_stabilizer_tail_can_exit():
    # the stabilizer-tail condition is not vacuous
    assert not membership(A0.tensor(A0)).is_member
