import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_forge.clifford import enumerate_action, generator_tableaux
from lambda_forge.field import FieldElem, INV_SQRT2, ONE
from lambda_forge.gf2 import PauliPoint, span, x_point, y_point, z_point
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import (
    _int_rref,
    decompose,
    enumerate_vertices_n1,
    extremality_refuter,
    is_vertex,
    membership,
)
from lambda_forge.stabilizer import enumerate_stabilizer_states, stabilizer_projector

rng = random.Random(9)

A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
T_STATE = QOperator(
    1,
    {
        PauliPoint.zero(1): ONE,
        x_point(1, 1): INV_SQRT2,
        y_point(1, 1): INV_SQRT2,
    },
)


def test_interior_point():
    cert = membership(QOperator.maximally_mixed(2))
    assert cert.is_member and not cert.active and cert.violation is None
    ok, rank = is_vertex(QOperator.maximally_mixed(2), cert)
    assert not ok and rank == 0


def test_trace_precondition():
    with pytest.raises(ValueError):
        membership(QOperator.zero(1))


def test_single_qubit_vertex():
    cert = membership(A0)
    assert cert.is_member
    assert is_vertex(A0, cert) == (True, 3)


def test_tensor_square_violation():
    cert = membership(A0.tensor(A0))
    assert not cert.is_member
    assert cert.values[cert.violation] == FieldElem(Fraction(-1, 2))
    assert min(cert.values.values()) == FieldElem(Fraction(-1, 2))
    with pytest.raises(ValueError):
        is_vertex(A0.tensor(A0), cert)


def test_vertex_enumeration_n1():
    verts = enumerate_vertices_n1()
    assert len(verts) == 8
    want = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                want.add(
                    QOperator.from_labels(1, {"I": 1, "X": sx, "Y": sy, "Z": sz}).key()
                )
    assert {V.key() for V in verts} == want
    for V in verts:
        assert is_vertex(V)[0]


def test_density_matrices_are_members():
    # exactly representable pure states: stabilizer states and the magic state
    for I, s in enumerate_stabilizer_states(2):
        assert membership(stabilizer_projector(I, s)).is_member
    assert membership(T_STATE).is_member
    lifted = T_STATE.tensor(stabilizer_projector(span([z_point(1, 1)]), [0]))
    assert membership(lifted).is_member
    M = lifted.dense_matrix()
    assert np.allclose(M, M.conj().T) and np.allclose(np.trace(M), 1)
    assert np.linalg.eigvalsh(M).min() > -1e-12


def test_membership_clifford_covariant_exhaustive_n1():
    X = QOperator.from_labels(
        1, {"I": 1, "X": Fraction(3, 2), "Y": Fraction(-1, 2), "Z": 0}
    )
    base = membership(X).is_member
    for t in enumerate_action(1):
        assert membership(t.conjugate(X)).is_member == base


def test_vertex_clifford_invariant_sampled_n2():
    V = enumerate_vertices_n1()[0].tensor(
        stabilizer_projector(span([x_point(1, 1)]), [1])
    )
    assert is_vertex(V)[0]
    t = generator_tableaux(2)[0]
    for _ in range(5):
        t = rng.choice(generator_tableaux(2)).compose(t)
        out = t.conjugate(V)
        cert = membership(out)
        assert cert.is_member and is_vertex(out, cert)[0]


def test_stabilizer_projectors_not_vertices_n2():
    I, s = enumerate_stabilizer_states(2)[5]
    P = stabilizer_projector(I, s)
    ok, rank = is_vertex(P)
    assert not ok and rank < 15
    Y = extremality_refuter(P)
    assert Y is not None and not Y.coeffs.get(PauliPoint.zero(2))
    assert membership(P + Y).is_member and membership(P - Y).is_member


def test_extremality_refuter_none_for_vertex():
    assert extremality_refuter(A0) is None


def test_decompose_point_mass():
    verts = enumerate_vertices_n1()
    w = decompose(verts[3], verts)
    assert w == {3: ONE}


def test_decompose_maximally_mixed():
    verts = enumerate_vertices_n1()
    w = decompose(QOperator.maximally_mixed(1), verts)
    total = QOperator.zero(1)
    for i, wi in w.items():
        assert wi.sign() > 0
        total = total + verts[i].scale(wi)
    assert total == QOperator.maximally_mixed(1)


def test_decompose_magic_state():
    verts = enumerate_vertices_n1()
    w = decompose(T_STATE, verts)
    assert w is not None
    total = QOperator.zero(1)
    weight_sum = FieldElem(0)
    for i, wi in w.items():
        assert wi.sign() > 0
        weight_sum = weight_sum + wi
        total = total + verts[i].scale(wi)
    assert weight_sum == ONE
    assert total == T_STATE


def test_decompose_infeasible():
    verts = enumerate_vertices_n1()
    outside = QOperator.from_labels(1, {"I": 1, "X": 3})
    assert decompose(outside, verts) is None


def test_certificate_json():
    cert = membership(A0)
    doc = cert.to_json()
    assert doc["member"] is True
    assert set(doc["facet_values"]) == {k for k in cert.values}
    assert len(doc["facet_values"]) == 6


@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=6))
def test_int_rref_rank_matches_numpy(rows):
    reduced, pivots = _int_rref(rows, 5)
    want = int(np.linalg.matrix_rank(np.array(rows, dtype=float))) if rows else 0
    assert len(pivots) == len(reduced) == want
    assert pivots == sorted(pivots)
    for i, row in enumerate(reduced):
        assert [row[c] != 0 for c in pivots] == [j == i for j in range(len(pivots))]
