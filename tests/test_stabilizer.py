import random

import numpy as np
import pytest

from lambda_forge.field import ONE
from lambda_forge.gf2 import (
    Subspace,
    span,
    x_point,
    z_point,
)
from lambda_forge.pauli import QOperator, beta
from lambda_forge.stabilizer import (
    Assignment,
    all_assignments,
    enumerate_stabilizer_states,
    state_from_json,
    state_to_json,
    stabilizer_projector,
)
from helpers import dense_matrix, operator_product

rng = random.Random(1)


def test_state_counts():
    assert len(enumerate_stabilizer_states(1)) == 6
    assert len(enumerate_stabilizer_states(2)) == 60
    assert len(enumerate_stabilizer_states(3)) == 1080


def test_projectors_idempotent_unit_trace():
    for I, s in enumerate_stabilizer_states(2):
        P = stabilizer_projector(I, s)
        assert operator_product(P, P) == P
        assert P.trace() == ONE


def test_projectors_distinct():
    keys = {stabilizer_projector(I, s).key() for I, s in enumerate_stabilizer_states(2)}
    assert len(keys) == 60


def test_dense_ranks():
    # trivial subspace: identity
    assert stabilizer_projector(span([], n=2), []) == QOperator.identity(2)
    # <z1> at n=1 with sign 0: |0><0|
    P = stabilizer_projector(span([z_point(1, 1)]), [0])
    assert np.allclose(dense_matrix(P), [[1, 0], [0, 0]])
    # maximal at n=2: rank 1
    I, s = enumerate_stabilizer_states(2)[17]
    assert np.linalg.matrix_rank(dense_matrix(stabilizer_projector(I, s))) == 1
    # one-dimensional at n=2: rank 2
    J = span([x_point(2, 1)])
    P = stabilizer_projector(J, [1])
    assert np.linalg.matrix_rank(dense_matrix(P)) == 2


def test_assignment_consistency_by_construction():
    for I, s in rng.sample(enumerate_stabilizer_states(2), 12):
        pts = list(I.points())
        for v in pts:
            for w in pts:
                assert s.value(v ^ w) == (s.value(v) + s.value(w) + beta(v, w)) % 2


def test_assignment_from_pairs_conflict():
    zz = z_point(2, 1) ^ z_point(2, 2)
    xx = x_point(2, 1) ^ x_point(2, 2)
    yy = zz ^ xx
    # consistent: s(yy) = s(zz) + s(xx) + beta = 0 + 0 + 1
    asg = Assignment.from_pairs([(zz, 0), (xx, 0)])
    assert asg.value(yy) == 1
    with pytest.raises(ValueError):
        Assignment.from_pairs([(zz, 0), (xx, 0), (yy, 0)])


def test_assignment_values_must_be_bits():
    z = z_point(1, 1)
    for bad in (2, 3, -1, True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            Assignment.from_pairs([(z, bad)])
        with pytest.raises(ValueError):
            Assignment(Subspace(1, (2,)), [bad])
    assert Assignment(Subspace(1, (2,)), [1]) == Assignment.from_pairs([(z, 1)])


def test_inconsistent_projector_rejected():
    I = span([z_point(2, 1), z_point(2, 2)])
    with pytest.raises(ValueError):
        stabilizer_projector(I, Assignment.zero(span([z_point(2, 1)])))


def test_json_and_labels():
    I, s = enumerate_stabilizer_states(2)[41]
    assert state_from_json(state_to_json(I, s)) == (I, s)
    assert len(state_to_json(I, s)["generators"]) == 2
    # unicode minus accepted
    obj = {"generators": ["−ZI", "+IZ"]}
    I2, s2 = state_from_json(obj)
    assert s2.value(z_point(2, 1)) == 1
    # a generator list of signed Hermitian labels, and nothing else
    for obj in ("x", ["+Z"], {}, {"generators": None}, {"generators": "Z"},
                {"generators": [5]}, {"generators": ["+iZ"]}):
        with pytest.raises(ValueError):
            state_from_json(obj)


def test_all_assignments_count():
    I = span([z_point(2, 1), z_point(2, 2)])
    assert len(list(all_assignments(I))) == 4
