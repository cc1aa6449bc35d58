"""Public refusals that no other test reaches: each input below is one a
caller can pass, and each is refused with its own message, as a
ValueError unless its case names another type."""

import re
from fractions import Fraction

import pytest

from lambda_forge.clifford import CliffordTableau
from lambda_forge.gf2 import span, x_point, z_point
from lambda_forge.lifting import LiftParams, make_params
from lambda_forge.orbit import ALPHA0_TABLE, OrbitVertex, classify_operator
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import decompose
from lambda_forge.simulate import MemberState, steps_from_json
from lambda_forge.stabilizer import Assignment

Z1 = span([z_point(1, 1)])
TAIL3 = span([z_point(3, 3)])

REFUSALS = {
    "a step condition that is not an object":
        (lambda: steps_from_json([{"measure": "X", "if": [0]}], 1),
         "a step condition must be an object"),
    "a pool operator of the wrong width":
        (lambda: decompose(QOperator.from_labels(1, {"I": 1}),
                           [QOperator.from_labels(2, {"II": 1})]),
         "pool operator qubit count mismatch"),
    "a family operator on one qubit":
        (lambda: classify_operator(QOperator.from_labels(1, {"I": 1})),
         "the family lives on two qubits"),
    "a family coefficient of 1/3":
        (lambda: classify_operator(QOperator.from_labels(2, {"II": 1, "XI": Fraction(1, 3)})),
         "coefficient outside {0, +-1/2, +-1}"),
    "a family operator with one gamma' sign flipped":
        (lambda: classify_operator(QOperator.from_labels(2, dict(ALPHA0_TABLE, YI=Fraction(1, 2)))),
         "gamma' violates the sign rules"),
    "an assignment with a value too many":
        (lambda: Assignment(Z1, (0, 1)), "need one value per basis row"),
    "an assignment on a non-isotropic subspace":
        (lambda: Assignment(span([x_point(1, 1), z_point(1, 1)]), (0, 0)),
         "assignments live on isotropic subspaces"),
    "a tableau with one image for one qubit":
        (lambda: CliffordTableau(1, [(x_point(1, 1), 0)]), "need images for x_1..x_n, z_1..z_n"),
    "a cnot whose control is its target":
        (lambda: CliffordTableau.cnot(2, 1, 1), "control and target must differ"),
    "a gate on qubit 3 of 2":
        (lambda: CliffordTableau.hadamard(2, 3), "qubit 3 is outside 1..2"),
    "a lift with no head qubit":
        (lambda: make_params(1, Z1, Assignment.zero(Z1)),
         "the lift must leave at least one head qubit"),
    "lift parameters whose subspace has the wrong dimension":
        (lambda: LiftParams(3, 1, TAIL3, Assignment.zero(TAIL3), CliffordTableau.identity(3)),
         "lift subspace dimension must be n - m"),
    "a span of no points and no qubit count":
        (lambda: span([]), "cannot infer qubit count from an empty span"),
    "a span of one-qubit points on two qubits":
        (lambda: span([x_point(1, 1)], 2), "qubit count mismatch in span"),
    "a span of points of two widths":
        (lambda: span([x_point(1, 1), x_point(2, 1)]),
         "qubit count mismatch: points on 1 and 2 qubits"),
    "a family member built from no parameters":
        (lambda: OrbitVertex(),
         "an OrbitVertex is made by enumerate_family, classify_operator or OrbitVertex.build",
         TypeError),
    "a member state of an int":
        (lambda: MemberState(5), "a member state holds a QOperator, got int"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_public_inputs_are_refused_with_their_message(case):
    call, message, *error = REFUSALS[case]
    with pytest.raises(error[0] if error else ValueError, match=f"^{re.escape(message)}$"):
        call()
