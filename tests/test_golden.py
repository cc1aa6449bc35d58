"""Golden digests of outputs that depend on elimination order.

Free-variable order decides which solution of a sign system comes first
and which witness tableau a symplectic completion picks, so a change to
the linear algebra can reorder or replace outputs while every property
test still passes.  These digests pin the exact outputs.  Run this file
as a script to print the current digests.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lambda_forge.clifford import enumerate_action
from lambda_forge.cnc import cnc_vertices
from lambda_forge.gf2 import enumerate_maximal_isotropics, span
from lambda_forge.lifting import make_params
from lambda_forge.orbit import enumerate_family
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import enumerate_vertices_n1, extremality_refuter
from lambda_forge.reduction import embed_tail_assignment
from lambda_forge.stabilizer import enumerate_stabilizer_states, stabilizer_projector


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def cnc_vertex_list():
    return [[c.to_json() for c in cnc_vertices(n)] for n in (1, 2)]


def family_keys():
    return [v.operator().key() for v in enumerate_family()]


def clifford_inverses():
    group2 = enumerate_action(2)
    chosen = random.Random(2024).sample(group2, 64)
    return [t.invert().to_json() for t in list(enumerate_action(1)) + chosen]


def lift_tableaux():
    out = []
    for _, s in enumerate_stabilizer_states(2):
        r = embed_tail_assignment(s, 3, 1)
        out.append(make_params(3, r.subspace, r).tableau.to_json())
    return out


def polytope_n1_and_refuters():
    vertices = [v.to_json() for v in enumerate_vertices_n1()]
    states1 = enumerate_stabilizer_states(1)
    states2 = enumerate_stabilizer_states(2)
    others = [
        QOperator.maximally_mixed(1),
        QOperator.from_labels(1, {"I": 1, "X": 1, "Z": 1}),
        QOperator.from_labels(1, {"I": 1, "X": 1, "Y": Fraction(-1, 2)}),
        stabilizer_projector(*states1[0]),
        stabilizer_projector(*states2[5]),
        stabilizer_projector(*states2[37]),
    ]
    refuters = []
    for X in others:
        Y = extremality_refuter(X)
        refuters.append(None if Y is None else Y.to_json())
    return [vertices, refuters]


def perps_n3():
    out = []
    for I in enumerate_maximal_isotropics(3):
        out.append([I.perp().rows, span(I.basis_points()[:1]).perp().rows])
    return out


BUILDERS = {
    "cnc_vertices": cnc_vertex_list,
    "family_keys": family_keys,
    "clifford_inverses": clifford_inverses,
    "lift_tableaux": lift_tableaux,
    "polytope_n1": polytope_n1_and_refuters,
    "perp_n3": perps_n3,
}

GOLDEN = {
    "cnc_vertices": "7c276927b641a823b4ce63ff288f7348a7bc12b5ca6c90fdce3f61c1e0c11269",
    "family_keys": "74af6fc8de732e08910f036525118add476ebd9b343abb520796dde9d59d6c2f",
    "clifford_inverses": "84984529105df9127be3e15c2e1671461b9c37e9b4b699bac07570e8574ca7f0",
    "lift_tableaux": "101f5dc9ecff800ccc960cb1908d89795d36f8971fca42cc4451fb40674c00ec",
    "polytope_n1": "4fb4777b88da46d1e89c8839c1030d26df75c34d347dd752f8b1373e84752196",
    "perp_n3": "5be1bf5db5a6fe3435da588bb3b50c9e9b2a844cb94d430d44458ea8f4e7e488",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_golden_digest(name):
    assert _digest(BUILDERS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(BUILDERS):
        print(f'    "{name}": "{_digest(BUILDERS[name]())}",')
