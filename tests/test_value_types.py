"""Every value type of the package is declared with ``field.value_type``:
setting or deleting any name raises AttributeError, and a pickle round
trip gives back an equal value with an equal hash."""

import dataclasses
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import lambda_forge
from lambda_forge.clifford import CliffordTableau
from lambda_forge.cnc import cnc_vertices
from lambda_forge.field import FieldElem
from lambda_forge.gf2 import PauliPoint, span, x_point, z_point
from lambda_forge.lifting import make_params
from lambda_forge.orbit import alpha0_vertex, enumerate_family
from lambda_forge.pauli import PhasedPauli
from lambda_forge.polytope import FacetCertificate, _facet_data, membership
from lambda_forge.reduction import (
    CoinStep,
    FixedStep,
    MeasureStep,
    ReductionEngine,
    embed_tail_assignment,
)
from lambda_forge.simulate import LiftState, MemberState
from lambda_forge.stabilizer import Assignment


def _engine():
    tail = Assignment.from_pairs([(z_point(1, 1), 1)])
    return ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1), CliffordTableau.cnot(2, 1, 2))


def _values():
    J = span([z_point(2, 2)], 2)
    return [
        PauliPoint.from_label("XZ"),
        J,
        Assignment(J, (1,)),
        PhasedPauli.from_label("-iXY"),
        CliffordTableau.cnot(2, 1, 2),
        FieldElem(Fraction(1, 3), 2),
        alpha0_vertex(),
        cnc_vertices(2)[5],
        _engine(),
        FixedStep(1),
        MeasureStep(x_point(1, 1), 0),
        CoinStep(PauliPoint.from_label("XX").key(), 1),
        LiftState(_engine(), cnc_vertices(1)[3]),
        make_params(2, J, Assignment(J, (1,))),
        enumerate_family()[7],
        membership(alpha0_vertex()),
        MemberState(alpha0_vertex()),
        _facet_data(1),
    ]


VALUES = _values()


def test_every_value_type_is_covered():
    package = Path(lambda_forge.__file__).parent
    declared = {
        cls for path in package.glob("[!_]*.py")
        for cls in vars(importlib.import_module(f"lambda_forge.{path.stem}")).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__.startswith("lambda_forge.")
    }
    assert {type(x) for x in VALUES} == declared and len(VALUES) == 18


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_value_types_are_immutable_and_pickle_by_value(x):
    hash_before = hash(x)
    json_before = x.to_json() if isinstance(x, FacetCertificate) else None
    field = dataclasses.fields(x)[0].name
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^{type(x).__name__} is immutable$"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match=f"^{type(x).__name__} is immutable$"):
            delattr(x, name)
    getattr(x, field)  # the field is still there
    assert hash(x) == hash_before
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is type(x) and back is not x
    if isinstance(x, FacetCertificate):
        # eq=False: a certificate is equal only to itself, so compare its document
        assert back.to_json() == json_before
    else:
        assert back == x and hash(back) == hash_before
