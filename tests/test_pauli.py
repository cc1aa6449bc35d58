import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_forge.field import FieldElem, ONE
from lambda_forge.gf2 import PauliPoint, all_points, symplectic_form, x_point, y_point, z_point
from lambda_forge.pauli import (
    PhasedPauli,
    QOperator,
    beta,
    pauli_matrix,
    pauli_mul,
    pauli_projector,
    product_phase,
)

rng = random.Random(0)


def rand_op(n, terms=6, sqrt2=False):
    pts = all_points(n)
    chosen = rng.sample(pts, min(terms, len(pts)))
    coeffs = {}
    for p in chosen:
        a = Fraction(rng.randint(-4, 4), 2)
        b = Fraction(rng.randint(-2, 2), 2) if sqrt2 else 0
        coeffs[p] = FieldElem(a, b)
    return QOperator(n, coeffs)


def test_phase_convention_anchors():
    x, y, z = x_point(1, 1), y_point(1, 1), z_point(1, 1)
    Y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(pauli_matrix(y), Y)
    # T_x T_z = -i T_y
    r = pauli_mul(PhasedPauli(x), PhasedPauli(z))
    assert r == PhasedPauli(y, 3)
    # tensor factorization at a double-overlap point
    yy = PauliPoint.from_label("YY")
    assert np.allclose(pauli_matrix(yy), np.kron(Y, Y))


def test_pauli_involution_and_commutation():
    for v in all_points(2):
        sq = pauli_mul(PhasedPauli(v), PhasedPauli(v))
        assert sq.point.is_zero() and sq.phase == 0
        for w in all_points(2):
            diff = (product_phase(v, w) - product_phase(w, v)) % 4
            assert diff == 2 * symplectic_form(v, w)


def test_pauli_mul_associative_exhaustive_n1():
    pts = all_points(1)
    for u, v, w in product(pts, repeat=3):
        lhs = pauli_mul(pauli_mul(PhasedPauli(u), PhasedPauli(v)), PhasedPauli(w))
        rhs = pauli_mul(PhasedPauli(u), pauli_mul(PhasedPauli(v), PhasedPauli(w)))
        assert lhs == rhs


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_pauli_mul_associative_n3(a, b, c):
    u, v, w = (PauliPoint.from_key(3, k) for k in (a, b, c))
    lhs = pauli_mul(pauli_mul(PhasedPauli(u), PhasedPauli(v)), PhasedPauli(w))
    rhs = pauli_mul(PhasedPauli(u), pauli_mul(PhasedPauli(v), PhasedPauli(w)))
    assert lhs == rhs


def test_beta_properties():
    zero = PauliPoint.zero(2)
    for v in all_points(2):
        assert beta(v, zero) == 0
    assert beta(x_point(2, 1), x_point(2, 2)) == 0
    with pytest.raises(ValueError):
        beta(x_point(1, 1), z_point(1, 1))
    pts = all_points(2)
    for v in pts:
        for w in pts:
            if symplectic_form(v, w) == 0:
                assert beta(v, w) == beta(w, v)


def test_beta_cocycle():
    pts = all_points(2)
    checked = 0
    for u, v, w in product(pts, repeat=3):
        if (
            symplectic_form(u, v)
            or symplectic_form(u, w)
            or symplectic_form(v, w)
        ):
            continue
        lhs = (beta(u, v) + beta(u ^ v, w)) % 2
        rhs = (beta(v, w) + beta(u, v ^ w)) % 2
        assert lhs == rhs
        checked += 1
    assert checked > 100


def test_identity_and_mixed():
    assert np.allclose(QOperator.identity(2).dense_matrix(), np.eye(4))
    A = rand_op(2)
    assert A.product(QOperator.identity(2)) == A
    assert QOperator.maximally_mixed(1).trace() == ONE


def test_product_dense_homomorphism():
    for _ in range(8):
        A, B = rand_op(2), rand_op(2, sqrt2=True)
        M = QOperator._complex_product(2, A._complex_coeffs(), B._complex_coeffs())
        dense = np.zeros((4, 4), dtype=complex)
        for p, (re, im) in M.items():
            dense += (float(re) + 1j * float(im)) * pauli_matrix(p)
        dense /= 4
        assert np.allclose(dense, A.dense_matrix() @ B.dense_matrix(), atol=1e-12)


def test_product_hermitian_coercion():
    p0 = pauli_projector(z_point(1, 1), 0)
    p1 = pauli_projector(z_point(1, 1), 1)
    assert p0.product(p1).is_zero()
    assert p0.product(p0) == p0
    with pytest.raises(ValueError):
        pauli_projector(z_point(1, 1), 0).product(pauli_projector(x_point(1, 1), 0))


def test_tensor():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    AA = A0.tensor(A0)
    assert len(AA.coeffs) == 16
    assert np.allclose(
        AA.dense_matrix(), np.kron(A0.dense_matrix(), A0.dense_matrix())
    )
    assert A0.tensor(QOperator.maximally_mixed(1)).coeffs == {
        PauliPoint(2, p.z, p.x): c for p, c in A0.coeffs.items()
    }


def test_trace_inner_properties():
    A, B, C = rand_op(2), rand_op(2), rand_op(2)
    assert A.trace_inner(B) == B.trace_inner(A)
    assert (A + B).trace_inner(C) == A.trace_inner(C) + B.trace_inner(C)
    assert A.trace_inner(QOperator.identity(2)) == A.trace()
    got = A.trace_inner(B)
    want = np.trace(A.dense_matrix() @ B.dense_matrix()).real
    assert abs(float(got) - want) < 1e-12


def test_bell_overlap_value():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    bell = QOperator.from_labels(2, {"II": 1, "ZZ": -1, "XX": -1, "YY": -1})
    value = A0.tensor(A0).trace_inner(bell)
    assert value == FieldElem(Fraction(-1, 2))
    dense = bell.dense_matrix()
    assert np.allclose(dense @ dense, dense)


def product_projection(A, a, s):
    """Pi A Pi by two complex-coefficient products: the independent oracle
    for the closed-form ``project`` (Pi A alone need not be Hermitian, so
    ``product`` cannot build it)."""
    proj = pauli_projector(a, s)._complex_coeffs()
    mid = QOperator._complex_product(A.n, proj, A._complex_coeffs())
    out = QOperator._complex_product(A.n, mid, proj)
    assert all(im.is_zero() for _, im in out.values())
    return QOperator(A.n, {p: re for p, (re, _) in out.items()})


def test_project_matches_dense_and_idempotent():
    for n, ops in ((1, 3), (2, 4), (3, 1)):
        for _ in range(ops):
            A = rand_op(n, terms=4 * n, sqrt2=True)
            for a in all_points(n, include_zero=False):
                for s in (0, 1):
                    P = A.project(a, s)
                    assert P == product_projection(A, a, s)
                    assert P == P.project(a, s)
                    Pd = pauli_projector(a, s).dense_matrix()
                    assert np.allclose(
                        P.dense_matrix(), Pd @ A.dense_matrix() @ Pd, atol=1e-12
                    )
    with pytest.raises(ValueError):
        rand_op(2).project(PauliPoint.zero(2), 0)


def test_dense_guard():
    with pytest.raises(ValueError):
        QOperator.maximally_mixed(6).dense_matrix()


def test_eigenvalues_of_qubit_vertex():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    eig = sorted(np.linalg.eigvalsh(A0.dense_matrix()))
    assert np.allclose(eig, [(1 - np.sqrt(3)) / 2, (1 + np.sqrt(3)) / 2])


def test_json_round_trip():
    A = rand_op(2, sqrt2=True)
    assert QOperator.from_json(A.to_json()) == A
    doc = {"n": 1, "coeffs": {"X": "1/2"}}
    assert QOperator.from_json(doc).coeff(x_point(1, 1)) == FieldElem(Fraction(1, 2))
    for bad in ({"n": 1, "coeffs": ["X"]}, {"n": None}, {"n": 1, "coeffs": {"X": None}}):
        with pytest.raises(ValueError):
            QOperator.from_json(bad)


def test_inexact_coefficients_rejected():
    # a binary float or a string is not stored as a coefficient
    for bad in (0.3, "1/2"):
        with pytest.raises(ValueError, match="ints and Fractions only"):
            QOperator.from_labels(1, {"I": 1, "X": bad})
        with pytest.raises(ValueError):
            QOperator(1, {x_point(1, 1): bad})
        with pytest.raises(ValueError):
            QOperator.identity(1).scale(bad)


def test_package_import_leaves_numpy_unloaded():
    code = "import sys, lambda_forge; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    ).stdout
    assert out.strip() == "False"
