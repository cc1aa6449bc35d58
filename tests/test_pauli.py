import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge.clifford import CliffordTableau
from lambda_forge.field import INV_SQRT2, SQRT2, FieldElem, ONE, ZERO
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    key_form,
    span,
    symplectic_form,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.pauli import (
    PhasedPauli,
    QOperator,
    beta,
    key_phase,
    pauli_projector,
    product_phase,
)
from lambda_forge.lifting import lift_tensor
from lambda_forge.stabilizer import Assignment, stabilizer_projector
from helpers import (
    complex_coeffs,
    complex_product,
    dense_matrix,
    maximally_mixed,
    operator_product,
    pauli_matrix,
    pauli_mul,
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


def test_key_phase_and_key_form_match_dense_products():
    # every key pair for n <= 2 and seeded pairs at n = 3, drawn from their
    # own Random so the module's shared rng is not moved
    draw = random.Random(25)
    pairs = [(n, a, b) for n in (1, 2) for a in range(1 << 2 * n) for b in range(1 << 2 * n)]
    pairs += [(3, draw.randrange(64), draw.randrange(64)) for _ in range(200)]
    for n, a, b in pairs:
        v, w = PauliPoint.from_key(n, a), PauliPoint.from_key(n, b)
        vw, wv = pauli_matrix(v) @ pauli_matrix(w), pauli_matrix(w) @ pauli_matrix(v)
        assert np.array_equal(vw, pauli_matrix(v ^ w, key_phase(a, b, n))), (n, a, b)
        assert key_form(a, b, n) == (not np.array_equal(vw, wv)), (n, a, b)


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
    assert np.allclose(dense_matrix(QOperator.identity(2)), np.eye(4))
    A = rand_op(2)
    assert operator_product(A, QOperator.identity(2)) == A
    assert maximally_mixed(1).trace() == ONE


def test_product_dense_homomorphism():
    for _ in range(8):
        A, B = rand_op(2), rand_op(2, sqrt2=True)
        M = complex_product(2, complex_coeffs(A), complex_coeffs(B))
        dense = np.zeros((4, 4), dtype=complex)
        for p, (re, im) in M.items():
            dense += (float(re) + 1j * float(im)) * pauli_matrix(p)
        dense /= 4
        assert np.allclose(dense, dense_matrix(A) @ dense_matrix(B), atol=1e-12)


def test_product_hermitian_coercion():
    p0 = pauli_projector(z_point(1, 1), 0)
    p1 = pauli_projector(z_point(1, 1), 1)
    assert operator_product(p0, p1).is_zero()
    assert operator_product(p0, p0) == p0
    with pytest.raises(ValueError):
        operator_product(pauli_projector(z_point(1, 1), 0), pauli_projector(x_point(1, 1), 0))


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_projector_refuses_the_zero_point(n):
    # (1 +- T_0)/2 is the identity or 0, not a rank-2^(n-1) projector; the
    # refusal is project's
    for s in (0, 1):
        for make in (lambda: pauli_projector(PauliPoint.zero(n), s),
                     lambda: QOperator.identity(n).project(PauliPoint.zero(n), s)):
            with pytest.raises(ValueError, match="^projection axis must be nonzero$"):
                make()
    half = FieldElem(1 << (n - 1))
    for a in all_points(n, include_zero=False):
        for s in (0, 1):
            P = pauli_projector(a, s)
            assert operator_product(P, P) == P and P.trace() == half
            assert P.coeff(a) == (-half if s else half)


def test_tensor():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    AA = A0.tensor(A0)
    assert len(AA.coeffs) == 16
    assert np.allclose(
        dense_matrix(AA), np.kron(dense_matrix(A0), dense_matrix(A0))
    )
    assert A0.tensor(maximally_mixed(1)).coeffs == {
        PauliPoint(2, p.z, p.x): c for p, c in A0.coeffs.items()
    }


def test_trace_inner_properties():
    A, B, C = rand_op(2), rand_op(2), rand_op(2)
    assert A.trace_inner(B) == B.trace_inner(A)
    assert (A + B).trace_inner(C) == A.trace_inner(C) + B.trace_inner(C)
    assert A.trace_inner(QOperator.identity(2)) == A.trace()
    got = A.trace_inner(B)
    want = np.trace(dense_matrix(A) @ dense_matrix(B)).real
    assert abs(float(got) - want) < 1e-12


def test_qubit_count_mismatch_rejected():
    A = rand_op(2)
    assert A.coeff(x_point(2, 1)) == A.coeffs.get(x_point(2, 1), ZERO)
    for call in (
        lambda: A.coeff(x_point(1, 1)),
        lambda: A.coeff(x_point(3, 1)),
        lambda: A.project(x_point(3, 1), 0),
        lambda: A + rand_op(1),
        lambda: A.trace_inner(rand_op(3)),
    ):
        with pytest.raises(ValueError, match="qubit count"):
            call()


def test_bell_overlap_value():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    bell = QOperator.from_labels(2, {"II": 1, "ZZ": -1, "XX": -1, "YY": -1})
    value = A0.tensor(A0).trace_inner(bell)
    assert value == FieldElem(Fraction(-1, 2))
    dense = dense_matrix(bell)
    assert np.allclose(dense @ dense, dense)


def product_projection(A, a, s):
    """Pi A Pi by two complex-coefficient products: the independent oracle
    for the closed-form ``project`` (Pi A alone need not be Hermitian, so
    ``operator_product`` cannot build it)."""
    proj = complex_coeffs(pauli_projector(a, s))
    mid = complex_product(A.n, proj, complex_coeffs(A))
    out = complex_product(A.n, mid, proj)
    assert all(im.is_zero() for _, im in out.values())
    return QOperator(A.n, {p: re for p, (re, _) in out.items()})


def mixed_op(r, n, terms):
    """Nonzero coefficients with rational and sqrt(2) parts over unrelated
    denominators, so that the paired coefficients of a projection mostly
    differ in denominator."""
    dens = (1, 2, 3, 4, 5, 6, 7, 9)
    return QOperator(n, {
        p: FieldElem(Fraction(r.choice((-7, -3, -1, 1, 2, 5)), r.choice(dens)),
                     Fraction(r.randint(-5, 5), r.choice(dens)))
        for p in r.sample(all_points(n), terms)
    })


def test_project_matches_dense_and_idempotent():
    ops = [rand_op(n, terms=4 * n, sqrt2=True) for n, k in ((1, 3), (2, 4), (3, 1))
           for _ in range(k)]
    r = random.Random(24)
    mixed = [mixed_op(r, n, terms) for n, terms in ((1, 4), (2, 16), (2, 10), (3, 16))]
    for A in mixed:
        assert len({c.d for c in A.coeffs.values()}) > 1
        assert any(c.q for c in A.coeffs.values())
    for A in ops + mixed:
        Ad = dense_matrix(A)
        for a in all_points(A.n, include_zero=False):
            for s in (0, 1):
                P = A.project(a, s)
                assert P == product_projection(A, a, s)
                assert P == P.project(a, s)
                Pd = dense_matrix(pauli_projector(a, s))
                assert np.allclose(dense_matrix(P), Pd @ Ad @ Pd, atol=1e-12)
    with pytest.raises(ValueError):
        rand_op(2).project(PauliPoint.zero(2), 0)
    with pytest.raises(ValueError):
        rand_op(2).project(x_point(1, 1), 0)


# -- the int-keyed operator against a PauliPoint-keyed reference -------------

#: coefficients drawn from a small set, so that sums cancel often
REF_VALUES = [
    FieldElem(a, b)
    for a in (0, 1, -1, Fraction(1, 2), Fraction(-3, 4))
    for b in (0, Fraction(1, 2), -1)
]


def ref_clean(coeffs):
    """A PauliPoint-keyed coefficient dict without zeros."""
    return {p: c for p, c in coeffs.items() if not c.is_zero()}


def ref_add(A, B, sign=1):
    out = dict(A)
    for p, c in B.items():
        out[p] = out.get(p, ZERO) + (c if sign > 0 else -c)
    return out


def ref_project(A, a, s):
    """Pi A Pi, Pi = (1 + (-1)^s T_a)/2, as the four Pauli products of each
    term T_v: (T_v + (-1)^s (T_a T_v + T_v T_a) + T_a T_v T_a) / 4."""
    ta = PhasedPauli(a)
    re: dict = {}
    im: dict = {}
    for v, c in A.items():
        tv = PhasedPauli(v)
        terms = [
            (1, tv),
            ((-1) ** s, pauli_mul(ta, tv)),
            ((-1) ** s, pauli_mul(tv, ta)),
            (1, pauli_mul(pauli_mul(ta, tv), ta)),
        ]
        for sign, t in terms:
            # i^phase: the phase picks the part and the sign
            part = re if t.phase % 2 == 0 else im
            val = c * Fraction(sign * (1 if t.phase < 2 else -1), 4)
            part[t.point] = part.get(t.point, ZERO) + val
    assert all(c.is_zero() for c in im.values())
    return ref_clean(re)


def ref_key(n, A):
    return (n, tuple(sorted((p.key(), c.a, c.b) for p, c in A.items())))


@st.composite
def ref_operators(draw, n):
    keys = draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=12, unique=True))
    return {PauliPoint.from_key(n, k): draw(st.sampled_from(REF_VALUES)) for k in keys}


def assert_canonical(op):
    """One denominator D > 0 and integer pairs, none (0, 0), with
    gcd(D, every p and q) = 1."""
    den, num = op._den, op._num
    assert type(den) is int and den > 0
    assert all(type(p) is int and type(q) is int and (p or q) for p, q in num.values())
    assert gcd(den, *chain.from_iterable(num.values())) == 1


def assert_matches(op, n, ref, dense=None):
    """op is the operator of the reference dict, canonical and storing no
    zero, and its matrix is ``dense`` when that is given."""
    assert_canonical(op)
    if dense is not None:
        assert np.allclose(dense_matrix(op), dense, atol=1e-12)
    ref = ref_clean(ref)
    assert op.n == n and op.coeffs == ref
    assert all(not c.is_zero() for c in op.coeffs.values())
    assert op == QOperator(n, ref) and hash(op) == hash(QOperator(n, ref))
    assert op.key() == ref_key(n, ref)
    assert op.is_zero() == (not ref)
    assert op.trace() == ref.get(PauliPoint.zero(n), ZERO)
    items = sorted(ref.items(), key=lambda kv: kv[0].key())
    assert op.to_json() == {
        "n": n,
        "coeffs": {p.label(): {"a": str(c.a), "b": str(c.b)} for p, c in items},
    }
    body = " ".join(f"{c!s}*{p.label()}" for p, c in items) or "0"
    assert repr(op) == str(op) == f"QOperator({n}; {body})"
    back = pickle.loads(pickle.dumps(op))
    assert back == op and back.coeffs == ref and hash(back) == hash(op)
    assert QOperator.from_json(json.loads(json.dumps(op.to_json()))) == op


def gate(n, kind, q):
    """(tableau, U, U^dagger) of a Hadamard, a phase gate (up to a global
    phase, S = (1 - iZ)/sqrt2), a CNOT onto the next qubit or the Pauli
    X on qubit q; U and U^dagger as complex coefficient maps (re, im) in
    the basis of ``QOperator``, A = (1/2^n) sum_v alpha_v T_v."""
    full, x, z = 1 << n, x_point(n, q), z_point(n, q)
    root = FieldElem(0, 1 << (n - 1))  # 2^n / sqrt2
    if kind == "H":
        U = {x: (root, ZERO), z: (root, ZERO)}
        return CliffordTableau.hadamard(n, q), U, U
    if kind == "S":
        U = {PauliPoint.zero(n): (root, ZERO), z: (ZERO, -root)}
        return CliffordTableau.phase_gate(n, q), U, {**U, z: (ZERO, root)}
    if kind == "CX":
        t = q % n + 1
        half = FieldElem(full // 2)
        terms = {PauliPoint.zero(n): half, z: half, x_point(n, t): half,
                 PauliPoint(n, z.z, x_point(n, t).x): -half}
        U = {p: (c, ZERO) for p, c in terms.items()}
        return CliffordTableau.cnot(n, q, t), U, U
    U = {x: (FieldElem(full), ZERO)}
    return CliffordTableau.pauli(n, x), U, U


def conjugated(n, word, A):
    """(tableau, U A U^dagger) for the gates of word applied in order, the
    operator from two complex-coefficient products per gate."""
    tableau = CliffordTableau.identity(n)
    coeffs = complex_coeffs(A)
    for kind, q in word:
        t, U, Ud = gate(n, kind, q)
        tableau = t.compose(tableau)
        coeffs = complex_product(n, complex_product(n, U, coeffs), Ud)
    assert all(im.is_zero() for _, im in coeffs.values())
    return tableau, QOperator(n, {p: re for p, (re, _) in coeffs.items()})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_int_keyed_operator_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    RA, RB = data.draw(ref_operators(n)), data.draw(ref_operators(n))
    A, B = QOperator(n, RA), QOperator(n, RB)
    Ad, Bd = dense_matrix(A), dense_matrix(B)
    assert_matches(A, n, RA, Ad)
    assert_matches(A + B, n, ref_add(RA, RB), Ad + Bd)
    assert_matches(A - B, n, ref_add(RA, RB, -1), Ad - Bd)
    assert_matches(A + A.scale(-1), n, {})
    assert_matches(A - A, n, {})
    drawn = data.draw(st.sampled_from(REF_VALUES))
    factors = (ZERO, FieldElem(-3), SQRT2, INV_SQRT2, FieldElem(Fraction(-2, 3), Fraction(1, 2)))
    for f in factors + (drawn,):
        assert_matches(A.scale(f), n, {p: c * f for p, c in RA.items()}, float(f) * Ad)
    # equal operators reached by different routes hold the same integers
    for route in ((A + B) - B, A.scale(2) + A.scale(-1), A.scale(SQRT2).scale(INV_SQRT2)):
        assert route == A and route.key() == A.key() and hash(route) == hash(A)
        assert route._den == A._den and route._num == A._num
    a = PauliPoint.from_key(n, data.draw(st.integers(1, (1 << (2 * n)) - 1)))
    s = data.draw(st.integers(0, 1))
    P = A.project(a, s)
    RP = ref_project(RA, a, s)
    Pd = dense_matrix(pauli_projector(a, s))
    assert_matches(P, n, RP, Pd @ Ad @ Pd)
    assert P == product_projection(A, a, s)
    # the opposite projector annihilates the projection: every pair cancels
    assert_matches(P.project(a, 1 - s), n, {})
    assert_matches(P.project(a, s), n, RP)
    want = sum((c * RB[p] for p, c in RA.items() if p in RB), ZERO) * Fraction(1, 1 << n)
    assert A.trace_inner(B) == want == B.trace_inner(A)
    kinds = st.sampled_from(["H", "S", "CX", "X"] if n > 1 else ["H", "S", "X"])
    word = data.draw(st.lists(st.tuples(kinds, st.integers(1, n)), max_size=4))
    tableau, UAU = conjugated(n, word, A)
    conj = tableau.conjugate(A)
    images = [(tableau.apply_point(p), c) for p, c in RA.items()]
    assert_matches(conj, n, {i.point: c * i.sign() for i, c in images})
    assert conj == UAU and tableau.invert().conjugate(conj) == A
    if n < 3:
        m = data.draw(st.integers(1, 3 - n))
        RC = data.draw(ref_operators(m))
        C = QOperator(m, RC)
        tensor = {
            PauliPoint(n + m, v.z | (w.z << n), v.x | (w.x << n)): c * d
            for v, c in RA.items()
            for w, d in RC.items()
        }
        assert_matches(A.tensor(C), n + m, tensor, np.kron(Ad, dense_matrix(C)))
        # the lift onto a tail stabilizer state is the tensor with its projector
        tail = span([z_point(m, q) for q in range(1, m + 1)], m)
        values = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        proj = stabilizer_projector(tail, Assignment(tail, values))
        J = span([PauliPoint(n + m, p.z << n, 0) for p in tail.basis_points()], n + m)
        lifted = lift_tensor(A, J, Assignment(J, values))
        assert_matches(lifted, n + m, dict(A.tensor(proj).coeffs), np.kron(Ad, dense_matrix(proj)))


def test_coeffs_view_is_read_only():
    A = rand_op(2, sqrt2=True)
    before = A.key()
    with pytest.raises(TypeError):
        A.coeffs[PauliPoint.zero(2)] = ONE
    with pytest.raises(TypeError):
        del A.coeffs[next(iter(A.coeffs))]
    assert A.key() == before


def test_dense_guard():
    with pytest.raises(ValueError):
        dense_matrix(maximally_mixed(6))


def test_eigenvalues_of_qubit_vertex():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    eig = sorted(np.linalg.eigvalsh(dense_matrix(A0)))
    assert np.allclose(eig, [(1 - np.sqrt(3)) / 2, (1 + np.sqrt(3)) / 2])


def test_json_round_trip():
    A = rand_op(2, sqrt2=True)
    assert QOperator.from_json(A.to_json()) == A
    doc = {"n": 1, "coeffs": {"X": "1/2"}}
    assert QOperator.from_json(doc).coeff(x_point(1, 1)) == FieldElem(Fraction(1, 2))
    for bad in ({"n": 1, "coeffs": ["X"]}, {"n": None}, {"n": 1, "coeffs": {"X": None}}):
        with pytest.raises(ValueError):
            QOperator.from_json(bad)
    with pytest.raises(ValueError, match="wrong qubit count"):
        QOperator.from_json({"n": 1, "coeffs": {"I": "1", "XZ": "1/2"}})


def test_json_rejects_labels_naming_one_point():
    # labels are read with whitespace stripped: " X" and "X" are one point,
    # and neither coefficient may silently win
    doc = {"n": 1, "coeffs": {"I": "1", "X": "1/2", " X": "1/2"}}
    with pytest.raises(ValueError, match="'X' and ' X' name the same point"):
        QOperator.from_json(doc)
    doc = {"n": 2, "coeffs": {"II": "1", "XZ ": "1/4", "IY": "1/4", "\tXZ": "1/4"}}
    with pytest.raises(ValueError, match="'XZ ' and '\\\\tXZ'"):
        QOperator.from_json(doc)


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
