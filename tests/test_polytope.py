import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge import polytope
from lambda_forge.clifford import enumerate_action, generator_tableaux
from lambda_forge.field import FieldElem, INV_SQRT2, ONE, sqrt2_sign
from lambda_forge.gf2 import (
    ENUMERATION_BOUND,
    PauliPoint,
    all_points,
    span,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.orbit import enumerate_family
from lambda_forge.pauli import PhasedPauli, QOperator
from lambda_forge.polytope import (
    FacetCertificate,
    _active_rows,
    _facet_sums,
    _gf3_rank,
    _gf3_rows,
    _int_rref,
    decompose,
    enumerate_vertices_n1,
    is_vertex,
    membership,
)
from lambda_forge.stabilizer import (
    enumerate_stabilizer_states,
    stabilizer_projector,
    state_to_json,
)
from helpers import (
    certificate_json,
    dense_matrix,
    extremality_refuter,
    facet_table,
    maximally_mixed,
    pauli_mul,
)

from test_golden import _lift_to_three, certificate_inputs

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
    cert = membership(maximally_mixed(2))
    assert cert.is_member and not cert.active and cert.violation is None
    ok, rank = is_vertex(maximally_mixed(2), cert)
    assert not ok and rank == 0


def test_trace_precondition():
    with pytest.raises(ValueError):
        membership(QOperator.zero(1))
    with pytest.raises(ValueError, match="only for n<=4"):
        membership(maximally_mixed(5))


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
    M = dense_matrix(lifted)
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


def test_extremality_refuter_near_a_vertex():
    """A non-extremal member 1/1024 of the way from a vertex to the
    opposite one: every step along a null direction must be small."""
    verts = enumerate_vertices_n1()
    X = verts[0].scale(Fraction(1023, 1024)) + verts[7].scale(Fraction(1, 1024))
    assert is_vertex(X) == (False, 0)
    Y = extremality_refuter(X)
    assert Y is not None and Y.trace() == 0 and Y != QOperator.zero(1)
    assert membership(X + Y).is_member and membership(X - Y).is_member


def test_decompose_point_mass():
    verts = enumerate_vertices_n1()
    w = decompose(verts[3], verts)
    assert w == {3: ONE}


def test_decompose_maximally_mixed():
    verts = enumerate_vertices_n1()
    w = decompose(maximally_mixed(1), verts)
    total = QOperator.zero(1)
    for i, wi in w.items():
        assert wi.sign() > 0
        total = total + verts[i].scale(wi)
    assert total == maximally_mixed(1)


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


def test_certificate_json_writes_facet_values_in_sorted_order():
    # to_json builds facet_values in sorted label order, so json.dumps
    # writes them the same with and without sort_keys
    T_T = T_STATE.tensor(T_STATE)
    operators = [
        (A0, True), (T_STATE, True), (QOperator.from_labels(1, {"I": 1, "X": 3}), False),
        (enumerate_family()[0].operator(), True), (T_T, True),
        (QOperator.from_labels(2, {"II": 1, "XY": 1, "ZZ": -1, "YI": 1}), False),
        (T_T.tensor(maximally_mixed(1)), True), (T_T.tensor(T_STATE), True),
        (QOperator.from_labels(3, {"III": 1, "XXZ": 1, "ZYI": 1, "IZX": Fraction(3, 2)}), False),
    ]
    for X, member in operators:
        doc = membership(X).to_json()
        assert doc["member"] is member
        labels = list(doc["facet_values"])
        assert labels == sorted(labels) and len(labels) == len(polytope._facet_data(X.n).labels)
        values = doc["facet_values"]
        assert json.dumps(values) == json.dumps(values, sort_keys=True)
    assert {X.n for X, _ in operators} == {1, 2, 3}


def _sparse(row):
    return {c: v for c, v in enumerate(row) if v}


@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=12))
def test_int_rref_rank_matches_numpy(rows):
    # up to 12 rows of width 5: full rank is often reached before the last
    # row, where the reduction stops reading
    reduced, pivots = _int_rref(map(_sparse, rows), 5)
    reduced = [[row.get(c, 0) for c in range(5)] for row in reduced]
    want = int(np.linalg.matrix_rank(np.array(rows, dtype=float))) if rows else 0
    assert len(pivots) == len(reduced) == want
    # the GF(3) rank never exceeds the rank over Q
    sparse = [_sparse(row) for row in rows]
    gf3 = _gf3_rank(map(_gf3_slice, sparse), 5)
    assert gf3 == _gf3_rank_oracle(sparse, 5) <= want
    assert pivots == sorted(pivots)
    for i, row in enumerate(reduced):
        assert [row[c] != 0 for c in pivots] == [j == i for j in range(len(pivots))]
        assert not any(row[: pivots[i]])
    # every input row reduces to zero against the result: equal row spaces
    for row in rows:
        row = [Fraction(v) for v in row]
        for prow, c in zip(reduced, pivots):
            f = row[c] / prow[c]
            row = [a - f * b for a, b in zip(row, prow)]
        assert not any(row)


def _gf3_slice(row):
    """A sparse integer row bit-sliced over GF(3): the masks of the
    columns whose entry is 1 and 2 mod 3."""
    return (
        sum(1 << c for c, v in row.items() if v % 3 == 1),
        sum(1 << c for c, v in row.items() if v % 3 == 2),
    )


def _gf3_rank_oracle(rows, width):
    """Rank mod 3 of sparse integer rows, by row echelon elimination on
    dense lists, every row read."""
    basis = {}  # pivot column -> dense row with entry 1 there
    for sparse in rows:
        row = [sparse.get(c, 0) % 3 for c in range(width)]
        for c in range(width):
            if row[c] and c in basis:
                f = row[c]
                row = [(a - f * b) % 3 for a, b in zip(row, basis[c])]
            elif row[c]:
                inv = row[c]  # 1 and 2 are their own inverses mod 3
                basis[c] = [(a * inv) % 3 for a in row]
                break
    return len(basis)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=14),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_gf3_rank_matches_the_oracle_in_any_row_order(shape, rnd):
    # the echelon pass keeps no reduced form, so its rank must not depend
    # on the order the rows come in
    width, rows = shape
    rows = [_sparse(row) for row in rows]
    want = _gf3_rank_oracle(rows, width)
    for _ in range(3):
        assert _gf3_rank(map(_gf3_slice, rows), width) == want
        rnd.shuffle(rows)


def test_gf3_rank_of_shuffled_active_facets():
    # the active normals of a lifted vertex span GF(3)^63 in any order;
    # those of a mixture keep the oracle's rank in any order
    inputs = certificate_inputs()
    shuffler = random.Random(34)
    for X in inputs["lifted_vertices"][:2] + inputs["mixtures"][:4]:
        rows = list(_active_rows(X.n, membership(X)))
        width = (1 << (2 * X.n)) - 1
        want = _gf3_rank_oracle(rows, width)
        assert (want == width) == (X.n == 3)
        for _ in range(3):
            shuffler.shuffle(rows)
            assert _gf3_rank(map(_gf3_slice, rows), width) == want


def _gf3_normals(n):
    """The facet normals `_gf3_rows` holds, per facet: column c at 1 in
    the ones mask, -1 in the twos mask."""
    rows = _gf3_rows(n)
    normals = []
    for f in range(len(_facet_oracle(n))):
        ones, twos = rows[f]
        assert not ones & twos
        normals.append({c: 1 - 2 * (twos >> c & 1)
                        for c in range(4**n - 1) if (ones | twos) >> c & 1})
    return normals


def _lane_normals(w):
    """The facet normals a w-byte `_lane_columns` table holds: lane f of
    column k is 1 + the sign of key k on facet f, key 0 a plus key of
    every facet; the table is built for the call and dropped after."""

    def normals(n):
        polytope._LANES.pop(n, None)
        width, columns = polytope._lane_columns(n, w)
        polytope._LANES.pop(n)
        F = len(_facet_oracle(n))
        assert width == w and len(columns) == 4**n
        lanes = [column.to_bytes(F * w, "little") for column in columns]
        assert all(not any(lane[f * w + 1:(f + 1) * w]) for lane in lanes for f in range(F))
        assert set(lanes[0][::w]) == {2}
        return [{k - 1: lanes[k][f * w] - 1 for k in range(1, 4**n) if lanes[k][f * w] != 1}
                for f in range(F)]

    return normals


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gf3_rows_are_the_facet_normals(n):
    # the GF(3) rows and the 1- and 2-byte lane columns hold each
    # projector's signs, in the order of the oracle's facets
    want = [{p.key() - 1: int(c.a) for p, c in P.coeffs.items() if not p.is_zero()}
            for _, P in _facet_oracle(n)]
    for read in (_gf3_normals, _lane_normals(1), _lane_normals(2)):
        assert read(n) == want


def _vertex_test_inputs():
    """(operator, GF(3)-certified?) for the family, seeded two-member
    mixtures, the stabilizer projectors, the n = 1 vertices and seeded
    lifted n = 3 vertices."""
    family = [v.operator() for v in enumerate_family()]
    sample = random.Random(20)
    mixtures = []
    for _ in range(48):
        a, b = sample.sample(family, 2)
        w = FieldElem(Fraction(sample.randint(1, 7), 8))
        mixtures.append(a.scale(w) + b.scale(ONE - w))
    projectors = [P for n in (1, 2) for _, P in _facet_oracle(n)]
    projectors += [P for _, P in sample.sample(_facet_oracle(3), 12)]
    heads = [sample.choice(family) for _ in range(4)] + sample.sample(
        enumerate_vertices_n1(), 4)
    lifted = certificate_inputs()["lifted_vertices"] + [
        _lift_to_three(sample, h) for h in heads]
    return (
        [(X, True) for X in family]
        + [(X, False) for X in mixtures + projectors]
        + [(X, True) for X in enumerate_vertices_n1() + lifted]
    )


def test_gf3_certificate_matches_the_exact_rank():
    # is_vertex returns what the exact rank alone gives, on vertices (all
    # certified over GF(3)) and non-vertices (never certified, since the
    # GF(3) rank is at most the rank over Q)
    for X, vertex in _vertex_test_inputs():
        cert = membership(X)
        width = (1 << (2 * X.n)) - 1
        rows = _projector_rows(X)
        exact = len(_int_rref(rows, width)[1])
        assert (exact == width) == vertex
        gf3 = _gf3_rank(map(_gf3_slice, rows), width)
        assert gf3 <= exact and (gf3 == width) == vertex
        assert is_vertex(X, cert) == (vertex, exact)
        if not vertex:
            assert gf3 == _gf3_rank_oracle(rows, width)


def test_gf3_pass_meets_each_isotropic_first(monkeypatch):
    # a vertex certified from the first active facet of each isotropic
    # reads about one row per dimension (63-79 here), not the 178-272
    # rows these took in facet order
    reads = []

    def counted(rows, width):
        read = 0

        def each():
            nonlocal read
            for row in rows:
                read += 1
                yield row

        rank = _gf3_rank(each(), width)
        reads.append(read)
        return rank

    monkeypatch.setattr(polytope, "_gf3_rank", counted)
    lifted = certificate_inputs()["lifted_vertices"]
    for X in lifted:
        assert is_vertex(X) == (True, 63)
    assert len(reads) == len(lifted) and max(reads) <= 2 * 63


def test_gf3_pass_is_skipped_below_the_width(monkeypatch):
    # the n2_mixture certificates have 4-12 active facets against a width
    # of 15: no GF(3) pass, and the exact rank is still returned
    calls = []

    def counted(rows, width):
        calls.append(width)
        return _gf3_rank(rows, width)

    monkeypatch.setattr(polytope, "_gf3_rank", counted)
    for X in certificate_inputs()["mixtures"]:
        cert = membership(X)
        assert len(cert.active) < 15
        rows = list(_active_rows(2, cert))
        assert is_vertex(X, cert) == (False, len(_int_rref(rows, 15)[1]))
    assert calls == []
    assert is_vertex(enumerate_family()[0].operator()) == (True, 15) and calls == [15]


def _state_label(I, s):
    """A facet's label: the state's signed generators joined by ','."""
    return ",".join(state_to_json(I, s)["generators"])


@lru_cache(maxsize=None)
def _facet_oracle(n):
    """(label, projector) for every stabilizer state, in enumeration order."""
    return [(_state_label(I, s), stabilizer_projector(I, s))
            for I, s in enumerate_stabilizer_states(n)]


_RATIONALS = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 8, 16])
)
_COEFFS = st.one_of(
    st.just(FieldElem(0)),
    st.sampled_from([FieldElem(v) for v in (1, -1, Fraction(1, 2), Fraction(-1, 2))]),
    st.builds(FieldElem, _RATIONALS),
    st.builds(FieldElem, _RATIONALS, _RATIONALS),
)


@st.composite
def trace_one_operators(draw):
    """Trace-1 operators in Q(sqrt(2)): free coefficients, or a mixture of
    two stabilizer projectors plus a few free coefficients, so that some
    facet values are exactly zero."""
    n = draw(st.integers(1, 3))
    points = all_points(n, include_zero=False)
    if draw(st.booleans()):
        coeffs = {p: draw(_COEFFS) for p in points}
        return QOperator(n, {PauliPoint.zero(n): ONE, **coeffs})
    _, P = draw(st.sampled_from(_facet_oracle(n)))
    _, Q = draw(st.sampled_from(_facet_oracle(n)))
    w = FieldElem(draw(st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1])))
    extra = draw(st.dictionaries(st.sampled_from(points), _COEFFS, max_size=2))
    return P.scale(w) + Q.scale(ONE - w) + QOperator(n, extra)


@settings(max_examples=60, deadline=None)
@given(trace_one_operators())
def test_facet_values_match_projector_overlaps(X):
    cert = membership(X)
    oracle = [(label, X.trace_inner(P)) for label, P in _facet_oracle(X.n)]
    values = cert.values
    assert list(values) == [label for label, _ in oracle]
    for label, value in oracle:
        assert values[label] == value
    assert cert.active == [label for label, value in oracle if value.is_zero()]
    negative = [label for label, value in oracle if value.sign() < 0]
    assert cert.violation == (negative[0] if negative else None)


def membership_by_facet(X: QOperator) -> FacetCertificate:
    """Exact facet certificate of X; requires trace(X) = 1.

    The facet sums are integers: with D the lcm of the denominators d of
    X's coefficients (p + q*sqrt(2)) / d, a facet's value is (x + y*sqrt(2)) / (D * 2^n) for
    the integer sums x, y of the scaled coefficients over the state's
    signed points, and its sign is that of x + y*sqrt(2).  The certificate
    keeps those sums; no FieldElem is built until it is read.
    """
    n = X.n
    if n > ENUMERATION_BOUND:
        raise ValueError(
            f"membership is evaluated exhaustively only for n<={ENUMERATION_BOUND}"
        )
    if X.trace() != ONE:
        raise ValueError("membership requires a trace-1 operator")
    coeffs = [(p.key(), c) for p, c in X.coeffs.items()]
    D = lcm(*(c.d for _, c in coeffs))
    xs = [0] * (1 << (2 * n))
    ys = [0] * (1 << (2 * n))
    for key, c in coeffs:
        k = D // c.d
        xs[key] = c.p * k
        ys[key] = c.q * k
    get_x, get_y = xs.__getitem__, ys.__getitem__
    irrational = any(ys)
    sums = []
    active = []
    violation = None
    for f, (label, plus, minus) in enumerate(facet_table(n)):
        x = sum(map(get_x, plus)) - sum(map(get_x, minus))
        y = sum(map(get_y, plus)) - sum(map(get_y, minus)) if irrational else 0
        sums.append((x, y))
        if not (x or y):
            active.append(f)
        elif violation is None and sqrt2_sign(x, y) < 0:
            violation = label
    xs, ys = [x for x, _ in sums], [y for _, y in sums]
    return FacetCertificate(X, xs, ys, D << n, active, violation)


@settings(max_examples=60, deadline=None)
@given(trace_one_operators())
def test_certificate_json_is_the_field_elements_json(X):
    # to_json writes the sums without building field elements; the values
    # it writes are those of the FieldElems `values` builds
    cert = membership(X)
    assert (cert._ys is None) == all(not c.q for c in X.coeffs.values())
    doc = cert.to_json()
    assert doc["facet_values"] == {label: v.to_json() for label, v in cert.values.items()}
    assert doc["active_facets"] == cert.active
    want = cert.values[cert.violation].to_json() if cert.violation else None
    assert doc["violation_value"] == want
    # the one writer of the facet table writes, byte for byte, what
    # json.dumps with sort_keys writes of the dict oracle
    assert doc == certificate_json(cert)
    assert cert.json_text() == json.dumps(certificate_json(cert), sort_keys=True)


def _assert_lanes_match_the_loop(X):
    """`membership` (byte lanes) against the per-facet loop it replaced."""
    cert, want = membership(X), membership_by_facet(X)
    assert cert._sums == want._sums
    assert cert._den == want._den
    assert cert.active == want.active
    assert cert.violation == want.violation
    assert cert.to_json() == want.to_json()


@settings(max_examples=60, deadline=None)
@given(trace_one_operators())
def test_lanes_match_the_per_facet_loop(X):
    _assert_lanes_match_the_loop(X)


@st.composite
def wide_operators(draw):
    """Trace-1 operators with denominators 2^70 to 3 * 2^200 (odd
    numerators keep them), so every lane is wider than 8 bytes; about
    half of the coefficients have a sqrt(2) part."""
    n = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 3])) << draw(st.integers(70, 200))
    part = st.builds(lambda m: Fraction(2 * m + 1, den), st.integers(-den // 2, den // 2 - 1))
    coeff = st.builds(FieldElem, part) | st.builds(FieldElem, part, part)
    points = all_points(n, include_zero=False)
    coeffs = draw(st.dictionaries(st.sampled_from(points), coeff, min_size=1, max_size=8))
    return QOperator(n, {PauliPoint.zero(n): ONE, **coeffs})


@settings(max_examples=40, deadline=None)
@given(wide_operators())
def test_lanes_wider_than_eight_bytes_match_the_per_facet_loop(X):
    _assert_lanes_match_the_loop(X)


@pytest.mark.parametrize("w", [1, 2, 4, 8], ids="w={}".format)
@pytest.mark.parametrize("fits", [True, False], ids=["widest", "next"])
def test_lanes_match_the_per_facet_loop_at_each_width_boundary(w, fits):
    # B = sum |x_k| over the scaled coefficients (D = 1 here, x_0 = 1) of
    # the rational and of the sqrt(2) parts: the widest sums a lane of w
    # bytes holds, then the first that need 2w bytes
    B = (1 << (8 * w - 1)) - fits
    a, b = B // 3, B - 1 - B // 3
    rational = {"II": 1, "XZ": a, "YY": -b}
    irrational = {"II": 1, "XZ": FieldElem(0, 1 + a), "YY": FieldElem(0, -b)}
    mixed = {"II": 1, "XZ": FieldElem(a, 1 + a), "ZX": FieldElem(-b, -b), "YY": FieldElem(0, 1)}
    for entries in (rational, irrational, mixed):
        _assert_lanes_match_the_loop(QOperator.from_labels(2, entries))


@pytest.mark.parametrize("w", [1, 2, 4, 8, 16], ids="w={}".format)
def test_facet_sums_fill_a_lane_from_end_to_end(w):
    # every sum is +-B or 0, so the lanes hold 0, B and 2B = 2^(8w) - 2
    B = (1 << (8 * w - 1)) - 1
    for n in (1, 2, 3):
        for key in (0, 1, (1 << 2 * n) - 1):
            for x in (B, -B):
                want = [x * ((key in plus) - (key in minus)) for _, plus, minus in facet_table(n)]
                assert _facet_sums(n, {key: x}) == want


def test_lanes_match_the_per_facet_loop_on_four_qubits():
    t4 = T_STATE.tensor(T_STATE).tensor(T_STATE).tensor(T_STATE)
    a4 = A0.tensor(A0).tensor(A0).tensor(A0)
    sample = random.Random(32)
    points = all_points(4, include_zero=False)
    noise = {
        p: FieldElem(Fraction(sample.randint(-4, 4), 16), Fraction(sample.randint(-1, 1), 16))
        for p in sample.sample(points, 12)
    }
    near_mixed = QOperator(4, {PauliPoint.zero(4): ONE, **noise})
    lifted = A0.tensor(maximally_mixed(1)).tensor(T_STATE).tensor(A0)
    for X in (t4, a4, near_mixed, lifted):
        _assert_lanes_match_the_loop(X)


def _package_facets(n):
    """The package's facet data laid out as `facet_table`: (label, plus,
    minus) per facet."""
    labels = polytope._facet_data(n).labels
    keys = polytope._facet_keys(n)
    return tuple((label, *keys[f]) for f, label in enumerate(labels))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_facet_table_matches_per_point_signs(n):
    # the oracle's table and the package's facet data: each point's sign
    # from the product of the signed generators it sums over, taken in row
    # order; the points in Subspace.points() order
    want = []
    for I, s in enumerate_stabilizer_states(n):
        gens = [PhasedPauli(p, 2 * v) for p, v in zip(I.basis_points(), s.row_values)]
        plus, minus = [], []
        for mask, point in enumerate(I.points()):
            acc = PhasedPauli(PauliPoint.zero(n))
            for i, gen in enumerate(gens):
                if mask >> i & 1:
                    acc = pauli_mul(acc, gen)
            assert acc.point == point
            (plus if acc.sign() > 0 else minus).append(point.key())
        want.append((_state_label(I, s), tuple(plus), tuple(minus)))
    for table in (facet_table, _package_facets):
        assert list(table(n)) == want


def test_facet_table_n4_digest():
    # the per-point oracle above runs to n = 3; the n = 4 table (36 720
    # facets) is pinned by digest, the oracle's and the package's
    for table in (facet_table, _package_facets):
        digest = hashlib.sha256(repr(table(4)).encode()).hexdigest()
        assert digest == "fad72615c2f23d9ca5a17b55d276f0978ffb91d4c6610d7040aacca0cf67cc5d"


def test_a_cli_vertex_enumerates_the_states_once(tmp_path):
    # a fresh interpreter's vertex certificate of a three-qubit operator
    # reads its facet labels, lane table and GF(3) rows off one
    # enumeration of the stabilizer states
    path = tmp_path / "x.json"
    path.write_text(json.dumps(certificate_inputs()["lifted_vertices"][0].to_json()))
    code = (
        "import contextlib, io, sys\n"
        "from lambda_forge import cli, stabilizer\n"
        "real, calls = stabilizer.enumerate_stabilizer_states, []\n"
        "def counted(n):\n"
        "    calls.append(n)\n"
        "    return real(n)\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('lambda_forge') and "
        "getattr(module, 'enumerate_stabilizer_states', None) is real:\n"
        "        module.enumerate_stabilizer_states = counted\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    status = cli.main(['vertex', {str(path)!r}])\n"
        "sys.stderr.write(repr((status, '\"vertex\": true' in out.getvalue(), calls)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stderr == repr((0, True, [3]))


def _rref_oracle(rows, width):
    """Gauss-Jordan over Fractions on dense rows, every row read: each row
    is reduced against the pivot rows so far (pivot entries 1), and a row
    left nonzero is scaled to pivot 1 and cleared from the others."""
    def subtract(row, f, prow):
        for j, b in enumerate(prow):
            if b:
                row[j] -= f * b

    basis = {}  # pivot column -> dense row
    for sparse in rows:
        row = [Fraction(sparse.get(c, 0)) for c in range(width)]
        for c, prow in basis.items():
            if row[c]:
                subtract(row, row[c], prow)
        col = next((c for c, v in enumerate(row) if v), None)
        if col is None:
            continue
        row = [v / row[col] for v in row]
        for prow in basis.values():
            if prow[col]:
                subtract(prow, prow[col], row)
        basis[col] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


@lru_cache(maxsize=None)
def _facet_rows(n):
    """(label, facet normal) for every stabilizer state, in enumeration
    order: the projector's coefficient 1 or -1 at key k, at column k - 1,
    read off its integer numerators once per n (the rows are shared, and
    no caller writes them)."""
    out = []
    for label, P in _facet_oracle(n):
        assert all(q == 0 and p % P._den == 0 for p, q in P._num.values())
        out.append((label, {k - 1: p // P._den for k, (p, _) in P._num.items() if k}))
    return out


def _projector_rows(X):
    """The active facet normals of member X (``_facet_rows``)."""
    active = set(membership(X).active)
    return [row for label, row in _facet_rows(X.n) if label in active]


def _assert_rref_matches_oracle(rows, width):
    reduced, pivots = _int_rref(rows, width)
    want, want_pivots = _rref_oracle(rows, width)
    assert pivots == want_pivots
    for row, c, dense in zip(reduced, pivots, want):
        assert [Fraction(row.get(j, 0), row[c]) for j in range(width)] == dense
    return len(pivots)


def test_int_rref_matches_fraction_oracle():
    inputs = certificate_inputs()
    sample = random.Random(14)
    for X in inputs["lifted_vertices"]:
        rows = _projector_rows(X)
        assert _assert_rref_matches_oracle(rows, 63) == 63
        for size in (8, 24, 40):
            subset = sample.sample(rows, size)
            assert _assert_rref_matches_oracle(subset, 63) < 63
    for X in inputs["mixtures"]:
        assert _assert_rref_matches_oracle(_projector_rows(X), 15) < 15


def test_one_lane_table_per_qubit_count_and_none_over_eight_bytes():
    # at n = 4 drive lanes of 1, 2, 4 and 8 bytes, wider ones and narrower
    # ones again: the table held is the widest so far up to 8 bytes, and a
    # sum that needs more is taken per facet with the table left alone
    polytope._LANES.pop(4, None)
    held = 0
    for w in (1, 2, 4, 8, 16, 2, 32, 1, 8):
        B = (1 << (8 * w - 1)) - 1  # the widest sums w-byte lanes hold
        a = B // 3
        X = QOperator.from_labels(4, {"IIII": 1, "XZXZ": a, "YYIY": -(B - 1 - a)})
        _assert_lanes_match_the_loop(X)
        held = max(held, w) if w <= 8 else held
        width, columns = polytope._LANES[4]
        assert width == held and len(columns) == 256
    polytope._LANES.pop(4)


def test_certify_widths_hit_a_warm_table_after_one_round():
    operators = [X for group in certificate_inputs().values() for X in group]
    for n in (2, 3):
        polytope._LANES.pop(n, None)
    for X in operators:
        membership(X)
    held = {n: polytope._LANES[n] for n in (2, 3)}
    assert all(width <= 8 for width, _ in held.values())
    for X in operators:
        membership(X)
        assert polytope._LANES[X.n] is held[X.n]
