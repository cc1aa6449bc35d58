import pickle
import random
from collections import deque

import numpy as np
import pytest

from lambda_forge.clifford import (
    CliffordTableau,
    coefficient_orbit,
    complete_symplectic_map,
    enumerate_action,
    generator_tableaux,
    tableau_for_projector_pair,
)
from lambda_forge.cnc import cnc_vertices
from lambda_forge.orbit import alpha0_vertex
from lambda_forge.field import INV_SQRT2, ONE, FieldElem
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    span,
    symplectic_form,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.pauli import PhasedPauli, QOperator
from lambda_forge.stabilizer import (
    Assignment,
    enumerate_stabilizer_states,
    stabilizer_projector,
)
from helpers import dense_matrix, maximally_mixed, pauli_mul

rng = random.Random(3)


def by_key(A: QOperator) -> dict:
    """A's coefficients keyed by ``PauliPoint.key()``."""
    return {p.key(): c for p, c in A.coeffs.items()}


def operator_orbit(A: QOperator) -> set:
    """``QOperator.key()`` of each member of the Clifford orbit of A."""
    members = coefficient_orbit(A.n, by_key(A))
    return {(A.n, tuple([(k, d.a, d.b) for k, d in m])) for m in members}


H = CliffordTableau.hadamard(1, 1)
S = CliffordTableau.phase_gate(1, 1)
CX = CliffordTableau.cnot(2, 1, 2)


def random_tableau(n, depth=6):
    t = CliffordTableau.identity(n)
    for _ in range(depth):
        t = rng.choice(generator_tableaux(n)).compose(t)
    return t


def rand_op(n, terms=6):
    from fractions import Fraction

    pts = all_points(n)
    return QOperator(
        n,
        {
            p: FieldElem(Fraction(rng.randint(-3, 3), 2))
            for p in rng.sample(pts, min(terms, len(pts)))
        },
    )


def test_gate_actions():
    x, y, z = x_point(1, 1), y_point(1, 1), z_point(1, 1)
    assert H.apply_point(x) == PhasedPauli(z, 0)
    assert H.apply_point(z) == PhasedPauli(x, 0)
    assert H.apply_point(y) == PhasedPauli(y, 2)  # H Y H = -Y
    assert S.apply_point(x) == PhasedPauli(y, 0)
    s2 = S.compose(S)
    assert s2.apply_point(x) == PhasedPauli(x, 2)  # S^2 acts as Z
    assert CX.apply_point(x_point(2, 1)) == PhasedPauli(x_point(2, 1) ^ x_point(2, 2), 0)
    assert CX.apply_point(z_point(2, 2)) == PhasedPauli(z_point(2, 1) ^ z_point(2, 2), 0)


def test_identity_and_pauli():
    ident = CliffordTableau.identity(2)
    for v in all_points(2):
        assert ident.apply_point(v) == PhasedPauli(v, 0)
    u = x_point(2, 1) ^ z_point(2, 2)
    t = CliffordTableau.pauli(2, u)
    for v in all_points(2):
        assert t.apply_point(v) == PhasedPauli(v, 2 * symplectic_form(u, v))


def test_dense_conjugation_oracle():
    Hm = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    Sm = np.diag([1, 1j])
    Cm = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for U, t, n in ((Hm, H, 1), (Sm, S, 1), (Cm, CX, 2)):
        for _ in range(4):
            A = rand_op(n)
            got = dense_matrix(t.conjugate(A))
            assert np.allclose(got, U @ dense_matrix(A) @ U.conj().T, atol=1e-12)


def test_compose_invert_group_laws():
    for _ in range(15):
        t = random_tableau(2)
        assert t.is_valid()
        ti = t.invert()
        ident = CliffordTableau.identity(2)
        assert ti.compose(t) == ident and t.compose(ti) == ident
        assert CliffordTableau.identity(2).compose(t) == t


def test_apply_respects_products():
    t = random_tableau(2)
    pts = all_points(2)
    for _ in range(100):
        v, w = rng.choice(pts), rng.choice(pts)
        prod = pauli_mul(PhasedPauli(v), PhasedPauli(w))
        img = t.apply_point(prod.point)
        lhs = PhasedPauli(img.point, img.phase + prod.phase)
        rhs = pauli_mul(t.apply_point(v), t.apply_point(w))
        assert lhs == rhs


def test_conjugate_preserves_trace_inner():
    t = random_tableau(2)
    for _ in range(5):
        A, B = rand_op(2), rand_op(2)
        assert t.conjugate(A).trace_inner(t.conjugate(B)) == A.trace_inner(B)
        assert t.conjugate(A).trace() == A.trace()


def test_enumeration_counts():
    assert len(enumerate_action(1)) == 24
    with pytest.raises(ValueError):
        enumerate_action(3)
    # n = 2: |Sp_4(Z_2)| * 4^2 distinct valid actions, closed under every
    # generator (checked on a seeded sample)
    group = enumerate_action(2)
    members = set(group)
    assert len(group) == len(members) == 11520
    assert all(t.is_valid() for t in group)
    for t in random.Random(15).sample(group, 40):
        for g in generator_tableaux(2):
            assert g.compose(t) in members


def test_enumeration_closure_n1():
    group = set(enumerate_action(1))
    sample = rng.sample(sorted(group, key=lambda t: tuple((p.key(), s) for p, s in t.images)), 6)
    for a in sample:
        for b in sample:
            assert a.compose(b) in group


def test_orbit_sizes_divide_group_order():
    # stabilizer-state orbit: all 60 states form one Clifford orbit
    I, s = enumerate_stabilizer_states(2)[0]
    orbit = operator_orbit(stabilizer_projector(I, s))
    assert len(orbit) == 60
    assert 11520 % len(orbit) == 0


def product_image(t, v):
    """i^{q(v)} times the product of the generator images that T_v = i^{q(v)}
    X(v_x) Z(v_z) selects, multiplied out with pauli_mul."""
    n = t.n
    acc = PhasedPauli(PauliPoint.zero(n), (v.z & v.x).bit_count())
    for i in range(n):
        if (v.x >> i) & 1:
            img, s = t.images[i]
            acc = pauli_mul(acc, PhasedPauli(img, 2 * s))
    for i in range(n):
        if (v.z >> i) & 1:
            img, s = t.images[n + i]
            acc = pauli_mul(acc, PhasedPauli(img, 2 * s))
    return acc


def test_apply_point_matches_generator_products():
    seeded = random.Random(29)
    for n in (1, 2, 3):
        gens = generator_tableaux(n)
        for _ in range(12):
            t = CliffordTableau.identity(n)
            for _ in range(seeded.randint(0, 12)):
                t = seeded.choice(gens).compose(t)
            for v in all_points(n):
                got = t.apply_point(v)
                want = product_image(t, v)
                assert got == want and got.is_hermitian()


def conjugation_orbit_keys(A):
    """The orbit by plain QOperator conjugation, independent of the code
    tables that operator_orbit builds."""
    gens = generator_tableaux(A.n)
    seen = {A.key()}
    queue = deque([A])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = g.conjugate(cur)
            if nxt.key() not in seen:
                seen.add(nxt.key())
                queue.append(nxt)
    return seen


def test_operator_orbit_matches_conjugation_bfs():
    I, s = enumerate_stabilizer_states(2)[0]
    t_state = QOperator(
        1, {PauliPoint.zero(1): ONE, x_point(1, 1): INV_SQRT2, y_point(1, 1): INV_SQRT2}
    )
    cnc = cnc_vertices(2)[-1].operator()
    # the T state's Bloch vector points at an edge of the octahedron: 12 images
    for A, size in ((stabilizer_projector(I, s), 60), (t_state, 12), (cnc, None)):
        keys = operator_orbit(A)
        assert keys == conjugation_orbit_keys(A)
        assert size is None or len(keys) == size


def dense_compose(t, u):
    """(t after u) with every image of u pushed through all of t."""
    imgs = []
    for k, s in u._keys:
        key, phase = t._apply_key(k)
        imgs.append((key, s ^ (phase >> 1)))
    return CliffordTableau._from_keys(t.n, tuple(imgs))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_compose_matches_the_dense_reference(n):
    seeded = random.Random(700 + n)
    gens = generator_tableaux(n)
    ident = CliffordTableau.identity(n)

    def word():
        t = ident
        for _ in range(30):
            t = dense_compose(seeded.choice(gens), t)
        return t

    for _ in range(12):
        a, b = word(), word()
        g = seeded.choice(gens)
        p = CliffordTableau.pauli(n, PauliPoint.from_key(n, seeded.randrange(1, 1 << 2 * n)))
        # full words, gates, sign-only Paulis and the identity on either side
        for left, right in ((a, b), (g, a), (a, g), (p, a), (a, p), (p, g), (ident, a), (a, ident)):
            assert left.compose(right) == dense_compose(left, right)
            assert right.compose(left) == dense_compose(right, left)


def test_compose_refuses_mixed_widths():
    for n, m in ((1, 2), (3, 2)):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            CliffordTableau.identity(n).compose(CliffordTableau.hadamard(m, 1))


def test_coefficient_orbit_decodes_to_operator_orbit():
    I, s = enumerate_stabilizer_states(2)[0]
    t_state = QOperator(
        1, {PauliPoint.zero(1): ONE, x_point(1, 1): INV_SQRT2, y_point(1, 1): INV_SQRT2}
    )
    for A in (stabilizer_projector(I, s), t_state, alpha0_vertex()):
        members = coefficient_orbit(A.n, by_key(A))
        assert all(list(m) == sorted(m) for m in members)
        decoded = {
            QOperator(A.n, {PauliPoint.from_key(A.n, k): c for k, c in m}).key() for m in members
        }
        assert len(decoded) == len(members) and decoded == operator_orbit(A)


def test_coefficient_orbit_of_one_and_of_no_coefficient():
    # one code per member and none: the BFS reads tables without itemgetter
    x = x_point(2, 1)
    for n in (1, 2):
        mixed = maximally_mixed(n)
        assert coefficient_orbit(n, by_key(mixed)) == {((0, ONE),)}
        assert operator_orbit(mixed) == conjugation_orbit_keys(mixed) == {mixed.key()}
        assert coefficient_orbit(n, {}) == {()}
    # a lone Pauli reaches every nonzero point with both signs
    members = coefficient_orbit(2, {x.key(): ONE})
    assert members == {((k, c),) for k in range(1, 16) for c in (ONE, -ONE)}
    lone = QOperator(2, {x: ONE})
    assert operator_orbit(lone) == conjugation_orbit_keys(lone)


def test_complete_symplectic_map():
    a = x_point(2, 1) ^ z_point(2, 2)
    b = z_point(2, 1) ^ x_point(2, 2)
    x1, x2, z1 = x_point(2, 1).key(), x_point(2, 2).key(), z_point(2, 1).key()
    t = complete_symplectic_map(2, [(x1, a.key()), (x2, b.key())])
    assert t.is_valid()
    assert t.apply_point(x_point(2, 1)).point == a
    with pytest.raises(ValueError):
        complete_symplectic_map(2, [(x1, a.key()), (z1, b.key())])


def test_projector_pair_postcondition():
    states = enumerate_stabilizer_states(2)
    for _ in range(8):
        (J0, r0), (J, r) = rng.sample(states, 2)
        t = tableau_for_projector_pair(J0, r0, J, r)
        assert t.conjugate(stabilizer_projector(J0, r0)) == stabilizer_projector(J, r)
    # the 1-dimensional example: <x2> onto <z2> with a sign
    J0 = span([x_point(2, 2)])
    J = span([z_point(2, 2)])
    r = Assignment.from_pairs([(z_point(2, 2), 1)])
    t = tableau_for_projector_pair(J0, Assignment.zero(J0), J, r)
    assert t.conjugate(stabilizer_projector(J0, Assignment.zero(J0))) == stabilizer_projector(J, r)
    # same-pair case admits (and accepts) the identity
    t2 = tableau_for_projector_pair(J0, Assignment.zero(J0), J0, Assignment.zero(J0))
    P = stabilizer_projector(J0, Assignment.zero(J0))
    assert t2.conjugate(P) == P


def test_validity_preserved():
    t1, t2 = random_tableau(2), random_tableau(2)
    assert t1.compose(t2).is_valid()
    assert t1.invert().is_valid()


def test_json_round_trip():
    t = random_tableau(2)
    assert CliffordTableau.from_json(t.to_json()) == t
    bad = t.to_json()
    bad["x1"] = bad["z1"]
    with pytest.raises(ValueError):
        CliffordTableau.from_json(bad)
    # two-qubit labels as the images of a one-qubit tableau
    with pytest.raises(ValueError, match="qubits"):
        CliffordTableau.from_json({"x1": "+XX", "z1": "+ZI"})
    with pytest.raises(ValueError, match="qubits"):
        CliffordTableau(1, [(x_point(2, 1), 0), (z_point(1, 1), 0)])


def test_images_round_trip_through_keys():
    """The (key, sign) store against its PauliPoint edges: rebuilding from
    ``images`` and unpickling give an equal tableau with an equal hash."""
    seeded = random.Random(19)
    words = []
    for _ in range(6):
        t = CliffordTableau.identity(3)
        for _ in range(24):
            t = seeded.choice(generator_tableaux(3)).compose(t)
        words.append(t)
    for t in enumerate_action(1) + seeded.sample(enumerate_action(2), 300) + words:
        for copy in (CliffordTableau(t.n, t.images), pickle.loads(pickle.dumps(t))):
            assert copy == t and hash(copy) == hash(t)
            assert copy.images == t.images


def test_generator_tableaux_are_one_shared_tuple():
    for n in (1, 2, 3):
        gens = generator_tableaux(n)
        images = [g.images for g in gens]
        # callers index, draw from and compose with the shared tableaux
        seeded = random.Random(34)
        t = gens[0]
        for _ in range(40):
            t = seeded.choice(gens).compose(t)
        again = generator_tableaux(n)
        assert type(again) is tuple and again is gens
        assert [g.images for g in again] == images
        assert again == generator_tableaux.__wrapped__(n)
        assert len(again) == 4 * n + n * (n - 1)
