import pytest
from hypothesis import given, strategies as st

from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    closure_under_inference,
    enumerate_maximal_isotropics,
    solve_affine,
    span,
    symplectic_form,
    x_point,
    xor_sums,
    y_point,
    z_point,
)


def points_st(n):
    return st.builds(lambda k: PauliPoint.from_key(n, k), st.integers(0, 4**n - 1))


def test_label_round_trip():
    for lbl in ("I", "X", "XZ", "YY", "IZXY"):
        assert PauliPoint.from_label(lbl).label() == lbl
    with pytest.raises(ValueError):
        PauliPoint.from_label("XQ")


def test_symplectic_form_basics():
    assert symplectic_form(x_point(1, 1), z_point(1, 1)) == 1
    assert symplectic_form(x_point(1, 1), x_point(1, 1)) == 0
    a = x_point(2, 1) ^ z_point(2, 2)
    b = z_point(2, 1) ^ x_point(2, 2)
    assert symplectic_form(a, b) == 0
    with pytest.raises(ValueError):
        symplectic_form(x_point(1, 1), x_point(2, 1))


@given(points_st(2), points_st(2), points_st(2))
def test_form_bilinear_alternating(u, v, w):
    assert symplectic_form(v, v) == 0
    assert symplectic_form(u ^ v, w) == (symplectic_form(u, w) + symplectic_form(v, w)) % 2
    assert symplectic_form(u, v) == symplectic_form(v, u)


def test_span_canonical():
    x1 = x_point(2, 1)
    assert span([x1, x1]).dim == 1
    assert span([], n=2).dim == 0
    s1 = span([x1, z_point(2, 1)])
    s2 = span([x1 ^ z_point(2, 1), z_point(2, 1)])
    assert s1 == s2 and hash(s1) == hash(s2)
    iso = span([x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)])
    assert iso.dim == 2 and iso.is_isotropic()


def test_perp():
    zero_sub = span([], n=2)
    assert zero_sub.perp().dim == 4
    for a in all_points(2, include_zero=False):
        line = span([a])
        p = line.perp()
        assert p.dim == 3 and p.contains(a)
    iso = span([x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)])
    assert iso.perp() == iso  # self-dual at maximal dimension


@given(st.lists(points_st(2), min_size=0, max_size=5))
def test_perp_dimension_formula(pts):
    sub = span(pts, n=2)
    assert sub.dim + sub.perp().dim == 4


def test_maximal_isotropic_counts():
    assert len(enumerate_maximal_isotropics(1)) == 3
    assert len(enumerate_maximal_isotropics(2)) == 15
    assert len(enumerate_maximal_isotropics(3)) == 135
    with pytest.raises(ValueError):
        enumerate_maximal_isotropics(5)


def test_maximal_isotropics_self_dual_and_distinct():
    isos = enumerate_maximal_isotropics(2)
    assert len(set(isos)) == 15
    for I in isos:
        assert I.dim == 2 and I.is_isotropic() and I.perp() == I


def test_n1_isotropics_are_the_three_axes():
    got = {I.rows for I in enumerate_maximal_isotropics(1)}
    want = {span([p]).rows for p in (x_point(1, 1), y_point(1, 1), z_point(1, 1))}
    assert got == want


def test_closure_examples():
    zero = PauliPoint.zero(1)
    x, z = x_point(1, 1), z_point(1, 1)
    assert closure_under_inference({zero, x}) == {zero, x}
    assert closure_under_inference({zero, x, z}) == {zero, x, z}
    omega = {PauliPoint.zero(2)} | {
        f(2, q) for f in (x_point, y_point, z_point) for q in (1, 2)
    }
    a = x_point(2, 1) ^ x_point(2, 2)
    commuting = {v for v in omega if symplectic_form(v, a) == 0}
    assert a in closure_under_inference(commuting)


@given(st.sets(points_st(2), min_size=1, max_size=5))
def test_closure_operator_laws(pts):
    closed = closure_under_inference(pts)
    assert pts <= closed  # extensive
    assert closure_under_inference(closed) == closed  # idempotent
    bigger = closure_under_inference(pts | {PauliPoint.zero(2)})
    assert bigger == closed
    # monotone
    sub = set(list(pts)[:2])
    if sub:
        assert closure_under_inference(sub) <= closed


def test_subspace_points_and_coordinates():
    iso = span([x_point(2, 1), z_point(2, 2)])
    pts = list(iso.points())
    assert len(pts) == 4 and pts[0].is_zero()
    for p in pts:
        coords = iso.coordinates(p)
        assert coords is not None
        rebuilt = PauliPoint.zero(2)
        for c, b in zip(coords, iso.basis_points()):
            if c:
                rebuilt = rebuilt ^ b
        assert rebuilt == p
    assert iso.coordinates(y_point(2, 1)) is None


@st.composite
def affine_systems(draw):
    width = draw(st.integers(1, 6))
    eqs = draw(st.lists(st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1)), max_size=7))
    return width, [r for r, _ in eqs], [b for _, b in eqs]


@given(affine_systems())
def test_solve_affine_against_brute_force(system):
    width, rows, rhs = system
    solutions = [
        v for v in range(1 << width)
        if all((r & v).bit_count() & 1 == b for r, b in zip(rows, rhs))
    ]
    got = solve_affine(rows, rhs, width)
    if not solutions:
        assert got is None
        return
    particular, null_basis = got
    # pivots are the highest bits of the row space; the rest are free
    pivots = {v.bit_length() - 1 for v in xor_sums(rows) if v}
    free = [c for c in range(width) if c not in pivots]
    assert all(not particular >> c & 1 for c in free)
    assert len(null_basis) == len(free)
    for c, h in zip(free, null_basis):
        assert [h >> f & 1 for f in free] == [int(f == c) for f in free]
        assert all(not (r & h).bit_count() & 1 for r in rows)
    assert sorted(particular ^ h for h in xor_sums(null_basis)) == solutions


def test_xor_sums_mask_order():
    assert xor_sums([]) == [0]
    assert xor_sums([1, 2, 4]) == list(range(8))
    assert xor_sums([3, 5]) == [0, 3, 5, 6]
