"""A walk through the single-qubit polytope.

The trace-1 Hermitian operators with nonnegative overlap against all six
single-qubit stabilizer states form a cube in the (a_x, a_y, a_z) chart:
|a_v| <= 1.  Its eight corners are the operators (1 +- X +- Y +- Z)/2 --
not quantum states (one eigenvalue is negative), yet every density
matrix is a mixture of them.
"""

from lambda_forge import (
    INV_SQRT2,
    ONE,
    PauliPoint,
    QOperator,
    decompose,
    enumerate_vertices_n1,
    is_vertex,
    membership,
    x_point,
    y_point,
    z_point,
)

verts = enumerate_vertices_n1()
print(f"extremal points found: {len(verts)}")
for V in verts:
    labels = {p.label(): str(c) for p, c in sorted(V.coeffs.items(), key=lambda kv: kv[0].key())}
    ok, rank = is_vertex(V)
    print(f"  {labels}  extremal={ok} rank={rank}")

# these are not density matrices: a one-qubit operator (a_0 + a.sigma)/2
# has determinant (a_0^2 - a_x^2 - a_y^2 - a_z^2)/4, exact in Q(sqrt 2), and
# a negative determinant means one eigenvalue is negative
axes = (PauliPoint.zero(1), x_point(1, 1), y_point(1, 1), z_point(1, 1))
dets = set()
for V in verts:
    a0, ax, ay, az = (V.coeff(p) for p in axes)
    dets.add((a0 * a0 - ax * ax - ay * ay - az * az) / 4)
assert all(det.sign() < 0 for det in dets)
print(f"\ndeterminant of every vertex: {', '.join(map(str, dets))}  (one eigenvalue is negative!)")

# the magic state decomposes exactly over the corners
t_state = QOperator(
    1,
    {PauliPoint.zero(1): ONE, x_point(1, 1): INV_SQRT2, y_point(1, 1): INV_SQRT2},
)
print("\nmagic state is a member:", membership(t_state).is_member)
weights = decompose(t_state, verts)
print("decomposition weights (exact elements of Q(sqrt 2)):")
total = QOperator.zero(1)
for i, w in weights.items():
    total = total + verts[i].scale(w)
    print(f"  vertex {i}: {w}")
assert total == t_state
print("re-substitution is exact.")
