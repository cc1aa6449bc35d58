"""Lifting vertices up and reducing computations back down.

Tensoring any extremal point with a stabilizer projector and conjugating
by a Clifford yields an extremal point on more qubits.  Conversely, a
Pauli-measurement computation on such a lifted state rewrites exactly
into a computation on the small register plus fair coin flips.
"""

import random

from lambda_forge import (
    ONE,
    CliffordTableau,
    QOperator,
    enumerate_vertices_n1,
    is_vertex,
    lift,
    lift_tensor,
    make_params,
    membership,
    span,
    unlift,
)
from lambda_forge.clifford import generator_tableaux
from lambda_forge.gf2 import all_points, x_point, z_point
from lambda_forge.reduction import ReductionEngine, embed_tail_assignment, reduce_static
from lambda_forge.simulate import LiftState, born_distribution, exact_distribution
from lambda_forge.stabilizer import Assignment, enumerate_stabilizer_states

rng = random.Random(4)

X = enumerate_vertices_n1()[0]
J = span([z_point(2, 2) ^ x_point(2, 1)])
r = Assignment(J, [1])
params = make_params(2, J, r)
L = lift(X, params)
print("lifted operator coefficients:")
for p, c in sorted(L.coeffs.items(), key=lambda kv: kv[0].key()):
    print(f"  {p.label()}: {c}")
print("extremal on two qubits:", is_vertex(L, membership(L)))
print("round trip recovers the input:", unlift(L, params) == X)

# now reduce a random 3-qubit computation on a lifted state
n, m = 3, 1
_, s_t = rng.choice(enumerate_stabilizer_states(2))
sigma = embed_tail_assignment(s_t, n, m)
U = CliffordTableau.identity(n)
for _ in range(6):
    U = rng.choice(generator_tableaux(n)).compose(U)
seq = [rng.choice(all_points(3, include_zero=False)) for _ in range(4)]
print("\nmeasurement sequence:", [p.label() for p in seq])

plan = reduce_static(ReductionEngine(n, m, sigma, U), seq, coins=[0, 1])
for step in plan["steps"]:
    print("  ", step)

full = born_distribution(U.conjugate(lift_tensor(X, sigma.subspace, sigma)), seq)
# the simulator runs the lifted state on its one-qubit head, with coins
red = exact_distribution([(ONE, LiftState(ReductionEngine(n, m, sigma, U), X))], seq)
print("\nreduced joint law equals the full three-qubit law:", full == red)
print("outcome probabilities:")
for key in sorted(full, key=lambda k: tuple(k)):
    print("  ", key, "->", full[key])
