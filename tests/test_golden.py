"""Golden digests of outputs that depend on elimination order or draw order.

Free-variable order decides which solution of a sign system comes first
and which witness tableau a symplectic completion picks, so a change to
the linear algebra can reorder or replace outputs while every property
test still passes.  Likewise a sampler can keep the right law while
drawing different shots from one seed.  These digests pin the exact
outputs.  Run this file as a script to print the current digests.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lambda_forge.clifford import CliffordTableau, enumerate_action, generator_tableaux
from lambda_forge.cnc import cnc_vertices
from lambda_forge.field import HALF, INV_SQRT2, ONE, FieldElem
from lambda_forge.gf2 import PauliPoint, enumerate_maximal_isotropics, span
from lambda_forge.lifting import lift, lift_tensor, make_params, tail_overlap, tail_subspace
from lambda_forge.orbit import alpha0_vertex, classify_operator, enumerate_family
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import (
    decompose,
    enumerate_vertices_n1,
    is_vertex,
    membership,
)
from lambda_forge.reduction import ReductionEngine, embed_tail_assignment, reduce_static
from lambda_forge.simulate import (
    LiftState,
    born_distribution,
    decompose_known,
    distribution_to_json,
    sample,
    state_to_descriptor_json,
    update_state,
)
from lambda_forge.stabilizer import (
    Assignment,
    enumerate_stabilizer_states,
    stabilizer_projector,
)
from helpers import extremality_refuter, maximally_mixed, reduced_distribution


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
        maximally_mixed(1),
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


def _t_state():
    P = PauliPoint.from_label
    return QOperator(1, {P("I"): ONE, P("X"): INV_SQRT2, P("Y"): INV_SQRT2})


def decompose_weights():
    """Simplex solutions: T over the n = 1 vertices, T (x) T over the cnc
    vertices, the cnc + family pool of `decompose_known` (the alpha0 orbit
    vertex and a 1/2-1/2 mixture outside the cnc hull), and an infeasible
    system (T over the stabilizer states)."""
    def weights(rho, pool):
        w = decompose(rho, pool)
        return None if w is None else sorted((i, v.to_json()) for i, v in w.items())

    def known(op):
        return [(w.to_json(), state_to_descriptor_json(s)) for w, s in decompose_known(op)]

    t = _t_state()
    family = enumerate_family()
    mixture = (family[0].operator() + family[260].operator()).scale(HALF)
    return [
        weights(t, enumerate_vertices_n1()),
        weights(t.tensor(t), [c.operator() for c in cnc_vertices(2)]),
        known(alpha0_vertex()),
        known(mixture),
        weights(t, [stabilizer_projector(*s) for s in enumerate_stabilizer_states(1)]),
    ]


def _random_clifford(rng, n, length=24):
    u = CliffordTableau.identity(n)
    for _ in range(length):
        u = rng.choice(generator_tableaux(n)).compose(u)
    return u


def _lift_to_three(rng, head):
    """A random-tail lift to three qubits, then a random Clifford image."""
    u = _random_clifford(rng, 3)
    J = span([u.point_map(p) for p in tail_subspace(3, head.n).basis_points()], 3)
    r = Assignment(J, [rng.randint(0, 1) for _ in range(J.dim)])
    return _random_clifford(rng, 3).conjugate(lift(head, make_params(3, J, r)))


def certificate_inputs():
    """The operators of `certificates`, by group: A0 (x) A0 and two
    Clifford images of it, family members, k/8 two-member mixtures,
    T (x) T, and lifted three-qubit vertices and non-members."""
    rng = random.Random(808)
    a0 = enumerate_vertices_n1()[0]
    bad = a0.tensor(a0)
    family = enumerate_family()
    members = [v.operator() for v in rng.sample(family, 8)]
    mixtures = []
    for _ in range(8):
        a, b = (v.operator() for v in rng.sample(family, 2))
        w = FieldElem(Fraction(rng.randint(1, 7), 8))
        mixtures.append(a.scale(w) + b.scale(ONE - w))
    t = _t_state()
    heads = [rng.choice(family).operator(), enumerate_vertices_n1()[5]] * 2
    return {
        "bad": [bad] + [_random_clifford(rng, 2).conjugate(bad) for _ in range(2)],
        "members": members,
        "mixtures": mixtures,
        "t_t": [t.tensor(t)],
        "lifted_vertices": [_lift_to_three(rng, h) for h in heads],
        "lifted_bad": [
            _lift_to_three(rng, _random_clifford(rng, 2).conjugate(bad)) for _ in range(4)
        ],
    }


def certificates():
    """Facet certificates and vertex ranks of `certificate_inputs`."""
    out = []
    for group in certificate_inputs().values():
        for X in group:
            cert = membership(X)
            out.append([cert.to_json(), list(is_vertex(X, cert)) if cert.is_member else None])
    return out


def sample_transcripts():
    """Seeded shots: T, T (x) T over the cnc vertices, an orbit vertex, and
    an adaptive lifted n = 3 circuit whose first step is a coin."""
    P = PauliPoint.from_label
    t = _t_state()
    t_pieces = decompose_known(t)
    pool = cnc_vertices(2)
    weights = decompose(t.tensor(t), [c.operator() for c in pool])
    tt_pieces = [(w, pool[i]) for i, w in sorted(weights.items())]
    sigma = embed_tail_assignment(enumerate_stabilizer_states(2)[9][1], 3, 1)
    u = CliffordTableau.cnot(3, 1, 2).compose(CliffordTableau.hadamard(3, 3))
    engine = ReductionEngine(3, 1, sigma, u)
    lifted = [(w, LiftState(engine, st)) for w, st in t_pieces]
    lift_steps = [(P("IXZ"), None), (P("XZI"), None), (P("YIX"), {0: 1}),
                  (P("ZZZ"), {1: 0}), (P("XII"), None)]
    assert reduce_static(engine, [p for p, _ in lift_steps[:1]])["coins"]
    circuits = [
        (t_pieces, [(P("X"), None), (P("Z"), {0: 0}), (P("Y"), None)], 11, 400),
        (tt_pieces, [(P("XX"), None), (P("ZI"), {0: 1}), (P("YZ"), None)], 12, 300),
        ([(ONE, classify_operator(alpha0_vertex()))],
         [(P("XZ"), None), (P("ZY"), None), (P("YY"), {1: 0})], 13, 300),
        (lifted, lift_steps, 14, 60),
    ]
    return [sample(init, steps, seed=seed, shots=shots)
            for init, steps, seed, shots in circuits]


def _walk_lifted(rng, state, length):
    """The descriptor JSON of a lifted state and of the states a seeded
    run of measurements updates it to, one drawn piece per step."""
    out = [state_to_descriptor_json(state)]
    n = state.n
    for _ in range(length):
        a = PauliPoint.from_key(n, rng.randrange(1, 1 << (2 * n)))
        s = rng.randint(0, 1)
        pieces = update_state(state, a, s) or update_state(state, a, 1 - s)
        state = rng.choice(pieces)[1]
        out.append(state_to_descriptor_json(state))
    return out


def lift_tails():
    """The stabilizer tail through the lift layer: the descriptor JSON of
    seeded lifted states (m = 1 and 2, cnc and orbit inners) along seeded
    runs, `embed_tail_assignment` of every tail stabilizer state with
    n <= 4, and `tail_overlap` over every (I, s) at n = 3 for seeded X,
    J and r."""
    rng = random.Random(1818)
    descriptors = []
    inner_pools = [(3, 1, cnc_vertices(1)), (4, 1, cnc_vertices(1)),
                   (3, 2, cnc_vertices(2)), (3, 2, enumerate_family()),
                   (4, 2, enumerate_family())]
    for n, m, pool in inner_pools:
        tails = enumerate_stabilizer_states(n - m)
        for _ in range(3):
            sigma = embed_tail_assignment(rng.choice(tails)[1], n, m)
            engine = ReductionEngine(n, m, sigma, _random_clifford(rng, n))
            descriptors.append(_walk_lifted(rng, LiftState(engine, rng.choice(pool)), 4))
    embedded = []
    for n in (2, 3, 4):
        for m in range(1, n):
            for _, s in enumerate_stabilizer_states(n - m):
                e = embed_tail_assignment(s, n, m)
                embedded.append([n, m, e.subspace.rows, e.row_values])
    overlaps = []
    states3 = enumerate_stabilizer_states(3)
    for m in (1, 2, 1, 2):
        X = QOperator(m, {
            PauliPoint.from_key(m, k): FieldElem(Fraction(rng.randint(-8, 8), 4),
                                                 Fraction(rng.randint(-2, 2), 4))
            for k in range(1 << (2 * m))
        })
        r = embed_tail_assignment(rng.choice(enumerate_stabilizer_states(3 - m))[1], 3, m)
        overlaps.append(
            [tail_overlap(X, r.subspace, r, I, s).to_json() for I, s in states3]
        )
    return [descriptors, embedded, overlaps]


def _adaptive_circuit(rng, n, length):
    """Seeded steps on n qubits, each conditioned on up to two earlier ones."""
    steps = []
    for i in range(length):
        cond = {j: rng.randint(0, 1) for j in rng.sample(range(i), min(i, rng.randint(0, 2)))}
        steps.append((PauliPoint.from_key(n, rng.randrange(1, 1 << (2 * n))), cond or None))
    return steps


def born_laws():
    """Seeded laws of the two projection-based rules: `born_distribution`
    on cnc vertices, family members, T and T (x) T, and on lifted n = 3
    operators, with the tests' `reduced_distribution` (tests/helpers.py:
    the engine's steps with head projections) of the same lifted runs
    from their heads.  The circuits skip steps and meet outcomes of zero
    probability."""
    rng = random.Random(2424)
    t = _t_state()
    family = enumerate_family()
    ops = [c.operator() for c in rng.sample(cnc_vertices(2), 4)]
    ops += [v.operator() for v in rng.sample(family, 4)] + [t, t.tensor(t)]
    laws = []
    for op in ops:
        for length in (1, 3, 5):
            steps = _adaptive_circuit(rng, op.n, length)
            laws.append(distribution_to_json(born_distribution(op, steps)))
    heads = [t, enumerate_vertices_n1()[5], rng.choice(family).operator(),
             rng.choice(family).operator()]
    for head in heads:
        m = head.n
        sigma = embed_tail_assignment(rng.choice(enumerate_stabilizer_states(3 - m))[1], 3, m)
        u = _random_clifford(rng, 3)
        rho = u.conjugate(lift_tensor(head, sigma.subspace, sigma))
        for length in (1, 4):
            steps = _adaptive_circuit(rng, 3, length)
            laws.append([
                distribution_to_json(born_distribution(rho, steps)),
                distribution_to_json(reduced_distribution(head, ReductionEngine(3, m, sigma, u), steps)),
            ])
    return laws


BUILDERS = {
    "born_laws": born_laws,
    "cnc_vertices": cnc_vertex_list,
    "family_keys": family_keys,
    "certificates": certificates,
    "clifford_inverses": clifford_inverses,
    "decompose_weights": decompose_weights,
    "lift_tableaux": lift_tableaux,
    "lift_tails": lift_tails,
    "polytope_n1": polytope_n1_and_refuters,
    "perp_n3": perps_n3,
    "sample_transcripts": sample_transcripts,
}

GOLDEN = {
    "born_laws": "10388b7e95d0492fbd3b22ff15ccaac45657ddd1b0f1c30800d1ed309b3d4095",
    "certificates": "0e34cd3135f320732353473cbd943033c176a12575547fa1468f2caded2eefe0",
    "cnc_vertices": "7c276927b641a823b4ce63ff288f7348a7bc12b5ca6c90fdce3f61c1e0c11269",
    "family_keys": "74af6fc8de732e08910f036525118add476ebd9b343abb520796dde9d59d6c2f",
    "clifford_inverses": "84984529105df9127be3e15c2e1671461b9c37e9b4b699bac07570e8574ca7f0",
    "decompose_weights": "609198e94afbd7634ff7db3cf2257867165f200ed9fa8e7ed16185c62c6a329e",
    "lift_tableaux": "101f5dc9ecff800ccc960cb1908d89795d36f8971fca42cc4451fb40674c00ec",
    "lift_tails": "f95e155dd1921a5d832a24e5fd665f93f2412ebe972ad2ec071e5cc1627aa88f",
    "polytope_n1": "4fb4777b88da46d1e89c8839c1030d26df75c34d347dd752f8b1373e84752196",
    "perp_n3": "5be1bf5db5a6fe3435da588bb3b50c9e9b2a844cb94d430d44458ea8f4e7e488",
    "sample_transcripts": "37c4b0dee7c0e41f6fe844d532fc38c4b8e073012ceaca05622a018265e38653",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_golden_digest(name):
    assert _digest(BUILDERS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(BUILDERS):
        print(f'    "{name}": "{_digest(BUILDERS[name]())}",')
