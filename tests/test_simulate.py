import random
from fractions import Fraction

import pytest

from lambda_forge.clifford import CliffordTableau, generator_tableaux
from lambda_forge.cnc import CncSet, cnc_vertices
from lambda_forge.field import FieldElem, INV_SQRT2, ONE
from lambda_forge.gf2 import PauliPoint, all_points, x_point, y_point, z_point
from lambda_forge.orbit import alpha0_vertex, classify_operator
from lambda_forge.pauli import QOperator
from lambda_forge.reduction import ReductionEngine, embed_tail_assignment
from lambda_forge.simulate import (
    LiftState,
    born_distribution,
    decompose_known,
    descriptor_from_json,
    distribution_to_json,
    exact_distribution,
    outcome_probability,
    sample,
    state_operator,
    state_to_descriptor_json,
    steps_from_json,
)
from lambda_forge.stabilizer import Assignment, enumerate_stabilizer_states

rng = random.Random(41)

T_STATE = QOperator(
    1,
    {
        PauliPoint.zero(1): ONE,
        x_point(1, 1): INV_SQRT2,
        y_point(1, 1): INV_SQRT2,
    },
)


def total(dist):
    out = FieldElem(0)
    for v in dist.values():
        out = out + v
    return out


def test_stabilizer_point_mass_deterministic():
    asg = Assignment.from_pairs([(z_point(1, 1), 0)])
    c = CncSet.from_assignment(asg)
    dist = exact_distribution([(ONE, c)], [z_point(1, 1)])
    assert dist == {(0,): ONE}


def test_cnc_point_masses_match_born():
    reps = [cnc_vertices(1)[0], cnc_vertices(2)[0], cnc_vertices(2)[-1]]
    for c in reps:
        pts = all_points(c.n, include_zero=False)
        seqs = [[a] for a in pts]
        seqs += [[rng.choice(pts), rng.choice(pts)] for _ in range(6)]
        for seq in seqs:
            lhs = exact_distribution([(ONE, c)], seq)
            rhs = born_distribution(c.operator(), seq)
            assert lhs == rhs
            assert total(lhs) == ONE


def test_orbit_point_mass_matches_born():
    V = classify_operator(alpha0_vertex())
    pts = all_points(2, include_zero=False)
    seqs = [[a] for a in pts] + [
        [rng.choice(pts) for _ in range(3)] for _ in range(6)
    ]
    for seq in seqs:
        lhs = exact_distribution([(ONE, V)], seq)
        rhs = born_distribution(V.operator(), seq)
        assert lhs == rhs


def test_cnc_update_exhaustive_n2():
    # every two-qubit cnc vertex x every axis x both outcomes: isotropic
    # or not, axis inside or outside Omega
    for c in cnc_vertices(2):
        op = c.operator()
        for a in all_points(2, include_zero=False):
            for s in (0, 1):
                rebuilt = QOperator.zero(2)
                for w, piece in c.measure_update(a, s):
                    CncSet(piece.omega, piece.gamma, check=True)
                    rebuilt = rebuilt + piece.operator().scale(w)
                assert rebuilt == op.project(a, s)
            assert exact_distribution([(ONE, c)], [a]) == born_distribution(op, [a])


def test_magic_state_probabilities():
    init = decompose_known(T_STATE)
    rebuilt = QOperator.zero(1)
    for w, st in init:
        rebuilt = rebuilt + state_operator(st).scale(w)
    assert rebuilt == T_STATE
    dist = exact_distribution(init, [x_point(1, 1)])
    assert dist[(0,)] == FieldElem(Fraction(1, 2), Fraction(1, 4))
    assert dist[(1,)] == FieldElem(Fraction(1, 2), Fraction(-1, 4))
    assert dist == born_distribution(T_STATE, [x_point(1, 1)])


def test_born_rule_aggregation():
    init = decompose_known(T_STATE)
    for a in all_points(1, include_zero=False):
        for s in (0, 1):
            assert outcome_probability(init, a, s) == T_STATE.project(a, s).trace()


def test_lift_descriptor_matches_born():
    inner = cnc_vertices(1)[5]
    I_t, s_t = enumerate_stabilizer_states(1)[4]
    sig = embed_tail_assignment(s_t, 2, 1)
    U = CliffordTableau.identity(2)
    for _ in range(5):
        U = rng.choice(generator_tableaux(2)).compose(U)
    L = LiftState(ReductionEngine(2, 1, sig, U), inner)
    rho = state_operator(L)
    assert rho.trace() == ONE
    pts = all_points(2, include_zero=False)
    for _ in range(6):
        seq = [rng.choice(pts) for _ in range(rng.randint(1, 4))]
        assert exact_distribution([(ONE, L)], seq) == born_distribution(rho, seq)


def test_adaptive_decision_table():
    init = decompose_known(T_STATE)
    seq = [(z_point(1, 1), None), (x_point(1, 1), {0: 0})]
    dist = exact_distribution(init, seq)
    assert dist == born_distribution(T_STATE, seq)
    assert (1, None) in dist
    assert total(dist) == ONE


def test_sampling_determinism_and_convergence():
    init = decompose_known(T_STATE)
    t1 = sample(init, [x_point(1, 1)], seed=99, shots=500)
    t2 = sample(init, [x_point(1, 1)], seed=99, shots=500)
    assert t1 == t2
    t3 = sample(init, [x_point(1, 1)], seed=100, shots=500)
    assert t1 != t3
    freq = sum(1 for t in t1 if t[0] == 0) / 500
    p = float(FieldElem(Fraction(1, 2), Fraction(1, 4)))
    sigma = (p * (1 - p) / 500) ** 0.5
    assert abs(freq - p) < 4 * sigma


def test_sampling_deterministic_branch():
    asg = Assignment.from_pairs([(z_point(1, 1), 1)])
    c = CncSet.from_assignment(asg)
    for t in sample([(ONE, c)], [z_point(1, 1)], seed=3, shots=25):
        assert t == (1,)
    for shots in (0, -5):
        with pytest.raises(ValueError):
            sample([(ONE, c)], [z_point(1, 1)], seed=3, shots=shots)


def test_mixture_initial():
    verts = cnc_vertices(1)
    init = [(FieldElem(Fraction(1, 8)), v) for v in verts]
    dist = exact_distribution(init, [z_point(1, 1)])
    assert dist[(0,)] == FieldElem(Fraction(1, 2))
    assert dist[(1,)] == FieldElem(Fraction(1, 2))


def test_descriptor_json_round_trips():
    c = cnc_vertices(2)[7]
    back = descriptor_from_json(state_to_descriptor_json(c))
    assert len(back) == 1 and back[0][1] == c
    V = classify_operator(alpha0_vertex())
    back = descriptor_from_json(state_to_descriptor_json(V))
    assert back[0][1].operator() == alpha0_vertex()
    inner = cnc_vertices(1)[2]
    sig = embed_tail_assignment(enumerate_stabilizer_states(1)[1][1], 2, 1)
    L = LiftState(ReductionEngine(2, 1, sig, CliffordTableau.cnot(2, 1, 2)), inner)
    back = descriptor_from_json(state_to_descriptor_json(L))
    assert state_operator(back[0][1]) == state_operator(L)
    # stabilizer and mixture forms
    init = descriptor_from_json(
        {
            "type": "mixture",
            "terms": [
                {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["+Z"]}},
                {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["-Z"]}},
            ],
        }
    )
    dist = exact_distribution(init, [z_point(1, 1)])
    assert dist[(0,)] == dist[(1,)] == FieldElem(Fraction(1, 2))
    # mixture weights are nonnegative and sum exactly to 1
    for weights, ok in ((("1", "0"), True), (("2", "-1"), False),
                        (("1/2",), False), (("1", "1"), False)):
        doc = {
            "type": "mixture",
            "terms": [
                {"weight": w, "state": {"type": "stabilizer", "generators": [g]}}
                for w, g in zip(weights, ("+Z", "-Z"))
            ],
        }
        if ok:
            assert len(descriptor_from_json(doc)) == 2
        else:
            with pytest.raises(ValueError):
                descriptor_from_json(doc)


def test_operator_descriptor_decomposes():
    init = descriptor_from_json(
        {
            "type": "operator",
            "n": 1,
            "coeffs": {"I": "1", "X": {"a": "0", "b": "1/2"}, "Y": {"a": "0", "b": "1/2"}},
        }
    )
    rebuilt = QOperator.zero(1)
    for w, st in init:
        rebuilt = rebuilt + state_operator(st).scale(w)
    assert rebuilt == T_STATE


def test_steps_from_json():
    steps = steps_from_json(
        [{"measure": "XI"}, {"measure": "IZ", "if": {"0": 1}}], 2
    )
    assert steps[0][0] == x_point(2, 1) and steps[0][1] is None
    assert steps[1][1] == {0: 1}
    with pytest.raises(ValueError):
        steps_from_json([{"measure": "X"}], 2)
    # a condition names an earlier step and asks for outcome 0 or 1
    for cond in ({"1": 0}, {"2": 0}, {"-1": 0}, {"0": 2}, {"0": "1"}):
        with pytest.raises(ValueError):
            steps_from_json([{"measure": "XI"}, {"measure": "IZ", "if": cond}], 2)
    with pytest.raises(ValueError):
        exact_distribution([(ONE, cnc_vertices(1)[0])], [(z_point(1, 1), {0: 1})])


def test_distribution_json_sorted_and_exact():
    init = decompose_known(T_STATE)
    rows = distribution_to_json(exact_distribution(init, [x_point(1, 1)]))
    assert rows[0]["outcomes"] == [0]
    assert rows[0]["probability"] == {"a": "1/2", "b": "1/4"}


def test_initial_weights_checked():
    c0, c1 = cnc_vertices(1)[0:2]
    z = z_point(1, 1)
    for init in ([(2, c0), (-1, c1)], [(Fraction(1, 4), c0), (Fraction(1, 4), c1)]):
        with pytest.raises(ValueError, match="mixture weight"):
            exact_distribution(init, [z])
        with pytest.raises(ValueError, match="mixture weight"):
            sample(init, [z], seed=1)
        with pytest.raises(ValueError, match="mixture weight"):
            outcome_probability(init, z, 0)
    init = [(Fraction(1, 2), c0), (Fraction(1, 2), c1), (0, c1)]
    assert total(exact_distribution(init, [z])) == ONE
