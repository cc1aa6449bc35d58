import contextlib
import io
import json
import pickle
import random
import re
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from lambda_forge import simulate
from lambda_forge.cli import main
from lambda_forge.clifford import CliffordTableau, coefficient_orbit, generator_tableaux
from lambda_forge.cnc import CncSet, cnc_vertices, consistent_assignments, maximal_cnc_sets
from lambda_forge.field import FieldElem, HALF, INV_SQRT2, ONE, ZERO
from lambda_forge.gf2 import PauliPoint, all_points, x_point, y_point, z_point
from lambda_forge.orbit import (
    OrbitVertex,
    alpha0_vertex,
    classify_operator,
    enumerate_family,
    family_operator_keys,
    measure_update as orbit_update,
)
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import decompose, enumerate_vertices_n1, is_vertex, membership
from lambda_forge.reduction import MeasureStep, ReductionEngine, embed_tail_assignment
from lambda_forge.simulate import (
    LiftState,
    MemberState,
    _condition_met,
    _table,
    _threshold,
    _update_branch,
    born_distribution,
    check_weights,
    decompose_known,
    descriptor_from_json,
    distribution_to_json,
    exact_distribution,
    iter_sample,
    normalize_steps,
    sample,
    state_to_descriptor_json,
    steps_from_json,
)
from lambda_forge.stabilizer import Assignment, enumerate_stabilizer_states
from helpers import reduced_distribution, state_operator

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
                    again = CncSet(piece.omega, piece.gamma)
                    assert again == piece and hash(again) == hash(piece)
                    assert pickle.loads(pickle.dumps(piece)) == piece
                    rebuilt = rebuilt + piece.operator().scale(w)
                assert rebuilt == op.project(a, s)
            assert exact_distribution([(ONE, c)], [a]) == born_distribution(op, [a])


@pytest.mark.parametrize("s", [5, -2, True])
def test_update_rules_refuse_outcomes_other_than_0_or_1(s):
    c, a = cnc_vertices(2)[0], z_point(2, 1)
    vertex = classify_operator(alpha0_vertex())
    for update in (
        lambda: simulate.update_state(c, a, s),
        lambda: c.measure_update(a, s),
        lambda: orbit_update(vertex, a, s),
    ):
        with pytest.raises(ValueError, match="outcome must be the ints 0 or 1"):
            update()


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


def test_decompose_known_refuses_a_trace_other_than_1_before_any_pool(monkeypatch):
    def no_pool(n, family):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(simulate, "_known_pool", no_pool)
    for op, trace in ((alpha0_vertex().scale(2), "2"), (QOperator.zero(1), "0"),
                      (QOperator.from_labels(3, {"III": Fraction(1, 2)}), "1/2")):
        with pytest.raises(ValueError, match=f"^an operator initial state needs trace 1, got {trace}$"):
            decompose_known(op)


def test_decompose_known_family_pool():
    """Two-qubit operators outside the cnc hull go to the cnc + family pool
    and come back as an exact convex combination."""
    family = enumerate_family()
    mixture = (family[0].operator() + family[260].operator()).scale(HALF)
    cnc_pool = [c.operator() for c in cnc_vertices(2)]
    for op in (alpha0_vertex(), mixture):
        assert decompose(op, cnc_pool) is None
        terms = decompose_known(op)
        assert all(w.sign() > 0 for w, _ in terms)
        assert sum((w for w, _ in terms), ZERO) == ONE
        assert any(isinstance(st, OrbitVertex) for _, st in terms)
        rebuilt = QOperator.zero(2)
        for w, st in terms:
            rebuilt = rebuilt + state_operator(st).scale(w)
        assert rebuilt == op


def test_born_rule_aggregation():
    init = decompose_known(T_STATE)
    for a in all_points(1, include_zero=False):
        for s in (0, 1):
            assert exact_distribution(init, [a]).get((s,), ZERO) == T_STATE.project(a, s).trace()


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



def _count_projections(monkeypatch) -> Counter:
    """(axis key, outcome) of every ``QOperator.project`` call from now on."""
    calls, project = Counter(), QOperator.project

    def counted(self, a, s):
        calls[a.key(), s] += 1
        return project(self, a, s)

    monkeypatch.setattr(QOperator, "project", counted)
    return calls


def _branched_again(law, points) -> Counter:
    """(axis key, outcome) of each node of a Born branch tree that a later
    step branches on: a transcript prefix ending in an outcome that some
    later outcome follows."""
    nodes = {t[:i + 1] for t in law for i in range(len(t))
             if t[i] is not None and any(v is not None for v in t[i + 1:])}
    return Counter((points[len(p) - 1].key(), p[-1]) for p in nodes)


def test_born_law_projects_only_nodes_it_branches_on_again(monkeypatch):
    calls = _count_projections(monkeypatch)
    r = random.Random(2401)
    ops = [T_STATE] + [v.operator() for v in r.sample(enumerate_family(), 3)]
    ops += [c.operator() for c in r.sample(cnc_vertices(2), 3)]
    for op in ops:
        points = all_points(op.n, include_zero=False)
        for k in (1, 2, 3, 4):
            steps = [r.choice(points) for _ in range(k)]
            calls.clear()
            law = born_distribution(op, steps)
            want = _branched_again(law, steps)
            assert calls == want
            # unconditioned: one projection per positive-weight prefix of
            # length 1 .. k - 1, none for a length-1 circuit
            assert sum(calls.values()) == len({t[:i] for t in law for i in range(1, k)})


def test_born_law_matches_exact_with_zero_outcomes_and_skipped_tails(monkeypatch):
    calls = _count_projections(monkeypatch)
    r = random.Random(2402)
    points = all_points(2, include_zero=False)
    skipped = 0
    for state in r.sample(cnc_vertices(2), 6) + r.sample(list(enumerate_family()), 6):
        a = r.choice(points)
        # the repeated axis has an outcome of probability 0 on every branch;
        # the last two steps run only after outcome 0 of step 0
        steps = [(a, None), (a, None), (r.choice(points), None),
                 (r.choice(points), {0: 0}), (r.choice(points), {0: 0, 2: 1})]
        calls.clear()
        law = born_distribution(state.operator(), steps)
        assert law == exact_distribution([(ONE, state)], steps)
        assert total(law) == ONE
        assert all(t[0] == t[1] for t in law)
        assert calls == _branched_again(law, [p for p, _ in steps])
        skipped += any(t[-1] is None for t in law)
    assert skipped


def test_born_laws_refuse_bad_axes_on_the_last_step():
    x, zero, wide = x_point(1, 1), PauliPoint.zero(1), PauliPoint.from_label("ZZ")
    for steps in ([zero], [x, zero], [wide], [x, wide], [x, (wide, {0: 1})]):
        with pytest.raises(ValueError):
            born_distribution(T_STATE, steps)


def test_born_law_refuses_a_trace_other_than_1():
    for op in (QOperator.from_labels(1, {"I": 2, "Z": 1}), QOperator.from_labels(1, {"Z": 1}),
               QOperator.zero(1), T_STATE.scale(HALF)):
        for steps in ([], [z_point(1, 1)]):
            with pytest.raises(ValueError, match="trace 1"):
                born_distribution(op, steps)


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


def _reference_sample(initial, steps, seed: int, shots: int = 1) -> list[tuple]:
    """The state-keyed shot loop ``sample`` replaced, kept as its oracle:
    one table per (state, step) reached, looked up by the state itself."""
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise ValueError(f"shots must be a positive int, got {shots!r}")
    init_items, init_thresholds = _table(check_weights(initial))
    rng = random.Random(seed)
    steps = normalize_steps(steps, init_items[0].n)
    tables: list[dict] = [{} for _ in steps]
    transcripts = []
    for _ in range(shots):
        state = init_items[bisect_right(init_thresholds, rng.getrandbits(64))]
        acc: list[Optional[int]] = []
        for (point, cond), memo in zip(steps, tables):
            if not _condition_met(cond, acc):
                acc.append(None)
                continue
            table = memo.get(state)
            if table is None:
                table = memo[state] = _table(
                    (w, (s, piece)) for s, w, piece in _update_branch(state, point)
                    if w.sign() > 0
                )
            items, thresholds = table
            s, state = items[bisect_right(thresholds, rng.getrandbits(64))]
            acc.append(s)
        transcripts.append(tuple(acc))
    return transcripts


def test_sampling_deterministic_branch():
    asg = Assignment.from_pairs([(z_point(1, 1), 1)])
    c = CncSet.from_assignment(asg)
    for t in sample([(ONE, c)], [z_point(1, 1)], seed=3, shots=25):
        assert t == (1,)
    for shots in (0, -5, 2.5, "3", True, False, None):
        with pytest.raises(ValueError):
            sample([(ONE, c)], [z_point(1, 1)], seed=3, shots=shots)


def test_sampling_seed_must_be_an_int():
    c = cnc_vertices(1)[0]
    for seed in (None, True, False, 1.5, "7", b"7"):
        with pytest.raises(ValueError, match="seed"):
            sample([(ONE, c)], [z_point(1, 1)], seed=seed)
    assert sample([(ONE, c)], [z_point(1, 1)], seed=-3, shots=5) == \
        _reference_sample([(ONE, c)], [z_point(1, 1)], seed=-3, shots=5)


def test_iter_sample_checks_before_the_first_shot():
    init = decompose_known(T_STATE)
    steps = [z_point(1, 1), (x_point(1, 1), {0: 1})]
    stream = iter_sample(init, steps, seed=11, shots=40)
    assert list(stream) == sample(init, steps, seed=11, shots=40)
    # refused at the first transcript, with none drawn
    with pytest.raises(ValueError, match="shots"):
        next(iter_sample(init, steps, seed=11, shots=0))


def test_sampling_equal_states_that_are_not_the_same_objects():
    # a call keys its tables by the state, compared by value: a state equal
    # to one already reached, but another object, draws the same transcripts
    init = decompose_known(T_STATE)
    copies = [(w, pickle.loads(pickle.dumps(c))) for w, c in init]
    assert all(c == d and c is not d for (_, c), (_, d) in zip(init, copies))
    steps = [x_point(1, 1), z_point(1, 1), (y_point(1, 1), {0: 0, 1: 1})]
    want = _reference_sample(init, steps, seed=21, shots=300)
    assert sample(init, steps, seed=21, shots=300) == want
    assert sample(copies, steps, seed=21, shots=300) == want
    assert sample(init[:1] + copies[1:], steps, seed=21, shots=300) == want
    lifted, lsteps = _conditional_lifted_circuit()
    again, _ = _conditional_lifted_circuit()
    rebuilt = LiftState(again.engine, pickle.loads(pickle.dumps(again.inner)))
    assert rebuilt == lifted and rebuilt is not lifted and rebuilt.inner is not lifted.inner
    half = FieldElem(Fraction(1, 2))
    mixed = [(half, lifted), (half, rebuilt)]
    want = _reference_sample(mixed, lsteps, seed=4, shots=200)
    assert sample(mixed, lsteps, seed=4, shots=200) == want
    assert sample([(ONE, rebuilt)], lsteps, seed=4, shots=200) == \
        _reference_sample([(ONE, lifted)], lsteps, seed=4, shots=200)


def test_sample_builds_each_table_once_per_call(monkeypatch):
    # draw tables are memoized on (state, axis): within one call no pair's
    # table is built twice, even when its state is reached through another
    # equal object, and a second identical call builds none
    init = decompose_known(T_STATE)
    copies = [(w, pickle.loads(pickle.dumps(c))) for w, c in init]
    half = FieldElem(Fraction(1, 2))
    mixed = [(half * w, c) for w, c in init + copies]
    steps = [x_point(1, 1), (z_point(1, 1), {0: 1}), y_point(1, 1)]
    want = _reference_sample(mixed, steps, seed=8, shots=300)
    want_reversed = _reference_sample(mixed[::-1], steps, seed=8, shots=300)
    expanded = []
    branch = simulate._cached_branch

    def counting(state, a):
        # on cnc sets the sampler reads the branch rule only to build a table
        expanded.append((state, a))
        return branch(state, a)

    monkeypatch.setattr(simulate, "_cached_branch", counting)
    simulate._draw_table.cache_clear()
    assert sample(mixed, steps, seed=8, shots=300) == want
    assert expanded and len(set(expanded)) == len(expanded)
    assert simulate._draw_table.cache_info().misses == len(expanded)
    built = len(expanded)
    assert sample(mixed[::-1], steps, seed=8, shots=300) == want_reversed
    assert sample(mixed, steps, seed=8, shots=300) == want
    assert len(expanded) == built


SCALE = 1 << 64
coords = st.fractions(min_value=-2, max_value=2, max_denominator=64)
unit_values = st.one_of(
    st.sampled_from([ZERO, HALF, ONE, INV_SQRT2, FieldElem(Fraction(3, 2), -1)]),
    st.integers(0, SCALE).map(lambda k: FieldElem(Fraction(k, SCALE))),
    st.builds(FieldElem, coords, coords).filter(lambda x: ZERO <= x <= ONE),
)


@given(x=unit_values, r=st.integers(0, SCALE - 1))
def test_threshold_matches_exact_comparison(x, r):
    # u < ceil(2^64 x) exactly when u / 2^64 < x; at u = t - 1 and u = t
    # this pins t to the ceiling
    t = _threshold(x)
    for u in (t - 1, t, r):
        if 0 <= u < SCALE:
            assert (u < t) == (FieldElem(Fraction(u, SCALE)) < x)


@given(
    weights=st.lists(st.one_of(st.just(ZERO), unit_values), min_size=1, max_size=6),
    r=st.integers(0, SCALE - 1),
)
def test_table_never_draws_zero_weight(weights, r):
    # a table takes a law: weights of mass exactly 1, or it raises
    mass = sum(weights, ZERO)
    if mass != ONE:
        with pytest.raises(RuntimeError, match="not 1"):
            _table((w, i) for i, w in enumerate(weights))
        if mass.is_zero():
            return
        weights = [w / mass for w in weights]
    items, thresholds = _table((w, i) for i, w in enumerate(weights))
    assert thresholds[-1] == SCALE
    cumulative = [sum(weights[: i + 1], ZERO) for i in range(len(weights))]
    assert thresholds == tuple(_threshold(c) for c in cumulative)
    for u in {0, r, SCALE - 1, *(t for t in thresholds if t < SCALE)}:
        assert weights[items[bisect_right(thresholds, u)]].sign() > 0


def test_table_refuses_a_mass_other_than_one():
    third = FieldElem(Fraction(1, 3))
    for weighted in ([], [(ZERO, 0)], [(HALF, 0)], [(HALF, 0), (HALF, 1), (third, 2)],
                     [(INV_SQRT2, 0), (INV_SQRT2, 1)]):
        with pytest.raises(RuntimeError, match="not 1"):
            _table(weighted)
    assert _table([(ZERO, 0), (ONE, 1), (ZERO, 2)]) == ((0, 1, 2), (0, SCALE, SCALE))


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
    # a condition names an earlier step and asks for the int outcome 0 or 1
    for cond in ({"1": 0}, {"2": 0}, {"-1": 0}, {"0": 2}, {"0": "1"}, {"0": True}, {"0": 1.0}):
        with pytest.raises(ValueError):
            steps_from_json([{"measure": "XI"}, {"measure": "IZ", "if": cond}], 2)
    # two keys that int() reads as one step index: the second is no index
    with pytest.raises(ValueError, match=r"^step 1: condition key '00' is not a step index$"):
        steps_from_json([{"measure": "XI"}, {"measure": "IZ", "if": {"0": 1, "00": 0}}], 2)
    with pytest.raises(ValueError):
        exact_distribution([(ONE, cnc_vertices(1)[0])], [(z_point(1, 1), {0: 1})])


#: condition keys that int() reads as step 0, 0, 0, 0, 10 and 1
LOOSE_STEP_KEYS = ["+0", " 0 ", "0_0", "\u0660", "1_0", "01"]


@pytest.mark.parametrize("key", LOOSE_STEP_KEYS)
def test_condition_keys_are_plain_decimal_indices(key):
    # on step 11 each key would name an earlier step; only the plain
    # decimal spelling of that step is read
    head = [{"measure": "X"}] * 11
    message = rf"^step 11: condition key {re.escape(repr(key))} is not a step index$"
    with pytest.raises(ValueError, match=message):
        steps_from_json(head + [{"measure": "Z", "if": {key: 1}}], 1)
    plain = str(int(key))
    assert steps_from_json(head + [{"measure": "Z", "if": {plain: 1}}], 1)[11][1] == {int(key): 1}
    with pytest.raises(ValueError, match="is not a step index"):
        steps_from_json(head + [{"measure": "Z", "if": {int(key): 1}}], 1)


@pytest.mark.parametrize(
    "bad",
    ["XZ", (x_point(1, 1), 5), None, 3, "X", (x_point(1, 1),), [x_point(1, 1), None],
     (x_point(1, 1), None, None), ("Z", None), (x_point(1, 1), {0: True}),
     (x_point(1, 1), {0: 1.0}), (x_point(1, 1), {False: 0})],
)
def test_malformed_steps_rejected_by_index(bad):
    steps = [z_point(1, 1), bad]
    init = [(ONE, cnc_vertices(1)[0])]
    with pytest.raises(ValueError, match="step 1"):
        normalize_steps(steps, 1)
    with pytest.raises(ValueError, match="step 1"):
        exact_distribution(init, steps)
    with pytest.raises(ValueError, match="step 1"):
        sample(init, steps, seed=1)


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
    init = [(Fraction(1, 2), c0), (Fraction(1, 2), c1), (0, c1)]
    assert total(exact_distribution(init, [z])) == ONE
    # inexact weights are refused as such, not as a puzzling exact sum
    for init in ([(0.1, c0), (0.9, c1)], [("1/2", c0), ("1/2", c1)]):
        with pytest.raises(ValueError, match="ints and Fractions only"):
            exact_distribution(init, [z])
        with pytest.raises(ValueError, match="ints and Fractions only"):
            sample(init, [z], seed=1)


# -- differential: exact, Born, reduced and sampled laws on one circuit ------

GENERATORS3 = generator_tableaux(3)
INNER = {1: cnc_vertices(1), 2: cnc_vertices(2) + list(enumerate_family())}


@st.composite
def lifted_states(draw):
    m = draw(st.sampled_from((1, 2)))
    _, tail = draw(st.sampled_from(enumerate_stabilizer_states(3 - m)))
    U = CliffordTableau.identity(3)
    for g in draw(st.lists(st.sampled_from(GENERATORS3), max_size=6)):
        U = g.compose(U)
    engine = ReductionEngine(3, m, embed_tail_assignment(tail, 3, m), U)
    return LiftState(engine, draw(st.sampled_from(INNER[m])))


CNC3_SHAPES = maximal_cnc_sets(3)
GENERATORS2 = generator_tableaux(2)


@st.composite
def cnc3_vertices(draw):
    omega = draw(st.sampled_from(CNC3_SHAPES))
    return CncSet(omega, draw(st.sampled_from(consistent_assignments(omega))))


@st.composite
def moved_members(draw, X):
    """The two-qubit operator state X moved by a word of Cliffords."""
    for g in draw(st.lists(st.sampled_from(GENERATORS2), max_size=6)):
        X = g.conjugate(X)
    return X


@st.composite
def circuits(draw):
    """An initial state (cnc set on n <= 3, family member, Lambda_2 member
    operator moved by a Clifford word, or lift to n = 3) and an adaptive
    step list whose conditions name earlier steps."""
    state = draw(st.one_of(
        st.sampled_from(cnc_vertices(1) + cnc_vertices(2)),
        cnc3_vertices(),
        st.sampled_from(enumerate_family()),
        moved_members(alpha0_vertex()),  # the family orbit
        st.deferred(lambda: moved_members(OUTSIDE_HULL)),  # the second orbit, defined below
        lifted_states(),
    ))
    points = all_points(state.n, include_zero=False)
    steps = []
    for i in range(draw(st.integers(0, 4))):
        cond = draw(st.dictionaries(st.integers(0, i - 1), st.integers(0, 1), max_size=2)
                    if i else st.none())
        steps.append((draw(st.sampled_from(points)), cond or None))
    return state, steps


def _conditional_lifted_circuit():
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    engine = ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1), CliffordTableau.cnot(2, 1, 2))
    coin, head = x_point(2, 2), x_point(2, 1) ^ z_point(2, 2)
    return LiftState(engine, cnc_vertices(1)[3]), [(coin, None), (head, {0: 1}), (coin, {1: 0})]


def _seeded_steps(gen, n, length):
    """Seeded steps on n qubits, each conditioned on up to two earlier ones."""
    points = all_points(n, include_zero=False)
    steps = []
    for i in range(length):
        cond = {j: gen.randint(0, 1) for j in gen.sample(range(i), min(i, gen.randint(0, 2)))}
        steps.append((gen.choice(points), cond or None))
    return steps


def _n3_cnc_circuits(gen, count):
    """Seeded adaptive circuits of four steps on three-qubit cnc vertices,
    drawn from the maximal sets without building all of cnc_vertices(3)."""
    shapes = maximal_cnc_sets(3)
    out = []
    for _ in range(count):
        omega = gen.choice(shapes)
        state = CncSet(omega, gen.choice(consistent_assignments(omega)))
        out.append((state, _seeded_steps(gen, 3, 4)))
    return out


def _with_n3_cnc_examples(test):
    for i, circuit in enumerate(_n3_cnc_circuits(random.Random(3), 8)):
        test = example(circuit=circuit, seed=i)(test)
    return test


def _flipped_head_circuits(gen, count):
    """Seeded lifts to n = 3 whose first step is a head step with flip 1 on
    an axis where the inner's outcome is not fair, so that the tail sign
    changes the law, then four seeded adaptive steps."""
    out = []
    while len(out) < count:
        m = gen.choice((1, 2))
        tail = gen.choice(enumerate_stabilizer_states(3 - m))[1]
        U = CliffordTableau.identity(3)
        for _ in range(6):
            U = gen.choice(GENERATORS3).compose(U)
        engine = ReductionEngine(3, m, embed_tail_assignment(tail, 3, m), U)
        inner = gen.choice(INNER[m])
        rho = state_operator(inner)
        for a in all_points(3, include_zero=False):
            step = engine.process(a)
            if (isinstance(step, MeasureStep) and step.flip
                    and born_distribution(rho, [step.point]).get((0,), ZERO) != HALF):
                rest = [(p, cond and {j + 1: b for j, b in cond.items()})
                        for p, cond in _seeded_steps(gen, 3, 4)]
                out.append((LiftState(engine, inner), [(a, None), *rest]))
                break
    return out


def _with_flipped_head_examples(test):
    for i, circuit in enumerate(_flipped_head_circuits(random.Random(47), 6)):
        test = example(circuit=circuit, seed=i)(test)
    return test


@settings(max_examples=120, deadline=None, derandomize=True)
@given(circuit=circuits(), seed=st.integers(0, 2**32))
@example(circuit=_conditional_lifted_circuit(), seed=5)
@_with_n3_cnc_examples
@_with_flipped_head_examples
def test_laws_agree_on_adaptive_circuits(circuit, seed):
    state, steps = circuit
    rho = state_operator(state)
    dist = exact_distribution([(ONE, state)], steps)
    assert dist == born_distribution(rho, steps)
    assert total(dist) == ONE
    if isinstance(state, LiftState):
        head = state_operator(state.inner)
        assert reduced_distribution(head, state.engine, steps) == dist
    shots = sample([(ONE, state)], steps, seed=seed, shots=8)
    assert shots == sample([(ONE, state)], steps, seed=seed, shots=8)
    assert shots == _reference_sample([(ONE, state)], steps, seed=seed, shots=8)
    for t in shots:
        assert t in dist
        for i, (_, cond) in enumerate(steps):
            met = all(t[j] == want for j, want in (cond or {}).items())
            assert (t[i] is None) == (not met)


def _seeded_lifted_laws(gen, count):
    """Seeded lifts to n = 3 (m = 1 and 2, cnc and family inners) with
    adaptive circuits of five steps."""
    out = []
    for _ in range(count):
        m = gen.choice((1, 2))
        tail = gen.choice(enumerate_stabilizer_states(3 - m))[1]
        U = CliffordTableau.identity(3)
        for _ in range(6):
            U = gen.choice(GENERATORS3).compose(U)
        engine = ReductionEngine(3, m, embed_tail_assignment(tail, 3, m), U)
        out.append((LiftState(engine, gen.choice(INNER[m])), _seeded_steps(gen, 3, 5)))
    return out


def test_lifted_memo_classifies_each_state_and_axis_once(monkeypatch):
    # one memo entry per (state, axis) holds both outcomes: a lifted miss
    # runs `process` once, and the memo holds exactly the pairs asked for
    processed, asked, kinds = [], [], set()
    process = ReductionEngine.process

    def counting_process(engine, a):
        processed.append((engine, a))
        step = process(engine, a)
        kinds.add(type(step).__name__)
        return step

    def counting_branch(state, a):
        asked.append((state, a))
        return _update_branch(state, a)

    monkeypatch.setattr(ReductionEngine, "process", counting_process)
    monkeypatch.setattr(simulate, "_update_branch", counting_branch)
    for state, steps in _seeded_lifted_laws(random.Random(3633), 6):
        simulate._cached_branch.cache_clear()
        processed.clear()
        asked.clear()
        dist = exact_distribution([(ONE, state)], steps)
        assert dist == born_distribution(state_operator(state), steps)
        pairs = set(asked)
        lifted = Counter((s.engine, a) for s, a in pairs if isinstance(s, LiftState))
        info = simulate._cached_branch.cache_info()
        assert info.currsize == info.misses == len(pairs)
        assert Counter(processed) == lifted and len(processed) > 0
        # children come in outcome order, a head step's flip included, so
        # seeded draws read the tables in the order they always have
        for pair in pairs:
            outcomes = [s for s, _, _ in simulate._cached_branch(*pair)]
            assert outcomes == sorted(outcomes)
        # later reads of any pair are hits, and run no `process`
        again = exact_distribution([(ONE, state)], steps)
        assert again == dist and Counter(processed) == lifted
        assert simulate._cached_branch.cache_info().currsize == len(pairs)
    assert kinds == {"FixedStep", "CoinStep", "MeasureStep"}


def test_laws_and_cli_run_circuits_deeper_than_the_recursion_limit(tmp_path, capsys):
    # one child per node, 2 000 steps deep; `iter_sample` has always run
    # such a circuit, and the laws must too
    plus_z = {"type": "stabilizer", "generators": ["+Z"]}
    init = descriptor_from_json(plus_z)
    steps = [z_point(1, 1)] * 2000
    want = {(0,) * 2000: ONE}
    assert exact_distribution(init, steps) == want
    assert born_distribution(init[0][1].operator(), steps) == want
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    engine = ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1))
    lifted = [z_point(2, 1), z_point(2, 2)] * 1000  # head Born steps and fixed tail steps
    assert reduced_distribution(init[0][1].operator(), engine, lifted) == want
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 1, "initial": plus_z, "steps": [{"measure": "Z"}] * 2000}))
    assert main(["simulate", str(path), "--exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["distribution"] == [{"outcomes": [0] * 2000, "probability": "1"}]


def test_laws_refuse_a_step_of_another_width_up_front():
    # outcome 1 of X has weight 0 on |+>, so no walk reaches the ZZ step
    plus_x = descriptor_from_json({"type": "stabilizer", "generators": ["+X"]})
    steps = [x_point(1, 1), (z_point(2, 1) ^ z_point(2, 2), {0: 1})]
    laws = [
        lambda: born_distribution(plus_x[0][1].operator(), steps),
        lambda: exact_distribution(plus_x, steps),
        lambda: sample(plus_x, steps, seed=1),
        lambda: next(iter_sample(plus_x, steps, seed=1)),
    ]
    for law in laws:
        with pytest.raises(ValueError, match="step 1"):
            law()
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    engine = ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1))
    lifted = [x_point(2, 1), (PauliPoint.from_label("ZZZ"), {0: 1})]
    with pytest.raises(ValueError, match="step 1"):
        reduced_distribution(plus_x[0][1].operator(), engine, lifted)
    # an initial state whose width differs from its steps', or from another state's
    with pytest.raises(ValueError, match="step 0"):
        exact_distribution(plus_x, [z_point(2, 1)])
    mixed = [(HALF, plus_x[0][1]), (HALF, cnc_vertices(2)[0])]
    for law in (exact_distribution, lambda init, s: sample(init, s, seed=1)):
        with pytest.raises(ValueError, match="qubit count"):
            law(mixed, [x_point(1, 1)])


# -- member states: a trace-1 member on n <= 2 is its own state ------------

#: a vertex of Lambda_2 outside the hull of the cnc vertices and the family
OUTSIDE_HULL = QOperator.from_labels(2, {
    "II": 1, "XX": -1, "XY": 1, "ZI": Fraction(1, 2), "YI": Fraction(1, 2),
    "YX": Fraction(1, 2), "ZZ": Fraction(1, 2), "YZ": Fraction(1, 2), "YY": Fraction(1, 2),
    "ZX": Fraction(-1, 2), "ZY": Fraction(-1, 2),
})
T_T = T_STATE.tensor(T_STATE)
#: members by qubit count, in groups a mixture draws from evenly
MEMBERS = {
    1: ([c.operator() for c in cnc_vertices(1)], [T_STATE]),
    2: ([c.operator() for c in cnc_vertices(2)], [v.operator() for v in enumerate_family()],
        [T_T, OUTSIDE_HULL]),
}


def test_sample_equals_the_reference_sampler():
    # seeded circuits with conditions on cnc sets, family members and
    # member operators at n = 1 and 2, alone and in mixtures with pickled
    # copies, a conditional lifted circuit, and one-path circuits 2 000
    # steps deep
    gen = random.Random(3737)
    quarter = FieldElem(Fraction(1, 4))
    cases = []
    for n, groups in ((1, (cnc_vertices(1), [T_STATE])),
                      (2, (cnc_vertices(2), enumerate_family(), [T_T, OUTSIDE_HULL]))):
        states = [state for group in groups for state in group]
        for a in (a for group in groups for a in gen.sample(group, min(2, len(group)))):
            b, copy = gen.choice(states), pickle.loads(pickle.dumps(a))
            for init in ([(ONE, a)], [(quarter, a), (HALF, b), (quarter, copy)]):
                cases.append((init, _seeded_steps(gen, n, 6), 300))
    lifted, lsteps = _conditional_lifted_circuit()
    cases.append(([(ONE, lifted)], lsteps, 300))
    plus_z = descriptor_from_json({"type": "stabilizer", "generators": ["+Z"]})
    cases.append((plus_z, [z_point(1, 1)] * 2000, 200))
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    engine = ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1))
    deep = [(ONE, LiftState(engine, plus_z[0][1]))]
    cases.append((deep, [z_point(2, 1), z_point(2, 2)] * 1000, 200))
    skipped = 0
    for i, (init, steps, shots) in enumerate(cases):
        got = sample(init, steps, seed=i, shots=shots)
        assert got == _reference_sample(init, steps, seed=i, shots=shots)
        skipped += sum(t.count(None) for t in got)
    assert skipped > 0
    assert sample(plus_z, [z_point(1, 1)] * 2000, seed=0, shots=200) == [(0,) * 2000] * 200


def test_sample_past_a_full_tree_equals_the_reference_sampler(monkeypatch):
    # once a call's tree is full, a shot that leaves it finishes step by
    # step; whatever node it leaves from, conditional, lifted and mixed
    # circuits draw the same transcripts (rooms 12, 13, 15, 16 and 20 fill
    # the tree inside a run of one-item steps)
    gen = random.Random(3738)
    quarter = FieldElem(Fraction(1, 4))
    a, b = cnc_vertices(2)[5], enumerate_family()[0]
    lifted, lsteps = _conditional_lifted_circuit()
    cases = [
        ([(ONE, T_STATE)], _seeded_steps(gen, 1, 8)),
        ([(quarter, a), (HALF, b), (quarter, pickle.loads(pickle.dumps(a)))],
         _seeded_steps(gen, 2, 6)),
        ([(ONE, T_T)], _seeded_steps(gen, 2, 5)),
        ([(ONE, lifted)], lsteps),
    ]
    want = [_reference_sample(init, steps, seed=i, shots=150) for i, (init, steps) in enumerate(cases)]
    for room in (0, 1, 2, 7, 12, 13, 15, 16, 20, 40,
                 *(len(steps) + d for _, steps in cases for d in (0, 1))):
        monkeypatch.setattr(simulate, "_TREE_NODES", room)
        for i, (init, steps) in enumerate(cases):
            assert sample(init, steps, seed=i, shots=150) == want[i]


def test_sample_grows_each_node_and_leaf_once(monkeypatch):
    # a shot leaves the grown nodes exactly when its path, leaf included,
    # did not fit: counted as the calls that finish a shot
    finished = []
    finish = simulate._Call.finish
    monkeypatch.setattr(simulate._Call, "finish",
                        lambda call, node, k: finished.append(k) or finish(call, node, k))
    plus_z = descriptor_from_json({"type": "stabilizer", "generators": ["+Z"]})
    z, x = z_point(1, 1), x_point(1, 1)
    # one path: three executed steps, each after the first right after a
    # skipped one, then the leaf
    steps = [z, (x, {0: 1}), z, (x, {2: 1}), z]
    for room, calls in ((4, 1), (9, 1), (3, 20), (2, 20), (1, 20), (0, 20)):
        monkeypatch.setattr(simulate, "_TREE_NODES", room)
        finished.clear()
        assert sample(plus_z, steps, seed=0, shots=20) == [(0, None, 0, None, 0)] * 20
        assert len(finished) == calls
    # eight paths of three steps: 7 nodes and 8 leaves; one unit short, the
    # shots of one path all leave the tree
    steps = [x, z, x]
    for room, fits in ((15, True), (14, False)):
        monkeypatch.setattr(simulate, "_TREE_NODES", room)
        finished.clear()
        got = sample(plus_z, steps, seed=1, shots=200)
        assert got == _reference_sample(plus_z, steps, seed=1, shots=200) and len(set(got)) == 8
        assert (len(finished) == 8) == fits and len(finished) >= 8


def test_a_wide_draw_is_the_64_bit_draws_it_replaces():
    # the outcome tree draws 64 * r bits at once where a shot once made r
    # draws of 64; seeded transcripts hold only because CPython fills a
    # wide draw lowest word first, from the same stream
    for seed in (0, 1, 7, 4103, 2**70 + 5, -12):
        for r in range(1, 6):
            wide, narrow = random.Random(seed), random.Random(seed)
            parts = [narrow.getrandbits(64) for _ in range(r)]
            assert wide.getrandbits(64 * r) == sum(u << 64 * j for j, u in enumerate(parts))
            assert wide.getrandbits(64) == narrow.getrandbits(64)


def _runs_of_certain_steps():
    """Circuits whose paths hold runs of one-item steps: at the start, in
    the middle and at the end of a path, with skipped steps inside a run,
    on a stabilizer state, a mixture of cnc sets and a lift with fixed
    steps and a coin."""
    plus_z = descriptor_from_json({"type": "stabilizer", "generators": ["+Z"]})
    z, x = z_point(1, 1), x_point(1, 1)
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    lifted = LiftState(ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1)), T_STATE)
    fixed, coin = z_point(2, 2), x_point(2, 2)
    head_x, head_z = x_point(2, 1), z_point(2, 1)
    return [
        (plus_z, [z, z, x, x, x, z, z, z, x, x, x]),
        (plus_z, [x, x, (z, {0: 1}), x, (z, {1: 1}), x, z, (x, {6: 0}), z, z]),
        (decompose_known(T_STATE), [z, z, x, z, z, (x, {2: 1}), z, x, x]),
        ([(ONE, lifted)], [fixed, fixed, head_x, fixed, head_x, head_z, coin, coin,
                           (fixed, {6: 0}), head_z, fixed]),
    ]


def test_runs_of_certain_steps_draw_as_the_reference_sampler(monkeypatch):
    # a run of one-item steps is merged into the node after it, or into its
    # own last step; at every tree size, the run cut short by a full tree
    # among them, each shot draws the reference transcript from as many
    # bits as one 64-bit draw per executed step, and wide draws occur
    cases = _runs_of_certain_steps()
    want = [_reference_sample(init, steps, seed=i, shots=150) for i, (init, steps) in enumerate(cases)]
    widths = []

    class Counted(random.Random):
        def getrandbits(self, k):
            widths.append(k)
            return super().getrandbits(k)

    ends = []
    end_run = simulate._Call.end_run

    def counted_end(call, run, items, cell, slot):
        ends.append((run, slot is simulate._UNGROWN))
        return end_run(call, run, items, cell, slot)

    monkeypatch.setattr(simulate.random, "Random", Counted)
    monkeypatch.setattr(simulate._Call, "end_run", counted_end)
    for room in (*range(40), 1 << 12):
        monkeypatch.setattr(simulate, "_TREE_NODES", room)
        for i, (init, steps) in enumerate(cases):
            widths.clear()
            got = sample(init, steps, seed=i, shots=150)
            assert got == want[i]
            assert sum(widths) == 64 * sum(1 + len(t) - t.count(None) for t in got)
            assert room < 3 or max(widths) > 64
    # runs of two steps or more ended the path, and were cut short
    assert {(run > 1, cut) for run, cut in ends} == {(True, True), (True, False),
                                                      (False, True), (False, False)}


def test_sampling_never_changes_a_memoized_table(monkeypatch):
    # a call's nodes and draws read ``_draw_table``'s own tuples: at every
    # tree size, each (state, axis) entry stays the object it was, with the
    # items and thresholds it had
    seen = {}
    memo = simulate._draw_table

    def recorded(state, a):
        table = memo(state, a)
        assert seen.setdefault((state, a), table) is table
        return table

    monkeypatch.setattr(simulate, "_draw_table", recorded)
    lifted, lsteps = _conditional_lifted_circuit()
    cases = _runs_of_certain_steps() + [([(ONE, lifted)], lsteps)]
    want = [sample(init, steps, seed=i, shots=150) for i, (init, steps) in enumerate(cases)]
    snapshot = {key: (list(items), list(thresholds)) for key, (items, thresholds) in seen.items()}
    for room in (*range(40), 1 << 12):
        monkeypatch.setattr(simulate, "_TREE_NODES", room)
        for i, (init, steps) in enumerate(cases):
            assert sample(init, steps, seed=i, shots=150) == want[i]
    assert seen.keys() == snapshot.keys() and len(seen) > 20
    for key, (items, thresholds) in seen.items():
        assert type(items) is tuple and type(thresholds) is tuple
        assert (list(items), list(thresholds)) == snapshot[key]
        assert memo(*key) == (items, thresholds) and memo(*key)[0] is items


def test_a_certain_root_is_drawn_for_by_the_first_node(monkeypatch):
    # a one-item initial table starts the run of one-item steps after it:
    # +Z under three Z steps, or under none, draws once per shot; a root of
    # two items still draws on its own, then once for the run after it
    widths = []

    class Counted(random.Random):
        def getrandbits(self, k):
            widths.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(simulate.random, "Random", Counted)
    plus_z = descriptor_from_json({"type": "stabilizer", "generators": ["+Z"]})
    z = z_point(1, 1)
    for steps in ([z, z, z], []):
        widths.clear()
        assert sample(plus_z, steps, seed=5, shots=1000) == [(0,) * len(steps)] * 1000
        assert widths == [64 + 64 * len(steps)] * 1000
    init = decompose_known(T_STATE)
    want = _reference_sample(init, [z], 5, 1000)
    widths.clear()
    assert sample(init, [z], seed=5, shots=1000) == want
    assert widths == [64] * 2000


def test_sample_memory_does_not_grow_with_shots():
    # T under alternating X and Z measurements: nearly every shot takes a
    # path no earlier shot took, so past the tree's bound a call keeps only
    # its tables, and four times the shots peak no higher
    import tracemalloc

    init = decompose_known(T_STATE)
    steps = [(x_point if i % 2 else z_point)(1, 1) for i in range(40)]
    for _ in iter_sample(init, steps, seed=1, shots=50):
        pass
    peaks = []
    for shots in (1500, 6000):
        tracemalloc.start()
        for _ in iter_sample(init, steps, seed=2, shots=shots):
            pass
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


@st.composite
def member_mixtures(draw):
    """An exact convex mixture of one to four members on one qubit (cnc
    vertices and T) or two (cnc vertices, family members, T (x) T and the
    outside-hull vertex)."""
    n = draw(st.sampled_from((1, 2)))
    member = st.one_of(*map(st.sampled_from, MEMBERS[n]))
    terms = draw(st.lists(st.tuples(st.integers(1, 6), member), min_size=1, max_size=4))
    total = sum(w for w, _ in terms)
    X = QOperator.zero(n)
    for w, A in terms:
        X = X + A.scale(Fraction(w, total))
    return X


def _assert_updates_are_projections(X):
    """Every (axis, outcome): positive weights on cnc sets with gamma(a) = s,
    summing to the outcome probability, and the pieces sum to the projection."""
    for a in all_points(X.n, include_zero=False):
        for s in (0, 1):
            projected = X.project(a, s)
            pieces = simulate.update_state(X, a, s)
            total_op = QOperator.zero(X.n)
            for w, piece in pieces:
                assert w.sign() > 0 and isinstance(piece, CncSet) and piece.gamma[a] == s
                total_op = total_op + piece.operator().scale(w)
            assert total_op == projected
            assert sum((w for w, _ in pieces), ZERO) == projected.trace()


def test_outside_hull_vertex_is_a_member_no_known_pool_holds():
    assert membership(OUTSIDE_HULL).is_member and is_vertex(OUTSIDE_HULL) == (True, 15)
    with pytest.raises(ValueError, match=r"the cnc vertices, then the family; simulate takes "
                                         r"the operator as a member state"):
        decompose_known(OUTSIDE_HULL)
    # on one qubit the cnc vertices are the only pool (they hold every member)
    with pytest.raises(ValueError, match=r"over the cnc vertices; simulate takes"):
        decompose_known(QOperator.from_labels(1, {"I": 1, "X": 3}))
    assert descriptor_from_json({"type": "operator", **OUTSIDE_HULL.to_json()}) == [
        (ONE, MemberState(OUTSIDE_HULL))]


def test_outside_hull_vertex_has_a_second_orbit_of_half_integer_vertices():
    # the family is one Clifford orbit of 1 920 vertices; this vertex's
    # orbit is another, of 5 760, with expectations in {0, +-1/2, +-1}
    twice = {k: 2 * p // OUTSIDE_HULL._den for k, (p, _) in OUTSIDE_HULL._num.items()}
    orbit = coefficient_orbit(2, twice)
    assert len(orbit) == 5760 and orbit.isdisjoint(family_operator_keys())
    members = [
        QOperator(2, {PauliPoint.from_key(2, k): FieldElem(Fraction(v, 2)) for k, v in pairs})
        for pairs in sorted(orbit)
    ]
    assert OUTSIDE_HULL in members
    for X in members:
        with pytest.raises(ValueError):
            classify_operator(X)
    gen = random.Random(5760)
    for X in gen.sample(members, 12):
        cert = membership(X)
        assert cert.is_member and is_vertex(X, cert) == (True, 15)
    for X in gen.sample(members, 3):
        init = descriptor_from_json({"type": "operator", **X.to_json()})
        for _ in range(4):
            steps = _seeded_steps(gen, 2, 4)
            assert exact_distribution(init, steps) == born_distribution(X, steps)


def test_member_updates_are_projections_on_named_members():
    # the 432 two-qubit cnc vertices, T (x) T, the outside-hull vertex, and
    # on one qubit the eight corners and T; the 1 920 family members update
    # by the same chain in the sweep of `helpers.verify_update_rules`
    for X in [*MEMBERS[2][0], T_T, OUTSIDE_HULL, *enumerate_vertices_n1(), T_STATE]:
        _assert_updates_are_projections(X)


@settings(max_examples=60, deadline=None)
@given(member_mixtures())
def test_member_updates_are_projections_on_mixtures(X):
    _assert_updates_are_projections(X)


def _adaptive_steps(n):
    """One to four steps on n qubits whose conditions name earlier steps."""
    points = all_points(n, include_zero=False)

    @st.composite
    def steps(draw):
        out = []
        for i in range(draw(st.integers(1, 4))):
            cond = draw(st.dictionaries(st.integers(0, i - 1), st.integers(0, 1), max_size=2)
                        if i else st.none())
            out.append((draw(st.sampled_from(points)), cond or None))
        return out

    return steps()


@settings(max_examples=300, deadline=None)
@given(steps=_adaptive_steps(2), seed=st.integers(0, 2**32))
def test_laws_agree_on_the_outside_hull_vertex(steps, seed):
    dist = exact_distribution([(ONE, OUTSIDE_HULL)], steps)
    assert dist == born_distribution(OUTSIDE_HULL, steps)
    for t in sample([(ONE, OUTSIDE_HULL)], steps, seed=seed, shots=8):
        assert t in dist


def test_member_states_read_and_run_without_a_pool_or_simplex(monkeypatch):
    from lambda_forge import cnc, orbit, polytope, simplex

    for module, name in ((polytope, "decompose"), (simplex, "solve_feasibility"),
                         (cnc, "cnc_vertices"), (orbit, "enumerate_family")):
        original = getattr(module, name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("lambda_forge") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)
    t1 = {"type": "operator", **T_STATE.to_json()}
    descriptors = [
        (t1, [x_point(1, 1), z_point(1, 1)]),
        ({"type": "operator", **T_T.to_json()}, [x_point(2, 1), z_point(2, 2)]),
        ({"type": "operator", **alpha0_vertex().to_json()}, [x_point(2, 1), z_point(2, 2)]),
        ({"type": "operator", **OUTSIDE_HULL.to_json()}, [x_point(2, 1), z_point(2, 2)]),
        ({"type": "lift", "sigma": {"generators": ["+X"]}, "inner": t1},
         [x_point(2, 1), x_point(2, 2)]),
        ({"type": "mixture", "terms": [
            {"weight": "1/2", "state": t1},
            {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["+Z"]}}]},
         [x_point(1, 1), y_point(1, 1)]),
    ]
    for doc, steps in descriptors:
        init = descriptor_from_json(doc)
        rho = QOperator.zero(init[0][1].n)
        for w, state in init:
            rho = rho + state_operator(state).scale(w)
        assert exact_distribution(init, steps) == born_distribution(rho, steps)
        assert len(sample(init, steps, seed=1, shots=16)) == 16


def test_member_state_json_round_trips():
    def round_trip(doc):
        return descriptor_from_json(json.loads(json.dumps(doc)))

    tail = Assignment.from_pairs([(z_point(1, 1), 1)])
    third = FieldElem(Fraction(1, 3))
    for X in (T_STATE, T_T, OUTSIDE_HULL):
        state, n = MemberState(X), X.n
        doc = state_to_descriptor_json(state)
        assert doc == {"type": "operator", **X.to_json()}
        assert round_trip(doc) == [(ONE, state)]
        assert state_operator(state) is X
        # inside a mixture, as a lift inner and inside a nested lift
        other = cnc_vertices(n)[1]
        assert round_trip({"type": "mixture", "terms": [
            {"weight": "1/3", "state": doc},
            {"weight": "2/3", "state": state_to_descriptor_json(other)},
        ]}) == [(third, state), (ONE - third, other)]
        lifted = LiftState(ReductionEngine(n + 1, n, embed_tail_assignment(tail, n + 1, n),
                                           CliffordTableau.cnot(n + 1, 1, n + 1)), state)
        nested = LiftState(ReductionEngine(n + 2, n + 1, embed_tail_assignment(tail, n + 2, n + 1)),
                           lifted)
        for L in (lifted, nested):
            assert round_trip(state_to_descriptor_json(L)) == [(ONE, L)]


def test_an_operator_state_is_certified_once(monkeypatch):
    # `membership` runs once per operator state, when its MemberState is
    # built: on decode, on building a lift of a bare QOperator, or on entry
    # of a bare QOperator to a law or the sampler; a law, a draw or a memo
    # miss on a built state runs none
    runs = []
    certify = simulate.membership
    monkeypatch.setattr(simulate, "membership", lambda op: runs.append(op) or certify(op))
    X = alpha0_vertex()
    doc = {"type": "operator", **X.to_json()}
    steps = [x_point(2, 1), z_point(2, 2), (y_point(2, 1), {0: 1}), x_point(2, 2)]
    simulate._cached_branch.cache_clear()
    simulate._draw_table.cache_clear()
    init = descriptor_from_json(doc)
    exact_distribution(init, steps)
    sample(init, steps, seed=1, shots=100)
    assert runs == [X]
    for wrapped in ({"type": "mixture", "terms": [{"weight": 1, "state": doc}]},
                    {"type": "lift", "sigma": {"generators": ["+X"]}, "inner": doc}):
        runs.clear()
        descriptor_from_json(wrapped)
        assert runs == [X]
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    runs.clear()
    inner = LiftState(ReductionEngine(3, 2, embed_tail_assignment(tail, 3, 2)), X)
    outer = LiftState(ReductionEngine(4, 3, embed_tail_assignment(tail, 4, 3)), inner)
    assert runs == [X] and isinstance(inner.inner, MemberState) and inner.inner.op is X
    gen = random.Random(42)
    for state in (X, inner, outer):
        for length in (0, 1, 4):
            steps = _seeded_steps(gen, state.n, length)
            for law in (exact_distribution, lambda init, steps: sample(init, steps, seed=2)):
                runs.clear()
                law([(ONE, state)], steps)
                assert runs == ([X] if state is X else [])
    # update_state on the hand-built lift never certifies its inner again
    simulate._cached_branch.cache_clear()
    runs.clear()
    for s in (0, 1):
        for a in all_points(3, include_zero=False):
            simulate.update_state(inner, a, s)
    assert runs == []
    state = MemberState(X)
    entered = LiftState(inner.engine, state)
    assert simulate._enter(entered) is entered
    runs.clear()
    simulate._cached_branch.cache_clear()
    for a in all_points(2, include_zero=False):
        simulate._cached_branch(state, a)
    assert simulate._cached_branch.cache_info().misses == 15 and runs == []


def test_member_states_refuse_what_is_not_a_member():
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    outside = [QOperator.from_labels(1, {"I": 1, "X": 3}), A0.tensor(A0)]
    for X in outside:
        facet = membership(X).violation
        assert facet is not None
        want = f"^the operator is not a polytope member: violated facet {re.escape(facet)}$"
        with pytest.raises(ValueError, match=want):
            descriptor_from_json({"type": "operator", **X.to_json()})
        with pytest.raises(ValueError, match=want):
            simulate.update_state(X, x_point(X.n, 1), 0)
    for X, words in ((T_T.scale(2), "needs trace 1, got 2"),
                     (T_T.tensor(T_STATE), "only for n <= 2, got n = 3")):
        with pytest.raises(ValueError, match=re.escape(words)):
            descriptor_from_json({"type": "operator", **X.to_json()})
        with pytest.raises(ValueError, match=re.escape(words)):
            simulate.update_state(X, x_point(X.n, 1), 0)
    with pytest.raises(ValueError, match="nonzero"):
        simulate.update_state(T_STATE, PauliPoint.zero(1), 0)
    with pytest.raises(ValueError, match="unknown descriptor"):
        simulate.update_state(alpha0_vertex().coeffs, x_point(2, 1), 0)
    # the sampler reads the memoized branch rule, not update_state: an
    # initial object that is not a state is refused before any draw
    for law in (exact_distribution, lambda init, steps: sample(init, steps, seed=1)):
        with pytest.raises(ValueError, match="unknown descriptor PauliPoint"):
            law([(ONE, x_point(1, 1))], [z_point(1, 1)])


def test_a_state_refuses_what_it_cannot_hold_when_built(monkeypatch):
    # a non-member operator, an inner of the wrong width and an inner that
    # is not a state: each is refused by the constructor, before any law
    # could disagree with the sampler about it
    X = QOperator.from_labels(1, {"I": 1, "X": 3})
    with pytest.raises(ValueError, match="^the operator is not a polytope member"):
        MemberState(X)
    tail = Assignment.from_pairs([(z_point(2, 1), 0), (z_point(2, 2), 0)])
    engine = ReductionEngine(3, 1, embed_tail_assignment(tail, 3, 1))
    with pytest.raises(ValueError, match="^the inner is on 2 qubits, the head on 1$"):
        LiftState(engine, cnc_vertices(2)[0])
    with pytest.raises(ValueError, match="^unknown descriptor PauliPoint$"):
        LiftState(engine, x_point(1, 1))
    # a pickled state is already certified: loading it certifies nothing
    runs = []
    certify = simulate.membership
    monkeypatch.setattr(simulate, "membership", lambda op: runs.append(op) or certify(op))
    lifted = LiftState(engine, T_STATE)
    states = [MemberState(T_T), lifted, classify_operator(alpha0_vertex())]
    runs.clear()
    for state in states:
        copy = pickle.loads(pickle.dumps(state))
        assert copy == state and hash(copy) == hash(state)
    assert isinstance(lifted.inner, MemberState) and lifted.inner.op is T_STATE and runs == []


def test_a_zero_axis_step_is_refused_before_any_step_runs():
    # the identity, measured only when step 0 reads 1: every law and every
    # seed refuses it before a step runs, not just the shots that reach it
    init = descriptor_from_json({"type": "stabilizer", "generators": ["+X"]})
    steps = [z_point(1, 1), (PauliPoint.zero(1), {0: 1})]
    runs = [lambda: exact_distribution(init, steps),
            lambda: born_distribution(init[0][1].operator(), steps),
            lambda: next(iter_sample(init, steps, seed=3))]
    runs += [lambda seed=seed: sample(init, steps, seed=seed, shots=1) for seed in range(10)]
    for run in runs:
        with pytest.raises(ValueError, match="^step 1: the identity I is not a measurement axis$"):
            run()


def test_a_non_member_operator_initial_state_is_refused_in_every_mode():
    # a mixture, plain or lifted (nested lifts too), whose second state is
    # a non-member operator: refused whichever state a seed draws first,
    # and with no steps at all
    bad = QOperator.from_labels(1, {"I": 1, "X": 3})
    facet = re.escape(membership(bad).violation)
    want = f"^the operator is not a polytope member: violated facet {facet}$"
    tail = Assignment.from_pairs([(z_point(1, 1), 0)])
    inner = ReductionEngine(2, 1, embed_tail_assignment(tail, 2, 1))
    outer = ReductionEngine(3, 2, embed_tail_assignment(tail, 3, 2))
    good = cnc_vertices(1)[0]
    # each mixture is built inside the refused call: a lift refuses the
    # non-member when it is built
    for mixed, n in ((lambda: [(HALF, good), (HALF, bad)], 1),
                     (lambda: [(HALF, LiftState(inner, good)), (HALF, LiftState(inner, bad))], 2),
                     (lambda: [(HALF, LiftState(outer, LiftState(inner, good))),
                               (HALF, LiftState(outer, LiftState(inner, bad)))], 3)):
        for steps in ([], [z_point(n, 1)]):
            runs = [lambda: exact_distribution(mixed(), steps),
                    lambda: next(iter_sample(mixed(), steps, seed=0))]
            runs += [lambda seed=seed: sample(mixed(), steps, seed=seed, shots=1)
                     for seed in range(6)]
            for run in runs:
                with pytest.raises(ValueError, match=want):
                    run()
    with pytest.raises(ValueError, match=want):
        LiftState(inner, bad)


def test_a_family_member_draws_the_same_shots_as_operator_or_orbit():
    # the member state and the orbit vertex update by the same chain, so
    # one seed draws the same transcripts from either
    P = PauliPoint.from_label
    steps = [(P("XZ"), None), (P("ZY"), None), (P("YY"), {1: 0})]
    as_operator = sample([(ONE, alpha0_vertex())], steps, seed=3, shots=1000)
    assert as_operator == sample([(ONE, classify_operator(alpha0_vertex()))], steps,
                                 seed=3, shots=1000)


def _steps_json(steps):
    return [{"measure": p.label(), **({"if": {str(k): v for k, v in cond.items()}} if cond else {})}
            for p, cond in steps]


def _cli_simulate(path, X, steps, *mode):
    path.write_text(json.dumps({"n": X.n, "initial": {"type": "operator", **X.to_json()},
                                "steps": _steps_json(steps)}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", str(path), *mode])
    return code, json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(X=member_mixtures(), move=st.tuples(st.integers(1, 15), st.sampled_from((-1, 1))),
       data=st.data())
def test_operator_descriptors_at_the_polytope_boundary(tmp_path_factory, X, move, data):
    """A drawn member is simulated, and its exact law is the Born law; with
    one coefficient moved by +-1/4 it is refused exactly when `membership`
    finds a violated facet, which the diagnostic names, in both modes; a
    trace other than 1 is refused."""
    n = X.n
    steps = data.draw(_adaptive_steps(n))
    path = tmp_path_factory.mktemp("boundary") / "circ.json"
    key, sign = move
    key = key % ((1 << 2 * n) - 1) + 1  # a nonzero key of E_n
    moved = X + QOperator(n, {PauliPoint.from_key(n, key): Fraction(sign, 4)})
    for Y in (X, moved):
        violation = membership(Y).violation
        docs = [_cli_simulate(path, Y, steps, *mode) for mode in (["--exact"], ["--shots", "8"])]
        if violation is None:
            born = born_distribution(Y, steps)
            assert exact_distribution([(ONE, Y)], steps) == born
            assert [code for code, _ in docs] == [0, 0]
            assert docs[0][1]["payload"]["distribution"] == distribution_to_json(born)
        else:
            refusal = f"ValueError: the operator is not a polytope member: violated facet {violation}"
            assert docs == [(1, {"status": "error", "payload": None, "diagnostics": refusal})] * 2
    for Z in (X.scale(2 if sign > 0 else Fraction(1, 2)),
              X + QOperator(n, {PauliPoint.zero(n): Fraction(sign, 4)})):
        code, doc = _cli_simulate(path, Z, steps, "--exact")
        assert code == 1 and doc["diagnostics"] == (
            f"ValueError: an operator initial state needs trace 1, got {Z.trace()}")
