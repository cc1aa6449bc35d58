"""Acceptance suite: every criterion runs exactly (no tolerances except
the explicitly statistical sampling check) and prints one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import random
import time
from fractions import Fraction

from lambda_forge.clifford import CliffordTableau, generator_tableaux
from lambda_forge.cnc import CncSet, cnc_vertices, is_cnc
from lambda_forge.field import FieldElem, INV_SQRT2, ONE
from lambda_forge.gf2 import (
    PauliPoint,
    all_points,
    enumerate_maximal_isotropics,
    span,
    x_point,
    y_point,
    z_point,
)
from lambda_forge.lifting import lift, make_params, unlift
from lambda_forge.orbit import (
    ALPHA0_TABLE,
    OrbitVertex,
    assignment_solutions,
    clifford_orbit_keys,
    enumerate_family,
    family_operator_keys,
    omega_from_collection,
)
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import enumerate_vertices_n1, is_vertex, membership
from lambda_forge.reduction import ReductionEngine, embed_tail_assignment
from lambda_forge.simulate import (
    born_distribution,
    decompose_known,
    exact_distribution,
    sample,
)
from lambda_forge.stabilizer import (
    Assignment,
    all_assignments,
    enumerate_stabilizer_states,
    stabilizer_projector,
)
from lambda_forge.lifting import (
    lift_tensor,
    tail_overlap,
    tail_subspace,
)
from helpers import (
    averaged_trace_identity,
    mixture_identities_report,
    reduced_distribution,
    support,
    verify_update_rules,
)


def report(number: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {number:02d} {status} "
        f"({elapsed:6.2f}s / budget {budget:.0f}s): {detail}"
    )
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its time budget"


# enumerate_family is cached module-level, and the first criterion to
# need it pays the construction cost inside its own timed window;
# family_operator_keys and clifford_orbit_keys are built on every call.


def test_criterion_01_single_qubit_vertices():
    t0 = time.perf_counter()
    verts = enumerate_vertices_n1()
    want = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                want.add(
                    QOperator.from_labels(
                        1, {"I": 1, "X": sx, "Y": sy, "Z": sz}
                    ).key()
                )
    ok = len(verts) == 8 and {V.key() for V in verts} == want
    report(1, ok, time.perf_counter() - t0, 1.0, "8 single-qubit extremal points")


def test_criterion_02_state_counts():
    t0 = time.perf_counter()
    iso = [len(enumerate_maximal_isotropics(n)) for n in (1, 2, 3)]
    states = [len(enumerate_stabilizer_states(n)) for n in (1, 2, 3)]
    ok = iso == [3, 15, 135] and states == [6, 60, 1080]
    report(2, ok, time.perf_counter() - t0, 10.0,
           f"isotropics {iso}, stabilizer states {states}")


def test_criterion_03_tensor_square_counterexample():
    t0 = time.perf_counter()
    A0 = QOperator.from_labels(1, {"I": 1, "X": 1, "Y": 1, "Z": 1})
    bell = QOperator.from_labels(2, {"II": 1, "ZZ": -1, "XX": -1, "YY": -1})
    value = A0.tensor(A0).trace_inner(bell)
    cert = membership(A0.tensor(A0))
    ok = value == FieldElem(Fraction(-1, 2)) and not cert.is_member
    report(3, ok, time.perf_counter() - t0, 1.0,
           "Bell overlap of the tensored qubit vertex is exactly -1/2")


def test_criterion_04_flagship_reproduction():
    t0 = time.perf_counter()
    I = span([x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)])
    gamma = Assignment.from_pairs(
        [
            (x_point(2, 1) ^ z_point(2, 2), 1),
            (z_point(2, 1) ^ x_point(2, 2), 1),
        ]
    )
    collection = frozenset(
        span(g)
        for g in (
            [x_point(2, 1) ^ z_point(2, 2), z_point(2, 1) ^ x_point(2, 2)],
            [x_point(2, 1) ^ x_point(2, 2), z_point(2, 1) ^ z_point(2, 2)],
            [x_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ z_point(2, 2)],
            [z_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ x_point(2, 2)],
            [y_point(2, 1) ^ x_point(2, 2), x_point(2, 1) ^ y_point(2, 2)],
            [z_point(2, 1) ^ y_point(2, 2), y_point(2, 1) ^ z_point(2, 2)],
        )
    )
    table_gp = {
        PauliPoint.zero(2): 0,
        x_point(2, 2): 1, x_point(2, 1): 0, z_point(2, 2): 1,
        y_point(2, 2): 1, z_point(2, 1): 0, y_point(2, 1): 1,
    }
    omega = omega_from_collection(collection)
    in_solution_set = table_gp in assignment_solutions(I, gamma, omega)
    built = OrbitVertex.build(I, gamma, collection, table_gp).operator()
    table_op = QOperator.from_labels(2, ALPHA0_TABLE)
    coeffs_match = built == table_op and len(ALPHA0_TABLE) == 16
    cert = membership(built)
    ok = (
        in_solution_set
        and coeffs_match
        and cert.is_member
        and is_vertex(built, cert)[0]
    )
    report(4, ok, time.perf_counter() - t0, 5.0,
           "flagship vertex rebuilt from its parameters, all 16 coefficients")


def test_criterion_05_family_equals_orbit():
    t0 = time.perf_counter()
    family = enumerate_family()
    orbit_keys = clifford_orbit_keys()
    keys = family_operator_keys()
    ok = len(family) == 1920 and len(orbit_keys) == 1920 and keys == orbit_keys
    report(5, ok, time.perf_counter() - t0, 120.0,
           f"construction count {len(family)} equals Clifford orbit, sets equal")


def test_criterion_06_lift_exhaustive():
    t0 = time.perf_counter()
    verts = enumerate_vertices_n1()
    t_state = QOperator(
        1,
        {
            PauliPoint.zero(1): ONE,
            x_point(1, 1): INV_SQRT2,
            y_point(1, 1): INV_SQRT2,
        },
    )

    def cnc_type(op):
        return all(
            c == ONE or c == -ONE for p, c in op.coeffs.items() if not p.is_zero()
        ) and is_cnc(support(op))

    ok = True
    seen_global = {}
    for a in all_points(2, include_zero=False):
        J = span([a])
        for rbit in (0, 1):
            r = Assignment(J, [rbit])
            params = make_params(2, J, r)
            images = {}
            for X in verts:
                L = lift(X, params)
                cert = membership(L)
                ok &= cert.is_member and is_vertex(L, cert)[0]
                ok &= cnc_type(L)  # every single-qubit vertex is cnc-type
                ok &= unlift(L, params) == X
                images[L.key()] = X
            ok &= len(images) == 8  # injectivity per parameter set
            seen_global.update(images)
            # converse direction: a non-cnc-type member lifts to a
            # non-cnc-type operator
            ok &= not cnc_type(lift(t_state, params))
    report(6, ok, time.perf_counter() - t0, 120.0,
           f"240 lifted vertices over 30 parameter sets, cnc biconditional")


def test_criterion_07_overlap_identities():
    t0 = time.perf_counter()
    rng = random.Random(7001)
    J = tail_subspace(2, 1)
    states = enumerate_stabilizer_states(2)
    ok = True
    for _ in range(100):
        coeffs = {PauliPoint.zero(1): ONE}
        for p in all_points(1, include_zero=False):
            coeffs[p] = FieldElem(Fraction(rng.randint(-16, 16), 8))
        X = QOperator(1, coeffs)
        r = Assignment(J, [rng.randint(0, 1)])
        L = lift_tensor(X, J, r)
        for I, s in states:
            ok &= tail_overlap(X, J, r, I, s) == L.trace_inner(
                stabilizer_projector(I, s)
            )
    halfway = time.perf_counter() - t0
    assert halfway < 60.0
    t1 = time.perf_counter()
    head_states = enumerate_stabilizer_states(1)
    for _ in range(100):
        coeffs = {}
        for p in all_points(2, include_zero=False):
            coeffs[p] = FieldElem(Fraction(rng.randint(-16, 16), 8))
        Y = QOperator(2, coeffs)
        r = Assignment(J, [rng.randint(0, 1)])
        for I1, s1 in head_states:
            lhs, rhs = averaged_trace_identity(Y, J, r, I1, s1)
            ok &= lhs == rhs
    second = time.perf_counter() - t1
    assert second < 60.0
    report(7, ok, time.perf_counter() - t0, 120.0,
           "closed-form overlap (100 x 60) and averaged-trace identity (100 x 6)")


def test_criterion_08_update_rule_sweep():
    t0 = time.perf_counter()
    stats = verify_update_rules()
    profiles = {k: v for k, v in stats["weight_profiles"].items()}
    expected_profiles = {
        (): 1920 * 3,  # the vanishing outcome of the deterministic case
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)): 1920 * 3,
        (Fraction(1, 2), Fraction(1, 4)): 1920 * 6,
        (Fraction(1, 4),): 1920 * 6,
        (Fraction(1, 4), Fraction(1, 4)): 1920 * 12,
    }
    ok = (
        stats["cases"] == 57600
        and stats["mismatches"] == 0
        and stats["zero_cases"] == 1920 * 3
        and profiles == expected_profiles
    )
    report(8, ok, time.perf_counter() - t0, 600.0,
           f"57600 closed-form updates equal exact projection; profiles {sorted(profiles.values())}")


def test_criterion_09_mixture_identities():
    t0 = time.perf_counter()
    rep = mixture_identities_report()
    ok = rep["checked"] == 336 and all(
        v == 0 for k, v in rep.items() if k.startswith("identity-")
    )
    report(9, ok, time.perf_counter() - t0, 10.0,
           "five single-qubit mixture identities, all admissible parameters")


def test_criterion_10_reduction_soundness():
    t0 = time.perf_counter()
    rng = random.Random(1003)
    verts = enumerate_vertices_n1()
    ok = True
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        m = 1
        X = rng.choice(verts)
        I_t, s_t = rng.choice(enumerate_stabilizer_states(n - m))
        sig = embed_tail_assignment(s_t, n, m)
        U = CliffordTableau.identity(n)
        for _ in range(7):
            U = rng.choice(generator_tableaux(n)).compose(U)
        seq = [
            rng.choice(all_points(n, include_zero=False))
            for _ in range(rng.randint(1, 5))
        ]
        full = born_distribution(U.conjugate(lift_tensor(X, sig.subspace, sig)), seq)
        red = reduced_distribution(X, ReductionEngine(n, m, sig, U), seq)
        ok &= full == red
    report(10, ok, time.perf_counter() - t0, 300.0,
           "50 lifted runs: reduced joint law equals the full Born law exactly")


def _memo_born(op, seq, cache):
    out = {}

    def walk(i, state, key, prob, acc):
        if i == len(seq):
            out[tuple(acc)] = out.get(tuple(acc), FieldElem(0)) + prob
            return
        a = seq[i]
        for s in (0, 1):
            ck = (key, a.key(), s)
            hit = cache.get(ck)
            if hit is None:
                projected = state.project(a, s)
                p = projected.trace()
                if p.sign() > 0:
                    projected = projected.scale(ONE / p)
                hit = (p, projected, projected.key())
                cache[ck] = hit
            p, nxt, nk = hit
            if p.sign() > 0:
                walk(i + 1, nxt, nk, prob * p, acc + [s])

    walk(0, op, op.key(), ONE, [])
    return out


def test_criterion_11_simulator_vs_born():
    t0 = time.perf_counter()
    ok = True
    # (a) one-qubit: every cnc point mass x every sequence of length <= 3
    pts1 = all_points(1, include_zero=False)
    seqs1 = (
        [[a] for a in pts1]
        + [list(t) for t in itertools.product(pts1, repeat=2)]
        + [list(t) for t in itertools.product(pts1, repeat=3)]
    )
    for c in cnc_vertices(1):
        op = c.operator()
        for seq in seqs1:
            ok &= exact_distribution([(ONE, c)], seq) == born_distribution(op, seq)
    # two-qubit: every cnc point mass x every single measurement,
    # plus one representative of each maximal-cnc shape x every
    # sequence of length <= 3
    pts2 = all_points(2, include_zero=False)
    cache = {}
    for c in cnc_vertices(2):
        op = c.operator()
        for a in pts2:
            lhs = exact_distribution([(ONE, c)], [a])
            ok &= lhs == _memo_born(op, [a], cache)
    reps = [cnc_vertices(2)[0], cnc_vertices(2)[-1]]
    seqs2 = [[a] for a in pts2] + [list(t) for t in itertools.product(pts2, repeat=2)]
    seqs2 += [list(t) for t in itertools.product(pts2, repeat=3)]
    for c in reps:
        op = c.operator()
        cache = {}
        for seq in seqs2:
            lhs = exact_distribution([(ONE, c)], seq)
            ok &= lhs == _memo_born(op, seq, cache)
    # (b) the magic-state fixture: exact single-measurement probabilities
    t_state = QOperator(
        1,
        {
            PauliPoint.zero(1): ONE,
            x_point(1, 1): INV_SQRT2,
            y_point(1, 1): INV_SQRT2,
        },
    )
    init = decompose_known(t_state)
    for a in pts1:
        dist = exact_distribution(init, [a])
        ok &= dist == born_distribution(t_state, [a])
    dist = exact_distribution(init, [x_point(1, 1)])
    ok &= dist[(0,)] == FieldElem(Fraction(1, 2), Fraction(1, 4))
    ok &= dist[(1,)] == FieldElem(Fraction(1, 2), Fraction(-1, 4))
    # sampling: 1e5 shots against the exact probability, 3-sigma binomial
    shots = 100_000
    transcripts = sample(init, [x_point(1, 1)], seed=2024, shots=shots)
    freq = sum(1 for t in transcripts if t[0] == 0) / shots
    p = float(dist[(0,)])
    sigma = (p * (1 - p) / shots) ** 0.5
    ok &= abs(freq - p) <= 3 * sigma
    report(11, ok, time.perf_counter() - t0, 300.0,
           f"simulator = Born exactly; sampled freq {freq:.4f} vs {p:.4f} (3-sigma)")


def test_criterion_12_isotropic_update_sweep():
    t0 = time.perf_counter()
    ok = True
    for I in enumerate_maximal_isotropics(2):
        for s in all_assignments(I):
            c = CncSet.from_assignment(s)
            op = c.operator()
            for a in all_points(2, include_zero=False):
                for out in (0, 1):
                    total = QOperator.zero(2)
                    for w, piece in c.measure_update(a, out):
                        total = total + piece.operator().scale(w)
                    ok &= total == op.project(a, out)
    report(12, ok, time.perf_counter() - t0, 60.0,
           "isotropic cnc update: 15 x 4 x 15 x 2 cases equal exact projection")
