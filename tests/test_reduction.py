import pickle
import random
from fractions import Fraction

import pytest

from lambda_forge.clifford import CliffordTableau, generator_tableaux
from lambda_forge.field import HALF, INV_SQRT2, ONE, FieldElem
from lambda_forge.gf2 import PauliPoint, all_points, span, symplectic_form, x_point, y_point, z_point
from lambda_forge.lifting import lift, lift_tensor, make_params
from lambda_forge.polytope import enumerate_vertices_n1
from lambda_forge.reduction import (
    CoinStep,
    FixedStep,
    MeasureStep,
    ReductionEngine,
    embed_tail_assignment,
    reduce_static,
)
from lambda_forge.cnc import CncSet, cnc_vertices
from lambda_forge.pauli import PhasedPauli, QOperator
from lambda_forge.orbit import enumerate_family
from lambda_forge.simulate import (
    LiftState,
    MemberState,
    born_distribution,
    descriptor_from_json,
    exact_distribution,
    sample,
    state_to_descriptor_json,
    update_state,
)
from lambda_forge.stabilizer import Assignment, enumerate_stabilizer_states, state_to_json
from helpers import pauli_mul, reduced_distribution, state_operator

rng = random.Random(37)


def sigma_z_plus(n=2, m=1):
    return embed_tail_assignment(
        Assignment.from_pairs([(z_point(1, 1), 0)]), n, m
    )


def test_case_one_in_stabilizer():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    step = eng.process(x_point(2, 1) ^ z_point(2, 2))
    assert step == MeasureStep(x_point(1, 1), 0)
    # opposite tail sign flips the outcome
    sig = embed_tail_assignment(Assignment.from_pairs([(z_point(1, 1), 1)]), 2, 1)
    step = ReductionEngine(2, 1, sig).process(x_point(2, 1) ^ z_point(2, 2))
    assert step == MeasureStep(x_point(1, 1), 1)


def test_tail_only_observable_is_fixed():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    step = eng.process(z_point(2, 2))
    assert step == FixedStep(0)


def test_case_two_coin():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    step = eng.process(x_point(2, 1) ^ x_point(2, 2))
    assert isinstance(step, CoinStep)
    for c in (0, 1):
        nxt = eng.resolve_coin(step, c)
        assert nxt.conj.is_valid()
    with pytest.raises(ValueError):
        eng.process(x_point(2, 2) ^ x_point(2, 2))  # zero point


def test_engines_compare_by_value():
    tail = Assignment.from_pairs([(z_point(2, 1), 0), (z_point(2, 2), 1)])
    sig = embed_tail_assignment(tail, 3, 1)
    u = CliffordTableau.cnot(3, 1, 2)
    coin, head = x_point(3, 2), x_point(3, 1) ^ z_point(3, 3)

    def walk():
        eng = ReductionEngine(3, 1, sig, u)
        step = eng.process(coin)
        assert isinstance(step, CoinStep)
        return eng, step

    (e1, s1), (e2, s2) = walk(), walk()
    assert e1 is not e2 and e1 == e2 and hash(e1) == hash(e2)
    r1, r2 = e1.resolve_coin(s1, 1), e2.resolve_coin(s2, 1)
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1 != e1.resolve_coin(s1, 0)
    # lifted states over equal engines share their updates
    inner = cnc_vertices(1)[3]
    L1, L2 = LiftState(r1, inner), LiftState(r2, inner)
    assert L1 == L2 and hash(L1) == hash(L2)
    for a in (coin, head):
        for s in (0, 1):
            assert update_state(L1, a, s) == update_state(L2, a, s)
            assert update_state(L1, a, s) == update_state(L1, a, s)


def test_engines_and_lifted_states_pickle():
    # a pickle round trip rebuilds an equal engine with an equal hash
    tail = Assignment.from_pairs([(z_point(2, 1), 0), (z_point(2, 2), 1)])
    plain = ReductionEngine(2, 1, embed_tail_assignment(
        Assignment.from_pairs([(z_point(1, 1), 1)]), 2, 1))
    framed = ReductionEngine(
        3, 1, embed_tail_assignment(tail, 3, 1), CliffordTableau.cnot(3, 1, 2))
    step = framed.process(x_point(3, 2))
    assert isinstance(step, CoinStep)
    for eng in (plain, framed, framed.resolve_coin(step, 1)):
        hash(eng)
        again = pickle.loads(pickle.dumps(eng))
        assert again == eng and again is not eng
        assert hash(again) == hash(eng)
    assert pickle.loads(pickle.dumps(framed)).resolve_coin(step, 0) == framed.resolve_coin(step, 0)
    for eng in (framed, framed.resolve_coin(step, 1)):
        state = LiftState(eng, cnc_vertices(1)[3])
        again = pickle.loads(pickle.dumps(state))
        assert again == state and hash(again) == hash(state)


def test_resolve_without_pending():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    with pytest.raises(ValueError, match="only a coin step"):
        eng.resolve_coin(None, 0)


def test_resolve_refuses_fixed_and_measure_steps():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    fixed, head = eng.process(z_point(2, 2)), eng.process(x_point(2, 1) ^ z_point(2, 2))
    assert (type(fixed), type(head)) == (FixedStep, MeasureStep)
    for step in (fixed, head):
        with pytest.raises(ValueError, match="only a coin step"):
            eng.resolve_coin(step, 0)
    # a coin whose image commutes with all of sigma is not one of this frame
    foreign = CoinStep(PauliPoint.from_label("ZZ").key(), 0)
    with pytest.raises(ValueError, match="no coin of this frame"):
        eng.resolve_coin(foreign, 0)


def test_sigma_must_be_tail_supported():
    head = Assignment.from_pairs([(z_point(2, 1), 0)])
    with pytest.raises(ValueError):
        ReductionEngine(2, 1, head)
    # an empty tail has no lift descriptor, so no engine either
    with pytest.raises(ValueError):
        ReductionEngine(2, 2, Assignment.zero(span([], n=2)))


def test_empty_sequence():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    X = enumerate_vertices_n1()[0]
    assert reduced_distribution(X, eng, []) == {(): ONE}



def test_reduced_law_refuses_a_head_it_cannot_run():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    head_x = x_point(2, 1) ^ z_point(2, 2)
    # a two-qubit head on an m = 1 engine, even where no head step runs
    wide = QOperator.from_labels(2, {"II": 1, "XI": 1})
    for seq in ([], [z_point(2, 2)], [head_x]):
        with pytest.raises(ValueError, match="head"):
            reduced_distribution(wide, eng, seq)
    for X in (QOperator.from_labels(1, {"I": 2, "Z": 1}), QOperator.from_labels(1, {"Z": 1})):
        for seq in ([], [head_x]):
            with pytest.raises(ValueError, match="trace 1"):
                reduced_distribution(X, eng, seq)


def test_distribution_equality_random_instances():
    verts = enumerate_vertices_n1()
    for n in (2, 3):
        gens = generator_tableaux(n)
        for _ in range(8):
            m = 1 if n == 2 else rng.choice([1, 2])
            if m == 1:
                X = rng.choice(verts)
            else:
                line = span([rng.choice(all_points(2, include_zero=False))])
                r = Assignment(line, [rng.randint(0, 1)])
                X = lift(rng.choice(verts), make_params(2, line, r))
            I_t, s_t = rng.choice(enumerate_stabilizer_states(n - m))
            sig = embed_tail_assignment(s_t, n, m)
            U = CliffordTableau.identity(n)
            for _ in range(6):
                U = rng.choice(gens).compose(U)
            seq = [
                rng.choice(all_points(n, include_zero=False))
                for _ in range(rng.randint(1, 5))
            ]
            full = born_distribution(U.conjugate(lift_tensor(X, sig.subspace, sig)), seq)
            red = reduced_distribution(X, ReductionEngine(n, m, sig, U), seq)
            assert full == red


def test_static_plan():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    seq = [x_point(2, 1) ^ x_point(2, 2), z_point(2, 2), x_point(2, 1)]
    plan = reduce_static(eng, seq, coins=[1])
    kinds = [s["kind"] for s in plan["steps"]]
    assert kinds[0] == "coin" and plan["steps"][0]["outcome"] == 1
    assert plan["coins"][0] == {"step": 0, "outcome": 1}
    assert [c["step"] for c in plan["coins"]] == [
        s["step"] for s in plan["steps"] if s["kind"] == "coin"
    ]
    assert plan["m"] == 1
    # emitted measurements act on the head register only
    for s in plan["steps"]:
        if s["kind"] == "measure":
            assert len(s["observable"]) == 1


def test_output_never_longer():
    eng = ReductionEngine(3, 1, embed_tail_assignment(rng.choice(enumerate_stabilizer_states(2))[1], 3, 1))
    seq = [rng.choice(all_points(3, include_zero=False)) for _ in range(5)]
    plan = reduce_static(eng, seq, coins=[0, 0, 0, 0, 0])
    measured = [s for s in plan["steps"] if s["kind"] == "measure"]
    assert len(measured) <= len(seq)


def test_coin_frame_is_the_projected_state():
    """After a coin step with outcome c on axis a, the resolved frame holds
    exactly the normalised projection of the lifted state, and the outcome
    has probability exactly 1/2."""
    local = random.Random(11)
    for n in (2, 3, 4):
        gens = generator_tableaux(n)
        points = all_points(n, include_zero=False)
        for m in range(1, n):
            states = enumerate_stabilizer_states(n - m)
            for _ in range(3):
                sig = embed_tail_assignment(local.choice(states)[1], n, m)
                U = CliffordTableau.identity(n)
                for _ in range(8):
                    U = local.choice(gens).compose(U)
                eng = ReductionEngine(n, m, sig, U)
                if m <= 2:
                    inner = local.choice(cnc_vertices(m))
                else:
                    _, s = local.choice(enumerate_stabilizer_states(m))
                    inner = CncSet.from_assignment(s)
                rho = state_operator(LiftState(eng, inner))
                a = next(p for p in local.sample(points, len(points))
                         if isinstance(eng.process(p), CoinStep))
                coin = eng.process(a)
                for c in (0, 1):
                    projected = rho.project(a, c)
                    assert projected.trace() == HALF
                    after = state_operator(LiftState(eng.resolve_coin(coin, c), inner))
                    assert after == projected.scale(ONE / HALF)


def test_static_plan_rejects_coins_other_than_0_or_1():
    eng = ReductionEngine(2, 1, sigma_z_plus())
    seq = [x_point(2, 1) ^ x_point(2, 2), z_point(2, 2)]
    # checked whether or not a coin step consumes them
    for coins in ([2], [1, 9], [-1], ["1"], [1.0], [True]):
        with pytest.raises(ValueError, match="0 or 1"):
            reduce_static(eng, seq, coins)


def test_embed_tail_rejects_sigma_wider_than_the_tail():
    _, s = enumerate_stabilizer_states(2)[7]
    with pytest.raises(ValueError):
        embed_tail_assignment(s, 3, 2)
    # a two-qubit sigma that only uses its first qubit is still too wide
    with pytest.raises(ValueError):
        embed_tail_assignment(Assignment.from_pairs([(z_point(2, 1), 0)]), 3, 2)


# -- reference oracles: the PauliPoint bodies of the tail embedding and of
# the engine's two steps, before they moved to packed keys ------------------


def _head_point(p, m):
    mask = (1 << m) - 1
    return PauliPoint(m, p.z & mask, p.x & mask)


def _tail_point(p, m):
    return PauliPoint(p.n - m, p.z >> m, p.x >> m)


def _embed_tail(p, n, m):
    return PauliPoint(n, p.z << m, p.x << m)


def _reference_embed_tail_assignment(sigma, n, m):
    return Assignment.from_pairs(
        [(_embed_tail(p, n, m), sigma.value(p)) for p in sigma.subspace.points()], n
    )


def _reference_process(engine, a):
    """The step, and the pending (b, eps) of a coin step, else None."""
    img = engine.conj.apply_point(a)
    b, eps = img.point, img.phase >> 1
    tail = _embed_tail(_tail_point(b, engine.m), engine.n, engine.m)
    if engine.sigma.subspace.contains(tail):
        lam = (engine.sigma.value(tail) + eps) & 1
        head = _head_point(b, engine.m)
        if head.is_zero():
            return FixedStep(lam), None
        return MeasureStep(head, lam), None
    return CoinStep(b.key(), eps), (b, eps)


def _reference_resolve_coin(engine, pending, c):
    """The conjugator after resolving the pending coin with outcome c."""
    b, eps = pending
    g = next(p for p in engine.sigma.subspace.basis_points() if symplectic_form(p, b))
    gb = pauli_mul(
        PhasedPauli(g, 2 * engine.sigma.value(g)), PhasedPauli(b, 2 * (c + eps))
    )
    images = []
    for e, s in engine.conj.images:
        fg = symplectic_form(e, g)
        if fg == symplectic_form(e, b):
            images.append((e, s ^ fg))
        else:
            img = pauli_mul(PhasedPauli(e, 2 * (s + fg)), gb)
            images.append((img.point, img.phase >> 1))
    return CliffordTableau(engine.n, images)


def test_tail_embedding_matches_reference():
    """Every tail stabilizer state with n <= 4 (1 218 cases): the row shift
    equals the solve over all points, and the lift descriptor shifts it
    back to the tail state."""
    cases = 0
    # an inner state on the m head qubits: the stabilizer state +Z...Z
    heads = {m: CncSet.from_assignment(Assignment.from_pairs(
        [(z_point(m, q), 0) for q in range(1, m + 1)])) for m in (1, 2, 3)}
    for n in (2, 3, 4):
        for m in range(1, n):
            for I, s in enumerate_stabilizer_states(n - m):
                embedded = embed_tail_assignment(s, n, m)
                assert embedded == _reference_embed_tail_assignment(s, n, m)
                state = LiftState(ReductionEngine(n, m, embedded), heads[m])
                assert state_to_descriptor_json(state)["sigma"] == state_to_json(I, s)
                cases += 1
    assert cases == 1218


def test_engine_matches_reference_on_seeded_frames():
    local = random.Random(1803)
    gens = generator_tableaux(3)
    points = all_points(3, include_zero=False)
    kinds = set()
    for m in (1, 2):
        tails = enumerate_stabilizer_states(3 - m)
        for _ in range(10):
            U = CliffordTableau.identity(3)
            for _ in range(10):
                U = local.choice(gens).compose(U)
            eng = ReductionEngine(3, m, embed_tail_assignment(local.choice(tails)[1], 3, m), U)
            for _ in range(8):
                a = local.choice(points)
                step = eng.process(a)
                want, pending = _reference_process(eng, a)
                assert step == want
                kinds.add(type(step))
                if pending is None:
                    continue
                for c in (0, 1):
                    assert eng.resolve_coin(step, c).conj == _reference_resolve_coin(eng, pending, c)
                eng = eng.resolve_coin(step, local.randint(0, 1))
    assert kinds == {FixedStep, MeasureStep, CoinStep}


# -- paper result (ii) on a wide tail -------------------------------------------


def _wide_tail_circuit(local, n, m, steps):
    """Seeded steps T_h (x) Z(t): an m-qubit head point h, zero for one
    fixed step, and a nonempty set t of tail qubits, as (n-qubit point, h,
    t)."""
    heads = [local.choice(all_points(m)) for _ in range(steps - 1)] + [PauliPoint.zero(m)]
    local.shuffle(heads)
    out = []
    for h in heads:
        t = local.sample(range(n - m), local.randint(1, n - m))
        z = h.z | sum(1 << (m + q) for q in t)
        out.append((PauliPoint(n, z, h.x), h, t))
    return out


def test_wide_tail_lift_reduces_to_its_head():
    """A family member lifted with a 38-qubit tail stabilizer state of
    seeded Z signs: each step's tail lies in sigma, so the lifted law is
    the head's Born law with every outcome flipped by the parity of the
    tail signs the step selects.  Reading a sign walks sigma's rows once,
    so no step costs 2^(n - m)."""
    local = random.Random(2238)
    n, m = 40, 2
    member = enumerate_family()[local.randrange(1920)]
    signs = [local.randint(0, 1) for _ in range(n - m)]
    tail = Assignment.from_pairs([(z_point(n - m, q + 1), s) for q, s in enumerate(signs)])
    engine = ReductionEngine(n, m, embed_tail_assignment(tail, n, m))
    circuit = _wide_tail_circuit(local, n, m, 6)
    steps = [a for a, _, _ in circuit]
    assert {type(engine.process(a)) for a in steps} == {FixedStep, MeasureStep}

    head_steps = [h for _, h, _ in circuit if not h.is_zero()]
    flips = [sum(signs[q] for q in t) & 1 for _, _, t in circuit]
    want = {}
    for head_outcomes, p in born_distribution(member.operator(), head_steps).items():
        it = iter(head_outcomes)
        key = tuple((0 if h.is_zero() else next(it)) ^ f for (_, h, _), f in zip(circuit, flips))
        want[key] = p

    state = LiftState(engine, member)
    assert exact_distribution([(ONE, state)], steps) == want
    assert reduced_distribution(member.operator(), engine, steps) == want
    assert set(sample([(ONE, state)], steps, seed=2238, shots=64)) <= set(want)
    doc = {
        "type": "lift",
        "sigma": {"generators": [
            ("-" if s else "+") + z_point(n - m, q + 1).label() for q, s in enumerate(signs)
        ]},
        "inner": {"type": "orbit", "coeffs": member.operator().to_json()["coeffs"]},
    }
    assert exact_distribution(descriptor_from_json(doc), steps) == want


def _wide_lift_case(local, n, m, coins):
    """A seeded engine on n qubits, a tail of seeded Z signs under a frame
    of 4n generator gates, and steps built from the images they take on
    one path: ``coins`` coin steps, two or three head steps and one or two
    fixed steps, in seeded order; that path meets each step as the kind
    it was built for.  A step may be conditioned on up to two earlier coin
    or fixed outcomes of that path, so the path runs every step."""
    tail = Assignment.from_pairs(
        [(z_point(n - m, q), local.randint(0, 1)) for q in range(1, n - m + 1)])
    U = CliffordTableau.identity(n)
    for _ in range(4 * n):
        q, r = local.sample(range(1, n + 1), 2)
        U = local.choice([CliffordTableau.hadamard(n, q), CliffordTableau.phase_gate(n, q),
                          CliffordTableau.cnot(n, q, r)]).compose(U)
    engine = eng = ReductionEngine(n, m, embed_tail_assignment(tail, n, m), U)
    kinds = [CoinStep] * coins + [MeasureStep] * local.randint(2, 3) + [FixedStep] * local.randint(1, 2)
    local.shuffle(kinds)
    steps, met, path = [], [], []
    for i, kind in enumerate(kinds):
        # the image: a Z string in sigma's group on the tail, a head point
        # but for a fixed step, and an X on one tail qubit for a coin
        z = sum(1 << (m + q) for q in local.sample(range(n - m), local.randint(1, n - m)))
        head = PauliPoint.zero(m) if kind is FixedStep else local.choice(all_points(m, include_zero=False))
        x = head.x | (1 << (m + local.randrange(n - m)) if kind is CoinStep else 0)
        a = eng.conj.invert().apply_point(PauliPoint(n, head.z | z, x)).point
        cond = dict(local.sample(path, min(len(path), local.randint(0, 2))))
        steps.append((a, cond or None))
        step = eng.process(a)
        met.append(type(step))
        if isinstance(step, CoinStep):
            c = local.randint(0, 1)
            eng = eng.resolve_coin(step, c)
            path.append((i, c))
        elif isinstance(step, FixedStep):
            path.append((i, step.outcome))
    assert met == kinds
    return engine, steps


def test_wide_lifts_match_the_independent_reduced_law():
    """Lifts to n = 16, 32 and 64 with one- and two-qubit heads (cnc,
    family, member and mixture inners) under frames of 4n generator gates,
    with coin, head and fixed steps, some conditional: the simulator's law
    equals the tests' reduced law, which walks the engine with its own
    fixed, coin and head-projection rule, and every sampled transcript
    lies in it.  The Born law on the explicit lift stops at n <= 4."""
    local = random.Random(4616)
    t = QOperator(1, {PauliPoint.zero(1): ONE, x_point(1, 1): INV_SQRT2, y_point(1, 1): INV_SQRT2})
    pools = {1: [cnc_vertices(1), [MemberState(t)]],
             2: [cnc_vertices(2), enumerate_family(), [MemberState(t.tensor(t))]]}
    weights = {2: (Fraction(1, 3), Fraction(2, 3)), 3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))}
    for n in (16, 32, 64):
        for m in (1, 2):
            # one inner of each pool, then a mixture of one from each
            for inners in [[(ONE, local.choice(pool))] for pool in pools[m]] + [
                    [(FieldElem(w), local.choice(pool)) for w, pool in zip(weights[m + 1], pools[m])]]:
                engine, steps = _wide_lift_case(local, n, m, local.randint(4, 8))
                init = [(w, LiftState(engine, inner)) for w, inner in inners]
                head = QOperator.zero(m)
                for w, inner in inners:
                    head = head + inner.operator().scale(w)
                law = exact_distribution(init, steps)
                assert law == reduced_distribution(head, engine, steps)
                assert set(sample(init, steps, seed=n + m, shots=32)) <= set(law)


def test_key_value_matches_the_signed_generator_products():
    """On a 30-dimensional isotropic subspace moved by a seeded Clifford
    word, the sign of every sampled product of signed generators, taken
    in any order with ``pauli_mul``, is the assignment's value there."""
    local = random.Random(30)
    n = 30
    gens = [(z_point(n, q), local.randint(0, 1)) for q in range(1, n + 1)]
    for _ in range(4 * n):
        q, r = local.sample(range(1, n + 1), 2)
        gate = local.choice([
            CliffordTableau.hadamard(n, q), CliffordTableau.phase_gate(n, q),
            CliffordTableau.cnot(n, q, r),
        ])
        gens = [(img.point, s ^ (img.phase >> 1)) for img, s in
                ((gate.apply_point(p), s) for p, s in gens)]
    asg = Assignment.from_pairs(gens)
    assert asg.subspace.dim == n
    for _ in range(200):
        chosen = local.sample(gens, local.randint(1, n))
        prod = PhasedPauli(PauliPoint.zero(n))
        for p, s in chosen:
            prod = pauli_mul(prod, PhasedPauli(p, 2 * s))
        assert prod.phase in (0, 2)
        assert asg._key_value(prod.point.key()) == prod.phase >> 1
    outside = next(
        x_point(n, q) for q in range(1, n + 1) if not asg.subspace.contains(x_point(n, q))
    )
    assert asg._key_value(outside.key()) is None
