"""Seeded inputs, timed items and exactness checks for the three workloads.

Every workload is built from a seed alone.  ``setup`` generates the inputs
and fills the program's caches; ``rounds`` yields lists of items forever,
each list with the same fixed composition so that a run of whole rounds
measures the same mix whatever the seed; ``run_item`` is the timed part;
``check`` decides exactness of one item's result.  Checks are plain
functions of the results, so ``selftest.py`` can feed them corrupted
results.

The benchmark calls the program only through module attributes (for
example ``simulate.sample``), so that the tracer can wrap them, and it
passes ``oracle_fallback=True`` only while the public function still has
that parameter.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

from lambda_forge import (
    cli,
    clifford,
    cnc,
    gf2,
    lifting,
    orbit,
    pauli,
    polytope,
    reduction,
    simulate,
    stabilizer,
)
from lambda_forge.field import FieldElem, INV_SQRT2, ONE, ZERO

#: What one unit of work is on each workload (the ``work_per_s`` metric).
WORK_UNIT = {"certify": "certs", "verify": "cases", "sample": "shots"}

#: Number of set-ups timed per run; ``setup_s`` is their median.  The
#: cold family build makes one certify set-up cost half a minute.
SETUP_REPEATS = {"certify": 1, "verify": 3, "sample": 2}

#: Whole rounds traced for the per-layer counts (fixed work, so the
#: counts repeat exactly for one seed and one program).
TRACED_ROUNDS = {"certify": 1, "verify": 4, "sample": 3}

#: Goodness-of-fit threshold for sampled counts: the one tolerance.
GOF_MIN_P = 1e-6

CLIFFORD_WORD = 24
ORBIT_POOL = 48


def with_fallback(fn) -> dict:
    """``{"oracle_fallback": True}`` while ``fn`` still takes that keyword."""
    params = inspect.signature(fn).parameters
    return {"oracle_fallback": True} if "oracle_fallback" in params else {}


def digest(obj) -> str:
    """Stable short digest of a JSON-serialisable description of inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- shared generators ----------------------------------------------------


def random_clifford(rng: random.Random, n: int) -> clifford.CliffordTableau:
    gens = clifford.generator_tableaux(n)
    u = clifford.CliffordTableau.identity(n)
    for _ in range(CLIFFORD_WORD):
        u = rng.choice(gens).compose(u)
    return u


def random_point(rng: random.Random, n: int) -> gf2.PauliPoint:
    return rng.choice(gf2.all_points(n, include_zero=False))


def random_circuit(rng: random.Random, n: int, length: int, fixed_prefix: int = 1):
    """Adaptive steps: each later step may be conditioned on earlier ones."""
    steps = []
    for i in range(length):
        cond = None
        if i >= fixed_prefix and rng.random() < 0.5:
            cond = {rng.randrange(i): rng.randint(0, 1)}
        steps.append((random_point(rng, n), cond))
    return steps


def relabel(steps, u: clifford.CliffordTableau) -> list:
    """The same circuit with every axis moved by the Clifford ``u``."""
    return [(u.point_map(p), cond) for p, cond in steps]


def cnc_from_operator(op: pauli.QOperator) -> cnc.CncSet:
    """The cnc set whose operator is ``op`` (coefficients +-1 on Omega)."""
    gamma = {p: 0 if c == ONE else 1 for p, c in op.coeffs.items()}
    return cnc.CncSet(gamma.keys(), gamma)


def circuit_json(steps) -> list:
    return [[p.label(), cond] for p, cond in steps]


def t_state() -> pauli.QOperator:
    """The single-qubit magic state (I + (X + Y)/sqrt2)/2."""
    zero = gf2.PauliPoint.zero(1)
    return pauli.QOperator(
        1, {zero: ONE, gf2.x_point(1, 1): INV_SQRT2, gf2.y_point(1, 1): INV_SQRT2}
    )


def explicit_lift(inner: pauli.QOperator, sigma, u) -> pauli.QOperator:
    """U (inner (x) Pi_sigma) U^dagger, built from public pieces."""
    return u.conjugate(lifting.lift_tensor(inner, sigma.subspace, sigma))


def random_tail(rng: random.Random, n: int, m: int):
    """A tail stabilizer state on qubits m+1..n, embedded in n qubits."""
    _, s = rng.choice(stabilizer.enumerate_stabilizer_states(n - m))
    return reduction.embed_tail_assignment(s, n, m)


def total_mass(weights) -> FieldElem:
    total = ZERO
    for w in weights:
        total = total + w
    return total


# -- checks ---------------------------------------------------------------


def check_certificate(expected: dict, code: int, doc: dict) -> bool:
    """Exit code, status, membership, vertex flag and rank all as built."""
    payload = doc.get("payload") or {}
    if not expected["member"]:
        return (
            code == 2
            and doc.get("status") == "violation"
            and payload.get("member") is False
            and payload.get("violation") is not None
        )
    full_rank = 4 ** expected["n"] - 1
    return (
        code == 0
        and doc.get("status") == "ok"
        and payload.get("vertex") is expected["vertex"]
        and (payload.get("active_rank") == full_rank) is expected["vertex"]
    )


def check_operator_sum(pieces, projected: pauli.QOperator, n: int) -> bool:
    """Closed-form pieces sum exactly to the projected operator."""
    total = pauli.QOperator.zero(n)
    for w, piece in pieces:
        total = total + piece.operator().scale(FieldElem.coerce(w))
    return total == projected


def check_distributions(lhs: dict, rhs: dict) -> bool:
    """Exact joint laws agree entry by entry and carry total mass one."""
    return lhs == rhs and total_mass(rhs.values()) == ONE


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square law (Wilson-Hilferty approximation)."""
    if dof <= 0:
        return 1.0
    k = float(dof)
    z = ((x / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))
    return 0.5 * math.erfc(z / math.sqrt(2))


def check_counts(counts: dict, probs: dict, shots: int) -> bool:
    """Sampled counts fit the exact law: support, total and chi-square.

    ``probs`` maps transcripts to float probabilities.  Cells are pooled,
    smallest expectation first, until each pooled cell expects at least
    five shots; ties go by transcript, never by observed count, which
    would bias the statistic.
    """
    if shots <= 0 or sum(counts.values()) != shots:
        return False
    if any(k not in probs or c < 0 for k, c in counts.items()):
        return False
    cells = []
    exp_acc = obs_acc = 0
    for key, p in sorted(probs.items(), key=lambda kv: (kv[1], repr(kv[0]))):
        exp, obs = p * shots, counts.get(key, 0)
        exp_acc += exp
        obs_acc += obs
        if exp_acc >= 5:
            cells.append((exp_acc, obs_acc))
            exp_acc = obs_acc = 0
    if exp_acc or obs_acc:
        if cells:
            exp, obs = cells.pop()
            exp_acc, obs_acc = exp_acc + exp, obs_acc + obs
        cells.append((exp_acc, obs_acc))
    stat = sum((obs - exp) ** 2 / exp for exp, obs in cells)
    return chi2_sf(stat, len(cells) - 1) >= GOF_MIN_P


# -- workloads ------------------------------------------------------------


class Workload:
    name = ""
    #: the kinds of item in one round, in order
    round_kinds: tuple = ()
    #: check results after the timed span instead of after each item
    deferred_check = False
    #: seconds one round takes on the reference machine (2-vCPU Xeon VM,
    #: Python 3.11); sets how many rounds a run holds
    round_seconds = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.inputs: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def make_item(self, kind: str, rng: random.Random, turn: int):
        """One item of ``kind``; ``turn`` counts earlier items of that kind."""
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def units(self, item) -> int:
        return 1

    def rounds_for(self, seconds: float) -> int:
        """Rounds that take about ``seconds`` on the reference machine."""
        return max(1, round(seconds / self.round_seconds))

    def stream_seed(self) -> int:
        return self.seed * 7919 + 1

    def rounds(self):
        """Seeded stream of rounds; the same seed gives the same stream."""
        rng = random.Random(self.stream_seed())
        turns = Counter()
        while True:
            batch = []
            for kind in self.round_kinds:
                batch.append(self.make_item(kind, rng, turns[kind]))
                turns[kind] += 1
            yield batch

    def describe(self, item):
        """JSON form of one item, for the input digest."""
        return item

    def inputs_digest(self, rounds: int = 8) -> str:
        stream = self.rounds()
        head = [[self.describe(it) for it in next(stream)] for _ in range(rounds)]
        return digest({"setup": self.inputs, "rounds": head})


class Certify(Workload):
    """Certificates through the CLI on operator files written at set-up.

    The cost of an n = 3 certificate varies by a factor of about 2.5
    between instances (fill-in of the exact rank elimination for a
    vertex, the first violated facet for a non-member), and a run has room
    for only a handful; so the n = 3 operators come from one pool shared by
    every seed, taken in order, and the seed varies the n = 2 ones.
    """

    name = "certify"
    round_seconds = 2.6
    round_kinds = (
        ("n3_vertex",)
        + ("n3_nonmember",) * 2
        + ("n2_member",) * 12
        + ("n2_mixture",) * 4
        + ("n2_nonmember",) * 4
    )
    #: one command per kind, so each kind's latency forms one cluster
    COMMANDS = {
        "n3_vertex": ["vertex"],
        "n3_nonmember": ["membership", "--vertex"],
        "n2_member": ["vertex"],
        "n2_mixture": ["membership", "--vertex"],
        "n2_nonmember": ["vertex"],
    }
    POOL = 64  # n = 2 operators of each kind
    N3_POOL = 16  # n = 3 operators of each kind
    N3_SEED = 2104

    def setup(self):
        rng = self.rng
        family = orbit.enumerate_family()
        if orbit.family_operator_keys() != orbit.clifford_orbit_keys():
            raise RuntimeError("family build disagrees with the Clifford orbit")
        qubit_vertices = polytope.enumerate_vertices_n1()
        a0 = qubit_vertices[0]
        bad2 = a0.tensor(a0)  # overlap -1/2 with a Bell state
        members = [rng.choice(family).operator() for _ in range(self.POOL)]
        pools = {"n2_member": [(op, True, True) for op in members], "n2_mixture": [],
                 "n2_nonmember": [], "n3_vertex": [], "n3_nonmember": []}
        for _ in range(self.POOL):
            a, b = rng.sample(members, 2)
            while a == b:
                b = rng.choice(family).operator()
            w = FieldElem(Fraction(rng.randint(1, 7), 8))
            mix = a.scale(w) + b.scale(ONE - w)
            pools["n2_mixture"].append((mix, True, False))
        for _ in range(self.POOL):
            bad = random_clifford(rng, 2).conjugate(bad2)
            pools["n2_nonmember"].append((bad, False, None))
        shared = random.Random(self.N3_SEED)
        for i in range(self.N3_POOL):
            pool = qubit_vertices if i % 2 else family
            head = shared.choice(pool)
            head = head if isinstance(head, pauli.QOperator) else head.operator()
            pools["n3_vertex"].append((self._lift(shared, head), True, True))
            bad = random_clifford(shared, 2).conjugate(bad2)
            pools["n3_nonmember"].append((self._lift(shared, bad), False, None))
        self.files = {}
        described = {}
        for kind, entries in pools.items():
            paths = []
            for j, (op, member, vertex) in enumerate(entries):
                path = os.path.join(self.workdir, f"{kind}-{j}.json")
                doc = op.to_json()
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                expected = {"n": op.n, "member": member, "vertex": vertex}
                paths.append((path, expected))
                described.setdefault(kind, []).append([doc, expected])
            self.files[kind] = paths
        self.inputs = described

    @staticmethod
    def _lift(rng, head: pauli.QOperator) -> pauli.QOperator:
        """Lift to three qubits through a random tail, then a random Clifford."""
        n, m = 3, head.n
        u = random_clifford(rng, n)
        J = gf2.span([u.point_map(p) for p in lifting.tail_subspace(n, m).basis_points()], n)
        r = stabilizer.Assignment(J, [rng.randint(0, 1) for _ in range(J.dim)])
        lifted = lifting.lift(head, lifting.make_params(n, J, r))
        return random_clifford(rng, n).conjugate(lifted)

    def make_item(self, kind, rng, turn):
        if kind.startswith("n3"):
            path, expected = self.files[kind][turn % self.N3_POOL]
        else:
            path, expected = rng.choice(self.files[kind])
        return {"kind": kind, "argv": self.COMMANDS[kind] + [path], "expected": expected}

    def describe(self, item):
        return [item["kind"], item["argv"][:-1], os.path.basename(item["argv"][-1])]

    def run_item(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item["argv"])
        return code, json.loads(buf.getvalue())

    def check(self, item, result):
        code, doc = result
        return check_certificate(item["expected"], code, doc)


class Verify(Workload):
    """Closed forms and exact laws against exact projection, both timed.

    A case's cost is set by its structure (how often an update falls back
    to projection and re-decomposition, how the branch tree splits), and
    a run holds too few heavy cases to average that out.  So
    every seed runs one base stream of cases, relabelled by a Clifford
    unitary the seed draws (one on two qubits, one on three): the states
    and axes differ from seed to seed, the structure does not.
    """

    name = "verify"
    round_seconds = 0.55
    round_kinds = ("orbit_update",) * 12 + ("cnc_circuit", "orbit_circuit") * 2 + (
        "lifted_circuit",
    )
    #: inner states of the lifted circuits, taken in turn
    LIFT_INNERS = ("qubit_cnc", "t_state", "orbit")
    BASE_SEED = 1905

    def stream_seed(self) -> int:
        return self.BASE_SEED

    def setup(self):
        base = random.Random(self.BASE_SEED)
        self.v2 = random_clifford(self.rng, 2)
        self.v3 = random_clifford(self.rng, 3)
        alpha0 = orbit.alpha0_vertex()
        self.orbit_pool = [
            orbit.classify_operator(self.v2.compose(random_clifford(base, 2)).conjugate(alpha0))
            for _ in range(ORBIT_POOL)
        ]
        self.shapes = cnc.maximal_cnc_sets(2)
        self.cnc_by_shape = [
            [
                cnc_from_operator(self.v2.conjugate(cnc.CncSet(omega, vals).operator()))
                for vals in cnc.consistent_assignments(omega)
            ]
            for omega in self.shapes
        ]
        self.qubit_cnc = cnc.cnc_vertices(1)
        self.t_pieces = simulate.decompose_known(t_state())
        self.inputs = {
            "orbit_pool": [v.operator().to_json() for v in self.orbit_pool],
            "relabel": [self.v2.to_json(), self.v3.to_json()],
        }

    def make_item(self, kind, rng, turn):
        v2, v3 = self.v2, self.v3
        if kind == "orbit_update":
            v = rng.randrange(len(self.orbit_pool))
            axis = v2.point_map(random_point(rng, 2))
            return {"kind": kind, "vertex": v, "axis": axis, "s": rng.randint(0, 1)}
        # shapes, lengths and inner states go in turn, so every run of
        # whole rounds covers them evenly; axes and signs are drawn.  The
        # two circuits of a kind in one round have lengths summing to 5.
        length = 1 + (turn // 2) % 4 if turn % 2 == 0 else 4 - (turn // 2) % 4
        if kind == "cnc_circuit":
            shape = turn % len(self.shapes)
            init = rng.randrange(len(self.cnc_by_shape[shape]))
            steps = relabel(random_circuit(rng, 2, length), v2)
            return {"kind": kind, "shape": shape, "init": init, "steps": steps}
        if kind == "orbit_circuit":
            v = rng.randrange(len(self.orbit_pool))
            return {"kind": kind, "vertex": v, "steps": relabel(random_circuit(rng, 2, length), v2)}
        n = 3
        inner = self.LIFT_INNERS[turn % 3]
        m = 2 if inner == "orbit" else 1
        choice = rng.randrange(len(self.orbit_pool) if inner == "orbit" else len(self.qubit_cnc))
        return {
            "kind": kind, "inner": inner, "choice": choice, "m": m,
            "sigma": random_tail(rng, n, m), "u": v3.compose(random_clifford(rng, n)),
            "steps": relabel(random_circuit(rng, n, 1 + (turn // 3) % 3), v3),
        }

    def describe(self, item):
        out = {}
        for k, v in item.items():
            if k == "steps":
                v = circuit_json(v)
            elif isinstance(v, gf2.PauliPoint):
                v = v.label()
            elif k == "sigma":
                v = stabilizer.state_to_json(v.subspace, v)
            elif k == "u":
                v = v.to_json()
            out[k] = v
        return out

    def _lifted_parts(self, item):
        if item["inner"] == "orbit":
            st = self.orbit_pool[item["choice"]]
            pieces, inner_op = [(ONE, st)], st.operator()
        elif item["inner"] == "t_state":
            pieces, inner_op = self.t_pieces, t_state()
        else:
            st = self.qubit_cnc[item["choice"]]
            pieces, inner_op = [(ONE, st)], st.operator()
        return pieces, inner_op

    def run_item(self, item):
        kind = item["kind"]
        if kind == "orbit_update":
            v = self.orbit_pool[item["vertex"]]
            lhs = orbit.measure_update(v, item["axis"], item["s"])
            return lhs, v.operator().project(item["axis"], item["s"])
        if kind == "lifted_circuit":
            pieces, inner_op = self._lifted_parts(item)
            engine = reduction.ReductionEngine(3, item["m"], item["sigma"], item["u"])
            init = [(w, simulate.LiftState(engine, st)) for w, st in pieces]
            rho = explicit_lift(inner_op, item["sigma"], item["u"])
        else:
            if kind == "cnc_circuit":
                st = self.cnc_by_shape[item["shape"]][item["init"]]
            else:
                st = self.orbit_pool[item["vertex"]]
            init, rho = [(ONE, st)], st.operator()
        fn = simulate.exact_distribution
        lhs = fn(init, item["steps"], **with_fallback(fn))
        return lhs, simulate.born_distribution(rho, item["steps"])

    def check(self, item, result):
        lhs, rhs = result
        if item["kind"] == "orbit_update":
            return check_operator_sum(lhs, rhs, 2)
        return check_distributions(lhs, rhs)


class Sample(Workload):
    """Shots on seeded adaptive circuits; counts fit the exact law.

    Each kind has several circuits, taken in turn, because a circuit's
    shape (steps skipped, pieces per branch, coin steps) sets its cost per
    shot, and one circuit per kind would make a run's mix a single draw.
    As in ``Verify``, the circuits are one base set moved by Clifford
    unitaries the seed draws (initial state and axes alike), so their
    shapes are the same on every seed; the seed also draws every item's
    shot seed.
    """

    name = "sample"
    deferred_check = True
    round_seconds = 0.7
    #: shots per item, chosen so each kind takes about a third of a round
    SHOTS = {"t1": 1000, "tt": 600, "lift3": 24}
    round_kinds = ("t1", "tt", "lift3")
    CIRCUITS = 4
    BASE_SEED = 1104

    def setup(self):
        base, rng = random.Random(self.BASE_SEED), self.rng
        t = t_state()
        t_pieces = simulate.decompose_known(t)
        # decompose_known would first build the whole two-qubit family
        # for any n = 2 operator; T (x) T already lies in the hull of the
        # cnc vertices it tries first, so decompose over those directly.
        tt = t.tensor(t)
        pool = cnc.cnc_vertices(2)
        weights = polytope.decompose(tt, [c.operator() for c in pool])
        if weights is None:
            raise RuntimeError("T (x) T left the cnc hull")
        tt_pieces = [(w, pool[i]) for i, w in sorted(weights.items())]
        rebuilt = pauli.QOperator.zero(2)
        for w, c in tt_pieces:
            rebuilt = rebuilt + c.operator().scale(w)
        if rebuilt != tt or total_mass(weights.values()) != ONE:
            raise RuntimeError("T (x) T decomposition is not exact")
        u1, u2, u3 = (random_clifford(rng, n) for n in (1, 2, 3))
        moved = {
            "t1": [(w, cnc_from_operator(u1.conjugate(c.operator()))) for w, c in t_pieces],
            "tt": [(w, cnc_from_operator(u2.conjugate(c.operator()))) for w, c in tt_pieces],
        }
        self.circuits = {kind: [] for kind in self.round_kinds}
        described = {kind: [] for kind in self.round_kinds}
        for _ in range(self.CIRCUITS):
            self.circuits["t1"].append((moved["t1"], relabel(random_circuit(base, 1, 4), u1)))
            self.circuits["tt"].append((moved["tt"], relabel(random_circuit(base, 2, 3), u2)))
            n, m = 3, 1
            while True:
                sigma, word = random_tail(base, n, m), random_clifford(base, n)
                steps = random_circuit(base, n, 4, fixed_prefix=2)
                engine = reduction.ReductionEngine(n, m, sigma, word)
                plan = reduction.reduce_static(engine, [p for p, _ in steps[:2]])
                if plan["coins"]:
                    break
            u = u3.compose(word)
            engine = reduction.ReductionEngine(n, m, sigma, u)
            steps = relabel(steps, u3)
            lifted = [(w, simulate.LiftState(engine, st)) for w, st in t_pieces]
            self.circuits["lift3"].append((lifted, steps))
            described["lift3"].append(
                [stabilizer.state_to_json(sigma.subspace, sigma), u.to_json()]
            )
        self.exact = {}
        fn = simulate.exact_distribution
        for kind, circuits in self.circuits.items():
            for j, (init, steps) in enumerate(circuits):
                dist = fn(init, steps, **with_fallback(fn))
                if total_mass(dist.values()) != ONE:
                    raise RuntimeError(f"exact law of {kind} circuit {j} does not sum to one")
                self.exact[kind, j] = {k: float(p) for k, p in dist.items()}
                described[kind].append(circuit_json(steps))
        self.inputs = {"circuits": described, "shots": self.SHOTS,
                       "relabel": [u.to_json() for u in (u1, u2, u3)]}

    def make_item(self, kind, rng, turn):
        return {"kind": kind, "circuit": turn % self.CIRCUITS,
                "seed": rng.getrandbits(32), "shots": self.SHOTS[kind]}

    def units(self, item):
        return item["shots"]

    def run_item(self, item):
        fn = simulate.sample
        init, steps = self.circuits[item["kind"]][item["circuit"]]
        transcripts = fn(init, steps, seed=item["seed"], shots=item["shots"],
                         **with_fallback(fn))
        return Counter(transcripts)

    def check(self, item, result):
        exact = self.exact[item["kind"], item["circuit"]]
        return check_counts(result, exact, item["shots"])


WORKLOADS = {w.name: w for w in (Certify, Verify, Sample)}
