"""Sampling and exact simulation of Pauli-measurement computations.

A simulation starts from a convex decomposition of the initial state
over descriptors with closed-form measurement updates:

* cnc sets (including all stabilizer states), by the cnc update
  theorem, which covers every axis and every cnc set;
* two-qubit orbit vertices, by the family's update rules;
* lifted descriptors U (inner (x) Pi_sigma) U^dagger, handled by
  rewriting the measurement sequence down to the inner register.

No update goes through exact projection: ``QOperator.project`` appears
here only in ``born_distribution``.

``exact_distribution`` expands the full branch tree with exact rational
or Q(sqrt(2)) weights; ``sample`` draws one trajectory per shot,
deterministic for a fixed seed.  ``born_distribution`` is the
independent operator-level ground truth used by the test suite.

Sequences are lists of steps; a step is a Pauli point, or a
``(point, condition)`` pair where the condition maps earlier step
indices to required outcomes 0 or 1 (a decision table); unmet
conditions skip the step, recorded as None in the transcript.  A
condition naming the step itself or a later one is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .field import HALF, FieldElem, ONE, ZERO
from .clifford import CliffordTableau
from .cnc import CncSet
from .gf2 import PauliPoint
from .orbit import OrbitVertex, classify_operator, measure_update as orbit_update
from .pauli import QOperator
from .polytope import decompose
from .reduction import CoinStep, FixedStep, ReductionEngine
from .stabilizer import Assignment, state_from_json, state_to_json


class UnsupportedDescriptor(ValueError):
    """Raised when no closed-form update chain covers a descriptor."""


@dataclass(frozen=True)
class LiftState:
    """A lifted initial state: engine frame around an inner descriptor."""

    engine: ReductionEngine
    inner: "State"

    @property
    def n(self) -> int:
        return self.engine.n


State = Union[CncSet, OrbitVertex, LiftState]


def state_qubits(state: State) -> int:
    if isinstance(state, CncSet):
        return state.n
    if isinstance(state, OrbitVertex):
        return 2
    return state.n


def state_operator(state: State) -> QOperator:
    if isinstance(state, CncSet):
        return state.operator()
    if isinstance(state, OrbitVertex):
        return state.operator()
    from .reduction import lifted_operator

    inner_op = state_operator(state.inner)
    sig = state.engine.sigma
    # the engine's conjugator is the inverse of the preparing unitary
    return state.engine.conj.invert().conjugate(
        lifted_operator(inner_op, sig)
    )


def update_state(state: State, a: PauliPoint, s: int) -> list[tuple[FieldElem, State]]:
    """Pieces (weight, new state) with weights summing to the outcome
    probability; exact at every branch."""
    if isinstance(state, (CncSet, OrbitVertex)):
        # memoized: branch trees revisit the same (state, axis) pairs
        return list(_cached_update(state, a, s))
    if isinstance(state, LiftState):
        step, engine = state.engine.process(a)
        if isinstance(step, FixedStep):
            if step.outcome != (s & 1):
                return []
            return [(ONE, LiftState(engine, state.inner))]
        if isinstance(step, CoinStep):
            return [
                (HALF, LiftState(engine.resolve_coin(s & 1), state.inner))
            ]
        pieces = update_state(state.inner, step.point, (s ^ step.flip) & 1)
        return [(w, LiftState(engine, inner)) for w, inner in pieces]
    raise UnsupportedDescriptor(f"unknown descriptor {type(state).__name__}")


@lru_cache(maxsize=1 << 16)
def _cached_update(
    state: Union[CncSet, OrbitVertex], a: PauliPoint, s: int
) -> tuple[tuple[FieldElem, State], ...]:
    if isinstance(state, CncSet):
        pieces = state.measure_update(a, s)
    else:
        pieces = orbit_update(state, a, s)
    return tuple((FieldElem(w), piece) for w, piece in pieces)


# -- sequences ----------------------------------------------------------------


def normalize_steps(steps: Sequence) -> list[tuple[PauliPoint, Optional[dict]]]:
    """(point, condition) pairs; raises ValueError unless every condition
    maps indices of earlier steps to outcomes 0 or 1."""
    out = []
    for i, step in enumerate(steps):
        if isinstance(step, PauliPoint):
            out.append((step, None))
            continue
        point, cond = step
        for idx, want in (cond or {}).items():
            if not (isinstance(idx, int) and 0 <= idx < i):
                raise ValueError(
                    f"step {i}: condition on {idx!r} does not name an earlier step"
                )
            if want not in (0, 1):
                raise ValueError(
                    f"step {i}: condition outcome must be 0 or 1, got {want!r}"
                )
        out.append((point, dict(cond) if cond else None))
    return out


def _condition_met(cond: Optional[dict], acc: Sequence[Optional[int]]) -> bool:
    if cond:
        for idx, want in cond.items():
            if acc[idx] != want:
                return False
    return True


def check_weights(weighted: Iterable[tuple]) -> list[tuple]:
    """The (weight, item) pairs with each weight as a field element;
    raises ValueError unless the weights are nonnegative and sum exactly
    to 1."""
    out = [(FieldElem.coerce(w), item) for w, item in weighted]
    for w, _ in out:
        if w.sign() < 0:
            raise ValueError(f"mixture weight {w} is negative")
    total = sum((w for w, _ in out), ZERO)
    if total != ONE:
        raise ValueError(f"mixture weights sum to {total}, not 1")
    return out


def exact_distribution(
    initial: Iterable[tuple[FieldElem, State]],
    steps: Sequence,
) -> dict[tuple, FieldElem]:
    """Exact joint outcome distribution (None marks skipped steps).  The
    initial weights must pass ``check_weights``."""
    initial = check_weights(initial)
    steps = normalize_steps(steps)
    out: dict[tuple, FieldElem] = {}

    def walk(i, state, prob, acc):
        if i == len(steps):
            key = tuple(acc)
            out[key] = out.get(key, ZERO) + prob
            return
        point, cond = steps[i]
        if not _condition_met(cond, acc):
            walk(i + 1, state, prob, acc + [None])
            return
        for s in (0, 1):
            for w, piece in update_state(state, point, s):
                if w.sign() > 0:
                    walk(i + 1, piece, prob * w, acc + [s])

    for weight, state in initial:
        if weight.sign() > 0:
            walk(0, state, weight, [])
    return out


def born_distribution(rho: QOperator, steps: Sequence) -> dict[tuple, FieldElem]:
    """Ground truth by exact operator projection and renormalization."""
    steps = normalize_steps(steps)
    out: dict[tuple, FieldElem] = {}

    def walk(i, state, prob, acc):
        if i == len(steps):
            key = tuple(acc)
            out[key] = out.get(key, ZERO) + prob
            return
        point, cond = steps[i]
        if not _condition_met(cond, acc):
            walk(i + 1, state, prob, acc + [None])
            return
        for s in (0, 1):
            projected = state.project(point, s)
            p = projected.trace()
            if p.sign() > 0:
                walk(i + 1, projected.scale(ONE / p), prob * p, acc + [s])

    walk(0, rho, ONE, [])
    return out


def outcome_probability(
    initial: Iterable[tuple[FieldElem, State]], a: PauliPoint, s: int
) -> FieldElem:
    """sum_alpha p(alpha) * (total update weight at outcome s).  The
    initial weights must pass ``check_weights``."""
    total = ZERO
    for weight, state in check_weights(initial):
        q = ZERO
        for w, _ in update_state(state, a, s):
            q = q + w
        total = total + weight * q
    return total


# -- sampling -----------------------------------------------------------------


def _draw(rng: random.Random, weighted: Sequence[tuple[FieldElem, object]]):
    """Exact-threshold draw from nonnegative weights (need not sum to 1)."""
    total = ZERO
    for w, _ in weighted:
        total = total + w
    if total.sign() <= 0:
        raise ValueError("cannot sample from an empty distribution")
    r = FieldElem(Fraction(rng.getrandbits(64), 1 << 64)) * total
    acc = ZERO
    for w, item in weighted:
        acc = acc + w
        if r < acc:
            return item
    return weighted[-1][1]


def sample(
    initial: Sequence[tuple[FieldElem, State]],
    steps: Sequence,
    seed: int,
    shots: int = 1,
) -> list[tuple]:
    """Sampled transcripts; deterministic for a fixed seed.  The initial
    weights must pass ``check_weights``."""
    if shots < 1:
        raise ValueError(f"shots must be a positive count, got {shots}")
    init = check_weights(initial)
    rng = random.Random(seed)
    steps = normalize_steps(steps)
    transcripts = []
    for _ in range(shots):
        state = _draw(rng, init)
        acc: list[Optional[int]] = []
        for point, cond in steps:
            if not _condition_met(cond, acc):
                acc.append(None)
                continue
            branches = []
            for s in (0, 1):
                for w, piece in update_state(state, point, s):
                    if w.sign() > 0:
                        branches.append((w, (s, piece)))
            s, state = _draw(rng, branches)
            acc.append(s)
        transcripts.append(tuple(acc))
    return transcripts


# -- JSON ---------------------------------------------------------------------


def state_to_descriptor_json(state: State) -> dict:
    if isinstance(state, CncSet):
        return {"type": "cnc", **state.to_json()}
    if isinstance(state, OrbitVertex):
        return {"type": "orbit", "coeffs": state.operator().to_json()["coeffs"]}
    sig = state.engine.sigma
    m = state.engine.m
    tail_pairs = []
    for p in sig.subspace.basis_points():
        from .lifting import tail_point

        tail_pairs.append((tail_point(p, m), sig.value(p)))
    tail_asg = Assignment.from_pairs(tail_pairs)
    return {
        "type": "lift",
        "u": state.engine.conj.invert().to_json(),
        "sigma": state_to_json(tail_asg.subspace, tail_asg),
        "inner": state_to_descriptor_json(state.inner),
    }


def descriptor_from_json(obj: Mapping) -> list[tuple[FieldElem, State]]:
    """Decode an initial-state descriptor into a weighted state list."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"an initial-state descriptor must be an object, got {obj!r}")
    kind = obj.get("type")
    if kind == "cnc":
        return [(ONE, CncSet.from_json(obj))]
    if kind == "stabilizer":
        _, asg = state_from_json(obj)
        return [(ONE, CncSet.from_assignment(asg))]
    if kind == "orbit":
        op = QOperator.from_json({"n": 2, "coeffs": obj["coeffs"]})
        return [(ONE, classify_operator(op))]
    if kind == "lift":
        inner = descriptor_from_json(obj["inner"])
        _, tail_asg = state_from_json(obj["sigma"])
        m = state_qubits(inner[0][1])
        n = m + tail_asg.subspace.n
        from .reduction import embed_tail_assignment

        sigma = embed_tail_assignment(tail_asg, n, m)
        unitary = (
            CliffordTableau.from_json(obj["u"]) if "u" in obj else None
        )
        engine = ReductionEngine(n, m, sigma, unitary)
        return [(w, LiftState(engine, st)) for w, st in inner]
    if kind == "mixture":
        terms = obj["terms"]
        if not isinstance(terms, list) or not all(isinstance(t, Mapping) for t in terms):
            raise ValueError("mixture terms must be a list of objects")
        out = []
        for w, term in check_weights((FieldElem.from_json(t["weight"]), t) for t in terms):
            for w2, st in descriptor_from_json(term["state"]):
                out.append((w * w2, st))
        return out
    if kind == "operator":
        op = QOperator.from_json(obj)
        return decompose_known(op)
    raise ValueError(f"unknown initial-state descriptor type {kind!r}")


def known_vertex_states(n: int) -> list[State]:
    """Closed-form-updatable extremal states for n <= 2."""
    from .cnc import cnc_vertices

    if n == 1:
        return list(cnc_vertices(1))
    if n == 2:
        from .orbit import enumerate_family

        return list(cnc_vertices(2)) + list(enumerate_family())
    raise ValueError("known vertex pools are enumerated for n <= 2")


def decompose_known(op: QOperator) -> list[tuple[FieldElem, State]]:
    """Exact convex decomposition over the known updatable vertex pool."""
    if op.n > 2:
        raise UnsupportedDescriptor(
            "operator initial states are decomposed only for n <= 2"
        )
    from .cnc import cnc_vertices

    pools: list[list[State]] = [list(cnc_vertices(op.n))]
    if op.n == 2:
        from .orbit import enumerate_family

        pools.append(pools[0] + list(enumerate_family()))
    for pool in pools:
        weights = decompose(op, [state_operator(s) for s in pool])
        if weights is not None:
            return [(w, pool[i]) for i, w in weights.items()]
    raise UnsupportedDescriptor("operator is outside the known updatable hull")


def steps_from_json(steps: Sequence[Mapping], n: int) -> list:
    if not isinstance(steps, list):
        raise ValueError(f"steps must be a list, got {steps!r}")
    out = []
    for st in steps:
        if not isinstance(st, Mapping) or not isinstance(st.get("measure"), str):
            raise ValueError(f"a step must be an object with a 'measure' label, got {st!r}")
        point = PauliPoint.from_label(st["measure"])
        if point.n != n:
            raise ValueError("step qubit count mismatch")
        cond = st.get("if")
        if cond is not None and not isinstance(cond, Mapping):
            raise ValueError("a step condition must be an object")
        out.append((point, {int(k): v for k, v in cond.items()} if cond else None))
    return normalize_steps(out)


def distribution_to_json(dist: Mapping[tuple, FieldElem]) -> list[dict]:
    rows = []
    for key in sorted(dist, key=lambda k: tuple(-1 if v is None else v for v in k)):
        rows.append(
            {
                "outcomes": [None if v is None else v for v in key],
                "probability": dist[key].to_json(),
            }
        )
    return rows
