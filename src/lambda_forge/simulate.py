"""Sampling and exact simulation of Pauli-measurement computations.

A simulation starts from a convex combination of states with
closed-form measurement updates:

* cnc sets (including all stabilizer states), by the cnc update
  theorem, which covers every axis and every cnc set;
* members of Lambda_1 and Lambda_2, each a state in its own right (a
  ``MemberState``), and the family's orbit vertices, by the Freudenthal
  chain of the projected member over the cnc sets on the commutant of
  the axis (``orbit.member_update``; on one qubit, the stabilizer state
  {0, a});
* lifted descriptors U (inner (x) Pi_sigma) U^dagger, handled by
  rewriting the measurement sequence down to the inner register.

A state type is its own certificate, checked when built, so no update
checks a state again: a ``MemberState`` passed ``membership`` (a
non-member is refused by its violated facet), an ``OrbitVertex`` is one
of the 1920 family members, and a ``LiftState`` holds a state on its m
head qubits (a bare ``QOperator`` inner made a ``MemberState``).  An
``operator`` descriptor is read as one member state, with no pool and no
simplex.  No update goes through exact projection: ``QOperator.project``
appears here only in the Born branch rule.  Updates of every state kind
are memoized on (state, axis), one entry holding the children of both
outcomes; lifted states compare and hash by value (engine frame and
inner state), so they share entries.  A lifted step is written once, in
``_cached_branch``: fixed at weight 1, a fair coin, or the inner's own
update with the outcome flipped by the tail sign.

One walker, ``_law``, expands a branch tree with exact weights and sums
its leaves by transcript; a law is one of two branch rules listing a
node's children: the closed-form updates (``exact_distribution``), or
the Born rule on the exact operator, weighted from two coefficients and
projected only where it branches again (``born_distribution``, the
independent ground truth used by the test suite).
``sample`` draws one trajectory per shot along the update rule,
deterministic for a fixed seed.  A draw is one 64-bit integer u compared
against integer thresholds ceil(2**64 * c_i) over the cumulative weights
c_i of a law (they sum to exactly 1: the initial weights pass
``check_weights``, and the two outcomes of a trace-1 state sum to 1);
u < ceil(x) exactly when u < x, and the ceiling is computed
exactly (floor(r*sqrt(2)) = isqrt(2 r**2)), so every draw is the exact
comparison in Q(sqrt(2)) with no float.  Draw tables are memoized on
(state, axis), as the updates are, and the shots of one call share a
bounded outcome tree (``iter_sample``): a shot on it makes one draw, one
bisection and one index per node, where a node also draws for the run of
one-item steps before it.

Sequences are lists of steps; a step is a Pauli point, or a
``(point, condition)`` tuple where the condition maps earlier step
indices to required outcomes 0 or 1 (a decision table); unmet
conditions skip the step, recorded as None in the transcript.  Any other
step, a point whose qubit count is not the state's, the identity point,
or a condition naming the step itself or a later one, is rejected before
any step runs; so is a bare operator initial state that is not a member.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import field
from functools import lru_cache, partial
from math import isqrt
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .field import HALF, FieldElem, ONE, ZERO, value_type
from .clifford import CliffordTableau
from .cnc import CncSet, cnc_vertices
from .gf2 import PauliPoint, Subspace
from .lifting import _restrict_key
from .orbit import OrbitVertex, classify_operator, enumerate_family, member_update
from .pauli import QOperator
from .polytope import decompose, membership
from .reduction import CoinStep, FixedStep, ReductionEngine, embed_tail_assignment
from .stabilizer import Assignment, check_bit, state_from_json, state_to_json


@value_type()
class MemberState:
    """A member of Lambda_1 or Lambda_2 as a state: a trace-1 ``QOperator``
    on n <= 2 that passed ``membership`` when built; ValueError otherwise,
    naming the first violated facet or the type that is not a QOperator."""
    op: QOperator

    def __post_init__(self):
        if not isinstance(self.op, QOperator):
            raise ValueError(f"a member state holds a QOperator, got {type(self.op).__name__}")
        if self.op.trace() != ONE:
            raise ValueError(f"an operator initial state needs trace 1, got {self.op.trace()}")
        if self.n > 2:
            raise ValueError(f"operator initial states are taken only for n <= 2, got n = {self.n}")
        violation = membership(self.op).violation
        if violation is not None:
            raise ValueError(f"the operator is not a polytope member: violated facet {violation}")

    @property
    def n(self) -> int:
        return self.op.n

    def operator(self) -> QOperator:
        return self.op


@value_type()
class LiftState:
    """A lifted initial state: engine frame around an inner state on its m
    head qubits, checked when built (a bare ``QOperator`` is entered)."""

    engine: ReductionEngine
    inner: "State"
    # kept by ``value_type``: the state keys the update memos and each
    # call's draw tables
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "inner", _enter(self.inner))
        if self.inner.n != self.engine.m:
            raise ValueError(f"the inner is on {self.inner.n} qubits, the head on {self.engine.m}")

    @property
    def n(self) -> int:
        return self.engine.n


State = Union[CncSet, OrbitVertex, MemberState, LiftState]


#: the state kinds with closed-form updates
_STATE_TYPES = (CncSet, OrbitVertex, MemberState, LiftState)


def update_state(state: State, a: PauliPoint, s: int) -> list[tuple[FieldElem, State]]:
    """Pieces (weight, new state) with weights summing to the outcome
    probability; exact at every branch.  A bare ``QOperator`` is certified
    (``MemberState``) on every call."""
    if not isinstance(state, _STATE_TYPES):
        state = _enter(state)  # a bare QOperator certified, or ValueError
    check_bit(s, "outcome")
    return [(w, piece) for t, w, piece in _cached_branch(state, a) if t == s]


@lru_cache(maxsize=1 << 16)
def _cached_branch(state: State, a: PauliPoint) -> tuple[tuple[int, FieldElem, State], ...]:
    """The (outcome, weight, piece) children of both outcomes, outcome 0
    first; memoized, since branch trees and shots revisit (state, axis).
    A member state or family vertex runs the chain unchecked: its type is
    its certificate.  A lifted state takes the engine's step: a fixed
    step at weight 1, a coin at weight 1/2 per side on the resolved frame,
    or the inner's update children on the head axis with the outcome
    flipped by the tail sign (a stable sort, so each outcome keeps its
    pieces' order)."""
    if isinstance(state, LiftState):
        engine, inner = state.engine, state.inner
        step = engine.process(a)
        if isinstance(step, FixedStep):
            return ((step.outcome, ONE, state),)
        # the children's engines and inner states were checked with the parent
        if isinstance(step, CoinStep):
            return tuple((c, HALF, LiftState._of(engine.resolve_coin(step, c), inner))
                         for c in (0, 1))
        children = [(s ^ step.flip, w, LiftState._of(engine, nxt))
                    for s, w, nxt in _cached_branch(inner, step.point)]
        return tuple(sorted(children, key=itemgetter(0)))
    rule = (state.measure_update if isinstance(state, CncSet)
            else partial(member_update, state.operator()))
    return tuple((s, w, piece) for s in (0, 1) for w, piece in rule(a, s))


# -- sequences ----------------------------------------------------------------


def normalize_steps(steps: Sequence, n: int) -> list[tuple[PauliPoint, Optional[dict]]]:
    """(point, condition) pairs; raises ValueError unless every step is a
    nonzero n-qubit point or a (point, condition) tuple, the condition a
    mapping or None, and every condition maps indices of earlier steps to
    outcomes 0 or 1."""
    out = []
    for i, step in enumerate(steps):
        if isinstance(step, PauliPoint):
            step = (step, None)
        if not (isinstance(step, tuple) and len(step) == 2 and isinstance(step[0], PauliPoint)
                and isinstance(step[1], (Mapping, type(None)))):
            raise ValueError(f"step {i}: not a point or a (point, condition) pair: {step!r}")
        point, cond = step
        if point.n != n:
            raise ValueError(f"step {i}: {point.label()} is on {point.n} qubits, the state on {n}")
        if point.is_zero():
            raise ValueError(f"step {i}: the identity {point.label()} is not a measurement axis")
        for idx, want in (cond or {}).items():
            if not (isinstance(idx, int) and not isinstance(idx, bool) and 0 <= idx < i):
                raise ValueError(
                    f"step {i}: condition on {idx!r} does not name an earlier step"
                )
            check_bit(want, f"step {i}: condition outcome")
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


def _law(roots: Sequence[tuple], steps: Sequence, n: int, branch) -> dict[tuple, FieldElem]:
    """The joint outcome law of a branch tree on n qubits: the leaf weights
    summed by transcript.  ``branch(state, point)`` lists the (outcome,
    weight, next state) children of a node; a step whose condition fails
    records None and keeps the state, and a child of weight <= 0 is cut.
    The walk keeps an explicit stack, so depth meets no recursion limit."""
    steps = normalize_steps(steps, n)
    out: dict[tuple, FieldElem] = {}
    stack = [(0, state, weight, ()) for weight, state in reversed(roots) if weight.sign() > 0]
    while stack:
        i, state, prob, acc = stack.pop()
        if i == len(steps):
            out[acc] = out.get(acc, ZERO) + prob
            continue
        point, cond = steps[i]
        if not _condition_met(cond, acc):
            stack.append((i + 1, state, prob, acc + (None,)))
            continue
        for s, w, nxt in reversed(branch(state, point)):
            if w.sign() > 0:
                stack.append((i + 1, nxt, prob * w, acc + (s,)))
    return out


def _entered(initial: Iterable[tuple]) -> tuple[list[tuple[FieldElem, State]], int]:
    """The initial pairs with their weights checked and states entered
    (``_enter``), and the states' qubit count; ValueError if they differ."""
    entered = [(w, _enter(state)) for w, state in check_weights(initial)]
    widths = {state.n for _, state in entered}
    if len(widths) != 1:
        raise ValueError(f"the initial states differ in qubit count: {sorted(widths)}")
    return entered, widths.pop()


def _enter(state) -> State:
    """The state, or a bare ``QOperator`` as a ``MemberState``; ValueError on a non-state."""
    if isinstance(state, QOperator):
        return MemberState(state)
    if not isinstance(state, _STATE_TYPES):
        raise ValueError(f"unknown descriptor {type(state).__name__}")
    return state


def _update_branch(state: State, a: PauliPoint) -> list[tuple[int, FieldElem, State]]:
    """The closed-form update pieces for outcome 0, then for outcome 1."""
    return [(s, w, piece) for s in (0, 1) for w, piece in update_state(state, a, s)]


def _born_branch(node: tuple, a: PauliPoint) -> list[tuple[int, FieldElem, tuple]]:
    """Node (rho, owed): owed is the (axis, outcome) projection still due on
    rho, or None, applied here, so a node is projected only when branched on.
    Outcome s weighs p_s / Tr(rho), p_s = (alpha_0 + (-1)^s alpha_a) / 2."""
    rho, owed = node
    if owed is not None:
        rho = rho.project(*owed)
    w = (ONE + rho.coeff(a) / rho.trace()) * HALF
    return [(0, w, (rho, (a, 0))), (1, ONE - w, (rho, (a, 1)))]


def exact_distribution(
    initial: Iterable[tuple[FieldElem, State]],
    steps: Sequence,
) -> dict[tuple, FieldElem]:
    """Exact joint outcome distribution (None marks skipped steps).  The
    initial weights must pass ``check_weights``; states and steps share n."""
    initial, n = _entered(initial)
    return _law(initial, steps, n, _update_branch)


def born_distribution(rho: QOperator, steps: Sequence) -> dict[tuple, FieldElem]:
    """Ground truth by exact operator projection: each outcome's weight
    is read off two coefficients, and a node is projected only when it is
    branched on again.  ``rho`` must have trace 1."""
    if rho.trace() != ONE:
        raise ValueError(f"a Born law needs an operator of trace 1, got {rho.trace()}")
    return _law([(ONE, (rho, None))], steps, rho.n, _born_branch)


# -- sampling -----------------------------------------------------------------

_SCALE = 1 << 64


def _threshold(x: FieldElem) -> int:
    """ceil(2**64 * x), exactly, for x = a + b*sqrt(2) in Q(sqrt(2))."""
    num_a, num_b, d = x.p * _SCALE, x.q * _SCALE, x.d
    if num_b == 0:
        return -(-num_a // d)
    # floor(num_b * sqrt(2)); never an integer, since sqrt(2) is irrational
    root = isqrt(2 * num_b * num_b)
    floor_b = root if num_b > 0 else -root - 1
    # floor((num_a + y) / d) = (num_a + floor(y)) // d when 0 < y - floor(y) < 1
    return (num_a + floor_b) // d + 1


def _table(weighted: Iterable[tuple[FieldElem, object]]) -> tuple[tuple, tuple[int, ...]]:
    """Items and integer thresholds t_i = ceil(2**64 * c_i), c_i the
    cumulative weight, from nonnegative weights summing exactly to 1 (the
    last threshold is then 2**64); RuntimeError on any other mass, which
    no law gives.  Both are tuples, so a memoized table cannot be changed
    by a caller that shares it."""
    items, thresholds = [], []
    acc = ZERO
    for w, item in weighted:
        acc = acc + w
        items.append(item)
        thresholds.append(_threshold(acc))
    if acc != ONE:
        raise RuntimeError(f"a draw table's weights sum to {acc}, not 1")
    return tuple(items), tuple(thresholds)


def sample(
    initial: Sequence[tuple[FieldElem, State]],
    steps: Sequence,
    seed: int,
    shots: int = 1,
) -> list[tuple]:
    """Sampled transcripts; deterministic for a fixed seed.  The initial
    weights must pass ``check_weights``; ``seed`` is an int and ``shots``
    a positive int.

    A draw takes u = ``rng.getrandbits(64)`` and returns the first item
    whose threshold ``ceil(2**64 * c_i)`` exceeds u, c_i the cumulative
    weight.  For an integer u, u < ceil(x) exactly when u < x, so this is
    the exact comparison u / 2**64 < c_i made on integers only.  The
    shots of a call share an outcome tree, described in ``iter_sample``.
    """
    return list(iter_sample(initial, steps, seed, shots))


@lru_cache(maxsize=1 << 16)
def _draw_table(state: State, a: PauliPoint) -> tuple[tuple, tuple[int, ...]]:
    """The (outcome, piece) children of positive weight of measuring ``a``
    on ``state``, with their thresholds (``_table``); memoized on (state,
    axis), as ``_cached_branch`` is."""
    return _table((w, (s, piece)) for s, w, piece in _cached_branch(state, a) if w.sign() > 0)


#: a slot of the outcome tree that no shot has taken yet
_UNGROWN = (None, None)

#: the most nodes, leaves included, that one call's outcome tree grows
_TREE_NODES = 1 << 12


def iter_sample(
    initial: Sequence[tuple[FieldElem, State]],
    steps: Sequence,
    seed: int,
    shots: int = 1,
) -> Iterator[tuple]:
    """The transcripts of ``sample``, one per shot, as a generator.  The
    arguments are checked and the initial table built before the first
    transcript is drawn.

    The shots walk an outcome tree grown within the call.  A node is one
    executed step at one (transcript prefix, state): a tuple (width,
    thresholds, slots, items, link, step) whose slots hold, per (outcome,
    next state) item of the step's table, the child the first shot to
    draw it grew.  A leaf is (None, transcript), shared by every shot
    that ends there; unmet conditions are resolved when a node is grown,
    so a shot on grown nodes checks none and makes one draw, one
    bisection and one index per node, where a node also draws for the
    run of one-item steps before it.  Such a step's outcome is certain,
    so a run of r of them grows no node of its own: the next node grown
    on the path, or the run's own last step if none is, draws
    ``width`` = 64 * (r + 1) bits against thresholds shifted left by 64 * r
    (for the run's own last step, 64 * r bits against 2**(64 * r)).  A
    wide draw is the r + 1 draws of 64 bits it replaces, lowest bits
    first, and t * 2**(64 r) > u exactly when t > u // 2**(64 r), so
    every transcript is the one a draw per step gives.  The root is the
    initial table, at step -1; a one-item root is a one-item step too,
    never drawn, and the shots start at its one slot.  A shot that draws
    an ungrown slot is finished by ``_Call.finish``, which grows the
    nodes of its path until the tree holds ``_TREE_NODES`` units, one per
    executed step and one per leaf, and draws the rest on the same
    tables: one per (step, state) reached, keyed by the state, each the
    memoized ``_draw_table`` itself, shared and never copied.  So what a
    call holds is bounded by the tree's size and its distinct (step,
    state) pairs, not by its shot count.
    """
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise ValueError(f"shots must be a positive int, got {shots!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an int, got {seed!r}")
    initial, n = _entered(initial)
    init_items, init_thresholds = _table((w, (None, state)) for w, state in initial)
    call = _Call(normalize_steps(steps, n), random.Random(seed).getrandbits)
    # a certain root has no width: the first shot grows its one slot
    certain = len(init_items) == 1 and call.room
    root = (None if certain else 64, init_thresholds, [_UNGROWN] * len(init_items),
            init_items, None, -1)
    if certain:
        yield call.finish(root, 0)
        root, shots = root[2][0], shots - 1
    draw, top = call.draw, root[0]
    for _ in range(shots):
        node, width = root, top
        while True:
            k = bisect_right(node[1], draw(width))
            child = node[2][k]
            # a node's width is its first field, a leaf's and a slot's None
            width = child[0]
            if width is None:
                break
            node = child
        leaf = child[1]
        yield call.finish(node, k) if leaf is None else leaf


class _Call:
    """The steps, draws and tables of one ``iter_sample`` call, and the
    room left in its tree (see ``iter_sample``).  Each (step, state)
    reached has one table, ``_draw_table``'s own, keyed by the state (so
    equal states that are other objects share it) and read by the tree's
    nodes and the draws past it alike."""

    def __init__(self, plan: list[tuple], draw):
        # a step is (point, condition, its tables: a state to the
        # (outcome, next state) items and their thresholds)
        self.plan = [(point, cond, {}) for point, cond in plan]
        self.draw = draw
        self.room = _TREE_NODES

    def end_run(self, run: int, items: tuple, cell: tuple, slot: tuple) -> tuple:
        """The node of a run of ``run`` one-item steps, ``items`` the last
        one's table and ``cell`` its link cell, with one slot holding
        ``slot``; it draws the run's 64 * run bits, as a shot walking it
        does, and they are always below its one threshold."""
        link, step, _ = cell or (None, -1, None)  # None: a run of the root alone
        width = 64 * run
        self.draw(width)
        return (width, [1 << width], [slot], items, link, step)

    def finish(self, node: tuple, k: int) -> tuple:
        """The transcript of a shot that drew the ungrown slot k of
        ``node``, or took the one slot of an undrawn root (width None).
        Each executed step of the rest of its path makes one draw on its
        (step, state) table and, while the tree has room, takes one
        unit of it and grows the node there; the leaf is grown last, if
        room is left.  A run of one-item steps is held and merged into the
        next node grown, or, when the path ends or the room runs out
        first, into the run's own last step, whose slot then holds the
        leaf or stays ungrown (see ``iter_sample``).

        A node keeps no prefix: its link is the cell (prefix link, step,
        outcome) of the last executed step before it, or None below the
        root, so the prefix is rebuilt once per shot that leaves the grown
        nodes and then extended step by step; a path of any depth costs
        time linear in its length."""
        draw, room = self.draw, self.room
        width, _, slots, items, link, step = node
        run = int(width is None)  # one-item steps held since the last node
        s, state = items[k]
        acc: list[Optional[int]] = [None] * step
        cell = link
        while cell is not None:
            cell, at, outcome = cell
            acc[at] = outcome
        if step >= 0:
            acc.append(s)
            link = (link, step, s)
        for point, cond, tables in self.plan[step + 1:]:
            if cond is not None and not _condition_met(cond, acc):
                acc.append(None)
                continue
            items, thresholds = tables.get(state) or tables.setdefault(
                state, _draw_table(state, point))
            if room:
                room -= 1
                i = len(acc)
                if len(items) == 1:
                    # certain: drawn for by the node that ends the run
                    run += 1
                    s, state = items[0]
                    acc.append(s)
                    link = (link, i, s)
                    if not room:
                        # the tree is full: the run ends here, its slot ungrown
                        slots[k] = self.end_run(run, items, link, _UNGROWN)
                    continue
                width = 64 * run + 64
                if run:
                    thresholds = [t << width - 64 for t in thresholds]
                    run = 0
                child = slots[k] = (width, thresholds, [_UNGROWN] * len(items), items, link, i)
                slots = child[2]
                k = bisect_right(thresholds, draw(width))
                s, state = items[k]
                link = (link, i, s)
            else:
                s, state = items[bisect_right(thresholds, draw(64))]
            acc.append(s)
        transcript = tuple(acc)
        if room:
            room -= 1
            leaf = (None, transcript)
            # a run that ends the path holds the leaf at its last step
            slots[k] = self.end_run(run, items, link, leaf) if run else leaf
        self.room = room
        return transcript


# -- JSON ---------------------------------------------------------------------


def state_to_descriptor_json(state: State) -> dict:
    if isinstance(state, CncSet):
        return {"type": "cnc", **state.to_json()}
    if isinstance(state, OrbitVertex):
        return {"type": "orbit", "coeffs": state.operator().to_json()["coeffs"]}
    if isinstance(state, MemberState):
        return {"type": "operator", **state.op.to_json()}
    n, m, sig = state.engine.n, state.engine.m, state.engine.sigma
    # the row shift back to the tail keeps sigma's row values
    tail = Subspace(n - m, [_restrict_key(r, n, m, n - m) for r in sig.subspace.rows])
    return {
        "type": "lift",
        "u": state.engine.conj.invert().to_json(),
        "sigma": state_to_json(tail, Assignment(tail, sig.row_values)),
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
        op = QOperator.from_json({"n": 2, "coeffs": obj.get("coeffs")})
        return [(ONE, classify_operator(op))]
    if kind == "lift":
        inner = descriptor_from_json(obj.get("inner"))
        _, tail_asg = state_from_json(obj.get("sigma"))
        m = inner[0][1].n
        n = m + tail_asg.subspace.n
        sigma = embed_tail_assignment(tail_asg, n, m)
        unitary = (
            CliffordTableau.from_json(obj["u"]) if "u" in obj else None
        )
        engine = ReductionEngine(n, m, sigma, unitary)
        return [(w, LiftState(engine, st)) for w, st in inner]
    if kind == "mixture":
        terms = obj.get("terms")
        if not isinstance(terms, list) or not all(isinstance(t, Mapping) for t in terms):
            raise ValueError("mixture terms must be a list of objects")
        terms = check_weights((FieldElem.from_json(t.get("weight")), t) for t in terms)
        return _entered((w * w2, st) for w, term in terms
                        for w2, st in descriptor_from_json(term.get("state")))[0]
    if kind == "operator":
        return [(ONE, MemberState(QOperator.from_json(obj)))]
    raise ValueError(f"unknown initial-state descriptor type {kind!r}")


def decompose_known(op: QOperator) -> list[tuple[FieldElem, State]]:
    """Exact convex decomposition over the cnc vertices, or else (n = 2)
    over them and the family, built only when the first pool fails."""
    if op.trace() != ONE:
        raise ValueError(f"an operator initial state needs trace 1, got {op.trace()}")
    if op.n > 2:
        raise ValueError("operator initial states are decomposed only for n <= 2")
    for family in (False, True) if op.n == 2 else (False,):
        pool, operators = _known_pool(op.n, family)
        weights = decompose(op, operators)
        if weights is not None:
            return [(w, pool[i]) for i, w in weights.items()]
    pools = "the cnc vertices, then the family" if op.n == 2 else "the cnc vertices"
    raise ValueError(f"no convex decomposition over {pools}; simulate takes the operator "
                     'as a member state ({"type": "operator"})')


@lru_cache(maxsize=None)
def _known_pool(n: int, family: bool) -> tuple[tuple[State, ...], tuple[QOperator, ...]]:
    """A pool ``decompose_known`` tries, as its states and their operators:
    the cnc vertices, followed by the n = 2 family when ``family``."""
    if family:
        cnc, ops = _known_pool(n, False)
        members = enumerate_family()
        return cnc + members, ops + tuple(m.operator() for m in members)
    cnc = tuple(cnc_vertices(n))
    return cnc, tuple(c.operator() for c in cnc)


#: a condition key: a step index in plain ASCII decimal, so each index has
#: one key (no sign, space, underscore, leading zero or other digit)
_STEP_INDEX = re.compile(r"0|[1-9][0-9]*").fullmatch


def steps_from_json(steps: Sequence[Mapping], n: int) -> list:
    if not isinstance(steps, list):
        raise ValueError(f"steps must be a list, got {steps!r}")
    out = []
    for i, st in enumerate(steps):
        if not isinstance(st, Mapping) or not isinstance(st.get("measure"), str):
            raise ValueError(f"a step must be an object with a 'measure' label, got {st!r}")
        point = PauliPoint.from_label(st["measure"])
        cond = st.get("if")
        if cond is not None and not isinstance(cond, Mapping):
            raise ValueError("a step condition must be an object")
        for k in cond or ():
            if not isinstance(k, str) or not _STEP_INDEX(k):
                raise ValueError(f"step {i}: condition key {k!r} is not a step index")
        out.append((point, {int(k): v for k, v in cond.items()} if cond else None))
    return normalize_steps(out, n)


def distribution_to_json(dist: Mapping[tuple, FieldElem]) -> list[dict]:
    order = sorted(dist, key=lambda k: tuple(-1 if v is None else v for v in k))
    return [{"outcomes": list(key), "probability": dist[key].to_json()} for key in order]
