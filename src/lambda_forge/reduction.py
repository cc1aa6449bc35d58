"""Reduction of Pauli measurement sequences on lifted initial states.

An initial state U (X_A (x) Pi_sigma_B) U^dagger, with X on m head qubits
and sigma a stabilizer state on the n-m tail qubits, admits a symbolic
rewriting of any n-qubit Pauli measurement sequence into an equivalent
sequence touching the head register only.  Per step, after folding the
accumulated Clifford into the observable, either

* the tail part sits inside sigma's stabilizer group: it contributes a
  fixed sign, so the step becomes a (possibly trivial) head measurement
  with a sign flip, or
* it does not: the outcome is a fair coin, and a Clifford correction
  (built from a symplectic completion) is folded into all later
  observables, so the step costs no measurement at all.

The engine below performs one such rewriting pass; it is immutable, so
branching over coin outcomes is cheap, and it compares and hashes by
value, so equal frames reached along different paths share memo entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .field import FieldElem, ONE
from .clifford import CliffordTableau, complete_symplectic_map
from .gf2 import PauliPoint, solve_affine, swap_halves, symplectic_form, x_point, z_point
from .pauli import QOperator
from .stabilizer import Assignment


@dataclass(frozen=True)
class FixedStep:
    """The outcome is determined; nothing is measured."""

    outcome: int


@dataclass(frozen=True)
class MeasureStep:
    """Measure the head observable; original outcome = head outcome ^ flip."""

    point: PauliPoint  # m-qubit point
    flip: int


@dataclass(frozen=True)
class CoinStep:
    """The outcome is a fair coin; resolve it to continue."""


Step = Union[FixedStep, MeasureStep, CoinStep]


def embed_tail_assignment(sigma: Assignment, n: int, m: int) -> Assignment:
    """Re-situate a stabilizer assignment on n-m qubits at the tail of n."""
    pairs = []
    for p in sigma.subspace.points():
        emb = PauliPoint(n, p.z << m, p.x << m)
        pairs.append((emb, sigma.value(p)))
    return Assignment.from_pairs(pairs, n)


class ReductionEngine:
    """One rewriting pass over a measurement sequence.

    ``process`` classifies the next observable; when it returns a
    ``CoinStep`` the caller chooses the coin value and continues on the
    engine returned by ``resolve_coin``.
    """

    __slots__ = ("n", "m", "sigma", "conj", "_pending", "_hash")

    def __init__(
        self,
        n: int,
        m: int,
        sigma: Assignment,
        unitary: Optional[CliffordTableau] = None,
        _conj: Optional[CliffordTableau] = None,
    ):
        if sigma.subspace.n != n or sigma.subspace.dim != n - m:
            raise ValueError("sigma must be a maximal tail stabilizer embedded in n")
        mask = (1 << m) - 1
        for r in sigma.subspace.rows:
            if (r >> n) & mask or r & mask:
                raise ValueError("sigma must be supported on the tail qubits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", sigma)
        if _conj is None:
            _conj = (
                CliffordTableau.identity(n) if unitary is None else unitary.invert()
            )
        object.__setattr__(self, "conj", _conj)
        object.__setattr__(self, "_pending", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ReductionEngine is immutable; use the returned copies")

    def _with(self, conj: CliffordTableau, pending=None) -> "ReductionEngine":
        eng = ReductionEngine.__new__(ReductionEngine)
        object.__setattr__(eng, "n", self.n)
        object.__setattr__(eng, "m", self.m)
        object.__setattr__(eng, "sigma", self.sigma)
        object.__setattr__(eng, "conj", conj)
        object.__setattr__(eng, "_pending", pending)
        object.__setattr__(eng, "_hash", None)
        return eng

    def _key(self) -> tuple:
        return (self.n, self.m, self.sigma, self.conj, self._pending)

    def __eq__(self, other):
        return isinstance(other, ReductionEngine) and self._key() == other._key()

    def __hash__(self):
        # cached: the engine keys the update memo of every lifted state
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    # -- classification ----------------------------------------------------

    def process(self, a: PauliPoint) -> tuple[Step, "ReductionEngine"]:
        """Classify measuring T_a on the current frame.

        Returns the step kind and the engine to continue with (for a
        coin step, continue instead with ``resolve_coin`` on the
        returned engine).
        """
        if a.is_zero() or a.n != self.n:
            raise ValueError("observable must be a nonzero n-qubit point")
        img = self.conj.apply_point(a)
        b, eps = img.point, img.phase >> 1
        m = self.m
        head_mask = (1 << m) - 1
        tail = PauliPoint(self.n, b.z & ~head_mask, b.x & ~head_mask)
        head = PauliPoint(m, b.z & head_mask, b.x & head_mask)
        if self.sigma.subspace.contains(tail):
            lam = (self.sigma.value(tail) + eps) & 1
            if head.is_zero():
                return FixedStep(lam), self
            return MeasureStep(head, lam), self
        return CoinStep(), self._with(self.conj, pending=(b, eps))

    def resolve_coin(self, c: int) -> "ReductionEngine":
        """Fold the correction for a coin step with outcome c."""
        if self._pending is None:
            raise ValueError("no coin step awaiting resolution")
        b, eps = self._pending
        n, m = self.n, self.m
        rows = list(self.sigma.subspace.basis_points())
        vals = [self.sigma.value(p) for p in rows]
        # regenerate so only the first generator anticommutes with b
        first = next(i for i, j in enumerate(rows) if symplectic_form(b, j) == 1)
        rows[0], rows[first] = rows[first], rows[0]
        vals[0], vals[first] = vals[first], vals[0]
        for i in range(1, len(rows)):
            if symplectic_form(b, rows[i]) == 1:
                rows[i] = rows[i] ^ rows[0]
                vals[i] = self.sigma.value(rows[i])
        prescribed = [(rows[i], x_point(n, m + 1 + i)) for i in range(len(rows))]
        prescribed.append((b, z_point(n, m + 1)))
        base = complete_symplectic_map(n, prescribed)
        # sign fix: send the signed generators to +X and the signed
        # observable to +Z on the first tail qubit
        funs = []
        rhs = []
        for i in range(len(rows)):
            target = x_point(n, m + 1 + i)
            got = base.apply_point(rows[i])
            assert got.point == target
            funs.append(swap_halves(target.key(), n))
            rhs.append(((got.phase >> 1) ^ vals[i]) & 1)
        got = base.apply_point(b)
        assert got.point == z_point(n, m + 1)
        funs.append(swap_halves(z_point(n, m + 1).key(), n))
        rhs.append(((got.phase >> 1) ^ eps) & 1)
        solved = solve_affine(funs, rhs, 2 * n)
        assert solved is not None
        v_tab = CliffordTableau.pauli(n, PauliPoint.from_key(n, solved[0])).compose(base)
        # correction K = V^dagger X^c H V on the first tail qubit; fold
        # K^dagger into the observable conjugator
        k_dag = v_tab.invert().compose(
            CliffordTableau.hadamard(n, m + 1).compose(
                _power_of_x(n, m + 1, c).compose(v_tab)
            )
        )
        return self._with(k_dag.compose(self.conj))


def _power_of_x(n: int, qubit: int, c: int) -> CliffordTableau:
    if c & 1:
        return CliffordTableau.pauli(n, x_point(n, qubit))
    return CliffordTableau.identity(n)


def reduce_static(
    engine: ReductionEngine,
    sequence: Sequence[PauliPoint],
    coins: Sequence[int] = (),
) -> dict:
    """Rewrite a whole sequence for one fixed coin assignment.

    Returns the head-register measurement plan: a list of step records
    aligned with the input sequence, plus the coin schedule actually
    consumed.
    """
    steps = []
    used = []
    it = iter(coins)
    for idx, a in enumerate(sequence):
        step, engine = engine.process(a)
        if isinstance(step, CoinStep):
            try:
                c = next(it) & 1
            except StopIteration:
                c = 0
            used.append({"step": idx, "outcome": c})
            engine = engine.resolve_coin(c)
            steps.append({"kind": "coin", "step": idx, "outcome": c})
        elif isinstance(step, FixedStep):
            steps.append({"kind": "fixed", "step": idx, "outcome": step.outcome})
        else:
            steps.append(
                {
                    "kind": "measure",
                    "step": idx,
                    "observable": step.point.label(),
                    "flip": step.flip,
                }
            )
    return {"m": engine.m, "steps": steps, "coins": used}


def reduced_distribution(
    X: QOperator,
    engine: ReductionEngine,
    sequence: Sequence[PauliPoint],
) -> dict[tuple[int, ...], FieldElem]:
    """Exact joint outcome distribution of the reduced run.

    Coins branch uniformly; head measurements branch by the polytope
    Born weights on the evolving head operator.  Equals the outcome
    distribution of the full lifted run, exactly.
    """
    out: dict[tuple[int, ...], FieldElem] = {}
    half = FieldElem(Fraction(1, 2))

    def walk(i: int, eng: ReductionEngine, state: QOperator, prob: FieldElem, acc):
        if i == len(sequence):
            key = tuple(acc)
            out[key] = out.get(key, FieldElem(0)) + prob
            return
        step, eng2 = eng.process(sequence[i])
        if isinstance(step, FixedStep):
            walk(i + 1, eng2, state, prob, acc + [step.outcome])
        elif isinstance(step, CoinStep):
            for c in (0, 1):
                walk(i + 1, eng2.resolve_coin(c), state, prob * half, acc + [c])
        else:
            for s_head in (0, 1):
                projected = state.project(step.point, s_head)
                p = projected.trace()
                if p.sign() <= 0:
                    continue
                walk(
                    i + 1,
                    eng2,
                    projected.scale(ONE / p),
                    prob * p,
                    acc + [s_head ^ step.flip],
                )

    walk(0, engine, X, ONE, [])
    return out
