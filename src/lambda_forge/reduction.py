"""Reduction of Pauli measurement sequences on lifted initial states.

An initial state U (X_A (x) Pi_sigma_B) U^dagger, with X on m head qubits
and sigma a stabilizer state on the n-m tail qubits, admits a symbolic
rewriting of any n-qubit Pauli measurement sequence into an equivalent
sequence touching the head register only.  Per step, after folding the
accumulated Clifford into the observable, either

* the tail part sits inside sigma's stabilizer group: it contributes a
  fixed sign, so the step becomes a (possibly trivial) head measurement
  with a sign flip, or
* it does not: the outcome is a fair coin, and the measurement acts on
  the frame state as conjugation by the Clifford W = (g' + b') / sqrt(2),
  with b' the signed observable and g' a signed stabilizer of sigma that
  anticommutes with it.  W is folded into all later observables in
  closed form, so the step costs no measurement at all.

Observables, sigma and the conjugator's generator images are read as
packed keys (``PauliPoint.key()``); a coin step takes g among sigma's
canonical rows, where sigma(g) is the row value.

The engine below performs one such rewriting pass.  ``process`` returns
the step alone: a fixed or head step leaves the frame as it is, and a
coin step carries the frame's image of the observable, which
``resolve_coin(coin, c)`` folds into a new engine.  The engine and its
steps are ``value_type``s: setting or deleting any name on one raises,
so branching over coin outcomes shares frames safely.  An engine
compares by its frame, whose hash ``value_type`` keeps, so equal frames
reached along different paths share memo entries.  ``reduce_static``
runs one pass for a fixed coin assignment.  The simulator runs a lifted
state along ``process`` and ``resolve_coin`` (``simulate._cached_branch``:
fixed, coin, or the inner's own update on the head step).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Sequence, Union

from .clifford import CliffordTableau
from .field import value_type
from .gf2 import PauliPoint, swap_halves
from .lifting import _place_assignment, _restrict_key, _tail_bits, is_tail_supported
from .pauli import key_phase
from .stabilizer import Assignment, check_bit


@value_type()
class FixedStep:
    """The outcome is determined; nothing is measured."""

    outcome: int


@value_type()
class MeasureStep:
    """Measure the head observable; original outcome = head outcome ^ flip."""

    point: PauliPoint  # m-qubit point
    flip: int


@value_type()
class CoinStep:
    """The outcome is a fair coin; ``resolve_coin`` folds it into the frame."""

    key: int  # the frame's image of the observable, as ``PauliPoint.key()``
    sign: int  # the image's sign bit


Step = Union[FixedStep, MeasureStep, CoinStep]


def embed_tail_assignment(sigma: Assignment, n: int, m: int) -> Assignment:
    """Re-situate a stabilizer assignment on n-m qubits at the tail of n."""
    if sigma.subspace.n > n - m:
        raise ValueError("sigma has more qubits than the tail")
    return _place_assignment(sigma, n, m)


@value_type(init=False)
class ReductionEngine:
    """One rewriting pass over a measurement sequence.

    ``process`` classifies the next observable; a fixed or head step
    leaves the frame as it is, and a ``CoinStep`` is folded into it by
    ``resolve_coin``, which returns the engine to continue with.
    """

    n: int
    m: int
    sigma: Assignment
    conj: CliffordTableau
    # kept by ``value_type``: the engine keys the update memo of every
    # lifted state
    _hash: Optional[int] = field(default=None, compare=False, repr=False)

    def __init__(
        self, n: int, m: int, sigma: Assignment, unitary: Optional[CliffordTableau] = None
    ):
        if sigma.subspace.n != n or sigma.subspace.dim != n - m or m >= n:
            raise ValueError("sigma must be a maximal tail stabilizer embedded in n")
        if not is_tail_supported(sigma.subspace, m):
            raise ValueError("sigma must be supported on the tail qubits")
        if unitary is not None and unitary.n != n:
            raise ValueError(f"the tableau u acts on {unitary.n} qubits, the state on {n}")
        conj = CliffordTableau.identity(n) if unitary is None else unitary.invert()
        for name, value in zip(("n", "m", "sigma", "conj", "_hash"), (n, m, sigma, conj, None)):
            object.__setattr__(self, name, value)

    # -- classification ----------------------------------------------------

    def process(self, a: PauliPoint) -> Step:
        """Classify measuring T_a on the current frame.

        A fixed or head step leaves the frame as it is; a coin step
        carries the frame's image of T_a for ``resolve_coin``.
        """
        if a.is_zero() or a.n != self.n:
            raise ValueError("observable must be a nonzero n-qubit point")
        n, m = self.n, self.m
        b, phase = self.conj._apply_key(a.key())
        eps = phase >> 1
        sign = self.sigma._key_value(b & _tail_bits(n, m))
        if sign is None:
            return CoinStep(b, eps)
        head = _restrict_key(b, n, 0, m)
        if not head:
            return FixedStep(sign ^ eps)
        return MeasureStep(PauliPoint.from_key(m, head), sign ^ eps)

    def resolve_coin(self, coin: CoinStep, c: int) -> "ReductionEngine":
        """The engine after the coin step ``process`` returned here, with
        outcome c.

        With (b, eps) the coin's image, the frame state rho is measured
        along b' = (-1)^{c+eps} T_b.  The first basis row g of sigma with
        [g, b] = 1 (one exists for a coin of this frame, as the tail of b
        lies outside sigma; any other coin is a ValueError) gives a
        stabilizer g' = (-1)^{sigma(g)} T_g of rho that anticommutes with
        b', and then 2 Pi_{b'} rho Pi_{b'} = W rho W for
        the Hermitian unitary W = (g' + b') / sqrt(2): expanding both sides
        with g' rho = rho g' = rho leaves the same four terms.  Measuring
        T_a afterwards is measuring W conj(T_a) W on rho, so each image e
        of the conjugator becomes W e W: e when it commutes with g and b,
        -e when it anticommutes with both, and (-1)^{[e,g]} e g' b'
        otherwise.
        """
        if not isinstance(coin, CoinStep):
            raise ValueError(f"only a coin step is resolved, got {coin!r}")
        b, eps = coin.key, coin.sign
        n = self.n
        b_swapped = swap_halves(b, n)
        # sigma(g) of a canonical row g is its row value: one row folds to 0
        g, sg = next(
            ((g, v) for g, v in zip(self.sigma.subspace.rows, self.sigma.row_values)
             if (g & b_swapped).bit_count() & 1),
            (None, None),
        )
        if g is None:
            raise ValueError(f"{coin!r} commutes with all of sigma, so it is no coin of this frame")
        g_swapped, gb = swap_halves(g, n), g ^ b
        # g' b' = i^gb_phase T_{g+b}
        gb_phase = 2 * (sg + c + eps) + key_phase(g, b, n)
        images = []
        for k, s in self.conj._keys:
            fg = (k & g_swapped).bit_count() & 1
            if fg == (k & b_swapped).bit_count() & 1:
                images.append((k, s ^ fg))
            else:
                phase = 2 * (s + fg) + gb_phase + key_phase(k, gb, n)
                images.append((k ^ gb, (phase & 3) >> 1))
        return ReductionEngine._of(n, self.m, self.sigma, CliffordTableau._of(n, tuple(images)))


def reduce_static(
    engine: ReductionEngine,
    sequence: Sequence[PauliPoint],
    coins: Sequence[int] = (),
) -> dict:
    """Rewrite a whole sequence for one fixed coin assignment; coins are 0
    or 1, and coin steps past the last coin take 0.

    Returns the head-register measurement plan: a list of step records
    aligned with the input sequence, plus the coin schedule actually
    consumed.
    """
    for c in coins:
        check_bit(c, "a coin outcome")
    steps = []
    used = []
    it = iter(coins)
    for idx, a in enumerate(sequence):
        step = engine.process(a)
        if isinstance(step, CoinStep):
            c = next(it, 0)
            used.append({"step": idx, "outcome": c})
            engine = engine.resolve_coin(step, c)
            steps.append({"kind": "coin", "step": idx, "outcome": c})
        elif isinstance(step, FixedStep):
            steps.append({"kind": "fixed", "step": idx, "outcome": step.outcome})
        else:
            steps.append({"kind": "measure", "step": idx,
                          "observable": step.point.label(), "flip": step.flip})
    return {"m": engine.m, "steps": steps, "coins": used}

