"""Functions only the tests call, kept here as the package carries only
what it runs: the phased Pauli product, the maximally mixed state, an
operator's support, the extremality refuter, the family update as it
ran on a member's doubled coefficients before the chain was written for
every two-qubit member, and the independent oracles the closed forms
are checked against: the complex-coefficient operator product and the
dense 2^n x 2^n matrices.  Each is the code the package held before,
so the golden digests that read them hold and the chain has an oracle.
One more, ``candidate_operator``, writes the family's rule operator for
a collection of any size, member or not, which ``OrbitVertex`` cannot
hold.  ``facet_table`` is the facet table the package built per state
before it kept its facet data per maximal isotropic, the oracle that
data is checked against, and ``certificate_json`` the certificate's
JSON object as the package built it before the certificate wrote its
own JSON text.  ``state_operator`` writes any state, a lift
included, as its exact operator, and ``reduced_distribution`` is the
law of a lifted run walked along the reduction engine with its own
fixed, coin and head-projection rule, so it shares no branch rule with
the simulator's lifted step it is compared with.  Last come the paper's
identity sweeps, which acceptance criteria 7-9 run and no command does:
``verify_update_rules`` (every family member, axis and outcome, the
closed-form update against exact projection),
``mixture_identities_report`` (the five one-qubit mixture identities)
and ``averaged_trace_identity`` (both sides of the averaged-trace
identity of a lift)."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from operator import getitem, lshift, not_
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from lambda_forge.cnc import CncSet
from lambda_forge.field import HALF, ONE, ZERO, FieldElem, _json_value
from lambda_forge.gf2 import PauliPoint, Subspace, all_points, swap_halves
from lambda_forge.lifting import averaged_head_operator, lift_tensor
from lambda_forge.orbit import OrbitVertex, enumerate_family, measure_update
from lambda_forge.pauli import PhasedPauli, QOperator, key_phase, pauli_projector, product_phase
from lambda_forge.polytope import (
    FacetCertificate,
    _active_rows,
    _facet_data,
    _int_rref,
    membership,
)
from lambda_forge.reduction import CoinStep, FixedStep, ReductionEngine
from lambda_forge.simulate import LiftState, normalize_steps
from lambda_forge.stabilizer import (
    Assignment,
    check_bit,
    enumerate_stabilizer_states,
    stabilizer_projector,
)

if TYPE_CHECKING:
    import numpy as np

DENSE_ORACLE_BOUND = 5


def pauli_mul(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Normal-ordered product of two phased Pauli operators."""
    point = p.point ^ q.point
    return PhasedPauli(point, p.phase + q.phase + product_phase(p.point, q.point))


def maximally_mixed(n: int) -> QOperator:
    """The trace-1 state 1/2^n."""
    return QOperator(n, {PauliPoint.zero(n): ONE})


def support(X: QOperator) -> frozenset[PauliPoint]:
    return frozenset(X.coeffs)


def extremality_refuter(X: QOperator, cert: Optional[FacetCertificate] = None) -> Optional[QOperator]:
    """A traceless direction Y with X+Y and X-Y both members, if one exists.

    Takes D, the null vector of the active constraints with a 1 at the
    first free column, and returns Y = D / 2^k for the least k >= 0 with
    |f(D)| <= 2^k f(X) on every facet f.  The facet values are linear and
    X + D has trace 1, so f(D) = f(X + D) - f(X) from one more
    membership call.  Returns None when X is extremal.
    """
    if cert is None:
        cert = membership(X)
    nz_points = all_points(X.n, include_zero=False)
    reduced, pivots = _int_rref(_active_rows(X.n, cert), len(nz_points))
    free = [c for c in range(len(nz_points)) if c not in pivots]
    if not free:
        return None  # extremal
    # the null vector with a 1 at the first free column, 0 at the others
    direction = {nz_points[free[0]]: ONE}
    for row, c in zip(reduced, pivots):
        if row.get(free[0]):
            direction[nz_points[c]] = FieldElem(Fraction(-row[free[0]], row[c]))
    D = QOperator(X.n, direction)
    fx, fxd = cert.values, membership(X + D).values
    # active facets have f(X) = f(D) = 0
    need = max(max(fxd[f] - v, v - fxd[f]) / v for f, v in fx.items() if v.sign())
    k = 0
    while need > 1 << k:
        k += 1
    return D.scale(Fraction(1, 1 << k))


def twice_coeffs(vertex: OrbitVertex) -> dict[int, int]:
    """The Pauli coefficients times 2, keyed by ``PauliPoint.key()``: 2
    at the identity, (-1)^gamma 2 on I and (-1)^gamma' on Omega."""
    coeffs = {k: -2 if g else 2 for k, g in vertex.gamma.key_items()}
    for p, b in vertex.gamma_p:
        if not p.is_zero():
            coeffs[p.key()] = -1 if b else 1
    return coeffs


def candidate_operator(gamma, omega, gamma_p: Mapping[PauliPoint, int]) -> QOperator:
    """Pi_{I,gamma} + (1/4) (A_Omega^{gamma'} - A_Omega^{gamma''}) for
    gamma an assignment on I, by its Pauli expectations: 1 at the
    identity, (-1)^gamma on I and (-1)^gamma' / 2 on Omega's other points."""
    coeffs = {p: Fraction((-1) ** gamma.value(p)) for p in gamma.subspace.points()}
    coeffs.update((p, Fraction((-1) ** gamma_p[p], 2)) for p in omega if not p.is_zero())
    return QOperator(2, coeffs)


def family_measure_update(
    vertex: OrbitVertex, a: PauliPoint, s: int
) -> list[tuple[FieldElem, CncSet]]:
    """``orbit.measure_update`` as it ran on a member's doubled
    coefficients (``twice_coeffs``), before the chain read any member's
    numerators: the rational chain, ordered by (|x_r|, r)."""
    if a.is_zero():
        raise ValueError("measurement axis must be nonzero")
    if a.n != 2:
        raise ValueError("qubit count mismatch")
    check_bit(s, "outcome")
    D = 2
    alpha = twice_coeffs(vertex)  # times D
    ka = a.key()
    swapped = swap_halves(ka, 2)  # parity(r & swapped) = [r, a]
    P = D - alpha.get(ka, 0) if s else D + alpha.get(ka, 0)  # 2 p D
    if P == 0:
        return []
    chain = []
    for r in range(1, 16):  # the nonzero keys of E_2
        u = r ^ ka
        if u < r or (r & swapped).bit_count() & 1:
            continue
        t = (s + (key_phase(r, ka, 2) >> 1)) & 1
        xr = alpha.get(r, 0) - alpha.get(u, 0) if t else alpha.get(r, 0) + alpha.get(u, 0)
        chain.append((abs(xr), r, t, int(xr < 0)))  # x_r times P
    chain.sort()
    zs = [-P] + [z for z, *_ in chain] + [P]
    gamma = {0: 0, ka: s}
    for _, r, t, g in chain:
        gamma[r], gamma[r ^ ka] = g, g ^ t
    out = []
    for i in range(4):
        if i:  # the next corner flips the i-th coset of the chain
            r = chain[i - 1][1]
            gamma[r] ^= 1
            gamma[r ^ ka] ^= 1
        w = zs[i + 1] - zs[i]
        if w:
            out.append((FieldElem._reduced(w, 0, 4 * D), CncSet._from_keys(2, dict(gamma))))
    return out


def complex_coeffs(A: QOperator) -> dict[PauliPoint, tuple[FieldElem, FieldElem]]:
    return {p: (c, ZERO) for p, c in A.coeffs.items()}


def complex_product(
    n: int,
    left: Mapping[PauliPoint, tuple[FieldElem, FieldElem]],
    right: Mapping[PauliPoint, tuple[FieldElem, FieldElem]],
) -> dict[PauliPoint, tuple[FieldElem, FieldElem]]:
    half = Fraction(1, 1 << n)
    out: dict[PauliPoint, tuple[FieldElem, FieldElem]] = {}
    for v, (ar, ai) in left.items():
        for w, (br, bi) in right.items():
            u = v ^ w
            ph = product_phase(v, w)
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            if ph == 1:
                re, im = -im, re
            elif ph == 2:
                re, im = -re, -im
            elif ph == 3:
                re, im = im, -re
            cur = out.get(u)
            if cur is None:
                out[u] = (re, im)
            else:
                out[u] = (cur[0] + re, cur[1] + im)
    return {
        p: (re * half, im * half)
        for p, (re, im) in out.items()
        if not (re.is_zero() and im.is_zero())
    }


def operator_product(A: QOperator, B: QOperator) -> QOperator:
    """Exact operator product; raises if the result is not Hermitian."""
    if A.n != B.n:
        raise ValueError("qubit count mismatch")
    mixed = complex_product(A.n, complex_coeffs(A), complex_coeffs(B))
    coeffs = {}
    for p, (re, im) in mixed.items():
        if not im.is_zero():
            raise ValueError(
                "operator product is not Hermitian; cannot coerce to QOperator"
            )
        coeffs[p] = re
    return QOperator(A.n, coeffs)


def dense_matrix(A: QOperator) -> np.ndarray:
    """Explicit 2^n x 2^n complex matrix; numpy, from the ``test`` extra,
    is imported here, so the tests that use no dense oracle run without it."""
    import numpy as np

    if A.n > DENSE_ORACLE_BOUND:
        raise ValueError(f"dense oracle capped at n={DENSE_ORACLE_BOUND}")
    dim = 1 << A.n
    total = np.zeros((dim, dim), dtype=complex)
    for p, c in A.coeffs.items():
        total += float(c) * pauli_matrix(p)
    return total / dim


def pauli_matrix(p: PauliPoint, phase: int = 0) -> np.ndarray:
    """Dense matrix of i^phase T_p (qubit 1 is the first tensor factor);
    numpy is imported here, as in ``dense_matrix``."""
    import numpy as np

    # one-qubit matrices by (z, x) bits
    single = {
        (0, 0): np.eye(2, dtype=complex),
        (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
        (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    }
    mat = np.ones((1, 1), dtype=complex)
    for i in range(p.n):
        mat = np.kron(mat, single[((p.z >> i) & 1, (p.x >> i) & 1)])
    return (1j ** (phase & 3)) * mat


@lru_cache(maxsize=8)
def facet_table(n: int) -> tuple:
    """Per-state evaluation data, in enumeration order: (label, plus,
    minus).  plus and minus hold the keys of the points of I where the
    state's sign is +1 and -1, in ``Subspace.points()`` order.

    The keys and values are read once per I, as the ``key_items`` of its
    first state, the values as a mask (point m at bit m, m the mask of
    the rows summing to it).  Row values that differ from the first
    state's by v (row i at bit i) flip the value of point m by
    parity(m & v), so a state's mask is the first one's xor a parity
    mask.  Each distinct mask is turned into selectors of the plus and
    minus points once."""
    size = 1 << n
    signed = [("+" + p.label(), "-" + p.label()) for p in all_points(n)]
    parities = {}  # row values -> their parity mask, bit m = parity(m & v)
    for values in product((0, 1), repeat=n):
        v = sum(map(lshift, values, range(n)))
        parities[values] = sum(((m & v).bit_count() & 1) << m for m in range(size))
    selectors = {}  # mask of the points with value 1 -> (plus, minus) selectors
    table, I = [], None
    for J, s in enumerate_stabilizer_states(n):
        flip = parities[s.row_values]
        if J is not I:
            I, rows = J, [signed[r] for r in J.rows]
            keys, values = zip(*s.key_items())
            first = sum(map(lshift, values, range(size))) ^ flip
        mask = first ^ flip
        pick = selectors.get(mask)
        if pick is None:
            ones = [mask >> m & 1 for m in range(size)]
            pick = selectors[mask] = (list(map(not_, ones)), ones)
        table.append(
            (
                ",".join(map(getitem, rows, s.row_values)),
                tuple(compress(keys, pick[0])),
                tuple(compress(keys, pick[1])),
            )
        )
    return tuple(table)


def certificate_json(cert: FacetCertificate) -> dict:
    """The certificate's JSON object as ``FacetCertificate.to_json`` built
    it before the certificate wrote its own JSON text: one JSON value per
    distinct facet sum, shared by the labels that have it, and the facet
    values in sorted label order."""
    labels = _facet_data(cert.operator.n).labels
    sums = cert._sums
    shared = {xy: _json_value(*xy, cert._den) for xy in set(sums)}
    order = sorted(range(len(labels)), key=labels.__getitem__)
    facet_values = {labels[f]: shared[sums[f]] for f in order}
    return {
        "member": cert.is_member,
        "violation": cert.violation,
        "violation_value": facet_values[cert.violation] if cert.violation else None,
        "active_facets": list(cert.active),
        "facet_values": facet_values,
    }


def state_operator(state) -> QOperator:
    """The exact operator of a state: its own ``operator()``, a bare
    ``QOperator`` itself, or, for a lift, U (inner (x) Pi_sigma) U^dagger."""
    if isinstance(state, QOperator):
        return state
    if not isinstance(state, LiftState):
        return state.operator()
    sig = state.engine.sigma
    # the engine's conjugator is the inverse of the preparing unitary
    return state.engine.conj.invert().conjugate(
        lift_tensor(state_operator(state.inner), sig.subspace, sig)
    )


def reduced_distribution(
    X: QOperator,
    engine: ReductionEngine,
    sequence: Sequence,
) -> dict[tuple, FieldElem]:
    """Exact joint outcome distribution of the reduced run of ``sequence``
    (steps as in ``exact_distribution``) on U (X (x) Pi_sigma) U^dagger.

    Each executed step is the engine's: a fixed step keeps its outcome at
    weight 1, a coin gives 1/2 to each outcome c on ``resolve_coin(step,
    c)``, and a head step of axis a gives outcome s ^ flip the weight
    Tr(rho.project(a, s)) / Tr(rho), rho the unnormalized head operator,
    which the child keeps projected.  An explicit stack, so any depth
    runs.  ``X`` must be a trace-1 operator on ``engine.m`` qubits."""
    if X.n != engine.m or X.trace() != ONE:
        raise ValueError(f"the head must have trace 1 on {engine.m} qubits, got {X!r}")
    steps = normalize_steps(sequence, engine.n)
    out: dict[tuple, FieldElem] = {}
    stack = [(0, engine, X, ONE, ())]
    while stack:
        i, eng, rho, prob, acc = stack.pop()
        if i == len(steps):
            out[acc] = out.get(acc, ZERO) + prob
            continue
        point, cond = steps[i]
        if any(acc[j] != want for j, want in (cond or {}).items()):
            stack.append((i + 1, eng, rho, prob, acc + (None,)))
            continue
        step = eng.process(point)
        if isinstance(step, FixedStep):
            children = [(step.outcome, ONE, eng, rho)]
        elif isinstance(step, CoinStep):
            children = [(c, HALF, eng.resolve_coin(step, c), rho) for c in (0, 1)]
        else:
            projected = [rho.project(step.point, s) for s in (0, 1)]
            children = [(s ^ step.flip, part.trace() / rho.trace(), eng, part)
                        for s, part in enumerate(projected)]
        for s, w, nxt, part in children:
            if w.sign() > 0:
                stack.append((i + 1, nxt, part, prob * w, acc + (s,)))
    return out


# -- the family's update sweep ----------------------------------------------


def verify_update_rules(vertices: Optional[Sequence[OrbitVertex]] = None) -> dict:
    """Exhaustive oracle sweep: every vertex, axis, and outcome; compares
    the closed-form mixture against exact operator projection."""
    if vertices is None:
        vertices = enumerate_family()
    cases = mismatches = zero_cases = 0
    profiles: dict[tuple, int] = {}
    axes = all_points(2, include_zero=False)
    for vert in vertices:
        op = vert.operator()
        for a in axes:
            for s in (0, 1):
                cases += 1
                pieces = measure_update(vert, a, s)
                total = QOperator.zero(2)
                for w, piece in pieces:
                    total = total + piece.operator().scale(w)
                if total != op.project(a, s):
                    mismatches += 1
                if not pieces:
                    zero_cases += 1
                prof = tuple(sorted((w for w, _ in pieces), reverse=True))
                profiles[prof] = profiles.get(prof, 0) + 1
    return {
        "cases": cases,
        "mismatches": mismatches,
        "zero_cases": zero_cases,
        "weight_profiles": profiles,
    }


# -- single-qubit mixture identities ------------------------------------------


def _qubit_vertex(alpha: Mapping[PauliPoint, int]) -> QOperator:
    zero = PauliPoint.zero(1)
    return CncSet([zero, *alpha], {zero: 0, **alpha}).operator()


def mixture_identities_report() -> dict[str, int]:
    """Check the five exact projector/vertex mixture identities on one
    qubit for every admissible parameter choice; returns failure counts
    (all zero) keyed by identity name."""
    pts = all_points(1, include_zero=False)
    report = {f"identity-{k}": 0 for k in range(1, 6)}
    checked = {f"identity-{k}": 0 for k in range(1, 6)}

    for v, w in product(pts, pts):
        if v == w:
            continue
        u = v ^ w
        for sv, sw, f1, f2 in product((0, 1), repeat=4):
            proj_v = pauli_projector(v, sv)
            proj_w0 = pauli_projector(w, sw)
            proj_w1 = pauli_projector(w, (sw + 1) & 1)
            # (1) projector as an even mixture, two free bits
            a0 = {v: sv, w: f1, u: f2}
            a1 = {v: sv, w: (f1 + 1) & 1, u: (f2 + 1) & 1}
            lhs = proj_v
            rhs = (_qubit_vertex(a0) + _qubit_vertex(a1)).scale(Fraction(1, 2))
            checked["identity-1"] += 1
            if lhs != rhs:
                report["identity-1"] += 1
            # (2) projector plus half a projector difference, one free bit
            a0 = {v: sv, w: sw, u: f1}
            a1 = {v: sv, w: sw, u: (f1 + 1) & 1}
            lhs = proj_v + (proj_w0 - proj_w1).scale(Fraction(1, 2))
            rhs = (_qubit_vertex(a0) + _qubit_vertex(a1)).scale(Fraction(1, 2))
            checked["identity-2"] += 1
            if lhs != rhs:
                report["identity-2"] += 1
            # (5) the (2,1,1)/4 mixture, one free bit
            a0 = {v: sv, w: sw, u: f1}
            a1 = {v: sv, w: sw, u: (f1 + 1) & 1}
            a2 = {v: sv, w: (sw + 1) & 1, u: (f1 + 1) & 1}
            lhs = proj_v + (proj_w0 - proj_w1).scale(Fraction(1, 4))
            rhs = (
                _qubit_vertex(a0).scale(2) + _qubit_vertex(a1) + _qubit_vertex(a2)
            ).scale(Fraction(1, 4))
            checked["identity-5"] += 1
            if lhs != rhs:
                report["identity-5"] += 1
    for v in pts:
        others = [w for w in pts if w != v]
        w = others[0]
        u = v ^ w
        for av, aw, au in product((0, 1), repeat=3):
            alpha = {v: av, w: aw, u: au}
            alpha_f = {v: av, w: (aw + 1) & 1, u: (au + 1) & 1}
            proj = pauli_projector(v, av)
            # (3) equal thirds
            lhs = (proj.scale(2) + _qubit_vertex(alpha)).scale(Fraction(1, 3))
            rhs = (_qubit_vertex(alpha).scale(2) + _qubit_vertex(alpha_f)).scale(Fraction(1, 3))
            checked["identity-3"] += 1
            if lhs != rhs:
                report["identity-3"] += 1
            # (4) reflection through a projector
            lhs = proj.scale(2) - _qubit_vertex(alpha)
            rhs = _qubit_vertex(alpha_f)
            checked["identity-4"] += 1
            if lhs != rhs:
                report["identity-4"] += 1
    report["checked"] = sum(checked.values())
    return report


# -- the averaged-trace identity of a lift ----------------------------------


def averaged_trace_identity(
    Y: QOperator, J: Subspace, r: Assignment, I1: Subspace, s1: Assignment
) -> tuple[FieldElem, FieldElem]:
    """Both sides of Tr(Y Pi_{J+I', r*s'}) = Tr(Y~ Pi_{I', s'}) for a
    maximal isotropic I' of the head space; they agree exactly.  J is on the
    tail, so Pi_{J+I', r*s'} = Pi_{I',s'} (x) Pi_{J,r} = lift_tensor(Pi_{I',s'}, J, r)."""
    head = stabilizer_projector(I1, s1)
    lhs = Y.trace_inner(lift_tensor(head, J, r))
    rhs = averaged_head_operator(Y, J, r).trace_inner(head)
    return lhs, rhs
