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
hold."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional

from lambda_forge.cnc import CncSet
from lambda_forge.field import ONE, ZERO, FieldElem
from lambda_forge.gf2 import PauliPoint, all_points, swap_halves
from lambda_forge.orbit import OrbitVertex
from lambda_forge.pauli import PhasedPauli, QOperator, key_phase, product_phase
from lambda_forge.polytope import FacetCertificate, _active_rows, _int_rref, membership
from lambda_forge.stabilizer import check_bit

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
