"""Functions only the tests call, kept here as the package carries only
what it runs: the phased Pauli product, the maximally mixed state, an
operator's support and the extremality refuter.  Each is the code the
package held before, so the golden digests that read them hold."""

from fractions import Fraction
from typing import Optional

from lambda_forge.field import ONE, FieldElem
from lambda_forge.gf2 import PauliPoint, all_points
from lambda_forge.pauli import PhasedPauli, QOperator, product_phase
from lambda_forge.polytope import FacetCertificate, _active_rows, _int_rref, membership


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
