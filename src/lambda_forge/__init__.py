"""Exact-arithmetic toolkit for the stabilizer-overlap polytopes.

Core layers, bottom up: Z_2 symplectic phase space (``gf2``), exact Pauli
operator algebra over Q(sqrt(2)) (``field``, ``pauli``), stabilizer
states (``stabilizer``), Clifford tableaux (``clifford``), the polytope
itself (``polytope``), closed noncontextual sets (``cnc``), vertex
lifting (``lifting``), the two-qubit half-integer vertex family
(``orbit``), measurement-sequence reduction (``reduction``), and the
simulator (``simulate``).  ``cli`` exposes everything as subcommands.
"""

from .field import FieldElem, INV_SQRT2, ONE, SQRT2, ZERO
from .gf2 import (
    PauliPoint,
    Subspace,
    all_points,
    enumerate_maximal_isotropics,
    span,
    symplectic_form,
    x_point,
    y_point,
    z_point,
)
from .pauli import PhasedPauli, QOperator, beta, pauli_projector, product_phase
from .stabilizer import (
    Assignment,
    all_assignments,
    enumerate_stabilizer_states,
    stabilizer_projector,
)
from .clifford import CliffordTableau, enumerate_action
from .polytope import FacetCertificate, decompose, enumerate_vertices_n1, is_vertex, membership
from .cnc import CncSet, cnc_vertices, is_cnc, is_maximal_cnc
from .lifting import LiftParams, lift, lift_tensor, make_params, tail_overlap, unlift
from .orbit import OrbitVertex, alpha0_vertex, enumerate_family
from .reduction import ReductionEngine
from .simulate import born_distribution, exact_distribution, sample

__version__ = "0.1.0"
