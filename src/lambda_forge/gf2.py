"""Bit-exact linear algebra over Z_2 for the phase space E_n = Z_2^n x Z_2^n.

Points of E_n index n-qubit Pauli operators.  A point carries a Z half and
an X half, each packed into an n-bit integer (bit i of each half belongs
to qubit i+1).  The symplectic form

    [v, w] = v_Z . w_X + v_X . w_Z   (mod 2)

vanishes exactly when the indexed Pauli operators commute.  Subspaces are
kept in reduced row echelon form over Z_2 so that equal subspaces compare
and hash equal.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .field import value_type

#: Cap for the maximal-isotropic enumeration, and so for the stabilizer
#: states and polytope membership; everything in this package is
#: desk-scale and exhaustive below this bound.
ENUMERATION_BOUND = 4

_PAULI_CHARS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
_CHAR_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}


@value_type(repr=False)
class PauliPoint:
    """A point (v_Z, v_X) of E_n, hashable and immutable."""

    n: int
    z: int
    x: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("qubit count must be positive")
        mask = (1 << self.n) - 1
        if self.z & ~mask or self.x & ~mask:
            raise ValueError("bit pattern exceeds qubit count")

    @staticmethod
    def zero(n: int) -> "PauliPoint":
        return PauliPoint(n, 0, 0)

    @staticmethod
    def from_label(label: str) -> "PauliPoint":
        """Parse a Pauli label such as "XZ" (leftmost character = qubit 1)."""
        label = label.strip()
        if label and label[0] in "+-":
            raise ValueError("use pauli.signed_point for sign-prefixed labels")
        n = len(label)
        if n == 0:
            raise ValueError("empty Pauli label")
        z = x = 0
        for i, ch in enumerate(label):
            try:
                zb, xb = _CHAR_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            z |= zb << i
            x |= xb << i
        return PauliPoint(n, z, x)

    def label(self) -> str:
        return "".join(
            _PAULI_CHARS[((self.z >> i) & 1, (self.x >> i) & 1)] for i in range(self.n)
        )

    def key(self) -> int:
        """Canonical integer packing (z half high, x half low)."""
        return (self.z << self.n) | self.x

    @staticmethod
    def from_key(n: int, key: int) -> "PauliPoint":
        mask = (1 << n) - 1
        return PauliPoint(n, key >> n, key & mask)

    def is_zero(self) -> bool:
        return self.z == 0 and self.x == 0

    def __xor__(self, other: "PauliPoint") -> "PauliPoint":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return PauliPoint(self.n, self.z ^ other.z, self.x ^ other.x)

    __add__ = __xor__  # addition in E_n is bitwise xor

    def __repr__(self):
        return f"PauliPoint({self.label()!r})"


def x_point(n: int, qubit: int) -> PauliPoint:
    """The basis point x_qubit (1-based qubit index)."""
    return PauliPoint(n, 0, 1 << (qubit - 1))


def z_point(n: int, qubit: int) -> PauliPoint:
    return PauliPoint(n, 1 << (qubit - 1), 0)


def y_point(n: int, qubit: int) -> PauliPoint:
    return PauliPoint(n, 1 << (qubit - 1), 1 << (qubit - 1))


def symplectic_form(v: PauliPoint, w: PauliPoint) -> int:
    """[v, w] = v_Z.w_X + v_X.w_Z mod 2; zero iff T_v and T_w commute."""
    if v.n != w.n:
        raise ValueError("qubit count mismatch")
    return key_form(v.key(), w.key(), v.n)


def key_form(a: int, b: int, n: int) -> int:
    """``symplectic_form`` of the n-qubit points with keys a and b
    (``PauliPoint.key()``); a >> n is a's z half, and masks b to its x half."""
    return (((a >> n) & b).bit_count() ^ ((b >> n) & a).bit_count()) & 1


# -- packed-row helpers (rows are 2n-bit ints, z half high) -----------


def rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form of a list of packed rows, pivots high to
    low, rows sorted by pivot descending.  Canonical per subspace; its
    length is the rank."""
    basis: list[int] = []
    for row in rows:
        r = row
        for b in basis:
            if r >> (b.bit_length() - 1) & 1:
                r ^= b
        if r:
            basis.append(r)
            basis.sort(key=int.bit_length, reverse=True)
    # back substitution
    for i, b in enumerate(basis):
        for j in range(i):
            if basis[j] >> (b.bit_length() - 1) & 1:
                basis[j] ^= b
    return tuple(basis)


def swap_halves(row: int, n: int) -> int:
    """Exchange the z and x halves, so that parity(v & swap_halves(w, n))
    is the symplectic form [v, w] of packed points."""
    mask = (1 << n) - 1
    return ((row & mask) << n) | (row >> n)


def solve_affine(
    rows: Sequence[int], rhs: Sequence[int], width: int
) -> Optional[tuple[int, list[int]]]:
    """All v of the given bit width with parity(rows[i] & v) = rhs[i].

    Returns None when the system is inconsistent, else (particular,
    null_basis): the solution with every free (non-pivot) column 0, and
    one null vector per free column in ascending column order, with a 1
    at that column and 0 at the other free columns.  Pivots are the
    highest set bits of the reduced rows, so the free columns depend only
    on the row space.
    """
    reduced = rref((row << 1) | (b & 1) for row, b in zip(rows, rhs))
    if reduced and reduced[-1] == 1:
        return None  # a 0 = 1 row
    particular = 0
    pivots = []
    for r in reduced:
        pivot = r.bit_length() - 2
        pivots.append(pivot)
        particular |= (r & 1) << pivot
    null_basis = []
    for free in range(width):
        if free in pivots:
            continue
        v = 1 << free
        for r, p in zip(reduced, pivots):
            if r >> (free + 1) & 1:
                v |= 1 << p
        null_basis.append(v)
    return particular, null_basis


def xor_sums(vectors: Sequence[int]) -> list[int]:
    """The xor of every subset of vectors, indexed by subset mask: 0
    first, vectors[0] toggling fastest."""
    sums = [0]
    for v in vectors:
        sums += [s ^ v for s in sums]
    return sums


def affine_solutions(rows: Sequence[int], rhs: Sequence[int], width: int) -> list[int]:
    """Every solution of ``solve_affine``'s system ([] if inconsistent),
    in ascending lexicographic order of their bits read from bit 0.

    Every pivot of the reduced system depends only on lower free columns,
    so two solutions first differ at a free column, and the xor_sums
    order over the null basis reversed (lowest free column slowest) is
    that order.
    """
    solved = solve_affine(rows, rhs, width)
    if solved is None:
        return []
    particular, null_basis = solved
    return [particular ^ h for h in xor_sums(null_basis[::-1])]


@value_type(repr=False)
class Subspace:
    """A linear subspace of E_n in canonical reduced echelon form: the
    packed rows given are reduced by ``rref`` on construction."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", rref(self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def size(self) -> int:
        return 1 << self.dim

    def contains(self, p: PauliPoint) -> bool:
        return self.row_mask(p.key()) is not None

    def row_mask(self, key: int) -> Optional[int]:
        """The mask of the canonical rows summing to the point with this
        ``PauliPoint.key()`` (row i at bit i), or None if it lies outside."""
        mask = 0
        for i, r in enumerate(self.rows):
            if key >> (r.bit_length() - 1) & 1:
                key ^= r
                mask |= 1 << i
        return None if key else mask

    def basis_points(self) -> list[PauliPoint]:
        return [PauliPoint.from_key(self.n, r) for r in self.rows]

    def points(self) -> Iterator[PauliPoint]:
        """All 2^dim points, zero first, in a deterministic order."""
        for key in xor_sums(self.rows):
            yield PauliPoint.from_key(self.n, key)

    def is_isotropic(self) -> bool:
        rows, n = self.rows, self.n
        return not any(key_form(a, b, n) for i, a in enumerate(rows) for b in rows[i + 1:])

    def perp(self) -> "Subspace":
        """The symplectic complement {v : [v, w] = 0 for all w here}."""
        swapped = [swap_halves(r, self.n) for r in self.rows]
        return Subspace(self.n, solve_affine(swapped, [0] * self.dim, 2 * self.n)[1])

    def __repr__(self):
        gens = ",".join(p.label() for p in self.basis_points()) or "0"
        return f"Subspace<{gens}>"


def span(points: Sequence[PauliPoint], n: Optional[int] = None) -> Subspace:
    """Canonical subspace spanned by the given points (n is required when
    there are none)."""
    if not points:
        if n is None:
            raise ValueError("cannot infer qubit count from an empty span")
        return Subspace(n, ())
    if n not in (None, point_width(points)):
        raise ValueError("qubit count mismatch in span")
    return Subspace(points[0].n, [p.key() for p in points])


def point_width(points: Iterable[PauliPoint]) -> int:
    """The one qubit count of a nonempty collection of points, else ValueError."""
    ns = sorted({p.n for p in points})
    if len(ns) != 1:
        raise ValueError(f"qubit count mismatch: points on {' and '.join(map(str, ns))} qubits")
    return ns[0]


def all_points(n: int, include_zero: bool = True) -> list[PauliPoint]:
    pts = [PauliPoint.from_key(n, k) for k in range(1 << (2 * n))]
    return pts if include_zero else pts[1:]


def enumerate_maximal_isotropics(n: int) -> list[Subspace]:
    """All n-dimensional isotropic subspaces of E_n, canonically ordered.

    Closed form, for n <= ENUMERATION_BOUND.  Such a subspace is fixed by
    its X-projection V, with reduced rows x_i and pivots p_i, and a
    symmetric form b on V: its rows are (z_i, x_i) with z_i = sum_j b_ij
    e_{p_j} (so z_i . x_j = b_ij and the rows commute) and (u, 0) for a
    basis u of V's orthogonal complement.  The counts are
    sum_k [n k]_2 2^(k(k+1)/2) = prod_{k=1}^{n} (2^k + 1): 3, 15, 135,
    2295 for n = 1..4.
    """
    if n < 1:
        raise ValueError("qubit count must be positive")
    if n > ENUMERATION_BOUND:
        raise ValueError(f"maximal-isotropic enumeration capped at n={ENUMERATION_BOUND}")
    mask = (1 << n) - 1
    found = []
    for pivots in range(1 << n):
        # each V with these pivots: row p is 1 << p plus any set of the
        # non-pivot columns below p
        for xs in product(*(
            [1 << p | f for f in xor_sums([1 << c for c in range(p) if not pivots >> c & 1])]
            for p in reversed(range(n)) if pivots >> p & 1
        )):
            k = len(xs)
            tops = [1 << x.bit_length() - 1 for x in xs]
            perp = [u << n for u in solve_affine(xs, [0] * k, n)[1]]
            # the z_i packed n bits apart; b_ij = b_ji = 1 adds e_{p_j} to z_i, e_{p_i} to z_j
            forms = [tops[j] << n * i | tops[i] << n * j for i in range(k) for j in range(i, k)]
            for zs in xor_sums(forms):
                found.append([(zs >> n * i & mask) << n | x for i, x in enumerate(xs)] + perp)
    return sorted((Subspace(n, rows) for rows in found), key=lambda s: s.rows)
