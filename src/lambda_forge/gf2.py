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

from typing import Iterable, Iterator, Optional, Sequence

#: Default cap for the maximal-isotropic enumeration; everything in this
#: package is desk-scale and exhaustive below this bound.
ENUMERATION_BOUND = 4

_PAULI_CHARS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
_CHAR_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}


def _popcount(x: int) -> int:
    return x.bit_count()


class PauliPoint:
    """A point (v_Z, v_X) of E_n, hashable and immutable."""

    __slots__ = ("n", "z", "x")

    def __init__(self, n: int, z: int, x: int):
        if n < 1:
            raise ValueError("qubit count must be positive")
        mask = (1 << n) - 1
        if z & ~mask or x & ~mask:
            raise ValueError("bit pattern exceeds qubit count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)

    def __setattr__(self, name, value):
        raise AttributeError("PauliPoint is immutable")

    def __reduce__(self):
        return (PauliPoint, (self.n, self.z, self.x))

    @staticmethod
    def zero(n: int) -> "PauliPoint":
        return PauliPoint(n, 0, 0)

    @staticmethod
    def from_label(label: str) -> "PauliPoint":
        """Parse a Pauli label such as "XZ" (leftmost character = qubit 1)."""
        label = label.strip()
        if label and label[0] in "+-":
            raise ValueError("use SignedPauli parsing for sign-prefixed labels")
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

    def __eq__(self, other):
        return (
            isinstance(other, PauliPoint)
            and self.n == other.n
            and self.z == other.z
            and self.x == other.x
        )

    def __hash__(self):
        return hash((self.n, self.z, self.x))

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
    return (_popcount(v.z & w.x) ^ _popcount(v.x & w.z)) & 1


def zx_overlap(v: PauliPoint) -> int:
    """Number of qubits where v has both a Z and an X bit (an integer,
    not reduced mod 2; it fixes the operator phase convention)."""
    return _popcount(v.z & v.x)


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


class Subspace:
    """A linear subspace of E_n in canonical reduced echelon form."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rref(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return (Subspace, (self.n, self.rows))

    @staticmethod
    def from_points(points: Sequence[PauliPoint], n: Optional[int] = None) -> "Subspace":
        if not points:
            if n is None:
                raise ValueError("cannot infer qubit count from an empty span")
            return Subspace(n, ())
        ns = {p.n for p in points}
        if len(ns) != 1 or (n is not None and ns != {n}):
            raise ValueError("qubit count mismatch in span")
        n = points[0].n
        return Subspace(n, [p.key() for p in points])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def size(self) -> int:
        return 1 << self.dim

    def contains(self, p: PauliPoint) -> bool:
        return self.reduce_key(p.key()) == 0

    def reduce_key(self, key: int) -> int:
        for r in self.rows:
            if key >> (r.bit_length() - 1) & 1:
                key ^= r
        return key

    def coordinates(self, p: PauliPoint) -> Optional[tuple[int, ...]]:
        """Coefficients of p over the canonical rows, or None if outside."""
        key = p.key()
        coeffs = []
        for r in self.rows:
            if key >> (r.bit_length() - 1) & 1:
                key ^= r
                coeffs.append(1)
            else:
                coeffs.append(0)
        if key:
            return None
        return tuple(coeffs)

    def basis_points(self) -> list[PauliPoint]:
        return [PauliPoint.from_key(self.n, r) for r in self.rows]

    def points(self) -> Iterator[PauliPoint]:
        """All 2^dim points, zero first, in a deterministic order."""
        for key in xor_sums(self.rows):
            yield PauliPoint.from_key(self.n, key)

    def is_isotropic(self) -> bool:
        pts = self.basis_points()
        return all(
            symplectic_form(pts[i], pts[j]) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )

    def perp(self) -> "Subspace":
        """The symplectic complement {v : [v, w] = 0 for all w here}."""
        swapped = [swap_halves(r, self.n) for r in self.rows]
        _, null_basis = solve_affine(swapped, [0] * len(swapped), 2 * self.n)
        return Subspace(self.n, null_basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        # Points of the smaller side filtered through the larger side.
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        pts = [p for p in small.points() if large.contains(p)]
        return Subspace.from_points(pts, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        gens = ",".join(p.label() for p in self.basis_points()) or "0"
        return f"Subspace<{gens}>"


def span(points: Sequence[PauliPoint], n: Optional[int] = None) -> Subspace:
    """Canonical subspace spanned by the given points."""
    return Subspace.from_points(points, n)


def perp(w: Subspace) -> Subspace:
    return w.perp()


def all_points(n: int, include_zero: bool = True) -> list[PauliPoint]:
    pts = [PauliPoint.from_key(n, k) for k in range(1 << (2 * n))]
    return pts if include_zero else pts[1:]


def enumerate_maximal_isotropics(n: int, bound: int = ENUMERATION_BOUND) -> list[Subspace]:
    """All n-dimensional isotropic subspaces of E_n, canonically ordered.

    Exhaustive breadth-first growth; fine for n <= bound.  The counts are
    prod_{k=1}^{n} (2^k + 1): 3, 15, 135, 2295 for n = 1..4.
    """
    if n < 1:
        raise ValueError("qubit count must be positive")
    if n > bound:
        raise ValueError(f"maximal-isotropic enumeration capped at n={bound}")
    level: set[Subspace] = {Subspace(n, ())}
    for _ in range(n):
        nxt: set[Subspace] = set()
        for sub in level:
            candidates = sub.perp()
            for p in candidates.points():
                if p.is_zero() or sub.contains(p):
                    continue
                nxt.add(Subspace(n, sub.rows + (p.key(),)))
        level = nxt
    return sorted(level, key=lambda s: s.rows)


def closure_under_inference(points: Iterable[PauliPoint]) -> frozenset[PauliPoint]:
    """Smallest superset closed under v, w commuting -> v + w, with 0 added.

    This is a closure operator: monotone, extensive, idempotent.
    """
    pts = set(points)
    if not pts:
        raise ValueError("closure of an empty set is undefined")
    n = next(iter(pts)).n
    pts.add(PauliPoint.zero(n))
    frontier = list(pts)
    while frontier:
        v = frontier.pop()
        new = []
        for w in pts:
            if symplectic_form(v, w) == 0:
                u = v ^ w
                if u not in pts:
                    new.append(u)
        for u in new:
            pts.add(u)
            frontier.append(u)
    return frozenset(pts)
