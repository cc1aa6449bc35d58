"""The stabilizer-overlap polytope: membership, vertex certification,
single-qubit vertex enumeration, and exact convex decomposition.

For each qubit count n the polytope consists of the trace-1 Hermitian
operators whose overlap with every pure stabilizer state is nonnegative.
Membership is decided by evaluating all overlaps exactly, as integer sums
over the operator's coefficients scaled to a common denominator;
vertexhood by the rank of the active constraints (a point of a polytope
is extremal iff the active facet normals span the full traceless
coefficient space).

The facet sums of one operator come from one big-int product.  For each
key k, a column holds the sign s(k, f) in {+1, -1, 0} of k on every
facet f, stored as 1 + s(k, f) in a lane of w bytes at 2^(8wf).  With
x_k the coefficient numerators and B = sum |x_k|, no facet sum leaves
[-B, B], so sum_k x_k * column_k, plus an offset in every lane, has the
digits v_f + B in base 2^(8w) once 2B < 2^(8w), w the least such power
of two.  The digits are read off the integer's bytes as native unsigned
ints.  So one operator costs a multiply-add per nonzero coefficient on
ints of F * w bytes (F facets: 60, 1080 and 36720 for n = 2, 3, 4), not
a Python step per facet.  One table of columns is kept per n, the widest
built so far, which serves every narrower need (`_lane_columns`); it
holds 4^n * F * w bytes, per lane byte 69 KB at n = 3 and 9.4 MB at
n = 4.  It is filled one 2^n-byte slice per (isotropic, point), the
signs of that point on the isotropic's 2^n consecutive facets.  Lanes
are at most 8 bytes wide: a sum that needs wider ones (2B >= 2^64) is
taken facet by facet, and no table is kept for it.

The certificate keeps the sums as two int lists, the rational parts xs
and the sqrt(2) parts ys, with ys None when the operator has no sqrt(2)
part; the active facets and the first violation are read off them by
``compress``/``map``, and the (x, y) pairs are built only when read.
It writes its own JSON as text (``FacetCertificate.json_text``): the
JSON text of every facet label is built once per qubit count
(`_label_texts`), and a certificate writes one value text per distinct
facet sum (an n = 3 non-member's 1080 values take a handful) and joins
them with the label texts in sorted label order, byte for byte what
``json.dumps(..., sort_keys=True)`` writes of the same object.

The rank is certified in two passes.  The first reduces the active
normals over GF(3), each row bit-sliced as two int masks (the columns
holding 1 and those holding 2 = -1), to echelon form on those ints,
each pivot at its row's highest set bit, so no earlier row is touched
again; it stops at full rank.  It reads the first active facet of each
maximal isotropic before the rest: the states on one isotropic are 2^n
consecutive facets, and their normals lie on its 2^n - 1 nonzero
points, so they span at most 2^n - 1 dimensions between them.  Of 20
lifted n = 3 vertices, 19 are certified after 63-88 rows and one after
137, where facet order took 170-326.  A full rank over GF(3) is a full
rank over Q: a minor that is nonzero mod 3 is a nonzero integer, so the
rank of an integer matrix over GF(3) is at most its rank over Q.  That
settles every vertex the tests check (the two-qubit family, the
one-qubit vertices, lifted three-qubit vertices).  Any other outcome
proves nothing, and the exact rank comes from the second pass, a
fraction-free integer reduction that reads the active facets in facet
order and stops reading rows once they span the space; so every rank
reported below full is exact.

The labels, the lane columns and the rank read one table per qubit
count, `_FacetData`, kept per maximal isotropic: its point keys
(``PauliPoint.key()``) and its first state's values, which each state
on it flips by a parity of its row values, with the facet labels and
the 2^n parity flips.  What the rank reads of a facet is built from
that table on the facet's first read and kept in one table per qubit
count, `_gf3_rows`: its GF(3) masks, the columns where its sign is +1
and those where it is -1.  The GF(3) pass reads them as they are; the
exact pass builds a sparse row from them (an n = 3 normal has 7
nonzeros out of 63 columns, so the reduction works on {column: int}
rows).  The six n = 3 vertices of one `certify` benchmark run read 241
of the 1080 n = 3 masks.  The simplex of `decompose` keeps its own
dense integer rows, the revised basis block of `simplex`: it has few
rows (17 on two qubits), and they fill in after a few pivots.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import chain, compress, count, product, repeat
from math import gcd
from operator import itemgetter, lshift, ne, not_, or_, rshift
from typing import Iterable, Iterator, Optional, Sequence

from .field import FieldElem, _json_value, sqrt2_sign, value_type
from .gf2 import ENUMERATION_BOUND, all_points
from .pauli import QOperator
from .simplex import solve_feasibility
from .stabilizer import enumerate_stabilizer_states


@value_type()
class _FacetData:
    """One qubit count's facets, read off ``enumerate_stabilizer_states(n)``:
    facet f is the state f mod 2^n of maximal isotropic f >> n, both in
    enumeration order.

    ``isotropics`` holds, per isotropic, the keys of its points
    (``PauliPoint.key()``, in ``Subspace.points()`` order) and the value
    mask of its first state, whose row values are all 0 (point m at bit
    m, m the mask of the rows summing to it).  A state whose row values
    are v (row i at bit i) flips the value of point m by parity(m & v),
    so its mask is the first one's xor ``flips[j]``, j its index on the
    isotropic.  A point is a plus key of the state where its value is 0
    and a minus key where it is 1."""

    labels: tuple[str, ...]
    isotropics: tuple[tuple[tuple[int, ...], int], ...]
    flips: tuple[int, ...]


@lru_cache(maxsize=8)
def _facet_data(n: int) -> _FacetData:
    """The facets of n qubits, one table per qubit count."""
    size = 1 << n
    signed = [("+" + p.label(), "-" + p.label()) for p in all_points(n)]
    flips = []
    for values in product((0, 1), repeat=n):  # the order of the states on an isotropic
        v = sum(map(lshift, values, range(n)))
        flips.append(sum(((m & v).bit_count() & 1) << m for m in range(size)))
    labels, isotropics = [], []
    for I, s in enumerate_stabilizer_states(n)[::size]:
        labels += map(",".join, product(*[signed[r] for r in I.rows]))
        keys, values = zip(*s.key_items())
        isotropics.append((keys, sum(map(lshift, values, range(size)))))
    return _FacetData(tuple(labels), tuple(isotropics), tuple(flips))


@lru_cache(maxsize=8)
def _label_texts(n: int) -> tuple[tuple[str, ...], itemgetter]:
    """The JSON text of the facet labels, built once per qubit count: the
    pieces of the facet_values object in sorted label order, each label's
    key text (``"label": ``, after ``, `` but the first) followed by a
    slot for its value text; and a getter of a facet-order list's items
    in that order.  A label is ASCII from ``+-,IXYZ``, so
    ``'"%s"' % label`` is its JSON."""
    labels = _facet_data(n).labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [', "%s": ' % labels[f] for f in order]
    keys[0] = keys[0][2:]
    pieces = tuple(chain.from_iterable(zip(keys, repeat(""))))
    return pieces, itemgetter(*order)


def _signed_keys(n: int, f: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(plus, minus): the keys of the points where facet f's sign is +1
    and where it is -1, in ``Subspace.points()`` order, read off its
    isotropic's keys and its state's value mask (see `_FacetData`)."""
    data = _facet_data(n)
    keys, first = data.isotropics[f >> n]
    mask = first ^ data.flips[f & ((1 << n) - 1)]
    plus, minus = [], []
    for m, k in enumerate(keys):
        (minus if mask >> m & 1 else plus).append(k)
    return tuple(plus), tuple(minus)


def _gf3_row(n: int, f: int) -> tuple[int, int]:
    """Facet f's normal bit-sliced over GF(3): (ones, twos), the masks of
    the columns (key k at bit k - 1) whose entry is 1 and those whose
    entry is -1 = 2.  The keys of a state are distinct, so summing their
    bits ors them; the shift drops key 0."""
    bit = (1).__lshift__
    plus, minus = _signed_keys(n, f)
    return sum(map(bit, plus)) >> 1, sum(map(bit, minus)) >> 1


class _ByFacet(dict):
    """facet f -> build(n, f), built on the first read of f, so a warm
    read is one dict lookup."""

    def __init__(self, build, n: int):
        self.build, self.n = build, n

    def __missing__(self, f: int):
        value = self[f] = self.build(self.n, f)
        return value


@lru_cache(maxsize=8)
def _gf3_rows(n: int) -> _ByFacet:
    """Each facet's `_gf3_row`, one table per qubit count."""
    return _ByFacet(_gf3_row, n)


def _facet_row(ones: int, twos: int) -> dict[int, int]:
    """A facet's integer normal over the nonzero points as a sparse row,
    read off its GF(3) masks (`_gf3_row`): column c holds 1 where bit c
    of ones is set and -1 where bit c of twos is, key k at column k - 1."""
    row = {}
    for mask, entry in ((ones, 1), (twos, -1)):
        while mask:
            c = mask.bit_length() - 1
            row[c] = entry
            mask ^= 1 << c
    return row


def _gf3_rank(rows: Iterable[tuple[int, int]], width: int) -> int:
    """Rank over GF(3) of bit-sliced rows (ones, twos), in echelon form;
    the rows are read one at a time until the rank reaches width.

    Each pivot row has entry 1 at its pivot, its highest set bit, so
    clearing a row's highest set bit with the pivot row there leaves only
    lower bits.  A new row is cleared top down until its highest bit is
    no pivot, which makes it a new pivot row, or until nothing is left.
    No earlier row changes, so there is no back-substitution.
    """
    basis: list = [None] * (width + 1)  # pivot row by bit_length of its pivot
    rank = 0
    for r1, r2 in rows:
        left = r1 | r2
        while left:
            top = left.bit_length()
            pivot = basis[top]
            if pivot is None:
                if r2 >> (top - 1):  # scale by -1 = 2: the pivot entry becomes 1
                    r1, r2 = r2, r1
                basis[top] = (r1, r2)
                rank += 1
                break
            b1, b2 = pivot
            # row - pivot where the row's top entry is 1, row + pivot where
            # it is 2: on the slices a + b = (t ^ (a2 | b2), t ^ (a1 | b1)),
            # t = (a1 | b2) ^ (a2 | b1), and -b swaps b's two masks
            if r1 >> (top - 1):
                t = (r1 | b1) ^ (r2 | b2)
                r1, r2 = (r2 | b1) ^ t, (r1 | b2) ^ t
            else:
                t = (r1 | b2) ^ (r2 | b1)
                r1, r2 = (r2 | b2) ^ t, (r1 | b1) ^ t
            left = r1 | r2
        if rank == width:
            break
    return rank


@value_type(eq=False)
class FacetCertificate:
    """Result of evaluating one operator against every stabilizer facet.

    Holds `membership`'s integer facet sums: facet i (see `_FacetData`)
    has the value (xs[i] + ys[i]*sqrt(2)) / den, with ys None when every
    y is 0.  ``values`` builds one FieldElem per distinct sum and shares
    it across the labels that have it; ``json_text``, the one writer of
    the certificate's JSON, writes one value text per distinct sum and
    splices it beside each label's key text (`_label_texts`).
    """

    operator: QOperator
    _xs: list[int]  # rational sums, in facet order
    _ys: Optional[list[int]]  # sqrt(2) sums, or None
    _den: int
    _active: list[int]  # indices of the facets with value exactly 0
    violation: Optional[str]  # first violating label, or None

    def _shared(self, convert) -> tuple[list, dict]:
        """(sums, shared): each facet's sum in facet order (x, or (x, y)
        when there is a sqrt(2) part), and convert(x, y, den) per distinct
        sum."""
        den = self._den
        if self._ys is None:
            sums = self._xs
            return sums, {x: convert(x, 0, den) for x in set(sums)}
        sums = list(zip(self._xs, self._ys))
        return sums, {xy: convert(*xy, den) for xy in set(sums)}

    @property
    def values(self) -> dict:
        """label -> FieldElem facet value, built on each read."""
        sums, shared = self._shared(FieldElem._reduced)
        return dict(zip(_facet_data(self.operator.n).labels, map(shared.__getitem__, sums)))

    @property
    def active(self) -> list[str]:
        """The labels of the facets with value exactly 0, in facet order."""
        return list(map(_facet_data(self.operator.n).labels.__getitem__, self._active))

    @property
    def is_member(self) -> bool:
        return self.violation is None

    def json_text(self, **fields) -> str:
        """The certificate's JSON object, with the given fields beside its
        own, as ``json.dumps(..., sort_keys=True)`` writes it: its own
        fields are member, violation, violation_value (the violated
        facet's value), active_facets (labels, in facet order) and
        facet_values (label -> exact value, in sorted label order).  A
        value is written once per distinct facet sum."""
        n = self.operator.n
        pieces, in_sorted_order = _label_texts(n)
        sums, shared = self._shared(_value_text)
        facet_values = list(pieces)
        facet_values[1::2] = map(shared.__getitem__, in_sorted_order(sums))
        violation = "null"
        if self.violation is not None:
            violation = shared[sums[_facet_data(n).labels.index(self.violation)]]
        active = self.active  # quoted, a label is its JSON (`_label_texts`)
        texts = {
            "active_facets": '["%s"]' % '", "'.join(active) if active else "[]",
            "facet_values": "{%s}" % "".join(facet_values),
            "member": json.dumps(self.is_member),
            "violation": json.dumps(self.violation),
            "violation_value": violation,
        }
        texts.update((key, json.dumps(value, sort_keys=True)) for key, value in fields.items())
        return "{%s}" % ", ".join(json.dumps(key) + ": " + text for key, text in sorted(texts.items()))

    def to_json(self) -> dict:
        """The certificate's JSON object, read back from `json_text`."""
        return json.loads(self.json_text())


def _value_text(x: int, y: int, den: int) -> str:
    """The JSON text of the facet value (x + y*sqrt(2)) / den."""
    return json.dumps(_json_value(x, y, den), sort_keys=True)


def membership(X: QOperator) -> FacetCertificate:
    """Exact facet certificate of X; requires trace(X) = 1.

    The facet sums are integers: X's coefficients are (p + q*sqrt(2)) / D
    over its one denominator D, so a facet's value is
    (x + y*sqrt(2)) / (D * 2^n) for the sums x, y of the numerators p and
    q over the state's signed points, and its sign is that of
    x + y*sqrt(2).  The sums come from `_facet_sums` as two lists, the
    y list only when X has a sqrt(2) part, and the certificate keeps
    them; no FieldElem is built until it is read.
    """
    n = X.n
    if n > ENUMERATION_BOUND:
        raise ValueError(
            f"membership is evaluated exhaustively only for n<={ENUMERATION_BOUND}"
        )
    D, num = X._den, X._num
    if num.get(0) != (D, 0):
        raise ValueError("membership requires a trace-1 operator")
    xs = _facet_sums(n, {key: p for key, (p, _) in num.items() if p})
    irrational = {key: q for key, (_, q) in num.items() if q}
    ys = _facet_sums(n, irrational) if irrational else None
    labels = _facet_data(n).labels
    violation = None
    if ys is None:
        active = list(compress(count(), map(not_, xs)))
        if min(xs) < 0:
            violation = next(compress(labels, map((0).__gt__, xs)))
    else:
        active = list(compress(count(), map(not_, map(or_, xs, ys))))
        if min(xs) < 0 or min(ys) < 0:
            # a value is negative only where one of its parts is
            violation = next(
                (
                    label
                    for label, x, y in zip(labels, xs, ys)
                    if (x < 0 or y < 0) and sqrt2_sign(x, y) < 0
                ),
                None,
            )
    return FacetCertificate(X, xs, ys, D << n, active, violation)


#: memoryview formats of the native unsigned ints of 1, 2, 4 and 8 bytes
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _facet_sums(n: int, coeffs: dict[int, int]) -> list[int]:
    """Per facet of n qubits, in facet order, the sum of the ints
    coeffs[k] over its plus keys k minus the sum over its minus keys.

    With B = sum |coeffs[k]|, every sum v_f lies in [-B, B], so v_f + B
    fits a lane of w bytes once 2B < 2^(8w), w a power of two.  Then
    ``sum_k coeffs[k] * columns[k]`` over the `_lane_columns`, whose lane f
    holds 1 + s(k, f), is sum_f (v_f + S) 2^(8wf) for S = sum_k coeffs[k]:
    adding (B - S) in every lane makes each lane v_f + B, a base-2^(8w)
    digit with no carry, read off the integer's bytes as native unsigned
    ints.  Sums that need lanes wider than 8 bytes are taken per facet.
    """
    F = len(_facet_data(n).labels)
    B = sum(map(abs, coeffs.values()))
    w = 1
    while (2 * B) >> (8 * w):
        w *= 2
    if w > 8:
        get = [coeffs.get(k, 0) for k in range(1 << (2 * n))].__getitem__
        return [
            sum(map(get, plus)) - sum(map(get, minus))
            for plus, minus in map(_signed_keys, repeat(n, F), range(F))
        ]
    w, columns = _lane_columns(n, w)
    ones = int.from_bytes((b"\x01" + bytes(w - 1)) * F, "little")
    total = (B - sum(coeffs.values())) * ones
    for k, x in coeffs.items():
        total += x * columns[k]
    digits = memoryview(total.to_bytes(F * w, sys.byteorder)).cast(_LANE_FORMATS[w])
    if sys.byteorder == "big":  # the last lane comes first
        digits = digits[::-1]
    return [d - B for d in digits]


#: per qubit count, the widest lane table built so far, as (w, columns)
_LANES: dict[int, tuple[int, tuple[int, ...]]] = {}


def _lane_columns(n: int, w: int) -> tuple[int, tuple[int, ...]]:
    """(v, columns), v >= w: `_LANES[n]`, replaced by a w-byte table when
    narrower.  Lane f of column k (its digit of 2^(8vf)) is 1 + s(k, f),
    s(k, f) = +1 / -1 / 0 as k is a plus / minus / no key of facet f.
    Each column is filled one byte per facet, one 2^n-byte slice per
    (isotropic, key): the 2^n states of an isotropic are consecutive
    facets, and point m's bytes on them are 2 - 2 * (its value), so they
    are one of two slices per m, as m's value in the first state is 0 or
    1.  Each column is then spread into its w-byte lanes (little-endian:
    the byte is the lane's low one) by extended-slice assignment, so the
    fill and the memory beside the columns stay at one byte per facet and
    key."""
    if n in _LANES and _LANES[n][0] >= w:
        return _LANES[n]
    _LANES.pop(n, None)  # a narrower table is freed before this one is built
    data = _facet_data(n)
    size = 1 << n
    F = len(data.labels)
    slices = [
        [bytes(2 - 2 * (value ^ flip >> m & 1) for flip in data.flips) for value in (0, 1)]
        for m in range(size)
    ]
    signs = [bytearray(b"\x01" * F) for _ in range(1 << (2 * n))]
    for f, (keys, first) in zip(count(0, size), data.isotropics):
        for m, k in enumerate(keys):
            signs[k][f:f + size] = slices[m][first >> m & 1]
    lanes = bytearray(F * w)
    columns = []
    for column in signs:
        lanes[::w] = column
        columns.append(int.from_bytes(lanes, "little"))
    _LANES[n] = held = (w, tuple(columns))
    return held


def is_vertex(X: QOperator, cert: Optional[FacetCertificate] = None) -> tuple[bool, int]:
    """(extremal?, active-constraint rank).  X must be a member.

    A full rank over GF(3) certifies a vertex (see the module docstring);
    otherwise the rank is the exact one, over Q.  The GF(3) pass reads
    the first active facet of each maximal isotropic before the rest:
    the states on one isotropic are 2^n consecutive facets.  It is
    skipped when fewer facets are active than the width 4^n - 1, since
    it cannot reach full rank then."""
    if cert is None:
        cert = membership(X)
    n = X.n
    rows = _active_rows(n, cert)  # ValueError for a non-member
    width = (1 << (2 * n)) - 1
    active = cert._active
    if len(active) >= width:
        isotropics = list(map(rshift, active, repeat(n)))
        first = [True, *map(ne, isotropics[1:], isotropics)]
        order = chain(compress(active, first), compress(active, map(not_, first)))
        if _gf3_rank(map(_gf3_rows(n).__getitem__, order), width) == width:
            return True, width
    rank = len(_int_rref(rows, width)[1])
    return rank == width, rank


def _active_rows(n: int, cert: FacetCertificate) -> Iterator[dict[int, int]]:
    """The sparse normals of the active facets (see `_facet_row`), built
    as they are read.  The certificate must be a member's."""
    if not cert.is_member:
        raise ValueError("vertex test requires a polytope member")
    rows = _gf3_rows(n)
    return (_facet_row(*rows[f]) for f in cert._active)


def _int_rref(
    rows: Iterable[dict[int, int]], width: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free Gauss-Jordan reduction over the integers, on sparse
    rows ({column: nonzero int}, columns below width).

    Returns the nonzero reduced rows sorted by pivot column, and those
    columns: row i has a nonzero entry at pivots[i], none at any other
    pivot column and none left of pivots[i].

    The rows are read one at a time.  Each is reduced against the pivot
    rows found so far at the pivot columns it holds; a pivot row is zero
    at every other pivot column, so clearing one never fills another.  If
    anything is left, its first column is a new pivot, cleared from the
    earlier pivot rows.  Clearing a new pivot c from a pivot row adds a
    multiple of the new row, which is zero left of c, and a row whose
    pivot lies right of c is already zero at c.  So every pivot row stays
    zero left of its pivot, and the rows sorted by pivot are the reduced
    row echelon form of the rows read, up to a nonzero factor per row;
    that form is unique for a row space, so it is what a full
    column-by-column reduction returns.  Once there are `width` pivots
    the rows read span the whole space: the remaining rows cannot change
    the result and are not read.
    """
    basis: dict[int, dict[int, int]] = {}  # pivot column -> row
    for row in rows:
        if len(basis) == width:
            break
        for c in [c for c in row if c in basis]:
            row = _clear(row, basis[c], c)
        if not row:
            continue
        col = min(row)
        for c, prow in basis.items():
            if col in prow:
                basis[c] = _clear(prow, row, col)
        basis[col] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _clear(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """p*row - f*prow (p = prow[col], f = row[col]) on sparse rows,
    divided by the gcd of its entries: row with column col cleared."""
    p, f = prow[col], row[col]
    out = {k: p * v for k, v in row.items()} if p != 1 else dict(row)
    get = out.get
    for k, v in prow.items():
        w = get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def enumerate_vertices_n1() -> list[QOperator]:
    """All extremal points for a single qubit, in closed form: the eight
    corners (1 +- X +- Y +- Z)/2 of the cube Lambda_1, alpha_X, alpha_Z,
    alpha_Y = +-1 (keys 1, 2, 3), the X sign varying slowest, -1 first."""
    return [
        QOperator._of(1, 1, {0: (1, 0), 1: (x, 0), 2: (z, 0), 3: (y, 0)})
        for x, z, y in product((-1, 1), repeat=3)
    ]


def decompose(
    rho: QOperator, pool: Sequence[QOperator]
) -> Optional[dict[int, FieldElem]]:
    """Exact weights p >= 0 with sum(p) = 1 and sum p_i pool[i] = rho.

    The pool operators must have rational coefficients (ValueError
    otherwise); rho may lie in Q(sqrt(2)), and so may the weights
    (nonnegative as real numbers).  Returns a sparse index->weight map,
    or None when rho is not in the convex hull of the pool.
    """
    n = rho.n
    size = 1 << (2 * n)
    columns = []
    for i, A in enumerate(pool):
        if A.n != n:
            raise ValueError("pool operator qubit count mismatch")
        col = [0] * size + [A._den]  # the last row: the weights sum to one
        for k, (p, q) in A._num.items():
            if q:
                raise ValueError(f"pool operator {i} has a sqrt(2) coefficient")
            col[k] = p
        columns.append((col, A._den))
    rhs = [rho._num.get(k, (0, 0)) for k in range(size)] + [(rho._den, 0)]
    sol = solve_feasibility(columns, (rhs, rho._den))
    if sol is None:
        return None
    return {i: w for i, w in enumerate(sol) if w.sign() != 0}
