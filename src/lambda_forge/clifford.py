"""Clifford-group action on Pauli labels via tableaux.

A tableau stores the conjugation images of the 2n generators x_1..x_n,
z_1..z_n (generator i has key 1 << i) as (``PauliPoint.key()``, sign)
int pairs.  ``PauliPoint`` appears only at the public edges: the
validating constructor, the ``images`` view, ``apply_point``/``point_map``,
``repr``, JSON and pickles.  Global phases of the underlying unitaries
never enter: every construction here depends only on the
induced signed action, which consists of a symplectic map on E_n plus a
sign for each generator image.  The group of such actions has order
|Sp_{2n}(Z_2)| * 4^n  (24 for one qubit, 11520 for two): an action is
any symplectic basis of E_n taken as the generator images, with any sign
on each image (Koenig and Smolin, J. Math. Phys. 55, 122202 (2014)), and
``enumerate_action`` lists the group that way, with no group search.
``compose`` acts only on the generators the left tableau moves (as in
Aaronson and Gottesman, PRA 70, 052328 (2004)): O(n) per image for a gate.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Sequence

from .field import value_type
from .gf2 import (
    PauliPoint,
    Subspace,
    key_form,
    rref,
    solve_affine,
    swap_halves,
    xor_sums,
)
from .pauli import PhasedPauli, QOperator, key_phase, signed_point
from .stabilizer import Assignment, stabilizer_projector

#: Largest qubit count ``enumerate_action`` enumerates (11 520 actions at n = 2).
ACTION_BOUND = 2


def _qubit(n: int, qubit: int) -> int:
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} is outside 1..{n}")
    return qubit - 1


@value_type(init=False, repr=False)
class CliffordTableau:
    """Signed Pauli action of a Clifford unitary."""

    n: int
    _keys: tuple[tuple[int, int], ...]  # (``PauliPoint.key()``, sign bit) per image

    def __init__(self, n: int, images: Sequence[tuple[PauliPoint, int]]):
        if len(images) != 2 * n:
            raise ValueError("need images for x_1..x_n, z_1..z_n")
        for p, _ in images:
            if p.n != n:
                raise ValueError(f"a generator image has {p.n} qubits, the tableau {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_keys", tuple((p.key(), s & 1) for p, s in images))

    @property
    def images(self) -> tuple[tuple[PauliPoint, int], ...]:
        """The generator images x_1..x_n, z_1..z_n as (point, sign) pairs."""
        return tuple((PauliPoint.from_key(self.n, k), s) for k, s in self._keys)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _moved(n: int, to: Mapping[int, int]) -> "CliffordTableau":
        """The identity action with generator i sent to key to[i], sign +."""
        return CliffordTableau._of(n, tuple((to.get(i, 1 << i), 0) for i in range(2 * n)))

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        return CliffordTableau._moved(n, {})

    @staticmethod
    def hadamard(n: int, qubit: int) -> "CliffordTableau":
        q = _qubit(n, qubit)
        return CliffordTableau._moved(n, {q: 1 << (n + q), n + q: 1 << q})

    @staticmethod
    def phase_gate(n: int, qubit: int) -> "CliffordTableau":
        """S: X -> Y, Z -> Z."""
        q = _qubit(n, qubit)
        return CliffordTableau._moved(n, {q: (1 << q) | (1 << (n + q))})

    @staticmethod
    def cnot(n: int, control: int, target: int) -> "CliffordTableau":
        c, t = _qubit(n, control), _qubit(n, target)
        if c == t:
            raise ValueError("control and target must differ")
        return CliffordTableau._moved(n, {c: 1 << c | 1 << t, n + t: (1 << t | 1 << c) << n})

    @staticmethod
    def pauli(n: int, u: PauliPoint) -> "CliffordTableau":
        """Conjugation by T_u: v -> (-1)^{[u,v]} v."""
        if u.n != n:
            raise ValueError("qubit count mismatch")
        return CliffordTableau.identity(n)._signed(u.key())

    def _signed(self, u: int) -> "CliffordTableau":
        """Conjugation by T_u after this action: each image e gains [u, e]."""
        return CliffordTableau._of(
            self.n, tuple((k, s ^ key_form(u, k, self.n)) for k, s in self._keys)
        )

    # -- the action -------------------------------------------------------

    def apply_point(self, v: PauliPoint) -> PhasedPauli:
        """The signed image of T_v; always Hermitian."""
        if v.n != self.n:
            raise ValueError("qubit count mismatch")
        key, phase = self._apply_key(v.key())
        return PhasedPauli(PauliPoint.from_key(self.n, key), phase)

    def _apply_key(self, key: int) -> tuple[int, int]:
        """``apply_point`` on ``PauliPoint.key()``: the image's key and its
        phase, 0 or 2."""
        n = self.n
        # T_v = i^{q(v)} X(v_x) Z(v_z); conjugation distributes over the
        # generator factors, and the i^{q(v)} prefactor survives unchanged.
        # The factors multiply on plain ints, signs as two units of phase.
        # Bit i of the key (x half low, z half high) selects generator
        # image i.
        acc = 0
        phase = ((key >> n) & key).bit_count()
        keys = self._keys
        while key:
            low = key & -key
            k, sgn = keys[low.bit_length() - 1]
            phase += key_phase(acc, k, n) + 2 * sgn
            acc ^= k
            key ^= low
        phase &= 3
        assert not phase & 1, "Clifford image of a Hermitian Pauli must be Hermitian"
        return acc, phase

    def point_map(self, v: PauliPoint) -> PauliPoint:
        return self.apply_point(v).point

    def conjugate(self, A: QOperator) -> QOperator:
        """U A U^dagger: relocate coefficients with signs; trace preserved."""
        if A.n != self.n:
            raise ValueError("qubit count mismatch")
        # a signed permutation of the coefficients keeps the form canonical
        out = {}
        for k, (p, q) in A._num.items():
            key, phase = self._apply_key(k)
            out[key] = (-p, -q) if phase else (p, q)
        return QOperator._of(self.n, A._den, out)

    # -- group structure -----------------------------------------------------

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (self after other): v -> self(other(v))."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        # self fixes T_r off the moved generators: with k = r ^ m and (m', ph)
        # = self._apply_key(m), self(T_k) = i^{ph + key_phase(r, m') - key_phase(r, m)} T_{r ^ m'}.
        n, imgs = self.n, []
        moved = sum(1 << i for i, img in enumerate(self._keys) if img != (1 << i, 0))
        for k, s in other._keys:
            m = k & moved
            if m:
                key, phase = self._apply_key(m)
                if k != m:  # else r = 0, and both key_phase terms vanish
                    phase += key_phase(k ^ m, key, n) - key_phase(k ^ m, m, n)
                    assert not phase & 1, "Clifford image of a Hermitian Pauli must be Hermitian"
                k, s = k ^ m ^ key, s ^ (phase >> 1 & 1)
            imgs.append((k, s))
        return CliffordTableau._of(n, tuple(imgs))

    def invert(self) -> "CliffordTableau":
        n = self.n
        # Invert the symplectic matrix by the identity [S v, S w] = [v, w]:
        # the preimage v of generator i has z bit q = [v, x_q] = [e_i, S x_q]
        # and x bit q = [v, z_q] = [e_i, S z_q], bit i of the swapped images.
        swapped = [swap_halves(k, n) for k, _ in self._keys]
        imgs = []
        for i in range(2 * n):
            pre = swap_halves(sum((r >> i & 1) << j for j, r in enumerate(swapped)), n)
            key, phase = self._apply_key(pre)
            if key != 1 << i:
                raise ValueError("images do not define a symplectic action")
            imgs.append((pre, phase >> 1))
        return CliffordTableau._of(n, tuple(imgs))

    def is_valid(self) -> bool:
        """The images keep the generators' pairwise forms ([x_q, z_q] = 1, every
        other pair 0), which makes them independent too."""
        n, keys = self.n, [k for k, _ in self._keys]
        pairs = ((i, j) for i in range(2 * n) for j in range(i + 1, 2 * n))
        return all(key_form(keys[i], keys[j], n) == (j == i + n) for i, j in pairs)

    def __repr__(self):
        body = ", ".join(f"{name}->{image}" for name, image in self.to_json().items())
        return f"CliffordTableau({body})"

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        names = [f"{prefix}{q}" for prefix in ("x", "z") for q in range(1, self.n + 1)]
        return {nm: ("-" if s else "+") + p.label() for nm, (p, s) in zip(names, self.images)}

    @staticmethod
    def from_json(obj: Mapping) -> "CliffordTableau":
        """Inverse of ``to_json``: an object whose keys are exactly
        x1..xn, z1..zn, each a signed n-qubit Pauli label; ValueError
        otherwise."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"a tableau must be an object of generator images, got {obj!r}")
        n = len(obj) // 2
        names = [f"{prefix}{q}" for prefix in ("x", "z") for q in range(1, n + 1)]
        if n < 1 or set(obj) != set(names):
            raise ValueError(
                f"tableau keys must be exactly x1..xn, z1..zn, got {sorted(map(str, obj))}"
            )
        imgs = [signed_point(obj[name], f"generator image {name}") for name in names]
        t = CliffordTableau(n, imgs)
        if not t.is_valid():
            raise ValueError("images do not define a symplectic action")
        return t


@lru_cache(maxsize=8)
def generator_tableaux(n: int) -> tuple[CliffordTableau, ...]:
    """H and S on each qubit, CNOT on each ordered pair, then conjugation
    by X and by Z on each qubit; one shared tuple per n (tableaux are
    immutable)."""
    gens = []
    for q in range(1, n + 1):
        gens.append(CliffordTableau.hadamard(n, q))
        gens.append(CliffordTableau.phase_gate(n, q))
    for c in range(1, n + 1):
        for t in range(1, n + 1):
            if c != t:
                gens.append(CliffordTableau.cnot(n, c, t))
    ident = CliffordTableau.identity(n)
    for q in range(n):  # conjugation by X_q, then by Z_q
        gens += [ident._signed(1 << q), ident._signed(1 << (n + q))]
    return tuple(gens)


def enumerate_action(n: int) -> list[CliffordTableau]:
    """All signed Pauli actions of the n-qubit Clifford group (n <= ACTION_BOUND):
    every tuple of generator images with the generators' pairwise symplectic
    forms (so independent), times every sign vector.  Each image in turn
    runs over the nonzero keys ascending and then both signs, so the list
    comes out sorted by the images as (key, sign) pairs."""
    if n > ACTION_BOUND:
        raise ValueError(f"Clifford enumeration capped at n={ACTION_BOUND}")
    actions: list[tuple] = [()]
    for i in range(2 * n):
        # [e_j, e_i] = 1 exactly for j = i - n (x_q against z_q)
        actions = [
            images + ((k, s),)
            for images in actions
            for k in range(1, 1 << (2 * n))
            if all(key_form(k, q, n) == (j == i - n) for j, (q, _) in enumerate(images))
            for s in (0, 1)
        ]
    return [CliffordTableau._of(n, images) for images in actions]


def coefficient_orbit(n: int, coeffs: Mapping[int, object]) -> frozenset:
    """The Clifford orbit of the map {``PauliPoint.key()``: value}, values
    closed under negation, by breadth-first search: each member is the
    sorted tuple of its (key, value) pairs.  Every generator acts as a
    signed permutation of E_n.  A member is coded as the sorted ints
    key(v) * m + j, where the value at v is values[j] among the m distinct
    values +-c; a generator acts through one lookup table on these codes,
    and sorting the codes sorts by point key."""
    values: list = []
    index: dict = {}
    for c in coeffs.values():
        for d in (c, -c):
            if d not in index:
                index[d] = len(values)
                values.append(d)
    m = len(values)
    neg = [index[-d] for d in values]
    tables = []
    for g in generator_tableaux(n):
        table = []
        for k in range(1 << (2 * n)):
            key, phase = g._apply_key(k)
            table.extend(key * m + (neg[j] if phase else j) for j in range(m))
        tables.append(table)
    start = tuple(sorted(k * m + index[c] for k, c in coeffs.items()))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        # itemgetter returns a lone code bare and takes no empty list
        get = itemgetter(*cur) if len(cur) > 1 else lambda t, cur=cur: [t[e] for e in cur]
        for table in tables:
            nxt = tuple(sorted(get(table)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    items = [(k, d) for k in range(1 << (2 * n)) for d in values]
    # each member is decoded as its codes are dropped, so the orbit is
    # never held twice
    return frozenset(tuple([items[e] for e in seen.pop()]) for _ in range(len(seen)))


def complete_symplectic_map(
    n: int, prescribed: Sequence[tuple[int, int]]
) -> CliffordTableau:
    """A tableau (all generator signs +) whose point map extends the
    prescribed source -> destination pairs of packed keys
    (``PauliPoint.key()``).

    The pairs must preserve the symplectic form pairwise and be linearly
    independent on each side.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    for sp, dp in prescribed:
        for s0, d0 in zip(srcs, dsts):
            if key_form(sp, s0, n) != key_form(dp, d0, n):
                raise ValueError("prescribed pairs do not preserve the form")
        srcs.append(sp)
        dsts.append(dp)
    for side in (srcs, dsts):
        if len(rref(side)) != len(side):
            raise ValueError("prescribed points must be independent on each side")

    for g in (1 << i for i in range(2 * n)):
        if Subspace(n, srcs).row_mask(g) is None:
            dsts.append(_extension_image(n, srcs, dsts, g))
            srcs.append(g)
    # With 2n independent destinations the pairings fix each image.
    rows = [swap_halves(d, n) for d in dsts]
    imgs = []
    for i in range(2 * n):
        image, _ = solve_affine(rows, [key_form(s, 1 << i, n) for s in srcs], 2 * n)
        imgs.append((image, 0))
    t = CliffordTableau._of(n, tuple(imgs))
    assert t.is_valid()
    return t


def _extension_image(n: int, srcs: Sequence[int], dsts: Sequence[int], g: int) -> int:
    """The first key w, walking the solutions of [dst_i, w] = [src_i, g]
    for all i, outside the destination span, so the extended map stays
    invertible."""
    rows = [swap_halves(d, n) for d in dsts]
    solved = solve_affine(rows, [key_form(s, g, n) for s in srcs], 2 * n)
    if solved is None:
        raise AssertionError("nondegenerate form must make the system solvable")
    particular, null_basis = solved
    dst_span = Subspace(n, dsts)
    for h in xor_sums(null_basis):
        if dst_span.row_mask(particular ^ h) is None:
            return particular ^ h
    raise AssertionError("no invertible extension found")


def tableau_for_projector_pair(
    J0: Subspace, r0: Assignment, J: Subspace, r: Assignment
) -> CliffordTableau:
    """A tableau C with point map sending J0 onto J and
    C(Pi_{J0,r0}) = Pi_{J,r} exactly.

    Only the stated postcondition is canonical; the particular tableau is
    one valid choice (sign fixes are applied by composing with a Pauli
    conjugation chosen from the coset logic of J-perp).
    """
    if J0.n != J.n or J0.dim != J.dim:
        raise ValueError("subspace dimensions must match")
    if r0.subspace != J0 or r.subspace != J:
        raise ValueError("assignment domain differs from the projector subspace")
    n = J0.n
    base = complete_symplectic_map(n, list(zip(J0.rows, J.rows)))
    # base sends canonical row i of J0 onto row i of J with some sign, and
    # a canonical row's value is its row value; so the sign error on row i
    # is this functional, cancelled by a Pauli whose commutation pattern
    # reproduces it.
    delta = [
        v0 ^ (base._apply_key(g0)[1] >> 1) ^ v
        for g0, v0, v in zip(J0.rows, r0.row_values, r.row_values)
    ]
    solved = solve_affine([swap_halves(g, n) for g in J.rows], delta, 2 * n)
    assert solved is not None
    result = base._signed(solved[0])
    assert result.conjugate(stabilizer_projector(J0, r0)) == stabilizer_projector(J, r)
    return result
