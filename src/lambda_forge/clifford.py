"""Clifford-group action on Pauli labels via tableaux.

A tableau stores the conjugation images of the 2n generators x_1..x_n,
z_1..z_n as signed Pauli points.  Global phases of the underlying
unitaries never enter: every construction here depends only on the
induced signed action, which consists of a symplectic map on E_n plus a
sign for each generator image.  The group of such actions has order
|Sp_{2n}(Z_2)| * 4^n  (24 for one qubit, 11520 for two): an action is
any symplectic basis of E_n taken as the generator images, with any sign
on each image (Koenig and Smolin, J. Math. Phys. 55, 122202 (2014)), and
``enumerate_action`` lists the group that way, with no group search.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

from .gf2 import (
    PauliPoint,
    Subspace,
    rref,
    solve_affine,
    swap_halves,
    symplectic_form,
    x_point,
    xor_sums,
    z_point,
)
from .pauli import PhasedPauli, QOperator, phase_of_bits
from .stabilizer import Assignment, stabilizer_projector

#: Largest qubit count ``enumerate_action`` enumerates (11 520 actions at n = 2).
ACTION_BOUND = 2


class CliffordTableau:
    """Signed Pauli action of a Clifford unitary."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: Sequence[tuple[PauliPoint, int]]):
        if len(images) != 2 * n:
            raise ValueError("need images for x_1..x_n, z_1..z_n")
        imgs = tuple((p, s & 1) for p, s in images)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordTableau is immutable")

    def __reduce__(self):
        return (CliffordTableau, (self.n, self.images))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        imgs = [(x_point(n, q), 0) for q in range(1, n + 1)]
        imgs += [(z_point(n, q), 0) for q in range(1, n + 1)]
        return CliffordTableau(n, imgs)

    @staticmethod
    def hadamard(n: int, qubit: int) -> "CliffordTableau":
        t = CliffordTableau.identity(n)
        imgs = list(t.images)
        imgs[qubit - 1] = (z_point(n, qubit), 0)
        imgs[n + qubit - 1] = (x_point(n, qubit), 0)
        return CliffordTableau(n, imgs)

    @staticmethod
    def phase_gate(n: int, qubit: int) -> "CliffordTableau":
        """S: X -> Y, Z -> Z."""
        t = CliffordTableau.identity(n)
        imgs = list(t.images)
        imgs[qubit - 1] = (
            PauliPoint(n, 1 << (qubit - 1), 1 << (qubit - 1)),
            0,
        )
        return CliffordTableau(n, imgs)

    @staticmethod
    def cnot(n: int, control: int, target: int) -> "CliffordTableau":
        if control == target:
            raise ValueError("control and target must differ")
        t = CliffordTableau.identity(n)
        imgs = list(t.images)
        imgs[control - 1] = (x_point(n, control) ^ x_point(n, target), 0)
        imgs[n + target - 1] = (z_point(n, target) ^ z_point(n, control), 0)
        return CliffordTableau(n, imgs)

    @staticmethod
    def pauli(n: int, u: PauliPoint) -> "CliffordTableau":
        """Conjugation by T_u: v -> (-1)^{[u,v]} v."""
        imgs = []
        for q in range(1, n + 1):
            p = x_point(n, q)
            imgs.append((p, symplectic_form(u, p)))
        for q in range(1, n + 1):
            p = z_point(n, q)
            imgs.append((p, symplectic_form(u, p)))
        return CliffordTableau(n, imgs)

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
        z = x = 0
        phase = ((key >> n) & key).bit_count()
        bits = key
        for img, sgn in self.images:
            if not bits:
                break
            if bits & 1:
                iz, ix = img.z, img.x
                phase += phase_of_bits(z, x, iz, ix) + 2 * sgn
                z ^= iz
                x ^= ix
            bits >>= 1
        phase &= 3
        assert not phase & 1, "Clifford image of a Hermitian Pauli must be Hermitian"
        return (z << n) | x, phase

    def point_map(self, v: PauliPoint) -> PauliPoint:
        return self.apply_point(v).point

    def conjugate(self, A: QOperator) -> QOperator:
        """U A U^dagger: relocate coefficients with signs; trace preserved."""
        if A.n != self.n:
            raise ValueError("qubit count mismatch")
        out = {}
        for k, c in A._by_key.items():
            key, phase = self._apply_key(k)
            out[key] = -c if phase else c
        return QOperator._from_keys(self.n, out)

    # -- group structure -----------------------------------------------------

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (self after other): v -> self(other(v))."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        imgs = []
        for p, s in other.images:
            moved = self.apply_point(p)
            imgs.append((moved.point, (s + (moved.phase >> 1)) & 1))
        return CliffordTableau(self.n, imgs)

    def invert(self) -> "CliffordTableau":
        n = self.n
        # Invert the symplectic matrix by the identity [S v, S w] = [v, w]:
        # the preimage v of g has z bit q = [v, x_q] = [g, S x_q] and
        # x bit q = [v, z_q] = [g, S z_q].
        imgs = []
        for g, _ in CliffordTableau.identity(n).images:
            pairs = [symplectic_form(g, p) for p, _ in self.images]
            z = sum(bit << q for q, bit in enumerate(pairs[:n]))
            x = sum(bit << q for q, bit in enumerate(pairs[n:]))
            pre = PauliPoint(n, z, x)
            fwd = self.apply_point(pre)
            if fwd.point != g:
                raise ValueError("images do not define a symplectic action")
            imgs.append((pre, fwd.phase >> 1))
        return CliffordTableau(n, imgs)

    def is_valid(self) -> bool:
        n = self.n
        basis = [x_point(n, q) for q in range(1, n + 1)]
        basis += [z_point(n, q) for q in range(1, n + 1)]
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                if symplectic_form(self.images[i][0], self.images[j][0]) != symplectic_form(
                    basis[i], basis[j]
                ):
                    return False
        return len(rref(p.key() for p, _ in self.images)) == 2 * n

    def __eq__(self, other):
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.n, self.images))

    def __repr__(self):
        names = [f"x{q}" for q in range(1, self.n + 1)] + [
            f"z{q}" for q in range(1, self.n + 1)
        ]
        body = ", ".join(
            f"{nm}->{'-' if s else '+'}{p.label()}"
            for nm, (p, s) in zip(names, self.images)
        )
        return f"CliffordTableau({body})"

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for q in range(1, self.n + 1):
            p, s = self.images[q - 1]
            out[f"x{q}"] = ("-" if s else "+") + p.label()
        for q in range(1, self.n + 1):
            p, s = self.images[self.n + q - 1]
            out[f"z{q}"] = ("-" if s else "+") + p.label()
        return out

    @staticmethod
    def from_json(obj: Mapping) -> "CliffordTableau":
        """Inverse of ``to_json``: an object whose keys are exactly
        x1..xn, z1..zn, each a signed Pauli label; ValueError otherwise."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"a tableau must be an object of generator images, got {obj!r}")
        n = len(obj) // 2
        names = [f"{prefix}{q}" for prefix in ("x", "z") for q in range(1, n + 1)]
        if n < 1 or set(obj) != set(names):
            raise ValueError(
                f"tableau keys must be exactly x1..xn, z1..zn, got {sorted(map(str, obj))}"
            )
        imgs = []
        for name in names:
            label = obj[name]
            if not isinstance(label, str):
                raise ValueError(f"generator image {name} must be a Pauli label, got {label!r}")
            pp = PhasedPauli.from_label(label)
            if not pp.is_hermitian():
                raise ValueError("generator images must be Hermitian")
            imgs.append((pp.point, pp.phase >> 1))
        t = CliffordTableau(n, imgs)
        if not t.is_valid():
            raise ValueError("images do not define a symplectic action")
        return t


def generator_tableaux(n: int) -> list[CliffordTableau]:
    gens = []
    for q in range(1, n + 1):
        gens.append(CliffordTableau.hadamard(n, q))
        gens.append(CliffordTableau.phase_gate(n, q))
    for c in range(1, n + 1):
        for t in range(1, n + 1):
            if c != t:
                gens.append(CliffordTableau.cnot(n, c, t))
    for q in range(1, n + 1):
        gens.append(CliffordTableau.pauli(n, x_point(n, q)))
        gens.append(CliffordTableau.pauli(n, z_point(n, q)))
    return gens


def enumerate_action(n: int) -> list[CliffordTableau]:
    """All signed Pauli actions of the n-qubit Clifford group (n <= ACTION_BOUND):
    every tuple of generator images with the generators' pairwise symplectic
    forms (so independent), times every sign vector.  Each image in turn
    runs over the nonzero keys ascending and then both signs, so the list
    comes out sorted by the images as (key, sign) pairs."""
    if n > ACTION_BOUND:
        raise ValueError(f"Clifford enumeration capped at n={ACTION_BOUND}")
    nonzero = [PauliPoint.from_key(n, k) for k in range(1, 1 << (2 * n))]
    gens = [p for p, _ in CliffordTableau.identity(n).images]
    actions: list[tuple] = [()]
    for i, g in enumerate(gens):
        forms = [symplectic_form(g, h) for h in gens[:i]]
        actions = [
            images + ((p, s),)
            for images in actions
            for p in nonzero
            if all(symplectic_form(p, q) == f for (q, _), f in zip(images, forms))
            for s in (0, 1)
        ]
    return [CliffordTableau(n, images) for images in actions]


def operator_orbit(A: QOperator) -> set:
    """Canonical keys of the Clifford orbit of A, by breadth-first search.

    Every generator acts on A as a signed permutation of E_n.  A member
    of the orbit is coded as the sorted tuple of the ints key(v) * m + j,
    one per coefficient, where the coefficient at v is values[j] among the
    m distinct values +-c of A; each generator then acts through one
    lookup table on these codes.  Sorting the codes sorts by point key, so
    each member decodes straight to its ``QOperator.key()``.
    """
    n = A.n
    values: list = []
    index: dict = {}
    for c in A._by_key.values():
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
    start = tuple(sorted(k * m + index[c] for k, c in A._by_key.items()))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for table in tables:
            nxt = tuple(sorted([table[e] for e in cur]))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    items = [(k, d.a, d.b) for k in range(1 << (2 * n)) for d in values]
    return {(n, tuple([items[e] for e in member])) for member in seen}


def complete_symplectic_map(
    n: int, prescribed: Sequence[tuple[PauliPoint, PauliPoint]]
) -> CliffordTableau:
    """A tableau (all generator signs +) whose point map extends the
    prescribed source -> destination pairs.

    The pairs must preserve the symplectic form pairwise and be linearly
    independent on each side.
    """
    srcs: list[PauliPoint] = []
    dsts: list[PauliPoint] = []
    for sp, dp in prescribed:
        for s0, d0 in zip(srcs, dsts):
            if symplectic_form(sp, s0) != symplectic_form(dp, d0):
                raise ValueError("prescribed pairs do not preserve the form")
        srcs.append(sp)
        dsts.append(dp)
    for side in (srcs, dsts):
        if len(rref(p.key() for p in side)) != len(side):
            raise ValueError("prescribed points must be independent on each side")

    basis = [g for g, _ in CliffordTableau.identity(n).images]
    for g in basis:
        if Subspace(n, [p.key() for p in srcs]).contains(g):
            continue
        dsts.append(_extension_image(n, srcs, dsts, g))
        srcs.append(g)
    # With 2n independent destinations the pairings fix each image.
    rows = [swap_halves(d.key(), n) for d in dsts]
    imgs = []
    for g in basis:
        image, _ = solve_affine(rows, [symplectic_form(s, g) for s in srcs], 2 * n)
        imgs.append((PauliPoint.from_key(n, image), 0))
    t = CliffordTableau(n, imgs)
    assert t.is_valid()
    return t


def _extension_image(
    n: int,
    srcs: Sequence[PauliPoint],
    dsts: Sequence[PauliPoint],
    g: PauliPoint,
) -> PauliPoint:
    """The first point w, walking the solutions of [dst_i, w] = [src_i, g]
    for all i, outside the destination span, so the extended map stays
    invertible."""
    rows = [swap_halves(d.key(), n) for d in dsts]
    rhs = [symplectic_form(s, g) for s in srcs]
    solved = solve_affine(rows, rhs, 2 * n)
    if solved is None:
        raise AssertionError("nondegenerate form must make the system solvable")
    particular, null_basis = solved
    dst_span = Subspace(n, [d.key() for d in dsts])
    for h in xor_sums(null_basis):
        if dst_span.reduce_key(particular ^ h):
            return PauliPoint.from_key(n, particular ^ h)
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
    n = J0.n
    pairs = list(zip(J0.basis_points(), J.basis_points()))
    base = complete_symplectic_map(n, pairs)
    moved = base.conjugate(stabilizer_projector(J0, r0))
    # Read off the sign error on each basis row of J, then cancel it with
    # a Pauli whose commutation pattern reproduces exactly that functional.
    rows = J.basis_points()
    delta = []
    for p in rows:
        c = moved.coeff(p)
        got = 0 if c.p > 0 else 1
        delta.append(got ^ r.value(p))
    solved = solve_affine([swap_halves(p.key(), n) for p in rows], delta, 2 * n)
    assert solved is not None
    fix = CliffordTableau.pauli(n, PauliPoint.from_key(n, solved[0]))
    result = fix.compose(base)
    assert result.conjugate(stabilizer_projector(J0, r0)) == stabilizer_projector(J, r)
    return result
