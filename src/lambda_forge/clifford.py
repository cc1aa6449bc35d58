"""Clifford-group action on Pauli labels via tableaux.

A tableau stores the conjugation images of the 2n generators x_1..x_n,
z_1..z_n as signed Pauli points.  Global phases of the underlying
unitaries never enter: every construction here depends only on the
induced signed action, which consists of a symplectic map on E_n plus a
sign for each generator image.  The group of such actions has order
|Sp_{2n}(Z_2)| * 4^n  (24 for one qubit, 11520 for two).
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
    zx_overlap,
)
from .pauli import PhasedPauli, QOperator, pauli_mul
from .stabilizer import Assignment, stabilizer_projector


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
        # T_v = i^{q(v)} X(v_x) Z(v_z); conjugation distributes over the
        # generator factors, and the i^{q(v)} prefactor survives unchanged.
        acc = PhasedPauli(PauliPoint.zero(self.n), 0)
        for i in range(self.n):
            if (v.x >> i) & 1:
                img, sgn = self.images[i]
                acc = pauli_mul(acc, PhasedPauli(img, 2 * sgn))
        for i in range(self.n):
            if (v.z >> i) & 1:
                img, sgn = self.images[self.n + i]
                acc = pauli_mul(acc, PhasedPauli(img, 2 * sgn))
        out = PhasedPauli(acc.point, acc.phase + zx_overlap(v))
        assert out.is_hermitian(), "Clifford image of a Hermitian Pauli must be Hermitian"
        return out

    def apply_signed(self, p: PhasedPauli) -> PhasedPauli:
        img = self.apply_point(p.point)
        return PhasedPauli(img.point, img.phase + p.phase)

    def point_map(self, v: PauliPoint) -> PauliPoint:
        return self.apply_point(v).point

    def conjugate(self, A: QOperator) -> QOperator:
        """U A U^dagger: relocate coefficients with signs; trace preserved."""
        if A.n != self.n:
            raise ValueError("qubit count mismatch")
        out = {}
        for v, c in A.coeffs.items():
            img = self.apply_point(v)
            out[img.point] = c if img.sign() > 0 else -c
        return QOperator(self.n, out)

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
        keys = sorted(obj)
        n = len(keys) // 2
        imgs = []
        for prefix in ("x", "z"):
            for q in range(1, n + 1):
                pp = PhasedPauli.from_label(obj[f"{prefix}{q}"])
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


def enumerate_action(n: int, bound: int = 2) -> list[CliffordTableau]:
    """All signed Pauli actions of the n-qubit Clifford group (n <= bound)."""
    if n > bound:
        raise ValueError(f"Clifford enumeration capped at n={bound}")
    gens = generator_tableaux(n)
    start = CliffordTableau.identity(n)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = g.compose(cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen, key=lambda t: tuple((p.key(), s) for p, s in t.images))


def operator_orbit(A: QOperator) -> set:
    """Canonical keys of the Clifford orbit of A, by breadth-first search."""
    gens = generator_tableaux(A.n)
    seen = {A.key(): A}
    queue = deque([A])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = g.conjugate(cur)
            k = nxt.key()
            if k not in seen:
                seen[k] = nxt
                queue.append(nxt)
    return set(seen)


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
        got = 0 if c.a > 0 else 1
        delta.append(got ^ r.value(p))
    solved = solve_affine([swap_halves(p.key(), n) for p in rows], delta, 2 * n)
    assert solved is not None
    fix = CliffordTableau.pauli(n, PauliPoint.from_key(n, solved[0]))
    result = fix.compose(base)
    assert result.conjugate(stabilizer_projector(J0, r0)) == stabilizer_projector(J, r)
    return result
