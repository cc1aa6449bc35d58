"""Exact phase-1 simplex, revised: columns are priced on demand.

Solves A x = b, x >= 0 feasibility for a rational A and a right-hand side
b in Q(sqrt(2)), both given as integers over positive scales, by
minimizing the sum of artificial variables with Bland's anti-cycling
rule.  Rows with b_i < 0 are negated first (S the diagonal of those
signs), so the artificials are a feasible starting basis.

Every tableau row is a combination r . [S A | I | S b] of the constraint
rows, r its part in the artificial columns.  So only that block is kept,
as one list of integers per row: the m entries of r S (r a positive
multiple of a row of B^-1), then the row's b entry as two integers
(x, y) meaning (x + y*sqrt(2)) / s, s the row's entry in its basic
column.  A column's current entries are dot products of its integers
with the block; a positive factor on a column or a row changes no sign
and no ratio, so the row scales start as b's scale.  The phase-1
reduced costs f*c - u . [S A | I] (c the artificial costs) are kept the
same way, as the m multipliers u S (S at the start) and the factor
f > 0.  Pricing scans the columns of A in order and stops at the
first negative reduced cost, which is Bland's choice; the ratio test, its
tie-break on the basic index and the per-row gcd division read the block
only.  So a pivot costs the columns it prices and an m x (m + 2)
elimination.

The artificial columns are never priced.  Once no column of A prices
negative, u . A <= 0, and u . b / f is the artificial sum of the
current basis.  If it is positive, u is a Farkas certificate that no
x >= 0 solves A x = b.  If it is zero, the basic solution has every
artificial at 0, so it solves A x = b, and a further pivot could only be
degenerate and leave x unchanged.  So the pivots are the first ones of
the dense tableau over every column, which lets artificials re-enter,
and the result is its result (the oracle of tests/test_simplex.py).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

from .field import FieldElem, ZERO, sqrt2_sign


def solve_feasibility(
    columns: Sequence[tuple[Sequence[int], int]], rhs: tuple[Sequence[tuple[int, int]], int]
) -> Optional[list[FieldElem]]:
    """A nonnegative solution x of sum_j x_j * A_j = b, or None.

    Column j is given as (ints, scale) with A_j = ints / scale, and rhs as
    (pairs, scale), b_i = (p + q*sqrt(2)) / scale for pairs[i] = (p, q),
    every scale a positive int.  A column whose length is not that of b
    is a ValueError.
    """
    pairs, den = rhs
    m = len(pairs)
    ncols = len(columns)
    ints = [col for col, _ in columns]
    for j, col in enumerate(ints):
        if len(col) != m:
            raise ValueError(f"simplex column {j} has {len(col)} entries, not {m}")
    u = [-1 if sqrt2_sign(p, q) < 0 else 1 for p, q in pairs]  # S: b_i < 0 negates row i
    # rows[i]: r_i S (m ints), then S b_i as (x, y)
    rows = [[s * den if k == i else 0 for k in range(m)] + [s * p, s * q]
            for i, (s, (p, q)) in enumerate(zip(u, pairs))]
    basis = list(range(ncols, ncols + m))
    # "minimize the artificial sum": the reduced cost of column j is
    # f*c_j - u . (A | S)_j with c_j = 1 on the artificials and 0 on A,
    # u = S at the start
    f = 1

    while True:
        # Bland: the smallest column of A with a negative reduced cost
        # enters (a basic column's is 0); with none, u . A <= 0 and the
        # artificials are not priced (see the module docstring)
        for enter, a in enumerate(ints):
            cost = -sum(map(mul, u, a))
            if cost < 0:
                column = [sum(map(mul, row, a)) for row in rows]
                break
        else:
            break
        # the smallest basic index leaves among the rows tied on b_i / a_i
        leave = -1
        for i, a in enumerate(column):
            if a <= 0:
                continue
            if leave >= 0:
                # the sign of b_i / a - b_leave / c, from integers (a, c > 0)
                (x, y), best, c = rows[i][m:], rows[leave], column[leave]
                order = sqrt2_sign(x * c - best[m] * a, y * c - best[m + 1] * a)
                if order > 0 or (order == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave < 0:
            raise RuntimeError("phase-1 simplex found an unbounded column")
        # p*row - a*prow clears the entering column from each other row;
        # divided by its gcd it stays a positive multiple of the exact row
        prow, p = rows[leave], column[leave]
        for i, a in enumerate(column):
            if i != leave and a:
                row = [p * v - a * w for v, w in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        # the cost row likewise, p*cost - cost*prow: f*c - u . [A | I]
        # becomes p*f*c - (p*u + cost*r_leave) . [A | I]
        f, u = p * f, [p * v + cost * w for v, w in zip(u, prow)]
        g = gcd(f, *u)
        if g > 1:
            f, u = f // g, [v // g for v in u]
        basis[leave] = enter

    x = [ZERO] * ncols
    for row, j in zip(rows, basis):
        if j >= ncols:
            if row[m] or row[m + 1]:
                return None  # infeasible: the artificial sum stays positive
        else:
            # row . ints_j is the column's scale times the row's entry in column j
            col, k = columns[j]
            x[j] = FieldElem._reduced(row[m] * k, row[m + 1] * k, sum(map(mul, row, col)))
    return x
