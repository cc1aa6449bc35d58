"""Exact phase-1 simplex, revised: columns are priced on demand.

Solves A x = b, x >= 0 feasibility for a rational A and a right-hand side
b in Q(sqrt(2)) by minimizing the sum of artificial variables with
Bland's anti-cycling rule.  Rows with b_i < 0 are negated first, so the
artificials are a feasible starting basis.

Every tableau row is a combination r . [A | I | b] of the constraint rows,
and r is the row's part in the artificial columns.  So only that block is
kept, as one list of integers per row: the m entries of r (a positive
multiple of a row of B^-1), then the row's b entry as two integers
(x, y) meaning (x + y*sqrt(2)) / s, where s is the row's entry in its
basic column.  Each column of A is turned into integers once, times a
positive factor of its own (the lcm of its denominators), and its current
entries are dot products with the block.  A positive factor on a column
or a row changes no sign and no ratio, so the row scales start as b's
denominators alone.  The phase-1 reduced costs f*c - u . [A | I] (c the
artificial costs) are kept the same way, as the m multipliers u and the
factor f > 0.  Pricing scans the columns of A in order and stops at the
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

from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .field import FieldElem, ZERO, sqrt2_sign


def solve_feasibility(
    columns: Sequence[Sequence[FieldElem]], rhs: Sequence[FieldElem]
) -> Optional[list[FieldElem]]:
    """A nonnegative solution x of sum_j x_j * columns[j] = rhs, or None.

    The column entries must be rational (ValueError otherwise); rhs may
    lie in Q(sqrt(2)).
    """
    m = len(rhs)
    ncols = len(columns)
    signs, rows = [], []  # rows[i]: r_i (m ints), then b_i as (x, y)
    for i, b in enumerate(map(FieldElem.coerce, rhs)):
        s = -1 if b.sign() < 0 else 1  # make b >= 0
        signs.append(s)
        rows.append([b.d if k == i else 0 for k in range(m)] + [s * b.p, s * b.q])
    ints, scales = [], []  # column j as signs * A_j * scales[j], integers
    for j, col in enumerate(columns):
        entries = [FieldElem.coerce(v) for v in col]
        if len(entries) != m:
            raise ValueError(f"simplex column {j} has {len(entries)} entries, not {m}")
        if any(v.q for v in entries):
            raise ValueError(f"simplex columns must be rational; column {j} has a sqrt(2) part")
        scale = lcm(*(v.d for v in entries))
        ints.append([s * v.p * (scale // v.d) for s, v in zip(signs, entries)])
        scales.append(scale)
    basis = list(range(ncols, ncols + m))
    # "minimize the artificial sum": the reduced cost of column j is
    # f*c_j - u . (A | I)_j with c_j = 1 on the artificials and 0 on A
    f, u = 1, [1] * m

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
            # row . A_j is scales[j] times the row's entry in column j
            k = scales[j]
            x[j] = FieldElem._reduced(row[m] * k, row[m + 1] * k, sum(map(mul, row, ints[j])))
    return x
