"""Exact phase-1 simplex on a fraction-free integer tableau.

Solves A x = b, x >= 0 feasibility for a rational A and a right-hand side
b in Q(sqrt(2)) by minimizing the sum of artificial variables with
Bland's anti-cycling rule.  With A rational every tableau entry B^-1 A is
rational, so a row is a list of integers: the columns of A, one
artificial per row, then b as two columns (x, y) meaning
(x + y*sqrt(2)) / scale, where the scale is the row's entry in its basic
column, kept positive.  The phase-1 reduced costs are one more row, known
up to a positive factor, which is all their signs need.  Dense tableau;
intended for desk-scale systems (tens of rows, a few thousand columns).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from .field import FieldElem, ZERO, sqrt2_sign


def reduce_row(row: list[int], prow: list[int], col: int) -> list[int]:
    """p*row - f*prow (p = prow[col], f = row[col]), divided by the gcd of
    its entries: row with column col cleared, kept small and without any
    Fraction.  With p > 0 it is a positive multiple of the exact
    elimination, so its signs keep their meaning."""
    p, f = prow[col], row[col]
    row = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def eliminate(mat: list[list[int]], r: int, col: int) -> None:
    """Clear column col from every row of mat but row r, in place, by
    `reduce_row` against mat[r]."""
    prow = mat[r]
    for i, row in enumerate(mat):
        if i != r and row[col]:
            mat[i] = reduce_row(row, prow, col)


def solve_feasibility(
    columns: Sequence[Sequence[FieldElem]], rhs: Sequence[FieldElem]
) -> Optional[list[FieldElem]]:
    """A nonnegative solution x of sum_j x_j * columns[j] = rhs, or None.

    The column entries must be rational (ValueError otherwise); rhs may
    lie in Q(sqrt(2)).
    """
    m = len(rhs)
    ncols = len(columns)
    width = ncols + m  # b is held in columns width (x) and width + 1 (y)
    tab = []
    for i in range(m):
        b = FieldElem.coerce(rhs[i])
        entries = [FieldElem.coerce(col[i]) for col in columns]
        if any(v.q for v in entries):
            raise ValueError(f"simplex columns must be rational; row {i} has a sqrt(2) part")
        scale = lcm(b.d, *(v.d for v in entries))
        sgn = -1 if b.sign() < 0 else 1  # make b >= 0
        ints = [sgn * v.p * (scale // v.d) for v in entries]
        k = sgn * (scale // b.d)
        tab.append(ints + [scale if j == i else 0 for j in range(m)] + [b.p * k, b.q * k])
    basis = list(range(ncols, width))

    # Reduced costs of "minimize the artificial sum", times the lcm of the
    # row scales: an artificial column costs 1 and sums to 1 over the rows.
    total = lcm(*(row[ncols + i] for i, row in enumerate(tab)))
    weights = [total // row[ncols + i] for i, row in enumerate(tab)]
    cost = [-sum(w * v for w, v in zip(weights, column)) for column in zip(*tab)]
    cost[ncols:width] = [0] * m
    tab.append(cost)

    while True:
        # Bland: the smallest column with a negative reduced cost enters
        # (a basic column's reduced cost is 0), and the smallest basic
        # index leaves among the rows tied on b_i / a_i.
        enter = next((j for j in range(width) if tab[m][j] < 0), None)
        if enter is None:
            break
        leave = -1
        for i, row in enumerate(tab[:m]):
            a = row[enter]
            if a <= 0:
                continue
            if leave >= 0:
                # the sign of b_i / a - b_leave / c, from integers (a, c > 0)
                (x, y), best = row[width:], tab[leave]
                c = best[enter]
                order = sqrt2_sign(x * c - best[width] * a, y * c - best[width + 1] * a)
                if order > 0 or (order == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave < 0:
            raise RuntimeError("phase-1 simplex found an unbounded column")
        eliminate(tab, leave, enter)
        basis[leave] = enter

    if any(tab.pop()[width:]):
        return None  # infeasible: the artificial sum stays positive

    # An artificial still basic sits at value 0, so its row sets no x_j.
    x = [ZERO] * ncols
    for row, j in zip(tab, basis):
        if j < ncols:
            x[j] = FieldElem._reduced(row[width], row[width + 1], row[j])
    return x
