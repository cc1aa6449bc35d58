"""The revised simplex against a brute-force basic-solution oracle, and
against the dense fraction-free tableau it replaced, which must give the
identical vector."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge import polytope, simplex
from lambda_forge.cnc import cnc_vertices
from lambda_forge.field import FieldElem, INV_SQRT2, ONE, ZERO, sqrt2_sign
from lambda_forge.gf2 import PauliPoint
from lambda_forge.orbit import alpha0_vertex
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import decompose, enumerate_vertices_n1
from lambda_forge.simulate import _known_pool, decompose_known

P = PauliPoint.from_label
T_STATE = QOperator(1, {P("I"): ONE, P("X"): INV_SQRT2, P("Y"): INV_SQRT2})

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
weights = st.builds(
    FieldElem, st.builds(Fraction, st.integers(0, 3), st.integers(1, 3)), st.just(0)
) | st.builds(FieldElem, st.just(0), st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)))
q_sqrt2 = st.builds(FieldElem, rationals, rationals)


@st.composite
def systems(draw):
    """(columns, rhs): m <= 3 rows, <= 6 rational columns, rhs in Q(sqrt2).

    Half of the right-hand sides are drawn freely (mostly infeasible), half
    as A x0 for a nonnegative x0 in Q(sqrt2) (always feasible)."""
    m = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 6))
    columns = [[FieldElem(draw(rationals)) for _ in range(m)] for _ in range(ncols)]
    if draw(st.booleans()):
        rhs = [draw(q_sqrt2) for _ in range(m)]
    else:
        x0 = [draw(weights) for _ in range(ncols)]
        rhs = [sum((x * col[i] for x, col in zip(x0, columns)), ZERO) for i in range(m)]
    return columns, rhs


def _solve_rational(cols, b):
    """x with sum x_j cols[j] = b for independent rational columns, or None
    when inconsistent.  Plain Fraction Gauss-Jordan."""
    m, k = len(b), len(cols)
    mat = [[cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    r = 0
    for c in range(k):
        piv = next(i for i in range(r, m) if mat[i][c] != 0)
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        r += 1
    if any(mat[i][k] != 0 for i in range(r, m)):
        return None
    return [mat[i][k] for i in range(k)]


def _rank(cols, m):
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
    rank = 0
    for c in range(len(cols)):
        piv = next((i for i in range(rank, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, m):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle_feasible(columns, rhs) -> bool:
    """Some set of at most m independent columns carries a nonnegative
    solution (every feasible system has a basic feasible solution)."""
    m = len(rhs)
    rat = [[v.a for v in col] for col in columns]
    for k in range(m + 1):
        for subset in combinations(range(len(columns)), k):
            cols = [rat[j] for j in subset]
            if _rank(cols, m) < k:
                continue
            # A is rational, so the rational and sqrt2 parts solve apart
            xa = _solve_rational(cols, [b.a for b in rhs])
            xb = _solve_rational(cols, [b.b for b in rhs])
            if xa is not None and xb is not None and all(
                FieldElem(a, b).sign() >= 0 for a, b in zip(xa, xb)
            ):
                return True
    return False


def int_system(columns, rhs):
    """Rational ``FieldElem`` columns and a ``FieldElem`` right-hand side
    as `simplex.solve_feasibility` takes them: each column as (ints,
    scale) over the lcm of its denominators, and rhs as ((p, q) pairs,
    scale) over the lcm of its own."""
    out = []
    for col in columns:
        scale = lcm(*(v.d for v in col))
        out.append(([v.p * (scale // v.d) for v in col], scale))
    den = lcm(*(b.d for b in rhs))
    return out, ([(b.p * (den // b.d), b.q * (den // b.d)) for b in rhs], den)


def field_system(columns, rhs):
    """The inverse of `int_system`: the inputs the dense oracle takes."""
    pairs, den = rhs
    return (
        [[FieldElem(Fraction(v, scale)) for v in col] for col, scale in columns],
        [FieldElem(Fraction(p, den), Fraction(q, den)) for p, q in pairs],
    )


@given(systems())
def test_solve_feasibility_against_basic_solutions(system):
    columns, rhs = system
    x = simplex.solve_feasibility(*int_system(columns, rhs))
    assert (x is None) == (not oracle_feasible(columns, rhs))
    if x is not None:
        assert len(x) == len(columns)
        assert all(v.sign() >= 0 for v in x)
        for i, b in enumerate(rhs):
            assert sum((v * col[i] for v, col in zip(x, columns)), ZERO) == b


def test_irrational_pool_rejected():
    with pytest.raises(ValueError):
        decompose(T_STATE, [T_STATE])
    with pytest.raises(ValueError, match="pool operator 8 has a sqrt"):
        decompose(T_STATE, enumerate_vertices_n1() + [T_STATE])


# The dense fraction-free tableau that `simplex.solve_feasibility` replaced,
# kept verbatim as the oracle: every pivot rewrites every column, and the
# revised solver must make the same pivots and return the identical vector.


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


@st.composite
def wide_systems(draw):
    """`systems()` widened with duplicate columns, zero-rhs rows (degenerate
    ratio ties) and rows scaled by a negative factor with mixed
    denominators, which leaves the solution set unchanged but flips the
    sign of b_i and mixes the row's denominators."""
    columns, rhs = draw(systems())
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(columns) - 1))
        columns.insert(draw(st.integers(0, len(columns))), list(columns[j]))
    for _ in range(draw(st.integers(0, 2))):
        entries = draw(st.lists(st.just(Fraction(0)) | rationals, min_size=len(columns),
                                max_size=len(columns)))
        i = draw(st.integers(0, len(rhs)))
        rhs.insert(i, ZERO)
        for col, v in zip(columns, entries):
            col.insert(i, FieldElem(v))
    for i in range(len(rhs)):
        if draw(st.booleans()):
            factor = FieldElem(-Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 7))))
            rhs[i] = rhs[i] * factor
            for col in columns:
                col[i] = col[i] * factor
    return columns, rhs


@settings(max_examples=300)
@given(wide_systems())
def test_revised_simplex_returns_the_dense_tableau_vector(system):
    columns, rhs = system
    assert simplex.solve_feasibility(*int_system(columns, rhs)) == solve_feasibility(columns, rhs)


def test_revised_simplex_matches_the_dense_tableau_on_degenerate_ties():
    # three zero-rhs rows and a duplicate column (2 and 6): ratios tie at 0,
    # and leaving on the largest basic index instead of the smallest ends
    # at another vertex, (0, 1, 1/2, 0, 0, 3/2, 0)
    rows = [[0, -1, -1, 0, 0, 1, -1], [1, 0, 0, 0, 0, 0, 0],
            [0, -1, 2, 0, 1, 0, 2], [1, 1, 0, 0, Fraction(-1, 3), 0, 0]]
    columns = [[FieldElem(row[j]) for row in rows] for j in range(7)]
    rhs = [ZERO, ZERO, ZERO, ONE]
    x = simplex.solve_feasibility(*int_system(columns, rhs))
    assert x == solve_feasibility(columns, rhs)
    half3 = Fraction(3, 2)
    assert x == [FieldElem(v) for v in (0, half3, 0, 0, half3, half3, 0)]


@pytest.fixture
def both_solvers(monkeypatch):
    """Route `polytope.decompose` through both solvers, asserting that they
    return the identical vector; returns the list of (feasible, solution)
    per solve."""
    solves = []

    def solve(columns, rhs):
        x = simplex.solve_feasibility(columns, rhs)
        assert x == solve_feasibility(*field_system(columns, rhs))
        solves.append((x is not None, x))
        return x

    monkeypatch.setattr(polytope, "solve_feasibility", solve)
    return solves


def test_decompose_matches_the_dense_tableau_on_t_squared(both_solvers):
    tt = T_STATE.tensor(T_STATE)
    w = decompose(tt, [c.operator() for c in cnc_vertices(2)])
    assert w is not None and [ok for ok, _ in both_solvers] == [True]


def test_decompose_known_matches_the_dense_tableau_through_both_pools(both_solvers):
    # alpha0 is outside the cnc hull: the cnc pool is infeasible, and the
    # cnc + family pool finds it as the family member it is
    terms = decompose_known(alpha0_vertex())
    assert [ok for ok, _ in both_solvers] == [False, True]
    x = both_solvers[1][1]
    assert len(x) == len(_known_pool(2, True)[0])
    assert [w for w, _ in terms] == [ONE]


def test_column_length_checked():
    for columns in ([[ONE]], [[ONE, ONE, ONE]]):
        with pytest.raises(ValueError, match="simplex column 0 has"):
            simplex.solve_feasibility(*int_system(columns, [ONE, ONE]))
