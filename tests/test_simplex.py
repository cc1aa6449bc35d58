"""The integer-tableau simplex against a brute-force basic-solution oracle."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lambda_forge.field import FieldElem, INV_SQRT2, ONE, ZERO
from lambda_forge.gf2 import PauliPoint
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import decompose, enumerate_vertices_n1
from lambda_forge.simplex import solve_feasibility

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


@given(systems())
def test_solve_feasibility_against_basic_solutions(system):
    columns, rhs = system
    x = solve_feasibility(columns, rhs)
    assert (x is None) == (not oracle_feasible(columns, rhs))
    if x is not None:
        assert len(x) == len(columns)
        assert all(v.sign() >= 0 for v in x)
        for i, b in enumerate(rhs):
            assert sum((v * col[i] for v, col in zip(x, columns)), ZERO) == b


def test_irrational_pool_rejected():
    with pytest.raises(ValueError):
        decompose(T_STATE, [T_STATE])
    with pytest.raises(ValueError):
        decompose(T_STATE, enumerate_vertices_n1() + [T_STATE])
    with pytest.raises(ValueError):
        solve_feasibility([[FieldElem(0, 1)]], [FieldElem(1)])
