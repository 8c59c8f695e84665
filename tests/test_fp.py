"""Linear algebra over F_p: frozen cases plus random-system properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noninner import fp
from util_oracles import row_echelon, row_echelon_by_rows, solve_by_row_echelon


def test_row_echelon_frozen():
    mat = [
        [0, 2, 1],
        [1, 1, 0],
        [2, 2, 0],
    ]
    ech, pivots = row_echelon(mat, 3)
    assert pivots == [0, 1]
    expected = np.array(
        [
            [1, 0, 1],  # row2 - row1 reduced
            [0, 1, 2],
            [0, 0, 0],
        ]
    )
    assert (ech == expected).all()


def test_row_echelon_identity_and_zero():
    ech, pivots = row_echelon(np.eye(4, dtype=int), 5)
    assert pivots == [0, 1, 2, 3]
    assert (ech == np.eye(4, dtype=int)).all()
    ech, pivots = row_echelon(np.zeros((3, 3), dtype=int), 3)
    assert pivots == []
    assert (ech == 0).all()


def test_row_echelon_without_columns():
    ech, pivots = row_echelon(np.zeros((2, 0), dtype=int), 3)
    assert ech.shape == (2, 0) and pivots == []
    assert fp.rank(np.zeros((2, 0), dtype=int), 3) == 0


def test_rank_frozen():
    assert fp.rank([[1, 2], [2, 4]], 5) == 1  # second row is twice the first
    assert fp.rank([[1, 2], [2, 4]], 3) == 1
    assert fp.rank([[1, 1], [1, 2]], 3) == 2
    # rank over F_2 differs from rank over Q
    assert fp.rank([[1, 1], [1, -1]], 2) == 1


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_by_row_echelon([[1, 0], [0, 1]], [1], 3)


def test_solve_underdetermined_sets_free_variables_to_zero():
    x = solve_by_row_echelon([[1, 1, 1]], [2], 3)
    assert x is not None
    assert x.tolist() == [2, 0, 0]


@st.composite
def system(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    mat = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    x0 = draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols))
    return p, np.array(mat), np.array(x0)


@settings(max_examples=80, deadline=None)
@given(system())
def test_solve_finds_solution_of_consistent_system(sys_):
    p, mat, x0 = sys_
    rhs = (mat @ x0) % p
    x = solve_by_row_echelon(mat, rhs, p)
    assert x is not None, "system is consistent by construction"
    assert ((mat @ x - rhs) % p == 0).all()


@settings(max_examples=80, deadline=None)
@given(system())
def test_row_echelon_is_idempotent_and_rank_bounded(sys_):
    p, mat, _ = sys_
    ech, pivots = row_echelon(mat, p)
    again, pivots2 = row_echelon(ech, p)
    assert (again == ech).all()
    assert pivots2 == pivots
    assert len(pivots) <= min(mat.shape)
    # each pivot column is a standard basis vector
    for r, c in enumerate(pivots):
        col = ech[:, c]
        assert col[r] == 1 and (np.delete(col, r) == 0).all()


@st.composite
def stack(draw):
    """A stack (B, r, c) over F_p with sparse entries and whole zero rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 313]))
    b, r, c = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    row = st.one_of(st.just([0] * c), st.lists(entry, min_size=c, max_size=c))
    mats = draw(st.lists(st.lists(row, min_size=r, max_size=r), min_size=b, max_size=b))
    return p, np.array(mats, dtype=np.int64).reshape(b, r, c)


@settings(max_examples=300, deadline=None)
@given(stack())
def test_stacked_row_echelon_matches_row_by_row_oracle(case):
    p, mats = case
    ech, pivots = row_echelon(mats, p)
    ranks = fp.rank(mats, p)
    assert ech.shape == mats.shape and len(pivots) == len(ranks) == len(mats)
    for b, mat in enumerate(mats):
        expected, expected_pivots = row_echelon_by_rows(mat, p)
        assert (ech[b] == expected).all(), b
        assert pivots[b] == expected_pivots, b
        assert ranks[b] == len(expected_pivots), b
        alone, alone_pivots = row_echelon(mat, p)
        assert (alone == expected).all() and alone_pivots == expected_pivots
        assert fp.rank(mat, p) == len(expected_pivots)
