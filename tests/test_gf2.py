"""GF(2) engine and its uint8 adapters against the naive elimination oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab import gf2

from oracles import gf2_rank_naive, gf2_solve_naive


def random_matrix(rng, rows, cols):
    return (rng.integers(0, 2, size=(rows, cols))).astype(np.uint8)


def test_rank_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        m = random_matrix(rng, rows, cols)
        assert gf2.rank(m) == gf2_rank_naive(m.tolist())


def test_row_echelon_is_reduced_and_preserves_rowspace():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_matrix(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        red, pivots = gf2.row_echelon(m)
        # pivot columns are unit columns
        for row_idx, col in enumerate(pivots):
            column = red[:, col]
            assert column[row_idx] == 1
            assert column.sum() == 1
        # every original row reduces to zero against the echelon basis
        for row in m:
            assert gf2.in_rowspace(row, red, pivots)


def test_solve_agrees_with_naive_oracle():
    rng = np.random.default_rng(13)
    n_solvable = 0
    for _ in range(300):
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 10))
        a = random_matrix(rng, rows, cols)
        b = rng.integers(0, 2, size=rows).astype(np.uint8)
        x = gf2.solve(a, b)
        x_naive = gf2_solve_naive(a.tolist(), b.tolist())
        if x_naive is None:
            assert x is None
        else:
            assert x is not None
            assert np.array_equal((a @ x) % 2, b)
            n_solvable += 1
    assert n_solvable > 50  # the sweep exercised both branches


def test_kernel_basis_spans_null_space():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        basis = gf2.kernel_basis(a)
        assert basis.shape[0] == a.shape[1] - gf2.rank(a)
        if basis.size:
            assert not ((a @ basis.T) % 2).any()
            assert gf2.rank(basis) == basis.shape[0]


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        gf2.solve(np.eye(3, dtype=np.uint8), np.zeros(2, dtype=np.uint8))


# --- the int-row engine against the naive eliminators ---


@st.composite
def int_matrices(draw, min_rows=0, max_rows=10, max_width=12):
    """(rows as ints with column j at bit j, width, rows as 0/1 lists)."""
    width = draw(st.integers(1, max_width))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=min_rows, max_size=max_rows))
    return rows, width, [[(v >> j) & 1 for j in range(width)] for v in rows]


def _xor_of(vectors, combo):
    acc = 0
    for i, v in enumerate(vectors):
        if (combo >> i) & 1:
            acc ^= v
    return acc


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_engine_rank_matches_naive_at_every_prefix(mat):
    rows, _, lists = mat
    reducer = gf2.Reducer()
    for i, v in enumerate(rows):
        reducer.add(v)
        assert reducer.rank == gf2_rank_naive(lists[: i + 1])
    assert len(reducer.dependencies) == len(rows) - reducer.rank


@settings(max_examples=200, deadline=None)
@given(int_matrices(min_rows=1), st.data())
def test_engine_solve_matches_naive_combination(mat, data):
    vectors, width, lists = mat
    target = data.draw(st.integers(0, (1 << width) - 1))
    combo = gf2.Reducer(vectors).solve(target)
    # naive: mat @ x = target with the vectors as the matrix's columns; both
    # set the coefficients of vectors that depend on earlier ones to 0
    columns = [[row[j] for row in lists] for j in range(width)]
    naive = gf2_solve_naive(columns, [(target >> j) & 1 for j in range(width)])
    if naive is None:
        assert combo is None
    else:
        assert combo == sum(bit << i for i, bit in enumerate(naive))
        assert _xor_of(vectors, combo) == target


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_engine_kernel_dimension_and_annihilation(mat):
    rows, width, lists = mat
    basis = gf2.kernel(rows, width)
    assert len(basis) == width - gf2_rank_naive(lists)
    for v in basis:
        assert all((row & v).bit_count() % 2 == 0 for row in rows)
    assert gf2_rank_naive([[(v >> j) & 1 for j in range(width)] for v in basis]) == len(basis)


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_engine_dependencies_xor_to_zero(mat):
    vectors, _, _ = mat
    deps = gf2.dependencies(vectors)
    for combo in deps:
        assert combo and _xor_of(vectors, combo) == 0
    assert len(deps) == len(vectors) - gf2.Reducer(vectors).rank
