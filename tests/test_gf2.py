"""GF(2) engine and its row_echelon adapter against the naive elimination oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab import gf2

from oracles import gf2_rank_naive, gf2_solve_naive, span_contains


def random_matrix(rng, rows, cols):
    return (rng.integers(0, 2, size=(rows, cols))).astype(np.uint8)


def _as_int(row) -> int:
    return sum(int(b) << j for j, b in enumerate(row))


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
        assert not red[len(pivots) :].any()
        # the echelon rows are independent, span every original row, and
        # number rank(m): the row space is unchanged
        basis = gf2.Reducer(_as_int(row) for row in red[: len(pivots)])
        assert basis.rank == len(pivots) == gf2_rank_naive(m.tolist())
        for row in m:
            assert span_contains(basis, _as_int(row))


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
