"""GF(2) linear algebra on bit-packed Python-int rows.

The engine is :class:`Reducer`: incremental row reduction where each stored
row's pivot is its leading (highest) set bit, and each stored row carries the
set of offered vectors that XOR to it (bit i of the combination is the i-th
vector offered). From it come rank, solve (a combination of the vectors that
hits a target) and kernel (the combinations that XOR to zero). Symplectic
Pauli vectors ``x | z << n`` and syndrome masks go through it directly.

``as_gf2`` and ``row_echelon`` are uint8 adapters for matrix-shaped callers:
they pack each matrix row into an int (column j is bit j), run the engine,
and unpack.
"""

from __future__ import annotations

import numpy as np


class Reducer:
    """Incremental GF(2) row reduction on ints, leading-bit pivots.

    ``rows`` holds ``(pivot, row)`` pairs in insertion order. Each row was
    reduced before it was stored, so it is zero at the pivots of the rows
    before it; reducing a vector against the rows in that order therefore
    never sets a pivot bit already cleared, and the residue has every pivot
    bit clear. ``dependencies`` collects, for each offered vector that
    reduced to zero, the combination of offered vectors that XORs to zero.
    """

    def __init__(self, vectors=()):
        self.rows: list[tuple[int, int]] = []
        self._combos: list[int] = []  # parallel to rows
        self._offered = 0
        self.dependencies: list[int] = []
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        for pivot, row in self.rows:
            if (v >> pivot) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def _reduce_tracked(self, v: int) -> tuple[int, int]:
        combo = 0
        for (pivot, row), row_combo in zip(self.rows, self._combos):
            if (v >> pivot) & 1:
                v ^= row
                combo ^= row_combo
        return v, combo

    def solve(self, v: int) -> int | None:
        """Combination of offered vectors XORing to v, or None if v is outside the span."""
        v, combo = self._reduce_tracked(v)
        return None if v else combo

    def add(self, v: int) -> bool:
        """Reduce and absorb; True when v was independent of the rows so far."""
        v, combo = self._reduce_tracked(v)
        combo ^= 1 << self._offered
        self._offered += 1
        if not v:
            self.dependencies.append(combo)
            return False
        self.rows.append((v.bit_length() - 1, v))
        self._combos.append(combo)
        return True


def dependencies(vectors) -> list[int]:
    """Basis of {c : XOR of vectors[i] over bits i of c is zero}.

    One combination per vector that depends on the earlier ones, in vector
    order; it holds that vector's bit plus its unique expression in the
    independent earlier vectors. With the vectors as the columns of a matrix
    this is the free-variable kernel basis of that matrix, free columns
    ascending.
    """
    return Reducer(vectors).dependencies


def transpose(rows, width: int) -> list[int]:
    """Column ints of a row-int matrix: bit i of column j is bit j of row i."""
    cols = [0] * width
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def kernel(rows, width: int) -> list[int]:
    """Basis of {v < 2^width : every row & v has even parity}, free bits ascending."""
    return dependencies(transpose(rows, width))


# --- uint8 matrix adapters ---


def as_gf2(mat) -> np.ndarray:
    """Coerce input to a 2-D uint8 matrix with entries reduced mod 2."""
    arr = np.asarray(mat, dtype=np.int64) % 2
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr.astype(np.uint8)


def _pack(mat) -> tuple[list[int], int]:
    """(row ints with column j at bit j, column count)."""
    arr = as_gf2(mat)
    packed = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed], arr.shape[1]


def _unpack(ints, width: int) -> np.ndarray:
    nbytes = (width + 7) // 8
    out = np.zeros((len(ints), width), dtype=np.uint8)
    for i, v in enumerate(ints):
        raw = np.frombuffer(v.to_bytes(nbytes, "little"), dtype=np.uint8)
        out[i] = np.unpackbits(raw, bitorder="little")[:width]
    return out


def row_echelon(mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Args:
        mat: 2-D array-like with 0/1 entries.

    Returns:
        (rref, pivot_cols): the reduced matrix (same shape, zero rows sink to
        the bottom) and the list of pivot column indices in order.
    """
    rows, width = _pack(mat)
    # pivot columns are those independent of the columns before them; each
    # other column's dependency names the pivot rows that hold a 1 there
    reducer = Reducer()
    pivot_cols = [j for j, col in enumerate(transpose(rows, width)) if reducer.add(col)]
    reduced = [1 << col for col in pivot_cols]
    for combo in reducer.dependencies:
        free = combo.bit_length() - 1
        for k, col in enumerate(pivot_cols):
            if (combo >> col) & 1:
                reduced[k] |= 1 << free
    return _unpack(reduced + [0] * (len(rows) - len(reduced)), width), pivot_cols

