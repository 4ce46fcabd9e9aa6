"""Stabilizer code constructions and code-file I/O.

Constructors return a ``Code``: a named stabilizer group, with the CSS check
matrices kept alongside when the construction is CSS. Dependent checks are
retained on purpose (the toric families keep all 2L^2 checks), so the number
of checks N and the group rank are tracked separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf2
from .io import json_int, load_payload
from .paulis import (
    PauliOperator,
    StabilizerGroup,
    from_letters,
    min_weight_logical,
)


@dataclass(frozen=True)
class CssCode:
    """Sparse-row CSS check matrices: each row lists its column indices."""

    n: int
    hx: tuple[tuple[int, ...], ...]
    hz: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name, rows in (("hx", self.hx), ("hz", self.hz)):
            for i, row in enumerate(rows):
                if len(set(row)) != len(row):
                    raise ValueError(f"{name} row {i} repeats a column")
                if row and (min(row) < 0 or max(row) >= self.n):
                    raise ValueError(f"{name} row {i} has a column outside [0, {self.n})")
        for i, xrow in enumerate(self.hx):
            xset = set(xrow)
            for j, zrow in enumerate(self.hz):
                if len(xset.intersection(zrow)) % 2:
                    raise ValueError(f"hx row {i} and hz row {j} overlap on an odd set")


def css_to_stabilizer(css: CssCode) -> StabilizerGroup:
    """X-rows then Z-rows as Hermitian +1 generators."""
    gens = []
    for row in css.hx:
        x = 0
        for col in row:
            x |= 1 << col
        gens.append(PauliOperator(css.n, x, 0, 1))
    for row in css.hz:
        z = 0
        for col in row:
            z |= 1 << col
        gens.append(PauliOperator(css.n, 0, z, 1))
    return StabilizerGroup(gens)


@dataclass(frozen=True)
class Code:
    """A named stabilizer code; css is set when the checks split X/Z."""

    name: str
    group: StabilizerGroup
    css: CssCode | None = None

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def n_checks(self) -> int:
        return len(self.group.generators)


def as_group(code: Code | StabilizerGroup) -> StabilizerGroup:
    """The check group of a Code; a StabilizerGroup passes through."""
    return code.group if isinstance(code, Code) else code


@dataclass(frozen=True)
class CodeParameters:
    """n, k from symplectic rank; d searched up to the cap; locality bound."""

    n: int
    k: int
    d: int | None
    d_cap: int
    locality: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "d_cap": self.d_cap,
            "locality": self.locality,
        }


def code_parameters(code: Code | StabilizerGroup, distance_cap: int = 4) -> CodeParameters:
    """Computed once per group and cap; later calls return the same object."""
    group = as_group(code)
    return group.derived(("code_parameters", distance_cap), lambda: _code_parameters(group, distance_cap))


def _code_parameters(group: StabilizerGroup, distance_cap: int) -> CodeParameters:
    found = min_weight_logical(group, cap=distance_cap)
    return CodeParameters(
        n=group.n,
        k=group.n_logical,
        d=None if found is None else found.weight,
        d_cap=distance_cap,
        locality=group.locality,
    )


# --- constructions ---


def five_qubit_code() -> Code:
    """The cyclic [[5, 1, 3]] code; every check has weight 4."""
    checks = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    return Code("five_qubit", StabilizerGroup([from_letters(c) for c in checks]))


def _toric_css(length: int, removed_plaquettes: set[tuple[int, int]] = frozenset()) -> CssCode:
    if length < 2:
        raise ValueError("torus side must be at least 2")
    n = 2 * length * length

    def h_edge(r, c):  # horizontal edge leaving vertex (r, c) rightwards
        return (r % length) * length + (c % length)

    def v_edge(r, c):  # vertical edge leaving vertex (r, c) downwards
        return length * length + (r % length) * length + (c % length)

    hx = []  # stars: all edges meeting vertex (r, c)
    for r in range(length):
        for c in range(length):
            hx.append(tuple(sorted({h_edge(r, c), h_edge(r, c - 1), v_edge(r, c), v_edge(r - 1, c)})))
    hz = []  # plaquettes: boundary of the face whose top-left vertex is (r, c)
    for r in range(length):
        for c in range(length):
            if (r, c) in removed_plaquettes:
                continue
            hz.append(tuple(sorted({h_edge(r, c), h_edge(r + 1, c), v_edge(r, c), v_edge(r, c + 1)})))
    return CssCode(n=n, hx=tuple(hx), hz=tuple(hz))


def toric_code(length: int) -> Code:
    """Torus of side L: 2L^2 qubits, all 2L^2 checks retained (rank 2L^2 - 2)."""
    css = _toric_css(length)
    return Code(f"toric{length}", css_to_stabilizer(css), css)


def punctured_toric_code(length: int, punctures) -> Code:
    """Toric code with the listed plaquette checks removed.

    ``punctures`` is a sequence of (row, col) plaquette coordinates. Removal
    drops checks, never qubits. Note the torus retains one plaquette
    dependency, so the first removal is absorbed by it: k grows by one per
    removal only from the second removal onwards (verified, not assumed).
    """
    coords = [(int(r) % length, int(c) % length) for r, c in punctures]
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate puncture coordinates")
    css = _toric_css(length, removed_plaquettes=set(coords))
    name = f"toric{length}_punctured{len(coords)}"
    return Code(name, css_to_stabilizer(css), css)


def hypergraph_product(h1, h2, name: str = "hgp") -> Code:
    """CSS product of two binary check matrices.

    With h1 (m1 x n1) and h2 (m2 x n2), the qubits are the n1*n2 left block
    plus the m1*m2 right block; X-checks are [h1 (x) I | I (x) h2^T] and
    Z-checks are [I (x) h2 | h1^T (x) I].
    """
    a = gf2.as_gf2(h1)
    b = gf2.as_gf2(h2)
    m1, n1 = a.shape
    m2, n2 = b.shape
    n = n1 * n2 + m1 * m2

    def left(i, j):
        return i * n2 + j

    def right(p, q):
        return n1 * n2 + p * m2 + q

    hx = []
    for p in range(m1):
        for j in range(n2):
            cols = [left(i, j) for i in range(n1) if a[p, i]]
            cols += [right(p, q) for q in range(m2) if b[q, j]]
            hx.append(tuple(sorted(cols)))
    hz = []
    for i in range(n1):
        for q in range(m2):
            cols = [left(i, j) for j in range(n2) if b[q, j]]
            cols += [right(p, q) for p in range(m1) if a[p, i]]
            hz.append(tuple(sorted(cols)))
    css = CssCode(n=n, hx=tuple(hx), hz=tuple(hz))
    return Code(name, css_to_stabilizer(css), css)


def repetition_check_matrix(length: int) -> np.ndarray:
    """Adjacent-pair parity checks of the open length-L repetition code."""
    h = np.zeros((length - 1, length), dtype=np.uint8)
    for i in range(length - 1):
        h[i, i] = 1
        h[i, i + 1] = 1
    return h


def surface_code(length: int) -> Code:
    """Open-boundary surface patch from the repetition-code product.

    n = L^2 + (L-1)^2, one encoded qubit, distance L.
    """
    h = repetition_check_matrix(length)
    code = hypergraph_product(h, h, name=f"surface{length * length + (length - 1) ** 2}")
    return code


BUILTIN_CODES = {
    "five_qubit": five_qubit_code,
    "toric2": lambda: toric_code(2),
    "toric3": lambda: toric_code(3),
    "surface5": lambda: surface_code(2),
    "surface13": lambda: surface_code(3),
}


def build_code(name: str) -> Code:
    if name not in BUILTIN_CODES:
        known = ", ".join(sorted(BUILTIN_CODES))
        raise KeyError(f"unknown code {name!r}; built-ins: {known}")
    return BUILTIN_CODES[name]()


# --- file I/O ---


def code_to_dict(code: Code) -> dict:
    if code.css is not None:
        return {
            "css": {
                "n": code.css.n,
                "hx": [list(row) for row in code.css.hx],
                "hz": [list(row) for row in code.css.hz],
            }
        }
    return {
        "n": code.n,
        "checks": [str(g) for g in code.group.generators],
    }


def code_from_dict(payload: dict, name: str = "file") -> Code:
    if not isinstance(payload, dict):
        raise ValueError("code file must hold a JSON object")
    if "css" in payload:
        block = payload["css"]
        if not isinstance(block, dict) or "hx" not in block or "hz" not in block:
            raise ValueError("css block must contain 'hx' and 'hz' row lists")
        rows = [tuple(json_int(c, "hx column") for c in row) for row in block["hx"]]
        rows_z = [tuple(json_int(c, "hz column") for c in row) for row in block["hz"]]
        highest = max([max(r) for r in rows + rows_z if r] + [-1])
        n = json_int(block.get("n", payload.get("n", highest + 1)), "'n'")
        css = CssCode(n=n, hx=tuple(rows), hz=tuple(rows_z))
        return Code(name, css_to_stabilizer(css), css)
    if "checks" in payload:
        checks = payload["checks"]
        if not isinstance(checks, list) or not checks:
            raise ValueError("'checks' must be a non-empty list of Pauli strings")
        n = payload.get("n")
        if n is not None:
            n = json_int(n, "'n'")
        gens = [from_letters(c, n=n) for c in checks]
        return Code(name, StabilizerGroup(gens))
    raise ValueError("code file needs either a 'checks' list or a 'css' block")


def load_code(path: str | Path) -> Code:
    return load_payload(path, lambda payload: code_from_dict(payload, name=Path(path).stem))


def dump_code(code: Code, path: str | Path) -> None:
    Path(path).write_text(json.dumps(code_to_dict(code), indent=2, sort_keys=True) + "\n")
