"""Layered circuits of one- and two-qubit gates, their lightcones, and the Clifford engine.

A circuit is a sequence of layers; each layer holds gates on pairwise
disjoint wires, so depth equals the number of layers. Gates come in three
kinds: a named Clifford elementary, a "word" (a short composition of named
elementaries acting inside one gate slot, still a single gate for depth and
lightcone purposes), or a dense unitary payload. Any wiring is allowed
(all-to-all connectivity); fan-in/out of a gate is at most two wires.

``NAMED_GATES`` holds each named gate's matrix, which the dense simulator
applies. The stabilizer side conjugates Paulis in Stim's column layout
(Gidney, arXiv 2103.02202): a list of N Paulis on m qubits is one x-column
int and one z-column int per qubit plus one sign int, bit i belonging to
Pauli i. Each named gate is a CHP column update (Aaronson-Gottesman,
quant-ph/0406196) of a few int operations on its wires' columns, so a gate
costs the same however many Paulis the columns hold, and a word applies its
steps in turn. :func:`conjugate_columns` applies U P U^dagger (the
Schrodinger picture, for a mixture's rows); :func:`heisenberg_columns`
applies U^dagger P U through the reversed, daggered steps, which reads a
check's expectation on U|0^m> without building the state. The tests check
every rule against the Pauli image table derived from the gate's matrix.

A random Clifford-word circuit is drawn (:func:`draw_clifford_words`: per
layer a permutation of the wires, paired in turn, and twelve alphabet
indices per pair, as arrays) and then built (:func:`circuit_of_draws`);
``random_low_depth`` is the two in turn. :func:`heisenberg_draw_batch`
reads a block of draws without building them. A word acts on each Pauli's
four bits on its two wires and may flip its sign, so in the Heisenberg
picture it is a table over 16 patterns and a sign: the daggered alphabet
steps' tables come from the same CHP rules, runs of four steps are
composed once at first use, and a word is three runs. Per layer, every
trial's patterns on every slot are gathered, looked up in their word's
table and scattered back in one numpy pass. The frontier search scores a
depth's trials that way and builds the winner alone.

Lightcones are exact gate-connectivity cones (not the 2^t upper bound): the
cone of a region A is everything reachable by chains of overlapping gates
walking from the last layer back to the first, and always contains A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import gf2
from .io import json_int, load_payload

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CY = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), _Y]]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

NAMED_GATES: dict[str, np.ndarray] = {
    "H": _H,
    "S": _S,
    "SDG": _S.conj().T,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "CX": _CX,
    "CZ": _CZ,
    "CY": _CY,
    "SWAP": _SWAP,
}

_DAGGER_NAME = {name: name for name in NAMED_GATES} | {"S": "SDG", "SDG": "S"}

# word entries: (elementary name, local wire positions within the gate slot)
WordStep = tuple[str, tuple[int, ...]]


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    """One gate slot: exactly one of name / word / matrix is set.

    ``qubits`` orders the wires; for named two-qubit gates the first wire is
    the control. A word applies its steps first-entry-first, each step naming
    local positions into ``qubits``.
    """

    qubits: tuple[int, ...]
    name: str | None = None
    word: tuple[WordStep, ...] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.qubits) not in (1, 2) or len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate needs 1 or 2 distinct wires, got {self.qubits}")
        kinds = sum(v is not None for v in (self.name, self.word, self.matrix))
        if kinds != 1:
            raise ValueError("gate must set exactly one of name/word/matrix")
        if self.name is not None:
            if self.name not in NAMED_GATES:
                raise ValueError(f"unknown gate name {self.name!r}")
            arity = 1 if NAMED_GATES[self.name].shape[0] == 2 else 2
            if arity != len(self.qubits):
                raise ValueError(f"{self.name} acts on {arity} wires, got {len(self.qubits)}")
        if self.word is not None:
            for step_name, locs in self.word:
                if step_name not in NAMED_GATES:
                    raise ValueError(f"unknown gate name {step_name!r} in word")
                arity = 1 if NAMED_GATES[step_name].shape[0] == 2 else 2
                if len(locs) != arity or any(not 0 <= p < len(self.qubits) for p in locs):
                    raise ValueError(f"bad word step {(step_name, locs)}")
        if self.matrix is not None:
            dim = 2 ** len(self.qubits)
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix shape {mat.shape} does not fit {len(self.qubits)} wires")
            if not np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-9):
                raise ValueError("gate matrix is not unitary")
            object.__setattr__(self, "matrix", mat)

    @property
    def is_clifford_representable(self) -> bool:
        return self.matrix is None


def _trusted_gate(qubits: tuple[int, ...], name: str | None = None, word: tuple | None = None) -> Gate:
    """Named or word gate from parts known to be valid (distinct wires, table entries): no checks."""
    gate = object.__new__(Gate)
    object.__setattr__(gate, "qubits", qubits)
    object.__setattr__(gate, "name", name)
    object.__setattr__(gate, "word", word)
    object.__setattr__(gate, "matrix", None)
    return gate


def _embed_local(mat: np.ndarray, locs: tuple[int, ...], arity: int) -> np.ndarray:
    """Embed an elementary acting on given local positions into the slot space."""
    if arity == 1:
        return mat
    if len(locs) == 2:
        if locs == (0, 1):
            return mat
        # reversed two-qubit orientation: conjugate by SWAP
        return _SWAP @ mat @ _SWAP
    if locs == (0,):
        return np.kron(mat, np.eye(2))
    return np.kron(np.eye(2), mat)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of the slot, qubits[0] as the most significant bit."""
    if gate.name is not None:
        return NAMED_GATES[gate.name]
    if gate.matrix is not None:
        return gate.matrix
    arity = len(gate.qubits)
    total = np.eye(2**arity, dtype=complex)
    for step_name, locs in gate.word:
        total = _embed_local(NAMED_GATES[step_name], locs, arity) @ total
    return total


def dagger_gate(gate: Gate) -> Gate:
    if gate.name is not None:
        return Gate(qubits=gate.qubits, name=_DAGGER_NAME[gate.name])
    if gate.word is not None:
        steps = tuple((_DAGGER_NAME[name], locs) for name, locs in reversed(gate.word))
        return Gate(qubits=gate.qubits, word=steps)
    return Gate(qubits=gate.qubits, matrix=gate.matrix.conj().T)


# --- the column engine ---
#
# A rule conjugates every Pauli held in the columns (layout in
# pauli_columns) by one named gate on wires a (and b), P -> U P U^dagger, by
# the CHP update (Aaronson-Gottesman, quant-ph/0406196) in the Hermitian sign
# convention: it rewrites the gate's own columns in place and returns the new
# sign int. A one-qubit rule ignores b.


def pauli_columns(paulis, m: int) -> tuple[list[int], list[int], int]:
    """The column layout of a list of Paulis on m qubits: (xs, zs, signs).

    ``xs[q]`` / ``zs[q]`` carry bit i when Pauli i has an X / Z part on
    qubit q (both bits: Y), and bit i of ``signs`` is set when Pauli i
    carries sign -1.
    """
    cols = gf2.transpose([p.vec for p in paulis], 2 * m)
    return cols[:m], cols[m:], sum(1 << i for i, p in enumerate(paulis) if p.sign < 0)


def _h(xs, zs, s, a, b):
    x, z = xs[a], zs[a]
    xs[a], zs[a] = z, x
    return s ^ (x & z)


def _s(xs, zs, s, a, b):
    x, z = xs[a], zs[a]
    zs[a] = z ^ x
    return s ^ (x & z)


def _sdg(xs, zs, s, a, b):
    x, z = xs[a], zs[a]
    zs[a] = z ^ x
    return s ^ (x & ~z)


def _x(xs, zs, s, a, b):
    return s ^ zs[a]


def _y(xs, zs, s, a, b):
    return s ^ xs[a] ^ zs[a]


def _z(xs, zs, s, a, b):
    return s ^ xs[a]


def _cx(xs, zs, s, a, b):
    xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
    xs[b] = xb ^ xa
    zs[a] = za ^ zb
    return s ^ (xa & zb & ~(xb ^ za))


def _cz(xs, zs, s, a, b):
    xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
    zs[a] = za ^ xb
    zs[b] = zb ^ xa
    return s ^ (xa & xb & (za ^ zb))


def _cy(xs, zs, s, a, b):
    # SDG on b, CX, S on b, collapsed
    xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
    xs[b] = xb ^ xa
    zs[a] = za ^ zb ^ xb
    zs[b] = zb ^ xa
    return s ^ (xa & (zb ^ xb) & (xb ^ za))


def _swap(xs, zs, s, a, b):
    xs[a], xs[b] = xs[b], xs[a]
    zs[a], zs[b] = zs[b], zs[a]
    return s


_COLUMN_RULES = {
    "H": _h,
    "S": _s,
    "SDG": _sdg,
    "X": _x,
    "Y": _y,
    "Z": _z,
    "CX": _cx,
    "CZ": _cz,
    "CY": _cy,
    "SWAP": _swap,
}
_INVERSE_RULES = {name: _COLUMN_RULES[_DAGGER_NAME[name]] for name in _COLUMN_RULES}


def _conjugate(xs: list[int], zs: list[int], signs: int, layers, rules, backwards: bool) -> int:
    """Every step of the layers through ``rules``; a word's steps in reverse when ``backwards``."""
    for layer in layers:
        for gate in layer:
            if gate.name is not None:
                steps = ((gate.name, (0, -1)),)  # a named gate is a one-step word on all its wires
            elif gate.word is not None:
                steps = reversed(gate.word) if backwards else gate.word
            else:
                raise ValueError("dense gates have no tableau action; use the dense backend")
            qs = gate.qubits
            for name, locs in steps:
                signs = rules[name](xs, zs, signs, qs[locs[0]], qs[locs[-1]])
    return signs


def conjugate_columns(xs: list[int], zs: list[int], signs: int, circuit: "LayeredCircuit") -> int:
    """U P U^dagger for every Pauli P held in the columns of :func:`pauli_columns`, U the circuit.

    The columns are rewritten in place and the new signs returned; each
    gate costs a few int operations per step, however many Paulis the
    columns hold. Raises ValueError at a dense gate.
    """
    return _conjugate(xs, zs, signs, circuit.layers, _COLUMN_RULES, False)


def heisenberg_columns(xs: list[int], zs: list[int], signs: int, circuit: "LayeredCircuit") -> int:
    """U^dagger P U for every Pauli P held in the columns: the reversed, daggered steps.

    Same layout and contract as :func:`conjugate_columns`. On U|0^m>, the
    expectation of P is <0^m| U^dagger P U |0^m>, read off the image.
    """
    return _conjugate(xs, zs, signs, reversed(circuit.layers), _INVERSE_RULES, True)


@dataclass(frozen=True, slots=True)
class LayeredCircuit:
    """Layers of disjoint gates on m wires; code_qubits marks the data wires."""

    m: int
    layers: tuple[tuple[Gate, ...], ...]
    code_qubits: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one wire")
        for t, layer in enumerate(self.layers):
            used: set[int] = set()
            for gate in layer:
                for q in gate.qubits:
                    if not 0 <= q < self.m:
                        raise ValueError(f"layer {t}: wire {q} outside [0, {self.m})")
                    if q in used:
                        raise ValueError(f"layer {t}: wire {q} used twice")
                    used.add(q)
        if self.code_qubits is not None:
            if any(not 0 <= q < self.m for q in self.code_qubits):
                raise ValueError("code_qubits outside wire range")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def is_clifford(self) -> bool:
        """True when every gate runs on the stabilizer tableau (no dense payload)."""
        return all(g.is_clifford_representable for layer in self.layers for g in layer)

    @property
    def entangling_depth(self) -> int:
        """Layers containing at least one two-qubit gate."""
        return sum(1 for layer in self.layers if any(len(g.qubits) == 2 for g in layer))


def identity_circuit(m: int) -> LayeredCircuit:
    return LayeredCircuit(m=m, layers=())


def lightcone(circuit: LayeredCircuit, region) -> frozenset[int]:
    """Backward cone of the region through the layers (last layer first)."""
    cone = set(int(q) for q in region)
    for q in cone:
        if not 0 <= q < circuit.m:
            raise ValueError(f"region wire {q} outside [0, {circuit.m})")
    for layer in reversed(circuit.layers):
        grown = set(cone)
        for gate in layer:
            if cone.intersection(gate.qubits):
                grown.update(gate.qubits)
        cone = grown
    return frozenset(cone)


def reverse_circuit(circuit: LayeredCircuit) -> LayeredCircuit:
    """The adjoint circuit: reversed layers of daggered gates."""
    layers = tuple(tuple(dagger_gate(g) for g in layer) for layer in reversed(circuit.layers))
    return LayeredCircuit(m=circuit.m, layers=layers, code_qubits=circuit.code_qubits)


def compose(first: LayeredCircuit, then: LayeredCircuit) -> LayeredCircuit:
    """Circuit applying ``first`` and then ``then`` (wire counts must match)."""
    if first.m != then.m:
        raise ValueError("wire counts differ")
    code = first.code_qubits if first.code_qubits is not None else then.code_qubits
    return LayeredCircuit(m=first.m, layers=first.layers + then.layers, code_qubits=code)


def embed(circuit: LayeredCircuit, m_new: int) -> LayeredCircuit:
    """The same circuit on m_new wires; wire q stays wire q."""
    return LayeredCircuit(m=m_new, layers=circuit.layers, code_qubits=circuit.code_qubits)


_WORD_ALPHABET: tuple[WordStep, ...] = (
    ("H", (0,)),
    ("H", (1,)),
    ("S", (0,)),
    ("S", (1,)),
    ("CX", (0, 1)),
    ("CX", (1, 0)),
    ("CZ", (0, 1)),
)


@lru_cache(maxsize=1 << 12)
def _wire_pair(a: int, b: int) -> tuple[int, int]:
    """One tuple per ordered wire pair, shared by every drawn gate on it: kept circuits hold no copies."""
    return (a, b)


def draw_clifford_words(m: int, depth: int, seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of a depth-``depth`` Clifford-word circuit on m wires.

    Returns ``(perms, words)``: row ``perms[layer]`` is a permutation of the
    wires, paired (perm[2i], perm[2i + 1]) with the last wire idle when m is
    odd, and ``words[layer]`` holds twelve ``_WORD_ALPHABET`` indices per
    pair as uint8, drawn in one call per layer. Depth 0 draws nothing and
    creates no generator.
    """
    perms = np.empty((depth, m), dtype=np.intp)
    words = np.empty((depth, m // 2, 12), dtype=np.uint8)
    if depth:
        rng = np.random.default_rng(seed)
        for layer in range(depth):
            perms[layer] = rng.permutation(m)
            # drawn at the default dtype, then narrowed: a dtype argument changes the stream
            words[layer] = rng.integers(0, len(_WORD_ALPHABET), size=(m // 2, 12))
    return perms, words


def circuit_of_draws(m: int, draws: tuple[np.ndarray, np.ndarray]) -> LayeredCircuit:
    """The word circuit the draws describe; a permutation's pairs need no wire checks."""
    if m < 1:
        raise ValueError("need at least one wire")
    steps = _WORD_ALPHABET
    perms, words = draws
    layers = tuple(
        tuple(
            _trusted_gate(pair, word=tuple([steps[i] for i in row]))
            for pair, row in zip(map(_wire_pair, perm[0 : m - 1 : 2], perm[1::2]), rows)
        )
        for perm, rows in zip(perms.tolist(), words.tolist())
    )
    circuit = object.__new__(LayeredCircuit)
    object.__setattr__(circuit, "m", m)
    object.__setattr__(circuit, "layers", layers)
    object.__setattr__(circuit, "code_qubits", None)
    return circuit


# --- drawn words as tables ---
#
# A two-qubit word acts on each Pauli's four bits on its two wires a and b,
# the pattern x_a | x_b << 1 | z_a << 2 | z_b << 3 (local wire j at bit j,
# x bits then z bits, as in ``pauli_columns``), and may flip its sign. So in
# the Heisenberg picture a word is a table over the 32 entries
# pattern | sign << 4. A wire's own bits x | z << 2 form its code.


def _step_tables() -> np.ndarray:
    """Per ``_WORD_ALPHABET`` step, the 32-entry table of the daggered step.

    Each table runs the step's ``_INVERSE_RULES`` rule on two-wire columns
    whose bit v holds entry v, so the CHP rules stay in one place.
    """
    entries = range(32)
    cols = [sum(1 << v for v in entries if v >> j & 1) for j in range(5)]
    tables = []
    for name, locs in _WORD_ALPHABET:
        xs, zs = cols[0:2], cols[2:4]
        signs = _INVERSE_RULES[name](xs, zs, cols[4], locs[0], locs[-1])
        out = (*xs, *zs, signs)
        tables.append([sum((col >> v & 1) << j for j, col in enumerate(out)) for v in entries])
    return np.array(tables, dtype=np.uint8)


@lru_cache(maxsize=1)
def _chunk_tables() -> np.ndarray:
    """The table of every run of four alphabet steps, derived at first use.

    Row ``((a * 7 + b) * 7 + c) * 7 + d`` is the daggered run a, b, c, d
    read in reverse: d's table first, a's last. A 12-step word is three
    such chunks.
    """
    steps = _step_tables()
    chunks = np.arange(32, dtype=np.uint8)[None]
    for _ in range(4):  # chunk i extended by step s reads s's table first: row i * 7 + s
        chunks = chunks[:, steps].reshape(-1, 32)
    return chunks


_CHUNK_WEIGHTS = np.array([7**3, 7**2, 7, 1])


def heisenberg_draw_batch(codes: np.ndarray, perms: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U^dagger P U for every Pauli P in ``codes`` and each of a batch of drawn circuits U.

    ``codes`` is (m, N) uint8: entry (q, i) is Pauli i's code on wire q.
    ``perms`` (B, t, m) and ``words`` (B, t, m // 2, 12) stack B trials'
    :func:`draw_clifford_words`. Each word becomes one table through three
    chunk lookups; then per layer, last layer first, every trial's pattern
    of every Pauli on every slot is gathered, looked up in that slot's
    table and scattered back. Returns the images' codes (B, m, N) and their
    sign flips (B, N) as 0/1: the columns and signs that
    :func:`heisenberg_columns` leaves on each built circuit.
    """
    n_trials, depth, m = perms.shape
    half, n_paulis = m // 2, codes.shape[1]
    chunks = _chunk_tables()
    flat = chunks.reshape(-1)
    offsets = (np.arange(n_trials * half) * 16).reshape(n_trials, half, 1)
    starts = (np.arange(n_trials) * m)[:, None]
    images = np.repeat(codes[None], n_trials, axis=0)
    rows = images.reshape(n_trials * m, n_paulis)  # a view: row b * m + q is trial b's wire q
    flips = np.zeros((n_trials, n_paulis), dtype=np.uint8)
    for layer in reversed(range(depth)):
        # each slot's word on the 16 sign-free patterns: a Pauli enters a
        # slot with sign bit 0, and its flip is XORed in below
        index = words[:, layer].reshape(n_trials, half, 3, 4) @ _CHUNK_WEIGHTS
        tables = chunks[index[..., 2], :16]
        tables = flat[(index[..., 1, None] << 5) + tables]
        tables = flat[(index[..., 0, None] << 5) + tables]
        wires = perms[:, layer] + starts
        a, b = wires[:, 0 : 2 * half : 2], wires[:, 1 : 2 * half : 2]
        out = tables.reshape(-1)[offsets + (rows[a] | rows[b] << 1)]
        flips ^= np.bitwise_xor.reduce(out, axis=1)
        rows[a] = out & 5
        rows[b] = out >> 1 & 5
    return images, flips >> 4


def random_low_depth(m: int, depth: int, family: str = "clifford", seed: int | None = None) -> LayeredCircuit:
    """Random circuit: each layer a uniformly random maximal matching.

    family "clifford" fills slots with random 12-step words over
    ``_WORD_ALPHABET`` (a generating set of the two-qubit Clifford group;
    one gate per slot, tableau-simulable): the circuit of
    :func:`draw_clifford_words`. "haar" fills them with Haar-random dense
    two-qubit unitaries.
    """
    if family not in ("clifford", "haar"):
        raise ValueError(f"unknown family {family!r}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if family == "clifford":
        return circuit_of_draws(m, draw_clifford_words(m, depth, seed))
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        perm = rng.permutation(m).tolist()
        pairs = map(_wire_pair, perm[0 : m - 1 : 2], perm[1::2])
        layers.append(tuple(Gate(qubits=pair, matrix=unitary_group.rvs(4, random_state=rng)) for pair in pairs))
    return LayeredCircuit(m=m, layers=tuple(layers))


# --- file I/O ---


def circuit_to_dict(circuit: LayeredCircuit) -> dict:
    """File-schema payload: named gates and words stay symbolic, dense gates densify."""
    layers = []
    for layer in circuit.layers:
        entries = []
        for g in layer:
            if g.name is not None:
                gate_field: object = g.name
            elif g.word is not None:
                gate_field = {"word": [[name, list(locs)] for name, locs in g.word]}
            else:
                mat = gate_matrix(g)
                gate_field = {"dense": [[[float(v.real), float(v.imag)] for v in row] for row in mat]}
            entries.append({"gate": gate_field, "qubits": list(g.qubits)})
        layers.append(entries)
    return {
        "m": circuit.m,
        "code_qubits": list(circuit.code_qubits) if circuit.code_qubits is not None else list(range(circuit.m)),
        "layers": layers,
    }


def circuit_from_dict(payload: dict) -> LayeredCircuit:
    if not isinstance(payload, dict):
        raise ValueError("circuit file must hold a JSON object")
    for key in ("m", "layers"):
        if key not in payload:
            raise ValueError(f"circuit file missing {key!r}")
    m = json_int(payload["m"], "'m'")
    layers = []
    for t, layer in enumerate(payload["layers"]):
        gates = []
        for gi, entry in enumerate(layer):
            where = f"layer {t} gate {gi}"
            if not isinstance(entry, dict) or "gate" not in entry or "qubits" not in entry:
                raise ValueError(f"{where}: needs 'gate' and 'qubits'")
            qubits = tuple(json_int(q, f"{where}: wire") for q in entry["qubits"])
            field = entry["gate"]
            try:
                if isinstance(field, str):
                    gates.append(Gate(qubits=qubits, name=field))
                elif isinstance(field, dict) and "dense" in field:
                    mat = np.array(
                        [[complex(cell[0], cell[1]) for cell in row] for row in field["dense"]]
                    )
                    gates.append(Gate(qubits=qubits, matrix=mat))
                elif isinstance(field, dict) and "word" in field:
                    word = tuple(
                        (str(nm), tuple(json_int(p, "word position") for p in locs)) for nm, locs in field["word"]
                    )
                    gates.append(Gate(qubits=qubits, word=word))
                else:
                    raise ValueError("gate must be a name, a {'word': ...} or a {'dense': ...} payload")
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from err
        layers.append(tuple(gates))
    code_qubits = payload.get("code_qubits")
    if code_qubits is not None:
        code_qubits = tuple(json_int(q, "code_qubits entry") for q in code_qubits)
    return LayeredCircuit(m=m, layers=tuple(layers), code_qubits=code_qubits)


def load_circuit(path: str | Path) -> LayeredCircuit:
    return load_payload(path, circuit_from_dict)


def dump_circuit(circuit: LayeredCircuit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(circuit_to_dict(circuit), indent=2, sort_keys=True) + "\n")
