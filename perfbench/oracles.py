"""Independent oracles the benchmark checks stablab's outputs against.

Nothing here calls stablab. Pauli operators are letter strings with a sign;
qubit 0 is the leftmost kron factor and the most significant bit of a basis
index, the convention stablab documents. Everything is written to be
obviously right rather than fast: literal kron chains, a plain state-vector
simulator, brute-force enumeration of syndromes.

Parity arithmetic is done in floats on purpose: ``1 - 2 * parity`` on the
uint8 array that ``np.bitwise_count`` returns wraps around to 255.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) u, the first wire being the control."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


# the gate table stablab's Clifford circuits draw from; the first listed
# wire is the most significant bit of the matrix index
GATES = {
    "H": _H,
    "S": _S,
    "SDG": _S.conj().T,
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "CX": _controlled(PAULI["X"]),
    "CY": _controlled(PAULI["Y"]),
    "CZ": _controlled(PAULI["Z"]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}

SV_QUBIT_LIMIT = 18


def letters_of(n: int, x: int, z: int) -> str:
    """Letter string of a Pauli given as x/z bit masks (bit q is qubit q)."""
    table = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return "".join(table[((x >> q) & 1, (z >> q) & 1)] for q in range(n))


def pauli_matrix(letters: str, sign: int = 1) -> np.ndarray:
    """Dense matrix by a literal kron chain."""
    mat = np.array([[sign]], dtype=complex)
    for ch in letters:
        mat = np.kron(mat, PAULI[ch])
    return mat


def apply_pauli(psi: np.ndarray, letters: str, sign: int = 1) -> np.ndarray:
    """P|psi> without the dense matrix: P|b> = sign i^y (-1)^(b.z) |b ^ x>."""
    n = len(letters)
    x_idx = z_idx = 0
    n_y = 0
    for q, ch in enumerate(letters):
        bit = 1 << (n - 1 - q)
        if ch in "XY":
            x_idx |= bit
        if ch in "ZY":
            z_idx |= bit
        n_y += ch == "Y"
    idx = np.arange(psi.shape[0], dtype=np.uint64)
    parity = (np.bitwise_count(idx & np.uint64(z_idx)) & 1).astype(float)
    out = np.empty_like(psi)
    out[idx ^ np.uint64(x_idx)] = (sign * 1j**n_y) * (1.0 - 2.0 * parity) * psi
    return out


def expectation(psi: np.ndarray, letters: str, sign: int = 1) -> float:
    return float(np.vdot(psi, apply_pauli(psi, letters, sign)).real)


def anticommute(a: str, b: str) -> int:
    """1 when the letter strings anticommute (odd count of differing non-I pairs)."""
    return sum(1 for p, q in zip(a, b) if p != "I" and q != "I" and p != q) & 1


# --- state-vector simulation ---


def apply_matrix(psi: np.ndarray, n: int, mat: np.ndarray, wires) -> np.ndarray:
    wires = tuple(wires)
    k = len(wires)
    tensor = np.tensordot(
        mat.reshape((2,) * (2 * k)), psi.reshape((2,) * n), axes=(tuple(range(k, 2 * k)), wires)
    )
    return np.moveaxis(tensor, tuple(range(k)), wires).reshape(-1)


def slot_matrix(arity: int, steps) -> np.ndarray:
    """Product of word steps on a one- or two-wire slot, first step applied first."""
    total = np.eye(2**arity, dtype=complex)
    swap = GATES["SWAP"]
    for name, locs in steps:
        mat = GATES[name]
        if arity == 2 and len(locs) == 1:
            mat = np.kron(mat, I2) if locs[0] == 0 else np.kron(I2, mat)
        elif arity == 2 and tuple(locs) == (1, 0):
            mat = swap @ mat @ swap
        total = mat @ total
    return total


def simulate(n: int, layers) -> np.ndarray:
    """|psi> = C |0^n> for layers of gates given as (wires, name, word)."""
    if n > SV_QUBIT_LIMIT:
        raise ValueError(f"state-vector oracle capped at {SV_QUBIT_LIMIT} qubits")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for layer in layers:
        for wires, name, word in layer:
            steps = ((name, tuple(range(len(wires)))),) if name is not None else word
            psi = apply_matrix(psi, n, slot_matrix(len(wires), steps), wires)
    return psi


def energy_total(psi: np.ndarray, checks) -> float:
    """sum_i (1 - <C_i>) / 2 over (letters, sign) checks."""
    return float(sum(0.5 - 0.5 * expectation(psi, letters, sign) for letters, sign in checks))


# --- reduced states ---


def random_code_vector(checks, n: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized projection of a Gaussian vector onto the +1 space of every check."""
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    for letters, sign in checks:
        psi = (psi + apply_pauli(psi, letters, sign)) / 2.0
    return psi / np.linalg.norm(psi)


def reduced_state(psi: np.ndarray, n: int, region) -> np.ndarray:
    """Partial trace of |psi><psi| onto the region, qubits in ascending order."""
    region = sorted(region)
    rest = [q for q in range(n) if q not in region]
    amps = np.transpose(psi.reshape((2,) * n), region + rest).reshape(2 ** len(region), -1)
    return amps @ amps.conj().T


# --- syndrome-diagonal operators ---


def attainable_syndromes(checks, n: int) -> np.ndarray:
    """Every syndrome some n-qubit Pauli produces, by enumerating all 4^n of them."""
    if n > 8:
        raise ValueError("syndrome enumeration capped at 8 qubits")
    seen = set()
    for letters in itertools.product("IXYZ", repeat=n):
        word = "".join(letters)
        seen.add(tuple(anticommute(word, c) for c, _ in checks))
    return np.array(sorted(seen), dtype=float)


def sparsifier_deviation(syndromes: np.ndarray, tuples, p: int) -> float:
    """max_s |mean_j prod_{i in tuple_j} (1 - s_i) - (1 - |s|/N)^p|."""
    idx = np.asarray(tuples, dtype=np.int64).reshape(-1, p)
    keep = 1.0 - syndromes  # (S, N): the projector (I + C_i)/2 on sector s
    sampled = keep[:, idx].prod(axis=2).mean(axis=1)
    exact = (1.0 - syndromes.sum(axis=1) / syndromes.shape[1]) ** p
    return float(np.abs(sampled - exact).max())


def sample_count(n: int, delta: float, ell: int) -> int:
    return math.ceil(n * max(32.0 / delta**2, math.log2(n) / ell))


def locality(checks, n: int) -> int:
    """max(check weight, qubit degree)."""
    weights = [sum(ch != "I" for ch in letters) for letters, _ in checks]
    degree = [sum(letters[q] != "I" for letters, _ in checks) for q in range(n)]
    return max(max(weights), max(degree))


# --- amplification ---


def mixture_rho(rows, n: int) -> np.ndarray:
    """prod_i (I + g_i)/2 / 2^(n - r) for r independent commuting rows."""
    dim = 2**n
    rho = np.eye(dim, dtype=complex)
    for letters, sign in rows:
        rho = rho @ (np.eye(dim) + pauli_matrix(letters, sign)) / 2.0
    return rho / 2 ** (n - len(rows))


def amplified_energies(rho: np.ndarray, checks, p: int) -> tuple[float, float]:
    """(tr(H^(p) rho), tr(H rho)) for mean-normalized H, H^(p) = I - (I - H)^p."""
    dim = rho.shape[0]
    h = sum((np.eye(dim) - pauli_matrix(letters, sign)) / 2.0 for letters, sign in checks) / len(checks)
    amp = np.eye(dim) - np.linalg.matrix_power(np.eye(dim) - h, p)
    return float(np.trace(amp @ rho).real), float(np.trace(h @ rho).real)


def amplification_rhs(base: float, p: int, t: int, ell: int, n: int) -> float:
    return 0.5 * min(1.0, p * base) - (2.0**t) * p**2 * ell**2 / n
