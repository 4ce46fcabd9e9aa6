"""Commuting-projector Hamiltonians from check groups, and two transformations.

The base object is H = sum_i (I - C_i)/2 over the generators of a stabilizer
group ("sum" normalization; "mean" divides by the term count N). Because the
checks commute, the sum-normalized spectrum is exactly the set of syndrome
Hamming weights |s|, each sector of dimension 2^(n - rank).

Two operator transformations are provided:

  * amplification: H^(p) = I - (I - H)^p for mean-normalized H. Expectations
    of H^(p) are available densely and, for stabilizer states, through the
    subset expansion of products of projectors g_i = (I + C_i)/2.
  * sparsification: (I - H)^p is a mean over N^p projector products; a
    sparsifier samples k of those tuples i.i.d. and takes their mean.

Energy gain of amplification on a depth-t state is checked against
    tr(H^(p) phi) >= min{1, p tr(H phi)}/2 - 2^t p^2 ell^2 / n.

A small non-stabilizer Hamiltonian (disjoint cat-state projectors) is also
built here; it serves as a search target elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gf2
from .paulis import PauliOperator, StabilizerGroup, dense_matrix, embed_pauli, identity, multiply, single
from .states import dense_qubit_limit, expectation, num_qubits, project


@dataclass(frozen=True)
class CodeHamiltonian:
    group: StabilizerGroup
    normalization: str = "sum"

    def __post_init__(self):
        if self.normalization not in ("sum", "mean"):
            raise ValueError(f"normalization must be sum or mean, got {self.normalization!r}")

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def n_terms(self) -> int:
        return len(self.group.generators)

    @property
    def locality(self) -> int:
        return self.group.locality


def build_code_hamiltonian(group: StabilizerGroup, normalization: str = "sum") -> CodeHamiltonian:
    return CodeHamiltonian(group=group, normalization=normalization)


@dataclass(frozen=True)
class EnergyReport:
    per_term: tuple[float, ...]
    total: float
    mean: float


def _embedded_checks(state, ham: CodeHamiltonian, code_qubits) -> list[PauliOperator]:
    m = num_qubits(state)
    if code_qubits is None:
        if m != ham.n:
            raise ValueError(
                f"state has {m} qubits but the code needs {ham.n}; pass code_qubits"
            )
        return list(ham.group.generators)
    code_qubits = tuple(code_qubits)
    if len(code_qubits) != ham.n:
        raise ValueError(f"code_qubits must list {ham.n} wires, got {len(code_qubits)}")
    return [embed_pauli(g, m, code_qubits) for g in ham.group.generators]


def energy_report(state, ham: CodeHamiltonian, code_qubits=None) -> EnergyReport:
    """Per-term energies eps_i = (1 - <C_i>)/2 plus their total and mean."""
    checks = _embedded_checks(state, ham, code_qubits)
    per_term = tuple(0.5 - 0.5 * expectation(state, c) for c in checks)
    total = float(sum(per_term))
    return EnergyReport(per_term=per_term, total=total, mean=total / len(per_term) if per_term else 0.0)


def energy_value(state, ham: CodeHamiltonian, code_qubits=None) -> float:
    """tr(H rho) in the Hamiltonian's own normalization."""
    report = energy_report(state, ham, code_qubits)
    return report.mean if ham.normalization == "mean" else report.total


def project_eigenspace(state, ham: CodeHamiltonian, syndrome) -> tuple[float, object]:
    """Project onto the joint eigenspace C_i = (-1)^(s_i): (probability, state).

    The state slot of the return is None when the probability is below 1e-14
    (inconsistent syndromes for dependent checks land here). Works on dense
    vectors and stabilizer mixtures.
    """
    syndrome = [int(b) & 1 for b in syndrome]
    if len(syndrome) != ham.n_terms:
        raise ValueError(f"syndrome length {len(syndrome)} != {ham.n_terms} checks")
    prob = 1.0
    current = state
    for bit, check in zip(syndrome, ham.group.generators):
        signed = PauliOperator(check.n, check.x, check.z, -check.sign if bit else check.sign)
        q, current = project(current, signed)
        prob *= q
        if current is None or prob < 1e-14:
            return 0.0, None
    return prob, current


def syndrome_image_basis(group: StabilizerGroup) -> np.ndarray:
    """Basis of attainable syndrome vectors (rank rows of length N)."""
    rows = []
    for q in range(group.n):
        for letter in ("X", "Z"):
            rows.append(group.syndrome_of(single(group.n, q, letter)))
    mat = np.array(rows, dtype=np.uint8)
    rref, pivots = gf2.row_echelon(mat)
    return rref[: len(pivots)]


def spectrum(ham: CodeHamiltonian, max_rank: int = 22) -> tuple[tuple[float, int], ...]:
    """Exact spectrum as (energy, multiplicity) pairs via syndrome weights."""
    basis = syndrome_image_basis(ham.group)
    r = basis.shape[0]
    if r > max_rank:
        raise ValueError(f"syndrome enumeration needs 2^{r} > 2^{max_rank} sectors")
    packed = [int("".join(str(int(b)) for b in row), 2) if row.size else 0 for row in basis]
    counts: dict[int, int] = {}
    # Gray-code walk over the image space
    current = 0
    counts[0] = 1
    for idx in range(1, 1 << r):
        current ^= packed[(idx & -idx).bit_length() - 1]
        w = current.bit_count()
        counts[w] = counts.get(w, 0) + 1
    sector_dim = 2 ** (ham.n - r)
    scale = 1.0 / ham.n_terms if ham.normalization == "mean" else 1.0
    return tuple(sorted((w * scale, c * sector_dim) for w, c in counts.items()))


def dense_hamiltonian(ham: CodeHamiltonian, max_qubits: int | None = None) -> np.ndarray:
    limit = dense_qubit_limit() if max_qubits is None else max_qubits
    if ham.n > limit:
        raise ValueError(f"dense limit exceeded: {ham.n} qubits > {limit}")
    dim = 2**ham.n
    out = np.zeros((dim, dim), dtype=complex)
    for g in ham.group.generators:
        out += (np.eye(dim) - dense_matrix(g)) / 2
    if ham.normalization == "mean":
        out /= ham.n_terms
    return out


# --- amplification ---


@dataclass(frozen=True)
class AmplifiedHamiltonian:
    """H^(p) = I - (I - H)^p; terms are p-tuples of projectors (I + C_i)/2."""

    base: CodeHamiltonian
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power must be >= 1")
        if self.base.normalization != "mean":
            raise ValueError("amplification is defined for mean normalization")

    @property
    def locality(self) -> int:
        return self.p * self.base.locality


def amplify(ham: CodeHamiltonian, p: int) -> AmplifiedHamiltonian:
    return AmplifiedHamiltonian(base=ham, p=p)


def _tuple_product_expectation(state, checks: list[PauliOperator], indices: tuple[int, ...]) -> float:
    """tr(rho g_{i1}..g_{ip}) by the 2^-p subset expansion of (I+C)/2 factors."""
    p = len(indices)
    total = 0.0
    for mask in range(1 << p):
        prod = identity(checks[0].n)
        for j in range(p):
            if (mask >> j) & 1:
                prod = multiply(prod, checks[indices[j]])
        total += expectation(state, prod)
    return total / (1 << p)


def amplified_energy(state, amp: AmplifiedHamiltonian, code_qubits=None) -> float:
    """tr(H^(p) rho) = 1 - mean over p-tuples of projector-product expectations.

    Stabilizer mixtures stay in the tableau representation throughout; dense
    states evaluate the same expansion with dense Pauli expectations.
    """
    checks = _embedded_checks(state, amp.base, code_qubits)
    n_terms = len(checks)
    total = 0.0
    for flat in range(n_terms**amp.p):
        indices = []
        rem = flat
        for _ in range(amp.p):
            indices.append(rem % n_terms)
            rem //= n_terms
        total += _tuple_product_expectation(state, checks, tuple(indices))
    return 1.0 - total / n_terms**amp.p


def dense_amplified(amp: AmplifiedHamiltonian, max_qubits: int | None = None) -> np.ndarray:
    h = dense_hamiltonian(amp.base, max_qubits)
    dim = h.shape[0]
    return np.eye(dim) - np.linalg.matrix_power(np.eye(dim) - h, amp.p)


@dataclass(frozen=True)
class GapAmplificationReport:
    lhs: float
    rhs: float
    base_energy: float
    p: int
    t: int
    holds: bool


def amplification_gap_check(state, ham: CodeHamiltonian, p: int, t: int, code_qubits=None) -> GapAmplificationReport:
    """Amplification guarantee for a depth-t state, both sides evaluated.

    lhs = tr(H^(p) phi); rhs = min{1, p tr(H phi)}/2 - 2^t p^2 ell^2 / n.
    """
    mean_ham = CodeHamiltonian(group=ham.group, normalization="mean")
    amp = amplify(mean_ham, p)
    lhs = amplified_energy(state, amp, code_qubits)
    base = energy_value(state, mean_ham, code_qubits)
    ell = ham.locality
    rhs = 0.5 * min(1.0, p * base) - (2.0**t) * p**2 * ell**2 / ham.n
    return GapAmplificationReport(lhs=lhs, rhs=rhs, base_energy=base, p=p, t=t, holds=lhs >= rhs - 1e-12)


# --- sparsification ---


@dataclass(frozen=True)
class SparsifiedHamiltonian:
    """G' = mean over sampled p-tuples of projector products; approximates (I-H)^p."""

    amplified: AmplifiedHamiltonian
    sampled_indices: tuple[tuple[int, ...], ...]
    seed: int | None

    @property
    def k_samples(self) -> int:
        return len(self.sampled_indices)


def sparsifier_sample_count(n: int, delta: float, ell: int) -> int:
    """Sample budget k = n * max(32/delta^2, log2(n)/ell)."""
    return math.ceil(n * max(32.0 / delta**2, math.log2(n) / ell))


def sparsify(amp: AmplifiedHamiltonian, k_samples: int, seed: int | None = None) -> SparsifiedHamiltonian:
    if k_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n_terms = amp.base.n_terms
    draws = rng.integers(0, n_terms, size=(k_samples, amp.p))
    indices = tuple(tuple(int(i) for i in row) for row in draws)
    return SparsifiedHamiltonian(amplified=amp, sampled_indices=indices, seed=seed)


def _dense_projector_product(ham: CodeHamiltonian, indices: tuple[int, ...]) -> np.ndarray:
    dim = 2**ham.n
    mats = [(np.eye(dim) + dense_matrix(ham.group.generators[i])) / 2 for i in indices]
    return reduce(lambda a, b: a @ b, mats)


def dense_sparsified_g(sparse: SparsifiedHamiltonian, max_qubits: int | None = None) -> np.ndarray:
    ham = sparse.amplified.base
    limit = dense_qubit_limit() if max_qubits is None else max_qubits
    if ham.n > limit:
        raise ValueError(f"dense limit exceeded: {ham.n} qubits > {limit}")
    dim = 2**ham.n
    out = np.zeros((dim, dim), dtype=complex)
    for indices in sparse.sampled_indices:
        out += _dense_projector_product(ham, indices)
    return out / sparse.k_samples


def dense_g(amp: AmplifiedHamiltonian, max_qubits: int | None = None) -> np.ndarray:
    """(I - H)^p, the operator the sparsifier approximates."""
    h = dense_hamiltonian(amp.base, max_qubits)
    return np.linalg.matrix_power(np.eye(h.shape[0]) - h, amp.p)


def spectral_deviation(a: np.ndarray, b: np.ndarray, method: str = "auto") -> float:
    """Operator norm of the Hermitian difference a - b."""
    diff = np.asarray(a) - np.asarray(b)
    if method not in ("auto", "eig", "power"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eig" or (method == "auto" and diff.shape[0] <= 2048):
        vals = np.linalg.eigvalsh(diff)
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    # power iteration on diff^2 (Hermitian, so |eig| pairs are handled)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(diff.shape[0]) + 1j * rng.standard_normal(diff.shape[0])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(10000):
        w = diff @ (diff @ v)
        norm = np.linalg.norm(w)
        if norm < 1e-18:
            return 0.0
        v = w / norm
        est = math.sqrt(norm)
        if abs(est - last) <= 1e-9 * max(1.0, est):
            return float(est)
        last = est
    return float(last)


# --- cat-state blocks ---


@dataclass(frozen=True)
class CatHamiltonian:
    """Disjoint blocks of size p, term b = I - |cat><cat| on block b."""

    n: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_terms(self) -> int:
        return len(self.blocks)


def cat_state_hamiltonian(n: int, block_size: int) -> CatHamiltonian:
    if block_size < 1 or n % block_size != 0:
        raise ValueError(f"block size {block_size} must divide {n}")
    blocks = tuple(
        tuple(range(b * block_size, (b + 1) * block_size)) for b in range(n // block_size)
    )
    return CatHamiltonian(n=n, block_size=block_size, blocks=blocks)


def _cat_block_group(cat: CatHamiltonian, block: tuple[int, ...]) -> list[PauliOperator]:
    """All 2^p elements of the cat state's stabilizer group, embedded."""
    p = cat.block_size
    gens = []
    x_all = PauliOperator(p, (1 << p) - 1, 0, 1)
    gens.append(x_all)
    for i in range(p - 1):
        gens.append(PauliOperator(p, 0, (1 << i) | (1 << (i + 1)), 1))
    members = [identity(p)]
    for g in gens:
        members += [multiply(m, g) for m in members]
    return [embed_pauli(m, cat.n, block) for m in members]


def cat_energy_report(state, cat: CatHamiltonian) -> EnergyReport:
    """Per-block 1 - <cat|rho_block|cat> via the stabilizer-group expansion."""
    per_term = []
    for block in cat.blocks:
        members = _cat_block_group(cat, block)
        overlap = sum(expectation(state, m) for m in members) / len(members)
        per_term.append(1.0 - overlap)
    total = float(sum(per_term))
    return EnergyReport(per_term=tuple(per_term), total=total, mean=total / len(per_term))
