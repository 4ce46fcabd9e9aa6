"""Commuting-projector Hamiltonians from check groups, and two transformations.

The base object is H = sum_i (I - C_i)/2 over the generators of a stabilizer
group ("sum" normalization; "mean" divides by the term count N). The checks
commute, so H and every polynomial in the check projectors g_i = (I + C_i)/2
are diagonal in the joint check eigenbasis: on the sector with syndrome s
(C_i = (-1)^(s_i)) the projector g_i is [s_i = 0] and H is |s|. The
sum-normalized spectrum is therefore the set of attainable syndrome weights,
each sector of dimension 2^(n - rank).

Two operator transformations are provided:

  * amplification: H^(p) = I - (I - H)^p for mean-normalized H. (I - H)^p is
    the mean over the N^p p-tuples of projector products, and a product of
    commuting projectors is the projector onto the joint +1 eigenspace of its
    distinct checks, so tr(H^(p) rho) needs one joint-outcome probability per
    distinct check set.
  * sparsification: a sparsifier samples k of those tuples i.i.d. and takes
    their mean G'. Its deviation from (I - H)^p is exact on the attainable
    syndromes: max_s |mean_j prod_{i in tuple_j} [s_i = 0] - (1 - |s|/N)^p|.

The dense builders (``dense_hamiltonian``, ``dense_g``,
``dense_sparsified_g``, ``spectral_deviation``) are capped at the dense qubit
limit; the benchmark's ``sparsify`` workload times them, and the tests use
them as oracles.

Energy gain of amplification on a depth-t state is checked against
    tr(H^(p) phi) >= min{1, p tr(H phi)}/2 - 2^t p^2 ell^2 / n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from . import gf2
from .paulis import PauliOperator, StabilizerGroup, dense_matrix, embed_pauli, qubit_columns
from .states import expectation, num_qubits, project_all, require_dense


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


@dataclass(frozen=True, slots=True)
class EnergyReport:
    per_term: tuple[float, ...]
    total: float
    mean: float

    @classmethod
    def from_terms(cls, per_term: tuple[float, ...]) -> "EnergyReport":
        """The report of per-term energies: their total and mean (0.0 without terms)."""
        total = float(sum(per_term))
        return cls(per_term=per_term, total=total, mean=total / len(per_term) if per_term else 0.0)


def _code_checks(state, ham: CodeHamiltonian, hint: str) -> tuple[PauliOperator, ...]:
    """The checks, for a state on the code's own wires; else ValueError ending in ``hint``."""
    m = num_qubits(state)
    if m != ham.n:
        raise ValueError(f"state has {m} qubits but the code needs {ham.n}{hint}")
    return ham.group.generators


def _embedded_checks(state, ham: CodeHamiltonian, code_qubits) -> tuple[PauliOperator, ...]:
    if code_qubits is None:
        return _code_checks(state, ham, "; pass code_qubits")
    m = num_qubits(state)
    code_qubits = tuple(code_qubits)
    if len(code_qubits) != ham.n:
        raise ValueError(f"code_qubits must list {ham.n} wires, got {len(code_qubits)}")
    return tuple(embed_pauli(g, m, code_qubits) for g in ham.group.generators)


def energy_report(state, ham: CodeHamiltonian, code_qubits=None) -> EnergyReport:
    """Per-term energies eps_i = (1 - <C_i>)/2 plus their total and mean.

    ``code_qubits`` lists the wires that carry the code's qubits, in order,
    when the state is wider than the code.
    """
    checks = _embedded_checks(state, ham, code_qubits)
    return EnergyReport.from_terms(tuple(0.5 - 0.5 * expectation(state, c) for c in checks))


def energy_value(state, ham: CodeHamiltonian) -> float:
    """tr(H rho) in the Hamiltonian's own normalization, for a state on the code's own wires."""
    _code_checks(state, ham, "")  # first, so that the error names no code_qubits
    report = energy_report(state, ham)
    return report.mean if ham.normalization == "mean" else report.total


# largest syndrome-space rank attainable_syndromes lists: 2^22 uint64 entries
MAX_SYNDROME_RANK = 22


def attainable_syndromes(group: StabilizerGroup) -> np.ndarray:
    """Every attainable syndrome once, as a uint64 array with bit i for check i.

    The attainable syndromes are the span of the single-qubit X and Z
    syndromes; the array is that span listed by XOR-doubling a basis of it,
    2^rank entries. Raises ValueError above 64 checks or past
    2^MAX_SYNDROME_RANK.
    """
    n_checks = len(group.generators)
    if n_checks > 64:
        raise ValueError(f"syndromes of {n_checks} checks do not fit in 64 bits")
    table = qubit_columns(group)
    reducer = gf2.Reducer(col & table.check_mask for q in range(group.n) for col in (table.x[q], table.z[q]))
    if reducer.rank > MAX_SYNDROME_RANK:
        raise ValueError(f"syndrome enumeration needs 2^{reducer.rank} > 2^{MAX_SYNDROME_RANK} sectors")
    syndromes = np.zeros(1, dtype=np.uint64)
    for _, row in reducer.rows:
        syndromes = np.concatenate([syndromes, syndromes ^ np.uint64(row)])
    return syndromes


def dense_hamiltonian(ham: CodeHamiltonian) -> np.ndarray:
    require_dense(ham.n)
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


MAX_AMPLIFIED_TUPLES = 2**22


def amplified_energy(state, amp: AmplifiedHamiltonian) -> float:
    """tr(H^(p) rho) = 1 - mean over p-tuples of tr(rho g_{i1} .. g_{ip}).

    The product of commuting projectors is the projector onto the joint +1
    eigenspace of the tuple's distinct checks, so each term is the
    probability that those checks all read +1; it is computed once per
    distinct check set. Takes a stabilizer mixture or a state vector (not a
    density matrix). Raises ValueError when the n_terms^p tuples would
    exceed MAX_AMPLIFIED_TUPLES, or p its bit length.
    """
    checks = _code_checks(state, amp.base, "")
    n_terms = len(checks)
    if amp.p > MAX_AMPLIFIED_TUPLES.bit_length() or n_terms**amp.p > MAX_AMPLIFIED_TUPLES:
        raise ValueError(f"{n_terms}^{amp.p} check tuples exceed the cap of {MAX_AMPLIFIED_TUPLES}")
    probs: dict[frozenset, float] = {}
    total = 0.0
    for indices in product(range(n_terms), repeat=amp.p):
        key = frozenset(indices)
        if key not in probs:
            probs[key] = project_all(state, (checks[i] for i in sorted(key)))[0]
        total += probs[key]
    return 1.0 - total / n_terms**amp.p


@dataclass(frozen=True, slots=True)
class GapAmplificationReport:
    lhs: float
    rhs: float
    base_energy: float
    p: int
    t: int
    holds: bool


# largest t with 2^t a finite float
MAX_GAP_DEPTH = 1023


def amplification_gap_check(state, ham: CodeHamiltonian, p: int, t: int) -> GapAmplificationReport:
    """Amplification guarantee for a depth-t state, both sides evaluated.

    lhs = tr(H^(p) phi); rhs = min{1, p tr(H phi)}/2 - 2^t p^2 ell^2 / n.
    Raises ValueError when the depth term is not a finite float.
    """
    try:
        penalty = (2.0**t) * p**2 * ham.locality**2 / ham.n
    except OverflowError:
        penalty = math.inf
    if not math.isfinite(penalty):
        raise ValueError(f"depth term 2^t p^2 ell^2 / n overflows a float at t = {t}, p = {p}")
    mean_ham = CodeHamiltonian(group=ham.group, normalization="mean")
    amp = amplify(mean_ham, p)
    lhs = amplified_energy(state, amp)
    base = energy_value(state, mean_ham)
    rhs = 0.5 * min(1.0, p * base) - penalty
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


MAX_SPARSIFIER_SAMPLES = 2**20


def sparsifier_sample_count(n: int, delta: float, ell: int) -> int:
    """Sample budget k = n * max(32/delta^2, log2(n)/ell).

    Raises ValueError when k is not finite (delta^2 underflows to 0).
    """
    try:
        count = n * max(32.0 / delta**2, math.log2(n) / ell)
    except ZeroDivisionError:
        count = math.inf
    except OverflowError:  # delta^2 past the float range: the 32/delta^2 term is 0
        count = n * (math.log2(n) / ell)
    if not math.isfinite(count):
        raise ValueError(f"sample count for delta {delta} is not finite")
    return math.ceil(count)


def sparsify(amp: AmplifiedHamiltonian, k_samples: int, seed: int | None = None) -> SparsifiedHamiltonian:
    """k_samples i.i.d. p-tuples of check indices; at most MAX_SPARSIFIER_SAMPLES.

    There are at most N^p distinct tuples, so the samples, in draw order,
    refer to one shared int tuple per distinct drawn row. Rows are grouped
    by their bytes, which no N^p can overflow.
    """
    if k_samples < 1:
        raise ValueError("need at least one sample")
    if k_samples > MAX_SPARSIFIER_SAMPLES:
        raise ValueError(f"{k_samples} samples exceed the cap of {MAX_SPARSIFIER_SAMPLES}")
    rng = np.random.default_rng(seed)
    n_terms = amp.base.n_terms
    draws = rng.integers(0, n_terms, size=(k_samples, amp.p))
    row_bytes = draws.view(np.dtype((np.void, draws.itemsize * amp.p))).reshape(-1)
    _, first, which = np.unique(row_bytes, return_index=True, return_inverse=True)
    shared = tuple(map(tuple, draws[first].tolist()))
    indices = tuple(map(shared.__getitem__, which.tolist()))
    return SparsifiedHamiltonian(amplified=amp, sampled_indices=indices, seed=seed)


def sparsifier_deviation(sparse: SparsifiedHamiltonian) -> float:
    """||G' - (I - H)^p||, exact on the attainable syndromes.

    Both operators are diagonal in the joint check eigenbasis, with value
    mean_j prod_{i in tuple_j} [s_i = 0] and (1 - |s|/N)^p on sector s, and
    every attainable sector is nonempty. Memory stays O(2^rank): one pass
    per distinct tuple mask, after one counting pass over the samples.
    """
    amp = sparse.amplified
    syndromes = attainable_syndromes(amp.base.group)
    masks: Counter[int] = Counter()
    for indices, count in Counter(sparse.sampled_indices).items():
        masks[sum(1 << i for i in set(indices))] += count
    hits = np.zeros(len(syndromes), dtype=np.int64)
    for mask, count in masks.items():
        hits += count * ((syndromes & np.uint64(mask)) == 0)
    target = (1.0 - np.bitwise_count(syndromes) / amp.base.n_terms) ** amp.p
    return float(np.max(np.abs(hits / sparse.k_samples - target)))


def _dense_projector_product(ham: CodeHamiltonian, indices: tuple[int, ...]) -> np.ndarray:
    dim = 2**ham.n
    mats = [(np.eye(dim) + dense_matrix(ham.group.generators[i])) / 2 for i in indices]
    return reduce(lambda a, b: a @ b, mats)


def dense_sparsified_g(sparse: SparsifiedHamiltonian) -> np.ndarray:
    ham = sparse.amplified.base
    require_dense(ham.n)
    dim = 2**ham.n
    out = np.zeros((dim, dim), dtype=complex)
    for indices in sparse.sampled_indices:
        out += _dense_projector_product(ham, indices)
    return out / sparse.k_samples


def dense_g(amp: AmplifiedHamiltonian) -> np.ndarray:
    """(I - H)^p, the operator the sparsifier approximates."""
    h = dense_hamiltonian(amp.base)
    return np.linalg.matrix_power(np.eye(h.shape[0]) - h, amp.p)


def spectral_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Operator norm of the Hermitian difference a - b, by a dense eigensolve."""
    vals = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return float(np.max(np.abs(vals))) if vals.size else 0.0
