"""Two state backends: dense arrays and stabilizer mixtures.

Dense states are plain numpy arrays (vectors of length 2^m, or density
matrices), with qubit 0 the most significant bit of the basis index, matching
the operator convention in :mod:`stablab.paulis`. Module functions apply
gates, circuits and Pauli operators, and compute entropies and fidelities.

A :class:`StabilizerMixture` is the uniform mixture over a coset family: r
independent commuting signed Pauli rows on m qubits define

    rho = product_i (I + g_i) / 2  /  2^(m - r),

which is pure exactly when r = m and has entropy m - r bits. Clifford
conjugation, measurement, dephasing and expectations stay in the symplectic
representation; a marginal folds r' generators onto the identity with
:func:`project_rows` instead of summing 2^r' group members. A Clifford
circuit acts on the rows in Stim's column layout: the rows are transposed
once into one x and one z column int per qubit plus a sign int
(``circuits.pauli_columns``), every gate rewrites only its own wires'
columns with the CHP rules (``circuits.conjugate_columns``), and the
columns are transposed back once. A row the circuit leaves unchanged, bits
and sign, keeps its object.

Every dense operator acts through one leading-axis kernel: ``apply_gate_vec``
and ``apply_pauli_vec`` act on the first axis of a ``(2^m, ...)`` array, so
a density matrix is rotated as (U (U rho)^dagger)^dagger by two passes of
the vector kernel, and a circuit unitary is the circuit applied to the
identity.

``num_qubits``, ``expectation``, ``project``, ``project_all``,
``apply_circuit``, ``extend``, ``dephase``, ``marginal``,
``density_matrix``, ``vector`` and ``entropy`` take either backend; they
are the one place that chooses between the two. Dense paths call
``require_dense`` first, so an input past the dense qubit limit raises one
error type, :class:`DenseLimitError`.
"""

from __future__ import annotations

import os

import numpy as np

from . import gf2
from .circuits import Gate, LayeredCircuit, conjugate_columns, gate_matrix, pauli_columns
from .paulis import (
    PauliOperator,
    check_region,
    combine,
    commutes,
    gather,
    multiply,
    outside_mask,
    symplectic_product,
)

DEFAULT_DENSE_LIMIT = 12


def dense_qubit_limit() -> int:
    """Qubit cap for dense materialization; STABLAB_DENSE_LIMIT overrides.

    Raises ValueError when the variable is set but not a positive integer.
    """
    raw = os.environ.get("STABLAB_DENSE_LIMIT")
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"STABLAB_DENSE_LIMIT must be a positive integer, got {raw!r}")
    return limit


class DenseLimitError(ValueError):
    """A dense path was asked for more qubits than :func:`dense_qubit_limit`."""


def require_dense(m: int) -> None:
    """Raise DenseLimitError unless m qubits fit under the dense limit."""
    limit = dense_qubit_limit()
    if m > limit:
        raise DenseLimitError(f"dense limit exceeded: {m} qubits > {limit}")


# --- dense vectors ---


def zero_vector(m: int) -> np.ndarray:
    psi = np.zeros(2**m, dtype=complex)
    psi[0] = 1.0
    return psi


def _num_qubits(psi: np.ndarray) -> int:
    m = int(psi.shape[0]).bit_length() - 1
    if 2**m != psi.shape[0]:
        raise ValueError(f"length {psi.shape[0]} is not a power of two")
    return m


def apply_gate_vec(psi: np.ndarray, gate: Gate) -> np.ndarray:
    """U psi; a 2-D array is acted on along its leading axis, U @ psi."""
    m = _num_qubits(psi)
    mat = gate_matrix(gate)
    k = len(gate.qubits)
    tensor = psi.reshape((2,) * m + psi.shape[1:])
    mat_t = mat.reshape((2,) * (2 * k))
    moved = np.tensordot(mat_t, tensor, axes=(tuple(range(k, 2 * k)), gate.qubits))
    return np.moveaxis(moved, tuple(range(k)), gate.qubits).reshape(psi.shape)


def apply_circuit_vec(psi: np.ndarray, circuit: LayeredCircuit) -> np.ndarray:
    """U psi along the leading axis; raises ValueError when the circuit's width is not the state's."""
    m = _num_qubits(psi)
    if circuit.m != m:
        raise ValueError(f"circuit acts on {circuit.m} wires, state has {m}")
    for layer in circuit.layers:
        for gate in layer:
            psi = apply_gate_vec(psi, gate)
    return psi


def _pauli_action(p: PauliOperator, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices c, flipped indices c ^ x and Z phases (-1)^|c & z| of P on m qubits.

    P|c> = sign i^y_count phase(c) |c ^ x>. Pauli bit q lives at index bit
    m-1-q (qubit 0 is most significant).
    """
    if p.n != m:
        raise ValueError(f"operator on {p.n} qubits against {m}-qubit state")
    index_order = range(m - 1, -1, -1)
    x_idx, z_idx = gather(p.x, index_order), gather(p.z, index_order)
    indices = np.arange(2**m, dtype=np.uint64)
    zphase = 1.0 - 2.0 * (np.bitwise_count(indices & np.uint64(z_idx)) & 1)
    return indices, indices ^ np.uint64(x_idx), zphase


def apply_pauli_vec(psi: np.ndarray, p: PauliOperator) -> np.ndarray:
    """P psi; a 2-D array is acted on along its leading axis, P @ psi."""
    _, flipped, zphase = _pauli_action(p, _num_qubits(psi))
    zphase = zphase.reshape((-1,) + (1,) * (psi.ndim - 1))
    out = np.empty(psi.shape, dtype=complex)
    out[flipped] = (p.sign * 1j**p.y_count) * zphase * psi
    return out


def project_rows(arr: np.ndarray, rows) -> np.ndarray:
    """(I + P)/2 for each row P in turn, applied to a vector or to a matrix from the left."""
    for p in rows:
        arr = (arr + apply_pauli_vec(arr, p)) / 2
    return arr


def pauli_expectation_vec(psi: np.ndarray, p: PauliOperator) -> float:
    value = np.vdot(psi, apply_pauli_vec(psi, p))
    return float(value.real)


def project_pauli_vec(psi: np.ndarray, p: PauliOperator) -> tuple[float, np.ndarray | None]:
    """Apply (I + P)/2; returns (outcome probability, normalized branch)."""
    branch = project_rows(psi, (p,))
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-14:
        return 0.0, None
    return prob, branch / np.sqrt(prob)


def rho_from_vector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def apply_circuit_rho(rho: np.ndarray, circuit: LayeredCircuit) -> np.ndarray:
    """U rho U^dagger as (U (U rho)^dagger)^dagger: two passes of the vector kernel."""
    return apply_circuit_vec(apply_circuit_vec(rho, circuit).conj().T, circuit).conj().T


def conjugate_pauli_rho(rho: np.ndarray, p: PauliOperator) -> np.ndarray:
    """P rho P (Hermitian P) as (P (P rho)^dagger)^dagger."""
    return apply_pauli_vec(apply_pauli_vec(rho, p).conj().T, p).conj().T


def pauli_expectation_rho(rho: np.ndarray, p: PauliOperator) -> float:
    indices, flipped, zphase = _pauli_action(p, _num_qubits(rho))
    # tr(P rho) = sum_c P[c^x, c] rho[c, c^x] with P[b, c] = phase(c) delta(b, c^x)
    value = (p.sign * 1j**p.y_count) * np.sum(zphase * rho[indices, flipped])
    return float(value.real)


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix on the kept qubits (distinct, in [0, m)), ascending."""
    m = _num_qubits(rho)
    keep = sorted(int(q) for q in check_region(m, keep))
    traced = [q for q in range(m) if q not in keep]
    tensor = rho.reshape((2,) * (2 * m))
    cur_m = m
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=cur_m + q)
        cur_m -= 1
    dim = 2 ** len(keep)
    return tensor.reshape(dim, dim)


def shannon_entropy(probs) -> float:
    """Entropy in bits of a probability list; entries at or below 1e-14 count as zero."""
    probs = np.asarray(probs, dtype=float)
    probs = probs[probs > 1e-14]
    return float(-(probs * np.log2(probs)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits, after checking the input is an actual state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("density matrix is not Hermitian")
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {trace!r} is not 1")
    vals = np.linalg.eigvalsh(rho)
    if float(vals.min()) < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {float(vals.min())!r}")
    return shannon_entropy(vals)


def _psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Zero the roundoff (+-1e-17) that a square root would turn into ~1e-9."""
    return np.where(vals > 1e-12 * max(float(vals.max()), 0.0), vals, 0.0)


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(_psd_eigenvalues(vals))) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), not squared."""
    root = _sqrtm_psd(rho)
    inner = root @ sigma @ root
    return float(np.sqrt(_psd_eigenvalues(np.linalg.eigvalsh(inner))).sum())


# --- stabilizer mixtures ---


class StabilizerMixture:
    """Uniform mixture defined by independent commuting signed Pauli rows.

    Instances are immutable: every operation returns a new mixture. The GF(2)
    reducer over the rows' bit vectors, which membership queries
    (``expectation``, ``project_pauli``) need, is therefore built at most once
    per instance: by ``__init__`` and ``with_rows``, which need it to check
    independence, or else lazily at the first query, so that mixtures made by ``apply_gate``
    and the other ``_trusted`` paths pay nothing for it until asked.
    """

    _reducer: gf2.Reducer | None = None

    def __init__(self, m: int, rows: tuple[PauliOperator, ...] = ()):
        self.m = m
        self.rows = tuple(rows)
        self._validate(0)

    def _validate(self, start: int) -> None:
        """Check rows[start:] against all rows, then independence of all rows."""
        rows, m = self.rows, self.m
        for i in range(start, len(rows)):
            row = rows[i]
            if row.n != m:
                raise ValueError(f"row {i} acts on {row.n} qubits, state has {m}")
            if row.x == 0 and row.z == 0:
                raise ValueError(f"row {i} is a scalar")
            for j in range(i):
                if not commutes(row, rows[j]):
                    raise ValueError(f"rows {j} and {i} anticommute")
        reducer = gf2.Reducer(row.vec for row in rows)
        if reducer.dependencies:
            raise ValueError("rows are dependent")
        self._reducer = reducer

    # r in the class docstring
    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def is_pure(self) -> bool:
        return self.rank == self.m

    @property
    def entropy(self) -> float:
        return float(self.m - self.rank)

    def _membership(self, p: PauliOperator) -> int | None:
        """+1 / -1 if +-p is a product of rows (exact sign), else None."""
        if p.n != self.m:
            raise ValueError(f"operator on {p.n} qubits against {self.m}-qubit state")
        if self._reducer is None:
            self._reducer = gf2.Reducer(row.vec for row in self.rows)
        combo = self._reducer.solve(p.vec)
        if combo is None:
            return None
        return combine(self.m, self.rows, combo).sign * p.sign

    def expectation(self, p: PauliOperator) -> float:
        """tr(P rho): +-1 when +-P is in the row group, else exactly 0."""
        if p.x == 0 and p.z == 0:
            return float(p.sign)
        # most queries anticommute with an early row: cheaper than a reduction
        for row in self.rows:
            if not commutes(p, row):
                return 0.0
        sign = self._membership(p)
        return 0.0 if sign is None else float(sign)

    # --- Clifford conjugation ---

    def apply_gate(self, gate: Gate) -> "StabilizerMixture":
        """U rho U^dagger for one gate: a one-gate :meth:`apply_circuit`."""
        return self.apply_circuit(LayeredCircuit(self.m, ((gate,),)))

    def apply_circuit(self, circuit: LayeredCircuit) -> "StabilizerMixture":
        """U rho U^dagger for a Clifford circuit U, the rows conjugated as columns.

        Returns this mixture for a circuit without gates. Raises ValueError
        when the circuit's width is not the state's, or at a dense gate.
        """
        if circuit.m != self.m:
            raise ValueError(f"circuit acts on {circuit.m} wires, state has {self.m}")
        if not any(circuit.layers):
            return self
        m, rows = self.m, self.rows
        xs, zs, signs = pauli_columns(rows, m)
        signs = conjugate_columns(xs, zs, signs, circuit)
        low = (1 << m) - 1
        out = []
        for i, (row, vec) in enumerate(zip(rows, gf2.transpose(xs + zs, len(rows)))):
            sign = -1 if signs >> i & 1 else 1
            if vec != row.vec or sign != row.sign:
                row = PauliOperator(m, vec & low, vec >> m, sign)
            out.append(row)
        return _trusted(m, tuple(out))

    # --- measurement ---

    def project_pauli(self, p: PauliOperator) -> tuple[float, "StabilizerMixture | None"]:
        """Measure the +1 outcome of P: probability and post-measurement state."""
        anti = next((j for j, row in enumerate(self.rows) if not commutes(row, p)), None)
        if anti is not None:
            pivot = self.rows[anti]
            new_rows = []
            for j, row in enumerate(self.rows):
                if j == anti:
                    new_rows.append(p)
                elif commutes(row, p):
                    new_rows.append(row)
                else:
                    new_rows.append(multiply(row, pivot))
            return 0.5, _trusted(self.m, tuple(new_rows))
        sign = self._membership(p)
        if sign is not None:
            return (1.0, self) if sign > 0 else (0.0, None)
        return 0.5, _trusted(self.m, self.rows + (p,))

    # --- composition and materialization ---

    def extend(self, extra: int) -> "StabilizerMixture":
        """Append `extra` fresh wires in |0>."""
        m_new = self.m + extra
        rows = [PauliOperator(m_new, r.x, r.z, r.sign) for r in self.rows]
        for q in range(self.m, m_new):
            rows.append(PauliOperator(m_new, 0, 1 << q, 1))
        return _trusted(m_new, tuple(rows))

    def with_rows(self, extra_rows) -> "StabilizerMixture":
        """Extra rows appended (rank must grow); only the new rows are re-checked."""
        out = _trusted(self.m, self.rows + tuple(extra_rows))
        out._validate(self.rank)
        return out

    def marginal(self, region) -> np.ndarray:
        """Dense reduced density matrix on the region (ascending order).

        The r generators g_i of the row products supported on R give
        prod_i (I + g_i)/2 / 2^(|R| - r), folded onto the identity on R.
        """
        region = tuple(sorted(int(q) for q in region))
        outside = outside_mask(self.m, region)
        require_dense(len(region))
        # row combinations whose product is the identity outside the region
        kernel = gf2.dependencies([row.vec & outside for row in self.rows])
        gens = (combine(self.m, self.rows, combo) for combo in kernel)
        local = [PauliOperator(len(region), gather(g.x, region), gather(g.z, region), g.sign) for g in gens]
        dim = 2 ** len(region)
        return project_rows(np.eye(dim, dtype=complex) / 2 ** (len(region) - len(local)), local)

    def dense_rho(self) -> np.ndarray:
        return self.marginal(range(self.m))

    def dense_vector(self) -> np.ndarray:
        """Materialize the pure state by projecting generic probe vectors (seed 0)."""
        if not self.is_pure:
            raise ValueError("mixture is not pure")
        require_dense(self.m)
        rng = np.random.default_rng(0)
        for _ in range(8):
            probe = rng.standard_normal(2**self.m) + 1j * rng.standard_normal(2**self.m)
            probe = project_rows(probe, self.rows)
            norm = float(np.linalg.norm(probe))
            if norm > 1e-9:
                psi = probe / norm
                # fix global phase: largest-magnitude amplitude made real positive
                pivot = int(np.argmax(np.abs(psi)))
                return psi * (abs(psi[pivot]) / psi[pivot])
        raise RuntimeError("probe vectors kept annihilating; state inconsistent")


def _trusted(m: int, rows: tuple[PauliOperator, ...]) -> StabilizerMixture:
    """Mixture from rows already known to be valid: no checks, no reducer."""
    out = StabilizerMixture.__new__(StabilizerMixture)
    out.m = m
    out.rows = rows
    return out


def zero_mixture(m: int) -> StabilizerMixture:
    """|0^m>: rows Z_0..Z_{m-1}, which commute and are independent by construction."""
    return _trusted(m, tuple(PauliOperator(m, 0, 1 << q, 1) for q in range(m)))


def group_mixture(group) -> StabilizerMixture:
    """Maximally mixed code state: independent generators become the rows."""
    return StabilizerMixture(group.n, group.independent_generators)


# --- one dispatch over both backends ---
#
# Each function takes a StabilizerMixture, a state vector or a density matrix
# and picks the backend with one isinstance check; mixtures go straight to
# their method, so the dispatch costs no more than the method call itself.


def _dense(state) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in (1, 2):
        raise TypeError("state must be a StabilizerMixture, vector, or density matrix")
    return arr


def num_qubits(state) -> int:
    if isinstance(state, StabilizerMixture):
        return state.m
    return _num_qubits(_dense(state))


def expectation(state, p: PauliOperator) -> float:
    """tr(P rho)."""
    if isinstance(state, StabilizerMixture):
        return state.expectation(p)
    arr = _dense(state)
    return pauli_expectation_vec(arr, p) if arr.ndim == 1 else pauli_expectation_rho(arr, p)


def project(state, p: PauliOperator) -> tuple[float, "StabilizerMixture | np.ndarray | None"]:
    """Outcome +1 of P on a mixture or a vector: (probability, normalized state or None)."""
    if isinstance(state, StabilizerMixture):
        return state.project_pauli(p)
    return project_pauli_vec(vector(state), p)


def project_all(state, ops) -> tuple[float, "StabilizerMixture | np.ndarray | None"]:
    """Outcome +1 of every P in ops, in turn: (joint probability, state or None).

    Stops with (0.0, None) as soon as the running probability drops below
    1e-14. For commuting ops the probability is tr(rho prod_P (I + P)/2),
    whatever their order.
    """
    prob = 1.0
    for p in ops:
        q, state = project(state, p)
        prob *= q
        if state is None or prob < 1e-14:
            return 0.0, None
    return prob, state


def apply_circuit(state, circuit: LayeredCircuit):
    """U rho U^dagger on either backend.

    A mixture stays a mixture under a Clifford circuit, on the tableau;
    under any other circuit it is materialized and rotated densely. A vector
    stays a vector and a density matrix a density matrix. Raises ValueError
    when the circuit's width is not the state's.
    """
    if isinstance(state, StabilizerMixture):
        if circuit.is_clifford:
            return state.apply_circuit(circuit)
        state = density_matrix(state)
    arr = _dense(state)
    return apply_circuit_vec(arr, circuit) if arr.ndim == 1 else apply_circuit_rho(arr, circuit)


def extend(state, extra: int):
    """The state with `extra` fresh wires in |0> appended after its own."""
    if isinstance(state, StabilizerMixture):
        return state.extend(extra)
    require_dense(num_qubits(state) + extra)
    return np.kron(vector(state), zero_vector(extra))


def marginal(state, region) -> np.ndarray:
    """Dense reduced density matrix on the region (distinct wires in [0, m), ascending)."""
    if isinstance(state, StabilizerMixture):
        return state.marginal(region)
    arr = _dense(state)
    if arr.ndim == 2:
        return partial_trace(arr, region)
    # pure state: with the region's wires first, psi is a 2^|R| x 2^(m-|R|) matrix M
    m = _num_qubits(arr)
    region = sorted(int(q) for q in check_region(m, region))
    amps = np.moveaxis(arr.reshape((2,) * m), region, range(len(region))).reshape(2 ** len(region), -1)
    return amps @ amps.conj().T


def density_matrix(state) -> np.ndarray:
    if isinstance(state, StabilizerMixture):
        return state.dense_rho()
    arr = _dense(state)
    return rho_from_vector(arr) if arr.ndim == 1 else arr


def vector(state) -> np.ndarray:
    """State vector of a pure state; a mixture is materialized."""
    if isinstance(state, StabilizerMixture):
        return state.dense_vector()
    arr = _dense(state)
    if arr.ndim != 1:
        raise ValueError("a state vector is required, got a density matrix")
    return arr


def entropy(state) -> float:
    """Von Neumann entropy in bits; exactly m - r for a mixture."""
    if isinstance(state, StabilizerMixture):
        return state.entropy
    return von_neumann_entropy(density_matrix(state))


def dephase(state, ops):
    """rho -> (rho + P rho P) / 2 for each Pauli P in ops, in turn.

    These channels commute, and together they average P rho P over every
    product of the ops (phases cancel, so the ops need not commute with each
    other). On a mixture 2^-m sum_g g over its signed row group, a member g
    survives (g + P g P) / 2 when it commutes with P and vanishes when it
    anticommutes: the image is the mixture of the row products that commute
    with every op. Dense input returns a density matrix, one conjugation per
    op. No ops return the state itself.
    """
    ops = tuple(ops)
    if isinstance(state, StabilizerMixture):
        rows = state.rows
        if not rows or not ops:
            return state
        # bit j of a row's mask: the row anticommutes with ops[j]
        masks = [sum(symplectic_product(r, p) << j for j, p in enumerate(ops)) for r in rows]
        survivors = [combine(state.m, rows, combo) for combo in gf2.dependencies(masks)]
        return _trusted(state.m, tuple(survivors))
    require_dense(num_qubits(state))
    rho = density_matrix(state)
    for p in ops:
        rho = (rho + conjugate_pauli_rho(rho, p)) / 2
    return rho
