"""Independent brute-force oracles used by the test suite.

Everything here is written to be obviously correct rather than fast, and
deliberately avoids the package's own kernels: GF(2) elimination works
on Python int lists, Pauli matrices are built by literal np.kron chains,
and circuits are simulated by materializing full unitaries. Tests
compare the package's optimized paths against these. Several oracles are
earlier versions of a package path and reuse its kernels: each named
gate's Pauli image table derived from its matrix, with the per-step
tableau loop that looks rows up in it (oracles for the column engine's
CHP rules), the per-gate word draws of random Clifford circuits (oracle
for one draw per layer), the per-layer list draws read one slot at a time
with the CHP rules written out, and the random-clifford search that read
its trials that way one by one (oracles for the table pass over a block
of trials), the marginal of a vector via its full density
matrix (oracle for the pure-state partial trace), the distance searches
that walked the candidates once per search and once per logical pair
(oracle for the one shared walk), the coset walk one Python int per
element (oracle for the block walk), the cleaning-lemma rank test on the
group's vectors masked to the region (oracle for the test on the code's
single-qubit columns), the coordinate-descent search that rebuilt and
read its whole circuit per evaluation (oracle for the kept brick image
and per-qubit prep images), the product search bounded by settled
energy alone (oracle for the conflict-matching bound and the derived
tables), the sparsifier draw with a fresh tuple per sample and its
deviation counted per sample (oracles for the shared tuples and the count
per distinct tuple), the entropy audit
taken one syndrome branch at a time (oracle for the one-state
construction of Theta), which reuses the package's decoherence, mixture
channel and rotation, branch by branch, and the dense invariance checks
on the logical-basis family, at the end of this file (oracle for the
cleaning-lemma rank test), which reuse the package's marginals and
channel.

A few helpers that several test modules share sit here too: seeded random
Paulis, single-qubit Paulis, the distance walk's candidate order, the
hypothesis strategy for signed commuting groups, computational
basis vectors, the trace distance, and the projection onto a syndrome
sector (through the package's ``project_all``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache

import numpy as np
from hypothesis import strategies as st

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: str, sign: int = 1) -> np.ndarray:
    """Dense matrix of a Pauli string, qubit 0 leftmost in the kron chain."""
    mat = np.array([[sign]], dtype=complex)
    for ch in letters:
        mat = np.kron(mat, PAULI_MATS[ch])
    return mat


def pauli_letters(x: int, z: int, n: int) -> str:
    """Letter string of the Hermitian Pauli with x / z bit q on qubit q."""
    return "".join("IXZY"[((x >> q) & 1) | ((z >> q) & 1) << 1] for q in range(n))


def single(n: int, q: int, letter: str, sign: int = 1):
    """sign * letter on qubit q of n."""
    from stablab.paulis import PauliOperator

    return PauliOperator(n, int(letter in "XY") << q, int(letter in "YZ") << q, sign)


def weight_ascending_candidates(n: int, cap: int):
    """(x, z, w) of all Paulis with 1 <= weight <= cap, weight-ascending.

    The order the package's distance walk keeps: weight, then support
    combination (lexicographic), then letters (X < Y < Z at each position).
    """
    for w in range(1, cap + 1):
        for supp in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                x = z = 0
                for q, ch in zip(supp, letters):
                    x |= int(ch in "XY") << q
                    z |= int(ch in "YZ") << q
                yield x, z, w


def gf2_rank_naive(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on plain int lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % 2:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 2:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gf2_solve_naive(mat: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One solution of mat @ x = rhs over GF(2), or None."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [list(row) + [rhs[i] % 2] for i, row in enumerate(mat)]
    pivots = []
    rank = 0
    for col in range(n + 1):
        pivot = None
        for i in range(rank, m):
            if aug[i][col] % 2:
                pivot = i
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for i in range(m):
            if i != rank and aug[i][col] % 2:
                aug[i] = [(a + b) % 2 for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if n in pivots:
        return None
    x = [0] * n
    for row_idx, col in enumerate(pivots):
        x[col] = aug[row_idx][n]
    return x


def _random_bits(n: int, rng: np.random.Generator) -> int:
    """A uniform n-bit int: one int64 draw up to 62 bits, bytes past that."""
    if n <= 62:
        return int(rng.integers(0, 1 << n))
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def random_pauli(n: int, rng: np.random.Generator, allow_sign: bool = True):
    """Uniform x and z bits on n qubits; a uniform sign unless allow_sign is off."""
    from stablab.paulis import PauliOperator

    x, z = _random_bits(n, rng), _random_bits(n, rng)
    sign = int(rng.choice((1, -1))) if allow_sign else 1
    return PauliOperator(n, x, z, sign)


def basis_vector(m: int, bits) -> np.ndarray:
    """|bits> on m qubits: an int index, or a bit list with qubit 0 most significant."""
    if isinstance(bits, int):
        index = bits
    else:
        index = 0
        for q, b in enumerate(bits):
            if b:
                index |= 1 << (m - 1 - q)
    psi = np.zeros(2**m, dtype=complex)
    psi[index] = 1.0
    return psi


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, from its eigenvalues."""
    vals = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(vals).sum())


def project_eigenspace(state, ham, syndrome) -> tuple[float, object]:
    """Project onto the joint eigenspace C_i = (-1)^(s_i): (probability, state).

    The state slot of the return is None when the probability is below 1e-14
    (inconsistent syndromes for dependent checks land here). Works on dense
    vectors and stabilizer mixtures.
    """
    from stablab.paulis import PauliOperator
    from stablab.states import project_all

    syndrome = [int(b) & 1 for b in syndrome]
    if len(syndrome) != ham.n_terms:
        raise ValueError(f"syndrome length {len(syndrome)} != {ham.n_terms} checks")
    signed = (
        PauliOperator(c.n, c.x, c.z, -c.sign if bit else c.sign)
        for bit, c in zip(syndrome, ham.group.generators)
    )
    return project_all(state, signed)


def projector_from_strings(checks: list[str], signs: list[int] | None = None) -> np.ndarray:
    """Dense code-space projector prod_i (I + s_i C_i) / 2."""
    n = len(checks[0])
    proj = np.eye(2**n, dtype=complex)
    signs = signs or [1] * len(checks)
    for s, c in zip(signs, checks):
        proj = proj @ (np.eye(2**n) + s * pauli_matrix(c)) / 2
    return proj


@st.composite
def signed_commuting_groups(draw, max_n=6, max_checks=8):
    """Signed Paulis on up to max_n qubits, each kept if the group stays valid."""
    from stablab.paulis import PauliOperator, StabilizerGroup

    n = draw(st.integers(1, max_n))
    kept: list[PauliOperator] = []
    for _ in range(draw(st.integers(1, max_checks))):
        cand = PauliOperator(
            n,
            draw(st.integers(0, 2**n - 1)),
            draw(st.integers(0, 2**n - 1)),
            draw(st.sampled_from((1, -1))),
        )
        try:
            StabilizerGroup(kept + [cand])
        except ValueError:
            continue
        kept.append(cand)
    return StabilizerGroup(kept, n=n)


def coherent_extension_by_sectors(phi: np.ndarray, group) -> np.ndarray:
    """sum_s (D_s phi) (x) |s>, each sector projector D_s a product of kron chains."""
    checks = group.generators
    letters = [g.letters() for g in checks]
    out = np.zeros(len(phi) * 2 ** len(checks), dtype=complex)
    for s in itertools.product((0, 1), repeat=len(checks)):
        d_s = projector_from_strings(letters, [(-1) ** b * g.sign for b, g in zip(s, checks)])
        out += np.kron(d_s @ phi, basis_vector(len(checks), list(s)))
    return out


@cache
def pauli_image_table(name: str) -> tuple[tuple[int, int], ...]:
    """Conjugation table of a named Clifford: entry v is (image, sign).

    v = x | z << k encodes a Hermitian Pauli on the gate's k local qubits
    (local qubit j is bit j; qubits[0] is the most significant kron factor,
    as in ``circuits.gate_matrix``), and U P_v U^dagger = sign * P_image.
    Built from the gate's matrix at first use; raises ValueError if some
    image is not a single signed Pauli.
    """
    from stablab.circuits import NAMED_GATES
    from stablab.paulis import PauliOperator, dense_matrix

    mat = NAMED_GATES[name]
    k = mat.shape[0].bit_length() - 1
    basis = [dense_matrix(PauliOperator(k, v & ((1 << k) - 1), v >> k)) for v in range(4**k)]
    table = []
    for p in basis:
        image = mat @ p @ mat.conj().T
        coeffs = [np.trace(q @ image).real / 2**k for q in basis]
        w = int(np.argmax(np.abs(coeffs)))
        sign = 1 if coeffs[w] > 0 else -1
        if not np.allclose(image, sign * basis[w], atol=1e-9):
            raise ValueError(f"{name} maps a Pauli to no single signed Pauli")
        table.append((w, sign))
    return tuple(table)


def pauli_image_table_kron(mat: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Conjugation table of a k-qubit Clifford matrix: entry v is (image, sign).

    v = x | z << k with local qubit j at bit j and leftmost in the kron
    chain; the image is found by comparing U P_v U^dagger with every signed
    basis Pauli.
    """
    k = mat.shape[0].bit_length() - 1
    basis = [pauli_matrix(pauli_letters(v & ((1 << k) - 1), v >> k, k)) for v in range(4**k)]
    table = []
    for p in basis:
        image = mat @ p @ mat.conj().T
        hits = [(w, s) for w, q in enumerate(basis) for s in (1, -1) if np.allclose(image, s * q, atol=1e-9)]
        assert len(hits) == 1
        table.append(hits[0])
    return tuple(table)


def mixture_rho(rows: list[tuple[str, int]], n: int) -> np.ndarray:
    """Density matrix prod_i (I + s_i C_i) / 2 / 2^(n - r) of r independent
    commuting signed rows, given as (letters, sign) pairs."""
    dim = 2**n
    if not rows:
        return np.eye(dim, dtype=complex) / dim
    proj = projector_from_strings([c for c, _ in rows], [s for _, s in rows])
    return proj / 2 ** (n - len(rows))


def apply_gate_matrix(state: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], m: int) -> np.ndarray:
    """Apply a k-qubit gate by materializing the full 2^m unitary. Slow, exact."""
    full = expand_gate(gate, qubits, m)
    return full @ state


def expand_gate(gate: np.ndarray, qubits: tuple[int, ...], m: int) -> np.ndarray:
    """Embed a k-qubit gate acting on the given wires into the full space.

    Builds the 2^m x 2^m matrix entry-by-entry from bitstrings; qubit 0 is
    the most significant bit of the basis index.
    """
    k = len(qubits)
    dim = 2**m
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(m) if q not in qubits]
    for col in range(dim):
        bits = [(col >> (m - 1 - q)) & 1 for q in range(m)]
        gcol = 0
        for q in qubits:
            gcol = (gcol << 1) | bits[q]
        for grow in range(2**k):
            amp = gate[grow, gcol]
            if amp == 0:
                continue
            new_bits = list(bits)
            for pos, q in enumerate(qubits):
                new_bits[q] = (grow >> (k - 1 - pos)) & 1
            row = 0
            for q in range(m):
                row = (row << 1) | new_bits[q]
            full[row, col] += amp
    return full


def circuit_unitary_naive(circuit, gate_matrix_fn) -> np.ndarray:
    """Full 2^m unitary of a layered circuit via entrywise gate embedding.

    Takes the per-gate matrix function as an argument so only the wire
    plumbing is under test here; gate matrices are checked elsewhere.
    """
    dim = 2**circuit.m
    total = np.eye(dim, dtype=complex)
    for layer in circuit.layers:
        for gate in layer:
            total = expand_gate(gate_matrix_fn(gate), gate.qubits, circuit.m) @ total
    return total


def partial_trace_naive(rho: np.ndarray, keep, m: int) -> np.ndarray:
    """Reduced density matrix by explicit bitstring loops (qubit 0 = MSB)."""
    keep = sorted(keep)
    traced = [q for q in range(m) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)

    def full_index(keep_bits: int, env_bits: int) -> int:
        idx = 0
        for q in range(m):
            if q in keep:
                bit = (keep_bits >> (len(keep) - 1 - keep.index(q))) & 1
            else:
                bit = (env_bits >> (len(traced) - 1 - traced.index(q))) & 1
            idx = (idx << 1) | bit
        return idx

    for a in range(dim_keep):
        for b in range(dim_keep):
            for e in range(2 ** len(traced)):
                out[a, b] += rho[full_index(a, e), full_index(b, e)]
    return out


def von_neumann_entropy_naive(rho: np.ndarray) -> float:
    """Entropy in bits via eigenvalues, clamping numerical dust."""
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-12]
    return float(-(vals * np.log2(vals)).sum())


# Clifford conjugation by the hand-derived CHP rules (Aaronson-Gottesman,
# quant-ph/0406196) in the Hermitian sign convention: a row is (x, z, sign)
# with bit q of x / z the X / Z part on qubit q, both bits meaning Y. CZ, CY
# and SWAP are rewritten into the primitives H, S, SDG and CX.
CHP_DECOMPOSITIONS = {
    "CZ": (("H", (1,)), ("CX", (0, 1)), ("H", (1,))),
    "CY": (("SDG", (1,)), ("CX", (0, 1)), ("S", (1,))),
    "SWAP": (("CX", (0, 1)), ("CX", (1, 0)), ("CX", (0, 1))),
}


def chp_conjugate(x: int, z: int, sign: int, name: str, wires: tuple[int, ...]) -> tuple[int, int, int]:
    """U (sign * Pauli(x, z)) U^dagger for a named gate on the given wires."""
    if name in CHP_DECOMPOSITIONS:
        for sub_name, locs in CHP_DECOMPOSITIONS[name]:
            x, z, sign = chp_conjugate(x, z, sign, sub_name, tuple(wires[p] for p in locs))
        return x, z, sign
    if name == "CX":
        a, b = wires
        xa, za = (x >> a) & 1, (z >> a) & 1
        xb, zb = (x >> b) & 1, (z >> b) & 1
        if xa and zb and (xb ^ za ^ 1):
            sign = -sign
        return x ^ (xa << b), z ^ (zb << a), sign
    (q,) = wires
    xb, zb = (x >> q) & 1, (z >> q) & 1
    flips = {
        "H": xb and zb,
        "S": xb and zb,
        "SDG": xb and not zb,
        "X": zb,
        "Y": xb ^ zb,
        "Z": xb,
    }
    if flips[name]:
        sign = -sign
    if name == "H":
        x = (x & ~(1 << q)) | (zb << q)
        z = (z & ~(1 << q)) | (xb << q)
    elif name in ("S", "SDG"):
        z ^= xb << q
    return x, z, sign


def conjugated_rows_per_step(rows, m: int, gate) -> tuple:
    """U row U^dagger for each row, one named step of the gate at a time.

    The row-by-row tableau loop: each step gathers a row's local Pauli on
    the step's wires, looks it up in the step's :func:`pauli_image_table`
    and scatters the image back. Rows the gate leaves unchanged are
    returned as the same objects.
    """
    from stablab.paulis import PauliOperator, gather, scatter

    if gate.name is not None:
        steps = ((gate.name, gate.qubits),)
    else:
        steps = tuple((name, tuple(gate.qubits[p] for p in locs)) for name, locs in gate.word)
    vecs = [row.vec for row in rows]
    signs = [row.sign for row in rows]
    for name, wires in steps:
        table = pauli_image_table(name)
        bits = wires + tuple(m + w for w in wires)
        clear = ~scatter((1 << len(bits)) - 1, bits)
        for i, vec in enumerate(vecs):
            local = gather(vec, bits)
            if local:
                image, sign = table[local]
                vecs[i] = vec & clear | scatter(image, bits)
                signs[i] *= sign
    low = (1 << m) - 1
    return tuple(
        row if vec == row.vec and sign == row.sign else PauliOperator(m, vec & low, vec >> m, sign)
        for row, vec, sign in zip(rows, vecs, signs)
    )


def random_clifford_circuit_per_gate(m: int, depth: int, seed: int):
    """Seeded random Clifford-word circuit, its words drawn one gate at a time.

    The draw loop ``random_low_depth`` ran before it drew a layer's words in
    one call: per layer a permutation of the wires, then for each pair
    (perm[2i], perm[2i + 1]) twelve alphabet indices, every gate built
    through the validating ``Gate`` constructor.
    """
    from stablab.circuits import _WORD_ALPHABET, Gate, LayeredCircuit

    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        perm = rng.permutation(m)
        gates = []
        for i in range(0, m - 1, 2):
            picks = rng.integers(0, len(_WORD_ALPHABET), size=12)
            word = tuple(_WORD_ALPHABET[int(j)] for j in picks)
            gates.append(Gate(qubits=(int(perm[i]), int(perm[i + 1])), word=word))
        layers.append(tuple(gates))
    return LayeredCircuit(m=m, layers=tuple(layers))


def random_clifford_search_per_trial(group, t_max: int, budget: int, seed: int) -> list:
    """(t, trial seed, report, circuit) per depth: the random-clifford search that builds every trial.

    The loop ``frontier_search`` ran before it scored trials from their
    draws: each trial's circuit from ``random_low_depth`` at the trial seed
    (seed, t, trial), read by ``_energy_of_circuit``, the best kept by
    (total, trial seed).
    """
    from stablab.circuits import random_low_depth
    from stablab.frontier import _energy_of_circuit

    best_per_depth = []
    for t in range(t_max + 1):
        best = None
        for trial in range(budget):
            trial_seed = seed + 104729 * t + 7919 * trial
            circuit = random_low_depth(group.n, t, family="clifford", seed=trial_seed)
            rep = _energy_of_circuit(circuit, group)
            if best is None or (rep.total, trial_seed) < (best[2].total, best[1]):
                best = (t, trial_seed, rep, circuit)
        best_per_depth.append(best)
    return best_per_depth


def clifford_word_draws(m: int, depth: int, seed: int | None) -> tuple:
    """The draws of a random Clifford-word circuit as per-layer lists: ((pairs, rows), ...).

    The form ``circuits.draw_clifford_words`` returned before it returned
    arrays: per layer the wire pairs (perm[2i], perm[2i + 1]) of one
    permutation and the twelve alphabet indices of each pair as int lists,
    by the same numpy calls. Depth 0 draws nothing.
    """
    if depth == 0:
        return ()
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        perm = rng.permutation(m).tolist()
        layers.append((list(zip(perm[0 : m - 1 : 2], perm[1::2])), rng.integers(0, 7, size=(m // 2, 12)).tolist()))
    return tuple(layers)


def heisenberg_draws(xs: list[int], zs: list[int], signs: int, draws) -> int:
    """``heisenberg_columns`` of the circuit that list draws describe, read from the draws.

    Each slot loads its two wires' columns into locals, applies the daggered
    alphabet steps in reverse with the column rules written out (H and CZ
    and both CX orientations are their own inverses; S is undone by SDG),
    and stores the columns back. Same columns and signs as the built
    circuit, without a gate or a rule call per step.
    """
    s = signs
    for pairs, rows in reversed(draws):
        for (a, b), row in zip(pairs, rows):
            xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
            for step in reversed(row):  # _WORD_ALPHABET[step], daggered
                if step == 0:  # H on a
                    s ^= xa & za
                    xa, za = za, xa
                elif step == 1:  # H on b
                    s ^= xb & zb
                    xb, zb = zb, xb
                elif step == 2:  # SDG on a
                    s ^= xa & ~za
                    za ^= xa
                elif step == 3:  # SDG on b
                    s ^= xb & ~zb
                    zb ^= xb
                elif step == 4:  # CX, a controls b
                    s ^= xa & zb & ~(xb ^ za)
                    xb ^= xa
                    za ^= zb
                elif step == 5:  # CX, b controls a
                    s ^= xb & za & ~(xa ^ zb)
                    xa ^= xb
                    zb ^= za
                else:  # CZ
                    s ^= xa & xb & (za ^ zb)
                    za ^= xb
                    zb ^= xa
            xs[a], zs[a], xs[b], zs[b] = xa, za, xb, zb
    return s


def random_clifford_search_by_draws(group, t_max: int, budget: int, seed: int) -> list:
    """(t, trial seed, report, circuit) per depth: the random-clifford search one trial at a time.

    The loop ``frontier_search`` ran before it scored a depth's trials in
    numpy blocks: every trial (also at depth 0) drawn by
    :func:`clifford_word_draws` at the seed (seed, t, trial), its check
    columns read by :func:`heisenberg_draws`, the best kept by (total,
    trial seed), and the winner's circuit built gate by gate.
    """
    from stablab.frontier import _check_columns, _outcome_report

    best_per_depth = []
    for t in range(t_max + 1):
        best = None
        for trial in range(budget):
            trial_seed = seed + 104729 * t + 7919 * trial
            xs, zs, signs = _check_columns(group)
            xs, zs = list(xs), list(zs)
            signs = heisenberg_draws(xs, zs, signs, clifford_word_draws(group.n, t, trial_seed))
            flipped = 0
            for x in xs:
                flipped |= x
            rep = _outcome_report(len(group.generators), flipped, signs & ~flipped)
            if best is None or (rep.total, trial_seed) < (best[2].total, best[1]):
                best = (t, trial_seed, rep)
        best_per_depth.append((*best, random_clifford_circuit_per_gate(group.n, t, best[1])))
    return best_per_depth


def coordinate_descent_by_rebuild(group, t: int, budget: int, seed: int):
    """(report, circuit) of the coordinate-descent search at depth t, rebuilding every evaluation.

    The sweep ``frontier_search`` ran before it kept the brick image and
    per-qubit prep images: each evaluation assembles the whole circuit
    with ``_assemble_descent`` and reads it with ``_energy_of_circuit``,
    and the sweep walks on after the budget runs out, keeping every pick.
    """
    from stablab.frontier import _BRICK_CHOICES, _SINGLE_STATES, _assemble_descent, _energy_of_circuit

    n = group.n
    pairings = [[(a, a + 1) for a in range(layer_idx % 2, n - 1, 2)] for layer_idx in range(t)]
    evals = 0

    def spend(cost: int) -> bool:
        nonlocal evals
        if evals + cost > budget:
            return False
        evals += cost
        return True

    def descent_once(prep, bricks):
        def energy():
            return _energy_of_circuit(_assemble_descent(prep, bricks, n, pairings), group)

        spend(1)
        current = energy()
        improved = True
        while improved and spend(0):
            improved = False
            for q in range(n):
                keep = prep[q]
                best_pick, best_rep = keep, current
                for letter, sign, _ in _SINGLE_STATES:
                    if (letter, sign) == keep or not spend(1):
                        continue
                    prep[q] = (letter, sign)
                    rep = energy()
                    if rep.total < best_rep.total - 1e-12:
                        best_pick, best_rep = (letter, sign), rep
                prep[q] = best_pick
                if best_rep.total < current.total - 1e-12:
                    current = best_rep
                    improved = True
            for layer_choices in bricks:
                for slot_idx in range(len(layer_choices)):
                    keep = layer_choices[slot_idx]
                    best_pick, best_rep = keep, current
                    for choice in _BRICK_CHOICES:
                        if choice == keep or not spend(1):
                            continue
                        layer_choices[slot_idx] = choice
                        rep = energy()
                        if rep.total < best_rep.total - 1e-12:
                            best_pick, best_rep = choice, rep
                    layer_choices[slot_idx] = best_pick
                    if best_rep.total < current.total - 1e-12:
                        current = best_rep
                        improved = True
        return current

    best_rep, best_state = None, None
    restart = 0
    while evals < budget:
        if restart == 0:
            prep = [("Z", 1)] * n
            bricks = [["II"] * len(pairing) for pairing in pairings]
        else:
            rng = np.random.default_rng(seed + 7919 * restart)
            prep = [_SINGLE_STATES[i][:2] for i in rng.integers(0, 6, size=n)]
            bricks = [[str(rng.choice(_BRICK_CHOICES)) for _ in pairing] for pairing in pairings]
        rep = descent_once(prep, bricks)
        if best_rep is None or rep.total < best_rep.total - 1e-12:
            best_rep = rep
            best_state = (list(prep), [list(layer) for layer in bricks])
        restart += 1
    return best_rep, _assemble_descent(best_state[0], best_state[1], n, pairings)


def gate_fields_after_validation(gate) -> tuple[tuple, tuple]:
    """(fields of gate, fields of the gate rebuilt by the validating constructor).

    Oracle for gates built without checks: the validating ``Gate`` must
    accept their parts and hold the same qubits, name, word and matrix.
    """
    from stablab.circuits import Gate

    again = Gate(gate.qubits, name=gate.name, word=gate.word, matrix=gate.matrix)
    return tuple(getattr(gate, f) for f in Gate.__slots__), tuple(getattr(again, f) for f in Gate.__slots__)


def min_weight_coset_rep_gray(v: int, group) -> int:
    """Minimum (weight, int) element of v * (group span), one Python int per step.

    The coset walk of ``logical_pairs`` before it ran in numpy blocks: a
    Gray-code walk over all 2^rank elements. Oracle for the block walk.
    """
    rows = [row for _, row in sorted(group._reducer.rows, reverse=True)]
    mask = (1 << group.n) - 1

    def wt(u: int) -> int:
        return ((u & mask) | (u >> group.n)).bit_count()

    best, best_w = v, wt(v)
    cur = v
    for counter in range(1, 1 << len(rows)):
        cur ^= rows[(counter & -counter).bit_length() - 1]
        w = wt(cur)
        if w < best_w or (w == best_w and cur < best):
            best, best_w = cur, w
    return best


def min_weight_logical_by_candidates(group, cap: int = 4):
    """Lightest logical, by a weight-ascending walk that tests each candidate.

    The search ``min_weight_logical`` ran before the distance searches
    shared one walk: every candidate of weight <= cap that commutes with all
    generators and lies outside the group.
    """
    from stablab.paulis import PauliOperator, _parity

    if group.n_logical == 0:
        return None
    gens = [(g.x, g.z) for g in group.generators]
    n = group.n
    for x, z, _ in weight_ascending_candidates(n, cap):
        ok = True
        for gx, gz in gens:
            if _parity(x & gz) ^ _parity(z & gx):
                ok = False
                break
        if ok and not group._reducer.contains(x | (z << n)):
            return PauliOperator(n, x, z, 1)
    return None


def best_distance_per_pair(group, cap: int = 6):
    """(pair index, d_prime, w, witness) by one candidate walk per logical pair.

    The search ``best_distance`` ran before the distance searches shared one
    walk: for each pair, the first candidate that commutes with every
    generator and anticommutes with its xbar or zbar; the pair with the
    largest such weight wins, the lowest index on ties. None when no pair
    has a hit under the cap.
    """
    from stablab.paulis import PauliOperator, _parity, logical_pairs

    gens = [(g.x, g.z) for g in group.generators]
    n = group.n
    best = None
    for idx, pair in enumerate(logical_pairs(group)):
        xb, zb = pair.xbar, pair.zbar
        found = None
        for x, z, w in weight_ascending_candidates(n, cap):
            commuting = True
            for gx, gz in gens:
                if _parity(x & gz) ^ _parity(z & gx):
                    commuting = False
                    break
            if not commuting:
                continue
            if (_parity(x & xb.z) ^ _parity(z & xb.x)) or (_parity(x & zb.z) ^ _parity(z & zb.x)):
                found = (w, PauliOperator(n, x, z, 1))
                break
        if found is None:
            continue
        if best is None or found[0] > best[1]:
            best = (idx, found[0], max(xb.weight, zb.weight), found[1])
    return best


def product_state_minimum_settled_only(code_or_group):
    """(energy, assignment, exact) of the Pauli-basis product search bounded by settled energy alone.

    The search ``product_state_minimum`` ran before it bounded nodes with a
    conflict matching and walked its own stack: the same recursive
    depth-first order over the six single-qubit stabilizer states per
    qubit, pruning only when the energy of checks already settled reaches
    the incumbent, with per-call check tables. It stops after the same
    node budget, returning its incumbent with ``exact`` False.
    """
    from stablab.codes import as_group
    from stablab.frontier import _SINGLE_STATES, PRODUCT_SEARCH_NODES

    group = as_group(code_or_group)
    n = group.n
    checks = []
    touching: list[list[int]] = [[] for _ in range(n)]
    for idx, check in enumerate(group.generators):
        table = {q: check.letter(q) for q in sorted(check.support)}
        checks.append((check.sign, table))
        for q in table:
            touching[q].append(idx)
    n_checks = len(checks)
    if n_checks == 0:
        return 0.0, tuple(("Z", 1) for _ in range(n)), True

    def assignment_energy(assign: list[tuple[str, int]]) -> float:
        total = 0.0
        for sign, table in checks:
            value = sign
            for q, letter in table.items():
                pick_letter, pick_sign = assign[q]
                if pick_letter != letter:
                    value = 0
                    break
                value *= pick_sign
            total += 0.5 * (1 - value)
        return total

    best_assign = None
    best_energy = float("inf")
    for letter, sign, _ in _SINGLE_STATES:
        uniform = [(letter, sign)] * n
        energy = assignment_energy(uniform)
        if energy < best_energy:
            best_energy = energy
            best_assign = list(uniform)

    # per-check bookkeeping: remaining unassigned support, running value
    remaining = [len(table) for _, table in checks]
    value = [sign for sign, _ in checks]
    assign: list[tuple[str, int] | None] = [None] * n
    settled = 0.0
    nodes = 0

    class OutOfNodes(Exception):
        pass

    def descend(q: int):
        nonlocal settled, best_energy, best_assign, nodes
        if nodes == PRODUCT_SEARCH_NODES:
            raise OutOfNodes
        nodes += 1
        if settled >= best_energy - 1e-12:
            return
        if q == n:
            if settled < best_energy - 1e-12:
                best_energy = settled
                best_assign = [pick for pick in assign]  # all assigned here
            return
        for letter, sign, _ in _SINGLE_STATES:
            assign[q] = (letter, sign)
            delta = 0.0
            touched = []
            for idx in touching[q]:
                if value[idx] == 0:
                    # already dead; support countdown still tracked
                    remaining[idx] -= 1
                    touched.append((idx, 0, False))
                    continue
                want = checks[idx][1][q]
                old = value[idx]
                if letter != want:
                    value[idx] = 0
                    delta += 0.5
                    remaining[idx] -= 1
                    touched.append((idx, old, True))
                else:
                    value[idx] = old * sign
                    remaining[idx] -= 1
                    touched.append((idx, old, True))
                    if remaining[idx] == 0:
                        delta += 0.5 * (1 - value[idx])
            settled += delta
            descend(q + 1)
            settled -= delta
            for idx, old, restore in touched:
                remaining[idx] += 1
                if restore:
                    value[idx] = old
        assign[q] = None

    try:
        descend(0)
    except OutOfNodes:
        return best_energy, tuple(best_assign), False
    return best_energy, tuple(best_assign), True


def sparsify_per_row(amp, k_samples: int, seed):
    """What ``sparsify`` built before its samples shared one tuple per distinct row: a fresh int tuple per sample."""
    from stablab.hamiltonians import SparsifiedHamiltonian

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, amp.base.n_terms, size=(k_samples, amp.p))
    indices = tuple(tuple(int(i) for i in row) for row in draws)
    return SparsifiedHamiltonian(amplified=amp, sampled_indices=indices, seed=seed)


def sparsifier_deviation_per_sample(sparse) -> float:
    """``sparsifier_deviation`` as it counted check masks: one set and one shift-sum per sample."""
    from stablab.hamiltonians import attainable_syndromes

    amp = sparse.amplified
    syndromes = attainable_syndromes(amp.base.group)
    masks = Counter(sum(1 << i for i in set(indices)) for indices in sparse.sampled_indices)
    hits = np.zeros(len(syndromes), dtype=np.int64)
    for mask, count in masks.items():
        hits += count * ((syndromes & np.uint64(mask)) == 0)
    target = (1.0 - np.bitwise_count(syndromes) / amp.base.n_terms) ** amp.p
    return float(np.max(np.abs(hits / sparse.k_samples - target)))


def vector_marginal_via_rho(psi: np.ndarray, region) -> np.ndarray:
    """Marginal of a state vector by tracing out its full 2^m-square density matrix."""
    from stablab.states import density_matrix, partial_trace

    return partial_trace(density_matrix(psi), region)


def logical_channel_kraus(rho: np.ndarray, pairs) -> np.ndarray:
    """Literal 4^k-term sum (Xbar^a Zbar^b) rho (Xbar^a Zbar^b)^dagger / 4^k."""
    k = len(pairs)
    if k == 0:
        return rho
    n = pairs[0].xbar.n
    out = np.zeros_like(rho)
    for a in range(2**k):
        for b in range(2**k):
            kraus = np.eye(2**n, dtype=complex)
            for i in range(k):
                if (a >> i) & 1:
                    kraus = kraus @ pauli_matrix(pairs[i].xbar.letters(), pairs[i].xbar.sign)
            for i in range(k):
                if (b >> i) & 1:
                    kraus = kraus @ pauli_matrix(pairs[i].zbar.letters(), pairs[i].zbar.sign)
            out += kraus @ rho @ kraus.conj().T
    return out / 4**k


def dephase_group_sum(rho: np.ndarray, ops) -> np.ndarray:
    """Average of P rho P over all 2^len(ops) products P of the ops (kron chains)."""
    dim = rho.shape[0]
    out = np.zeros_like(rho)
    for mask in range(2 ** len(ops)):
        prod = np.eye(dim, dtype=complex)
        for j, op in enumerate(ops):
            if (mask >> j) & 1:
                prod = prod @ pauli_matrix(op.letters(), op.sign)
        out += prod @ rho @ prod.conj().T
    return out / 2 ** len(ops)


def _branch_rho(mu, n: int) -> np.ndarray:
    if isinstance(mu, np.ndarray):
        return mu
    return mixture_rho([(r.letters(), r.sign) for r in mu.rows], n)


def depolarized_branches(phi, group) -> list:
    """(syndrome bits, p_s, E(rho_s)) for each branch of the decohered phi.

    Mixture branches go through the package's mixture channel; dense
    branches through :func:`logical_channel_kraus`.
    """
    from stablab.channels import logical_depolarize
    from stablab.paulis import logical_pairs
    from stablab.states import StabilizerMixture
    from stablab.syndrome import decohere

    pairs = logical_pairs(group)
    out = []
    for bits, p, branch in decohere(phi, group).branches:
        if isinstance(branch, StabilizerMixture):
            mu = logical_depolarize(branch, pairs)
        else:
            mu = logical_channel_kraus(np.outer(branch, branch.conj()), pairs)
        out.append((bits, p, mu))
    return out


def theta_by_branches(branches, n: int, n_checks: int) -> np.ndarray:
    """Dense sum_s p_s mu_s (x) |s><s|, register bit 0 most significant."""
    dim = 2 ** (n + n_checks)
    out = np.zeros((dim, dim), dtype=complex)
    for bits, p, mu in branches:
        s = int("".join(str(b) for b in bits), 2)
        out[s :: 2**n_checks, s :: 2**n_checks] += p * _branch_rho(mu, n)
    return out


def entropy_audit_by_branches(phi, group, w) -> dict:
    """The entropy audit summed over syndrome branches.

    Each depolarized branch mu_s gets its register |s><s| (as Z rows with
    sign (-1)^{s_i} on a mixture, as a kron factor on a dense branch), is
    rotated by W^dagger, and its single-qubit marginals (from the Pauli
    expectations on a mixture, by partial trace on a dense branch) are added
    with weight p_s. S(Theta) = H(p) + sum_s p_s S(mu_s).
    """
    from stablab.circuits import reverse_circuit
    from stablab.paulis import PauliOperator, logical_pairs
    from stablab.states import StabilizerMixture, apply_circuit_rho, partial_trace

    n, n_checks = group.n, len(group.generators)
    m = n + n_checks
    wdag = reverse_circuit(w)
    branches = depolarized_branches(phi, group)
    marginals = [np.zeros((2, 2), dtype=complex) for _ in range(m)]
    for bits, p, mu in branches:
        if isinstance(mu, StabilizerMixture) and w.is_clifford:
            rows = [PauliOperator(m, r.x, r.z, r.sign) for r in mu.rows]
            rows += [PauliOperator(m, 0, 1 << (n + i), -1 if b else 1) for i, b in enumerate(bits)]
            rotated = StabilizerMixture(m, tuple(rows)).apply_circuit(wdag)
            for j in range(m):
                marginals[j] += p * sum(
                    rotated.expectation(single(m, j, letter)) * PAULI_MATS[letter] for letter in "IXYZ"
                ) / 2
        else:
            theta_s = theta_by_branches([(bits, 1.0, mu)], n, n_checks)
            rotated = apply_circuit_rho(theta_s, wdag)
            for j in range(m):
                marginals[j] += p * partial_trace(rotated, (j,))

    def entropy_bits(probs) -> float:
        probs = np.asarray(probs, dtype=float)
        probs = probs[probs > 1e-14]
        return float(-(probs * np.log2(probs)).sum())

    mixing = entropy_bits([p for _, p, _ in branches])
    branch_entropy = sum(
        p * (float(mu.m - mu.rank) if isinstance(mu, StabilizerMixture) else entropy_bits(np.linalg.eigvalsh(mu)))
        for _, p, mu in branches
    )
    return {
        "k": len(logical_pairs(group)),
        "S_Theta": mixing + branch_entropy,
        "per_qubit_sum": float(sum(entropy_bits(np.linalg.eigvalsh(mj)) for mj in marginals)),
    }


def conjugate_pauli_mixture(state, p):
    """rho -> P rho P for a Hermitian Pauli P on a stabilizer mixture: anticommuting rows flip sign."""
    from stablab.paulis import PauliOperator, commutes
    from stablab.states import _trusted

    rows = tuple(
        PauliOperator(r.n, r.x, r.z, -r.sign) if not commutes(r, p) else r for r in state.rows
    )
    return _trusted(state.m, rows)


def conjugate(state, p):
    """P rho P; a mixture stays a mixture, dense input gives a density matrix."""
    from stablab.states import StabilizerMixture, conjugate_pauli_rho, density_matrix

    if isinstance(state, StabilizerMixture):
        return conjugate_pauli_mixture(state, p)
    return conjugate_pauli_rho(density_matrix(state), p)


def logical_basis_family(group, pairs) -> list:
    """The 2^k Zbar-basis states plus the 2^k Xbar-basis states."""
    from stablab.paulis import PauliOperator
    from stablab.states import group_mixture

    base = group_mixture(group)
    family = []
    for which in ("zbar", "xbar"):
        for signs in itertools.product((1, -1), repeat=len(pairs)):
            rows = [
                PauliOperator(group.n, l.x, l.z, s * l.sign)
                for s, l in zip(signs, [getattr(p, which) for p in pairs])
            ]
            family.append(base.with_rows(rows))
    return family


def nonzero_syndrome_error(group):
    """The first single-qubit X, Z or Y with a nonzero syndrome, or None."""
    for q in range(group.n):
        for letter in ("X", "Z", "Y"):
            err = single(group.n, q, letter)
            if any(group.syndrome_of(err)):
                return err
    return None


def region_is_correctable_by_span_rank(group, region) -> bool:
    """The cleaning-lemma test on the group's own vectors, masked to the region.

    The rank test before it read the code's single-qubit columns: counts the
    independent products supported inside the region, first of the
    independent generators, then of the generators plus every Xbar and Zbar;
    the counts agree exactly when the region holds no nontrivial logical.
    Oracle for ``channels._region_is_correctable``.
    """
    from stablab import gf2
    from stablab.paulis import logical_pairs, outside_mask

    outside = outside_mask(group.n, region)
    reducer = gf2.Reducer(g.vec & outside for g in group.independent_generators)
    stabilizer_count = len(reducer.dependencies)
    for pair in logical_pairs(group):
        reducer.add(pair.xbar.vec & outside)
        reducer.add(pair.zbar.vec & outside)
    return len(reducer.dependencies) == stabilizer_count


def marginal_invariance_dense(code, region, family=None) -> dict:
    """The invariance report measured densely on any region, of any size.

    (a) the family's marginals on the region agree; (b) conjugating each
    family state, and one syndrome-shifted state, by every logical leaves
    its marginal unchanged; (c) so does the logical depolarizing channel.
    The family defaults to the logical-basis states. The report has the
    package report's keys; the distance is only recorded. Oracle for the
    cleaning-lemma rank test of ``channels.marginal_invariance_suite``,
    which decides regions below the distance without any marginal.
    """
    from stablab.channels import _logicals, logical_depolarize
    from stablab.codes import as_group, code_parameters
    from stablab.paulis import logical_pairs
    from stablab.states import marginal

    group = as_group(code)
    region = tuple(sorted(int(q) for q in region))
    pairs = logical_pairs(group)
    family = list(logical_basis_family(group, pairs) if family is None else family)

    marginals = [marginal(s, region) for s in family]
    dev_a = max(
        (float(np.abs(mi - marginals[0]).max()) for mi in marginals[1:]), default=0.0
    )

    sector_states = list(family)
    err = nonzero_syndrome_error(group)
    if err is not None:
        sector_states.append(conjugate(family[0], err))
    dev_b = 0.0
    dev_c = 0.0
    for state in sector_states:
        base = marginal(state, region)
        for logical in _logicals(pairs, group.n):
            moved = marginal(conjugate(state, logical), region)
            dev_b = max(dev_b, float(np.abs(moved - base).max()))
        pushed = marginal(logical_depolarize(state, pairs), region)
        dev_c = max(dev_c, float(np.abs(pushed - base).max()))

    tol = 1e-10
    report = {
        "region": list(region),
        "distance": int(code_parameters(group).d),
        "n_states": len(family),
        "code_states_share_marginal": dev_a <= tol,
        "logical_conjugation_invariant": dev_b <= tol,
        "channel_preserves_marginal": dev_c <= tol,
        "max_deviation": max(dev_a, dev_b, dev_c),
    }
    report["passed"] = bool(
        report["code_states_share_marginal"]
        and report["logical_conjugation_invariant"]
        and report["channel_preserves_marginal"]
    )
    return report


# [7,4,3] Hamming check matrix: its hypergraph product with itself is [[58,16,3]]
HAMMING = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]


def sublattice_punctures(length: int, spacing: int) -> list[tuple[int, int]]:
    """The plaquettes of an L x L torus on the s-spaced sublattice: [[2L^2, L^2/s^2 + 1, 3]] for s = 3."""
    return [(r, c) for r in range(0, length, spacing) for c in range(0, length, spacing)]


def ring_check_matrix(length: int) -> np.ndarray:
    """Adjacent-pair parity checks of the length-L repetition code on a ring: L checks."""
    h = np.zeros((length, length), dtype=np.uint8)
    for i in range(length):
        h[i, i] = 1
        h[i, (i + 1) % length] = 1
    return h
