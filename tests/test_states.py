import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    basis_vector,
    chp_conjugate,
    circuit_unitary_naive,
    conjugate,
    conjugate_pauli_mixture,
    conjugated_rows_per_step,
    dephase_group_sum,
    expand_gate,
    mixture_rho,
    partial_trace_naive,
    pauli_letters,
    pauli_matrix,
    projector_from_strings,
    random_pauli,
    trace_distance,
    vector_marginal_via_rho,
    von_neumann_entropy_naive,
)
from stablab import states
from stablab.bounds import trace_distance_to_code
from stablab.circuits import (
    NAMED_GATES,
    Gate,
    LayeredCircuit,
    gate_matrix,
    random_low_depth,
)
from stablab.codes import build_code, five_qubit_code
from stablab.paulis import PauliOperator, from_letters, multiply
from stablab.states import (
    DenseLimitError,
    StabilizerMixture,
    apply_circuit_rho,
    apply_circuit_vec,
    apply_gate_vec,
    apply_pauli_vec,
    conjugate_pauli_rho,
    dense_qubit_limit,
    fidelity,
    group_mixture,
    partial_trace,
    pauli_expectation_rho,
    pauli_expectation_vec,
    project_pauli_vec,
    rho_from_vector,
    von_neumann_entropy,
    zero_mixture,
    zero_vector,
)
from stablab.syndrome import decohere, gentle_measurement_report


def random_state(m, rng):
    psi = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    return psi / np.linalg.norm(psi)


def test_basis_vector_bit_order():
    # qubit 0 is the most significant bit
    psi = basis_vector(3, [1, 0, 0])
    assert psi[0b100] == 1
    assert np.allclose(basis_vector(3, 5), basis_vector(3, [1, 0, 1]))
    assert zero_vector(3)[0] == 1


def test_apply_gate_vec_matches_full_unitary():
    rng = np.random.default_rng(0)
    from scipy.stats import unitary_group

    for _ in range(40):
        m = int(rng.integers(2, 6))
        psi = random_state(m, rng)
        which = rng.integers(0, 3)
        if which == 0:
            q = int(rng.integers(0, m))
            gate = Gate(qubits=(q,), name=str(rng.choice(["H", "S", "X", "Y", "Z", "SDG"])))
        elif which == 1:
            a, b = rng.choice(m, size=2, replace=False)
            gate = Gate(qubits=(int(a), int(b)), name=str(rng.choice(["CX", "CZ", "CY", "SWAP"])))
        else:
            a, b = rng.choice(m, size=2, replace=False)
            gate = Gate(qubits=(int(a), int(b)), matrix=unitary_group.rvs(4, random_state=rng))
        fast = apply_gate_vec(psi, gate)
        slow = expand_gate(gate_matrix(gate), gate.qubits, m) @ psi
        assert np.allclose(fast, slow, atol=1e-12)


def test_apply_pauli_vec_matches_dense_matrix():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(1, 6))
        p = random_pauli(m, rng)
        psi = random_state(m, rng)
        fast = apply_pauli_vec(psi, p)
        slow = pauli_matrix(p.letters(), p.sign) @ psi
        assert np.allclose(fast, slow, atol=1e-12)
        assert np.isclose(
            pauli_expectation_vec(psi, p), np.vdot(psi, slow).real, atol=1e-12
        )


def test_pauli_expectation_rho_matches_trace():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        p = random_pauli(m, rng)
        # random mixed state
        a = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        expected = np.trace(pauli_matrix(p.letters(), p.sign) @ rho).real
        assert np.isclose(pauli_expectation_rho(rho, p), expected, atol=1e-12)


def test_apply_circuit_rho_is_conjugation():
    rng = np.random.default_rng(3)
    circ = random_low_depth(4, 2, family="haar", seed=5)
    psi = random_state(4, rng)
    rho_out = apply_circuit_rho(rho_from_vector(psi), circ)
    psi_out = apply_circuit_vec(psi, circ)
    assert np.allclose(rho_out, rho_from_vector(psi_out), atol=1e-10)


@st.composite
def dense_circuits(draw, max_m=6):
    """Clifford words or Haar two-qubit gates on m <= max_m wires, then a named one-qubit layer."""
    m = draw(st.integers(1, max_m))
    family = draw(st.sampled_from(("clifford", "haar")))
    circ = random_low_depth(m, draw(st.integers(0, 3)), family=family, seed=draw(st.integers(0, 2**16)))
    names = draw(st.lists(st.sampled_from(("H", "S", "SDG", "X", "Y", "Z")), min_size=m, max_size=m))
    last = tuple(Gate(qubits=(q,), name=name) for q, name in enumerate(names))
    return LayeredCircuit(m=m, layers=circ.layers + (last,))


@settings(max_examples=60, deadline=None)
@given(dense_circuits(), st.integers(1, 4), st.integers(0, 2**16))
def test_apply_gate_vec_acts_on_the_leading_axis(circ, cols, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((2**circ.m, cols)) + 1j * rng.standard_normal((2**circ.m, cols))
    for gate in (g for layer in circ.layers for g in layer):
        got = apply_gate_vec(arr, gate)
        by_column = np.stack([apply_gate_vec(arr[:, j], gate) for j in range(cols)], axis=1)
        assert got.shape == arr.shape
        assert np.abs(got - by_column).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dense_circuits(), st.integers(0, 2**16))
def test_apply_circuit_rho_matches_the_naive_unitary(circ, seed):
    rho = _random_rho(circ.m, np.random.default_rng(seed))
    unitary = circuit_unitary_naive(circ, gate_matrix)
    assert np.abs(apply_circuit_rho(rho, circ) - unitary @ rho @ unitary.conj().T).max() <= 1e-12
    assert np.abs(apply_circuit_vec(np.eye(2**circ.m, dtype=complex), circ) - unitary).max() <= 1e-12


def test_project_pauli_vec():
    psi = zero_vector(1)
    prob, branch = project_pauli_vec(psi, from_letters("X"))
    assert np.isclose(prob, 0.5)
    assert np.allclose(branch, np.array([1, 1]) / np.sqrt(2))
    prob, branch = project_pauli_vec(psi, from_letters("Z"))
    assert np.isclose(prob, 1.0)
    prob, branch = project_pauli_vec(psi, PauliOperator(1, 0, 1, -1))  # -Z
    assert prob == 0.0 and branch is None
    # a real input keeps Y's imaginary phase: (I + Y)/2 |0> = (|0> + i|1>)/2
    prob, branch = project_pauli_vec(np.array([1.0, 0.0]), from_letters("Y"))
    assert np.isclose(prob, 0.5)
    assert np.allclose(branch, np.array([1, 1j]) / np.sqrt(2))


def test_partial_trace_matches_naive():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        psi = random_state(m, rng)
        rho = rho_from_vector(psi)
        size = int(rng.integers(1, m))
        keep = sorted(rng.choice(m, size=size, replace=False).tolist())
        fast = partial_trace(rho, keep)
        slow = partial_trace_naive(rho, keep, m)
        assert np.allclose(fast, slow, atol=1e-12)
        assert np.isclose(np.trace(fast).real, 1.0, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a, b = random_state(1, rng), random_state(2, rng)
    rho = rho_from_vector(np.kron(a, b))
    assert np.allclose(partial_trace(rho, [0]), rho_from_vector(a), atol=1e-12)
    assert np.allclose(partial_trace(rho, [1, 2]), rho_from_vector(b), atol=1e-12)


def test_entropy_fidelity_trace_distance():
    rng = np.random.default_rng(6)
    psi = random_state(3, rng)
    assert np.isclose(von_neumann_entropy(rho_from_vector(psi)), 0.0, atol=1e-9)
    mixed = np.eye(4) / 4
    assert np.isclose(von_neumann_entropy(mixed), 2.0, atol=1e-12)
    # agreement with the naive eigenvalue route on random mixed states
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert np.isclose(von_neumann_entropy(rho), von_neumann_entropy_naive(rho), atol=1e-9)

    phi = random_state(3, rng)
    f = fidelity(rho_from_vector(psi), rho_from_vector(phi))
    assert np.isclose(f, abs(np.vdot(psi, phi)), atol=1e-9)
    assert np.isclose(fidelity(rho, rho), 1.0, atol=1e-9)
    d = trace_distance(rho_from_vector(psi), rho_from_vector(phi))
    # tight for pure states: D = sqrt(1 - F^2)
    assert np.isclose(d, np.sqrt(1 - f**2), atol=1e-7)

    # rank-deficient inputs: roundoff zeros must not reach the square roots
    for _ in range(20):
        psi, phi = random_state(4, rng), random_state(4, rng)
        assert abs(fidelity(rho_from_vector(psi), rho_from_vector(phi)) - abs(np.vdot(psi, phi))) <= 1e-12
    # the five_qubit gentle case on all 9 wires is sqrt(sum_s p_s^2) = 1/4
    full = gentle_measurement_report(zero_mixture(5), five_qubit_code().group, range(9))
    assert abs(full.fidelity - 0.25) <= 1e-12


def test_zero_mixture_basics():
    state = zero_mixture(3)
    assert state.is_pure
    assert state.entropy == 0.0
    assert state.expectation(from_letters("ZII")) == 1.0
    assert state.expectation(from_letters("XII")) == 0.0
    assert state.expectation(from_letters("IZZ")) == 1.0
    assert state.expectation(PauliOperator(3, 0, 1, -1)) == -1.0  # -Z on qubit 0
    assert np.allclose(state.dense_vector(), zero_vector(3), atol=1e-12)


def _pair_reads(trusted, checked, probes):
    """expectation and project_pauli of each probe agree on two mixtures."""
    for p in probes:
        assert trusted.expectation(p) == checked.expectation(p)
        (prob_a, post_a), (prob_b, post_b) = trusted.project_pauli(p), checked.project_pauli(p)
        assert prob_a == prob_b
        assert (post_a is None) == (post_b is None)
        if post_a is not None:
            assert post_a.rows == post_b.rows


def test_trusted_zero_mixture_matches_the_validating_constructor():
    rng = np.random.default_rng(2024)
    for m in range(1, 41):
        trusted = zero_mixture(m)
        assert trusted._reducer is None  # built at the first membership query
        checked = StabilizerMixture(m, tuple(PauliOperator(m, 0, 1 << q, 1) for q in range(m)))
        assert trusted.m == checked.m == m
        assert trusted.rows == checked.rows
        # random Paulis mostly anticommute with a row; Z strings and row
        # products (random sign) take the membership path
        probes = [random_pauli(m, rng) for _ in range(4)]
        probes += [PauliOperator(m, 0, int(rng.integers(1, 1 << m)), int(rng.choice((1, -1)))) for _ in range(4)]
        _pair_reads(trusted, checked, probes)
        circ = random_low_depth(m, int(rng.integers(1, 4)), seed=int(rng.integers(1 << 32)))
        trusted, checked = trusted.apply_circuit(circ), checked.apply_circuit(circ)
        assert trusted.rows == checked.rows
        rows = trusted.rows
        probes = [random_pauli(m, rng) for _ in range(4)]
        for _ in range(4):
            pick = [rows[i] for i in rng.permutation(m)[: int(rng.integers(1, m + 1))]]
            prod = PauliOperator(m, 0, 0, int(rng.choice((1, -1))))
            for row in pick:
                prod = multiply(prod, row)
            probes.append(prod)
        _pair_reads(trusted, checked, probes)


def test_mixture_validation():
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerMixture(2, (from_letters("XI"), from_letters("ZI")))
    with pytest.raises(ValueError, match="dependent"):
        StabilizerMixture(2, (from_letters("ZI"), from_letters("IZ"), from_letters("ZZ")))
    with pytest.raises(ValueError, match="scalar"):
        StabilizerMixture(1, (PauliOperator(1, 0, 0, 1),))
    with pytest.raises(ValueError):
        StabilizerMixture(2, (from_letters("Z"),))  # wrong width


def test_conjugation_rule_spot_checks():
    # frozen from hand derivations in the Hermitian sign convention
    h = Gate(qubits=(0,), name="H")
    s = Gate(qubits=(0,), name="S")
    cx = Gate(qubits=(0, 1), name="CX")

    state = StabilizerMixture(1, (from_letters("X"),))
    assert state.apply_gate(h).rows[0] == from_letters("Z")
    state = StabilizerMixture(1, (from_letters("Y"),))
    assert state.apply_gate(h).rows[0] == PauliOperator(1, 1, 1, -1)
    state = StabilizerMixture(1, (from_letters("X"),))
    assert state.apply_gate(s).rows[0] == from_letters("Y")
    state = StabilizerMixture(2, (from_letters("YY"),))
    assert state.apply_gate(cx).rows[0] == PauliOperator(2, 0b01, 0b10, -1)  # -XZ
    state = StabilizerMixture(2, (PauliOperator(2, 0b01, 0b10, 1),))  # XZ
    assert state.apply_gate(cx).rows[0] == PauliOperator(2, 0b11, 0b11, -1)  # -YY


_ONE_QUBIT = sorted(name for name, mat in NAMED_GATES.items() if mat.shape[0] == 2)
_TWO_QUBIT = sorted(name for name, mat in NAMED_GATES.items() if mat.shape[0] == 4)


def test_every_named_gate_matches_its_matrix_and_the_chp_rules():
    # every Pauli on 3 qubits (signs mixed) through every gate on every wire placement
    m = 3
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    for name in NAMED_GATES:
        for wires in [(q,) for q in range(m)] if name in _ONE_QUBIT else pairs:
            u = expand_gate(NAMED_GATES[name], wires, m)
            gate = Gate(qubits=wires, name=name)
            for x in range(1 << m):
                for z in range(1 << m):
                    if not x | z:
                        continue
                    row = PauliOperator(m, x, z, -1 if (x + z) % 3 else 1)
                    (out,) = states._trusted(m, (row,)).apply_gate(gate).rows
                    assert (out.x, out.z, out.sign) == chp_conjugate(x, z, row.sign, name, wires)
                    assert (out is row) == (out == row)  # an unchanged row is kept, not rebuilt
                    conjugated = u @ pauli_matrix(pauli_letters(x, z, m), row.sign) @ u.conj().T
                    assert np.allclose(conjugated, pauli_matrix(pauli_letters(out.x, out.z, m), out.sign))


@st.composite
def _clifford_circuits(draw):
    """Gates on 1-6 qubits: named gates and words over every named gate,
    two-qubit steps in both orientations."""
    m = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        arity = 1 if m == 1 else draw(st.integers(1, 2))
        wires = tuple(draw(st.permutations(range(m)))[:arity])
        if draw(st.booleans()):
            name = draw(st.sampled_from(_ONE_QUBIT if arity == 1 else _TWO_QUBIT))
            gates.append(Gate(qubits=wires, name=name))
            continue
        alphabet = [(name, (p,)) for name in _ONE_QUBIT for p in range(arity)]
        if arity == 2:
            alphabet += [(name, locs) for name in _TWO_QUBIT for locs in ((0, 1), (1, 0))]
        word = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)))
        gates.append(Gate(qubits=wires, word=word))
    return m, gates


@settings(max_examples=150, deadline=None)
@given(_clifford_circuits(), st.integers(0, 2**32 - 1))
def test_random_words_match_dense_simulation_and_chp_rules(circuit, seed):
    m, gates = circuit
    state = zero_mixture(m)
    expected = [(row.x, row.z, row.sign) for row in state.rows]
    for gate in gates:
        state = state.apply_gate(gate)
        steps = [(gate.name, (0, 1)[: len(gate.qubits)])] if gate.name else gate.word
        for name, locs in steps:
            wires = tuple(gate.qubits[p] for p in locs)
            expected = [chp_conjugate(x, z, sign, name, wires) for x, z, sign in expected]
        assert [(row.x, row.z, row.sign) for row in state.rows] == expected
    psi = apply_circuit_vec(zero_vector(m), LayeredCircuit(m=m, layers=tuple((g,) for g in gates)))
    for row in state.rows:
        assert np.isclose(pauli_expectation_vec(psi, row), 1.0, atol=1e-10)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        p = random_pauli(m, rng)
        assert np.isclose(state.expectation(p), pauli_expectation_vec(psi, p), atol=1e-10)


def _mixture_vs_dense_expectations(m, depth, seed, n_paulis=40):
    """Core tableau invariant: expectations agree with the dense simulation."""
    circ = random_low_depth(m, depth, family="clifford", seed=seed)
    mixture = zero_mixture(m).apply_circuit(circ)
    dense = apply_circuit_vec(zero_vector(m), circ)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(n_paulis):
        p = random_pauli(m, rng)
        assert np.isclose(
            mixture.expectation(p), pauli_expectation_vec(dense, p), atol=1e-10
        ), (seed, str(p))


@pytest.mark.parametrize("seed", range(8))
def test_tableau_matches_dense_on_random_clifford_circuits(seed):
    _mixture_vs_dense_expectations(m=4, depth=3, seed=seed)


def test_tableau_matches_dense_with_named_two_qubit_gates():
    # exercise CZ / CY / SWAP names directly, not only through words
    layers = (
        (Gate(qubits=(0,), name="H"), Gate(qubits=(2,), name="S")),
        (Gate(qubits=(0, 1), name="CZ"),),
        (Gate(qubits=(2, 3), name="CY"),),
        (Gate(qubits=(1, 2), name="SWAP"),),
        (Gate(qubits=(3, 0), name="CX"),),
    )
    from stablab.circuits import LayeredCircuit

    circ = LayeredCircuit(m=4, layers=layers)
    mixture = zero_mixture(4).apply_circuit(circ)
    dense = apply_circuit_vec(zero_vector(4), circ)
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = random_pauli(4, rng)
        assert np.isclose(mixture.expectation(p), pauli_expectation_vec(dense, p), atol=1e-10)


def test_dense_gate_rejected_by_tableau():
    from scipy.stats import unitary_group

    g = Gate(qubits=(0, 1), matrix=unitary_group.rvs(4, random_state=1))
    with pytest.raises(ValueError, match="dense"):
        zero_mixture(2).apply_gate(g)


def test_mixture_dense_vector_matches_circuit_output():
    for seed in range(5):
        circ = random_low_depth(4, 3, family="clifford", seed=seed)
        mixture = zero_mixture(4).apply_circuit(circ)
        dense = apply_circuit_vec(zero_vector(4), circ)
        overlap = abs(np.vdot(mixture.dense_vector(), dense))
        assert np.isclose(overlap, 1.0, atol=1e-10)


def test_project_pauli_against_dense():
    rng = np.random.default_rng(8)
    for seed in range(10):
        m = 4
        circ = random_low_depth(m, 2, family="clifford", seed=seed)
        mixture = zero_mixture(m).apply_circuit(circ)
        dense = apply_circuit_vec(zero_vector(m), circ)
        p = random_pauli(m, rng)
        prob_t, post = mixture.project_pauli(p)
        prob_d, branch = project_pauli_vec(dense, p)
        assert np.isclose(prob_t, prob_d, atol=1e-10), (seed, str(p))
        if post is not None and branch is not None:
            overlap = abs(np.vdot(post.dense_vector(), branch))
            assert np.isclose(overlap, 1.0, atol=1e-10)


def test_project_pauli_covers_all_branches():
    state = zero_mixture(2)
    # anticommuting: coin flip
    prob, post = state.project_pauli(from_letters("XI"))
    assert prob == 0.5 and post.rank == 2
    # member: certainty
    prob, post = state.project_pauli(from_letters("ZZ"))
    assert prob == 1.0
    # negated member: impossible
    prob, post = state.project_pauli(PauliOperator(2, 0, 0b11, -1))
    assert prob == 0.0 and post is None
    # commuting non-member on a mixed state: rank grows
    mixed = StabilizerMixture(2, (from_letters("ZZ"),))
    prob, post = mixed.project_pauli(from_letters("ZI"))
    assert prob == 0.5 and post.rank == 2 and post.is_pure


def test_mixture_marginal_matches_dense_partial_trace():
    rng = np.random.default_rng(9)
    for seed in range(6):
        m = 5
        circ = random_low_depth(m, 2, family="clifford", seed=seed + 100)
        mixture = zero_mixture(m).apply_circuit(circ)
        dense_rho = rho_from_vector(apply_circuit_vec(zero_vector(m), circ))
        size = int(rng.integers(1, 4))
        region = sorted(rng.choice(m, size=size, replace=False).tolist())
        fast = mixture.marginal(region)
        slow = partial_trace(dense_rho, region)
        assert np.allclose(fast, slow, atol=1e-10), (seed, region)


def test_mixture_marginal_of_mixed_state():
    # one row on two qubits: rho = (I + ZZ)/4, each qubit maximally mixed
    state = StabilizerMixture(2, (from_letters("ZZ"),))
    assert state.entropy == 1.0
    assert np.allclose(state.marginal([0]), np.eye(2) / 2, atol=1e-12)
    full = state.dense_rho()
    expected = (np.eye(4) + pauli_matrix("ZZ")) / 4
    assert np.allclose(full, expected, atol=1e-12)
    with pytest.raises(ValueError, match="not pure"):
        state.dense_vector()


def test_conjugate_pauli_matches_dense():
    circ = random_low_depth(3, 2, family="clifford", seed=21)
    mixture = zero_mixture(3).apply_circuit(circ)
    dense = apply_circuit_vec(zero_vector(3), circ)
    p = from_letters("XYI")
    conj = conjugate_pauli_mixture(mixture, p)
    dense_conj = apply_pauli_vec(dense, p)
    overlap = abs(np.vdot(conj.dense_vector(), dense_conj))
    assert np.isclose(overlap, 1.0, atol=1e-10)


def test_extend_appends_zero_wires():
    circ = random_low_depth(3, 1, family="clifford", seed=2)
    mixture = zero_mixture(3).apply_circuit(circ).extend(2)
    assert mixture.m == 5
    assert mixture.expectation(from_letters("IIIZI")) == 1.0
    assert mixture.expectation(from_letters("IIIIZ")) == 1.0
    assert mixture.is_pure


def test_group_mixture_five_qubit_code():
    code = five_qubit_code()
    state = group_mixture(code.group)
    # maximally mixed code state: entropy equals the number of logical qubits
    assert state.rank == 4
    assert state.entropy == 1.0
    for g in code.group.generators:
        assert state.expectation(g) == 1.0
    # logical X (weight 5 representative XXXXX commutes, is not in the group)
    assert state.expectation(from_letters("XXXXX")) == 0.0

    # adding a logical row purifies; dense projector cross-check
    from stablab.paulis import logical_pairs

    pair = logical_pairs(code.group)[0]
    pure = state.with_rows([pair.zbar])
    assert pure.is_pure
    rho = pure.dense_rho()
    proj = projector_from_strings([g.letters() for g in code.group.generators])
    # state lies inside the code space
    assert np.isclose(np.trace(proj @ rho).real, 1.0, atol=1e-10)


def test_with_rows_rejects_anticommuting_extension():
    state = zero_mixture(2)
    with pytest.raises(ValueError):
        state.with_rows([from_letters("XI")])
    # appended rows are checked against each other too, and for independence
    mixed = StabilizerMixture(3, (from_letters("ZII"),))
    with pytest.raises(ValueError, match="rows 1 and 2 anticommute"):
        mixed.with_rows([from_letters("IXI"), from_letters("IZI")])
    with pytest.raises(ValueError, match="dependent"):
        mixed.with_rows([from_letters("IZI"), from_letters("ZZI")])
    assert mixed.with_rows([from_letters("IZI")]).rank == 2


def test_dense_qubit_limit_validates_environment(monkeypatch):
    monkeypatch.delenv("STABLAB_DENSE_LIMIT", raising=False)
    assert dense_qubit_limit() == 12
    monkeypatch.setenv("STABLAB_DENSE_LIMIT", "7")
    assert dense_qubit_limit() == 7
    for bad in ("abc", "0", "-3", "2.5", ""):
        monkeypatch.setenv("STABLAB_DENSE_LIMIT", bad)
        with pytest.raises(ValueError, match="positive integer"):
            dense_qubit_limit()


def test_mixture_dense_reads_stop_at_the_dense_limit(monkeypatch):
    """marginal, dense_rho and dense_vector refuse past the limit with DenseLimitError."""
    monkeypatch.delenv("STABLAB_DENSE_LIMIT", raising=False)
    wide = zero_mixture(13)
    with pytest.raises(DenseLimitError, match="13 qubits > 12"):
        wide.marginal(range(13))
    with pytest.raises(DenseLimitError, match="13 qubits > 12"):
        wide.dense_rho()
    with pytest.raises(DenseLimitError, match="13 qubits > 12"):
        wide.dense_vector()
    assert np.allclose(zero_mixture(12).dense_vector(), zero_vector(12), atol=1e-12)
    assert np.allclose(wide.marginal(range(2)), np.diag([1, 0, 0, 0]), atol=1e-12)

    monkeypatch.setenv("STABLAB_DENSE_LIMIT", "3")
    small = zero_mixture(4)
    with pytest.raises(DenseLimitError, match="4 qubits > 3"):
        small.marginal(range(4))
    with pytest.raises(DenseLimitError, match="4 qubits > 3"):
        small.dense_vector()
    assert small.marginal(range(3)).shape == (8, 8)
    assert np.allclose(zero_mixture(3).dense_vector(), zero_vector(3), atol=1e-12)


# --- mixture reads against the dense density matrix (hypothesis-driven) ---


@st.composite
def clifford_mixtures(draw, max_m=6, pure=False):
    """Seeded Clifford circuit applied to |0..0> with some Z rows dropped.

    Depth 0 keeps the validated constructor's reducer; deeper circuits go
    through apply_gate, whose mixtures build their reducer lazily. With
    pure=True no row is dropped.
    """
    m = draw(st.integers(1, max_m))
    keep = m if pure else draw(st.integers(0, m))
    circ = random_low_depth(m, draw(st.integers(0, 3)), family="clifford", seed=draw(st.integers(0, 2**16)))
    return StabilizerMixture(m, zero_mixture(m).rows[:keep]).apply_circuit(circ)


def _paulis(m):
    return st.builds(PauliOperator, st.just(m), st.integers(0, 2**m - 1), st.integers(0, 2**m - 1), st.sampled_from((1, -1)))


@settings(max_examples=60, deadline=None)
@given(clifford_mixtures(), st.data())
def test_mixture_reads_match_dense_rho(state, data):
    rho = state.dense_rho()
    assert np.allclose(rho, mixture_rho([(r.letters(), r.sign) for r in state.rows], state.m), atol=1e-12)
    p = data.draw(_paulis(state.m))
    p_mat = p.sign * pauli_matrix(p.letters())
    assert state.expectation(p) == pytest.approx(np.trace(p_mat @ rho).real, abs=1e-12)

    prob, post = state.project_pauli(p)
    proj = (np.eye(2**state.m) + p_mat) / 2
    assert prob == pytest.approx(np.trace(proj @ rho).real, abs=1e-12)
    if post is None:
        assert prob == 0.0
    else:
        assert np.allclose(post.dense_rho(), proj @ rho @ proj / prob, atol=1e-12)

    size = data.draw(st.integers(1, state.m))
    region = sorted(data.draw(st.permutations(range(state.m)))[:size])
    assert np.allclose(state.marginal(region), partial_trace_naive(rho, region, state.m), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fold_marginal_matches_the_naive_partial_trace(data):
    """Pure and mixed mixtures, every region size from empty to all wires."""
    state = data.draw(clifford_mixtures(pure=data.draw(st.booleans())))
    rho = mixture_rho([(r.letters(), r.sign) for r in state.rows], state.m)
    size = data.draw(st.integers(0, state.m))
    region = data.draw(st.permutations(range(state.m)))[:size]
    want = partial_trace_naive(rho, region, state.m)
    assert np.abs(state.marginal(region) - want).max() <= 1e-12
    assert np.abs(states.marginal(rho, region) - want).max() <= 1e-12
    if size == state.m:
        assert np.abs(state.dense_rho() - rho).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_project_rows_matches_the_projector_product(m, data):
    """prod (I + P)/2 on a vector and, from the left, on a matrix; rows need not commute."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    rows = data.draw(st.lists(_paulis(m), max_size=3))
    proj = np.eye(2**m, dtype=complex)
    for p in rows:  # the first row acts first
        proj = (np.eye(2**m) + pauli_matrix(p.letters(), p.sign)) / 2 @ proj
    psi = random_state(m, rng)
    mat = _random_rho(m, rng)
    assert np.abs(states.project_rows(psi, rows) - proj @ psi).max() <= 1e-12
    assert np.abs(states.project_rows(mat, rows) - proj @ mat).max() <= 1e-12


def test_marginal_validates_the_region_on_both_backends():
    mixture = zero_mixture(2).apply_circuit(random_low_depth(2, 1, family="clifford", seed=4))
    for form in (mixture, mixture.dense_vector(), mixture.dense_rho()):
        for bad in ((1, 1), (0, 5), (-1,)):
            with pytest.raises(ValueError, match="distinct wires"):
                states.marginal(form, bad)
        assert np.allclose(states.marginal(form, ()), np.ones((1, 1)), atol=1e-12)
    assert np.array_equal(mixture.marginal(()), np.ones((1, 1)))


@st.composite
def _gate_slots(draw, m):
    """A named gate, or a word of 0-12 steps over every named gate (two-qubit
    steps in both orientations), on a 1- or 2-wire slot of m wires."""
    arity = draw(st.integers(1, min(2, m)))
    wires = tuple(draw(st.permutations(range(m)))[:arity])
    if draw(st.booleans()):
        name = draw(st.sampled_from(_ONE_QUBIT if arity == 1 else _TWO_QUBIT))
        return Gate(qubits=wires, name=name)
    alphabet = [(name, (p,)) for name in _ONE_QUBIT for p in range(arity)]
    if arity == 2:
        alphabet += [(name, locs) for name in _TWO_QUBIT for locs in ((0, 1), (1, 0))]
    return Gate(qubits=wires, word=tuple(draw(st.lists(st.sampled_from(alphabet), max_size=12))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_circuits_on_mixtures_match_the_per_step_loop_and_dense_conjugation(data):
    """Column-engine rows against the row-by-row table loop and the CHP rules
    (signs included, unchanged rows kept as objects), and each row image
    U g U^dagger against the dense circuit: U g v = (U g U^dagger) U v on a
    random vector v."""
    m = data.draw(st.integers(1, 12))
    state = StabilizerMixture(m, zero_mixture(m).rows[: data.draw(st.integers(0, m))])
    state = state.apply_circuit(random_low_depth(m, 2, family="clifford", seed=data.draw(st.integers(0, 2**16))))
    state = conjugate_pauli_mixture(state, data.draw(_paulis(m)))  # random row signs
    gates = data.draw(st.lists(_gate_slots(m), max_size=6))
    circuit = LayeredCircuit(m, tuple((gate,) for gate in gates))
    got = state.apply_circuit(circuit)
    if not gates:
        assert got is state
    assert state.apply_circuit(LayeredCircuit(m, ((), ()))) is state  # layers without gates
    want = state.rows
    for gate in gates:
        want = conjugated_rows_per_step(want, m, gate)
    assert got.rows == want
    assert all((new is old) == (new == old) for new, old in zip(got.rows, state.rows))
    for row, new in zip(state.rows, got.rows):
        x, z, sign = row.x, row.z, row.sign
        for gate in gates:
            steps = [(gate.name, (0, 1)[: len(gate.qubits)])] if gate.name else gate.word
            for name, locs in steps:
                x, z, sign = chp_conjugate(x, z, sign, name, tuple(gate.qubits[p] for p in locs))
        assert (new.x, new.z, new.sign) == (x, z, sign)
    v = random_state(m, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    uv = apply_circuit_vec(v, circuit)
    for row, new in zip(state.rows, got.rows):
        assert np.abs(apply_pauli_vec(uv, new) - apply_circuit_vec(apply_pauli_vec(v, row), circuit)).max() <= 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_vector_marginal_matches_the_density_matrix_trace(m, real, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(2**m) if real else random_state(m, rng)
    psi = psi / np.linalg.norm(psi)
    # at most 6 wires: a larger region would add a second 2^m-square matrix beside the oracle's
    region = data.draw(st.permutations(range(m)))[: data.draw(st.integers(0, min(m, 6)))]
    got = states.marginal(psi, region)
    assert got.shape == (2 ** len(region),) * 2
    assert np.allclose(got, vector_marginal_via_rho(psi, region), rtol=0, atol=1e-12)


def test_dense_reads_build_no_pauli_matrix(no_dense_operators):
    """Marginals, the code projector and the gentle report fold rows instead."""
    group = five_qubit_code().group
    mixture = zero_mixture(5).apply_circuit(random_low_depth(5, 2, family="clifford", seed=1))
    want = mixture_rho([(r.letters(), r.sign) for r in mixture.rows], 5)
    assert np.abs(mixture.dense_rho() - want).max() <= 1e-12
    assert np.abs(mixture.marginal((3, 0)) - partial_trace_naive(want, (0, 3), 5)).max() <= 1e-12
    assert gentle_measurement_report(mixture, group, (0, 5, 6)).holds
    rep = trace_distance_to_code(mixture, group)
    assert rep["cross_check"] == pytest.approx(rep["f_squared"], abs=1e-12)


# --- the backend dispatch layer: one answer whatever the backend ---


def _same_rho(a, b):
    return np.allclose(states.density_matrix(a), states.density_matrix(b), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(clifford_mixtures(pure=True), st.data())
def test_dispatch_agrees_on_mixture_vector_and_rho(state, data):
    vec, rho = state.dense_vector(), state.dense_rho()
    forms = (state, vec, rho)
    p = data.draw(_paulis(state.m))
    size = data.draw(st.integers(1, state.m))
    region = data.draw(st.permutations(range(state.m)))[:size]  # unsorted on purpose
    for form in forms:
        assert states.num_qubits(form) == state.m
        assert states.expectation(form, p) == pytest.approx(state.expectation(p), abs=1e-12)
        assert _same_rho(conjugate(form, p), conjugate_pauli_mixture(state, p))
        assert np.allclose(states.marginal(form, region), state.marginal(region), atol=1e-12)
        assert np.allclose(states.density_matrix(form), rho, atol=1e-12)
        assert states.entropy(form) == pytest.approx(0.0, abs=1e-9)
    for form in (state, vec):
        assert np.allclose(rho_from_vector(states.vector(form)), rho, atol=1e-12)
        prob, post = states.project(form, p)
        want_prob, want_post = state.project_pauli(p)
        assert prob == pytest.approx(want_prob, abs=1e-12)
        assert (post is None) == (want_post is None)
        if post is not None:
            assert _same_rho(post, want_post)
    with pytest.raises(ValueError):
        states.vector(rho)


@settings(max_examples=40, deadline=None)
@given(clifford_mixtures(), st.data())
def test_dispatch_agrees_on_mixed_mixture_and_rho(state, data):
    rho = state.dense_rho()
    p = data.draw(_paulis(state.m))
    for form in (state, rho):
        assert states.num_qubits(form) == state.m
        assert states.expectation(form, p) == pytest.approx(state.expectation(p), abs=1e-12)
        assert _same_rho(conjugate(form, p), conjugate_pauli_mixture(state, p))
        assert states.entropy(form) == pytest.approx(state.m - state.rank, abs=1e-9)
    assert isinstance(states.entropy(state), float)


def _random_rho(m, rng):
    a = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=40, deadline=None)
@given(clifford_mixtures(max_m=5), st.sampled_from(("clifford", "haar")), st.integers(0, 2**16))
def test_apply_circuit_dispatch_agrees_across_backends(state, family, seed):
    circ = random_low_depth(state.m, 2, family=family, seed=seed)
    rho = state.dense_rho()
    unitary = circuit_unitary_naive(circ, gate_matrix)
    want = unitary @ rho @ unitary.conj().T
    rotated = states.apply_circuit(state, circ)
    assert isinstance(rotated, StabilizerMixture) == circ.is_clifford
    assert np.abs(states.density_matrix(rotated) - want).max() <= 1e-12
    assert np.abs(states.apply_circuit(rho, circ) - want).max() <= 1e-12
    if state.is_pure:
        psi = states.apply_circuit(state.dense_vector(), circ)
        assert psi.ndim == 1 and np.abs(rho_from_vector(psi) - want).max() <= 1e-12
    with pytest.raises(ValueError, match="circuit acts on"):
        states.apply_circuit(state, random_low_depth(state.m + 1, 1, seed=seed))


@pytest.mark.parametrize(
    "apply, circuit",
    [
        (zero_mixture(3).apply_circuit, LayeredCircuit(4, ((Gate(qubits=(0, 3), name="CZ"),),))),
        (zero_mixture(3).apply_circuit, LayeredCircuit(5, ((Gate(qubits=(4,), name="H"),),))),
        (lambda circuit: apply_circuit_vec(zero_vector(3), circuit), random_low_depth(5, 1, seed=0)),
    ],
    ids=["mixture-cz-past-the-last-wire", "mixture-h-past-the-last-wire", "vector-five-wire-circuit"],
)
def test_circuit_kernels_reject_another_width(apply, circuit):
    """The tableau and the dense kernel check the circuit's width themselves."""
    with pytest.raises(ValueError, match=f"circuit acts on {circuit.m} wires, state has 3"):
        apply(circuit)


@settings(max_examples=40, deadline=None)
@given(clifford_mixtures(max_m=5, pure=True), st.integers(0, 3))
def test_extend_appends_zero_wires_on_both_backends(state, extra):
    psi = state.dense_vector()
    grown = states.extend(state, extra)
    assert isinstance(grown, StabilizerMixture) and grown.m == state.m + extra
    dense = states.extend(psi, extra)
    assert np.array_equal(dense, np.kron(psi, basis_vector(extra, 0)))
    assert np.abs(states.density_matrix(grown) - rho_from_vector(dense)).max() <= 1e-12
    with pytest.raises(ValueError, match="state vector is required"):
        states.extend(rho_from_vector(psi), extra)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 7), st.data())
def test_conjugate_pauli_rho_matches_kron_chain(m, data):
    rho = _random_rho(m, np.random.default_rng(data.draw(st.integers(0, 2**16))))
    p = data.draw(_paulis(m))
    p_mat = pauli_matrix(p.letters(), p.sign)
    assert np.abs(conjugate_pauli_rho(rho, p) - p_mat @ rho @ p_mat).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_dense_dephase_matches_the_group_sum(m, data):
    """Any ops, commuting or not, and the vector form of a pure input."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ops = data.draw(st.lists(_paulis(m), max_size=4))
    rho = _random_rho(m, rng)
    assert np.abs(states.dephase(rho, ops) - dephase_group_sum(rho, ops)).max() <= 1e-12
    psi = random_state(m, rng)
    want = dephase_group_sum(rho_from_vector(psi), ops)
    assert np.abs(states.dephase(psi, ops) - want).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(clifford_mixtures(), st.data())
def test_mixture_dephase_matches_the_group_sum(state, data):
    ops = data.draw(st.lists(_paulis(state.m), max_size=4))
    got = states.dephase(state, ops)
    assert isinstance(got, StabilizerMixture)
    StabilizerMixture(got.m, got.rows)  # independent commuting rows
    want = dephase_group_sum(state.dense_rho(), ops)
    assert np.abs(mixture_rho([(r.letters(), r.sign) for r in got.rows], state.m) - want).max() <= 1e-12


def test_dephase_without_ops_returns_the_state():
    mixture = zero_mixture(2)
    rho = rho_from_vector(zero_vector(2))
    assert states.dephase(mixture, []) is mixture
    assert states.dephase(rho, []) is rho


@pytest.mark.parametrize("name", ["five_qubit", "toric2"])
def test_decohere_branch_map_same_for_mixture_and_vector(name):
    group = build_code(name).group
    for seed in range(6):
        circ = random_low_depth(group.n, seed % 3, family="clifford", seed=seed)
        mixture = zero_mixture(group.n).apply_circuit(circ)
        exact = decohere(mixture, group)
        dense = decohere(mixture.dense_vector(), group)
        assert [bits for bits, _, _ in exact.branches] == [bits for bits, _, _ in dense.branches]
        for (_, p_exact, _), (_, p_dense, _) in zip(exact.branches, dense.branches):
            assert p_dense == pytest.approx(p_exact, abs=1e-12)
