import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablab.codes import build_code, five_qubit_code, surface_code, toric_code
from stablab.hamiltonians import build_code_hamiltonian, energy_report
from stablab.paulis import StabilizerGroup, from_letters
from stablab.states import (
    StabilizerMixture,
    apply_circuit_vec,
    apply_pauli_vec,
    dense_qubit_limit,
    fidelity,
    group_mixture,
    partial_trace,
    zero_mixture,
)
from stablab.syndrome import (
    build_syndrome_circuit,
    check_colors,
    coherent_extension,
    decohere,
    gentle_measurement_report,
)
from oracles import (
    basis_vector,
    circuit_unitary_naive,
    coherent_extension_by_sectors,
    conjugate_pauli_mixture,
    signed_commuting_groups,
    mixture_rho,
    pauli_matrix,
    projector_from_strings,
    single,
    syndrome_of,
    theta_by_branches,
)

from stablab.circuits import Gate, LayeredCircuit, gate_matrix, random_low_depth


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def overlap_edges(group) -> set[tuple[int, int]]:
    """Pairs i < j of checks whose supports share a qubit, read off the bits."""
    supports = [g.x | g.z for g in group.generators]
    return {(i, j) for i, j in itertools.combinations(range(len(supports)), 2) if supports[i] & supports[j]}


def degrees(group) -> list[int]:
    edges = overlap_edges(group)
    return [sum(i in edge for edge in edges) for i in range(len(group.generators))]


def test_five_qubit_checks_overlap_pairwise_and_take_four_colors():
    group = five_qubit_code().group
    assert overlap_edges(group) == set(itertools.combinations(range(4), 2))
    assert sorted(check_colors(group)) == [0, 1, 2, 3]


def test_disjoint_checks_take_one_color():
    group = StabilizerGroup([from_letters("ZZII"), from_letters("IIZZ")])
    assert overlap_edges(group) == set()
    assert check_colors(group) == (0, 0)


def test_max_degree_at_most_locality_squared():
    for code in (five_qubit_code(), toric_code(2), toric_code(3), surface_code(2), surface_code(3)):
        assert max(degrees(code.group)) <= code.group.locality**2


def test_check_colors_proper_bounded_and_deterministic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        checks = []
        for _ in range(int(rng.integers(2, 7))):
            # random low-weight Z-type strings, always commute
            support = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            z = 0
            for q in support:
                z |= 1 << int(q)
            checks.append(from_letters("".join("Z" if (z >> q) & 1 else "I" for q in range(n))))
        group = StabilizerGroup(checks)
        colors = check_colors(group)
        assert len(colors) == len(checks)
        for a, b in overlap_edges(group):
            assert colors[a] != colors[b]
        assert max(colors) + 1 <= max(degrees(group)) + 1
        assert colors == check_colors(group)


def test_single_weight_one_check_circuit():
    group = StabilizerGroup([from_letters("Z")])
    built = build_syndrome_circuit(group)
    assert built.depth == 3  # H, one controlled gate, H
    assert built.circuit.m == 2
    # |1> flags the check: output ancilla reads 1
    out = apply_circuit_vec(basis_vector(2, (1, 0)), built.circuit)
    expected = basis_vector(2, (1, 1))
    assert np.allclose(out, expected, atol=1e-12)
    # |0> leaves the ancilla at 0
    out0 = apply_circuit_vec(basis_vector(2, (0, 0)), built.circuit)
    assert np.allclose(out0, basis_vector(2, (0, 0)), atol=1e-12)


def test_five_qubit_circuit_depth_and_bounds():
    group = five_qubit_code().group
    built = build_syndrome_circuit(group)
    assert built.circuit.m == 9
    assert built.depth == 18  # 4 colors x weight 4 + two H layers
    assert built.depth <= built.depth_bound_constructive == 4 * 4 + 2
    # colors <= maxdeg + 1 <= ell^2 + 1, so the schedule never exceeds
    assert built.depth_bound_constructive <= 4 * (4**2 + 1) + 2
    assert built.depth <= built.depth_bound_statement == 2 * 4**3


def test_circuit_matches_projector_decomposition():
    """V(phi x |0^N>) == sum_s (D_s phi) x |s> with oracle-built D_s."""
    code = five_qubit_code()
    group = code.group
    built = build_syndrome_circuit(group)
    unitary = circuit_unitary_naive(built.circuit, gate_matrix)
    letters = [g.letters() for g in group.generators]
    for seed in (0, 1, 2):
        phi = random_state(5, seed)
        inp = np.kron(phi, basis_vector(4, 0))
        got = unitary @ inp
        expected = np.zeros(2**9, dtype=complex)
        for s in itertools.product((0, 1), repeat=4):
            signs = [(-1) ** b * g.sign for b, g in zip(s, group.generators)]
            ds = projector_from_strings(letters, signs)
            packed = int("".join(str(b) for b in s), 2)
            expected[packed :: 2**4] += ds @ phi
        assert np.allclose(got, expected, atol=1e-10)
        # the standalone extension helper agrees with the circuit
        assert np.allclose(coherent_extension(phi, group), expected, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(signed_commuting_groups(max_n=4, max_checks=2), st.sampled_from(("clifford", "haar")), st.integers(0, 2**16))
def test_dense_coherent_extension_matches_the_sector_sum(group, family, seed):
    """The extraction circuit on a dense vector against kron-chain sector projectors."""
    assume(group.generators)
    phi = apply_circuit_vec(random_state(group.n, seed), random_low_depth(group.n, 2, family=family, seed=seed))
    got = coherent_extension(phi, group)
    assert np.abs(got - coherent_extension_by_sectors(phi, group)).max() <= 1e-12


@pytest.mark.parametrize("name", ["five_qubit", "surface5"])
def test_dense_coherent_extension_matches_the_sector_sum_on_codes(name):
    group = build_code(name).group
    for seed in range(3):
        phi = random_state(group.n, seed)
        assert np.abs(coherent_extension(phi, group) - coherent_extension_by_sectors(phi, group)).max() <= 1e-12


def test_mixture_coherent_extension_matches_the_dense_one():
    group = five_qubit_code().group
    for seed in range(4):
        circ = random_low_depth(5, seed % 3, family="clifford", seed=seed)
        mixture = zero_mixture(5).apply_circuit(circ)
        extended = coherent_extension(mixture, group)
        assert isinstance(extended, StabilizerMixture) and extended.m == 9
        psi = coherent_extension(mixture.dense_vector(), group)
        # a pure mixture is the one state every row stabilizes
        assert extended.is_pure
        for row in extended.rows:
            assert np.abs(apply_pauli_vec(psi, row) - psi).max() <= 1e-12


def test_code_state_leaves_ancillas_clear():
    """Tableau run: code input, every ancilla ends in |0>."""
    group = five_qubit_code().group
    built = build_syndrome_circuit(group)
    mix = group_mixture(group).extend(4)
    out = mix.apply_circuit(built.circuit)
    for i in range(4):
        assert out.expectation(single(9, 5 + i, "Z")) == 1.0
    for g in group.generators:
        embedded = from_letters(g.letters() + "IIII")
        assert out.expectation(embedded) == 1.0


def test_negative_sign_check_gets_z_layer():
    group = StabilizerGroup([from_letters("-Z")])
    built = build_syndrome_circuit(group)
    assert built.depth == 4  # H, controlled-Z, sign Z, H
    # |0> violates -Z, so the ancilla flags it
    out = apply_circuit_vec(basis_vector(2, (0, 0)), built.circuit)
    assert np.allclose(out, basis_vector(2, (0, 1)), atol=1e-12)
    out1 = apply_circuit_vec(basis_vector(2, (1, 0)), built.circuit)
    assert np.allclose(out1, basis_vector(2, (1, 0)), atol=1e-12)


def test_decohere_code_state_single_branch():
    group = five_qubit_code().group
    dec = decohere(group_mixture(group), group)
    assert len(dec.branches) == 1
    bits, p, state = dec.branches[0]
    assert bits == (0, 0, 0, 0)
    assert p == pytest.approx(1.0)


def test_decohere_single_error_single_branch():
    code = toric_code(2)
    group = code.group
    err = single(group.n, 0, "X")
    state = conjugate_pauli_mixture(group_mixture(group), err)
    dec = decohere(state, group)
    assert len(dec.branches) == 1
    bits, p, branch = dec.branches[0]
    assert bits == syndrome_of(group, err)
    assert p == pytest.approx(1.0)
    # branch expectations read back the syndrome exactly
    for b, g in zip(bits, group.generators):
        assert branch.expectation(g) == (-1.0) ** b


def test_decohere_plus_state_uniform():
    group = StabilizerGroup([from_letters("Z")])
    hadamard = LayeredCircuit(m=1, layers=((Gate(qubits=(0,), name="H"),),))
    plus = zero_mixture(1).apply_circuit(hadamard)
    dec = decohere(plus, group)
    assert [(bits, p) for bits, p, _ in dec.branches] == [((0,), 0.5), ((1,), 0.5)]


def test_average_syndrome_weight_is_total_energy():
    group = five_qubit_code().group
    ham = build_code_hamiltonian(group)
    for seed in range(6):
        phi = random_state(5, 100 + seed)
        dec = decohere(phi, group)
        assert dec.total_probability == pytest.approx(1.0, abs=1e-12)
        energy = energy_report(phi, ham).total
        average_weight = sum(p * sum(bits) for bits, p, _ in dec.branches)
        assert average_weight == pytest.approx(energy, abs=1e-9)


def test_average_syndrome_weight_mixture_backend():
    group = toric_code(2).group
    ham = build_code_hamiltonian(group)
    for seed in range(4):
        circ = random_low_depth(8, depth=3, family="clifford", seed=50 + seed)
        state = zero_mixture(8).apply_circuit(circ)
        dec = decohere(state, group)
        assert dec.total_probability == pytest.approx(1.0, abs=1e-12)
        energy = energy_report(state, ham).total
        average_weight = sum(p * sum(bits) for bits, p, _ in dec.branches)
        assert average_weight == pytest.approx(energy, abs=1e-9)


def test_decohere_order_invariant():
    group = five_qubit_code().group
    perm = (2, 0, 3, 1)
    permuted = StabilizerGroup([group.generators[i] for i in perm])
    phi = random_state(5, 11)
    base = {s: p for s, p, _ in decohere(phi, group).branches}
    other = {}
    for s, p, _ in decohere(phi, permuted).branches:
        unshuffled = tuple(s[perm.index(i)] for i in range(4))
        other[unshuffled] = p
    assert set(base) == set(other)
    for s in base:
        assert base[s] == pytest.approx(other[s], abs=1e-12)

    mix_base = {s: p for s, p, _ in decohere(group_mixture(group), group).branches}
    assert mix_base == {(0, 0, 0, 0): 1.0}


def test_decohered_branches_are_sorted_syndromes():
    group = five_qubit_code().group
    dec = decohere(random_state(5, 21), group)
    syndromes = [bits for bits, _, _ in dec.branches]
    assert all(len(bits) == 4 and set(bits) <= {0, 1} for bits in syndromes)
    assert syndromes == sorted(set(syndromes))
    assert sum(p for _, p, _ in dec.branches) == pytest.approx(1.0)


def test_decohere_branches_live_in_their_sector():
    group = five_qubit_code().group
    phi = random_state(5, 33)
    for bits, p, branch in decohere(phi, group).branches:
        for b, g in zip(bits, group.generators):
            letters = g.letters()
            mat = projector_from_strings([letters], [(-1) ** b * g.sign])
            assert np.allclose(mat @ branch, branch, atol=1e-10)


def test_gentle_measurement_code_state():
    group = five_qubit_code().group
    mix = group_mixture(group).with_rows([from_letters("XXXXX")])
    report = gentle_measurement_report(mix, group, region=(0, 1, 5, 6))
    assert report.sma_checks == (0, 1)
    assert report.bound == pytest.approx(1.0)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)
    assert report.holds


def test_gentle_measurement_data_only_region_exact():
    group = five_qubit_code().group
    phi = random_state(5, 4)
    report = gentle_measurement_report(phi, group, region=(0, 2, 4))
    assert report.sma_checks == ()
    assert report.bound == pytest.approx(1.0)
    # no ancillas in the region: coherent and decohered marginals coincide
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)


def test_gentle_measurement_random_sweep():
    group = five_qubit_code().group
    rng = np.random.default_rng(9)
    regions = [(5,), (0, 5), (0, 1, 6, 7), (2, 3, 4, 8), (0, 1, 2, 3, 4, 5, 6, 7, 8)]
    for seed in range(10):
        phi = random_state(5, 200 + seed)
        region = regions[seed % len(regions)]
        report = gentle_measurement_report(phi, group, region)
        assert report.holds, (seed, region, report)


def test_gentle_measurement_region_validation():
    group = five_qubit_code().group
    with pytest.raises(ValueError, match="region"):
        gentle_measurement_report(random_state(5, 1), group, region=(9,))


def _dense_rho(state, m):
    if isinstance(state, StabilizerMixture):
        return mixture_rho([(r.letters(), r.sign) for r in state.rows], m)
    return np.outer(state, state.conj())


def _gentle_by_branches(phi, group, region):
    """(fidelity, bound) with Theta summed over the decohered branches, densely."""
    n, N = group.n, len(group.generators)
    branches = [(bits, p, _dense_rho(b, n)) for bits, p, b in decohere(phi, group).branches]
    theta_r = partial_trace(theta_by_branches(branches, n, N), region)
    psi_r = partial_trace(_dense_rho(coherent_extension(phi, group), n + N), region)
    rho = _dense_rho(phi, n)
    eps = [(1 - np.trace(pauli_matrix(g.letters(), g.sign) @ rho).real) / 2 for g in group.generators]
    return fidelity(psi_r, theta_r), 1.0 - sum(eps[q - n] for q in region if q >= n)


def test_gentle_measurement_matches_the_branch_sum():
    """Pure and mixed five_qubit mixtures and vectors, regions with and without ancillas."""
    group = five_qubit_code().group
    rng = np.random.default_rng(17)
    for seed in range(12):
        pure = zero_mixture(5).apply_circuit(random_low_depth(5, seed % 3, family="clifford", seed=seed))
        phi = (pure, StabilizerMixture(5, pure.rows[: seed % 5]), random_state(5, seed))[seed % 3]
        size = int(rng.integers(0, 10))
        region = tuple(sorted(rng.choice(9, size=size, replace=False).tolist()))
        report = gentle_measurement_report(phi, group, region)
        want_fid, want_bound = _gentle_by_branches(phi, group, region)
        assert report.fidelity == pytest.approx(want_fid, abs=1e-10), (seed, region)
        assert report.bound == pytest.approx(want_bound, abs=1e-12), (seed, region)
        assert report.holds, (seed, region)


def test_gentle_measurement_past_the_dense_limit():
    """toric3 has n + N = 36 wires; a mixture is read only on its region."""
    group = toric_code(3).group
    assert group.n + len(group.generators) > dense_qubit_limit()
    state = zero_mixture(18).apply_circuit(random_low_depth(18, 2, family="clifford", seed=5))
    data_only = gentle_measurement_report(state, group, region=(0, 1, 7, 12))
    assert data_only.sma_checks == () and data_only.bound == 1.0
    assert data_only.fidelity == pytest.approx(1.0, abs=1e-12)
    assert data_only.holds
    with_ancillas = gentle_measurement_report(state, group, region=(0, 18, 19, 30))
    assert with_ancillas.sma_checks == (0, 1, 12)
    assert with_ancillas.holds
