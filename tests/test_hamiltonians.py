import json

import numpy as np
import pytest
from click.testing import CliRunner

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conjugate_pauli_mixture,
    gf2_rank_naive,
    pauli_matrix,
    project_eigenspace,
    single,
    sparsifier_deviation_per_sample,
    sparsify_per_row,
)
from stablab.cli import main
from stablab.circuits import random_low_depth
from stablab import hamiltonians
from stablab.codes import build_code, five_qubit_code, toric_code
from stablab.hamiltonians import (
    MAX_AMPLIFIED_TUPLES,
    MAX_GAP_DEPTH,
    MAX_SPARSIFIER_SAMPLES,
    amplification_gap_check,
    amplified_energy,
    amplify,
    attainable_syndromes,
    build_code_hamiltonian,
    dense_g,
    dense_hamiltonian,
    dense_sparsified_g,
    energy_report,
    energy_value,
    sparsifier_deviation,
    sparsifier_sample_count,
    sparsify,
    spectral_deviation,
)
from stablab.paulis import StabilizerGroup, from_letters
from stablab import suites
from stablab.suites import SUITES
from stablab.states import (
    apply_circuit_vec,
    dense_qubit_limit,
    group_mixture,
    zero_mixture,
    zero_vector,
)


def spectrum(ham) -> tuple[tuple[float, int], ...]:
    """Exact spectrum as (energy, multiplicity) pairs via syndrome weights."""
    syndromes = attainable_syndromes(ham.group)
    counts = np.bincount(np.bitwise_count(syndromes))
    sector_dim = 2**ham.n // len(syndromes)
    scale = 1.0 / ham.n_terms if ham.normalization == "mean" else 1.0
    return tuple((w * scale, int(c) * sector_dim) for w, c in enumerate(counts) if c)


def dense_amplified(amp) -> np.ndarray:
    """H^(p) = I - (I - H)^p as a dense matrix."""
    h = dense_hamiltonian(amp.base)
    dim = h.shape[0]
    return np.eye(dim) - np.linalg.matrix_power(np.eye(dim) - h, amp.p)


def dense_hamiltonian_oracle(group, normalization="sum"):
    # independent route: literal kron chains per generator
    n = group.n
    out = np.zeros((2**n, 2**n), dtype=complex)
    for g in group.generators:
        out += (np.eye(2**n) - pauli_matrix(g.letters(), g.sign)) / 2
    if normalization == "mean":
        out /= len(group.generators)
    return out


def test_dense_hamiltonian_matches_oracle():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    assert np.allclose(dense_hamiltonian(ham), dense_hamiltonian_oracle(code.group), atol=1e-12)
    mean = build_code_hamiltonian(code.group, "mean")
    assert np.allclose(dense_hamiltonian(mean), dense_hamiltonian_oracle(code.group, "mean"), atol=1e-12)
    with pytest.raises(ValueError, match="normalization"):
        build_code_hamiltonian(code.group, "max")


def test_toric_terms_commute_densely():
    # L=2 is small enough to check every pair as matrices
    group = toric_code(2).group
    mats = [pauli_matrix(g.letters(), g.sign) for g in group.generators]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i], atol=1e-12)
    ham = build_code_hamiltonian(group)
    assert ham.n_terms == 8
    assert ham.locality == 4


def test_five_qubit_spectrum_is_syndrome_weights():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    pairs = spectrum(ham)
    # 16 syndromes on 4 independent checks, each sector dimension 2
    assert sum(mult for _, mult in pairs) == 32
    assert [e for e, _ in pairs] == [0.0, 1.0, 2.0, 3.0, 4.0]
    dense_vals = np.sort(np.linalg.eigvalsh(dense_hamiltonian(ham)))
    rebuilt = np.sort(np.concatenate([[e] * m for e, m in pairs]))
    assert np.allclose(dense_vals, rebuilt, atol=1e-9)


def test_toric2_spectrum_with_dependent_checks():
    ham = build_code_hamiltonian(toric_code(2).group)
    pairs = spectrum(ham)
    assert sum(mult for _, mult in pairs) == 2**8
    dense_vals = np.sort(np.linalg.eigvalsh(dense_hamiltonian(ham)))
    rebuilt = np.sort(np.concatenate([[e] * m for e, m in pairs]))
    assert np.allclose(dense_vals, rebuilt, atol=1e-9)
    # stars multiply to identity, same for plaquettes: weights come in pairs
    assert all(float(e).is_integer() and int(e) % 2 == 0 for e, _ in pairs)


def test_energy_report_toric3_zero_state():
    code = build_code("toric3")
    ham = build_code_hamiltonian(code.group)
    report = energy_report(zero_mixture(18), ham)
    # Z-checks are satisfied by |0...0>, each of the 9 X-checks costs 1/2
    assert np.isclose(report.total, 4.5)
    halves = [e for e in report.per_term if np.isclose(e, 0.5)]
    zeros = [e for e in report.per_term if np.isclose(e, 0.0)]
    assert len(halves) == 9 and len(zeros) == 9

    ground = group_mixture(code.group)
    assert np.isclose(energy_report(ground, ham).total, 0.0)


def test_energy_report_single_toric_error():
    code = build_code("toric3")
    ham = build_code_hamiltonian(code.group)
    state = conjugate_pauli_mixture(group_mixture(code.group), single(18, 0, "X"))
    report = energy_report(state, ham)
    assert np.isclose(report.total, 2.0)
    assert sum(1 for e in report.per_term if np.isclose(e, 1.0)) == 2
    # the violated checks are Z-type (plaquettes adjacent to edge 0)
    syndrome = code.group.syndrome_of(single(18, 0, "X"))
    violated = [i for i, b in enumerate(syndrome) if b]
    for i in violated:
        assert np.isclose(report.per_term[i], 1.0)


def test_energy_report_dense_and_tableau_agree():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    for seed in range(5):
        circ = random_low_depth(5, 2, family="clifford", seed=seed)
        mixture = zero_mixture(5).apply_circuit(circ)
        dense = apply_circuit_vec(zero_vector(5), circ)
        r1 = energy_report(mixture, ham)
        r2 = energy_report(dense, ham)
        assert np.allclose(r1.per_term, r2.per_term, atol=1e-10)


def test_energy_report_with_code_qubits_embedding():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    state = group_mixture(code.group).extend(2)
    report = energy_report(state, ham, code_qubits=range(5))
    assert np.isclose(report.total, 0.0)
    with pytest.raises(ValueError, match="code_qubits"):
        energy_report(state, ham)
    with pytest.raises(ValueError, match="code_qubits"):
        energy_report(state, ham, code_qubits=[0, 1])


def test_width_errors_name_code_qubits_only_where_it_can_be_passed():
    code = five_qubit_code()
    mean = build_code_hamiltonian(code.group, "mean")
    state = zero_mixture(6)
    for call in (
        lambda: amplified_energy(state, amplify(mean, 2)),
        lambda: energy_value(state, mean),
        lambda: amplification_gap_check(state, mean, 2, 1),
    ):
        with pytest.raises(ValueError, match="state has 6 qubits but the code needs 5") as err:
            call()
        assert "code_qubits" not in str(err.value)
    with pytest.raises(ValueError, match="code needs 5; pass code_qubits"):
        energy_report(state, mean)


def test_project_eigenspace_code_state():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    ground = group_mixture(code.group)
    prob, state = project_eigenspace(ground, ham, [0, 0, 0, 0])
    assert np.isclose(prob, 1.0)
    assert state.rows == ground.rows


def test_project_eigenspace_error_state():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    err = single(5, 2, "X")
    state = conjugate_pauli_mixture(group_mixture(code.group), err)
    s = code.group.syndrome_of(err)
    prob, projected = project_eigenspace(state, ham, s)
    assert np.isclose(prob, 1.0)
    wrong = list(s)
    wrong[0] ^= 1
    prob, projected = project_eigenspace(state, ham, wrong)
    assert prob == 0.0 and projected is None


def test_project_eigenspace_completeness_dense():
    # uniform superposition: probabilities over all syndromes sum to 1
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    psi = np.ones(2**5, dtype=complex) / np.sqrt(2**5)
    total = 0.0
    for s_int in range(16):
        s = [(s_int >> i) & 1 for i in range(4)]
        prob, _ = project_eigenspace(psi, ham, s)
        total += prob
    assert np.isclose(total, 1.0, atol=1e-10)
    with pytest.raises(ValueError, match="syndrome length"):
        project_eigenspace(psi, ham, [0, 1])


def test_project_eigenspace_inconsistent_syndrome_on_dependent_checks():
    # toric L=2 star checks multiply to identity: odd star syndromes vanish
    ham = build_code_hamiltonian(toric_code(2).group)
    psi = np.ones(2**8, dtype=complex) / np.sqrt(2**8)
    s = [1, 0, 0, 0, 0, 0, 0, 0]  # single violated star is impossible
    prob, state = project_eigenspace(psi, ham, s)
    assert prob == 0.0 and state is None


def test_amplify_p1_is_identity_map():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    amp = amplify(ham, 1)
    assert np.allclose(dense_amplified(amp), dense_hamiltonian(ham), atol=1e-12)
    with pytest.raises(ValueError, match="power"):
        amplify(ham, 0)
    with pytest.raises(ValueError, match="mean"):
        amplify(build_code_hamiltonian(code.group, "sum"), 2)


def test_dense_amplified_matches_tuple_expansion_oracle():
    # oracle: I - mean over all p-tuples of dense projector products
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    n, N = 5, 4
    projs = [
        (np.eye(2**n) + pauli_matrix(g.letters(), g.sign)) / 2 for g in code.group.generators
    ]
    for p in (2, 3):
        total = np.zeros((2**n, 2**n), dtype=complex)
        count = 0
        for flat in range(N**p):
            mat = np.eye(2**n, dtype=complex)
            rem = flat
            for _ in range(p):
                mat = mat @ projs[rem % N]
                rem //= N
            total += mat
            count += 1
        oracle = np.eye(2**n) - total / count
        assert np.allclose(dense_amplified(amplify(ham, p)), oracle, atol=1e-12)


def test_amplified_energy_stabilizer_matches_dense():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    for seed in range(4):
        circ = random_low_depth(5, 1, family="clifford", seed=seed)
        mixture = zero_mixture(5).apply_circuit(circ)
        dense_state = apply_circuit_vec(zero_vector(5), circ)
        for p in (1, 2, 3):
            amp = amplify(ham, p)
            fast = amplified_energy(mixture, amp)
            h_mat = dense_amplified(amp)
            slow = float(np.vdot(dense_state, h_mat @ dense_state).real)
            assert np.isclose(fast, slow, atol=1e-10), (seed, p)


def test_amplified_energy_dense_state_path():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(2**5) + 1j * rng.standard_normal(2**5)
    psi /= np.linalg.norm(psi)
    amp = amplify(ham, 2)
    fast = amplified_energy(psi, amp)
    slow = float(np.vdot(psi, dense_amplified(amp) @ psi).real)
    assert np.isclose(fast, slow, atol=1e-10)


def test_amplification_gap_check_ground_state():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    report = amplification_gap_check(group_mixture(code.group), ham, p=2, t=0)
    assert np.isclose(report.lhs, 0.0, atol=1e-12)
    assert report.rhs <= 0
    assert report.holds


def test_amplification_gap_check_toric2_zero_state():
    ham = build_code_hamiltonian(toric_code(2).group, "mean")
    report = amplification_gap_check(zero_mixture(8), ham, p=2, t=0)
    assert report.holds
    assert report.base_energy > 0


def test_amplification_gap_check_random_sweep():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group)
    for seed in range(20):
        t = seed % 2
        circ = random_low_depth(5, t, family="clifford", seed=seed)
        state = zero_mixture(5).apply_circuit(circ)
        for p in (2, 3):
            report = amplification_gap_check(state, ham, p=p, t=t)
            assert report.holds, (seed, p)


def test_sparsify_reproducible_and_trivial_cases():
    code = five_qubit_code()
    ham = build_code_hamiltonian(code.group, "mean")
    amp = amplify(ham, 2)
    s1 = sparsify(amp, 10, seed=7)
    s2 = sparsify(amp, 10, seed=7)
    assert s1.sampled_indices == s2.sampled_indices
    assert s1.k_samples == 10
    assert all(len(t) == 2 for t in s1.sampled_indices)
    with pytest.raises(ValueError):
        sparsify(amp, 0)
    # delta = 1e-4 asks for 1.6e10 tuples; rejected before anything is drawn
    for k in (MAX_SPARSIFIER_SAMPLES + 1, sparsifier_sample_count(5, 1e-4, 4)):
        with pytest.raises(ValueError, match="exceed the cap"):
            sparsify(amp, k)

    # all terms identical -> G' = G for any sampling
    rep = StabilizerGroup((from_letters("ZZ"), from_letters("ZZ"), from_letters("ZZ")))
    amp_rep = amplify(build_code_hamiltonian(rep, "mean"), 2)
    sp = sparsify(amp_rep, 3, seed=0)
    assert np.allclose(dense_sparsified_g(sp), dense_g(amp_rep), atol=1e-12)


def test_spectral_deviation_basics():
    a = np.diag([1.0, 2.0, 3.0])
    assert spectral_deviation(a, a) == 0.0
    assert np.isclose(spectral_deviation(a + 0.5 * np.eye(3), a), 0.5)


def test_sparsified_deviation_against_eigen_oracle():
    code = five_qubit_code()
    amp = amplify(build_code_hamiltonian(code.group, "mean"), 1)
    sp = sparsify(amp, 25, seed=11)
    g, gp = dense_g(amp), dense_sparsified_g(sp)
    fast = spectral_deviation(g, gp)
    oracle = float(np.max(np.abs(np.linalg.eigvalsh(g - gp))))
    assert np.isclose(fast, oracle, atol=1e-10)


def test_sparsifier_sample_count_formula():
    assert sparsifier_sample_count(5, 0.25, 4) == 5 * 512
    # log2(n)/ell branch dominates for large n, tame delta
    n = 2**20
    assert sparsifier_sample_count(n, 8.0, 1) == n * 20
    # delta^2 past the float range leaves only the log2(n)/ell term
    assert sparsifier_sample_count(n, 1e200, 4) == n * 5
    for delta in (1e-300, 0.0, float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            sparsifier_sample_count(5, delta, 4)


def test_sparsify_five_qubit_quality_sweep():
    # at the prescribed sample count, most seeds land within delta = 0.25
    code = five_qubit_code()
    amp = amplify(build_code_hamiltonian(code.group, "mean"), 1)
    delta = 0.25
    k = sparsifier_sample_count(5, delta, code.group.locality)
    g = dense_g(amp)
    hits = 0
    for seed in range(20):
        gp = dense_sparsified_g(sparsify(amp, k, seed=seed))
        if spectral_deviation(g, gp) <= delta:
            hits += 1
    assert hits >= 7  # lemma promises 1/3; sampling this dense it is near-certain


def test_energy_value_normalization():
    code = five_qubit_code()
    state = zero_mixture(5)
    s = energy_value(state, build_code_hamiltonian(code.group, "sum"))
    m = energy_value(state, build_code_hamiltonian(code.group, "mean"))
    assert np.isclose(s, 4 * m)


# --- the syndrome basis against independent enumerations and the dense oracle ---


# dependent checks whose attainable syndromes (s2 = s0 + s1) are not closed
# under reversing the check order, unlike those of every built-in code
ASYMMETRIC = StabilizerGroup(tuple(from_letters(c) for c in ("ZZII", "IIZZ", "ZZZZ", "XXXX")))


def _group(name):
    return ASYMMETRIC if name == "asymmetric" else build_code(name).group


def _syndrome_set_oracle(name, group):
    """Attainable syndromes (bit i for check i), found without the package's GF(2) code.

    Up to 8 qubits: the syndrome of every Pauli, by broadcasting over all
    (x, z). toric3: every syndrome with an even number of violated stars and
    of violated plaquettes. surface13: its 12 checks are independent, so
    every 12-bit syndrome.
    """
    n_checks = len(group.generators)
    if group.n <= 8:
        xs = np.arange(2**group.n, dtype=np.uint64)[:, None]
        zs = np.arange(2**group.n, dtype=np.uint64)[None, :]
        out = np.zeros((2**group.n, 2**group.n), dtype=np.uint64)
        for i, g in enumerate(group.generators):
            odd = (np.bitwise_count(xs & np.uint64(g.z)) + np.bitwise_count(zs & np.uint64(g.x))) & 1
            out |= odd.astype(np.uint64) << np.uint64(i)
        return sorted(set(out.ravel().tolist()))
    everything = np.arange(2**n_checks, dtype=np.uint64)
    if name == "toric3":
        stars = sum(1 << i for i, g in enumerate(group.generators) if g.x)
        plaquettes = sum(1 << i for i, g in enumerate(group.generators) if g.z)
        assert stars | plaquettes == 2**n_checks - 1 and stars & plaquettes == 0
        even = (np.bitwise_count(everything & np.uint64(stars)) % 2 == 0) & (
            np.bitwise_count(everything & np.uint64(plaquettes)) % 2 == 0
        )
        return everything[even].tolist()
    assert name == "surface13"
    rows = [[(g.vec >> j) & 1 for j in range(2 * group.n)] for g in group.generators]
    assert gf2_rank_naive(rows) == n_checks
    return everything.tolist()


def _deviation_oracle(syndromes, tuples, n_checks, p):
    """max_s |mean_j prod_{i in tuple_j} (1 - s_i) - (1 - |s|/N)^p| over the given syndromes."""
    s = np.array(syndromes, dtype=np.uint64)
    bits = ((s[:, None] >> np.arange(n_checks, dtype=np.uint64)) & np.uint64(1)).astype(float)
    sampled = np.zeros(len(s))
    for t in tuples:
        sampled += np.prod(1.0 - bits[:, list(t)], axis=1)
    exact = (1.0 - bits.sum(axis=1) / n_checks) ** p
    return float(np.max(np.abs(sampled / len(tuples) - exact)))


@pytest.mark.parametrize("name", ["five_qubit", "surface5", "toric2", "toric3", "surface13", "asymmetric"])
def test_attainable_syndromes_match_independent_enumeration(name, monkeypatch):
    group = _group(name)
    got = attainable_syndromes(group)
    assert got.dtype == np.uint64
    assert sorted(got.tolist()) == _syndrome_set_oracle(name, group)
    monkeypatch.setattr(hamiltonians, "MAX_SYNDROME_RANK", group.rank - 1)
    with pytest.raises(ValueError, match="sectors"):
        attainable_syndromes(group)


@pytest.mark.parametrize("name", ["five_qubit", "surface5", "toric2", "asymmetric"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sparsifier_deviation_matches_dense_oracle(name, p):
    amp = amplify(build_code_hamiltonian(_group(name), "mean"), p)
    g = dense_g(amp)
    for seed in range(3):
        sparse = sparsify(amp, 16, seed=10 * p + seed)
        dense = spectral_deviation(g, dense_sparsified_g(sparse))
        assert abs(sparsifier_deviation(sparse) - dense) <= 1e-12, (seed, dense)


@pytest.mark.parametrize("name", ["toric3", "surface13"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sparsifier_deviation_past_the_dense_cap(name, p):
    group = build_code(name).group
    assert group.n > dense_qubit_limit()
    amp = amplify(build_code_hamiltonian(group, "mean"), p)
    syndromes = _syndrome_set_oracle(name, group)
    for seed in range(2):
        sparse = sparsify(amp, 40, seed=10 * p + seed)
        want = _deviation_oracle(syndromes, sparse.sampled_indices, len(group.generators), p)
        assert abs(sparsifier_deviation(sparse) - want) <= 1e-12, seed


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["five_qubit", "surface5", "toric2", "toric3", "surface13", "asymmetric"]),
    st.integers(1, 3),
    st.integers(1, 3000),
    st.integers(0, 2**64 - 1),
)
def test_sparsify_shares_one_tuple_per_distinct_row(name, p, k, seed):
    group = _group(name)
    amp = amplify(build_code_hamiltonian(group, "mean"), p)
    sparse, frozen = sparsify(amp, k, seed=seed), sparsify_per_row(amp, k, seed)
    samples = sparse.sampled_indices
    assert samples == frozen.sampled_indices
    assert type(samples) is tuple
    assert all(type(t) is tuple and len(t) == p and all(type(i) is int for i in t) for t in samples)
    assert len({id(t) for t in samples}) == len(set(samples))
    assert sparsifier_deviation(sparse) == sparsifier_deviation_per_sample(frozen)
    if group.n <= 5:
        assert np.array_equal(dense_sparsified_g(sparse), dense_sparsified_g(frozen))


def _random_vectors(n, rng):
    complex_psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    real_psi = rng.standard_normal(2**n)
    return [v / np.linalg.norm(v) for v in (complex_psi, real_psi)]


@pytest.mark.parametrize("name", ["five_qubit", "toric2"])
def test_amplified_energy_matches_dense_on_mixtures_and_vectors(name):
    group = build_code(name).group
    n = group.n
    ham = build_code_hamiltonian(group, "mean")
    mixtures = [
        zero_mixture(n).apply_circuit(random_low_depth(n, s % 3, family="clifford", seed=s)) for s in range(3)
    ]
    mixtures.append(conjugate_pauli_mixture(group_mixture(group), single(n, 1, "Y")))  # mixed when k > 0
    vectors = _random_vectors(n, np.random.default_rng(17))
    for p in (1, 2, 3):
        amp = amplify(ham, p)
        h = dense_amplified(amp)
        for mixture in mixtures:
            want = float(np.trace(h @ mixture.dense_rho()).real)
            assert abs(amplified_energy(mixture, amp) - want) <= 1e-10, p
        for psi in vectors:
            want = float(np.vdot(psi, h @ psi).real)
            assert abs(amplified_energy(psi, amp) - want) <= 1e-10, p


def test_amplified_energy_refuses_a_density_matrix():
    group = five_qubit_code().group
    amp = amplify(build_code_hamiltonian(group, "mean"), 2)
    psi = _random_vectors(5, np.random.default_rng(8))[0]
    with pytest.raises(ValueError, match="state vector"):
        amplified_energy(np.outer(psi, psi.conj()), amp)


# --- no dense operator on the syndrome-basis production paths ---


def test_production_paths_build_no_dense_operator(no_dense_operators, monkeypatch):
    with pytest.raises(AssertionError, match="production path"):
        dense_hamiltonian(build_code_hamiltonian(five_qubit_code().group))
    monkeypatch.setattr(suites, "SPARSIFY_SEEDS", 3)
    assert SUITES["sparsification"]()["passed"]
    group = build_code("toric3").group
    ham = build_code_hamiltonian(group, "mean")
    state = zero_mixture(18).apply_circuit(random_low_depth(18, 1, family="clifford", seed=0))
    for p in (1, 2, 3):
        assert amplification_gap_check(state, ham, p, t=1).holds, p
    result = CliRunner().invoke(main, ["sparsify", "--builtin", "toric3"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["within_delta"] is True


def test_gap_check_refuses_what_leaves_the_float_range_or_the_tuple_cap():
    group = five_qubit_code().group
    ham = build_code_hamiltonian(group, "mean")
    state = zero_mixture(5)
    assert amplification_gap_check(state, ham, 1, 1000).holds
    for p, t in ((1, MAX_GAP_DEPTH + 1), (2, MAX_GAP_DEPTH), (10**200, 1)):
        with pytest.raises(ValueError, match="overflows a float"):
            amplification_gap_check(state, ham, p, t)
    # 4 checks: 4^11 = 2^22 tuples is the largest enumeration allowed
    assert 4**11 == MAX_AMPLIFIED_TUPLES
    with pytest.raises(ValueError, match="exceed the cap"):
        amplified_energy(state, amplify(ham, 12))
    single_check = build_code_hamiltonian(StabilizerGroup([from_letters("ZZ")]), "mean")
    assert amplified_energy(zero_mixture(2), amplify(single_check, 22)) == 0.0
    with pytest.raises(ValueError, match="exceed the cap"):
        amplified_energy(zero_mixture(2), amplify(single_check, 10**30))
