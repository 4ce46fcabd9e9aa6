import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablab.paulis
from stablab.channels import (
    _region_is_correctable,
    encoded_state,
    entropy_audit,
    logical_depolarize,
    marginal_invariance_suite,
)
from stablab.circuits import Gate, LayeredCircuit, identity_circuit, random_low_depth
from stablab.codes import (
    BUILTIN_CODES,
    as_group,
    build_code,
    code_parameters,
    five_qubit_code,
    hypergraph_product,
    surface_code,
    toric_code,
)
from stablab.hamiltonians import build_code_hamiltonian
from stablab.paulis import PauliOperator, StabilizerGroup, from_letters, logical_pairs
from stablab.states import (
    StabilizerMixture,
    apply_pauli_vec,
    group_mixture,
    partial_trace,
    pauli_expectation_vec,
    require_dense,
    rho_from_vector,
    von_neumann_entropy,
    zero_mixture,
)
from stablab.syndrome import build_syndrome_circuit, decohere
from oracles import (
    HAMMING,
    basis_vector,
    conjugate_pauli_mixture,
    depolarized_branches,
    entropy_audit_by_branches,
    logical_channel_kraus,
    marginal_invariance_dense,
    mixture_rho,
    project_eigenspace,
    region_is_correctable_by_span_rank,
    signed_commuting_groups,
    single,
    theta_by_branches,
    von_neumann_entropy_naive,
)


def random_rho(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_vec(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def test_dense_channel_matches_kraus_oracle():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    for seed in range(3):
        rho = random_rho(5, seed)
        got = logical_depolarize(rho, pairs)
        want = logical_channel_kraus(rho, pairs)
        assert np.allclose(got, want, atol=1e-12)


def test_channel_trace_preserving_and_unital():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    rho = random_rho(5, 7)
    out = logical_depolarize(rho, pairs)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    eye = np.eye(32, dtype=complex) / 32
    assert np.allclose(logical_depolarize(eye, pairs), eye, atol=1e-12)


def test_channel_idempotent():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    rho = random_rho(5, 3)
    once = logical_depolarize(rho, pairs)
    twice = logical_depolarize(once, pairs)
    assert np.allclose(once, twice, atol=1e-12)


def test_k_zero_channel_is_identity():
    group = StabilizerGroup([from_letters("Z")])
    pairs = logical_pairs(group)
    assert pairs == ()
    rho = random_rho(1, 1)
    assert logical_depolarize(rho, pairs) is rho
    mix = zero_mixture(1)
    assert logical_depolarize(mix, pairs) is mix


def test_five_qubit_code_state_entropy_one():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    mix = group_mixture(code.group)
    out = logical_depolarize(mix, pairs)
    assert out.entropy == 1.0
    dense = logical_depolarize(mix.dense_rho(), pairs)
    assert von_neumann_entropy_naive(dense) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(out.dense_rho(), dense, atol=1e-12)


def test_toric_code_state_entropy_two():
    code = toric_code(2)
    pairs = logical_pairs(code.group)
    assert len(pairs) == 2
    out = logical_depolarize(group_mixture(code.group), pairs)
    assert out.entropy == 2.0
    dense = logical_depolarize(group_mixture(code.group).dense_rho(), pairs)
    assert von_neumann_entropy_naive(dense) == pytest.approx(2.0, abs=1e-10)


def test_mixture_channel_matches_dense_on_generic_states():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    for seed in range(6):
        circ = random_low_depth(5, depth=3, family="clifford", seed=seed)
        st = zero_mixture(5).apply_circuit(circ)
        via_mixture = logical_depolarize(st, pairs).dense_rho()
        via_dense = logical_depolarize(st.dense_rho(), pairs)
        assert np.allclose(via_mixture, via_dense, atol=1e-10)


def test_channel_entropy_floor():
    """S(E(rho)) >= k, equality exactly on pure code states."""
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    group = code.group
    for seed in range(10):
        rho = random_rho(5, 40 + seed)
        out = logical_depolarize(rho, pairs)
        assert von_neumann_entropy_naive(out) >= len(pairs) - 1e-9
    # pure code state: project a random vector into the zero sector
    from stablab.states import project_pauli_vec

    vec = random_vec(5, 5)
    for g in group.generators:
        _, vec = project_pauli_vec(vec, g)
    out = logical_depolarize(rho_from_vector(vec), pairs)
    assert von_neumann_entropy_naive(out) == pytest.approx(1.0, abs=1e-9)


def test_vector_input_returns_density_matrix():
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    vec = random_vec(5, 2)
    out = logical_depolarize(vec, pairs)
    assert out.shape == (32, 32)
    assert np.allclose(out, logical_depolarize(rho_from_vector(vec), pairs), atol=1e-12)


def test_von_neumann_entropy_values_and_validation():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0)
    h2_quarter = 0.25 * 2 + 0.75 * np.log2(4 / 3)
    assert von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex)) == pytest.approx(
        h2_quarter, abs=1e-12
    )
    assert h2_quarter == pytest.approx(0.8112781, abs=1e-7)
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="negative"):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="square"):
        von_neumann_entropy(np.ones(4, dtype=complex))


def test_marginal_invariance_five_qubit():
    report = marginal_invariance_suite(five_qubit_code(), region=(1, 3))
    assert report["passed"]
    assert report["code_states_share_marginal"]
    assert report["logical_conjugation_invariant"]
    assert report["channel_preserves_marginal"]
    assert report["max_deviation"] <= 1e-10
    assert report["n_states"] == 4  # both logical bases for k = 1


def test_marginal_invariance_toric():
    report = marginal_invariance_suite(toric_code(2), region=(4,))
    assert report["passed"]


def test_marginal_invariance_region_too_large():
    with pytest.raises(ValueError, match="not below distance"):
        marginal_invariance_suite(five_qubit_code(), region=(0, 1, 2))


def test_weight_three_logical_support_distinguishes():
    """Negative control: at |T| = d the shared-marginal property breaks."""
    code = five_qubit_code()
    pairs = logical_pairs(code.group)
    xbar = pairs[0].xbar
    assert xbar.weight == 3
    region = xbar.support
    base = group_mixture(code.group)
    plus = base.with_rows([xbar])
    minus = base.with_rows([PauliOperator(xbar.n, xbar.x, xbar.z, -xbar.sign)])
    dev = np.abs(plus.marginal(region) - minus.marginal(region)).max()
    assert dev > 0.1


def _sector_state(group: StabilizerGroup, sector, rng: np.random.Generator) -> np.ndarray:
    """Random pure state in D_s, by projecting a generic dense vector."""
    n = group.n
    ham = build_code_hamiltonian(group)
    for _ in range(8):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        _, vec = project_eigenspace(vec, ham, sector)
        if vec is not None:
            return vec
    raise ValueError("syndrome sector is empty (inconsistent with dependent checks)")


def zero_expectation_suite(code, sector, n_samples: int = 5, seed: int = 0, max_paulis: int = 4096) -> dict:
    """Anticommuting Paulis average to zero on any syndrome sector.

    For random states in D_s: every Pauli that anticommutes with some check
    has expectation 0 (to 1e-10), and conjugation by logicals keeps every
    check expectation at (-1)^{s_i}.
    """
    group = as_group(code)
    n = group.n
    sector = tuple(int(b) & 1 for b in sector)
    if len(sector) != len(group.generators):
        raise ValueError("sector length does not match check count")
    rng = np.random.default_rng(seed)

    if 4**n <= max_paulis:
        paulis = [
            PauliOperator(n, x, z)
            for x in range(2**n)
            for z in range(2**n)
            if (x, z) != (0, 0)
        ]
    else:
        paulis = [
            PauliOperator(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
            for _ in range(max_paulis)
        ]
    anticommuting = [p for p in paulis if any(group.syndrome_of(p))]

    pairs = logical_pairs(group)
    logicals = [p.xbar for p in pairs] + [p.zbar for p in pairs]
    max_abs = 0.0
    max_syndrome_dev = 0.0
    for _ in range(n_samples):
        state = _sector_state(group, sector, rng)
        for p in anticommuting:
            max_abs = max(max_abs, abs(pauli_expectation_vec(state, p)))
        for logical in logicals:
            moved = apply_pauli_vec(state, logical)
            for bit, g in zip(sector, group.generators):
                want = (-1.0) ** bit
                max_syndrome_dev = max(
                    max_syndrome_dev, abs(pauli_expectation_vec(moved, g) - want)
                )

    report = {
        "sector": "".join(str(b) for b in sector),
        "n_samples": n_samples,
        "n_paulis_checked": len(anticommuting),
        "max_abs_expectation": max_abs,
        "max_syndrome_deviation": max_syndrome_dev,
        "passed": max_abs <= 1e-10 and max_syndrome_dev <= 1e-10,
    }
    return report


def extended_invariance_check(code, region1, region2, seed: int = 0, distance=None) -> dict:
    """Purified code state vs its logically-depolarized image on R1 u R2.

    R1 sits in the code block (|R1| < d), R2 in the k entangled reference
    qubits appended after it; the marginals must agree to 1e-10.
    """
    group = as_group(code)
    pairs = logical_pairs(group)
    k = len(pairs)
    n = group.n
    if distance is None:
        distance = code_parameters(group).d
    if distance is None:
        raise ValueError("distance unknown; pass distance explicitly")
    region1 = tuple(sorted(int(q) for q in region1))
    region2 = tuple(sorted(int(q) for q in region2))
    if len(region1) >= distance:
        raise ValueError(f"code region size {len(region1)} not below distance {distance}")
    if any(not 0 <= q < n for q in region1):
        raise ValueError("region1 must sit in the code block")
    if any(not n <= q < n + k for q in region2):
        raise ValueError("region2 must sit in the reference block")
    require_dense(n + k)

    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
    coeffs /= np.linalg.norm(coeffs)
    base = group_mixture(group)
    psi = np.zeros(2 ** (n + k), dtype=complex)
    for x in range(2**k):
        rows = [
            PauliOperator(n, p.zbar.x, p.zbar.z, (-1 if (x >> (k - 1 - i)) & 1 else 1) * p.zbar.sign)
            for i, p in enumerate(pairs)
        ]
        codeword = base.with_rows(rows).dense_vector()
        psi += coeffs[x] * np.kron(codeword, basis_vector(k, x))

    rho = rho_from_vector(psi)
    theta = logical_depolarize(rho, pairs)
    region = region1 + region2
    dev = float(np.abs(partial_trace(rho, region) - partial_trace(theta, region)).max())
    return {
        "region1": list(region1),
        "region2": list(region2),
        "deviation": dev,
        "passed": dev <= 1e-10,
    }


def test_zero_expectation_suite_sectors():
    code = five_qubit_code()
    clean = zero_expectation_suite(code, (0, 0, 0, 0), n_samples=3, seed=1)
    assert clean["passed"]
    assert clean["n_paulis_checked"] == 960  # 4^5 - 1 minus the 63 centralizer elements
    shifted = zero_expectation_suite(code, (1, 0, 0, 1), n_samples=3, seed=2)
    assert shifted["passed"]
    assert shifted["sector"] == "1001"


def test_zero_expectation_explicit_anticommuting_pauli():
    code = five_qubit_code()
    group = code.group
    mix = group_mixture(group)
    err = single(5, 0, "X")
    assert any(group.syndrome_of(err))
    assert mix.expectation(err) == 0.0


def test_zero_expectation_sector_validation():
    with pytest.raises(ValueError, match="sector length"):
        zero_expectation_suite(five_qubit_code(), (0, 1), n_samples=1)


def test_extended_invariance_purified_code_state():
    code = five_qubit_code()
    for seed in range(4):
        report = extended_invariance_check(code, region1=(0, 4), region2=(5,), seed=seed)
        assert report["passed"], report
    report = extended_invariance_check(code, region1=(2,), region2=(), seed=0)
    assert report["passed"]


def test_extended_invariance_validation():
    code = five_qubit_code()
    with pytest.raises(ValueError, match="not below distance"):
        extended_invariance_check(code, region1=(0, 1, 2), region2=(5,))
    with pytest.raises(ValueError, match="reference block"):
        extended_invariance_check(code, region1=(0,), region2=(4,))


def test_encoded_state_code_input():
    code = five_qubit_code()
    theta = encoded_state(group_mixture(code.group), code.group)
    assert isinstance(theta, StabilizerMixture) and theta.m == 9
    # the clean syndrome is on record, the logical qubit fully mixed
    for q in range(5, 9):
        assert theta.expectation(single(9, q, "Z")) == 1.0
    assert theta.entropy == 1.0


def test_encoded_state_dense_matches_branch_sum():
    code = five_qubit_code()
    phi = random_vec(5, 9)
    theta = encoded_state(phi, code.group)
    want = theta_by_branches(depolarized_branches(phi, code.group), 5, 4)
    assert np.abs(theta - want).max() <= 1e-12
    assert np.trace(theta).real == pytest.approx(1.0, abs=1e-12)
    audit = entropy_audit(phi, code.group, identity_circuit(9))
    assert audit["S_Theta"] == pytest.approx(von_neumann_entropy_naive(want), abs=1e-8)


def test_entropy_audit_code_state_rate_tight():
    code = five_qubit_code()
    report = entropy_audit(group_mixture(code.group), code.group, identity_circuit(9))
    assert report["k"] == 1
    assert report["S_Theta"] == pytest.approx(1.0)
    assert report["S_Theta"] <= report["per_qubit_sum"] + 1e-9


def test_entropy_audit_product_theta_tight():
    """A product Theta makes subadditivity an equality."""
    group = StabilizerGroup([from_letters("ZI")])
    report = entropy_audit(zero_mixture(2), group, identity_circuit(3))
    assert report["k"] == 1
    assert report["S_Theta"] == pytest.approx(1.0)
    assert report["per_qubit_sum"] == pytest.approx(report["S_Theta"], abs=1e-9)


def test_entropy_audit_dense_branches():
    code = five_qubit_code()
    phi = random_vec(5, 13)
    w = random_low_depth(9, depth=1, family="clifford", seed=4)
    report = entropy_audit(phi, code.group, w)
    assert report["k"] <= report["S_Theta"] + 1e-9
    assert report["S_Theta"] <= report["per_qubit_sum"] + 1e-9
    assert set(report) == {"k", "S_Theta", "per_qubit_sum"}


def test_entropy_audit_clifford_branch_matches_dense():
    """Same Theta pushed through both backends gives the same numbers."""
    code = five_qubit_code()
    group = code.group
    mix = conjugate_pauli_mixture(group_mixture(group), single(5, 2, "X"))
    w = random_low_depth(9, depth=2, family="clifford", seed=11)
    report = entropy_audit(mix, group, w)
    assert report["S_Theta"] == pytest.approx(1.0)  # error shifts sector, not entropy

    # dense route on a pure code state gives identical numbers
    zbar = logical_pairs(group)[0].zbar
    pure_mix = group_mixture(group).with_rows([zbar])
    ra = entropy_audit(pure_mix.dense_vector(), group, w)
    rb = entropy_audit(pure_mix, group, w)
    assert ra["S_Theta"] == pytest.approx(rb["S_Theta"], abs=1e-8)
    assert ra["per_qubit_sum"] == pytest.approx(rb["per_qubit_sum"], abs=1e-8)


def test_entropy_audit_wire_mismatch():
    code = five_qubit_code()
    with pytest.raises(ValueError, match="wires"):
        entropy_audit(group_mixture(code.group), code.group, identity_circuit(5))


# --- one-state Theta against the per-branch audit ---

_AUDIT_CODES = {"five_qubit": five_qubit_code(), "toric2": toric_code(2), "surface13": surface_code(3)}
# (single-qubit error on the prep, rotation W)
_AUDIT_CONFIGS = ((False, "extraction"), (True, "random"), (True, "extraction"), (False, "random"))


def _named_gate_prep(n, depth, rng):
    """depth layers of random named two-qubit gates on a random matching,
    each followed by a random named single-qubit gate on every wire."""
    layers = []
    for _ in range(depth):
        perm = rng.permutation(n)
        layers.append(tuple(
            Gate(qubits=(int(perm[i]), int(perm[i + 1])), name=str(rng.choice(["CX", "CY", "CZ", "SWAP"])))
            for i in range(0, n - 1, 2)
        ))
        layers.append(tuple(Gate(qubits=(q,), name=str(rng.choice(list("HXYZ") + ["S", "SDG"]))) for q in range(n)))
    return LayeredCircuit(m=n, layers=tuple(layers))


def _audit_case(name, prep, seed, error, rotation):
    """(state, group, W): the prep applied to |0^n>, optionally followed by a
    single-qubit error, and the extraction circuit, a random Clifford W or a
    random Haar-brickwork W."""
    group = _AUDIT_CODES[name].group
    n, m = group.n, group.n + len(group.generators)
    state = zero_mixture(n).apply_circuit(prep)
    if error:
        state = conjugate_pauli_mixture(state, single(n, seed % n, "XYZ"[seed % 3]))
    if rotation == "extraction":
        w = build_syndrome_circuit(group).circuit
    elif rotation == "haar":
        w = random_low_depth(m, 1, family="haar", seed=seed + 1)
    else:
        w = random_low_depth(m, 1 + seed % 2, family="clifford", seed=seed + 1)
    return state, group, w


@pytest.mark.parametrize("name", sorted(_AUDIT_CODES))
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_entropy_audit_equals_the_branch_sum(name, depth):
    """Named-gate preps. The per-branch oracle costs ~5 ms a branch on
    surface13, so there each depth takes one configuration (all four over
    the depths) and the first prep with at most 2^8 of its 2^12 syndromes."""
    rng = np.random.default_rng(depth)
    group = _AUDIT_CODES[name].group
    prep = _named_gate_prep(group.n, depth, rng)
    configs = _AUDIT_CONFIGS
    if name == "surface13":
        configs = [_AUDIT_CONFIGS[depth]]
        while len(decohere(zero_mixture(group.n).apply_circuit(prep), group).branches) > 2**8:
            prep = _named_gate_prep(group.n, depth, rng)
    for error, rotation in configs:
        state, group, w = _audit_case(name, prep, 17 * depth + 3, error, rotation)
        assert entropy_audit(state, group, w) == entropy_audit_by_branches(state, group, w)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["five_qubit", "toric2"]),
    st.integers(0, 3),
    st.integers(0, 2**16),
    st.sampled_from(_AUDIT_CONFIGS),
)
def test_entropy_audit_equals_the_branch_sum_on_random_cases(name, depth, seed, config):
    """Random Clifford-word preps."""
    prep = random_low_depth(_AUDIT_CODES[name].n, depth, family="clifford", seed=seed)
    state, group, w = _audit_case(name, prep, seed, *config)
    assert entropy_audit(state, group, w) == entropy_audit_by_branches(state, group, w)


@pytest.mark.parametrize("seed, rotation", [(0, "extraction"), (1, "random"), (2, "random")])
def test_dense_entropy_audit_matches_the_branch_sum(seed, rotation):
    """Dense input: a Clifford state (seed 1 with an error) or a generic vector (seed 2)."""
    prep = random_low_depth(5, 2, family="clifford", seed=seed)
    state, group, w = _audit_case("five_qubit", prep, seed, seed == 1, rotation)
    phi = random_vec(5, seed) if seed == 2 else state.dense_vector()
    theta = encoded_state(phi, group)
    want = theta_by_branches(depolarized_branches(phi, group), 5, 4)
    assert np.abs(theta - want).max() <= 1e-12
    got, oracle = entropy_audit(phi, group, w), entropy_audit_by_branches(phi, group, w)
    assert got["k"] == oracle["k"]
    assert got["S_Theta"] == pytest.approx(oracle["S_Theta"], abs=1e-12)
    assert got["per_qubit_sum"] == pytest.approx(oracle["per_qubit_sum"], abs=1e-12)


def test_mixture_theta_with_a_non_clifford_rotation_goes_dense():
    prep = random_low_depth(5, 2, family="clifford", seed=4)
    state, group, w = _audit_case("five_qubit", prep, 4, True, "haar")
    got, oracle = entropy_audit(state, group, w), entropy_audit_by_branches(state, group, w)
    assert got["k"] == oracle["k"] and got["S_Theta"] == oracle["S_Theta"]
    assert got["per_qubit_sum"] == pytest.approx(oracle["per_qubit_sum"], abs=1e-12)


def test_encoded_state_of_a_mixture_matches_its_dense_vector():
    group = five_qubit_code().group
    for seed in range(4):
        state = zero_mixture(5).apply_circuit(random_low_depth(5, 2, family="clifford", seed=seed))
        theta = encoded_state(state, group)
        assert isinstance(theta, StabilizerMixture)
        want = encoded_state(state.dense_vector(), group)
        assert np.abs(mixture_rho([(r.letters(), r.sign) for r in theta.rows], 9) - want).max() <= 1e-12


_SMALL_CODES = {"five_qubit": five_qubit_code(), "toric2": toric_code(2)}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_SMALL_CODES)),
    st.integers(0, 8),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_mixture_channel_matches_dense_channel(name, keep, depth, seed):
    code = _SMALL_CODES[name]
    pairs = logical_pairs(code.group)
    n = code.n
    start = StabilizerMixture(n, zero_mixture(n).rows[: min(keep, n)])
    state = start.apply_circuit(random_low_depth(n, depth, family="clifford", seed=seed))
    got = logical_depolarize(state, pairs)
    assert isinstance(got, StabilizerMixture)

    def rho(mixture):
        return mixture_rho([(r.letters(), r.sign) for r in mixture.rows], n)

    # the dense path is itself checked against the Kraus oracle above
    assert np.allclose(rho(got), logical_depolarize(rho(state), pairs), atol=1e-12)


# --- rank test (cleaning lemma) against the dense family oracle ---

_RANK_CODES = {
    "five_qubit": five_qubit_code(),
    "toric2": toric_code(2),
    "toric3": toric_code(3),
    "surface13": surface_code(3),
}


def _both_paths(code, region):
    """(rank test verdict, dense oracle report on the logical-basis family)."""
    group = code.group
    clean = _region_is_correctable(group, sorted(region))
    return clean, marginal_invariance_dense(code, region)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_RANK_CODES)), st.data())
def test_rank_path_matches_dense_family_below_distance(name, data):
    code = _RANK_CODES[name]
    d = code_parameters(code.group).d
    size = data.draw(st.integers(1, d - 1))
    region = data.draw(st.lists(st.integers(0, code.n - 1), min_size=size, max_size=size, unique=True))
    clean, dense = _both_paths(code, region)
    assert clean
    assert dense["passed"] and dense["max_deviation"] == 0.0
    assert marginal_invariance_suite(code, region) == dense


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_RANK_CODES)), st.data())
def test_rank_path_matches_dense_family_at_or_above_distance(name, data):
    code = _RANK_CODES[name]
    d = code_parameters(code.group).d
    size = data.draw(st.integers(d, d + 1))
    region = data.draw(st.lists(st.integers(0, code.n - 1), min_size=size, max_size=size, unique=True))
    clean, dense = _both_paths(code, region)
    assert clean == dense["passed"]
    assert (dense["max_deviation"] == 0.0) == clean


@pytest.mark.parametrize("name", sorted(_RANK_CODES))
def test_logical_supports_fail_both_paths(name):
    """Each Xbar/Zbar support holds a logical: the rank test says so, the dense oracle measures it."""
    code = _RANK_CODES[name]
    pairs = logical_pairs(code.group)
    for op in [p.xbar for p in pairs] + [p.zbar for p in pairs]:
        clean, dense = _both_paths(code, op.support)
        assert not clean
        assert not dense["passed"] and dense["max_deviation"] > 0.1


def test_rank_path_passes_a_large_region_without_a_logical():
    """A 3-qubit toric3 region off every logical path passes the rank test and the dense oracle."""
    clean, dense = _both_paths(_RANK_CODES["toric3"], (0, 1, 9))
    assert clean
    assert dense["passed"] and dense["max_deviation"] == 0.0


def test_sub_distance_regions_need_no_dense_marginal(monkeypatch):
    """All 194 sub-distance regions of the indist workload pass on the rank test alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense marginal built")

    monkeypatch.setattr(StabilizerMixture, "marginal", refuse)
    monkeypatch.setattr(stablab.paulis, "dense_matrix", refuse)
    regions = 0
    for name in ("five_qubit", "toric2", "toric3"):
        code = _RANK_CODES[name]
        d = code_parameters(code.group).d
        for size in range(1, d):
            for region in combinations(range(code.n), size):
                report = marginal_invariance_suite(code, region=region)
                assert report["passed"] and report["max_deviation"] == 0.0
                assert report["n_states"] == 2 << len(logical_pairs(code.group))
                regions += 1
    assert regions == 194


def test_region_must_be_distinct_qubits_of_the_code():
    for region in ((0, 0), (5,), (-1,)):
        with pytest.raises(ValueError, match="distinct wires"):
            marginal_invariance_suite(five_qubit_code(), region=region)
        with pytest.raises(ValueError, match="distinct wires"):
            _region_is_correctable(five_qubit_code().group, region)


_BUILTIN_GROUPS = {name: build_code(name).group for name in BUILTIN_CODES}


def _region_of_any_size(data, n):
    size = data.draw(st.integers(0, n))
    return data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))


@settings(max_examples=150, deadline=None)
@given(signed_commuting_groups(), st.data())
def test_column_rank_test_matches_the_span_rank_oracle_on_signed_groups(group, data):
    region = _region_of_any_size(data, group.n)
    assert _region_is_correctable(group, region) == region_is_correctable_by_span_rank(group, region)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_BUILTIN_GROUPS)), st.data())
def test_column_rank_test_matches_the_span_rank_oracle_on_the_builtins(name, data):
    """Regions of every size: below the distance, where both accept, and at or above it, where logicals fit."""
    group = _BUILTIN_GROUPS[name]
    region = _region_of_any_size(data, group.n)
    assert _region_is_correctable(group, region) == region_is_correctable_by_span_rank(group, region)


def test_rank_path_decides_every_pair_on_the_k16_hypergraph_product():
    code = hypergraph_product(HAMMING, HAMMING)
    group = code.group
    pairs = logical_pairs(group)
    assert (group.n, len(pairs), code_parameters(group).d) == (58, 16, 3)
    start = time.perf_counter()
    for region in combinations(range(group.n), 2):
        # checked first: a region the rank test rejected would fail the
        # suite's internal assert instead of this test's
        assert _region_is_correctable(group, region), region
        report = marginal_invariance_suite(code, region=region)
        assert report["passed"] and report["max_deviation"] == 0.0
        assert report["n_states"] == 2**17
    assert time.perf_counter() - start < 30.0

    # qubits 0, 1, 2 of the left block carry the Hamming codeword 1110000
    # along one row: X there commutes with every check but is no stabilizer
    logical = from_letters("XXX" + "I" * 55)
    assert not any(group.syndrome_of(logical))
    assert group_mixture(group).expectation(logical) == 0.0  # commutes, so not a member
    assert not _region_is_correctable(group, (0, 1, 2))
    assert _region_is_correctable(group, (0, 1, 3))
