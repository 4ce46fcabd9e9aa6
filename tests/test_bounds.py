import math
from itertools import combinations

import numpy as np
import pytest

from stablab.bounds import (
    BoundInputs,
    depth_lower_bounds,
    lightcone_count_check,
    product_state_separation_check,
    trace_distance_to_code,
    uncertainty_check,
    zero_state_distance_check,
)
from stablab.circuits import compose, embed, random_low_depth
from stablab.codes import build_code
from stablab.paulis import (
    LogicalPair,
    StabilizerGroup,
    best_distance,
    from_letters,
    logical_pairs,
)
from stablab.states import (
    StabilizerMixture,
    density_matrix,
    num_qubits,
    partial_trace,
    require_dense,
    zero_mixture,
    zero_vector,
)
from stablab.syndrome import build_syndrome_circuit

from oracles import conjugate_pauli_mixture, pauli_matrix, projector_from_strings, single, trace_distance


def test_inputs_validate_ranges():
    with pytest.raises(ValueError):
        BoundInputs(n=0)
    with pytest.raises(ValueError):
        BoundInputs(n=8, epsilon=0.0)
    with pytest.raises(ValueError):
        BoundInputs(n=8, epsilon=1.0)
    with pytest.raises(ValueError):
        BoundInputs(n=8, delta=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n=8, f=0.0)
    for c_ell in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="c_ell"):
            BoundInputs(n=8, c_ell=c_ell)
    # integer premises: 1 <= k, d <= n; ell, n_checks, m >= 1; t >= 0
    for bad in (
        {"k": 0}, {"k": 9}, {"d": 0}, {"d": 9}, {"ell": 0},
        {"n_checks": 0}, {"t": -1}, {"m": 0},
    ):
        with pytest.raises(ValueError):
            BoundInputs(n=8, **bad)
    BoundInputs(n=8, k=8, d=8, ell=1, n_checks=1, t=0, m=1)


def test_inputs_trim_total_qubits():
    trimmed = BoundInputs(n=5, t=1, m=100)
    assert trimmed.m == 10
    kept = BoundInputs(n=5, t=2, m=12)
    assert kept.m == 12
    # a depth past m's bit length cannot trim, and 2^t is never built
    assert BoundInputs(n=5, t=10**30, m=12).m == 12


def test_inputs_reject_subnormal_fractions():
    for name in ("epsilon", "delta", "f"):
        with pytest.raises(ValueError, match="smallest normal"):
            BoundInputs(n=8, **{name: 1e-320})


def test_missing_fields_disable_bounds():
    report = depth_lower_bounds(BoundInputs(n=8))
    for entry in report.values():
        assert entry["applicable"] is False
        assert entry["value"] is None
        assert entry["missing"]


def test_warmup_gate_at_one_percent():
    # 2 * 0.01 * log2(100) = 0.13288...
    inputs = BoundInputs(n=100, k=50, d=10, delta=0.01, m=100)
    report = depth_lower_bounds(inputs)
    entry = report["lem1_entropy"]
    assert abs(entry["gate"] - 13.2877) < 1e-3
    assert entry["applicable"]
    assert entry["value"] == math.log2(10)
    corner = report["cor1_warmup"]
    assert corner["applicable"]
    assert corner["value"] == pytest.approx(math.log2(min(10, 50 / 13.287712)), rel=1e-6)


def test_warmup_gate_closes():
    inputs = BoundInputs(n=100, k=5, d=10, delta=0.2, m=100)
    entry = depth_lower_bounds(inputs)["lem1_entropy"]
    # 2 * 0.2 * log2(5) * 100 = 92.87 > 5
    assert not entry["applicable"]
    assert entry["value"] is None


def test_rate_bound_regime_growth():
    # k = n/2, d = sqrt(n), eps = n^{-d'}: value tracks (d'/2) log2 n
    for dprime in (0.3, 0.5, 0.8):
        for power in (10, 14, 20):
            n = 2**power
            inputs = BoundInputs(
                n=n,
                k=n // 2,
                d=int(math.isqrt(n)),
                ell=4,
                epsilon=n**-dprime,
                t=0,
            )
            value = depth_lower_bounds(inputs)["thm2_rate"]["value"]
            target = 0.5 * dprime * power
            slack = 2.0 * math.log2(power) + 2.0
            assert abs(value - target) <= slack, (dprime, power)


def test_rate_bound_flag_false_at_desk_scale():
    inputs = BoundInputs(n=18, k=2, d=3, ell=4, epsilon=0.1, t=0)
    entry = depth_lower_bounds(inputs)["thm2_rate"]
    assert entry["window"] < 0
    assert entry["applicable"] is False
    assert entry["constants"] == "explicit"
    assert entry["c_ell"] == 1.0


def test_distance_bound_window_open_at_depth_zero():
    inputs = BoundInputs(n=18, k=2, d=3, ell=4, epsilon=0.1, t=0)
    entry = depth_lower_bounds(inputs)["thm3_distance"]
    assert entry["window"] == pytest.approx(math.log2(3) - 1.0)
    assert entry["applicable"]
    expected = 0.5 * math.log2(3 / (64 * 18 * math.sqrt(4 * 0.1 * math.log2(10))))
    assert entry["value"] == pytest.approx(expected)


def test_rate_bound_monotone_in_k_and_eps():
    values_k = []
    for k in (8, 16, 32, 64):
        inputs = BoundInputs(n=128, k=k, d=16, ell=4, epsilon=0.05, t=0)
        values_k.append(depth_lower_bounds(inputs)["thm2_rate"]["value"])
    assert values_k == sorted(values_k)
    # eps log(1/eps) grows on (0, 1/e), the regime the formula lives in
    values_eps = []
    for eps in (0.01, 0.05, 0.2, 0.3):
        inputs = BoundInputs(n=128, k=32, d=16, ell=4, epsilon=eps, t=0)
        values_eps.append(depth_lower_bounds(inputs)["thm2_rate"]["value"])
    assert values_eps == sorted(values_eps, reverse=True)


def test_constant_free_bounds_are_flagged():
    inputs = BoundInputs(
        n=64, k=16, d=8, ell=4, epsilon=0.01, delta=0.1, t=0, f=0.5, m=64
    )
    report = depth_lower_bounds(inputs)
    assert report["thm1"]["constants"] == "dropped"
    assert report["lem4_lineardist"]["constants"] == "dropped"
    assert report["cor2_amplified"]["constants"] == "dropped"
    assert report["thm1"]["value"] == pytest.approx(
        min(3.0, math.log2(24 / (64 * math.sqrt(0.01 * math.log2(100)))))
    )
    assert report["lem4_lineardist"]["value"] == pytest.approx(math.log2(8 / 6.4))
    assert report["cor2_amplified"]["value"] == pytest.approx(
        min(6.0, math.log2(100))
    )
    agsp = report["lem2_agsp"]
    assert agsp["applicable"]
    denom = 64 * 2.0 * math.log2(32) ** 2 * 64 * math.sqrt(1.0)
    assert agsp["value"] == pytest.approx(0.5 * math.log2(min(8, 16 * math.sqrt(8) / denom)))


def test_agsp_bound_needs_imperfect_fidelity():
    inputs = BoundInputs(n=8, k=2, d=2, ell=4, f=1.0)
    entry = depth_lower_bounds(inputs)["lem2_agsp"]
    assert entry["applicable"] is False


def test_trace_distance_code_state_is_zero():
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    state = StabilizerMixture(5, code.group.generators + (pair.zbar,))
    rep = trace_distance_to_code(state, code)
    assert rep["fidelity"] == pytest.approx(1.0)
    assert rep["trace_distance"] == pytest.approx(0.0)
    assert rep["cross_check"] == pytest.approx(1.0)


def test_trace_distance_zero_state_five_qubit():
    code = build_code("five_qubit")
    rep = trace_distance_to_code(zero_mixture(5), code)
    assert rep["fidelity"] ** 2 == pytest.approx(1.0 / 16.0)
    assert rep["trace_distance"] == pytest.approx(math.sqrt(15.0) / 4.0)
    assert rep["cross_check"] == pytest.approx(1.0 / 16.0)


def test_trace_distance_dense_matches_mixture():
    code = build_code("five_qubit")
    dense = trace_distance_to_code(zero_vector(5), code)
    tableau = trace_distance_to_code(zero_mixture(5), code)
    assert dense["fidelity"] == pytest.approx(tableau["fidelity"])


def test_trace_distance_orthogonal_sector():
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    state = StabilizerMixture(5, code.group.generators + (pair.zbar,))
    flipped = conjugate_pauli_mixture(state, single(5, 0, "X"))
    rep = trace_distance_to_code(flipped, code)
    assert rep["fidelity"] == pytest.approx(0.0)
    assert rep["trace_distance"] == pytest.approx(1.0)
    assert rep["cross_check"] == pytest.approx(0.0)


def test_trace_distance_cross_check_runs_exactly_up_to_nine_qubits():
    for name in ("five_qubit", "toric2", "surface13", "toric3"):
        group = build_code(name).group
        rep = trace_distance_to_code(zero_mixture(group.n), group)
        assert ("cross_check" in rep) == (group.n <= 9), name


def test_trace_distance_cross_check_uses_projector_oracle():
    code = build_code("toric2")
    rep = trace_distance_to_code(zero_mixture(8), code)
    proj = projector_from_strings(
        [g.letters() for g in code.group.generators],
        [g.sign for g in code.group.generators],
    )
    vec = np.zeros(2**8)
    vec[0] = 1.0
    assert rep["cross_check"] == pytest.approx(float(np.real(vec @ proj @ vec)))
    assert rep["fidelity"] ** 2 == pytest.approx(0.125)


def test_zero_state_distance_toric_three():
    rep = zero_state_distance_check(build_code("toric3"))
    assert rep["fidelity"] ** 2 == pytest.approx(2.0**-8)
    assert rep["distance"] == pytest.approx(math.sqrt(1 - 2.0**-8))
    assert rep["distance"] > 0.998
    assert rep["threshold"] == pytest.approx(3.0 / 108.0)
    assert rep["holds"]


def test_zero_state_distance_five_qubit():
    rep = zero_state_distance_check(build_code("five_qubit"))
    assert rep["threshold"] == pytest.approx(0.1)
    assert rep["distance"] > 0.1
    assert rep["holds"]


def test_zero_state_distance_builtin_sweep():
    for name in ("five_qubit", "toric2", "toric3", "surface5"):
        rep = zero_state_distance_check(build_code(name))
        assert rep["holds"], name


def test_zero_state_distance_needs_logicals():
    group = StabilizerGroup([from_letters("Z")])
    with pytest.raises(ValueError):
        zero_state_distance_check(group)


def test_zero_state_distance_weight_one_logical_boundary():
    # pure-Z repetition checks leave |000> inside the code and d = 1;
    # the check reports holds = False rather than hiding the case
    group = StabilizerGroup([from_letters("ZZI"), from_letters("IZZ")])
    rep = zero_state_distance_check(group)
    assert rep["d"] == 1
    assert rep["distance"] == pytest.approx(0.0)
    assert not rep["holds"]


def test_uncertainty_zero_state_sharp_z():
    pair = LogicalPair(
        xbar=single(1, 0, "X"), zbar=single(1, 0, "Z")
    )
    rep = uncertainty_check(zero_mixture(1), pair)
    assert rep["ez"] == 1.0
    assert rep["ex"] == 0.0
    assert rep["holds"]


def test_uncertainty_code_states():
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    rng = np.random.default_rng(7)
    zero_bar = StabilizerMixture(5, code.group.generators + (pair.zbar,))
    one_amp = zero_bar.dense_vector()
    flip = pauli_matrix(pair.xbar.letters(), pair.xbar.sign)
    for _ in range(100):
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = coeffs[0] * one_amp + coeffs[1] * (flip @ one_amp)
        vec = vec / np.linalg.norm(vec)
        rep = uncertainty_check(vec, pair)
        assert rep["holds"]
        assert rep["ex"] ** 2 + rep["ez"] ** 2 <= 1.0 + 1e-9


def test_uncertainty_random_pure_sweep():
    pair = LogicalPair(
        xbar=single(3, 0, "X"), zbar=single(3, 0, "Z")
    )
    rng = np.random.default_rng(11)
    for _ in range(1000):
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec = vec / np.linalg.norm(vec)
        assert uncertainty_check(vec, pair)["holds"]


def test_product_separation_five_qubit_zero_state():
    code = build_code("five_qubit")
    rep = product_state_separation_check(zero_mixture(5), code)
    assert rep["is_product"]
    assert not rep["precondition_violated"]
    assert rep["bound"] == pytest.approx(rep["d_prime"] / (8.0 * rep["w"]))
    assert rep["d_prime"] >= 3
    assert rep["distance_floor"] == pytest.approx(15.0 / 16.0)
    assert rep["distance_floor"] >= 3.0 / 24.0
    assert rep["holds"]


def test_product_separation_toric_two():
    rep = product_state_separation_check(zero_mixture(8), build_code("toric2"))
    assert rep["is_product"]
    assert rep["holds"]


def test_product_separation_rejects_code_state():
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    state = StabilizerMixture(5, code.group.generators + (pair.zbar,))
    rep = product_state_separation_check(state, code)
    assert rep["precondition_violated"]
    assert rep["holds"] is None
    assert rep["distance"] == pytest.approx(0.0)


def test_no_basis_state_is_a_code_state():
    # negative control behind the precondition: every computational basis
    # state keeps positive distance on every built-in code
    for name in ("five_qubit", "toric2", "surface5"):
        code = build_code(name)
        n = code.group.n
        for bits in range(2**n):
            rows = tuple(
                single(n, q, "Z", sign=1 - 2 * ((bits >> (n - 1 - q)) & 1))
                for q in range(n)
            )
            rep = product_state_separation_check(StabilizerMixture(n, rows), code)
            assert rep["distance"] > 0.0, (name, bits)
            assert rep["holds"]


def region_distance_threshold(size: int, t: int, w: int) -> float:
    """Marginal trace distance a K-qubit region must show at depth t."""
    return size / (2.0 ** (t + 4) * w)


def distinguishing_region(psi, theta, size_cap: int, threshold: float | None = None) -> dict:
    """Smallest region whose marginals tell two states apart.

    Exhaustive sweep over regions of size 1..size_cap in lexicographic
    order. With a threshold, returns the first region at or above it;
    without one, the maximizing region. region None means no region
    distinguishes the states (identical marginals everywhere).
    """
    m = num_qubits(psi)
    if num_qubits(theta) != m:
        raise ValueError("states live on different qubit counts")
    require_dense(m)
    rho = density_matrix(psi)
    sigma = density_matrix(theta)
    size_cap = min(size_cap, m)
    best_region = None
    best_dist = 0.0
    for size in range(1, size_cap + 1):
        for region in combinations(range(m), size):
            dist = trace_distance(
                partial_trace(rho, region), partial_trace(sigma, region)
            )
            if threshold is not None and dist >= threshold:
                return {"region": region, "distance": dist, "threshold": threshold}
            if dist > best_dist + 1e-12:
                best_dist = dist
                best_region = region
    if threshold is not None:
        return {"region": None, "distance": best_dist, "threshold": threshold}
    if best_dist < 1e-12:
        best_region = None
    return {"region": best_region, "distance": best_dist, "threshold": None}


def test_distinguishing_region_single_flip():
    psi = zero_vector(3)
    theta = pauli_matrix("IXI") @ psi
    rep = distinguishing_region(psi, theta, 2)
    assert rep["region"] == (1,)
    assert rep["distance"] == pytest.approx(1.0)


def test_distinguishing_region_absent_for_equal_states():
    psi = zero_vector(3)
    rep = distinguishing_region(psi, psi, 3)
    assert rep["region"] is None
    assert rep["distance"] == pytest.approx(0.0)


def test_distinguishing_region_threshold_mode():
    psi = zero_vector(2)
    theta = pauli_matrix("XX") @ psi
    rep = distinguishing_region(psi, theta, 2, threshold=0.5)
    assert rep["region"] == (0,)
    assert rep["distance"] >= 0.5


def test_distinguishing_region_logical_flip_five_qubit():
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    rep_bd = best_distance(code.group)
    psi = random_low_depth(5, 1, family="clifford", seed=4)
    state = zero_mixture(5).apply_circuit(psi)
    flipped = conjugate_pauli_mixture(state, pair.xbar)
    # orthogonality premise: the logical flip must move the state far
    fid = abs(np.vdot(state.dense_vector(), flipped.dense_vector()))
    assert fid <= 1 / math.sqrt(2) + 1e-9
    threshold = region_distance_threshold(1, 1, rep_bd.w)
    rep = distinguishing_region(state, flipped, 4, threshold=threshold)
    assert rep["region"] is not None
    assert len(rep["region"]) <= 4
    assert rep["distance"] >= threshold


def test_region_threshold_formula():
    assert region_distance_threshold(1, 0, 3) == pytest.approx(1.0 / 48.0)
    assert region_distance_threshold(2, 1, 3) == pytest.approx(2.0 / 96.0)


def _membership_oracle(circuit, wire):
    # independent reverse-cone walk: forward layers of the original circuit
    cone = {wire}
    for layer in circuit.layers:
        for gate in layer:
            if cone.intersection(gate.qubits):
                cone.update(gate.qubits)
    return cone


def test_lightcone_counts_match_double_loop_oracle():
    code = build_code("five_qubit")
    synd = build_syndrome_circuit(code.group)
    rep = lightcone_count_check(synd.circuit, code.group)
    counts = [0] * len(code.group.generators)
    for j in range(synd.circuit.m):
        cone = _membership_oracle(synd.circuit, j)
        for i in range(len(code.group.generators)):
            if 5 + i in cone:
                counts[i] += 1
    assert rep["counts"] == tuple(counts)
    assert rep["count_floor_ok"]
    assert rep["holds"]


def test_lightcone_every_check_owns_itself():
    code = build_code("toric2")
    synd = build_syndrome_circuit(code.group)
    rep = lightcone_count_check(synd.circuit, code.group)
    assert all(c >= 1 for c in rep["counts"])


def test_lightcone_sandwich_fifty_seeds():
    code = build_code("five_qubit")
    synd = build_syndrome_circuit(code.group)
    wires = synd.circuit.m
    for seed in range(50):
        prefix = random_low_depth(5, 2, family="clifford", seed=seed)
        w = compose(embed(prefix, wires), synd.circuit)
        phi = zero_mixture(5).apply_circuit(prefix)
        rep = lightcone_count_check(w, code.group, phi=phi)
        assert rep["holds"], seed
        assert rep["lhs"] <= rep["mid"] + 1e-12
        assert rep["mid"] <= rep["rhs"] + 1e-12


def test_lightcone_zero_energy_collapses_sandwich():
    code = build_code("five_qubit")
    synd = build_syndrome_circuit(code.group)
    phi = StabilizerMixture(5, code.group.generators)
    rep = lightcone_count_check(synd.circuit, code.group, phi=phi)
    assert rep["lhs"] == pytest.approx(0.0)
    assert rep["mid"] == pytest.approx(0.0)
    assert rep["holds"]
