"""Named end-to-end check suites: every inequality the package asserts.

Each suite takes no arguments and returns a report dict with a "passed"
bool and enough detail to see what was measured. Every seeded suite draws
from SEED, and the sample counts below are sized so the full battery
doubles as the acceptance gate; the CLI exposes the same registry behind
`bounds suite`. A False from any of these is a build-breaking bug, not a
soft warning, except where an applicability flag says the premise is out
of range.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from .bounds import (
    BoundInputs,
    depth_lower_bounds,
    lightcone_count_check,
    product_state_separation_check,
    uncertainty_check,
    zero_state_distance_check,
)
from .channels import entropy_audit, logical_depolarize, marginal_invariance_suite
from .circuits import compose, embed, identity_circuit, random_low_depth
from .codes import BUILTIN_CODES, build_code, code_parameters
from .frontier import frontier_search, merge_frontiers, theorem_consistency
from .hamiltonians import (
    amplification_gap_check,
    amplify,
    build_code_hamiltonian,
    sparsifier_deviation,
    sparsifier_sample_count,
    sparsify,
)
from .kls import agsp_projector_check, kls_polynomial
from .paulis import PauliOperator, logical_pairs
from .states import (
    StabilizerMixture,
    group_mixture,
    project_rows,
    von_neumann_entropy,
    zero_mixture,
)
from .syndrome import build_syndrome_circuit, coherent_extension, gentle_measurement_report

SEED = 0
GENTLE_PAIRS = 100
ENTROPY_FLOOR_STATES = 100
AMPLIFICATION_STATES = 200
SPARSIFY_SEEDS = 100
SPARSIFY_DELTA = 0.25
# (code, random pure states): 1000 states in all
UNCERTAINTY_PLAN = (("five_qubit", 600), ("toric2", 400))
LIGHTCONE_SEEDS = 50
FRONTIER_BUDGET = 150


def _random_clifford_state(n: int, depth: int, seed: int) -> StabilizerMixture:
    circuit = random_low_depth(n, depth, family="clifford", seed=seed)
    return zero_mixture(n).apply_circuit(circuit)


def suite_local_indistinguishability() -> dict:
    """Marginals on every region below distance agree across code states."""
    worst = 0.0
    regions = 0
    for name in ("five_qubit", "toric2", "toric3"):
        code = build_code(name)
        d = code_parameters(code.group).d
        for size in range(1, d):
            for region in combinations(range(code.group.n), size):
                rep = marginal_invariance_suite(code, region=region)
                worst = max(worst, rep["max_deviation"])
                regions += 1
    # negative control: a weight-d logical's support is distinguishable
    code = build_code("five_qubit")
    pair = logical_pairs(code.group)[0]
    gens = code.group.generators
    xbar = pair.xbar
    plus = StabilizerMixture(5, gens + (xbar,))
    minus = StabilizerMixture(5, gens + (PauliOperator(xbar.n, xbar.x, xbar.z, -xbar.sign),))
    support = tuple(sorted(xbar.support))[:3]
    control = float(np.abs(plus.marginal(support) - minus.marginal(support)).max())
    return {
        "passed": control > 1e-3 and worst <= 1e-10,
        "regions_checked": regions,
        "max_deviation": worst,
        "negative_control_deviation": control,
    }


def suite_syndrome_depth() -> dict:
    """Constructive extraction depth lands under the cubic ceiling."""
    rows = []
    ok = True
    for name in sorted(BUILTIN_CODES):
        code = build_code(name)
        built = build_syndrome_circuit(code.group)
        ell = code.group.locality
        fits = built.depth <= built.depth_bound_constructive
        if ell >= 2:
            fits = fits and built.depth <= built.depth_bound_statement
        ok = ok and fits
        rows.append(
            {
                "code": name,
                "depth": built.depth,
                "constructive": built.depth_bound_constructive,
                "statement": built.depth_bound_statement,
                "ell": ell,
            }
        )
    return {"passed": ok, "codes": rows}


def suite_syndrome_projector() -> dict:
    """The coherent extension equals the syndrome-sector sum, dense.

    The reference is built without the extraction circuit: column s of a
    2^n x 2^N array is D_s phi, the signed checks folded onto phi by
    ``project_rows`` with check i negated where s_i = 1, so the flattened
    array is sum_s (D_s phi) (x) |s>.
    """
    group = build_code("five_qubit").group
    checks = group.generators
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(3):
        phi = rng.normal(size=32) + 1j * rng.normal(size=32)
        phi = phi / np.linalg.norm(phi)
        sectors = []
        for s in product((0, 1), repeat=len(checks)):
            signed = [PauliOperator(g.n, g.x, g.z, g.sign * (-1) ** s_i) for g, s_i in zip(checks, s)]
            sectors.append(project_rows(phi, signed))
        reference = np.stack(sectors, axis=1).reshape(-1)
        worst = max(worst, float(np.abs(coherent_extension(phi, group) - reference).max()))
    return {"passed": worst <= 1e-10, "max_deviation": worst, "seed": SEED}


def suite_gentle_measurement() -> dict:
    """Fidelity floor 1 - sum of owned energies over random state/region pairs."""
    group = build_code("five_qubit").group
    rng = np.random.default_rng(SEED)
    violations = 0
    worst_gap = float("inf")
    for trial in range(GENTLE_PAIRS):
        depth = int(rng.integers(0, 3))
        state = _random_clifford_state(5, depth, seed=SEED + 9973 * trial)
        size = int(rng.integers(1, 9))
        region = tuple(sorted(rng.choice(9, size=size, replace=False).tolist()))
        rep = gentle_measurement_report(state, group, region)
        worst_gap = min(worst_gap, rep.fidelity - rep.bound)
        if not rep.holds:
            violations += 1
    return {
        "passed": violations == 0,
        "pairs": GENTLE_PAIRS,
        "violations": violations,
        "worst_margin": worst_gap,
        "seed": SEED,
    }


def suite_entropy_floor() -> dict:
    """Depolarizing any state lifts entropy to at least k; code states hit k."""
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for name in ("five_qubit", "toric2"):
        code = build_code(name)
        group = code.group
        pairs = logical_pairs(group)
        k = group.n_logical
        dim = 2**group.n
        floor_ok = True
        worst = float("inf")
        for _ in range(ENTROPY_FLOOR_STATES):
            a = rng.normal(size=(dim, 2 * k + 1)) + 1j * rng.normal(size=(dim, 2 * k + 1))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho).real
            entropy = von_neumann_entropy(logical_depolarize(rho, pairs))
            worst = min(worst, entropy)
            floor_ok = floor_ok and entropy >= k - 1e-9
        pure = group_mixture(group).with_rows([pair.zbar for pair in pairs])
        mixed = logical_depolarize(pure, pairs)
        exact = int(mixed.entropy)
        dense = von_neumann_entropy(mixed.dense_rho())
        equality_ok = exact == k and abs(dense - k) < 1e-8
        ok = ok and floor_ok and equality_ok
        details.append(
            {"code": name, "k": k, "min_entropy": worst, "pure_code_entropy": exact}
        )
    return {"passed": ok, "codes": details, "states_per_code": ENTROPY_FLOOR_STATES, "seed": SEED}


def suite_entropy_audit() -> dict:
    """k <= S(Theta) <= sum_j S(rho_j) after the extraction rotation.

    Theta is the syndrome-recorded, logically depolarized state of a seeded
    depth-t Clifford prep, t = 0..4; on toric3 depth 4 spreads it over 2^16
    syndromes.
    """
    ok = True
    rows = []
    for name in ("five_qubit", "toric2", "surface13", "toric3"):
        group = build_code(name).group
        rotation = build_syndrome_circuit(group).circuit
        for depth in range(5):
            state = _random_clifford_state(group.n, depth, seed=SEED + depth)
            rep = entropy_audit(state, group, rotation)
            holds = rep["k"] <= rep["S_Theta"] + 1e-9 and rep["S_Theta"] <= rep["per_qubit_sum"] + 1e-9
            ok = ok and holds
            rows.append({"code": name, "depth": depth, "holds": holds, **rep})
    return {"passed": ok, "audits": rows, "seed": SEED}


def suite_amplification() -> dict:
    """Energy gap amplification inequality over recorded-depth states."""
    checked = 0
    violations = 0
    # H^(1) = H: at p = 1 the amplified energy is the mean energy
    identity_dev = 0.0
    for name in ("five_qubit", "toric2"):
        group = build_code(name).group
        ham = build_code_hamiltonian(group, "mean")
        for trial in range(AMPLIFICATION_STATES // 2):
            t = trial % 3
            state = _random_clifford_state(group.n, t, seed=SEED + 31 * trial)
            for p in (1, 2, 3):
                rep = amplification_gap_check(state, ham, p, t)
                checked += 1
                if not rep.holds:
                    violations += 1
                if p == 1:
                    identity_dev = max(identity_dev, abs(rep.lhs - rep.base_energy))
    return {
        "passed": violations == 0 and identity_dev <= 1e-12,
        "states": AMPLIFICATION_STATES,
        "inequalities_checked": checked,
        "violations": violations,
        "p1_identity_deviation": identity_dev,
        "seed": SEED,
    }


def suite_sparsification() -> dict:
    """Sampled sparsifier lands within delta often enough."""
    group = build_code("five_qubit").group
    amp = amplify(build_code_hamiltonian(group, "mean"), 1)
    k = sparsifier_sample_count(group.n, SPARSIFY_DELTA, group.locality)
    hits = sum(
        sparsifier_deviation(sparsify(amp, k, seed=seed)) <= SPARSIFY_DELTA for seed in range(SPARSIFY_SEEDS)
    )
    fraction = hits / SPARSIFY_SEEDS
    return {
        "passed": fraction >= 1.0 / 3.0,
        "success_fraction": fraction,
        "samples_per_seed": k,
        "seeds": SPARSIFY_SEEDS,
        "delta": SPARSIFY_DELTA,
    }


def suite_kls_agsp() -> dict:
    """Step-polynomial guarantee on the grid plus the depth-1 projector check."""
    grid_ok = True
    worst_ratio = 0.0
    for n_domain in (16, 32, 64):
        deg = 1
        while deg < math.isqrt(n_domain):
            deg *= 2
        while deg <= n_domain:
            poly = kls_polynomial(n_domain, deg)
            grid_ok = grid_ok and poly.achieved_error <= poly.error_bound
            worst_ratio = max(
                worst_ratio,
                poly.achieved_error / poly.error_bound if poly.error_bound else 0.0,
            )
            deg *= 2
    circuit = random_low_depth(8, 1, family="haar", seed=SEED)
    agsp = agsp_projector_check(circuit, None, 4)
    lemma = agsp_projector_check(identity_circuit(8), build_code("toric2").group, 4)
    return {
        "passed": grid_ok and agsp["fact_holds"] and lemma["lemma_holds"],
        "worst_grid_ratio": worst_ratio,
        "depth1_error": agsp["norm_error"],
        "depth1_bound": agsp["fact_bound"],
        "lemma_rhs": lemma["lemma_rhs"],
        "seed": SEED,
    }


def suite_zero_state_distance() -> dict:
    """|0^n> clears the d/(6n) distance threshold on every built-in."""
    rows = []
    ok = True
    for name in sorted(BUILTIN_CODES):
        rep = zero_state_distance_check(build_code(name))
        ok = ok and rep["holds"]
        rows.append({"code": name, **{k: rep[k] for k in ("distance", "threshold", "holds")}})
    return {"passed": ok, "codes": rows}


def suite_uncertainty() -> dict:
    """Logical expectation uncertainty over random pure states, all pairs."""
    rng = np.random.default_rng(SEED)
    checked = 0
    ok = True
    for name, count in UNCERTAINTY_PLAN:
        group = build_code(name).group
        pairs = logical_pairs(group)
        dim = 2**group.n
        for _ in range(count):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec = vec / np.linalg.norm(vec)
            for pair in pairs:
                rep = uncertainty_check(vec, pair)
                checked += 1
                ok = ok and rep["holds"]
    states = sum(count for _, count in UNCERTAINTY_PLAN)
    return {"passed": ok, "states": states, "checks": checked, "seed": SEED}


def suite_product_separation() -> dict:
    """Product states keep their guaranteed distance from every code."""
    ok = True
    rows = []
    for name in ("five_qubit", "toric2", "surface5"):
        rep = product_state_separation_check(
            zero_mixture(build_code(name).group.n), build_code(name)
        )
        ok = ok and bool(rep["holds"])
        rows.append({"code": name, "bound": rep["bound"], "floor": rep["distance_floor"]})
    return {"passed": ok, "codes": rows}


def suite_lightcone_sandwich() -> dict:
    """Average owned-energy sandwich over seeded prefix circuits."""
    group = build_code("five_qubit").group
    synd = build_syndrome_circuit(group)
    wires = synd.circuit.m
    ok = True
    for trial in range(LIGHTCONE_SEEDS):
        prefix = random_low_depth(5, 2, family="clifford", seed=SEED + trial)
        w = compose(embed(prefix, wires), synd.circuit)
        phi = zero_mixture(5).apply_circuit(prefix)
        rep = lightcone_count_check(w, group, phi=phi)
        ok = ok and rep["holds"] and rep["count_floor_ok"]
    return {"passed": ok, "seeds": LIGHTCONE_SEEDS, "seed": SEED}


def suite_frontier_baseline() -> dict:
    """Depth-0 product optimum on the distance-3 toric code, plus monotonicity."""
    code = build_code("toric3")
    products = frontier_search(code, 3, "pauli-products", seed=SEED)
    best = products[0].best_energy.total
    cliffords = frontier_search(code, 3, "random-clifford", budget=FRONTIER_BUDGET, seed=SEED)
    descent = frontier_search(code, 3, "coordinate-descent", budget=FRONTIER_BUDGET, seed=SEED)
    merged = merge_frontiers(products, cliffords, descent)
    totals = [rec.best_energy.total for rec in merged]
    monotone = all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))
    consistency = theorem_consistency(merged, k=2, d=3, ell=4, n=18)
    return {
        "passed": abs(best - 4.5) < 1e-9
        and monotone
        and merged[0].best_energy.total <= 4.5 + 1e-9
        and consistency["consistent"],
        "product_minimum": best,
        "merged_totals": totals,
        "seed": SEED,
    }


def suite_bounds_regime() -> dict:
    """Rearranged rate bound tracks (delta'/2) log n up to log-log slack."""
    ok = True
    worst_slack = 0.0
    for dprime in (0.3, 0.5, 0.8):
        for power in range(10, 21):
            n = 2**power
            inputs = BoundInputs(
                n=n, k=n // 2, d=int(math.isqrt(n)), ell=4, epsilon=n**-dprime, t=0
            )
            value = depth_lower_bounds(inputs)["thm2_rate"]["value"]
            target = 0.5 * dprime * power
            slack = abs(value - target)
            allowance = 2.0 * math.log2(power) + 2.0
            worst_slack = max(worst_slack, slack - allowance)
            ok = ok and slack <= allowance
    return {"passed": ok, "worst_excess": worst_slack}


SUITES = {
    "local-indistinguishability": suite_local_indistinguishability,
    "syndrome-depth": suite_syndrome_depth,
    "syndrome-projector": suite_syndrome_projector,
    "gentle-measurement": suite_gentle_measurement,
    "entropy-floor": suite_entropy_floor,
    "entropy-audit": suite_entropy_audit,
    "amplification": suite_amplification,
    "sparsification": suite_sparsification,
    "kls-agsp": suite_kls_agsp,
    "zero-state-distance": suite_zero_state_distance,
    "uncertainty": suite_uncertainty,
    "product-separation": suite_product_separation,
    "lightcone-sandwich": suite_lightcone_sandwich,
    "frontier-baseline": suite_frontier_baseline,
    "bounds-regime": suite_bounds_regime,
}


def run_suites(names=None) -> tuple[dict, bool]:
    """Run the named suites (all when names is None); returns reports and verdict."""
    if names is None:
        names = list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}; options: {sorted(SUITES)}")
    reports = {}
    all_passed = True
    for name in names:
        report = SUITES[name]()
        reports[name] = report
        all_passed = all_passed and bool(report["passed"])
    return reports, all_passed
