"""The benchmark's four workloads: inputs, operations and output checks.

Each workload builds its fixed inputs once (``setup``), hands out rounds of
operations (``round_ops``; every round has the same make-up, so a run is
always whole rounds), and checks every operation's output against the
oracles in :mod:`oracles` or against a property the method must have
(``check``). Inputs derive from the run seed only; stablab sees nothing but
the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

import oracles
from stablab.channels import marginal_invariance_suite
from stablab.circuits import random_low_depth
from stablab.codes import build_code
from stablab.frontier import frontier_search, merge_frontiers
from stablab.hamiltonians import (
    amplification_gap_check,
    amplify,
    build_code_hamiltonian,
    dense_g,
    dense_sparsified_g,
    sparsifier_sample_count,
    sparsify,
    spectral_deviation,
)
from stablab.paulis import PauliOperator, logical_pairs
from stablab.states import StabilizerMixture, group_mixture, zero_mixture

# textbook (n, d): [[5,1,3]], and the L x L toric code has n = 2L^2, d = L
TEXTBOOK = {"five_qubit": (5, 3), "toric2": (8, 2), "toric3": (18, 3)}

SPARSIFY_DELTA = 0.25
SPARSIFY_P = 1
SPARSIFY_DRAWS_PER_ROUND = 10

# state depths per code and round. Depth 0 is |0^n> for every seed; on
# toric3 it is the costliest op by far (about 4 s), so it comes once per
# round among 23 ops. The median then falls among the toric2 ops and the
# 90th percentile inside the toric3 depth-1/2 cluster, both among like ops.
AMPLIFY_DEPTHS = {
    "five_qubit": (0, 1, 1, 1, 1, 2, 2, 2, 2),
    "toric2": (0, 1, 1, 1, 1, 2, 2, 2, 2),
    "toric3": (0, 1, 1, 2, 2),
}
AMPLIFY_POWERS = (1, 2, 3)

FRONTIER_T_MAX = 3
# (strategy, budget) per round besides the one pauli-products search; equal
# budgets as in the frontier-baseline suite, so random-clifford's gate
# conjugation outweighs coordinate-descent's expectation-heavy evaluations
FRONTIER_SEARCHES = (("random-clifford", 16), ("coordinate-descent", 16))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    round_ops: Callable[[dict, int], list]
    check: Callable[[dict, list], list]


def checks_of(group) -> list[tuple[str, int]]:
    return [(oracles.letters_of(g.n, g.x, g.z), g.sign) for g in group.generators]


def layers_of(circuit) -> list:
    return [[(g.qubits, g.name, g.word) for g in layer] for layer in circuit.layers]


def _round_rng(inputs: dict, r: int) -> np.random.Generator:
    return np.random.default_rng([inputs["seed"], r])


# --- indist: local indistinguishability below the distance ---


def _indist_setup(seed: int) -> dict:
    codes = {name: build_code(name) for name in TEXTBOOK}
    regions = [
        (name, region)
        for name, (n, d) in TEXTBOOK.items()
        for size in range(1, d)
        for region in combinations(range(n), size)
    ]
    return {"seed": seed, "codes": codes, "regions": regions}


def _negative_control(code) -> float:
    """A weight-d logical's support tells its two eigenstates apart."""
    xbar = logical_pairs(code.group)[0].xbar
    gens = code.group.generators
    plus = StabilizerMixture(code.n, gens + (xbar,))
    minus = StabilizerMixture(code.n, gens + (PauliOperator(xbar.n, xbar.x, xbar.z, -xbar.sign),))
    support = tuple(sorted(xbar.support))[:3]
    return float(np.abs(plus.marginal(support) - minus.marginal(support)).max())


def _indist_round(inputs: dict, r: int) -> list:
    rng = _round_rng(inputs, r)
    codes = inputs["codes"]
    ops = [
        (("region", name, region), partial(marginal_invariance_suite, codes[name], region=region))
        for name, region in inputs["regions"]
    ]
    ops.append((("control", "five_qubit", ()), partial(_negative_control, codes["five_qubit"])))
    return [ops[i] for i in rng.permutation(len(ops))]


def _indist_check(inputs: dict, results: list) -> list:
    errors = []
    expected = sum(math.comb(n, s) for n, d in TEXTBOOK.values() for s in range(1, d))
    rounds = max(r for r, _, _ in results) + 1
    regions_done = sum(1 for _, key, _ in results if key[0] == "region")
    if expected != 194 or regions_done != expected * rounds:
        errors.append(f"indist: {regions_done} region ops over {rounds} rounds, expected {expected} each")
    for _, key, out in results:
        kind, name, region = key
        if kind == "control":
            if not out > 1e-3:
                errors.append(f"indist: negative control deviation {out} not above 1e-3")
            continue
        if not (
            out["passed"]
            and out["max_deviation"] <= 1e-10
            and out["distance"] == TEXTBOOK[name][1]
            and out["region"] == list(region)
        ):
            errors.append(f"indist: {name} region {region} report {out}")
    rng = np.random.default_rng([inputs["seed"], 1 << 20])
    for name, (n, _) in TEXTBOOK.items():
        code = inputs["codes"][name]
        psi = oracles.random_code_vector(checks_of(code.group), n, rng)
        own = [region for code_name, region in inputs["regions"] if code_name == name]
        for i in rng.choice(len(own), size=2, replace=False):
            region = own[int(i)]
            got = group_mixture(code.group).marginal(region)
            dev = float(np.abs(got - oracles.reduced_state(psi, n, region)).max())
            if not dev <= 1e-10:
                errors.append(f"indist: {name} region {region} marginal off the dense oracle by {dev}")
    return errors


# --- sparsify: one seeded sparsifier draw, dense path ---


def _sparsify_setup(seed: int) -> dict:
    group = build_code("five_qubit").group
    amp = amplify(build_code_hamiltonian(group, "mean"), SPARSIFY_P)
    k = sparsifier_sample_count(group.n, SPARSIFY_DELTA, group.locality)
    return {"seed": seed, "group": group, "amp": amp, "k": k, "g": dense_g(amp)}


def _sparsify_op(inputs: dict, draw_seed: int):
    sparse = sparsify(inputs["amp"], inputs["k"], seed=draw_seed)
    deviation = spectral_deviation(inputs["g"], dense_sparsified_g(sparse))
    return sparse.sampled_indices, deviation


def _sparsify_round(inputs: dict, r: int) -> list:
    seeds = _round_rng(inputs, r).integers(0, 2**31, size=SPARSIFY_DRAWS_PER_ROUND)
    return [(("draw", int(s)), partial(_sparsify_op, inputs, int(s))) for s in seeds]


def _sparsify_check(inputs: dict, results: list) -> list:
    errors = []
    group = inputs["group"]
    checks = checks_of(group)
    k = oracles.sample_count(group.n, SPARSIFY_DELTA, oracles.locality(checks, group.n))
    if inputs["k"] != k:
        errors.append(f"sparsify: sample count {inputs['k']}, expected {k}")
    syndromes = oracles.attainable_syndromes(checks, group.n)
    hits = 0
    for _, key, (tuples, deviation) in results:
        if len(tuples) != k or any(len(t) != SPARSIFY_P for t in tuples):
            errors.append(f"sparsify: draw {key[1]} has {len(tuples)} tuples, expected {k}")
            continue
        exact = oracles.sparsifier_deviation(syndromes, tuples, SPARSIFY_P)
        if not abs(deviation - exact) <= 1e-9:
            errors.append(f"sparsify: draw {key[1]} deviation {deviation}, syndrome oracle {exact}")
        hits += deviation <= SPARSIFY_DELTA
    if not 3 * hits >= len(results):
        errors.append(f"sparsify: only {hits} of {len(results)} draws within delta")
    return errors


# --- amplify: gap amplification on seeded low-depth Clifford states ---


def _amplify_setup(seed: int) -> dict:
    groups = {name: build_code(name).group for name in TEXTBOOK}
    hams = {name: build_code_hamiltonian(group, "mean") for name, group in groups.items()}
    return {"seed": seed, "groups": groups, "hams": hams}


def _amplify_op(n: int, ham, t: int, state_seed: int):
    circuit = random_low_depth(n, t, family="clifford", seed=state_seed)
    state = zero_mixture(n).apply_circuit(circuit)
    return circuit, state, [amplification_gap_check(state, ham, p, t) for p in AMPLIFY_POWERS]


def _amplify_round(inputs: dict, r: int) -> list:
    rng = _round_rng(inputs, r)
    ops = []
    for name, group in inputs["groups"].items():
        for t in AMPLIFY_DEPTHS[name]:
            s = int(rng.integers(0, 2**31))
            ops.append(((name, t, s), partial(_amplify_op, group.n, inputs["hams"][name], t, s)))
    return ops


def _amplify_check(inputs: dict, results: list) -> list:
    errors = []
    for _, key, (circuit, state, reports) in results:
        name, t, _ = key
        group = inputs["groups"][name]
        n = group.n
        checks = checks_of(group)
        ell = oracles.locality(checks, n)
        rows = [(oracles.letters_of(n, row.x, row.z), row.sign) for row in state.rows]
        if n <= 8:
            psi = oracles.simulate(n, layers_of(circuit))
            worst = max(abs(oracles.expectation(psi, letters, sign) - 1.0) for letters, sign in rows)
            if len(rows) != n or not worst <= 1e-9:
                errors.append(f"amplify: {key} rows do not stabilize the simulated state ({worst})")
            rho = oracles.mixture_rho(rows, n)
        for rep, p in zip(reports, AMPLIFY_POWERS):
            rhs = oracles.amplification_rhs(rep.base_energy, p, t, ell, n)
            if not (rep.holds and rep.lhs >= rep.rhs - 1e-12 and abs(rep.rhs - rhs) <= 1e-12):
                errors.append(f"amplify: {key} p={p} inequality {rep}")
            if p == 1 and not abs(rep.lhs - rep.base_energy) <= 1e-12:
                errors.append(f"amplify: {key} p=1 lhs {rep.lhs} != mean energy {rep.base_energy}")
            if n <= 8:
                lhs, base = oracles.amplified_energies(rho, checks, p)
                if not (abs(lhs - rep.lhs) <= 1e-9 and abs(base - rep.base_energy) <= 1e-9):
                    errors.append(f"amplify: {key} p={p} dense oracle ({lhs}, {base}) vs {rep}")
    return errors


# --- frontier: energy-vs-depth search on toric3 ---


def _frontier_setup(seed: int) -> dict:
    return {"seed": seed, "code": build_code("toric3")}


def _frontier_round(inputs: dict, r: int) -> list:
    rng = _round_rng(inputs, r)
    code = inputs["code"]
    ops = [(("pauli-products", 0), partial(frontier_search, code, FRONTIER_T_MAX, "pauli-products"))]
    for strategy, budget in FRONTIER_SEARCHES:
        s = int(rng.integers(0, 2**31))
        ops.append(
            ((strategy, s), partial(frontier_search, code, FRONTIER_T_MAX, strategy, budget=budget, seed=s))
        )
    return ops


def _entangling_depth(circuit) -> int:
    return sum(1 for layer in circuit.layers if any(len(g.qubits) == 2 for g in layer))


def _frontier_check(inputs: dict, results: list) -> list:
    errors = []
    code = inputs["code"]
    checks = checks_of(code.group)
    stars = sum(1 for letters, _ in checks if set(letters) <= {"I", "X"})
    zero_energy = oracles.energy_total(oracles.simulate(code.n, []), checks)
    if stars != 9 or abs(zero_energy - 4.5) > 1e-12:
        errors.append(f"frontier: |0^18> energy {zero_energy} with {stars} star checks, expected 4.5")
    lists = []
    for _, key, records in results:
        lists.append(records)
        if [rec.t for rec in records] != list(range(FRONTIER_T_MAX + 1)):
            errors.append(f"frontier: {key} records cover depths {[rec.t for rec in records]}")
        for rec in records:
            if _entangling_depth(rec.best_circuit) > rec.t:
                errors.append(f"frontier: {key} witness deeper than t={rec.t}")
            if key[0] == "pauli-products" and not rec.best_energy.total <= 4.5 + 1e-9:
                errors.append(f"frontier: pauli-products optimum {rec.best_energy.total} above 4.5")
    merged = merge_frontiers(*lists)
    totals = [rec.best_energy.total for rec in merged]
    pool = [rec for records in lists for rec in records]
    running = [min(rec.best_energy.total for rec in pool if rec.t <= t) for t in range(FRONTIER_T_MAX + 1)]
    if any(b > a + 1e-12 for a, b in zip(totals, totals[1:])):
        errors.append(f"frontier: merged totals increase with t: {totals}")
    if len(totals) != len(running) or any(abs(a - b) > 1e-12 for a, b in zip(totals, running)):
        errors.append(f"frontier: merged totals {totals}, running minimum {running}")
    # every merged record, and every record of the first round, which
    # covers random-clifford's word gates and coordinate-descent's bricks;
    # most random witnesses sit at 9.0 whatever the signs, so the tableau
    # rows of each witness must also stabilize the simulated state
    first_round = [rec for r, _, records in results if r == 0 for rec in records]
    witnesses = {id(rec.best_circuit): rec for rec in merged + first_round}
    for rec in witnesses.values():
        psi = oracles.simulate(code.n, layers_of(rec.best_circuit))
        energy = oracles.energy_total(psi, checks)
        if not abs(energy - rec.best_energy.total) <= 1e-9:
            errors.append(f"frontier: {rec.strategy} t={rec.t} record energy {rec.best_energy.total}, simulated {energy}")
        rows = zero_mixture(code.n).apply_circuit(rec.best_circuit).rows
        worst = max(abs(oracles.expectation(psi, oracles.letters_of(code.n, g.x, g.z), g.sign) - 1.0) for g in rows)
        if not worst <= 1e-9:
            errors.append(f"frontier: {rec.strategy} t={rec.t} witness rows off the simulated state by {worst}")
    return errors


WORKLOADS = {
    "indist": Workload("indist", _indist_setup, _indist_round, _indist_check),
    "sparsify": Workload("sparsify", _sparsify_setup, _sparsify_round, _sparsify_check),
    "amplify": Workload("amplify", _amplify_setup, _amplify_round, _amplify_check),
    "frontier": Workload("frontier", _frontier_setup, _frontier_round, _frontier_check),
}
