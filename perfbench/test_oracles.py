"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest perfbench -q

Each oracle is compared with brute force on five_qubit, and each workload's
check is shown to reject a planted wrong answer.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from stablab.circuits import Gate, LayeredCircuit  # noqa: E402

FIVE = [("XZZXI", 1), ("IXZZX", 1), ("XIXZZ", 1), ("ZXIXZ", 1)]


def _random_letters(rng, n):
    return "".join(rng.choice(list("IXYZ"), size=n))


def _full_unitary(n: int, mat: np.ndarray, wires) -> np.ndarray:
    """Brute force: the 2^n matrix of a gate, entry by entry over basis states."""
    k = len(wires)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        local_in = sum(bits[w] << (k - 1 - i) for i, w in enumerate(wires))
        for local_out in range(2**k):
            out_bits = list(bits)
            for i, w in enumerate(wires):
                out_bits[w] = (local_out >> (k - 1 - i)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(out_bits))
            full[row, col] += mat[local_out, local_in]
    return full


def test_pauli_action_matches_kron_chain():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    words = FIVE + [(_random_letters(rng, 5), int(rng.choice((1, -1)))) for _ in range(20)]
    for letters, sign in words:
        dense = oracles.pauli_matrix(letters, sign)
        assert np.allclose(dense @ dense, np.eye(32))
        assert np.allclose(oracles.apply_pauli(psi, letters, sign), dense @ psi, atol=1e-12)


def test_anticommute_matches_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = _random_letters(rng, 5), _random_letters(rng, 5)
        pa, pb = oracles.pauli_matrix(a), oracles.pauli_matrix(b)
        assert oracles.anticommute(a, b) == int(not np.allclose(pa @ pb, pb @ pa))
    assert not any(oracles.anticommute(a, b) for a, _ in FIVE for b, _ in FIVE)


def test_simulate_matches_full_unitary():
    rng = np.random.default_rng(2)
    n = 5
    names1 = ["H", "S", "SDG", "X", "Y", "Z"]
    names2 = ["CX", "CY", "CZ", "SWAP"]
    layers = []
    for _ in range(4):
        perm = rng.permutation(n)
        layer = [((int(perm[0]),), str(rng.choice(names1)), None)]
        layer.append(((int(perm[1]), int(perm[2])), str(rng.choice(names2)), None))
        word = tuple(
            (str(rng.choice(names2)), tuple(int(i) for i in rng.permutation(2)))
            if rng.random() < 0.5
            else (str(rng.choice(names1)), (int(rng.integers(2)),))
            for _ in range(6)
        )
        layer.append(((int(perm[3]), int(perm[4])), None, word))
        layers.append(layer)
    expected = np.zeros(2**n, dtype=complex)
    expected[0] = 1.0
    for layer in layers:
        for wires, name, word in layer:
            steps = ((name, tuple(range(len(wires)))),) if name is not None else word
            for step, locs in steps:
                expected = _full_unitary(n, oracles.GATES[step], [wires[i] for i in locs]) @ expected
    assert np.allclose(oracles.simulate(n, layers), expected, atol=1e-12)


def test_energy_rejects_flipped_check_sign():
    rng = np.random.default_rng(3)
    psi = oracles.random_code_vector(FIVE, 5, rng)
    assert abs(oracles.energy_total(psi, FIVE)) < 1e-12
    flipped = [(FIVE[0][0], -1)] + FIVE[1:]
    assert abs(oracles.energy_total(psi, flipped) - 1.0) < 1e-12


def test_reduced_state_of_five_qubit_code_state():
    rng = np.random.default_rng(4)
    psi = oracles.random_code_vector(FIVE, 5, rng)
    rho = np.outer(psi, psi.conj()).reshape((2,) * 10)
    # brute-force partial trace over qubits 1, 2, 4 keeps (0, 3)
    brute = np.einsum("aijbkAijBk->abAB", rho).reshape(4, 4)
    assert np.allclose(oracles.reduced_state(psi, 5, (0, 3)), brute, atol=1e-12)
    # every two-qubit marginal of the [[5,1,3]] code is maximally mixed
    assert np.allclose(brute, np.eye(4) / 4, atol=1e-12)


def test_attainable_syndromes():
    assert oracles.attainable_syndromes(FIVE, 5).shape == (16, 4)
    toric2 = workloads.checks_of(workloads.build_code("toric2").group)
    # stars multiply to I, and so do plaquettes: two parity constraints
    assert oracles.attainable_syndromes(toric2, 8).shape == (64, 8)


@pytest.mark.parametrize("p", [1, 2])
def test_sparsifier_deviation_matches_dense_eigenvalues(p):
    rng = np.random.default_rng(5 + p)
    tuples = rng.integers(0, 4, size=(64, p))
    eye = np.eye(32)
    proj = [(eye + oracles.pauli_matrix(letters, sign)) / 2 for letters, sign in FIVE]
    g_sparse = sum(np.linalg.multi_dot([eye, eye] + [proj[i] for i in row]) for row in tuples) / len(tuples)
    h = sum(eye - p_i for p_i in proj) / len(FIVE)
    g = np.linalg.matrix_power(eye - h, p)
    dense = float(np.abs(np.linalg.eigvalsh(g_sparse - g)).max())
    syndromes = oracles.attainable_syndromes(FIVE, 5)
    assert abs(oracles.sparsifier_deviation(syndromes, tuples, p) - dense) < 1e-12


def test_amplified_energies_from_rows_match_state_vector():
    rows = [("ZIIII", 1), ("IZIII", -1), ("IIXII", 1), ("IIIYI", 1), ("IIIIZ", 1)]
    rho = oracles.mixture_rho(rows, 5)
    psi = oracles.simulate(5, [[((1,), "X", None), ((2,), "H", None)], [((3,), None, (("H", (0,)), ("S", (0,))))]])
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    lhs, base = oracles.amplified_energies(rho, FIVE, 1)
    assert abs(lhs - base) < 1e-12
    assert abs(base - oracles.energy_total(psi, FIVE) / len(FIVE)) < 1e-12


def _run(name: str):
    """One round of a workload at seed 0: (workload, inputs, results)."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0)
    return workload, inputs, [(0, key, op()) for key, op in workload.round_ops(inputs, 0)]


def test_sparsify_check_rejects_planted_deviation():
    workload, inputs, results = _run("sparsify")
    results = results[:3]
    assert workload.check(inputs, results) == []
    r, key, (tuples, deviation) = results[0]
    assert workload.check(inputs, [(r, key, (tuples, deviation + 1e-6))] + results[1:])


def test_amplify_check_rejects_planted_energy():
    workload, inputs, results = _run("amplify")
    small = [item for item in results if item[1][0] != "toric3"][:6]
    assert workload.check(inputs, small) == []
    r, key, (circuit, state, reports) = small[-1]
    planted = list(reports)
    planted[1] = replace(reports[1], lhs=reports[1].lhs + 1e-6)
    assert workload.check(inputs, [(r, key, (circuit, state, planted))])


def test_frontier_check_rejects_planted_energy():
    workload = workloads.WORKLOADS["frontier"]
    inputs = workload.setup(0)
    key, op = workload.round_ops(inputs, 0)[0]  # the pauli-products search
    records = op()
    assert workload.check(inputs, [(0, key, records)]) == []
    # an X on qubit 0 trips two plaquettes: the witness no longer reaches 4.5
    flipped = LayeredCircuit(18, ((Gate(qubits=(0,), name="X"),),))
    planted = [replace(rec, best_circuit=flipped) for rec in records]
    assert workload.check(inputs, [(0, key, planted)])
    lowered = [replace(rec, best_energy=replace(rec.best_energy, total=4.0)) for rec in records]
    assert workload.check(inputs, [(0, key, lowered)])


def test_indist_check_rejects_planted_report():
    workload = workloads.WORKLOADS["indist"]
    inputs = workload.setup(0)
    ops = workload.round_ops(inputs, 0)
    results = [(0, key, op()) for key, op in ops if key[1] != "toric3"]
    results += [(0, key, {"passed": True, "max_deviation": 0.0, "distance": 3, "region": list(key[2])})
                for key, _ in ops if key[1] == "toric3"]
    assert workload.check(inputs, results) == []
    i = next(i for i, item in enumerate(results) if item[1][0] == "region")
    r, key, report = results[i]
    planted = results[:i] + [(r, key, dict(report, max_deviation=1e-9))] + results[i + 1 :]
    assert workload.check(inputs, planted)
    j = next(j for j, item in enumerate(results) if item[1][0] == "control")
    assert workload.check(inputs, results[:j] + [(0, results[j][1], 0.0)] + results[j + 1 :])
    assert workload.check(inputs, results[1:])  # one region missing from the round
