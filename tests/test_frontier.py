import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coordinate_descent_by_rebuild,
    gate_fields_after_validation,
    pauli_image_table_kron,
    product_state_minimum_settled_only,
    random_clifford_search_by_draws,
    random_clifford_search_per_trial,
    random_pauli,
    signed_commuting_groups,
)
import stablab.frontier
from stablab import gf2
from stablab.circuits import (
    NAMED_GATES,
    Gate,
    LayeredCircuit,
    circuit_to_dict,
    compose,
    gate_matrix,
    random_low_depth,
)
from stablab.codes import BUILTIN_CODES, build_code, toric_code
from stablab.frontier import (
    _BRICK_CHOICES,
    _SINGLE_STATES,
    FrontierRecord,
    _assemble_descent,
    _energy_of_circuit,
    _prep_image,
    frontier_search,
    merge_frontiers,
    product_prep_circuit,
    product_state_minimum,
    theorem_consistency,
)
from stablab.hamiltonians import build_code_hamiltonian, energy_report
from stablab.paulis import PauliOperator, StabilizerGroup
from stablab.states import apply_circuit_vec, pauli_expectation_vec, zero_mixture, zero_vector


def brute_force_product_minimum(group):
    """All 6^n Pauli-basis products, fully vectorized over assignments."""
    n = group.n
    states = [("Z", 1), ("Z", -1), ("X", 1), ("X", -1), ("Y", 1), ("Y", -1)]
    count = 6**n
    codes = np.arange(count)
    digits = np.empty((n, count), dtype=np.int64)
    for q in range(n):
        digits[q] = codes % 6
        codes = codes // 6
    letters = np.array([s[0] for s in states])
    signs = np.array([s[1] for s in states])
    total = np.zeros(count)
    for check in group.generators:
        value = np.full(count, float(check.sign))
        for q in sorted(check.support):
            want = check.letter(q)
            picked = digits[q]
            value = value * np.where(letters[picked] == want, signs[picked], 0.0)
        total += 0.5 * (1.0 - value)
    return float(total.min())


def test_product_minimum_matches_brute_force_five_qubit():
    group = build_code("five_qubit").group
    best, assignment, exact = product_state_minimum(group)
    assert exact
    assert best == pytest.approx(brute_force_product_minimum(group))
    # the witness reproduces the reported energy through the state pipeline
    circuit = product_prep_circuit(assignment, 5)
    state = zero_mixture(5).apply_circuit(circuit)
    rep = energy_report(state, build_code_hamiltonian(group))
    assert rep.total == pytest.approx(best)


def test_product_minimum_matches_brute_force_toric_two():
    group = build_code("toric2").group
    best, _, exact = product_state_minimum(group)
    assert exact
    assert best == pytest.approx(brute_force_product_minimum(group))
    assert best == pytest.approx(2.0)


def test_product_minimum_random_small_groups():
    # signed checks: a complete check of sign -1 costs 1, not 1/2
    rng = np.random.default_rng(3)
    signs = set()
    for trial in range(6):
        group = None
        while group is None or len(group.generators) < 2:
            try:
                group = StabilizerGroup([random_pauli(4, rng) for _ in range(3)])
            except ValueError:
                group = None
        signs.update(check.sign for check in group.generators)
        best, _, exact = product_state_minimum(group)
        assert exact
        assert best == pytest.approx(brute_force_product_minimum(group)), trial
    assert signs == {1, -1}


@pytest.mark.parametrize("name", [name for name in BUILTIN_CODES if build_code(name).group.n <= 20])
def test_product_minimum_matches_settled_only_search_on_builtins(name):
    group = build_code(name).group
    assert product_state_minimum(group) == product_state_minimum_settled_only(group)


@settings(max_examples=150, deadline=None)
@given(signed_commuting_groups())
def test_product_minimum_matches_settled_only_search_on_random_groups(group):
    assert product_state_minimum(group) == product_state_minimum_settled_only(group)


def test_product_minimum_toric_three_is_frozen():
    group = build_code("toric3").group
    best, assignment, exact = product_state_minimum(group)
    assert exact
    assert best == pytest.approx(4.5)
    # the all-|0> assignment achieves it
    assert assignment == tuple(("Z", 1) for _ in range(18))


def test_product_minimum_trivial_group_reaches_zero():
    group = StabilizerGroup([], n=4)
    best, assignment, exact = product_state_minimum(group)
    assert exact
    assert best == 0.0
    assert len(assignment) == 4


def _disjoint_copies(group: StabilizerGroup, copies: int) -> StabilizerGroup:
    n = group.n
    return StabilizerGroup(
        [
            PauliOperator(n * copies, g.x << (n * c), g.z << (n * c), g.sign)
            for c in range(copies)
            for g in group.generators
        ],
        n=n * copies,
    )


@pytest.mark.parametrize("length", [4, 5])
def test_product_minimum_settles_past_twenty_qubits(length):
    # no qubit cap: the uniform |0> incumbent meets the conflict-matching bound at the root
    group = toric_code(length).group
    assert product_state_minimum(group) == (length * length / 2, tuple(("Z", 1) for _ in range(group.n)), True)
    assert product_state_minimum(StabilizerGroup([], n=21)) == (0.0, tuple(("Z", 1) for _ in range(21)), True)


def test_product_minimum_planted_instance_runs_out_of_nodes():
    # three disjoint five_qubit codes: energies add, so the minimum is 3 * 1.5,
    # but the search cannot settle it within the node budget
    group = _disjoint_copies(build_code("five_qubit").group, 3)
    best, assignment, exact = product_state_minimum(group)
    assert not exact
    assert best >= 4.5
    rep = _energy_of_circuit(product_prep_circuit(assignment, group.n), group)
    assert rep.total == best
    assert not product_state_minimum_settled_only(group)[2]
    records = frontier_search(group, 1, "pauli-products")
    assert [rec.product_bound for rec in records] == [True, True]
    assert records[0].row()["product_minimum"] == "upper bound"
    merged = merge_frontiers(records)
    assert [rec.product_bound for rec in merged] == [True, True]


def test_product_minimum_stops_at_the_node_budget(monkeypatch):
    group = build_code("five_qubit").group  # settles in 43 nodes
    monkeypatch.setattr(stablab.frontier, "PRODUCT_SEARCH_NODES", 43)
    assert product_state_minimum(group)[::2] == (1.5, True)
    monkeypatch.setattr(stablab.frontier, "PRODUCT_SEARCH_NODES", 42)
    best, _, exact = product_state_minimum(group)
    assert not exact and best >= 1.5


def test_product_minimum_settles_two_copies_within_the_budget():
    # the settled-energy bound alone runs out of nodes here; the matching bound does not
    group = _disjoint_copies(build_code("five_qubit").group, 2)
    best, _, exact = product_state_minimum(group)
    assert (best, exact) == (3.0, True)
    oracle_best, _, oracle_exact = product_state_minimum_settled_only(group)
    assert not oracle_exact and oracle_best >= best


def test_product_tables_are_derived_once_as_tuples():
    group = build_code("toric3").group
    tables = stablab.frontier._product_tables(group)
    assert stablab.frontier._product_tables(group) is tables
    signs, supports, touching, conflicts = tables
    assert all(type(part) is tuple for part in (signs, supports, touching, conflicts))
    assert all(type(row) is tuple for part in (supports, touching) for row in part)
    assert conflicts == tuple(sorted(conflicts))


def test_pauli_products_strategy_records():
    code = build_code("toric3")
    records = frontier_search(code, 2, "pauli-products", seed=5)
    assert [rec.t for rec in records] == [0, 1, 2]
    for rec in records:
        assert rec.best_energy.total == pytest.approx(4.5)
        assert rec.strategy == "pauli-products"
        assert rec.best_circuit.entangling_depth == 0


def test_prep_and_brick_gates_are_valid_and_prepare_their_states():
    n = len(_SINGLE_STATES)
    prep = [(letter, sign) for letter, sign, _ in _SINGLE_STATES]
    pairings = [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4)]]
    bricks = [["CX", "XC", "CZ"], ["SWAP", "II"]]
    assert sorted(c for layer in bricks for c in layer) == sorted(_BRICK_CHOICES)
    circuit = _assemble_descent(prep, bricks, n, pairings)
    assert sum(len(layer) for layer in circuit.layers) == 5 + 4  # |0> needs no prep word, II no gate
    for gate in (g for layer in circuit.layers for g in layer):
        trusted, checked = gate_fields_after_validation(gate)
        assert trusted == checked
    prepared = zero_mixture(n).apply_circuit(product_prep_circuit(prep, n))
    bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for q, (letter, sign) in enumerate(prep):
        x, z = bits[letter]
        assert prepared.expectation(PauliOperator(n, x << q, z << q, sign)) == 1.0


def test_random_clifford_records_reproduce():
    code = build_code("five_qubit")
    records = frontier_search(code, 2, "random-clifford", budget=40, seed=9)
    ham = build_code_hamiltonian(code.group)
    for rec in records:
        rebuilt = random_low_depth(5, rec.t, family="clifford", seed=rec.seed)
        state = zero_mixture(5).apply_circuit(rebuilt)
        assert energy_report(state, ham).total == pytest.approx(rec.best_energy.total)


@pytest.mark.parametrize("name", ["five_qubit", "toric3", "surface13"])
def test_random_clifford_records_match_the_per_trial_search(name):
    """Trials scored from their draws keep the winners the built circuits
    would: the same seeds, per-term energies and witness circuits."""
    group = build_code(name).group
    for seed in range(10):
        records = frontier_search(group, 3, "random-clifford", budget=16, seed=seed)
        want = random_clifford_search_per_trial(group, 3, 16, seed)
        assert [(r.t, r.seed, r.best_energy.per_term, circuit_to_dict(r.best_circuit)) for r in records] == [
            (t, trial_seed, rep.per_term, circuit_to_dict(circuit)) for t, trial_seed, rep, circuit in want
        ]


def _count_calls(monkeypatch, *names) -> dict:
    """Count the calls of each named ``stablab.frontier`` function, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(stablab.frontier, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(stablab.frontier, name, counted(name))
    return calls


_RANDOM_CLIFFORD_GROUPS = {
    name: build_code(name).group for name in ("five_qubit", "surface13", "toric2", "toric3")
} | {"toric6": toric_code(6).group}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_RANDOM_CLIFFORD_GROUPS)), st.integers(0, 4), st.integers(1, 13), st.integers(0, 2**32))
def test_random_clifford_blocks_match_the_search_one_trial_at_a_time(name, t_max, budget, seed):
    """With blocks of 3 trials, budgets up to five blocks put equal totals
    on both sides of block edges: a later block must not take the lead on
    a tie. toric6 has 72 checks, past one machine word; five_qubit and
    surface13 leave a wire idle per layer."""
    group = _RANDOM_CLIFFORD_GROUPS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stablab.frontier, "_TRIAL_BLOCK", 3)
        records = frontier_search(group, t_max, "random-clifford", budget=budget, seed=seed)
    want = random_clifford_search_by_draws(group, t_max, budget, seed)
    assert [(r.t, r.seed, r.best_energy.per_term, circuit_to_dict(r.best_circuit)) for r in records] == [
        (t, trial_seed, rep.per_term, circuit_to_dict(circuit)) for t, trial_seed, rep, circuit in want
    ]


def test_random_clifford_reads_no_built_circuit_per_trial(monkeypatch):
    """Trials are read from their draws in blocks: at most one built
    circuit a depth goes through heisenberg_columns, and depth 0 draws a
    single trial."""
    calls = _count_calls(monkeypatch, "draw_clifford_words", "heisenberg_columns")
    for t_max, budget in ((0, 300), (3, 16), (3, 300)):
        calls.update(dict.fromkeys(calls, 0))
        frontier_search(build_code("toric3"), t_max, "random-clifford", budget=budget, seed=4)
        assert calls["draw_clifford_words"] == 1 + t_max * budget
        assert calls["heisenberg_columns"] <= t_max + 1


def test_random_clifford_peak_memory_does_not_grow_with_the_budget():
    """Blocks bound the pass: four blocks of trials peak within 1.5x of one."""
    group = build_code("toric3").group
    block = stablab.frontier._TRIAL_BLOCK
    frontier_search(group, 3, "random-clifford", budget=block, seed=1)  # tables and per-group data
    peaks = []
    for budget in (block, 4 * block):
        gc.collect()
        tracemalloc.start()
        try:
            frontier_search(group, 3, "random-clifford", budget=budget, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_random_clifford_is_deterministic():
    code = build_code("five_qubit")
    a = frontier_search(code, 1, "random-clifford", budget=25, seed=3)
    b = frontier_search(code, 1, "random-clifford", budget=25, seed=3)
    assert [(r.seed, r.best_energy.total) for r in a] == [
        (r.seed, r.best_energy.total) for r in b
    ]


def test_coordinate_descent_improves_and_reruns():
    code = build_code("toric2")
    a = frontier_search(code, 1, "coordinate-descent", budget=400, seed=2)
    b = frontier_search(code, 1, "coordinate-descent", budget=400, seed=2)
    assert [r.best_energy.total for r in a] == [r.best_energy.total for r in b]
    # descent at depth 0 sweeps the prep layer; it must reach the product optimum
    assert a[0].best_energy.total <= 2.0 + 1e-9


def _assert_descent_matches_the_rebuild_oracle(group, t_max: int, budget: int, seed: int):
    records = frontier_search(group, t_max, "coordinate-descent", budget=budget, seed=seed)
    for rec in records:
        want_rep, want_circuit = coordinate_descent_by_rebuild(group, rec.t, budget, seed)
        assert rec.seed == seed
        assert rec.best_energy.per_term == want_rep.per_term, (rec.t, budget, seed)
        assert circuit_to_dict(rec.best_circuit) == circuit_to_dict(want_circuit), (rec.t, budget, seed)
    assert [rec.t for rec in records] == list(range(t_max + 1))


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_coordinate_descent_matches_the_rebuild_oracle(name):
    """Budget 1 stops the search at its first evaluation, 2 inside the first
    qubit's prep moves, 6 after them, 16 and 17 inside later qubits' moves,
    and 150 inside a brick slot (toric3 at t = 3) or a restart."""
    group = build_code(name).group
    for budget in (1, 2, 6, 16, 17, 150):
        for seed in range(10):
            _assert_descent_matches_the_rebuild_oracle(group, 3, budget, seed)


@settings(max_examples=60, deadline=None)
@given(signed_commuting_groups(max_n=8), st.integers(0, 3), st.integers(1, 60), st.integers(0, 2**16))
def test_coordinate_descent_matches_the_rebuild_oracle_on_random_groups(group, t_max, budget, seed):
    _assert_descent_matches_the_rebuild_oracle(group, t_max, budget, seed)


def test_coordinate_descent_builds_only_each_depths_winner(monkeypatch):
    """Evaluations read the kept brick and prep images: no circuit is
    assembled or read per evaluation, only one witness per depth, and each
    depth reads exactly ``budget`` energies."""
    calls = _count_calls(monkeypatch, "_assemble_descent", "_energy_of_circuit", "_outcome_report")
    for t_max, budget in ((0, 1), (3, 16), (3, 150)):
        calls.update(dict.fromkeys(calls, 0))
        frontier_search(build_code("toric3"), t_max, "coordinate-descent", budget=budget, seed=4)
        assert calls == {
            "_assemble_descent": t_max + 1,
            "_energy_of_circuit": 0,
            "_outcome_report": (t_max + 1) * budget,
        }


@pytest.mark.parametrize("letter, sign, word", _SINGLE_STATES)
def test_prep_images_match_the_adjoint_pauli_image_tables(letter, sign, word):
    """The four local Paulis through one prep word at once, v = x | z << 1
    at bit v of the columns, with signs all + and then all -: the image
    must be the table of the word's adjoint."""
    want = pauli_image_table_kron(gate_matrix(Gate(qubits=(0,), word=word)).conj().T)
    for start in (0, 0b1111):
        x, z, signs = _prep_image(*gf2.transpose(range(4), 2), start, word)
        images = gf2.transpose([x, z], 4)
        flips = signs ^ start
        assert [(images[v], -1 if flips >> v & 1 else 1) for v in range(4)] == list(want)


def test_merged_records_monotone():
    code = build_code("five_qubit")
    products = frontier_search(code, 3, "pauli-products")
    cliffords = frontier_search(code, 3, "random-clifford", budget=30, seed=1)
    descent = frontier_search(code, 3, "coordinate-descent", budget=200, seed=1)
    merged = merge_frontiers(products, cliffords, descent)
    assert [rec.t for rec in merged] == [0, 1, 2, 3]
    totals = [rec.best_energy.total for rec in merged]
    assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))
    best_input = min(
        rec.best_energy.total for rec in products + cliffords + descent if rec.t == 0
    )
    assert merged[0].best_energy.total == pytest.approx(best_input)


def test_merge_empty():
    assert merge_frontiers([]) == []


def test_strategy_and_budget_validation():
    code = build_code("five_qubit")
    with pytest.raises(ValueError):
        frontier_search(code, 1, "annealing")
    with pytest.raises(ValueError):
        frontier_search(code, 1, "random-clifford", budget=0)
    with pytest.raises(ValueError):
        frontier_search(code, -1, "random-clifford")


def test_consistency_clean_at_desk_scale():
    code = build_code("five_qubit")
    records = frontier_search(code, 2, "random-clifford", budget=20, seed=0)
    report = theorem_consistency(records, k=1, d=3, ell=4, n=5)
    assert report["consistent"]
    assert report["checked"] > 0
    assert report["violations"] == []


def test_consistency_detects_injected_violation():
    # fictitious giant 1-local code (n = k = d = 512) opens the rate bound's
    # applicability window; a shallow low-energy record must then be flagged
    code = build_code("five_qubit")
    records = frontier_search(code, 0, "random-clifford", budget=20, seed=0)
    rec = records[0]
    assert 0.0 < rec.best_energy.mean < 1.0
    report = theorem_consistency([rec], k=512, d=2**9, ell=1, n=512)
    assert not report["consistent"]
    names = {v["bound"] for v in report["violations"]}
    assert "thm2_rate" in names
    # k and d above n lie outside every theorem's premises
    with pytest.raises(ValueError):
        theorem_consistency([rec], k=512, d=2**9, ell=2, n=5)


def test_record_row_columns():
    code = build_code("five_qubit")
    rec = frontier_search(code, 0, "pauli-products")[0]
    row = rec.row()
    assert list(row) == ["t", "strategy", "seed", "total_energy", "mean_energy"]
    assert isinstance(rec, FrontierRecord)


def _search_circuits(n: int, seed: int) -> list[LayeredCircuit]:
    """What the searches score: random Clifford words, and prep words with bricks."""
    rng = np.random.default_rng(seed)
    circuits = [random_low_depth(n, t, family="clifford", seed=seed + t) for t in range(4)]
    for t in range(3):
        pairings = [[(a, a + 1) for a in range(layer % 2, n - 1, 2)] for layer in range(t)]
        prep = [_SINGLE_STATES[i][:2] for i in rng.integers(0, 6, size=n)]
        bricks = [[_BRICK_CHOICES[i] for i in rng.integers(0, 5, size=len(p))] for p in pairings]
        circuits.append(_assemble_descent(prep, bricks, n, pairings))
    return circuits


@st.composite
def _named_gate_circuits(draw, n: int):
    """One named gate per layer, every named gate allowed, on distinct wires."""
    names = sorted(name for name, mat in NAMED_GATES.items() if mat.shape[0] == 2 or n >= 2)
    layers = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(names))
        arity = NAMED_GATES[name].shape[0].bit_length() - 1
        layers.append((Gate(qubits=tuple(draw(st.permutations(range(n)))[:arity]), name=name),))
    return LayeredCircuit(n, tuple(layers))


def _assert_same_report(got, want):
    assert (got.per_term, got.total, got.mean) == (want.per_term, want.total, want.mean)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_heisenberg_energies_match_the_mixture_reports_on_builtins(name):
    group = build_code(name).group
    ham = build_code_hamiltonian(group)
    for seed in range(3):
        for circuit in _search_circuits(group.n, seed):
            got = _energy_of_circuit(circuit, group)
            _assert_same_report(got, energy_report(zero_mixture(group.n).apply_circuit(circuit), ham))
            if group.n <= 12:
                psi = apply_circuit_vec(zero_vector(group.n), circuit)
                dense = [0.5 - 0.5 * pauli_expectation_vec(psi, c) for c in group.generators]
                assert np.allclose(got.per_term, dense, rtol=0, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(signed_commuting_groups(max_n=12), st.integers(0, 2**16), st.data())
def test_heisenberg_energies_match_mixture_and_dense_energies(group, seed, data):
    n = group.n
    ham = build_code_hamiltonian(group)
    named = data.draw(_named_gate_circuits(n))
    circuits = [named] + [compose(c, named) for c in _search_circuits(n, seed)[::3]]
    for circuit in circuits:
        got = _energy_of_circuit(circuit, group)
        _assert_same_report(got, energy_report(zero_mixture(n).apply_circuit(circuit), ham))
        psi = apply_circuit_vec(zero_vector(n), circuit)
        dense = [0.5 - 0.5 * pauli_expectation_vec(psi, c) for c in group.generators]
        assert np.allclose(got.per_term, dense, rtol=0, atol=1e-10)


def test_random_clifford_records_retain_little_memory():
    """A caller that keeps many searches keeps their records: one toric3
    random-clifford search (t <= 3, budget 16) must hold under 16 KB."""
    code = build_code("toric3")
    frontier_search(code, 3, "random-clifford", budget=16, seed=1)  # per-group and per-wire-pair data
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = frontier_search(code, 3, "random-clifford", budget=16, seed=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 4
    assert retained < 16 * 1024
