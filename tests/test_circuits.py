import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    circuit_unitary_naive,
    clifford_word_draws,
    expand_gate,
    gate_fields_after_validation,
    heisenberg_draws,
    pauli_image_table,
    pauli_image_table_kron,
    pauli_letters,
    pauli_matrix,
    random_clifford_circuit_per_gate,
)
from stablab import gf2
from stablab.circuits import (
    _DAGGER_NAME,
    _WORD_ALPHABET,
    NAMED_GATES,
    Gate,
    LayeredCircuit,
    _step_tables,
    circuit_from_dict,
    circuit_of_draws,
    circuit_to_dict,
    compose,
    conjugate_columns,
    dagger_gate,
    draw_clifford_words,
    dump_circuit,
    embed,
    gate_matrix,
    heisenberg_columns,
    heisenberg_draw_batch,
    identity_circuit,
    lightcone,
    load_circuit,
    random_low_depth,
    reverse_circuit,
)


def circuit_unitary(circuit):
    return circuit_unitary_naive(circuit, gate_matrix)


@pytest.mark.parametrize("name", sorted(NAMED_GATES))
def test_pauli_image_table_matches_the_kron_built_table(name):
    assert pauli_image_table(name) == pauli_image_table_kron(NAMED_GATES[name])


def test_named_gates_are_unitary_and_conjugate_paulis_correctly():
    for name, mat in NAMED_GATES.items():
        dim = mat.shape[0]
        assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-12), name
    # H: X <-> Z, S: X -> Y
    H, S = NAMED_GATES["H"], NAMED_GATES["S"]
    assert np.allclose(H @ pauli_matrix("X") @ H.conj().T, pauli_matrix("Z"))
    assert np.allclose(S @ pauli_matrix("X") @ S.conj().T, pauli_matrix("Y"))
    # CX on |10> flips the target (first listed wire is the control)
    cx = NAMED_GATES["CX"]
    state = np.zeros(4)
    state[0b10] = 1
    assert np.allclose(cx @ state, np.eye(4)[0b11])
    # CY applies Y to the target when the control is set
    cy = NAMED_GATES["CY"]
    assert np.allclose(cy[2:, 2:], pauli_matrix("Y"))
    assert np.allclose(cy[:2, :2], np.eye(2))


def test_pauli_image_tables_match_conjugation_by_the_matrix():
    for name, mat in NAMED_GATES.items():
        k = mat.shape[0].bit_length() - 1
        table = pauli_image_table(name)
        assert len(table) == 4**k
        low = (1 << k) - 1
        for v, (image, sign) in enumerate(table):
            assert sign in (1, -1)
            conjugated = mat @ pauli_matrix(pauli_letters(v & low, v >> k, k)) @ mat.conj().T
            expected = sign * pauli_matrix(pauli_letters(image & low, image >> k, k))
            assert np.allclose(conjugated, expected), (name, v)
    # X on the control of CX spreads to the target; Z on the target to the control
    assert pauli_image_table("CX")[0b0001] == (0b0011, 1)
    assert pauli_image_table("CX")[0b1000] == (0b1100, 1)


def test_pauli_image_table_rejects_a_non_clifford(monkeypatch):
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    monkeypatch.setitem(NAMED_GATES, "T", t_gate)
    with pytest.raises(ValueError, match="no single signed Pauli"):
        pauli_image_table("T")


@pytest.mark.parametrize("name", sorted(NAMED_GATES))
@pytest.mark.parametrize("engine", [conjugate_columns, heisenberg_columns])
def test_column_rules_match_the_pauli_image_tables(name, engine):
    """All 4^k local Paulis go through the gate at once, Pauli v = x | z << k
    at bit v of the columns, first all with sign +1 and then all with -1;
    heisenberg_columns must give the table of the adjoint."""
    mat = NAMED_GATES[name]
    k = mat.shape[0].bit_length() - 1
    if engine is conjugate_columns:
        want = pauli_image_table(name)
        assert want == pauli_image_table_kron(mat)
    else:
        want = pauli_image_table_kron(mat.conj().T)
    circuit = LayeredCircuit(k, ((Gate(qubits=tuple(range(k)), name=name),),))
    for start in (0, (1 << 4**k) - 1):
        cols = gf2.transpose(range(4**k), 2 * k)
        xs, zs = cols[:k], cols[k:]
        signs = engine(xs, zs, start, circuit)
        images = gf2.transpose(xs + zs, 4**k)
        flips = signs ^ start
        assert [(images[v], -1 if flips >> v & 1 else 1) for v in range(4**k)] == list(want)


@pytest.mark.parametrize("index", range(len(_WORD_ALPHABET)))
def test_draw_readout_steps_match_the_adjoint_pauli_image_tables(index):
    """One drawn step on wires (0, 1), with the 16 local Paulis at once as in
    the test above: the readout must give the table of the step's adjoint."""
    mat = gate_matrix(Gate(qubits=(0, 1), word=(_WORD_ALPHABET[index],)))
    want = pauli_image_table_kron(mat.conj().T)
    draws = (([(0, 1)], [[index]]),)
    for start in (0, (1 << 16) - 1):
        cols = gf2.transpose(range(16), 4)
        xs, zs = cols[:2], cols[2:]
        signs = heisenberg_draws(xs, zs, start, draws)
        images = gf2.transpose(xs + zs, 16)
        flips = signs ^ start
        assert [(images[v], -1 if flips >> v & 1 else 1) for v in range(16)] == list(want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.integers(0, 2**64), st.data())
def test_draw_readout_matches_heisenberg_columns_on_the_built_circuit(m, depth, seed, data):
    cols = st.integers(0, 2**40 - 1)
    xs = data.draw(st.lists(cols, min_size=m, max_size=m))
    zs = data.draw(st.lists(cols, min_size=m, max_size=m))
    signs = data.draw(cols)
    want_xs, want_zs = list(xs), list(zs)
    want = heisenberg_columns(want_xs, want_zs, signs, random_low_depth(m, depth, seed=seed))
    assert heisenberg_draws(xs, zs, signs, clifford_word_draws(m, depth, seed)) == want
    assert (xs, zs) == (want_xs, want_zs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.integers(0, 2**64))
def test_drawn_arrays_hold_the_list_draws(m, depth, seed):
    perms, words = draw_clifford_words(m, depth, seed)
    assert (perms.shape, words.shape, words.dtype) == ((depth, m), (depth, m // 2, 12), np.uint8)
    layers = tuple((list(zip(p[0 : m - 1 : 2], p[1::2])), w) for p, w in zip(perms.tolist(), words.tolist()))
    assert layers == clifford_word_draws(m, depth, seed)


@pytest.mark.parametrize("index", range(len(_WORD_ALPHABET)))
def test_step_tables_match_the_daggered_pauli_image_tables(index):
    """Entry pattern | sign << 4 of a step's table, the pattern x_a | x_b << 1
    | z_a << 2 | z_b << 3 on the slot's wires (a, b), must hold the image
    and sign that the matrix-built table of the daggered step gives, on all
    16 patterns and both signs."""
    name, locs = _WORD_ALPHABET[index]
    table = pauli_image_table(_DAGGER_NAME[name])
    k = len(locs)
    want = []
    for entry in range(32):
        local = sum((entry >> w & 1) << j | (entry >> 2 + w & 1) << k + j for j, w in enumerate(locs))
        image, sign = table[local]
        out = entry & ~sum(0b101 << w for w in locs)
        out |= sum((image >> j & 1) << w | (image >> k + j & 1) << 2 + w for j, w in enumerate(locs))
        want.append(out ^ (sign < 0) << 4)
    assert _step_tables()[index].tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.integers(1, 3), st.integers(0, 70), st.integers(0, 2**32), st.data())
def test_draw_batch_matches_heisenberg_columns_on_each_built_circuit(m, depth, n_trials, n_paulis, seed, data):
    """Up to 70 Paulis, past one machine word; odd m leaves a wire idle."""
    cols = st.integers(0, (1 << n_paulis) - 1)
    xs = data.draw(st.lists(cols, min_size=m, max_size=m))
    zs = data.draw(st.lists(cols, min_size=m, max_size=m))
    signs = data.draw(cols)
    codes = np.array([[(x >> i & 1) | (z >> i & 1) << 2 for i in range(n_paulis)] for x, z in zip(xs, zs)], dtype=np.uint8)
    draws = [draw_clifford_words(m, depth, seed + trial) for trial in range(n_trials)]
    images, flips = heisenberg_draw_batch(
        codes.reshape(m, n_paulis), np.stack([p for p, _ in draws]), np.stack([w for _, w in draws])
    )
    assert (images.shape, flips.shape) == ((n_trials, m, n_paulis), (n_trials, n_paulis))
    for trial, drawn in enumerate(draws):
        want_xs, want_zs = list(xs), list(zs)
        want = heisenberg_columns(want_xs, want_zs, signs, circuit_of_draws(m, drawn))
        got_xs = [sum(int(c & 1) << i for i, c in enumerate(row)) for row in images[trial]]
        got_zs = [sum(int(c >> 2 & 1) << i for i, c in enumerate(row)) for row in images[trial]]
        got_flips = sum(int(f) << i for i, f in enumerate(flips[trial]))
        assert (got_xs, got_zs, signs ^ got_flips) == (want_xs, want_zs, want)


def test_column_engines_reject_a_dense_gate():
    circuit = LayeredCircuit(2, ((Gate(qubits=(0, 1), name="CX"),), (Gate(qubits=(0,), matrix=np.eye(2)),)))
    for engine in (conjugate_columns, heisenberg_columns):
        with pytest.raises(ValueError, match="dense gates"):
            engine([1, 0], [0, 1], 0, circuit)


def test_word_gate_matrix_matches_step_by_step_product():
    word = (("H", (0,)), ("CX", (0, 1)), ("S", (1,)), ("CX", (1, 0)), ("SDG", (0,)))
    gate = Gate(qubits=(0, 1), word=word)
    total = np.eye(4, dtype=complex)
    for name, locs in word:
        mat = NAMED_GATES[name]
        wires = tuple(locs)
        total = expand_gate(mat, wires, 2) @ total
    assert np.allclose(gate_matrix(gate), total, atol=1e-12)


def test_word_gate_with_reversed_two_qubit_step():
    # CX with control on local wire 1 must differ from control on wire 0
    g_forward = Gate(qubits=(0, 1), word=(("CX", (0, 1)),))
    g_reversed = Gate(qubits=(0, 1), word=(("CX", (1, 0)),))
    assert not np.allclose(gate_matrix(g_forward), gate_matrix(g_reversed))
    assert np.allclose(gate_matrix(g_reversed), expand_gate(NAMED_GATES["CX"], (1, 0), 2))


@pytest.mark.parametrize("kind", ["name", "word", "dense"])
def test_dagger_gate_is_adjoint(kind):
    rng = np.random.default_rng(7)
    if kind == "name":
        gates = [Gate(qubits=(1,), name=n) for n in ("H", "S", "SDG", "X", "Y", "Z")]
        gates += [Gate(qubits=(0, 2), name=n) for n in ("CX", "CZ", "CY", "SWAP")]
    elif kind == "word":
        words = [layer[0].word for layer in random_low_depth(2, 5, seed=7).layers]
        gates = [Gate(qubits=(2, 0), word=word) for word in words]
    else:
        from scipy.stats import unitary_group

        gates = [Gate(qubits=(0, 1), matrix=unitary_group.rvs(4, random_state=rng)) for _ in range(3)]
    for g in gates:
        assert np.allclose(gate_matrix(dagger_gate(g)), gate_matrix(g).conj().T, atol=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(qubits=(0, 0), name="CX")
    with pytest.raises(ValueError):
        Gate(qubits=(0,), name="NOPE")
    with pytest.raises(ValueError):
        Gate(qubits=(0, 1), name="H")  # wrong arity
    with pytest.raises(ValueError):
        Gate(qubits=(0,), name="H", word=(("H", (0,)),))  # two kinds at once
    with pytest.raises(ValueError):
        Gate(qubits=(0,))  # no kind
    with pytest.raises(ValueError):
        Gate(qubits=(0, 1), matrix=np.ones((4, 4)))  # not unitary
    with pytest.raises(ValueError):
        Gate(qubits=(0, 1), word=(("H", (2,)),))  # local position out of range


def test_layer_validation_rejects_wire_collisions():
    g1 = Gate(qubits=(0, 1), name="CX")
    g2 = Gate(qubits=(1, 2), name="CX")
    with pytest.raises(ValueError):
        LayeredCircuit(m=3, layers=((g1, g2),))
    circ = LayeredCircuit(m=3, layers=((g1,), (g2,)))
    assert circ.depth == 2
    with pytest.raises(ValueError):
        LayeredCircuit(m=2, layers=((g2,),))  # wire 2 out of range


def test_entangling_depth_ignores_single_qubit_layers():
    h = Gate(qubits=(0,), name="H")
    cx = Gate(qubits=(0, 1), name="CX")
    circ = LayeredCircuit(m=2, layers=((h,), (cx,), (h, Gate(qubits=(1,), name="S"))))
    assert circ.depth == 3
    assert circ.entangling_depth == 1


def test_lightcone_hand_example():
    cx01 = Gate(qubits=(0, 1), name="CX")
    cx12 = Gate(qubits=(1, 2), name="CX")
    circ = LayeredCircuit(m=4, layers=((cx01,), (cx12,)))
    assert lightcone(circ, [2]) == frozenset({0, 1, 2})
    assert lightcone(circ, [0]) == frozenset({0, 1})
    assert lightcone(circ, [3]) == frozenset({3})
    assert lightcone(identity_circuit(4), [1, 3]) == frozenset({1, 3})
    with pytest.raises(ValueError):
        lightcone(circ, [9])


def test_lightcone_growth_bound_and_monotonicity():
    rng = np.random.default_rng(11)
    for seed in range(20):
        m = int(rng.integers(3, 9))
        t = int(rng.integers(0, 4))
        circ = random_low_depth(m, t, family="clifford", seed=seed)
        qubits = list(rng.choice(m, size=min(2, m), replace=False))
        cone = lightcone(circ, qubits)
        assert set(qubits) <= cone
        assert len(cone) <= min(m, len(qubits) * 2**t)
        assert cone <= lightcone(circ, list(set(qubits) | {0}))


def test_lightcone_superset_monotone():
    rng = np.random.default_rng(3)
    for seed in range(10):
        circ = random_low_depth(6, 3, seed=seed)
        small = lightcone(circ, [2])
        big = lightcone(circ, [2, 4])
        assert small <= big


def test_reverse_circuit_is_adjoint_unitary():
    for seed, family in [(0, "clifford"), (1, "haar")]:
        circ = random_low_depth(4, 3, family=family, seed=seed)
        u = circuit_unitary(circ)
        u_rev = circuit_unitary(reverse_circuit(circ))
        assert np.allclose(u_rev, u.conj().T, atol=1e-10)


def test_compose_and_embed():
    a = random_low_depth(3, 1, seed=0)
    b = random_low_depth(3, 2, seed=1)
    ab = compose(a, b)
    assert ab.depth == 3
    assert np.allclose(circuit_unitary(ab), circuit_unitary(b) @ circuit_unitary(a), atol=1e-10)
    with pytest.raises(ValueError):
        compose(a, random_low_depth(4, 1, seed=2))

    widened = embed(a, 5)
    assert widened.m == 5
    u_small = circuit_unitary(a)
    u_big = circuit_unitary(widened)
    # wires 3, 4 of the big system are untouched
    assert np.allclose(u_big, np.kron(u_small, np.eye(4)), atol=1e-10)


def test_random_low_depth_shapes_and_determinism():
    circ = random_low_depth(7, 3, seed=42)
    assert circ.depth == 3
    for layer in circ.layers:
        assert len(layer) == 3  # floor(7/2) pairs
        used = [q for g in layer for q in g.qubits]
        assert len(used) == len(set(used))
    again = random_low_depth(7, 3, seed=42)
    assert circuit_to_dict(circ) == circuit_to_dict(again)
    other = random_low_depth(7, 3, seed=43)
    assert circuit_to_dict(circ) != circuit_to_dict(other)

    haar = random_low_depth(4, 2, family="haar", seed=0)
    assert all(g.matrix is not None for layer in haar.layers for g in layer)
    with pytest.raises(ValueError):
        random_low_depth(4, 1, family="pseudo")
    for family in ("clifford", "haar"):
        with pytest.raises(ValueError, match="nonnegative"):
            random_low_depth(4, -1, family=family, seed=0)
        with pytest.raises(ValueError, match="one wire"):
            random_low_depth(0, 1, family=family, seed=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 4), st.integers(0, 2**64))
def test_random_low_depth_matches_the_per_gate_draws(m, depth, seed):
    circ = random_low_depth(m, depth, seed=seed)
    oracle = random_clifford_circuit_per_gate(m, depth, seed)
    assert circ.m == m and circ.depth == depth
    for layer, want in zip(circ.layers, oracle.layers, strict=True):
        assert len(layer) == len(want) == m // 2
        for gate, expected in zip(layer, want):
            assert gate.qubits == expected.qubits
            assert gate.word == expected.word
            assert gate.name is None and gate.matrix is None
            trusted, checked = gate_fields_after_validation(gate)
            assert trusted == checked
            assert all(type(q) is int for q in gate.qubits)


@given(st.integers(1, 20), st.one_of(st.none(), st.integers()))
def test_depth_zero_is_the_empty_circuit_for_any_seed(m, seed):
    perms, words = draw_clifford_words(m, 0, seed)
    assert (perms.shape, words.shape) == ((0, m), (0, m // 2, 12))
    circ = random_low_depth(m, 0, seed=seed)
    assert (circ.m, circ.layers, circ.code_qubits) == (m, (), None)


def test_clifford_words_are_single_gates_per_slot():
    circ = random_low_depth(6, 2, family="clifford", seed=9)
    for layer in circ.layers:
        for g in layer:
            assert g.word is not None
            assert g.is_clifford_representable
    assert circ.is_clifford


def test_one_dense_gate_makes_a_circuit_non_clifford():
    assert identity_circuit(3).is_clifford
    assert not random_low_depth(4, 1, family="haar", seed=2).is_clifford
    words = random_low_depth(4, 2, family="clifford", seed=2)
    dense = Gate(qubits=(0, 3), matrix=np.eye(4))
    assert not compose(words, LayeredCircuit(m=4, layers=((dense,),))).is_clifford


def test_circuit_json_roundtrip(tmp_path):
    circ = random_low_depth(5, 2, family="clifford", seed=3)
    path = tmp_path / "circ.json"
    dump_circuit(circ, path)
    loaded = load_circuit(path)
    # words are written as words, so the loaded circuit stays on the tableau
    assert [g.word for layer in loaded.layers for g in layer] == [g.word for layer in circ.layers for g in layer]
    assert loaded.is_clifford
    assert np.allclose(circuit_unitary(loaded), circuit_unitary(circ), atol=1e-10)
    assert loaded.m == circ.m
    # a second dump of the loaded circuit is byte-identical
    path2 = tmp_path / "circ2.json"
    dump_circuit(loaded, path2)
    dump_circuit(load_circuit(path2), path)
    assert path.read_bytes() == path2.read_bytes()


def test_named_gates_survive_roundtrip(tmp_path):
    circ = LayeredCircuit(
        m=3,
        layers=(
            (Gate(qubits=(0,), name="H"), Gate(qubits=(1, 2), name="CX")),
            (Gate(qubits=(2, 0), name="CZ"),),
        ),
        code_qubits=(0, 1),
    )
    path = tmp_path / "named.json"
    dump_circuit(circ, path)
    payload = json.loads(path.read_text())
    assert payload["layers"][0][0]["gate"] == "H"
    assert payload["layers"][0][1]["gate"] == "CX"
    assert payload["code_qubits"] == [0, 1]
    loaded = load_circuit(path)
    assert loaded.layers[0][0].name == "H"
    assert loaded.code_qubits == (0, 1)


def test_word_payload_accepted_on_load():
    payload = {
        "m": 2,
        "layers": [[{"gate": {"word": [["H", [0]], ["CX", [0, 1]]]}, "qubits": [0, 1]}]],
    }
    circ = circuit_from_dict(payload)
    expected = NAMED_GATES["CX"] @ expand_gate(NAMED_GATES["H"], (0,), 2)
    assert np.allclose(circuit_unitary(circ), expected, atol=1e-12)


def test_circuit_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2,\n "layers": [[{"gate": 3}]]}')
    with pytest.raises(ValueError, match="layer 0 gate 0"):
        load_circuit(bad)
    bad.write_text('{"m": 2\n "layers": []}')
    with pytest.raises(ValueError, match=r"bad\.json:2:2"):
        load_circuit(bad)
    bad.write_text('{"layers": []}')
    with pytest.raises(ValueError, match="missing 'm'"):
        load_circuit(bad)
    bad.write_text('{"m": 1, "layers": [[{"gate": "CX", "qubits": [0, 1]}]]}')
    with pytest.raises(ValueError):
        load_circuit(bad)
