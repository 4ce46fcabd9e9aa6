"""Pauli algebra against dense-matrix oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab import gf2, paulis
from stablab.codes import BUILTIN_CODES, build_code, hypergraph_product, toric_code
from stablab.paulis import (
    PauliOperator,
    StabilizerGroup,
    best_distance,
    combine,
    commutes,
    from_letters,
    logical_pairs,
    min_weight_logical,
    multiply,
    symplectic_product,
)
from stablab.circuits import random_low_depth
from stablab.states import group_mixture, zero_mixture

from oracles import (
    best_distance_per_pair,
    min_weight_coset_rep_gray,
    min_weight_logical_by_candidates,
    pauli_matrix,
    projector_from_strings,
    random_pauli,
    ring_check_matrix,
    signed_commuting_groups,
    syndrome_of,
    weight_ascending_candidates,
)


@given(st.integers(0, 2**12 - 1), st.permutations(range(12)), st.integers(0, 12))
def test_gather_and_scatter_move_the_named_bits(v, order, k):
    wires = order[:k]
    bits = [(v >> w) & 1 for w in wires]
    packed = paulis.gather(v, wires)
    assert packed == sum(b << j for j, b in enumerate(bits))
    assert paulis.scatter(packed, wires) == sum(b << w for w, b in zip(wires, bits))
    low = v & ((1 << k) - 1)
    assert paulis.gather(paulis.scatter(low, wires), wires) == low

FIVE_QUBIT_CHECKS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def dense(p: PauliOperator) -> np.ndarray:
    return pauli_matrix(p.letters(), p.sign)


def five_qubit_group() -> StabilizerGroup:
    return StabilizerGroup([from_letters(c) for c in FIVE_QUBIT_CHECKS])


def test_parse_print_round_trip():
    for text in ["XZZXI", "-IXY", "Z", "-YYYY", "IIIII"]:
        assert str(from_letters(text)) == text
    with pytest.raises(ValueError):
        from_letters("XQ")
    with pytest.raises(ValueError):
        from_letters("")
    with pytest.raises(ValueError):
        from_letters("XX", n=3)


def test_dense_matrix_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = random_pauli(n, rng)
        assert np.allclose(paulis.dense_matrix(p), dense(p))


def test_random_pauli_draws_past_62_qubits():
    """Up to 62 qubits the draws are one int64 each as before; on 72 the
    high bits are reached and a product's bits are the XOR of its factors'."""
    for n in (1, 62):
        rng, again = np.random.default_rng(5), np.random.default_rng(5)
        p = random_pauli(n, rng)
        assert (p.x, p.z) == (int(again.integers(0, 1 << n)), int(again.integers(0, 1 << n)))
    rng = np.random.default_rng(6)
    draws = [random_pauli(72, rng) for _ in range(20)]
    assert all(0 <= p.x < 1 << 72 and 0 <= p.z < 1 << 72 for p in draws)
    assert any(p.x >> 62 for p in draws) and any(p.z >> 62 for p in draws)
    assert {p.sign for p in draws} == {1, -1}
    product = multiply(draws[0], draws[1])
    assert (product.x, product.z) == (draws[0].x ^ draws[1].x, draws[0].z ^ draws[1].z)


def test_commutes_agrees_with_dense_commutator():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        comm = dense(p) @ dense(q) - dense(q) @ dense(p)
        assert commutes(p, q) == bool(np.allclose(comm, 0))
        assert symplectic_product(p, q) == (0 if np.allclose(comm, 0) else 1)


def test_multiply_exact_for_commuting_pairs():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 6))
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        if not commutes(p, q):
            continue
        r = multiply(p, q)
        assert np.allclose(dense(r), dense(p) @ dense(q))
        checked += 1


def test_multiply_anticommuting_drops_single_i():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 6))
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        if commutes(p, q):
            continue
        r = multiply(p, q)
        product = dense(p) @ dense(q)
        # the folding convention lands both odd phase cases on exactly
        # product = i * (stored result)
        assert np.allclose(product, 1j * dense(r))
        checked += 1


def test_multiply_self_gives_positive_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_pauli(n, rng)
        r = multiply(p, p)
        assert r == PauliOperator(n, 0, 0, 1)


def test_multiply_five_qubit_checks_example():
    p = from_letters("XZZXI")
    q = from_letters("IXZZX")
    r = multiply(p, q)
    assert r.letters() == "XYIYX"
    # sign frozen from the dense 2^5 x 2^5 oracle
    product = pauli_matrix("XZZXI") @ pauli_matrix("IXZZX")
    expected_sign = product[np.nonzero(pauli_matrix("XYIYX"))][0] / pauli_matrix("XYIYX")[np.nonzero(pauli_matrix("XYIYX"))][0]
    assert np.allclose(dense(r), product)
    assert r.sign == int(np.real(expected_sign).round())


def test_multiply_associative_on_commuting_chains():
    group = five_qubit_group()
    gens = group.generators
    for a, b, c in itertools.product(gens, repeat=3):
        left = multiply(a, multiply(b, c))
        right = multiply(multiply(a, b), c)
        assert left == right


def test_weight_and_support():
    p = from_letters("-IXYZI")
    assert p.weight == 3
    assert p.support == (1, 2, 3)
    assert p.y_count == 1


def test_anticommuting_generators_rejected():
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerGroup([from_letters("XI"), from_letters("ZI")])


def test_negative_identity_rejected():
    with pytest.raises(ValueError, match="identity"):
        StabilizerGroup([from_letters("ZZ"), from_letters("-ZZ")])
    # same letters with consistent signs are fine (dependent but benign)
    StabilizerGroup([from_letters("ZZ"), from_letters("ZZ")])


def test_member_expectation_and_syndrome():
    group = five_qubit_group()
    code_state = group_mixture(group)
    element = multiply(group.generators[0], group.generators[2])
    assert code_state.expectation(element) == 1.0
    flipped = PauliOperator(element.n, element.x, element.z, -element.sign)
    assert code_state.expectation(flipped) == -1.0
    assert code_state.expectation(from_letters("XXXXX")) == 0.0  # a logical, not a member
    err = from_letters("IIXII")
    syndrome = syndrome_of(group, err)
    assert any(syndrome)
    for bit, g in zip(syndrome, group.generators):
        assert bit == (0 if commutes(g, err) else 1)


def enumerate_span_gray(group: StabilizerGroup):
    """Oracle: every element of the group span via Gray-code walk."""
    rows = [row for _, row in group._reducer.rows]
    cur = 0
    seen = [0]
    for counter in range(1, 1 << len(rows)):
        cur ^= rows[(counter & -counter).bit_length() - 1]
        seen.append(cur)
    return seen


def min_weight_logical_oracle(group: StabilizerGroup) -> int:
    """Oracle: full centralizer span minus the stabilizer span, min weight."""
    n = group.n
    pairs = logical_pairs(group)
    rows = [row for _, row in group._reducer.rows]
    logical_vecs = []
    for pair in pairs:
        logical_vecs.append(pair.xbar.x | (pair.xbar.z << n))
        logical_vecs.append(pair.zbar.x | (pair.zbar.z << n))
    mask = (1 << n) - 1
    best = None
    all_rows = rows + logical_vecs
    cur = 0
    for counter in range(1, 1 << len(all_rows)):
        cur ^= all_rows[(counter & -counter).bit_length() - 1]
        if counter >> len(rows) == 0:
            continue  # pure stabilizer element
        w = ((cur & mask) | (cur >> n)).bit_count()
        if best is None or w < best:
            best = w
    return best


def test_min_weight_logical_five_qubit():
    group = five_qubit_group()
    found = min_weight_logical(group, cap=5)
    assert found is not None
    oracle = min_weight_logical_oracle(group)
    assert oracle == 3  # frozen from the span-enumeration oracle
    assert found.weight == oracle
    assert not any(syndrome_of(group, found))
    assert group_mixture(group).expectation(found) == 0.0  # commutes, so not a member


def test_min_weight_logical_cap_and_no_logical():
    group = five_qubit_group()
    assert min_weight_logical(group, cap=2) is None
    # full-rank group on 2 qubits has no logicals at all
    full = StabilizerGroup([from_letters("ZI"), from_letters("IZ")])
    assert min_weight_logical(full) is None


def test_logical_pairs_five_qubit():
    group = five_qubit_group()
    pairs = logical_pairs(group)
    assert len(pairs) == 1
    xbar, zbar = pairs[0].xbar, pairs[0].zbar
    assert not commutes(xbar, zbar)
    for g in group.generators:
        assert commutes(g, xbar) and commutes(g, zbar)
    # rank grows by exactly 2: the pair regenerates the code
    assert gf2.Reducer(p.vec for p in list(group.generators) + [xbar, zbar]).rank == 6
    # weight-reduced representatives are coset minima (oracle: Gray walk)
    for op in (xbar, zbar):
        vec = op.x | (op.z << group.n)
        coset = [vec ^ s for s in enumerate_span_gray(group)]
        mask = (1 << group.n) - 1
        oracle_min = min(((v & mask) | (v >> group.n)).bit_count() for v in coset)
        assert op.weight == oracle_min


# (n, rank) of the coset-walk groups: the block alone (rank <= 12), the
# block and an outer Gray walk (13..16; 14 on 70 qubits, two 64-bit words
# per half), and the largest span walked exhaustively (2^22)
_COSET_SHAPES = [(6, 4), (16, 12), (18, 13), (20, 15), (20, 16), (70, 14), (24, 22)]


@pytest.mark.parametrize("n, rank", _COSET_SHAPES)
def test_coset_walk_matches_the_gray_walk(n, rank):
    """The block walk gives the Gray walk's minimum (weight, int) on random stabilizer groups."""
    rows = zero_mixture(n).apply_circuit(random_low_depth(n, 3, family="clifford", seed=n + rank)).rows
    group = StabilizerGroup(rows[:rank])
    assert group.rank == rank
    rng = np.random.default_rng(rank)
    for _ in range(1 if rank > 16 else 5):
        v = int.from_bytes(rng.bytes(n // 4 + 1), "little") % (1 << 2 * n)
        assert paulis._min_weight_coset_rep(v, group) == min_weight_coset_rep_gray(v, group)


@settings(max_examples=150, deadline=None)
@given(signed_commuting_groups(), st.integers(0, 2**12 - 1))
def test_coset_walk_matches_the_gray_walk_on_signed_groups(group, v):
    v &= (1 << 2 * group.n) - 1
    assert paulis._min_weight_coset_rep(v, group) == min_weight_coset_rep_gray(v, group)


def test_logical_pairs_commutation_matrix_random_css_like():
    # two encoded qubits: [[4, 2, 2]] style group
    group = StabilizerGroup([from_letters("XXXX"), from_letters("ZZZZ")])
    pairs = logical_pairs(group)
    assert len(pairs) == 2
    ops = [p for pair in pairs for p in (pair.xbar, pair.zbar)]
    for i, pair in enumerate(pairs):
        assert symplectic_product(pair.xbar, pair.zbar) == 1
        for j, other in enumerate(pairs):
            if i != j:
                assert commutes(pair.xbar, other.xbar)
                assert commutes(pair.xbar, other.zbar)
                assert commutes(pair.zbar, other.zbar)
    for op in ops:
        for g in group.generators:
            assert commutes(op, g)


def test_code_projector_sandwich_against_dense_projector():
    """P E P = eta P: eta = 0 for a detected error, the member sign for a
    group member, and no scalar at all for a logical."""
    group = five_qubit_group()
    code_state = group_mixture(group)
    proj = projector_from_strings(FIVE_QUBIT_CHECKS)
    rng = np.random.default_rng(5)
    seen = {"member": 0, "detected": 0, "logical": 0}
    candidates = [random_pauli(5, rng) for _ in range(80)]
    candidates += [combine(5, group.generators, 0b11), from_letters("-XZZXI")]
    pairs = logical_pairs(group)
    candidates += [pairs[0].xbar, pairs[0].zbar]
    for e in candidates:
        sandwich = proj @ dense(e) @ proj
        if any(syndrome_of(group, e)):
            seen["detected"] += 1
            assert np.allclose(sandwich, 0.0, atol=1e-10)
            continue
        eta = code_state.expectation(e)
        if eta == 0.0:
            seen["logical"] += 1
            # logical action is not proportional to the projector: subtract
            # the best scalar fit and demand a visible residue
            scale = np.trace(sandwich) / np.trace(proj)
            assert np.linalg.norm(sandwich - scale * proj) > 1e-6
        else:
            seen["member"] += 1
            assert np.allclose(sandwich, eta * proj, atol=1e-10)
    assert seen["member"] >= 2 and seen["detected"] > 10 and seen["logical"] >= 2


def test_light_errors_are_detected_five_qubit():
    group = five_qubit_group()
    for x, z, _ in weight_ascending_candidates(5, 2):
        assert any(syndrome_of(group, PauliOperator(5, x, z, 1)))


def test_best_distance_five_qubit():
    group = five_qubit_group()
    report = best_distance(group)
    assert report is not None
    assert report.d_prime == 3  # matches the span oracle: lightest logical is weight 3
    assert report.w == max(p.weight for pair in logical_pairs(group) for p in (pair.xbar, pair.zbar))
    assert report.d_prime >= min_weight_logical_oracle(group)


# groups for the differential test of the shared distance walk. Shor's
# [[9,1,3]] code holds weight-2 members, lighter than its logicals; in the
# sum of [[4,2,2]] and [[5,1,3]] the last logical pair has the largest d_prime.
_DISTANCE_GROUPS = {name: lambda name=name: build_code(name).group for name in sorted(BUILTIN_CODES)}
_DISTANCE_GROUPS["toric4"] = lambda: toric_code(4).group
_DISTANCE_GROUPS["hgp_ring4_ring2"] = lambda: hypergraph_product(
    ring_check_matrix(4), ring_check_matrix(2)
).group
_DISTANCE_GROUPS["shor9"] = lambda: StabilizerGroup(
    [from_letters(c) for c in ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ")]
    + [from_letters("XXXXXXIII"), from_letters("IIIXXXXXX")]
)
_DISTANCE_GROUPS["k422_plus_five"] = lambda: StabilizerGroup(
    [from_letters("XXXX" + "I" * 5), from_letters("ZZZZ" + "I" * 5)]
    + [from_letters("IIII" + c) for c in FIVE_QUBIT_CHECKS]
)


@pytest.mark.parametrize("name", sorted(_DISTANCE_GROUPS))
def test_distance_searches_match_the_per_pair_walks(name):
    """One shared walk gives the same d, pair index, d_prime, w and witnesses."""
    group = _DISTANCE_GROUPS[name]()
    found = min_weight_logical(group)
    assert found == min_weight_logical_by_candidates(group)
    assert found is not None
    report = best_distance(group)
    want = best_distance_per_pair(group)
    assert want is not None
    assert (report.pair_index, report.d_prime, report.w, report.witness) == want
