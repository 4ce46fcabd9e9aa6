"""Code constructions against rank/enumeration oracles and file round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from stablab import codes, paulis
from stablab.codes import (
    BUILTIN_CODES,
    CssCode,
    build_code,
    code_from_dict,
    code_parameters,
    css_to_stabilizer,
    dump_code,
    hypergraph_product,
    load_code,
    punctured_toric_code,
    surface_code,
    toric_code,
)
from stablab.paulis import logical_pairs

from oracles import HAMMING, gf2_rank_naive, ring_check_matrix, sublattice_punctures

# frozen from the rank + weight-ascending enumeration oracles (see ledger)
EXPECTED_PARAMETERS = {
    "five_qubit": dict(n=5, checks=4, rank=4, k=1, d=3, locality=4),
    "toric2": dict(n=8, checks=8, rank=6, k=2, d=2, locality=4),
    "toric3": dict(n=18, checks=18, rank=16, k=2, d=3, locality=4),
    "surface5": dict(n=5, checks=4, rank=4, k=1, d=2, locality=4),
    "surface13": dict(n=13, checks=12, rank=12, k=1, d=3, locality=4),
}


def naive_rank_of_group(group) -> int:
    rows = []
    for p in group.generators:
        rows.append([(p.x >> q) & 1 for q in range(group.n)] + [(p.z >> q) & 1 for q in range(group.n)])
    return gf2_rank_naive(rows)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_builtin_parameters(name):
    code = build_code(name)
    expected = EXPECTED_PARAMETERS[name]
    params = code_parameters(code, distance_cap=4)
    assert code.n == expected["n"]
    assert code.n_checks == expected["checks"]
    assert code.group.rank == expected["rank"] == naive_rank_of_group(code.group)
    assert params.k == expected["k"]
    assert params.d == expected["d"]
    assert params.locality == expected["locality"]
    # locality really bounds both check weight and qubit degree
    degree = [0] * code.n
    for g in code.group.generators:
        assert g.weight <= params.locality
        for q in g.support:
            degree[q] += 1
    assert max(degree) <= params.locality
    # checks-per-qubit and qubits-per-check ratios stay within locality
    assert code.n_checks <= params.locality * code.n
    assert code.n <= params.locality * code.n_checks


def test_toric_keeps_dependent_checks():
    code = toric_code(2)
    assert code.n_checks == 8 and code.group.rank == 6
    # the two dependencies are the full star and plaquette products
    stars = code.css.hx
    assert len(stars) == 4
    counts = np.zeros(8, dtype=int)
    for row in stars:
        for col in row:
            counts[col] += 1
    assert (counts == 2).all()  # every edge sits in exactly two stars


def test_toric3_logical_pair_weights():
    code = toric_code(3)
    pairs = logical_pairs(code.group)
    assert len(pairs) == 2
    for pair in pairs:
        assert pair.xbar.weight == 3 and pair.zbar.weight == 3


# (xbar, zbar) letters per pair, weight-reduced; fixed by the numpy-matrix
# implementation the int engine replaced
GOLDEN_LOGICAL_PAIRS = {
    "five_qubit": [("YYIXI", "ZIXXI")],
    "toric2": [("XIXIIIII", "ZZIIIIII"), ("IIIIXXII", "IIIIZIZI")],
    "toric3": [
        ("XIIXIIXIIIIIIIIIII", "ZZZIIIIIIIIIIIIIII"),
        ("IIIIIIIIIXXXIIIIII", "IIIIIIIIIZIIZIIZII"),
    ],
    "surface5": [("XXIII", "ZIZII")],
    "surface13": [("XXXIIIIIIIIII", "ZIIZIIZIIIIII")],
    "punctured": [
        ("XIIXIIXIIIIIIIIIII", "ZZZIIIIIIIIIIIIIII"),
        ("IIIIXIIIIIXIIIIIII", "ZIIZIIIIIZZIIIIIII"),
        ("IIIIIIIIIXXXIIIIII", "IIIIIIIIIZIIZIIZII"),
    ],
}

MEMO_CODES = {
    **{name: (lambda name=name: build_code(name)) for name in BUILTIN_CODES},
    "punctured": lambda: punctured_toric_code(3, [(0, 0), (1, 1)]),
    "surface3": lambda: surface_code(3),
}

# the same, taken before the coset walk ran in numpy blocks, on codes whose
# groups take the greedy descent (toric4, [[72,5,3]], [[58,16,3]])
LARGER_GOLDEN_LOGICAL_PAIRS = {
    "toric4": [
        ("XIIIXIIIXIIIXIIIIIIIIIIIIIIIIIII",
         "ZZZZIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIIIIIIIIIIIXXXXIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIZIIIZIIIZIIIZIII"),
    ],
    "punctured6": [
        ("IIIIIIXIIIIIXIIIIIXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIZZZZZZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIXIIXIIXIIXIIXIIXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZIIIIIIZZZZZIIIIIIIIIIIIIIIIIIIIIIIIZZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIXIIIIIIIIIIIIIIIIIIIIIIIXIIIIIXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZZZZZZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIXIIXIIXIIXIIXIIXIIIIIIIIIIIIIIIXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZIIIIIZIIIIIIIIIIIZIIIIIZIIIIIIIIIIIZZIIIIIIIIIIIIIIIIZZIIIIIIIIIIIIIIII"),
        ("IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIXXXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIZIIIIIZIIIIIZIIIIIZIIIIIZIIIIIZIIIII"),
    ],
    "hgp_hamming": [
        ("XXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZIIIIIIZIIIIIIZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZZIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIXIXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IZZIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "ZZIZIIIZZIZIIIZZIZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("XXXIIIIXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIZIIIIIIZIIIIIIZIIIIIIZIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IXXXXIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIZZIIIIIZZIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIXIXXIIIXIXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIZZIIIIIZZIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIXXXXIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIZZIZIIIZZIZIIIZZIZIIIZZIZIIIIIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIIXXXIIIIXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIZIIIIIIIIIIIIIZIIIIIIZIIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIIIXXXXIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIZZIIIIIIIIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIIIIXIXXIIIXIXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIZZIIIIIIIIIIIIZZIIIIIZZIIIIIIIIIIIIIIIIIIII"),
        ("IIIIIIIIIIXXXXIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIZZIZIIIIIIIIIIZZIZIIIZZIZIIIIIIIIIIIIIIIIIII"),
        ("XXXIIIIXXXIIIIIIIIIIIXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIIIIIIZIIIIIIZIIIIIIZIIIIIIZIIIIIIIIIIIIIII"),
        ("IXXXXIIIXXXXIIIIIIIIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIIIIIIZZIIIIIZZIIIIIZZIIIIIZZIIIIIIIIIIIIII"),
        ("IIXIXXIIIXIXXIIIIIIIIIIXIXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIIIIIIIZZIIIIIZZIIIIIZZIIIIIZZIIIIIIIIIIIII"),
        ("IIIXXXXIIIXXXXIIIIIIIIIIXXXXIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
         "IIIIIIIIIIIIIIIIIIIIIZZIZIIIZZIZIIIZZIZIIIZZIZIIIIIIIIIIII"),
    ],
}

GOLDEN_CODES = {
    **MEMO_CODES,
    "toric4": lambda: toric_code(4),
    "punctured6": lambda: punctured_toric_code(6, sublattice_punctures(6, 3)),
    "hgp_hamming": lambda: hypergraph_product(HAMMING, HAMMING),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGICAL_PAIRS) + sorted(LARGER_GOLDEN_LOGICAL_PAIRS))
def test_logical_pairs_match_the_goldens(name):
    pairs = logical_pairs(GOLDEN_CODES[name]().group)
    want = {**GOLDEN_LOGICAL_PAIRS, **LARGER_GOLDEN_LOGICAL_PAIRS}[name]
    assert [(str(p.xbar), str(p.zbar)) for p in pairs] == want


@pytest.mark.parametrize("name", sorted(MEMO_CODES))
def test_per_code_data_memoized_and_equal_to_fresh(name):
    group = MEMO_CODES[name]().group
    pairs = logical_pairs(group)
    assert logical_pairs(group) is pairs
    assert pairs == paulis._logical_pairs(MEMO_CODES[name]().group)
    if name in GOLDEN_LOGICAL_PAIRS:
        assert [(str(p.xbar), str(p.zbar)) for p in pairs] == GOLDEN_LOGICAL_PAIRS[name]
    for cap in (2, 4):
        params = code_parameters(group, distance_cap=cap)
        assert code_parameters(group, distance_cap=cap) is params
        assert params == codes._code_parameters(MEMO_CODES[name]().group, cap)


def test_css_orthogonality_enforced():
    with pytest.raises(ValueError, match="odd set"):
        CssCode(n=3, hx=((0, 1),), hz=((1, 2),))
    with pytest.raises(ValueError, match="outside"):
        CssCode(n=2, hx=((0, 5),), hz=())
    with pytest.raises(ValueError, match="repeats"):
        CssCode(n=3, hx=((0, 0),), hz=())


def test_css_to_stabilizer_letters():
    css = CssCode(n=3, hx=((0, 1),), hz=((0, 1, 2),))
    group = css_to_stabilizer(css)
    assert [str(g) for g in group.generators] == ["XXI", "ZZZ"]


def _dense_rows(rows, n: int) -> np.ndarray:
    """0/1 matrix with a 1 at each listed column of each sparse row."""
    out = np.zeros((len(rows), n), dtype=int)
    for i, row in enumerate(rows):
        out[i, list(row)] = 1
    return out


def test_hypergraph_product_shapes_and_orthogonality():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m1, n1 = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        m2, n2 = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        h1 = rng.integers(0, 2, size=(m1, n1))
        h2 = rng.integers(0, 2, size=(m2, n2))
        code = hypergraph_product(h1, h2)
        assert code.n == n1 * n2 + m1 * m2
        assert len(code.css.hx) == m1 * n2
        assert len(code.css.hz) == n1 * m2
        # CssCode validation already enforces orthogonality; double-check densely
        hx, hz = (_dense_rows(rows, code.n) for rows in (code.css.hx, code.css.hz))
        assert not ((hx @ hz.T) % 2).any()


def test_surface_codes_from_repetition_product():
    # n = L^2 + (L-1)^2, k = 1, d = L for the open-boundary family
    for length, expected_n in ((2, 5), (3, 13)):
        code = surface_code(length)
        params = code_parameters(code)
        assert params.n == expected_n
        assert params.k == 1
        assert params.d == length


def test_hypergraph_product_periodic_reproduces_toric_parameters():
    for length in (2, 3):
        h = ring_check_matrix(length)
        product = hypergraph_product(h, h)
        toric = toric_code(length)
        p1 = code_parameters(product)
        p2 = code_parameters(toric)
        assert (p1.n, p1.k, p1.d) == (p2.n, p2.k, p2.d)


def test_punctured_toric_k_growth():
    # frozen from the rank oracle: the retained plaquette dependency absorbs
    # the first removal, afterwards k grows by one per puncture
    puncture_sets = [[], [(0, 0)], [(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 0)]]
    expected_k = [2, 2, 3, 4]
    for punctures, k in zip(puncture_sets, expected_k):
        code = punctured_toric_code(3, punctures)
        assert code.group.n_logical == k
        assert code.n == 18  # qubits never removed
        assert code.n_checks == 18 - len(punctures)
    with pytest.raises(ValueError, match="duplicate"):
        punctured_toric_code(3, [(0, 0), (3, 3)])  # same coordinate mod L


def test_build_code_unknown_name():
    with pytest.raises(KeyError, match="five_qubit"):
        build_code("steane")


def test_code_json_round_trip(tmp_path):
    for name in ("five_qubit", "toric2"):
        code = build_code(name)
        path = tmp_path / f"{name}.json"
        dump_code(code, path)
        loaded = load_code(path)
        assert [str(g) for g in loaded.group.generators] == [str(g) for g in code.group.generators]
        # byte-stable: dumping again produces identical bytes
        first = path.read_bytes()
        dump_code(loaded, path)
        assert path.read_bytes() == first


def test_code_file_checks_form():
    payload = {"n": 5, "checks": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]}
    code = code_from_dict(payload)
    assert code.group.rank == 4


def test_code_file_css_form_infers_n():
    payload = {"css": {"hx": [[0, 1]], "hz": [[0, 1, 2]]}}
    code = code_from_dict(payload)
    assert code.n == 3


def test_code_file_errors_are_precise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5,\n  "checks": [}')
    with pytest.raises(ValueError, match=r"bad\.json:2:\d+"):
        load_code(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ValueError, match="checks.*css|css|checks"):
        load_code(empty)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"checks": []}')
    with pytest.raises(ValueError, match="non-empty"):
        load_code(wrong)
