"""Acceptance gate: every headline check at full scale, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also enforces its wall-clock budget.
"""

import time
from fractions import Fraction
from itertools import combinations

from stablab.bounds import trace_distance_to_code
from stablab.channels import _region_is_correctable
from stablab.codes import build_code, punctured_toric_code
from stablab.paulis import PauliOperator, multiply
from stablab.states import group_mixture, zero_mixture
from stablab.suites import SUITES

from oracles import sublattice_punctures


def _run(name: str, budget_s: float):
    start = time.perf_counter()
    report = SUITES[name]()
    elapsed = time.perf_counter() - start
    status = "PASS" if report.get("passed") else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    assert report["passed"], report
    return report


def test_acceptance_local_indistinguishability():
    _run("local-indistinguishability", 30.0)


def test_acceptance_rank_test_on_every_pair_of_the_162_qubit_punctured_toric_code():
    """All 13,041 two-qubit regions of [[162,10,3]] hold no logical, decided in under 2 s."""
    group = punctured_toric_code(9, sublattice_punctures(9, 3)).group
    assert (group.n, group.n_logical) == (162, 10)
    start = time.perf_counter()
    regions = list(combinations(range(group.n), 2))
    correctable = sum(_region_is_correctable(group, region) for region in regions)
    elapsed = time.perf_counter() - start
    passed = correctable == len(regions) == 13041
    print(f"ACCEPTANCE rank-test-162: {'PASS' if passed else 'FAIL'} ({elapsed:.2f}s, budget 2s)")
    assert passed, (correctable, len(regions))
    assert elapsed < 2.0


def test_building_a_code_derives_nothing():
    """Per-code data waits for its first use, so building a code costs only the group."""
    assert build_code("toric3").group._derived == {}


def test_acceptance_syndrome_circuit():
    start = time.perf_counter()
    depth = SUITES["syndrome-depth"]()
    projector = SUITES["syndrome-projector"]()
    elapsed = time.perf_counter() - start
    passed = depth["passed"] and projector["passed"]
    print(f"ACCEPTANCE syndrome-circuit: {'PASS' if passed else 'FAIL'} "
          f"({elapsed:.1f}s, budget 10s)")
    assert elapsed < 10.0
    assert depth["passed"], depth
    assert projector["passed"], projector


def test_acceptance_gentle_measurement():
    report = _run("gentle-measurement", 120.0)
    assert report["pairs"] >= 100
    assert report["violations"] == 0


def test_acceptance_entropy_pipeline():
    report = _run("entropy-floor", 120.0)
    assert report["states_per_code"] == 100


def test_acceptance_entropy_audit():
    report = _run("entropy-audit", 30.0)
    assert {row["code"] for row in report["audits"]} == {"five_qubit", "toric2", "surface13", "toric3"}
    assert {row["depth"] for row in report["audits"]} == {0, 1, 2, 3, 4}


def test_acceptance_amplification():
    report = _run("amplification", 180.0)
    assert report["states"] >= 200
    assert report["p1_identity_deviation"] <= 1e-12


def test_acceptance_sparsification():
    report = _run("sparsification", 120.0)
    assert report["success_fraction"] >= 1.0 / 3.0


def test_acceptance_kls_agsp():
    _run("kls-agsp", 120.0)


def _exact_zero_overlap(group) -> Fraction:
    """<0^n| Pi |0^n> by summing the full group, exact rationals.

    Pi = 2^-r sum_g g over all 2^r elements; a term contributes sign(g)
    iff g has no X part. Gray-code walk so each element is one multiply.
    """
    rows = group_mixture(group).rows
    r = len(rows)
    current = PauliOperator(group.n, 0, 0, 1)
    total = Fraction(1)  # the identity term
    gray_prev = 0
    for step in range(1, 2**r):
        gray = step ^ (step >> 1)
        flipped = (gray ^ gray_prev).bit_length() - 1
        gray_prev = gray
        current = multiply(current, rows[flipped])
        if current.x == 0:
            total += current.sign
    return total / 2**r


def test_acceptance_zero_state_distance():
    start = time.perf_counter()
    report = SUITES["zero-state-distance"]()
    toric3 = build_code("toric3")
    rep = trace_distance_to_code(zero_mixture(18), toric3)
    oracle = _exact_zero_overlap(toric3.group)
    exact = (
        oracle == Fraction(1, 256)
        and rep["f_squared"] == float(oracle)
    )
    elapsed = time.perf_counter() - start
    passed = report["passed"] and exact
    print(f"ACCEPTANCE zero-state-distance: {'PASS' if passed else 'FAIL'} "
          f"({elapsed:.1f}s, budget 10s)")
    assert elapsed < 10.0
    assert report["passed"], report
    assert oracle == Fraction(1, 256)
    assert rep["f_squared"] == float(oracle)


def test_acceptance_uncertainty():
    report = _run("uncertainty", 60.0)
    assert report["states"] == 1000


def test_acceptance_lightcone_counting():
    report = _run("lightcone-sandwich", 60.0)
    assert report["seeds"] == 50


def test_acceptance_frontier_baseline():
    report = _run("frontier-baseline", 300.0)
    assert report["product_minimum"] == 4.5


def test_acceptance_bound_formulas():
    _run("bounds-regime", 1.0)
