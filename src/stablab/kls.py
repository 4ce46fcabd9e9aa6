"""Sharp step-function polynomials and approximate ground-space projectors.

The star object: a degree-deg polynomial K with K(0) = 1 that is uniformly
tiny on {1, ..., n}. Plugging an integer-spectrum parent Hamiltonian into K
squashes every excited eigenvalue at once, so K(G) is an operator-norm
approximation of the ground-state projector whose error we can compare to
the exp(-deg^2 / (2^8 n)) guarantee. The fit itself is a discrete minimax
linear program in the Chebyshev basis; its optimum can only undercut any
closed-form construction, so the guarantee check is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .circuits import LayeredCircuit
from .bounds import code_overlap
from .codes import Code, as_group, code_parameters
from .paulis import StabilizerGroup
from .states import apply_circuit_vec, require_dense


@dataclass(frozen=True)
class KlsPolynomial:
    """Chebyshev coefficients of the fit, with its measured minimax error."""

    coefficients: tuple[float, ...]
    n_domain: int
    deg: int
    achieved_error: float

    def evaluate(self, x):
        u = 2.0 * np.asarray(x, dtype=float) / self.n_domain - 1.0
        return chebyshev.chebval(u, np.asarray(self.coefficients))

    @property
    def error_bound(self) -> float:
        return float(np.exp(-self.deg**2 / (2**8 * self.n_domain)))


def kls_polynomial(n_domain: int, deg: int) -> KlsPolynomial:
    """Minimax fit of the 0-indicator on {0..n}: K(0) = 1, |K(j)| minimized.

    Feasible degrees are sqrt(n) <= deg <= n; at deg = n plain interpolation
    drives the error to zero, below sqrt(n) the guarantee has no content.
    """
    if n_domain < 1:
        raise ValueError("domain must contain at least the point 1")
    if not np.sqrt(n_domain) <= deg <= n_domain:
        raise ValueError(
            f"degree {deg} outside [sqrt({n_domain}), {n_domain}]"
        )
    from scipy.optimize import linprog  # imported here: it dominates `import stablab.cli`

    points = np.arange(n_domain + 1, dtype=float)
    vander = chebyshev.chebvander(2.0 * points / n_domain - 1.0, deg)

    # variables: deg+1 coefficients, then the error e; minimize e
    n_var = deg + 2
    cost = np.zeros(n_var)
    cost[-1] = 1.0
    a_ub = np.zeros((2 * n_domain, n_var))
    for idx, j in enumerate(range(1, n_domain + 1)):
        a_ub[2 * idx, : deg + 1] = vander[j]
        a_ub[2 * idx, -1] = -1.0
        a_ub[2 * idx + 1, : deg + 1] = -vander[j]
        a_ub[2 * idx + 1, -1] = -1.0
    a_eq = np.zeros((1, n_var))
    a_eq[0, : deg + 1] = vander[0]
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(2 * n_domain),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=[(None, None)] * (deg + 1) + [(0.0, None)],
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"minimax fit failed: {result.message}")
    coeffs = result.x[: deg + 1]

    # re-anchor K(0) = 1 exactly and re-measure the error from the solution
    scale = float(vander[0] @ coeffs)
    coeffs = coeffs / scale
    values = vander @ coeffs
    achieved = float(np.abs(values[1:]).max())
    poly = KlsPolynomial(
        coefficients=tuple(coeffs), n_domain=n_domain, deg=deg, achieved_error=achieved
    )
    assert achieved <= poly.error_bound + 1e-12
    return poly


def agsp_projector_check(
    circuit: LayeredCircuit,
    group: StabilizerGroup | Code | None,
    deg: int,
) -> dict:
    """Projector approximation quality for the parent Hamiltonian of U|0^m>.

    The parent Hamiltonian counts excited wires in U's frame, so its
    spectrum is {0..m} with U|0^m> the unique ground state; K_deg of it
    must land within the step-polynomial guarantee of the true projector.
    When a code is supplied, also reports the low-depth fidelity ceiling
    f^2 <= 2 exp(-d^2 / (2^{2t+10} m)), applicable while 2^t <= d/2 (near
    2 and therefore weak at desk scale, but asserted).
    """
    m = circuit.m
    require_dense(m)
    poly = kls_polynomial(m, deg)
    unitary = apply_circuit_vec(np.eye(2**m, dtype=complex), circuit)
    psi = unitary[:, 0]
    weights = np.bitwise_count(np.arange(2**m, dtype=np.uint64)).astype(float)
    approx = (unitary * poly.evaluate(weights)) @ unitary.conj().T
    diff = approx - np.outer(psi, psi.conj())
    norm_error = float(np.abs(np.linalg.eigvalsh(diff)).max())

    report = {
        "m": m,
        "deg": deg,
        "t": circuit.depth,
        "norm_error": norm_error,
        "fact_bound": poly.error_bound,
        "fact_holds": norm_error <= poly.error_bound + 1e-10,
    }

    if group is not None:
        g = as_group(group)
        distance = code_parameters(g).d
        if distance is None:
            raise ValueError("distance unknown")
        if g.n != m:
            raise ValueError("code and circuit qubit counts differ")
        f_sq = code_overlap(psi, g)
        t = circuit.depth
        applicable = 2**t <= distance / 2
        rhs = 2.0 * float(np.exp(-(distance**2) / (2 ** (2 * t + 10) * m)))
        report.update(
            {
                "f_squared": f_sq,
                "distance": int(distance),
                "lemma_applicable": applicable,
                "lemma_rhs": rhs,
                "lemma_holds": (not applicable) or f_sq <= rhs + 1e-12,
            }
        )
    return report
