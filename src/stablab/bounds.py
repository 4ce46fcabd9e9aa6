"""Closed-form depth lower bounds and the distance/uncertainty tool chest.

Every formula is evaluated exactly as stated, logs base 2. Bounds whose
source argument never fixes its constant carry `constants: "dropped"` and
report the value inside the asymptotic notation; explicit inequalities are
rearranged for t and carry `constants: "explicit"`. Applicability flags are
part of the result, never silently folded into the value: at desk scale
most gates are closed (log d is tiny) and the honest report says so.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import LayeredCircuit, lightcone, reverse_circuit
from .codes import as_group, code_parameters
from .hamiltonians import build_code_hamiltonian, energy_report
from .paulis import LogicalPair, StabilizerGroup, best_distance
from .states import (
    StabilizerMixture,
    expectation,
    group_mixture,
    marginal,
    num_qubits,
    project_all,
    require_dense,
    vector,
    zero_mixture,
)

__all__ = [
    "BoundInputs",
    "best_distance",
    "code_overlap",
    "depth_lower_bounds",
    "lightcone_count_check",
    "product_state_separation_check",
    "trace_distance_to_code",
    "uncertainty_check",
    "zero_state_distance_check",
]


@dataclass(frozen=True)
class BoundInputs:
    """Parameter bundle consumed by depth_lower_bounds.

    epsilon is the per-check energy fraction (tr(H phi) <= epsilon * N for
    the sum-normalized Hamiltonian), delta a trace distance, f a fidelity
    to the code space, t the candidate depth, m the total qubit count of
    the low-depth circuit (auto-trimmed to 2^t * n, the largest lightcone
    a depth-t preparation of n code qubits can see). c_ell is the free
    constant slot of the rate bound; its source never fixes a value.
    """

    n: int
    k: int | None = None
    d: int | None = None
    ell: int | None = None
    n_checks: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    t: int | None = None
    f: float | None = None
    m: int | None = None
    c_ell: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("k", "d"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= self.n:
                raise ValueError(f"{name} {value} outside [1, n = {self.n}]")
        for name in ("ell", "n_checks", "m"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.t is not None and self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside (0, 1)")
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta {self.delta} outside (0, 1/2)")
        if self.f is not None and not 0.0 < self.f <= 1.0:
            raise ValueError(f"fidelity {self.f} outside (0, 1]")
        if not (math.isfinite(self.c_ell) and self.c_ell > 0.0):
            raise ValueError(f"c_ell must be a positive finite number, got {self.c_ell}")
        for name in ("epsilon", "delta", "f"):
            value = getattr(self, name)
            if value is not None and value < sys.float_info.min:
                raise ValueError(f"{name} {value} below the smallest normal float; 1/{name} overflows")
        # 2^t n >= 2^t > m once t reaches m's bit length: only smaller t can trim
        if self.m is not None and self.t is not None and self.t < self.m.bit_length():
            cap = 2**self.t * self.n
            if self.m > cap:
                object.__setattr__(self, "m", cap)

    def missing(self, *names: str) -> list[str]:
        return [name for name in names if getattr(self, name) is None]


def _entry(value, constants, applicable=True, **extra) -> dict:
    out = {"value": value, "applicable": applicable, "constants": constants}
    out.update(extra)
    return out


def _skip(missing: list[str], constants: str) -> dict:
    return _entry(None, constants, applicable=False, missing=missing)


def depth_lower_bounds(inputs: BoundInputs) -> dict:
    """Evaluate every closed-form depth bound on one parameter bundle.

    Returns one entry per bound; see the module docstring for the
    constants convention. Each entry reports its own applicability, e.g.
    the rate bound needs t < log d - 2 ell^3 which no desk-scale code
    satisfies, and that flag arriving False is the correct answer there.
    """
    n, k, d = inputs.n, inputs.k, inputs.d
    ell, eps, delta = inputs.ell, inputs.epsilon, inputs.delta
    t, f, m = inputs.t, inputs.f, inputs.m
    report: dict[str, dict] = {}

    # min{log d, log((k + d) / (n sqrt(eps log 1/eps)))}, constant-free
    gaps = inputs.missing("k", "d", "epsilon")
    if gaps:
        report["thm1"] = _skip(gaps, "dropped")
    else:
        loge = eps * math.log2(1.0 / eps)
        value = min(math.log2(d), math.log2((k + d) / (n * math.sqrt(loge))))
        report["thm1"] = _entry(value, "dropped")

    # 2^{2t} > k / (c_ell n eps log(1/eps)), open while t < log d - 2 ell^3
    gaps = inputs.missing("k", "d", "ell", "epsilon")
    if gaps:
        report["thm2_rate"] = _skip(gaps, "explicit")
    else:
        ratio = k / (inputs.c_ell * n * eps * math.log2(1.0 / eps))
        window = math.log2(d) - 2.0 * ell**3
        applicable = t is not None and t < window
        report["thm2_rate"] = _entry(
            0.5 * math.log2(ratio) if ratio > 0 else None,
            "explicit",
            applicable=applicable,
            window=window,
            c_ell=inputs.c_ell,
        )

    # 2^{2t} >= d / (2^6 n sqrt(ell eps log 1/eps)), open while t < log d - 1
    gaps = inputs.missing("d", "ell", "epsilon")
    if gaps:
        report["thm3_distance"] = _skip(gaps, "explicit")
    else:
        ratio = d / (2**6 * n * math.sqrt(ell * eps * math.log2(1.0 / eps)))
        window = math.log2(d) - 1.0
        applicable = t is not None and t < window
        report["thm3_distance"] = _entry(
            0.5 * math.log2(ratio), "explicit", applicable=applicable, window=window
        )

    # log min{d, k / (2 delta log(1/delta) n)} for pure states near the code
    gaps = inputs.missing("k", "d", "delta")
    if gaps:
        report["cor1_warmup"] = _skip(gaps, "explicit")
    else:
        gate = 2.0 * delta * math.log2(1.0 / delta)
        condition = k > gate * n
        value = math.log2(min(d, k / (gate * n))) if condition else None
        report["cor1_warmup"] = _entry(
            value, "explicit", applicable=condition, gate=gate * n
        )

    # k > 2 delta log(1/delta) m forces depth above log d
    gaps = inputs.missing("k", "d", "delta", "m")
    if gaps:
        report["lem1_entropy"] = _skip(gaps, "explicit")
    else:
        gate = 2.0 * delta * math.log2(1.0 / delta) * m
        condition = k > gate
        report["lem1_entropy"] = _entry(
            math.log2(d) if condition else None,
            "explicit",
            applicable=condition,
            gate=gate,
        )

    # 2^{2t} >= min(d, k sqrt(d) / (64 sqrt(ell) log^2(d ell) n sqrt(log 1/f)))
    gaps = inputs.missing("k", "d", "ell", "f")
    if gaps:
        report["lem2_agsp"] = _skip(gaps, "explicit")
    else:
        logf = math.log2(1.0 / f) if f < 1.0 else 0.0
        applicable = logf > 0.0 and d * ell >= 2
        if applicable:
            denom = 64.0 * math.sqrt(ell) * math.log2(d * ell) ** 2 * n * math.sqrt(logf)
            value = 0.5 * math.log2(min(d, k * math.sqrt(d) / denom))
        else:
            value = None
        report["lem2_agsp"] = _entry(value, "explicit", applicable=applicable)

    # log(d / (delta n)) for ancilla-free preparations, constant-free
    gaps = inputs.missing("d", "delta")
    if gaps:
        report["lem4_lineardist"] = _skip(gaps, "dropped")
    else:
        report["lem4_lineardist"] = _entry(math.log2(d / (delta * n)), "dropped")

    # c min{log n, log 1/eps} after amplification, constant-free
    gaps = inputs.missing("epsilon")
    if gaps:
        report["cor2_amplified"] = _skip(gaps, "dropped")
    else:
        report["cor2_amplified"] = _entry(
            min(math.log2(n), math.log2(1.0 / eps)), "dropped"
        )
    return report


def code_overlap(state, group: StabilizerGroup) -> float:
    """<psi| Pi |psi> for the code projector Pi, by sequential halving.

    Takes a pure stabilizer mixture or a state vector within the dense limit.
    """
    if isinstance(state, StabilizerMixture):
        if not state.is_pure:
            raise ValueError("pure state required")
    else:
        require_dense(num_qubits(state))
    return project_all(state, group.generators)[0]


def trace_distance_to_code(state, code_or_group) -> dict:
    """Distance of a pure state from the code space.

    Reports f = |Pi psi| and the pure-vs-subspace trace distance
    sqrt(1 - f^2): the nearest code state in that convention is the
    normalized projection, and no mixed code state can push fidelity
    above f. For n <= 9 the overlap is also recomputed through the dense
    projector Pi = 2^k rho, with rho the maximally mixed code state, and
    reported as ``cross_check``.
    """
    group = as_group(code_or_group)
    f_sq = code_overlap(state, group)
    f_sq = min(max(f_sq, 0.0), 1.0)
    out = {
        "f_squared": f_sq,
        "fidelity": math.sqrt(f_sq),
        "trace_distance": math.sqrt(1.0 - f_sq),
        "convention": "pure-vs-subspace",
    }
    if group.n <= 9:
        proj = 2**group.n_logical * group_mixture(group).dense_rho()
        out["cross_check"] = float(np.linalg.norm(proj @ vector(state)) ** 2)
        assert abs(out["cross_check"] - f_sq) < 1e-9
    return out


def zero_state_distance_check(code_or_group) -> dict:
    """Does |0^n> sit at trace distance more than d/(6n) from the code?

    Requires at least one logical qubit. A code whose distance comes from
    a weight-1 logical can put |0^n> inside the code space; the report
    then carries holds = False, which is the honest answer, and the
    built-in sweep only feeds codes with d >= 2.
    """
    group = as_group(code_or_group)
    if group.n_logical < 1:
        raise ValueError("code encodes nothing: k = 0")
    distance = code_parameters(group).d
    if distance is None:
        raise ValueError("distance unknown")
    rep = trace_distance_to_code(zero_mixture(group.n), group)
    threshold = distance / (6.0 * group.n)
    return {
        "distance": rep["trace_distance"],
        "fidelity": rep["fidelity"],
        "threshold": threshold,
        "d": int(distance),
        "holds": rep["trace_distance"] > threshold,
    }


def uncertainty_check(state, pair: LogicalPair) -> dict:
    """Anti-commuting logicals cannot both be sharp: ex^2 + ez^2 <= 1."""
    ex = expectation(state, pair.xbar)
    ez = expectation(state, pair.zbar)
    return {"ex": ex, "ez": ez, "holds": ex**2 + ez**2 <= 1.0 + 1e-9}


def product_state_separation_check(state, code_or_group) -> dict:
    """Product states sit at least d'/(8w) away from any code state.

    distance is the pure-vs-subspace value sqrt(1 - f^2); distance_floor
    = 1 - f^2 lower-bounds the distance to every mixed code state, and
    holds checks the bound against that conservative floor. Non-product
    input is reported as a precondition violation, not a counterexample.
    """
    group = as_group(code_or_group)
    f_sq = code_overlap(state, group)
    product = all(
        np.trace(mat @ mat).real > 1.0 - 1e-10
        for mat in (marginal(state, (q,)) for q in range(num_qubits(state)))
    )
    rep = best_distance(group)
    bound = rep.d_prime / (8.0 * rep.w)
    out = {
        "distance": math.sqrt(max(0.0, 1.0 - f_sq)),
        "distance_floor": 1.0 - f_sq,
        "bound": bound,
        "d_prime": rep.d_prime,
        "w": rep.w,
        "is_product": product,
        "precondition_violated": not product,
    }
    out["holds"] = out["distance_floor"] >= bound - 1e-12 if product else None
    return out


def lightcone_count_check(w_circuit: LayeredCircuit, code_or_group, phi=None) -> dict:
    """Average lightcone energy sandwich for a syndrome-extracting circuit.

    For W on m data + N register wires, every wire j owns the SMA checks
    whose register wire falls in j's lightcone under W reversed. The mean
    over j of that owned energy is squeezed between E/(m+N) and
    2^{2 depth} E/(m+N): each check is owned at least once (by its own
    register wire) and at most by every wire its reversed cone reaches.
    Energies are per-term values of the data state phi (default |0^m>).
    """
    group = as_group(code_or_group)
    n_checks = len(group.generators)
    m = w_circuit.m - n_checks
    if m < group.n:
        raise ValueError("circuit too small for data block plus register")
    if phi is None:
        phi = zero_mixture(m)
    ham = build_code_hamiltonian(group)
    eps = energy_report(phi, ham, code_qubits=tuple(range(group.n))).per_term
    total = float(sum(eps))

    reversed_w = reverse_circuit(w_circuit)
    counts = [0] * n_checks
    owned = []
    for j in range(w_circuit.m):
        cone = lightcone(reversed_w, (j,))
        sma = [i for i in range(n_checks) if m + i in cone]
        for i in sma:
            counts[i] += 1
        owned.append(sum(eps[i] for i in sma))
    wires = w_circuit.m
    depth = w_circuit.depth
    mid = float(sum(owned)) / wires
    lhs = total / wires
    rhs = 2.0 ** (2 * depth) * total / wires
    return {
        "lhs": lhs,
        "mid": mid,
        "rhs": rhs,
        "cc": depth,
        "counts": tuple(counts),
        "count_floor_ok": all(c >= 1 for c in counts),
        "holds": lhs - 1e-12 <= mid <= rhs + 1e-12,
    }
