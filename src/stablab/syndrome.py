"""Coherent syndrome measurement and the decohered branch state.

The extraction circuit V attaches one ancilla wire per check (check i on wire
n + i), Hadamards all ancillas, applies each check as a chain of controlled
Paulis from its ancilla, and Hadamards again. Checks are scheduled by a
proper coloring of the check-overlap graph, so same-color checks run their
chains in parallel and the depth is at most ell * (number of colors) plus the
two Hadamard layers. On input |phi>|0^N> the output is

    sum_s (D_s |phi>) (x) |s>,    D_s = prod_i (I + (-1)^{s_i} C_i) / 2.

``coherent_extension`` is that circuit run on |phi>|0^N> through the one
backend dispatch in :mod:`stablab.states`, so a stabilizer mixture rides the
tableau and a state vector the dense kernel; the sector sum above is kept
only as the independent reference of the ``syndrome-projector`` suite.

Measuring the ancillas instead of keeping them coherent gives the decohered
state: a probability-weighted family of syndrome branches, which ``decohere``
lists one by one. As one state it is the coherent output with every register
wire dephased in Z, and that is how the gentle-measurement report builds it:
a stabilizer mixture stays a mixture until its marginal on the region, so
the report runs past the dense limit on n + N wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import Gate, LayeredCircuit
from .hamiltonians import build_code_hamiltonian, energy_report
from .paulis import PauliOperator, StabilizerGroup
from .states import apply_circuit, dephase, extend, fidelity, marginal, project

_CONTROLLED = {"X": "CX", "Y": "CY", "Z": "CZ"}


def check_colors(group: StabilizerGroup) -> tuple[int, ...]:
    """Greedy proper coloring of the check-overlap graph, one color per check.

    Checks whose supports intersect get different colors. Checks are colored
    in descending overlap degree, index breaking ties, each with the least
    color its neighbors leave free.
    """
    supports = [set(g.support) for g in group.generators]
    neighbors = [[j for j, other in enumerate(supports) if j != i and s & other] for i, s in enumerate(supports)]
    colors = [-1] * len(supports)
    for v in sorted(range(len(supports)), key=lambda i: (-len(neighbors[i]), i)):
        taken = {colors[u] for u in neighbors[v]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


@dataclass(frozen=True)
class SyndromeCircuit:
    circuit: LayeredCircuit
    colors: tuple[int, ...]
    group: StabilizerGroup = field(repr=False)

    @property
    def depth(self) -> int:
        return self.circuit.depth

    @property
    def depth_bound_constructive(self) -> int:
        """ell * (colors used) + terminal layers, what the schedule achieves."""
        ell = self.group.locality
        extra = 3 if any(g.sign < 0 for g in self.group.generators) else 2
        return ell * (max(self.colors, default=-1) + 1) + extra

    @property
    def depth_bound_statement(self) -> int:
        """The 2 ell^3 promise; meaningful for ell >= 2."""
        return 2 * self.group.locality**3


def build_syndrome_circuit(group: StabilizerGroup) -> SyndromeCircuit:
    """Layered extraction circuit on n + N wires.

    A weight-w check of color c contributes its w controlled-Pauli gates to
    layers of slot c; slots run sequentially and same-color checks fill the
    same layers side by side. Checks with sign -1 get a Z on their ancilla
    (controlled minus sign) in one shared layer before the final Hadamards.
    The slots are the greedy coloring of the overlap graph, which is proper
    by construction.
    """
    n = group.n
    checks = group.generators
    colors = check_colors(group)

    m = n + len(checks)
    layers: list[tuple[Gate, ...]] = []
    layers.append(tuple(Gate(qubits=(n + i,), name="H") for i in range(len(checks))))
    for c in range(max(colors, default=-1) + 1):
        members = [i for i, col in enumerate(colors) if col == c]
        max_w = max(checks[i].weight for i in members)
        for step in range(max_w):
            gates = []
            for i in members:
                support = sorted(checks[i].support)
                if step < len(support):
                    q = support[step]
                    gates.append(Gate(qubits=(n + i, q), name=_CONTROLLED[checks[i].letter(q)]))
            layers.append(tuple(gates))
    negatives = [i for i, g in enumerate(checks) if g.sign < 0]
    if negatives:
        layers.append(tuple(Gate(qubits=(n + i,), name="Z") for i in negatives))
    layers.append(tuple(Gate(qubits=(n + i,), name="H") for i in range(len(checks))))

    circuit = LayeredCircuit(m=m, layers=tuple(layers), code_qubits=tuple(range(n)))
    built = SyndromeCircuit(circuit=circuit, colors=colors, group=group)
    if group.locality >= 2:
        assert built.depth <= built.depth_bound_statement
    return built


# --- decohered branch state ---


@dataclass(frozen=True)
class DecoheredState:
    """Syndrome branches s -> (p_s, normalized post-measurement state)."""

    n_checks: int
    branches: tuple[tuple[tuple[int, ...], float, object], ...]  # lex-sorted

    @property
    def total_probability(self) -> float:
        return float(sum(p for _, p, _ in self.branches))


def decohere(state, group: StabilizerGroup) -> DecoheredState:
    """Measure every check; returns the branch map ordered by syndrome.

    Works on stabilizer mixtures and dense vectors. The commuting checks make
    the measurement order irrelevant. Branches of probability at most 1e-14
    are dropped as roundoff; mixture probabilities are exact powers of 1/2,
    at least 2^-n, so no mixture branch is dropped.
    """
    work = [((), 1.0, state)]
    for g in group.generators:
        nxt = []
        for bits, p, st in work:
            for outcome, sign in ((0, g.sign), (1, -g.sign)):
                q, branch = project(st, PauliOperator(g.n, g.x, g.z, sign))
                if branch is not None and p * q > 1e-14:
                    nxt.append((bits + (outcome,), p * q, branch))
        work = nxt
    work.sort(key=lambda item: item[0])
    return DecoheredState(
        n_checks=len(group.generators),
        branches=tuple((bits, float(p), st) for bits, p, st in work),
    )


def coherent_extension(phi, group: StabilizerGroup):
    """sum_s (D_s phi) (x) |s> on n + N wires, ancilla i carrying s_i.

    This is the extraction circuit applied to phi (x) |0^N>, on either
    backend: a stabilizer mixture stays a mixture (the circuit is Clifford),
    and a state vector stays a vector, under the dense limit on n + N
    qubits.
    """
    return apply_circuit(extend(phi, len(group.generators)), build_syndrome_circuit(group).circuit)


@dataclass(frozen=True)
class GentleMeasurementReport:
    fidelity: float
    bound: float
    holds: bool
    region: tuple[int, ...]
    sma_checks: tuple[int, ...]


def gentle_measurement_report(phi, group: StabilizerGroup, region) -> GentleMeasurementReport:
    """Fidelity of the coherent and decohered marginals on a region.

    The guarantee: F(psi_R, Theta_R) >= 1 - sum of the input state's
    per-check energies over checks whose ancilla lies in R. Theta is the
    coherent extension with every register wire dephased in Z; dephasing a
    wire that is traced out leaves the marginal unchanged, so Theta_R is
    psi_R with the register wires inside R dephased. A stabilizer mixture
    therefore stays a mixture up to its |R|-qubit marginal.
    """
    n = group.n
    region = tuple(sorted(int(q) for q in region))
    psi_r = marginal(coherent_extension(phi, group), region)
    register = [PauliOperator(len(region), 0, 1 << j) for j, q in enumerate(region) if q >= n]
    theta_r = dephase(psi_r, register)

    sma = tuple(q - n for q in region if q >= n)
    eps = energy_report(phi, build_code_hamiltonian(group)).per_term
    bound = 1.0 - sum(eps[i] for i in sma)
    fid = fidelity(psi_r, theta_r)
    return GentleMeasurementReport(
        fidelity=fid, bound=bound, holds=fid >= bound - 1e-9, region=region, sma_checks=sma
    )
