"""Empirical energy-vs-depth frontier for code Hamiltonians.

How low can the check energy go at a given circuit depth? Three seeded
search strategies probe that frontier at desk scale: an exhaustive sweep
of Pauli-basis product states (true depth-0 optimum over that family, by
branch and bound), random shallow Clifford circuits, and coordinate
descent over a brickwork template. Depth here means entangling depth:
single-qubit preparation layers are free the way circuit lower bounds
count them. A consistency hook cross-checks every record against the
closed-form depth bounds; at desk scale those are vacuous, but the hook
is what a larger-scale run would trip over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import BoundInputs, depth_lower_bounds
from .circuits import (
    DrawnLayer,
    Gate,
    LayeredCircuit,
    _trusted_gate,
    circuit_of_draws,
    draw_clifford_words,
    heisenberg_columns,
    heisenberg_draws,
    pauli_columns,
)
from .codes import as_group
from .hamiltonians import EnergyReport
from .paulis import StabilizerGroup

STRATEGIES = ("pauli-products", "random-clifford", "coordinate-descent")

# Ceilings for the CLI's loop counts. A brickwork circuit deeper than the
# number of qubits already scrambles every desk-scale code, and the budget
# counts energy evaluations per strategy and depth.
MAX_FRONTIER_DEPTH = 64
MAX_FRONTIER_BUDGET = 10_000

# the six single-qubit stabilizer states as (letter, sign) with prep words
_SINGLE_STATES: tuple[tuple[str, int, tuple], ...] = (
    ("Z", 1, ()),
    ("Z", -1, (("X", (0,)),)),
    ("X", 1, (("H", (0,)),)),
    ("X", -1, (("X", (0,)), ("H", (0,)))),
    ("Y", 1, (("H", (0,)), ("S", (0,)))),
    ("Y", -1, (("X", (0,)), ("H", (0,)), ("S", (0,)))),
)
_PREP_WORDS = {(letter, sign): word for letter, sign, word in _SINGLE_STATES}


@dataclass(frozen=True, slots=True)
class FrontierRecord:
    """Best energy found at one depth by one strategy, with its witness."""

    t: int
    strategy: str
    seed: int
    best_energy: EnergyReport
    best_circuit: LayeredCircuit

    def row(self) -> dict:
        return {
            "t": self.t,
            "strategy": self.strategy,
            "seed": self.seed,
            "total_energy": self.best_energy.total,
            "mean_energy": self.best_energy.mean,
        }


def _check_tables(group: StabilizerGroup):
    """Per check: sign, {qubit: letter}; per qubit: list of check indices."""
    letters = []
    touching: list[list[int]] = [[] for _ in range(group.n)]
    for idx, check in enumerate(group.generators):
        table = {q: check.letter(q) for q in sorted(check.support)}
        letters.append((check.sign, table))
        for q in table:
            touching[q].append(idx)
    return letters, touching


def _conflict_pairs(checks, touching) -> list[tuple[int, int]]:
    """Sorted pairs i < j of checks that want different letters on a shared qubit."""
    pairs = set()
    for q, idxs in enumerate(touching):
        for a, i in enumerate(idxs):
            for j in idxs[a + 1 :]:
                if checks[i][1][q] != checks[j][1][q]:
                    pairs.add((i, j))
    return sorted(pairs)


def product_state_minimum(code_or_group) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Exact minimum total energy over Pauli-basis product states.

    Branch and bound over per-qubit assignments from the six single-qubit
    stabilizer states, qubit 0 first; uniform assignments seed the
    incumbent. A check's expectation survives only if every support qubit
    picks the check's letter there, so a mismatch settles the check at
    energy 1/2 immediately.

    Two checks conflict when they want different letters on a shared
    qubit. If both are still live, that qubit is unassigned, so one of
    them dies below this node and costs at least 1/2 more. A node's lower
    bound is its settled energy plus 1/2 per pair in a greedy disjoint
    matching of live conflict pairs; the node is pruned when the bound
    reaches the incumbent. The bound is admissible and the visiting order
    is fixed, so a pruned subtree holds no leaf that would have replaced
    the incumbent: the returned (energy, assignment) is the one the
    settled-energy bound alone finds.
    """
    group = as_group(code_or_group)
    n = group.n
    if n > 20:
        raise ValueError("exhaustive product search capped at 20 qubits")
    checks, touching = _check_tables(group)
    n_checks = len(checks)
    if n_checks == 0:
        return 0.0, tuple(("Z", 1) for _ in range(n))

    def assignment_energy(assign: list[tuple[str, int]]) -> float:
        total = 0.0
        for sign, table in checks:
            value = sign
            for q, letter in table.items():
                pick_letter, pick_sign = assign[q]
                if pick_letter != letter:
                    value = 0
                    break
                value *= pick_sign
            total += 0.5 * (1 - value)
        return total

    best_assign = None
    best_energy = float("inf")
    for letter, sign, _ in _SINGLE_STATES:
        uniform = [(letter, sign)] * n
        energy = assignment_energy(uniform)
        if energy < best_energy:
            best_energy = energy
            best_assign = list(uniform)

    # per-check bookkeeping: remaining unassigned support, running value
    remaining = [len(table) for _, table in checks]
    value = [sign for sign, _ in checks]
    assign: list[tuple[str, int] | None] = [None] * n
    settled = 0.0
    conflicts = _conflict_pairs(checks, touching)

    def matching_bound() -> float:
        bound = settled
        matched = 0  # bit i set once check i is in the matching
        for i, j in conflicts:
            if value[i] and value[j] and not (matched >> i | matched >> j) & 1:
                matched |= 1 << i | 1 << j
                bound += 0.5
        return bound

    def descend(q: int):
        nonlocal settled, best_energy, best_assign
        if q == n:
            if settled < best_energy - 1e-12:
                best_energy = settled
                best_assign = [pick for pick in assign]  # all assigned here
            return
        if matching_bound() >= best_energy - 1e-12:
            return
        for letter, sign, _ in _SINGLE_STATES:
            assign[q] = (letter, sign)
            delta = 0.0
            touched = []
            for idx in touching[q]:
                if value[idx] == 0:
                    # already dead; support countdown still tracked
                    remaining[idx] -= 1
                    touched.append((idx, 0, False))
                    continue
                want = checks[idx][1][q]
                old = value[idx]
                if letter != want:
                    value[idx] = 0
                    delta += 0.5
                    remaining[idx] -= 1
                    touched.append((idx, old, True))
                else:
                    value[idx] = old * sign
                    remaining[idx] -= 1
                    touched.append((idx, old, True))
                    if remaining[idx] == 0:
                        delta += 0.5 * (1 - value[idx])
            settled += delta
            descend(q + 1)
            settled -= delta
            for idx, old, restore in touched:
                remaining[idx] += 1
                if restore:
                    value[idx] = old
        assign[q] = None

    descend(0)
    return best_energy, tuple(best_assign)


def product_prep_circuit(assignment, n: int) -> LayeredCircuit:
    """Single-qubit preparation layer for a product assignment (depth 0 entangling)."""
    gates = _prep_gates(assignment)
    layers = (gates,) if gates else ()
    return LayeredCircuit(n, layers)


def _prep_gates(assignment) -> tuple[Gate, ...]:
    """One prep-word gate per qubit whose (letter, sign) is not |0>."""
    words = (_PREP_WORDS[tuple(pick)] for pick in assignment)
    return tuple(_trusted_gate((q,), word=word) for q, word in enumerate(words) if word)


def _check_columns(group: StabilizerGroup) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The checks in the column layout, kept as tuples so that no caller edits them in place."""
    xs, zs, signs = pauli_columns(group.generators, group.n)
    return tuple(xs), tuple(zs), signs


def _energy_of_circuit(circuit: LayeredCircuit | tuple[DrawnLayer, ...], group: StabilizerGroup) -> EnergyReport:
    """Check energies of U|0^n>, read in the Heisenberg picture.

    <0^n| U^dagger C U |0^n> is the sign of the image U^dagger C U when it
    has no X bit, and 0 otherwise; so each check costs one bit test and no
    state is built. U is a ``LayeredCircuit`` or the draws of
    :func:`draw_clifford_words`, which are read without building a circuit.
    """
    xs, zs, signs = group.derived("check_columns", lambda: _check_columns(group))
    xs, zs = list(xs), list(zs)
    readout = heisenberg_columns if isinstance(circuit, LayeredCircuit) else heisenberg_draws
    signs = readout(xs, zs, signs, circuit)
    flipped = 0  # bit i: the image of check i has an X bit
    for x in xs:
        flipped |= x
    return _outcome_report(len(group.generators), flipped, signs & ~flipped)


# energy (1 - <C>)/2 of a check whose image U^dagger C U is +-Z-type, by its sign bit
_Z_TYPE_ENERGY = (0.0, 1.0)


@lru_cache(maxsize=1 << 10)
def _outcome_report(n_checks: int, flipped: int, negative: int) -> EnergyReport:
    """The report of checks that read 0 (bits of ``flipped``), -1 (``negative``) or +1.

    Searches meet few such patterns (about a hundred in 300 toric3 rounds),
    so the records they keep share one immutable report per pattern.
    """
    return EnergyReport.from_terms(
        tuple(0.5 if flipped >> i & 1 else _Z_TYPE_ENERGY[negative >> i & 1] for i in range(n_checks))
    )


_BRICK_CHOICES = ("II", "CX", "XC", "CZ", "SWAP")


def _brick_gate(choice: str, a: int, b: int) -> Gate | None:
    if choice == "II":
        return None
    if choice == "XC":
        return _trusted_gate((b, a), name="CX")
    return _trusted_gate((a, b), name=choice)


def _assemble_descent(prep, bricks, n: int, pairings) -> LayeredCircuit:
    layers = []
    prep_gates = _prep_gates(prep)
    if prep_gates:
        layers.append(prep_gates)
    for layer_idx, layer_choices in enumerate(bricks):
        gates = []
        for slot_idx, (a, b) in enumerate(pairings[layer_idx]):
            gate = _brick_gate(layer_choices[slot_idx], a, b)
            if gate is not None:
                gates.append(gate)
        layers.append(tuple(gates))
    return LayeredCircuit(n, tuple(layers))


def _descent_once(group, pairings, prep, bricks, spend) -> EnergyReport:
    n = group.n

    def energy() -> EnergyReport:
        circuit = _assemble_descent(prep, bricks, n, pairings)
        return _energy_of_circuit(circuit, group)

    spend(1)
    current = energy()
    improved = True
    while improved and spend(0):
        improved = False
        for q in range(n):
            keep = prep[q]
            best_pick, best_rep = keep, current
            for letter, sign, _ in _SINGLE_STATES:
                if (letter, sign) == keep or not spend(1):
                    continue
                prep[q] = (letter, sign)
                rep = energy()
                if rep.total < best_rep.total - 1e-12:
                    best_pick, best_rep = (letter, sign), rep
            prep[q] = best_pick
            if best_rep.total < current.total - 1e-12:
                current = best_rep
                improved = True
        for layer_idx, layer_choices in enumerate(bricks):
            for slot_idx in range(len(layer_choices)):
                keep = layer_choices[slot_idx]
                best_pick, best_rep = keep, current
                for choice in _BRICK_CHOICES:
                    if choice == keep or not spend(1):
                        continue
                    layer_choices[slot_idx] = choice
                    rep = energy()
                    if rep.total < best_rep.total - 1e-12:
                        best_pick, best_rep = choice, rep
                layer_choices[slot_idx] = best_pick
                if best_rep.total < current.total - 1e-12:
                    current = best_rep
                    improved = True
    return current


def _coordinate_descent(group, t: int, budget: int, seed: int):
    """Budget-capped sweeps; warm start at |0^n>, then seeded random restarts."""
    n = group.n
    pairings = []
    for layer_idx in range(t):
        start = layer_idx % 2
        pairings.append([(a, a + 1) for a in range(start, n - 1, 2)])
    evals = 0

    def spend(cost: int) -> bool:
        nonlocal evals
        if evals + cost > budget:
            return False
        evals += cost
        return True

    best_rep, best_state = None, None
    restart = 0
    while evals < budget:
        if restart == 0:
            prep = [("Z", 1)] * n
            bricks = [["II"] * len(pairing) for pairing in pairings]
        else:
            rng = np.random.default_rng(seed + 7919 * restart)
            prep = [
                (state[0], state[1])
                for state in (_SINGLE_STATES[i] for i in rng.integers(0, 6, size=n))
            ]
            bricks = [
                [str(rng.choice(_BRICK_CHOICES)) for _ in pairing]
                for pairing in pairings
            ]
        rep = _descent_once(group, pairings, prep, bricks, spend)
        if best_rep is None or rep.total < best_rep.total - 1e-12:
            best_rep = rep
            best_state = ([pick for pick in prep], [list(layer) for layer in bricks])
        restart += 1
    circuit = _assemble_descent(best_state[0], best_state[1], n, pairings)
    return best_rep, circuit


def frontier_search(
    code_or_group,
    t_max: int,
    strategy: str,
    budget: int = 1000,
    seed: int = 0,
) -> list[FrontierRecord]:
    """Minimize total check energy per depth t in [0, t_max].

    pauli-products ignores the budget (the family is exhausted once and
    does not grow with depth). random-clifford scores budget trials per
    depth, with per-trial seeds derived from (seed, t, trial), straight
    from their random draws (``draw_clifford_words`` read by
    ``heisenberg_draws``), and builds the circuit of the winning trial
    alone; the record keeps that trial's seed, so it reproduces from
    (strategy, t, seed) as ``random_low_depth(n, t, seed=seed)``. On a
    2-vCPU host the median toric3 search (budget 16, t <= 3, 200 seeds)
    fell from about 5.5 to 3.4 ms when trials stopped being built, and the
    benchmark's ``frontier`` workload from 421 to 622 searches a second
    (``BENCH_pr17.json``).
    coordinate-descent sweeps from |0^n> (every prep |0>, every brick the
    identity) and spends what is left of the budget on restarts from
    seeded random preps and bricks. Single-qubit layers do not count
    toward t. Every energy is read in the Heisenberg picture, no state is
    built.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; options: {STRATEGIES}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    group = as_group(code_or_group)
    records: list[FrontierRecord] = []

    if strategy == "pauli-products":
        best, assignment = product_state_minimum(group)
        circuit = product_prep_circuit(assignment, group.n)
        rep = _energy_of_circuit(circuit, group)
        assert abs(rep.total - best) < 1e-9
        for t in range(t_max + 1):
            records.append(FrontierRecord(t, strategy, seed, rep, circuit))
        return records

    if strategy == "random-clifford":
        for t in range(t_max + 1):
            best_rep, best_seed, best_draws = None, None, None
            for trial in range(budget):
                trial_seed = seed + 104729 * t + 7919 * trial
                draws = draw_clifford_words(group.n, t, trial_seed)
                rep = _energy_of_circuit(draws, group)
                key = (rep.total, trial_seed)
                if best_rep is None or key < (best_rep.total, best_seed):
                    best_rep, best_seed, best_draws = rep, trial_seed, draws
            circuit = circuit_of_draws(group.n, best_draws)
            records.append(FrontierRecord(t, strategy, best_seed, best_rep, circuit))
        return records

    for t in range(t_max + 1):
        rep, circuit = _coordinate_descent(group, t, budget, seed)
        records.append(FrontierRecord(t, strategy, seed, rep, circuit))
    return records


def merge_frontiers(*record_lists) -> list[FrontierRecord]:
    """One record per depth: running minimum by (energy, seed, strategy)."""
    pool: list[FrontierRecord] = [rec for records in record_lists for rec in records]
    if not pool:
        return []
    merged = []
    best = None
    for t in range(max(rec.t for rec in pool) + 1):
        candidates = sorted(
            (rec for rec in pool if rec.t == t),
            key=lambda r: (r.best_energy.total, r.seed, r.strategy),
        )
        if candidates and (
            best is None
            or candidates[0].best_energy.total < best.best_energy.total - 1e-12
        ):
            best = candidates[0]
        if best is not None:
            merged.append(
                FrontierRecord(t, best.strategy, best.seed, best.best_energy, best.best_circuit)
            )
    return merged


def theorem_consistency(
    records,
    k: int,
    d: int,
    ell: int,
    n: int | None = None,
) -> dict:
    """Cross-check frontier records against the closed-form depth bounds.

    A record below a bound's energy threshold at a depth the bound forbids
    is a violation: either the search found a counterexample (a bug
    somewhere) or the injected parameters are fictitious. At desk scale
    every applicability window is closed and the report comes back clean.
    """
    violations = []
    checked = 0
    for rec in records:
        eps = rec.best_energy.mean
        if not 0.0 < eps < 1.0:
            continue
        inputs = BoundInputs(
            n=n if n is not None else rec.best_circuit.m,
            k=k,
            d=d,
            ell=ell,
            epsilon=eps,
            t=rec.t,
        )
        report = depth_lower_bounds(inputs)
        for name in ("thm2_rate", "thm3_distance"):
            entry = report[name]
            checked += 1
            if entry["applicable"] and entry["value"] is not None:
                if rec.t < entry["value"] - 1e-9:
                    violations.append(
                        {
                            "bound": name,
                            "t": rec.t,
                            "required": entry["value"],
                            "strategy": rec.strategy,
                            "seed": rec.seed,
                        }
                    )
    return {"checked": checked, "violations": violations, "consistent": not violations}
