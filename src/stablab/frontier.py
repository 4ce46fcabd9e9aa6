"""Empirical energy-vs-depth frontier for code Hamiltonians.

How low can the check energy go at a given circuit depth? Three seeded
search strategies probe that frontier at desk scale: a sweep of
Pauli-basis product states (the depth-0 optimum over that family, by
branch and bound within a node budget), random shallow Clifford circuits,
and coordinate descent over a brickwork template. Depth here means
entangling depth: single-qubit preparation layers are free the way
circuit lower bounds count them. A consistency hook cross-checks every
record against the closed-form depth bounds; at desk scale those are
vacuous, but the hook is what a larger-scale run would trip over.

Random Clifford circuits are scored from their draws, a block of trials
per numpy pass, and coordinate descent scores each move by what it
changes: it keeps the checks' image under its brick layers and each
qubit's prep image. Both build only each depth's winning circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bounds import BoundInputs, depth_lower_bounds
from .circuits import (
    Gate,
    LayeredCircuit,
    _INVERSE_RULES,
    _trusted_gate,
    circuit_of_draws,
    draw_clifford_words,
    heisenberg_columns,
    heisenberg_draw_batch,
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
    """Best energy found at one depth by one strategy, with its witness.

    ``product_bound`` marks a pauli-products record whose search ran out of
    nodes, so its energy only bounds the product minimum from above; only
    such a record's row says so.
    """

    t: int
    strategy: str
    seed: int
    best_energy: EnergyReport
    best_circuit: LayeredCircuit
    product_bound: bool = False

    def row(self) -> dict:
        row = {
            "t": self.t,
            "strategy": self.strategy,
            "seed": self.seed,
            "total_energy": self.best_energy.total,
            "mean_energy": self.best_energy.mean,
        }
        if self.product_bound:
            row["product_minimum"] = "upper bound"
        return row


def _product_tables(group: StabilizerGroup):
    """The product search's per-code tables, derived once per group as tuples.

    Per check its sign and its (qubit, letter) support in qubit order; per
    qubit the (check, letter) pairs that touch it in check order; and the
    sorted conflict pairs i < j of checks that want different letters on a
    shared qubit.
    """

    def build():
        signs = tuple(check.sign for check in group.generators)
        supports = tuple(
            tuple((q, check.letter(q)) for q in sorted(check.support)) for check in group.generators
        )
        touching: list[list[tuple[int, str]]] = [[] for _ in range(group.n)]
        for idx, support in enumerate(supports):
            for q, letter in support:
                touching[q].append((idx, letter))
        conflicts = {
            (i, j)
            for pairs in touching
            for a, (i, letter_i) in enumerate(pairs)
            for j, letter_j in pairs[a + 1 :]
            if letter_i != letter_j
        }
        return signs, supports, tuple(map(tuple, touching)), tuple(sorted(conflicts))

    return group.derived("product_tables", build)


# Nodes the product search may visit before it returns its incumbent as an
# upper bound. The five built-ins settle within 43 nodes, and the
# [[144,12,12]] bivariate-bicycle code within about 25,000.
PRODUCT_SEARCH_NODES = 100_000


def product_state_minimum(code_or_group) -> tuple[float, tuple[tuple[str, int], ...], bool]:
    """(energy, assignment, exact): the minimum total energy over Pauli-basis product states.

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
    settled-energy bound alone finds when both searches finish.

    The depth-first walk keeps its own stack, so no code is too wide for
    it. When it has visited PRODUCT_SEARCH_NODES nodes it stops, and the
    incumbent is returned with ``exact`` False: an upper bound on the
    minimum. Otherwise ``exact`` is True.
    """
    group = as_group(code_or_group)
    n = group.n
    signs, supports, touching, conflicts = _product_tables(group)
    if not signs:
        return 0.0, tuple(("Z", 1) for _ in range(n)), True

    def assignment_energy(assign: list[tuple[str, int]]) -> float:
        total = 0.0
        for sign, support in zip(signs, supports):
            value = sign
            for q, letter in support:
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
    remaining = [len(support) for support in supports]
    value = list(signs)
    assign: list[tuple[str, int] | None] = [None] * n
    settled = 0.0

    def matching_bound() -> float:
        bound = settled
        matched = 0  # bit i set once check i is in the matching
        for i, j in conflicts:
            if value[i] and value[j] and not (matched >> i | matched >> j) & 1:
                matched |= 1 << i | 1 << j
                bound += 0.5
        return bound

    # per level: the index of the state being tried, its energy change, and
    # the (check, old value) entries that undo it
    choice = [0] * n
    deltas = [0.0] * n
    undo: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nodes = 0
    q = 0
    entering = True
    while q >= 0:
        if entering:
            if nodes == PRODUCT_SEARCH_NODES:
                return best_energy, tuple(best_assign), False
            nodes += 1
            if q == n and settled < best_energy - 1e-12:
                best_energy = settled
                best_assign = list(assign)  # all assigned here
            if q == n or matching_bound() >= best_energy - 1e-12:
                q -= 1
                entering = False
                continue
            choice[q] = 0
        else:
            settled -= deltas[q]
            for idx, old in undo[q]:
                remaining[idx] += 1
                value[idx] = old
            choice[q] += 1
            if choice[q] == len(_SINGLE_STATES):
                assign[q] = None
                q -= 1
                continue
        letter, sign, _ = _SINGLE_STATES[choice[q]]
        assign[q] = (letter, sign)
        delta = 0.0
        touched = undo[q] = []
        for idx, want in touching[q]:
            old = value[idx]
            remaining[idx] -= 1
            touched.append((idx, old))
            if old == 0:  # already dead; the support countdown is still tracked
                continue
            if letter != want:
                value[idx] = 0
                delta += 0.5
            else:
                value[idx] = old * sign
                if remaining[idx] == 0:
                    delta += 0.5 * (1 - value[idx])
        deltas[q] = delta
        settled += delta
        q += 1
        entering = True
    return best_energy, tuple(best_assign), True


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
    """The checks in the column layout, packed once per group, as tuples so that no caller edits them."""

    def pack():
        xs, zs, signs = pauli_columns(group.generators, group.n)
        return tuple(xs), tuple(zs), signs

    return group.derived("check_columns", pack)


def _energy_of_circuit(circuit: LayeredCircuit, group: StabilizerGroup) -> EnergyReport:
    """Check energies of U|0^n>, read in the Heisenberg picture.

    <0^n| U^dagger C U |0^n> is the sign of the image U^dagger C U when it
    has no X bit, and 0 otherwise; so each check costs one bit test and no
    state is built.
    """
    xs, zs, signs = _check_columns(group)
    xs, zs = list(xs), list(zs)
    signs = heisenberg_columns(xs, zs, signs, circuit)
    flipped = 0  # bit i: the image of check i has an X bit
    for x in xs:
        flipped |= x
    return _outcome_report(len(group.generators), flipped, signs & ~flipped)


def _check_codes(group: StabilizerGroup) -> tuple[np.ndarray, np.ndarray]:
    """The checks as :func:`heisenberg_draw_batch` reads them, derived once per group, read-only.

    Entry (q, i) of the (n, N) uint8 codes is check i's x | z << 2 on
    qubit q; the second array holds each check's sign bit.
    """

    def pack():
        xs, zs, signs = _check_columns(group)
        n_checks = len(group.generators)
        codes = np.array([[(x >> i & 1) | (z >> i & 1) << 2 for i in range(n_checks)] for x, z in zip(xs, zs)])
        sign_bits = np.array([signs >> i & 1 for i in range(n_checks)])
        arrays = codes.astype(np.uint8).reshape(group.n, n_checks), sign_bits.astype(np.uint8)
        for array in arrays:
            array.flags.writeable = False
        return arrays

    return group.derived("check_codes", pack)


def _bits_int(bits: np.ndarray) -> int:
    """The int whose bit i is ``bits[i]``."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# Trials a random-clifford search scores in one pass. The pass's arrays grow
# with it, so it bounds the search's memory at any budget.
_TRIAL_BLOCK = 256


def _random_clifford_depth(group: StabilizerGroup, t: int, budget: int, seed: int) -> FrontierRecord:
    """The random-clifford record at depth t: the first trial with the least total energy.

    Trials are drawn one generator each, from the seed (seed, t, trial),
    and scored _TRIAL_BLOCK at a time by :func:`heisenberg_draw_batch`; a
    later block replaces the winner only with a strictly lower total. At
    depth 0 every trial is the empty circuit, so trial 0 alone is scored.
    """
    codes, signs = _check_codes(group)
    n, n_checks = group.n, len(group.generators)
    trials = range(budget if t else 1)
    best = None  # (twice the total, trial seed, flipped bits, negative bits, draws)
    for start in range(0, len(trials), _TRIAL_BLOCK):
        seeds = [seed + 104729 * t + 7919 * trial for trial in trials[start : start + _TRIAL_BLOCK]]
        draws = [draw_clifford_words(n, t, trial_seed) for trial_seed in seeds]
        images, flips = heisenberg_draw_batch(codes, np.stack([p for p, _ in draws]), np.stack([w for _, w in draws]))
        flipped = np.bitwise_or.reduce(images, axis=1) & 1  # the image has an X bit: the check reads 0
        negative = (signs ^ flips) & (flipped ^ 1)
        totals = flipped.sum(axis=1) + 2 * negative.sum(axis=1)
        i = int(totals.argmin())
        if best is None or totals[i] < best[0]:
            best = (totals[i], seeds[i], flipped[i], negative[i], draws[i])
    _, trial_seed, flipped, negative, draws = best
    report = _outcome_report(n_checks, _bits_int(flipped), _bits_int(negative))
    return FrontierRecord(t, "random-clifford", trial_seed, report, circuit_of_draws(n, draws))


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
# each brick but the identity as (named gate, wires reversed)
_BRICK_GATES = {"CX": ("CX", False), "XC": ("CX", True), "CZ": ("CZ", False), "SWAP": ("SWAP", False)}


def _brick_gate(choice: str, a: int, b: int) -> Gate | None:
    if choice == "II":
        return None
    name, reverse = _BRICK_GATES[choice]
    return _trusted_gate((b, a) if reverse else (a, b), name=name)


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


def _prep_image(x: int, z: int, signs: int, word) -> tuple[int, int, int]:
    """U^dagger P U for a single-qubit word U and every Pauli P held in one qubit's columns.

    Returns the image's x and z columns and signs, by the same daggered
    CHP steps as :func:`heisenberg_columns`; a word flips sign bits that
    depend on this qubit's columns alone.
    """
    xs, zs = [x], [z]
    for name, _ in reversed(word):
        signs = _INVERSE_RULES[name](xs, zs, signs, 0, 0)
    return xs[0], zs[0], signs


def _brick_image(check_columns, pairings, bricks) -> tuple[list[int], list[int], int]:
    """The check columns' image under the brick layers alone, in the Heisenberg picture."""
    xs, zs, signs = check_columns
    xs, zs = list(xs), list(zs)
    for pairs, choices in zip(reversed(pairings), reversed(bricks)):
        for (a, b), choice in zip(pairs, choices):
            if choice != "II":
                name, reverse = _BRICK_GATES[choice]
                signs = _INVERSE_RULES[name](xs, zs, signs, *((b, a) if reverse else (a, b)))
    return xs, zs, signs


def _descent_once(group, pairings, prep, bricks, spend) -> EnergyReport:
    """Sweep prep picks, then bricks, until a sweep improves nothing or the budget runs out.

    ``prep`` and ``bricks`` are edited in place to the picks kept. The
    prep layer is applied first, so in the Heisenberg picture it acts last
    and qubit by qubit on the checks' image under the bricks. The sweep
    keeps that brick image, recomputed only when a brick is tried, and per
    qubit the x column and sign flips of its prep image: a prep move
    recomputes one qubit's entry, a brick move the entries of the qubits
    whose brick columns changed, and the energy reads the OR of the x
    columns and the XOR of the flips. The sweep returns when ``spend``
    first refuses, since from then on every pick would be kept.
    """
    n, n_checks = group.n, len(group.generators)
    check_columns = _check_columns(group)

    def entry(image, q) -> tuple[int, int]:
        x, _, flips = _prep_image(image[0][q], image[1][q], 0, _PREP_WORDS[prep[q]])
        return x, flips

    def read(image, entries) -> EnergyReport:
        flipped, signs = 0, image[2]
        for x, flips in entries:
            flipped |= x
            signs ^= flips
        return _outcome_report(n_checks, flipped, signs & ~flipped)

    spend()
    image = _brick_image(check_columns, pairings, bricks)
    entries = [entry(image, q) for q in range(n)]
    current = read(image, entries)
    improved = True
    while improved:
        improved = False
        for q in range(n):
            keep = prep[q]
            rest, rest_signs = 0, image[2]
            for p, (x, flips) in enumerate(entries):
                if p != q:
                    rest |= x
                    rest_signs ^= flips
            best, best_rep, out = None, current, False
            for letter, sign, word in _SINGLE_STATES:
                if (letter, sign) == keep:
                    continue
                if not spend():
                    out = True
                    break
                x, _, flips = _prep_image(image[0][q], image[1][q], 0, word)
                flipped = rest | x
                rep = _outcome_report(n_checks, flipped, (rest_signs ^ flips) & ~flipped)
                if rep.total < best_rep.total - 1e-12:
                    best, best_rep = ((letter, sign), (x, flips)), rep
            if best is not None:
                prep[q], entries[q] = best
                current = best_rep
                improved = True
            if out:
                return current
        for layer_choices in bricks:
            for slot_idx in range(len(layer_choices)):
                keep = layer_choices[slot_idx]
                best, best_rep, out = None, current, False
                for choice in _BRICK_CHOICES:
                    if choice == keep:
                        continue
                    if not spend():
                        out = True
                        break
                    layer_choices[slot_idx] = choice
                    tried = _brick_image(check_columns, pairings, bricks)
                    tried_entries = [
                        old if tried[0][q] == image[0][q] and tried[1][q] == image[1][q] else entry(tried, q)
                        for q, old in enumerate(entries)
                    ]
                    rep = read(tried, tried_entries)
                    if rep.total < best_rep.total - 1e-12:
                        best, best_rep = (choice, tried, tried_entries), rep
                if best is None:
                    layer_choices[slot_idx] = keep
                else:
                    layer_choices[slot_idx], image, entries = best
                    current = best_rep
                    improved = True
                if out:
                    return current
    return current


def _coordinate_descent(group, t: int, budget: int, seed: int):
    """Budget-capped sweeps; warm start at |0^n>, then seeded random restarts."""
    n = group.n
    pairings = []
    for layer_idx in range(t):
        start = layer_idx % 2
        pairings.append([(a, a + 1) for a in range(start, n - 1, 2)])
    evals = 0

    def spend() -> bool:
        """Count one energy evaluation, or refuse once the budget is spent."""
        nonlocal evals
        if evals == budget:
            return False
        evals += 1
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

    pauli-products ignores the budget (the family is searched once and
    does not grow with depth; past its node budget the records say that
    their energy is an upper bound). random-clifford scores budget trials per
    depth, with per-trial seeds derived from (seed, t, trial), straight
    from their random draws (``draw_clifford_words``), a block of trials
    per numpy pass of ``heisenberg_draw_batch``; the first trial with the
    least total wins, and only its circuit is built. At depth 0 every trial
    is the empty circuit, so one is scored. The record keeps the winning
    trial's seed, so it reproduces from (strategy, t, seed) as
    ``random_low_depth(n, t, seed=seed)``.
    coordinate-descent sweeps from |0^n> (every prep |0>, every brick the
    identity) and spends what is left of the budget on restarts from
    seeded random preps and bricks. Single-qubit layers do not count
    toward t. Every energy is read in the Heisenberg picture, no state is
    built. A prep move recomputes one qubit's prep image and a brick move
    the image under the bricks, and only each depth's winner becomes a
    circuit.
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
        best, assignment, exact = product_state_minimum(group)
        circuit = product_prep_circuit(assignment, group.n)
        rep = _energy_of_circuit(circuit, group)
        assert abs(rep.total - best) < 1e-9
        for t in range(t_max + 1):
            records.append(FrontierRecord(t, strategy, seed, rep, circuit, product_bound=not exact))
        return records

    if strategy == "random-clifford":
        return [_random_clifford_depth(group, t, budget, seed) for t in range(t_max + 1)]

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
            merged.append(replace(best, t=t))
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
