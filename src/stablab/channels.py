"""The logical depolarizing channel, encoded mixed states, entropy audits.

The channel averages over all 4^k logical Pauli frames,

    E(rho) = 4^-k sum_{a,b} (Xbar^a Zbar^b) rho (Zbar^b Xbar^a),

which wipes out every logical degree of freedom while acting trivially on
syndrome information and on any region smaller than the distance. Given the
code's logical pairs, :func:`logical_depolarize` applies it as
``states.dephase`` over the 2k operators Xbar_i, Zbar_i: dense states take
one conjugation per operator; stabilizer mixtures get the exact algebraic
answer: expanding the mixture over its 2^r signed members, the channel kills
every member that anticommutes with some logical and keeps the rest, so
E(rho) is the uniform mixture over the commutant subgroup. Recording the
syndrome classically is the same kind of channel (dephasing each register
wire by Z), so the encoded state Theta of the entropy audit is one state on
n + N wires, a mixture whenever its input is.

A region below the distance carries none of that logical information. The
invariance suite decides so by the cleaning-lemma rank test on the region's
own 2|R| single-qubit columns (``paulis.qubit_columns``, one table per
code), with no state or matrix built.
"""

from __future__ import annotations

from . import gf2
from .codes import as_group, code_parameters
from .paulis import PauliOperator, StabilizerGroup, check_region, embed_pauli, logical_pairs, qubit_columns
from .states import apply_circuit, dephase, entropy, marginal, num_qubits
from .circuits import LayeredCircuit, reverse_circuit
from .syndrome import coherent_extension


def _logicals(pairs, m: int) -> list[PauliOperator]:
    """Xbar_1..Xbar_k, Zbar_1..Zbar_k, embedded on the first n of m wires."""
    ops = [p.xbar for p in pairs] + [p.zbar for p in pairs]
    return [embed_pauli(p, m, range(p.n)) for p in ops]


def logical_depolarize(state, pairs):
    """Apply the channel of the logical pairs; mixtures stay mixtures, dense input returns a matrix.

    The 4^k frames are the products of Xbar_1..Xbar_k, Zbar_1..Zbar_k, so the
    channel is :func:`dephase` over those 2k operators. States wider than the
    code are fine: the logicals act on the first n wires and the rest ride
    along (the channel tensored with identity).
    """
    return dephase(state, _logicals(pairs, num_qubits(state)))


def encoded_state(phi, group: StabilizerGroup):
    """Theta = sum_s p_s E(rho_s) (x) |s><s| on n + N wires, as one state.

    rho_s is the post-measurement state of syndrome s and E the logical
    depolarizing channel. The coherent extension writes each syndrome on the
    register; dephasing by Z on every register wire makes that record
    classical, and dephasing by every logical applies E on each branch at
    once. A stabilizer mixture gives a mixture; a state vector gives a
    density matrix, under the dense limit on n + N qubits.
    """
    group = as_group(group)
    m = group.n + len(group.generators)
    register = [PauliOperator(m, 0, 1 << q) for q in range(group.n, m)]
    return dephase(coherent_extension(phi, group), register + _logicals(logical_pairs(group), m))


def entropy_audit(phi, group: StabilizerGroup, w: LayeredCircuit) -> dict:
    """k <= S(Theta) <= sum_j S(single-qubit marginals of W^dag Theta W).

    Theta is :func:`encoded_state` of phi. The rate bound holds by the
    channel's entropy floor on each syndrome branch; the second step is
    subadditivity after the (entropy-preserving) rotation. Both are
    asserted, all three numbers reported. ``states.apply_circuit`` rotates
    a mixture Theta on the tableau when W is Clifford, densely otherwise.
    """
    group = as_group(group)
    m = group.n + len(group.generators)
    if w.m != m:
        raise ValueError(f"circuit acts on {w.m} wires, state has {m}")
    theta = encoded_state(phi, group)
    wdag = reverse_circuit(w)
    rotated = apply_circuit(theta, wdag)

    k = len(logical_pairs(group))
    total = entropy(theta)
    per_qubit_sum = float(sum(entropy(marginal(rotated, (j,))) for j in range(m)))
    assert k <= total + 1e-9
    assert total <= per_qubit_sum + 1e-9
    return {"k": k, "S_Theta": total, "per_qubit_sum": per_qubit_sum}


# --- invariance suite ---


def _region_is_correctable(group: StabilizerGroup, region) -> bool:
    """Cleaning-lemma test: True when no nontrivial logical is supported on the region.

    A Pauli P on region R is a nontrivial logical exactly when its check
    bits are zero and its logical bits are not (:func:`qubit_columns`). So
    R holds none exactly when the 2|R| single-qubit columns of R have as
    many dependencies with their logical bits as without them: every
    combination that commutes with all checks then commutes with every
    logical too, so it is a stabilizer (Bravyi-Terhal, arXiv 0810.1983).
    Raises ValueError unless the region is distinct wires of the code.
    """
    table = qubit_columns(group)
    cols = [c for q in check_region(group.n, region) for c in (table.x[q], table.z[q])]
    return len(gf2.dependencies(cols)) == len(gf2.dependencies([c & table.check_mask for c in cols]))


def marginal_invariance_suite(code, region) -> dict:
    """Distance-protected regions carry no information: three checks at 1e-10.

    (a) every code state has the same marginal on the region;
    (b) conjugating any syndrome-sector state by a logical leaves its
        marginal untouched;
    (c) the depolarizing channel leaves marginals on the region untouched.

    The family is the 2^(k+1) logical-basis states, and the region must be
    smaller than the code distance. Such a region holds no nontrivial
    logical, which :func:`_region_is_correctable` confirms by GF(2) rank.
    Every state involved is an eigenstate of each stabilizer, so each member
    supported on the region is a stabilizer with the same sign in every
    state, conjugate and channel image: all three deviations are exactly
    0.0. A rank test that finds a logical below the distance contradicts the
    distance search, an internal error. The dense family checks are the
    test suite's oracle.
    """
    group = as_group(code)
    region = tuple(sorted(int(q) for q in region))
    distance = code_parameters(group).d
    if distance is None:
        raise ValueError("distance unknown")
    if len(region) >= distance:
        raise ValueError(f"region size {len(region)} not below distance {distance}")

    assert _region_is_correctable(group, region), f"region {region} holds a logical below distance {distance}"
    return {
        "region": list(region),
        "distance": int(distance),
        "n_states": 2 << group.n_logical,
        "code_states_share_marginal": True,
        "logical_conjugation_invariant": True,
        "channel_preserves_marginal": True,
        "max_deviation": 0.0,
        "passed": True,
    }
