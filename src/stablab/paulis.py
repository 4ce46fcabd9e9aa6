"""Hermitian Pauli operators and stabilizer groups in the symplectic picture.

An n-qubit Pauli is stored as ``sign * (tensor of I/X/Y/Z letters)`` with the
letters packed into two n-bit integers: bit q of ``x`` is set when the letter
at qubit q contains X, bit q of ``z`` when it contains Z, both bits set
meaning Y. ``sign`` is +1 or -1, so every stored operator is Hermitian.

Products track the i-power of ``X^x Z^z`` reordering exactly, which makes the
sign exact whenever the factors commute -- the only case stabilizer algebra
relies on. For anticommuting factors the product is ±i times a Hermitian
Pauli; the i is dropped and the ± kept, a documented convention rather than a
phase-precise group representation.

Qubit q corresponds to character q of the string form ("XZZXI" acts with X on
qubit 0) and to the q-th factor of the dense kron product, i.e. qubit 0 is
the most significant bit of a computational-basis index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gf2

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

_SINGLE_QUBIT_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, slots=True)
class PauliOperator:
    """sign * tensor of single-qubit letters, letters packed as x/z bit ints."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if not (0 <= self.x <= mask and 0 <= self.z <= mask):
            raise ValueError("x/z bits out of range for n qubits")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        bits = self.x | self.z
        return tuple(q for q in range(self.n) if (bits >> q) & 1)

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    @property
    def vec(self) -> int:
        """The symplectic bit vector x | z << n."""
        return self.x | (self.z << self.n)

    def letter(self, q: int) -> str:
        return _BITS_TO_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)]

    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    def __str__(self) -> str:
        return ("-" if self.sign < 0 else "") + self.letters()

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)


def from_letters(text: str, n: int | None = None) -> PauliOperator:
    """Parse "XZZXI" / "-IXY" into an operator; round-trips with str()."""
    body = text.strip()
    sign = 1
    if body.startswith(("+", "-")):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    if n is not None and len(body) != n:
        raise ValueError(f"expected {n} letters, got {len(body)} in {text!r}")
    if not body:
        raise ValueError("empty Pauli string")
    x = z = 0
    for q, ch in enumerate(body):
        if ch not in _LETTER_TO_BITS:
            raise ValueError(f"bad letter {ch!r} at position {q} in {text!r}")
        xb, zb = _LETTER_TO_BITS[ch]
        x |= xb << q
        z |= zb << q
    return PauliOperator(len(body), x, z, sign)


def _parity(v: int) -> int:
    return v.bit_count() & 1


def symplectic_product(p: PauliOperator, q: PauliOperator) -> int:
    """1 when the operators anticommute, 0 when they commute."""
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return not ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Hermitian product representative.

    Exact (matrix-level) result when p and q commute. When they anticommute
    the true product is ±i times the returned operator; the returned sign is
    the ± and the i is dropped.
    """
    if p.n != q.n:
        raise ValueError("qubit counts differ")
    xr = p.x ^ q.x
    zr = p.z ^ q.z
    # p*q = s_p s_q i^e H(xr, zr) with H the +1 Hermitian representative
    e = (p.y_count + q.y_count - (xr & zr).bit_count() + 2 * (p.z & q.x).bit_count()) % 4
    sign = p.sign * q.sign * (1 if e in (0, 1) else -1)
    return PauliOperator(p.n, xr, zr, sign)


def dense_matrix(p: PauliOperator) -> np.ndarray:
    """2^n x 2^n matrix, qubit 0 as the leftmost kron factor."""
    mat = np.array([[float(p.sign)]], dtype=complex)
    for q in range(p.n):
        mat = np.kron(mat, _SINGLE_QUBIT_MATS[p.letter(q)])
    return mat


def embed_pauli(p: PauliOperator, m: int, wires) -> PauliOperator:
    """Re-house the operator on m qubits, sending local qubit q to wires[q]."""
    wires = tuple(int(w) for w in wires)
    if len(wires) != p.n or len(set(wires)) != len(wires):
        raise ValueError(f"need {p.n} distinct wires, got {wires}")
    if any(not 0 <= w < m for w in wires):
        raise ValueError(f"wires {wires} outside [0, {m})")
    return PauliOperator(m, scatter(p.x, wires), scatter(p.z, wires), p.sign)


def gather(v: int, wires) -> int:
    """The int whose bit j is bit wires[j] of v."""
    out = 0
    for j, w in enumerate(wires):
        out |= ((v >> w) & 1) << j
    return out


def scatter(v: int, wires) -> int:
    """The int whose bit wires[j] is bit j of v: gather's inverse on those wires."""
    out = 0
    for j, w in enumerate(wires):
        out |= ((v >> j) & 1) << w
    return out


def check_region(n: int, region) -> tuple[int, ...]:
    """The region as a tuple; ValueError unless it is distinct wires in [0, n)."""
    region = tuple(region)
    if len(set(region)) != len(region) or any(not 0 <= q < n for q in region):
        raise ValueError(f"region {region} must be distinct wires in [0, {n})")
    return region


def outside_mask(n: int, region) -> int:
    """The x and z bits of every qubit outside the region, as a mask on ``vec``.

    ``p.vec & outside_mask(n, region) == 0`` exactly when p acts as the
    identity off the region. Raises ValueError unless the region is distinct
    wires in [0, n).
    """
    region = check_region(n, region)
    inside = scatter((1 << len(region)) - 1, region)
    return ~(inside | inside << n)


# --- symplectic bit-vector helpers (v = x | z << n) ---


def _vec_to_pauli(v: int, n: int, sign: int = 1) -> PauliOperator:
    mask = (1 << n) - 1
    return PauliOperator(n, v & mask, v >> n, sign)


def _omega(u: int, w: int, n: int) -> int:
    mask = (1 << n) - 1
    return _parity((u & mask) & (w >> n)) ^ _parity((u >> n) & (w & mask))


def combine(n: int, ops, combo: int) -> PauliOperator:
    """Product of ops[i] over the set bits i of combo, ascending.

    The same sign as chaining :func:`multiply` from the identity, computed on
    the bit ints with one operator built at the end; exact when the picked
    operators commute pairwise.
    """
    x = z = 0
    sign = 1
    while combo:
        low = combo & -combo
        combo ^= low
        op = ops[low.bit_length() - 1]
        xr, zr = x ^ op.x, z ^ op.z
        e = (x & z).bit_count() + (op.x & op.z).bit_count() - (xr & zr).bit_count()
        e += 2 * (z & op.x).bit_count()
        sign *= -op.sign if e % 4 >= 2 else op.sign
        x, z = xr, zr
    return PauliOperator(n, x, z, sign)


class StabilizerGroup:
    """A commuting set of Hermitian Pauli generators, -identity excluded.

    Generators may be dependent (families that retain redundant checks are
    allowed); rank bookkeeping uses the GF(2) row space. Instances are
    immutable: nothing changes ``n`` or ``generators`` after construction.
    That makes it safe to compute derived data once, lazily at first use,
    and keep it on the instance (see :meth:`derived`); ``logical_pairs``,
    ``qubit_columns`` and ``codes.code_parameters`` are cached this way.
    """

    def __init__(self, generators: tuple[PauliOperator, ...] | list[PauliOperator], n: int | None = None):
        generators = tuple(generators)
        if not generators and n is None:
            raise ValueError("need at least one generator (or an explicit n)")
        if n is None:
            n = generators[0].n
        if any(g.n != n for g in generators):
            raise ValueError("generators act on different qubit counts")
        for i, gi in enumerate(generators):
            for gj in generators[i + 1 :]:
                if not commutes(gi, gj):
                    raise ValueError(f"generators {gi} and {gj} anticommute")
        self.n = n
        self.generators = generators
        self._reducer = gf2.Reducer()
        self.independent_generators = tuple(g for g in generators if self._reducer.add(g.vec))
        self._derived: dict = {}
        self._check_no_negative_identity()

    def _check_no_negative_identity(self):
        # each dependency is a generator subset whose letters multiply to
        # identity; its exact sign must be +1
        for combo in self._reducer.dependencies:
            if combine(self.n, self.generators, combo).sign != 1:
                raise ValueError("-identity is generated: dependent product has sign -1")

    def derived(self, key, compute):
        """``compute()``, memoized on this group under ``key``."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def rank(self) -> int:
        return self._reducer.rank

    @property
    def n_logical(self) -> int:
        return self.n - self.rank

    def syndrome_of(self, p: PauliOperator) -> tuple[int, ...]:
        """Anticommutation bit against each generator, in generator order."""
        return tuple(symplectic_product(g, p) for g in self.generators)

    @property
    def locality(self) -> int:
        """max(check weight, qubit degree): the interaction locality bound."""
        if not self.generators:
            return 0
        max_weight = max(g.weight for g in self.generators)
        degree = [0] * self.n
        for g in self.generators:
            for q in g.support:
                degree[q] += 1
        return max(max_weight, max(degree))


@dataclass(frozen=True)
class LogicalPair:
    """Anticommuting pair acting on one encoded qubit; commutes with the rest."""

    xbar: PauliOperator
    zbar: PauliOperator


def logical_pairs(group: StabilizerGroup) -> tuple[LogicalPair, ...]:
    """Symplectic Gram-Schmidt pairing of the centralizer modulo the group.

    Deterministic for a fixed generator order. Each representative is
    replaced by the minimum (weight, int) element of its coset modulo the
    stabilizer group (:func:`_min_weight_coset_rep`: exhaustive, in numpy
    blocks, while the group span has at most 2^22 elements, greedy descent
    otherwise); this preserves all pairings. Computed once per group; later
    calls return the same tuple.
    """
    return group.derived("logical_pairs", lambda: _logical_pairs(group))


def _logical_pairs(group: StabilizerGroup) -> tuple[LogicalPair, ...]:
    n = group.n
    # kernel of the symplectic form against every generator: a generator's z
    # bits meet v's x bits and its x bits meet v's z bits
    kernel = gf2.kernel([g.z | (g.x << n) for g in group.generators], 2 * n)
    reducer = gf2.Reducer(g.vec for g in group.generators)
    reps: list[int] = []
    for v in kernel:
        res = reducer.reduce(v)
        if res and reducer.add(res):
            reps.append(res)
    if len(reps) != 2 * group.n_logical:
        raise AssertionError("centralizer quotient dimension mismatch")

    pairs: list[tuple[int, int]] = []
    vecs = reps[:]
    while vecs:
        a = vecs.pop(0)
        partner = next((i for i, w in enumerate(vecs) if _omega(a, w, n)), None)
        if partner is None:
            raise AssertionError("symplectic pairing failed: isolated vector")
        b = vecs.pop(partner)
        vecs = [w ^ (a if _omega(w, b, n) else 0) ^ (b if _omega(w, a, n) else 0) for w in vecs]
        pairs.append((a, b))

    out = []
    for a, b in pairs:
        a = _min_weight_coset_rep(a, group)
        b = _min_weight_coset_rep(b, group)
        pa, pb = _vec_to_pauli(a, n), _vec_to_pauli(b, n)
        # prefer the X-type representative in the xbar slot when one side is
        # pure-Z and the other is not (CSS codes read naturally then)
        if pa.x == 0 and pb.x != 0:
            pa, pb = pb, pa
        out.append(LogicalPair(xbar=pa, zbar=pb))
    return tuple(out)


# largest group span the coset search walks exhaustively
_COSET_SPAN_LIMIT = 1 << 22
# rows listed at once, as one numpy block, by the exhaustive coset walk
_COSET_BLOCK_ROWS = 12


def _words(u: int, n_words: int) -> np.ndarray:
    """u as n_words little-endian uint64 words."""
    return np.frombuffer(u.to_bytes(8 * n_words, "little"), dtype="<u8")


def _min_weight_coset_rep(v: int, group: StabilizerGroup) -> int:
    """Minimum (weight, int) element of v * (group span).

    Exhaustive while the span has at most ``_COSET_SPAN_LIMIT`` elements:
    the first ``_COSET_BLOCK_ROWS`` rows span a block, listed once by
    XOR-doubling as arrays of 64-bit x and z words, and a Gray-code walk over
    the other rows shifts the whole block by one row per step. Weights are
    ``np.bitwise_count`` of x | z; the few entries of least weight are
    rebuilt as ints and compared as ints, so any n works. No span outlives
    the call. Greedy descent over the rows for larger groups.
    """
    # leading bit descending: the greedy fallback's order
    rows = [row for _, row in sorted(group._reducer.rows, reverse=True)]
    n = group.n
    mask = (1 << n) - 1
    if (1 << len(rows)) <= _COSET_SPAN_LIMIT:
        block, outer = rows[:_COSET_BLOCK_ROWS], rows[_COSET_BLOCK_ROWS:]
        n_words = (n + 63) // 64
        xs = np.zeros((1, n_words), dtype=np.uint64)
        zs = xs
        for row in block:
            xs = np.concatenate([xs, xs ^ _words(row & mask, n_words)])
            zs = np.concatenate([zs, zs ^ _words(row >> n, n_words)])

        def entry(i: int) -> int:
            out = 0
            for j, row in enumerate(block):
                if (i >> j) & 1:
                    out ^= row
            return out

        best, best_w = v, n + 1  # heavier than any Pauli on n qubits
        cur = v
        for counter in range(1 << len(outer)):
            if counter:
                cur ^= outer[(counter & -counter).bit_length() - 1]
            shifted = (xs ^ _words(cur & mask, n_words)) | (zs ^ _words(cur >> n, n_words))
            weights = np.bitwise_count(shifted).sum(axis=1)
            w = int(weights.min())
            if w <= best_w:
                least = min(cur ^ entry(int(i)) for i in np.flatnonzero(weights == w))
                if w < best_w or least < best:
                    best, best_w = least, w
        return best

    def wt(u: int) -> int:
        return ((u & mask) | (u >> n)).bit_count()

    # greedy descent fallback for very large groups
    best, best_w = v, wt(v)
    improved = True
    while improved:
        improved = False
        for row in rows:
            cand = best ^ row
            if wt(cand) < best_w:
                best, best_w = cand, wt(cand)
                improved = True
    return best


@dataclass(frozen=True, slots=True)
class QubitColumns:
    """One anticommutation column per single-qubit Pauli of a code.

    Bit i of ``x[q]`` (``z[q]``) is set when check i anticommutes with X_q
    (Z_q); above the N checks, bits N + 2j and N + 2j + 1 are set when it
    anticommutes with Xbar_j and Zbar_j of :func:`logical_pairs`. A Pauli's
    column is the XOR of its letters' columns, Y being X ^ Z, and
    ``check_mask`` keeps the check bits: the Pauli is a nontrivial logical
    exactly when those are 0 and its column is not.
    """

    x: tuple[int, ...]
    z: tuple[int, ...]
    check_mask: int


def qubit_columns(group: StabilizerGroup) -> QubitColumns:
    """The group's :class:`QubitColumns`, computed once per group at first use."""
    return group.derived("qubit_columns", lambda: _qubit_columns(group))


def _qubit_columns(group: StabilizerGroup) -> QubitColumns:
    ops = list(group.generators)
    for pair in logical_pairs(group):
        ops += [pair.xbar, pair.zbar]
    # X_q anticommutes with the operators holding Z on q, Z_q with those holding X
    return QubitColumns(
        x=tuple(gf2.transpose([op.z for op in ops], group.n)),
        z=tuple(gf2.transpose([op.x for op in ops], group.n)),
        check_mask=(1 << len(group.generators)) - 1,
    )


def _logicals_by_weight(group: StabilizerGroup, cap: int):
    """Paulis commuting with every generator but outside the group, weight <= cap.

    Yields (x, z, w, logical) weight-ascending in a fixed order: weight, then
    support combination (lexicographic), then letters (X < Y < Z at each
    position, the last qubit's letter changing fastest). Each candidate is
    the XOR of its letters' :func:`qubit_columns`; x and z are built only for
    the logicals, and ``logical`` is the column's logical bits (bit 2j:
    anticommutes with Xbar_j, bit 2j + 1: with Zbar_j).
    """
    table = qubit_columns(group)
    check_mask = table.check_mask
    n_checks = check_mask.bit_length()
    letters = [(table.x[q], table.x[q] ^ table.z[q], table.z[q]) for q in range(group.n)]
    for w in range(1, cap + 1):
        for supp in itertools.combinations(range(group.n), w):
            cols = [0]
            for q in supp:
                cols = [c ^ o for c in cols for o in letters[q]]
            for i, c in enumerate(cols):
                if c and not c & check_mask:
                    x = z = 0
                    for q in reversed(supp):
                        i, letter = divmod(i, 3)
                        x |= (letter < 2) << q
                        z |= (letter > 0) << q
                    yield x, z, w, c >> n_checks


def min_weight_logical(group: StabilizerGroup, cap: int = 4) -> PauliOperator | None:
    """Lightest Pauli commuting with every generator but outside the group.

    Searches weight-ascending with early exit; returns None when the code has
    no logical qubits or no logical operator of weight <= cap exists.
    """
    if group.n_logical == 0:
        return None
    for x, z, _, _ in _logicals_by_weight(group, cap):
        return PauliOperator(group.n, x, z, 1)
    return None


@dataclass(frozen=True)
class BestDistanceReport:
    """Per-pair distance figures used by the uncertainty-based bounds.

    d_prime: over the chosen pair, minimum weight of a logical operator whose
    action on that encoded qubit is nontrivial (anticommutes with xbar or
    zbar). w: max(|xbar|, |zbar|) of the chosen pair. The chosen pair
    maximizes d_prime.
    """

    pair_index: int
    d_prime: int
    w: int
    witness: PauliOperator


# weight cap of the per-pair distance search
BEST_DISTANCE_CAP = 6


def best_distance(group: StabilizerGroup) -> BestDistanceReport | None:
    """Best (largest) single-pair distance over the code's logical pairs.

    One weight-ascending walk over the logicals: each pair's d_prime is the
    weight of the first one that anticommutes with its xbar or zbar, up to
    BEST_DISTANCE_CAP. Ties go to the lowest pair index; a pair with no such
    logical under the cap is skipped.
    """
    pairs = logical_pairs(group)
    hits: dict[int, tuple[int, int, int]] = {}
    for x, z, w, logical in _logicals_by_weight(group, BEST_DISTANCE_CAP):
        for idx in range(len(pairs)):
            if idx not in hits and (logical >> 2 * idx) & 3:
                hits[idx] = (w, x, z)
        if len(hits) == len(pairs):
            break
    best: BestDistanceReport | None = None
    for idx in sorted(hits):
        w, x, z = hits[idx]
        if best is None or w > best.d_prime:
            w_pair = max(pairs[idx].xbar.weight, pairs[idx].zbar.weight)
            best = BestDistanceReport(idx, w, w_pair, PauliOperator(group.n, x, z, 1))
    return best
