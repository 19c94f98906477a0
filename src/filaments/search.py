"""Exhaustive scans over rule spaces.

Two searches live here. ``search_type_a`` sweeps all 2**18 fully
specified two-state radius-1 rules, keeps the interesting ones
(non-oblivious, strongly connected state graph, minimum out-degree above
one), and hunts for sustained cycles in which at most ``k_a`` cells change
per step. ``hunt_viable_3state`` sweeps a parametric family of symmetric
three-state rules and keeps those whose liveness behaves like a
length-invariant Markov chain under single-cell accretion with a
stationary live proportion strictly between 0 and 1.

The two-state scan is exact and vectorized. A rule is 18 bits, one bit
per (current state, left code, right code) with codes 0 and 1 for real
states and 2 for the empty boundary; bit position c*9 + l*3 + r holds the
successor. Positions 8 and 17 are the (empty, empty) neighborhoods, which
only a length-1 filament ever presents, so for dynamics at length 2 and
up rules collapse into 2**16 equivalence classes ("fingerprints"). The
scan simulates each fingerprint once over every initial state. Successor
tables come from per-length tables over the 256 values of each
fingerprint byte, split at the middle of the filament so that they stay
small at every length. Pointer doubling over flat indices (Wyllie's list
ranking) then walks every state 2**n steps in n rounds, which classifies
every state's cycle without bounding the transient by simulation length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import ANY, EMPTY, Rule, RuleEntry
from .engine import all_states_matrix

__all__ = [
    "HuntCandidate",
    "HuntResult",
    "SearchVerdict",
    "SearchWitness",
    "SweepParams",
    "enumerate_sweep_params",
    "fingerprint16",
    "hunt_viable_3state",
    "interesting_mask",
    "rule_from_index",
    "rule_index",
    "search_type_a",
    "sweep_rule",
    "write_rule_audit_csv",
]

RULE_SPACE_BITS = 18
RULE_SPACE_SIZE = 1 << RULE_SPACE_BITS

# Largest length the scan will materialize full successor tables for.
_MAX_TABLE_LENGTH = 22


def rule_from_index(index: int, validate: bool = True) -> Rule:
    """The two-state radius-1 rule encoded by an 18-bit index."""
    if not 0 <= index < RULE_SPACE_SIZE:
        raise ValueError(f"rule index must be in [0, {RULE_SPACE_SIZE})")
    tokens = (0, 1, EMPTY)
    entries = []
    for c in range(2):
        for l in range(3):
            for r in range(3):
                bit = (index >> (c * 9 + l * 3 + r)) & 1
                entries.append(RuleEntry(c, (tokens[l],), (tokens[r],), bit))
    return Rule(
        name=f"rule-{index}",
        num_states=2,
        radius=1,
        symmetric=False,
        entries=tuple(entries),
        validate=validate,
    )


def rule_index(rule: Rule) -> int:
    """Inverse of rule_from_index for any two-state radius-1 rule."""
    if rule.num_states != 2 or rule.radius != 1:
        raise ValueError("only two-state radius-1 rules have an index")
    table = rule.lookup_table
    index = 0
    for c in range(2):
        for l in range(3):
            for r in range(3):
                index |= int(table[c, l, r]) << (c * 9 + l * 3 + r)
    return index


def _row_split(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows0 = indices & 0x1FF
    rows1 = (indices >> 9) & 0x1FF
    return rows0, rows1


def interesting_mask() -> np.ndarray:
    """Boolean mask over all 2**18 indices of the interesting rules.

    With two states, a state's successor set is the set of bits in its
    9-entry row, so a row is oblivious exactly when constant. Both rows
    non-constant already forces min out-degree 2 and mutual reachability,
    so interestingness reduces to neither row being all-0 or all-1.
    """
    indices = np.arange(RULE_SPACE_SIZE, dtype=np.uint32)
    rows0, rows1 = _row_split(indices)
    const0 = (rows0 == 0) | (rows0 == 0x1FF)
    const1 = (rows1 == 0) | (rows1 == 0x1FF)
    return ~(const0 | const1)


def fingerprint16(indices: np.ndarray) -> np.ndarray:
    """Collapse indices to the 16 bits that matter at length 2 and up."""
    indices = np.asarray(indices, dtype=np.uint32)
    return ((indices & 0xFF) | ((indices >> 1) & 0xFF00)).astype(np.uint16)


def write_rule_audit_csv(fp: IO[str]) -> None:
    """One classification row for every rule index in the space."""
    indices = np.arange(RULE_SPACE_SIZE, dtype=np.uint32)
    rows0, rows1 = _row_split(indices)
    interesting = interesting_mask()
    strongly_connected = (rows0 != 0) & (rows1 != 0x1FF)
    fp.write(
        "index,row0,row1,oblivious,strongly_connected,min_out_degree,"
        "interesting,fingerprint\n"
    )
    data = np.column_stack(
        [
            indices,
            rows0,
            rows1,
            (~interesting).astype(np.uint8),
            strongly_connected.astype(np.uint8),
            np.where(interesting, 2, 1),
            interesting.astype(np.uint8),
            fingerprint16(indices),
        ]
    )
    np.savetxt(fp, data, fmt="%d", delimiter=",")


@dataclass(frozen=True, slots=True)
class SearchWitness:
    """One rule caught sustaining a small-change cycle.

    ``initial`` is a cycle state (transient 0 by construction).
    ``travelling`` is True when the cells that ever change along the
    cycle span more than k_a positions, i.e. the activity is not pinned
    to one spot; ``sweeping`` is the strict form, where every cell of
    the filament changes at some step of the cycle, the signature of a
    wave that traverses end to end.
    """

    rule_index: int
    n: int
    initial: str
    period: int
    k_max: int
    travelling: bool
    sweeping: bool


@dataclass(frozen=True)
class SearchVerdict:
    lengths: tuple[int, ...]
    k_a: int
    budget: int
    sample_size: int
    seed: int
    coverage: tuple[tuple[int, str], ...]
    rules_total: int
    rules_interesting: int
    fingerprints_simulated: int
    rules_with_type_a_cycle: int
    rules_with_travelling_type_a_cycle: int
    rules_with_sweeping_type_a_cycle: int
    witnesses: tuple[SearchWitness, ...]
    complete: bool

    def report(self, max_witness_lines: int = 20) -> str:
        lines = [
            "two-state radius-1 rule scan",
            f"lengths: {' '.join(map(str, self.lengths))}",
            "coverage: "
            + " ".join(f"{n}={kind}" for n, kind in self.coverage),
            f"k_a: {self.k_a}",
            f"budget: {self.budget}",
            f"seed: {self.seed}",
            f"rules_total: {self.rules_total}",
            f"rules_interesting: {self.rules_interesting}",
            f"fingerprints_simulated: {self.fingerprints_simulated}",
            f"rules_with_type_a_cycle: {self.rules_with_type_a_cycle}",
            f"rules_with_travelling_type_a_cycle: {self.rules_with_travelling_type_a_cycle}",
            f"rules_with_sweeping_type_a_cycle: {self.rules_with_sweeping_type_a_cycle}",
            f"complete: {str(self.complete).lower()}",
            f"witnesses: {len(self.witnesses)}",
        ]
        for w in self.witnesses[:max_witness_lines]:
            kind = "sweeping" if w.sweeping else (
                "travelling" if w.travelling else "stationary"
            )
            lines.append(
                f"  rule {w.rule_index} n={w.n} initial {w.initial} "
                f"period {w.period} k_max {w.k_max} {kind}"
            )
        if len(self.witnesses) > max_witness_lines:
            lines.append(f"  ... {len(self.witnesses) - max_witness_lines} more")
        return "\n".join(lines) + "\n"


# States per doubling chunk: 512 KB per int64 working array, so the gathers stay in cache.
_CHUNK_CELLS = 1 << 16


@cache
def _byte_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Successor bits of each half of a length-n state under every fingerprint byte.

    The first n//2 cells (head) and the rest (tail) each see one cell of the
    other half, so each half's successor is a function of a window one cell
    wider. (head, tail)[c, b, w] holds the bits that the half's cells in
    state c take in window w under fingerprint byte b.
    """
    head = n // 2
    tables = []
    for width, cols in ((head + 1, range(head)), (n - head + 1, range(1, n - head + 1))):
        cells = all_states_matrix(2, width)
        padded = np.pad(cells, ((0, 0), (1, 1)), constant_values=2)
        code = padded[:, :-2] * 3 + padded[:, 2:]
        table = np.zeros((2, 256, 1 << width), dtype=np.uint16)
        byte = np.arange(256, dtype=np.uint16)[:, None]
        for shift, col in enumerate(reversed(cols)):
            bit = ((byte >> code[:, col]) & 1) << shift
            for c in range(2):
                table[c] |= bit * (cells[:, col] == c)
        tables.append(table)
    return tables[0], tables[1]


def _successor_table(fps: np.ndarray, n: int) -> np.ndarray:
    """Successor state id of every length-n state under each fingerprint: (len(fps), 2**n).

    A cell in state c reads fingerprint bit c*8 + l*3 + r, so its next bit
    depends on one byte of the fingerprint. The half windows overlap in the
    two middle cells, so the halves meet in a broadcast over (head cells
    but the last, last head cell, first tail cell, tail cells but the first).
    """
    head, tail = _byte_tables(n)
    head_bits, tail_bits = n // 2, n - n // 2
    low, high = fps & 0xFF, fps >> 8
    shape = (len(fps), 1 << (head_bits - 1), 2, 2, 1 << (tail_bits - 1))
    heads = (head[0][low] | head[1][high]).astype(np.int64).reshape(shape[:4] + (1,)) << tail_bits
    tails = (tail[0][low] | tail[1][high]).reshape((len(fps), 1) + shape[2:])
    return (heads | tails).reshape(len(fps), 1 << n)


def _scan_length(
    fps: np.ndarray,
    n: int,
    k_a: int,
    starts: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flag fingerprints with Type-A cycles at one length.

    Returns (has_type_a, has_travelling, has_sweeping, witness_state,
    witness_k_max, witness_sweeping) over the fps array. With ``starts``
    the flags only count cycles reachable from those initial states;
    otherwise coverage is every length-n state.

    Fingerprints go through in chunks of about ``_CHUNK_CELLS`` states.
    Every state of a chunk gets a flat index, row * 2**n + state, so one
    doubling pass is n rounds of 1-D gathers. A per-state word carries the
    cells changed along the walk in its low n bits and, above them, the
    step Hamming weights as thermometer codes, so that one OR per round
    tracks both the union of changed cells and the largest step. After n
    rounds each state's walk has reached its cycle and covered the cycle
    in full; the cycle nodes are the walk's image.
    """
    size = 1 << n
    rows = max(1, _CHUNK_CELLS >> n)
    state_ids = np.arange(size, dtype=np.int64)

    has_ta = np.zeros(len(fps), dtype=bool)
    has_trav = np.zeros(len(fps), dtype=bool)
    has_sweep = np.zeros(len(fps), dtype=bool)
    wit_state = np.full(len(fps), -1, dtype=np.int64)
    wit_kmax = np.zeros(len(fps), dtype=np.int8)
    wit_sweep = np.zeros(len(fps), dtype=bool)

    for start in range(0, len(fps), rows):
        batch = fps[start : start + rows]
        t = _successor_table(batch, n)
        diff = t ^ state_ids
        word = (diff | (((1 << np.bitwise_count(diff).astype(np.int64)) - 1) << n)).ravel()
        walk = (t + (np.arange(len(batch), dtype=np.int64) * size)[:, None]).ravel()
        for _ in range(n):
            word |= word[walk]
            walk = walk[walk]
        on_cycle = np.zeros(len(batch) * size, dtype=bool)
        on_cycle[walk if starts is None else walk.reshape(len(batch), size)[:, starts]] = True
        on_cycle = on_cycle.reshape(len(batch), size)
        word = word.reshape(len(batch), size)
        max_ham = np.bitwise_count(word >> n).astype(np.int8)
        union = word & (size - 1)

        type_a_nodes = on_cycle & (max_ham >= 1) & (max_ham <= k_a)
        # The changed cells span more than k_a positions.
        trav_nodes = type_a_nodes & (union >= (union & -union) << k_a)
        sweep_nodes = type_a_nodes & (np.bitwise_count(union) == n)
        batch_ta = type_a_nodes.any(axis=1)
        batch_trav = trav_nodes.any(axis=1)
        batch_sweep = sweep_nodes.any(axis=1)
        # Prefer a sweeping witness state, then a travelling one.
        pick_from = np.where(
            batch_sweep[:, None],
            sweep_nodes,
            np.where(batch_trav[:, None], trav_nodes, type_a_nodes),
        )
        first = np.argmax(pick_from, axis=1)
        sl = slice(start, start + len(batch))
        has_ta[sl] = batch_ta
        has_trav[sl] = batch_trav
        has_sweep[sl] = batch_sweep
        wit_state[sl] = np.where(batch_ta, first, -1)
        wit_kmax[sl] = np.where(batch_ta, max_ham[np.arange(len(batch)), first], 0)
        wit_sweep[sl] = batch_sweep
    return has_ta, has_trav, has_sweep, wit_state, wit_kmax, wit_sweep


def _witness_periods(fps: np.ndarray, states: np.ndarray, n: int) -> np.ndarray:
    """Cycle periods of one cycle state per fingerprint, walked in lockstep."""
    size = 1 << n
    rows = max(1, _CHUNK_CELLS >> n)
    periods = np.zeros(len(fps), dtype=np.int64)
    for start in range(0, len(fps), rows):
        sl = slice(start, start + rows)
        t = _successor_table(fps[sl], n).ravel()
        home = states[sl]
        base = np.arange(len(home), dtype=np.int64) << n
        cur = t[base + home]
        step = 1
        open_mask = np.ones(len(home), dtype=bool)
        while open_mask.any():
            closed = open_mask & (cur == home)
            periods[sl][closed] = step
            open_mask &= ~closed
            if step > size:
                raise AssertionError("walked past the state count without closing")
            cur[open_mask] = t[base[open_mask] + cur[open_mask]]
            step += 1
    return periods


def search_type_a(
    lengths: Iterable[int] = range(4, 11),
    k_a: int = 2,
    budget: int = 2**14,
    sample_size: int = 4096,
    seed: int = 0,
    rule_indices: Optional[Sequence[int]] = None,
) -> SearchVerdict:
    """Scan interesting two-state radius-1 rules for Type-A cycles.

    Coverage at each length is exhaustive when 2**n fits the budget,
    otherwise a seeded sample of ``sample_size`` initial states.
    ``rule_indices`` restricts the scan to a subset (still filtered to
    interesting rules); by default the whole space is scanned. Lengths
    whose state space cannot be materialized are skipped and make the
    verdict incomplete.
    """
    lengths = tuple(sorted(set(int(n) for n in lengths)))
    if any(n < 2 for n in lengths):
        raise ValueError("scan lengths must be at least 2")
    mask = interesting_mask()
    if rule_indices is not None:
        restricted = np.zeros(RULE_SPACE_SIZE, dtype=bool)
        restricted[np.asarray(rule_indices, dtype=np.int64)] = True
        mask &= restricted
    fps = np.unique(fingerprint16(np.flatnonzero(mask)))

    # Per fingerprint: Type-A, travelling and sweeping at any length, and the
    # witness found at the first length with one (n, state, k_max,
    # travelling, sweeping).
    type_a, travelling, sweeping = np.zeros((3, len(fps)), dtype=bool)
    witness = np.zeros((5, len(fps)), dtype=np.int64)
    coverage = []
    complete = True
    rng = np.random.default_rng(seed)
    for n in lengths:
        if n > _MAX_TABLE_LENGTH:
            coverage.append((n, "skipped"))
            complete = False
            continue
        if (1 << n) <= budget:
            starts = None
            coverage.append((n, "exhaustive"))
        else:
            starts = np.unique(
                rng.integers(0, 1 << n, size=min(sample_size, 1 << n))
            ).astype(np.int64)
            coverage.append((n, "sampled"))
            complete = False
        ta, trav, sweep, state, k_max, w_sweep = _scan_length(fps, n, k_a, starts)
        newly = ta & ~type_a
        witness[:, newly] = np.stack([np.full(len(fps), n), state, k_max, trav, w_sweep])[:, newly]
        # Flags found at later lengths still count, but the stored witness
        # stays the first one.
        type_a |= ta
        travelling |= trav
        sweeping |= sweep

    flagged = np.flatnonzero(type_a)
    wit_n, wit_state, wit_kmax, wit_trav, wit_sweep = witness[:, flagged]
    periods = np.zeros(len(flagged), dtype=np.int64)
    for n in np.unique(wit_n).tolist():
        at_n = wit_n == n
        periods[at_n] = _witness_periods(fps[flagged[at_n]], wit_state[at_n], n)
    # The interesting members of each flagged fingerprint: its four indices
    # differ in bits 8 and 17, the (empty, empty) entries.
    fp = fps[flagged].astype(np.int64)
    members = ((fp & 0xFF) | (fp & 0xFF00) << 1)[:, None] | [0, 1 << 8, 1 << 17, 0x20100]
    owner = np.broadcast_to(np.arange(len(flagged))[:, None], members.shape)[mask[members]]
    members = members[mask[members]]
    order = np.argsort(members)
    members, owner = members[order], owner[order]
    # One tuple of witness fields per fingerprint, shared by its members.
    shared = list(
        zip(
            wit_n.tolist(),
            [format(s, f"0{n}b") for s, n in zip(wit_state.tolist(), wit_n.tolist())],
            periods.tolist(),
            wit_kmax.tolist(),
            wit_trav.astype(bool).tolist(),
            wit_sweep.astype(bool).tolist(),
        )
    )
    block = 1 << 14  # index lists made per block stay small
    witnesses = tuple(
        SearchWitness(index, *shared[i])
        for b in range(0, len(members), block)
        for index, i in zip(members[b : b + block].tolist(), owner[b : b + block].tolist())
    )
    return SearchVerdict(
        lengths=lengths,
        k_a=k_a,
        budget=budget,
        sample_size=sample_size,
        seed=seed,
        coverage=tuple(coverage),
        rules_total=RULE_SPACE_SIZE if rule_indices is None else len(rule_indices),
        rules_interesting=int(mask.sum()),
        fingerprints_simulated=len(fps),
        rules_with_type_a_cycle=len(members),
        rules_with_travelling_type_a_cycle=int(travelling[flagged][owner].sum()),
        rules_with_sweeping_type_a_cycle=int(sweeping[flagged][owner].sum()),
        witnesses=witnesses,
        complete=complete,
    )


# -- three-state sweep family hunt ----------------------------------------------


@dataclass(frozen=True)
class SweepParams:
    """A symmetric three-state rule built from sweep-style transitions.

    Per state c, ``bulk[c]`` of (v, w) adds the interior transition
    "(c, {*, v}) -> w" and ``end[c]`` of (u, z) adds the boundary
    transition "(c, {empty, u}) -> z"; None omits the transition. Both
    target states must differ from c. Everything unlisted holds.
    """

    bulk: tuple[Optional[tuple[int, int]], ...]
    end: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self) -> None:
        if len(self.bulk) != 3 or len(self.end) != 3:
            raise ValueError("bulk and end must have one slot per state")
        for c in range(3):
            for slot in (self.bulk[c], self.end[c]):
                if slot is None:
                    continue
                v, w = slot
                if not (0 <= v < 3 and 0 <= w < 3):
                    raise ValueError("transition states must be in 0..2")
                if w == c:
                    raise ValueError("a listed transition must change the state")


def enumerate_sweep_params() -> Iterator[SweepParams]:
    """All 49**3 sweep parameter combinations."""
    options = []
    for c in range(3):
        slots = [None] + [
            (v, w) for v in range(3) for w in range(3) if w != c
        ]
        options.append(slots)
    for b0, e0, b1, e1, b2, e2 in product(
        options[0], options[0], options[1], options[1], options[2], options[2]
    ):
        yield SweepParams(bulk=(b0, b1, b2), end=(e0, e1, e2))


def _sweep_table(params: SweepParams) -> np.ndarray:
    """Dense (3, 4, 4) next-state table, code 3 for the empty boundary."""
    table = np.empty((3, 4, 4), dtype=np.uint8)
    for c in range(3):
        table[c] = c
        if params.bulk[c] is not None:
            v, w = params.bulk[c]
            table[c, v, 0:3] = w
            table[c, 0:3, v] = w
        if params.end[c] is not None:
            u, z = params.end[c]
            table[c, 3, u] = z
            table[c, u, 3] = z
    return table


def _table_interesting(table: np.ndarray) -> bool:
    succ = [set(table[c].ravel().tolist()) for c in range(3)]
    if any(len(s) == 1 for s in succ):
        return False
    if min(len(s) for s in succ) < 2:
        return False
    adj = [[d in succ[c] for d in range(3)] for c in range(3)]
    for _ in range(3):
        for a in range(3):
            for b in range(3):
                if adj[a][b]:
                    for d in range(3):
                        adj[a][d] = adj[a][d] or adj[b][d]
    return all(adj[a][b] for a in range(3) for b in range(3))


def sweep_rule(params: SweepParams, name: str = "sweep-candidate") -> Rule:
    """Build the symmetric Rule a parameter set denotes."""
    entries = []
    for c in range(3):
        if params.bulk[c] is not None:
            v, w = params.bulk[c]
            entries.append(RuleEntry(c, (ANY,), (v,), w))
        if params.end[c] is not None:
            u, z = params.end[c]
            entries.append(RuleEntry(c, (EMPTY,), (u,), z))
    return Rule(
        name=name,
        num_states=3,
        radius=1,
        symmetric=True,
        entries=tuple(entries),
    )


@dataclass(frozen=True)
class HuntCandidate:
    """A viable rule: its parameters (sweep space only), dense table,
    measured live/dead accretion matrix, and stationary live share."""

    params: Optional[SweepParams]
    table: tuple[tuple[tuple[int, ...], ...], ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    stationary_live: Fraction


@dataclass(frozen=True)
class HuntResult:
    space: str
    ns: tuple[int, ...]
    candidates_total: int
    candidates_interesting: int
    viable: tuple[HuntCandidate, ...]

    def report(self, max_lines: int = 40) -> str:
        lines = [
            "three-state viability hunt",
            f"space: {self.space}",
            f"probe lengths: {' '.join(map(str, self.ns))}",
            f"candidates_total: {self.candidates_total}",
            f"candidates_interesting: {self.candidates_interesting}",
            f"viable: {len(self.viable)}",
        ]
        for cand in self.viable[:max_lines]:
            if cand.params is not None:
                where = f"bulk={cand.params.bulk} end={cand.params.end}"
            else:
                where = f"table={cand.table}"
            lines.append(f"  {where} stationary_live={cand.stationary_live}")
        if len(self.viable) > max_lines:
            lines.append(f"  ... {len(self.viable) - max_lines} more")
        return "\n".join(lines) + "\n"


def _length_context(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    cells = all_states_matrix(3, n)
    left = np.full_like(cells, 3)
    left[:, 1:] = cells[:, :-1]
    right = np.full_like(cells, 3)
    right[:, :-1] = cells[:, 1:]
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return cells, left, right, powers


def _live_mask(table: np.ndarray, ctx) -> np.ndarray:
    """Per-state liveness (eventual period >= 2) via iterated squaring."""
    cells, left, right, powers = ctx
    t = (table[cells, left, right].astype(np.int64) @ powers).astype(np.int64)
    f = t.copy()
    size = len(t)
    steps = 1
    while steps < size:
        f = f[f]
        steps *= 2
    return t[f] != f


def _random_symmetric_table(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random next-state table respecting neighbor symmetry."""
    table = np.empty((3, 4, 4), dtype=np.uint8)
    for c in range(3):
        for a in range(4):
            for b in range(a, 4):
                table[c, a, b] = table[c, b, a] = rng.integers(0, 3)
    return table


def hunt_viable_3state(
    ns: tuple[int, int] = (4, 5),
    candidates: Optional[Iterable[SweepParams]] = None,
    space: str = "sweeps",
    budget: Optional[int] = None,
    seed: int = 0,
) -> HuntResult:
    """Find rules whose liveness chain is length-invariant and mixing.

    For each interesting candidate, measure the 2x2 live/dead accretion
    matrix at each probe length n (appending one uniform cell to every
    length-n state and classifying both). Candidates whose matrices agree
    exactly across the probe lengths and whose stationary live proportion
    lies strictly inside (0, 1) are viable. Counting is integer-exact;
    matrices are exact rationals.

    The default space sweeps all 49**3 parameter combinations (see
    SweepParams). Space "symmetric-sample" instead draws ``budget``
    uniformly random symmetric tables from the full 3**30 symmetric rule
    space, which is far too large to enumerate.
    """
    ns = tuple(sorted(set(int(n) for n in ns)))
    if len(ns) < 2:
        raise ValueError("need at least two probe lengths")
    if any(n < 2 for n in ns):
        raise ValueError("probe lengths must be at least 2")
    if space == "sweeps":
        params_pool = (
            list(candidates) if candidates is not None else list(
                enumerate_sweep_params()
            )
        )
        pool = [(p, _sweep_table(p)) for p in params_pool]
    elif space == "symmetric-sample":
        if candidates is not None:
            raise ValueError("explicit candidates only apply to the sweeps space")
        if budget is None or budget < 1:
            raise ValueError("the sampled symmetric space needs a positive budget")
        rng = np.random.default_rng(seed)
        pool = [(None, _random_symmetric_table(rng)) for _ in range(budget)]
    else:
        raise ValueError(f"unknown space {space!r}")
    needed = sorted(set(ns) | {n + 1 for n in ns})
    contexts = {n: _length_context(n) for n in needed}

    viable = []
    interesting_count = 0
    for params, table in pool:
        if not _table_interesting(table):
            continue
        interesting_count += 1
        live = {n: _live_mask(table, contexts[n]) for n in needed}
        counts = {}
        degenerate = False
        for n in ns:
            src = np.repeat(live[n], 3)
            dst = live[n + 1]
            c = np.bincount(
                (~src).astype(np.int64) * 2 + (~dst).astype(np.int64), minlength=4
            ).reshape(2, 2)
            if c.sum(axis=1).min() == 0:
                degenerate = True
                break
            counts[n] = c
        if degenerate:
            continue
        base = counts[ns[0]]
        base_rows = base.sum(axis=1)
        stable = True
        for n in ns[1:]:
            other = counts[n]
            other_rows = other.sum(axis=1)
            for a in range(2):
                for b in range(2):
                    if (
                        int(base[a, b]) * int(other_rows[a])
                        != int(other[a, b]) * int(base_rows[a])
                    ):
                        stable = False
        if not stable:
            continue
        matrix = tuple(
            tuple(Fraction(int(base[a, b]), int(base_rows[a])) for b in range(2))
            for a in range(2)
        )
        p_ld = matrix[0][1]
        p_dl = matrix[1][0]
        if p_ld == 0 or p_dl == 0:
            continue
        stationary_live = p_dl / (p_ld + p_dl)
        if not 0 < stationary_live < 1:
            continue
        viable.append(
            HuntCandidate(
                params=params,
                table=tuple(
                    tuple(tuple(int(v) for v in row) for row in plane)
                    for plane in table
                ),
                matrix=matrix,
                stationary_live=stationary_live,
            )
        )
    return HuntResult(
        space=space,
        ns=ns,
        candidates_total=len(pool),
        candidates_interesting=interesting_count,
        viable=tuple(viable),
    )
