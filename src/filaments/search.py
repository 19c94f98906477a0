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
up rules collapse into 2**16 equivalence classes ("fingerprints").
Left-right reflection R and the 0<->1 complement C, with RC, permute the
fingerprints and the states of a filament together, so they split the
fingerprints into 16,768 orbits (the ECA equivalence-class reduction of
Wolfram 1983 and Li & Packard 1990). Each length is covered from every
initial state, a set the group maps onto itself, so the scan works per
orbit from end to end: it simulates one representative per orbit, keeps
flags, per-length rule counts and first witnesses per representative, and
finds witnesses only for representatives that have none yet. At the end
it lists the witness rules once, in rule order, and maps each one's
witness from its representative through its group element.
Successor tables come from per-length tables over the 256 values of each
fingerprint byte, one per half window of the filament, which meet in the
middle as in ``engine._successor_map``, so they stay small at every length.
Every step of a Type-A cycle changes 1..k_a cells, so the scan keeps only
the sparse states, whose own step does, and points every kept state whose
successor was dropped at one sink node. Pointer doubling over flat indices
(Wyllie's list ranking) then walks every kept state 2**n steps in n rounds;
the cycles it lands on, the sink aside, are exactly the Type-A cycles,
found without bounding the transient by simulation length. Each witness's
period is walked in the same table.
The verdict's witnesses are a read-only sequence (``Witnesses``) over NumPy
columns that builds each ``SearchWitness`` only when it is read, so a
caller pays for the witnesses it reads, not for all of them.

The hunt builds its successor maps with ``engine._successor_map``, as the
census does, and walks them onto their cycles with ``engine._onto_cycles``; a
state is live when it lands off a fixed point. Lengths go in ascending order,
and a candidate with no live or no dead state at a probe length is dropped
before the next length is built. The sweep family is one table of its 343
valid slot triples (``_SWEEP_TRIPLES``), each triple one shared tuple mapped
to its slot codes: enumeration builds every ``SweepParams`` from those
tuples without checking them again, and encoding to slot codes takes two
lookups. The public constructor checks each slot once. The hunt's dense
tables are planes of ``sweep_rule``'s compiled ``Rule.lookup_table``, built
once per process for the 3 x 49 (state, bulk slot, end slot) choices
(``_sweep_planes``) and gathered per candidate.
"""

from __future__ import annotations

import csv
import operator
from collections import abc
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import chain, product
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import ANY, EMPTY, Rule, RuleEntry
from .analysis import count_accretions
from .engine import _half_window_keys, _meet_halves, _onto_cycles, _successor_map
from .engine import all_states_matrix  # noqa: F401 -- the bench tracer wraps search.all_states_matrix
from .rules import state_graphs

__all__ = [
    "HuntCandidate",
    "HuntResult",
    "SearchVerdict",
    "SearchWitness",
    "SweepParams",
    "Witnesses",
    "enumerate_sweep_params",
    "fingerprint16",
    "hunt_viable_3state",
    "interesting_mask",
    "rule_from_index",
    "rule_index",
    "search_type_a",
    "sweep_rule",
    "write_rule_audit_csv",
    "write_witness_csv",
]

RULE_SPACE_BITS = 18
RULE_SPACE_SIZE = 1 << RULE_SPACE_BITS

# Largest length the scan will materialize full successor tables for.
_MAX_TABLE_LENGTH = 22


def rule_from_index(index: int) -> Rule:
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
    )


def rule_index(rule: Rule) -> int:
    """Inverse of rule_from_index for any two-state radius-1 rule."""
    if rule.num_states != 2 or rule.radius != 1:
        raise ValueError("only two-state radius-1 rules have an index")
    # The index is the lookup table written out in flat-key order, key c*9 + l*3 + r.
    return sum(int(bit) << key for key, bit in enumerate(rule.lookup_table.ravel()))


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


def write_witness_csv(witnesses: Witnesses, fp: IO[str]) -> None:
    """One ``csv.writer`` row per witness rule; open ``fp`` with ``newline=""``."""
    writer = csv.writer(fp)
    writer.writerow(["rule_index", "n", "initial", "period", "k_max", "travelling", "sweeping"])
    for rule, n, state, period, k_max, trav, sweep in witnesses._blocks():
        initial = map(format, state, [f"0{k}b" for k in n])
        writer.writerows(zip(rule, n, initial, period, k_max, map(int, trav), map(int, sweep)))


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


class Witnesses(abc.Sequence):
    """The scan's witnesses as a read-only sequence of ``SearchWitness``.

    The fields live in NumPy columns, one row per witness rule, and each
    ``SearchWitness`` is built only when it is read: indexing builds one,
    a slice is a ``Witnesses`` over the sliced columns, and iteration
    builds them in blocks. Equality, hashing and ``repr`` go by the
    witnesses' values, so a verdict that holds them compares, hashes and
    prints as it would with a tuple of the same witnesses.
    """

    # One dtype per column, so that equal values hash alike. _MAX_TABLE_LENGTH
    # bounds n, so a state id and a period fit 32 bits.
    _DTYPES = (np.uint32, np.uint8, np.uint32, np.uint32, np.int8, np.bool_, np.bool_)
    # Rows made into Python objects per block while iterating.
    _BLOCK = 1 << 14

    __slots__ = ("_columns",)

    def __init__(
        self,
        rule_index: np.ndarray,
        n: np.ndarray,
        state: np.ndarray,
        period: np.ndarray,
        k_max: np.ndarray,
        travelling: np.ndarray,
        sweeping: np.ndarray,
    ) -> None:
        fields = (rule_index, n, state, period, k_max, travelling, sweeping)
        columns = tuple(np.array(field, dtype=dtype) for field, dtype in zip(fields, self._DTYPES))
        if any(column.shape != columns[0].shape or column.ndim != 1 for column in columns):
            raise ValueError("witness columns must be one-dimensional and of one length")
        for column in columns:
            column.flags.writeable = False
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Witnesses(*(column[key] for column in self._columns))
        i = operator.index(key)
        if not -len(self) <= i < len(self):
            raise IndexError("witness index out of range")
        rule, n, state, period, k_max, trav, sweep = (column[i].item() for column in self._columns)
        return SearchWitness(rule, n, format(state, f"0{n}b"), period, k_max, trav, sweep)

    def _blocks(self) -> Iterator[tuple[list, ...]]:
        """The columns as Python lists, one block of rows at a time."""
        for start in range(0, len(self), self._BLOCK):
            yield tuple(column[start : start + self._BLOCK].tolist() for column in self._columns)

    def __iter__(self) -> Iterator[SearchWitness]:
        for block in self._blocks():
            for rule, n, state, period, k_max, trav, sweep in zip(*block):
                yield SearchWitness(rule, n, format(state, f"0{n}b"), period, k_max, trav, sweep)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Witnesses):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns, other._columns))

    def __hash__(self) -> int:
        return hash(tuple(column.tobytes() for column in self._columns))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class SearchVerdict:
    lengths: tuple[int, ...]
    k_a: int
    coverage: tuple[tuple[int, str], ...]
    rules_total: int
    rules_interesting: int
    fingerprints_simulated: int
    rules_with_type_a_cycle: int
    rules_with_travelling_type_a_cycle: int
    rules_with_sweeping_type_a_cycle: int
    # (n, Type-A, travelling, sweeping) rule counts at each scanned length;
    # not printed by report().
    per_length: tuple[tuple[int, int, int, int], ...]
    witnesses: Witnesses
    complete: bool

    def report(self, max_witness_lines: int = 20) -> str:
        lines = [
            "two-state radius-1 rule scan",
            f"lengths: {' '.join(map(str, self.lengths))}",
            "coverage: "
            + " ".join(f"{n}={kind}" for n, kind in self.coverage),
            f"k_a: {self.k_a}",
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

    (head, tail)[c, b, w] holds the bits that the half's cells in state c
    take in half window w (see ``engine._half_window_keys``) under fingerprint byte b.
    """
    tables = []
    byte = np.arange(256, dtype=np.uint16)[:, None]
    for keys in _half_window_keys(2, 1, n):
        # The two-state key c*9 + l*3 + r is the rule-index bit: bit l*3 + r of byte c.
        cell, code = divmod(keys, 9)
        windows = np.arange(keys.shape[1])
        table = np.zeros((2, 256, len(windows)), dtype=np.uint16)
        for shift, (c, k) in enumerate(zip(cell[::-1], code[::-1])):
            table[c, :, windows] |= (((byte >> k) & 1) << shift).T
        tables.append(table)
    return tables[0], tables[1]


def _successor_table(fps: np.ndarray, n: int) -> np.ndarray:
    """Successor state id of every length-n state under each fingerprint: (len(fps), 2**n) int64.

    A cell in state c reads fingerprint bit c*8 + l*3 + r, so its next bit
    depends on one byte of the fingerprint, and each half's bits are one
    byte-table lookup per half window before the halves meet.
    """
    head, tail = _byte_tables(n)
    low, high = fps & 0xFF, fps >> 8
    return _meet_halves((head[0][low] | head[1][high]).astype(np.int64), tail[0][low] | tail[1][high], 2, 1, n)


def _rule_images(indices: np.ndarray) -> np.ndarray:
    """Images of 18-bit rule indices under the group (id, R, C, RC): (4, len(indices)).

    R reflects left and right, so bit c*9 + l*3 + r moves to c*9 + r*3 + l.
    C complements every state: the bit moves to the complemented current
    state and real neighbors (the empty code 2 stays) and its value flips.
    """
    indices = np.asarray(indices, dtype=np.uint32)
    images = np.zeros((4, len(indices)), dtype=np.uint32)
    for c, l, r in product(range(2), range(3), range(3)):
        bit = (indices >> (c * 9 + l * 3 + r)) & 1
        for g, (reflect, flip) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            code = (1, 0, 2) if flip else (0, 1, 2)
            gl, gr = (code[r], code[l]) if reflect else (code[l], code[r])
            images[g] |= (bit ^ flip) << ((c ^ flip) * 9 + gl * 3 + gr)
    return images


def _fingerprint_images(fps: np.ndarray) -> np.ndarray:
    """Images of fingerprints under (id, R, C, RC): (4, len(fps)) uint16.

    The group maps the (empty, empty) bits 8 and 17 only onto each other,
    so it acts on a fingerprint through any rule index that has it.
    """
    fps = np.asarray(fps, dtype=np.uint32)
    images = _rule_images((fps & 0xFF) | (fps & 0xFF00) << 1)
    return fingerprint16(images.ravel()).reshape(images.shape)


@cache
def _fingerprint_orbits() -> tuple[np.ndarray, np.ndarray]:
    """Orbit representative of every fingerprint and the group element that
    carries the representative to it, both (2**16,).

    The representative is the orbit's smallest fingerprint.
    """
    fps = np.arange(1 << 16)
    images = _fingerprint_images(fps)
    # Each element is an involution, so g.fp == rep means fp == g.rep.
    element = np.argmin(images, axis=0).astype(np.uint8)
    return images[element, fps], element


@cache
def _state_images(n: int) -> np.ndarray:
    """Images of every length-n state id under (id, R, C, RC): (4, 2**n) int32.

    R reverses the n cells and C complements them; the first cell is the
    state id's top bit. _MAX_TABLE_LENGTH bounds n, so a state id fits 32 bits.
    """
    states = np.arange(1 << n, dtype=np.int32)
    reversed_ = np.zeros_like(states)
    for i in range(n):
        reversed_ |= ((states >> i) & 1) << (n - 1 - i)
    ones = (1 << n) - 1
    return np.stack([states, reversed_, states ^ ones, reversed_ ^ ones])


class _Orbits(NamedTuple):
    """The orbit representatives of a scan's fingerprints: ``reps`` holds the
    distinct representatives, ascending, and, indexed by fingerprint,
    ``rep_index`` the position of its representative in ``reps`` (for the
    fingerprints whose orbit has a representative there) and ``element`` the
    group element that carries the representative to it."""

    reps: np.ndarray
    rep_index: np.ndarray
    element: np.ndarray


def _orbit_groups(fps: np.ndarray) -> _Orbits:
    """The orbits of a scan's fingerprints; the same at every length."""
    rep_of, element_of = _fingerprint_orbits()
    present = np.zeros(1 << 16, dtype=bool)
    present[rep_of[fps]] = True
    return _Orbits(np.flatnonzero(present).astype(np.uint16), (np.cumsum(present) - 1)[rep_of], element_of)


def _scan_length(
    reps: np.ndarray, n: int, k_a: int, pending: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flag orbit representatives with Type-A cycles at one length, over every length-n state.

    Returns (has_type_a, has_travelling, has_sweeping), each (len(reps),),
    and (witness_state, witness_k_max, witness_period), each (4, len(reps)):
    row g holds the witness of the member g.rep, which is sweeping exactly
    when the representative has a sweeping cycle. Witnesses are found only
    for the representatives in the boolean mask ``pending``; every other
    column holds the fill values (-1, 0, 0), as do the columns of
    representatives without a Type-A cycle.

    Each element g of the group (id, R, C, RC) permutes the states by pi_g
    and conjugates the dynamics, succ_{g.fp}(pi_g(s)) = pi_g(succ_fp(s)), so
    cycles, periods, step weights and changed-cell spans carry over and the
    three flags of every member are the representative's.

    Every step of a Type-A cycle changes 1..k_a cells: a cycle of period 2
    or more changes a cell at every step, and a fixed point changes none.
    So the Type-A cycles are exactly the cycles of the sparse subgraph, the
    states whose own step changes 1..k_a cells. Representatives go through
    in chunks of about ``_CHUNK_CELLS`` states; the sparse states of a chunk
    are numbered 0..m-1, and one sink node m, which points to itself, takes
    the place of every successor that is not sparse. Pointer doubling then
    runs over those m + 1 nodes only, n rounds of 1-D gathers. A per-node
    word carries the cells changed along the walk in its low n bits and,
    above them, the step Hamming weights as thermometer codes, so that one
    OR per round tracks both the union of changed cells and the largest
    step. After n rounds each node's walk has reached its cycle or the sink
    and has covered the cycle in full; the cycle nodes are the walk's image
    but the sink. Each cycle state gets a priority, 3 sweeping,
    2 travelling, 1 Type-A, and a member g.rep takes as witness the first
    state of highest priority in its own labelling: the smallest pi_g image
    of the representative's top-priority cycle states. Its period is the
    length of the walk from pi_g of it back to itself in the chunk's table.
    """
    size = 1 << n
    rows = max(1, _CHUNK_CELLS >> n)
    state_ids = np.arange(size, dtype=np.int64)
    perms = _state_images(n)
    # No step changes more than n cells, so a larger k_a keeps the same states;
    # capping it also keeps the span test's shift by k_a inside int64.
    k_a = min(k_a, n)

    rep_ta, rep_trav, rep_sweep = np.zeros((3, len(reps)), dtype=bool)
    rep_state = np.full((4, len(reps)), -1, dtype=np.int64)
    rep_kmax = np.zeros((4, len(reps)), dtype=np.int8)
    rep_period = np.zeros((4, len(reps)), dtype=np.int64)

    for start in range(0, len(reps), rows):
        # change[row * 2**n + state]: the cells the state's step changes, so
        # the flat id of its successor is the flat id XOR its change.
        change = _successor_table(reps[start : start + rows], n)
        change ^= state_ids
        change = change.ravel()
        weight = np.bitwise_count(change)
        kept = np.flatnonzero((weight >= 1) & (weight <= k_a))
        sink = len(kept)
        node = np.full(len(change), sink)
        node[kept] = np.arange(sink)
        step = change[kept]
        walk = np.append(node[kept ^ step], sink)
        word = np.append(step | ((1 << weight[kept].astype(np.int64)) - 1) << n, 0)
        for _ in range(n):
            word |= word[walk]
            walk = walk[walk]
        on_cycle = np.zeros(sink + 1, dtype=bool)
        on_cycle[walk] = True
        cycle = np.flatnonzero(on_cycle[:sink])
        flat, word = kept[cycle], word[cycle]
        max_ham = np.bitwise_count(word >> n).astype(np.int8)
        union = word & (size - 1)
        # The changed cells span more than k_a positions. Sweeping implies
        # travelling only when n > k_a, so the flags stay separate.
        trav = union >= (union & -union) << k_a
        priority = trav.astype(np.uint8) + 1
        priority[np.bitwise_count(union) == n] = 3

        # Cycle states are in flat order, so each Type-A row's are one run.
        row = flat >> n
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        best = np.maximum.reduceat(priority, starts)
        ta = start + row[starts]
        rep_ta[ta] = True
        rep_trav[ta] = np.logical_or.reduceat(trav, starts)
        rep_sweep[ta] = best == 3

        # Witnesses: the top states of the pending rows only; priority 0 matches none.
        need = pending[ta]
        top = priority == np.repeat(np.where(need, best, 0), np.diff(starts, append=len(row)))
        ta, row_need = ta[need], row[starts[need]]
        # keys[g]: row * 2**n + pi_g(state) of each top state; the smallest per
        # row is g.rep's witness, and pi_g of it the representative's state.
        keys = (row[top] << n) | perms[:, flat[top] & (size - 1)]
        first = np.minimum.reduceat(keys, np.flatnonzero(np.diff(row[top], prepend=-1)), axis=1) & (size - 1)
        at_rep = (row_need << n) | np.take_along_axis(perms, first, axis=1)
        rep_state[:, ta] = first
        rep_kmax[:, ta] = max_ham[np.searchsorted(flat, at_rep)]
        # Witnesses are cycle states, so every walk comes back; all go in lockstep.
        cur, period, away = at_rep.copy(), np.zeros_like(at_rep), np.ones(at_rep.shape, dtype=bool)
        while away.any():
            cur ^= change[cur]
            period += away
            away &= cur != at_rep
        rep_period[:, ta] = period

    return rep_ta, rep_trav, rep_sweep, rep_state, rep_kmax, rep_period


def search_type_a(
    lengths: Iterable[int] = range(4, 11),
    k_a: int = 2,
    rule_indices: Optional[Sequence[int]] = None,
) -> SearchVerdict:
    """Scan interesting two-state radius-1 rules for Type-A cycles.

    Coverage at each length is exhaustive: every initial state of every
    fingerprint. ``rule_indices`` restricts the scan to a subset (still
    filtered to interesting rules); by default the whole space is scanned.
    Lengths above _MAX_TABLE_LENGTH, whose state space cannot be
    materialized, are skipped and make the verdict incomplete. Lengths and
    ``k_a`` must be integers.
    """
    lengths = tuple(sorted(set(map(operator.index, lengths))))
    if not lengths:
        raise ValueError("scan needs at least one length")
    if any(n < 2 for n in lengths):
        raise ValueError("scan lengths must be at least 2")
    k_a = operator.index(k_a)
    if k_a < 1:
        raise ValueError("k_a must be at least 1: a Type-A cycle changes 1..k_a cells per step")
    mask = interesting_mask()
    rules_total = RULE_SPACE_SIZE
    if rule_indices is not None:
        chosen = np.unique(np.asarray(rule_indices, dtype=np.int64))
        if len(chosen) and (chosen[0] < 0 or chosen[-1] >= RULE_SPACE_SIZE):
            raise ValueError(f"rule index must be in [0, {RULE_SPACE_SIZE})")
        restricted = np.zeros(RULE_SPACE_SIZE, dtype=bool)
        restricted[chosen] = True
        mask &= restricted
        rules_total = len(chosen)
    # A rule index's bits are (end bit 17, high byte, end bit 8, low byte) of
    # its fingerprint, so this view puts each fingerprint's rules on axes 0 and 2.
    by_fp = mask.reshape(2, 256, 2, 256)
    rules_per_fp = by_fp.sum(axis=(0, 2)).ravel()
    fps = np.flatnonzero(rules_per_fp)
    reps, rep_index, element = _orbit_groups(fps)
    rules_per_rep = np.bincount(rep_index[fps], rules_per_fp[fps], len(reps)).astype(np.int64)

    # Per representative: Type-A, travelling and sweeping at any length, and
    # from the first length with one, per group element g, the witness of
    # g.rep as (n, state, period, k_max, travelling, sweeping), each (4, reps)
    # column in its Witnesses dtype, so every gather below is narrow.
    type_a, travelling, sweeping = np.zeros((3, len(reps)), dtype=bool)
    witness = tuple(np.zeros((4, len(reps)), dtype) for dtype in Witnesses._DTYPES[1:])
    coverage, per_length = [], []
    for n in lengths:
        if n > _MAX_TABLE_LENGTH:
            coverage.append((n, "skipped"))
            continue
        coverage.append((n, "exhaustive"))
        ta, trav, sweep, state, k_max, period = _scan_length(reps, n, k_a, ~type_a)
        per_length.append((n, *(int(rules_per_rep[flags].sum()) for flags in (ta, trav, sweep))))
        # Flags found at later lengths still count, but the stored witness
        # stays the first one.
        newly = np.flatnonzero(ta & ~type_a)
        witness[0][:, newly] = n
        for column, field in zip(witness[1:], (state, period, k_max, trav, sweep)):
            column[:, newly] = field[..., newly]
        type_a |= ta
        travelling |= trav
        sweeping |= sweep

    # The witness rules, in rule order, and each one's representative and element.
    flagged = np.zeros(1 << 16, dtype=bool)
    flagged[fps] = type_a[rep_index[fps]]
    members = np.flatnonzero(by_fp & flagged.reshape(1, 256, 1, 256)).astype(np.uint32)
    fp = fingerprint16(members)
    rep, g = rep_index[fp], element[fp]
    return SearchVerdict(
        lengths=lengths,
        k_a=k_a,
        coverage=tuple(coverage),
        rules_total=rules_total,
        rules_interesting=int(mask.sum()),
        fingerprints_simulated=len(fps),
        rules_with_type_a_cycle=len(members),
        rules_with_travelling_type_a_cycle=int(rules_per_rep[travelling].sum()),
        rules_with_sweeping_type_a_cycle=int(rules_per_rep[sweeping].sum()),
        per_length=tuple(per_length),
        # Gathered column by column: over repeated scans, one (6, rules) int64
        # block measured 5 MB more peak RSS.
        witnesses=Witnesses(members, *(column[g, rep] for column in witness)),
        complete=all(kind == "exhaustive" for _, kind in coverage),
    )


# -- three-state sweep family hunt ----------------------------------------------


# Slot code i of a bulk or end transition: None at 0, else the (v, w) or (u, z) pair i - 1.
_SWEEP_SLOTS = (None,) + tuple(product(range(3), range(3)))

# The slot codes valid at each state c: None, or a transition that changes c.
_STATE_SLOTS = tuple([i for i, s in enumerate(_SWEEP_SLOTS) if s is None or s[1] != c] for c in range(3))

# The 343 valid (state 0, state 1, state 2) slot triples, in enumeration order:
# each one shared tuple, mapped to its slot codes.
_SWEEP_TRIPLES = {tuple(_SWEEP_SLOTS[i] for i in codes): codes for codes in product(*_STATE_SLOTS)}
_TRIPLE_OF_CODES = dict(zip(_SWEEP_TRIPLES.values(), _SWEEP_TRIPLES))


@dataclass(frozen=True, slots=True)
class SweepParams:
    """A symmetric three-state rule built from sweep-style transitions.

    Per state c, ``bulk[c]`` of (v, w) adds the interior transition
    "(c, {*, v}) -> w" and ``end[c]`` of (u, z) adds the boundary
    transition "(c, {empty, u}) -> z"; None omits the transition. Both
    target states must differ from c. Everything unlisted holds.

    The constructor checks every slot, then stores ``bulk`` and ``end`` as
    tuples of None or (int, int) pairs, so an object made from lists or NumPy
    integers equals, hashes, prints and hunts as its tuple twin; a state that
    is not an integer raises ``TypeError``. The library's own objects
    (``enumerate_sweep_params`` and the hunt's viable rules) come from
    ``_shared_params``, which sets both fields to triples of ``_SWEEP_TRIPLES``
    without running these checks: every triple in the table is valid by
    construction, so no check is skipped.
    """

    bulk: tuple[Optional[tuple[int, int]], ...]
    end: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self) -> None:
        if len(self.bulk) != 3 or len(self.end) != 3:
            raise ValueError("bulk and end must have one slot per state")
        slots = []  # bulk[0], end[0], bulk[1], ...
        for c in range(3):
            for slot in (self.bulk[c], self.end[c]):
                if slot is not None:
                    v, w = slot
                    if not (0 <= v < 3 and 0 <= w < 3):
                        raise ValueError("transition states must be in 0..2")
                    if w == c:
                        raise ValueError("a listed transition must change the state")
                    slot = (operator.index(v), operator.index(w))
                slots.append(slot)
        object.__setattr__(self, "bulk", tuple(slots[0::2]))
        object.__setattr__(self, "end", tuple(slots[1::2]))


_set_bulk, _set_end = SweepParams.bulk.__set__, SweepParams.end.__set__


def _shared_params(bulk: tuple, end: tuple) -> SweepParams:
    """The SweepParams of two slot triples of ``_SWEEP_TRIPLES``, made without
    ``__init__``: the table holds only valid triples, built at import from
    ``_STATE_SLOTS`` as tuples of int pairs, so the object is the one the
    checked constructor would make. The slot descriptors set the frozen fields."""
    params = object.__new__(SweepParams)
    _set_bulk(params, bulk)
    _set_end(params, end)
    return params


def enumerate_sweep_params() -> Iterator[SweepParams]:
    """All 49**3 sweep parameter combinations, made of the shared slot triples.

    The order is the product over (bulk[0], end[0], bulk[1], end[1], bulk[2],
    end[2]); the triple of option k_c for each state c sits at 49*k0 + 7*k1 + k2.
    Each object is made by ``_shared_params`` from two table triples, so it
    equals, hashes and prints like ``SweepParams(bulk=..., end=...)`` of the
    same triples, without the checked constructor's per-object cost.
    """
    triples = tuple(_SWEEP_TRIPLES)
    for b0, e0, b1, e1 in product(range(0, 343, 49), range(0, 343, 49), range(0, 49, 7), range(0, 49, 7)):
        for bulk, end in product(triples[b0 + b1 : b0 + b1 + 7], triples[e0 + e1 : e0 + e1 + 7]):
            yield _shared_params(bulk, end)


def _sweep_slots(params: Sequence[SweepParams]) -> np.ndarray:
    """Slot codes (len(params), 2, 3): [p, 0, c] of bulk[c] and [p, 1, c] of end[c]."""
    codes = chain.from_iterable(_SWEEP_TRIPLES[s] for p in params for s in (p.bulk, p.end))
    return np.fromiter(codes, np.intp, 6 * len(params)).reshape(len(params), 2, 3)


def _sweep_space_slots() -> np.ndarray:
    """Slot codes of all 49**3 sweep parameter sets, in enumerate_sweep_params order."""
    codes = np.array(list(_SWEEP_TRIPLES.values()), dtype=np.uint8)
    triples = np.arange(len(codes)).reshape(7, 7, 7)
    bulk, end = np.broadcast_arrays(triples[:, None, :, None, :, None], triples[None, :, None, :, None, :])
    return np.stack([codes[bulk.ravel()], codes[end.ravel()]], axis=1)


def _slot_params(picks: np.ndarray) -> SweepParams:
    """The SweepParams of one (2, 3) row of slot codes, made of the shared slot triples."""
    return _shared_params(*(_TRIPLE_OF_CODES[row] for row in map(tuple, picks.tolist())))


@cache
def _sweep_planes() -> np.ndarray:
    """Read-only (3, 10, 10, 4, 4) uint8: [c, i, j] is plane c of the compiled
    ``sweep_rule`` table with bulk slot code i and end slot code j at state c.

    Only the 3 x 49 entries whose codes are valid at their state
    (``_STATE_SLOTS``) are built, from 49 rules that each take the a-th valid
    bulk slot and the b-th valid end slot at every state; the other entries
    stay 0 and are never indexed."""
    planes = np.zeros((3, len(_SWEEP_SLOTS), len(_SWEEP_SLOTS), 4, 4), dtype=np.uint8)
    for a, b in product(range(7), repeat=2):
        bulk, end = (tuple(slots[k] for slots in _STATE_SLOTS) for k in (a, b))
        rule = sweep_rule(SweepParams(_TRIPLE_OF_CODES[bulk], _TRIPLE_OF_CODES[end]))
        planes[np.arange(3), bulk, end] = rule.lookup_table
    planes.flags.writeable = False
    return planes


def _sweep_tables(picks: np.ndarray) -> np.ndarray:
    """Dense (len(picks), 3, 4, 4) next-state tables of (len(picks), 2, 3) slot
    codes, code 3 for the empty boundary: ``sweep_rule``'s lookup tables."""
    return _sweep_planes()[np.arange(3), picks[:, 0], picks[:, 1]]


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
    """The hunt's outcome and its funnel: total, interesting, non-degenerate (live
    and dead states at every probe length), length-stable (one accretion matrix
    at every probe length) and viable."""

    space: str
    ns: tuple[int, ...]
    candidates_total: int
    candidates_interesting: int
    candidates_nondegenerate: int
    candidates_stable: int
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


# Longest filament the hunt classifies (3**13 states); probe lengths go up to one less.
_MAX_HUNT_LENGTH = 13

# States per liveness chunk at the longest length the hunt reads: 512 KB per
# int64 working array, large enough that per-call overhead stays small.
_HUNT_CHUNK_STATES = 1 << 16


def _accretion_counts(tables: np.ndarray, ns: tuple[int, ...]) -> np.ndarray:
    """Accretion counts: [b, j, a, d] counts the (length-n state, appended cell)
    pairs at n = ns[j] whose state is live (a=0) or dead (a=1) and whose
    extension is live (d=0) or dead (d=1); (len(tables), len(ns), 2, 2) int64.

    Lengths go in ascending order, and a table degenerate at a probe length
    (no live or no dead state there) is dropped before the next length, so
    its counts stay 0 from that probe length on."""
    needed = sorted(set(ns) | {n + 1 for n in ns})
    rows = max(1, _HUNT_CHUNK_STATES // 3 ** needed[-1])
    counts = np.zeros((len(tables), len(ns), 2, 2), dtype=np.int64)
    tables48 = tables.reshape(len(tables), 48)
    for start in range(0, len(tables), rows):
        alive = np.arange(start, min(start + rows, len(tables)))
        live = None
        for n in needed:
            succ = _successor_map(tables48[alive], 3, 1, n).ravel()
            landing = _onto_cycles(succ, 3**n)
            prev, live = live, (succ.take(landing) != landing).reshape(-1, 3**n)
            del succ, landing  # freed before the next length's map is built
            if n in ns:
                mixed = live.any(axis=1) & ~live.all(axis=1)
                alive, live = alive[mixed], live[mixed]
                if prev is not None:
                    prev = prev[mixed]
                if not len(alive):
                    break
            if n - 1 in ns:
                counts[alive, ns.index(n - 1)] = count_accretions(~prev, ~live, 2)
    return counts


def hunt_viable_3state(
    ns: tuple[int, ...] = (4, 5),
    candidates: Optional[Iterable[SweepParams]] = None,
    space: str = "sweeps",
    budget: Optional[int] = None,
    seed: Optional[int] = None,
) -> HuntResult:
    """Find rules whose liveness chain is length-invariant and mixing.

    For each interesting candidate, measure the 2x2 live/dead accretion
    matrix at each probe length n (appending one uniform cell to every
    length-n state and classifying both). Candidates whose matrices agree
    exactly across the probe lengths and whose stationary live proportion
    lies strictly inside (0, 1) are viable. Counting is integer-exact;
    matrices are exact rationals.

    The default space sweeps all 49**3 parameter combinations (see
    SweepParams), enumerated as six axes of slot indices; a SweepParams is
    made only for each viable candidate. Space "symmetric-sample" instead draws ``budget``
    uniformly random symmetric tables from the full 3**30 symmetric rule
    space, which is far too large to enumerate, with ``seed`` (default 0);
    ``budget`` and ``seed`` apply to that space only.

    Candidates run as arrays: one interesting mask over all tables
    (``rules.state_graphs``, as ``classify_rule`` reads it), then,
    per chunk of candidates, one successor map and one walk onto the cycles
    (``engine._onto_cycles``) per length, reduced to liveness counts. Lengths go in ascending
    order, and a candidate degenerate at a probe length is dropped before
    the next length, so longer lengths are built only for candidates still
    non-degenerate.
    """
    ns = tuple(sorted(set(map(operator.index, ns))))
    if len(ns) < 2:
        raise ValueError("need at least two probe lengths")
    if any(n < 2 for n in ns):
        raise ValueError("probe lengths must be at least 2")
    if ns[-1] >= _MAX_HUNT_LENGTH:
        raise ValueError(
            f"probe length {ns[-1]} needs all 3**{ns[-1] + 1} states of length {ns[-1] + 1}; "
            f"the hunt classifies at most 3**{_MAX_HUNT_LENGTH}, "
            f"so probe lengths up to {_MAX_HUNT_LENGTH - 1}"
        )
    if space == "sweeps":
        if budget is not None or seed is not None:
            raise ValueError("budget and seed only apply to the symmetric-sample space")
        picks = _sweep_space_slots() if candidates is None else _sweep_slots(list(candidates))
        tables = _sweep_tables(picks)
    elif space == "symmetric-sample":
        if candidates is not None:
            raise ValueError("explicit candidates only apply to the sweeps space")
        if budget is None or budget < 1:
            raise ValueError("the sampled symmetric space needs a positive budget")
        # One draw per unordered neighbor pair, states outermost.
        draws = np.random.default_rng(0 if seed is None else seed).integers(0, 3, size=(budget, 3, 10))
        tables = np.empty((budget, 3, 4, 4), dtype=np.uint8)
        upper = np.triu_indices(4)
        tables[:, :, upper[0], upper[1]] = tables[:, :, upper[1], upper[0]] = draws
        picks = None
    else:
        raise ValueError(f"unknown space {space!r}")

    out_degree, connected = state_graphs(tables)
    interesting = np.flatnonzero((out_degree > 1).all(axis=1) & connected)
    counts = _accretion_counts(tables[interesting], ns)
    row_sums = counts.sum(axis=3)
    nondegenerate = (row_sums > 0).all(axis=(1, 2))
    base, base_rows = counts[:, :1], row_sums[:, :1]
    stable = nondegenerate & (
        base * row_sums[..., None] == counts * base_rows[..., None]
    ).all(axis=(1, 2, 3))
    viable = stable & (base[:, 0, 0, 1] > 0) & (base[:, 0, 1, 0] > 0)

    found = []
    for i in np.flatnonzero(viable).tolist():
        (ll, ld), (dl, dd) = base[i, 0].tolist()
        p_ld, p_dl = Fraction(ld, ll + ld), Fraction(dl, dl + dd)
        found.append(
            HuntCandidate(
                params=None if picks is None else _slot_params(picks[interesting[i]]),
                table=tuple(tuple(map(tuple, plane)) for plane in tables[interesting[i]].tolist()),
                matrix=((1 - p_ld, p_ld), (p_dl, 1 - p_dl)),
                stationary_live=p_dl / (p_ld + p_dl),
            )
        )
    return HuntResult(
        space=space,
        ns=ns,
        candidates_total=len(tables),
        candidates_interesting=len(interesting),
        candidates_nondegenerate=int(nondegenerate.sum()),
        candidates_stable=int(stable.sum()),
        viable=tuple(found),
    )
