"""Filament evolution and trajectory classification.

Every filament updates synchronously: each cell reads its neighborhood,
consults the rule once, and all cells switch together. Because a filament
has finitely many states, every trajectory eventually enters a cycle; the
classifier distinguishes settling to a fixed point, entering a longer
cycle, and not resolving within a step budget.

Cycles are further described by how many cells change per step. A cycle
where every cell changes on every step is the busiest kind; a cycle where
at most a small number of cells change per step (small relative to the
filament length) moves sparse activity around an otherwise static
background. ``detect_cycle`` reports these as ``WaveType`` kinds "B" and
"A", with everything in between reported as "mixed".

Every step goes through one private kernel (``_Kernel``), built for a rule
and a ``(batch, n)`` shape. It holds the cells cell-major in a buffer whose
EMPTY border is written once, builds each cell's flat table key in place
(``_fill_keys``, which ``neighborhood_keys`` shares) and looks the keys up
with ``bytes.translate`` through a 256-byte image of the rule's table when
the table has at most 256 cells, which covers every catalogue rule. Only a
wider table takes the NumPy gather. Validation happens once per input, never
per step: ``step_array`` checks its array, ``run_trace`` and ``detect_cycle``
their starting row. Every table value is a state, since a rule is checked
when it is built, so a row in range steps to a row in range and the loops
check nothing more.

Whole state spaces have one successor builder (``_successor_map``), a
two-block reading of the de Bruijn window decomposition (Sutner 1991): each
half of a filament is decided by a window r cells wider, its digits are
looked up once per window, and the halves meet in one broadcast, with no
(s**n, n) state matrix. The census (through ``successor_array``) and the
three-state hunt call it; the two-state scan uses its windows and meet. Both
then walk every state onto its cycle by pointer jumping. The census
(``classify_functional_graph``) stops its walk, and its transient pass, after
ceil(log2 T) rounds for the longest tail T, which it detects exactly, and labels
only the M cycle nodes it lands on: O(N log T + M log M). The hunt walks with
``_onto_cycles``.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .core import Filament, Rule

__all__ = [
    "Trace",
    "TrajectoryReport",
    "WaveType",
    "all_states_matrix",
    "classify_functional_graph",
    "default_horizon",
    "detect_cycle",
    "neighborhood_keys",
    "run_trace",
    "state_ids",
    "step",
    "step_array",
    "successor_array",
]


def step(rule: Rule, filament: Filament) -> Filament:
    """One synchronous update of every cell."""
    return Filament(step_array(rule, np.array([filament.cells]))[0].tolist())


def neighborhood_keys(states: np.ndarray, num_states: int, radius: int) -> np.ndarray:
    """Flat index into ``lookup_table.ravel()`` of every cell of a ``(batch, n)`` array.

    Digits follow the table's axes (current, left outermost..innermost, right
    innermost..outermost), neighbors in base ``num_states + 1`` with ``num_states``
    for EMPTY, in the smallest unsigned dtype that holds every index of the table.
    A cell outside ``[0, num_states)`` raises ``ValueError``: a narrow key would wrap.
    The keys are built cell-major, as the stepping kernel builds them, and
    returned as their ``(batch, n)`` transpose.
    """
    cells = _uint8_cells(states, num_states)
    padded = np.full((cells.shape[1] + 2 * radius, len(cells)), num_states, dtype=np.uint8)
    padded[radius:-radius] = cells.T
    keys = np.empty(cells.shape[::-1], _key_dtype(num_states, radius))
    return _fill_keys(keys, _digit_views(padded, radius), num_states).T


def _key_dtype(num_states: int, radius: int) -> np.dtype:
    """The smallest unsigned dtype that holds every flat index of the lookup table."""
    return np.min_scalar_type(num_states * (num_states + 1) ** (2 * radius) - 1)


def _digit_views(padded: np.ndarray, radius: int) -> list[np.ndarray]:
    """The key digits of every cell as shifted views of ``padded``, in table-axis order.

    ``padded`` is cell-major, one column per filament: ``n`` rows of cells with
    ``radius`` rows of EMPTY above and below. Row ``j`` of the digit at offset
    ``d`` is then row ``j + d`` of ``padded``, with no bounds logic at the ends.
    """
    n = len(padded) - 2 * radius
    offsets = (radius, *range(radius), *range(radius + 1, 2 * radius + 1))
    return [padded[d : d + n] for d in offsets]


def _fill_keys(keys: np.ndarray, digits: list[np.ndarray], num_states: int) -> np.ndarray:
    """Write the flat keys of ``digits`` into ``keys`` by Horner's rule and return it."""
    base = keys.dtype.type(num_states + 1)
    np.copyto(keys, digits[0])
    for digit in digits[1:]:
        np.multiply(keys, base, out=keys)
        np.add(keys, digit, out=keys)
    return keys


def _uint8_cells(states, num_states: int) -> np.ndarray:
    """``states`` as uint8; a cell outside ``[0, num_states)`` raises ``ValueError``."""
    states = np.asarray(states)
    # A negative cell reads as a huge one in the unsigned view, so one max checks both ends.
    if states.dtype.kind not in "iu" or states.view(f"u{states.itemsize}").max(initial=0) >= num_states:
        raise ValueError(f"cell states must be integers in [0, {num_states})")
    return states.astype(np.uint8, copy=False)


class _Kernel:
    """``rule``'s synchronous step over ``batch`` filaments of ``n`` cells, on buffers made once.

    ``cells`` is ``(n, batch)``, one column per filament: the interior of a
    padded buffer whose EMPTY border is written here, once. Load columns into
    it, and ``step()`` returns their successors in the same cell-major layout.
    Keys are built in place by ``_fill_keys``. A table of at most 256 cells
    looks them up with ``bytes.translate`` through ``image``, the flat table
    padded to 256 bytes; a wider table has no image (None) and gathers. Every
    table value is a state, so cells loaded in range step to cells in range:
    callers check their starting rows and nothing after.
    """

    def __init__(self, rule: Rule, batch: int, n: int) -> None:
        self.table = rule.lookup_table.ravel()
        self.image = self.table.tobytes().ljust(256, b"\0") if self.table.size <= 256 else None
        self.num_states = rule.num_states
        padded = np.full((n + 2 * rule.radius, batch), rule.num_states, dtype=np.uint8)
        self.cells = padded[rule.radius : rule.radius + n]
        self.digits = _digit_views(padded, rule.radius)
        if self.image is None:
            self.keys = np.empty((n, batch), _key_dtype(rule.num_states, rule.radius))
        else:  # byte keys live in a bytearray, so translate reads them without a copy
            self.key_bytes = bytearray(n * batch)
            self.keys = np.frombuffer(self.key_bytes, np.uint8).reshape(n, batch)

    def step(self) -> np.ndarray:
        """The successors of the loaded cells, as a new writable ``(n, batch)`` uint8 array."""
        keys = _fill_keys(self.keys, self.digits, self.num_states)
        if self.image is None:
            return self.table[keys]
        return np.frombuffer(self.key_bytes.translate(self.image), np.uint8).reshape(keys.shape)


def step_array(rule: Rule, states: np.ndarray) -> np.ndarray:
    """One synchronous update of a batch of filaments.

    ``states`` has shape ``(batch, n)`` with integer cell states; the result
    is a new, writable ``(batch, n)`` uint8 array. All rows must share one
    length. A cell outside ``[0, rule.num_states)`` raises ``ValueError``.

    The step is the engine's one stepping kernel (``_Kernel``): keys built on
    an EMPTY-padded copy of the cells, then looked up with ``bytes.translate``
    when the rule's table has at most 256 cells (every 2-state rule up to
    radius 2 and every 3-state rule at radius 1) and by a gather otherwise.
    ``run_trace``, ``detect_cycle`` and ``run_population`` drive the same
    kernel over many steps and check only their starting rows.
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError(f"expected a (batch, n) array, got shape {states.shape}")
    if states.shape[1] < 1:
        raise ValueError("filaments need at least one cell")
    cells = _uint8_cells(states, rule.num_states)
    kernel = _Kernel(rule, *cells.shape)
    kernel.cells[...] = cells.T
    return kernel.step().T


@dataclass(frozen=True, eq=False)
class Trace(abc.Sequence):
    """A run of consecutive configurations, oldest first.

    ``rows`` holds them packed, one read-only uint8 row per configuration.
    ``states``, iteration and indexing build a ``Filament`` only for the rows
    they read; traces compare and hash by rule name and row values.
    """

    rule_name: str
    rows: np.ndarray

    @property
    def states(self) -> tuple[Filament, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        rows = self.rows[index].tolist()
        return tuple(map(Filament, rows)) if isinstance(index, slice) else Filament(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and self.rule_name == other.rule_name and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.rule_name, self.rows.tobytes()))


def run_trace(rule: Rule, initial: Filament, steps: int) -> Trace:
    """Evolve ``initial`` for ``steps`` updates, keeping every configuration."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rows = np.empty((steps + 1, len(initial)), dtype=np.uint8)
    rows[0] = _uint8_cells(initial.cells, rule.num_states)
    kernel = _Kernel(rule, 1, rows.shape[1])
    for prev, row in zip(rows, rows[1:]):
        kernel.cells[:, 0] = prev
        row[:] = kernel.step()[:, 0]
    rows.flags.writeable = False
    return Trace(rule.name, rows)


def default_horizon(n: int) -> int:
    """Step budget scaled to filament length."""
    return 50 * n + 100


@dataclass(frozen=True)
class WaveType:
    """Shape of activity within a cycle.

    ``kind`` is "B" when every cell changes on every step of the cycle,
    "A" when each step changes at most ``k_max`` cells and that bound is
    both within the configured threshold and smaller than the filament
    length, and "mixed" otherwise. ``k_max`` is the largest per-step count
    of changed cells observed in the cycle either way.
    """

    kind: str
    k_max: int


def _wave_type(changes: list[int], n: int, k_a: int) -> WaveType:
    """``WaveType`` of a cycle of length-n states from the changed-cell count of
    each of its steps, the step back to its first state included; ``k_a`` is
    the largest per-step count still considered sparse."""
    k_max = max(changes)
    if min(changes) == n:
        return WaveType("B", k_max)
    if k_max <= k_a and k_a < n:
        return WaveType("A", k_max)
    return WaveType("mixed", k_max)


@dataclass(frozen=True)
class TrajectoryReport:
    """Outcome of following one trajectory until it repeats or times out.

    ``outcome`` is "quiescent" (reached a fixed point), "cyclic" (entered a
    cycle of period two or more), or "unresolved" (no repeat within the
    horizon). ``transient`` counts the steps before the first state of the
    cycle; for quiescent runs ``settle_time`` equals the transient and the
    period is 1. ``wave`` is set only for cyclic runs.
    """

    outcome: str
    transient: Optional[int]
    period: Optional[int]
    wave: Optional[WaveType]
    settle_time: Optional[int]
    horizon: int
    max_cells_changed: Optional[int]


def detect_cycle(
    rule: Rule,
    initial: Filament,
    horizon: Optional[int] = None,
    k_a: int = 2,
) -> TrajectoryReport:
    """Follow one trajectory until a state repeats or the horizon is hit.

    The first repeat pins down the transient (steps before the cycle) and
    the period exactly, since the dynamics are deterministic. Each visited
    state is kept as its packed uint8 row, one byte per cell, with the
    number of cells its step changed.
    """
    if horizon is None:
        horizon = default_horizon(len(initial))
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    cells = _uint8_cells(initial.cells, rule.num_states)
    kernel = _Kernel(rule, 1, len(cells))
    row = kernel.cells
    row[:, 0] = cells
    seen = {row.tobytes(): 0}
    changes: list[int] = []
    for t in range(1, horizon + 1):
        nxt = kernel.step()
        changes.append(int(np.count_nonzero(nxt != row)))
        row[...] = nxt
        start = seen.setdefault(nxt.tobytes(), t)
        if start == t:
            continue
        if t - start == 1:
            return TrajectoryReport("quiescent", transient=start, period=1, wave=None,
                                    settle_time=start, horizon=horizon, max_cells_changed=0)
        wave = _wave_type(changes[start:], len(initial), k_a)
        return TrajectoryReport("cyclic", transient=start, period=t - start, wave=wave,
                                settle_time=None, horizon=horizon, max_cells_changed=wave.k_max)
    return TrajectoryReport("unresolved", transient=None, period=None, wave=None,
                            settle_time=None, horizon=horizon, max_cells_changed=None)


# -- whole-state-space helpers: state ids and the half-window meet -----------


def all_states_matrix(num_states: int, n: int) -> np.ndarray:
    """Every length-``n`` filament as one row, in numeric order.

    Row ``i`` is the base-``num_states`` expansion of ``i``, most
    significant digit first, so the row index doubles as a state id.
    Column j holds each digit for a run of num_states**(n-1-j) rows, so each
    column is written in place through a broadcast view of the uint8 result.
    """
    matrix = np.empty((num_states**n, n), dtype=np.uint8)
    digits = np.arange(num_states, dtype=np.uint8)[:, None]
    for j in range(n):
        matrix.reshape(num_states**j, num_states, num_states ** (n - 1 - j), n)[..., j] = digits
    return matrix


def state_ids(states: np.ndarray, num_states: int) -> np.ndarray:
    """The state id (base-``num_states`` value) of every row of a state matrix."""
    ids = np.zeros(len(states), dtype=np.int64)
    for column in states.T:
        ids *= num_states
        ids += column
    return ids


@cache
def _half_window_keys(num_states: int, radius: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lookup-table keys of the cells each half window of a length-n filament decides.

    The first n//2 cells (head) read cells [0, min(n, n//2 + r)) and the rest
    (tail) cells [max(0, n//2 - r), n); an edge of either window inside the
    filament is never read. Returns the (head cells, head windows) and (tail
    cells, tail windows) flat keys, windows in state-id order.
    """
    head = n // 2
    start, stop = max(0, head - radius), min(n, head + radius)
    return tuple(
        neighborhood_keys(all_states_matrix(num_states, width), num_states, radius)[:, cols].T.copy()
        for width, cols in ((stop, slice(0, head)), (n - start, slice(head - start, None)))
    )


def _meet_halves(heads: np.ndarray, tails: np.ndarray, num_states: int, radius: int, n: int) -> np.ndarray:
    """Successor id of every length-n state from its halves' successors: (B, s**n).

    ``heads`` and ``tails`` hold each half's successor digits per half window
    (see ``_half_window_keys``), one row per table. The windows have a and t
    cells of their own and share o, so they meet in one broadcast over
    (B, s**a, s**o, s**t), in the dtype of ``heads`` widened to that of ``tails``.
    """
    head = n // 2
    start, stop = max(0, head - radius), min(n, head + radius)
    shape = (len(heads), num_states**start, num_states ** (stop - start), num_states ** (n - stop))
    high = heads.reshape(shape[:3] + (1,)) * heads.dtype.type(num_states ** (n - head))
    return (high + tails.reshape((len(tails), 1) + shape[2:])).reshape(len(heads), num_states**n)


def _successor_map(tables: np.ndarray, num_states: int, radius: int, n: int) -> np.ndarray:
    """Flat successor map of every length-n state under each of B flat lookup tables.

    Returns (B, s**n) int64: [b, x] is b * s**n plus the id of the successor
    of state x under ``tables[b]``, laid out as ``Rule.lookup_table.ravel()``.
    Ids past int64 raise ``ValueError`` before anything is built; below that, the
    census ``budget``, the hunt's 3**13 cap and ``_MAX_TABLE_LENGTH`` bound memory.
    """
    if n < 1:
        raise ValueError("filaments need at least one cell")
    if len(tables) * num_states**n > 2**63 - 1:
        raise ValueError(f"{len(tables)} maps of {num_states}**{n} states overflow int64 ids")
    heads, tails = (
        num_states ** np.arange(len(keys) - 1, -1, -1, dtype=np.int64) @ tables[:, keys]
        for keys in _half_window_keys(num_states, radius, n)
    )
    tails += np.arange(0, len(tables) * num_states**n, num_states**n)[:, None]
    return _meet_halves(heads, tails, num_states, radius, n)


def successor_array(rule: Rule, n: int) -> np.ndarray:
    """State id of the successor of every length-``n`` filament."""
    return _successor_map(rule.lookup_table.reshape(1, -1), rule.num_states, rule.radius, n)[0]


# No stop test: one like classify_functional_graph's slowed the hunt bench op 25-33 % (in-process A/B).
def _onto_cycles(flat: np.ndarray, size: int) -> np.ndarray:
    """Where each node of one or more maps of ``size`` nodes, laid out flat as
    ``_successor_map``'s, lands on its cycle: ceil(log2 size) rounds of
    ``flat[flat]`` (pointer jumping, Wyllie 1979). The landings are the cycle nodes."""
    for _ in range(max(size - 1, 0).bit_length()):
        flat = flat.take(flat)
    return flat


def classify_functional_graph(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transient length and eventual period for every node at once.

    ``succ`` maps each of the N node ids to its successor; an id that is not an
    integer in [0, N) raises ``ValueError``. Both pointer-jumping passes (Wyllie
    1979) stop once their work is done, after ceil(log2 T) rounds for the longest
    tail T rather than ceil(log2 N):

    - The walk onto the cycles: after k rounds ``landing`` is succ**(2**k). Its
      image L_k holds every cycle node and shrinks with k, and ``landing`` maps
      L_k onto L_{k+1}. Once that map is injective it permutes L_k, so L_k is
      the cycle set and every tail is at most 2**k long.
    - The M cycle nodes, numbered 0..M-1 in node order, get a running-minimum
      label doubling, which names each cycle by its smallest node and counts
      its period; every node takes the period of the node it lands on.
    - After k rounds of summing "off a cycle" along the walks, a transient is
      min(T, 2**k), so the walk's k rounds give every transient exactly.

    O(N log T + M log M).
    """
    succ = np.asarray(succ)
    total = len(succ)
    # A negative id reads as a huge one in the unsigned view, so one max checks both ends.
    if total and (succ.dtype.kind not in "iu" or succ.view(f"u{succ.itemsize}").max() >= total):
        raise ValueError(f"successor ids must be integers in [0, {total})")
    succ = succ.astype(np.int64, copy=False)
    on = np.zeros(total, dtype=bool)
    on[succ] = True
    cycle = np.flatnonzero(on)  # L_0, until the walk shrinks it to the cycle nodes
    landing, rounds = succ, 0
    while True:  # ``on`` marks L_k as ``cycle`` lists it; mark L_{k+1} in its place
        on[cycle] = False
        on[landing.take(cycle)] = True
        if np.count_nonzero(on) == len(cycle):
            break
        cycle = np.flatnonzero(on)
        landing, rounds = landing.take(landing), rounds + 1
    label = np.arange(len(cycle))
    period = np.zeros(total, dtype=np.int64)
    period[cycle] = label  # each cycle node's number in node order, until periods replace it
    jump = period.take(succ.take(cycle))
    for _ in range(max(len(cycle) - 1, 0).bit_length()):
        np.minimum(label, label.take(jump), out=label)
        jump = jump.take(jump)
    period[cycle] = np.bincount(label)[label]
    period = period.take(landing)
    del landing  # before the transient pass, which holds its own jumps
    # 1 off a cycle; the sums never pass 2**rounds, so the narrowest dtype that holds it.
    transient = (~on).astype(np.min_scalar_type(1 << rounds))
    for k in range(rounds):  # after k rounds, succ is succ**(2**k)
        if k:
            succ = succ.take(succ)
        transient += transient.take(succ)
    return transient.astype(np.int64), period
